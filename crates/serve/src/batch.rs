//! Chunked batch scoring for frozen models, serial and parallel.
//!
//! The frozen path has no per-batch graph to amortise, but serving still
//! processes requests in chunks — the same [`gmlfm_train::EVAL_CHUNK_SIZE`]
//! unit the autograd eval path uses — so downstream consumers (request
//! schedulers, progress reporting, parallel sharding) see one consistent
//! batching granularity across both paths. The chunk is also the unit of
//! parallel work: [`score_chunked_par`] hands whole chunks to pool
//! workers and merges the per-chunk outputs in input order, so the
//! result is **bit-identical** to the serial loop at every thread count
//! (per-instance prediction is pure; only the schedule changes).

use crate::frozen::FrozenModel;
use gmlfm_data::Instance;
use gmlfm_par::Parallelism;
use std::num::NonZeroUsize;

/// Scores `instances` in chunks of `chunk_size`, partitioned across
/// `par` workers of the global [`gmlfm_par`] pool. Outputs are merged in
/// input order and are bit-identical to the serial chunk loop for every
/// thread count; `Parallelism::serial()` (or `GMLFM_THREADS=1`) runs on
/// the calling thread and never touches the pool. The chunk size is a
/// [`NonZeroUsize`], matching [`gmlfm_train::GraphModel::predict_chunked`],
/// so an empty chunk is unrepresentable rather than a runtime panic.
pub fn score_chunked_par(
    model: &FrozenModel,
    instances: &[Instance],
    chunk_size: NonZeroUsize,
    par: Parallelism,
) -> Vec<f64> {
    gmlfm_par::par_chunks(par, instances, chunk_size, |chunk| {
        chunk.iter().map(|inst| model.predict(inst)).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::SecondOrder;
    use gmlfm_tensor::init::normal;
    use gmlfm_tensor::seeded_rng;

    fn model_and_instances() -> (FrozenModel, Vec<Instance>) {
        let mut rng = seeded_rng(3);
        let v = normal(&mut rng, 12, 3, 0.0, 0.5);
        let w = normal(&mut rng, 1, 12, 0.0, 0.1).into_vec();
        let model = FrozenModel::from_parts(0.5, w, v, SecondOrder::Dot);
        let insts: Vec<Instance> = (0..37).map(|i| Instance::new(vec![i % 12, (i + 5) % 12], 1.0)).collect();
        (model, insts)
    }

    #[test]
    fn chunking_is_invisible_in_the_output() {
        let (model, insts) = model_and_instances();
        let serial = Parallelism::serial();
        let whole = score_chunked_par(&model, &insts, NonZeroUsize::new(usize::MAX).unwrap(), serial);
        for chunk_size in [1, 2, 7, 37, 64] {
            let chunk_size = NonZeroUsize::new(chunk_size).unwrap();
            assert_eq!(score_chunked_par(&model, &insts, chunk_size, serial), whole, "chunk {chunk_size}");
        }
    }

    #[test]
    fn parallel_scoring_is_bit_identical_to_serial() {
        let (model, insts) = model_and_instances();
        let chunk = NonZeroUsize::new(5).unwrap();
        let serial = score_chunked_par(&model, &insts, chunk, Parallelism::serial());
        for threads in [1usize, 2, 3, 5] {
            let par = score_chunked_par(&model, &insts, chunk, Parallelism::threads(threads));
            assert_eq!(par, serial, "threads {threads}");
        }
    }
}
