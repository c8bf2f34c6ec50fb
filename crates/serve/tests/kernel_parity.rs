//! Kernel-parity sweep for the chunked scoring hot path.
//!
//! Two layers of pinning, from strictest to loosest:
//!
//! 1. **Block scan ≡ per-item scan, bitwise** — `score_block` (the
//!    `CAND_BLOCK`-wide entry the sharded retrieval path uses) must
//!    reproduce the per-item `score` loop bit for bit across every
//!    metric mode, factor widths straddling the kernel lane width, and
//!    candidate counts straddling the block width (remainder-loop
//!    coverage on both axes).
//! 2. **Chunked kernels ≈ scalar loop, ≤1e-12** — the `score_scalar`
//!    baseline mirrors every delta form with naive serial accumulation;
//!    the chunked kernels may round differently but never beyond a
//!    pairwise-reassociation bound.

use gmlfm_core::Distance;
use gmlfm_par::Parallelism;
use gmlfm_serve::{sharded_top_n, sharded_top_n_blocks, FrozenModel, SecondOrder};
use gmlfm_tensor::init::normal;
use gmlfm_tensor::seeded_rng;
use proptest::prelude::*;
use std::num::NonZeroUsize;

const N_USERS: usize = 4;
const N_ATTRS: usize = 9;

/// One candidate count per interesting remainder class of the 32-wide
/// candidate block: below, at, one past, and two-blocks-plus-remainder.
const CAND_COUNTS: [usize; 5] = [1, 31, 32, 33, 65];

/// Factor widths straddling the 8-lane kernel chunk.
const KS: [usize; 4] = [1, 2, 7, 16];

struct Fixture {
    model: FrozenModel,
    items: Vec<Vec<u32>>,
    template: Vec<u32>,
    item_slots: Vec<usize>,
}

/// A model + catalogue in every second-order mode the ranker serves.
/// `mode` also selects the context width: the weighted and unweighted
/// SquaredEuclidean forms have distinct narrow (`ctx ≤ k`) and wide
/// (`ctx > k`) delta paths, so both get their own fixture.
fn fixture(mode: usize, k: usize, n_items: usize, seed: u64) -> Fixture {
    let dim = N_USERS + n_items + N_ATTRS;
    let mut rng = seeded_rng(seed);
    let v = normal(&mut rng, dim, k, 0.0, 0.4);
    let v_hat = normal(&mut rng, dim, k, 0.0, 0.4);
    let h = normal(&mut rng, 1, k, 0.0, 0.4).into_vec();
    let w = normal(&mut rng, 1, dim, 0.0, 0.1).into_vec();
    let q: Vec<f64> = (0..dim).map(|r| v_hat.row(r).iter().map(|x| x * x).sum()).collect();
    let metric = |h: Option<Vec<f64>>, d: Distance| SecondOrder::metric(v_hat.clone(), q.clone(), h, d);
    let (second, wide_ctx) = match mode {
        0 => (metric(Some(h), Distance::SquaredEuclidean), false),
        1 => (metric(Some(h), Distance::SquaredEuclidean), true),
        2 => (metric(None, Distance::SquaredEuclidean), false),
        3 => (metric(None, Distance::SquaredEuclidean), true),
        4 => (metric(Some(h), Distance::Manhattan), false),
        5 => (metric(None, Distance::Chebyshev), false),
        6 => (metric(Some(h), Distance::Cosine), false),
        7 => (SecondOrder::Translated { v_trans: normal(&mut rng, dim, k, 0.0, 0.3) }, false),
        _ => (SecondOrder::Dot, false),
    };
    let model = FrozenModel::from_parts(0.1, w, v, second);
    let items: Vec<Vec<u32>> = (0..n_items)
        .map(|i| vec![(N_USERS + i) as u32, (N_USERS + n_items + (i * 7 + 3) % N_ATTRS) as u32])
        .collect();
    // Wide contexts exceed any k in KS: 17 user-side features before
    // the two item slots (attribute indices repeat, which is legal).
    let (template, item_slots) = if wide_ctx {
        let mut t = vec![1u32];
        t.extend((0..16).map(|a| (N_USERS + n_items + a % N_ATTRS) as u32));
        t.extend([0, 0]); // item slots, filled per candidate
        let slots = vec![17usize, 18];
        (t, slots)
    } else {
        (vec![1u32, 0, 0], vec![1usize, 2])
    };
    Fixture { model, items, template, item_slots }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Layer 1: the block entry is the per-item loop, bit for bit, at
    /// every shard/thread split.
    #[test]
    fn block_scan_is_bitwise_the_per_item_scan(
        mode in 0usize..9,
        k_idx in 0usize..KS.len(),
        count_idx in 0usize..CAND_COUNTS.len(),
        threads in 1usize..4,
        seed in 0u64..50,
    ) {
        let count = CAND_COUNTS[count_idx];
        let fx = fixture(mode, KS[k_idx], count, seed);
        let candidates: Vec<u32> = (0..count as u32).collect();
        let shards = NonZeroUsize::new(threads).expect("threads >= 1");
        let par = Parallelism::threads(threads);
        let per_item = sharded_top_n(
            &candidates,
            count,
            shards,
            par,
            || fx.model.ranker(&fx.template, &fx.item_slots),
            |ranker, item| ranker.score(&fx.items[item as usize]),
        );
        let blocked = sharded_top_n_blocks(
            &candidates,
            count,
            shards,
            par,
            || fx.model.ranker(&fx.template, &fx.item_slots),
            |ranker, ids, out| ranker.score_block(&fx.items, ids, out),
        );
        prop_assert_eq!(per_item.len(), blocked.len());
        for (p, b) in per_item.iter().zip(&blocked) {
            prop_assert_eq!(p.0, b.0, "mode {} k {} count {}", mode, KS[k_idx], count);
            prop_assert_eq!(
                p.1.to_bits(), b.1.to_bits(),
                "mode {} k {} count {}: per-item {} vs blocked {}", mode, KS[k_idx], count, p.1, b.1
            );
        }
    }

    /// Layer 2: chunked kernels vs the naive scalar accumulation — at
    /// most pairwise-reassociation rounding apart.
    #[test]
    fn chunked_scores_match_the_scalar_loop(
        mode in 0usize..9,
        k_idx in 0usize..KS.len(),
        seed in 0u64..50,
    ) {
        let count = 33; // one full block plus a remainder item
        let fx = fixture(mode, KS[k_idx], count, seed);
        let mut chunked = fx.model.ranker(&fx.template, &fx.item_slots);
        let mut scalar = fx.model.ranker(&fx.template, &fx.item_slots);
        for item in 0..count as u32 {
            let feats = &fx.items[item as usize];
            let a = chunked.score(feats);
            let b = scalar.score_scalar(feats);
            prop_assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                "mode {} k {} item {}: chunked {} vs scalar {}", mode, KS[k_idx], item, a, b
            );
        }
    }
}
