//! Frozen serving vs the autograd evaluation path, on the same workload
//! family as `efficiency_scaling`: trained GML-FM variants scoring sparse
//! instances and ranking leave-one-out candidate sets.
//!
//! Expected shape: the graph path pays tape construction + node storage
//! per chunk and an `O(m²)` pair loop per instance; the frozen path
//! evaluates the Eq. 10/11 decoupled sums directly (`O(m·k²)`, no
//! allocation beyond a few `k`-vectors) and the ranker amortises the
//! context side across candidates. The head-to-head summary printed at
//! the end measures the speedup the serving refactor claims (≥5x).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gmlfm_bench::fixture;
use gmlfm_core::{GmlFm, GmlFmConfig};
use gmlfm_data::{DatasetSpec, Instance};
use gmlfm_eval::{evaluate_topn, evaluate_topn_backend, TopnMetrics};
use gmlfm_par::Parallelism;
use gmlfm_serve::{Freeze, FrozenModel};
use gmlfm_service::Catalog;
use gmlfm_train::{fit_regression, GraphModel, Scorer, TrainConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

struct Workload {
    model: GmlFm,
    fixture: gmlfm_bench::Fixture,
    test_instances: Vec<Instance>,
}

fn workload(cfg: &GmlFmConfig) -> Workload {
    let fixture = fixture(DatasetSpec::AmazonAuto);
    let mut model = GmlFm::new(fixture.dataset.schema.total_dim(), cfg);
    fit_regression(
        &mut model,
        &fixture.rating.train,
        None,
        &TrainConfig { epochs: 2, ..TrainConfig::default() },
    );
    let test_instances = fixture.rating.test.clone();
    Workload { model, fixture, test_instances }
}

/// Leave-one-out evaluation of the frozen model through the request path
/// over a catalog snapshot of the fixture dataset.
fn frozen_loo_eval(frozen: &FrozenModel, catalog: &Catalog, w: &Workload) -> TopnMetrics {
    evaluate_topn_backend(frozen, Some(catalog), None, &w.fixture.loo.test, 10, Parallelism::auto())
        .expect("leave-one-out cases come from the catalog")
}

fn bench_batch_scoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/batch_scoring");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for (name, cfg) in [("md", GmlFmConfig::mahalanobis(16)), ("dnn1", GmlFmConfig::dnn(16, 1))] {
        let w = workload(&cfg);
        let frozen = w.model.freeze();
        group.bench_with_input(BenchmarkId::new("graph_predict", name), &w.test_instances, |b, insts| {
            b.iter(|| black_box(w.model.predict(insts)))
        });
        group.bench_with_input(BenchmarkId::new("frozen_scores", name), &w.test_instances, |b, insts| {
            b.iter(|| black_box(frozen.scores(insts)))
        });
    }
    group.finish();
}

fn bench_topn_ranking(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/topn_ranking");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    let w = workload(&GmlFmConfig::dnn(16, 1));
    let frozen = w.model.freeze();
    let f = &w.fixture;
    let catalog = Catalog::from_dataset(&f.dataset, &f.mask);
    group.bench_function("graph_loo_eval", |b| {
        b.iter(|| black_box(evaluate_topn(&w.model, &f.dataset, &f.mask, &f.loo.test, 10)))
    });
    group.bench_function("frozen_loo_eval", |b| b.iter(|| black_box(frozen_loo_eval(&frozen, &catalog, &w))));
    group.finish();
}

/// Direct head-to-head on identical work, printing the measured speedups
/// (the number the acceptance criterion reads).
fn speedup_summary(_c: &mut Criterion) {
    let w = workload(&GmlFmConfig::dnn(16, 1));
    let frozen = w.model.freeze();
    let f = &w.fixture;
    let catalog = Catalog::from_dataset(&f.dataset, &f.mask);

    fn time(mut job: impl FnMut()) -> f64 {
        job(); // warm
        let reps = 5;
        let t = Instant::now();
        for _ in 0..reps {
            job();
        }
        t.elapsed().as_secs_f64() / reps as f64
    }

    let graph_batch = time(|| {
        black_box(w.model.predict(&w.test_instances));
    });
    let frozen_batch = time(|| {
        black_box(frozen.scores(&w.test_instances));
    });
    let graph_rank = time(|| {
        black_box(evaluate_topn(&w.model, &f.dataset, &f.mask, &f.loo.test, 10));
    });
    let frozen_rank = time(|| {
        black_box(frozen_loo_eval(&frozen, &catalog, &w));
    });

    println!(
        "\n== frozen-vs-graph head-to-head ({} test instances, {} loo cases) ==",
        w.test_instances.len(),
        f.loo.test.len()
    );
    println!(
        "batch scoring : graph {:>12?}  frozen {:>12?}  speedup {:>6.1}x",
        Duration::from_secs_f64(graph_batch),
        Duration::from_secs_f64(frozen_batch),
        graph_batch / frozen_batch
    );
    println!(
        "top-n ranking : graph {:>12?}  frozen {:>12?}  speedup {:>6.1}x",
        Duration::from_secs_f64(graph_rank),
        Duration::from_secs_f64(frozen_rank),
        graph_rank / frozen_rank
    );
}

criterion_group!(benches, bench_batch_scoring, bench_topn_ranking, speedup_summary);
criterion_main!(benches);
