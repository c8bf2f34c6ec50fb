//! The `online_feed` workload: writes beside reads.
//!
//! GML-FM_md (k = 16) is fit through `Engine::builder().online(true)` on
//! a Mercari-Books synthetic (1000 users × 9000 items), served with
//! `serve_online` (background trainer on, permissive gate so every round
//! publishes) behind `NetServer::bind_with_feed`. One generator thread
//! sends `Feed` events, each followed by a candidate-restricted top-1
//! that must come back empty (the fed item is excluded); the other sends
//! whole-catalogue exact top-10 reads, whose latency is the workload's
//! `p50_us`/`p99_us`.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gmlfm_autograd::Graph;
use gmlfm_core::{GmlFm, GmlFmConfig};
use gmlfm_data::{generate, loo_split, Dataset, DatasetSpec, FieldMask, Instance};
use gmlfm_engine::{Engine, ModelSpec, SplitPlan};
use gmlfm_net::{NetClient, NetReply, NetRequest, NetResponse, NetServer, ServerConfig};
use gmlfm_online::{EvalGate, OnlineConfig, OnlineError, OnlineModel, OnlineServing};
use gmlfm_par::Parallelism;
use gmlfm_serve::{Freeze, FrozenModel};
use gmlfm_service::{
    Catalog, Interaction, ModelServer, ModelSnapshot, ScoringBackend, SeenItems, TopNRequest,
};
use gmlfm_train::{fit_regression, labels_column, Adam, GraphModel, Optimizer, TrainConfig};

use crate::layers::median_span;
use crate::openloop::{self, StepStats};
use crate::trace::Tracer;
use crate::wire::{check_window, draw, exchange, metered, rank_cand_ns, rank_replay, Window};
use crate::{
    m, median_setup, repeat_setup, stats, Args, Metric, Report, SetupTimes, FIXTURE_SEED, REPLAY_EVERY,
};

const K: usize = 16;
const FIT_EPOCHS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Repeats of each timed call on the training twins.
const TWIN_REPEATS: usize = 3;
/// Feeds per second (each followed by its verifying top-1).
const FEED_RPS: f64 = 100.0;
/// Whole-catalogue reads per second.
const READ_RPS: f64 = 120.0;
/// Latency limit on read p99, µs: the backlog test and the generator's
/// lateness limit (there is no ladder on this workload).
const LIMIT_US: f64 = 50_000.0;
/// Share of each generator gap spent yielding (see `openloop::MAX_SPIN`).
const SPIN_SHARE: f64 = 0.2;
/// Request ids of the feed stream start here; reads count from 0.
const FEED_IDS: u64 = 1 << 40;

fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig { epochs, ..TrainConfig::default() }
}

/// The loop's knobs: a round as soon as any event is pending, one
/// warm-start epoch per round, and a gate that passes every candidate so
/// the publish interval measures the loop itself.
fn online_config(background: bool) -> OnlineConfig {
    OnlineConfig {
        background,
        min_events: 1,
        poll: std::time::Duration::from_millis(5),
        gate_tolerance: 1.0,
        train: train_config(1),
        ..OnlineConfig::default()
    }
}

struct Stack {
    dataset: Dataset,
    seen: SeenItems,
    serving: OnlineServing,
    net: NetServer,
}

fn build() -> Result<(Stack, SetupTimes), String> {
    let t0 = Instant::now();
    let dataset = generate(&DatasetSpec::MercariBooks.config(FIXTURE_SEED));
    let gen_s = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut rec = Engine::builder()
        .dataset(dataset.clone())
        .split(SplitPlan::topn(FIXTURE_SEED))
        .spec(ModelSpec::gml_fm(GmlFmConfig::mahalanobis(K)))
        .train_config(train_config(FIT_EPOCHS))
        .online(true)
        .fit()
        .map_err(|e| format!("fit: {e}"))?;
    let fit_s = t.elapsed().as_secs_f64();
    let seen = rec.seen().cloned().ok_or("a top-n fit keeps seen sets")?;
    let serving = rec
        .serve_online(online_config(true))
        .map_err(|e| format!("serve_online: {e}"))?;
    let net = NetServer::bind_with_feed(
        Arc::new(serving.server().clone()),
        Arc::new(serving.handle().clone()),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let times = SetupTimes { total_s: t0.elapsed().as_secs_f64(), gen_s, fit_s, ..SetupTimes::default() };
    Ok((Stack { dataset, seen, serving, net }, times))
}

/// What the feed stream saw.
#[derive(Default)]
struct FeedLog {
    /// Feed sent → verifying reply received, µs.
    fresh_us: Vec<f64>,
    /// Fed items still recommendable after their ack.
    not_excluded: usize,
    /// Acks that did not accept a fresh event.
    not_accepted: usize,
    pending_max: usize,
    /// Generations stamped on feed-stream replies, in order.
    generations: Vec<u64>,
}

/// Picks request `j`'s fresh `(user, item)`: drawn from the seed, then
/// the first item the user has neither seen in training nor been fed.
fn pick(seed: u64, j: u64, dataset: &Dataset, seen: &SeenItems, fed: &mut HashSet<(u32, u32)>) -> (u32, u32) {
    let d = draw(seed ^ 0xfeed, j);
    let user = (d % dataset.n_users as u64) as u32;
    let n_items = dataset.n_items as u32;
    let mut item = ((d >> 32) % u64::from(n_items)) as u32;
    while seen.contains(user, item) || fed.contains(&(user, item)) {
        item = (item + 1) % n_items;
    }
    fed.insert((user, item));
    (user, item)
}

/// Checks one stream's generations never go backwards and returns the
/// number of changes seen.
fn monotone_changes(gens: &[u64]) -> Option<usize> {
    let mut changes = 0;
    for w in gens.windows(2) {
        if w[1] < w[0] {
            return None;
        }
        changes += usize::from(w[1] > w[0]);
    }
    Some(changes)
}

/// Median gap (ms) between the reply times at which the generation
/// changed; 0 with fewer than two changes.
fn publish_interval_ms(replies: &[(f64, u64)]) -> f64 {
    let changes: Vec<f64> = replies.windows(2).filter(|w| w[1].1 > w[0].1).map(|w| w[1].0).collect();
    let gaps: Vec<f64> = changes.windows(2).map(|w| (w[1] - w[0]) * 1e3).collect();
    if gaps.is_empty() {
        0.0
    } else {
        stats::median(&gaps)
    }
}

/// `online_feed`.
pub fn run(args: &Args) -> Result<Report, String> {
    let (stack, setups) = repeat_setup(SETUPS, build, |old: Stack| {
        old.net.shutdown();
        old.serving.shutdown();
    })?;
    let fit_s = median_setup(&setups, |t| t.fit_s);

    let addr = stack.net.local_addr();
    let server = stack.serving.server().clone();
    let n_users = stack.dataset.n_users as u64;
    let epoch = Instant::now();
    let tracing = AtomicBool::new(args.trace);
    let feed_log = Mutex::new(FeedLog::default());
    let reads: Mutex<Vec<(f64, u64)>> = Mutex::new(Vec::new());
    let client = || NetClient::connect(addr).expect("a loopback address always resolves");

    let make_read = |_t: usize| {
        let mut client = client();
        let (server, reads, tracing) = (server.clone(), &reads, &tracing);
        move |i: u64, tr: &mut Tracer| {
            let user = (draw(args.seed, i) % n_users) as u32;
            let req = NetRequest::TopN(TopNRequest::new(user, 10));
            let replay = |tr: &mut Tracer, root: usize| {
                if !i.is_multiple_of(REPLAY_EVERY) {
                    return;
                }
                tr.time("service.call", Some(root), i, || server.top_n(&TopNRequest::new(user, 10)).is_ok());
                let (_, snap) = server.snapshot();
                let catalog = snap.catalog.as_ref().expect("served with a catalog");
                let template = catalog.template(user).expect("drawn users are in range");
                let candidates: Vec<u32> = (0..catalog.n_items() as u32)
                    .filter(|&item| !snap.seen.as_ref().is_some_and(|s| s.contains(user, item)))
                    .collect();
                tr.time("serve.topn.exact", Some(root), i, || {
                    snap.frozen
                        .select_top_n(catalog, template, &candidates, 10, Parallelism::auto())
                });
                if i.is_multiple_of(4 * REPLAY_EVERY) {
                    rank_replay(tr, root, i, &snap.frozen, catalog, template);
                }
            };
            // ORDERING: Relaxed — a mode flag set before the window starts.
            match exchange(
                &mut client,
                &req,
                i,
                tracing.load(Ordering::Relaxed).then_some(tr),
                "net.roundtrip",
                replay,
            ) {
                Ok(NetResponse { generation, reply: NetReply::TopN(items) }) => {
                    reads
                        .lock()
                        .expect("no panics while held")
                        .push((epoch.elapsed().as_secs_f64(), generation));
                    items.len() == 10
                }
                _ => false,
            }
        }
    };
    let make_feed = |_t: usize| {
        let mut client = client();
        let mut fed = HashSet::new();
        let (server, feed_log, tracing, stack) = (server.clone(), &feed_log, &tracing, &stack);
        move |j: u64, tr: &mut Tracer| {
            let (user, item) = pick(args.seed, j, &stack.dataset, &stack.seen, &mut fed);
            let id = FEED_IDS + j;
            // ORDERING: Relaxed — a mode flag set before the window starts.
            let traced = tracing.load(Ordering::Relaxed);
            let t = Instant::now();
            let feed = NetRequest::Feed(Interaction::new(user, item).id(j));
            let ack = tr.time("online.feed_roundtrip", None, id, || client.request(&feed));
            let verify = NetRequest::TopN(TopNRequest::new(user, 1).candidates(vec![item]));
            let check = tr.time("online.verify_roundtrip", None, id, || client.request(&verify));
            let fresh_us = t.elapsed().as_secs_f64() * 1e6;
            if traced {
                // Recording an already-recorded pair changes nothing.
                tr.time("service.record_seen", None, id, || server.record_seen(user, item).is_ok());
            }
            let mut log = feed_log.lock().expect("no panics while held");
            match (ack, check) {
                (
                    Ok(NetResponse { generation: g1, reply: NetReply::Feed(ack) }),
                    Ok(NetResponse { generation: g2, reply: NetReply::TopN(items) }),
                ) => {
                    log.fresh_us.push(fresh_us);
                    log.not_excluded += usize::from(!items.is_empty());
                    log.not_accepted += usize::from(!ack.accepted);
                    log.pending_max = log.pending_max.max(ack.pending);
                    log.generations.extend([g1, g2]);
                    true
                }
                _ => false,
            }
        }
    };

    openloop::run(READ_RPS, 0.25, 1, SPIN_SHARE, epoch, make_read);
    reads.lock().expect("no panics while held").clear();
    let (((read_step, mut spans), (feed_step, feed_spans)), gauges_start, gauges_end, cpu) = metered(|| {
        std::thread::scope(|s| {
            let feeder =
                s.spawn(|| openloop::run(FEED_RPS, args.window_s(), 1, SPIN_SHARE, epoch, make_feed));
            let reads = openloop::run(READ_RPS, args.window_s(), 1, SPIN_SHARE, epoch, make_read);
            (reads, feeder.join().expect("feed generator panicked"))
        })
    });
    spans.absorb(feed_spans);
    let read_stats = StepStats::of(&read_step, LIMIT_US);
    check_window("online_feed", &read_stats, LIMIT_US)?;
    let status = stack.serving.trainer().status();
    let retained = server.retained();

    let feed_log = feed_log.into_inner().expect("generator threads joined");
    let reads = reads.into_inner().expect("generator threads joined");
    let read_gens: Vec<u64> = reads.iter().map(|r| r.1).collect();
    let mut correct = true;
    let mut fail = |why: String| {
        eprintln!("online_feed: {why}");
        correct = false;
    };
    if feed_log.not_excluded > 0 {
        fail(format!("{} fed items were still recommendable after their ack", feed_log.not_excluded));
    }
    if feed_log.not_accepted > 0 {
        fail(format!("{} fresh events were not accepted", feed_log.not_accepted));
    }
    if status.rejected > 0 {
        fail(format!("the permissive gate rejected {} rounds", status.rejected));
    }
    match (monotone_changes(&read_gens), monotone_changes(&feed_log.generations)) {
        (Some(changes), Some(_)) if changes >= 2 => {}
        (Some(changes), Some(_)) => {
            fail(format!("only {changes} publishes seen by readers; the loop is not running"))
        }
        _ => fail("a stream saw the served generation go backwards".into()),
    }

    let attempted = (read_stats.attempted + 2 * feed_step.scheduled) as u64;
    let feed_failed = feed_step.scheduled - feed_step.samples.iter().filter(|s| s.ok).count();
    let failed = (read_stats.failed + 2 * feed_failed) as u64;
    let mut window = Window {
        stats: read_stats,
        spans,
        cpu,
        generator_cpu_s: read_step.generator_cpu_s + feed_step.generator_cpu_s,
        // A feed is two requests: the event and its verifying top-1.
        conns: read_step.samples.len() + 2 * feed_step.samples.len(),
        gauges_start,
        gauges_end,
    };
    let mut report = Report {
        correct,
        attempted,
        failed,
        e2e: window.e2e(median_setup(&setups, |t| t.total_s), attempted, failed),
        ..Report::default()
    };
    let fresh = stats::sorted(&feed_log.fresh_us);
    let interval = publish_interval_ms(&reads);
    report.record.add("setups", &setups);
    report.record.add("fit_s", &fit_s);
    report.record.add("fresh_p50_us", &stats::nearest_rank(&fresh, 0.5));
    report.record.add("fresh_p99_us", &stats::nearest_rank(&fresh, 0.99));
    report.record.add("fresh_samples", &fresh.len());
    report.record.add("publish_interval_ms", &interval);
    report.record.add("retained", &retained);
    report.record.add("published", &status.published);

    if args.trace {
        let spans = &window.spans;
        let mut found = window.net_layers(retained, "serve.topn.exact");
        found.extend([
            m("service.record_seen_us", median_span(spans, "service.record_seen", 1.0), "us"),
            m("serve.topn.exact_us", median_span(spans, "serve.topn.exact", 1.0), "us"),
            m("serve.rank.context_us", median_span(spans, "serve.rank.context", 1.0), "us"),
            m("serve.rank.cand_ns", rank_cand_ns(spans, stack.dataset.n_items), "ns"),
            m("online.rounds", status.rounds as f64, "count"),
            m("online.published", status.published as f64, "count"),
            m("online.rejected", status.rejected as f64, "count"),
            m("online.publish_frac", status.published as f64 / status.rounds.max(1) as f64, "ratio"),
            m("online.pending_max", feed_log.pending_max as f64, "count"),
            m("data.gen_s", median_setup(&setups, |t| t.gen_s), "s"),
            m("fit_s", fit_s, "s"),
            m("fresh_p50_us", stats::nearest_rank(&fresh, 0.5), "us"),
            m("fresh_p99_us", stats::nearest_rank(&fresh, 0.99), "us"),
            m("publish_interval_ms", interval, "ms"),
        ]);
        found.extend(twins(&stack, args.seed, &mut window.spans)?);
        report.layers = found;
    }

    let Stack { net, serving, .. } = stack;
    window.finish(&mut report, net);
    report.record.add("rounds", &serving.shutdown().rounds);
    Ok(report)
}

/// The training-side model behind an online twin: warm starts are
/// `fit_regression` from the current weights, as in the engine.
struct TwinModel(GmlFm);

impl OnlineModel for TwinModel {
    fn warm_fit(&mut self, train: &[Instance], cfg: &TrainConfig) -> Result<(), OnlineError> {
        fit_regression(&mut self.0, train, None, cfg);
        Ok(())
    }

    fn freeze(&self) -> Result<FrozenModel, OnlineError> {
        Ok(Freeze::freeze(&self.0))
    }
}

/// Layers the served loop runs on its own threads, timed from outside on
/// twins built from the same dataset and split: one traced training
/// epoch (forward, backward, optimizer step per minibatch), a
/// `fit_regression` epoch, freezing, the eval gate, and a synchronous
/// (`background: false`) online loop for feed, round and swap times.
fn twins(stack: &Stack, seed: u64, tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    let dataset = &stack.dataset;
    let mask = FieldMask::all(&dataset.schema);
    let plan = SplitPlan::topn(FIXTURE_SEED);
    let SplitPlan::TopN { neg_per_pos, n_candidates, .. } = plan else {
        unreachable!("SplitPlan::topn builds a top-n plan")
    };
    let split = loo_split(dataset, &mask, neg_per_pos, n_candidates, FIXTURE_SEED);
    let mut model = GmlFm::new(dataset.schema.total_dim(), &GmlFmConfig::mahalanobis(K));
    let cfg = train_config(1);

    // One epoch by hand, in the trainer's batch order without its
    // shuffle, with a span per step.
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let mut rng = gmlfm_tensor::seeded_rng(cfg.seed);
    let mut batches = 0u64;
    for (b, chunk) in split.train.chunks(cfg.batch_size).enumerate() {
        let id = b as u64;
        let batch: Vec<&Instance> = chunk.iter().collect();
        let mut g = Graph::new();
        let loss = tr.time("train.forward", None, id, || {
            let pred = model.forward_batch(&mut g, model.params(), &batch, true, &mut rng);
            let target = g.constant(labels_column(&batch));
            g.mse(pred, target)
        });
        let grads = tr.time("autograd.backward", None, id, || g.backward(loss));
        tr.time("train.step", None, id, || opt.step(model.params_mut(), &grads));
        batches += 1;
    }
    tr.time("train.epoch", None, 0, || fit_regression(&mut model, &split.train, None, &cfg));
    let param_bytes: usize = model.params().iter().map(|(_, p)| p.rows() * p.cols() * 8).sum();

    let mut frozen = None;
    for _ in 0..TWIN_REPEATS {
        frozen = Some(tr.time("serve.freeze", None, 0, || Freeze::freeze(&model)));
    }
    let frozen = frozen.expect("TWIN_REPEATS > 0");
    let catalog = Catalog::from_dataset(dataset, &mask);
    let gate = EvalGate::new(split.test.clone(), 10, 1.0).map_err(|e| e.to_string())?;
    for _ in 0..TWIN_REPEATS {
        tr.time("eval.gate", None, 0, || gate.score(&frozen, Some(&catalog), Parallelism::serial()))
            .map_err(|e| e.to_string())?;
    }

    let seen = SeenItems::new(split.train_user_items.iter().map(|s| s.iter().copied().collect()).collect());
    let server = ModelServer::new(ModelSnapshot {
        schema: dataset.schema.clone(),
        frozen,
        catalog: Some(catalog),
        seen: Some(seen.clone()),
        index: None,
    })
    .map_err(|e| e.to_string())?;
    let twin = OnlineServing::launch(
        server.clone(),
        Box::new(TwinModel(model)),
        split.train.clone(),
        split.test.clone(),
        online_config(false),
    )
    .map_err(|e| e.to_string())?;
    let mut fed = HashSet::new();
    for round in 0..3u64 {
        for j in 0..16 {
            let (user, item) = pick(seed ^ 0x7717, round * 16 + j, dataset, &seen, &mut fed);
            let event = Interaction::new(user, item).id(round * 16 + j);
            tr.time("online.feed", None, round, || twin.handle().feed(&event))
                .map_err(|e| e.to_string())?;
        }
        tr.time("online.round", None, round, || twin.trainer().run_once());
    }
    for k in 0..8 {
        let snap = server.snapshot().1.clone();
        tr.time("service.swap", None, k, || server.swap(snap))
            .map_err(|e| e.to_string())?;
    }
    twin.shutdown();

    Ok(vec![
        m("train.epoch_ms", median_span(tr, "train.epoch", 1e-3), "ms"),
        m("train.forward_ms", median_span(tr, "train.forward", 1e-3), "ms"),
        m("autograd.backward_ms", median_span(tr, "autograd.backward", 1e-3), "ms"),
        m("train.step_ms", median_span(tr, "train.step", 1e-3), "ms"),
        m("train.batches", batches as f64, "count"),
        m("train.param_bytes", param_bytes as f64, "bytes"),
        m("serve.freeze_ms", median_span(tr, "serve.freeze", 1e-3), "ms"),
        m("eval.gate_ms", median_span(tr, "eval.gate", 1e-3), "ms"),
        m("online.feed_us", median_span(tr, "online.feed", 1.0), "us"),
        m("online.round_ms", median_span(tr, "online.round", 1e-3), "ms"),
        m("service.swap_us", median_span(tr, "service.swap", 1.0), "us"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_must_not_go_backwards() {
        assert_eq!(monotone_changes(&[1, 1, 2, 2, 3]), Some(2));
        assert_eq!(monotone_changes(&[1, 2, 1]), None);
        assert_eq!(monotone_changes(&[]), Some(0));
    }

    #[test]
    fn publish_interval_is_the_median_gap_between_changes() {
        let replies = [(0.0, 1), (0.5, 2), (0.6, 2), (1.1, 3), (1.8, 4), (1.9, 4)];
        // Changes at 0.5, 1.1, 1.8 s → gaps 600 and 700 ms → nearest-rank median 600.
        assert!((publish_interval_ms(&replies) - 600.0).abs() < 1e-9);
        assert_eq!(publish_interval_ms(&replies[..3]), 0.0);
    }
}
