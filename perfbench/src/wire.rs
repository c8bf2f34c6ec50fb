//! The two catalogue workloads: `wire_score` and `wire_topn`.
//!
//! Both serve a 100k-item `generate_scale` catalogue (1024 users) from a
//! `FrozenModel::synthetic_metric_damped` model (k = 8) behind
//! `NetServer::bind`, and drive it through `NetClient::request`.
//! `wire_score` sends single `(user, item)` scores and serves without an
//! index; `wire_topn` sends whole-catalogue exclude-seen top-10 requests
//! against a snapshot carrying the seen sets and an `IvfIndex` built with
//! default options.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gmlfm_data::{generate_scale, FieldKind, FieldMask, ScaleConfig};
use gmlfm_net::{wire, ClientError, NetClient, NetReply, NetRequest, NetResponse, NetServer, ServerConfig};
use gmlfm_par::Parallelism;
use gmlfm_serve::{FrozenModel, IvfBuildOptions, IvfIndex};
use gmlfm_service::{
    Catalog, ModelServer, ModelSnapshot, ScoreRequest, ScoringBackend, SeenItems, TopNRequest,
};
use serde::Serialize;

use crate::layers::{self, median_span};
use crate::openloop::{self, StepStats};
use crate::procfs::{CpuClock, Gauges};
use crate::trace::Tracer;
use crate::{
    generator_threads, m, median_setup, repeat_setup, stats, Args, Metric, Report, SetupTimes, FIXTURE_SEED,
    REPLAY_EVERY,
};

const USERS: usize = 1024;
const ITEMS: usize = 100_000;
const K: usize = 8;
/// Every this-many-th request's reply in the measured window is kept and
/// checked after it.
const CHECK_EVERY: u64 = 8;
/// Request ids of ladder steps start here.
const LADDER_IDS: u64 = 1 << 40;
/// Users whose IVF top-10 is compared with the exact top-10.
const RECALL_PANEL: u32 = 32;
/// Candidates per `score_block` call in the rank-layer replay.
const RANK_BLOCK: usize = 4096;

/// A kept top-n reply: request id, generation, ranking.
type KeptRanking = (u64, u64, Vec<(u32, f64)>);

/// A serving workload's load plan.
pub struct Plan {
    /// Open-loop rate of the measured window, requests/s.
    pub nominal_rps: f64,
    /// Share of each generator thread's gap between requests spent
    /// yielding rather than sleeping.
    pub spin_share: f64,
    /// Ascending rates of the capacity ladder (traced runs).
    pub ladder: &'static [f64],
    /// Latency limit on p99, µs. A run whose generator's own p99
    /// lateness exceeds it is void: its latencies would be the
    /// generator's.
    pub limit_us: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// `wire_score`: transport-bound single scores.
pub const SCORE_PLAN: Plan = Plan {
    nominal_rps: 600.0,
    // As much of the gap as `MAX_SPIN` allows: a ~150 µs request
    // otherwise waits on idle-CPU wake-ups that vary with host load
    // more than the request itself.
    spin_share: 1.0,
    ladder: &[1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 8000.0],
    limit_us: 25_000.0,
    setups: 9,
};

/// `wire_topn`: retrieval-bound IVF top-10.
pub const TOPN_PLAN: Plan = Plan {
    nominal_rps: 200.0,
    spin_share: 0.2,
    ladder: &[100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 800.0, 1000.0],
    limit_us: 25_000.0,
    setups: 9,
};

/// One built serving stack.
struct Stack {
    server: ModelServer,
    net: NetServer,
}

fn build(indexed: bool) -> Result<(Stack, SetupTimes), String> {
    let t0 = Instant::now();
    let dataset = generate_scale(&ScaleConfig::new(USERS, ITEMS, FIXTURE_SEED));
    let gen_s = t0.elapsed().as_secs_f64();
    let catalog = Catalog::from_dataset(&dataset, &FieldMask::all(&dataset.schema));
    let item_field = dataset
        .schema
        .field_of_kind(FieldKind::Item)
        .ok_or("catalogue has no item field")?;
    let item_off = dataset.schema.offset(item_field);
    let frozen = FrozenModel::synthetic_metric_damped(
        dataset.schema.total_dim(),
        K,
        FIXTURE_SEED ^ 0x5eed_f00d,
        item_off..item_off + ITEMS,
        0.5,
    );
    let (seen, index, index_build_s) = if indexed {
        let mut per_user = vec![Vec::new(); USERS];
        for it in &dataset.interactions {
            per_user[it.user as usize].push(it.item);
        }
        let t = Instant::now();
        let index = IvfIndex::build(&frozen, &catalog, &IvfBuildOptions::default(), Parallelism::auto())
            .ok_or("the metric model must be indexable")?;
        (Some(SeenItems::new(per_user)), Some(index), t.elapsed().as_secs_f64())
    } else {
        (None, None, 0.0)
    };
    let server = ModelServer::new(ModelSnapshot {
        schema: dataset.schema,
        frozen,
        catalog: Some(catalog),
        seen,
        index,
    })
    .map_err(|e| format!("snapshot rejected: {e}"))?;
    let net = NetServer::bind(Arc::new(server.clone()), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let times =
        SetupTimes { total_s: t0.elapsed().as_secs_f64(), gen_s, index_build_s, ..SetupTimes::default() };
    Ok((Stack { server, net }, times))
}

/// Builds the stack `plan.setups` times and keeps the last.
fn setup(plan: &Plan, indexed: bool) -> Result<(Stack, Vec<SetupTimes>), String> {
    repeat_setup(
        plan.setups,
        || build(indexed),
        |old: Stack| {
            old.net.shutdown();
        },
    )
}

/// splitmix64: request `i`'s deterministic draw under `seed`.
pub fn draw(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One request through `NetClient::request`. Traced, it is a `request`
/// span holding the round trip, the four codec steps replayed in
/// process (client encode, server decode, server encode, client
/// decode), and whatever `replay` records for the service and serving
/// layers.
pub fn exchange(
    client: &mut NetClient,
    req: &NetRequest,
    id: u64,
    tr: Option<&mut Tracer>,
    roundtrip_name: &'static str,
    replay: impl FnOnce(&mut Tracer, usize),
) -> Result<NetResponse, ClientError> {
    let Some(tr) = tr else {
        return client.request(req);
    };
    let root = tr.open("request", None, id);
    let payload = tr.time("net.codec", Some(root), id, || wire::encode_request(req));
    let resp = tr.time(roundtrip_name, Some(root), id, || client.request(req));
    tr.time("net.codec", Some(root), id, || wire::decode_request(payload.as_bytes()).is_ok());
    replay(tr, root);
    if let Ok(resp) = &resp {
        let bytes = tr.time("net.codec", Some(root), id, || wire::encode_response(resp));
        tr.time("net.codec", Some(root), id, || wire::decode_response(bytes.as_bytes()).is_ok());
    }
    tr.close(root);
    resp
}

/// What a workload's measured window saw.
pub struct Window {
    /// Latency and lateness of the window's requests (the reads, on
    /// `online_feed`).
    pub stats: StepStats,
    /// Spans of a traced run.
    pub spans: Tracer,
    /// CPU time this process used, and the host had stolen, meanwhile.
    pub cpu: CpuClock,
    /// CPU time of the generator threads.
    pub generator_cpu_s: f64,
    /// Connections the window's requests opened: one per request sent.
    pub conns: usize,
    /// Process gauges as the window started.
    pub gauges_start: Gauges,
    /// Process gauges as it ended.
    pub gauges_end: Gauges,
}

/// Runs `f`, the measured window, between two readings of the process
/// gauges and CPU clocks.
pub fn metered<T>(f: impl FnOnce() -> T) -> (T, Gauges, Gauges, CpuClock) {
    let gauges_start = Gauges::read();
    let cpu_start = CpuClock::read();
    let out = f();
    let cpu = CpuClock::read().since(&cpu_start);
    (out, gauges_start, Gauges::read(), cpu)
}

impl Window {
    /// The end-to-end metrics every workload reports. CPU per request
    /// is the process's CPU time over the window minus the generator
    /// threads' own, per answered request.
    pub fn e2e(&self, setup_s: f64, attempted: u64, failed: u64) -> Vec<Metric> {
        let served = attempted.saturating_sub(failed).max(1) as f64;
        let server_cpu_s = self.cpu.process_s - self.generator_cpu_s;
        vec![
            m("setup_s", setup_s, "s"),
            m("rss_mb", self.gauges_end.vm_hwm_kb as f64 / 1024.0, "MiB"),
            m("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64, "ratio"),
            m("p50_us", self.stats.p50_us, "us"),
            m("cpu_us_per_req", server_cpu_s * 1e6 / served, "us"),
        ]
    }

    /// The transport, service and generator metrics of a traced run;
    /// `serve_child` names the serving-layer span under the service call.
    pub fn net_layers(&self, retained: usize, serve_child: &str) -> Vec<Metric> {
        let conns = self.conns as f64;
        let maps = self.gauges_end.maps as f64 - self.gauges_start.maps as f64;
        let mut out = layers::request_breakdown(&self.spans, serve_child);
        out.extend([
            m("net.conns", conns, "count"),
            m("net.maps_per_conn", maps / conns.max(1.0), "count"),
            m("net.threads_end", self.gauges_end.threads as f64, "count"),
            m("gen.lag_p99_us", self.stats.lag_p99_us, "us"),
            m("gen.self_us", layers::median_self_us(&self.spans, "request"), "us"),
            m("p99_us", self.stats.p99_us, "us"),
            m("service.retained", retained as f64, "count"),
        ]);
        out
    }

    /// Drains the server, records the window, its gauges and the drain
    /// report, and completes a traced run's per-layer metrics.
    pub fn finish(self, report: &mut Report, net: NetServer) {
        let drain = net.shutdown();
        report.record.add("conns", &self.conns);
        report.record.add("gauges_start", &self.gauges_start);
        report.record.add("gauges_end", &self.gauges_end);
        report.record.add(
            "drain",
            &Drain {
                served: drain.served,
                shed: drain.shed,
                connections_drained: drain.connections_drained,
                worker_panics: drain.worker_panics,
            },
        );
        report.record.add("window", &self.stats);
        report.record.add("cpu", &self.cpu);
        report.record.add("generator_cpu_s", &self.generator_cpu_s);
        if drain.worker_panics > 0 {
            eprintln!("{} server handler threads panicked", drain.worker_panics);
            report.correct = false;
        }
        if !report.layers.is_empty() {
            report.layers.push(m("net.shed", drain.shed as f64, "count"));
            report.layers = layers::complete(std::mem::take(&mut report.layers));
            report.spans = Some(self.spans);
        }
    }
}

/// `gmlfm_net::DrainReport` as recorded.
#[derive(Serialize)]
struct Drain {
    served: u64,
    shed: u64,
    connections_drained: usize,
    worker_panics: usize,
}

fn client(addr: std::net::SocketAddr) -> NetClient {
    NetClient::connect(addr).expect("a loopback address always resolves")
}

/// Requests per ladder step: enough for a p99 with ten samples beyond.
const STEP_REQUESTS: f64 = 1010.0;

/// Runs the capacity ladder and returns `slo_rps` and the steps run.
/// Steps are sized by request count, not time, because every request
/// opens a connection whose thread stack the server never releases (see
/// `DESIGN.md`).
fn ladder<G>(plan: &Plan, epoch: Instant, make: impl Fn(usize) -> G + Sync) -> (f64, Vec<StepStats>)
where
    G: FnMut(u64, &mut Tracer) -> bool,
{
    let mut steps = Vec::new();
    for (n, &rate) in plan.ladder.iter().enumerate() {
        let secs = STEP_REQUESTS / rate;
        let base = LADDER_IDS * (n as u64 + 1);
        let (step, _) = openloop::run(rate, secs, generator_threads(), plan.spin_share, epoch, |t| {
            let mut send = make(t);
            move |i: u64, tr: &mut Tracer| send(base + i, tr)
        });
        let st = StepStats::of(&step, plan.limit_us);
        let pass = st.passes(plan.limit_us);
        println!(
            "ladder {rate:>7} req/s: p50 {:>9.1} us  p99 {:>9.1} us  failed {}  backlog {}  pass {pass}",
            st.p50_us, st.p99_us, st.failed, st.backlog
        );
        steps.push(st);
        if !pass {
            break;
        }
    }
    (openloop::slo_rps(&steps, plan.limit_us), steps)
}

/// Fails the run when the measured window cannot support its numbers:
/// too few samples for a p99, or a generator that fell behind.
pub fn check_window(name: &str, st: &StepStats, limit_us: f64) -> Result<(), String> {
    if st.p99_us.is_nan() {
        return Err(format!(
            "{name}: {} of {} requests failed or unsent; too few for a p99 with ten samples beyond",
            st.failed, st.attempted
        ));
    }
    if st.lag_p99_us > limit_us {
        return Err(format!(
            "{name}: generator p99 lateness {:.0} us exceeds the {:.0} us limit; latencies would be the generator's",
            st.lag_p99_us, limit_us
        ));
    }
    Ok(())
}

/// Warms the stack up for a quarter second, then measures the nominal
/// window and checks that it supports its numbers.
fn nominal_window<G>(
    name: &str,
    plan: &Plan,
    args: &Args,
    epoch: Instant,
    make: impl Fn(usize) -> G + Sync,
) -> Result<Window, String>
where
    G: FnMut(u64, &mut Tracer) -> bool,
{
    openloop::run(plan.nominal_rps, 0.25, generator_threads(), plan.spin_share, epoch, &make);
    let ((step, spans), gauges_start, gauges_end, cpu) = metered(|| {
        openloop::run(plan.nominal_rps, args.window_s(), generator_threads(), plan.spin_share, epoch, &make)
    });
    let stats = StepStats::of(&step, plan.limit_us);
    check_window(name, &stats, plan.limit_us)?;
    Ok(Window {
        stats,
        spans,
        cpu,
        generator_cpu_s: step.generator_cpu_s,
        conns: step.samples.len(),
        gauges_start,
        gauges_end,
    })
}

/// `wire_score`: single `(user, item)` scores.
pub fn run_score(args: &Args) -> Result<Report, String> {
    let plan = &SCORE_PLAN;
    let (stack, setups) = setup(plan, false)?;
    let addr = stack.net.local_addr();
    let (_, snap) = stack.server.snapshot();
    let catalog = snap.catalog.as_ref().expect("built with a catalog");
    let frozen = &snap.frozen;
    let pair = |i: u64| {
        let d = draw(args.seed, i);
        ((d % USERS as u64) as u32, ((d >> 32) % ITEMS as u64) as u32)
    };
    let epoch = Instant::now();
    let kept: Mutex<Vec<(u64, u64, f64)>> = Mutex::new(Vec::new());
    let tracing = AtomicBool::new(args.trace);
    let make = |_t: usize| {
        let mut client = client(addr);
        let server = stack.server.clone();
        let (kept, tracing) = (&kept, &tracing);
        move |i: u64, tr: &mut Tracer| {
            let (user, item) = pair(i);
            let req = NetRequest::Score(ScoreRequest::pair(user, item));
            let replay = |tr: &mut Tracer, root: usize| {
                if !i.is_multiple_of(REPLAY_EVERY) {
                    return;
                }
                tr.time("service.call", Some(root), i, || {
                    server.score(&ScoreRequest::pair(user, item)).is_ok()
                });
                let feats = catalog.feats(user, item).expect("drawn ids are in range");
                tr.time("serve.score", Some(root), i, || std::hint::black_box(frozen.predict_feats(&feats)));
            };
            match exchange(
                &mut client,
                &req,
                i,
                tracing.load(Ordering::Relaxed).then_some(tr),
                "net.roundtrip",
                replay,
            ) {
                Ok(NetResponse { generation, reply: NetReply::Score(v) }) => {
                    if i < LADDER_IDS && i.is_multiple_of(CHECK_EVERY) {
                        kept.lock().expect("no panics while held").push((i, generation, v));
                    }
                    true
                }
                _ => false,
            }
        }
    };
    let window = nominal_window("wire_score", plan, args, epoch, make)?;

    // Every kept reply must be bitwise the model's score of the
    // catalogue-spliced features, from the one generation served.
    let kept = std::mem::take(&mut *kept.lock().expect("no panics while held"));
    let mut correct = !kept.is_empty();
    for &(i, generation, v) in &kept {
        let (user, item) = pair(i);
        let want = frozen.predict_feats(&catalog.feats(user, item).expect("in range"));
        if generation != 1 || v.to_bits() != want.to_bits() {
            eprintln!("wire_score: request {i} ({user}, {item}) replied {v} at generation {generation}, want {want}");
            correct = false;
        }
    }

    let mut report = window_report(correct, &window, &setups);
    if args.trace {
        // The ladder measures capacity untraced.
        tracing.store(false, Ordering::Relaxed);
        let (slo, steps) = ladder(plan, epoch, make);
        report.record.add("ladder", &steps);
        let mut layers = window.net_layers(stack.server.retained(), "serve.score");
        layers.extend([
            m("serve.score_ns", median_span(&window.spans, "serve.score", 1e3), "ns"),
            m("slo_rps", slo, "req/s"),
            m("data.gen_s", median_setup(&setups, |t| t.gen_s), "s"),
        ]);
        report.layers = layers;
    }
    window.finish(&mut report, stack.net);
    Ok(report)
}

/// The report of a wire workload's window, whose requests are all of
/// one kind.
fn window_report(correct: bool, window: &Window, setups: &[SetupTimes]) -> Report {
    let attempted = window.stats.attempted as u64;
    let failed = window.stats.failed as u64;
    let mut report = Report {
        correct,
        attempted,
        failed,
        e2e: window.e2e(median_setup(setups, |t| t.total_s), attempted, failed),
        ..Report::default()
    };
    report.record.add("setups", &setups.to_vec());
    report
}

/// `wire_topn`: whole-catalogue exclude-seen IVF top-10.
pub fn run_topn(args: &Args) -> Result<Report, String> {
    let plan = &TOPN_PLAN;
    let (stack, setups) = setup(plan, true)?;
    let addr = stack.net.local_addr();
    let (_, snap) = stack.server.snapshot();
    let catalog = snap.catalog.as_ref().expect("built with a catalog");
    let seen = snap.seen.as_ref().expect("built with seen sets");
    let index = snap.index.as_ref().expect("built with an index");
    let frozen = &snap.frozen;
    let user_of = |i: u64| (draw(args.seed, i) % USERS as u64) as u32;
    let epoch = Instant::now();
    let kept: Mutex<Vec<KeptRanking>> = Mutex::new(Vec::new());
    let tracing = AtomicBool::new(args.trace);
    let make = |_t: usize| {
        let mut client = client(addr);
        let server = stack.server.clone();
        let (kept, tracing) = (&kept, &tracing);
        move |i: u64, tr: &mut Tracer| {
            let user = user_of(i);
            let req = NetRequest::TopN(TopNRequest::new(user, 10));
            let replay = |tr: &mut Tracer, root: usize| {
                if !i.is_multiple_of(REPLAY_EVERY) {
                    return;
                }
                tr.time("service.call", Some(root), i, || server.top_n(&TopNRequest::new(user, 10)).is_ok());
                let template = catalog.template(user).expect("drawn users are in range");
                tr.time("serve.index.search", Some(root), i, || {
                    index.search(
                        frozen,
                        catalog,
                        template,
                        catalog.item_slots(),
                        10,
                        index.default_nprobe(),
                        Parallelism::auto(),
                        &|item| seen.contains(user, item),
                    )
                });
                if i.is_multiple_of(4 * REPLAY_EVERY) {
                    rank_replay(tr, root, i, frozen, catalog, template);
                }
            };
            match exchange(
                &mut client,
                &req,
                i,
                tracing.load(Ordering::Relaxed).then_some(tr),
                "net.roundtrip",
                replay,
            ) {
                Ok(NetResponse { generation, reply: NetReply::TopN(items) }) => {
                    if i < LADDER_IDS && i.is_multiple_of(CHECK_EVERY) {
                        kept.lock().expect("no panics while held").push((i, generation, items));
                    }
                    true
                }
                _ => false,
            }
        }
    };
    let window = nominal_window("wire_topn", plan, args, epoch, make)?;

    // Every kept reply must be item-for-item (scores bitwise) the
    // in-process `ModelServer::top_n` answer at the same generation.
    let kept = std::mem::take(&mut *kept.lock().expect("no panics while held"));
    let mut correct = !kept.is_empty();
    for (i, generation, items) in &kept {
        let user = user_of(*i);
        let want = stack.server.top_n(&TopNRequest::new(user, 10)).map_err(|e| e.to_string())?;
        if !same_ranking(items, &want.value) || *generation != want.generation {
            eprintln!("wire_topn: request {i} (user {user}) replied {items:?} at generation {generation}, want {:?}", want.value);
            correct = false;
        }
    }

    let mut report = window_report(correct, &window, &setups);
    if args.trace {
        let (recall, exact_us, mismatched) = recall_panel(&stack.server);
        if mismatched > 0 {
            eprintln!(
                "wire_topn: {mismatched} indexed scores differ from the exact scores of the same items"
            );
            report.correct = false;
        }
        // The ladder measures capacity untraced.
        tracing.store(false, Ordering::Relaxed);
        let (slo, steps) = ladder(plan, epoch, make);
        report.record.add("ladder", &steps);
        let mut layers = window.net_layers(stack.server.retained(), "serve.index.search");
        layers.extend([
            m("serve.index.search_us", median_span(&window.spans, "serve.index.search", 1.0), "us"),
            m("serve.index.build_ms", median_setup(&setups, |t| t.index_build_s) * 1e3, "ms"),
            m("serve.topn.exact_us", exact_us, "us"),
            m("serve.rank.context_us", median_span(&window.spans, "serve.rank.context", 1.0), "us"),
            m("serve.rank.cand_ns", rank_cand_ns(&window.spans, ITEMS), "ns"),
            m("slo_rps", slo, "req/s"),
            m("recall_at_10", recall, "ratio"),
            m("data.gen_s", median_setup(&setups, |t| t.gen_s), "s"),
        ]);
        report.layers = layers;
    }
    window.finish(&mut report, stack.net);
    Ok(report)
}

/// Equal item ids in order, with bitwise-equal scores.
pub fn same_ranking(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Times the paper's decoupled scoring from outside: building a ranker
/// computes the context terms once (Eq. 10), then `score_block` pays
/// only the per-candidate delta (Eq. 11).
pub fn rank_replay(
    tr: &mut Tracer,
    root: usize,
    id: u64,
    frozen: &FrozenModel,
    catalog: &Catalog,
    template: &[u32],
) {
    let mut ranker =
        tr.time("serve.rank.context", Some(root), id, || frozen.ranker(template, catalog.item_slots()));
    let n = catalog.n_items().min(2 * RANK_BLOCK) as u32;
    let (first, second): (Vec<u32>, Vec<u32>) = (0..n).partition(|&i| (i as usize) < RANK_BLOCK);
    let mut out = Vec::with_capacity(n as usize);
    // The first block also materialises the ranker's dense delta tables;
    // the second one times the steady per-candidate cost.
    tr.time("serve.rank.first_block", Some(root), id, || ranker.score_block(catalog, &first, &mut out));
    tr.time("serve.rank.cand", Some(root), id, || ranker.score_block(catalog, &second, &mut out));
    std::hint::black_box(&out);
}

/// Median per-candidate cost of the `score_block` replays, ns.
pub fn rank_cand_ns(tr: &Tracer, n_items: usize) -> f64 {
    let block = n_items.saturating_sub(RANK_BLOCK).clamp(1, RANK_BLOCK);
    median_span(tr, "serve.rank.cand", 1e3) / block as f64
}

/// recall@10 of the served (IVF) top-10 against the exact top-10 over
/// the fixed panel of users `0..RECALL_PANEL`, the median time of the
/// exact `select_top_n` (µs), and how many served items matching an
/// exact item carried a score that is not bitwise the exact one.
fn recall_panel(server: &ModelServer) -> (f64, f64, usize) {
    let (_, snap) = server.snapshot();
    let catalog = snap.catalog.as_ref().expect("built with a catalog");
    let seen = snap.seen.as_ref().expect("built with seen sets");
    let mut hits = 0usize;
    let mut mismatched = 0usize;
    let mut exact_us = Vec::new();
    for user in 0..RECALL_PANEL {
        let served = server
            .top_n(&TopNRequest::new(user, 10))
            .expect("panel users are in range")
            .value;
        let template = catalog.template(user).expect("panel users are in range");
        let candidates: Vec<u32> =
            (0..catalog.n_items() as u32).filter(|&i| !seen.contains(user, i)).collect();
        let t = Instant::now();
        let exact = snap
            .frozen
            .select_top_n(catalog, template, &candidates, 10, Parallelism::auto());
        exact_us.push(t.elapsed().as_secs_f64() * 1e6);
        for (item, score) in &served {
            if let Some((_, s)) = exact.iter().find(|(e, _)| e == item) {
                hits += 1;
                mismatched += usize::from(score.to_bits() != s.to_bits());
            }
        }
    }
    (hits as f64 / (RECALL_PANEL as usize * 10) as f64, stats::median(&exact_us), mismatched)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_ranking_is_caught() {
        let good = vec![(3, 0.5), (1, 0.25)];
        assert!(same_ranking(&good, &good.clone()));
        assert!(!same_ranking(&good, &[(1, 0.25), (3, 0.5)]));
        assert!(!same_ranking(&good, &[(3, 0.5), (1, f64::from_bits(0.25f64.to_bits() + 1))]));
        assert!(!same_ranking(&good, &good[..1]));
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        assert_eq!(draw(1, 5), draw(1, 5));
        assert_ne!(draw(1, 5), draw(2, 5));
        assert_ne!(draw(1, 5), draw(1, 6));
    }
}
