//! End-to-end and per-layer benchmark of the gmlfm serving stack.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire_topn --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each run builds its workload's fixtures, draws its requests from
//! `--seed`, drives open-loop traffic through the public TCP stack for
//! `--seconds`, checks the replies, and prints every metric by name and
//! unit. `perfbench/DESIGN.md` explains the workloads and metrics. The
//! last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` records spans
//! around the benchmark's calls into each layer and reports the
//! per-layer metrics instead. Every run appends a record with the host
//! fingerprint and process gauges to `.bench_out/runs.jsonl`; traced
//! runs also write their spans to `.bench_out/`.

mod host;
mod layers;
mod online;
mod openloop;
mod procfs;
mod stats;
mod trace;
mod wire;

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use serde::Serialize;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["wire_score", "wire_topn", "online_feed"];

/// Seed of the fixtures (catalogue, model, dataset, split). They are the
/// same in every run, so runs on different `--seed`s measure one system
/// under different request streams.
pub const FIXTURE_SEED: u64 = 2024;

/// In a traced run, every this-many-th request also replays its service
/// and serving-layer calls in process; every `REPLAY_EVERY * 4`-th also
/// replays the rank-layer calls. Sampling keeps the replays from
/// saturating the two cores the traffic runs on.
pub const REPLAY_EVERY: u64 = 4;

/// Generator threads: at most the two cores the workloads are sized for.
pub fn generator_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(2)
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Length of the measured window, s. A traced run spends half its
    /// time there and the rest on the untraced capacity ladder or the
    /// training twins, so both kinds of run take about `seconds`.
    pub fn window_s(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds must be within 1..=600, not {seconds}"));
    }
    Ok(Args { workload, seed: seed.ok_or("--seed is required")?, seconds, trace: trace.unwrap_or(false) })
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Metrics as one JSON object: `{name: {"value": v, "unit": u}}`.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

/// A metric's value and unit, as printed under its name.
#[derive(Serialize)]
struct Reading {
    value: f64,
    unit: String,
}

impl Serialize for Metrics {
    fn serialize_json(&self, out: &mut String) {
        let fields = self
            .0
            .iter()
            .map(|x| (x.name, json(&Reading { value: x.value, unit: x.unit.into() })));
        write_object(fields, out);
    }
}

/// A JSON object assembled field by field, each value serialised as it
/// is added (the run record, whose fields vary by workload).
#[derive(Debug, Clone, Default)]
pub struct Record(Vec<(&'static str, String)>);

impl Record {
    /// Appends field `key`.
    pub fn add(&mut self, key: &'static str, value: &impl Serialize) {
        self.0.push((key, json(value)));
    }
}

impl Serialize for Record {
    fn serialize_json(&self, out: &mut String) {
        write_object(self.0.iter().map(|(k, v)| (*k, v.clone())), out);
    }
}

/// Writes `{"k": v, ...}` from keys and already-serialised values.
fn write_object(fields: impl Iterator<Item = (&'static str, String)>, out: &mut String) {
    out.push('{');
    for (i, (key, value)) in fields.enumerate() {
        if i > 0 {
            out.push(',');
        }
        key.serialize_json(out);
        out.push(':');
        out.push_str(&value);
    }
    out.push('}');
}

/// `value` as JSON; non-finite numbers become `null`.
pub fn json(value: &(impl Serialize + ?Sized)) -> String {
    serde_json::to_string(value).expect("serialising to a string cannot fail")
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    /// Whether every checked output was right.
    pub correct: bool,
    /// Requests attempted, over every request kind.
    pub attempted: u64,
    /// Requests failed or never sent.
    pub failed: u64,
    /// End-to-end metrics (reported with `--trace 0`; a traced run
    /// records its own for the tracing-overhead comparison).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Workload fields of the run record (set-up times, window
    /// statistics, resource gauges, drain report, ladder steps).
    pub record: Record,
    /// Spans of a traced run.
    pub spans: Option<trace::Tracer>,
}

/// The result line: the last line of standard output.
#[derive(Serialize)]
struct Output {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Seconds spent in each part of one set-up; parts a workload does not
/// have read 0.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct SetupTimes {
    /// The whole set-up: data generation to a bound server.
    pub total_s: f64,
    /// Data generation.
    pub gen_s: f64,
    /// `IvfIndex::build`.
    pub index_build_s: f64,
    /// `EngineBuilder::fit`.
    pub fit_s: f64,
    /// CPU time the hypervisor gave other guests meanwhile, summed over
    /// the host's CPUs.
    pub steal_s: f64,
}

/// Builds a workload's stack `n` times, tearing each one down before
/// building the next, and keeps the last. Returns it with every
/// set-up's times; `setup_s` is their median, so that one set-up slowed
/// by the host does not set it.
pub fn repeat_setup<S>(
    n: usize,
    mut build: impl FnMut() -> Result<(S, SetupTimes), String>,
    mut teardown: impl FnMut(S),
) -> Result<(S, Vec<SetupTimes>), String> {
    let mut times = Vec::with_capacity(n);
    let mut stack = None;
    for _ in 0..n.max(1) {
        if let Some(old) = stack.take() {
            teardown(old);
        }
        let steal = procfs::CpuClock::read().steal_s;
        let (s, t) = build()?;
        stack = Some(s);
        times.push(SetupTimes { steal_s: procfs::CpuClock::read().steal_s - steal, ..t });
    }
    Ok((stack.expect("at least one set-up"), times))
}

/// Median of one part of the set-ups.
pub fn median_setup(times: &[SetupTimes], part: fn(&SetupTimes) -> f64) -> f64 {
    stats::median(&times.iter().map(part).collect::<Vec<_>>())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "wire_score" => wire::run_score(&args),
        "wire_topn" => wire::run_topn(&args),
        _ => online::run(&args),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let shown = if args.trace { &report.layers } else { &report.e2e };
    for x in shown {
        println!("{:<28} {:>16} {}", x.name, json(&x.value), x.unit);
    }
    if let Err(e) = write_record(&args, &report, process_start) {
        eprintln!("perfbench: could not write the run record: {e}");
        return ExitCode::from(1);
    }
    let output = Output {
        correct: report.correct,
        attempted: report.attempted.max(1),
        failed: report.failed,
        metrics: Metrics(shown.clone()),
    };
    println!("{}", json(&output));
    if !report.correct {
        eprintln!("perfbench: {} replied with wrong outputs (see above)", args.workload);
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Appends the run record (fingerprint, arguments, every metric, the
/// workload's own fields) to `.bench_out/runs.jsonl`, and writes a
/// traced run's spans.
fn write_record(args: &Args, report: &Report, process_start: Instant) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let mut record = Record::default();
    record.add("workload", &args.workload);
    record.add("seed", &args.seed);
    record.add("seconds", &args.seconds);
    record.add("trace", &args.trace);
    record.add("host", &host::fingerprint());
    record.add("correct", &report.correct);
    record.add("attempted", &report.attempted);
    record.add("failed", &report.failed);
    record.add("e2e", &Metrics(report.e2e.clone()));
    record.add("layers", &Metrics(report.layers.clone()));
    record.add("wall_s", &process_start.elapsed().as_secs_f64());
    record.0.extend(report.record.0.iter().cloned());
    if let Some(spans) = &report.spans {
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        spans.write_jsonl(&path)?;
        record.add("spans", &spans.spans().len());
    }
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("runs.jsonl"))?;
    writeln!(log, "{}", json(&record))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(&argv("--workload wire_topn --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(args, Args { workload: "wire_topn".into(), seed: 7, seconds: 10.0, trace: true });
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload wire_score --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload wire_score --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload wire_score --seed 1 --seconds 0 --trace 0")).is_err());
    }

    #[test]
    fn metrics_render_as_json_objects() {
        let out =
            json(&Metrics(vec![m("p50_us", 12.5, "us"), m("ok_frac", 1.0, "ratio"), m("x", f64::NAN, "s")]));
        assert_eq!(
            out,
            "{\"p50_us\":{\"value\":12.5,\"unit\":\"us\"},\"ok_frac\":{\"value\":1,\"unit\":\"ratio\"},\"x\":{\"value\":null,\"unit\":\"s\"}}"
        );
    }

    #[test]
    fn setups_repeat_and_keep_the_last() {
        let mut built = 0;
        let mut torn_down = Vec::new();
        let (last, times) = repeat_setup(
            3,
            || {
                built += 1;
                Ok((built, SetupTimes { total_s: f64::from(built), ..SetupTimes::default() }))
            },
            |old| torn_down.push(old),
        )
        .unwrap();
        assert_eq!((last, torn_down), (3, vec![1, 2]));
        assert_eq!(median_setup(&times, |t| t.total_s), 2.0);
    }
}
