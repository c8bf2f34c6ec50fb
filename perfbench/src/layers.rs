//! The per-layer metric set and the span arithmetic behind it.
//!
//! Every traced run reports every metric below. A layer a workload's
//! requests never reach reads 0 there: that is the "should not move"
//! side of the prediction each metric carries (see `perfbench/DESIGN.md`).

use std::collections::BTreeMap;

use crate::trace::{self, Tracer};
use crate::{m, stats, Metric};

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.roundtrip_us", "us"),
    ("net.codec_us", "us"),
    ("net.transport_us", "us"),
    ("net.stall_frac", "ratio"),
    ("net.conns", "count"),
    ("net.maps_per_conn", "count"),
    ("net.threads_end", "count"),
    ("net.shed", "count"),
    ("gen.lag_p99_us", "us"),
    ("gen.self_us", "us"),
    ("service.call_us", "us"),
    ("service.self_us", "us"),
    ("service.record_seen_us", "us"),
    ("service.swap_us", "us"),
    ("service.retained", "count"),
    ("serve.score_ns", "ns"),
    ("serve.index.search_us", "us"),
    ("serve.index.build_ms", "ms"),
    ("serve.topn.exact_us", "us"),
    ("serve.rank.context_us", "us"),
    ("serve.rank.cand_ns", "ns"),
    ("serve.freeze_ms", "ms"),
    ("online.feed_us", "us"),
    ("online.round_ms", "ms"),
    ("online.rounds", "count"),
    ("online.published", "count"),
    ("online.rejected", "count"),
    ("online.publish_frac", "ratio"),
    ("online.pending_max", "count"),
    ("train.epoch_ms", "ms"),
    ("train.forward_ms", "ms"),
    ("autograd.backward_ms", "ms"),
    ("train.step_ms", "ms"),
    ("train.batches", "count"),
    ("train.param_bytes", "bytes"),
    ("eval.gate_ms", "ms"),
    ("data.gen_s", "s"),
    ("p99_us", "us"),
    ("slo_rps", "req/s"),
    ("recall_at_10", "ratio"),
    ("fit_s", "s"),
    ("fresh_p50_us", "us"),
    ("fresh_p99_us", "us"),
    ("publish_interval_ms", "ms"),
];

/// `found` in [`PER_LAYER`] order, with 0 for every metric the workload
/// did not measure. Panics on a name outside the table or a unit that
/// disagrees with it (a bug in this benchmark).
pub fn complete(found: Vec<Metric>) -> Vec<Metric> {
    for x in &found {
        let unit = PER_LAYER.iter().find(|(n, _)| *n == x.name).map(|(_, u)| *u);
        assert_eq!(unit, Some(x.unit), "per-layer metric {} is not in the table as {}", x.name, x.unit);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| found.iter().find(|x| x.name == name).cloned().unwrap_or(m(name, 0.0, unit)))
        .collect()
}

/// Median duration of the spans called `name`, in `scale` units per µs
/// (1e-3 for ms, 1 for µs, 1e3 for ns).
pub fn median_span(tr: &Tracer, name: &str, scale: f64) -> f64 {
    let d = tr.durations_us(name);
    if d.is_empty() {
        0.0
    } else {
        stats::median(&d) * scale
    }
}

/// Round trips slower than this count as stalls.
pub const STALL_US: f64 = 20_000.0;

/// The request-path breakdown of a traced wire run. Each traced request
/// is a `request` span whose children are the round trip itself, the
/// four codec steps replayed in process, the in-process service call,
/// and the serving-layer call named `serve_child`, all sharing the
/// request id. Per request, transport is round trip − service call −
/// codec, and service self time is service call − serving call; the
/// metrics are medians over requests.
pub fn request_breakdown(tr: &Tracer, serve_child: &str) -> Vec<Metric> {
    #[derive(Default)]
    struct Acc {
        roundtrip: Option<f64>,
        codec: f64,
        call: Option<f64>,
        child: Option<f64>,
    }
    let mut per_req: BTreeMap<u64, Acc> = BTreeMap::new();
    for s in tr.spans() {
        let us = s.dur() as f64 / 1e3;
        let acc = per_req.entry(s.req).or_default();
        match s.name {
            "net.roundtrip" => acc.roundtrip = Some(us),
            "net.codec" => acc.codec += us,
            "service.call" => acc.call = Some(us),
            name if name == serve_child => acc.child = Some(us),
            _ => {}
        }
    }
    let mut codec = Vec::new();
    let mut transport = Vec::new();
    let mut service_self = Vec::new();
    for acc in per_req.values() {
        if let (Some(rt), Some(call)) = (acc.roundtrip, acc.call) {
            codec.push(acc.codec);
            transport.push(rt - call - acc.codec);
            if let Some(child) = acc.child {
                service_self.push(call - child);
            }
        }
    }
    let roundtrips = tr.durations_us("net.roundtrip");
    let stalls = roundtrips.iter().filter(|&&us| us > STALL_US).count();
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    vec![
        m("net.roundtrip_us", med(&roundtrips), "us"),
        m("net.codec_us", med(&codec), "us"),
        m("net.transport_us", med(&transport), "us"),
        m("net.stall_frac", stalls as f64 / roundtrips.len().max(1) as f64, "ratio"),
        m("service.call_us", median_span(tr, "service.call", 1.0), "us"),
        m("service.self_us", med(&service_self), "us"),
    ]
}

/// Median self time (µs) of the spans called `name`.
pub fn median_self_us(tr: &Tracer, name: &str) -> f64 {
    let selfs = trace::self_times(tr.spans());
    let v: Vec<f64> = tr
        .spans()
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| ns as f64 / 1e3)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        stats::median(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;

    #[test]
    fn complete_fills_unmeasured_layers_with_zero() {
        let out = complete(vec![m("net.conns", 5.0, "count")]);
        assert_eq!(out.len(), PER_LAYER.len());
        assert_eq!(out.iter().find(|x| x.name == "net.conns").unwrap().value, 5.0);
        assert_eq!(out.iter().find(|x| x.name == "train.batches").unwrap().value, 0.0);
    }

    #[test]
    #[should_panic]
    fn complete_rejects_a_wrong_unit() {
        complete(vec![m("net.conns", 5.0, "us")]);
    }

    #[test]
    fn breakdown_subtracts_replays_per_request() {
        let span = |name, start: u64, end: u64, parent, req| Span { name, start, end, parent, req };
        // One request: round trip 100 µs, codec 4 × 2 µs, service 30 µs
        // of which the serving call is 20 µs.
        let exact = vec![
            span("request", 0, 300_000, None, 9),
            span("net.codec", 0, 2_000, Some(0), 9),
            span("net.roundtrip", 2_000, 102_000, Some(0), 9),
            span("net.codec", 102_000, 104_000, Some(0), 9),
            span("service.call", 104_000, 134_000, Some(0), 9),
            span("serve.score", 134_000, 154_000, Some(0), 9),
            span("net.codec", 154_000, 156_000, Some(0), 9),
            span("net.codec", 156_000, 158_000, Some(0), 9),
        ];
        let tr = Tracer::from_spans(exact);
        let out = request_breakdown(&tr, "serve.score");
        let get = |n: &str| out.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("net.roundtrip_us"), 100.0);
        assert_eq!(get("net.codec_us"), 8.0);
        assert_eq!(get("net.transport_us"), 62.0);
        assert_eq!(get("service.call_us"), 30.0);
        assert_eq!(get("service.self_us"), 10.0);
        assert_eq!(get("net.stall_frac"), 0.0);
        // The request span's self time is what the benchmark itself spent.
        assert_eq!(median_self_us(&tr, "request"), 142.0);
    }
}
