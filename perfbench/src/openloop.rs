//! Open-loop load: independent users arrive on a fixed schedule.
//!
//! Request `i` of a step at rate `r` is due at `i / r` seconds after the
//! step starts. Generator thread `t` of `T` owns requests `i ≡ t (mod T)`
//! and sends each one as soon as it is due and the thread is free; a
//! request's latency runs from its due time, so a stall also charges the
//! requests it delayed. The generator's own lateness is measured only on
//! requests whose thread was free before they were due, where it is pure
//! scheduling error. A request still unsent when the step's window
//! closes counts as failed.

use std::time::{Duration, Instant};

use serde::Serialize;

use crate::trace::Tracer;
use crate::{procfs, stats};

/// The generator yields instead of sleeping for the last `spin_share` of
/// each thread's gap between requests, at most this long:
/// `thread::sleep` oversleeps by ~0.1 ms at the median and 1-2 ms at p99
/// on a shared 2-core VM, while yielding keeps the due time within
/// ~40 µs. The cap bounds the CPU the waiting takes from the server.
const MAX_SPIN: Duration = Duration::from_micros(2000);

/// How long after the window a late generator may still send requests
/// that fell due inside it.
const GRACE: Duration = Duration::from_millis(500);

/// One sent request. Times are ns since the step started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When it was due.
    pub due: u64,
    /// When it was sent.
    pub sent: u64,
    /// When its reply arrived (or it failed).
    pub done: u64,
    /// Whether it succeeded.
    pub ok: bool,
    /// Whether its thread was free before it was due.
    pub idle: bool,
}

impl Sample {
    /// Latency from the due time, µs.
    pub fn latency_us(&self) -> f64 {
        self.done.saturating_sub(self.due) as f64 / 1e3
    }

    /// How late it was sent, µs.
    pub fn lateness_us(&self) -> f64 {
        self.sent.saturating_sub(self.due) as f64 / 1e3
    }
}

/// What one fixed-rate step measured.
#[derive(Debug, Clone)]
pub struct Step {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// Requests the schedule held.
    pub scheduled: usize,
    /// Requests sent, in no particular order.
    pub samples: Vec<Sample>,
    /// CPU seconds the generator threads used, waits and client-side
    /// request work included.
    pub generator_cpu_s: f64,
}

/// Runs `secs` seconds of load at `rate` on `threads` generator threads,
/// each yielding through the last `spin_share` of its gap between
/// requests (see [`MAX_SPIN`]). `make(t)` builds thread `t`'s request function, which is passed the
/// request's sequence number and the thread's tracer and reports
/// success. Returns the step and the merged spans.
pub fn run<G>(
    rate: f64,
    secs: f64,
    threads: usize,
    spin_share: f64,
    epoch: Instant,
    make: impl Fn(usize) -> G + Sync,
) -> (Step, Tracer)
where
    G: FnMut(u64, &mut Tracer) -> bool,
{
    let scheduled = (rate * secs).ceil() as u64;
    let threads = threads.max(1) as u64;
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(secs) + GRACE;
    let per_thread: Vec<(Vec<Sample>, Tracer, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let make = &make;
                s.spawn(move || {
                    let cpu_start = procfs::thread_cpu_s();
                    let mut send = make(t as usize);
                    let mut tracer = Tracer::new(epoch);
                    let mut samples = Vec::new();
                    let mut i = t;
                    let spin = Duration::from_secs_f64(threads as f64 / rate * spin_share).min(MAX_SPIN);
                    while i < scheduled {
                        let due = Duration::from_secs_f64(i as f64 / rate);
                        let idle = start.elapsed() <= due;
                        wait_until(start + due, spin);
                        let sent = start.elapsed();
                        if sent > deadline {
                            break;
                        }
                        let ok = send(i, &mut tracer);
                        let done = start.elapsed();
                        samples.push(Sample {
                            due: due.as_nanos() as u64,
                            sent: sent.as_nanos() as u64,
                            done: done.as_nanos() as u64,
                            ok,
                            idle,
                        });
                        i += threads;
                    }
                    (samples, tracer, procfs::thread_cpu_s() - cpu_start)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut tracer = Tracer::new(epoch);
    let mut samples = Vec::with_capacity(scheduled as usize);
    let mut generator_cpu_s = 0.0;
    for (s, t, cpu) in per_thread {
        samples.extend(s);
        tracer.absorb(t);
        generator_cpu_s += cpu;
    }
    (Step { rate, scheduled: scheduled as usize, samples, generator_cpu_s }, tracer)
}

/// Sleeps until `spin` before `due`, then yields until it passes.
fn wait_until(due: Instant, spin: Duration) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > spin {
            std::thread::sleep(left - spin);
        } else {
            std::thread::yield_now();
        }
    }
}

/// The summary of a step against a latency limit.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StepStats {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// Requests the schedule held (sent or not).
    pub attempted: usize,
    /// Failed requests plus requests never sent.
    pub failed: usize,
    /// Median latency from due time, µs.
    pub p50_us: f64,
    /// 99th-percentile latency from due time, µs (`NaN` when fewer
    /// than 1000 samples support it).
    pub p99_us: f64,
    /// 99th-percentile generator lateness over requests whose thread
    /// was free when they fell due, µs.
    pub lag_p99_us: f64,
    /// Whether send lateness grew past the limit by the end of the step.
    pub backlog: bool,
    /// Latency percentiles from due time for the run record.
    pub percentiles_us: Percentiles,
}

/// Latency percentiles from due time, µs, each `None` unless ten
/// samples lie beyond it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Percentiles {
    p50: Option<f64>,
    p90: Option<f64>,
    p95: Option<f64>,
    p99: Option<f64>,
    p999: Option<f64>,
}

impl StepStats {
    /// Summarises `step`; `limit_us` is the workload's latency limit.
    pub fn of(step: &Step, limit_us: f64) -> Self {
        let latencies = stats::sorted(&step.samples.iter().map(Sample::latency_us).collect::<Vec<_>>());
        let lags = stats::sorted(
            &step
                .samples
                .iter()
                .filter(|s| s.idle)
                .map(Sample::lateness_us)
                .collect::<Vec<_>>(),
        );
        let sent_failed = step.samples.iter().filter(|s| !s.ok).count();
        let unsent = step.scheduled - step.samples.len();
        let at = |p| stats::supports(latencies.len(), p).then(|| stats::nearest_rank(&latencies, p));
        Self {
            rate: step.rate,
            attempted: step.scheduled,
            failed: sent_failed + unsent,
            p50_us: stats::nearest_rank(&latencies, 0.5),
            p99_us: at(0.99).unwrap_or(f64::NAN),
            lag_p99_us: stats::nearest_rank(&lags, 0.99),
            backlog: backlog(&step.samples, limit_us),
            percentiles_us: Percentiles {
                p50: at(0.5),
                p90: at(0.9),
                p95: at(0.95),
                p99: at(0.99),
                p999: at(0.999),
            },
        }
    }

    /// Whether the step meets the limit: p99 within it (a step too short
    /// to support a p99 does not), nothing failed, no growing backlog.
    pub fn passes(&self, limit_us: f64) -> bool {
        self.p99_us <= limit_us && self.failed == 0 && !self.backlog
    }
}

/// A growing backlog: over the last quarter of the schedule, the median
/// request was sent later than the latency limit after it fell due.
/// Isolated stalls delay a few requests; only a queue that keeps
/// growing makes the typical late request late.
pub fn backlog(samples: &[Sample], limit_us: f64) -> bool {
    let Some(last_due) = samples.iter().map(|s| s.due).max() else {
        return false;
    };
    let tail: Vec<f64> = samples
        .iter()
        .filter(|s| s.due * 4 >= last_due * 3)
        .map(Sample::lateness_us)
        .collect();
    stats::median(&tail) > limit_us
}

/// The highest rate of an ascending ladder whose step passes, counting
/// only steps below the first failing one (the ladder stops there).
/// `0` when the first step already fails.
pub fn slo_rps(steps: &[StepStats], limit_us: f64) -> f64 {
    steps.iter().take_while(|s| s.passes(limit_us)).last().map_or(0.0, |s| s.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(due_us: u64, sent_us: u64, latency_us: u64, ok: bool) -> Sample {
        Sample {
            due: due_us * 1000,
            sent: sent_us * 1000,
            done: (due_us + latency_us) * 1000,
            ok,
            idle: true,
        }
    }

    /// A step of `n` healthy requests at 1 ms spacing with `latency_us`.
    fn healthy(rate: f64, n: u64, latency_us: u64) -> Step {
        Step {
            rate,
            scheduled: n as usize,
            generator_cpu_s: 0.0,
            samples: (0..n).map(|i| sample(i * 1000, i * 1000, latency_us, true)).collect(),
        }
    }

    #[test]
    fn stats_time_from_due_and_count_unsent_as_failed() {
        let mut step = healthy(1000.0, 2000, 100);
        step.scheduled = 2005;
        let st = StepStats::of(&step, 1000.0);
        assert_eq!(st.p50_us, 100.0);
        assert_eq!(st.p99_us, 100.0);
        assert_eq!(st.failed, 5);
        assert!(!st.passes(1000.0), "unsent requests miss the limit");
    }

    #[test]
    fn short_steps_cannot_pass_without_a_supported_p99() {
        let st = StepStats::of(&healthy(100.0, 999, 100), 1000.0);
        assert!(st.p99_us.is_nan());
        assert!(!st.passes(1000.0));
    }

    #[test]
    fn ladder_picks_highest_passing_rate_before_first_miss() {
        let limit = 1000.0;
        let ok = |rate: f64| StepStats::of(&healthy(rate, 2000, 200), limit);
        let slow = |rate: f64| StepStats::of(&healthy(rate, 2000, 5000), limit);
        let mut one_failed = healthy(0.0, 2000, 200);
        one_failed.samples[7].ok = false;
        let failed = |rate: f64| StepStats { rate, ..StepStats::of(&one_failed, limit) };

        assert_eq!(slo_rps(&[ok(100.0), ok(200.0), ok(400.0)], limit), 400.0);
        assert_eq!(slo_rps(&[ok(100.0), slow(200.0), ok(400.0)], limit), 100.0);
        // A single failed request is a miss, whatever the latencies.
        assert_eq!(slo_rps(&[ok(100.0), failed(200.0)], limit), 100.0);
        assert_eq!(slo_rps(&[slow(100.0)], limit), 0.0);
        assert_eq!(slo_rps(&[], limit), 0.0);
    }

    #[test]
    fn growing_backlog_disqualifies_a_step() {
        let limit = 1000.0;
        // Sends fall further behind every request: by the last quarter
        // the median request leaves well over 1 ms late.
        let samples: Vec<Sample> = (0..2000u64)
            .map(|i| {
                let due = i * 1000;
                let sent = due + i * 2;
                Sample {
                    due: due * 1000,
                    sent: sent * 1000,
                    done: (sent + 200) * 1000,
                    ok: true,
                    idle: false,
                }
            })
            .collect();
        assert!(backlog(&samples, limit));
        let st = StepStats::of(&Step { rate: 1000.0, scheduled: 2000, samples, generator_cpu_s: 0.0 }, limit);
        assert!(st.backlog);
        assert!(!st.passes(limit));
        assert_eq!(slo_rps(&[StepStats::of(&healthy(500.0, 2000, 200), limit), st], limit), 500.0);

        // One isolated 30 ms stall early in the step is not a backlog.
        let mut stalled = healthy(1000.0, 2000, 200).samples;
        for s in stalled.iter_mut().take(40).skip(10) {
            s.sent += 30_000_000;
        }
        assert!(!backlog(&stalled, limit));
    }

    #[test]
    fn run_sends_every_scheduled_request_and_records_spans() {
        let epoch = Instant::now();
        let (step, tracer) = run(2000.0, 0.05, 2, 0.2, epoch, |_t| {
            |i: u64, tr: &mut Tracer| {
                tr.time("work", None, i, || ());
                true
            }
        });
        assert_eq!(step.scheduled, 100);
        assert_eq!(step.samples.len(), 100);
        assert_eq!(tracer.durations_us("work").len(), 100);
        assert!(step.samples.iter().all(|s| s.sent >= s.due && s.done >= s.sent));
    }
}
