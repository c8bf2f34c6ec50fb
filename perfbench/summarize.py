#!/usr/bin/env python3
"""Runs the benchmark over sets of seeds and summarises their spread.

    python3 perfbench/summarize.py --seeds 1-10 101-110 --seconds 30 \\
        --out perfbench/results/set-a.json perfbench/results/set-b.json

For every workload: one untraced run per seed of every set, the sets'
runs interleaved (first seed of each set, then the second of each, ...)
so that every set sees the same stretch of host load; then one traced
run on each set's first seed. Each set's summary holds each metric's
median, quartiles (Python's ``statistics.quantiles(n=4)``) and quartile
spread as a share of the median, the tracing overhead (traced minus
untraced end-to-end medians), the run count, the host fingerprint of the
first run, and the CPU time the hypervisor stole from the host during
each untraced window. The script then checks every end-to-end spread
(except ``setup_s``) against its bound in ``BENCHMARK.json``, and every
later set's medians against the first set's, and exits 1 if a check
fails. Run from the repository root; the build goes to
``$CARGO_TARGET_DIR`` (default ``.bench_build``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml", "--"]
WORKLOADS = ["wire_score", "wire_topn", "online_feed"]
# Run-record fields summarised beside the end-to-end metrics.
RECORD_ONLY = ("fit_s", "fresh_p50_us", "fresh_p99_us", "publish_interval_ms")


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = COMMAND + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(".bench_out", "runs.jsonl")) as log:
        record = json.loads(log.readlines()[-1])
    return result, record


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else None,
        "runs": len(values),
    }


def check(summaries, bench):
    """The acceptance checks: each spread within its bound, and no later
    set's median worse than the first set's by more than the bound."""
    failures = []
    first = summaries[0]
    for metric in bench["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        for workload, entry in first["workloads"].items():
            for n, summary in enumerate(summaries):
                s = summary["workloads"][workload]["end_to_end"][name]
                if name != "setup_s" and s["iqr_share"] > bound:
                    failures.append(f"set {n + 1} {workload} {name}: spread {s['iqr_share']:.3f} > {bound}")
                base = entry["end_to_end"][name]["median"]
                worse = (s["median"] - base) / base if lower else (base - s["median"]) / base
                if worse > bound:
                    failures.append(f"set {n + 1} {workload} {name}: median {worse:+.3f} worse than set 1 > {bound}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", nargs="+", default=["1-10"], help="one seed range per set")
    ap.add_argument("--out", nargs="+", required=True, help="one summary file per set")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    if len(args.seeds) != len(args.out):
        sys.exit("give one --out file per --seeds range")
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    sets = [seeds(spec) for spec in args.seeds]

    summaries = [{"seeds": spec, "seconds": args.seconds, "workloads": {}} for spec in args.seeds]
    for workload in args.workloads.split(","):
        runs = [{"e2e": {}, "extra": {}, "steal": []} for _ in sets]
        for i in range(max(map(len, sets))):
            for n, set_seeds in enumerate(sets):
                if i >= len(set_seeds):
                    continue
                result, record = run(workload, set_seeds[i], args.seconds, 0)
                if not result["correct"]:
                    sys.exit(f"{workload} seed {set_seeds[i]} reported incorrect outputs")
                summaries[n].setdefault("host", record["host"])
                acc = runs[n]
                for name, metric in result["metrics"].items():
                    acc["e2e"].setdefault(name, []).append(metric["value"])
                acc["extra"].setdefault("p99_us", []).append(record["window"]["p99_us"])
                for key in RECORD_ONLY:
                    if key in record:
                        acc["extra"].setdefault(key, []).append(record[key])
                acc["steal"].append(record["cpu"]["steal_s"])
                print(workload, set_seeds[i], {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                      flush=True)
        for n, set_seeds in enumerate(sets):
            acc = runs[n]
            entry = {
                "end_to_end": {name: spread(values) for name, values in acc["e2e"].items()},
                "untraced_record_only": {name: spread(values) for name, values in acc["extra"].items()},
                "host_steal_s_per_run": acc["steal"],
            }
            result, record = run(workload, set_seeds[0], args.seconds, 1)
            entry["per_layer_seed"] = set_seeds[0]
            entry["per_layer"] = {name: m["value"] for name, m in result["metrics"].items()}
            entry["traced_end_to_end"] = {name: m["value"] for name, m in record["e2e"].items()}
            entry["tracing_overhead"] = {
                name: record["e2e"][name]["value"] - entry["end_to_end"][name]["median"]
                for name in record["e2e"]
                if name in entry["end_to_end"]
            }
            entry["ladder"] = record.get("ladder")
            entry["gauges"] = {"start": record["gauges_start"], "end": record["gauges_end"], "conns": record["conns"]}
            summaries[n]["workloads"][workload] = entry

    for path, summary in zip(args.out, summaries):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote", path)
    with open("BENCHMARK.json") as f:
        failures = check(summaries, json.load(f))
    for failure in failures:
        print("FAIL", failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
