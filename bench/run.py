"""absarith benchmark: seeded workloads through the public API and the CLI.

    python3 bench/run.py --workload ring --seed 1 --seconds 15 --trace 0

--workload is ring, homotopy, divisor, cli, or all (each in turn).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines above it list every
metric with its unit and sample count, and the provenance of the run.  The
full record goes to bench/out/.  Exit status is 0 when every answer passed
its oracle, 1 otherwise, 2 when the checkout has no absarith sources.

Every workload runs in fresh worker processes (bench/worker.py): several
that only set up, for the median set-up time, and one that measures.  Times
are reported at a nominal host speed, by fixed reference work timed next to
them (bench/hostspeed.py); the lines above the last also give them as
measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("ring", "homotopy", "divisor", "cli")
SETUP_RUNS = 7  # set-up-only workers per run, around the measuring one
START_REF_REPS = 4  # interpreter starts timed before and after each set-up worker
WORKER_TIMEOUT_S = 150.0
END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def worker_env() -> dict:
    env = dict(os.environ)
    # The load stays within two threads: Monte Carlo's own pool, no BLAS pool.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, spans_out: str | None = None) -> dict:
    """Run one worker process to completion and return its JSON report.
    A set-up worker is bracketed by samples of the interpreter-start
    reference, returned as start_ref_ms."""
    refs = [hostspeed.start_ms() for _ in range(START_REF_REPS if mode == "setup" else 0)]
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--mode", mode]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(started)],
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} worker ({mode}) timed out after {WORKER_TIMEOUT_S:.0f}s") from None
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{workload} worker ({mode}) exited {proc.returncode}: {err.strip()[-2000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    if refs:
        refs += [hostspeed.start_ms() for _ in range(START_REF_REPS)]
        report["start_ref_ms"] = statistics.median(refs)
    return report


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree
    (git is kept from finding a repository further up)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full record of the run."""
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "host.ref_ms": hostspeed.median_ms("loop", 15),
        },
    }
    out_dir = os.path.join(BENCH, "out")
    if trace:
        spans_out = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
        main = spawn(workload, seed, seconds, "traced", spans_out)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in main.pop("layers").items()}
        metrics["host.ref_ms"] = {"value": record["provenance"]["host.ref_ms"], "unit": "ms"}
        record["spans"] = os.path.relpath(spans_out, ROOT)
    else:
        # Set-up workers run on both sides of the measuring one, so that their
        # median spans the run rather than one moment of host speed.
        before = SETUP_RUNS // 2
        setups = [spawn(workload, seed, seconds, "setup") for _ in range(before)]
        main = spawn(workload, seed, seconds, "timed")
        setups += [spawn(workload, seed, seconds, "setup") for _ in range(SETUP_RUNS - before)]
        values = {
            # Each set-up at nominal host speed, by the interpreter starts
            # timed around it (see hostspeed).
            "setup_s": statistics.median(w["setup_s"] * hostspeed.scale("start", [w["start_ref_ms"]]) for w in setups),
            "queries_per_s": main["queries"] / main["typical_pass_s"],
            "query_p50_ms": main.get("p50_ms", 0.0),
            "query_p90_ms": main.get("p90_ms", 0.0),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        main["setup_samples"] = [w["setup_s"] for w in setups]
        main["setup_start_ref_ms"] = [w["start_ref_ms"] for w in setups]
    record["provenance"]["numpy"] = main.pop("numpy")
    known = sum(1 for _, outcome in main.get("probes", ()) if outcome == "defect")
    record.update(main)
    record["known_defects"] = known
    record["error_rate"] = (main["failed"] + known) / main["attempted"]
    record["correct"] = main["failed"] == 0
    record["metrics"] = metrics
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"result-{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> None:
    """Human-readable lines: provenance, metrics with units and sample counts."""
    w = record["workload"]
    print(f"# {w}: seed {record['seed']}, " + ", ".join(f"{k} {v}" for k, v in record["provenance"].items()))
    counts = {
        "setup_s": f"n={len(record.get('setup_samples', ()))} set-ups",
        "queries_per_s": f"{record['queries']} queries x {len(record['pass_times'])} passes",
        "query_p50_ms": f"n={record['samples']}",
        "query_p90_ms": f"n={record['samples']}",
    }
    for name, m in record["metrics"].items():
        note = counts.get(name, "")
        print(f"{w:9s} {name:34s} {m['value']:14.6g} {m['unit']:6s} {note}")
    if not record["trace"]:
        setup_raw = statistics.median(record["setup_samples"])
        print(
            f"{w:9s} at measured host speed: setup_s {setup_raw:.4g} s, queries_per_s "
            f"{record['queries'] / record['raw_typical_pass_s']:.4g} 1/s, query_p50_ms {record['raw_p50_ms']:.4g} ms, "
            f"query_p90_ms {record['raw_p90_ms']:.4g} ms; reference '{record['ref']}' {record['ref_ms']:.4g} ms "
            f"(nominal {hostspeed.NOMINAL_MS[record['ref']]} ms, n={record['ref_samples']})"
        )
    print(
        f"{w:9s} {'error_rate':34s} {record['error_rate']:14.6g} {'ratio':6s} "
        f"{record['failed']} failed + {record['known_defects']} known defects / {record['attempted']} attempted"
    )
    for line in record["failures"]:
        print(f"{w:9s} FAILED {line}")
    for command, outcome in record.get("probes", ()):
        print(f"{w:9s} probe {outcome:10s} {command}")
    if record["trace"]:
        print(
            f"{w:9s} self times per traced pass sum to {record['self_time_sum_s']:.4g} s; untraced pass "
            f"{record['untraced_pass_s']:.4g} s, traced pass {record['traced_pass_s']:.4g} s"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "absarith", "__init__.py")):
        print(f"error: no absarith sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            report(records[-1])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
