"""Run one workload in a fresh process and print one JSON object.

Modes:
  setup   build the batch and warm up, report the set-up time only;
  timed   measure passes over the batch untraced, then check every answer;
  traced  measure untraced passes, then traced passes and a calibration
          probe, and report per-layer metrics and the tracing overhead.

run.py starts this script; --spawned-at is the monotonic time at which it
started the process, so set-up time includes interpreter start and import.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402  (needs src on the path)

REF_EVERY_S = 0.1  # least spacing of the host speed reference samples
REF_WINDOW_S = 0.1  # samples this close to a query scale its latency


class Raised:
    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


def measure(queries, run, seconds: float, min_passes: int, min_samples: int, ref: str, tracer=None) -> dict:
    """Closed loop, one client: passes over the batch until the time is used.

    A new pass starts while the elapsed time plus half the median pass time
    stays within `seconds` (so a run ends, on average, at `seconds`), and
    always until min_passes and min_samples are met.
    The host speed reference `ref` (see hostspeed) runs, untimed, at the
    start and end of every pass and after each query that ends REF_EVERY_S
    or more after the last sample, so that every query has a sample on each
    side.
    """
    answers: list = [[] for _ in queries]
    latencies: list[list[float]] = [[] for _ in queries]
    intervals: list[list[tuple[float, float]]] = [[] for _ in queries]
    pass_times: list[float] = []
    refs: list[tuple[float, float]] = []  # (time, reference ms)
    probe = hostspeed.PROBES[ref]

    def sample() -> float:
        t = time.perf_counter()
        refs.append((t, probe()))
        return time.perf_counter()

    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        last_ref = sample()
        for i, q in enumerate(queries):
            q0 = time.perf_counter()
            try:
                if tracer is None:
                    ans = run(q)
                else:
                    with tracer.root(q.qid, q.kind, "bench", q.attrs):
                        ans = run(q)
            except Exception as exc:  # a failed query is recorded, not fatal
                ans = Raised(exc)
            q1 = time.perf_counter()
            latencies[i].append(q1 - q0)
            intervals[i].append((q0, q1))
            answers[i].append(ans)
            if q1 - last_ref >= REF_EVERY_S:
                last_ref = sample()
        sample()
        pass_times.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        samples = len(pass_times) * len(queries)
        if len(pass_times) >= min_passes and samples >= min_samples:
            if elapsed + statistics.median(pass_times) / 2 > seconds:
                break
    return {
        "answers": answers,
        "latencies": latencies,
        "intervals": intervals,
        "pass_times": pass_times,
        "ref": ref,
        "refs": refs,
    }


def normalized(m: dict) -> list[list[float]]:
    """Each latency at nominal host speed (see hostspeed), scaled by the
    reference samples within REF_WINDOW_S of the query and the nearest
    one on each side of it."""
    times = [t for t, _ in m["refs"]]
    samples = [ms for _, ms in m["refs"]]

    def scale(q0: float, q1: float) -> float:
        lo = min(bisect.bisect_left(times, q0 - REF_WINDOW_S), bisect.bisect_left(times, q0) - 1)
        hi = max(bisect.bisect_right(times, q1 + REF_WINDOW_S), bisect.bisect_right(times, q1) + 1)
        return hostspeed.scale(m["ref"], samples[max(lo, 0) : hi])

    return [
        [t * scale(q0, q1) for t, (q0, q1) in zip(lat, spans)]
        for lat, spans in zip(m["latencies"], m["intervals"])
    ]


def typical_pass_s(latencies: list[list[float]]) -> float:
    """A pass made of each query's median latency over the passes: unlike
    the median of whole-pass times, a burst of host noise during one query
    moves it only if it hits that query in most passes."""
    return sum(statistics.median(lat) for lat in latencies)


def verdicts(queries, answers, check) -> tuple[list[str | None], int]:
    """Per query: None when every execution gave the same answer and the
    oracle accepts it, else the reason; plus the number of failed executions."""
    reasons: list[str | None] = []
    failed = 0
    for q, runs in zip(queries, answers):
        first = runs[0]
        if isinstance(first, Raised):
            reason = first.text
        elif any(a != first for a in runs[1:]):
            reason = "answers differ between passes"
        else:
            try:
                reason = check(q, first)
            except Exception as exc:  # the oracle choking on an answer rejects it
                reason = f"oracle raised {type(exc).__name__}: {exc}"
        reasons.append(reason)
        if reason is not None:
            failed += len(runs)
    return reasons, failed


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def cli_layer_ms(reps: int = 5) -> tuple[float, float]:
    """Median interpreter start, and import of absarith.cli on top of it."""
    env = workloads.cli_env()

    def median_ms(argv):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, *argv], check=True, cwd=ROOT, env=env, capture_output=True)
            times.append((time.perf_counter() - t0) * 1000.0)
        return statistics.median(times)

    interp = median_ms(["-c", "pass"])
    return interp, median_ms(["-c", "import absarith.cli"]) - interp


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    batch, run, check, warm = workloads.WORKLOADS[args.workload]
    # The cli queries start processes, the others compute in this one.
    ref = "start" if args.workload == "cli" else "loop"
    handler_ms: list[float] = []
    if args.workload == "cli":
        run = functools.partial(run, handler_ms=handler_ms)
    queries = batch(args.seed)
    warm()
    setup_s = time.monotonic() - args.spawned_at
    result: dict = {"setup_s": setup_s, "queries": len(queries)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import numpy

    result["numpy"] = numpy.__version__
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    if args.mode == "timed":
        m = measure(queries, run, args.seconds, min_passes=2, min_samples=100, ref=ref)
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    else:
        m = measure(queries, run, args.seconds / 2, min_passes=1, min_samples=0, ref=ref)
        traced, traced_answers = trace_run(queries, run, args, handler_ms, m)
        result.update(traced)
    reasons, failed = verdicts(queries, m["answers"], check)
    attempted = sum(len(a) for a in m["answers"])
    if args.mode == "traced":
        # Tracing must not change what the library computes.
        mismatched = sum(1 for a, b in zip(m["answers"], traced_answers) if a[0] != b)
        failed += mismatched
        result["traced_answer_mismatches"] = mismatched
    latencies = normalized(m)
    ok_latencies = [t for r, lat in zip(reasons, latencies) if r is None for t in lat]
    raw_ok = [t for r, lat in zip(reasons, m["latencies"]) if r is None for t in lat]
    result.update(
        pass_times=m["pass_times"],
        ref=m["ref"],
        ref_ms=statistics.median(ms for _, ms in m["refs"]),
        ref_samples=len(m["refs"]),
        typical_pass_s=typical_pass_s(latencies),
        raw_typical_pass_s=typical_pass_s(m["latencies"]),
        attempted=attempted,
        failed=failed,
        samples=len(ok_latencies),
        failures=sorted({f"{q.qid} ({q.kind}): {r}" for q, r in zip(queries, reasons) if r})[:10],
    )
    if ok_latencies:
        result["p50_ms"] = statistics.median(ok_latencies) * 1000.0
        result["p90_ms"] = percentile(ok_latencies, 90) * 1000.0 if len(ok_latencies) > 1 else result["p50_ms"]
        result["raw_p50_ms"] = statistics.median(raw_ok) * 1000.0
        result["raw_p90_ms"] = percentile(raw_ok, 90) * 1000.0 if len(raw_ok) > 1 else result["raw_p50_ms"]
    if args.workload == "cli":
        probes = workloads.run_probes()
        result["probes"] = probes
        result["attempted"] += len(probes)
        result["failed"] += sum(1 for _, outcome in probes if outcome == "unexpected")
    print(json.dumps(result))
    return 0


def trace_run(queries, run, args, handler_ms: list, untraced: dict) -> tuple[dict, list]:
    """Traced passes plus the calibration probe; spans go to --spans-out.

    Returns the report and the answers of the first traced pass.
    """
    import layers
    from spans import Tracer, self_times

    tracer = Tracer(attrs_of=layers.span_attrs)
    tracer.install(layers.namespaces(), layers.layer_of)
    real_run_cli = workloads.run_cli
    workloads.run_cli = tracer.wrap(real_run_cli, "cli")
    try:
        m = measure(queries, run, args.seconds / 2, min_passes=1, min_samples=0, ref=untraced["ref"], tracer=tracer)
        with tracer.root("calib", "calibration", "bench"):
            layers.calibrate(lambda argv: handler_ms.append(json.loads(workloads.run_cli(argv).out)["timing_ms"]))
    finally:
        workloads.run_cli = real_run_cli
        tracer.uninstall()
    passes = len(m["pass_times"])
    metrics = layers.layer_metrics(tracer.spans, lambda s: 1.0 if s.query == "calib" else 1.0 / passes)
    untraced_pass = typical_pass_s(untraced["latencies"])
    traced_pass = typical_pass_s(m["latencies"])
    # At nominal host speed, so that a change of host phase between the
    # untraced and the traced half does not pass for tracing cost.
    metrics["trace.overhead"] = (typical_pass_s(normalized(untraced)) / typical_pass_s(normalized(m)), "ratio")
    interp, imported = cli_layer_ms()
    metrics["cli.interp_ms"] = (interp, "ms")
    metrics["cli.import_ms"] = (imported, "ms")
    metrics["cli.handler_ms"] = (statistics.median(handler_ms), "ms")
    selfs = self_times(tracer.spans)
    batch_self = sum(selfs[s.sid] for s in tracer.spans if s.query not in (None, "calib")) / passes
    if args.spans_out:
        os.makedirs(os.path.dirname(args.spans_out), exist_ok=True)
        with open(args.spans_out, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.to_json()) + "\n")
    report = {
        "layers": metrics,
        "untraced_pass_s": untraced_pass,
        "traced_pass_s": traced_pass,
        "self_time_sum_s": batch_self,
        "traced_passes": passes,
    }
    return report, [a[0] for a in m["answers"]]


if __name__ == "__main__":
    sys.exit(main())
