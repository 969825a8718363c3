"""Tests of the benchmark itself (not of absarith).

    python3 -m pytest bench/test_bench.py -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
import hostspeed  # noqa: E402
from worker import Raised, normalized, verdicts  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_query_list(name):
    batch = workloads.WORKLOADS[name][0]
    assert batch(7) == batch(7)
    assert batch(7) != batch(8)


def _smallest(queries, kind):
    return min((q for q in queries if q.kind == kind), key=lambda q: len(repr(q.params)))


@pytest.mark.parametrize(
    "name, kind, plant",
    [
        ("ring", "tau", lambda a: a + ((97, 1),)),
        ("ring", "witt_mul", lambda a: a[:-1] + ((a[-1][0], a[-1][1] + 1),)),
        ("ring", "group_ring", lambda a: (a[0], a[1][1:])),
        ("homotopy", "homotopy", lambda a: ((*a[0], 2), a[1], a[2])),
        ("divisor", "theta", lambda a: (a[0] + 1e-6, a[1])),
        ("divisor", "pi", lambda a: (a[0], a[1], a[2] + 1, a[3])),
    ],
)
def test_oracle_rejects_a_planted_wrong_answer(name, kind, plant):
    batch, run, check, _ = workloads.WORKLOADS[name]
    q = _smallest(batch(3), kind)
    answer = run(q)
    assert check(q, answer) is None
    assert check(q, plant(answer)) is not None


def test_cli_oracle_rejects_a_planted_wrong_answer():
    q = workloads.Query("cli-0", "cli", (0,))
    assert workloads.check_cli(q, '{"outputs": {"2": 1}}') is None
    assert workloads.check_cli(q, '{"outputs": {"2": 2}}') is not None


def test_failed_executions_are_counted():
    queries = [workloads.Query(f"q{i}", "k", (i,)) for i in range(3)]
    answers = [[1, 1], [Raised(ValueError("x")), 2], [3, 4]]
    reasons, failed = verdicts(queries, answers, lambda q, a: None if a == 1 else "wrong")
    assert reasons[0] is None
    assert reasons[1].startswith("ValueError")
    assert reasons[2] == "answers differ between passes"
    assert failed == 4


def test_latencies_are_scaled_by_the_reference_samples_around_them():
    nominal = hostspeed.NOMINAL_MS["loop"]
    m = {
        "ref": "loop",
        # (time, reference ms): the host runs at half speed from t = 10 on
        "refs": [(0.0, nominal), (0.5, nominal), (10.0, 2 * nominal), (10.02, 2 * nominal), (12.0, 2 * nominal)],
        "latencies": [[0.4, 1.0], [1.5]],
        "intervals": [[(0.05, 0.45), (10.5, 11.5)], [(8.45, 9.95)]],
    }
    first, second = normalized(m)
    # Only the neighbours count; straddling the change of phase, the median
    # of the three samples in reach is the slow one.
    assert first == pytest.approx([0.4, 0.5])
    assert second == pytest.approx([0.75])


def _span(sid, start, end, parent=None, layer="x"):
    return Span(sid, f"s{sid}", layer, start, parent, "q", end=end)


def test_self_time_on_a_synthetic_tree():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 5.0, 9.0, parent=0),
        _span(3, 2.0, 3.0, parent=1),
        _span(4, 20.0, 30.0),
        _span(5, 21.0, 25.0, parent=4),
        _span(6, 24.0, 27.0, parent=4),  # overlaps its sibling: the union counts once
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0, 4: 4.0, 5: 4.0, 6: 3.0}


def test_tracer_records_nested_spans_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 1

    def outer():
        return wrapped_inner() + 1

    wrapped_inner = tracer.wrap(inner, "lower")
    wrapped_outer = tracer.wrap(outer, "upper")
    with tracer.root("q1", "query", "bench"):
        assert wrapped_outer() == 2
    root, up, low = tracer.spans
    assert (root.start, up.start, low.start, low.end, up.end, root.end) == (0, 1, 2, 3, 4, 5)
    assert (up.parent, low.parent) == (root.sid, up.sid)
    assert {s.query for s in tracer.spans} == {"q1"}
    assert self_times(tracer.spans) == {0: 2.0, 1: 2.0, 2: 1.0}


def test_traced_run_leaves_answers_unchanged():
    batch, run, _, _ = workloads.WORKLOADS["ring"]
    queries = [q for q in batch(5) if q.kind != "tau" or q.attrs["N"] < 400][:30]
    plain = [run(q) for q in queries]
    original_tau = workloads.tau
    tracer = Tracer(attrs_of=layers.span_attrs)
    tracer.install(layers.namespaces(), layers.layer_of)
    try:
        traced = []
        for q in queries:
            with tracer.root(q.qid, q.kind, "bench"):
                traced.append(run(q))
    finally:
        tracer.uninstall()
    assert traced == plain
    assert workloads.tau is original_tau
    assert {s.layer for s in tracer.spans} >= {"bench", "witt", "gamma_core"}
    metrics = layers.layer_metrics(tracer.spans, lambda s: 1.0)
    total_self = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    bench_self = sum(t for sid, t in self_times(tracer.spans).items() if tracer.spans[sid].layer == "bench")
    roots = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    assert total_self + bench_self == pytest.approx(roots)
