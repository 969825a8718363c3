"""The answers pinned in tests/golden/answers.json, replayed.

Library entries are called through absarith's public API and compared with
their recorded repr; command entries are run through cli.main and compared
by exit code and stdout, timing_ms left out.  A mismatch names the entry,
and where only floats differ, the largest distance between them in ulps.
tests/golden/regenerate.py writes the file, and tests/golden/replay.py
replays the entries that need no numpy with the standard library alone.
"""

import importlib
import json
import os
import re
import struct
import subprocess
import sys
import types
from fractions import Fraction

from absarith.arakelov import ArakelovDivisor, Lattice1
from absarith.cli import main
from absarith.dold_kan import GroupHom
from absarith.gamma_space import GSConfig

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "answers.json"), encoding="utf-8") as f:
    ENTRIES = json.load(f)

TIMING = re.compile(r'"timing_ms": [^,]*, ')
FLOAT = re.compile(r"-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|\binf\b|\bnan\b)")
SHOWN = 20


def decode(value):
    """A recorded argument: a divisor, a homomorphism or a divisor space's
    config as a one-key object, else the JSON value itself."""
    if not isinstance(value, dict):
        return value
    ((kind, data),) = value.items()
    if kind == "divisor":
        return ArakelovDivisor.from_json_dict(data)
    if kind == "hom":
        return GroupHom.from_json_dict(data)
    if kind == "config":
        return GSConfig(Lattice1(Fraction(data["generator"])), ArakelovDivisor.from_json_dict({"arch": data["arch"]}).arch)
    raise ValueError(f"unknown argument kind {kind!r}")


def _ordered(x: float) -> int:
    """An int whose order is the floats' order, one step per ulp."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & (2**63 - 1))


def difference(expected: str, got: str) -> str:
    """How got differs from expected: the largest distance in ulps between
    corresponding floats where nothing else differs, else both in full."""
    if FLOAT.split(expected) == FLOAT.split(got):
        pairs = zip(FLOAT.findall(expected), FLOAT.findall(got))
        ulps = max(abs(_ordered(float(a)) - _ordered(float(b))) for a, b in pairs)
        return f"a float is {ulps} ulps off: expected {expected}, got {got}"
    return f"expected {expected}, got {got}"


def _report(mismatches: list[str]) -> str:
    shown = "\n".join(mismatches[:SHOWN])
    more = len(mismatches) - SHOWN
    return shown + (f"\n... and {more} more" if more > 0 else "")


def test_library_answers_are_the_golden_ones():
    entries = [e for e in ENTRIES if "function" in e]
    assert entries
    mismatches = []
    for e in entries:
        module, name = e["function"].rsplit(".", 1)
        fn = getattr(importlib.import_module(module), name)
        got = repr(fn(*map(decode, e["args"]), **{k: decode(v) for k, v in e["kwargs"].items()}))
        if got != e["repr"]:
            mismatches.append(f"{e['id']}: {difference(e['repr'], got)}")
    assert not mismatches, _report(mismatches)


def test_quadrature_answers_are_the_golden_ones_by_both_routes(monkeypatch):
    # The entries above replay in file order, so whether a quadrature takes
    # the iterator or the numpy chunks depends on whether an earlier entry
    # imported numpy.  Each is replayed here with numpy hidden from the route
    # check, as in a fresh process, and with numpy imported.
    import numpy  # noqa: F401

    from absarith import arakelov

    entries = [e for e in ENTRIES if e.get("function") == "absarith.arakelov.gaussian_avg_quadrature"]
    assert entries and all(not e["kwargs"] for e in entries)
    mismatches, iterated = [], []
    tee = arakelov.tee
    for route in ("cold", "numpy loaded"):
        with monkeypatch.context() as m:
            # The iterator route is the only user of tee.
            m.setattr(arakelov, "tee", lambda it: iterated.append(route) or tee(it))
            if route == "cold":
                m.setattr(arakelov, "sys", types.SimpleNamespace(modules={}))
            for e in entries:
                got = repr(arakelov.gaussian_avg_quadrature(*map(decode, e["args"])))
                if got != e["repr"]:
                    mismatches.append(f"{e['id']} ({route}): {difference(e['repr'], got)}")
    assert not mismatches, _report(mismatches)
    assert iterated.count("cold") > iterated.count("numpy loaded")


def test_command_outputs_are_the_golden_ones(capsys):
    entries = [e for e in ENTRIES if "argv" in e]
    assert entries
    mismatches = []
    for e in entries:
        code = main(list(e["argv"]))
        out = TIMING.sub("", capsys.readouterr().out)
        if code != e["exit"]:
            mismatches.append(f"{e['id']}: exit {code}, expected {e['exit']}")
        elif out != e["stdout"]:
            mismatches.append(f"{e['id']}: {difference(e['stdout'], out)}")
    assert not mismatches, _report(mismatches)


def test_a_float_mismatch_is_reported_in_ulps():
    assert difference("(1.0, 2)", "(1.0000000000000002, 2)").startswith("a float is 1 ulps off")
    assert difference("(1.0, 2)", "(1.0, 3)") == "expected (1.0, 2), got (1.0, 3)"


def test_the_stdlib_replay_matches_every_entry_that_needs_no_numpy():
    replay = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "replay.py")
    result = subprocess.run([sys.executable, replay], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    counts = re.findall(r" (library|command): (\d+) replayed, 0 mismatched, \d+ skipped", result.stdout)
    assert [kind for kind, _ in counts] == ["library", "command"], result.stdout
    assert int(counts[0][1]) > 1000 and int(counts[1][1]) > 40, result.stdout
