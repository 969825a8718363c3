"""Write tests/golden/answers.json, the answers that tests/test_golden.py replays.

    PYTHONPATH=src python tests/golden/regenerate.py

Two kinds of entry:

* a library call: every absarith call that the benchmark's run_homotopy and
  run_divisor (bench/workloads.py) make on the batches of seeds 301-303, in
  batch order, recorded by wrapping the functions that bench/workloads.py
  imports.  Each holds the function's module and name, its arguments as
  JSON and the repr of its result;
* a command: the README's commands, `gspace pi` on three exact divisors at
  levels 1-3 and n-max 1-5, `gspace pi` where a float scale's e^u
  underflows, and a Witt basis and a theta invariant that need a composite
  factored by rho and a prime above 3.3e24 proven, each run as a fresh
  `python -m absarith.cli`, with its exit code and its stdout minus
  timing_ms.

Regenerate only when an answer changes on purpose, and list the entries that
changed; never to make a failing replay pass.
"""

from __future__ import annotations

import functools
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [ROOT, os.path.dirname(HERE)]

from absarith.arakelov import ArakelovDivisor  # noqa: E402
from absarith.dold_kan import GroupHom  # noqa: E402
from absarith.gamma_space import GSConfig  # noqa: E402
from bench import workloads  # noqa: E402
from test_readme import _readme_commands  # noqa: E402

SEEDS = (301, 302, 303)
TIMING = re.compile(r'"timing_ms": [^,]*, ')
PI_DIVISORS = ("1/3", "7/2", "3")


def encode(value):
    """A call's argument as JSON; tests/test_golden.py's decode inverts it."""
    if isinstance(value, ArakelovDivisor):
        return {"divisor": value.to_json_dict()}
    if isinstance(value, GroupHom):
        return {"hom": value.to_json_dict()}
    if isinstance(value, GSConfig):
        arch = ArakelovDivisor((), value.scale).to_json_dict()["arch"]
        return {"config": {"generator": str(value.lattice.generator), "arch": arch}}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no JSON form for {value!r}")


def library_entries() -> list[dict]:
    entries: list[dict] = []
    qid = ""

    def recorded(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            entries.append(
                {
                    "id": f"{qid}/{fn.__name__}",
                    "function": f"{fn.__module__}.{fn.__name__}",
                    "args": [encode(a) for a in args],
                    "kwargs": {k: encode(v) for k, v in kwargs.items()},
                    "repr": repr(result),
                }
            )
            return result

        return call

    for name, value in list(vars(workloads).items()):
        if callable(value) and not isinstance(value, type) and getattr(value, "__module__", "").startswith("absarith."):
            setattr(workloads, name, recorded(value))
    for seed in SEEDS:
        for batch, run in ((workloads.homotopy_batch, workloads.run_homotopy), (workloads.divisor_batch, workloads.run_divisor)):
            for q in batch(seed):
                qid = f"{q.qid}@{seed}"
                run(q)
    return entries


def command_entries() -> list[dict]:
    argvs = [argv[1:] for argv in _readme_commands()]
    for r in PI_DIVISORS:
        divisor = '{"finite":{},"arch":{"exact_exp":"%s"}}' % r
        for k in range(1, 4):
            for n_max in range(1, 6):
                argvs.append(["gspace", "pi", "--divisor", divisor, "--k", str(k), "--n-max", str(n_max)])
    argvs.append(["gspace", "pi", "--divisor", '{"arch":{"float":-1e300}}', "--k", "2"])
    argvs.append(["witt", "basis", "--elt", '{"1000000016000000063":1}'])
    argvs.append(["theta", "h0", "--divisor", '{"finite":{"10000000000000000000000013":1}}'])
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    entries = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "absarith.cli", *argv], capture_output=True, text=True, timeout=60, env=env
        )
        entries.append({"id": " ".join(argv), "argv": argv, "exit": proc.returncode, "stdout": TIMING.sub("", proc.stdout)})
    return entries


def main() -> None:
    entries = library_entries() + command_entries()
    with open(os.path.join(HERE, "answers.json"), "w", encoding="utf-8") as f:
        f.write("[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]\n")
    print(f"{len(entries)} entries")


if __name__ == "__main__":
    main()
