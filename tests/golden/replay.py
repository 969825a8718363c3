"""Replay the golden answers that need no numpy, on the interpreter that runs this.

    python tests/golden/replay.py

Each library and command entry of tests/golden/answers.json is replayed as
tests/test_golden.py replays it, with numpy hidden: an entry that tries to
import numpy is skipped and counted, so the counts are the same whether or
not numpy is installed.  The script needs only the standard library, so it
runs on interpreters without numpy or pytest.  It prints the counts and any
mismatches, and exits 1 if there is one.
"""

import contextlib
import importlib
import io
import os
import sys

TESTS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(TESTS), "src"), TESTS]


class _HiddenNumpy:
    """A meta path finder that refuses numpy and notes that it was asked."""

    asked = False

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            self.asked = True
            raise ImportError(f"numpy is hidden from the golden replay ({name})")
        return None


def _replay(entry, decode, main, timing) -> bool:
    """Whether the entry gives its recorded answer."""
    if "function" in entry:
        module, name = entry["function"].rsplit(".", 1)
        fn = getattr(importlib.import_module(module), name)
        got = repr(fn(*map(decode, entry["args"]), **{k: decode(v) for k, v in entry["kwargs"].items()}))
        return got == entry["repr"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(entry["argv"]))
    return code == entry["exit"] and timing.sub("", out.getvalue()) == entry["stdout"]


def main() -> int:
    hidden = _HiddenNumpy()
    sys.meta_path.insert(0, hidden)
    import test_golden

    counts = {"library": [0, 0, 0], "command": [0, 0, 0]}  # replayed, skipped, mismatched
    mismatches = []
    for entry in test_golden.ENTRIES:
        kind = "library" if "function" in entry else "command"
        hidden.asked = False
        try:
            same = _replay(entry, test_golden.decode, test_golden.main, test_golden.TIMING)
        except Exception as exc:  # reported as a mismatch unless numpy was asked for
            same = f"raised {exc!r}"
        if hidden.asked:
            counts[kind][1] += 1
            continue
        counts[kind][0] += 1
        if same is not True:
            counts[kind][2] += 1
            mismatches.append(f"{entry['id']}: " + (same or "differs from its recorded answer"))
    version = ".".join(map(str, sys.version_info[:3]))
    for kind, (replayed, skipped, mismatched) in counts.items():
        print(f"python {version} {kind}: {replayed} replayed, {mismatched} mismatched, {skipped} skipped (numpy)")
    for line in mismatches:
        print(line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
