"""README.md against the code: the budget table against errors.BUDGETS, the
command line's options against the parser, and the command block under
"## Command line" run as written.  CI reads the same block and runs it
through the installed entry point."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys

from absarith.cli import build_parser
from absarith.errors import BUDGETS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
    README = f.read()


def _budget_rows() -> dict[str, str]:
    """Budget name -> Limit cell of the README's budget table."""
    table = README[README.index("| Budget | Limit |") :]
    rows = {}
    for line in table.splitlines()[2:]:
        if not line.startswith("|"):
            break
        # Cells are split on the pipes that are not escaped as \|.
        name, limit = (cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:3])
        rows[name.strip("`")] = limit
    return rows


def test_the_budget_table_lists_every_budget_once_with_its_limit():
    rows = _budget_rows()
    assert list(rows) == list(BUDGETS)
    for name, (limit, _) in BUDGETS.items():
        assert rows[name] == ("the interpreter's" if limit is None else f"{limit:,}"), name


def _readme_commands() -> list[list[str]]:
    """The argv of each line of the sh block under "## Command line"."""
    section = README[README.index("## Command line") :]
    start = section.index("```sh\n") + len("```sh\n")
    block = section[start : section.index("```", start)]
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv for argv in argvs if argv]


def _run_readme_commands(hash_seed: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED=hash_seed)
    outputs = []
    for argv in _readme_commands():
        assert argv[0] == "absarith", argv
        proc = subprocess.run(
            [sys.executable, "-m", "absarith.cli", *argv[1:]], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        outputs.append(re.sub(r'"timing_ms": [^,]*, ', "", proc.stdout))
    return outputs


def _reject_non_finite(name):
    raise ValueError(f"non-finite number {name} in a README command's output")


def test_readme_commands_answer_byte_identically_under_two_hash_seeds():
    assert _readme_commands()
    first = _run_readme_commands("0")
    assert first == _run_readme_commands("1")
    for out in first:
        if out.startswith("{"):
            json.loads(out, parse_constant=_reject_non_finite)


def _long_options(parser: argparse.ArgumentParser) -> set[str]:
    return {
        option
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--")
    }


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _parser_options() -> dict[tuple[str, ...], set[str]]:
    """The long options of build_parser(), help aside: () -> the global ones,
    (family, op) -> those of each subcommand."""
    parser = build_parser()
    options = {(): _long_options(parser)}
    for family, family_parser in _subparsers(parser).items():
        for op, op_parser in _subparsers(family_parser).items():
            options[(family, op)] = _long_options(op_parser)
    return options


def test_readme_names_every_option_of_the_parser():
    for command, options in _parser_options().items():
        for option in options:
            assert re.search(rf"(?<![\w-]){option}(?![\w-])", README), (command, option)


def test_every_option_on_a_readme_command_line_is_the_parsers():
    options = _parser_options()
    lines = re.findall(r"(?:^|`)absarith ([^`\n]*)", README, flags=re.MULTILINE)
    assert len(lines) >= len(_readme_commands())
    for line in lines:
        argv = shlex.split(line, comments=True)
        accepted = options[()] | options.get(tuple(argv[:2]), set())
        for arg in argv:
            if arg.startswith("--"):
                assert arg.split("=")[0] in accepted, line
