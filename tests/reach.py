"""Product reach per definition: which functions and fields of src/absarith
the product runs, and which only tests reach.

    PYTHONPATH=src python tests/reach.py

It installs a sys.setprofile hook (and threading.setprofile, for the Monte
Carlo worker threads), then runs, in this process:

* the product: the benchmark's ring, homotopy and divisor batches of seeds
  0-2, each query through its run_* and its check_* (bench/workloads.py),
  then the README's commands and the benchmark's CLI_COMMANDS through
  cli.main;
* then acceptance: each test function of tests/test_acceptance.py in turn.

A function, method or nested function that src/absarith defines (listed
with ast) is reached when the hook sees a call of its code.  A field of a
value class (an annotated name in its body) is reached when it is read: for
the run, each such class gets a class-level __getattribute__ that notes the
reads of its fields and of its bases' fields, except the reads of the
__init__, __eq__, __hash__ and __repr__ that errors.frozen generates.

It prints what each run reached and exits 1 when a definition that neither
reached is not on EXEMPT, when EXEMPT names one that a run reached or that
is not defined, or when a query, a command or a criterion fails.  It needs
only the standard library besides the package itself and numpy, which the
product imports, and writes nothing: no bytecode, no cache.
"""

import ast
import contextlib
import io
import os
import sys
import threading

sys.dont_write_bytecode = True
TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
SRC = os.path.join(ROOT, "src", "absarith")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT, TESTS]

import importlib  # noqa: E402

# Imported before any hook is on, so that what their module-level code calls
# (such as tests/helpers.py's maps) counts for neither run.
import test_acceptance  # noqa: E402
from absarith import cli  # noqa: E402
from bench import workloads  # noqa: E402
from test_readme import _readme_commands  # noqa: E402

SEEDS = (0, 1, 2)

OBJECT_PATH = "the divisor space's object path, which the tests check the index path against (ROADMAP item 10)"
RHO_PATH = "the rho and n-1 paths above the Miller-Rabin tiers, which no workload reaches (ROADMAP item 5)"
CYCLIC_BASIS = "the README states tau(PointedEndo.cyclic(k)) == WittElement.basis(k) with it"

# Definitions that neither the product nor acceptance reaches, each with its
# reason.
EXEMPT = {
    "errors.frozen": "runs at import, before the hook is installed",
    "errors._frozen_setattr": "an error path: assigning a field raises",
    "errors._frozen_delattr": "an error path: deleting a field raises",
    "cli._non_finite": "an error path: it names the NaN or infinity of an answer that JSON cannot print",
    "numth._spend": RHO_PATH,
    "numth._rho": RHO_PATH,
    "numth._prime_factors": RHO_PATH,
    "numth._n_minus_1_certified": RHO_PATH,
    "gamma_space._last_face_table": "no draw of the sampled certificate reaches face n (ROADMAP item 7)",
    "gamma_space.GSElement.__post_init__": OBJECT_PATH,
    "gamma_space.GSElement.degree": OBJECT_PATH,
    "gamma_space.GSElement.k": OBJECT_PATH,
    "gamma_space.GSElement.free": OBJECT_PATH,
    "gamma_space.GSElement.torus": OBJECT_PATH,
    "gamma_space.zero_element": OBJECT_PATH,
    "gamma_space.member": OBJECT_PATH,
    "gamma_space._vec_add": OBJECT_PATH,
    "gamma_space.face": OBJECT_PATH,
    "gamma_space.degeneracy": OBJECT_PATH,
    "packing.PackingResult.exact": "read only by the benchmark's traced runs (bench/layers.py)",
    "gamma_space.TrivialityCertificate.n": "the README says the certificate records its degree",
    "gamma_space.TrivialityCertificate.k": "the README says the certificate records its level",
    "gamma_core.PointedEndo.cyclic": CYCLIC_BASIS,
    "witt.WittElement.basis": CYCLIC_BASIS,
    "witt.Combination.zero": "__rmul__ reads it for the multiple 0, which no product run takes",
}


def definitions(path: str, module: str) -> tuple[dict[tuple[str, int, str], str], dict[str, list[str]]]:
    """What the module's source defines: (file, first line, name) of the code
    of each function, at any depth, to its qualified name; and module.Class
    of each top-level class with annotated names in its body, its fields, to
    those names."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    functions = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                # A decorated function's code starts at its first decorator.
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                functions[(path, first, child.name)] = f"{prefix}.{child.name}"
                visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(tree, module)
    fields = {
        f"{module}.{node.name}": [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    return functions, {cls: names for cls, names in fields.items() if names}


class Recorder:
    """The functions entered and the fields read while it is on."""

    def __init__(self, functions: dict, fields: dict) -> None:
        self.functions = functions
        self.fields = fields
        self.codes: dict = {}
        self.reads: set = set()

    def reached(self) -> set[str]:
        entered = {(os.path.abspath(c.co_filename), c.co_firstlineno, c.co_name) for c in self.codes.values()}
        return {self.functions[key] for key in entered if key in self.functions} | self.reads

    @contextlib.contextmanager
    def on(self):
        classes = {}
        for qualified, names in self.fields.items():
            module, name = qualified.split(".")
            classes[getattr(importlib.import_module(f"absarith.{module}"), name)] = (module, names)
        generated = {
            fn.__code__
            for cls in classes
            for fn in (cls.__dict__.get(m) for m in ("__init__", "__eq__", "__hash__", "__repr__"))
            if fn is not None and fn.__code__.co_filename == "<string>"
        }
        reads, getframe, get = self.reads, sys._getframe, object.__getattribute__

        def watch(cls) -> None:
            # The fields of cls and of its bases, each under the class that
            # declares it; the hook goes once each has been read.
            owner = {}
            for base in reversed(cls.__mro__):
                if base in classes:
                    module, names = classes[base]
                    owner.update((name, f"{module}.{base.__qualname__}.{name}") for name in names)
            pending = set(owner)

            def __getattribute__(self, name):
                if name in pending and getframe(1).f_code not in generated:
                    reads.add(owner[name])
                    pending.discard(name)
                    if not pending:
                        del cls.__getattribute__
                return get(self, name)

            cls.__getattribute__ = __getattribute__

        # Each code object is kept, keyed by its id, until the run is read.
        codes = self.codes

        def profile(frame, event, arg) -> None:
            if event == "call":
                code = frame.f_code
                codes[id(code)] = code

        for cls in classes:
            watch(cls)
        sys.setprofile(profile)
        threading.setprofile(profile)
        try:
            yield
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            for cls in classes:
                if "__getattribute__" in cls.__dict__:
                    del cls.__getattribute__


def run_product() -> list[str]:
    """The failures of the benchmark's queries and of the commands."""
    failures = []
    for name in ("ring", "homotopy", "divisor"):
        batch, run, check, _ = workloads.WORKLOADS[name]
        for seed in SEEDS:
            for q in batch(seed):
                problem = check(q, run(q))
                if problem is not None:
                    failures.append(f"{name} seed {seed} {q.qid}: {problem}")
    argvs = [argv[1:] for argv in _readme_commands()] + [list(argv) for argv, _ in workloads.CLI_COMMANDS]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        if code != 0:
            failures.append(f"absarith {' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
    return failures


def run_acceptance() -> None:
    for name, fn in vars(test_acceptance).items():
        if name.startswith("test_") and callable(fn):
            with contextlib.redirect_stdout(io.StringIO()):
                fn()


def main() -> int:
    functions, fields = {}, {}
    for file in sorted(os.listdir(SRC)):
        if file.endswith(".py"):
            module_functions, module_fields = definitions(os.path.join(SRC, file), file[:-3])
            functions.update(module_functions)
            fields.update(module_fields)
    defined = set(functions.values()) | {f"{cls}.{name}" for cls, names in fields.items() for name in names}

    product = Recorder(functions, fields)
    with product.on():
        failures = run_product()
    acceptance = Recorder(functions, fields)
    with acceptance.on():
        run_acceptance()
    by_product, by_acceptance = product.reached(), acceptance.reached() - product.reached()

    unreached = defined - by_product - by_acceptance
    print(f"{len(defined)} functions and fields defined in src/absarith")
    print(f"{len(by_product & defined)} reached by the product, {len(by_acceptance & defined)} more by acceptance alone:")
    for name in sorted(by_acceptance & defined):
        print(f"  {name}")
    print(f"{len(unreached)} reached by neither, {len(unreached & set(EXEMPT))} of them exempt")
    problems = failures + [f"{name}: reached by neither the product nor acceptance" for name in sorted(unreached - set(EXEMPT))]
    problems += [f"{name}: exempt, but reached or not defined" for name in sorted(set(EXEMPT) - unreached)]
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
