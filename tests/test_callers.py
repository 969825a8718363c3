"""Every public function, class and method of src/absarith has a reader.

A name is read where it occurs, other than in its own definition, as a
name, an attribute or an imported name in src/absarith or bench/ (read with
the standard library's ast), or as a word of README.md.  A module's __all__
lists names; it reads none.  The names that nothing there reads are on
ALLOWED, each with the acceptance criterion that reads it or as part of the
object path, and no name is on ALLOWED that has a reader or no definition,
so that the list cannot go stale.  A name that only tests read fails here."""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Public names with no reader in src, bench or the README.
ALLOWED = {
    "act_unit": "acceptance criterion 3 checks with it that units fix the image of a Witt element",
    "rho_tilde": "acceptance criterion 2 checks the operator relations of sigma and rho_tilde with it",
    "count_xi_over_L": "acceptance criterion 10 counts sections with it",
    "torsion_lcm": "acceptance criterion 3 reads the order of an image in Z[Q/Z] with it",
    "norm_filtered_member": "acceptance criterion 9 tests the filtration with it",
    "principal": "acceptance criterion 10 shifts a divisor by a principal one",
    "push_forward": "acceptance criterion 9 pushes members forward with it",
    "simplicial_level": "acceptance criterion 8 lists the levels of the object path with it",
    "degeneracy": "acceptance criterion 8 checks the simplicial identities with it; on the object path",
}


def _python_files(directory: str) -> list[str]:
    return sorted(os.path.join(directory, name) for name in os.listdir(directory) if name.endswith(".py"))


def _definitions(tree: ast.Module) -> list[str]:
    """The public top-level functions and classes of a module and the public
    methods of its public classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [
                    item.name
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return names


def _reads(tree: ast.Module) -> set[str]:
    """Every name, attribute and imported name of a module."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def unread(src: list[str], readers: list[str], text: str) -> list[str]:
    """The public names defined in the src sources that neither the sources
    nor the readers' sources read, nor the text names as a word."""
    trees = [ast.parse(source) for source in src]
    defined = [name for tree in trees for name in _definitions(tree)]
    reads = set().union(*map(_reads, trees), *(_reads(ast.parse(source)) for source in readers))
    words = set(re.findall(r"\w+", text))
    return sorted({name for name in defined if name not in reads and name not in words})


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def test_the_audit_finds_a_name_nothing_reads():
    src = [
        "class Shape:\n    def area(self):\n        return 0\n    def spin(self):\n        pass\n"
        "    def _hidden(self):\n        pass\n\ndef unused():\n    pass\n\ndef _private():\n    pass\n",
        "from shapes import Shape\n\ndef draw(s):\n    return s.area()\n\ndef fill(s):\n    pass\n\n"
        "__all__ = ['fill']\n",
    ]
    # fill is listed in __all__ and read nowhere.
    assert unread(src, [], "") == ["draw", "fill", "spin", "unused"]
    assert unread(src, ["draw(Shape())\n"], "call `spin` first") == ["fill", "unused"]


def test_every_public_name_has_a_reader_or_a_reason():
    src = [_read(path) for path in _python_files(os.path.join(ROOT, "src", "absarith"))]
    bench = [_read(path) for path in _python_files(os.path.join(ROOT, "bench"))]
    assert unread(src, bench, _read(os.path.join(ROOT, "README.md"))) == sorted(ALLOWED)
