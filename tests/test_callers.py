"""Every public function, class, method and field of src/absarith has a reader.

A name is read where it occurs, other than in its own definition, as a
name, an attribute or an imported name in src/absarith or bench/ (read with
the standard library's ast), or as a word of an inline code span of
README.md; prose and fenced blocks name nothing.  A member of a public
class, its method, property or field (an annotated name in its body), is
read only as an attribute there or as such a word, so that a keyword
argument that sets a field or a local variable of the same name does not
count.  A module's __all__ lists names; it reads
none.  The names that nothing there reads are on ALLOWED, each with the
acceptance criterion that reads it or as part of the object path, and no
name is on ALLOWED that has a reader or no definition, so that the list
cannot go stale.  A name or a field that only tests read fails here."""

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
    "face": "on the object path: the tests check the divisor space's simplicial identities with it",
    "wedge": "acceptance criterion 1 checks that tau takes wedge sums to sums with it",
    "samples_checked": "acceptance criterion 7 checks that a certificate drew its 1,000 samples with it",
}


def _python_files(directory: str) -> list[str]:
    return sorted(os.path.join(directory, name) for name in os.listdir(directory) if name.endswith(".py"))


def _definitions(tree: ast.Module) -> tuple[list[str], list[str]]:
    """The public top-level functions and classes of a module, and the public
    methods, properties and fields of those classes."""
    names, members = [], []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        members.append(item.name)
                    elif isinstance(item, ast.AnnAssign) and not item.target.id.startswith("_"):
                        members.append(item.target.id)
    return names, members


def _reads(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Every name, attribute and imported name of a module, and its attributes alone."""
    reads, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads | attributes, attributes


def _code_words(text: str) -> set[str]:
    """The words of the text's inline code spans, fenced blocks dropped first."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.MULTILINE | re.DOTALL)
    return set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", text))))


def unread(src: list[str], readers: list[str], text: str) -> list[str]:
    """The public names and class members defined in the src sources that
    neither the sources nor the readers' sources read, nor a code span of the
    text names."""
    trees = [ast.parse(source) for source in src]
    definitions = [_definitions(tree) for tree in trees]
    reads = [_reads(tree) for tree in trees + [ast.parse(source) for source in readers]]
    words = _code_words(text)
    names = {name for defined, _ in definitions for name in defined} - set().union(*(r for r, _ in reads))
    members = {name for _, defined in definitions for name in defined} - set().union(*(a for _, a in reads))
    return sorted((names | members) - words)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def test_the_audit_finds_a_name_nothing_reads():
    src = [
        "class Shape:\n    sides: int\n    colour: str\n    _cache: dict\n    def area(self):\n"
        "        return self.sides\n    def spin(self):\n        pass\n    def tint(self):\n        pass\n"
        "    def _hidden(self):\n        pass\n\n"
        "def unused():\n    pass\n\ndef _private():\n    pass\n",
        "from shapes import Shape\n\ndef draw(s):\n    colour, tint = s.area(), 2\n    return Shape(colour=colour * tint)\n\n"
        "def fill(s):\n    pass\n\n__all__ = ['fill']\n",
    ]
    # fill is listed in __all__ and read nowhere; the field colour is set by
    # a keyword and shares its name with a local variable, and is read nowhere;
    # the method tint is read only as a bare local name of its own.
    assert unread(src, [], "") == ["colour", "draw", "fill", "spin", "tint", "unused"]
    # Prose and fenced blocks name nothing; an inline code span does.
    text = "call `spin` first, not unused or colour\n\n```\nfill(Shape())\n```\n"
    assert unread(src, ["draw(Shape())\n"], text) == ["colour", "fill", "tint", "unused"]
    assert unread(src, ["print(Shape().colour, Shape().tint())\n"], "`draw`, `fill` and `unused(spin)`") == []


def test_every_public_name_has_a_reader_or_a_reason():
    src = [_read(path) for path in _python_files(os.path.join(ROOT, "src", "absarith"))]
    bench = [_read(path) for path in _python_files(os.path.join(ROOT, "bench"))]
    assert unread(src, bench, _read(os.path.join(ROOT, "README.md"))) == sorted(ALLOWED)
