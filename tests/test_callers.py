"""Every public function, class, method and field of src/absarith has a reader.

Each definition is keyed on its module, its class (none for a top-level
function or class) and its name, and is named module.name or
module.Class.name.  A top-level name is read where it occurs, other than in
its own definition, as a name, an attribute or an imported name in
src/absarith or bench/ (read with the standard library's ast), or as a word
of an inline code span of README.md; prose and fenced blocks name nothing.
A member of a public class, its method, property or field (an annotated
name in its body), is read only as an attribute there or as such a word, so
that a keyword argument that sets a field or a local variable of the same
name does not count.  Which member an attribute reads depends on its
receiver:

* X.name, X a class of src/absarith, reads the name where X or the first
  of its bases that defines it does, and no other class's;
* self.name and cls.name inside a class read it the same way from that
  class, or, where neither it nor a base defines the name, from the
  subclasses that do; in a class that is not in src/absarith they read
  nothing of it, unless a base is;
* a read on any other receiver, whose class the audit cannot know, reads
  the name of every class that defines it.

A module's __all__ lists names; it reads none.  Dunder methods are not
audited here: tests/reach.py reports the operators that no product run
enters.  The definitions that nothing there reads are on ALLOWED by their
qualified name, each with the acceptance criterion that reads it or as part
of the object path, and no name is on ALLOWED that has a reader or no
definition, so that the list cannot go stale.  A name or a field that only
tests read fails here."""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Public definitions with no reader in src, bench or the README.
ALLOWED = {
    "group_ring.act_unit": "acceptance criterion 3 checks with it that units fix the image of a Witt element",
    "group_ring.rho_tilde": "acceptance criterion 2 checks the operator relations of sigma and rho_tilde with it",
    "arakelov.count_xi_over_L": "acceptance criterion 10 counts sections with it",
    "group_ring.GroupRingElt.torsion_lcm": "acceptance criterion 3 reads the order of an image in Z[Q/Z] with it",
    "gamma_core.norm_filtered_member": "acceptance criterion 9 tests the filtration with it",
    "arakelov.principal": "acceptance criterion 10 shifts a divisor by a principal one",
    "gamma_core.push_forward": "acceptance criterion 9 pushes members forward with it",
    "dold_kan.simplicial_level": "acceptance criterion 8 lists the levels of the object path with it",
    "dold_kan.degeneracy": "acceptance criterion 8 checks the simplicial identities with it; on the object path",
    "gamma_space.degeneracy": "on the object path: the tests check the divisor space's simplicial identities with it",
    "gamma_space.face": "on the object path: the tests check the divisor space's simplicial identities with it",
    "gamma_core.wedge": "acceptance criterion 1 checks that tau takes wedge sums to sums with it",
    "gamma_space.TrivialityCertificate.samples_checked": (
        "acceptance criterion 7 checks that a certificate drew its 1,000 samples with it"
    ),
}


def _python_files(directory: str) -> list[str]:
    return sorted(os.path.join(directory, name) for name in os.listdir(directory) if name.endswith(".py"))


def _classes(trees: list[ast.Module]) -> dict[str, tuple[list[str], set[str]]]:
    """Each top-level class of the trees by name: its bases' names and the
    names of its methods and fields, public or not."""
    out = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                members = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                members |= {item.target.id for item in node.body if isinstance(item, ast.AnnAssign)}
                bases = [base.id for base in node.bases if isinstance(base, ast.Name)]
                out[node.name] = (bases, members)
    return out


def _definer(classes: dict, cls: str, name: str) -> str | None:
    """The first of cls and its bases, in order, that defines name."""
    if cls not in classes:
        return None
    bases, members = classes[cls]
    if name in members:
        return cls
    for base in bases:
        found = _definer(classes, base, name)
        if found is not None:
            return found
    return None


def _subclass_definers(classes: dict, cls: str, name: str) -> set[str]:
    """The classes below cls, at any depth, that define name themselves."""
    out = set()
    for sub, (bases, members) in classes.items():
        if cls in bases:
            out |= ({sub} if name in members else set()) | _subclass_definers(classes, sub, name)
    return out


def _definitions(module: str, tree: ast.Module) -> tuple[set[tuple], set[tuple]]:
    """The public top-level functions and classes of a module, and the public
    methods, properties and fields of those classes, as (module, class, name)."""
    names, members = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.add((module, None, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        members.add((module, node.name, item.name))
                    elif isinstance(item, ast.AnnAssign) and not item.target.id.startswith("_"):
                        members.add((module, node.name, item.target.id))
    return names, members


def _reads(tree: ast.Module, classes: dict) -> tuple[set[str], set[str], set[tuple[str, str]]]:
    """A module's reads: every name, attribute and imported name; the
    attributes on a receiver of unknown class; and the (class, name) pairs
    that an attribute on a known class reads."""
    names, untyped, typed = set(), set(), set()

    def visit(node: ast.AST, enclosing: str | None) -> None:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            receiver = node.value.id if isinstance(node.value, ast.Name) else None
            if receiver in ("self", "cls") and enclosing is not None:
                owner = _definer(classes, enclosing, node.attr)
                owners = {owner} if owner else _subclass_definers(classes, enclosing, node.attr)
                typed.update((owner, node.attr) for owner in owners)
            elif receiver in classes:
                owner = _definer(classes, receiver, node.attr)
                typed.update({(owner, node.attr)} if owner else set())
            else:
                untyped.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, node.name if isinstance(node, ast.ClassDef) else enclosing)

    visit(tree, None)
    return names, untyped, typed


def _code_words(text: str) -> set[str]:
    """The words of the text's inline code spans, fenced blocks dropped first."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.MULTILINE | re.DOTALL)
    return set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", text))))


def _qualified(key: tuple) -> str:
    return ".".join(part for part in key if part is not None)


def unread(src: dict[str, str], readers: list[str], text: str) -> list[str]:
    """The qualified names of the public definitions in the src sources (by
    module name) that neither the sources nor the readers' sources read, nor
    a code span of the text names."""
    src_trees = {module: ast.parse(source) for module, source in src.items()}
    trees = [ast.parse(source) for source in readers] + list(src_trees.values())
    # src's classes last, so that a reader's class of the same name does not hide one
    classes = _classes(trees)
    src_classes = _classes(list(src_trees.values()))
    names, members = set(), set()
    for module, tree in src_trees.items():
        defined_names, defined_members = _definitions(module, tree)
        names |= defined_names
        members |= defined_members
    read_names, untyped, typed = set(), set(), set()
    for tree in trees:
        n, u, t = _reads(tree, classes)
        read_names |= n
        untyped |= u
        typed |= {(cls, name) for cls, name in t if cls in src_classes}
    words = _code_words(text)
    left = {key for key in names if key[2] not in read_names | words}
    left |= {key for key in members if key[2] not in untyped | words and key[1:] not in typed}
    return sorted(_qualified(key) for key in left)


def stale_or_missing(src: dict[str, str], readers: list[str], text: str, allowed) -> list[str]:
    """What fails the audit: each unread definition not on allowed, and each
    name on allowed that has a reader or no definition."""
    found = unread(src, readers, text)
    problems = [f"{name}: only tests read it" for name in found if name not in allowed]
    return problems + [f"{name}: on ALLOWED but read, or not defined" for name in sorted(allowed) if name not in found]


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _module_sources(directory: str) -> dict[str, str]:
    return {os.path.basename(path)[:-3]: _read(path) for path in _python_files(directory)}


def test_the_audit_finds_a_name_nothing_reads():
    src = {
        "shapes": "class Shape:\n    sides: int\n    colour: str\n    _cache: dict\n    def area(self):\n"
        "        return self.sides\n    def spin(self):\n        pass\n    def tint(self):\n        pass\n"
        "    def _hidden(self):\n        pass\n\n"
        "def unused():\n    pass\n\ndef _private():\n    pass\n",
        "draw": "from shapes import Shape\n\ndef draw(s):\n    colour, tint = s.area(), 2\n    return Shape(colour=colour * tint)\n\n"
        "def fill(s):\n    pass\n\n__all__ = ['fill']\n",
    }
    # fill is listed in __all__ and read nowhere; the field colour is set by
    # a keyword and shares its name with a local variable, and is read nowhere;
    # the method tint is read only as a bare local name of its own.
    expected = ["draw.draw", "draw.fill", "shapes.Shape.colour", "shapes.Shape.spin", "shapes.Shape.tint", "shapes.unused"]
    assert unread(src, [], "") == expected
    # Prose and fenced blocks name nothing; an inline code span does.
    text = "call `spin` first, not unused or colour\n\n```\nfill(Shape())\n```\n"
    assert unread(src, ["draw(Shape())\n"], text) == ["draw.fill", "shapes.Shape.colour", "shapes.Shape.tint", "shapes.unused"]
    assert unread(src, ["print(Shape().colour, Shape().tint())\n"], "`draw`, `fill` and `unused(spin)`") == []

    keyed = {
        "shapes": "class Shape:\n    def spin(self):\n        pass\n    def scale(self):\n        pass\n"
        "    def grow(self):\n        return self.scale()\n\n"
        "class Wheel:\n    def spin(self):\n        return self.scale()\n    def scale(self):\n        pass\n"
        "    def roll(self):\n        return Wheel.spin(self)\n\n"
        "class Rim(Wheel):\n    def polish(self):\n        return self.spin()\n",
        "use": "from shapes import Shape, Wheel, Rim\n\nprint(Rim().polish(), Shape().grow())\n",
    }
    # Shape.spin is read only through Wheel's method of that name, as
    # Wheel.spin and as self.spin in Rim, a subclass of Wheel: it is flagged.
    # Wheel.roll has no reader at all.
    assert unread(keyed, [], "") == ["shapes.Shape.spin", "shapes.Wheel.roll"]
    # A read on a receiver of unknown class, obj.spin, counts for every spin.
    assert unread(keyed, ["def go(obj):\n    return obj.spin(), obj.roll()\n"], "") == []
    # self.spin in a class outside src, with no src base, reads no src spin.
    reader = "class Top:\n    def spin(self):\n        pass\n    def go(self):\n        return self.spin(), Wheel().roll()\n"
    assert unread(keyed, [reader], "") == ["shapes.Shape.spin"]
    # self.name in a base that does not define name reads its subclasses'.
    base = {"base": "class Base:\n    def go(self):\n        return self.hook()\n\n"
            "class Leaf(Base):\n    def hook(self):\n        pass\n\n"
            "class Other:\n    def hook(self):\n        pass\n",
            "use": "from base import Leaf, Other\n\nprint(Leaf().go())\n"}
    assert unread(base, [], "") == ["base.Other.hook"]

    # ALLOWED goes stale on a name whose definition is gone or that is read.
    lone = {"m": "def lonely():\n    pass\n\ndef read():\n    pass\n\ndef user():\n    return read()\n"}
    readers = ["from m import user\n"]
    assert stale_or_missing(lone, readers, "", {"m.lonely": "kept"}) == []
    assert stale_or_missing(lone, readers, "", {}) == ["m.lonely: only tests read it"]
    stale = stale_or_missing(lone, readers, "", {"m.lonely": "kept", "m.gone": "deleted", "m.read": "read"})
    assert stale == ["m.gone: on ALLOWED but read, or not defined", "m.read: on ALLOWED but read, or not defined"]


def test_every_public_name_has_a_reader_or_a_reason():
    src = _module_sources(os.path.join(ROOT, "src", "absarith"))
    bench = [_read(path) for path in _python_files(os.path.join(ROOT, "bench"))]
    assert stale_or_missing(src, bench, _read(os.path.join(ROOT, "README.md")), ALLOWED) == []
