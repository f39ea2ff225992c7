"""Structural checks on the package source: one home for alpha M.

alpha M is applied as alpha (M @ x), and I - diag(c) alpha M factored,
only in `field._Attraction`, which alone asks for the dense ring.  No
module defines or reads an `aM`, and the dense ring is read, and
multiplied by alpha, only where the LU path writes its Jacobian
workspace and where `functionals._ring_volume_metric` forms the volume
metric, so no scaled n x n copy of the ring is kept.  Only field.py
reads the dense gate `_DENSE_MAX`.  In field.py the Yukawa and Newton
Green's terms have one home, `_green_terms`, and the kink split one,
`_split`.  Every public name has a use in the package outside its own
definition, or README.md names it, but for a known few that wait on a
caller.  The source is read with `ast`, so docstrings and comments do
not count.
"""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hardball"


def _dotted(node):
    """The dotted name of an attribute chain such as np.linalg.solve; "" for other nodes."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def _scoped(node, scope=()):
    """Every node below node, with the qualified name of the function or class it is in."""
    for child in ast.iter_child_nodes(node):
        named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        inner = scope + (child.name,) if named else scope
        yield child, ".".join(inner)
        yield from _scoped(child, inner)


def _is_dense(node):
    """Whether node reads the dense ring: an attribute `.dense` or a dense=True request."""
    return (isinstance(node, ast.Attribute) and node.attr == "dense") or (
        isinstance(node, ast.Call) and any(
            k.arg == "dense" and isinstance(k.value, ast.Constant) and k.value.value is True
            for k in node.keywords))


def _is_alpha(node):
    return (isinstance(node, ast.Name) and node.id == "alpha") or (
        isinstance(node, ast.Attribute) and node.attr == "alpha")


class _Finder(ast.NodeVisitor):
    """Where the package solves linear systems, asks for, reads and scales dense M, and uses aM.

    solves and dense record the enclosing class; reads, scaled and am the
    enclosing qualified name, such as "_Attraction.solve".
    """

    def __init__(self):
        self.classes, self.scope = [], []
        self.solves, self.dense, self.reads, self.scaled, self.am = [], [], [], [], []

    def _where(self):
        return ".".join(self.scope) or None

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
        self.classes.pop()

    def visit_FunctionDef(self, node):
        if node.name == "aM":
            self.am.append(self._where())
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Name(self, node):
        if node.id == "aM":
            self.am.append(self._where())

    def visit_Attribute(self, node):
        if node.attr == "aM":
            self.am.append(self._where())
        if node.attr == "dense":
            self.reads.append(self._where())
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.Mult) and any(
                _is_dense(a) and _is_alpha(b)
                for a, b in ((node.left, node.right), (node.right, node.left))):
            self.scaled.append(self._where())
        self.generic_visit(node)

    def visit_Call(self, node):
        where = self.classes[-1] if self.classes else None
        if _dotted(node.func).endswith("linalg.solve"):
            self.solves.append(where)
        if _is_dense(node):
            self.dense.append(where)
        if _dotted(node.func).endswith("multiply") and any(map(_is_dense, node.args)) and any(
                map(_is_alpha, node.args)):
            self.scaled.append(self._where())
        self.generic_visit(node)


def _scan():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        finder = _Finder()
        finder.visit(ast.parse(path.read_text()))
        found[path.name] = finder
    return found


def test_one_linear_solve_inside_the_attraction():
    solves = [(name, where) for name, f in _scan().items() for where in f.solves]
    assert solves == [("field.py", "_Attraction")]


def test_one_dense_ring_request_inside_the_attraction():
    dense = [(name, where) for name, f in _scan().items() for where in f.dense]
    assert dense == [("field.py", "_Attraction")]


def test_no_module_defines_or_reads_an_aM():
    am = [(name, where) for name, f in _scan().items() for where in f.am]
    assert am == []


def test_dense_ring_is_read_and_scaled_by_alpha_in_two_places_only():
    found = _scan()
    scaled = [(name, where) for name, f in found.items() for where in f.scaled]
    assert scaled == [("field.py", "_Attraction.solve"),
                      ("functionals.py", "_ring_volume_metric")]
    assert {(name, where) for name, f in found.items() for where in f.reads} == set(scaled)


def test_only_field_reads_the_dense_gate():
    readers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "_DENSE_MAX") or (
                    isinstance(node, ast.Attribute) and node.attr == "_DENSE_MAX"):
                readers.add(path.name)
    assert readers == {"field.py"}


def test_one_home_for_the_green_terms_and_the_kink_split():
    green, split = set(), set()
    for node, where in _scoped(ast.parse((SRC / "field.py").read_text())):
        if (isinstance(node, ast.Attribute) and node.attr == "kappa") or (
                isinstance(node, ast.Call) and _dotted(node.func).endswith("expm1")):
            green.add(where)
        if isinstance(node, ast.Call) and _dotted(node.func) == "_lagrange":
            split.add(where)
    assert green == {"_green_terms"}
    assert split == {"_split"}


def _public_names(tree):
    """A module's `__all__`, or its top-level defs and classes without a leading underscore."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [element.value for element in node.value.elts]
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _uses(node):
    """How often each identifier is read below node, as a name or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_public_names_without_a_use_are_the_known_few():
    # each entry names the ROADMAP item that gives it a caller; a removal, or
    # a new caller, takes its entry out, and a new public name needs a use
    expected = {
        "field.predicates",  # item 18: the claims command
        "functionals.second_variation_P",  # item 5: the probes move out of src/
        "functionals.second_variation_F",  # item 5
        "kernels.ball_potential",  # item 4: the far-field correction; the benchmark's oracle
        "kernels.second_moment",  # item 10: the square-gradient tension
        "kernels.boundary_constant",  # item 4
        "uniform.TriplicityRegion",  # item 18
        "uniform.pi_uniform",  # item 18
        "uniform.f_uniform",  # item 18
    }
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    readme = (SRC.parent.parent / "README.md").read_text()
    uses = sum(map(_uses, trees.values()), Counter())
    unused = set()
    for module, tree in trees.items():
        for name in _public_names(tree):
            own = sum((_uses(top) for top in tree.body if getattr(top, "name", None) == name),
                      Counter())
            if uses[name] == own[name] and not re.search(rf"\b{re.escape(name)}\b", readme):
                unused.add(f"{module}.{name}")
    assert unused == expected
