"""Structural checks on the package source: one home for alpha M.

alpha M is formed densely, and I - diag(c) alpha M factored, only in
`field._Attraction`, and only field.py reads the dense gate
`_DENSE_MAX`.  The source is read with `ast`, so docstrings and
comments do not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hardball"


def _dotted(node):
    """The dotted name of an attribute chain such as np.linalg.solve; "" for other nodes."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


class _Finder(ast.NodeVisitor):
    """Where, by enclosing class, the package solves linear systems and asks for dense M."""

    def __init__(self):
        self.classes, self.solves, self.dense = [], [], []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Call(self, node):
        where = self.classes[-1] if self.classes else None
        if _dotted(node.func).endswith("linalg.solve"):
            self.solves.append(where)
        if any(k.arg == "dense" and isinstance(k.value, ast.Constant) and k.value.value is True
               for k in node.keywords):
            self.dense.append(where)
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


def test_only_field_reads_the_dense_gate():
    readers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "_DENSE_MAX") or (
                    isinstance(node, ast.Attribute) and node.attr == "_DENSE_MAX"):
                readers.add(path.name)
    assert readers == {"field.py"}
