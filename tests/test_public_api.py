"""Every public name has a consumer.

A name in `kvedit.__all__` must be read somewhere in the package, the
demos or the acceptance suite. Its own def/class, imports and the
`__all__` list do not count, and neither do the unit tests, which would
keep any name alive.
"""

import ast
from pathlib import Path

import kvedit

ROOT = Path(__file__).resolve().parent.parent
SOURCES = (sorted((ROOT / "src" / "kvedit").glob("*.py"))
           + sorted((ROOT / "demos").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])


class _Loads(ast.NodeVisitor):
    """Names read as variables or attributes, outside a def of the same name."""

    def __init__(self):
        self.names: set[str] = set()
        self._defs: list[str] = []

    def _scope(self, node):
        self._defs.append(node.name)
        self.generic_visit(node)
        self._defs.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def _use(self, name):
        if name not in self._defs:
            self.names.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def test_every_public_name_has_a_consumer():
    loads = _Loads()
    for path in SOURCES:
        loads.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    unused = sorted(set(kvedit.__all__) - loads.names)
    assert not unused, f"public names without a consumer: {unused}"
