"""Layering: every flow of the package is assembled in one place.

An orbit is an X-flight to M (``filippov.fly``) and a sliding flow on M
(``filippov.slide``).  Only those two helpers and the bench's per-row
shooting (``bench._landings``, whose field takes the shooting parameters
row by row) may call the integrator, so a change to how flows are built
(events, projection, winding frame, tolerances, domain) is made once.
Likewise only event localization (``odeint._localize``) calls the Illinois
solver: branch boundaries come from the inverse-branch series, not from a
second root solve on the return map.

The package has no linter, so an import left behind by a deletion is
caught here: every name a module imports must be used in it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "slidim"

ALLOWED = {"filippov.fly", "filippov.slide", "bench._landings"}

# imported but not used: perfbench/tracing.py wraps this name in every module that imports it
UNUSED_IMPORTS_ALLOWED = {"returnmap.manifold_project"}


class _Calls(ast.NodeVisitor):
    """Each call of ``callee``, named by its innermost enclosing function."""

    def __init__(self, module, callee):
        self.stack = [module]
        self.callee = callee
        self.callers = []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
        if name == self.callee:
            self.callers.append(f"{self.stack[0]}.{self.stack[-1]}")
        self.generic_visit(node)


def _callers(callee):
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Calls(path.stem, callee)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        callers.extend(visitor.callers)
    return callers


def test_integrate_batch_is_called_only_by_the_flow_helpers():
    callers = _callers("integrate_batch")
    assert sorted(callers) == sorted(ALLOWED), callers


def test_illinois_is_called_only_by_event_localization():
    callers = _callers("illinois")
    assert callers == ["odeint._localize"], callers


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {f"{path.stem}.{name}" for name in imported - used}


def test_every_imported_name_is_used():
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            unused |= _unused_imports(path)
    assert unused == UNUSED_IMPORTS_ALLOWED
