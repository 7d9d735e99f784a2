"""Layering: every flow of the package is assembled in one place.

An orbit is an X-flight to M (``filippov.fly``) and a sliding flow on M
(``filippov.slide``).  Only those two helpers and the bench's shooting
(``bench._landings``, which flies the states (x, y, z, u1, u2) of its own
field and domain, the controls constant components) may call the
integrator, so a change to how flows are built (events, projection,
winding frame, tolerances, domain) is made once.
Likewise only event localization (``odeint._localize``) calls the Illinois
solver: branch boundaries come from the inverse-branch series, not from a
second root solve on the return map.  And only the branch enumeration
integrates at the tightened tolerances (``returnmap.precise``): its one
precise sweep also holds the held-out round-trip nodes.

The package has no linter, so an import left behind by a deletion is
caught here: every name a module imports must be used in it.  Likewise
every public top-level function, and every public method and property of
a class, must have a caller outside the tests, unless it is an oracle or
a fixture the tests check the package against, and each keyword option of
a function (a parameter with a default) must be passed by some caller
outside the tests, unless it is a seam the tests need: an option that no
caller sets is a module constant.
"""

import ast
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "slidim"

ALLOWED = {"filippov.fly", "filippov.slide", "bench._landings"}

# imported but not used: perfbench/tracing.py wraps this name in every module that imports it
UNUSED_IMPORTS_ALLOWED = {"returnmap.manifold_project"}

# public functions that only the tests call, each with its reason
TEST_ONLY_ALLOWED = {
    "filippov.lie_derivative": "oracle of the sliding kernel's Lie derivatives",
    "cifs.equal_ratio_system": "analytic fixture with a closed-form Moran root",
}

# keyword options of public functions that only the tests pass, each with its reason
OPTION_TEST_ONLY_ALLOWED = {
    "cifs.cover_tower(budget)": "a small budget cuts a cover tower short",
    "cifs.cantor_certify(q_coord)": "a scaffold of a marked point other than 0",
    "cli.main(argv)": "the tests run the front end in-process",
    "oracle.box_counting(scales)": "a scale grid too narrow to fit",
    "oracle.box_counting(r2_floor)": "the fit of a sample whose R^2 is below the floor",
    "returnmap.enumerate_branches(n_samples)": "short sweeps on a synthetic return map",
    "returnmap.select_u(a_hat)": "the index cutoff at a given tail constant",
}


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


def test_flows_pass_the_steppers_of_compiled_fields(monkeypatch):
    # no lambda is handed to the integrator: fly, slide (both signs) and the
    # bench shooting each pass the Stepper of one compiled field, and slide
    # projects through manifold_project itself
    from slidim import bench, expressions, filippov, odeint

    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None)
                    == "integrate_batch"):
                values = node.args + [k.value for k in node.keywords]
                assert not any(isinstance(v, ast.Lambda) for v in values), path.stem
    seen = []

    def record(step, u0, *args, **kwargs):
        seen.append((step, kwargs.get("project")))
        return odeint.BatchResult(u0)

    monkeypatch.setattr(odeint, "integrate_batch", record)
    sys = filippov.make_system(bench.BENCH_X, bench.BENCH_Y, bench.BENCH_G,
                               params={"al": 0.4, "be": 1.0, "u1": 0.0, "u2": 0.0})
    u0 = np.zeros((1, 3))
    filippov.fly(sys, sys.X, u0, 1.0)
    filippov.slide(sys, u0, 1.0)
    filippov.slide(sys, u0, 1.0, sign=-1.0)
    shooting = bench._shooting_field(0.4, 1.0)
    bench._landings(shooting, np.zeros((1, 2)), sys.tol)
    steps = [step for step, _ in seen]
    assert all(isinstance(step, odeint.Stepper) for step in steps)
    assert [step.field for step in steps] == [sys.X, sys.sliding, sys.backward_sliding,
                                              shooting]
    assert all(isinstance(step.field, expressions.VectorFieldExpr) for step in steps)
    projections = [project for _, project in seen]
    assert projections[0] is None and projections[3] is None
    for project in projections[1:3]:
        assert project.func is filippov.manifold_project
        assert project.args == (sys.g,) and project.keywords == {"iterations": 1}


def test_flow_callables_get_contiguous_coordinate_columns(monkeypatch):
    # the integrator keeps its states as one (m, n) component array: the
    # step, the projection and the events of every flow (the Illinois
    # probes included) get its (n, m) transpose, whose columns are
    # contiguous; m is the flow's own width, 5 for the bench shooting
    from slidim import bench, filippov, odeint

    integrate_batch = odeint.integrate_batch
    layouts = []

    def checked(fn, m):
        def call(u, *rest):
            layouts.append(u.ndim == 2 and u.shape[1] == m
                           and all(u[:, j].flags.c_contiguous for j in range(m)))
            return fn(u, *rest)
        return call

    def record(step, u0, t_max, events=(), project=None, **kwargs):
        m = len(step.field.variables)
        widths.add(m)
        events = [odeint.EventSpec(checked(ev.fn, m), ev.direction, ev.require_departure)
                  for ev in events]
        return integrate_batch(checked(step, m), u0, t_max, events,
                               project=None if project is None else checked(project, m),
                               **kwargs)

    widths = set()
    monkeypatch.setattr(odeint, "integrate_batch", record)
    sys = filippov.make_system(bench.BENCH_X, bench.BENCH_Y, bench.BENCH_G,
                               domain=bench.BENCH_DOMAIN,
                               params={"al": 0.4, "be": 1.0, "u1": 0.0, "u2": 0.0})
    above = np.array([[1.0, 0.0, 0.2], [0.8, 0.3, 0.4], [0.5, -0.2, 0.3]])
    landed = filippov.fly(sys, sys.X, above, 20.0)
    assert (landed.status == odeint.EVENT).all()
    sliding = np.array([[0.6, 0.1, 0.0], [0.9, -0.1, 0.0], [0.3, 0.4, 0.0]])
    exits = filippov.slide(sys, sliding, 50.0, filippov.fold_events(sys),
                           center=np.zeros(3))
    assert (exits.status == odeint.EVENT).all()
    filippov.slide(sys, sliding, 1.0, sign=-1.0)
    bench._landings(bench._shooting_field(0.4, 1.0), np.zeros((3, 2)), sys.tol)
    assert len(layouts) > 100 and all(layouts)
    assert widths == {3, 5}


def test_the_step_has_one_tableau_and_no_tensor_contraction():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    # DOP853's 8th-order weight b_1, 5th-order error weight E5_1 and a_{9,6}
    for coefficient in ("5.42937341165687622380535766363e-2",
                        "0.1312004499419488073250102996e-1",
                        "2.75920996994467083049415600797e1"):
        assert sum(text.count(coefficient) for text in sources.values()) == 1, coefficient
    assert "tensordot" not in sources["odeint"]


def test_illinois_is_called_only_by_event_localization():
    callers = _callers("illinois")
    assert callers == ["odeint._localize"], callers


def test_precise_is_called_only_by_the_branch_enumeration():
    callers = _callers("precise")
    assert callers == ["returnmap.enumerate_branches"], callers


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


def _names_by_scope(path):
    """Names a file refers to (names, attributes, and strings, which is how
    perfbench patches a function), per top-level def and per method
    (``Class.method``); key None: the rest."""
    scopes = {}

    def collect(key, node):
        names = scopes.setdefault(key, set())
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.add(sub.value)

    for top in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(top, ast.FunctionDef):
            collect(top.name, top)
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    collect(f"{top.name}.{node.name}", node)
                else:
                    collect(None, node)
            for node in top.decorator_list + top.bases + top.keywords:
                collect(None, node)
        else:
            collect(None, top)
    return scopes


def test_every_public_function_has_a_caller_outside_the_tests():
    # module functions, and the methods and properties of the package's
    # classes (dunders aside), which are found by attribute name
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    others = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    scopes = {path: _names_by_scope(path) for path in modules + others}
    test_only = set()
    for home in modules:
        for key in scopes[home]:
            name = None if key is None else key.rpartition(".")[2]
            if name is None or name.startswith("_"):
                continue
            # a function's own body does not count as its caller
            if not any(name in names for path, by_def in scopes.items()
                       for other, names in by_def.items() if (path, other) != (home, key)):
                test_only.add(f"{home.stem}.{key}")
    assert test_only == set(TEST_ONLY_ALLOWED), test_only


class _Enclosed(ast.NodeVisitor):
    """Every call, with its innermost enclosing function (None at the top)."""

    def __init__(self):
        self.stack = [None]
        self.calls = []

    def visit_FunctionDef(self, node):
        self.stack.append(node)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        self.calls.append((node, self.stack[-1]))
        self.generic_visit(node)


def _passed_arguments():
    """By callee name, the keywords and positions that some call in src/,
    perfbench/ or demos/ passes; a keyword that reaches the callee through a
    ``**kwargs`` parameter of the calling function counts too."""
    paths = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
             + sorted((ROOT / "demos").glob("*.py")))
    calls = []
    for path in paths:
        visitor = _Enclosed()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        calls.extend(visitor.calls)

    def callee(call):
        fn = call.func
        return fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)

    passed = defaultdict(set)
    for call, _ in calls:
        if not any(isinstance(a, ast.Starred) for a in call.args):
            passed[callee(call)].update(range(len(call.args)))
        passed[callee(call)].update(k.arg for k in call.keywords if k.arg is not None)
    for call, outer in calls:
        spread = {k.value.id for k in call.keywords
                  if k.arg is None and isinstance(k.value, ast.Name)}
        if outer is not None and outer.args.kwarg is not None and outer.args.kwarg.arg in spread:
            passed[callee(call)].update(n for n in passed[outer.name] if isinstance(n, str))
    return passed


def test_every_keyword_option_is_passed_outside_the_tests():
    passed = _passed_arguments()
    unpassed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(top, ast.FunctionDef) or top.name.startswith("_"):
                continue
            args = top.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            options = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
            options += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                        if d is not None]
            for i, name in options:
                if not passed[top.name] & {i, name}:
                    unpassed.add(f"{path.stem}.{top.name}({name})")
    assert unpassed == set(OPTION_TEST_ONLY_ALLOWED), unpassed
