"""Outside-in tracing of the slidim layers, and the layer micro-benchmarks.

Nothing in the package changes.  ``instrument(tracer)`` wraps each public
function at the name its callers look up, for the life of a ``with``
block, and restores the originals after it.  Module functions called as
``module.f`` are wrapped on that module; names another module bound at
import (``returnmap`` imports ``manifold_project`` from ``filippov``) are
wrapped in the importer too; methods are wrapped on their class.

The callables passed to ``odeint.integrate_batch`` (the right-hand side,
each event function and the projection) are wrapped in counting shims for
each call, and the returned BatchResult gives the row-steps and the status
histogram, so the integrator's work is counted from outside it.

Coarse calls (integrator batches, pipeline stages, cover levels) become
spans (name, start, end, parent).  Hot calls (field evaluations, RHS,
events: up to millions per operation) only add to a count and a time.
Both charge their duration to the enclosing call, so each layer's self time
is its calls' time minus the time of the calls they made.  A hot callable
passed in by a caller is charged to the module that defined it.
"""

import time
from collections import defaultdict

import numpy as np

from slidim import (bench, cifs, expressions, filippov, odeint, oracle,
                    pipeline, returnmap)

LAYERS = ("expressions", "filippov", "odeint", "returnmap", "bench", "cifs",
          "oracle", "pipeline")

_STATUS = {odeint.EVENT: "event", odeint.TIMEOUT: "timeout",
           odeint.DOMAIN_EXIT: "domain_exit", odeint.STEP_FAIL: "step_fail",
           odeint.STEPS_EXHAUSTED: "steps_exhausted"}


def _rows(u):
    shape = np.shape(u)
    return int(shape[0]) if len(shape) > 1 else 1


def _layer_of(fn):
    module = getattr(fn, "__module__", None) or ""
    name = module.rpartition(".")[2]
    return name if module.startswith("slidim.") and name in LAYERS else "other"


class Tracer:
    """Spans and counters of one traced scope; see the module docstring."""

    def __init__(self):
        self.spans = []                  # [name, start, end, parent index]
        self.calls = defaultdict(int)
        self.time = defaultdict(float)
        self.count = defaultdict(int)
        self.self_time = defaultdict(float)
        self.active = defaultdict(int)   # name -> frames open
        self._stack = []                 # [layer, child time, nearest span]

    def call(self, name, layer, fn, args, kwargs, span):
        stack = self._stack
        parent = stack[-1][2] if stack else -1
        if span:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        else:
            index = parent
        frame = [layer, 0.0, index]
        stack.append(frame)
        self.active[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.active[name] -= 1
            dur = t1 - t0
            self.self_time[layer] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            self.calls[name] += 1
            self.time[name] += dur
            if span:
                self.spans[index][1:3] = [t0, t1]

    def wrap(self, name, layer, fn, span=False):
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs, span)
        return traced

    def timed(self, name, layer, fn, *args):
        """A root span: everything under it is charged to some layer."""
        return self.call(name, layer, fn, args, {}, True)


class instrument:
    """Context manager wrapping every traced name; restores them on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr, name, layer, after=None):
        fn = owner.__dict__[attr]
        tr = self.tracer

        def traced(*args, **kwargs):
            out = tr.call(name, layer, fn, args, kwargs, True)
            if after is not None:
                after(args, kwargs, out)
            return out
        self._patch(owner, attr, traced)

    def _hot(self, owner, attr, name, layer, rows_arg=None):
        fn = owner.__dict__[attr]
        tr = self.tracer
        if rows_arg is None:
            self._patch(owner, attr, tr.wrap(name, layer, fn))
            return

        def traced(*args, **kwargs):
            tr.count[name + ".rows"] += _rows(args[rows_arg])
            return tr.call(name, layer, fn, args, kwargs, False)
        self._patch(owner, attr, traced)

    def __enter__(self):
        tr = self.tracer
        self._hot(expressions.VectorFieldExpr, "__call__", "expressions.field",
                  "expressions", rows_arg=1)
        self._hot(expressions.SwitchingFunction, "value_and_gradient",
                  "expressions.grad", "expressions", rows_arg=1)
        for owner in (filippov, returnmap):
            self._hot(owner, "manifold_project", "filippov.manifold_project", "filippov")
        self._patch(odeint, "integrate_batch", self._integrate_batch(odeint.integrate_batch))

        def first_return(args, kwargs, out):
            tr.count["returnmap.first_return.rows"] += int(np.size(out[2]))
            tr.count["returnmap.first_return.ok"] += int(np.count_nonzero(out[2]))
        self._span(returnmap, "first_return_batch", "returnmap.first_return",
                   "returnmap", first_return)
        for attr in ("verify_connection", "build_fold_segment", "enumerate_branches",
                     "branch_contractions", "validate_inverse_maps"):
            self._span(returnmap, attr, f"returnmap.{attr}", "returnmap")
        self._hot(returnmap.BranchInverseMap, "__call__", "returnmap.inverse_map",
                  "returnmap")

        def cover(args, kwargs, out):
            tr.count["cifs.attractor_iterate.intervals"] += int(out.intervals.shape[0])
        self._span(cifs, "attractor_iterate", "cifs.attractor_iterate", "cifs", cover)
        for attr in ("closure_scaffold", "cantor_certify", "dimension_report",
                     "check_conditions", "verify_forward_backward"):
            self._span(cifs, attr, f"cifs.{attr}", "cifs")
        for attr in ("box_counting", "sample_word_images", "crosscheck"):
            self._span(oracle, attr, f"oracle.{attr}", "oracle")
        for attr in ("run_dimension_pipeline", "run_fixture_pipeline"):
            self._span(pipeline, attr, f"pipeline.{attr}", "pipeline")
        self._patch(pipeline, "return_map_fn", self._return_map_fn(pipeline.return_map_fn))
        self._span(bench, "make_bench", "bench.make_bench", "bench")
        self._span(bench, "solve_connection_params", "bench.shooting", "bench")
        return tr

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _return_map_fn(self, original):
        tr = self.tracer

        def return_map_fn(*args, **kwargs):
            pi = original(*args, **kwargs)
            return tr.wrap("pipeline.return_map", "pipeline", pi, span=True)
        return return_map_fn

    def _integrate_batch(self, original):
        tr = self.tracer

        def shim(kind, fn):
            name = "odeint." + kind
            layer = _layer_of(fn)

            def counted(u, *rest):
                tr.count[name + "_rows"] += _rows(u)
                return tr.call(name, layer, fn, (u,) + rest, {}, False)
            return counted

        def integrate_batch(f, u0, t_max, events=(), **kwargs):
            events = [odeint.EventSpec(shim("event", ev.fn), ev.direction,
                                       ev.require_departure) for ev in events]
            if kwargs.get("project") is not None:
                kwargs["project"] = shim("project", kwargs["project"])
            res = tr.call("odeint.integrate_batch", "odeint", original,
                          (shim("rhs", f), u0, t_max, events), kwargs, True)
            n = _rows(u0)
            tr.count["odeint.rows"] += n
            tr.count["odeint.row_steps"] += int(res.steps.sum())
            for code, label in _STATUS.items():
                tr.count["odeint.status." + label] += int(np.count_nonzero(res.status == code))
            if tr.active["bench.shooting"]:
                tr.count["bench.shooting.rows"] += n
            return res
        return integrate_batch


def stage_times(tracer):
    """Pipeline stage spans: the direct children of a pipeline run, by stage."""
    stages = {
        "certificate": ("returnmap.verify_connection", "returnmap.build_fold_segment"),
        "branches": ("returnmap.enumerate_branches",),
        "inverses": ("returnmap.branch_contractions", "returnmap.validate_inverse_maps"),
        "covers": ("cifs.attractor_iterate", "cifs.closure_scaffold", "cifs.cantor_certify"),
        "oracle": ("oracle.sample_word_images", "oracle.box_counting", "oracle.crosscheck"),
    }
    roots = {i for i, s in enumerate(tracer.spans)
             if s[0] in ("pipeline.run_dimension_pipeline", "pipeline.run_fixture_pipeline")}
    out = dict.fromkeys(stages, 0.0)
    for name, start, end, parent in tracer.spans:
        if parent in roots:
            for stage, members in stages.items():
                if name in members:
                    out[stage] += end - start
    return out


def layer_metrics(body, setup):
    """Per-layer metrics of one traced operation (``body``) and of the
    traced set-up (``setup``: the bench.* metrics)."""
    c, t, n = body.count, body.time, body.calls
    m = {
        "expressions.field.calls": n["expressions.field"],
        "expressions.field.rows": c["expressions.field.rows"],
        "expressions.field.s": t["expressions.field"],
        "expressions.grad.calls": n["expressions.grad"],
        "expressions.grad.rows": c["expressions.grad.rows"],
        "expressions.grad.s": t["expressions.grad"],
        "filippov.manifold_project.calls": n["filippov.manifold_project"],
        "filippov.manifold_project.s": t["filippov.manifold_project"],
        "odeint.calls": n["odeint.integrate_batch"],
        "odeint.rows": c["odeint.rows"],
        "odeint.row_steps": c["odeint.row_steps"],
        "odeint.s": t["odeint.integrate_batch"],
    }
    for kind in ("rhs", "event", "project"):
        m[f"odeint.{kind}_calls"] = n["odeint." + kind]
        m[f"odeint.{kind}_rows"] = c[f"odeint.{kind}_rows"]
        m[f"odeint.{kind}_s"] = t["odeint." + kind]
    for label in _STATUS.values():
        m["odeint.status." + label] = c["odeint.status." + label]
    m["odeint.rhs_rows_per_row_step"] = (c["odeint.rhs_rows"] / c["odeint.row_steps"]
                                         if c["odeint.row_steps"] else 0.0)
    rows = c["returnmap.first_return.rows"]
    m.update({
        "returnmap.first_return.calls": n["returnmap.first_return"],
        "returnmap.first_return.rows": rows,
        "returnmap.first_return.s": t["returnmap.first_return"],
        "returnmap.first_return.ok_frac": c["returnmap.first_return.ok"] / rows if rows else 0.0,
        "returnmap.enumerate_branches.s": t["returnmap.enumerate_branches"],
        "returnmap.validate_inverse_maps.s": t["returnmap.validate_inverse_maps"],
        "returnmap.inverse_map.calls": n["returnmap.inverse_map"],
        "returnmap.inverse_map.s": t["returnmap.inverse_map"],
        "pipeline.return_map.calls": n["pipeline.return_map"],
    })
    for stage, seconds in stage_times(body).items():
        m[f"pipeline.{stage}_s"] = seconds
    m.update({
        "bench.make_bench.s": setup.time["bench.make_bench"],
        "bench.shooting.rows": setup.count["bench.shooting.rows"],
        "cifs.attractor_iterate.s": t["cifs.attractor_iterate"],
        "cifs.attractor_iterate.intervals": c["cifs.attractor_iterate.intervals"],
    })
    for attr in ("closure_scaffold", "cantor_certify", "dimension_report",
                 "check_conditions", "verify_forward_backward"):
        m[f"cifs.{attr}.s"] = t["cifs." + attr]
    m["oracle.box_counting.calls"] = n["oracle.box_counting"]
    for attr in ("box_counting", "sample_word_images", "crosscheck"):
        m[f"oracle.{attr}.s"] = t["oracle." + attr]
    for layer in LAYERS:
        src = setup if layer == "bench" else body
        m[f"{layer}.self_s"] = src.self_time[layer]
    return m


# --- layer micro-benchmarks ------------------------------------------------------

MICRO_SIZES = (1, 100, 10000)


def _per_call_us(fn, arg, budget=0.02, repeats=7):
    """Median over ``repeats`` blocks of the time per call, in microseconds."""
    fn(arg)
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(arg)
        if time.perf_counter() - t0 >= budget / 4 or reps >= 1 << 16:
            break
        reps *= 2
    blocks = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(arg)
        blocks.append((time.perf_counter() - t0) / reps)
    return float(np.median(blocks)) * 1e6


def micro_benchmarks(seed):
    """Field, switching-gradient and sliding-field calls at N = 1, 100, 10^4.

    The bench field is parsed with the connection controls at zero: the
    cost of an evaluation does not depend on their values, and no shooting
    is needed.  Points lie on M = {z = 0} inside the sliding region x < 1.
    """
    system = filippov.make_system(
        bench.BENCH_X, bench.BENCH_Y, bench.BENCH_G,
        params={"al": 0.4, "be": 1.0, "u1": 0.0, "u2": 0.0}, domain=bench.BENCH_DOMAIN)
    rng = np.random.default_rng([seed, 99])
    out = {}
    for n in MICRO_SIZES:
        u = np.column_stack([rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n),
                             np.zeros(n)])
        out[f"expressions.field_us.n{n}"] = _per_call_us(system.X, u)
        out[f"expressions.grad_us.n{n}"] = _per_call_us(system.g.value_and_gradient, u)
        out[f"filippov.sliding_field_us.n{n}"] = _per_call_us(
            lambda pts: filippov.sliding_field(system, pts), u)
    return out
