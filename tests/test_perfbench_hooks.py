"""The benchmark's tracer wraps package names by attribute lookup.

If a refactor deletes or renames one of them, ``instrument`` fails on
entry; this test makes that failure show in the suite rather than only
when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import numpy as np

from slidim import cifs, expressions, filippov, pipeline, returnmap

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_and_restores_every_traced_name():
    tracing = _load_tracing()
    before = (expressions.VectorFieldExpr.__dict__["__call__"],
              expressions.SwitchingFunction.__dict__["value_and_gradient"],
              filippov.manifold_project, returnmap.manifold_project,
              returnmap.build_fold_segment)
    system = filippov.make_system("-y, x, x - 1", "0, 0, 1", "z")
    pts = np.array([[0.2, 0.1, 0.0], [0.3, -0.1, 0.0]])
    with tracing.instrument(tracing.Tracer()) as tracer:
        system.X(pts)
        filippov.sliding_field(system, pts)
        filippov.manifold_project(system.g, pts)
        system.g.value_and_gradient(pts)
    # X, then the sliding field's own kernel; the projection runs its
    # compiled Newton step, not the gradient
    assert tracer.calls["expressions.field"] == 2
    assert tracer.calls["filippov.manifold_project"] == 1
    assert tracer.count["expressions.grad.rows"] == 2
    after = (expressions.VectorFieldExpr.__dict__["__call__"],
             expressions.SwitchingFunction.__dict__["value_and_gradient"],
             filippov.manifold_project, returnmap.manifold_project,
             returnmap.build_fold_segment)
    assert after == before


def test_traced_covers_stage_sees_each_level_built():
    tracing = _load_tracing()
    ifs = cifs.make_geometric_model(1.0, 4.0, 2, 3)
    with tracing.instrument(tracing.Tracer()) as tracer:
        res = pipeline.run_fixture_pipeline(ifs, cover_depth=4, box_depth=6)
    # level 1 is the declared images; each deeper level is one step
    assert tracer.calls["cifs.attractor_iterate"] == len(res.covers) - 1 == 3
    assert tracer.count["cifs.attractor_iterate.intervals"] == \
        sum(len(c.intervals) for c in res.covers[1:])


def test_micro_benchmarks_run_on_the_bench_field():
    out = _load_tracing().micro_benchmarks(0)
    assert set(out) == {f"{layer}_us.n{n}" for n in (1, 100, 10000)
                        for layer in ("expressions.field", "expressions.grad",
                                      "filippov.sliding_field")}
    assert all(v > 0 for v in out.values())
