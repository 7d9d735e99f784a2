"""Every metric the benchmark reports: name, unit, which way is better.

END_TO_END is measured with tracing off.  PER_LAYER comes from the traced
run: one traced operation, except ``bench.*`` which come from the traced
set-up.  BENCHMARK.json lists the same names; selfcheck.py checks that
they agree.

Which end-to-end metric each layer should move, written down before any
optimisation is measured.  For every layer one workload predicts a change
and one predicts none:

  expressions, filippov  run_s on bench-pipeline (small batches, per-call
                         overhead); evals_per_s on return-map-sweep much
                         less, as the n10000 micro-benchmarks predict;
                         none on fixture-ifs
  odeint                 run_s on bench-pipeline and evals_per_s on
                         return-map-sweep (every orbit ends in two
                         localized events); none on fixture-ifs
  returnmap              first_return.calls moves run_s on bench-pipeline
                         only (fewer boundary sweeps); return-map-sweep
                         always makes 2 calls: no change
  pipeline               the stage spans give the shares of run_s on
                         bench-pipeline
  bench                  setup_s on return-map-sweep and bench-pipeline;
                         none on fixture-ifs
  cifs                   run_s on fixture-ifs and pipeline.covers_s on
                         bench-pipeline; none on return-map-sweep
  oracle                 run_s on fixture-ifs (box_counting runs twice
                         per pipeline); none on return-map-sweep
"""

END_TO_END = (
    # name, unit, better, bound (share of the parent's median).  On a shared
    # 2-vCPU host the same operation drifted by up to 20 % between runs
    # minutes apart, so the timing bounds are the widest allowed.
    #   setup_s      median cold set-up of 3 fresh processes, imports included
    #   run_s        median wall time of one operation of the timed body
    #   evals_per_s  median over operations of evaluations / operation time:
    #                return-map evaluations of a point on return-map-sweep
    #                and fixture-ifs, whole pipeline runs on bench-pipeline
    #   peak_rss_mb  ru_maxrss of the measuring process
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("evals_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _group(unit, better, *names):
    return [(n, unit, better) for n in names]


PER_LAYER = tuple(
    _group("count", "lower",
           "expressions.field.calls", "expressions.field.rows",
           "expressions.grad.calls", "expressions.grad.rows")
    + _group("s", "lower", "expressions.field.s", "expressions.grad.s",
             "expressions.self_s")
    + _group("us", "lower", *[f"expressions.{k}_us.n{n}" for k in ("field", "grad")
                              for n in (1, 100, 10000)])
    + _group("count", "lower", "filippov.manifold_project.calls")
    + _group("s", "lower", "filippov.manifold_project.s", "filippov.self_s")
    + _group("us", "lower", *[f"filippov.sliding_field_us.n{n}" for n in (1, 100, 10000)])
    + _group("count", "lower", "odeint.calls", "odeint.rows", "odeint.row_steps",
             "odeint.rhs_calls", "odeint.rhs_rows", "odeint.event_calls",
             "odeint.event_rows", "odeint.project_calls", "odeint.project_rows",
             "odeint.status.event", "odeint.status.timeout",
             "odeint.status.domain_exit", "odeint.status.step_fail",
             "odeint.status.steps_exhausted")
    + _group("s", "lower", "odeint.s", "odeint.self_s", "odeint.rhs_s",
             "odeint.event_s", "odeint.project_s")
    + _group("ratio", "lower", "odeint.rhs_rows_per_row_step")
    + _group("count", "lower", "returnmap.first_return.calls",
             "returnmap.first_return.rows", "returnmap.inverse_map.calls")
    + _group("ratio", "higher", "returnmap.first_return.ok_frac")
    + _group("s", "lower", "returnmap.first_return.s", "returnmap.enumerate_branches.s",
             "returnmap.validate_inverse_maps.s", "returnmap.inverse_map.s",
             "returnmap.self_s")
    + _group("count", "lower", "pipeline.return_map.calls")
    + _group("s", "lower", "pipeline.certificate_s", "pipeline.branches_s",
             "pipeline.inverses_s", "pipeline.covers_s", "pipeline.oracle_s",
             "pipeline.self_s")
    + _group("s", "lower", "bench.make_bench.s", "bench.self_s")
    + _group("count", "lower", "bench.shooting.rows")
    + _group("s", "lower", "cifs.attractor_iterate.s", "cifs.closure_scaffold.s",
             "cifs.cantor_certify.s", "cifs.dimension_report.s",
             "cifs.check_conditions.s", "cifs.verify_forward_backward.s", "cifs.self_s")
    + _group("count", "lower", "cifs.attractor_iterate.intervals",
             "oracle.box_counting.calls")
    + _group("s", "lower", "oracle.box_counting.s", "oracle.sample_word_images.s",
             "oracle.crosscheck.s", "oracle.self_s")
    + _group("s", "lower", "trace.run_s", "trace.untraced_run_s", "trace.overhead_s")
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# Counts that must repeat exactly between two traced runs of one seed.
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit == "count")
