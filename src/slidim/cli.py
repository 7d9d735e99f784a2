"""Batch front end: classification, simulation, return-map and dimension runs.

One command per process; outputs are machine-readable (CSV with 17
significant digits, JSON reports with sorted keys) and written atomically,
so identical configurations reproduce bit-identical files.

Exit codes: 0 success (and verdict PASS where one exists), 1 configuration
error, 2 dynamics error, 3 oracle verdict FAIL.
"""

import argparse
import json
import os
import sys as _sys

import numpy as np

from . import cifs, pipeline, returnmap
from .errors import ConfigError, SlidimError
from .filippov import EscapePolicy, filippov_trajectory, region_grid
from .runconfig import bench_config, load_config


# --- serialization helpers --------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _atomic_write(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path, obj):
    _atomic_write(path, json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append("%.17g" % float(v))
        lines.append(",".join(cells))
    _atomic_write(path, "\n".join(lines) + "\n")


def _covers_rows(covers):
    rows = []
    for cover in covers:
        for lo, hi in cover.intervals:
            rows.append((lo, hi, cover.level))
    return rows


# --- command implementations ---------------------------------------------------------


def cmd_classify(cfg, system, out, args):
    nx = ny = args.grid
    lo, hi = system.domain
    xr = np.linspace(args.range[0], args.range[1], nx)
    yr = np.linspace(args.range[2], args.range[3], ny)
    rows = []
    zline = np.linspace(lo[2], hi[2], 257)
    for x in xr:
        pts = np.stack([np.full_like(zline, x),
                        np.zeros_like(zline), zline], axis=1)
        for y in yr:
            pts[:, 1] = y
            gv = system.g(pts)
            sign_change = np.nonzero(gv[:-1] * gv[1:] < 0)[0]
            roots = [zline[j] - gv[j] * (zline[j + 1] - zline[j]) / (gv[j + 1] - gv[j])
                     for j in sign_change]
            exact = np.nonzero(np.abs(gv) < 1e-14)[0]
            roots.extend(zline[exact])
            for z in sorted(set(np.round(roots, 12))):
                u = _manifold_refine(system, np.array([x, y, z]))
                labels, xg, yg = region_grid(system, u[None, :])
                rows.append((x, y, labels[0].value, float(xg[0]), float(yg[0])))
    _write_csv(os.path.join(out, "classify.csv"),
               ["x", "y", "label", "Xg", "Yg"], rows)
    return 0


def _manifold_refine(system, u):
    from .filippov import manifold_project
    return manifold_project(system.g, u, 4)


def cmd_simulate(cfg, system, out, args):
    u0 = np.asarray(args.u0, dtype=float)
    policy = {"x": EscapePolicy.FOLLOW_X, "y": EscapePolicy.FOLLOW_Y,
              "slide": EscapePolicy.FOLLOW_SLIDING}.get(args.policy)
    segments = filippov_trajectory(system, u0, args.T, escaping_policy=policy)
    rows = []
    for seg in segments:
        for t, u in seg.samples:
            rows.append((t, u[0], u[1], u[2], seg.mode.value))
    _write_csv(os.path.join(out, "trajectory.csv"),
               ["t", "x", "y", "z", "mode"], rows)
    return 0


def cmd_return_map(cfg, system, out, args):
    cert = returnmap.verify_connection(system, cfg.p_seed, cfg.q_seed)
    fold = returnmap.build_fold_segment(system, cert.q, cfg.radius)
    branches = returnmap.enumerate_branches(system, fold, cert, cfg.i_max,
                                            n_scan=cfg.n_scan)
    rows = [(b.side, b.index, b.interval[0], b.interval[1], b.deriv_lo,
             b.deriv_hi, int(b.surjective), b.raw_turns) for b in branches]
    _write_csv(os.path.join(out, "branches.csv"),
               ["side", "index", "lo", "hi", "deriv_lo", "deriv_hi",
                "surjective", "turns"], rows)
    sample_rows = []
    for b in branches:
        for w, piv, dpi in zip(b.samples_w, b.samples_pi, b.samples_dpi):
            sample_rows.append((f"{b.side}{b.index}", w, piv, dpi))
    _write_csv(os.path.join(out, "return_map_samples.csv"),
               ["branch", "w", "pi", "abs_dpi"], sample_rows)
    _write_json(os.path.join(out, "certificate.json"), _cert_dict(cert))
    return 0


def _cert_dict(cert):
    return {
        "p": cert.p, "q": cert.q, "t_q": cert.t_q, "residual": cert.residual,
        "lambda_hat": cert.lambda_hat, "lambda_decay": cert.lambda_decay,
        "eigenvalues": [[z.real, z.imag] for z in cert.eigenvalues],
        "backward_decay": cert.backward_decay,
    }


def _fixture_system(args):
    if args.model == "middle-thirds":
        return cifs.middle_thirds()
    if args.model == "geometric":
        return cifs.make_geometric_model(args.a, args.lam, args.imin,
                                         args.imax_model)
    raise ConfigError(f"unknown model {args.model!r}")


def _verdict_dict(v):
    return {"passed": v.passed, "box_slope": v.box_slope, "bracket": list(v.bracket),
            "band": v.band, "decay_ok": v.decay_ok,
            "max_decay_ratio": v.max_decay_ratio, "margins": v.margins}


def _report_dict(rep):
    return {"moran_lower": rep.moran_lower, "moran_upper": rep.moran_upper,
            "pressure_root": rep.pressure_root, "capped": rep.capped,
            "truncation_schedule": [[int(n), s] for n, s in rep.truncation_schedule]}


def _cantor_dict(cert):
    return {"passed": cert.passed, "depth": cert.depth, "clauses": cert.clauses}


def _run_pipeline(cfg, system, **depths):
    return pipeline.run_dimension_pipeline(
        system, cfg.p_seed, cfg.q_seed, radius=cfg.radius, i_max=cfg.i_max,
        n_scan=cfg.n_scan, schedule=cfg.schedule, **depths)


def cmd_dimension(cfg, system, out, args):
    if args.model:
        depth = 12 if args.depth is None else args.depth
        res = pipeline.run_fixture_pipeline(_fixture_system(args),
                                            cover_depth=depth, box_depth=depth)
        doc = {"version": 1, "kind": "dimension-fixture", "model": args.model,
               "sum_c": res.sum_c}
    else:
        res = _run_pipeline(cfg, system, cantor_depth=cfg.depth)
        doc = {
            "version": 1, "kind": "dimension",
            "seed": cfg.seed,
            "system": {"X": cfg.x_src, "Y": cfg.y_src, "g": cfg.g_src,
                       "params": cfg.params},
            "certificate": _cert_dict(res.cert),
            "lambda_estimates": res.lambda_estimates,
            "i_min": res.i_min, "a_hat": res.a_hat,
            "branches": [{"side": b.side, "index": b.index,
                          "lo": b.interval[0], "hi": b.interval[1],
                          "deriv_lo": b.deriv_lo, "deriv_hi": b.deriv_hi,
                          "surjective": b.surjective} for b in res.branches],
            "roundtrip_max": float(res.roundtrip.max()),
            "decay_cap": res.sum_c,
        }
        print("verdict:", "PASS" if res.verdict.passed else "FAIL",
              "timings:", {k: round(v, 1) for k, v in res.timings.items()},
              file=_sys.stderr)
    doc.update({
        "report": _report_dict(res.report),
        "cantor": _cantor_dict(res.cantor),
        "box": {"slope": res.verdict.box_slope,
                "r_squared": res.verdict.margins["r_squared"]},
        "verdict": _verdict_dict(res.verdict),
        "cover_lengths": [c.total_length for c in res.covers],
    })
    _write_json(os.path.join(out, "report.json"), doc)
    _write_csv(os.path.join(out, "covers.csv"), ["lo", "hi", "level"],
               _covers_rows(res.covers))
    return 0 if res.verdict.passed else 3


def cmd_attractor(cfg, system, out, args):
    if args.model:
        depth = 12 if args.depth is None else args.depth
        ifs = _fixture_system(args)
        covers = [cifs.attractor_iterate(ifs, j) for j in range(1, depth + 1)]
        scaffold, cantor = pipeline.certify_cantor(ifs, covers, depth)
    else:
        # the dimension run, checks included, at cover and certificate depth
        depth = cfg.depth
        res = _run_pipeline(cfg, system, cover_depth=depth, cantor_depth=depth)
        covers, scaffold, cantor = res.covers[:depth], res.scaffold, res.cantor
    _write_csv(os.path.join(out, "covers.csv"), ["lo", "hi", "level"],
               _covers_rows(covers))
    _write_csv(os.path.join(out, "scaffold.csv"), ["coordinate", "word_length"],
               list(zip(scaffold.points, scaffold.word_lengths)))
    doc = _cantor_dict(cantor)
    doc["truncated"] = bool(any(c.truncated for c in covers) or scaffold.truncated)
    _write_json(os.path.join(out, "certificate.json"), doc)
    return 0


def cmd_model(cfg, system, out, args):
    ifs = _fixture_system(args)
    s, t = cifs.moran_bounds(ifs)
    doc = {
        "version": 1, "kind": "model", "model": args.model,
        "maps": [{"tag": m.tag, "image": list(m.image), "b": m.b, "c": m.c}
                 for m in ifs.maps],
        "moran": {"s": s, "t": t},
        "tail": None if ifs.tail is None else {
            "a": ifs.tail.a, "lam": ifs.tail.lam, "i_start": ifs.tail.i_start},
    }
    if ifs.tail is not None or len(ifs.maps) > 1:
        doc["pressure_root"] = cifs.pressure_root(ifs)
    _write_json(os.path.join(out, "model.json"), doc)
    return 0


# --- argument parsing -------------------------------------------------------------------


def _parse_u0(text):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("u0 needs 3 comma-separated values")
    return parts


def _parse_range(text):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("range needs x0,x1,y0,y1")
    return parts


def build_parser():
    ap = argparse.ArgumentParser(
        prog="slidim",
        description="sliding-dynamics return maps and attractor dimension")
    ap.add_argument("--config", help="run configuration JSON")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="random seed override")
    ap.add_argument("--tol-event", type=float, default=None)
    ap.add_argument("--radius", type=float, default=None)
    ap.add_argument("--imax", type=int, default=None)
    ap.add_argument("--depth", type=int, default=None)
    ap.add_argument("--policy", choices=["x", "y", "slide"], default=None)
    ap.add_argument("--scan", type=int, default=None, help="branch scan points")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="grid classification of the manifold")
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--range", type=_parse_range, default=[-2.0, 2.0, -2.0, 2.0])

    p = sub.add_parser("simulate", help="one concatenated trajectory")
    p.add_argument("--u0", type=_parse_u0, required=True)
    p.add_argument("--T", type=float, default=10.0)

    sub.add_parser("return-map", help="branch family of the first return map")

    for name in ("dimension", "attractor", "model"):
        p = sub.add_parser(name)
        p.add_argument("--model", choices=["geometric", "middle-thirds"],
                       default=None if name != "model" else "geometric")
        p.add_argument("--lambda", dest="lam", type=float, default=4.0)
        p.add_argument("--a", type=float, default=1.0)
        p.add_argument("--imin", type=int, default=1)
        p.add_argument("--imax-model", type=int, default=1)
    return ap


_COMMANDS = {
    "classify": cmd_classify,
    "simulate": cmd_simulate,
    "return-map": cmd_return_map,
    "dimension": cmd_dimension,
    "attractor": cmd_attractor,
    "model": cmd_model,
}


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        needs_system = args.command in ("classify", "simulate", "return-map") or \
            (args.command in ("dimension", "attractor") and not getattr(args, "model", None))
        cfg = None
        system = None
        if args.config:
            cfg = load_config(args.config)
        elif needs_system:
            cfg = bench_config()
        if cfg is not None:
            if args.radius is not None:
                cfg.radius = args.radius
            if args.imax is not None:
                cfg.i_max = args.imax
            if args.depth is not None:
                cfg.depth = args.depth
            if args.seed is not None:
                cfg.seed = args.seed
            if args.tol_event is not None:
                cfg.tolerances = cfg.tolerances.updated(event=args.tol_event)
            if args.scan is not None:
                cfg.n_scan = args.scan
            cfg.__post_init__()
            system = cfg.build_system()
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, system, args.out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 1
    except SlidimError as exc:
        print(f"dynamics error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
