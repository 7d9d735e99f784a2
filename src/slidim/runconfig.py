"""Run configuration for the batch front end.

A single versioned JSON document describes the system, the connection
seeds, the analysis knobs and tolerance overrides; every field is
validated with a path-qualified diagnostic, and an unknown key is refused.
"""

import json
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import bench
from .config import Tolerances
from .errors import ConfigError, SlidimError
from .filippov import make_system

SCHEMA_VERSION = 1
_TOLERANCE_FIELDS = ("event", "manifold", "tangency", "rtol", "atol")
# the keys of each object; no command draws random numbers, so an old
# config's top-level seed is read and ignored
_KEYS = {
    "document": ("version", "seed", "system", "connection", "analysis", "tolerances"),
    "system": ("X", "Y", "g", "params"),
    "connection": ("p_seed", "q_seed"),
    "analysis": ("r", "i_max", "depth", "n_scan"),
    "tolerances": _TOLERANCE_FIELDS,
}


@dataclass
class RunConfig:
    x_src: str
    y_src: str
    g_src: str
    params: dict
    p_seed: np.ndarray
    q_seed: np.ndarray
    radius: float = 0.25
    i_max: int = 3
    depth: int = 6
    n_scan: int = 3000
    tolerances: Tolerances = field(default_factory=Tolerances)
    domain: tuple = None

    def __post_init__(self):
        if not 0 < self.radius < np.inf:
            raise ConfigError("analysis.r must be positive and finite")
        if self.i_max < 1:
            raise ConfigError("analysis.i_max must be >= 1")
        if self.depth < 1:
            raise ConfigError("analysis.depth must be >= 1")
        if self.n_scan < 2:
            raise ConfigError("analysis.n_scan must be >= 2")
        for name in _TOLERANCE_FIELDS:
            if not 0 < getattr(self.tolerances, name) < np.inf:
                raise ConfigError(f"tolerances.{name} must be positive and finite")

    def build_system(self):
        try:
            return make_system(self.x_src, self.y_src, self.g_src,
                               params=self.params, domain=self.domain,
                               tol=self.tolerances)
        except SlidimError as exc:
            raise ConfigError(f"system: {exc}") from exc


def bench_config():
    """The built-in reference configuration (connection closed by shooting)."""
    b = bench.make_bench()
    return RunConfig(
        x_src=bench.BENCH_X, y_src=bench.BENCH_Y, g_src=bench.BENCH_G,
        params=dict(b.system.params),
        p_seed=b.p_seed, q_seed=b.q_seed,
        tolerances=b.system.tol, domain=bench.BENCH_DOMAIN,
    )


def _need(doc, key, path):
    if key not in doc:
        raise ConfigError(f"missing field {path}.{key}")
    return doc[key]


def _typed(value, path, types=(int, float), what="a number"):
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{path} must be {what}")
    # an exact comparison: false for NaN, +-inf and integers beyond the float range
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path} must be a finite number")
    return value


def _section(value, path):
    """``value`` as an object whose keys are all known at ``path``."""
    for key in _typed(value, path, dict, "an object"):
        if key not in _KEYS[path]:
            raise ConfigError(f"unknown field {path}.{key}")
    return value


def _point(value, path):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path} must be a 3-vector of numbers") from exc
    if arr.shape != (3,):
        raise ConfigError(f"{path} must have exactly 3 components")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{path} must have finite components")
    return arr


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_config(doc)


def parse_config(doc):
    if _section(doc, "document").get("version") != SCHEMA_VERSION:
        raise ConfigError(f"version must be {SCHEMA_VERSION}")
    system, conn = (_section(_need(doc, key, "document"), key)
                    for key in ("system", "connection"))
    analysis, tols = (_section(doc.get(key, {}), key) for key in ("analysis", "tolerances"))
    params = {k: float(_typed(v, f"system.params.{k}")) for k, v in
              _typed(system.get("params", {}), "system.params", dict, "an object").items()}
    tol = replace(Tolerances(), **{name: float(_typed(tols[name], f"tolerances.{name}"))
                                   for name in _TOLERANCE_FIELDS if name in tols})
    kwargs = {key: _typed(analysis[key], f"analysis.{key}", int, "an integer")
              for key in ("i_max", "depth", "n_scan") if key in analysis}
    if "r" in analysis:
        kwargs["radius"] = float(_typed(analysis["r"], "analysis.r"))
    return RunConfig(
        x_src=_typed(_need(system, "X", "system"), "system.X", str, "a string"),
        y_src=_typed(_need(system, "Y", "system"), "system.Y", str, "a string"),
        g_src=_typed(_need(system, "g", "system"), "system.g", str, "a string"),
        params=params,
        p_seed=_point(_need(conn, "p_seed", "connection"), "connection.p_seed"),
        q_seed=_point(_need(conn, "q_seed", "connection"), "connection.q_seed"),
        tolerances=tol,
        **kwargs,
    )
