"""Run configuration for the batch front end.

A single versioned JSON document describes the system, the connection
seeds, the analysis knobs and tolerance overrides; every field is
validated with a path-qualified diagnostic.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import bench
from .config import Tolerances
from .errors import ConfigError, SlidimError
from .filippov import make_system

SCHEMA_VERSION = 1
_TOLERANCE_FIELDS = ("event", "manifold", "tangency", "rtol", "atol")


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
    n_scan: int = 20000
    schedule: list = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    seed: int = 0
    domain: tuple = None

    def __post_init__(self):
        if self.radius <= 0:
            raise ConfigError("analysis.r must be positive")
        if self.i_max < 1:
            raise ConfigError("analysis.i_max must be >= 1")
        if self.depth < 1:
            raise ConfigError("analysis.depth must be >= 1")
        for name in _TOLERANCE_FIELDS:
            if getattr(self.tolerances, name) <= 0:
                raise ConfigError(f"tolerances.{name} must be positive")

    def build_system(self):
        try:
            return make_system(self.x_src, self.y_src, self.g_src,
                               params=self.params, domain=self.domain,
                               tol=self.tolerances)
        except SlidimError as exc:
            raise ConfigError(f"system: {exc}") from exc


def bench_config(tol=None):
    """The built-in reference configuration (connection closed by shooting)."""
    b = bench.make_bench(tol=tol)
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


def _point(value, path):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path} must be a 3-vector of numbers") from exc
    if arr.shape != (3,):
        raise ConfigError(f"{path} must have exactly 3 components")
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
    if doc.get("version") != SCHEMA_VERSION:
        raise ConfigError(f"version must be {SCHEMA_VERSION}")
    system = _need(doc, "system", "document")
    conn = _need(doc, "connection", "document")
    analysis = doc.get("analysis", {})
    tols = doc.get("tolerances", {})
    params = system.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("system.params must be an object")
    for k, v in params.items():
        if not isinstance(v, (int, float)):
            raise ConfigError(f"system.params.{k} must be a number")
    tol = Tolerances().updated(**{
        name: float(tols[name]) for name in _TOLERANCE_FIELDS if name in tols})
    kwargs = {}
    if "r" in analysis:
        kwargs["radius"] = float(analysis["r"])
    if "i_max" in analysis:
        kwargs["i_max"] = int(analysis["i_max"])
    if "depth" in analysis:
        kwargs["depth"] = int(analysis["depth"])
    if "schedule" in analysis:
        kwargs["schedule"] = [int(v) for v in analysis["schedule"]]
    if "n_scan" in analysis:
        kwargs["n_scan"] = int(analysis["n_scan"])
    return RunConfig(
        x_src=_need(system, "X", "system"),
        y_src=_need(system, "Y", "system"),
        g_src=_need(system, "g", "system"),
        params={k: float(v) for k, v in params.items()},
        p_seed=_point(_need(conn, "p_seed", "connection"), "connection.p_seed"),
        q_seed=_point(_need(conn, "q_seed", "connection"), "connection.q_seed"),
        tolerances=tol,
        seed=int(doc.get("seed", 0)),
        **kwargs,
    )
