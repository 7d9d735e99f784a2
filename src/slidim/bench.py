"""SSC-bench: a reference system with an exactly linear sliding focus.

On the switching manifold z = 0 the upper field is

    X|_M = (al*x - be*y,  be*x + al*y,  x - 1),     Y = (0, 0, 1),  g = z,

so the sliding region is {x < 1}, the fold line of X is {x = 1, z = 0}, and
the sliding field is (al*x - be*y, be*x + al*y, 0)/(2 - x): its orbits are
the exact spirals of the linear unstable focus with eigenvalue pair
(al + i be)/2 at the origin p.  Closed forms used as oracles elsewhere:

    per-turn focus rate   lambda = exp(2 pi al / be)
    orbit radius law      rho(theta) = rho0 * exp((al/be)(theta - theta0))

Off the manifold, X blends (via rho(z) = tanh(z/h)) into a rigid rotation
of the (x, z) plane about (1/2, 0), which carries flights leaving the fold
over a clean arch that descends near the origin; the blend vanishes at
z = 0 together with the control terms u1*s(z), u2*s(z), s(z) = z*exp(-z),
so nothing on the manifold changes.  The pair (u1, u2) is found by a
2-parameter shooting so that the X-flight from q = (1, 0, 0) first returns
to z = 0 exactly at p, closing the loop: backward sliding from q spirals
into p, the flight from q lands on p.  The arch makes the flight family
from the whole fold segment land diffeomorphically on a curve through p,
which is what the return-map construction needs.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import odeint
from .config import Tolerances
from .errors import NoConvergence
from .expressions import parse_field
from .filippov import FilippovSystem, fly, make_system

ARC_RATE = 2.0     # rotation rate of the off-manifold (x, z) arc
BLEND_INV = 50.0   # 1/h of the tanh(z/h) blend layer

BENCH_X = (
    "(al*x - be*y)*(1 - tanh({binv}*z)) - {om}*z*tanh({binv}*z) + u1*(z*exp(-z)), "
    "(be*x + al*y)*(1 - tanh({binv}*z)) + u2*(z*exp(-z)), "
    "(x - 1)*(1 - tanh({binv}*z)) + {om}*(x - 0.5)*tanh({binv}*z)"
).format(om=ARC_RATE, binv=BLEND_INV)
BENCH_Y = "0, 0, 1"
BENCH_G = "z"
BENCH_DOMAIN = (np.full(3, -40.0), np.full(3, 40.0))
_SHOOTING_DOMAIN = (np.append(BENCH_DOMAIN[0], [-np.inf, -np.inf]),
                    np.append(BENCH_DOMAIN[1], [np.inf, np.inf]))

_Q = np.array([1.0, 0.0, 0.0])
SHOOTING_TARGET = 1e-10   # landing distance from p at which the shooting may stop


@dataclass
class BenchConnection:
    system: FilippovSystem
    alpha: float
    beta: float
    u1: float
    u2: float
    t_q: float
    residual: float

    @property
    def p_seed(self):
        return np.zeros(3)

    @property
    def q_seed(self):
        return _Q.copy()


def _shooting_field(alpha, beta):
    """BENCH_X over the states (x, y, z, u1, u2), the controls constant."""
    field = parse_field(BENCH_X, {"al": alpha, "be": beta, "u1": 0.0, "u2": 0.0})
    return field.with_constants(("u1", "u2"))


def _landings(field, pairs, tol):
    """First z = 0 return of the flight from q for each (u1, u2) row, on
    the shooting field."""
    pairs = np.asarray(pairs, dtype=float)
    u0 = np.column_stack([np.tile(_Q, (len(pairs), 1)), pairs])
    ev = odeint.EventSpec(lambda pts: pts[:, 2])
    res = odeint.integrate_batch(odeint.Stepper(field), u0, 40.0, [ev], rtol=tol.rtol,
                                 atol=tol.atol, tol_event=tol.event,
                                 domain=_SHOOTING_DOMAIN)
    ok = res.status == odeint.EVENT
    return res.u[:, :2], ok, res.t


def solve_connection_params(alpha=0.4, beta=1.0):
    """Find (u1, u2) landing the flight from q on the origin.

    Deterministic damped finite-difference Newton from (0, 0); a stall (a
    probe flight that does not land, a singular Jacobian, or 40 steps short
    of ``SHOOTING_TARGET``) raises NoConvergence.  Once the landing is
    within ``SHOOTING_TARGET``, Newton goes on while each step at least
    halves it and returns the last point that did: the root of the landing
    map to its rounding floor (about 1e-15), whatever path Newton took.
    The landing is insensitive to one direction in (u1, u2) (smaller
    singular value about 3.5e-4), so the first point within the target is
    fixed only to about 1e-9, by the path.  The root does not depend on
    the path, but it is the root of the landing map integrated at the
    default tolerances, so it carries the tableau's truncation error:
    u1 = -98.72275981668264 with a Dormand-Prince 5(4) pair and
    -98.72275993175184 with DOP853, against -98.72275993178165 at rtol
    1e-13.
    """
    tol = Tolerances()
    field = _shooting_field(alpha, beta)
    delta = 1e-6
    v = np.zeros(2)
    best = None
    for _ in range(40):
        probes = np.array([v,
                           v + [delta, 0], v - [delta, 0],
                           v + [0, delta], v - [0, delta]])
        land, ok, ts = _landings(field, probes, tol)
        if not ok[0]:
            break
        rnorm = np.hypot(land[0, 0], land[0, 1])
        if best is not None and best[3] < SHOOTING_TARGET and not rnorm < best[3] / 2:
            return best
        if best is None or rnorm < best[3]:
            best = (float(v[0]), float(v[1]), float(ts[0]), float(rnorm))
        jac = np.column_stack([(land[1] - land[2]) / (2 * delta),
                               (land[3] - land[4]) / (2 * delta)])
        try:
            step = np.linalg.solve(jac, -land[0])
        except np.linalg.LinAlgError:
            break
        size = np.linalg.norm(step)
        if size > 30.0:
            step *= 30.0 / size
        v = v + step
    if best is not None and best[3] < SHOOTING_TARGET:
        return best
    raise NoConvergence("connection shooting from (0, 0) stalled short of the target")


@lru_cache(maxsize=8)
def _cached_params(alpha, beta):
    return solve_connection_params(alpha, beta)


def make_bench(alpha=0.4, beta=1.0):
    """Build the bench system with its connection closed by shooting.

    The final residual is re-verified through the parsed production system,
    not just the internal shooting path.
    """
    u1, u2, _, _ = _cached_params(float(alpha), float(beta))
    system = make_system(BENCH_X, BENCH_Y, BENCH_G,
                         params={"al": alpha, "be": beta, "u1": u1, "u2": u2},
                         domain=BENCH_DOMAIN)
    res = fly(system, system.X, _Q[None, :], 40.0)
    if res.status[0] != odeint.EVENT:
        raise NoConvergence("verification flight lost the manifold return")
    residual = float(np.linalg.norm(res.u[0]))
    t_q = float(res.t[0])
    if residual > 100 * SHOOTING_TARGET:
        raise NoConvergence(f"parsed-system verification residual {residual:.3e}")
    return BenchConnection(system, alpha, beta, u1, u2, t_q, residual)
