"""End-to-end dimension pipeline for a system with a verified connection.

certificate -> fold segment -> branch family -> index cutoff -> inverse
contractions -> ``analyze_ifs``: Moran/pressure report -> covers, scaffold
and Cantor certificate -> box-counting cross-check.  Analytic fixtures
enter at ``analyze_ifs`` through ``run_fixture_pipeline``.  Each stage
output is kept on the result object so tests and the front end can
interrogate any of them.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import cifs, oracle, returnmap
from .errors import RoundTripExceeded


# Covers and the Cantor certificate run on the strongest contractions of
# each side: chains through the thinnest branches drop below float
# resolution within a few levels.
CERTIFIED_PER_SIDE = 2
BOX_DEPTH = 5             # word length of the bench pipeline's box-counting sample
ROUNDTRIP_BUDGET = 1e-9   # largest inverse-branch round trip |pi(psi(x)) - x|
LAMBDA_REL = 0.10         # largest relative spread of the lambda estimates
BAND = 0.03               # slack of the box slope around the Moran bracket


@dataclass
class IfsAnalysis:
    """The report, covers, certificate and cross-check of one contraction system."""

    ifs: cifs.IfsSystem
    report: cifs.DimensionReport
    covers: list
    scaffold: object
    cantor: cifs.CantorCertificate
    verdict: oracle.Verdict
    sum_c: float


@dataclass
class DimensionPipelineResult(IfsAnalysis):
    cert: object
    fold: object
    branches: list
    i_min: int
    a_hat: float
    lambda_estimates: dict
    roundtrip: np.ndarray
    timings: dict = field(default_factory=dict)


def certify_cantor(sys, covers, depth):
    """Scaffold of q = 0 to word length ``depth`` and the Cantor certificate
    on the first ``depth`` cover levels."""
    scaffold = cifs.closure_scaffold(sys, 0.0, depth)
    return scaffold, cifs.cantor_certify(covers[:depth], scaffold)


def analyze_ifs(ifs, certified, *, cover_depth, cantor_depth, box_depth):
    """Conditions and dimension report on ``ifs``; one cover tower, the
    scaffold and the Cantor certificate on ``certified``; then the
    box-counting cross-check against the first ``cover_depth`` levels.

    The certificate runs before the word sample is drawn, so a tower cut
    short by its interval budget fails before a sample of that size is built.
    """
    cifs.check_conditions(ifs)
    report = cifs.dimension_report(ifs)
    covers = cifs.cover_tower(certified, max(cover_depth, cantor_depth))
    scaffold, cantor = certify_cantor(certified, covers, cantor_depth)
    sample = oracle.sample_word_images(ifs, box_depth)
    sum_c = float(sum(m.c for m in certified.maps))
    verdict = oracle.crosscheck(report, sample, covers[:cover_depth],
                                band=BAND, decay_cap=sum_c + 1e-9)
    return IfsAnalysis(ifs, report, covers, scaffold, cantor, verdict, sum_c)


def _subsystem(ifs):
    """The strongest contractions of each side, as an IfsSystem."""
    chosen = []
    for side in ("L", "R"):
        side_maps = [m for m in ifs.maps if m.tag.startswith(side)]
        side_maps.sort(key=lambda m: -(m.image[1] - m.image[0]))
        chosen.extend(side_maps[:CERTIFIED_PER_SIDE])
    return cifs.IfsSystem(chosen)


def branch_ifs(branches, maps, lam, a_hat, i_tail_start):
    """Wrap inverse-branch realizations as a contraction system with tail."""
    cms = []
    for br, m in zip(branches, maps):
        cms.append(cifs.ContractionMap(
            eval=m, image=br.interval, b=br.deriv_lo, c=br.deriv_hi,
            deriv=m.deriv, tag=f"{br.side}{br.index}"))
    tail = cifs.TailModel(a=a_hat, lam=lam, i_start=i_tail_start)
    return cifs.IfsSystem(cms, tail)


def run_dimension_pipeline(system, p_seed, q_seed, *, radius=0.25, i_max=3,
                           n_scan=3000, cover_depth=8, cantor_depth=6):
    """Full analysis for one system; deterministic for fixed arguments."""
    timings = {}
    t0 = time.perf_counter()
    cert = returnmap.verify_connection(system, p_seed, q_seed)
    fold = returnmap.build_fold_segment(system, cert.q, radius)
    timings["certificate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    branches = returnmap.enumerate_branches(system, fold, cert, i_max, n_scan)
    timings["branches"] = time.perf_counter() - t0

    lam_width = returnmap.branch_width_lambda(branches)
    lambdas = {"eigenvalue": cert.lambda_hat, "backward_decay": cert.lambda_decay,
               "branch_widths": lam_width}
    returnmap.check_lambda_agreement(list(lambdas.values()), LAMBDA_REL)

    i_min, a_hat = returnmap.select_u(branches, cert.lambda_hat)
    selected = [b for b in branches if b.index >= i_min]

    t0 = time.perf_counter()
    inv_maps = returnmap.branch_contractions(selected)
    resid = returnmap.validate_inverse_maps(selected)
    worst = int(np.argmax(resid))
    if resid[worst] > ROUNDTRIP_BUDGET:
        b = selected[worst]
        raise RoundTripExceeded(
            f"{b.side}{b.index}: inverse-branch round trip {resid[worst]:.2e} "
            f"above {ROUNDTRIP_BUDGET:.0e}")
    timings["inverses"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ifs = branch_ifs(selected, inv_maps, cert.lambda_hat, a_hat, i_max + 1)
    analysis = analyze_ifs(ifs, _subsystem(ifs), cover_depth=cover_depth,
                           cantor_depth=cantor_depth, box_depth=BOX_DEPTH)
    timings["analysis"] = time.perf_counter() - t0
    return DimensionPipelineResult(
        **vars(analysis), cert=cert, fold=fold, branches=branches, i_min=i_min,
        a_hat=a_hat, lambda_estimates=lambdas, roundtrip=resid, timings=timings)


def return_map_fn(system, fold, cert):
    """Batched first-return callable with the (values, ok) contract: the
    values are NaN where ``ok`` is False."""
    t_slide_max = 12 * cert.flight_time_scale

    def pi(points):
        coord, _, ok = returnmap.first_return_batch(
            system, fold, np.asarray(points, dtype=float), cert.p, t_slide_max)
        return np.where(ok, coord, np.nan), ok

    return pi


def forward_backward_check(system, result, k=3, n_points=10000):
    """Criterion-style equivalence check on the pipeline's branch system."""
    pi = return_map_fn(system, result.fold, result.cert)
    return cifs.verify_forward_backward(pi, result.ifs, k, n_points=n_points)


def run_fixture_pipeline(ifs, *, cover_depth=12, box_depth=12):
    """The same analysis for an analytic system: every map is certified."""
    return analyze_ifs(ifs, ifs, cover_depth=cover_depth, cantor_depth=cover_depth,
                       box_depth=box_depth)
