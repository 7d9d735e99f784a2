"""Numeric tolerances shared across the package.

Defaults follow the package-wide policy: tight integration control
(rtol 1e-10 / atol 1e-12) because spiral accumulation near the focus makes
event geometry delicate, and event localization down to 1e-12.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    event: float = 1e-12        # |g| at localized events
    manifold: float = 1e-10     # allowed drift from g = 0
    tangency: float = 1e-9      # Lie-derivative magnitude treated as zero
    connection: float = 1e-8    # allowed |flow_X(q) - p|
    hyperbolic: float = 1e-8    # minimal |Re eigenvalue| for hyperbolicity
    rtol: float = 1e-10
    atol: float = 1e-12
