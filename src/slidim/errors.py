"""Exception hierarchy shared by all slidim modules.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse raises the usual ValueError/TypeError.
"""


class SlidimError(Exception):
    """Base class for all package-specific errors."""


# --- expression layer ------------------------------------------------------

class ExpressionSyntaxError(SlidimError, SyntaxError):
    """Malformed expression source; carries the byte offset of the error."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(SlidimError, NameError):
    """Identifier outside {x, y, z}, declared params and builtins."""

    def __init__(self, name, offset):
        super().__init__(f"unknown identifier {name!r} (offset {offset})")
        self.name = name
        self.offset = offset


class NonFinite(SlidimError):
    """Evaluation produced inf or nan."""


# --- piecewise-smooth dynamics ---------------------------------------------

class OffManifold(SlidimError):
    """Point is farther from the switching manifold than tol_manifold."""


class DenominatorVanishes(SlidimError):
    """Yg - Xg below tolerance: sliding combination undefined."""


class DegenerateTangency(SlidimError):
    """Second Lie derivative below tolerance; fold type undecidable."""


class NoConvergence(SlidimError):
    """Newton iteration failed to converge."""


class NotHyperbolic(SlidimError):
    """Real part of the leading eigenvalue pair below tolerance."""


class NoHit(SlidimError):
    """Flow reached t_max or left the domain without the requested event."""


class StepFailure(SlidimError):
    """Adaptive step-size control underflowed the minimal step."""


class LeftSlidingRegion(SlidimError):
    """Sliding integration left M^s other than through a tracked event."""


class NonUniqueForward(SlidimError):
    """Forward trajectory not unique (escaping region) and no policy given."""


# --- return map / connection ------------------------------------------------

class ConnectionResidualTooLarge(SlidimError):
    """|flow_X(q) - p| exceeds the connection tolerance."""


class BackwardDivergence(SlidimError):
    """Backward sliding flow from q does not decay toward p."""


class NotAFocus(SlidimError):
    """Pseudo-equilibrium is not a hyperbolic focus of the required kind."""


class FoldRegularityLost(SlidimError):
    """Fold-curve continuation met a non visible-fold-regular node."""


class CurveEscapesDomain(SlidimError):
    """Fold-curve continuation left the domain box."""


class HitOutsideSliding(SlidimError):
    """Flight landed outside the closure of the sliding region."""


class SectionMiss(SlidimError):
    """Sliding orbit left the sliding region without crossing the section."""


class BranchResolutionExceeded(SlidimError):
    """Branch width at the noise floor set by residual/event tolerances."""


class NoValidCutoff(SlidimError):
    """No index from which all branches are surjective with summable tail."""


# --- contraction systems -----------------------------------------------------

class ConditionViolated(SlidimError):
    """A conformality condition failed; carries the id and a witness."""

    def __init__(self, condition, witness, message=""):
        super().__init__(f"{condition} violated: {message or witness!r}")
        self.condition = condition
        self.witness = witness


class DegenerateSystem(SlidimError):
    """A contraction carries a zero lower derivative bound."""


class InsufficientMaps(SlidimError):
    """Operation needs at least two maps."""


class NonMonotone(SlidimError):
    """Internal consistency failure: truncation bounds decreased."""


class TailDiverges(SlidimError):
    """Analytic tail with ratio >= 1; geometric sums undefined."""


class NoRootInUnitInterval(SlidimError):
    """Pressure at t=1 not below 1; the index cutoff must grow."""


class ParameterInfeasible(SlidimError):
    """Requested model parameters admit no disjoint image layout."""


class EquivalenceFailure(SlidimError):
    """Forward-iteration membership disagrees with the cover prediction."""


class CertificateFailure(SlidimError):
    """A clause of the Cantor-structure certificate failed."""

    def __init__(self, clause, message):
        super().__init__(f"clause {clause}: {message}")
        self.clause = clause


class DegenerateFit(SlidimError):
    """Box-count regression below the R^2 threshold."""


class InsufficientData(SlidimError, ValueError):
    """Too few points or scale decades for a fit, or too few distinct cover
    levels for the Cantor certificate (a tower cut short by its budget)."""


# --- front end ----------------------------------------------------------------

class ConfigError(SlidimError):
    """Invalid run configuration; message names the offending field."""
