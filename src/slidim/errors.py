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
    """A fold-section point is not visible fold-regular, or not found."""


class CurveEscapesDomain(SlidimError):
    """A fold-section point lies outside the domain box."""


class BranchResolutionExceeded(SlidimError):
    """Branch width at the noise floor set by residual/event tolerances."""


class NoValidCutoff(SlidimError):
    """No index from which all branches are surjective with summable tail."""


class LambdaDisagreement(SlidimError):
    """Independent estimates of the per-turn focus rate disagree."""


class RoundTripExceeded(SlidimError):
    """An inverse branch misses |pi(psi(x)) - x| <= the round-trip budget."""


# --- contraction systems -----------------------------------------------------

class ConditionViolated(SlidimError):
    """A conformality condition failed; carries the id and a witness."""

    def __init__(self, condition, witness, message=""):
        super().__init__(f"{condition} violated: {message or witness!r}")
        self.condition = condition
        self.witness = witness


class DegenerateSystem(SlidimError):
    """A contraction carries a zero lower derivative bound."""


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


class DegenerateFit(SlidimError):
    """Box-count regression below the R^2 threshold."""


class InsufficientData(SlidimError, ValueError):
    """Too few points or scale decades for a fit, too few cover levels for
    the Cantor certificate, or a cover tower or closure scaffold cut short
    by its budget."""


# --- front end ----------------------------------------------------------------

class ConfigError(SlidimError):
    """Invalid run configuration; message names the offending field."""
