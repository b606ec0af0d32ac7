"""Exception types shared across the package."""


class MinsosError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedDegree(MinsosError):
    """A sampler cannot draw an instance of the requested degree or shape."""


class NotAScroll(MinsosError):
    """Operation defined only for rational normal scrolls."""


class DegreeMismatch(MinsosError):
    """Degree, bidegree or divisibility pattern of a form is violated."""


class ZeroDenominator(MinsosError):
    """A {"num", "den"} coefficient of an input file has den = 0."""


class NotAQuadraticForm(MinsosError):
    """Form is not a quadratic form on the given surface."""


class DimensionMismatch(MinsosError):
    """Vector or matrix dimensions do not match the expected size."""


class NonSymmetric(MinsosError):
    """Matrix is not symmetric (or not real where required)."""


class NotInFiber(MinsosError):
    """Matrix does not satisfy m^T G m = f within tolerance."""


class RankTooLarge(MinsosError):
    """Requested rank bound admits no nontrivial minor system."""


class SystemTooLarge(MinsosError):
    """The start system has too many paths to track in one batch."""


class PathFailureBudgetExceeded(MinsosError):
    """More than the allowed fraction of homotopy paths failed."""

    def __init__(self, failed, total, message=None):
        self.failed = failed
        self.total = total
        super().__init__(
            message
            or "%d of %d paths failed without diverging; re-run with a new seed"
            % (failed, total)
        )


class OddDiagonalDegree(MinsosError):
    """A diagonal entry of a matrix polynomial has odd degree."""


class OffDiagonalDegreeMismatch(MinsosError):
    """A zero diagonal entry in a row with a nonzero entry."""


class IterationBudgetExceeded(MinsosError):
    """Alternating projections or the Douglas-Rachford fallback found no
    psd fiber point within their iteration budget."""

    def __init__(self, iterations, gap, message=None):
        self.iterations = iterations
        self.gap = gap
        super().__init__(
            message
            or "no PSD fiber point found after %d iterations (final gap %.3e)"
            % (iterations, gap)
        )


class StuckAboveTarget(MinsosError):
    """Rank reduction found no fiber point L L^T with L of the target width.

    achieved is the rank of the psd point that rank reduction started from.
    """

    def __init__(self, achieved, target, message=None):
        self.achieved = achieved
        self.target = target
        super().__init__(
            message
            or "rank reduction stalled at rank %d (target %d)" % (achieved, target)
        )


class NotPSD(MinsosError):
    """Matrix polynomial is not positive semidefinite; carries a witness."""

    def __init__(self, witness=None, message=None):
        self.witness = witness
        super().__init__(message or "matrix polynomial is not PSD at %r" % (witness,))


class NotNonnegative(MinsosError):
    """Binary form takes negative values on the real line."""


class ApexCoefficientNotPositive(MinsosError):
    """Quadratic form on a cone has a nonpositive apex coefficient."""
