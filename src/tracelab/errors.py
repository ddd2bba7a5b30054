"""Exception types shared across the package."""


class TracelabError(Exception):
    """Base class for all package-specific errors."""


# -- linear-algebra layer -------------------------------------------------

class NotSymmetric(TracelabError):
    """A matrix required to be symmetric is not (beyond tolerance)."""


class NotPositiveDefinite(TracelabError):
    """A Gram matrix has a non-positive eigenvalue (Cholesky failed)."""


class DimensionMismatch(TracelabError):
    """Shapes or space dimensions are inconsistent."""


class NotSelfAdjoint(TracelabError):
    """An operator required to be self-adjoint in its space is not."""


class NegativeEigenvalue(TracelabError):
    """A fractional power was requested of an operator with negative spectrum."""


class RangeNotContained(TracelabError):
    """Range inclusion required by a factorization does not hold numerically."""


class NoConvergence(TracelabError):
    """A kernel used up its sweep budget before meeting its convergence test.

    ``sweeps`` is the number of sweeps run and ``off_norm`` the off-diagonal
    Frobenius norm left at the end: of the rotated matrix for an eigensolve,
    of the Gram matrix of the rotated columns for an SVD.  For
    ``extreme_eigh`` they are the Cholesky shifts tried and the width of the
    bracket left.
    """

    def __init__(self, kernel: str, sweeps: int, off_norm: float) -> None:
        super().__init__(f"{kernel} did not converge in {sweeps} sweeps (off-diagonal norm {off_norm:.3e})")
        self.kernel = kernel
        self.sweeps = sweeps
        self.off_norm = off_norm


class NonFiniteInput(TracelabError):
    """A kernel or solver received NaN or infinite input."""


# -- mesh / assembly layer -------------------------------------------------

class BadParameter(TracelabError):
    """Invalid mesh kind or refinement, or a negative sample count of a suite."""


class DegenerateElement(TracelabError):
    """An element with non-positive measure was produced."""


class GramNotPD(TracelabError):
    """An assembled Gram matrix failed the positive-definiteness check."""


# -- solver / suite layer ---------------------------------------------------

class SolveFailure(TracelabError):
    """A direct linear solve could not be completed."""


class NotHarmonic(TracelabError):
    """Input vector fails the interior-residual gate for boundary-flux extraction."""


class OrderOutOfRange(TracelabError):
    """Smoothness order outside the supported interval."""


class ZeroVector(TracelabError):
    """An operation requiring a nonzero vector received (numerically) zero."""


class NonFiniteResidual(TracelabError):
    """A suite cell measured a residual that is NaN, infinite or negative."""


# -- cli layer ---------------------------------------------------------------

class ConfigParseError(TracelabError):
    """Run configuration file or flags could not be parsed or validated."""
