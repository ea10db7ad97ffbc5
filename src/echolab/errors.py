"""Exception types shared across the library."""


class EcholabError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatchError(EcholabError):
    """Shapes of interacting objects are inconsistent."""


class IntegrationDivergedError(EcholabError):
    """A trajectory left the finite range during iteration."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"state diverged at step {step}")


class DegenerateMatrixError(EcholabError):
    """A matrix cannot be rescaled or factored as requested."""


class SeriesDivergentError(EcholabError):
    """A matrix power series does not converge (spectral radius >= 1)."""


class SpectrumCollisionError(EcholabError):
    """A requested resolvent is singular because an eigenvalue collides."""


class SingularProblemError(EcholabError):
    """An unregularised least squares problem is rank deficient."""


class ContractionBoundError(EcholabError):
    """A constant learning rate violates its contraction precondition."""


class NonErgodicError(EcholabError):
    """A Markov chain has no unique stationary distribution."""


class NewtonConvergenceError(EcholabError):
    """Newton iteration failed to reach the requested residual."""

    def __init__(self, residual: float, iterations: int, message: str = ""):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            message
            or f"no convergence after {iterations} iterations, residual {residual:.3e}"
        )


class NearNeutralFixedPointError(EcholabError):
    """The Newton linear system (J - I) is numerically singular."""


class DegenerateJacobianError(EcholabError):
    """A Jacobian along the orbit produced a zero or non-finite QR diagonal."""


class FiltrationOrderError(EcholabError):
    """A filtration was not sorted before persistence reduction."""


class DegenerateCloudError(EcholabError):
    """A point cloud has no extent (all points coincide)."""


class AdmissibilityError(EcholabError):
    """A reward or process violated its boundedness assumption."""
