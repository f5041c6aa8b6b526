"""Library-specific error types."""


class SingularPrecisionError(Exception):
    """Posterior precision matrix is numerically singular (degenerate prior + data)."""


class DegenerateLikelihoodError(Exception):
    """All likelihood weights underflowed to zero, even after log-scale factoring."""


class UnsupportedModelError(TypeError):
    """Operation does not apply to the given model, posterior or threat model."""


class NonFiniteGradientError(RuntimeError):
    """A gradient estimate came back NaN/inf; carries the iterate for diagnosis."""

    def __init__(self, message, iteration=None, x=None):
        super().__init__(message)
        self.iteration = iteration
        self.x = x
