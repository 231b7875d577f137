"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Array arguments have inconsistent shapes."""


class HermitianError(ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class DomainError(ValueError):
    """A scalar argument lies outside its admissible range."""
