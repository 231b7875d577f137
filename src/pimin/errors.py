"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Array arguments have inconsistent shapes."""


class HermitianError(ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class DomainError(ValueError):
    """A scalar argument lies outside its admissible range."""


class DegenerateInputError(ValueError):
    """An input makes the requested quantity undefined (e.g. zero denominator)."""


class DegenerateStepError(RuntimeError):
    """A retraction step landed on a zero entry; the caller should shrink the step."""
