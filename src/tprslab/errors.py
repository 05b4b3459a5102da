"""Exception types shared across the package."""


class TprsError(Exception):
    """Base class for all package errors."""


class ValidationError(TprsError):
    """Malformed input data or parameters."""


class DimensionCapExceeded(TprsError):
    """A requested operator would exceed the configured dense-dimension cap."""


class DimensionMismatch(TprsError):
    """Two operators of unequal dimension were combined."""


class PartitionMismatch(TprsError):
    """A bipartition is inconsistent with the state it is applied to."""


class DomainCapExceeded(TprsError):
    """An explicit permutation table or a 2^n state vector would exceed the table-size cap."""


class BadSubsetExponent(TprsError):
    """Subset-size exponent incompatible with the qubit count."""


class CopyMismatch(TprsError):
    """Ensemble copy counts do not match a distinguisher's requirement."""


class ParameterOrderViolated(TprsError):
    """Bound parameters fall outside the validity window of the bound."""


class BoundDegenerate(TprsError):
    """Bound argument degenerate (logarithm of a value >= 1)."""


class UnsupportedGrowthClass(TprsError):
    """Growth class not handled by the requested rule or table."""


class UnrecognizedForm(TprsError):
    """Symbolic expression outside the recognized rule table."""


class NonEvaluable(TprsError):
    """Expression cannot be evaluated numerically."""
