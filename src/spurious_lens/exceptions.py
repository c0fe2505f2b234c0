"""Exception hierarchy for spurious-lens.

Every numerical precondition failure, and every result that fails the check
certifying it, raises a subclass of :class:`SpuriousLensError` so callers
(and the CLI) can map failures to stable exit codes.
"""


class SpuriousLensError(Exception):
    """Base class for all spurious-lens errors."""


class RankDeficientError(SpuriousLensError):
    """A design matrix does not have the rank the operation requires."""


class InconsistentSystemError(SpuriousLensError):
    """A linear system that must be solved exactly has no solution."""


class InconsistentConstraintsError(InconsistentSystemError):
    """Pseudo-label constraints cannot be interpolated together with the labels."""


class DimensionMismatchError(SpuriousLensError):
    """Vector/matrix dimensions do not agree."""


class NonPositiveGammaError(SpuriousLensError):
    """The perturbation-radius bound must be a positive finite number."""


class NonOrthogonalGroupsError(SpuriousLensError):
    """The two group designs must span mutually orthogonal row spaces."""


class ParallelParametersError(SpuriousLensError):
    """The target and spurious parameter vectors are scalar multiples."""


class ParallelTargetsError(SpuriousLensError):
    """The observed targets and spurious values are scalar multiples."""


class DimensionTooSmallError(SpuriousLensError):
    """The ambient dimension (or sample count) is too small for the construction."""


class SingularGramError(SpuriousLensError):
    """X'X is singular, so the least-squares bias formula is undefined."""


class SignAssumptionError(SpuriousLensError):
    """The decision rule is only derived for lambda'gamma + beta > 0."""


class EmptyGroupError(SpuriousLensError):
    """No sampled point fell inside the requested group."""


class SamplerExhaustedError(SpuriousLensError, RuntimeError):
    """A rejection sampler ran out of attempts before drawing enough samples."""


class VerificationError(SpuriousLensError):
    """A computed result failed the check that certifies it."""
