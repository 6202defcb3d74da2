"""Exception types shared across the package."""


class MdpError(Exception):
    """Base class for all package-specific errors."""


class InvalidPolicyError(MdpError, ValueError):
    """A policy references a SAP that does not exist or belongs to another state."""


class EnumerationTooLargeError(MdpError):
    """The deterministic policy space exceeds the enumeration cap."""


class NonFiniteRewardError(MdpError, ValueError):
    """A SAP reward is NaN or infinite where a solve needs finite rewards."""


class NotUnichainError(MdpError):
    """An operation that needs a single closed irreducible class got a multichain kernel."""


class NotPrimitiveError(MdpError):
    """The kernel is reducible or periodic, or no power within the Wielandt bound is positive."""


class CriterionMismatchError(MdpError):
    """A discounted-only operation was called at gamma = 1, or vice versa."""


class AssumptionViolatedError(MdpError):
    """A diagnostic required by the contraction analysis failed.

    ``diagnostic`` names the failed check ("uniqueness", "unichain" or
    "aperiodicity").
    """

    def __init__(self, diagnostic: str, message: str = ""):
        self.diagnostic = diagnostic
        super().__init__(message or f"assumption violated: {diagnostic}")


class NumericalCheckError(MdpError):
    """A computed result failed a runtime numerical check.

    Raised when a solution's residual exceeds its bound, or when an
    iteration that must terminate does not.
    """


class SingularMatrixError(MdpError):
    """A dense factorization hit a pivot below the relative threshold."""


class ModelFormatError(MdpError, ValueError):
    """A model document is syntactically or structurally malformed."""


class UnsupportedVersionError(ModelFormatError):
    """The document's schema_version is not supported."""


class ValidationFailedError(ModelFormatError):
    """A parsed model violates the data-model invariants.

    ``violations`` holds the full report from ``validate_model``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
