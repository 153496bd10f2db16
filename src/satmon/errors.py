"""Exception hierarchy shared by all satmon modules."""


class SatmonError(Exception):
    """Base class for all satmon errors."""


class ResourceLimitError(SatmonError):
    """A configured budget (nodes, cone work, face count) was exceeded.

    Distinct from a negative verdict: the computation was cut off, not decided.
    """

    def __init__(self, message, limit=None):
        super().__init__(message)
        self.limit = limit


class SchemaError(SatmonError):
    """A document failed validation; ``path`` points at the offending field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


class PreconditionError(SatmonError):
    """An operation was called outside its stated domain."""


class MembershipError(PreconditionError):
    """An element required to lie in a monoid/ideal does not."""


class InvalidFaceError(PreconditionError):
    """The supplied subset is not a face of the monoid."""


class NotHeightOneError(PreconditionError):
    """The quotient by the face is not isomorphic to the natural numbers."""


class TorsionPreconditionError(PreconditionError):
    """The groupification cokernel is not torsion."""


class CoprimalityError(PreconditionError):
    """An index shares a prime factor with the fixed prime set."""


class NotIntegralError(PreconditionError):
    """The homomorphism is not integral, but integrality was required."""


class NonDivisibleBaseError(PreconditionError):
    """The base valuative monoid must be divisible for this operation."""


class SearchFailureError(SatmonError):
    """Bounded search exhausted its candidates without a hit (reported, not silent)."""
