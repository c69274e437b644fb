"""Exception types shared across the library."""


class MagnitudeError(Exception):
    """Base class for all library errors."""


class NonFinite(MagnitudeError):
    """A coordinate or derived value is NaN or infinite."""


class DuplicatePoints(MagnitudeError):
    """Two points coincide within the duplicate tolerance.

    Duplicate points make the similarity matrix numerically singular, so
    they are rejected instead of silently deduplicated. ``rows`` holds the
    later index of every pair closer than the tolerance.
    """

    def __init__(self, message: str, rows: tuple = ()):
        super().__init__(message)
        self.rows = rows


class FactorizationFailure(MagnitudeError):
    """Cholesky factorization of a similarity (sub)matrix broke down."""


class NonRepresentable(MagnitudeError):
    """A value cannot be mapped through log(1 + x) because x <= -1."""


class OverlapAmbiguity(MagnitudeError):
    """Points of two clouds nearly coincide but are not exactly equal."""


class QuadratureDivergence(MagnitudeError):
    """Doubling the quadrature order changed the result beyond tolerance."""


class InvalidSpec(MagnitudeError):
    """A dataset or experiment specification is malformed."""
