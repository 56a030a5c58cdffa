"""Exception types shared across the package."""


class RevquadError(Exception):
    """Base class for every error raised by this library."""


class InvalidDomain(RevquadError):
    """A domain parameter (q, delta, sample count, ...) is outside its legal range."""


class OutOfDomain(RevquadError):
    """Evaluation was requested at |z| >= q."""


class NonPositiveProfile(RevquadError):
    """A profile value came out <= 0 somewhere it must be strictly positive."""


class ParseError(RevquadError):
    """Malformed profile spec text.  Carries the offending character position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ZeroSlope(RevquadError):
    """The operation needs a tilted plane (m > 0)."""


class LoopEscapesDomain(RevquadError):
    """The plane's cross-section does not close inside |z| < q."""


class NonSimpleSection(RevquadError):
    """The section gap dips negative between its outer roots; the cut is not a single loop."""


class DegenerateLoop(RevquadError):
    """Loop has zero total length, too few points, or a non-finite coordinate."""


class RankDeficient(RevquadError):
    """Not enough distinct abscissae to determine a quadratic."""


class SingularConfiguration(RevquadError):
    """The plane slope is asymptotic for this quadric; no center height exists."""


class SlabViolation(RevquadError):
    """A section that is guaranteed to stay inside its slab left it."""
