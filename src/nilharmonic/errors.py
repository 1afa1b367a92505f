"""Exception hierarchy shared by all nilharmonic modules."""


class NilharmonicError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(NilharmonicError, ValueError):
    """Bad input: malformed config, invalid measure, dimension mismatch."""


class InvariantFailure(NilharmonicError, RuntimeError):
    """A checked mathematical invariant did not hold."""


class InternalInconsistency(NilharmonicError, RuntimeError):
    """A computation produced a state that should be impossible.

    Raised e.g. when a linear system that is guaranteed solvable turns out
    inconsistent, or when a group law is not affine in the coordinates that
    translation substitutes.
    """
