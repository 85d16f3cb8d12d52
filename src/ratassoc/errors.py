"""Exception types shared across the package."""

from __future__ import annotations


class RatAssocError(Exception):
    """Base class for all errors raised by this package.

    ``witness``, when given, is the offending object (a face mask or a
    face), so a caller can name it in its own terms.
    """

    def __init__(self, message: str = "", witness=None):
        super().__init__(message)
        self.witness = witness


class NotCoprimeError(RatAssocError, ValueError):
    """The slope pair (a, b) is not coprime."""


class BadOrderError(RatAssocError, ValueError):
    """The slope pair (a, b) does not satisfy 0 < a < b."""


class CapExceededError(RatAssocError):
    """An enumeration or materialization would exceed a configured cap."""


class NotAFaceOfHatError(RatAssocError, ValueError):
    """Input diagonal set has crossings or inadmissible members."""


class NotAFaceError(RatAssocError, ValueError):
    """A face argument is not a face of the given complex."""


class NotConeVertexError(RatAssocError):
    """The claimed cone vertex fails its defining condition.

    ``witness`` is a face F' containing the base face such that
    F' + {c} is not in the complex.
    """


class ScheduleFailedError(RatAssocError):
    """The collapse schedule diverged from its expected structure.

    Carries the stage coordinates ``(r, q)`` and the violating face, if any,
    written as diagonals; a terminal mismatch has no stage and carries the
    first face that differs.
    """

    def __init__(self, message: str, r=None, q=None, face=None):
        super().__init__(message)
        self.r = r
        self.q = q
        self.face = face


class MalformedCertificateError(RatAssocError, ValueError):
    """A certificate document does not follow the certificate schema."""


class AdmissibilityViolatedError(RatAssocError):
    """A diagonal guaranteed admissible by a structural result is not.

    Always indicates an internal inconsistency, never bad user input.
    """


class NonIntegralError(RatAssocError):
    """A closed-form count failed its exact divisibility requirement."""


class InvariantViolationError(RatAssocError):
    """A runtime-checked structural invariant failed (internal error)."""
