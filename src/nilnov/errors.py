"""Exception hierarchy shared by all nilnov modules."""


class NilnovError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(NilnovError):
    """Malformed input text; carries a line number when available."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownGenerator(ParseError):
    pass


class AdaptationError(ParseError):
    """A conjugation relation's tail lives at too shallow a level."""


class MismatchedGroup(NilnovError):
    pass


class MismatchedField(NilnovError):
    pass


class MismatchedCharacter(NilnovError):
    pass


class Infeasible(NilnovError):
    """A strict-inequality system has no solution."""


class NoStrictMinimum(NilnovError):
    """The minimal degree tuple of a support is attained more than once."""


class TruncationInsufficient(NilnovError):
    """m_max was exhausted before the residual cleared the frontier."""


class CertificateFailure(TruncationInsufficient):
    """An internally computed inverse failed its residual check."""


class IncompatibleCharacter(NilnovError):
    """A multicharacter is not compatible with an iterated fraction."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class UnsupportedFraction(NilnovError):
    """Expression shape outside the supported fraction calculus."""


class ZeroInverse(NilnovError):
    """An expression asks for the inverse of zero."""


class RelatorNotKilled(NilnovError):
    """A claimed quotient map does not kill some relator."""


class ClassUnsupported(NilnovError):
    """Nilpotency class out of the supported range."""


class DimensionMismatch(NilnovError):
    pass


class InconsistentReport(NilnovError):
    """A rank report contradicts the Euler characteristic of its complex."""
