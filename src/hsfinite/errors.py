"""Exception types shared across the package.

DomainError subclasses signal mathematically meaningful refusals (the CLI maps
them to exit code 3), ParseError covers malformed text input (exit code 2) and
SamplingFailed is the one retry-budget failure (exit code 4).  Every parser
reads its digit runs through ``parse_natural``, so only the ASCII digits 0-9
count, at most ``MAX_DIGITS`` of them, and none leaks a ValueError.
"""


class ParseError(ValueError):
    """Malformed polynomial, ideal file or sequence text."""


MAX_DIGITS = 4300


def parse_natural(digits: str, what: str) -> int:
    """int(digits) for a run of at most MAX_DIGITS ASCII digits 0-9, raising
    ParseError for any other text (signs, spaces, '_' and non-ASCII digits,
    all of which int() would take).  MAX_DIGITS, the interpreter's default
    int-string limit, holds also where ``PYTHONINTMAXSTRDIGITS=0`` lifts
    that limit; a lower one set in the interpreter refuses earlier, also as
    a ParseError, as the printer could not write such a number either."""
    if digits.isascii() and digits.isdigit() and len(digits) <= MAX_DIGITS:
        try:
            return int(digits)
        except ValueError:
            pass
    raise ParseError("cannot read %s as an integer (%d characters)"
                     % (what, len(digits)))


class InhomogeneousInput(ParseError):
    """Polynomial text whose terms do not share a single degree."""


class DomainError(Exception):
    """Base class for well-formed input that the mathematics rejects."""


class SingularChange(DomainError):
    """A 2x2 substitution matrix with zero determinant."""


class NotArtinian(DomainError):
    """Ideal of infinite colength (common factor and no truncation)."""


class EmptyComponent(DomainError):
    """Requested the common factor of a zero graded component."""


class PairingUndefined(DomainError):
    """Power pairing requested in a degree whose quotient is not a line."""


class InvalidSequence(DomainError):
    """Sequence fails the shape constraints for two degree-1 generators."""


class InvalidColength(DomainError):
    """Enumeration requested outside the admissible colengths."""


class NoCatalog(DomainError):
    """Normal forms requested for an infinite-type label."""


class InvalidParameters(DomainError):
    """Catalog label, sample count or sampled sequence with missing or
    out-of-range parameters, or one too long for the row-reduction limit."""


class InvalidPencil(DomainError):
    """Pencil discriminant needs two independent quadratics."""


class SamplingFailed(Exception):
    """Random ideal construction exhausted its retry budget."""

    def __init__(self, entries, retries):
        self.entries = tuple(entries)
        self.retries = retries
        super().__init__(
            "could not realize sequence %s after %d attempts" % (self.entries, retries)
        )
