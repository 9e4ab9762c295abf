"""The integer-list printer against the ``Fraction`` printer it replaced.

``forms._format_list(p, den)`` prints the form with coefficients
p[i] / den, reducing each by a gcd.  The reference below is the printer
that read a form's ``Fraction`` coefficients; the two must agree on lists
with negative, zero and wide entries, over denominators that do and do not
reduce, and an ideal's text must read back as the same ideal.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hsfinite import GradedIdeal, format_ideal, parse_ideal_text
from hsfinite.forms import _format_list

EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True)


def reference_format(coeffs) -> str:
    """The canonical text of a tuple of ``Fraction`` coefficients, as the
    ``Fraction`` printer wrote it: "0" for the empty tuple, "" when every
    coefficient is zero."""
    if not coeffs:
        return "0"
    d = len(coeffs) - 1
    chunks = []
    for i in range(d, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        pieces = []
        mag = abs(c)
        j = d - i
        if mag != 1 or (i == 0 and j == 0):
            pieces.append(str(mag.numerator) if mag.denominator == 1
                          else "%d/%d" % (mag.numerator, mag.denominator))
        if i >= 1:
            pieces.append("x" if i == 1 else "x^%d" % i)
        if j >= 1:
            pieces.append("y" if j == 1 else "y^%d" % j)
        body = "*".join(pieces)
        if not chunks:
            chunks.append(body if c > 0 else "-" + body)
        else:
            chunks.append((" + " if c > 0 else " - ") + body)
    return "".join(chunks)


# small entries and denominators share factors often, so most coefficients
# reduce and some do not; zeros, +-den (printed as a bare monomial) and wide
# entries are drawn too
ENTRIES = st.one_of(st.integers(-12, 12), st.just(0), st.integers(-2 ** 80, 2 ** 80))
DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(1, 2 ** 70))


@st.composite
def integer_lists(draw, min_size=1):
    """(p, den): an integer list, some entries +-den, and den > 0."""
    den = draw(DENOMINATORS)
    p = draw(st.lists(st.one_of(ENTRIES, st.sampled_from((den, -den))),
                      min_size=min_size, max_size=7))
    return p, den


@EXAMPLES
@given(integer_lists())
def test_integer_printer_matches_the_fraction_printer(pair):
    p, den = pair
    assert _format_list(p, den) == reference_format(tuple(Fraction(v, den) for v in p))


@EXAMPLES
@given(st.lists(integer_lists(min_size=2).filter(lambda pair: any(pair[0])),
                min_size=1, max_size=4),
       st.one_of(st.none(), st.integers(1, 12)))
def test_ideal_text_round_trips(pairs, truncation):
    ideal = GradedIdeal._of_lists(pairs, truncation)
    text = format_ideal(ideal)
    assert text.splitlines()[:len(pairs)] == [
        reference_format(g.coeffs) for g in ideal.generators]
    again = parse_ideal_text(text)
    assert again.generators == ideal.generators
    assert again.truncation == truncation
