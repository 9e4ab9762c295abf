"""``parse_form`` against sympy on non-canonical spellings.

Each text is drawn as a list of signed terms of one degree and spelled in
the ways the grammar allows: random whitespace between tokens, '*' written
or left out (``x y``, ``3x``), exponents 0 and 1 written out or left out,
unreduced fractions, zero coefficients, repeated and cancelling terms and a
leading '-'.  sympy sums the same terms, and the parsed form must have the
coefficients of the resulting ``sympy.Poly``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsfinite import parse_form

sympy = pytest.importorskip("sympy")
x, y = sympy.symbols("x y")

EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True)
SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n"])


def _power(draw, var, exponent):
    """var^exponent in one of its spellings; "" may stand for exponent 0
    and the bare variable for exponent 1."""
    if exponent <= 1 and draw(st.booleans()):
        return var if exponent else ""
    zeros = draw(st.sampled_from(["", "", "0"]))
    return var + draw(SPACE) + "^" + draw(SPACE) + zeros + str(exponent)


def _join(draw, left, right):
    """left and right with '*', a space or nothing between them."""
    if not left or not right:
        return left + right
    return left + draw(SPACE) + draw(st.sampled_from(["*", " ", ""])) + draw(SPACE) + right


@st.composite
def spelled_polynomials(draw):
    """(text, degree, terms) with terms (sign, num, den, x power)."""
    degree = draw(st.integers(0, 4))
    term = st.tuples(st.sampled_from((1, -1)), st.integers(0, 12), st.integers(1, 4),
                     st.integers(0, degree))
    terms = draw(st.lists(term, min_size=1, max_size=6))
    if draw(st.booleans()):
        sign, num, den, i = draw(st.sampled_from(terms))
        terms.append((-sign, num, den, i))
    text = draw(SPACE)
    for k, (sign, num, den, i) in enumerate(terms):
        if k:
            text += draw(SPACE) + ("+" if sign > 0 else "-") + draw(SPACE)
        elif sign < 0:
            text += "-" + draw(SPACE)
        mono = _join(draw, _power(draw, "x", i), _power(draw, "y", degree - i))
        if num == den and mono and draw(st.booleans()):
            coeff = ""
        elif den == 1 and draw(st.booleans()):
            coeff = str(num)
        else:
            coeff = str(num) + draw(SPACE) + "/" + draw(SPACE) + str(den)
        text += _join(draw, coeff, mono)
    return text + draw(SPACE), degree, terms


@EXAMPLES
@given(spelled_polynomials())
def test_parse_form_matches_sympy(case):
    text, degree, terms = case
    expected = sympy.Poly(sum((sign * sympy.Rational(num, den) * x ** i * y ** (degree - i)
                               for sign, num, den, i in terms), sympy.Integer(0)), x, y)
    form = parse_form(text)
    if expected.is_zero:
        assert form.is_zero, text
        return
    assert form.degree == degree, text
    for i, c in enumerate(form.coeffs):
        want = expected.coeff_monomial(x ** i * y ** (degree - i))
        assert sympy.Rational(c.numerator, c.denominator) == want, text
