"""The binary-form kernel against sympy on random forms.

Each wrapper over the coefficient-list kernel is compared with an
independent computation in sympy: products with ``expand``, root
multiplicities with ``sqf_list``, gcds with ``gcd`` (up to a scalar),
rational roots with ``roots(filter='Q')`` and exact division with ``div``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsfinite import (
    binary_form,
    divides,
    form_divide,
    gcd_forms,
    multiplicity_partition,
    multiply,
    rational_root_points,
)

sympy = pytest.importorskip("sympy")
x, y = sympy.symbols("x y")

EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True)

coefficients = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)


@st.composite
def forms(draw, min_degree=0, max_degree=5):
    degree = draw(st.integers(min_degree, max_degree))
    cs = draw(st.lists(coefficients, min_size=degree + 1, max_size=degree + 1).filter(any))
    return binary_form(cs)


@st.composite
def factored_forms(draw):
    """Products of powers of small forms, so that repeated, rational and
    y-adic roots are common."""
    product = draw(forms(max_degree=0))
    for factor, power in draw(st.lists(st.tuples(forms(1, 2), st.integers(1, 3)),
                                       min_size=1, max_size=3)):
        for _ in range(power):
            product = multiply(product, factor)
    return product


def sym(f):
    return sum((sympy.Rational(c.numerator, c.denominator) * x ** i * y ** (f.degree - i)
                for i, c in enumerate(f.coeffs)), sympy.Integer(0))


def fraction(q):
    return Fraction(int(q.p), int(q.q))


@EXAMPLES
@given(forms(), forms())
def test_multiply_matches_expand(f, g):
    product = multiply(f, g)
    assert product.degree == f.degree + g.degree
    assert sympy.expand(sym(product) - sym(f) * sym(g)) == 0


@EXAMPLES
@given(factored_forms())
def test_multiplicity_partition_matches_sqf_list(f):
    _, factors = sympy.sqf_list(sym(f), x, y)
    expected = sorted((mult for factor, mult in factors
                       for _ in range(sympy.Poly(factor, x, y).total_degree())),
                      reverse=True)
    assert multiplicity_partition(f) == tuple(expected)


@EXAMPLES
@given(forms(max_degree=3), forms(max_degree=3), forms(max_degree=3))
def test_gcd_forms_matches_sympy_up_to_scalar(a, b, c):
    f, g = multiply(a, c), multiply(b, c)
    ratio = sympy.cancel(sym(gcd_forms(f, g)) / sympy.gcd(sym(f), sym(g)))
    assert ratio != 0 and not ratio.free_symbols


@EXAMPLES
@given(factored_forms())
def test_rational_root_points_match_roots(f):
    # a root t of f(x, 1) is the point (t : 1); the rest of the degree sits
    # at (1 : 0), that is, at the y-adic valuation
    dehomogenized = sympy.Poly(sym(f).subs(y, 1), x)
    expected = []
    at_infinity = f.degree - dehomogenized.degree()
    if at_infinity:
        expected.append(((Fraction(1), Fraction(0)), at_infinity))
    for root, mult in sympy.roots(dehomogenized, filter="Q").items():
        t = fraction(root)
        point = (Fraction(0), Fraction(1)) if t == 0 else (Fraction(1), 1 / t)
        expected.append((point, mult))
    assert rational_root_points(f) == sorted(expected)


@EXAMPLES
@given(forms(max_degree=6), forms(max_degree=3), forms(max_degree=3), st.booleans())
def test_division_matches_sympy_div(g, h, q, exact):
    f = multiply(h, q) if exact else g
    quo, rem = sympy.div(sym(f), sym(h), x, y)
    assert divides(h, f) == (rem == 0)
    if rem == 0:
        quotient = form_divide(f, h)
        assert quotient.degree == f.degree - h.degree
        assert sympy.expand(sym(quotient) - quo) == 0
    else:
        with pytest.raises(ValueError):
            form_divide(f, h)
