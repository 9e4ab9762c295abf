"""The binary-form kernel against sympy on random forms.

Each wrapper over the coefficient-list kernel is compared with an
independent computation in sympy: products with ``expand``, root
multiplicities with ``sqf_list``, gcds with ``gcd`` (up to a scalar) and
rational roots with ``roots(filter='Q')``.  Division is compared with
``div`` on the kernel itself, ``_divide`` and ``_exact_quotient``, called
as the pencil step of ``catalog._analyze`` calls them.
Root data is also compared on forms with coefficients up to 10^40 over
10^20, and on products of rational linear factors with an irreducible
cubic, whose squarefree layers of degree 3 or more are solved p-adically.
The integer Euclid is compared with the ``Fraction`` Euclid it replaced,
kept here as the reference, and with sympy, and Yun's squarefree layers
with ``sqf_list``'s, on squarefree lists of degree 3-20, on products
with factors repeated up to 8 times, gaps between the multiplicities
among them, and on powers of a linear list up to the 12th.
"""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hsfinite import (
    binary_form,
    gcd_forms,
    multiplicity_partition,
    multiply,
    parse_form,
    rational_root_points,
)
from hsfinite.forms import (_convolve, _divide, _exact_quotient, _gcd, _monic_form,
                            _primitive, _scaled, _squarefree, _trim)
from test_forms import kernel_quotient

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


# coefficients up to 10^40 over denominators up to 10^20
big_coefficients = st.one_of(st.just(0), st.integers(-10 ** 40, 10 ** 40),
                             st.fractions(min_value=-10 ** 40, max_value=10 ** 40,
                                          max_denominator=10 ** 20))


@st.composite
def large_factored_forms(draw):
    """Products of powers of forms with coefficients up to 10^40 over
    denominators up to 10^20."""
    big = big_coefficients
    product = binary_form([draw(big.filter(bool))])
    for degree, power in draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)),
                                       min_size=1, max_size=3)):
        cs = draw(st.lists(big, min_size=degree + 1, max_size=degree + 1).filter(any))
        for _ in range(power):
            product = multiply(product, binary_form(cs))
    return product


@st.composite
def split_times_cubic(draw):
    """At least three distinct rational linear factors, some squared, times
    an irreducible cubic: every squarefree layer holding the cubic has
    degree 3 or more and may have rational roots."""
    roots = draw(st.lists(st.one_of(st.none(),
                                    st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                                 max_denominator=10 ** 3)),
                          min_size=3, max_size=5, unique=True))
    # Eisenstein at p: p divides every coefficient but the leading one, and
    # p^2 does not divide the constant term
    p = draw(st.sampled_from((2, 3, 5, 7)))
    cubic = [p * draw(st.integers(-6, 6).filter(lambda c: c % p)),
             p * draw(st.integers(-6, 6)), p * draw(st.integers(-6, 6)),
             draw(st.integers(-20, 20).filter(lambda c: c % p))]
    product = multiply(binary_form([draw(coefficients.filter(bool))]), binary_form(cubic))
    for t in roots:
        # None is the root (1 : 0) of y; t is the root (t : 1) of den*x - num*y
        linear = binary_form([1, 0] if t is None else [-t.numerator, t.denominator])
        for _ in range(draw(st.integers(1, 2))):
            product = multiply(product, linear)
    return product


def sqf_partition(f):
    _, factors = sympy.sqf_list(sym(f), x, y)
    return tuple(sorted((mult for factor, mult in factors
                         for _ in range(sympy.Poly(factor, x, y).total_degree())),
                        reverse=True))


def point(t):
    """The normalized projective point (t : 1)."""
    return (Fraction(0), Fraction(1)) if t == 0 else (Fraction(1), 1 / Fraction(t))


def rational_points(f):
    # a root t of f(x, 1) is the point (t : 1); the rest of the degree sits
    # at (1 : 0), that is, at the y-adic valuation
    dehomogenized = sympy.Poly(sym(f).subs(y, 1), x)
    expected = []
    at_infinity = f.degree - dehomogenized.degree()
    if at_infinity:
        expected.append(((Fraction(1), Fraction(0)), at_infinity))
    for root, mult in sympy.roots(dehomogenized, filter="Q").items():
        expected.append((point(fraction(root)), mult))
    return sorted(expected)


@EXAMPLES
@given(factored_forms())
def test_multiplicity_partition_matches_sqf_list(f):
    assert multiplicity_partition(f) == sqf_partition(f)


@EXAMPLES
@given(forms(max_degree=3), forms(max_degree=3), forms(max_degree=3))
def test_gcd_forms_matches_sympy_up_to_scalar(a, b, c):
    f, g = multiply(a, c), multiply(b, c)
    ratio = sympy.cancel(sym(gcd_forms(f, g)) / sympy.gcd(sym(f), sym(g)))
    assert ratio != 0 and not ratio.free_symbols


@EXAMPLES
@given(factored_forms())
def test_rational_root_points_match_roots(f):
    assert rational_root_points(f) == rational_points(f)


@EXAMPLES
@given(large_factored_forms())
def test_large_coefficient_root_data_matches_sympy(f):
    assert multiplicity_partition(f) == sqf_partition(f)
    assert rational_root_points(f) == rational_points(f)


@EXAMPLES
@given(split_times_cubic())
def test_cubic_product_root_data_matches_sympy(f):
    assert multiplicity_partition(f) == sqf_partition(f)
    assert rational_root_points(f) == rational_points(f)


def test_roots_colliding_modulo_small_primes():
    # 1, 106 and 211 agree modulo 2, 3, 5 and 7, so the first prime at
    # which all roots of the layer are simple is 11
    f = multiply(multiply(parse_form("x - y"), parse_form("x - 106*y")),
                 parse_form("x - 211*y"))
    assert rational_root_points(f) == sorted((point(t), 1) for t in (1, 106, 211))


@pytest.mark.parametrize("t", [200, -200])
def test_root_near_the_lifting_bound(t):
    # (x - t*y)(x^2 + x*y + y^2) is lifted modulo powers of 2; the root is
    # recovered only once the modulus exceeds 2|t| = 2|q_0 * q_n|
    f = multiply(parse_form("x - %d*y" % t if t > 0 else "x + %d*y" % -t),
                 parse_form("x^2 + x*y + y^2"))
    assert rational_root_points(f) == [(point(t), 1)]


def test_lifted_residue_that_is_no_root():
    # x^3 - 2 has the simple root 3 modulo 5, whose 5-adic lift is not
    # rational; the exact check must reject it
    assert rational_root_points(parse_form("x^3 - 2*y^3")) == []
    assert multiplicity_partition(parse_form("x^3 - 2*y^3")) == (1, 1, 1)


def sym_list(p):
    """The polynomial in x of an ascending coefficient list."""
    return sum((c * x ** i for i, c in enumerate(p)), sympy.Integer(0))


@EXAMPLES
@given(forms(max_degree=6), forms(max_degree=3), forms(max_degree=3), st.booleans())
def test_division_matches_sympy_div(g, h, q, exact):
    f = multiply(h, q) if exact else g
    # the kernel at y = 1: lead^(deg p - deg d + 1) * p over d leaves an
    # integer quotient and remainder, those of sympy's division scaled
    p = _trim(_scaled(f.coeffs)[0])
    d = _primitive(_trim(_scaled(h.coeffs)[0]))
    quo, rem = sympy.div(sym_list(p), sym_list(d), x)
    power = d[-1] ** max(len(p) - len(d) + 1, 0)
    int_quo, int_rem = _divide([power * c for c in p], d)
    assert sympy.expand(sym_list(int_quo) - power * quo) == 0
    assert sympy.expand(sym_list(int_rem) - power * rem) == 0
    exact_quo = _exact_quotient(p, d)
    assert (exact_quo is None) == (rem != 0)
    if rem == 0:
        assert sympy.expand(sym_list(exact_quo) - quo) == 0
    # the forms, y-valuations included
    quo, rem = sympy.div(sym(f), sym(h), x, y)
    quotient = kernel_quotient(f, h)
    assert (quotient is None) == (rem != 0)
    if rem == 0:
        assert len(quotient) == f.degree - h.degree + 1
        ratio = sympy.cancel(sum(c * x ** i * y ** (len(quotient) - 1 - i)
                                 for i, c in enumerate(quotient)) / quo)
        assert ratio != 0 and not ratio.free_symbols


def _reference_divmod(num, den):
    """Long division of Fraction lists, ascending powers."""
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    quo = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while num and len(num) >= len(den):
        shift = len(num) - len(den)
        c = num[-1] / den[-1]
        quo[shift] = c
        for i, dc in enumerate(den):
            num[shift + i] -= c * dc
        while num and num[-1] == 0:
            num.pop()
    return quo, num


def _reference_gcd(p, q):
    """Euclid in Fraction arithmetic, the algorithm the primitive remainder
    sequence replaced, normalized monic."""
    p = [Fraction(c) for c in p]
    q = [Fraction(c) for c in q]
    for r in (p, q):
        while r and r[-1] == 0:
            r.pop()
    while q:
        p, q = q, _reference_divmod(p, q)[1]
    return [c / p[-1] for c in p]


@st.composite
def large_gcd_pairs(draw):
    """Two forms with coefficients up to 10^40 over 10^20 that share a
    factor of degree up to 3."""
    def big_form(max_degree):
        degree = draw(st.integers(0, max_degree))
        return binary_form(draw(st.lists(big_coefficients, min_size=degree + 1,
                                         max_size=degree + 1).filter(any)))
    common = big_form(3)
    return multiply(big_form(4), common), multiply(big_form(4), common)


@EXAMPLES
@given(large_gcd_pairs())
def test_integer_gcd_matches_fraction_euclid_and_sympy(pair):
    f, g = pair
    core = _gcd(_primitive(_trim(_scaled(f.coeffs)[0])),
                _primitive(_trim(_scaled(g.coeffs)[0])))
    assert math.gcd(*core) == 1 and core[-1] > 0
    assert list(_monic_form(core).coeffs) == _reference_gcd(f.coeffs, g.coeffs)
    # the gcd of the forms at y = 1, up to a scalar
    expected = sympy.gcd(sym(f).subs(y, 1), sym(g).subs(y, 1))
    ratio = sympy.cancel(sum(c * x ** i for i, c in enumerate(core)) / expected)
    assert ratio != 0 and not ratio.free_symbols


def sqf_layers(p):
    """sympy's squarefree layers of an integer list, ascending powers, as
    {multiplicity: primitive list with a positive lead}."""
    _, factors = sympy.sqf_list(sympy.Poly(p[::-1], x))
    return {mult: _primitive([int(c) for c in factor.all_coeffs()[::-1]])
            for factor, mult in factors}


@st.composite
def squarefree_lists(draw):
    """Primitive squarefree lists of degree 3-20: products of distinct
    rational linear factors, or random lists that sympy finds squarefree.
    Past degree 16 ``_gcd`` tries its modular test first."""
    if draw(st.booleans()):
        roots = draw(st.lists(st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                           max_denominator=10 ** 3),
                              min_size=3, max_size=20, unique=True))
        p = [1]
        for t in roots:
            p = _convolve(p, [-t.numerator, t.denominator])
    else:
        degree = draw(st.integers(3, 20))
        p = draw(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=degree + 1,
                          max_size=degree + 1).filter(lambda q: q[-1]))
        assume(sympy.Poly(p[::-1], x).is_sqf)
    return _primitive(p)


@st.composite
def repeated_factor_lists(draw):
    """Primitive products of powers up to the 8th of random lists of degree
    1-3, so some layer has a multiplicity of 2 or more and multiplicities
    with gaps, as in A * B^5, are common; or one linear list to a power up
    to the 12th.  Degrees reach past 16, and Yun's loop meets both of its
    stops and passes that find no layer."""
    if draw(st.integers(0, 3)) == 0:
        shapes = [(1, draw(st.integers(2, 12)))]
    else:
        shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 8)),
                               min_size=1, max_size=4)
                      .filter(lambda fs: any(m > 1 for _, m in fs)))
    p = [1]
    for degree, mult in shapes:
        factor = draw(st.lists(st.integers(-50, 50), min_size=degree + 1,
                               max_size=degree + 1).filter(lambda q: q[-1]))
        for _ in range(mult):
            p = _convolve(p, factor)
    return _primitive(p)


@EXAMPLES
@given(squarefree_lists())
def test_squarefree_list_is_its_one_layer(p):
    assert sqf_layers(p) == {1: p}
    assert _squarefree(p) == [(p, 1)]


@EXAMPLES
@given(repeated_factor_lists())
@example(functools.reduce(_convolve, [[-1, 2]] * 5, [1, 1, 1]))  # A * B^5
def test_squarefree_layers_match_sqf_list(p):
    layers = _squarefree(p)
    assert [mult for _, mult in layers] == sorted({mult for _, mult in layers})
    assert {mult: layer for layer, mult in layers} == sqf_layers(p)
