"""Binary form arithmetic, parsing and root analysis."""

import math
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from componentwise import inverse
from hsfinite import (
    BinaryForm,
    GradedIdeal,
    InhomogeneousInput,
    IsoVerdict,
    LinearChange,
    ParseError,
    SingularChange,
    binary_form,
    format_change,
    format_form,
    gcd_forms,
    monic,
    multiplicity_partition,
    multiply,
    parse_form,
    parse_ideal_text,
    parse_sequence_text,
    rational_root_points,
    rref,
    substitute,
)
from hsfinite import forms as forms_module
from hsfinite.cli import main
from hsfinite.errors import MAX_DIGITS
from hsfinite.forms import (
    MAX_EXPONENT,
    _adjugate,
    _exact_quotient,
    _mat_mul,
    _normalize_point,
    _point_map_matrix,
    _primitive,
    _primitive_key,
    _primitive_point,
    _rational,
    _scaled,
    _trim,
)


def F(text):
    return parse_form(text)


def _random_form(rng, degree):
    while True:
        cs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(degree + 1)]
        if any(cs):
            return binary_form(cs)


def _random_change(rng):
    while True:
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        if a * d - b * c != 0:
            return LinearChange(a, b, c, d)


class TestParsing:
    def test_mixed_term(self):
        f = F("x^2*y - 3/2*x*y^2")
        assert f.degree == 3
        # ascending x-power: (y^3, x y^2, x^2 y, x^3)
        assert f.coeffs == (Fraction(0), Fraction(-3, 2), Fraction(1), Fraction(0))

    def test_inhomogeneous_rejected(self):
        with pytest.raises(InhomogeneousInput):
            F("x^2 + y")

    def test_pure_power(self):
        f = F("y^3")
        assert f.degree == 3
        assert f.coeffs == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))

    def test_syntax_errors(self):
        for bad in ("x^", "3/0*x", "x**y", "x +", "", "x^2 % y"):
            with pytest.raises(ParseError):
                F(bad)

    def test_exponent_limit(self):
        assert F("x^%d*y" % MAX_EXPONENT).degree == MAX_EXPONENT + 1
        for bad in ("x^%d" % (MAX_EXPONENT + 1), "y^100000000", "3*x^2*y^100000000"):
            with pytest.raises(ParseError, match="exponent of at most %d" % MAX_EXPONENT):
                F(bad)

    def test_unreadable_number_is_a_parse_error(self):
        # more than MAX_DIGITS (4300) digits
        for bad in ("1" * 5000 + "*x", "x^" + "1" * 5000, "3/" + "7" * 5000 + "*y"):
            with pytest.raises(ParseError, match="cannot read"):
                F(bad)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-string limit in this interpreter")
    @pytest.mark.parametrize("limit, longest", [(0, MAX_DIGITS), (640, 640)])
    def test_digit_limit_under_an_interpreter_limit(self, limit, longest):
        # lifted (0), MAX_DIGITS still holds; lowered, the interpreter refuses
        # earlier, still as a ParseError, as the printer could not write
        # such a number either
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            assert F("9" * longest + "*x").coeffs == (0, 10 ** longest - 1)
            with pytest.raises(ParseError, match="cannot read"):
                F("9" * (longest + 1) + "*x")
        finally:
            sys.set_int_max_str_digits(before)

    def test_only_ascii_digits_are_numbers(self, capsys):
        # str.isdigit() and int() also take Arabic-Indic and superscript digits
        for bad in ("\u0663*x + \u0664*y", "x^\u00b2"):
            with pytest.raises(ParseError):
                F(bad)
        with pytest.raises(ParseError):
            parse_ideal_text("x\ntruncate: \u0663\n")
        with pytest.raises(ParseError):
            parse_sequence_text("1,2,\u0663")
        assert main(["classify", "1,2,\u0662,1"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read sequence entry 2")

    def test_whitespace_insensitive(self):
        assert F("x y") == F("x*y")
        assert F(" 3 / 2 * x ^ 2 ") == F("3/2*x^2")

    def test_leading_minus_and_constants(self):
        assert F("-x^2 + y^2").coeffs == (Fraction(1), Fraction(0), Fraction(-1))
        assert F("5").degree == 0
        assert F("0").is_zero
        assert F("x - x").is_zero

    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(200):
            f = _random_form(rng, rng.randint(0, 6))
            assert F(format_form(f)) == f

    def test_format_examples(self):
        assert format_form(F("x*y")) == "x*y"
        assert format_form(F("2*x^3 - y^3")) == "2*x^3 - y^3"
        assert format_form(binary_form([0, Fraction(-1, 2)])) == "-1/2*x"

    def test_all_zero_coefficients_are_the_zero_form(self):
        zero = BinaryForm((0, 0))
        assert zero.is_zero
        assert format_form(zero) == "0"
        assert format_form(BinaryForm((Fraction(0),) * 3)) == "0"


class TestArithmetic:
    def test_multiply_examples(self):
        assert multiply(F("x"), F("y")) == F("x*y")
        assert multiply(F("x + y"), F("x - y")) == F("x^2 - y^2")
        # expansion oracle: (x + 2y)^2 = x^2 + 4xy + 4y^2
        assert multiply(F("x + 2*y"), F("x + 2*y")) == F("x^2 + 4*x*y + 4*y^2")

    def test_multiply_properties(self):
        rng = random.Random(4)
        for _ in range(50):
            f = _random_form(rng, rng.randint(0, 3))
            g = _random_form(rng, rng.randint(0, 3))
            h = _random_form(rng, rng.randint(0, 3))
            assert multiply(f, g) == multiply(g, f)
            assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))
            assert multiply(f, g).degree == f.degree + g.degree

    def test_substitute_examples(self):
        swap = LinearChange(0, 1, 1, 0)
        assert substitute(F("x^2"), swap) == F("y^2")
        assert substitute(F("x*y"), LinearChange(1, 1, 1, -1)) == F("x^2 - y^2")
        f = F("x^3 - 2*x*y^2 + y^3")
        assert substitute(f, LinearChange(1, 0, 0, 1)) == f

    def test_substitute_inverse_round_trip(self):
        rng = random.Random(5)
        for _ in range(200):
            f = _random_form(rng, rng.randint(1, 5))
            m = _random_change(rng)
            assert substitute(substitute(f, m), inverse(m)) == f

    def test_singular_change_rejected(self):
        with pytest.raises(SingularChange):
            LinearChange(1, 2, 2, 4)


class TestGcd:
    def test_examples(self):
        assert gcd_forms(F("x^2*y"), F("x*y^2")) == F("x*y")
        # factor oracle: (x-y)(x+y) vs (x+y)^2
        assert gcd_forms(F("x^2 - y^2"), F("x^2 + 2*x*y + y^2")) == F("x + y")
        from hsfinite import ZERO

        assert gcd_forms(F("2*x + 2*y"), ZERO) == F("x + y")
        with pytest.raises(ValueError):
            gcd_forms(ZERO, ZERO)

    def test_common_multiplier_factors_out(self):
        rng = random.Random(6)
        for _ in range(60):
            f = _random_form(rng, rng.randint(1, 3))
            g = _random_form(rng, rng.randint(1, 3))
            h = _random_form(rng, rng.randint(1, 2))
            lhs = gcd_forms(multiply(f, h), multiply(g, h))
            rhs = monic(multiply(gcd_forms(f, g), h))
            assert lhs == rhs

    def test_gcd_normalization_is_monic_from_top(self):
        g = gcd_forms(F("2*x^2"), F("6*x*y"))
        assert g == F("x")


class TestRootData:
    def test_partition_examples(self):
        assert multiplicity_partition(F("x^2*y")) == (2, 1)
        assert multiplicity_partition(F("x^3 + y^3")) == (1, 1, 1)
        assert multiplicity_partition(F("x^2 + 4*x*y + 4*y^2")) == (2,)

    def test_partition_sums_to_degree(self):
        rng = random.Random(7)
        for _ in range(100):
            f = _random_form(rng, rng.randint(1, 6))
            assert sum(multiplicity_partition(f)) == f.degree

    def test_partition_is_substitution_invariant(self):
        rng = random.Random(8)
        for _ in range(100):
            f = _random_form(rng, rng.randint(1, 5))
            m = _random_change(rng)
            assert multiplicity_partition(substitute(f, m)) == multiplicity_partition(f)

    def test_irrational_roots_counted_but_not_materialized(self):
        # x^2 - 2 y^2 has two conjugate roots: partition sees them, the
        # rational point list does not
        f = F("x^2 - 2*y^2")
        assert multiplicity_partition(f) == (1, 1)
        assert rational_root_points(f) == []

    def test_rational_root_points(self):
        f = multiply(multiply(F("x"), F("y")), F("2*x + 3*y"))
        pts = dict(rational_root_points(f))
        assert pts[(Fraction(0), Fraction(1))] == 1   # root of x
        assert pts[(Fraction(1), Fraction(0))] == 1   # root of y
        assert pts[(Fraction(1), Fraction(-2, 3))] == 1  # root of 2x + 3y
        sq = multiply(F("x - 5*y"), F("x - 5*y"))
        assert rational_root_points(sq) == [((Fraction(1), Fraction(1, 5)), 2)]


def kernel_quotient(f, h):
    """The list of f / h up to a scalar, or None when h does not divide f,
    by ``_exact_quotient`` as ``catalog._analyze``'s pencil step calls it:
    the divisor's primitive list trimmed of its zeros, its power of y, and
    the dividend's list sliced to drop that power, which f must hold too."""
    p = _scaled(f.coeffs)[0]
    core = _primitive(_trim(_scaled(h.coeffs)[0]))
    y_power = len(h.coeffs) - len(core)
    if len(p) - len(_trim(list(p))) < y_power:
        return None
    return _exact_quotient(p[:len(p) - y_power], core)


def _divides(h, f):
    return kernel_quotient(f, h) is not None


def _quotient_form(f, h):
    """f / h as a monic form; h must divide f."""
    return monic(binary_form(kernel_quotient(f, h)))


class TestDivision:
    def test_divides_examples(self):
        assert _divides(F("x"), F("x^2*y"))
        assert _divides(F("x + y"), F("x^3 + y^3"))
        assert not _divides(F("x"), F("y^3"))

    def test_exact_quotient(self):
        quotient = kernel_quotient(F("x^3 + y^3"), F("x + y"))
        assert quotient == list(F("x^2 - x*y + y^2").coeffs)
        assert not _divides(F("y"), F("x^2"))

    def test_divides_matches_product(self):
        rng = random.Random(9)
        for _ in range(60):
            f = _random_form(rng, rng.randint(0, 3))
            h = _random_form(rng, rng.randint(1, 3))
            assert _divides(h, multiply(f, h))
            assert _quotient_form(multiply(f, h), h) == monic(f)

    def test_quotient_of_integer_coefficients_is_exact(self):
        # a divisor's content is divided out first, so the quotient of an
        # integer list is an integer list, here 2*x / 3 and 2*x / (3*x)
        # times 3
        for h, expected in (((3,), [0, 2]), ((0, 3), [2])):
            q = kernel_quotient(BinaryForm((0, 2)), BinaryForm(h))
            assert q == expected and all(type(c) is int for c in q)

    def test_y_valuations_decide_division(self):
        assert _divides(F("y^2"), F("x*y^2"))
        assert _quotient_form(F("x*y^2"), F("y^2")) == F("x")
        assert not _divides(F("y^2"), F("x^2*y"))
        # a divisor of higher degree, whether it shares the factor or not
        assert not _divides(F("x^2"), F("x"))
        assert not _divides(F("y^2"), F("x"))
        assert not _divides(F("x*y^2"), F("x*y"))
        assert not _divides(F("y^3"), F("y"))


pairs = st.tuples(st.integers(-24, 24), st.integers(-24, 24)).filter(lambda uv: uv != (0, 0))
points = pairs.map(lambda uv: _primitive_point(*uv))
matrices = st.tuples(*[st.integers(-30, 30)] * 4).filter(
    lambda e: e[0] * e[3] != e[1] * e[2]).map(lambda e: ((e[0], e[1]), (e[2], e[3])))
PROPERTIES = settings(max_examples=100, deadline=None, derandomize=True)


def _cleared(matrix):
    """A rational matrix times the lcm of its denominators."""
    den = math.lcm(*(Fraction(e).denominator for row in matrix for e in row))
    return tuple(tuple(int(e * den) for e in row) for row in matrix)


class TestPointMaps:
    @PROPERTIES
    @given(pairs, st.integers(-7, 7).filter(bool))
    def test_integer_point_is_primitive_on_the_same_line(self, uv, c):
        p = _primitive_point(*uv)
        u, v = p
        assert type(u) is int and type(v) is int
        assert math.gcd(u, v) == 1 and (u or v) > 0
        assert _normalize_point(p) == _normalize_point(uv)
        assert _primitive_point(c * uv[0], c * uv[1]) == p

    @PROPERTIES
    @given(st.lists(points, min_size=3, max_size=3, unique=True),
           st.lists(points, min_size=3, max_size=3, unique=True))
    def test_point_map_sends_each_point_to_its_image(self, ps, qs):
        m = _point_map_matrix(tuple(ps), tuple(qs))
        assert all(type(e) is int for row in m for e in row)
        assert m[0][0] * m[1][1] != m[0][1] * m[1][0]
        for (u, v), q in zip(ps, qs):
            image = (m[0][0] * u + m[0][1] * v, m[1][0] * u + m[1][1] * v)
            assert _primitive_point(*image) == q

    @PROPERTIES
    @given(matrices, st.integers(-7, 7).filter(bool))
    def test_primitive_key_ignores_the_scale(self, m, c):
        key = _primitive_key(m)
        assert all(type(e) is int for e in key)
        assert next(e for e in key if e) > 0
        assert math.gcd(*key) == 1
        flat = [e for row in m for e in row]
        # the key lies on the line of m
        assert all(k * e2 == k2 * e for k, e in zip(key, flat) for k2, e2 in zip(key, flat))
        for factor in (c, -c):
            scaled = tuple(tuple(factor * e for e in row) for row in m)
            assert _primitive_key(scaled) == key

    @PROPERTIES
    @given(matrices)
    def test_adjugate_gives_the_primitive_inverse(self, m):
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert _mat_mul(m, _adjugate(m)) == ((det, 0), (0, det))
        change = inverse(LinearChange(m[0][0], m[0][1], m[1][0], m[1][1]))
        assert _primitive_key(_adjugate(m)) == _primitive_key(_cleared(change.matrix()))


# Rationals with zero, negative, large and non-integral entries, and the
# small integers that ``_rational`` shares.
exact_coefficients = st.one_of(
    st.just(0),
    st.integers(-300, 300),
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(-10 ** 12, 10 ** 12, max_denominator=10 ** 6),
)


@st.composite
def exact_forms(draw, max_degree=5):
    degree = draw(st.integers(0, max_degree))
    cs = draw(st.lists(exact_coefficients, min_size=degree + 1, max_size=degree + 1)
              .filter(any))
    return binary_form(cs)


def _fraction_product(p, q):
    """Coefficient lists multiplied in plain Fraction arithmetic."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += Fraction(u) * Fraction(v)
    return out


def _fraction_substitute(f, m):
    """f(a*x + b*y, c*x + d*y) in plain Fraction arithmetic."""
    total = [Fraction(0)] * (f.degree + 1)
    for i, q in enumerate(f.coeffs):
        term = [q]
        for _ in range(i):
            term = _fraction_product(term, [m.b, m.a])
        for _ in range(f.degree - i):
            term = _fraction_product(term, [m.d, m.c])
        total = [s + t for s, t in zip(total, term)]
    return total


def _all_fractions(f):
    return all(type(c) is Fraction for c in f.coeffs)


class TestFractionBoundary:
    @PROPERTIES
    @given(st.one_of(st.integers(-300, 300), st.integers(-10 ** 30, 10 ** 30)),
           st.one_of(st.integers(-50, 50), st.integers(-10 ** 12, 10 ** 12)).filter(bool))
    def test_rational_is_the_reduced_fraction(self, n, den):
        q = _rational(n, den)
        assert type(q) is Fraction and q == Fraction(n, den)
        if q.denominator == 1 and -256 <= q <= 256:
            assert q is _rational(q.numerator)

    @PROPERTIES
    @given(exact_forms(), exact_forms())
    def test_multiply_is_fraction_arithmetic(self, f, g):
        product = multiply(f, g)
        assert list(product.coeffs) == _fraction_product(f.coeffs, g.coeffs)
        assert _all_fractions(product)

    @PROPERTIES
    @given(st.lists(exact_forms(), min_size=1, max_size=4),
           st.tuples(*[exact_coefficients] * 4).filter(lambda e: e[0] * e[3] != e[1] * e[2]))
    def test_substitute_forms_is_fraction_arithmetic(self, forms, entries):
        change = LinearChange(*entries)
        images = [substitute(f, change) for f in forms]
        assert [list(g.coeffs) for g in images] == \
            [_fraction_substitute(f, change) for f in forms]
        assert all(_all_fractions(g) for g in images)

    def test_change_entries_are_kept_as_given(self):
        # ints stay ints and Fractions stay Fractions; a bool becomes the
        # int it stands for, so the matrix, its text and its JSON print 1
        change = LinearChange(True, 0, Fraction(1, 2), Fraction(3))
        assert [type(v) for row in change.matrix() for v in row] == \
            [int, int, Fraction, Fraction]
        assert change.matrix() == ((1, 0), (Fraction(1, 2), 3))
        assert format_change(change) == "[[1, 0], [1/2, 3]]"
        assert IsoVerdict("isomorphic", witness=change).to_dict()["witness"] == \
            [["1", "0"], ["1/2", "3"]]

    def test_non_exact_scalars_are_refused(self):
        # floats, strings and other types never become coefficients: each
        # is a TypeError that names the value
        refused = [
            (lambda: binary_form([0.1, 1]), "0.1"),
            (lambda: binary_form(["1/3", 2]), "'1/3'"),
            (lambda: monic(BinaryForm((0.1, 1))), "0.1"),
            (lambda: LinearChange(0.5, 0, 0, 1), "0.5"),
            (lambda: rref([[0.5, 1]]), "0.5"),
            (lambda: GradedIdeal([BinaryForm((0.5, 1))]), "0.5"),
        ]
        for build, value in refused:
            with pytest.raises(TypeError, match="coefficient %s is not an int or a Fraction"
                               % value):
                build()


def _gated_at(function, degree, bits, *args):
    """``function(*args)`` with ``_gcd``'s modular check tried past these
    sizes."""
    with mock.patch.object(forms_module, "_MODULAR_DEGREE", degree), \
            mock.patch.object(forms_module, "_MODULAR_BITS", bits):
        return function(*args)


def _squarefree_gated_at(p, degree, bits):
    """``_squarefree`` with the modular check tried past these sizes."""
    return _gated_at(forms_module._squarefree, degree, bits, p)


factor_lists = st.lists(
    st.one_of(st.integers(-3, 3), st.integers(-2 ** 100, 2 ** 100)),
    min_size=2, max_size=4).filter(lambda p: p[-1])


class TestModularSquarefree:
    """Past a size gate, ``_gcd`` first proves a constant gcd modulo
    2^61 - 1, which makes a large squarefree p its own one layer in
    ``_squarefree``; gcds and layers must be those of the remainder
    sequence alone."""

    @PROPERTIES
    @given(st.lists(st.tuples(factor_lists, st.integers(1, 3)), min_size=1, max_size=3))
    def test_layers_match_the_remainder_sequence(self, factors):
        p = [1]
        for f, mult in factors:
            for _ in range(mult):
                p = forms_module._convolve(p, f)
        p = forms_module._primitive(p)
        reference = _squarefree_gated_at(p, math.inf, math.inf)  # never tried
        assert forms_module._squarefree(p) == reference
        assert _squarefree_gated_at(p, -1, -1) == reference  # always tried

    @PROPERTIES
    @given(st.lists(factor_lists, min_size=1, max_size=3),
           st.lists(factor_lists, max_size=2), st.lists(factor_lists, max_size=2))
    def test_gcd_matches_the_remainder_sequence(self, shared, left, right):
        p, q = [1], [1]
        for f in shared:
            p, q = forms_module._convolve(p, f), forms_module._convolve(q, f)
        for f in left:
            p = forms_module._convolve(p, f)
        for f in right:
            q = forms_module._convolve(q, f)
        reference = _gated_at(forms_module._gcd, math.inf, math.inf, p, q)
        assert forms_module._gcd(p, q) == reference
        assert _gated_at(forms_module._gcd, -1, -1, p, q) == reference

    def test_gate(self, monkeypatch):
        calls = []
        real = forms_module._coprime_mod
        monkeypatch.setattr(forms_module, "_coprime_mod",
                            lambda p, q: calls.append(len(p)) or real(p, q))
        wide = forms_module._convolve([3, 2 ** 70 + 1], [5, -7, 2 ** 65])
        points = [1]
        for k in range(1, 18):
            points = forms_module._convolve(points, [-k, 1])
        # squarefree and past the gate: gcd(p, p') is decided mod m, and p
        # is its one layer
        assert forms_module._squarefree(wide) == [(wide, 1)]
        assert forms_module._squarefree(points) == [(points, 1)]
        assert calls == [4, 18]
        # small inputs, and a lead that 2^61 - 1 divides, take Euclid only
        assert forms_module._squarefree([6, 11, 6, 1]) == [([6, 11, 6, 1], 1)]
        divisible = [2 ** 70 + 1, 0, 1, forms_module._MODULUS]
        assert forms_module._squarefree(divisible) == [(divisible, 1)]
        # gcd(p, p') of a square is tried mod m and left to Euclid, then
        # Yun's gcd of wide and its derivative is decided mod m
        square = forms_module._convolve(wide, wide)
        assert forms_module._squarefree(square) == [(wide, 2)]
        assert calls == [4, 18, 7, 4]
        # every gcd passes the gate, also one that is no derivative's
        assert forms_module._gcd(points, wide) == [1]
        assert forms_module._gcd(square, wide) == forms_module._primitive(wide)
        assert calls == [4, 18, 7, 4, 18, 7]


def kernel_calls(monkeypatch):
    """{name: list of argument tuples}, filled by wrappers around the
    kernel's ``_gcd`` and ``_divide`` as they are called."""
    calls = {"_gcd": [], "_divide": []}
    for name, log in calls.items():
        real = getattr(forms_module, name)
        monkeypatch.setattr(forms_module, name,
                            lambda *args, real=real, log=log: log.append(args) or real(*args))
    return calls


def test_yun_stops_once_the_degree_left_decides(monkeypatch):
    # (3 + 2t)^12: c = p / gcd(p, p') is linear, so its one root carries
    # the whole degree and no pass of the loop runs; A * B^5 finds A at
    # pass 1, and the linear B left is the last layer, with the 5 of the
    # degree still unassigned; neither is divided by a constant gcd
    calls = kernel_calls(monkeypatch)
    power = [1]
    for _ in range(12):
        power = forms_module._convolve(power, [3, 2])
    assert forms_module._squarefree(power) == [([3, 2], 12)]
    assert len(calls["_gcd"]) == 1  # the gcd with the derivative
    a, b = [1, 1, 1], [-1, 2]
    gap = a
    for _ in range(5):
        gap = forms_module._convolve(gap, b)
    assert forms_module._squarefree(gap) == [(a, 1), (b, 5)]
    assert calls["_divide"] and all(len(q) > 1 for _, q in calls["_divide"])
