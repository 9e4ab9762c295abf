"""Differential checks of the two steps that confirm an isomorphism witness:
``equal_ideals`` against componentwise comparison of every graded component,
and ``substitute`` against sympy's expansion."""

import random
from fractions import Fraction

import pytest

from componentwise import componentwise_equal
from hsfinite import (
    GradedIdeal,
    LinearChange,
    SingularChange,
    binary_form,
    classify,
    component,
    enumerate_sequences,
    equal_ideals,
    hilbert_samuel,
    normal_forms,
    parse_form,
    substitute,
    substitute_ideal,
    validate,
)

F = parse_form


def ideal(*texts, truncate=None):
    return GradedIdeal([F(t) for t in texts], truncate)


def _catalog_families(max_colength):
    """Normal-form ideals of every finite-type sequence, one list per label."""
    families = []
    for colength in range(3, max_colength + 1):
        for entries in enumerate_sequences(colength):
            label = classify(validate(entries))
            if label.finite:
                families.append([e.ideal for e in normal_forms(label)])
    return families


def _rational(rng):
    return Fraction(rng.randint(-7, 7), rng.choice((1, 1, 2, 3, 5)))


def _random_change(rng, draw):
    while True:
        try:
            return LinearChange(draw(), draw(), draw(), draw())
        except SingularChange:
            continue


def _changes(rng):
    """A general integer change, a diagonal one with non-integer entries
    (it fixes every monomial ideal) and a general one with non-integer
    rational entries."""
    integer = _random_change(rng, lambda: rng.randint(-4, 4))
    diagonal = LinearChange(_rational(rng) + Fraction(1, 7), 0, 0,
                            _rational(rng) + Fraction(1, 7))
    rational = _random_change(rng, lambda: _rational(rng) + Fraction(1, 11))
    return integer, diagonal, rational


def _regenerated(ig):
    """The same ideal under another generating set: the RREF basis of each
    generator degree's component."""
    fresh = GradedIdeal(ig.generators, ig.truncation)
    degrees = sorted({g.degree for g in ig.generators})
    return GradedIdeal([binary_form(row) for d in degrees
                        for row in component(fresh, d).basis.rows], ig.truncation)


def _agree(left, right):
    got = equal_ideals(left, right)
    assert got == componentwise_equal(left, right), (left, right)
    return got


def test_equal_ideals_matches_componentwise_on_catalog_images():
    rng = random.Random(31)
    outcomes = []
    for family in _catalog_families(10):
        for base in family:
            hilbert_samuel(base)  # so that every image carries the sequence
            for m in _changes(rng):
                moved = substitute_ideal(base, m)
                outcomes.append(_agree(moved, base))
                outcomes.append(_agree(base, moved))
                assert _agree(moved, _regenerated(moved))
                assert _agree(_regenerated(moved), moved)
                assert _agree(substitute_ideal(moved, m.inverse()), base)
    assert True in outcomes and False in outcomes


def test_equal_ideals_matches_componentwise_within_each_label():
    rng = random.Random(32)
    compared = 0
    for family in _catalog_families(10):
        for left in family:
            hilbert_samuel(left)
            for right in family:
                if right is left:
                    continue
                assert not _agree(left, right)
                m = _changes(rng)[2]
                _agree(substitute_ideal(left, m), right)
                compared += 1
    assert compared >= 100


@pytest.mark.parametrize("left,right,equal", [
    # truncation only
    (GradedIdeal([], 3), ideal("x^3", "x^2*y", "x*y^2", "y^3"), True),
    (GradedIdeal([], 3), GradedIdeal([], 3), True),
    (GradedIdeal([], 4), ideal("x^3", "y^3", truncate=5), False),
    (ideal("x^3", "y^3", truncate=4), GradedIdeal([], 3), False),
    # generators at or beyond the length of the sequence (1, 2, 1)
    (ideal("x^2", "y^2", "x^3"), ideal("x^2", "y^2"), True),
    (ideal("x^2", "y^2", "x^5 - y^5"), ideal("x^2 + y^2", "x^2 - y^2"), True),
    (ideal("x*y", "x^2 - y^2", "x^3 + y^3"), ideal("x^2", "y^2"), False),
    # redundant generators
    (ideal("x^2", "y^2", "x^2 + y^2", "x^3 + x*y^2"), ideal("x^2", "y^2"), True),
    (ideal("x^2", "y^2", "x^2 + y^2"), ideal("x*y", "x^2 - y^2"), False),
    (ideal("x^2", "x*y", "x^2 + x*y", truncate=3), ideal("x^2", "x*y", truncate=3), True),
    (ideal("x^2", "x*y", "x^2 - 2*x*y", truncate=3), ideal("x*y", "y^2", truncate=3),
     False),
])
def test_equal_ideals_edge_cases(left, right, equal):
    assert _agree(left, right) is equal
    assert _agree(right, left) is equal


def _random_form(rng, degree):
    coeffs = [rng.choice((0, rng.randint(-9, 9), _rational(rng)))
              for _ in range(degree + 1)]
    return binary_form(coeffs)


# matrices with zero entries in each position pattern, and negative ones
_ZERO_AND_NEGATIVE_CHANGES = (
    LinearChange(3, 0, 0, Fraction(-2, 5)),  # diagonal
    LinearChange(0, Fraction(1, 2), -3, 0),  # antidiagonal
    LinearChange(0, 2, Fraction(-1, 3), 5),  # a = 0
    LinearChange(-4, Fraction(3, 7), 1, 0),  # d = 0
    LinearChange(-1, -2, -3, -5),
    LinearChange(1, 0, 0, 1),
)


def test_substitute_matches_sympy_expand():
    sympy = pytest.importorskip("sympy")
    # sympy's sparse polynomial ring over QQ, fast enough for degree 40
    ring, x, y = sympy.ring("x, y", sympy.QQ)
    rng = random.Random(41)

    def to_sympy(q):
        return sympy.QQ(q.numerator, q.denominator)

    general = [(rng.randint(0, 8), _random_change(rng, lambda: _rational(rng)))
               for _ in range(100)]
    general += [(rng.randint(9, 40), _random_change(rng, lambda: _rational(rng)))
                for _ in range(10)]
    special = [(degree, m) for m in _ZERO_AND_NEGATIVE_CHANGES
               for degree in (0, 1, 2, 7, 40)]
    for degree, m in general + special:
        f = _random_form(rng, degree)
        X = to_sympy(m.a) * x + to_sympy(m.b) * y
        Y = to_sympy(m.c) * x + to_sympy(m.d) * y
        moved = sum((to_sympy(c) * X**i * Y**(degree - i)
                     for i, c in enumerate(f.coeffs)), ring.zero)
        expected = []
        for i in range(degree + 1):
            c = moved.coeff(x**i * y**(degree - i))
            expected.append(Fraction(int(c.numerator), int(c.denominator)))
        assert substitute(f, m) == binary_form(expected), (f, m)


def test_substitute_ideal_maps_each_generator_in_order():
    rng = random.Random(42)
    for _ in range(60):
        # repeated degrees share one monomial basis image inside the call
        degrees = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
        gens = []
        for d in degrees:
            g = _random_form(rng, d)
            gens.append(g if not g.is_zero else F("x^%d" % d))
        base = GradedIdeal(gens, rng.choice((None, 7)))
        m = _random_change(rng, lambda: _rational(rng))
        moved = substitute_ideal(base, m)
        assert list(moved.generators) == [substitute(g, m) for g in base.generators]
        assert moved.truncation == base.truncation
