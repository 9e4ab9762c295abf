"""``hilbert_samuel`` against a Hilbert function read off a sympy Groebner
basis.

The oracle shares no code with the graded components: it computes a
reduced Groebner basis in grevlex order, with every monomial of degree D
added for a truncation D, and counts per degree the standard monomials,
those divisible by no leading monomial of the basis.  The ideals are every
normal form up to colength 12, two samples of every valid sequence of
colength at most 9, and an integer transform of each; and, for long
persistent tails, the normal forms with a common factor truncated 20
degrees past their sequence.
"""

import random
from functools import reduce

import pytest

from hsfinite import (
    GradedIdeal,
    LinearChange,
    SingularChange,
    classify,
    enumerate_sequences,
    gcd_forms,
    hilbert_samuel,
    normal_forms,
    sample_ideal,
    substitute_ideal,
    validate,
)

sympy = pytest.importorskip("sympy")
x, y = sympy.symbols("x y")


def sym(f):
    return sum((sympy.Rational(c.numerator, c.denominator) * x ** i * y ** (f.degree - i)
                for i, c in enumerate(f.coeffs)), sympy.Integer(0))


def groebner_sequence(ideal):
    """Standard monomials of each degree until the first degree with none."""
    polys = [sym(g) for g in ideal.generators]
    if ideal.truncation is not None:
        D = ideal.truncation
        polys += [x ** i * y ** (D - i) for i in range(D + 1)]
    basis = sympy.groebner(polys, x, y, order="grevlex")
    leads = [sympy.Poly(g, x, y).monoms(order="grevlex")[0] for g in basis.exprs]
    seq = []
    degree = 0
    while True:
        count = sum(1 for i in range(degree + 1)
                    if not any(i >= a and degree - i >= b for a, b in leads))
        if count == 0:
            return tuple(seq)
        seq.append(count)
        degree += 1


def integer_transform(ideal, rng):
    """The image under a random integer change, rebuilt without the
    sequence that ``substitute_ideal`` carries over."""
    while True:
        try:
            change = LinearChange(*(rng.randint(-4, 4) for _ in range(4)))
        except SingularChange:
            continue
        return GradedIdeal(substitute_ideal(ideal, change).generators, ideal.truncation)


def _ideals():
    normal = []
    sampled = []
    for colength in range(3, 13):
        for entries in enumerate_sequences(colength):
            seq = validate(entries)
            label = classify(seq)
            if label.finite:
                normal += [e.ideal for e in normal_forms(label)]
            if colength <= 9:
                sampled += [sample_ideal(seq, seed) for seed in (0, 1)]
    return normal + sampled


def test_hilbert_samuel_matches_groebner_standard_monomials():
    rng = random.Random(12)
    checked = 0
    for ideal in _ideals():
        image = integer_transform(ideal, rng)
        expected = groebner_sequence(ideal)
        assert hilbert_samuel(ideal) == expected, ideal
        assert hilbert_samuel(image) == expected, image
        checked += 2
    # 114 normal forms and 2 samples of each of the 23 valid sequences
    assert checked == 2 * (114 + 46)


def test_long_truncated_tails_match_groebner():
    """Normal forms up to colength 12 whose generators share a factor,
    truncated 20 degrees past their sequence, and an integer transform of
    each: the sequence ends in a constant run of at least 20 entries, which
    ``hilbert_samuel`` fills without building those components."""
    rng = random.Random(13)
    checked = 0
    for colength in range(3, 13):
        for entries in enumerate_sequences(colength):
            label = classify(validate(entries))
            if not label.finite:
                continue
            for entry in normal_forms(label):
                gens = entry.ideal.generators
                if not gens or reduce(gcd_forms, gens).degree == 0:
                    continue
                long = GradedIdeal(gens, len(hilbert_samuel(entry.ideal)) + 20)
                expected = groebner_sequence(long)
                assert expected[-20:] == (expected[-20],) * 20, long
                assert hilbert_samuel(long) == expected, long
                assert hilbert_samuel(integer_transform(long, rng)) == expected, long
                checked += 1
    assert checked == 93
