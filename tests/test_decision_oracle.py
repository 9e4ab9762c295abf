"""An independent decision of isomorphism over the algebraic closure,
against every verdict and class of the catalogs up to colength 16.

Two ideals I and J with the same Hilbert-Samuel sequence, both truncated
at its length L, are isomorphic exactly when some invertible
sigma = [[a, b], [c, d]], acting as x -> a*x + b*y, y -> c*x + d*y, maps
each generator of I of degree e < L into J_e: then sigma(I) lies in J,
and each of its components has the dimension of J's.  J_e is the common
kernel of its complement functionals, the null space of its rows, which
sympy computes here from the rows of ``componentwise.reference_component``
(never from ``RowBasis.annihilator``).  Each functional applied to each
mapped generator is a polynomial in a, b, c, d; with z*(ad - bc) - 1 for
invertibility, the system has a solution over the closure of Q exactly
when its reduced Groebner basis over Q is not [1] (Nullstellensatz).  So
the oracle decides every pair, irrational configurations included, where
``are_isomorphic`` may answer Unknown.
"""

import functools

import pytest

from componentwise import reference_component
from hsfinite import (GradedIdeal, classify, enumerate_sequences, parse_form,
                      sequence_for_label, validate, verify_catalog)

sympy = pytest.importorskip("sympy")
RING, X, Y, A, B, C, D, Z = sympy.ring("x, y, a, b, c, d, z", sympy.QQ)
UNKNOWNS = sympy.symbols("a b c d z")

MAX_COLENGTH = 16


def complement_functionals(ideal, degree):
    """A basis of the functionals on degree-d coefficient lists that
    vanish on I_d, as lists of sympy rationals."""
    rows = reference_component(ideal, degree).integer_rows
    if not rows:
        return [[int(i == j) for i in range(degree + 1)] for j in range(degree + 1)]
    return [list(vector) for vector in sympy.Matrix(rows).nullspace()]


def mapped_coefficients(form):
    """The coefficients of sigma(form), lowest x-power first, as
    polynomials in a, b, c, d."""
    image_x, image_y = A * X + B * Y, C * X + D * Y
    image = sum((sympy.QQ(c.numerator, c.denominator) * image_x ** i
                 * image_y ** (form.degree - i)
                 for i, c in enumerate(form.coeffs) if c), RING.zero)
    coeffs = [RING.zero] * (form.degree + 1)
    for (i, _, *powers), c in image.terms():
        coeffs[i] += RING({(0, 0, *powers): c})
    return coeffs


def isomorphic_over_the_closure(left, right, length):
    """Is there an invertible sigma carrying each generator of ``left`` of
    degree below ``length`` into ``right``?"""
    equations = [Z * (A * D - B * C) - 1]
    functionals = {}
    for form in left.generators:
        if form.degree >= length:
            continue
        if form.degree not in functionals:
            functionals[form.degree] = complement_functionals(right, form.degree)
        coeffs = mapped_coefficients(form)
        for functional in functionals[form.degree]:
            equation = sum((coeffs[i] * sympy.QQ(int(v.p), int(v.q))
                            for i, v in enumerate(functional) if v), RING.zero)
            if equation:
                equations.append(equation)
    basis = sympy.groebner([e.as_expr() for e in equations], *UNKNOWNS, order="grevlex")
    return list(basis.exprs) != [1]


def finite_labels():
    return [label for colength in range(3, MAX_COLENGTH + 1)
            for label in map(classify, map(validate, enumerate_sequences(colength)))
            if label.finite]


@functools.cache
def decided_catalogs():
    """(label, report, {(i, j): the oracle's answer}) for every label."""
    out = []
    for label in finite_labels():
        report = verify_catalog(label)
        length = len(sequence_for_label(label))
        answers = {(i, j): isomorphic_over_the_closure(report.entries[i].ideal,
                                                      report.entries[j].ideal, length)
                   for i, j, _ in report.pairwise}
        out.append((label, report, answers))
    return out


def ideal(*texts, truncation):
    return GradedIdeal([parse_form(t) for t in texts], truncation)


@pytest.mark.parametrize("left,right,expected", [
    # a pencil of quadrics with two distinct square members u^2, v^2 is
    # <u^2, v^2>; those of the right pencils are not rational, and ``iso``
    # answers Unknown on the first pair
    ((("x^2", "y^2"), 3), (("x*y", "x^2 - y^2"), 3), True),
    ((("x^2", "y^2"), 3), (("x^2 - 2*y^2", "x*y"), 3), True),
    ((("x^2", "y^2"), 3), (("x*y", "y^2"), 3), False),
    ((("x*y", "x^4"), 5), (("x*y", "y^4"), 5), True),
    ((("x^2", "x*y^2 + y^3"), 4), (("x^2", "y^3"), 4), True),
    ((("x^2", "x*y^2"), 4), (("x^2", "y^3"), 4), False),
])
def test_oracle_on_small_pairs(left, right, expected):
    (texts_l, t_l), (texts_r, t_r) = left, right
    assert isomorphic_over_the_closure(ideal(*texts_l, truncation=t_l),
                                       ideal(*texts_r, truncation=t_r), t_l) is expected


def test_oracle_confirms_every_decided_verdict():
    """Every isomorphic verdict has a solution and every distinguished one
    has none, over the 330 pairs of the 119 labels."""
    wrong = []
    pairs = 0
    for label, report, answers in decided_catalogs():
        for i, j, verdict in report.pairwise:
            pairs += 1
            if verdict.kind != "unknown" and answers[i, j] != (verdict.kind == "isomorphic"):
                wrong.append((str(label), i, j, verdict.kind))
    assert pairs == 330
    assert not wrong, "the oracle disagrees with: %s" % wrong


def test_oracle_classes_are_the_report_classes():
    """Each entry joins the class of the first entry the oracle finds it
    isomorphic to, which is the report's classes for every label: every
    Unknown pair is non-isomorphic over the closure."""
    wrong = []
    for label, report, answers in decided_catalogs():
        size = len(report.entries)
        first = [next((i for i in range(j) if answers[i, j]), j) for j in range(size)]
        classes = sorted([j for j in range(size) if first[j] == rep] for rep in set(first))
        if classes != report.classes:
            wrong.append((str(label), classes, report.classes))
    assert not wrong, "oracle classes differ: %s" % wrong
