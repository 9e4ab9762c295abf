"""The integer invariant layer against the public ``Fraction`` functions.

``catalog._analyze`` reads the run factors, the power pairing and the
pencil discriminants off the primitive integer rows of the components and
hands integer lists to the root data.  Here the same invariant and role
points are rebuilt from the public functions, which return monic
``Fraction`` forms: ``common_factor``, ``gcd_forms``, ``power_pairing``,
``multiplicity_partition`` and ``rational_root_points``.  The pencils are
rebuilt here too, with no kernel helper: the unit-pivot ``Fraction`` rows
of the component, divided by the common factor by long division in
``Fraction`` arithmetic, and the discriminant c1^2 - 4*c2*c0 of the member
a*p + b*q multiplied out from its coefficients, linear forms in (a, b).
Partitions and points do not depend on the scale of a form, so the two
must agree exactly.  The partition of ``gcd_forms`` of each pair of run
factors must be the later run's, by the divisibility chain the sampler's
tests prove, which is why the invariant holds no pairwise gcds.

The second half pins the ``Fraction`` contract of the forms the package
hands back: the benchmark's independent oracle reads forms as tuples of
``Fraction`` and rejects anything else.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from componentwise import fraction_rows, long_divide, marked_roles
from hsfinite import (
    GradedIdeal,
    LinearChange,
    StructuralInvariant,
    binary_form,
    classify,
    common_factor,
    component,
    enumerate_sequences,
    gcd_forms,
    hilbert_samuel,
    multiplicity_partition,
    normal_forms,
    parse_form,
    parse_ideal_text,
    power_pairing,
    rational_root_points,
    sample_ideal,
    substitute_ideal,
    validate,
)
from hsfinite.catalog import _analyze
from hsfinite.forms import _normalize_point, _point_key, _primitive_point
from hsfinite.sequences import tail_runs


def _point(u, v):
    """The projective point (u : v) as (1, v/u) or (0, 1)."""
    return (Fraction(1), Fraction(v) / u) if u else (Fraction(0), Fraction(1))


def _times(l1, l2):
    """The product of linear forms u*a + v*b, given as (u, v) pairs, as the
    coefficients of b^2, a*b and a^2."""
    (u1, v1), (u2, v2) = l1, l2
    return [v1 * v2, u1 * v2 + v1 * u2, u1 * u2]


def reference_analysis(ideal):
    """(invariant, roles, pairwise) from the public Fraction functions: the
    first two in the order and shape of ``_analyze(ideal).invariant`` and
    ``marked_roles``, then the partition of ``gcd_forms`` of each pair of
    run factors, in the order of ``itertools.combinations``."""
    seq = hilbert_samuel(ideal)
    nc = validate(seq).n
    run_data, factors, roles = [], [], []
    for start, end, value in tail_runs(seq, nc):
        factor = common_factor(ideal, start)
        part = ()
        if factor.degree > 0:
            part = multiplicity_partition(factor)
            roles.append((("run", len(factors)), dict(rational_root_points(factor))))
        factors.append(factor)
        run_data.append((start, end, value, part))
    pairwise = []
    for f, g in itertools.combinations(factors, 2):
        common = gcd_forms(f, g)
        pairwise.append(multiplicity_partition(common) if common.degree > 0 else ())
    theta = None
    m = next((m for m in range(1, len(seq)) if seq[m] == 1), None)
    if m is not None:
        form = power_pairing(ideal, m)
        theta = multiplicity_partition(form)
        points = {}
        for (a, b), mult in rational_root_points(form):
            line = _point(-b, a)  # the dual point of the root
            points[line] = points.get(line, 0) + mult
        roles.append((("theta",), points))
    patterns = []
    for d in range(nc, len(seq)):
        if d + 1 - seq[d] != 2:
            continue
        h = common_factor(ideal, d)
        if h.degree != d - 2:  # the members divided by h are not quadratics
            continue
        p, q = (long_divide(row, h.coeffs) for row in fraction_rows(component(ideal, d)))
        # member a*p + b*q has the coefficients c_k = p_k*a + q_k*b
        l0, l1, l2 = zip(p, q)
        disc = binary_form([s - 4 * t for s, t in zip(_times(l1, l1), _times(l2, l0))])
        patterns.append((d, multiplicity_partition(disc)))
        lines = {}
        for (a, b), mult in rational_root_points(disc):
            c0, c1, c2 = (a * u + b * v for u, v in zip(p, q))
            line = _point(-c1, 2 * c2) if c2 else _point(-2 * c0, c1)
            lines[line] = lines.get(line, 0) + mult
        roles.append((("pencil", d), lines))
    invariant = StructuralInvariant(seq, tuple(run_data), theta, tuple(patterns))
    return invariant, roles, pairwise


def _rational_change(rng):
    while True:
        a, b, c, d = (Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(4))
        if a * d != b * c:
            return LinearChange(a, b, c, d)


def differential_ideals():
    """The 294 catalog normal forms up to colength 16, a rational transform
    of each, and 3 samples of every valid sequence of colength 5-10."""
    rng = random.Random(14)
    forms = [entry.ideal
             for colength in range(3, 17)
             for entries in enumerate_sequences(colength)
             if (label := classify(validate(entries))).finite
             for entry in normal_forms(label)]
    transforms = [substitute_ideal(i, _rational_change(rng)) for i in forms]
    samples = [sample_ideal(entries, seed)
               for colength in range(5, 11)
               for entries in enumerate_sequences(colength)
               for seed in range(3)]
    return forms, transforms, samples


def test_integer_layer_matches_the_fraction_functions():
    forms, transforms, samples = differential_ideals()
    assert (len(forms), len(transforms)) == (294, 294) and len(samples) >= 90
    with_theta = with_pencil = with_roles = chained = 0
    for case in forms + transforms + samples:
        # a fresh copy, so that neither side reads the other's memo
        twin = GradedIdeal(case.generators, case.truncation)
        invariant, roles, pairwise = reference_analysis(twin)
        assert _analyze(case).invariant == invariant, case
        assert marked_roles(_analyze(case)) == roles, case
        # the run factors form a divisibility chain: each pairwise gcd is
        # the later factor, so it adds nothing to ``run_data``
        assert pairwise == [later[3] for _, later in
                            itertools.combinations(invariant.run_data, 2)], case
        chained += len(pairwise)
        with_theta += invariant.theta_pattern is not None
        with_pencil += bool(invariant.pencil_patterns)
        with_roles += any(points for _, points in roles)
    # every path of the integer layer is exercised many times over
    assert with_theta > 500 and with_pencil > 40 and with_roles > 600
    assert chained > 400


_ENTRIES = st.one_of(st.integers(-4, 4), st.integers(-10 ** 30, 10 ** 30))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_ENTRIES, _ENTRIES).filter(lambda uv: uv != (0, 0)),
                max_size=10))
@example([(0, 1), (1, 0), (0, -3), (-1, 0), (2, -1), (-4, 2), (1, 1)])
def test_point_key_sorts_as_the_fraction_points(pairs):
    """The role points are primitive integer pairs, sorted by ``_point_key``
    in the order their ``Fraction`` points (1, t) and (0, 1) sort in: the
    order of the matchings, and so of the witness keys, rests on it.  Pairs
    on one line give one point, so ties are sorted too."""
    points = [_primitive_point(*uv) for uv in pairs]
    assert sorted(points, key=_point_key) == sorted(points, key=_normalize_point)
    fractions = [_normalize_point(p) for p in points]
    assert sorted(fractions, key=_point_key) == sorted(fractions)


def _all_fractions(form):
    return all(type(c) is Fraction for c in form.coeffs)


@pytest.mark.parametrize("text", [
    "x^2 + 3*x*y - y^2",    # integral terms only
    "2*x^3 - x*y^2 + 7*y^3",
    "1/2*x^2 - 3/4*y^2",    # num/den terms only
    "x*y + 2/3*y^2 - 4/2*x^2",
    "x - x + y",            # integral terms that cancel
    "5",
])
def test_parse_form_returns_fractions(text):
    assert _all_fractions(parse_form(text))


def test_returned_forms_hold_fractions():
    ideal = parse_ideal_text("x^2*y + x*y^2\nx^3 - 2*y^3\ntruncate: 6\n")
    returned = [common_factor(ideal, d) for d in range(3, 6)]
    returned.append(power_pairing(ideal, 4))
    returned.append(gcd_forms(parse_form("2*x^2 - 2*y^2"), parse_form("4*x*y + 4*y^2")))
    returned.append(gcd_forms(parse_form("3*x*y"), parse_form("0")))
    image = substitute_ideal(ideal, LinearChange(2, 1, Fraction(1, 3), 5))
    returned += image.generators
    for entries in [(1, 2, 3, 2, 1), (1, 2, 2, 1, 1)]:
        returned += sample_ideal(entries, 0).generators
    for form in returned:
        assert _all_fractions(form), form
