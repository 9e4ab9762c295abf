"""Graded components and ideal equality, kept independent of the package's
shortcuts.

``component`` builds each degree from the memoized degree below it,
``equal_ideals`` proves equality by containment, and ``substitute_ideal``
carries a sequence over to the image.  Tests that check ``component`` or
confirm a returned witness use these helpers instead, so that a fault in
one of those shortcuts cannot confirm its own result.  Each degree is
row-reduced from every monomial multiple of every generator, with no memo;
from the truncation degree on it is the whole space.  A monomial multiple
x^i * y^j * g of a form g is its coefficient tuple with i zeros in front
and j behind, so no product is computed.

The ``Fraction`` views that only tests read are built here too, from the
integer data the package keeps: the unit-pivot grid of a ``RowBasis``, the
quotient of two forms by long division, the inverse of a ``LinearChange``
and the role points of an analysis, read off its role table and
normalized to (1, t) or (0, 1).
"""

from fractions import Fraction

from hsfinite import LinearChange, rref
from hsfinite.forms import _normalize_point, _point_key

MAX_DEGREE = 64


def monomial_multiples(coeffs, degree):
    """The rows of every degree-d monomial multiple of the form with these
    coefficients, highest x-power first."""
    k = degree + 1 - len(coeffs)
    return [(0,) * i + tuple(coeffs) + (0,) * (k - i) for i in range(k, -1, -1)]


def multiples_basis(form, degree):
    """RREF basis of the span of every degree-d multiple of a nonzero form."""
    return rref(monomial_multiples(form.coeffs, degree), ncols=degree + 1)


def reference_component(ideal, degree):
    """RREF basis of I_d from all monomial multiples of the generators."""
    if ideal.truncation is not None and degree >= ideal.truncation:
        rows = monomial_multiples((1,), degree)
    else:
        rows = [row for g in ideal.generators if g.degree <= degree
                for row in monomial_multiples(g.coeffs, degree)]
    return rref(rows, ncols=degree + 1)


def componentwise_equal(a, b):
    """Equality of two ideals of finite colength: every component agrees,
    from degree 0 up to the first degree where ``a``'s is the whole space."""
    for d in range(MAX_DEGREE):
        basis = reference_component(a, d)
        if basis != reference_component(b, d):
            return False
        if basis.rank == d + 1:
            return True
    raise AssertionError("no full component below degree %d" % MAX_DEGREE)


def long_divide(f, h):
    """f / h for the coefficient tuples of forms, h dividing f: the power
    of x in h is divided out, then the quotient is read off from the x^0
    end, one Fraction division per coefficient."""
    a = next(i for i, c in enumerate(h) if c)
    assert not any(f[:a])
    rest, h = [Fraction(c) for c in f[a:]], h[a:]
    quotient = []
    for k in range(len(rest) - len(h) + 1):
        c = rest[k] / h[0]
        quotient.append(c)
        for i, v in enumerate(h):
            rest[k + i] -= c * v
    assert not any(rest)
    return quotient


def fraction_rows(basis):
    """The unit-pivot ``Fraction`` grid of an RREF basis: each primitive
    integer row divided by its pivot entry."""
    return tuple(tuple(Fraction(a, row[col]) for a in row)
                 for row, col in zip(basis.integer_rows, basis.pivots))


def inverse(change):
    """The inverse substitution of a ``LinearChange``, in ``Fraction``s."""
    det = change.determinant
    return LinearChange(Fraction(change.d, det), Fraction(-change.b, det),
                        Fraction(-change.c, det), Fraction(change.a, det))


# the order of the roles in ``marked_roles``: the runs, then theta, then the
# pencils, whichever degree ``_analyze`` met them at
_ROLE_ORDER = {"run": 0, "theta": 1, "pencil": 2}


def marked_roles(analysis):
    """The role points of an analysis, (tag, {point: multiplicity}) pairs
    with each line point normalized to (1, t) or (0, 1), as the witness
    tests and the golden lines read them: the runs, then theta, then the
    pencils; the run and theta points in the order of their roots, each
    pencil's in ``_point_key`` order."""
    roles = []
    for tag, roots, line in sorted(analysis.roles, key=lambda role: _ROLE_ORDER[role[0][0]]):
        points = [(line(*root), mult) for root, mult in roots.points]
        if tag[0] == "pencil":
            points.sort(key=lambda item: _point_key(item[0]))
        roles.append((tag, {_normalize_point(pt): mult for pt, mult in points}))
    return roles
