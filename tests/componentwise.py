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
"""

from hsfinite import rref

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
