"""Graded components and ideal equality, kept independent of the package's
shortcuts.

``component`` builds each degree from the memoized degree below it,
``equal_ideals`` proves equality by containment, and ``substitute_ideal``
carries a sequence over to the image.  Tests that check ``component`` or
confirm a returned witness use these helpers instead, so that a fault in
one of those shortcuts cannot confirm its own result.  Each degree is
row-reduced from every monomial multiple of every generator, with no memo;
from the truncation degree on it is the whole space.
"""

from hsfinite import form_to_vector, monomials, multiply, rref, spaces_equal

MAX_DEGREE = 64


def reference_component(ideal, degree):
    """RREF basis of I_d from all monomial multiples of the generators."""
    if ideal.truncation is not None and degree >= ideal.truncation:
        rows = [form_to_vector(m, degree) for m in monomials(degree)]
    else:
        rows = [form_to_vector(multiply(m, g), degree)
                for g in ideal.generators if g.degree <= degree
                for m in monomials(degree - g.degree)]
    return rref(rows, ncols=degree + 1)


def componentwise_equal(a, b):
    """Equality of two ideals of finite colength: every component agrees,
    from degree 0 up to the first degree where ``a``'s is the whole space."""
    for d in range(MAX_DEGREE):
        basis = reference_component(a, d)
        if not spaces_equal(basis, reference_component(b, d)):
            return False
        if basis.rank == d + 1:
            return True
    raise AssertionError("no full component below degree %d" % MAX_DEGREE)
