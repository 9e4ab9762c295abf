"""Componentwise ideal equality, kept independent of ``equal_ideals``.

``equal_ideals`` proves equality by containment and trusts a sequence that
``substitute_ideal`` carries over to the image.  Tests that confirm a
returned witness use this helper instead, so that a fault in either shortcut
cannot confirm its own result: both ideals are rebuilt from their
generators, and every graded component up to the socle is compared.
"""

from hsfinite import GradedIdeal, component, hilbert_samuel, spaces_equal


def componentwise_equal(a, b):
    a = GradedIdeal(a.generators, a.truncation)
    b = GradedIdeal(b.generators, b.truncation)
    seq = hilbert_samuel(a)
    if seq != hilbert_samuel(b):
        return False
    return all(spaces_equal(component(a, d).basis, component(b, d).basis)
               for d in range(len(seq)))
