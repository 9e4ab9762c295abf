"""Exact rational row spaces in reduced row-echelon form.

Scalars are ``fractions.Fraction`` at the interface, and no operation ever
rounds.  Inside, ``rref`` is one insertion routine over the integers: each
row, scaled to integers, is reduced fraction-free against the basis built so
far, which may start from a ``base`` already reduced, and a nonzero
remainder clears its pivot column from the basis rows; every combined row
is divided by its content (cf. Bareiss, *Math. Comp.* 1968).  A caller that
knows most of a row space already, such as the next graded component, hands
that part in as the base and inserts only the rest.

A ``RowBasis`` keeps each row of the RREF grid as the primitive integer row
with a positive pivot.  That scaling is unique, so the integer rows are as
canonical as the grid: span equality is a literal comparison of them
instead of a pair of containment checks.  Callers that continue the
arithmetic (the next graded component, the common factor of a component)
read them and never leave the integers; the unit-pivot ``Fraction`` grid
``rows`` is built only for a caller that reads it, by ``forms._form_of``,
and ``_integer_row`` scales a ``Fraction`` row by ``forms._scaled``.

Membership needs no elimination: ``RowBasis.annihilator`` reads one integer
functional per free column off the integer rows, and together they cut out
the row space, so ``contains`` is a few sparse dot products.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from math import gcd, lcm

from .forms import _form_of, _scaled


def _integer_row(vec):
    """A positive integer multiple of a row of ints and Fractions; a row of
    ints is returned as it is."""
    try:
        gcd(*vec)  # takes ints only: the row's type test, in one C call
    except TypeError:
        return _scaled(vec)[0]
    return vec


def _primitive_row(row, col):
    """A nonzero integer row divided by its content, signed so that the
    entry in column ``col`` is positive."""
    g = gcd(*row)
    if row[col] < 0:
        g = -g
    return tuple(a // g for a in row)


class RowBasis:
    """RREF basis of a row space: nonzero rows, unit pivots strictly moving
    right, pivot columns cleared above and below.  Row count equals rank.

    The basis is stored as ``integer_rows``, each row as the primitive
    integer row with a positive pivot, and ``pivots``, their pivot columns.
    ``rows``, the unit-pivot ``Fraction`` grid, is built on first read.  The
    constructor takes the integer rows and pivots of an RREF grid
    unchecked.  Two bases are equal when their column counts and integer
    rows are."""

    def __init__(self, ncols: int, integer_rows: tuple, pivots: tuple):
        self.ncols = ncols
        self.integer_rows = integer_rows
        self.pivots = pivots

    @functools.cached_property
    def rows(self) -> tuple:
        return tuple(_form_of(row, row[col]).coeffs
                     for row, col in zip(self.integer_rows, self.pivots))

    @functools.cached_property
    def annihilator(self) -> tuple:
        """Functionals whose common kernel is the row space, one per free
        column f, as sparse (column, coefficient) pairs: L at f and
        -R[f] * L / R[p] at the pivot p of each integer row R, where L is
        the lcm of the pivots.  So they span the dual of the complement."""
        scale = lcm(*(row[col] for row, col in zip(self.integer_rows, self.pivots)))
        pivots = set(self.pivots)
        return tuple(
            ((f, scale),) + tuple((col, -row[f] * (scale // row[col]))
                                  for row, col in zip(self.integer_rows, self.pivots)
                                  if row[f])
            for f in range(self.ncols) if f not in pivots)

    @property
    def rank(self) -> int:
        return len(self.integer_rows)

    def __eq__(self, other):
        if not isinstance(other, RowBasis):
            return NotImplemented
        return self.ncols == other.ncols and self.integer_rows == other.integer_rows

    def __hash__(self):
        return hash((self.ncols, self.integer_rows))

    def __repr__(self):
        return "RowBasis(ncols=%d, integer_rows=%r)" % (self.ncols, self.integer_rows)


def identity_basis(ncols: int) -> RowBasis:
    """The whole space, whose RREF grid is the identity."""
    ints = tuple((0,) * i + (1,) + (0,) * (ncols - 1 - i) for i in range(ncols))
    return RowBasis(ncols, integer_rows=ints, pivots=tuple(range(ncols)))


def rref(rows, ncols: int | None = None, base: RowBasis | None = None) -> RowBasis:
    """Reduced row-echelon basis of the span of ``rows`` (ints or Fractions)
    together with the row space of ``base``, an RREF basis already reduced.

    Each row is inserted in turn: it is reduced against every basis row with
    a nonzero entry in that row's pivot column, and a nonzero remainder,
    made primitive, clears its own pivot column from the basis rows and
    joins them.  ``ncols`` is only needed when ``rows`` is empty and no
    ``base`` is given; otherwise it is inferred and every row must have that
    length.
    """
    mat = [_integer_row(r) for r in rows]
    if base is not None:
        width = base.ncols
    elif mat:
        width = len(mat[0])
    elif ncols is None:
        raise ValueError("rref of no rows needs an explicit column count")
    else:
        width = ncols
    if ncols is not None and ncols != width:
        raise ValueError("declared column count %d != row length %d" % (ncols, width))
    if mat and width < 1:
        raise ValueError("rows must have length >= 1")
    if any(len(r) != width for r in mat):
        raise ValueError("ragged input: row lengths differ")

    basis = list(base.integer_rows) if base is not None else []
    pivots = list(base.pivots) if base is not None else []
    for row in mat:
        for b, p in zip(basis, pivots):
            f = row[p]
            if f:
                g = gcd(f, b[p])
                q, f = b[p] // g, f // g
                row = [q * a - f * c for a, c in zip(row, b)]
        col = next((j for j, a in enumerate(row) if a), None)
        if col is None:
            continue
        row = _primitive_row(row, col)
        lead = row[col]
        for i, b in enumerate(basis):
            f = b[col]
            if f:
                g = gcd(f, lead)
                q, f = lead // g, f // g
                # the pivot of b is not a column of row, so it stays positive
                basis[i] = _primitive_row([q * a - f * c for a, c in zip(b, row)],
                                          pivots[i])
        i = bisect_right(pivots, col)
        basis.insert(i, row)
        pivots.insert(i, col)
    return RowBasis(width, integer_rows=tuple(basis), pivots=tuple(pivots))


def contains(basis: RowBasis, vec) -> bool:
    """True iff ``vec`` (ints or Fractions, unscaled: the dot products are
    exact on either) lies in the row span, i.e. no functional of
    ``basis.annihilator`` is nonzero on it."""
    if len(vec) != basis.ncols:
        raise ValueError("vector length %d != column count %d" % (len(vec), basis.ncols))
    return not any(sum(c * vec[j] for j, c in functional)
                   for functional in basis.annihilator)
