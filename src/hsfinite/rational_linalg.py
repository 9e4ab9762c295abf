"""Exact rational row spaces in reduced row-echelon form.

Scalars are ``fractions.Fraction`` at the interface, and no operation ever
rounds.  Inside, ``rref`` eliminates over the integers: rows are scaled to
integers and combined fraction-free (Gauss-Jordan, each updated row divided
by its content; cf. Bareiss, *Math. Comp.* 1968).

A ``RowBasis`` keeps each row of the RREF grid as the primitive integer row
with a positive pivot.  That scaling is unique, so the integer rows are as
canonical as the grid: span equality is a literal comparison of them
instead of a pair of containment checks.  Callers that continue the
arithmetic (the next graded component, the common factor of a component)
read them and never leave the integers; the unit-pivot ``Fraction`` grid is
built only for a caller that reads it.

Membership needs no elimination: ``RowBasis.annihilator`` reads one integer
functional per free column off the integer rows, and together they cut out
the row space, so ``contains`` is a few sparse dot products.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _integer_row(vec):
    """A positive integer multiple of a row of ints and Fractions; a row of
    ints is returned as it is."""
    try:
        gcd(*vec)  # takes ints only: the row's type test, in one C call
    except TypeError:
        scale = lcm(*(c.denominator for c in vec))
        return [c.numerator * (scale // c.denominator) for c in vec]
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
    ``rows``, the unit-pivot ``Fraction`` grid, is built on first read.  A
    basis built from ``rows`` alone derives the rest from them.  Two bases
    are equal when their column counts and integer rows are."""

    def __init__(self, ncols: int, rows=None, integer_rows=None, pivots=None):
        self.ncols = ncols
        if integer_rows is None:
            self.rows = tuple(rows)
            pivots = tuple(next((j for j, c in enumerate(row) if c), None)
                           for row in self.rows)
            if None in pivots:
                raise ValueError("row %d is zero: a basis has no zero rows"
                                 % pivots.index(None))
            integer_rows = tuple(_primitive_row(_integer_row(row), col)
                                 for row, col in zip(self.rows, pivots))
        self.integer_rows = integer_rows
        self.pivots = pivots

    @functools.cached_property
    def rows(self) -> tuple:
        return tuple(
            tuple(_ZERO if a == 0 else _ONE if a == row[col] else Fraction(a, row[col])
                  for a in row)
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


def rref(rows, ncols: int | None = None) -> RowBasis:
    """Reduced row-echelon basis of the span of ``rows`` (ints or Fractions).

    ``ncols`` is only needed when ``rows`` is empty; otherwise it is inferred
    and every row must have that length.
    """
    mat = [_integer_row(r) for r in rows]
    if not mat:
        if ncols is None:
            raise ValueError("rref of no rows needs an explicit column count")
        return RowBasis(ncols, integer_rows=(), pivots=())
    width = len(mat[0])
    if ncols is not None and ncols != width:
        raise ValueError("declared column count %d != row length %d" % (ncols, width))
    if width < 1:
        raise ValueError("rows must have length >= 1")
    if any(len(r) != width for r in mat):
        raise ValueError("ragged input: row lengths differ")

    pivots = []
    for col in range(width):
        rank = len(pivots)
        src = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if src is None:
            continue
        mat[rank], mat[src] = mat[src], mat[rank]
        row_p = mat[rank]
        p = row_p[col]
        for i, row in enumerate(mat):
            f = row[col]
            if f and i != rank:
                row = [p * a - f * b for a, b in zip(row, row_p)]
                g = gcd(*row)
                mat[i] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
    # rows past the rank were reduced to zero
    ints = tuple(_primitive_row(row, col) for row, col in zip(mat, pivots))
    return RowBasis(width, integer_rows=ints, pivots=tuple(pivots))


def contains(basis: RowBasis, vec) -> bool:
    """True iff ``vec`` (ints or Fractions, unscaled: the dot products are
    exact on either) lies in the row span, i.e. no functional of
    ``basis.annihilator`` is nonzero on it."""
    if len(vec) != basis.ncols:
        raise ValueError("vector length %d != column count %d" % (len(vec), basis.ncols))
    return not any(sum(c * vec[j] for j, c in functional)
                   for functional in basis.annihilator)


def spaces_equal(a: RowBasis, b: RowBasis) -> bool:
    """Span equality, exact because the integer rows of the RREF are
    canonical."""
    if a.ncols != b.ncols:
        raise ValueError("column counts differ: %d vs %d" % (a.ncols, b.ncols))
    return a.integer_rows == b.integer_rows
