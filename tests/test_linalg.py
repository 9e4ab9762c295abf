"""Row reduction over exact rationals."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from componentwise import fraction_rows
from hsfinite import contains, rref


def test_proportional_rows_collapse():
    basis = rref([[2, 4], [1, 2]])
    assert fraction_rows(basis) == ((Fraction(1), Fraction(2)),)
    assert basis.rank == 1


def test_identity_case():
    basis = rref([[1, 0], [0, 1]])
    assert fraction_rows(basis) == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert basis.rank == 2


def test_hand_reduced_example():
    # by-hand row reduction: r2 - 2 r1 = 0, r3 - r1 = (0,0,-1), normalize,
    # clear column 2 from the first row
    basis = rref([[2, 1, 1], [4, 2, 2], [2, 1, 0]])
    assert fraction_rows(basis) == (
        (Fraction(1), Fraction(1, 2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )
    assert basis.rank == 2


# (rows, ncols, error): each check of rref's input, in the order they are
# made: the width comes from the first row, and a declared ncols that
# differs from it is reported before a zero width, a zero width before
# ragged rows
_BAD_INPUTS = (
    ([], None, "rref of no rows needs an explicit column count"),
    ([[1, 2]], 3, "declared column count 3 != row length 2"),
    ([[1, 2], [1, 2, 3]], 3, "declared column count 3 != row length 2"),
    ([[Fraction(1, 2), 1]], 1, "declared column count 1 != row length 2"),
    ([[1]], 0, "declared column count 0 != row length 1"),
    ([[]], None, "rows must have length >= 1"),
    ([[]], 0, "rows must have length >= 1"),
    ([[], [1]], None, "rows must have length >= 1"),
    ([[1, 2], [1]], None, "ragged input: row lengths differ"),
    ([[1, 2], [1]], 2, "ragged input: row lengths differ"),
    ([[1, 2], [Fraction(1, 3), 2, 3]], None, "ragged input: row lengths differ"),
)


def test_ragged_input_rejected():
    for rows, ncols, error in _BAD_INPUTS:
        with pytest.raises(ValueError, match="^%s$" % re.escape(error)):
            rref(rows, ncols=ncols)
    # Fraction rows are scaled to the same integer rows as their multiples
    scaled = rref([[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(5, 7)]])
    assert scaled == rref([[3, 2], [0, 5]])
    assert scaled.integer_rows == ((1, 0), (0, 1))
    assert rref([[Fraction(2, 3), Fraction(4, 3), 2]], ncols=3).integer_rows == ((1, 2, 3),)


def test_empty_input_needs_ncols():
    assert rref([], ncols=4).rank == 0
    with pytest.raises(ValueError):
        rref([])


def test_contains_examples():
    basis = rref([[1, 2]])
    assert contains(basis, [3, 6])
    assert not contains(basis, [1, 0])
    mixed = rref([[Fraction(1), Fraction(1, 2), Fraction(0)],
                  [Fraction(0), Fraction(0), Fraction(1)]])
    assert contains(mixed, [2, 1, 5])  # 2*row1 + 5*row2
    with pytest.raises(ValueError):
        contains(basis, [1, 2, 3])


def test_spaces_equal_examples():
    # two bases are equal when they span one space: their RREF is canonical
    assert rref([[1, 1], [0, 1]]) == rref([[1, 0], [0, 1]])
    assert rref([[1, 2]]) != rref([[1, 3]])
    # span{x^2, x^2 + y^2} = span{x^2, y^2} as coefficient rows
    assert rref([[1, 0, 0], [1, 0, 1]]) == rref([[1, 0, 0], [0, 0, 1]])
    # spaces of different column counts are never equal
    assert rref([[1, 2]]) != rref([[1, 2, 3]])
    assert rref([], ncols=2) != rref([], ncols=3)


def _random_matrix(rng, rows, cols):
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)]


def test_rref_idempotent_and_rank_bounds():
    rng = random.Random(0)
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = _random_matrix(rng, rows, cols)
        basis = rref(mat)
        assert basis.rank <= min(rows, cols)
        again = rref(fraction_rows(basis), ncols=cols)
        assert again == basis
        for row in mat:
            assert contains(basis, row)


def test_concatenation_rank_monotone():
    rng = random.Random(1)
    for _ in range(50):
        cols = rng.randint(1, 5)
        a = _random_matrix(rng, rng.randint(1, 4), cols)
        b = _random_matrix(rng, rng.randint(1, 4), cols)
        joint = rref(a + b).rank
        assert joint >= max(rref(a).rank, rref(b).rank)


def test_spaces_equal_is_equivalence_on_shuffled_spans():
    rng = random.Random(2)
    for _ in range(50):
        cols = rng.randint(2, 5)
        mat = _random_matrix(rng, rng.randint(2, 4), cols)
        # same span, different presentation: row swaps plus adding multiples
        mixed = [row[:] for row in mat]
        rng.shuffle(mixed)
        if len(mixed) >= 2:
            factor = Fraction(rng.randint(-3, 3))
            mixed[0] = [a + factor * b for a, b in zip(mixed[0], mixed[1])]
        assert rref(mat) == rref(mixed)


def _reference_rref(rows, width):
    """Gauss-Jordan elimination in Fraction arithmetic, the algorithm the
    integer kernel replaced: unit pivot first, then clear its column."""
    mat = [[Fraction(c) for c in r] for r in rows]
    pivot_row = 0
    for col in range(width):
        src = next((i for i in range(pivot_row, len(mat)) if mat[i][col] != 0), None)
        if src is None:
            continue
        mat[pivot_row], mat[src] = mat[src], mat[pivot_row]
        inv = 1 / mat[pivot_row][col]
        mat[pivot_row] = [c * inv for c in mat[pivot_row]]
        for i in range(len(mat)):
            if i != pivot_row and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row] if any(c != 0 for c in r))


_BIG = 10 ** 40
_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.integers(-_BIG, _BIG),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
)


@st.composite
def _matrices(draw):
    """Width and rows of ints and Fractions, with zero rows, repeated rows
    and combinations of rows mixed in so that the rank drops."""
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=width, max_size=width),
                         max_size=6))
    for kind in draw(st.lists(st.sampled_from(("zero", "copy", "combination")),
                              max_size=4)):
        if kind == "zero" or not rows:
            rows.append(draw(st.sampled_from(([0] * width, [Fraction(0)] * width))))
        elif kind == "copy":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(_ENTRIES)
            rows.append([u + c * v for u, v in zip(a, b)])
    return width, draw(st.permutations(rows))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_matrices())
def test_rref_matches_fraction_gauss_jordan(case):
    width, rows = case
    basis = rref(rows, ncols=width)
    reference = _reference_rref(rows, width)
    # each integer row is the reference's unit-pivot row scaled to a
    # primitive integer row, whose pivot is then positive
    assert len(basis.integer_rows) == basis.rank == len(reference)
    for ints, row, col in zip(basis.integer_rows, reference, basis.pivots):
        assert all(type(a) is int for a in ints)
        assert next(i for i, c in enumerate(row) if c) == col and row[col] == 1
        scale = math.lcm(*(c.denominator for c in row))
        numerators = [int(c * scale) for c in row]
        content = math.gcd(*numerators)
        assert list(ints) == [a // content for a in numerators]
        assert math.gcd(*ints) == 1 and ints[col] > 0


def _reference_contains(basis, vec):
    """Elimination of a Fraction vector against the unit-pivot rows."""
    v = [Fraction(c) for c in vec]
    for row, col in zip(fraction_rows(basis), basis.pivots):
        f = v[col]
        if f != 0:
            v = [a - f * b for a, b in zip(v, row)]
    return all(c == 0 for c in v)


@st.composite
def _spans_and_vectors(draw):
    """A matrix and a combination of its rows, often nudged off the span in
    one column."""
    width, rows = draw(_matrices())
    vec = [0] * width
    for row in rows:
        c = draw(_ENTRIES)
        vec = [a + c * b for a, b in zip(vec, row)]
    if draw(st.booleans()):
        vec[draw(st.integers(0, width - 1))] += draw(_ENTRIES)
    return width, rows, vec


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_spans_and_vectors())
@example((3, [], [0, 0, 0]))  # rank 0: every column is free
@example((3, [[0, 0, 0]], [0, Fraction(1, 2), 0]))
@example((2, [[1, 2], [3, 4]], [5, Fraction(7, 3)]))  # full rank: no functional
def test_contains_matches_fraction_elimination(case):
    """``contains`` tests the complement functionals of ``annihilator``: one
    integer functional per free column, each vanishing on every row."""
    width, rows, vec = case
    basis = rref(rows, ncols=width)
    assert len(basis.annihilator) == width - basis.rank
    for functional in basis.annihilator:
        assert all(type(c) is int and c for _, c in functional)
        for row in basis.integer_rows:
            assert sum(c * row[j] for j, c in functional) == 0
    assert contains(basis, vec) == _reference_contains(basis, vec)


@st.composite
def _two_matrices(draw):
    """Two matrices of one width, the second often sharing rows or
    combinations of rows with the first."""
    width, first = draw(_matrices())
    second = draw(st.lists(st.lists(_ENTRIES, min_size=width, max_size=width),
                           max_size=4))
    for kind in draw(st.lists(st.sampled_from(("copy", "combination")), max_size=3)):
        if not first:
            break
        a = draw(st.sampled_from(first))
        if kind == "copy":
            second.append(list(a))
        else:
            b, c = draw(st.sampled_from(first)), draw(_ENTRIES)
            second.append([u + c * v for u, v in zip(a, b)])
    return width, first, draw(st.permutations(second))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_two_matrices())
@example((2, [], []))
@example((3, [[1, 0, 2]], [[2, 0, 4], [0, 0, 0]]))  # nothing new: the base comes back
@example((3, [[0, 1, 0]], [[1, 5, 0], [0, 3, 1]]))  # new pivots left of the base's
def test_rref_with_a_base_matches_rref_of_all_rows(case):
    """Rows inserted into an already reduced basis give the RREF of all the
    rows together: the same primitive integer rows and pivots."""
    width, first, second = case
    base = rref(first, ncols=width)
    joint = rref(first + second, ncols=width)
    grown = rref(second, base=base)
    assert grown.integer_rows == joint.integer_rows
    assert grown.pivots == joint.pivots
    assert rref(second, ncols=width, base=base) == joint
    assert base == rref(first, ncols=width)  # the base is left as it was


def test_rref_with_a_base_checks_the_width():
    # the base sets the width: a declared ncols that differs is reported
    # before any row is read, and a row of another width is ragged
    base = rref([[1, 2, 3]])
    for rows, ncols, error in (
            ([], 2, "declared column count 2 != row length 3"),
            ([[1, 2]], 2, "declared column count 2 != row length 3"),
            ([[1, 2]], None, "ragged input: row lengths differ"),
            ([[1, 2, 3], [1, 2, 3, 4]], 3, "ragged input: row lengths differ"),
            ([[Fraction(1, 2), 1]], None, "ragged input: row lengths differ")):
        with pytest.raises(ValueError, match="^%s$" % re.escape(error)):
            rref(rows, ncols=ncols, base=base)
    # a zero-width base takes no rows, not even empty ones
    empty = rref([], ncols=0)
    assert empty.rank == 0 and rref([], base=empty) == empty
    for rows in ([[]], [[1]]):
        with pytest.raises(ValueError, match="^rows must have length >= 1$"):
            rref(rows, base=empty)
    # a Fraction row is scaled before it is inserted into the base
    assert rref([[Fraction(1, 2), 0, 0]], ncols=3, base=base) == rref([[1, 2, 3], [1, 0, 0]])

