"""Homogeneous ideals of finite colength in K[x, y].

An ideal is a list of nonzero homogeneous generators plus an optional
truncation degree D, which adjoins every form of degree >= D (the power of
the maximal ideal (x, y)^D).  Each generator is held as an integer
coefficient list with a positive denominator: ideals are read from text,
sampled and substituted as such lists, which the components, the sequence
and the containment test ``_carries_into`` (of ``equal_ideals`` and of the
witness check in ``catalog``) read directly, and the ``BinaryForm``
generators are built only when first read.  Graded
components are row spaces, column i holding x^i y^(d-i) as in
``BinaryForm.coeffs``, built on demand and memoized; past the degree where
the sequence persists, a component is written down as the multiples of the
persistent factor.  The common factor
of a component and the power pairing are integer coefficient lists
(``_factor_list``, ``_pairing_list``) read off the primitive integer rows,
which ``common_factor`` and ``power_pairing`` return as monic forms.
"""

from __future__ import annotations

import operator
from functools import reduce
from math import comb

from .errors import EmptyComponent, NotArtinian, PairingUndefined, ParseError, parse_natural
from .forms import (
    BinaryForm,
    _form_gcd,
    _form_of,
    _format_list,
    _monic_form,
    _parse_list,
    _scaled,
    _substitution,
    format_form,
)
from .rational_linalg import RowBasis, contains, identity_basis, rref


def _shifts(p, k: int) -> list:
    """The integer lists of the degree-k monomial multiples of a form, for
    its integer list p, highest x-power first."""
    return [[0] * i + list(p) + [0] * (k - i) for i in range(k, -1, -1)]


class GradedIdeal:
    """Immutable by convention; the only hidden state is a memo cache whose
    writes are idempotent, so concurrent readers need no coordination.  The
    components are filled by ``component``; the sequence by ``hilbert_samuel``,
    or by ``substitute_ideal`` when it builds an image of an ideal whose
    sequence is already known; the structural analysis by the isomorphism
    tester in ``catalog``; the ``generators`` view on its first read.

    The generators are stored as ``_lists``, (integer list, positive
    denominator) pairs whose quotients are the coefficients; the lists are
    never mutated, and are indexed by degree once, in ``_by_degree``.  The
    constructor takes forms and keeps them as the view; ``_of_lists`` takes
    the pairs of a producer that built valid ones."""

    def __init__(self, generators, truncation: int | None = None):
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, BinaryForm):
                raise TypeError("generators must be binary forms")
            if g.is_zero:
                raise ValueError("zero generator")
            if g.degree < 1:
                raise ValueError("constant generator makes the quotient trivial")
        if truncation is not None:
            truncation = operator.index(truncation)
            if truncation < 1:
                raise ValueError("truncation degree must be >= 1")
        self._start(tuple(_scaled(g.coeffs) for g in gens), truncation)
        self._generators = gens

    @classmethod
    def _of_lists(cls, pairs, truncation: int | None = None) -> "GradedIdeal":
        """The ideal of (integer list, positive denominator) pairs, each a
        nonzero list of length >= 2, unchecked."""
        ideal = cls.__new__(cls)
        ideal._start(tuple(pairs), truncation)
        return ideal

    def _start(self, pairs, truncation):
        self._lists = pairs
        self.truncation = truncation
        # the top degree is the highest below the truncation, 0 if none
        self._by_degree: dict = {}
        for v, _ in pairs:
            self._by_degree.setdefault(len(v) - 1, []).append(v)
        self._top_degree = max((d for d in self._by_degree
                                if truncation is None or d < truncation), default=0)
        self._generators = None
        self._components: dict = {}
        self._sequence = None
        self._analysis = None

    @property
    def generators(self) -> tuple:
        """The generators as forms, built from ``_lists`` on first read."""
        if self._generators is None:
            self._generators = tuple(_form_of(v, den) for v, den in self._lists)
        return self._generators

    def __repr__(self):
        gens = ", ".join(format_form(g) for g in self.generators)
        if self.truncation is None:
            return "GradedIdeal(%s)" % gens
        return "GradedIdeal(%s; truncate %d)" % (gens, self.truncation)


def component(ideal: GradedIdeal, degree: int) -> RowBasis:
    """RREF basis of the degree-d piece, memoized.  Missing degrees are built
    upward from the highest memoized one below: I_d = x*I_(d-1) + y*I_(d-1) +
    span(generators of degree d), and most of y*I_(d-1) lies in x*I_(d-1)
    already.  Let C be the rows of the RREF of I_(d-1) whose pivot p has p - 1
    outside the pivots of I_(d-2); as x shifts pivots by one, C spans
    I_(d-1) modulo x*I_(d-2).  Since y*I_(d-2) lies in I_(d-1), y*I_(d-1)
    lies in x*I_(d-1) + y*C, so I_d = x*I_(d-1) + y*C + span(generators of
    degree d).  x times an RREF basis is an RREF basis, so it goes to
    ``rref`` as the reduced base and only y*C and the generators are
    inserted.  When I_(d-2) is not memoized (past a skip, below), C is every
    row of I_(d-1).  When I_(d-1) is zero, I_d is the span of the
    generators of degree d, so a zero degree below the lowest generator
    calls no ``rref`` at all.  From the truncation degree on the component
    is the whole space, without row reduction.  Once the sequence persists at
    d - 1 (see ``hilbert_samuel``), I_(d-1) = h * S_(d-1-deg h), h is read
    off its last row (``_persistent_factor``), and the degree asked for is
    row-reduced from the multiples of h, skipping those between."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    memo = ideal._components
    if degree in memo:
        return memo[degree]
    top = ideal.truncation or degree + 1  # degrees >= top are the whole space
    first = degree
    while 0 < first < top and first - 1 not in memo:
        first -= 1
    for d in range(first, degree + 1):
        if d >= top:
            basis = identity_basis(d + 1)
        elif (d < degree and d - 2 in memo  # a skip needs degrees to skip
              and memo[d - 1].rank == memo[d - 2].rank + 1
              and d - 1 > ideal._top_degree):
            h = _persistent_factor(memo[d - 1])
            rows = _shifts(h, degree + 1 - len(h))
            memo[degree] = rref(rows, ncols=degree + 1)
            return memo[degree]
        else:
            basis = _extend(memo, d, ideal._by_degree.get(d, ()))
        memo[d] = basis
    return memo[degree]


def _extend(memo: dict, d: int, rows) -> RowBasis:
    """I_d as ``component`` builds it, C as defined there, from ``memo``'s
    I_(d-1) and I_(d-2) if held: ``rows`` and y*C inserted into x*I_(d-1).
    At d = 0 or when I_(d-1) is zero, I_d is the span of ``rows`` alone:
    the zero basis with no row reduction when there are none, else
    ``rows`` reduced with no base and no y-rows."""
    if not d or not memo[d - 1].rank:
        if not rows:
            return RowBasis(d + 1, integer_rows=(), pivots=())
        return rref(rows, ncols=d + 1)
    lower = memo[d - 1]
    led = {p + 1 for p in memo[d - 2].pivots} if d - 2 in memo else ()
    rows = [*rows, *[row + (0,) for row, p in zip(lower.integer_rows, lower.pivots)
                     if p not in led]]
    base = RowBasis(d + 1, integer_rows=tuple([(0,) + row for row in lower.integer_rows]),
                    pivots=tuple([p + 1 for p in lower.pivots]))
    return rref(rows, base=base)


def hilbert_samuel(ideal: GradedIdeal) -> tuple:
    """The sequence t_d = dim K[x,y]_d / I_d, trailing zeros removed.

    Components are built upward until the first full one (see ``component``)
    or until the sequence persists.  The walk stops before the truncation
    degree D: I_D is the whole space, so t_D = 0, and it builds no full
    component (``component`` still builds one when asked for degree D).
    Past the highest generator degree e below the truncation,
    I_d = S_1 * I_(d-1), and for a nonzero V in S_(d-1) dim S_1 * V >=
    dim V + 1, with equality only when V = h * S_(d-1-deg h)
    (Gotzmann persistence in two variables, *Math. Z.* 158, 1978).  So once
    d > e and t_d = t_(d-1), t stays constant up to the truncation, and
    those components are not built.  Without a truncation this cannot
    happen, as h would divide every generator.  Raises NotArtinian when the
    generators share a nonconstant factor and no truncation is present
    (infinite colength).
    """
    if ideal._sequence is not None:
        return ideal._sequence
    if ideal.truncation is None:
        if not ideal._lists:
            raise NotArtinian("no generators and no truncation")
        g = reduce(_form_gcd, [v for v, _ in ideal._lists])
        if len(g) > 1:  # named monic: a lone generator is its own g, of either sign
            lead = next(c for c in reversed(g) if c)
            raise NotArtinian("not Artinian: common factor %s" % _format_list(
                [c if lead > 0 else -c for c in g], abs(lead)))
    last = ideal._top_degree
    # I_d is full by the truncation.  Without one, the generators have no
    # common factor, so I_last, spanned by their multiples, holds two coprime
    # forms; they generate a complete intersection of socle degree
    # 2 * last - 2 inside I.
    bound = ideal.truncation or 2 * last - 1

    ts = []
    prev_rank = 0
    for d in range(bound + 2):
        if d == ideal.truncation:
            break  # I_D is the whole space: t_D = 0, and its basis is not built
        r = component(ideal, d).rank
        if prev_rank > 0 and r < prev_rank + 1:
            raise AssertionError("component ranks stalled at degree %d" % d)
        prev_rank = r
        if r == d + 1:
            break
        ts.append(d + 1 - r)
        if d > last and ts[-1] == ts[-2]:
            ts += ts[-1:] * (bound - 1 - d)  # bound is the truncation here
            break
    else:
        raise AssertionError("exceeded termination bound %d" % bound)
    seq = tuple(ts)
    ideal._sequence = seq
    return seq


def _persistent_factor(basis: RowBasis):
    """h as an integer list, up to sign, for a component h * S_(r-1) of
    rank r: its last row with the first r - 1 entries dropped.  The
    multiples x^i * y^(r-1-i) * h have their pivots at a + i, a the
    x-valuation of h, so x^(r-1) * h, zero left of a + r - 1, is the last
    row of the RREF grid, and primitive as h is."""
    return basis.integer_rows[-1][basis.rank - 1:]


def _factor_list(basis: RowBasis):
    """The GCD of a nonzero component as integer coefficients, its y-power
    as trailing zeros, by ``_form_gcd`` over the integer rows.

    The fold starts from ``_persistent_factor`` c, the last row x^(r-1) * c
    of pivot at least r - 1, r the rank, and c's x-valuation is at least
    the first pivot, the x-valuation of the gcd: dropping x^(r-1) leaves
    the gcd as it is.  c is the gcd exactly when the component is
    h * S_(r-1), which holds where the sequence persists, t_(d+1) = t_d
    (Gotzmann, see ``hilbert_samuel``); a caller that knows this reads c
    and folds nothing.  Elsewhere it need not be: (x^2, y^2) has sequence
    (1, 2, 1), and its degree-2 component has c = x but gcd 1.  The
    result, primitive with a positive lead, is the fold over all the rows;
    a basis of one row gives that row."""
    rows = basis.integer_rows
    return reduce(_form_gcd, rows[:-1], list(_persistent_factor(basis)))


def common_factor(ideal: GradedIdeal, degree: int) -> BinaryForm:
    """Monic GCD of a basis of the degree-d component; see ``_factor_list``."""
    basis = component(ideal, degree)
    if not basis.rank:
        raise EmptyComponent("component of degree %d is zero" % degree)
    return _monic_form(_factor_list(basis))


def _pairing_list(ideal: GradedIdeal, m: int) -> list:
    """``power_pairing`` as an integer coefficient list, up to scale."""
    basis = component(ideal, m)
    if basis.rank != m:
        raise PairingUndefined("t_%d = %d, pairing needs 1" % (m, m + 1 - basis.rank))
    # the one complement functional, weighted as (a*x + b*y)^m expands
    lam = dict(basis.annihilator[0])
    coeffs = [comb(m, i) * lam.get(i, 0) for i in range(m + 1)]
    if not any(coeffs):
        raise AssertionError("power pairing vanished identically")
    return coeffs


def power_pairing(ideal: GradedIdeal, m: int) -> BinaryForm:
    """The form F(a, b) = class of (a*x + b*y)^m in the line K[x,y]_m / I_m,
    written in the dual variables and scalar-normalized.

    Only defined when t_m = 1.  Callers must consume scale-invariant data
    only (in practice: its multiplicity partition).
    """
    return _monic_form(_pairing_list(ideal, m))


def substitute_ideal(ideal: GradedIdeal, change) -> GradedIdeal:
    """Apply a linear substitution to every generator; truncation is stable
    because (x, y)^D is preserved by any invertible change.  The image
    inherits the source's memoized sequence, if one was computed.  The
    integer lists are mapped by the kernel of ``forms.substitute``:
    with den the common denominator of the matrix, a list of degree d over
    its denominator s maps by den * change to a list over s * den^d."""
    entries, den = _scaled((change.a, change.b, change.c, change.d))
    mapped = _substitution(*entries)
    image = GradedIdeal._of_lists(
        [(mapped(v), s * den ** (len(v) - 1)) for v, s in ideal._lists],
        ideal.truncation)
    # an invertible linear change is a graded automorphism of K[x, y]
    image._sequence = ideal._sequence
    return image


# the images of an integer list under the identity key and the swap key
_KNOWN_IMAGES = {(1, 0, 0, 1): lambda p: p, (0, 1, 1, 0): lambda p: p[::-1]}


def _carries_into(left: GradedIdeal, right: GradedIdeal):
    """The containment test on a key (a, b, c, d): is every generator of
    ``left`` of degree below ``len(seq)`` mapped by the key into ``right``?
    For ideals of one sequence this is equality of the image and ``right``
    (see ``equal_ideals``).  The generators are read as their integer lists,
    and each key stops at the first image outside ``right``.  The identity
    maps a list to itself and the swap x <-> y to its reverse, so neither is
    built by ``_substitution``."""
    below = len(hilbert_samuel(left))
    lists = [v for v, _ in left._lists if len(v) <= below]

    def carries(key):
        image = _KNOWN_IMAGES.get(key) or _substitution(*key)
        return all(contains(component(right, len(p) - 1), image(p))
                   for p in lists)

    return carries


def equal_ideals(left: GradedIdeal, right: GradedIdeal) -> bool:
    """Equality proved by containment: the sequences agree and every
    generator of ``left`` lies in the component of ``right`` of its degree.

    Ideals of one finite colength, one inside the other, are equal.  Only
    generators of degree below ``len(seq)`` need a test: from that degree on
    both components are the full space, which also holds left's truncation
    (x, y)^D.  No component of ``left`` is built, and those of ``right`` are
    memoized, so checking many candidate images against one ``right`` builds
    its components once.
    """
    return (hilbert_samuel(left) == hilbert_samuel(right)
            and _carries_into(left, right)((1, 0, 0, 1)))


# ---------------------------------------------------------------------------
# Ideal file format: one generator per line, '#' comments, an optional single
# "truncate: D" directive anywhere.
# ---------------------------------------------------------------------------

# Largest truncation degree the parser accepts.  ``hilbert_samuel`` stops
# row-reducing once the sequence persists, so the truncation alone does not
# set the cost: ``x`` truncated at 2000 builds 3 components.
MAX_TRUNCATION = 2000

# A parsed file is refused when ``hilbert_samuel`` may row-reduce a nonzero
# component of this degree or more; component d has about d rows of length
# d + 1, so the memo below degree D holds about D^3 / 3 entries.  With e the
# highest generator degree below the truncation D, t_e <= e, and past e the
# sequence drops by at least 1 in each degree until it persists or reaches 0:
# the walk stops by degree 2e, and below D.  Without a truncation the first
# full component comes by degree 2e - 1 (see ``hilbert_samuel``).
MAX_ROW_REDUCED = 200


def _check_row_reduced(e: int, t: int | None, error) -> None:
    """Raise ``error`` unless ``hilbert_samuel`` row-reduces no component of
    degree ``MAX_ROW_REDUCED`` or more, by the bound derived above it for
    the highest generator degree e below the truncation t, and t, if any,
    is between 1 and ``MAX_TRUNCATION``."""
    reduced = 2 * e if t is None else min(t, 2 * e + 1)
    if reduced > MAX_ROW_REDUCED:
        raise error("the sequence may need components up to degree %d; "
                    "at most %d is supported" % (reduced - 1, MAX_ROW_REDUCED - 1))
    if t is not None and not 1 <= t <= MAX_TRUNCATION:
        raise error("truncation degree must be between 1 and %d" % MAX_TRUNCATION)


def parse_ideal_text(text: str) -> GradedIdeal:
    generators = []
    truncation = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("truncate"):
            rest = line[len("truncate"):].lstrip()
            if not rest.startswith(":"):
                raise ParseError("line %d: expected 'truncate: D'" % lineno)
            if truncation is not None:
                raise ParseError("line %d: duplicate truncate directive" % lineno)
            body = rest[1:].strip()
            truncation = parse_natural(body, "the truncation degree on line %d" % lineno)
            continue
        cs, den = _parse_list(line)
        if not any(cs):
            raise ParseError("line %d: zero generator" % lineno)
        if len(cs) < 2:
            raise ParseError("line %d: constant generator" % lineno)
        generators.append((cs, den))
    if not generators and truncation is None:
        raise ParseError("ideal file needs at least one generator or a truncate line")
    ideal = GradedIdeal._of_lists(generators, truncation)
    _check_row_reduced(ideal._top_degree, truncation, ParseError)
    return ideal


def format_ideal(ideal: GradedIdeal) -> str:
    """The ideal file text of an ideal, each generator printed from its
    integer list, so no form is built."""
    lines = [_format_list(v, den) for v, den in ideal._lists]
    if ideal.truncation is not None:
        lines.append("truncate: %d" % ideal.truncation)
    return "\n".join(lines) + "\n"
