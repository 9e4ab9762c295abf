"""Normal-form catalogs, isomorphism invariants and the witness search.

Isomorphism of graded quotients reduces to an invertible linear substitution
carrying one ideal onto the other, so the tester works in three layers:

1. Structural invariants (all Galois-stable, so valid over the closure):
   the sequence itself, the multiplicity partition of each run's common
   factor, the power-pairing root pattern in the first degree with a
   1-dimensional quotient, and pencil discriminant patterns where a
   component is 2-dimensional after factor removal.  Any difference is a
   certified non-isomorphism.  They are read off the primitive integer rows
   of the components as integer coefficient lists, up to scale, and no
   ``Fraction`` form is built on the way to the root data; the public
   ``common_factor``, ``gcd_forms`` and ``power_pairing`` wrap the same
   helpers.

2. A bounded witness search over exact substitutions: candidates are
   integer matrices on the rational root points carried by the invariant
   forms.  Each point has a signature, its (role, multiplicity) pairs,
   which a substitution keeps.  Each candidate maps an injective triple of
   right points onto the first three left points of the same signatures,
   since a substitution moves the roots of a form by its inverse, padded
   from a fixed point palette when there are only one or two points; with
   none, only the identity and the swap are tried.  A map is kept when it
   sends every right point onto a left point of its signature, and at most
   800 maps are computed per pair.  The points are primitive integer pairs
   from ``_RootData`` on, sorted in the order of their ``Fraction`` forms
   (``forms._point_key``), which ``rational_root_points`` shows.  Matrices
   equal up to scale share one primitive key and are tried once.  Every
   candidate is verified before being reported: each generator's image
   lies in the target's component of its degree, which for ideals of one
   finite colength proves equality.
   The check stays in the integers: each key maps the ideal's integer
   generator lists one at a time by the Horner kernel of
   ``forms.substitute`` and stops at the first image off the
   target's component, found by its complement functionals
   (``RowBasis.annihilator``) in O(d^2) with no elimination.
   A ``LinearChange`` is built only for the witness reported.

3. Unknown, when neither side resolves the pair.  Irrational root
   configurations land here by design: no numerics, no false certificates.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .errors import InvalidParameters, NoCatalog, SamplingFailed
from .forms import (
    LinearChange,
    _convolve,
    _exact_quotient,
    _point_key,
    _point_map_matrix,
    _primitive_key,
    _primitive_point,
    _RootData,
    _scaled,
    _substitution,
    _trim,
    parse_form,
)
from .ideals import (
    MAX_ROW_REDUCED,
    GradedIdeal,
    _check_row_reduced,
    _extend,
    _factor_list,
    _pairing_list,
    _persistent_factor,
    _shifts,
    component,
    format_ideal,
    hilbert_samuel,
)
from .rational_linalg import contains, rref
from .sequences import (HSSequence, TypeLabel, row_dimension, sequence_for_label,
                        tail_runs, validate)


@dataclass(frozen=True)
class CatalogEntry:
    """One normal-form ideal of a catalog row, with the provenance text
    that names its shape."""

    label: TypeLabel
    ideal: GradedIdeal
    provenance: str


# The normal forms of every row as its provenance, then one tuple of texts
# per tail run: a text's multiples at its run's start are the generators of
# that degree.  T1 has no runs; T4's second run holds x times the cubics that
# (x, y) times its pencil misses.  T7's texts are templated on the start b of
# its run of 1s (a = b - 1), and its list is longer when that run has length 1.
_NODAL = "x^2*y + x*y^2"
_NORMAL_FORMS = {
    "T1": [("power of the maximal ideal",)],
    "T2": [("square pattern [1,1]", ("x^2", "y^2")),
           ("square pattern [2]", ("x*y", "y^2"))],
    "T3": [("cube pattern [1,1,1]", ("x^3", "y^3", "x^2*y - x*y^2")),
           ("cube pattern [2,1]", ("x^3", "x*y^2", "y^3")),
           ("cube pattern [3]", ("x^2*y", "x*y^2", "y^3"))],
    "T4": [("pencil <x*y, y^2> times x", ("x^2*y", "x*y^2"), ("x^4",)),
           ("pencil <x^2 + x*y, y^2> times x", ("x^3 + x^2*y", "x*y^2"), ()),
           ("pencil <x^2, x*y + y^2> times x", ("x^3", "x^2*y + x*y^2"), ()),
           ("pencil <x^2, x*y> times x", ("x^3", "x^2*y"), ("x*y^3",)),
           ("pencil <x^2, y^2> times x", ("x^3", "x*y^2"), ())],
    "T5": [("factor x", ("x",))],
    "T6": [("factor x*y", ("x*y",)), ("factor x^2", ("x^2",))],
    "T7": [("pair (x*y, x^{b})", ("x*y",), ("x^{b}",)),
           ("pair (x^2, x*y^{a})", ("x^2",), ("x*y^{a}",))],
    # (x^2, x*y^(b-1) + y^b) is isomorphic to (x^2, y^b) in characteristic 0.
    "T7, l=1": [("pair (x*y, x^{b} + y^{b})", ("x*y",), ("x^{b} + y^{b}",)),
                ("pair (x*y, x^{b})", ("x*y",), ("x^{b}",)),
                ("pair (x^2, x*y^{a} + y^{b})", ("x^2",), ("x*y^{a} + y^{b}",)),
                ("pair (x^2, x*y^{a})", ("x^2",), ("x*y^{a}",)),
                ("pair (x^2, y^{b})", ("x^2",), ("y^{b}",))],
    "T8": [("factor x*y*(x+y)", (_NODAL,)), ("factor x^2*y", ("x^2*y",)),
           ("factor x^3", ("x^3",))],
    "T9": [("chain x | x*y*(x+y)", (_NODAL,), ("x",)),
           ("chain x | x^2*y", ("x^2*y",), ("x",)),
           ("chain y | x^2*y", ("x^2*y",), ("y",)),
           ("chain x | x^3", ("x^3",), ("x",))],
    "T10": [("chain x*y | x*y*(x+y)", (_NODAL,), ("x*y",)),
            ("chain x^2 | x^2*y", ("x^2*y",), ("x^2",)),
            ("chain x*y | x^2*y", ("x^2*y",), ("x*y",)),
            ("chain x^2 | x^3", ("x^3",), ("x^2",))],
    "T11": [("chain x | x*y | x*y*(x+y)", (_NODAL,), ("x*y",), ("x",)),
            ("chain x | x^2 | x^2*y", ("x^2*y",), ("x^2",), ("x",)),
            ("chain x | x*y | x^2*y", ("x^2*y",), ("x*y",), ("x",)),
            ("chain y | x*y | x^2*y", ("x^2*y",), ("x*y",), ("y",)),
            ("chain x | x^2 | x^3", ("x^3",), ("x^2",), ("x",))],
}


def normal_forms(label: TypeLabel) -> list:
    """Explicit representative ideals for a finite-type label.

    The lists follow the normal-form analysis per row; they are complete but
    not guaranteed minimal, so verify_catalog computes the deduplicated class
    count afterwards.  Every ideal is truncated at the sequence length, and
    one that ``parse_ideal_text`` would refuse makes the label refused.
    """
    if not label.finite:
        raise NoCatalog("no catalog for an infinite-type sequence")
    kind = label.kind
    seq = sequence_for_label(label)  # validates parameters
    dimension = row_dimension(kind, **label.param_dict())
    if label.dimension != dimension:
        raise InvalidParameters("%s has dimension %d, not %d"
                                % (label, dimension, label.dimension))
    nc = validate(seq).n
    target = TypeLabel(kind, label.dimension, label.params, nc)
    runs = tail_runs(seq, nc)
    b = runs[-1][0] if runs else 0
    single_one = kind == "T7" and label.param_dict()["l"] == 1
    entries = []
    for why, *run_texts in _NORMAL_FORMS["T7, l=1" if single_one else kind]:
        gens = []
        for (start, _, _), texts in zip(runs, run_texts):
            for text in texts:
                factor, den = _scaled(parse_form(text.format(a=b - 1, b=b)).coeffs)
                gens += [(v, den) for v in _shifts(factor, start + 1 - len(factor))]
        entry = CatalogEntry(target, GradedIdeal._of_lists(gens, len(seq)),
                             why.format(a=b - 1, b=b))
        _check_row_reduced(entry.ideal, InvalidParameters)
        entries.append(entry)
    return entries


def _discriminant(p, q):
    """disc(a*p + b*q) for the integer coefficient lists of two independent
    quadratics, as the integer coefficient list of a quadratic in (a, b):
    member c2*x^2 + c1*x*y + c0*y^2 has discriminant c1^2 - 4*c2*c0."""
    a2 = p[1] ** 2 - 4 * p[2] * p[0]
    b2 = q[1] ** 2 - 4 * q[2] * q[0]
    ab = 2 * p[1] * q[1] - 4 * (p[2] * q[0] + p[0] * q[2])
    if not (a2 or ab or b2):
        raise AssertionError("vanishing discriminant on an independent pencil")
    return [b2, ab, a2]


@dataclass(frozen=True)
class StructuralInvariant:
    """Isomorphism invariants, every field preserved by invertible
    substitutions (multiplicity partitions are PGL(2)- and Galois-stable)."""

    sequence: tuple
    run_data: tuple
    theta_pattern: tuple | None
    pencil_patterns: tuple

    _FIELD_ORDER = (
        ("sequence", "sequence"),
        ("theta-pattern", "theta_pattern"),
        ("run-data", "run_data"),
        ("pencil-pattern", "pencil_patterns"),
    )

    def first_difference(self, other):
        for public, attr in self._FIELD_ORDER:
            if getattr(self, attr) != getattr(other, attr):
                return public
        return None


@dataclass(frozen=True)
class _Analysis:
    """Invariant plus the exact rational root data behind it."""

    invariant: StructuralInvariant
    run_roots: list                 # [(run index, _RootData), ...]
    theta_roots: _RootData | None
    pencil_roots: dict              # {degree: (disc _RootData, members)}

    @functools.cached_property
    def integer_roles(self):
        """Ordered (tag, {point: multiplicity}) pairs of rational root data,
        the points primitive integer pairs (``forms._primitive_point``)."""
        roles = [(("run", i), dict(roots.points)) for i, roots in self.run_roots]
        if self.theta_roots is not None:
            # the root (a : b) of the pairing is the line point (-b : a)
            roles.append((("theta",), {_primitive_point(-b0, a0): mult
                                       for (a0, b0), mult in self.theta_roots.points}))
        for degree, (disc, reduced) in self.pencil_roots.items():
            # the member at a root of disc is (u*x + v*y)^2 up to scale:
            # its coefficients are v^2, 2uv, u^2 and its point is (-v : u)
            lines = {_primitive_point(*((-c1, 2 * c2) if c2 else (-2 * c0, c1))): mult
                     for (a0, b0), mult in disc.points
                     for c0, c1, c2 in [[a0 * p + b0 * q for p, q in zip(*reduced)]]}
            roles.append((("pencil", degree),
                          {pt: lines[pt] for pt in sorted(lines, key=_point_key)}))
        return roles


def _analyze(ideal: GradedIdeal) -> _Analysis:
    """The invariants in one pass over the tail runs, each read at a run's
    start d: the component I_d and its factor, for a run of two or more
    the last row's tail (the run persists, see ``_factor_list``) and the
    gcd fold otherwise; theta, when the run's value is 1; and a pencil,
    when the run has length one, I_d has rank 2 and its factor degree
    d - 2.  No other degree holds one of them:

    - theta lives at the first m >= 1 with t_m = 1, the start of its run,
      as t_i = i + 1 >= 2 below n and the tail never rises;
    - a rank-2 degree d inside or at the end of a longer run is h * S_1
      with deg h = d - 1 (Gotzmann, see ``hilbert_samuel``), so its members
      divided by h are linear, never quadratics.

    Each form on the way to ``_RootData`` is an integer list, a multiple
    of the monic form its public counterpart returns; the partitions and
    points do not depend on that scale."""
    if ideal._analysis is not None:
        return ideal._analysis
    seq = hilbert_samuel(ideal)
    run_data = []
    run_roots = []
    theta_roots = None
    pencil_patterns = []
    pencil_roots = {}
    for start, end, value in tail_runs(seq, HSSequence(seq).n):
        basis = component(ideal, start)
        factor = _persistent_factor(basis) if end > start else _factor_list(basis)
        part = ()
        if len(factor) > 1:
            roots = _RootData(factor)
            run_roots.append((len(run_data), roots))
            part = roots.partition
        run_data.append((start, end, value, part))
        if value == 1:
            theta_roots = _RootData(_pairing_list(ideal, start))
        if end == start and basis.rank == 2 and len(factor) == start - 1:
            # row = core * q * y^k for a quadratic q; exact by Gauss's lemma
            core = _trim(list(factor))
            reduced = [_exact_quotient(row[:len(core) + 2], core)
                       for row in basis.integer_rows]
            disc = _RootData(_discriminant(*reduced))
            pencil_patterns.append((start, disc.partition))
            pencil_roots[start] = (disc, reduced)
    invariant = StructuralInvariant(
        sequence=seq,
        run_data=tuple(run_data),
        theta_pattern=None if theta_roots is None else theta_roots.partition,
        pencil_patterns=tuple(pencil_patterns),
    )
    ideal._analysis = _Analysis(invariant, run_roots, theta_roots, pencil_roots)
    return ideal._analysis


@dataclass(frozen=True)
class IsoVerdict:
    """Verdict of ``are_isomorphic``: an isomorphic pair carries its
    witness, a distinguished pair the first invariant field that differs."""

    kind: str                      # "isomorphic" | "distinguished" | "unknown"
    witness: LinearChange | None = None
    field: str | None = None

    def __str__(self):
        if self.kind == "isomorphic":
            return "Isomorphic, witness %s" % format_change(self.witness)
        if self.kind == "distinguished":
            return "Distinguished(%s)" % self.field
        return "Unknown"

    def to_dict(self) -> dict:
        """The verdict, witness and field of the ``iso`` and catalog JSON."""
        witness = None if self.witness is None else \
            [[str(c) for c in row] for row in self.witness.matrix()]
        return {"verdict": self.kind, "witness": witness, "field": self.field}


def format_change(change: LinearChange) -> str:
    (a, b), (c, d) = change.matrix()
    return "[[%s, %s], [%s, %s]]" % (a, b, c, d)


# padding points, primitive integer pairs with the first nonzero entry positive
_PALETTE = ((0, 1), (1, 0), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (3, 1))


def _signatures(roles):
    """{point: signature} over the rational role points, a point's signature
    being its (role index, multiplicity) pairs; a substitution keeps them."""
    signatures = {}
    for index, (_, pts) in enumerate(roles):
        for pt, mult in pts.items():
            signatures[pt] = signatures.get(pt, ()) + ((index, mult),)
    return signatures


def _keeps_signatures(m, right, left):
    """Does the point map m send every right point onto a left point of its
    signature?"""
    (a, b), (c, d) = m
    return all(left.get(_primitive_point(a * u + b * v, c * u + d * v)) == sig
               for (u, v), sig in right.items())


def _candidate_changes(analysis_left, analysis_right):
    """Deterministic, bounded stream of substitution candidates, as the
    primitive integer keys (a, b, c, d) of invertible matrices built on
    integer points; the identity and the swap come first.

    A substitution moves the roots of a form by its inverse, so a change
    that carries the left ideal onto the right one maps each right root
    point onto a left point of its signature.  The first three left points
    fix the map: each injective choice of same-signature right points as
    their images gives one candidate, padded from the palette when there
    are fewer than three points, and kept only if it sends every right
    point onto a left point of its signature.  With no point, padding would
    only guess at PGL(2, Q), so nothing past the swap is tried.  At most
    800 point maps are computed."""
    yield (1, 0, 0, 1)
    yield (0, 1, 1, 0)
    left = _signatures(analysis_left.integer_roles)
    if not left:
        return
    right = _signatures(analysis_right.integer_roles)
    if sorted(left.values()) != sorted(right.values()):
        return
    seen = {(1, 0, 0, 1), (0, 1, 1, 0)}
    ps = sorted(left, key=_point_key)[:3]
    rights = sorted(right, key=_point_key)
    need = 3 - len(ps)
    budget = 800
    for qs in itertools.product(*([q for q in rights if right[q] == left[p]] for p in ps)):
        if len(set(qs)) < len(qs):
            continue
        combos = itertools.product(
            itertools.permutations([p for p in _PALETTE if p not in ps], need),
            itertools.permutations([q for q in _PALETTE if q not in qs], need))
        for extra_l, extra_r in itertools.islice(combos, 64):
            if budget <= 0:
                return
            budget -= 1
            m = _point_map_matrix((*qs, *extra_r), (*ps, *extra_l))
            if m is None or not _keeps_signatures(m, right, left):
                continue
            key = _primitive_key(m)
            if key not in seen:
                seen.add(key)
                yield key


def are_isomorphic(left: GradedIdeal, right: GradedIdeal) -> IsoVerdict:
    """Distinguished on any invariant difference, Isomorphic only with a
    verified witness, Unknown otherwise."""
    a_left = _analyze(left)
    a_right = _analyze(right)
    field = a_left.invariant.first_difference(a_right.invariant)
    if field is not None:
        return IsoVerdict("distinguished", field=field)
    # equal invariants include equal sequences, which _carries_into needs
    carries = _carries_into(left, right)
    for key in _candidate_changes(a_left, a_right):
        if carries(key):
            return IsoVerdict("isomorphic", witness=LinearChange(*key))
    return IsoVerdict("unknown")


# the images of an integer list under the identity key and the swap key
_KNOWN_IMAGES = {(1, 0, 0, 1): lambda p: p, (0, 1, 1, 0): lambda p: p[::-1]}


def _carries_into(left: GradedIdeal, right: GradedIdeal):
    """The test ``are_isomorphic`` runs on each candidate key (a, b, c, d):
    is every generator of ``left`` of degree below ``len(seq)`` mapped into
    ``right``?  For ideals of one sequence this is ``equal_ideals`` of the
    image and ``right``, by its proof.  The generators are read as their
    integer lists, and each key stops at the first image outside ``right``.
    The identity maps a list to itself and the swap x <-> y to its reverse,
    so neither is built by ``_substitution``."""
    below = len(hilbert_samuel(left))
    lists = [v for v, _ in left._lists if len(v) <= below]

    def carries(key):
        image = _KNOWN_IMAGES.get(key) or _substitution(*key)
        return all(contains(component(right, len(p) - 1), image(p))
                   for p in lists)

    return carries


@dataclass(frozen=True)
class CatalogReport:
    """Output of ``verify_catalog``: the entries, their sequence checks, the
    pairwise verdicts and the classes they join into."""

    label: TypeLabel
    entries: list
    sequence_ok: list
    pairwise: list            # (i, j, IsoVerdict)
    classes: list             # sorted lists of entry indices
    unknown_pairs: list

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def to_dict(self) -> dict:
        return {
            "label": str(self.label),
            "dimension": self.label.dimension,
            "sequence": list(sequence_for_label(self.label)),
            "entries": [
                {
                    "index": i,
                    "ideal": format_ideal(e.ideal),
                    "provenance": e.provenance,
                    "sequence_ok": self.sequence_ok[i],
                }
                for i, e in enumerate(self.entries)
            ],
            "pairwise": [dict(v.to_dict(), left=i, right=j) for i, j, v in self.pairwise],
            "classes": self.classes,
            "class_count": self.class_count,
            "unknown_pairs": self.unknown_pairs,
        }


def verify_catalog(label: TypeLabel) -> CatalogReport:
    """Check every entry's sequence, fill the pairwise verdict matrix and
    count classes (Unknown pairs stay separate but are flagged)."""
    entries = normal_forms(label)
    target = sequence_for_label(label)
    sequence_ok = [hilbert_samuel(e.ideal) == target for e in entries]
    pairwise = []
    parent = list(range(len(entries)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    unknown_pairs = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            verdict = are_isomorphic(entries[i].ideal, entries[j].ideal)
            pairwise.append((i, j, verdict))
            if verdict.kind == "isomorphic":
                parent[find(i)] = find(j)
            elif verdict.kind == "unknown":
                unknown_pairs.append([i, j])
    groups = {}
    for i in range(len(entries)):
        groups.setdefault(find(i), []).append(i)
    classes = sorted(sorted(g) for g in groups.values())
    return CatalogReport(label, entries, sequence_ok, pairwise, classes,
                         unknown_pairs)


# ---------------------------------------------------------------------------
# Sequence-constrained random ideals.
#
# One builder, ``_try_sample``, realizes a run skeleton: each run's random
# factor is a multiple of the next run's, I_d is that factor's principal
# component along the run, and random forms fill the degrees elsewhere.  The
# structured-generic skeleton takes the tail runs of length >= 2 and gives
# generic-looking ideals, but some shapes force sub-generic growth at degrees
# outside any run -- (1, 2, 3, 4, 2, 1) needs a degree-4 component whose
# multiples span only 5 of the 6 quintics -- and rejection alone seldom hits
# that stratum.  The last tries of the retry budget make every tail
# degree its own run: the factors form a divisibility chain with
# deg c_d = t_d, which realizes every valid sequence at the cost of being
# maximally factored.  Each I_d is built from I_(d-1) as ``component``
# builds it, into the ideal's memo; along a run it is h * S_(d - deg h) for
# the run's factor h, inserted at the start only.
# ---------------------------------------------------------------------------

_RETRY_BUDGET = 64
_GENERIC_TRIES = 48


def _random_list(rng, degree):
    """A nonzero integer list of a form of ``degree``, entries in -9..9."""
    while True:
        cs = [rng.randint(-9, 9) for _ in range(degree + 1)]
        if any(cs):
            return cs


def _try_sample(entries, rng, runs):
    last = len(entries) - 1

    # each run's factor, keyed by the run's start, is a multiple of the next
    # one's, and the same form when their values are equal
    factors = {}
    h = None
    for start, _, value in reversed(runs):
        if h is None:
            h = _random_list(rng, value)
        elif value >= len(h):
            h = _convolve(_random_list(rng, value + 1 - len(h)), h)
        factors[start] = h

    generators = []
    built = {}
    for d in range(last + 1):
        target_rank = d + 1 - entries[d]
        if d in factors:
            # its multiples span I_d if the rows carried in are multiples of
            # it: forms below take the next run's factor as their constraint
            run_rows = _shifts(factors[d], d + 1 - len(factors[d]))
            generators.extend(run_rows)
            basis = _extend(built, d, run_rows)
            if basis.rank != target_rank:
                return None
        else:
            basis = _extend(built, d, ())
            if basis.rank > target_rank:
                return None
            # the next run's component must hold the multiples of I_d
            constraint = next((f for s, f in sorted(factors.items()) if s > d), None)
            tries = 0
            while basis.rank < target_rank:
                tries += 1
                if tries > 32:
                    return None
                if constraint is None:
                    cand = _random_list(rng, d)
                else:
                    cand = _convolve(constraint, _random_list(rng, d + 1 - len(constraint)))
                extended = rref([cand], base=basis)
                if extended.rank == basis.rank:  # cand lies in I_d already
                    continue
                generators.append(cand)
                basis = extended
        built[d] = basis
    ideal = GradedIdeal._of_lists([(g, 1) for g in generators], truncation=last + 1)
    ideal._components.update(built)  # each is the RREF ``component`` would build
    return ideal


def sample_ideal(seq, seed: int) -> GradedIdeal:
    """A pseudo-random ideal realizing the sequence, deterministic in the
    seed; its sequence is checked on the bases the sampler built.  Every
    degree is row-reduced, so a sequence past ``MAX_ROW_REDUCED`` is refused."""
    if not isinstance(seq, HSSequence):
        seq = validate(seq)
    if len(seq.entries) > MAX_ROW_REDUCED:
        raise InvalidParameters("sequence of length %d; at most %d can be sampled"
                                % (len(seq.entries), MAX_ROW_REDUCED))
    entries, n = seq.entries, seq.n
    # the runs of length >= 2; one of value n also holds degree n - 1
    structured = [r for r in tail_runs(entries, n) if r[1] > r[0] or r[2] == n]
    chain = [(d, d, entries[d]) for d in range(n, len(entries))]
    rng = random.Random(seed)
    for attempt in range(_RETRY_BUDGET):
        ideal = _try_sample(entries, rng, structured if attempt < _GENERIC_TRIES else chain)
        if ideal is not None and hilbert_samuel(ideal) == entries:
            return ideal
    raise SamplingFailed(entries, _RETRY_BUDGET)
