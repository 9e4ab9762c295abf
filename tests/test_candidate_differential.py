"""Differential check of the witness candidate stream: ``_candidate_changes``
maps three right points onto three left points, builds its matrices on
primitive integer points and yields their primitive integer keys; the
reference below builds the left-to-right map on ``Fraction`` points and
takes its adjugate, the same map up to scale.  A substitution moves the
roots of a form by its inverse, so only a map from right points onto left
points can carry the pins.  The stream sends image triples of the first
three left points, by signature; the reference pins its points through its
own enumerator of every multiplicity-compatible bijection,
``_role_matchings``, capped at 256 maps.  The changes of the keys and the
reference must agree element for element where no cap is reached, so that
the same witness is found first.  On
every key, the integer test that ``are_isomorphic`` runs must agree with
``equal_ideals`` of the ``substitute_ideal`` image.

A matching that pins no point carries no information about the witness:
padding it from the palette only guessed elements of PGL(2, Q), and such a
guess is a witness only when some witness happens to carry three palette
points onto three palette points.  The stream and the reference therefore
both skip it, so a pair without rational role points gets the identity
and the swap only; ``_palette_guesses`` keeps the old padding so that the
generic panel can show which verdicts changed, each from a lucky
Isomorphic to Unknown."""

import itertools
import math
import random
from types import SimpleNamespace

import pytest

from componentwise import marked_roles
from hsfinite import (
    LinearChange,
    SingularChange,
    are_isomorphic,
    classify,
    enumerate_sequences,
    equal_ideals,
    normal_forms,
    parse_ideal_text,
    sample_ideal,
    substitute_ideal,
    validate,
)
from hsfinite.catalog import _analyze, _candidate_changes, _carries_into
from hsfinite.forms import (_adjugate, _normalize_point, _point_key, _point_map_matrix,
                            _primitive_point)

_REFERENCE_PALETTE = tuple(_normalize_point(p) for p in (
    (0, 1), (1, 0), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (3, 1)))


def _reference_primitive_change(matrix):
    """The change with coprime integer entries, first nonzero one positive,
    on the line of a nonzero rational matrix."""
    flat = [matrix[0][0], matrix[0][1], matrix[1][0], matrix[1][1]]
    denom = math.lcm(*[q.denominator for q in flat])
    ints = [int(q * denom) for q in flat]
    g = math.gcd(*[abs(v) for v in ints if v] or [1])
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v)
    if lead < 0:
        ints = [-v for v in ints]
    return LinearChange(*ints)


def _maps_point(m, p, q):
    iu = m[0][0] * p[0] + m[0][1] * p[1]
    iv = m[1][0] * p[0] + m[1][1] * p[1]
    return iu * q[1] - iv * q[0] == 0 and (iu != 0 or iv != 0)


def _role_matchings(roles_left, roles_right):
    """All multiplicity-compatible point bijections, as consistent injective
    maps; empty when the rational root data cannot correspond."""
    if [tag for tag, _ in roles_left] != [tag for tag, _ in roles_right]:
        return []
    per_role = []
    for (_, pts_l), (_, pts_r) in zip(roles_left, roles_right):
        mults = sorted(pts_l.values())
        if mults != sorted(pts_r.values()):
            return []
        group_maps = [[]]
        for mult in sorted(set(mults)):
            left, right = (sorted((p for p, m in pts.items() if m == mult),
                                  key=_point_key)
                           for pts in (pts_l, pts_r))
            new = []
            for perm in itertools.permutations(right):
                pairs = list(zip(left, perm))
                new.extend(base + pairs for base in group_maps)
                if len(new) > 256:
                    break
            group_maps = new
        per_role.append(group_maps)
    matchings = []
    for combo in itertools.product(*per_role):
        pin = {}
        used = {}
        ok = True
        for pairs in combo:
            for p, q in pairs:
                if pin.get(p, q) != q or used.get(q, p) != p:
                    ok = False
                    break
                pin[p] = q
                used[q] = p
            if not ok:
                break
        if ok:
            matchings.append([(p, pin[p]) for p in sorted(pin, key=_point_key)])
        if len(matchings) >= 256:
            break
    return matchings


def _reference_candidate_changes(analysis_left, analysis_right):
    """The candidate stream on the normalized ``Fraction`` points, each
    left-to-right point map tried as its adjugate."""
    yield LinearChange(1, 0, 0, 1)
    yield LinearChange(0, 1, 1, 0)
    seen = {((1, 0), (0, 1)), ((0, 1), (1, 0))}
    budget = 800

    def emit(matrix):
        nonlocal budget
        change = _reference_primitive_change(_adjugate(matrix))
        key = change.matrix()
        if key not in seen:
            seen.add(key)
            budget -= 1
            yield change

    for pins in _role_matchings(marked_roles(analysis_left),
                                marked_roles(analysis_right)):
        if not pins:
            continue
        ps = [p for p, _ in pins]
        qs = [q for _, q in pins]
        if len(pins) >= 3:
            m = _point_map_matrix(tuple(ps[:3]), tuple(qs[:3]))
            if m is not None and all(_maps_point(m, p, q) for p, q in pins):
                yield from emit(m)
            continue
        free_left = [p for p in _REFERENCE_PALETTE if p not in ps]
        free_right = [q for q in _REFERENCE_PALETTE if q not in qs]
        need = 3 - len(pins)
        combos = itertools.product(
            itertools.permutations(free_left, need),
            itertools.permutations(free_right, need))
        for count, (extra_l, extra_r) in enumerate(combos):
            if count >= 64 or budget <= 0:
                break
            m = _point_map_matrix(tuple(ps + list(extra_l))[:3],
                                  tuple(qs + list(extra_r))[:3])
            if m is None:
                continue
            if not all(_maps_point(m, p, q) for p, q in pins):
                continue
            yield from emit(m)
        if budget <= 0:
            return


def _assert_same_stream(left, right):
    a_left, a_right = _analyze(left), _analyze(right)
    got = [LinearChange(*key) for key in _candidate_changes(a_left, a_right)]
    assert got == list(_reference_candidate_changes(a_left, a_right)), (left, right)
    return len(got)


def _assert_integer_check_agrees(left, right):
    """The integer test ``are_isomorphic`` runs on each key against the
    public path, on every key of the stream; returns (keys, hits)."""
    carries = _carries_into(left, right)
    keys = hits = 0
    for key in _candidate_changes(_analyze(left), _analyze(right)):
        got = carries(key)
        expected = equal_ideals(substitute_ideal(left, LinearChange(*key)), right)
        assert got == expected, (left, right, key)
        keys += 1
        hits += got
    return keys, hits


def _catalog_pairs():
    """Pairs of normal forms of one label, up to colength 12, with equal
    invariants: the pairs that reach the witness search."""
    for colength in range(3, 13):
        for entries in enumerate_sequences(colength):
            label = classify(validate(entries))
            if not label.finite:
                continue
            ideals = [e.ideal for e in normal_forms(label)]
            for left, right in itertools.combinations(ideals, 2):
                if _analyze(left).invariant == _analyze(right).invariant:
                    yield left, right


def _integer_change(rng):
    while True:
        try:
            return LinearChange(*(rng.randint(-5, 5) for _ in range(4)))
        except SingularChange:
            continue


def _sample_pairs():
    """Three samples per valid sequence of colength 5-8, each against an
    integer transform of itself, both ways round."""
    rng = random.Random(8)
    for colength in range(5, 9):
        for entries in enumerate_sequences(colength):
            for seed in range(3):
                sample = sample_ideal(entries, seed)
                image = substitute_ideal(sample, _integer_change(rng))
                yield sample, image
                yield image, sample


def _transformed_catalog_pairs():
    """Each normal form of colength 3-12 against an integer transform of
    itself, kept when the invariants agree."""
    rng = random.Random(15)
    for colength in range(3, 13):
        for entries in enumerate_sequences(colength):
            label = classify(validate(entries))
            if not label.finite:
                continue
            for entry in normal_forms(label):
                image = substitute_ideal(entry.ideal, _integer_change(rng))
                if _analyze(entry.ideal).invariant == _analyze(image).invariant:
                    yield entry.ideal, image


def _palette_guesses():
    """The keys the stream once tried on a matching without pins: the first
    64 pairs of palette triples, each right triple mapped onto the left one."""
    triples = itertools.permutations(_REFERENCE_PALETTE, 3)
    for extra_l, extra_r in itertools.islice(itertools.product(triples, repeat=2), 64):
        m = _point_map_matrix(extra_l, extra_r)
        if m is not None:
            yield _reference_primitive_change(_adjugate(m))


def _padded_verdict(left, right):
    """(kind, witness) from the stream that still padded a matching without
    pins, each change checked by ``equal_ideals`` of its image; the pairs
    given have equal invariants."""
    a_left, a_right = _analyze(left), _analyze(right)
    stream = _reference_candidate_changes(a_left, a_right)
    if _role_matchings(marked_roles(a_left), marked_roles(a_right)) == [[]]:
        stream = itertools.chain(stream, _palette_guesses())
    for change in stream:
        if equal_ideals(substitute_ideal(left, change), right):
            return "isomorphic", change
    return "unknown", None


def test_each_candidate_carries_right_pins_onto_left_pins():
    """A substitution moves the roots of a form by its inverse, so a witness
    maps each right root point onto its left partner: every key past the
    identity and the swap does so for all pins of some matching."""
    keys = 0
    for left, right in _transformed_catalog_pairs():
        a_left, a_right = _analyze(left), _analyze(right)
        matchings = _role_matchings(marked_roles(a_left), marked_roles(a_right))
        stream = _candidate_changes(a_left, a_right)
        for a, b, c, d in itertools.islice(stream, 2, None):
            m = ((a, b), (c, d))
            assert any(all(_maps_point(m, q, p) for p, q in pins)
                       for pins in matchings), (left, right, m)
            keys += 1
    assert keys > 0


def _simple_points(*points):
    """An analysis stand-in whose one role holds simple points, as the
    integer roles the stream reads; the reference reads them through
    ``marked_roles``."""
    return SimpleNamespace(
        integer_roles=[(("run", 0), {_primitive_point(*p): 1 for p in points})])


@pytest.mark.parametrize("fourth, keys", [((1, 3), 0), ((1, -1), 8)])
def test_pins_past_the_third_are_checked(fourth, keys):
    """0, inf, 1, 2 on the left: against 0, inf, 1, 3 (another
    cross-ratio) no map carries all four pins, against 0, inf, 1, -1 eight
    maps do, and each triple's map is kept only when it carries the fourth."""
    left = _simple_points((1, 0), (0, 1), (1, 1), (1, 2))
    right = _simple_points((1, 0), (0, 1), (1, 1), fourth)
    stream = list(_candidate_changes(left, right))
    assert [LinearChange(*key) for key in stream] == \
        list(_reference_candidate_changes(left, right))
    matchings = _role_matchings(marked_roles(left), marked_roles(right))
    assert len(stream) == 2 + keys
    for a, b, c, d in stream[2:]:
        m = ((a, b), (c, d))
        assert any(all(_maps_point(m, q, p) for p, q in pins) for pins in matchings)


def test_seven_points_past_the_old_caps():
    """x*y*(x - y)*...*(x - 5*y) has seven simple rational roots, against
    its image under x -> 2x + y, y -> x + y.  The bijection enumerator of the
    reference stops at 256 bijections, which send the first three left points
    to only 11 image triples, none a witness; the stream tries all 210
    triples and finds one, both ways round."""
    left = _ideal("x^6*y - 15*x^5*y^2 + 85*x^4*y^3 - 225*x^3*y^4"
                  " + 274*x^2*y^5 - 120*x*y^6", "truncate: 9")
    right = substitute_ideal(left, LinearChange(2, 1, 1, 1))
    a_left, a_right = _analyze(left), _analyze(right)
    assert not any(equal_ideals(substitute_ideal(left, change), right)
                   for change in _reference_candidate_changes(a_left, a_right))
    for source, target in ((left, right), (right, left)):
        verdict = are_isomorphic(source, target)
        assert verdict.kind == "isomorphic"
        assert equal_ideals(substitute_ideal(source, verdict.witness), target)


def test_thirty_points_compute_at_most_800_point_maps(monkeypatch):
    """Thirty simple points against an integer transform of them: 24360
    image triples, of which 800 point maps are computed: the one bound, not
    the triples, ends the stream."""
    calls = []

    def counting(ps, qs):
        calls.append(None)
        return _point_map_matrix(ps, qs)

    monkeypatch.setattr("hsfinite.catalog._point_map_matrix", counting)
    points = [(1, k) for k in range(30)]
    left = _simple_points(*points)
    right = _simple_points(*((2 * u + v, u + v) for u, v in points))
    keys = list(_candidate_changes(left, right))
    assert len(calls) == 800 and keys[:2] == [(1, 0, 0, 1), (0, 1, 1, 0)]


def test_catalog_pairs_with_equal_invariants():
    pairs = 0
    candidates = 0
    for left, right in _catalog_pairs():
        pairs += 1
        candidates += _assert_same_stream(left, right)
    # more than the identity and the swap reach the stream
    assert pairs > 0 and candidates > 2 * pairs


def test_samples_against_integer_transforms():
    streams = 0
    candidates = 0
    for left, right in _sample_pairs():
        streams += 1
        candidates += _assert_same_stream(left, right)
    assert candidates > 2 * streams


@pytest.mark.parametrize("pairs", [_catalog_pairs, _sample_pairs])
def test_integer_check_matches_equal_ideals_of_the_image(pairs):
    keys = hits = 0
    for left, right in pairs():
        counted = _assert_integer_check_agrees(left, right)
        keys += counted[0]
        hits += counted[1]
    # every key is checked, past the first hit, so both answers occur
    assert 0 < hits < keys


def _fraction_points(roots):
    """The rational root points of a ``_RootData`` as ``Fraction`` points,
    normalized to (1, t) or (0, 1) and sorted as tuples."""
    return sorted((_normalize_point(p), mult) for p, mult in roots.points)


def _reference_roles(analysis):
    """The marked roles rebuilt in ``Fraction`` arithmetic: the run points
    as sorted ``Fraction`` points, the theta points as the dual points of
    the pairing's roots, and each pencil's lines computed from the
    ``Fraction`` roots of its discriminant and sorted as tuples."""
    roles = [(("run", i), dict(_fraction_points(roots))) for i, roots in analysis.run_roots]
    if analysis.theta_roots is not None:
        pts = {}
        for (a0, b0), mult in _fraction_points(analysis.theta_roots):
            line = _normalize_point((-b0, a0))
            pts[line] = pts.get(line, 0) + mult
        roles.append((("theta",), pts))
    for degree, (disc, reduced) in sorted(analysis.pencil_roots.items()):
        lines = {}
        for (a0, b0), mult in _fraction_points(disc):
            c0, c1, c2 = (a0 * p + b0 * q for p, q in zip(*reduced))
            line = _normalize_point((-c1, 2 * c2) if c2 else (-2 * c0, c1))
            lines[line] = lines.get(line, 0) + mult
        roles.append((("pencil", degree), dict(sorted(lines.items()))))
    return roles


def _ordered(roles):
    """Roles with each point dict as its list of items, so that comparing
    them compares the dict order too."""
    return [(tag, list(points.items())) for tag, points in roles]


def _iso_digest_pairs():
    """The 294 pairs of the golden isomorphism digest: each normal form of
    colength 3-16 against its image under a change with entries in -3..3
    drawn from ``random.Random(15)``."""
    rng = random.Random(15)
    for colength in range(3, 17):
        for entries in enumerate_sequences(colength):
            label = classify(validate(entries))
            if not label.finite:
                continue
            for entry in normal_forms(label):
                while True:
                    a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
                    if a * d != b * c:
                        break
                yield entry.ideal, substitute_ideal(entry.ideal, LinearChange(a, b, c, d))


def _generic_panel_pairs():
    """Samples of every valid sequence of colength 5-9, seeds 0-3, against
    the generic panel's transforms drawn from ``random.Random(0)``."""
    rng = random.Random(0)
    for colength in range(5, 10):
        for entries in enumerate_sequences(colength):
            for seed in range(4):
                left = sample_ideal(entries, seed)
                yield left, substitute_ideal(left, _panel_change(rng))


def test_integer_roles_are_the_fraction_roles():
    """The stream reads the roles as primitive integer points.  Mapped
    through ``_normalize_point`` they are the roles built in ``Fraction``
    arithmetic, dict order included: the order of the points sets the
    order of the matchings and so of the keys."""
    analyses = roles = 0
    for pair in itertools.chain(_iso_digest_pairs(), _generic_panel_pairs()):
        for case in pair:
            analysis = _analyze(case)
            expected = _ordered(_reference_roles(analysis))
            for _, points in analysis.integer_roles:
                for u, v in points:
                    assert type(u) is int and type(v) is int
                    assert math.gcd(u, v) == 1 and (u or v) > 0
            normalized = [(tag, [(_normalize_point(p), m) for p, m in points.items()])
                          for tag, points in analysis.integer_roles]
            assert normalized == expected, case
            analyses += 1
            roles += sum(len(points) > 1 for _, points in expected)
    # 294 + 84 pairs, and many roles of more than one point, whose order counts
    assert analyses == 2 * (294 + 84) and roles > 400


def _ideal(*lines):
    return parse_ideal_text("\n".join(lines) + "\n")


def test_no_pinned_point_tries_identity_and_swap_only():
    """Both quadrics are irreducible over Q, so no role point is pinned."""
    left = _ideal("-8*x^2 + 4*x*y + 3*y^2", "truncate: 3")
    right = _ideal("-148*x^2 + 424*x*y - 228*y^2", "truncate: 3")
    a_left, a_right = _analyze(left), _analyze(right)
    assert _role_matchings(marked_roles(a_left), marked_roles(a_right)) == [[]]
    assert list(_candidate_changes(a_left, a_right)) == [(1, 0, 0, 1), (0, 1, 1, 0)]
    assert are_isomorphic(left, right).kind == "unknown"


def test_one_pin_still_padded_from_the_palette():
    """x^2 against its image under x -> -x - 2y, y -> 3x - 2y (a pair of the
    golden isomorphism set): one pin, and the witness needs two palette
    points beside it."""
    left = _ideal("x^2", "truncate: 3")
    right = _ideal("x^2 + 4*x*y + 4*y^2", "truncate: 3")
    a_left, a_right = _analyze(left), _analyze(right)
    assert [len(pins) for pins in
            _role_matchings(marked_roles(a_left), marked_roles(a_right))] == [1]
    verdict = are_isomorphic(left, right)
    assert verdict.kind == "isomorphic"
    assert verdict.witness == LinearChange(1, 2, 1, 0)
    assert (1, 2, 1, 0) in itertools.islice(_candidate_changes(a_left, a_right), 2, None)


def _panel_change(rng):
    """The generic benchmark panel's transforms: 1, 2, 3 and 5 in random
    places with random signs, so no entry is zero."""
    return LinearChange(*(m * rng.choice((-1, 1)) for m in rng.sample((1, 2, 3, 5), 4)))


@pytest.mark.parametrize("draw, lost", [(_panel_change, 0), (_integer_change, 1)])
def test_generic_panel_verdicts_match_the_padded_stream(draw, lost):
    """Samples of every valid sequence of colength 5-9, seeds 0-3, against
    integer transforms drawn from ``random.Random(0)``.  On the benchmark's
    transforms, skipping matchings without pins changes no verdict and no
    witness.  Entries in -5..5 lose one lucky guess: (1,2,2,1) at seed 1
    under x -> -2x, y -> -4x - 2y, whose witness x -> x, y -> 2x + y maps
    palette points onto palette points.  Such a pair pins nothing and turns
    Unknown; no verdict turns into another claim."""
    rng = random.Random(0)
    unpinned = changed = 0
    for colength in range(5, 10):
        for entries in enumerate_sequences(colength):
            for seed in range(4):
                left = sample_ideal(entries, seed)
                right = substitute_ideal(left, draw(rng))
                got = are_isomorphic(left, right)
                padded = _padded_verdict(left, right)
                a_left, a_right = _analyze(left), _analyze(right)
                pinless = _role_matchings(marked_roles(a_left),
                                          marked_roles(a_right)) == [[]]
                unpinned += pinless
                if (got.kind, got.witness) != padded:
                    assert pinless and got.kind == "unknown", (left, right)
                    assert padded[0] == "isomorphic", (left, right)
                    changed += 1
    # the panel reaches the skipped padding
    assert unpinned > 0 and changed == lost
