"""Graded components, Hilbert-Samuel sequences and the factor structure."""

import itertools
import random
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from componentwise import fraction_rows, inverse, multiples_basis, reference_component
from hsfinite import ideals as ideals_module
from hsfinite.forms import BinaryForm, _form_gcd, _RootData, _scaled
from hsfinite.rational_linalg import identity_basis
from hsfinite.sequences import tail_runs
from hsfinite import (
    EmptyComponent,
    GradedIdeal,
    LinearChange,
    NotArtinian,
    PairingUndefined,
    ParseError,
    binary_form,
    classify,
    common_factor,
    component,
    contains,
    enumerate_sequences,
    equal_ideals,
    format_ideal,
    gcd_forms,
    hilbert_samuel,
    monic,
    multiplicity_partition,
    multiply,
    normal_forms,
    parse_form,
    parse_ideal_text,
    power_pairing,
    rref,
    sample_ideal,
    substitute,
    substitute_ideal,
    validate,
)

F = parse_form


def ideal(*texts, truncate=None):
    return GradedIdeal([F(t) for t in texts], truncate)


def _random_change(rng):
    while True:
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        if a * d - b * c != 0:
            return LinearChange(a, b, c, d)


class TestComponent:
    def test_generators_give_their_degree(self):
        comp = component(ideal("x^2", "y^2"), 2)
        assert comp.rank == 2
        assert contains(comp, F("x^2").coeffs)
        assert contains(comp, F("3*x^2 - y^2").coeffs)
        assert not contains(comp, F("x*y").coeffs)

    def test_degree_three_span_of_two_quadrics(self):
        # oracle: x*x^2, y*x^2, x*y^2, y*y^2 span all four cubics
        comp = component(ideal("x^2", "y^2"), 3)
        assert comp.rank == 4
        for mono in ("x^3", "x^2*y", "x*y^2", "y^3"):
            assert contains(comp, F(mono).coeffs)

    def test_monomial_ideal_component(self):
        comp = component(ideal("x*y"), 4)
        assert comp.rank == 3
        for mono in ("x^3*y", "x^2*y^2", "x*y^3"):
            assert contains(comp, F(mono).coeffs)
        assert not contains(comp, F("x^4").coeffs)

    def test_rows_follow_the_coefficient_order(self):
        # column i of a component row holds x^i * y^(d-i), as in
        # BinaryForm.coeffs, so x times a row prepends a 0
        assert F("x^2*y").coeffs == (0, 0, 1, 0)
        assert component(ideal("x^2*y", truncate=5), 3).integer_rows == \
            ((0, 0, 1, 0),)

    def test_truncation_fills_component(self):
        comp = component(GradedIdeal([], truncation=3), 3)
        assert comp.rank == 4
        assert component(GradedIdeal([], truncation=3), 2).rank == 0

    def test_matches_all_multiples_reference(self):
        """``component`` against the all-multiples reference at every degree
        up to one past the first full one, on every normal form up to
        colength 12 and on sampled ideals and their images.  Degrees are
        asked in a shuffled order, so some are filled from a memoized degree
        in the middle, and some above the truncation come first."""
        rng = random.Random(7)
        cases = []
        for colength in range(3, 13):
            for entries in enumerate_sequences(colength):
                label = classify(validate(entries))
                if label.finite:
                    cases.extend(e.ideal for e in normal_forms(label))
                for seed in range(2 if colength <= 9 else 0):
                    sample = sample_ideal(entries, seed)
                    cases += [sample, substitute_ideal(sample, _random_change(rng))]
        assert len(cases) == 114 + 4 * 23
        for case in cases:
            refs = []
            while not refs or refs[-1].rank < len(refs):
                refs.append(reference_component(case, len(refs)))
            refs.append(reference_component(case, len(refs)))
            fresh = GradedIdeal(case.generators, case.truncation)
            order = list(range(len(refs)))
            rng.shuffle(order)
            for d in order:
                assert component(fresh, d) == refs[d], (case, d)


    def test_reduces_only_the_rows_new_to_each_degree(self, monkeypatch):
        """I_d = x*I_(d-1) + y*C + the generators of degree d, where C holds
        the rows of I_(d-1) whose pivots x*I_(d-2) does not lead: x*I_(d-1)
        goes to ``rref`` as a reduced base, and only r_(d-1) - r_(d-2)
        y-rows and the generators are inserted.  Past a skipped degree,
        I_(d-2) is not memoized and every row of I_(d-1) is shifted by y.
        A degree whose component below is zero holds only its generators:
        the zero degrees below the lowest generator call no ``rref``, and
        the lowest one reduces its generators with no base."""
        calls = []
        degrees = []

        def recording(rows, ncols=None, base=None):
            rows = list(rows)
            calls.append((len(rows), None if base is None else base.rank))
            degrees.append((ncols if base is None else base.ncols) - 1)
            return rref(rows, ncols, base)

        monkeypatch.setattr(ideals_module, "rref", recording)
        case = ideal("x^3 - y^3", "x^2*y", "x*y^3 + y^4", "x^5", truncate=9)
        ranks = [reference_component(case, d).rank for d in range(9)]
        for d in range(9):
            assert component(case, d) == reference_component(case, d)
        gens = [sum(g.degree == d for g in case.generators) for d in range(9)]
        low = min(g.degree for g in case.generators)
        assert min(degrees) == low == 3
        assert calls == [(gens[low], None)] + [
            (gens[d] + ranks[d - 1] - ranks[d - 2], ranks[d - 1])
            for d in range(low + 1, 9)]
        # fewer rows than the x- and y-multiples of every row below
        assert sum(rows for rows, _ in calls) < sum(gens) + 2 * sum(ranks[:8])

        h = F("x^2*y - 2*y^3")
        skipped = GradedIdeal([multiply(F("x"), h), multiply(F("y"), h)], truncation=90)
        hilbert_samuel(skipped)
        component(skipped, 60)
        calls.clear()
        assert component(skipped, 61) == reference_component(skipped, 61)
        assert calls == [(58, 58)]


class TestHilbertSamuel:
    def test_power_ideal(self):
        assert hilbert_samuel(GradedIdeal([], truncation=4)) == (1, 2, 3, 4)

    def test_two_quadrics(self):
        assert hilbert_samuel(ideal("x^2", "y^2")) == (1, 2, 1)

    def test_common_factor_not_artinian(self):
        with pytest.raises(NotArtinian, match=r"common factor x\*y"):
            hilbert_samuel(ideal("x*y"))
        with pytest.raises(NotArtinian):
            hilbert_samuel(GradedIdeal([]))

    def test_common_factor_of_several_generators_is_monic(self):
        # the gcd is folded over the integer lists and made monic for the message
        for make in (lambda: ideal("x^2*y", "x*y^2"),
                     lambda: parse_ideal_text("x^2*y\nx*y^2\n"),
                     lambda: parse_ideal_text("-2*x^2*y\n3/5*x^2*y^2 + 6/5*x*y^3\n")):
            with pytest.raises(NotArtinian, match=r"^not Artinian: common factor x\*y$"):
                hilbert_samuel(make())

    def test_lone_generator_named_by_its_monic_form(self, monkeypatch):
        # one generator or several, the message names the monic gcd, and
        # no generator form is built for it
        def forbidden(ideal):
            raise AssertionError("the generator forms were built")

        monkeypatch.setattr(GradedIdeal, "generators", property(forbidden))
        for text in ("2*x^2\n", "2*x^2\n4*x^2*y\n", "-3/2*x^2\n"):
            with pytest.raises(NotArtinian, match=r"^not Artinian: common factor x\^2$"):
                hilbert_samuel(parse_ideal_text(text))

    def test_truncation_rescues_common_factor(self):
        assert hilbert_samuel(ideal("x*y", truncate=4)) == (1, 2, 2, 2)

    def test_no_coprime_pair_but_artinian(self):
        # pairwise gcds are x, y, x+y, yet the three generators are jointly coprime
        seq = hilbert_samuel(ideal("x*y", "x^2 + x*y", "x*y + y^2"))
        assert seq == (1, 2)

    def test_mixed_degrees(self):
        assert hilbert_samuel(ideal("x^2", "x*y", "y^5")) == (1, 2, 1, 1, 1)

    def test_guard_from_largest_generator_degree(self):
        # the guard is 2 * 5 - 1 = 9, above the degree 5 + 2 - 1 = 6 that
        # the coprime pair gives and where the walk stops
        assert hilbert_samuel(ideal("x^5", "y^2")) == (1, 2, 2, 2, 2, 1)

    def test_persistent_tail_builds_no_more_components(self):
        # t_1 = t_2 = 1 past the generator degree 1: the sequence persists
        # up to the truncation, with components 0, 1 and 2 built
        line = GradedIdeal([F("x")], truncation=2000)
        assert hilbert_samuel(line) == (1,) * 2000
        assert len(line._components) <= 3
        # a degree asked for later is still built
        assert component(line, 9) == reference_component(line, 9)

    @pytest.mark.parametrize("texts, truncate, seq", [
        (("x^2", "y^2"), 3, (1, 2, 1)),
        (("x^5", "y^5"), 8, (1, 2, 3, 4, 5, 4, 3, 2)),
        ((), 4, (1, 2, 3, 4)),
    ])
    def test_walk_stops_before_the_truncation(self, texts, truncate, seq):
        # the sequence runs to the truncation D without persisting; I_D is
        # the whole space, so no basis of degree D or more is built, and one
        # asked for later is still the identity
        case = ideal(*texts, truncate=truncate)
        assert hilbert_samuel(case) == seq
        assert max(case._components) == truncate - 1
        assert component(case, truncate) == identity_basis(truncate + 1)
        assert component(case, truncate + 2) == identity_basis(truncate + 3)

    def test_degree_past_persistence_is_one_reduction(self):
        # I_d = x * S_(d-1) past the persistence degree 2, so degree 300 is
        # row-reduced from the multiples of x, and the degrees between are
        # neither built nor memoized
        line = GradedIdeal([F("x")], truncation=2000)
        hilbert_samuel(line)
        start = time.perf_counter()
        far = component(line, 300)
        assert time.perf_counter() - start < 1
        assert len(line._components) <= 4
        assert far == reference_component(line, 300)
        for d in (3, 57, 299):
            assert component(line, d) == reference_component(line, d)

    @pytest.mark.parametrize("walked", [True, False], ids=["after-hs", "fresh"])
    def test_persistent_factor_with_y_power(self, walked):
        # h = y * (x^2 - 2*y^2) has an irrational pair of roots and a root at
        # [1:0]; (h*x, h*y) persists from degree 5, with or without
        # hilbert_samuel walking up to it first
        h = F("x^2*y - 2*y^3")
        case = GradedIdeal([multiply(F("x"), h), multiply(F("y"), h)], truncation=90)
        if walked:
            assert hilbert_samuel(case) == (1, 2, 3, 4) + (3,) * 86
        far = component(case, 60)
        assert sorted(case._components) == [0, 1, 2, 3, 4, 5, 60]
        assert far == reference_component(case, 60)
        assert common_factor(case, 60) == common_factor(case, 5) == h

    def test_falling_tail_is_not_skipped(self):
        # past degree 5 the sequence of (x^5, y^5) falls by one per degree
        # and never persists, so every degree up to 8 is row-reduced
        pair = ideal("x^5", "y^5", truncate=30)
        assert component(pair, 8) == reference_component(pair, 8)
        assert sorted(pair._components) == list(range(9))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_the_reference_components(self, data):
        """Generators of degree at most 6 share a random factor h, so the
        sequence often persists at deg h long before a truncation of up to
        40; the reference builds every degree from all monomial multiples,
        with no memo and no persistence."""
        def coefficients(size):
            return data.draw(st.lists(st.integers(-3, 3), min_size=size,
                                      max_size=size).filter(any))

        h = binary_form(coefficients(data.draw(st.integers(1, 3))))
        gens = []
        for _ in range(data.draw(st.integers(1, 3))):
            degree = data.draw(st.integers(max(0, 1 - h.degree), 6 - h.degree))
            gens.append(multiply(h, binary_form(coefficients(degree + 1))))
        if data.draw(st.booleans()):
            gens.append(binary_form(coefficients(data.draw(st.integers(2, 7)))))
        case = GradedIdeal(gens, data.draw(st.integers(1, 40)))
        expected = []
        for d in itertools.count():
            t = d + 1 - reference_component(case, d).rank
            if t == 0:
                break
            expected.append(t)
        assert hilbert_samuel(case) == tuple(expected)
        # a degree asked for afterwards, often past the persistence degree,
        # and the same degree of a fresh copy, walked up to from degree 0
        degree = data.draw(st.integers(0, 45))
        expected = reference_component(case, degree)
        assert component(case, degree) == expected
        fresh = GradedIdeal(case.generators, case.truncation)
        assert component(fresh, degree) == expected


class TestFactorStructure:
    def test_common_factor_examples(self):
        assert common_factor(ideal("x^2", truncate=5), 3) == F("x^2")
        assert common_factor(ideal("x^2", "y^2"), 2).degree == 0
        assert common_factor(ideal("x^2*y", "x*y^2", truncate=5), 3) == F("x*y")
        with pytest.raises(EmptyComponent):
            common_factor(ideal("x^2"), 1)

    def test_common_factor_is_gcd_of_basis_forms(self):
        # normal forms, samples and a transform of each, in every degree
        # with a nonzero component up to the first full one
        rng = random.Random(7)
        ideals = []
        for colength in range(3, 13):
            for entries in enumerate_sequences(colength):
                seq = validate(entries)
                label = classify(seq)
                if label.finite:
                    ideals += [e.ideal for e in normal_forms(label)]
                if colength <= 9:
                    ideals += [sample_ideal(seq, seed) for seed in (0, 1)]
        ideals += [substitute_ideal(i, _random_change(rng)) for i in ideals]
        checked = 0
        for i in ideals:
            for d in range(len(hilbert_samuel(i)) + 1):
                forms = [binary_form(row) for row in fraction_rows(component(i, d))]
                if forms:
                    assert common_factor(i, d) == monic(reduce(gcd_forms, forms)), (i, d)
                    checked += 1
        assert checked > 1000

    def test_factor_list_is_the_fold_over_every_row(self):
        """``_factor_list`` seeds its fold with the last integer row divided
        by x^(r-1); it must give the fold of ``_form_gcd`` over all the rows,
        kept here as the reference, on every nonzero component of three
        samples of each sequence of colength 3-11 and of an integer
        transform of each."""
        rng = random.Random(13)
        samples = [sample_ideal(entries, seed) for colength in range(3, 12)
                   for entries in enumerate_sequences(colength) for seed in range(3)]
        images = [substitute_ideal(s, _random_change(rng)) for s in samples]
        checked = 0
        for i in samples + images:
            for d in range(len(hilbert_samuel(i))):
                basis = component(i, d)
                if basis.rank:
                    reference = list(reduce(_form_gcd, basis.integer_rows))
                    assert list(ideals_module._factor_list(basis)) == reference, (i, d)
                    checked += basis.rank > 1
        assert checked > 600

    def test_persistent_factor_is_the_fold_along_a_run(self):
        """On a tail run (s, e, v) with e > s, I_s = h * S_(s-v) (Gotzmann),
        so ``_persistent_factor`` reads h off the last row with no gcd: it
        must be ``_factor_list``'s fold up to sign, with the same
        ``_RootData`` partition and points, on every such run of the normal
        forms of colength 3-20 and of samples of colength 3-12, seeds 0-2."""
        ideals = []
        for colength in range(3, 21):
            for entries in enumerate_sequences(colength):
                label = classify(validate(entries))
                if label.finite:
                    ideals += [e.ideal for e in normal_forms(label)]
                if colength <= 12:
                    ideals += [sample_ideal(entries, seed) for seed in range(3)]
        checked = 0
        for i in ideals:
            seq = hilbert_samuel(i)
            for start, end, value in tail_runs(seq, validate(seq).n):
                if end == start:
                    continue
                basis = component(i, start)
                tail = list(ideals_module._persistent_factor(basis))
                fold = ideals_module._factor_list(basis)
                assert tail in (fold, [-c for c in fold]), (i, start)
                assert len(tail) == value + 1
                ours, theirs = _RootData(tail), _RootData(fold)
                assert (ours.partition, ours.points) == (theirs.partition, theirs.points)
                checked += 1
        assert checked > 1000

    def test_tail_of_a_run_of_one_is_not_the_factor(self):
        # (x^2, y^2) has sequence (1, 2, 1) and run (2, 2, 1): the last row
        # is x^2, whose tail x is no factor of y^2
        basis = component(ideal("x^2", "y^2"), 2)
        assert list(ideals_module._persistent_factor(basis)) == [0, 1]
        assert ideals_module._factor_list(basis) == [1]

    def test_skip_path_reads_the_factor_off_the_last_row(self):
        """Past the top generator degree, once the sequence persists,
        ``component`` writes the degree asked for as the multiples of h read
        off the degree below, building none of the degrees between."""
        for texts in (("x^2 - 3*x*y",), ("x^3", "x^2*y - 5*x*y^2"), ("2*x*y^2 + 3*y^3",)):
            i = ideal(*texts, truncate=40)
            seq = hilbert_samuel(i)
            assert seq[-1] == seq[-2]
            top = max(i._components)
            basis = component(i, 30)
            assert basis == reference_component(i, 30)
            assert max(d for d in i._components if d != 30) == top

    def test_verify_factor_structure(self):
        # a component is the multiples of its own GCD exactly in a run
        power = ideal("x^2", truncate=5)
        assert multiples_basis(common_factor(power, 3), 3) == component(power, 3)
        pencil = ideal("x^2", "y^2")
        assert multiples_basis(common_factor(pencil, 2), 2) != component(pencil, 2)

    def test_run_forces_principal_component(self):
        # sequence (1,2,2,2): the quadric run starts at degree 2
        quad = ideal("x^2 + 3*x*y - y^2", truncate=4)
        assert hilbert_samuel(quad) == (1, 2, 2, 2)
        assert common_factor(quad, 2).degree == 2
        assert multiples_basis(common_factor(quad, 2), 2) == component(quad, 2)


class TestPowerPairing:
    def test_distinct_square_pattern(self):
        theta = power_pairing(ideal("x^2", "y^2", truncate=3), 2)
        assert multiplicity_partition(theta) == (1, 1)

    def test_double_square_pattern(self):
        theta = power_pairing(ideal("x*y", "y^2", truncate=3), 2)
        assert multiplicity_partition(theta) == (2,)

    def test_cubic_pattern(self):
        # oracle: reduce (a x + b y)^3 by hand against the span of
        # x^2 y, x y^2, y^3: only a^3 x^3 survives, so the pattern is [3]
        theta = power_pairing(ideal("x^2*y", "x*y^2", "y^3", truncate=4), 3)
        assert multiplicity_partition(theta) == (3,)

    def test_undefined_when_quotient_not_a_line(self):
        with pytest.raises(PairingUndefined):
            power_pairing(ideal("x^2", "y^2", truncate=3), 1)


class TestSubstituteAndEquality:
    def test_swap_gives_same_ideal(self):
        base = ideal("x^2", "y^2")
        assert equal_ideals(substitute_ideal(base, LinearChange(0, 1, 1, 0)), base)

    def test_expansion_example(self):
        mapped = substitute_ideal(ideal("x^2", "y^2"), LinearChange(1, 1, 1, -1))
        expected = ideal("x^2 + 2*x*y + y^2", "x^2 - 2*x*y + y^2")
        assert equal_ideals(mapped, expected)

    def test_identity_is_neutral(self):
        base = ideal("x^3", "y^4")
        assert equal_ideals(substitute_ideal(base, LinearChange(1, 0, 0, 1)), base)

    def test_equal_ideals_examples(self):
        assert equal_ideals(ideal("x^2", "y^2"), ideal("x^2", "x^2 + y^2"))
        assert not equal_ideals(ideal("x^2", "y^2"), ideal("x*y", "y^2", truncate=3))

    def test_substitution_round_trip(self):
        rng = random.Random(11)
        base = ideal("x^2 - x*y", "y^3", truncate=5)
        for _ in range(40):
            m = _random_change(rng)
            back = substitute_ideal(substitute_ideal(base, m), inverse(m))
            assert equal_ideals(back, base)

    def test_sequence_is_substitution_invariant(self):
        rng = random.Random(12)
        pool = [
            ideal("x^2", "y^2"),
            ideal("x^2 + x*y", "y^3 - x^3"),
            ideal("x^2*y", truncate=5),
            GradedIdeal([], truncation=4),
        ]
        for _ in range(200):
            base = pool[rng.randrange(len(pool))]
            m = _random_change(rng)
            expected = hilbert_samuel(base)
            moved = substitute_ideal(base, m)
            fresh = GradedIdeal(moved.generators, moved.truncation)
            assert hilbert_samuel(fresh) == expected
            assert hilbert_samuel(moved) == hilbert_samuel(fresh)

    def test_image_forms_are_the_substituted_forms(self):
        # the view of an image built from integer lists equals substitute of
        # each of the source's forms, for fractional changes and fractional
        # sources
        changes = (LinearChange(2, 1, 1, 1),
                   LinearChange(Fraction(1, 2), 3, Fraction(-2, 3), 1),
                   LinearChange(0, Fraction(5, 4), 7, Fraction(1, 3)))
        sources = (ideal("x^2 - 3/2*x*y", "y^3", truncate=6),
                   parse_ideal_text("1/3*x^2 + x*y - 5/6*y^2\n2*x^3 - 7/4*y^3\n"))
        for base in sources:
            for m in changes:
                image = substitute_ideal(base, m)
                again = substitute_ideal(image, m)
                for source, moved in ((base, image), (image, again)):
                    assert list(moved.generators) == \
                        [substitute(g, m) for g in source.generators]
                    assert all(type(c) is Fraction
                               for g in moved.generators for c in g.coeffs)
                assert moved.truncation == base.truncation

    def test_image_inherits_a_computed_sequence_only(self):
        base = ideal("x^2 + x*y", "y^3 - x^3")
        m = LinearChange(1, 2, -1, 3)
        assert substitute_ideal(base, m)._sequence is None
        seq = hilbert_samuel(base)
        assert substitute_ideal(base, m)._sequence == seq

    def test_rank_monotone_along_degrees(self):
        base = ideal("x^3 - y^3", "x^2*y + y^3")
        seq = hilbert_samuel(base)
        ranks = [component(base, d).rank for d in range(len(seq) + 1)]
        for lo, hi in zip(ranks, ranks[1:]):
            if lo > 0:
                assert hi >= lo + 1


class TestMonomialOracle:
    def test_against_staircase_count(self):
        # for monomial ideals the sequence is pure combinatorics: a degree-d
        # monomial x^a y^(d-a) lies in the ideal iff it is divisible by some
        # generator or d reaches the truncation
        rng = random.Random(13)
        for _ in range(80):
            gens = []
            for _ in range(rng.randint(1, 4)):
                a = rng.randint(0, 4)
                b = rng.randint(0, 4)
                if a + b >= 1:
                    gens.append((a, b))
            truncate = rng.choice([None, rng.randint(1, 8)])
            if truncate is None:
                if not gens:
                    continue
                min_a = min(a for a, b in gens)
                min_b = min(b for a, b in gens)
                if min_a > 0 or min_b > 0:
                    continue  # common factor: not Artinian
            if not gens and truncate is None:
                continue

            def in_ideal(a, b):
                if truncate is not None and a + b >= truncate:
                    return True
                return any(a >= ga and b >= gb for ga, gb in gens)

            expected = []
            d = 0
            while True:
                t = sum(1 for a in range(d + 1) if not in_ideal(a, d - a))
                if t == 0:
                    break
                expected.append(t)
                d += 1

            built = GradedIdeal([binary_form([0] * a + [1] + [0] * b) for a, b in gens],
                                truncate)
            assert hilbert_samuel(built) == tuple(expected), (gens, truncate)


class TestIdealText:
    def test_round_trip(self):
        base = ideal("x^2 - 3/2*x*y", "y^3", truncate=6)
        again = parse_ideal_text(format_ideal(base))
        assert again.generators == base.generators
        assert again.truncation == base.truncation

    def test_comments_and_directive(self):
        text = "# heading\nx^2  # inline\ntruncate: 4\ny^2\n"
        parsed = parse_ideal_text(text)
        assert parsed.truncation == 4
        assert [str(g) for g in parsed.generators] == ["x^2", "y^2"]

    def test_errors(self):
        for bad in ("", "# only comments\n", "truncate: 0\n", "x^2\ntruncate: 3\ntruncate: 4\n",
                    "x - x\n", "5\n", "x^2 + y\n"):
            with pytest.raises(ParseError):
                parse_ideal_text(bad)

    def test_row_reduced_degree_limit(self):
        # the sequence row-reduces components below min(D, 2e + 1), or below
        # 2e without a truncation, for e the highest generator degree below D
        accepted = ("x^100\ny^100\n", "x^99\ny^99\ntruncate: 2000\n",
                    "x^150\ny^150\ntruncate: 200\n", "x\ny^1000\ntruncate: 1000\n")
        for text in accepted:
            parse_ideal_text(text)
        for text in ("x^101\ny^101\n", "x^100\ny^100\ntruncate: 2000\n"):
            with pytest.raises(ParseError, match="at most 199 is supported"):
                parse_ideal_text(text)

    def test_generators_are_indexed_by_degree(self):
        forms = [F("x^2"), F("3/2*x*y"), F("y^3 - x*y^2"), F("x^5")]
        built = GradedIdeal(forms, 4)
        from_lists = GradedIdeal._of_lists([_scaled(f.coeffs) for f in forms], 4)
        parsed = parse_ideal_text("x^2\n3/2*x*y\ny^3 - x*y^2\nx^5\ntruncate: 4\n")
        for i in (built, from_lists, parsed):
            assert i._by_degree == {2: [[0, 0, 1], [0, 3, 0]], 3: [[1, -1, 0, 0]],
                                    5: [[0, 0, 0, 0, 0, 1]]}
            assert i._top_degree == 3
        assert GradedIdeal([], 3)._by_degree == {}
        assert GradedIdeal([], 3)._top_degree == 0

    def test_generator_at_the_truncation_is_no_top_degree(self):
        i = parse_ideal_text("x^5\ntruncate: 3\n")
        assert i._top_degree == 0
        assert hilbert_samuel(i) == (1, 2, 3)
        assert parse_ideal_text("x^2\ny^3\ntruncate: 3\n")._top_degree == 2

    def test_row_reduced_limit_matches_the_generator_scan(self):
        """``_check_row_reduced`` refuses exactly what the scan of every
        generator below the truncation, kept here as the reference, bounds
        past ``MAX_ROW_REDUCED``."""
        def refused(ideal):
            try:
                ideals_module._check_row_reduced(ideal, ParseError)
            except ParseError:
                return True
            return False

        def reference(ideal):
            t = ideal.truncation
            e = max((len(v) - 1 for v, _ in ideal._lists if t is None or len(v) <= t),
                    default=0)
            return (2 * e if t is None else min(t, 2 * e + 1)) > ideals_module.MAX_ROW_REDUCED

        seen = set()
        for degrees in ((), (1,), (99,), (100,), (101,), (100, 101), (1, 150), (250,),
                        (99, 100, 199, 200, 201)):
            for t in (None, 1, 99, 100, 101, 150, 199, 200, 201, 202, 250, 2000):
                if t is None and not degrees:
                    continue
                i = GradedIdeal._of_lists([([0] * d + [1], 1) for d in degrees], t)
                assert refused(i) == reference(i), (degrees, t)
                seen.add(refused(i))
        assert seen == {True, False}

    def test_unreadable_truncation_is_a_parse_error(self):
        with pytest.raises(ParseError, match="truncation degree on line 2"):
            parse_ideal_text("x^2\ntruncate: %s\ny^2\n" % ("1" * 5000))

    def test_zero_generator_rejected_directly(self):
        with pytest.raises(ValueError):
            GradedIdeal([binary_form((0,))])
        with pytest.raises(ValueError):
            GradedIdeal([F("x")], truncation=0)

    def test_all_zero_generator_rejected_directly(self):
        # a zero generator given as coefficients, not as the empty tuple
        with pytest.raises(ValueError, match="zero generator"):
            GradedIdeal([BinaryForm((0, 0)), F("x^2"), F("y^2")])

    def test_truncation_must_be_an_integer(self):
        # no silent coercion: 2.7 is not truncated to 2, nor "3" read as 3
        for bad in (2.7, 3.0, "3"):
            with pytest.raises(TypeError):
                GradedIdeal([F("x")], truncation=bad)

    def test_coefficients_must_be_ints_or_fractions(self):
        with pytest.raises(TypeError, match="coefficient 1.5 is not"):
            GradedIdeal([BinaryForm((1.5, 2.0))])
        assert GradedIdeal([BinaryForm((1, Fraction(1, 2)))], truncation=2)._lists == \
            (([2, 1], 2),)
