"""Normal-form catalogs, invariants, the isomorphism tester and the sampler."""

import dataclasses
import functools
import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from componentwise import componentwise_equal, multiples_basis, reference_component
from hsfinite import (
    GradedIdeal,
    LinearChange,
    NoCatalog,
    SamplingFailed,
    StructuralInvariant,
    are_isomorphic,
    classify,
    common_factor,
    component,
    enumerate_sequences,
    equal_ideals,
    format_ideal,
    hilbert_samuel,
    multiplicity_partition,
    multiply,
    normal_forms,
    parse_form,
    parse_ideal_text,
    power_pairing,
    sample_ideal,
    sequence_for_label,
    substitute_ideal,
    validate,
    verify_catalog,
)
from hsfinite.catalog import _analyze, _discriminant
from hsfinite.forms import _exact_quotient, _RootData, _scaled, _trim
from hsfinite.ideals import _factor_list
from hsfinite.sequences import TypeLabel, tail_runs
from test_forms import kernel_calls

F = parse_form


def label_for(entries):
    return classify(validate(entries))


def _random_change(rng):
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c != 0:
            return LinearChange(a, b, c, d)


class TestNormalForms:
    def test_t1_single_power_ideal(self):
        entries = normal_forms(label_for((1, 2, 3)))
        assert len(entries) == 1
        assert entries[0].ideal.generators == ()
        assert entries[0].ideal.truncation == 3

    def test_t2_two_entries(self):
        entries = normal_forms(label_for((1, 2, 1)))
        assert len(entries) == 2

    def test_t3_three_entries_with_patterns(self):
        entries = normal_forms(label_for((1, 2, 3, 1)))
        patterns = [multiplicity_partition(power_pairing(e.ideal, 3)) for e in entries]
        assert patterns == [(1, 1, 1), (2, 1), (3,)]

    def test_t7_entry_counts(self):
        assert len(normal_forms(label_for((1, 2, 3, 2, 2, 1)))) == 5   # l = 1
        assert len(normal_forms(label_for((1, 2, 3, 2, 2, 1, 1)))) == 2  # l = 2

    def test_t7_l2_oracle_kills_three_candidates(self):
        # build all five l=1 pair shapes with the longer truncation and check
        # which survive to t_{N+1} = 1; the three rejected ones die at 0
        big = 4  # n=2, k=1
        shapes = [
            ("x*y", "x^4 + y^4", False),
            ("x*y", "x^4", True),
            ("x^2", "x*y^3 + y^4", False),
            ("x^2", "x*y^3", True),
            ("x^2", "y^4", False),
        ]
        target = (1, 2, 2, 2, 1, 1)
        for f_text, h_text, survives in shapes:
            ideal = GradedIdeal([F(f_text), F(h_text)], truncation=big + 2)
            assert (hilbert_samuel(ideal) == target) == survives, (f_text, h_text)

    def test_chain_counts_from_orbit_oracle(self):
        # fix a cubic root multiset per orbit shape, enumerate divisor chains
        # h_1 | h_2 | ... | cubic by root sub-multisets, and deduplicate under
        # the multiplicity-preserving root permutations of the cubic
        def sub_multisets(pool, size):
            return {tuple(sorted(c)) for c in itertools.combinations(pool, size)}

        def chain_classes(shape, sizes):
            roots, perms = shape
            seen = set()
            count = 0
            for chain in itertools.product(
                    *[sub_multisets(roots, s) for s in sizes]):
                parts = [tuple(sorted(roots))] + [tuple(p) for p in chain]
                ok = True
                for bigger, smaller in zip(parts, parts[1:]):
                    pool = list(bigger)
                    for r in smaller:
                        if r in pool:
                            pool.remove(r)
                        else:
                            ok = False
                    if not ok:
                        break
                if not ok:
                    continue
                orbit = frozenset(
                    tuple(tuple(sorted(perm[r] for r in part)) for part in parts)
                    for perm in perms)
                if orbit not in seen:
                    seen.add(orbit)
                    count += 1
            return count

        distinct = (("a", "b", "c"),
                    [dict(zip("abc", p)) for p in itertools.permutations("abc")])
        double = (("a", "a", "b"), [{"a": "a", "b": "b"}])
        triple = (("a", "a", "a"), [{"a": "a"}])

        def total(sizes):
            return sum(chain_classes(shape, sizes) for shape in (distinct, double, triple))

        assert total([1]) == len(normal_forms(label_for((1, 2, 3, 3, 1, 1)))) == 4
        assert total([2]) == len(normal_forms(label_for((1, 2, 3, 3, 2, 2)))) == 4
        assert total([2, 1]) == len(normal_forms(label_for((1, 2, 3, 3, 2, 2, 1, 1)))) == 5

    def test_every_small_label_has_faithful_sequences(self):
        for label in _small_labels(max_n=4, max_k=1, max_l=2, max_s=2):
            target = sequence_for_label(label)
            for entry in normal_forms(label):
                assert hilbert_samuel(entry.ideal) == target, (str(label), entry.provenance)

    def test_infinite_label_refused(self):
        with pytest.raises(NoCatalog):
            normal_forms(label_for((1, 2, 3, 2, 1)))

    def test_bad_parameters_refused(self):
        from hsfinite import InvalidParameters

        with pytest.raises(InvalidParameters):
            normal_forms(TypeLabel("T5", 1, (("n", 2),), 2))

    def test_dimension_must_match_the_row(self):
        from hsfinite import InvalidParameters

        label = TypeLabel("T5", 99, (("n", 2), ("k", 1)), 7)
        for build in (normal_forms, verify_catalog):
            with pytest.raises(InvalidParameters, match="dimension 1, not 99"):
                build(label)
        assert verify_catalog(dataclasses.replace(label, dimension=1)).to_dict()[
            "dimension"] == 1

    def test_every_normal_form_up_to_colength_20_is_pinned(self):
        # SHA-256 over repr((format_ideal, provenance)) of every normal form of
        # every finite label of colength 3-20, recorded when the row-built
        # normal forms became one table of factor texts
        digest = hashlib.sha256()
        count = 0
        for colength in range(3, 21):
            for entries in enumerate_sequences(colength):
                label = label_for(entries)
                if label.finite:
                    for entry in normal_forms(label):
                        digest.update(repr((format_ideal(entry.ideal),
                                            entry.provenance)).encode())
                        count += 1
        assert count == 643
        assert digest.hexdigest() == (
            "dd521b950d391cf48133cc506e76fa1c783c917eeb002475d90c18dcc2d44c15")


def _small_labels(max_n, max_k, max_l, max_s):
    out = [label_for((1, 2, 1)), label_for((1, 2, 3, 1))]
    from hsfinite import sequence_for_row

    for n in range(2, max_n + 1):
        out.append(label_for(sequence_for_row("T1", n=n)))
    for k in range(1, max_k + 1):
        out.append(label_for(sequence_for_row("T4", k=k)))
        for n in range(2, max_n + 1):
            out.append(label_for(sequence_for_row("T5", n=n, k=k)))
            out.append(label_for(sequence_for_row("T8", n=n, k=k)))
        for n in range(1, max_n + 1):
            out.append(label_for(sequence_for_row("T6", n=n, k=k)))
            for l in range(1, max_l + 1):
                out.append(label_for(sequence_for_row("T7", n=n, k=k, l=l)))
        for n in range(2, max_n + 1):
            for l in range(2, max_l + 1):
                out.append(label_for(sequence_for_row("T9", n=n, k=k, l=l)))
                out.append(label_for(sequence_for_row("T10", n=n, k=k, l=l)))
                for s in range(2, max_s + 1):
                    out.append(label_for(sequence_for_row("T11", n=n, k=k, l=l, s=s)))
    return out


def _disc(p1, p2):
    """``_discriminant`` of two quadratics, their integer lists cleared of
    denominators at one common scale."""
    both = _scaled(p1.coeffs + p2.coeffs)[0]
    return _discriminant(both[:3], both[3:])


class TestPencilDiscriminant:
    def test_examples(self):
        # disc(a x^2 + b y^2) = -4ab
        d = _disc(F("x^2"), F("y^2"))
        assert d == [0, -4, 0] and _RootData(d).partition == (1, 1)
        # disc(a x^2 + b xy) = b^2
        assert _RootData(_disc(F("x^2"), F("x*y"))).partition == (2,)
        # disc(a xy + b y^2) = a^2
        assert _RootData(_disc(F("x*y"), F("y^2"))).partition == (2,)

    def test_members_share_one_scale(self):
        # p1 + p2 = (x + y)^2 / 3 and p1 = x^2 / 2 are the squares, at
        # (a : b) = (1 : 1) and (1 : 0); clearing each member's denominator
        # on its own rescales b against a and moves (1 : 1) to (3 : 1)
        p1 = F("1/2*x^2")
        p2 = F("-1/6*x^2 + 2/3*x*y + 1/3*y^2")
        assert _RootData(_disc(p1, p2)).points == [((1, 0), 1), ((1, 1), 1)]
        apart = _discriminant(_scaled(p1.coeffs)[0], _scaled(p2.coeffs)[0])
        assert _RootData(apart).points == [((1, 0), 1), ((3, 1), 1)]

    def test_pattern_invariant_under_simultaneous_substitution(self):
        from hsfinite import substitute

        rng = random.Random(21)
        pencils = [(F("x^2"), F("y^2")), (F("x^2"), F("x*y")),
                   (F("x^2 + x*y"), F("y^2")), (F("x^2 - y^2"), F("x*y"))]
        for _ in range(60):
            p1, p2 = pencils[rng.randrange(len(pencils))]
            m = _random_change(rng)
            before = _RootData(_disc(p1, p2)).partition
            after = _RootData(_disc(substitute(p1, m), substitute(p2, m))).partition
            assert before == after


class TestStructuralInvariant:
    def test_principal_quadratic_run(self):
        inv = _analyze(GradedIdeal([F("x^2")], truncation=5)).invariant
        assert inv.sequence == (1, 2, 2, 2, 2)
        assert inv.run_data == ((2, 4, 2, (2,)),)
        assert inv.theta_pattern is None

    def test_theta_and_no_runs(self):
        inv = _analyze(GradedIdeal([F("x^2"), F("y^2")], truncation=3)).invariant
        assert inv.theta_pattern == (1, 1)
        assert inv.pencil_patterns == ((2, (1, 1)),)

    def test_chain_entry_factors(self):
        label = label_for((1, 2, 3, 3, 1, 1))
        entry = next(e for e in normal_forms(label) if e.provenance == "chain x | x^2*y")
        inv = _analyze(entry.ideal).invariant
        parts = [run[3] for run in inv.run_data]
        assert parts == [(2, 1), (1,)]  # x divides x^2*y

    def test_long_run_of_ones_builds_up_to_persistence(self):
        # (x*y, x^3) truncated at 33: t_3 = t_4 = 1 past the generator degree
        # 3, so the sequence persists from degree 4 and no component above it
        # is built, neither by the sequence nor by the invariants
        label = label_for((1, 2, 2) + (1,) * 30)
        entry = next(e for e in normal_forms(label) if e.provenance == "pair (x*y, x^3)")
        fresh = GradedIdeal(entry.ideal.generators, entry.ideal.truncation)
        assert _analyze(fresh).invariant.sequence == (1, 2, 2) + (1,) * 30
        assert max(fresh._components) == 4

    @pytest.mark.parametrize("seed", [0, 1])
    def test_inherited_sequence_builds_nothing_past_the_last_run_start(self, seed):
        # a substituted sample inherits its sequence, so only ``_analyze``
        # builds the image's components, and it reads every invariant at a
        # tail-run start: the rank-2 end of the run of 2s of (1, 2, 2, 2),
        # degree 3, holds no pencil and is not built
        change = LinearChange(2, 1, 1, 1)
        image = substitute_ideal(sample_ideal((1, 2, 2, 2), seed), change)
        _analyze(image)
        assert sorted(image._components) == [0, 1, 2]
        for colength in range(3, 12):
            for entries in enumerate_sequences(colength):
                image = substitute_ideal(sample_ideal(entries, seed), change)
                _analyze(image)
                runs = tail_runs(entries, validate(entries).n)
                last = runs[-1][0] if runs else -1
                assert all(d <= last for d in image._components), entries

    def test_invariant_under_substitution(self):
        rng = random.Random(22)
        pool = [e.ideal for e in normal_forms(label_for((1, 2, 3, 2, 1, 1)))]
        pool += [e.ideal for e in normal_forms(label_for((1, 2, 2, 1)))]
        pool.append(sample_ideal(validate((1, 2, 3, 2, 2, 1)), 5))
        for _ in range(60):
            base = pool[rng.randrange(len(pool))]
            m = _random_change(rng)
            assert _analyze(substitute_ideal(base, m)).invariant == \
                _analyze(base).invariant

    def test_large_coefficient_image_analyses_quickly(self):
        # x*y*(x - y)*...*(x - 98*y) under x -> 2x + y, y -> x + y: its run's
        # factor has degree 100 and coefficients of about 500 bits, and is
        # proved squarefree modulo a prime, not by a remainder sequence
        f = functools.reduce(multiply, [F("x"), F("y")] + [F("x - %d*y" % k)
                                                           for k in range(1, 99)])
        base = GradedIdeal([f], truncation=102)
        text = format_ideal(substitute_ideal(base, LinearChange(2, 1, 1, 1)))
        image = parse_ideal_text(text)
        start = time.perf_counter()
        analysis = _analyze(image)
        assert time.perf_counter() - start < 2
        assert analysis.invariant == _analyze(base).invariant
        assert analysis.invariant.run_data == ((100, 101, 100, (1,) * 100),)

    # The sampled rows of these sequences share no factor, so every gcd of a
    # component's rows is constant, proved modulo a prime; the remainder
    # sequences alone took about a minute per pair.  The expected
    # invariants are the ones the remainder sequences computed.
    PYRAMID = tuple(range(1, 41)) + tuple(range(39, 0, -1))
    PLATEAU = tuple(range(1, 31)) + (30,) * 60 + tuple(range(29, 0, -1))

    @pytest.mark.parametrize("pair, expected", [
        ("pyramid", StructuralInvariant(
            sequence=PYRAMID,
            run_data=tuple((d, d, 79 - d, ()) for d in range(40, 79)),
            theta_pattern=(1,) * 78, pencil_patterns=())),
        ("plateau", StructuralInvariant(
            sequence=PLATEAU,
            run_data=((30, 89, 30, (1,) * 30),)
            + tuple((d, d, 119 - d, ()) for d in range(90, 119)),
            theta_pattern=(1,) * 118, pencil_patterns=())),
    ])
    def test_long_sampled_sequences_analyse_quickly(self, pair, expected):
        if pair == "pyramid":  # a sample against its image under [[1, 1], [0, 1]]
            left = sample_ideal(validate(self.PYRAMID), 0)
            right = substitute_ideal(left, LinearChange(1, 1, 0, 1))
        else:  # two samples
            left, right = (sample_ideal(validate(self.PLATEAU), k) for k in (0, 1))
        start = time.perf_counter()
        assert _analyze(left).invariant == _analyze(right).invariant == expected
        assert are_isomorphic(left, right).kind == "unknown"
        assert time.perf_counter() - start < 10

    def test_root_data_work_is_pinned(self, monkeypatch):
        # the benchmark's tracer wraps public names only, so the kernel work
        # under the invariants is counted here: the 294 normal forms up to
        # colength 16 and their images under x -> 2x + y, y -> x + y, read
        # back from text so that no component or analysis is cached.  Yun's
        # loop stops once the degree left decides the last layer and never
        # divides by a constant gcd; running every pass up to the highest
        # multiplicity made 396 / 476 and 1416 / 3176 calls
        change = LinearChange(2, 1, 1, 1)
        bases, images = [], []
        for colength in range(3, 17):
            for entries in enumerate_sequences(colength):
                label = label_for(entries)
                if label.finite:
                    for entry in normal_forms(label):
                        bases.append(format_ideal(entry.ideal))
                        images.append(format_ideal(substitute_ideal(entry.ideal, change)))
        assert len(bases) == 294
        calls = kernel_calls(monkeypatch)
        for texts, gcds, divides in ((bases, 318, 290), (images, 630, 1335)):
            ideals = [parse_ideal_text(text) for text in texts]
            for log in calls.values():
                log.clear()
            for ideal in ideals:
                _analyze(ideal)
            assert len(calls["_gcd"]) <= gcds and len(calls["_divide"]) <= divides


class TestAreIsomorphic:
    def test_theta_distinguishes_the_square_patterns(self):
        a = GradedIdeal([F("x^2"), F("y^2")], truncation=3)
        b = GradedIdeal([F("x*y"), F("y^2")], truncation=3)
        verdict = are_isomorphic(a, b)
        assert verdict.kind == "distinguished"
        assert verdict.field == "theta-pattern"

    def test_transformed_ideal_recovers_witness(self):
        base = GradedIdeal([F("x^2"), F("y^2")], truncation=3)
        moved = substitute_ideal(base, LinearChange(2, 1, 1, 1))
        verdict = are_isomorphic(base, moved)
        assert verdict.kind == "isomorphic"
        assert componentwise_equal(substitute_ideal(base, verdict.witness), moved)

    def test_rational_vs_irrational_square_lines_is_unknown(self):
        # same invariants, but the second pencil's square members are only
        # defined over an extension: no rational witness can exist
        a = GradedIdeal([F("x^2"), F("y^2")], truncation=3)
        b = GradedIdeal([F("x*y"), F("x^2 - y^2")], truncation=3)
        assert _analyze(a).invariant == _analyze(b).invariant
        assert are_isomorphic(a, b).kind == "unknown"

    def test_never_wrong_on_transformed_pairs(self):
        rng = random.Random(23)
        pool = [e.ideal for e in normal_forms(label_for((1, 2, 2, 1)))]
        pool += [e.ideal for e in normal_forms(label_for((1, 2, 3, 3)))]
        for _ in range(25):
            base = pool[rng.randrange(len(pool))]
            m = _random_change(rng)
            verdict = are_isomorphic(base, substitute_ideal(base, m))
            assert verdict.kind == "isomorphic"

    def test_hot_path_builds_no_generator_forms(self, monkeypatch):
        # parsing, sampling, substituting, the sequence, the invariants and
        # the witness check all read the integer lists; the generator forms
        # are built only for a caller that reads them
        rng = random.Random(31)
        pairs = [("x^2\ny^3\n", "x^2 + 2*x*y + y^2\n1/2*x^3 - y^3\n")]
        for entries in ((1, 2, 2, 1), (1, 2, 3, 3), (1, 2, 1, 1, 1)):
            for entry in normal_forms(label_for(entries)):
                moved = substitute_ideal(entry.ideal, _random_change(rng))
                pairs.append((format_ideal(entry.ideal), format_ideal(moved)))
        samples = [(entries, seed, _random_change(rng))
                   for entries in ((1, 2, 2, 1), (1, 2, 3, 2, 1)) for seed in range(3)]
        changes = [LinearChange(Fraction(1, 2), 1, 3, Fraction(-2, 3))]

        def forbidden(ideal):
            raise AssertionError("the generator forms were built")

        built = []
        verdicts = []
        with monkeypatch.context() as patch:
            patch.setattr(GradedIdeal, "generators", property(forbidden))
            for a, b in pairs:
                left, right = parse_ideal_text(a), parse_ideal_text(b)
                verdicts.append(are_isomorphic(left, right).kind)
                built += [left, right]
            for entries, seed, m in samples:
                sample = sample_ideal(entries, seed)
                for change in [m] + changes:
                    image = substitute_ideal(sample, change)
                    verdicts.append(are_isomorphic(sample, image).kind)
                    built += [sample, image]
        assert "isomorphic" in verdicts and "distinguished" not in verdicts
        assert all(ideal._generators is None for ideal in built)

    def test_identity_and_swap_keys_are_not_substituted(self, monkeypatch):
        # the identity maps each generator list to itself and the swap to
        # its reverse, so neither key reaches the Horner kernel
        import hsfinite.catalog as cat

        keys = []
        real = cat._substitution
        monkeypatch.setattr(cat, "_substitution", lambda *key: keys.append(key) or real(*key))
        base = GradedIdeal([F("x^2"), F("x*y^2 + y^3")], truncation=4)
        pairs = [(base, base),
                 (base, substitute_ideal(base, LinearChange(0, 1, 1, 0))),
                 (base, substitute_ideal(base, LinearChange(3, 0, -1, 1))),
                 (GradedIdeal([F("x^2"), F("y^2")], truncation=3),
                  GradedIdeal([F("x*y"), F("x^2 - y^2")], truncation=3))]
        verdicts = [are_isomorphic(a, b) for a, b in pairs]
        assert [v.kind for v in verdicts] == ["isomorphic"] * 3 + ["unknown"]
        assert [v.witness.matrix() for v in verdicts[:2]] == [((1, 0), (0, 1)),
                                                              ((0, 1), (1, 0))]
        for (a, b), v in zip(pairs[:3], verdicts):
            assert componentwise_equal(substitute_ideal(a, v.witness), b)
        assert keys and not {(1, 0, 0, 1), (0, 1, 1, 0)} & set(keys)


class TestVerifyCatalog:
    @pytest.mark.parametrize("entries,classes,distinguished_pairs", [
        ((1, 2, 1), 2, 1),
        ((1, 2, 3, 1), 3, 3),
        ((1, 2, 1, 1), 1, 0),
        ((1, 2, 2, 2), 2, 1),
        ((1, 2, 3, 3, 3), 3, 3),
    ])
    def test_clean_counts(self, entries, classes, distinguished_pairs):
        report = verify_catalog(label_for(entries))
        assert all(report.sequence_ok)
        assert report.class_count == classes
        assert not report.unknown_pairs
        assert sum(v.kind == "distinguished" for _, _, v in report.pairwise) == \
            distinguished_pairs

    def test_t4_report(self):
        report = verify_catalog(label_for((1, 2, 3, 2, 1, 1)))
        assert all(report.sequence_ok)
        assert report.class_count == 4
        assert report.unknown_pairs == [[1, 2], [1, 4]]
        iso = [(i, j) for i, j, v in report.pairwise if v.kind == "isomorphic"]
        assert iso == [(2, 4)]
        for i, j, v in report.pairwise:
            if v.kind == "isomorphic":
                assert componentwise_equal(
                    substitute_ideal(report.entries[i].ideal, v.witness),
                    report.entries[j].ideal)

    def test_report_is_frozen(self):
        report = verify_catalog(label_for((1, 2, 1)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.classes = []

    def test_report_dict_is_stable(self):
        import json

        report = verify_catalog(label_for((1, 2, 1)))
        once = json.dumps(report.to_dict(), sort_keys=True)
        twice = json.dumps(verify_catalog(label_for((1, 2, 1))).to_dict(), sort_keys=True)
        assert once == twice


class TestSampler:
    def test_two_independent_quadrics(self):
        ideal = sample_ideal(validate((1, 2, 1)), 0)
        assert hilbert_samuel(ideal) == (1, 2, 1)

    def test_principal_run_shape(self):
        ideal = sample_ideal(validate((1, 2, 2, 2)), 3)
        assert hilbert_samuel(ideal) == (1, 2, 2, 2)
        assert ideal.truncation == 4
        assert common_factor(ideal, 2).degree == 2

    def test_deterministic_in_seed(self):
        a = sample_ideal(validate((1, 2, 3, 2, 2, 1)), 9)
        b = sample_ideal(validate((1, 2, 3, 2, 2, 1)), 9)
        assert a.generators == b.generators and a.truncation == b.truncation
        c = sample_ideal(validate((1, 2, 3, 2, 2, 1)), 10)
        assert not equal_ideals(a, c) or a.generators == c.generators

    def test_infinite_type_sequences_sample_fine(self):
        for seed in range(10):
            ideal = sample_ideal(validate((1, 2, 3, 2, 1)), seed)
            assert hilbert_samuel(ideal) == (1, 2, 3, 2, 1)

    def test_sub_generic_growth_outside_runs(self):
        # degree 4 must be a non-generic 3-dimensional space for t_5 = 1 to be
        # reachable, which random forms seldom give: seeds 0-3 exhaust the
        # structured tries, and the sampler then makes every tail degree its
        # own run, a factor chain with deg c_d = t_d; seed 4's fourth try
        # draws three quartics with the common factor x
        entries = (1, 2, 3, 4, 2, 1)
        for seed in range(5):
            ideal = sample_ideal(validate(entries), seed)
            assert hilbert_samuel(ideal) == entries
            memo = ideal._components
            assert set(range(len(entries))) <= memo.keys()
            for d, comp in memo.items():
                assert comp == reference_component(ideal, d)
            shape = (1, 1) if seed == 4 else (entries[4], entries[5])
            assert (common_factor(ideal, 4).degree, common_factor(ideal, 5).degree) == shape

    def test_memoized_components_match_the_reference(self):
        """The sampler leaves the bases it built in the ideal's memo, and
        ``sample_ideal`` checks the sequence from them; each must be the
        component rebuilt from all monomial multiples of the generators, and
        an unmemoized copy of the ideal must have the same sequence."""
        checked = 0
        for colength in range(3, 12):
            for entries in enumerate_sequences(colength):
                for seed in range(3):
                    ideal = sample_ideal(entries, seed)
                    memo = ideal._components
                    # every degree below the truncation was built by the sampler
                    assert set(range(len(entries))) <= memo.keys()
                    for d, comp in memo.items():
                        assert comp == reference_component(ideal, d)
                    checked += len(memo)
                    fresh = GradedIdeal(ideal.generators, ideal.truncation)
                    assert hilbert_samuel(fresh) == entries
        assert checked > 700

    def test_chain_runs_of_equal_value_share_their_factor(self):
        # the last tries make every tail degree its own run; a degree of the
        # same value as the next keeps that degree's factor, drawing nothing
        import hsfinite.catalog as cat

        entries = (1, 2, 3, 3, 2, 2, 1, 1)
        n = validate(entries).n
        chain = [(d, d, entries[d]) for d in range(n, len(entries))]
        ideal = cat._try_sample(entries, random.Random(0), chain)
        assert hilbert_samuel(ideal) == entries
        # the first multiple of c_d is x^(d - t_d) * c_d
        factors = {}
        for g in ideal.generators:
            factors.setdefault(g.degree, g.coeffs[g.degree - entries[g.degree]:])
        assert sorted(factors) == list(range(n, len(entries)))
        for d in range(n, len(entries) - 1):
            assert (factors[d] == factors[d + 1]) == (entries[d] == entries[d + 1])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([e for c in range(3, 13) for e in enumerate_sequences(c)]),
           st.integers(0, 10 ** 6))
    def test_run_factors_form_a_divisibility_chain(self, entries, seed):
        """The run factors form a divisibility chain.  Let h_d be the gcd
        of I_d, nonzero from degree n on.  For f in I_d, x*f and y*f lie in
        I_(d+1), so h_(d+1) divides both, hence their gcd f; so h_(d+1)
        divides h_d.  Each run factor thus divides every earlier one, and
        gcd(f_i, f_j) for i < j is f_j up to a unit: a pairwise gcd of run
        factors is no invariant beyond ``run_data``."""
        ideal = sample_ideal(entries, seed)
        factors = [_factor_list(component(ideal, start))
                   for start, _, _ in tail_runs(entries, validate(entries).n)]
        for f, h in itertools.combinations(factors, 2):
            core = _trim(list(h))  # h = core * y^k, and y^k must divide f
            k = len(h) - len(core)
            assert len(f) - len(_trim(list(f))) >= k
            assert _exact_quotient(f[:len(f) - k], core) is not None

    def test_failure_is_reported_not_silent(self):
        with pytest.raises(SamplingFailed) as info:
            # impossible on purpose: monkey-level patch via a zero retry budget
            import hsfinite.catalog as cat

            old = cat._RETRY_BUDGET
            cat._RETRY_BUDGET = 0
            try:
                sample_ideal(validate((1, 2, 1)), 0)
            finally:
                cat._RETRY_BUDGET = old
        assert info.value.entries == (1, 2, 1)

    def test_runs_satisfy_factor_structure(self):
        shapes = [(1, 2, 2, 2), (1, 2, 3, 2, 2, 1), (1, 2, 3, 3, 3, 1, 1),
                  (1, 2, 1, 1), (1, 2, 3, 4, 2, 2)]
        for seed, entries in enumerate(shapes):
            seq = validate(entries)
            ideal = sample_ideal(seq, seed)
            blocks = []
            for i, t in enumerate(entries):
                if blocks and blocks[-1][2] == t:
                    blocks[-1][1] = i
                else:
                    blocks.append([i, i, t])
            for start, end, value in blocks:
                if end - start + 1 < 2 or end < seq.n:
                    continue
                for deg in range(max(start, seq.n), end + 1):
                    assert common_factor(ideal, deg).degree == value
                    assert multiples_basis(common_factor(ideal, deg), deg) == \
                        component(ideal, deg)
