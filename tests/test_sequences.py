"""Sequence validation, jump indices, the dimension formula and matching."""

import pytest

from hsfinite import (
    InvalidColength,
    InvalidSequence,
    ParseError,
    classify,
    enumerate_sequences,
    format_sequence,
    gt_dimension,
    jump_indices,
    match_pattern,
    parse_sequence_text,
    sequence_for_row,
    validate,
)
from hsfinite.sequences import MAX_COLENGTH, check_row_parameters, row_dimension, tail_runs
from hsfinite.errors import InvalidParameters


class TestValidate:
    def test_accepts_table_shapes(self):
        seq = validate((1, 2, 3, 1))
        assert seq.n == 3
        assert sum(seq.entries) == 7

    def test_rejects_tail_increase(self):
        with pytest.raises(InvalidSequence):
            validate((1, 2, 3, 2, 3))

    def test_rejects_jump_above_staircase(self):
        with pytest.raises(InvalidSequence):
            validate((1, 2, 4))

    def test_scope_guard(self):
        for bad in ((2,), (1,), (1, 1, 1), (1, 3), (1, 2, 0, 1)):
            with pytest.raises(InvalidSequence):
                validate(bad)

    def test_head_only(self):
        assert validate((1, 2)).n == 2
        assert validate((1, 2, 3)).n == 3

    def test_non_integer_entries_refused(self):
        for bad in ((1, 2.7, 1), (1, 2, "1"), (1, 2.0, 1), "121"):
            with pytest.raises(InvalidSequence, match="integers"):
                validate(bad)


class TestJumpIndices:
    def test_simple_drop(self):
        assert jump_indices(validate((1, 2, 1))) == {2: 1, 3: 1}

    def test_single_drop_to_zero(self):
        assert jump_indices(validate((1, 2, 3, 4))) == {4: 4}

    def test_longer_tail(self):
        assert jump_indices(validate((1, 2, 3, 2, 1, 1))) == {3: 1, 4: 1, 5: 0, 6: 1}

    def test_jumps_sum_to_n(self):
        for n_total in range(3, 25):
            for entries in enumerate_sequences(n_total):
                seq = validate(entries)
                assert sum(jump_indices(seq).values()) == seq.n


class TestDimensionFormula:
    @pytest.mark.parametrize("entries,expected", [
        ((1, 2, 3, 4), 0),
        ((1, 2, 3, 1), 3),
        ((1, 2, 3, 2), 4),
        ((1, 2, 3, 2, 1, 1), 3),
        ((1, 2, 2, 1), 3),
        ((1, 2), 0),
        ((1, 2, 1), 2),
        ((1, 2, 3, 2, 1), 4),
        ((1, 2, 3, 2, 2), 2),
        ((1, 2, 3, 3, 2), 5),
    ])
    def test_values(self, entries, expected):
        assert gt_dimension(validate(entries)) == expected


class TestMatching:
    def test_examples(self):
        assert str(match_pattern(validate((1, 2, 2, 2)))) == "T6(n=1, k=2)"
        assert str(match_pattern(validate((1, 2, 3, 4, 1, 1)))) == "T5(n=4, k=1)"
        assert match_pattern(validate((1, 2, 3, 2, 1))) is None

    def test_aliased_parameters(self):
        label = match_pattern(validate((1, 2, 2, 1)))
        assert str(label) == "T7(n=1, k=1, l=1)"
        assert label.canonical_n == 2
        label8 = match_pattern(validate((1, 2, 3, 3)))
        assert str(label8) == "T8(n=2, k=1)"
        assert label8.canonical_n == 3

    def test_row_instances_round_trip(self):
        # every row instance matches back to a label that regenerates it
        cases = []
        for n in range(2, 7):
            cases.append(("T1", {"n": n}))
        cases += [("T2", {}), ("T3", {})]
        for k in range(1, 4):
            cases.append(("T4", {"k": k}))
        for n in range(2, 7):
            for k in range(1, 4):
                cases += [("T5", {"n": n, "k": k}), ("T8", {"n": n, "k": k})]
        for n in range(1, 7):
            for k in range(1, 4):
                cases.append(("T6", {"n": n, "k": k}))
                for l in range(1, 4):
                    cases.append(("T7", {"n": n, "k": k, "l": l}))
        for n in range(2, 7):
            for k in range(1, 4):
                for l in range(2, 4):
                    cases += [("T9", {"n": n, "k": k, "l": l}),
                              ("T10", {"n": n, "k": k, "l": l})]
                    for s in range(2, 4):
                        cases.append(("T11", {"n": n, "k": k, "l": l, "s": s}))
        for kind, params in cases:
            entries = sequence_for_row(kind, **params)
            label = match_pattern(validate(entries))
            assert label is not None, (kind, params)
            assert label.kind == kind, (kind, params, str(label))
            assert sequence_for_row(kind, **label.param_dict()) == entries

    def test_parameter_checks(self):
        with pytest.raises(InvalidParameters):
            check_row_parameters("T5", {"n": 2})
        with pytest.raises(InvalidParameters):
            check_row_parameters("T9", {"n": 2, "k": 1, "l": 1})
        with pytest.raises(InvalidParameters):
            check_row_parameters("T2", {"n": 2})

    def test_non_integer_parameters_refused(self):
        with pytest.raises(InvalidParameters, match="needs an integer n"):
            check_row_parameters("T5", {"n": "3", "k": 1})
        with pytest.raises(InvalidParameters, match="needs an integer n"):
            sequence_for_row("T5", n=2.5, k=1)
        with pytest.raises(InvalidParameters, match="needs an integer l"):
            row_dimension("T7", n=2, k=1, l=1.0)


class TestClassify:
    def test_finite_examples(self):
        label = classify(validate((1, 2, 1)))
        assert (label.kind, label.dimension) == ("T2", 2)
        label = classify(validate((1, 2, 3, 2, 2)))
        assert (label.kind, label.dimension) == ("T6", 2)

    def test_infinite_example(self):
        label = classify(validate((1, 2, 3, 3, 2)))
        assert not label.finite
        assert label.dimension == 5

    def test_never_finite_above_three(self):
        for n_total in range(3, 26):
            for entries in enumerate_sequences(n_total):
                label = classify(validate(entries))
                assert label.finite == (label.dimension <= 3)

    def test_row_dimension_matches_formula(self):
        assert row_dimension("T7", n=2, k=1, l=1) == 3
        assert row_dimension("T7", n=2, k=1, l=2) == 2

    def test_row_dimension_validates_like_sequence_for_row(self):
        for kind, params in (("T12", {}), ("T7", {}), ("T5", {"n": 1, "k": 1}),
                             ("T2", {"n": 2})):
            with pytest.raises(InvalidParameters) as from_sequence:
                sequence_for_row(kind, **params)
            with pytest.raises(InvalidParameters) as from_dimension:
                row_dimension(kind, **params)
            assert str(from_dimension.value) == str(from_sequence.value)


class TestEnumeration:
    def test_small_colengths(self):
        assert enumerate_sequences(3) == [(1, 2)]
        assert enumerate_sequences(4) == [(1, 2, 1)]
        assert enumerate_sequences(6) == [(1, 2, 1, 1, 1), (1, 2, 2, 1), (1, 2, 3)]

    def test_rejects_tiny_colength(self):
        with pytest.raises(InvalidColength):
            enumerate_sequences(2)

    def test_rejects_colength_above_the_limit(self):
        assert enumerate_sequences(MAX_COLENGTH)
        with pytest.raises(InvalidColength):
            enumerate_sequences(MAX_COLENGTH + 1)

    def test_outputs_distinct_valid_and_ordered(self):
        for n_total in (8, 13, 20):
            out = enumerate_sequences(n_total)
            assert len(set(out)) == len(out)
            assert out == sorted(out)
            for entries in out:
                assert sum(entries) == n_total
                validate(entries)


class TestSequenceText:
    def test_parse_variants(self):
        assert parse_sequence_text("1,2,1") == (1, 2, 1)
        assert parse_sequence_text(" ( 1 , 2 , 3 ) ") == (1, 2, 3)

    def test_parse_errors(self):
        for bad in ("", "1,,2", "1,a", "1 2 3"):
            with pytest.raises(ParseError):
                parse_sequence_text(bad)

    def test_unreadable_entry_is_a_parse_error(self):
        with pytest.raises(ParseError, match="sequence entry 2"):
            parse_sequence_text("1,2," + "1" * 5000)

    def test_format(self):
        assert format_sequence((1, 2, 1)) == "(1, 2, 1)"


class TestTailRuns:
    def test_empty_tail(self):
        assert tail_runs((1, 2, 3), 3) == []

    def test_one_run(self):
        assert tail_runs((1, 2, 3, 2, 2), 3) == [(3, 4, 2)]

    def test_all_equal_entries(self):
        assert tail_runs((1, 1, 1, 1), 0) == [(0, 3, 1)]
        assert tail_runs((1, 1, 1, 1), 2) == [(2, 3, 1)]

    def test_run_clipped_at_n(self):
        # the block of 3s spans indices 2..3; the tail starts at n = 3
        entries = (1, 2, 3, 3, 2, 2, 1)
        assert validate(entries).n == 3
        assert tail_runs(entries, 3) == [(3, 3, 3), (4, 5, 2), (6, 6, 1)]
