"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion.  Everything is exact arithmetic, so tolerances are zero throughout.

For the 2-run-then-single-1 shape, criterion 5 checks 4 classes among the 5
catalog representatives: over a field of characteristic 0, as in the paper,
(x^2, x*y^(N-1) + y^N) is isomorphic to (x^2, y^N), since y -> y - x/N cancels
the x*y^(N-1) term modulo (x^2)_N.  The count is 5 only when the
characteristic divides N.  See
``test_criterion_05_class_count_single_trailing_one``.
"""

import hashlib
import json
import random
import time

from componentwise import componentwise_equal, multiples_basis
from hsfinite import (
    GradedIdeal,
    LinearChange,
    are_isomorphic,
    classify,
    common_factor,
    component,
    enumerate_sequences,
    gt_dimension,
    hilbert_samuel,
    match_pattern,
    multiplicity_partition,
    normal_forms,
    power_pairing,
    sample_ideal,
    sequence_for_label,
    substitute_ideal,
    validate,
    verify_catalog,
)
from hsfinite.catalog import _analyze
from hsfinite.sequences import row_dimension, sequence_for_row, tail_runs
from hsfinite.cli import main


def _report(num, text):
    print("criterion %d: PASS — %s" % (num, text))


def _row_instances(max_n, max_k, max_l, max_s):
    yield "T2", {}
    yield "T3", {}
    for n in range(2, max_n + 1):
        yield "T1", {"n": n}
    for k in range(1, max_k + 1):
        yield "T4", {"k": k}
        for n in range(2, max_n + 1):
            yield "T5", {"n": n, "k": k}
            yield "T8", {"n": n, "k": k}
        for n in range(1, max_n + 1):
            yield "T6", {"n": n, "k": k}
            for l in range(1, max_l + 1):
                yield "T7", {"n": n, "k": k, "l": l}
        for n in range(2, max_n + 1):
            for l in range(2, max_l + 1):
                yield "T9", {"n": n, "k": k, "l": l}
                yield "T10", {"n": n, "k": k, "l": l}
                for s in range(2, max_s + 1):
                    yield "T11", {"n": n, "k": k, "l": l, "s": s}


def test_criterion_01_table_dimension_column():
    checked = 0
    for kind, params in _row_instances(max_n=6, max_k=3, max_l=3, max_s=3):
        entries = sequence_for_row(kind, **params)
        assert gt_dimension(validate(entries)) == row_dimension(kind, **params), \
            (kind, params)
        checked += 1
    assert checked == 232
    _report(1, "dimension column reproduced on %d row instances" % checked)


def test_criterion_02_diagram_dimension_values():
    expected = {
        (1, 2): 0,
        (1, 2, 1): 2,
        (1, 2, 3, 1): 3,
        (1, 2, 3, 2): 4,
        (1, 2, 3, 2, 1): 4,
        (1, 2, 3, 2, 1, 1): 3,
        (1, 2, 3, 2, 2): 2,
    }
    for entries, dim in expected.items():
        assert gt_dimension(validate(entries)) == dim, entries
    _report(2, "all labeled diagram values reproduced")


# SHA-256 over repr((entries, str(label), dimension, canonical_n)) of the
# classify label of every valid sequence of colength 3-40, recorded when the
# finite-type list became one table in ``sequences``.
_CLASSIFY_DIGEST = "9422bc01a56156a02cae8c0d7d900eed7ef38d0ae989dd5dd6e7476ca33f9150"


def test_criterion_03_pattern_matches_iff_dimension_small():
    started = time.time()
    total = 0
    digest = hashlib.sha256()
    for colength in range(3, 41):
        for entries in enumerate_sequences(colength):
            seq = validate(entries)
            assert (match_pattern(seq) is not None) == (gt_dimension(seq) <= 3), entries
            label = classify(seq)
            if label.finite:
                assert sequence_for_label(label) == entries, (entries, str(label))
            digest.update(repr((entries, str(label), label.dimension,
                                label.canonical_n)).encode())
            total += 1
    elapsed = time.time() - started
    assert total == 8656
    assert digest.hexdigest() == _CLASSIFY_DIGEST
    assert elapsed < 10.0
    _report(3, "equivalence on %d sequences in %.2fs" % (total, elapsed))


def test_criterion_04_catalog_sequence_fidelity():
    checked = 0
    for kind, params in _row_instances(max_n=5, max_k=2, max_l=2, max_s=2):
        label = classify(validate(sequence_for_row(kind, **params)))
        target = sequence_for_label(label)
        for entry in normal_forms(label):
            assert hilbert_samuel(entry.ideal) == target, (kind, params,
                                                           entry.provenance)
            checked += 1
    assert checked == 245
    _report(4, "%d catalog entries realize their sequences exactly" % checked)


def test_criterion_05_class_counts_with_clean_pairs():
    expected = {
        (1, 2, 3, 4): 1,        # T1
        (1, 2, 1): 2,           # T2
        (1, 2, 3, 1): 3,        # T3
        (1, 2, 1, 1): 1,        # T5
        (1, 2, 3, 2, 2): 2,     # T6
        (1, 2, 3, 3, 3): 3,     # T8
    }
    for entries, count in expected.items():
        report = verify_catalog(classify(validate(entries)))
        assert all(report.sequence_ok), entries
        assert report.class_count == count, entries
        assert not report.unknown_pairs, entries
        assert all(v.kind == "distinguished" for _, _, v in report.pairwise), entries
    _report(5, "clean class counts for the single-factor rows")


def test_criterion_05_class_count_single_trailing_one():
    """Four classes for (1, 2, 2, 1): one catalog pair is isomorphic.

    The original requirement asserted five classes, every pair distinguished:

        assert all(v.kind == "distinguished" for _, _, v in report.pairwise)
        assert report.class_count == 5

    That count holds only in characteristic p dividing N, where N is the top
    degree (N = 3 here); the paper works in characteristic 0.  The degree-2
    run factor q is xy or x^2.  For q = x^2, every substitution that fixes
    (x^2) up to a scalar is x -> a*x, y -> b*x + c*y, and modulo x^2*S_(N-2)
    it sends u*x*y^(N-1) + v*y^N to
    (u*a*c^(N-1) + N*v*b*c^(N-1))*x*y^(N-1) + v*c^N*y^N.  If v != 0 and N is
    invertible, b = -u*a/(N*v) gives (x^2, y^N); if v = 0 it gives
    (x^2, x*y^(N-1)): two classes.  For q = xy, the torus and the swap leave
    (xy, x^N + y^N) and (xy, x^N): two classes.  So the count is 4, and the
    representatives (x^2, x*y^2 + y^3) and (x^2, y^3) must be joined by a
    checked witness, with every other pair distinguished and none unknown.
    """
    report = verify_catalog(classify(validate((1, 2, 2, 1))))
    assert all(report.sequence_ok)
    assert not report.unknown_pairs
    assert report.class_count == 4
    joined = [(i, j, v) for i, j, v in report.pairwise
              if v.kind != "distinguished"]
    assert len(joined) == 1
    i, j, verdict = joined[0]
    assert verdict.kind == "isomorphic"
    assert {report.entries[i].provenance, report.entries[j].provenance} == {
        "pair (x^2, x*y^2 + y^3)", "pair (x^2, y^3)"}
    assert verdict.witness is not None
    assert componentwise_equal(
        substitute_ideal(report.entries[i].ideal, verdict.witness),
        report.entries[j].ideal)
    _report(5, "4 classes for the single trailing 1, one verified witness")


def test_criterion_05_derived_counts_with_evidence():
    derived = {
        (1, 2, 3, 2, 1, 1): 4,        # quartic-factor pencils
        (1, 2, 3, 3, 1, 1): 4,        # cubic/linear chains
        (1, 2, 3, 3, 2, 2): 4,        # cubic/quadratic chains
        (1, 2, 3, 3, 2, 2, 1, 1): 5,  # full chains
    }
    for entries, count in derived.items():
        report = verify_catalog(classify(validate(entries)))
        assert all(report.sequence_ok), entries
        assert report.class_count == count, entries
        for i, j, verdict in report.pairwise:
            if verdict.kind == "isomorphic":
                assert verdict.witness is not None
                assert componentwise_equal(
                    substitute_ideal(report.entries[i].ideal, verdict.witness),
                    report.entries[j].ideal), (entries, i, j)
    _report(5, "derived counts reported with verified witnesses")


def test_criterion_06_theta_patterns():
    two = normal_forms(classify(validate((1, 2, 1))))
    patterns2 = [multiplicity_partition(power_pairing(e.ideal, 2)) for e in two]
    assert patterns2 == [(1, 1), (2,)]
    three = normal_forms(classify(validate((1, 2, 3, 1))))
    patterns3 = [multiplicity_partition(power_pairing(e.ideal, 3)) for e in three]
    assert patterns3 == [(1, 1, 1), (2, 1), (3,)]
    _report(6, "power-pairing patterns match on both catalogs")


def test_criterion_07_factor_structure_on_samples():
    shapes = [
        (1, 2, 2, 2),
        (1, 2, 2, 1, 1),
        (1, 2, 3, 2, 2, 1),
        (1, 2, 3, 3, 3),
        (1, 2, 3, 2, 2, 2, 1),
        (1, 2, 3, 4, 2, 2),
        (1, 2, 3, 3, 1, 1),
        (1, 2, 1, 1, 1),
        (1, 2, 3, 4, 4),
        (1, 2, 3, 3, 2, 2),
    ]
    runs_checked = 0
    for seed in range(100):
        entries = shapes[seed % len(shapes)]
        seq = validate(entries)
        ideal = sample_ideal(seq, seed)
        assert hilbert_samuel(ideal) == entries
        for start, end, value in tail_runs(entries, seq.n):
            if start == end and value != seq.n:
                continue  # one degree only; a run of value n also holds degree n - 1
            for degree in range(start, end + 1):
                h = common_factor(ideal, degree)
                assert h.degree == value, (entries, seed)
                assert multiples_basis(h, degree) == component(ideal, degree), \
                    (entries, seed)
                runs_checked += 1
    assert runs_checked >= 100
    _report(7, "factor structure held at %d run degrees over 100 samples"
            % runs_checked)


def _catalog_pool():
    pool = []
    for entries in [(1, 2, 3), (1, 2, 1), (1, 2, 3, 1), (1, 2, 3, 2, 1, 1),
                    (1, 2, 1, 1), (1, 2, 2, 2), (1, 2, 2, 1), (1, 2, 2, 1, 1),
                    (1, 2, 3, 3), (1, 2, 3, 3, 1, 1), (1, 2, 3, 3, 2, 2),
                    (1, 2, 3, 3, 2, 2, 1, 1)]:
        pool.extend(e.ideal for e in normal_forms(classify(validate(entries))))
    return pool


def test_criterion_08_substitution_invariance_suite():
    rng = random.Random(2024)
    pool = _catalog_pool()

    def random_change():
        while True:
            a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
            if a * d - b * c != 0:
                return LinearChange(a, b, c, d)

    for trial in range(200):
        base = pool[trial % len(pool)]
        change = random_change()
        expected = hilbert_samuel(base)
        moved = substitute_ideal(base, change)
        fresh = GradedIdeal(moved.generators, moved.truncation)
        assert hilbert_samuel(fresh) == expected
        assert hilbert_samuel(moved) == hilbert_samuel(fresh)
        assert _analyze(moved).invariant == _analyze(base).invariant
        verdict = are_isomorphic(base, moved)
        assert verdict.kind == "isomorphic", (trial, repr(base))
        assert componentwise_equal(substitute_ideal(base, verdict.witness), moved)
    _report(8, "200 transformed pairs: invariants stable, witnesses found")


def test_criterion_09_infinite_type_evidence():
    seq = validate((1, 2, 3, 2, 1))
    label = classify(seq)
    assert not label.finite
    assert label.dimension == 4
    for seed in range(50):
        ideal = sample_ideal(seq, seed)
        assert hilbert_samuel(ideal) == (1, 2, 3, 2, 1)
    _report(9, "infinite verdict plus 50 verified samples")


def _run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_10_cli_golden_and_exit_codes(capsys, tmp_path):
    sq = tmp_path / "sq.ideal"
    sq.write_text("x^2\ny^2\n")
    xy = tmp_path / "xy.ideal"
    xy.write_text("x*y\n")
    t3 = tmp_path / "t3.ideal"
    t3.write_text("truncate: 3\n")
    t2a = tmp_path / "t2a.ideal"
    t2a.write_text("x^2\ny^2\ntruncate: 3\n")
    t2b = tmp_path / "t2b.ideal"
    t2b.write_text("x*y\ny^2\ntruncate: 3\n")
    galois = tmp_path / "g.ideal"
    galois.write_text("x*y\nx^2 - y^2\ntruncate: 3\n")
    bad = tmp_path / "bad.ideal"
    bad.write_text("x^2 + y\n")

    goldens = [
        (("hs", str(sq)), 0, "(1, 2, 1)\n"),
        (("hs", str(t3)), 0, "(1, 2, 3)\n"),
        (("classify", "1,2,1"), 0, "finite, T2, dim 2\n"),
        (("classify", "1,2,3,2,1"), 0, "infinite, dim 4\n"),
        (("enumerate", "--colength", "3"), 0, "(1, 2)  dim 0  finite  T1(n=2)\n"),
        (("iso", str(t2a), str(t2b)), 0, "Distinguished(theta-pattern)\n"),
        (("iso", str(t2a), str(galois)), 0, "Unknown\n"),
        (("diagram", "1,2,1"), 0, " #\n###\n"),
        (("diagram", "1,2,3,4"), 0, "   #\n  ##\n ###\n####\n"),
        (("diagram", "1,2,3,2,2"), 0, "  #\n ####\n#####\n"),
    ]
    for argv, code, out in goldens:
        got = _run_cli(capsys, *argv)
        assert got[0] == code and got[1] == out, argv

    code, out, _ = _run_cli(capsys, "enumerate", "--colength", "6")
    assert code == 0 and len(out.splitlines()) == 3

    out_dir = tmp_path / "cat"
    code, _, _ = _run_cli(capsys, "catalog", "1,2,1", "--out", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["class_count"] == 2

    sample_dir = tmp_path / "samples"
    code, _, _ = _run_cli(capsys, "sample", "1,2,2,2", "--seed", "7",
                          "--count", "3", "--out", str(sample_dir))
    assert code == 0
    assert len(list(sample_dir.iterdir())) == 3

    # exit-code matrix: 0 covered above, 1 usage, 2 parse, 3 domain, 4 sampling
    assert _run_cli(capsys, "nonsense")[0] == 1
    assert _run_cli(capsys, "hs", str(bad))[0] == 2
    assert _run_cli(capsys, "hs", str(xy))[0] == 3
    assert _run_cli(capsys, "classify", "1,2,4")[0] == 3
    assert _run_cli(capsys, "catalog", "1,2,3,2,1", "--out", str(tmp_path / "n"))[0] == 3

    import hsfinite.cli as cli_mod
    from hsfinite.errors import SamplingFailed

    real = cli_mod.sample_ideal
    cli_mod.sample_ideal = lambda seq, seed: (_ for _ in ()).throw(
        SamplingFailed(seq.entries, 64))
    try:
        assert _run_cli(capsys, "sample", "1,2,1", "--out", str(tmp_path))[0] == 4
    finally:
        cli_mod.sample_ideal = real
    _report(10, "golden outputs byte-identical, exit-code matrix covered")
