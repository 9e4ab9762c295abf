"""Command-line behavior: golden outputs, exit codes, JSON schemas."""

import json
import os
import shutil
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsfinite import (classify, enumerate_sequences, format_ideal, parse_ideal_text,
                      sample_ideal, validate, verify_catalog)
from hsfinite import cli
from hsfinite.cli import MAX_SAMPLE_COUNT, main
from hsfinite.ideals import MAX_ROW_REDUCED, MAX_TRUNCATION
from hsfinite.sequences import MAX_COLENGTH

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

# any code point, lone surrogates included, with the ones JSON escapes
# (quotes, backslashes, controls) and non-BMP ones drawn often
_JSON_STRINGS = st.text(st.characters(exclude_categories=())
                        | st.sampled_from('"\\\x00\x08\x1f\x7f')
                        | st.characters(min_codepoint=0x10000))

SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
SCHEMA_DIR = os.path.join(SRC_DIR, "hsfinite", "schemas")


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(**env):
    """The environment of a child process that imports this checkout's
    ``hsfinite``, with the given variables set."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])), **env)


def run_process(*argv, timeout=10, env=()):
    """``python -m hsfinite.cli`` in a child process, with a time limit and
    the given environment variables set."""
    return subprocess.run([sys.executable, "-m", "hsfinite.cli", *argv],
                          capture_output=True, text=True, env=child_env(**dict(env)),
                          timeout=timeout)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def check_schema(payload, name):
    if jsonschema is None:
        pytest.skip("jsonschema unavailable")
    with open(os.path.join(SCHEMA_DIR, name + ".json")) as handle:
        jsonschema.validate(payload, json.load(handle))


class TestHs:
    def test_two_quadrics(self, capsys, tmp_path):
        path = write(tmp_path, "sq.ideal", "x^2\ny^2\n")
        assert run(capsys, "hs", path) == (0, "(1, 2, 1)\n", "")

    def test_not_artinian(self, capsys, tmp_path):
        path = write(tmp_path, "xy.ideal", "x*y\n")
        code, out, err = run(capsys, "hs", path)
        assert code == 3 and out == ""
        assert err == "error: not Artinian: common factor x*y\n"

    def test_not_artinian_common_factor_of_two_generators(self, capsys, tmp_path):
        path = write(tmp_path, "xxy.ideal", "x^2*y\nx*y^2\n")
        assert run(capsys, "hs", path) == (3, "", "error: not Artinian: common factor x*y\n")

    def test_not_artinian_lone_generator_is_named_monic(self, capsys, tmp_path):
        path = write(tmp_path, "2xx.ideal", "2*x^2\n")
        assert run(capsys, "hs", path) == (3, "", "error: not Artinian: common factor x^2\n")

    def test_truncation_only(self, capsys, tmp_path):
        path = write(tmp_path, "t3.ideal", "truncate: 3\n")
        assert run(capsys, "hs", path) == (0, "(1, 2, 3)\n", "")

    def test_json(self, capsys, tmp_path):
        path = write(tmp_path, "sq.ideal", "x^2\ny^2\n")
        code, out, _ = run(capsys, "hs", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"sequence": [1, 2, 1]}
        check_schema(payload, "sequence")

    def test_parse_error(self, capsys, tmp_path):
        path = write(tmp_path, "bad.ideal", "x^2 + y\n")
        assert run(capsys, "hs", path)[0] == 2

    def test_oversized_exponent(self, capsys, tmp_path):
        path = write(tmp_path, "big.ideal", "x^100000000\ny^2\n")
        code, out, err = run(capsys, "hs", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: expected an exponent of at most 1000")

    def test_undecodable_file(self, capsys, tmp_path):
        # a UTF-16 file: its byte-order mark \xff\xfe is not UTF-8
        path = tmp_path / "utf16.ideal"
        path.write_bytes(b"\xff\xfe" + "x^2\ny^2\n".encode("utf-16-le"))
        code, out, err = run(capsys, "hs", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read %s as UTF-8 text" % path)
        assert err.count("\n") == 1

    def test_missing_file(self, capsys, tmp_path):
        # an I/O error is exit code 2 with one error line, no traceback
        path = str(tmp_path / "nope.ideal")
        assert run(capsys, "hs", path) == (
            2, "", "error: [Errno 2] No such file or directory: %r\n" % path)

    @pytest.mark.parametrize("degree", [MAX_TRUNCATION, MAX_TRUNCATION + 1])
    def test_truncation_limit(self, tmp_path, degree):
        # refused above the limit; at the limit the sequence persists from
        # degree 2, so three components are built and the run is quick
        path = write(tmp_path, "x.ideal", "x\ntruncate: %d\n" % degree)
        done = run_process("hs", path, timeout=60)
        assert "Traceback" not in done.stderr
        if degree > MAX_TRUNCATION:
            assert (done.returncode, done.stdout) == (2, "")
            assert "between 1 and %d" % MAX_TRUNCATION in done.stderr
        else:
            assert done.returncode == 0
            assert done.stdout == "(%s)\n" % ", ".join(["1"] * degree)

    def test_untruncated_high_degrees_refused(self, tmp_path):
        # the walk to the first full component would row-reduce every
        # degree below 799: refused before any component is built
        path = write(tmp_path, "big.ideal", "x^400\ny^400\n")
        done = run_process("hs", path)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == ("error: the sequence may need components up to "
                               "degree 799; at most 199 is supported\n")

    def test_number_over_the_digit_limit(self, capsys, tmp_path):
        path = write(tmp_path, "long.ideal", "%s*x\ny\n" % ("1" * 5000))
        code, out, err = run(capsys, "hs", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read the number at position 0")

    def test_digit_limit_holds_with_the_interpreter_limit_lifted(self, tmp_path):
        # PYTHONINTMAXSTRDIGITS=0 lifts Python's own int-string limit
        lifted = {"PYTHONINTMAXSTRDIGITS": "0"}
        path = write(tmp_path, "long.ideal", "%s*x\ny\n" % ("1" * 5000))
        done = run_process("hs", path, env=lifted)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: cannot read the number at position 0")
        path = write(tmp_path, "read.ideal", "%s*x\ny\n" % ("1" * 4000))
        done = run_process("hs", path, env=lifted)
        assert (done.returncode, done.stdout, done.stderr) == (0, "(1)\n", "")


class TestClassify:
    def test_entry_over_the_digit_limit(self, capsys):
        code, out, err = run(capsys, "classify", "1,2," + "1" * 5000)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read sequence entry 2")

    def test_finite(self, capsys):
        assert run(capsys, "classify", "1,2,1") == (0, "finite, T2, dim 2\n", "")

    def test_infinite(self, capsys):
        assert run(capsys, "classify", "1,2,3,2,1") == (0, "infinite, dim 4\n", "")

    def test_invalid(self, capsys):
        assert run(capsys, "classify", "1,2,4")[0] == 3

    def test_parameters_and_canonical(self, capsys):
        code, out, _ = run(capsys, "classify", "1,2,2,2")
        assert code == 0
        assert out == "finite, T6(n=1, k=2), dim 2\ncanonical n = 2\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "1,2,2,1", "--json")
        payload = json.loads(out)
        assert payload == {"canonical_n": 2, "dim": 3, "finite": True,
                           "label": "T7", "params": {"k": 1, "l": 1, "n": 1}}
        check_schema(payload, "classification")
        code, out, _ = run(capsys, "classify", "1,2,3,2,1", "--json")
        check_schema(json.loads(out), "classification")


class TestEnumerate:
    def test_colength_six(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--colength", "6")
        assert code == 0
        assert out == (
            "(1, 2, 1, 1, 1)  dim 1  finite  T5(n=2, k=2)\n"
            "(1, 2, 2, 1)  dim 3  finite  T7(n=1, k=1, l=1)\n"
            "(1, 2, 3)  dim 0  finite  T1(n=3)\n"
        )

    def test_colength_three(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--colength", "3")
        assert code == 0
        assert out == "(1, 2)  dim 0  finite  T1(n=2)\n"

    def test_max_colength(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-colength", "4")
        assert code == 0
        assert out.splitlines() == ["(1, 2)  dim 0  finite  T1(n=2)",
                                    "(1, 2, 1)  dim 2  finite  T2"]

    def test_too_small(self, capsys):
        assert run(capsys, "enumerate", "--colength", "2")[0] == 3

    @pytest.mark.parametrize("flag", ["--colength", "--max-colength"])
    def test_colength_limit(self, flag):
        # refused before any sequence is enumerated, even for a huge value
        for value in (MAX_COLENGTH + 1, 10 ** 12):
            done = run_process("enumerate", flag, str(value))
            assert done.returncode == 3
            assert done.stdout == ""
            assert "at most %d" % MAX_COLENGTH in done.stderr
            assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_reader_closing_early_is_a_quiet_exit(self, mode):
        # like `| head -1`: the child's output (about 580 KB as JSON, 130 KB
        # as text) outgrows the pipe, so a write fails once the reader closes
        with subprocess.Popen(
                [sys.executable, "-m", "hsfinite.cli", "enumerate",
                 "--max-colength", "30", *mode],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as child:
            first = child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=30)
        assert first in (b"{\n", b"(1, 2)  dim 0  finite  T1(n=2)\n")
        assert code == 0
        assert err == b""

    def test_closed_stdout_is_a_quiet_exit(self):
        # started with descriptor 1 closed, Python sets sys.stdout to None
        # and print writes nothing
        done = subprocess.run(
            ["sh", "-c", 'exec "$0" -m hsfinite.cli enumerate --colength 6 >&-',
             sys.executable], capture_output=True, env=child_env(), timeout=30)
        assert (done.returncode, done.stderr) == (0, b"")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--colength", "7", "--json")
        payload = json.loads(out)
        check_schema(payload, "enumeration")
        infinite = [r for r in payload["rows"] if not r["finite"]]
        assert all(r["label"] is None for r in infinite)


class TestCatalog:
    def test_square_catalog(self, capsys, tmp_path):
        out_dir = str(tmp_path / "cat")
        code, out, _ = run(capsys, "catalog", "1,2,1", "--out", out_dir)
        assert code == 0
        assert sorted(os.listdir(out_dir)) == ["entry_1.ideal", "entry_2.ideal",
                                               "report.json"]
        report = json.loads((tmp_path / "cat" / "report.json").read_text())
        assert report["class_count"] == 2
        check_schema(report, "catalog_report")
        parse_ideal_text((tmp_path / "cat" / "entry_1.ideal").read_text())
        assert out.endswith("classes: 2 (unknown pairs: 0)\nreport: %s\n"
                            % os.path.join(out_dir, "report.json"))

    def test_cubic_catalog_has_three_files(self, capsys, tmp_path):
        out_dir = str(tmp_path / "cat3")
        code, _, _ = run(capsys, "catalog", "1,2,3,1", "--out", out_dir)
        assert code == 0
        files = [f for f in os.listdir(out_dir) if f.endswith(".ideal")]
        assert len(files) == 3

    def test_infinite_has_no_catalog(self, capsys, tmp_path):
        code, _, err = run(capsys, "catalog", "1,2,3,2,1", "--out", str(tmp_path / "x"))
        assert code == 3 and "no catalog" in err

    def test_unwritable_out_is_an_io_error(self, capsys, tmp_path):
        blocker = write(tmp_path, "file", "")
        out_dir = os.path.join(blocker, "sub")
        assert run(capsys, "catalog", "1,2,1", "--out", out_dir) == (
            2, "", "error: [Errno 20] Not a directory: %r\n" % out_dir)

    def test_out_naming_a_file_is_an_io_error(self, capsys, tmp_path):
        blocker = write(tmp_path, "file", "")
        assert run(capsys, "catalog", "1,2,1", "--out", blocker) == (
            2, "", "error: [Errno 17] File exists: %r\n" % blocker)

    @staticmethod
    def check_files(out_dir, out):
        """report.json is the ``--json`` stdout, and each entry file the
        provenance line and the ideal of its report entry, byte for byte."""
        entries = json.loads(out)["entries"]
        assert sorted(os.listdir(out_dir)) == sorted(
            ["report.json"] + ["entry_%d.ideal" % i for i in range(1, len(entries) + 1)])
        assert (out_dir / "report.json").read_bytes() == out.encode("utf-8")
        for i, entry in enumerate(entries, start=1):
            assert (out_dir / ("entry_%d.ideal" % i)).read_bytes() == \
                ("# " + entry["provenance"] + "\n" + entry["ideal"]).encode("utf-8")

    def test_files_are_the_bytes_of_the_report(self, capsys, tmp_path):
        code, out, _ = run(capsys, "catalog", "1,2,2,1", "--out", str(tmp_path / "b"),
                           "--json")
        assert code == 0
        self.check_files(tmp_path / "b", out)

    def test_short_raw_writes_are_completed(self, capsys, tmp_path, monkeypatch):
        # a descriptor write may write fewer bytes than it is given
        writes = []
        real_write = os.write

        def short_write(fd, data):
            writes.append(len(data))
            return real_write(fd, data[:7])

        def no_file_object(*args, **kwargs):
            raise AssertionError("catalog opened a file object")

        monkeypatch.setattr(os, "write", short_write)
        monkeypatch.setattr(cli, "open", no_file_object, raising=False)
        code, out, _ = run(capsys, "catalog", "1,2,2,1", "--out", str(tmp_path / "s"),
                           "--json")
        assert code == 0
        self.check_files(tmp_path / "s", out)
        assert len(writes) > len(out) // 7

    def test_longer_files_are_rewritten_to_the_new_bytes(self, capsys, tmp_path):
        out_dir = tmp_path / "again"
        out_dir.mkdir()
        for name in ("report.json", "entry_1.ideal", "entry_5.ideal"):
            (out_dir / name).write_bytes(b"stale\n" * 4000)
        code, out, _ = run(capsys, "catalog", "1,2,2,1", "--out", str(out_dir), "--json")
        assert code == 0
        self.check_files(out_dir, out)

    def test_directory_in_place_of_a_file_is_an_io_error(self, capsys, tmp_path):
        report = tmp_path / "d" / "report.json"
        report.mkdir(parents=True)
        assert run(capsys, "catalog", "1,2,1", "--out", str(tmp_path / "d"), "--json") == (
            2, "", "error: [Errno 21] Is a directory: %r\n" % str(report))

    def test_json_mirror(self, capsys, tmp_path):
        code, out, _ = run(capsys, "catalog", "1,2,1", "--out",
                           str(tmp_path / "catj"), "--json")
        assert code == 0
        check_schema(json.loads(out), "catalog_report")

    @staticmethod
    def staircase(n):
        """The T11 sequence 1, 2, ..., n, 3, 3, 2, 2, 1, 1; its normal forms
        are truncated at n + 6, with generators up to degree n + 4, so the
        row-reduced bound of their files is the truncation."""
        return ",".join(str(t) for t in list(range(1, n + 1)) + [3, 3, 2, 2, 1, 1])

    def test_entry_files_past_the_row_reduction_limit_refused(self, tmp_path):
        # truncation MAX_ROW_REDUCED + 1: hs would refuse every entry file
        out_dir = tmp_path / "big"
        done = run_process("catalog", self.staircase(MAX_ROW_REDUCED - 5),
                           "--out", str(out_dir))
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == ("error: the sequence may need components up to "
                               "degree %d; at most %d is supported\n"
                               % (MAX_ROW_REDUCED, MAX_ROW_REDUCED - 1))
        assert not out_dir.exists()

    def test_entry_files_at_the_row_reduction_limit_read_back(self, capsys, tmp_path):
        seq = self.staircase(MAX_ROW_REDUCED - 6)
        out_dir = tmp_path / "limit"
        assert run(capsys, "catalog", seq, "--out", str(out_dir))[0] == 0
        names = sorted(n for n in os.listdir(out_dir) if n.endswith(".ideal"))
        assert len(names) == 5
        for name in names:
            code, out, _ = run(capsys, "hs", str(out_dir / name))
            assert (code, out) == (0, "(%s)\n" % seq.replace(",", ", "))


class TestIso:
    def test_distinguished(self, capsys, tmp_path):
        a = write(tmp_path, "a.ideal", "x^2\ny^2\ntruncate: 3\n")
        b = write(tmp_path, "b.ideal", "x*y\ny^2\ntruncate: 3\n")
        assert run(capsys, "iso", a, b) == (0, "Distinguished(theta-pattern)\n", "")

    def test_swap_witness(self, capsys, tmp_path):
        a = write(tmp_path, "a.ideal", "x*y\nx^4\ntruncate: 5\n")
        b = write(tmp_path, "b.ideal", "x*y\ny^4\ntruncate: 5\n")
        code, out, _ = run(capsys, "iso", a, b)
        assert code == 0
        assert out == "Isomorphic, witness [[0, 1], [1, 0]]\n"

    def test_unknown_for_irrational_configuration(self, capsys, tmp_path):
        a = write(tmp_path, "a.ideal", "x^2\ny^2\ntruncate: 3\n")
        b = write(tmp_path, "b.ideal", "x*y\nx^2 - y^2\ntruncate: 3\n")
        assert run(capsys, "iso", a, b) == (0, "Unknown\n", "")

    def test_lines_at_the_truncation_limit(self, tmp_path):
        # sequences of 2000 ones: the invariants and the witness check read
        # no component above the persistence degree 2
        a = write(tmp_path, "a.ideal", "x\ntruncate: %d\n" % MAX_TRUNCATION)
        b = write(tmp_path, "b.ideal", "y\ntruncate: %d\n" % MAX_TRUNCATION)
        done = run_process("iso", a, b)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "Isomorphic, witness [[0, 1], [1, 0]]\n"

    def test_semiprime_coefficient_finishes(self, tmp_path):
        # x^2 - P*y^2 has no rational root, and P = (2^61 - 1)(2^89 - 1) is
        # a product of two large primes: finding that out must not factor P
        prime_product = (2 ** 61 - 1) * (2 ** 89 - 1)
        a = write(tmp_path, "a.ideal", "x^2 - %d*y^2\nx*y\ntruncate: 3\n" % prime_product)
        b = write(tmp_path, "b.ideal", "x^2 - y^2\nx*y\ntruncate: 3\n")
        done = run_process("iso", a, b)
        assert done.returncode == 0
        assert done.stdout == "Unknown\n"
        assert "Traceback" not in done.stderr

    def test_json(self, capsys, tmp_path):
        a = write(tmp_path, "a.ideal", "x^2\ny^2\ntruncate: 3\n")
        b = write(tmp_path, "b.ideal", "y^2\nx^2\ntruncate: 3\n")
        code, out, _ = run(capsys, "iso", a, b, "--json")
        payload = json.loads(out)
        assert payload["verdict"] == "isomorphic"
        check_schema(payload, "iso")


class TestDiagram:
    def test_simple(self, capsys):
        assert run(capsys, "diagram", "1,2,1") == (0, " #\n###\n", "")

    def test_staircase(self, capsys):
        code, out, _ = run(capsys, "diagram", "1,2,3,4")
        assert out == "   #\n  ##\n ###\n####\n"

    def test_plateau(self, capsys):
        code, out, _ = run(capsys, "diagram", "1,2,3,2,2")
        assert out == "  #\n ####\n#####\n"

    def test_invalid(self, capsys):
        assert run(capsys, "diagram", "1,3")[0] == 3


class TestSample:
    def test_writes_verified_files(self, capsys, tmp_path):
        out_dir = str(tmp_path / "s")
        code, out, _ = run(capsys, "sample", "1,2,2,2", "--seed", "7",
                           "--count", "3", "--out", out_dir)
        assert code == 0
        files = sorted(os.listdir(out_dir))
        assert files == ["sample_1.ideal", "sample_2.ideal", "sample_3.ideal"]
        from hsfinite import hilbert_samuel

        for name in files:
            ideal = parse_ideal_text((tmp_path / "s" / name).read_text())
            assert hilbert_samuel(ideal) == (1, 2, 2, 2)

    def test_files_are_the_header_and_the_printed_ideal(self, capsys, tmp_path):
        out_dir = tmp_path / "b"
        code, _, _ = run(capsys, "sample", "1,2,2,1", "--seed", "5", "--count", "3",
                         "--out", str(out_dir))
        assert code == 0
        seq = validate((1, 2, 2, 1))
        for i in range(3):
            expected = "# sequence (1, 2, 2, 1)  seed %d\n%s" % (
                5 + i, format_ideal(sample_ideal(seq, 5 + i)))
            assert (out_dir / ("sample_%d.ideal" % (i + 1))).read_bytes() == \
                expected.encode("utf-8")

    def test_deterministic(self, capsys, tmp_path):
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        run(capsys, "sample", "1,2,1", "--seed", "1", "--out", d1)
        run(capsys, "sample", "1,2,1", "--seed", "1", "--out", d2)
        assert (tmp_path / "a" / "sample_1.ideal").read_text() == \
            (tmp_path / "b" / "sample_1.ideal").read_text()

    def test_invalid_sequence(self, capsys, tmp_path):
        assert run(capsys, "sample", "1,2,4", "--out", str(tmp_path))[0] == 3

    @pytest.mark.parametrize("count", [0, MAX_SAMPLE_COUNT + 1, 10 ** 12])
    def test_count_limit(self, tmp_path, count):
        out_dir = tmp_path / "none"
        done = run_process("sample", "1,2,1", "--count", str(count),
                           "--out", str(out_dir))
        assert done.returncode == 3
        assert "between 1 and %d" % MAX_SAMPLE_COUNT in done.stderr
        assert "Traceback" not in done.stderr
        assert not out_dir.exists()

    def test_length_limit(self, tmp_path):
        # the sampler row-reduces every degree of the sequence
        out_dir = tmp_path / "none"
        seq = ",".join(["1", "2"] + ["1"] * (MAX_ROW_REDUCED - 1))
        done = run_process("sample", seq, "--out", str(out_dir))
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == ("error: sequence of length %d; at most %d can be "
                               "sampled\n" % (MAX_ROW_REDUCED + 1, MAX_ROW_REDUCED))
        assert not out_dir.exists()

    def test_sample_at_the_length_limit_reads_back(self, capsys, tmp_path):
        seq = ",".join(["1", "2"] + ["1"] * (MAX_ROW_REDUCED - 2))
        out_dir = tmp_path / "limit"
        assert run(capsys, "sample", seq, "--out", str(out_dir))[0] == 0
        code, out, _ = run(capsys, "hs", str(out_dir / "sample_1.ideal"))
        assert (code, out) == (0, "(%s)\n" % seq.replace(",", ", "))

    def test_sampling_failure_exit_code(self, capsys, tmp_path, monkeypatch):
        from hsfinite.errors import SamplingFailed
        import hsfinite.cli as cli_mod

        def boom(seq, seed):
            raise SamplingFailed(seq.entries, 64)

        monkeypatch.setattr(cli_mod, "sample_ideal", boom)
        code, _, err = run(capsys, "sample", "1,2,1", "--out", str(tmp_path))
        assert code == 4 and "after 64 attempts" in err

    def test_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sample", "1,2,1", "--seed", "2",
                           "--out", str(tmp_path / "j"), "--json")
        payload = json.loads(out)
        assert payload["sequence"] == [1, 2, 1]
        check_schema(payload, "sample")


def _json_reference(value):
    return json.dumps(value, indent=2, sort_keys=True)


class TestJsonText:
    """``cli._json_text`` prints what ``json.dumps(value, indent=2,
    sort_keys=True)`` prints, byte for byte."""

    def test_every_catalog_report(self):
        reports = 0
        for colength in range(3, 17):
            for entries in enumerate_sequences(colength):
                label = classify(validate(entries))
                if label.finite:
                    data = verify_catalog(label).to_dict()
                    assert cli._json_text(data) == _json_reference(data), entries
                    reports += 1
        assert reports == 119

    def test_every_command_payload(self, capsys, tmp_path, monkeypatch):
        payloads = []
        real = cli._json_text

        def recording(value, newline="\n"):
            if newline == "\n":  # a whole payload, not a nested value
                payloads.append(value)
            return real(value, newline)

        monkeypatch.setattr(cli, "_json_text", recording)
        a = write(tmp_path, "a.ideal", "x^2\nx*y^2 + y^3\ntruncate: 4\n")
        b = write(tmp_path, "b.ideal", "x^2\ny^3\ntruncate: 4\n")
        c = write(tmp_path, "c.ideal", "x*y\ny^3\ntruncate: 4\n")
        for argv in (["hs", a], ["classify", "1,2,2,1"], ["classify", "1,2,3,2,1"],
                     ["enumerate", "--max-colength", "7"], ["iso", a, b], ["iso", a, c],
                     ["sample", "1,2,3,1", "--count", "2", "--out", str(tmp_path / "s")],
                     ["catalog", "1,2,2,1", "--out", str(tmp_path / "c")]):
            assert run(capsys, *argv, "--json")[0] == 0, argv
        assert len(payloads) == 8
        for value in payloads:
            assert real(value) == _json_reference(value)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.integers(-10 ** 400, 10 ** 400) | _JSON_STRINGS,
        lambda children: st.lists(children) | st.lists(children).map(tuple)
        | st.dictionaries(_JSON_STRINGS, children),
        max_leaves=40))
    @example({})
    @example([[], {}, ()])
    @example({"": {"\\": ['"', "\x00\x1f\x7f\u2028", "\U0001f600\ud800"]}})
    def test_nested_values(self, value):
        assert cli._json_text(value) == _json_reference(value)

    @pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1}, {1: "a"},
                                       {"a": [None, Fraction(3)]}, {("a",): 1}])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)


class TestUsageAndDeterminism:
    def test_usage_errors_exit_one(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1
        assert run(capsys, "enumerate")[0] == 1
        assert run(capsys, "catalog", "1,2,1")[0] == 1

    def test_byte_identical_reruns(self, capsys, tmp_path):
        outs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "enumerate", "--colength", "8", "--json")
            outs.add(out)
        assert len(outs) == 1

    def test_round_trip_corpus(self, capsys, tmp_path):
        from hsfinite import format_ideal

        corpus = [
            "x^2\ny^2\n",
            "x^2 - 3/2*x*y\ntruncate: 6\n",
            "truncate: 4\n",
            "x^3 + y^3\nx*y^2\n",
        ]
        for text in corpus:
            ideal = parse_ideal_text(text)
            assert format_ideal(ideal) == text


class TestOneCommandParser:
    """``main`` parses every command line with one full parser, built once
    and reused for the process; every output must equal that of a freshly
    built parser, ``build_parser().parse_args``, dispatched as ``main``
    does, after the shared parser has read every earlier case."""

    VALID = {
        "hs": ["{sq}"],
        "classify": ["1,2,1"],
        "enumerate": ["--colength", "5"],
        "catalog": ["1,2,1", "--out", "{out}"],
        "iso": ["{sq}", "{xy}"],
        "diagram": ["1,2,1"],
        "sample": ["1,2,1", "--out", "{out}"],
    }
    CASES = [[], ["-h"], ["--help"], ["bogus"], ["--json", "classify", "1,2,1"]] + [
        [command, *tail]
        for command, valid in VALID.items()
        for tail in (["-h"], [], [*valid, "--bogus"], valid)] + [
        # "--" before and after the positionals
        ["classify", "--", "1,2,1"],
        ["classify", "1,2,1", "--"],
        ["catalog", "--", "1,2,1", "--out", "{out}"],
        ["catalog", "1,2,1", "--out", "{out}", "--"],
        ["iso", "{sq}", "--", "{xy}"],
        ["hs", "{sq}", "--json", "--"],
        ["classify", "--", "--json"],
        # "=" values, abbreviations and option values that look like options
        ["catalog", "1,2,1", "--out={out}"],
        ["catalog", "1,2,1", "--ou", "{out}"],
        ["catalog", "1,2,1", "--out="],
        ["catalog", "1,2,1", "--out"],
        ["sample", "1,2,1", "--out", "{out}", "--seed", "-1", "--count=2"],
        ["classify", "1,2,1", "--js"],
        ["classify", "--he"],
        # a leftover word, and options before the positional
        ["classify", "1,2,1", "extra"],
        ["diagram", "1,2,1", "--json"],
        ["iso", "{sq}", "{xy}", "{sq}"],
        ["classify", "--json", "1,2,1"],
        ["catalog", "--out", "{out}", "1,2,1"],
        ["catalog", "--json", "--out", "{out}", "1,2,1", "-h"],
        ["enumerate", "--colength", "5", "--max-colength", "6"],
    ]

    @staticmethod
    def filled(tmp_path, case):
        names = {"sq": write(tmp_path, "sq.ideal", "x^2\ny^2\n"),
                 "xy": write(tmp_path, "xy.ideal", "x*y\nx^2 + y^2\n"),
                 "out": str(tmp_path / "out")}
        return [word.format(**names) for word in case]

    @pytest.fixture
    def argv(self, request, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        return self.filled(tmp_path, request.param)

    def full_parser_run(self, capsys, monkeypatch, argv):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parser", cli.build_parser)
            return run(capsys, *argv)

    @pytest.mark.parametrize("argv", CASES, indirect=True, ids=" ".join)
    def test_same_output_as_the_full_parser(self, capsys, monkeypatch, argv):
        got = run(capsys, *argv)
        assert got[0] in (0, 1, 2)
        assert got == self.full_parser_run(capsys, monkeypatch, argv)

    @pytest.mark.parametrize("argv", CASES, indirect=True, ids=" ".join)
    def test_same_namespace_as_the_full_parser(self, capsys, argv):
        def parsed(parse):
            try:
                return vars(parse(argv))
            except SystemExit as exc:
                return exc.code, *capsys.readouterr()

        assert parsed(cli._parser().parse_args) == parsed(cli.build_parser().parse_args)

    def test_console_script_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(sys, "argv", ["hsfinite", "catalog", "-h"])
        with pytest.raises(SystemExit) as exc:
            main()
        got = (exc.value.code, *capsys.readouterr())
        assert got[0] == 0 and got[1].startswith("usage: hsfinite catalog ")
        assert got == self.full_parser_run(capsys, monkeypatch, ["catalog", "-h"])

    @staticmethod
    def count_parsers(monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        return built

    def test_the_parser_is_built_once(self, capsys, monkeypatch):
        built = self.count_parsers(monkeypatch)
        cli._parser.cache_clear()
        assert run(capsys, "classify", "1,2,1") == (0, "finite, T2, dim 2\n", "")
        assert len(built) == 8  # the top-level parser and one per command
        assert run(capsys, "classify", "1,2,1") == (0, "finite, T2, dim 2\n", "")
        assert len(built) == 8

    def test_a_leftover_word_gets_the_top_level_error(self, capsys):
        code, out, err = run(capsys, "classify", "1,2,1", "extra")
        assert (code, out) == (1, "")
        assert err.startswith("usage: hsfinite [-h] command ...\n")
        assert err.endswith("hsfinite: error: unrecognized arguments: extra\n")

    def test_threads_share_the_parser(self, tmp_path):
        fresh = cli.build_parser()
        expected = {}
        for case in self.CASES:
            argv = self.filled(tmp_path, case)
            try:
                expected[tuple(argv)] = vars(fresh.parse_args(argv))
            except SystemExit:
                pass  # help and usage errors print, and are not parsed here
        assert len(expected) == 18
        parser = cli._parser()
        mismatches = []

        def parse_rounds():
            for _ in range(50):
                for argv, namespace in expected.items():
                    if vars(parser.parse_args(list(argv))) != namespace:
                        mismatches.append(argv)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=parse_rounds) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


class TestNoCommandBuildsAForm:
    """Between its input text and its output a command holds integer
    lists only: with ``forms._form_of``, the one builder of a form from
    integers, refused in every module that binds it, every command prints
    and writes what it prints and writes with nothing refused."""

    NOPIN = ("-8*x^2 + 4*x*y + 3*y^2\ntruncate: 3\n",
             "-148*x^2 + 424*x*y - 228*y^2\ntruncate: 3\n")

    def commands(self, tmp_path):
        out = str(tmp_path / "out")
        a = write(tmp_path, "a.ideal", "x^2\nx*y^2 + y^3\ntruncate: 4\n")
        b = write(tmp_path, "b.ideal", "x^2\ny^3\ntruncate: 4\n")
        c = write(tmp_path, "c.ideal", "x*y\ny^3\ntruncate: 4\n")
        p, q = (write(tmp_path, name, text) for name, text in zip("pq", self.NOPIN))
        factor = write(tmp_path, "factor.ideal", "x*y\nx^2*y + x*y^2\n")
        lone = write(tmp_path, "lone.ideal", "-3/2*x^2\n")
        commands = [["catalog", seq, "--json", "--out", out]
                    for seq in ("1,2,3,2,1,1", "1,2,2,1", "1,2,3,3,2,2,1,1")]
        for left, right in ((a, b), (a, c), (p, q)):
            commands += [["iso", left, right], ["iso", left, right, "--json"]]
        return commands + [
            ["hs", factor], ["hs", lone], ["hs", a, "--json"],
            ["sample", "1,2,3,1", "--count", "2", "--out", out], ["sample", "1,2,2,1", "--json"],
            ["classify", "1,2,3,2,1,1"], ["enumerate", "--colength", "6"],
            ["diagram", "1,2,3,2,1,1"]]

    @staticmethod
    def outcomes(capsys, tmp_path, commands):
        got = []
        out = tmp_path / "out"
        for argv in commands:
            shutil.rmtree(out, ignore_errors=True)
            try:
                result = run(capsys, *argv)
            except AssertionError as exc:  # a refused form, raised through main
                result = ("raised", str(exc))
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.exists() else {}
            got.append((argv[0], result, files))
        return got

    def test_outputs_are_unchanged_with_forms_refused(self, capsys, tmp_path, monkeypatch):
        from hsfinite import forms, parse_form

        monkeypatch.chdir(tmp_path)  # sample writes to the working directory by default
        commands = self.commands(tmp_path)
        expected = self.outcomes(capsys, tmp_path, commands)
        assert [result[0] for _, result, _ in expected] == [0] * 9 + [3, 3] + [0] * 6
        assert expected[9][1][2] == "error: not Artinian: common factor x*y\n"
        assert expected[10][1][2] == "error: not Artinian: common factor x^2\n"

        def refused(p, den):
            raise AssertionError("a form was built")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "hsfinite" and \
                    getattr(module, "_form_of", None) is forms._form_of:
                monkeypatch.setattr(module, "_form_of", refused)
        with pytest.raises(AssertionError, match="a form was built"):
            parse_form("x")
        assert self.outcomes(capsys, tmp_path, commands) == expected
