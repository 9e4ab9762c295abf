"""Command-line surface.

Exit codes: 0 success, 1 usage, 2 parse or I/O error, 3 domain error
(invalid sequence, not Artinian, no catalog), 4 sampling failure.  A
reader that closes standard output early, as ``| head -1`` does, ends the
command quietly with exit code 0: no error line, and the output it did
not read is dropped.
``--json`` switches every command but ``diagram`` to machine output,
exactly ``json.dumps(payload, indent=2, sort_keys=True)``; all output is
deterministic (no timestamps, sorted keys).  Output files are written as
UTF-8 bytes straight to a file descriptor.  ``main`` parses
every command line with one full parser, built on its first call and kept
for the process, so help, usage and errors always come from that parser.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii

from .catalog import are_isomorphic, sample_ideal, verify_catalog
from .errors import DomainError, InvalidParameters, ParseError, SamplingFailed
from .ideals import format_ideal, hilbert_samuel, parse_ideal_text
from .sequences import (
    check_colength,
    classify,
    enumerate_sequences,
    format_sequence,
    parse_sequence_text,
    validate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_SAMPLING = 4

# Largest ``sample --count``, checked before any ideal is sampled: each
# sample is one file in the output directory.
MAX_SAMPLE_COUNT = 1000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _json_text(value, newline="\n"):
    """``json.dumps(value, indent=2, sort_keys=True)`` for the values the
    commands print: dicts with ``str`` keys, lists, tuples, ``str``, ``int``,
    ``bool`` and ``None``; any other type raises ``TypeError``.  The
    stdlib's C encoder cannot indent, and its Python encoder yields every
    piece up a chain of generators; this joins each container's items
    once, which also keeps no list of small pieces for the whole text.
    ``newline`` is the line break plus the indentation of ``value``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        # a key that is not a str raises TypeError here
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(key) + ": " + _json_text(value[key], inner)
             for key in sorted(value)]) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join(
            [_json_text(item, inner) for item in value]) + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return int.__repr__(value)
    raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)


def _read_ideal(path):
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError("cannot read %s as UTF-8 text: %s" % (path, exc)) from None
    return parse_ideal_text(text)


# the flags and mode of ``open(path, "wb")``
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _write_text(path, text):
    """Write ``text`` to ``path`` as its UTF-8 bytes, newlines untranslated,
    so a file has the same bytes on every platform.  The bytes go straight
    to the file descriptor, with no file object and no ``fstat``; a write
    may be short, so it is repeated on what is left."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _label_payload(label):
    return {
        "finite": label.finite,
        "label": label.kind if label.finite else None,
        "params": label.param_dict(),
        "dim": label.dimension,
        "canonical_n": label.canonical_n,
    }


def cmd_hs(args):
    seq = hilbert_samuel(_read_ideal(args.path))
    if args.json:
        print(_json_text({"sequence": list(seq)}))
    else:
        print(format_sequence(seq))


def cmd_classify(args):
    seq = validate(parse_sequence_text(args.sequence))
    label = classify(seq)
    if args.json:
        print(_json_text(_label_payload(label)))
    elif label.finite:
        print("finite, %s, dim %d" % (label, label.dimension))
        if label.params:
            print("canonical n = %d" % label.canonical_n)
    else:
        print("infinite, dim %d" % label.dimension)


def cmd_enumerate(args):
    if args.colength is not None:
        colengths = [args.colength]
    else:
        check_colength(args.max_colength)
        colengths = list(range(3, args.max_colength + 1))
    rows = []
    for n_total in colengths:
        for entries in enumerate_sequences(n_total):
            label = classify(validate(entries))
            rows.append((entries, label))
    if args.json:
        print(_json_text({
            "colengths": colengths,
            "rows": [
                {
                    "sequence": list(entries),
                    "dim": label.dimension,
                    "finite": label.finite,
                    "label": label.kind if label.finite else None,
                    "params": label.param_dict(),
                }
                for entries, label in rows
            ],
        }))
        return
    for entries, label in rows:
        verdict = "finite" if label.finite else "infinite"
        name = str(label) if label.finite else "-"
        print("%s  dim %d  %s  %s" % (format_sequence(entries),
                                      label.dimension, verdict, name))


def cmd_catalog(args):
    seq = validate(parse_sequence_text(args.sequence))
    report = verify_catalog(classify(seq))  # raises NoCatalog on infinite labels
    data = report.to_dict()
    os.makedirs(args.out, exist_ok=True)
    paths = []
    for i, entry in enumerate(data["entries"], start=1):
        path = os.path.join(args.out, "entry_%d.ideal" % i)
        _write_text(path, "# %s\n%s" % (entry["provenance"], entry["ideal"]))
        paths.append(path)
    report_path = os.path.join(args.out, "report.json")
    text = _json_text(data)
    _write_text(report_path, text + "\n")
    if args.json:
        print(text)
        return
    for path in paths:
        print("wrote %s" % path)
    print("classes: %d (unknown pairs: %d)" %
          (report.class_count, len(report.unknown_pairs)))
    print("report: %s" % report_path)


def cmd_iso(args):
    left = _read_ideal(args.left)
    right = _read_ideal(args.right)
    verdict = are_isomorphic(left, right)
    if args.json:
        print(_json_text(verdict.to_dict()))
    else:
        print(str(verdict))


def cmd_diagram(args):
    seq = validate(parse_sequence_text(args.sequence))
    entries = seq.entries
    height = max(entries)
    for level in range(height, 0, -1):
        print("".join("#" if t >= level else " " for t in entries).rstrip())


def cmd_sample(args):
    if not 1 <= args.count <= MAX_SAMPLE_COUNT:
        raise InvalidParameters("--count must be between 1 and %d, got %d"
                                % (MAX_SAMPLE_COUNT, args.count))
    seq = validate(parse_sequence_text(args.sequence))
    paths = []
    for i in range(args.count):
        ideal = sample_ideal(seq, args.seed + i)  # may refuse the sequence
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "sample_%d.ideal" % (i + 1))
        _write_text(path, "# sequence %s  seed %d\n%s" % (format_sequence(seq.entries),
                                                           args.seed + i, format_ideal(ideal)))
        paths.append(path)
    if args.json:
        print(_json_text({"sequence": list(seq.entries), "files": paths}))
    else:
        for path in paths:
            print("wrote %s" % path)


def build_parser():
    """The ``hsfinite`` parser with every command."""
    parser = _Parser(prog="hsfinite",
                     description="Hilbert-Samuel sequences of graded quotients "
                                 "of K[x, y] and their finite-type catalogs")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("hs", help="Hilbert-Samuel sequence of an ideal file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hs)

    p = sub.add_parser("classify", help="finite/infinite verdict for a sequence")
    p.add_argument("sequence")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="all valid sequences of a colength")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--colength", type=int)
    group.add_argument("--max-colength", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("catalog", help="write and verify the normal-form catalog")
    p.add_argument("sequence")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("iso", help="isomorphism verdict for two ideal files")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("diagram", help="staircase diagram of a sequence")
    p.add_argument("sequence")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("sample", help="random ideals realizing a sequence")
    p.add_argument("sequence")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", default=".")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sample)
    return parser


# one full parser per process: parsing leaves it unchanged, so every call
# reuses it; ``build_parser`` still returns a fresh one
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        args.func(args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()  # a reader gone early shows here, not at exit
        return EXIT_OK
    except BrokenPipeError:
        # as the Python docs' SIGPIPE note advises: the exit's own flush
        # writes what is left to os.devnull, so no error is printed there
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (ParseError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    except SamplingFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SAMPLING


if __name__ == "__main__":
    sys.exit(main())
