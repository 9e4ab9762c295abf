"""Hilbert-Samuel sequences for two degree-1 generators.

A valid sequence looks like (1, 2, 3, ..., n, tail) with a nonincreasing
positive tail: t_i = i + 1 up to the canonical deviation index n, then
n >= t_n >= ... >= t_last >= 1.  The jump indices e_j = t_{j-1} - t_j (with
t = 0 past the end) feed the dimension formula

    dim = sum over j >= n of (e_j + 1) * e_{j+1}

and a sequence admits only finitely many graded quotients up to isomorphism
exactly when that dimension is at most 3 = dim PGL(2).  Matching against the
eleven finite-type shapes is done on run structure; the shape rows allow a
parameter n one below the canonical deviation index when the first run value
equals it (the run then absorbs index n-1), and parameters are reported in
that row convention with the canonical index kept alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (InvalidColength, InvalidParameters, InvalidSequence, ParseError,
                     parse_natural)


@dataclass(frozen=True)
class HSSequence:
    entries: tuple

    @property
    def n(self) -> int:
        """Canonical deviation index: first i with t_i != i + 1."""
        for i, t in enumerate(self.entries):
            if t != i + 1:
                return i
        return len(self.entries)

    @property
    def colength(self) -> int:
        return sum(self.entries)

    def __str__(self):
        return format_sequence(self.entries)


def format_sequence(entries) -> str:
    return "(" + ", ".join(str(t) for t in entries) + ")"


def parse_sequence_text(text: str) -> tuple:
    """Comma-separated entries, optional whitespace and surrounding parens."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = [p.strip() for p in body.split(",")]
    if parts and parts[-1] == "":
        parts.pop()
    if not parts:
        raise ParseError("empty sequence text %r" % text)
    entries = []
    for p in parts:
        entries.append(parse_natural(p, "sequence entry %d" % len(entries)))
    return tuple(entries)


def validate(entries) -> HSSequence:
    """Check the shape constraints and wrap; only t_1 = 2 is in scope."""
    entries = tuple(int(t) for t in entries)
    if not entries or entries[0] != 1:
        raise InvalidSequence("t_0 must be 1")
    if len(entries) < 2 or entries[1] != 2:
        raise InvalidSequence("t_1 must be 2 (two degree-1 generators)")
    if any(t < 1 for t in entries):
        raise InvalidSequence("entries must be positive (trailing zeros dropped)")
    seq = HSSequence(entries)
    n = seq.n
    for i in range(n, len(entries)):
        if entries[i] > entries[i - 1]:
            raise InvalidSequence(
                "tail not nonincreasing at index %d: %d > %d"
                % (i, entries[i], entries[i - 1]))
    return seq


def jump_indices(seq: HSSequence) -> dict:
    """e_j = t_{j-1} - t_j for n <= j <= last + 1, the final drop included."""
    entries = seq.entries
    n = seq.n

    def t(i):
        return entries[i] if i < len(entries) else 0

    return {j: t(j - 1) - t(j) for j in range(n, len(entries) + 1)}


def gt_dimension(seq: HSSequence) -> int:
    """Dimension of the locus of homogeneous ideals with this sequence."""
    e = jump_indices(seq)
    return sum((e[j] + 1) * e.get(j + 1, 0) for j in e)


@dataclass(frozen=True)
class TypeLabel:
    """Classification verdict: a finite-type row with parameters in the row
    convention, or the infinite marker; always carries the dimension."""

    kind: str
    dimension: int
    params: tuple = ()
    canonical_n: int | None = None

    @property
    def finite(self) -> bool:
        return self.kind != "infinite"

    def param_dict(self) -> dict:
        return dict(self.params)

    def __str__(self):
        if not self.finite:
            return "infinite"
        if not self.params:
            return self.kind
        inner = ", ".join("%s=%d" % kv for kv in self.params)
        return "%s(%s)" % (self.kind, inner)


def tail_runs(entries, n) -> list:
    """Maximal constant blocks of the entries from index n on, as (start,
    end, value) with inclusive indices into ``entries``; a block that starts
    before n is clipped to start at n."""
    runs = []
    for i in range(n, len(entries)):
        if runs and runs[-1][2] == entries[i]:
            runs[-1][1] = i
        else:
            runs.append([i, i, entries[i]])
    return [tuple(run) for run in runs]


def match_pattern(seq: HSSequence):
    """The unique finite-type row fitting the sequence, or None.

    The first tail run absorbs index n-1 whenever its value equals the
    canonical n, which realizes the row conventions n >= 1 (runs of 2) and
    n >= 2 (runs of 3).
    """
    entries = seq.entries
    nc = seq.n
    runs = tail_runs(entries, nc)

    if not runs:
        return TypeLabel("T1", 0, (("n", nc),), nc)

    lengths = [end - start + 1 for start, end, _ in runs]
    values = [v for _, _, v in runs]
    absorbed = values[0] == nc
    table_n = nc - 1 if absorbed else nc
    first_len = lengths[0] + 1 if absorbed else lengths[0]

    if values == [1]:
        m = lengths[0]
        if m == 1:
            if nc == 2:
                return TypeLabel("T2", 2, (), nc)
            if nc == 3:
                return TypeLabel("T3", 3, (), nc)
            return None
        return TypeLabel("T5", 1, (("n", nc), ("k", m - 1)), nc)

    if values == [2]:
        if first_len >= 2:
            return TypeLabel("T6", 2, (("n", table_n), ("k", first_len - 1)), nc)
        return None

    if values == [2, 1]:
        ones = lengths[1]
        if first_len >= 2:
            dim = 3 if ones == 1 else 2
            return TypeLabel(
                "T7", dim,
                (("n", table_n), ("k", first_len - 1), ("l", ones)), nc)
        if nc == 3 and lengths[0] == 1 and ones >= 2:
            return TypeLabel("T4", 3, (("k", ones - 1),), nc)
        return None

    if values == [3]:
        if first_len >= 2:
            return TypeLabel("T8", 3, (("n", table_n), ("k", first_len - 1)), nc)
        return None

    if values == [3, 1]:
        ones = lengths[1]
        if first_len >= 2 and ones >= 2:
            return TypeLabel(
                "T9", 3,
                (("n", table_n), ("k", first_len - 1), ("l", ones)), nc)
        return None

    if values == [3, 2]:
        twos = lengths[1]
        if first_len >= 2 and twos >= 2:
            return TypeLabel(
                "T10", 3,
                (("n", table_n), ("k", first_len - 1), ("l", twos)), nc)
        return None

    if values == [3, 2, 1]:
        twos, ones = lengths[1], lengths[2]
        if first_len >= 2 and twos >= 2 and ones >= 2:
            return TypeLabel(
                "T11", 3,
                (("n", table_n), ("k", first_len - 1), ("l", twos), ("s", ones)), nc)
        return None

    return None


def classify(seq: HSSequence) -> TypeLabel:
    """Finite row label when the dimension allows one, Infinite otherwise.

    Cross-checks that pattern matching and the dimension formula agree; a
    disagreement would falsify the classification table and raises."""
    dim = gt_dimension(seq)
    label = match_pattern(seq)
    if (label is not None) != (dim <= 3):
        raise AssertionError(
            "pattern/dimension mismatch for %s: match=%s dim=%d"
            % (format_sequence(seq.entries), label, dim))
    if label is None:
        return TypeLabel("infinite", dim, (), seq.n)
    if label.dimension != dim:
        raise AssertionError(
            "row dimension %d != formula %d for %s"
            % (label.dimension, dim, format_sequence(seq.entries)))
    return label


_ROW_RESTRICTIONS = {
    "T1": {"n": 2},
    "T2": {},
    "T3": {},
    "T4": {"k": 1},
    "T5": {"n": 2, "k": 1},
    "T6": {"n": 1, "k": 1},
    "T7": {"n": 1, "k": 1, "l": 1},
    "T8": {"n": 2, "k": 1},
    "T9": {"n": 2, "k": 1, "l": 2},
    "T10": {"n": 2, "k": 1, "l": 2},
    "T11": {"n": 2, "k": 1, "l": 2, "s": 2},
}


def check_row_parameters(kind: str, params: dict):
    """Validate a parameter dict against a row's restrictions."""
    bounds = _ROW_RESTRICTIONS.get(kind)
    if bounds is None:
        raise InvalidParameters("unknown row %r" % kind)
    for name, low in bounds.items():
        if name not in params:
            raise InvalidParameters("row %s needs parameter %s" % (kind, name))
        if int(params[name]) < low:
            raise InvalidParameters(
                "row %s needs %s >= %d, got %d" % (kind, name, low, params[name]))
    extra = set(params) - set(bounds)
    if extra:
        raise InvalidParameters("row %s got unexpected %s" % (kind, sorted(extra)))


def sequence_for_row(kind: str, **params) -> tuple:
    """The sequence a row instantiates at given parameters (row convention)."""
    check_row_parameters(kind, params)
    n = params.get("n")
    k = params.get("k")
    l = params.get("l")
    s = params.get("s")
    head = lambda top: tuple(range(1, top + 1))
    if kind == "T1":
        return head(n)
    if kind == "T2":
        return (1, 2, 1)
    if kind == "T3":
        return (1, 2, 3, 1)
    if kind == "T4":
        return (1, 2, 3, 2) + (1,) * (k + 1)
    if kind == "T5":
        return head(n) + (1,) * (k + 1)
    if kind == "T6":
        return head(n) + (2,) * (k + 1)
    if kind == "T7":
        return head(n) + (2,) * (k + 1) + (1,) * l
    if kind == "T8":
        return head(n) + (3,) * (k + 1)
    if kind == "T9":
        return head(n) + (3,) * (k + 1) + (1,) * l
    if kind == "T10":
        return head(n) + (3,) * (k + 1) + (2,) * l
    if kind == "T11":
        return head(n) + (3,) * (k + 1) + (2,) * l + (1,) * s
    raise AssertionError(kind)


def row_dimension(kind: str, **params) -> int:
    """The table's dimension column, including the split row."""
    if kind == "T7":
        return 3 if params.get("l") == 1 else 2
    return {"T1": 0, "T2": 2, "T3": 3, "T4": 3, "T5": 1, "T6": 2,
            "T8": 3, "T9": 3, "T10": 3, "T11": 3}[kind]


def sequence_for_label(label: TypeLabel) -> tuple:
    if not label.finite:
        raise InvalidParameters("infinite label has no sequence instantiation")
    return sequence_for_row(label.kind, **label.param_dict())


# Largest colength ``enumerate_sequences`` accepts, checked before any work.
# The count of sequences grows faster than any polynomial: the whole range
# 3..50 is 31532 sequences, which ``hsfinite enumerate --max-colength 50
# --json`` prints in about 2.9 s and 128 MB; at 60 it is 101922 sequences,
# about 10 s and 393 MB.
MAX_COLENGTH = 50


def enumerate_sequences(colength: int) -> list:
    """All valid sequences with t_1 = 2 summing to the colength, lex order."""
    check_colength(colength)
    out = []

    def extend(prefix, remaining, staircase):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        i = len(prefix)
        top = (i + 1) if staircase else prefix[-1]
        for v in range(1, min(top, remaining) + 1):
            prefix.append(v)
            extend(prefix, remaining - v, staircase and v == i + 1)
            prefix.pop()

    extend([1, 2], colength - 3, True)
    return [validate(e).entries for e in out]


def check_colength(colength: int):
    """Raise InvalidColength unless 3 <= colength <= MAX_COLENGTH."""
    if colength < 3:
        raise InvalidColength("colength must be >= 3, got %d" % colength)
    if colength > MAX_COLENGTH:
        raise InvalidColength("colength must be at most %d, got %d"
                              % (MAX_COLENGTH, colength))
