"""Hilbert-Samuel sequences for two degree-1 generators.

A valid sequence looks like (1, 2, 3, ..., n, tail) with a nonincreasing
positive tail: t_i = i + 1 up to the canonical deviation index n, then
n >= t_n >= ... >= t_last >= 1.  The jump indices e_j = t_{j-1} - t_j (with
t = 0 past the end) feed the dimension formula

    dim = sum over j >= n of (e_j + 1) * e_{j+1}

and a sequence admits only finitely many graded quotients up to isomorphism
exactly when that dimension is at most 3 = dim PGL(2).

The paper's eleven finite-type rows T1-T11 are one table, ``_ROWS``: each row
gives the values of its tail runs, its parameter minimums and its dimension,
and the run lengths are k + 1, l and s in turn.  ``match_pattern``,
``sequence_for_row``, ``check_row_parameters`` and ``row_dimension`` all read
that table.  A row allows a parameter n one below the canonical deviation
index when the first run value equals it (the run then absorbs index n-1);
parameters are reported in that row convention, with the canonical index kept
alongside.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import (InvalidColength, InvalidParameters, InvalidSequence, ParseError,
                     parse_natural)


@dataclass(frozen=True)
class HSSequence:
    """A validated Hilbert-Samuel sequence, its entries t_0, t_1, ..."""

    entries: tuple

    @property
    def n(self) -> int:
        """Canonical deviation index: first i with t_i != i + 1."""
        for i, t in enumerate(self.entries):
            if t != i + 1:
                return i
        return len(self.entries)

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
    return tuple(parse_natural(p, "sequence entry %d" % i) for i, p in enumerate(parts))


def validate(entries) -> HSSequence:
    """Check the shape constraints and wrap; only t_1 = 2 is in scope."""
    try:
        entries = tuple(operator.index(t) for t in entries)
    except TypeError:
        raise InvalidSequence("entries must be integers") from None
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


# One row per label: the values of the tail runs, the fixed head n of a row
# that is the k = 0 member of its shape (None elsewhere), the parameter
# minimums and the dimension.  A k = 0 row's first run has length 1 and its
# parameters name the runs after it, so T4's k + 1 is its run of 1s.  T7's
# dimension is 3 when l = 1.  The dimension column is data of its own, which
# ``classify`` checks against ``gt_dimension``.
_ROWS = {
    "T1": ((), None, {"n": 2}, 0),
    "T2": ((1,), 2, {}, 2),
    "T3": ((1,), 3, {}, 3),
    "T4": ((2, 1), 3, {"k": 1}, 3),
    "T5": ((1,), None, {"n": 2, "k": 1}, 1),
    "T6": ((2,), None, {"n": 1, "k": 1}, 2),
    "T7": ((2, 1), None, {"n": 1, "k": 1, "l": 1}, 2),
    "T8": ((3,), None, {"n": 2, "k": 1}, 3),
    "T9": ((3, 1), None, {"n": 2, "k": 1, "l": 2}, 3),
    "T10": ((3, 2), None, {"n": 2, "k": 1, "l": 2}, 3),
    "T11": ((3, 2, 1), None, {"n": 2, "k": 1, "l": 2, "s": 2}, 3),
}
_ROW_OF_SHAPE = {(values, head): kind for kind, (values, head, _, _) in _ROWS.items()}


def match_pattern(seq: HSSequence):
    """The unique finite-type row fitting the sequence, or None.

    The first tail run absorbs index n-1 whenever its value equals the
    canonical n, which realizes the row conventions n >= 1 (runs of 2) and
    n >= 2 (runs of 3).
    """
    nc = seq.n
    runs = tail_runs(seq.entries, nc)
    values = tuple(value for _, _, value in runs)
    lengths = [end - start + 1 for start, end, _ in runs]
    n = nc
    if values[:1] == (nc,):  # the first run absorbs index n - 1
        n, lengths[0] = nc - 1, lengths[0] + 1
    # a first run of length 1 is k = 0, which only the fixed-head rows allow
    head = nc if lengths[:1] == [1] else None
    kind = _ROW_OF_SHAPE.get((values, head))
    if kind is None:
        return None
    if head is not None:
        lengths.pop(0)
    found = dict(zip("kls", [m - (i == 0) for i, m in enumerate(lengths)]), n=n)
    low = _ROWS[kind][2]
    if any(found[name] < least for name, least in low.items()):
        return None
    params = {name: found[name] for name in low}
    return TypeLabel(kind, row_dimension(kind, **params), tuple(params.items()), nc)


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


def check_row_parameters(kind: str, params: dict):
    """Validate a parameter dict against a row's minimums."""
    if kind not in _ROWS:
        raise InvalidParameters("unknown row %r" % kind)
    for name, low in _ROWS[kind][2].items():
        if name not in params:
            raise InvalidParameters("row %s needs parameter %s" % (kind, name))
        try:
            value = operator.index(params[name])
        except TypeError:
            raise InvalidParameters("row %s needs an integer %s, got %r"
                                    % (kind, name, params[name])) from None
        if value < low:
            raise InvalidParameters(
                "row %s needs %s >= %d, got %d" % (kind, name, low, value))
    extra = set(params) - set(_ROWS[kind][2])
    if extra:
        raise InvalidParameters("row %s got unexpected %s" % (kind, sorted(extra)))


def sequence_for_row(kind: str, **params) -> tuple:
    """The sequence a row instantiates at given parameters (row convention):
    the staircase head, then the runs."""
    check_row_parameters(kind, params)
    values, head, _, _ = _ROWS[kind]
    counts = [params[name] for name in "kls" if name in params]
    lengths = [1] * (head is not None) + [c + (i == 0) for i, c in enumerate(counts)]
    entries = tuple(range(1, params.get("n", head) + 1))
    for value, length in zip(values, lengths):
        entries += (value,) * length
    return entries


def row_dimension(kind: str, **params) -> int:
    """The table's dimension column, including the split row T7."""
    check_row_parameters(kind, params)
    return 3 if kind == "T7" and params["l"] == 1 else _ROWS[kind][3]


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
