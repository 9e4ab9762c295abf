"""The three workloads: inputs made from the seed, the timed call into the
program for one item, and the output check run outside the timed region.

Every item rebuilds its ideals (from text, from the sampler or inside the
CLI), so no memo that ``GradedIdeal`` or ``catalog`` attaches to an ideal
carries over from one repetition to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))

# Catalog size: every finite-type sequence up to this colength (119 of them,
# 294 normal-form ideals, 330 catalog pairs).
CATALOG_MAX_COLENGTH = 16
# iso-transformed tests every ISO_STRIDE-th ideal of the colength-ordered
# catalog pool (98 of 294).  Ideals of one colength differ in cost by up to
# tenfold, so drawing them from the seed moved item_p50_ms by 19% between
# seeds; the set is therefore fixed and the seed draws each transform and
# the item order.
ISO_STRIDE = 3
# generic samples every valid sequence of these colengths, finite and
# infinite types alike, with sampler seeds 0 .. GENERIC_SAMPLES - 1, each
# against one transform drawn from GENERIC_PANEL_SEED.  The sampled
# coefficients decide whether the roots are rational and so whether the
# witness search succeeds early or fails after about a hundred candidates,
# and the transform sets the size of every candidate's coefficients.
# Drawing either from the benchmark seed moved unknown_ratio by 10% and
# item_p50_ms by 12-20% between seeds, so the panel is fixed and the
# benchmark seed sets the item order.
GENERIC_COLENGTHS = range(5, 10)
GENERIC_SAMPLES = 4
GENERIC_PANEL_SEED = 0


def finite_sequences(hs, max_colength):
    """(entries, label) for every finite-type sequence, in enumeration order."""
    out = []
    for colength in range(3, max_colength + 1):
        for entries in hs.sequences.enumerate_sequences(colength):
            label = hs.sequences.classify(hs.sequences.validate(entries))
            if label.finite:
                out.append((entries, label))
    return out


def sequence_text(entries):
    return ",".join(str(t) for t in entries)


def random_change(rng):
    """An integer matrix ((a, b), (c, d)) holding 1, 2, 3 and 5 in random
    places with random signs.  Every transform then mixes both variables
    with coefficients of one size; transforms with zero entries made some
    items three times cheaper, which moved the tail latency between seeds.
    No two disjoint pairs of {1, 2, 3, 5} have equal products, so the
    determinant never vanishes."""
    a, b, c, d = (m * rng.choice((-1, 1)) for m in rng.sample((1, 2, 3, 5), 4))
    return ((a, b), (c, d))


def _matrix(change):
    return tuple(tuple(Fraction(v) for v in row) for row in change.matrix())


def _verdict_problem(kind, witness, left, right):
    if kind == "distinguished":
        return "an isomorphic pair was distinguished"
    if kind == "isomorphic" and not oracle.witness_holds(left, right, witness):
        return "witness %r does not carry left onto right" % (witness,)
    return None


class Catalog:
    """``hsfinite catalog SEQ --out DIR --json`` in-process for every
    finite-type sequence; the seed sets the order."""

    name = "catalog"

    def __init__(self):
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
            self.class_counts = json.load(f)["class_counts"]
        self._validator = None

    def build(self, hs, seed):
        items = [sequence_text(e)
                 for e, _ in finite_sequences(hs, CATALOG_MAX_COLENGTH)]
        random.Random(seed).shuffle(items)
        return items

    def size_key(self, items):
        return sorted(items)

    def run(self, hs, item, workdir, index):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = hs.cli.main(["catalog", item, "--out",
                                os.path.join(workdir, "c%d" % index), "--json"])
        return code, out.getvalue()

    def digest(self, raw):
        return raw

    def check(self, hs, item, output):
        """Returns (problem or None, verdict kinds)."""
        code, text = output
        if code != 0:
            return "exit code %d" % code, []
        report = json.loads(text)
        verdicts = [p["verdict"] for p in report["pairwise"]]
        error = next(iter(self._schema(hs).iter_errors(report)), None)
        if error is not None:
            return "report breaks the schema: %s" % error.message, verdicts
        if not all(e["sequence_ok"] for e in report["entries"]):
            return "an entry misses its sequence", verdicts
        if report["class_count"] != self.class_counts[item]:
            return "class count %d, reference %d" % (
                report["class_count"], self.class_counts[item]), verdicts
        ideals = [oracle.parse_ideal(e["ideal"]) for e in report["entries"]]
        for pair in report["pairwise"]:
            if pair["verdict"] != "isomorphic":
                continue
            witness = tuple(tuple(Fraction(c) for c in row)
                            for row in pair["witness"])
            problem = _verdict_problem("isomorphic", witness,
                                       ideals[pair["left"]], ideals[pair["right"]])
            if problem:
                return problem, verdicts
        return None, verdicts

    def _schema(self, hs):
        if self._validator is None:
            import jsonschema

            path = os.path.join(os.path.dirname(hs.__file__), "schemas",
                                "catalog_report.json")
            with open(path, encoding="utf-8") as f:
                schema = json.load(f)
            self._validator = jsonschema.validators.validator_for(schema)(schema)
        return self._validator


class IsoTransformed:
    """``are_isomorphic(I, sigma . I)`` for catalog ideals I parsed from text
    and random integer changes sigma: isomorphic by construction."""

    name = "iso-transformed"

    def build(self, hs, seed):
        pool = []
        for _, label in finite_sequences(hs, CATALOG_MAX_COLENGTH):
            for entry in hs.catalog.normal_forms(label):
                pool.append(hs.ideals.format_ideal(entry.ideal))
        rng = random.Random(seed)
        items = []
        for left in pool[::ISO_STRIDE]:
            change = random_change(rng)
            right = oracle.substitute_ideal(oracle.parse_ideal(left), change)
            items.append((left, oracle.format_ideal(right)))
        rng.shuffle(items)
        return items

    def size_key(self, items):
        return len(items)

    def run(self, hs, item, workdir, index):
        left = hs.ideals.parse_ideal_text(item[0])
        right = hs.ideals.parse_ideal_text(item[1])
        return hs.catalog.are_isomorphic(left, right)

    def digest(self, verdict):
        witness = None if verdict.witness is None else _matrix(verdict.witness)
        return verdict.kind, witness

    def check(self, hs, item, output):
        kind, witness = output
        left, right = (oracle.parse_ideal(text) for text in item)
        return _verdict_problem(kind, witness, left, right), [kind]


class Generic:
    """``sample_ideal(seq, s)`` then ``are_isomorphic(S, sigma . S)``; the
    sampler's random coefficients often give irrational roots."""

    name = "generic"

    def build(self, hs, seed):
        panel = random.Random(GENERIC_PANEL_SEED)
        items = []
        for colength in GENERIC_COLENGTHS:
            for entries in hs.sequences.enumerate_sequences(colength):
                for sample_seed in range(GENERIC_SAMPLES):
                    items.append((entries, sample_seed, random_change(panel)))
        random.Random(seed).shuffle(items)
        return items

    def size_key(self, items):
        return sorted(entries for entries, _, _ in items)

    def run(self, hs, item, workdir, index):
        entries, sample_seed, change = item
        sample = hs.catalog.sample_ideal(entries, sample_seed)
        image = hs.ideals.substitute_ideal(
            sample, hs.forms.LinearChange(*change[0], *change[1]))
        return sample, image, hs.catalog.are_isomorphic(sample, image)

    def digest(self, raw):
        sample, image, verdict = raw
        witness = None if verdict.witness is None else _matrix(verdict.witness)
        return (verdict.kind, witness,
                (tuple(g.coeffs for g in sample.generators), sample.truncation),
                (tuple(g.coeffs for g in image.generators), image.truncation))

    def check(self, hs, item, output):
        kind, witness, sample, image = output
        entries, _, change = item
        if oracle.hilbert_samuel(sample) != tuple(entries):
            return "sample misses its sequence", [kind]
        if oracle.substitute_ideal(sample, change) != image:
            return "substitute_ideal differs from the oracle", [kind]
        return _verdict_problem(kind, witness, sample, image), [kind]


WORKLOADS = {w.name: w for w in (Catalog, IsoTransformed, Generic)}
