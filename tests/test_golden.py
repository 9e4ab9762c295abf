"""Golden sha256 pins of the package's exact output.

Each digest covers one whole set of results, so a refactor of the exact
core that is meant to change no verdict, witness, JSON byte or sampled
ideal is checked against every member of the set at once:

- the ``verify_catalog`` report of each finite-type sequence of colength
  3-16 (119 labels), as sorted JSON;
- the verdict, the structural invariant and the marked root roles
  (``componentwise.marked_roles``) of ``are_isomorphic(I, sigma . I)`` for
  each of their 294 normal forms, with integer changes sigma drawn from a
  fixed seed;
- ``format_ideal(sample_ideal(seq, s))`` for every valid sequence of
  colength 3-15 and s = 0..3.

A digest that no longer matches means some output changed; the test names
the set, and a comparison of the listed lines against an earlier checkout
finds the member.
"""

import hashlib
import json
import random

from componentwise import marked_roles
from hsfinite import (
    LinearChange,
    are_isomorphic,
    classify,
    enumerate_sequences,
    format_ideal,
    normal_forms,
    sample_ideal,
    substitute_ideal,
    validate,
    verify_catalog,
)
from hsfinite.catalog import _analyze

CATALOG_DIGEST = "989e8bcb6b3af05a7be7a9db640bf3b488fea8e25126eac230ad51ec4909c718"
ISO_DIGEST = "5f86f604ef0e786b701b7a33610bb63d03214ef3871fdae863c59ff5a41f8ac7"
SAMPLE_DIGEST = "52f584e94b810cd05886a5758c723293913ad449cd15b189d6a89d402a493862"


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _finite_labels(max_colength):
    labels = []
    for colength in range(3, max_colength + 1):
        for entries in enumerate_sequences(colength):
            label = classify(validate(entries))
            if label.finite:
                labels.append(label)
    return labels


def catalog_lines():
    return [json.dumps(verify_catalog(label).to_dict(), sort_keys=True)
            for label in _finite_labels(16)]


def iso_lines():
    rng = random.Random(15)
    lines = []
    for label in _finite_labels(16):
        for entry in normal_forms(label):
            while True:
                a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
                if a * d != b * c:
                    break
            left = entry.ideal
            right = substitute_ideal(left, LinearChange(a, b, c, d))
            verdict = are_isomorphic(left, right)
            lines.append(repr((str(verdict), _analyze(left).invariant,
                               marked_roles(_analyze(left)),
                               marked_roles(_analyze(right)))))
    return lines


def sample_lines():
    return [format_ideal(sample_ideal(entries, s))
            for colength in range(3, 16)
            for entries in enumerate_sequences(colength)
            for s in range(4)]


def test_catalog_reports():
    lines = catalog_lines()
    assert len(lines) == 119
    assert _digest(lines) == CATALOG_DIGEST


def test_isomorphism_results():
    lines = iso_lines()
    assert len(lines) == 294
    assert _digest(lines) == ISO_DIGEST


def test_sampled_ideals():
    lines = sample_lines()
    assert len(lines) == 484
    assert _digest(lines) == SAMPLE_DIGEST
