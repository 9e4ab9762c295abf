"""Benchmark of hsfinite on three workloads, run from the repository root:

    python3 bench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``catalog`` runs the CLI catalog command for
every finite-type sequence up to colength 16; ``iso-transformed`` tests
catalog ideals against random integer transforms of themselves;
``generic`` samples ideals for every valid sequence of colength 5 to 9 and
tests each against a random transform.

One process, one thread.  After a warm-up repetition that is discarded, the
whole item list is repeated until ``--seconds`` of wall time have passed
(at least twice).  Items are timed in CPU time of this thread
(``time.thread_time``), scaled by a fixed calibration loop timed before and
after each item.  On the shared 2-core virtual machine the bounds were set
on, wall time also counts time the hypervisor gives to other guests (it
moved whole repetitions by up to 60%), and CPU time itself ran a third
faster for seconds at a time when neighbours left the cores idle.  Times
therefore read as CPU time at the speed where ``calibration()`` takes
``REFERENCE_CALIBRATION_S``; the median scale is printed with the results.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: a fresh import of ``hsfinite`` plus building the inputs from
  the seed, median of five;
* ``items_per_s``: items per CPU second, from the median repetition;
* ``item_p50_ms`` and ``item_tail_ms``: per-item latency (each item's median
  over the repetitions); the tail is the highest whole percentile with at
  least ten items beyond it;
* ``peak_rss_mb``: peak resident memory of the process;
* ``ok_ratio``: items whose output passed every check, over items attempted
  (``1 - error_rate``);
* ``decided_ratio``: ``Isomorphic`` or ``Distinguished`` verdicts over all
  isomorphism verdicts (``1 - unknown_ratio``).

The two ratios are reported as complements so that no metric reads 0;
``error_rate`` and ``unknown_ratio`` themselves are printed above the
result line.

``--trace 1`` alternates untraced and traced repetitions, each rebuilding
its inputs from the seed, and prints per-layer calls, self and total CPU
seconds of the public functions of every module, the RREF and witness
counters, and ``trace_overhead`` (traced over untraced CPU time).  Spans
are written to ``.bench_out/spans-<workload>.tsv``.

Outputs are checked outside the timed region against an independent
oracle (oracle.py), the JSON schema and reference class counts.  The last
line of standard output is the result as one JSON object.

What each layer should move, written down before any optimisation:

* ``rref``, ``component``, ``gcd_forms``: ``items_per_s`` on catalog,
  barely on generic.
* ``are_isomorphic.witness_s`` and ``.candidates``, ``equal_ideals``,
  ``substitute_ideal``, ``substitute``, ``multiply``: ``items_per_s`` and
  ``item_tail_ms`` on generic and ``item_p50_ms`` on iso-transformed; catalog
  almost unchanged.
* ``are_isomorphic.invariant_s``, ``multiplicity_partition``,
  ``rational_root_points``, ``common_factor``, ``power_pairing``:
  ``item_p50_ms`` on iso-transformed and ``decided_ratio`` on catalog, but
  not ``decided_ratio`` on generic, whose roots are irrational.
* ``sample_ideal``, ``contains``: ``items_per_s`` on generic only (about 5%
  of its time).
* ``cli.main``, ``sequences.*`` and the parsers: ``items_per_s`` and
  ``setup_s`` on catalog.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction

import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
# CPU seconds of calibration() at the machine's usual speed (Python 3.11,
# the 2-core shared virtual machine the bounds were set on).
REFERENCE_CALIBRATION_S = 0.0016
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "decided_ratio": "ratio",
}


def load_program():
    """Import hsfinite afresh from src/, dropping any copy imported before."""
    for name in [n for n in sys.modules
                 if n == "hsfinite" or n.startswith("hsfinite.")]:
        del sys.modules[name]
    importlib.import_module("hsfinite.cli")
    hs = sys.modules["hsfinite"]
    if not os.path.abspath(hs.__file__).startswith(SRC + os.sep):
        raise ImportError("hsfinite was imported from %s, not %s"
                          % (hs.__file__, SRC))
    return hs


def input_hash(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def calibration():
    """CPU seconds of a fixed loop of exact rational arithmetic, the kind of
    work the program's inner loops do."""
    start = tracing.clock()
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    return tracing.clock() - start


def run_repetition(hs, workload, items, workdir, seed=None, tracer=None):
    """Run every item once; returns (scaled seconds, scaled latencies,
    outputs, scale).

    Each item's CPU time is scaled by REFERENCE_CALIBRATION_S over the mean
    of the calibration loops timed just before and just after it.  With
    ``seed`` the inputs are first rebuilt from it inside the repetition, so
    a traced repetition also covers input generation."""
    if tracer is not None:
        tracer.install()
    try:
        build = 0.0
        calibrations = [calibration()]
        if seed is not None:
            start = tracing.clock()
            items = workload.build(hs, seed)
            build = tracing.clock() - start
            calibrations.append(calibration())
        latencies, outputs = [], []
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.item = index
            start = tracing.clock()
            try:
                raw = workload.run(hs, item, workdir, index)
            except Exception:
                raw = None
                traceback.print_exc(file=sys.stderr)
            latencies.append(tracing.clock() - start)
            calibrations.append(calibration())
            outputs.append(None if raw is None else workload.digest(raw))
    finally:
        if tracer is not None:
            tracer.uninstall()
    scales = [2 * REFERENCE_CALIBRATION_S / (a + b)
              for a, b in zip(calibrations, calibrations[1:])]
    if seed is not None:
        build *= scales.pop(0)
    scaled = [t * k for t, k in zip(latencies, scales)]
    return (build + sum(scaled), scaled, outputs,
            REFERENCE_CALIBRATION_S / statistics.median(calibrations))


def percentile(values, q):
    """Nearest-rank percentile of an unsorted list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_percentile(n):
    """Highest whole percentile with at least ten of n items beyond it."""
    q = 99
    while q > 0 and n - math.ceil(q / 100 * n) < 10:
        q -= 1
    return q


def check_outputs(hs, workload, items, reps):
    """Check every output of every repetition; identical outputs of one item
    are checked once.  Returns (failed, verdict counts, first problem)."""
    cache = {}
    failed = 0
    verdicts = {}
    first_problem = None
    for outputs in reps:
        for index, output in enumerate(outputs):
            if output is None:
                problem, kinds = "raised", []
            else:
                key = (index, output)
                if key not in cache:
                    cache[key] = workload.check(hs, items[index], output)
                problem, kinds = cache[key]
            for kind in kinds:
                verdicts[kind] = verdicts.get(kind, 0) + 1
            if problem is not None:
                failed += 1
                if first_problem is None:
                    first_problem = "item %r: %s" % (items[index], problem)
    return failed, verdicts, first_problem


def measure(args, workload, hs, items, workdir):
    """Untraced run: the end-to-end metrics."""
    run_repetition(hs, workload, items, workdir)
    reps = []
    began = time.perf_counter()
    while len(reps) < 2 or time.perf_counter() - began < args.seconds:
        reps.append(run_repetition(hs, workload, items, workdir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_item = [statistics.median(rep[1][i] for rep in reps)
                for i in range(len(items))]
    q = tail_percentile(len(items))
    metrics = {
        "items_per_s": len(items) / statistics.median(rep[0] for rep in reps),
        "item_p50_ms": 1000 * statistics.median(per_item),
        "item_tail_ms": 1000 * percentile(per_item, q),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = ["repetitions %d after 1 warm-up; tail is p%d of %d items; "
             "calibration scale %.4f" % (len(reps), q, len(items),
                                         statistics.median(r[3] for r in reps))]
    return metrics, [rep[2] for rep in reps], notes


def measure_traced(args, workload, hs, items, workdir):
    """Traced run: per-layer metrics and the tracing overhead."""
    run_repetition(hs, workload, items, workdir, seed=args.seed)
    plain, traced, tracers = [], [], []
    began = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - began < args.seconds:
        plain.append(run_repetition(hs, workload, items, workdir,
                                    seed=args.seed))
        tracer = tracing.Tracer()
        traced.append(run_repetition(hs, workload, items, workdir,
                                     seed=args.seed, tracer=tracer))
        tracers.append(tracer)
    layers = [t.metrics(rep[3]) for t, rep in zip(tracers, traced)]
    problems = ["traced repetitions disagree on %s: %r" % (
        name, [m[name] for m in layers])
        for name in tracing.EXACT if len({m[name] for m in layers}) > 1]
    metrics = {name: layers[0][name] if name in tracing.EXACT
               else statistics.median(m[name] for m in layers)
               for name in layers[0]}
    metrics["trace_overhead"] = (statistics.median(r[0] for r in traced)
                                 / statistics.median(r[0] for r in plain))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s.tsv" % workload.name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("rep\tspan\tfunction\tstart\tend\tparent\titem\n")
        for rep, tracer in enumerate(tracers):
            tracer.write(handle, rep)
    counters = json.dumps([layers[0][n] for n in tracing.EXACT])
    notes = ["traced repetitions %d, untraced %d; spans in %s"
             % (len(traced), len(plain), os.path.relpath(path, ROOT)),
             "counter_hash %s" % hashlib.sha256(counters.encode()).hexdigest()[:16]]
    return metrics, [r[2] for r in plain + traced], notes, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hsfinite", "__init__.py")):
        print("error: no program at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]()
    load_program()  # compiles bytecode once, untimed

    setup = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        gc.collect()
        before = calibration()
        start = tracing.clock()
        hs = load_program()
        items = workload.build(hs, args.seed)
        elapsed = tracing.clock() - start
        setup.append(elapsed * 2 * REFERENCE_CALIBRATION_S
                     / (before + calibration()))

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.trace:
            metrics, reps, notes, problems = measure_traced(
                args, workload, hs, items, workdir)
        else:
            metrics, reps, notes = measure(args, workload, hs, items, workdir)
            problems = []

    failed, verdicts, first_problem = check_outputs(hs, workload, items, reps)
    attempted = len(items) * len(reps)
    if first_problem is not None:
        problems.append(first_problem)
    other = workload.build(hs, args.seed + 1)
    if input_hash(other) == input_hash(items):
        problems.append("seed %d gives the same inputs" % (args.seed + 1))
    if workload.size_key(other) != workload.size_key(items):
        problems.append("seed %d gives inputs of other sizes" % (args.seed + 1))

    total = sum(verdicts.values())
    unknown = verdicts.get("unknown", 0)
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
        metrics["ok_ratio"] = 1 - failed / attempted
        metrics["decided_ratio"] = 1 - unknown / total if total else 1.0
    units = END_TO_END_UNITS if not args.trace else tracing.metric_units()

    print("workload %s  seed %d  items %d  input_hash %s  python %s  nproc %d"
          % (workload.name, args.seed, len(items), input_hash(items),
             platform.python_version(), os.cpu_count()))
    for note in notes:
        print(note)
    print("verdicts %s" % json.dumps(verdicts, sort_keys=True))
    print("unknown_ratio %.6f (%d/%d)  error_rate %.6f (%d/%d)" % (
        unknown / total if total else 0.0, unknown, total,
        failed / attempted, failed, attempted))
    for problem in problems:
        print("problem: %s" % problem)
    for name in sorted(metrics):
        print("%-44s %14.6g %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
