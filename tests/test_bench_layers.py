"""The benchmark's traced mode (``bench/run.py --trace 1``) looks up every
function listed in ``bench/tracing.py`` by name, so each must still exist."""

import importlib
import importlib.util
import os

BENCH_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        "%s.%s" % (module, name)
        for module, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module("hsfinite." + module), name, None))
    ]
    assert not missing
