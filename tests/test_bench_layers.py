"""The benchmark's traced mode (``bench/run.py --trace 1``) looks up every
function listed in ``bench/tracing.py`` by name, so each must still exist,
and wraps every binding of it in the package."""

import importlib
import importlib.util
import os

import hsfinite
import hsfinite.cli  # the tracer wraps cli.main, so the module must be loaded
from hsfinite import forms

BENCH_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_exists():
    tracing = load_tracing()
    missing = [
        "%s.%s" % (module, name)
        for module, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module("hsfinite." + module), name, None))
    ]
    assert not missing


def test_tracer_counts_every_binding_of_a_wrapped_function():
    # no workload calls parse_form, so its count is checked here: the
    # tracer wraps both the package export and the forms module's own
    # binding, and uninstall puts back the function it found
    original = forms.parse_form
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert hsfinite.parse_form is not original
        assert hsfinite.parse_form("x*y") == original("x*y")
        hsfinite.forms.parse_form("x^2 - y^2")
    finally:
        tracer.uninstall()
    assert tracer.metrics(1.0)["forms.parse_form.calls"] == 2
    assert hsfinite.parse_form is original and forms.parse_form is original
