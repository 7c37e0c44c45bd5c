"""The benchmark's tracer still finds every engine method it wraps.

`bench/tracing.py` patches methods through each class's own `__dict__`, so a
traced method that moves into a base class would silently stop being counted.
The module is loaded from its file as it stands.
"""

import importlib.util
from pathlib import Path

from intdiffop import generators

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    tracing = _tracing()
    with tracing.installed(tracing.Tracer()) as missing:
        assert missing == []


def test_power_products_are_counted():
    tracing = _tracing()
    d = generators()[0]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.run_op(0, lambda: d**5)
    # **5 makes popcount(5) + bit_length(5) - 1 = 4 products
    assert tracer.calls["i1.pow"] == 1
    assert tracer.counts["i1.pow.mul_calls"] == 4
