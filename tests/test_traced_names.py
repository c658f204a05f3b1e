"""The benchmark's tracer wraps galmod functions that it names as strings,
so a rename in the package would break only the benchmark.  This test
reads that list and fails at the first name galmod no longer has."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, qualname in tracer.TRACED:
        obj = importlib.import_module(f"galmod.{module}")
        for attr in qualname.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), (module, qualname)
