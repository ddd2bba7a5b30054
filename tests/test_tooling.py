"""The benchmark's span tracer names functions of tracelab; a rename must not break it silently."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(tracer):
    for modname, fnames in tracer.TRACED.items():
        module = importlib.import_module(f"tracelab.{modname}")
        for fname in fnames:
            assert callable(getattr(module, fname, None)), f"tracelab.{modname}.{fname}"


def test_every_cached_name_reports_cache_info(tracer):
    for modname, fnames in tracer.CACHED.items():
        module = importlib.import_module(f"tracelab.{modname}")
        for fname in fnames:
            assert hasattr(getattr(module, fname, None), "cache_info"), f"tracelab.{modname}.{fname}"
