"""Tooling guards.

The benchmark's span tracer names functions of tracelab, so a rename must
not break it silently; and importing tracelab must not pull in scipy.sparse.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_import_leaves_scipy_sparse_out():
    # the solvers hold K and M_dom as diagonals; scipy.sparse would add RSS and import time
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, tracelab; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
