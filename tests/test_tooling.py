"""Tooling guards.

The benchmark's span tracer names functions of tracelab, so a rename must
not break it silently; every name tracelab exports must resolve; importing
tracelab must not pull in scipy.sparse, neither importing nor running it
may pull in any of scipy, and a run imports nothing;
tools/report_drift.py must say which reported number moved, and by how much;
every config of tools/standard_drift.py must be one the CLI accepts;
tools/cell_cost.py must byte-compile the tree and report the cost and
verdict of one CLI cell; and tools/bench_pairs.py must apply the pair rule
to its records.
"""

import importlib
import importlib.util
import json
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


def test_import_and_every_suite_leave_scipy_out(tmp_path):
    # numpy alone runs tracelab; scipy is the tests' LAPACK oracle, and would cost
    # start-up time and RSS.  It may load neither at import nor later in a run, and
    # a run loads no module at all, so no import cost hides in the run time
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, tracelab\n"
        "from tracelab import cli\n"
        "args = ['--suite', ','.join(cli.SUITES), '--mesh', 'interval,square,lshape', '--n', '2,4',\n"
        f"        '--trials', '3', '--out', {str(tmp_path)!r}]\n"
        "config = cli.build_config(cli.make_parser().parse_args(args))\n"
        "loaded = set(sys.modules)\n"
        "code = cli.run(config)\n"
        "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(code, scipy, sorted(set(sys.modules) - loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "0 [] []"
    report = json.loads((tmp_path / "report.json").read_text())
    assert {r["suite"] for r in report["results"]} >= set(importlib.import_module("tracelab.cli").SUITES)


def test_every_exported_name_resolves():
    import tracelab

    for name in tracelab.__all__:
        assert hasattr(tracelab, name), f"tracelab.{name}"
    namespace = {}
    exec("from tracelab import *", namespace)
    assert set(tracelab.__all__) <= set(namespace)


DRIFT_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_drift.py"


def _tiny_report(hhalf_cmax):
    def cell(suite, mesh, n, residuals, constants):
        tols = {name: 1e-10 for name in residuals}
        verdicts = {name: True for name in residuals}
        return dict(suite=suite, mesh=mesh, n=n, residuals=residuals, constants=constants,
                    tolerances=tols, verdicts=verdicts, passed=True)

    return {
        "config": {"seed": 0},
        "results": [
            cell("hhalf", "square", 2, {"quotient_schur": 1e-15}, {"quotient_cmin": 0.5, "quotient_cmax": hhalf_cmax}),
            cell("h1", "square", 2, {"grow": 2e-16}, {"h1_cmin": 0.25}),
        ],
        "verdict": "pass",
    }


def _drift(tmp_path, report_a, report_b):
    paths = []
    for name, report in (("a", report_a), ("b", report_b)):
        (tmp_path / name).mkdir()
        paths.append(tmp_path / name / "report.json")
        paths[-1].write_text(json.dumps(report))
    return subprocess.run([sys.executable, str(DRIFT_PATH), *map(str, paths)], capture_output=True, text=True)


def test_report_drift_identical_ignores_config(tmp_path):
    other = _tiny_report(2.0)
    other["config"] = {"seed": 1, "out_dir": "elsewhere"}
    out = _drift(tmp_path, _tiny_report(2.0), other)
    assert out.returncode == 0 and out.stdout.strip() == "identical"


def test_report_drift_names_the_moved_constant(tmp_path):
    out = _drift(tmp_path, _tiny_report(2.0), _tiny_report(2.0 + 3e-12))
    assert out.returncode == 1
    lines = out.stdout.strip().splitlines()
    # one suite, one kind, the largest absolute and relative move, both the perturbed constant
    assert len(lines) == 2 and all(line.startswith("hhalf constants largest ") for line in lines)
    assert all("quotient_cmax at hhalf:square:2" in line for line in lines)
    absolute, relative = (float(line.split("move ")[1].split(":")[0]) for line in lines)
    assert absolute == pytest.approx(3e-12, rel=1e-3) and relative == pytest.approx(1.5e-12, rel=1e-3)


def _load(path, name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def test_standard_drift_configs_build(monkeypatch):
    from tracelab import cli

    tools = Path(__file__).resolve().parents[1] / "tools"
    monkeypatch.syspath_prepend(str(tools))  # the script imports report_drift beside it
    configs = _load(tools / "standard_drift.py", "standard_drift", monkeypatch).CONFIGS
    assert list(configs) == [
        "scale-refine", "solve-fine", "oplab", "all-suites", "two-levels", "h1-fine", "interp-fine", "pde-fine",
        "pde-trials", "odd-levels", "many-levels",
    ]
    for args in configs.values():
        assert isinstance(cli.build_config(cli.make_parser().parse_args(list(args))), cli.RunConfig)
    # the two benchmark workloads, with their arguments as the benchmark passes them
    bench = _load(TRACER_PATH.parent / "run.py", "perfbench_run", monkeypatch).WORKLOADS
    for name, seed in (("scale-refine", "501"), ("solve-fine", "901")):
        assert configs[name] == (*bench[name].args, "--seed", seed)


def test_cell_cost_reports_one_cell():
    tool = Path(__file__).resolve().parents[1] / "tools" / "cell_cost.py"
    args = ["--", "--suite", "pde", "--mesh", "interval", "--n", "2", "--trials", "2"]
    out = subprocess.run([sys.executable, str(tool), *args], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    cost = dict(line.split(" ", 1) for line in out.stdout.strip().splitlines())
    assert list(cost) == ["wall_s", "cpu_s", "peak_rss_mb", "minor_faults", "exit", "verdict"]
    assert (cost["exit"], cost["verdict"]) == ("0", "pass")
    assert float(cost["wall_s"]) > 0.0 and float(cost["cpu_s"]) > 0.0
    # the child's own peak: at least the interpreter with numpy loaded
    assert float(cost["peak_rss_mb"]) > 10.0
    # the child faults its interpreter and numpy in page by page
    assert int(cost["minor_faults"]) > 0
    # the tree is byte-compiled before the run, so the child compiles nothing
    src = tool.parents[1] / "src" / "tracelab"
    assert all(Path(importlib.util.cache_from_source(str(py))).exists() for py in src.glob("*.py"))


def test_bench_pairs_summary(monkeypatch):
    tools = Path(__file__).resolve().parents[1] / "tools"
    bench = _load(tools / "bench_pairs.py", "bench_pairs", monkeypatch)
    spec = [
        {"name": "run_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
        {"name": "rate", "better": "higher", "bound": 0.1},
        {"name": "cpu_s", "better": "lower", "bound": 0.25},
    ]
    parent_run = [1.0 + 0.1 * i for i in range(10)]
    pairs = [
        (
            {"run_s": p, "peak_rss_mb": 100.0, "rate": 1.0 + i % 2, "cpu_s": 2.0},
            {"run_s": p - 0.5, "peak_rss_mb": 106.0, "rate": 1.0 + i % 2, "cpu_s": 2.0 - 0.01 * (i < 3)},
        )
        for i, p in enumerate(parent_run)
    ]
    rows = {row["name"]: row for row in bench.summarize(pairs, spec)}
    assert list(rows) == ["run_s", "peak_rss_mb", "rate", "cpu_s"]
    run = rows["run_s"]
    # inclusive quartiles of 1.0, 1.1, ..., 1.9: 1.225 and 1.675
    assert run["parent_median"] == pytest.approx(1.45) and run["change_median"] == pytest.approx(0.95)
    assert run["parent_iqr"] == pytest.approx(0.45)
    assert (run["wins"], run["pairs"], run["verdict"]) == (10, 10, "gain")
    # 6% above a 5% bound, and no win
    assert (rows["peak_rss_mb"]["wins"], rows["peak_rss_mb"]["verdict"]) == (0, "worse")
    # equal runs: ties count for neither side; the parent's own spread of 1.0 is wider than its bound
    assert (rows["rate"]["wins"], rows["rate"]["parent_iqr"], rows["rate"]["verdict"]) == (0, 1.0, "unresolved")
    # 3 wins of 10 and an unchanged median: no gain, inside the bound
    assert (rows["cpu_s"]["wins"], rows["cpu_s"]["verdict"]) == (3, "within bound")
    # nine wins of ten suffice for a gain; eight do not
    nine = [({"run_s": 1.0 + 0.01 * i}, {"run_s": 0.5 if i else 2.0}) for i in range(10)]
    assert bench.summarize(nine, spec[:1])[0]["verdict"] == "gain"
    eight = [({"run_s": 1.0 + 0.01 * i}, {"run_s": 0.5 if i > 1 else 2.0}) for i in range(10)]
    assert bench.summarize(eight, spec[:1])[0]["verdict"] == "within bound"
    assert bench.quartiles([3.0]) == (3.0, 3.0, 3.0)
