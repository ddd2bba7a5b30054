"""Config-driven runner: executes verification suites, writes JSON and CSV.

Config is a flat key=value file; every key can also be set (or overridden)
by a command-line flag.  Reports carry no timestamps so identical config
and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import fem2d, oplab, tracescale
from .errors import BadParameter, ConfigParseError, NonFiniteResidual, TracelabError
from .report import SuiteReport


@dataclass(frozen=True)
class SuiteSpec:
    """Everything the runner knows about one suite.

    ``free_cells`` are mesh-free cells, each a name and a runner called as
    ``run(config, seed, tolerances)``; ``mesh_cell`` runs once per mesh and
    refinement level as ``run(assembly, config, seed, tolerances)``.
    ``gates`` are the tolerance tables the suite gates against (``--tol``
    names must occur in one of them), and ``stability`` the cross-refinement
    gate ``(constants, mode, limit)`` of suites that have one.  Runners look
    the suite function up on its module at call time, so a patched module
    attribute (a tracer, a test double) takes effect.
    """

    gates: tuple[dict[str, float], ...]
    free_cells: tuple[tuple[str, Callable[..., SuiteReport]], ...] = ()
    mesh_cell: Callable[..., SuiteReport] | None = None
    stability: tuple[tuple[str, ...], str, float] | None = None


SUITES: dict[str, SuiteSpec] = {
    "oplab": SuiteSpec(
        gates=(oplab.IDENTITY_TOLS, oplab.DOUGLAS_TOLS),
        free_cells=(
            ("identity", lambda c, seed, tols: oplab.identity_suite(
                trials=c.trials, seed=seed, tolerances=tols)),
            ("douglas", lambda c, seed, tols: oplab.douglas_suite(
                pairs=max(1, c.trials // 2), seed=seed, tolerances=tols)),
        ),
    ),
    "pde": SuiteSpec(
        gates=(tracescale.PDE_TOLS,),
        mesh_cell=lambda a, c, seed, tols: tracescale.suite_pde(
            a, trials=c.trials, seed=seed, tolerances=tols),
    ),
    "hhalf": SuiteSpec(
        gates=(tracescale.HHALF_TOLS,),
        mesh_cell=lambda a, c, seed, tols: tracescale.suite_hhalf(
            a, trials=c.trials, seed=seed, tolerances=tols),
        stability=(("quotient_cmin", "quotient_cmax"), "drift", 0.25),
    ),
    "h1": SuiteSpec(
        gates=(tracescale.H1_TOLS,),
        mesh_cell=lambda a, c, seed, tols: tracescale.suite_h1(a, tolerances=tols),
        stability=(("h1_cmin", "h1_cmax", "seminorm_cmin", "seminorm_cmax"), "growth", 3.0),
    ),
    "necas": SuiteSpec(
        gates=(tracescale.NECAS_TOLS,),
        mesh_cell=lambda a, c, seed, tols: tracescale.necas_constants(
            a, n_samples=c.trials, seed=seed, tolerances=tols),
        stability=(
            ("trace_rough_max", "trace_smooth_max", "flux_rough_max", "flux_smooth_max", "rellich_max"),
            "growth",
            3.0,
        ),
    ),
    "interp": SuiteSpec(
        gates=(tracescale.INTERP_TOLS,),
        mesh_cell=lambda a, c, seed, tols: tracescale.suite_interp(
            a, trials=c.trials, seed=seed, tolerances=tols),
    ),
    "dual": SuiteSpec(
        gates=(tracescale.DUAL_TOLS,),
        mesh_cell=lambda a, c, seed, tols: tracescale.suite_dual(a, seed=seed, tolerances=tols),
    ),
}


@dataclass(frozen=True)
class RunConfig:
    suites: tuple[str, ...]
    meshes: tuple[str, ...] = ("square",)
    ns: tuple[int, ...] = (8,)
    seed: int = 0
    trials: int = 100
    tol_overrides: dict[str, float] = field(default_factory=dict)
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if not self.suites:
            raise ConfigParseError("no suites selected")
        for s in self.suites:
            if s not in SUITES:
                raise ConfigParseError(f"unknown suite {s!r}")
        if not self.meshes:
            raise ConfigParseError("no mesh kinds selected")
        if not self.ns:
            raise ConfigParseError("no refinement levels selected")
        for m in self.meshes:
            try:
                levels = tuple(fem2d.check_level(m, n) for n in self.ns)
            except BadParameter as exc:
                raise ConfigParseError(str(exc)) from exc
        object.__setattr__(self, "ns", levels)  # plain ints, so a numpy integer level reaches the report
        if len(set(self.ns)) != len(self.ns):
            raise ConfigParseError(f"refinement levels {list(self.ns)} repeat a level")
        if self.trials < 1:
            raise ConfigParseError("trials must be at least 1")
        if not -(2**63) <= self.seed < 2**64:
            raise ConfigParseError("seed does not fit in 64 bits")
        if self.out_dir == "":
            raise ConfigParseError("empty output directory")

    def as_dict(self) -> dict:
        return {
            "suites": list(self.suites),
            "meshes": list(self.meshes),
            "ns": list(self.ns),
            "seed": self.seed,
            "trials": self.trials,
            "tol_overrides": dict(sorted(self.tol_overrides.items())),
            "out_dir": self.out_dir,
        }


def cell_seed(master: int, name: str) -> int:
    """Deterministic per-cell seed: master XOR 64-bit hash of the cell name."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return (master ^ int.from_bytes(digest, "big")) & (2**64 - 1)


def _split_csv(values: list[str]) -> list[str]:
    out: list[str] = []
    for v in values:
        out.extend(p.strip() for p in v.split(",") if p.strip())
    return out


def _tolerance(value: str) -> float:
    """A gate tolerance: a finite real >= 0 (0 passes only an exact zero residual)."""
    tol = float(value)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(value)
    return tol


def parse_config_file(path: str) -> dict[str, object]:
    """Flat key=value text.  Blank lines and #-comments are skipped.

    Keys: suites, meshes, ns (comma lists), seed, trials (integers),
    out (a non-empty path), tol.NAME (override for tolerance family NAME, a
    finite real >= 0).  A key given twice is an error that names both lines.
    """
    raw: dict[str, object] = {}
    tols: dict[str, float] = {}
    first_line: dict[str, int] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in first_line:
            raise ConfigParseError(f"{path}:{lineno}: key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        if key.startswith("tol."):
            name = key[len("tol.") :]
            if not name:
                raise ConfigParseError(f"{path}:{lineno}: empty tolerance name")
            try:
                tols[name] = _tolerance(value)
            except ValueError as exc:
                raise ConfigParseError(f"{path}:{lineno}: bad tolerance value {value!r}") from exc
        elif key in ("suites", "meshes", "ns"):
            raw[key] = _split_csv([value])
        elif key in ("seed", "trials"):
            try:
                raw[key] = int(value)
            except ValueError as exc:
                raise ConfigParseError(f"{path}:{lineno}: bad integer {value!r}") from exc
        elif key == "out":
            if not value:
                raise ConfigParseError(f"{path}:{lineno}: empty output directory")
            raw[key] = value
        else:
            raise ConfigParseError(f"{path}:{lineno}: unknown key {key!r}")
    if tols:
        raw["tol_overrides"] = tols
    return raw


def _parse_tol_flag(items: list[str]) -> dict[str, float]:
    tols: dict[str, float] = {}
    for item in items:
        if "=" not in item:
            raise ConfigParseError(f"--tol expects NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        if name in tols:
            raise ConfigParseError(f"--tol names {name!r} twice")
        try:
            tols[name] = _tolerance(value)
        except ValueError as exc:
            raise ConfigParseError(f"bad tolerance value in {item!r}") from exc
    return tols


def _once(values: list | None, flag: str):
    """The value of a single-valued flag, None when it is absent; a flag
    given twice is an error."""
    if values and len(values) > 1:
        raise ConfigParseError(f"{flag} given {len(values)} times")
    return values[0] if values else None


def build_config(args: argparse.Namespace) -> RunConfig:
    raw: dict[str, object] = {}
    seed, trials, out = _once(args.seed, "--seed"), _once(args.trials, "--trials"), _once(args.out, "--out")
    if args.config:
        raw.update(parse_config_file(args.config))
    if args.suite:
        raw["suites"] = _split_csv(args.suite)
    if args.mesh:
        raw["meshes"] = _split_csv(args.mesh)
    if args.n:
        raw["ns"] = _split_csv(args.n)
    if seed is not None:
        raw["seed"] = seed
    if trials is not None:
        raw["trials"] = trials
    if args.tol:
        merged = dict(raw.get("tol_overrides", {}))
        merged.update(_parse_tol_flag(args.tol))
        raw["tol_overrides"] = merged
    if out is not None:
        if not out:
            raise ConfigParseError("--out is empty")
        raw["out"] = out

    try:
        ns = tuple(int(v) for v in raw.get("ns", [8]))
    except ValueError as exc:
        raise ConfigParseError(f"bad refinement value: {exc}") from exc

    out_dir = raw.get("out")
    if out_dir is None:
        out_dir = os.environ.get("TRACELAB_OUT", "tracelab_out")
        if not out_dir:
            raise ConfigParseError("$TRACELAB_OUT is empty")
    return RunConfig(
        suites=tuple(dict.fromkeys(raw.get("suites", []))),
        meshes=tuple(dict.fromkeys(raw.get("meshes", ["square"]))),
        ns=ns,
        seed=int(raw.get("seed", 0)),
        trials=int(raw.get("trials", 100)),
        tol_overrides=dict(raw.get("tol_overrides", {})),
        out_dir=str(out_dir),
    )


def _assembly_cells(config: RunConfig, suites: list[str], mesh: str, n: int) -> dict[str, SuiteReport]:
    """The cell of each of ``suites`` on the (mesh, n) assembly, keyed by suite.
    The assembly is built here and dropped on return, and its memoized
    factors with it."""
    a = fem2d.assemble(fem2d.gen_mesh(mesh, n))
    tols = config.tol_overrides or None
    return {
        suite: SUITES[suite].mesh_cell(a, config, cell_seed(config.seed, f"{suite}:{mesh}:{n}"), tols)
        for suite in suites
    }


def _suite_reports(config: RunConfig, suite: str, cells: dict) -> list[SuiteReport]:
    """The cells of one mesh suite, mesh by mesh and level by level, each
    mesh's series followed by its stability row when the suite has one."""
    spec = SUITES[suite]
    reports: list[SuiteReport] = []
    for mesh in config.meshes:
        per_level = [cells[suite, mesh, n] for n in config.ns]
        reports.extend(per_level)
        if spec.stability and len(per_level) >= 2:
            metrics, mode, limit = spec.stability
            series = {
                m: [rep.constants[m] for rep in per_level]
                for m in metrics
                if all(m in rep.constants for rep in per_level)
            }
            if series:
                reports.append(tracescale.refinement_stability(suite, mesh, series, limit, mode))
    return reports


def _check_tolerance_names(config: RunConfig) -> None:
    """Reject tolerance overrides that name no gate of the selected suites."""
    known = {name for suite in config.suites for table in SUITES[suite].gates for name in table}
    unknown = sorted(set(config.tol_overrides) - known)
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise ConfigParseError(f"no gate named {names} in suites {', '.join(config.suites)}")


def execute(config: RunConfig) -> tuple[list[SuiteReport], str]:
    """Run every selected cell; returns (reports, verdict).

    The mesh-free cells run first.  The mesh cells run assembly by assembly:
    each (mesh, n) assembly is built when its turn comes, every selected
    mesh suite runs its cell on it, and it is dropped, with its factors,
    before the next is built, so a run holds one assembly at a time.  The
    reports come in the order suite, mesh, n, each mesh's series followed by
    its stability row.
    """
    _check_tolerance_names(config)
    tols = config.tol_overrides or None
    reports = [
        run_cell(config, cell_seed(config.seed, f"{suite}:{name}"), tols)
        for suite in config.suites
        for name, run_cell in SUITES[suite].free_cells
    ]

    mesh_suites = [s for s in config.suites if SUITES[s].mesh_cell]
    if mesh_suites:
        cells = {
            (suite, mesh, n): rep
            for mesh in config.meshes
            for n in config.ns
            for suite, rep in _assembly_cells(config, mesh_suites, mesh, n).items()
        }
        for suite in mesh_suites:
            reports.extend(_suite_reports(config, suite, cells))

    verdict = "pass" if all(rep.passed for rep in reports) else "fail"
    return reports, verdict


def write_reports(config: RunConfig, reports: list[SuiteReport], verdict: str) -> tuple[Path, Path]:
    payload = {
        "config": config.as_dict(),
        "results": [rep.as_dict() for rep in reports],
        "verdict": verdict,
    }
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteResidual(f"report not written, it holds a NaN or infinity: {exc}") from exc
    out = Path(config.out_dir or "tracelab_out")
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    json_path.write_text(text)

    csv_path = out / "report.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "mesh", "n", "metric", "value"])
        for rep in reports:
            for name in sorted(rep.residuals):
                writer.writerow([rep.suite, rep.mesh, rep.n, name, repr(rep.residuals[name])])
            for name in sorted(rep.constants):
                writer.writerow([rep.suite, rep.mesh, rep.n, name, repr(rep.constants[name])])
    return json_path, csv_path


def _check_out_dir(out: Path) -> None:
    """Raise ConfigParseError, naming ``out``, unless the nearest of it and its
    parents that exists is a directory this process may write into."""
    found = next(p for p in (out, *out.parents) if os.path.exists(p))
    if not (found.is_dir() and os.access(found, os.W_OK | os.X_OK)):
        raise ConfigParseError(f"unusable output directory {out}: {found} is not a writable directory")


def run(config: RunConfig) -> int:
    """Check the output directory, then execute the configured cells and write report files.

    Returns 0 when every gated verdict passes, 1 otherwise.
    """
    _check_out_dir(Path(config.out_dir or "tracelab_out"))
    reports, verdict = execute(config)
    json_path, _ = write_reports(config, reports, verdict)
    failed = [
        f"{rep.suite}:{rep.mesh}:{rep.n}:{name}"
        for rep in reports
        for name, ok in rep.verdicts.items()
        if not ok
    ]
    print(f"{len(reports)} reports -> {json_path} [{verdict}]")
    for item in failed:
        print(f"  FAIL {item}")
    return 0 if verdict == "pass" else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracelab",
        description="Run tracelab verification suites and emit JSON/CSV reports.",
    )
    parser.add_argument("config", nargs="?", help="flat key=value config file")
    parser.add_argument("--suite", action="append", help="suite name (repeatable / comma list)")
    parser.add_argument("--mesh", action="append", help="mesh kind (repeatable / comma list)")
    parser.add_argument("--n", action="append", help="refinement level (repeatable / comma list)")
    # appended, so that build_config can refuse a second value
    parser.add_argument("--seed", type=int, action="append", help="master seed (64-bit), once")
    parser.add_argument("--trials", type=int, action="append", help="random trials per cell, once")
    parser.add_argument("--tol", action="append", help="tolerance override NAME=VALUE, VALUE finite and >= 0")
    parser.add_argument("--out", action="append", help="output directory, once (default $TRACELAB_OUT)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return run(build_config(args))
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TracelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
