"""How far two tracelab reports moved apart, per suite.

    python3 tools/report_drift.py A/report.json B/report.json

Results are paired by (suite, mesh, n), in order of appearance where a key
repeats; the ``config`` block is ignored.  For each suite the script prints
the largest absolute and the largest relative move among its residuals and
among its constants, each with the metric, the cell and both values, and
names every cell, metric, verdict or tolerance that one report has and the
other has not or that differs.  The relative move is |b - a| / max(|a|, |b|).
It prints "identical" and exits 0 when nothing moves, and exits 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

KINDS = ("residuals", "constants")


def _cells(report: dict) -> dict[tuple, dict]:
    seen: Counter = Counter()
    cells = {}
    for res in report["results"]:
        key = (res["suite"], res["mesh"], res["n"])
        cells[(*key, seen[key])] = res
        seen[key] += 1
    return cells


def _cell_name(key: tuple) -> str:
    suite, mesh, n, k = key
    return f"{suite}:{mesh}:{n}" + (f"#{k}" if k else "")


def drift(path_a: str, path_b: str) -> list[str]:
    """The lines that describe how report b moved from report a; none if it did not."""
    rep_a, rep_b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    a, b = _cells(rep_a), _cells(rep_b)
    lines = [] if rep_a["verdict"] == rep_b["verdict"] else [f"verdict: {rep_a['verdict']} -> {rep_b['verdict']}"]
    lines += [f"only in {p}: {_cell_name(key)}" for p, x, y in ((path_a, a, b), (path_b, b, a)) for key in x if key not in y]
    # suite -> kind -> ("abs" | "rel") -> (move, metric, cell, value a, value b)
    worst: dict[str, dict[str, dict[str, tuple]]] = {}
    for key in (key for key in a if key in b):
        ra, rb, cell = a[key], b[key], _cell_name(key)
        for field in ("verdicts", "tolerances", "passed"):
            if ra.get(field) != rb.get(field):
                lines.append(f"{cell} {field}: {ra.get(field)} -> {rb.get(field)}")
        for kind in KINDS:
            xa, xb = ra[kind], rb[kind]
            lines += [f"{cell} {kind} {name}: only in one report" for name in sorted(set(xa) ^ set(xb))]
            for name in sorted(set(xa) & set(xb)):
                va, vb = xa[name], xb[name]
                move = abs(vb - va)
                big = max(abs(va), abs(vb))
                for how, size in (("abs", move), ("rel", move / big if big else 0.0)):
                    slot = worst.setdefault(key[0], {}).setdefault(kind, {})
                    if size > slot.get(how, (0.0,))[0]:
                        slot[how] = (size, name, cell, va, vb)
    for suite in sorted(worst):
        for kind in KINDS:
            for how, (size, name, cell, va, vb) in sorted(worst[suite].get(kind, {}).items()):
                lines.append(f"{suite} {kind} largest {how} move {size:.3e}: {name} at {cell} ({va!r} -> {vb!r})")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: report_drift.py A/report.json B/report.json", file=sys.stderr)
        return 2
    lines = drift(*argv)
    print("\n".join(lines) if lines else "identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
