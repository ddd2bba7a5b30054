"""In-memory span tracer for tracelab, installed from outside the package.

``Tracer.install`` replaces each traced function at every binding site: the
defining module, every ``from``-import of it in another tracelab module, and
the package's re-exports.  A call records one span (name, start, end, parent
id).  A call made while a span of the same name is open (``jacobi_svd``
recursing on the transpose of a wide input) passes straight through, so each
function is counted once, at its outermost call.  Spans stay in memory until
``write_spans``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

TRACED = {
    "kernels": ("jacobi_eigh", "jacobi_svd"),
    "oplab": ("pinv", "spectral", "frac_power", "adjoint"),
    "fem2d": ("gen_mesh", "assemble", "space_h1partial"),
    "tracescale": (
        "suite_pde", "suite_hhalf", "suite_h1", "necas_constants", "suite_interp", "suite_dual",
        "harmonic_extension", "normal_derivative", "robin_solve", "hs_gram",
    ),
    "cli": ("execute", "write_reports"),
}

# lru_cache'd per-assembly factorizations whose cache_info() is reported
CACHED = {
    "fem2d": ("space_h1partial",),
    "tracescale": (
        "_s_operator", "_s_spectrum", "_trace_pinv", "_hs_gram_cached", "_extension_matrix",
        "_interior_chol",
    ),
}

KERNELS = ("kernels.jacobi_eigh", "kernels.jacobi_svd")


def _tracelab_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "tracelab" or n.startswith("tracelab.")]


def _kernel_work(name: str, arr: np.ndarray) -> int:
    """n^3 for an eigensolve; m n^2 (m >= n, after the kernel's own transpose) for an SVD."""
    if name == "kernels.jacobi_eigh":
        return arr.shape[0] ** 3
    big, small = max(arr.shape), min(arr.shape)
    return big * small * small


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent id or -1]
        self.work: dict[str, int] = defaultdict(int)
        self.digests: dict[str, set[bytes]] = defaultdict(set)
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def _note_kernel_input(self, name: str, arr) -> None:
        arr = np.ascontiguousarray(arr, dtype=float)
        self.work[name] += _kernel_work(name, arr)
        h = hashlib.blake2b(repr(arr.shape).encode(), digest_size=16)
        h.update(arr.tobytes())
        self.digests[name].add(h.digest())

    def _wrap(self, name: str, fn):
        spans, stack, is_open = self.spans, self._stack, self._open
        clock = time.perf_counter
        note = self._note_kernel_input if name in KERNELS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in is_open:
                return fn(*args, **kwargs)
            if note is not None:
                note(name, args[0])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            is_open.add(name)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                is_open.discard(name)

        return traced

    def install(self) -> None:
        modules = _tracelab_modules()
        for modname, fnames in TRACED.items():
            owner = sys.modules[f"tracelab.{modname}"]
            for fname in fnames:
                name = f"{modname}.{fname}"
                original = getattr(owner, fname)
                self.originals[name] = original
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def unpatched_sites(self) -> list[str]:
        """Bindings of a traced function that still point at the original (empty when installed)."""
        originals = {id(fn): name for name, fn in self.originals.items()}
        return [
            f"{mod.__name__}.{attr} -> {originals[id(value)]}"
            for mod in _tracelab_modules()
            for attr, value in vars(mod).items()
            if id(value) in originals
        ]

    def nesting_violations(self) -> list[int]:
        """Ids of kernel spans that have an open span of the same kernel above them."""
        bad = []
        for sid, (name, _, _, parent) in enumerate(self.spans):
            if name not in KERNELS:
                continue
            while parent >= 0:
                if self.spans[parent][0] == name:
                    bad.append(sid)
                    break
                parent = self.spans[parent][3]
        return bad

    def totals(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, busy_s (sum of span durations) and self_s (minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.originals}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - inner
        return out

    def layer_metrics(self, cells: int) -> dict[str, dict]:
        """The per-layer metric table, as ``{name: {"value": v, "unit": u}}``."""
        t = self.totals()
        m: dict[str, tuple[float, str]] = {}
        for name, work_key in (("kernels.jacobi_eigh", "work_n3"), ("kernels.jacobi_svd", "work_mn2")):
            calls = t[name]["calls"]
            distinct = len(self.digests[name])
            m[f"{name}.calls"] = (calls, "count")
            m[f"{name}.busy_s"] = (t[name]["busy_s"], "s")
            m[f"{name}.self_s"] = (t[name]["self_s"], "s")
            m[f"{name}.{work_key}"] = (self.work[name], "count")
            m[f"{name}.distinct"] = (distinct, "count")
            # base is .calls; with no calls nothing is wasted
            m[f"{name}.distinct_ratio"] = (distinct / calls if calls else 1.0, "ratio")
        for fn in ("pinv", "spectral", "frac_power", "adjoint"):
            m[f"oplab.{fn}.calls"] = (t[f"oplab.{fn}"]["calls"], "count")
            m[f"oplab.{fn}.busy_s"] = (t[f"oplab.{fn}"]["busy_s"], "s")
        for fn in ("gen_mesh", "assemble", "space_h1partial"):
            m[f"fem2d.{fn}.busy_s"] = (t[f"fem2d.{fn}"]["busy_s"], "s")
        for fn in ("suite_pde", "suite_hhalf", "suite_h1", "necas_constants", "suite_interp", "suite_dual"):
            m[f"tracescale.{fn}.busy_s"] = (t[f"tracescale.{fn}"]["busy_s"], "s")
            m[f"tracescale.{fn}.self_s"] = (t[f"tracescale.{fn}"]["self_s"], "s")
        for fn in ("harmonic_extension", "normal_derivative", "robin_solve", "hs_gram"):
            m[f"tracescale.{fn}.calls"] = (t[f"tracescale.{fn}"]["calls"], "count")
            m[f"tracescale.{fn}.busy_s"] = (t[f"tracescale.{fn}"]["busy_s"], "s")
        for modname, fnames in CACHED.items():
            mod = sys.modules[f"tracelab.{modname}"]
            prefix = "fem2d" if modname == "fem2d" else "tracescale.cache"
            for fn in fnames:
                info = self.originals.get(f"{modname}.{fn}", getattr(mod, fn)).cache_info()
                m[f"{prefix}.{fn}.hits"] = (info.hits, "count")
                m[f"{prefix}.{fn}.misses"] = (info.misses, "count")
        m["cli.execute.busy_s"] = (t["cli.execute"]["busy_s"], "s")
        m["cli.write_reports.busy_s"] = (t["cli.write_reports"]["busy_s"], "s")
        m["cli.cells"] = (cells, "count")
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
