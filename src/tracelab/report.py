"""Result container shared by the verification suites and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class SuiteReport:
    """Named residuals, constants, and gated verdicts for one suite cell.

    ``mesh`` is the mesh kind ("-" for mesh-free cells) and ``n`` the
    refinement (0 when not applicable).  Verdicts are keyed by tolerance
    name; a verdict is True when the residual stayed at or below its gate.
    """

    suite: str
    mesh: str = "-"
    n: int = 0
    residuals: dict[str, float] = field(default_factory=dict)
    constants: dict[str, float] = field(default_factory=dict)
    tolerances: dict[str, float] = field(default_factory=dict)
    verdicts: dict[str, bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in self.residuals.items():
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"residual {name!r} must be finite and >= 0, got {value!r}")

    def gate(self) -> None:
        """Fill verdicts from residuals vs tolerances (shared names)."""
        for name, tol in self.tolerances.items():
            if name in self.residuals:
                self.verdicts[name] = bool(self.residuals[name] <= tol)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "mesh": self.mesh,
            "n": self.n,
            "residuals": dict(sorted(self.residuals.items())),
            "constants": dict(sorted(self.constants.items())),
            "tolerances": dict(sorted(self.tolerances.items())),
            "verdicts": dict(sorted(self.verdicts.items())),
            "passed": self.passed,
        }


def apply_overrides(defaults: dict[str, float], overrides: dict[str, float] | None) -> dict[str, float]:
    """Merge tolerance overrides into a default gate table.

    One override mapping serves every suite of a run, so names that belong to
    another suite's table are skipped here; the CLI rejects names that belong
    to no selected suite's table before any suite runs.
    """
    if not overrides:
        return dict(defaults)
    merged = dict(defaults)
    for name, value in overrides.items():
        if name in merged:
            merged[name] = value
    return merged
