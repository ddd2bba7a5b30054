"""Result container shared by the verification suites and the CLI.

A suite records each residual it measures into a ``Recorder``, which keeps
the worst value seen per residual name.  ``Recorder.report`` then turns
those values into one gated ``SuiteReport``: the tolerance overrides are
merged into the suite's default gate table, only the gates whose residual
was recorded are kept, and each kept gate gets its verdict.  A NaN, an
infinity or a negative residual raises ``NonFiniteResidual``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NonFiniteResidual


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
                cell = f"{self.suite}:{self.mesh}:{self.n}"
                raise NonFiniteResidual(f"{cell} residual {name!r} must be finite and >= 0, got {value!r}")

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


@dataclass
class Recorder:
    """Worst value per residual name for one suite cell."""

    suite: str
    mesh: str = "-"
    n: int = 0
    worst: dict[str, float] = field(default_factory=dict)

    def record(self, name: str, value: float) -> None:
        """Keep the largest value seen for ``name``, floored at 0.

        A non-finite value is kept once seen (``max`` would drop a NaN), so
        the report built from it raises instead of passing.
        """
        value = float(value)
        old = self.worst.setdefault(name, 0.0)
        if math.isfinite(old) and (value > old or not math.isfinite(value)):
            self.worst[name] = value

    def report(
        self,
        defaults: dict[str, float],
        overrides: dict[str, float] | None = None,
        constants: dict[str, float] | None = None,
    ) -> SuiteReport:
        """Gate the recorded residuals against ``defaults`` merged with ``overrides``.

        One override mapping serves every suite of a run, so names outside
        ``defaults`` are skipped here; the CLI rejects names that belong to
        no selected suite's table before any suite runs.
        """
        overrides = overrides or {}
        tols = {name: overrides.get(name, tol) for name, tol in defaults.items() if name in self.worst}
        return SuiteReport(
            suite=self.suite,
            mesh=self.mesh,
            n=self.n,
            residuals=dict(self.worst),
            constants=dict(constants or {}),
            tolerances=tols,
            verdicts={name: bool(self.worst[name] <= tol) for name, tol in tols.items()},
        )
