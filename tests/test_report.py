"""Residual recorder: worst-value bookkeeping and the gated report it builds."""

import math

import pytest

from tracelab.errors import NonFiniteResidual
from tracelab.report import Recorder

TABLE = {"a": 1e-10, "b": 1e-10, "c": 1.0}


def test_keeps_worst_value_floored_at_zero():
    rec = Recorder("s")
    for value in (3e-12, 5e-12, 1e-12):
        rec.record("a", value)
    rec.record("b", -1.0)
    assert rec.worst == {"a": 5e-12, "b": 0.0}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("position", ["first", "last"])
def test_non_finite_value_sticks(bad, position):
    # max(0.0, nan) and max(2.0, nan) are both finite: a plain running max would drop the NaN
    values = [bad, 1.0, 2.0] if position == "first" else [1.0, 2.0, bad]
    rec = Recorder("s", "square", 4)
    for value in values:
        rec.record("a", value)
    assert not math.isfinite(rec.worst["a"])
    with pytest.raises(NonFiniteResidual, match="s:square:4 residual 'a'"):
        rec.report(TABLE)


def test_report_merges_overrides_and_keeps_recorded_gates():
    rec = Recorder("s", "interval", 1)
    rec.record("a", 1e-12)
    rec.record("b", 1e-12)
    rep = rec.report(TABLE, {"b": 1e-14, "elsewhere": 5.0}, {"k": 2.0})
    assert (rep.suite, rep.mesh, rep.n) == ("s", "interval", 1)
    assert rep.tolerances == {"a": 1e-10, "b": 1e-14}
    assert rep.verdicts == {"a": True, "b": False}
    assert not rep.passed
    assert rep.constants == {"k": 2.0}
