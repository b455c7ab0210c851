"""Test-suite settings and shared fixtures.

Hypothesis keeps no example database, so a run never replays examples
saved by an earlier run in the same directory; regressions are pinned
with ``@example`` instead.
"""

import mpmath as mp
import pytest
from hypothesis import settings

from extbloch import cover, dilog, rogers
from extbloch.dilog import CutPoint

settings.register_profile("extbloch", database=None)
settings.load_profile("extbloch")


@pytest.fixture
def kernel_passes(monkeypatch):
    """Every kernel pass and every lone Log z the test runs, in order.

    Each entry is (kind, point): "pass" for a whole pass (``dilog._run_pass``)
    below 2^32, "far" for the far-out pass, and "log" for a read of Log z
    alone (``dilog._log_z``) that found no kept record of the current mode
    and so took one logarithm.
    """
    calls = []
    run_pass, log_z = dilog._run_pass, dilog._log_z

    def counting_pass(point):
        calls.append(("far" if dilog._far(point.z) else "pass", point))
        return run_pass(point)

    def counting_log_z(point):
        record = getattr(point, "_pass", None)
        if record is None or record.dps != dilog._DPS.get():
            calls.append(("log", point))
        return log_z(point)

    monkeypatch.setattr(dilog, "_run_pass", counting_pass)
    for module in (dilog, cover, rogers):  # each reader module binds _log_z at import
        monkeypatch.setattr(module, "_log_z", counting_log_z)
    return calls


def _counted(number, seen):
    # the mode's number for z, recording each 1 / z in seen
    class Counted(type(number)):
        __slots__ = ()

        def __rtruediv__(self, x):
            seen.append(("div", mp.mp.dps))
            return super().__rtruediv__(x)

    return Counted(getattr(number, "v", number))


@pytest.fixture
def kernel_primitives(monkeypatch):
    """The primitives the kernel takes while the test runs, in either mode.

    The list holds, in order, ("log", dps) for each logarithm and ("div",
    dps) for each 1 / z of a high-precision pass, with dps mpmath's
    process-wide precision at that call.
    """
    seen = []

    def recording(arith):
        def log(x, side, one_plus=False):
            seen.append(("log", mp.mp.dps))
            return arith.log(x, side, one_plus)

        return arith._replace(point=lambda z: _counted(arith.point(z), seen), log=log)

    high_arith = dilog._high_arith
    monkeypatch.setattr(dilog, "_DOUBLE", recording(dilog._DOUBLE))
    monkeypatch.setattr(dilog, "_high_arith", lambda: recording(high_arith()))
    return seen


@pytest.fixture
def pass_primitives(kernel_primitives):
    """The primitives of one point's kernel pass, in either precision mode.

    ``pass_primitives(point)`` runs the whole pass (``dilog._pass``) on a
    fresh copy of the CutPoint in the current mode and returns what
    ``kernel_primitives`` records of it, a double pass's 1 / z included.
    """
    seen = kernel_primitives

    def run(point):
        seen.clear()
        z = point.z if dilog._DPS.get() is not None else _counted(point.z, seen)  # a double pass takes z as it is
        fresh = object.__new__(CutPoint)  # unchecked: z may be a counting complex
        object.__setattr__(fresh, "z", z)
        object.__setattr__(fresh, "side", point.side)
        dilog._pass(fresh)
        return list(seen)

    return run
