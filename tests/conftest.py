"""Test-suite settings and shared fixtures.

Hypothesis keeps no example database, so a run never replays examples
saved by an earlier run in the same directory; regressions are pinned
with ``@example`` instead.
"""

import mpmath as mp
import pytest
from hypothesis import settings

from extbloch import dilog
from extbloch.dilog import CutPoint

settings.register_profile("extbloch", database=None)
settings.load_profile("extbloch")


@pytest.fixture
def kernel_stages(monkeypatch):
    """Every stage of a point's pass (``dilog._run_stage``) the test runs, in order.

    Each entry is (stage, point), the stage one of "log" (Log z), "log1m"
    (Log(1-z)), "logs" (both), "li2" (Li2 z, with the logarithms not yet
    kept) and "far" (the whole far-out pass).
    """
    stages = []
    run_stage = dilog._run_stage

    def counting(name, point):
        st = run_stage(name, point)
        stages.append(("far" if dilog._far(point.z) else name, point))
        return st

    monkeypatch.setattr(dilog, "_run_stage", counting)
    return stages


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
    monkeypatch.setattr(dilog, "_high_arith", lambda dps: recording(high_arith(dps)))
    return seen


@pytest.fixture
def pass_primitives(kernel_primitives):
    """The primitives of one point's kernel pass, in either precision mode.

    ``pass_primitives(point)`` reads the stages of a Rogers value
    (``dilog._stages("li2", ...)``) on a fresh copy of the CutPoint in the
    current mode and returns what ``kernel_primitives`` records of it, a
    double pass's 1 / z included.
    """
    seen = kernel_primitives

    def run(point):
        seen.clear()
        z = point.z if dilog._DPS.get() is not None else _counted(point.z, seen)  # a double pass takes z as it is
        dilog._stages("li2", dilog._trusted(CutPoint, z=z, side=point.side))
        return list(seen)

    return run
