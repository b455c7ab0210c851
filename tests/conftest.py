"""Test-suite settings and shared fixtures.

Hypothesis keeps no example database, so a run never replays examples
saved by an earlier run in the same directory; regressions are pinned
with ``@example`` instead.
"""

import pytest
from hypothesis import settings

from extbloch import dilog

settings.register_profile("extbloch", database=None)
settings.load_profile("extbloch")


@pytest.fixture
def kernel_passes(monkeypatch):
    """The point of every kernel pass (``dilog._evaluate``) the test runs, in order."""
    points = []
    evaluate = dilog._evaluate

    def counting(kernel, point):
        points.append(point)
        return evaluate(kernel, point)

    monkeypatch.setattr(dilog, "_evaluate", counting)
    return points
