"""Test-suite settings.

Hypothesis keeps no example database, so a run never replays examples
saved by an earlier run in the same directory; regressions are pinned
with ``@example`` instead.
"""

from hypothesis import settings

settings.register_profile("extbloch", database=None)
settings.load_profile("extbloch")
