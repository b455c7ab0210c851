"""Branch-tracked continuation of the Rogers function along paths in C minus {0, 1}.

A witness that the lifted Rogers value is well defined only mod 4 pi^2:
continuing the function along the commutator of the loops around 0 and 1
returns to the same cover chart on another sheet, one lattice period
4 pi^2 away.  The package reduces by that period exactly; the path
continuation that shows the period exists lives here, with the tests that
use it.  It reads the function on each chart through ``oracles.l_bar_at``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from extbloch.dilog import PI, Side, _integer
from extbloch.rogers import FOUR_PI_SQ
from oracles import l_bar_at


@dataclass(frozen=True)
class ContinuationResult:
    """Outcome of continuing the Rogers function along a closed polyline."""

    change: float            # total change of the continued value
    p: int                   # final left-cut winding chart
    q: int                   # final right-cut winding chart
    sheet: int               # accumulated 4 pi^2 multiples
    max_step_change: float   # largest |V_{k+1} - V_k| seen (continuity check)


def continue_rogers(path: Sequence[complex], p: int = 0, q: int = 0) -> ContinuationResult:
    """Continue the Rogers function continuously along a polyline.

    Vertices must avoid the cuts; each segment may cross the real axis at
    most once, and not at 0 or 1.  Crossing the left cut re-charts p (no
    value jump); crossing the right cut re-charts q and books a 4 pi^2 p
    sheet shift so the tracked value stays continuous.  The per-step change is recorded so a
    missed crossing (a genuine discontinuity) is detectable numerically.
    The total change is real; a path along which the imaginary part of the
    value moves is a ValueError.
    """
    pts = [complex(w) for w in path]
    if len(pts) < 2:
        raise ValueError("need at least two path vertices")
    for w in pts:
        if w.imag == 0.0:
            raise ValueError(f"path vertex {w} lies on the real axis")

    sheet = 0

    def tracked(w: complex, pp: int, qq: int, sh: int) -> complex:
        return l_bar_at(w, Side.INTERIOR, pp, qq) + FOUR_PI_SQ * sh

    start = tracked(pts[0], p, q, sheet)
    prev_val = start
    max_step = 0.0
    for w0, w1 in zip(pts, pts[1:]):
        if (w0.imag > 0.0) != (w1.imag > 0.0):
            t = w0.imag / (w0.imag - w1.imag)
            x_cross = w0.real + t * (w1.real - w0.real)
            if x_cross == 0.0 or x_cross == 1.0:
                raise ValueError(f"segment {w0!r} -> {w1!r} crosses the real axis "
                                 f"at the branch point {x_cross!r}")
            downward = w0.imag > 0.0
            if x_cross < 0.0:
                p += 1 if downward else -1
            elif x_cross > 1.0:
                sheet += p if downward else -p
                q += 1 if downward else -1
        val = tracked(w1, p, q, sheet)
        max_step = max(max_step, abs(val - prev_val))
        prev_val = val
    total = prev_val - start
    if not abs(total.imag) < 1e-9:
        raise ValueError(f"the continued value's imaginary part moved by {total.imag!r}; "
                         "change is defined only for a real total change")
    return ContinuationResult(
        change=total.real,
        p=p,
        q=q,
        sheet=sheet,
        max_step_change=max_step,
    )


def _circle(center: complex, radius: float, start_angle: float, steps: int, ccw: bool):
    sign = 1.0 if ccw else -1.0
    return [
        center + radius * complex(math.cos(start_angle + sign * 2 * PI * k / steps),
                                  math.sin(start_angle + sign * 2 * PI * k / steps))
        for k in range(1, steps + 1)
    ]


def commutator_monodromy(steps: int = 97) -> ContinuationResult:
    """Continue the Rogers function along the commutator of the two cut loops.

    The loop runs, based near 1/2: counterclockwise around 1, then around 0,
    then both reversed.  The continued value returns to the same cover chart
    but a different sheet; the change is exactly one lattice period 4 pi^2.
    An odd step count keeps all vertices off the real axis; ``steps`` must
    be at least 2.
    """
    steps = _integer(steps, "steps")
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps!r}")
    steps |= 1  # an even count rounds up to odd
    base = 0.5
    loop1_ccw = _circle(1.0, 0.5, PI, steps, ccw=True)
    loop0_ccw = _circle(0.0, 0.5, 0.0, steps, ccw=True)
    loop1_cw = _circle(1.0, 0.5, PI, steps, ccw=False)
    loop0_cw = _circle(0.0, 0.5, 0.0, steps, ccw=False)
    nudge = complex(base, 1e-9)  # base vertex kept off the axis
    path = [nudge]
    for loop in (loop1_ccw, loop0_ccw, loop1_cw, loop0_cw):
        path.extend(w if w.imag != 0.0 else w + 1e-12j for w in loop[:-1])
        path.append(nudge)
    return continue_rogers(path)
