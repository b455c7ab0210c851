"""Independent reference computations used as test oracles.

Everything here is deliberately built from different algorithms than the
package: plain power series, the Lobachevsky-function zeta expansion, and
mpmath's own polylog.  Oracle values are compared against package output,
never derived from it.  The one exception is ``l_bar_at``, the package's own
chart formula on a chart that no cover point holds.
"""

from __future__ import annotations

import cmath
import functools
import math

import mpmath as mp

from extbloch import rogers
from extbloch.dilog import CutPoint

PI = math.pi


def l_bar_at(z: complex, side, p: int, q: int) -> complex:
    """The package's unreduced Rogers value on an explicit chart, below side allowed.

    Not an oracle: it is ``rogers_l_bar``'s formula, read on a chart that a
    ``FlattenedNumber`` cannot hold.  It is what jumps by 4 pi^2 p across
    the right cut.
    """
    return rogers._linear(CutPoint(z, side), 1, p, q) - rogers.TWO_PI_SQ * (p * q)


def li2_series(z: complex, terms: int = 200) -> complex:
    """Direct power series sum_{k=1}^{terms} z^k / k^2 (needs |z| < 1)."""
    total = 0j
    power = 1 + 0j
    for k in range(1, terms + 1):
        power *= z
        total += power / (k * k)
    return total


def li2_reference(z: complex) -> complex:
    """Dilogarithm for off-cut z via direct series plus Euler reflection."""
    if abs(z) <= 0.6:
        return li2_series(z, 400)
    if abs(1 - z) <= 0.6:
        return PI * PI / 6 - cmath.log(z) * cmath.log(1 - z) - li2_series(1 - z, 400)
    return complex(mp.polylog(2, mp.mpc(z)))


def li2_mpmath(z: complex, side: str = "i", dps: int = 40) -> complex:
    """Dilogarithm from mpmath.polylog at ``dps`` digits, cut boundaries included.

    ``side`` is "a" or "b" for x + 0i or x - 0i on a cut.  The left cut
    needs nothing (Li2 is continuous there); on the right cut the value is
    Re Li2(x) +- i pi log x.
    """
    with mp.workdps(dps):
        return complex(_li2_mp(z, side))


def _li2_mp(z: complex, side: str):
    # Li2 at the working precision of the caller, kept as an mpc
    if side == "i" or z.real < 1.0:
        return mp.polylog(2, mp.mpc(z))
    x = mp.mpf(z.real)
    sign = 1 if side == "a" else -1
    return mp.mpc(mp.re(mp.polylog(2, x)), sign * mp.pi * mp.log(x))


def rogers_mpmath(z: complex, side: str, p: int, q: int, dps: int = 40) -> complex:
    """L(z; 2p, 2q) = Li2 z + (Log z + 2 pi i p)(Log(1-z) + 2 pi i q)/2 - pi^2/6.

    Every piece at ``dps`` digits in mpmath; on a cut, ``side`` ("a" or
    "b") picks the limit from above or below, which sets the sign of the
    imaginary part pi of Log z on (-inf, 0) and of Log(1-z) on (1, inf).
    """
    li, log_z, log_1mz = _rogers_pieces(z, side, dps)
    with mp.workdps(dps):
        two_pi_i = 2j * mp.pi
        a, b = log_z + two_pi_i * p, log_1mz + two_pi_i * q
        return complex(li + a * b / 2 - mp.pi**2 / 6)


def lhat_sum_mpmath(terms, dps: int = 80) -> complex:
    """sum c L(z; 2p, 2q) over terms (c, z, side, p, q), at ``dps`` digits,
    its real part reduced into (-2 pi^2, 2 pi^2] before rounding."""
    with mp.workdps(dps):
        two_pi_i = 2j * mp.pi
        total = mp.mpc(0)
        for c, z, side, p, q in terms:
            li, log_z, log_1mz = _rogers_pieces(z, side, dps)
            a, b = log_z + two_pi_i * p, log_1mz + two_pi_i * q
            total += c * (li + a * b / 2 - mp.pi**2 / 6)
        period = 4 * mp.pi**2
        re = total.real - period * mp.ceil(total.real / period - mp.mpf(1) / 2)
        return complex(float(re), float(total.imag))


@functools.lru_cache(maxsize=4096)
def _rogers_pieces(z: complex, side: str, dps: int):
    with mp.workdps(dps):
        w = mp.mpc(z)
        sign = 1 if side == "a" else -1
        if side == "i":
            log_z, log_1mz = mp.log(w), mp.log(1 - w)
        elif z.real < 0:
            log_z, log_1mz = mp.mpc(mp.log(-w.real), sign * mp.pi), mp.log(1 - w)
        else:
            log_z, log_1mz = mp.log(w), mp.mpc(mp.log(w.real - 1), -sign * mp.pi)
        return _li2_mp(z, side), log_z, log_1mz


def lobachevsky(theta: float, terms: int = 80) -> float:
    """Lobachevsky function via its zeta-coefficient expansion, |theta| < pi."""
    total = theta - theta * math.log(2 * abs(theta))
    for n in range(1, terms + 1):
        total += float(mp.zeta(2 * n)) / (n * (2 * n + 1)) * theta ** (2 * n + 1) / PI ** (2 * n)
    return total


def figure_eight_volume() -> float:
    """Volume of the figure-eight knot complement, two independent ways."""
    v1 = 4.0 * lobachevsky(PI / 6)   # 2 Cl2(pi/3)
    v2 = 6.0 * lobachevsky(PI / 3)
    assert abs(v1 - v2) < 1e-12
    return 0.5 * (v1 + v2)


def classical_rogers(x: float) -> float:
    """Rogers function on (0,1) from the series-based dilogarithm."""
    return (li2_reference(x) + 0.5 * math.log(x) * math.log(1 - x)).real - PI * PI / 6
