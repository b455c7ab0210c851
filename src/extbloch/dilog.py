"""Principal-branch dilogarithm and logarithms on the doubly cut plane.

The working domain is the complex plane cut along (-inf, 0] and [1, inf).
Points on the open cuts are kept as two-sided boundary limits x + 0i and
x - 0i, tagged by a :class:`Side`.  All branch conventions follow the
principal argument in (-pi, pi]: approaching the negative real axis from
above gives Arg = +pi, from below Arg = -pi.

One kernel serves both precisions: one region map for Li2 ('t Hooft-Veltman)
over two per-mode primitives.

* The region map: reflection z -> 1-z where |1-z| <= 1 and Re z > 1/2,
  inversion z -> 1/z where |z| > 1 and |1-z| > 1, each carrying the side
  tag through the map.  Either way the remaining argument u has |u| <= 1
  and Re u <= 1/2, where w = -Log(1-u) has |w| <= pi/3 and the Bernoulli
  series Li2(u) = sum B_n w^(n+1) / (n+1)! converges like 36^-k.  A pass
  takes two logarithms, Log z and Log(1-z), in every region: inversion
  reads Log(-z) = Log z -+ i pi and -Log(1-1/z) = Log(-z) - Log(1-z).
* A side-aware logarithm: Log of a value together with the cut side that
  value sits on, or Log(1 + d) from d itself when the caller has d more
  exactly than 1 + d (d = -z for Log(1-z)).  The side decides +-pi on the
  negative axis.  In double it is ``cmath.log`` with the side carried as
  the sign of a zero imaginary part, and the modulus from ``log1p`` of d
  for |d| < 1/2; in high precision the argument is ``atan2`` of the parts
  (negative zero read as +0), and the logarithm forms 1 + d exactly and
  takes the modulus from ``mpf_log_hypot``, which redoes |v|^2 exactly
  where it cancels against 1.  Either way Log(1-z) keeps its digits for
  tiny z.
* The series: one unrolled Horner expression over literal coefficients in
  double; in high precision Li2 = w (1 - w/4 + w^2 P(w^2)) with the
  bracket, which is near 1, in fixed point over exact Bernoulli numbers,
  built per ``dps``, its length following |w|, and one rounded product by
  w.

In high precision the whole pass runs on a number type of the mode's own:
one raw mpc tuple of ``mpmath.libmp``, each operation rounded to nearest at
the mode's precision, so no pass reads or sets mpmath's global context.
The precision mode, a context variable (so per thread or asyncio task),
picks the primitives; results are machine complex either way, and mpmath
is imported on the first high-precision pass only.  A point's pass runs
in stages, each on demand and kept on the point per precision mode: Log z,
Log(1-z), and Li2 z from those two logarithms at working precision, with
the Rogers constant R = Li2 z + Log z Log(1-z)/2 - pi^2/6.  Beyond 2**32
the far-out pass is one stage: Li2 z comes from its inversion form, formed
in the mode's numbers and rounded once, and R from its parts with the
cancellation done exactly.  Every value, ``li2``, ``principal_log`` and
``log_one_minus`` included, reads the stages through one reader, which
runs only a stage the point does not keep: a branch logarithm one
logarithm, a Rogers value all three, a stage the point keeps none.
Against mpmath, Li2 is within 2e-15 relative error in double and
1e-15 in high precision for |z| from 1e-300 to 1e300, on both sides of
both cuts.
"""

from __future__ import annotations

import cmath
import enum
import math
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

PI = math.pi
TWO_PI_I = complex(0.0, 2.0 * PI)
PI_SQ = PI * PI


class Side(enum.Enum):
    """Which boundary limit a point on a cut represents."""

    INTERIOR = "i"
    ABOVE = "a"
    BELOW = "b"

    @classmethod
    def coerce(cls, value: "Side | str") -> "Side":
        if isinstance(value, Side):
            return value
        try:
            return _SIDE_ALIASES[str(value).strip().lower()]
        except KeyError:
            raise ValueError(f"unknown side tag {value!r}") from None


_SIDE_ALIASES = {tag: side for side in Side for tag in (side.value, side.name.lower())}  # "a", "above", ...

# Enum attribute lookups are slow on the hot path; bind the members once.
_ABOVE, _BELOW, _INTERIOR = Side.ABOVE, Side.BELOW, Side.INTERIOR


def on_cut(z: complex) -> bool:
    """True when z lies on one of the two open cuts (-inf,0) or (1,inf)."""
    return z.imag == 0.0 and (z.real < 0.0 or z.real > 1.0)


def _int_text(k: int) -> str:
    # an int for a message; str() itself refuses one of more than 4300 digits
    try:
        return str(k)
    except ValueError:
        return f"of {k.bit_length()} bits"


def _integer(value, name: str) -> int:
    # value as an int, through __index__ (so True is 1; int() would truncate 1.5), or a TypeError naming it
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} {value!r} is not an integer") from None


def _real(value, name: str) -> float:
    # an int or float value as a float, or an error naming it: a TypeError for
    # any other type, a ValueError for an int beyond the range of a double
    if not isinstance(value, (int, float)):
        raise TypeError(f"{name} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} {_int_text(value)} is beyond the range of a double") from None


def _as_complex(value) -> complex:
    # complex(value), with a number beyond the range of a double (an int
    # of 309 digits or more) named in a ValueError
    try:
        return complex(value)
    except OverflowError:
        text = _int_text(value) if isinstance(value, int) else repr(value)
        raise ValueError(f"{text} is beyond the range of a double") from None


def _trusted(cls, **fields):
    # The one path that skips a value type's checks: for values the package
    # derives from checked ones.  The fields are stored as given, so they
    # must already be what __post_init__ would store.
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, init=False)
class CutPoint:
    """A point of the closed cut plane: z together with a boundary side tag.

    Interior points must lie off both cuts; boundary points must sit exactly
    on an open cut.  The values 0 and 1 and non-finite z are excluded.
    """

    z: complex
    side: Side = Side.INTERIOR

    def __init__(self, z: complex, side: Side | str = Side.INTERIOR) -> None:
        # the checks, then the fields stored directly, without the frozen setter
        if z.__class__ is not complex:
            z = _as_complex(z)
        if side.__class__ is not Side:
            side = Side.coerce(side)
        fields = self.__dict__
        fields["z"], fields["side"] = _checked_z(z, side), side


def _checked_z(z: complex, side: Side) -> complex:
    # The rules of the cut plane, for CutPoint and for the parsers that build
    # points through _trusted: z as stored, with a -0.0 imaginary part read
    # as +0.0 (so Arg stays in (-pi, pi]), or a ValueError naming z.
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{z} is not a finite point of the cut plane")
    if z == 0 or z == 1:
        raise ValueError("0 and 1 are excluded from the cut plane")
    if side is _INTERIOR:
        if on_cut(z):
            raise ValueError(f"{z} lies on a cut; an interior point needs a side tag")
    elif not on_cut(z):
        raise ValueError(f"side tag {side.value!r} given but {z} is not on a cut")
    return z


def as_cut_point(value: complex | CutPoint) -> CutPoint:
    """Coerce a bare complex number to a CutPoint.

    Real values on a cut are identified with their upper limit x + 0i,
    matching the convention used throughout for products and squares that
    land on a cut.
    """
    if isinstance(value, CutPoint):
        return value
    z = _as_complex(value)
    return CutPoint(z, _ABOVE if on_cut(z) else _INTERIOR)


def _flip(side: Side) -> Side:
    # Negation and z -> 1 - z swap the half-planes, so the side flips.
    if side is _ABOVE:
        return _BELOW
    if side is _BELOW:
        return _ABOVE
    return _INTERIOR


# ---------------------------------------------------------------------------
# precision switch: the primitives of each mode
# ---------------------------------------------------------------------------

class _Arith(NamedTuple):
    """What a precision mode chooses; the code path is the same for both."""

    point: Callable[[complex], Any]        # the mode's number from a machine complex
    log: Callable[[Any, Side, bool], Any]  # log(x, side, one_plus): Log x, or Log(1 + x)
    series: Callable[[Any], Any]           # Li2(u) from w = -Log(1-u), |w| <= pi/3
    zeta2: Any                             # pi^2 / 6
    i_pi: Any                              # i pi


def _double_series(w: complex) -> complex:
    # w - w^2/4 + sum_k B_2k w^(2k+1) / (2k+1)!, Horner in w^2 over
    # B_2k / (2k+1)! for k = 1 .. 10: at |w| <= pi/3 the first omitted term
    # is below 1e-18 of the sum.
    w2 = w * w
    return w - 0.25 * w2 + w * w2 * (
        0.027777777777777776 + w2 * (-0.0002777777777777778 + w2 * (4.72411186696901e-06 + w2 * (
            -9.185773074661964e-08 + w2 * (1.8978869988971e-09 + w2 * (-4.0647616451442256e-11 + w2 * (
                8.921691020456452e-13 + w2 * (-1.9939295860721074e-14 + w2 * (
                    4.518980029619918e-16 + w2 * -1.0356517612181247e-17)))))))))


def _double_log(x: complex, side: Side, one_plus: bool = False) -> complex:
    # Log v for v = x, or v = 1 + x when the caller has d = v - 1 more
    # exactly than v (for v = 1 - z it is -z): for |d| < 1/2 the modulus is
    # then log1p(|v|^2 - 1) / 2 with |v|^2 - 1 = d.re (2 + d.re) + d.im^2.
    # Otherwise cmath.log, which itself takes log1p near |v| = 1 and scales
    # at either end of the double range, with the side as the sign of a zero
    # imaginary part.
    if one_plus:
        v = 1 + x
        dr, di = x.real, x.imag
        if dr * dr + di * di < 0.25:
            return complex(0.5 * math.log1p(dr * (2 + dr) + di * di), math.atan2(v.imag, v.real))
        x = v
    if not x.imag:
        x = complex(x.real, -0.0 if side is _BELOW and x.real < 0 else 0.0)
    return cmath.log(x)


_DOUBLE = _Arith(complex, _double_log, _double_series, PI_SQ / 6.0, complex(0.0, PI))
_HIGH: dict[int, _Arith] = {}
_DPS: ContextVar[int | None] = ContextVar("extbloch_dps", default=None)  # None: double


def _high_arith(dps: int) -> _Arith:
    arith = _HIGH.get(dps)
    if arith is None:
        from mpmath.libmp import (bernfrac, dps_to_prec, fone, from_float, from_int, from_man_exp, fzero,
                                  mpc_add, mpc_div, mpc_mul, mpc_mul_mpf, mpc_neg, mpc_sub, mpc_to_complex, mpf_add,
                                  mpf_atan2, mpf_div, mpf_log_hypot, mpf_mul, mpf_neg, mpf_pi, to_fixed)

        prec = dps_to_prec(dps)

        class Num:
            # The mode's number: one raw mpc tuple, each operation rounded
            # to prec bits, to nearest, as mpmath's mpc would round it.
            __slots__ = ("v",)

            def __init__(self, v):
                self.v = v

            def __add__(self, other):
                return Num(mpc_add(self.v, other.v, prec, "n"))

            def __sub__(self, other):
                return Num(mpc_sub(self.v, other.v, prec, "n"))

            def __mul__(self, other):
                return Num(mpc_mul(self.v, other.v, prec, "n"))

            def __rmul__(self, x: float):
                return Num(mpc_mul_mpf(self.v, from_float(x), prec, "n"))

            def __rtruediv__(self, x: float):
                return Num(mpc_div((from_float(x), fzero), self.v, prec, "n"))

            def __neg__(self):
                return Num(mpc_neg(self.v, prec, "n"))

            def __complex__(self):
                return mpc_to_complex(self.v, False, "n")

        # The series bracket 1 - w/4 + sum_k c_k w^2k runs on integers
        # scaled by 2^bits, 20 guard bits over the working precision.
        # c_k = B_2k / (2k+1)! is about 2 (2 pi)^-2k / (2k+1), so at |w|
        # the terms past k = bits ln 2 / (2 ln(2 pi / |w|)) are below
        # 2^-bits; the table holds the 2 dps / 3 + 1 that |w| = pi/3 needs.
        bits = prec + 20
        one = 1 << bits
        fracs = [(bernfrac(2 * k), math.factorial(2 * k + 1)) for k in range(2 * dps // 3 + 1, 0, -1)]
        coeffs = [(num << bits) // (den * fact) for (num, den), fact in fracs]
        cap = len(coeffs)
        bits_ln2 = bits * math.log(2)
        ln_scaled_4pi2 = math.log(4 * PI_SQ) + 2 * bits_ln2  # ln 4 pi^2 + ln 2^(2 bits)
        minus_pi = mpf_neg(mpf_pi(prec, "n"))

        def point(z):
            return Num((from_float(z.real), from_float(z.imag)))

        def log(x, side, one_plus=False):
            # The same Log on mpmath's raw (sign, man, exp, bc) tuples, where
            # a negative value has sign 1 and there is no -0.  1 + d is
            # exact (1 - z itself would round at prec bits), and
            # mpf_log_hypot redoes |v|^2 exactly where it cancels against 1.
            re, im = x.v
            if one_plus:
                re = mpf_add(fone, re, 0)
            arg = minus_pi if side is _BELOW and re[0] else mpf_atan2(im, re, prec, "n")
            return Num((mpf_log_hypot(re, im, prec, "n"), arg))

        def series(w):
            # Li2 = w (1 - w/4 + x P(x)), x = w^2, P(x) = sum c_k x^(k-1).
            # On |w| <= pi/3 the bracket is near 1 (at least 0.7), so its
            # absolute error of a few 2^-bits is also relative, and one
            # rounded product by w follows.  P's coefficients a_j = c_(j+1)
            # are real, so it takes two real products a step: b_j = a_j
            # + 2 Re(x) b_(j+1) - |x|^2 b_(j+2), P = b_0 - conj(x) b_1, and
            # x P = x b_0 - |x|^2 b_1.
            w = w.v
            wr, wi = to_fixed(w[0], bits), to_fixed(w[1], bits)
            r2 = wr * wr + wi * wi  # |w|^2 2^(2 bits)
            n = min(cap, math.ceil(bits_ln2 / (ln_scaled_4pi2 - math.log(r2 or 1))) + 1)
            xr, xi = (wr * wr - wi * wi) >> bits, (wr * wi) >> (bits - 1)
            s, t = xr << 1, (r2 >> bits) ** 2 >> bits
            b0 = b1 = 0
            for c in coeffs[-n:]:
                b0, b1 = c + ((s * b0 - t * b1) >> bits), b0
            re = one - (wr >> 2) + ((xr * b0 - t * b1) >> bits)
            im = ((xi * b0) >> bits) - (wi >> 2)
            return Num(mpc_mul(w, (from_man_exp(re, -bits), from_man_exp(im, -bits)), prec, "n"))

        wide = dps_to_prec(dps + 10)
        pi = mpf_pi(wide, "n")
        zeta2 = Num((mpf_div(mpf_mul(pi, pi, wide, "n"), from_int(6), wide, "n"), fzero))
        arith = _HIGH[dps] = _Arith(point, log, series, zeta2, Num((fzero, mpf_pi(prec, "n"))))
    return arith


def set_precision(mode: str = "double", dps: int = 50) -> None:
    """Select the evaluation backend: "double" (default) or "high".

    In high mode the primitives run through mpmath with at least ``dps``
    significant digits internally; returned values are machine complex.
    The mode holds for the calling thread (or asyncio task) only.
    """
    if mode not in ("double", "high"):
        raise ValueError(f"unknown precision mode {mode!r}")
    dps = _integer(dps, "dps") if mode == "high" else None
    if dps is not None and _real(dps, "dps") < 50:  # mpmath cannot take a dps beyond a double
        raise ValueError("high-precision mode requires dps >= 50")
    _DPS.set(dps)


def get_precision() -> tuple[str, int | None]:
    dps = _DPS.get()
    return ("double", None) if dps is None else ("high", dps)


@contextmanager
def precision(mode: str, dps: int = 50) -> Iterator[None]:
    token = _DPS.set(_DPS.get())
    try:
        set_precision(mode, dps)
        yield
    finally:
        _DPS.reset(token)


# ---------------------------------------------------------------------------
# the side-aware logarithm, and the dilogarithm from two of them
# ---------------------------------------------------------------------------

def _log_one_minus(k: _Arith, z, side: Side):
    # 1 - z lies on the other side of the axis from z.
    return k.log(-z, _flip(side), True)


def arg_cut(p: CutPoint | complex) -> float:
    """Principal argument, +pi / -pi on the two sides of (-inf, 0).

    A bare complex number reads the negative axis as its upper limit.
    """
    # atan2 never overflows (cmath.phase does on subnormal parts); a zero
    # imaginary part counts as +0, and the below side of (-inf, 0) is -pi.
    if isinstance(p, CutPoint):
        z, below = p.z, p.side is _BELOW
    else:
        z, below = complex(p), False
    if below and z.real < 0:
        return -PI
    return math.atan2(z.imag or 0.0, z.real)


def _li2_of(k: _Arith, c: complex, side: Side, log_z, log_1mz):
    # Li2 z from Log z and Log(1-z) of the mode; c is z as a machine complex,
    # for the region test (a high precision z holds a double).
    x = c.real
    nz = x * x + c.imag * c.imag
    if nz > 1 and 0.5 * nz > x:
        # |z| > 1 and |1-z| > 1: Li2(z) = -Li2(1/z) - pi^2/6 - Log(-z)^2 / 2,
        # with Log(-z) = Log z -+ i pi (minus on the upper half-plane and the
        # above side) and, as 1 - z = (-z)(1 - 1/z) with the two arguments of
        # opposite signs, -Log(1-1/z) = Log(-z) - Log(1-z).
        log_neg = log_z - k.i_pi if c.imag > 0 or side is _ABOVE else log_z + k.i_pi
        return -k.series(log_neg - log_1mz) - k.zeta2 - 0.5 * log_neg * log_neg
    if x > 0.5 and 0.5 * nz <= x:
        # |1-z| <= 1: Li2(z) = pi^2/6 - Log z Log(1-z) - Li2(1-z), where
        # the series for 1-z runs in w = -Log z.
        return k.zeta2 - log_z * log_1mz - k.series(-log_z)
    return k.series(-log_1mz)  # |z| <= 1 and Re z <= 1/2: no map needed


# ---------------------------------------------------------------------------
# the kernel stages of a point, kept on the point
# ---------------------------------------------------------------------------

def _far_out(k: _Arith, z, side: Side):
    # Li2 z, Li2(1/z), Log(-z), Log(1-1/z), Log z and Log(1-z) in the mode's
    # numbers, for |z| > 2**32: Li2(1/z) is the series in -Log(1-1/z), and
    # Li2 z = -Li2(1/z) - pi^2/6 - Log(-z)^2 / 2; -z and 1/z lie on the
    # other side of the axis from z.  The chart formula needs Log(1-1/z) to
    # absolute accuracy, which the difference of two logarithms of size
    # log |z| would not give, so Log(1-z) = Log(-z) + Log(1-1/z).  Log z is
    # taken directly: Log(-z) +- i pi would cancel near the right cut.
    flipped = _flip(side)
    log_1m_inv = _log_one_minus(k, 1 / z, flipped)
    inverse, log_neg = k.series(-log_1m_inv), k.log(-z, flipped)
    li = -inverse - k.zeta2 - 0.5 * log_neg * log_neg
    return li, inverse, log_neg, log_1m_inv, k.log(z, side), log_neg + log_1m_inv


_FAR = 2.0**32


def _far(z: complex) -> bool:
    # beyond 2**32 in |Re z| or |Im z|, a pass takes the far-out form
    return not (-_FAR <= z.real <= _FAR and -_FAR <= z.imag <= _FAR)


class _Stages:
    # The stages of one point's pass run so far in one precision mode (dps
    # None for double), read through _stages, each None until run: Log z and
    # Log(1-z) as machine complex (log_z, log_1mz) and in the mode's numbers
    # (x, v), and Li2 z (li2) and the Rogers constant R = Li2 z + Log z
    # Log(1-z)/2 - pi^2/6 (rogers) as machine complex; far out all but x, v.
    __slots__ = ("dps", "log_z", "log_1mz", "x", "v", "li2", "rogers")

    def __init__(self, dps: int | None) -> None:
        self.dps = dps
        self.log_z = self.log_1mz = self.x = self.v = self.li2 = self.rogers = None


def _run_stage(name: str, point: CutPoint) -> _Stages:
    # The miss path of _stages: run one stage of the point's pass in the
    # current mode (far out, the far-out pass in its place) and keep what it
    # gives on the point's stages: "log" Log z, "log1m" Log(1-z), "logs" both,
    # "li2" Li2 z from the two, taking whichever is not yet kept.  The one
    # place that picks a mode's primitives and runs them.  The stages live on
    # the point, keyed by the mode; equality, hashing and repr see z and side.
    dps = _DPS.get()
    z, side = point.z, point.side
    st = point.__dict__.get("_pass")
    if st is None or st.dps != dps:
        st = point.__dict__["_pass"] = _Stages(dps)
    k = _DOUBLE if dps is None else _high_arith(dps)
    zk = z if dps is None else k.point(z)
    if _far(z):
        # Out here the direct sum loses digits: the (Log -z)^2 / 2 in Li2 z
        # and in Log z Log(1-z) / 2 cancel.  Cancel them exactly: with
        # u = Log(-z), Log z = u + i pi s (s = +-1 on the upper or lower side)
        # and Log(1-z) = u + v, v = Log(1-1/z),
        # R = -Li2(1/z) - pi^2/3 + u v / 2 + (i pi s / 2) Log(1-z).
        st.li2, inverse, u, v, st.log_z, st.log_1mz = map(complex, _far_out(k, zk, side))
        s = 1 if z.imag > 0 or side is _ABOVE else -1
        st.rogers = -inverse - PI_SQ / 3.0 + 0.5 * u * v + complex(0.0, 0.5 * PI * s) * st.log_1mz
        return st
    # Another thread of the same mode may run a stage of the same point at
    # once: each field is stored after the one it implies (log_z before x,
    # log_1mz before v, li2 before rogers), so a field read as set is complete.
    x, v = st.x, st.v
    if x is None and name != "log1m":
        x = k.log(zk, side)
        st.log_z = x if dps is None else complex(x)
        st.x = x
    if v is None and name != "log":
        v = _log_one_minus(k, zk, side)
        st.log_1mz = v if dps is None else complex(v)
        st.v = v
    if name == "li2":
        li = _li2_of(k, z, side, x, v)
        st.li2 = li = li if dps is None else complex(li)
        st.rogers = li + 0.5 * st.log_z * st.log_1mz - PI_SQ / 6.0
    return st


def _stages(name: str, point: CutPoint) -> _Stages:
    # The one reader of a point's stages: those of the current mode, with
    # stage name run first unless kept.  rogers set means every slot is (far
    # out too); otherwise "log" needs x, "log1m" v, and "logs" both.
    st = point.__dict__.get("_pass")
    if st is None or st.dps != _DPS.get() or st.rogers is None and (
            name == "li2" or st.x is None and name != "log1m" or st.v is None and name != "log"):
        st = _run_stage(name, point)
    return st


# ---------------------------------------------------------------------------
# the public values, read from the point's stages
# ---------------------------------------------------------------------------

def principal_log(p: CutPoint | complex) -> complex:
    """Log z with Im in (-pi, pi], extended to the cut boundary by side."""
    return _stages("log", as_cut_point(p)).log_z


def log_one_minus(p: CutPoint | complex) -> complex:
    """Log(1-z) on the closed cut plane.

    For z = x +- 0i with x > 1 the value 1-z sits on the negative axis
    approached from the opposite side, so Im = -pi above and +pi below.
    """
    return _stages("log1m", as_cut_point(p)).log_1mz


def li2(p: CutPoint | complex) -> complex:
    """Principal branch of the dilogarithm on the closed cut plane.

    Bare complex input is accepted; values exactly on a cut are read as
    the upper limit x + 0i.  The points 0 and 1 (excluded from CutPoint)
    evaluate to their classical limits 0 and pi^2/6.
    """
    if not isinstance(p, CutPoint):
        z = _as_complex(p)
        if z == 0:
            return 0.0 + 0.0j
        if z == 1:
            return complex(PI_SQ / 6.0, 0.0)
        p = as_cut_point(z)
    return _stages("li2", p).li2
