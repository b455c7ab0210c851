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
  for |d| < 1/2.  In high precision it is ln|v|^2 / 2 + i arg v from the
  exact |v|^2 and the parts, each reduced by a table of ln(j/2^8) or
  atan(j/2^8) to a few terms of a series in an argument below 2^-9.
  Either way Log(1-z) keeps its digits for tiny z.
* The series: one unrolled Horner expression over literal coefficients in
  double; in high precision Li2 = w (1 - w/4 + w^2 P(w^2)) with the
  bracket, near 1, in fixed point over exact Bernoulli numbers, its length
  following |w|, and one product by w.

In high precision the whole pass runs on Python integers: a number is two
ints at a binary scale s, (re + i im) 2^-s, so a sum is two integer adds
and a product one multiply and one shift a part.  A pass picks s from its
point: 20 guard bits over the working precision, plus the depth below 1 of
the smallest part of a value the pass forms (tiny Re z or Im z, |z| or
|1-z| near 1, 1/z far out), so every part keeps its relative accuracy.
mpmath, imported on the first high-precision pass only, supplies the
Bernoulli numbers, pi, ln 2 and each table entry on its first use; no pass
reads or sets its global context.  The precision mode, a context variable
(so per thread or asyncio task), picks the primitives; results are machine
complex either way.  A point's pass runs in stages, each on demand and kept
on the point per precision mode: Log z, Log(1-z), and Li2 z from those two
logarithms at working precision, with the Rogers constant R = Li2 z + Log z
Log(1-z)/2 - pi^2/6.  Beyond 2**32 the far-out pass is one stage: Li2 z
comes from its inversion form, formed in the mode's numbers and rounded
once, and R from its parts with the cancellation done exactly.  Every
value, ``li2``, ``principal_log`` and ``log_one_minus`` included, reads the
stages through one reader, which runs only a stage the point does not keep:
a branch logarithm one logarithm, a Rogers value all three, a stage the
point keeps none.  Against mpmath, Li2 is within 2e-15 relative error in
double and 1e-15 in high precision for |z| from 1e-300 to 1e300, on both
sides of both cuts.
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
        from mpmath.libmp import bernfrac, dps_to_prec, from_man_exp, mpf_atan, mpf_ln2, mpf_log, mpf_pi, to_fixed

        # Fixed point at 2^-bits, 20 guard bits over the working precision,
        # holds the constants, the tables and the sums of the series.
        bits = dps_to_prec(dps) + 20
        one, wide = 1 << bits, bits + 10
        pi, ln2 = to_fixed(mpf_pi(wide), bits), to_fixed(mpf_ln2(wide), bits)

        class Num:
            # The mode's number: v = (re, im, s) for (re + i im) 2^-s.  Two meet at
            # the larger scale, so a constant (at bits) meets a pass's exactly.
            __slots__ = ("v",)

            def __init__(self, v):
                self.v = v

            def __add__(self, other):
                (a, b, s), (c, d, t) = self.v, other.v
                return Num(((a << t - s) + c, (b << t - s) + d, t) if s < t else (a + (c << s - t), b + (d << s - t), s))

            def __sub__(self, other):
                (a, b, s), (c, d, t) = self.v, other.v
                return Num(((a << t - s) - c, (b << t - s) - d, t) if s < t else (a - (c << s - t), b - (d << s - t), s))

            def __mul__(self, other):
                (a, b, s), (c, d, t) = self.v, other.v
                low, high = (s, t) if s < t else (t, s)
                return Num(((a * c - b * d) >> low, (a * d + b * c) >> low, high))

            def __rmul__(self, x: float):
                (a, b, s), (n, d) = self.v, x.as_integer_ratio()
                return Num((a * n // d, b * n // d, s))

            def __rtruediv__(self, x: float):
                (a, b, s), (n, d) = self.v, x.as_integer_ratio()
                den = d * (a * a + b * b)
                return Num(((n * a << 2 * s) // den, (-n * b << 2 * s) // den, s))

            def __neg__(self):
                return -1.0 * self

            def __complex__(self):
                a, b, s = self.v
                try:
                    return complex(math.ldexp(a, -s), math.ldexp(b, -s))
                except OverflowError:  # a part of over 1024 bits: the int quotient, rounded once
                    return complex(a / (1 << s), b / (1 << s))

        def point(z):
            # z, exactly, at the scale of its pass: bits plus the depth of the
            # smallest part of a value the pass forms.  The parts of z, 1/z and
            # the arguments of z and 1-z lie above 2^(e_min - 2 max(e_max, 0))
            # for the exponents e of z's parts; Re Log v near |v| = 1 is about
            # |v|^2 - 1, taken exactly.
            x, y = z.real, z.imag
            (mx, ex), (my, ey) = math.frexp(x), math.frexp(y)
            lo, hi = (ex, ex) if not y else (ey, ey) if not x else (ex, ey) if ex < ey else (ey, ex)
            depth = (2 * hi if hi > 0 else 0) - lo
            near = x * x + y * y
            if abs(near - 1) < 2**-20 or abs(near - 2 * x) < 2**-20:  # |z| or |1-z| near 1: at 2^-1126
                u, w = int(mx * 2.0**53) << ex + 1073, int(my * 2.0**53) << ey + 1073
                for t in (u * u + w * w - (1 << 2252), u * u + w * w - (u << 1127)):
                    depth = max(depth, 2252 - t.bit_length()) if t else depth
            s = bits + depth
            return Num((int(mx * 2.0**53) << s + ex - 53, int(my * 2.0**53) << s + ey - 53, s))

        # 1/(2k+1), highest k first, and the tables ln(j/2^8), j = 192 .. 384,
        # and atan(j/2^8), j = 0 .. 256, each entry from mpmath on first use
        odd = [one // (2 * k + 1) for k in range(bits // 18 + 1, -1, -1)]
        logs, atans = {256: 0}, {0: 0}

        def entry(table, j, fill):
            c = table.get(j)
            if c is None:
                c = table[j] = to_fixed(fill(from_man_exp(j, -8), wide), bits)
            return c

        def odd_series(t, s, sign):
            # atanh t (sign 1) or atan t (sign -1) at scale s for |t| <= 2^-9:
            # t sum (sign t^2)^k / (2k+1), the sum at bits
            t2 = sign * ((t * t) >> 2 * s - bits)
            acc = 0
            for c in odd[-(bits // (bits - t2.bit_length()) + 1):]:
                acc = c + ((acc * t2) >> bits)
            return (t * acc) >> bits

        def log(x, side, one_plus=False):
            # Log v = ln|v|^2 / 2 + i arg v, v = x or 1 + x formed exactly.  n =
            # |v|^2 2^2s = 2^e m exactly, m in [3/4, 3/2), and ln m = ln c + 2
            # atanh((m - c) / (m + c)) at the nearest c = j/2^8 (c = 1 near |v| =
            # 1).  arg v: atan of the smaller part over the larger, reduced
            # alike, put in its octant; the side decides +-pi on the negative axis.
            a, b, s = x.v
            if one_plus:
                a += 1 << s
            pi_s = pi << s - bits
            n = a * a + b * b
            e = n.bit_length() - 1
            e += n >> e - 1 == 3
            j = (n >> e - 9) + 1 >> 1
            num, den = (n << 8) - (j << e), (n << 8) + (j << e)
            re = (((e - 2 * s) * ln2 + entry(logs, j, mpf_log)) << s - bits >> 1) + odd_series(
                (num << s) // den, s, 1)
            swap = abs(b) > abs(a)
            q, p = (abs(a), abs(b)) if swap else (abs(b), abs(a))
            j = ((q << 9) // p + 1) >> 1
            arg = (entry(atans, j, mpf_atan) << s - bits) + odd_series(
                ((q << 8) - j * p << s) // ((p << 8) + j * q), s, -1)
            if swap:
                arg = (pi_s >> 1) - arg
            if a < 0:
                arg = pi_s - arg
            return Num((re, -arg if b < 0 or side is _BELOW else arg, s))  # the below side: -pi on the negative axis

        # The series' c_k = B_2k / (2k+1)!, about 2 (2 pi)^-2k / (2k+1): at |w| the terms
        # past k = bits / log2(4 pi^2 / |w|^2) are below 2^-bits, 2 dps / 3 + 1 at pi/3.
        fracs = [(bernfrac(2 * k), math.factorial(2 * k + 1)) for k in range(2 * dps // 3 + 1, 0, -1)]
        coeffs = [(num << bits) // (den * fact) for (num, den), fact in fracs]

        def series(w):
            # Li2 = w (1 - w/4 + x P(x)), x = w^2, P(x) = sum c_k x^(k-1): on |w| <=
            # pi/3 the bracket is near 1 (at least 0.7), so its error of a few
            # 2^-bits is relative.  P takes two real products a step, b_j =
            # c_(j+1) + 2 Re(x) b_(j+1) - |x|^2 b_(j+2), x P = x b_0 - |x|^2 b_1;
            # Im of the bracket, Im w (2 Re w b_0 - 1/4), is at the scale of w.
            a, b, s = w.v
            wr, wi = a >> s - bits, b >> s - bits
            r2 = wr * wr + wi * wi  # |w|^2 2^(2 bits)
            xr = (wr * wr - wi * wi) >> bits
            s2, t = xr << 1, (r2 >> bits) ** 2 >> bits
            b0 = b1 = 0
            for c in coeffs[-(int(bits / (5.3 + 2 * bits - math.log2(r2 or 1))) + 2):]:
                b0, b1 = c + ((s2 * b0 - t * b1) >> bits), b0
            re = one - (wr >> 2) + ((xr * b0 - t * b1) >> bits)
            im = (b * (((wr * b0) >> bits - 1) - (one >> 2))) >> bits
            return Num(((a * re >> bits) - (b * im >> s), (a * im >> s) + (b * re >> bits), s))

        zeta2 = to_fixed(mpf_pi(wide), wide) ** 2 // 6 >> 2 * wide - bits
        arith = _HIGH[dps] = _Arith(point, log, series, Num((zeta2, 0, bits)), Num((0, pi, bits)))
    return arith


def set_precision(mode: str = "double", dps: int = 50) -> None:
    """Select the evaluation backend: "double" (default) or "high".

    In high mode each pass runs on Python integers at a binary scale of at
    least ``dps`` digits, deeper for a point's tiny parts; logarithms reduce
    by tables of ln(j/2^8) and atan(j/2^8) to short series, and mpmath
    supplies only Bernoulli numbers, pi, ln 2 and the table entries.
    Returned values are machine complex.  The mode holds for the calling
    thread (or asyncio task) only.
    """
    if mode not in ("double", "high"):
        raise ValueError(f"unknown precision mode {mode!r}")
    dps = _integer(dps, "dps") if mode == "high" else None
    if dps is not None and _real(dps, "dps") < 50:  # mpmath cannot take a dps beyond a double
        raise ValueError("high-precision mode requires dps >= 50")
    if dps is not None and not dps * 3.3219280948873626 < math.inf:  # nor one whose bits overflow (dps_to_prec)
        raise ValueError(f"dps {dps} is beyond what mpmath can turn into bits")
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
