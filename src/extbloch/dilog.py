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
  reads Log(-z) = Log z -+ i pi (in double near the left cut, its Im
  directly) and -Log(1-1/z) = Log(-z) - Log(1-z).
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
  bracket, near 1, in fixed point over the Bernoulli numbers, its length
  following |w|, and one product by w.

In high precision the whole pass runs on Python integers: a number is two
ints at a binary scale s, (re + i im) 2^-s, so a sum is two integer adds
and a product one multiply and one shift a part.  A pass picks s from its
point: 20 guard bits over the working precision of 50 digits, plus the
depth below 1 of the smallest part of a value the pass forms (tiny Re z or
Im z, |z| or |1-z| near 1, 1/z far out), so every part keeps its relative
accuracy.
The kernel sums its own constants on the same integers: pi by Machin's
formula, ln 2 and each table entry (on its first use) by the atanh and
atan series, and the Bernoulli numbers by their recurrence; no numerics
library is imported.  The precision mode, a context variable (so per
thread or asyncio task), picks the primitives; results are machine
complex either way.  A point's pass is whole: Log z, Log(1-z), and Li2 z
from those two logarithms at working precision, with the Rogers constant
R = Li2 z + Log z Log(1-z)/2 - pi^2/6; beyond 2**32 the far-out pass, where
Li2 z comes from its inversion form, formed in the mode's numbers and
rounded once, and R from its parts with the cancellation done exactly.  A
point's first read in a mode runs the pass, and its record is kept in the
point's ``_pass`` slot, stored only when complete.  Every value, ``li2`` and
``log_one_minus`` included, reads that record through one reader, except
where Log z alone is wanted (``principal_log``, ``log_param_l``, and a
Rogers sum over a point whose moments C and P vanish): that reader takes a
kept record's Log z, or one logarithm that it keeps nowhere.  Against
mpmath, Li2 is within 2e-15 relative error in double and 1e-15 in high
precision for |z| from 1e-300 to 1e300, on both sides of both cuts.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import islice
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


def _index(value, name: str) -> int:
    # a branch index: an int within 2**53 (beyond it, 2 pi i p is not exact), or an error naming it
    value = _integer(value, name)
    if abs(value) > 2**53:
        raise ValueError(f"branch index {name} is beyond 2**53 in magnitude")
    return value


def _field(text: str, kind: type, name: str):
    # a record's field read by int or float, or a ValueError naming the field
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name} {text!r} is not {'an integer' if kind is int else 'a number'}") from None


def _real(value, name: str) -> float:
    # an int or float value as a float, or an error naming it: a TypeError for
    # any other type, a ValueError for an int beyond the range of a double
    if not isinstance(value, (int, float)):
        raise TypeError(f"{name} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} {_int_text(value)} is beyond the range of a double") from None


def _check_tol(tol) -> None:
    # a finite tol >= 0: a NaN one makes every comparison false, an infinite one every one true
    if not 0 <= _real(tol, "tol") < math.inf:
        raise ValueError(f"tol must be >= 0, got {tol!r}")


def _as_complex(value, name: str) -> complex:
    # complex(value), or an error naming it: a ValueError for a number beyond
    # the range of a double (an int of 309 digits or more) or a malformed
    # string, a TypeError naming the argument for a value of another type
    try:
        return complex(value)
    except OverflowError:
        text = _int_text(value) if isinstance(value, int) else repr(value)
        raise ValueError(f"{text} is beyond the range of a double") from None
    except ValueError:
        raise ValueError(f"{name} {value!r} is not a number") from None
    except TypeError:
        raise TypeError(f"{name} must be a number, not {type(value).__name__}") from None


def _check_type(value, cls: type, name: str) -> None:
    if not isinstance(value, cls):  # a TypeError naming the argument
        raise TypeError(f"{name} must be a {cls.__name__}, not {type(value).__name__}")


def _iterable(value, name: str):
    # iter(value), or a TypeError naming the argument
    try:
        return iter(value)
    except TypeError:
        raise TypeError(f"{name} must be iterable, not {type(value).__name__}") from None


def _fields(term, name: str, width: int) -> tuple:
    # a term of the argument name as a tuple of width fields, or an error naming it;
    # an iterator is read at most width + 1 fields, a tuple or list is measured whole
    try:
        fields = tuple(term if isinstance(term, (tuple, list)) else islice(term, width + 1))
    except TypeError:
        raise TypeError(f"each term of {name} must be a tuple of {width} fields, "
                        f"not {type(term).__name__}") from None
    if len(fields) != width:
        raise ValueError(f"each term of {name} must be a tuple of {width} fields, got {len(fields)}")
    return fields


class _Kept:
    __slots__ = ("_pass",)  # the record of the point's kernel pass, not a field: see _run_pass


@dataclass(frozen=True, init=False, slots=True)
class CutPoint(_Kept):
    """A point of the closed cut plane: z together with a boundary side tag.

    Interior points must lie off both cuts; boundary points must sit exactly
    on an open cut.  The values 0 and 1 and non-finite z are excluded.
    """

    z: complex
    side: Side = Side.INTERIOR

    def __init__(self, z: complex, side: Side | str = Side.INTERIOR) -> None:
        # the checks, then the fields and an empty record slot stored without the frozen
        # setter; a -0.0 imaginary part is stored as +0.0, so Arg stays in (-pi, pi]
        if z.__class__ is not complex:
            z = _as_complex(z, "z")
        if side.__class__ is not Side:
            side = Side.coerce(side)
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
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "_pass", None)


def as_cut_point(value: complex | CutPoint, name: str = "value") -> CutPoint:
    """Coerce a bare complex number to a CutPoint.

    Real values on a cut are identified with their upper limit x + 0i,
    matching the convention used throughout for products and squares that
    land on a cut.  An error for a value that is no number names ``name``.
    """
    if isinstance(value, CutPoint):
        return value
    z = _as_complex(value, name)
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
_DPS: ContextVar[int | None] = ContextVar("extbloch_dps", default=None)  # None: double, 50: high


@functools.cache
def _high_arith() -> _Arith:
    # Built on the first high pass.  Fixed point at 2^-bits, 20 guard bits
    # over the 169 = round(51 log2 10) that carry 50 digits, holds the
    # constants, the tables and the sums of the series.  Each constant is
    # summed at 2^-wide and floored to 2^-bits.
    bits = 169 + 20
    one, wide = 1 << bits, bits + 32

    def odd_sum(p, q, sign):
        # atanh(p/q) (sign 1) or atan(p/q) (sign -1) at 2^-wide for |p/q| <= 1/2:
        # the terms (sign p^2/q^2)^k (p/q) / (2k+1) down to 2^-wide, at most
        # wide / 2 of them, each off by under 3 of 2^-wide: far below 2^-bits
        power, total, k, term_sign = (abs(p) << wide) // q, 0, 1, 1 if p > 0 else -1
        while power:
            total += term_sign * (power // k)
            power, k, term_sign = power * p * p // (q * q), k + 2, sign * term_sign
        return total

    pi_wide = 16 * odd_sum(1, 5, -1) - 4 * odd_sum(1, 239, -1)  # Machin's formula
    pi, ln2 = pi_wide >> wide - bits, 2 * odd_sum(1, 3, 1) >> wide - bits

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
            # each part the int quotient, rounded once: ldexp rounds to 53 bits,
            # then again below 2^-1022, and overflows on a part of over 1024 bits
            a, b, s = self.v
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

    # 1/(2k+1), highest k first, and the tables ln(j/2^8) = 2 atanh((j - 2^8)
    # / (j + 2^8)), j = 192 .. 384, and atan(j/2^8), j = 0 .. 256, past 2^8/3
    # as pi/4 - atan((2^8 - j) / (2^8 + j)), each entry summed on first use
    odd = [one // (2 * k + 1) for k in range(bits // 18 + 1, -1, -1)]
    logs, atans = {}, {}

    def ln_entry(j):
        return 2 * odd_sum(j - 256, j + 256, 1)

    def atan_entry(j):
        return odd_sum(j, 256, -1) if 3 * j <= 256 else (pi_wide >> 2) - odd_sum(256 - j, 256 + j, -1)

    def entry(table, j, fill):
        c = table.get(j)
        if c is None:
            c = table[j] = fill(j) >> wide - bits
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
        re = (((e - 2 * s) * ln2 + entry(logs, j, ln_entry)) << s - bits >> 1) + odd_series(
            (num << s) // den, s, 1)
        swap = abs(b) > abs(a)
        q, p = (abs(a), abs(b)) if swap else (abs(b), abs(a))
        j = ((q << 9) // p + 1) >> 1
        arg = (entry(atans, j, atan_entry) << s - bits) + odd_series(
            ((q << 8) - j * p << s) // ((p << 8) + j * q), s, -1)
        if swap:
            arg = (pi_s >> 1) - arg
        if a < 0:
            arg = pi_s - arg
        return Num((re, -arg if b < 0 or side is _BELOW else arg, s))  # the below side: -pi on the negative axis

    # The series' c_k = B_2k / (2k+1)!, about 2 (2 pi)^-2k / (2k+1): at |w| the terms
    # past k = bits / log2(4 pi^2 / |w|^2) are below 2^-bits, top = 34 at pi/3.
    # b_n = B_n / n! at 2^-wide from sum_(j <= n) b_j / (n+1-j)! = 0, where
    # b_0 = 1, b_1 = -1/2 and b_j = 0 for odd j > 1, over 1/m! at 2^-wide.
    # The floors of the recurrence below reach its sum multiplied by up to
    # |x|^top, |x| <= (pi/3)^2, which is below 2^5: well inside the 20 guard bits.
    top = 34
    inv = [1 << wide]
    for m in range(1, 2 * top + 2):
        inv.append(inv[-1] // m)
    evens = [1 << wide]  # b_0, b_2, b_4, ...
    for n in range(2, 2 * top + 1, 2):
        evens.append((inv[n] << wide - 1) - sum(b * inv[n + 1 - 2 * i] for i, b in enumerate(evens)) >> wide)
    coeffs = [evens[k] // (2 * k + 1) >> wide - bits for k in range(top, 0, -1)]

    def series(w):
        # Li2 = w (1 - w/4 + x P(x)), x = w^2, P(x) = sum c_k x^(k-1), at 2^-bits:
        # on |w| <= pi/3 the bracket is near 1 (at least 0.7), so its error of a
        # few 2^-bits is relative.  P takes two real products a step, b_j = c_(j+1)
        # + 2 Re(x) b_(j+1) - |x|^2 b_(j+2), x P = x b_0 - |x|^2 b_1; Im of the
        # bracket, Im w (2 Re w b_0 - 1/4), is at the scale of w.
        a, b, s = w.v
        wr, wi = a >> s - bits, b >> s - bits
        r2 = wr * wr + wi * wi  # |w|^2 2^(2 bits)
        xr = (wr * wr - wi * wi) >> bits
        s2, t = xr << 1, (r2 >> bits) ** 2 >> bits
        b0 = b1 = 0
        for c in coeffs[-(int(bits / (5.3 + 2 * bits - math.log2(r2 or 1))) + 2):]:
            b0, b1 = c + ((s2 * b0 - t * b1) >> bits), b0
        re = (1 << bits) - (wr >> 2) + ((xr * b0 - t * b1) >> bits)
        im = (b * (((wr * b0) >> bits - 1) - (1 << bits - 2))) >> bits
        return Num(((a * re >> bits) - (b * im >> s), (a * im >> s) + (b * re >> bits), s))

    zeta2 = pi_wide**2 // 6 >> 2 * wide - bits
    return _Arith(point, log, series, Num((zeta2, 0, bits)), Num((0, pi, bits)))


def set_precision(mode: str = "double") -> None:
    """Select the evaluation backend: "double" (default) or "high".

    In high mode each pass runs on Python integers at a binary scale of at
    least 50 digits, deeper for a point's tiny parts; logarithms reduce
    by tables of ln(j/2^8) and atan(j/2^8) to short series.  The kernel sums
    its constants itself (pi, ln 2, the table entries and the Bernoulli
    numbers), so the mode imports no numerics library.  Returned values are
    machine complex.  The mode holds for the calling thread (or asyncio
    task) only.
    """
    if mode not in ("double", "high"):
        raise ValueError(f"unknown precision mode {mode!r}")
    _DPS.set(50 if mode == "high" else None)


@contextmanager
def precision(mode: str) -> Iterator[None]:
    token = _DPS.set(_DPS.get())
    try:
        set_precision(mode)
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
        # opposite signs, -Log(1-1/z) = Log(-z) - Log(1-z).  Near the left cut
        # that difference keeps a double's Im only to ulp(pi): take it directly.
        if isinstance(log_z, complex) and c.imag and 4 * abs(c.imag) < -x:
            log_neg = complex(log_z.real, math.atan2(-c.imag, -x))
        else:
            log_neg = log_z - k.i_pi if c.imag > 0 or side is _ABOVE else log_z + k.i_pi
        return -k.series(log_neg - log_1mz) - k.zeta2 - 0.5 * log_neg * log_neg
    if x > 0.5 and 0.5 * nz <= x:
        # |1-z| <= 1: Li2(z) = pi^2/6 - Log z Log(1-z) - Li2(1-z), where
        # the series for 1-z runs in w = -Log z.
        return k.zeta2 - log_z * log_1mz - k.series(-log_z)
    return k.series(-log_1mz)  # |z| <= 1 and Re z <= 1/2: no map needed


# ---------------------------------------------------------------------------
# the kernel pass of a point, kept on the point
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


class _Pass(NamedTuple):
    # One point's whole pass in one precision mode (dps None for double, 50 for high), as
    # machine complex: Log z, Log(1-z), Li2 z and the Rogers constant
    # R = Li2 z + Log z Log(1-z)/2 - pi^2/6.
    dps: int | None
    log_z: complex
    log_1mz: complex
    li2: complex
    rogers: complex


def _run_pass(point: CutPoint) -> _Pass:
    # The miss path of _pass, and the one place that picks a mode's
    # primitives and runs a whole pass: Log z, Log(1-z) and Li2 z from the
    # two in the current mode (far out, the far-out pass).  Its record goes in
    # the point's _pass slot, keyed by the mode, only when complete, so a thread
    # of the same mode finds no record or a whole one.  The slot is no field:
    # ==, hash, repr, pickle and copy see z and side (an unpickled point: unset).
    dps = _DPS.get()
    z, side = point.z, point.side
    k = _DOUBLE if dps is None else _high_arith()
    zk = z if dps is None else k.point(z)
    if _far(z):
        # Out here the direct sum loses digits: the (Log -z)^2 / 2 in Li2 z
        # and in Log z Log(1-z) / 2 cancel.  Cancel them exactly: with
        # u = Log(-z), Log z = u + i pi s (s = +-1 on the upper or lower side)
        # and Log(1-z) = u + v, v = Log(1-1/z),
        # R = -Li2(1/z) - pi^2/3 + u v / 2 + (i pi s / 2) Log(1-z).
        li, inverse, u, v, log_z, log_1mz = map(complex, _far_out(k, zk, side))
        s = 1 if z.imag > 0 or side is _ABOVE else -1
        rogers = -inverse - PI_SQ / 3.0 + 0.5 * u * v + complex(0.0, 0.5 * PI * s) * log_1mz
    else:
        log_z, log_1mz = k.log(zk, side), _log_one_minus(k, zk, side)
        li = _li2_of(k, z, side, log_z, log_1mz)
        if dps is not None:
            li, log_z, log_1mz = complex(li), complex(log_z), complex(log_1mz)
        rogers = li + 0.5 * log_z * log_1mz - PI_SQ / 6.0
    object.__setattr__(point, "_pass", record := _Pass(dps, log_z, log_1mz, li, rogers))
    return record


def _pass(point: CutPoint) -> _Pass:
    # The reader of a point's whole pass: its record of the current mode, the
    # pass run first unless kept.
    record = getattr(point, "_pass", None)
    if record is None or record.dps != _DPS.get():
        record = _run_pass(point)
    return record


def _log_z(point: CutPoint) -> complex:
    # Log z alone, for the readers that need nothing more: the kept record's,
    # or one logarithm of the mode, the pass's own bits, kept nowhere.
    record, dps = getattr(point, "_pass", None), _DPS.get()
    if record is not None and record.dps == dps:
        return record.log_z
    if dps is None:
        return _DOUBLE.log(point.z, point.side)
    k = _high_arith()
    return complex(k.log(k.point(point.z), point.side))


# ---------------------------------------------------------------------------
# the public values, read from the point's pass
# ---------------------------------------------------------------------------

def principal_log(p: CutPoint | complex) -> complex:
    """Log z with Im in (-pi, pi], extended to the cut boundary by side."""
    return _log_z(as_cut_point(p, "p"))


def log_one_minus(p: CutPoint | complex) -> complex:
    """Log(1-z) on the closed cut plane.

    For z = x +- 0i with x > 1 the value 1-z sits on the negative axis
    approached from the opposite side, so Im = -pi above and +pi below.
    """
    return _pass(as_cut_point(p, "p")).log_1mz


def li2(p: CutPoint | complex) -> complex:
    """Principal branch of the dilogarithm on the closed cut plane.

    Bare complex input is accepted; values exactly on a cut are read as
    the upper limit x + 0i.  The points 0 and 1 (excluded from CutPoint)
    evaluate to their classical limits 0 and pi^2/6.
    """
    if not isinstance(p, CutPoint):
        z = _as_complex(p, "p")
        if z == 0:
            return 0.0 + 0.0j
        if z == 1:
            return complex(PI_SQ / 6.0, 0.0)
        p = as_cut_point(z)
    return _pass(p).li2
