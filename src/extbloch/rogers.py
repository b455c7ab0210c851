"""The lifted Rogers dilogarithm and arithmetic in C mod 4 pi^2 Z.

The branch-corrected Rogers function on a cover point (z; 2p, 2q) is

    L(z; 2p, 2q) = Li2(z) + (Log z + 2 pi i p)(Log(1-z) + 2 pi i q)/2 - pi^2/6
                 = R + pi i (q Log z + p Log(1-z)) - 2 pi^2 p q,

with R = Li2 z + Log z Log(1-z)/2 - pi^2/6 the Rogers constant of the point.

As a function on the cut-plane charts it jumps by integer multiples of
4 pi^2 across the right cut, so its reduction mod 4 pi^2 descends to a
holomorphic function on the cover.  The lattice 4 pi^2 Z is real, so only
the real part ever gets reduced; the imaginary part (which carries
hyperbolic volume) is exact and never touched.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .cover import FlattenedNumber
from .dilog import PI, PI_SQ, TWO_PI_I, CutPoint, _as_complex, _check_type, _int_text, _log_z, _pass

FOUR_PI_SQ = 4.0 * PI_SQ
TWO_PI_SQ = 2.0 * PI_SQ
PI_I = complex(0.0, PI)
_DOUBLE_OVERFLOW = 2**1024 - 2**970  # the least int that rounds beyond the largest double


def reduce_into(x: float, period: float) -> float:
    """Reduce x into the half-open window (-period/2, period/2]."""
    r = math.remainder(x, period)
    if r <= -0.5 * period:
        r += period
    return r


def _coefficient_error(coeff: int) -> ValueError:
    # for a coefficient beyond the range of a double
    return ValueError(f"coefficient {_int_text(coeff)} is too large for double arithmetic")


@dataclass(frozen=True, init=False, slots=True)
class CmodZ2:
    """An element of C / 4 pi^2 Z in canonical form, Re in (-2 pi^2, 2 pi^2]."""

    value: complex

    def __init__(self, value: complex) -> None:
        v = value if value.__class__ is complex else _as_complex(value, "value")
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"{v!r} is not a finite value of C mod 4 pi^2")
        object.__setattr__(self, "value", complex(reduce_into(v.real, FOUR_PI_SQ), v.imag))

    def __add__(self, other: "CmodZ2") -> "CmodZ2":
        if not isinstance(other, CmodZ2):
            return NotImplemented
        return CmodZ2(self.value + other.value)

    def __sub__(self, other: "CmodZ2") -> "CmodZ2":
        if not isinstance(other, CmodZ2):
            return NotImplemented
        return CmodZ2(self.value - other.value)

    def __neg__(self) -> "CmodZ2":
        return CmodZ2(-self.value)

    def __rmul__(self, k: int) -> "CmodZ2":
        if not isinstance(k, int):
            return NotImplemented
        try:
            return CmodZ2(k * self.value)
        except OverflowError:  # int * complex converts k to a double
            raise _coefficient_error(k) from None

    def distance_to(self, other: "CmodZ2 | complex") -> float:
        """Modular distance: wrap-around at the window boundary is free."""
        w = other.value if isinstance(other, CmodZ2) else _as_complex(other, "other")
        if not cmath.isfinite(w):  # a NaN distance, or a math domain error from the reduction
            raise ValueError(f"other {other!r} is not a finite value of C mod 4 pi^2")
        d = self.value - w
        return math.hypot(reduce_into(d.real, FOUR_PI_SQ), d.imag)

    def magnitude(self) -> float:
        """Modular distance to zero."""
        v = self.value  # canonical: no wrap-around is nearer
        return math.hypot(v.real, v.imag)

    def split(self) -> complex:
        """exp(value / 2 pi i), well defined since exp(4 pi^2 / 2 pi i) = 1."""
        try:
            return cmath.exp(self.value / TWO_PI_I)
        except OverflowError:  # |split| = exp(Im value / 2 pi) is beyond the largest double
            raise ValueError(f"the split exp(value / 2 pi i) overflows at value {self.value!r}") from None


def reduce_mod_transfer(v: CmodZ2) -> complex:
    """The image in C / 2 pi^2 Z, real part reduced into (-pi^2, pi^2].

    This is the coarser normalization used when the transfer relation is
    imposed; the order-two torsion class dies under it.
    """
    _check_type(v, CmodZ2, "v")
    return complex(reduce_into(v.value.real, TWO_PI_SQ), v.value.imag)


# A report is one list of rows, each the text lines and the JSON fields of
# one datum; _render_text and _render_dict render every report.

def _row(label: str, text, **fields) -> tuple[list[str], dict]:
    # the line "label: text", none where text is None, and the JSON fields
    return ([] if text is None else [f"{label}: {text}"]), fields


def _render_text(rows) -> str:
    return "\n".join(line for lines, _ in rows for line in lines)


def _render_dict(rows) -> dict:
    return {key: value for _, fields in rows for key, value in fields.items()}


def _value_rows(value: complex, mod_2pi2_re: float, split: complex, mod_label: str) -> list:
    # a value mod 4 pi^2, its image mod 2 pi^2 (the text label is the caller's) and its split
    return [
        _row("value", f"{value.real!r} {value.imag!r}", value_re=value.real, value_im=value.imag),
        _row(mod_label, f"{mod_2pi2_re!r} {value.imag!r}", value_mod_2pi2_re=mod_2pi2_re),
        _row("split", f"{split.real!r} {split.imag!r}", split_re=split.real, split_im=split.imag),
    ]


def rogers_l_bar(f: FlattenedNumber) -> complex:
    """Unreduced branch-corrected Rogers value of a canonical cover point."""
    _check_type(f, FlattenedNumber, "f")
    return _linear(f.base, 1, f.p, f.q) - TWO_PI_SQ * (f.p * f.q)


def _linear(point: CutPoint, c: int, p: int, q: int) -> complex:
    # c R + pi i (q Log z + p Log(1-z)) over a point, R its Rogers constant:
    # the point's whole pass where c or p is nonzero, else Log z alone
    if not (c or p):
        return PI_I * (q * _log_z(point) + 0j)
    st = _pass(point)
    if c:
        return c * st.rogers + PI_I * (q * st.log_z + p * st.log_1mz)
    return PI_I * ((q * st.log_z if q else 0j) + p * st.log_1mz)


def _lhat_sum(terms: Sequence[tuple[int, FlattenedNumber]]) -> CmodZ2:
    # sum c L(z; 2p, 2q) mod 4 pi^2 over terms (c, (z; 2p, 2q)) whose charts
    # over one base point are adjacent, as in a FormalSum.  As
    # L = R + pi i (q Log z + p Log(1-z)) - 2 pi^2 p q, a run over one point
    # needs only its moments C, P, Q and PQ (see eval_lhat).
    total = comp = 0j
    lattice = 0  # in units of pi^2
    n = len(terms)
    i = 0
    try:
        while i < n:
            point = terms[i][1].base
            z, side = point.z, point.side
            c = p = q = pq = 0
            while i < n:  # the run over point; -0.0 == 0.0 gives equal values
                coeff, f = terms[i]
                base = f.base
                if base.z != z or base.side is not side:
                    break
                cp = coeff * f.p
                c += coeff
                p += cp
                q += coeff * f.q
                pq += cp * f.q
                i += 1
            lattice -= 2 * pq
            if not (c or p or q):
                continue
            term = _linear(point, c, p, q) - comp
            new_total = total + term
            comp = (new_total - total) - term
            total = new_total
    except OverflowError:  # int * complex converts a moment to a double
        big = max((coeff for coeff, _ in terms), key=abs)
        if abs(big) >= _DOUBLE_OVERFLOW:
            raise _coefficient_error(big) from None
        name, m = next((name, m) for name, m in (("C", c), ("P", p), ("Q", q)) if abs(m) >= _DOUBLE_OVERFLOW)
        raise ValueError(f"moment {name} = {_int_text(m)} of the charts over {point.z!r} (side {point.side.value}) "
                         "is too large for double arithmetic") from None
    # the lattice part reduced exactly, into -1, 0, 1 or 2 times pi^2
    return CmodZ2(complex(total.real + PI_SQ * ((lattice + 1) % 4 - 1), total.imag))


def rogers_l_hat(f: FlattenedNumber) -> CmodZ2:
    """The lifted Rogers dilogarithm, valued in C mod 4 pi^2 Z.

    The lattice part -2 pi^2 p q is reduced as an integer, so it is exact
    for every chart.
    """
    _check_type(f, FlattenedNumber, "f")
    return _lhat_sum(((1, f),))
