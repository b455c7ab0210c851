"""Wedge images of formal sums and a necessary-condition vanishing check.

The wedge of the two branch logarithms is the obstruction map whose kernel
(modulo five-term images) is the group of interest.  The exterior square
of C over Z has torsion no floating-point computation can see, so the
check below is deliberately one-sided: a failed pairing certifies the
element is nonzero, while a pass is only a necessary condition and is
flagged as such in the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .cover import _log_params
from .dilog import _as_complex, _check_tol, _check_type, _integer
from .prebloch import FormalSum, _Combination
from .rogers import _coefficient_error


class WedgeExpr(_Combination):
    """Formal integer combination of wedge pairs of complex numbers.

    Normal form, the one ``prebloch.FormalSum`` has: no a ^ a terms, each
    pair ordered on the plain key (Re a, Im a, Re b, Im b) with
    antisymmetry absorbed into the coefficient, like terms merged into the
    first-seen pair, zero sums dropped, and terms sorted on that key.
    """

    __slots__ = ()
    _width = 3

    @staticmethod
    def _keyed(terms: Iterator[tuple]) -> Iterator[tuple]:
        for coeff, a, b in terms:
            coeff = coeff if coeff.__class__ is int else _integer(coeff, "coefficient")
            a = a if a.__class__ is complex else _as_complex(a, "wedge factor")
            b = b if b.__class__ is complex else _as_complex(b, "wedge factor")
            key_a, key_b = (a.real, a.imag), (b.real, b.imag)
            if key_a != key_b:  # a ^ a is zero by itself
                yield (key_a + key_b, (coeff, a, b)) if key_a <= key_b else (key_b + key_a, (-coeff, b, a))

    def pairing(self) -> float:
        """The real antisymmetric pairing sum c (Re a Im b - Im a Re b)."""
        total = 0.0
        comp = 0.0
        for c, a, b in self.terms:
            try:
                term = c * (a.real * b.imag - a.imag * b.real) - comp
            except OverflowError:  # c itself is beyond the range of a double
                raise _coefficient_error(c) from None
            new_total = total + term
            if not math.isfinite(new_total):  # |a| |b| beyond the largest double
                raise ValueError(f"the pairing is not finite at wedge pair ({a!r}, {b!r})")
            comp = (new_total - total) - term
            total = new_total
        return total


def nu_hat(s: FormalSum) -> WedgeExpr:
    """Wedge of the branch logarithms, summed over a formal sum."""
    _check_type(s, FormalSum, "s")
    return WedgeExpr(_log_params(s.terms))


@dataclass(frozen=True)
class NecessaryZeroCheck:
    """Outcome of the vanishing heuristic.

    ``certainty`` is "zero" (exact cancellation emptied the expression),
    "nonzero" (the pairing certifies a nonzero element), or
    "necessary-only" (the pairing vanished; the element may still be
    nonzero torsion invisible to floating point).
    """

    passed: bool
    certainty: str
    pairing: float

    def __bool__(self) -> bool:
        return self.passed


def wedge_necessary_zero(w: WedgeExpr, tol: float = 1e-9) -> NecessaryZeroCheck:
    """Test whether a wedge expression can be zero.

    False certifies the element is nonzero (the antisymmetric pairing, a
    well-defined functional on the wedge, does not vanish).  True is a
    necessary-condition pass only, unless exact cancellation emptied the
    expression outright.  ``tol`` must be a finite number >= 0.
    """
    _check_tol(tol)  # a negative or NaN tol certifies anything "nonzero", inf "necessary-only"
    _check_type(w, WedgeExpr, "w")
    if w.is_empty():
        return NecessaryZeroCheck(True, "zero", 0.0)
    pairing = w.pairing()
    passed = abs(pairing) <= tol
    certainty = "necessary-only" if passed else "nonzero"
    return NecessaryZeroCheck(passed, certainty, pairing)
