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

from .cover import _log_params
from .dilog import _as_complex, _integer, _real
from .prebloch import FormalSum
from .rogers import _coefficient_error


@dataclass(frozen=True)
class WedgeExpr:
    """Formal integer combination of wedge pairs of complex numbers.

    Normal form: no a ^ a terms, each pair ordered lexicographically with
    antisymmetry absorbed into the coefficient, like terms merged.
    """

    terms: tuple[tuple[int, complex, complex], ...] = ()

    def __post_init__(self) -> None:
        # Merge and sort on the plain key (Re a, Im a, Re b, Im b); the
        # first-seen pair is kept.
        merged: dict[tuple[float, float, float, float], tuple[int, complex, complex]] = {}
        for coeff, a, b in self.terms:
            coeff = _integer(coeff, "coefficient")
            a = a if a.__class__ is complex else _as_complex(a)
            b = b if b.__class__ is complex else _as_complex(b)
            key_a, key_b = (a.real, a.imag), (b.real, b.imag)
            if key_a == key_b:
                continue
            if not key_a <= key_b:
                a, b, key_a, key_b = b, a, key_b, key_a
                coeff = -coeff
            key = key_a + key_b
            seen = merged.get(key)
            merged[key] = (coeff, a, b) if seen is None else (seen[0] + coeff, seen[1], seen[2])
        cleaned = tuple(term for term in map(merged.__getitem__, sorted(merged)) if term[0])
        object.__setattr__(self, "terms", cleaned)

    def __add__(self, other: "WedgeExpr") -> "WedgeExpr":
        return WedgeExpr(self.terms + other.terms) if isinstance(other, WedgeExpr) else NotImplemented

    def __neg__(self) -> "WedgeExpr":
        return WedgeExpr(tuple((-c, a, b) for c, a, b in self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def is_empty(self) -> bool:
        return not self.terms

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

    def serialize(self) -> str:
        return "\n".join(
            f"{c} {a.real!r} {a.imag!r} {b.real!r} {b.imag!r}" for c, a, b in self.terms
        )


def nu_hat(s: FormalSum) -> WedgeExpr:
    """Wedge of the branch logarithms, summed over a formal sum."""
    return WedgeExpr(_log_params(s.terms))


@dataclass(frozen=True)
class NecessaryZeroCheck:
    """Outcome of the vanishing heuristic.

    ``certainty`` is "zero" (exact cancellation emptied the expression),
    "nonzero" (the pairing certifies a nonzero element), or
    "necessary-only" (the pairing vanished; the element may still be
    nonzero torsion invisible to floating point).  ``merged_pairing``
    equals ``pairing`` and stays for API compatibility.
    """

    passed: bool
    certainty: str
    pairing: float
    merged_pairing: float

    def __bool__(self) -> bool:
        return self.passed


def wedge_necessary_zero(w: WedgeExpr, tol: float = 1e-9) -> NecessaryZeroCheck:
    """Test whether a wedge expression can be zero.

    False certifies the element is nonzero (the antisymmetric pairing, a
    well-defined functional on the wedge, does not vanish).  True is a
    necessary-condition pass only, unless exact cancellation emptied the
    expression outright.  ``tol`` must be a finite number >= 0.
    """
    if not 0 <= _real(tol, "tol") < math.inf:  # a negative or NaN tol certifies anything "nonzero", inf "necessary-only"
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    if w.is_empty():
        return NecessaryZeroCheck(True, "zero", 0.0, 0.0)
    pairing = w.pairing()
    passed = abs(pairing) <= tol
    certainty = "necessary-only" if passed else "nonzero"
    return NecessaryZeroCheck(passed, certainty, pairing, pairing)
