"""Wedge images of formal sums and a necessary-condition vanishing check.

The wedge of the two branch logarithms is the obstruction map whose kernel
(modulo five-term images) is the group of interest.  The exterior square
of C over Z has torsion no floating-point computation can see, so the
check below is deliberately one-sided: a failed pairing certifies the
element is nonzero, while a pass is only a necessary condition and is
flagged as such in the result.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .cover import _log_params
from .dilog import PI
from .prebloch import FormalSum, _coefficient_error

_TAU = complex(0.0, 2.0 * PI)  # 2 pi i, the lattice step used in merging


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
            coeff = int(coeff)
            a = complex(a)
            b = complex(b)
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
        return WedgeExpr(self.terms + other.terms)

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
    "necessary-only" (every computable obstruction vanished; the element
    may still be nonzero torsion invisible to floating point).
    """

    passed: bool
    certainty: str
    pairing: float
    merged_pairing: float

    def __bool__(self) -> bool:
        return self.passed


def _merge_by_lattice(terms, tol: float):
    # Group a-values that differ by small integer multiples of 2 pi i,
    # splitting off the integer part onto an explicit 2 pi i column.
    # Detection stays tight even when the caller's tolerance is loose:
    # a sloppy residual budget is no license to misread lattice shifts.
    detect = min(tol, 1e-8)
    # Representatives are hashed by grid cell of (Re a, Im a mod 2 pi).
    # The predicate accepts a representative only within 2 pi detect of a
    # (cyclically in Im), give or take its rounding, below 1e-13 for
    # |k| <= 64.  So where a lies farther than reach = 4 pi detect + 2^-40
    # from its cell's edges, only its own cell can hold a match; elsewhere
    # the 3 x 3 cells around it are searched, and always beyond 2^53 and in
    # the last Im row, which takes the remainder of the period.  Cells are
    # 2^-shift wide, a power of two (so each index is an exact floor), at
    # least 64 pi detect and 2^-29, so the 3 x 3 search is the rare case.
    # The lowest-index match wins, as in a scan over all representatives.
    period = _TAU.imag
    span = 32.0 * period * detect
    shift = min(29, math.floor(-math.log2(span))) if span > 0 else 29
    scale = 2.0**shift
    reach = (2.0 * period * detect + 2.0**-40) * scale  # in cell widths
    far = 1.0 - reach
    rows = math.floor(period * scale)  # detect <= 1e-8: over 2^20 Im rows
    last = rows - 1
    floor = math.floor
    cells: dict[int, list[int]] = {}
    reps: list[complex] = []
    bucket: list[complex] = []
    tau_bucket = 0.0 + 0.0j
    for c, a, b in terms:
        if not (cmath.isfinite(a) and cmath.isfinite(b)):
            raise ValueError(f"wedge pair ({a!r}, {b!r}) is not finite")
        y = a.imag % period * scale
        row = floor(y)
        x = a.real
        if abs(x) < 2.0**53:
            x *= scale
            col = floor(x)
            inside = reach < x - col < far and reach < y - row < far and row < last
        else:  # every double is an integer (and x * scale may overflow)
            col, inside = int(x) << shift, False
        if inside:
            key = col * rows + row
            probe = (key,)
        else:  # lo and hi: the Im neighbours, wrapped
            row = min(row, last)
            key = col * rows + row
            lo = key - 1 if row else key + rows - 1
            hi = key + 1 if row + 1 < rows else key + 1 - rows
            probe = (lo - rows, key - rows, hi - rows, lo, key, hi, lo + rows, key + rows, hi + rows)
        best, k_best = len(reps), 0
        for cell in probe:
            for idx in cells.get(cell, ()):  # ascending indices
                if idx >= best:
                    break
                d = (a - reps[idx]) / _TAU
                k = round(d.real)
                if abs(k) <= 64 and abs(d - k) <= detect:
                    best, k_best = idx, k
                    break
        try:
            if best == len(reps):
                cells.setdefault(key, []).append(best)
                reps.append(a)
                bucket.append(c * b)
            else:
                bucket[best] += c * b
                tau_bucket += c * k_best * b
        except OverflowError:  # c, or c k on the 2 pi i column, is beyond the range of a double
            raise _coefficient_error(c) from None
    merged = list(zip(reps, bucket))
    if tau_bucket != 0:
        merged.append((_TAU, tau_bucket))
    return merged


def wedge_necessary_zero(w: WedgeExpr, tol: float = 1e-9) -> NecessaryZeroCheck:
    """Test whether a wedge expression can be zero.

    False certifies the element is nonzero (the antisymmetric pairing, a
    well-defined functional on the wedge, does not vanish).  True is a
    necessary-condition pass only, unless exact cancellation emptied the
    expression outright.
    """
    if w.is_empty():
        return NecessaryZeroCheck(True, "zero", 0.0, 0.0)
    pairing = w.pairing()
    merged = _merge_by_lattice(w.terms, tol)
    merged_pairing = 0.0
    for a, b in merged:
        merged_pairing += a.real * b.imag - a.imag * b.real
        if not math.isfinite(merged_pairing):
            raise ValueError(f"the merged pairing is not finite at a-value {a!r} (b {b!r})")
    passed = abs(pairing) <= tol and abs(merged_pairing) <= tol
    certainty = "necessary-only" if passed else "nonzero"
    return NecessaryZeroCheck(passed, certainty, pairing, merged_pairing)
