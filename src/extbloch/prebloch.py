"""Formal sums of cover points and the relation generators among them.

Every relation constructor returns the formal sum LHS - RHS of the stated
identity; applying the lifted Rogers evaluation to the result must give
zero mod 4 pi^2 (within floating tolerance).  Equality checks here are
always images under that evaluation: no normal-form decision procedure
for the quotient group itself is attempted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .cover import (
    FlattenedFT,
    FlattenedNumber,
    _records,
    canonicalize,
    flattened,
    is_flattened_ft,
    serialize_flattened,
)
from .dilog import (PI, CutPoint, Side, _as_complex, _check_type, _field, _fields, _flip, _index, _integer, _iterable,
                    arg_cut, as_cut_point)
from .rogers import CmodZ2, _lhat_sum


@dataclass(frozen=True, init=False, slots=True)
class _Combination:
    # Terms (coeff, ...) of _width fields in one normal form: each is read once,
    # its width checked here, then one _keyed(terms) generator a sum yields its
    # (plain key, checked term) and skips one zero by itself; like keys merge
    # into the first-seen term, zero sums drop, and terms sort on the key.
    terms: tuple = ()

    def __init__(self, terms: Iterable[tuple] = ()) -> None:
        width = self._width
        merged: dict[tuple, tuple] = {}
        for key, term in self._keyed(t if t.__class__ is tuple and len(t) == width else _fields(t, "terms", width)
                                     for t in _iterable(terms, "terms")):
            seen = merged.get(key)
            merged[key] = term if seen is None else (seen[0] + term[0],) + seen[1:]
        object.__setattr__(self, "terms", tuple([term for term in map(merged.__getitem__, sorted(merged)) if term[0]]))

    def __add__(self, other):
        return type(self)(self.terms + other.terms) if isinstance(other, type(self)) else NotImplemented

    def __neg__(self):
        return type(self)((-term[0],) + term[1:] for term in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def is_empty(self) -> bool:
        return not self.terms


class FormalSum(_Combination):
    """An integer linear combination of canonical cover points.

    Every sum, a derived one too, is normalized once, by the constructor it
    shares with ``bloch.WedgeExpr``: like terms merge into the first-seen
    point on the plain key (Re z, Im z, side, p, q), not on FlattenedNumber,
    whose hash goes through CutPoint and Side; zero sums drop, and terms
    sort on that key, so equal sums compare equal structurally.
    """

    __slots__ = ()
    _width = 2

    @staticmethod
    def _keyed(terms: Iterator[tuple]) -> Iterator[tuple]:
        for term in terms:
            coeff, gen = term
            if coeff.__class__ is not int or gen.__class__ is not FlattenedNumber:  # an exact pair is kept as given
                _check_type(gen, FlattenedNumber, "each generator of terms")
                term = (_integer(coeff, "coefficient"), gen)
            base = gen.base
            z = base.z
            yield (z.real, z.imag, base.side._value_, gen.p, gen.q), term

    @classmethod
    def single(cls, gen: FlattenedNumber, coeff: int = 1) -> "FormalSum":
        return cls(((coeff, gen),))

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        if not isinstance(other, FormalSum):
            return NotImplemented
        return FormalSum(self.terms + tuple((-c, g) for c, g in other.terms))

    def __rmul__(self, k: int) -> "FormalSum":
        return FormalSum((k * c, g) for c, g in self.terms) if isinstance(k, int) else NotImplemented

    def __iter__(self):
        return iter(self.terms)

    def serialize(self) -> str:
        return "\n".join(f"{c} {serialize_flattened(g)}" for c, g in self.terms)

    @classmethod
    def parse(cls, text: str) -> "FormalSum":
        """Read a ``ccs`` file's records with any int coefficients; a name header is ignored."""
        def coeff(field: str) -> int:  # the rule is named for the field it reads
            return _field(field, int, "coefficient")
        return cls(tuple((c, f) for f, c in _records(text, coeff, "term")[1]))


def eval_lhat(s: FormalSum) -> CmodZ2:
    """Sum of coefficient times lifted-Rogers value, reduced mod 4 pi^2.

    The charts over one base point are adjacent in canonical term order.
    Each run of them is summed by four integer moments, C = sum c,
    P = sum c p, Q = sum c q and PQ = sum c p q, into one float combination
    of its point's pass, C R + pi i (Q Log z + P Log(1-z)) with the Rogers
    constant R = Li2 z + Log z Log(1-z)/2 - pi^2/6, and a lattice part
    -2 pi^2 PQ kept as an exact integer.  The whole pass runs where C or P
    is nonzero; where only Q is, Log z alone.  The float parts are added
    with compensated summation, and the lattice part, reduced mod 4, joins
    them once at the end; so k kappa_hat is exact for every int k.
    """
    _check_type(s, FormalSum, "s")
    return _lhat_sum(s.terms)


# ---------------------------------------------------------------------------
# relation generators
# ---------------------------------------------------------------------------

def five_term_element(t: FlattenedFT | Sequence[FlattenedNumber], tol: float = 1e-9) -> FormalSum:
    """The alternating five-term sum [z0] - [z1] + [z2] - [z3] + [z4]."""
    entries = tuple(_iterable(t, "t"))
    if not is_flattened_ft(entries, tol):
        raise ValueError(f"t is not a flattened five-term instance within tol {tol!r}")
    return FormalSum(tuple(((-1) ** k, entries[k]) for k in range(5)))


def _curly_terms(point: CutPoint, p: int, sign: int = 1) -> tuple:
    return ((sign, canonicalize(point, p=p, q=1)), (-sign, canonicalize(point, p=p, q=0)))


def curly(z: complex | CutPoint, p: int) -> FormalSum:
    """The q-independent difference {z; 2p} = [z; 2p, 2] - [z; 2p, 0]."""
    return FormalSum(_curly_terms(as_cut_point(z, "z"), p))


def _product_shift(arg_sum: float) -> int:
    if arg_sum <= -PI:
        return -1
    if arg_sum > PI:
        return 1
    return 0


def curly_product_relation(
    z: complex | CutPoint,
    p: int,
    w: complex | CutPoint,
    r: int,
) -> FormalSum:
    """{z;2p} + {w;2r} - {zw + 0i; 2(p + r + e)}, the multiplicative relation.

    The index shift e is -1, 0 or +1 according to whether Arg z + Arg w
    falls at or below -pi, in (-pi, pi], or above pi.  Products landing on
    a cut are read as the upper limit.
    """
    zp, wp = as_cut_point(z, "z"), as_cut_point(w, "w")
    p, r = _index(p, "p"), _index(r, "r")
    product = zp.z * wp.z
    if not cmath.isfinite(product):
        raise ValueError(f"the product zw is not finite for z = {zp.z!r}, w = {wp.z!r}")
    if product == 0:
        raise ValueError(f"the product zw underflowed to zero for z = {zp.z!r}, w = {wp.z!r}")
    if abs(product - 1.0) <= 1e-12:
        raise ValueError("zw = 1 is excluded (the product leaves the domain)")
    eps = _product_shift(arg_cut(zp) + arg_cut(wp))
    zw = as_cut_point(product)
    return FormalSum(_curly_terms(zp, p) + _curly_terms(wp, r) + _curly_terms(zw, p + r + eps, -1))


def cycle_relation(
    x: complex | CutPoint,
    y: complex | CutPoint,
    p0: int = 0,
    p1: int = 0,
    q0: int = 0,
    q1: int = 0,
    q2: int = 0,
) -> FormalSum:
    """The cycle relation obtained by cancelling two five-term instances.

    LHS - RHS of

        [x;2p0,2q0-2] - [x;2p0,2q0] - [y;2p1,2q1-2] + [y;2p1,2q1]
            = [y/x; 2(p1-p0+d), 2q2] - [y/x; 2(p1-p0+d), 2q2-2]

    where d is -1 / 0 / +1 as Arg y - Arg x is <= -pi / in (-pi, pi] /
    > pi.  The right-hand orientation is the one forced by subtracting
    five-term instances that share their last two entries.
    """
    xp, yp = as_cut_point(x, "x"), as_cut_point(y, "y")
    p0, p1, q0, q1, q2 = _index(p0, "p0"), _index(p1, "p1"), _index(q0, "q0"), _index(q1, "q1"), _index(q2, "q2")
    quotient = yp.z / xp.z
    if not cmath.isfinite(quotient):
        raise ValueError(f"the quotient y/x is not finite for x = {xp.z!r}, y = {yp.z!r}")
    if abs(quotient - 1.0) <= 1e-12 or quotient == 0:
        raise ValueError("x = y (or y/x degenerate) is excluded")
    delta = _product_shift(arg_cut(yp) - arg_cut(xp))
    r = p1 - p0 + delta
    qp = as_cut_point(quotient)
    return FormalSum((
        (1, canonicalize(xp, p=p0, q=q0 - 1)),
        (-1, canonicalize(xp, p=p0, q=q0)),
        (-1, canonicalize(yp, p=p1, q=q1 - 1)),
        (1, canonicalize(yp, p=p1, q=q1)),
        (-1, canonicalize(qp, p=r, q=q2)),
        (1, canonicalize(qp, p=r, q=q2 - 1)),
    ))


def index_relations(
    z: complex | CutPoint,
    p: int,
    q: int,
    p2: int,
    q2: int,
    kind: str,
) -> FormalSum:
    """The three index-shift relations; ``kind`` is "Q", "P" or "PQ".

    Q:  [z;2p,2(q-1)] - [z;2p,2q]   independent of q (compare at q, q2);
    P:  [z;2(p-1),2q] - [z;2p,2q]   independent of p (compare at p, p2);
    PQ: [z;2(p+1),2(q-1)] - [z;2p,2q] compared at (p2, q2) with the
        diagonal constraint p + q = p2 + q2.
    """
    point = as_cut_point(z, "z")
    p, q, p2, q2 = _index(p, "p"), _index(q, "q"), _index(p2, "p2"), _index(q2, "q2")
    _check_type(kind, str, "kind")
    kind = kind.upper()
    if kind == "Q":
        charts = ((p, q - 1), (p, q), (p, q2 - 1), (p, q2))
    elif kind == "P":
        charts = ((p - 1, q), (p, q), (p2 - 1, q), (p2, q))
    elif kind == "PQ":
        if p + q != p2 + q2:
            raise ValueError("the diagonal relation needs p + q = p2 + q2")
        charts = ((p + 1, q - 1), (p, q), (p2 + 1, q2 - 1), (p2, q2))
    else:
        raise ValueError(f"unknown index relation kind {kind!r}")
    signs = (1, -1, -1, 1)  # LHS - RHS, each a shifted chart minus a base chart
    return FormalSum(tuple((c, canonicalize(point, p=a, q=b)) for c, (a, b) in zip(signs, charts)))


_HALF = flattened(0.5 + 0.0j)


def _one_minus(point: CutPoint) -> tuple[complex, Side]:
    # 1 - (x +- 0i) = (1 - x) -+ 0i: the side flips on the boundary.
    return 1.0 - point.z, _flip(point.side)


def mirror_relation(z: complex | CutPoint, p: int = 0, q: int = 0) -> FormalSum:
    """[z;2p,2q] + [1-z;-2q,-2p] - 2 [1/2;0,0]."""
    point = as_cut_point(z, "z")
    given = canonicalize(point, p=p, q=q)
    mz, mside = _one_minus(point)
    try:
        image = canonicalize(mz, mside, p=-q, q=-p)
    except ValueError as err:  # 1 - z rounded onto 1
        raise ValueError(f"the mirror relation at z = {point.z!r} derives the coordinate {mz!r}: {err}") from None
    return FormalSum(((1, given), (1, image), (-2, _HALF)))


def kappa_hat(z: complex | CutPoint = 0.5 + 0.0j, p: int = 1) -> FormalSum:
    """The order-two torsion element {z; 2p} - {z; 2(p-1)}.

    Independent of the representative z and p; the default is the fixed
    choice z = 1/2, p = 1.  Its lifted-Rogers value is -2 pi^2, which is
    why it survives only until the transfer relation is imposed.
    """
    point = as_cut_point(z, "z")
    return FormalSum(_curly_terms(point, p) + _curly_terms(point, p - 1, -1))


def chi_hat(z: complex) -> FormalSum:
    """The multiplicative branch-correction homomorphism into formal sums.

    chi(1) = 0, chi(-1) is the order-two element, and otherwise
    chi(z) = {z^2 + 0i; 0} or {z^2 + 0i; 2} according to whether Arg z
    lies in (-pi/2, pi/2] or not.  Composing with the lifted Rogers
    evaluation gives 2 pi i Log z mod 4 pi^2.
    """
    z = _as_complex(z, "z")
    if z == 0:
        raise ValueError("chi is defined on nonzero numbers only")
    if z == 1:
        return FormalSum()
    if z == -1:
        return kappa_hat()
    square = z * z
    if square == 0:
        raise ValueError(f"z^2 underflowed to zero for z = {z!r}")
    if not cmath.isfinite(square):
        raise ValueError(f"z^2 is not finite for z = {z!r}")
    ph = arg_cut(z)
    p = 0 if (-PI / 2 < ph <= PI / 2) else 1
    return curly(as_cut_point(square), p)


def splitting(s: FormalSum) -> complex:
    """exp of the lifted evaluation divided by 2 pi i.

    Composing with chi recovers the identity on nonzero numbers.
    """
    return eval_lhat(s).split()


def root4(z: complex) -> complex:
    """The standard fourth root: the unique w with w^4 = z, Arg w in (-pi/4, pi/4]."""
    z = _as_complex(z, "z")
    if z == 0:
        raise ValueError("fourth root of zero is excluded")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"fourth root of the non-finite value {z!r}")
    # two principal square roots, full accuracy at every magnitude; -0.0j counts as +0j
    w = cmath.sqrt(cmath.sqrt(complex(z.real, z.imag or 0.0)))
    if abs(w.imag) > w.real:  # rounded past |Arg| = pi/4: the mirror image is as close
        w = complex(abs(w.imag), math.copysign(w.real, w.imag))
    return w


_I_POWER = (1 + 0j, 1j, -1 + 0j, -1j)


def _e12(n: int) -> complex:
    # e^(-i pi n / 12), a function of n mod 24: a large n, which would scale
    # the rounding of pi, is reduced; elements at small index bounds keep their bits
    return cmath.exp(-1j * PI * (n % 24 if abs(n) > 48 else n) / 12.0)


_CHI_E12 = chi_hat(cmath.exp(1j * PI / 12.0))  # symmetry 5's correction, built once


def symmetry_relation(z: complex, p: int, q: int, which: int) -> FormalSum:
    """The five reordering relations for Im z > 0, as LHS - RHS sums.

    Each relates [z;2p,2q] to the cover point over one of the other five
    cross-ratio orderings, with a chi correction term built from a fourth
    root.  Contract: the lifted evaluation of the result is zero.
    """
    z = _as_complex(z, "z")
    p, q = _index(p, "p"), _index(q, "q")
    which = _integer(which, "which")
    if not z.imag > 0.0:
        raise ValueError("these relations require Im z > 0")
    if which == 1:
        w, chart = 1.0 / z, (-p, p + q)
        corr = chi_hat(_I_POWER[p % 4] * root4(z))
    elif which == 2:
        w, chart = 1.0 - 1.0 / z, (-p - q, p)
        corr = chi_hat(_e12(1 - 6 * p) * root4(z))
    elif which == 3:
        w, chart = -z / (1.0 - z), (p + q, -q)
        corr = chi_hat(_e12(1 + 6 * q) * root4(z - 1.0))
    elif which == 4:
        w, chart = 1.0 / (1.0 - z), (q, -p - q)
        corr = chi_hat(_e12(2 + 6 * q) * root4(z - 1.0))
    elif which == 5:
        w, chart = 1.0 - z, (-q, -p)
        corr = _CHI_E12
    else:
        raise ValueError("which must be 1..5")
    try:
        main = flattened(w, *chart)
    except ValueError as err:  # w rounded onto 0 or 1, or beyond the range of a double
        raise ValueError(f"symmetry relation {which} at z = {z!r} derives the coordinate {w!r}: {err}") from None
    sign = 1 if which % 2 else -1  # odd: main + [z] - corr; even: main - [z] + corr
    terms = ((1, main), (sign, flattened(z, p, q))) + tuple((-sign * c, g) for c, g in corr.terms)
    return FormalSum(terms)
