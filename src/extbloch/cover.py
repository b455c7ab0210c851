"""Points of the universal abelian cover of C minus {0,1} and five-term tuples.

A point of the cover is a cut-plane point together with two branch
integers.  We store the halved indices p, q; the conventional labels are
the even integers (2p, 2q), produced only for display.  The two branch
logarithms

    l = Log z + 2 pi i p        m = -Log(1-z) + 2 pi i q

are single-valued holomorphic functions of the cover point: crossing the
left cut rewrites (x - 0i; p, q) as (x + 0i; p - 1, q), crossing the right
cut rewrites (x - 0i; p, q) as (x + 0i; p, q - 1), and both rewritings
leave l and m unchanged.  Canonical form never stores a below-side tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .dilog import TWO_PI_I, CutPoint, Side, _checked_z, _point_pass, _trusted, as_cut_point


@dataclass(frozen=True)
class FlattenedNumber:
    """A cover point (z; 2p, 2q) in canonical (above-side) form."""

    base: CutPoint
    p: int = 0
    q: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.base, CutPoint):
            raise TypeError("base must be a CutPoint")
        if self.base.side is Side.BELOW:
            raise ValueError(
                "below-side points are not stored; build via canonicalize()"
            )
        _check_indices(self.p, self.q)

    @property
    def z(self) -> complex:
        return self.base.z

    @property
    def label(self) -> tuple[int, int]:
        """The even display indices (2p, 2q)."""
        return (2 * self.p, 2 * self.q)

    def __str__(self) -> str:
        side = "" if self.base.side is Side.INTERIOR else "+0i"
        return f"[{self.z}{side}; {2 * self.p}, {2 * self.q}]"


def _check_indices(p: int, q: int) -> None:
    if not isinstance(p, int) or not isinstance(q, int):
        raise TypeError("branch indices p, q must be integers")
    if abs(p) > 2**53 or abs(q) > 2**53:  # beyond 2**53, 2 pi i p is not exact
        name = "p" if abs(p) > 2**53 else "q"
        raise ValueError(f"branch index {name} is beyond 2**53 in magnitude")


def canonicalize(
    z: complex | CutPoint,
    side: Side | str = Side.INTERIOR,
    p: int = 0,
    q: int = 0,
) -> FlattenedNumber:
    """Build the canonical representative of a cover point.

    Below-side input is rewritten to the identified above-side point:
    p decreases by one on the left cut, q decreases by one on the right.
    """
    point = z if isinstance(z, CutPoint) else CutPoint(z, side)
    if point.side is Side.BELOW:
        if point.z.real < 0.0:
            p -= 1
        else:
            q -= 1
        point = _trusted(CutPoint, z=point.z, side=Side.ABOVE)
    _check_indices(p, q)
    return _trusted(FlattenedNumber, base=point, p=p, q=q)


def flattened(z: complex | CutPoint, p: int = 0, q: int = 0) -> FlattenedNumber:
    """Convenience constructor; bare reals on a cut become x + 0i."""
    return canonicalize(as_cut_point(z), p=p, q=q)


def log_param_l(f: FlattenedNumber) -> complex:
    """The branch logarithm Log z + 2 pi i p."""
    return _point_pass(f.base)[4] + TWO_PI_I * f.p


def log_param_m(f: FlattenedNumber) -> complex:
    """The branch logarithm -Log(1-z) + 2 pi i q."""
    return -_point_pass(f.base)[5] + TWO_PI_I * f.q


def _log_params(terms: Iterable[tuple[int, FlattenedNumber]]) -> tuple:
    # (c, l, m) for each term (c, f); one kernel pass per run of equal base points
    out = []
    base = None
    for coeff, f in terms:
        if f.base is not base and f.base != base:
            base = f.base
            _, _, _, _, log_z, log_1mz = _point_pass(base)
        out.append((coeff, log_z + TWO_PI_I * f.p, -log_1mz + TWO_PI_I * f.q))
    return tuple(out)


# ---------------------------------------------------------------------------
# five-term tuples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlattenedFT:
    """A five-tuple of cover points in the flattened five-term family."""

    entries: tuple[FlattenedNumber, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != 5:
            raise ValueError("a five-term tuple has exactly five entries")
        object.__setattr__(self, "entries", tuple(self.entries))

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, k: int) -> FlattenedNumber:
        return self.entries[k]


def ft_projections(x: complex, y: complex) -> tuple[complex, ...]:
    """The five cross-ratio coordinates generated by the pair (x, y)."""
    return (x, y, y / x, (1 - 1 / x) / (1 - 1 / y), (1 - x) / (1 - y))


def make_flattened_ft(
    x: complex,
    y: complex,
    p0: int = 0,
    p1: int = 0,
    q0: int = 0,
    q1: int = 0,
    q2: int = 0,
) -> FlattenedFT:
    """Construct a flattened five-term tuple over the all-upper-half chart.

    Requires every one of the five coordinates to have positive imaginary
    part (equivalently: Im y > 0 and x interior to the triangle 0, 1, y).
    Outside that chart some indices would need +-1 adjustments, which this
    constructor deliberately does not attempt; validate externally built
    tuples with :func:`is_flattened_ft` instead.
    """
    x = complex(x)
    y = complex(y)
    if x == 0 or y == 0 or x == 1 or y == 1 or x == y:
        raise ValueError("x, y must be distinct and avoid 0 and 1")
    coords = ft_projections(x, y)
    if not all(c.imag > 0.0 for c in coords):
        raise ValueError(
            "not in the all-upper-half five-term chart; this constructor "
            "does not apply the +-1 index adjustments other charts need"
        )
    indices = (
        (p0, q0),
        (p1, q1),
        (p1 - p0, q2),
        (p1 - p0 + q1 - q0, q2 - q1),
        (q1 - q0, q2 - q1 - p0),
    )
    return FlattenedFT(tuple(canonicalize(c, p=pk, q=qk) for c, (pk, qk) in zip(coords, indices)))


def is_flattened_ft(
    t: FlattenedFT | Sequence[FlattenedNumber],
    tol: float = 1e-9,
) -> bool:
    """Membership test for the flattened five-term family.

    Checks the projected cross-ratio equations together with the five
    linear identities among the branch logarithms

        l2 = l1 - l0            m3 = m2 - m1
        l3 = l1 - l0 + m1 - m0  m4 = m2 - m1 - l0
        l4 = m1 - m0

    which hold on the all-upper-half chart and extend to the whole
    connected family by analytic continuation of both sides.
    """
    entries = tuple(t)
    if len(entries) != 5 or not all(isinstance(e, FlattenedNumber) for e in entries):
        return False
    z = [e.z for e in entries]
    if abs(z[0] - z[1]) <= tol:
        return False
    try:
        expected = ft_projections(z[0], z[1])
    except ZeroDivisionError:
        return False
    if any(abs(z[k] - expected[k]) > tol for k in (2, 3, 4)):
        return False
    _, l, m = zip(*_log_params((1, e) for e in entries))
    residuals = (
        l[2] - (l[1] - l[0]),
        l[3] - (l[1] - l[0] + m[1] - m[0]),
        l[4] - (m[1] - m[0]),
        m[3] - (m[2] - m[1]),
        m[4] - (m[2] - m[1] - l[0]),
    )
    return all(abs(r) <= tol for r in residuals)


# ---------------------------------------------------------------------------
# textual serialization: "z_re z_im side p q"
# ---------------------------------------------------------------------------

def serialize_flattened(f: FlattenedNumber) -> str:
    return f"{f.z.real!r} {f.z.imag!r} {f.base.side.value} {f.p} {f.q}"


def parse_flattened(text: str) -> FlattenedNumber:
    parts = text.split()
    if len(parts) != 5:
        raise ValueError(
            f"expected 'z_re z_im side p q', got {len(parts)} fields: {text!r}"
        )
    return _from_fields(*parts)


_FIELD_SIDES = {"i": Side.INTERIOR, "a": Side.ABOVE}  # the serialized form stores no below side


def _from_fields(re_s: str, im_s: str, side_s: str, p_s: str, q_s: str,
                 points: dict | None = None) -> FlattenedNumber:
    # The checks and messages of CutPoint and FlattenedNumber, then the
    # trusted constructor.  ``points`` maps the point fields, and the checked
    # z (a z allows one side only), to the CutPoint built for them: equal
    # records share one point, and so one kernel pass.
    base = None if points is None else points.get((re_s, im_s, side_s))
    if base is None:
        side = _FIELD_SIDES.get(side_s)
        if side is None:
            raise ValueError(f"side must be 'i' or 'a', got {side_s!r}")
        z = _checked_z(complex(float(re_s), float(im_s)), side)
        base = _trusted(CutPoint, z=z, side=side)
        if points is not None:
            base = points[re_s, im_s, side_s] = points.setdefault(z, base)
    p, q = int(p_s), int(q_s)
    _check_indices(p, q)
    # _trusted written out, without its keyword packing: this runs once per record
    f = object.__new__(FlattenedNumber)
    fields = f.__dict__
    fields["base"], fields["p"], fields["q"] = base, p, q
    return f
