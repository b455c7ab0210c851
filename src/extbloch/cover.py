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

import cmath
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .dilog import (PI, TWO_PI_I, _ABOVE, _BELOW, CutPoint, Side, _as_complex, _check_tol, _check_type, _field,
                    _index, _iterable, _log_z, _pass, as_cut_point)


@dataclass(frozen=True, init=False, slots=True)
class FlattenedNumber:
    """A cover point (z; 2p, 2q) in canonical (above-side) form."""

    base: CutPoint
    p: int = 0
    q: int = 0

    def __init__(self, base: CutPoint, p: int = 0, q: int = 0) -> None:
        # the checks, then the fields stored directly, without the frozen
        # setter; ints p, q within 2**53 are tested inline first
        _check_type(base, CutPoint, "base")
        if base.side is _BELOW:
            raise ValueError("below-side points are not stored; build via canonicalize()")
        if not (p.__class__ is int and q.__class__ is int and -2**53 <= p <= 2**53 and -2**53 <= q <= 2**53):
            p, q = _index(p, "p"), _index(q, "q")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

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
    if point.side is _BELOW:  # FlattenedNumber checks the indices of any other point
        p, q = _index(p, "p"), _index(q, "q")
        if point.z.real < 0.0:
            p -= 1
        else:
            q -= 1
        point = CutPoint(point.z, _ABOVE)
    return FlattenedNumber(point, p, q)


def flattened(z: complex | CutPoint, p: int = 0, q: int = 0) -> FlattenedNumber:
    """Convenience constructor; bare reals on a cut become x + 0i."""
    return canonicalize(as_cut_point(z, "z"), p=p, q=q)


def log_param_l(f: FlattenedNumber) -> complex:
    """The branch logarithm Log z + 2 pi i p."""
    _check_type(f, FlattenedNumber, "f")
    return _log_z(f.base) + TWO_PI_I * f.p


def log_param_m(f: FlattenedNumber) -> complex:
    """The branch logarithm -Log(1-z) + 2 pi i q."""
    _check_type(f, FlattenedNumber, "f")
    return -_pass(f.base).log_1mz + TWO_PI_I * f.q


def _log_params(terms: Iterable[tuple[int, FlattenedNumber]]) -> Iterator[tuple]:
    # yields (c, l, m) for each term (c, f); the logarithms of one pass per
    # run of equal base points
    z = side = None
    for coeff, f in terms:
        base = f.base
        if base.z != z or base.side is not side:  # a new (z, side), compared without CutPoint.__eq__
            z, side = base.z, base.side
            st = _pass(base)
        yield coeff, st.log_z + TWO_PI_I * f.p, -st.log_1mz + TWO_PI_I * f.q


# ---------------------------------------------------------------------------
# five-term tuples
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False, slots=True)
class FlattenedFT:
    """A five-tuple of cover points in the flattened five-term family."""

    entries: tuple[FlattenedNumber, ...]

    def __init__(self, entries: Iterable[FlattenedNumber]) -> None:
        entries = tuple(_iterable(entries, "entries"))
        if len(entries) != 5:
            raise ValueError(f"a five-term tuple has exactly five entries, got {len(entries)}")
        for entry in entries:
            _check_type(entry, FlattenedNumber, "each of entries")
        object.__setattr__(self, "entries", entries)

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
    x, y = _as_complex(x, "x"), _as_complex(y, "y")
    p0, p1, q0, q1, q2 = _index(p0, "p0"), _index(p1, "p1"), _index(q0, "q0"), _index(q1, "q1"), _index(q2, "q2")
    if x == 0 or y == 0 or x == 1 or y == 1 or x == y:
        raise ValueError(f"x, y must be distinct and avoid 0 and 1, got x = {x!r}, y = {y!r}")
    coords = ft_projections(x, y)
    for k, c in enumerate(coords):
        if not cmath.isfinite(c):
            raise ValueError(f"the five-term coordinate z{k} = {c!r} of x = {x!r}, y = {y!r} is not finite")
        if not c.imag > 0.0:
            raise ValueError(
                f"the five-term coordinate z{k} = {c!r} of x = {x!r}, y = {y!r} is not in the upper "
                "half-plane, so (x, y) is outside the all-upper-half five-term chart; this "
                "constructor does not apply the +-1 index adjustments other charts need"
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
    connected family by analytic continuation of both sides.  Each is
    checked exactly in the indices: its float part, the same combination
    of Log z_k and -Log(1-z_k), must be 2 pi i j within tol for an integer
    j, and j plus the combination of the indices must be 0.  ``tol`` must
    be a finite number >= 0.
    """
    _check_tol(tol)
    entries = tuple(_iterable(t, "t"))
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
    # (float part, index part) of each identity, as the docstring has them
    passes = [_pass(e.base) for e in entries]
    l = [st.log_z for st in passes]
    m = [-st.log_1mz for st in passes]
    p = [e.p for e in entries]
    q = [e.q for e in entries]
    residuals = (
        (l[2] - l[1] + l[0], p[2] - p[1] + p[0]),
        (l[3] - l[1] + l[0] - m[1] + m[0], p[3] - p[1] + p[0] - q[1] + q[0]),
        (l[4] - m[1] + m[0], p[4] - q[1] + q[0]),
        (m[3] - m[2] + m[1], q[3] - q[2] + q[1]),
        (m[4] - m[2] + m[1] + l[0], q[4] - q[2] + q[1] + p[0]),
    )
    for r, n in residuals:
        j = round(r.imag / (2.0 * PI))
        if j + n or abs(complex(r.real, r.imag - 2.0 * PI * j)) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# textual serialization: "z_re z_im side p q"
# ---------------------------------------------------------------------------

def serialize_flattened(f: FlattenedNumber) -> str:
    _check_type(f, FlattenedNumber, "f")
    return f"{f.z.real!r} {f.z.imag!r} {f.base.side.value} {f.p} {f.q}"


def parse_flattened(text: str) -> FlattenedNumber:
    _check_type(text, str, "text")
    parts = text.split()
    if len(parts) != 5:
        raise ValueError(
            f"expected 'z_re z_im side p q', got {len(parts)} fields: {text!r}"
        )
    return _from_fields(*parts, {})


_FIELD_SIDES = {"i": Side.INTERIOR, "a": Side.ABOVE}  # the serialized form stores no below side


def _from_fields(re_s: str, im_s: str, side_s: str, p_s: str, q_s: str, points: dict) -> FlattenedNumber:
    # One record through the checked constructors.  ``points`` maps the point
    # fields, and the stored z (a z allows one side only), to the CutPoint
    # built for them: equal records share one point, and so one kernel pass.
    base = points.get((re_s, im_s, side_s))
    if base is None:
        side = _FIELD_SIDES.get(side_s)
        if side is None:
            raise ValueError(f"side must be 'i' or 'a', got {side_s!r}")
        point = CutPoint(complex(_field(re_s, float, "z_re"), _field(im_s, float, "z_im")), side)
        base = points[re_s, im_s, side_s] = points.setdefault(point.z, point)
    try:
        p, q = int(p_s), int(q_s)
    except ValueError:  # read again to name the field
        p, q = _field(p_s, int, "p"), _field(q_s, int, "q")
    return FlattenedNumber(base, p, q)


class TriangulationFormatError(ValueError):
    """Malformed or invalid record text; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


_SIGNS = {"+1": 1, "-1": -1, "1": 1}  # the usual coefficients, read without the caller's rule


def _records(text: str, coefficient: Callable[[str], int], word: str) -> tuple[str | None, list]:
    """The one ``name:`` header (None without one) and (shape, coeff) pairs of ``coeff z_re z_im side p q`` lines.

    ``#`` starts a comment.  ``coefficient`` reads a first field not in _SIGNS, and its name is that
    field's in messages; ``word`` numbers a record whose point fields are bad ("simplex 2: ...").
    """
    _check_type(text, str, "text")
    name, pairs, points = None, [], {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        parts = line.split()
        if not parts:
            continue
        if parts[0].startswith("name:"):
            if name is not None:
                raise TriangulationFormatError("a second name header; a file has at most one", lineno)
            if pairs:
                raise TriangulationFormatError("name header must precede all records", lineno)
            name = line.strip()[len("name:"):].strip()
            continue
        if len(parts) != 6:
            raise TriangulationFormatError(f"expected '{coefficient.__name__} z_re z_im side p q', "
                                           f"got {len(parts)} fields", lineno)
        try:
            coeff = _SIGNS.get(parts[0]) or coefficient(parts[0])  # no spelling in _SIGNS is 0
        except ValueError as exc:
            raise TriangulationFormatError(str(exc), lineno) from None
        try:
            shape = _from_fields(parts[1], parts[2], parts[3], parts[4], parts[5], points)
        except ValueError as exc:
            raise TriangulationFormatError(f"{word} {len(pairs) + 1}: {exc}", lineno) from None
        pairs.append((shape, coeff))
    return name, pairs
