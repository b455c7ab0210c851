import cmath
import dataclasses
import io
import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from extbloch import cover
from extbloch.cover import (
    FlattenedFT,
    FlattenedNumber,
    canonicalize,
    flattened,
    ft_projections,
    is_flattened_ft,
    log_param_l,
    log_param_m,
    make_flattened_ft,
    parse_flattened,
    serialize_flattened,
)
from extbloch.dilog import TWO_PI_I, CutPoint, Side, log_one_minus, precision, principal_log
from extbloch.prebloch import five_term_element

PI = math.pi


def sample_ftplus_pair(rng):
    while True:
        y = complex(rng.uniform(-2, 3), rng.uniform(0.1, 3.0))
        s, t = sorted((rng.uniform(0, 1), rng.uniform(0, 1)))
        bary = (s, t - s, 1 - t)
        if min(bary) < 0.05:
            continue
        return bary[1] + bary[2] * y, y


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_canonicalize_left_cut_example():
    f = canonicalize(-2 + 0j, Side.BELOW, p=3, q=0)
    assert f.base.side is Side.ABOVE
    assert (f.p, f.q) == (2, 0)


def test_canonicalize_right_cut_example():
    f = canonicalize(2 + 0j, "below", p=0, q=5)
    assert f.base.side is Side.ABOVE
    assert (f.p, f.q) == (0, 4)


def test_canonicalize_interior_unchanged():
    f = canonicalize(0.5 + 0.5j, Side.INTERIOR, p=1, q=1)
    assert f == FlattenedNumber(CutPoint(0.5 + 0.5j), 1, 1)


def test_canonicalize_rejects_bad_points():
    with pytest.raises(ValueError):
        canonicalize(1 + 0j)
    with pytest.raises(ValueError):
        canonicalize(0.5 + 0j, Side.ABOVE)


def test_flattened_number_never_stores_below():
    with pytest.raises(ValueError):
        FlattenedNumber(CutPoint(-2 + 0j, Side.BELOW), 0, 0)


def test_flattened_number_base_must_be_a_cut_point():
    with pytest.raises(TypeError, match="^base must be a CutPoint, not complex$"):
        FlattenedNumber(0.5 + 0.5j)


@pytest.mark.parametrize("value,change,exc,message", [
    (FlattenedNumber(CutPoint(0.5 + 0.5j), 1, 2), {"q": 2**53 + 1}, ValueError,
     "branch index q is beyond 2**53 in magnitude"),
    (FlattenedNumber(CutPoint(0.5 + 0.5j), 1, 2), {"p": -(2**53) - 1}, ValueError,
     "branch index p is beyond 2**53 in magnitude"),
    (FlattenedNumber(CutPoint(0.5 + 0.5j), 1, 2), {"p": 0.5}, TypeError, "p 0.5 is not an integer"),
    (FlattenedNumber(CutPoint(-2 + 0j, "a")), {"base": CutPoint(-2 + 0j, Side.BELOW)}, ValueError,
     "below-side points are not stored; build via canonicalize()"),
    (FlattenedNumber(CutPoint(0.5 + 0.5j)), {"base": 0.5 + 0.5j}, TypeError, "base must be a CutPoint, not complex"),
    (CutPoint(0.5 + 0.5j), {"z": 1 + 0j}, ValueError, "0 and 1 are excluded from the cut plane"),
    (CutPoint(0.5 + 0.5j), {"z": complex(math.nan, 1)}, ValueError, "(nan+1j) is not a finite point of the cut plane"),
    (CutPoint(-2 + 0j, "a"), {"side": "i"}, ValueError, "(-2+0j) lies on a cut; an interior point needs a side tag"),
    (CutPoint(0.5 + 0.5j), {"side": "below"}, ValueError, "side tag 'b' given but (0.5+0.5j) is not on a cut"),
    (CutPoint(0.5 + 0.5j), {"side": "x"}, ValueError, "unknown side tag 'x'"),
])
def test_replace_runs_every_check(value, change, exc, message):
    with pytest.raises(exc, match="^" + re.escape(message) + "$"):
        dataclasses.replace(value, **change)


def test_keywords_and_replace_store_checked_fields():
    f = FlattenedNumber(base=CutPoint(z=complex(-2, -0.0), side="a"), p=True, q=2)
    assert f == FlattenedNumber(CutPoint(-2 + 0j, Side.ABOVE), 1, 2)
    assert type(f.p) is int and f.p == 1 and f.base.side is Side.ABOVE and repr(f.z) == "(-2+0j)"
    f = dataclasses.replace(FlattenedNumber(CutPoint(0.5 + 0.5j), 1, 2), p=True, q=-(2**53))
    assert (f.p, f.q) == (1, -(2**53)) and type(f.p) is int
    point = dataclasses.replace(CutPoint(-2 + 0j, "a"), z=complex(-3, -0.0), side="below")
    assert point.side is Side.BELOW and repr(point.z) == "(-3+0j)"
    assert dataclasses.replace(f, base=CutPoint(point.z, "above")).base == CutPoint(-3 + 0j, Side.ABOVE)


@given(
    st.sampled_from([-5.0, -2.0, -0.5, 1.5, 2.0, 7.0]),
    st.sampled_from([Side.ABOVE, Side.BELOW]),
    st.integers(-10, 10),
    st.integers(-10, 10),
)
def test_canonicalize_idempotent(x, side, p, q):
    f = canonicalize(complex(x, 0.0), side, p, q)
    again = canonicalize(f.base, p=f.p, q=f.q)
    assert f == again


@given(
    st.sampled_from([-5.0, -2.0, -0.5, 1.5, 2.0, 7.0]),
    st.integers(-6, 6),
    st.integers(-6, 6),
)
def test_log_params_invariant_under_rewriting(x, p, q):
    """The branch logarithms take the same value on both identified charts."""
    below = CutPoint(complex(x, 0.0), Side.BELOW)
    raw_l = principal_log(below) + TWO_PI_I * p
    raw_m = -log_one_minus(below) + TWO_PI_I * q
    f = canonicalize(below, p=p, q=q)
    assert abs(log_param_l(f) - raw_l) <= 1e-12 * max(1, abs(raw_l))
    assert abs(log_param_m(f) - raw_m) <= 1e-12 * max(1, abs(raw_m))


def test_log_param_examples():
    assert log_param_l(flattened(0.5)) == pytest.approx(-math.log(2))
    assert log_param_l(flattened(0.5, 1, 0)) == pytest.approx(-math.log(2) + TWO_PI_I)
    assert log_param_l(canonicalize(-2 + 0j, Side.ABOVE)) == pytest.approx(
        math.log(2) + 1j * PI
    )
    assert log_param_m(flattened(0.5)) == pytest.approx(math.log(2))
    assert log_param_m(flattened(0.5, 0, 2)) == pytest.approx(math.log(2) + 4j * PI)
    assert log_param_m(canonicalize(2 + 0j, Side.ABOVE)) == pytest.approx(1j * PI)


def test_label_shows_even_integers():
    assert flattened(0.5, 2, -3).label == (4, -6)


# ---------------------------------------------------------------------------
# the all-upper-half chart identities (frozen pre-build oracle)
# ---------------------------------------------------------------------------

def test_upper_chart_log_identities_exact():
    """The five identities the membership test relies on hold with plain
    principal logarithms whenever all five coordinates are in the upper
    half plane."""
    rng = random.Random(23)
    for _ in range(500):
        x, y = sample_ftplus_pair(rng)
        z = ft_projections(x, y)
        assert all(c.imag > 0 for c in z)
        a = [cmath.log(c) for c in z]
        b = [cmath.log(1 - c) for c in z]
        l, m = a, [-t for t in b]
        residuals = (
            l[2] - (l[1] - l[0]),
            l[3] - (l[1] - l[0] + m[1] - m[0]),
            l[4] - (m[1] - m[0]),
            m[3] - (m[2] - m[1]),
            m[4] - (m[2] - m[1] - l[0]),
        )
        assert max(abs(r) for r in residuals) <= 1e-12


# ---------------------------------------------------------------------------
# five-term tuples
# ---------------------------------------------------------------------------

def test_make_flattened_ft_zero_indices():
    t = make_flattened_ft(0.3 + 0.2j, 1j)
    assert [(e.p, e.q) for e in t] == [(0, 0)] * 5


def test_make_flattened_ft_index_pattern():
    t = make_flattened_ft(0.3 + 0.2j, 1j, p0=1)
    assert [(e.p, e.q) for e in t] == [(1, 0), (0, 0), (-1, 0), (-1, 0), (0, -1)]


def test_make_flattened_ft_general_indices():
    t = make_flattened_ft(0.3 + 0.2j, 1j, p0=2, p1=-1, q0=3, q1=0, q2=-2)
    assert [(e.p, e.q) for e in t] == [
        (2, 3),
        (-1, 0),
        (-3, -2),
        (-6, -2),
        (-3, -4),
    ]


def test_make_flattened_ft_rejects_real_inputs():
    with pytest.raises(ValueError):
        make_flattened_ft(0.5, 0.6)


def test_make_flattened_ft_rejects_wrong_chart():
    # lower-half y projects out of the all-upper-half chart
    with pytest.raises(ValueError):
        make_flattened_ft(0.3 - 0.2j, -1j)


@pytest.mark.parametrize("x,y,coordinate,reason", [
    # y/x overflows: the error named the overflowed coordinate alone
    (1e-320 + 1e-320j, 0.5 + 1j, "z2 = (inf+infj)", "is not finite"),
    # these two were reported as lying outside the chart
    (float("nan"), 0.5 + 1j, "z0 = (nan+0j)", "is not finite"),
    (0.3 + 0.2j, complex(float("inf"), 1.0), "z1 = (inf+1j)", "is not finite"),
    (0.3 - 0.2j, -1j, "z0 = (0.3-0.2j)", "is not in the upper half-plane, so (x, y) is outside the all-upper-half"),
    # x or y at 0 or 1, or x = y, before any coordinate: the message named neither
    (0, 1j, None, "must be distinct and avoid 0 and 1"),
    (0.3 + 0.2j, 1, None, "must be distinct and avoid 0 and 1"),
    (1j, 1j, None, "must be distinct and avoid 0 and 1"),
])
def test_make_flattened_ft_names_its_inputs(x, y, coordinate, reason):
    if coordinate is None:
        named = f"x, y {reason}, got x = {complex(x)!r}, y = {complex(y)!r}"
    else:
        named = f"the five-term coordinate {coordinate} of x = {complex(x)!r}, y = {complex(y)!r} {reason}"
    with pytest.raises(ValueError, match="^" + re.escape(named)):
        make_flattened_ft(x, y)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-300, float("inf")])
def test_is_flattened_ft_refuses_a_nan_or_negative_tol(tol):
    # at a NaN tol every comparison failed, so five unrelated numbers were
    # accepted and five_term_element built a "five-term element" of value
    # about -3.26-0.23i; an infinite tol rejected every tuple
    entries = [flattened(z) for z in (0.3 + 0.4j, 0.5 + 0.5j, -0.2 + 1j, 2 + 1j, 0.1 + 0.1j)]
    with pytest.raises(ValueError, match=r"^tol must be >= 0, got "):
        is_flattened_ft(entries, tol)
    with pytest.raises(ValueError, match=r"^tol must be >= 0, got "):
        five_term_element(entries, tol)
    assert not is_flattened_ft(entries, 0.0)


def test_is_flattened_ft_accepts_constructed_tuples():
    rng = random.Random(5)
    for _ in range(100):
        x, y = sample_ftplus_pair(rng)
        idx = [rng.randint(-5, 5) for _ in range(5)]
        t = make_flattened_ft(x, y, *idx)
        assert is_flattened_ft(t, tol=1e-9)


def test_is_flattened_ft_is_exact_in_the_indices():
    # sample 2 of `check five-term --index-bound 1000000 --seed 5`: the
    # residuals with 2 pi i p folded in were compared in floating point and
    # failed on rounding; the index part is now an exact integer
    x, y = -0.48998233260462387 + 1.2082406978809601j, -0.7671358369008483 + 1.6769064917841983j
    t = make_flattened_ft(x, y, 921715, 819193, 605842, -183291, -665286)
    assert is_flattened_ft(t)
    for k in range(5):  # one index off by one is caught exactly, on any entry
        entries = list(t)
        entries[k] = FlattenedNumber(entries[k].base, entries[k].p, entries[k].q + 1)
        assert not is_flattened_ft(entries)
    big = 2**51 - 1
    assert is_flattened_ft(make_flattened_ft(x, y, -big, big, -big, big, 0))


def test_is_flattened_ft_rejects_tampered_index():
    t = make_flattened_ft(0.3 + 0.2j, 1j, 1, 2, 0, -1, 3)
    entries = list(t.entries)
    bad = entries[2]
    entries[2] = FlattenedNumber(bad.base, bad.p, bad.q + 1)
    assert not is_flattened_ft(entries)


def test_is_flattened_ft_rejects_unrelated_points():
    entries = [flattened(complex(0.2 * k + 0.1, 0.3 + 0.1 * k)) for k in range(5)]
    assert not is_flattened_ft(entries)


def test_flattened_ft_requires_five_entries():
    with pytest.raises(ValueError):
        FlattenedFT(tuple([flattened(0.5 + 0.5j)] * 4))


def solve_chart_indices(x, y, p0=0, q0=0, p1=0, q1=0, q2=0):
    """Build a five-term tuple over an arbitrary chart by solving the branch
    identities for the dependent indices.  The solved values must land on
    integers; how far they sit from one is itself a consistency check."""
    from extbloch.dilog import as_cut_point

    coords = [as_cut_point(c) for c in ft_projections(x, y)]
    head = [
        canonicalize(coords[0], p=p0, q=q0),
        canonicalize(coords[1], p=p1, q=q1),
    ]
    l0, m0 = log_param_l(head[0]), log_param_m(head[0])
    l1, m1 = log_param_l(head[1]), log_param_m(head[1])

    def solve(base, target_l, target_m):
        raw_p = (target_l - principal_log(base)) / TWO_PI_I
        raw_q = (target_m + log_one_minus(base)) / TWO_PI_I
        for raw in (raw_p, raw_q):
            assert abs(raw - round(raw.real)) < 1e-9
        return canonicalize(base, p=round(raw_p.real), q=round(raw_q.real))

    two = canonicalize(coords[2], p=round(((l1 - l0) - principal_log(coords[2])).imag / (2 * PI)), q=q2)
    m2 = log_param_m(two)
    entries = head + [
        two,
        solve(coords[3], l1 - l0 + m1 - m0, m2 - m1),
        solve(coords[4], m1 - m0, m2 - m1 - l0),
    ]
    return entries


def test_membership_beyond_upper_chart():
    """Identity-solved tuples over arbitrary charts (lower half plane,
    boundary entries included) pass the membership test; upsetting one
    index breaks it."""
    rng = random.Random(47)
    built = 0
    while built < 60:
        x = complex(rng.uniform(-3, 4), rng.uniform(-3, 3))
        y = complex(rng.uniform(-3, 4), rng.uniform(-3, 3))
        if min(abs(x), abs(y), abs(x - 1), abs(y - 1), abs(x - y)) < 0.1:
            continue
        if abs(y / x - 1) < 0.1 or abs(x.imag) < 0.05 or abs(y.imag) < 0.05:
            continue
        idx = [rng.randint(-4, 4) for _ in range(5)]
        entries = solve_chart_indices(x, y, *idx)
        assert is_flattened_ft(entries, tol=1e-9)
        bad = list(entries)
        bad[3] = FlattenedNumber(bad[3].base, bad[3].p + 1, bad[3].q)
        assert not is_flattened_ft(bad, tol=1e-9)
        built += 1


def test_membership_with_boundary_entry():
    # x on the left cut: the first entry is a genuine boundary point
    entries = solve_chart_indices(-2.0 + 0j, 0.5 + 1.5j, p0=1, q1=-2)
    assert entries[0].base.side is Side.ABOVE
    assert is_flattened_ft(entries, tol=1e-9)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_serialize_round_trip():
    for f in (
        flattened(0.25 + 0.75j, 3, -2),
        canonicalize(-1.5 + 0j, Side.ABOVE, -1, 4),
    ):
        assert parse_flattened(serialize_flattened(f)) == f


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_flattened("0.5 0 i 0")
    with pytest.raises(ValueError):
        parse_flattened("0.5 0 b 0 0")
    with pytest.raises(ValueError):
        parse_flattened("1 0 i 0 0")


@pytest.mark.parametrize("p,q,field", [
    (2**53 + 1, 0, "p"), (-(2**53) - 1, 0, "p"), (0, 2**53 + 1, "q"),
    (0, -(10**400), "q"), (10**400, 10**400, "p"),
])
def test_parse_rejects_huge_branch_indices(p, q, field):
    # beyond 2**53 the lattice part 2 pi i p of a branch logarithm is not
    # exact; 10**400 used to load and fail later converting to float
    with pytest.raises(ValueError, match=rf"branch index {field} is beyond 2\*\*53"):
        parse_flattened(f"0.5 0.5 i {p} {q}")


def test_parse_accepts_branch_indices_up_to_2_53():
    for p in (2**53, -(2**53)):
        f = parse_flattened(f"0.5 0.5 i {p} {-p}")
        assert (f.p, f.q) == (p, -p)


@pytest.mark.parametrize("build,field", [
    (lambda: flattened(0.5 + 0.5j, p=10**17), "p"),
    (lambda: flattened(0.5 + 0.5j, p=10**400), "p"),
    (lambda: flattened(0.5 + 0.5j, q=-(2**53) - 1), "q"),
    (lambda: canonicalize(0.5 + 0.5j, p=2**53 + 1), "p"),
    (lambda: canonicalize(-2 + 0j, Side.BELOW, p=-(2**53)), "p"),  # p - 1 crosses the limit
    (lambda: canonicalize(3 + 0j, Side.BELOW, q=-(2**53)), "q"),  # q - 1 crosses the limit
    (lambda: FlattenedNumber(CutPoint(0.5 + 0.5j), 0, 10**400), "q"),
], ids=["flattened-1e17", "flattened-1e400", "flattened-q", "canonicalize", "below-left", "below-right", "direct"])
def test_constructors_reject_huge_branch_indices(build, field):
    # flattened(z, p=10**17) used to build a point whose Rogers value has no
    # digits mod 4 pi^2, and p=10**400 failed later with an OverflowError
    with pytest.raises(ValueError, match=rf"branch index {field} is beyond 2\*\*53 in magnitude"):
        build()


def test_constructors_accept_branch_indices_up_to_2_53():
    assert canonicalize(-2 + 0j, Side.BELOW, p=-(2**53) + 1).p == -(2**53)
    assert canonicalize(3 + 0j, Side.BELOW, q=-(2**53) + 1).q == -(2**53)
    f = flattened(0.5 + 0.5j, 2**53, -(2**53))
    assert (f.p, f.q) == (2**53, -(2**53))


# ---------------------------------------------------------------------------
# both branch logarithms from one kernel pass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["double", "high"])
def test_log_params_one_kernel_pass_same_values(kernel_passes, mode):
    def build():
        return [
            flattened(0.3 + 0.4j, 1, -2), canonicalize(-2 + 0j, Side.BELOW, 2, 1),
            canonicalize(3 + 0j, Side.BELOW, -1, 0), flattened(1e300 - 1e299j, 0, 3), flattened(1e-300, -4, 4),
        ]

    points = build()
    with precision(mode):
        # want on equal but distinct points: a point keeps its kernel pass
        want = [(log_param_l(f), log_param_m(f)) for f in build()]
        calls = kernel_passes
        calls.clear()
        got = [(l, m) for _, l, m in cover._log_params((1, f) for f in points)]
    assert got == want
    # the whole pass of each point, the far-out pass at 1e300
    assert [name for name, _ in calls] == ["pass"] * 3 + ["far", "pass"]


@pytest.mark.parametrize("mode", ["double", "high"])
def test_is_flattened_ft_one_kernel_pass_per_entry(kernel_passes, mode):
    rng = random.Random(8)
    x, y = sample_ftplus_pair(rng)
    t = make_flattened_ft(x, y, 1, -2, 0, 3, -1)
    with precision(mode):
        calls = kernel_passes
        calls.clear()
        assert is_flattened_ft(t)
    # the whole pass of each entry, once
    assert [name for name, _ in calls] == ["pass"] * 5
    assert len({p.z for _, p in calls}) == 5


def test_flattened_names_an_int_beyond_a_double():
    # complex(10**400) raised OverflowError: int too large to convert to float
    with pytest.raises(ValueError) as err:
        flattened(10**400, 1, 2)
    assert str(err.value) == f"{10**400} is beyond the range of a double"


class Index:
    """An integer that is not an int: it has __index__ and nothing else."""

    def __init__(self, k):
        self.k = k

    def __index__(self):
        return self.k


@pytest.mark.parametrize("p,q,want", [(True, 0, (1, 0)), (False, True, (0, 1)), (Index(3), Index(-2), (3, -2))])
def test_index_like_branch_indices_are_stored_as_ints_and_round_trip(p, q, want):
    # flattened(z, True, 0) stored p=True, serialized as "... True 0", which no parser read back
    from extbloch import ccs
    from extbloch.prebloch import FormalSum

    below = (want[0] - 1, want[1])  # the left cut's below side, rewritten to the above side
    for f, indices in (
        (flattened(0.5 + 0.5j, p, q), want),
        (FlattenedNumber(CutPoint(0.5 + 0.5j), p, q), want),
        (canonicalize(-2 + 0j, Side.ABOVE, p, q), want),
        (canonicalize(-2 + 0j, Side.BELOW, p, q), below),
    ):
        assert (f.p, f.q) == indices and type(f.p) is int and type(f.q) is int
        assert parse_flattened(serialize_flattened(f)) == f
        s = FormalSum.single(f, 3)
        assert FormalSum.parse(s.serialize()) == s
        t = ccs.FlattenedTriangulation(((f, -1), (f, 1)), "indices")
        assert ccs.load(io.StringIO(ccs.dump(t))) == t
