import ast
import cmath
import functools
import itertools
import math
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import extbloch
from extbloch import dilog
from extbloch.bloch import nu_hat
from extbloch.cover import _build, canonicalize, flattened, log_param_l, log_param_m
from extbloch.dilog import (
    CutPoint,
    Side,
    arg_cut,
    as_cut_point,
    get_precision,
    li2,
    log_one_minus,
    precision,
    principal_log,
    set_precision,
)
from extbloch.prebloch import FormalSum
from extbloch.rogers import l_bar_at, rogers_l_bar
from oracles import _li2_mp, li2_mpmath, li2_reference, li2_series, rogers_mpmath

PI = math.pi


# ---------------------------------------------------------------------------
# CutPoint validity
# ---------------------------------------------------------------------------

def test_cut_point_rejects_zero_and_one():
    with pytest.raises(ValueError):
        CutPoint(0j)
    with pytest.raises(ValueError):
        CutPoint(1 + 0j)


def test_cut_point_side_consistency():
    with pytest.raises(ValueError):
        CutPoint(-2 + 0j)  # on a cut, needs a side
    with pytest.raises(ValueError):
        CutPoint(0.5 + 0j, Side.ABOVE)  # not on a cut
    with pytest.raises(ValueError):
        CutPoint(2 + 1j, Side.BELOW)
    CutPoint(0.5 + 0j)  # the open interval (0,1) is interior
    CutPoint(-2 + 0j, Side.ABOVE)
    CutPoint(3 + 0j, "b")


def test_side_coerce_reads_tags_and_names():
    for side in Side:
        for token in (side, side.value, side.name, f" {side.name.lower()} ", side.value.upper()):
            assert Side.coerce(token) is side
    for bad in ("x", "", "up", None, 1):
        with pytest.raises(ValueError, match="unknown side tag"):
            Side.coerce(bad)


def test_as_cut_point_reads_cut_reals_as_upper_limit():
    p = as_cut_point(-2.0 + 0j)
    assert p.side is Side.ABOVE
    assert as_cut_point(0.3 + 0.4j).side is Side.INTERIOR


@pytest.mark.parametrize("z", [
    complex(math.nan, 0.5), complex(0.5, math.nan),
    complex(math.inf, 0.5), complex(0.5, math.inf),
    complex(-math.inf, 0.0), complex(0.5, -math.inf),
])
@pytest.mark.parametrize("side", [Side.INTERIOR, Side.ABOVE])
def test_cut_point_rejects_non_finite(z, side):
    with pytest.raises(ValueError, match="not a finite point") as err:
        CutPoint(z, side)
    assert str(z) in str(err.value)
    with pytest.raises(ValueError, match="not a finite point"):
        li2(z)


def test_negative_zero_imag_normalized():
    p = CutPoint(complex(0.5, -0.0))
    assert math.copysign(1.0, p.z.imag) == 1.0


# ---------------------------------------------------------------------------
# principal log
# ---------------------------------------------------------------------------

def test_principal_log_examples():
    assert principal_log(CutPoint(1j)) == pytest.approx(1j * PI / 2)
    assert principal_log(CutPoint(-2 + 0j, Side.ABOVE)) == pytest.approx(
        math.log(2) + 1j * PI
    )
    assert principal_log(CutPoint(-2 + 0j, Side.BELOW)) == pytest.approx(
        math.log(2) - 1j * PI
    )
    # both sides of the right cut agree
    assert principal_log(CutPoint(2 + 0j, Side.ABOVE)) == pytest.approx(math.log(2))
    assert principal_log(CutPoint(2 + 0j, Side.BELOW)) == pytest.approx(math.log(2))


@given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                          allow_nan=False, allow_infinity=False))
@example(complex(2.0, 5e-324))  # subnormal imaginary part
def test_principal_log_branch_window(z):
    p = as_cut_point(z)
    if p.z in (0, 1):
        return
    value = principal_log(p)
    assert -PI <= value.imag <= PI
    if value.imag == -PI:
        # only reachable by rounding from strictly below the axis
        assert z.imag < 0
    assert cmath.exp(value) == pytest.approx(p.z, rel=1e-12)


@pytest.mark.parametrize("mode", ["double", "high"])
def test_log_reads_the_side_of_a_zero_imaginary_part(mode):
    # the below side of (-inf, 0) is -pi exactly, and a -0.0 imaginary part,
    # as -z makes it, reads as +pi unless the side is below
    arith = dilog._DOUBLE if mode == "double" else dilog._high_arith(50)
    for x, side, want in [(complex(-2, 0.0), Side.BELOW, -PI), (complex(-2, -0.0), Side.BELOW, -PI),
                          (complex(-2, -0.0), Side.ABOVE, PI), (complex(-2, -0.0), Side.INTERIOR, PI),
                          (complex(2, -0.0), Side.BELOW, 0.0)]:
        assert complex(arith.log(arith.point(x), side)).imag == want, (x, side)
    with precision(mode):
        assert principal_log(CutPoint(-2 + 0j, Side.BELOW)).imag == -PI
        assert principal_log(complex(-2, -0.0)).imag == PI
        assert log_one_minus(CutPoint(3 + 0j, Side.ABOVE)).imag == -PI
        assert log_one_minus(CutPoint(3 + 0j, Side.BELOW)).imag == PI
        assert principal_log(2 + 5e-324j) == pytest.approx(math.log(2))  # a subnormal part does not raise


def test_log_one_minus_examples():
    assert log_one_minus(CutPoint(0.5 + 0j)) == pytest.approx(-math.log(2))
    assert log_one_minus(CutPoint(2 + 0j, Side.ABOVE)) == pytest.approx(-1j * PI)
    diff = log_one_minus(CutPoint(2 + 0j, Side.ABOVE)) - log_one_minus(
        CutPoint(2 + 0j, Side.BELOW)
    )
    assert diff == pytest.approx(-2j * PI)


# ---------------------------------------------------------------------------
# dilogarithm
# ---------------------------------------------------------------------------

def test_li2_small_arguments_match_direct_series():
    rng = random.Random(101)
    for _ in range(300):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        if abs(z) > 0.5:
            continue
        assert abs(li2(z) - li2_series(z)) <= 1e-13


def test_li2_frozen_values():
    assert li2(0.3 + 0j).real == pytest.approx(0.3261295100754761, abs=1e-13)
    assert li2(0.5 + 0j).real == pytest.approx(0.5822405264650126, abs=1e-13)
    assert li2(0.5 + 0j).real == pytest.approx(PI**2 / 12 - math.log(2) ** 2 / 2)
    assert li2(0j) == 0
    assert li2(1 + 0j).real == pytest.approx(PI**2 / 6)


def test_li2_boundary_jump_at_two():
    diff = li2(CutPoint(2 + 0j, Side.ABOVE)) - li2(CutPoint(2 + 0j, Side.BELOW))
    assert diff == pytest.approx(2j * PI * math.log(2), abs=1e-12)


def test_li2_matches_reference_across_regions():
    rng = random.Random(7)
    for _ in range(200):
        z = complex(rng.uniform(-8, 9), rng.uniform(-8, 8))
        if abs(z.imag) < 1e-3 or abs(z) < 1e-3 or abs(z - 1) < 1e-3:
            continue
        mine = li2(z)
        ref = li2_reference(z)
        assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref))


def test_li2_boundary_jumps_random():
    rng = random.Random(13)
    for _ in range(100):
        x = rng.uniform(1.0001, 50.0)
        above = li2(CutPoint(x + 0j, Side.ABOVE))
        below = li2(CutPoint(x + 0j, Side.BELOW))
        assert abs(above - below - 2j * PI * math.log(x)) <= 1e-12 * max(1, math.log(x))
        # the one-sided values are conjugates of each other
        assert above == pytest.approx(below.conjugate(), abs=1e-11)
    for _ in range(100):
        x = rng.uniform(-50.0, -0.0001)
        above = li2(CutPoint(x + 0j, Side.ABOVE))
        below = li2(CutPoint(x + 0j, Side.BELOW))
        # the dilogarithm itself is continuous across the left cut
        assert abs(above - below) <= 1e-12 * max(1, abs(above))
        log_jump = principal_log(CutPoint(x + 0j, Side.ABOVE)) - principal_log(
            CutPoint(x + 0j, Side.BELOW)
        )
        assert log_jump == pytest.approx(2j * PI)
        lm_diff = log_one_minus(CutPoint(x + 0j, Side.ABOVE)) - log_one_minus(
            CutPoint(x + 0j, Side.BELOW)
        )
        assert lm_diff == 0


def test_euler_reflection_random_interior():
    rng = random.Random(29)
    checked = 0
    while checked < 1000:
        z = complex(rng.uniform(-4, 5), rng.uniform(-4, 4))
        if abs(z.imag) < 1e-6:
            continue
        lhs = li2(z) + li2(1 - z)
        rhs = PI**2 / 6 - principal_log(as_cut_point(z)) * log_one_minus(as_cut_point(z))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        checked += 1


def test_arg_cut_extended_values():
    assert arg_cut(CutPoint(-3 + 0j, Side.ABOVE)) == PI
    assert arg_cut(CutPoint(-3 + 0j, Side.BELOW)) == -PI
    assert arg_cut(CutPoint(5 + 0j, Side.ABOVE)) == 0.0
    assert arg_cut(CutPoint(1j)) == pytest.approx(PI / 2)
    # bare numbers: the negative axis reads as its upper limit, even at -0.0
    assert arg_cut(-3 + 0j) == PI
    assert arg_cut(complex(-3, -0.0)) == PI
    assert arg_cut(1 + 0j) == 0.0
    assert arg_cut(complex(2.0, 5e-324)) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# high-precision mode
# ---------------------------------------------------------------------------

def test_high_precision_mode_agrees_with_double():
    points = [
        CutPoint(0.3 + 0.4j),
        CutPoint(-5 + 2j),
        CutPoint(2 + 0j, Side.ABOVE),
        CutPoint(-2 + 0j, Side.BELOW),
        CutPoint(0.99 + 0.001j),
        CutPoint(40 - 17j),
    ]
    doubles = [(li2(p), principal_log(p), log_one_minus(p)) for p in points]
    with precision("high", 50):
        highs = [(li2(p), principal_log(p), log_one_minus(p)) for p in points]
    for (a1, b1, c1), (a2, b2, c2) in zip(doubles, highs):
        assert abs(a1 - a2) <= 1e-12 * max(1, abs(a1))
        assert abs(b1 - b2) <= 1e-13 * max(1, abs(b1))
        assert abs(c1 - c2) <= 1e-13 * max(1, abs(c1))


def test_precision_mode_validation():
    with pytest.raises(ValueError):
        precision("high", dps=10).__enter__()
    with pytest.raises(ValueError):
        precision("fast").__enter__()


@pytest.mark.parametrize("dps", [60.5, 60.0, "60"])
def test_precision_names_a_dps_that_is_not_an_integer(dps):
    # these were accepted; the first high-precision pass then raised an
    # unrelated TypeError ("'float' object cannot be interpreted ...", "'<' not supported")
    message = f"^dps {re.escape(repr(dps))} is not an integer$"
    with pytest.raises(TypeError, match=message):
        with precision("high", dps):
            pass
    with pytest.raises(TypeError, match=message):
        set_precision("high", dps)
    assert get_precision() == ("double", None)


def test_precision_takes_dps_through_index():
    class Digits:
        def __index__(self):
            return 60

    with precision("high", Digits()):
        assert get_precision() == ("high", 60) and type(get_precision()[1]) is int
        assert li2(0.5) == pytest.approx(li2_reference(0.5), rel=1e-15)
    with pytest.raises(ValueError, match="requires dps >= 50"):
        set_precision("high", True)


# ---------------------------------------------------------------------------
# the high-precision series: Horner on fixed-point integers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _reference_coeffs(dps):
    with mp.workdps(dps + 10):
        return tuple(mp.bernoulli(2 * k) / mp.factorial(2 * k + 1) for k in range(2 * dps // 3 + 1, 0, -1))


def reference_series(dps, w):
    """The series with Horner on mpc: mpmath Bernoulli numbers, each step rounded."""
    w2 = w * w
    acc = 0.0
    for c in _reference_coeffs(dps):
        acc = acc * w2 + c
    return w - 0.25 * w2 + w * w2 * acc


def _series_points():
    # |w| <= pi/3 in all four quadrants: tiny radii, seeded radii, and the
    # edge of the region
    rng = random.Random(20)
    radii = [1e-300, 1e-60, 1e-20, PI / 3, PI / 3 * (1 - 1e-12)]
    radii += [rng.uniform(0.0, PI / 3) for _ in range(40)] + [10.0 ** rng.uniform(-40, 0) for _ in range(20)]
    points = []
    for r in radii:
        for quadrant in range(4):
            points.append(cmath.rect(r, quadrant * PI / 2 + rng.uniform(0.0, PI / 2)))
    return points + [0.5, -0.75, 0.5j, -1e-20j]


def _mpc(num):
    # the kernel's number, (re + i im) 2^-s, as an exact mpc
    re, im, s = num.v
    return mp.make_mpc((mp.libmp.from_man_exp(re, -s), mp.libmp.from_man_exp(im, -s)))


def test_series_matches_mpc_horner():
    dps = 50
    arith = dilog._high_arith(dps)
    with mp.workdps(dps):
        bound = mp.ldexp(1, -(mp.mp.prec - 4))
        for z in _series_points():
            got, want = _mpc(arith.series(arith.point(z))), reference_series(dps, mp.mpc(z))
            assert complex(got) == complex(want), z
            assert abs(got - want) <= bound * abs(want), z


@pytest.mark.parametrize("dps", [80, 150])
def test_series_at_both_ends_of_its_length(dps):
    # the series runs more terms as |w| grows: all of them at |w| = pi/3
    # and just inside it, the fewest at |w| = 1e-300
    arith = dilog._high_arith(dps)
    with mp.workdps(dps):
        bound = mp.ldexp(1, -(mp.mp.prec - 4))
        for r in (PI / 3, PI / 3 * (1 - 1e-12), 1e-300):
            for theta in (0.0, 0.3, PI / 2, 1.9, PI, -0.8, -2.6):
                z = cmath.rect(r, theta)
                got, want = _mpc(arith.series(arith.point(z))), reference_series(dps, mp.mpc(z))
                assert complex(got) == complex(want), z
                assert abs(got - want) <= bound * abs(want), z


def test_high_pass_leaves_mpmath_context_alone(pass_primitives):
    # a high-precision pass works at its own precision: mpmath's process-wide
    # context keeps the caller's 15 digits throughout
    with mp.workdps(15), precision("high", 50):
        seen = pass_primitives(CutPoint(-5 + 2j))  # the inversion branch: two logarithms
    assert [dps for _, dps in seen] == [15, 15]


PASS_SHAPES = [
    # below 2^32, each region takes Log z and Log(1-z) and nothing else
    (CutPoint(0.3 + 0.4j), ["log", "log"]),                  # the series
    (CutPoint(0.9 + 0.3j), ["log", "log"]),                  # reflection
    (CutPoint(-5 + 2j), ["log", "log"]),                     # inversion
    (CutPoint(40 - 17j), ["log", "log"]),
    (CutPoint(-3 + 0j, Side.BELOW), ["log", "log"]),
    (CutPoint(3 + 0j, Side.ABOVE), ["log", "log"]),
    (CutPoint(complex(2.0**32, -1e5)), ["log", "log"]),
    # far out, the chart formula takes Log(1-1/z), Log(-z) and Log z
    (CutPoint(1e30 + 1e29j), ["div", "log", "log", "log"]),
    (CutPoint(-7e15 + 0j, Side.BELOW), ["div", "log", "log", "log"]),
]


@pytest.mark.parametrize("mode", ["double", "high"])
@pytest.mark.parametrize("point,want", PASS_SHAPES, ids=[str(p.z) + p.side.value for p, _ in PASS_SHAPES])
def test_kernel_pass_shape(pass_primitives, mode, point, want):
    with precision(mode):
        assert [name for name, _ in pass_primitives(point)] == want


def test_two_precisions_in_two_threads_agree_with_one_thread():
    # threads at 50 and 150 digits share no precision setting: each value
    # equals its single-threaded value, and mpmath's context is untouched
    rng = random.Random(14)
    points = [cmath.rect(10.0 ** rng.uniform(-3, 3), rng.uniform(-PI, PI)) for _ in range(300)]

    def run(dps):
        with precision("high", dps):
            return [(li2(p), principal_log(p), log_one_minus(p)) for p in map(CutPoint, points)]

    want = {dps: run(dps) for dps in (50, 150)}
    before = mp.mp.dps
    got = {dps: [] for dps in want}
    barrier = threading.Barrier(len(want))

    def worker(dps):
        barrier.wait()
        for _ in range(4):
            got[dps].append(run(dps))

    threads = [threading.Thread(target=worker, args=(dps,)) for dps in want]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for dps, rounds in got.items():
        assert len(rounds) == 4
        for values in rounds:
            assert [(z, v) for z, v, w in zip(points, values, want[dps]) if v != w] == []
    assert mp.mp.dps == before


def _kernel_points():
    # the series, reflection and inversion branches, tiny z, e^(i pi/3),
    # and both sides of both cuts
    points = [CutPoint(z) for z in (
        1e-300, 1e-52, -8.085e-52 + 3.451e-52j, 1e-133 - 1e-133j, cmath.exp(1j * PI / 3),
        0.3 + 0.4j, -0.6 - 0.2j, 0.9 + 0.3j, 0.99 - 0.001j, -5 + 2j, 40 - 17j, 1e30 + 1e29j,
    )]
    for x in (-3.0, -0.5, 1.5, 3.0):
        points += [CutPoint(complex(x, 0.0), side) for side in (Side.ABOVE, Side.BELOW)]
    return points


def _working_pass(arith, p):
    # Li2 z, Log z and Log(1-z) by the direct form (a pass's form below 2^32),
    # in the mode's own numbers
    z = arith.point(p.z)
    log_z, log_1mz = arith.log(z, p.side), dilog._log_one_minus(arith, z, p.side)
    return dilog._li2_of(arith, p.z, p.side, log_z, log_1mz), log_z, log_1mz


@pytest.mark.parametrize("dps", [50, 80, 150])
def test_kernel_accuracy_at_working_precision(dps):
    # the high-precision kernel keeps its digits at the working precision,
    # not only after rounding to a double
    arith = dilog._high_arith(dps)
    for p in _kernel_points():
        li = _mpc(_working_pass(arith, p)[0])
        with mp.workdps(dps + 20):
            want = _li2_mp(p.z, p.side.value)
            assert abs(li - want) <= mp.mpf(10) ** -(dps - 5) * abs(want), (p, li, want)


def _log_reference(z: complex, side: Side):
    # Log z and Log(1-z) at the caller's precision, 1 - z formed exactly;
    # on a cut the side picks +-pi
    w = mp.mpc(z)
    v = mp.fsub(1, w, exact=True)
    log_z, log_1mz = mp.log(w), mp.log(v)
    if side is not Side.INTERIOR:
        sign = 1 if side is Side.ABOVE else -1
        if z.real < 0:
            log_z = mp.mpc(log_z.real, sign * mp.pi)
        else:
            log_1mz = mp.mpc(log_1mz.real, -sign * mp.pi)
    return log_z, log_1mz


def _edge_points():
    # the inversion region next to its edges: |1-z| or |z| just above 1
    points = []
    for delta in (2.0**-52, 1e-12, 1e-6, 1e-2):
        for theta in (PI / 3 + 1e-6, 1.2, 2.0, 3.0, PI - 1e-9):
            for sign in (1, -1):
                points += [1 - cmath.rect(1 + delta, sign * theta), cmath.rect(1 + delta, sign * theta)]
    return [CutPoint(z) for z in points if abs(z) > 1 and abs(1 - z) > 1]


def _log_points():
    # tiny |z|, where 1 - z rounds to 1 at the working precision; z and 1 - z
    # near the unit circle, where |v|^2 - 1 cancels; both sides of both cuts
    points = [CutPoint(cmath.rect(r, theta)) for r in (2.0**-200, 1e-300) for theta in (0.0, 0.7, 2.5, -0.3, -2.0)]
    for delta in (0.0, 2.0**-52, -(2.0**-52), 1e-13):
        for theta in (1e-9, 0.4, 1.7, -2.9):
            points += [CutPoint(cmath.rect(1 + delta, theta)), CutPoint(1 - cmath.rect(1 + delta, theta))]
    for x in (-(2.0**-200), -1e-300, -0.5, -1.0, -3.0, 1.0 + 2.0**-52, 1.5, 2.0, 3e5):
        points += [CutPoint(complex(x, 0.0), side) for side in (Side.ABOVE, Side.BELOW)]
    return points + _edge_points()


# points with a part far below the other: Im z tiny on either side of 1,
# a subnormal Re z on the unit circle (Re Log z is then about 1e-647), and
# both parts tiny; a pass's scale must reach down to each part
TINY_PART_POINTS = [CutPoint(z) for z in (2 + 1e-300j, 5e-324 + 1j, 1e-300 + 1e-300j, 1 + 1e-300j)]


@pytest.mark.parametrize("dps", [50, 80, 150])
def test_high_log_and_li2_at_working_precision(dps):
    # Log z, Log(1-z) and Li2 z of one high-precision kernel pass against
    # mpmath at 20 more digits, relative to each value, and on the points
    # with a tiny part also each part relative to its own size; Log(1-z)
    # comes from the inversion identity on the edge points
    arith = dilog._high_arith(dps)
    bound = mp.mpf(10) ** -(dps - 5)
    for p in _log_points() + TINY_PART_POINTS:
        got = [_mpc(v) for v in _working_pass(arith, p)]
        with mp.workdps(dps + 20):
            want = (_li2_mp(p.z, p.side.value), *_log_reference(p.z, p.side))
            for name, g, w in zip(("li2", "log z", "log 1-z"), got, want):
                assert abs(g - w) <= bound * abs(w), (name, p, g, w)
                if p in TINY_PART_POINTS:
                    for part in ("real", "imag"):
                        gp, wp = getattr(g, part), getattr(w, part)
                        assert abs(gp - wp) <= bound * abs(wp), (name, part, p, gp, wp)


@pytest.mark.parametrize("mode,bound", [("double", 4e-16), ("high", 2e-16)])
def test_inversion_identity_log_one_minus_accuracy(mode, bound):
    # Log(1-z) of a pass in the inversion region next to its edges, where
    # |Log(1-z)| > log 2, taken directly; worst seen 2.0e-16 in double,
    # 1.0e-16 in high
    points = _edge_points()
    assert len(points) >= 60
    with precision(mode):
        got = [log_one_minus(p) for p in points]
    errors = []
    with mp.workdps(40):
        for g, p in zip(got, points):
            want = _log_reference(p.z, p.side)[1]
            errors.append((float(abs(g - want) / abs(want)), p))
    assert [(err, p) for err, p in errors if not err <= bound] == []


def _inversion_points():
    # seeded points of the inversion region |z| > 1, |1-z| > 1 with |z| from
    # 0.3 to 1e12, and points on both sides of both cuts out to 1e300
    rng = random.Random(4586)
    points = [CutPoint(complex(-0.9717247236133145, -0.5415135685803505))]  # the worst seen
    while len(points) < 2000:
        z = cmath.rect(10.0 ** rng.uniform(math.log10(0.3), 12), rng.uniform(-PI, PI))
        if abs(z) > 1 and abs(1 - z) > 1:
            points.append(CutPoint(z))
    for _ in range(150):
        r = 10.0 ** rng.uniform(0, 300)
        for x in (-r, 1 + r):
            if abs(x) > 1 and abs(1 - x) > 1:
                points += [CutPoint(complex(x, 0.0), side) for side in (Side.ABOVE, Side.BELOW)]
    return points


def test_inversion_identity_log_one_minus_accuracy_seeded():
    # the double Log(1-z) a point's pass keeps in the inversion region (beyond
    # 2^32 from Log(-z) + Log(1-1/z), by the far-out kernel), against mpmath;
    # the reference forms 1 - z exactly, so 40 digits give the same errors as
    # 700 on these points.  Worst seen 2.2e-16, at the first point.
    points = _inversion_points()
    got = [dilog._stages("li2", p).log_1mz for p in points]
    errors = []
    with mp.workdps(40):
        for g, p in zip(got, points):
            want = _log_reference(p.z, p.side)[1]
            errors.append((float(abs(g - want) / abs(want)), p))
    assert [(err, p) for err, p in errors if not err <= 5e-16] == []


def test_double_precision_does_not_import_mpmath():
    # mpmath is imported on the first high-precision pass, not before:
    # its import would add to the start-up of every double-precision run,
    # and a dps refused for its size (10**308 digits overflow mpmath's
    # digits-to-bits conversion) is refused without it
    code = """
import cmath, sys
import extbloch
from extbloch import ccs, cover, li2
from extbloch.prebloch import eval_lhat, kappa_hat
li2(0.3 + 0.4j)
eval_lhat(kappa_hat())
shape = cover.flattened(cmath.exp(1j * cmath.pi / 3))
ccs.volume_report(ccs.FlattenedTriangulation(((shape, 1), (shape, 1)), "fig8"))
try:
    extbloch.set_precision("high", 10**308)
except ValueError:
    pass
print("mpmath" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}).stdout
    assert out == "False\n"


def test_high_precision_sweep_does_not_import_numpy():
    # numpy is not a dependency: mpmath alone carries the high precision mode
    code = """
import sys
from extbloch import SweepConfig, precision, run_sweep
with precision("high"):
    for relation in ("five-term", "symmetry-2", "splitting"):
        assert run_sweep(SweepConfig(relation, samples=3, seed=1)).failures == []
print("mpmath" in sys.modules, "numpy" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}).stdout
    assert out == "True False\n"


def test_public_names_are_pinned():
    # the public API stays as it is unless a change says otherwise
    assert extbloch.__all__ == [
        "CmodZ2", "CutPoint", "FlattenedFT", "FlattenedNumber", "FlattenedTriangulation", "FormalSum",
        "NecessaryZeroCheck", "RELATIONS", "Side", "SweepConfig", "SweepResult", "TriangulationFormatError",
        "WedgeExpr", "as_cut_point", "canonicalize", "check_chi_homomorphism", "chi_hat",
        "complex_volume", "curly", "curly_product_relation", "cycle_relation", "eval_lhat", "five_term_element",
        "flattened", "index_relations", "is_flattened_ft", "kappa_hat", "li2", "load", "log_one_minus",
        "log_param_l", "log_param_m", "make_flattened_ft", "mirror_relation", "nu_hat", "parse_flattened",
        "precision", "principal_log", "reduce_mod_transfer", "rogers_l_bar", "rogers_l_hat", "root4", "run_sweep",
        "serialize_flattened", "set_precision", "splitting", "symmetry_relation", "volume_report",
        "wedge_necessary_zero",
    ]
    assert all(hasattr(extbloch, name) for name in extbloch.__all__)


def test_every_imported_name_is_used():
    # a module keeps no import it no longer uses; __init__ imports to re-export
    unused = []
    for path in sorted(Path(extbloch.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


# ---------------------------------------------------------------------------
# accuracy against mpmath over the whole double range
# ---------------------------------------------------------------------------

def _accuracy_points():
    points = []
    for e in range(-300, 301, 10):
        r = 10.0**e
        for theta in (1e-9, 0.3, PI / 3, 1.2, 2.5, PI - 1e-9, -0.4, -2.0):
            points.append(CutPoint(cmath.rect(r, theta)))
        for side in (Side.ABOVE, Side.BELOW):
            points.append(CutPoint(complex(-r, 0.0), side))
            if 1.0 + r > 1.0:
                points.append(CutPoint(complex(1.0 + r, 0.0), side))
    for e in range(-15, 0):
        for theta in (0.1, 1.0, 2.0, 3.0, -1.5):
            points.append(CutPoint(1.0 + cmath.rect(10.0**e, theta)))
    # where x^2 + y^2, 2x or |z| overflow a double
    big = 1.7e308
    points += [CutPoint(complex(big, big)), CutPoint(complex(-big, -1e308))]
    for side in (Side.ABOVE, Side.BELOW):
        points += [CutPoint(complex(big, 0.0), side), CutPoint(complex(-big, 0.0), side)]
    return points


@pytest.fixture(scope="module")
def accuracy_cases():
    return [(p, li2_mpmath(p.z, p.side.value)) for p in _accuracy_points()]


@pytest.mark.parametrize("mode,bound", [("double", 2e-15), ("high", 1e-15)])
def test_li2_relative_accuracy_against_mpmath(accuracy_cases, mode, bound):
    # |z| from 1e-300 to 1e300 at eight arguments, both sides of both cuts,
    # a ring of radii 1e-15 .. 0.1 around z = 1, and |z| near the largest
    # double
    with precision(mode):
        errors = [(abs(li2(p) - ref) / abs(ref), p) for p, ref in accuracy_cases]
    assert [(err, p) for err, p in errors if not err <= bound] == []


def _inversion_region_points():
    # seeded points of the inversion region with |z| in (1, 2^32], where
    # Log(-z) = Log z -+ i pi and -Log(1-1/z) = Log(-z) - Log(1-z): |z| - 1 and
    # |1-z| - 1 down to 2^-52, arguments within 1e-15 of 0 and of +-pi, and
    # both sides of both cuts
    rng = random.Random(4771)
    points = []
    for _ in range(150):
        delta = 2.0 ** rng.uniform(-52, 0)
        theta = rng.choice((1, -1)) * rng.uniform(PI / 3, PI)
        points += [cmath.rect(1 + delta, theta), 1 - cmath.rect(1 + delta, theta)]
    for _ in range(100):
        r = 2.0 ** rng.uniform(0, 32)
        eps = rng.uniform(-1e-15, 1e-15)
        points += [cmath.rect(2 * r, eps), cmath.rect(r, PI - abs(eps)), cmath.rect(r, -PI + abs(eps))]
    points = [CutPoint(z) for z in points if abs(z) > 1 and abs(1 - z) > 1 and abs(z) <= 2.0**32]
    xs = [-(1 + 2.0**-52), 2 + 2.0**-51, -(2.0**32), 2.0**32]
    xs += [-(2.0 ** rng.uniform(0, 32)) for _ in range(40)] + [1 + 2.0 ** rng.uniform(0, 32) for _ in range(40)]
    return points + [CutPoint(complex(x, 0.0), side) for x in xs for side in (Side.ABOVE, Side.BELOW)]


@pytest.fixture(scope="module")
def inversion_region_cases():
    return [(p, li2_mpmath(p.z, p.side.value)) for p in _inversion_region_points()]


@pytest.mark.parametrize("mode,bound", [("double", 2e-15), ("high", 1e-15)])
def test_li2_inversion_region_against_mpmath(inversion_region_cases, mode, bound):
    assert len(inversion_region_cases) > 600
    with precision(mode):
        errors = [(abs(li2(p) - ref) / abs(ref), p) for p, ref in inversion_region_cases]
    assert [(err, p) for err, p in errors if not err <= bound] == []


def _far_points():
    # seeded points beyond 2^32 with |z| from 10^9.7 to 10^307.5, and both
    # sides of both cuts
    rng = random.Random(3071)
    points = []
    while len(points) < 400:
        z = cmath.rect(10.0 ** rng.uniform(9.7, 307.5), rng.uniform(-PI, PI))
        if dilog._far(z):
            points.append(CutPoint(z))
    for _ in range(40):
        r = 10.0 ** rng.uniform(9.7, 307.5)
        points += [CutPoint(complex(x, 0.0), side) for x in (-r, r) for side in (Side.ABOVE, Side.BELOW)]
    return points


@pytest.fixture(scope="module")
def far_cases():
    with mp.workdps(40):
        return [(p, _li2_mp(p.z, p.side.value)) for p in _far_points()]


@pytest.mark.parametrize("mode,bound", [("double", 2e-15), ("high", 2e-16)])
def test_li2_beyond_2_32_against_mpmath(far_cases, mode, bound):
    # beyond 2^32 Li2 z comes from the far-out form, which high precision
    # forms in its own numbers and rounds once: worst seen 1.1e-16 against
    # the unrounded 40-digit value in high precision (3.8e-16 in double, and
    # as much where high precision rounds the far-out parts to double first)
    with precision(mode):
        got = [(li2(p), p, ref) for p, ref in far_cases]
    with mp.workdps(40):
        errors = [(float(abs(g - ref) / abs(ref)), p) for g, p, ref in got]
    assert [(err, p) for err, p in errors if not err <= bound] == []


@pytest.mark.parametrize("mode", ["double", "high"])
def test_public_functions_read_the_kept_stages(kernel_primitives, mode):
    # after a Rogers value, li2, principal_log and log_one_minus of its base
    # point read the stages it keeps and take no logarithm (they took four)
    with precision(mode):
        for z, side in CACHE_POINTS:
            f = canonicalize(CutPoint(z, side), p=1, q=-2)
            rogers_l_bar(f)
            kernel_primitives.clear()
            values = li2(f.base), principal_log(f.base), log_one_minus(f.base)
            assert kernel_primitives == [], (z, side)
            fresh = CutPoint(f.base.z, f.base.side)
            assert values == (li2(fresh), principal_log(fresh), log_one_minus(fresh))
            assert (f.base == fresh, hash(f.base) == hash(fresh), repr(f.base) == repr(fresh)) == (True, True, True)


# the readers of a point's stages, each on a number over the point, with
# the logarithms and the series its first read takes
STAGE_READERS = {
    "principal_log": (lambda f: principal_log(f.base), {"log z"}),
    "log_one_minus": (lambda f: log_one_minus(f.base), {"log 1-z"}),
    "log_param_l": (log_param_l, {"log z"}),
    "log_param_m": (log_param_m, {"log 1-z"}),
    "nu_hat": (lambda f: nu_hat(FormalSum.single(f)), {"log z", "log 1-z"}),
    "li2": (lambda f: li2(f.base), {"log z", "log 1-z", "series"}),
    "rogers_l_bar": (rogers_l_bar, {"log z", "log 1-z", "series"}),
}
# an interior point, both sides of both cuts, and a point beyond 2**32
STAGE_POINTS = [(0.3 + 0.4j, Side.INTERIOR), (3 + 0j, Side.ABOVE), (3 + 0j, Side.BELOW),
                (-2 + 0j, Side.ABOVE), (-2 + 0j, Side.BELOW), (1e12 - 3e11j, Side.INTERIOR)]


@pytest.mark.parametrize("mode", ["double", "high"])
def test_every_order_of_readers_takes_each_primitive_once(kernel_primitives, monkeypatch, mode):
    # every ordered pair of readers on a fresh point, then every reader
    # again: the pair takes just the logarithms and series its stages need
    # (far out, the whole far-out pass: three logarithms and the series),
    # the rest only what the pair left, and each value is a fresh point's
    def with_series(arith):
        def series(w):
            kernel_primitives.append(("series", None))
            return arith.series(w)

        return arith._replace(series=series)

    high_arith = dilog._high_arith
    monkeypatch.setattr(dilog, "_DOUBLE", with_series(dilog._DOUBLE))
    monkeypatch.setattr(dilog, "_high_arith", lambda dps: with_series(high_arith(dps)))

    def over(point):  # a number over the point itself, below side too
        return _build(point, 1, -2)

    def taken():
        names = [name for name, _ in kernel_primitives]
        return names.count("log"), names.count("series")

    with precision(mode):
        for z, side in STAGE_POINTS:
            fresh = {name: repr(read(over(CutPoint(z, side)))) for name, (read, _) in STAGE_READERS.items()}
            full = (3, 1) if dilog._far(z) else (2, 1)
            for (a, (read_a, need_a)), (b, (read_b, need_b)) in itertools.product(STAGE_READERS.items(), repeat=2):
                f = over(CutPoint(z, side))
                kernel_primitives.clear()
                values = {a: repr(read_a(f)), b: repr(read_b(f))}
                need = need_a | need_b
                want = full if dilog._far(z) else (len(need - {"series"}), len(need & {"series"}))
                assert taken() == want, (z, side, a, b)
                assert values == {a: fresh[a], b: fresh[b]}, (z, side, a, b)
                values = {name: repr(read(f)) for name, (read, _) in STAGE_READERS.items()}
                assert taken() == full, (z, side, a, b)
                assert values == fresh, (z, side, a, b)


@pytest.mark.parametrize("mode", ["double", "high"])
def test_pass_log_one_minus_is_log_one_minus(mode):
    # log_one_minus reads the Log(1-z) a point's pass keeps
    points = _inversion_points() + _kernel_points()
    with precision(mode):
        differ = [p for p in points if repr(dilog._stages("li2", p).log_1mz) != repr(log_one_minus(p))]
    assert differ == []


ROGERS_INDICES = [(p, q) for p in (-3, 0, 2) for q in (-3, 0, 2)]


@pytest.fixture(scope="module")
def rogers_cases():
    # on the point set of the li2 test, plus radii between 1e2 and 1e10 and
    # on either side of 2^32, where the Rogers constant changes its formula,
    # at p, q in {-3, 0, 2}; and on seeded points beyond 2^32 with |z| up to
    # 1e300, off the cuts and on both sides of both, at indices up to 1000,
    # where pi i q Log z carries the half-plane of the far-out form: each
    # (z; 2p, 2q) in canonical form, and on the below side also as given,
    # against the mpmath value
    radii = (1.3e2, 1.3e5, 1.3e8, 4e9, 2.0**32 * (1 - 2**-20), 2.0**32 * (1 + 2**-20))
    angles = (1e-9, 0.3, PI / 3, 1.2, 2.5, PI - 1e-9, -0.4, -2.0)
    extra = [CutPoint(cmath.rect(r, theta)) for r in radii for theta in angles]
    for r in radii:
        extra += [CutPoint(complex(x, 0.0), side) for x in (-r, r) for side in (Side.ABOVE, Side.BELOW)]
    charts = [(point, p, q) for point in _accuracy_points() + extra for p, q in ROGERS_INDICES]
    rng = random.Random(5077)
    far = []
    while len(far) < 60:
        z = cmath.rect(10.0 ** rng.uniform(9.7, 300), rng.uniform(-PI, PI))
        if dilog._far(z):
            far.append(CutPoint(z))
    for _ in range(15):
        r = 10.0 ** rng.uniform(9.7, 300)
        far += [CutPoint(complex(x, 0.0), side) for x in (-r, r) for side in (Side.ABOVE, Side.BELOW)]
    for point in far:
        charts += [(point, rng.randint(-1000, 1000), rng.randint(-1000, 1000)) for _ in range(2)]
        charts.append((point, rng.choice((-1000, 1000)), rng.choice((-1000, 1000))))
    cases = []
    for point, p, q in charts:
        f = canonicalize(point, p=p, q=q)
        cases.append((rogers_l_bar, (f,), rogers_mpmath(f.z, f.base.side.value, f.p, f.q)))
        if point.side is Side.BELOW:
            args = (point.z, point.side, p, q)
            cases.append((l_bar_at, args, rogers_mpmath(point.z, "b", p, q)))
    return cases


@pytest.mark.parametrize("mode", ["double", "high"])
def test_rogers_l_bar_relative_accuracy_against_mpmath(rogers_cases, mode):
    # relative to max(1, |L|); the worst seen is 1.5e-15 in both modes, at
    # |z| between 1e8 and 4e9
    with precision(mode):
        errors = [(abs(fn(*args) - ref) / max(1.0, abs(ref)), args) for fn, args, ref in rogers_cases]
    assert [(err, args) for err, args in errors if not err <= 1e-14] == []


@pytest.mark.parametrize("z", [0.3 + 0.4j, 0.9 + 0.1j, -5 + 2j, 40 - 17j, 1e300 + 1e300j])
def test_one_kernel_pass_per_rogers_value(kernel_stages, z):
    calls = kernel_stages
    for mode in ("double", "high"):
        with precision(mode):
            rogers_l_bar(flattened(z, 1, -2))
    assert len(calls) == 2


def test_precision_mode_is_scoped_to_the_thread():
    # two threads hold different modes at once; each gets its own results
    points = [CutPoint(0.3 + 0.4j), CutPoint(-5 + 2j), CutPoint(2 + 0j, Side.ABOVE), CutPoint(0.99 + 0.001j)]
    values = {}
    for mode in ("double", "high"):
        with precision(mode):
            values[mode] = [(li2(p), l_bar_at(p.z, p.side, 1, -1)) for p in points]
    assert values["double"] != values["high"]  # the modes can be told apart
    barrier = threading.Barrier(2, timeout=60)
    seen = {}

    def worker(mode):
        with precision(mode):
            barrier.wait()  # both modes are now held at once
            got = []
            for p in points:
                got.append((li2(p), l_bar_at(p.z, p.side, 1, -1)))
                barrier.wait()  # interleave the evaluations
            seen[mode] = (got, get_precision())

    threads = [threading.Thread(target=worker, args=(m,)) for m in ("double", "high")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert seen["double"] == (values["double"], ("double", None))
    assert seen["high"] == (values["high"], ("high", 50))
    assert get_precision() == ("double", None)


# ---------------------------------------------------------------------------
# the kernel pass cached on the point
# ---------------------------------------------------------------------------

CACHE_POINTS = [(0.3 + 0.4j, Side.INTERIOR), (-5 + 2j, Side.INTERIOR), (3 + 0j, Side.ABOVE),
                (-2 + 0j, Side.BELOW), (0.99 + 0.001j, Side.INTERIOR), (1e12 - 3e11j, Side.INTERIOR),
                (-7e15 + 0j, Side.BELOW)]


def _rogers_stages(point):
    # (R, Log z, Log(1-z)): the slots a Rogers value reads
    st = dilog._stages("li2", point)
    return st.rogers, st.log_z, st.log_1mz


def test_point_pass_cache_is_keyed_by_precision():
    # a point evaluated in one mode gives, in another, exactly a fresh point's value
    shared = [CutPoint(z, side) for z, side in CACHE_POINTS]
    for mode in ("double", "high", "double", ("high", 60), "high"):
        mode, dps = mode if isinstance(mode, tuple) else (mode, 50)
        with precision(mode, dps):
            for p, (z, side) in zip(shared, CACHE_POINTS):
                assert _rogers_stages(p) == _rogers_stages(CutPoint(z, side)), (mode, dps, z)
    with precision("high"):
        high = [_rogers_stages(p) for p in shared]
    assert high != [_rogers_stages(p) for p in shared]  # the modes can be told apart


def test_point_pass_cache_is_invisible_to_equality_hash_and_repr():
    p, q = CutPoint(-5 + 2j), CutPoint(-5 + 2j)
    _rogers_stages(p)
    assert (p == q, hash(p) == hash(q), repr(p) == repr(q)) == (True, True, True)


def test_a_stage_read_while_it_is_stored_is_complete(monkeypatch):
    # another reader of the same point and mode (another thread, here a
    # re-entrant call from the conversion of the 50-digit Log z to complex)
    # can run between the stores of a stage: every field it finds set must
    # be complete, so its Rogers tuple holds no None
    point = CutPoint(-5 + 2j)
    entered, seen = [], []
    high_arith = dilog._high_arith

    def reentrant(dps):
        arith = high_arith(dps)

        def log(x, side, one_plus=False):
            out = arith.log(x, side, one_plus)

            class Reentrant(type(out)):
                __slots__ = ()

                def __complex__(self):
                    if not entered:
                        entered.append(True)
                        seen.append(_rogers_stages(point))
                    return super().__complex__()

            return Reentrant(out.v)

        return arith._replace(log=log)

    monkeypatch.setattr(dilog, "_high_arith", reentrant)
    with precision("high"):
        got = _rogers_stages(point)
    assert seen == [got] and None not in got


def test_point_pass_cache_shared_between_threads_of_two_modes():
    # the same point objects, evaluated at once by threads of both modes
    # (more threads than cores, short switch interval): a thread never
    # reads the other mode's pass
    shared = [canonicalize(z, side, 1, -1) for z, side in CACHE_POINTS]
    values = {}
    for mode in ("double", "high"):
        with precision(mode):
            values[mode] = [rogers_l_bar(canonicalize(f.z, f.base.side, f.p, f.q)) for f in shared]
    seen = []

    def worker(mode):
        with precision(mode):
            for _ in range(20):
                seen.append((mode, [rogers_l_bar(f) for f in shared]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(m,)) for m in ("double", "high") * 3]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 120
    assert all(got == values[mode] for mode, got in seen)


# ---------------------------------------------------------------------------
# input beyond the range of a double
# ---------------------------------------------------------------------------

def test_cut_point_names_an_int_beyond_a_double():
    # complex(10**400) raised OverflowError: int too large to convert to float
    with pytest.raises(ValueError) as err:
        CutPoint(10**400)
    assert str(err.value) == f"{10**400} is beyond the range of a double"


def test_li2_names_an_int_beyond_a_double():
    with pytest.raises(ValueError) as err:
        li2(-(10**400))
    assert str(err.value) == f"{-(10**400)} is beyond the range of a double"
    with pytest.raises(ValueError) as err:  # str() refuses an int of more than 4300 digits
        li2(10**5000)
    assert str(err.value) == f"of {(10**5000).bit_length()} bits is beyond the range of a double"
