import ast
import cmath
import copy
import dataclasses
import functools
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import extbloch
from extbloch import dilog, rogers
from extbloch.bloch import WedgeExpr, nu_hat
from extbloch.ccs import FlattenedTriangulation, load
from extbloch.cover import FlattenedNumber, canonicalize, flattened, log_param_l, log_param_m, make_flattened_ft
from extbloch.dilog import (
    CutPoint,
    Side,
    arg_cut,
    as_cut_point,
    li2,
    log_one_minus,
    precision,
    principal_log,
    set_precision,
)
from extbloch.prebloch import FormalSum, eval_lhat
from extbloch.rogers import CmodZ2, rogers_l_bar
from oracles import _li2_mp, l_bar_at, li2_mpmath, li2_reference, li2_series, rogers_mpmath

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
@example(1 + 0j)  # 1 is no point of the cut plane: building it raises, on either sign of zero
@example(complex(1.0, -0.0))
def test_principal_log_branch_window(z):
    if z == 1:
        with pytest.raises(ValueError, match="^0 and 1 are excluded from the cut plane$"):
            as_cut_point(z)
        return
    p = as_cut_point(z)
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
    arith = dilog._DOUBLE if mode == "double" else dilog._high_arith()
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
    with precision("high"):
        highs = [(li2(p), principal_log(p), log_one_minus(p)) for p in points]
    for (a1, b1, c1), (a2, b2, c2) in zip(doubles, highs):
        assert abs(a1 - a2) <= 1e-12 * max(1, abs(a1))
        assert abs(b1 - b2) <= 1e-13 * max(1, abs(b1))
        assert abs(c1 - c2) <= 1e-13 * max(1, abs(c1))


def test_high_precision_rounds_a_subnormal_part_once():
    # Re Log(1 - iy) = y^2 / 2 - O(y^4): ldexp rounded the part to 53 bits and then
    # again below 2^-1022, to 2.036859195725251e-308, 0.525 ulp off; 0.475 ulp is once
    with precision("high"):
        assert principal_log(1 - 2.018345458897089e-154j).real == 2.0368591957252504e-308


def test_precision_mode_validation():
    with pytest.raises(ValueError):
        precision("fast").__enter__()


def test_precision_takes_the_mode_only():
    # the high mode has one working precision, 50 digits: there is no dps to give
    with pytest.raises(TypeError):
        set_precision("high", 80)
    with pytest.raises(TypeError):
        precision("high", 80).__enter__()
    assert dilog._DPS.get() is None


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
    arith = dilog._high_arith()
    with mp.workdps(dps):
        bound = mp.ldexp(1, -(mp.mp.prec - 4))
        for z in _series_points():
            got, want = _mpc(arith.series(arith.point(z))), reference_series(dps, mp.mpc(z))
            assert complex(got) == complex(want), z
            assert abs(got - want) <= bound * abs(want), z


@pytest.mark.parametrize("ref_dps", [50, 80, 150])
def test_series_at_both_ends_of_its_length(ref_dps):
    # the series runs more terms as |w| grows: all of them at |w| = pi/3
    # and just inside it, the fewest at |w| = 1e-300; the kernel works at 50
    # digits, the reference at 50 digits and at two finer precisions
    arith = dilog._high_arith()
    with mp.workdps(50):
        bound = mp.ldexp(1, -(mp.mp.prec - 4))
    with mp.workdps(ref_dps):
        for r in (PI / 3, PI / 3 * (1 - 1e-12), 1e-300):
            for theta in (0.0, 0.3, PI / 2, 1.9, PI, -0.8, -2.6):
                z = cmath.rect(r, theta)
                got, want = _mpc(arith.series(arith.point(z))), reference_series(ref_dps, mp.mpc(z))
                assert complex(got) == complex(want), z
                assert abs(got - want) <= bound * abs(want), z


def _table_points():
    # values whose reductions take every table entry: |v|^2 = 4^k (j + u) / 2^8
    # for the ln table, j = 192 .. 384 (u keeps the reduced index at j), and
    # v = 2^k (1 + i j/2^8) put in a seeded octant for the atan table, j = 0 .. 256
    rng = random.Random(29)
    points = []
    for j in range(192, 385):
        u = rng.uniform(0.0 if j == 192 else -0.4, 0.0 if j == 384 else 0.4)
        r = math.ldexp(math.sqrt((j + u) / 256), rng.randint(-40, 40))
        points.append(cmath.rect(r, rng.uniform(-PI, PI)))
    for j in range(257):
        a = math.ldexp(1.0, rng.randint(-40, 40))
        b = a * j / 256
        a, b = (b, a) if rng.random() < 0.5 else (a, b)
        points.append(complex(rng.choice((-a, a)), rng.choice((-b, b))))
    return points


@pytest.mark.parametrize("dps", [50])
def test_constants_against_mpmath(dps):
    # the kernel's own pi, pi^2/6, ln 2 and table entries, read through its
    # hooks: Log v over every table entry and the constants i pi and zeta(2),
    # each within a few units of the kernel's base scale, which i pi is at
    # (the working precision plus its guard bits; worst seen 2^-(bits - 1))
    arith = dilog._high_arith()
    bound = mp.ldexp(1, -(arith.i_pi.v[2] - 4))
    got = [_mpc(arith.log(arith.point(v), Side.INTERIOR)) for v in _table_points()]
    with mp.workdps(dps + 20):
        for v, g in zip(_table_points(), got):
            want = mp.log(mp.mpc(v))
            assert abs(g - want) <= bound * abs(want), (v, g, want)
        assert abs(_mpc(arith.i_pi) - mp.mpc(0, mp.pi)) <= bound * mp.pi
        assert abs(_mpc(arith.zeta2) - mp.pi**2 / 6) <= bound * mp.pi**2 / 6


def test_high_pass_leaves_mpmath_context_alone(pass_primitives):
    # a high-precision pass works at its own precision: mpmath's process-wide
    # context keeps the caller's 15 digits throughout
    with mp.workdps(15), precision("high"):
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
    # threads in double and in high precision share no precision setting: each
    # value equals its single-threaded value, and mpmath's context is untouched
    rng = random.Random(14)
    points = [cmath.rect(10.0 ** rng.uniform(-3, 3), rng.uniform(-PI, PI)) for _ in range(300)]

    def run(mode):
        with precision(mode):
            return [(li2(p), principal_log(p), log_one_minus(p)) for p in map(CutPoint, points)]

    want = {mode: run(mode) for mode in ("double", "high")}
    assert want["double"] != want["high"]  # the modes can be told apart
    before = mp.mp.dps
    got = {mode: [] for mode in want}
    barrier = threading.Barrier(len(want))

    def worker(mode):
        barrier.wait()
        for _ in range(4):
            got[mode].append(run(mode))

    threads = [threading.Thread(target=worker, args=(mode,)) for mode in want]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for mode, rounds in got.items():
        assert len(rounds) == 4
        for values in rounds:
            assert [(z, v) for z, v, w in zip(points, values, want[mode]) if v != w] == []
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


@pytest.mark.parametrize("dps", [50])
def test_kernel_accuracy_at_working_precision(dps):
    # the high-precision kernel keeps its digits at the working precision,
    # not only after rounding to a double
    arith = dilog._high_arith()
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


@pytest.mark.parametrize("dps", [50])
def test_high_log_and_li2_at_working_precision(dps):
    # Log z, Log(1-z) and Li2 z of one high-precision kernel pass against
    # mpmath at 20 more digits, relative to each value, and on the points
    # with a tiny part also each part relative to its own size; Log(1-z)
    # comes from the inversion identity on the edge points
    arith = dilog._high_arith()
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
    got = [dilog._pass(p).log_1mz for p in points]
    errors = []
    with mp.workdps(40):
        for g, p in zip(got, points):
            want = _log_reference(p.z, p.side)[1]
            errors.append((float(abs(g - want) / abs(want)), p))
    assert [(err, p) for err, p in errors if not err <= 5e-16] == []


def _python(code, cwd=None):
    # stdout of a fresh interpreter that runs code on this checkout
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}).stdout


def test_double_precision_does_not_import_mpmath():
    # no pass imports mpmath: its import would add to the start-up of
    # every run
    code = """
import cmath, sys
from extbloch import ccs, cover, li2
from extbloch.prebloch import eval_lhat, kappa_hat
li2(0.3 + 0.4j)
eval_lhat(kappa_hat())
shape = cover.flattened(cmath.exp(1j * cmath.pi / 3))
ccs.volume_report(ccs.FlattenedTriangulation(((shape, 1), (shape, 1)), "fig8"))
print("mpmath" in sys.modules)
"""
    assert _python(code) == "False\n"


def test_high_precision_sweep_does_not_import_numpy():
    # no numerics library is a dependency: the high precision mode sums its own constants
    code = """
import sys
from extbloch import SweepConfig, precision, run_sweep
with precision("high"):
    for relation in ("five-term", "symmetry-2", "splitting"):
        assert run_sweep(SweepConfig(relation, samples=3, seed=1)).failures == []
print("mpmath" in sys.modules, "numpy" in sys.modules)
"""
    assert _python(code) == "False False\n"


def test_public_names_are_pinned():
    # the public API stays as it is unless a change says otherwise
    assert extbloch.__all__ == [
        "CmodZ2", "CutPoint", "FlattenedFT", "FlattenedNumber", "FlattenedTriangulation", "FormalSum",
        "NecessaryZeroCheck", "RELATIONS", "Side", "SweepConfig", "SweepResult", "TriangulationFormatError",
        "WedgeExpr", "as_cut_point", "canonicalize", "chi_hat",
        "complex_volume", "curly", "curly_product_relation", "cycle_relation", "eval_lhat", "five_term_element",
        "flattened", "index_relations", "is_flattened_ft", "kappa_hat", "li2", "load", "log_one_minus",
        "log_param_l", "log_param_m", "make_flattened_ft", "mirror_relation", "nu_hat", "parse_flattened",
        "precision", "principal_log", "reduce_mod_transfer", "rogers_l_bar", "rogers_l_hat", "root4", "run_sweep",
        "serialize_flattened", "set_precision", "splitting", "symmetry_relation", "volume_report",
        "wedge_necessary_zero",
    ]
    assert all(hasattr(extbloch, name) for name in extbloch.__all__)


def test_high_precision_runs_without_mpmath(tmp_path):
    # with mpmath blocked, the sweeps of every relation, a ccs report and
    # `python -m extbloch check` all run in high precision
    (tmp_path / "fig8.tri").write_text("+1 0.5 0.8660254037844386 i 0 0\n" * 2)
    code = """
import contextlib, io, json, runpy, sys
sys.modules["mpmath"] = None
from extbloch import RELATIONS, SweepConfig, precision, run_sweep
from extbloch.cli import main
with precision("high"):
    for relation in RELATIONS:
        assert run_sweep(SweepConfig(relation, samples=2, seed=1)).failures == [], relation
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert main(["ccs", "fig8.tri", "--precision", "high", "--format", "structured"]) == 0
print(json.loads(out.getvalue())["value_im"])
sys.argv = ["extbloch", "check", "five-term", "--precision", "high", "--samples", "10"]
runpy.run_module("extbloch", run_name="__main__", alter_sys=True)
"""
    out = _python(code, cwd=tmp_path).splitlines()
    assert float(out[0]) == pytest.approx(2.029883212819307, rel=1e-15)  # the figure-eight knot's volume
    assert out[-1] == "status: PASS"


def test_a_run_imports_only_the_modules_it_uses():
    # a bare import loads no submodule; each public name and submodule
    # resolves on first use; `check` loads neither bloch nor ccs
    code = """
import contextlib, io, runpy, sys
import extbloch
print(sorted(m for m in sys.modules if m.startswith("extbloch.")))
print(extbloch.cli is sys.modules["extbloch.cli"])
sys.argv = ["extbloch", "check", "five-term", "--samples", "10"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    runpy.run_module("extbloch", run_name="__main__", alter_sys=True)
print("extbloch.bloch" in sys.modules, "extbloch.ccs" in sys.modules)
names = {}
exec("from extbloch import *", names)
print(sorted(set(names) & set(extbloch.__all__)) == extbloch.__all__ and len(extbloch.__all__) == 48)
modules = ("bloch", "ccs", "cli", "cover", "dilog", "prebloch", "rogers", "sweeps")
print(all(getattr(extbloch, m) is sys.modules["extbloch." + m] for m in modules))
"""
    assert _python(code).splitlines() == ["[]", "True", "False False", "True", "True"]


def test_a_public_name_is_read_from_its_module_on_each_use(monkeypatch):
    # nothing is kept on the package, so a wrapper bound over the defining
    # module's attribute (as a tracer binds one) is what the package gives
    monkeypatch.setattr(dilog, "li2", "wrapped")
    assert extbloch.li2 == "wrapped" and "li2" not in vars(extbloch)
    assert not hasattr(extbloch, "no_such_name")


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


def _type_error_raisers(node, function, found):
    # (function, line) of each "raise TypeError" under node, by its innermost enclosing function
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _type_error_raisers(child, child.name, found)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id == "TypeError":
                found.append((function, child.lineno))
        _type_error_raisers(child, function, found)


def test_every_type_check_is_one_of_dilogs_helpers():
    # no hand-written isinstance-then-raise: a TypeError comes from dilog's
    # argument checks, or from ccs.load for a source of neither accepted kind
    helpers = {("dilog.py", name) for name in ("_integer", "_real", "_as_complex", "_check_type", "_iterable", "_fields")}
    raisers = set()
    for path in sorted(Path(extbloch.__file__).parent.glob("*.py")):
        found = []
        _type_error_raisers(ast.parse(path.read_text(encoding="utf-8")), None, found)
        raisers |= {(path.name, function) for function, _ in found}
    assert raisers == helpers | {("ccs.py", "load")}


def test_no_module_names_an_instance_dict():
    # every value type keeps its fields in slots, and a point its kernel record
    # in the _pass slot, so no module reads or writes an instance dict
    named = []
    for path in sorted(Path(extbloch.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "__dict__"
                    or isinstance(node, ast.Name) and node.id == "__dict__"
                    or isinstance(node, ast.Constant) and node.value == "__dict__"):
                named.append(f"{path.name}:{node.lineno}")
    assert named == []


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


def _left_of_minus_one_points():
    # seeded points left of -1 on both sides of the axis: Re z in (-1000, -1)
    # with |Im z| from 1e-300 to 1, where 4 |Im z| < -Re z holds for most, and
    # Re z in (-4, -1) with 4 |Im z| >= -Re z, up to |Im z| = 1
    rng = random.Random(1061)
    points = [-2.75662837051682 + 5.1763481622196476e-83j, -2.6039566911792997 + 1.066636e-317j]
    for _ in range(240):
        x = -(10.0 ** rng.uniform(0, 3))
        points.append(complex(x, rng.choice((1, -1)) * 10.0 ** rng.uniform(-300, 0)))
    for _ in range(60):
        x = -rng.uniform(1, 4)
        points.append(complex(x, rng.choice((1, -1)) * rng.uniform(-x / 4, 1)))
    return [z for z in points if z.real < -1]


def test_li2_left_of_minus_one_is_right_part_by_part():
    # Im Li2 z is far below |Li2 z| near the left cut, so the whole value's
    # accuracy does not bound it.  References: for |Im z| <= 1e-8 the first
    # order form Im Li2(x + iy) = -y ln(1 - x) / x + O(y^3); otherwise, and
    # for every real part, the high-precision kernel at 50 digits (mpmath's
    # polylog is itself wrong here).
    worst = []
    for z in _left_of_minus_one_points():
        with precision("high"):
            ref = li2(z)
        if abs(z.imag) <= 1e-8:
            with mp.workdps(40):
                x, y = mp.mpf(z.real), mp.mpf(z.imag)
                ref = complex(ref.real, float(-y * mp.log(1 - x) / x))
        got = li2(z)
        bound = 1e-15 if 4 * abs(z.imag) < -z.real else 4e-15
        # a subnormal part is kept to steps of 2^-1074 only: a few are allowed
        worst += [(z, part) for part, g, r in (("re", got.real, ref.real), ("im", got.imag, ref.imag))
                  if not abs(g - r) <= bound * abs(r) + 4 * math.ulp(0.0)]
    assert worst == []


@pytest.mark.parametrize("mode", ["double", "high"])
def test_public_functions_read_the_kept_stages(kernel_primitives, mode):
    # after a Rogers value, li2, principal_log and log_one_minus of its base
    # point read the record its pass keeps and take no logarithm (they took four)
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


# the readers of a point's pass, each on a number over the point, and
# whether it takes the whole pass (else Log z alone)
PASS_READERS = {
    "principal_log": (lambda f: principal_log(f.base), False),
    "log_one_minus": (lambda f: log_one_minus(f.base), True),
    "log_param_l": (log_param_l, False),
    "log_param_m": (log_param_m, True),
    "nu_hat": (lambda f: nu_hat(FormalSum.single(f)), True),
    "li2": (lambda f: li2(f.base), True),
    "rogers_l_bar": (rogers_l_bar, True),
    "linear-C=P=0": (lambda f: rogers._linear(f.base, 0, 0, 3), False),
    "linear-C=0": (lambda f: rogers._linear(f.base, 0, -2, 3), True),
}
# an interior point, both sides of both cuts, and a point beyond 2**32
PASS_POINTS = [(0.3 + 0.4j, Side.INTERIOR), (3 + 0j, Side.ABOVE), (3 + 0j, Side.BELOW),
               (-2 + 0j, Side.ABOVE), (-2 + 0j, Side.BELOW), (1e12 - 3e11j, Side.INTERIOR)]


@pytest.fixture
def kernel_calls(kernel_primitives, monkeypatch):
    """What ``kernel_primitives`` records, and ("series", None) for each series."""
    def with_series(arith):
        def series(w):
            kernel_primitives.append(("series", None))
            return arith.series(w)

        return arith._replace(series=series)

    high_arith = dilog._high_arith
    monkeypatch.setattr(dilog, "_DOUBLE", with_series(dilog._DOUBLE))
    monkeypatch.setattr(dilog, "_high_arith", lambda: with_series(high_arith()))
    return kernel_primitives


def _over(point):
    # a number over the point itself, below side too, so built unchecked
    f = object.__new__(FlattenedNumber)
    object.__setattr__(f, "base", point)
    object.__setattr__(f, "p", 1)
    object.__setattr__(f, "q", -2)
    return f


def _taken(calls):
    names = [name for name, _ in calls]
    return names.count("log"), names.count("series")


def _record_is_whole(point):
    # the point keeps a record of the current mode with every field set
    record = getattr(point, "_pass", None)
    return record.dps == dilog._DPS.get() and all(type(v) is complex for v in record[1:])


@pytest.mark.parametrize("mode", ["double", "high"])
def test_every_order_of_readers_takes_the_pass_once(kernel_calls, mode):
    # every ordered pair of readers on a fresh point, then every reader
    # again.  A whole-pass reader runs the pass unless it is kept (two
    # logarithms and the series; far out three logarithms), and a Log z
    # reader takes one logarithm unless a pass is kept; the point keeps no
    # record until a whole pass ran, then a whole one, and each value is a
    # fresh point's
    def taken_by(wholes, far):
        logs = series = 0
        for whole in wholes:
            if whole:
                return logs + (3 if far else 2), series + 1
            logs += 1
        return logs, series

    everyone = [whole for _, whole in PASS_READERS.values()]
    with precision(mode):
        for z, side in PASS_POINTS:
            far = dilog._far(z)
            fresh = {name: repr(read(_over(CutPoint(z, side)))) for name, (read, _) in PASS_READERS.items()}
            for (a, (read_a, whole_a)), (b, (read_b, whole_b)) in itertools.product(PASS_READERS.items(), repeat=2):
                f = _over(CutPoint(z, side))
                kernel_calls.clear()
                values = {a: repr(read_a(f)), b: repr(read_b(f))}
                assert _taken(kernel_calls) == taken_by([whole_a, whole_b], far), (z, side, a, b)
                assert values == {a: fresh[a], b: fresh[b]}, (z, side, a, b)
                assert (getattr(f.base, "_pass", None) is not None) == (whole_a or whole_b), (z, side, a, b)
                values = {name: repr(read(f)) for name, (read, _) in PASS_READERS.items()}
                assert _taken(kernel_calls) == taken_by([whole_a, whole_b, *everyone], far), (z, side, a, b)
                assert values == fresh, (z, side, a, b)
                assert _record_is_whole(f.base), (z, side, a, b)


@pytest.mark.parametrize("mode", ["double", "high"])
def test_one_off_principal_log_takes_one_logarithm_and_keeps_nothing(kernel_calls, mode):
    # principal_log on a fresh point takes one logarithm and no series and
    # leaves no record; li2 after it runs the whole pass, and each value has
    # the bits it has on a fresh point
    with precision(mode):
        for z, side in PASS_POINTS + CACHE_POINTS:
            point = CutPoint(z, side)
            kernel_calls.clear()
            log_z = principal_log(point)
            assert _taken(kernel_calls) == (1, 0) and getattr(point, "_pass", None) is None, (z, side)
            li = li2(point)
            assert _record_is_whole(point), (z, side)
            assert (repr(log_z), repr(li)) == (repr(principal_log(CutPoint(z, side))), repr(li2(CutPoint(z, side))))


@pytest.mark.parametrize("mode", ["double", "high"])
def test_pass_log_one_minus_is_log_one_minus(mode):
    # log_one_minus reads the Log(1-z) a point's pass keeps
    points = _inversion_points() + _kernel_points()
    with precision(mode):
        differ = [p for p in points if repr(dilog._pass(p).log_1mz) != repr(log_one_minus(p))]
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
def test_one_kernel_pass_per_rogers_value(kernel_passes, z):
    calls = kernel_passes
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
            seen[mode] = (got, dilog._DPS.get())

    threads = [threading.Thread(target=worker, args=(m,)) for m in ("double", "high")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert seen["double"] == (values["double"], None)
    assert seen["high"] == (values["high"], 50)
    assert dilog._DPS.get() is None


# ---------------------------------------------------------------------------
# the kernel pass cached on the point
# ---------------------------------------------------------------------------

CACHE_POINTS = [(0.3 + 0.4j, Side.INTERIOR), (-5 + 2j, Side.INTERIOR), (3 + 0j, Side.ABOVE),
                (-2 + 0j, Side.BELOW), (0.99 + 0.001j, Side.INTERIOR), (1e12 - 3e11j, Side.INTERIOR),
                (-7e15 + 0j, Side.BELOW)]


def _rogers_record(point):
    # (R, Log z, Log(1-z)): the fields a Rogers value reads
    record = dilog._pass(point)
    return record.rogers, record.log_z, record.log_1mz


def test_point_pass_cache_is_keyed_by_precision():
    # a point evaluated in one mode gives, in another, exactly a fresh point's value
    shared = [CutPoint(z, side) for z, side in CACHE_POINTS]
    for mode in ("double", "high", "double", "high"):
        with precision(mode):
            for p, (z, side) in zip(shared, CACHE_POINTS):
                assert _rogers_record(p) == _rogers_record(CutPoint(z, side)), (mode, z)
    with precision("high"):
        high = [_rogers_record(p) for p in shared]
    assert high != [_rogers_record(p) for p in shared]  # the modes can be told apart


def test_point_pass_cache_is_invisible_to_equality_hash_and_repr():
    p, q = CutPoint(-5 + 2j), CutPoint(-5 + 2j)
    _rogers_record(p)
    assert (p == q, hash(p) == hash(q), repr(p) == repr(q)) == (True, True, True)


@pytest.mark.parametrize("mode", ["double", "high"])
def test_a_copied_point_keeps_no_record_and_runs_its_own_pass(mode):
    # the record is in a slot that is no field: a pickle or copy of a point
    # leaves it unset, and the first read of the copy runs the same pass
    point = CutPoint(-2 + 0j, Side.BELOW)
    with precision(mode):
        want = li2(point)
        for other in (pickle.loads(pickle.dumps(point)), copy.copy(point), copy.deepcopy(point)):
            assert other == point and getattr(other, "_pass", None) is None
            assert li2(other) == want and other._pass == point._pass


def test_the_record_slot_is_no_field_and_no_value_has_an_instance_dict():
    # each value type stores its fields in slots, and the fields are the constructor's
    values = [value for value, _ in _value_of_each_type()]
    assert {type(v).__name__: [f.name for f in dataclasses.fields(v)] for v in values} == {
        "CutPoint": ["z", "side"], "FlattenedNumber": ["base", "p", "q"], "FormalSum": ["terms"],
        "WedgeExpr": ["terms"], "FlattenedFT": ["entries"], "FlattenedTriangulation": ["simplices", "name"],
        "CmodZ2": ["value"],
    }
    t = load(Path(__file__).parent / "data" / "volume_excerpt.tri")
    values += [t, *(shape for shape, _ in t.simplices), *(shape.base for shape, _ in t.simplices)]
    assert all(li2(shape.base) == shape.base._pass.li2 for shape, _ in t.simplices)  # each point keeps its record
    assert [v for v in values if hasattr(v, "__dict__")] == []


def _points_of(value):
    if isinstance(value, CutPoint):
        return [value]
    if isinstance(value, FlattenedNumber):
        return [value.base]
    return [gen.base for _, gen in value.terms]


@pytest.mark.parametrize("mode", ["double", "high"])
def test_values_pickle_and_copy_as_their_fields(mode):
    # the record a pass keeps on a point stays behind: a high pass's numbers
    # are of a class local to the kernel, which pickle cannot name, and a
    # double pass's would more than double a pickled point
    point = CutPoint(-2 + 0j, Side.BELOW)
    gen = flattened(0.3 + 0.4j, 2, -1)
    total = FormalSum(((2, gen), (-1, flattened(3 + 0j, 0, 1)), (1, flattened(1e12 - 3e11j))))
    with precision(mode):
        li2(point)
        eval_lhat(total)
    for value in (point, gen, total):
        assert all(getattr(p, "_pass", None) is not None for p in _points_of(value))
        copies = [pickle.loads(pickle.dumps(value)), copy.deepcopy(value)]
        if isinstance(value, CutPoint):
            copies.append(copy.copy(value))
        for other in copies:
            assert other == value and type(other) is type(value)
            assert [p for p in _points_of(other) if getattr(p, "_pass", None) is not None] == []
    assert len(pickle.dumps(point)) == len(pickle.dumps(CutPoint(-2 + 0j, Side.BELOW)))


def _value_of_each_type():
    # one value of every value type, and a change of one field that it takes
    f = flattened(0.3 + 0.4j, 2, -1)
    return [
        (CutPoint(-2 + 0j, Side.BELOW), {"side": Side.ABOVE}),
        (f, {"q": 5}),
        (FormalSum(((2, f), (-1, flattened(3 + 0j, 0, 1)))), {"terms": ((1, f), (2, f))}),
        (WedgeExpr(((1, 1 + 2j, 3 - 9j), (2, -1j, 0.5 + 0j))), {"terms": ((3, 2 + 0j, 1j),)}),
        (make_flattened_ft(0.3 + 0.2j, 0.4 + 0.9j), {"entries": make_flattened_ft(0.3 + 0.2j, 0.4 + 0.9j, 1).entries}),
        (FlattenedTriangulation(((f, 1), (flattened(3 + 0j), -1)), "t"), {"name": "u"}),
        (CmodZ2(1 + 2j), {"value": 30 + 1j}),
    ]


@pytest.mark.parametrize("value,change", _value_of_each_type(),
                         ids=[type(value).__name__ for value, _ in _value_of_each_type()])
def test_every_value_type_round_trips_through_pickle_copy_and_replace(value, change):
    # the field names are the constructor's keywords: replace builds through
    # it, with every field given by keyword, and runs its checks again
    for other in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value), dataclasses.replace(value)):
        assert other == value and type(other) is type(value)
        assert (hash(other), repr(other)) == (hash(value), repr(value))
    changed = dataclasses.replace(value, **change)
    fields = {field.name: getattr(value, field.name) for field in dataclasses.fields(value)}
    assert changed != value and changed == type(value)(**{**fields, **change})
    assert pickle.loads(pickle.dumps(changed)) == copy.deepcopy(changed) == changed


def test_a_stage_read_while_it_is_stored_is_complete(monkeypatch):
    # another reader of the same point and mode (another thread, here a
    # re-entrant call from the conversion of the 50-digit Log z to complex)
    # can run while the point's pass runs: the point then keeps no record,
    # so the reader runs a whole pass of its own, with the same values
    point = CutPoint(-5 + 2j)
    entered, seen = [], []
    high_arith = dilog._high_arith

    def reentrant():
        arith = high_arith()

        def log(x, side, one_plus=False):
            out = arith.log(x, side, one_plus)

            class Reentrant(type(out)):
                __slots__ = ()

                def __complex__(self):
                    if not entered:
                        entered.append(getattr(point, "_pass", None) is not None)
                        seen.append(_rogers_record(point))
                    return super().__complex__()

            return Reentrant(out.v)

        return arith._replace(log=log)

    monkeypatch.setattr(dilog, "_high_arith", reentrant)
    with precision("high"):
        got = _rogers_record(point)
    assert entered == [False] and seen == [got] and None not in got


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
