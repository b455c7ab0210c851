import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from extbloch.cover import canonicalize, flattened
from extbloch.dilog import Side
from extbloch.rogers import (
    FOUR_PI_SQ,
    TWO_PI_SQ,
    CmodZ2,
    l_bar_at,
    reduce_into,
    reduce_mod_transfer,
    rogers_l_bar,
    rogers_l_hat,
)
from continuation import commutator_monodromy, continue_rogers
from oracles import classical_rogers

PI = math.pi


# ---------------------------------------------------------------------------
# CmodZ2
# ---------------------------------------------------------------------------

def test_canonical_window():
    assert CmodZ2(complex(FOUR_PI_SQ + 1.0, 2.0)).value == pytest.approx(1.0 + 2.0j)
    assert CmodZ2(complex(-TWO_PI_SQ, 0.0)).value.real == pytest.approx(TWO_PI_SQ)
    assert CmodZ2(complex(TWO_PI_SQ, 0.0)).value.real == pytest.approx(TWO_PI_SQ)


@given(st.floats(-1e4, 1e4), st.floats(-50, 50), st.integers(-100, 100))
def test_lattice_shift_invisible(re, im, k):
    a = CmodZ2(complex(re, im))
    b = CmodZ2(complex(re + FOUR_PI_SQ * k, im))
    assert a.distance_to(b) <= 1e-9 * max(1, abs(re))


@given(st.floats(-1e4, 1e4), st.floats(-50, 50))
def test_canonical_form_in_window(re, im):
    v = CmodZ2(complex(re, im)).value
    assert -TWO_PI_SQ < v.real <= TWO_PI_SQ + 1e-12
    assert v.imag == im


def test_wraparound_equality_at_window_edge():
    a = CmodZ2(complex(TWO_PI_SQ - 1e-13, 0))
    b = CmodZ2(complex(-TWO_PI_SQ + 1e-13, 0))
    assert a.equals(b, tol=1e-9)


def test_imaginary_part_never_reduced():
    v = CmodZ2(complex(0.0, 5 * FOUR_PI_SQ))
    assert v.value.imag == 5 * FOUR_PI_SQ


def test_algebra():
    a = CmodZ2(1 + 2j)
    b = CmodZ2(3 - 1j)
    assert (a + b).value == pytest.approx(4 + 1j)
    assert (a - b).value == pytest.approx(-2 + 3j)
    assert (3 * a).value == pytest.approx(3 + 6j)
    assert (-a).value == pytest.approx(-1 - 2j)


def test_serialize():
    assert CmodZ2(1.5 + 0.25j).serialize() == "1.5 0.25"


def test_split_overflow_names_the_value():
    # |split| = exp(Im value / 2 pi): past Im value = 709.78 * 2 pi it overflows
    assert abs(CmodZ2(complex(1.0, 4459.0)).split()) == pytest.approx(math.exp(4459.0 / (2 * PI)))
    with pytest.raises(ValueError, match=r"overflows at value \(1\+4461j\)"):
        CmodZ2(complex(1.0, 4461.0)).split()
    assert CmodZ2(complex(1.0, -1e300)).split() == 0  # underflow is not an error


@pytest.mark.parametrize("value", [
    complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 1.0), complex(1.0, -math.inf),
])
def test_non_finite_value_is_named(value):
    # nan was accepted silently, and inf ended in "math domain error"
    with pytest.raises(ValueError, match=r"is not a finite value of C mod 4 pi\^2") as exc:
        CmodZ2(value)
    assert repr(value) in str(exc.value)


@pytest.mark.parametrize("k", [10**400, -(10**400), 2**1024], ids=["1e400", "-1e400", "2^1024"])
def test_multiple_names_a_coefficient_beyond_a_double(k):
    # int * complex converts k to a double: this raised OverflowError
    with pytest.raises(ValueError) as err:
        k * CmodZ2(1)
    assert str(err.value) == f"coefficient {k} is too large for double arithmetic"


def test_constructor_names_an_int_beyond_a_double():
    # complex(10**400) raised OverflowError: int too large to convert to float
    with pytest.raises(ValueError) as err:
        CmodZ2(10**400)
    assert str(err.value) == f"{10**400} is beyond the range of a double"


def test_sum_and_difference_with_a_non_element_are_type_errors():
    # other.value raised AttributeError on an int
    for op in (lambda: CmodZ2(1) + 5, lambda: CmodZ2(1) - 5, lambda: 5 + CmodZ2(1), lambda: 2.5 - CmodZ2(1)):
        with pytest.raises(TypeError):
            op()
    assert CmodZ2(1) + CmodZ2(2) == CmodZ2(3) and CmodZ2(3) - CmodZ2(2) == CmodZ2(1)


def test_reduce_into_half_open():
    assert reduce_into(5.0, 4.0) == pytest.approx(1.0)
    assert reduce_into(-2.0, 4.0) == pytest.approx(2.0)  # open at -period/2
    assert reduce_into(2.0, 4.0) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# the branch-corrected Rogers function
# ---------------------------------------------------------------------------

def test_l_bar_at_half():
    assert rogers_l_bar(flattened(0.5)) == pytest.approx(-PI**2 / 12)


@pytest.mark.parametrize("p,q,error", [
    (10**400, 1, ValueError),  # raised a bare OverflowError
    (10**200, 10**200, ValueError),  # raised a bare OverflowError
    (1.5, 0, TypeError),  # returned a value
    (2**60, 0, ValueError),  # returned a value
], ids=["p=10**400", "p=q=10**200", "p=1.5", "p=2**60"])
def test_l_bar_at_checks_the_indices_as_flattened_does(p, q, error):
    with pytest.raises(error) as info:
        l_bar_at(0.3 + 0.4j, "i", p, q)
    if error is ValueError:
        assert str(info.value) == "branch index p is beyond 2**53 in magnitude"
    with pytest.raises(error):
        flattened(0.3 + 0.4j, p, q)


def test_l_bar_direct_formula_interior():
    from extbloch.dilog import CutPoint, li2, log_one_minus, principal_log

    z = 0.3 + 0j
    p = CutPoint(z)
    expected = li2(p) + 0.5 * principal_log(p) * log_one_minus(p) - PI**2 / 6
    assert rogers_l_bar(flattened(z)) == pytest.approx(expected)


def test_right_cut_jump_is_four_pi_sq_p():
    # crossing the right cut while bumping q compensates up to 4 pi^2 p
    for p in (1, 2, -3):
        for q in (0, 2, -1):
            jump = l_bar_at(2 + 0j, Side.ABOVE, p, q) - l_bar_at(
                2 + 0j, Side.BELOW, p, q + 1
            )
            assert jump == pytest.approx(FOUR_PI_SQ * p, abs=1e-10)


def test_left_cut_no_jump():
    for p in (0, 1, -2):
        gap = l_bar_at(-3 + 0j, Side.ABOVE, p, 2) - l_bar_at(-3 + 0j, Side.BELOW, p + 1, 2)
        assert abs(gap) <= 1e-12


def test_lhat_well_defined_on_identifications():
    a = rogers_l_hat(canonicalize(-2 + 0j, Side.ABOVE, 0, 0))
    b = rogers_l_hat(canonicalize(-2 + 0j, Side.BELOW, 1, 0))
    assert a.equals(b, tol=1e-12)
    c = rogers_l_hat(canonicalize(2 + 0j, Side.ABOVE, 1, 0))
    d = rogers_l_hat(canonicalize(2 + 0j, Side.BELOW, 1, 1))
    assert c.equals(d, tol=1e-12)


def test_lhat_well_defined_random_boundary():
    rng = random.Random(37)
    for _ in range(200):
        x = rng.uniform(-40.0, -0.01)
        p, q = rng.randint(-5, 5), rng.randint(-5, 5)
        above = CmodZ2(l_bar_at(x + 0j, Side.ABOVE, p, q))
        below = CmodZ2(l_bar_at(x + 0j, Side.BELOW, p + 1, q))
        assert above.equals(below, tol=1e-10)
    for _ in range(200):
        x = rng.uniform(1.01, 40.0)
        p, q = rng.randint(-5, 5), rng.randint(-5, 5)
        above = CmodZ2(l_bar_at(x + 0j, Side.ABOVE, p, q))
        below = CmodZ2(l_bar_at(x + 0j, Side.BELOW, p, q + 1))
        assert above.equals(below, tol=1e-10)


def test_matches_classical_rogers_on_unit_interval():
    rng = random.Random(11)
    for _ in range(50):
        x = rng.uniform(0.01, 0.99)
        mine = rogers_l_hat(flattened(complex(x, 0.0)))
        assert mine.equals(complex(classical_rogers(x), 0.0), tol=1e-12)


# ---------------------------------------------------------------------------
# transfer reduction
# ---------------------------------------------------------------------------

def test_reduce_mod_transfer_examples():
    assert reduce_mod_transfer(CmodZ2(complex(-TWO_PI_SQ, 0))) == pytest.approx(0j)
    assert reduce_mod_transfer(CmodZ2(0j)) == 0j
    assert reduce_mod_transfer(CmodZ2(complex(PI**2, 0))).real == pytest.approx(PI**2)
    v = reduce_mod_transfer(CmodZ2(complex(1.5 * PI**2, -2.0)))
    assert v.real == pytest.approx(-0.5 * PI**2)
    assert v.imag == -2.0


def test_reduce_mod_transfer_names_a_value_that_is_not_a_cmodz2():
    # was an AttributeError: 'complex' object has no attribute 'value'
    with pytest.raises(TypeError, match=re.escape("1j is not a CmodZ2")):
        reduce_mod_transfer(1j)


# ---------------------------------------------------------------------------
# branch-tracked continuation
# ---------------------------------------------------------------------------

def test_commutator_monodromy_is_one_lattice_period():
    result = commutator_monodromy()
    assert result.change == pytest.approx(FOUR_PI_SQ, abs=1e-9)
    assert (result.p, result.q) == (0, 0)
    assert result.sheet == 1
    # stepwise continuity: no step jumped by anything near a branch period
    assert result.max_step_change < 5.0


@pytest.mark.parametrize("steps", [1, 0, -3])
def test_commutator_monodromy_needs_two_steps(steps):
    # fewer steps gave change 0.0 and sheet 0
    with pytest.raises(ValueError, match=f"^steps must be at least 2, got {steps}$"):
        commutator_monodromy(steps)


def test_commutator_monodromy_names_steps_that_are_not_an_integer():
    # 2.5 raised the TypeError of range(); True is the step count 1
    with pytest.raises(TypeError, match=r"^steps 2\.5 is not an integer$"):
        commutator_monodromy(2.5)
    with pytest.raises(ValueError, match="^steps must be at least 2, got 1$"):
        commutator_monodromy(True)


def test_continuation_rejects_vertices_on_axis():
    with pytest.raises(ValueError):
        continue_rogers([0.5 + 0.5j, 0.7 + 0j, 0.5 - 0.5j])


def test_continuation_needs_two_vertices():
    with pytest.raises(ValueError, match="^need at least two path vertices$"):
        continue_rogers([1j])


@pytest.mark.parametrize("x", [0.0, 1.0])
def test_continuation_through_a_branch_point_is_an_error(x):
    # a crossing at 0 or 1 was read as one of (0, 1): change 0.0
    w0, w1 = complex(x, 1.0), complex(x, -1.0)
    message = re.escape(f"segment {w0!r} -> {w1!r} crosses the real axis at the branch point {x!r}")
    with pytest.raises(ValueError, match=message):
        continue_rogers([w0, w1, w0])


def test_continuation_with_imaginary_drift_is_an_error():
    # the open path from 0.5 + 0.5i to its mirror image moves the imaginary
    # part of the value; change was nan
    with pytest.raises(ValueError, match="imaginary part moved by"):
        continue_rogers([0.5 + 0.5j, 0.5 - 0.5j])


def test_trivial_loop_has_no_monodromy():
    # a small loop encircling neither 0 nor 1
    path = [0.5 + 0.3j, 0.6 + 0.4j, 0.4 + 0.5j, 0.5 + 0.3j]
    result = continue_rogers(path)
    assert result.change == pytest.approx(0.0, abs=1e-12)
    assert result.sheet == 0
