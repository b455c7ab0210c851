import enum
import math
import random

import pytest

from extbloch.bloch import WedgeExpr, nu_hat, wedge_necessary_zero
from extbloch.cover import canonicalize, flattened, log_param_l, log_param_m, make_flattened_ft
from extbloch.dilog import Side, precision
from extbloch.prebloch import FormalSum, five_term_element

PI = math.pi
LN2 = math.log(2)


def sample_ftplus_pair(rng):
    while True:
        y = complex(rng.uniform(-2, 3), rng.uniform(0.1, 3.0))
        s, t = sorted((rng.uniform(0, 1), rng.uniform(0, 1)))
        bary = (s, t - s, 1 - t)
        if min(bary) < 0.05:
            continue
        return bary[1] + bary[2] * y, y


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def test_diagonal_terms_vanish():
    w = WedgeExpr(((3, 1 + 2j, 1 + 2j),))
    assert w.is_empty()


def test_antisymmetry_normalization():
    a, b = 1 + 0j, 2 + 0j
    w1 = WedgeExpr(((1, b, a),))
    w2 = WedgeExpr(((-1, a, b),))
    assert w1 == w2


def test_like_terms_merge():
    a, b = 1 + 1j, 2 - 1j
    w = WedgeExpr(((1, a, b), (2, a, b), (-3, a, b)))
    assert w.is_empty()


def test_pairing_antisymmetric_under_swap():
    rng = random.Random(5)
    for _ in range(50):
        terms = tuple(
            (rng.randint(-4, 4), complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
             complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
            for _ in range(6)
        )
        w = WedgeExpr(terms)
        swapped = WedgeExpr(tuple((c, b, a) for c, a, b in terms))
        assert swapped.pairing() == pytest.approx(-w.pairing(), abs=1e-12)


def test_a_pair_is_ordered_with_the_sign_absorbed():
    # (1, i) is lex-reordered to (i, 1) with the sign absorbed
    w = WedgeExpr(((2, 1 + 0j, 0 + 1j),))
    assert w.terms == ((-2, 1j, 1 + 0j),)


def reference_wedge(terms):
    """The normal form as a dict keyed on the ordered pair, sorted by real and imaginary parts."""
    merged = {}
    for c, a, b in terms:
        if a == b:
            continue
        if (b.real, b.imag) < (a.real, a.imag):
            c, a, b = -c, b, a
        merged.setdefault((a, b), [0, a, b])[0] += c
    order = lambda kv: (kv[0][0].real, kv[0][0].imag, kv[0][1].real, kv[0][1].imag)
    return tuple((c, a, b) for _, (c, a, b) in sorted(merged.items(), key=order) if c)


def assert_same_wedge(got, want):
    # == on terms, and the very factor objects kept: == does not see the
    # sign of a zero part, and the first-seen factor is the one kept
    assert got.terms == want
    assert all(a is x and b is y for (_, a, b), (_, x, y) in zip(got.terms, want))


@pytest.mark.parametrize("seed", range(8))
def test_wedge_normalizes_like_the_reference(seed):
    rng = random.Random(seed)
    pool = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(5)]
    pool += [complex(0.0, 0.7), complex(-0.0, 0.7), complex(1.5, 0.0), complex(1.5, -0.0),  # equal keys
             complex(-0.0, -0.0), complex(0.0, 0.0), complex(0.0, 1.5), complex(1.5, 1.5)]

    def random_terms(n):
        return tuple((rng.choice((-3, -2, -1, 1, 1, 2, 4)), rng.choice(pool), rng.choice(pool)) for _ in range(n))

    for _ in range(40):
        terms = random_terms(rng.randint(0, 12))
        a, b = pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))]
        terms += ((2, a, b), (-2, b, a), (1, a, a), (3, a, b), (-3, a, b))  # a repeat, a swap, a ^ a, a zero sum
        w = WedgeExpr(terms)
        assert_same_wedge(w, reference_wedge(terms))
        v = WedgeExpr(random_terms(rng.randint(0, 6)))
        assert_same_wedge(w + v, reference_wedge(w.terms + v.terms))
        assert_same_wedge(-w, reference_wedge(tuple((-c, x, y) for c, x, y in w.terms)))
        assert (w + -w).is_empty() and len(w) == len(reference_wedge(terms))


def test_a_formal_sum_and_a_wedge_do_not_add():
    s, w = FormalSum.single(flattened(0.5)), WedgeExpr(((1, 1j, 2 + 0j),))
    for op in (lambda: s + w, lambda: w + s):
        with pytest.raises(TypeError):
            op()


# ---------------------------------------------------------------------------
# the wedge of the branch logarithms
# ---------------------------------------------------------------------------

def test_nu_hat_empty():
    assert nu_hat(FormalSum()).is_empty()


def test_nu_hat_single_half():
    w = nu_hat(FormalSum.single(flattened(0.5)))
    assert len(w) == 1
    c, a, b = w.terms[0]
    assert c == 1
    assert a == pytest.approx(-LN2)
    assert b == pytest.approx(LN2)


def test_nu_hat_five_term_images_pass():
    rng = random.Random(31)
    for _ in range(100):
        x, y = sample_ftplus_pair(rng)
        idx = [rng.randint(-5, 5) for _ in range(5)]
        t = make_flattened_ft(x, y, *idx)
        check = wedge_necessary_zero(nu_hat(five_term_element(t)), tol=1e-9)
        assert check
        assert check.certainty in ("zero", "necessary-only")


# ---------------------------------------------------------------------------
# the vanishing heuristic
# ---------------------------------------------------------------------------

def test_empty_expression_certified_zero():
    check = wedge_necessary_zero(WedgeExpr())
    assert check and check.certainty == "zero"


def test_real_pair_passes_with_flag_only():
    # ln2 wedge pi has zero pairing yet need not vanish: the pass is
    # flagged as a necessary condition, not a certificate
    check = wedge_necessary_zero(WedgeExpr(((1, complex(LN2, 0), complex(PI, 0)),)))
    assert check.passed
    assert check.certainty == "necessary-only"


def test_nonzero_certificate():
    check = wedge_necessary_zero(WedgeExpr(((1, 1 + 0j, 1j),)))
    assert not check
    assert check.certainty == "nonzero"
    assert check.pairing == pytest.approx(1.0)


def test_wedge_refuses_a_non_integral_coefficient():
    # int() truncated 0.9 to 0, so the expression came out empty and was certified "zero"
    with pytest.raises(TypeError, match=r"^coefficient 0\.9 is not an integer$"):
        WedgeExpr(((0.9, 1j, 2),))
    (coeff, a, b), = WedgeExpr(((True, 1j, 2),)).terms
    assert (coeff, type(coeff), a, b) == (1, int, 1j, 2)


def test_an_int_subclass_coefficient_is_stored_as_a_plain_int():
    # only a coefficient of class exactly int is kept as given; an IntEnum
    # member goes through operator.index like any other value
    one = enum.IntEnum("Count", "ONE").ONE
    (c, _), = FormalSum(((one, flattened(0.3 + 0.4j)),)).terms
    (d, _, _), = WedgeExpr(((one, 1j, 2),)).terms
    assert (c, type(c), d, type(d)) == (1, int, 1, int)


def test_wedge_plus_a_non_expression_is_a_type_error():
    # other.terms raised AttributeError on an int
    w = WedgeExpr(((1, 1j, 2),))
    for op in (lambda: w + 5, lambda: 5 + w):
        with pytest.raises(TypeError):
            op()


def test_tol_below_zero_or_nan_is_refused():
    # 1 ^ 2 = 2 (1 ^ 1) = 0 and its pairing is 0.0, yet tol = -1 or NaN
    # certified it "nonzero"; an infinite tol certified any pairing
    # "necessary-only"
    w = WedgeExpr(((1, 1, 2),))
    assert w.pairing() == 0.0
    for tol in (-1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"^tol must be >= 0, got "):
            wedge_necessary_zero(w, tol=tol)
    assert wedge_necessary_zero(w, tol=0).certainty == "necessary-only"


def test_lattice_shifted_pair_flagged_nonzero():
    # a^b - (a + 2 pi i)^b = -(2 pi i)^b, which the pairing sees as 2 pi Re b
    a = 0.3 + 0.7j
    b = 2.0 + 0.5j
    w = WedgeExpr(((1, a, b), (-1, a + 2j * PI, b)))
    assert abs(w.pairing() - 2 * PI * b.real) < 1e-12
    check = wedge_necessary_zero(w, tol=1e-9)
    assert not check
    assert check.certainty == "nonzero"


def test_lattice_merge_preserves_pairing():
    # merging a = r + 2 pi i k bilinearly is an identity in the wedge,
    # which the pairing, a functional on the wedge, must not notice
    a = 0.4 - 0.2j
    b = 1.5 + 2j
    c = -0.7 + 0.3j
    w = WedgeExpr(((1, a, b), (1, a + 2j * PI, c)))
    merged_target = WedgeExpr(((1, a, b + c), (1, 2j * PI, c)))
    assert w.pairing() == pytest.approx(merged_target.pairing(), abs=1e-12)
    check = wedge_necessary_zero(w, tol=1e9)
    assert check.pairing == pytest.approx(w.pairing(), abs=1e-9)


def test_near_cancelling_wedge_is_not_certified_nonzero():
    # (a + e)^b - a^b - e^b is zero in the wedge; its pairing is rounding
    # error (1.1e-13), so the check must not certify it nonzero
    a, e, b = 0.3 + 0.7j, 1e-9j, 1000 + 0j
    w = WedgeExpr(((1, a + e, b), (-1, a, b), (-1, e, b)))
    assert len(w) == 3
    check = wedge_necessary_zero(w)
    assert check
    assert check.certainty == "necessary-only"
    assert abs(check.pairing) < 1e-12


@pytest.mark.parametrize("mode", ["double", "high"])
def test_nu_hat_one_kernel_pass_per_term(kernel_passes, mode):
    # one whole pass per distinct base point, shared by the charts over it
    def build():
        return FormalSum((
            (2, flattened(0.3 + 0.4j, 1, -2)), (-1, canonicalize(-2 + 0j, Side.BELOW, 2, 1)),
            (3, canonicalize(3 + 0j, Side.BELOW, -1, 0)), (1, flattened(-5 + 2j)),
            (1, flattened(0.3 + 0.4j, 0, 3)), (-4, canonicalize(-2 + 0j, Side.ABOVE, 2, 1)),
            (2, canonicalize(3 + 0j, Side.ABOVE, -1, 0)), (5, flattened(1e12 - 3e11j, 4, -1)),
            (-1, flattened(1e12 - 3e11j, 0, 0)), (1, flattened(complex(-0.0, 2.0), 1, 0)),
            (2, flattened(complex(0.0, 2.0), 0, 1)), (3, flattened(-5 + 2j, 0, 1)),
        ))

    calls = kernel_passes
    s = build()
    with precision(mode):
        # want on equal but distinct points: a point keeps its kernel pass
        want = WedgeExpr(tuple((c, log_param_l(g), log_param_m(g)) for c, g in build().terms))
        calls.clear()
        assert nu_hat(s) == want
    assert len(s.terms) == 12
    assert len({(p.z, p.side) for _, p in calls}) == 6
    assert sorted(name for name, _ in calls) == ["far"] + ["pass"] * 5


def test_wedge_check_rejects_non_finite_entries():
    for bad in (complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)):
        w = WedgeExpr(((1, 0.5 + 0.5j, 1 + 0j), (1, bad, 2 + 0j)))
        with pytest.raises(ValueError, match="not finite"):
            wedge_necessary_zero(w)


def test_wedge_pairing_overflow_names_the_pair():
    # |a| |b| beyond the largest double: the pairing used to come out NaN
    # and the check reported certainty 'nonzero' on it
    w = WedgeExpr(((1, 1e300 + 1j, 1 + 1e10j), (1, -1e300 + 2j, 3 + 1e10j)))
    message = r"the pairing is not finite at wedge pair \(\(-1e\+300\+2j\), \(3\+10000000000j\)\)"
    with pytest.raises(ValueError, match=message):
        w.pairing()
    with pytest.raises(ValueError, match=message):
        wedge_necessary_zero(w)


def test_wedge_pairing_next_to_an_overflowing_product_is_nonzero():
    # the pairing 2 (0.5 * 0 - 0.5 * 1e308) is finite although 2 * 1e308
    # is not: the check certifies nonzero on the pairing alone
    w = WedgeExpr(((2, 0.5 + 0.5j, 1e308 + 0j),))
    assert w.pairing() == -1e308
    check = wedge_necessary_zero(w)
    assert not check
    assert check.certainty == "nonzero"
    assert check.pairing == -1e308


def test_wedge_pairing_near_the_largest_double_is_finite():
    # large but representable pairings pass through unchanged
    w = WedgeExpr(((1, 1e154 + 1e154j, 1e150 - 1e150j), (1, 1 + 1j, 1e307 + 0j)))
    assert w.pairing() == -2e304 - 1e307
    assert wedge_necessary_zero(w).certainty == "nonzero"


def test_wedge_names_a_coefficient_beyond_a_double():
    big = 10**400
    s = FormalSum(((big, flattened(0.5 + 0.5j)), (1, flattened(-2 + 1j))))
    message = f"^coefficient {big} is too large for double arithmetic$"
    w = nu_hat(s)  # the wedge keeps exact integer coefficients
    assert {abs(c) for c, _, _ in w.terms} == {1, big}
    with pytest.raises(ValueError, match=message):
        w.pairing()
    with pytest.raises(ValueError, match=message):
        wedge_necessary_zero(w)
