import cmath
import math
import random

import pytest

from extbloch import bloch, cover, dilog
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


def test_serialize_lines():
    # (1, i) is lex-reordered to (i, 1) with the sign absorbed
    w = WedgeExpr(((2, 1 + 0j, 0 + 1j),))
    assert w.serialize() == "-2 0.0 1.0 1.0 0.0"


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


def test_lattice_shifted_pair_flagged_nonzero():
    # a^b - (a + 2 pi i)^b = -(2 pi i)^b, which the pairing sees: both the
    # raw and the lattice-merged evaluation report 2 pi Re b
    a = 0.3 + 0.7j
    b = 2.0 + 0.5j
    w = WedgeExpr(((1, a, b), (-1, a + 2j * PI, b)))
    assert abs(w.pairing() - 2 * PI * b.real) < 1e-12
    check = wedge_necessary_zero(w, tol=1e-9)
    assert not check
    assert check.certainty == "nonzero"
    assert check.merged_pairing == pytest.approx(check.pairing, abs=1e-9)


def test_lattice_merge_preserves_pairing():
    # merging rewrites a = r + 2 pi i k bilinearly, an identity the pairing
    # must not notice
    a = 0.4 - 0.2j
    b = 1.5 + 2j
    c = -0.7 + 0.3j
    w = WedgeExpr(((1, a, b), (1, a + 2j * PI, c)))
    merged_target = WedgeExpr(((1, a, b + c), (1, 2j * PI, c)))
    assert w.pairing() == pytest.approx(merged_target.pairing(), abs=1e-12)
    check = wedge_necessary_zero(w, tol=1e9)  # huge tol: exercise merge path only
    assert check.merged_pairing == pytest.approx(w.pairing(), abs=1e-9)


@pytest.mark.parametrize("mode", ["double", "high"])
def test_nu_hat_one_kernel_pass_per_term(monkeypatch, mode):
    # one pass per distinct base point: the charts over one point share it
    def build():
        return FormalSum.of(
            (2, flattened(0.3 + 0.4j, 1, -2)), (-1, canonicalize(-2 + 0j, Side.BELOW, 2, 1)),
            (3, canonicalize(3 + 0j, Side.BELOW, -1, 0)), (1, flattened(-5 + 2j)),
            (1, flattened(0.3 + 0.4j, 0, 3)), (-4, canonicalize(-2 + 0j, Side.ABOVE, 2, 1)),
            (2, canonicalize(3 + 0j, Side.ABOVE, -1, 0)), (5, flattened(1e12 - 3e11j, 4, -1)),
            (-1, flattened(1e12 - 3e11j, 0, 0)), (1, flattened(complex(-0.0, 2.0), 1, 0)),
            (2, flattened(complex(0.0, 2.0), 0, 1)), (3, flattened(-5 + 2j, 0, 1)),
        )

    calls = []
    evaluate = dilog._evaluate

    def counting(kernel, point):
        calls.append(kernel)
        return evaluate(kernel, point)

    s = build()
    with precision(mode):
        # want on equal but distinct points: a point keeps its kernel pass
        want = WedgeExpr(tuple((c, log_param_l(g), log_param_m(g)) for c, g in build().terms))
        monkeypatch.setattr(dilog, "_evaluate", counting)
        assert nu_hat(s) == want
    assert (len(s.terms), len(calls)) == (12, 6)


# ---------------------------------------------------------------------------
# the hashed lattice merge against a scan over all representatives
# ---------------------------------------------------------------------------

TAU = complex(0.0, 2.0 * PI)


def reference_merge(terms, tol):
    """The merge as a plain scan: each a-value against every representative."""
    detect = min(tol, 1e-8)
    reps = []
    bucket = {}
    tau_bucket = 0.0 + 0.0j
    for c, a, b in terms:
        match = None
        for idx, r in enumerate(reps):
            d = (a - r) / TAU
            k = round(d.real)
            if abs(k) <= 64 and abs(d - k) <= detect:
                match = (idx, k)
                break
        if match is None:
            reps.append(a)
            bucket[len(reps) - 1] = c * b
        else:
            idx, k = match
            bucket[idx] = bucket.get(idx, 0j) + c * b
            tau_bucket += c * k * b
    merged = [(r, bucket[i]) for i, r in enumerate(reps) if i in bucket]
    if tau_bucket != 0:
        merged.append((TAU, tau_bucket))
    return merged


MERGE_TOLS = (1e-9, 1e9, 0.0)  # detect = 1e-9, 1e-8 and 0


def assert_merge_matches_reference(terms, tol, monkeypatch):
    merged = bloch._merge_by_lattice(terms, tol)
    assert merged == reference_merge(terms, tol)
    w = WedgeExpr(terms)
    hashed = wedge_necessary_zero(w, tol)
    with monkeypatch.context() as m:
        m.setattr(bloch, "_merge_by_lattice", reference_merge)
        assert hashed == wedge_necessary_zero(w, tol)
    return merged


def clustered_terms(rng, n, detect):
    # a-values in tight clusters (several representatives within reach of
    # one another), lattice copies with |k| up to 66, and random b-values
    step = 2 * PI * max(detect, 1e-12)
    centers = [complex(rng.uniform(-3, 3), rng.uniform(-40, 40)) for _ in range(max(1, n // 8))]
    terms = []
    for _ in range(n):
        a = rng.choice(centers) + complex(rng.uniform(-2, 2) * step, rng.uniform(-2, 2) * step)
        if rng.random() < 0.5:
            a += rng.randint(-66, 66) * TAU
        b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        terms.append((rng.choice((-2, -1, 1, 3)), a, b))
    return tuple(terms)


@pytest.mark.parametrize("tol", MERGE_TOLS)
@pytest.mark.parametrize("seed", range(4))
def test_hashed_merge_matches_reference_on_random_sums(seed, tol, monkeypatch):
    rng = random.Random(1000 + seed)
    detect = min(tol, 1e-8)
    spread = tuple(
        (rng.randint(-3, 3) or 1, complex(rng.uniform(-5, 5), rng.uniform(-50, 50)),
         complex(rng.uniform(-5, 5), rng.uniform(-5, 5)))
        for _ in range(150)
    )
    assert_merge_matches_reference(spread, tol, monkeypatch)
    clustered = clustered_terms(rng, 300, detect)
    merged = assert_merge_matches_reference(clustered, tol, monkeypatch)
    if tol > 0:
        assert len(merged) < 300  # the clusters did merge
    assert_merge_matches_reference(tuple(reversed(clustered)), tol, monkeypatch)


@pytest.mark.parametrize("tol", MERGE_TOLS)
def test_hashed_merge_matches_reference_at_the_wrap(tol, monkeypatch):
    # Im a within 1e-9 of 0 and of +-pi mod 2 pi, on both sides, shifted by
    # lattice steps: the Im cell index wraps at 2 pi.  Re a straddles 1/4,
    # a cell edge for every cell width.
    offsets = (-1e-9, -3e-10, -5e-324, 0.0, 5e-324, 3e-10, 1e-9)
    terms = []
    for i, base in enumerate((0.0, PI, -PI)):
        for j, off in enumerate(offsets):
            for k in (-64, -1, 0, 1, 2, 65):
                a = complex(0.25 + 1e-10 * (j % 3 - 1), base + off + k * 2 * PI)
                terms.append((1 + (i + j + k) % 3, a, complex(i - j, k + 0.5)))
    terms = tuple(terms)
    assert_merge_matches_reference(terms, tol, monkeypatch)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = list(terms)
        rng.shuffle(shuffled)
        assert_merge_matches_reference(tuple(shuffled), tol, monkeypatch)


def detect_edge(base, axis, sign, detect):
    # The last a-value (as a float step along one axis, away from base)
    # that the scan merges into base, and the next one, which it does not.
    def moved(v):
        return complex(v, base.imag) if axis == "re" else complex(base.real, v)

    def merges(v):
        return len(reference_merge(((1, base, 1j), (1, moved(v), 1j)), detect)) == 1

    origin = base.real if axis == "re" else base.imag
    away = math.copysign(math.inf, sign)
    v = origin + sign * 2 * PI * max(detect, 0.0)
    while not merges(v):
        v = math.nextafter(v, origin)
    while merges(math.nextafter(v, away)):
        v = math.nextafter(v, away)
    return moved(v), moved(math.nextafter(v, away))


@pytest.mark.parametrize("tol", MERGE_TOLS)
def test_hashed_merge_matches_reference_at_detect(tol, monkeypatch):
    # near-duplicates exactly at and just past the detection radius, in
    # both directions of both axes and across lattice shifts
    detect = min(tol, 1e-8)
    cases = 0
    for base in (0.3 + 0.7j, -1.25 - 2.5j, complex(2.0**-21, 0.0), complex(-(2.0**-25), 2 * PI)):
        for axis in ("re", "im"):
            for sign in (1, -1):
                at, past = detect_edge(base, axis, sign, detect)
                for k in (0, 3, -64):
                    near, far = at + k * TAU, past + k * TAU
                    terms = ((1, base, 1 + 1j), (2, near, 2 - 1j))
                    merged = assert_merge_matches_reference(terms, tol, monkeypatch)
                    terms = ((1, base, 1 + 1j), (2, far, 2 - 1j))
                    merged_far = assert_merge_matches_reference(terms, tol, monkeypatch)
                    if k == 0:
                        assert merged == [(base, 1 + 1j + 2 * (2 - 1j))]
                        assert merged_far == [(base, 1 + 1j), (far, 4 - 2j)]
                    cases += 1
    assert cases == 48


@pytest.mark.parametrize("tol", MERGE_TOLS)
def test_hashed_merge_matches_reference_at_cell_edges(tol, monkeypatch):
    # a-values on either side of a cell edge in Re and in Im (3 * 2^-18 is
    # an edge for every cell width), inside and past the reach within which
    # the neighbouring cells are searched, each with partners just inside
    # the detection radius in eight directions, across lattice shifts
    detect = min(tol, 1e-8)
    radius = 2 * PI * detect
    edge = 3 * 2.0**-18
    fractions = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0)
    offsets = [s * (f * radius + e) for s in (1, -1) for f in fractions for e in (0.0, 1e-16, 1e-13, 2.0**-40)]
    for axis in ("re", "im"):
        for off in offsets:
            base = complex(edge + off, 0.7) if axis == "re" else complex(-0.4, edge + off)
            terms = [(1, base, 1 + 1j)]
            for n in range(8):
                terms.append((2, base + cmath.rect(radius * (1 - 1e-6), n * PI / 4) + (n - 3) * TAU, complex(1, n)))
            merged = assert_merge_matches_reference(tuple(terms), tol, monkeypatch)
            if tol > 0:
                assert [r for r, _ in merged] == [base, TAU]


@pytest.mark.parametrize("tol", MERGE_TOLS)
def test_hashed_merge_lattice_shift_limit(tol, monkeypatch):
    a = 0.3 + 0.7j
    for k, merges in ((64, True), (-64, True), (65, False), (-65, False)):
        shifted = complex(a.real, a.imag + k * 2 * PI)
        merged = assert_merge_matches_reference(((1, a, 2 + 1j), (1, shifted, 1 - 1j)), tol, monkeypatch)
        if merges and tol > 0:
            assert [r for r, _ in merged] == [a, TAU]
        elif not merges:
            assert [r for r, _ in merged] == [a, shifted]


@pytest.mark.parametrize("tol", MERGE_TOLS)
def test_hashed_merge_matches_reference_at_large_magnitudes(tol, monkeypatch):
    # beyond 2^53 every double is an integer; the cell index stays exact
    terms = []
    for x in (2.0**53 - 1, 2.0**53, 1e17, -1e17, 1e300, -1.7e308):
        for k in (0, 1, 64):
            # small b-values keep the pairings finite
            terms.append((1, complex(x, 0.5 + k * 2 * PI), complex(1e-300, k * 1e-300)))
            terms.append((1, complex(math.nextafter(x, math.inf), 0.5), 1e-300j))
    terms.append((1, complex(0.5, 1e17), 1 + 0j))
    terms.append((1, complex(0.5, 1e17 + 16), 1 + 0j))
    assert_merge_matches_reference(tuple(terms), tol, monkeypatch)


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


def test_wedge_merged_pairing_overflow_names_the_pair():
    # the pairing 2 (0.5 * 0 - 0.5 * 1e308) is finite, but the merged
    # b-value 2e308 is not
    w = WedgeExpr(((2, 0.5 + 0.5j, 1e308 + 0j),))
    assert w.pairing() == -1e308
    with pytest.raises(ValueError, match=r"merged pairing is not finite at a-value \(0\.5\+0\.5j\)"):
        wedge_necessary_zero(w)


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
        bloch._merge_by_lattice(w.terms, 1e-9)
    with pytest.raises(ValueError, match=message):
        wedge_necessary_zero(w)
    # a coefficient that fits a double only after the merge's lattice shift
    near = 2**1020
    a = complex(0.3, 0.4)
    terms = ((1, a, 1 + 2j), (near, a + complex(0.0, 2.0 * math.pi) * 20, 3 + 1j))
    with pytest.raises(ValueError, match=f"^coefficient {near} is too large for double arithmetic$"):
        bloch._merge_by_lattice(terms, 1e-9)
