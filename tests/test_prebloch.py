import cmath
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from extbloch import dilog, prebloch
from extbloch.cover import (
    canonicalize,
    flattened,
    make_flattened_ft,
    parse_flattened,
    serialize_flattened,
)
from extbloch.dilog import CutPoint, Side, TWO_PI_I, arg_cut, as_cut_point, li2, log_one_minus, precision, principal_log
from extbloch.prebloch import (
    FormalSum,
    chi_hat,
    curly,
    curly_product_relation,
    cycle_relation,
    eval_lhat,
    five_term_element,
    index_relations,
    kappa_hat,
    mirror_relation,
    root4,
    splitting,
    symmetry_relation,
)
from extbloch.rogers import TWO_PI_SQ, CmodZ2, rogers_l_bar

import oracles

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
# FormalSum mechanics
# ---------------------------------------------------------------------------

def test_formal_sum_merges_and_prunes():
    g = flattened(0.5 + 0.5j, 1, 2)
    s = FormalSum(((2, g), (-2, g)))
    assert s.is_empty()
    s2 = FormalSum(((1, g), (3, g)))
    assert s2.terms == ((4, g),)


def test_formal_sum_algebra():
    a = flattened(0.5 + 0.5j)
    b = flattened(0.25 + 0.25j)
    s = FormalSum.single(a) + 2 * FormalSum.single(b)
    assert len(s) == 2
    assert (s - s).is_empty()
    assert (-s + s).is_empty()


def test_formal_sum_serialize_round_trip():
    s = curly(0.5 + 0.5j, 2) - 3 * FormalSum.single(flattened(0.25 + 0j, -1, 4))
    assert FormalSum.parse(s.serialize()) == s


def test_formal_sum_parse_skips_trailing_comments():
    # a trailing comment was read as fields: "got 7 fields"
    plain = "1 0.5 0.5 i 0 0\n-2 3.0 0.0 a 1 -1\n"
    commented = "# header\n1 0.5 0.5 i 0 0  # note\n-2 3.0 0.0 a 1 -1# no space\n   # indented\n"
    assert FormalSum.parse(commented) == FormalSum.parse(plain)
    assert len(FormalSum.parse(commented)) == 2


@pytest.mark.parametrize("text,lineno,message", [
    ("1 0.5 0.5 i 0 0\n1 nan 0.5 i 0 0\n", 2, "not a finite point"),
    ("# header\n\nx\n", 3, "expected 'coeff z_re z_im side p q'"),
    ("1 0.5 0.5 i 0 0\n1 0.5 0.5 i 0 0\n  \nz 0.5 0.5 i 0 0\n", 4, "coefficient 'z' is not an integer"),
])
def test_formal_sum_parse_error_names_the_line(text, lineno, message):
    with pytest.raises(ValueError) as info:
        FormalSum.parse(text)
    assert str(info.value).startswith(f"line {lineno}: ")
    assert message in str(info.value)


def test_curly_minus_itself_empty():
    z = CutPoint(0.5 + 0.5j)
    assert (curly(z, 1) - curly(z, 1)).is_empty()


# ---------------------------------------------------------------------------
# one normalization per built sum, against the dict-and-sort reference
# ---------------------------------------------------------------------------

def reference_normalize(pairs):
    """The normalization as a FormalSum-keyed dict, sorted by the plain key."""
    merged = {}
    for coeff, gen in pairs:
        merged[gen] = merged.get(gen, 0) + int(coeff)
    key = lambda kv: (kv[0].z.real, kv[0].z.imag, kv[0].base.side.value, kv[0].p, kv[0].q)
    return tuple((c, g) for g, c in sorted(merged.items(), key=key) if c != 0)


def assert_same_terms(got, want):
    # == on terms, and the same kept points down to the sign of a zero
    # real part, which == does not see
    assert got.terms == want
    assert [repr(g) for _, g in got.terms] == [repr(g) for _, g in want]


def random_pairs(rng, pool, n):
    return tuple((rng.choice((-3, -2, -1, 1, 1, 2, 5)), rng.choice(pool)) for _ in range(n))


def normalization_pool(rng):
    pool = [flattened(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.randint(-2, 2), rng.randint(-2, 2))
            for _ in range(6)]
    pool += [
        flattened(complex(0.0, 0.7), 1, 0), flattened(complex(-0.0, 0.7), 1, 0),  # equal keys
        flattened(complex(-0.0, -2.0)), flattened(complex(0.0, -2.0)),
        canonicalize(-2.5 + 0j, Side.ABOVE, 0, 1), canonicalize(-2.5 + 0j, Side.BELOW, 1, 1),  # equal
        canonicalize(3.0 + 0j, Side.ABOVE, -1, 0), canonicalize(3.0 + 0j, Side.BELOW, -1, 1),  # equal
        canonicalize(3.0 + 0j, Side.ABOVE, -1, 1), flattened(0.5 + 0j, 0, 0),
        flattened(0.5 + 0j, 1, -1),  # sorts after (0, 0) on p first, before it on q first
    ]
    return pool


@pytest.mark.parametrize("seed", range(8))
def test_formal_sum_normalizes_like_the_reference(seed):
    rng = random.Random(seed)
    pool = normalization_pool(rng)
    for _ in range(40):
        pairs = random_pairs(rng, pool, rng.randint(0, 12))
        a = FormalSum(pairs)
        assert_same_terms(a, reference_normalize(pairs))
        assert all(g is h for (_, g), (_, h) in zip(a.terms, reference_normalize(pairs)))
        b = FormalSum(random_pairs(rng, pool, rng.randint(0, 6)))
        assert_same_terms(a + b, reference_normalize(a.terms + b.terms))
        neg_b = reference_normalize(tuple((-c, g) for c, g in b.terms))
        assert_same_terms(a - b, reference_normalize(a.terms + neg_b))
        assert_same_terms(a - a, ())
        assert_same_terms(-a, reference_normalize(tuple((-c, g) for c, g in a.terms)))
        for k in (0, 1, -1, 3, -3):
            assert_same_terms(k * a, reference_normalize(tuple((k * c, g) for c, g in a.terms)))
        c, g = rng.choice((0, 1, -4)), rng.choice(pool)
        assert_same_terms(FormalSum.single(g, c), reference_normalize(((c, g),)))
        text = "\n".join(f"{c} {serialize_flattened(g)}" for c, g in pairs)
        parsed = FormalSum.parse(text)
        want = reference_normalize(tuple((c, parse_flattened(serialize_flattened(g))) for c, g in pairs))
        assert parsed.terms == want
        assert [repr(g.z) for _, g in parsed.terms] == [repr(g.z) for _, g in want]


def test_formal_sum_normalization_keeps_the_first_seen_point():
    plus, minus = flattened(complex(0.0, 0.7)), flattened(complex(-0.0, 0.7))
    for first, second in ((plus, minus), (minus, plus)):
        s = FormalSum(((1, first), (2, second)))
        assert s.terms == ((3, first),) and s.terms[0][1] is first
        assert (FormalSum.single(first) + FormalSum.single(second)).terms[0][1] is first
    assert FormalSum(((1, plus), (-1, minus))).is_empty()
    assert (0 * FormalSum.single(plus)).is_empty()
    assert FormalSum.single(plus, 0).is_empty()
    with pytest.raises(TypeError):
        FormalSum.single(plus.base)
    with pytest.raises(TypeError):
        FormalSum(((1, plus.base),))


def test_formal_sum_refuses_a_non_integral_coefficient():
    # int() truncated these: 1.5 was stored as 1, and 2.7 as 2
    f = flattened(0.3 + 0.4j)
    with pytest.raises(TypeError, match=r"^coefficient 1\.5 is not an integer$"):
        FormalSum(((1.5, f),))
    with pytest.raises(TypeError, match=r"^coefficient 2\.7 is not an integer$"):
        FormalSum.single(f, 2.7)
    assert FormalSum(((True, f),)).terms == ((1, f),) and type(FormalSum(((True, f),)).terms[0][0]) is int


def test_formal_sum_plus_or_minus_a_non_sum_is_a_type_error():
    # other.terms raised AttributeError on an int
    s = FormalSum.single(flattened(0.3 + 0.4j))
    for op in (lambda: s + 5, lambda: s - 5, lambda: 5 + s, lambda: 5 - s):
        with pytest.raises(TypeError):
            op()


POINTS = [
    CutPoint(0.3 + 0.4j), CutPoint(-1.5 + 2j), CutPoint(2.5 - 1j), CutPoint(complex(-0.0, 1.25)),
    CutPoint(-2 + 0j, Side.ABOVE), CutPoint(-2 + 0j, Side.BELOW), CutPoint(3 + 0j, Side.ABOVE),
    CutPoint(3 + 0j, Side.BELOW), CutPoint(0.75 - 0.5j), CutPoint(-0.5 - 3j),
]


def test_relation_elements_match_their_chained_definitions():
    # each relation element, built as one term list, equals the same
    # element built up with +, - and k* as the identities are written
    rng = random.Random(5)
    for _ in range(30):
        z, w = rng.choice(POINTS), rng.choice(POINTS)
        p, q, r, p2 = (rng.randint(-3, 3) for _ in range(4))
        assert_same_terms(kappa_hat(z, p), (curly(z, p) - curly(z, p - 1)).terms)
        if abs(z.z * w.z - 1) > 1e-6:
            e = prebloch._product_shift(arg_cut(z) + arg_cut(w))
            chained = curly(z, p) + curly(w, r) - curly(as_cut_point(z.z * w.z), p + r + e)
            assert_same_terms(curly_product_relation(z, p, w, r), chained.terms)
        if abs(w.z / z.z - 1) > 1e-6:
            d = prebloch._product_shift(arg_cut(w) - arg_cut(z))
            lhs = FormalSum(((1, canonicalize(z, p=p, q=q - 1)), (-1, canonicalize(z, p=p, q=q)),
                             (-1, canonicalize(w, p=r, q=p2 - 1)), (1, canonicalize(w, p=r, q=p2))))
            qp = as_cut_point(w.z / z.z)
            rhs = FormalSum(((1, canonicalize(qp, p=r - p + d, q=q)),
                             (-1, canonicalize(qp, p=r - p + d, q=q - 1))))
            assert_same_terms(cycle_relation(z, w, p, r, q, p2, q), (lhs - rhs).terms)
        for kind, (a, b, c, d) in (("Q", (p, q, p, p2)), ("P", (p, q, p2, q)), ("PQ", (p, q, p2, p + q - p2))):
            shift = {"Q": (0, -1), "P": (-1, 0), "PQ": (1, -1)}[kind]
            pair = lambda x, y: (FormalSum.single(canonicalize(z, p=x + shift[0], q=y + shift[1]))
                                 - FormalSum.single(canonicalize(z, p=x, q=y)))
            assert_same_terms(index_relations(z, a, b, c, d, kind), (pair(a, b) - pair(c, d)).terms)
        mz, mside = prebloch._one_minus(z)
        mirror = (FormalSum.single(canonicalize(z, p=p, q=q)) + FormalSum.single(canonicalize(mz, mside, p=-q, q=-p))
                  - 2 * FormalSum.single(flattened(0.5 + 0j)))
        assert_same_terms(mirror_relation(z, p, q), mirror.terms)
    for which in range(1, 6):
        for _ in range(10):
            z = complex(rng.uniform(-3, 4), rng.uniform(0.05, 3))
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            assert_same_terms(symmetry_relation(z, p, q, which), chained_symmetry(z, p, q, which).terms)


def chained_symmetry(z, p, q, which):
    def one(w, a, b):
        return FormalSum.single(flattened(w, a, b))

    if which == 1:
        return one(1 / z, -p, p + q) + one(z, p, q) - chi_hat(prebloch._I_POWER[p % 4] * root4(z))
    if which == 2:
        corr = chi_hat(cmath.exp(-1j * PI * (1 - 6 * p) / 12.0) * root4(z))
        return one(1 - 1 / z, -p - q, p) - one(z, p, q) + corr
    if which == 3:
        corr = chi_hat(cmath.exp(-1j * PI * (1 + 6 * q) / 12.0) * root4(z - 1))
        return one(-z / (1 - z), p + q, -q) + one(z, p, q) - corr
    if which == 4:
        corr = chi_hat(cmath.exp(-1j * PI * (2 + 6 * q) / 12.0) * root4(z - 1))
        return one(1 / (1 - z), q, -p - q) - one(z, p, q) + corr
    return one(1 - z, -q, -p) + one(z, p, q) - chi_hat(cmath.exp(1j * PI / 12.0))


def test_each_relation_element_is_normalized_once(monkeypatch):
    x, y = sample_ftplus_pair(random.Random(3))
    ft = make_flattened_ft(x, y, 1, -2, 0, 3, -1)
    z, w = CutPoint(-1.5 + 2j), CutPoint(2 + 0j, Side.BELOW)
    builds = [
        lambda: five_term_element(ft),
        lambda: curly(z, 2),
        lambda: curly_product_relation(z, 1, w, -2),
        lambda: cycle_relation(z, w, 1, 0, -1, 2, 3),
        lambda: index_relations(w, 1, 2, -1, 4, "PQ"),
        lambda: mirror_relation(w, 2, -1),
        lambda: kappa_hat(z, 3),
        lambda: chi_hat(0.3 - 2j),
    ]
    calls = []
    original = FormalSum.__init__

    def counting(self, terms=()):
        calls.append(1)
        original(self, terms)

    monkeypatch.setattr(FormalSum, "__init__", counting)
    for build in builds:
        calls.clear()
        build()
        assert len(calls) == 1
    for which in range(1, 6):
        calls.clear()
        symmetry_relation(0.3 + 0.8j, 2, -1, which)
        # the element and its embedded chi_hat term; symmetry 5's chi_hat
        # term is one constant sum, built at import
        assert len(calls) == (1 if which == 5 else 2)
    s = curly(z, 1)
    for derive, size in ((lambda: -s, 2), (lambda: 3 * s, 2), (lambda: 0 * s, 0), (lambda: s - s, 0),
                         (lambda: FormalSum.single(flattened(z)), 1)):
        calls.clear()
        derived = derive()
        assert len(calls) == 1  # each derived sum goes through the constructor, once
        assert len(derived) == size


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_empty_is_zero():
    assert eval_lhat(FormalSum()).value == 0


def reference_l_bar(gen):
    """The Rogers value as one kernel pass and one formula per cover point:
    L = R + pi i (q Log z + p Log(1-z)) - 2 pi^2 p q, with the Rogers
    constant R = Li2 z + Log z Log(1-z)/2 - pi^2/6."""
    point, p, q = CutPoint(gen.base.z, gen.base.side), gen.p, gen.q  # a fresh point runs a pass of its own
    z = point.z
    if max(abs(z.real), abs(z.imag)) > 2.0**32:
        # R from the far-out parts, u = Log(-z), v = Log(1-1/z) and Log z = u + i pi s
        dps = dilog._DPS.get()
        arith = dilog._DOUBLE if dps is None else dilog._high_arith()
        _, inverse, u, v, log_z, log_1mz = map(complex, dilog._far_out(arith, arith.point(z), point.side))
        s = 1 if z.imag > 0 or point.side is Side.ABOVE else -1
        r = -inverse - PI**2 / 3.0 + 0.5 * u * v + complex(0.0, 0.5 * PI * s) * log_1mz
    else:
        li, log_z, log_1mz = li2(point), principal_log(point), log_one_minus(point)
        r = li + 0.5 * log_z * log_1mz - PI**2 / 6.0
    return r + complex(0.0, PI) * (q * log_z + p * log_1mz) - TWO_PI_SQ * (p * q)


def reference_eval_lhat(s):
    """The evaluation as a per-term loop: one kernel pass per term."""
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    for coeff, gen in s.terms:
        term = coeff * reference_l_bar(gen) - comp
        new_total = total + term
        comp = (new_total - total) - term
        total = new_total
    return CmodZ2(total)


def shared_base_pairs(rng, bases=6):
    """Terms with several charts over each base point, in shuffled order.

    The bases are interior points, points on both sides of both cuts (a
    below-side chart lands on the above side), points beyond 2^32 (on and
    off the cuts) and points of the imaginary axis, whose charts alternate
    between a +0.0 and a -0.0 real part.  Some charts cancel.
    """
    pairs = []
    for _ in range(bases):
        kind = rng.randrange(5)
        if kind == 0:
            points = [CutPoint(complex(rng.uniform(-3, 4), rng.uniform(-3, 3)))]
        elif kind in (1, 2):
            x = rng.uniform(-5, -0.1) if kind == 1 else rng.uniform(1.1, 6)
            points = [CutPoint(complex(x, 0.0), Side.ABOVE), CutPoint(complex(x, 0.0), Side.BELOW)]
        elif kind == 3:
            w = cmath.rect(10 ** rng.uniform(9.7, 300), rng.uniform(-PI, PI))
            if rng.random() < 0.4:
                w = complex(rng.choice((-1, 1)) * abs(w), 0.0)
            points = [as_cut_point(w)]
            if w.imag == 0.0:
                points.append(CutPoint(w, Side.BELOW))
        else:
            y = rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 12)
            points = [CutPoint(complex(0.0, y)), CutPoint(complex(-0.0, y))]
        for k in range(rng.randint(1, 6)):
            gen = canonicalize(points[k % len(points)], p=rng.randint(-3, 3), q=rng.randint(-3, 3))
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            pairs.append((c, gen))
            if rng.random() < 0.25:
                pairs.append((-c, gen))  # cancels the chart
    rng.shuffle(pairs)
    return pairs


def distinct_bases(s):
    # -0.0 == 0.0, so the two signs of a zero real part count as one base
    return len({(g.base.z, g.base.side) for _, g in s.terms})


def rounding_bound(s):
    """What regrouping a sum's terms may change: eps per term, scaled by
    |c| (1 + |p| + |q|) (1 + |L|); the worst seen is a fifth of it."""
    return 2.0**-52 * sum(abs(c) * (1 + abs(g.p) + abs(g.q)) * (1 + abs(reference_l_bar(g))) for c, g in s.terms)


@pytest.mark.parametrize("mode", ["double", "high"])
def test_eval_lhat_matches_the_per_term_loop(mode):
    # eval_lhat sums by moments per base and keeps the lattice part exact,
    # so it agrees with the per-term loop to rounding; the unreduced Rogers
    # values are the loop's own, bit for bit
    rng = random.Random(23)
    with precision(mode):
        for _ in range(40 if mode == "double" else 10):
            s = FormalSum(shared_base_pairs(rng))
            assert eval_lhat(s).distance_to(reference_eval_lhat(s)) <= rounding_bound(s)
            assert [repr(rogers_l_bar(g)) for _, g in s.terms] == [repr(reference_l_bar(g)) for _, g in s.terms]
        for s in (kappa_hat(CutPoint(complex(-0.0, 2.0)), 3), index_relations(3 + 0j, 1, 2, -1, 4, "PQ"),
                  mirror_relation(CutPoint(-2 + 0j, Side.BELOW), 2, -1), chi_hat(1e6 - 3e5j)):
            assert eval_lhat(s).distance_to(reference_eval_lhat(s)) <= rounding_bound(s)
        for z, side in ((-2 + 0j, Side.BELOW), (3e10 + 0j, Side.BELOW), (-7e12 + 0j, Side.BELOW), (0.3 - 4e9j, "i")):
            chart = SimpleNamespace(base=CutPoint(z, side), p=2, q=-3)
            assert repr(oracles.l_bar_at(z, side, 2, -3)) == repr(reference_l_bar(chart))


def expected_passes(s):
    """The passes and lone logarithms eval_lhat must run on s, sorted: per
    distinct base, from the moments C = sum c, P = sum c p and Q = sum c q
    of its charts, none if all three vanish, else the far-out pass beyond
    2^32, the whole pass if C or P is not 0, and otherwise Log z alone."""
    moments = {}
    for c, g in s.terms:
        m = moments.setdefault((g.z, g.base.side), [0, 0, 0, max(abs(g.z.real), abs(g.z.imag)) > 2.0**32])
        m[0], m[1], m[2] = m[0] + c, m[1] + c * g.p, m[2] + c * g.q
    out = []
    for c, p, q, far in moments.values():
        if c or p or q:
            out += ["far"] if far else ["pass"] if c or p else ["log"]
    return sorted(out)


@pytest.mark.parametrize("mode", ["double", "high"])
def test_eval_lhat_one_kernel_pass_per_distinct_base(kernel_passes, mode):
    calls = kernel_passes
    rng = random.Random(29)
    terms = bases = passes = 0
    with precision(mode):
        for _ in range(20):
            # and a curly term, over a point with C = P = 0 and Q = 1
            s = FormalSum(shared_base_pairs(rng)) + curly(complex(rng.uniform(-3, 4), rng.uniform(0.1, 3)), 1)
            calls.clear()
            eval_lhat(s)
            assert sorted(name for name, _ in calls) == expected_passes(s)
            assert len({(p.z, p.side) for _, p in calls}) == len(calls)  # one read per base
            terms, bases = terms + len(s), bases + distinct_bases(s)
            passes += sum(name in ("pass", "far") for name, _ in calls)
        calls.clear()
        eval_lhat(index_relations(CutPoint(-2 + 0j, Side.BELOW), 1, 2, -1, 3, "Q"))
        assert calls == []  # four charts over one point, with C = P = Q = 0
    assert terms > 2 * bases
    assert passes < bases  # some bases have C = P = 0


def test_eval_single_half():
    v = eval_lhat(FormalSum.single(flattened(0.5)))
    assert v.distance_to(complex(-PI**2 / 12, 0)) <= 1e-12


def test_eval_kappa_is_minus_two_pi_sq():
    assert eval_lhat(kappa_hat()).distance_to(complex(-TWO_PI_SQ, 0)) <= 1e-12


def test_curly_value_is_pi_i_times_branch_log():
    # subtracting adjacent-q instances leaves pi i (Log z + 2 pi i p)
    v = eval_lhat(curly(0.5 + 0j, 0))
    assert v.distance_to(1j * PI * complex(-math.log(2), 0)) <= 1e-12
    v2 = eval_lhat(curly(0.3 + 0.7j, 2))
    expected = 1j * PI * (cmath.log(0.3 + 0.7j) + TWO_PI_I * 2)
    assert v2.distance_to(expected) <= 1e-12


def test_curly_q_representative_free():
    # {z; 2p} with any other q pair evaluates identically
    z = CutPoint(0.4 + 1.1j)
    for q in (-3, 0, 5):
        alt = FormalSum((
            (1, canonicalize(z, p=1, q=q)),
            (-1, canonicalize(z, p=1, q=q - 1)),
        ))
        assert eval_lhat(alt).distance_to(eval_lhat(curly(z, 1))) <= 1e-12


# ---------------------------------------------------------------------------
# five-term
# ---------------------------------------------------------------------------

def test_five_term_element_shape():
    t = make_flattened_ft(0.3 + 0.2j, 1j, 1, 2, 0, -1, 3)
    s = five_term_element(t)
    assert len(s) == 5
    assert sorted(c for c, _ in s) == [-1, -1, 1, 1, 1]
    assert eval_lhat(s).magnitude() <= 1e-10


def test_five_term_rejects_non_members():
    entries = [flattened(complex(0.1 * k + 0.2, 0.5)) for k in range(5)]
    with pytest.raises(ValueError):
        five_term_element(entries)


def test_five_term_randomized():
    rng = random.Random(99)
    worst = 0.0
    for _ in range(300):
        x, y = sample_ftplus_pair(rng)
        idx = [rng.randint(-5, 5) for _ in range(5)]
        r = eval_lhat(five_term_element(make_flattened_ft(x, y, *idx))).magnitude()
        worst = max(worst, r)
    assert worst <= 1e-9


def test_five_term_beyond_upper_chart():
    # the relation continues to hold on identity-solved tuples over other
    # charts, where some coordinates sit in the lower half plane
    from test_cover import solve_chart_indices

    rng = random.Random(199)
    built = 0
    while built < 80:
        x = complex(rng.uniform(-3, 4), rng.uniform(-3, 3))
        y = complex(rng.uniform(-3, 4), rng.uniform(-3, 3))
        if min(abs(x), abs(y), abs(x - 1), abs(y - 1), abs(x - y)) < 0.1:
            continue
        if abs(y / x - 1) < 0.1 or abs(x.imag) < 0.05 or abs(y.imag) < 0.05:
            continue
        idx = [rng.randint(-4, 4) for _ in range(5)]
        entries = solve_chart_indices(x, y, *idx)
        assert eval_lhat(five_term_element(entries)).magnitude() <= 1e-9
        built += 1


# ---------------------------------------------------------------------------
# product relation (curly elements)
# ---------------------------------------------------------------------------

def test_product_relation_middle_case_at_i():
    elem = curly_product_relation(1j, 0, 1j, 0)
    assert eval_lhat(elem).magnitude() <= 1e-12
    # the product -1 is carried as the upper boundary point
    gens = {g.base for _, g in elem}
    assert CutPoint(-1 + 0j, Side.ABOVE) in gens


def test_product_relation_upper_case():
    z = cmath.exp(3j * PI / 4)
    elem = curly_product_relation(z, 0, z, 0)
    assert eval_lhat(elem).magnitude() <= 1e-12
    # index shift +1: the product generators carry p = 0 + 0 + 1
    prod_ps = {g.p for _, g in elem if abs(g.z - z * z) < 1e-12}
    assert prod_ps == {1}


def test_product_relation_boundary_factor():
    elem = curly_product_relation(CutPoint(2 + 0j, Side.ABOVE), 0, CutPoint(0.25 + 0j), 0)
    assert eval_lhat(elem).magnitude() <= 1e-12


def test_product_relation_rejects_unit_product():
    with pytest.raises(ValueError):
        curly_product_relation(2 + 0j, 0, 0.5 + 0j, 0)


def test_product_relation_rejects_an_underflowing_product():
    with pytest.raises(ValueError) as err:
        curly_product_relation(1e-200 + 1e-200j, 0, 1e-200j, 0)
    assert str(err.value) == "the product zw underflowed to zero for z = (1e-200+1e-200j), w = 1e-200j"


def test_product_relation_cases_randomized():
    rng = random.Random(3)
    from extbloch.sweeps import _homo_case_pair

    for case in (-1, 0, 1):
        for _ in range(60):
            z, w = _homo_case_pair(rng, case)
            if abs(z.z * w.z - 1) < 1e-6:
                continue
            elem = curly_product_relation(z, rng.randint(-5, 5), w, rng.randint(-5, 5))
            assert eval_lhat(elem).magnitude() <= 1e-9


# ---------------------------------------------------------------------------
# cycle relation
# ---------------------------------------------------------------------------

def test_cycle_relation_middle_case():
    elem = cycle_relation(0.3 + 0.2j, 1j)
    assert eval_lhat(elem).magnitude() <= 1e-12


def test_cycle_relation_arg_cases():
    x = cmath.exp(2.9j)
    y = cmath.exp(-2.9j)
    low = cycle_relation(x, y)   # Arg y - Arg x = -5.8 <= -pi
    high = cycle_relation(y, x)  # swapped: 5.8 > pi
    assert eval_lhat(low).magnitude() <= 1e-12
    assert eval_lhat(high).magnitude() <= 1e-12


def test_cycle_relation_rejects_equal_points():
    with pytest.raises(ValueError):
        cycle_relation(0.5 + 0.5j, 0.5 + 0.5j)


def test_cycle_printed_orientation_would_fail():
    # transposing the right-hand difference breaks the relation; guards the
    # orientation chosen here (the one the five-term derivation forces)
    x, y = 0.3 + 0.2j, 1j
    elem = cycle_relation(x, y)
    q_gen = [g for c, g in elem if abs(g.z - y / x) < 1e-12]
    assert len(q_gen) == 2
    flipped = elem - 2 * FormalSum((c, g) for c, g in elem if abs(g.z - y / x) < 1e-12)
    assert eval_lhat(flipped).magnitude() > 1.0


def test_cycle_relation_randomized():
    rng = random.Random(17)
    from extbloch.sweeps import _cycle_case_pair

    for case in (-1, 0, 1):
        for _ in range(60):
            x, y = _cycle_case_pair(rng, case)
            if abs(y.z / x.z - 1) < 1e-6:
                continue
            idx = [rng.randint(-5, 5) for _ in range(5)]
            assert eval_lhat(cycle_relation(x, y, *idx)).magnitude() <= 1e-9


# ---------------------------------------------------------------------------
# index relations
# ---------------------------------------------------------------------------

def test_index_relation_q():
    elem = index_relations(0.4 + 0.3j, 0, 0, 0, 5, "Q")
    assert eval_lhat(elem).magnitude() <= 1e-12


def test_index_relation_p():
    elem = index_relations(0.4 + 0.3j, 2, -1, -4, 0, "P")
    assert eval_lhat(elem).magnitude() <= 1e-12


def test_index_relation_pq():
    elem = index_relations(0.4 + 0.3j, 2, -1, -3, 4, "PQ")
    assert eval_lhat(elem).magnitude() <= 1e-12


def test_index_relation_pq_requires_diagonal():
    with pytest.raises(ValueError):
        index_relations(0.4 + 0.3j, 2, -1, 0, 0, "PQ")


def test_index_relation_unknown_kind():
    with pytest.raises(ValueError):
        index_relations(0.4 + 0.3j, 0, 0, 0, 0, "X")


def test_index_relation_kind_that_is_not_a_string_is_named():
    # was an AttributeError: 'int' object has no attribute 'upper'
    with pytest.raises(TypeError, match="^kind must be a str, not int$"):
        index_relations(0.3 + 0.4j, 0, 0, 1, 1, kind=1)


# ---------------------------------------------------------------------------
# mirror relation
# ---------------------------------------------------------------------------

def test_mirror_fixed_point_is_empty():
    assert mirror_relation(0.5 + 0j, 0, 0).is_empty()


def test_mirror_relation_generic():
    elem = mirror_relation(0.3 + 0.4j, 1, 2)
    assert eval_lhat(elem).magnitude() <= 1e-12


def test_mirror_relation_boundary():
    for side in (Side.ABOVE, Side.BELOW):
        elem = mirror_relation(CutPoint(3 + 0j, side), -2, 1)
        assert eval_lhat(elem).magnitude() <= 1e-10
        elem = mirror_relation(CutPoint(-2.5 + 0j, side), 3, -1)
        assert eval_lhat(elem).magnitude() <= 1e-10


def test_double_half_value():
    v = eval_lhat(2 * FormalSum.single(flattened(0.5)))
    assert v.distance_to(complex(-PI**2 / 6, 0)) <= 1e-12


def test_mirror_lhat_identity():
    # L(z;2p,2q) + L(1-z;-2q,-2p) = -pi^2/6 mod 4 pi^2
    rng = random.Random(71)
    for _ in range(50):
        z = complex(rng.uniform(-2, 3), rng.uniform(0.05, 2))
        p, q = rng.randint(-4, 4), rng.randint(-4, 4)
        s = FormalSum.single(flattened(z, p, q)) + FormalSum.single(
            flattened(1 - z, -q, -p)
        )
        assert eval_lhat(s).distance_to(complex(-PI**2 / 6, 0)) <= 1e-10


# ---------------------------------------------------------------------------
# the order-two element
# ---------------------------------------------------------------------------

def test_kappa_value_and_torsion():
    k = kappa_hat()
    assert eval_lhat(k).distance_to(complex(-TWO_PI_SQ, 0)) <= 1e-10
    assert eval_lhat(2 * k).magnitude() <= 1e-10


def test_kappa_representative_independent():
    rng = random.Random(55)
    for _ in range(20):
        z = complex(rng.uniform(-3, 4), rng.uniform(0.1, 3) * rng.choice((1, -1)))
        p = rng.randint(-5, 5)
        assert eval_lhat(kappa_hat(z, p)).distance_to(complex(-TWO_PI_SQ, 0)) <= 1e-10
    assert eval_lhat(kappa_hat(1j, 1)).distance_to(complex(-TWO_PI_SQ, 0)) <= 1e-12


# ---------------------------------------------------------------------------
# the multiplicative correction homomorphism
# ---------------------------------------------------------------------------

def test_chi_special_values():
    assert chi_hat(1 + 0j).is_empty()
    assert chi_hat(-1 + 0j) == kappa_hat()
    expected = curly(CutPoint(-1 + 0j, Side.ABOVE), 0)
    assert chi_hat(1j) == expected


def test_chi_rejects_zero():
    with pytest.raises(ValueError):
        chi_hat(0j)


@pytest.mark.parametrize("z", [1e200 + 1e200j, 1e200 + 0j, -3e160j])
def test_chi_rejects_overflowing_square_naming_z(z):
    with pytest.raises(ValueError) as info:
        chi_hat(z)
    assert repr(z) in str(info.value)


def test_chi_rejects_an_underflowing_square():
    with pytest.raises(ValueError) as err:
        chi_hat(1e-200j)
    assert str(err.value) == "z^2 underflowed to zero for z = 1e-200j"


def test_chi_lhat_is_twice_pi_i_log():
    rng = random.Random(41)
    for _ in range(100):
        r = math.exp(rng.uniform(math.log(0.2), math.log(5)))
        a = rng.uniform(-PI, PI)
        z = complex(r * math.cos(a), r * math.sin(a))
        v = eval_lhat(chi_hat(z))
        assert v.distance_to(TWO_PI_I * principal_log(z)) <= 1e-10


def test_chi_homomorphism_examples():
    def residual(z, w):
        return eval_lhat(chi_hat(z) + chi_hat(w) - chi_hat(z * w))

    assert residual(1j, 1j).magnitude() <= 1e-12
    assert residual(1 + 0j, 0.3 - 0.8j).magnitude() <= 1e-12
    rng = random.Random(61)
    for _ in range(100):
        a, b = rng.uniform(-PI, PI), rng.uniform(-PI, PI)
        z = cmath.exp(1j * a)
        w = cmath.exp(1j * b)
        assert residual(z, w).magnitude() <= 1e-10


def test_squared_curly_period_four():
    # {z^2; 2p+4} and {z^2; 2p} have equal lifted values
    z = 0.6 + 0.9j
    sq = z * z
    for p in (-2, 0, 3):
        d = eval_lhat(curly(sq, p + 2)).distance_to(eval_lhat(curly(sq, p)))
        assert d <= 1e-10


def test_generator_decomposition_into_corner_points():
    # [z;2p,2q] = pq [z;2,2] - p(q-1) [z;2,0] - (p-1)q [z;0,2]
    #             + (p-1)(q-1) [z;0,0]  under the lifted evaluation
    rng = random.Random(83)
    for _ in range(100):
        z = complex(rng.uniform(-3, 4), rng.uniform(0.05, 3) * rng.choice((1, -1)))
        p, q = rng.randint(-5, 5), rng.randint(-5, 5)
        lhs = FormalSum.single(flattened(z, p, q))
        rhs = (
            (p * q) * FormalSum.single(flattened(z, 1, 1))
            + (-p * (q - 1)) * FormalSum.single(flattened(z, 1, 0))
            + (-(p - 1) * q) * FormalSum.single(flattened(z, 0, 1))
            + ((p - 1) * (q - 1)) * FormalSum.single(flattened(z, 0, 0))
        )
        assert eval_lhat(lhs).distance_to(eval_lhat(rhs)) <= 1e-9


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def test_splitting_identity_on_chi():
    z = 0.7 * cmath.exp(0.3j)
    assert splitting(chi_hat(z)) == pytest.approx(z, rel=1e-12)


def test_splitting_on_empty_and_kappa():
    assert splitting(FormalSum()) == pytest.approx(1.0)
    assert splitting(kappa_hat()) == pytest.approx(-1.0)


def test_splitting_random():
    rng = random.Random(19)
    for _ in range(200):
        r = math.exp(rng.uniform(math.log(0.2), math.log(5)))
        a = rng.uniform(-PI, PI)
        z = complex(r * math.cos(a), r * math.sin(a))
        assert abs(splitting(chi_hat(z)) - z) <= 1e-10 * abs(z)


# ---------------------------------------------------------------------------
# fourth root
# ---------------------------------------------------------------------------

def test_root4_examples():
    assert root4(16 + 0j) == pytest.approx(2.0)
    assert root4(-1 + 0j) == pytest.approx(cmath.exp(1j * PI / 4))
    assert root4(1j) == pytest.approx(cmath.exp(1j * PI / 8))
    with pytest.raises(ValueError):
        root4(0j)


@pytest.mark.parametrize("z", [
    complex(math.inf, 0.0), complex(math.nan, 0.0), complex(1.0, -math.inf), complex(math.nan, math.nan),
])
def test_root4_of_a_non_finite_value_is_named(z):
    # inf gave (inf+0j) and nan gave (nan+nanj)
    with pytest.raises(ValueError, match="non-finite") as exc:
        root4(z)
    assert repr(z) in str(exc.value)


@pytest.mark.parametrize("z", [
    1.7e308 + 1.7e308j, -1.7e308 + 0j, 1.7e308 - 1e300j, complex(-1e308, -1.7e308),
])
def test_root4_beyond_the_largest_modulus(z):
    # near the largest double, where |z| itself may overflow; the reference,
    # exp of a logarithm near 177, keeps about 1e-14 relative accuracy
    w = root4(z)
    assert w == pytest.approx(cmath.exp(cmath.log(z / 16) / 4) * 2, rel=1e-13)
    assert -PI / 4 < cmath.phase(w) <= PI / 4


@given(st.complex_numbers(min_magnitude=1e-8, max_magnitude=1e8,
                          allow_nan=False, allow_infinity=False))
@example(complex(2.0, 5e-324))  # subnormal imaginary part
@example(1 + 0j)
def test_root4_branch_window(z):
    w = root4(z)
    assert w**4 == pytest.approx(z, rel=1e-9)
    ph = cmath.phase(w)
    assert -PI / 4 <= ph <= PI / 4 + 1e-15
    if ph == -PI / 4:
        # only by rounding from just below the negative axis
        assert z.imag < 0


def root4_points():
    rng = random.Random(41)
    points = [cmath.rect(10.0 ** (e + rng.random()), rng.uniform(-PI, PI)) for e in range(-300, 308) for _ in range(3)]
    points += [cmath.rect(rng.uniform(1e308, 1.7e308), rng.uniform(-PI, PI)) for _ in range(20)]
    for x in (5e-324, 1e-300, 0.5, 1.0, 1.25, 7.5, 1e300, 1.7e308):
        points += [complex(-x, 0.0), complex(-x, -0.0), complex(x, 0.0), complex(0.0, x), complex(0.0, -x)]
        points += [complex(-x, x * 1e-98), complex(-x, -x * 1e-98)]  # just off the negative axis
    points += [complex(2.0, 5e-324), complex(-2.0, 5e-324), complex(-2.0, -5e-324), complex(5e-324, 5e-324),
               complex(-5e-324, 5e-324), 1.7e308 + 1.7e308j, 1e300 - 3e299j, complex(-1e308, -1.7e308),
               -1.25 - 5.887753099796879e-99j]
    return points


def test_root4_relative_accuracy_against_mpmath():
    # worst seen 2.0e-16, over |z| from 5e-324 to 1.7e308
    import mpmath as mp

    outside = []
    with mp.workdps(40):
        for z in root4_points():
            want = mp.root(mp.mpc(z.real, z.imag or 0.0), 4)  # -0.0j read as +0j
            w = root4(z)
            err = float(abs(mp.mpc(w) - want) / abs(want))
            ph = cmath.phase(w)
            in_window = -PI / 4 < ph <= PI / 4 or (ph == -PI / 4 and z.imag < 0)
            if not (err <= 4e-16 and in_window):
                outside.append((z, w, err))
    assert outside == []


# ---------------------------------------------------------------------------
# rational points on the circle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "num,den",
    [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 6), (5, 6), (1, 12)],
)
def test_roots_of_unity_detect_their_exponent(num, den):
    alpha = num / den
    z = cmath.exp(TWO_PI_I * alpha)
    v = eval_lhat(chi_hat(z))
    target = CmodZ2(complex(-4 * PI**2 * alpha, 0.0))
    assert v.distance_to(target) <= 1e-10


# ---------------------------------------------------------------------------
# reordering relations
# ---------------------------------------------------------------------------

def test_symmetry_examples_from_fixed_points():
    assert eval_lhat(symmetry_relation(0.3 + 0.4j, 0, 0, 5)).magnitude() <= 1e-12
    assert eval_lhat(symmetry_relation(1j, 1, 0, 1)).magnitude() <= 1e-10
    assert eval_lhat(symmetry_relation(2j, 0, 1, 3)).magnitude() <= 1e-10


@pytest.mark.parametrize("which", [1, 2, 3, 4, 5])
def test_symmetry_relations_randomized(which):
    rng = random.Random(100 + which)
    for _ in range(100):
        z = complex(rng.uniform(-3, 4), rng.uniform(0.05, 3))
        p, q = rng.randint(-4, 4), rng.randint(-4, 4)
        assert eval_lhat(symmetry_relation(z, p, q, which)).magnitude() <= 1e-9


@pytest.mark.parametrize("which", [2, 3, 4])
def test_chi_correction_reads_its_integer_mod_24(which, monkeypatch):
    # symmetries 2, 3 and 4 take chi of e^(-i pi n / 12) root4, with
    # n = 1 - 6p, 1 + 6q or 2 + 6q; only n mod 24 matters, so an index and
    # that index plus 24 * 41667 (about 10^6) give the same correction point
    seen = []
    chi_hat = prebloch.chi_hat
    monkeypatch.setattr(prebloch, "chi_hat", lambda u: seen.append(u) or chi_hat(u))

    def correction(index):
        seen.clear()
        symmetry_relation(0.3 + 0.8j, index, index, which)
        [point] = seen
        return point

    far = 24 * 41667
    assert correction(9) == correction(9 + far)  # |n| > 48 at both: reduced to the same integer
    assert abs(correction(1 + far) - correction(1)) <= 2e-15 * abs(correction(1))  # n kept as it is at 1


def test_symmetry_rejects_lower_half():
    with pytest.raises(ValueError):
        symmetry_relation(0.5 - 0.5j, 0, 0, 1)
    with pytest.raises(ValueError):
        symmetry_relation(0.5 + 0.5j, 0, 0, 6)


# ---------------------------------------------------------------------------
# inputs beyond the range of a double
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("coeff", [10**400, -(10**400), 2**1024, 10**5000],
                         ids=["1e400", "-1e400", "2^1024", "1e5000"])
def test_eval_lhat_names_a_coefficient_beyond_a_double(coeff):
    s = FormalSum(((coeff, flattened(0.5 + 0.5j)), (1, flattened(-2 + 1j))))
    with pytest.raises(ValueError, match="^coefficient .* is too large for double arithmetic$") as err:
        eval_lhat(s)
    want = f"of {coeff.bit_length()} bits" if coeff == 10**5000 else str(coeff)
    assert str(err.value) == f"coefficient {want} is too large for double arithmetic"


@pytest.mark.parametrize("terms,name,moment", [
    (((10**300, flattened(0.3 + 0.2j, 10**10, 0)),), "P", 10**310),
    (((10**308, flattened(0.3 + 0.2j)), (10**308, flattened(0.3 + 0.2j, 1, 0))), "C", 2 * 10**308),
], ids=["P", "C"])
def test_eval_lhat_names_a_moment_beyond_a_double(terms, name, moment):
    # each coefficient fits in a double, but a moment does not: this named
    # the coefficient 10**300 (or 10**308) as too large
    with pytest.raises(ValueError) as err:
        eval_lhat(FormalSum(terms))
    assert str(err.value) == (f"moment {name} = {moment} of the charts over (0.3+0.2j) (side i) "
                              "is too large for double arithmetic")


@pytest.mark.parametrize("z,which,message", [
    (1e300 + 1e300j, 3, "derives the coordinate (1-0j): 0 and 1 are excluded from the cut plane"),
    (1e-310j, 1, "derives the coordinate -infj: -infj is not a finite point of the cut plane"),
    (1.5e308 + 1e308j, 3, "derives the coordinate (nan-0j): (nan+0j) is not a finite point of the cut plane"),
])
def test_symmetry_relation_names_its_input_when_a_derived_point_leaves_the_plane(z, which, message):
    # these raised the cut plane's own error, which names neither z nor which
    with pytest.raises(ValueError) as err:
        symmetry_relation(z, 0, 0, which)
    assert str(err.value) == f"symmetry relation {which} at z = {z!r} {message}"


def test_cycle_relation_names_its_inputs_when_the_quotient_overflows():
    with pytest.raises(ValueError) as err:
        cycle_relation(1e-308j, 1e308j)
    assert str(err.value) == "the quotient y/x is not finite for x = 1e-308j, y = 1e+308j"


def test_curly_product_relation_names_its_inputs_when_the_product_overflows():
    with pytest.raises(ValueError) as err:
        curly_product_relation(1e200 + 1j, 0, 1e200 + 1j, 0)
    assert str(err.value) == "the product zw is not finite for z = (1e+200+1j), w = (1e+200+1j)"


# ---------------------------------------------------------------------------
# evaluation by integer moments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["double", "high"])
@pytest.mark.parametrize("k", [1, 2, -3, 2**60 + 1, 10**300], ids=["1", "2", "-3", "2^60+1", "1e300"])
def test_multiples_of_kappa_are_exact(k, mode):
    # the moments C, P and Q of k kappa vanish and PQ = k, so the value is
    # the lattice part alone: (2**60 + 1) kappa was 0, and 10**300 kappa -8.95
    want = complex(TWO_PI_SQ, 0.0) if k % 2 else 0j
    with precision(mode):
        assert eval_lhat(k * kappa_hat()).value == want
        assert eval_lhat(k * kappa_hat(CutPoint(-3 + 0j, Side.BELOW), 5)).value == want


FAR_CHARTS = {
    # a base beyond 2^32 with several charts: C = 2 - 1 - 1 = 0, and C = 7
    "C=0": ((2, 3, -1), (-1, 0, 2), (-1, -4, 5)),
    "C!=0": ((3, 1, 2), (-1, -2, 7), (5, 0, -3)),
}


@pytest.mark.parametrize("mode", ["double", "high"])
@pytest.mark.parametrize("charts", list(FAR_CHARTS.values()), ids=list(FAR_CHARTS))
@pytest.mark.parametrize("z,side", [(3e12 - 7e11j, "i"), (-5e15 + 0j, "b"), (9e9 + 0j, "a")])
def test_far_base_with_several_charts_against_mpmath(z, side, charts, mode):
    s = FormalSum(tuple((c, canonicalize(z, side, p, q)) for c, p, q in charts))
    assert distinct_bases(s) == 1
    want = oracles.lhat_sum_mpmath([(c, z, side, p, q) for c, p, q in charts], dps=80)
    with precision(mode):
        assert eval_lhat(s).distance_to(want) <= 1e-12


@pytest.mark.parametrize("mode", ["double", "high"])
def test_curly_runs_one_logarithm_and_no_li2(kernel_passes, mode):
    # {z; 2p} = [z; 2p, 2] - [z; 2p, 0] has C = P = 0 and Q = 1: its value
    # pi i (Log z + 2 pi i p) reads Log z only
    point = CutPoint(0.3 + 0.7j)
    with precision(mode):
        v = eval_lhat(curly(point, 2))
    assert kernel_passes == [("log", point)]
    assert v.distance_to(1j * PI * (cmath.log(0.3 + 0.7j) + TWO_PI_I * 2)) <= 1e-12
