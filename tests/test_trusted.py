"""Derived values against the same values built by the checked constructors.

No route builds a value without its constructor's checks; these tests pin
that every derived CutPoint, FlattenedNumber, FormalSum or
FlattenedTriangulation (a below-side flip, a relation element, a negation
or multiple, a parsed file) stores exactly what the public constructor
would given the same fields: z with no -0.0 imaginary part, sides as Side
members, int indices and coefficients.  ``==`` and ``hash`` cannot see a
-0.0 (it equals and hashes like 0.0), so ``repr`` is compared as well.
"""

import dataclasses
import io

import pytest

from extbloch import ccs
from extbloch.ccs import FlattenedTriangulation
from extbloch.cover import FlattenedNumber, canonicalize, flattened, make_flattened_ft, parse_flattened
from extbloch.dilog import CutPoint, Side, as_cut_point
from extbloch.prebloch import (
    FormalSum,
    chi_hat,
    curly,
    curly_product_relation,
    cycle_relation,
    index_relations,
    kappa_hat,
    mirror_relation,
    symmetry_relation,
)


def assert_same(built, checked):
    assert built == checked
    assert hash(built) == hash(checked)
    assert repr(built) == repr(checked)


def number(re, im, side, p, q):
    # one cover point through the checked constructors only
    return FlattenedNumber(CutPoint(complex(re, im), side), p, q)


def formal_sum(*terms):
    return FormalSum(tuple((c, number(*point)) for c, point in terms))


def test_negative_zero_inputs():
    # each of these gives a -0.0 imaginary part in plain complex arithmetic
    assert repr(1.0 / complex(-2, 0)) == "(-0.5-0j)"
    assert repr(-complex(3, 0)) == "(-3-0j)"
    assert repr(complex(-1.5, 0) * complex(-1.5, 0)) == "(2.25-0j)"


@pytest.mark.parametrize("built,checked", [
    # the below-side flips on both cuts
    (lambda: canonicalize(-2.5 + 0j, "b", 3, -1), lambda: number(-2.5, 0, "a", 2, -1)),
    (lambda: canonicalize(CutPoint(3 + 0j, Side.BELOW), p=1), lambda: number(3, 0, "a", 1, -1)),
    (lambda: canonicalize(complex(-2, -0.0), Side.BELOW, -(2**53) + 1, 0),
     lambda: number(-2, 0, "a", -(2**53), 0)),
    # -0.0 imaginary parts from 1/z and -z
    (lambda: flattened(1.0 / complex(-2, 0), 4, 5), lambda: number(-0.5, 0, "a", 4, 5)),
    (lambda: flattened(-complex(3, 0)), lambda: number(-3, 0, "a", 0, 0)),
    (lambda: canonicalize(-complex(3, 0), Side.BELOW, 0, 7), lambda: number(-3, 0, "a", -1, 7)),
    (lambda: as_cut_point(1.0 / complex(-2, 0)), lambda: CutPoint(-0.5 + 0j, "a")),
    (lambda: parse_flattened("-2.5 -0.0 a 1 2"), lambda: number(-2.5, 0, "a", 1, 2)),
])
def test_internal_points_match_checked_constructors(built, checked):
    assert_same(built(), checked())


def test_trusted_points_store_checked_field_types():
    f = canonicalize(CutPoint(complex(-2, -0.0), "below"), p=1, q=2)
    assert type(f.base) is CutPoint and f.base.side is Side.ABOVE
    assert type(f.z) is complex and repr(f.z) == "(-2+0j)"
    assert type(f.p) is int and type(f.q) is int
    for frozen, field in ((f, "p"), (f.base, "z")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frozen, field, 0)


def test_trusted_indices_keep_their_checks():
    # an index derived as p - 1 by the below flip is still checked
    with pytest.raises(ValueError, match="branch index p is beyond 2\\*\\*53"):
        canonicalize(-2 + 0j, Side.BELOW, -(2**53), 0)
    with pytest.raises(ValueError, match="branch index q is beyond 2\\*\\*53"):
        canonicalize(CutPoint(2 + 0j, Side.BELOW), p=0, q=-(2**53))
    with pytest.raises(TypeError, match="p 1.0 is not an integer"):
        canonicalize(0.5 + 0.5j, p=1.0)
    with pytest.raises(ValueError, match="branch index q is beyond 2\\*\\*53"):
        index_relations(0.5 + 0.5j, 0, -(2**53), 0, 0, "Q")  # the chart at q - 1
    with pytest.raises(ValueError, match="0 and 1 are excluded"):
        mirror_relation(1e-20)  # 1 - z rounds to 1


@pytest.mark.parametrize("built,checked", [
    (lambda: chi_hat(-1.5), lambda: formal_sum((1, (2.25, 0, "a", 1, 1)), (-1, (2.25, 0, "a", 1, 0)))),
    (lambda: curly(-complex(3, 0), -2), lambda: formal_sum((1, (-3, 0, "a", -2, 1)), (-1, (-3, 0, "a", -2, 0)))),
    (lambda: curly(CutPoint(2 + 0j, Side.BELOW), 1),
     lambda: formal_sum((1, (2, 0, "a", 1, 0)), (-1, (2, 0, "a", 1, -1)))),
    (lambda: mirror_relation(CutPoint(3 + 0j, Side.BELOW), 2, -1),
     lambda: formal_sum((1, (3, 0, "a", 2, -2)), (1, (-2, 0, "a", 1, -2)), (-2, (0.5, 0, "i", 0, 0)))),
    (lambda: mirror_relation(CutPoint(-1 + 0j, Side.BELOW), 0, 0),
     lambda: formal_sum((1, (-1, 0, "a", -1, 0)), (1, (2, 0, "a", 0, 0)), (-2, (0.5, 0, "i", 0, 0)))),
    (lambda: index_relations(CutPoint(-2 + 0j, Side.BELOW), 1, 0, 3, 0, "P"),
     lambda: formal_sum((1, (-2, 0, "a", -1, 0)), (-1, (-2, 0, "a", 0, 0)),
                        (-1, (-2, 0, "a", 1, 0)), (1, (-2, 0, "a", 2, 0)))),
    (lambda: kappa_hat(), lambda: formal_sum((1, (0.5, 0, "i", 1, 1)), (-1, (0.5, 0, "i", 1, 0)),
                                             (-1, (0.5, 0, "i", 0, 1)), (1, (0.5, 0, "i", 0, 0)))),
])
def test_relation_elements_match_checked_constructors(built, checked):
    assert_same(built(), checked())


@pytest.mark.parametrize("build", [
    lambda: make_flattened_ft(0.3 + 0.4j, 0.2 + 1.1j, 1, -2, 0, 3, -1).entries,
    lambda: curly_product_relation(-2 + 0j, 1, CutPoint(-0.25 + 0j, Side.BELOW), 2),
    lambda: cycle_relation(complex(-2, 0), 1.0 / complex(-2, 0), 1, 0, -1, 2, 3),
    lambda: symmetry_relation(0.3 + 0.8j, 2, -1, 1),
    lambda: symmetry_relation(-0.4 + 1e-3j, 1, 3, 4),
])
def test_every_built_point_matches_its_checked_twin(build):
    built = build()
    points = [t[1] if isinstance(t, tuple) else t for t in built]
    assert points
    for f in points:
        assert_same(f, number(f.z.real, f.z.imag, f.base.side.value, f.p, f.q))
        assert "-0j" not in repr(f)


def test_derived_sums_match_checked_constructors():
    s = formal_sum((2, (0.5, 0.5, "i", 1, 0)), (-3, (-2, 0, "a", 0, 4)), (1, (3, 0, "a", -1, 0)))
    assert_same(-s, FormalSum(tuple((-c, g) for c, g in s.terms)))
    for k in (3, -1, 0, 2**70):
        assert_same(k * s, FormalSum(tuple((k * c, g) for c, g in s.terms)))
    f = number(-2, 0, "a", 1, 2)
    assert_same(FormalSum.single(f), FormalSum(((1, f),)))
    assert_same(FormalSum.single(f, -4), FormalSum(((-4, f),)))
    assert_same(FormalSum.single(f, 0), FormalSum())
    assert_same(FormalSum.single(f, True), FormalSum(((1, f),)))  # coefficients stored as int
    with pytest.raises(dataclasses.FrozenInstanceError):
        (-s).terms = ()


def test_loaded_file_matches_checked_constructors():
    text = (
        "name: mixed\n"
        "+1 0.5 0.8660254037844386 i 0 0\n"
        "-1 -2.5 -0.0 a 3 -1   # a -0.0 imaginary part in the file\n"
        "+1 4.0 0.0 a -2 9007199254740992\n"
    )
    loaded = ccs.load(io.StringIO(text))
    checked = FlattenedTriangulation((
        (number(0.5, 0.8660254037844386, "i", 0, 0), 1),
        (number(-2.5, 0, "a", 3, -1), -1),
        (number(4, 0, "a", -2, 2**53), 1),
    ), "mixed")
    assert_same(loaded, checked)
    assert all(type(sign) is int for _, sign in loaded.simplices)
    with pytest.raises(dataclasses.FrozenInstanceError):
        loaded.name = ""
    assert_same(loaded.as_formal_sum(), checked.as_formal_sum())


def test_checked_triangulation_keeps_its_checks():
    f = number(0.5, 0.5, "i", 0, 0)
    with pytest.raises(ValueError, match="at least one simplex"):
        FlattenedTriangulation(())
    with pytest.raises(ValueError, match="simplex signs must be \\+1 or -1, got 2"):
        FlattenedTriangulation(((f, 2),))
    with pytest.raises(TypeError, match="each shape of simplices must be a FlattenedNumber, not float"):
        FlattenedTriangulation(((0.5, 1),))


# ---------------------------------------------------------------------------
# the field parser behind parse_flattened and ccs.load
# ---------------------------------------------------------------------------

PARSED_FIELDS = [
    # -0.0 imaginary parts on both cuts, and above-side cut points
    ("-2.5 -0.0 a 1 2", (-2.5, 0.0, "a", 1, 2)),
    ("3.5 -0.0 a -1 0", (3.5, 0.0, "a", -1, 0)),
    ("-1e-300 0.0 a 0 0", (-1e-300, 0.0, "a", 0, 0)),
    ("1.0000000000000002 0.0 a 4 -4", (1.0000000000000002, 0.0, "a", 4, -4)),
    # exponent notation and signs
    ("5E-1 +8.660254037844386e-01 i 0 0", (0.5, 0.8660254037844386, "i", 0, 0)),
    ("-3e+2 -4.0E0 i +3 -07", (-300.0, -4.0, "i", 3, -7)),
    ("0.5 -0.0e5 i 0 0", (0.5, 0.0, "i", 0, 0)),  # a real interior point, between the cuts
    # branch indices at +-2**53
    (f"0.3 0.4 i {2**53} {-(2**53)}", (0.3, 0.4, "i", 2**53, -(2**53))),
    (f"-7 0 a {-(2**53)} {2**53}", (-7.0, 0.0, "a", -(2**53), 2**53)),
    # magnitudes near 1e+-300
    ("1e300 -1e299 i 0 3", (1e300, -1e299, "i", 0, 3)),
    ("1e-300 1e-300 i -4 4", (1e-300, 1e-300, "i", -4, 4)),
    ("-1.7976931348623157e308 0 a 2 2", (-1.7976931348623157e308, 0.0, "a", 2, 2)),
    ("5e-324 -2.2e-308 i 1 1", (5e-324, -2.2e-308, "i", 1, 1)),
    ("1e300 0.0 a 0 0", (1e300, 0.0, "a", 0, 0)),
]


@pytest.mark.parametrize("fields,want", PARSED_FIELDS)
def test_parsed_records_match_checked_constructors(fields, want):
    checked = number(*want)
    assert_same(parse_flattened(fields), checked)
    loaded = ccs.load(io.StringIO(f"-1 {fields}\n+1 {fields}\n"))
    assert_same(loaded, FlattenedTriangulation(((checked, -1), (checked, 1))))
    assert "-0j" not in repr(loaded)


@pytest.mark.parametrize("fields", [
    "0.5 nan i 0 0", "inf 0.5 i 0 0", "1 0 i 0 0", "0 -0.0 i 0 0", "2.0 0.0 i 0 0", "-3 -0.0 i 0 0",
    "0.5 0.5 a 0 0", "0.5 0.0 a 0 0", "1e309 1 i 0 0",
])
def test_parsed_points_give_the_checked_constructors_message(fields):
    re_s, im_s, side, _, _ = fields.split()
    with pytest.raises(ValueError) as checked:
        CutPoint(complex(float(re_s), float(im_s)), side)
    with pytest.raises(ValueError) as parsed:
        parse_flattened(fields)
    assert str(parsed.value) == str(checked.value)


def test_loaded_records_share_equal_points():
    # one CutPoint per distinct (z, side), however the file spells it
    text = "+1 0.5 0.5 i 0 0\n-1 5e-1 0.50 i 1 0\n+1 -2 0.0 a 0 1\n+1 -2.0 -0.0 a 1 1\n+1 0.5 0.5 i 0 0\n"
    shapes = [f for f, _ in ccs.load(io.StringIO(text)).simplices]
    half, two = CutPoint(0.5 + 0.5j), CutPoint(-2 + 0j, "a")
    assert [f.base for f in shapes] == [half, half, two, two, half]
    assert len({id(f.base) for f in shapes}) == 2
    assert shapes[0] is not shapes[4]  # each record keeps its own cover point


def test_summed_records_share_equal_points():
    # FormalSum.parse reads records as ccs.load does: one CutPoint per distinct (z, side)
    text = "2 0.5 0.5 i 0 0\n-1 5e-1 0.50 i 1 0\n3 -2 0.0 a 0 1\n1 -2.0 -0.0 a 1 1\n-4 0.5 0.5 i 2 0\n"
    s = FormalSum.parse(text)
    half, two = CutPoint(0.5 + 0.5j), CutPoint(-2 + 0j, "a")
    assert [(c, f.base, f.p, f.q) for c, f in s.terms] == [
        (3, two, 0, 1), (1, two, 1, 1), (2, half, 0, 0), (-1, half, 1, 0), (-4, half, 2, 0),
    ]
    assert len({id(f.base) for _, f in s.terms}) == 2
    assert "-0j" not in repr(s)
