"""Inputs the program cannot hold raise an error that names them.

Each pinned row calls one public callable with one argument replaced by a
value it cannot handle, and pins the exception type and message.  The
table at the end calls every public callable with each argument in turn
replaced by each of 14 hostile values.
"""

import io
import math
import re
from pathlib import Path

import pytest

import extbloch
from extbloch.bloch import NecessaryZeroCheck, WedgeExpr, nu_hat, wedge_necessary_zero
from extbloch.ccs import FlattenedTriangulation, complex_volume, load, volume_report
from extbloch.cover import (
    FlattenedFT,
    FlattenedNumber,
    TriangulationFormatError,
    canonicalize,
    flattened,
    is_flattened_ft,
    log_param_l,
    log_param_m,
    make_flattened_ft,
    parse_flattened,
    serialize_flattened,
)
from extbloch.dilog import CutPoint, Side, as_cut_point, li2, log_one_minus, precision, principal_log, set_precision
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
from extbloch.rogers import CmodZ2, reduce_mod_transfer, rogers_l_bar, rogers_l_hat
from extbloch.sweeps import SweepConfig, SweepResult, run_sweep

BIG = 10**400  # an int beyond the range of a double
WEDGE = WedgeExpr(((1, 1 + 2j, 3 - 9j),))  # pairing -15.0
FIG8_PATH = Path(__file__).parent / "data" / "fig8.tri"


@pytest.mark.parametrize("call,message", [
    (lambda: chi_hat(BIG), f"{BIG} is beyond the range of a double"),
    (lambda: root4(BIG), f"{BIG} is beyond the range of a double"),
    (lambda: symmetry_relation(BIG, 0, 0, 1), f"{BIG} is beyond the range of a double"),
    (lambda: make_flattened_ft(BIG, 1j), f"{BIG} is beyond the range of a double"),
    (lambda: make_flattened_ft(0.3 + 0.2j, BIG), f"{BIG} is beyond the range of a double"),
    (lambda: SweepConfig(relation="five-term", tol=BIG), f"tol {BIG} is beyond the range of a double"),
    (lambda: WedgeExpr(((1, BIG, 1j),)), f"{BIG} is beyond the range of a double"),
    (lambda: WedgeExpr(((1, 1j, BIG),)), f"{BIG} is beyond the range of a double"),
    (lambda: CmodZ2(1j).distance_to(BIG), f"{BIG} is beyond the range of a double"),
    (lambda: wedge_necessary_zero(WEDGE, tol=BIG), f"tol {BIG} is beyond the range of a double"),
    (lambda: is_flattened_ft(make_flattened_ft(0.3 + 0.2j, 0.4 + 0.9j), BIG),
     f"tol {BIG} is beyond the range of a double"),
], ids=["chi_hat", "root4", "symmetry_relation",
        "make_flattened_ft-x", "make_flattened_ft-y", "SweepConfig-tol", "WedgeExpr-a", "WedgeExpr-b",
        "CmodZ2.distance_to", "wedge_necessary_zero-tol",
        "is_flattened_ft-tol"])
def test_a_number_beyond_a_double_is_named(call, message):
    # each raised a bare "OverflowError: int too large to convert to float",
    # or took the value: a wedge tol to certify a pairing of -15
    # "necessary-only"; is_flattened_ft called its tol "not >= 0"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


@pytest.mark.parametrize("call,exc,message", [
    (lambda: parse_flattened(5), TypeError, "text must be a str, not int"),
    (lambda: FormalSum.parse(5), TypeError, "text must be a str, not int"),
    (lambda: symmetry_relation(0.3 + 0.4j, 1.5, 0, 1), TypeError, "p 1.5 is not an integer"),
    (lambda: symmetry_relation(0.3 + 0.4j, "2", 0, 2), TypeError, "p '2' is not an integer"),
    (lambda: symmetry_relation(0.3 + 0.4j, 0, "2", 3), TypeError, "q '2' is not an integer"),
    (lambda: symmetry_relation(0.3 + 0.4j, 0, "2", 4), TypeError, "q '2' is not an integer"),
    (lambda: symmetry_relation(0.3 + 0.4j, "2", 0, 5), TypeError, "p '2' is not an integer"),
    (lambda: symmetry_relation(0.3 + 0.4j, BIG, 0, 2), ValueError, "branch index p is beyond 2**53 in magnitude"),
    (lambda: symmetry_relation(0.3 + 0.4j, 0, 0, 1.0), TypeError, "which 1.0 is not an integer"),
    (lambda: symmetry_relation(0.3 + 0.4j, 0, 0, 6), ValueError, "which must be 1..5"),
    (lambda: parse_flattened("x 0.5 i 1 0"), ValueError, "z_re 'x' is not a number"),
    (lambda: parse_flattened("0.5 y i 1 0"), ValueError, "z_im 'y' is not a number"),
    (lambda: parse_flattened("0.5 0.5 i 1.5 0"), ValueError, "p '1.5' is not an integer"),
    (lambda: parse_flattened("0.5 0.5 i 1 0x1"), ValueError, "q '0x1' is not an integer"),
    (lambda: is_flattened_ft(make_flattened_ft(0.3 + 0.2j, 0.4 + 0.9j), "x"), TypeError, "tol 'x' is not a number"),
    (lambda: wedge_necessary_zero(WEDGE, tol="x"), TypeError, "tol 'x' is not a number"),
], ids=["parse_flattened", "FormalSum.parse", "symmetry_relation-1", "symmetry_relation-2",
        "symmetry_relation-3", "symmetry_relation-4", "symmetry_relation-5", "symmetry_relation-p-big",
        "symmetry_relation-which-float", "symmetry_relation-which-6", "parse_flattened-z_re", "parse_flattened-z_im",
        "parse_flattened-p", "parse_flattened-q",
        "is_flattened_ft-tol", "wedge_necessary_zero-tol"])
def test_an_input_of_the_wrong_kind_is_named(call, exc, message):
    # each raised an error naming neither the argument nor its value:
    # AttributeError from str.split, a TypeError from indexing a tuple,
    # int() or float() naming the text but not its field,
    # from arithmetic on a str or from comparing it
    with pytest.raises(exc, match="^" + re.escape(message) + "$") as info:
        call()
    assert type(info.value) is exc


# ---------------------------------------------------------------------------
# the hostile-input table: every public callable that takes values, each
# argument in turn replaced by each hostile value
# ---------------------------------------------------------------------------

HOSTILE = [BIG, math.nan, math.inf, -math.inf, complex(math.nan, math.nan), complex(math.inf, math.inf), 5e-324,
           1e-320j, complex(1.7e308, 1.7e308), "abc", None, [1], True, -2 - 0j]


def _enter(mode):
    with precision(mode):
        pass


def _public_calls():
    # each callable of __all__ that takes values, with arguments it accepts
    f = flattened(0.3 + 0.4j, 1, -2)
    ft = make_flattened_ft(0.3 + 0.2j, 0.4 + 0.9j)
    t = FlattenedTriangulation(((f, 1), (flattened(3 + 0j, 0, 1), -1)), "t")
    return {
        "CmodZ2": (CmodZ2, {"value": 1 + 2j}),
        "CutPoint": (CutPoint, {"z": 3 + 0j, "side": Side.ABOVE}),
        "FlattenedFT": (FlattenedFT, {"entries": ft.entries}),
        "FlattenedNumber": (FlattenedNumber, {"base": CutPoint(0.3 + 0.4j), "p": 1, "q": -2}),
        "FlattenedTriangulation": (FlattenedTriangulation, {"simplices": t.simplices, "name": "t"}),
        "FormalSum": (FormalSum, {"terms": ((2, f),)}),
        "NecessaryZeroCheck": (NecessaryZeroCheck, {"passed": True, "certainty": "zero", "pairing": 0.0}),
        "Side": (Side, {"value": "a"}),
        "SweepConfig": (SweepConfig, {"relation": "kappa", "samples": 2, "seed": 0, "tol": 1e-9, "index_bound": 5}),
        "SweepResult": (SweepResult, {"config": SweepConfig("kappa", samples=2), "max_residual": 0.0,
                                      "case_counts": {}, "failures": []}),
        "TriangulationFormatError": (TriangulationFormatError, {"message": "bad", "line": 3}),
        "WedgeExpr": (WedgeExpr, {"terms": WEDGE.terms}),
        "as_cut_point": (as_cut_point, {"value": 0.3 + 0.4j}),
        "canonicalize": (canonicalize, {"z": 3 + 0j, "side": Side.BELOW, "p": 1, "q": -2}),
        "chi_hat": (chi_hat, {"z": 0.3 + 0.4j}),
        "complex_volume": (complex_volume, {"t": t}),
        "curly": (curly, {"z": 0.3 + 0.4j, "p": 1}),
        "curly_product_relation": (curly_product_relation, {"z": 0.3 + 0.4j, "p": 1, "w": -2 + 1j, "r": 0}),
        "cycle_relation": (cycle_relation, {"x": 0.3 + 0.2j, "y": 0.4 + 0.9j, "p0": 0, "p1": 1, "q0": 0, "q1": 1,
                                            "q2": 0}),
        "eval_lhat": (eval_lhat, {"s": t.as_formal_sum()}),
        "five_term_element": (five_term_element, {"t": ft, "tol": 1e-9}),
        "flattened": (flattened, {"z": 0.3 + 0.4j, "p": 1, "q": -2}),
        "index_relations": (index_relations, {"z": 0.3 + 0.4j, "p": 1, "q": 2, "p2": -1, "q2": 3, "kind": "Q"}),
        "is_flattened_ft": (is_flattened_ft, {"t": ft, "tol": 1e-9}),
        "kappa_hat": (kappa_hat, {"z": 0.5 + 0j, "p": 1}),
        "li2": (li2, {"p": 0.3 + 0.4j}),
        "load": (load, {"source": FIG8_PATH}),
        "log_one_minus": (log_one_minus, {"p": 0.3 + 0.4j}),
        "log_param_l": (log_param_l, {"f": f}),
        "log_param_m": (log_param_m, {"f": f}),
        "make_flattened_ft": (make_flattened_ft, {"x": 0.3 + 0.2j, "y": 0.4 + 0.9j, "p0": 0, "p1": 1, "q0": 0,
                                                  "q1": 1, "q2": 0}),
        "mirror_relation": (mirror_relation, {"z": 0.3 + 0.4j, "p": 1, "q": -2}),
        "nu_hat": (nu_hat, {"s": t.as_formal_sum()}),
        "parse_flattened": (parse_flattened, {"text": "0.3 0.4 i 1 -2"}),
        "precision": (_enter, {"mode": "high"}),
        "principal_log": (principal_log, {"p": 0.3 + 0.4j}),
        "reduce_mod_transfer": (reduce_mod_transfer, {"v": CmodZ2(1 + 2j)}),
        "rogers_l_bar": (rogers_l_bar, {"f": f}),
        "rogers_l_hat": (rogers_l_hat, {"f": f}),
        "root4": (root4, {"z": 0.3 + 0.4j}),
        "run_sweep": (run_sweep, {"config": SweepConfig("kappa", samples=2)}),
        "serialize_flattened": (serialize_flattened, {"f": f}),
        "set_precision": (set_precision, {"mode": "high"}),
        "splitting": (splitting, {"s": t.as_formal_sum()}),
        "symmetry_relation": (symmetry_relation, {"z": 0.3 + 0.4j, "p": 1, "q": -2, "which": 3}),
        "volume_report": (volume_report, {"t": t}),
        "wedge_necessary_zero": (wedge_necessary_zero, {"w": WEDGE, "tol": 1e-9}),
    }


# the arguments a value of the wrong type reached only as an AttributeError:
# the TypeError each raises now names the argument
TYPED = {("eval_lhat", "s"), ("splitting", "s"), ("nu_hat", "s"), ("complex_volume", "t"), ("volume_report", "t"),
         ("wedge_necessary_zero", "w"), ("rogers_l_bar", "f"), ("rogers_l_hat", "f"), ("log_param_l", "f"),
         ("log_param_m", "f"), ("serialize_flattened", "f"), ("run_sweep", "config")}
TABLE = [(name, arg) for name, (_, kwargs) in _public_calls().items() for arg in kwargs]


def test_the_table_covers_every_public_callable():
    callables = {name for name in extbloch.__all__ if callable(getattr(extbloch, name))}
    assert callables == set(_public_calls())
    assert TYPED <= set(TABLE)
    with precision("double"):
        for name, (fn, kwargs) in _public_calls().items():
            fn(**kwargs)  # the arguments each row starts from are accepted


@pytest.mark.parametrize("name,arg", TABLE, ids=[f"{name}-{arg}" for name, arg in TABLE])
def test_a_hostile_value_returns_or_raises_a_named_error(name, arg):
    # each call returns or raises a ValueError or TypeError (load may also
    # raise an OSError for a path); a typed argument raises a TypeError
    # that names it, for every value here
    fn, kwargs = _public_calls()[name]
    allowed = (ValueError, TypeError, OSError) if name == "load" else (ValueError, TypeError)
    escapes = []
    with precision("double"):  # set_precision's mode ends with the block
        for value in HOSTILE:
            try:
                fn(**{**kwargs, arg: value})
            except allowed as exc:
                if (name, arg) in TYPED and not (type(exc) is TypeError and str(exc).startswith(f"{arg} must be a ")):
                    escapes.append((value, repr(exc)))
            except Exception as exc:  # noqa: BLE001 -- the escapes the table looks for
                escapes.append((value, repr(exc)))
            else:
                if (name, arg) in TYPED:
                    escapes.append((value, "returned"))
    assert escapes == []


def _names(arg, value, message):
    # the message names the argument (as a word, or in its option spelling)
    # or the value; "0 and 1 are excluded" names a value that reads as 0 or 1
    if any(re.search(rf"\b{re.escape(word)}\b", message) for word in (arg, arg.replace("_", "-"))):
        return True
    if message == "0 and 1 are excluded from the cut plane":
        return value in (0, 1)
    return repr(value) in message


@pytest.mark.parametrize("name,arg", TABLE, ids=[f"{name}-{arg}" for name, arg in TABLE])
def test_every_error_of_the_table_names_its_argument_or_value(name, arg):
    # among them were "complex() arg is a malformed string", "'int' object is
    # not iterable", "too many values to unpack", "branch index p" for p0,
    # and "unsupported operand type(s) for -" for an index
    fn, kwargs = _public_calls()[name]
    unnamed = []
    with precision("double"):
        for value in HOSTILE:
            try:
                fn(**{**kwargs, arg: value})
            except Exception as exc:  # noqa: BLE001 -- every message is read
                if not _names(arg, value, str(exc)):
                    unnamed.append((value, repr(exc)))
    assert unnamed == []


_F = flattened(0.3 + 0.4j, 1, -2)
_FT = make_flattened_ft(0.3 + 0.2j, 0.4 + 0.9j)


@pytest.mark.parametrize("call,exc,message", [
    (lambda: FormalSum(5), TypeError, "terms must be iterable, not int"),
    (lambda: FormalSum(((1, _F, 2),)), ValueError, "each term of terms must be a tuple of 2 fields, got 3"),
    (lambda: FormalSum((5,)), TypeError, "each term of terms must be a tuple of 2 fields, not int"),
    (lambda: FormalSum([iter((1, _F, 2))]), ValueError, "each term of terms must be a tuple of 2 fields, got 3"),
    (lambda: FormalSum(((1, 5),)), TypeError, "each generator of terms must be a FlattenedNumber, not int"),
    (lambda: WedgeExpr(5), TypeError, "terms must be iterable, not int"),
    (lambda: WedgeExpr(((1, 2j),)), ValueError, "each term of terms must be a tuple of 3 fields, got 2"),
    (lambda: WedgeExpr((None,)), TypeError, "each term of terms must be a tuple of 3 fields, not NoneType"),
    (lambda: WedgeExpr([iter((1, 2j, 3j, 4j))]), ValueError, "each term of terms must be a tuple of 3 fields, got 4"),
    (lambda: WedgeExpr(((1, "abc", 2j),)), ValueError, "wedge factor 'abc' is not a number"),
    (lambda: FlattenedTriangulation(5), TypeError, "simplices must be iterable, not int"),
    (lambda: FlattenedTriangulation(((_F, 1, 0),)), ValueError,
     "each term of simplices must be a tuple of 2 fields, got 3"),
    (lambda: FlattenedTriangulation((_F,)), TypeError, "each term of simplices must be a tuple of 2 fields, "
                                                       "not FlattenedNumber"),
    (lambda: FlattenedTriangulation([iter((_F, 1, 0))]), ValueError,
     "each term of simplices must be a tuple of 2 fields, got 3"),
    (lambda: FlattenedTriangulation(((5, 1),)), TypeError, "each shape of simplices must be a FlattenedNumber, not int"),
    (lambda: FlattenedFT(5), TypeError, "entries must be iterable, not int"),
    (lambda: FlattenedFT(("a", "b", "c", "d", "e")), TypeError, "each of entries must be a FlattenedNumber, not str"),
    (lambda: FlattenedFT(_FT.entries[:4]), ValueError, "a five-term tuple has exactly five entries, got 4"),
    (lambda: five_term_element(5), TypeError, "t must be iterable, not int"),
    (lambda: is_flattened_ft(5), TypeError, "t must be iterable, not int"),
    (lambda: load(5), TypeError, "source must be a path or a text stream, not int"),
    (lambda: load(io.BytesIO(b"+1 0.5 0.5 i 0 0")), TypeError, "source must be a path or a text stream, not BytesIO"),
], ids=["FormalSum", "FormalSum-long-term", "FormalSum-int-term", "FormalSum-long-iterator", "FormalSum-generator",
        "WedgeExpr", "WedgeExpr-short-term", "WedgeExpr-None-term", "WedgeExpr-long-iterator", "WedgeExpr-factor",
        "FlattenedTriangulation", "FlattenedTriangulation-long-term", "FlattenedTriangulation-bare-shape",
        "FlattenedTriangulation-long-iterator", "FlattenedTriangulation-shape", "FlattenedFT", "FlattenedFT-str-entries", "FlattenedFT-four",
        "five_term_element", "is_flattened_ft", "load", "load-bytes-stream"])
def test_a_container_names_its_argument(call, exc, message):
    # FlattenedFT built from five strings; the others raised "'int' object is
    # not iterable", "too many values to unpack (expected 2)", "cannot unpack
    # non-iterable int object", "expected str, bytes or os.PathLike object",
    # "text must be a str, not bytes" for a stream of bytes;
    # a generator of another type was named by neither the argument nor the
    # value, and an iterator term of too many fields was a TypeError
    with pytest.raises(exc, match="^" + re.escape(message) + "$") as info:
        call()
    assert type(info.value) is exc


def test_a_five_term_tuple_takes_any_iterable_of_five():
    assert FlattenedFT(iter(_FT.entries)) == FlattenedFT(list(_FT.entries)) == _FT
    assert type(FlattenedFT(iter(_FT.entries)).entries) is tuple


def test_a_term_may_be_any_iterable_of_its_width():
    assert FormalSum([iter((2, _F))]) == FormalSum([[2, _F]]) == FormalSum(((2, _F),))
    assert WedgeExpr([iter((1, 2j, 3j))]) == WedgeExpr(((1, 2j, 3j),))
    assert FlattenedTriangulation([iter((_F, -1))]) == FlattenedTriangulation(((_F, -1),))


@pytest.mark.parametrize("build,name,width", [
    (FormalSum, "terms", 2), (WedgeExpr, "terms", 3), (FlattenedTriangulation, "simplices", 2),
], ids=["FormalSum", "WedgeExpr", "FlattenedTriangulation"])
def test_an_iterator_term_is_read_at_most_one_field_past_its_width(build, name, width):
    # tuple(term) read a million fields before the width check said "got 1000000"
    it = iter(range(10**6))
    message = f"each term of {name} must be a tuple of {width} fields, got {width + 1}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        build([it])
    assert next(it) == width + 1


@pytest.mark.parametrize("call,exc,message", [
    (lambda: CutPoint("abc"), ValueError, "z 'abc' is not a number"),
    (lambda: CutPoint([1]), TypeError, "z must be a number, not list"),
    (lambda: as_cut_point(None), TypeError, "value must be a number, not NoneType"),
    (lambda: flattened("abc"), ValueError, "z 'abc' is not a number"),
    (lambda: li2("abc"), ValueError, "p 'abc' is not a number"),
    (lambda: principal_log([1]), TypeError, "p must be a number, not list"),
    (lambda: chi_hat("abc"), ValueError, "z 'abc' is not a number"),
    (lambda: root4([1]), TypeError, "z must be a number, not list"),
    (lambda: symmetry_relation("abc", 0, 0, 1), ValueError, "z 'abc' is not a number"),
    (lambda: make_flattened_ft(0.3 + 0.2j, None), TypeError, "y must be a number, not NoneType"),
    (lambda: curly_product_relation(0.3 + 0.4j, 0, "abc", 0), ValueError, "w 'abc' is not a number"),
    (lambda: CmodZ2("abc"), ValueError, "value 'abc' is not a number"),
    (lambda: CmodZ2(1j).distance_to([1]), TypeError, "other must be a number, not list"),
    (lambda: CmodZ2(1).distance_to(math.nan), ValueError, "other nan is not a finite value of C mod 4 pi^2"),
    (lambda: CmodZ2(1).distance_to(math.inf), ValueError, "other inf is not a finite value of C mod 4 pi^2"),
    (lambda: CmodZ2(1).distance_to(-math.inf), ValueError, "other -inf is not a finite value of C mod 4 pi^2"),
    (lambda: CmodZ2(1).distance_to(complex(math.nan, math.nan)), ValueError,
     "other (nan+nanj) is not a finite value of C mod 4 pi^2"),
    (lambda: cycle_relation(0.3 + 0.2j, 0.4 + 0.9j, p0=BIG), ValueError,
     "branch index p0 is beyond 2**53 in magnitude"),
    (lambda: cycle_relation(0.3 + 0.2j, 0.4 + 0.9j, q1="abc"), TypeError, "q1 'abc' is not an integer"),
    (lambda: make_flattened_ft(0.3 + 0.2j, 0.4 + 0.9j, q2=2**53 + 1), ValueError,
     "branch index q2 is beyond 2**53 in magnitude"),
    (lambda: make_flattened_ft(0.3 + 0.2j, 0.4 + 0.9j, p1=[1]), TypeError, "p1 [1] is not an integer"),
    (lambda: index_relations(0.3 + 0.4j, 1, "abc", -1, 3, "Q"), TypeError, "q 'abc' is not an integer"),
    (lambda: index_relations(0.3 + 0.4j, 1, 2, -1, BIG, "Q"), ValueError,
     "branch index q2 is beyond 2**53 in magnitude"),
    (lambda: curly_product_relation(0.3 + 0.4j, 0, -2 + 1j, 1.5), TypeError, "r 1.5 is not an integer"),
    (lambda: mirror_relation(5e-324), ValueError, "the mirror relation at z = (5e-324+0j) derives the coordinate "
                                                  "(1+0j): 0 and 1 are excluded from the cut plane"),
    (lambda: five_term_element(_FT, 5e-324), ValueError, "t is not a flattened five-term instance within tol 5e-324"),
], ids=["CutPoint-str", "CutPoint-list", "as_cut_point", "flattened", "li2", "principal_log", "chi_hat",
        "root4", "symmetry_relation", "make_flattened_ft-y", "curly_product_relation-w",
        "CmodZ2", "CmodZ2.distance_to", "CmodZ2.distance_to-nan", "CmodZ2.distance_to-inf",
        "CmodZ2.distance_to-minus-inf", "CmodZ2.distance_to-nan-nan", "cycle_relation-p0", "cycle_relation-q1", "make_flattened_ft-q2",
        "make_flattened_ft-p1", "index_relations-q", "index_relations-q2", "curly_product_relation-r",
        "mirror_relation", "five_term_element-tol"])
def test_a_value_that_is_no_number_or_index_is_named(call, exc, message):
    # each raised "complex() arg is a malformed string", "complex() first
    # argument must be a string or a number", "branch index p" for p0,
    # "branch indices p, q must be integers", "unsupported operand type(s)",
    # "0 and 1 are excluded from the cut plane" or "tuple is not a flattened
    # five-term instance"; distance_to returned nan for a NaN other, and raised
    # "math domain error" for an infinite one
    with pytest.raises(exc, match="^" + re.escape(message) + "$") as info:
        call()
    assert type(info.value) is exc
