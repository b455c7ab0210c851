"""Inputs the program cannot hold raise an error that names them.

Each row calls one public callable with one argument replaced by a value
it cannot handle, and pins the exception type and message.
"""

import math
import re

import pytest

from extbloch.bloch import WedgeExpr, wedge_necessary_zero
from extbloch.cover import is_flattened_ft, make_flattened_ft, parse_flattened
from extbloch.dilog import precision, set_precision
from extbloch.prebloch import FormalSum, check_chi_homomorphism, chi_hat, root4, symmetry_relation
from extbloch.rogers import CmodZ2
from extbloch.sweeps import SweepConfig

BIG = 10**400  # an int beyond the range of a double
WEDGE = WedgeExpr(((1, 1 + 2j, 3 - 9j),))  # pairing -15.0


def _enter_precision(dps):
    with precision("high", dps):
        pass


@pytest.mark.parametrize("call,message", [
    (lambda: chi_hat(BIG), f"{BIG} is beyond the range of a double"),
    (lambda: check_chi_homomorphism(BIG, 1j), f"{BIG} is beyond the range of a double"),
    (lambda: check_chi_homomorphism(1j, BIG), f"{BIG} is beyond the range of a double"),
    (lambda: root4(BIG), f"{BIG} is beyond the range of a double"),
    (lambda: symmetry_relation(BIG, 0, 0, 1), f"{BIG} is beyond the range of a double"),
    (lambda: make_flattened_ft(BIG, 1j), f"{BIG} is beyond the range of a double"),
    (lambda: make_flattened_ft(0.3 + 0.2j, BIG), f"{BIG} is beyond the range of a double"),
    (lambda: SweepConfig(relation="five-term", tol=BIG), f"tol {BIG} is beyond the range of a double"),
    (lambda: WedgeExpr(((1, BIG, 1j),)), f"{BIG} is beyond the range of a double"),
    (lambda: WedgeExpr(((1, 1j, BIG),)), f"{BIG} is beyond the range of a double"),
    (lambda: CmodZ2(1j).distance_to(BIG), f"{BIG} is beyond the range of a double"),
    (lambda: CmodZ2(1j).equals(BIG), f"{BIG} is beyond the range of a double"),
    (lambda: CmodZ2(1j).equals(1j, tol=BIG), f"tol {BIG} is beyond the range of a double"),
    (lambda: wedge_necessary_zero(WEDGE, tol=BIG), f"tol {BIG} is beyond the range of a double"),
    (lambda: is_flattened_ft(make_flattened_ft(0.3 + 0.2j, 0.4 + 0.9j), BIG),
     f"tol {BIG} is beyond the range of a double"),
    (lambda: set_precision("high", BIG), f"dps {BIG} is beyond the range of a double"),
    (lambda: _enter_precision(BIG), f"dps {BIG} is beyond the range of a double"),
], ids=["chi_hat", "check_chi_homomorphism-z", "check_chi_homomorphism-w", "root4", "symmetry_relation",
        "make_flattened_ft-x", "make_flattened_ft-y", "SweepConfig-tol", "WedgeExpr-a", "WedgeExpr-b",
        "CmodZ2.distance_to", "CmodZ2.equals", "CmodZ2.equals-tol", "wedge_necessary_zero-tol",
        "is_flattened_ft-tol", "set_precision-dps", "precision-dps"])
def test_a_number_beyond_a_double_is_named(call, message):
    # each raised a bare "OverflowError: int too large to convert to float",
    # or took the value: a dps until the next high-precision pass, a wedge
    # tol to certify a pairing of -15 "necessary-only"; is_flattened_ft
    # called its tol "not >= 0"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


@pytest.mark.parametrize("call,exc,message", [
    (lambda: parse_flattened(5), TypeError, "text 5 is not a string"),
    (lambda: FormalSum.parse(5), TypeError, "text 5 is not a string"),
    (lambda: symmetry_relation(0.3 + 0.4j, 1.5, 0, 1), TypeError, "branch indices p, q must be integers"),
    (lambda: symmetry_relation(0.3 + 0.4j, "2", 0, 2), TypeError, "branch indices p, q must be integers"),
    (lambda: symmetry_relation(0.3 + 0.4j, 0, "2", 3), TypeError, "branch indices p, q must be integers"),
    (lambda: symmetry_relation(0.3 + 0.4j, 0, "2", 4), TypeError, "branch indices p, q must be integers"),
    (lambda: symmetry_relation(0.3 + 0.4j, "2", 0, 5), TypeError, "branch indices p, q must be integers"),
    (lambda: symmetry_relation(0.3 + 0.4j, BIG, 0, 2), ValueError, "branch index p is beyond 2**53 in magnitude"),
    (lambda: is_flattened_ft(make_flattened_ft(0.3 + 0.2j, 0.4 + 0.9j), "x"), TypeError, "tol 'x' is not a number"),
    (lambda: wedge_necessary_zero(WEDGE, tol="x"), TypeError, "tol 'x' is not a number"),
    (lambda: CmodZ2(1j).equals(1j, tol="x"), TypeError, "tol 'x' is not a number"),
    (lambda: CmodZ2(1j).equals(1j, tol=-1.0), ValueError, "tol must be >= 0, got -1.0"),
    (lambda: CmodZ2(1j).equals(1j, tol=math.inf), ValueError, "tol must be >= 0, got inf"),
    (lambda: set_precision("high", 10**308), ValueError, f"dps {10**308} is beyond what mpmath can turn into bits"),
    (lambda: _enter_precision(10**308), ValueError, f"dps {10**308} is beyond what mpmath can turn into bits"),
], ids=["parse_flattened", "FormalSum.parse", "symmetry_relation-1", "symmetry_relation-2",
        "symmetry_relation-3", "symmetry_relation-4", "symmetry_relation-5", "symmetry_relation-p-big",
        "is_flattened_ft-tol", "wedge_necessary_zero-tol", "CmodZ2.equals-tol", "CmodZ2.equals-negative-tol",
        "CmodZ2.equals-infinite-tol", "set_precision-dps-bits", "precision-dps-bits"])
def test_an_input_of_the_wrong_kind_is_named(call, exc, message):
    # each raised an error naming neither the argument nor its value:
    # AttributeError from str.split, a TypeError from indexing a tuple,
    # from arithmetic on a str or from comparing it, or an OverflowError
    # (for the dps, at the first high-precision pass); CmodZ2.equals took a
    # negative or infinite tol
    with pytest.raises(exc, match="^" + re.escape(message) + "$") as info:
        call()
    assert type(info.value) is exc
