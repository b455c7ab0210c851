"""Inputs the program cannot hold raise an error that names them.

Each row calls one public callable with one argument replaced by a value
it cannot handle, and pins the exception type and message.
"""

import re

import pytest

from extbloch.cover import make_flattened_ft
from extbloch.prebloch import check_chi_homomorphism, chi_hat, root4, symmetry_relation
from extbloch.sweeps import SweepConfig

BIG = 10**400  # an int beyond the range of a double


@pytest.mark.parametrize("call,message", [
    (lambda: chi_hat(BIG), f"{BIG} is beyond the range of a double"),
    (lambda: check_chi_homomorphism(BIG, 1j), f"{BIG} is beyond the range of a double"),
    (lambda: check_chi_homomorphism(1j, BIG), f"{BIG} is beyond the range of a double"),
    (lambda: root4(BIG), f"{BIG} is beyond the range of a double"),
    (lambda: symmetry_relation(BIG, 0, 0, 1), f"{BIG} is beyond the range of a double"),
    (lambda: make_flattened_ft(BIG, 1j), f"{BIG} is beyond the range of a double"),
    (lambda: make_flattened_ft(0.3 + 0.2j, BIG), f"{BIG} is beyond the range of a double"),
    (lambda: SweepConfig(relation="five-term", tol=BIG), f"tol {BIG} is beyond the range of a double"),
], ids=["chi_hat", "check_chi_homomorphism-z", "check_chi_homomorphism-w", "root4", "symmetry_relation",
        "make_flattened_ft-x", "make_flattened_ft-y", "SweepConfig-tol"])
def test_a_number_beyond_a_double_is_named(call, message):
    # each raised a bare "OverflowError: int too large to convert to float"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()
