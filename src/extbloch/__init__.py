"""Branch-tracked dilogarithm kernel.

Cover points of the twice-cut plane with explicit branch indices, the
lifted Rogers dilogarithm valued in C mod 4 pi^2 Z, generators and
verifiers for the relations among them, and a complex-volume evaluator
for flattened triangulation data.
"""

from .bloch import NecessaryZeroCheck, WedgeExpr, nu_hat, wedge_necessary_zero
from .ccs import (
    FlattenedTriangulation,
    TriangulationFormatError,
    complex_volume,
    load,
    volume_report,
)
from .cover import (
    FlattenedFT,
    FlattenedNumber,
    canonicalize,
    flattened,
    is_flattened_ft,
    log_param_l,
    log_param_m,
    make_flattened_ft,
    parse_flattened,
    serialize_flattened,
)
from .dilog import (
    CutPoint,
    Side,
    as_cut_point,
    li2,
    log_one_minus,
    precision,
    principal_log,
    set_precision,
)
from .prebloch import (
    FormalSum,
    check_chi_homomorphism,
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
from .rogers import (
    CmodZ2,
    reduce_mod_transfer,
    rogers_l_bar,
    rogers_l_hat,
)
from .sweeps import RELATIONS, SweepConfig, SweepResult, run_sweep

__version__ = "0.1.0"

__all__ = [
    "CmodZ2",
    "CutPoint",
    "FlattenedFT",
    "FlattenedNumber",
    "FlattenedTriangulation",
    "FormalSum",
    "NecessaryZeroCheck",
    "RELATIONS",
    "Side",
    "SweepConfig",
    "SweepResult",
    "TriangulationFormatError",
    "WedgeExpr",
    "as_cut_point",
    "canonicalize",
    "check_chi_homomorphism",
    "chi_hat",
    "complex_volume",
    "curly",
    "curly_product_relation",
    "cycle_relation",
    "eval_lhat",
    "five_term_element",
    "flattened",
    "index_relations",
    "is_flattened_ft",
    "kappa_hat",
    "li2",
    "load",
    "log_one_minus",
    "log_param_l",
    "log_param_m",
    "make_flattened_ft",
    "mirror_relation",
    "nu_hat",
    "parse_flattened",
    "precision",
    "principal_log",
    "reduce_mod_transfer",
    "rogers_l_bar",
    "rogers_l_hat",
    "root4",
    "run_sweep",
    "serialize_flattened",
    "set_precision",
    "splitting",
    "symmetry_relation",
    "volume_report",
    "wedge_necessary_zero",
]
