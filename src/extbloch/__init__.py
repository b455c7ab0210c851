"""Branch-tracked dilogarithm kernel.

Cover points of the twice-cut plane with explicit branch indices, the
lifted Rogers dilogarithm valued in C mod 4 pi^2 Z, generators and
verifiers for the relations among them, and a complex-volume evaluator
for flattened triangulation data.

Each public name is read from its submodule, which is imported on first
use, so a run loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# each public name, in the order of __all__, and the submodule that defines it
_HOMES = {
    "CmodZ2": "rogers", "CutPoint": "dilog", "FlattenedFT": "cover", "FlattenedNumber": "cover",
    "FlattenedTriangulation": "ccs", "FormalSum": "prebloch", "NecessaryZeroCheck": "bloch",
    "RELATIONS": "sweeps", "Side": "dilog", "SweepConfig": "sweeps", "SweepResult": "sweeps",
    "TriangulationFormatError": "cover", "WedgeExpr": "bloch", "as_cut_point": "dilog",
    "canonicalize": "cover", "chi_hat": "prebloch",
    "complex_volume": "ccs", "curly": "prebloch", "curly_product_relation": "prebloch",
    "cycle_relation": "prebloch", "eval_lhat": "prebloch", "five_term_element": "prebloch",
    "flattened": "cover", "index_relations": "prebloch", "is_flattened_ft": "cover",
    "kappa_hat": "prebloch", "li2": "dilog", "load": "ccs", "log_one_minus": "dilog",
    "log_param_l": "cover", "log_param_m": "cover", "make_flattened_ft": "cover",
    "mirror_relation": "prebloch", "nu_hat": "bloch", "parse_flattened": "cover",
    "precision": "dilog", "principal_log": "dilog", "reduce_mod_transfer": "rogers",
    "rogers_l_bar": "rogers", "rogers_l_hat": "rogers", "root4": "prebloch", "run_sweep": "sweeps",
    "serialize_flattened": "cover", "set_precision": "dilog", "splitting": "prebloch",
    "symmetry_relation": "prebloch", "volume_report": "ccs", "wedge_necessary_zero": "bloch",
}
_SUBMODULES = {*_HOMES.values(), "cli"}

__all__ = list(_HOMES)


def __getattr__(name: str):
    # A public name is looked up in its submodule on every use, not kept
    # here, so a wrapper bound over the submodule's attribute is what callers
    # get; a submodule name gives the submodule.
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
