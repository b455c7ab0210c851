"""Names and examples that files outside the package rely on.

The benchmark under ``perfbench/`` wraps package functions by name, the
README's quick start shows results in comments, and the README names every
public name.  These tests read those files (they change nothing there), so a
rename in ``src/`` or a drifted comment fails here instead of in a benchmark
run or a reader's session.
"""

import ast
import cmath
import importlib
import math
import re
import types
from pathlib import Path

import extbloch
from extbloch.rogers import CmodZ2

ROOT = Path(__file__).resolve().parent.parent
PI = math.pi


def _parsed(*parts):
    return ast.parse((ROOT.joinpath(*parts)).read_text())


def test_every_layer_perfbench_traces_exists():
    # LAYERS maps a span name to a module and the public functions it wraps
    tree = _parsed("perfbench", "layertrace.py")
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.AnnAssign) and node.target.id == "LAYERS")
    missing = [(module, name) for module, names in layers.values() for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert layers and missing == []


def test_every_package_name_the_workloads_use_exists():
    # each name imported from the package, and module.name for each package
    # module workloads.py binds, among them sweeps.eval_lhat and
    # sweeps.chi_hat, which SweepCapture wraps
    tree = _parsed("perfbench", "workloads.py")
    modules = {"extbloch": importlib.import_module("extbloch")}
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("extbloch"):
            home = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(home, alias.name, None)
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
                found[f"{node.module}.{alias.name}"] = value is not None
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            found[f"{node.value.id}.{node.attr}"] = hasattr(modules[node.value.id], node.attr)
    assert found["sweeps.eval_lhat"] and found["sweeps.chi_hat"]
    assert [name for name, ok in found.items() if not ok] == []


def test_readme_quick_start_runs_as_written():
    # the block as written; each bare expression's value is checked against its comment
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    lhat, magnitude, kappa, split = values
    assert isinstance(lhat, CmodZ2) and lhat.distance_to(-PI**2 / 12) <= 1e-15  # -pi^2/12
    assert magnitude <= 1e-15  # ~1e-15
    assert isinstance(kappa, CmodZ2) and kappa.distance_to(-2 * PI**2) <= 1e-12  # -2 pi^2 mod 4 pi^2
    assert abs(split - 0.7j) <= 1e-15 and cmath.isfinite(split)  # 0.7j


def test_readme_names_every_public_name():
    text = (ROOT / "README.md").read_text()
    assert [name for name in extbloch.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)] == []
