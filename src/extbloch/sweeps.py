"""Seeded randomized verification sweeps over the relation generators.

Every runner draws its inputs from a seeded generator, evaluates the
relation element under the lifted Rogers evaluation, and records the
modular distance to zero.  Sampling is deterministic given (seed, config),
and reports are rendered without timestamps so identical configurations
produce byte-identical output.  The stratified samplers guarantee that
the argument-case splits of the product and cycle relations are each
exercised at least a third of the time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from .cover import make_flattened_ft
from .dilog import PI, TWO_PI_I, CutPoint, Side, _integer, _real, arg_cut, principal_log
from .prebloch import (
    FormalSum,
    chi_hat,
    curly_product_relation,
    cycle_relation,
    eval_lhat,
    five_term_element,
    index_relations,
    kappa_hat,
    mirror_relation,
    symmetry_relation,
)
from .rogers import TWO_PI_SQ

@dataclass(frozen=True)
class SweepConfig:
    relation: str
    samples: int = 500
    seed: int = 0
    tol: float = 1e-9
    index_bound: int = 5

    def __post_init__(self) -> None:
        if self.relation not in RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        for name in ("samples", "seed", "index_bound"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        object.__setattr__(self, "tol", _real(self.tol, "tol"))
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0 < self.tol < math.inf:  # at an infinite tol every sweep passes
            raise ValueError("tol must be positive")
        if self.index_bound < 0:
            raise ValueError("index-bound must be >= 0")
        # a FlattenedNumber holds indices up to 2**53; the sweeps derive up to
        # 4 bound (five-term) and 3 bound + 2 (index-pq on the below side)
        if 4 * self.index_bound + 2 > 2**53:
            raise ValueError(f"index-bound must be at most {(2**53 - 2) // 4}")


@dataclass
class SweepResult:
    config: SweepConfig
    max_residual: float = 0.0
    case_counts: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.config.tol and not self.failures

    def render_text(self) -> str:
        c = self.config
        cases = " ".join(f"{k}={v}" for k, v in sorted(self.case_counts.items()))
        lines = [
            f"relation: {c.relation}",
            f"samples: {c.samples}",
            f"seed: {c.seed}",
            f"tol: {c.tol!r}",
            f"index-bound: {c.index_bound}",
            f"cases: {cases}",
            f"max-residual: {self.max_residual!r}",
            f"status: {'PASS' if self.passed else 'FAIL'}",
            *self.failures,
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        c = self.config
        return {
            "relation": c.relation,
            "samples": c.samples,
            "seed": c.seed,
            "tol": c.tol,
            "index_bound": c.index_bound,
            "cases": dict(sorted(self.case_counts.items())),
            "max_residual": self.max_residual,
            "passed": self.passed,
            "failures": list(self.failures),
        }


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_ft_plus(rng: random.Random) -> tuple[complex, complex]:
    """A pair (x, y) in the all-upper-half five-term chart.

    y is drawn from a box with Im y in (0.1, 3); x is uniform over the
    triangle 0, 1, y with barycentric margin 0.05 from the edges, keeping
    the tuple clear of the chart boundary.
    """
    y = complex(rng.uniform(-2.0, 3.0), rng.uniform(0.1, 3.0))
    while True:
        s, t = sorted((rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)))
        bary = (s, t - s, 1.0 - t)
        if min(bary) >= 0.05:
            break
    x = bary[1] * 1.0 + bary[2] * y
    return x, y


def sample_interior(rng: random.Random) -> CutPoint:
    while True:
        z = complex(rng.uniform(-3.0, 4.0), rng.uniform(-3.0, 3.0))
        if abs(z.imag) >= 0.02 and abs(z) >= 0.05 and abs(z - 1.0) >= 0.05:  # clear of the cuts, 0 and 1
            return CutPoint(z)


def sample_boundary(rng: random.Random) -> CutPoint:
    if rng.random() < 0.5:
        x = rng.uniform(-5.0, -0.1)
    else:
        x = rng.uniform(1.1, 6.0)
    side = Side.ABOVE if rng.random() < 0.5 else Side.BELOW
    return CutPoint(complex(x, 0.0), side)


def sample_cut_point(rng: random.Random) -> CutPoint:
    if rng.random() < 0.15:  # the share of points drawn on a cut
        return sample_boundary(rng)
    return sample_interior(rng)


def _from_polar(rng: random.Random, arg_lo: float, arg_hi: float) -> CutPoint:
    r = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
    a = rng.uniform(arg_lo, arg_hi)
    z = complex(r * math.cos(a), r * math.sin(a))
    if z.imag == 0.0:
        z = complex(z.real, 1e-12)
    return CutPoint(z)


def _homo_case_pair(rng: random.Random, case: int) -> tuple[CutPoint, CutPoint]:
    """z, w with Arg z + Arg w in the window of the requested index shift."""
    boundary = rng.random() < 0.125
    if case == 0:
        if boundary:
            x = rng.uniform(1.1, 6.0)
            z = CutPoint(complex(x, 0.0), Side.ABOVE if rng.random() < 0.5 else Side.BELOW)
        else:
            z = _from_polar(rng, -0.45 * PI, 0.45 * PI)
        return z, _from_polar(rng, -0.45 * PI, 0.45 * PI)
    # case -1 mirrors case +1; sorted() passes each Arg window low end first, as the draws always have
    if boundary:
        z = CutPoint(complex(rng.uniform(-5.0, -0.1), 0.0), Side.ABOVE if case > 0 else Side.BELOW)  # Arg = case pi
        return z, _from_polar(rng, *sorted((case * 0.1, case * 0.9 * PI)))
    z = _from_polar(rng, *sorted((case * 0.55 * PI, case * 0.95 * PI)))
    edge = case * PI - arg_cut(z) + case * 0.02  # Arg z + Arg w passes case pi by 0.02
    return z, _from_polar(rng, *sorted((edge, case * 0.95 * PI)))


def _cycle_case_pair(rng: random.Random, case: int) -> tuple[CutPoint, CutPoint]:
    """x, y with Arg y - Arg x in the window of the requested index shift."""
    if case == 0:
        return _from_polar(rng, -0.45 * PI, 0.45 * PI), _from_polar(rng, -0.45 * PI, 0.45 * PI)
    upper = _from_polar(rng, 0.55 * PI, 0.95 * PI)
    lower = _from_polar(rng, -0.95 * PI, arg_cut(upper) - PI - 0.02)
    return (lower, upper) if case == 1 else (upper, lower)


def _rand_nonzero(rng: random.Random) -> complex:
    r = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
    a = rng.uniform(-PI, PI)
    return complex(r * math.cos(a), r * math.sin(a))


def _indices(rng: random.Random, bound: int, n: int) -> list[int]:
    return [rng.randint(-bound, bound) for _ in range(n)]


# ---------------------------------------------------------------------------
# per-relation runners: return (residual, case label, echo)
#
# The echo is a zero-argument callable that builds the replayable text;
# only failing samples call it.  The twelve relations whose element must
# vanish have a builder returning (element, case label), run by _vanishing.
# ---------------------------------------------------------------------------

def _echo_sum(tag: str, s: FormalSum) -> str:
    body = s.serialize().replace("\n", " | ")
    return f"{tag} element: {body}"


def _vanishing(build: Callable, *args) -> Callable:
    def run(rng, k, cfg):
        elem, case = build(rng, k, cfg, *args)
        return eval_lhat(elem).magnitude(), case, lambda: _echo_sum(cfg.relation, elem)

    return run


def _five_term(rng, k, cfg):
    x, y = sample_ft_plus(rng)
    p0, p1, q0, q1, q2 = _indices(rng, cfg.index_bound, 5)
    return five_term_element(make_flattened_ft(x, y, p0, p1, q0, q1, q2)), "all"


def _cycle(rng, k, cfg):
    case = (-1, 0, 1)[k % 3]
    while True:
        x, y = _cycle_case_pair(rng, case)
        if abs(y.z / x.z - 1.0) > 1e-6:
            break
    p0, p1, q0, q1, q2 = _indices(rng, cfg.index_bound, 5)
    return cycle_relation(x, y, p0, p1, q0, q1, q2), f"shift{case:+d}"


def _homo(rng, k, cfg):
    case = (-1, 0, 1)[k % 3]
    while True:
        z, w = _homo_case_pair(rng, case)
        if abs(z.z * w.z - 1.0) > 1e-6:
            break
    p, r = _indices(rng, cfg.index_bound, 2)
    return curly_product_relation(z, p, w, r), f"shift{case:+d}"


def _mirror(rng, k, cfg):
    z = sample_cut_point(rng)
    p, q = _indices(rng, cfg.index_bound, 2)
    return mirror_relation(z, p, q), "all"


def _index(rng, k, cfg, kind: str):
    z = sample_cut_point(rng)
    p, q, p2 = _indices(rng, cfg.index_bound, 3)
    if kind == "PQ":
        q2 = p + q - p2
    else:
        q2 = rng.randint(-cfg.index_bound, cfg.index_bound)
    return index_relations(z, p, q, p2, q2, kind), "all"


def _symmetry(rng, k, cfg, which: int):
    z = complex(rng.uniform(-3.0, 4.0), rng.uniform(0.05, 3.0))
    p, q = _indices(rng, cfg.index_bound, 2)
    return symmetry_relation(z, p, q, which), "all"


def _run_chi_hom(rng, k, cfg):
    if k % 5 == 0:
        kind = (k // 5) % 4
        if kind == 0:
            z, w = 1.0 + 0.0j, _rand_nonzero(rng)
            case = "unit"
        elif kind == 1:
            z, w = -1.0 + 0.0j, _rand_nonzero(rng)
            case = "minus-one"
        elif kind == 2:
            z, w = 1j, 1j
            case = "minus-one"
        else:
            z = _rand_nonzero(rng)
            t = rng.uniform(1.2, 4.0) * (1 if rng.random() < 0.5 else -1)
            w = t / z  # zw real, its square lands on (1, inf)
            case = "boundary-product"
    else:
        z, w = _rand_nonzero(rng), _rand_nonzero(rng)
        case = "generic"
    residual = eval_lhat(chi_hat(z) + chi_hat(w) - chi_hat(z * w)).magnitude()
    return residual, case, lambda: f"chi-hom inputs: z={z!r} w={w!r}"


def _run_kappa(rng, k, cfg):
    z = sample_interior(rng)
    p = rng.randint(-cfg.index_bound, cfg.index_bound)
    elem = kappa_hat(z, p)
    r1 = eval_lhat(elem).distance_to(complex(-TWO_PI_SQ, 0.0))
    r2 = eval_lhat(2 * elem).magnitude()
    return max(r1, r2), "all", lambda: f"kappa inputs: z={z.z!r} p={p}"


def _run_splitting(rng, k, cfg):
    z = _rand_nonzero(rng)
    chi = chi_hat(z)
    value = eval_lhat(chi)
    target = TWO_PI_I * principal_log(z)
    r1 = value.distance_to(target)
    r2 = abs(value.split() - z) / abs(z)
    return max(r1, r2), "all", lambda: f"splitting input: z={z!r}"


_RUNNERS: dict[str, Callable] = {
    "five-term": _vanishing(_five_term),
    "cycle": _vanishing(_cycle),
    "mirror": _vanishing(_mirror),
    "homo": _vanishing(_homo),
    "index-q": _vanishing(_index, "Q"),
    "index-p": _vanishing(_index, "P"),
    "index-pq": _vanishing(_index, "PQ"),
    "chi-hom": _run_chi_hom,
    "symmetry-1": _vanishing(_symmetry, 1),
    "symmetry-2": _vanishing(_symmetry, 2),
    "symmetry-3": _vanishing(_symmetry, 3),
    "symmetry-4": _vanishing(_symmetry, 4),
    "symmetry-5": _vanishing(_symmetry, 5),
    "kappa": _run_kappa,
    "splitting": _run_splitting,
}
RELATIONS = tuple(_RUNNERS)


def run_sweep(config: SweepConfig) -> SweepResult:
    rng = random.Random(config.seed)
    result = SweepResult(config)
    runner = _RUNNERS[config.relation]
    for k in range(config.samples):
        residual, case, echo = runner(rng, k, config)
        result.case_counts[case] = result.case_counts.get(case, 0) + 1
        result.max_residual = max(result.max_residual, residual)
        if residual > config.tol:
            result.failures.append(
                f"FAIL sample={k} residual={residual!r} {echo()}"
            )
    return result
