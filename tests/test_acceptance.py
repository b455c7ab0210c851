"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import cmath
import json
import math
import os
import random
import subprocess
import sys

import mpmath as mp
import pytest

from extbloch.bloch import nu_hat, wedge_necessary_zero
from extbloch.ccs import FlattenedTriangulation, complex_volume
from extbloch.cover import flattened, make_flattened_ft
from extbloch.dilog import PI_SQ, TWO_PI_I, li2, log_one_minus, principal_log
from extbloch.prebloch import (
    FormalSum,
    chi_hat,
    eval_lhat,
    five_term_element,
    kappa_hat,
    splitting,
)
from extbloch.rogers import CmodZ2, FOUR_PI_SQ, TWO_PI_SQ
from extbloch.sweeps import SweepConfig, run_sweep, sample_ft_plus
from continuation import commutator_monodromy
from oracles import figure_eight_volume

PI = math.pi


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


def test_criterion_01_five_term_relation():
    config = SweepConfig("five-term", samples=1000, seed=20240501, tol=1e-9, index_bound=5)
    result = run_sweep(config)
    report(1, "five-term relation", result.passed,
           f"max residual {result.max_residual:.3e} over {config.samples} tuples")


def test_criterion_02_kappa_facts():
    base = eval_lhat(kappa_hat())
    ok = base.distance_to(complex(-TWO_PI_SQ, 0.0)) <= 1e-10
    ok = ok and eval_lhat(2 * kappa_hat()).magnitude() <= 1e-10
    rng = random.Random(20240502)
    worst = 0.0
    for _ in range(20):
        z = complex(rng.uniform(-3, 4), rng.uniform(0.1, 3) * rng.choice((1, -1)))
        p = rng.randint(-5, 5)
        worst = max(
            worst,
            eval_lhat(kappa_hat(z, p)).distance_to(complex(-TWO_PI_SQ, 0.0)),
        )
    ok = ok and worst <= 1e-10
    report(2, "order-two element value", ok,
           f"value dist {base.distance_to(complex(-TWO_PI_SQ, 0)):.2e}, "
           f"rep spread {worst:.2e}")


def test_criterion_03_splitting_identity():
    rng = random.Random(20240503)
    worst_mod = worst_rel = 0.0
    for _ in range(500):
        r = math.exp(rng.uniform(math.log(0.15), math.log(6.0)))
        a = rng.uniform(-PI, PI)
        z = complex(r * math.cos(a), r * math.sin(a))
        chi = chi_hat(z)
        value = eval_lhat(chi)
        worst_mod = max(worst_mod, value.distance_to(TWO_PI_I * principal_log(z)))
        worst_rel = max(worst_rel, abs(splitting(chi) - z) / abs(z))
    ok = worst_mod <= 1e-10 and worst_rel <= 1e-10
    report(3, "splitting identity", ok,
           f"max mod residual {worst_mod:.2e}, max rel error {worst_rel:.2e}")


def test_criterion_04_roots_of_unity():
    worst = 0.0
    for num, den in ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 6), (5, 6), (1, 12)):
        alpha = num / den
        z = cmath.exp(TWO_PI_I * alpha)
        v = eval_lhat(chi_hat(z))
        worst = max(worst, v.distance_to(CmodZ2(complex(-FOUR_PI_SQ * alpha, 0.0))))
    ok = worst <= 1e-10
    report(4, "roots of unity grading", ok, f"max residual {worst:.2e}")


def test_criterion_05_chi_homomorphism():
    config = SweepConfig("chi-hom", samples=500, seed=20240505, tol=1e-9)
    result = run_sweep(config)
    ok = result.passed and result.case_counts.get("minus-one", 0) > 0 \
        and result.case_counts.get("boundary-product", 0) > 0 \
        and result.case_counts.get("unit", 0) > 0
    report(5, "chi homomorphism", ok,
           f"max residual {result.max_residual:.3e}, cases {dict(sorted(result.case_counts.items()))}")


def test_criterion_06_cycle_index_mirror():
    details = []
    ok = True
    for relation in ("cycle", "homo", "index-q", "index-p", "index-pq", "mirror"):
        result = run_sweep(SweepConfig(relation, samples=500, seed=20240506, tol=1e-9))
        ok = ok and result.passed
        if relation in ("cycle", "homo"):
            ok = ok and all(result.case_counts.get(f"shift{s:+d}", 0) >= 50 for s in (-1, 0, 1))
        details.append(f"{relation} {result.max_residual:.2e}")
    report(6, "cycle, index, mirror relations", ok, "; ".join(details))


def test_criterion_07_symmetry_relations():
    details = []
    ok = True
    for which in range(1, 6):
        result = run_sweep(
            SweepConfig(f"symmetry-{which}", samples=500, seed=20240507, tol=1e-9,
                        index_bound=4)
        )
        ok = ok and result.passed
        details.append(f"({which}) {result.max_residual:.2e}")
    report(7, "reordering relations", ok, "; ".join(details))


def test_criterion_08_monodromy():
    result = commutator_monodromy()
    ok = abs(result.change - FOUR_PI_SQ) <= 1e-9 and result.max_step_change < 5.0
    report(8, "commutator monodromy", ok,
           f"change {result.change!r}, max step {result.max_step_change:.3f}")


def _l_bar_scaled(f, scale: int) -> complex:
    """Rogers value under an index-to-coefficient reading with the given
    scale: the adopted reading is scale 1 (stored index p adds 2 pi i p);
    the rejected alternative doubles the coefficient (the even display
    integer would multiply 2 pi i directly)."""
    a = principal_log(f.base) + TWO_PI_I * (scale * f.p)
    b = log_one_minus(f.base) + TWO_PI_I * (scale * f.q)
    return li2(f.base) + 0.5 * a * b - PI_SQ / 6.0


def _reading_passes(scale: int) -> tuple[bool, bool]:
    rng = random.Random(20240509)
    worst_ft = 0.0
    for _ in range(200):
        x, y = sample_ft_plus(rng)
        idx = [rng.randint(-5, 5) for _ in range(5)]
        t = make_flattened_ft(x, y, *idx)
        total = sum(
            coeff * _l_bar_scaled(gen, scale)
            for coeff, gen in five_term_element(t).terms
        )
        worst_ft = max(worst_ft, CmodZ2(total).magnitude())
    five_term_ok = worst_ft <= 1e-9
    kappa_total = sum(c * _l_bar_scaled(g, scale) for c, g in kappa_hat().terms)
    kappa_ok = CmodZ2(kappa_total).distance_to(complex(-TWO_PI_SQ, 0.0)) <= 1e-10
    return five_term_ok, kappa_ok


def test_criterion_09_branch_reading_discrimination():
    adopted_ft, adopted_kappa = _reading_passes(1)
    alt_ft, alt_kappa = _reading_passes(2)
    adopted_passes = adopted_ft and adopted_kappa
    alternative_passes = alt_ft and alt_kappa
    ok = adopted_passes and not alternative_passes
    report(9, "branch-reading discrimination", ok,
           f"adopted: five-term={adopted_ft} kappa={adopted_kappa}; "
           f"alternative: five-term={alt_ft} kappa={alt_kappa}")


def test_criterion_10_figure_eight_complex_volume():
    shape = flattened(cmath.exp(1j * PI / 3))
    t = FlattenedTriangulation(((shape, 1), (shape, 1)), "fig8")
    value = complex_volume(t)
    oracle = figure_eight_volume()
    ok = abs(value.value.imag - oracle) <= 1e-9
    report(10, "figure-eight complex volume", ok,
           f"Im {value.value.imag!r} vs oracle {oracle!r}")


def test_criterion_11_wedge_chain_shadow():
    rng = random.Random(20240511)
    ok = True
    worst = 0.0
    for _ in range(200):
        x, y = sample_ft_plus(rng)
        idx = [rng.randint(-5, 5) for _ in range(5)]
        t = make_flattened_ft(x, y, *idx)
        check = wedge_necessary_zero(nu_hat(five_term_element(t)), tol=1e-9)
        ok = ok and bool(check)
        worst = max(worst, abs(check.pairing))
    report(11, "wedge chain-complex shadow", ok, f"max pairing {worst:.2e}")


def _volume_records(rng: random.Random) -> tuple[list[str], list[tuple[int, int, int]]]:
    """A seeded triangulation file, written from the definitions alone.

    Relation elements, whose lifted sum vanishes mod 4 pi^2 (five-term
    elements over the all-upper-half chart, index relations on interior and
    cut points, mirror relations), then simplices at e^{i pi/3}, returned
    as (sign, p, q) for the closed form.
    """
    def idx():
        return rng.randint(-5, 5)

    def record(sign, z, side, p, q):
        if side == "b":  # (x - 0i; p, q) is (x + 0i; p - 1, q) on the left cut, (x + 0i; p, q - 1) on the right
            p, q, side = (p - 1, q, "a") if z.real < 0 else (p, q - 1, "a")
        return f"{sign:+d} {z.real!r} {z.imag!r} {side} {p} {q}"

    def point():
        if rng.random() < 0.3:
            x = rng.uniform(-5.0, -0.1) if rng.random() < 0.5 else rng.uniform(1.1, 6.0)
            return complex(x, 0.0), rng.choice("ab")
        while True:
            z = complex(rng.uniform(-3.0, 4.0), rng.uniform(-3.0, 3.0))
            if abs(z.imag) >= 0.02 and abs(z) >= 0.05 and abs(z - 1) >= 0.05:
                return z, "i"

    lines = []
    for _ in range(160):  # five-term elements: y above the axis, x inside the triangle 0, 1, y
        y = complex(rng.uniform(-2.0, 3.0), rng.uniform(0.1, 3.0))
        s, t = sorted((rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)))
        x = (t - s) + (1.0 - t) * y
        coords = (x, y, y / x, (1 - 1 / x) / (1 - 1 / y), (1 - x) / (1 - y))
        p0, p1, q0, q1, q2 = (idx() for _ in range(5))
        charts = ((p0, q0), (p1, q1), (p1 - p0, q2), (p1 - p0 + q1 - q0, q2 - q1), (q1 - q0, q2 - q1 - p0))
        lines += [record((-1) ** k, c, "i", *pq) for k, (c, pq) in enumerate(zip(coords, charts))]
    for kind in ("Q", "P", "PQ") * 45:
        z, side = point()
        p, q, p2, q2 = idx(), idx(), idx(), idx()
        charts = {"Q": ((p, q - 1), (p, q), (p, q2 - 1), (p, q2)),
                  "P": ((p - 1, q), (p, q), (p2 - 1, q), (p2, q)),
                  "PQ": ((p + 1, q - 1), (p, q), (p2 + 1, p + q - p2 - 1), (p2, p + q - p2))}[kind]
        lines += [record(s, z, side, *pq) for s, pq in zip((1, -1, -1, 1), charts)]
    for _ in range(120):  # [z; p, q] + [1 - z; -q, -p] - 2 [1/2; 0, 0]
        z, side = point()
        p, q = idx(), idx()
        w, wside = (1.0 - z, "i") if side == "i" else (complex(1.0 - z.real, 0.0), "b" if side == "a" else "a")
        lines += [record(1, z, side, p, q), record(1, w, wside, -q, -p)] + [record(-1, 0.5 + 0j, "i", 0, 0)] * 2
    simplices = [(rng.choice((1, -1)), idx(), idx()) for _ in range(180)]
    z = complex(0.5, math.sqrt(3.0) / 2.0)
    lines += [record(sign, z, "i", p, q) for sign, p, q in simplices]
    return lines, simplices


def test_criterion_12_large_volume_file_through_the_cli(tmp_path):
    lines, simplices = _volume_records(random.Random(20240512))
    path = tmp_path / "large.tri"
    path.write_text("name: large\n" + "\n".join(lines) + "\n")
    out = subprocess.run([sys.executable, "-m", "extbloch", "ccs", str(path), "--format", "structured"],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}).stdout
    rep = json.loads(out)
    # L(e^{i pi/3}; 2p, 2q) = Li2 z + (i pi/3 + 2 pi i p)(-i pi/3 + 2 pi i q)/2 - pi^2/6,
    # with Li2 z = pi^2/36 + i Cl2(pi/3) on the unit circle
    with mp.workdps(40):
        li2_z = mp.pi**2 / 36 + 1j * mp.clsin(2, mp.pi / 3)
        total = sum(sign * (li2_z + (1j * mp.pi / 3 + 2j * mp.pi * p) * (-1j * mp.pi / 3 + 2j * mp.pi * q) / 2
                            - mp.pi**2 / 6) for sign, p, q in simplices)
        want = complex(total)
    got = complex(rep["value_re"], rep["value_im"])
    residual = CmodZ2(got - want).magnitude()
    ok = rep["simplices"] == len(lines) and residual <= 1e-9
    report(12, "large volume file through the CLI", ok,
           f"{rep['simplices']} records, residual {residual:.2e} against the Clausen closed form")
