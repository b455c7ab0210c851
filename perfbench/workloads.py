"""The benchmark's workloads: what one operation is, and how it is checked.

An operation is one ``run_sweep`` call on the sweep workloads and one
triangulation file on ``volume-large``.  A round is the fixed list of
operations a run repeats; runs always finish the round they started.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import extbloch
from extbloch import bloch, ccs, sweeps
from extbloch.dilog import Side

import gen
import oracles

TOL = 1e-9  # the CLI's default tolerance; every check below uses it
LI2_TOL = 1e-12  # relative, li2 against mpmath.polylog(2, z)


def _seed(*parts) -> int:
    return random.Random(":".join(map(str, parts))).getrandbits(31)


@dataclass(frozen=True)
class Op:
    round: int
    key: str  # relation name, or file name
    seed: int
    items: int  # relation samples, or triangulation records


# ---------------------------------------------------------------------------
# relation sweeps
# ---------------------------------------------------------------------------

class SweepCapture:
    """Observes the lifted evaluations a sweep makes, to check every sample.

    ``extbloch.sweeps`` looks up ``eval_lhat`` and ``chi_hat`` in its own
    namespace; both are wrapped there.  Each evaluation's value is kept with
    the first coefficient of its formal sum (which tells k kappa apart from
    2k kappa) and, in the splitting sweep, the z passed to ``chi_hat``.  One
    seeded evaluation per operation also keeps its formal sum, whose
    interior points feed the li2 check.
    """

    def __init__(self) -> None:
        self.values: list[tuple[complex, int, complex | None]] = []
        self.kept: list = []
        self.keep_index = -1
        self._last_chi: complex | None = None
        self._patches: list[tuple[str, object]] = []

    def install(self) -> None:
        eval_lhat = sweeps.eval_lhat
        chi_hat = sweeps.chi_hat
        values = self.values

        def capture_eval(s):
            v = eval_lhat(s)
            if len(values) == self.keep_index:
                self.kept.append(s)
            values.append((v.value, s.terms[0][0] if s.terms else 0, self._last_chi))
            return v

        def capture_chi(z):
            self._last_chi = complex(z)
            return chi_hat(z)

        self._patches = [("eval_lhat", eval_lhat), ("chi_hat", chi_hat)]
        sweeps.eval_lhat = capture_eval
        sweeps.chi_hat = capture_chi

    def uninstall(self) -> None:
        for attr, value in self._patches:
            setattr(sweeps, attr, value)
        self._patches = []

    def reset(self, keep_index: int) -> None:
        self.values.clear()
        self.kept.clear()
        self.keep_index = keep_index
        self._last_chi = None


class SweepWorkload:
    def __init__(self, name: str, precision: str, samples: int) -> None:
        self.name = name
        self.precision = precision
        self.samples = samples  # per run_sweep call, equal for every relation
        self.capture = SweepCapture()
        self._check_rng: random.Random | None = None
        self.li2_checked = 0
        self.samples_checked = 0

    def probe_argv(self, seed: int, out: Path) -> list[str]:
        return [
            "check", "five-term", "--samples", str(self.samples),
            "--seed", str(_seed(self.name, seed, "probe")),
            "--precision", self.precision, "--format", "structured",
        ]

    def check_probe(self, stdout: str) -> str | None:
        rep = json.loads(stdout.strip().splitlines()[-1])
        if not (rep["passed"] and rep["samples"] == self.samples
                and rep["max_residual"] <= TOL):
            return f"set-up probe sweep did not pass: {rep}"
        return None

    def start(self, seed: int, out: Path) -> None:
        self._check_rng = random.Random(_seed(self.name, seed, "check"))
        extbloch.set_precision(self.precision)
        self.capture.install()

    def stop(self) -> None:
        self.capture.uninstall()
        extbloch.set_precision("double")

    def ops(self, seed: int, r: int) -> list[Op]:
        return [
            Op(r, rel, _seed(self.name, seed, r, rel), self.samples)
            for rel in sweeps.RELATIONS
        ]

    def stage(self, op: Op) -> None:
        self.capture.reset(self._check_rng.randrange(self.samples))

    def run(self, op: Op):
        return sweeps.run_sweep(sweeps.SweepConfig(op.key, samples=op.items, seed=op.seed))

    def check(self, op: Op, result) -> list[str]:
        errors = []
        where = f"{op.key} seed={op.seed}"
        if not result.passed or result.failures:
            errors.append(f"{where}: run_sweep reports failure, max_residual={result.max_residual!r}")
        if sum(result.case_counts.values()) != op.items:
            errors.append(f"{where}: case counts {result.case_counts} do not add up to {op.items}")
        values = self.capture.values
        if len(values) < op.items:
            errors.append(f"{where}: saw {len(values)} evaluations for {op.items} samples")
        for value, coeff, z in values:
            target = oracles.sweep_target(op.key, coeff, z)
            r = oracles.mod_distance(value, target)
            if op.key == "splitting":
                r = max(r, oracles.split_residual(value, z))
            if not r <= TOL:
                errors.append(f"{where}: residual {r!r} against the relation's identity")
        self.samples_checked += len(values)
        for s in self.capture.kept:
            errors += self._check_li2(s, where)
        return errors

    def _check_li2(self, s, where: str) -> list[str]:
        points = [g.base for _, g in s.terms if g.base.side is Side.INTERIOR]
        if not points:
            return []
        point = self._check_rng.choice(points)
        got = extbloch.li2(point)
        want = oracles.li2_reference(point.z)
        self.li2_checked += 1
        if abs(got - want) > LI2_TOL * max(1.0, abs(want)):
            return [f"{where}: li2({point.z!r}) = {got!r}, mpmath gives {want!r}"]
        return []


# ---------------------------------------------------------------------------
# large complex-volume files
# ---------------------------------------------------------------------------

@dataclass
class VolumeOutput:
    report: object
    wedge: object


class VolumeWorkload:
    name = "volume-large"

    def __init__(self) -> None:
        self._dir: Path | None = None
        self._files: dict[str, gen.VolumeFile] = {}
        self.samples_checked = 0
        self.li2_checked = 0

    def probe_argv(self, seed: int, out: Path) -> list[str]:
        # The figure-eight complement: two simplices at e^{i pi/3}.
        path = out / "probe-fig8.tri"
        path.parent.mkdir(parents=True, exist_ok=True)
        z = gen.SIMPLEX_Z
        path.write_text("name: fig8\n" + f"+1 {z.real!r} {z.imag!r} i 0 0\n" * 2)
        return ["ccs", str(path), "--format", "structured"]

    def check_probe(self, stdout: str) -> str | None:
        rep = json.loads(stdout.strip().splitlines()[-1])
        want = oracles.closed_form([(1, 0, 0), (1, 0, 0)], gen.THETA_NUM, gen.THETA_DEN)
        got = complex(rep["value_re"], rep["value_im"])
        if rep["simplices"] != 2 or not oracles.mod_distance(got, want) <= TOL:
            return f"set-up probe volume {got!r}, closed form {want!r}"
        return None

    def start(self, seed: int, out: Path) -> None:
        self._dir = out / f"inputs-{self.name}-{seed}"
        self._dir.mkdir(parents=True, exist_ok=True)

    def stop(self) -> None:
        for path in self._dir.glob("*.tri"):
            path.unlink()
        self._dir.rmdir()

    def ops(self, seed: int, r: int) -> list[Op]:
        return [Op(r, str(self._dir / f"{self.name}-{seed}-{r}.tri"), seed, gen.RECORDS)]

    def stage(self, op: Op) -> None:
        f = gen.volume_file(op.seed, op.round)
        Path(op.key).write_text(f.text)
        self._files[op.key] = f

    def run(self, op: Op) -> VolumeOutput:
        tri = ccs.load(op.key)
        report = ccs.volume_report(tri)
        n = self._files[op.key].relation_records
        relation = extbloch.FormalSum(tuple((sign, shape) for shape, sign in tri.simplices[:n]))
        wedge = bloch.wedge_necessary_zero(bloch.nu_hat(relation))
        return VolumeOutput(report, wedge)

    def check(self, op: Op, out: VolumeOutput) -> list[str]:
        f = self._files.pop(op.key)
        Path(op.key).unlink()
        rep = out.report
        errors = []
        if rep.simplex_count != gen.RECORDS or rep.name != f.name:
            errors.append(f"{f.name}: report names {rep.name!r} with {rep.simplex_count} simplices")
        want = oracles.closed_form(f.simplices, gen.THETA_NUM, gen.THETA_DEN)
        got = complex(rep.value_re, rep.value_im)
        if not oracles.mod_distance(got, want) <= TOL:
            errors.append(f"{f.name}: value {got!r}, closed form {want!r}")
        transfer = complex(rep.value_mod_2pi2_re, rep.value_im)
        if not oracles.mod_distance(transfer, want, oracles.TWO_PI_SQ) <= TOL:
            errors.append(f"{f.name}: value mod 2 pi^2 {transfer!r}, closed form {want!r}")
        split = complex(rep.split_re, rep.split_im)
        if not oracles.split_residual(want, split) <= TOL:
            errors.append(f"{f.name}: split value {split!r} is not exp(closed form / 2 pi i)")
        if not out.wedge.passed:
            errors.append(f"{f.name}: wedge check certifies the relation part nonzero: {out.wedge}")
        self.samples_checked += 1
        return errors


WORKLOADS = {
    "sweep-double": lambda: SweepWorkload("sweep-double", "double", 40),
    "sweep-high": lambda: SweepWorkload("sweep-high", "high", 4),
    "volume-large": VolumeWorkload,
}
