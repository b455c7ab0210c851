"""Seeded generator of large triangulation files for the volume-large workload.

Each file is in the ``ccs`` text format (``sign z_re z_im side p q``, one
simplex per line).  It holds two parts:

* flattened relation elements whose lifted Rogers sum vanishes mod 4 pi^2:
  five-term elements over the all-upper-half chart, index relations (Q, P
  and PQ) on interior points and on points of both cuts, and mirror
  relations on interior and boundary points;
* simplices at z = e^{i pi/3} with seeded signs and branch indices, whose
  lifted Rogers values have a closed form (see ``oracles.closed_form``).

The generator does not import ``extbloch``: index bookkeeping, boundary
canonicalisation and serialisation are written out here from the
definitions, so that a fault in the program's own constructors shows up as
a wrong file value instead of being reproduced in the input.

Run ``python3 perfbench/gen.py --seed 3 --out DIR`` to write the files of
one seed; the benchmark itself regenerates them on every run.
"""

from __future__ import annotations

import argparse
import math
import random
from dataclasses import dataclass
from pathlib import Path

INDEX_BOUND = 5  # the CLI's default --index-bound

# Record mix of one file.  Each five-term element is 5 records, each index
# or mirror relation 4, each e^{i pi/3} simplex 1: 2000 records in all.
FIVE_TERM = 160
INDEX_EACH = 45  # per kind Q, P, PQ
MIRROR = 120
SIMPLICES = 180
RELATION_RECORDS = 5 * FIVE_TERM + 4 * 3 * INDEX_EACH + 4 * MIRROR
RECORDS = RELATION_RECORDS + SIMPLICES

BOUNDARY_FRAC = 0.3  # share of index / mirror points placed on a cut

THETA_NUM, THETA_DEN = 1, 3  # the closed-form simplices sit at e^{i pi/3}
SIMPLEX_Z = complex(0.5, math.sqrt(3.0) / 2.0)


@dataclass(frozen=True)
class Record:
    """One simplex line: sign and a canonical (above-side) cover point."""

    sign: int
    z: complex
    side: str  # "i" or "a"
    p: int
    q: int

    def line(self) -> str:
        return f"{self.sign:+d} {self.z.real!r} {self.z.imag!r} {self.side} {self.p} {self.q}"


@dataclass(frozen=True)
class VolumeFile:
    """A generated file: its text, the relation-part size and the simplices."""

    name: str
    text: str
    relation_records: int
    simplices: tuple[tuple[int, int, int], ...]  # (sign, p, q) at e^{i pi/3}


def _canonical(sign: int, x: complex, side: str, p: int, q: int) -> Record:
    # (x - 0i; p, q) is the point (x + 0i; p - 1, q) on the left cut and
    # (x + 0i; p, q - 1) on the right cut.
    if side == "b":
        if x.real < 0.0:
            p -= 1
        else:
            q -= 1
        side = "a"
    return Record(sign, x, side, p, q)


def _idx(rng: random.Random) -> int:
    return rng.randint(-INDEX_BOUND, INDEX_BOUND)


def _point(rng: random.Random) -> tuple[complex, str]:
    """An interior point, or a one-sided point on either open cut."""
    if rng.random() < BOUNDARY_FRAC:
        if rng.random() < 0.5:
            x = rng.uniform(-5.0, -0.1)
        else:
            x = rng.uniform(1.1, 6.0)
        return complex(x, 0.0), ("a" if rng.random() < 0.5 else "b")
    while True:
        z = complex(rng.uniform(-3.0, 4.0), rng.uniform(-3.0, 3.0))
        if abs(z.imag) >= 0.02 and abs(z) >= 0.05 and abs(z - 1.0) >= 0.05:
            return z, "i"


def _five_term(rng: random.Random) -> list[Record]:
    # (x, y) with all five cross-ratio coordinates in the upper half-plane:
    # Im y > 0 and x inside the triangle 0, 1, y, clear of its edges.
    y = complex(rng.uniform(-2.0, 3.0), rng.uniform(0.1, 3.0))
    while True:
        s, t = sorted((rng.random(), rng.random()))
        b = (s, t - s, 1.0 - t)
        if min(b) >= 0.05:
            break
    x = b[1] + b[2] * y
    coords = (x, y, y / x, (1 - 1 / x) / (1 - 1 / y), (1 - x) / (1 - y))
    p0, p1, q0, q1, q2 = (_idx(rng) for _ in range(5))
    indices = (
        (p0, q0),
        (p1, q1),
        (p1 - p0, q2),
        (p1 - p0 + q1 - q0, q2 - q1),
        (q1 - q0, q2 - q1 - p0),
    )
    return [
        Record((-1) ** k, c, "i", pk, qk)
        for k, (c, (pk, qk)) in enumerate(zip(coords, indices))
    ]


def _index(rng: random.Random, kind: str) -> list[Record]:
    z, side = _point(rng)
    p, q, p2 = _idx(rng), _idx(rng), _idx(rng)
    if kind == "Q":
        q2 = _idx(rng)
        shifts = ((p, q - 1), (p, q), (p, q2 - 1), (p, q2))
    elif kind == "P":
        q2 = _idx(rng)
        shifts = ((p - 1, q), (p, q), (p2 - 1, q), (p2, q))
    else:  # PQ: [z; p+1, q-1] - [z; p, q] is constant along p + q = const
        q2 = p + q - p2
        shifts = ((p + 1, q - 1), (p, q), (p2 + 1, q2 - 1), (p2, q2))
    signs = (1, -1, -1, 1)
    return [_canonical(s, z, side, a, b) for s, (a, b) in zip(signs, shifts)]


def _mirror(rng: random.Random) -> list[Record]:
    # [z; p, q] + [1 - z; -q, -p] - 2 [1/2; 0, 0]; on a cut, 1 - z lies on
    # the other cut approached from the other side.
    z, side = _point(rng)
    p, q = _idx(rng), _idx(rng)
    if side == "i":
        w, wside = 1.0 - z, "i"
    else:
        w, wside = complex(1.0 - z.real, 0.0), ("b" if side == "a" else "a")
    half = Record(-1, complex(0.5, 0.0), "i", 0, 0)
    return [_canonical(1, z, side, p, q), _canonical(1, w, wside, -q, -p), half, half]


def volume_file(seed: int, k: int) -> VolumeFile:
    """The k-th file of a seed; the same (seed, k) gives the same file."""
    rng = random.Random(f"volume-large:{seed}:{k}")
    records: list[Record] = []
    for _ in range(FIVE_TERM):
        records += _five_term(rng)
    for kind in ("Q", "P", "PQ"):
        for _ in range(INDEX_EACH):
            records += _index(rng, kind)
    for _ in range(MIRROR):
        records += _mirror(rng)
    simplices = tuple(
        (rng.choice((1, -1)), _idx(rng), _idx(rng)) for _ in range(SIMPLICES)
    )
    records += [Record(s, SIMPLEX_Z, "i", p, q) for s, p, q in simplices]
    name = f"volume-large-{seed}-{k}"
    lines = [f"name: {name}", "# relation part: lifted sum is zero mod 4 pi^2"]
    lines += [r.line() for r in records[:RELATION_RECORDS]]
    lines.append("# simplices at e^{i pi/3}")
    lines += [r.line() for r in records[RELATION_RECORDS:]]
    return VolumeFile(name, "\n".join(lines) + "\n", RELATION_RECORDS, simplices)


def write_files(seed: int, out: Path, count: int) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for k in range(count):
        f = volume_file(seed, k)
        path = out / f"{f.name}.tri"
        path.write_text(f.text)
        paths.append(path)
    return paths


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True, help="directory to write into")
    ap.add_argument("--count", type=int, default=4, help="number of files (default 4)")
    args = ap.parse_args()
    for path in write_files(args.seed, args.out, args.count):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
