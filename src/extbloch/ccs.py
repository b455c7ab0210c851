"""Complex-volume evaluation on flattened triangulation data.

The input is a signed list of flattened simplex shapes, presumed to come
out of a consistent flattening of an ideal triangulation; no gluing or
edge conditions are checked here (garbage in, garbage out).  The value is
the signed sum of lifted Rogers values in C mod 4 pi^2 Z.  Its imaginary
part is the volume contribution; no sign convention relating the real
part to a Chern-Simons normalization is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from .cover import FlattenedNumber, _from_fields, serialize_flattened
from .dilog import _trusted
from .prebloch import FormalSum, eval_lhat
from .rogers import CmodZ2, reduce_mod_transfer


class TriangulationFormatError(ValueError):
    """Malformed or invalid triangulation input; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class FlattenedTriangulation:
    simplices: tuple[tuple[FlattenedNumber, int], ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.simplices:
            raise ValueError("a triangulation needs at least one simplex")
        for shape, sign in self.simplices:
            if not isinstance(shape, FlattenedNumber):
                raise TypeError("shapes must be FlattenedNumber values")
            if sign not in (1, -1):
                raise ValueError(f"simplex signs must be +1 or -1, got {sign}")

    def __len__(self) -> int:
        return len(self.simplices)

    def as_formal_sum(self) -> FormalSum:
        return FormalSum(tuple((sign, shape) for shape, sign in self.simplices))


_SIGNS = {"+1": 1, "-1": -1, "1": 1}  # the usual spellings; any other goes through int()


def load(source: str | Path | TextIO) -> FlattenedTriangulation:
    """Parse a triangulation file or stream.

    One record per simplex: ``sign z_re z_im side p q`` with side i or a;
    ``#`` starts a comment; an optional ``name: <string>`` header line may
    precede the records.
    """
    if hasattr(source, "read"):
        text = source.read()
        name = ""
    else:
        path = Path(source)
        text = path.read_text()
        name = path.stem
    simplices: list[tuple[FlattenedNumber, int]] = []
    points: dict = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        parts = line.split()
        if not parts:
            continue
        if parts[0].startswith("name:"):
            if simplices:
                raise TriangulationFormatError(
                    "name header must precede all records", lineno
                )
            name = line.strip()[len("name:"):].strip()
            continue
        if len(parts) != 6:
            raise TriangulationFormatError(
                f"expected 'sign z_re z_im side p q', got {len(parts)} fields", lineno
            )
        sign = _SIGNS.get(parts[0])
        if sign is None:
            try:
                sign = int(parts[0])
            except ValueError:
                raise TriangulationFormatError(f"bad sign {parts[0]!r}", lineno) from None
            if sign not in (1, -1):
                raise TriangulationFormatError(f"sign must be +1 or -1, got {sign}", lineno)
        try:
            shape = _from_fields(parts[1], parts[2], parts[3], parts[4], parts[5], points)
        except ValueError as exc:
            raise TriangulationFormatError(
                f"simplex {len(simplices) + 1}: {exc}", lineno
            ) from None
        simplices.append((shape, sign))
    if not simplices:
        raise TriangulationFormatError("no simplex records found")
    return _trusted(FlattenedTriangulation, simplices=tuple(simplices), name=name)


def complex_volume(t: FlattenedTriangulation) -> CmodZ2:
    """Signed sum of lifted Rogers values over the simplices."""
    return eval_lhat(t.as_formal_sum())


@dataclass(frozen=True)
class VolumeReport:
    name: str
    simplex_count: int
    value_re: float
    value_im: float
    value_mod_2pi2_re: float
    split_re: float
    split_im: float

    NOTE = "Im part = volume contribution; no Vol/CS sign convention asserted"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "simplices": self.simplex_count,
            "value_re": self.value_re,
            "value_im": self.value_im,
            "value_mod_2pi2_re": self.value_mod_2pi2_re,
            "split_re": self.split_re,
            "split_im": self.split_im,
            "note": self.NOTE,
        }

    def render_text(self) -> str:
        lines = []
        if self.name:
            lines.append(f"name: {self.name}")
        lines.append(f"simplices: {self.simplex_count}")
        lines.append(f"value: {self.value_re!r} {self.value_im!r}")
        lines.append(f"value-mod-2pi2: {self.value_mod_2pi2_re!r} {self.value_im!r}")
        lines.append(f"split: {self.split_re!r} {self.split_im!r}")
        lines.append(f"note: {self.NOTE}")
        return "\n".join(lines)


def volume_report(t: FlattenedTriangulation) -> VolumeReport:
    value = complex_volume(t)
    transfer = reduce_mod_transfer(value)
    split = value.split()
    return VolumeReport(
        name=t.name,
        simplex_count=len(t),
        value_re=value.value.real,
        value_im=value.value.imag,
        value_mod_2pi2_re=transfer.real,
        split_re=split.real,
        split_im=split.imag,
    )


def dump(t: FlattenedTriangulation) -> str:
    """Round-trip serialization in the input format."""
    lines = []
    if t.name:
        lines.append(f"name: {t.name}")
    for shape, sign in t.simplices:
        lines.append(f"{sign:+d} {serialize_flattened(shape)}")
    return "\n".join(lines)
