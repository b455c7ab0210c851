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

from .cover import FlattenedNumber, TriangulationFormatError, _records, serialize_flattened
from .dilog import _trusted
from .prebloch import FormalSum, eval_lhat
from .rogers import CmodZ2, reduce_mod_transfer


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


def load(source: str | Path | TextIO) -> FlattenedTriangulation:
    """Parse a triangulation file or stream: one ``sign z_re z_im side p q`` record per simplex.

    Side is i or a; ``#`` starts a comment, and a ``name: <string>`` header may precede the records.
    """
    def sign(field: str) -> int:  # a sign not spelled +1, -1 or 1
        try:
            value = int(field)
        except ValueError:
            raise ValueError(f"bad sign {field!r}") from None
        if value not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {value}")
        return value

    if hasattr(source, "read"):
        text, name = source.read(), ""
    else:
        path = Path(source)
        text, name = path.read_text(), path.stem
    header, simplices = _records(text, sign, "simplex")
    if not simplices:
        raise TriangulationFormatError("no simplex records found")
    return _trusted(FlattenedTriangulation, simplices=tuple(simplices), name=name if header is None else header)


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
    header = [f"name: {t.name}"] if t.name else []
    return "\n".join(header + [f"{sign:+d} {serialize_flattened(shape)}" for shape, sign in t.simplices])
