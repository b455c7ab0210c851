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
from os import PathLike
from pathlib import Path
from typing import Iterable, TextIO

from .cover import FlattenedNumber, TriangulationFormatError, _records, serialize_flattened
from .dilog import _check_type, _field, _fields, _integer, _iterable
from .prebloch import FormalSum, eval_lhat
from .rogers import CmodZ2, _row, _value_rows, reduce_mod_transfer


@dataclass(frozen=True, init=False, slots=True)
class FlattenedTriangulation:
    simplices: tuple[tuple[FlattenedNumber, int], ...]
    name: str = ""

    def __init__(self, simplices: Iterable[tuple[FlattenedNumber, int]], name: str = "") -> None:
        checked = []
        for term in _iterable(simplices, "simplices"):
            shape, sign = term if term.__class__ is tuple and len(term) == 2 else _fields(term, "simplices", 2)
            _check_type(shape, FlattenedNumber, "each shape of simplices")
            sign = _integer(sign, "simplex sign")  # an int, so True is 1
            if sign not in (1, -1):
                raise ValueError(f"simplex signs must be +1 or -1, got {sign}")
            checked.append((shape, sign))
        if not checked:
            raise ValueError("a triangulation needs at least one simplex")
        _check_type(name, str, "name")
        if any(c in name for c in "\n\r#") or name != name.strip():  # dump could not write it
            raise ValueError(f"name {name!r} holds a newline or '#', or whitespace at an end")
        object.__setattr__(self, "simplices", tuple(checked))
        object.__setattr__(self, "name", name)

    def __len__(self) -> int:
        return len(self.simplices)

    def as_formal_sum(self) -> FormalSum:
        return FormalSum(tuple((sign, shape) for shape, sign in self.simplices))


def load(source: str | Path | TextIO) -> FlattenedTriangulation:
    """Parse a triangulation file or stream: one ``sign z_re z_im side p q`` record per simplex.

    Side is i or a; ``#`` starts a comment, and a ``name: <string>`` header may precede the records.
    Without one, a file's name is its stem read as a header would be: up to a line end or ``#``, stripped.
    """
    def sign(field: str) -> int:  # a sign not spelled +1, -1 or 1
        value = _field(field, int, "sign")
        if value not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {value}")
        return value

    if hasattr(source, "read"):
        text, name = source.read(), ""
    elif isinstance(source, (str, PathLike)):
        path = Path(source)
        text, name = path.read_text(), path.stem.replace("\r", "\n").split("\n")[0].partition("#")[0].strip()
    else:
        text = None
    if not isinstance(text, str):  # neither a path nor a stream that reads text
        raise TypeError(f"source must be a path or a text stream, not {type(source).__name__}")
    header, simplices = _records(text, sign, "simplex")
    if not simplices:
        raise TriangulationFormatError("no simplex records found")
    return FlattenedTriangulation(tuple(simplices), name if header is None else header)


def complex_volume(t: FlattenedTriangulation) -> CmodZ2:
    """Signed sum of lifted Rogers values over the simplices."""
    _check_type(t, FlattenedTriangulation, "t")
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

    def rows(self) -> list:
        return [
            _row("name", self.name or None, name=self.name),  # no text line for an empty name
            _row("simplices", self.simplex_count, simplices=self.simplex_count),
            *_value_rows(complex(self.value_re, self.value_im), self.value_mod_2pi2_re,
                         complex(self.split_re, self.split_im), "value-mod-2pi2"),
            _row("note", self.NOTE, note=self.NOTE),
        ]


def volume_report(t: FlattenedTriangulation) -> VolumeReport:
    value = complex_volume(t)
    split = value.split()
    return VolumeReport(name=t.name, simplex_count=len(t), value_re=value.value.real, value_im=value.value.imag,
                        value_mod_2pi2_re=reduce_mod_transfer(value).real, split_re=split.real, split_im=split.imag)


def dump(t: FlattenedTriangulation) -> str:
    """Round-trip serialization in the input format."""
    header = [f"name: {t.name}"] if t.name else []
    return "\n".join(header + [f"{sign:+d} {serialize_flattened(shape)}" for shape, sign in t.simplices])
