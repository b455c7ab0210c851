import cmath
import io
import json
import math
import re

import pytest

from extbloch import rogers
from extbloch.ccs import (
    FlattenedTriangulation,
    TriangulationFormatError,
    complex_volume,
    dump,
    load,
    volume_report,
)
from extbloch.cover import canonicalize, flattened, parse_flattened
from extbloch.dilog import Side, precision
from extbloch.prebloch import FormalSum
from extbloch.rogers import TWO_PI_SQ, reduce_into, reduce_mod_transfer
from oracles import figure_eight_volume

PI = math.pi

FIG8 = """\
# figure-eight complement: two regular ideal simplices
name: fig8
+1 0.5 0.8660254037844386 i 0 0
+1 0.5 0.8660254037844386 i 0 0
"""


def fig8_triangulation() -> FlattenedTriangulation:
    shape = flattened(cmath.exp(1j * PI / 3))
    return FlattenedTriangulation(((shape, 1), (shape, 1)), "fig8")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_load_two_simplices_round_trip():
    t = load(io.StringIO(FIG8))
    assert len(t) == 2
    assert t.name == "fig8"
    assert all(sign == 1 for _, sign in t.simplices)
    again = load(io.StringIO(dump(t)))
    assert again.simplices == t.simplices


def test_load_empty_file_errors():
    with pytest.raises(TriangulationFormatError):
        load(io.StringIO("# nothing here\n"))


def test_load_shape_at_one_is_validation_error():
    with pytest.raises(TriangulationFormatError) as err:
        load(io.StringIO("+1 1 0 i 0 0\n"))
    assert err.value.line == 1
    assert "simplex 1" in str(err.value)


def test_load_malformed_record_reports_line():
    with pytest.raises(TriangulationFormatError) as err:
        load(io.StringIO("+1 0.5 0.86 i 0 0\nnot a record\n"))
    assert err.value.line == 2


@pytest.mark.parametrize("fields", [
    "0.5 0.86 b 0 0", "0.5 0.86 above 0 0", "0.5x 0.86 i 0 0", "0.5 0.86 i 1.5 0",
    "0.5 0.86 i 0 x", "1 0 i 0 0", "2.0 0.0 i 0 0", "0.5 nan i 0 0", f"0.5 0.86 i {2**53 + 1} 0",
])
def test_load_names_a_bad_record_as_parse_flattened_does(fields):
    with pytest.raises(ValueError) as want:
        parse_flattened(fields)
    with pytest.raises(TriangulationFormatError) as err:
        load(io.StringIO(f"+1 0.5 0.86 i 0 0\n-1 {fields}\n"))
    assert str(err.value) == f"line 2: simplex 2: {want.value}"


def test_load_bad_sign():
    with pytest.raises(TriangulationFormatError):
        load(io.StringIO("+2 0.5 0.86 i 0 0\n"))


def test_load_names_a_sign_that_is_not_a_number():
    with pytest.raises(TriangulationFormatError, match=r"^line 1: sign 'x' is not an integer$"):
        load(io.StringIO("x 0.5 0.86 i 0 0\n"))


def test_load_bad_side_tag():
    with pytest.raises(TriangulationFormatError):
        load(io.StringIO("+1 2.0 0.0 b 0 0\n"))


def test_load_late_name_header_rejected():
    with pytest.raises(TriangulationFormatError):
        load(io.StringIO("+1 0.5 0.5 i 0 0\nname: too-late\n"))


@pytest.mark.parametrize("first", ["name: a", "name:"])
def test_a_second_name_header_is_refused(first):
    # a second header replaced the first: the name read 'b'
    text = f"{first}\nname: b\n+1 0.5 0.5 i 0 0\n"
    message = r"^line 2: a second name header; a file has at most one$"
    with pytest.raises(TriangulationFormatError, match=message):
        load(io.StringIO(text))
    with pytest.raises(TriangulationFormatError, match=message):
        FormalSum.parse(text)


def test_load_from_path(tmp_path):
    path = tmp_path / "two.tri"
    path.write_text("+1 0.5 0.5 i 0 0\n-1 0.25 0.5 i 1 0\n")
    t = load(path)
    assert len(t) == 2
    assert t.name == "two"


def test_a_name_header_overrides_the_file_stem_even_when_empty(tmp_path):
    path = tmp_path / "stem.tri"
    path.write_text("name: given\n+1 0.5 0.5 i 0 0\n")
    assert load(path).name == "given"
    path.write_text("name:\n+1 0.5 0.5 i 0 0\n")
    assert load(path).name == ""


@pytest.mark.parametrize("name,error", [
    (5, TypeError),
    (b"fig8", TypeError),
    ("a\nb", ValueError),  # dump would write a second line
    ("a\rb", ValueError),  # a file read ends the line there
    ("a#b", ValueError),  # load would cut it at the comment
    (" a", ValueError),  # load would strip it
    ("a ", ValueError),
    ("\x85a", ValueError),  # str.strip() counts U+0085 as whitespace
])
def test_a_name_dump_cannot_write_is_refused(name, error):
    message = re.escape(repr(name)) if error is ValueError else f"^name must be a str, not {type(name).__name__}$"
    with pytest.raises(error, match=message):
        FlattenedTriangulation(((flattened(0.5), 1),), name)


@pytest.mark.parametrize("name", ["", "fig8", "a b", "name: x", "a\x85b", "a\x0cb", "a\x1cb", "a\u2028b",
                                  "m004 (4_1)"])
def test_dump_round_trips_every_name_the_constructor_takes(tmp_path, name):
    # through a stream and through a file, where an empty name reads back as the stem
    t = FlattenedTriangulation(((flattened(0.5), 1),), name)
    assert load(io.StringIO(dump(t))).name == name
    path = tmp_path / "stem.tri"
    path.write_text(dump(t))
    assert load(path).name == (name or "stem")


@pytest.mark.parametrize("stem,name", [("a#b", "a"), (" a ", "a"), ("\x85a", "a"), ("a\nb", "a"), ("a\rb", "a"),
                                       ("#b", "")])
def test_a_file_without_a_header_reads_its_stem_as_a_header_is_read(tmp_path, stem, name):
    path = tmp_path / f"{stem}.tri"
    path.write_text("+1 0.5 0.5 i 0 0\n")
    assert load(path).name == name


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_figure_eight_volume_against_independent_oracle():
    t = fig8_triangulation()
    value = complex_volume(t)
    assert abs(value.value.imag - figure_eight_volume()) <= 1e-9


def test_single_simplex_at_half():
    t = FlattenedTriangulation(((flattened(0.5), 1),))
    v = complex_volume(t)
    assert v.distance_to(complex(-PI**2 / 12, 0.0)) <= 1e-12


def test_sign_negation_cancels():
    t = fig8_triangulation()
    flipped = FlattenedTriangulation(
        tuple((shape, -sign) for shape, sign in t.simplices), "mirror"
    )
    total = complex_volume(t) + complex_volume(flipped)
    assert total.magnitude() <= 1e-12


def test_linearity_under_concatenation():
    a = FlattenedTriangulation(((flattened(0.5), 1), (flattened(0.3 + 0.6j), -1)))
    b = fig8_triangulation()
    both = FlattenedTriangulation(a.simplices + b.simplices)
    lhs = complex_volume(both)
    rhs = complex_volume(a) + complex_volume(b)
    assert lhs.distance_to(rhs) <= 1e-12


def test_invariance_under_chart_rewriting():
    # the same cover point entered through the below-side chart
    direct = FlattenedTriangulation(((canonicalize(2 + 0j, Side.ABOVE, 1, 0), 1),))
    rewritten = FlattenedTriangulation(((canonicalize(2 + 0j, Side.BELOW, 1, 1), 1),))
    assert complex_volume(direct).distance_to(complex_volume(rewritten)) <= 1e-12


def test_transfer_reduction_consistency():
    t = fig8_triangulation()
    v = complex_volume(t)
    direct = reduce_into(v.value.real, TWO_PI_SQ)
    assert reduce_mod_transfer(v).real == pytest.approx(direct, abs=1e-12)
    assert reduce_mod_transfer(v).imag == v.value.imag


def test_signs_validated():
    with pytest.raises(ValueError):
        FlattenedTriangulation(((flattened(0.5), 2),))
    with pytest.raises(ValueError):
        FlattenedTriangulation(())


def test_signs_are_stored_as_ints():
    # a sign of 1.0 was stored: dump then raised "Unknown format code 'd' for
    # object of type 'float'", and volume_report "coefficient 1.0 is not an integer"
    f = flattened(0.5 + 0.5j)
    with pytest.raises(TypeError, match=r"^simplex sign 1\.0 is not an integer$"):
        FlattenedTriangulation(((f, 1.0),))
    t = FlattenedTriangulation(((f, True), (f, -1)), "signs")
    assert t.simplices == ((f, 1), (f, -1)) and type(t.simplices[0][1]) is int
    assert load(io.StringIO(dump(t))) == t


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_volume_report_fields():
    report = volume_report(fig8_triangulation())
    assert report.simplex_count == 2
    assert report.value_im == pytest.approx(figure_eight_volume(), abs=1e-9)
    assert -TWO_PI_SQ < report.value_re <= TWO_PI_SQ
    assert -PI**2 < report.value_mod_2pi2_re <= PI**2
    split = complex(report.split_re, report.split_im)
    assert abs(split) == pytest.approx(math.exp(report.value_im / (2 * PI)), rel=1e-9)
    payload = rogers._render_dict(report.rows())
    assert set(payload) == {
        "name", "simplices", "value_re", "value_im",
        "value_mod_2pi2_re", "split_re", "split_im", "note",
    }
    json.dumps(payload)
    text = rogers._render_text(report.rows())
    assert "value:" in text and "split:" in text and "note:" in text


def test_volume_report_evaluates_the_sum_once(monkeypatch):
    import extbloch.ccs as ccs_mod
    import extbloch.prebloch as prebloch_mod

    calls = []
    original = prebloch_mod.eval_lhat

    def counting(s):
        calls.append(len(s))
        return original(s)

    monkeypatch.setattr(ccs_mod, "eval_lhat", counting)
    monkeypatch.setattr(prebloch_mod, "eval_lhat", counting)
    t = fig8_triangulation()
    report = volume_report(t)
    assert calls == [1]
    # the split value is exp(value / 2 pi i) of that one value, bit for bit
    split = prebloch_mod.splitting(t.as_formal_sum())
    assert (report.split_re, report.split_im) == (split.real, split.imag)


@pytest.mark.parametrize("mode", ["double", "high"])
def test_volume_report_one_kernel_pass_per_distinct_base(kernel_passes, mode):
    # one read per base: the whole pass at z (C = 1), only Log z at -3
    # (C = P = 0, Q = -1), and the far-out pass at 2e10 + 1e10j
    calls = kernel_passes
    z = 0.5 + 0.8660254037844386j
    t = FlattenedTriangulation((
        (flattened(z), 1), (flattened(z, 1, 0), 1), (flattened(z, 0, -2), -1),
        (canonicalize(-3 + 0j, Side.BELOW, 1, 1), 1), (canonicalize(-3 + 0j, Side.ABOVE, 0, 2), -1),
        (flattened(2e10 + 1e10j, 3, 1), 1), (flattened(2e10 + 1e10j), 1), (flattened(z), 1),
    ))
    with precision(mode):
        volume_report(t)
    assert [(name, p.z) for name, p in calls] == [("log", -3 + 0j), ("pass", z), ("far", 2e10 + 1e10j)]


LOADED_FILE = """\
name: shared
+1 0.5 0.8660254037844386 i 0 0
-1 5e-1 0.8660254037844386 i 1 -2
+1 -3 0.0 a 1 1
-1 -3.0 -0.0 a 0 2
+1 2e10 1e10 i 3 1
+1 20000000000.0 1e10 i 0 0
-1 0.3 0.4 i 2 -1
+1 4 0.0 a -1 0
# the last records repeat points of the first ones
+1 0.3 0.4 i 0 0
-1 0.5 0.8660254037844386 i -1 1
"""


@pytest.mark.parametrize("mode", ["double", "high"])
def test_loaded_file_one_kernel_pass_per_distinct_base(kernel_passes, mode):
    # load, the volume report, nu_hat and the wedge check of the whole file
    # and of a part of it share one pass per distinct (z, side): each point
    # takes its pass, and a lone Log z before it, at most once
    from extbloch.bloch import nu_hat, wedge_necessary_zero
    from extbloch.prebloch import FormalSum

    calls = kernel_passes
    with precision(mode):
        t = load(io.StringIO(LOADED_FILE))
        report = volume_report(t)
        part = FormalSum(tuple((sign, shape) for shape, sign in t.simplices[3:]))
        for s in (t.as_formal_sum(), part):
            wedge_necessary_zero(nu_hat(s))
    assert len({(p.z, p.side) for _, p in calls}) == len({(f.z, f.base.side) for f, _ in t.simplices}) == 5
    assert len({(name, p.z, p.side) for name, p in calls}) == len(calls)
    assert report.simplex_count == 10


# ---------------------------------------------------------------------------
# one record grammar for ccs files and FormalSum.parse (eval --sum)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [FIG8, LOADED_FILE], ids=["fig8", "loaded"])
def test_crlf_text_reads_as_lf_text_through_both_readers(text):
    crlf = text.replace("\n", "\r\n")
    assert load(io.StringIO(crlf)) == load(io.StringIO(text))
    assert load(io.StringIO(crlf)).name == load(io.StringIO(text)).name != ""
    assert FormalSum.parse(crlf) == FormalSum.parse(text) == load(io.StringIO(text)).as_formal_sum()


@pytest.mark.parametrize("text", [FIG8, LOADED_FILE], ids=["fig8", "loaded"])
@pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_cr_and_crlf_files_read_as_lf_files(tmp_path, text, end):
    path = tmp_path / "ends.tri"
    path.write_bytes(text.replace("\n", end).encode())
    assert load(path) == load(io.StringIO(text))


def test_formal_sum_parse_ignores_the_name_header_and_keeps_its_place():
    # a header line was read as a record: "invalid literal for int() with base 10: 'name:'"
    assert FormalSum.parse(FIG8) == load(io.StringIO(FIG8)).as_formal_sum()
    assert FormalSum.parse(FIG8).terms[0][0] == 2
    with pytest.raises(ValueError, match=r"^line 2: name header must precede all records$"):
        FormalSum.parse("1 0.5 0.5 i 0 0\nname: late\n")


@pytest.mark.parametrize("text,message", [
    ("1 0.5 0.5 i 0 0\n1 nan 0.5 i 0 0\n", "line 2: term 2: (nan+0.5j) is not a finite point of the cut plane"),
    ("# header\n\nx\n", "line 3: expected 'coeff z_re z_im side p q', got 1 fields"),
    ("1 0.5 0.5 i 0\n", "line 1: expected 'coeff z_re z_im side p q', got 5 fields"),
    ("1 0.5 0.5 i 0 0\n\nz 0.5 0.5 i 0 0\n", "line 3: coefficient 'z' is not an integer"),
    ("0 0.5 0.5 i 0 0\n-7 0.25 0.5 b 0 0\n", "line 2: term 2: side must be 'i' or 'a', got 'b'"),
], ids=["point", "one-field", "five-fields", "coefficient", "side"])
def test_formal_sum_parse_messages_follow_the_ccs_ones(text, message):
    # the sum's rule reads any int; a bad point is numbered as a term, as ccs numbers a simplex
    with pytest.raises(TriangulationFormatError) as err:
        FormalSum.parse(text)
    assert str(err.value) == message
