import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import extbloch
from extbloch import dilog
from extbloch.cli import main
from extbloch.dilog import precision
from extbloch.rogers import TWO_PI_SQ
from extbloch.sweeps import RELATIONS
from test_ccs import LOADED_FILE

PI = math.pi

FIG8 = """\
name: fig8
+1 0.5 0.8660254037844386 i 0 0
+1 0.5 0.8660254037844386 i 0 0
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_half(capsys):
    code, out, _ = run_cli(capsys, "eval", "0.5", "0", "i", "0", "0")
    assert code == 0
    lines = out.strip().splitlines()
    value = [float(tok) for tok in lines[0].split()[1:]]
    assert value[0] == pytest.approx(-PI**2 / 12)
    assert value[1] == pytest.approx(0.0, abs=1e-12)


def test_eval_kappa(capsys):
    code, out, _ = run_cli(capsys, "eval", "kappa")
    assert code == 0
    lines = out.strip().splitlines()
    value = [float(tok) for tok in lines[0].split()[1:]]
    # canonical representative of -2 pi^2: |Re| is 2 pi^2, Im is 0
    assert abs(value[0]) == pytest.approx(TWO_PI_SQ, abs=1e-9)
    mod = [float(tok) for tok in lines[1].split()[1:]]
    assert mod[0] == pytest.approx(0.0, abs=1e-9)
    split = [float(tok) for tok in lines[2].split()[1:]]
    assert complex(split[0], split[1]) == pytest.approx(-1.0, abs=1e-9)


def test_eval_structured(capsys):
    code, out, _ = run_cli(capsys, "eval", "--format", "structured", "kappa")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "value_re", "value_im", "value_mod_2pi2_re", "split_re", "split_im",
    }


def test_eval_sum_file(capsys, tmp_path):
    path = tmp_path / "sum.txt"
    path.write_text("1 0.5 0.0 i 0 0\n1 0.5 0.0 i 0 0\n")
    code, out, _ = run_cli(capsys, "eval", "--sum", str(path))
    assert code == 0
    value = [float(tok) for tok in out.splitlines()[0].split()[1:]]
    assert value[0] == pytest.approx(-PI**2 / 6)


@pytest.mark.parametrize("text,lineno", [
    ("1 0.5 0.5 i 0 0\n1 nan 0.5 i 0 0\n", 2),
    ("1 0.5 0.5 i 0 0\nx\n", 2),
])
def test_eval_bad_sum_file_names_the_line(capsys, tmp_path, text, lineno):
    path = tmp_path / "sum.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "eval", "--sum", str(path))
    assert code == 2
    assert out == ""
    assert f"bad formal sum: line {lineno}: " in err


@pytest.mark.parametrize("mode", ["double", "high"])
@pytest.mark.parametrize("text", [FIG8, LOADED_FILE], ids=["fig8", "loaded"])
def test_eval_sum_reports_what_ccs_reports_on_the_same_file(capsys, tmp_path, text, mode):
    # a ccs file is a --sum file whose coefficients are +-1; its name header is ignored
    path = tmp_path / "file.tri"
    path.write_text(text)
    flags = ("--precision", mode, "--format")
    _, ccs_text, _ = run_cli(capsys, "ccs", str(path), *flags, "text")
    _, ccs_json, _ = run_cli(capsys, "ccs", str(path), *flags, "structured")
    code, eval_text, err = run_cli(capsys, "eval", "--sum", str(path), *flags, "text")
    assert code == 0 and err == ""
    want = [line.replace("value-mod-2pi2:", "mod-2pi2:") for line in ccs_text.splitlines()
            if line.startswith(("value:", "value-mod-2pi2:", "split:"))]
    assert eval_text.splitlines() == want
    code, eval_json, _ = run_cli(capsys, "eval", "--sum", str(path), *flags, "structured")
    assert code == 0
    report = json.loads(ccs_json)
    assert json.loads(eval_json) == {k: report[k] for k in ("value_re", "value_im", "value_mod_2pi2_re", "split_re", "split_im")}


def test_eval_missing_sum_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "eval", "--sum", str(tmp_path / "none.txt"))
    assert code == 2
    assert out == "" and "error" in err


def test_eval_no_args_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["eval"])


@pytest.mark.parametrize("argv,message", [
    (["eval"], "expected kappa, z_re z_im side p q, or --sum FILE"),
    (["eval", "--sum", "any.sum", "kappa"], "give either --sum FILE or an inline operand, not both"),
])
def test_eval_usage_errors_exit_2_in_one_line(capsys, argv, message):
    # both exited 1 through SystemExit(message)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err == f"extbloch eval: error: {message}\n"


def test_eval_bad_point(capsys):
    # an inline operand error is an input error: stderr and exit status 2,
    # as for eval --sum and ccs
    code, out, err = run_cli(capsys, "eval", "1", "0", "i", "0", "0")
    assert code == 2
    assert out == ""
    assert err == "error: 0 and 1 are excluded from the cut plane\n"


@pytest.mark.parametrize("operand,message", [
    (("0.5", "0.5", "b", "0", "0"), "side must be"),
    (("0.5", "0.5", "i", "x", "0"), "p 'x' is not an integer"),
    (("0.5", "0.5", "i", "0", str(2**53 + 1)), "branch index q is beyond 2**53"),
])
def test_eval_bad_inline_operand_exits_2(capsys, operand, message):
    code, out, err = run_cli(capsys, "eval", *operand)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("operand", [
    ("1e10", "-3e9", "i", "4", "-1"),
    ("-2.5e0", "0", "a", "3", "1"),
    ("-.5", "-1E-3", "i", "-2", "0"),
])
def test_eval_negative_operands_in_any_notation(capsys, operand):
    # argparse alone reads "-3e9" as an unknown option
    code, out, err = run_cli(capsys, "eval", *operand, "--format", "structured")
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, "eval", "--format", "structured", "--", *operand)


def test_eval_split_overflow_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "big.sum"
    path.write_text("1 1e300 1e300 i 2 3\n")
    code, out, err = run_cli(capsys, "eval", "--sum", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: the split exp(value / 2 pi i) overflows at value (")
    assert err.count("\n") == 1


def test_eval_coefficient_beyond_a_double_is_an_input_error(capsys, tmp_path):
    big = 10**400  # 401 digits
    path = tmp_path / "big.sum"
    path.write_text(f"{big} 0.5 0.5 i 0 0\n")
    code, out, err = run_cli(capsys, "eval", "--sum", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: coefficient {big} is too large for double arithmetic\n"


def test_caller_precision_survives_main(capsys):
    assert run_cli(capsys, "eval", "kappa", "--precision", "high")[0] == 0
    assert dilog._DPS.get() is None
    with precision("high"):
        assert run_cli(capsys, "eval", "kappa", "--precision", "double")[0] == 0
        assert dilog._DPS.get() == 50


@pytest.mark.parametrize("flag", [("--tol", "1e-3"), ("--seed", "3"), ("--samples", "7"), ("--index-bound", "2")])
def test_sweep_flags_belong_to_check_only(capsys, tmp_path, flag):
    fig8 = tmp_path / "fig8.tri"
    fig8.write_text(FIG8)
    for argv in (("eval", "kappa"), ("ccs", str(fig8))):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_eval_and_ccs_do_not_read_the_tolerance_variable(capsys, monkeypatch):
    monkeypatch.setenv("EXTBLOCH_TOL", "not-a-number")
    assert run_cli(capsys, "eval", "kappa")[0] == 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_five_term_passes(capsys):
    code, out, _ = run_cli(
        capsys, "check", "five-term", "--samples", "60", "--seed", "7"
    )
    assert code == 0
    assert "status: PASS" in out
    assert "max-residual:" in out


def test_check_reports_are_byte_identical(capsys):
    argv = ["check", "cycle", "--samples", "45", "--seed", "3"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_check_impossible_tolerance_fails(capsys):
    code, out, _ = run_cli(
        capsys, "check", "five-term", "--samples", "10", "--seed", "1",
        "--tol", "1e-30",
    )
    assert code == 1
    assert "status: FAIL" in out
    assert "FAIL sample=" in out


def test_failing_check_echo_replays_with_eval_sum(capsys, tmp_path):
    # the echo joins the records of the failing sum with " | "; one record
    # a line, it is an eval --sum file whose value has the reported residual
    code, out, _ = run_cli(capsys, "check", "five-term", "--samples", "1", "--tol", "1e-30")
    assert code == 1
    fail = next(line for line in out.splitlines() if line.startswith("FAIL sample="))
    residual = float(fail.split()[2].removeprefix("residual="))
    path = tmp_path / "echo.sum"
    path.write_text(fail.split("five-term element: ", 1)[1].replace(" | ", "\n") + "\n")
    code, out, _ = run_cli(capsys, "eval", "--sum", str(path), "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert math.hypot(payload["value_re"], payload["value_im"]) == residual


def test_check_structured(capsys):
    code, out, _ = run_cli(
        capsys, "check", "kappa", "--samples", "20", "--seed", "2",
        "--format", "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["samples"] == 20
    assert payload["max_residual"] <= 1e-9


def test_check_unknown_relation_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["check", "sixterm"])


def test_check_stratified_cases_present(capsys):
    code, out, _ = run_cli(capsys, "check", "homo", "--samples", "30", "--seed", "5")
    assert code == 0
    cases_line = next(l for l in out.splitlines() if l.startswith("cases:"))
    assert "shift-1=10" in cases_line
    assert "shift+0=10" in cases_line
    assert "shift+1=10" in cases_line


def test_check_high_precision_path(capsys):
    code, out, _ = run_cli(
        capsys, "check", "mirror", "--samples", "5", "--seed", "11",
        "--precision", "high",
    )
    assert code == 0
    assert "status: PASS" in out


def test_check_reads_its_tolerance_from_tol_only(capsys, monkeypatch):
    # an EXTBLOCH_TOL variable is ignored, where these samples fail at tol 1e-30
    monkeypatch.setenv("EXTBLOCH_TOL", "1e-30")
    assert run_cli(capsys, "check", "five-term", "--samples", "5", "--seed", "1")[0] == 0
    assert run_cli(capsys, "check", "five-term", "--samples", "5", "--seed", "1", "--tol", "1e-30")[0] == 1


def test_five_term_membership_holds_at_index_bound_1e6(capsys):
    # the membership re-check of sampled instances used to fail on rounding
    # at this bound (sample 2 at seed 0), an error exit; it is exact in the
    # indices now, and every sample is evaluated
    code, out, err = run_cli(capsys, "check", "five-term", "--index-bound", "1000000", "--samples", "20")
    assert code in (0, 1) and err == ""
    assert "cases: all=20\n" in out


@pytest.mark.parametrize("flags,message", [
    (("--samples", "0"), "samples must be >= 1"),
    (("--samples", "-3"), "samples must be >= 1"),
    (("--index-bound", "-1"), "index-bound must be >= 0"),
    (("--index-bound", "100000000000000000000"), "index-bound must be at most 2251799813685247"),
    (("--index-bound", str(2**51)), "index-bound must be at most 2251799813685247"),
    (("--tol", "0"), "tol must be positive"),
    (("--tol", "nan"), "tol must be positive"),
    (("--tol", "inf"), "tol must be positive"),
])
def test_check_bad_sizes_exit_2(capsys, flags, message):
    code, out, err = run_cli(capsys, "check", "five-term", *flags)
    assert (code, out) == (2, "")
    assert err == f"extbloch check: error: {message}\n"


def test_check_largest_index_bound_runs(capsys):
    bound = str(2**51 - 1)
    code, out, err = run_cli(capsys, "check", "index-pq", "--index-bound", bound, "--samples", "20")
    assert code in (0, 1) and err == ""
    assert f"index-bound: {bound}" in out


# ---------------------------------------------------------------------------
# ccs
# ---------------------------------------------------------------------------

def test_ccs_figure_eight(capsys, tmp_path):
    path = tmp_path / "fig8.tri"
    path.write_text(FIG8)
    code, out, _ = run_cli(capsys, "ccs", str(path))
    assert code == 0
    value_line = next(l for l in out.splitlines() if l.startswith("value:"))
    im = float(value_line.split()[2])
    assert im == pytest.approx(2.029883212819307, abs=1e-9)


def test_ccs_structured(capsys, tmp_path):
    path = tmp_path / "fig8.tri"
    path.write_text(FIG8)
    code, out, _ = run_cli(capsys, "ccs", str(path), "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["simplices"] == 2
    assert payload["value_im"] == pytest.approx(2.029883212819307, abs=1e-9)


def test_ccs_missing_file(capsys):
    code, out, err = run_cli(capsys, "ccs", "/nonexistent/file.tri")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("z_re,z_im", [
    ("nan", "0.5"), ("0.5", "nan"), ("inf", "0.5"), ("0.5", "inf"),
    ("-inf", "0"), ("0.5", "-inf"),
])
def test_ccs_non_finite_input_is_an_error(capsys, tmp_path, z_re, z_im):
    path = tmp_path / "bad.tri"
    path.write_text(f"+1 0.5 0.5 i 0 0\n+1 {z_re} {z_im} i 0 0\n")
    code, out, err = run_cli(capsys, "ccs", str(path))
    assert code == 2
    assert out == ""
    assert "line 2: simplex 2:" in err and "not a finite point" in err


@pytest.mark.parametrize("p,q,field", [
    (10**400, 0, "p"), (0, -(10**400), "q"), (2**53 + 1, 0, "p"), (0, -(2**53) - 1, "q"),
])
def test_ccs_huge_branch_index_is_an_error(capsys, tmp_path, p, q, field):
    path = tmp_path / "big.tri"
    path.write_text(f"+1 0.5 0.5 i 0 0\n+1 0.5 0.5 i {p} {q}\n")
    code, out, err = run_cli(capsys, "ccs", str(path))
    assert code == 2
    assert out == ""
    assert f"line 2: simplex 2: branch index {field} is beyond 2**53" in err


def test_ccs_split_overflow_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "big.tri"
    path.write_text("+1 1e300 1e300 i 2 3\n")
    code, out, err = run_cli(capsys, "ccs", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: the split exp(value / 2 pi i) overflows at value (")
    assert err.count("\n") == 1


def test_ccs_parse_error_has_line_number(capsys, tmp_path):
    path = tmp_path / "bad.tri"
    path.write_text("+1 0.5 0.5 i 0 0\n+1 1 0 i 0 0\n")
    code, out, err = run_cli(capsys, "ccs", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("argv", [
    ("check", "five-term", "--seed", "5", "--samples", "20"),
    ("ccs", "{fig8}"),
    ("eval", "kappa"),
    ("eval", "0.3", "0.4", "i", "1", "-2", "--format", "structured"),
])
def test_closed_stdout_ends_quietly(tmp_path, argv):
    # the pipe's read end is closed before the child starts, so its first
    # write to stdout fails, as under `extbloch check ... | head -1` when
    # head has already exited
    fig8 = tmp_path / "fig8.tri"
    fig8.write_text(FIG8)
    src = str(Path(extbloch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "extbloch", *(a.format(fig8=fig8) for a in argv)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


# ---------------------------------------------------------------------------
# report corpora: every report the three commands print, pinned to the byte
# ---------------------------------------------------------------------------

DATA = Path(__file__).parent / "data"
_FORMATS = (["--format", "text"], ["--format", "structured"])
_EVAL_OPERANDS = (
    ["kappa"],
    ["0.3", "0.8", "i", "2", "-1"],  # interior
    ["1e10", "-3e9", "i", "4", "-1"],  # far out
    ["-2.5", "0", "a", "1", "2"],  # left cut
    ["3.5", "0", "a", "-1", "3"],  # right cut
    ["--sum", str(DATA / "formal_sum.txt")],
)
# with and without a name header, and an excerpt of a volume-large file
_CCS_FILES = ("fig8.tri", "cut_simplices.tri", "volume_excerpt.tri")


def _check_argvs(*flags):
    # at tol 1e-30 every sample that is not exact fails and prints its echo,
    # so the reports pin the sampling, the residuals and the echoes to the bit
    return [["check", r, "--samples", "3", "--seed", "5", "--tol", "1e-30", *flags] for r in RELATIONS]


# each corpus in tests/data and the command lines whose reports it holds, concatenated
CORPORA = {
    "check_double_seed5.txt": _check_argvs(),
    "check_high_seed5.txt": _check_argvs("--precision", "high"),
    "check_structured_double_seed5.txt": _check_argvs("--format", "structured"),
    "check_structured_high_seed5.txt": _check_argvs("--format", "structured", "--precision", "high"),
    **{f"eval_{mode}.txt": [["eval", *op, *fmt, "--precision", mode] for fmt in _FORMATS for op in _EVAL_OPERANDS]
       for mode in ("double", "high")},
    **{f"ccs_{mode}.txt": [["ccs", str(DATA / f), *fmt, "--precision", mode] for fmt in _FORMATS for f in _CCS_FILES]
       for mode in ("double", "high")},
}


@pytest.mark.parametrize("corpus", sorted(CORPORA), ids=lambda name: name.removesuffix(".txt"))
def test_reports_match_the_corpus(capsys, corpus):
    expected = (DATA / corpus).read_bytes().decode()
    at = 0
    for argv in CORPORA[corpus]:
        code = main(argv)
        out = capsys.readouterr().out
        want = expected[at:at + len(out)]
        if out != want:
            got_lines, want_lines = out.split("\n"), want.split("\n")
            line = next(i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1])
            pytest.fail(f"extbloch {' '.join(argv)}: line {line + 1} of its report differs from {corpus}:\n"
                        f"  got  {got_lines[line]!r}\n  want {want_lines[line]!r}")
        assert code == (1 if "status: FAIL" in out or '"passed": false' in out else 0), argv
        at += len(out)
    assert at == len(expected), f"{corpus} holds more than its {len(CORPORA[corpus])} reports"
