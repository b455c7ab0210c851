import random
from pathlib import Path

import pytest

from extbloch import sweeps
from extbloch.cli import main
from extbloch.cover import make_flattened_ft
from extbloch.dilog import CutPoint, Side, precision
from extbloch.prebloch import index_relations
from extbloch.rogers import CmodZ2
from extbloch.sweeps import RELATIONS, SweepConfig, run_sweep

LARGEST_BOUND = 2**51 - 1  # 4 * bound + 2 <= 2**53


@pytest.fixture
def echo_calls(monkeypatch):
    calls = []
    echo_sum = sweeps._echo_sum

    def counting(tag, s):
        calls.append(tag)
        return echo_sum(tag, s)

    monkeypatch.setattr(sweeps, "_echo_sum", counting)
    return calls


@pytest.mark.parametrize("relation", ["five-term", "mirror", "symmetry-2"])
def test_passing_samples_build_no_echo(relation, echo_calls):
    result = run_sweep(SweepConfig(relation, samples=30, seed=3))
    assert result.passed and not result.failures
    assert echo_calls == []


EXACT = ("index-q", "index-p", "index-pq", "kappa")  # C = P = Q = 0 on every base


@pytest.mark.parametrize("relation", RELATIONS)
def test_failing_samples_echo_their_element(relation, echo_calls, monkeypatch):
    if relation in EXACT:
        # their residual is exactly 0, so even tol=1e-300 passes; a nudged
        # evaluation makes every sample fail
        evaluate = sweeps.eval_lhat
        monkeypatch.setattr(sweeps, "eval_lhat", lambda s: evaluate(s) + CmodZ2(1e-6))
    result = run_sweep(SweepConfig(relation, samples=12, seed=3, tol=1e-300))
    failed = [int(line.split()[1][len("sample="):]) for line in result.failures]
    assert failed == sorted(set(failed)) and len(failed) >= 1
    for line in result.failures:
        assert line.startswith("FAIL sample=")
        assert f"{relation.split('-')[0]}" in line
    # a relation element is serialized once per failing sample; the other
    # runners echo their inputs instead
    plain = relation in ("chi-hom", "kappa", "splitting")
    assert len(echo_calls) == (0 if plain else len(failed))


@pytest.mark.parametrize("relation", EXACT)
@pytest.mark.parametrize("mode", ["double", "high"])
def test_lattice_only_relations_are_exact(relation, mode):
    # their elements have only a lattice part, summed as an integer: the
    # residual is 0 at every index bound, even at the largest
    for bound in (5, 1000, LARGEST_BOUND):
        with precision(mode):
            result = run_sweep(SweepConfig(relation, samples=50, seed=5, index_bound=bound))
        assert result.max_residual == 0.0 and result.passed


@pytest.mark.parametrize("seed", [5, 7])
def test_every_relation_passes_at_index_bound_1000(seed):
    # with the lattice part -2 pi^2 p q in floating point, 11 of the 15
    # relations failed here at tol 1e-9 (residuals up to 3.8e-8)
    for relation in RELATIONS:
        result = run_sweep(SweepConfig(relation, samples=500, seed=seed, index_bound=1000))
        assert result.passed, (relation, result.max_residual)
        assert result.max_residual < 1e-10, relation


def test_config_rejects_bounds_whose_indices_pass_2_53():
    assert SweepConfig("five-term", index_bound=LARGEST_BOUND).index_bound == LARGEST_BOUND
    with pytest.raises(ValueError, match=f"index-bound must be at most {LARGEST_BOUND}$"):
        SweepConfig("five-term", index_bound=LARGEST_BOUND + 1)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        SweepConfig("five-term", samples=0)


@pytest.mark.parametrize("field,value,error,message", [
    ("samples", 2.5, TypeError, r"^samples 2\.5 is not an integer$"),
    ("index_bound", 1.5, TypeError, r"^index_bound 1\.5 is not an integer$"),
    ("samples", "3", TypeError, r"^samples '3' is not an integer$"),
    ("tol", "1e-9", TypeError, r"^tol '1e-9' is not a number$"),
    ("tol", None, TypeError, r"^tol None is not a number$"),
    ("samples", False, ValueError, r"^samples must be >= 1$"),
    ("seed", [1], TypeError, r"^seed \[1\] is not an integer$"),
    ("seed", 1.5, TypeError, r"^seed 1\.5 is not an integer$"),
    ("seed", "abc", TypeError, r"^seed 'abc' is not an integer$"),
    ("seed", None, TypeError, r"^seed None is not an integer$"),
])
def test_config_names_a_size_of_the_wrong_type(field, value, error, message):
    # each was accepted and failed later in run_sweep (range, randrange, '>',
    # random.Random), or ran: seed 1.5 and 'abc' were reported as given, and
    # seed None seeded from the OS, so one config gave different reports
    with pytest.raises(error, match=message):
        SweepConfig("index-q", **{field: value})


def test_config_stores_sizes_as_ints_and_tol_as_a_float():
    # samples=True ran and reported "samples: True", and tol=True "tol: True"
    config = SweepConfig("index-q", samples=True, seed=True, index_bound=True, tol=True)
    assert (config.samples, config.seed, config.index_bound, config.tol) == (1, 1, 1, 1.0)
    assert all(type(v) is int for v in (config.samples, config.seed, config.index_bound))
    assert type(config.tol) is float
    report = run_sweep(config).render_text()
    assert "samples: 1\n" in report and "seed: 1\n" in report and "tol: 1.0\n" in report


def test_sample_cut_point_draws_a_cut_point_with_chance_0_15():
    import random

    for seed in range(300):
        rng, ref = random.Random(seed), random.Random(seed)
        want = sweeps.sample_boundary(ref) if ref.random() < 0.15 else sweeps.sample_interior(ref)
        assert sweeps.sample_cut_point(rng) == want
        assert rng.random() == ref.random()


def test_config_rejects_an_unknown_relation():
    with pytest.raises(ValueError, match="^unknown relation 'nope'$"):
        SweepConfig("nope")


def test_largest_bound_derives_indices_within_2_53():
    b = LARGEST_BOUND
    # five-term: p1 - p0 + q1 - q0 reaches 4 b
    ft = make_flattened_ft(0.3 + 0.4j, 0.2 + 1.1j, -b, b, -b, b, 0)
    assert max(abs(f.p) for f in ft) == 4 * b
    # index-pq on the below side of the right cut: q2 - 1, shifted once more
    elem = index_relations(CutPoint(3 + 0j, Side.BELOW), -b, -b, b, -3 * b, "PQ")
    assert max(abs(f.q) for _, f in elem) == 3 * b + 2 <= 2**53


@pytest.mark.parametrize("relation,points", [("five-term", 5), ("kappa", 1)])
def test_sweep_sample_kernel_passes(kernel_stages, relation, points):
    # the membership check of a five-term sample takes both logarithms of
    # each of its 5 points, and its evaluation adds Li2 on each; kappa's
    # moments C, P and Q vanish on its one point, so its two evaluations run
    # no stage
    stages = {"five-term": ["li2", "logs"], "kappa": []}[relation]
    calls = kernel_stages
    for seed in range(5):
        calls.clear()
        assert run_sweep(SweepConfig(relation, samples=1, seed=seed)).passed
        assert sorted(name for name, _ in calls) == sorted(stages * points)
        assert len({p.z for _, p in calls}) == (points if stages else 0)


def test_symmetry_5_sample_kernel_passes(kernel_stages):
    # the correction term chi(e^(i pi/12)) is one sum built at import, whose
    # point keeps its pass: after the first sample, each sample runs Li2 on
    # its main point and [z] only
    run_sweep(SweepConfig("symmetry-5", samples=1, seed=0))
    calls = kernel_stages
    for seed in range(1, 6):
        calls.clear()
        assert run_sweep(SweepConfig("symmetry-5", samples=4, seed=seed)).passed
        assert [name for name, _ in calls] == ["li2"] * (2 * 4)


# ---------------------------------------------------------------------------
# what perfbench's SweepCapture relies on, and a corpus of reports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("relation", RELATIONS)
def test_every_sample_evaluates_through_the_sweeps_namespace(relation, monkeypatch):
    # the benchmark wraps sweeps.eval_lhat and counts one evaluation per
    # sample; a runner that reached the evaluation through another module
    # would not be seen
    calls = []
    evaluate = sweeps.eval_lhat
    monkeypatch.setattr(sweeps, "eval_lhat", lambda s: calls.append(s) or evaluate(s))
    run_sweep(SweepConfig(relation, samples=9, seed=4))
    assert len(calls) >= 9


def test_splitting_builds_each_sample_through_the_sweeps_chi_hat(monkeypatch):
    seen = []
    chi_hat = sweeps.chi_hat
    monkeypatch.setattr(sweeps, "chi_hat", lambda z: seen.append(z) or chi_hat(z))
    run_sweep(SweepConfig("splitting", samples=9, seed=4))
    rng = random.Random(4)  # the splitting sweep draws one z per sample, nothing else
    assert seen == [sweeps._rand_nonzero(rng) for _ in range(9)]


CORPUS = Path(__file__).parent / "data" / "check_double_seed5.txt"
HIGH_CORPUS = Path(__file__).parent / "data" / "check_high_seed5.txt"


def test_check_reports_match_the_corpus(capsys):
    # `check <relation> --samples 3 --seed 5 --tol 1e-30` for every relation
    # in double precision, concatenated: at that tol every sample that is not
    # exact fails and prints its echo, so the file pins the sampling, the
    # residuals and the echoes to the bit
    out = []
    for relation in RELATIONS:
        code = main(["check", relation, "--samples", "3", "--seed", "5", "--tol", "1e-30"])
        report = capsys.readouterr().out
        assert code == (0 if "status: PASS" in report else 1)
        out.append(report)
    assert "".join(out) == CORPUS.read_bytes().decode()


def test_high_precision_check_reports_match_the_corpus(capsys):
    # the same reports under --precision high: the high-precision kernel's
    # values, rounded to double, pinned to the bit
    out = []
    for relation in RELATIONS:
        code = main(["check", relation, "--samples", "3", "--seed", "5", "--tol", "1e-30", "--precision", "high"])
        report = capsys.readouterr().out
        assert code == (0 if "status: PASS" in report else 1)
        out.append(report)
    assert "".join(out) == HIGH_CORPUS.read_bytes().decode()
