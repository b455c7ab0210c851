import pytest

from extbloch import sweeps
from extbloch.sweeps import RELATIONS, SweepConfig, run_sweep


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


@pytest.mark.parametrize("relation", RELATIONS)
def test_failing_samples_echo_their_element(relation, echo_calls):
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
