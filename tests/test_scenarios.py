import dataclasses
import json

import pytest

from pqdec import decoupling as dec
from pqdec.cli import main
from pqdec.scenarios import (
    available_scenarios,
    run_all,
    run_scenario,
    sandwich_row,
)
from pqdec.states import isotropic

EXPECTED_NAMES = (
    "pure_conservation",
    "classical_shredding",
    "twirl_transfers",
    "private_randomness",
    "bell_one_bit",
    "random_unitary_pointer",
    "separable_ic",
    "monogamy_identity",
    "bell_optimizer",
    "bell_sweep",
)


def test_registry_lists_all_scenarios():
    assert available_scenarios() == EXPECTED_NAMES


def test_run_all_passes():
    reports = run_all(42)
    assert len(reports) == len(EXPECTED_NAMES)
    assert [r.name for r in reports] == list(EXPECTED_NAMES)
    for r in reports:
        assert r.passed, f"{r.name}: {r.metrics}"


def test_seeds_derived_by_fixed_offsets():
    reports = run_all(5)
    seeds = [r.seed for r in reports]
    assert len(set(seeds)) == len(seeds)
    assert run_scenario("pure_conservation", 5).seed == seeds[0]
    # Shifting the master seed shifts every scenario seed by the same amount.
    shifted = [r.seed for r in run_all(9)]
    assert [b - a for a, b in zip(seeds, shifted)] == [4] * len(seeds)


def test_single_scenario_matches_run_all():
    full = {r.name: r for r in run_all(0)}
    solo = run_scenario("bell_optimizer", 0)
    assert solo.metrics == full["bell_optimizer"].metrics
    assert solo.seed == full["bell_optimizer"].seed


def test_deterministic_per_seed():
    a = run_scenario("monogamy_identity", 3)
    b = run_scenario("monogamy_identity", 3)
    assert a.metrics == b.metrics


def test_reports_pair_vanishing_metric_with_witness():
    for r in run_all(1):
        assert r.metrics, r.name
        assert all(v >= 0.0 for v in r.metrics.values())


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        run_scenario("nope", 0)


def test_json_schema(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--seed", "7", "--out", str(report)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert isinstance(payload, list) and len(payload) == len(EXPECTED_NAMES)
    assert [entry["name"] for entry in payload] == list(EXPECTED_NAMES)
    for entry in payload:
        assert set(entry) == {"name", "passed", "metrics", "tolerance", "seed"}
        assert entry["passed"] is True
        assert isinstance(entry["metrics"], dict)


@pytest.mark.parametrize(
    "bound, shift, flags",
    [("povm_upper", 1e-6, (True, False)), ("prop1_lower", -1e-8, (False, True))],
)
def test_sandwich_allows_round_off_only(monkeypatch, bound, shift, flags):
    """An estimate just past either bound is flagged: the sandwich allows
    ``BOUND_SLACK`` (1e-9) on every side, not a search's shortfall."""
    search = dec.optimize_xi

    def shifted(state, eps, opts):
        edge = getattr(dec.bounds_report(state, eps, opts), bound)
        return dataclasses.replace(search(state, eps, opts), i_rb=edge + shift)

    monkeypatch.setattr(dec, "optimize_xi", shifted)
    row = sandwich_row(isotropic(2, 0.9), 0, restarts=2, iterations=200)
    assert row.bounds.prop1_lower < row.bounds.povm_upper < row.bounds.half_qmi_upper
    assert (row.lower_ok, row.upper_ok) == flags
