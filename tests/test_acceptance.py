"""Acceptance suite: one test per criterion, each printing its verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion, or via the CLI with ``pilotopt validate``.
"""

import json

import pytest

from pilotopt import validation
from pilotopt.cli import main
from pilotopt.validation import (
    check_dependent_rounding,
    check_density_sweep_ordering,
    check_gradient,
    check_incremental_updates,
    check_kronecker_consistency,
    check_monte_carlo,
    check_oracle_gap,
    check_spreading_monotonicity,
    check_swap_and_pipeline_agreement,
)


def _assert_check(result):
    print(result.line())
    assert result.passed, f"{result.name} failed: {result.details}"


def test_criterion_01_oracle_optimality_gap():
    _assert_check(check_oracle_gap())


def test_criterion_02_incremental_updates():
    _assert_check(check_incremental_updates())


@pytest.mark.parametrize(
    "kernel, error",
    [("swap_deltas", "worst_swap_rel_err"), ("gains_for_candidates", "worst_gain_rel_err")],
)
def test_criterion_02_checks_the_batched_kernels(monkeypatch, kernel, error):
    """Criterion 2 reads the kernels the optimizers run: a relative error of
    1e-7 in either one fails it, in that kernel's figure."""
    original = getattr(validation, kernel)
    monkeypatch.setattr(validation, kernel, lambda *args: original(*args) * (1.0 + 1e-7))
    result = check_incremental_updates()
    assert not result.passed
    assert result.details[error] > 1e-9


def test_criterion_02_checks_greedys_carried_terms(monkeypatch):
    """Criterion 2 follows greedy's carried row terms: a relative error of
    1e-7 in the squared norms ``add_row`` returns fails it, in the chain's
    figure, and leaves the other two figures alone."""
    original = validation.add_row

    def skewed(*args):
        Y, quad, norm2 = original(*args)
        return Y, quad, norm2 * (1.0 + 1e-7)

    monkeypatch.setattr(validation, "add_row", skewed)
    result = check_incremental_updates()
    assert not result.passed
    assert result.details["worst_chain_gain_rel_err"] > 1e-9
    assert result.details["worst_gain_rel_err"] <= 1e-9
    assert result.details["worst_swap_rel_err"] <= 1e-9


def test_criterion_03_gradient_check():
    _assert_check(check_gradient())


def test_criterion_04_dependent_rounding_marginals():
    _assert_check(check_dependent_rounding())


def test_criterion_05_monte_carlo_vs_analytic():
    _assert_check(check_monte_carlo())


def test_criterion_06_designed_beats_lattices():
    _assert_check(check_density_sweep_ordering())


def test_criterion_07_swap_improvement_and_agreement():
    _assert_check(check_swap_and_pipeline_agreement())


def test_criterion_08_spreading_monotonicity():
    _assert_check(check_spreading_monotonicity())


@pytest.mark.parametrize("axis_config", ["snr", "spreading"])
def test_criterion_09_structure_artifacts_for_manual_inspection(tmp_path, axis_config):
    # Manual criterion: generate the K=20 pattern-structure studies and report
    # the dispersion statistic; the clustered-to-uniform transition is judged
    # by inspection, so nothing is asserted about its direction.
    if axis_config == "snr":
        config = {
            "grid": {"M": 12, "N": 14},
            "scattering": {"spreading_factor": 0.001},
            "snr_db": [3.0, 10.0, 20.0],
            "pilot_budget": 20,
            "methods": ["greedy-swap"],
            "seeds": [0],
        }
    else:
        config = {
            "grid": {"M": 12, "N": 14},
            "scattering": {"spreading_factor": [0.0001, 0.001, 0.01]},
            "snr_db": 20.0,
            "pilot_budget": 20,
            "methods": ["greedy-swap"],
            "seeds": [0],
        }
    cfg_path = tmp_path / "structure.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["structure", "--config", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / "structure_summary.json").read_text())
    assert len(summary["patterns"]) == 3
    for entry in summary["patterns"]:
        assert entry["K"] == 20
        print(
            f"REPORT criterion 9 ({summary['axis']}={entry['axis_value']}): "
            f"dispersion={entry['dispersion']}, avg MSE={entry['average_mse']:.4g}"
        )


def test_criterion_10_kronecker_consistency():
    _assert_check(check_kronecker_consistency())
