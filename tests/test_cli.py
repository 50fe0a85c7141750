import csv
import inspect
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotopt import GridConfig, PilotPattern, ScatteringSpec, build_statistics
from pilotopt import cli
from pilotopt.cli import (
    CSV_COLUMNS,
    EXIT_BAD_CONFIG,
    EXIT_CHECK_FAILURE,
    EXIT_IO_ERROR,
    EXIT_OK,
    EXIT_OUT_OF_MEMORY,
    EXIT_POINT_FAILED,
    budget_pilots,
    derive_rounding_seed,
    VALID_METHODS,
    main,
    parse_config,
    render_pattern,
    render_weights,
    resolved_config_dict,
    run_point,
)
from pilotopt.errors import ConfigError
from pilotopt.optimizers import GAP_TOL
from pilotopt.validation import CheckResult

from conftest import reference_analytic_mse

BASE_CONFIG = {
    "grid": {"M": 12, "N": 14},
    "scattering": {"spreading_factor": 0.001},
    "snr_db": 10.0,
    "pilot_budget": 14,
    "methods": ["greedy-swap"],
    "seeds": [0],
}


def write_config(tmp_path, overrides=None, name="config.json"):
    raw = {**BASE_CONFIG, **(overrides or {})}
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def read_csv(path):
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                rows.append(line)
    return list(csv.DictReader(rows))


def named_fields(overrides):
    """What the error for an invalid override must name: its last top-level
    field, and any nested field set to a non-finite number."""
    field, value = list(overrides.items())[-1]
    nested = value.items() if isinstance(value, dict) else ()
    return [field] + [k for k, v in nested if isinstance(v, float) and not math.isfinite(v)]


# Any JSON value: scalars including NaN and infinities, nested lists, objects.
# The edge values are also drawn directly, so every field meets each of them.
EDGE_VALUES = [math.nan, math.inf, -math.inf, 0, -1, 0.5, 10**400, True, "1", [], {}]
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.sampled_from(EDGE_VALUES) | st.recursive(
    SCALARS | st.sampled_from(EDGE_VALUES),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
TOP_FIELDS = (
    "grid", "scattering", "snr_db", "pilot_budget", "beta",
    "methods", "seeds", "rounding_repeats", "output_dir",
)
SCATTERING_FIELDS = (
    "spreading_factor", "delay_profile", "doppler_spectrum", "rms_fraction",
    "rank_energy_threshold", "time_bandwidth", "normalized_delay_spread", "normalized_doppler_spread",
)


def assert_parses_or_config_error(raw):
    """``parse_config`` returns a config whose floats are all finite, or
    raises ``ConfigError``; no other outcome."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an accepted spreading factor may break underspread
        try:
            cfg = parse_config(raw)
        except ConfigError:
            return
    resolved = resolved_config_dict(cfg)
    assert all(isinstance(x, int) or math.isfinite(x) for x in numbers_in(resolved)), resolved


def numbers_in(value):
    """Every non-boolean number in a nested JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in numbers_in(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


class TestConfigParsing:
    def test_minimal_config(self):
        cfg = parse_config(BASE_CONFIG)
        assert cfg.grid == GridConfig(12, 14)
        assert cfg.budgets == (("pilots", 14),)
        assert cfg.rounding_repeats == 50
        assert cfg.list_axes == ()

    def test_density_and_axis_detection(self):
        cfg = parse_config({**BASE_CONFIG, "pilot_budget": [0.1], "snr_db": [10, 20]})
        assert cfg.list_axes == ("density", "snr_db")
        assert cfg.budgets == (("density", 0.1),)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"pilot_budget": None},
            {"pilot_budget": 0},
            {"pilot_budget": [1.3]},
            {"methods": ["simulated-annealing"]},
            {"methods": []},
            {"methods": ["greedy", "greedy"]},
            {"scattering": {"spreading_factor": -1}},
            {"scattering": {"spreading_factor": 0.001, "bogus_knob": 1}},
            {"scattering": {"spreading_factor": 0.001, "delay_profile": "bogus"}},
            {"grid": {"M": 12}},
            {"grid": {"M": 12.5, "N": 14}},
            {"typo_field": 3},
            {"seeds": ["a"]},
            {"seeds": 1.5},
            {"seeds": [-1]},
            {"seeds": []},
            {"rounding_repeats": "x"},
            {"rounding_repeats": True},
            {"scattering": [1]},
            {"scattering": {"spreading_factor": []}},
            {"pilot_budget": []},
            {"output_dir": 5},
            {"snr_db": float("nan")},
            {"beta": float("inf")},
            {"pilot_budget": [0.1], "snr_db": float("nan")},
            {"scattering": {"spreading_factor": 0.001, "rms_fraction": float("nan")}},
            {"scattering": {"spreading_factor": float("inf")}},
            # Finite, but 10^(-snr_db/10) underflows to 0 or overflows.
            {"snr_db": 4000},
            {"snr_db": -4000},
            # Finite noise variance, but the pilot SNR overflows or squares to inf.
            {"snr_db": 3200},
            {"beta": 1e300},
            {"grid": {"M": 12, "N": 14, "K": 3}},
            {"grid": {"M": 0, "N": 4}},
            # A repeated value would repeat its runs, files and rows.
            {"seeds": [0, 0]},
            {"snr_db": [10, 10.0]},
            {"scattering": {"spreading_factor": [0.001, 0.001]}},
            {"pilot_budget": [0.2, 0.2]},
        ],
    )
    def test_invalid_configs_rejected(self, overrides, tmp_path, capsys):
        with pytest.raises(ConfigError):
            parse_config({**BASE_CONFIG, **overrides})
        # The CLI exits 2 with one line naming the field, before any work.
        command = "sweep" if isinstance(overrides.get("pilot_budget"), list) else "design"
        cfg_path = write_config(tmp_path, overrides)
        code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        for field in named_fields(overrides):
            assert field in err

    @pytest.mark.parametrize("field", TOP_FIELDS)
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(value=JSON_VALUES)
    def test_any_top_level_value_parses_or_is_a_config_error(self, field, value):
        assert_parses_or_config_error({**BASE_CONFIG, field: value})

    @pytest.mark.parametrize("field", SCATTERING_FIELDS)
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(value=JSON_VALUES)
    def test_any_scattering_value_parses_or_is_a_config_error(self, field, value):
        scattering = {**BASE_CONFIG["scattering"], field: value}
        assert_parses_or_config_error({**BASE_CONFIG, "scattering": scattering})

    def test_density_to_budget_rounding(self):
        grid = GridConfig(12, 14)
        assert budget_pilots(grid, "density", 0.05) == 8  # round(8.4)
        assert budget_pilots(grid, "density", 0.1) == 17  # round(16.8)
        assert budget_pilots(grid, "pilots", 14) == 14

    def test_rounding_seed_derivation_stable(self):
        a = derive_rounding_seed(7, 3)
        assert a == derive_rounding_seed(7, 3)
        assert a != derive_rounding_seed(7, 4)
        assert a != derive_rounding_seed(8, 3)


class TestRendering:
    def test_pattern_grid_shape(self):
        grid = GridConfig(2, 3)
        art = render_pattern(grid, [0, 5], "avg MSE = 0.50")
        assert art == "X . .\n. . X\navg MSE = 0.50\n"

    def test_weights_deciles(self):
        grid = GridConfig(1, 3)
        art = render_weights(grid, [0.0, 0.52, 1.0], "f")
        assert art == ". 5 9\nf\n"


class TestDesignCommand:
    def test_writes_json_and_ascii(self, tmp_path):
        cfg_path = write_config(
            tmp_path, {"methods": ["cr", "cr-round", "greedy-swap"], "pilot_budget": 6}
        )
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "design_greedy-swap_seed0.json").read_text())
        assert data["format_version"] == 1
        assert data["K"] == 6 and len(data["indices"]) == 6
        assert "config" in data
        art = (out / "design_greedy-swap_seed0.txt").read_text().splitlines()
        assert len(art) == 13  # 12 subcarrier rows + footer
        assert art[-1].startswith("avg MSE = ")
        assert sum(row.count("X") for row in art) == 6
        weights = json.loads((out / "design_cr_seed0.json").read_text())["weights"]
        assert len(weights) == 168
        assert abs(sum(weights) - 6) < 1e-5

    def test_pattern_roundtrip(self, tmp_path):
        # The JSON pattern reloads into a pattern that renders as the ASCII art.
        cfg_path = write_config(tmp_path, {"pilot_budget": 5})
        out = tmp_path / "out"
        main(["design", "--config", str(cfg_path), "--out", str(out)])
        data = json.loads((out / "design_greedy-swap_seed0.json").read_text())
        loaded = PilotPattern(tuple(data["indices"]), GridConfig(data["M"], data["N"]))
        art = (out / "design_greedy-swap_seed0.txt").read_text()
        footer = art.splitlines()[-1]
        assert render_pattern(loaded.grid, loaded.indices, footer) == art

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, {"methods": ["cr", "greedy-swap"]})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["design", "--config", str(cfg_path), "--out", str(out1)])
        main(["design", "--config", str(cfg_path), "--out", str(out2)])
        for name in ("design_greedy-swap_seed0.json", "design_greedy-swap_seed0.txt",
                     "design_cr_seed0.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_list_axis_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, {"snr_db": [3, 10]})
        assert main(["design", "--config", str(cfg_path)]) == EXIT_BAD_CONFIG

    def test_zero_budget_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, {"pilot_budget": 0})
        assert main(["design", "--config", str(cfg_path)]) == EXIT_BAD_CONFIG

    def test_infeasible_method_does_not_abort_others(self, tmp_path):
        cfg_path = write_config(
            tmp_path, {"methods": ["exhaustive", "greedy"], "pilot_budget": 14}
        )
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert (out / "design_greedy_seed0.json").exists()
        assert not (out / "design_exhaustive_seed0.json").exists()
        summary = json.loads((out / "design_summary.json").read_text())
        errors = [r for r in summary["runs"] if "error" in r]
        assert errors and errors[0]["method"] == "exhaustive"


class TestSweepCommand:
    def test_single_point_sweep(self, tmp_path):
        cfg_path = write_config(tmp_path, {"pilot_budget": [0.08]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 1
        assert list(rows[0]) == list(CSV_COLUMNS)
        assert rows[0]["method"] == "greedy-swap"
        assert rows[0]["K"] == "13"
        assert rows[0]["axis_name"] == "density"

    def test_distribution_rows_present(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            {
                "pilot_budget": [0.05, 0.08],
                "methods": ["cr-round-swap", "rect"],
                "rounding_repeats": 4,
            },
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "sweep.csv")
        dist = [r for r in rows if r["method"] == "cr-round-swap-dist"]
        best = [r for r in rows if r["method"] == "cr-round-swap"]
        assert len(dist) == 2 * 4 and len(best) == 2
        for b in best:
            siblings = [float(r["objective"]) for r in dist if r["axis"] == b["axis"]]
            assert float(b["objective"]) == pytest.approx(min(siblings), rel=1e-12)
            assert all(r["rounding_seed"] for r in dist)

    def test_deterministic_modulo_walltime(self, tmp_path):
        cfg_path = write_config(
            tmp_path, {"pilot_budget": [0.05], "methods": ["greedy-swap", "cr-round"]}
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", str(cfg_path), "--out", str(out1)])
        main(["sweep", "--config", str(cfg_path), "--out", str(out2)])

        def strip_walltime(path):
            return [
                {k: v for k, v in row.items() if k != "wall_time"}
                for row in read_csv(path / "sweep.csv")
            ]

        assert strip_walltime(out1) == strip_walltime(out2)

    def test_scalar_axes_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_BAD_CONFIG


class TestPointLoop:
    """``design``, ``sweep`` and ``structure`` walk their design points in
    one loop."""

    # Where each command records a failed method.
    ERRORS = {
        "design": ("design_summary.json", "runs"),
        "sweep": ("sweep_errors.json", "errors"),
        "structure": ("structure_summary.json", "patterns"),
    }
    SPREADING = {"scattering": {"spreading_factor": [0.001, 0.01]}}

    @pytest.mark.parametrize(
        "command, overrides, density, points",
        [
            ("design", {"pilot_budget": 8, "seeds": [0, 3]}, "0.047619047619",
             [("0.001", 0), ("0.001", 3)]),
            ("sweep", {"pilot_budget": [0.05], **SPREADING}, "0.05", [("0.001", 0), ("0.01", 0)]),
            ("structure", {"pilot_budget": 8, **SPREADING}, "0.047619047619",
             [("0.001", 0), ("0.01", 0)]),
        ],
        ids=["design", "sweep", "structure"],
    )
    def test_errors_name_their_point(self, tmp_path, capsys, command, overrides, density, points):
        """A failure is told apart from its siblings: each stderr line names
        the point's density, SNR, spreading factor and seed, and repeats the
        error that the command's output records."""
        cfg_path = write_config(tmp_path, {**overrides, "methods": ["exhaustive"]})
        out = tmp_path / "out"
        # The only method fails at every point.
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_POINT_FAILED
        name, key = self.ERRORS[command]
        errors = [e for e in json.loads((out / name).read_text(encoding="utf-8"))[key] if "error" in e]
        assert [(e["method"], e["K"], e["seed"]) for e in errors] == [
            ("exhaustive", 8, seed) for _, seed in points
        ]
        lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("[")]
        assert lines == [
            f"[{command}] exhaustive density={density} snr_db=10 spreading_factor={dd} seed={seed}: "
            + e["error"]
            for (dd, seed), e in zip(points, errors)
        ]
        if command == "sweep":
            # Each error entry carries the point's CSV base values.
            assert [(e["axis"], e["density"], e["snr_db"], e["spreading_factor"]) for e in errors] == [
                (0.05, 0.05, 10.0, 0.001),
                (0.05, 0.05, 10.0, 0.01),
            ]

    @pytest.mark.parametrize(
        "command, snr_db",
        [("design", 1500), ("sweep", [10, 1500]), ("structure", [10, 1500])],
    )
    def test_a_point_where_every_method_failed_exits_4(self, tmp_path, capsys, command, snr_db):
        """At 1500 dB every method fails; the command still writes its files
        and exits 4.  A point where only some methods fail exits 0."""
        config = {"grid": {"M": 4, "N": 4}, "scattering": {"spreading_factor": 0.01},
                  "pilot_budget": [3 / 16] if command == "sweep" else 3,
                  "methods": ["greedy-swap", "rect"]}
        cfg_path = write_config(tmp_path, {**config, "snr_db": snr_db})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_POINT_FAILED
        lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("[")]
        assert [line.split()[1] for line in lines] == ["greedy-swap", "rect"]
        assert all("snr_db=1500 " in line and "NumericError: " in line for line in lines)
        name, key = self.ERRORS[command]
        recorded = json.loads((out / name).read_text(encoding="utf-8"))[key]
        assert [e["method"] for e in recorded if "error" in e] == ["greedy-swap", "rect"]
        if command == "sweep":
            rows = read_csv(out / "sweep.csv")
            assert [(r["snr_db"], r["method"]) for r in rows] == [("10", "greedy-swap"), ("10", "rect")]
        # Exhaustive search exceeds its complexity guard on the 12x14 block.
        partial = write_config(tmp_path, {"methods": ["greedy", "exhaustive"],
                                          "snr_db": 10 if command == "design" else [10, 20]})
        assert main([command, "--config", str(partial), "--out", str(tmp_path / "ok")]) == EXIT_OK

    @pytest.mark.parametrize(
        "command, overrides, spreading, n_points",
        [
            ("design", {"seeds": [0, 1]}, [0.001], 2),
            ("sweep", {"pilot_budget": [0.05, 0.08], **SPREADING}, [0.001, 0.01], 4),
            ("structure", {"seeds": [0, 1], **SPREADING}, [0.001, 0.01], 4),
        ],
        ids=["design", "sweep", "structure"],
    )
    def test_statistics_are_built_once_before_the_first_point(
        self, tmp_path, monkeypatch, command, overrides, spreading, n_points
    ):
        calls, build, run = [], cli.build_statistics, cli.run_point

        def counting_build_statistics(grid, spec, *args, **kwargs):
            calls.append(("build", spec.spreading_factor))
            return build(grid, spec, *args, **kwargs)

        def counting_run_point(*args, **kwargs):
            calls.append(("point",))
            return run(*args, **kwargs)

        monkeypatch.setattr(cli, "build_statistics", counting_build_statistics)
        monkeypatch.setattr(cli, "run_point", counting_run_point)
        cfg_path = write_config(tmp_path, {**overrides, "methods": ["greedy"]})
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert calls == [("build", dd) for dd in spreading] + [("point",)] * n_points


class TestStructureCommand:
    def test_snr_axis_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, {"snr_db": [3.0, 20.0], "pilot_budget": 10})
        out = tmp_path / "out"
        assert main(["structure", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "structure_summary.json").read_text())
        assert summary["axis"] == "snr_db"
        assert len(summary["patterns"]) == 2
        assert all(p["dispersion"] is not None for p in summary["patterns"])

    def test_single_pilot_dispersion_null(self, tmp_path):
        cfg_path = write_config(tmp_path, {"snr_db": [3.0, 20.0], "pilot_budget": 1})
        out = tmp_path / "out"
        assert main(["structure", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "structure_summary.json").read_text())
        assert all(p["dispersion"] is None for p in summary["patterns"])

    def test_density_list_is_a_config_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"pilot_budget": [0.1]})
        out = tmp_path / "out"
        assert main(["structure", "--config", str(cfg_path), "--out", str(out)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "structure needs a fixed pilot budget" in err
        assert not (out / "structure_summary.json").exists()

    def test_requires_exactly_one_axis(self, tmp_path):
        cfg_path = write_config(tmp_path)  # no list axis
        assert main(["structure", "--config", str(cfg_path)]) == EXIT_BAD_CONFIG
        cfg_path = write_config(
            tmp_path,
            {"snr_db": [3, 10], "scattering": {"spreading_factor": [0.001, 0.01]}},
            name="two_axes.json",
        )
        assert main(["structure", "--config", str(cfg_path)]) == EXIT_BAD_CONFIG

    def test_failed_method_is_recorded(self, tmp_path):
        # Exhaustive search exceeds its complexity guard on the 12x14 block.
        cfg_path = write_config(
            tmp_path, {"snr_db": [3.0, 20.0], "methods": ["greedy", "exhaustive"]}
        )
        out = tmp_path / "out"
        assert main(["structure", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        patterns = json.loads((out / "structure_summary.json").read_text())["patterns"]
        errors = [p for p in patterns if "error" in p]
        failed = [(e["axis_value"], e["method"]) for e in errors]
        assert failed == [(3.0, "exhaustive"), (20.0, "exhaustive")]
        for entry in errors:
            assert set(entry) == {"axis_value", "method", "seed", "K", "error"}
            assert entry["K"] == 14 and entry["error"].startswith("ComplexityGuardError: ")
        assert not list(out.glob("*exhaustive*"))
        assert len(patterns) == 4

    def test_cr_alone_is_a_config_error(self, tmp_path, capsys):
        # cr places no pilots, so a structure run of it alone has nothing to
        # write.
        cfg_path = write_config(
            tmp_path,
            {"grid": {"M": 4, "N": 4}, "pilot_budget": 4, "snr_db": [3.0, 20.0], "methods": ["cr"]},
        )
        out = tmp_path / "out"
        assert main(["structure", "--config", str(cfg_path), "--out", str(out)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "structure needs a method that places pilots" in err
        assert not (out / "structure_summary.json").exists()


class TestValidateCommand:
    def _stub(self, monkeypatch, passed):
        results = [
            CheckResult(name="stub check", passed=passed, runtime=0.01, budget_s=1.0, details={})
        ]
        monkeypatch.setattr("pilotopt.cli.run_all_checks", lambda progress=None: results)

    def test_all_passing_exit_zero(self, tmp_path, monkeypatch):
        self._stub(monkeypatch, passed=True)
        out = tmp_path / "out"
        assert main(["validate", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "validate.json").read_text())
        assert report["all_passed"] is True

    def test_failing_check_exit_one(self, tmp_path, monkeypatch):
        self._stub(monkeypatch, passed=False)
        out = tmp_path / "out"
        assert main(["validate", "--out", str(out)]) == EXIT_CHECK_FAILURE
        report = json.loads((out / "validate.json").read_text())
        assert report["all_passed"] is False

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--method", "greedy"]])
    def test_fixed_checks_take_no_seed_or_method(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["validate", "--out", str(tmp_path / "out"), *flag])
        assert exit_info.value.code == EXIT_BAD_CONFIG


class TestErrorPaths:
    def test_corrupted_config_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid": {"M": 12,')
        assert main(["design", "--config", str(bad)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_malformed_field_exits_2_with_one_line(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"seeds": ["a"]})
        assert main(["design", "--config", str(cfg_path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'seeds'" in err

    @pytest.mark.parametrize(
        "content",
        [
            '{"seeds": [0], "note": "caf\xe9"}'.encode("latin-1"),
            b'{"seeds": [' + b"7" * 5000 + b"]}",
            b"[" * 100_000 + b"]" * 100_000,
        ],
        ids=["not-utf8", "long-integer", "deep-nesting"],
    )
    def test_unparseable_config_exits_2_with_one_line(self, tmp_path, capsys, content):
        """A file that is not UTF-8, an integer literal past Python's
        4300-digit limit and JSON nested past the recursion limit each give
        one line naming the file, not a traceback."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["design", "--config", str(bad)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and str(bad) in err

    def test_missing_config_file(self, tmp_path):
        assert main(["design", "--config", str(tmp_path / "nope.json")]) == EXIT_BAD_CONFIG

    def test_output_path_collision_is_io_error(self, tmp_path):
        cfg_path = write_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert (
            main(["design", "--config", str(cfg_path), "--out", str(blocker)])
            == EXIT_IO_ERROR
        )

    def test_out_of_memory_exits_5_with_one_line(self, tmp_path):
        """A 1000x1000 grid, whose Kronecker basis needs 28 GiB, run in a
        child process limited to 2 GiB of address space: one stderr line
        and exit 5, not a traceback."""
        cfg_path = write_config(tmp_path, {"grid": {"M": 1000, "N": 1000}, "methods": ["greedy"]})
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "pilotopt.cli", "design", "--config", str(cfg_path),
             "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
            preexec_fn=limit_address_space,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == EXIT_OUT_OF_MEMORY == 5
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: out of memory: ")

    def test_method_override(self, tmp_path):
        cfg_path = write_config(tmp_path, {"pilot_budget": 6})
        out = tmp_path / "out"
        code = main(
            ["design", "--config", str(cfg_path), "--out", str(out), "--method", "greedy"]
        )
        assert code == EXIT_OK
        assert (out / "design_greedy_seed0.json").exists()
        assert not (out / "design_greedy-swap_seed0.json").exists()
        assert (
            main(["design", "--config", str(cfg_path), "--method", "bogus"])
            == EXIT_BAD_CONFIG
        )

    def test_seed_override(self, tmp_path):
        cfg_path = write_config(tmp_path, {"pilot_budget": 6, "seeds": [0, 1]})
        out = tmp_path / "out"
        main(["design", "--config", str(cfg_path), "--out", str(out), "--seed", "5"])
        assert (out / "design_greedy-swap_seed5.json").exists()
        assert not (out / "design_greedy-swap_seed0.json").exists()
        assert main(["design", "--config", str(cfg_path), "--seed", "-1"]) == EXIT_BAD_CONFIG


    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--method", "greedy", "--method", "greedy"], "'methods' lists a method twice"),
            (["--method", "bogus"], "unknown method 'bogus'"),
            (["--seed", "-1"], "'seeds': -1 is not a non-negative integer"),
        ],
    )
    def test_bad_override_exits_2_with_one_line(self, tmp_path, capsys, flags, field):
        """``--method`` and ``--seed`` replace config fields before the
        config's checks run, so they are rejected as the fields would be."""
        cfg_path = write_config(tmp_path, {"pilot_budget": [0.05]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out), *flags]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err
        assert not (out / "sweep.csv").exists()

class TestReportedMse:
    # Density-sweep point where the rank-10 basis keeps 10 of 34 significant
    # eigenpairs; the best rect lattice has K' = 12 pilots.
    K, SNR_DB, SPREADING = 13, 20.0, 5e-3
    METHODS = ["greedy-swap", "cr-round-swap", "rect", "diamond"]

    def _point(self):
        cfg = parse_config(
            {
                **BASE_CONFIG,
                "scattering": {"spreading_factor": self.SPREADING},
                "snr_db": self.SNR_DB,
                "pilot_budget": self.K,
                "methods": self.METHODS,
                "rounding_repeats": 3,
            }
        )
        return cfg, build_statistics(cfg.grid, ScatteringSpec(spreading_factor=self.SPREADING))

    def test_integer_patterns_report_the_exact_lmmse_error(self):
        K, snr_db, methods = self.K, self.SNR_DB, self.METHODS
        cfg, stats = self._point()
        assert stats.effective_rank < len(stats.significant_eigvals)
        outcomes = run_point(cfg, stats, K, snr_db, 0, methods, repeats=3)
        assert outcomes["rect"]["K"] == K - 1
        noise_var = 10.0 ** (-snr_db / 10.0)
        for method in methods:
            outcome = outcomes[method]
            # Unit pilot power at K: sigma_p^2 = beta*N/K' with beta = K/N.
            sigma_p = np.sqrt(K / outcome["K"])
            rows = [outcome, *outcome.get("distribution", ())]
            assert len(rows) == (4 if method == "cr-round-swap" else 1)
            for row in rows:
                pattern = PilotPattern(tuple(row["indices"]), cfg.grid)
                assert len(pattern) == outcome["K"]
                exact = reference_analytic_mse(stats, pattern, sigma_p, noise_var)
                assert row["average_mse"] == pytest.approx(exact, rel=1e-6), method

    def test_each_distinct_pattern_is_scored_once(self, monkeypatch):
        # Each budget used at the point is moved to the significant basis
        # once, and each distinct (K used, indices) pair scored on it once.
        cfg, stats = self._point()
        scored, error_covariance = [], cli._error_covariance
        rebased, scoring_problem = [], cli._scoring_problem

        def counting_error_covariance(problem, pattern):
            if isinstance(pattern, PilotPattern):
                scored.append((problem.budget, pattern.indices))
            return error_covariance(problem, pattern)

        def counting_scoring_problem(stats, problem):
            rebased.append(problem.budget)
            return scoring_problem(stats, problem)

        monkeypatch.setattr(cli, "_error_covariance", counting_error_covariance)
        monkeypatch.setattr(cli, "_scoring_problem", counting_scoring_problem)
        outcomes = run_point(cfg, stats, self.K, self.SNR_DB, 0, self.METHODS, repeats=3)
        rows = [
            (row["K"], tuple(row["indices"]))
            for outcome in outcomes.values()
            for row in (outcome, *outcome.get("distribution", ()))
        ]
        # Seven rows (cr-round-swap's best is one of its three roundings).
        assert len(rows) == 7 > len(set(rows))
        assert len(scored) == len(set(scored)) == len(set(rows))
        assert set(scored) == set(rows)
        assert sorted(rebased) == sorted({K for K, _ in rows}) == [self.K - 1, self.K]


class TestPowerFractionWarning:
    def test_a_point_with_a_lattice_fallback_warns_once(self):
        # K = 17 > N gives each pilot unit power beyond the block budget, and
        # no rect lattice has 17 pilots: the point's problem warns, the
        # fallback's problem at K' and the scorer's do not.
        methods = ["rect", "diamond", "greedy"]
        cfg = parse_config({**BASE_CONFIG, "pilot_budget": 17, "methods": methods})
        stats = build_statistics(cfg.grid, ScatteringSpec(spreading_factor=0.001))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcomes = run_point(cfg, stats, 17, 10.0, 0, methods, repeats=1)
        assert outcomes["rect"]["K"] == 16
        assert [str(w.message).split(":")[0] for w in caught] == ["power_fraction 1.21429 > 1"]
        assert caught[0].filename == cli.__file__


class TestRunPoint:
    INTEGER_KEYS = {"indices", "objective", "average_mse", "K", "swap_iterations", "wall_time"}
    DOCUMENTED_KEYS = {
        "cr": {"weights", "objective", "average_mse", "K", "converged", "swap_iterations", "wall_time"},
        "cr-round-swap": INTEGER_KEYS | {"distribution"},
    }

    def test_every_method_has_a_runner(self, stats_4x4):
        cfg = parse_config({**BASE_CONFIG, "grid": {"M": 4, "N": 4}, "pilot_budget": 3})
        outcomes = run_point(cfg, stats_4x4, 3, 10.0, 0, VALID_METHODS, repeats=2)
        assert tuple(outcomes) == VALID_METHODS
        for method, outcome in outcomes.items():
            expected = self.DOCUMENTED_KEYS.get(method, self.INTEGER_KEYS)
            assert set(outcome) in (expected, {"error", "K"}), method

    def test_distribution_rows_take_their_roundings_seconds(self, stats_4x4, monkeypatch):
        """A ``distribution`` row's ``wall_time`` is the time
        ``relax_round_swap_design`` gives its rounding and swap run."""
        returned, design = [], cli.relax_round_swap_design

        def recorded(*args):
            returned.append(design(*args))
            return returned[-1]

        monkeypatch.setattr(cli, "relax_round_swap_design", recorded)
        cfg = parse_config({**BASE_CONFIG, "grid": {"M": 4, "N": 4}, "pilot_budget": 3})
        outcome = run_point(cfg, stats_4x4, 3, 10.0, 0, ("cr-round-swap",), repeats=3)
        [(_, rounds)] = returned
        rows = outcome["cr-round-swap"]["distribution"]
        assert [row["wall_time"] for row in rows] == [seconds for _, seconds in rounds]
        assert [row["objective"] for row in rows] == [report.objective for report, _ in rounds]
        assert outcome["cr-round-swap"]["wall_time"] >= sum(seconds for _, seconds in rounds)

    @pytest.mark.parametrize("snr_db", [20.0, 40.0, 60.0, 80.0, 100.0])
    def test_the_relaxation_bounds_every_pattern_at_high_snr(self, snr_db, monkeypatch):
        """12x14, spreading 5e-3, K = 17: the relaxation certifies its gap,
        without a warning, and ``cr``'s objective is at most every integer
        method's.  Stopped on an absolute residual, the relaxation returned
        its uniform start at 80 dB, 9.88e-7 against greedy-swap's 7.13e-7."""
        methods = ["cr", "cr-round", "cr-round-swap", "greedy", "greedy-swap", "rect", "diamond"]
        spec = {"spreading_factor": 5e-3}
        cfg = parse_config(
            {**BASE_CONFIG, "scattering": spec, "snr_db": snr_db, "pilot_budget": 17}
        )
        stats = build_statistics(cfg.grid, ScatteringSpec(**spec))
        allocations, solve = [], cli.solve_relaxation

        def recorded(problem):
            allocations.append(solve(problem))
            return allocations[-1]

        monkeypatch.setattr(cli, "solve_relaxation", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", message="power_fraction")
            outcomes = run_point(cfg, stats, 17, snr_db, 0, methods, repeats=5)
        [alloc] = allocations
        assert alloc.converged and alloc.gap <= GAP_TOL
        for method in methods[1:]:
            assert outcomes["cr"]["objective"] <= outcomes[method]["objective"], method

    @pytest.mark.parametrize(
        "methods, solves",
        [(("greedy", "rect"), 0), (("greedy", "cr-round-swap", "cr", "cr-round"), 1)],
    )
    def test_one_relaxation_solve_per_point_when_asked(self, stats_4x4, monkeypatch, methods, solves):
        calls, solve = [], cli.solve_relaxation

        def counting_solve(problem):
            calls.append(problem.budget)
            return solve(problem)

        monkeypatch.setattr(cli, "solve_relaxation", counting_solve)
        cfg = parse_config({**BASE_CONFIG, "grid": {"M": 4, "N": 4}, "pilot_budget": 3})
        outcomes = run_point(cfg, stats_4x4, 3, 10.0, 0, methods, repeats=2)
        assert len(calls) == solves
        assert all("error" not in outcome for outcome in outcomes.values())

    def test_a_memory_error_in_one_method_is_its_error_record(self, stats_4x4, monkeypatch):
        """A method that runs out of memory is recorded as a method that
        fails is, and the point's other methods record what they record
        without it."""
        cfg = parse_config({**BASE_CONFIG, "grid": {"M": 4, "N": 4}, "pilot_budget": 3})
        methods = ("greedy", "greedy-swap", "rect")
        want = run_point(cfg, stats_4x4, 3, 10.0, 0, methods, repeats=1)

        def out_of_memory(*args):
            raise MemoryError("cannot allocate 28 GiB")

        monkeypatch.setitem(cli.RUNNERS, "greedy-swap", out_of_memory)
        got = run_point(cfg, stats_4x4, 3, 10.0, 0, methods, repeats=1)
        assert got["greedy-swap"] == {"error": "MemoryError: cannot allocate 28 GiB", "K": 3}
        for method in ("greedy", "rect"):
            del got[method]["wall_time"], want[method]["wall_time"]
            assert got[method] == want[method], method

    def test_singular_information_matrix_is_a_method_error(self):
        # At 200 dB the information matrices of the lattice and exhaustive
        # searches are singular in floating point.
        grid = GridConfig(4, 4)
        stats = build_statistics(grid, ScatteringSpec(spreading_factor=0.01))
        cfg = parse_config({**BASE_CONFIG, "grid": {"M": 4, "N": 4}, "pilot_budget": 3, "snr_db": 200})
        outcomes = run_point(cfg, stats, 3, 200.0, 0, ("rect", "exhaustive"), repeats=1)
        for method in ("rect", "exhaustive"):
            assert outcomes[method]["error"].startswith("NumericError: "), method
            assert outcomes[method]["K"] == 3



class TestOutcomeViews:
    """Every file ``design`` and ``structure`` write repeats ``run_point``'s
    outcome record, at one 4x4 point with every method (rect falls back to
    K' = 2 there)."""

    RAW = {
        **BASE_CONFIG,
        "grid": {"M": 4, "N": 4},
        "pilot_budget": 3,
        "methods": list(VALID_METHODS),
        "rounding_repeats": 2,
    }
    FILE_FIELDS = ("K", "objective", "average_mse")

    def _run(self, tmp_path, monkeypatch, command, overrides=None):
        """Run ``command`` and return its output directory and the
        ``(seed, snr_db, outcomes)`` of every ``run_point`` call it made."""
        records, run = [], cli.run_point
        signature = inspect.signature(run)

        def recording_run_point(*args, **kwargs):
            outcomes = run(*args, **kwargs)
            arguments = signature.bind(*args, **kwargs).arguments
            records.append((arguments["seed"], arguments["snr_db"], outcomes))
            return outcomes

        monkeypatch.setattr(cli, "run_point", recording_run_point)
        cfg_path = write_config(tmp_path, {**self.RAW, **(overrides or {})})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert records
        return out, records

    def _assert_file_repeats_record(self, data, outcome):
        view = "weights" if "weights" in outcome else "indices"
        for field in (*self.FILE_FIELDS, view):
            assert data[field] == cli._round_floats(outcome[field]), field

    def test_design_files_repeat_the_record(self, tmp_path, monkeypatch):
        out, records = self._run(tmp_path, monkeypatch, "design", {"seeds": [0, 1]})
        runs = []
        for seed, _, outcomes in records:
            assert tuple(outcomes) == VALID_METHODS
            for method, outcome in outcomes.items():
                data = json.loads((out / f"design_{method}_seed{seed}.json").read_text())
                assert (data["method"], data["seed"]) == (method, seed)
                self._assert_file_repeats_record(data, outcome)
                run = {k: v for k, v in outcome.items() if k != "distribution"}
                runs.append(cli._round_floats({"method": method, "seed": seed, **run}))
        assert json.loads((out / "design_summary.json").read_text())["runs"] == runs

    def test_structure_files_repeat_the_record(self, tmp_path, monkeypatch):
        out, records = self._run(
            tmp_path, monkeypatch, "structure", {"snr_db": [10.0, 20.0], "seeds": [0, 3]}
        )
        entries = json.loads((out / "structure_summary.json").read_text())["patterns"]
        assert len(entries) == len(records) * (len(VALID_METHODS) - 1)  # all but cr
        for entry in entries:
            assert "error" not in entry
            axis_value = cli.fmt_float(entry["axis_value"])
            stem = f"structure_snr_db_{axis_value}_{entry['method']}_seed{entry['seed']}"
            data = json.loads((out / f"{stem}.json").read_text())
            assert entry == {k: data[k] for k in entry}
            (outcomes,) = [
                o for seed, snr_db, o in records
                if (seed, snr_db) == (entry["seed"], entry["axis_value"])
            ]
            self._assert_file_repeats_record(data, outcomes[entry["method"]])
