import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "write_outputs.py"
_spec = importlib.util.spec_from_file_location("write_outputs", SCRIPT)
write_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(write_outputs)


def test_every_shipped_config_runs_under_its_command_then_validate(tmp_path):
    runs = list(write_outputs.runs(tmp_path))
    configs = sorted(p.stem for p in (SCRIPT.parent.parent / "configs").glob("*.json"))
    assert [label for label, _ in runs] == configs + ["validate"]
    for label, args in runs:
        assert args[0] == label.split("_")[0]
        assert args[-2:] == ["--out", str(tmp_path / label)]


def test_wrong_arguments_exit_2(capsys):
    assert write_outputs.main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_stderr_keeps_only_the_cli_lines():
    stderr = (
        "src/pilotopt/cli.py:442: UserWarning: power_fraction 1.42857 > 1: pilot power exceeds the block budget\n"
        "  problem = make_design_problem(stats, K=K, snr_db=snr_db, beta=cfg.beta)\n"
        "[sweep] rect density=0.2 snr_db=20 spreading_factor=0.005 seed=0: NoFeasibleLatticeError: none\n"
        "error: field 'seeds' lists a seed twice\n"
    )
    assert write_outputs.own_lines(stderr) == "".join(stderr.splitlines(keepends=True)[2:])


def test_stderr_file_is_written_for_a_failed_command(tmp_path, monkeypatch, capsys):
    config = tmp_path / "design_twice.json"
    config.write_text(
        '{"grid": {"M": 4, "N": 4}, "scattering": {"spreading_factor": 0.01}, '
        '"pilot_budget": 3, "seeds": [0, 0]}'
    )
    out = tmp_path / "out"
    monkeypatch.setattr(write_outputs, "runs", lambda out_dir: [("bad", ["design", "--config", str(config)])])
    assert write_outputs.main([str(out)]) == 1
    assert (out / "bad" / "stderr.txt").read_text() == "error: field 'seeds' lists a seed twice\n"
    assert "bad: exit 2" in capsys.readouterr().out
