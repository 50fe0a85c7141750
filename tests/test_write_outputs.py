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
