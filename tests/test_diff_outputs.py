import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "diff_outputs.py"
_spec = importlib.util.spec_from_file_location("diff_outputs", SCRIPT)
diff_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_outputs)

CSV_HEAD = "# {\"format_version\": 1}\r\naxis,method,K,objective,wall_time\r\n"


def _tree(root: Path, report: dict, rows: list) -> Path:
    (root / "design").mkdir(parents=True)
    (root / "design" / "report.json").write_text(json.dumps(report))
    (root / "sweep.csv").write_text(CSV_HEAD + "".join(r + "\r\n" for r in rows))
    return root


@pytest.fixture
def parent(tmp_path):
    report = {"objective": 2.5, "weights": [1.0, 0.5, 0.5, 0.0], "wall_time": 0.3}
    return _tree(tmp_path / "a", report, ["0.1,cr,8,1.25,0.40", "0.1,greedy,8,1.5,0.01"])


def test_identical_trees_apart_from_timings_exit_0(parent, tmp_path, capsys):
    report = {"objective": 2.5, "weights": [1.0, 0.5, 0.5, 0.0], "wall_time": 9.9}
    change = _tree(tmp_path / "b", report, ["0.1,cr,8,1.25,0.77", "0.1,greedy,8,1.5,0.02"])
    assert diff_outputs.main([str(parent), str(change)]) == 0
    assert capsys.readouterr().out.strip() == "0 difference(s)"


def test_every_difference_is_listed_and_exits_1(parent, tmp_path, capsys):
    report = {"objective": 2.4, "weights": [1.0, 0.5, 0.25, 0.25], "wall_time": 0.3}
    change = _tree(tmp_path / "b", report, ["0.1,cr,8,1.25,0.40", "0.1,greedy,8,1.75,0.01"])
    (change / "extra.txt").write_text("new\n")
    assert diff_outputs.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "design/report.json: objective: 2.5 -> 2.4 (rel -0.04)",
        "design/report.json: weights: 2 of 4 differ, max abs 0.25",
        "extra.txt: only in change",
        "sweep.csv: row 2 (0.1,greedy,8): objective 1.5 -> 1.75",
        "4 difference(s)",
    ]


def test_text_lines_are_listed_with_their_numbers(parent, tmp_path, capsys):
    (parent / "art.txt").write_text("X . .\n. X .\n. . X\nfooter\n")
    change = _tree(tmp_path / "b", json.loads((parent / "design" / "report.json").read_text()), [])
    (change / "sweep.csv").write_text((parent / "sweep.csv").read_text())
    (change / "art.txt").write_text("X . .\nX . .\n. . X\nfooter\nnote\n")
    assert diff_outputs.main([str(parent), str(change)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "art.txt: line 2: -. X .",
        "art.txt: line 2: +X . .",
        "art.txt: line 5: +note",
        "3 difference(s)",
    ]


def test_missing_directory_is_a_usage_error(parent, tmp_path):
    assert diff_outputs.main([str(parent), str(tmp_path / "absent")]) == 2


def test_reader_closing_the_pipe_ends_the_listing_quietly(parent, tmp_path):
    change = _tree(tmp_path / "b", json.loads((parent / "design" / "report.json").read_text()), [])
    (change / "sweep.csv").write_text((parent / "sweep.csv").read_text())
    # More output than a pipe buffers, so the writer is still listing when
    # the reader goes.
    (parent / "long.txt").write_text("".join(f"a{n}\n" for n in range(20000)))
    (change / "long.txt").write_text("".join(f"b{n}\n" for n in range(20000)))
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPT), str(parent), str(change)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert first == b"long.txt: line 1: -a0\n"
