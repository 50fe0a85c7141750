#!/usr/bin/env python3
"""Write every output of the pilotopt CLI for the shipped configs.

Usage: python3 scripts/write_outputs.py OUT_DIR

Runs ``design``, ``sweep`` or ``structure`` on each ``configs/<command>_*.json``
of this checkout, each into ``OUT_DIR/<config name>``, and ``validate`` into
``OUT_DIR/validate``.  Every command runs in a fresh interpreter on this
checkout's ``src`` with BLAS and OpenMP pinned to one thread, so two
checkouts' trees can be compared with ``scripts/diff_outputs.py``.  The
lines a command prints itself on stderr (a failed method, a config error)
are kept as ``OUT_DIR/<config name>/stderr.txt``; Python warnings, which
carry file paths and line numbers, are dropped from it.  All of stderr is
still passed through.  Prints one line per command and exits 1 if any
command exits non-zero.  Standard library plus pilotopt only.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("design", "sweep", "structure")
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Line starts of what the CLI prints itself on stderr.
OWN_PREFIXES = ("[", "error:")


def runs(out_dir: Path):
    """(label, CLI arguments) of every command, in a fixed order."""
    for config in sorted((ROOT / "configs").glob("*.json")):
        command = config.stem.split("_")[0]
        if command in COMMANDS:
            yield config.stem, [command, "--config", str(config), "--out", str(out_dir / config.stem)]
    yield "validate", ["validate", "--out", str(out_dir / "validate")]


def own_lines(stderr: str) -> str:
    """The lines of ``stderr`` that the CLI printed itself."""
    return "".join(line for line in stderr.splitlines(keepends=True) if line.startswith(OWN_PREFIXES))


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: write_outputs.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(args[0]).resolve()
    env = dict(os.environ, **{name: "1" for name in THREAD_PINS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    failed = 0
    for label, cli_args in runs(out_dir):
        result = subprocess.run(
            [sys.executable, "-m", "pilotopt.cli", *cli_args],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            check=False,
        )
        sys.stderr.write(result.stderr)
        (out_dir / label).mkdir(parents=True, exist_ok=True)
        (out_dir / label / "stderr.txt").write_text(own_lines(result.stderr), encoding="utf-8")
        print(f"{label}: exit {result.returncode}")
        failed += result.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
