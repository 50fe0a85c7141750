"""The names other code looks up at run time must exist.

``perfbench`` wraps package functions by name; its own self-test installs the
hooks but never turns tracing on, so a deleted traced name would only show up
in a ``--trace 1`` benchmark run.  These tests catch it here instead.
"""

import sys
from pathlib import Path

import pilotopt

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


def test_all_exported_names_resolve():
    missing = [name for name in pilotopt.__all__ if not hasattr(pilotopt, name)]
    assert not missing


def test_benchmark_hooks_and_traced_names_resolve(tmp_path):
    from perfbench.workloads import Bench

    bench = Bench(seed=0, out_dir=tmp_path, run_id="api-guard")
    bench.install()
    try:
        bench.trace_on()
        bench.trace_off()
    finally:
        bench.tracer.unwrap("spans")
        bench.tracer.unwrap("hooks")

