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



def test_benchmark_checks_read_every_reported_field(tmp_path):
    """perfbench's hooks and output checks run on every method at one 4x4
    point and find nothing wrong.  They read ``budget_used``,
    ``initial_objective``, ``pilot_snr`` and ``effective_rank`` among others,
    so renaming or breaking one of them fails here and not only in a
    benchmark run."""
    from perfbench.harness import Digest
    from perfbench.workloads import Bench

    bench = Bench(seed=0, out_dir=tmp_path, run_id="api-guard")
    bench.install()
    try:
        cli, channel = bench.cli, bench.channel
        raw = {
            "grid": {"M": 4, "N": 4},
            "scattering": {"spreading_factor": 0.01},
            "snr_db": 20.0,
            "pilot_budget": 4,
        }
        cfg = cli.parse_config(raw)
        stats = channel.build_statistics(cfg.grid, channel.ScatteringSpec(spreading_factor=0.01))
        cli.run_point(cfg, stats, 4, 20.0, 0, cli.VALID_METHODS, 3)
        digest = Digest()
        points = bench.take("points")
        for point in points:
            bench.check_point("api-guard", point, digest)
        bench.check_swaps("api-guard", digest)
        bench.check_roundings("api-guard", digest)
    finally:
        bench.tracer.unwrap("hooks")
    assert bench.ledger.failures == []
    # One check per method, per local swap (greedy-swap and three refined
    # roundings) and per rounding (cr-round and cr-round-swap's three).
    assert len(points) == 1
    assert bench.ledger.attempted == len(cli.VALID_METHODS) + 4 + 4
    assert bench.ranks == {stats.eigvals.size}
    # The lattice hook counts fallbacks, zero included, once per report.
    assert "optimizers.best_lattice.fallbacks" in bench.counters
