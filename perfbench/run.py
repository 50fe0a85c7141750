"""Benchmark of the pilotopt package: one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rb-sweep --seed 1 --seconds 50 --trace 0

Workloads are ``rb-sweep`` and ``mc-rounding`` (see
``perfbench/workloads.py``).  The package is imported from ``src/`` of the
same checkout, with BLAS pinned to one thread.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it reports the per-layer
metrics of a traced run and writes its spans as JSONL.  Every output is
checked; the last line on stdout is the result as one JSON object.  Details
(environment, output digest, failures, unit times) go to
``.perfbench_out/<workload>/seed<seed>-trace<trace>/result.json``.
"""

import os

# Pin BLAS and OpenMP before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import Digest, Reference, environment, median, self_times, tail_percentile  # noqa: E402
from perfbench.workloads import WORKLOADS, Bench  # noqa: E402

SETUP_REPEATS = 7  # set-ups per untraced run: this process and six children,
# half of them before the measured phase and half after it
SETUP_TIMEOUT_S = 60

# Per-layer metrics: span call counts, span seconds, self seconds and hook
# counters, each summed over one set-up plus one pass over every unit.
CALLS = (
    "optimizers.local_swap",
    "objective.gains_for_candidates",
    "objective.removal_terms",
    "objective.rank_one_update",
    "optimizers.solve_relaxation",
    "optimizers.project_capped_simplex",
    "objective.objective_value",
    "objective.objective_gradient",
    "optimizers.best_lattice",
    "optimizers.dependent_rounding",
    "optimizers.greedy_design",
    "mcsim.run_simulation",
)
SECONDS = (
    "optimizers.local_swap",
    "objective.gains_for_candidates",
    "optimizers.solve_relaxation",
    "optimizers.project_capped_simplex",
    "objective.objective_value",
    "objective.objective_gradient",
    "optimizers.best_lattice",
    "optimizers.dependent_rounding",
    "optimizers.greedy_design",
    "mcsim.run_simulation",
    "mcsim.sample_channels",
    "channel.build_statistics",
)
SELF_SECONDS = ("cli.run_point", "cli.cmd_sweep")
COUNTERS = (
    "optimizers.local_swap.passes",
    "optimizers.local_swap.cap_hits",
    "optimizers.solve_relaxation.nonconverged",
    "optimizers.best_lattice.fallbacks",
    "optimizers.best_lattice.infeasible",
    "warnings.power_fraction",
    "warnings.other",
)
ROUNDING = "optimizers.dependent_rounding"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and exit")
    return parser.parse_args(argv)


def window_metrics(bench: Bench, first: int, last: int, counts: Counter) -> dict:
    """Additive per-layer figures of the spans [first, last) and a counter delta."""
    calls, secs = Counter(), Counter()
    names, scored, rounding_us = {}, 0, []
    spans = list(bench.tracer.spans_of(first, last))
    for sid, parent, name, start, end in spans:
        names[sid] = name
        calls[name] += 1
        secs[name] += end - start
        if name == ROUNDING:
            rounding_us.append((end - start) * 1e6)
        elif name == "objective.objective_value" and names.get(parent) == "optimizers.best_lattice":
            scored += 1
    selfs = Counter()
    wanted = [s for s in spans if s[2] in SELF_SECONDS or s[1] in names and names[s[1]] in SELF_SECONDS]
    own = self_times(wanted)
    for sid, _, name, _, _ in wanted:
        if name in SELF_SECONDS:
            selfs[name] += own[sid]
    out = {f"{n}.calls": calls[n] for n in CALLS}
    out.update({f"{n}.s": secs[n] for n in SECONDS})
    out.update({f"{n}.self_s": selfs[n] for n in SELF_SECONDS})
    out.update({n: counts[n] for n in COUNTERS})
    out["optimizers.best_lattice.scored"] = scored
    out["_rounding_us"] = rounding_us
    out["_realizations"] = counts["mcsim.realizations"]
    return out


def layer_metrics(setup: dict, executions: dict, ranks) -> tuple[dict, dict]:
    """One set-up plus, per unit, the median over its traced executions."""
    metrics = {k: v for k, v in setup.items() if not k.startswith("_")}
    for windows in executions.values():
        if windows:
            for key in metrics:
                metrics[key] += median([w[key] for w in windows])
    every = [setup] + [w for windows in executions.values() for w in windows]
    samples = [us for w in every for us in w["_rounding_us"]]
    tail_q, tail = tail_percentile(samples, ceiling=99.0)
    metrics[f"{ROUNDING}.us_p50"] = median(samples)
    metrics[f"{ROUNDING}.us_p99"] = tail if tail is not None else 0.0
    sim_s = sum(w["mcsim.run_simulation.s"] for w in every)
    realizations = sum(w["_realizations"] for w in every)
    metrics["mcsim.realizations_per_s"] = realizations / sim_s if sim_s > 0 else 0.0
    metrics["channel.rank"] = max(ranks) if ranks else 0
    notes = {"rounding_samples": len(samples), "rounding_tail_percentile": tail_q}
    return metrics, notes


def execute(bench: Bench, unit, cycle: int, traced: bool):
    """Run one unit (timed), then check its outputs (untimed)."""
    prepared = unit.prepare(cycle)
    first, before = len(bench.tracer), Counter(bench.counters)
    if traced:
        bench.trace_on()
    elapsed = error = output = None
    try:
        with bench.quiet(), bench.tracer.span(f"bench.unit.{unit.name}"):
            t0 = time.perf_counter()
            output = unit.run(prepared)
            elapsed = time.perf_counter() - t0
    except Exception:  # a failed operation; the loop goes on with the next unit
        error = traceback.format_exc()
    finally:
        if traced:
            bench.trace_off()
    last = len(bench.tracer)
    digest = Digest()
    if error is None:
        unit.check(prepared, output, digest)
    else:
        print(error, file=sys.stderr)
        bench.obs.clear()
        bench.ledger.record(unit.name, [f"raised {error.strip().splitlines()[-1]}"])
    counts = bench.counters - before
    window = window_metrics(bench, first, last, counts) if traced else None
    return elapsed, digest.hexdigest(), window


def setup_samples(args, count: int) -> list[float]:
    """Set-up time of fresh interpreters running this script's set-up only."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}"
    out_dir = ROOT / ".perfbench_out" / args.workload / f"seed{args.seed}-trace{args.trace}"
    bench = Bench(args.seed, out_dir, run_id)
    bench.install()
    package_file = Path(bench.cli.__file__).resolve()
    if ROOT / "src" not in package_file.parents:
        raise SystemExit(f"pilotopt imported from {package_file}, not from {ROOT / 'src'}")

    # Set-up: import, channel statistics, warm-up at every rank.
    if args.trace:
        bench.trace_on()
    setup_first = len(bench.tracer)
    with bench.quiet(), bench.tracer.span("bench.setup"):
        units = WORKLOADS[args.workload](bench)
    if args.trace:
        bench.trace_off()
    setup_s = time.perf_counter() - T_START
    setup_window = window_metrics(bench, setup_first, len(bench.tracer), bench.counters) if args.trace else None
    bench.obs.clear()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    out_dir.mkdir(parents=True, exist_ok=True)
    children = 0 if args.trace else SETUP_REPEATS - 1
    setups = [setup_s] + setup_samples(args, children // 2)

    # Measured phase: units in turn; a unit starts only if its median time so
    # far still fits in --seconds.  Untraced runs first complete two cycles,
    # so that every unit has two samples and runs on a slow or a fast machine
    # take the same number; the traced run needs one cycle.  A unit may ask
    # for more, to pool enough outputs for its check.
    min_cycles = max([1 if args.trace else 2] + [getattr(u, "min_repeats", 1) for u in units])
    times = {u.name: [] for u in units}
    traced_times = {u.name: [] for u in units}
    windows = {u.name: [] for u in units}
    first_digests = {}
    # Each execution is also timed in reference passes: its time over the
    # mean time of the reference work measured just before and just after it.
    reference, reference_s = Reference(), []
    ratios = {u.name: [] for u in units}
    traced_ratios = {u.name: [] for u in units}
    ref_before = reference.measure()
    loop_start = time.perf_counter()
    cycle, pos = 0, 0
    while True:
        unit = units[pos]
        if cycle >= min_cycles:
            estimate = median(times[unit.name]) + median(traced_times[unit.name])
            if time.perf_counter() - loop_start + estimate > args.seconds:
                break
        elapsed, digest, _ = execute(bench, unit, cycle, traced=False)
        ref_after = reference.measure()
        reference_s.append(ref_after)
        if elapsed is not None:
            times[unit.name].append(elapsed)
            ratios[unit.name].append(elapsed / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
        if cycle == 0:
            first_digests[unit.name] = digest
        elif getattr(unit, "deterministic", False) and digest != first_digests[unit.name]:
            bench.ledger.record(f"{unit.name}: repetition {cycle}", ["outputs differ from the first repetition"])
        if args.trace:
            t_elapsed, t_digest, window = execute(bench, unit, cycle, traced=True)
            ref_after = reference.measure()
            if t_elapsed is not None:
                traced_times[unit.name].append(t_elapsed)
                traced_ratios[unit.name].append(t_elapsed / (0.5 * (ref_before + ref_after)))
                windows[unit.name].append(window)
            # Same seed, same outputs: tracing must not change a result.
            if t_digest != digest:
                bench.ledger.record(f"{unit.name}: traced outputs", ["differ from the untraced run"])
            ref_before = ref_after
        pos += 1
        if pos == len(units):
            pos, cycle = 0, cycle + 1
    measured_s = time.perf_counter() - loop_start
    setups += setup_samples(args, children - children // 2)

    final_checks = [u.final_check() for u in units if hasattr(u, "final_check")]
    # wall_s: a unit's cost is its fastest repetition, since every repetition
    # does the same work.  wall_ref: a unit's cost is the median over its
    # repetitions of the time in reference passes measured beside it, which
    # takes out the host's changing speed.
    wall_s = sum(min(v) for v in times.values() if v)
    wall_ref = sum(median(v) for v in ratios.values())
    output_digest = Digest()
    for unit in units:
        output_digest.add(unit.name, first_digests[unit.name])

    if args.trace:
        metrics, trace_notes = layer_metrics(setup_window, windows, bench.ranks)
        traced_wall = sum(min(v) for v in traced_times.values() if v)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = wall_s
        # Overhead from the reference-relative times, which the host's speed
        # does not move.
        traced_ref = sum(median(v) for v in traced_ratios.values())
        metrics["trace.overhead"] = traced_ref / wall_ref - 1.0 if wall_ref > 0 else 0.0
        bench.tracer.write_jsonl(out_dir / "spans.jsonl")
    else:
        trace_notes = {}
        metrics = {
            "wall_ref": wall_ref,
            "setup_s": median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "design_gap": median(bench.gaps),
        }

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units_of = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units_of) - set(metrics))
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    ledger = bench.ledger
    env = environment(ROOT)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_id": run_id,
        "environment": env,
        "output_digest": output_digest.hexdigest(),
        "unit_digests": first_digests,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "failed_ratio": len(ledger.failures) / max(ledger.attempted, 1),
        "failures": ledger.failures[:50],
        "metrics": metrics,
        "setup_samples_s": setups,
        "measured_s": measured_s,
        "cycles": cycle,
        "wall_s": wall_s,
        "unit_times_s": times,
        "unit_ratios": ratios,
        "reference_s": reference_s,
        "traced_unit_times_s": traced_times if args.trace else None,
        "final_checks": final_checks,
        "trace": trace_notes,
        "notes": bench.notes[:20],
    }
    (out_dir / "result.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"output_digest {details['output_digest']}  failed_ratio {details['failed_ratio']:.6g}")
    for failure in ledger.failures[:10]:
        print("FAILED " + failure)
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_of.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
