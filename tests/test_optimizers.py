import contextlib
import dataclasses
import functools
import inspect
import itertools
import json
import os
import subprocess
import sys
import warnings
from math import comb
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotopt import (
    DesignProblem,
    FractionalAllocation,
    GridConfig,
    PilotPattern,
    ScatteringSpec,
    best_lattice,
    build_statistics,
    dependent_rounding,
    exhaustive_search,
    greedy_design,
    local_swap,
    make_design_problem,
    objective_gradient,
    objective_value,
    project_capped_simplex,
    solve_relaxation,
)
from pilotopt.errors import (
    ComplexityGuardError,
    InfeasibleAllocationError,
    InvalidSpecError,
    LatticeError,
    NoFeasibleLatticeError,
)
from pilotopt import objective, optimizers, validation
from pilotopt.cli import RUNNERS, derive_rounding_seed
from pilotopt.objective import (
    ROUNDING_EPS,
    _row_terms,
    add_row,
    pattern_inverse,
    pattern_objective,
    rank_one_update,
    rounding_plan,
    swap_deltas,
)
from pilotopt.optimizers import (
    REFLECT_SLACK,
    SWAP_TOLERANCE,
    TIE_BAND,
    _spacing_offsets,
    greedy_swap_design,
    relax_round_swap_design,
)

from conftest import (
    RB_SWEEP_POINTS,
    permuted_problem,
    random_rows_problem,
    reference_dependent_rounding,
    reference_greedy,
    reference_lattice,
    reference_lattices,
    reference_marginal_gain,
    reference_projection,
    reference_solve_relaxation,
    reference_swap_delta,
    reflection,
)

# Hand enumeration of the diamond with spacing (4, 2) on the 12x14 grid:
# even pilot columns n in {0,4,8,12} carry m in {0,4,8}; odd pilot columns
# n in {2,6,10} are staggered by 2 and carry m in {2,6,10}.
DIAMOND_4_2_GOLDEN = tuple(
    sorted(
        [n * 12 + m for n in (0, 4, 8, 12) for m in (0, 4, 8)]
        + [n * 12 + m for n in (2, 6, 10) for m in (2, 6, 10)]
    )
)


def exact_capped_simplex_projection(v, K):
    """Independent oracle: exact KKT solve over all active-set patterns."""
    v = np.asarray(v, dtype=float)
    bps = np.unique(np.concatenate([v, v - 1.0]))
    lows = np.concatenate([[bps[0] - 1.0], bps])
    highs = np.concatenate([bps, [bps[-1] + 1.0]])

    def total(theta):
        return np.clip(v - theta, 0.0, 1.0).sum()

    for lo, hi in zip(lows, highs):
        if not (total(hi) <= K <= total(lo)):
            continue
        mid = 0.5 * (lo + hi)
        free = (v - mid > 0.0) & (v - mid < 1.0)
        n_up = int((v - mid >= 1.0).sum())
        if free.sum() == 0:
            theta = lo if abs(total(lo) - K) < abs(total(hi) - K) else hi
        else:
            theta = (v[free].sum() + n_up - K) / free.sum()
        return np.clip(v - theta, 0.0, 1.0)
    raise AssertionError("no active set matched")


def list_rebuild_rounding(w, rng_seed):
    """Reference: the dependent rounding that re-pairs the two lowest-indexed
    fractional coordinates after every step, rebuilding the fractional list."""
    rng = np.random.default_rng(rng_seed)
    c = [min(max(float(x), 0.0), 1.0) for x in w]
    eps = 1e-9
    fractional = [k for k, x in enumerate(c) if eps < x < 1.0 - eps]
    while len(fractional) >= 2:
        i, j = fractional[0], fractional[1]
        d_plus = min(1.0 - c[i], c[j])
        d_minus = min(c[i], 1.0 - c[j])
        if rng.uniform() <= d_minus / (d_plus + d_minus):
            c[i] += d_plus
            c[j] -= d_plus
        else:
            c[i] -= d_minus
            c[j] += d_minus
        fractional = [k for k in fractional if eps < c[k] < 1.0 - eps]
    return tuple(k for k, x in enumerate(c) if x > 0.5)


def lowest_pair_within_band(problem, A_inv, indices):
    """Reference for ``_best_swap`` from per-pair ``reference_swap_delta``
    calls on the pattern ``indices`` whose inverse is ``A_inv``: the lowest
    (i, j) among the swaps within ``TIE_BAND`` of the best that improve by
    more than ``SWAP_TOLERANCE`` of the objective, or None."""
    deltas = {
        (i, j): reference_swap_delta(problem, A_inv, i, j)
        for i in indices
        for j in range(problem.grid.size)
        if j not in indices
    }
    best = min(deltas.values())
    trace = float(np.trace(A_inv).real)
    if best >= -SWAP_TOLERANCE * trace:
        return None
    limit = min(best + TIE_BAND * trace, -SWAP_TOLERANCE * trace)
    return min(pair for pair, delta in deltas.items() if delta <= limit)


def rounding_outcome(rounding, allocation, seed, grid):
    """The indices a rounding returns, or the message of the
    ``InfeasibleAllocationError`` it raises."""
    try:
        return rounding(allocation, seed, grid).indices
    except InfeasibleAllocationError as exc:
        return str(exc)


def assert_rounds_as_reference_scan(cases, seeds=range(200)):
    """``dependent_rounding`` returns the indices, or raises the error, of
    ``reference_dependent_rounding`` for every ``(allocation, grid)`` of
    ``cases`` and every seed."""
    for number, (allocation, grid) in enumerate(cases):
        for seed in seeds:
            got = rounding_outcome(dependent_rounding, allocation, seed, grid)
            want = rounding_outcome(reference_dependent_rounding, allocation, seed, grid)
            assert got == want, (number, seed)


def edge_rounding_cases():
    """Allocations whose scan runs at the edges of the pin test: random
    ones of every size, some a little short of their budget so that the last
    survivor stays fractional and is decided after the scan, weights within
    2 ``ROUNDING_EPS`` of 0 and 1, integral ones, a grid of the wrong size,
    and weights under a budget that their rounding misses (the budget of a
    stand-in allocation, since a ``FractionalAllocation`` refuses weights
    that do not sum to it)."""
    rng = np.random.default_rng(32)
    cases = []
    for P in (1, 2, 7, 30, 100):
        for K in sorted({1, (P + 1) // 2, P}):
            for short in (0.0, 0.0, 5e-7):
                w = project_capped_simplex(rng.uniform(size=P), K) * (1.0 - short / K)
                cases.append((FractionalAllocation(w, K), GridConfig(P, 1)))
    eps = ROUNDING_EPS
    near = [f * eps for f in (0.5, 1.0, 1.5, 2.0)]
    for _ in range(5):
        w = rng.permutation(near + [1.0 - d for d in near] + [0.3, 0.7, 0.5, 0.5, 0.25, 0.75])
        cases.append((FractionalAllocation(w, round(w.sum())), GridConfig(w.size, 1)))
    for P, K in ((1, 0), (1, 1), (9, 4), (30, 11)):
        w = rng.permutation(np.repeat([1.0, 0.0], [K, P - K]))
        cases.append((FractionalAllocation(w, K), GridConfig(P, 1)))
    cases.append((FractionalAllocation(np.full(8, 0.5), 4), GridConfig(9, 1)))
    for w, budget in (
        (np.array([0.6]), 1),  # a lone fractional cell, never paired
        (np.full(8, 0.5), 3),
        (np.full(8, 0.5), 5),
        (np.array([0.3, 0.3, 0.4, 1.0]), 1),
    ):
        stand_in = SimpleNamespace(weights=w, plan=rounding_plan(w), budget=budget)
        cases.append((stand_in, GridConfig(w.size, 1)))
    return cases


def criterion_4_allocation():
    """The P=16, K=5 allocation of ``validation.check_dependent_rounding``."""
    rng = np.random.default_rng(99)
    return FractionalAllocation(project_capped_simplex(rng.uniform(0.05, 0.95, size=16), 5), 5)


ROUNDING_CASES = ("12x14-K17", "criterion-4", "halves")


def rounding_case(case):
    """``(allocation, grid)`` of a named rounding case."""
    if case == "12x14-K17":
        stats = build_statistics(GridConfig(12, 14), ScatteringSpec(spreading_factor=5e-3))
        problem = make_design_problem(stats, K=17, snr_db=20.0)
        return solve_relaxation(problem), problem.grid
    if case == "criterion-4":
        return criterion_4_allocation(), GridConfig(16, 1)
    # Every step pins both of its pair.
    return FractionalAllocation(np.full(8, 0.5), 4), GridConfig(8, 1)


def dft_symmetric_problem(M=4, N=4, r=5, K=6, alpha=3.0):
    """Torus-symmetric instance: rows from 2D DFT vectors have equal moduli."""
    F_M = np.fft.fft(np.eye(M)) / np.sqrt(M)
    F_N = np.fft.fft(np.eye(N)) / np.sqrt(N)
    U = np.kron(F_N, F_M)[:, :r]
    grid = GridConfig(M, N)
    noise_var = N / (K * alpha)
    return DesignProblem(
        grid=grid,
        rows=U,
        prior=np.linspace(3.0, 1.0, r),
        budget=K,
        power_fraction=1.0,
        noise_var=noise_var,
    )


class TestCappedSimplexProjection:
    def test_feasible_point_unchanged(self):
        v = np.array([0.25, 0.75, 1.0, 0.0])
        out = project_capped_simplex(v, 2)
        assert np.array_equal(out, v)

    def test_saturation(self):
        out = project_capped_simplex(np.array([10.0, 10.0, -10.0, -10.0]), 2)
        assert np.allclose(out, [1.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            v = rng.normal(scale=2.0, size=16)
            out = project_capped_simplex(v, 5)
            oracle = exact_capped_simplex_projection(v, 5)
            assert abs(out.sum() - 5) <= 1e-9
            assert np.abs(out - oracle).max() < 1e-9

    def test_full_budget_is_all_ones(self):
        out = project_capped_simplex(np.array([-3.0, 0.2, 9.0]), 3)
        assert np.array_equal(out, np.ones(3))

    def test_overfull_budget_rejected(self):
        from pilotopt.errors import BudgetError

        with pytest.raises(BudgetError):
            project_capped_simplex(np.zeros(3), 4)

    def test_negative_budget_rejected(self):
        from pilotopt.errors import BudgetError

        with pytest.raises(BudgetError, match="-1"):
            project_capped_simplex(np.array([0.2, 0.5, 0.9]), -1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        from pilotopt.errors import NumericError

        with pytest.raises(NumericError, match="non-finite"):
            project_capped_simplex(np.array([0.2, bad, 0.9]), 1)


def _large_projection_cases():
    """P = 1344 inputs with ties and degenerate segments, and their budgets."""
    rng = np.random.default_rng(1344)
    P = 1344
    levels = rng.normal(scale=1.5, size=12)
    split = np.concatenate([rng.uniform(1.5, 3.0, 200), rng.uniform(-3.0, -1.5, P - 200)])
    return {
        "random": (rng.normal(scale=2.0, size=P), 134),
        "duplicated": (rng.choice(levels, size=P), 401),
        "all-equal": (np.full(P, 0.3), 336),
        # The sum is exactly 200 for every shift in [-1.5, 0.5]: a flat segment.
        "flat-segment": (rng.permutation(split), 200),
        # Hundreds of tied maxima: a shift taken from their rounded sum would
        # leave 1e-17 residues instead of exact zeros.
        "zero-budget": (np.minimum(rng.normal(size=P), 0.1), 0),
    }


class TestExactProjectionEdgeCases:
    @pytest.mark.parametrize("case", list(_large_projection_cases()))
    def test_matches_kkt_oracle_at_1344(self, case):
        v, K = _large_projection_cases()[case]
        out = project_capped_simplex(v, K)
        assert np.abs(out - exact_capped_simplex_projection(v, K)).max() < 1e-12
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert abs(out.sum() - K) <= 1e-12 * max(K, 1)

    def test_all_equal_entries_share_the_budget(self):
        v, K = _large_projection_cases()["all-equal"]
        assert np.allclose(project_capped_simplex(v, K), K / v.size, rtol=0, atol=1e-15)

    def test_zero_budget_gives_exact_zeros(self):
        v, _ = _large_projection_cases()["zero-budget"]
        out = project_capped_simplex(v, 0)
        assert np.array_equal(out, np.zeros(v.size))

    @pytest.mark.parametrize("case", list(_large_projection_cases()))
    def test_matches_reference_bit_for_bit_at_1344(self, case):
        v, K = _large_projection_cases()[case]
        assert np.array_equal(project_capped_simplex(v, K), reference_projection(v, K))


def _projection_inputs():
    """(v, K) with P in [2, 24] and K in [1, P - 1]."""
    values = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    return st.integers(2, 24).flatmap(
        lambda P: st.tuples(st.lists(values, min_size=P, max_size=P), st.integers(1, P - 1))
    )


class TestProjectionProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_projection_inputs())
    def test_matches_reference_bit_for_bit(self, case):
        v, K = np.array(case[0]), case[1]
        assert np.array_equal(project_capped_simplex(v, K), reference_projection(v, K))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        case=_projection_inputs(),
        g_seed=st.integers(0, 2**32 - 1),
        t1=st.floats(1e-3, 10.0),
        factor=st.floats(1.0, 100.0, exclude_min=True),
    )
    def test_residual_monotone_along_the_arc(self, case, g_seed, t1, factor):
        """Calamai & More (1987), Lemma 2.2, on the exact projection: for
        feasible w, ``r(t) = |P(w - t g) - w|`` is non-decreasing in t and
        ``r(t) / t`` non-increasing.  The absolute slack covers the rounding
        of the projection itself."""
        v, K = np.array(case[0]), case[1]
        w = project_capped_simplex(v, K)
        g = np.random.default_rng(g_seed).normal(scale=3.0, size=w.size)
        t2 = t1 * factor

        def r(t):
            return float(np.linalg.norm(project_capped_simplex(w - t * g, K) - w))

        r1, r2 = r(t1), r(t2)
        slack = 1e-12 * (1.0 + t2 * float(np.abs(g).max()))
        assert r1 <= r2 * (1 + 1e-12) + slack
        assert r2 / t2 <= (r1 / t1) * (1 + 1e-12) + slack / t1


@pytest.fixture
def budget_misses(monkeypatch):
    """A list that records ``|sum w - K| / K`` of every weight vector whose
    objective ``solve_relaxation`` evaluates, trials that fail included."""
    misses, lower_inverse = [], optimizers.allocation_lower_inverse

    def recorded(problem, w):
        misses.append(abs(w.sum() - problem.budget) / problem.budget)
        return lower_inverse(problem, w)

    monkeypatch.setattr(optimizers, "allocation_lower_inverse", recorded)
    return misses


def assert_no_worse_than_reference(problem):
    """``solve_relaxation`` certifies its gap at 1e-9 (``GAP_TOL``), the
    SPG2-only reference converges at residual tol 1e-6, the relaxation's
    objective is at most 1e-10 relative above the reference's, and its
    weights sum to K to rounding."""
    assert optimizers.GAP_TOL == 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve_relaxation(problem)
        want = reference_solve_relaxation(problem, tol=1e-6)
    assert got.converged and want.converged
    assert got.gap <= 1e-9
    got_f, want_f = objective_value(problem, got), objective_value(problem, want)
    assert got_f <= want_f * (1.0 + 1e-10), (problem.budget, got_f, want_f)
    assert abs(got.weights.sum() - problem.budget) <= 1e-12 * problem.budget


class TestSolveRelaxation:
    def test_full_budget_unique_point(self, problem_4x4):
        pr = dataclasses.replace(problem_4x4, budget=16)
        alloc = solve_relaxation(pr)
        assert np.array_equal(alloc.weights, np.ones(16))
        assert alloc.converged

    def test_uniform_weights_fixed_point_on_torus(self):
        pr = dft_symmetric_problem()
        w0 = np.full(16, pr.budget / 16)
        grad = objective_gradient(pr, w0)
        assert np.abs(grad - grad[0]).max() < 1e-12
        assert np.abs(project_capped_simplex(w0 - grad, pr.budget) - w0).max() < 1e-9

    def test_relaxed_value_lower_bounds_binary_optimum(self, problem_4x4):
        alloc = solve_relaxation(problem_4x4)
        relaxed = objective_value(problem_4x4, alloc)
        optimum = exhaustive_search(problem_4x4).objective
        assert relaxed <= optimum + 1e-9

    def test_certified_bound_never_exceeds_the_optimum(self, problem_4x4):
        """On criterion 1's 4x4 instances and the 4x4 fixture, the bound the
        gap certifies, ``objective / (1 + gap)``, is at most the exhaustive
        optimum."""
        problems = [validation._oracle_grid_problem(K) for K in (2, 3, 4)] + [problem_4x4]
        for problem in problems:
            alloc = solve_relaxation(problem)
            bound = objective_value(problem, alloc) / (1.0 + alloc.gap)
            assert alloc.converged
            assert bound <= exhaustive_search(problem).objective, problem.budget

    def test_constraints_and_convergence(self, problem_rb):
        alloc = solve_relaxation(problem_rb)
        assert abs(alloc.weights.sum() - problem_rb.budget) <= 1e-8
        assert alloc.weights.min() >= -1e-9 and alloc.weights.max() <= 1 + 1e-9
        assert alloc.converged

    def test_iteration_cap_warns_not_raises(self, problem_rb, monkeypatch):
        monkeypatch.setattr(optimizers, "GAP_TOL", 1e-14)
        monkeypatch.setattr(optimizers, "RELAX_MAX_ITERS", 2)
        with pytest.warns(UserWarning, match="relaxation"):
            alloc = solve_relaxation(problem_rb)
        assert not alloc.converged
        assert abs(alloc.weights.sum() - problem_rb.budget) <= 1e-8

    def test_records_iterations_and_gap(self, problem_rb):
        alloc = solve_relaxation(problem_rb)
        assert alloc.iterations > 0
        assert 0.0 <= alloc.gap <= 1e-9

    @pytest.mark.parametrize("snr_db", [150.0, 200.0, 250.0])
    def test_certifies_at_high_snr(self, rb_sweep_problems, snr_db, budget_misses):
        """The step range scales with the start's gradient, whose entries
        are about 1e-30 at 200 dB: 12x14, K = 17, spreading 5e-3 certifies
        within 100 steps, without a warning, and every trial it evaluates
        holds the budget to 1e-12 relative."""
        problem = dataclasses.replace(
            rb_sweep_problems[(0.005, 0.1)], noise_var=10.0 ** (-snr_db / 10.0)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc = solve_relaxation(problem)
        assert alloc.converged
        assert alloc.gap <= optimizers.GAP_TOL
        assert alloc.iterations <= 100
        assert max(budget_misses) <= 1e-12

    def test_a_zero_gradient_certifies_the_start(self):
        """A pilot SNR so small that every gradient entry underflows to 0:
        the step range has no scale, and the uniform start is certified
        before any step."""
        rows, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(16, 2)))
        problem = DesignProblem(
            grid=GridConfig(4, 4),
            rows=rows,
            prior=np.full(2, 1e-3),
            budget=2,
            power_fraction=5e-324,
            noise_var=2.0,
        )
        assert problem.pilot_snr > 0.0
        assert not objective_gradient(problem, np.full(16, 2 / 16)).any()
        alloc = solve_relaxation(problem)
        assert alloc.converged and alloc.iterations == 0 and alloc.gap == 0.0

    def test_matches_reference_loop_on_rb_sweep(
        self, rb_sweep_problems, problem_rb, budget_misses
    ):
        """On the rb-sweep points and the shipped design config, the
        relaxation converges at tol 1e-6 wherever the SPG2-only reference
        does, to an objective at most 1e-10 relative above the reference's,
        with weights summing to K to rounding, and every trial it evaluates
        holds the budget to 1e-12 relative."""
        for point in RB_SWEEP_POINTS:
            assert_no_worse_than_reference(rb_sweep_problems[point])
        assert_no_worse_than_reference(problem_rb)
        assert max(budget_misses) <= 1e-12

    def test_matches_reference_loop_at_48x28(self, problem_big, budget_misses):
        assert_no_worse_than_reference(problem_big)
        assert max(budget_misses) <= 1e-12

    def test_newton_steps_finish_the_rb_sweep(self, rb_sweep_problems):
        """The face phase runs and records itself: its Newton steps are
        among the steps counted, and the sweep takes fewer than half the
        accepted steps of SPG2 alone."""
        got = [solve_relaxation(rb_sweep_problems[point]) for point in RB_SWEEP_POINTS]
        want = [reference_solve_relaxation(rb_sweep_problems[point]) for point in RB_SWEEP_POINTS]
        assert sum(a.face_steps for a in got) > 0
        for a in got:
            assert 0 <= a.face_steps <= a.iterations and a.face_fallbacks >= 0
        assert 2 * sum(a.iterations for a in got) < sum(a.iterations for a in want)

    def test_face_fields_default_to_zero_and_are_not_compared(self, problem_rb, monkeypatch):
        alloc = FractionalAllocation(np.array([1.0, 0.0]), budget=1)
        assert (alloc.face_steps, alloc.face_fallbacks) == (0, 0)
        monkeypatch.setattr(optimizers, "RELAX_MAX_ITERS", 3)
        with pytest.warns(UserWarning, match="relaxation"):
            capped = solve_relaxation(problem_rb)
        assert (capped.face_steps, capped.face_fallbacks) == (0, 0)
        # Allocations compare by identity, so no field is compared.
        assert alloc != dataclasses.replace(alloc) and alloc == alloc

    def test_capped_run_matches_reference_loop(self, problem_rb, monkeypatch):
        monkeypatch.setattr(optimizers, "RELAX_MAX_ITERS", 3)
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = solve_relaxation(problem_rb)
        with warnings.catch_warnings(record=True) as want_warnings:
            warnings.simplefilter("always")
            want = reference_solve_relaxation(problem_rb, max_iters=3)
        assert [str(w.message) for w in got_warnings] == [
            f"relaxation stopped after 3 iterations at gap {want.gap:.3g} > "
            f"tol={optimizers.GAP_TOL:g}; returning best iterate"
        ]
        assert len(want_warnings) == 1
        assert np.array_equal(got.weights, want.weights)
        assert (got.iterations, got.gap, got.converged) == (3, want.gap, False)

    def test_counts_its_objective_evaluations(self, rb_sweep_problems, monkeypatch):
        """``evaluations`` is the number of ``A^{-1}`` kernel calls, the
        starting point's included; the backtracking makes it exceed the
        steps taken."""
        calls = []
        original = optimizers.allocation_lower_inverse

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(optimizers, "allocation_lower_inverse", counted)
        total_steps = 0
        for point in RB_SWEEP_POINTS:
            del calls[:]
            alloc = solve_relaxation(rb_sweep_problems[point])
            assert alloc.evaluations == len(calls) >= alloc.iterations + 1, point
            total_steps += alloc.iterations
        del calls[:]
        monkeypatch.setattr(optimizers, "RELAX_MAX_ITERS", 3)
        with pytest.warns(UserWarning, match="relaxation"):
            alloc = solve_relaxation(rb_sweep_problems[RB_SWEEP_POINTS[0]])
        assert alloc.evaluations == len(calls) > 3

    def test_iteration_cap_warning_quotes_its_counts(self, problem_rb, monkeypatch):
        monkeypatch.setattr(optimizers, "GAP_TOL", 1e-14)
        monkeypatch.setattr(optimizers, "RELAX_MAX_ITERS", 2)
        with pytest.warns(UserWarning, match=r"relaxation stopped after 2 iterations at gap"):
            alloc = solve_relaxation(problem_rb)
        assert alloc.iterations == 2
        assert alloc.gap > 1e-14

    @pytest.mark.filterwarnings("ignore:power_fraction")
    @pytest.mark.parametrize("rms_fraction", [0.25000000000000316, 0.2500000000000034])
    def test_a_face_step_that_leaves_the_objective_unchanged_is_refused(self, rms_fraction):
        """12x14, spreading 5e-3, K = 50, 20 dB, with ``rms_fraction`` one or
        a few bits above 0.25: once the Newton step is short enough, the
        Armijo bound rounds to the objective itself.  Accepting a step that
        does not lower it kept the face phase on a 17-weight face with the
        objective bit-equal for 4967 steps, until the 5000-step cap."""
        spec = ScatteringSpec(spreading_factor=5e-3, rms_fraction=rms_fraction)
        problem = make_design_problem(
            build_statistics(GridConfig(12, 14), spec), K=50, snr_db=20.0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc = solve_relaxation(problem)
        assert alloc.converged and alloc.gap <= optimizers.GAP_TOL
        assert alloc.iterations < 200


@contextlib.contextmanager
def lines_run(function, marker):
    """Yield a list that, when the block ends, holds how often each line of
    ``function`` containing ``marker`` ran inside it, in source order."""
    lines, start = inspect.getsourcelines(function)
    targets = [start + i for i, line in enumerate(lines) if marker in line]
    assert targets, marker
    hits = dict.fromkeys(targets, 0)

    def count(frame, event, arg):
        if event == "line" and frame.f_lineno in hits:
            hits[frame.f_lineno] += 1
        return count

    counts = []
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code is function.__code__ else None)
    try:
        yield counts
    finally:
        sys.settrace(previous)
        counts.extend(hits[line] for line in targets)


def assert_forced_run(problem, forced, unforced, converged=True):
    """A run forced down a fallback path converges (or stops unconverged
    where that is its documented end), keeps its weights on the budget and
    reaches the unforced run's objective to 1e-7 relative."""
    assert forced.converged is converged and unforced.converged
    assert abs(forced.weights.sum() - problem.budget) <= 1e-12 * problem.budget
    got, want = objective_value(problem, forced), objective_value(problem, unforced)
    assert abs(got - want) <= 1e-7 * want


class TestFreshInterpreter:
    def test_relaxation_and_greedy_leave_numpy_ma_unloaded(self):
        """``numpy.ma`` costs 10-16 ms and 1.3 MB on first import: a design
        point that runs the relaxation to a solved face, which releases its
        KKT violators, and greedy selection never loads it."""
        script = (
            "import json, sys\n"
            "from pilotopt import GridConfig, ScatteringSpec, build_statistics\n"
            "from pilotopt import greedy_design, make_design_problem, solve_relaxation\n"
            "stats = build_statistics(GridConfig(12, 14), ScatteringSpec(spreading_factor=5e-3))\n"
            "problem = make_design_problem(stats, K=14, snr_db=20.0)\n"
            "alloc = solve_relaxation(problem)\n"
            "greedy_design(problem)\n"
            "print(json.dumps([alloc.converged, alloc.face_steps, 'numpy.ma' in sys.modules]))\n"
        )
        src = str(Path(optimizers.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        converged, face_steps, loaded = json.loads(proc.stdout)
        assert converged and face_steps > 0
        assert not loaded


class TestRelaxationFallbacks:
    """Each path by which the face phase hands back to SPG2, or SPG2 stops
    short, forced on a problem where it is otherwise not taken, or run on
    one found to take it.  The 12x14 problems are rb-sweep points at
    density 0.05 (K = 8), except where a test names its own."""

    def test_a_failed_newton_trial_hands_back_to_spg2(self):
        # 12x14 at spreading 5e-3, K = 30, 20 dB, found by searching K at the
        # rb-sweep spreadings: one of its Newton steps fails its one trial,
        # and the face phase hands back to SPG2 exactly once.
        stats = build_statistics(GridConfig(12, 14), ScatteringSpec(spreading_factor=5e-3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # K > N exceeds the block power budget
            problem = make_design_problem(stats, K=30, snr_db=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with lines_run(optimizers._face_line_search, "return None, None, None, 1") as failed:
                alloc = solve_relaxation(problem)
        assert failed == [1] and alloc.face_fallbacks == 1
        assert alloc.converged and alloc.gap <= optimizers.GAP_TOL

    def test_an_early_switch_drops_weights_leaving_the_box(self, monkeypatch):
        # 12x14 at spreading 1e-2, K = 9, 20 dB, found by searching K at the
        # rb-sweep spreadings: switching after one step, a solved face
        # releases a violator whose Newton direction points out of the box.
        stats = build_statistics(GridConfig(12, 14), ScatteringSpec(spreading_factor=1e-2))
        problem = make_design_problem(stats, K=9, snr_db=20.0)
        unforced = solve_relaxation(problem)
        monkeypatch.setattr(optimizers, "FACE_SWITCH", 1)
        with lines_run(optimizers._face_direction, "face, H = face[keep]") as dropped:
            forced = solve_relaxation(problem)
        assert len(dropped) == 1 and dropped[0] > 0 and forced.face_fallbacks > 0
        assert_forced_run(problem, forced, unforced)

    def test_an_early_switch_hands_back_at_48x28(self, problem_big, monkeypatch):
        unforced = solve_relaxation(problem_big)
        monkeypatch.setattr(optimizers, "FACE_SWITCH", 1)
        forced = solve_relaxation(problem_big)
        assert forced.face_fallbacks > 0
        assert_forced_run(problem_big, forced, unforced)

    def test_an_ascent_direction_hands_back_to_spg2(self, rb_sweep_problems, monkeypatch):
        # The negated face Hessian turns every Newton direction uphill.
        problem = rb_sweep_problems[(0.01, 0.05)]
        unforced = solve_relaxation(problem)
        hessian = optimizers._face_hessian
        monkeypatch.setattr(optimizers, "_face_hessian", lambda *args: -hessian(*args))
        with lines_run(optimizers._face_line_search, "return None, None, None, 0") as refused:
            forced = solve_relaxation(problem)
        assert forced.face_steps == 0
        assert refused == [forced.face_fallbacks] and refused[0] > 0
        assert_forced_run(problem, forced, unforced)

    @pytest.mark.parametrize("point", ["12x14", "4x4"])
    def test_runs_past_the_optimum_keep_the_budget(
        self, rb_sweep_problems, point, monkeypatch, budget_misses
    ):
        """Past machine precision the BB step reaches the top of its range,
        and the run ends with the cap's warning and a valid allocation:
        every trial it evaluates holds ``sum w = K`` to 1e-12 relative, and
        its gap is not negative beyond rounding.  The points are the
        rb-sweep's 12x14 at spreading 5e-3, K = 17, 20 dB, and 4x4 at
        spreading 9e-2, K = 4, 10 dB.  A gap tolerance of 0 does not take
        the run there: at the optimum the computed gap rounds to 0 or below,
        which certifies it.  A negative tolerance is met by no gap."""
        if point == "12x14":
            problem = rb_sweep_problems[(0.005, 0.1)]
        else:
            stats = build_statistics(GridConfig(4, 4), ScatteringSpec(spreading_factor=0.09))
            problem = make_design_problem(stats, K=4, snr_db=10.0)
        unforced = solve_relaxation(problem)
        monkeypatch.setattr(optimizers, "GAP_TOL", -1.0)
        monkeypatch.setattr(optimizers, "RELAX_MAX_ITERS", 500)
        del budget_misses[:]
        with pytest.warns(UserWarning, match="relaxation stopped after 500 iterations"):
            forced = solve_relaxation(problem)
        assert not forced.converged
        assert max(budget_misses) <= 1e-12
        assert forced.gap >= -1e-12
        assert 0.0 <= forced.weights.min() and forced.weights.max() <= 1.0
        got, want = objective_value(problem, forced), objective_value(problem, unforced)
        assert abs(got - want) <= 1e-9 * want

    def test_spg2_stops_at_an_exact_fixed_point(self, monkeypatch):
        # A rank-1 problem's relaxed optimum is the vertex on its K largest
        # rows, which the projection reproduces exactly.  A tolerance no
        # gap meets leaves SPG2 to stop there with a zero direction.
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(9, 1)) + 1j * rng.normal(size=(9, 1))
        problem = DesignProblem(
            grid=GridConfig(3, 3), rows=rows, prior=np.array([2.0]), budget=2,
            power_fraction=1.0, noise_var=0.5,
        )
        unforced = solve_relaxation(problem)
        monkeypatch.setattr(optimizers, "GAP_TOL", -1.0)
        with pytest.warns(UserWarning, match="relaxation stopped"):
            with lines_run(solve_relaxation, "no feasible decrease") as stops:
                forced = solve_relaxation(problem)
        assert stops == [1, 0]
        assert np.array_equal(forced.weights, unforced.weights)
        assert_forced_run(problem, forced, unforced, converged=False)

    def test_spg2_stops_when_no_trial_is_accepted(self, problem_4x4, monkeypatch):
        # From the unforced run's last evaluation on, every trial's
        # objective reads double, so its last step is refused 60 times.
        unforced = solve_relaxation(problem_4x4)
        calls, lower_inverse = [], optimizers.allocation_lower_inverse

        def inflated(*args):
            calls.append(None)
            lower = lower_inverse(*args)
            return 2.0 * lower if len(calls) >= unforced.evaluations else lower

        monkeypatch.setattr(optimizers, "allocation_lower_inverse", inflated)
        with pytest.warns(UserWarning, match="relaxation stopped"):
            with lines_run(solve_relaxation, "no feasible decrease") as stops:
                forced = solve_relaxation(problem_4x4)
        assert stops == [0, 1]
        assert forced.evaluations == unforced.evaluations + 59
        assert_forced_run(problem_4x4, forced, unforced, converged=False)


class TestDependentRounding:
    def test_binary_input_unchanged_no_randomness(self):
        w = FractionalAllocation(np.array([1.0, 0.0, 1.0, 0.0]), budget=2)
        a = dependent_rounding(w, rng_seed=0, grid=GridConfig(4, 1))
        b = dependent_rounding(w, rng_seed=999, grid=GridConfig(4, 1))
        assert a.indices == b.indices == (0, 2)

    def test_two_cell_probability_rule(self):
        w = FractionalAllocation(np.array([0.5, 0.5]), budget=1)
        grid = GridConfig(2, 1)
        hits = sum(
            dependent_rounding(w, rng_seed=seed, grid=grid).indices == (0,)
            for seed in range(100_000)
        )
        assert abs(hits / 100_000 - 0.5) <= 0.005

    def test_three_cell_marginals(self):
        target = np.array([0.3, 0.3, 0.4])
        w = FractionalAllocation(target, budget=1)
        counts = np.zeros(3)
        trials = 100_000
        for seed in range(trials):
            counts[list(dependent_rounding(w, rng_seed=seed, grid=GridConfig(3, 1)).indices)] += 1
        freq = counts / trials
        se = np.sqrt(target * (1 - target) / trials)
        assert np.all(np.abs(freq - target) <= 3 * se)

    def test_budget_exact_and_deterministic(self):
        rng = np.random.default_rng(23)
        w = project_capped_simplex(rng.uniform(size=30), 11)
        alloc = FractionalAllocation(w, budget=11)
        p1 = dependent_rounding(alloc, rng_seed=5, grid=GridConfig(30, 1))
        p2 = dependent_rounding(alloc, rng_seed=5, grid=GridConfig(30, 1))
        assert len(p1) == 11
        assert p1.indices == p2.indices

    def test_allocation_with_fractional_budget_rejected(self):
        # A non-integer budget never reaches the rounding: the allocation refuses it.
        with pytest.raises(InvalidSpecError, match="^allocation budget must be an integer, got 2.5$"):
            FractionalAllocation(np.array([1.0, 1.0, 0.5]), budget=2.5)

    def test_allocation_length_checked_against_grid(self):
        alloc = FractionalAllocation(np.array([0.5, 0.5]), budget=1)
        with pytest.raises(InfeasibleAllocationError, match="does not match the grid"):
            dependent_rounding(alloc, rng_seed=0, grid=GridConfig(3, 1))

    @pytest.mark.parametrize("case", ROUNDING_CASES)
    def test_matches_list_rebuild_reference(self, case):
        alloc, grid = rounding_case(case)
        if case == "12x14-K17":
            # Fractional weights above 0.5 must not count as fixed ones.
            assert any(x > 0.5 for x in alloc.plan.values)
        for seed in range(2000):
            pattern = dependent_rounding(alloc, rng_seed=seed, grid=grid)
            assert pattern.indices == list_rebuild_rounding(alloc.weights, seed), seed

    def test_matches_reference_scan_on_rb_sweep(self, rb_sweep_problems):
        assert_rounds_as_reference_scan(
            [(solve_relaxation(problem), problem.grid) for problem in rb_sweep_problems.values()]
        )

    def test_matches_reference_scan_at_48x28(self, problem_big):
        assert_rounds_as_reference_scan([(solve_relaxation(problem_big), problem_big.grid)])

    def test_matches_reference_scan_on_edge_cases(self):
        cases = edge_rounding_cases()
        assert_rounds_as_reference_scan(cases)
        outcomes = [rounding_outcome(dependent_rounding, a, 0, grid) for a, grid in cases[-5:]]
        assert outcomes == [
            "allocation length does not match the grid",
            (0,),
            "rounding produced 4 pilots, expected 3",
            "rounding produced 4 pilots, expected 5",
            "rounding produced 2 pilots, expected 1",
        ]

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        values=st.lists(st.floats(-2.0, 3.0), min_size=2, max_size=40),
        budget_fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_projection_rounds_to_budget_as_reference(self, values, budget_fraction, seed):
        v = np.array(values)
        K = min(max(round(budget_fraction * v.size), 1), v.size)
        w = project_capped_simplex(v, K)
        assert w.min() >= 0.0 and w.max() <= 1.0
        assert abs(w.sum() - K) <= 1e-9
        assert np.abs(w - exact_capped_simplex_projection(v, K)).max() < 1e-9
        pattern = dependent_rounding(FractionalAllocation(w, K), seed, GridConfig(v.size, 1))
        assert len(pattern) == K
        assert pattern.indices == list_rebuild_rounding(w, seed)


class TestGreedy:
    def test_rank_one_picks_largest_row(self):
        rng = np.random.default_rng(8)
        grid = GridConfig(3, 3)
        u = rng.normal(size=(9, 1)) + 1j * rng.normal(size=(9, 1))
        pr = DesignProblem(
            grid=grid,
            rows=u,
            prior=np.array([2.0]),
            budget=1,
            power_fraction=1.0,
            noise_var=0.5,
        )
        report = greedy_design(pr)
        assert report.pattern.indices == (int(np.argmax(np.abs(u[:, 0]) ** 2)),)

    @pytest.mark.parametrize("K", [2, 3])
    def test_within_five_percent_of_exhaustive(self, stats_4x4, K):
        from pilotopt import make_design_problem

        pr = make_design_problem(stats_4x4, K=K, snr_db=10.0)
        greedy = greedy_design(pr)
        optimum = exhaustive_search(pr).objective
        assert optimum <= greedy.objective <= 1.05 * optimum

    def test_objective_monotone_during_selection(self, problem_rb):
        A_inv = np.diag(problem_rb.prior).astype(np.complex128)
        last = np.trace(A_inv).real
        for j in (0, 20, 41, 90, 150):
            gain = reference_marginal_gain(problem_rb, A_inv, j)
            assert gain >= 0
            A_inv = rank_one_update(problem_rb, A_inv, j)
            assert np.trace(A_inv).real <= last + 1e-12
            last = np.trace(A_inv).real

    def test_budget_and_report_fields(self, problem_rb):
        report = greedy_design(problem_rb)
        assert len(report.pattern) == report.budget_used == problem_rb.budget
        assert report.swap_iterations == 0
        assert report.objective <= report.initial_objective

    @pytest.mark.filterwarnings("ignore:power_fraction")
    @pytest.mark.parametrize("spreading, K", [(5e-3, 17), (1e-2, 17), (1e-4, 17)])
    def test_ties_go_to_the_lowest_index(self, spreading, K):
        """Each step adds the lowest index whose gain, from the per-row
        ``reference_marginal_gain``, is within the band of the largest.  These
        points meet ulp-split ties that an argmax over the vectorized gains
        resolves otherwise."""
        stats = build_statistics(GridConfig(12, 14), ScatteringSpec(spreading_factor=spreading))
        problem = make_design_problem(stats, K=K, snr_db=20.0)
        A_inv = np.diag(problem.prior).astype(np.complex128)
        selected = set()
        for _ in range(K):
            gains = {
                j: reference_marginal_gain(problem, A_inv, j)
                for j in range(problem.grid.size)
                if j not in selected
            }
            top = max(gains.values())
            band = TIE_BAND * float(np.trace(A_inv).real)
            j = min(j for j, gain in gains.items() if gain >= top - band)
            A_inv = rank_one_update(problem, A_inv, j)
            selected.add(j)
        assert greedy_design(problem).pattern.indices == tuple(sorted(selected))

    def test_reports_the_objective_of_its_pattern(self, rb_sweep_problems):
        """The reported objective is the pattern's own trace, bit for bit,
        and the greedy-swap start is the swap run's start."""
        for point, problem in rb_sweep_problems.items():
            report = greedy_design(problem)
            assert report.objective == objective_value(problem, report.pattern), point
        problem = rb_sweep_problems[(0.01, 0.1)]
        start = local_swap(problem, greedy_design(problem).pattern).initial_objective
        assert greedy_swap_design(problem).initial_objective == start

    def test_greedy_swap_is_the_swap_run_from_greedy(self, rb_sweep_problems):
        """``greedy_swap_design`` returns the ``local_swap`` report of the
        greedy pattern as it is."""
        for point, problem in rb_sweep_problems.items():
            alone = local_swap(problem, greedy_design(problem).pattern)
            assert_same_report(greedy_swap_design(problem), alone, point)

    def test_factors_the_empty_pattern_once(self, problem_rb, monkeypatch):
        """The initial objective is the empty pattern's, read from the
        first rebuild instead of a second factorization."""
        empty = pattern_objective(problem_rb, np.array([], dtype=np.intp))
        sizes, information = [], objective._pattern_information

        def counted(problem, idx):
            sizes.append(idx.size)
            return information(problem, idx)

        monkeypatch.setattr(objective, "_pattern_information", counted)
        report = greedy_design(problem_rb)
        assert sizes.count(0) == 1
        assert report.initial_objective == empty

    def test_picks_the_reference_greedys_picks_on_rb_sweep(self, rb_sweep_problems):
        for point, problem in rb_sweep_problems.items():
            want = tuple(sorted(reference_greedy(problem)))
            assert greedy_design(problem).pattern.indices == want, point

    @pytest.mark.filterwarnings("ignore:power_fraction")
    @pytest.mark.parametrize(
        "stats, K, snr_db",
        [("stats_big", 134, 10.0), ("stats_big", 134, 20.0), ("stats_big_full", 134, 20.0)]
        + [("stats_rb", K, snr_db) for K in (30, 50) for snr_db in (80.0, 100.0, 120.0)],
    )
    def test_picks_the_reference_greedys_picks(self, request, stats, K, snr_db):
        """On 48x28, at r = 28 and at eta = 1 (r = 82), and, far above 40 dB,
        on 12x14, where the gains span many orders of magnitude: terms
        carried as scalar recurrences lose the small ones there, while
        carrying ``Y`` and rebuilding it every r picks keeps the picks."""
        problem = make_design_problem(request.getfixturevalue(stats), K=K, snr_db=snr_db)
        want = tuple(sorted(reference_greedy(problem)))
        assert greedy_design(problem).pattern.indices == want

    def test_carried_terms_match_reinversion_at_48x28(self, problem_big, monkeypatch):
        """Every r picks, the first included, greedy rebuilds its row terms
        from ``pattern_inverse`` of its picks so far, bit for bit, and the
        terms carried from the last rebuild through the remaining picks, 22
        of them (K = 134, r = 28), are those of the reinverted ``A^{-1}`` to
        1e-9 relative."""
        rebuilt = []

        def recorded(A_inv, rows):
            terms = _row_terms(A_inv, rows)
            rebuilt.append((A_inv, [term.copy() for term in terms]))  # add_row overwrites
            return terms

        monkeypatch.setattr(optimizers, "_row_terms", recorded)
        picks = reference_greedy(problem_big)
        assert greedy_design(problem_big).pattern.indices == tuple(sorted(picks))
        r, K = problem_big.rank, problem_big.budget
        assert K % r == 22 and len(rebuilt) == 1 + K // r
        for size, (A_inv, terms) in zip(range(0, K, r), rebuilt):
            reinverted = pattern_inverse(problem_big, np.array(sorted(picks[:size]), dtype=np.intp))
            assert np.array_equal(A_inv, reinverted), size
            for got, want in zip(terms, _row_terms(reinverted, problem_big.rows)):
                assert np.array_equal(got, want), size
        Y, quad, _ = rebuilt[-1][1]
        for j in picks[K - K % r :]:
            Y, quad, norm2 = add_row(problem_big, Y, quad, j)
        A_ref = pattern_inverse(problem_big, np.array(sorted(picks), dtype=np.intp))
        Y_ref, quad_ref, norm2_ref = _row_terms(A_ref, problem_big.rows)
        assert np.abs(Y - Y_ref).max() <= 1e-9 * np.abs(Y_ref).max()
        np.testing.assert_allclose(quad, quad_ref, rtol=1e-9, atol=0)
        np.testing.assert_allclose(norm2, norm2_ref, rtol=1e-9, atol=0)

    def test_no_optimizer_updates_by_sherman_morrison(self, problem_rb, monkeypatch):
        """Greedy, greedy-swap, cr-round-swap, the two lattices and
        criterion 2 run with ``rank_one_update`` refusing every call: each
        ``A^{-1}`` they read comes from the Cholesky kernel."""

        def refused(*args):
            raise AssertionError("rank_one_update called")

        for module in (objective, optimizers, validation):
            monkeypatch.setattr(module, "rank_one_update", refused, raising=False)
        allocation = solve_relaxation(problem_rb)
        for method in ("greedy", "greedy-swap", "cr-round-swap", "rect", "diamond"):
            RUNNERS[method](problem_rb, lambda: allocation, 0, 3)
        assert validation.check_incremental_updates().passed


class TestLocalSwap:
    def test_optimal_init_unchanged(self, problem_4x4):
        optimum = exhaustive_search(problem_4x4)
        refined = local_swap(problem_4x4, optimum.pattern)
        assert refined.pattern.indices == optimum.pattern.indices
        assert refined.swap_iterations == 0

    def test_worst_init_reaches_below_median(self, problem_4x4):
        values = {}
        for subset in itertools.combinations(range(16), 3):
            values[subset] = objective_value(
                problem_4x4, PilotPattern(subset, problem_4x4.grid)
            )
        worst = max(values, key=values.get)
        refined = local_swap(problem_4x4, PilotPattern(worst, problem_4x4.grid))
        assert refined.objective <= np.median(list(values.values()))
        assert refined.objective <= values[worst]

    def test_never_degrades_greedy(self, problem_rb):
        greedy = greedy_design(problem_rb)
        refined = local_swap(problem_rb, greedy.pattern)
        assert refined.objective <= greedy.objective + 1e-12
        assert refined.initial_objective == pytest.approx(greedy.objective, rel=1e-9)

    def test_deterministic(self, problem_rb):
        init = greedy_design(problem_rb).pattern
        a = local_swap(problem_rb, init)
        b = local_swap(problem_rb, init)
        assert a.pattern.indices == b.pattern.indices
        assert a.objective == b.objective

    def test_mirror_image_tie_keeps_lowest_index_swap(self):
        # The mirror-symmetric channel gives exactly tied swaps here, and
        # the lowest index within the band wins.  The pattern
        # (1, 22, 41, 72, 94, 113, 145, 153) ties with the result.
        stats = build_statistics(GridConfig(12, 14), ScatteringSpec(spreading_factor=0.01))
        problem = make_design_problem(stats, K=8, snr_db=20.0)
        report = greedy_swap_design(problem)
        assert report.pattern.indices == (14, 22, 54, 73, 95, 126, 145, 166)
        assert report.swap_iterations == 15
        assert report.objective == objective_value(problem, report.pattern)
        tied = PilotPattern((1, 22, 41, 72, 94, 113, 145, 153), problem.grid)
        assert report.objective == pytest.approx(objective_value(problem, tied), rel=2e-15, abs=0)

    @pytest.mark.filterwarnings("ignore:power_fraction")
    def test_every_accepted_swap_improves_by_more_than_the_tolerance(self):
        """Along every recorded chain, each successor's from-scratch objective
        is below its predecessor's by more than ``SWAP_TOLERANCE`` of it: a
        tie in the band never accepts a zero-gain swap."""
        grid = GridConfig(12, 14)
        accepted = 0
        for spreading in (1e-4, 1e-3, 5e-3, 1e-2):
            stats = build_statistics(grid, ScatteringSpec(spreading_factor=spreading))
            for K in (8, 17, 50):
                problem = make_design_problem(stats, K=K, snr_db=20.0)
                allocation = solve_relaxation(problem)
                starts = [greedy_design(problem).pattern] + [
                    dependent_rounding(allocation, seed, grid=grid) for seed in range(5)
                ]
                visited = {}
                for init in starts:
                    local_swap(problem, init, visited=visited)
                for indices, (value, successor, _) in visited.items():
                    before = objective_value(problem, PilotPattern(indices, grid))
                    assert value == before
                    if successor is not None:
                        after = objective_value(problem, PilotPattern(successor, grid))
                        assert after < before - SWAP_TOLERANCE * before, (spreading, K, indices)
                        accepted += 1
        assert accepted > 0

    def test_tied_swaps_go_to_the_lowest_index_pair(self):
        """On every screened state of 12x14, spreading 1e-4, K = 13, the
        screen returns the lowest (i, j) within the band of per-pair
        ``reference_swap_delta`` values.  On some of them the band holds ulp-split
        ties whose smallest screened delta is not the lowest pair."""
        grid = GridConfig(12, 14)
        stats = build_statistics(grid, ScatteringSpec(spreading_factor=1e-4))
        problem = make_design_problem(stats, K=13, snr_db=20.0)
        allocation = solve_relaxation(problem)
        visited = {}
        for init in [greedy_design(problem).pattern] + [
            dependent_rounding(allocation, seed, grid=grid) for seed in range(5)
        ]:
            local_swap(problem, init, visited=visited)
        split = 0
        for indices in visited:
            selected = np.array(indices, dtype=np.intp)
            A_inv = pattern_inverse(problem, selected)
            pair = lowest_pair_within_band(problem, A_inv, indices)
            trace = float(np.trace(A_inv).real)
            screened, _ = optimizers._best_swap(problem, A_inv, selected, trace)
            assert screened == pair, indices
            deltas = swap_deltas(problem, A_inv, selected)
            a, j = np.unravel_index(np.argmin(deltas), deltas.shape)
            split += pair is not None and pair != (selected[a], j)
        assert split > 0

    def test_rule_on_given_deltas(self, problem_rb, monkeypatch):
        """The rule read off given screens: rows are selected 10 and 11, and
        the given columns are cells 20, 21 and 22 of a K x P screen."""
        A_inv = pattern_inverse(problem_rb, np.array([10, 11], dtype=np.intp))
        trace = float(np.trace(A_inv).real)
        band, tol = TIE_BAND * trace, SWAP_TOLERANCE * trace
        assert band > 2 * tol
        selected = np.array([10, 11])

        def pick(rows, objective=trace):
            deltas = given_screen(rows, selected, problem_rb.grid.size)
            monkeypatch.setattr(optimizers, "swap_deltas", lambda *args: deltas)
            return optimizers._best_swap(problem_rb, A_inv, selected, objective)[0]

        # Row 11 holds the best delta and row 10 a tie in the band: the lowest
        # row wins, then the lowest column of it within the band.
        assert pick([[0.0, -1.0 + 0.5 * band, -1.0 + 0.25 * band], [-1.0, 0.0, 0.0]]) == (10, 21)
        # A zero-gain swap in the band of a best that improves by twice the
        # tolerance is not taken: the band's top is clamped to -tol.
        assert pick([[0.0, 0.0, 0.0], [0.0, -2.0 * tol, 0.0]]) == (11, 21)
        # No swap improves by more than the tolerance.
        assert pick([[0.0, -tol, 0.0], [0.0, -0.5 * tol, 0.0]]) is None
        # The tolerance is relative: at an objective of 1e-6, as at a high
        # pilot SNR, an improvement of 5e-11 is 5e-5 of it and is taken.
        assert pick([[0.0, -5e-11, 0.0], [0.0, 0.0, 0.0]], objective=1e-6) == (10, 21)

    def test_clear_rule_on_given_deltas(self, problem_rb, monkeypatch):
        """A decision is clear when it holds with every delta and the
        objective moved by the slack; rows are selected 10 and 11, and the
        given columns are cells 20, 21 and 22 of a K x P screen."""
        A_inv = pattern_inverse(problem_rb, np.array([10, 11], dtype=np.intp))
        trace = float(np.trace(A_inv).real)
        band, tol, slack = TIE_BAND * trace, SWAP_TOLERANCE * trace, REFLECT_SLACK * trace
        assert band > 10 * slack and tol > slack
        selected = np.array([10, 11])

        def decide(rows):
            deltas = given_screen(rows, selected, problem_rb.grid.size)
            monkeypatch.setattr(optimizers, "swap_deltas", lambda *args: deltas)
            return optimizers._best_swap(problem_rb, A_inv, selected, trace)

        # A lone best far from the band's top and from the tolerance.
        assert decide([[0.0, 0.0, 0.0], [0.0, -1.0, 0.0]]) == ((11, 21), True)
        # A tie in the band is never clear, in another row or the same one.
        assert decide([[-1.0 + 0.5 * band, 0.0, 0.0], [-1.0, 0.0, 0.0]]) == ((10, 20), False)
        assert decide([[0.0, 0.0, 0.0], [-1.0, -1.0 + 0.5 * band, 0.0]]) == ((11, 20), False)
        # Just above the band: clear only beyond (2 + TIE_BAND) slack of its top.
        top = -1.0 + band
        assert decide([[top + 1.5 * slack, 0.0, 0.0], [-1.0, 0.0, 0.0]]) == ((11, 20), False)
        assert decide([[top + 3.0 * slack, 0.0, 0.0], [-1.0, 0.0, 0.0]]) == ((11, 20), True)
        # A best within the slack of the tolerance may flip to None, and back.
        assert decide([[1.0, -tol - 0.5 * slack, 1.0], [1.0, 1.0, 1.0]]) == ((10, 21), False)
        assert decide([[1.0, -tol - 2.0 * slack, 1.0], [1.0, 1.0, 1.0]]) == ((10, 21), True)
        assert decide([[1.0, -tol + 0.5 * slack, 1.0], [1.0, 1.0, 1.0]]) == (None, False)
        assert decide([[1.0, -tol + 2.0 * slack, 1.0], [1.0, 1.0, 1.0]]) == (None, True)
        # The band's top is clamped to -tol, and the reach is measured from it.
        assert decide([[1.0, -tol - 2.0 * slack, 1.0], [1.0, 1.0, -tol + slack]]) == ((10, 21), False)

    def test_pass_cap_with_improving_swap_left_warns(self, problem_rb):
        poor = PilotPattern(tuple(range(problem_rb.budget)), problem_rb.grid)
        with pytest.warns(UserWarning, match="max_passes=1"):
            capped = local_swap(problem_rb, poor, max_passes=1)
        assert capped.swap_iterations == 1

    def test_each_distinct_cap_hit_prints(self, problem_rb):
        """Two runs the cap stops at different patterns each warn under
        Python's default filter, which prints a message once per call site:
        the message names K and the objective it stopped at."""
        K = problem_rb.budget
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for start in (range(K), range(1, K + 1)):
                capped = local_swap(problem_rb, PilotPattern(start, problem_rb.grid), max_passes=1)
                assert f"K = {K}, objective {capped.objective:.12g})" in str(caught[-1].message)
        assert len(caught) == 2

    def test_run_converging_at_the_cap_does_not_warn(self, problem_rb):
        init = greedy_design(problem_rb).pattern
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = local_swap(problem_rb, init)
            capped = local_swap(problem_rb, init, max_passes=report.swap_iterations)
        assert report.swap_iterations > 0
        assert capped.pattern.indices == report.pattern.indices


def given_screen(rows, selected, P):
    """A K x P screen holding ``rows`` at cells 20, 21 and 22, ``+inf`` on
    the ``selected`` columns, as ``swap_deltas`` does, and 1.0, a swap that
    does not improve, on every other cell."""
    deltas = np.ones((len(selected), P))
    deltas[:, selected] = np.inf
    deltas[:, 20:23] = rows
    return deltas


def tied_roundings_problem():
    """12x14, spreading 1e-3, K = 14: 50 roundings with duplicates, merging
    chains and exactly tied optima."""
    stats = build_statistics(GridConfig(12, 14), ScatteringSpec(spreading_factor=1e-3))
    problem = make_design_problem(stats, K=14, snr_db=20.0)
    return problem, [derive_rounding_seed(0, i) for i in range(50)]


def counting_best_swap(monkeypatch, clear=None):
    """Patch ``_best_swap`` to record the selection of every screened state,
    and in the list ``clear``, if given, whether its decision was clear."""
    screened = []
    original = optimizers._best_swap

    def counted(problem, A_inv, selected, objective):
        screened.append(tuple(selected))
        result = original(problem, A_inv, selected, objective)
        if clear is not None:
            clear.append(result[1])
        return result

    monkeypatch.setattr(optimizers, "_best_swap", counted)
    return screened


def sharing_swap_maps(monkeypatch):
    """Patch ``local_swap`` to record the visited map each call is given."""
    maps = []
    original = optimizers.local_swap

    def spied(problem, init, max_passes=100, visited=None):
        maps.append(visited)
        return original(problem, init, max_passes, visited)

    monkeypatch.setattr(optimizers, "local_swap", spied)
    return maps


def mirror_images(grid, indices):
    """The patterns of ``indices`` reflected in m, in n and in both."""
    return {
        tuple(sorted(reflection(grid, axis)[list(indices)].tolist()))
        for axis in ("m", "n", "both")
    }


def reflected_starts(pattern):
    """``pattern`` reflected in m, in n and in both, as patterns."""
    grid = pattern.grid
    return [
        PilotPattern(tuple(reflection(grid, axis)[list(pattern.indices)].tolist()), grid)
        for axis in ("m", "n", "both")
    ]


def assert_same_report(shared, alone, label=None):
    assert shared.pattern.indices == alone.pattern.indices, label
    assert shared.objective == alone.objective, label
    assert shared.initial_objective == alone.initial_objective, label
    assert shared.swap_iterations == alone.swap_iterations, label


class TestSwapMemo:
    @pytest.mark.filterwarnings("ignore:power_fraction")
    def test_shared_map_matches_unshared_runs(self, monkeypatch):
        grid = GridConfig(12, 14)
        screened = counting_best_swap(monkeypatch)
        saved = 0
        for spreading in (1e-4, 1e-3, 5e-3, 1e-2):
            stats = build_statistics(grid, ScatteringSpec(spreading_factor=spreading))
            for K in (8, 17, 50):
                problem = make_design_problem(stats, K=K, snr_db=20.0)
                allocation = solve_relaxation(problem)
                seeds = range(10)
                del screened[:]
                _, rounds = relax_round_swap_design(problem, seeds, allocation=allocation)
                reports = [report for report, _ in rounds]
                shared_screens = len(screened)
                del screened[:]
                for seed, report in zip(seeds, reports):
                    init = dependent_rounding(allocation, seed, grid=grid)
                    alone = local_swap(problem, init)
                    assert report.pattern.indices == alone.pattern.indices
                    assert report.objective == alone.objective
                    assert report.initial_objective == alone.initial_objective
                    assert report.swap_iterations == alone.swap_iterations
                assert shared_screens <= len(screened)
                saved += len(screened) - shared_screens
        assert saved > 0  # the grid reaches recorded states

    def test_each_recorded_pattern_is_screened_once(self, monkeypatch):
        """Every recorded pattern is screened once, or is reused from a
        screened reflection whose decision was clear, and no orbit is
        screened again after a clear screen."""
        problem, seeds = tied_roundings_problem()
        allocation = solve_relaxation(problem)
        clear = []
        screened = counting_best_swap(monkeypatch, clear)
        maps = sharing_swap_maps(monkeypatch)
        _, rounds = relax_round_swap_design(problem, seeds, allocation=allocation)
        reports = [report for report, _ in rounds]
        assert len(screened) == len(set(screened))
        (visited,) = {id(m): m for m in maps}.values()
        decided = dict(zip(screened, clear))
        clear_screens = {state for state, c in decided.items() if c}
        reused = set(visited) - set(screened)
        assert set(screened) <= set(visited)
        for indices, (_, _, entry_clear) in visited.items():
            if indices in decided:
                assert entry_clear == decided[indices]
            else:
                assert not entry_clear
                assert mirror_images(problem.grid, indices) & clear_screens, indices
        for k, state in enumerate(screened):
            earlier = {s for s, c in zip(screened[:k], clear[:k]) if c}
            assert not mirror_images(problem.grid, state) & earlier, state
        roundings = {dependent_rounding(allocation, s, grid=problem.grid).indices for s in seeds}
        assert roundings | {r.pattern.indices for r in reports} <= set(visited)
        assert reused  # reflections of screened states were reached
        assert len(roundings) < len(seeds)  # duplicate roundings cost no screen
        assert len(screened) < sum(r.swap_iterations + 1 for r in reports)

    def test_mirror_tie_starts_match_unshared_runs(self, monkeypatch):
        """The greedy start of the mirror-tie instance of
        ``test_mirror_image_tie_keeps_lowest_index_swap`` and its three
        reflections, through one map, end as their unshared runs do; a
        state whose reflection was screened with a tie in the band is
        screened itself."""
        grid = GridConfig(12, 14)
        stats = build_statistics(grid, ScatteringSpec(spreading_factor=0.01))
        problem = make_design_problem(stats, K=8, snr_db=20.0)
        greedy = greedy_design(problem).pattern
        starts = [greedy] + reflected_starts(greedy)
        alone = [local_swap(problem, init) for init in starts]
        clear = []
        screened = counting_best_swap(monkeypatch, clear)
        visited = {}
        for init, unshared in zip(starts, alone):
            assert_same_report(local_swap(problem, init, visited=visited), unshared)
        assert len(screened) < len(visited)
        tie_screened = [
            state
            for k, state in enumerate(screened)
            if mirror_images(grid, state) & {s for s, c in zip(screened[:k], clear[:k]) if not c}
        ]
        assert tie_screened

    @pytest.mark.filterwarnings("ignore:power_fraction")
    def test_reflected_roundings_match_unshared_runs(self, monkeypatch):
        """Across the swap grid, at the default energy threshold and at 1,
        10 roundings and their reflections as starts through one map give the
        reports of unshared runs, bit for bit, and reuse states at both."""
        grid = GridConfig(12, 14)
        reused = dict.fromkeys((0.9999, 1.0), 0)
        for eta, spreading in itertools.product(reused, (1e-4, 1e-3, 5e-3, 1e-2)):
            spec = ScatteringSpec(spreading_factor=spreading, rank_energy_threshold=eta)
            stats = build_statistics(grid, spec)
            for K in (8, 17, 50):
                problem = make_design_problem(stats, K=K, snr_db=20.0)
                allocation = solve_relaxation(problem)
                roundings = [dependent_rounding(allocation, seed, grid=grid) for seed in range(10)]
                starts = [s for init in roundings for s in [init] + reflected_starts(init)]
                alone = [local_swap(problem, init) for init in starts]
                screened = counting_best_swap(monkeypatch)
                visited = {}
                for init, unshared in zip(starts, alone):
                    shared = local_swap(problem, init, visited=visited)
                    assert_same_report(shared, unshared, (eta, spreading, K, init.indices))
                monkeypatch.undo()
                reused[eta] += len(visited) - len(screened)
        assert min(reused.values()) > 0

    def test_asymmetric_problems_screen_every_state(self, problem_rb, monkeypatch):
        """A problem that no reflection leaves invariant reuses nothing: every
        distinct state reached from roundings and their reflections is
        screened."""
        for problem in (permuted_problem(problem_rb), random_rows_problem()):
            assert problem.reflections == ()
            allocation = solve_relaxation(problem)
            screened = counting_best_swap(monkeypatch)
            visited = {}
            for seed in range(5):
                init = dependent_rounding(allocation, seed, grid=problem.grid)
                for start in [init] + reflected_starts(init):
                    local_swap(problem, start, visited=visited)
            assert sorted(screened) == sorted(visited)
            monkeypatch.undo()

    def test_cap_inside_a_recorded_path_stops_and_warns_as_unshared(self, problem_rb):
        poor = PilotPattern(tuple(range(problem_rb.budget)), problem_rb.grid)
        visited = {}
        full = local_swap(problem_rb, poor, visited=visited)
        assert full.swap_iterations >= 4
        entry = PilotPattern(visited[poor.indices][1], problem_rb.grid)
        for init in (poor, entry):
            for cap in (1, 2):
                with pytest.warns(UserWarning, match=f"max_passes={cap}") as shared_warnings:
                    shared = local_swap(problem_rb, init, max_passes=cap, visited=visited)
                with pytest.warns(UserWarning, match=f"max_passes={cap}") as alone_warnings:
                    alone = local_swap(problem_rb, init, max_passes=cap)
                assert shared.pattern.indices == alone.pattern.indices
                assert shared.swap_iterations == alone.swap_iterations == cap
                assert [str(w.message) for w in shared_warnings] == [
                    str(w.message) for w in alone_warnings
                ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rest = local_swap(
                problem_rb, entry, max_passes=full.swap_iterations - 1, visited=visited
            )
        assert rest.pattern.indices == full.pattern.indices

    def test_objectives_are_evaluated_from_the_patterns(self, problem_rb):
        problem, seeds = tied_roundings_problem()
        allocation = solve_relaxation(problem)
        seeds = seeds[:10]
        _, rounds = relax_round_swap_design(problem, seeds, allocation=allocation)
        reports = [report for report, _ in rounds]
        for seed, report in zip(seeds, reports):
            init = dependent_rounding(allocation, seed, grid=problem.grid)
            assert report.objective == objective_value(problem, report.pattern)
            assert report.initial_objective == objective_value(problem, init)
        greedy = greedy_design(problem_rb)
        report = local_swap(problem_rb, greedy.pattern)
        assert report.swap_iterations > 0
        assert report.objective == objective_value(problem_rb, report.pattern)
        assert report.initial_objective == objective_value(problem_rb, greedy.pattern)


@functools.lru_cache(maxsize=None)
def mask_geometry(M, N, staggered):
    """``best_lattice``'s geometry on M x N from the per-axis masks of
    ``_spacing_offsets``: the (spacing, offset) arrays of both axes, the
    count of every (frequency pair, time pair) lattice as a product of mask
    sums, and a function from the positions of such a pair to the lattice's
    flat indices, ``flatnonzero(outer(even, rows) | outer(odd, shifted))``."""
    f_sp, f_off, rows, shifted, _, _ = _spacing_offsets(M)
    t_sp, t_off, _, _, even, odd = _spacing_offsets(N)
    if not staggered:
        shifted = rows
    count = np.outer(rows.sum(1), even.sum(1)) + np.outer(shifted.sum(1), odd.sum(1))

    def indices(a, b):
        mask = np.outer(even[b], rows[a]) | np.outer(odd[b], shifted[a])
        return tuple(np.flatnonzero(mask).tolist())

    return (f_sp, f_off), (t_sp, t_off), count, indices


def pair_position(spacing, offset):
    """Position of (spacing, offset) in ``_spacing_offsets``' order: the run
    of spacing s starts at s*(s-1)/2."""
    return spacing * (spacing - 1) // 2 + offset


def mask_lattice(grid, params, staggered):
    """``(count, indices)`` of the lattice ``params = (f_sp, t_sp, f_off,
    t_off)`` from ``mask_geometry``."""
    f_sp, t_sp, f_off, t_off = params
    _, _, count, indices = mask_geometry(grid.M, grid.N, staggered)
    a, b = pair_position(f_sp, f_off), pair_position(t_sp, t_off)
    return int(count[a, b]), indices(a, b)


class TestLatticePattern:
    def test_rect_6_7_on_rb_grid(self, grid_rb):
        masked = mask_lattice(grid_rb, (6, 7, 0, 0), False)[1]
        for indices in (reference_lattice(grid_rb, 6, 7), masked):
            assert {grid_rb.cell(k) for k in indices} == {(m, n) for m in (0, 6) for n in (0, 7)}
            assert len(indices) == 4

    def test_unit_spacing_selects_everything(self, grid_rb):
        everything = tuple(range(grid_rb.size))
        for staggered in (False, True):
            assert reference_lattice(grid_rb, 1, 1, staggered=staggered) == everything
            assert mask_lattice(grid_rb, (1, 1, 0, 0), staggered) == (grid_rb.size, everything)

    def test_diamond_golden_enumeration(self, grid_rb):
        assert reference_lattice(grid_rb, 4, 2, staggered=True) == DIAMOND_4_2_GOLDEN
        assert mask_lattice(grid_rb, (4, 2, 0, 0), True) == (
            len(DIAMOND_4_2_GOLDEN),
            DIAMOND_4_2_GOLDEN,
        )

    @pytest.mark.parametrize("M,N", [(12, 14), (7, 5), (48, 28)])
    def test_closed_form_count(self, M, N):
        """The masks' count, a product of mask sums, and their indices equal
        the column builder's for every (spacing, offset) pair of each axis,
        in both shapes.  Every frequency pair meets every time pair, except
        on 48x28 (477456 lattices), where each pair of the longer axis meets
        one of the other axis in turn, so every pair of both axes is met."""
        grid = GridConfig(M, N)
        f_pairs = [(sp, off) for sp in range(1, M + 1) for off in range(sp)]
        t_pairs = [(sp, off) for sp in range(1, N + 1) for off in range(sp)]
        for staggered in (False, True):
            f_axis, t_axis, _, _ = mask_geometry(M, N, staggered)
            assert list(zip(*f_axis)) == f_pairs
            assert list(zip(*t_axis)) == t_pairs
        if len(f_pairs) * len(t_pairs) <= 10_000:
            combos = itertools.product(f_pairs, t_pairs)
        else:
            n = max(len(f_pairs), len(t_pairs))
            combos = ((f_pairs[i % len(f_pairs)], t_pairs[i % len(t_pairs)]) for i in range(n))
        for (f_sp, f_off), (t_sp, t_off) in combos:
            for staggered in (False, True):
                params = (f_sp, t_sp, f_off, t_off)
                indices = reference_lattice(grid, *params, staggered=staggered)
                assert mask_lattice(grid, params, staggered) == (len(indices), indices), params

    def test_invalid_params(self, problem_rb):
        with pytest.raises(LatticeError, match="shape must be 'rect' or 'diamond', got 'hex'"):
            best_lattice(problem_rb, "hex")


def nested_loop_lattices(grid, staggered, counts):
    """The lattice enumeration as first written: four nested loops over the
    (spacing, offset) grid, each count from the scalar closed form, as
    ``((f_sp, t_sp, f_off, t_off), count)`` pairs."""
    out = []
    for f_sp in range(1, grid.M + 1):
        for t_sp in range(1, grid.N + 1):
            for f_off in range(f_sp):
                for t_off in range(t_sp):
                    rows = (grid.M - 1 - f_off) // f_sp + 1
                    cols = (grid.N - 1 - t_off) // t_sp + 1
                    count = rows * cols
                    if staggered:
                        shifted = max((grid.M - 1 - f_off - f_sp // 2) // f_sp + 1, 0)
                        count = rows * ((cols + 1) // 2) + shifted * (cols // 2)
                    if count in counts:
                        out.append(((f_sp, t_sp, f_off, t_off), count))
    return out


class TestLatticeEnumeration:
    @pytest.mark.parametrize("staggered", [False, True])
    @pytest.mark.parametrize(
        "M, N, budgets",
        [(4, 4, (1, 3, 4, 8, 16)), (12, 14, (4, 13, 14, 17, 50, 168)), (48, 28, (134,))],
    )
    def test_matches_nested_loops(self, M, N, budgets, staggered):
        """Over every lattice of the grid, the masks' counts put the same
        lattices in each budget's window [K-2, K] as the closed form, and
        those lattices have the column builder's indices."""
        grid = GridConfig(M, N)
        (f_sp, f_off), (t_sp, t_off), count, indices = mask_geometry(M, N, staggered)
        for K in budgets:
            counts = range(K - 2, K + 1)
            reference = nested_loop_lattices(grid, staggered, counts)
            f, t = np.nonzero(np.isin(count, counts))
            found = sorted(
                ((int(f_sp[a]), int(t_sp[b]), int(f_off[a]), int(t_off[b])), int(count[a, b]))
                for a, b in zip(f, t)
            )
            assert found == reference
            for (fs, ts, fo, to), _ in reference:
                a, b = pair_position(fs, fo), pair_position(ts, to)
                assert indices(a, b) == reference_lattice(grid, fs, ts, fo, to, staggered)


class TestBestLattice:
    def test_full_budget_unit_spacing(self, problem_rb):
        pr = dataclasses.replace(problem_rb, budget=168)
        report = best_lattice(pr, "rect")
        assert len(report.pattern) == 168
        assert report.budget_used == 168

    def test_k4_candidate_family(self, problem_rb, grid_rb):
        pr = dataclasses.replace(problem_rb, budget=4)
        report = best_lattice(pr, "rect")
        assert report.budget_used == 4
        manual = objective_value(pr, PilotPattern(reference_lattice(grid_rb, 6, 7), grid_rb))
        assert report.objective <= manual + 1e-12

    def test_infeasible_budget_raises(self, problem_rb):
        pr = dataclasses.replace(problem_rb, budget=167)
        with pytest.raises(NoFeasibleLatticeError):
            best_lattice(pr, "rect")

    @pytest.mark.parametrize("shape", ["rect", "diamond"])
    @pytest.mark.parametrize("K", [13, 17])
    def test_builds_only_the_lattices_it_scores(self, problem_rb, monkeypatch, shape, K):
        """``pattern_objective`` is called once per reference lattice of the
        count used, in (f_sp, t_sp, f_off, t_off) order, and on no other."""
        scored = []
        score = optimizers.pattern_objective

        def counted_score(problem, idx):
            scored.append(tuple(idx.tolist()))
            return score(problem, idx)

        monkeypatch.setattr(optimizers, "pattern_objective", counted_score)
        report = best_lattice(dataclasses.replace(problem_rb, budget=K), shape)
        lattices = reference_lattices(problem_rb.grid, shape == "diamond")
        assert scored == [idx for _, idx in lattices if len(idx) == report.budget_used]
        assert len(scored) > 0

    @pytest.mark.parametrize("shape", ["rect", "diamond"])
    def test_matches_a_brute_force_minimum_at_every_budget(self, problem_rb, shape):
        """On every K of 12x14, the report is the first reference lattice of
        the largest count in [K-2, K] within ``TIE_BAND`` of that count's
        lowest objective, with the same objective bits and ``budget_used``,
        and ``NoFeasibleLatticeError`` is raised exactly when no lattice
        count is in that window."""
        lattices = reference_lattices(problem_rb.grid, shape == "diamond")
        scored = {}
        for _, idx in lattices:
            sub_problem = dataclasses.replace(problem_rb, budget=len(idx))
            obj = pattern_objective(sub_problem, np.array(idx, dtype=np.intp))
            scored.setdefault(len(idx), []).append((obj, idx))
        best = {}
        for count, entries in scored.items():
            lowest = min(obj for obj, _ in entries)
            best[count] = next(e for e in entries if e[0] <= lowest * (1.0 + TIE_BAND))
        infeasible = 0
        for K in range(1, problem_rb.grid.size + 1):
            problem = dataclasses.replace(problem_rb, budget=K)
            used = max((c for c in best if K - 2 <= c <= K), default=None)
            if used is None:
                infeasible += 1
                with pytest.raises(NoFeasibleLatticeError):
                    best_lattice(problem, shape)
                continue
            report = best_lattice(problem, shape)
            assert (report.objective, report.pattern.indices) == best[used], K
            assert report.budget_used == used
        assert infeasible > 0

    @pytest.mark.parametrize("shape", ["rect", "diamond"])
    @pytest.mark.parametrize("K", [12, 13, 17])
    def test_objective_is_that_of_its_pattern(self, problem_rb, shape, K):
        report = best_lattice(dataclasses.replace(problem_rb, budget=K), shape)
        assert report.objective == objective_value(report.problem, report.pattern)

    def test_fallback_recomputes_alpha(self, problem_rb):
        pr = dataclasses.replace(problem_rb, budget=13)  # 13 = prime, no 13-pilot rect exists
        report = best_lattice(pr, "rect")
        assert report.budget_used == 12
        assert len(report.pattern) == 12


class TestExhaustive:
    def test_full_budget_single_subset(self, problem_4x4):
        pr = dataclasses.replace(problem_4x4, budget=16)
        report = exhaustive_search(pr)
        assert report.pattern.indices == tuple(range(16))

    def test_optimum_below_every_subset(self, problem_4x4):
        report = exhaustive_search(problem_4x4)
        assert comb(16, 3) == 560
        values = [
            objective_value(problem_4x4, PilotPattern(s, problem_4x4.grid))
            for s in itertools.combinations(range(16), 3)
        ]
        assert report.objective == pytest.approx(min(values), rel=1e-12)
        assert all(report.objective <= v + 1e-12 for v in values)

    @pytest.mark.parametrize("K, ties", [(2, 4), (3, 4), (4, 2), (5, 4)])
    def test_a_tie_goes_to_the_first_subset(self, monkeypatch, K, ties):
        """Criterion 1's 4x4 instances have mirror-image subsets within
        ``TIE_BAND`` of the lowest.  The first of them in lexicographic order
        wins, also when a later tied subset reads an ulp below all others."""
        problem = validation._oracle_grid_problem(K)
        subsets = list(itertools.combinations(range(16), K))
        values = [pattern_objective(problem, np.array(s, dtype=np.intp)) for s in subsets]
        lowest = min(values)
        tied = [s for s, v in zip(subsets, values) if v <= lowest * (1.0 + TIE_BAND)]
        assert len(tied) == ties
        assert exhaustive_search(problem).pattern.indices == tied[0]
        score = optimizers.pattern_objective

        def skewed(problem, idx):
            if tuple(idx.tolist()) == tied[-1]:
                return float(np.nextafter(lowest, 0.0))
            return score(problem, idx)

        monkeypatch.setattr(optimizers, "pattern_objective", skewed)
        report = exhaustive_search(problem)
        assert report.pattern.indices == tied[0]
        assert report.objective == values[subsets.index(tied[0])]

    def test_guard_refuses_large_instances(self, problem_rb):
        pr = dataclasses.replace(problem_rb, budget=20)  # C(168, 20) astronomically large
        with pytest.raises(ComplexityGuardError):
            exhaustive_search(pr)


class TestPipelines:
    def test_rounding_pipeline_budget_exact(self, problem_rb):
        alloc = solve_relaxation(problem_rb)
        for seed in range(5):
            pattern = dependent_rounding(alloc, rng_seed=seed, grid=problem_rb.grid)
            assert len(pattern) == problem_rb.budget
            refined = local_swap(problem_rb, pattern)
            assert refined.objective <= objective_value(problem_rb, pattern) + 1e-12

    def test_two_pipelines_agree_on_rb_config(self, problem_rb):
        greedy_refined = local_swap(problem_rb, greedy_design(problem_rb).pattern)
        alloc = solve_relaxation(problem_rb)
        rounded = dependent_rounding(alloc, rng_seed=0, grid=problem_rb.grid)
        rounded_refined = local_swap(problem_rb, rounded)
        gap = abs(greedy_refined.objective - rounded_refined.objective)
        assert gap <= 0.02 * min(greedy_refined.objective, rounded_refined.objective)

    def test_times_each_rounding_in_seed_order(self, problem_rb):
        """One ``(report, seconds)`` per seed, in seed order: the unshared
        swap run of the seed's rounding and a non-negative time."""
        allocation = solve_relaxation(problem_rb)
        seeds = [5, 3, 9, 3]
        best, rounds = relax_round_swap_design(problem_rb, seeds, allocation)
        assert len(rounds) == len(seeds)
        for seed, (report, seconds) in zip(seeds, rounds):
            init = dependent_rounding(allocation, seed, grid=problem_rb.grid)
            assert_same_report(report, local_swap(problem_rb, init), seed)
            assert isinstance(seconds, float) and seconds >= 0.0
        assert any(best is report for report, _ in rounds)

    def test_tied_roundings_keep_their_best_pattern(self):
        # Refined roundings here tie to the last bits: four patterns lie
        # within the band of the lowest objective.  The earliest seed among
        # them wins, not the lowest float.
        problem, seeds = tied_roundings_problem()
        best, rounds = relax_round_swap_design(problem, seeds, solve_relaxation(problem))
        reports = [report for report, _ in rounds]
        assert best is reports[0]
        assert best.swap_iterations == 3
        assert best.pattern.indices == (0, 1, 10, 11, 75, 77, 83, 84, 89, 95, 156, 157, 166, 167)
        lowest = min(r.objective for r in reports)
        tied = {r.pattern.indices for r in reports if r.objective <= lowest * (1 + TIE_BAND)}
        assert len(tied) == 4
        assert lowest < best.objective <= lowest * (1 + 1e-15)

    def test_diamond_vs_rect_report(self, stats_rb):
        # The literature favors diamonds on infinite grids; on this finite
        # block the ordering flips at most densities, so record, don't assert.
        from pilotopt import make_design_problem

        pr = make_design_problem(stats_rb, K=8, snr_db=20.0)
        rect = best_lattice(pr, "rect")
        diamond = best_lattice(pr, "diamond")
        assert rect.objective > 0 and diamond.objective > 0
