import dataclasses
import importlib.machinery
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotopt import (
    DesignProblem,
    FractionalAllocation,
    GridConfig,
    PilotPattern,
    average_mse,
    best_lattice,
    compute_alpha,
    greedy_design,
    local_swap,
    make_design_problem,
    objective,
    objective_gradient,
    objective_value,
)
from pilotopt.channel import ScatteringSpec, build_statistics
from pilotopt.errors import (
    BudgetError,
    DegenerateUpdateError,
    InvalidSpecError,
    NumericError,
)
from pilotopt.objective import (
    RoundingPlan,
    _face_hessian,
    _hermitian_inverse,
    _lower_inverse,
    _problem_information,
    _scoring_problem,
    allocation_lower_inverse,
    gains_for_candidates,
    gradient_from_inverse,
    hermitian_from_lower,
    pattern_inverse,
    pattern_objective,
    rank_one_update,
    rounding_plan,
    swap_deltas,
)
from pilotopt.optimizers import (
    exhaustive_search,
    greedy_swap_design,
    project_capped_simplex,
    solve_relaxation,
)

from conftest import (
    RB_SWEEP_POINTS,
    dense_lmmse,
    pilot_amplitude,
    reference_average_mse,
    reference_information_inverse,
    reference_removal,
    permuted_problem,
    random_rows_problem,
    reference_swap_delta,
    reflection,
)


def weights_inverse(problem, w):
    """Hermitian ``A^{-1}`` of the float weights ``w``."""
    return hermitian_from_lower(allocation_lower_inverse(problem, w))


def synthetic_problem(M, N, r, K, alpha, seed=0):
    """Random orthonormal subspace problem with an exact target alpha."""
    rng = np.random.default_rng(seed)
    grid = GridConfig(M, N)
    raw = rng.normal(size=(grid.size, r)) + 1j * rng.normal(size=(grid.size, r))
    U, _ = np.linalg.qr(raw)
    prior = np.sort(rng.uniform(0.5, 5.0, size=r))[::-1]
    noise_var = N / (K * alpha)  # beta = 1 keeps the alpha identity exact
    return DesignProblem(
        grid=grid,
        rows=U,
        prior=prior,
        budget=K,
        power_fraction=1.0,
        noise_var=noise_var,
    )


class TestComputeAlpha:
    def test_direct_substitution(self):
        assert compute_alpha(1.0, 14, 14, 0.1) == pytest.approx(10.0)
        assert compute_alpha(0.5, 14, 7, 1.0) == pytest.approx(1.0)

    def test_doubling_budget_halves_alpha(self):
        a1 = compute_alpha(0.3, 14, 6, 0.2)
        a2 = compute_alpha(0.3, 14, 12, 0.2)
        assert a2 == pytest.approx(a1 / 2)

    def test_zero_budget_rejected(self):
        with pytest.raises(BudgetError):
            compute_alpha(1.0, 14, 0, 0.1)

    @pytest.mark.parametrize("K", [True, 3.0, np.float64(3.0)])
    def test_non_integer_budget_rejected(self, K):
        with pytest.raises(BudgetError, match="pilot budget must be a positive integer"):
            compute_alpha(1.0, 14, K, 0.1)

    def test_numpy_integer_budget_accepted(self):
        assert compute_alpha(1.0, 14, np.int64(14), 0.1) == compute_alpha(1.0, 14, 14, 0.1)

    @pytest.mark.parametrize(
        "beta, noise_var",
        [(1.0, 1e-320), (1e300, 0.1), (1e-300, 1e300)],  # inf, squares to inf, 0
    )
    def test_unrepresentable_pilot_snr_rejected(self, beta, noise_var):
        with pytest.raises(InvalidSpecError, match="pilot SNR"):
            compute_alpha(beta, 14, 14, noise_var)

    def test_noise_variance_underflow_rejected(self, stats_4x4):
        # 10^(-4000/10) underflows to 0; compute_alpha refuses it for the
        # design problem, which does not check the noise itself.
        with pytest.raises(InvalidSpecError, match="noise_var must be positive"):
            make_design_problem(stats_4x4, K=3, snr_db=4000)


class TestPatternTypes:
    def test_pattern_validation(self):
        grid = GridConfig(4, 4)
        with pytest.raises(InvalidSpecError):
            PilotPattern((1, 1, 2), grid)
        with pytest.raises(InvalidSpecError):
            PilotPattern((0, 16), grid)
        p = PilotPattern((3, 1, 2), grid)
        assert p.indices == (1, 2, 3)
        assert PilotPattern(np.array([3, 1, 2]), grid).indices == (1, 2, 3)
        assert type(PilotPattern(np.array([3]), grid).indices[0]) is int
        assert [grid.cell(k) for k in p.indices] == [(1, 0), (2, 0), (3, 0)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_distinct_indices_give_a_sorted_pattern(self, data):
        grid = GridConfig(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))
        indices = data.draw(st.lists(st.integers(0, grid.size - 1), unique=True))
        pattern = PilotPattern(tuple(indices), grid)
        assert list(pattern.indices) == sorted(set(indices))
        assert len(pattern) == len(indices)
        assert tuple(n * grid.M + m for m, n in map(grid.cell, pattern.indices)) == pattern.indices

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_duplicate_or_outside_index_rejected(self, data):
        grid = GridConfig(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))
        indices = data.draw(st.lists(st.integers(0, grid.size - 1), unique=True))
        bad = st.integers(-grid.size, -1) | st.integers(grid.size, 2 * grid.size)
        if indices:
            bad |= st.sampled_from(indices)
        position = data.draw(st.integers(0, len(indices)))
        with pytest.raises(InvalidSpecError):
            PilotPattern(tuple(indices[:position] + [data.draw(bad)] + indices[position:]), grid)

    def test_allocation_validation(self):
        with pytest.raises(InvalidSpecError):
            FractionalAllocation(np.array([0.5, 0.6]), budget=2)
        with pytest.raises(InvalidSpecError):
            FractionalAllocation(np.array([1.5, 0.5]), budget=2)
        FractionalAllocation(np.array([0.5, 0.5, 1.0]), budget=2)

    @pytest.mark.parametrize("budget", [2.0, np.float64(2.0), True])
    def test_allocation_rejects_a_non_integer_budget(self, budget):
        with pytest.raises(InvalidSpecError, match="allocation budget must be an integer"):
            FractionalAllocation(np.array([1.0, 0.5, 0.5]), budget=budget)

    def test_allocation_accepts_a_numpy_integer_budget(self):
        assert FractionalAllocation(np.array([1.0, 0.5, 0.5]), budget=np.int64(2)).budget == 2

    @pytest.mark.parametrize(
        "indices, message",
        [
            ((1, 1, 2), "pilot indices must be distinct"),
            ((0, 16), "pilot index outside the grid"),
            ((-1, 3), "pilot index outside the grid"),
            ((16, 3, 16), "pilot indices must be distinct"),  # both: distinct wins
            ((-2, -2, 5), "pilot indices must be distinct"),
            ((1.9, 2.2, 5), "pilot indices must be integers"),
            (("3",), "pilot indices must be integers"),
            ((np.float64(2.0), 3), "pilot indices must be integers"),
            ((2.0, 2.0), "pilot indices must be integers"),  # integers win over distinct
            ((1, 16.5), "pilot indices must be integers"),  # and over the grid
        ],
    )
    def test_pattern_errors_and_their_precedence(self, indices, message):
        with pytest.raises(InvalidSpecError, match=f"^{message}$"):
            PilotPattern(indices, GridConfig(4, 4))

    def test_allocation_weights_are_a_read_only_copy(self):
        w = np.array([0.5, 0.5, 1.0, 0.0])
        alloc = FractionalAllocation(w, budget=2)
        with pytest.raises(ValueError, match="read-only"):
            alloc.weights[0] = 2.0
        assert w.flags.writeable
        w[0] = 0.25  # the caller's array stays theirs
        assert alloc.weights[0] == 0.5
        assert alloc.plan == rounding_plan(np.array([0.5, 0.5, 1.0, 0.0]))

    def test_allocation_rejects_non_vector_weights(self):
        with pytest.raises(InvalidSpecError, match="1-D"):
            FractionalAllocation(np.full((2, 2), 0.5), budget=2)

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([np.nan, 1.0], "allocation weights must be finite, got 1 non-finite of 2"),
            ([np.inf, -np.inf, 1.0], "allocation weights must be finite, got 2 non-finite of 3"),
        ],
    )
    def test_allocation_rejects_non_finite_weights(self, weights, message):
        with pytest.raises(InvalidSpecError, match=f"^{message}$"):
            FractionalAllocation(np.array(weights), budget=1)

    def test_allocation_equality_is_identity(self):
        w = np.array([0.5, 0.5, 1.0, 0.0])
        a, b = FractionalAllocation(w, budget=2), FractionalAllocation(w, budget=2)
        assert (a == b) is False
        assert (a == a) is True
        assert len({a, b}) == 2

    def test_rounding_plan_splits_fixed_and_fractional(self):
        w = np.array([1.0, 0.7, 0.3, 0.0, 1.0 - 1e-10, 1e-10, 0.6, 0.4])
        assert rounding_plan(w) == RoundingPlan(
            fractional=(1, 2, 6, 7),
            values=(0.7, 0.3, 0.6, 0.4),
            fixed_ones=(0, 4),
        )
        assert FractionalAllocation(w, budget=4).plan == rounding_plan(w)


class TestBuildA:
    def test_empty_pattern_gives_prior(self):
        pr = synthetic_problem(4, 4, 3, 2, alpha=5.0)
        A = _problem_information(pr, PilotPattern((), pr.grid))
        assert np.array_equal(A, np.diag(1.0 / pr.prior))
        assert objective_value(pr, PilotPattern((), pr.grid)) == pytest.approx(
            pr.prior.sum(), rel=1e-12
        )

    def test_vanishing_alpha_keeps_prior_trace(self):
        # alpha -> 0 limit realized through an enormous noise floor.
        pr = synthetic_problem(4, 4, 3, 2, alpha=1e-280)
        pattern = PilotPattern((0, 5), pr.grid)
        assert objective_value(pr, pattern) == pytest.approx(pr.prior.sum(), rel=1e-12)

    def test_matches_full_diagonal_oracle(self):
        # Direct evaluation with the full-size Diag(c_p) selection matrix.
        pr = synthetic_problem(4, 4, 3, 2, alpha=7.0, seed=3)
        pattern = PilotPattern((2, 9), pr.grid)
        c = np.zeros(pr.grid.size)
        c[list(pattern.indices)] = 1.0
        oracle = np.diag(1.0 / pr.prior) + pr.pilot_snr * (
            pr.rows.conj().T @ np.diag(c) @ pr.rows
        )
        assert np.allclose(_problem_information(pr, pattern), oracle, atol=1e-12)
        assert objective_value(pr, pattern) == pytest.approx(
            np.trace(np.linalg.inv(oracle)).real, rel=1e-12
        )

    def test_all_pilots_high_snr_drives_objective_to_zero(self):
        pr = synthetic_problem(3, 3, 3, 9, alpha=1e9)
        pattern = PilotPattern(tuple(range(9)), pr.grid)
        assert objective_value(pr, pattern) < 1e-8


class TestLapackLoader:
    """The LAPACK kernels come from scipy's compiled extension, loaded
    without the ``scipy`` and ``scipy.linalg`` package imports."""

    def test_fresh_import_loads_one_scipy_module(self):
        # A fresh interpreter: this suite's conftest imports scipy.linalg.
        script = (
            "import json, sys\n"
            "import pilotopt, pilotopt.cli\n"
            "from pilotopt import objective\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import scipy.linalg\n"
            "lapack = scipy.linalg.lapack\n"
            "print(json.dumps({'loaded': loaded, 'same': [\n"
            "    lapack.zpotrf is objective._flapack.zpotrf,\n"
            "    lapack.zpotri is objective._flapack.zpotri,\n"
            "    sys.modules['scipy.linalg._flapack'] is objective._flapack]}))\n"
        )
        src = str(Path(objective.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["loaded"] == ["scipy.linalg._flapack"]
        assert got["same"] == [True, True, True]

    def test_reuses_a_loaded_extension(self):
        assert objective._load_flapack() is sys.modules["scipy.linalg._flapack"]

    def test_missing_extension_names_the_directory(self, tmp_path, monkeypatch):
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        message = f"no scipy LAPACK extension _flapack in {tmp_path / 'linalg'}"
        with pytest.raises(ImportError, match=f"^{re.escape(message)}$"):
            objective._load_flapack()


class TestInverseKernels:
    """The two ``A^{-1}`` kernels give the reference inverse bit for bit, in
    the operation order of the reference algebra, and the public objective
    and gradient read the same inverse."""

    @pytest.mark.filterwarnings("ignore:power_fraction")
    @pytest.mark.parametrize("fixture", ["problem_rb", "problem_big"])
    @pytest.mark.parametrize("extra_pilots", [0, 3])
    def test_kernels_match_information_inverse(self, request, fixture, extra_pilots):
        problem = request.getfixturevalue(fixture)
        if extra_pilots:
            problem = dataclasses.replace(problem, budget=problem.budget + extra_pilots)
        rng = np.random.default_rng(problem.budget)
        P = problem.grid.size
        idx = np.sort(rng.choice(P, size=problem.budget, replace=False)).astype(np.intp)
        pattern = PilotPattern(tuple(idx.tolist()), problem.grid)
        w = project_capped_simplex(2.0 * rng.uniform(size=P), problem.budget)
        allocation = FractionalAllocation(w, problem.budget)
        for kernel, given, public in (
            (pattern_inverse, idx, pattern),
            (lambda p, w: hermitian_from_lower(allocation_lower_inverse(p, w)), w, allocation),
        ):
            fast = kernel(problem, given)
            assert np.array_equal(fast, reference_information_inverse(problem, public))
            assert objective_value(problem, public) == float(np.trace(fast).real)
        assert np.array_equal(
            objective_gradient(problem, allocation), gradient_from_inverse(problem, fast)
        )

    @pytest.mark.parametrize("spreading", [1e-3, 5e-3])
    def test_trace_matches_a_40_digit_reference_at_full_rank(self, spreading):
        """On greedy-swap patterns of 12x14, K = 17, 20 dB with every
        eigenpair above the floor kept (prior spread up to 1e12), the
        kernel's trace is within 1e-12 of the trace of A^{-1} formed from the
        same double inputs in 40-digit arithmetic."""
        stats = build_statistics(
            GridConfig(12, 14),
            ScatteringSpec(spreading_factor=spreading, rank_energy_threshold=1.0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # K > N exceeds the block power budget
            problem = make_design_problem(stats, K=17, snr_db=20.0)
        idx = np.array(greedy_swap_design(problem).pattern.indices, dtype=np.intp)
        got = float(np.trace(pattern_inverse(problem, idx)).real)
        r = problem.rank
        with mpmath.workdps(40):
            U = [[mpmath.mpc(complex(x)) for x in row] for row in problem.rows[idx]]
            alpha = mpmath.mpf(problem.pilot_snr)
            A = mpmath.matrix(r, r)
            for a in range(r):
                for b in range(r):
                    A[a, b] = alpha * mpmath.fsum(mpmath.conj(u[a]) * u[b] for u in U)
                A[a, a] += 1 / mpmath.mpf(float(problem.prior[a]))
            A_inv = mpmath.inverse(A)
            want = mpmath.fsum(A_inv[a, a].real for a in range(r))
        assert problem.prior.max() / problem.prior.min() > 1e11
        assert abs(got - want) <= 1e-12 * want

    def test_not_positive_definite_is_a_labelled_error(self, problem_rb):
        A = _problem_information(problem_rb, PilotPattern((0, 1), problem_rb.grid))
        A[3, 3] = -1.0
        with pytest.raises(NumericError, match=r"not positive definite \(LAPACK info 4\)"):
            _hermitian_inverse(A)

    def test_kernel_constants_are_read_only(self, problem_rb):
        assert np.array_equal(problem_rb.rows_conj, problem_rb.rows.conj())
        assert np.array_equal(problem_rb.prior_inv, np.diag(1.0 / problem_rb.prior))
        with pytest.raises(ValueError):
            problem_rb.rows_conj[0, 0] = 0.0
        with pytest.raises(ValueError):
            problem_rb.prior_inv[0, 0] = 0.0


class TestObjectiveValue:
    def test_no_pilots_average_mse_is_one(self, stats_rb, problem_rb):
        no_pilots = PilotPattern((), problem_rb.grid)
        assert average_mse(stats_rb, problem_rb, no_pilots) == pytest.approx(1.0, rel=1e-9)

    def test_foreign_pattern_error_names_the_grid_it_misses(
        self, stats_rb, problem_rb, problem_4x4
    ):
        # average_mse scores on a problem too: a foreign pattern misses the
        # problem grid, and a foreign problem the statistics grid.
        foreign = PilotPattern((0, 5, 10, 15), GridConfig(4, 4))
        wrong_pattern = "^pattern grid does not match the problem grid$"
        with pytest.raises(InvalidSpecError, match=wrong_pattern):
            average_mse(stats_rb, problem_rb, foreign)
        with pytest.raises(InvalidSpecError, match=wrong_pattern):
            objective_value(problem_rb, foreign)
        own = PilotPattern((0, 5, 10, 15), stats_rb.grid)
        with pytest.raises(
            InvalidSpecError, match="^problem grid does not match the statistics grid$"
        ):
            average_mse(stats_rb, problem_4x4, own)

    def test_designed_beats_best_rectangular_lattice(self, problem_rb):
        designed = local_swap(problem_rb, greedy_design(problem_rb).pattern)
        rect = best_lattice(problem_rb, "rect")
        assert designed.objective < rect.objective


class TestIncrementalUpdates:
    def test_marginal_gain_matches_reinversion(self, problem_rb):
        rng = np.random.default_rng(1)
        P = problem_rb.grid.size
        for _ in range(25):
            S = rng.choice(P, size=10, replace=False)
            pattern = PilotPattern(tuple(int(i) for i in S), problem_rb.grid)
            A_inv = pattern_inverse(problem_rb, np.sort(S))
            j = int(rng.choice([k for k in range(P) if k not in pattern.indices]))
            gain = gains_for_candidates(A_inv, problem_rb.rows, problem_rb.pilot_snr)[j]
            assert gain >= 0
            obj_before = objective_value(problem_rb, pattern)
            obj_after = objective_value(
                problem_rb, PilotPattern(pattern.indices + (j,), problem_rb.grid)
            )
            assert gain == pytest.approx(obj_before - obj_after, rel=1e-9)

    def test_zero_row_has_zero_gain(self):
        pr = synthetic_problem(4, 4, 3, 2, alpha=5.0)
        rows = pr.rows.copy()
        rows[7] = 0.0
        pr_zero = DesignProblem(
            grid=pr.grid,
            rows=rows,
            prior=pr.prior,
            budget=pr.budget,
            power_fraction=pr.power_fraction,
            noise_var=pr.noise_var,
        )
        A_inv = pattern_inverse(pr_zero, np.array([], dtype=np.intp))
        assert gains_for_candidates(A_inv, pr_zero.rows, pr_zero.pilot_snr)[7] == 0.0

    def test_add_then_remove_restores_inverse(self, problem_rb):
        original = pattern_inverse(problem_rb, np.array([5, 40, 100], dtype=np.intp))
        _, restored = reference_removal(
            problem_rb, rank_one_update(problem_rb, original, 77), 77
        )
        assert np.abs(restored - original).max() < 1e-9

    def test_sequential_adds_match_oneshot_build(self, problem_rb):
        rng = np.random.default_rng(2)
        indices = rng.choice(problem_rb.grid.size, size=20, replace=False)
        A_inv = np.diag(problem_rb.prior).astype(np.complex128)
        for j in indices:
            A_inv = rank_one_update(problem_rb, A_inv, int(j))
        oneshot = np.linalg.inv(
            _problem_information(
                problem_rb, PilotPattern(tuple(int(i) for i in indices), problem_rb.grid)
            )
        )
        assert np.abs(A_inv - oneshot).max() < 1e-8
        assert np.trace(A_inv).real == pytest.approx(np.trace(oneshot).real, rel=1e-8)

    def test_state_invariants(self, problem_rb):
        """``rank_one_update`` returns a Hermitian inverse and leaves its input
        alone."""
        A_inv = pattern_inverse(problem_rb, np.arange(14, dtype=np.intp))
        before = A_inv.copy()
        added = rank_one_update(problem_rb, A_inv, 50)
        assert np.array_equal(A_inv, before)
        assert np.array_equal(added, added.conj().T)
        _, removed = reference_removal(problem_rb, added, 3)
        assert np.abs(removed - removed.conj().T).max() < 1e-10


class TestSwapDelta:
    def test_matches_full_recomputation(self, problem_rb):
        """Screen entries and the per-pair reference both match two
        reinversions."""
        rng = np.random.default_rng(3)
        P = problem_rb.grid.size
        for _ in range(25):
            S = [int(i) for i in rng.choice(P, size=14, replace=False)]
            selected = np.array(sorted(S), dtype=np.intp)
            A_inv = pattern_inverse(problem_rb, selected)
            i = int(rng.choice(S))
            j = int(rng.choice([k for k in range(P) if k not in S]))
            swapped = tuple(sorted(set(S) - {i} | {j}))
            direct = objective_value(
                problem_rb, PilotPattern(swapped, problem_rb.grid)
            ) - objective_value(problem_rb, PilotPattern(tuple(S), problem_rb.grid))
            screened = swap_deltas(problem_rb, A_inv, selected)[selected.searchsorted(i), j]
            assert screened == pytest.approx(direct, rel=1e-9, abs=1e-12)
            delta = reference_swap_delta(problem_rb, A_inv, i, j)
            assert delta == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_local_optimum_has_no_improving_swap(self, problem_rb):
        report = local_swap(problem_rb, greedy_design(problem_rb).pattern)
        A_inv = pattern_inverse(problem_rb, np.array(report.pattern.indices, dtype=np.intp))
        deltas = [
            reference_swap_delta(problem_rb, A_inv, i, j)
            for i in report.pattern.indices
            for j in range(problem_rb.grid.size)
            if j not in report.pattern.indices
        ]
        assert min(deltas) >= -1e-10


def assert_screen_matches_reinversion(problem, selected, rows):
    """``swap_deltas`` on the pattern ``selected`` is K x P, ``+inf``
    exactly on the selected columns, and on the rows ``rows`` of it every
    other column matches the change of two reinversions to 1e-9 of the
    objective."""
    A_inv = pattern_inverse(problem, selected)
    trace = float(np.trace(A_inv).real)
    deltas = swap_deltas(problem, A_inv, selected)
    assert deltas.shape == (selected.size, problem.grid.size)
    assert np.array_equal(np.flatnonzero(np.isinf(deltas).all(axis=0)), selected)
    assert np.isfinite(np.delete(deltas, selected, axis=1)).all()
    worst = 0.0
    for a in rows:
        rest = np.delete(selected, a)
        for j in np.setdiff1d(np.arange(problem.grid.size), selected):
            swapped = np.sort(np.append(rest, j))
            direct = pattern_objective(problem, swapped) - trace
            worst = max(worst, abs(deltas[a, j] - direct))
    assert worst <= 1e-9 * trace


class TestSwapDeltas:
    def test_every_pair_matches_swap_delta(self, problem_rb):
        """Every row against reinversion, and every swap against the
        per-pair reference."""
        pattern = PilotPattern(tuple(range(0, 168, 12)), problem_rb.grid)
        selected = np.array(pattern.indices, dtype=np.intp)
        assert_screen_matches_reinversion(problem_rb, selected, range(selected.size))
        A_inv = pattern_inverse(problem_rb, selected)
        batched = swap_deltas(problem_rb, A_inv, list(pattern.indices))
        assert np.array_equal(batched, swap_deltas(problem_rb, A_inv, selected))
        candidates = np.setdiff1d(np.arange(problem_rb.grid.size), selected)
        looped = np.array(
            [[reference_swap_delta(problem_rb, A_inv, i, j) for j in candidates] for i in selected]
        )
        assert np.abs(batched[:, candidates] - looped).max() <= 1e-9 * np.trace(A_inv).real

    def test_pairs_match_swap_delta_at_48x28(self, problem_big):
        """The screen at K = 134 and r = 28, on the greedy pattern: every
        column of eight random rows."""
        assert problem_big.rank == 28
        selected = np.array(greedy_design(problem_big).pattern.indices, dtype=np.intp)
        rows = np.random.default_rng(5).choice(selected.size, size=8, replace=False)
        assert_screen_matches_reinversion(problem_big, selected, rows)

    def test_nonpositive_removal_denominator_raises(self, problem_rb):
        A_inv = pattern_inverse(problem_rb, np.array([0, 50], dtype=np.intp))
        with pytest.raises(DegenerateUpdateError, match="^removal of 50 hit denominator -6"):
            # 1e6 A^{-1} is no longer the inverse of A.
            swap_deltas(problem_rb, 1e6 * A_inv, [0, 50])


class TestGradient:
    def test_vanishing_alpha_gradient(self):
        pr = synthetic_problem(4, 4, 3, 2, alpha=1e-280)
        w = FractionalAllocation(np.full(16, 2 / 16), budget=2)
        grad = objective_gradient(pr, w)
        assert np.allclose(grad, 0.0, atol=1e-200)

    def test_matches_central_finite_differences(self):
        pr = synthetic_problem(4, 4, 4, 5, alpha=4.0, seed=11)
        rng = np.random.default_rng(12)
        w = project_capped_simplex(rng.uniform(0.2, 0.8, size=16), 5)
        grad = objective_gradient(pr, w)
        h = 1e-5
        fd = np.empty_like(grad)
        for i in range(w.size):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd[i] = (objective_value(pr, wp) - objective_value(pr, wm)) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(grad)

    def test_entries_nonpositive_and_match_gain_numerator(self, problem_rb):
        w = np.full(problem_rb.grid.size, problem_rb.budget / problem_rb.grid.size)
        grad = objective_gradient(problem_rb, w)
        assert np.all(grad <= 0)
        # -grad_i equals the marginal-gain numerator alpha * u_i A^-2 u_i^H.
        A_inv = np.linalg.inv(_problem_information(problem_rb, w))
        i = 37
        z = A_inv @ problem_rb.rows[i].conj()
        numer = problem_rb.pilot_snr * float(np.vdot(z, z).real)
        assert -grad[i] == pytest.approx(numer, rel=1e-9)


class TestErrorCovariance:
    def test_trace_matches_full_model_oracle_on_4x4(self):
        # Direct full-matrix oracle: C - C Bp^H (Bp C Bp^H + noise I)^-1 Bp C
        # with the untruncated covariance.
        grid = GridConfig(4, 4)
        spec = ScatteringSpec(
            spreading_factor=0.09,
            normalized_delay_spread=0.3,
            normalized_doppler_spread=0.3,
            delay_profile="uniform",
            doppler_spectrum="uniform",
            rank_energy_threshold=1.0,
        )
        stats = build_statistics(grid, spec)
        pr = make_design_problem(stats, K=4, snr_db=10.0)
        pattern = PilotPattern((0, 5, 10, 15), grid)
        _, C_direct = dense_lmmse(stats, pattern, pilot_amplitude(pr), pr.noise_var)
        obj = objective_value(pr, pattern)
        assert obj == pytest.approx(np.trace(C_direct).real, rel=1e-8)


class TestPowerFractionWarning:
    def test_warning_names_the_caller(self, stats_rb):
        # make_design_problem, where the power fraction is chosen, warns once.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wide = make_design_problem(stats_rb, K=28, snr_db=10.0)  # beta = K/N = 2
        assert len(caught) == 1
        assert str(caught[0].message).startswith("power_fraction 2 > 1: pilot power exceeds")
        assert caught[0].filename == __file__
        assert wide.power_fraction == 2.0

    def test_construction_and_replace_do_not_warn(self, stats_rb, problem_rb):
        # The power fraction is chosen in make_design_problem, which warns;
        # a problem built or replaced from a chosen one does not warn again.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = DesignProblem(
                grid=problem_rb.grid,
                rows=problem_rb.rows,
                prior=problem_rb.prior,
                budget=14,
                power_fraction=2.0,
                noise_var=0.1,
            )
            dataclasses.replace(wide, budget=27)
            _scoring_problem(stats_rb, wide, noise_var=0.5)

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
    def test_power_fraction_must_be_positive_and_finite(self, problem_rb, beta):
        with pytest.raises(InvalidSpecError):
            DesignProblem(
                grid=problem_rb.grid,
                rows=problem_rb.rows,
                prior=problem_rb.prior,
                budget=14,
                power_fraction=beta,
                noise_var=0.1,
            )


class TestScoringProblem:
    """The reported MSE is the objective of the design problem moved to the
    significant eigenpairs: the same numbers, bit for bit, as the
    statistics-only reference (``reference_average_mse``)."""

    def test_is_the_problem_on_the_significant_basis(self, stats_big, problem_big):
        scoring = _scoring_problem(stats_big, problem_big)
        assert scoring.rows is stats_big.significant_eigvecs  # not copied
        assert scoring.prior is stats_big.significant_eigvals
        assert scoring.rank == stats_big.significant_eigvals.size > problem_big.rank
        assert scoring.pilot_snr == problem_big.pilot_snr
        assert (scoring.budget, scoring.power_fraction, scoring.noise_var) == (
            problem_big.budget, problem_big.power_fraction, problem_big.noise_var
        )
        assert np.array_equal(scoring.rows_conj, scoring.rows.conj())
        other = _scoring_problem(stats_big, problem_big, noise_var=0.5)
        assert other.noise_var == 0.5
        assert other.pilot_snr == compute_alpha(
            problem_big.power_fraction, problem_big.grid.N, problem_big.budget, 0.5
        )

    def test_matches_the_statistics_path_on_the_rb_sweep(self, grid_rb, rb_sweep_problems):
        rng = np.random.default_rng(31)
        stats = {}
        for s, d in RB_SWEEP_POINTS:
            if s not in stats:
                stats[s] = build_statistics(grid_rb, ScatteringSpec(spreading_factor=s))
            problem = rb_sweep_problems[(s, d)]
            K, P = problem.budget, grid_rb.size
            given = [greedy_design(problem).pattern]
            for _ in range(5):
                idx = rng.choice(P, size=K, replace=False)
                given.append(PilotPattern(tuple(idx.tolist()), grid_rb))
            given.append(FractionalAllocation(project_capped_simplex(rng.uniform(size=P), K), K))
            for pattern in given:
                want = reference_average_mse(stats[s], pattern, problem.pilot_snr)
                assert average_mse(stats[s], problem, pattern) == want, (s, d)

    @pytest.mark.filterwarnings("ignore:power_fraction")
    def test_matches_the_statistics_path_on_48x28(self, stats_big, problem_big):
        rng = np.random.default_rng(32)
        K, P = problem_big.budget, problem_big.grid.size
        given = [greedy_design(problem_big).pattern, solve_relaxation(problem_big)]
        for _ in range(5):
            idx = rng.choice(P, size=K, replace=False)
            given.append(PilotPattern(tuple(idx.tolist()), problem_big.grid))
            given.append(project_capped_simplex(2.0 * rng.uniform(size=P), K))
        for pattern in given:
            want = reference_average_mse(stats_big, pattern, problem_big.pilot_snr)
            assert average_mse(stats_big, problem_big, pattern) == want


class TestObjectiveProperties:
    def test_monotonicity_under_additions(self, problem_rb):
        rng = np.random.default_rng(4)
        P = problem_rb.grid.size
        for _ in range(100):
            size = int(rng.integers(1, 30))
            S = tuple(int(i) for i in rng.choice(P, size=size, replace=False))
            j = int(rng.choice([k for k in range(P) if k not in S]))
            before = objective_value(problem_rb, PilotPattern(S, problem_rb.grid))
            after = objective_value(problem_rb, PilotPattern(S + (j,), problem_rb.grid))
            assert after <= before + 1e-12

    def test_relaxed_objective_convex(self, problem_4x4):
        rng = np.random.default_rng(5)
        P = problem_4x4.grid.size
        for _ in range(10):
            w1 = project_capped_simplex(rng.uniform(size=P), problem_4x4.budget)
            w2 = project_capped_simplex(rng.uniform(size=P), problem_4x4.budget)
            f1, f2 = objective_value(problem_4x4, w1), objective_value(problem_4x4, w2)
            for theta in (0.25, 0.5, 0.75):
                mid = objective_value(problem_4x4, theta * w1 + (1 - theta) * w2)
                assert mid <= theta * f1 + (1 - theta) * f2 + 1e-9

    def test_permutation_equivariance(self, problem_rb):
        rng = np.random.default_rng(6)
        P = problem_rb.grid.size
        perm = rng.permutation(P)
        permuted = DesignProblem(
            grid=problem_rb.grid,
            rows=problem_rb.rows[perm],
            prior=problem_rb.prior,
            budget=problem_rb.budget,
            power_fraction=problem_rb.power_fraction,
            noise_var=problem_rb.noise_var,
        )
        S = tuple(int(i) for i in rng.choice(P, size=14, replace=False))
        # cell k of the permuted problem carries row perm[k]: selecting the
        # preimage of S reproduces the same information matrix.
        inv = np.empty(P, dtype=int)
        inv[perm] = np.arange(P)
        S_perm = tuple(int(inv[i]) for i in S)
        a = objective_value(problem_rb, PilotPattern(S, problem_rb.grid))
        b = objective_value(permuted, PilotPattern(S_perm, problem_rb.grid))
        assert a == pytest.approx(b, rel=1e-10)


def random_positive_definite(rng, r):
    """A well-conditioned random Hermitian positive definite r x r matrix."""
    X = rng.normal(size=(r, 2 * r)) + 1j * rng.normal(size=(r, 2 * r))
    return X @ X.conj().T / (2 * r) + 0.1 * np.eye(r)


class TestTraceOnlyInverse:
    """Callers that read only the trace of ``A^{-1}`` take it from the lower
    triangle ``zpotri`` fills, unmirrored, and get the mirrored trace bit
    for bit."""

    @pytest.mark.parametrize("r", [3, 10, 34, 82])
    def test_lower_triangle_trace_is_the_mirrored_trace(self, r):
        rng = np.random.default_rng(r)
        for _ in range(20):
            A = random_positive_definite(rng, r)
            lower, mirrored = _lower_inverse(A), _hermitian_inverse(A)
            assert np.trace(lower) == np.trace(mirrored)
            assert np.diagonal(lower).real.sum() == np.diagonal(mirrored).real.sum()
            assert np.array_equal(np.triu(lower, 1), np.zeros((r, r)))
            assert np.array_equal(hermitian_from_lower(lower), mirrored)

    @pytest.mark.filterwarnings("ignore:power_fraction")
    @pytest.mark.parametrize("fixture", ["problem_rb", "problem_big"])
    def test_callers_match_the_mirrored_trace(self, request, fixture):
        problem = request.getfixturevalue(fixture)
        rng = np.random.default_rng(problem.rank)
        P = problem.grid.size
        idx = np.sort(rng.choice(P, size=problem.budget, replace=False)).astype(np.intp)
        pattern = PilotPattern(tuple(idx.tolist()), problem.grid)
        w = project_capped_simplex(2.0 * rng.uniform(size=P), problem.budget)
        mirrored = float(np.trace(pattern_inverse(problem, idx)).real)
        assert pattern_objective(problem, idx) == mirrored
        assert objective_value(problem, pattern) == mirrored
        assert objective_value(problem, w) == float(np.trace(weights_inverse(problem, w)).real)
        # Spacing (4, 2) has P/8 pilots.
        lattice_problem = dataclasses.replace(problem, budget=P // 8)
        for shape in ("rect", "diamond"):
            report = best_lattice(lattice_problem, shape)
            at = np.array(report.pattern.indices, dtype=np.intp)
            assert report.objective == float(np.trace(pattern_inverse(report.problem, at)).real)

    def test_average_mse_matches_the_mirrored_trace(self, stats_rb, problem_rb):
        pattern = greedy_design(problem_rb).pattern
        A = _problem_information(_scoring_problem(stats_rb, problem_rb), pattern)
        want = float(np.diagonal(_hermitian_inverse(A)).real.sum()) / stats_rb.grid.size
        assert average_mse(stats_rb, problem_rb, pattern) == want

    def test_exhaustive_search_matches_the_mirrored_trace(self, problem_4x4):
        report = exhaustive_search(problem_4x4)
        idx = np.array(report.pattern.indices, dtype=np.intp)
        assert report.objective == float(np.trace(pattern_inverse(problem_4x4, idx)).real)


def central_difference_hessian(problem, w, face, h=1e-5):
    """Central differences of ``gradient_from_inverse`` on the weights
    ``face`` of ``w``, column by column."""
    H = np.empty((face.size, face.size))
    for col, j in enumerate(face):
        up, down = w.copy(), w.copy()
        up[j] += h
        down[j] -= h
        g_up = gradient_from_inverse(problem, weights_inverse(problem, up))
        g_down = gradient_from_inverse(problem, weights_inverse(problem, down))
        H[:, col] = (g_up[face] - g_down[face]) / (2.0 * h)
    return H


class TestFaceHessian:
    @pytest.mark.filterwarnings("ignore:power_fraction")
    def test_matches_central_differences_on_a_relaxed_face(self):
        """On the optimal face of 12x14, spreading 5e-3, K = 17, 20 dB."""
        stats = build_statistics(GridConfig(12, 14), ScatteringSpec(spreading_factor=0.005))
        problem = make_design_problem(stats, K=17, snr_db=20.0)
        w = np.array(solve_relaxation(problem).weights)
        face = np.flatnonzero((w > 0.0) & (w < 1.0))
        assert face.size >= 10
        H = _face_hessian(problem, weights_inverse(problem, w), face)
        assert np.abs(H - central_difference_hessian(problem, w, face)).max() <= 1e-8 * np.abs(H).max()
        assert np.abs(H - H.T).max() <= 1e-14 * np.abs(H).max()

    @pytest.mark.filterwarnings("ignore:power_fraction")
    def test_matches_central_differences_at_48x28(self, problem_big):
        rng = np.random.default_rng(5)
        P = problem_big.grid.size
        w = project_capped_simplex(2.0 * rng.uniform(size=P), problem_big.budget)
        face = np.sort(rng.choice(np.flatnonzero((w > 0.0) & (w < 1.0)), size=40, replace=False))
        H = _face_hessian(problem_big, weights_inverse(problem_big, w), face)
        assert np.abs(H - central_difference_hessian(problem_big, w, face)).max() <= 1e-8 * np.abs(H).max()

    def test_diagonal_reads_the_gradient_terms(self, problem_rb):
        """``H_ii = 2 alpha^2 (u_i A^{-1} u_i^H)(u_i A^{-2} u_i^H)``."""
        w = np.full(problem_rb.grid.size, problem_rb.budget / problem_rb.grid.size)
        A_inv = weights_inverse(problem_rb, w)
        face = np.arange(problem_rb.grid.size, dtype=np.intp)
        H = _face_hessian(problem_rb, A_inv, face)
        quad = np.einsum("ij,jk,ik->i", problem_rb.rows, A_inv, problem_rb.rows.conj()).real
        grad = gradient_from_inverse(problem_rb, A_inv)
        want = -2.0 * problem_rb.pilot_snr * quad * grad
        assert np.allclose(H.diagonal(), want, rtol=1e-12, atol=0.0)


@pytest.fixture(scope="module", params=[(12, 14), (48, 28)], ids=["12x14", "48x28"])
def reflected_case(request):
    """Statistics, problem, a random pattern and random weights of one grid
    at spreading 5e-3, 20 dB, K = 10% of the cells."""
    M, N = request.param
    stats = build_statistics(GridConfig(M, N), ScatteringSpec(spreading_factor=0.005))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # K > N exceeds the block power budget
        problem = make_design_problem(stats, K=round(0.1 * M * N), snr_db=20.0)
    rng = np.random.default_rng(M)
    P = problem.grid.size
    idx = np.sort(rng.choice(P, size=problem.budget, replace=False)).astype(np.intp)
    w = project_capped_simplex(2.0 * rng.uniform(size=P), problem.budget)
    return stats, problem, idx, w


def assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestReflectionInvariance:
    """The Doppler and delay correlations are Hermitian Toeplitz, so
    reflecting the grid in m or n conjugates the channel covariance and
    leaves every objective, gain and gradient unchanged up to the index
    permutation: a metamorphic check of the index bookkeeping, no oracle."""

    @pytest.mark.parametrize("axis", ["m", "n", "both"])
    def test_objectives_gains_and_gradients(self, reflected_case, axis):
        stats, problem, idx, w = reflected_case
        perm = reflection(problem.grid, axis)
        w_ref = np.empty_like(w)
        w_ref[perm] = w
        idx_ref = np.sort(perm[idx])
        pattern = PilotPattern(tuple(idx.tolist()), problem.grid)
        pattern_ref = PilotPattern(tuple(idx_ref.tolist()), problem.grid)
        alpha = problem.pilot_snr

        assert_close(objective_value(problem, pattern_ref), objective_value(problem, pattern))
        assert_close(objective_value(problem, w_ref), objective_value(problem, w))
        assert_close(
            average_mse(stats, problem, pattern_ref), average_mse(stats, problem, pattern)
        )
        assert_close(average_mse(stats, problem, w_ref), average_mse(stats, problem, w))

        A_inv, A_inv_ref = pattern_inverse(problem, idx), pattern_inverse(problem, idx_ref)
        gains = gains_for_candidates(A_inv, problem.rows, alpha)
        assert_close(gains_for_candidates(A_inv_ref, problem.rows, alpha)[perm], gains)

        B_inv, B_inv_ref = weights_inverse(problem, w), weights_inverse(problem, w_ref)
        grad = gradient_from_inverse(problem, B_inv)
        assert_close(gradient_from_inverse(problem, B_inv_ref)[perm], grad)

    @pytest.mark.parametrize("axis", ["m", "n", "both"])
    def test_swap_deltas_and_face_hessian(self, reflected_case, axis):
        _, problem, idx, w = reflected_case
        perm = reflection(problem.grid, axis)
        deltas = swap_deltas(problem, pattern_inverse(problem, idx), idx)
        idx_ref = np.sort(perm[idx])
        # Row a swaps perm[idx[a]] out, and cell perm[k] stands for cell k.
        deltas_ref = swap_deltas(problem, pattern_inverse(problem, idx_ref), perm[idx])[:, perm]
        outside = np.isfinite(deltas)
        assert np.array_equal(np.isfinite(deltas_ref), outside)
        assert_close(deltas_ref[outside], deltas[outside])

        w_ref = np.empty_like(w)
        w_ref[perm] = w
        face = np.flatnonzero((w > 0.0) & (w < 1.0))[:60]
        H = _face_hessian(problem, weights_inverse(problem, w), face)
        H_ref = _face_hessian(problem, weights_inverse(problem, w_ref), perm[face])
        assert_close(H_ref, H)


class TestReflectionCheck:
    """``DesignProblem.reflections`` finds every reflection under which a
    problem is invariant, and none under which it is not."""

    @pytest.mark.parametrize(
        "case",
        [
            "12x14@1e-4", "12x14@1e-3", "12x14@5e-3", "12x14@1e-2", "48x28@5e-3", "7x5@5e-3",
            "12x14@1e-4,eta=1", "12x14@1e-3,eta=1", "12x14@5e-3,eta=1", "12x14@1e-2,eta=1",
            "48x28@5e-3,eta=1", "7x5@5e-3,eta=1",
        ],
    )
    def test_statistics_problems_have_all_three(self, case):
        # The rb-sweep points at density 0.05 (K = 8), problem_big (K = 134)
        # and 7x5 at K = 5, at the default energy threshold and at 1.  At 1
        # the basis reaches the eigenvalue floor, where eigh's eigenvectors
        # held the reflections only to 4e-7 to 9e-6, and none was found.
        shape, spreading = case.split("@")
        spreading, _, eta = spreading.partition(",eta=")
        M, N = map(int, shape.split("x"))
        spec = ScatteringSpec(
            spreading_factor=float(spreading), rank_energy_threshold=float(eta or 0.9999)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # K > N exceeds the block power budget
            problem = make_design_problem(
                build_statistics(GridConfig(M, N), spec),
                K={"12x14": 8, "48x28": 134, "7x5": 5}[shape],
                snr_db=20.0,
            )
        assert f"{problem.grid.M}x{problem.grid.N}" == shape
        maps = problem.reflections
        assert len(maps) == 3
        for perm, axis in zip(maps, ("m", "n", "both")):
            assert np.array_equal(perm, reflection(problem.grid, axis))
            assert not perm.flags.writeable
        assert problem.reflections is maps  # checked once

    def test_asymmetric_problems_have_none(self, problem_rb):
        assert permuted_problem(problem_rb).reflections == ()
        assert random_rows_problem().reflections == ()

    @pytest.mark.parametrize("M, N", [(1, 14), (12, 1), (1, 1)])
    def test_identity_maps_are_left_out(self, M, N):
        grid = GridConfig(M, N)
        stats = build_statistics(grid, ScatteringSpec(spreading_factor=5e-3))
        problem = make_design_problem(stats, K=1, snr_db=20.0)
        axes = [axis for axis, size in (("m", M), ("n", N)) if size > 1]
        assert len(problem.reflections) == len(axes)
        for perm, axis in zip(problem.reflections, axes):
            assert np.array_equal(perm, reflection(grid, axis))

    def test_not_checked_at_construction(self, problem_rb):
        problem = dataclasses.replace(problem_rb)
        assert "reflections" not in vars(problem)
        problem.reflections
        assert "reflections" in vars(problem)
