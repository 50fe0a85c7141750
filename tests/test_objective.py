import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotopt import (
    DesignProblem,
    FractionalAllocation,
    GridConfig,
    ObjectiveState,
    PilotPattern,
    average_mse,
    best_lattice,
    build_A,
    compute_alpha,
    greedy_design,
    local_swap,
    make_design_problem,
    marginal_gain,
    objective_gradient,
    objective_value,
    rank_one_update,
    swap_delta,
)
from pilotopt.channel import ScatteringSpec, build_statistics
from pilotopt.errors import (
    BudgetError,
    CandidateError,
    DegenerateUpdateError,
    InvalidSpecError,
    NumericError,
)
from pilotopt.objective import (
    RoundingPlan,
    _hermitian_inverse,
    allocation_inverse,
    information_inverse,
    pattern_inverse,
    rounding_plan,
    swap_deltas,
)
from pilotopt.optimizers import greedy_swap_design, project_capped_simplex

from conftest import dense_lmmse, reference_information_inverse


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

    @pytest.mark.parametrize(
        "beta, noise_var",
        [(1.0, 1e-320), (1e300, 0.1), (1e-300, 1e300)],  # inf, squares to inf, 0
    )
    def test_unrepresentable_pilot_snr_rejected(self, beta, noise_var):
        with pytest.raises(InvalidSpecError, match="pilot SNR"):
            compute_alpha(beta, 14, 14, noise_var)


class TestPatternTypes:
    def test_pattern_validation(self):
        grid = GridConfig(4, 4)
        with pytest.raises(InvalidSpecError):
            PilotPattern((1, 1, 2), grid)
        with pytest.raises(InvalidSpecError):
            PilotPattern((0, 16), grid)
        p = PilotPattern((3, 1, 2), grid)
        assert p.indices == (1, 2, 3)
        assert p.cells() == [(1, 0), (2, 0), (3, 0)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_distinct_indices_give_a_sorted_pattern(self, data):
        grid = GridConfig(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))
        indices = data.draw(st.lists(st.integers(0, grid.size - 1), unique=True))
        pattern = PilotPattern(tuple(indices), grid)
        assert list(pattern.indices) == sorted(set(indices))
        assert len(pattern) == len(indices)
        assert pattern.mask().sum() == len(pattern)
        assert tuple(n * grid.M + m for m, n in pattern.cells()) == pattern.indices

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

    @pytest.mark.parametrize(
        "indices, message",
        [
            ((1, 1, 2), "pilot indices must be distinct"),
            ((0, 16), "pilot index outside the grid"),
            ((-1, 3), "pilot index outside the grid"),
            ((16, 3, 16), "pilot indices must be distinct"),  # both: distinct wins
            ((-2, -2, 5), "pilot indices must be distinct"),
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
            total=float(w.sum()),
            fractional=(1, 2, 6, 7),
            values=(0.7, 0.3, 0.6, 0.4),
            fixed_ones=(0, 4),
        )
        assert FractionalAllocation(w, budget=4).plan == rounding_plan(w)


class TestBuildA:
    def test_empty_pattern_gives_prior(self):
        pr = synthetic_problem(4, 4, 3, 2, alpha=5.0)
        A = build_A(pr, PilotPattern((), pr.grid))
        assert np.allclose(A, np.diag(1.0 / pr.prior))
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
        c = pattern.mask()
        oracle = np.diag(1.0 / pr.prior) + pr.pilot_snr * (
            pr.rows.conj().T @ np.diag(c) @ pr.rows
        )
        assert np.allclose(build_A(pr, pattern), oracle, atol=1e-12)

    def test_all_pilots_high_snr_drives_objective_to_zero(self):
        pr = synthetic_problem(3, 3, 3, 9, alpha=1e9)
        pattern = PilotPattern(tuple(range(9)), pr.grid)
        assert objective_value(pr, pattern) < 1e-8


class TestInverseKernels:
    """The two ``A^{-1}`` kernels give ``information_inverse`` bit for bit,
    in the operation order of the reference algebra."""

    @pytest.mark.filterwarnings("ignore:power_fraction")
    @pytest.mark.parametrize("fixture", ["problem_rb", "problem_big"])
    @pytest.mark.parametrize("extra_pilots", [0, 3])
    def test_kernels_match_information_inverse(self, request, fixture, extra_pilots):
        problem = request.getfixturevalue(fixture)
        if extra_pilots:
            problem = problem.with_budget(problem.budget + extra_pilots)
        rng = np.random.default_rng(problem.budget)
        P = problem.grid.size
        idx = np.sort(rng.choice(P, size=problem.budget, replace=False)).astype(np.intp)
        pattern = PilotPattern(tuple(idx.tolist()), problem.grid)
        w = project_capped_simplex(2.0 * rng.uniform(size=P), problem.budget)
        allocation = FractionalAllocation(w, problem.budget)
        for kernel, given, public in (
            (pattern_inverse, idx, pattern),
            (allocation_inverse, w, allocation),
        ):
            fast = kernel(problem, given)
            assert np.array_equal(fast, information_inverse(problem, public))
            assert np.array_equal(fast, reference_information_inverse(problem, public))

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
        A = build_A(problem_rb, PilotPattern((0, 1), problem_rb.grid))
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
        assert average_mse(stats_rb, no_pilots, problem_rb.pilot_snr) == pytest.approx(
            1.0, rel=1e-9
        )

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
            state = ObjectiveState.from_pattern(problem_rb, pattern)
            j = int(rng.choice([k for k in range(P) if k not in state.selected]))
            gain = marginal_gain(state, j)
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
        state = ObjectiveState.empty(pr_zero)
        assert marginal_gain(state, 7) == 0.0

    def test_adding_selected_index_rejected(self, problem_rb):
        state = ObjectiveState.from_pattern(
            problem_rb, PilotPattern((0, 1), problem_rb.grid)
        )
        with pytest.raises(CandidateError):
            marginal_gain(state, 0)
        with pytest.raises(CandidateError):
            rank_one_update(state, 1, "add")

    def test_add_then_remove_restores_inverse(self, problem_rb):
        state = ObjectiveState.from_pattern(
            problem_rb, PilotPattern((5, 40, 100), problem_rb.grid)
        )
        original = state.A_inv.copy()
        rank_one_update(state, 77, "add")
        rank_one_update(state, 77, "remove")
        assert np.abs(state.A_inv - original).max() < 1e-9

    def test_sequential_adds_match_oneshot_build(self, problem_rb):
        rng = np.random.default_rng(2)
        indices = rng.choice(problem_rb.grid.size, size=20, replace=False)
        state = ObjectiveState.empty(problem_rb)
        for j in indices:
            rank_one_update(state, int(j), "add")
        oneshot = np.linalg.inv(
            build_A(problem_rb, PilotPattern(tuple(int(i) for i in indices), problem_rb.grid))
        )
        assert np.abs(state.A_inv - oneshot).max() < 1e-8
        assert state.value == pytest.approx(np.trace(oneshot).real, rel=1e-8)

    def test_remove_from_empty_rejected(self, problem_rb):
        state = ObjectiveState.empty(problem_rb)
        with pytest.raises(CandidateError):
            rank_one_update(state, 3, "remove")

    def test_state_invariants(self, problem_rb):
        state = ObjectiveState.from_pattern(
            problem_rb, PilotPattern(tuple(range(14)), problem_rb.grid)
        )
        rank_one_update(state, 50, "add")
        rank_one_update(state, 3, "remove")
        assert np.abs(state.A_inv - state.A_inv.conj().T).max() < 1e-10
        assert state.value == pytest.approx(np.trace(state.A_inv).real, abs=1e-10)


class TestSwapDelta:
    def test_matches_full_recomputation(self, problem_rb):
        rng = np.random.default_rng(3)
        P = problem_rb.grid.size
        for _ in range(25):
            S = [int(i) for i in rng.choice(P, size=14, replace=False)]
            state = ObjectiveState.from_pattern(
                problem_rb, PilotPattern(tuple(S), problem_rb.grid)
            )
            i = int(rng.choice(S))
            j = int(rng.choice([k for k in range(P) if k not in S]))
            delta = swap_delta(state, i, j)
            swapped = tuple(sorted(set(S) - {i} | {j}))
            direct = objective_value(
                problem_rb, PilotPattern(swapped, problem_rb.grid)
            ) - objective_value(problem_rb, PilotPattern(tuple(S), problem_rb.grid))
            assert delta == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_swap_preconditions(self, problem_rb):
        state = ObjectiveState.from_pattern(problem_rb, PilotPattern((0, 1), problem_rb.grid))
        with pytest.raises(CandidateError):
            swap_delta(state, 5, 7)  # 5 not selected
        with pytest.raises(CandidateError):
            swap_delta(state, 0, 1)  # 1 already selected
        with pytest.raises(CandidateError):
            swap_delta(state, 0, 0)  # i = j unsatisfiable

    def test_local_optimum_has_no_improving_swap(self, problem_rb):
        report = local_swap(problem_rb, greedy_design(problem_rb).pattern)
        state = ObjectiveState.from_pattern(problem_rb, report.pattern)
        deltas = [
            swap_delta(state, i, j)
            for i in report.pattern.indices
            for j in range(problem_rb.grid.size)
            if j not in state.selected
        ]
        assert min(deltas) >= -1e-10


class TestSwapDeltas:
    def test_every_pair_matches_swap_delta(self, problem_rb):
        pattern = PilotPattern(tuple(range(0, 168, 12)), problem_rb.grid)
        state = ObjectiveState.from_pattern(problem_rb, pattern)
        selected = sorted(state.selected)
        candidates = [j for j in range(problem_rb.grid.size) if j not in state.selected]
        batched = swap_deltas(problem_rb, state.A_inv, selected, candidates)
        assert batched.shape == (len(selected), len(candidates))
        as_arrays = swap_deltas(
            problem_rb, state.A_inv, np.array(selected, dtype=np.intp), np.array(candidates)
        )
        assert np.array_equal(as_arrays, batched)
        looped = np.array([[swap_delta(state, i, j) for j in candidates] for i in selected])
        assert np.abs(batched - looped).max() <= 1e-9 * state.value

    def test_nonpositive_removal_denominator_raises(self, problem_rb):
        A_inv = information_inverse(problem_rb, PilotPattern((0, 50), problem_rb.grid))
        with pytest.raises(DegenerateUpdateError):
            # 1e6 A^{-1} is no longer the inverse of A.
            swap_deltas(problem_rb, 1e6 * A_inv, [0, 50], [1, 2, 3])


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
        A_inv = np.linalg.inv(build_A(problem_rb, w))
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
        _, C_direct = dense_lmmse(stats, pattern, np.sqrt(pr.pilot_power), pr.noise_var)
        obj = objective_value(pr, pattern)
        assert obj == pytest.approx(np.trace(C_direct).real, rel=1e-8)


class TestPowerFractionWarning:
    def test_warning_names_the_caller(self, stats_rb, problem_rb):
        # Direct construction, make_design_problem and with_budget (the
        # lattice fallback) all name this file, not a library line.
        with pytest.warns(UserWarning, match="power_fraction 2 > 1") as caught:
            DesignProblem(
                grid=problem_rb.grid,
                rows=problem_rb.rows,
                prior=problem_rb.prior,
                budget=14,
                power_fraction=2.0,
                noise_var=0.1,
            )
        assert caught[0].filename == __file__
        with pytest.warns(UserWarning, match="power_fraction 2 > 1") as caught:
            wide = make_design_problem(stats_rb, K=28, snr_db=10.0)  # beta = K/N
        assert caught[0].filename == __file__
        with pytest.warns(UserWarning, match="power_fraction 2 > 1") as caught:
            wide.with_budget(27)
        assert caught[0].filename == __file__


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
