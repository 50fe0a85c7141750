"""Correctness checks the benchmark applies to the program's outputs.

The objective is recomputed here from its definition rather than through the
package, so a wrong objective, pattern size or bound in the program shows up
as a failed operation.
"""

import math

import numpy as np

OBJECTIVE_RTOL = 1e-9  # recomputed objective vs reported objective
BOUND_TOL = 1e-9  # relaxation bound may exceed an integer objective by this much
SWAP_RTOL = 1e-12  # a swap may end this far above its start (rounding noise)
MC_MAX_SE = 4.0  # criterion 5: Monte Carlo within 4 standard errors ...
MC_MAX_REL = 0.02  # ... and 2% of the analytic MSE
# Chance that a correct rounding fails the aggregate marginal test.
ROUNDING_FALSE_ALARM = 1e-4
FRACTIONAL_EPS = 1e-9


class Ledger:
    """Checked operations: how many were attempted and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems


def pilot_snr(power_fraction: float, N: int, K: int, noise_var: float) -> float:
    """alpha = beta * N / (K * noise_var)."""
    return power_fraction * N / (K * noise_var)


def a_optimal_objective(prior, rows, alpha, indices=None, weights=None) -> float:
    """trace((diag(1/lambda) + alpha * sum_i w_i u_i^H u_i)^-1).

    ``u_i`` is row i of ``rows``; ``indices`` selects rows with unit weight,
    ``weights`` gives a fractional weight to every row.  The trace of the
    inverse is summed from the eigenvalues of the Hermitian matrix.
    """
    rows = np.asarray(rows)
    if weights is None:
        U = rows[np.asarray(indices, dtype=int)]
        gram = U.conj().T @ U
    else:
        gram = (rows.conj().T * np.asarray(weights, dtype=float)) @ rows
    A = np.diag(1.0 / np.asarray(prior, dtype=float)) + alpha * gram
    A = 0.5 * (A + A.conj().T)
    return float(np.sum(1.0 / np.linalg.eigvalsh(A)))


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def objective_problems(reported: float, recomputed: float) -> list[str]:
    err = relative_error(reported, recomputed)
    if not err <= OBJECTIVE_RTOL:
        return [f"objective {reported!r} vs recomputed {recomputed!r} (rel {err:.3g})"]
    return []


def bound_problems(bound: float, objective: float) -> list[str]:
    if not bound <= objective + BOUND_TOL * max(1.0, abs(objective)):
        return [f"relaxation bound {bound!r} above integer objective {objective!r}"]
    return []


def swap_problems(initial: float, final: float) -> list[str]:
    if not final <= initial + SWAP_RTOL * max(1.0, abs(initial)):
        return [f"swap raised the objective from {initial!r} to {final!r}"]
    return []


def monte_carlo_problems(empirical: float, analytic: float, standard_error: float) -> list[str]:
    gap = abs(empirical - analytic)
    if gap <= MC_MAX_SE * standard_error and gap <= MC_MAX_REL * analytic:
        return []
    return [
        f"Monte Carlo {empirical!r} vs analytic {analytic!r}: gap {gap:.3g} "
        f"is {gap / standard_error:.2f} SE and {gap / analytic:.3%}"
    ]


def marginal_limit(p: float, n: int, tests: int, false_alarm: float = ROUNDING_FALSE_ALARM) -> float:
    """Deviation t with P(|Bin(n, p) - n p| > t) <= false_alarm / tests.

    Bernstein's inequality for a sum of n independent variables bounded by 1
    with variance v = n p (1 - p) gives P(|S - n p| >= t) <= 2 exp(-t^2 /
    (2 (v + t/3))); solving for the tail probability false_alarm / tests
    keeps the union over ``tests`` coordinates below ``false_alarm``.
    """
    L = math.log(2.0 * tests / false_alarm)
    return L / 3.0 + math.sqrt(L * L / 9.0 + 2.0 * L * n * p * (1.0 - p))


def marginal_problems(target, counts, n: int) -> tuple[list[str], float, float]:
    """Aggregate rounding frequencies against the relaxed marginals.

    Returns (problems, largest deviation in standard errors, the limit in
    standard errors at that coordinate).  Coordinates already integral in the
    allocation must be selected always or never.
    """
    target = np.asarray(target, dtype=float)
    counts = np.asarray(counts, dtype=float)
    fractional = (target > FRACTIONAL_EPS) & (target < 1.0 - FRACTIONAL_EPS)
    problems = []
    fixed = ~fractional
    expected_fixed = n * (target[fixed] > 0.5)
    if np.any(counts[fixed] != expected_fixed):
        problems.append("an integral coordinate changed under rounding")
    tests = max(int(fractional.sum()), 1)
    worst_z, worst_limit = 0.0, 0.0
    for k in np.flatnonzero(fractional):
        p = float(target[k])
        se = math.sqrt(n * p * (1.0 - p))
        dev = abs(counts[k] - n * p)
        limit = marginal_limit(p, n, tests)
        if dev / se >= worst_z:
            worst_z, worst_limit = dev / se, limit / se
        if dev > limit:
            problems.append(f"cell {k}: frequency {counts[k] / n:.5f} vs marginal {p:.5f}")
    return problems, worst_z, worst_limit
