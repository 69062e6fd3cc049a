import logging

import numpy as np
import pytest

from spopt.applications import TargetProblem, sum_gate
from spopt.core import NumericalFailure, SymplecticPoint
from spopt.geometry import Metric
from spopt.optimizer import (
    Evaluation,
    LineSearchError,
    SolverOptions,
    SolverStatus,
    bb_trial_step,
    minimize,
    nonmonotone_search,
)
from spopt.retractions import RetractionKind

from conftest import random_point

EUCLID = Metric.euclidean()
CANON = Metric.canonical_like(0.5)

ALL_SCHEMES = [
    (CANON, RetractionKind.CAYLEY_ECONOMICAL),
    (EUCLID, RetractionKind.CAYLEY_ECONOMICAL),
    (CANON, RetractionKind.QUASI_GEODESIC),
    (EUCLID, RetractionKind.QUASI_GEODESIC),
    (CANON, RetractionKind.SR),
    (EUCLID, RetractionKind.SR),
]


class TestBbTrialStep:
    def test_unit_curvature(self, rng):
        w = rng.standard_normal((6, 4))
        assert np.isclose(bb_trial_step(1, w, w, 1e-15, 1e5), 1.0)
        assert np.isclose(bb_trial_step(2, w, w, 1e-15, 1e5), 1.0)

    def test_odd_formula_scaling(self, rng):
        y = rng.standard_normal((6, 4))
        w = 2.0 * y
        # for proportional W = cY both formulas reduce to c
        assert np.isclose(bb_trial_step(1, w, y, 1e-15, 1e5), 2.0)
        assert np.isclose(bb_trial_step(2, w, y, 1e-15, 1e5), 2.0)

    def test_parity_selects_formula(self, rng):
        w = rng.standard_normal((6, 4))
        y = rng.standard_normal((6, 4))
        wy = abs(float(np.sum(w * y)))
        odd = float(np.sum(w * w)) / wy
        even = wy / float(np.sum(y * y))
        assert np.isclose(bb_trial_step(1, w, y, 1e-15, 1e5), odd)
        assert np.isclose(bb_trial_step(2, w, y, 1e-15, 1e5), even)
        assert not np.isclose(odd, even)

    def test_degenerate_denominator(self, rng):
        w = rng.standard_normal((4, 4))
        y = np.zeros((4, 4))
        assert bb_trial_step(1, w, y, 1e-15, 1e5) == 1e-15
        assert bb_trial_step(2, w, y, 1e-15, 1e5) == 1e-15
        # orthogonal W and Y: tr(W^T Y) = 0
        w = np.zeros((4, 4)); w[0, 0] = 1.0
        y = np.zeros((4, 4)); y[1, 1] = 1.0
        assert bb_trial_step(1, w, y, 1e-15, 1e5) == 1e-15

    def test_clamped(self, rng):
        y = rng.standard_normal((4, 4))
        assert bb_trial_step(1, 1e9 * y, y, 1e-15, 1e5) == 1e5

    def test_requires_history(self, rng):
        with pytest.raises(ValueError):
            bb_trial_step(0, np.eye(2), np.eye(2), 1e-15, 1.0)


class Callables:
    """An ad-hoc problem from separate cost and Euclidean-gradient callables."""

    def __init__(self, cost, euclidean_gradient):
        self.cost = cost
        self.euclidean_gradient = euclidean_gradient

    def evaluate(self, x):
        return Evaluation(float(self.cost(x)), lambda: self.euclidean_gradient(x))


def _target(n, k, rng, offset=1.0):
    w = random_point(n, k, rng)
    prob = TargetProblem(w.entries)
    return prob, w


class TestNonmonotoneSearch:
    def test_constant_cost_accepts_immediately(self, rng):
        x = random_point(5, 2, rng)
        z = -np.zeros_like(x.entries)
        problem = Callables(lambda m: 1.0, lambda m: np.zeros_like(m))
        res = nonmonotone_search(problem, RetractionKind.SR, x,
                                 np.zeros_like(x.entries), 1e-3, 1.0, slope=0.0)
        assert res.backtracks == 0

    def test_huge_trial_step_shrinks(self, rng):
        problem, w = _target(5, 2, rng)
        x = random_point(5, 2, np.random.default_rng(99))
        egrad = problem.euclidean_gradient(x.entries)
        from spopt.geometry import riemannian_gradient
        grad = riemannian_gradient(EUCLID, x, egrad)
        z = -grad.entries
        res = nonmonotone_search(problem, RetractionKind.SR, x, z,
                                 1e6, problem.cost(x.entries),
                                 slope=float(np.vdot(egrad, z)))
        assert res.backtracks > 0

    def test_tiny_trial_step_accepts(self, rng):
        problem, w = _target(5, 2, rng)
        x = random_point(5, 2, np.random.default_rng(99))
        egrad = problem.euclidean_gradient(x.entries)
        from spopt.geometry import riemannian_gradient
        grad = riemannian_gradient(EUCLID, x, egrad)
        z = -grad.entries
        res = nonmonotone_search(problem, RetractionKind.SR, x, z,
                                 1e-9, problem.cost(x.entries),
                                 slope=float(np.vdot(egrad, z)))
        assert res.backtracks == 0

    def test_exhaustion_raises(self, rng):
        # an adversarial cost that always increases
        x = random_point(4, 2, rng)
        problem = Callables(lambda m: float(np.linalg.norm(m - x.entries)**2 + 1e-3
                                            * (np.linalg.norm(m - x.entries) > 0)),
                            lambda m: 2.0 * (m - x.entries))
        with pytest.raises(LineSearchError):
            nonmonotone_search(problem, RetractionKind.SR, x,
                               np.ones_like(x.entries) * 0 + 1e-6, 1.0, 0.0,
                               max_backtracks=3, slope=-1.0)


class TestRejectionLogging:
    def test_retraction_breakdown_logged(self, rng, caplog):
        # the full step X + Z = 0 has only isotropic column pairs
        problem, w = _target(5, 2, rng)
        x = random_point(5, 2, np.random.default_rng(99))
        with caplog.at_level(logging.DEBUG, logger="spopt.optimizer"):
            res = nonmonotone_search(problem, RetractionKind.SR, x, -x.entries,
                                     1.0, problem.cost(x.entries) + 1e3, slope=0.0)
        assert res.backtracks == 1
        messages = [r.getMessage() for r in caplog.records]
        assert messages == ["backtrack 0, tau=1.000e+00 rejected: Breakdown"]

    def test_non_finite_and_insufficient_decrease_logged(self, rng, caplog):
        x = random_point(4, 2, rng)
        costs = iter([np.nan, 5.0, 0.5])
        problem = Callables(lambda m: next(costs), lambda m: np.zeros_like(m))
        with caplog.at_level(logging.DEBUG, logger="spopt.optimizer"):
            res = nonmonotone_search(problem, RetractionKind.SR, x,
                                     np.zeros_like(x.entries), 1.0, 1.0, slope=0.0)
        assert res.backtracks == 2 and res.evaluation.cost == 0.5
        reasons = [r.getMessage().split(": ", 1)[1] for r in caplog.records]
        assert reasons == ["non-finite cost", "insufficient decrease"]


class TestMinimize:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_initial_cost_raises(self, value):
        # a NaN target used to return line-search-failed after 0 iterations
        w = sum_gate().entries.copy()
        w[0, 1] = value
        x0 = SymplecticPoint.from_entries(np.eye(4))
        with pytest.raises(NumericalFailure, match="non-finite initial cost"):
            minimize(TargetProblem(w), x0)

    def test_non_finite_initial_gradient_raises(self, rng):
        x0 = random_point(3, 1, rng)
        problem = Callables(lambda m: 1.0, lambda m: np.full_like(m, np.nan))
        with pytest.raises(NumericalFailure, match="gradient norm nan"):
            minimize(problem, x0)

    def test_critical_start_returns_immediately(self, rng):
        w = sum_gate()
        prob = TargetProblem(w.entries)
        res = minimize(prob, w, SolverOptions(gtol=1e-12, niter=100))
        assert res.status is SolverStatus.GRAD_TOLERANCE_REACHED
        assert res.trace.iterations == 0
        assert np.array_equal(res.x_final.entries, w.entries)

    @pytest.mark.parametrize("metric,retr", ALL_SCHEMES)
    def test_sum_gate_euclidean_fast_canonical_slower(self, metric, retr):
        prob = TargetProblem(sum_gate().entries)
        x0 = SymplecticPoint.from_entries(np.eye(4))
        opts = SolverOptions(metric=metric, retraction=retr, gtol=1e-12, niter=500)
        res = minimize(prob, x0, opts)
        assert res.trace.records[-1].cost <= 1e-12
        if metric.kind.value == "euclidean":
            assert res.trace.iterations <= 50

    def test_saddle_start_converges_to_nonminimum(self):
        prob = TargetProblem(sum_gate().entries)
        x0 = SymplecticPoint.from_entries(np.diag([1.728, -1.2, 1 / 1.728, -1 / 1.2]))
        opts = SolverOptions(metric=EUCLID, retraction=RetractionKind.SR,
                             gtol=1e-12, niter=2000)
        res = minimize(prob, x0, opts)
        assert res.status is SolverStatus.GRAD_TOLERANCE_REACHED
        assert res.trace.records[-1].cost > 1.0

    @pytest.mark.parametrize("metric,retr", ALL_SCHEMES)
    def test_all_schemes_reach_gtol_on_strongly_convex_target(self, metric, retr, rng):
        # small shear-to-shear instance of the artificial-data problem
        n = 6
        v = rng.standard_normal((n, n)); v = 0.5 * (v + v.T)
        y = rng.standard_normal((n, n)); y = 0.5 * (y + y.T)
        eye, zero = np.eye(n), np.zeros((n, n))
        w = np.block([[eye, zero], [0.2 * v, eye]])
        x0 = SymplecticPoint.from_entries(np.block([[eye, 0.2 * y], [zero, eye]]))
        prob = TargetProblem(w)
        opts = SolverOptions(metric=metric, retraction=retr, gtol=1e-10, niter=3000)
        res = minimize(prob, x0, opts)
        assert res.trace.records[-1].grad_norm <= 1e-10

    def test_surrogate_monotonicity_and_reference_bounds(self, rng):
        # replay the non-monotone acceptance test from the trace and check
        # that c_i stays inside the past-cost envelope
        prob = TargetProblem(sum_gate().entries)
        x0 = SymplecticPoint.from_entries(np.diag([1.728, -1.2, 1 / 1.728, -1 / 1.2]))
        opts = SolverOptions(metric=CANON, retraction=RetractionKind.CAYLEY_ECONOMICAL,
                             gtol=1e-12, niter=500)
        res = minimize(prob, x0, opts)
        costs = res.trace.costs()
        alpha, beta = opts.alpha, opts.beta
        q, c = 1.0, costs[0]
        for i, rec in enumerate(res.trace.iteration_records):
            slope_term = beta * rec.tau  # slope < 0; bound with zero slope
            assert rec.cost <= c + 1e-12 * max(1.0, abs(c))
            assert np.min(costs[: i + 1]) - 1e-12 <= c <= np.max(costs[: i + 1]) + 1e-12
            q_next = alpha * q + 1.0
            c = (alpha * q * c + rec.cost) / q_next
            q = q_next

    def test_alpha_zero_is_monotone_armijo(self, rng):
        prob = TargetProblem(sum_gate().entries)
        x0 = SymplecticPoint.from_entries(np.diag([1.728, -1.2, 1 / 1.728, -1 / 1.2]))
        opts = SolverOptions(metric=EUCLID, retraction=RetractionKind.SR,
                             gtol=1e-12, niter=500, alpha=0.0)
        res = minimize(prob, x0, opts)
        costs = res.trace.costs()
        assert np.all(np.diff(costs) <= 1e-13)

    def test_feasibility_recorded_and_small(self, rng):
        prob = TargetProblem(sum_gate().entries)
        x0 = SymplecticPoint.from_entries(np.eye(4))
        opts = SolverOptions(metric=EUCLID, retraction=RetractionKind.SR,
                             gtol=1e-12, niter=500)
        res = minimize(prob, x0, opts)
        assert np.all(res.trace.feasibilities() <= 1e-10)

    def test_deterministic(self):
        prob = TargetProblem(sum_gate().entries)
        x0 = SymplecticPoint.from_entries(np.diag([1.728, -1.2, 1 / 1.728, -1 / 1.2]))
        opts = SolverOptions(metric=EUCLID, retraction=RetractionKind.SR,
                             gtol=1e-12, niter=200)
        r1 = minimize(prob, x0, opts)
        r2 = minimize(prob, x0, opts)
        assert np.array_equal(r1.x_final.entries, r2.x_final.entries)
        assert np.array_equal(r1.trace.costs(), r2.trace.costs())

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(beta=1.5)
        with pytest.raises(ValueError):
            SolverOptions(gamma_min=1.0, gamma_max=0.5)
        with pytest.raises(ValueError):
            SolverOptions(alpha=1.5)

    @pytest.mark.parametrize("field", ["niter", "max_backtracks"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_integer_fields_need_integers(self, field, value):
        # a float niter used to raise from range() inside the solver loop
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            SolverOptions(**{field: value})

    @pytest.mark.parametrize("field", ["gtol", "beta", "delta", "gamma0", "gamma_min",
                                       "gamma_max", "alpha"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_float_fields_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SolverOptions(**{field: value})

    @pytest.mark.parametrize("value", ["1e-8", None, False])
    def test_float_fields_need_numbers(self, value):
        with pytest.raises(TypeError, match="gtol must be a number"):
            SolverOptions(gtol=value)

    def test_negative_backtrack_budget_rejected(self):
        with pytest.raises(ValueError, match="max_backtracks"):
            SolverOptions(max_backtracks=-1)
        assert SolverOptions(max_backtracks=0).max_backtracks == 0
