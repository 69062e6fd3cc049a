"""Riemannian gradient descent with alternating Barzilai-Borwein trial steps
and non-monotone backtracking.

The reference value for the sufficient-decrease test is an exponentially
weighted average c of past costs (weight alpha); with alpha = 0 the method
reduces to plain monotone Armijo backtracking.  Trial steps alternate between
the two Barzilai-Borwein formulas based on the parity of the iteration index,
then are clamped to [gamma_min, gamma_max].

A problem is any object with ``evaluate(x) -> Evaluation``.  Each trial point
is evaluated once; the Euclidean gradient at an accepted point is derived
from that evaluation's intermediates.

The search-direction slope g(grad f, Z) is evaluated through the gradient
duality g(grad f, Z) = tr(egrad^T Z), which holds for every tangent Z under
either metric, so no coordinate extraction is ever needed.  A retraction
failure (singular Cayley resolvent, SR breakdown) during backtracking counts
as a rejected step and shrinks the step size; it never aborts the run.  Each
rejection is logged at DEBUG level with its reason.

Deterministic given (problem, X0, options): there is no internal randomness.
"""

from __future__ import annotations

import enum
import logging
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Protocol

import numpy as np

from .core import NumericalFailure, SymplecticPoint, checked_number, symplecticity_residual
from .geometry import Metric, riemannian_gradient
from .retractions import RETRACTION_ERRORS, RetractionKind, retract

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Evaluation:
    """A smooth cost at one 2n-by-2k array; ``gradient()`` derives the
    Euclidean gradient there from intermediates the cost kept.  Costs must be
    well defined off the manifold (smooth extension), which the line search
    and the finite-difference validation rely on.
    """

    cost: float
    gradient: Callable[[], np.ndarray]


class Objective(Protocol):
    def evaluate(self, x: np.ndarray) -> Evaluation: ...


@dataclass(frozen=True)
class SolverOptions:
    metric: Metric = field(default_factory=Metric.euclidean)
    retraction: RetractionKind = RetractionKind.SR
    gtol: float = 1e-8
    niter: int = 1000
    beta: float = 1e-4
    delta: float = 1e-1
    gamma0: float = 1e-3
    gamma_min: float = 1e-15
    gamma_max: float = 1e5
    alpha: float = 0.85
    max_backtracks: int = 30

    def __post_init__(self):
        for name in ("niter", "max_backtracks"):
            checked_number(name, getattr(self, name), int)
        for name in ("gtol", "beta", "delta", "gamma0", "gamma_min", "gamma_max", "alpha"):
            checked_number(name, getattr(self, name))
        if not 0 < self.beta < 1 or not 0 < self.delta < 1:
            raise ValueError("beta and delta must lie in (0, 1)")
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0 < self.gamma_min < self.gamma_max:
            raise ValueError("need 0 < gamma_min < gamma_max")
        if self.gtol <= 0 or self.niter < 1 or self.gamma0 <= 0:
            raise ValueError("gtol, niter, gamma0 must be positive")
        if self.max_backtracks < 0:
            raise ValueError(f"max_backtracks must be >= 0, got {self.max_backtracks}")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    cost: float
    grad_norm: float
    feasibility: float
    tau: float
    backtracks: int
    time_s: float


@dataclass
class SolverTrace:
    """Per-iteration records; ``records[0]`` describes the initial point."""

    records: list[TraceRecord] = field(default_factory=list)

    @property
    def iteration_records(self) -> list[TraceRecord]:
        return self.records[1:]

    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.records])

    def feasibilities(self) -> np.ndarray:
        return np.array([r.feasibility for r in self.records])

    @property
    def iterations(self) -> int:
        return len(self.records) - 1


class SolverStatus(enum.Enum):
    GRAD_TOLERANCE_REACHED = "grad-tolerance-reached"
    MAX_ITERATIONS = "max-iterations"
    LINE_SEARCH_FAILED = "line-search-failed"


@dataclass
class SolverResult:
    x_final: SymplecticPoint
    trace: SolverTrace
    status: SolverStatus


class LineSearchError(NumericalFailure):
    """No acceptable step within the backtracking budget."""


class SearchResult(NamedTuple):
    """Accepted line-search step: the step size, the new iterate, its
    evaluation (cost and gradient source) and the number of rejected trials."""

    tau: float
    x_next: SymplecticPoint
    evaluation: Evaluation
    backtracks: int


def bb_trial_step(i: int, w_prev: np.ndarray, y_prev: np.ndarray,
                  gamma_min: float, gamma_max: float) -> float:
    """Alternating Barzilai-Borwein trial step, clamped to [gamma_min, gamma_max].

    Odd i: ||W||_F^2 / |tr(W^T Y)|; even i: |tr(W^T Y)| / ||Y||_F^2, where
    W = X_i - X_{i-1} and Y = Z_i - Z_{i-1}.  Degenerate denominators fall
    back to gamma_min.
    """
    if i < 1:
        raise ValueError("the BB step needs at least one completed iteration")
    wy = abs(float(np.vdot(w_prev, y_prev)))
    yy = float(np.vdot(y_prev, y_prev))
    if i % 2 == 1:
        gamma = float(np.vdot(w_prev, w_prev)) / wy if wy > 0.0 else gamma_min
    else:
        gamma = wy / yy if yy > 0.0 else gamma_min
    if not np.isfinite(gamma):
        gamma = gamma_min
    return float(min(max(gamma, gamma_min), gamma_max))


def nonmonotone_search(problem: Objective, retraction: RetractionKind,
                       x: SymplecticPoint, z: np.ndarray, gamma: float,
                       c_ref: float, beta: float = 1e-4, delta: float = 1e-1,
                       max_backtracks: int = 30, *, slope: float) -> SearchResult:
    """Find the smallest l with f(R(tau Z)) <= c_ref + beta tau g(grad f, Z),
    tau = gamma delta^l.

    ``slope`` is g(grad f, Z), which equals tr(egrad^T Z) by duality.  Each
    trial point is evaluated once; retraction failures, non-finite costs and
    insufficient decrease are rejections, logged at DEBUG level.  Raises
    :class:`LineSearchError` after ``max_backtracks`` rejections.
    """
    for ell in range(max_backtracks + 1):
        tau = gamma * delta**ell
        try:
            x_next = retract(retraction, x, tau * z, check=False)
        except RETRACTION_ERRORS as exc:
            logger.debug("backtrack %d, tau=%.3e rejected: %s",
                         ell, tau, type(exc).__name__)
            continue
        ev = problem.evaluate(x_next.entries)
        if np.isfinite(ev.cost) and ev.cost <= c_ref + beta * tau * slope:
            return SearchResult(tau, x_next, ev, ell)
        logger.debug("backtrack %d, tau=%.3e rejected: %s", ell, tau,
                     "insufficient decrease" if np.isfinite(ev.cost)
                     else "non-finite cost")
    raise LineSearchError(
        f"no acceptable step within {max_backtracks} backtracks (gamma={gamma:.3e})"
    )


def minimize(problem: Objective, x0: SymplecticPoint,
             options: SolverOptions | None = None) -> SolverResult:
    """Riemannian gradient descent on Sp(2k, 2n); see the module docstring.

    Stops when ||grad f(X_i)||_F <= gtol or after ``niter`` iterations;
    a failed line search surfaces in ``status`` with the last iterate kept.
    A non-finite cost or gradient norm at ``x0`` raises
    :class:`~spopt.core.NumericalFailure`.
    """
    opts = options or SolverOptions()
    start = time.perf_counter()

    x = x0
    ev = problem.evaluate(x.entries)
    f, egrad = ev.cost, ev.gradient()
    grad = riemannian_gradient(opts.metric, x, egrad)
    gnorm = grad.norm()
    if not (np.isfinite(f) and np.isfinite(gnorm)):
        raise NumericalFailure(f"non-finite initial cost {f} or gradient norm {gnorm}")

    trace = SolverTrace()
    trace.records.append(TraceRecord(0, f, gnorm, symplecticity_residual(x.entries),
                                     0.0, 0, 0.0))
    q, c = 1.0, f
    prev_x = prev_z = None
    status = SolverStatus.MAX_ITERATIONS

    for i in range(opts.niter):
        if gnorm <= opts.gtol:
            status = SolverStatus.GRAD_TOLERANCE_REACHED
            break
        z = -grad.entries
        if i > 0:
            gamma = bb_trial_step(i, x.entries - prev_x, z - prev_z,
                                  opts.gamma_min, opts.gamma_max)
        else:
            gamma = min(max(opts.gamma0, opts.gamma_min), opts.gamma_max)
        slope = -float(np.vdot(egrad, grad.entries))
        try:
            step = nonmonotone_search(problem, opts.retraction, x, z, gamma, c,
                                      opts.beta, opts.delta, opts.max_backtracks,
                                      slope=slope)
        except LineSearchError:
            status = SolverStatus.LINE_SEARCH_FAILED
            break
        prev_x, prev_z = x.entries, z
        x, ev = step.x_next, step.evaluation
        f = ev.cost
        q_next = opts.alpha * q + 1.0
        c = (opts.alpha * q * c + f) / q_next
        q = q_next
        egrad = ev.gradient()
        grad = riemannian_gradient(opts.metric, x, egrad)
        gnorm = grad.norm()
        trace.records.append(TraceRecord(
            i + 1, f, gnorm, symplecticity_residual(x.entries),
            step.tau, step.backtracks, time.perf_counter() - start,
        ))
    else:
        if gnorm <= opts.gtol:
            status = SolverStatus.GRAD_TOLERANCE_REACHED

    return SolverResult(x, trace, status)
