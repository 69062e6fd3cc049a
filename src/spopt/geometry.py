"""Riemannian structure: metrics, projections, and gradients.

Two metrics are supported on the tangent spaces of Sp(2k, 2n).  Writing a
tangent vector as Z = X J_{2k} W + J_{2n} Xperp K with W symmetric:

* canonical-like, parameter rho > 0:
      g(Z1, Z2) = (1/rho) tr(W1^T W2) + tr(K1^T K2)
* Euclidean:
      g(Z1, Z2) = tr(Z1^T Z2)

The Euclidean projection/gradient route solves a small skew-symmetric
Lyapunov equation with the SPD coefficient X^T X: by a few one-GEMM
fixed-point steps when X^T X is within 1/8 of a multiple of I, else by one
``dsyevd``.  The canonical route composes the operators

    G_X = I - (1/2) X J X^T J^T          (projection)
    H_X = (rho/2) X X^T + J Xperp Xperp^T J^T   (gradient)

applied as chains of 2n-by-2k products; Xperp Xperp^T is applied as the
orthogonal projector v - X (X^T X)^{-1} X^T v through a Cholesky factor of
the 2k-by-2k X^T X, so no 2n-by-2n matrix, no orthonormal basis and no
explicit complement is ever formed.  Every 2k-by-2k factorization is one
direct LAPACK call; a failed one raises :class:`NotSPD`.  The explicit
complement, the (W, K) coordinate extraction, the metric inner products
built on it and the thin-QR form of the canonical gradient are test-scale
oracles kept in the test suite, not in the package.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .core import (
    NumericalFailure,
    SymplecticPoint,
    TangentVector,
    checked_number,
    jmul,
    jtmul,
    skew_part,
)


class NotSPD(NumericalFailure):
    """The Lyapunov coefficient matrix is not symmetric positive definite."""


class MetricKind(enum.Enum):
    CANONICAL_LIKE = "canonical-like"
    EUCLIDEAN = "euclidean"


@dataclass(frozen=True)
class Metric:
    """Tagged metric choice; ``rho`` is used only by the canonical-like kind."""

    kind: MetricKind
    rho: float = 0.5

    def __post_init__(self):
        if checked_number("rho", self.rho) <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")

    @classmethod
    def canonical_like(cls, rho: float = 0.5) -> "Metric":
        return cls(MetricKind.CANONICAL_LIKE, rho)

    @classmethod
    def euclidean(cls) -> "Metric":
        return cls(MetricKind.EUCLIDEAN)


_EPS = np.finfo(float).eps
# Largest delta = ||P - mu I||_F / mu at which solve_skew_lyapunov iterates (at
# most 18 steps).  Measured crossover, the step count at which the iteration
# costs as much as dsyevd (one BLAS thread): 3-5 at 2k = 10, 11-17 at 20, 18-21
# at 40 and 80, 10-12 at 160, so it iterates at a loss only for delta above
# about 1e-3 at 2k = 10, 0.04 at 20 and 0.03 at 160.  The wave basis
# optimization (2k = 40, delta <= 3.6e-3, 2-7 steps) iterates; desk trace
# minimization (2k = 10, delta >= 0.71) stays on dsyevd.
ITERATION_MAX_DELTA = 0.125


def solve_skew_lyapunov(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve P Omega + Omega P = C for skew C and SPD P.

    With finite mu = tr(P)/2k > 0, D = P - mu I and delta = ||D||_F / mu at most
    ``ITERATION_MAX_DELTA``: ceil(ln eps / ln max(delta, eps)) steps of Omega <-
    (C - (D Omega + Omega D)) / (2 mu) from C / (2 mu), one GEMM each (T - T^T,
    T = D Omega, exactly skew), contract by ||D||_2 / mu <= delta to an error
    below eps ||Omega||.  Else divide by eigenvalue sums in the eigenbasis of P
    (``dsyevd``) and re-skew-symmetrize, raising :class:`NotSPD` when P is not
    numerically SPD or holds a NaN or infinity.  Raises ``ValueError`` unless P
    is square and non-empty and C has its shape.
    """
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    k2 = p.shape[0] if p.ndim == 2 else 0
    if k2 == 0 or p.shape != (k2, k2) or c.shape != p.shape:
        raise ValueError(f"need non-empty square P and C of its shape, got {p.shape}, {c.shape}")
    mu = p.trace() / k2
    # ||P||_F^2 = 2k mu^2 + ||D||_F^2 screens without a copy; dnrm2 cannot underflow
    if 0.0 < mu < math.inf and np.vdot(p, p) <= (k2 + ITERATION_MAX_DELTA**2) * mu * mu:
        d = p.copy()
        d.flat[::k2 + 1] -= mu
        delta = blas.dnrm2(d.ravel()) / mu
        if delta <= ITERATION_MAX_DELTA:
            omega = c / (2.0 * mu)
            for _ in range(math.ceil(math.log(_EPS) / math.log(max(delta, _EPS)))):
                t = d.dot(omega)
                omega = (c - (t - t.T)) / (2.0 * mu)
            return omega
    lam, u, info = lapack.dsyevd(p, lower=1)
    if info != 0 or not lam.min() > 0.0:
        raise NotSPD(f"smallest eigenvalue {lam.min():.3e} (dsyevd info={info})")
    ct = u.T.dot(c).dot(u)
    omega = u.dot(ct / (lam[:, None] + lam[None, :])).dot(u.T)
    return skew_part(omega)


def euclidean_normal_coefficient(x: SymplecticPoint, y: np.ndarray) -> np.ndarray:
    """The skew Omega with P_e^perp(Y) = J X Omega, from the Lyapunov equation."""
    e = x.entries
    m = x.jx.T.dot(y)  # X^T J^T Y
    return solve_skew_lyapunov(e.T.dot(e), m - m.T)


# The canonical-metric helpers below read J X and X^T J X from the point;
# products with X J are rewritten through J X and 2k-by-2k swaps (X^T J^T Y =
# (J X)^T Y, X J M = X (J M)), so they form no other 2n-by-2k block swap.


def _apply_gx(x: SymplecticPoint, y: np.ndarray) -> np.ndarray:
    # G_X y = y - (1/2) X J_{2k} X^T J_{2n}^T y
    return y - x.entries.dot(jmul(0.5 * x.jx.T.dot(y)))


def _sxy_times_jx(x: SymplecticPoint, gy: np.ndarray) -> np.ndarray:
    # S J X with S = gy (XJ)^T + XJ gy^T, using only tall-skinny products:
    # (XJ)^T J X = J^T (X^T J X) and XJ gy^T J X = X J (gy^T J X)
    out = gy.dot(jtmul(x.xtjx))
    out += x.entries.dot(jmul(gy.T.dot(x.jx)))
    return out


def project_tangent(metric: Metric, x: SymplecticPoint, y) -> TangentVector:
    """Orthogonal projection of an ambient Y onto the tangent space at X.

    Canonical-like: P(Y) = S_{X,Y} J X with S_{X,Y} built from G_X Y.
    Euclidean: P(Y) = Y - J X Omega_{X,Y}.
    """
    ye = np.asarray(getattr(y, "entries", y), dtype=float)
    if metric.kind is MetricKind.EUCLIDEAN:
        omega = euclidean_normal_coefficient(x, ye)
        z = ye - jmul(x.entries.dot(omega))
    else:
        z = _sxy_times_jx(x, _apply_gx(x, ye))
    return TangentVector(x, z)


def riemannian_gradient(metric: Metric, x: SymplecticPoint,
                        egrad: np.ndarray) -> TangentVector:
    """Riemannian gradient from the Euclidean gradient of a smooth extension.

    Defined by g(grad f(X), Z) = tr(egrad^T Z) for all tangent Z.  Euclidean:
    the Euclidean projection egrad - J X Omega.  Canonical: S_{X,egrad} J X
    with H_X in place of G_X, where J Xperp Xperp^T J^T egrad = egrad -
    J X (X^T X)^{-1} X^T J^T egrad is applied through the Cholesky factor of
    X^T X (``dpotrf``/``dpotrs``).  Its error grows like cond(X)^2 eps, against
    cond(X) eps for the thin-QR form the test suite checks it against.
    Raises :class:`NotSPD` when X^T X is not numerically positive definite.
    """
    if metric.kind is MetricKind.EUCLIDEAN:
        return project_tangent(metric, x, egrad)
    e, jx = x.entries, x.jx
    g = np.asarray(egrad, dtype=float)
    chol, info = lapack.dpotrf(e.T.dot(e))
    # a NaN passes dpotrf with info = 0 but reaches the factor's diagonal
    if info != 0 or not math.isfinite(chol.trace()):
        raise NotSPD(f"X^T X is not positive definite (dpotrf info={info})")
    coef, _ = lapack.dpotrs(chol, jx.T.dot(g))  # (X^T X)^{-1} X^T J^T egrad
    # H_X egrad = (rho/2) X X^T egrad + egrad - J X coef
    hg = e.dot((0.5 * metric.rho) * e.T.dot(g))
    hg += g
    hg -= jx.dot(coef)
    return TangentVector(x, _sxy_times_jx(x, hg))
