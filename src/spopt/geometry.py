"""Riemannian structure: metrics, projections, and gradients.

Two metrics are supported on the tangent spaces of Sp(2k, 2n).  Writing a
tangent vector as Z = X J_{2k} W + J_{2n} Xperp K with W symmetric:

* canonical-like, parameter rho > 0:
      g(Z1, Z2) = (1/rho) tr(W1^T W2) + tr(K1^T K2)
* Euclidean:
      g(Z1, Z2) = tr(Z1^T Z2)

The Euclidean projection/gradient route solves a small skew-symmetric
Lyapunov equation with the SPD coefficient X^T X.  The canonical route
composes the operators

    G_X = I - (1/2) X J X^T J^T          (projection)
    H_X = (rho/2) X X^T + J Xperp Xperp^T J^T   (gradient)

applied as chains of 2n-by-2k products; Xperp Xperp^T is applied through the
orthogonal projector I - Q Q^T with Q a thin orthonormal basis of range(X),
so no 2n-by-2n matrix and no explicit complement is ever formed.  The
explicit complement, the (W, K) coordinate extraction and the metric inner
products built on it are test-scale oracles in :mod:`spopt.oracles`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    NumericalFailure,
    SymplecticPoint,
    TangentVector,
    jmul,
    jtmul,
    mulj,
    skew_part,
    sym_part,
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
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")

    @classmethod
    def canonical_like(cls, rho: float = 0.5) -> "Metric":
        return cls(MetricKind.CANONICAL_LIKE, rho)

    @classmethod
    def euclidean(cls) -> "Metric":
        return cls(MetricKind.EUCLIDEAN)


def solve_skew_lyapunov(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve P Omega + Omega P = C for skew C and SPD P.

    Symmetric eigendecomposition of P followed by elementwise division by
    eigenvalue sums; the result is re-skew-symmetrized.  Unconditionally
    stable for SPD P at O(k^3) cost.
    """
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    lam, u = np.linalg.eigh(sym_part(p))
    if lam[0] <= 0.0:
        raise NotSPD(f"smallest eigenvalue {lam[0]:.3e}")
    ct = u.T @ c @ u
    omega = u @ (ct / (lam[:, None] + lam[None, :])) @ u.T
    return skew_part(omega)


def euclidean_normal_coefficient(x: SymplecticPoint, y: np.ndarray) -> np.ndarray:
    """The skew Omega with P_e^perp(Y) = J X Omega, from the Lyapunov equation."""
    e = x.entries
    c = 2.0 * skew_part(e.T @ jtmul(y))
    return solve_skew_lyapunov(e.T @ e, c)


def _apply_gx(e: np.ndarray, y: np.ndarray) -> np.ndarray:
    # G_X y = y - (1/2) X J_{2k} X^T J_{2n}^T y
    return y - 0.5 * e @ jmul(e.T @ jtmul(y))


def _sxy_times_jx(e: np.ndarray, gy: np.ndarray) -> np.ndarray:
    # S J X with S = gy (XJ)^T + XJ gy^T, using only tall-skinny products
    xj = mulj(e)
    jx = jmul(e)
    return gy @ (xj.T @ jx) + xj @ (gy.T @ jx)


def project_tangent(metric: Metric, x: SymplecticPoint, y) -> TangentVector:
    """Orthogonal projection of an ambient Y onto the tangent space at X.

    Canonical-like: P(Y) = S_{X,Y} J X with S_{X,Y} built from G_X Y.
    Euclidean: P(Y) = Y - J X Omega_{X,Y}.
    """
    ye = np.asarray(getattr(y, "entries", y), dtype=float)
    e = x.entries
    if metric.kind is MetricKind.EUCLIDEAN:
        omega = euclidean_normal_coefficient(x, ye)
        z = ye - jmul(e @ omega)
    else:
        z = _sxy_times_jx(e, _apply_gx(e, ye))
    return TangentVector(x, z)


def riemannian_gradient(metric: Metric, x: SymplecticPoint,
                        egrad: np.ndarray) -> TangentVector:
    """Riemannian gradient from the Euclidean gradient of a smooth extension.

    Defined by g(grad f(X), Z) = tr(egrad^T Z) for all tangent Z.  Euclidean:
    the Euclidean projection egrad - J X Omega.  Canonical: S_{X,egrad} J X
    with H_X in place of G_X, applying Xperp Xperp^T = I - Q Q^T through a
    thin QR of X.
    """
    if metric.kind is MetricKind.EUCLIDEAN:
        return project_tangent(metric, x, egrad)
    e = x.entries
    g = np.asarray(egrad, dtype=float)
    v = jtmul(g)
    q, _ = np.linalg.qr(e)
    proj = v - q @ (q.T @ v)
    hg = 0.5 * metric.rho * e @ (e.T @ g) + jmul(proj)
    return TangentVector(x, _sxy_times_jx(e, hg))
