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
from scipy.linalg import lapack

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


def solve_skew_lyapunov(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve P Omega + Omega P = C for skew C and SPD P.

    Symmetric eigendecomposition of P (LAPACK ``dsyevd`` on its lower
    triangle) followed by elementwise division by eigenvalue sums; the result
    is re-skew-symmetrized.  Unconditionally stable for SPD P at O(k^3) cost.
    Raises :class:`NotSPD` when the eigensolver fails or the smallest
    eigenvalue is not positive, which includes a NaN in P.
    """
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
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
