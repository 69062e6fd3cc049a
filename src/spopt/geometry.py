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
so no 2n-by-2n matrix and no explicit complement is ever formed on the hot
path.  The explicit complement and the (W, K) coordinate extraction are
test-scale facilities with cubic cost in 2(n-k).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .core import (
    NumericalFailure,
    SymplecticPoint,
    TangentVector,
    jmul,
    jtmul,
    mulj,
    skew_part,
    sym_part,
    symplectic_inverse,
)


class RankDeficient(NumericalFailure):
    """The point is numerically rank-deficient; no orthonormal complement."""


class SingularSystem(NumericalFailure):
    """A coordinate-extraction system is numerically singular."""


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


@dataclass(frozen=True)
class ComplementBasis:
    """Orthonormal basis of range(X)^perp: X^T Xperp = 0, Xperp^T Xperp = I."""

    base: SymplecticPoint
    entries: np.ndarray

    @cached_property
    def form(self) -> np.ndarray:
        """The restricted symplectic form Xperp^T J Xperp (skew, nonsingular)."""
        return self.entries.T @ jmul(self.entries)


@dataclass(frozen=True)
class TangentCoordinates:
    """Coordinates (W, K) of Z = X J W + J Xperp K with W symmetric."""

    w: np.ndarray
    k: np.ndarray


def orthonormal_complement(x: SymplecticPoint) -> ComplementBasis:
    """Extend a thin orthogonal factorization of X to a full basis.

    Raises :class:`RankDeficient` when the smallest singular value of X is
    below 1e-10 times the largest.  For k = n the complement is empty and all
    downstream formulas degrade to their square-case forms.
    """
    e = x.entries
    sv = np.linalg.svd(e, compute_uv=False)
    if sv[-1] < 1e-10 * sv[0]:
        raise RankDeficient(f"singular value ratio {sv[-1] / sv[0]:.3e}")
    q, _ = scipy.linalg.qr(e, mode="full")
    return ComplementBasis(x, np.ascontiguousarray(q[:, e.shape[1]:]))


def tangent_coordinates(x: SymplecticPoint, complement: ComplementBasis,
                        z) -> TangentCoordinates:
    """Recover (W, K) from a tangent vector; dense solve, test-scale only."""
    ze = np.asarray(getattr(z, "entries", z), dtype=float)
    w = sym_part(jtmul(symplectic_inverse(x) @ ze))
    rhs = complement.entries.T @ ze
    form = complement.form
    if form.size == 0:
        k = np.zeros((0, ze.shape[1]))
    else:
        cond = np.linalg.cond(form)
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularSystem(f"restricted form condition {cond:.3e}")
        k = np.linalg.solve(form, rhs)
    return TangentCoordinates(w, k)


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


def riemannian_gradient(metric: Metric, x: SymplecticPoint, egrad: np.ndarray,
                        complement: ComplementBasis | None = None) -> TangentVector:
    """Riemannian gradient from the Euclidean gradient of a smooth extension.

    Defined by g(grad f(X), Z) = tr(egrad^T Z) for all tangent Z.  Canonical:
    S_{X,egrad} J X with H_X in place of G_X; Euclidean: egrad - J X Omega.
    When no complement is supplied the canonical branch applies
    Xperp Xperp^T = I - Q Q^T through a thin QR of X.
    """
    e = x.entries
    g = np.asarray(egrad, dtype=float)
    if metric.kind is MetricKind.EUCLIDEAN:
        omega = euclidean_normal_coefficient(x, g)
        z = g - jmul(e @ omega)
        return TangentVector(x, z)
    v = jtmul(g)
    if complement is not None:
        xp = complement.entries
        proj = xp @ (xp.T @ v)
    else:
        q, _ = np.linalg.qr(e)
        proj = v - q @ (q.T @ v)
    hg = 0.5 * metric.rho * e @ (e.T @ g) + jmul(proj)
    return TangentVector(x, _sxy_times_jx(e, hg))


def metric_inner(metric: Metric, x: SymplecticPoint,
                 complement: ComplementBasis | None, z1, z2) -> float:
    """Inner product of two tangent vectors at X under the chosen metric.

    The canonical-like branch extracts (W, K) coordinates and therefore
    needs an explicit complement; the optimizer never calls it, evaluating
    g(grad f, Z) through the gradient duality instead.
    """
    z1e = np.asarray(getattr(z1, "entries", z1), dtype=float)
    z2e = np.asarray(getattr(z2, "entries", z2), dtype=float)
    if metric.kind is MetricKind.EUCLIDEAN:
        return float(np.sum(z1e * z2e))
    if complement is None:
        complement = orthonormal_complement(x)
    c1 = tangent_coordinates(x, complement, z1e)
    c2 = tangent_coordinates(x, complement, z2e)
    return float(np.sum(c1.w * c2.w) / metric.rho + np.sum(c1.k * c2.k))
