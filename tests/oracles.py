"""Test-scale oracles: dense reference forms the fast kernels are checked
against on small instances (SR existence and normalization, classical-order
Gram-Schmidt, the full Cayley transform, the thin-QR canonical gradient, and
the (W, K) tangent coordinates with the metrics evaluated through them), and
the dense views the package never forms (the Poisson matrix, the perfect
shuffle as a matrix, a separable Jacobian as an array, the
Hamiltonian at one state).  The package never imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from spopt.core import (NumericalFailure, SymplecticPoint, TangentVector, jmul, jtmul, mulj,
                        sym_part, symplectic_inverse)
from spopt.geometry import Metric, MetricKind, _sxy_times_jx
from spopt.hamiltonian import Separable
from spopt.retractions import _inverse_checked
from spopt.sr import Breakdown, _check_shape, desr


def poisson(n: int) -> np.ndarray:
    """Dense Poisson matrix J_{2n} = [[0, I_n], [-I_n, 0]]."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def shuffle_order(k: int) -> np.ndarray:
    """Column indices of the perfect shuffle
    P_{2k} = [e_1, e_3, ..., e_{2k-1}, e_2, e_4, ..., e_{2k}]."""
    return np.r_[0:2 * k:2, 1:2 * k:2]


def shuffle_matrix(k: int) -> np.ndarray:
    """The perfect shuffle P_{2k} as a dense matrix: I[:, shuffle_order(k)]."""
    return np.eye(2 * k)[:, shuffle_order(k)]


def shuffle_cols(k: int, a: np.ndarray) -> np.ndarray:
    """a @ P^T: reorders columns so symplectic pairs (j, k+j) become adjacent."""
    return a[:, np.argsort(shuffle_order(k))]


def unshuffle_cols(k: int, a: np.ndarray) -> np.ndarray:
    """a @ P: the inverse of :func:`shuffle_cols`."""
    return a[:, shuffle_order(k)]


def conjugate(k: int, r: np.ndarray) -> np.ndarray:
    """P r P^T."""
    ix = np.argsort(shuffle_order(k))
    return r[np.ix_(ix, ix)]


def unconjugate(k: int, r_hat: np.ndarray) -> np.ndarray:
    """P^T r_hat P: the inverse of :func:`conjugate`."""
    ix = shuffle_order(k)
    return r_hat[np.ix_(ix, ix)]


def dense_jacobian(g) -> np.ndarray:
    """A Jacobian of a full or reduced model as a dense array: a
    :class:`Separable` as diag(K + diag(v_qq), I), a sparse matrix through
    ``toarray``, an array (every reduced model's) as it is."""
    if not isinstance(g, Separable):
        return g.toarray() if sp.issparse(g) else np.asarray(g)
    n = g.k.shape[0]
    dense = np.zeros((2 * n, 2 * n))
    dense[:n, :n] = g.k.toarray()
    dense[np.arange(n), np.arange(n)] += g.v_qq
    dense[n:, n:] = np.eye(n)
    return dense


def hamiltonian(system, x: np.ndarray) -> float:
    """H (or the reduced Ht) of a full or reduced system at one state."""
    return float(system.energies(x[:, None])[0])


class RankDeficient(NumericalFailure):
    """The point is numerically rank-deficient; no orthonormal complement."""


class SingularSystem(NumericalFailure):
    """A coordinate-extraction system is numerically singular."""


def sgs_basic(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classical-order symplectic Gram-Schmidt in shuffled column order:
    (S_hat, R_hat) with A = S_hat R_hat.

    Every coefficient block R_hat[i, j] = J_2^T S_i^T J A_j is computed from
    the original columns before subtracting.  Kept for oracle comparisons;
    prefer :func:`spopt.sr.sgs_modified`.
    """
    a = _check_shape(a)
    n2, k2 = a.shape
    k = k2 // 2
    s_hat = np.empty_like(a)
    r_hat = np.zeros((k2, k2))
    for j in range(k):
        aj = a[:, 2 * j: 2 * j + 2]
        w = aj.copy()
        for i in range(j):
            si = s_hat[:, 2 * i: 2 * i + 2]
            rij = jtmul(si.T @ jmul(aj))
            r_hat[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = rij
            w -= si @ rij
        try:
            pair = desr(w)
        except Breakdown as exc:
            raise Breakdown(j, exc.omega) from None
        s_hat[:, 2 * j: 2 * j + 2] = pair.s.entries
        r_hat[2 * j: 2 * j + 2, 2 * j: 2 * j + 2] = pair.r
    return s_hat, r_hat


def even_minor_check(a: np.ndarray, rel_tol: float = 1e-10) -> bool:
    """Existence oracle: are all even leading minors of P A^T J A P^T nonzero?

    "Nonzero" is judged by the smallest singular value of each leading block
    relative to ||A^T J A||_2.  Exponential in nothing but still O(k^4) dense
    work; intended for small test instances only.
    """
    a = _check_shape(a)
    k = a.shape[1] // 2
    gram = a.T @ jmul(a)
    b = conjugate(k, gram)
    scale = np.linalg.norm(gram, 2)
    if scale == 0.0:
        return False
    for j in range(1, k + 1):
        sub = b[: 2 * j, : 2 * j]
        smin = np.linalg.svd(sub, compute_uv=False)[-1]
        if smin <= rel_tol * scale:
            return False
    return True


def in_normalized_triangular_set(r: np.ndarray, atol: float = 0.0) -> bool:
    """Check membership of R in the normalized set fixing SR uniqueness.

    Conjugating by the perfect shuffle must give an upper triangular matrix
    with, per 2x2 diagonal block, zero super-entry, positive first entry, and
    equal absolute values on the diagonal.
    """
    r = np.asarray(r, dtype=float)
    k = r.shape[0] // 2
    r_hat = conjugate(k, r)
    if not np.allclose(r_hat, np.triu(r_hat), atol=atol, rtol=0.0):
        return False
    for j in range(k):
        d1, d2 = r_hat[2 * j, 2 * j], r_hat[2 * j + 1, 2 * j + 1]
        if abs(r_hat[2 * j, 2 * j + 1]) > atol:
            return False
        if not d1 > 0.0:
            return False
        if abs(abs(d2) - d1) > atol + 1e-15 * d1:
            return False
    return True


def cayley_full(x: SymplecticPoint, z, check: bool = True) -> SymplecticPoint:
    """Full-size Cayley transform (I - S J/2)^{-1} (I + S J/2) X.

    S is the canonical projection intermediate built from G_X Z; the solve is
    2n-by-2n, so this form is the oracle, not the workhorse.
    """
    e = x.entries
    ze = np.asarray(getattr(z, "entries", z), dtype=float)
    n2 = e.shape[0]
    gz = ze - 0.5 * e @ jmul(e.T @ jtmul(ze))
    xj = mulj(e)
    s = gz @ xj.T + xj @ gz.T
    half = 0.5 * mulj(s)
    lhs = np.eye(n2) - half
    rhs = (np.eye(n2) + half) @ e
    out = _inverse_checked(lhs, (e, ze)) @ rhs
    return SymplecticPoint.from_entries(out, check=check)


def canonical_gradient_qr(metric: Metric, x: SymplecticPoint,
                          egrad: np.ndarray) -> TangentVector:
    """Canonical-like Riemannian gradient with Xperp Xperp^T = I - Q Q^T from
    a thin QR of X.

    The reference for the Cholesky form in
    :func:`spopt.geometry.riemannian_gradient`: the same operator H_X, with
    the orthogonal projector applied to cond(X) eps instead of cond(X)^2 eps.
    """
    e = x.entries
    g = np.asarray(egrad, dtype=float)
    v = jtmul(g)
    q, _ = np.linalg.qr(e)
    proj = v - q @ (q.T @ v)
    hg = 0.5 * metric.rho * e @ (e.T @ g) + jmul(proj)
    return TangentVector(x, _sxy_times_jx(x, hg))


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
