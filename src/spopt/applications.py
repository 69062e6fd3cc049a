"""Application problems: symplectic targets, trace minimization with
Williamson post-processing, and the building blocks of symplectic model
reduction (PSD cost, cotangent lift, DEIM).

Cost functions and their Euclidean gradients are defined on all of matrix
space (smooth extensions), so central finite differences are always a valid
oracle; the PSD gradient in particular is gated behind that check in the test
suite before any model-reduction run trusts it.  ``evaluate`` derives each
gradient from the cost's intermediates (X - W, A X, or the PSD residual and
X^T J L).  The PSD cost runs on a thin factor L of the snapshots, whose
width is their numerical rank.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg

from .core import (
    NumericalFailure,
    SymplecticPoint,
    jmul,
    jtmul,
    mulj,
    skew_part,
    sym_part,
)
from .geometry import NotSPD
from .optimizer import Evaluation, SolverOptions, SolverResult, SolverStatus, minimize
from .sr import sgs

__all__ = [
    "TargetProblem", "TraceProblem", "PsdProblem", "SymplecticSpectrum",
    "sum_gate",
    "gauss_transform", "random_symplectic_orthogonal", "spsd_test_matrix",
    "williamson_small", "williamson_spsd", "symplectic_eigenpairs",
    "cotangent_lift", "deim_select", "deim_reduced_rhs", "exact_reduced_rhs",
    "DeimOperator", "random_symplectic_point", "SingularSelection",
]


#: Relative eigenvalue threshold of the symplectic null space in Williamson.
NULL_TOL = 1e-8


class SingularSelection(NumericalFailure):
    """An intermediate interpolation block in the greedy selection is singular."""


# ---------------------------------------------------------------------------
# cost functions


@dataclass(frozen=True)
class TargetProblem:
    """Distance-to-target cost f(X) = ||X - W||_F^2."""

    w: np.ndarray

    def evaluate(self, x: np.ndarray) -> Evaluation:
        d = x - self.w
        return Evaluation(float(np.linalg.norm(d) ** 2), lambda: 2.0 * d)

    def cost(self, x: np.ndarray) -> float:
        return self.evaluate(x).cost

    def euclidean_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x).gradient()


@dataclass(frozen=True)
class TraceProblem:
    """Trace cost f(X) = tr(X^T A X) for symmetric positive-(semi)definite A.

    Its minimum over Sp(2k, 2n) is twice the sum of the k smallest symplectic
    eigenvalues of A.
    """

    a: np.ndarray
    k: int

    def __post_init__(self):
        if not np.isfinite(self.a).all():
            raise ValueError("A must be finite")
        if np.linalg.norm(self.a - self.a.T) > 1e-12 * max(1.0, np.linalg.norm(self.a)):
            raise ValueError("A must be symmetric")

    def evaluate(self, x: np.ndarray) -> Evaluation:
        ax = self.a @ x
        return Evaluation(float(np.vdot(x, ax)), lambda: 2.0 * ax)

    def cost(self, x: np.ndarray) -> float:
        return self.evaluate(x).cost

    def euclidean_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x).gradient()


def _psd_residual(x: np.ndarray, a: np.ndarray, ja: np.ndarray):
    """PSD residual E = A - X J^T C with C = X^T J A, returned with C."""
    c = x.T @ ja
    e = x @ jtmul(c)
    np.subtract(a, e, out=e)
    return e, c


@dataclass(frozen=True)
class PsdProblem:
    """Proper symplectic decomposition cost f(X) = ||A - X X^+ A||_F^2.

    Invariant under right-multiplication of X by any symplectic 2k-by-2k
    matrix, since X X^+ depends only on the symplectic subspace.  The cost
    and its gradient depend on A only through A A^T, so construction replaces
    the 2n-by-s snapshots by the thin factor L = U_r Sigma_r of one SVD, with
    r the numerical rank at numpy's ``matrix_rank`` tolerance; L and J L are
    the only data kept.
    """

    snapshots: InitVar[np.ndarray]
    k: int
    factor: np.ndarray = field(init=False, repr=False, compare=False)
    jl: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, snapshots):
        a = np.asarray(snapshots, dtype=float)
        u, sv, _ = np.linalg.svd(a, full_matrices=False)
        tol = sv.max(initial=0.0) * max(a.shape) * np.finfo(float).eps
        r = int(np.count_nonzero(sv > tol))
        factor = np.ascontiguousarray(u[:, :r] * sv[:r])
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "jl", jmul(factor))

    def residual(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """E = L - X J^T C with C = X^T J L, returned with C."""
        return _psd_residual(x, self.factor, self.jl)

    def evaluate(self, x: np.ndarray) -> Evaluation:
        e, c = self.residual(x)
        return Evaluation(float(np.linalg.norm(e) ** 2),
                          lambda: self._gradient(x, e, c))

    def _gradient(self, x: np.ndarray, e: np.ndarray, c: np.ndarray) -> np.ndarray:
        # adjoint of dPi = dX J^T X^T J + X J^T dX^T J applied to -2E, with
        # L^T J^T X = C^T: 2 (J L E^T X - E C^T) J
        d = self.jl @ (x.T @ e).T
        d -= e @ c.T
        d *= 2.0
        return mulj(d)

    def cost(self, x: np.ndarray) -> float:
        return self.evaluate(x).cost

    def euclidean_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x).gradient()


def sum_gate() -> SymplecticPoint:
    """The 4-by-4 SUM gate; symplectic by construction."""
    w = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, -1.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    return SymplecticPoint.from_entries(w)


# ---------------------------------------------------------------------------
# constructions


def random_symplectic_point(n: int, k: int, seed: int = 0) -> SymplecticPoint:
    """Seeded feasible point: the symplectic factor of a Gaussian matrix."""
    rng = np.random.default_rng(seed)
    return sgs(rng.standard_normal((2 * n, 2 * k))).s


def gauss_transform(n: int, l: int, c: float, d: float) -> np.ndarray:
    """Symplectic Gauss transformation: identity except a 2-by-2 scaling
    block c at rows l-1, l, its inverse at rows n+l-1, n+l, and the coupling
    entries d at (l-1, n+l) and (l, n+l-1) (1-based indices)."""
    if not 2 <= l <= n:
        raise ValueError(f"need 2 <= l <= n, got l={l}, n={n}")
    if c == 0.0:
        raise ValueError("c must be nonzero")
    out = np.eye(2 * n)
    i, j = l - 2, l - 1  # 0-based row/col of the scaled pair
    out[i, i] = out[j, j] = c
    out[n + i, n + i] = out[n + j, n + j] = 1.0 / c
    out[i, n + j] = d
    out[j, n + i] = d
    return out


def random_symplectic_orthogonal(n: int, seed: int = 0) -> np.ndarray:
    """Orthogonal and symplectic 2n-by-2n matrix from a random unitary.

    Draws a complex Gaussian matrix, orthonormalizes it, fixes the phases of
    the triangular factor's diagonal for uniqueness, and embeds the unitary
    as [[Re U, Im U], [-Im U, Re U]].  Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    q = q * (np.conj(diag) / np.abs(diag))
    return np.block([[q.real, q.imag], [-q.imag, q.real]])


def spsd_test_matrix(n: int, m: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """SPSD matrix with known symplectic spectrum and symplectic null space.

    A = J Q diag(D, D) (J Q)^T with D = diag(0, ..., 0, m+1, ..., n) (m zeros)
    and Q the product of a random symplectic-orthogonal matrix and a Gauss
    transform L(round(n/5), 1.2, -sqrt(n/5)).  Returns (A, diag of D); the
    symplectic spectrum of A equals that diagonal and A has rank 2(n - m).
    """
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
    l = int(round(n / 5))
    if l < 2:
        raise ValueError(f"n={n} too small: round(n/5) must be at least 2")
    k_mat = random_symplectic_orthogonal(n, seed)
    q = k_mat @ gauss_transform(n, l, 1.2, -np.sqrt(n / 5))
    d = np.concatenate([np.zeros(m), np.arange(m + 1, n + 1, dtype=float)])
    jq = jmul(q)
    a = jq @ (np.concatenate([d, d])[:, None] * jq.T)
    return sym_part(a), d


# ---------------------------------------------------------------------------
# Williamson post-processing


def williamson_small(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Williamson diagonal form of an SPD 2k-by-2k matrix.

    Returns (S, d) with S symplectic, S^T M S = diag(d, d), and d positive
    nondecreasing.  Construction: the real canonical form of the skew matrix
    M^{-1/2} J M^{-1/2} is obtained from a real Schur decomposition, its 2-by-2
    blocks are normalized and ordered, and the symplectic congruence is
    assembled from M^{-1/2} and the block frequencies.
    """
    m = np.asarray(m, dtype=float)
    lam, u = np.linalg.eigh(sym_part(m))
    if lam[0] <= 0.0:
        raise NotSPD(f"smallest eigenvalue {lam[0]:.3e}")
    inv_sqrt = (u * lam**-0.5) @ u.T
    wt = skew_part(inv_sqrt @ jmul(inv_sqrt))
    t, q = scipy.linalg.schur(wt, output="real")
    k = m.shape[0] // 2
    xs, ys, mus = [], [], []
    for j in range(k):
        b = t[2 * j, 2 * j + 1]
        xcol, ycol = q[:, 2 * j], q[:, 2 * j + 1]
        if b < 0.0:
            xcol, ycol, b = ycol, xcol, -b
        xs.append(xcol)
        ys.append(ycol)
        mus.append(b)
    order = np.argsort(-np.asarray(mus), kind="stable")
    mus = np.asarray(mus)[order]
    qb = np.column_stack([xs[i] for i in order] + [ys[i] for i in order])
    s = inv_sqrt @ (qb * np.concatenate([mus, mus]) ** -0.5)
    return s, 1.0 / mus


def williamson_spsd(m: np.ndarray, scale_hint: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Williamson form extended to SPSD matrices with a symplectic null space.

    Eigenvectors below ``NULL_TOL`` relative to max(largest eigenvalue,
    ``scale_hint``) are treated as the null space, whose odd count moves to
    the neighbouring even count with the wider eigenvalue gap.  They are
    symplectically normalized by an SR factorization, the problem is deflated
    to the J-orthogonal complement, and the SPD Williamson form is applied
    there.
    The reported values are read back from the diagonal of S^T M S, so
    near-zero values reflect the actual residuals rather than being forced to
    zero.  ``scale_hint`` guards the case of a numerically zero input, where
    the largest eigenvalue itself sits at roundoff level.
    """
    m = sym_part(np.asarray(m, dtype=float))
    lam, u = np.linalg.eigh(m)
    scale = max(float(lam[-1]), float(scale_hint), 0.0)
    m_null = int(np.sum(lam <= NULL_TOL * scale))
    if m_null % 2:
        # an odd count splits a pair: cut where the eigenvalue ratio is larger,
        # eigenvalues floored at roundoff and bounded by the floor and the scale
        eps = np.finfo(float).eps * scale
        edges = np.concatenate([[eps], np.maximum(lam, eps), [scale]])
        up = edges[m_null + 2] / edges[m_null + 1]
        m_null += 1 if up > edges[m_null] / edges[m_null - 1] else -1
    null = np.arange(lam.size) < m_null
    if m_null == 0:
        s, d = williamson_small(m)
    elif m_null == m.shape[0]:
        s = sgs(u).s.entries
    else:
        s0 = sgs(u[:, null]).s.entries
        basis = scipy.linalg.null_space(s0.T @ jmul(np.eye(m.shape[0])))
        s1 = sgs(basis).s.entries
        m1 = sym_part(s1.T @ m @ s1)
        sw, _ = williamson_small(m1)
        sp = s1 @ sw
        h, r = m_null // 2, (m.shape[0] - m_null) // 2
        s = np.column_stack([s0[:, :h], sp[:, :r], s0[:, h:], sp[:, r:]])
    k = m.shape[0] // 2
    smslike = s.T @ m @ s
    d = 0.5 * (np.diag(smslike)[:k] + np.diag(smslike)[k:])
    order = np.argsort(d, kind="stable")
    s = s[:, np.concatenate([order, order + k])]
    return s, d[order]


@dataclass
class SymplecticSpectrum:
    """Computed symplectic eigenvalues with paired eigenvectors and residuals.

    ``values`` is nondecreasing; the pair (u_j, v_j) satisfies
    A u = d J v and A v = -d J u up to ``residuals[j]``.
    """

    values: np.ndarray
    u_vectors: np.ndarray
    v_vectors: np.ndarray
    residuals: np.ndarray
    diagonalizer_orthogonality: float
    solver_result: SolverResult


def symplectic_eigenpairs(a: np.ndarray, k: int,
                          solver_options: SolverOptions | None = None, *,
                          x0: SymplecticPoint) -> SymplecticSpectrum:
    """The k smallest symplectic eigenvalues of an SPSD matrix by trace
    minimization followed by Williamson post-processing.

    The solver minimizes tr(X^T A X) over Sp(2k, 2n) from ``x0`` (trial
    steps capped at 1 by default for this problem class), then diagonalizes
    X*^T A X*; the eigenvector pairs are the j-th and (j+k)-th columns of
    X* S.  Solver non-convergence is surfaced as a warning, with residuals
    reported either way.
    """
    a = np.asarray(a, dtype=float)
    if x0.entries.shape != (a.shape[0], 2 * k):
        rows, cols = x0.entries.shape
        raise ValueError(f"x0 is {rows} x {cols} (k={cols // 2}), but k={k} needs "
                         f"{a.shape[0]} x {2 * k}")
    prob = TraceProblem(a, k)
    if solver_options is None:
        solver_options = SolverOptions(gtol=1e-12, niter=5000, gamma_max=1.0)
    result = minimize(prob, x0, solver_options)
    if result.status is not SolverStatus.GRAD_TOLERANCE_REACHED:
        warnings.warn(
            f"trace minimization ended with {result.status.value}; "
            "eigenvalue residuals may be large", stacklevel=2)
    xs = result.x_final.entries
    small = sym_part(xs.T @ (a @ xs))
    # a numerically zero X^T A X (all requested values zero) must still be
    # classified as null space: floor the scale at NULL_TOL times the ambient
    # problem size so the relative test cannot collapse
    hint = NULL_TOL * np.linalg.norm(a, 2) * np.linalg.norm(xs, 2) ** 2
    s, d = williamson_spsd(small, scale_hint=hint)
    vecs = xs @ s
    u, v = vecs[:, :k], vecs[:, k:]
    res = np.empty((k, 2))
    for j in range(k):
        res[j, 0] = np.linalg.norm(a @ u[:, j] - d[j] * jmul(v[:, j]))
        res[j, 1] = np.linalg.norm(a @ v[:, j] + d[j] * jmul(u[:, j]))
    ortho_dev = float(np.linalg.norm(s.T @ s - np.eye(2 * k)))
    return SymplecticSpectrum(d, u, v, res, ortho_dev, result)


# ---------------------------------------------------------------------------
# model-reduction building blocks


def cotangent_lift(snapshots: np.ndarray, k: int) -> SymplecticPoint:
    """Block-diagonal orthosymplectic basis diag(Xhat, Xhat) from snapshots.

    Xhat holds the k leading left singular vectors of the stacked matrix
    [top-half snapshots, bottom-half snapshots].
    """
    a = np.asarray(snapshots, dtype=float)
    n = a.shape[0] // 2
    s = a.shape[1]
    if not 1 <= k <= min(n, 2 * s):
        raise ValueError(f"need 1 <= k <= min(n, 2s) = {min(n, 2 * s)}, got {k}")
    stacked = np.column_stack([a[:n], a[n:]])
    u, _, _ = np.linalg.svd(stacked, full_matrices=False)
    return _block_diag_lift(u[:, :k])


def _block_diag_lift(xhat: np.ndarray) -> SymplecticPoint:
    n, k = xhat.shape
    out = np.zeros((2 * n, 2 * k))
    out[:n, :k] = xhat
    out[n:, k:] = xhat
    return SymplecticPoint.from_entries(out)


def deim_select(v: np.ndarray) -> np.ndarray:
    """Greedy interpolation-index selection for a full-column-rank basis V.

    The first index maximizes |V[:, 0]|; each later index maximizes the
    residual of the next column against interpolation at the indices chosen
    so far.  Indices are distinct by the exactness of interpolation at
    selected rows.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] < 1:
        raise ValueError(f"expected a (2n, m) basis, got shape {v.shape}")
    first = float(np.max(np.abs(v[:, 0])))
    if first == 0.0:
        raise SingularSelection("first basis column is zero")
    indices = [int(np.argmax(np.abs(v[:, 0])))]
    for j in range(1, v.shape[1]):
        sel = np.array(indices)
        block = v[sel, :j]
        try:
            coef = np.linalg.solve(block, v[sel, j])
        except np.linalg.LinAlgError as exc:
            raise SingularSelection(f"singular interpolation block at step {j}") from exc
        r = v[:, j] - v[:, :j] @ coef
        i = int(np.argmax(np.abs(r)))
        if abs(r[i]) == 0.0:
            raise SingularSelection(f"zero residual at step {j}: basis rank-deficient")
        indices.append(i)
    return np.array(indices)


@dataclass(frozen=True)
class DeimOperator:
    """Reduced Hamiltonian vector field with an interpolated nonlinearity.

    For a sitewise nonlinearity h = sum_i V(q_i, p_i, i) (see
    ``hamiltonian.Nonlinearity``), component j of grad h reads only the pair
    (q_i, p_i) of its site i = j mod n.  Offline the operator keeps
    U^T M U, the oblique projection factor B = U^T V (P^T V)^{-1} and the
    two m x 2k maps R_q, R_p from xt to (q_i, p_i) at the sites of the m
    selected components, stacked in ``sample``.  Online, ``__call__``
    evaluates the slope on those m pairs and returns the vector field
    J (U^T M U xt + B gradh), and :meth:`jacobian` evaluates the curvature
    and returns the Jacobian as a plain dense 2k x 2k array, so neither
    costs O(n) and a reduced Newton matrix is factored as any dense one is.
    A selection of q-components only (as Vlasov's, whose gradient has no
    p-half) or of p-components only reads the matching derivative without
    a per-component ``np.where``.

    J is applied by negating rows in place and swapping the halves of the
    result, never by moving a row of a matrix: a BLAS matrix-vector product
    rounds a row by where it sits, so each product keeps the shape, memory
    order and row positions of U^T M U xt + B gradh, and the vector field
    is that sum times J bit for bit.
    """

    reduced_mass: np.ndarray     # U^T M U
    oblique: np.ndarray          # B, 2k x m
    indices: np.ndarray          # selected components j
    sites: np.ndarray            # j mod n
    on_q: np.ndarray             # j < n
    sample: np.ndarray           # 2m x 2k: xt -> (q, p) at the sites
    slope: Callable
    curvature: Callable
    dim: int                     # 2n

    @cached_property
    def _half(self) -> str | None:
        """"q" or "p" if every selected component lies in that half."""
        if self.on_q.all():
            return "q"
        return None if self.on_q.any() else "p"

    def _pick(self, at_q, at_p):
        """at_q at the selected q-components, at_p at the p-components.  A
        scalar (the zero a ``Nonlinearity`` may return) stays a scalar where
        the selection reads only its half, or both halves read it."""
        half = self._half
        if half is not None:
            return at_q if half == "q" else at_p
        if isinstance(at_q, np.ndarray) or isinstance(at_p, np.ndarray) or at_q != at_p:
            return np.where(self.on_q, at_q, at_p)
        return at_q

    def state(self, xt: np.ndarray) -> np.ndarray:
        """Full-length state holding the selected entries of the sampled state,
        for one xt or for each column of a 2k x B block.

        For the structure-preserving variant this is the sparse state
        P (V^T P)^{-1} V^T U xt at which the nonlinearity is evaluated.
        """
        qp = self.sample @ xt
        m = self.sites.size
        full = np.zeros((self.dim, *xt.shape[1:]))
        # transposed, a block's m x B samples meet the length-m mask along sites
        full[self.indices] = np.where(self.on_q, qp[:m].T, qp[m:].T).T
        return full

    @cached_property
    def _sample_t(self) -> tuple[np.ndarray, np.ndarray]:
        """R_q^T and R_p^T, each 2k x m."""
        m = self.sites.size
        return np.ascontiguousarray(self.sample[:m].T), np.ascontiguousarray(self.sample[m:].T)

    @cached_property
    def _negated_top(self) -> tuple[np.ndarray, np.ndarray]:
        """U^T M U and B with their first k rows negated, each in its own
        memory order: a product with one is the product with the original,
        its first k entries negated, bit for bit."""
        k = self.reduced_mass.shape[0] // 2
        sign = np.ones((2 * k, 1))
        sign[:k] = -1.0
        return self.reduced_mass * sign, np.asfortranarray(self.oblique * sign)

    def __call__(self, xt: np.ndarray) -> np.ndarray:
        # ndarray.dot calls the same BLAS routine as @ with less overhead
        qp = self.sample.dot(xt)
        m = self.sites.size
        v = self._pick(*self.slope(qp[:m], qp[m:], self.sites))
        if not isinstance(v, np.ndarray):
            v = np.full(m, v)
        mass, oblique = self._negated_top
        g = mass.dot(xt)
        g += oblique.dot(v)
        # g is U^T M U xt + B v with its first half negated; J swaps the halves
        k = g.size // 2
        return np.concatenate((g[k:], g[:k]))

    def jacobian(self, xt: np.ndarray) -> np.ndarray:
        """The dense 2k x 2k Jacobian U^T M U + B (a R_q + b R_p), the row
        scalings from one curvature call.

        R_q, R_p are the two halves of ``sample``; a, b are the derivatives of
        each selected component by the q and the p of its site.  A scalar
        zero b (Vlasov: V_qp = V_pp = 0) drops the b R_p term.
        """
        qp = self.sample.dot(xt)
        m = self.sites.size
        v_qq, v_qp, v_pp = self.curvature(qp[:m], qp[m:], self.sites)
        a, b = self._pick(v_qq, v_qp), self._pick(v_qp, v_pp)
        # scaled as transposes, a or b runs along the rows' last axis
        r_q, r_p = self._sample_t
        rows = r_q * a
        if not _is_scalar_zero(b):
            rows += r_p * b
        g = self.oblique.dot(rows.T)
        g += self.reduced_mass
        return g


def _is_scalar_zero(v) -> bool:
    """Whether a derivative is the scalar 0.0 that a ``Nonlinearity`` may
    return for one that vanishes."""
    return not isinstance(v, np.ndarray) and v == 0.0


def _sampled_operator(reduced_mass, oblique, indices, state_map, nonlin):
    # state_map (2n x 2k) sends xt to the state the nonlinearity reads
    n = state_map.shape[0] // 2
    sites = indices % n
    sample = np.concatenate([state_map[sites], state_map[sites + n]])
    return DeimOperator(reduced_mass, oblique, indices, sites, indices < n,
                        sample, nonlin.slope, nonlin.curvature, 2 * n)


def deim_reduced_rhs(u, reduced_mass, v: np.ndarray, indices: np.ndarray, nonlin,
                     variant: str = "psd-deim") -> DeimOperator:
    """Assemble the reduced nonlinear vector field for a ROM.

    variant "psd-deim":            J (U^T M U xt + B gradh(U xt) at the indices);
    variant "structure-preserving": the nonlinearity is evaluated at the
    sparse state P (V^T P)^{-1} V^T U xt instead, which keeps the reduced
    model Hamiltonian at the price of approximation quality.  A site's
    partner entry that was not selected reads as zero there.

    ``reduced_mass`` is U^T M U; ``nonlin`` supplies the per-site ``slope``
    and ``curvature``.
    """
    if variant not in ("psd-deim", "structure-preserving"):
        raise ValueError(f"unknown variant {variant!r}")
    ue = np.asarray(getattr(u, "entries", u), dtype=float)
    indices = np.asarray(indices, dtype=int)
    vp = v[indices]  # P^T V, m x m
    try:
        oblique = np.linalg.solve(vp.T, (ue.T @ v).T).T
    except np.linalg.LinAlgError as exc:
        raise SingularSelection("P^T V is singular") from exc
    state_map = ue
    if variant == "structure-preserving":
        state_map = np.zeros_like(ue)
        state_map[indices] = np.linalg.solve(vp.T, v.T @ ue)  # (V^T P)^{-1} V^T U
    return _sampled_operator(reduced_mass, oblique, indices, state_map, nonlin)


def exact_reduced_rhs(u, reduced_mass, nonlin) -> DeimOperator:
    """J U^T grad H(U xt) as the interpolation at every component (P = V = I)
    the slope can make nonzero: the q-half alone when its p-derivative is
    the scalar zero (sine-Gordon, Vlasov), else all 2n."""
    ue = np.asarray(getattr(u, "entries", u), dtype=float)
    n = ue.shape[0] // 2
    zero = np.zeros(n)
    read = n if _is_scalar_zero(nonlin.slope(zero, zero, slice(None))[1]) else 2 * n
    indices = np.arange(read)
    return _sampled_operator(reduced_mass, ue[:read].T, indices, ue, nonlin)
