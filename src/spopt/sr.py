"""SR factorization by symplectic Gram-Schmidt.

An SR decomposition writes A = S R with S in Sp(2k, 2n) and R in the
normalized permuted-triangular set T0: conjugating R by the perfect shuffle
gives an upper triangular matrix whose 2x2 diagonal blocks are diagonal with
zero super-entry, positive first entry, and matched absolute values.  That
normalization makes the factors unique.

The workhorse processes two columns at a time.  A pair (a1, a2) with
omega = a1^T J a2 != 0 is rescaled into a symplectic pair; omega == 0 means
the pair spans an isotropic subspace and no decomposition exists, reported as
:class:`Breakdown`.  Existence for the full matrix is equivalent to all even
leading minors of the shuffled Gram matrix P A^T J A P^T being nonzero;
:func:`even_minor_check` evaluates that condition directly and is kept as a
small-scale oracle (minor evaluation is far more expensive than running the
factorization itself).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dims, NumericalFailure, SymplecticPoint, jmul, perfect_shuffle

#: Relative threshold on |omega| below which a column pair counts as isotropic.
DEFAULT_BREAKDOWN_TOL = 1e-14


class Breakdown(NumericalFailure):
    """No SR decomposition: an isotropic column pair was encountered."""

    def __init__(self, pair_index: int, omega: float):
        self.pair_index = pair_index
        self.omega = omega
        super().__init__(
            f"isotropic column pair {pair_index}: |a1^T J a2| = {abs(omega):.3e}"
        )


@dataclass(frozen=True)
class DesrFactors:
    """Two-column factors A = [s1, s2] diag(r11, r22) with s1^T J s2 = 1."""

    s1: np.ndarray
    s2: np.ndarray
    r11: float
    r22: float

    @property
    def omega(self) -> float:
        return self.r11 * self.r22

    def s(self) -> np.ndarray:
        return np.column_stack([self.s1, self.s2])

    def r(self) -> np.ndarray:
        return np.diag([self.r11, self.r22])


@dataclass(frozen=True)
class PspsFactors:
    """Shuffled-order factors A = S_hat R_hat with S_hat^T J S_hat = diag(J_2, ...)."""

    s_hat: np.ndarray
    r_hat: np.ndarray


@dataclass(frozen=True)
class SrFactors:
    """Factors A = S R with S symplectic and R in the normalized triangular set."""

    s: SymplecticPoint
    r: np.ndarray


def desr(a: np.ndarray) -> DesrFactors:
    """Diagonal elementary SR decomposition of a two-column matrix.

    omega = a1^T J a2, r11 = sqrt(|omega|), r22 = sign(omega) r11,
    s1 = a1/r11, s2 = a2/r22.  Raises :class:`Breakdown` when
    |omega| <= DEFAULT_BREAKDOWN_TOL * ||a1|| * ||a2||.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2 or a.shape[0] % 2:
        raise ValueError(f"expected a (2n, 2) matrix, got shape {a.shape}")
    a1, a2 = a[:, 0], a[:, 1]
    omega = float(a1 @ np.concatenate([a2[a.shape[0] // 2:], -a2[: a.shape[0] // 2]]))
    if abs(omega) <= DEFAULT_BREAKDOWN_TOL * np.linalg.norm(a1) * np.linalg.norm(a2):
        raise Breakdown(0, omega)
    r11 = np.sqrt(abs(omega))
    r22 = np.sign(omega) * r11
    return DesrFactors(a1 / r11, a2 / r22, float(r11), float(r22))


def _desr_pair(w: np.ndarray, j: int):
    try:
        f = desr(w)
    except Breakdown as exc:
        raise Breakdown(j, exc.omega) from None
    return f.s(), np.array([f.r11, f.r22])


def _j2t(block: np.ndarray) -> np.ndarray:
    """J_2^T @ block for a 2-row block."""
    return np.concatenate([-block[1:2], block[0:1]], axis=0)


def sgs_basic(a: np.ndarray) -> PspsFactors:
    """Classical-order symplectic Gram-Schmidt in shuffled column order.

    Every coefficient block R_hat[i, j] = J_2^T S_i^T J A_j is computed from
    the original columns before subtracting.  Kept for oracle comparisons;
    prefer :func:`sgs_modified`.
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
            rij = _j2t(si.T @ jmul(aj))
            r_hat[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = rij
            w -= si @ rij
        sj, diag = _desr_pair(w, j)
        s_hat[:, 2 * j: 2 * j + 2] = sj
        r_hat[2 * j, 2 * j], r_hat[2 * j + 1, 2 * j + 1] = diag
    return PspsFactors(s_hat, r_hat)


def sgs_modified(a: np.ndarray) -> PspsFactors:
    """Modified-order symplectic Gram-Schmidt in shuffled column order.

    As soon as a pair is finalized, all remaining columns are orthogonalized
    against it, so later coefficients are computed from already-reduced
    columns.  Algebraically identical to :func:`sgs_basic`; numerically the
    better-behaved variant and the one :func:`sgs` runs.
    """
    a = _check_shape(a)
    n2, k2 = a.shape
    k = k2 // 2
    s_hat = np.empty_like(a)
    r_hat = np.zeros((k2, k2))
    w = a.copy()
    for j in range(k):
        sj, diag = _desr_pair(w[:, 2 * j: 2 * j + 2], j)
        s_hat[:, 2 * j: 2 * j + 2] = sj
        r_hat[2 * j, 2 * j], r_hat[2 * j + 1, 2 * j + 1] = diag
        if j + 1 < k:
            rest = w[:, 2 * j + 2:]
            coeff = _j2t(sj.T @ jmul(rest))
            r_hat[2 * j: 2 * j + 2, 2 * j + 2:] = coeff
            w[:, 2 * j + 2:] = rest - sj @ coeff
    return PspsFactors(s_hat, r_hat)


def sgs(a: np.ndarray, check: bool = True) -> SrFactors:
    """SR decomposition A = S R via shuffle, Gram-Schmidt, unshuffle.

    Parameters
    ----------
    a : (2n, 2k) array with k <= n.
    check : validate the symplecticity of S on construction.

    Raises
    ------
    Breakdown
        When some reduced column pair is numerically isotropic.
    """
    a = _check_shape(a)
    d = Dims(a.shape[0] // 2, a.shape[1] // 2)
    shuffle = perfect_shuffle(d.k)
    b = shuffle.shuffle_cols(a)
    psps = sgs_modified(b)
    s = shuffle.unshuffle_cols(psps.s_hat)
    r = shuffle.unconjugate(psps.r_hat)
    point = SymplecticPoint.from_entries(s, check=check)
    return SrFactors(point, r)


def even_minor_check(a: np.ndarray, rel_tol: float = 1e-10) -> bool:
    """Existence oracle: are all even leading minors of P A^T J A P^T nonzero?

    "Nonzero" is judged by the smallest singular value of each leading block
    relative to ||A^T J A||_2.  Exponential in nothing but still O(k^4) dense
    work; intended for small test instances only.
    """
    a = _check_shape(a)
    k = a.shape[1] // 2
    gram = a.T @ jmul(a)
    b = perfect_shuffle(k).conjugate(gram)
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
    r_hat = perfect_shuffle(k).conjugate(r)
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


def spectral_norm_estimate(z: np.ndarray, iters: int = 20, tol: float = 1e-6,
                           seed: int = 0) -> float:
    """Power-iteration estimate of ||Z||_2 via Z^T Z; cheap, not certified."""
    z = np.asarray(z, dtype=float)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(z.shape[1])
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(iters):
        w = z.T @ (z @ v)
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
        if abs(lam - prev) <= tol * lam:
            break
        prev = lam
    return float(np.sqrt(lam))


def _check_shape(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] % 2 or a.shape[1] % 2:
        raise ValueError(f"expected a (2n, 2k) matrix, got shape {a.shape}")
    if a.shape[1] > a.shape[0]:
        raise ValueError(f"need k <= n, got shape {a.shape}")
    return a
