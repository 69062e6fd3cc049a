"""SR factorization by skew-Gram LU passes or symplectic Gram-Schmidt.

An SR decomposition writes A = S R with S in Sp(2k, 2n) and R in the
normalized permuted-triangular set T0: conjugating R by the perfect shuffle
gives an upper triangular matrix whose 2x2 diagonal blocks are diagonal with
zero super-entry, positive first entry, and matched absolute values.  That
normalization makes the factors unique.

:func:`sgs` factors the shuffled matrix B = A P^T along one of two paths.

* The Gram path, in the style of CholeskyQR2, runs two passes.  Each forms
  the skew Gram G = B^T J B with one GEMM, LU-factors J_hat^T G (J_hat =
  diag(J_2, ..., J_2)) with one LAPACK ``dgetrf``, reads R_hat from
  U = D R_hat, and applies S = B R_hat^{-1} with one triangular solve.  The
  second pass re-factors S^T J S, which is close to J_hat, and R_hat is the
  product of the two triangular factors.  Without row interchanges the LU of
  J_hat^T G is unique and equals (J_hat^T R_hat^T J_hat) R_hat, so this path
  computes the same factors as Gram-Schmidt.  The per-k index helpers (the
  shuffle, the no-interchange pivot vector, the triangle mask) are built
  once and cached.
* The Gram-Schmidt path, :func:`sgs_modified`, processes two columns at a
  time.  A pair (a1, a2) with omega = a1^T J a2 != 0 is rescaled into a
  symplectic pair; omega == 0 means the pair spans an isotropic subspace and
  no decomposition exists, reported as :class:`Breakdown`.

The Gram path is taken when partial pivoting made no row interchange in
either pass, every pivot omega_j is finite and nonzero, and no first-pass
pair is numerically isotropic; this is the retraction regime, where X + Z
stays close to symplectic and the Gram stays close to J_hat.  Otherwise, on
ill-conditioned or non-factorizable input, the Gram-Schmidt path runs on the
original columns and alone decides whether to raise :class:`Breakdown`.

The SR retraction reads only S, so :class:`SrFactors` keeps the shuffled
triangular factors and forms R = P^T R_hat P on first access.

Existence for the full matrix is equivalent to all even leading minors of
the shuffled Gram matrix P A^T J A P^T being nonzero.  The small-scale
oracles that check this module (that condition, the normalization of R and
classical-order Gram-Schmidt) live in the test suite, not in the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import blas, lapack

from .core import (NumericalFailure, PerfectShuffle, SymplecticPoint, jmul,
                   nonfinite_note, perfect_shuffle)

#: Relative threshold on |omega| below which a column pair counts as isotropic.
DEFAULT_BREAKDOWN_TOL = 1e-14


class Breakdown(NumericalFailure):
    """No SR decomposition: an isotropic column pair was encountered."""

    def __init__(self, pair_index: int, omega: float, note: str = ""):
        self.pair_index = pair_index
        self.omega = omega
        super().__init__(
            f"isotropic column pair {pair_index}: |a1^T J a2| = {abs(omega):.3e}{note}"
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
    """Factors A = S R with S symplectic and R in the normalized triangular set.

    ``r_hat_factors`` are the shuffled-order triangular factors whose product
    is R_hat = P R P^T: two on the Gram path, one on the Gram-Schmidt path.
    R itself is formed on first access; the SR retraction never reads it.
    """

    s: SymplecticPoint
    r_hat_factors: tuple[np.ndarray, ...]

    @cached_property
    def r(self) -> np.ndarray:
        r_hat = self.r_hat_factors[0]
        for factor in self.r_hat_factors[1:]:
            r_hat = r_hat @ factor
        return _layout(r_hat.shape[0] // 2).shuffle.unconjugate(r_hat)


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


def sgs_modified(a: np.ndarray) -> PspsFactors:
    """Modified-order symplectic Gram-Schmidt in shuffled column order.

    As soon as a pair is finalized, all remaining columns are orthogonalized
    against it, so later coefficients are computed from already-reduced
    columns.  Algebraically identical to classical-order Gram-Schmidt;
    numerically the better-behaved variant and the one :func:`sgs` falls
    back to.
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


class _Layout(NamedTuple):
    """Index helpers of one k, built once: the shuffle, the column order of
    B = A P^T, the pivot bytes of a 2k-by-2k LU without row interchanges,
    and the mask of the strictly lower triangle of a 2k-by-2k matrix."""

    shuffle: PerfectShuffle
    to_shuffled: np.ndarray
    no_interchange: bytes
    strictly_lower: np.ndarray


@functools.lru_cache(maxsize=64)
def _layout(k: int) -> _Layout:
    shuffle = perfect_shuffle(k)
    return _Layout(shuffle, shuffle.inverse, np.arange(2 * k, dtype=np.int32).tobytes(),
                   np.tri(2 * k, k=-1, dtype=bool))


def _gram_pass(b: np.ndarray) -> PspsFactors | None:
    """One Gram pass: B = S_hat R_hat from the unpivoted LU of J_hat^T B^T J B.

    With G = B^T J B = R_hat^T J_hat R_hat, H = J_hat^T G factors as
    (J_hat^T R_hat^T J_hat) R_hat: lower times upper triangular, the lower
    factor's diagonal being D = diag(r22, r11, ...).  LAPACK returns U =
    D R_hat, with omega_j = U[2j, 2j]; R_hat is scaled out of the LU array
    in place.  Returns None when partial pivoting interchanged rows (the LU
    is then not that one) or a pivot is zero or non-finite.  S_hat overwrites
    B when B is column-major.
    """
    n = b.shape[0] // 2
    k2 = b.shape[1]
    layout = _layout(k2 // 2)
    m = b[:n].T @ b[n:]  # G = m - m^T exactly skew
    h = np.empty((k2, k2), order="F")
    np.subtract(m.T[1::2], m[1::2], out=h[0::2])
    np.subtract(m[0::2], m.T[0::2], out=h[1::2])
    lu, piv, info = lapack.dgetrf(h, overwrite_a=True)
    if info != 0 or piv.tobytes() != layout.no_interchange:
        return None
    # column-major view of the Fortran-ordered LU: flat[i + j k2] = lu[i, j];
    # with step 2(k2 + 1), offsets 0, k2 + 1 and k2 select the entries
    # (2j, 2j), (2j+1, 2j+1) and (2j, 2j+1) of the 2x2 diagonal blocks
    flat = lu.ravel(order="F")
    step = 2 * (k2 + 1)
    omega = flat[::step]
    r11 = np.sqrt(np.abs(omega))
    if not all(0.0 < r < math.inf for r in r11.tolist()):  # NaN fails too
        return None
    r22 = np.sign(omega) * r11
    d = np.empty(k2)
    d[0::2] = r22
    d[1::2] = r11
    lu /= d[:, None]
    lu[layout.strictly_lower] = 0.0
    flat[::step] = r11
    flat[k2 + 1::step] = r22
    flat[k2::step] = 0.0
    s_hat = blas.dtrsm(1.0, lu, b, side=1, overwrite_b=True)
    return PspsFactors(s_hat, lu)


def _sgs_gram(b: np.ndarray):
    """Two Gram passes in shuffled column order: (S_hat, (R_hat_2, R_hat_1))
    with R_hat = R_hat_2 R_hat_1, or None to fall back.  Overwrites a
    column-major B.

    The second pass re-factors S_1^T J S_1, close to J_hat, and recovers the
    accuracy one pass loses to the conditioning of G.  Besides the pivot
    tests of :func:`_gram_pass`, a first-pass pair counts as isotropic by
    the :func:`desr` test |omega| <= tol ||w_p|| ||w_q||, which through
    s = w / r11 reads ||s_p|| ||s_q|| tol >= 1.
    """
    first = _gram_pass(b)
    if first is None:
        return None
    norms = np.sqrt(np.einsum("ij,ij->j", first.s_hat, first.s_hat))
    if (norms[0::2] * norms[1::2] * DEFAULT_BREAKDOWN_TOL >= 1.0).any():
        return None
    second = _gram_pass(first.s_hat)
    if second is None:
        return None
    return second.s_hat, (second.r_hat, first.r_hat)


def sgs(a: np.ndarray, check: bool = True) -> SrFactors:
    """SR decomposition A = S R via shuffle, factorization, unshuffle.

    The shuffled matrix is factored by two Gram passes (one GEMM, one LU
    and one triangular solve each) when their LU needs no row interchange
    and every pivot is finite, nonzero and not isotropic; otherwise by
    :func:`sgs_modified`.  The module docstring gives the details.  Both
    paths compute the unique normalized factors.  R is formed only when
    :attr:`SrFactors.r` is read.

    Parameters
    ----------
    a : (2n, 2k) array with k <= n.
    check : validate the symplecticity of S on construction.

    Raises
    ------
    Breakdown
        When some reduced column pair is numerically isotropic; the message
        says so when A has non-finite entries.
    """
    a = _check_shape(a)
    layout = _layout(a.shape[1] // 2)
    # B = A P^T, column-major (as a column gather already returns it) so that
    # the triangular solves overwrite it
    gram = _sgs_gram(np.asfortranarray(a[:, layout.to_shuffled]))
    if gram is None:
        try:
            psps = sgs_modified(a[:, layout.to_shuffled])
        except Breakdown as exc:
            raise Breakdown(exc.pair_index, exc.omega, nonfinite_note(a)) from None
        gram = psps.s_hat, (psps.r_hat,)
    s_hat, r_hat_factors = gram
    point = SymplecticPoint.from_entries(layout.shuffle.unshuffle_cols(s_hat),
                                         check=check)
    return SrFactors(point, r_hat_factors)


def _check_shape(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] % 2 or a.shape[1] % 2:
        raise ValueError(f"expected a (2n, 2k) matrix, got shape {a.shape}")
    if a.shape[1] > a.shape[0]:
        raise ValueError(f"need k <= n, got shape {a.shape}")
    return a
