"""Retractions: Cayley (full and economical), quasi-geodesic, and SR.

All four maps satisfy R_X(0) = X and d/dt R_X(tZ)|_0 = Z.  The economical
Cayley form needs one 2k-by-2k solve and is the default Cayley; the full form
solves a 2n-by-2n system and is retained as an oracle and for k close to n.
The quasi-geodesic map is globally defined but lets feasibility drift
accumulate over many steps; the SR retraction re-factorizes X + Z at every
call and keeps iterates symplectic to factorization accuracy whenever
||Z||_2 < 1 (and, in practice, well beyond).
"""

from __future__ import annotations

import enum

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .core import NumericalFailure, SymplecticPoint, jmul, jtmul, mulj
from .sr import Breakdown, sgs, spectral_norm_estimate


class SingularCayley(NumericalFailure):
    """The Cayley resolvent is numerically singular (eigenvalue 2 nearby)."""


class RetractionKind(enum.Enum):
    CAYLEY_FULL = "cayley-full"
    CAYLEY_ECONOMICAL = "cayley"
    QUASI_GEODESIC = "quasi-geodesic"
    SR = "sr"


def _solve_checked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # LU solve with a 1-norm condition estimate; cond > 1e14 counts as singular
    lu, piv, info = lapack.dgetrf(a)
    if info != 0:
        raise SingularCayley(f"LU factorization failed (info={info})")
    anorm = np.linalg.norm(a, 1)
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond < 1e-14:
        raise SingularCayley(f"condition estimate {1.0 / max(rcond, 1e-300):.3e}")
    x, info = lapack.dgetrs(lu, piv, b)
    if info != 0:
        raise SingularCayley(f"solve failed (info={info})")
    return x


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
    out = _solve_checked(lhs, rhs)
    return SymplecticPoint.from_entries(out, check=check)


def cayley_economical(x: SymplecticPoint, z, check: bool = True) -> SymplecticPoint:
    """Cayley retraction through a 2k-by-2k solve.

    R = -X + (H + 2X) (J^T H^T J H / 4 - J^T X^T J Z / 2 + I)^{-1} with
    H = Z - X J^T X^T J Z.
    """
    e = x.entries
    ze = np.asarray(getattr(z, "entries", z), dtype=float)
    k2 = e.shape[1]
    h = ze - e @ jtmul(e.T @ jmul(ze))
    inner = (0.25 * jtmul(h.T @ jmul(h))
             - 0.5 * jtmul(e.T @ jmul(ze))
             + np.eye(k2))
    # (H + 2X) inner^{-1} via a transposed solve
    out = -e + _solve_checked(inner.T, (h + 2.0 * e).T).T
    return SymplecticPoint.from_entries(out, check=check)


def quasi_geodesic(x: SymplecticPoint, z, check: bool = True) -> SymplecticPoint:
    """Quasi-geodesic retraction; globally defined.

    [X, Z] expm([[-JW, J Z^T J Z], [I, -JW]]) [I; 0] expm(JW) with
    W = X^T J Z.  The exponentials act on 4k-by-4k and 2k-by-2k blocks.
    """
    e = x.entries
    ze = np.asarray(getattr(z, "entries", z), dtype=float)
    k2 = e.shape[1]
    w = e.T @ jmul(ze)
    jw = jmul(w)
    block = np.block([
        [-jw, jmul(ze.T @ jmul(ze))],
        [np.eye(k2), -jw],
    ])
    left = np.column_stack([e, ze]) @ scipy.linalg.expm(block)[:, :k2]
    out = left @ scipy.linalg.expm(jw)
    return SymplecticPoint.from_entries(out, check=check)


def sr_retract(x: SymplecticPoint, z, check: bool = True,
               safeguard: bool = False) -> SymplecticPoint:
    """SR retraction: the symplectic factor of the SR decomposition of X + Z.

    Exists whenever ||Z||_2 < 1 and, generically, far beyond; failures raise
    :class:`Breakdown`.  With ``safeguard`` a power-iteration estimate of
    ||Z||_2 is computed and Z is rescaled to spectral norm 0.99 when the
    estimate reaches 1; off by default since the plain map has never been
    observed to fail along line-search steps.
    """
    ze = np.asarray(getattr(z, "entries", z), dtype=float)
    if safeguard:
        nrm = spectral_norm_estimate(ze)
        if nrm >= 1.0:
            ze = ze * (0.99 / nrm)
    factors = sgs(x.entries + ze, check=check)
    return factors.s


def retract(kind: RetractionKind, x: SymplecticPoint, z,
            check: bool = True) -> SymplecticPoint:
    """Dispatch to one of the four retraction implementations."""
    if kind is RetractionKind.CAYLEY_FULL:
        return cayley_full(x, z, check=check)
    if kind is RetractionKind.CAYLEY_ECONOMICAL:
        return cayley_economical(x, z, check=check)
    if kind is RetractionKind.QUASI_GEODESIC:
        return quasi_geodesic(x, z, check=check)
    if kind is RetractionKind.SR:
        return sr_retract(x, z, check=check)
    raise ValueError(f"unknown retraction kind {kind!r}")


RETRACTION_ERRORS = (SingularCayley, Breakdown)
