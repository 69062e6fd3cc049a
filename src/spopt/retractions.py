"""Retractions: Cayley, quasi-geodesic, and SR.

All three maps satisfy R_X(0) = X and d/dt R_X(tZ)|_0 = Z.  The Cayley
retraction is the economical form, with one 2k-by-2k solve; the full form,
with a 2n-by-2n solve, is the oracle ``spopt.oracles.cayley_full``.
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

from .core import NumericalFailure, SymplecticPoint, jmul, jtmul, nonfinite_note
from .sr import Breakdown, sgs


class SingularCayley(NumericalFailure):
    """The Cayley resolvent is numerically singular (eigenvalue 2 nearby)."""


class RetractionKind(enum.Enum):
    CAYLEY_ECONOMICAL = "cayley"
    QUASI_GEODESIC = "quasi-geodesic"
    SR = "sr"


def _solve_checked(a: np.ndarray, b: np.ndarray, operands) -> np.ndarray:
    # LU solve with a 1-norm condition estimate; cond > 1e14 counts as singular.
    # A failure message says so when one of the retraction's ``operands`` (the
    # X and Z that a and b are built from) is non-finite.
    lu, piv, info = lapack.dgetrf(a)
    if info != 0:
        raise SingularCayley(f"LU factorization failed (info={info})"
                             + nonfinite_note(*operands))
    anorm = np.linalg.norm(a, 1)
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond < 1e-14:
        raise SingularCayley(f"condition estimate {1.0 / max(rcond, 1e-300):.3e}"
                             + nonfinite_note(*operands))
    x, info = lapack.dgetrs(lu, piv, b)
    if info != 0:
        raise SingularCayley(f"solve failed (info={info})" + nonfinite_note(*operands))
    return x


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
    out = -e + _solve_checked(inner.T, (h + 2.0 * e).T, (e, ze)).T
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


def sr_retract(x: SymplecticPoint, z, check: bool = True) -> SymplecticPoint:
    """SR retraction: the symplectic factor of the SR decomposition of X + Z.

    Exists whenever ||Z||_2 < 1 and, generically, far beyond; failures raise
    :class:`Breakdown`.
    """
    ze = np.asarray(getattr(z, "entries", z), dtype=float)
    return sgs(x.entries + ze, check=check).s


def retract(kind: RetractionKind, x: SymplecticPoint, z,
            check: bool = True) -> SymplecticPoint:
    """Dispatch to one of the three retraction implementations."""
    if kind is RetractionKind.CAYLEY_ECONOMICAL:
        return cayley_economical(x, z, check=check)
    if kind is RetractionKind.QUASI_GEODESIC:
        return quasi_geodesic(x, z, check=check)
    if kind is RetractionKind.SR:
        return sr_retract(x, z, check=check)
    raise ValueError(f"unknown retraction kind {kind!r}")


RETRACTION_ERRORS = (SingularCayley, Breakdown)
