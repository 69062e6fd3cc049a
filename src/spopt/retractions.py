"""Retractions: Cayley, quasi-geodesic, and SR.

All three maps satisfy R_X(0) = X and d/dt R_X(tZ)|_0 = Z.  The Cayley
retraction is the economical form, with one 2k-by-2k LAPACK inverse; the
full form, with a 2n-by-2n one, is a test-scale oracle of the test suite.
The quasi-geodesic map is globally defined but lets feasibility drift
accumulate over many steps; its two exponentials call scipy's compiled Pade
kernels (``scipy.linalg._matfuncs_expm``) directly.  The SR retraction
re-factorizes X + Z at every call and keeps iterates symplectic to
factorization accuracy whenever ||Z||_2 < 1 (and, in practice, well beyond).
"""

from __future__ import annotations

import enum
import math

import numpy as np
from scipy.linalg import lapack
from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

from .core import NumericalFailure, SymplecticPoint, jmul, jtmul, nonfinite_note
from .sr import Breakdown, sgs


class SingularCayley(NumericalFailure):
    """The Cayley resolvent is numerically singular (eigenvalue 2 nearby)."""


class RetractionKind(enum.Enum):
    CAYLEY_ECONOMICAL = "cayley"
    QUASI_GEODESIC = "quasi-geodesic"
    SR = "sr"


def _inverse_checked(a: np.ndarray, operands) -> np.ndarray:
    # LU inverse with a 1-norm condition estimate; cond > 1e14 counts as
    # singular.  A failure message says so when one of the retraction's
    # ``operands`` (the X and Z that a is built from) is non-finite.
    anorm = lapack.dlange("1", a)
    lu, piv, info = lapack.dgetrf(a)
    if info != 0:
        raise SingularCayley(f"LU factorization failed (info={info})"
                             + nonfinite_note(*operands))
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or not math.isfinite(rcond) or rcond < 1e-14:
        raise SingularCayley(f"condition estimate {1.0 / max(rcond, 1e-300):.3e}"
                             + nonfinite_note(*operands))
    inv, info = lapack.dgetri(lu, piv, overwrite_lu=True)
    if info != 0:
        raise SingularCayley(f"inversion failed (info={info})" + nonfinite_note(*operands))
    return inv


def cayley_economical(x: SymplecticPoint, z, check: bool = True) -> SymplecticPoint:
    """Cayley retraction through a 2k-by-2k inverse.

    R = -X + (H + 2X) (J^T H^T J H / 4 - J^T X^T J Z / 2 + I)^{-1} with
    H = Z - X J^T X^T J Z.  The 2k-by-2k matrix is inverted by LAPACK
    (``dgetrf``, ``dgecon``, ``dgetri``) and applied with one GEMM; a
    condition estimate above 1e14 raises :class:`SingularCayley`.
    """
    e = x.entries
    ze = np.asarray(getattr(z, "entries", z), dtype=float)
    k2 = e.shape[1]
    jtw = jtmul(e.T.dot(jmul(ze)))  # J^T X^T J Z
    h = ze - e.dot(jtw)
    inner = 0.25 * jtmul(h.T.dot(jmul(h))) - 0.5 * jtw
    inner.flat[::k2 + 1] += 1.0
    h += 2.0 * e
    out = h.dot(_inverse_checked(inner, (e, ze)))
    out -= e
    point = SymplecticPoint.from_entries(out, check=False)
    return point._checked(e, ze) if check else point


def _expm(a: np.ndarray) -> np.ndarray:
    # scipy.linalg.expm's generic branch (Al-Mohy & Higham 2009) without its
    # per-call layer; a zero step, whose exponents expm treats as diagonal
    # and as triangular, gives the same bits on both routes.
    work = np.empty((5,) + a.shape)
    work[0] = a
    m, s = pick_pade_structure(work)
    info = m if m < 0 else pade_UV_calc(work, m)
    if m < 0 or info <= -11:
        raise MemoryError(f"expm could not allocate its work memory (error code {info})")
    if info != 0:
        raise RuntimeError(f"expm got an internal LAPACK error (error code {info})")
    out = work[0]
    for _ in range(s):
        out = out @ out
    return out


def quasi_geodesic(x: SymplecticPoint, z, check: bool = True) -> SymplecticPoint:
    """Quasi-geodesic retraction; globally defined.

    [X, Z] expm([[-JW, J Z^T J Z], [I, -JW]]) [I; 0] expm(JW) with
    W = X^T J Z.  The exponentials act on 4k-by-4k and 2k-by-2k blocks; the
    4k-by-4k exponent is filled in place.  Both are scipy.linalg.expm's
    Pade kernels and squarings, bit for bit, without its per-call checks.
    """
    e = x.entries
    ze = np.asarray(getattr(z, "entries", z), dtype=float)
    k2 = e.shape[1]
    jz = jmul(ze)
    jw = jmul(e.T.dot(jz))
    block = np.zeros((2 * k2, 2 * k2))
    np.negative(jw, out=block[:k2, :k2])
    block[:k2, k2:] = jmul(ze.T.dot(jz))
    block[k2:, :k2].flat[::k2 + 1] = 1.0
    block[k2:, k2:] = block[:k2, :k2]
    left = np.concatenate([e, ze], axis=1).dot(_expm(block)[:, :k2])
    out = left.dot(_expm(jw))
    point = SymplecticPoint.from_entries(out, check=False)
    return point._checked(e, ze) if check else point


def sr_retract(x: SymplecticPoint, z, check: bool = True) -> SymplecticPoint:
    """SR retraction: the symplectic factor of the SR decomposition of X + Z.

    Exists whenever ||Z||_2 < 1 and, generically, far beyond; failures raise
    :class:`Breakdown`.
    """
    ze = np.asarray(getattr(z, "entries", z), dtype=float)
    point = sgs(x.entries + ze, check=False).s
    return point._checked(x.entries, ze) if check else point


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
