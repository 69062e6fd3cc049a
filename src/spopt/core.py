"""Foundational symplectic linear algebra.

A point of the symplectic Stiefel manifold Sp(2k, 2n) is a real 2n-by-2k
matrix X with X^T J_{2n} X = J_{2k}, where J = [[0, I], [-I, 0]] is the
Poisson matrix.  Throughout the package J is applied as a signed block swap
and the perfect shuffle as an index permutation; neither is materialized.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Absolute tolerance on the Frobenius feasibility residual.
DEFAULT_FEAS_TOL = 1e-8
#: Absolute tolerance on the Frobenius tangency residual.
DEFAULT_TAN_TOL = 1e-8


class FeasibilityWarning(UserWarning):
    """A constructed point or tangent vector is noticeably off the manifold."""


class NumericalFailure(Exception):
    """Base of every error a computation raises on numerically bad data."""


class FeasibilityError(NumericalFailure, ValueError):
    """A constructed point or tangent vector is far off the manifold."""


def checked_number(name: str, value, kind=float):
    """``value`` as ``kind``: an integer for ``int``, a finite real for
    ``float``; a bool is neither.  Raises ``TypeError`` for a value of
    another type and ``ValueError`` for a non-finite real."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if kind is int else numbers.Real):
        what = "an integer" if kind is int else "a number"
        raise TypeError(f"{name} must be {what}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return kind(value)


def _negate_into(dst: np.ndarray, src: np.ndarray, contiguous: bool) -> None:
    """dst = -src, for a half `src` of an array that is `contiguous` or not.

    Some numpy builds (seen with 2.4.6, also with its AVX-512 and AVX2
    dispatch targets disabled) negate an input strided by exactly 64 bytes
    into a strided output wrongly, reading it as if it were contiguous.  A
    half of a C- or F-contiguous array never has that stride in its inner
    loop; any other half is copied first and negated in place, where the
    inner stride is that of the new array (8 or 16 bytes).
    """
    if contiguous:
        np.negative(src, out=dst)
    else:
        dst[...] = src
        np.negative(dst, out=dst)


def jmul(a: np.ndarray) -> np.ndarray:
    """J @ a without forming J; `a` (a matrix or a vector) has an even number
    of rows.  The J swaps return the bits and layout of the np.concatenate
    form: `a`'s layout, but C order when a half is one row (column) wide."""
    m = a.shape[0] // 2
    out = np.empty_like(a) if m > 1 else np.empty(a.shape, a.dtype)
    out[:m] = a[m:]
    _negate_into(out[m:], a[:m], a.flags.forc)
    return out


def jtmul(a: np.ndarray) -> np.ndarray:
    """J^T @ a = -J @ a without forming J."""
    m = a.shape[0] // 2
    out = np.empty_like(a) if m > 1 else np.empty(a.shape, a.dtype)
    _negate_into(out[:m], a[m:], a.flags.forc)
    out[m:] = a[:m]
    return out


def mulj(a: np.ndarray) -> np.ndarray:
    """a @ J without forming J; `a` has an even number of columns."""
    m = a.shape[1] // 2
    out = np.empty_like(a) if m > 1 else np.empty(a.shape, a.dtype)
    _negate_into(out[:, :m], a[:, m:], a.flags.forc)
    out[:, m:] = a[:, :m]
    return out


def nonfinite_note(*arrays) -> str:
    """" (non-finite input)" when any array holds a NaN or an infinity, else "".

    For error messages: only a path that is already raising calls it, so a
    successful computation pays nothing for the check.
    """
    return "" if all(np.isfinite(a).all() for a in arrays) else " (non-finite input)"


def skew_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a - a.T)


def sym_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _dims_of(entries: np.ndarray) -> tuple[int, int]:
    """Half-dimensions (n, k) of a 2n-by-2k matrix, with 1 <= k <= n."""
    rows, cols = entries.shape
    if rows % 2 or cols % 2:
        raise ValueError(f"shape {entries.shape} is not (2n, 2k)")
    n, k = rows // 2, cols // 2
    if n < 1 or k < 1:
        raise ValueError(f"dimensions must be positive, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    return n, k


def symplecticity_residual(x) -> float:
    """Feasibility violation ||X^T J_{2n} X - J_{2k}||_F of a 2n-by-2k matrix or a point."""
    if not isinstance(x, SymplecticPoint):
        x = SymplecticPoint(np.asarray(getattr(x, "entries", x), dtype=float))
    _, k = _dims_of(x.entries)
    # subtract J_{2k} in place from a row-major copy: on its flat view, the
    # +1 entries (i, k + i) sit at k + i (2k + 1) and the -1 entries
    # (k + i, i) at 2k^2 + i (2k + 1), for i < k
    flat = x.xtjx.copy().reshape(-1)
    flat[k:2 * k * k:2 * k + 1] -= 1.0
    flat[2 * k * k::2 * k + 1] += 1.0
    return math.sqrt(flat.dot(flat))  # np.linalg.norm's arithmetic


def tangency_residual(x, z) -> float:
    """||Z^T J X + X^T J Z||_F, zero exactly when Z is tangent at X."""
    xe = np.asarray(getattr(x, "entries", x), dtype=float)
    ze = np.asarray(getattr(z, "entries", z), dtype=float)
    if ze.shape != xe.shape:
        raise ValueError(f"shape mismatch: {ze.shape} vs {xe.shape}")
    # Z^T J X = -(X^T J Z)^T, so the defect is the skew part of X^T J Z (doubled)
    m = xe.T @ jmul(ze)
    return float(np.linalg.norm(m - m.T))


def _check_residual(kind: str, residual: float, tol: float, *operands) -> None:
    # Warn above tol, hard-error above 1e3*tol: iterative schemes are allowed
    # to drift a little, garbage input is not.  Written so that a NaN residual
    # (non-finite entries) fails the test too; the message then says so.
    if not residual <= 1e3 * tol:
        raise FeasibilityError(f"{kind} residual {residual:.3e} exceeds {1e3 * tol:.1e}"
                               + nonfinite_note(*operands))
    if residual > tol:
        warnings.warn(
            f"{kind} residual {residual:.3e} above tolerance {tol:.1e}",
            FeasibilityWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class SymplecticPoint:
    """A 2n-by-2k matrix on (or numerically near) Sp(2k, 2n).

    Values are immutable by convention: nothing mutates ``entries`` or the
    J X and X^T J X formed on first access and shared by every later reader.
    """

    entries: np.ndarray

    @classmethod
    def from_entries(cls, entries, check: bool = True) -> "SymplecticPoint":
        e = np.ascontiguousarray(entries, dtype=float)
        _dims_of(e)
        point = cls(e)
        if check:
            _check_residual("symplecticity", symplecticity_residual(point),
                            DEFAULT_FEAS_TOL, e)
        return point

    @property
    def n(self) -> int:
        return self.entries.shape[0] // 2

    @property
    def k(self) -> int:
        return self.entries.shape[1] // 2

    @cached_property
    def jx(self) -> np.ndarray:
        return jmul(self.entries)

    @cached_property
    def xtjx(self) -> np.ndarray:
        return self.entries.T.dot(self.jx)


@dataclass(frozen=True)
class TangentVector:
    """An element Z of the tangent space at ``base``: Z^T J X + X^T J Z = 0."""

    base: SymplecticPoint
    entries: np.ndarray

    @classmethod
    def from_entries(cls, base: SymplecticPoint, entries,
                     check: bool = True) -> "TangentVector":
        e = np.ascontiguousarray(entries, dtype=float)
        if e.shape != base.entries.shape:
            raise ValueError(f"shape mismatch: {e.shape} vs {base.entries.shape}")
        if check:
            _check_residual("tangency", tangency_residual(base.entries, e),
                            DEFAULT_TAN_TOL, base.entries, e)
        return cls(base, e)

    def norm(self) -> float:
        v = self.entries.ravel(order="K")
        return math.sqrt(v.dot(v))  # np.linalg.norm's arithmetic


def canonical_point(n: int, k: int) -> SymplecticPoint:
    """The canonical embedding: columns e_1..e_k, e_{n+1}..e_{n+k} of I_{2n}."""
    e = np.zeros((2 * n, 2 * k))
    _dims_of(e)
    for j in range(k):
        e[j, j] = 1.0
        e[n + j, k + j] = 1.0
    return SymplecticPoint(e)


def symplectic_inverse(x) -> np.ndarray:
    """X^+ = J_{2k}^T X^T J_{2n}; a left inverse of a symplectic X."""
    e = np.asarray(getattr(x, "entries", x), dtype=float)
    xt_j = jtmul(e).T  # X^T J_{2n} = (J_{2n}^T X)^T
    return jtmul(xt_j)


@dataclass(frozen=True)
class PerfectShuffle:
    """Perfect shuffle permutation P_{2k} = [e_1, e_3, ..., e_{2k-1}, e_2, ..., e_{2k}].

    ``permutation`` holds the column indices: P = I[:, permutation].
    Conjugation by P sends J_{2k} to diag(J_2, ..., J_2).
    """

    k: int
    permutation: np.ndarray

    @property
    def inverse(self) -> np.ndarray:
        return np.argsort(self.permutation)

    def unshuffle_cols(self, a: np.ndarray) -> np.ndarray:
        """a @ P."""
        return a[:, self.permutation]

    def unconjugate(self, r_hat: np.ndarray) -> np.ndarray:
        """P^T r_hat P."""
        p = self.permutation
        return r_hat[np.ix_(p, p)]


def perfect_shuffle(k: int) -> PerfectShuffle:
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    perm = np.concatenate([np.arange(0, 2 * k, 2), np.arange(1, 2 * k, 2)])
    return PerfectShuffle(k, perm)
