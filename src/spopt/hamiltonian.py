"""Semi-discrete Hamiltonian test systems, a conservative Crank-Nicolson
integrator, and the symplectic model-reduction pipeline.

Systems have the form xdot = J grad H(x) with H(x) = x^T M x / 2 + h(x); the
four models are a periodic linear wave equation, a sine-Gordon equation with
Dirichlet boundary values frozen at their initial-time values, a cubic
Schroedinger equation split into real and imaginary parts, and a
particle-in-cell discretization of a 1D Vlasov equation with sampled initial
data.  Every nonlinearity is a sum of per-site energies V(q_i, p_i), so each
gradient component reads at most two state entries, which the DEIM machinery
exploits.  A model supplies only V and its first two derivatives as a
:class:`Nonlinearity`.  The Hessian couples each q_i with its p_i only, so
M + Hess h lives on a pattern fixed once per system, and a Newton update
writes only the numbers of its matrices.

The reduced models keep the Hamiltonian form xtdot = J_{2k} grad Ht(xt).
Reduced bases contain the initial state exactly by construction (and are
re-seeded after optimization through a rank-one SR correction), which pins
the constant Hamiltonian offset H(x(t)) - Ht(xt(t)) at integrator roundoff.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .core import NumericalFailure, SymplecticPoint, checked_number, jmul, symplectic_inverse
from .applications import (DeimOperator, PsdProblem, _block_diag_lift, _is_scalar_zero,
                           _psd_residual, _stacked_modes, deim_reduced_rhs, deim_select,
                           exact_reduced_rhs)
from .optimizer import SolverOptions, minimize
from .sr import sgs

__all__ = [
    "Nonlinearity", "HamiltonianSystem", "Separable", "IntegratorOptions", "Trajectory",
    "ReducedSystem", "NewtonDivergence", "GridMismatch",
    "wave_system", "sine_gordon_system", "schrodinger_system", "vlasov_system",
    "sample_vlasov_ic", "VlasovParams", "sine_gordon_exact",
    "crank_nicolson", "extract_snapshots", "state_seeded_cotangent_lift",
    "restore_state_containment", "build_rom", "relative_errors", "ErrorReport",
    "NONLIN_TREATMENTS", "ROM_SOLVER",
]

#: Treatments of the nonlinear term that ``build_rom`` accepts.
NONLIN_TREATMENTS = ("exact", "psd-deim", "structure-preserving")

#: ``build_rom``'s default solver fields; ``spopt mor`` merges its config into them.
ROM_SOLVER = dict(gamma0=1e-8, gtol=1e-12, niter=1000)


class NewtonDivergence(NumericalFailure):
    """The implicit step's Newton iteration exceeded its budget."""


class GridMismatch(NumericalFailure):
    """Two trajectories do not share a time grid."""


@dataclass(frozen=True)
class Nonlinearity:
    """Sitewise nonlinear part h(x) = sum_i V(q_i, p_i, i) of a Hamiltonian.

    A model supplies the per-site energy and its first two derivatives, each
    evaluated elementwise on arrays of site values q, p with ``i`` the
    matching site indices (an index array, or ``slice(None)`` for all sites):
    ``potential`` returns V, ``slope`` (V_q, V_p) and ``curvature``
    (V_qq, V_qp, V_pp).  A derivative that vanishes may be the scalar 0.0.

    The energy and the gradient are derived here.  Component j of grad h is
    V_q or V_p of site i = j mod n and reads only (q_i, p_i), so the Hessian
    is the 2 x 2 block (V_qq, V_qp; V_qp, V_pp) of each site, placed by
    :meth:`HamiltonianSystem.grad_jacobian`, and the DEIM operators of
    ``applications`` call ``slope`` and ``curvature`` on the selected sites.
    """

    potential: Callable
    slope: Callable
    curvature: Callable

    def value(self, x: np.ndarray) -> np.ndarray:
        """h(x) for one state, or an array of h at each column of a 2n x B
        block.  The potential runs on time-major (B x n) views, so per-site
        arrays such as sine-Gordon's boundary terms broadcast along sites."""
        n = x.shape[0] // 2
        return np.sum(self.potential(x[:n].T, x[n:].T, slice(None)), axis=-1)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """grad h for one state, or for each column of a 2n x B block; the
        slope runs on time-major views, as in :meth:`value`."""
        n = x.shape[0] // 2
        g = np.zeros(x.shape)
        xt, gt = x.T, g.T
        gt[..., :n], gt[..., n:] = self.slope(xt[..., :n], xt[..., n:], slice(None))
        return g


def _entry_positions(mat: sp.csc_matrix, rows: np.ndarray, cols: np.ndarray):
    """Positions in ``mat.data`` of the entries (rows, cols) of its canonical
    (sorted, duplicate-free) pattern, or None if it lacks any of them."""
    dim = mat.shape[0]
    keys = np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr)) * dim + mat.indices
    wanted = cols * dim + rows
    pos = np.searchsorted(keys, wanted)
    found = not np.any(pos == keys.size) and np.array_equal(keys[pos], wanted)
    return pos if found else None


def _quadratic(x: np.ndarray, mx: np.ndarray) -> np.ndarray:
    """x^T M x / 2 for each column of x, given M x."""
    return 0.5 * np.einsum("ij,ij->j", x, mx)


class Separable(NamedTuple):
    """The Jacobian M + Hess h = diag(K + diag(v_qq), I) of a separable
    system: ``k`` is K, tridiagonal CSR and shared by every call, and
    ``v_qq`` the curvature of one call.  :class:`_SchurJ` solves its
    Newton systems."""

    k: sp.csr_matrix
    v_qq: np.ndarray


@dataclass(frozen=True)
class HamiltonianSystem:
    """Semi-discrete system xdot = J grad H, H(x) = x^T M x / 2 + h(x).

    :meth:`energies` is the one source of H: it evaluates a block of states
    (columns) by one sparse product M X and one vectorized potential.

    A nonlinear system is separable when M = diag(K, I) with K tridiagonal
    and V depends on q alone (sine-Gordon and Vlasov).  ``flow`` then writes
    [p; -(K q + V_q)] from K's own CSR, and the Jacobian is a
    :class:`Separable`.
    """

    name: str
    n: int
    mass: sp.spmatrix
    x0: np.ndarray
    nonlin: Nonlinearity | None = None
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def is_linear(self) -> bool:
        return self.nonlin is None

    def energies(self, states: np.ndarray) -> np.ndarray:
        """H at each column of a 2n x B block of states."""
        h = _quadratic(states, self.mass @ states)
        if self.nonlin is not None:
            h += self.nonlin.value(states)
        return h

    @cached_property
    def _separable(self):
        """K as CSR if the system is separable, else None: M is canonical CSR
        or CSC, its off-diagonal n x n blocks store nothing, its p-block is
        stored as exactly I, K stores entries only where |i - j| <= 1, and
        the slope's p-part and the curvature's V_qp, V_pp are scalar zeros."""
        n, mass, nl = self.n, self.mass, self.nonlin
        if nl is None or mass.format not in ("csr", "csc") or not mass.has_canonical_format:
            return None
        coo = mass.tocoo()
        on_q, on_p = coo.row < n, coo.row >= n
        if (not np.array_equal(on_q, coo.col < n)
                or np.abs(coo.row - coo.col)[on_q].max(initial=0) > 1
                or np.count_nonzero(on_p) != n
                or not np.array_equal(coo.row[on_p], coo.col[on_p])
                or not (coo.data[on_p] == 1.0).all()):
            return None
        q, p = self.x0[:n], self.x0[n:]
        zeros = (nl.slope(q, p, slice(None))[1], *nl.curvature(q, p, slice(None))[1:])
        return mass[:n, :n].tocsr() if all(map(_is_scalar_zero, zeros)) else None

    def flow(self, x: np.ndarray) -> np.ndarray:
        """The vector field J grad H(x) = J (M x + grad h(x)).  A separable
        system writes [0 + p; -(K q + V_q)], the bits of the sparse product
        and its sums, with K q read as 0 when K is empty."""
        k = self._separable
        if k is None:
            g = self.mass @ x
            return jmul(g if self.nonlin is None else g + self.nonlin.gradient(x))
        n = self.n
        q, p = x[:n], x[n:]
        f = np.empty(2 * n)
        np.add(p, 0.0, out=f[:n])
        np.add(k @ q if k.nnz else 0.0, self.nonlin.slope(q, p, slice(None))[0], out=f[n:])
        np.negative(f[n:], out=f[n:])
        return f

    @cached_property
    def _hessian_pattern(self):
        """M on the CSC pattern of M + Hess h, which adds each site's 2 x 2
        block, and the 4 x n positions of (i,i), (i,i+n), (i+n,i), (i+n,i+n)."""
        site = np.arange(self.n)
        rows = np.concatenate([site, site, site + self.n, site + self.n])
        cols = np.concatenate([site, site + self.n, site, site + self.n])
        coo = self.mass.tocoo()
        pattern = sp.csc_matrix(
            (np.concatenate([coo.data, np.zeros(rows.size)]),
             (np.concatenate([coo.row, rows]), np.concatenate([coo.col, cols]))),
            shape=(self.dim, self.dim))
        return pattern, _entry_positions(pattern, rows, cols).reshape(4, self.n)

    def grad_jacobian(self, x: np.ndarray):
        """M + Hess h(x), each site block M's entries (0 where M stores
        none) plus V's curvature from one ``curvature`` call over all sites.

        A linear system returns M; a separable one a :class:`Separable` of
        its shared K and this call's V_qq; any other CSC on a fixed pattern,
        which stores every site block.
        """
        if self.nonlin is None:
            return self.mass
        n = self.n
        v_qq, v_qp, v_pp = self.nonlin.curvature(x[:n], x[n:], slice(None))
        k = self._separable
        if k is not None:
            return Separable(k, v_qq)
        pattern, blocks = self._hessian_pattern
        data = pattern.data.copy()
        for pos, v in zip(blocks, (v_qq, v_qp, v_qp, v_pp)):
            data[pos] += v
        # a shallow copy shares the pattern's index arrays and canonical-format
        # flags, so the constructor's re-check of those arrays never runs
        g = copy.copy(pattern)
        g.data = data
        return g


@dataclass(frozen=True)
class IntegratorOptions:
    h_t: float
    t_final: float

    def __post_init__(self):
        for name in ("h_t", "t_final"):
            checked_number(name, getattr(self, name))
        if self.h_t <= 0 or self.t_final <= 0:
            raise ValueError("h_t and t_final must be positive")
        steps = self.t_final / self.h_t
        if round(steps) < 1 or abs(steps - round(steps)) > 1e-8 * max(1.0, round(steps)):
            raise ValueError(f"t_final/h_t = {steps} is not a positive integer")

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.h_t))


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (dim, steps + 1): the transpose of time-major rows
    wall_time: float
    newton_updates: int = 0  # Jacobian evaluations; 0 for a linear system
    # the run's factorization (:func:`_pick_factor`) of its Newton matrices, or
    # of a linear step's: "schur", "band" or "lapack"; None if it factored none
    solver: str | None = None

    @property
    def h_t(self) -> float:
        return float(self.times[1] - self.times[0]) if self.times.size > 1 else 0.0


class _BandJ:
    """I + t J G for sparse Jacobians G in LAPACK band storage, rows and
    columns in the reverse Cuthill-McKee order of its symmetrized pattern.
    The order, the bandwidths ``kl``, ``ku`` and each stored entry's band
    slot, with the sign of J, are fixed once per pattern of G; the entries
    equal those of ``I + t * (J @ G)``."""

    def __init__(self, t: float):
        self.t, self.pattern = t, (None, None)

    def _refit(self, g: sp.csc_matrix) -> None:
        from scipy.sparse.csgraph import reverse_cuthill_mckee  # 1-2 MB: only runs that use it
        self.pattern, dim = (g.indptr, g.indices), g.shape[0]
        rows, cols = g.indices, np.repeat(np.arange(dim), np.diff(g.indptr))
        # row r of G becomes row r - n of J G if r >= n, else row r + n negated
        self.scale = np.where(rows >= dim // 2, self.t, -self.t)
        i, j = np.r_[(rows + dim // 2) % dim, :dim], np.r_[cols, :dim]
        pattern = sp.csr_matrix((np.ones(i.size), (i, j)), shape=(dim, dim))
        self.order = reverse_cuthill_mckee(pattern + pattern.T, symmetric_mode=True)
        self.rank = np.argsort(self.order)
        i, j = self.rank[i], self.rank[j]
        self.kl, self.ku = int((i - j).max()), int((j - i).max())
        # ordered entry (i, j) sits in row kl + ku + i - j of column j of the
        # (2 kl + ku + 1) x dim band array, which is stored by columns
        self.height = 2 * self.kl + self.ku + 1
        slots = j * self.height + (self.kl + self.ku + i - j)
        self.slots, self.diag = slots[:rows.size], slots[rows.size:]

    def band(self, g) -> np.ndarray:
        """A new band array of I + t J G for G's data."""
        g = g.tocsc()
        if not g.has_canonical_format:  # duplicate entries would share one slot
            g = g.tocoo().tocsc()
        if not all(a is b or np.array_equal(a, b)
                   for a, b in zip(self.pattern, (g.indptr, g.indices))):
            self._refit(g)
        ab = np.zeros(self.rank.size * self.height)
        ab[self.slots] = self.scale * g.data
        ab[self.diag] += 1.0
        return ab.reshape(-1, self.height).T

    def factor(self, g, where: str):
        lu, piv, info = lapack.dgbtrf(self.band(g), self.kl, self.ku, overwrite_ab=True)
        _check_pivots(info, where)
        kl, ku, order, rank = self.kl, self.ku, self.order, self.rank
        return lambda b: lapack.dgbtrs(lu, kl, ku, b[order], piv)[0][rank]


class _SchurJ:
    """I + t J G for the :class:`Separable` Jacobians G = diag(A, I),
    A = K + diag(v_qq), of one run.  Its system [[I, t I], [-t A, I]] [u; w]
    = [r_q; r_p] solves as (I + t^2 A) w = r_p + t A r_q, u = r_q - t w.  The
    n x n Schur matrix I + t^2 A is tridiagonal, solved by ``dgtsv``, or
    diagonal when K has no off-diagonal entry (Vlasov), solved by a
    division.  Its off-diagonals t^2 K are formed once per K."""

    def __init__(self, t: float):
        self.t, self.k = t, None

    def schur(self, g: Separable):
        """The diagonal 1 + t^2 (k_ii + v_qq) of I + t^2 A, and the sub- and
        superdiagonal of t^2 K, or None if both are zero."""
        t2 = self.t * self.t
        if g.k is not self.k:
            self.k, self.k_diag = g.k, g.k.diagonal()
            off = t2 * g.k.diagonal(-1), t2 * g.k.diagonal(1)
            self.off = off if off[0].any() or off[1].any() else None
        d = self.k_diag + g.v_qq
        d *= t2
        d += 1.0
        return d, self.off

    def factor(self, g: Separable, where: str):
        d, off = self.schur(g)
        if off is None and not d.all():  # a NaN passes, and ends as a non-finite residual
            _check_pivots(int(np.flatnonzero(d == 0.0)[0]) + 1, where)
        t, k, v_qq, n = self.t, g.k, g.v_qq, d.size

        def solve(res: np.ndarray) -> np.ndarray:
            r_q, x = res[:n], np.empty(2 * n)
            rhs = v_qq * r_q
            if k.nnz:
                rhs += k @ r_q
            rhs *= t
            rhs += res[n:]
            if off is None:
                w = np.divide(rhs, d, out=x[n:])
            else:
                w, info = lapack.dgtsv(off[0], d, off[1], rhs, overwrite_b=True)[3:]
                _check_pivots(info, where)
                x[n:] = w
            np.subtract(r_q, t * w, out=x[:n])
            return x

        return solve


def _shifted_dense(t: float, dim: int):
    """The map G -> I + t J G for a dense dim x dim G, each call a new array:
    one row gather and one scaling, bit for bit J G times t.  The row order
    and the signs are formed once."""
    half = dim // 2
    order = np.r_[half:dim, :half]
    signs = np.repeat([t, -t], half)[:, None]

    def shifted(g: np.ndarray) -> np.ndarray:
        a = g.take(order, axis=0)
        a *= signs
        a.ravel()[::dim + 1] += 1.0
        return a

    return shifted


def _shifted(g, t: float):
    """I + t J G as a matrix to multiply by: CSR for a sparse G."""
    if not sp.issparse(g):
        return _shifted_dense(t, g.shape[0])(g)
    g, n = g.tocsr(), g.shape[0] // 2
    return sp.eye(2 * n, format="csr") + t * sp.vstack([g[n:], -g[:n]], format="csr")


def _check_pivots(info: int, where: str) -> None:
    """Raise for a LAPACK LU factorization with a pivot ``info`` exactly zero."""
    if info > 0:
        raise NewtonDivergence(f"{where}: singular Newton matrix (pivot {info} is exactly zero)")


def _lu(a: np.ndarray, where: str):
    """The solve b -> a^{-1} b by one LAPACK ``dgetrf`` of ``a``, which is
    overwritten, and one ``dgetrs`` per call."""
    lu, piv, info = lapack.dgetrf(a, overwrite_a=True)
    _check_pivots(info, where)
    return lambda b: lapack.dgetrs(lu, piv, b)[0]


def _pick_factor(g, t: float):
    """The factorization (G, where) -> solve of I + t J G for the Jacobians of
    one run, picked by the type of its first Jacobian G, and its name:
    the Schur complement of :class:`_SchurJ` for a :class:`Separable` G
    ("schur"); ``dgbtrf``/``dgbtrs`` in the band storage of :class:`_BandJ`
    for a sparse G ("band"); ``dgetrf``/``dgetrs`` with J's row order and
    signs formed once for a dense G, which every ROM's is ("lapack").  A
    solve b -> (I + t J G)^{-1} b stays valid until the next factorization;
    ``where`` leads the message of a singular matrix."""
    if isinstance(g, Separable):
        return _SchurJ(t).factor, "schur"
    if sp.issparse(g):
        return _BandJ(t).factor, "band"
    shifted = _shifted_dense(t, g.shape[0])
    return (lambda g, where: _lu(shifted(g), where)), "lapack"


#: Newton iterations allowed per Crank-Nicolson step.
NEWTON_MAXIT = 50


@np.errstate(over="ignore")  # overflow surfaces as NewtonDivergence
def crank_nicolson(system, x0: np.ndarray, opts: IntegratorOptions) -> Trajectory:
    """Trapezoidal step x_{m+1} = x_m + (h/2)(J grad H(x_m) + J grad H(x_{m+1})).

    Linear systems reduce to one prefactored solve per step and conserve the
    quadratic energy exactly up to roundoff.  Nonlinear steps run a Newton
    iteration on the step residual with the analytic Jacobian
    I - (h/2) J (M + Hess h) until the residual norm is at most 1e-10.

    A model is read only through ``dim``, ``is_linear``, ``flow`` (the
    vector field J grad H) and ``grad_jacobian``.  Each Newton update calls
    ``system.grad_jacobian`` exactly once, the contract by which
    ``perfbench`` counts and times updates; their number is
    ``Trajectory.newton_updates``.  The converged iterate's vector field is
    reused as the next step's J grad H(x_m), so a run makes
    steps + updates + 1 ``system.flow`` calls.  Each converged state is one
    row of a time-major array, and ``Trajectory.states`` is its transpose.

    Every solve goes through one factor/solve protocol: the first Jacobian's
    type picks the run's factorization ``factor(G, where) -> solve``,
    recorded as ``Trajectory.solver``, which is built once and keeps what is
    fixed for the run.  A Newton update factors its own I - (h/2) J G and
    solves once; a linear run factors I - (h/2) J M once and solves once per
    step.  A ``solve`` stays valid until the next ``factor`` call.  Each is
    one LAPACK factorization, or for a separable system one of the n x n
    Schur complement (a division when it is diagonal), picked by
    :func:`_pick_factor`.  Exceeding the budget of :data:`NEWTON_MAXIT`
    iterations, a non-finite residual or a singular Newton matrix raises
    :class:`NewtonDivergence`.
    """
    start = time.perf_counter()
    dim, h, steps = system.dim, opts.h_t, opts.steps
    c = 0.5 * h
    rows = np.empty((steps + 1, dim))
    rows[0] = x0
    x = rows[0]
    updates, solver = 0, None
    if system.is_linear:
        g = system.grad_jacobian(x)
        factor, solver = _pick_factor(g, -c)
        solve = factor(g, "linear step")
        rhs_mat = _shifted(g, c)
        for m in range(steps):
            rows[m + 1] = x = solve(rhs_mat @ x)
        if not np.all(np.isfinite(x)):
            first = int(np.argmin(np.isfinite(rows).all(axis=1)))
            raise NewtonDivergence(
                f"step {first - 1}: linear step produced a non-finite state"
                if first else "initial state is non-finite")
    else:
        flow, jacobian = system.flow, system.grad_jacobian
        factor = None
        fx = flow(x)
        for m in range(steps):
            y = x + h * fx
            for _ in range(NEWTON_MAXIT):
                fy = flow(y)
                # y - x - c (fx + fy), in that order of operations
                t = fx + fy
                t *= c
                res = y - x
                res -= t
                norm = math.sqrt(res.dot(res))
                if norm <= 1e-10:
                    break
                if not math.isfinite(norm):
                    raise NewtonDivergence(f"step {m}: non-finite Newton residual norm {norm}")
                g = jacobian(y)
                updates += 1
                if factor is None:
                    factor, solver = _pick_factor(g, -c)
                y = y - factor(g, f"step {m}")(res)
            else:
                raise NewtonDivergence(
                    f"step {m}: residual {norm:.3e} after "
                    f"{NEWTON_MAXIT} Newton iterations")
            rows[m + 1] = x = y
            fx = fy
    times = h * np.arange(steps + 1)
    return Trajectory(times, rows.T, time.perf_counter() - start, updates, solver)


# ---------------------------------------------------------------------------
# model constructions


def _laplacian(n: int, h: float, periodic: bool) -> sp.csr_matrix:
    main = -2.0 * np.ones(n)
    off = np.ones(n - 1)
    d = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    if periodic:
        d[0, n - 1] = 1.0
        d[n - 1, 0] = 1.0
    return (d / h**2).tocsr()


def _cubic_spline_bump(eta: np.ndarray) -> np.ndarray:
    out = np.zeros_like(eta)
    inner = eta <= 1.0
    outer = (eta > 1.0) & (eta <= 2.0)
    out[inner] = 1.0 - 1.5 * eta[inner] ** 2 + 0.75 * eta[inner] ** 3
    out[outer] = 0.25 * (2.0 - eta[outer]) ** 3
    return out


def wave_system(n: int, c: float = 0.1, a: float = 0.0, b: float = 1.0) -> HamiltonianSystem:
    """Periodic linear wave equation; M = diag(-c^2 D, I), spline initial bump."""
    if n < 3:
        raise ValueError("need n >= 3 grid points")
    h_xi = (b - a) / n
    xi = a + h_xi * np.arange(1, n + 1)
    d = _laplacian(n, h_xi, periodic=True)
    mass = sp.block_diag([-(c**2) * d, sp.eye(n)], format="csr")
    q0 = _cubic_spline_bump(10.0 * np.abs(xi - 0.5))
    x0 = np.concatenate([q0, np.zeros(n)])
    return HamiltonianSystem("wave", n, mass, x0,
                             meta=dict(c=c, a=a, b=b, h_xi=h_xi, xi=xi))


def sine_gordon_exact(t: float, xi: np.ndarray, v: float = 0.2,
                      xi0: float = 10.0) -> np.ndarray:
    """Solitary-wave solution 4 arctan(exp((xi - xi0 - v t)/sqrt(1 - v^2)))."""
    return 4.0 * np.arctan(np.exp((xi - xi0 - v * t) / np.sqrt(1.0 - v**2)))


def sine_gordon_system(n: int, a: float = 0.0, b: float = 50.0, v: float = 0.2,
                       xi0: float = 10.0) -> HamiltonianSystem:
    """Sine-Gordon equation with Dirichlet data frozen at its t = 0 values.

    The boundary values enter the nonlinearity as the constant corrections
    -phi_a/h^2, -phi_b/h^2 on the first and last interior components and the
    matching terms in the energy.
    """
    if not 0.0 < v < 1.0:
        raise ValueError("need 0 < v < 1")
    h_xi = (b - a) / (n + 1)
    xi = a + h_xi * np.arange(1, n + 1)
    d = _laplacian(n, h_xi, periodic=False)
    mass = sp.block_diag([-d, sp.eye(n)], format="csr")
    gamma = np.sqrt(1.0 - v**2)
    phi_a = float(sine_gordon_exact(0.0, np.array([a]), v, xi0)[0])
    phi_b = float(sine_gordon_exact(0.0, np.array([b]), v, xi0)[0])
    ca, cb = phi_a / h_xi**2, phi_b / h_xi**2

    q0 = sine_gordon_exact(0.0, xi, v, xi0)
    ex = np.exp((xi - xi0) / gamma)
    p0 = -4.0 * v * ex / (gamma * (1.0 + ex**2))
    x0 = np.concatenate([q0, p0])

    # the frozen boundary values couple to the first and last interior sites,
    # both to the one site when n = 1, so their terms are accumulated
    force = np.zeros(n)
    offset = np.zeros(n)
    np.add.at(force, [0, -1], [ca, cb])
    np.add.at(offset, [0, -1], [phi_a**2 / (2 * h_xi**2), phi_b**2 / (2 * h_xi**2)])
    nl = Nonlinearity(
        potential=lambda q, p, i: 1.0 - np.cos(q) - force[i] * q + offset[i],
        slope=lambda q, p, i: (np.sin(q) - force[i], 0.0),
        curvature=lambda q, p, i: (np.cos(q), 0.0, 0.0))
    return HamiltonianSystem("sine-gordon", n, mass, x0, nl,
                             meta=dict(a=a, b=b, v=v, xi0=xi0, h_xi=h_xi, xi=xi,
                                       phi_a=phi_a, phi_b=phi_b))


def schrodinger_system(n: int, length: float = 2 * np.pi / 0.11,
                       eps: float = 1.0932, c: float = 1.0,
                       xi0: float = 0.0) -> HamiltonianSystem:
    """Cubic Schroedinger equation in real coordinates (q, p) = (Re z, Im z).

    M = diag(-D, -D) with the periodic Laplacian D and the quartic
    h(q, p) = -(eps/4) sum (q_i^2 + p_i^2)^2; each gradient component couples
    exactly the pair (q_i, p_i).
    """
    if n < 3:
        raise ValueError("need n >= 3 grid points")
    h_xi = length / n
    xi = -0.5 * length + h_xi * np.arange(n)
    d = _laplacian(n, h_xi, periodic=True)
    mass = sp.block_diag([-d, -d], format="csr")
    z0 = np.sqrt(2.0) / np.cosh(xi - xi0) * np.exp(1j * 0.5 * c * (xi - xi0))
    x0 = np.concatenate([z0.real, z0.imag])

    def slope(q, p, i):
        r = q**2 + p**2
        return -eps * (r * q), -eps * (r * p)

    def curvature(q, p, i):
        r = q**2 + p**2
        return -eps * (r + 2 * q**2), -eps * 2 * q * p, -eps * (r + 2 * p**2)

    nl = Nonlinearity(potential=lambda q, p, i: -(eps / 4.0) * (q**2 + p**2) ** 2,
                      slope=slope, curvature=curvature)
    return HamiltonianSystem("schrodinger", n, mass, x0, nl,
                             meta=dict(length=length, eps=eps, c=c, xi0=xi0,
                                       h_xi=h_xi, xi=xi))


@dataclass(frozen=True)
class VlasovParams:
    eps: float = 0.3
    a: float = 0.3
    v0: float = 4.0
    sigma: float = 1.0
    v_min: float = -6.0
    v_max: float = 10.0
    grid: int = 512


def sample_vlasov_ic(n: int, params: VlasovParams = VlasovParams(),
                     seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Sample n (position, velocity) pairs from the bump-on-tail density.

    Discretized-grid inverse-transform sampling: the density is tabulated on
    a ``grid`` x ``grid`` mesh over [0, 1] x [v_min, v_max], a cell is drawn
    by its probability mass, and the sample is placed uniformly inside the
    cell.  Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    g = params.grid
    q_edges = np.linspace(0.0, 1.0, g + 1)
    v_edges = np.linspace(params.v_min, params.v_max, g + 1)
    qc = 0.5 * (q_edges[:-1] + q_edges[1:])
    vc = 0.5 * (v_edges[:-1] + v_edges[1:])
    fq = 1.0 + params.eps * np.cos(2 * np.pi * qc)
    fv = (np.exp(-vc**2 / 2.0)
          + (params.a / params.sigma) * np.exp(-(vc - params.v0) ** 2 / (2 * params.sigma**2)))
    pmass = np.outer(fq, fv).ravel()
    pmass /= pmass.sum()
    cells = np.searchsorted(np.cumsum(pmass), rng.random(n))
    iq, iv = np.unravel_index(cells, (g, g))
    dq = q_edges[1] - q_edges[0]
    dv = v_edges[1] - v_edges[0]
    q = q_edges[iq] + dq * rng.random(n)
    v = v_edges[iv] + dv * rng.random(n)
    return q, v


def vlasov_system(n: int, seed: int = 0,
                  params: VlasovParams = VlasovParams()) -> HamiltonianSystem:
    """Particle-in-cell Vlasov model: qdot = p, pdot = -E(q), E = 3 cos(4 pi q).

    H = sum(p_i^2/2 - phi(q_i)) with the potential phi = -(3/4pi) sin(4 pi q)
    whose negative derivative is the field E.  Initial data sampled from the
    bump-on-tail density, deterministic per seed.
    """
    four_pi = 4.0 * np.pi
    mass = sp.block_diag([sp.csr_matrix((n, n)), sp.eye(n)], format="csr")
    q0, p0 = sample_vlasov_ic(n, params, seed)
    x0 = np.concatenate([q0, p0])
    # per-site energy -phi(q) = (3/4pi) sin(4 pi q), whose slope is the field E
    nl = Nonlinearity(
        potential=lambda q, p, i: (3.0 / four_pi) * np.sin(four_pi * q),
        slope=lambda q, p, i: (3.0 * np.cos(four_pi * q), 0.0),
        curvature=lambda q, p, i: (-3.0 * four_pi * np.sin(four_pi * q), 0.0, 0.0))
    return HamiltonianSystem("vlasov", n, mass, x0, nl,
                             meta=dict(seed=seed, params=params))


# ---------------------------------------------------------------------------
# reduction pipeline


def extract_snapshots(traj: Trajectory, s: int) -> np.ndarray:
    """Uniform-stride selection of s stored states, endpoints included."""
    cols = traj.states.shape[1]
    if not 1 <= s <= cols:
        raise ValueError(f"need 1 <= s <= {cols}, got {s}")
    idx = np.round(np.linspace(0, cols - 1, s)).astype(int)
    return traj.states[:, idx]


def state_seeded_cotangent_lift(snapshots: np.ndarray, k: int,
                                x0: np.ndarray) -> SymplecticPoint:
    """Cotangent lift whose range contains x0 exactly.

    The nonzero halves of x0 lead the orthonormalization of the POD modes of
    ``cotangent_lift``, so the block-diagonal basis diag(Xhat, Xhat)
    reproduces the initial state; the leading modes fill the other columns.
    """
    return _seeded_lift(_stacked_modes(snapshots, k)[0], k, x0)


def _seeded_lift(modes: np.ndarray, k: int, x0: np.ndarray) -> SymplecticPoint:
    scale = max(float(np.linalg.norm(x0)), 1.0)
    seeds = [v for v in np.split(x0, 2) if np.linalg.norm(v) > 1e-14 * scale]
    if len(seeds) > k:
        raise ValueError("k too small to seed the initial state")
    q, _ = np.linalg.qr(np.column_stack(seeds + [modes[:, :k]]))
    return _block_diag_lift(q[:, :k])


def _span_basis(xhat: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Orthonormal [modes, W]; W spans xhat off the modes: rank < k or x0 not a snapshot."""
    rest = xhat - modes @ (modes.T @ xhat)
    rest -= modes @ (modes.T @ rest)  # the second pass keeps W orthogonal to the modes
    w, sv, _ = np.linalg.svd(rest, full_matrices=False)
    return np.column_stack([modes, w[:, sv > np.sqrt(np.finfo(float).eps)]])


def restore_state_containment(u: SymplecticPoint, x0: np.ndarray) -> SymplecticPoint:
    """Nearest-in-spirit symplectic basis whose range regains x0.

    A rank-one correction maps the reduced coordinates of x0 back onto x0
    itself, and the result is re-symplectified by an SR factorization; since
    the SR factors share their range with the corrected matrix, containment
    of x0 is exact while the basis moves only by the size of the previous
    containment defect.
    """
    e = u.entries
    b = symplectic_inverse(u) @ x0
    denom = float(b @ b)
    if denom == 0.0:  # x0 = 0 is trivially contained
        return u
    r = x0 - e @ b
    corrected = e + np.outer(r, b) / denom
    return sgs(corrected).s


@dataclass
class ReducedSystem:
    """Hamiltonian reduced model xtdot = J_{2k} grad Ht(xt), xt0 = U^+ x0.

    A nonlinear model's vector field and its Jacobian come from ``deim``;
    the "exact" variant's operator samples every component the slope can
    make nonzero, so B is U^T restricted to them.
    """

    basis: SymplecticPoint
    full: HamiltonianSystem
    variant: str  # "exact" | "psd-deim" | "structure-preserving"
    x0_reduced: np.ndarray
    reduced_mass: np.ndarray
    deim: DeimOperator | None = None  # None for a linear model
    diagnostics: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.basis.entries.shape[1] // 2

    @property
    def dim(self) -> int:
        return 2 * self.k

    @property
    def is_linear(self) -> bool:
        return self.full.nonlin is None

    def flow(self, xt: np.ndarray) -> np.ndarray:
        """The reduced vector field J_{2k} grad Ht(xt)."""
        if self.full.nonlin is None:
            return jmul(self.reduced_mass @ xt)
        return self.deim(xt)

    def grad_jacobian(self, xt: np.ndarray):
        if self.full.nonlin is None:
            return self.reduced_mass
        return self.deim.jacobian(xt)

    def energies(self, xt: np.ndarray, states: np.ndarray | None = None) -> np.ndarray:
        """Ht at each column of a 2k x B block of reduced states.

        The exact and psd-deim models conserve H(U xt), evaluated on
        ``states`` = U xt when the caller has formed it already; the
        structure-preserving surrogate is xt^T U^T M U xt / 2 plus h at the
        sparse sampled state ``deim.state(xt)``.
        """
        if self.variant == "structure-preserving":
            return (_quadratic(xt, self.reduced_mass @ xt)
                    + self.full.nonlin.value(self.deim.state(xt)))
        return self.full.energies(self.reconstruct(xt) if states is None else states)

    def reconstruct(self, states: np.ndarray) -> np.ndarray:
        return self.basis.entries @ states


def build_rom(system: HamiltonianSystem, snapshots: np.ndarray, k: int,
              reduction: str = "cotlift",
              solver_options: SolverOptions | None = None,
              nonlin: str = "exact") -> ReducedSystem:
    """Assemble a structure-preserving reduced model from snapshot data.

    reduction "cotlift" takes the (state-seeded) cotangent lift; "optimized"
    minimizes the projection error from it (trial step 1e-8 by default) in
    the range of diag(V, V), V spanning the snapshot halves and the lift: an
    orthosymplectic map that holds every iterate, so the solver runs on 2d
    rows, not 2n.  It then restores initial-state containment, which can
    raise the cost, above the lift's when x0 is not a snapshot; the costs
    are recorded in ``diagnostics``.

    nonlin "exact" keeps the full nonlinear term; "psd-deim" and
    "structure-preserving" interpolate it on greedily selected components of
    a gradient-snapshot basis with round(2.5 k) modes, clamped to the
    available rank.
    """
    snapshots = np.asarray(snapshots, dtype=float)
    if snapshots.shape[1] < k:
        raise ValueError(f"need at least k={k} snapshots, got {snapshots.shape[1]}")
    if reduction not in ("cotlift", "optimized"):
        raise ValueError(f"unknown reduction {reduction!r}")
    if nonlin not in NONLIN_TREATMENTS:
        raise ValueError(f"unknown nonlinearity treatment {nonlin!r}")
    if system.is_linear and nonlin != "exact":
        raise ValueError(f"{system.name} is linear; no term to interpolate")

    modes, rank = _stacked_modes(snapshots, k)
    u = _seeded_lift(modes, k, system.x0)
    e, _ = _psd_residual(u.entries, snapshots, jmul(snapshots))
    diagnostics = {"cost_cotlift": float(np.linalg.norm(e) ** 2)}

    if reduction == "optimized":
        def halves(m, x):  # diag(M, M) x, not formed
            return (m @ x.reshape(2, -1, x.shape[1])).reshape(-1, x.shape[1])
        v = _span_basis(u.entries[:u.n, :k], modes[:, :rank])
        prob = PsdProblem(halves(v.T, snapshots), k)
        opts = solver_options or SolverOptions(**ROM_SOLVER)
        opt_result = minimize(prob, SymplecticPoint.from_entries(halves(v.T, u.entries)), opts)
        y = opt_result.x_final.entries
        diagnostics["cost_optimized"] = prob.cost(y)
        u = restore_state_containment(SymplecticPoint.from_entries(halves(v, y)), system.x0)
        diagnostics["cost_restored"] = prob.cost(halves(v.T, u.entries))
        diagnostics["solver_status"] = opt_result.status.value
        diagnostics["solver_iterations"] = opt_result.trace.iterations
        diagnostics["cost_trace"] = opt_result.trace.costs()

    xt0 = symplectic_inverse(u) @ system.x0
    reduced_mass = np.asarray(u.entries.T @ (system.mass @ u.entries))

    deim_op = None
    if nonlin == "exact" and not system.is_linear:
        deim_op = exact_reduced_rhs(u, reduced_mass, system.nonlin)
    elif nonlin != "exact":
        grads = system.nonlin.gradient(snapshots)
        basis_full, sv, _ = np.linalg.svd(grads, full_matrices=False)
        rank = int(np.sum(sv > 1e-12 * sv[0])) if sv[0] > 0 else 0
        if rank == 0:
            raise ValueError("nonlinear gradient snapshots are identically zero")
        m = max(1, min(int(round(2.5 * k)), rank))
        v = basis_full[:, :m]
        indices = deim_select(v)
        deim_op = deim_reduced_rhs(u, reduced_mass, v, indices, system.nonlin,
                                   variant=nonlin)

    return ReducedSystem(u, system, nonlin, xt0, reduced_mass, deim_op, diagnostics)


#: Time columns per block of :func:`relative_errors`: a multiple of the column
#: tiles of BLAS matrix-product kernels, so blocks meet the tiles of one
#: product over the whole trajectory.
_ERROR_BLOCK = 256


@dataclass
class ErrorReport:
    re_x: float
    re_h: float
    times: np.ndarray
    pointwise_state: np.ndarray   # ||x(t) - U xt(t)|| / mean_t ||x(t)||
    pointwise_energy: np.ndarray  # |H(x(t)) - Ht(xt(t))| / |H(x(0))|


def _l2_time(values: np.ndarray, h: float) -> float:
    return float(np.sqrt(np.trapezoid(values, dx=h)))


def relative_errors(full: Trajectory, rom: ReducedSystem,
                    rom_traj: Trajectory) -> ErrorReport:
    """L2-in-time relative state and energy errors plus pointwise series.

    The discrete L2 norm uses the composite trapezoidal rule on the shared
    time grid; mismatched grids raise :class:`GridMismatch`, and a single
    stored state, which has no L2-in-time norm, raises ``ValueError``.

    The trajectories are read in blocks of time columns, so the memory used
    beyond them does not grow with the step count.  Each block forms U xt
    once: it gives the ROM energy of the exact and psd-deim models and then,
    with the full-order block subtracted in place, the state error.  Blocks
    start at multiples of ``_ERROR_BLOCK`` and the last takes the remainder,
    so no block but a lone one is narrower.  The column sums then equal
    those over the whole trajectory, and wherever BLAS computes a block's
    columns of U xt as it does in one product over all columns,
    ``re_x`` and ``pointwise_state`` are bit-identical to the unblocked
    evaluation.  Energies come from :meth:`HamiltonianSystem.energies` and
    :meth:`ReducedSystem.energies`.
    """
    if full.times.shape != rom_traj.times.shape or not np.allclose(
            full.times, rom_traj.times, rtol=0.0, atol=1e-12 * max(1.0, full.times[-1])):
        raise GridMismatch("trajectories live on different time grids")
    h = full.h_t
    cols = full.states.shape[1]
    if cols < 2:
        raise ValueError(f"relative errors need at least two stored states, got {cols}")
    diff2, norm2, h_full, h_rom = np.empty((4, cols))
    start = 0
    for stop in [*range(_ERROR_BLOCK, cols - _ERROR_BLOCK + 1, _ERROR_BLOCK), cols]:
        blk = slice(start, stop)
        x, xt = full.states[:, blk], rom_traj.states[:, blk]
        rec = rom.reconstruct(xt)
        h_full[blk] = rom.full.energies(x)
        h_rom[blk] = rom.energies(xt, rec)
        rec -= x  # U xt - x squares to (x - U xt)**2 bit for bit
        diff2[blk] = np.sum(rec**2, axis=0)
        norm2[blk] = np.sum(x**2, axis=0)
        start = stop
    re_x = _l2_time(diff2, h) / _l2_time(norm2, h)
    re_h = _l2_time((h_full - h_rom) ** 2, h) / _l2_time(h_full**2, h)

    mean_norm = float(np.trapezoid(np.sqrt(norm2), dx=h) / full.times[-1])
    pw_state = np.sqrt(diff2) / mean_norm
    pw_energy = np.abs(h_full - h_rom) / abs(h_full[0])
    return ErrorReport(re_x, re_h, full.times, pw_state, pw_energy)
