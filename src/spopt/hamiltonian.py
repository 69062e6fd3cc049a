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
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from .core import NumericalFailure, SymplecticPoint, jmul, symplectic_inverse
from .applications import (DeimOperator, PsdProblem, _block_diag_lift,
                           deim_reduced_rhs, deim_select, exact_reduced_rhs)
from .optimizer import SolverOptions, minimize
from .sr import sgs

__all__ = [
    "Nonlinearity", "HamiltonianSystem", "IntegratorOptions", "Trajectory",
    "ReducedSystem", "NewtonDivergence", "GridMismatch",
    "wave_system", "sine_gordon_system", "schrodinger_system", "vlasov_system",
    "sample_vlasov_ic", "VlasovParams", "sine_gordon_exact",
    "crank_nicolson", "extract_snapshots", "state_seeded_cotangent_lift",
    "restore_state_containment", "build_rom", "relative_errors", "ErrorReport",
    "NONLIN_TREATMENTS",
]

#: Treatments of the nonlinear term that ``build_rom`` accepts.
NONLIN_TREATMENTS = ("exact", "psd-deim", "structure-preserving")


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

    n: int
    potential: Callable
    slope: Callable
    curvature: Callable

    def value(self, x: np.ndarray) -> float:
        n = self.n
        return float(np.sum(self.potential(x[:n], x[n:], slice(None))))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        n = self.n
        g = np.zeros(2 * n)
        g[:n], g[n:] = self.slope(x[:n], x[n:], slice(None))
        return g


def _entry_positions(mat: sp.csc_matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Positions in ``mat.data`` of the entries (rows, cols) of its canonical
    (sorted, duplicate-free) pattern."""
    dim = mat.shape[0]
    keys = np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr)) * dim + mat.indices
    return np.searchsorted(keys, cols * dim + rows)


@dataclass(frozen=True)
class HamiltonianSystem:
    """Semi-discrete system xdot = J grad H, H(x) = x^T M x / 2 + h(x)."""

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

    def hamiltonian(self, x: np.ndarray) -> float:
        h = 0.5 * float(x @ (self.mass @ x))
        if self.nonlin is not None:
            h += self.nonlin.value(x)
        return h

    def grad(self, x: np.ndarray) -> np.ndarray:
        g = self.mass @ x
        if self.nonlin is not None:
            g = g + self.nonlin.gradient(x)
        return g

    def rhs(self, x: np.ndarray) -> np.ndarray:
        return jmul(self.grad(x))

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
        """M + Hess h(x); for a nonlinear system as CSC on a fixed pattern,
        filled from one ``curvature`` call over all sites."""
        if self.nonlin is None:
            return self.mass
        n = self.n
        pattern, blocks = self._hessian_pattern
        v_qq, v_qp, v_pp = self.nonlin.curvature(x[:n], x[n:], slice(None))
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
    newton_maxit: int = 50

    def __post_init__(self):
        if self.h_t <= 0 or self.t_final <= 0:
            raise ValueError("h_t and t_final must be positive")
        if self.newton_maxit < 1:
            raise ValueError(f"newton_maxit must be >= 1, got {self.newton_maxit}")
        steps = self.t_final / self.h_t
        if abs(steps - round(steps)) > 1e-8 * max(1.0, round(steps)):
            raise ValueError(f"t_final/h_t = {steps} is not integral")

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.h_t))


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (dim, steps + 1)
    wall_time: float
    newton_updates: int = 0  # Jacobian evaluations; 0 for a linear system

    @property
    def h_t(self) -> float:
        if self.times.size < 2:
            return 0.0
        return float(self.times[1] - self.times[0])


class _ShiftedJ:
    """I + t J G for a sparse G, on a CSC pattern built once for G's pattern.

    Each call gathers G's data onto the pattern with the signs of J, so a
    Newton update assembles no sparse structure.  The values and the pattern
    equal those of ``(I + t * (J @ G)).tocsc()`` wherever that keeps an
    entry; an entry of G that is exactly zero stays stored here.
    """

    def __init__(self, g: sp.csc_matrix, t: float):
        dim = g.shape[0]
        n = dim // 2
        self.indptr, self.indices = g.indptr, g.indices
        rows = g.indices
        cols = np.repeat(np.arange(dim), np.diff(g.indptr))
        # row r of G becomes row r - n of J G if r >= n, else row r + n negated
        moved = (rows + n) % dim
        diag = np.arange(dim)
        mat = sp.csc_matrix((np.zeros(g.nnz + dim),
                             (np.concatenate([moved, diag]), np.concatenate([cols, diag]))),
                            shape=g.shape)
        target = _entry_positions(mat, moved, cols)
        # entries fed by I alone gather an arbitrary element with weight 0
        self.gather = np.zeros(mat.nnz, dtype=np.intp)
        self.gather[target] = np.arange(g.nnz)
        self.scale = np.zeros(mat.nnz)
        self.scale[target] = np.where(rows >= n, t, -t)
        self.diag = _entry_positions(mat, diag, diag)
        self.matrix = mat

    def fits(self, g: sp.csc_matrix) -> bool:
        same = lambda a, b: a is b or np.array_equal(a, b)
        return same(g.indptr, self.indptr) and same(g.indices, self.indices)

    def __call__(self, g: sp.csc_matrix) -> sp.csc_matrix:
        """The matrix for G's data; it is overwritten by the next call."""
        data = self.matrix.data
        np.multiply(self.scale, g.data[self.gather], out=data)
        data[self.diag] += 1.0
        return self.matrix


def _canonical_csc(g) -> sp.csc_matrix:
    # duplicate entries of G would share one slot of the gather
    g = g.tocsc()
    return g if g.has_canonical_format else g.tocoo().tocsc()


def _sparse_lu(a: sp.csc_matrix, where: str):
    try:
        return splu(a)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NewtonDivergence(f"{where}: singular Newton matrix ({exc})") from None


def _dense_solve(a: np.ndarray, b: np.ndarray, where: str) -> np.ndarray:
    """a^{-1} b by one LAPACK ``dgesv``; ``a`` is overwritten."""
    _, _, x, info = lapack.dgesv(a, b, overwrite_a=True)
    if info > 0:
        raise NewtonDivergence(f"{where}: singular Newton matrix (pivot {info} is exactly zero)")
    return x


def crank_nicolson(system, x0: np.ndarray, opts: IntegratorOptions) -> Trajectory:
    """Trapezoidal step x_{m+1} = x_m + (h/2)(J grad H(x_m) + J grad H(x_{m+1})).

    Linear systems reduce to one prefactored solve per step and conserve the
    quadratic energy exactly up to roundoff.  Nonlinear steps run a Newton
    iteration on the step residual with the analytic Jacobian
    I - (h/2) J (M + Hess h) until the residual norm is at most 1e-10.

    Each Newton update calls ``system.grad_jacobian`` exactly once, the
    contract by which ``perfbench`` counts and times updates; their number
    is ``Trajectory.newton_updates``.  The converged iterate's J grad H is
    reused as the next step's J grad H(x_m), so a run makes
    steps + updates + 1 ``system.grad`` calls.  A model is read only
    through ``dim``, ``is_linear``, ``grad`` and ``grad_jacobian``.

    A sparse Jacobian is gathered onto a Newton-matrix pattern built once
    and kept while the Jacobian's pattern does not change; a dense one is
    scaled in place and solved by one LAPACK call.  Exceeding the budget of
    ``newton_maxit`` iterations, a non-finite residual or a singular Newton
    matrix raises :class:`NewtonDivergence`.
    """
    start = time.perf_counter()
    dim = system.dim
    h = opts.h_t
    c = 0.5 * h
    steps = opts.steps
    x0 = np.asarray(x0, dtype=float)
    states = np.empty((dim, steps + 1))
    states[:, 0] = x0
    x = x0.copy()
    updates = 0

    if system.is_linear:
        g = system.grad_jacobian(x0)
        if sp.issparse(g):
            g = _canonical_csc(g)
            solve = _sparse_lu(_ShiftedJ(g, -c)(g), "linear step").solve
            rhs_mat = _ShiftedJ(g, c)(g).tocsr()
        else:
            import scipy.linalg as sla
            jg = jmul(np.asarray(g))
            eye = np.eye(dim)
            lu = sla.lu_factor(eye - c * jg)
            rhs_mat = eye + c * jg
            solve = lambda b: sla.lu_solve(lu, b)
        for m in range(steps):
            x = solve(rhs_mat @ x)
            states[:, m + 1] = x
        if not np.all(np.isfinite(x)):
            first = int(np.argmin(np.isfinite(states).all(axis=0)))
            raise NewtonDivergence(
                f"step {first - 1}: linear step produced a non-finite state"
                if first else "initial state is non-finite")
    else:
        shifted = None
        fx = jmul(system.grad(x))
        for m in range(steps):
            y = x + h * fx
            converged = False
            for _ in range(opts.newton_maxit):
                fy = jmul(system.grad(y))
                # y - x - c (fx + fy), in that order of operations
                t = fx + fy
                t *= c
                res = y - x
                res -= t
                norm = math.sqrt(res.dot(res))
                if norm <= 1e-10:
                    converged = True
                    break
                if not math.isfinite(norm):
                    raise NewtonDivergence(f"step {m}: non-finite Newton residual norm {norm}")
                g = system.grad_jacobian(y)
                updates += 1
                if sp.issparse(g):
                    g = _canonical_csc(g)
                    if shifted is None or not shifted.fits(g):
                        shifted = _ShiftedJ(g, -c)
                    y = y - _sparse_lu(shifted(g), f"step {m}").solve(res)
                else:
                    a = jmul(g)
                    a *= -c
                    a.flat[::dim + 1] += 1.0
                    y = y - _dense_solve(a, res, f"step {m}")
            if not converged:
                raise NewtonDivergence(
                    f"step {m}: residual {norm:.3e} after "
                    f"{opts.newton_maxit} Newton iterations")
            states[:, m + 1] = y
            x, fx = y, fy
    times = h * np.arange(steps + 1)
    return Trajectory(times, states, time.perf_counter() - start, updates)


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

    # the frozen boundary values couple to the first and last interior sites
    force = np.zeros(n)
    offset = np.zeros(n)
    force[0], force[-1] = ca, cb
    offset[0], offset[-1] = phi_a**2 / (2 * h_xi**2), phi_b**2 / (2 * h_xi**2)
    nl = Nonlinearity(
        n,
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

    nl = Nonlinearity(n, potential=lambda q, p, i: -(eps / 4.0) * (q**2 + p**2) ** 2,
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
        n,
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

    The nonzero halves of x0 lead the orthonormalization of the stacked
    snapshot matrix, so the block-diagonal basis diag(Xhat, Xhat) reproduces
    the initial state; leading POD modes fill the remaining columns.
    """
    a = np.asarray(snapshots, dtype=float)
    n = a.shape[0] // 2
    stacked = np.column_stack([a[:n], a[n:]])
    u, _, _ = np.linalg.svd(stacked, full_matrices=False)
    scale = max(float(np.linalg.norm(x0)), 1.0)
    seeds = [v for v in (x0[:n], x0[n:]) if np.linalg.norm(v) > 1e-14 * scale]
    if len(seeds) > k:
        raise ValueError("k too small to seed the initial state")
    q, _ = np.linalg.qr(np.column_stack(seeds + [u[:, :k]]))
    return _block_diag_lift(q[:, :k])


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

    A nonlinear model's reduced gradient and its Jacobian come from ``deim``;
    the "exact" variant's operator samples every component, so B = U^T.
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

    def grad(self, xt: np.ndarray) -> np.ndarray:
        if self.full.nonlin is None:
            return self.reduced_mass @ xt
        return self.deim(xt)

    def rhs(self, xt: np.ndarray) -> np.ndarray:
        return jmul(self.grad(xt))

    def grad_jacobian(self, xt: np.ndarray) -> np.ndarray:
        if self.full.nonlin is None:
            return self.reduced_mass
        return self.deim.jacobian(xt)

    def reduced_hamiltonian(self, xt: np.ndarray) -> float:
        if self.variant == "structure-preserving":
            quad = 0.5 * float(xt @ (self.reduced_mass @ xt))
            return quad + self.full.nonlin.value(self.deim.state(xt))
        return self.full.hamiltonian(self.basis.entries @ xt)

    def reconstruct(self, states: np.ndarray) -> np.ndarray:
        return self.basis.entries @ states


def build_rom(system: HamiltonianSystem, snapshots: np.ndarray, k: int,
              reduction: str = "cotlift",
              solver_options: SolverOptions | None = None,
              nonlin: str = "exact") -> ReducedSystem:
    """Assemble a structure-preserving reduced model from snapshot data.

    reduction "cotlift" takes the (state-seeded) cotangent lift; "optimized"
    additionally minimizes the symplectic projection error starting from that
    basis (trial step 1e-8 by default) and then restores initial-state
    containment.  The projection cost of the final basis never exceeds the
    cotangent-lift cost; both values are recorded in ``diagnostics``.

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

    u = state_seeded_cotangent_lift(snapshots, k, system.x0)
    prob = PsdProblem(snapshots, k)
    diagnostics = {"cost_cotlift": prob.cost(u.entries)}

    if reduction == "optimized":
        opts = solver_options or SolverOptions(gamma0=1e-8, gtol=1e-12, niter=1000)
        opt_result = minimize(prob, u, opts)
        u = opt_result.x_final
        diagnostics["cost_optimized"] = prob.cost(u.entries)
        u = restore_state_containment(u, system.x0)
        diagnostics["cost_restored"] = prob.cost(u.entries)
        diagnostics["solver_status"] = opt_result.status.value
        diagnostics["solver_iterations"] = opt_result.trace.iterations
        diagnostics["cost_trace"] = opt_result.trace.costs()

    xt0 = symplectic_inverse(u) @ system.x0
    reduced_mass = np.asarray(u.entries.T @ (system.mass @ u.entries))

    deim_op = None
    if nonlin == "exact" and not system.is_linear:
        deim_op = exact_reduced_rhs(u, reduced_mass, system.nonlin)
    elif nonlin != "exact":
        grads = np.column_stack([system.nonlin.gradient(snapshots[:, j])
                                 for j in range(snapshots.shape[1])])
        basis_full, sv, _ = np.linalg.svd(grads, full_matrices=False)
        rank = int(np.sum(sv > 1e-12 * sv[0])) if sv[0] > 0 else 0
        if rank == 0:
            raise ValueError("nonlinear gradient snapshots are identically zero")
        m = max(1, min(int(round(2.5 * k)), rank))
        v = basis_full[:, :m]
        indices = deim_select(v)
        deim_op = deim_reduced_rhs(u, reduced_mass, v, indices, system.nonlin,
                                   variant=nonlin)
        diagnostics["deim_modes"] = m
        diagnostics["deim_indices"] = indices

    return ReducedSystem(u, system, nonlin, xt0, reduced_mass, deim_op, diagnostics)


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
    time grid; mismatched grids raise :class:`GridMismatch`.
    """
    if full.times.shape != rom_traj.times.shape or not np.allclose(
            full.times, rom_traj.times, rtol=0.0, atol=1e-12 * max(1.0, full.times[-1])):
        raise GridMismatch("trajectories live on different time grids")
    h = full.h_t
    rec = rom.reconstruct(rom_traj.states)
    diff2 = np.sum((full.states - rec) ** 2, axis=0)
    norm2 = np.sum(full.states**2, axis=0)
    re_x = _l2_time(diff2, h) / _l2_time(norm2, h)

    h_full = np.array([rom.full.hamiltonian(full.states[:, j])
                       for j in range(full.states.shape[1])])
    h_rom = np.array([rom.reduced_hamiltonian(rom_traj.states[:, j])
                      for j in range(rom_traj.states.shape[1])])
    re_h = _l2_time((h_full - h_rom) ** 2, h) / _l2_time(h_full**2, h)

    mean_norm = float(np.trapezoid(np.sqrt(norm2), dx=h) / full.times[-1])
    pw_state = np.sqrt(diff2) / mean_norm
    pw_energy = np.abs(h_full - h_rom) / abs(h_full[0])
    return ErrorReport(re_x, re_h, full.times, pw_state, pw_energy)
