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
:class:`Nonlinearity`; the gradient, its single components, the Hessian and
its rows, and the DEIM stencil are derived there.

The reduced models keep the Hamiltonian form xtdot = J_{2k} grad Ht(xt).
Reduced bases contain the initial state exactly by construction (and are
re-seeded after optimization through a rank-one SR correction), which pins
the constant Hamiltonian offset H(x(t)) - Ht(xt(t)) at integrator roundoff.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .core import NumericalFailure, SymplecticPoint, jvec, symplectic_inverse
from .applications import PsdProblem, DeimOperator, deim_reduced_rhs, deim_select
from .optimizer import SolverOptions, SolverResult, minimize
from .sr import sgs

__all__ = [
    "Nonlinearity", "HamiltonianSystem", "IntegratorOptions", "Trajectory",
    "ReducedSystem", "NewtonDivergence", "GridMismatch",
    "wave_system", "sine_gordon_system", "schrodinger_system", "vlasov_system",
    "sample_vlasov_ic", "VlasovParams", "sine_gordon_exact",
    "crank_nicolson", "extract_snapshots", "state_seeded_cotangent_lift",
    "restore_state_containment", "build_rom", "relative_errors", "ErrorReport",
    "save_trajectory", "load_trajectory", "trajectory_to_csv",
    "save_snapshots", "load_snapshots", "snapshots_to_csv",
]


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
    (V_qq, V_qp, V_pp).  A derivative that vanishes may be the scalar 0.0;
    ``reads_p`` is False when V depends on q alone.

    Everything else is derived here.  Component j of grad h reads only the
    pair (q_i, p_i) of its site i = j mod n, so ``gradient_at(indices, x)``
    may be given states that are zero outside ``stencil(indices)``;
    ``jacobian_rows`` returns the matching Hessian rows as CSR.
    """

    n: int
    potential: Callable
    slope: Callable
    curvature: Callable
    reads_p: bool = True

    def _sites(self, indices: np.ndarray):
        return indices < self.n, indices % self.n

    def value(self, x: np.ndarray) -> float:
        n = self.n
        return float(np.sum(self.potential(x[:n], x[n:], slice(None))))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        n = self.n
        g = np.zeros(2 * n)
        g[:n], g[n:] = self.slope(x[:n], x[n:], slice(None))
        return g

    def gradient_at(self, indices: np.ndarray, x: np.ndarray) -> np.ndarray:
        on_q, site = self._sites(indices)
        v_q, v_p = self.slope(x[site], x[site + self.n], site)
        return np.where(on_q, v_q, v_p)

    def jacobian_rows(self, indices: np.ndarray, x: np.ndarray) -> sp.csr_matrix:
        # row j holds d(grad_j h)/d(q_i, p_i) at columns (i, i + n)
        n, m = self.n, indices.size
        on_q, site = self._sites(indices)
        v_qq, v_qp, v_pp = self.curvature(x[site], x[site + n], site)
        data = np.empty((m, 2))
        data[:, 0] = np.where(on_q, v_qq, v_qp)
        data[:, 1] = np.where(on_q, v_qp, v_pp)
        # int32 index arrays spare the CSR constructor a downcasting copy
        cols = np.empty((m, 2), dtype=np.int32)
        cols[:, 0] = site
        cols[:, 1] = site + n
        indptr = np.arange(0, 2 * m + 1, 2, dtype=np.int32)
        rows = sp.csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(m, 2 * n))
        rows.eliminate_zeros()
        return rows

    def hessian(self, x: np.ndarray) -> sp.csr_matrix:
        return self.jacobian_rows(np.arange(2 * self.n), x)

    def stencil(self, indices: np.ndarray) -> np.ndarray:
        """State entries read by the gradient components at ``indices``."""
        if not self.reads_p:
            return indices[indices < self.n]
        _, site = self._sites(indices)
        return np.concatenate([site, site + self.n])


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
        return jvec(self.grad(x))

    def grad_jacobian(self, x: np.ndarray):
        if self.nonlin is None:
            return self.mass
        return self.mass + self.nonlin.hessian(x)


@dataclass(frozen=True)
class IntegratorOptions:
    h_t: float
    t_final: float
    newton_tol: float = 1e-10
    newton_maxit: int = 50

    def __post_init__(self):
        if self.h_t <= 0 or self.t_final <= 0:
            raise ValueError("h_t and t_final must be positive")
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

    @property
    def h_t(self) -> float:
        if self.times.size < 2:
            return 0.0
        return float(self.times[1] - self.times[0])


def _jmul_matrix(mat):
    """J @ mat for a square sparse or dense matrix with an even size."""
    n = mat.shape[0] // 2
    if sp.issparse(mat):
        mat = mat.tocsr()
        return sp.vstack([mat[n:], -mat[:n]], format="csr")
    return np.vstack([mat[n:], -mat[:n]])


def crank_nicolson(system, x0: np.ndarray, opts: IntegratorOptions) -> Trajectory:
    """Trapezoidal step x_{m+1} = x_m + (h/2)(J grad H(x_m) + J grad H(x_{m+1})).

    Linear systems reduce to one prefactored solve per step and conserve the
    quadratic energy exactly up to roundoff.  Nonlinear steps run a Newton
    iteration on the step residual with the analytic Jacobian
    I - (h/2) J (M + Hess h); exceeding the budget raises
    :class:`NewtonDivergence`.
    """
    start = time.perf_counter()
    dim = system.dim
    h = opts.h_t
    steps = opts.steps
    x0 = np.asarray(x0, dtype=float)
    states = np.empty((dim, steps + 1))
    states[:, 0] = x0
    x = x0.copy()

    if system.is_linear:
        jm = _jmul_matrix(system.grad_jacobian(x0))
        if sp.issparse(jm):
            lhs = splu((sp.eye(dim, format="csc") - 0.5 * h * jm).tocsc())
            rhs_mat = (sp.eye(dim, format="csr") + 0.5 * h * jm).tocsr()
            solve = lhs.solve
        else:
            import scipy.linalg as sla
            lu = sla.lu_factor(np.eye(dim) - 0.5 * h * jm)
            rhs_mat = np.eye(dim) + 0.5 * h * jm
            solve = lambda b: sla.lu_solve(lu, b)
        for m in range(steps):
            x = solve(rhs_mat @ x)
            states[:, m + 1] = x
        if not np.all(np.isfinite(x)):
            raise NewtonDivergence("linear step produced non-finite states")
    else:
        for m in range(steps):
            fx = jvec(system.grad(x))
            y = x + h * fx
            converged = False
            for _ in range(opts.newton_maxit):
                res = y - x - 0.5 * h * (fx + jvec(system.grad(y)))
                if np.linalg.norm(res) <= opts.newton_tol:
                    converged = True
                    break
                jac = _jmul_matrix(system.grad_jacobian(y))
                if sp.issparse(jac):
                    a = (sp.eye(dim, format="csc") - 0.5 * h * jac).tocsc()
                    y = y - splu(a).solve(res)
                else:
                    y = y - np.linalg.solve(np.eye(dim) - 0.5 * h * jac, res)
            if not converged:
                raise NewtonDivergence(
                    f"step {m}: residual {np.linalg.norm(res):.3e} after "
                    f"{opts.newton_maxit} Newton iterations")
            states[:, m + 1] = y
            x = y
    times = h * np.arange(steps + 1)
    return Trajectory(times, states, time.perf_counter() - start)


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
        curvature=lambda q, p, i: (np.cos(q), 0.0, 0.0),
        reads_p=False)
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
        curvature=lambda q, p, i: (-3.0 * four_pi * np.sin(four_pi * q), 0.0, 0.0),
        reads_p=False)
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
    xhat = q[:, :k]
    out = np.zeros((2 * n, 2 * k))
    out[:n, :k] = xhat
    out[n:, k:] = xhat
    return SymplecticPoint.from_entries(out)


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
    """Hamiltonian reduced model xtdot = J_{2k} grad Ht(xt), xt0 = U^+ x0."""

    basis: SymplecticPoint
    full: HamiltonianSystem
    variant: str  # "exact" | "psd-deim" | "structure-preserving"
    x0_reduced: np.ndarray
    reduced_mass: np.ndarray
    deim: DeimOperator | None = None
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
        if self.variant == "exact":
            u = self.basis.entries
            return u.T @ self.full.grad(u @ xt)
        return self.deim(xt)

    def rhs(self, xt: np.ndarray) -> np.ndarray:
        return jvec(self.grad(xt))

    def grad_jacobian(self, xt: np.ndarray) -> np.ndarray:
        if self.full.nonlin is None:
            return self.reduced_mass
        u = self.basis.entries
        nl = self.full.nonlin
        if self.variant == "exact":
            return self.reduced_mass + u.T @ (nl.hessian(u @ xt) @ u)
        if self.variant == "psd-deim":
            rows = nl.jacobian_rows(self.deim.indices, u @ xt)
            return self.reduced_mass + self.deim.oblique @ (rows @ u)
        rows = nl.jacobian_rows(self.deim.indices, self.deim.state(xt))
        rows_sel = rows.tocsc()[:, self.deim.indices].toarray()
        return self.reduced_mass + self.deim.oblique @ (rows_sel @ self.deim.support_map)

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
              nonlin: str = "exact",
              deim_modes: int | None = None,
              include_initial_state: bool = True) -> ReducedSystem:
    """Assemble a structure-preserving reduced model from snapshot data.

    reduction "cotlift" takes the (state-seeded) cotangent lift; "optimized"
    additionally minimizes the symplectic projection error starting from that
    basis (trial step 1e-8 by default) and then restores initial-state
    containment.  The projection cost of the final basis never exceeds the
    cotangent-lift cost; both values are recorded in ``diagnostics``.

    nonlin "exact" keeps the full nonlinear term; "psd-deim" and
    "structure-preserving" interpolate it on greedily selected components of
    a gradient-snapshot basis with round(2.5 k) modes by default, clamped to
    the available rank.
    """
    snapshots = np.asarray(snapshots, dtype=float)
    if snapshots.shape[1] < k:
        raise ValueError(f"need at least k={k} snapshots, got {snapshots.shape[1]}")
    if reduction not in ("cotlift", "optimized"):
        raise ValueError(f"unknown reduction {reduction!r}")
    if nonlin not in ("exact", "psd-deim", "structure-preserving"):
        raise ValueError(f"unknown nonlinearity treatment {nonlin!r}")
    if system.is_linear and nonlin != "exact":
        raise ValueError(f"{system.name} is linear; no term to interpolate")

    if include_initial_state:
        u = state_seeded_cotangent_lift(snapshots, k, system.x0)
    else:
        from .applications import cotangent_lift
        u = cotangent_lift(snapshots, k)
    prob = PsdProblem(snapshots, k)
    diagnostics = {"cost_cotlift": prob.cost(u.entries)}

    opt_result: SolverResult | None = None
    if reduction == "optimized":
        opts = solver_options or SolverOptions(gamma0=1e-8, gtol=1e-12, niter=1000)
        opt_result = minimize(prob, u, opts)
        u = opt_result.x_final
        diagnostics["cost_optimized"] = prob.cost(u.entries)
        if include_initial_state:
            u = restore_state_containment(u, system.x0)
            diagnostics["cost_restored"] = prob.cost(u.entries)
        diagnostics["solver_status"] = opt_result.status.value
        diagnostics["solver_iterations"] = opt_result.trace.iterations
        diagnostics["cost_trace"] = opt_result.trace.costs()

    xt0 = symplectic_inverse(u) @ system.x0
    reduced_mass = u.entries.T @ (system.mass @ u.entries)

    deim_op = None
    if nonlin != "exact":
        grads = np.column_stack([system.nonlin.gradient(snapshots[:, j])
                                 for j in range(snapshots.shape[1])])
        basis_full, sv, _ = np.linalg.svd(grads, full_matrices=False)
        rank = int(np.sum(sv > 1e-12 * sv[0])) if sv[0] > 0 else 0
        if rank == 0:
            raise ValueError("nonlinear gradient snapshots are identically zero")
        m = deim_modes if deim_modes is not None else int(round(2.5 * k))
        m = max(1, min(m, rank))
        v = basis_full[:, :m]
        indices = deim_select(v)
        deim_op = deim_reduced_rhs(u, system.mass, v, indices,
                                   system.nonlin.gradient_at, variant=nonlin,
                                   stencil=system.nonlin.stencil)
        diagnostics["deim_modes"] = m
        diagnostics["deim_indices"] = indices

    return ReducedSystem(u, system, nonlin if not system.is_linear else "exact",
                         xt0, np.asarray(reduced_mass), deim_op, diagnostics)


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


# ---------------------------------------------------------------------------
# serialization

_MAGIC = b"SPTRJ1\x00\x00"


def save_trajectory(path, traj: Trajectory) -> None:
    """Flat binary format: magic, dim, steps, h_t header, column-major doubles."""
    states = np.asarray(traj.states, dtype=float)
    dim, cols = states.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<qqd", dim, cols - 1, traj.h_t))
        fh.write(np.asfortranarray(states).tobytes(order="F"))


def load_trajectory(path) -> Trajectory:
    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise ValueError(f"{path} is not a trajectory file")
        dim, steps, h_t = struct.unpack("<qqd", fh.read(24))
        payload = np.frombuffer(fh.read(), dtype=float)
    states = payload.reshape((dim, steps + 1), order="F")
    return Trajectory(h_t * np.arange(steps + 1), states.copy(), 0.0)


def trajectory_to_csv(path, traj: Trajectory) -> None:
    """Plain CSV (time, state components) for small cases."""
    dim = traj.states.shape[0]
    header = "t," + ",".join(f"x{i}" for i in range(dim))
    table = np.column_stack([traj.times, traj.states.T])
    np.savetxt(path, table, delimiter=",", header=header, comments="",
               fmt="%.17g")


def save_snapshots(path, matrix: np.ndarray) -> None:
    """Snapshot matrices share the trajectory format, with unit column spacing
    standing in for the time step."""
    save_trajectory(path, Trajectory(np.arange(matrix.shape[1], dtype=float),
                                     np.asarray(matrix, dtype=float), 0.0))


def load_snapshots(path) -> np.ndarray:
    return load_trajectory(path).states


def snapshots_to_csv(path, matrix: np.ndarray) -> None:
    cols = matrix.shape[1]
    header = ",".join(f"s{i}" for i in range(cols))
    np.savetxt(path, np.asarray(matrix), delimiter=",", header=header,
               comments="", fmt="%.17g")
