import dataclasses
import functools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spopt import hamiltonian
from spopt.applications import (_sampled_operator, deim_reduced_rhs, deim_select,
                                random_symplectic_point)
from spopt.core import jmul, jtmul, symplecticity_residual
from spopt.hamiltonian import (
    NONLIN_TREATMENTS,
    GridMismatch,
    HamiltonianSystem,
    IntegratorOptions,
    NewtonDivergence,
    Separable,
    Trajectory,
    VlasovParams,
    build_rom,
    crank_nicolson,
    extract_snapshots,
    relative_errors,
    restore_state_containment,
    sample_vlasov_ic,
    schrodinger_system,
    sine_gordon_exact,
    sine_gordon_system,
    state_seeded_cotangent_lift,
    vlasov_system,
    wave_system,
)
from spopt.optimizer import SolverOptions
import scipy.sparse as sp

import oracles


def gradient(model, x):
    """grad H(x) of a full or reduced model: J^T times its vector field,
    which undoes J bit for bit."""
    return jtmul(model.flow(x))


ALL_MODELS = [
    lambda: wave_system(32),
    lambda: sine_gordon_system(32),
    lambda: schrodinger_system(32),
    lambda: vlasov_system(32, seed=5),
]


class TestModelConsistency:
    @pytest.mark.parametrize("factory", ALL_MODELS)
    def test_gradient_matches_finite_differences(self, factory, rng):
        sysm = factory()
        x = 0.5 * rng.standard_normal(sysm.dim)
        g = gradient(sysm, x)
        h = 1e-6
        fd = np.empty(sysm.dim)
        for i in range(sysm.dim):
            e = np.zeros(sysm.dim)
            e[i] = h
            fd[i] = (oracles.hamiltonian(sysm, x + e)
                     - oracles.hamiltonian(sysm, x - e)) / (2 * h)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))

    @pytest.mark.parametrize("factory", ALL_MODELS)
    def test_hessian_matches_gradient_differences(self, factory, rng):
        sysm = factory()
        x = 0.3 * rng.standard_normal(sysm.dim)
        jac = oracles.dense_jacobian(sysm.grad_jacobian(x))
        h = 1e-6
        for i in (0, sysm.n - 1, sysm.n, sysm.dim - 1):
            e = np.zeros(sysm.dim)
            e[i] = h
            col = (gradient(sysm, x + e) - gradient(sysm, x - e)) / (2 * h)
            assert np.linalg.norm(col - jac[:, i]) <= 1e-5 * max(1.0, np.linalg.norm(col))

    @pytest.mark.parametrize("factory", ALL_MODELS)
    def test_componentwise_evaluators_agree(self, factory, rng):
        # a DEIM operator on the identity basis samples single components of
        # grad h and single rows of Hess h
        sysm = factory()
        if sysm.nonlin is None:
            return
        x = rng.standard_normal(sysm.dim)
        idx = rng.choice(sysm.dim, size=9, replace=False)
        op = sampled_at(sysm, idx)
        assert np.allclose(jtmul(op(x))[idx], sysm.nonlin.gradient(x)[idx], atol=1e-13)
        hess = oracles.dense_jacobian(sysm.grad_jacobian(x)) - sysm.mass.toarray()
        assert np.allclose(oracles.dense_jacobian(op.jacobian(x))[idx], hess[idx], atol=1e-13)


class TestWaveModel:
    def test_zero_state(self):
        w = wave_system(16)
        assert oracles.hamiltonian(w, np.zeros(w.dim)) == 0.0
        assert np.linalg.norm(gradient(w, np.zeros(w.dim))) == 0.0

    def test_rhs_matches_direct_assembly(self, rng):
        w = wave_system(20)
        x = rng.standard_normal(w.dim)
        dense_m = w.mass.toarray()
        expected = oracles.poisson(w.n) @ (dense_m @ x)
        assert (np.linalg.norm(w.flow(x) - expected)
                <= 1e-13 * max(1.0, np.linalg.norm(expected)))

    def test_full_scale_dimensions(self):
        w = wave_system(500)
        assert w.dim == 1000
        assert np.isclose(w.meta["h_xi"], 0.002)


class TestSineGordonModel:
    def test_nonlinearity_at_origin(self):
        sg = sine_gordon_system(16)
        g = sg.nonlin.gradient(np.zeros(sg.dim))
        ca = sg.meta["phi_a"] / sg.meta["h_xi"] ** 2
        cb = sg.meta["phi_b"] / sg.meta["h_xi"] ** 2
        # sin(0) = 0 on interior components; boundary entries carry only the
        # frozen Dirichlet corrections
        assert np.allclose(g[1: sg.n - 1], 0.0)
        assert np.isclose(g[0], -ca)
        assert np.isclose(g[sg.n - 1], -cb)
        assert np.allclose(g[sg.n:], 0.0)

    def test_exact_solution_semidiscrete_residual_order(self):
        # plugging the solitary wave into q_tt = D q - sin(q) + boundary terms
        # leaves an O(h^2) residual that shrinks ~4x when h is halved
        v, xi0 = 0.2, 10.0
        gamma = np.sqrt(1 - v**2)

        def residual(n):
            sg = sine_gordon_system(n, v=v, xi0=xi0)
            xi = sg.meta["xi"]
            q = sine_gordon_exact(0.0, xi, v, xi0)
            # exact z_tt = v^2 z_xi_xi(exact) ... use the PDE: z_tt = z_xixi - sin z
            # and the traveling-wave identity z_tt = v^2 z'' in the wave frame
            ex = np.exp((xi - xi0) / gamma)
            zpp = 4.0 / gamma**2 * ex * (1 - ex**2) / (1 + ex**2) ** 2
            z_tt = v**2 * zpp
            grad_q = gradient(sg, np.concatenate([q, np.zeros(sg.n)]))[: sg.n]
            return np.max(np.abs(z_tt + grad_q))  # p-dot = -grad_q H

        r1, r2 = residual(400), residual(800)
        assert 3.0 <= r1 / r2 <= 5.0

    def test_one_site_carries_both_boundary_terms(self):
        # with n = 1 the one interior site couples to both frozen values; a
        # short domain makes phi_a and phi_b of the same order
        sg = sine_gordon_system(1, b=4.0, xi0=2.0)
        h2, phi_a, phi_b = sg.meta["h_xi"] ** 2, sg.meta["phi_a"], sg.meta["phi_b"]
        q = 0.3
        x = np.array([q, 0.7])
        slope = np.sin(q) - (phi_a + phi_b) / h2
        energy = 1.0 - np.cos(q) - (phi_a + phi_b) / h2 * q + (phi_a**2 + phi_b**2) / (2 * h2)
        assert np.isclose(sg.nonlin.gradient(x)[0], slope, rtol=1e-14, atol=0.0)
        assert sg.nonlin.gradient(x)[1] == 0.0
        assert np.isclose(sg.nonlin.value(x), energy, rtol=1e-14, atol=0.0)

    def test_full_scale_parameters_stored(self):
        sg = sine_gordon_system(100, v=0.2, xi0=10.0)
        assert sg.meta["v"] == 0.2
        assert sg.meta["xi0"] == 10.0


class TestSchrodingerModel:
    def test_linear_limit(self, rng):
        s = schrodinger_system(16, eps=1e-30)
        x = rng.standard_normal(s.dim)
        quad = 0.5 * x @ (s.mass @ x)
        assert np.isclose(oracles.hamiltonian(s, x), quad, rtol=1e-12)

    def test_consistency_on_random_states(self, rng):
        # J grad H is the complex form zdot = i (D z + eps |z|^2 z), z = q + i p
        s = schrodinger_system(24)
        d = -s.mass.toarray()[:24, :24]
        for _ in range(3):
            x = rng.standard_normal(s.dim)
            z = x[:24] + 1j * x[24:]
            zdot = 1j * (d @ z + s.meta["eps"] * np.abs(z) ** 2 * z)
            expected = np.concatenate([zdot.real, zdot.imag])
            assert (np.linalg.norm(s.flow(x) - expected)
                    <= 1e-12 * max(1.0, np.linalg.norm(expected)))

    def test_full_scale_parameters(self):
        s = schrodinger_system(1024)
        assert s.meta["eps"] == 1.0932
        assert np.isclose(s.meta["length"], 2 * np.pi / 0.11)


class TestVlasovModel:
    def test_equilibrium_particle(self):
        # E(1/8) = 3 cos(pi/2) = 0; a resting particle there stays put
        v = vlasov_system(1, seed=0)
        x = np.array([0.125, 0.0])
        assert np.linalg.norm(v.flow(x)) <= 1e-12
        traj = crank_nicolson(v, x, IntegratorOptions(1e-3, 0.05))
        assert np.linalg.norm(traj.states[:, -1] - x) <= 1e-10

    def test_energy_conservation(self):
        v = vlasov_system(64, seed=2)
        traj = crank_nicolson(v, v.x0, IntegratorOptions(1e-4, 0.2))
        h0 = oracles.hamiltonian(v, v.x0)
        hs = np.array([oracles.hamiltonian(v, traj.states[:, j])
                       for j in range(0, traj.states.shape[1], 50)])
        assert np.abs(hs - h0).max() <= 1e-7 * abs(h0)

    def test_seeded_reproducibility(self):
        a = vlasov_system(32, seed=9)
        b = vlasov_system(32, seed=9)
        assert np.array_equal(a.x0, b.x0)


class TestVlasovSampling:
    @pytest.mark.slow
    def test_goodness_of_fit_degenerate_parameters(self):
        # eps = 0, a = 0: positions uniform on [0, 1], velocities standard normal
        params = VlasovParams(eps=0.0, a=0.0)
        q, v = sample_vlasov_ic(100_000, params, seed=4)
        counts, _ = np.histogram(q, bins=20, range=(0.0, 1.0))
        p_q = scipy.stats.chisquare(counts).pvalue
        edges = scipy.stats.norm.ppf(np.linspace(0.001, 0.999, 21))
        counts_v, _ = np.histogram(v, bins=edges)
        probs = np.diff(scipy.stats.norm.cdf(edges))
        p_v = scipy.stats.chisquare(counts_v, probs / probs.sum() * counts_v.sum()).pvalue
        assert p_q > 0.01
        assert p_v > 0.01

    @pytest.mark.slow
    def test_velocity_mean_matches_mixture(self):
        params = VlasovParams()
        _, v = sample_vlasov_ic(100_000, params, seed=11)
        mean_expected = params.a * params.v0 / (params.a + 1)
        var = 1.0 / (1 + params.a) + (params.a / (1 + params.a)) * (
            params.sigma**2 + params.v0**2) - mean_expected**2
        se = np.sqrt(var / v.size)
        assert abs(v.mean() - mean_expected) <= 3 * se

    def test_fixed_seed_identical(self):
        a = sample_vlasov_ic(100, seed=7)
        b = sample_vlasov_ic(100, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


#: A Newton iterate of crank_nicolson is accepted once its residual norm is
#: at most this.
NEWTON_TOL = 1e-10

#: Desk-size full models with the h_t of their ``spopt mor`` setup, and a
#: number of steps.
REVERSIBLE_RUNS = {
    "wave": (lambda: wave_system(250), 0.01, 100),
    "sine-gordon": (lambda: sine_gordon_system(200), 0.05, 40),
    "schrodinger": (lambda: schrodinger_system(128), 0.01, 50),
    "vlasov": (lambda: vlasov_system(200, seed=0), 1e-4, 200),
}

#: (model, variant) of the cotangent-lift ROMs whose runs are reversible:
#: all of them but Schroedinger's psd-deim and structure-preserving ROMs.
#: There V_p is not zero and the DEIM projector mixes the q and p halves,
#: so p -> -p is no symmetry of the reduced model.
REVERSIBLE_ROMS = [(model, variant) for model in sorted(REVERSIBLE_RUNS)
                   for variant in (("exact",) if model == "wave" else NONLIN_TREATMENTS)
                   if model != "schrodinger" or variant == "exact"]


@functools.cache
def reversible_snapshots(model):
    """The full model of ``REVERSIBLE_RUNS``, its options and 40 snapshots."""
    factory, h_t, steps = REVERSIBLE_RUNS[model]
    sysm = factory()
    opts = IntegratorOptions(h_t, steps * h_t)
    return sysm, opts, extract_snapshots(crank_nicolson(sysm, sysm.x0, opts), 40)


class TestCrankNicolson:
    def test_linear_wave_energy_drift(self):
        w = wave_system(100)
        traj = crank_nicolson(w, w.x0, IntegratorOptions(0.01, 25.0))
        assert traj.newton_updates == 0
        h0 = oracles.hamiltonian(w, w.x0)
        hs = np.array([oracles.hamiltonian(w, traj.states[:, j])
                       for j in range(0, traj.states.shape[1], 100)])
        assert np.abs(hs - h0).max() <= 1e-10 * abs(h0)

    def test_harmonic_oscillator_stays_on_circle(self):
        # n = 1, M = I: the discrete flow is a rotation, |x| is exactly conserved
        from spopt.hamiltonian import HamiltonianSystem
        sysm = HamiltonianSystem("oscillator", 1, sp.eye(2, format="csr"),
                                 np.array([1.0, 0.0]))
        traj = crank_nicolson(sysm, sysm.x0, IntegratorOptions(0.01, 20.0))
        radii = np.linalg.norm(traj.states, axis=0)
        assert np.abs(radii - 1.0).max() <= 1e-12

    def test_second_order_convergence(self):
        # state error against a much finer reference shrinks ~4x per halving
        sg = sine_gordon_system(40, b=10.0, xi0=5.0)
        ref = crank_nicolson(sg, sg.x0, IntegratorOptions(0.2 / 64, 2.0)).states[:, -1]

        def err(ht):
            end = crank_nicolson(sg, sg.x0, IntegratorOptions(ht, 2.0)).states[:, -1]
            return np.linalg.norm(end - ref)

        ratio = err(0.1) / err(0.05)
        assert 3.5 <= ratio <= 4.5

    @pytest.mark.parametrize("model", sorted(REVERSIBLE_RUNS))
    def test_whole_runs_are_reversible(self, model):
        # every model has H(q, -p) = H(q, p) and the trapezoidal step is
        # symmetric: flipping p, running again and flipping p back returns
        # x0.  Each step solves its equation to within the Newton test, so
        # the two runs drift by at most that much per step.
        factory, h_t, steps = REVERSIBLE_RUNS[model]
        sysm = factory()
        opts = IntegratorOptions(h_t, steps * h_t)
        flip = np.repeat([1.0, -1.0], sysm.n)
        there = crank_nicolson(sysm, sysm.x0, opts).states[:, -1]
        back = flip * crank_nicolson(sysm, flip * there, opts).states[:, -1]
        tol = 2 * steps * NEWTON_TOL
        assert np.linalg.norm(there - sysm.x0) > 1e4 * tol
        assert np.linalg.norm(back - sysm.x0) <= tol

    @pytest.mark.parametrize("model,variant", REVERSIBLE_ROMS)
    def test_whole_reduced_runs_are_reversible(self, model, variant):
        # a cotangent lift diag(X, X) keeps H(q, -p) = H(q, p) in the reduced
        # coordinates, and a q-only DEIM selection keeps it too
        sysm, opts, snaps = reversible_snapshots(model)
        rom = build_rom(sysm, snaps, 6, nonlin=variant)
        flip = np.repeat([1.0, -1.0], rom.k)
        x0 = rom.x0_reduced
        there = crank_nicolson(rom, x0, opts).states[:, -1]
        back = flip * crank_nicolson(rom, flip * there, opts).states[:, -1]
        tol = 2 * opts.steps * NEWTON_TOL
        assert np.linalg.norm(there - x0) > 1e4 * tol
        assert np.linalg.norm(back - x0) <= tol

    def test_newton_divergence_raises(self, monkeypatch):
        monkeypatch.setattr(hamiltonian, "NEWTON_MAXIT", 1)
        v = vlasov_system(8, seed=1)
        with pytest.raises(NewtonDivergence, match="after 1 Newton iterations"):
            crank_nicolson(v, v.x0, IntegratorOptions(0.5, 1.0))

    @pytest.mark.parametrize("factory", [lambda: vlasov_system(16),
                                         lambda: sine_gordon_system(16)])
    def test_non_finite_state_raises_newton_divergence(self, factory):
        sysm = factory()
        x0 = sysm.x0.copy()
        x0[3] = np.nan
        with pytest.raises(NewtonDivergence, match="step 0: non-finite"):
            crank_nicolson(sysm, x0, IntegratorOptions(1e-3, 0.01))

    def test_overflowing_state_fails_without_newton_updates(self):
        sysm = vlasov_system(16)
        no_update = ReferenceSystem(sysm, lambda model, x: pytest.fail("Newton update"))
        with pytest.raises(NewtonDivergence, match="step 0: non-finite"):
            crank_nicolson(no_update, 1e300 * sysm.x0, IntegratorOptions(1e-3, 0.01))

    @pytest.mark.parametrize("sparse", [True, False])
    def test_singular_newton_matrix_raises_newton_divergence(self, sparse):
        # grad H(x) = x, and a Jacobian G with I - (h/2) J G = diag(0, 1)
        h = 0.5
        g = np.array([[0.0, 0.0], [2.0 / h, 0.0]])
        sysm = SimpleNamespace(dim=2, is_linear=False, flow=jmul,
                               grad_jacobian=lambda x: sp.csc_matrix(g) if sparse else g)
        with pytest.raises(NewtonDivergence, match="step 0: singular"):
            crank_nicolson(sysm, np.array([1.0, 0.0]), IntegratorOptions(h, 1.0))

    @pytest.mark.parametrize("linear, where", [(True, "linear step"), (False, "step 0")])
    def test_band_singular_matrix_raises_newton_divergence(self, linear, where):
        # a CSR Jacobian with I - (h/2) J G = diag(0, 1), for the linear
        # branch's one factorization and for a Newton update's: dgbtrf
        # reports the zero pivot
        h = 0.5
        g = sp.csr_matrix(np.array([[0.0, 0.0], [2.0 / h, 0.0]]))
        sysm = SimpleNamespace(dim=2, is_linear=linear, flow=jmul, grad_jacobian=lambda x: g)
        with pytest.raises(NewtonDivergence, match=rf"^{where}: singular Newton matrix "
                                                   r"\(pivot \d is exactly zero\)$"):
            crank_nicolson(sysm, np.array([1.0, 0.0]), IntegratorOptions(h, 1.0))

    def test_linear_non_finite_state_names_its_step(self):
        # H = (p^2 - q^2)/2 grows like e^t, so a huge start overflows after
        # a few dozen steps; the message names the step that overflowed
        sysm = HamiltonianSystem("saddle", 1, sp.diags([-1.0, 1.0], format="csr"),
                                 np.array([1e300, 1e300]))
        with pytest.raises(NewtonDivergence, match=r"step \d+: linear") as info:
            crank_nicolson(sysm, sysm.x0, IntegratorOptions(0.5, 50.0))
        step = int(info.value.args[0].split(":")[0].split()[1])
        ok = crank_nicolson(sysm, sysm.x0, IntegratorOptions(0.5, 0.5 * step))
        assert np.isfinite(ok.states).all()
        nan_x0 = sysm.x0.copy()
        nan_x0[0] = np.nan
        with pytest.raises(NewtonDivergence, match="initial state is non-finite"):
            crank_nicolson(sysm, nan_x0, IntegratorOptions(0.5, 1.0))

    def test_dense_linear_failures_raise_newton_divergence(self):
        # the dense branch that steps a linear ROM; with G as in the singular
        # Newton test, I - (h/2) J G = diag(0, 1)
        h = 0.5
        singular = SimpleNamespace(dim=2, is_linear=True, grad_jacobian=lambda x: np.array(
            [[0.0, 0.0], [2.0 / h, 0.0]]))
        with pytest.raises(NewtonDivergence, match="linear step: singular"):
            crank_nicolson(singular, np.array([1.0, 0.0]), IntegratorOptions(h, 1.0))
        oscillator = SimpleNamespace(dim=2, is_linear=True, grad_jacobian=lambda x: np.eye(2))
        with pytest.raises(NewtonDivergence, match="initial state is non-finite"):
            crank_nicolson(oscillator, np.array([np.nan, 0.0]), IntegratorOptions(h, 1.0))

    @pytest.mark.parametrize("reduced", [False, True])
    def test_model_protocol_call_counts(self, reduced):
        # the integrator reads a model only through these four names, and
        # perfbench counts Newton updates by the grad_jacobian calls
        sysm = vlasov_system(16, seed=1)
        opts = IntegratorOptions(1e-2, 0.2)
        model, x0 = sysm, sysm.x0
        if reduced:
            snaps = extract_snapshots(crank_nicolson(sysm, x0, opts), 21)
            model = build_rom(sysm, snaps, 4, nonlin="psd-deim")
            x0 = model.x0_reduced
        calls = {"flow": 0, "grad_jacobian": 0}

        def counted(name):
            def call(x):
                calls[name] += 1
                return getattr(model, name)(x)
            return call

        bare = SimpleNamespace(dim=model.dim, is_linear=model.is_linear,
                               flow=counted("flow"),
                               grad_jacobian=counted("grad_jacobian"))
        traj = crank_nicolson(bare, x0, opts)
        assert calls["grad_jacobian"] == traj.newton_updates >= opts.steps
        # the converged iterate's vector field starts the next step
        assert calls["flow"] == opts.steps + traj.newton_updates + 1
        assert np.array_equal(traj.states, crank_nicolson(model, x0, opts).states)

    @pytest.mark.parametrize("model, fom, rom", [
        ("wave", "band", "lapack"), ("sine-gordon", "schur", "lapack"),
        ("schrodinger", "band", "lapack"), ("vlasov", "schur", "lapack")])
    def test_solver_recorded(self, model, fom, rom):
        sysm = FOUR_MODELS[model]()
        opts = IntegratorOptions(1e-2, 0.1)
        traj = crank_nicolson(sysm, sysm.x0, opts)
        assert traj.solver == fom
        nonlin = "exact" if sysm.is_linear else "psd-deim"
        built = build_rom(sysm, extract_snapshots(traj, 11), 2, nonlin=nonlin)
        assert crank_nicolson(built, built.x0_reduced, opts).solver == rom
        # a system at rest needs no Newton update and solves no matrix
        rest = vlasov_system(1, seed=0)
        x = np.array([0.125, 0.0])
        assert crank_nicolson(rest, x, IntegratorOptions(1e-3, 0.01)).solver is None

    def test_options_validation(self):
        with pytest.raises(ValueError):
            IntegratorOptions(0.3, 1.0)  # not integral
        with pytest.raises(ValueError):
            IntegratorOptions(-0.1, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_options_rejected(self, bad):
        for args in ((bad, 1.0), (1e-3, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                IntegratorOptions(*args)

    def test_fewer_than_one_step_rejected(self):
        # t_final/h_t = 2e-13 used to pass as 0 steps, and a ROM run then
        # failed only after the full model and the output directory existed
        with pytest.raises(ValueError, match="not a positive integer"):
            IntegratorOptions(1e12, 0.2)


@pytest.fixture(scope="module")
def wave_setup():
    w = wave_system(100)
    opts = IntegratorOptions(0.01, 10.0)
    traj = crank_nicolson(w, w.x0, opts)
    snaps = extract_snapshots(traj, 100)
    return w, opts, traj, snaps


class TestRomAssembly:
    def test_state_seeded_basis_contains_x0(self, wave_setup):
        w, _, _, snaps = wave_setup
        u = state_seeded_cotangent_lift(snaps, 6, w.x0)
        from spopt.core import symplectic_inverse
        rec = u.entries @ (symplectic_inverse(u) @ w.x0)
        assert np.linalg.norm(rec - w.x0) <= 1e-10 * np.linalg.norm(w.x0)
        assert symplecticity_residual(u) <= 1e-12

    def test_restore_containment_small_move(self, wave_setup, rng):
        w, _, _, snaps = wave_setup
        u = state_seeded_cotangent_lift(snaps, 6, w.x0)
        # nudge the basis off containment, then restore
        from spopt.retractions import sr_retract
        from conftest import random_tangent
        z = random_tangent(u, rng, norm=1e-3)
        moved = sr_retract(u, z.entries)
        restored = restore_state_containment(moved, w.x0)
        from spopt.core import symplectic_inverse
        rec = restored.entries @ (symplectic_inverse(restored) @ w.x0)
        assert np.linalg.norm(rec - w.x0) <= 1e-9 * np.linalg.norm(w.x0)
        assert (np.linalg.norm(restored.entries - moved.entries)
                <= 10 * np.linalg.norm(moved.entries @ (symplectic_inverse(moved) @ w.x0) - w.x0) + 1e-12)

    def test_energy_offset_constant_and_zero(self, wave_setup):
        # exact nonlinearity plus x0 in the range: the Hamiltonian offset
        # vanishes at integrator accuracy and stays constant in time
        w, opts, traj, snaps = wave_setup
        rom = build_rom(w, snaps, 6, reduction="cotlift")
        rt = crank_nicolson(rom, rom.x0_reduced, opts)
        dh = np.array([oracles.hamiltonian(w, traj.states[:, j])
                       - oracles.hamiltonian(rom, rt.states[:, j])
                       for j in range(0, traj.states.shape[1], 10)])
        h0 = abs(oracles.hamiltonian(w, w.x0))
        assert np.std(dh) <= 1e-8 * h0
        assert np.abs(dh).max() <= 1e-8 * h0

    def test_optimized_cost_not_worse(self, wave_setup):
        w, opts, traj, snaps = wave_setup
        rom = build_rom(w, snaps, 6, reduction="optimized",
                        solver_options=SolverOptions(gamma0=1e-8, gtol=1e-12, niter=300))
        d = rom.diagnostics
        assert d["cost_restored"] <= d["cost_cotlift"] * (1 + 1e-9)
        costs = d["cost_trace"]
        # the surrogate-controlled sequence never rises above its start
        assert costs.max() <= costs[0] * (1 + 1e-9)
        assert costs[-1] <= costs[0]

    def test_rom_errors_sane(self, wave_setup):
        w, opts, traj, snaps = wave_setup
        rom = build_rom(w, snaps, 8, reduction="cotlift")
        rt = crank_nicolson(rom, rom.x0_reduced, opts)
        rep = relative_errors(traj, rom, rt)
        assert rep.re_x < 0.5
        assert rep.re_h <= 1e-8
        assert rep.pointwise_state.shape == traj.times.shape

    def test_k_above_n_rejected(self):
        # a basis of 2n columns is the widest a 2n-dimensional model has
        w = wave_system(10)
        snaps = extract_snapshots(crank_nicolson(w, w.x0, IntegratorOptions(0.01, 1.0)), 30)
        with pytest.raises(ValueError, match=r"k <= min\(n, 2s\) = 10, got 12"):
            build_rom(w, snaps, 12)

    def test_linear_model_rejects_deim(self, wave_setup):
        w, _, _, snaps = wave_setup
        with pytest.raises(ValueError):
            build_rom(w, snaps, 4, nonlin="psd-deim")

    def test_vlasov_deim_variants_order(self):
        v = vlasov_system(64, seed=3)
        opts = IntegratorOptions(1e-3, 0.2)
        traj = crank_nicolson(v, v.x0, opts)
        snaps = extract_snapshots(traj, 80)
        reports = {}
        for variant in ("psd-deim", "structure-preserving"):
            rom = build_rom(v, snaps, 4, reduction="cotlift", nonlin=variant)
            rt = crank_nicolson(rom, rom.x0_reduced, opts)
            reports[variant] = relative_errors(traj, rom, rt)
        assert reports["psd-deim"].re_h < reports["structure-preserving"].re_h

    def test_deim_mode_count_default(self):
        v = vlasov_system(48, seed=3)
        traj = crank_nicolson(v, v.x0, IntegratorOptions(1e-3, 0.1))
        snaps = extract_snapshots(traj, 60)
        rom = build_rom(v, snaps, 4, nonlin="psd-deim")
        assert rom.deim.indices.size == 10  # round(2.5 * 4) modes

    @pytest.mark.parametrize("variant", ["exact", "psd-deim", "structure-preserving"])
    @pytest.mark.parametrize("factory", [lambda: vlasov_system(48, seed=3),
                                         lambda: schrodinger_system(48)])
    def test_reduced_jacobian_matches_finite_differences(self, variant, factory, rng):
        # the Newton Jacobian of every reduced gradient map must track its map
        sysm = factory()
        traj = crank_nicolson(sysm, sysm.x0, IntegratorOptions(1e-3, 0.05))
        snaps = extract_snapshots(traj, 40)
        rom = build_rom(sysm, snaps, 4, nonlin=variant)
        xt = rom.x0_reduced + 0.1 * rng.standard_normal(rom.dim)
        jac = oracles.dense_jacobian(rom.grad_jacobian(xt))
        h = 1e-6
        for i in range(rom.dim):
            e = np.zeros(rom.dim)
            e[i] = h
            col = (gradient(rom, xt + e) - gradient(rom, xt - e)) / (2 * h)
            assert np.linalg.norm(col - jac[:, i]) <= 1e-5 * max(1.0, np.linalg.norm(col))


class TestRelativeErrors:
    def test_exact_reproduction_is_zero(self, wave_setup):
        w, opts, traj, snaps = wave_setup
        rom = build_rom(w, snaps, 6)
        rt = crank_nicolson(rom, rom.x0_reduced, opts)
        rec_states = rom.reconstruct(rt.states)
        fake_full = Trajectory(traj.times, rec_states, 0.0)
        rep = relative_errors(fake_full, rom, rt)
        assert rep.re_x <= 1e-12

    def test_constant_error_independent_of_weights(self, wave_setup):
        w, opts, traj, snaps = wave_setup
        rom = build_rom(w, snaps, 6)
        rt = crank_nicolson(rom, rom.x0_reduced, opts)
        rec = rom.reconstruct(rt.states)
        e = np.zeros_like(rec)
        e[0] = 1.0  # constant-in-time unit offset in one component
        fake_full = Trajectory(traj.times, rec + e, 0.0)
        rep = relative_errors(fake_full, rom, rt)
        norm2 = np.sum((rec + e) ** 2, axis=0)
        expected = 1.0 / np.sqrt(np.trapezoid(norm2, dx=traj.h_t) / traj.times[-1]) \
            * np.sqrt(traj.times[-1])
        # RE_x = ||e||_{L2} / ||x||_{L2} with ||e||_{L2} = sqrt(T)
        re_expected = np.sqrt(traj.times[-1]) / np.sqrt(np.trapezoid(norm2, dx=traj.h_t))
        assert np.isclose(rep.re_x, re_expected, rtol=1e-12)

    def test_grid_mismatch(self, wave_setup):
        w, opts, traj, snaps = wave_setup
        rom = build_rom(w, snaps, 6)
        rt = crank_nicolson(rom, rom.x0_reduced, IntegratorOptions(0.01, 5.0))
        with pytest.raises(GridMismatch):
            relative_errors(traj, rom, rt)
        shifted = Trajectory(rt.times[:traj.times.size] + 1e-3, traj.states, 0.0)
        with pytest.raises(GridMismatch):
            relative_errors(traj, rom, shifted)


# ---------------------------------------------------------------------------
# Test-scale reference for the blocked error evaluation: relative_errors as
# it was written before, with whole-trajectory arrays and one Hamiltonian
# evaluation per stored state.

BLOCK = hamiltonian._ERROR_BLOCK


def reference_potential_sum(nonlin, x):
    n = x.shape[0] // 2
    return float(np.sum(nonlin.potential(x[:n], x[n:], slice(None))))


def reference_hamiltonian(sysm, x):
    h = 0.5 * float(x @ (sysm.mass @ x))
    if sysm.nonlin is not None:
        h += reference_potential_sum(sysm.nonlin, x)
    return h


def reference_reduced_hamiltonian(rom, xt):
    if rom.variant == "structure-preserving":
        op = rom.deim
        qp = op.sample @ xt
        m = op.sites.size
        state = np.zeros(op.dim)
        state[op.indices] = np.where(op.on_q, qp[:m], qp[m:])
        quad = 0.5 * float(xt @ (rom.reduced_mass @ xt))
        return quad + reference_potential_sum(rom.full.nonlin, state)
    return reference_hamiltonian(rom.full, rom.basis.entries @ xt)


def reference_relative_errors(full, rom, rom_traj):
    if full.times.shape != rom_traj.times.shape or not np.allclose(
            full.times, rom_traj.times, rtol=0.0, atol=1e-12 * max(1.0, full.times[-1])):
        raise GridMismatch("trajectories live on different time grids")
    h = full.h_t
    l2 = lambda values: float(np.sqrt(np.trapezoid(values, dx=h)))
    rec = rom.basis.entries @ rom_traj.states
    diff2 = np.sum((full.states - rec) ** 2, axis=0)
    norm2 = np.sum(full.states**2, axis=0)
    re_x = l2(diff2) / l2(norm2)
    h_full = np.array([reference_hamiltonian(rom.full, full.states[:, j])
                       for j in range(full.states.shape[1])])
    h_rom = np.array([reference_reduced_hamiltonian(rom, rom_traj.states[:, j])
                      for j in range(rom_traj.states.shape[1])])
    re_h = l2((h_full - h_rom) ** 2) / l2(h_full**2)
    mean_norm = float(np.trapezoid(np.sqrt(norm2), dx=h) / full.times[-1])
    return hamiltonian.ErrorReport(re_x, re_h, full.times, np.sqrt(diff2) / mean_norm,
                                   np.abs(h_full - h_rom) / abs(h_full[0]))


BLOCK_MODELS = {
    "wave": (lambda: wave_system(12), ("exact",)),
    "sine-gordon": (lambda: sine_gordon_system(12), NONLIN_TREATMENTS),
    "schrodinger": (lambda: schrodinger_system(12), NONLIN_TREATMENTS),
    "vlasov": (lambda: vlasov_system(12, seed=4), NONLIN_TREATMENTS),
}


@functools.cache
def blocked_case(model):
    """A model's full trajectory over 2 * BLOCK steps and its k=4 ROMs'."""
    factory, variants = BLOCK_MODELS[model]
    sysm = factory()
    opts = IntegratorOptions(1e-2, 2 * BLOCK * 1e-2)
    fom = crank_nicolson(sysm, sysm.x0, opts)
    snaps = extract_snapshots(fom, 40)
    roms = [build_rom(sysm, snaps, 4, nonlin=variant) for variant in variants]
    return fom, [(rom, crank_nicolson(rom, rom.x0_reduced, opts)) for rom in roms]


def first_columns(traj, cols):
    return Trajectory(traj.times[:cols], traj.states[:, :cols], 0.0)


class TestBlockedErrors:
    """relative_errors against reference_relative_errors across block edges."""

    @pytest.mark.parametrize("cols", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("model", sorted(BLOCK_MODELS))
    def test_matches_reference(self, model, cols):
        fom, roms = blocked_case(model)
        full = first_columns(fom, cols)
        for rom, rt in roms:
            red = first_columns(rt, cols)
            if cols == 1:  # no L2-in-time norm; the reference divided 0.0 by 0.0
                with pytest.raises(ZeroDivisionError):
                    reference_relative_errors(full, rom, red)
                with pytest.raises(ValueError, match="at least two stored states, got 1"):
                    relative_errors(full, rom, red)
                continue
            rep = relative_errors(full, rom, red)
            ref = reference_relative_errors(full, rom, red)
            np.testing.assert_array_equal(rep.re_x, ref.re_x, err_msg=rom.variant)
            np.testing.assert_array_equal(rep.pointwise_state, ref.pointwise_state,
                                          err_msg=rom.variant)
            assert rep.times is full.times
            # the energies sum 2n = 24 terms in another order: a few hundred
            # eps relative to |H(x0)| (at most 10 eps seen)
            np.testing.assert_allclose(rep.pointwise_energy, ref.pointwise_energy,
                                       rtol=0.0, atol=1e-13, err_msg=rom.variant)
            assert abs(rep.re_h - ref.re_h) <= 1e-14 + 1e-12 * ref.re_h, rom.variant

    @pytest.mark.parametrize("model", sorted(BLOCK_MODELS))
    def test_block_energies_match_per_state(self, model, rng):
        # a block of exactly n columns would let a per-site array broadcast
        # along time without an error
        sysm = BLOCK_MODELS[model][0]()
        for cols in (1, sysm.n, sysm.n + 3):
            states = 0.5 * rng.standard_normal((sysm.dim, cols))
            ref = [reference_hamiltonian(sysm, x) for x in states.T]
            np.testing.assert_allclose(sysm.energies(states), ref, rtol=1e-13, atol=1e-13)
            assert oracles.hamiltonian(sysm, states[:, 0]) == sysm.energies(states[:, :1])[0]

    def test_peak_allocation_independent_of_steps(self):
        # the parent's evaluation held three 2n x (steps + 1) arrays at once
        w = wave_system(100)
        opts = IntegratorOptions(1e-2, 8 * BLOCK * 1e-2)
        fom = crank_nicolson(w, w.x0, opts)
        rom = build_rom(w, extract_snapshots(fom, 40), 4)
        rt = crank_nicolson(rom, rom.x0_reduced, opts)
        peaks = {}
        for cols in (2 * BLOCK + 1, 8 * BLOCK + 1):
            full, red = first_columns(fom, cols), first_columns(rt, cols)
            relative_errors(full, rom, red)  # warm-up: caches, lazy imports
            tracemalloc.start()
            try:
                relative_errors(full, rom, red)
                peaks[cols] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # allow the O(steps) time series (a few floats per column); one more
        # 2n x (steps + 1) array would add 2n = 200 floats per column
        growth = peaks[8 * BLOCK + 1] - peaks[2 * BLOCK + 1]
        assert growth <= 16 * 8 * (6 * BLOCK), peaks


class TestStateLayout:
    """Trajectory.states is the transpose of a time-major array: each stored
    state is one contiguous row of memory."""

    @pytest.mark.parametrize("model, solver", [
        ("wave", "band"), ("vlasov", "schur"), ("schrodinger", "band"), ("rom", "lapack")])
    def test_states_transpose_time_major_rows(self, model, solver):
        opts = IntegratorOptions(1e-2, 0.5)
        if model == "rom":
            sysm = schrodinger_system(16)
            fom = crank_nicolson(sysm, sysm.x0, opts)
            sysm = build_rom(sysm, extract_snapshots(fom, 20), 3, nonlin="psd-deim")
            x0 = sysm.x0_reduced
        else:
            sysm = FOUR_MODELS[model]()
            x0 = sysm.x0
        traj = crank_nicolson(sysm, x0, opts)
        assert traj.solver == solver
        assert traj.states.shape == (sysm.dim, opts.steps + 1)
        assert traj.states.T.flags.c_contiguous

    @pytest.mark.parametrize("model", sorted(BLOCK_MODELS))
    def test_errors_of_c_ordered_copies_agree(self, model):
        # the error blocks only change memory layout: the column sums may
        # move in their last bits, RE_H (a difference of nearly equal
        # energies) by more; a linear ROM's RE_H sits at roundoff (1e-14),
        # where a last-bit move of H is a few eps of it absolutely
        fom, roms = blocked_case(model)
        full = Trajectory(fom.times, np.ascontiguousarray(fom.states), 0.0)
        for rom, rt in roms:
            red = Trajectory(rt.times, np.ascontiguousarray(rt.states), 0.0)
            rep, copied = relative_errors(fom, rom, rt), relative_errors(full, rom, red)
            np.testing.assert_allclose(copied.re_x, rep.re_x, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(copied.pointwise_state, rep.pointwise_state,
                                       rtol=1e-14, atol=0.0, err_msg=rom.variant)
            assert abs(copied.re_h - rep.re_h) <= 1e-8 * rep.re_h + 1e-15, rom.variant


# ---------------------------------------------------------------------------
# Test-scale references: the sparse assembly the Newton and DEIM Jacobians
# were built by before they moved to fixed patterns and site rows.


def sampled_at(sysm, idx):
    """DEIM operator sampling the components ``idx`` of grad h, V = I[:, idx].

    On the identity basis component j of ``jtmul(op(x))`` is the
    interpolated gradient component itself, so ``jtmul(op(x))[idx]`` and
    ``dense_jacobian(op.jacobian(x))[idx]`` are grad h and Hess h rows at idx.
    """
    eye = np.eye(sysm.dim)
    zero_mass = np.zeros((sysm.dim, sysm.dim))
    return deim_reduced_rhs(eye, zero_mass, eye[:, idx], np.asarray(idx), sysm.nonlin)


def reference_rows(nonlin, indices, x):
    """Hessian rows at ``indices`` as CSR, exact zeros eliminated."""
    n, m = x.shape[0] // 2, indices.size
    on_q, site = indices < n, indices % n
    v_qq, v_qp, v_pp = nonlin.curvature(x[site], x[site + n], site)
    data = np.empty((m, 2))
    data[:, 0] = np.where(on_q, v_qq, v_qp)
    data[:, 1] = np.where(on_q, v_qp, v_pp)
    cols = np.column_stack([site, site + n])
    rows = sp.csr_matrix((data.ravel(), cols.ravel(), np.arange(0, 2 * m + 1, 2)),
                         shape=(m, 2 * n))
    rows.eliminate_zeros()
    return rows


def reference_jacobian(sysm, x):
    """M + Hess h assembled by sparse addition."""
    return sysm.mass + reference_rows(sysm.nonlin, np.arange(sysm.dim), x)


def reference_separable(sysm, x):
    """The :class:`Separable` Jacobian from a sparse slice of M and the V_qq
    of the sparse-addition reference's q-block."""
    n = sysm.n
    v_qq = reference_rows(sysm.nonlin, np.arange(n), x).tocsc()[:, :n].diagonal()
    return Separable(sp.csr_matrix(sysm.mass)[:n, :n], v_qq)


def reference_newton_matrix(g, h):
    """(I - (h/2) J G).tocsc() by sparse construction."""
    n = g.shape[0] // 2
    g = sp.csr_matrix(g)
    jg = sp.vstack([g[n:], -g[:n]], format="csr")
    return (sp.eye(g.shape[0], format="csc") - 0.5 * h * jg).tocsc()


def reference_deim_jacobian(rom, xt):
    """The reduced Jacobian from sparse Hessian rows at the interpolated state."""
    op, u, nl = rom.deim, rom.basis.entries, rom.full.nonlin
    if rom.variant == "psd-deim":
        return rom.reduced_mass + op.oblique @ (reference_rows(nl, op.indices, u @ xt) @ u)
    # structure-preserving: columns of the selected entries times the map
    # xt -> state at those entries, probed column by column
    w = np.column_stack([op.state(e)[op.indices] for e in np.eye(rom.dim)])
    rows = reference_rows(nl, op.indices, op.state(xt)).tocsc()[:, op.indices].toarray()
    return rom.reduced_mass + op.oblique @ (rows @ w)


def where_deim_gradient(op, xt):
    """``DeimOperator.__call__`` with a per-component ``np.where`` on every
    selection, as the operator evaluated it before it read one-half
    selections directly: U^T M U xt + B gradh, the reduced gradient."""
    qp = op.sample @ xt
    m = op.sites.size
    v_q, v_p = op.slope(qp[:m], qp[m:], op.sites)
    return op.reduced_mass @ xt + op.oblique @ np.where(op.on_q, v_q, v_p)


def where_deim_jacobian(op, xt):
    """``DeimOperator.jacobian`` with ``np.where`` selections and both row
    terms a R_q + b R_p, whatever b is, as a dense array."""
    qp = op.sample @ xt
    m = op.sites.size
    v_qq, v_qp, v_pp = op.curvature(qp[:m], qp[m:], op.sites)
    a = np.where(op.on_q, v_qq, v_qp)[:, None]
    b = np.where(op.on_q, v_qp, v_pp)[:, None]
    return op.reduced_mass + op.oblique @ (a * op.sample[:m] + b * op.sample[m:])


class ReferenceSystem:
    """A model that takes none of the separable or one-half fast paths.

    A full model's gradient is the sparse M @ x + ``nonlin.gradient(x)`` and
    its Jacobian by default the sparse-addition reference, CSR with exact
    zeros eliminated, so its pattern can change from call to call; a model
    whose own Jacobian is :class:`Separable` gets :func:`reference_separable`.
    A ROM's gradient and default Jacobian are the ``np.where`` DEIM formulas.
    """

    def __init__(self, model, jacobian=None):
        self.model = model
        if jacobian is None and not isinstance(model, HamiltonianSystem):
            jacobian = lambda rom, xt: where_deim_jacobian(rom.deim, xt)
        elif jacobian is None:
            separable = isinstance(model.grad_jacobian(model.x0), Separable)
            jacobian = reference_separable if separable else reference_jacobian
        self.jacobian = jacobian

    def __getattr__(self, name):
        return getattr(self.model, name)

    def grad(self, x):
        model = self.model
        if isinstance(model, HamiltonianSystem):
            g = model.mass @ x
            return g if model.nonlin is None else g + model.nonlin.gradient(x)
        if model.deim is None:
            return model.reduced_mass @ x
        return where_deim_gradient(model.deim, x)

    def flow(self, x):
        return jmul(self.grad(x))

    def grad_jacobian(self, x):
        return self.jacobian(self.model, x)


def reference_crank_nicolson(system, x0, opts):
    """Nonlinear Crank-Nicolson as written before the converged gradient was
    carried into the next step: two ``grad`` calls per step plus one per
    update, the Schur complement for a :class:`Separable` Jacobian, the band
    factorization for a sparse and ``np.linalg.solve`` for a dense one.  The
    model is read through a :class:`ReferenceSystem`."""
    if not isinstance(system, ReferenceSystem):
        system = ReferenceSystem(system)
    h, c, dim = opts.h_t, 0.5 * opts.h_t, system.dim
    states = np.empty((dim, opts.steps + 1))
    states[:, 0] = x = np.asarray(x0, dtype=float)
    band, schur = hamiltonian._BandJ(-c), hamiltonian._SchurJ(-c)
    for m in range(opts.steps):
        fx = jmul(system.grad(x))
        y = x + h * fx
        for _ in range(hamiltonian.NEWTON_MAXIT):
            res = y - x - c * (fx + jmul(system.grad(y)))
            if np.linalg.norm(res) <= 1e-10:
                break
            g = system.grad_jacobian(y)
            if isinstance(g, Separable):
                y = y - schur.factor(g, f"step {m}")(res)
            elif sp.issparse(g):
                y = y - band.factor(g, f"step {m}")(res)
            else:
                a = -c * jmul(g)
                a.flat[::dim + 1] += 1.0
                y = y - np.linalg.solve(a, res)
        else:
            raise AssertionError(f"reference: step {m} did not converge")
        states[:, m + 1] = x = y
    return states


def reference_linear_crank_nicolson(system, x0, opts):
    """Linear Crank-Nicolson with one factorization of I - (h/2) J G, the band
    factorization for a sparse and LAPACK for a dense G, each state written
    as its own column; the sparse I + (h/2) J G is built as in
    :func:`reference_newton_matrix`."""
    c, dim = 0.5 * opts.h_t, system.dim
    g = system.grad_jacobian(x0)
    if sp.issparse(g):
        solve = hamiltonian._BandJ(-c).factor(g, "linear step")
        rhs_mat = reference_newton_matrix(g, -opts.h_t).tocsr()
    else:
        a, rhs_mat = -c * jmul(g), c * jmul(g)
        a.flat[::dim + 1] += 1.0
        rhs_mat.flat[::dim + 1] += 1.0
        factors = scipy.linalg.lu_factor(a)
        solve = lambda b: scipy.linalg.lu_solve(factors, b)
    states = np.empty((dim, opts.steps + 1))
    states[:, 0] = x = np.asarray(x0, dtype=float)
    for m in range(opts.steps):
        states[:, m + 1] = x = solve(rhs_mat @ x)
    return states


def unband(band, ab):
    """The dense matrix that the band array ``ab`` of the factorization
    ``band`` holds, rows and columns back in their original order."""
    kl, ku, dim = band.kl, band.ku, ab.shape[1]
    i, j = np.indices((dim, dim))
    inside = (i - j <= kl) & (j - i <= ku)
    ordered = np.zeros((dim, dim))
    ordered[inside] = ab[kl + ku + (i - j)[inside], j[inside]]
    dense = np.empty_like(ordered)
    dense[np.ix_(band.order, band.order)] = ordered
    return dense


def capture_newton(monkeypatch, system, x0, opts):
    """Run Crank-Nicolson; return the Jacobian arguments and, for each band
    array handed to LAPACK, in call order, the number of Jacobian entries
    scattered into it and its unfactored matrix in the original order."""
    states, matrices = [], []
    real_band = hamiltonian._BandJ.band

    def spy(self, g):
        ab = real_band(self, g)
        matrices.append(SimpleNamespace(stored=self.slots.size, dense=unband(self, ab)))
        return ab

    class Recording:
        def __getattr__(self, name):
            return getattr(system, name)

        def grad_jacobian(self, x):
            states.append(x.copy())
            return system.grad_jacobian(x)

    monkeypatch.setattr(hamiltonian._BandJ, "band", spy)
    traj = hamiltonian.crank_nicolson(Recording(), x0, opts)
    return traj, states, matrices


def capture_schur(monkeypatch, system, x0, opts):
    """Run Crank-Nicolson on a separable model; return the Jacobian
    arguments and, for each Schur factorization, in call order, the diagonal
    and off-diagonals it formed and the t it was handed.  The band
    factorization must not be reached."""
    schurs = []
    real_schur = hamiltonian._SchurJ.schur

    def spy(self, g):
        d, off = real_schur(self, g)
        schurs.append((d.copy(), off, self.t))
        return d, off

    monkeypatch.setattr(hamiltonian._SchurJ, "schur", spy)
    _, states, matrices = capture_newton(monkeypatch, system, x0, opts)
    assert not matrices
    return states, schurs


def assert_same_schur(schur, ref):
    """The reference Jacobian G is diag(A, I) with A tridiagonal, and the
    Schur matrix I + t^2 A has the diagonal 1 + t^2 (k_ii + v_qq) and the
    off-diagonals t^2 k of A, bit for bit."""
    (d, off, t), dense = schur, ref.toarray()
    n = dense.shape[0] // 2
    a = dense[:n, :n]
    assert not dense[:n, n:].any() and not dense[n:, :n].any()
    assert np.array_equal(dense[n:, n:], np.eye(n))
    assert not np.triu(a, 2).any() and not np.tril(a, -2).any()
    t2 = t * t
    assert np.array_equal(d, 1.0 + t2 * np.diag(a))
    sub, sup = (np.zeros(n - 1), np.zeros(n - 1)) if off is None else off
    assert np.array_equal(sub, t2 * np.diag(a, -1)) and np.array_equal(sup, t2 * np.diag(a, 1))


# Per-model closures as each model wrote them before ``Nonlinearity`` derived
# them from one per-site description; the derived maps must reproduce them.


def reference_sine_gordon(n, meta):
    h_xi, phi_a, phi_b = meta["h_xi"], meta["phi_a"], meta["phi_b"]
    ca, cb = phi_a / h_xi**2, phi_b / h_xi**2

    def value(x):
        q = x[:n]
        bnd = (phi_a**2 + phi_b**2) / (2 * h_xi**2) - ca * q[0] - cb * q[-1]
        return float(np.sum(1.0 - np.cos(q)) + bnd)

    def gradient(x):
        q = x[:n]
        g = np.sin(q)
        g[0] -= ca
        g[-1] -= cb
        return np.concatenate([g, np.zeros(n)])

    def gradient_at(indices, x):
        out = np.zeros(indices.size)
        qpart = indices < n
        qi = indices[qpart]
        vals = np.sin(x[qi])
        vals -= ca * (qi == 0)
        vals -= cb * (qi == n - 1)
        out[qpart] = vals
        return out

    def hessian(x):
        return sp.diags(np.concatenate([np.cos(x[:n]), np.zeros(n)]), format="csr")

    def jacobian_rows(indices, x):
        qpart = indices < n
        rows = np.nonzero(qpart)[0]
        cols = indices[qpart]
        data = np.cos(x[cols])
        return sp.csr_matrix((data, (rows, cols)), shape=(indices.size, 2 * n))

    return SimpleNamespace(value=value, gradient=gradient, gradient_at=gradient_at,
                           hessian=hessian, jacobian_rows=jacobian_rows)


def reference_schrodinger(n, meta):
    eps = meta["eps"]

    def value(x):
        q, p = x[:n], x[n:]
        return float(-(eps / 4.0) * np.sum((q**2 + p**2) ** 2))

    def gradient(x):
        q, p = x[:n], x[n:]
        r = q**2 + p**2
        return -eps * np.concatenate([r * q, r * p])

    def gradient_at(indices, x):
        site = np.where(indices < n, indices, indices - n)
        q, p = x[site], x[site + n]
        r = q**2 + p**2
        return -eps * np.where(indices < n, r * q, r * p)

    def hessian(x):
        q, p = x[:n], x[n:]
        r = q**2 + p**2
        aa = -eps * (r + 2 * q**2)
        bb = -eps * (r + 2 * p**2)
        cc = -eps * 2 * q * p
        return sp.bmat([[sp.diags(aa), sp.diags(cc)],
                        [sp.diags(cc), sp.diags(bb)]], format="csr")

    def jacobian_rows(indices, x):
        site = np.where(indices < n, indices, indices - n)
        q, p = x[site], x[site + n]
        r = q**2 + p**2
        rows = np.repeat(np.arange(indices.size), 2)
        cols = np.column_stack([site, site + n]).ravel()
        diag_q = np.where(indices < n, -eps * (r + 2 * q**2), -eps * 2 * q * p)
        diag_p = np.where(indices < n, -eps * 2 * q * p, -eps * (r + 2 * p**2))
        data = np.column_stack([diag_q, diag_p]).ravel()
        return sp.csr_matrix((data, (rows, cols)), shape=(indices.size, 2 * n))

    return SimpleNamespace(value=value, gradient=gradient, gradient_at=gradient_at,
                           hessian=hessian, jacobian_rows=jacobian_rows)


def reference_vlasov(n, meta):
    four_pi = 4.0 * np.pi

    def phi(q):
        return -(3.0 / four_pi) * np.sin(four_pi * q)

    def efield(q):
        return 3.0 * np.cos(four_pi * q)

    def dfield(q):
        return -3.0 * four_pi * np.sin(four_pi * q)

    def value(x):
        return float(-np.sum(phi(x[:n])))

    def gradient(x):
        return np.concatenate([efield(x[:n]), np.zeros(n)])

    def gradient_at(indices, x):
        out = np.zeros(indices.size)
        qpart = indices < n
        out[qpart] = efield(x[indices[qpart]])
        return out

    def hessian(x):
        return sp.diags(np.concatenate([dfield(x[:n]), np.zeros(n)]), format="csr")

    def jacobian_rows(indices, x):
        qpart = indices < n
        rows = np.nonzero(qpart)[0]
        cols = indices[qpart]
        return sp.csr_matrix((dfield(x[cols]), (rows, cols)),
                             shape=(indices.size, 2 * n))

    return SimpleNamespace(value=value, gradient=gradient, gradient_at=gradient_at,
                           hessian=hessian, jacobian_rows=jacobian_rows)


REFERENCE_MODELS = {
    "sine-gordon": (sine_gordon_system, reference_sine_gordon, 4e-16),
    "schrodinger": (schrodinger_system, reference_schrodinger, 4e-16),
    "vlasov": (lambda n: vlasov_system(n, seed=7), reference_vlasov, 0.0),
}


class TestNonlinearity:
    """The derived maps are bit-identical to the hand-written closures."""

    @staticmethod
    def states(dim, rng):
        dense = rng.standard_normal(dim)
        sparse = rng.standard_normal(dim)
        sparse[rng.random(dim) < 0.6] = 0.0  # as in structure-preserving DEIM
        return dense, sparse

    @pytest.mark.parametrize("n", [3, 8, 32])
    @pytest.mark.parametrize("model", sorted(REFERENCE_MODELS))
    def test_matches_reference_closures(self, model, n, rng):
        factory, reference, value_rtol = REFERENCE_MODELS[model]
        sysm = factory(n)
        new, ref = sysm.nonlin, reference(n, sysm.meta)
        idx = rng.choice(sysm.dim, size=min(sysm.dim, 7), replace=False)
        op = sampled_at(sysm, idx)
        for x in self.states(sysm.dim, rng):
            assert np.array_equal(new.gradient(x), ref.gradient(x))
            assert np.array_equal(jtmul(op(x))[idx], ref.gradient_at(idx, x))
            assert np.array_equal(oracles.dense_jacobian(op.jacobian(x))[idx],
                                  ref.jacobian_rows(idx, x).toarray())
            total, ref_total = sysm.grad_jacobian(x), sysm.mass + ref.hessian(x)
            assert np.array_equal(oracles.dense_jacobian(total), ref_total.toarray())
            assert np.isclose(new.value(x), ref.value(x), rtol=value_rtol, atol=0.0)

    @pytest.mark.parametrize("model", sorted(REFERENCE_MODELS))
    def test_block_gradient_matches_per_state(self, model, rng):
        # build_rom's gradient snapshots: one slope call on a 2n x B block,
        # bit for bit the per-snapshot loop (strided columns) it replaced;
        # n columns would let a per-site array broadcast along time
        factory, reference, _ = REFERENCE_MODELS[model]
        sysm = factory(8)
        ref = reference(8, sysm.meta)
        for cols in (1, sysm.n, sysm.n + 3):
            states = 2.0 * rng.standard_normal((sysm.dim, cols))
            block = sysm.nonlin.gradient(states)
            loop = np.column_stack([sysm.nonlin.gradient(states[:, j]) for j in range(cols)])
            assert np.array_equal(block, loop)
            assert np.array_equal(block, np.column_stack([ref.gradient(x) for x in states.T]))

    def test_pipeline_bit_identical_to_reference(self):
        # the fixed-pattern Newton matrix against per-update sparse assembly
        # of the closures' Hessian: the same full-order trajectory bit for bit
        sysm = vlasov_system(48, seed=3)
        closures = reference_vlasov(48, sysm.meta)
        ref_sysm = ReferenceSystem(
            dataclasses.replace(sysm, nonlin=closures),
            jacobian=lambda model, x: model.mass + closures.hessian(x))
        opts = IntegratorOptions(1e-3, 0.1)
        traj = crank_nicolson(sysm, sysm.x0, opts)
        ref_traj = crank_nicolson(ref_sysm, ref_sysm.x0, opts)
        assert np.array_equal(traj.states, ref_traj.states)
        snaps = extract_snapshots(traj, 60)
        for variant in ("exact", "psd-deim", "structure-preserving"):
            rom = build_rom(sysm, snaps, 4, nonlin=variant)
            rt = crank_nicolson(rom, rom.x0_reduced, opts)
            ref_rt = crank_nicolson(ReferenceSystem(rom, reference_rom_jacobian),
                                    rom.x0_reduced, opts)
            assert np.allclose(rt.states, ref_rt.states, rtol=0.0, atol=1e-13), variant
            assert np.isclose(relative_errors(traj, rom, rt).re_h,
                              relative_errors(traj, rom, ref_rt).re_h, rtol=1e-9)


def reference_rom_jacobian(rom, xt):
    if rom.variant == "exact":
        u = rom.basis.entries
        rows = reference_rows(rom.full.nonlin, np.arange(rom.full.dim), u @ xt)
        return rom.reduced_mass + u.T @ (rows @ u)
    return reference_deim_jacobian(rom, xt)


FOUR_MODELS = {
    "wave": lambda: wave_system(12),
    "sine-gordon": lambda: sine_gordon_system(12),
    "schrodinger": lambda: schrodinger_system(12),
    "vlasov": lambda: vlasov_system(12, seed=4),
}


class TestNewtonMatrix:
    """What LAPACK's band factorization is handed, or the Schur matrix of a
    separable model, equals the sparse-construction reference."""

    @pytest.mark.parametrize("model", sorted(FOUR_MODELS))
    def test_matches_reference_at_random_states(self, model, monkeypatch, rng):
        sysm = FOUR_MODELS[model]()
        x0 = 0.5 * rng.standard_normal(sysm.dim)
        opts = IntegratorOptions(1e-2, 5e-2)
        if model in ("sine-gordon", "vlasov"):  # M = diag(K, I), V in q alone
            states, schurs = capture_schur(monkeypatch, sysm, x0, opts)
            assert len(schurs) == len(states) >= 1
            for y, schur in zip(states, schurs):
                assert schur[2] == -0.5 * opts.h_t
                assert_same_schur(schur, reference_jacobian(sysm, y))
            assert (schurs[0][1] is None) == (model == "vlasov")
            return
        _, states, matrices = capture_newton(monkeypatch, sysm, x0, opts)
        assert len(matrices) == len(states) >= 1
        for y, a in zip(states, matrices):
            g = sysm.mass if sysm.is_linear else reference_jacobian(sysm, y)
            ref = reference_newton_matrix(g, opts.h_t)
            # every band entry bit for bit, zeros included; each stored
            # entry of the Jacobian handed in is scattered once
            assert np.array_equal(a.dense, ref.toarray())
            assert a.stored == sysm.grad_jacobian(y).nnz

    @pytest.mark.parametrize("model, n", [("wave", 250), ("sine-gordon", 200),
                                          ("schrodinger", 128)])
    def test_band_stays_narrow(self, model, n):
        # an ordering that lost the band would factor a dense matrix
        # without any error
        # (sine-Gordon's own Jacobian takes the Schur path; its sparse
        # reference is what a non-separable variant would hand the band)
        sysm = {"wave": wave_system, "sine-gordon": sine_gordon_system,
                "schrodinger": schrodinger_system}[model](n)
        band = hamiltonian._BandJ(-5e-3)
        band.band(sysm.mass if sysm.is_linear else reference_jacobian(sysm, sysm.x0))
        assert band.kl <= 4 and band.ku <= 4

    def test_zero_curvature_state(self, monkeypatch, rng):
        # Vlasov particles resting at q = 0 keep q = 0 in the first Newton
        # iterate, where V_qq = -12 pi sin(0) is exactly zero
        sysm = vlasov_system(10, seed=2)
        x0 = sysm.x0.copy()
        x0[[1, 4, 10 + 1, 10 + 4]] = 0.0
        opts = IntegratorOptions(1e-3, 3e-3)
        states, schurs = capture_schur(monkeypatch, sysm, x0, opts)
        assert states[0][1] == states[0][4] == 0.0
        # the two zero curvatures leave Schur diagonals of exactly 1
        assert np.array_equal(schurs[0][0][[1, 4]], [1.0, 1.0])
        for y, schur in zip(states, schurs):
            assert_same_schur(schur, reference_jacobian(sysm, y))

    def test_trajectories_match_reference_assembly(self):
        for model in ("sine-gordon", "schrodinger", "vlasov"):
            sysm = FOUR_MODELS[model]()
            opts = IntegratorOptions(1e-2, 0.2)
            traj = crank_nicolson(sysm, sysm.x0, opts)
            ref = crank_nicolson(ReferenceSystem(sysm), sysm.x0, opts)
            assert np.array_equal(traj.states, ref.states), model

    @pytest.mark.parametrize("model", sorted(FOUR_MODELS))
    def test_trajectories_bit_identical_to_reference_loop(self, model):
        # the full model and its ROM variants over 100 steps, each state bit
        # for bit
        sysm = FOUR_MODELS[model]()
        opts = IntegratorOptions(1e-2, 1.0)
        reference = (reference_linear_crank_nicolson if sysm.is_linear
                     else reference_crank_nicolson)
        traj = crank_nicolson(sysm, sysm.x0, opts)
        assert np.array_equal(traj.states, reference(sysm, sysm.x0, opts))
        snaps = extract_snapshots(traj, 31)
        variants = ("exact",) if sysm.is_linear else NONLIN_TREATMENTS
        for variant in variants:
            rom = build_rom(sysm, snaps, 4, nonlin=variant)
            rt = crank_nicolson(rom, rom.x0_reduced, opts)
            ref = reference(rom, rom.x0_reduced, opts)
            assert np.array_equal(rt.states, ref), variant

    def test_pattern_change_between_calls(self, monkeypatch):
        # every other Jacobian carries an extra stored zero at (0, 5): the
        # Newton pattern changes, so its gather must be rebuilt each time
        sysm = schrodinger_system(8)
        calls = []

        def alternating(model, x):
            g = model.grad_jacobian(x).tocoo()
            calls.append(None)
            if len(calls) % 2:
                return g.tocsc()
            return sp.csc_matrix((np.append(g.data, 0.0),
                                  (np.append(g.row, 0), np.append(g.col, 5))),
                                 shape=g.shape)

        opts = IntegratorOptions(1e-2, 0.1)
        traj, states, matrices = capture_newton(
            monkeypatch, ReferenceSystem(sysm, alternating), sysm.x0, opts)
        assert len({a.stored for a in matrices}) == 2
        for y, a in zip(states, matrices):
            ref = reference_newton_matrix(reference_jacobian(sysm, y), opts.h_t)
            assert np.array_equal(a.dense, ref.toarray())
        plain = crank_nicolson(sysm, sysm.x0, opts)
        assert np.allclose(traj.states, plain.states, rtol=0.0, atol=1e-13)


def separable(k, v_qq):
    """A :class:`Separable` Jacobian of the dense K and the array v_qq."""
    return Separable(sp.csr_matrix(k), np.asarray(v_qq, dtype=float))


#: Separable models at the sizes where LAPACK's tridiagonal wrappers reject
#: their arguments (``dgtsv`` n = 1, ``dgttrf`` n <= 2), and above them.
EDGE_SEPARABLE = {
    "sine-gordon-1": lambda: sine_gordon_system(1),
    "sine-gordon-2": lambda: sine_gordon_system(2),
    "sine-gordon-3": lambda: sine_gordon_system(3),
    "vlasov-1": lambda: vlasov_system(1, seed=3),
}


class TestSiteSolve:
    """Newton matrices of separable Jacobians: one n x n Schur complement,
    a row per site."""

    def test_matches_dense_solve(self, rng):
        c = 0.05
        for name, factory in EDGE_SEPARABLE.items():
            sysm = factory()
            for _ in range(5):
                g = sysm.grad_jacobian(rng.standard_normal(sysm.dim))
                factor, solver = hamiltonian._pick_factor(g, -c)
                assert solver == "schur", name
                res = rng.standard_normal(sysm.dim)
                a = np.eye(sysm.dim) - c * jmul(oracles.dense_jacobian(g))
                ref = np.linalg.solve(a, res)
                x = factor(g, "test")(res)
                assert np.linalg.norm(x - ref) <= 1e-14 * np.linalg.norm(ref), name
            # whole runs against the dense LAPACK path
            opts = IntegratorOptions(5e-2, 1.0)
            traj = crank_nicolson(sysm, sysm.x0, opts)
            dense = ReferenceSystem(sysm, lambda model, x: oracles.dense_jacobian(
                model.grad_jacobian(x)))
            ref = crank_nicolson(dense, sysm.x0, opts)
            assert traj.solver == "schur" and ref.solver == "lapack"
            assert np.allclose(traj.states, ref.states, rtol=0.0, atol=1e-13), name

    def test_singular_block_names_its_site(self):
        # grad H(x) = x; t^2 = (h/2)^2 = 1/16 and v_qq = -16 make a Schur
        # diagonal 1 + t^2 v_qq exactly 0.  At site 1 with no K, that is the
        # division's pivot 2; at site 0 with K coupling sites 1 and 2 only,
        # it is dgtsv's first pivot, which no row swap can move
        h, n = 0.5, 3
        coupled = np.zeros((n, n))
        coupled[1, 2] = coupled[2, 1] = 3.0
        for k, site, pivot in [(np.zeros((n, n)), 1, 2), (coupled, 0, 1)]:
            v_qq = np.zeros(n)
            v_qq[site] = -16.0
            g = separable(k, v_qq)
            sysm = SimpleNamespace(dim=2 * n, is_linear=False, flow=jmul,
                                   grad_jacobian=lambda x: g)
            with pytest.raises(NewtonDivergence, match=rf"^step 0: singular Newton matrix "
                                                       rf"\(pivot {pivot} is exactly zero\)$"):
                crank_nicolson(sysm, np.ones(2 * n), IntegratorOptions(h, 1.0))

    def test_nan_jacobian_raises_newton_divergence(self, monkeypatch):
        # a NaN V_qq passes the division (Vlasov) and dgtsv (sine-Gordon)
        def poisoned(model, x):
            g = model.grad_jacobian(x)
            v_qq = g.v_qq.copy()
            v_qq[2] = np.nan  # V_qq of site 2
            return Separable(g.k, v_qq)

        monkeypatch.setattr(hamiltonian._BandJ, "factor", lambda *a: pytest.fail("band"))
        for sysm in (vlasov_system(16, seed=1), sine_gordon_system(16)):
            with pytest.raises(NewtonDivergence, match="step 0: non-finite"):
                crank_nicolson(ReferenceSystem(sysm, poisoned), sysm.x0,
                               IntegratorOptions(1e-3, 0.01))

    def test_missing_site_entry_falls_back_to_band(self, monkeypatch):
        # exact zeros eliminated: V_qp = V_pp = 0 drops (q_i,p_i) and
        # (p_i,q_i), and the zero curvatures of particles at q = 0 drop
        # (q_i,q_i); a position looked up for an absent entry would read a
        # neighbour's value
        sysm = vlasov_system(10, seed=2)
        x0 = sysm.x0.copy()
        x0[[1, 4, 10 + 1, 10 + 4]] = 0.0

        def pruned(model, x):
            # the Jacobian as CSC, exact zeros eliminated
            return sp.csc_matrix(oracles.dense_jacobian(model.grad_jacobian(x)))

        q = np.arange(10)
        g = pruned(sysm, x0)
        assert hamiltonian._entry_positions(g, q + 10, q) is None
        assert sp.issparse(g)
        assert isinstance(sysm.grad_jacobian(x0), Separable)
        opts = IntegratorOptions(1e-3, 3e-3)
        model = ReferenceSystem(sysm, pruned)
        traj, states, matrices = capture_newton(monkeypatch, model, x0, opts)
        assert len(matrices) == len(states) >= opts.steps
        ref = reference_crank_nicolson(model, x0, opts)
        assert np.allclose(traj.states, ref, rtol=1e-13, atol=0.0)


def synthetic_site_system(n=12, seed=0, coupling=None):
    """A site-local system beyond Vlasov: M stores all four entries of each
    site block, and V = w_i q^2 p^2 / 2 has V_qp = 2 w_i q p != 0.  A
    ``coupling`` (row, col) adds a symmetric entry of M there."""
    rng = np.random.default_rng(seed)
    m_qp = 0.3 * rng.standard_normal(n)
    blocks = [[sp.diags(1.0 + rng.random(n)), sp.diags(m_qp)],
              [sp.diags(m_qp), sp.diags(1.0 + rng.random(n))]]
    mass = sp.bmat(blocks, format="lil")
    if coupling is not None:
        mass[coupling] = mass[coupling[::-1]] = 0.1
    w = 0.2 * (1.0 + np.arange(n) / n)
    nl = hamiltonian.Nonlinearity(
        potential=lambda q, p, i: 0.5 * w[i] * q**2 * p**2,
        slope=lambda q, p, i: (w[i] * q * p**2, w[i] * q**2 * p),
        curvature=lambda q, p, i: (w[i] * p**2, 2.0 * w[i] * q * p, w[i] * q**2))
    return HamiltonianSystem("synthetic", n, mass.tocsr(), rng.standard_normal(2 * n), nl)


class TestSiteLocalSystems:
    """A site-local system that is not separable: M stores all four entries
    of each site block and the Hessian has nonzero V_qp, so the Jacobian is
    CSC on a fixed pattern and the Newton matrices take the band path, as
    they do when M couples two sites, or when it stores a q-p entry at some
    sites of an otherwise separable model."""

    def test_grad_and_jacobian_match_sparse_reference(self, rng):
        sysm = synthetic_site_system()
        assert sysm._separable is None
        for x in (rng.standard_normal(sysm.dim), sysm.x0):
            assert np.array_equal(sysm.flow(x), jmul(sysm.mass @ x + sysm.nonlin.gradient(x)))
            g = sysm.grad_jacobian(x)
            assert sp.issparse(g)
            assert np.array_equal(g.toarray(), reference_jacobian(sysm, x).toarray())

    def test_trajectory_matches_reference_loop(self):
        sysm = synthetic_site_system()
        opts = IntegratorOptions(5e-2, 1.0)
        traj = crank_nicolson(sysm, sysm.x0, opts)
        assert traj.solver == "band" and traj.newton_updates >= opts.steps
        assert np.array_equal(traj.states, reference_crank_nicolson(sysm, sysm.x0, opts))

    @pytest.mark.parametrize("coupling", [(0, 1), (2, 12 + 5), (12 + 3, 12 + 4)])
    def test_coupling_entry_takes_csc_path(self, coupling):
        sysm = synthetic_site_system(coupling=coupling)
        assert sysm._separable is None
        x = sysm.x0
        assert sp.issparse(sysm.grad_jacobian(x))
        assert np.array_equal(sysm.grad_jacobian(x).toarray(),
                              reference_jacobian(sysm, x).toarray())
        opts = IntegratorOptions(5e-2, 0.5)
        traj = crank_nicolson(sysm, x, opts)
        assert traj.solver == "band"
        assert np.array_equal(traj.states, reference_crank_nicolson(sysm, x, opts))

    def test_entry_stored_at_some_sites_takes_csc_path(self):
        # sine-Gordon's M with m_qp stored at sites 0 and 1 only: the q-p
        # blocks are not empty, so the CSC path keeps M @ x as it is
        n = 6
        base = sine_gordon_system(n)
        mass = base.mass.tolil()
        mass[0, n] = mass[n, 0] = mass[1, n + 1] = mass[n + 1, 1] = 0.5
        sysm = dataclasses.replace(base, mass=mass.tocsr())
        assert sysm._separable is None and base._separable is not None
        assert sp.issparse(sysm.grad_jacobian(sysm.x0))


def sine_gordon_variant(change, n=8):
    """sine-Gordon with one change that makes it not separable."""
    base = sine_gordon_system(n)
    mass = base.mass.tolil()
    if change == "qp-entry":  # the one q-p entry that |i - j| <= 1 admits
        mass[n - 1, n] = 0.25
    elif change == "p-block-entry":
        mass[n + 2, n + 2] = 2.0
    elif change == "k-two-off":  # |i - j| = 2
        mass[1, 3] = mass[3, 1] = 0.1
    mass = mass.tocsr()
    if change == "p-potential":  # V = w q^2 p^2 / 2 on M = diag(K, I)
        return dataclasses.replace(base, nonlin=synthetic_site_system(n).nonlin)
    if change == "non-canonical":  # row 0's two columns stored in reverse
        start = mass.indptr[0]
        mass.indices[start:start + 2] = mass.indices[start:start + 2][::-1].copy()
        mass.data[start:start + 2] = mass.data[start:start + 2][::-1].copy()
        mass = sp.csr_matrix((mass.data, mass.indices, mass.indptr), shape=mass.shape)
        assert not mass.has_canonical_format
    return dataclasses.replace(base, mass=mass)


class TestSeparableDetection:
    """Separability is read off M's stored blocks and the nonlinearity's
    scalar zeros: Vlasov and sine-Gordon are separable, and every system
    that breaks one condition takes the band path with the same vector
    field and the same trajectory up to roundoff."""

    def test_separable_models(self):
        for sysm in (vlasov_system(8, seed=1), sine_gordon_system(8)):
            k = sysm._separable
            assert k is not None and k.format == "csr"
            assert np.array_equal(k.toarray(), sysm.mass.toarray()[:8, :8])
            assert isinstance(sysm.grad_jacobian(sysm.x0), Separable)
        assert vlasov_system(8)._separable.nnz == 0
        assert wave_system(8)._separable is None  # linear

    @pytest.mark.parametrize("case", ["schrodinger", "synthetic", "qp-entry", "p-block-entry",
                                      "k-two-off", "non-canonical", "p-potential"])
    def test_takes_band_path(self, case, rng):
        sysm = {"schrodinger": lambda: schrodinger_system(8),
                "synthetic": lambda: synthetic_site_system(8)}.get(
            case, lambda: sine_gordon_variant(case))()
        assert sysm._separable is None
        x = rng.standard_normal(sysm.dim)
        assert np.array_equal(sysm.flow(x), jmul(sysm.mass @ x + sysm.nonlin.gradient(x)))
        assert np.array_equal(sysm.grad_jacobian(x).toarray(),
                              reference_jacobian(sysm, x).toarray())
        opts = IntegratorOptions(5e-2, 0.5)
        traj = crank_nicolson(sysm, sysm.x0, opts)
        assert traj.solver == "band"
        ref = reference_crank_nicolson(sysm, sysm.x0, opts)
        assert np.allclose(traj.states, ref, rtol=0.0, atol=1e-12)


def _site_pairs_case(model):
    """A reduced basis, a DEIM basis and a hand-picked selection on n = 8.

    Site 2 has both entries selected, sites 5 and 6 one entry each, so the
    structure-preserving state has a zero partner entry at those sites.
    """
    sysm = {"vlasov": lambda: vlasov_system(8, seed=6),
            "schrodinger": lambda: schrodinger_system(8)}[model]()
    rng = np.random.default_rng(21)
    u = random_symplectic_point(8, 3, seed=21).entries
    v = np.linalg.qr(rng.standard_normal((16, 4)))[0]
    idx = np.array([2, 8 + 2, 5, 8 + 6])
    return sysm, u, v, idx


class TestDeimJacobian:
    @pytest.mark.parametrize("variant", ["psd-deim", "structure-preserving"])
    @pytest.mark.parametrize("model", ["vlasov", "schrodinger"])
    def test_matches_row_formula_and_differences(self, model, variant):
        sysm, u, v, idx = _site_pairs_case(model)
        op = deim_reduced_rhs(u, u.T @ (sysm.mass @ u), v, idx, sysm.nonlin, variant)
        rom = hamiltonian.ReducedSystem(
            SimpleNamespace(entries=u), sysm, variant, np.zeros(6),
            op.reduced_mass, op)
        rng = np.random.default_rng(3)
        for _ in range(3):
            xt = rng.standard_normal(6)
            jac = oracles.dense_jacobian(op.jacobian(xt))
            ref = reference_deim_jacobian(rom, xt)
            assert np.allclose(jac, ref, rtol=0.0, atol=1e-13 * max(1.0, np.abs(ref).max()))
            h = 1e-6
            for i in range(6):
                e = np.zeros(6)
                e[i] = h
                col = (jtmul(op(xt + e)) - jtmul(op(xt - e))) / (2 * h)
                assert np.linalg.norm(col - jac[:, i]) <= 1e-6 * max(1.0, np.linalg.norm(col))

    def test_structure_preserving_reads_zero_partners(self):
        sysm, u, v, idx = _site_pairs_case("schrodinger")
        op = deim_reduced_rhs(u, u.T @ (sysm.mass @ u), v, idx, sysm.nonlin,
                              "structure-preserving")
        xt = np.random.default_rng(4).standard_normal(6)
        state = op.state(xt)
        assert np.count_nonzero(state) == 4
        assert state[8 + 5] == 0.0 and state[6] == 0.0
        # sites 5 and 6 are evaluated at (q_5, 0) and (0, p_6)
        g = sysm.nonlin.gradient(state)
        expected = u.T @ (sysm.mass @ (u @ xt)) + u.T @ (v @ np.linalg.solve(v[idx], g[idx]))
        assert np.allclose(jtmul(op(xt)), expected, rtol=1e-12, atol=0.0)


#: Selections on n = 8: every component in the q-half, in the p-half, mixed.
SELECTIONS = {"q": np.array([0, 3, 5, 6]), "p": np.array([8, 10, 13, 15]),
              "mixed": np.array([2, 8 + 2, 5, 8 + 6])}


class TestDeimSelections:
    """``DeimOperator`` reads one-half selections without ``np.where`` and
    drops b R_p for a scalar zero b; every value stays as before."""

    @pytest.mark.parametrize("half", sorted(SELECTIONS))
    @pytest.mark.parametrize("model", sorted(REFERENCE_MODELS))
    def test_identity_basis_matches_reference_rows(self, model, half, rng):
        factory, reference, _ = REFERENCE_MODELS[model]
        sysm = factory(8)
        ref = reference(8, sysm.meta)
        idx = SELECTIONS[half]
        op = sampled_at(sysm, idx)
        assert op._half == (None if half == "mixed" else half)
        for x in TestNonlinearity.states(sysm.dim, rng):
            assert np.array_equal(jtmul(op(x))[idx], ref.gradient_at(idx, x))
            assert np.array_equal(oracles.dense_jacobian(op.jacobian(x))[idx],
                                  reference_rows(sysm.nonlin, idx, x).toarray())

    @pytest.mark.parametrize("variant", ["psd-deim", "structure-preserving"])
    @pytest.mark.parametrize("half", sorted(SELECTIONS))
    @pytest.mark.parametrize("model", sorted(REFERENCE_MODELS))
    def test_reduced_maps_match_where_formulas(self, model, half, variant):
        sysm = REFERENCE_MODELS[model][0](8)
        rng = np.random.default_rng(21)
        u = random_symplectic_point(8, 3, seed=21).entries
        v = np.linalg.qr(rng.standard_normal((16, 4)))[0]
        op = deim_reduced_rhs(u, u.T @ (sysm.mass @ u), v, SELECTIONS[half],
                              sysm.nonlin, variant)
        for _ in range(3):
            xt = rng.standard_normal(6)
            assert np.array_equal(jtmul(op(xt)), where_deim_gradient(op, xt))
            assert np.array_equal(oracles.dense_jacobian(op.jacobian(xt)),
                                  where_deim_jacobian(op, xt))


# ---------------------------------------------------------------------------
# Per-run Newton solvers: what is fixed for a run is formed once, and every
# solve equals the full formula bit for bit.


@st.composite
def separable_jacobians(draw):
    """A :class:`Separable` G whose K is empty or a random tridiagonal, not
    symmetric, whose entries and V_qq span 1e-4 to 1e4 and include exact
    zeros; h = 2^-j, and a residual."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = 0.5 * 2.0 ** -draw(st.integers(0, 12))

    def mixed(size):
        v = rng.standard_normal(size) * 10.0 ** rng.uniform(-4, 4, size)
        v[rng.random(size) < 0.2] = 0.0
        return v

    k = np.zeros((n, n))
    if draw(st.booleans()):
        k = np.diag(mixed(n)) + np.diag(mixed(n - 1), -1) + np.diag(mixed(n - 1), 1)
    return separable(k, mixed(n)), c, rng.standard_normal(2 * n)


@st.composite
def deim_jacobians(draw):
    """A DEIM operator of a random basis and selection on the Schroedinger
    nonlinearity, its Jacobian at a random reduced state, and h = 2^-j."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n))
    m = draw(st.integers(1, 2 * n))
    seed = draw(st.integers(0, 2**32 - 1))
    variant = draw(st.sampled_from(["psd-deim", "structure-preserving"]))
    rng = np.random.default_rng(seed)
    sysm = schrodinger_system(max(n, 3))
    n = sysm.n
    u = random_symplectic_point(n, k, seed=seed % 2**31).entries
    v = np.linalg.qr(rng.standard_normal((2 * n, m)))[0]
    idx = deim_select(v)
    op = deim_reduced_rhs(u, u.T @ (sysm.mass @ u), v, idx, sysm.nonlin, variant)
    xt = rng.standard_normal(2 * k) * 10.0 ** rng.uniform(-2, 1)
    c = 0.5 * 2.0 ** -draw(st.integers(0, 12))
    return op.jacobian(xt), c, rng.standard_normal(2 * k)


class TestRunSolvers:
    @settings(max_examples=80, deadline=None)
    @given(case=separable_jacobians())
    def test_schur_solver_matches_dense(self, case):
        g, c, res = case
        a = np.eye(res.size) - c * jmul(oracles.dense_jacobian(g))
        cond = np.linalg.cond(a)
        assume(np.isfinite(cond) and cond < 1e12)
        factor, solver = hamiltonian._pick_factor(g, -c)
        assert solver == "schur"
        x = factor(g, "test")(res)
        ref = np.linalg.solve(a, res)
        assert np.linalg.norm(x - ref) <= 1e-12 * cond * np.linalg.norm(ref)

    @settings(max_examples=60, deadline=None)
    @given(case=deim_jacobians())
    def test_deim_solver_matches_dense_and_row_gather(self, case):
        g, c, res = case
        dense = oracles.dense_jacobian(g)
        a = np.eye(res.size) - c * jmul(dense)
        cond = np.linalg.cond(a)
        assume(np.isfinite(cond) and cond < 1e12)
        factor, solver = hamiltonian._pick_factor(g, -c)
        assert solver == "lapack"
        x = factor(g, "test")(res)
        ref = np.linalg.solve(a, res)
        assert np.linalg.norm(x - ref) <= 1e-12 * cond * np.linalg.norm(ref)
        # the row gather of the assembled Jacobian, solved by one LAPACK
        # dgesv: the LU solve keeps its bits
        gathered = hamiltonian._shifted_dense(-c, res.size)(dense)
        assert np.array_equal(x, scipy.linalg.lapack.dgesv(gathered, res)[2])

    def test_deim_solver_singular_and_nan(self):
        # G = U^T M U = [[0, 0], [2/h, 0]] and zero rows: I - (h/2) J G = diag(0, 1) ...
        h = 0.5
        sysm = schrodinger_system(3)
        op = deim_reduced_rhs(np.eye(6)[:, [0, 3]], np.array([[0.0, 0.0], [2.0 / h, 0.0]]),
                              np.eye(6)[:, [0]], np.array([0]), sysm.nonlin)
        g = op.reduced_mass + op.oblique @ np.zeros((1, 2))
        model = SimpleNamespace(dim=2, is_linear=False, flow=jmul, grad_jacobian=lambda x: g)
        with pytest.raises(NewtonDivergence, match=r"step 0: singular Newton matrix \(pivot"):
            crank_nicolson(model, np.array([1.0, 0.0]), IntegratorOptions(h, 1.0))
        # ... and a NaN in the Jacobian ends as a non-finite residual
        nan = op.reduced_mass + op.oblique @ np.full((1, 2), np.nan)
        model.grad_jacobian = lambda x: nan
        with pytest.raises(NewtonDivergence, match="step 0: non-finite"):
            crank_nicolson(model, np.array([1.0, 0.0]), IntegratorOptions(1e-3, 0.01))

    def test_solver_rebuilt_when_run_constants_change(self, rng):
        # a Jacobian with another K, tridiagonal or empty, gets its own t^2 K
        n = 5
        tridiagonal = np.diag(rng.standard_normal(n - 1), 1) + np.diag(rng.standard_normal(n))
        first = separable(tridiagonal + tridiagonal.T, rng.standard_normal(n))
        other = separable(np.diag(rng.standard_normal(n)), rng.standard_normal(n))
        moved = Separable(first.k + sp.eye(n, format="csr"), first.v_qq)
        factor = hamiltonian._SchurJ(-0.01).factor
        res = rng.standard_normal(2 * n)
        for g in (first, other, moved, first):
            assert np.array_equal(factor(g, "test")(res),
                                  hamiltonian._SchurJ(-0.01).factor(g, "test")(res))


FLOW_MODELS = {
    "sine-gordon": lambda: sine_gordon_system(16),
    "schrodinger": lambda: schrodinger_system(16),
    "vlasov": lambda: vlasov_system(16, seed=3),
    "synthetic": lambda: synthetic_site_system(),
}


class TestVectorField:
    """``flow`` is J times the gradient each model assembled before, bit for
    bit: M x + grad h for a full model, the ``np.where`` DEIM formula for a
    ROM; the exact ROM's q-only selection reads the same bits as all 2n."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e2))
    def test_full_models(self, seed, scale):
        rng = np.random.default_rng(seed)
        for factory in FLOW_MODELS.values():
            sysm = factory()
            x = scale * rng.standard_normal(sysm.dim)
            x[rng.random(sysm.dim) < 0.2] = 0.0
            assert np.array_equal(sysm.flow(x), jmul(sysm.mass @ x + sysm.nonlin.gradient(x)))

    @pytest.mark.parametrize("model", ["sine-gordon", "schrodinger", "vlasov"])
    def test_reduced_models(self, model, rng):
        sysm = FLOW_MODELS[model]()
        opts = IntegratorOptions(1e-2, 0.2)
        snaps = extract_snapshots(crank_nicolson(sysm, sysm.x0, opts), 21)
        u = None
        for variant in NONLIN_TREATMENTS:
            rom = build_rom(sysm, snaps, 4, nonlin=variant)
            u = rom.basis.entries
            for _ in range(5):
                xt = rng.standard_normal(rom.dim)
                assert np.array_equal(rom.flow(xt), jmul(where_deim_gradient(rom.deim, xt)))
                if variant == "exact":
                    # every one of the 2n components sampled, as before
                    every = _sampled_operator(
                        rom.reduced_mass, u.T, np.arange(sysm.dim), u, sysm.nonlin)
                    assert np.array_equal(rom.flow(xt), jmul(where_deim_gradient(every, xt)))
                    assert np.array_equal(oracles.dense_jacobian(rom.grad_jacobian(xt)),
                                          where_deim_jacobian(every, xt))
