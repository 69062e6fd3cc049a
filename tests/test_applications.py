import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spopt.applications import (
    PsdProblem,
    SingularSelection,
    TargetProblem,
    TraceProblem,
    cotangent_lift,
    deim_reduced_rhs,
    deim_select,
    gauss_transform,
    random_symplectic_orthogonal,
    random_symplectic_point,
    spsd_test_matrix,
    sum_gate,
    symplectic_eigenpairs,
    williamson_small,
    williamson_spsd,
)
from spopt.core import (
    canonical_point,
    jmul,
    jtmul,
    mulj,
    symplecticity_residual,
)
from spopt import applications, hamiltonian
from spopt.geometry import NotSPD
from spopt.hamiltonian import (
    IntegratorOptions,
    Nonlinearity,
    build_rom,
    crank_nicolson,
    extract_snapshots,
    state_seeded_cotangent_lift,
    wave_system,
)
from spopt.optimizer import SolverOptions, minimize
from spopt.sr import sgs

from conftest import random_point
from oracles import dense_jacobian, poisson


def cost_grad(prob, x):
    ev = prob.evaluate(x)
    return ev.cost, ev.gradient()


def central_diff(cost, x, direction, h=1e-6):
    return (cost(x + h * direction) - cost(x - h * direction)) / (2 * h)


class TestSumGate:
    def test_entries(self):
        w = sum_gate().entries
        expected = np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]],
                            dtype=float)
        assert np.array_equal(w, expected)

    def test_symplectic(self):
        assert symplecticity_residual(sum_gate()) <= 1e-15

    def test_cost_vanishes_at_target(self):
        w = sum_gate().entries
        f, g = cost_grad(TargetProblem(w), w)
        assert f == 0.0
        assert np.array_equal(g, np.zeros_like(w))


class TestTargetCost:
    def test_unit_perturbation(self):
        w = sum_gate().entries
        x = w.copy()
        x[0, 0] += 1.0
        f, g = cost_grad(TargetProblem(w), x)
        assert f == 1.0
        expected = np.zeros_like(w)
        expected[0, 0] = 2.0
        assert np.array_equal(g, expected)

    def test_finite_difference(self, rng):
        w = rng.standard_normal((8, 4))
        prob = TargetProblem(w)
        x = rng.standard_normal((8, 4))
        d = rng.standard_normal((8, 4))
        f, g = cost_grad(prob, x)
        fd = central_diff(prob.cost, x, d)
        assert abs(np.sum(g * d) - fd) <= 1e-8 * max(1.0, abs(fd))


class TestTraceCost:
    def test_identity_at_canonical(self):
        e = canonical_point(6, 2)
        prob = TraceProblem(np.eye(12), 2)
        f, g = cost_grad(prob, e.entries)
        assert np.isclose(f, 4.0)  # 2k

    def test_minimum_is_twice_smallest_values(self, rng):
        # for A = I all symplectic eigenvalues are one: min = 2k
        n, k = 8, 3
        prob = TraceProblem(np.eye(2 * n), k)
        for seed in range(10):
            x = random_point(n, k, np.random.default_rng(seed))
            assert prob.cost(x.entries) >= 2 * k - 1e-10

    def test_finite_difference(self, rng):
        a = rng.standard_normal((12, 12))
        a = a + a.T
        prob = TraceProblem(a, 2)
        x = rng.standard_normal((12, 4))
        d = rng.standard_normal((12, 4))
        f, g = cost_grad(prob, x)
        fd = central_diff(prob.cost, x, d)
        assert abs(np.sum(g * d) - fd) <= 1e-8 * max(1.0, abs(fd))

    def test_rejects_nonsymmetric(self, rng):
        with pytest.raises(ValueError):
            TraceProblem(rng.standard_normal((6, 6)), 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        # inf - inf passed the symmetry test as NaN > tol, which is False
        a = np.eye(6)
        a[1, 1] = value
        with pytest.raises(ValueError, match="A must be finite"):
            TraceProblem(a, 1)


class TestGaussTransform:
    def test_trivial_parameters_identity(self):
        assert np.array_equal(gauss_transform(5, 3, 1.0, 0.0), np.eye(10))

    def test_paper_instance_symplectic(self):
        n = 25
        l = round(n / 5)
        g = gauss_transform(n, l, 1.2, -np.sqrt(n / 5))
        assert symplecticity_residual(g) <= 1e-13

    def test_small_case_exactly_symplectic(self):
        # power-of-two parameters keep every product exact in floating point
        g = gauss_transform(3, 2, 2.0, -0.75)
        j = poisson(3)
        assert np.array_equal(g.T @ j @ g, j)

    def test_validation(self):
        with pytest.raises(ValueError):
            gauss_transform(4, 1, 1.0, 0.0)
        with pytest.raises(ValueError):
            gauss_transform(4, 2, 0.0, 1.0)


def embed_unitary(u):
    return np.block([[u.real, u.imag], [-u.imag, u.real]])


class TestRandomSymplecticOrthogonal:
    def test_identity_embedding(self):
        k = embed_unitary(np.eye(4) + 0j)
        assert np.array_equal(k, np.eye(8))

    def test_orthogonal_and_symplectic(self):
        for seed in (0, 1, 2):
            k = random_symplectic_orthogonal(10, seed)
            assert np.linalg.norm(k.T @ k - np.eye(20)) <= 1e-12
            assert symplecticity_residual(k) <= 1e-12

    def test_seed_determinism_and_variation(self):
        a = random_symplectic_orthogonal(6, 3)
        b = random_symplectic_orthogonal(6, 3)
        c = random_symplectic_orthogonal(6, 4)
        assert np.array_equal(a, b)
        assert not np.allclose(a, c)


class TestSpsdTestMatrix:
    def test_known_smallest_values(self):
        a, d = spsd_test_matrix(12, 2, seed=0)
        assert np.array_equal(np.sort(d)[:5], [0.0, 0.0, 3.0, 4.0, 5.0])

    def test_symmetric_and_rank(self):
        n, m = 15, 3
        a, d = spsd_test_matrix(n, m, seed=1)
        assert np.linalg.norm(a - a.T) <= 1e-12 * np.linalg.norm(a)
        ev = np.linalg.eigvalsh(a)
        assert np.sum(ev > 1e-8 * ev[-1]) == 2 * (n - m)

    def test_spectrum_via_hamiltonian_eigenvalues(self):
        # the symplectic spectrum equals |imag| of eig(J A) halved in pairs
        n, m = 10, 2
        a, d = spsd_test_matrix(n, m, seed=2)
        lam = np.linalg.eigvals(jmul(a))
        comp = np.sort(np.abs(lam.imag))[::2]
        assert np.allclose(np.sort(comp), np.sort(d), atol=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            spsd_test_matrix(10, 0)
        with pytest.raises(ValueError):
            spsd_test_matrix(5, 2)  # round(n/5) = 1 < 2


class TestWilliamson:
    def test_identity(self):
        s, d = williamson_small(np.eye(6))
        assert np.allclose(d, 1.0)
        assert np.linalg.norm(s.T @ s - np.eye(6)) <= 1e-12
        assert np.linalg.norm(s.T @ poisson(3) @ s - poisson(3)) <= 1e-12

    def test_commuting_diagonal(self):
        s, d = williamson_small(np.diag([2.0, 3.0, 2.0, 3.0]))
        assert np.allclose(d, [2.0, 3.0])

    def test_random_spd_against_eigen_oracle(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            m = r.standard_normal((8, 8))
            m = m @ m.T + 0.5 * np.eye(8)
            s, d = williamson_small(m)
            j = poisson(4)
            assert np.linalg.norm(s.T @ j @ s - j) <= 1e-10 * np.linalg.norm(m, 2)
            target = np.diag(np.concatenate([d, d]))
            assert np.linalg.norm(s.T @ m @ s - target) <= 1e-10 * np.linalg.norm(m, 2)
            oracle = np.sort(np.abs(np.linalg.eigvals(jmul(m)).imag))[::2]
            assert np.allclose(np.sort(d), np.sort(oracle), atol=1e-10 * np.linalg.norm(m, 2))

    def test_nondecreasing(self, rng):
        m = rng.standard_normal((10, 10))
        m = m @ m.T + np.eye(10)
        _, d = williamson_small(m)
        assert np.all(np.diff(d) >= -1e-14)

    def test_not_spd(self):
        with pytest.raises(NotSPD):
            williamson_small(-np.eye(4))

    def test_spsd_extension_with_null_space(self, rng):
        # build an SPSD matrix with a symplectic null space from a known form
        k = 4
        q = sgs(rng.standard_normal((2 * k, 2 * k))).s.entries
        d_true = np.array([0.0, 0.0, 2.0, 5.0])
        m = np.linalg.inv(q).T @ np.diag(np.concatenate([d_true, d_true])) @ np.linalg.inv(q)
        m = 0.5 * (m + m.T)
        s, d = williamson_spsd(m)
        j = poisson(k)
        assert np.linalg.norm(s.T @ j @ s - j) <= 1e-8
        assert np.allclose(np.sort(d), d_true, atol=1e-8)
        off = s.T @ m @ s - np.diag(np.concatenate([d, d]))
        assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(m, 2)

    @pytest.mark.parametrize("fourth", [2e-7, 5e-8])
    def test_odd_null_count_moves_to_wider_gap(self, fourth):
        # a 4-dimensional null space with one eigenvalue just above
        # NULL_TOL * scale = 1e-7 (2e-7) or just below it (5e-8): three
        # eigenvalues fall below the cut, and the gap above the fourth is
        # the wider one, so both instances give the same two null pairs
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((10, 10)))[0]
        lam = np.array([1e-18, 2e-18, 3e-18, fourth, 3, 4, 5, 6, 7, 10])
        m = (q * lam) @ q.T
        s, d = williamson_spsd(m)
        j = poisson(5)
        assert np.linalg.norm(s.T @ j @ s - j) <= 1e-8
        assert np.all(d[:2] <= 1e-6)
        assert np.allclose(d[2:], [1.63, 3.35, 6.69], rtol=1e-2)
        # the null block is normalized, not diagonalized, so the eigenvalue
        # it absorbed stays off the diagonal at its own size
        off = s.T @ m @ s - np.diag(np.concatenate([d, d]))
        assert np.linalg.norm(off) <= 1e-6 * np.linalg.norm(m, 2)

    def test_lone_small_eigenvalue_stays_out_of_null_space(self):
        # one eigenvalue below NULL_TOL * scale but far above roundoff: the
        # gap below it (to the roundoff floor) is the wider one, so the count
        # drops to zero and the SPD form applies
        q = np.linalg.qr(np.random.default_rng(4).standard_normal((10, 10)))[0]
        m = (q * np.array([1e-9, 2, 3, 4, 5, 6, 7, 8, 9, 10])) @ q.T
        s, d = williamson_spsd(m)
        j = poisson(5)
        # ||S||_2^2 is about 8e4 on this ill-conditioned instance
        assert np.linalg.norm(s.T @ j @ s - j) <= 1e-10 * np.linalg.norm(s, 2) ** 2
        assert 0.0 < d[0] < 1e-3
        off = s.T @ m @ s - np.diag(np.concatenate([d, d]))
        assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(m, 2)


class TestSymplecticEigenpairs:
    def test_non_finite_matrix_rejected_before_solve(self):
        # used to end in numpy's "Eigenvalues did not converge"
        a = np.eye(8)
        a[0, 0] = np.inf
        with pytest.raises(ValueError, match="A must be finite"):
            symplectic_eigenpairs(a, 2, x0=random_symplectic_point(4, 2, 3))

    def test_identity_matrix(self):
        n, k = 6, 2
        spec = symplectic_eigenpairs(np.eye(2 * n), k,
                                     x0=random_symplectic_point(n, k, 3))
        assert np.allclose(spec.values, 1.0, atol=1e-8)
        assert spec.residuals.max() <= 1e-8

    def test_two_by_two(self):
        spec = symplectic_eigenpairs(np.diag([2.0, 2.0]), 1,
                                     x0=random_symplectic_point(1, 1, 0))
        assert np.allclose(spec.values, [2.0], atol=1e-10)

    def test_small_spsd_instance(self):
        a, d = spsd_test_matrix(20, 2, seed=5)
        spec = symplectic_eigenpairs(a, 4, x0=random_symplectic_point(20, 4, 6))
        truth = np.sort(d)[:4]
        assert np.abs(spec.values - truth).sum() <= 1e-8
        assert spec.residuals.max() <= 1e-6 * np.linalg.norm(a, 2)

    def test_vector_pair_relations(self):
        a, d = spsd_test_matrix(15, 2, seed=8)
        spec = symplectic_eigenpairs(a, 3, x0=random_symplectic_point(15, 3, 9))
        from spopt.core import jmul
        for dj, u, v in zip(spec.values, spec.u_vectors.T, spec.v_vectors.T):
            assert np.linalg.norm(a @ u - dj * jmul(v)) <= 1e-6 * np.linalg.norm(a, 2)
            assert np.linalg.norm(a @ v + dj * jmul(u)) <= 1e-6 * np.linalg.norm(a, 2)

    @pytest.mark.parametrize("n, k, message", [
        (15, 3, r"x0 is 30 x 6 \(k=3\), but k=2 needs 30 x 4"),
        (10, 2, r"x0 is 20 x 4 \(k=2\), but k=2 needs 30 x 4"),
    ], ids=["k=3-start", "n=10-start"])
    def test_mismatched_start_rejected_before_solve(self, n, k, message, monkeypatch):
        a, _ = spsd_test_matrix(15, 2, seed=8)

        def must_not_run(*args, **kwargs):
            raise AssertionError("the solver ran before the start was checked")

        monkeypatch.setattr(applications, "minimize", must_not_run)
        with pytest.raises(ValueError, match=message):
            symplectic_eigenpairs(a, 2, x0=random_symplectic_point(n, k, 9))

    @pytest.mark.filterwarnings("ignore:trace minimization ended")
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(n=st.integers(8, 14), m=st.integers(1, 2), k=st.integers(1, 3),
           seed=st.integers(0, 2**31 - 1), at=st.floats(0.0, 1.0),
           c=st.floats(0.25, 4.0), d=st.floats(-4.0, 4.0))
    def test_gauss_congruence_keeps_the_values(self, n, m, k, seed, at, c, d):
        # S^T A S has A's symplectic eigenvalues for a symplectic S that is
        # not orthogonal; the answer may lose accuracy with cond(S).  Measured
        # over 60 draws: at most 4.4e-15 cond(S) ||A||_2
        a, diag = spsd_test_matrix(n, m, seed=seed)
        s = gauss_transform(n, 2 + round(at * (n - 2)), c, d)
        spec = symplectic_eigenpairs(s.T @ a @ s, k, x0=random_symplectic_point(n, k, seed + 1))
        tol = 1e-12 * np.linalg.cond(s) * np.linalg.norm(a, 2)
        assert np.abs(spec.values - np.sort(diag)[:k]).max() <= tol

    def test_nonconvergence_warns(self):
        a, _ = spsd_test_matrix(15, 2, seed=8)
        opts = SolverOptions(gtol=1e-14, niter=3, gamma_max=1.0)
        with pytest.warns(UserWarning):
            symplectic_eigenpairs(a, 3, solver_options=opts,
                                  x0=random_symplectic_point(15, 3, 9))


class TestPsdCost:
    def test_contained_snapshots_zero_cost(self, rng):
        x = random_point(8, 3, rng)
        c = rng.standard_normal((6, 10))
        a = x.entries @ c
        prob = PsdProblem(a, 3)
        f, g = cost_grad(prob, x.entries)
        scale = (np.linalg.norm(a, 2) * np.linalg.norm(x.entries, 2)) ** 2
        assert f <= 1e-28 * scale
        # the gradient is linear in the residual E, so it inherits sqrt(f)
        assert np.linalg.norm(g) <= 4 * np.sqrt(f) * np.linalg.norm(a, 2) \
            * np.linalg.norm(x.entries, 2) + 1e-12

    def test_finite_difference_oracle(self):
        # the mandated gate: directional derivatives from central differences
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((20, 7))
            prob = PsdProblem(a, 2)
            x = random_point(10, 2, rng).entries
            d = rng.standard_normal((20, 4))
            f, g = cost_grad(prob, x)
            fd = central_diff(prob.cost, x, d)
            assert abs(np.sum(g * d) - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_right_invariance(self, rng):
        x = random_point(9, 2, rng)
        s = sgs(rng.standard_normal((4, 4))).s.entries
        prob = PsdProblem(rng.standard_normal((18, 11)), 2)
        assert np.isclose(prob.cost(x.entries @ s), prob.cost(x.entries), rtol=1e-9)


# Reference formulas: each cost and gradient as an independent computation.
# ``evaluate`` must reproduce them bit for bit, so that optimizer trajectories
# do not depend on whether the gradient reuses the cost's intermediates.


def ref_target(w, x):
    return float(np.linalg.norm(x - w) ** 2), 2.0 * (x - w)


def ref_trace(a, x):
    return float(np.vdot(x, a @ x)), 2.0 * (a @ x)


def ref_psd(l, x):
    # on the thin factor L, with C = X^T J L reused for L^T J^T X = C^T
    c = x.T @ jmul(l)
    e = l - x @ jtmul(c)
    f = float(np.linalg.norm(e) ** 2)
    return f, mulj(2.0 * (jmul(l) @ (x.T @ e).T - e @ c.T))


def ref_psd_raw(a, x):
    # the same cost and gradient on the raw snapshots A, C formed twice
    e = a - x @ (jtmul(x.T @ jmul(a)))
    f = float(np.linalg.norm(e) ** 2)
    t1 = mulj(e @ (a.T @ jtmul(x)))
    t2 = -mulj(jmul(a @ (e.T @ x)))
    return f, -2.0 * (t1 + t2)


EVAL_SHAPES = [(3, 1), (5, 2), (4, 4), (6, 6), (12, 3)]


class TestEvaluate:
    @pytest.mark.parametrize("n,k", EVAL_SHAPES)
    def test_bitwise_equal_to_reference(self, n, k):
        rng = np.random.default_rng(100 * n + k)
        w = rng.standard_normal((2 * n, 2 * k))
        sym = rng.standard_normal((2 * n, 2 * n))
        sym = sym + sym.T
        few, many = rng.standard_normal((2 * n, 7)), rng.standard_normal((2 * n, 3 * n))
        psd_few, psd_many = PsdProblem(few, k), PsdProblem(many, k)
        cases = [
            (TargetProblem(w), ref_target, w),
            (TraceProblem(sym, k), ref_trace, sym),
            (psd_few, ref_psd, psd_few.factor),
            (psd_many, ref_psd, psd_many.factor),
        ]
        points = [random_point(n, k, rng).entries,
                  rng.standard_normal((2 * n, 2 * k))]  # off the manifold too
        for prob, ref, operand in cases:
            for x in points:
                f_ref, g_ref = ref(operand, x)
                ev = prob.evaluate(x)
                assert ev.cost == f_ref
                assert np.array_equal(ev.gradient(), g_ref)
                assert prob.cost(x) == f_ref
                assert np.array_equal(prob.euclidean_gradient(x), g_ref)

    def test_psd_residual_built_once_per_evaluated_point(self, monkeypatch):
        # the line search evaluates each trial point once and the accepted
        # point's gradient reuses that residual: one build per trial step
        # plus one for the start point
        rng = np.random.default_rng(0)
        a = rng.standard_normal((20, 15))
        prob = PsdProblem(a, 3)
        calls = []
        inner = PsdProblem.residual

        def counting(self, x):
            calls.append(1)
            return inner(self, x)

        monkeypatch.setattr(PsdProblem, "residual", counting)
        res = minimize(prob, cotangent_lift(a, 3),
                       SolverOptions(gtol=1e-12, niter=40, gamma0=1.0))
        backtracks = sum(r.backtracks for r in res.trace.iteration_records)
        assert res.trace.iterations == 40 and backtracks > 0
        assert len(calls) == res.trace.iterations + backtracks + 1


@pytest.fixture(scope="module")
def wave60():
    w = wave_system(60)
    traj = crank_nicolson(w, w.x0, IntegratorOptions(0.01, 25.0))
    return w, extract_snapshots(traj, 60)


def _psd_factor_cases():
    rng = np.random.default_rng(7)
    contained = random_point(10, 3, rng).entries
    return {
        "s<2n": (rng.standard_normal((20, 7)), 2),
        "s>2n": (rng.standard_normal((12, 40)), 2),
        "rank-2k": (contained @ rng.standard_normal((6, 30)), 3),
        "zero": (np.zeros((16, 9)), 2),
    }


class TestPsdFactor:
    """The thin factor L against the raw-snapshot formulas.

    The cost agrees to 1e-12 relative.  The gradient sums terms of size about
    ||A||_2^2 ||X||_2^3 that cancel near a good basis, so its difference is
    bounded against that scale: at most 100 eps, measured up to 14 eps on
    wave n=60 and 21 eps on wave n=250.  Relative to ||grad|| the same
    differences read 1.2e-12 (n=60, k=8, CotLift) and 1.2e-10 (n=250, k=20,
    state-seeded CotLift).
    """

    @staticmethod
    def check_against_raw(a, k, points):
        prob = PsdProblem(a, k)
        l = prob.factor
        assert l.flags.c_contiguous
        assert l.shape == (a.shape[0], np.linalg.matrix_rank(a))
        scale_a = np.linalg.norm(a, 2) ** 2
        assert np.linalg.norm(l @ l.T - a @ a.T) <= 1e-13 * scale_a
        for x in points:
            f_raw, g_raw = ref_psd_raw(a, x)
            f, g = cost_grad(prob, x)
            assert f == pytest.approx(f_raw, rel=1e-12, abs=0.0)
            bound = 100 * np.finfo(float).eps * scale_a * np.linalg.norm(x, 2) ** 3
            assert np.linalg.norm(g - g_raw) <= bound
        return prob

    @pytest.mark.parametrize("case", ["s<2n", "s>2n", "rank-2k", "zero"])
    def test_matches_raw_snapshots(self, case):
        a, k = _psd_factor_cases()[case]
        rng = np.random.default_rng(11)
        n = a.shape[0] // 2
        points = [random_point(n, k, rng).entries, rng.standard_normal((2 * n, 2 * k))]
        prob = self.check_against_raw(a, k, points)
        if case == "rank-2k":
            assert prob.factor.shape[1] == 2 * k
        if case == "zero":
            assert prob.factor.shape == (16, 0)
            f, g = cost_grad(prob, points[0])
            assert f == 0.0 and g.shape == (16, 2 * k) and not g.any()

    def test_wave_fom(self, wave60):
        w, snaps = wave60
        points = [cotangent_lift(snaps, 8).entries,
                  state_seeded_cotangent_lift(snaps, 8, w.x0).entries]
        prob = self.check_against_raw(snaps, 8, points)
        assert prob.factor.shape[1] < snaps.shape[1]

    def test_build_rom_diagnostics(self, wave60, monkeypatch):
        w, snaps = wave60
        finals = []
        inner = hamiltonian.minimize

        def capturing(*args, **kwargs):
            result = inner(*args, **kwargs)
            finals.append(result.x_final.entries)
            return result

        monkeypatch.setattr(hamiltonian, "minimize", capturing)
        k = 4
        rom = build_rom(w, snaps, k, reduction="optimized",
                        solver_options=SolverOptions(gamma0=1e-8, gtol=1e-12, niter=30))
        d = rom.diagnostics
        at = {"cost_cotlift": state_seeded_cotangent_lift(snaps, k, w.x0).entries,
              "cost_optimized": finals[0],
              "cost_restored": rom.basis.entries}
        for key, x in at.items():
            assert d[key] == pytest.approx(ref_psd_raw(snaps, x)[0], rel=1e-12, abs=0.0), key


class TestCotangentLift:
    def test_canonical_snapshots(self):
        e = canonical_point(6, 2)
        lift = cotangent_lift(e.entries, 2)
        # recovers the canonical embedding up to column signs
        assert np.allclose(np.abs(lift.entries), np.abs(e.entries), atol=1e-12)

    def test_block_structure_and_orthosymplectic(self, rng):
        snaps = rng.standard_normal((16, 11))
        lift = cotangent_lift(snaps, 3)
        e = lift.entries
        assert np.array_equal(e[:8, 3:], np.zeros((8, 3)))
        assert np.array_equal(e[8:, :3], np.zeros((8, 3)))
        assert np.array_equal(e[:8, :3], e[8:, 3:])
        assert np.linalg.norm(e.T @ e - np.eye(6)) <= 1e-12
        assert symplecticity_residual(lift) <= 1e-12

    def test_k_validation(self, rng):
        with pytest.raises(ValueError):
            cotangent_lift(rng.standard_normal((8, 2)), 5)


class TestDeim:
    def test_single_basis_vector(self):
        v = np.zeros((12, 1))
        v[4, 0] = 1.0  # e_5 in 1-based terms
        assert deim_select(v).tolist() == [4]

    def test_two_canonical_columns(self):
        v = np.zeros((10, 2))
        v[0, 0] = 1.0
        v[1, 1] = 1.0
        assert sorted(deim_select(v).tolist()) == [0, 1]

    def test_interpolation_property(self, rng):
        v = np.linalg.qr(rng.standard_normal((40, 8)))[0]
        idx = deim_select(v)
        assert len(set(idx.tolist())) == 8
        ptv = v[idx]
        assert np.isfinite(np.linalg.norm(np.linalg.inv(ptv), 2))
        w = rng.standard_normal(40)
        recon = v @ np.linalg.solve(ptv, w[idx])
        assert np.allclose(recon[idx], w[idx], atol=1e-12)

    def test_rank_deficient_raises(self):
        v = np.zeros((6, 2))
        v[0, 0] = 1.0
        v[:, 1] = v[:, 0]
        with pytest.raises(SingularSelection):
            deim_select(v)

    def test_reduced_rhs_linear_only(self, rng):
        # h == 0: both variants reduce to U^T M U xt
        u = random_point(10, 2, rng)
        m = rng.standard_normal((20, 20))
        m = m + m.T
        v = np.linalg.qr(rng.standard_normal((20, 5)))[0]
        idx = deim_select(v)
        zero = Nonlinearity(potential=lambda q, p, i: 0.0 * q,
                            slope=lambda q, p, i: (0.0, 0.0),
                            curvature=lambda q, p, i: (0.0, 0.0, 0.0))
        xt = rng.standard_normal(4)
        expected = u.entries.T @ (m @ (u.entries @ xt))
        for variant in ("psd-deim", "structure-preserving"):
            op = deim_reduced_rhs(u, u.entries.T @ m @ u.entries, v, idx, zero, variant)
            assert np.allclose(jtmul(op(xt)), expected, atol=1e-12)
            assert np.allclose(dense_jacobian(op.jacobian(xt)), u.entries.T @ m @ u.entries,
                               atol=1e-12)

    def test_square_orthogonal_basis_exact(self, rng):
        # with a full orthogonal basis the oblique projector is the identity
        n = 5
        u = random_point(n, 2, rng)
        reduced_mass = np.zeros((4, 4))
        v = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))[0]
        idx = deim_select(v)

        # grad h = sin(x) componentwise
        sines = Nonlinearity(potential=lambda q, p, i: -np.cos(q) - np.cos(p),
                             slope=lambda q, p, i: (np.sin(q), np.sin(p)),
                             curvature=lambda q, p, i: (np.cos(q), 0.0, np.cos(p)))
        op = deim_reduced_rhs(u, reduced_mass, v, idx, sines, "psd-deim")
        xt = rng.standard_normal(4)
        full = u.entries @ xt
        assert np.allclose(jtmul(op(xt)), u.entries.T @ np.sin(full), atol=1e-10)


class TestRandomSymplecticPoint:
    def test_feasible_and_deterministic(self):
        x = random_symplectic_point(7, 2, seed=5)
        y = random_symplectic_point(7, 2, seed=5)
        assert symplecticity_residual(x) <= 1e-10
        assert np.array_equal(x.entries, y.entries)
