import numpy as np
import pytest

from spopt.applications import random_symplectic_orthogonal
from spopt.core import (
    SymplecticPoint,
    canonical_point,
    jmul,
    mulj,
    poisson,
    skew_part,
    tangency_residual,
)
from spopt.geometry import (
    Metric,
    MetricKind,
    NotSPD,
    euclidean_normal_coefficient,
    project_tangent,
    riemannian_gradient,
    solve_skew_lyapunov,
)
from spopt.oracles import (
    RankDeficient,
    canonical_gradient_qr,
    metric_inner,
    orthonormal_complement,
    tangent_coordinates,
)

from conftest import random_point, random_tangent

EUCLID = Metric.euclidean()
CANON = Metric.canonical_like(0.5)


class TestComplement:
    def test_canonical_embedding(self):
        e = canonical_point(4, 1)
        comp = orthonormal_complement(e)
        assert comp.entries.shape == (8, 6)
        assert np.allclose(e.entries.T @ comp.entries, 0.0, atol=1e-14)
        assert np.allclose(comp.entries.T @ comp.entries, np.eye(6), atol=1e-14)

    def test_random_feasible(self, rng):
        x = random_point(10, 3, rng)
        comp = orthonormal_complement(x)
        assert np.linalg.norm(x.entries.T @ comp.entries) <= 1e-12
        assert np.linalg.norm(comp.entries.T @ comp.entries - np.eye(14)) <= 1e-12

    def test_square_case_empty(self, rng):
        x = random_point(3, 3, rng)
        comp = orthonormal_complement(x)
        assert comp.entries.shape == (6, 0)
        # downstream formulas degrade gracefully
        z = random_tangent(x, rng)
        tc = tangent_coordinates(x, comp, z)
        assert tc.k.shape == (0, 6)
        rec = mulj(x.entries) @ tc.w
        assert np.linalg.norm(rec - z.entries) <= 1e-10 * max(1.0, z.norm())

    def test_rank_deficient_rejected(self):
        e = canonical_point(4, 2).entries.copy()
        e[:, 1] = e[:, 0] * 1e-13
        with pytest.raises(RankDeficient):
            orthonormal_complement(SymplecticPoint(e))


class TestTangentCoordinates:
    def test_pure_w_direction(self, rng):
        x = random_point(6, 2, rng)
        comp = orthonormal_complement(x)
        w0 = rng.standard_normal((4, 4))
        w0 = 0.5 * (w0 + w0.T)
        z = mulj(x.entries) @ w0
        tc = tangent_coordinates(x, comp, z)
        assert np.allclose(tc.w, w0, atol=1e-10)
        assert np.allclose(tc.k, 0.0, atol=1e-10)

    def test_pure_k_direction(self, rng):
        x = random_point(6, 2, rng)
        comp = orthonormal_complement(x)
        k0 = rng.standard_normal((8, 4))
        z = jmul(comp.entries @ k0)
        tc = tangent_coordinates(x, comp, z)
        assert np.allclose(tc.k, k0, atol=1e-9)
        assert np.allclose(tc.w, 0.0, atol=1e-9)

    def test_round_trip(self, rng):
        x = random_point(8, 2, rng)
        comp = orthonormal_complement(x)
        z = random_tangent(x, rng)
        tc = tangent_coordinates(x, comp, z)
        rec = mulj(x.entries) @ tc.w + jmul(comp.entries @ tc.k)
        assert np.linalg.norm(rec - z.entries) <= 1e-10 * z.norm()


class TestSkewLyapunov:
    def test_identity_coefficient(self, rng):
        c = skew_part(rng.standard_normal((6, 6)))
        assert np.allclose(solve_skew_lyapunov(np.eye(6), c), 0.5 * c)

    def test_diagonal_coefficient(self, rng):
        p = np.diag([1.0, 2.0, 3.0, 4.0])
        c = skew_part(rng.standard_normal((4, 4)))
        omega = solve_skew_lyapunov(p, c)
        assert np.linalg.norm(p @ omega + omega @ p - c) <= 1e-12 * np.linalg.norm(c)
        lam = np.diag(p)
        expected = c / (lam[:, None] + lam[None, :])
        assert np.allclose(omega, expected, atol=1e-13)

    def test_zero_rhs(self, rng):
        p = rng.standard_normal((6, 6))
        p = p @ p.T + np.eye(6)
        assert np.allclose(solve_skew_lyapunov(p, np.zeros((6, 6))), 0.0)

    def test_result_skew_and_residual(self, rng):
        p = rng.standard_normal((8, 8))
        p = p @ p.T + 0.1 * np.eye(8)
        c = skew_part(rng.standard_normal((8, 8)))
        omega = solve_skew_lyapunov(p, c)
        assert np.linalg.norm(omega + omega.T) <= 1e-13
        assert np.linalg.norm(p @ omega + omega @ p - c) <= 1e-10 * np.linalg.norm(c)

    def test_not_spd(self, rng):
        c = skew_part(rng.standard_normal((4, 4)))
        with pytest.raises(NotSPD):
            solve_skew_lyapunov(-np.eye(4), c)

    @pytest.mark.parametrize("where", [None, (0, 0), (1, 2)])
    def test_nan_coefficient_raises_not_spd(self, where):
        # dsyevd fails on an all-NaN P and returns a NaN eigenvalue for a
        # single NaN; both are NotSPD, never a bare LinAlgError
        p = np.eye(4) if where else np.full((4, 4), np.nan)
        if where:
            p[where] = p[where[::-1]] = np.nan
        with pytest.raises(NotSPD):
            solve_skew_lyapunov(p, np.zeros((4, 4)))


def conditioned_point(n, k, cond, seed):
    """Orthosymplectic columns times the symplectic diag(d, 1/d), d from
    sqrt(cond) down to 1: singular values d and 1/d, so cond(X) = cond."""
    q = random_symplectic_orthogonal(n, seed)
    d = np.geomspace(np.sqrt(cond), 1.0, k)
    np.random.default_rng(seed).shuffle(d)
    cols = np.r_[0:k, n:n + k]
    return SymplecticPoint.from_entries(q[:, cols] * np.concatenate([d, 1.0 / d]))


class TestCanonicalGradient:
    @pytest.mark.parametrize("n, k", [(1, 1), (7, 1), (6, 6), (10, 3), (40, 5)])
    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e4])
    def test_matches_qr_oracle(self, n, k, cond):
        # the Cholesky projector is accurate to cond(X)^2 eps, and the map
        # from it to the gradient has norm at most 2 ||X||_2^2
        x = conditioned_point(n, k, cond, seed=n + k)
        assert np.linalg.cond(x.entries) <= 1.01 * cond
        g = np.random.default_rng(n * k).standard_normal(x.entries.shape)
        fast = riemannian_gradient(CANON, x, g).entries
        ref = canonical_gradient_qr(CANON, x, g).entries
        bound = (100 * np.linalg.cond(x.entries) ** 2 * np.finfo(float).eps
                 * np.linalg.norm(x.entries, 2) ** 2 * np.linalg.norm(g))
        assert np.linalg.norm(fast - ref) <= bound

    def test_rank_deficient_point_raises_not_spd(self):
        e = canonical_point(4, 2).entries.copy()
        e[:, 1] = 0.0
        x = SymplecticPoint(e)
        with pytest.raises(NotSPD):
            riemannian_gradient(CANON, x, np.ones_like(e))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("metric", [EUCLID, CANON])
    def test_non_finite_point_raises_not_spd(self, metric):
        e = canonical_point(4, 2).entries.copy()
        e[1, 0] = np.nan
        x = SymplecticPoint(e)
        with pytest.raises(NotSPD):
            riemannian_gradient(metric, x, np.ones_like(e))


class TestProjection:
    @pytest.mark.parametrize("metric", [EUCLID, CANON])
    def test_tangency(self, metric, rng):
        x = random_point(8, 3, rng)
        y = rng.standard_normal((16, 6))
        z = project_tangent(metric, x, y)
        assert tangency_residual(x, z.entries) <= 1e-9 * np.linalg.norm(y)

    @pytest.mark.parametrize("metric", [EUCLID, CANON])
    def test_idempotence(self, metric, rng):
        x = random_point(8, 3, rng)
        y = rng.standard_normal((16, 6))
        z = project_tangent(metric, x, y)
        z2 = project_tangent(metric, x, z.entries)
        assert np.linalg.norm(z2.entries - z.entries) <= 1e-9 * np.linalg.norm(y)

    def test_tangent_input_unchanged(self, rng):
        x = random_point(6, 2, rng)
        z = random_tangent(x, rng)
        out = project_tangent(EUCLID, x, z.entries)
        assert np.linalg.norm(out.entries - z.entries) <= 1e-10 * max(1.0, z.norm())

    def test_euclidean_normal_space_killed(self, rng):
        x = random_point(6, 2, rng)
        omega = skew_part(rng.standard_normal((4, 4)))
        y = jmul(x.entries @ omega)
        out = project_tangent(EUCLID, x, y)
        assert np.linalg.norm(out.entries) <= 1e-10 * np.linalg.norm(y)

    def test_canonical_normal_space_killed(self, rng):
        x = random_point(6, 2, rng)
        omega = skew_part(rng.standard_normal((4, 4)))
        y = mulj(x.entries) @ omega
        out = project_tangent(CANON, x, y)
        assert np.linalg.norm(out.entries) <= 1e-10 * np.linalg.norm(y)

    @pytest.mark.parametrize("metric", [EUCLID, CANON])
    def test_orthogonal_split(self, metric, rng):
        # the complementary part is metric-orthogonal to every tangent vector
        x = random_point(6, 2, rng)
        comp = orthonormal_complement(x)
        y = rng.standard_normal((12, 4))
        z = project_tangent(metric, x, y)
        normal = y - z.entries
        for _ in range(5):
            t = random_tangent(x, rng)
            if metric.kind is MetricKind.EUCLIDEAN:
                ip = float(np.sum(normal * t.entries))
            else:
                # canonical normal form X J Omega: inner product against
                # tangents through the coordinate metric on the projection
                zn = project_tangent(metric, x, normal)
                ip = metric_inner(metric, x, comp, zn, t)
            assert abs(ip) <= 1e-9 * np.linalg.norm(y) * t.norm()

    def test_intermediates_symmetric_and_skew(self, rng):
        # dense reconstructions of the operator pieces on a small instance
        x = random_point(5, 2, rng)
        e = x.entries
        y = rng.standard_normal((10, 4))
        # G_X = I - X J X^T J^T / 2, S_{X,Y} = G Y (XJ)^T + XJ (G Y)^T
        j2n = poisson(5)
        g = np.eye(10) - 0.5 * e @ poisson(2) @ e.T @ j2n.T
        s = (g @ y) @ (e @ poisson(2)).T + (e @ poisson(2)) @ (g @ y).T
        assert np.linalg.norm(s - s.T) <= 1e-12 * np.linalg.norm(s)
        omega = euclidean_normal_coefficient(x, y)
        assert np.linalg.norm(omega + omega.T) <= 1e-12


class TestMetricInner:
    def test_zero(self, rng):
        x = random_point(5, 2, rng)
        comp = orthonormal_complement(x)
        z = random_tangent(x, rng)
        zero = z.entries * 0.0
        assert metric_inner(EUCLID, x, comp, zero, zero) == 0.0
        assert metric_inner(CANON, x, comp, zero, zero) == 0.0

    def test_euclidean_norm_squared(self, rng):
        x = random_point(5, 2, rng)
        z = random_tangent(x, rng)
        ip = metric_inner(EUCLID, x, None, z, z)
        assert np.isclose(ip, z.norm() ** 2)

    def test_canonical_pure_w_identity(self, rng):
        x = random_point(5, 2, rng)
        comp = orthonormal_complement(x)
        z = mulj(x.entries) @ np.eye(4)  # W = I, K = 0
        ip = metric_inner(CANON, x, comp, z, z)
        assert np.isclose(ip, 4 * 2, rtol=1e-10)  # (1/rho) tr(I_{2k}) = 2 * 2k


class TestMetricParameter:
    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
    def test_non_positive_or_non_finite_rho_rejected(self, rho):
        # a NaN rho used to run CayleyC to a NaN gradient norm
        with pytest.raises(ValueError, match="rho must be"):
            Metric.canonical_like(rho)

    @pytest.mark.parametrize("rho", ["0.5", True, None])
    def test_non_numeric_rho_rejected(self, rho):
        with pytest.raises(TypeError, match="rho must be a number"):
            Metric.canonical_like(rho)


class TestRiemannianGradient:
    @pytest.mark.parametrize("metric", [EUCLID, CANON])
    def test_zero_gradient(self, metric, rng):
        x = random_point(5, 2, rng)
        g = riemannian_gradient(metric, x, np.zeros((10, 4)))
        assert np.linalg.norm(g.entries) == 0.0

    def test_euclidean_hand_value_at_canonical_point(self):
        # trace cost with A = I: egrad = 2E; Omega = -2 J_{2k};
        # grad = 2E + 2 J E J_{2k}
        e = canonical_point(4, 2)
        egrad = 2.0 * e.entries
        g = riemannian_gradient(EUCLID, e, egrad)
        expected = 2 * e.entries + 2 * jmul(mulj(e.entries))
        assert np.allclose(g.entries, expected, atol=1e-12)

    @pytest.mark.parametrize("metric", [EUCLID, CANON])
    def test_duality_against_finite_differences(self, metric, rng):
        x = random_point(8, 2, rng)
        comp = orthonormal_complement(x)
        a = rng.standard_normal((16, 16))
        a = a + a.T
        cost = lambda m: float(np.sum(m * (a @ m)))
        egrad = 2.0 * a @ x.entries
        grad = riemannian_gradient(metric, x, egrad)
        z = random_tangent(x, rng)
        h = 1e-6
        fd = (cost(x.entries + h * z.entries) - cost(x.entries - h * z.entries)) / (2 * h)
        ip = metric_inner(metric, x, comp, grad, z)
        assert abs(ip - fd) <= 1e-6 * max(1.0, abs(fd))

    @pytest.mark.parametrize("metric", [EUCLID, CANON])
    def test_duality_identity_seeded_ensemble(self, metric):
        # g(grad, Z) == tr(egrad^T Z) across 100 seeded draws, relative to
        # the Cauchy-Schwarz scale |grad|_g |Z|_g of the inner product
        for seed in range(100):
            r = np.random.default_rng(seed)
            x = random_point(5, 2, r)
            comp = orthonormal_complement(x)
            egrad = r.standard_normal((10, 4))
            z = random_tangent(x, r)
            grad = riemannian_gradient(metric, x, egrad)
            lhs = metric_inner(metric, x, comp, grad, z)
            rhs = float(np.sum(egrad * z.entries))
            scale = np.sqrt(metric_inner(metric, x, comp, grad, grad)
                            * metric_inner(metric, x, comp, z, z))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, scale)

    def test_gradient_is_tangent(self, rng):
        x = random_point(7, 3, rng)
        egrad = rng.standard_normal((14, 6))
        for metric in (EUCLID, CANON):
            g = riemannian_gradient(metric, x, egrad)
            assert tangency_residual(x, g.entries) <= 1e-10 * np.linalg.norm(egrad)

    def test_orthosymplectic_omega_closed_form(self, rng):
        # for X with orthonormal columns the Lyapunov coefficient is the
        # identity and Omega = skew(X^T J^T Y)
        from spopt.applications import cotangent_lift
        snaps = rng.standard_normal((12, 9))
        x = cotangent_lift(snaps, 2)
        y = rng.standard_normal((12, 4))
        omega = euclidean_normal_coefficient(x, y)
        from spopt.core import jtmul
        expected = skew_part(x.entries.T @ jtmul(y))
        assert np.allclose(omega, expected, atol=1e-12)
