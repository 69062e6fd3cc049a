import numpy as np
import pytest

from spopt.core import (
    FeasibilityError,
    FeasibilityWarning,
    SymplecticPoint,
    TangentVector,
    canonical_point,
    jmul,
    jtmul,
    mulj,
    symplectic_inverse,
    symplecticity_residual,
    tangency_residual,
)
from spopt.geometry import Metric, project_tangent
from spopt.sr import _layout

from conftest import random_point
from oracles import conjugate, poisson, shuffle_cols, shuffle_matrix


class TestPoisson:
    def test_n1_entries(self):
        assert np.array_equal(poisson(1), [[0.0, 1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_orthogonal(self, n):
        j = poisson(n)
        assert np.array_equal(j @ j.T, np.eye(2 * n))

    def test_square_is_minus_identity(self):
        j = poisson(2)
        assert np.array_equal(j @ j, -np.eye(4))

    def test_skew_and_inverse(self):
        j = poisson(3)
        assert np.array_equal(j.T, -j)
        assert np.array_equal(j.T, np.linalg.inv(j))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            poisson(0)


class TestAppliedJ:
    def test_matches_dense(self, rng):
        a = rng.standard_normal((10, 6))
        j10, j6 = poisson(5), poisson(3)
        assert np.allclose(jmul(a), j10 @ a)
        assert np.allclose(jtmul(a), j10.T @ a)
        assert np.allclose(mulj(a), a @ j6)
        v = rng.standard_normal(10)
        assert np.allclose(jmul(v), j10 @ v)


class TestPerfectShuffle:
    # the package keeps P_{2k} as the index arrays of sr._layout(k):
    # A P = a[:, order], A P^T = a[:, inverse]
    def test_k2_column_order(self):
        p = shuffle_matrix(2)
        e = np.eye(4)
        expected = np.column_stack([e[:, 0], e[:, 2], e[:, 1], e[:, 3]])
        assert np.array_equal(p, expected)

    def test_k1_identity(self):
        assert np.array_equal(shuffle_matrix(1), np.eye(2))
        assert _layout(1).order.tolist() == _layout(1).inverse.tolist() == [0, 1]

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 33])
    def test_layout_matches_dense(self, k):
        layout = _layout(k)
        eye = np.eye(2 * k)
        assert np.array_equal(eye[:, layout.order], shuffle_matrix(k))
        assert np.array_equal(eye[:, layout.inverse], shuffle_matrix(k).T)

    def test_k3_conjugation(self):
        target = np.zeros((6, 6))
        for j in range(3):
            target[2 * j: 2 * j + 2, 2 * j: 2 * j + 2] = poisson(1)
        assert np.array_equal(shuffle_matrix(3) @ poisson(3) @ shuffle_matrix(3).T, target)
        assert np.array_equal(conjugate(3, poisson(3)), target)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 33, 64])
    def test_conjugation_exact_all_k(self, k):
        hat = conjugate(k, poisson(k))
        target = np.zeros((2 * k, 2 * k))
        for j in range(k):
            target[2 * j: 2 * j + 2, 2 * j: 2 * j + 2] = poisson(1)
        assert np.array_equal(hat, target)
        p = _layout(k).order
        assert np.array_equal(hat[np.ix_(p, p)], poisson(k))

    def test_shuffle_matches_dense(self, rng):
        layout = _layout(3)
        a = rng.standard_normal((4, 6))
        assert np.allclose(shuffle_cols(3, a), a @ shuffle_matrix(3).T)
        assert np.array_equal(a[:, layout.inverse], shuffle_cols(3, a))
        assert np.array_equal(a[:, layout.inverse][:, layout.order], a)

    def test_orthogonal_permutation(self):
        p = shuffle_matrix(5)
        assert np.array_equal(p @ p.T, np.eye(10))


class TestSymplecticInverse:
    def test_canonical_embedding(self):
        e = canonical_point(6, 2)
        assert np.allclose(symplectic_inverse(e) @ e.entries, np.eye(4))

    def test_square_poisson(self):
        j = poisson(3)
        assert np.allclose(symplectic_inverse(j), j.T)
        assert np.allclose(symplectic_inverse(j), np.linalg.inv(j))

    def test_random_symplectic_left_inverse(self, rng):
        x = random_point(9, 3, rng)
        res = np.linalg.norm(symplectic_inverse(x) @ x.entries - np.eye(6))
        assert res <= 1e-12

    def test_residual_bound_identity(self, rng):
        # X^+ X - I = J^T (X^T J X - J), so the product defect is bounded by
        # the feasibility residual
        x = random_point(7, 2, rng).entries + 1e-9 * rng.standard_normal((14, 4))
        feas = symplecticity_residual(x)
        prod = np.linalg.norm(symplectic_inverse(x) @ x - np.eye(4))
        assert prod <= feas + 1e-14


class TestResiduals:
    def test_canonical_zero(self):
        assert symplecticity_residual(canonical_point(4, 2)) == 0.0

    def test_scaled_point(self):
        e = canonical_point(5, 2)
        assert np.isclose(symplecticity_residual(2.0 * e.entries), 3 * np.sqrt(4))

    def test_sum_gate_symplectic(self):
        from spopt.applications import sum_gate
        assert symplecticity_residual(sum_gate()) <= 1e-15

    def test_tangency_zero_direction(self):
        e = canonical_point(4, 2)
        assert tangency_residual(e, np.zeros((8, 4))) == 0.0

    def test_tangency_parametrized_direction(self, rng):
        x = random_point(6, 2, rng)
        w = rng.standard_normal((4, 4))
        z = mulj(x.entries) @ (w + w.T)
        assert tangency_residual(x, z) <= 1e-13 * max(1.0, np.linalg.norm(z))

    def test_tangency_of_x_itself(self, rng):
        x = random_point(6, 2, rng)
        assert np.isclose(tangency_residual(x, x.entries), 2 * np.sqrt(4), atol=1e-10)

    def test_projection_is_tangent(self, rng):
        # cross-module invariant with the geometry layer
        x = random_point(8, 3, rng)
        y = rng.standard_normal((16, 6))
        z = project_tangent(Metric.euclidean(), x, y)
        assert tangency_residual(x, z.entries) <= 1e-10 * np.linalg.norm(y)


class TestDims:
    def test_validation(self):
        with pytest.raises(ValueError, match="k=3 exceeds n=2"):
            canonical_point(2, 3)
        with pytest.raises(ValueError, match="dimensions must be positive"):
            canonical_point(0, 0)
        with pytest.raises(ValueError, match="k=3 exceeds n=2"):
            SymplecticPoint.from_entries(np.zeros((4, 6)))
        with pytest.raises(ValueError, match="dimensions must be positive"):
            SymplecticPoint.from_entries(np.zeros((0, 0)))


class TestConstruction:
    def test_good_point_silent(self):
        SymplecticPoint.from_entries(canonical_point(3, 1).entries)

    def test_warn_band(self, rng):
        e = canonical_point(5, 2).entries.copy()
        e[0, 0] += 1e-7  # residual above 1e-8 but below 1e-5
        with pytest.warns(FeasibilityWarning):
            SymplecticPoint.from_entries(e)

    def test_error_band(self, rng):
        e = canonical_point(5, 2).entries.copy()
        e[0, 0] += 0.1
        with pytest.raises(ValueError):
            SymplecticPoint.from_entries(e)

    def test_odd_shape_rejected(self):
        with pytest.raises(ValueError):
            SymplecticPoint.from_entries(np.zeros((5, 2)))

    def test_tangent_vector_checked(self, rng):
        x = random_point(5, 2, rng)
        with pytest.raises(ValueError):
            TangentVector.from_entries(x, x.entries)  # X itself is not tangent
        z = mulj(x.entries) @ np.eye(4)  # W = I is symmetric
        TangentVector.from_entries(x, z)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(FeasibilityError, match=r" \(non-finite input\)$"):
            SymplecticPoint.from_entries(np.full((4, 2), bad))
        e = canonical_point(5, 2).entries.copy()
        e[3, 1] = bad
        with pytest.raises(FeasibilityError, match=r" \(non-finite input\)$"):
            SymplecticPoint.from_entries(e)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tangent_rejected(self, bad):
        x = canonical_point(5, 2)
        z = mulj(x.entries) @ np.eye(4)  # tangent before the bad entry
        z[7, 2] = bad
        with pytest.raises(FeasibilityError, match=r" \(non-finite input\)$"):
            TangentVector.from_entries(x, z)
        with pytest.raises(FeasibilityError, match=r" \(non-finite input\)$"):
            TangentVector.from_entries(x, np.full(x.entries.shape, bad))
