import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spopt import sr
from spopt.applications import random_symplectic_orthogonal
from spopt.core import (
    FeasibilityError,
    SymplecticPoint,
    canonical_point,
    jmul,
    symplecticity_residual,
)
from spopt.sr import Breakdown, desr, sgs, sgs_modified

from conftest import random_point, random_tangent, random_tangent_spectral
from oracles import (even_minor_check, in_normalized_triangular_set, poisson, sgs_basic,
                     shuffle_cols, shuffle_matrix, unconjugate, unshuffle_cols)


def unit(n2, i):
    e = np.zeros(n2)
    e[i] = 1.0
    return e


class TestDesr:
    def test_symplectic_pair_is_identity(self):
        n = 4
        a = np.column_stack([unit(2 * n, 0), unit(2 * n, n)])
        f = desr(a)
        assert np.allclose(f.s.entries, a)
        assert np.allclose(f.r, np.eye(2))

    def test_scaled_pair(self):
        n = 3
        a = np.column_stack([2 * unit(2 * n, 0), 3 * unit(2 * n, n)])
        f = desr(a)
        (r11, r12), (r21, r22) = f.r
        assert r12 == 0.0 and r21 == 0.0
        assert np.isclose(r11 * r22, 6.0)  # omega
        assert np.isclose(r11, np.sqrt(6.0))
        assert np.isclose(r22, np.sqrt(6.0))
        assert np.allclose(f.s.entries[:, 0], 2 * unit(6, 0) / np.sqrt(6.0))
        assert np.allclose(f.s.entries[:, 1], 3 * unit(6, 3) / np.sqrt(6.0))
        assert np.allclose(f.s.entries @ f.r, a)

    def test_negative_omega(self):
        n = 3
        a = np.column_stack([unit(2 * n, n), unit(2 * n, 0)])  # omega = -1
        f = desr(a)
        assert f.r[1, 1] == -f.r[0, 0]
        assert np.allclose(f.s.entries @ f.r, a)

    def test_isotropic_breaks(self):
        a = np.column_stack([unit(6, 0), unit(6, 1)])
        with pytest.raises(Breakdown):
            desr(a)

    def test_zero_column_breaks(self):
        a = np.column_stack([unit(6, 0), np.zeros(6)])
        with pytest.raises(Breakdown):
            desr(a)


def brute_force_minors_nonzero(a):
    """Independent oracle: evaluate the even leading minors with plain det."""
    k = a.shape[1] // 2
    p = shuffle_matrix(k)
    gram = p @ (a.T @ jmul(a)) @ p.T
    scale = max(np.linalg.norm(gram, 2), 1e-300)
    return all(
        abs(np.linalg.det(gram[: 2 * j, : 2 * j])) > (1e-10 * scale) ** (2 * j)
        for j in range(1, k + 1)
    )


class TestSgsBasic:
    def test_psps_input_identity(self, rng):
        x = random_point(6, 3, rng)
        psps = shuffle_cols(3, x.entries)
        s_hat, r_hat = sgs_basic(psps)
        assert np.allclose(s_hat, psps, atol=1e-12)
        assert np.allclose(r_hat, np.eye(6), atol=1e-12)

    def test_shuffled_canonical_point(self):
        e = canonical_point(5, 2)
        psps = shuffle_cols(2, e.entries)
        _, r_hat = sgs_basic(psps)
        assert np.allclose(r_hat, np.eye(4), atol=1e-14)

    def test_random_reconstruction_with_minor_oracle(self, rng):
        a = rng.standard_normal((8, 4))
        assert brute_force_minors_nonzero(a)
        s_hat, r_hat = sgs_basic(a)
        assert np.linalg.norm(a - s_hat @ r_hat) <= 1e-12 * np.linalg.norm(a)

    def test_psps_invariant_of_output(self, rng):
        a = rng.standard_normal((12, 6))
        s_hat, _ = sgs_basic(a)
        hat = np.zeros((6, 6))
        for j in range(3):
            hat[2 * j: 2 * j + 2, 2 * j: 2 * j + 2] = poisson(1)
        assert np.linalg.norm(s_hat.T @ jmul(s_hat) - hat) <= 1e-10

    def test_r_hat_block_structure(self, rng):
        # upper triangular with diagonal 2x2 blocks: zero off-entries,
        # positive first entry, matched absolute values
        a = rng.standard_normal((12, 6))
        _, r = sgs_basic(a)
        assert np.array_equal(r, np.triu(r))
        for j in range(3):
            block = r[2 * j: 2 * j + 2, 2 * j: 2 * j + 2]
            assert block[0, 1] == 0.0 and block[1, 0] == 0.0
            assert block[0, 0] > 0.0
            assert np.isclose(abs(block[1, 1]), block[0, 0])


class TestSgsModified:
    def test_agrees_with_basic(self, rng):
        a = rng.standard_normal((10, 6))
        (sb, rb), (sm, rm) = sgs_basic(a), sgs_modified(a)
        assert np.allclose(sb, sm, atol=1e-10)
        assert np.allclose(rb, rm, atol=1e-10)

    def test_psps_input_identity(self, rng):
        x = random_point(7, 2, rng)
        psps = shuffle_cols(2, x.entries)
        s_hat, r_hat = sgs_modified(psps)
        assert np.allclose(s_hat, psps, atol=1e-12)
        assert np.allclose(r_hat, np.eye(4), atol=1e-12)

    def test_graded_columns_not_worse_than_basic(self, rng):
        # columns with norms 1, 1e-4, 1e-8: the modified ordering must not
        # lose accuracy relative to the classical one
        a = rng.standard_normal((12, 6))
        a[:, 0:2] *= 1.0
        a[:, 2:4] *= 1e-4
        a[:, 4:6] *= 1e-8
        rb = _recon_residual(sgs_basic, a)
        rm = _recon_residual(sgs_modified, a)
        assert rm <= 1e-12
        assert rm <= 10 * rb + 1e-15


def _recon_residual(factor, a):
    s_hat, r_hat = factor(a)
    return np.linalg.norm(a - s_hat @ r_hat) / np.linalg.norm(a)


class TestSgs:
    def test_symplectic_input_identity(self, rng):
        x = random_point(8, 3, rng)
        f = sgs(x.entries)
        assert np.allclose(f.s.entries, x.entries, atol=1e-11)
        assert np.allclose(f.r, np.eye(6), atol=1e-11)

    def test_column_scaled_canonical(self):
        e = canonical_point(4, 2)
        a = e.entries @ np.diag([2.0, 3.0, 0.5, 1.0 / 3.0])
        f = sgs(a)
        assert np.linalg.norm(a - f.s.entries @ f.r) <= 1e-12 * np.linalg.norm(a)
        assert symplecticity_residual(f.s) <= 1e-12
        assert in_normalized_triangular_set(f.r, atol=1e-13)

    def test_isotropic_leading_pair_breaks(self):
        # columns 1 and k+1 (the first shuffled pair) identical => isotropic
        a = np.zeros((8, 4))
        a[:, 0] = unit(8, 0)
        a[:, 2] = unit(8, 0)
        a[:, 1] = unit(8, 1)
        a[:, 3] = unit(8, 5)
        with pytest.raises(Breakdown):
            sgs(a)

    def test_reconstruction_across_sizes(self, rng):
        for n, k in [(5, 1), (10, 4), (40, 10), (100, 20)]:
            a = rng.standard_normal((2 * n, 2 * k))
            f = sgs(a)
            assert np.linalg.norm(a - f.s.entries @ f.r) <= 1e-11 * np.linalg.norm(a)
            assert in_normalized_triangular_set(f.r, atol=1e-10 * np.linalg.norm(f.r))

    def test_deterministic_bitwise(self, rng):
        a = rng.standard_normal((12, 4))
        f1, f2 = sgs(a), sgs(a)
        assert np.array_equal(f1.s.entries, f2.s.entries)
        assert np.array_equal(f1.r, f2.r)

    def test_wide_matrix_rejected(self, rng):
        with pytest.raises(ValueError):
            sgs(rng.standard_normal((4, 6)))

    @pytest.mark.parametrize("shape", [(4, 6), (3, 2), (4, 0), (4,), (2, 2, 2)])
    def test_shape_rule_shared_with_points(self, shape):
        # sgs, sgs_modified and SymplecticPoint reject a shape with one message
        with pytest.raises(ValueError) as expected:
            SymplecticPoint.from_entries(np.ones(shape))
        for factor in (sgs, sgs_modified):
            with pytest.raises(ValueError, match=re.escape(str(expected.value))):
                factor(np.ones(shape))

    def test_tangent_perturbation_domain(self, rng):
        # spectral radius below one guarantees factorizability
        x = random_point(10, 3, rng)
        for trial in range(50):
            z = random_tangent_spectral(x, rng, 0.99)
            sgs(x.entries + z.entries)  # must not raise


def orthosymplectic_point(n, k, seed):
    """Columns 1..k and n+1..n+k of a random orthogonal symplectic matrix."""
    q = random_symplectic_orthogonal(n, seed)
    cols = np.r_[0:k, n:n + k]
    return SymplecticPoint.from_entries(q[:, cols])


def unit_ball_step(n, k, seed, norm2):
    """X + Z with X orthosymplectic and Z tangent at X, ||Z||_2 = norm2 < 1."""
    x = orthosymplectic_point(n, k, seed)
    z = random_tangent(x, np.random.default_rng(seed)).entries
    return x.entries + z * (norm2 / np.linalg.norm(z, 2))


def modified_factors(a):
    """sgs computed by the Gram-Schmidt path alone."""
    k = a.shape[1] // 2
    s_hat, r_hat = sgs_modified(shuffle_cols(k, a))
    return unshuffle_cols(k, s_hat), unconjugate(k, r_hat)


def forbid_fallback(monkeypatch):
    def no_fallback(b):
        raise AssertionError("sgs fell back to sgs_modified")

    monkeypatch.setattr(sr, "sgs_modified", no_fallback)


@st.composite
def shapes(draw):
    n = draw(st.integers(1, 24))
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    return n, k


class TestGramPath:
    @settings(max_examples=80, deadline=None)
    @given(shape=shapes(), seed=st.integers(0, 2**32 - 1),
           norm2=st.floats(0.0, 0.999))
    def test_unit_ball_factors(self, shape, seed, norm2):
        n, k = shape
        a = unit_ball_step(n, k, seed, norm2)
        f = sgs(a)
        assert np.linalg.norm(a - f.s.entries @ f.r) <= 1e-13 * np.linalg.norm(a)
        assert in_normalized_triangular_set(f.r)  # exact zeros and |r22| = r11
        s_basic, r_basic = sgs_basic(shuffle_cols(k, a))
        assert np.allclose(f.s.entries, unshuffle_cols(k, s_basic), rtol=1e-10, atol=1e-12)
        assert np.allclose(f.r, unconjugate(k, r_basic), rtol=1e-10, atol=1e-12)
        s_modified, _ = modified_factors(a)
        eps = np.finfo(float).eps
        assert (symplecticity_residual(f.s)
                <= 10 * max(symplecticity_residual(s_modified), eps))

    @pytest.mark.parametrize("n, k", [(1, 1), (6, 2), (20, 5), (8, 8), (60, 12)])
    def test_taken_in_retraction_regime(self, n, k, monkeypatch):
        a = unit_ball_step(n, k, seed=n + k, norm2=0.5)
        s_ref, r_ref = modified_factors(a)
        forbid_fallback(monkeypatch)
        f = sgs(a)
        assert np.allclose(f.s.entries, s_ref, rtol=1e-12, atol=1e-14)
        assert np.allclose(f.r, r_ref, rtol=1e-12, atol=1e-14)

    @staticmethod
    def _interchanging(kind, rng):
        a = rng.standard_normal((16, 6))
        if kind == "near-isotropic":
            # omega of the first shuffled pair is 1e-9 of its column norms
            a[:, 3] = a[:, 0] + 1e-9 * rng.standard_normal(16)
        elif kind == "near-dependent":
            a[:, 1] = a[:, 0] + 1e-8 * rng.standard_normal(16)
        return a

    @pytest.mark.parametrize("kind", ["gaussian", "near-isotropic", "near-dependent"])
    def test_interchange_falls_back_exactly(self, kind, rng):
        for _ in range(5):
            a = self._interchanging(kind, rng)
            assert sr._sgs_gram(shuffle_cols(3, a)) is None
            f = sgs(a, check=False)
            s_ref, r_ref = modified_factors(a)
            assert np.array_equal(f.s.entries, s_ref)
            assert np.array_equal(f.r, r_ref)

    def test_second_pass_restores_feasibility(self, monkeypatch):
        # B = S R with S orthosymplectic and R = I - 0.9 (strict block upper
        # ones): every LU multiplier is below 1, so nothing pivots, and
        # cond(B) ~ 8e5 costs a single pass about cond^2 eps of feasibility
        n, k = 40, 12
        s = shuffle_cols(k, orthosymplectic_point(n, k, seed=3).entries)
        u = np.triu(np.ones((2 * k, 2 * k)), 1)
        u[np.arange(0, 2 * k, 2), np.arange(1, 2 * k, 2)] = 0.0
        a = unshuffle_cols(k, s @ (np.eye(2 * k) - 0.9 * u))
        s_modified, _ = modified_factors(a)
        forbid_fallback(monkeypatch)
        f = sgs(a)
        assert symplecticity_residual(f.s) <= 1e-13
        assert symplecticity_residual(f.s) <= 10 * symplecticity_residual(s_modified)
        assert np.linalg.norm(a - f.s.entries @ f.r) <= 1e-13 * np.linalg.norm(a)

    def test_isotropic_pair_without_interchange_breaks(self):
        # J_hat^T G is diagonal, so the LU pivots nowhere, but the first pair
        # has |omega| = 1e-15 ||a1|| ||a2||: the isotropy test must hand the
        # input to sgs_modified, which raises as before
        n = 4
        a = np.zeros((2 * n, 4))
        a[:, 0] = unit(2 * n, 0)
        a[:, 2] = unit(2 * n, 1) + 1e-15 * unit(2 * n, n)
        a[:, 1] = unit(2 * n, 2)
        a[:, 3] = unit(2 * n, n + 2)
        b = shuffle_cols(2, a)
        assert sr._gram_pass(b) is not None
        with pytest.raises(Breakdown):
            sgs(a)

    def test_lazy_r_equals_eager_product(self):
        # R = P^T (R_hat_2 R_hat_1) P, formed on first read of ``r``
        a = unit_ball_step(30, 6, seed=5, norm2=0.9)
        s_1, r_hat_1 = sr._gram_pass(shuffle_cols(6, a))
        s_2, r_hat_2 = sr._gram_pass(s_1.copy())
        f = sgs(a)
        assert np.array_equal(f.s.entries, unshuffle_cols(6, s_2))
        assert np.array_equal(f.r, unconjugate(6, r_hat_2 @ r_hat_1))
        assert f.r is f.r

    def test_deterministic_bitwise(self):
        a = unit_ball_step(30, 6, seed=5, norm2=0.9)
        f1, f2 = sgs(a), sgs(a)
        assert np.array_equal(f1.s.entries, f2.s.entries)
        assert np.array_equal(f1.r, f2.r)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        a = unit_ball_step(6, 2, seed=0, norm2=0.5)
        a[2, 1] = bad
        assert sr._sgs_gram(shuffle_cols(2, a)) is None
        with pytest.raises(FeasibilityError):
            sgs(a)


class TestEvenMinorCheck:
    def test_symplectic_true(self, rng):
        x = random_point(6, 2, rng)
        assert even_minor_check(x.entries)

    def test_identical_columns_false(self):
        a = np.ones((6, 4))
        assert not even_minor_check(a)

    def test_matches_sgs_on_random_batch(self, rng):
        agree = 0
        for trial in range(200):
            a = rng.standard_normal((6, 4))
            ok_minor = even_minor_check(a)
            try:
                sgs(a)
                ok_sgs = True
            except Breakdown:
                ok_sgs = False
            agree += ok_minor == ok_sgs
        assert agree == 200

    def test_matches_brute_force(self, rng):
        for trial in range(100):
            a = rng.standard_normal((6, 4))
            assert even_minor_check(a) == brute_force_minors_nonzero(a)
