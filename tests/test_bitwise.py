"""The per-iteration kernels keep the bits of their plain-numpy forms.

The solver path reads J X and X^T J X from the point's cache, applies J by
filling a new array, and multiplies with ``ndarray.dot``.  The references
below spell out the arithmetic that these replace: ``np.concatenate`` for J,
``@`` for every product, J X and X^T J X formed afresh at each use.  The
quasi-geodesic retraction calls scipy's compiled Pade kernels directly, and
its reference calls ``scipy.linalg.expm``, also on the inputs that function
treats specially: a zero step (a zero, hence diagonal, JW and a lower
triangular 4k x 4k exponent) and a long step that is scaled and squared.
The SR reference spells out the one certified Gram pass, with the shuffle
as ``np.ix_`` picks, and the two-pass and Gram-Schmidt routes as its
else-branch.  The Lyapunov reference spells out the route selection with D
= P - mu I formed by ``np.eye`` and delta by ``np.linalg.norm``, and its
near-orthosymplectic inputs take the fixed-point iteration.  Every
comparison is bit for bit.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import blas, lapack
from scipy.linalg._matfuncs_expm import pick_pade_structure

from spopt.applications import random_symplectic_orthogonal
from spopt.core import (
    SymplecticPoint,
    canonical_point,
    jmul,
    jtmul,
    mulj,
    skew_part,
    symplecticity_residual,
)
from spopt.geometry import (
    ITERATION_MAX_DELTA,
    Metric,
    project_tangent,
    riemannian_gradient,
)
from spopt.retractions import (
    RETRACTION_ERRORS,
    cayley_economical,
    quasi_geodesic,
    sr_retract,
)
from spopt.sr import DEFAULT_BREAKDOWN_TOL, ONE_PASS_MAX_COND, sgs_modified

from conftest import random_tangent
from oracles import conjugate, poisson, shuffle_cols, unconjugate, unshuffle_cols


def jmul_ref(a):
    m = a.shape[0] // 2
    return np.concatenate([a[m:], -a[:m]], axis=0)


def jtmul_ref(a):
    m = a.shape[0] // 2
    return np.concatenate([-a[m:], a[:m]], axis=0)


def mulj_ref(a):
    m = a.shape[1] // 2
    return np.concatenate([-a[:, m:], a[:, :m]], axis=1)


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert (np.ascontiguousarray(actual).view(np.uint64).tobytes()
            == np.ascontiguousarray(expected).view(np.uint64).tobytes())


# -- references: the arithmetic of the solver path with @ and fresh J X --

def lyapunov_ref(p, c):
    k2 = p.shape[0]
    mu = np.trace(p) / k2
    d = p - mu * np.eye(k2)
    delta = np.linalg.norm(d) / mu
    if mu > 0 and delta <= ITERATION_MAX_DELTA:
        eps = np.finfo(float).eps
        omega = c / (2 * mu)
        for _ in range(math.ceil(math.log(eps) / math.log(max(delta, eps)))):
            t = d @ omega
            omega = (c - (t - t.T)) / (2 * mu)
        return omega
    lam, u, _ = lapack.dsyevd(p, lower=1)
    return skew_part(u @ ((u.T @ c @ u) / (lam[:, None] + lam[None, :])) @ u.T)


def gradient_ref(metric, x, egrad):
    e, g = x.entries, np.asarray(egrad, dtype=float)
    if metric.kind.value == "euclidean":
        m = jmul_ref(e).T @ g
        return g - jmul_ref(e @ lyapunov_ref(e.T @ e, m - m.T))
    jx = jmul_ref(e)
    chol, _ = lapack.dpotrf(e.T @ e)
    coef, _ = lapack.dpotrs(chol, jx.T @ g)
    hg = e @ ((0.5 * metric.rho) * (e.T @ g))
    hg += g
    hg -= jx @ coef
    return sxy_times_jx_ref(e, hg)


def sxy_times_jx_ref(e, gy):
    jx = jmul_ref(e)
    out = gy @ jtmul_ref(e.T @ jx)
    out += e @ jmul_ref(gy.T @ jx)
    return out


def projection_ref(metric, x, y):
    if metric.kind.value == "euclidean":
        return gradient_ref(metric, x, y)
    e = x.entries
    gy = y - e @ jmul_ref(0.5 * (jmul_ref(e).T @ y))
    return sxy_times_jx_ref(e, gy)


def cayley_ref(x, z):
    e = x.entries
    k2 = e.shape[1]
    jtw = jtmul_ref(e.T @ jmul_ref(z))
    h = z - e @ jtw
    inner = 0.25 * jtmul_ref(h.T @ jmul_ref(h)) - 0.5 * jtw
    inner.flat[::k2 + 1] += 1.0
    h += 2.0 * e
    lu, piv, _ = lapack.dgetrf(inner)
    inv, _ = lapack.dgetri(lu, piv, overwrite_lu=True)
    return h @ inv - e


def quasi_geodesic_ref(x, z):
    e = x.entries
    k2 = e.shape[1]
    jz = jmul_ref(z)
    jw = jmul_ref(e.T @ jz)
    block = np.zeros((2 * k2, 2 * k2))
    block[:k2, :k2] = -jw
    block[:k2, k2:] = jmul_ref(z.T @ jz)
    block[k2:, :k2].flat[::k2 + 1] = 1.0
    block[k2:, k2:] = block[:k2, :k2]
    left = np.column_stack([e, z]) @ scipy.linalg.expm(block)[:, :k2]
    return left @ scipy.linalg.expm(jw)


def qgeo_exponent(x, z):
    """The 4k x 4k exponent of ``quasi_geodesic_ref``."""
    k2 = x.k * 2
    jw = jmul_ref(x.entries.T @ jmul_ref(z))
    return np.block([[-jw, jmul_ref(z.T @ jmul_ref(z))], [np.eye(k2), -jw]])


def r_hat_ref(h):
    lu, piv, info = lapack.dgetrf(h, overwrite_a=True)
    k2 = h.shape[0]
    if info != 0 or (piv != np.arange(k2)).any():
        return None
    flat = lu.ravel(order="F")
    step = 2 * (k2 + 1)
    omega = flat[::step]
    r11 = np.sqrt(np.abs(omega))
    if not (r11.min() > 0.0 and r11.max() < np.inf):
        return None
    r22 = np.sign(omega) * r11
    d = np.empty(k2)
    d[0::2], d[1::2] = r22, r11
    lu /= d[:, None]
    lu[np.tri(k2, k=-1, dtype=bool)] = 0.0
    flat[::step], flat[k2 + 1::step], flat[k2::step] = r11, r22, 0.0
    return lu


def gram_pass_ref(b):
    n, k2 = b.shape[0] // 2, b.shape[1]
    m = b[:n].T @ b[n:]
    h = np.empty((k2, k2), order="F")
    h[0::2] = m.T[1::2] - m[1::2]
    h[1::2] = m[0::2] - m.T[0::2]
    r_hat = r_hat_ref(h)
    return None if r_hat is None else blas.dtrsm(1.0, r_hat, b, side=1, overwrite_b=True)


def one_pass_ref(a):
    n, k = a.shape[0] // 2, a.shape[1] // 2
    m = a[:n].T @ a[n:]
    gb = conjugate(k, m.T - m)  # P (m^T - m) P^T = -P G P^T
    h = np.empty((2 * k, 2 * k), order="F")
    h[0::2] = gb[1::2]
    h[1::2] = -gb[0::2]
    r_hat = r_hat_ref(h)
    if r_hat is None:
        return None
    inv, _ = lapack.dtrtri(r_hat)
    if not np.linalg.norm(r_hat, 1) * np.linalg.norm(inv, 1) <= ONE_PASS_MAX_COND:
        return None
    s = a @ unconjugate(k, inv)
    norms = np.sqrt(np.einsum("ij,ij->j", s, s))
    g = s[:n].T @ s[n:]
    if ((norms[:k] * norms[k:] * DEFAULT_BREAKDOWN_TOL >= 1.0).any()
            or not (np.abs(g - g.T - poisson(k))
                    <= np.outer(norms, 2 * n * np.finfo(float).eps * norms)).all()):
        return None
    return s


def sr_ref(x, z):
    a = x.entries + z
    k = a.shape[1] // 2
    s = one_pass_ref(a)
    if s is not None:
        return s
    s = gram_pass_ref(np.asfortranarray(shuffle_cols(k, a)))
    if s is not None:
        norms = np.sqrt(np.einsum("ij,ij->j", s, s))
        if (norms[0::2] * norms[1::2] * DEFAULT_BREAKDOWN_TOL >= 1.0).any():
            s = None
        else:
            s = gram_pass_ref(s)
    if s is None:
        s, _ = sgs_modified(shuffle_cols(k, a))
    return np.ascontiguousarray(unshuffle_cols(k, s))


# -- inputs --

@st.composite
def swap_operands(draw):
    """An even-length vector, or a C- or F-ordered matrix with an even number
    of rows and columns, or a strided or transposed view of one; entries
    include zeros of both signs and non-finite values."""
    rows = 2 * draw(st.integers(1, 6))
    cols = 2 * draw(st.integers(1, 6))
    elements = st.floats(allow_nan=True, allow_infinity=True, width=64)
    layout = draw(st.sampled_from(["vector", "C", "F", "rows", "cols", "T"]))
    if layout == "vector":
        return draw(hnp.arrays(np.float64, rows, elements=elements))
    base = draw(hnp.arrays(np.float64, (2 * rows, 2 * cols), elements=elements))
    if layout == "C":
        return base[:rows, :cols].copy()
    if layout == "F":
        return np.asfortranarray(base[:rows, :cols])
    if layout == "rows":
        return base[::2, :cols]
    if layout == "cols":
        return np.asfortranarray(base)[:rows, ::2]
    return base[:cols, :rows].T


@st.composite
def point_and_tangent(draw):
    """A point of Sp(2k, 2n), n <= 12 and k <= n (k = n in about half the
    draws), with a Euclidean gradient and a tangent of norm 0.1 there."""
    n = draw(st.integers(1, 12))
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    return point_and_tangent_at(n, k, draw(st.integers(0, 2**32 - 1)))


@st.composite
def near_orthosymplectic(draw):
    """Orthosymplectic columns moved by an SR step of norm at most 1e-2, with a
    Euclidean gradient and a tangent of norm 0.1: X^T X is within 1/8 of I,
    so the Euclidean projection iterates."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = random_symplectic_orthogonal(n, int(rng.integers(2**31)))
    start = SymplecticPoint.from_entries(q[:, np.r_[0:k, n:n + k]])
    norm = draw(st.sampled_from([0.0, 1e-6, 1e-3, 1e-2]))
    x = sr_retract(start, random_tangent(start, rng, norm=norm).entries) if norm else start
    p = x.entries.T @ x.entries
    mu = np.trace(p) / (2 * k)
    assert np.linalg.norm(p - mu * np.eye(2 * k)) / mu <= ITERATION_MAX_DELTA
    return x, rng.standard_normal(x.entries.shape), random_tangent(x, rng, norm=0.1).entries


def point_and_tangent_at(n, k, seed):
    """The draw of ``point_and_tangent`` at sizes n, k and ``seed``."""
    rng = np.random.default_rng(seed)
    embed = canonical_point(n, k)
    step = sr_retract(embed, random_tangent(embed, rng, norm=0.7).entries)
    q = random_symplectic_orthogonal(n, int(rng.integers(2**31)))
    x = SymplecticPoint.from_entries(q @ step.entries)
    return x, rng.standard_normal(x.entries.shape), random_tangent(x, rng, norm=0.1).entries


class TestJSwaps:
    @pytest.mark.parametrize("swap, ref", [(jmul, jmul_ref), (jtmul, jtmul_ref),
                                           (mulj, mulj_ref)])
    @settings(max_examples=60, deadline=None)
    @given(a=swap_operands())
    def test_equal_concatenate_form(self, swap, ref, a):
        assume(swap is not mulj or a.ndim == 2)
        out, expected = swap(a), ref(a)
        assert_same_bits(out, expected)
        # the layout np.concatenate returns: C order unless `a` is column-major
        assert out.flags.c_contiguous == expected.flags.c_contiguous
        assert out.flags.f_contiguous == expected.flags.f_contiguous
        if a.flags.c_contiguous:
            assert out.flags.c_contiguous

    @pytest.mark.parametrize("swap, ref", [(jmul, jmul_ref), (jtmul, jtmul_ref),
                                           (mulj, mulj_ref)])
    @pytest.mark.parametrize("rows, cols", [(2, 2), (4, 2), (10, 2), (2, 4), (6, 6)])
    def test_sixty_four_byte_strides(self, swap, ref, rows, cols):
        # a half whose inner stride is 64 bytes: some numpy builds negate such
        # an input into a strided output as if it were contiguous
        base = np.arange(1.0, 1.0 + 64 * rows * cols).reshape(8 * rows, 8 * cols)
        views = [base[::8, :cols], base[:rows, ::8], np.asfortranarray(base)[:rows, ::8],
                 np.asfortranarray(base)[::8, :cols], base[:cols, ::8].T]
        if swap is not mulj:
            views += [base.ravel()[:8 * rows:8], base[:rows, 0], base[::8, 0]]
        for a in views:
            if a.ndim == 1 and a.shape[0] % 2:
                continue
            assert_same_bits(swap(a), ref(a))


class TestSymplecticityResidual:
    @settings(max_examples=40, deadline=None)
    @given(case=point_and_tangent())
    def test_point_equals_entries_and_keeps_cache(self, case):
        x, _, z = case
        y = SymplecticPoint(x.entries + z)  # off the manifold: a nonzero residual
        for p in (x, y):
            e = p.entries
            expected = float(np.linalg.norm(e.T @ jmul_ref(e) - poisson(p.k)))
            assert symplecticity_residual(e) == expected
            cached = p.xtjx.tobytes()
            for _ in range(3):
                assert symplecticity_residual(p) == expected
            assert p.xtjx.tobytes() == cached


class TestAgainstReferences:
    @pytest.mark.parametrize("metric", [Metric.euclidean(), Metric.canonical_like(0.5),
                                        Metric.canonical_like(1.7)],
                             ids=["euclidean", "canonical-0.5", "canonical-1.7"])
    @settings(max_examples=60, deadline=None)
    @given(case=st.one_of(point_and_tangent(), near_orthosymplectic()))
    def test_gradient_and_projection(self, metric, case):
        x, egrad, _ = case
        assert_same_bits(riemannian_gradient(metric, x, egrad).entries,
                         gradient_ref(metric, x, egrad))
        assert_same_bits(project_tangent(metric, x, egrad).entries,
                         projection_ref(metric, x, egrad))

    @pytest.mark.parametrize("retraction, ref", [(cayley_economical, cayley_ref),
                                                 (quasi_geodesic, quasi_geodesic_ref),
                                                 (sr_retract, sr_ref)],
                             ids=["cayley", "quasi-geodesic", "sr"])
    @settings(max_examples=40, deadline=None)
    @given(case=point_and_tangent(), scale=st.sampled_from([1.0, 5.0, 30.0]))
    def test_retractions(self, retraction, ref, case, scale):
        x, _, z = case
        try:
            out = retraction(x, scale * z, check=False)
        except RETRACTION_ERRORS:
            return  # a long step may meet a singular resolvent or a breakdown
        assert_same_bits(out.entries, ref(x, scale * z))

    @pytest.mark.parametrize("n, k", [(1, 1), (6, 1), (6, 6), (9, 4)])
    def test_quasi_geodesic_zero_step_is_identity(self, n, k):
        # Z = 0 makes JW zero (scipy.linalg.expm's diagonal shortcut) and the
        # 4k x 4k exponent strictly lower triangular (its triangular branch)
        x, _, _ = point_and_tangent_at(n, k, seed=n + k)
        zero = np.zeros_like(x.entries)
        out = quasi_geodesic(x, zero).entries
        assert_same_bits(out, x.entries)
        assert_same_bits(out, quasi_geodesic_ref(x, zero))

    @pytest.mark.parametrize("n, k", [(1, 1), (6, 1), (6, 6), (9, 4), (12, 7)])
    def test_quasi_geodesic_long_step_scales_and_squares(self, n, k):
        # a 4k x 4k exponent of 1-norm well above theta_13 ~ 5.37: the Pade
        # kernels scale it by 2^-s, s > 0, and the result is squared s times
        x, _, z = point_and_tangent_at(n, k, seed=100 + n + k)
        for norm in (10.0, 30.0):
            step = z * (norm / np.linalg.norm(z))
            work = np.empty((5, 4 * k, 4 * k))
            work[0] = qgeo_exponent(x, step)
            assert np.abs(work[0]).sum(axis=0).max() > 5.37
            assert pick_pade_structure(work)[1] > 0
            assert_same_bits(quasi_geodesic(x, step, check=False).entries,
                             quasi_geodesic_ref(x, step))
