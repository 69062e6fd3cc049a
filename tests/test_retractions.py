import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spopt.applications import random_symplectic_orthogonal
from spopt.core import (
    FeasibilityError,
    NumericalFailure,
    SymplecticPoint,
    canonical_point,
    jmul,
    mulj,
    symplecticity_residual,
)
from spopt.retractions import (
    RetractionKind,
    SingularCayley,
    _inverse_checked,
    cayley_economical,
    quasi_geodesic,
    retract,
    sr_retract,
)
from spopt.sr import Breakdown

from conftest import random_point, random_tangent, random_tangent_spectral
from oracles import cayley_full, poisson

# the solver's retractions through ``retract``, and the full Cayley oracle
RETRACTIONS = [pytest.param(partial(retract, kind), id=str(kind)) for kind in RetractionKind]
RETRACTIONS.append(pytest.param(cayley_full, id="cayley_full"))
RETRACTION_FUNCTIONS = [cayley_full, cayley_economical, quasi_geodesic, sr_retract]


def remainder_ratio(retraction, x, z, t=1e-3):
    def e(tt):
        r = retraction(x, tt * z.entries)
        return np.linalg.norm(r.entries - x.entries - tt * z.entries)
    return e(t / 2) / e(t)


class TestAxioms:
    @pytest.mark.parametrize("retraction", RETRACTIONS)
    def test_zero_maps_to_base(self, retraction, rng):
        x = random_point(10, 3, rng)
        r = retraction(x, np.zeros_like(x.entries))
        assert np.linalg.norm(r.entries - x.entries) <= 1e-13

    @pytest.mark.parametrize("retraction", RETRACTIONS)
    def test_first_order_remainder(self, retraction, rng):
        x = random_point(10, 3, rng)
        z = random_tangent(x, rng, norm=1.0)
        assert 0.2 <= remainder_ratio(retraction, x, z) <= 0.3

    @pytest.mark.parametrize("retraction", RETRACTIONS)
    def test_result_feasible(self, retraction, rng):
        x = random_point(10, 3, rng)
        z = random_tangent(x, rng, norm=0.5)
        r = retraction(x, z.entries)
        assert symplecticity_residual(r) <= 1e-10


@st.composite
def base_and_tangent(draw):
    """A point of Sp(2k, 2n), n <= 16 and k <= n (k = n in about half the
    draws), with a unit tangent there.  The point is an SR step of norm 0.7
    from the canonical embedding, rotated by a random orthosymplectic matrix:
    moderately conditioned, with no zero rows."""
    n = draw(st.integers(1, 16))
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    embed = canonical_point(n, k)
    step = sr_retract(embed, random_tangent(embed, rng, norm=0.7).entries)
    q = random_symplectic_orthogonal(n, seed)
    x = SymplecticPoint.from_entries(q @ step.entries)
    return x, random_tangent(x, rng, norm=1.0).entries


class TestAxiomProperties:
    @pytest.mark.parametrize("retraction", RETRACTION_FUNCTIONS)
    @settings(max_examples=40, deadline=None)
    @given(case=base_and_tangent())
    def test_zero_maps_to_base(self, retraction, case):
        x, z = case
        r = retraction(x, np.zeros_like(z))
        assert np.linalg.norm(r.entries - x.entries) <= 1e-13

    @pytest.mark.parametrize("retraction", RETRACTION_FUNCTIONS)
    @settings(max_examples=40, deadline=None)
    @given(case=base_and_tangent())
    def test_derivative_at_zero_is_identity(self, retraction, case):
        x, z = case
        h = 1e-5
        d = (retraction(x, h * z).entries - retraction(x, -h * z).entries) / (2 * h)
        assert np.linalg.norm(d - z) <= 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("retraction", RETRACTION_FUNCTIONS)
    @settings(max_examples=40, deadline=None)
    @given(case=base_and_tangent(), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           where=st.tuples(st.floats(0, 1, exclude_max=True),
                           st.floats(0, 1, exclude_max=True)))
    def test_non_finite_tangent_raises(self, retraction, case, bad, where):
        # the quasi-geodesic map, and SR on a NaN, reach the feasibility
        # check (FeasibilityError); both Cayley forms reject the resolvent's
        # NaN condition estimate (SingularCayley), and SR reports an infinite
        # omega as a Breakdown; those two messages name the non-finite
        # input.  No point is ever returned.
        x, z = case
        z = z.copy()
        z[int(where[0] * z.shape[0]), int(where[1] * z.shape[1])] = bad
        with pytest.raises(NumericalFailure) as info:
            retraction(x, z, check=True)
        if isinstance(info.value, (Breakdown, SingularCayley)):
            assert str(info.value).endswith(" (non-finite input)")


class TestNonFiniteMessages:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("retraction, bad, error", [
        (sr_retract, np.inf, Breakdown),
        (sr_retract, -np.inf, Breakdown),
        (cayley_economical, np.inf, SingularCayley),
        (cayley_economical, np.nan, SingularCayley),
        (cayley_full, np.nan, SingularCayley),
        (sr_retract, np.nan, FeasibilityError),
        (quasi_geodesic, np.inf, FeasibilityError),
        (quasi_geodesic, np.nan, FeasibilityError),
    ])
    def test_message_names_non_finite_input(self, retraction, bad, error):
        rng = np.random.default_rng(3)
        x = random_point(4, 2, rng)
        z = random_tangent(x, rng).entries.copy()
        z[1, 2] = bad
        with pytest.raises(error, match=r" \(non-finite input\)$"):
            retraction(x, z)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_overflowing_quasi_geodesic_step_raises_at_once(self):
        # a finite step whose exponent overflows: the Pade kernels pick no
        # squarings (s = 0), so the non-finite result is checked at once
        rng = np.random.default_rng(3)
        x = random_point(4, 2, rng)
        z = 1e300 * random_tangent(x, rng).entries
        assert np.isfinite(z).all()
        t0 = time.perf_counter()
        with pytest.raises(FeasibilityError):
            quasi_geodesic(x, z)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("retraction", [quasi_geodesic, sr_retract])
    def test_finite_overflowing_step_does_not_blame_its_input(self, retraction):
        # the retraction's own result is non-finite, its X and Z are not
        rng = np.random.default_rng(3)
        x = random_point(4, 2, rng)
        z = 1e300 * random_tangent(x, rng).entries
        with pytest.raises(FeasibilityError) as info:
            retraction(x, z)
        assert "non-finite input" not in str(info.value)
        # from_entries called directly still tests the entries it is given
        out = retraction(x, z, check=False).entries
        assert not np.isfinite(out).all()
        with pytest.raises(FeasibilityError, match=r" \(non-finite input\)$"):
            SymplecticPoint.from_entries(out)

    def test_finite_failures_carry_no_note(self):
        x = canonical_point(3, 1)
        with pytest.raises(Breakdown) as info:
            sr_retract(x, -x.entries, check=False)  # X + Z = 0
        assert "non-finite" not in str(info.value)
        with pytest.raises(SingularCayley) as info:
            _inverse_checked(np.zeros((2, 2)), (np.ones((2, 2)),))
        assert "non-finite" not in str(info.value)


class TestCayley:
    @settings(max_examples=80, deadline=None)
    @given(case=base_and_tangent(), norm=st.floats(0.0, 0.5))
    def test_inverse_route_matches_full_form(self, case, norm):
        x, z = case
        rf = cayley_full(x, norm * z)
        re = cayley_economical(x, norm * z)
        assert np.linalg.norm(rf.entries - re.entries) <= 1e-10 * np.linalg.norm(x.entries)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises_singular_cayley(self, bad):
        a = np.eye(4)
        a[2, 1] = bad
        with pytest.raises(SingularCayley):
            _inverse_checked(a, (a,))

    def test_equivalence_of_forms(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 16))
            k = int(rng.integers(1, n + 1))
            x = random_point(n, k, rng)
            z = random_tangent(x, rng, norm=1.0)
            rf = cayley_full(x, z)
            re = cayley_economical(x, z)
            assert np.linalg.norm(rf.entries - re.entries) <= 1e-10 * np.linalg.norm(x.entries)

    def test_singular_scaling_detected(self):
        # scale a direction until 2 becomes an eigenvalue of the Hamiltonian
        # matrix of the transform; exactly at that scale both forms must
        # report a singular resolvent
        from spopt.core import jtmul

        for seed in range(40):
            rng = np.random.default_rng(seed)
            x = random_point(4, 2, rng)
            z = random_tangent(x, rng, norm=1.0)
            e, ze = x.entries, z.entries
            gz = ze - 0.5 * e @ jmul(e.T @ jtmul(ze))
            s = gz @ mulj(e).T + mulj(e) @ gz.T
            lam = np.linalg.eigvals(s @ poisson(4))
            real = lam[(np.abs(lam.imag) < 1e-10 * (1 + np.abs(lam.real)))
                       & (np.abs(lam.real) > 1e-8)].real
            if real.size == 0:
                continue
            scale = 2.0 / real[np.argmax(np.abs(real))]
            caught = 0
            for form in (cayley_full, cayley_economical):
                try:
                    with np.errstate(all="ignore"):
                        form(x, scale * ze, check=False)
                except SingularCayley:
                    caught += 1
            assert caught == 2
            return
        pytest.fail("no direction with a real Hamiltonian eigenvalue found")

    @pytest.mark.slow
    def test_economical_cost_scales_linearly_in_n(self, rng):
        k = 4
        times = {}
        z_cache = {}
        for n in (200, 400, 800):
            x = random_point(n, k, rng)
            z = random_tangent(x, rng, norm=0.5)
            cayley_economical(x, z.entries, check=False)  # warm up
            reps = 5
            t0 = time.perf_counter()
            for _ in range(reps):
                cayley_economical(x, z.entries, check=False)
            times[n] = (time.perf_counter() - t0) / reps
        # linear growth: quadrupling n should stay far from quadratic (16x)
        assert times[800] / times[200] < 10.0


class TestQuasiGeodesic:
    def test_zero_direction(self, rng):
        x = random_point(6, 2, rng)
        r = quasi_geodesic(x, np.zeros_like(x.entries))
        assert np.allclose(r.entries, x.entries)

    def test_exponent_block_structure(self, rng):
        # the lower-left block of the 4k x 4k exponent is the identity
        x = random_point(6, 2, rng)
        z = random_tangent(x, rng)
        w = x.entries.T @ jmul(z.entries)
        block = np.block([
            [-jmul(w), jmul(z.entries.T @ jmul(z.entries))],
            [np.eye(4), -jmul(w)],
        ])
        assert np.array_equal(block[4:, :4], np.eye(4))

    def test_first_order(self, rng):
        x = random_point(6, 2, rng)
        z = random_tangent(x, rng, norm=1.0)
        assert 0.2 <= remainder_ratio(quasi_geodesic, x, z) <= 0.3


class TestSrRetraction:
    def test_zero_direction_identity(self, rng):
        x = random_point(8, 3, rng)
        r = sr_retract(x, np.zeros_like(x.entries))
        assert np.linalg.norm(r.entries - x.entries) <= 1e-13

    def test_factorization_accuracy_at_large_step(self, rng):
        x = random_point(8, 3, rng)
        z = random_tangent_spectral(x, rng, 0.99)
        r = sr_retract(x, z.entries)
        assert symplecticity_residual(r) <= 1e-12

    def test_deterministic(self, rng):
        x = random_point(8, 3, rng)
        z = random_tangent(x, rng)
        r1 = sr_retract(x, z.entries)
        r2 = sr_retract(x, z.entries)
        assert np.array_equal(r1.entries, r2.entries)

    def test_breakdown_propagates(self):
        # a rank-one X + Z has isotropic pairs
        from spopt.core import canonical_point
        x = canonical_point(3, 1)
        z = -x.entries  # X + Z = 0
        with pytest.raises(Breakdown):
            sr_retract(x, z, check=False)


class TestFeasibilityDrift:
    @pytest.mark.slow
    def test_sr_keeps_feasibility_best_on_random_walk(self):
        # 1000 steps of size 1e-2 along fresh random tangents; the SR
        # retraction must end at least as feasible as Cayley and quasi-geodesic
        n, k = 100, 10
        finals = {}
        for kind in (RetractionKind.SR, RetractionKind.CAYLEY_ECONOMICAL,
                     RetractionKind.QUASI_GEODESIC):
            rng = np.random.default_rng(7)
            x = random_point(n, k, rng)
            for _ in range(1000):
                y = rng.standard_normal(x.entries.shape)
                w = x.entries.T @ jmul(y)
                z = mulj(x.entries) @ (0.5 * (w + w.T))  # cheap tangent direction
                z *= 1e-2 / np.linalg.norm(z)
                x = retract(kind, x, z, check=False)
            finals[kind] = symplecticity_residual(x.entries)
        assert finals[RetractionKind.SR] <= finals[RetractionKind.CAYLEY_ECONOMICAL]
        assert finals[RetractionKind.SR] <= finals[RetractionKind.QUASI_GEODESIC]
