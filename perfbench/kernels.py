"""Isolated kernel timings at one (n, k), set-up kept outside the timed region.

These are the per-layer kernels a solver change is expected to move: the
Riemannian gradient under each metric, each retraction, the SR factorization,
the trace and PSD cost and gradient, one Crank-Nicolson step of a full and of
a reduced model, and one DEIM evaluation.  The Hamiltonian kernels use the
Vlasov model (its Newton step and DEIM are what a Hamiltonian-layer change
can move) at the same n and k.  Each figure is the median over repeats of
the mean time per call, in microseconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from spopt.applications import (
    PsdProblem,
    TraceProblem,
    random_symplectic_point,
    spsd_test_matrix,
)
from spopt.geometry import Metric, riemannian_gradient
from spopt.hamiltonian import (
    IntegratorOptions,
    build_rom,
    crank_nicolson,
    extract_snapshots,
    vlasov_system,
    wave_system,
)
from spopt.retractions import cayley_economical, quasi_geodesic, sr_retract
from spopt.sr import sgs

REPEATS = 7
MIN_SAMPLE_S = 0.005
CN_STEPS = 10


def median_us(fn, per_call: int = 1) -> float:
    """Median over REPEATS samples of the time per call of ``fn``.

    ``fn`` performs ``per_call`` operations per invocation; it is looped so
    that each sample lasts at least MIN_SAMPLE_S.
    """
    fn()  # warm-up: lazy imports, caches, first-touch allocation
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    loops = max(1, int(MIN_SAMPLE_S / max(once, 1e-9)))
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - t0) / (loops * per_call))
    return 1e6 * statistics.median(samples)


def time_kernels(n: int, k: int, seed: int) -> dict[str, float]:
    x = random_symplectic_point(n, k, seed=seed)
    a, _ = spsd_test_matrix(n, 2, seed=seed)
    trace = TraceProblem(a, k)
    egrad = trace.euclidean_gradient(x.entries)
    euclid, canon = Metric.euclidean(), Metric.canonical_like(0.5)
    # a descent step of norm 0.1, the regime of an accepted line-search step
    z = -riemannian_gradient(euclid, x, egrad).entries
    z *= 0.1 / np.linalg.norm(z)

    wave = wave_system(n)
    wave_fom = crank_nicolson(wave, wave.x0, IntegratorOptions(0.01, 25.0))
    psd = PsdProblem(extract_snapshots(wave_fom, n), k)

    vlasov = vlasov_system(n, seed=seed)
    short = IntegratorOptions(1e-4, 1e-4 * 200)
    vlasov_fom = crank_nicolson(vlasov, vlasov.x0, short)
    rom = build_rom(vlasov, extract_snapshots(vlasov_fom, 100), k,
                    reduction="cotlift", nonlin="psd-deim")
    steps = IntegratorOptions(1e-4, 1e-4 * CN_STEPS)

    return {
        "geometry.rgrad_euclidean_us": median_us(
            lambda: riemannian_gradient(euclid, x, egrad)),
        "geometry.rgrad_canonical_us": median_us(
            lambda: riemannian_gradient(canon, x, egrad)),
        "retractions.cayley_us": median_us(
            lambda: cayley_economical(x, z, check=False)),
        "retractions.qgeo_us": median_us(lambda: quasi_geodesic(x, z, check=False)),
        "retractions.sr_us": median_us(lambda: sr_retract(x, z, check=False)),
        "sr.sgs_us": median_us(lambda: sgs(x.entries + z, check=False)),
        "applications.trace_cost_us": median_us(lambda: trace.cost(x.entries)),
        "applications.trace_egrad_us": median_us(
            lambda: trace.euclidean_gradient(x.entries)),
        "applications.psd_cost_us": median_us(lambda: psd.cost(x.entries)),
        "applications.psd_egrad_us": median_us(
            lambda: psd.euclidean_gradient(x.entries)),
        "hamiltonian.cn_fom_step_us": median_us(
            lambda: crank_nicolson(vlasov, vlasov.x0, steps), CN_STEPS),
        "hamiltonian.cn_rom_step_us": median_us(
            lambda: crank_nicolson(rom, rom.x0_reduced, steps), CN_STEPS),
        "hamiltonian.deim_eval_us": median_us(lambda: rom.deim(rom.x0_reduced)),
    }
