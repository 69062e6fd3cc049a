"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Everything here is desk scale and seeded; the full paper-size
reproductions live behind the ``paperscale`` marker elsewhere.
"""

import json
import time

import numpy as np
import pytest

from spopt.applications import (
    PsdProblem,
    TargetProblem,
    TraceProblem,
    random_symplectic_point,
    spsd_test_matrix,
    sum_gate,
    symplectic_eigenpairs,
)
from spopt.cli import main as cli_main
from spopt.core import SymplecticPoint
from spopt.geometry import Metric, riemannian_gradient
from spopt.hamiltonian import (
    IntegratorOptions,
    build_rom,
    crank_nicolson,
    extract_snapshots,
    relative_errors,
    sine_gordon_system,
    vlasov_system,
    wave_system,
)
from spopt.optimizer import SolverOptions, minimize
from spopt.oracles import (
    cayley_full,
    even_minor_check,
    in_normalized_triangular_set,
    metric_inner,
    orthonormal_complement,
)
from spopt.retractions import RetractionKind, cayley_economical, retract
from spopt.sr import Breakdown, sgs

from conftest import random_point, random_tangent, random_tangent_spectral

SCHEMES = {
    "CayleyC": (RetractionKind.CAYLEY_ECONOMICAL, Metric.canonical_like(0.5)),
    "CayleyE": (RetractionKind.CAYLEY_ECONOMICAL, Metric.euclidean()),
    "QGeoC": (RetractionKind.QUASI_GEODESIC, Metric.canonical_like(0.5)),
    "QGeoE": (RetractionKind.QUASI_GEODESIC, Metric.euclidean()),
    "SRC": (RetractionKind.SR, Metric.canonical_like(0.5)),
    "SRE": (RetractionKind.SR, Metric.euclidean()),
}


def report(criterion, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {marker} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_retraction_axioms():
    kinds = (RetractionKind.CAYLEY_ECONOMICAL, RetractionKind.QUASI_GEODESIC,
             RetractionKind.SR)
    t0 = time.perf_counter()
    worst_zero, worst_lo, worst_hi = 0.0, 1.0, 0.0
    # base points are random manifold points of moderate conditioning (SR
    # steps from the canonical embedding); the 1e-13 axiom bound concerns the
    # retraction maps themselves, not roundoff amplified by badly scaled X
    from spopt.core import canonical_point
    from spopt.retractions import sr_retract
    embed = canonical_point(20, 4)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = sr_retract(embed, random_tangent(embed, rng, norm=0.7).entries)
        z = random_tangent(x, rng, norm=1.0)
        for kind in kinds:
            r0 = retract(kind, x, 0.0 * z.entries, check=False)
            worst_zero = max(worst_zero, float(np.linalg.norm(r0.entries - x.entries)))
            t = 1e-3
            e_half = np.linalg.norm(
                retract(kind, x, (t / 2) * z.entries, check=False).entries
                - x.entries - (t / 2) * z.entries)
            e_full = np.linalg.norm(
                retract(kind, x, t * z.entries, check=False).entries
                - x.entries - t * z.entries)
            ratio = e_half / e_full
            worst_lo = min(worst_lo, ratio)
            worst_hi = max(worst_hi, ratio)
    elapsed = time.perf_counter() - t0
    ok = worst_zero <= 1e-13 and 0.2 <= worst_lo and worst_hi <= 0.3 and elapsed < 10.0
    report(1, ok, f"|R(0)-X| <= {worst_zero:.2e}, remainder ratio in "
                  f"[{worst_lo:.4f}, {worst_hi:.4f}], {elapsed:.1f}s")


def test_criterion_02_cayley_equivalence():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 31))
        k = int(rng.integers(1, n + 1))
        x = random_point(n, k, rng)
        z = random_tangent(x, rng, norm=1.0)
        rf = cayley_full(x, z, check=False)
        re = cayley_economical(x, z, check=False)
        worst = max(worst, np.linalg.norm(rf.entries - re.entries)
                    / np.linalg.norm(x.entries))
    report(2, worst <= 1e-10, f"max relative gap between Cayley forms {worst:.2e}")


def test_criterion_03_sr_domain():
    breakdowns = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        x = random_point(20, 4, rng)
        z = random_tangent_spectral(x, rng, 0.99)
        try:
            sgs(x.entries + z.entries, check=False)
        except Breakdown:
            breakdowns += 1
    report(3, breakdowns == 0,
           f"{breakdowns} breakdowns in 1000 unit-ball boundary factorizations")


def test_criterion_04_sr_oracle():
    mismatches, worst_recon, bad_t0 = 0, 0.0, 0
    succeeded = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 4))
        minor_ok = even_minor_check(a)
        try:
            f = sgs(a, check=False)
            sgs_ok = True
        except Breakdown:
            sgs_ok = False
        mismatches += minor_ok != sgs_ok
        if sgs_ok:
            succeeded += 1
            worst_recon = max(worst_recon,
                              np.linalg.norm(a - f.s.entries @ f.r) / np.linalg.norm(a))
            bad_t0 += not in_normalized_triangular_set(
                f.r, atol=1e-12 * np.linalg.norm(f.r))
    # degenerate cases exercise the false/false branch
    for a in (np.ones((6, 4)), np.column_stack([np.eye(6)[:, :2], np.eye(6)[:, :2]])):
        minor_ok = even_minor_check(a)
        try:
            sgs(a, check=False)
            sgs_ok = True
        except Breakdown:
            sgs_ok = False
        mismatches += minor_ok or sgs_ok
    ok = mismatches == 0 and worst_recon <= 1e-11 and bad_t0 == 0
    report(4, ok, f"oracle agreement on 1000 random + 2 degenerate cases "
                  f"({succeeded} factored), worst reconstruction {worst_recon:.2e}, "
                  f"{bad_t0} normalization violations")


def test_criterion_05_gradient_correctness():
    n, k = 10, 2
    rng = np.random.default_rng(0)
    x = random_point(n, k, rng)
    comp = orthonormal_complement(x)
    a = rng.standard_normal((2 * n, 2 * n))
    problems = {
        "target": TargetProblem(rng.standard_normal((2 * n, 2 * k))),
        "trace": TraceProblem(a + a.T, k),
        "psd": PsdProblem(rng.standard_normal((2 * n, 7)), k),
    }
    worst = 0.0
    h = 1e-6
    for name, prob in problems.items():
        egrad = prob.euclidean_gradient(x.entries)
        for metric in (Metric.euclidean(), Metric.canonical_like(0.5)):
            grad = riemannian_gradient(metric, x, egrad)
            for seed in range(10):
                z = random_tangent(x, np.random.default_rng(seed), norm=1.0)
                fd = (prob.cost(x.entries + h * z.entries)
                      - prob.cost(x.entries - h * z.entries)) / (2 * h)
                ip = metric_inner(metric, x, comp, grad, z)
                worst = max(worst, abs(ip - fd) / max(1.0, abs(fd)))
    report(5, worst <= 1e-6,
           f"duality vs central differences, worst relative error {worst:.2e} "
           "(PSD gradient gate passed)")


def test_criterion_06_sum_gate():
    prob = TargetProblem(sum_gate().entries)
    x0 = SymplecticPoint.from_entries(np.eye(4))
    failures = []
    for name, (retr, metric) in SCHEMES.items():
        opts = SolverOptions(metric=metric, retraction=retr, gtol=1e-12, niter=500)
        res = minimize(prob, x0, opts)
        if metric.kind.value == "euclidean" and res.trace.records[-1].cost > 1e-12:
            failures.append(f"{name}: f={res.trace.records[-1].cost:.2e}")
        if retr is RetractionKind.SR and np.max(res.trace.feasibilities()) > 1e-10:
            failures.append(f"{name}: feasibility {np.max(res.trace.feasibilities()):.2e}")
    saddle = SymplecticPoint.from_entries(np.diag([1.728, -1.2, 1 / 1.728, -1 / 1.2]))
    for name, (retr, metric) in SCHEMES.items():
        opts = SolverOptions(metric=metric, retraction=retr, gtol=1e-12, niter=2000)
        res = minimize(prob, saddle, opts)
        last = res.trace.records[-1]
        if last.grad_norm > 1e-12 or last.cost <= 1.0:
            failures.append(f"saddle {name}: grad={last.grad_norm:.2e} f={last.cost:.3f}")
    report(6, not failures, "SUM gate minimum and saddle behavior across schemes"
           + ("" if not failures else "; " + "; ".join(failures)))


@pytest.fixture(scope="module")
def sympev_runs():
    n, m, k = 100, 2, 5
    a, diag = spsd_test_matrix(n, m, seed=7)
    truth = np.sort(diag)[:k]
    x0 = random_symplectic_point(n, k, seed=11)
    runs = {}
    for name, (retr, metric) in SCHEMES.items():
        opts = SolverOptions(metric=metric, retraction=retr, gtol=1e-12,
                             niter=5000, gamma_max=1.0)
        t0 = time.perf_counter()
        spec = symplectic_eigenpairs(a, k, solver_options=opts, x0=x0)
        runs[name] = (spec, truth, time.perf_counter() - t0)
    return runs


def test_criterion_07_symplectic_eigenvalues(sympev_runs):
    failures, details = [], []
    for name, (spec, truth, elapsed) in sympev_runs.items():
        l1 = float(np.abs(spec.values - truth).sum())
        details.append(f"{name}: l1={l1:.2e} ({elapsed:.1f}s)")
        if l1 > 1e-8 or elapsed > 120.0:
            failures.append(name)
    report(7, not failures, "; ".join(details))


def test_criterion_08_trace_lower_bound(sympev_runs):
    bound = None
    failures = []
    for name, (spec, truth, _) in sympev_runs.items():
        bound = 2.0 * float(truth.sum())  # computed from the constructed spectrum
        costs = spec.solver_result.trace.costs()
        if np.min(costs) < bound - 1e-6:
            failures.append(f"{name}: min f = {np.min(costs):.9f}")
        if abs(costs[-1] - bound) > 1e-6:
            failures.append(f"{name}: |f* - {bound}| = {abs(costs[-1] - bound):.2e}")
    report(8, not failures,
           f"all iterates respect f >= {bound} - 1e-6 and converge to it"
           + ("" if not failures else "; " + "; ".join(failures)))


def test_criterion_09_feasibility_ordering(sympev_runs):
    finals = {name: spec.solver_result.trace.feasibilities()[-1]
              for name, (spec, _, _) in sympev_runs.items()}
    sr = max(finals["SRC"], finals["SRE"])
    others = min(finals[n] for n in ("CayleyC", "CayleyE", "QGeoC", "QGeoE"))
    cayley = max(finals["CayleyC"], finals["CayleyE"])
    qgeo = min(finals["QGeoC"], finals["QGeoE"])
    soft = cayley <= 10 * qgeo
    detail = (f"SR {sr:.2e} <= others {others:.2e} (asserted); "
              f"Cayley {cayley:.2e} vs 10x QGeo {10 * qgeo:.2e} "
              f"({'holds' if soft else 'reported only'})")
    report(9, sr <= others, detail)


@pytest.fixture(scope="module")
def wave_mor_runs():
    n, t_final, h_t, s = 250, 25.0, 0.01, 250
    system = wave_system(n)
    iopts = IntegratorOptions(h_t, t_final)
    t0 = time.perf_counter()
    fom = crank_nicolson(system, system.x0, iopts)
    snaps = extract_snapshots(fom, s)
    results = {}
    for k in (10, 20):
        for label, reduction in (("CotLift", "cotlift"), ("SRE", "optimized")):
            opts = SolverOptions(metric=Metric.euclidean(), retraction=RetractionKind.SR,
                                 gamma0=1e-8, gtol=1e-12, niter=1000)
            rom = build_rom(system, snaps, k, reduction=reduction,
                            solver_options=opts)
            rom_traj = crank_nicolson(rom, rom.x0_reduced, iopts)
            results[(k, label)] = (rom, rom_traj, relative_errors(fom, rom, rom_traj))
    return system, fom, results, time.perf_counter() - t0


def test_criterion_10_wave_mor(wave_mor_runs):
    system, fom, results, elapsed = wave_mor_runs
    failures, details = [], []
    for k in (10, 20):
        cot = results[(k, "CotLift")][2]
        opt = results[(k, "SRE")][2]
        details.append(f"k={k}: RE_x cot={cot.re_x:.3e} opt={opt.re_x:.3e} "
                       f"RE_H cot={cot.re_h:.2e} opt={opt.re_h:.2e}")
        if opt.re_x > cot.re_x * 1.001:
            failures.append(f"k={k}: optimized not better")
        if cot.re_h > 1e-8 or opt.re_h > 1e-8:
            failures.append(f"k={k}: RE_H too large")
    for label in ("CotLift", "SRE"):
        if not results[(20, label)][2].re_x < results[(10, label)][2].re_x:
            failures.append(f"{label}: RE_x not decreasing in k")
    if elapsed > 300.0:
        failures.append(f"runtime {elapsed:.0f}s")
    report(10, not failures, "; ".join(details) + f"; {elapsed:.0f}s"
           + ("" if not failures else "; " + "; ".join(failures)))


def test_criterion_11_energy_constancy(wave_mor_runs):
    system, fom, results, _ = wave_mor_runs
    rom, rom_traj, _ = results[(10, "CotLift")]
    # x0 is in range(U) by construction of the seeded basis
    containment = np.linalg.norm(rom.reconstruct(rom.x0_reduced) - system.x0)
    dh = np.array([system.hamiltonian(fom.states[:, j])
                   - rom.reduced_hamiltonian(rom_traj.states[:, j])
                   for j in range(0, fom.states.shape[1], 5)])
    h0 = abs(system.hamiltonian(system.x0))
    ok = np.std(dh) <= 1e-8 * h0 and containment <= 1e-8 * np.linalg.norm(system.x0)
    report(11, ok, f"x0 containment {containment:.2e}, "
                   f"stdev dH = {np.std(dh):.2e} vs 1e-8 |H0| = {1e-8 * h0:.2e}")


def test_criterion_12_crank_nicolson_conservation(wave_mor_runs):
    system, fom, _, _ = wave_mor_runs
    h0 = system.hamiltonian(system.x0)
    hs = np.array([system.hamiltonian(fom.states[:, j])
                   for j in range(0, fom.states.shape[1], 25)])
    drift = np.abs(hs - h0).max() / abs(h0)

    sg = sine_gordon_system(40, b=10.0, xi0=5.0)
    ref = crank_nicolson(sg, sg.x0, IntegratorOptions(0.2 / 64, 2.0)).states[:, -1]

    def err(ht):
        end = crank_nicolson(sg, sg.x0, IntegratorOptions(ht, 2.0)).states[:, -1]
        return np.linalg.norm(end - ref)

    ratio = err(0.1) / err(0.05)
    ok = drift <= 1e-10 and 3.5 <= ratio <= 4.5
    report(12, ok, f"linear wave energy drift {drift:.2e}, "
                   f"order-2 probe ratio {ratio:.2f}")


def test_criterion_13_vlasov_deim_variants():
    n, k = 200, 6
    system = vlasov_system(n, seed=42)
    iopts = IntegratorOptions(1e-4, 0.2)
    fom = crank_nicolson(system, system.x0, iopts)
    snaps = extract_snapshots(fom, 400)
    reports = {}
    for variant in ("psd-deim", "structure-preserving"):
        rom = build_rom(system, snaps, k, reduction="cotlift", nonlin=variant)
        rom_traj = crank_nicolson(rom, rom.x0_reduced, iopts)
        reports[variant] = relative_errors(fom, rom, rom_traj)
    deim, sp = reports["psd-deim"], reports["structure-preserving"]
    ok = deim.re_h < sp.re_h and deim.re_x <= 0.1 and sp.re_x <= 0.1
    report(13, ok, f"RE_H psd-deim={deim.re_h:.2e} < structure-preserving="
                   f"{sp.re_h:.2e}; RE_x {deim.re_x:.2e} / {sp.re_x:.2e}")


def test_criterion_14_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = tmp_path / f"{tag}.json"
        cfg.write_text(json.dumps({"n": 40, "m": 2, "k": 3}))
        rc = cli_main(["sympev", "--config", str(cfg), "--schemes", "SRE,CayleyC",
                       "--out", str(out), "--seed", "21"])
        assert rc == 0
        outputs.append(out)
    identical = True
    for scheme in ("SRE", "CayleyC"):
        texts = []
        for out in outputs:
            rows = (out / f"sympev_spsd_{scheme}_trace.csv").read_text().splitlines()
            # wall-clock time is the documented nondeterministic column
            texts.append(["\x1f".join(r.split(",")[:-1]) for r in rows])
        identical = identical and texts[0] == texts[1]
    report(14, identical,
           "repeated seeded runs produce bit-identical numerical CSV columns "
           "(wall-time column excluded by design)")
