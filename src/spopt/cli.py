"""Experiment harness: run the three applications across the six
metric-by-retraction schemes and emit traces plus summary tables.

Usage:
    spopt <target|sympev|mor> --config cfg.json [--schemes LIST] [--seed N]
          [--out DIR] [--paper-scale]

Configs are single JSON documents; every field has a baked-in default, so an
empty object is a valid config.  Scheme names combine a retraction (Cayley,
QGeo, SR) with a metric suffix (C = canonical-like with rho = 1/2,
E = Euclidean): CayleyC, CayleyE, QGeoC, QGeoE, SRC, SRE.

Independent (scheme, case) cells are dispatched to a thread pool bounded by
the SPOPT_THREADS environment variable; each cell is seed-isolated and its
files are written atomically.  ``mor`` simulates the ROMs the pool built
serially on the main thread, so contention does not affect rom_time_s and
a.a.f.; it still affects the time_s of optimizer traces.  A cell that raises
a numerical failure is recorded under "failures" in summary.json, the other
cells' results are kept, and the run exits with code 3.  With a fixed
(config, seed) the numerical columns of every CSV are bit-identical across
runs; wall-clock columns (time_s, a.a.f.) are the only nondeterministic
fields.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .applications import (
    TargetProblem,
    random_symplectic_point,
    spsd_test_matrix,
    sum_gate,
    symplectic_eigenpairs,
)
from .core import NumericalFailure, SymplecticPoint
from .geometry import Metric
from .hamiltonian import (
    NONLIN_TREATMENTS,
    IntegratorOptions,
    build_rom,
    crank_nicolson,
    extract_snapshots,
    relative_errors,
    schrodinger_system,
    sine_gordon_system,
    vlasov_system,
    wave_system,
)
from .optimizer import SolverOptions, SolverResult, minimize
from .retractions import RetractionKind

TRACE_HEADER = "iter,f,gradnorm,feasibility,tau,backtracks,time_s"

SCHEMES = {
    "CayleyC": (RetractionKind.CAYLEY_ECONOMICAL, "canonical"),
    "CayleyE": (RetractionKind.CAYLEY_ECONOMICAL, "euclidean"),
    "QGeoC": (RetractionKind.QUASI_GEODESIC, "canonical"),
    "QGeoE": (RetractionKind.QUASI_GEODESIC, "euclidean"),
    "SRC": (RetractionKind.SR, "canonical"),
    "SRE": (RetractionKind.SR, "euclidean"),
}

#: Each ``spopt mor`` model: its constructor from (n, seed), then its desk
#: and its paper-scale setup.
MOR_MODELS = {
    "wave": (lambda n, seed: wave_system(n),
             dict(n=250, t_final=25.0, h_t=0.01, snapshots=250, k_values=[10, 20]),
             dict(n=500, t_final=50.0, h_t=0.01, snapshots=500, k_values=[10, 20, 40, 80])),
    "sine_gordon": (lambda n, seed: sine_gordon_system(n),
                    dict(n=200, t_final=20.0, h_t=0.05, snapshots=200, k_values=[10]),
                    dict(n=1999, t_final=90.0, h_t=0.05, snapshots=450,
                         k_values=[11, 13, 15, 17])),
    "schrodinger": (lambda n, seed: schrodinger_system(n),
                    dict(n=128, t_final=5.0, h_t=0.01, snapshots=100, k_values=[16]),
                    dict(n=1024, t_final=30.0, h_t=0.01, snapshots=750,
                         k_values=[95, 100, 105, 110])),
    "vlasov": (lambda n, seed: vlasov_system(n, seed=seed),
               dict(n=200, t_final=0.2, h_t=1e-4, snapshots=400, k_values=[6]),
               dict(n=1000, t_final=0.2, h_t=1e-4, snapshots=400, k_values=[6, 8, 10, 12])),
}


class ConfigError(Exception):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    application: str
    schemes: list[str]
    seed: int
    out_dir: Path
    paper_scale: bool
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.schemes:
            raise ConfigError("scheme list must not be empty")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}; choose from {sorted(SCHEMES)}")


def _number(name: str, value, kind=int):
    """A numeric config field as an int or a float; any other value (a list,
    an object, a non-numeric string) is a config error."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}") from exc


def scheme_options(name: str, rho: float = 0.5, **overrides) -> SolverOptions:
    """SolverOptions for a named scheme, with per-experiment overrides."""
    retraction, metric_name = SCHEMES[name]
    metric = Metric.canonical_like(rho) if metric_name == "canonical" else Metric.euclidean()
    try:
        return SolverOptions(metric=metric, retraction=retraction, **overrides)
    except TypeError as exc:  # an unknown key or a value of the wrong type
        raise ConfigError(f"solver options: {exc}") from exc


def _options_by_scheme(config: ExperimentConfig, solver: dict) -> dict:
    """Options of every selected scheme, built before any cell runs so that a
    bad solver override fails as a config error."""
    rho = _number("rho", config.params.get("rho", 0.5), float)
    return {s: scheme_options(s, rho=rho, **solver) for s in config.schemes}


def _pool_size() -> int:
    env = os.environ.get("SPOPT_THREADS", "")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"SPOPT_THREADS={env!r} is not an integer") from exc
    return min(4, os.cpu_count() or 1)


#: Errors that end a computation as a numerical failure (exit code 3).
NUMERICAL_ERRORS = (NumericalFailure, np.linalg.LinAlgError)


def _attempt(cell, item) -> tuple:
    """(cell(item), None), or (None, message) if it raised a numerical failure."""
    try:
        return cell(item), None
    except NUMERICAL_ERRORS as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _map_cells(cell, items, label=str) -> tuple[list, dict]:
    """Run independent cells on the worker pool.

    Returns the results of the cells that finished, in input order, and
    ``{label(item): message}`` for every cell that raised a numerical
    failure; such a cell does not discard the results of the others.
    """
    with ThreadPoolExecutor(max_workers=_pool_size()) as pool:
        outcomes = list(pool.map(lambda item: _attempt(cell, item), items))
    results = [result for result, error in outcomes if error is None]
    failures = {label(item): error for item, (_, error) in zip(items, outcomes)
                if error is not None}
    return results, failures


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_trace_csv(path: Path, result: SolverResult) -> None:
    """One row per executed iteration, full precision, fixed column order."""
    lines = [TRACE_HEADER]
    for r in result.trace.iteration_records:
        lines.append(
            f"{r.iteration},{r.cost:.17g},{r.grad_norm:.17g},"
            f"{r.feasibility:.17g},{r.tau:.17g},{r.backtracks},{r.time_s:.17g}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def _result_summary(result: SolverResult) -> dict:
    first = result.trace.records[0]
    last = result.trace.records[-1]
    return {
        "status": result.status.value,
        "iterations": result.trace.iterations,
        "initial": {"f": first.cost, "gradnorm": first.grad_norm,
                    "feasibility": first.feasibility},
        "final": {"f": last.cost, "gradnorm": last.grad_norm,
                  "feasibility": last.feasibility},
        "total_time_s": last.time_s,
        "time_per_step_s": (last.time_s / max(result.trace.iterations, 1)),
    }


def _dump_summary(out: Path, payload: dict) -> None:
    _atomic_write(out / "summary.json", json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# target application


def _target_case(preset: str, n: int, seed: int):
    if preset == "sum":
        w = sum_gate().entries
        x0 = SymplecticPoint.from_entries(np.eye(4))
    elif preset == "saddle":
        w = sum_gate().entries
        x0 = SymplecticPoint.from_entries(np.diag([1.728, -1.2, 1 / 1.728, -1 / 1.2]))
    else:  # "artificial"; run_target has rejected any other preset
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n, n))
        v = 0.5 * (v + v.T)
        y = rng.standard_normal((n, n))
        y = 0.5 * (y + y.T)
        eye = np.eye(n)
        zero = np.zeros((n, n))
        w = np.block([[eye, zero], [v, eye]])
        x0 = SymplecticPoint.from_entries(np.block([[eye, y], [zero, eye]]))
    return TargetProblem(w), x0


def run_target(config: ExperimentConfig) -> dict:
    """Symplectic target runs: per-scheme trace CSV plus a JSON summary."""
    p = config.params
    preset = p.get("preset", "sum")
    n = _number("n", p.get("n", 200))
    defaults = {"sum": dict(gtol=1e-12, niter=500),
                "saddle": dict(gtol=1e-12, niter=2000),
                "artificial": dict(gtol=1e-10, niter=1000)}
    if preset not in defaults:
        raise ConfigError(f"unknown target preset {preset!r}")
    solver = dict(defaults[preset])
    solver.update(p.get("solver", {}))
    options = _options_by_scheme(config, solver)

    problem, x0 = _target_case(preset, n, config.seed)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)

    def cell(scheme: str):
        result = minimize(problem, x0, options[scheme])
        write_trace_csv(out / f"target_{preset}_{scheme}_trace.csv", result)
        return scheme, _result_summary(result)

    pairs, failures = _map_cells(cell, config.schemes)
    results = dict(pairs)

    summary = {"application": "target", "preset": preset, "seed": config.seed,
               "solver": solver, "schemes": results, "failures": failures}
    _dump_summary(out, summary)
    return summary


# ---------------------------------------------------------------------------
# symplectic eigenvalue application


def run_sympev(config: ExperimentConfig) -> dict:
    """Trace-minimization eigenvalue runs with Williamson post-processing."""
    p = config.params
    preset = p.get("preset", "spsd")
    if preset != "spsd":
        raise ConfigError(f"unknown sympev preset {preset!r}")
    n = _number("n", p.get("n", 1000 if config.paper_scale else 100))
    m = _number("m", p.get("m", 2))
    k = _number("k", p.get("k", 5))
    solver = dict(gtol=1e-12, niter=5000, gamma_max=1.0)
    solver.update(p.get("solver", {}))
    options = _options_by_scheme(config, solver)

    a, diag = spsd_test_matrix(n, m, seed=config.seed)
    truth = np.sort(diag)[:k]
    x0 = random_symplectic_point(n, k, seed=config.seed + 1)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)

    def cell(scheme: str):
        spectrum = symplectic_eigenpairs(a, k, solver_options=options[scheme], x0=x0)
        result = spectrum.solver_result
        write_trace_csv(out / f"sympev_{preset}_{scheme}_trace.csv", result)
        info = _result_summary(result)
        info["eigenvalues"] = spectrum.values.tolist()
        info["l1_error"] = float(np.abs(spectrum.values - truth).sum())
        info["max_pair_residual"] = float(spectrum.residuals.max())
        info["diagonalizer_orthogonality"] = spectrum.diagonalizer_orthogonality
        return scheme, info

    pairs, failures = _map_cells(cell, config.schemes)
    results = dict(pairs)

    timing = {s: results[s]["time_per_step_s"] for s in results}
    summary = {"application": "sympev", "preset": preset, "seed": config.seed,
               "n": n, "m": m, "k": k, "true_values": truth.tolist(),
               "solver": solver, "schemes": results, "time_per_step": timing,
               "failures": failures}
    _dump_summary(out, summary)
    return summary


# ---------------------------------------------------------------------------
# model order reduction application


def _series_csv(path: Path, report) -> None:
    lines = ["t,state_err,energy_err"]
    for t, se, ee in zip(report.times, report.pointwise_state, report.pointwise_energy):
        lines.append(f"{t:.17g},{se:.17g},{ee:.17g}")
    _atomic_write(path, "\n".join(lines) + "\n")


def run_mor(config: ExperimentConfig) -> dict:
    """Model-reduction runs: per-(model, k, scheme) errors and a.a.f. tables."""
    p = config.params
    model = p.get("model", "wave")
    if model not in MOR_MODELS:
        raise ConfigError(f"unknown model {model!r}; choose from {tuple(MOR_MODELS)}")
    construct, desk, paper = MOR_MODELS[model]
    setup = dict(paper if config.paper_scale else desk)
    setup.update({key: p[key] for key in
                  ("n", "t_final", "h_t", "snapshots", "k_values") if key in p})
    n = _number("n", setup["n"])
    h_t = _number("h_t", setup["h_t"], float)
    t_final = _number("t_final", setup["t_final"], float)
    n_snapshots = _number("snapshots", setup["snapshots"])
    if not isinstance(setup["k_values"], list):
        raise ConfigError(f"k_values must be a list, got {setup['k_values']!r}")
    k_values = [_number("k_values entry", k) for k in setup["k_values"]]
    k_max = min(n, n_snapshots)
    for k in k_values:
        if not 1 <= k <= k_max:
            raise ConfigError(f"k_values entry must satisfy 1 <= k <= min(n, snapshots) "
                              f"= {k_max}, got {k}")
    nonlin = p.get("nonlin", "exact" if model in ("wave",) else "psd-deim")
    deim_variants = p.get("deim_variants")
    if deim_variants is not None and not (
            isinstance(deim_variants, list)
            and all(isinstance(v, str) for v in deim_variants)):
        raise ConfigError(f"deim_variants must be a list of strings, got {deim_variants!r}")
    variants = deim_variants or [nonlin]
    for var in variants:
        if var not in NONLIN_TREATMENTS:
            raise ConfigError(f"unknown nonlinearity treatment {var!r}; "
                              f"choose from {NONLIN_TREATMENTS}")
    solver = dict(gamma0=1e-8, gtol=1e-12, niter=1000)
    solver.update(p.get("solver", {}))
    options = _options_by_scheme(config, solver)

    system = construct(n, config.seed)
    iopts = IntegratorOptions(h_t, t_final)
    fom = crank_nicolson(system, system.x0, iopts)
    snaps = extract_snapshots(fom, n_snapshots)

    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)

    cases = []
    for k in k_values:
        for var in variants:
            cases.append((k, "CotLift", None, var))
            for scheme in config.schemes:
                cases.append((k, scheme, scheme, var))

    def build(case):
        k, _, scheme, var = case
        if scheme is None:
            return case, build_rom(system, snaps, k, reduction="cotlift", nonlin=var)
        return case, build_rom(system, snaps, k, reduction="optimized",
                               solver_options=options[scheme], nonlin=var)

    def simulate(built):
        (k, label, _, var), rom = built
        rom_traj = crank_nicolson(rom, rom.x0_reduced, iopts)
        report = relative_errors(fom, rom, rom_traj)
        _series_csv(out / f"mor_{model}_k{k}_{label}_{var}_series.csv", report)
        return {
            "model": model, "k": k, "scheme": label, "nonlin": var,
            "re_x": report.re_x, "re_h": report.re_h,
            "rom_time_s": rom_traj.wall_time,
            "newton_updates": rom_traj.newton_updates,
            "solver": rom_traj.solver,
            "cost_cotlift": rom.diagnostics["cost_cotlift"],
            "cost_final": rom.diagnostics.get("cost_restored",
                                              rom.diagnostics["cost_cotlift"]),
        }

    labels = {case: f"k={case[0]} {case[1]} {case[3]}" for case in cases}
    # the pool builds the ROMs; each is then simulated on this thread alone,
    # so no pool thread competes with the timing behind rom_time_s and aaf
    roms, failures = _map_cells(build, cases, label=labels.get)
    outcomes = [(case, *_attempt(simulate, (case, rom))) for case, rom in roms]
    rows = [row for _, row, error in outcomes if error is None]
    failures.update({labels[case]: error for case, _, error in outcomes
                     if error is not None})

    # one accelerating factor per (k, variant) group: FOM time over the mean
    # ROM simulation time across the reduction methods of that group
    for row in rows:
        group = [r["rom_time_s"] for r in rows
                 if r["k"] == row["k"] and r["nonlin"] == row["nonlin"]]
        mean_t = float(np.mean(group))
        row["aaf"] = fom.wall_time / mean_t if mean_t > 0 else float("inf")
    aaf = None  # no ROM finished
    if rows:
        mean_rom_time = float(np.mean([r["rom_time_s"] for r in rows]))
        aaf = fom.wall_time / mean_rom_time if mean_rom_time > 0 else float("inf")

    lines = ["model,k,scheme,nonlin,re_x,re_h,aaf,cost_cotlift,cost_final"]
    for r in rows:
        lines.append(
            f"{r['model']},{r['k']},{r['scheme']},{r['nonlin']},"
            f"{r['re_x']:.17g},{r['re_h']:.17g},{r['aaf']:.6g},"
            f"{r['cost_cotlift']:.17g},{r['cost_final']:.17g}")
    _atomic_write(out / f"mor_{model}_results.csv", "\n".join(lines) + "\n")

    summary = {
        "application": "mor", "model": model, "seed": config.seed,
        "setup": {key: setup[key] for key in setup},
        "nonlin": nonlin, "deim_variants": deim_variants,
        "fom_time_s": fom.wall_time, "fom_newton_updates": fom.newton_updates,
        "fom_solver": fom.solver,
        "aaf": aaf, "rows": rows,
        "failures": failures,
    }
    _dump_summary(out, summary)
    return summary


# ---------------------------------------------------------------------------
# entry point


RUNNERS = {"target": run_target, "sympev": run_sympev, "mor": run_mor}


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spopt",
        description="Symplectic Stiefel optimization experiment harness")
    sub = parser.add_subparsers(dest="application", required=True)
    for app in RUNNERS:
        ap = sub.add_parser(app)
        ap.add_argument("--config", default=None, help="JSON experiment config")
        ap.add_argument("--schemes", default=None,
                        help="comma-separated subset of " + ",".join(SCHEMES))
        ap.add_argument("--seed", type=int, default=None)
        ap.add_argument("--out", default=None, help="output directory")
        ap.add_argument("--paper-scale", action="store_true",
                        help="full paper-size problem settings (not for CI)")
    return parser


def config_from_args(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    schemes = cfg.get("schemes", list(SCHEMES))
    if args.schemes:
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    try:
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed must be an integer, got {cfg['seed']!r}") from exc
    out_dir = Path(args.out if args.out else cfg.get("out", "spopt-out"))
    paper = bool(args.paper_scale or cfg.get("paper_scale", False))
    params = {key: val for key, val in cfg.items()
              if key not in ("schemes", "seed", "out", "paper_scale")}
    return ExperimentConfig(args.application, list(schemes), seed, out_dir,
                            paper, params)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        summary = RUNNERS[config.application](config)
    except NUMERICAL_ERRORS as exc:
        # checked first: a feasibility blow-up is also a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        # precondition violations inside the library (bad shapes, parameter
        # ranges) trace back to the experiment configuration
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    print(f"{config.application} done in {elapsed:.1f}s -> {config.out_dir}")
    for name, info in summary.get("schemes", {}).items():
        print(f"  {name}: f={info['final']['f']:.6e} "
              f"grad={info['final']['gradnorm']:.3e} "
              f"feas={info['final']['feasibility']:.3e} [{info['status']}]")
    for row in summary.get("rows", []):
        print(f"  k={row['k']} {row['scheme']} {row['nonlin']}: "
              f"re_x={row['re_x']:.6e} re_h={row['re_h']:.3e} aaf={row['aaf']:.3g}")
    for label, error in summary["failures"].items():
        print(f"numerical failure: {label}: {error}", file=sys.stderr)
    return 3 if summary["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
