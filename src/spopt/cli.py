"""Experiment harness: run the three applications across the six
metric-by-retraction schemes and emit traces plus summary tables.

Usage:
    spopt <target|sympev|mor> --config cfg.json [--schemes LIST] [--seed N]
          [--out DIR] [--paper-scale]

Configs are single JSON objects; every field has a baked-in default, so an
empty object is a valid config.  Scheme names combine a retraction (Cayley,
QGeo, SR) with a metric suffix (C = canonical-like with rho = 1/2,
E = Euclidean): CayleyC, CayleyE, QGeoC, QGeoE, SRC, SRE.  Every field,
and ``--schemes``, is read by :func:`_field`; a value of another JSON type,
a non-finite number, an unknown name or a field the command does not read
is a config error naming the field, raised before any output is written.
A flag overrides a checked field.

Independent cells, one per scheme (``mor``: one per (k, scheme, nonlinearity
treatment), which builds, simulates and scores its ROM), run one at a time
on the calling thread in input order, so every time_s, time_per_step,
rom_time_s and a.a.f. is an uncontended measurement.  Each cell is
seed-isolated and its files are written atomically.  A cell that raises a
numerical failure is recorded under "failures" in summary.json, the other
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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .applications import (
    SYMPEV_SOLVER,
    TargetProblem,
    random_symplectic_point,
    spsd_test_matrix,
    sum_gate,
    symplectic_eigenpairs,
)
from .core import NumericalFailure, SymplecticPoint, checked_number
from .geometry import Metric
from .hamiltonian import (
    NONLIN_TREATMENTS,
    ROM_SOLVER,
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


#: Solver settings of each ``spopt target`` preset, before config overrides.
TARGET_SOLVER = {"sum": dict(gtol=1e-12, niter=500),
                 "saddle": dict(gtol=1e-12, niter=2000),
                 "artificial": dict(gtol=1e-10, niter=1000)}

#: The config fields every command reads, and those each command adds.
COMMON_FIELDS = ("schemes", "seed", "out", "paper_scale", "rho", "solver")
COMMAND_FIELDS = {"target": ("preset", "n"), "sympev": ("preset", "n", "m", "k"),
                  "mor": ("model", "n", "t_final", "h_t", "snapshots", "k_values", "nonlin",
                          "deim_variants")}

_JSON_TYPES = {str: "a string", bool: "true or false", dict: "an object", list: "a list"}


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


def _field(params: dict, name: str, default, kind=str, choices=None):
    """Config field ``name`` (``default`` when absent) as ``kind``: a JSON
    integer or a finite number for ``int`` or ``float`` (:func:`checked_number`),
    else exactly that JSON type, with a string or each list item one of
    ``choices`` when given.  Raises :class:`ConfigError` naming the field."""
    if name not in params:
        return default
    value = params[name]
    if kind in (int, float):
        try:
            return checked_number(name, value, kind)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
    items = value if kind is list else [value]
    if isinstance(value, kind) and (choices is None or all(
            isinstance(item, str) and item in choices for item in items)):
        return value
    what = _JSON_TYPES[kind]
    if choices is not None:
        what = f"{what} of strings from" if kind is list else "one of"
        what += " " + ", ".join(choices)
    raise ConfigError(f"{name} must be {what}, got {value!r}")


def scheme_options(name: str, rho: float = 0.5, **overrides) -> SolverOptions:
    """SolverOptions for a named scheme, with per-experiment overrides."""
    retraction, metric_name = SCHEMES[name]
    metric = Metric.canonical_like(rho) if metric_name == "canonical" else Metric.euclidean()
    return SolverOptions(metric=metric, retraction=retraction, **overrides)


def _options_by_scheme(config: ExperimentConfig, solver: dict) -> dict:
    """Options of every selected scheme, built before any cell runs so that a
    bad solver override fails as a config error."""
    rho = _field(config.params, "rho", 0.5, float)
    try:
        return {s: scheme_options(s, rho=rho, **solver) for s in config.schemes}
    except TypeError as exc:  # an unknown key or a value of the wrong type
        raise ConfigError(f"solver options: {exc}") from exc


#: Errors that end a computation as a numerical failure (exit code 3).
NUMERICAL_ERRORS = (NumericalFailure, np.linalg.LinAlgError)


def _map_cells(cell, items, label=str) -> tuple[list, dict]:
    """Run independent cells one at a time on this thread, in input order.

    Returns the results of the cells that finished, in input order, and
    ``{label(item): message}`` for every cell that raised a numerical
    failure; such a cell does not discard the results of the others.
    """
    results, failures = [], {}
    for item in items:
        try:
            results.append(cell(item))
        except NUMERICAL_ERRORS as exc:
            failures[label(item)] = f"{type(exc).__name__}: {exc}"
    return results, failures


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_csv(path: Path, header: str, rows) -> None:
    """One line per row: floats at full precision (``.17g``), any other
    value (a count, a name, a preformatted string) as ``str``."""
    lines = [header, *(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                                for v in row) for row in rows)]
    _atomic_write(path, "\n".join(lines) + "\n")


def _trace_summary(path: Path, result: SolverResult) -> dict:
    """Write the trace CSV of ``result``, one row per executed iteration, and
    return its summary."""
    _write_csv(path, TRACE_HEADER, (
        (r.iteration, r.cost, r.grad_norm, r.feasibility, r.tau, r.backtracks, r.time_s)
        for r in result.trace.iteration_records))
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
    else:  # "artificial", the one other preset in TARGET_SOLVER
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
    preset = _field(p, "preset", "sum", str, TARGET_SOLVER)
    n = _field(p, "n", 200, int)
    solver = {**TARGET_SOLVER[preset], **_field(p, "solver", {}, dict)}
    options = _options_by_scheme(config, solver)

    problem, x0 = _target_case(preset, n, config.seed)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)

    def cell(scheme: str):
        result = minimize(problem, x0, options[scheme])
        return scheme, _trace_summary(out / f"target_{preset}_{scheme}_trace.csv", result)

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
    preset = _field(p, "preset", "spsd", str, ("spsd",))
    n = _field(p, "n", 1000 if config.paper_scale else 100, int)
    m = _field(p, "m", 2, int)
    k = _field(p, "k", 5, int)
    solver = {**SYMPEV_SOLVER, **_field(p, "solver", {}, dict)}
    options = _options_by_scheme(config, solver)

    a, diag = spsd_test_matrix(n, m, seed=config.seed)
    truth = np.sort(diag)[:k]
    x0 = random_symplectic_point(n, k, seed=config.seed + 1)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)

    def cell(scheme: str):
        spectrum = symplectic_eigenpairs(a, k, solver_options=options[scheme], x0=x0)
        info = _trace_summary(out / f"sympev_{preset}_{scheme}_trace.csv",
                              spectrum.solver_result)
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


def run_mor(config: ExperimentConfig) -> dict:
    """Model-reduction runs: per-(model, k, scheme) errors and a.a.f. tables."""
    p = config.params
    model = _field(p, "model", "wave", str, MOR_MODELS)
    construct, desk, paper = MOR_MODELS[model]
    setup = dict(paper if config.paper_scale else desk)
    setup.update({key: p[key] for key in setup if key in p})
    n = _field(setup, "n", None, int)
    h_t = _field(setup, "h_t", None, float)
    t_final = _field(setup, "t_final", None, float)
    n_snapshots = _field(setup, "snapshots", None, int)
    k_values = [_field({"k_values entry": k}, "k_values entry", None, int)
                for k in _field(setup, "k_values", None, list)]
    iopts = IntegratorOptions(h_t, t_final)
    if not 1 <= n_snapshots <= iopts.steps + 1:
        raise ConfigError(f"snapshots must satisfy 1 <= snapshots <= steps + 1 = "
                          f"{iopts.steps + 1}, got {n_snapshots}")
    k_max = min(n, n_snapshots)
    for k in k_values:
        if not 1 <= k <= k_max:
            raise ConfigError(f"k_values entry must satisfy 1 <= k <= min(n, snapshots) "
                              f"= {k_max}, got {k}")
    # states and snapshots are allocated lazily: a run beyond memory would be killed
    need = 16 * n * (iopts.steps + 1 + n_snapshots)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"n = {n} and steps = {iopts.steps} need {need / 1e9:.3g} GB for "
                          f"states and snapshots, over {have / 1e9:.3g} GB of physical memory")
    nonlin = _field(p, "nonlin", "exact" if model == "wave" else "psd-deim", str,
                    NONLIN_TREATMENTS)
    deim_variants = _field(p, "deim_variants", None, list, NONLIN_TREATMENTS)
    variants = deim_variants or [nonlin]
    solver = {**ROM_SOLVER, **_field(p, "solver", {}, dict)}
    options = _options_by_scheme(config, solver)

    system = construct(n, config.seed)
    if system.is_linear and any(var != "exact" for var in variants):
        raise ConfigError(f"{system.name} is linear; no term to interpolate")
    fom = crank_nicolson(system, system.x0, iopts)
    snaps = extract_snapshots(fom, n_snapshots)

    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)

    cases = [(k, scheme, var) for k in k_values for var in variants
             for scheme in ["CotLift", *config.schemes]]

    def cell(case):
        k, scheme, var = case
        if scheme == "CotLift":
            rom = build_rom(system, snaps, k, reduction="cotlift", nonlin=var)
        else:
            rom = build_rom(system, snaps, k, reduction="optimized",
                            solver_options=options[scheme], nonlin=var)
        # why an optimization stopped, in summary.json only
        stopped = {key: rom.diagnostics[key] for key in ("solver_status", "solver_iterations")
                   if key in rom.diagnostics}
        rom_traj = crank_nicolson(rom, rom.x0_reduced, iopts)
        report = relative_errors(fom, rom, rom_traj)
        _write_csv(out / f"mor_{model}_k{k}_{scheme}_{var}_series.csv",
                   "t,state_err,energy_err",
                   zip(report.times, report.pointwise_state, report.pointwise_energy))
        cost = rom.diagnostics["cost_cotlift"]
        return {"model": model, "k": k, "scheme": scheme, "nonlin": var,
                "re_x": report.re_x, "re_h": report.re_h, "rom_time_s": rom_traj.wall_time,
                "newton_updates": rom_traj.newton_updates, "solver": rom_traj.solver,
                "cost_cotlift": cost, "cost_final": rom.diagnostics.get("cost_restored", cost),
                **stopped}

    rows, failures = _map_cells(cell, cases, label=lambda case: "k={} {} {}".format(*case))

    def speedup(times):  # FOM time over the mean ROM simulation time
        mean_t = float(np.mean(times))
        return fom.wall_time / mean_t if mean_t > 0 else float("inf")

    # one accelerating factor per (k, variant) group, across its reduction methods
    for row in rows:
        row["aaf"] = speedup([r["rom_time_s"] for r in rows
                              if r["k"] == row["k"] and r["nonlin"] == row["nonlin"]])
    aaf = speedup([r["rom_time_s"] for r in rows]) if rows else None  # None: no ROM finished

    columns = ("model", "k", "scheme", "nonlin", "re_x", "re_h", "aaf",
               "cost_cotlift", "cost_final")
    _write_csv(out / f"mor_{model}_results.csv", ",".join(columns),
               ([f"{r[c]:.6g}" if c == "aaf" else r[c] for c in columns] for r in rows))

    summary = {"application": "mor", "model": model, "seed": config.seed, "setup": setup,
               "nonlin": nonlin, "deim_variants": deim_variants,
               "fom_time_s": fom.wall_time, "fom_newton_updates": fom.newton_updates,
               "fom_solver": fom.solver, "aaf": aaf, "rows": rows, "failures": failures}
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
    known = COMMON_FIELDS + COMMAND_FIELDS[args.application]
    for name in cfg:
        if name not in known:
            raise ConfigError(f"unknown field {name!r}; spopt {args.application} reads "
                              + ", ".join(sorted(known)))
    schemes = _field(cfg, "schemes", list(SCHEMES), list, SCHEMES)
    if args.schemes:
        flag = [s.strip() for s in args.schemes.split(",") if s.strip()]
        schemes = _field({"schemes": flag}, "schemes", None, list, SCHEMES)
    # a config field is checked even where a flag overrides it
    seed = _field(cfg, "seed", 0, int)
    out = _field(cfg, "out", "spopt-out")
    paper = _field(cfg, "paper_scale", False, bool)
    params = {key: val for key, val in cfg.items()
              if key not in ("schemes", "seed", "out", "paper_scale")}
    return ExperimentConfig(args.application, schemes, seed if args.seed is None else args.seed,
                            Path(args.out or out), args.paper_scale or paper, params)


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
    except (ConfigError, ValueError, MemoryError) as exc:
        # precondition violations inside the library (bad shapes, parameter
        # ranges) and sizes too large to allocate trace back to the config
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
