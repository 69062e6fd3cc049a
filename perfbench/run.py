"""spopt benchmark: one workload per invocation, one thread, public API only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  BLAS/OpenMP threads and ``SPOPT_THREADS``
are pinned to 1 before numpy is imported.

``--trace 0`` measures the end-to-end metrics: set-up is timed in fresh
processes, then whole passes of the workload repeat until ``--seconds`` have
passed.  ``--trace 1`` runs one
untraced pass, one pass with every layer's public entry points wrapped (see
``tracer.py``) and the isolated kernels (see ``kernels.py``), and reports
the per-layer metrics.  Every pass checks its outputs; the last line of
standard output is the JSON result.  Metric definitions are in README.md.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "SPOPT_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

# Percentile of a solver run's iteration durations taken as its cost.
ITERATION_PERCENTILE = 1

END_TO_END = {
    "setup_s": "s",
    "iters": "count",
    "ms_per_iter": "ms",
    "feas_digits": "digits",
    "err_digits": "digits",
    "energy_digits": "digits",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}

KERNELS = (
    "geometry.rgrad_euclidean_us", "geometry.rgrad_canonical_us",
    "retractions.cayley_us", "retractions.qgeo_us", "retractions.sr_us",
    "sr.sgs_us", "applications.trace_cost_us", "applications.trace_egrad_us",
    "applications.psd_cost_us", "applications.psd_egrad_us",
    "hamiltonian.cn_fom_step_us", "hamiltonian.cn_rom_step_us",
    "hamiltonian.deim_eval_us",
)

PER_LAYER = {
    "optimizer.iters": "count",
    "optimizer.backtracks": "count",
    "optimizer.trial_steps": "count",
    "optimizer.accept_ratio": "ratio",
    "optimizer.self_pct": "%",
    "retractions.calls": "count",
    "retractions.failures": "count",
    "retractions.self_pct": "%",
    "sr.sgs_calls": "count",
    "sr.sgs_pct": "%",
    "geometry.rgrad_calls": "count",
    "geometry.rgrad_pct": "%",
    "applications.cost_calls": "count",
    "applications.cost_pct": "%",
    "applications.egrad_calls": "count",
    "applications.egrad_pct": "%",
    "applications.williamson_pct": "%",
    "applications.deim_calls": "count",
    "applications.deim_pct": "%",
    "applications.self_pct": "%",
    "core.residual_calls": "count",
    "core.residual_pct": "%",
    "hamiltonian.cn_steps": "count",
    "hamiltonian.fom_pct": "%",
    "hamiltonian.rom_pct": "%",
    "hamiltonian.jacobian_calls": "count",
    "hamiltonian.jacobian_pct": "%",
    "hamiltonian.build_rom_pct": "%",
    "hamiltonian.errors_pct": "%",
    "hamiltonian.self_pct": "%",
    "bench.untraced_pass_s": "s",
    "bench.traced_pass_s": "s",
    "bench.trace_overhead_pct": "%",
    "bench.outside_layers_pct": "%",
    **{name: "us" for name in KERNELS},
}


def import_spopt() -> None:
    """Import spopt from this checkout's ``src/``; exit if it is not there."""
    if not (SRC / "spopt" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'spopt'} not found; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import spopt
    if Path(spopt.__file__).resolve().parent != (SRC / "spopt").resolve():
        sys.exit(f"perfbench: imported spopt from {spopt.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "spopt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _git_revision() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh process that imports spopt and builds inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ms_per_iter(passes) -> float:
    """Uncontended cost of one solver iteration, in ms.

    Each solver run's iteration durations are pooled over the passes and
    their ITERATION_PERCENTILE-th percentile taken.  On a shared host other
    tenants slow whole stretches of a run: the same Vlasov Newton step was
    measured at 0.65 ms and at 1.2 ms in phases lasting seconds, so means and
    medians moved by 25% between runs while the fastest iterations kept the
    uncontended speed.  Runs are combined by their geometric mean, so the mix
    of runs (e.g. how many schemes stop early) does not weigh in.
    """
    import numpy as np

    pooled = {}
    for res in passes:
        for key, durations in res.iteration_s.items():
            pooled.setdefault(key, []).append(durations)
    logs = [math.log(np.percentile(np.concatenate(d), ITERATION_PERCENTILE))
            for d in pooled.values()]
    return 1e3 * math.exp(statistics.fmean(logs)) if logs else math.nan


def report_cells(passes) -> None:
    for i, res in enumerate(passes):
        for cell in res.cells:
            if not cell.ok:
                print(f"pass {i} cell {cell.name} FAILED: {cell.error}",
                      file=sys.stderr)


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, list]:
    setup_s = measure_setup(wl.name, seed)
    inputs = wl.inputs(seed)
    start = time.perf_counter()
    passes = [wl.run_pass(inputs)]
    # later passes only repeat the work; memory is judged on set-up + one pass
    rss_mb = peak_rss_mb()
    while time.perf_counter() - start < seconds:
        passes.append(wl.run_pass(inputs))
    last = passes[-1]
    metrics = {
        "setup_s": setup_s,
        "iters": last.iters,
        "ms_per_iter": ms_per_iter(passes),
        "feas_digits": last.feas_digits,
        "err_digits": last.err_digits,
        "energy_digits": last.energy_digits,
        "peak_rss_mb": rss_mb,
        "pass_rate": 1.0 - sum(p.failed for p in passes) / sum(len(p.cells) for p in passes),
    }
    print(f"passes: {len(passes)} in {time.perf_counter() - start:.1f} s")
    return metrics, passes


def per_layer(wl, seed: int) -> tuple[dict, list]:
    from kernels import time_kernels
    from tracer import Probe, Tracer

    inputs = wl.inputs(seed)

    def timed_pass():
        start = time.perf_counter()
        res = wl.run_pass(inputs)
        return res, time.perf_counter() - start

    untraced, untraced_s = timed_pass()
    tracer = Tracer()
    with tracer:
        traced, traced_s = timed_pass()
    passes = [untraced, traced]

    probes, split = tracer.probes, tracer.split

    def pct(seconds: float) -> float:
        return 100.0 * seconds / traced_s

    def calls(key: str) -> int:
        return probes[key].calls

    retract = probes["retractions.retract"]
    metrics = {
        "optimizer.iters": tracer.iterations,
        "optimizer.backtracks": tracer.backtracks,
        "optimizer.trial_steps": retract.calls,
        "optimizer.accept_ratio": (tracer.iterations / retract.calls
                                   if retract.calls else 0.0),
        "optimizer.self_pct": pct(tracer.layer_self_s("optimizer")),
        "retractions.calls": retract.calls,
        "retractions.failures": retract.failures,
        "retractions.self_pct": pct(tracer.layer_self_s("retractions")),
        "sr.sgs_calls": calls("sr.sgs"),
        "sr.sgs_pct": pct(tracer.layer_self_s("sr")),
        "geometry.rgrad_calls": calls("geometry.rgrad"),
        "geometry.rgrad_pct": pct(tracer.layer_self_s("geometry")),
        "applications.cost_calls": calls("applications.cost"),
        "applications.cost_pct": pct(probes["applications.cost"].self_s),
        "applications.egrad_calls": calls("applications.egrad"),
        "applications.egrad_pct": pct(probes["applications.egrad"].self_s),
        "applications.williamson_pct": pct(probes["applications.williamson"].self_s),
        "applications.deim_calls": calls("applications.deim"),
        "applications.deim_pct": pct(probes["applications.deim"].self_s),
        "applications.self_pct": pct(tracer.layer_self_s("applications")),
        "core.residual_calls": calls("core.residual"),
        "core.residual_pct": pct(tracer.layer_self_s("core")),
        "hamiltonian.cn_steps": tracer.cn_steps,
        "hamiltonian.fom_pct": pct(split.get("hamiltonian.fom", Probe()).total_s),
        "hamiltonian.rom_pct": pct(split.get("hamiltonian.rom", Probe()).total_s),
        "hamiltonian.jacobian_calls": calls("hamiltonian.jacobian"),
        "hamiltonian.jacobian_pct": pct(probes["hamiltonian.jacobian"].self_s),
        "hamiltonian.build_rom_pct": pct(probes["hamiltonian.build_rom"].total_s),
        "hamiltonian.errors_pct": pct(probes["hamiltonian.errors"].total_s),
        "hamiltonian.self_pct": pct(tracer.layer_self_s("hamiltonian")),
        "bench.untraced_pass_s": untraced_s,
        "bench.traced_pass_s": traced_s,
        "bench.trace_overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "bench.outside_layers_pct": pct(traced_s - tracer.traced_s()),
    }
    metrics.update(time_kernels(wl.n, wl.k, seed))
    return metrics, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # the timed set-up child
    args = parser.parse_args(argv)

    import_spopt()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.inputs(args.seed)
        return 0

    print(json.dumps({"env": environment(args.seed), "workload": wl.name}))
    if args.trace:
        metrics, passes = per_layer(wl, args.seed)
        units = PER_LAYER
    else:
        metrics, passes = end_to_end(wl, args.seed, args.seconds)
        units = END_TO_END
    report_cells(passes)
    problems = []
    if len({p.signature() for p in passes}) > 1:
        problems.append("passes on the same inputs gave different results")
    attempted = sum(len(p.cells) for p in passes)
    failed = sum(p.failed for p in passes)
    out = {}
    for name, unit in units.items():
        value = metrics[name]
        if not math.isfinite(value):
            problems.append(f"metric {name} is not finite")
            value = None
        out[name] = {"value": value, "unit": unit}
        print(f"  {name:32s} {value!r:>24} {unit}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
