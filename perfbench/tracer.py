"""Call counts and self time per spopt layer, recorded from outside the package.

The tracer rebinds selected public functions and methods of the ``spopt``
modules to timing wrappers for the duration of a ``with`` block and restores
the originals afterwards; the package source is never modified.  A function
imported by name into another module (``from .retractions import retract``
inside spopt, or ``from spopt.hamiltonian import build_rom`` in the
benchmark) is rebound there too, so calls made through any name are seen.

Each wrapper keeps an exclusive ("self") time: its wall time minus the wall
time of wrapped calls made inside it.  Work a wrapped function does in numpy
or in unwrapped helpers therefore counts towards that function.  Inclusive
time is kept as well, for the stage-level figures (full-order and reduced
simulations, ROM assembly, error evaluation).
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# (module, attribute) -> probe key; "Class.method" rebinds a method on the class.
PROBES = {
    ("optimizer", "minimize"): "optimizer.minimize",
    ("optimizer", "nonmonotone_search"): "optimizer.search",
    ("optimizer", "bb_trial_step"): "optimizer.bb_step",
    ("retractions", "retract"): "retractions.retract",
    ("sr", "sgs"): "sr.sgs",
    ("geometry", "riemannian_gradient"): "geometry.rgrad",
    ("applications", "TraceProblem.cost"): "applications.cost",
    ("applications", "TraceProblem.euclidean_gradient"): "applications.egrad",
    ("applications", "PsdProblem.cost"): "applications.cost",
    ("applications", "PsdProblem.euclidean_gradient"): "applications.egrad",
    ("applications", "symplectic_eigenpairs"): "applications.eigenpairs",
    ("applications", "williamson_spsd"): "applications.williamson",
    ("applications", "deim_select"): "applications.deim_setup",
    ("applications", "deim_reduced_rhs"): "applications.deim_setup",
    ("applications", "DeimOperator.__call__"): "applications.deim",
    ("core", "symplecticity_residual"): "core.residual",
    ("hamiltonian", "crank_nicolson"): "hamiltonian.cn",
    ("hamiltonian", "HamiltonianSystem.grad_jacobian"): "hamiltonian.jacobian",
    ("hamiltonian", "ReducedSystem.grad_jacobian"): "hamiltonian.jacobian",
    ("hamiltonian", "build_rom"): "hamiltonian.build_rom",
    ("hamiltonian", "relative_errors"): "hamiltonian.errors",
}

@dataclass
class Probe:
    calls: int = 0
    failures: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


@dataclass
class Tracer:
    """Records per-probe counts and times while active (``with tracer:``)."""

    probes: dict[str, Probe] = field(default_factory=dict)
    # inclusive Crank-Nicolson time on full ("hamiltonian.fom") and reduced
    # ("hamiltonian.rom") models
    split: dict[str, Probe] = field(default_factory=dict)
    cn_steps: int = 0
    iterations: int = 0
    backtracks: int = 0
    _stack: list[float] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def probe(self, key: str) -> Probe:
        return self.probes.setdefault(key, Probe())

    def layer_self_s(self, layer: str) -> float:
        return sum(p.self_s for k, p in self.probes.items()
                   if k.split(".", 1)[0] == layer)

    def traced_s(self) -> float:
        """Wall time spent inside wrapped calls (the sum of all self times)."""
        return sum(p.self_s for p in self.probes.values())

    def _wrap(self, key: str, fn):
        probe = self.probe(key)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                probe.failures += 1
                raise
            finally:
                elapsed = clock() - start
                child = stack.pop()
                probe.calls += 1
                probe.self_s += elapsed - child
                probe.total_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if key == "hamiltonian.cn":
                tracer._record_cn(args, result, elapsed)
            elif key == "optimizer.minimize":
                tracer._record_solve(result)
            return result

        return wrapper

    def _record_cn(self, args, traj, elapsed: float) -> None:
        model = getattr(args[0], "model", args[0])  # see workloads.CountingModel
        reduced = sys.modules["spopt.hamiltonian"].ReducedSystem
        kind = "rom" if isinstance(model, reduced) else "fom"
        p = self.split.setdefault(f"hamiltonian.{kind}", Probe())
        p.calls += 1
        p.total_s += elapsed
        self.cn_steps += traj.states.shape[1] - 1

    def _record_solve(self, result) -> None:
        self.iterations += result.trace.iterations
        self.backtracks += sum(r.backtracks for r in result.trace.iteration_records)

    def __enter__(self) -> "Tracer":
        modules = {name: sys.modules[f"spopt.{name}"] for name in
                   {mod for mod, _ in PROBES}}
        originals = {}
        for (mod, attr), key in PROBES.items():
            owner = modules[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner, attr = getattr(owner, cls_name), meth
            fn = owner.__dict__[attr]
            wrapped = self._wrap(key, fn)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
            if isinstance(owner, type(sys)):
                originals[id(fn)] = (fn, wrapped)
        # rebind names that other modules imported from the owners
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
