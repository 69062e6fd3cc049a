"""The test-scale oracles stay out of the package, the SR layer has one
factor type, every name a module exports through ``__all__`` exists, and every name the benchmark in
``perfbench/`` imports or probes exists, no module reaches SuperLU or
names the deleted site-block path, ``crank_nicolson`` reaches a
factorization only through its run's ``factor``, and that factorization is
picked by no reduced-model type.  No module names ``scipy.linalg.expm``
or imports an ``expm``, and ``retractions`` alone imports scipy's Pade
kernels from ``scipy.linalg._matfuncs_expm``.

No module of ``src/spopt`` imports an ``oracles`` module in any form
(``from .oracles import ...``, ``from . import oracles``,
``import spopt.oracles``, ``from oracles import ...``), and none defines,
at top level or as a class member, a name that ``tests/oracles.py``
defines.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spopt"


def imported_names(path: Path) -> set[str]:
    """Absolute dotted names a module of the flat ``spopt`` package imports,
    each ``from`` import giving both its module and module.name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "spopt" + (f".{base}" if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def defined_names(path: Path) -> set[str]:
    """Names a module defines at top level (functions, classes, assigned
    names), together with the members its classes define."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        scopes = [node] + (node.body if isinstance(node, ast.ClassDef) else [])
        for item in scopes:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(item.name)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_no_package_module_imports_oracles():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 2
    assert "spopt.core.jmul" in imported_names(SRC / "sr.py")
    offenders = [p.name for p in modules
                 if any("oracles" in name.split(".") for name in imported_names(p))]
    assert offenders == []


def test_no_package_module_defines_an_oracle_name():
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text()).body
    oracle_names = {node.name for node in oracles
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"sgs_basic", "poisson", "dense_jacobian", "RankDeficient"} <= oracle_names
    assert {"SymplecticPoint", "jx", "jmul"} <= defined_names(SRC / "core.py")
    clashes = {p.name: sorted(defined_names(p) & oracle_names)
               for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in clashes.items() if found} == {}


def test_sr_results_have_one_factor_type():
    # the SR layer works on plain arrays: SrFactors is its one result type,
    # and the perfect shuffle is an index array of sr._layout, not a type
    classes = {p.stem: {node.name for node in ast.parse(p.read_text()).body
                        if isinstance(node, ast.ClassDef)}
               for p in sorted(SRC.glob("*.py"))}
    factor_types = {f"{module}.{name}" for module, names in classes.items()
                    for name in names if name.endswith("Factors")}
    assert factor_types == {"sr.SrFactors"}
    assert not any("PerfectShuffle" in names for names in classes.values())


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"spopt.{p.stem}") for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"] + [importlib.import_module("spopt")]
    exporting = [mod for mod in modules if hasattr(mod, "__all__")]
    assert len(exporting) >= 2
    stale = [f"{mod.__name__}.{name}" for mod in exporting for name in mod.__all__
             if not hasattr(mod, name)]
    assert stale == []


def load_bench_module(name: str, monkeypatch):
    """Import ``perfbench/<name>.py`` by path, registered in ``sys.modules``
    for the test only (its dataclasses look their module up there)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_names_resolve(monkeypatch):
    # run.py is left out: importing it sets thread variables in the environment
    tracer = load_bench_module("tracer", monkeypatch)
    for name in ("kernels", "workloads"):
        load_bench_module(name, monkeypatch)
    assert len(tracer.PROBES) > 10
    missing = []
    for module, attr in tracer.PROBES:
        # looked up through __dict__, as Tracer.__enter__ does
        owner = importlib.import_module(f"spopt.{module}")
        for part in attr.split("."):
            if part not in vars(owner):
                missing.append(f"{module}.{attr}")
                break
            owner = vars(owner)[part]
    assert missing == []


def names_used_by(function: str) -> set[str]:
    """Names and attribute names in the body of a top-level function of
    ``hamiltonian``."""
    tree = ast.parse((SRC / "hamiltonian.py").read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}


def test_no_package_module_reaches_superlu():
    # every Crank-Nicolson solve is a LAPACK factorization: no module
    # imports scipy.sparse.linalg or names splu
    for path in sorted(SRC.glob("*.py")):
        imported = imported_names(path)
        assert not any(name == "scipy.sparse.linalg" or name.startswith("scipy.sparse.linalg.")
                       for name in imported), path.name
        tree = ast.parse(path.read_text())
        used = ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
                | {name.rpartition(".")[2] for name in imported})
        assert "splu" not in used, path.name
    assert "scipy.sparse.csgraph.reverse_cuthill_mckee" in imported_names(SRC / "hamiltonian.py")


def test_matrix_exponentials_call_the_pade_kernels_from_retractions_only():
    # the quasi-geodesic exponentials skip scipy.linalg.expm's per-call
    # layer; no other module takes a dependency on scipy's private kernels
    kernels = "scipy.linalg._matfuncs_expm"
    importers = []
    for path in sorted(SRC.glob("*.py")):
        imported = imported_names(path)
        tree = ast.parse(path.read_text())
        used = ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
                | {name.rpartition(".")[2] for name in imported})
        assert "expm" not in used, path.name
        if any(name == kernels or name.startswith(kernels + ".") for name in imported):
            importers.append(path.name)
    assert importers == ["retractions.py"]
    pade = {f"{kernels}.pick_pade_structure", f"{kernels}.pade_UV_calc"}
    assert pade <= imported_names(SRC / "retractions.py")


def test_no_package_module_names_the_site_block_path():
    # separable systems solve through one n x n Schur complement, so the
    # per-site 2 x 2 blocks and their Cramer solver stay deleted
    gone = {"SiteBlocks", "_SiteSolver", "_site_row", "_site_mass", "_SITE_SIGNS"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
                | defined_names(path))
        assert used & gone == set(), path.name
        assert "site-blocks" not in path.read_text(), path.name


def test_crank_nicolson_factors_only_through_the_protocol():
    # every solve goes through the run's factor(G, where) -> solve: the
    # integrator names no factorization routine and no Newton matrix builder
    names = names_used_by("crank_nicolson")
    assert names & {"splu", "lapack", "dgbtrf", "dgbtrs", "dgtsv", "_ShiftedJ", "_BandJ",
                    "_SchurJ", "_shifted_dense"} == set()
    assert "_pick_factor" in names


def test_reduced_jacobians_are_plain_arrays():
    # the factorization is picked by the Jacobian's representation, and a
    # ROM's is a dense array: no branch names a class of ``applications``
    tree = ast.parse((SRC / "applications.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert {"DeimOperator", "PsdProblem"} <= classes
    names = names_used_by("_pick_factor")
    assert "Separable" in names
    assert names & classes == set()
