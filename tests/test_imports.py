"""The test-scale oracles stay out of the modules the solver imports.

Only the package ``__init__`` may import ``spopt.oracles`` (to re-export
its names); every other module of ``src/spopt`` is scanned for an import of
it in any form (``from .oracles import ...``, ``from . import oracles``,
``import spopt.oracles``).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spopt"


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


def test_scanner_sees_the_reexport():
    assert "spopt.oracles" in imported_names(SRC / "__init__.py")


def test_only_the_package_init_imports_oracles():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 2
    offenders = [p.name for p in modules
                 if p.name != "__init__.py" and "spopt.oracles" in imported_names(p)]
    assert offenders == []
