"""The driver-side solvers import no Spark and no Spark-side module: every
module under ``src/repro/core/`` and ``src/repro/baselines/``, and
``src/repro/graph/local.py``, imports neither ``pyspark`` nor
``repro.datasets``, ``repro.tables`` or ``repro.graphgen`` (README Layout:
"driver-only, no Spark"). Imports inside functions count too. Standard
library only (no Spark)."""
import ast
import pathlib

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
_FORBIDDEN = ("pyspark", "repro.datasets", "repro.tables", "repro.graphgen")


def _driver_modules() -> list:
    repro = _SRC / "repro"
    return (sorted((repro / "core").rglob("*.py"))
            + sorted((repro / "baselines").rglob("*.py"))
            + [repro / "graph" / "local.py"])


def _imported_modules(path: pathlib.Path) -> set:
    """Absolute names of every module ``path`` imports, relative imports
    resolved; ``from a import b`` yields both ``a`` and ``a.b``."""
    package = list(path.relative_to(_SRC).with_suffix("").parts)[:-1]
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) + 1 - node.level] if node.level \
                else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def _is_forbidden(name: str) -> bool:
    return any(name == f or name.startswith(f + ".") for f in _FORBIDDEN)


def test_driver_modules_import_no_spark_side_module():
    modules = _driver_modules()
    assert len(modules) > 10  # the scan sees core/, baselines/ and local.py
    assert "repro.graph.local.LocalGraph" in _imported_modules(
        _SRC / "repro" / "core" / "cd.py")  # relative imports resolve
    bad = {}
    for path in modules:
        names = sorted(filter(_is_forbidden, _imported_modules(path)))
        if names:
            bad[str(path.relative_to(_SRC))] = names
    assert bad == {}
