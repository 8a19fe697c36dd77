"""Every public top-level function and class under ``src/repro`` is used by
the program: its name appears as a NAME token in ``src/``, ``jobs/`` or
``perfbench/`` besides its own definition. Comments, docstrings and
tests are not uses. Standard library only (no Spark)."""
import ast
import pathlib
import tokenize

_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _program_files():
    for top in ("src", "jobs", "perfbench"):
        for path in sorted((_ROOT / top).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path


def _public_definitions() -> dict:
    """{name: [defining file, ...]} of src/repro's public top-level defs."""
    defs: dict = {}
    for path in sorted((_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                defs.setdefault(node.name, []).append(
                    str(path.relative_to(_ROOT)))
    return defs


def _used_names() -> set:
    """NAME tokens of the program files, except each ``def``/``class``
    statement's own name."""
    used = set()
    for path in _program_files():
        with tokenize.open(path) as f:
            prev = None
            for tok in tokenize.generate_tokens(f.readline):
                if tok.type == tokenize.NAME and prev not in ("def", "class"):
                    used.add(tok.string)
                prev = tok.string if tok.type == tokenize.NAME else None
    return used


def test_every_public_definition_is_used():
    defs, used = _public_definitions(), _used_names()
    assert "LocalGraph" in defs and "LocalGraph" in used  # the scan sees both
    unused = {name: files for name, files in defs.items() if name not in used}
    assert unused == {}
