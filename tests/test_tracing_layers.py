"""The benchmark tracer ``perfbench/tracing.py`` still fits ``repro``.

The tracer patches each function in its ``LAYERS`` by module and name and
reads ``max_outer``, ``max_iter`` and ``Z`` by parameter name, so a moved
layer function or a renamed parameter breaks ``perfbench/run.py --trace 1``.
Entering the context is enough to catch both.
"""
import importlib
import importlib.util
import pathlib
import sys

_PATH = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
         / "tracing.py")
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
# Registered before it runs: its dataclasses look their module up.
sys.modules[_spec.name] = tracing
_spec.loader.exec_module(tracing)


def _layer_functions() -> list:
    out = []
    for mod, attr, _, _ in tracing.LAYERS:
        owner = importlib.import_module(mod)
        for name in attr.split("."):
            owner = getattr(owner, name)
        out.append(owner)
    return out


def test_instrumentation_patches_and_restores_every_layer():
    before = _layer_functions()
    with tracing.Instrumentation(tracing.Tracer()):
        during = _layer_functions()
    after = _layer_functions()
    assert all(d.__wrapped__ is b for b, d in zip(before, during))
    assert all(a is b for a, b in zip(after, before))
