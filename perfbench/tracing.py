"""In-memory span tracing around the public layer functions of ``repro``.

The program itself carries no tracing. :class:`Instrumentation` replaces
each layer function listed in :data:`LAYERS` with a wrapper that records
a span (name, start, end, parent) and updates deterministic counters, in
every loaded ``repro`` module that holds a reference to it (modules
import these functions by name). Leaving the context restores the
originals, so untraced passes run the unmodified program.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), float("nan"), parent)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int | float = 1) -> None:
        self.counters[name] += n

    def parent_name(self, s: Span) -> str | None:
        return None if s.parent is None else self.spans[s.parent].name


def self_times(spans: list[Span]) -> dict:
    """Sum over spans of each name of (duration - time covered by children).

    Child intervals are clipped to their parent and merged, so overlapping
    or out-of-order children are not subtracted twice.
    """
    children: dict = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict = defaultdict(float)
    for i, s in enumerate(spans):
        covered = 0.0
        lo = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, lo), min(b, s.end)
            if b > a:
                covered += b - a
                lo = b
        out[s.name] += (s.end - s.start) - covered
    return dict(out)


def durations(spans: list[Span], name: str) -> list[float]:
    return [s.end - s.start for s in spans if s.name == name]


class _Param:
    """Reads one argument of a call to ``fn``, falling back to its default."""

    def __init__(self, fn, name: str) -> None:
        params = inspect.signature(fn).parameters
        self.pos = list(params).index(name)
        self.name = name
        self.default = params[name].default

    def get(self, args: tuple, kwargs: dict):
        if len(args) > self.pos:
            return args[self.pos]
        return kwargs.get(self.name, self.default)


# Hook factories: ``make(fn)`` returns ``hook(tracer, span, args, kwargs,
# result)``, run after the wrapped call returns. Hooks only read
# arguments and results.
def _local_kkt(fn):
    max_iter = _Param(fn, "max_iter")

    def hook(t, s, args, kwargs, it):
        t.count("cd.local_kkt.calls")
        t.count("cd.local_kkt.steps", it)
        t.count("cd.local_kkt.capped", it >= max_iter.get(args, kwargs))
        if t.parent_name(s) == "refine":
            t.count("refine.merges")
    return hook


def _expand(fn):
    z = _Param(fn, "Z")

    def hook(t, s, args, kwargs, _):
        t.count("expansion.calls")
        t.count("expansion.candidates", len(z.get(args, kwargs)))
    return hook


def _shrink_expand(prefix: str, shrink_counter: str):
    """SEACD and SEA return (x, p, SEAStats) and share ``max_outer``."""
    def make(fn):
        max_outer = _Param(fn, "max_outer")

        def hook(t, s, args, kwargs, res):
            stats = res[2]
            t.count(f"{prefix}.calls")
            t.count(f"{prefix}.outer_iters", stats.outer_iters)
            t.count(shrink_counter, stats.shrink_iters)
            t.count(f"{prefix}.expansion_errors", stats.expansion_errors)
            t.count(f"{prefix}.capped",
                    stats.outer_iters >= max_outer.get(args, kwargs))
        return hook
    return make


def _replicator(fn):
    max_iter = _Param(fn, "max_iter")

    def hook(t, s, args, kwargs, it):
        t.count("sea.capped", it >= max_iter.get(args, kwargs))
    return hook


def _newsea(fn):
    def hook(t, s, args, kwargs, res):
        t.count("newsea.inits_run", res.inits)
        t.count("newsea.starts", sum(1 for a in args[0].adj if a))
    return hook


def _calls(counter: str):
    def make(fn):
        def hook(t, s, args, kwargs, res):
            t.count(counter)
        return hook
    return make


def _dedup(fn):
    def hook(t, s, args, kwargs, res):
        t.count("topk.cliques", len(args[0]))
    return hook


def _egoscan(fn):
    def hook(t, s, args, kwargs, res):
        t.count("egoscan.size", len(res.S))
    return hook


# (module, attribute, span name, hook). ``LocalGraph.positive_part`` is a
# method and is patched on the class.
LAYERS = [
    ("repro.graph.local", "LocalGraph.positive_part", "local.positive_part",
     None),
    ("repro.core.kbounds", "smart_init_bounds_local", "kbounds.mu", None),
    ("repro.core.cd", "local_kkt", "cd.local_kkt", _local_kkt),
    ("repro.core.expansion", "expansion_candidates", "expansion", None),
    ("repro.core.expansion", "expand", "expansion", _expand),
    ("repro.core.seacd", "seacd", "seacd",
     _shrink_expand("seacd", "seacd.shrink_steps")),
    ("repro.core.refine", "refine", "refine", _calls("refine.calls")),
    ("repro.core.newsea", "newsea", "newsea", _newsea),
    ("repro.core.newsea", "seacd_refine_full", "topk.full_init", None),
    ("repro.core.newsea", "dedup_cliques", "topk.dedup", _dedup),
    ("repro.core.newsea", "sea_refine_full", "sea_refine", None),
    ("repro.core.sea", "sea", "sea",
     _shrink_expand("sea", "sea.replicator_iters")),
    ("repro.core.sea", "replicator_shrink", "sea.replicator", _replicator),
    ("repro.core.greedy", "greedy_peel", "greedy.peel",
     _calls("greedy.peel_calls")),
    ("repro.core.dcsad", "dcs_greedy", "dcsad", None),
    ("repro.baselines.egoscan", "egoscan", "egoscan", _egoscan),
]


def _wrap(tracer: Tracer, fn, name: str, make_hook):
    hook = make_hook(fn) if make_hook is not None else None

    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            res = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, s, args, kwargs, res)
        return res

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


class Instrumentation:
    """Context manager that routes every layer call through ``tracer``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list = []

    def __enter__(self) -> "Instrumentation":
        # Import every layer module before patching any, so no module
        # binds a wrapper at import time.
        mods = [importlib.import_module(m) for m, _, _, _ in LAYERS]
        for mod, (_, attr, span_name, hook) in zip(mods, LAYERS):
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth,
                            _wrap(self.tracer, getattr(cls, meth), span_name,
                                  hook))
                continue
            fn = getattr(mod, attr)
            wrapper = _wrap(self.tracer, fn, span_name, hook)
            for m in _repro_modules():
                if getattr(m, attr, None) is fn:
                    self._patch(m, attr, wrapper)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        wrappers = set()
        for owner, attr, orig in reversed(self._undo):
            wrappers.add(id(getattr(owner, attr)))
            setattr(owner, attr, orig)
        self._undo.clear()
        # A module first imported inside the context bound a wrapper.
        for m in _repro_modules():
            for attr, value in list(vars(m).items()):
                if id(value) in wrappers:
                    setattr(m, attr, value.__wrapped__)


def _repro_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]
