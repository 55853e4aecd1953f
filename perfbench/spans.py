"""In-memory span recording around hiermem's public functions.

A ``Tracer`` wraps each target function and records one span per call:
name, layer, start, end and the span that was open when the call began.
A target is found by object identity wherever a ``hiermem`` module (or a
class defined in one) has bound it, so ``from .tracer import build_trace``
in ``cli`` is wrapped as well as ``tracer.build_trace`` itself. Patches are
installed only around a traced op and removed before the op's output is
checked; an untraced op runs hiermem unpatched.

Spans stay in memory and are written out once, at the end of the run, as
Chrome Trace Event JSON that Perfetto and chrome://tracing open.
"""
from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    layer: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0
    result: object = field(default=None, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One public hiermem function to wrap: ``module:qualname``."""

    layer: str
    module: str
    qualname: str
    keep_result: bool = False

    @property
    def span_name(self) -> str:
        return f"{self.layer}.{self.qualname.rsplit('.', 1)[-1]}"


def hiermem_modules() -> list:
    """The hiermem package and every public submodule, imported.

    ``hiermem.__main__`` is skipped: importing it runs the command line."""
    import hiermem

    for info in pkgutil.iter_modules(hiermem.__path__):
        if not info.name.startswith("_"):
            importlib.import_module(f"hiermem.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hiermem" or name.startswith("hiermem."))]


def resolve(target: Target):
    """The function object a target names; raises LookupError if it is gone."""
    obj = importlib.import_module(target.module)
    for part in target.qualname.split("."):
        if not hasattr(obj, part):
            raise LookupError(f"{target.module}:{target.qualname} not found")
        obj = getattr(obj, part)
    return obj


def _bindings(original, modules) -> list[tuple[object, str]]:
    """Every (namespace, attribute) in hiermem whose value is ``original``."""
    found = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, attr))
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        found.append((value, cattr))
    return found


class Tracer:
    """Records spans for the wrapped targets and for the benchmark's own ops."""

    def __init__(self, targets: list[Target]):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op = -1
        modules = hiermem_modules()
        self._plan = []
        for target in targets:
            original = resolve(target)
            self._plan.append((target, original, _bindings(original, modules)))

    def _open(self, name: str, layer: str) -> Span:
        span = Span(len(self.spans), name, layer,
                    self._stack[-1] if self._stack else None, self._op,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.span_id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, target: Target, original):
        name, layer, keep = target.span_name, target.layer, target.keep_result

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if keep:
                span.result = result
            return result

        return wrapper

    def install(self) -> None:
        for target, original, bindings in self._plan:
            wrapper = self._wrap(target, original)
            for owner, attr in bindings:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run_op(self, op_index: int, fn):
        """Run ``fn`` as one traced op: patches installed, root span 'bench.op'."""
        self._op = op_index
        self.install()
        root = self._open("bench.op", "bench")
        try:
            return fn()
        finally:
            self._close(root)
            self.uninstall()

    def op_spans(self, op_index: int) -> list[Span]:
        return [s for s in self.spans if s.op == op_index]

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        """Add a span measured by the caller (set-up work outside any op)."""
        self.spans.append(Span(len(self.spans), name, layer, None, -1, start, end))

    def write_chrome_trace(self, path, origin: float) -> None:
        """Chrome Trace Event JSON: one complete ("X") event per span."""
        events = [{
            "name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": 1,
            "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
            "args": {"span_id": s.span_id, "parent": s.parent, "op": s.op},
        } for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own
