"""Outside-in span tracer: wraps public callables of ``repro`` from the benchmark side.

Nothing under ``src/`` knows this exists.  For each target the tracer
replaces every binding that ``is`` the original function in every loaded
``repro.*`` module (the code base imports with ``from x import f``, so one
``setattr`` on the defining module would miss most call sites), and the
public methods of named classes on the class itself (so
``type(machine) is BSPMachine`` still holds and the solver stays on its
batched path).  Each call records one span — target, start, end, parent
span, op id — in memory; nothing is written until the run ends.

Self time is a pure function of the recorded spans (:func:`self_times`):
a span's duration minus the durations of its *direct* children.  Direct
children partition the covered part of the parent, so self times of all
spans under a root add up to exactly the root's duration — recursion
(``carma._rec``-style) cannot double-count.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from typing import Any, Callable, Iterable

#: span tuple layout
TARGET, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory span recorder plus the patch/unpatch bookkeeping."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.targets: list[tuple[str, str]] = []   # target id -> (layer, name)
        self.spans: list[tuple | None] = []
        self.op = -1                               # id shared by one op's spans
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ wrapping

    def target(self, layer: str, name: str) -> int:
        self.targets.append((layer, name))
        return len(self.targets) - 1

    def wrap(self, fn: Callable, tid: int) -> Callable:
        """Return ``fn`` wrapped to record one span per call under ``tid``."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (tid, t0, t1, parent, self.op)

        return traced

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """Record a benchmark-side span (the op root) around a ``with`` body."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        tid = self.target(layer, name)
        t0 = self.clock()
        try:
            yield
        finally:
            t1 = self.clock()
            self._stack.pop()
            self.spans[idx] = (tid, t0, t1, parent, self.op)

    # ------------------------------------------------------------ patching

    def _set(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, fn: Callable, layer: str, name: str | None = None,
                       prefix: str = "repro") -> int:
        """Rebind every module-level alias of ``fn`` in loaded ``prefix.*``
        modules to a traced wrapper; returns how many bindings changed."""
        wrapper = self.wrap(fn, self.target(layer, name or fn.__name__))
        count = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)
                    count += 1
        return count

    def patch_methods(self, cls: type, layer: str,
                      names: Iterable[str] | None = None) -> int:
        """Wrap public plain-function methods defined on ``cls`` itself
        (``names`` restricts the set; prefixes ending in ``*`` match)."""
        count = 0
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            if names is not None and not any(
                attr.startswith(n[:-1]) if n.endswith("*") else attr == n for n in names
            ):
                continue
            tid = self.target(layer, f"{cls.__name__}.{attr}")
            self._set(cls, attr, self.wrap(value, tid))
            count += 1
        return count

    def unpatch(self) -> None:
        """Restore every original binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[tuple | None]) -> list[float]:
    """Per-span self time: duration minus the direct children's durations.

    ``spans[i][PARENT]`` indexes into ``spans`` (−1 for a root).  Spans
    still open (``None``) contribute nothing and get 0.
    """
    own = [0.0 if s is None else s[END] - s[START] for s in spans]
    for s in spans:
        if s is not None and s[PARENT] >= 0 and spans[s[PARENT]] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def aggregate(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Roll the spans of timed calls (op id ≥ 0) up per layer:
    ``{layer: {calls, self_s, wall_s}}``.

    ``wall_s`` is inclusive (sum of durations) and only meaningful for
    layers whose targets do not nest inside one another (the eig stages,
    the benchmark's own op root)."""
    out: dict[str, dict[str, float]] = {}
    for s, self_s in zip(tracer.spans, self_times(tracer.spans)):
        if s is None or s[OP] < 0:
            continue
        row = out.setdefault(tracer.targets[s[TARGET]][0],
                             {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_s
        row["wall_s"] += s[END] - s[START]
    return out
