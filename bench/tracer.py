"""In-memory spans recorded around calls into blockfuse's public functions.

The benchmark never edits the program: it replaces a function at every
module attribute that holds it (the name each caller looks up at call
time), records a span per call, and puts the originals back afterwards.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index of the enclosing span, -1 for a root
    attrs: dict = field(default_factory=dict)
    end: float = 0.0
    child: float = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Single-threaded span recorder; spans stay in memory until `dump`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def open(self, name: str, attrs: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent, dict(attrs or {})))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = self.clock()
        if span.parent >= 0:
            self.spans[span.parent].child += span.duration
        return span

    def exclude(self, index: int, seconds: float) -> None:
        """Charge `seconds` spent after span `index` closed (in a hook) to no
        layer: its parent treats them as covered by a child."""
        parent = self.spans[index].parent
        if parent >= 0:
            self.spans[parent].child += seconds

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "self": s.self_time, "attrs": s.attrs},
                                    default=str) + "\n")


Hook = Callable[..., dict]


def wrap(tracer: Tracer, fn: Callable, name: str, before: Optional[Hook] = None,
         after: Optional[Hook] = None) -> Callable:
    """`fn` with a span around each call. `before(*args, **kwargs)` gives
    the span's attributes; `after(result, *args, **kwargs)` adds counts.
    Hook time is charged to no layer."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name, before(*args, **kwargs) if before else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.close(index)
        if after is not None:
            t0 = tracer.clock()
            span.attrs.update(after(result, *args, **kwargs))
            tracer.exclude(index, tracer.clock() - t0)
        return result

    return traced


@dataclass(frozen=True)
class Target:
    """A function to trace, named by the module that defines it."""

    owner: object  # module or class that holds the function
    attr: str
    before: Optional[Hook] = None
    after: Optional[Hook] = None

    @property
    def name(self) -> str:
        fn = getattr(self.owner, self.attr)
        return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


@contextmanager
def installed(tracer: Tracer, targets: List[Target], package: str = "blockfuse"):
    """Replace each target at every attribute of `package`'s modules (or,
    for a method, on its class) that holds it; restore them on exit."""
    undo: List[Tuple[object, str, object]] = []
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == package or key.startswith(package + "."))]
    try:
        for target in targets:
            original = getattr(target.owner, target.attr)
            traced = wrap(tracer, original, target.name, target.before, target.after)
            holders = [target.owner] if isinstance(target.owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)
                        undo.append((holder, key, original))
        yield
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)


def layer_totals(spans: List[Span], keys: Callable[[Span], List[str]]
                 ) -> Dict[str, Dict[str, float]]:
    """Sum self time ('s'), time including children ('incl_s'), calls and
    numeric attributes of `spans` under each of `keys(span)`."""
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        for k in keys(span):
            acc = totals.setdefault(k, {"s": 0.0, "incl_s": 0.0, "calls": 0})
            acc["s"] += span.self_time
            acc["incl_s"] += span.duration
            acc["calls"] += 1
            for attr, value in span.attrs.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    acc[attr] = acc.get(attr, 0) + value
    return totals
