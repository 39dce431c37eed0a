"""In-memory span recorder and reversible function patching.

The traced run records a span at each layer boundary by replacing a public
function at every name its callers look it up under (:class:`Patch`).  No
file under ``src/`` changes; :meth:`Patch.restore` puts every original back,
so a traced run cannot leak into an untraced one in the same process.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional


@dataclass
class Span:
    """One recorded call: name, interval, causing span and job/request id."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float = float("nan")
    context: Optional[str] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.span_id, "parent": self.parent_id, "name": self.name,
                "start": self.start, "end": self.end, "context": self.context,
                "attrs": self.attrs}


class Tracer:
    """Collects spans from any thread; each thread keeps its own open-span stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, *, context: Optional[str] = None, **attrs) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            name=name,
            start=self.clock(),
            context=context if context is not None else (parent.context if parent else None),
            attrs=attrs,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def wrap(self, function: Callable, name: str, *,
             attrs: Optional[Callable[[tuple, dict], dict]] = None,
             context: Optional[Callable[[tuple, dict], Optional[str]]] = None,
             after: Optional[Callable[[Span, Any], None]] = None) -> Callable:
        """``function`` recording one span per call.

        ``attrs``/``context`` derive span attributes and the job/request id
        from the call arguments; ``after`` sees the span and the result.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = self.open(
                name,
                context=context(args, kwargs) if context is not None else None,
                **(attrs(args, kwargs) if attrs is not None else {}),
            )
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                handle.write(json.dumps(span.to_dict(), default=str) + "\n")


def covered_length(intervals: Iterable[tuple[float, float]],
                   within: tuple[float, float]) -> float:
    """Length of the union of ``intervals`` clipped to ``within``."""
    lo_bound, hi_bound = within
    clipped = sorted((max(lo, lo_bound), min(hi, hi_bound))
                     for lo, hi in intervals if min(hi, hi_bound) > max(lo, lo_bound))
    total, current_lo, current_hi = 0.0, None, None
    for lo, hi in clipped:
        if current_hi is None or lo > current_hi:
            if current_hi is not None:
                total += current_hi - current_lo
            current_lo, current_hi = lo, hi
        else:
            current_hi = max(current_hi, hi)
    if current_hi is not None:
        total += current_hi - current_lo
    return total


class SpanIndex:
    """Parent/child lookups over a finished list of spans."""

    def __init__(self, spans: Iterable[Span]):
        self.spans = list(spans)
        self.by_id = {span.span_id: span for span in self.spans}
        self.children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                self.children.setdefault(span.parent_id, []).append(span)

    def ancestors(self, span: Span):
        parent_id = span.parent_id
        while parent_id is not None:
            parent = self.by_id.get(parent_id)
            if parent is None:
                return
            yield parent
            parent_id = parent.parent_id

    def has_ancestor(self, span: Span, predicate: Callable[[Span], bool]) -> bool:
        return any(predicate(ancestor) for ancestor in self.ancestors(span))

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        children = self.children.get(span.span_id, ())
        return span.duration - covered_length(
            ((child.start, child.end) for child in children), (span.start, span.end))

    def outermost(self, predicate: Callable[[Span], bool]) -> list[Span]:
        """Spans matching ``predicate`` with no matching ancestor."""
        return [span for span in self.spans
                if predicate(span) and not self.has_ancestor(span, predicate)]


class Patch:
    """Reversible attribute replacements; :meth:`restore` undoes them in reverse."""

    def __init__(self):
        self._undo: list[Callable[[], None]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        """Replace ``owner.name`` (module, class or object attribute)."""
        missing = object()
        original = owner.__dict__.get(name, missing) if isinstance(owner, type) \
            else getattr(owner, name)
        setattr(owner, name, value)
        if original is missing:
            self._undo.append(lambda: delattr(owner, name))
        else:
            self._undo.append(lambda: setattr(owner, name, original))

    def set_item(self, mapping: dict, key: Any, value: Any) -> None:
        original = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def everywhere(self, original: Callable, replacement: Callable) -> int:
        """Rebind every module-level name bound to ``original`` in ``repro``.

        Covers the defining module and every ``from ... import`` binding in
        loaded ``repro`` modules: the names callers look up.  Returns how
        many bindings were replaced.
        """
        count = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attribute, replacement)
                    count += 1
        return count

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()
