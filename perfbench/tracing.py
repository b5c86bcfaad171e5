"""In-memory spans recorded around calls into the program's layers.

The benchmark does not instrument the program: in a traced run it wraps
public functions and methods at runtime (``Tracer.patch``), records one
span per call (name, start, end, parent), and puts every original back
when the run ends (``Tracer.restore``).  Hot inner calls that would cost
more to time than to run are counted instead (``Tracer.count``).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1)
            )
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def counted(self, name: str, function: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(function)
        def counting(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return counting

    def patch(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper."""
        self.replace(owner, attribute, lambda original: self.wrap(name, original))

    def count(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a call-counting wrapper."""
        self.replace(owner, attribute, lambda original: self.counted(name, original))

    def replace(self, owner, attribute: str, make: Callable) -> None:
        # Read through __dict__ for classes so restore() reinstates the
        # plain function, not a bound method.
        original = (
            owner.__dict__[attribute]
            if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        setattr(owner, attribute, make(original))
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span.end - span.start

    def roots(self, name: str) -> List[int]:
        return [i for i, s in enumerate(self.spans) if s.parent == -1 and s.name == name]

    def _children(self) -> Dict[int, List[int]]:
        children: Dict[int, List[int]] = collections.defaultdict(list)
        for index, span in enumerate(self.spans):
            if span.parent >= 0:
                children[span.parent].append(index)
        return children

    def descendant_seconds(self, root: int, name: str) -> float:
        """Total duration of the outermost ``name`` spans below ``root``."""
        children = self._children()
        total = 0.0
        pending = list(children.get(root, ()))
        while pending:
            index = pending.pop()
            if self.spans[index].name == name:
                total += self.duration(index)
            else:
                pending.extend(children.get(index, ()))
        return total

    def self_seconds(self, index: int, children: Optional[Dict[int, List[int]]] = None) -> float:
        """A span's duration minus what its direct children cover."""
        children = self._children() if children is None else children
        covered = sum(self.duration(child) for child in children.get(index, ()))
        return self.duration(index) - covered

    def nesting_violations(self, tolerance: float = 1e-6) -> List[str]:
        """Children outside their parent, or covering more than it."""
        problems = []
        children = self._children()
        for index, span in enumerate(self.spans):
            if span.end < span.start:
                problems.append(f"{span.name}#{index} ends before it starts")
            if span.parent >= 0:
                parent = self.spans[span.parent]
                if span.start < parent.start - tolerance or span.end > parent.end + tolerance:
                    problems.append(f"{span.name}#{index} outside {parent.name}#{span.parent}")
            if self.self_seconds(index, children) < -tolerance:
                problems.append(f"children of {span.name}#{index} exceed it")
        return problems


def per_root(tracer: Tracer, root_name: str, child: str) -> List[float]:
    """Per root span named ``root_name``: total time in its ``child`` spans."""
    return [tracer.descendant_seconds(i, child) for i in tracer.roots(root_name)]
