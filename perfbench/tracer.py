"""In-memory span tree built by wrapping library callables from outside.

Each wrapped call opens a span under the span that is open when it starts.
Spans with the same name under the same parent are merged into one node
that keeps a call count and a summed duration, so a run with millions of
propagator calls still fits in memory. A node's self time is its duration
minus the part its child spans cover. ``restore`` puts every original
callable back, so the wrappers never outlive the run that installed them.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Optional


class Node:
    __slots__ = ("name", "count", "total", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.children: dict[str, Node] = {}

    @property
    def self_time(self) -> float:
        return self.total - sum(c.total for c in self.children.values())

    def walk(self, ancestors: tuple[str, ...] = ()):
        """Yield (node, names of the enclosing spans) for every span below."""
        for child in self.children.values():
            yield child, ancestors
            yield from child.walk(ancestors + (child.name,))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total,
            "self_s": self.self_time,
            "children": [c.to_dict() for c in self.children.values()],
        }


class Tracer:
    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.root = Node("run")
        self._stack = [self.root]
        self._patched: list[tuple[Any, str, Any]] = []

    def timed(
        self,
        fn: Callable,
        name: str,
        on_result: Optional[Callable[[Any, float], None]] = None,
        transform: Optional[Callable[[Any], Any]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``on_result(result, seconds)`` sees each
        return value, and ``transform`` may replace it."""
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name)
            stack.append(node)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                node.count += 1
                node.total += dt
            if on_result is not None:
                on_result(result, dt)
            if transform is not None:
                result = transform(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.timed(original, name, **kw))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds), summed over the tree."""
        out: dict[str, tuple[int, float, float]] = {}
        for node, _ in self.root.walk():
            c, t, s = out.get(node.name, (0, 0.0, 0.0))
            out[node.name] = (c + node.count, t + node.total, s + node.self_time)
        return out

    def within(self, name: str, ancestor: str) -> tuple[int, float]:
        """(calls, seconds) of spans ``name`` opened inside an ``ancestor`` span,
        outermost occurrences only."""
        calls, total = 0, 0.0
        for node, ancestors in self.root.walk():
            if node.name == name and ancestor in ancestors and name not in ancestors:
                calls += node.count
                total += node.total
        return calls, total
