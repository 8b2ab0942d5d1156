"""Span recorder for the traced run, installed from outside the library.

Every layer boundary is a frame on one stack: the frame's self time is its
duration minus the time of the frames nested in it.  Coarse calls (graph
builds, diameters, paths, closures, one benchmark op) are kept as spans with
name, start, end and parent and written out when the repetition ends; the
per-word calls (key computation, enumeration steps) are only summed, since
there are hundreds of thousands of them.

Nothing under ``src/`` knows about this module: ``install`` swaps traced
wrappers into the library's module globals and class attributes, which the
library's own internal calls then pick up.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter, defaultdict
from time import perf_counter

#: handle name -> the module that owns its insertion algorithm
KEY_MODULE = {
    "plac": "plactic",
    "hypo": "hypoplactic",
    "sylv": "sylvester",
    "stal": "stalactic",
    "taig": "taiga",
    "baxt": "baxter",
    "counterexample": "counterexample",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None]] = []
        # frame: [name, start, nested time, span id or None]
        self.stack: list[list] = []
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()

    def _parent_id(self) -> int | None:
        for frame in reversed(self.stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def enter(self, name: str, record: bool) -> list:
        sid = None
        if record:
            sid = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._parent_id()))
        frame = [name, perf_counter(), 0.0, sid]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = perf_counter()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, nested, sid = frame
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - nested
        if sid is not None:
            self.spans[sid] = (name, start, end, self.spans[sid][3])

    def current(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def wrap(self, name: str, fn, record: bool = True, after=None):
        """``fn`` inside a frame; ``after(result)`` runs once the frame closed."""

        def traced(*args, **kwargs):
            frame = self.enter(name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(frame)
            if after is not None:
                after(result)
            return result

        return traced

    def wrap_iter(self, name: str, fn):
        """A generator function whose every step is a frame; counts the items."""

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                frame = self.enter(name, False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.leave(frame)
                self.counts[name + ".items"] += 1
                yield item

        return traced

    def handle(self, h):
        """A copy of a monoid handle whose key function is timed per call."""
        return dataclasses.replace(
            h, key_of=self.wrap(KEY_MODULE[h.name] + ".key", h.key_of, record=False)
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "self_s": dict(self.self_time),
                    "calls": dict(self.calls),
                    "counts": dict(self.counts),
                },
                fh,
            )


def install(tracer: Tracer) -> None:
    """Swap traced wrappers into the library for the rest of this process."""
    from cycshift import handles, rewrite, shiftgraph

    handles.words_with_evaluation = tracer.wrap_iter(
        "words.enum", handles.words_with_evaluation
    )

    def graph_size(g) -> None:
        tracer.counts["shiftgraph.classes"] += len(g.adjacency)
        tracer.counts["shiftgraph.edges"] += g.edge_count

    def class_size(cls) -> None:
        tracer.counts["rewrite.class_members"] += len(cls)

    for name, after in (
        ("evaluation_graph", graph_size),
        ("diameter", None),
        ("distance", None),
        ("neighbors", None),
        ("component", None),
        ("diameter_scan", None),
    ):
        setattr(shiftgraph, name, tracer.wrap("shiftgraph." + name, getattr(shiftgraph, name), after=after))
    traced_component = shiftgraph.component

    def key_calls() -> int:
        return sum(n for name, n in tracer.calls.items() if name.endswith(".key"))

    def component(*args, **kwargs):
        before = key_calls()
        g = traced_component(*args, **kwargs)
        tracer.counts["shiftgraph.answer_keys"] += key_calls() - before
        tracer.counts["shiftgraph.answer_vertices"] += len(g.adjacency)
        return g

    shiftgraph.component = component
    shiftgraph.ShiftGraph.components = tracer.wrap(
        "shiftgraph.components", shiftgraph.ShiftGraph.components
    )
    rewrite.PresentedMonoid.close = tracer.wrap(
        "rewrite.close", rewrite.PresentedMonoid.close, after=class_size
    )

    base_deque = shiftgraph.deque

    class CountingDeque(base_deque):
        """Every breadth-first search in the engine starts one of these queues."""

        def __init__(self, *args):
            super().__init__(*args)
            tracer.counts["bfs." + str(tracer.current())] += 1

    shiftgraph.deque = CountingDeque
