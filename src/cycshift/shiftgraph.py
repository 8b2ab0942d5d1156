"""Cyclic shift graphs over any monoid handle.

Vertices are canonical class keys; two classes are adjacent when some member
of one, rotated, lands in the other.  All rotations of a word are pairwise
adjacent, so the graph is the union of one clique per necklace (rotation
class).  The necklaces of an evaluation are streamed, each at its least
rotation (``words.necklaces``), and the keys of its distinct rotations are
joined pairwise: every word is formed once (``handle.form_of``), every class
formatted once (``handle.format_form``) through a form-to-key table, and no
map from words is kept, so memory follows the classes and edges.  Diameters
grow one reachability bitset per vertex by a round of neighbour ORs until
every bitset is full.  Self-loops are implicit and excluded from edge lists
and diameters.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from math import gcd

from .handles import MonoidHandle
from .words import Evaluation, Word, evaluation as ev_of, necklaces


@dataclass
class ShiftGraph:
    monoid: str
    rank: int
    evaluation: Evaluation
    adjacency: dict[str, set[str]] = field(default_factory=dict)

    @property
    def vertices(self) -> list[str]:
        return sorted(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.adjacency.values()) // 2

    def edges(self) -> list[tuple[str, str]]:
        out = set()
        for a, nbrs in self.adjacency.items():
            for b in nbrs:
                out.add((a, b) if a <= b else (b, a))
        return sorted(out)

    def add_edge(self, a: str, b: str) -> None:
        self.adjacency.setdefault(a, set())
        self.adjacency.setdefault(b, set())
        if a != b:
            self.adjacency[a].add(b)
            self.adjacency[b].add(a)

    def add_vertex(self, a: str) -> None:
        self.adjacency.setdefault(a, set())

    def distances_from(self, start: str) -> dict[str, int]:
        if start not in self.adjacency:
            raise ValueError(f"unknown vertex {start!r}")
        dist = {start: 0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in self.adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    def component_of(self, start: str) -> "ShiftGraph":
        keep = set(self.distances_from(start))
        sub = {v: self.adjacency[v] & keep for v in keep}
        return ShiftGraph(self.monoid, self.rank, self.evaluation, sub)

    def components(self) -> list["ShiftGraph"]:
        seen: set[str] = set()
        out = []
        for v in sorted(self.adjacency):
            if v not in seen:
                comp = self.component_of(v)
                seen |= set(comp.adjacency)
                out.append(comp)
        return out


def distance(g: ShiftGraph, a: str, b: str) -> int:
    dist = g.distances_from(a)
    if b not in dist:
        raise ValueError(f"vertices {a!r} and {b!r} are not connected")
    return dist[b]


def diameter(g: ShiftGraph) -> int:
    """Largest eccentricity; the graph must be connected.

    Round r leaves each vertex's bitset holding its ball of radius r.
    """
    verts = g.vertices
    index = {v: i for i, v in enumerate(verts)}
    adj = [[index[w] for w in g.adjacency[v]] for v in verts]
    full = (1 << len(verts)) - 1
    reach = [1 << i for i in range(len(verts))]
    rounds = 0
    while any(r != full for r in reach):
        grown = []
        for r, nbrs in zip(reach, adj):
            for j in nbrs:
                r |= reach[j]
            grown.append(r)
        if grown == reach:
            raise ValueError("diameter of a disconnected graph is undefined")
        reach = grown
        rounds += 1
    return rounds


def _cliques(handle: MonoidHandle, ev: Evaluation, limit: int | None):
    """Each necklace of ``ev`` with the keys of its distinct rotations.

    The keys are listed in rotation order, ``w[i:] + w[:i]`` for i = 0, 1, ...
    up to the necklace's period, so every word of ``ev`` is formed exactly once.
    A period divides the length n, and n/period divides every count of ``ev``.
    """
    n = sum(ev)
    folds = gcd(*ev)
    periods = [n // f for f in range(folds, 1, -1) if folds % f == 0]
    form_of, format_form = handle.form_of, handle.format_form
    keys: dict = {}
    for w in necklaces(ev, limit):
        p = next((d for d in periods if w[d:] + w[:d] == w), n or 1)
        forms = [form_of(w[i:] + w[:i]) for i in range(p)]
        # only the empty word, alone in its evaluation, has the false key ""
        yield w, [keys.get(f) or keys.setdefault(f, format_form(f)) for f in forms]


def _join(adj: dict[str, set[str]], keys: list[str]) -> None:
    """Add the clique on ``keys``: each key's entry takes all of them, itself included."""
    clique = set(keys)
    for k in clique:
        adj.setdefault(k, set()).update(clique)


def evaluation_graph(
    handle: MonoidHandle, ev: Evaluation, limit: int | None = None,
    representatives: dict[str, Word] | None = None,
) -> ShiftGraph:
    """The full shift graph of one evaluation; ``representatives`` gets a word per class."""
    adj: dict[str, set[str]] = {}
    for w, keys in _cliques(handle, ev, limit):
        _join(adj, keys)
        if representatives is not None:
            for i, key in enumerate(keys):
                representatives.setdefault(key, w[i:] + w[:i])
    for k, nbrs in adj.items():
        nbrs.discard(k)
    return ShiftGraph(handle.name, len(ev), ev, adj)


def neighbors(handle: MonoidHandle, word: Word, rank: int, limit: int | None = None) -> set[str]:
    """Keys of every rotation of every class member (the class itself included).

    That is the union of the necklace cliques holding the class's key, which
    is read from the clique of the word's own necklace.
    """
    ev = ev_of(word, rank)
    n = len(word)
    # word[j:] + word[:j] is the word's necklace, and word is its rotation by n - j
    j = min(range(n or 1), key=lambda i: word[i:] + word[:i])
    own = word[j:] + word[:j]
    adj: dict[str, set[str]] = {}
    for w, keys in _cliques(handle, ev, limit):
        if w == own:
            target = keys[(n - j) % len(keys)]
        _join(adj, keys)
    return adj[target]


def component(handle: MonoidHandle, word: Word, rank: int, limit: int | None = None) -> ShiftGraph:
    ev = ev_of(word, rank)
    g = evaluation_graph(handle, ev, limit)
    return g.component_of(handle.key_of(word))


@dataclass
class ScanRow:
    evaluation: Evaluation
    class_count: int
    component_count: int
    max_diameter: int
    single_component: bool


@dataclass
class ScanReport:
    monoid: str
    rank: int
    max_total: int
    rows: list[ScanRow]

    @property
    def max_diameter(self) -> int:
        return max((r.max_diameter for r in self.rows), default=0)

    @property
    def all_single_component(self) -> bool:
        return all(r.single_component for r in self.rows)

    def render(self) -> str:
        lines = [
            f"monoid={self.monoid} rank={self.rank} max_total={self.max_total}",
            f"{'evaluation':<20}{'classes':>8}{'components':>12}{'max diam':>10}  one component?",
        ]
        for r in self.rows:
            ev = ",".join(str(c) for c in r.evaluation)
            lines.append(
                f"{ev:<20}{r.class_count:>8}{r.component_count:>12}{r.max_diameter:>10}  "
                + ("Y" if r.single_component else "N")
            )
        lines.append(
            f"overall max diameter {self.max_diameter}; "
            + (
                "components coincide with evaluation classes"
                if self.all_single_component
                else "some evaluation splits into several components"
            )
        )
        return "\n".join(lines)


def _evaluations(rank: int, max_total: int, full_support: bool):
    ev = [0] * rank

    def rec(i: int, left: int):
        if i == rank:
            if not full_support or all(ev):
                yield tuple(ev)
            return
        lo = 1 if full_support else 0
        for c in range(lo, left + 1):
            ev[i] = c
            yield from rec(i + 1, left - c)
        ev[i] = 0

    yield from rec(0, max_total)


def full_support_evaluations(rank: int, max_total: int):
    """Evaluations with every count positive, distinct up to relabeling.

    Order-preserving relabeling collapses an evaluation with unused symbols
    onto the sequence of its nonzero counts, and nothing further: evaluations
    with the same counts in different positions are genuinely different.
    """
    yield from _evaluations(rank, max_total, full_support=True)


def diameter_scan(
    handle: MonoidHandle,
    rank: int,
    max_total: int,
    distinct_up_to_relabeling: bool = False,
) -> ScanReport:
    """Per-evaluation component census: sizes, diameters, connectivity.

    With ``distinct_up_to_relabeling`` only full-support evaluations are
    scanned; an evaluation with unused symbols relabels onto the full-support
    evaluation of a lower rank, so combining scans over ranks 1..n covers
    everything.  The handle must be relabel-invariant for that.
    """
    if distinct_up_to_relabeling and not handle.relabel_invariant:
        raise ValueError(f"{handle.name} is not invariant under relabeling")
    evs = (
        full_support_evaluations(rank, max_total)
        if distinct_up_to_relabeling
        else _evaluations(rank, max_total, full_support=False)
    )
    rows = []
    for ev in evs:
        g = evaluation_graph(handle, ev, max_total)
        comps = g.components()
        rows.append(
            ScanRow(
                evaluation=ev,
                class_count=len(g.adjacency),
                component_count=len(comps),
                max_diameter=max((diameter(c) for c in comps), default=0),
                single_component=len(comps) <= 1,
            )
        )
    return ScanReport(handle.name, rank, max_total, rows)


# ---------------------------------------------------------------------------
# export


def to_dot(g: ShiftGraph) -> str:
    lines = ["graph {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for a, b in g.edges():
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: ShiftGraph) -> str:
    payload = {
        "monoid": g.monoid,
        "rank": g.rank,
        "evaluation": list(g.evaluation),
        "vertices": g.vertices,
        "adjacency": {v: sorted(g.adjacency[v]) for v in g.vertices},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def from_json(text: str) -> ShiftGraph:
    payload = json.loads(text)
    g = ShiftGraph(
        payload["monoid"],
        int(payload["rank"]),
        tuple(int(c) for c in payload["evaluation"]),
    )
    for v in payload["vertices"]:
        g.add_vertex(v)
    for v, nbrs in payload["adjacency"].items():
        for w in nbrs:
            g.add_edge(v, w)
    return g


def export(g: ShiftGraph, fmt: str) -> str:
    if fmt == "dot":
        return to_dot(g)
    if fmt == "json":
        return to_json(g)
    raise ValueError(f"unknown export format {fmt!r}; use dot or json")
