"""Cyclic shift graphs over any monoid handle.

Vertices are canonical class keys; two classes are adjacent when some member
of one, rotated, lands in the other.  All rotations of a word are pairwise
adjacent, so the graph is the union of one clique per necklace (rotation
class).  The necklaces of an evaluation are streamed, each at its least
rotation (``words.necklaces``), and the keys of its distinct rotations are
joined pairwise: every word is formed once (``handle.word_form``, a tuple),
every class formatted once (``handle.format_form``) through a form-to-key
table, and no map from words is kept, so memory follows the classes and
edges.  A handle's ``class_graph`` (hypo's) replaces the necklaces and forms
one word per class.  ``neighbors`` compares forms and formats only its answer.
Graphs are read-only once built, and their components share their neighbour
sets.
Diameters grow a reachability bitset per vertex by rounds of neighbour ORs
(a complete graph needs none).  Self-loops are implicit and never stored.
"""

from __future__ import annotations

import json
from collections import deque  # noqa: F401  unused here; perfbench/spans.py patches this name
from dataclasses import dataclass, field
from math import gcd

from .handles import MonoidHandle
from .words import Evaluation, Word, check_total, evaluation as ev_of, necklaces


@dataclass
class ShiftGraph:
    """Keys and neighbour sets, read-only once built; component graphs share the sets."""
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

    def distances_from(self, start: str) -> dict[str, int]:
        return {v: d for d, level in enumerate(_levels(self.adjacency, start)) for v in level}

    def component_of(self, start: str) -> "ShiftGraph":
        """The component of ``start``, sharing the neighbour sets a closure holds whole."""
        adj = self.adjacency
        keep = set().union(*_levels(adj, start))
        return ShiftGraph(self.monoid, self.rank, self.evaluation, {v: adj[v] for v in keep})

    def components(self) -> list["ShiftGraph"]:
        """Every component, ordered by its least vertex."""
        out, seen = [], set()
        for v in self.adjacency:
            if v not in seen:
                out.append(self.component_of(v))
                seen.update(out[-1].adjacency)
        return sorted(out, key=lambda c: min(c.adjacency))


def _levels(adj: dict[str, set[str]], start: str):
    """Breadth-first levels from ``start``: the sets of vertices at distance 0, 1, ..."""
    if start not in adj:
        raise ValueError(f"unknown vertex {start!r}")
    seen, level = set(), {start}
    while level:
        yield level
        seen |= level
        level = set().union(*map(adj.__getitem__, level)) - seen


def distance(g: ShiftGraph, a: str, b: str) -> int:
    for d, level in enumerate(_levels(g.adjacency, a)):
        if b in level:
            return d
    raise ValueError(f"vertices {a!r} and {b!r} are not connected")


def diameter(g: ShiftGraph) -> int:
    """Largest eccentricity of a connected graph; 1 at once for a complete one.

    Round r leaves each vertex's bitset, in dict order, holding its ball of radius r.
    """
    adj = g.adjacency
    n = len(adj)
    if n > 1 and all(len(nbrs) == n - 1 and v not in nbrs for v, nbrs in adj.items()):
        return 1
    index = {v: i for i, v in enumerate(adj)}
    nbr_bits = [[index[w] for w in nbrs] for nbrs in adj.values()]
    full = (1 << n) - 1
    reach = [1 << i for i in range(n)]
    rounds = 0
    while any(r != full for r in reach):
        grown = []
        for r, nbrs in zip(reach, nbr_bits):
            for j in nbrs:
                r |= reach[j]
            grown.append(r)
        if grown == reach:
            raise ValueError("diameter of a disconnected graph is undefined")
        reach = grown
        rounds += 1
    return rounds


def _rotation_forms(handle: MonoidHandle, ev: Evaluation):
    """A map from each necklace of ``ev`` to the forms of its distinct rotations.

    The forms are listed in rotation order, ``w[i:] + w[:i]`` for i = 0, 1, ...
    up to the period, so each word is formed once.  A period divides the
    length n, and n/period divides every count of ``ev``.
    """
    n = sum(ev)
    folds = gcd(*ev)
    periods = [n // f for f in range(folds, 1, -1) if folds % f == 0]
    word_form = handle.word_form

    def of(w: Word) -> list:
        p = next((d for d in periods if w[d:] + w[:d] == w), n or 1)
        return [word_form(w[i:] + w[:i]) for i in range(p)]

    return of


def evaluation_graph(
    handle: MonoidHandle, ev: Evaluation, limit: int | None = None,
    representatives: dict[str, Word] | None = None,
) -> ShiftGraph:
    """The full shift graph of one evaluation; ``representatives`` gets a word per class.

    Each class is formatted once, through a form-to-key table or from the
    word the handle's ``class_graph`` gives for it.
    """
    if handle.class_graph is not None:
        check_total(ev, limit)
        model = handle.class_graph(ev)
        keys = {w: handle.format_form(handle.word_form(w)) for w in model}
        if representatives is not None:
            representatives.update({key: w for w, key in keys.items()})
        adj = {keys[w]: {keys[x] for x in nbrs} for w, nbrs in model.items()}
        return ShiftGraph(handle.name, len(ev), ev, adj)
    adj: dict[str, set[str]] = {}
    rotation_forms = _rotation_forms(handle, ev)
    format_form = handle.format_form
    table: dict = {}
    for w in necklaces(ev, limit):
        # only the empty word, alone in its evaluation, has the false key ""
        keys = [table.get(f) or table.setdefault(f, format_form(f)) for f in rotation_forms(w)]
        clique = set(keys)
        for k in clique:
            adj.setdefault(k, set()).update(clique)
        if representatives is not None:
            for i, key in enumerate(keys):
                representatives.setdefault(key, w[i:] + w[:i])
    for k, nbrs in adj.items():
        nbrs.discard(k)
    return ShiftGraph(handle.name, len(ev), ev, adj)


def neighbors(handle: MonoidHandle, word: Word, rank: int, limit: int | None = None) -> set[str]:
    """Keys of every rotation of every class member (the class itself included).

    That is the union of the necklace cliques holding the word's class: the
    rotation forms of every necklace that holds the word's form, or, from a
    ``class_graph``, the class whose form it is and its neighbours.  Only the
    answer is formatted.
    """
    ev = ev_of(word, rank)
    if handle.class_graph is not None:
        check_total(ev, limit)
        model, target = handle.class_graph(ev), handle.word_form(word)
        own = next(w for w in model if handle.word_form(w) == target)
        return {handle.format_form(handle.word_form(w)) for w in (own, *model[own])}
    stream = necklaces(ev, limit)  # the size guard runs before any word is formed
    rotation_forms = _rotation_forms(handle, ev)
    target = handle.word_form(word)
    out = set()
    for w in stream:
        forms = rotation_forms(w)
        if target in forms:
            out.update(forms)
    return set(map(handle.format_form, out))


def component(handle: MonoidHandle, word: Word, rank: int, limit: int | None = None) -> ShiftGraph:
    ev = ev_of(word, rank)
    g = evaluation_graph(handle, ev, limit)
    return g.component_of(handle.format_form(handle.word_form(word)))


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


def export(g: ShiftGraph, fmt: str) -> str:
    if fmt == "dot":
        return to_dot(g)
    if fmt == "json":
        return to_json(g)
    raise ValueError(f"unknown export format {fmt!r}; use dot or json")
