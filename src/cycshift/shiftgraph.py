"""Cyclic shift graphs over any monoid handle.

Vertices are class ids 0, 1, ...: ``keys[i]`` is the canonical key of class
i, and ``nbrs[i]`` is a frozen, sorted ``array('I')`` of its neighbours' ids,
4 bytes per directed edge, with no self-loop.  Two classes are adjacent when
some member of one, rotated, lands in the other.  All rotations of a word are
pairwise adjacent, so the graph is the union of one clique per necklace
(rotation class).  The necklaces of an evaluation are streamed, each once
(``words.necklaces``: starting with the least symbol used once, or else at
its least rotation), and the ids of its distinct rotations are joined
pairwise: every word is formed once (``handle.word_form``, a tuple; a
handle's ``rotation_forms`` forms a whole necklace in one pass), every class
formatted (``handle.format_form``) at most once, on first read of ``keys``
(a direct build formats as it builds), from a form-to-id table, and no map
from words is kept.  Until the graph is frozen, each edge waits once, in a
scratch list at its smaller end that is deduplicated as it grows,
so memory follows the classes and edges.  A handle's ``class_graph``
(hypo's) replaces the necklaces and forms one word per class.  An evaluation
with a count of 2 or more keys one word per class of its canonical form's
graph (``evaluation_graph``), which a bounded cache keeps when the form is
small, taig's as the image of stal's.  ``neighbors`` forms no necklace: it
rotates the members that ``class_of`` walks to and formats only its answer.
A component is a view: the ids of its members over its parent's own ``keys``
and ``nbrs``.  Searches, components and diameters run on ids; keys appear
only at the edge, through the read-only ``adjacency`` mapping and a key-to-id
index built on the first lookup; ``has_edge`` searches a sorted array.
Diameters grow a reachability bitset per vertex by rounds of neighbour ORs
(a complete graph needs none).
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from collections import deque  # noqa: F401  unused here; perfbench/spans.py patches this name
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

from .handles import HANDLES, MonoidHandle
from .words import Evaluation, Word, check_total, check_word, evaluation as ev_of, multinomial, necklaces


def _freeze(ids: Iterable[int]) -> array:
    return array("I", sorted(ids))


class _Keys:
    """Class keys, ``format`` of one item per class in id order, formatted on the first read."""

    def __init__(self, items: Sequence, format: Callable[..., str] | None = None):
        self.items, self.format = items, format

    def read(self) -> list[str]:
        if self.format is not None:
            self.items, self.format = list(map(self.format, self.items)), None
        return self.items


@dataclass(eq=False)
class ShiftGraph:
    """Class keys and frozen neighbour arrays; a component view shares both with its parent.

    ``held``, a key list or a ``_Keys`` shared with the views, is formatted at
    most once, on first read; a direct build formats as it builds.
    """
    monoid: str
    rank: int
    evaluation: Evaluation
    held: _Keys | list[str]
    nbrs: list[array]
    #: the member ids in increasing order; every class when not given
    ids: Sequence[int] | None = None

    def __post_init__(self):
        if not isinstance(self.held, _Keys):
            self.held = _Keys(self.held)
        if self.ids is None:
            self.ids = range(len(self.nbrs))

    @property
    def keys(self) -> list[str]:
        return self.held.read()

    @cached_property
    def index(self) -> dict[str, int]:
        """Member key -> id, built on the first lookup."""
        keys = self.keys
        return {keys[i]: i for i in self.ids}

    def id_of(self, key: str) -> int:
        try:
            return self.index[key]
        except KeyError:
            raise ValueError(f"unknown vertex {key!r}") from None

    @property
    def adjacency(self) -> "_Adjacency":
        """Key -> frozenset of neighbour keys, read-only; each set is built when read."""
        return _Adjacency(self)

    @property
    def vertices(self) -> list[str]:
        keys = self.keys
        return sorted(keys[i] for i in self.ids)

    @property
    def edge_count(self) -> int:
        nbrs = self.nbrs
        return sum(len(nbrs[i]) for i in self.ids) // 2

    def edges(self) -> list[tuple[str, str]]:
        keys, out = self.keys, []
        for i in self.ids:
            a = keys[i]
            for j in self.nbrs[i]:
                if i < j:
                    b = keys[j]
                    out.append((a, b) if a <= b else (b, a))
        return sorted(out)

    def has_edge(self, a: str, b: str) -> bool:
        """Whether member keys ``a`` and ``b`` are adjacent; False when either is not a member."""
        index = self.index
        if a not in index or b not in index:
            return False
        row, j = self.nbrs[index[a]], index[b]
        k = bisect_left(row, j)
        return k < len(row) and row[k] == j

    def _view(self, start: int) -> "ShiftGraph":
        """The component of id ``start``, over this graph's keys and arrays."""
        members = _freeze(set().union(*_levels(self.nbrs, start)))
        return ShiftGraph(self.monoid, self.rank, self.evaluation, self.held, self.nbrs, members)

    def component_of(self, start: str) -> "ShiftGraph":
        return self._view(self.id_of(start))

    def components(self) -> list["ShiftGraph"]:
        """Every component, ordered by its least vertex; one alone reads no key."""
        out, seen = [], set()
        for v in self.ids:
            if v not in seen:
                out.append(self._view(v))
                seen.update(out[-1].ids)
        if len(out) < 2:
            return out
        key = self.keys.__getitem__
        return sorted(out, key=lambda c: min(map(key, c.ids)))


class _Adjacency(Mapping):
    """A graph's read-only view from each member key to the frozenset of its neighbours' keys."""

    __slots__ = ("_g",)

    def __init__(self, g: ShiftGraph):
        self._g = g

    def __len__(self) -> int:
        return len(self._g.ids)

    def __iter__(self):
        keys = self._g.keys
        return (keys[i] for i in self._g.ids)

    def __contains__(self, key) -> bool:
        return key in self._g.index

    def __getitem__(self, key: str) -> frozenset[str]:
        g = self._g
        return frozenset(map(g.keys.__getitem__, g.nbrs[g.index[key]]))


def from_adjacency(monoid: str, rank: int, ev: Evaluation, adj: Mapping[str, Iterable[str]]) -> ShiftGraph:
    """A graph from key -> neighbour keys; self-loops and repeated neighbours are dropped."""
    keys = list(adj)
    index = {k: i for i, k in enumerate(keys)}
    nbrs = [_freeze({index[w] for w in adj[k]} - {i}) for i, k in enumerate(keys)]
    return ShiftGraph(monoid, rank, ev, keys, nbrs)


def _levels(nbrs: Sequence[array], start: int):
    """Breadth-first levels from id ``start``: the sets of ids at distance 0, 1, ..."""
    seen, level = {start}, {start}
    while level:
        yield level
        level = set().union(*map(nbrs.__getitem__, level)) - seen
        seen |= level


def distance(g: ShiftGraph, a: str, b: str) -> int:
    target = g.id_of(b)
    for d, level in enumerate(_levels(g.nbrs, g.id_of(a))):
        if target in level:
            return d
    raise ValueError(f"vertices {a!r} and {b!r} are not connected")


def diameter(g: ShiftGraph) -> int:
    """Largest eccentricity of a connected graph; 1 at once for a complete one.

    Round r leaves each member's bitset, in id order, holding its ball of radius r.
    A view on part of its parent renumbers its members first.  A view comes
    from one search, so it is connected; a whole graph is searched once
    first, so a disconnected one raises before any bitset is built.
    """
    ids, nbrs = g.ids, g.nbrs
    n = len(ids)
    if n > 1 and all(len(nbrs[i]) == n - 1 for i in ids):
        return 1
    if isinstance(ids, range) and n and sum(map(len, _levels(nbrs, 0))) < n:
        raise ValueError("diameter of a disconnected graph is undefined")
    if n == len(nbrs):
        rows: Sequence[Sequence[int]] = nbrs
    else:
        pos = {v: p for p, v in enumerate(ids)}
        rows = [[pos[j] for j in nbrs[v]] for v in ids]
    full = (1 << n) - 1
    reach = [1 << i for i in range(n)]
    rounds = 0
    while any(r != full for r in reach):
        grown = []
        for r, row in zip(reach, rows):
            for j in row:
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
    up to the period, so each word is formed once, by the handle's
    ``rotation_forms`` when it has one.  A period divides the length n, and
    n/period divides every count of ``ev``.
    """
    n = sum(ev)
    folds = gcd(*ev)
    periods = [n // f for f in range(folds, 1, -1) if folds % f == 0]
    word_form, kernel = handle.word_form, handle.rotation_forms

    def of(w: Word) -> list:
        p = next((d for d in periods if w[d:] + w[:d] == w), n or 1)
        if kernel is not None:
            return kernel(w, ev, p)
        ww = w + w
        return [word_form(ww[i:i + n]) for i in range(p)]

    return of


def _pad(word: Word, ev: Evaluation) -> Word:
    """``word`` with the first copy of each symbol repeated up to its count in ``ev``."""
    out, seen = [], set()
    for a in word:
        if a not in seen:
            seen.add(a)
            out += [a] * (ev[a - 1] - 2)
        out.append(a)
    return tuple(out)


#: a scratch list of neighbour ids is deduplicated once it passes twice its last
#: deduplicated length plus this, so it stays near the class's degree
_SLACK = 64


def evaluation_graph(
    handle: MonoidHandle, ev: Evaluation, limit: int | None = None,
    representatives: dict[str, Word] | None = None,
) -> ShiftGraph:
    """The full shift graph of one evaluation; ``representatives`` gets a word per class.

    An evaluation with a count of 2 or more is served from the graph of its
    canonical form (``_canonical``), kept in a bounded cache when the form
    has at most ``_CACHED_WORDS`` words.  Each class
    keeps its id and neighbours, and takes the key of its word taken back to
    ``ev``: mirrored, relabeled onto the used symbols, and padded by
    repeating the first copy of each symbol whose count is above 2.  Each
    step is a bijection that maps rotations to rotations and classes to
    classes, so the graphs are the same:

    - an order-preserving relabeling maps each letter alone, so ``uv, vu``
      go to ``u'v', v'u'``, and a relabel-invariant congruence to itself;
    - complement, ``a -> r+1-a``, maps each letter alone too.  stal's
      relation ``bavb = abvb`` names no order; taig's are sylv's ``cavb =
      acvb`` (a <= b < c) and stal's, and the complement of a sylv instance
      swaps ``x < y`` before a witness in ``(x, y]``: sylv's below ``y``,
      stal's at ``y``;
    - reverse-complement θ reverses products, so ``(uv, vu)`` goes to
      ``(θ(v)θ(u), θ(u)θ(v))``.  It sends Knuth's ``acb = cab`` (a <= b <
      c) to ``bac = bca`` (a < b <= c) and back (Schützenberger's
      involution), each family of baxt's relations to itself, and keeps
      hypo's row breaks: for consecutive ``a < b``, some b before some a
      in ``w`` is some a' before some b' in θ(w), with ``b' < a'``;
    - a stal class is ``(σ, ev)``, where σ is the order of the symbols'
      rightmost occurrences, and every order of the support is a class.  A
      cut ``u|v`` gives ``vu``, whose order σ' takes each symbol at its
      rightmost copy in ``u``, or in ``v`` when ``u`` has none;
    - deleting all but two copies of a symbol, keeping its rightmost copy
      and its rightmost copy in ``u``, preserves σ, σ' and whether ``u`` and
      ``v`` are empty, so every edge of ``ev`` is an edge of the saturation;
    - padding before a symbol's first copy preserves them too, since that
      copy is never its symbol's rightmost copy, and is its rightmost copy
      in ``u`` only when the other copy lies in ``v``; so every edge of the
      saturation is an edge of ``ev``, between the classes of the padded
      words, which have the same σ;
    - a taig class is the binary search tree of σ (inserted right to left)
      with the counts as multiplicities, so the tree's shape does not
      depend on the counts, and every taig class is a union of stal
      classes: taig's saturated graph is the image of stal's
      (``MonoidHandle.image_of``).

    An evaluation with every count at most 1 is built directly, formatted as
    it is built, and not kept, so standard graphs, the largest, leave no entry
    behind.  A served graph's keys are formatted at most once, on first read.
    """
    check_total(ev, limit)
    if max(ev, default=0) < 2:
        words = None if representatives is None else []
        g = _build(handle, ev, limit, words)
        keys = g.keys  # read now: nothing keeps a direct build, so deferring saves nothing
        if representatives is not None:
            representatives.update(zip(keys, words))
        return g
    key, mirrored = _canonical(handle, ev)
    keys, nbrs, words = _served(handle, key)
    if key != ev:
        if mirrored:
            words = [handle.mirror(w, len(key)) for w in words]
        if len(key) < len(ev):
            used = [a for a, c in enumerate(ev, 1) if c]
            words = [tuple(used[a - 1] for a in w) for w in words]
        if handle.saturates and max(ev) > 2:
            words = [_pad(w, ev) for w in words]
        keys = _Keys(words, lambda w: handle.format_form(handle.word_form(w)))
    if representatives is not None:
        representatives.update(zip(keys.read(), words))
    return ShiftGraph(handle.name, len(ev), ev, keys, list(nbrs))


def _canonical(handle: MonoidHandle, ev: Evaluation) -> tuple[Evaluation, bool]:
    """The evaluation ``ev`` is served from, and whether it is reversed.

    Unused symbols are dropped (a ``relabel_invariant`` record), counts capped
    at 2 (one that ``saturates``), and the lesser of the result and its
    reverse kept (one with a ``mirror``).
    """
    key = tuple(c for c in ev if c) if handle.relabel_invariant else ev
    if handle.saturates:
        key = tuple(min(c, 2) for c in key)
    if handle.mirror is not None and key[::-1] < key:
        return key[::-1], True
    return key, False


#: a form with more words is built uncached, as in a scan: a baxt entry grows
#: with its words, 0.48 MB for (2,2,2,1,1) and 3.8 MB for (2,2,2,2,2) (``tracemalloc``)
_CACHED_WORDS = 5040


def _served(handle: MonoidHandle, key: Evaluation):
    """``_canonical_graph`` of ``key``, through the cache when it has at most ``_CACHED_WORDS`` words."""
    build = _canonical_graph if multinomial(key) <= _CACHED_WORDS else _canonical_graph.__wrapped__
    return build(handle, key)


#: one record's census of the paper's table (rank 4, total <= 7) meets at most
#: 35 forms of at most 630 words, and taig's keeps stal's beside its own.  A
#: scan keeps none: a rank-6, total-9 one meets 253 forms with a count of 2
@lru_cache(maxsize=64)
def _canonical_graph(handle: MonoidHandle, key: Evaluation):
    """The keys, frozen rows and one word per class of a canonical evaluation with a count of 2.

    The keys, a ``_Keys`` every served graph shares, are formatted at most
    once, on first read.  The words are each class's first in the necklace
    stream.  A record with ``image_of`` maps that record's graph instead of
    forming necklaces: a class's word is kept from the finer class that
    first lands in it, so its ids, rows and words are its own build's.
    """
    if handle.image_of is not None:
        _, finer_nbrs, finer_words = _served(HANDLES[handle.image_of], key)
        return _image(handle, finer_nbrs, finer_words)
    words: list[Word] = []
    g = _build(handle, key, sum(key), words)
    return g.held, tuple(g.nbrs), tuple(words)


def _image(handle: MonoidHandle, nbrs: Sequence[array], words: Sequence[Word]):
    """``handle``'s graph on a finer record's classes, given by their rows and words.

    Each word is formed once; a class of ``handle`` takes the id, the word
    and the form of the first finer class in it.  Its row joins the rows of
    its finer classes, mapped, with the loop dropped: every member of a class
    lies in one finer class, so every edge comes from a finer edge.
    """
    word_form = handle.word_form
    table: dict = {}  # form -> id, in id order
    kept, ids = [], []
    for w in words:
        f = word_form(w)
        i = table.get(f)
        if i is None:
            i = table[f] = len(kept)
            kept.append(w)
        ids.append(i)
    rows: list[set[int]] = [set() for _ in kept]
    for i, row in zip(ids, nbrs):
        rows[i].update(map(ids.__getitem__, row))
    return _Keys(list(table), handle.format_form), tuple(_freeze(r - {i}) for i, r in enumerate(rows)), tuple(kept)


def _build(
    handle: MonoidHandle, ev: Evaluation, limit: int | None,
    representatives: list[Word] | None,
) -> ShiftGraph:
    """The graph of ``ev`` from the handle's ``class_graph``, or else from the necklaces.

    ``representatives`` gets one word per class, in id order.  Each class is
    formatted at most once: from its form, on first read of ``keys``, or from
    the word the ``class_graph`` gives for it, as it builds.
    """
    if handle.class_graph is not None:
        model = handle.class_graph(ev)
        keys = {w: handle.format_form(handle.word_form(w)) for w in model}
        if representatives is not None:
            representatives.extend(model)
        adj = {keys[w]: {keys[x] for x in nbrs} for w, nbrs in model.items()}
        return from_adjacency(handle.name, len(ev), ev, adj)
    rotation_forms = _rotation_forms(handle, ev)
    table: dict = {}  # form -> id, in id order
    # per class: the ids of its neighbours above it, repeats allowed, and the
    # length at which that list is next deduplicated
    larger: list[list[int]] = []
    dedup_at: list[int] = []
    for w in necklaces(ev, limit):
        rotations = []
        for f in rotation_forms(w):
            i = table.get(f)
            if i is None:
                i = table[f] = len(larger)
                larger.append([])
                dedup_at.append(_SLACK)
                if representatives is not None:
                    r = len(rotations)
                    representatives.append(w[r:] + w[:r])
            rotations.append(i)
        clique = sorted(set(rotations))
        for k, i in enumerate(clique[:-1], 1):
            ids = larger[i]
            ids += clique[k:]
            if len(ids) > dedup_at[i]:
                larger[i] = ids = list(set(ids))
                dedup_at[i] = 2 * len(ids) + _SLACK
    keys = _Keys(list(table), handle.format_form)
    del table
    # row i: its smaller neighbours, which the rows before it hand down in order, then its larger
    nbrs = [array("I") for _ in larger]
    for i, ids in enumerate(larger):
        ids = sorted(set(ids))
        for j in ids:
            nbrs[j].append(i)
        nbrs[i].extend(ids)
        larger[i] = None
    return ShiftGraph(handle.name, len(ev), ev, keys, nbrs)


def neighbors(handle: MonoidHandle, word: Word, rank: int, limit: int | None = None) -> set[str]:
    """Keys of every rotation of every class member (the class itself included).

    The members come from ``class_of``, a walk over the class alone; each
    rotation that is not a member is formed once.  A ``class_graph`` is asked
    for the word's class alone: that class and its neighbours.  The size
    guard runs before any word is formed, and only the answer is formatted.
    """
    ev = ev_of(word, rank)
    check_total(ev, limit)
    word_form = handle.word_form
    if handle.class_graph is not None:
        ((own, nbrs),) = handle.class_graph(ev, word_form(word)).items()
        return {handle.format_form(word_form(w)) for w in (own, *nbrs)}
    members = handle.class_of(word, rank, limit)
    rotated = {w[i:] + w[:i] for w in members for i in range(1, len(w))} - members
    forms = {word_form(word), *map(word_form, rotated)}
    return set(map(handle.format_form, forms))


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

    Every evaluation with one canonical form (``_canonical``) has the same
    graph up to the relabeling of its vertices (``evaluation_graph``), so the
    scan builds each form once, uncached and one at a time, and reads one row
    off it for all of them.
    """
    if distinct_up_to_relabeling and not handle.relabel_invariant:
        raise ValueError(f"{handle.name} is not invariant under relabeling")
    check_word((), rank)  # the alphabet check alone: a negative rank is refused
    evs = list(
        full_support_evaluations(rank, max_total)
        if distinct_up_to_relabeling
        else _evaluations(rank, max_total, full_support=False)
    )
    rows: dict[Evaluation, tuple] = {}  # canonical form -> its row's counts
    for key in (_canonical(handle, ev)[0] for ev in evs):
        if key not in rows:
            if max(key, default=0) < 2:
                g = _build(handle, key, max_total, None)
            else:
                keys, nbrs, _ = _canonical_graph.__wrapped__(handle, key)
                g = ShiftGraph(handle.name, len(key), key, keys, list(nbrs))
            comps = g.components()
            rows[key] = len(g.nbrs), len(comps), max((diameter(c) for c in comps), default=0), len(comps) <= 1
    return ScanReport(handle.name, rank, max_total, [ScanRow(ev, *rows[_canonical(handle, ev)[0]]) for ev in evs])


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
