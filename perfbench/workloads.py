"""The four benchmark workloads: inputs from a seed, the timed ops, the checks.

Each workload is a list of ``Op``s.  ``run`` is the timed call into the
public ``cycshift`` API; ``check`` runs after the timed section and compares
the op's output with a reference that does not come from the code under test
(closed-form counts, the paper's diameter laws, the BFS graph, the rewriting
oracle).  A check returns an error string or None, plus exact facts that the
child process sums (path steps, BFS distances).

Why these workloads:

- census: the paper's summary table (``scan --distinct``), one op per row;
  loads enumeration, keys and graph assembly, and mostly skips diameter.
  Exhaustive: the seed has no effect.
- deep: one large standard graph per monoid, split into build, components
  and diameters; all-pairs BFS and per-word dict memory dominate.
  Exhaustive.
- paths: seeded word pairs through the constructive ``shift_path`` functions;
  the graph engine stays cold (graphs are built only by the check).
- queries: seeded point lookups as the CLI makes them (neighbors, component,
  diameter, distance) plus the rewriting-oracle cross-check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable

from cycshift import hypoplactic, rewrite, shiftgraph, stalactic, sylvester, taiga
from cycshift.words import multinomial

#: explicit enumeration limit for every call; the largest total used is 8
LIMIT = 8


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str | None, dict]]


class Hooks:
    """What the workloads call through; the traced run substitutes timed versions."""

    def __init__(self, handle: Callable, wrap: Callable = lambda name, fn: fn):
        self.handle = handle
        self.wrap = wrap


# ---------------------------------------------------------------------------
# independent references


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def involutions(n: int) -> int:
    a, b = 1, 1  # a(0), a(1)
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b if n else a


def baxter_number(n: int) -> int:
    m = n + 1
    top = sum(comb(m, k - 1) * comb(m, k) * comb(m, k + 1) for k in range(1, n + 1))
    return top // (comb(m, 1) * comb(m, 2))


def diameter_law(name: str, n: int) -> int | None:
    """The paper's bound on component diameters, n = number of distinct symbols."""
    return {"hypo": n - 1, "sylv": n, "taig": n, "stal": 3}.get(name)


def compositions(total: int, parts: int):
    """Every tuple of ``parts`` positive integers summing to ``total``."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _problems(*pairs: tuple[bool, str]) -> str | None:
    bad = [msg for ok, msg in pairs if not ok]
    return "; ".join(bad) if bad else None


# ---------------------------------------------------------------------------
# census


def census(seed: int, smoke: bool, hooks: Hooks) -> tuple[list[Op], dict]:
    """One op per row of the ``scan --distinct`` table, i.e. diameter_scan's loop body."""
    rank, total = (3, 5) if smoke else (4, 7)
    evs = sorted(ev for t in range(rank, total + 1) for ev in compositions(t, rank))
    law_n = rank  # full support: every symbol occurs
    ops = []
    for name in ("plac", "hypo", "sylv", "taig", "stal"):
        h = hooks.handle(name)
        law = diameter_law(name, law_n)
        for ev in evs:

            def run(h=h, ev=ev):
                g = shiftgraph.evaluation_graph(h, ev, LIMIT)
                comps = g.components()
                return len(g.adjacency), len(comps), max(shiftgraph.diameter(c) for c in comps)

            def check(row, name=name, ev=ev, law=law):
                classes, components, diam = row
                singles = sum(1 for c in ev if c == 1)
                return _problems(
                    (law is None or diam <= law, f"diameter {diam} > {law}"),
                    (name == "stal" or components == 1, "evaluation splits"),
                    (name != "hypo" or classes == 2 ** (rank - 1), "hypo classes != 2^(n-1)"),
                    (name != "taig" or classes == catalan(rank), "taig classes != Catalan"),
                    (name != "stal" or classes == factorial(rank), "stal classes != n!"),
                    (
                        name != "stal" or components == factorial(max(singles - 1, 0)),
                        "stal components != (singles-1)!",
                    ),
                ), {"classes": classes}

            ops.append(Op(f"census {name} {ev}", run, check))
    words = sum(multinomial(ev) for ev in evs)
    return ops, {"rank": rank, "max_total": total, "evaluations": len(evs), "words_per_monoid": words}


# ---------------------------------------------------------------------------
# deep


def deep(seed: int, smoke: bool, hooks: Hooks) -> tuple[list[Op], dict]:
    """Three ops per monoid on the standard evaluation: build, split, diameters."""
    n = 5 if smoke else 7
    ev = (1,) * n
    classes = {
        "plac": involutions(n),
        "sylv": catalan(n),
        "stal": factorial(n),
        "baxt": baxter_number(n),
    }
    components = {"plac": 1, "sylv": 1, "stal": factorial(n - 1)}
    state: dict = {}
    ops = []
    for name in classes:
        h = hooks.handle(name)
        law = diameter_law(name, n)

        def build(h=h):
            state["graph"] = shiftgraph.evaluation_graph(h, ev, LIMIT)
            return len(state["graph"].adjacency)

        def split():
            state["components"] = state.pop("graph").components()
            return sorted(len(c.adjacency) for c in state["components"])

        def diameters():
            return [shiftgraph.diameter(c) for c in state.pop("components")]

        def check_build(count, name=name):
            return _problems((count == classes[name], f"{count} classes, expected {classes[name]}")), {
                "classes": count
            }

        def check_split(sizes, name=name):
            return _problems(
                (sum(sizes) == classes[name], "components do not partition the classes"),
                (name not in components or len(sizes) == components[name],
                 f"{len(sizes)} components, expected {components.get(name)}"),
            ), {}

        def check_diameters(diams, law=law):
            return _problems((law is None or all(d <= law for d in diams), f"a diameter exceeds {law}")), {}

        ops += [
            Op(f"deep {name} build", build, check_build),
            Op(f"deep {name} components", split, check_split),
            Op(f"deep {name} diameters", diameters, check_diameters),
        ]
    return ops, {"rank": n, "words_per_monoid": factorial(n), "classes": classes}


# ---------------------------------------------------------------------------
# paths

#: handle name -> (module, element from a word, element key)
PATH_MONOIDS = {
    "hypo": (hypoplactic, hypoplactic.quasi_ribbon, lambda el: el.key()),
    "sylv": (sylvester, sylvester.right_bst, sylvester.key),
    "taig": (taiga, taiga.mult_bst, taiga.key),
    "stal": (stalactic, stalactic.stalactic_tableau, lambda el: el.key()),
}


def _shuffled(rng: random.Random, ev) -> tuple[int, ...]:
    word = [s + 1 for s, c in enumerate(ev) for _ in range(c)]
    rng.shuffle(word)
    return tuple(word)


def _stal_partner(rng: random.Random, word) -> tuple[int, ...]:
    """A random element with the same stalactic component key as ``word``.

    The key is the rotation class of the height-1 columns plus the multiset
    of columns, so rotate the single columns and drop the taller ones in
    anywhere.
    """
    cols = stalactic.stalactic_tableau(word).columns
    singles = [c for c in cols if c[1] == 1]
    taller = [c for c in cols if c[1] > 1]
    r = rng.randrange(len(singles)) if singles else 0
    order = singles[r:] + singles[:r]
    rng.shuffle(taller)
    for c in taller:
        order.insert(rng.randrange(len(order) + 1), c)
    partner = stalactic.StalacticTableau(tuple(order)).reading()
    if stalactic.component_key(stalactic.stalactic_tableau(partner)) != stalactic.component_key(
        stalactic.stalactic_tableau(word)
    ):
        raise RuntimeError("stalactic partner left the component")
    return partner


def paths(seed: int, smoke: bool, hooks: Hooks) -> tuple[list[Op], dict]:
    if smoke:
        evs, per_ev = [(1, 1, 1), (1, 2, 1)], {"hypo": 3, "sylv": 3, "taig": 3, "stal": 3}
    else:
        # standard ranks 6 and 7, and repeated letters at total 8.  The sylvester
        # construction (shared by taiga) takes ~1 ms a pair, hypo and stal ~0.1 ms: an
        # even mix would put the median op exactly in the gap between the two.
        evs = [(1,) * 6, (1,) * 7, (2, 1, 1, 1, 2, 1), (1, 2, 2, 1, 2), (3, 1, 2, 2)]
        per_ev = {"hypo": 25, "sylv": 75, "taig": 75, "stal": 25}
    rng = random.Random(seed)
    graphs: dict = {}

    def graph(name, ev):
        if (name, ev) not in graphs:
            graphs[name, ev] = shiftgraph.evaluation_graph(hooks.handle(name), ev, LIMIT)
        return graphs[name, ev]

    ops = []
    for name, (module, build, key) in PATH_MONOIDS.items():
        shift_path = hooks.wrap(module.__name__.split(".")[-1] + ".shift_path", module.shift_path)
        h = hooks.handle(name)
        for ev in evs:
            n = sum(1 for c in ev if c)
            bound = diameter_law(name, n)
            for _ in range(per_ev[name]):
                w1 = _shuffled(rng, ev)
                w2 = _stal_partner(rng, w1) if name == "stal" else _shuffled(rng, ev)
                e1, e2 = build(w1), build(w2)

                def check(path, name=name, ev=ev, w1=w1, w2=w2, key=key, h=h, bound=bound):
                    g = graph(name, ev)
                    keys = [key(el) for el in path.elements]
                    a, b = h.key_of(w1), h.key_of(w2)
                    facts = {"pairs": 1, "steps": path.steps, f"{name}.steps": path.steps}
                    if keys[0] != a or keys[-1] != b:
                        return "wrong endpoints", facts
                    for (uv, k), x, y in zip(path.moves, keys, keys[1:]):
                        if h.key_of(uv) != x or h.key_of(uv[k:] + uv[:k]) != y:
                            return f"step witness {uv}|{k} does not join {x} and {y}", facts
                        if y not in g.adjacency[x]:
                            return f"step {x} -> {y} is not an edge", facts
                    d = shiftgraph.distance(g, a, b)
                    facts[f"{name}.distance"] = d
                    return _problems(
                        (path.steps <= bound, f"{path.steps} steps exceeds bound {bound}"),
                        (path.steps >= d, f"{path.steps} steps is below the BFS distance {d}"),
                    ), facts

                ops.append(Op(f"paths {name} {ev}", lambda f=shift_path, x=e1, y=e2: f(x, y), check))
    return ops, {"pairs": len(ops), "evaluations": [list(ev) for ev in evs], "pairs_per_evaluation": per_ev}


# ---------------------------------------------------------------------------
# queries


def _walk(rng: random.Random, name: str, word, rounds: int = 4):
    """A word in the same component: random relations of the presentation, then a rotation."""
    moves = rewrite.PRESENTATIONS[name]
    for _ in range(rounds):
        for _ in range(2):
            options = list(moves(word))
            if options:
                word = rng.choice(options)
        k = rng.randrange(len(word) + 1)
        word = word[k:] + word[:k]
    return word


def queries(seed: int, smoke: bool, hooks: Hooks) -> tuple[list[Op], dict]:
    if smoke:
        evs, alphas = [(1, 2, 1), (2, 1, 1)], [1, 2]
    else:
        # length 6, rank 4 and 5: 15 evaluations, small enough that a repetition
        # takes about a second and each op is timed in many fresh interpreters
        evs = list(compositions(6, 4)) + list(compositions(6, 5))
        alphas = [1 + i % 3 for i in range(10)]
    rng = random.Random(seed)
    cases = [(name, ev) for ev in evs for name in ("plac", "hypo", "sylv", "stal", "taig", "baxt")]
    cases += [("counterexample", (1, 1, a, a)) for a in alphas]
    ops = []
    for name, ev in cases:
        h = hooks.handle(name)
        rank = len(ev)
        w1 = _shuffled(rng, ev)
        w2 = _walk(rng, name, w1)

        def run(h=h, name=name, w1=w1, w2=w2, rank=rank):
            nb = shiftgraph.neighbors(h, w1, rank, LIMIT)
            comp = shiftgraph.component(h, w1, rank, LIMIT)
            diam = shiftgraph.diameter(comp)
            dist = shiftgraph.distance(comp, h.key_of(w1), h.key_of(w2))
            closed = rewrite.presentation(name).close(w1, LIMIT)
            members = h.class_of(w1, rank, LIMIT)
            return nb, set(comp.adjacency), diam, dist, closed.members, members

        def check(result, h=h, name=name, w1=w1, w2=w2, ev=ev):
            nb, vertices, diam, dist, closed, members = result
            k1, k2 = h.key_of(w1), h.key_of(w2)
            oracle = {h.key_of(c.canonical) for c in rewrite.presentation(name).word_neighbors(w1, LIMIT)}
            law = diameter_law(name, sum(1 for c in ev if c))
            return _problems(
                (set(closed) == members, "oracle closure differs from the insertion class"),
                (nb == oracle, "neighbors differ from the oracle's"),
                (nb <= vertices and k1 in vertices and k2 in vertices, "component misses a neighbor"),
                (0 <= dist <= diam and (dist == 0) == (k1 == k2), f"distance {dist} vs diameter {diam}"),
                (law is None or diam <= law, f"diameter {diam} exceeds {law}"),
            ), {"answer_vertices": len(vertices)}

        ops.append(Op(f"queries {name} {ev}", run, check))
    return ops, {"queries": len(ops), "evaluations": len(evs), "counterexample_queries": len(alphas)}


WORKLOADS = {"census": census, "deep": deep, "paths": paths, "queries": queries}

