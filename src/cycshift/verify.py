"""The acceptance suite: every check the CLI ``verify`` command runs.

Checks are deterministic and exact (integer combinatorics).  Each returns a
CheckResult; a criterion passes when all of its sub-checks pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable

from . import baxter, rewrite, stalactic
from .handles import MonoidHandle, handle
from .paths import check_path
from .rewrite import A_SYM, B_SYM, X_SYM, Y_SYM, in_factor_language, presentation, xy_cycle_invariant
from .shiftgraph import (
    ShiftGraph,
    component,
    diameter,
    diameter_scan,
    distance,
    evaluation_graph,
    full_support_evaluations,
)
from .words import Evaluation, Word, cocharge_seq, parse_word


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}{tail}"


def _check(name: str, passed: bool, detail: str, failure: str) -> CheckResult:
    """The check ``name``, described by ``detail`` when it passed and ``failure`` when not."""
    return CheckResult(name, passed, detail if passed else failure)


def _show(value) -> str:
    """``str(value)``, except that a set lists its elements in sorted order."""
    if isinstance(value, (set, frozenset)) and value:
        return "{" + ", ".join(repr(x) for x in sorted(value)) + "}"
    return str(value)


def _expect(name: str, got, want) -> CheckResult:
    return _check(name, got == want, f"= {_show(want)}",
                  f"got {_show(got)}, expected {_show(want)}")


# ---------------------------------------------------------------------------
# criterion 1: the worked cocharge sequence


def criterion_1() -> list[CheckResult]:
    got = cocharge_seq(parse_word("1246375"))
    return [_expect("c1 cocharge of 1246375", got, (0, 0, 0, 1, 1, 2, 2))]


# ---------------------------------------------------------------------------
# criterion 2: insertion vs presentation, exhaustively


def _all_words(rank: int, max_len: int) -> Iterable[Word]:
    for length in range(max_len + 1):
        yield from product(range(1, rank + 1), repeat=length)


def criterion_2() -> list[CheckResult]:
    max_len, rank = 6, 4
    out = []
    for name in ("plac", "hypo", "sylv", "stal", "taig", "baxt"):
        h = handle(name)
        oracle = presentation(name)
        key_to_canon: dict[tuple, Word] = {}
        canon_to_key: dict[tuple, str] = {}
        bad = 0
        for w in _all_words(rank, max_len):
            k = (tuple(sorted(w)), h.key_of(w))
            canon = oracle.close(w, max_len).canonical
            if key_to_canon.setdefault(k, canon) != canon:
                bad += 1
            if canon_to_key.setdefault((tuple(sorted(w)), canon), k[1]) != k[1]:
                bad += 1
        out.append(_check(f"c2 {name} insertion matches presentation", bad == 0,
                          f"words up to length {max_len}", f"{bad} discrepancies"))
    return out


# ---------------------------------------------------------------------------
# criterion 3: the four reference components


def criterion_3() -> list[CheckResult]:
    measures = {"vertices": lambda g: len(g.vertices), "edges": lambda g: g.edge_count,
                "diameter": diameter}
    out = []
    for name, word, rank, want in (
        ("plac", "12345", 5, {"vertices": 26, "diameter": 4}),
        # diameter catalogued as 4; the shift 123445 = (1234)(45) ~ (45)(1234) = 451234 crosses two inversion cuts
        ("hypo", "123445", 5, {"vertices": 16, "diameter": 3}),
        ("sylv", "1234", 4, {"vertices": 14, "diameter": 3}),
        # edges catalogued as 11; the singleton class of 3312 has degree 2, and 5 of the 15 pairs are not joined
        ("stal", "1233", 3, {"vertices": 6, "edges": 10, "diameter": 3}),
    ):
        g = component(handle(name), parse_word(word), rank)
        out += [_expect(f"c3 {name} component of {word}: {q}", measures[q](g), v) for q, v in want.items()]
    return out


# ---------------------------------------------------------------------------
# criterion 4: the summary table at desk scale


def criterion_4() -> list[CheckResult]:
    max_total = 7
    out = []
    reports: dict[tuple[str, int], object] = {}

    def scan(name: str, rank: int):
        key = (name, rank)
        if key not in reports:
            reports[key] = diameter_scan(
                handle(name), rank, max_total, distinct_up_to_relabeling=True
            )
        return reports[key]

    def max_diam_through(name: str, rank: int) -> int:
        # evaluations with unused symbols relabel to lower full-support ranks
        return max(scan(name, r).max_diameter for r in range(1, rank + 1))

    # exact laws must be met and ranges kept; plac's maximum is its range's lower end
    for name in ("hypo", "sylv", "taig", "stal", "plac"):
        for n in range(1 if name == "stal" else 2, 6):
            d, (lo, hi) = max_diam_through(name, n), handle(name).law(n)
            title = f"c4 {name} rank {n} max diameter"
            if name == "plac":
                out.append(_check(title, d == lo, f"= {d} = n-1 <= {hi}", f"{d}, expected {lo}"))
            elif lo == hi:
                out.append(_expect(title, d, lo))
            else:
                out.append(_check(title, lo <= d <= hi, f"= {d}, within [{lo},{hi}]",
                                  f"{d} outside [{lo},{hi}]"))
    for name in ("plac", "hypo", "sylv", "taig"):
        split = [n for n in range(2, 6) if not scan(name, n).all_single_component]
        out.append(_check(f"c4 {name} components = evaluation classes", not split,
                          "", f"splits at ranks {split}"))
    for name in ("stal", "baxt"):
        split = [n for n in range(3, 6) if not scan(name, n).all_single_component]
        out.append(_check(f"c4 {name} has split evaluations", split == [3, 4, 5],
                          f"ranks {split}", f"only at ranks {split}"))
    return out


# ---------------------------------------------------------------------------
# criterion 5: constructive paths


def _classes(h: MonoidHandle, ev: Evaluation) -> tuple[ShiftGraph, dict[str, object]]:
    """The evaluation's graph and one object per class, by class key."""
    reps: dict[str, Word] = {}
    g = evaluation_graph(h, ev, representatives=reps)
    return g, {k: h.element(w) for k, w in reps.items()}


def _pair_census(groups: Iterable[list], check: Callable, error: type) -> tuple[int, int]:
    """(bad, pairs) over the ordered pairs of each group; ``check`` raises ``error`` on a bad one."""
    bad = pairs = 0
    for group in groups:
        for a in group:
            for b in group:
                pairs += 1
                try:
                    check(a, b)
                except error:
                    bad += 1
    return bad, pairs


def _path_census(name: str, evs: Iterable[Evaluation]) -> tuple[int, int]:
    """(bad, pairs) over the shift paths between every two classes of one component.

    A path is bad when ``paths.check_path`` rejects it against its
    evaluation's graph.  A group lists each class of a component as its key,
    its object and the graph.
    """
    h = handle(name)

    def check(source, target):
        (a, el_a, g), (b, el_b, _) = source, target
        check_path(h, h.shift_path(el_a, el_b), a, b, g)

    groups = ([(k, elements[k], g) for k in comp.vertices]
              for g, elements in (_classes(h, ev) for ev in evs) for comp in g.components())
    return _pair_census(groups, check, ValueError)


def criterion_5() -> list[CheckResult]:
    out = []
    # standard elements, ranks 2..5 (the sylvester invariants are checked internally)
    for name, detail in (("hypo", ""), ("sylv", "internal invariants asserted")):
        for n in range(2, 6):
            bad, _ = _path_census(name, [(1,) * n])
            out.append(_check(f"c5 {name} paths rank {n}", bad == 0, detail, f"{bad} bad"))
    # every pattern of totals <= 6 up to rank 4
    evs = [ev for rank in range(1, 5) for ev in full_support_evaluations(rank, 6)]
    for name in ("stal", "taig"):
        bad, pairs = _path_census(name, evs)
        out.append(_check(f"c5 {name} paths", bad == 0,
                          f"{pairs} pairs, totals <= 6", f"{bad} of {pairs} bad"))
    return out


# ---------------------------------------------------------------------------
# criterion 6: row-to-column lower bounds


def criterion_6() -> list[CheckResult]:
    out = []
    for name in ("plac", "hypo", "sylv"):
        h = handle(name)
        for n in (3, 4, 5):
            row = tuple(range(1, n + 1))
            col = tuple(range(n, 0, -1))
            seq_row = cocharge_seq(row)
            seq_col = cocharge_seq(col)
            gap = max(abs(a - b) for a, b in zip(seq_row, seq_col))
            g = evaluation_graph(h, (1,) * n)
            d = distance(g, h.key_of(row), h.key_of(col))
            out.append(_check(f"c6 {name} rank {n} row/column", gap == h.law(n)[0] <= d,
                              f"cocharge gap {gap}, distance {d}", f"gap {gap}, distance {d}"))
    return out


# ---------------------------------------------------------------------------
# criterion 7: Baxter structure


def criterion_7() -> list[CheckResult]:
    out = []
    h = handle("baxt")
    got = h.class_of(parse_word("2431"), 4)
    out.append(_expect("c7 readings of the 2431 pair", got, {parse_word("2431")}))
    for word, members, outsider in (("123", ("123", "231", "312"), "132"),
                                    ("1243", ("1243", "2431", "4312", "3124"), "1234")):
        g = component(h, parse_word(word), len(word))
        want = {h.key_of(parse_word(w)) for w in members}
        out.append(_expect(f"c7 component of {word}", set(g.vertices), want))
        outside = h.key_of(parse_word(outsider)) not in g.adjacency
        out.append(_check(f"c7 {outsider} outside the {word} component", outside, "", "it is inside"))
    return out


# ---------------------------------------------------------------------------
# criterion 8: the unbounded-diameter monoid


def _factor_words(max_len: int) -> list[Word]:
    """All products of a, b, xy, yx with one a and one b, up to ``max_len``."""
    out = []
    for k in range((max_len - 2) // 2 + 1):
        for factors in product(((X_SYM, Y_SYM), (Y_SYM, X_SYM)), repeat=k):
            for pa in range(k + 1):
                with_a = factors[:pa] + ((A_SYM,),) + factors[pa:]
                for pb in range(k + 2):
                    out.append(sum(with_a[:pb] + ((B_SYM,),) + with_a[pb:], ()))
    return out


def criterion_8() -> list[CheckResult]:
    out = []
    h = handle("counterexample")
    oracle = presentation("counterexample")
    for alpha in (2, 3, 4):
        w1 = (A_SYM,) + (X_SYM, Y_SYM) * alpha + (B_SYM,)
        w2 = (B_SYM,) + (Y_SYM, X_SYM) * alpha + (A_SYM,)
        g = evaluation_graph(h, (1, 1, alpha, alpha))
        try:
            d = distance(g, h.key_of(w1), h.key_of(w2))
        except ValueError:
            out.append(_check(f"c8 alpha={alpha} connectivity", False, "", "classes not connected"))
            continue
        out.append(_check(f"c8 alpha={alpha} distance", d >= alpha - 1,
                          f"= {d} >= {alpha - 1}", f"{d} < {alpha - 1}"))
        bad_edges = 0
        for a, b in g.edges():
            wa, wb = parse_word(a), parse_word(b)
            if in_factor_language(wa) and in_factor_language(wb):
                if abs(xy_cycle_invariant(wa) - xy_cycle_invariant(wb)) > 1:
                    bad_edges += 1
        out.append(_check(f"c8 alpha={alpha} invariant edge bound", bad_edges == 0,
                          "", f"{bad_edges} bad edges"))
    bad = 0
    for w in _factor_words(10):
        mu = xy_cycle_invariant(w)
        cls = oracle.close(w)
        if any(
            not in_factor_language(m) or xy_cycle_invariant(m) != mu for m in cls.members
        ):
            bad += 1
    out.append(_check("c8 invariant constant on classes", bad == 0,
                      "lengths <= 10", f"{bad} classes vary"))
    return out


# ---------------------------------------------------------------------------
# criterion 9: conjugacy witnesses


def criterion_9() -> list[CheckResult]:
    out = []
    stal = handle("stal")
    groups = ([t.reading() for t in _classes(stal, ev)[1].values()]
              for rank in range(1, 5) for ev in full_support_evaluations(rank, 6))
    bad, pairs = _pair_census(groups, stalactic.conjugacy_witness, AssertionError)
    out.append(_check("c9 stal witnesses", bad == 0,
                      f"{pairs} element pairs, totals <= 6", f"{bad} of {pairs} bad"))
    by_ev: dict[tuple, list[Word]] = {}
    for w in _all_words(4, 4):
        by_ev.setdefault(tuple(sorted(w)), []).append(w)
    bad, pairs = _pair_census(by_ev.values(), baxter.conjugacy_witness, AssertionError)
    out.append(_check("c9 baxt witnesses", bad == 0,
                      f"{pairs} word pairs, lengths <= 4", f"{bad} of {pairs} bad"))
    return out


# ---------------------------------------------------------------------------
# criterion 10: randomized invariant suite


def _random_words(count: int, max_len: int, rank: int, seed: int) -> list[Word]:
    rng = random.Random(seed)
    return [
        tuple(rng.randint(1, rank) for _ in range(rng.randint(0, max_len)))
        for _ in range(count)
    ]


def criterion_10() -> list[CheckResult]:
    count = 10_000
    words = _random_words(count, max_len=10, rank=8, seed=20260808)
    out = []
    for name in ("plac", "hypo", "sylv", "stal", "taig", "baxt"):
        h = handle(name)
        bad = 0
        moves = rewrite.PRESENTATIONS[name]
        for w in words:
            try:
                el = h.element(w)
                h.check(el)
                if sorted(h.symbols(el)) != sorted(w):
                    bad += 1
                for w2 in moves(w):
                    if sorted(w2) != sorted(w):
                        bad += 1
            except (ValueError, AssertionError):
                bad += 1
        out.append(_check(f"c10 {name} invariants", bad == 0,
                          f"{count} random words", f"{bad} violations"))
    return out


# ---------------------------------------------------------------------------
# driver


CRITERIA: dict[int, Callable[[], list[CheckResult]]] = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}


def run(numbers: Iterable[int] | None = None) -> bool:
    """Run the selected criteria (all by default); True when everything passed."""
    selected = sorted(set(numbers)) if numbers else sorted(CRITERIA)
    unknown = [n for n in selected if n not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; choose from {sorted(CRITERIA)}")
    all_ok = True
    for n in selected:
        results = CRITERIA[n]()
        ok = all(r.passed for r in results)
        all_ok = all_ok and ok
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'}")
        for r in results:
            print(f"  {r.line()}")
    return all_ok
