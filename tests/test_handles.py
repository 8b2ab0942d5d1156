"""The registry contract: every record's functions agree with one another."""

import dataclasses
import itertools
import json
import random

import pytest

from cycshift.handles import HANDLES, MonoidHandle, adjacent_swaps, handle
from cycshift.hypoplactic import QuasiRibbonTableau
from cycshift.paths import check_path
from cycshift.rewrite import presentation
from cycshift.shiftgraph import evaluation_graph, full_support_evaluations
from cycshift.words import format_word, words_with_evaluation

#: every word of rank <= 3 and length <= 5
WORDS = [w for n in range(6) for w in itertools.product((1, 2, 3), repeat=n)]


@pytest.mark.parametrize("name", list(HANDLES))
def test_record_functions_agree(name):
    h = HANDLES[name]
    for w in WORDS:
        el = h.element(w)
        assert h.key(el) == h.key_of(w), w
        json.dumps(h.to_json(el))
        assert isinstance(h.draw(el), str)
        if h.symbols is not None:
            h.check(el)
            assert sorted(h.symbols(el)) == sorted(w), w


def test_path_bounds_are_the_papers_laws():
    bounds = {name: h.path_bound(5) for name, h in HANDLES.items() if h.shift_path}
    assert bounds == {"hypo": 4, "sylv": 5, "stal": 3, "taig": 5}
    assert HANDLES["hypo"].path_bound(0) == 0
    assert [HANDLES["stal"].path_bound(n) for n in (1, 2, 5)] == [0, 1, 3]
    with pytest.raises(ValueError, match="no constructive shift path"):
        HANDLES["plac"].path_bound(5)


#: the abstract's table at n = 1..5 distinct symbols, as (lower, upper)
ABSTRACT_LAWS = {
    "plac": [(0, 0), (1, 1), (2, 3), (3, 5), (4, 7)],
    "hypo": [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)],
    "sylv": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
    "taig": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
    "stal": [(0, 0), (1, 1), (3, 3), (3, 3), (3, 3)],
}


def test_law_table_is_the_abstracts():
    assert {name for name, h in HANDLES.items() if h.law} == set(ABSTRACT_LAWS)
    for name, h in HANDLES.items():
        assert h.shift_path is None or h.law is not None, name
        if h.law:
            assert all(0 <= h.law(n)[0] <= h.law(n)[1] for n in range(1, 13)), name
    assert {name: [HANDLES[name].law(n) for n in range(1, 6)] for name in ABSTRACT_LAWS} == ABSTRACT_LAWS


def test_stal_paths_at_rank_two_take_at_most_one_step():
    """Two symbols make at most two classes, so ``path_bound(2)`` is 1, not 3."""
    h = HANDLES["stal"]
    for ev in itertools.product(range(1, 5), repeat=2):
        reps = {}
        graph = evaluation_graph(h, ev, representatives=reps)
        for comp in graph.components():
            for a, b in itertools.product(comp.vertices, repeat=2):
                path = h.shift_path(h.element(reps[a]), h.element(reps[b]))
                check_path(h, path, a, b, graph)  # at most path_bound(2) steps
                assert path.steps <= 1, (a, b)


def _plac_key(word):
    """Schensted row insertion with a linear scan for the bumped entry."""
    rows = []
    for a in word:
        for row in rows:
            j = next((j for j, b in enumerate(row) if b > a), None)
            if j is None:
                row.append(a)
                break
            a, row[j] = row[j], a
        else:
            rows.append([a])
    return "/".join(format_word(tuple(r)) for r in rows)


def _hypo_insert(rows, a):
    """Insert ``a`` into the quasi-ribbon rows, left to right."""
    if not rows:
        rows.append([a])
        return
    if a < rows[0][0]:
        rows.insert(0, [a])
        return
    if a >= rows[-1][-1]:
        rows[-1].append(a)
        return
    # last row whose first entry is <= a
    i = max(idx for idx, row in enumerate(rows) if row[0] <= a)
    row = rows[i]
    j = max(idx for idx, val in enumerate(row) if val <= a)
    if j < len(row) - 1:
        # split within the row: x and z horizontally adjacent
        rows[i : i + 1] = [row[: j + 1] + [a], row[j + 1 :]]
    else:
        # x at the end of row i, z starts row i+1: vertically adjacent
        row.append(a)


def _hypo_key(word):
    """Hypoplactic insertion, one symbol at a time."""
    rows = []
    for a in word:
        _hypo_insert(rows, a)
    return QuasiRibbonTableau(tuple(map(tuple, rows))).key()


def _stal_key(word):
    """Columns in the order of the rightmost occurrences, heights the counts."""
    last = {a: i for i, a in enumerate(word)}
    return "|".join(f"{a}^{word.count(a)}" for a in sorted(last, key=last.get))


def _bst_key(word, goes_left, merge=False):
    """Leaf insertion into nested lists ``[label, mult, left, right]``, then serialized.

    With ``merge`` an equal symbol raises the multiplicity instead of adding a node.
    """
    tree = [None]
    for a in word:
        holder, i = tree, 0
        while holder[i] is not None and not (merge and holder[i][0] == a):
            holder, i = holder[i], 2 if goes_left(a, holder[i][0]) else 3
        if holder[i] is None:
            holder[i] = [a, 1, None, None]
        else:
            holder[i][1] += 1

    def text(node):
        if node is None:
            return "-"
        head = f"{node[0]}^{node[1]}" if merge else str(node[0])
        return f"{head}({text(node[2])})({text(node[3])})"

    return text(tree[0])


def _sylv_key(word):
    """Right strict: right to left, an equal symbol goes left."""
    return _bst_key(reversed(word), lambda a, b: a <= b)


def _taig_key(word):
    """Right to left, an equal symbol raises the multiplicity."""
    return _bst_key(reversed(word), lambda a, b: a < b, merge=True)


def _baxt_key(word):
    """Left strict tree (left to right, an equal symbol goes right) and right strict tree."""
    return _bst_key(word, lambda a, b: a < b) + "|" + _sylv_key(word)


REFERENCE_KEYS = {
    "plac": _plac_key, "hypo": _hypo_key, "sylv": _sylv_key,
    "stal": _stal_key, "taig": _taig_key, "baxt": _baxt_key,
}

#: every word over 1..4 of length <= 7, then random words whose symbols reach 13
FORM_WORDS = [w for n in range(8) for w in itertools.product((1, 2, 3, 4), repeat=n)]
_rng = random.Random(13)
FORM_WORDS += [(13, 10, 2, 13), (10, 9, 11, 10)] + [
    tuple(_rng.randint(1, 13) for _ in range(_rng.randint(1, 10))) for _ in range(2000)
]


@pytest.mark.parametrize("name", list(REFERENCE_KEYS))
def test_formatted_form_is_the_key(name):
    h = HANDLES[name]
    reference = REFERENCE_KEYS[name]
    bad = [w for w in FORM_WORDS if not h.format_form(h.word_form(w)) == h.key(h.element(w)) == reference(w)]
    assert bad == []


@pytest.mark.parametrize("name", list(HANDLES))
def test_every_record_keys_through_its_form(name):
    """Every record sets both form functions: tuple forms, equal exactly when keys are.

    No record passes ``key_of``, so each one's is ``format_form(word_form(w))``.
    """
    h = HANDLES[name]
    key_of_form = {}
    for w in WORDS:
        form, key = h.word_form(w), h.key_of(w)
        assert isinstance(form, tuple) and h.format_form(form) == key, w
        key_of_form[form] = key
    assert len(set(key_of_form.values())) == len(key_of_form)
    # a record cannot leave them out
    with pytest.raises(TypeError, match="word_form"):
        MonoidHandle(name, h.element, h.key, h.draw, h.to_json)


def test_every_option_is_set_by_some_record():
    """A field with a default that every record leaves at it is an option nothing uses.

    ``key_of`` reads as set on every record, since ``__post_init__`` fills it in.
    """
    defaults = {f.name: f.default for f in dataclasses.fields(MonoidHandle)
                if f.default is not dataclasses.MISSING}
    assert defaults
    unused = [name for name, default in defaults.items()
              if all(getattr(h, name) == default for h in HANDLES.values())]
    assert unused == []


def test_replace_keeps_a_given_key_function():
    """perfbench's ``Tracer.handle`` swaps ``key_of`` for a timed copy this way."""
    h = HANDLES["sylv"]

    def f(w):
        return h.key_of(w)

    copy = dataclasses.replace(h, key_of=f)
    assert copy.key_of is f
    assert dataclasses.replace(h).key_of is h.key_of


#: every full-support evaluation of rank <= 4 and total <= 6; the records below are
#: relabel-invariant, so these words stand for every word of rank <= 4 and length <= 6
EVALUATIONS = [ev for k in range(5) for ev in full_support_evaluations(k, 6)]


@pytest.mark.parametrize("name", [name for name, h in HANDLES.items() if h.moves is adjacent_swaps])
def test_swap_walk_is_the_evaluation_filter(name):
    """``class_of``'s walk lists what a filter over the whole evaluation lists."""
    h = HANDLES[name]
    assert h.relabel_invariant
    for ev in EVALUATIONS:
        forms = {w: h.word_form(w) for w in words_with_evaluation(ev)}
        classes = {}
        for w, form in forms.items():
            classes.setdefault(form, set()).add(w)
        for w, form in forms.items():
            assert h.class_of(w, len(ev)) == classes[form], w


def test_counterexample_classes_are_not_swap_connected():
    """``234`` and ``342`` share a class that no class-keeping swap joins."""
    h = HANDLES["counterexample"]
    assert h.moves is not adjacent_swaps
    cls = h.class_of((2, 3, 4), 4)
    assert cls == {(2, 3, 4), (3, 4, 2)}
    for w in cls:
        swaps = {w[:i] + (w[i + 1], w[i]) + w[i + 2:] for i in range(len(w) - 1)}
        assert swaps.isdisjoint(cls), w
    # so a walk from 234 would miss 342
    assert dataclasses.replace(h, moves=adjacent_swaps).class_of((2, 3, 4), 4) == {(2, 3, 4)}


def test_counterexample_walk_is_the_closure():
    """The walk by the counterexample's relations lists the oracle's class of every word."""
    h, oracle = HANDLES["counterexample"], presentation("counterexample")
    for n in range(8):
        for w in itertools.product((1, 2, 3, 4), repeat=n):
            assert h.class_of(w, 4) == oracle.close(w, 7).members, w


def test_counterexample_walk_is_the_evaluation_filter():
    """The walk lists what a filter over the evaluation lists, on words of rank <= 4 and length <= 6."""
    h = HANDLES["counterexample"]
    # the evaluations' zero counts give the words of lower rank
    for ev in itertools.product(range(7), repeat=4):
        if sum(ev) > 6:
            continue
        classes = {}
        for w in words_with_evaluation(ev):
            classes.setdefault(h.word_form(w), set()).add(w)
        for members in classes.values():
            for w in members:
                assert h.class_of(w, 4) == members, w


def test_an_unknown_monoid_is_refused_by_name():
    with pytest.raises(ValueError, match="unknown monoid 'nope'; choose from"):
        handle("nope")
