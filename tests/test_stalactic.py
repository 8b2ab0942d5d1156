import itertools

import pytest

from cycshift.handles import handle
from cycshift.paths import check_path
from cycshift.rewrite import presentation
from cycshift.shiftgraph import evaluation_graph
from cycshift.stalactic import (
    StalacticTableau,
    component_key,
    conjugacy_witness,
    height_one_word,
    shift_path,
    stalactic_tableau,
)
from cycshift.words import parse_word, words_with_evaluation

key_of = handle("stal").key_of


def test_worked_tableau():
    t = stalactic_tableau(parse_word("361135112565"))
    assert t.columns == ((3, 2), (1, 4), (2, 1), (6, 2), (5, 3))
    assert key_of(parse_word("361135112565")) == "3^2|1^4|2^1|6^2|5^3"


def test_flat_form_keys_the_unchanged_columns():
    """The form is the column symbols right to left, then their heights; tableau and key read the same columns."""
    stal = handle("stal")
    words = [w for n in range(7) for w in itertools.product((1, 2, 3, 4), repeat=n)]
    for w in words:
        last = {a: i for i, a in enumerate(w)}  # each symbol's rightmost position
        order = tuple(sorted(last, key=last.get))
        columns = tuple((a, w.count(a)) for a in order)
        assert stalactic_tableau(w).columns == columns, w
        assert stal.word_form(w) == order[::-1] + tuple(h for _, h in reversed(columns)), w
        assert key_of(w) == stal.key(stal.element(w)) == "|".join(f"{a}^{h}" for a, h in columns), w


def test_insert():
    # words insert right to left: inserting a into the tableau of w gives that of (a,) + w
    assert stalactic_tableau((1, 2, 3)).columns == ((1, 1), (2, 1), (3, 1))
    assert stalactic_tableau((3, 2, 3)).columns == ((2, 1), (3, 2))


def test_distinct_word_single_row():
    t = stalactic_tableau((4, 1, 3))
    assert t.columns == ((4, 1), (1, 1), (3, 1))


def test_double_letter():
    assert stalactic_tableau((5, 5)).columns == ((5, 2),)


def test_validation():
    with pytest.raises(ValueError):
        StalacticTableau(((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        StalacticTableau(((1, 0),))


def test_height_one_word():
    assert height_one_word(stalactic_tableau(parse_word("361135112565"))) == (2,)
    assert height_one_word(stalactic_tableau((4, 1, 3))) == (4, 1, 3)
    assert height_one_word(stalactic_tableau(parse_word("1233"))) == (1, 2)


def test_component_key_invariant_under_rotation():
    for w in words_with_evaluation((2, 1, 1)):
        base = component_key(stalactic_tableau(w))
        for k in range(len(w)):
            assert component_key(stalactic_tableau(w[k:] + w[:k])) == base


def test_component_key_separates():
    a = stalactic_tableau(parse_word("123"))
    b = stalactic_tableau(parse_word("213"))
    assert component_key(a) != component_key(b)


def test_shift_path_trivial_and_errors():
    t = stalactic_tableau(parse_word("1233"))
    assert shift_path(t, t).steps == 0
    with pytest.raises(ValueError):
        shift_path(stalactic_tableau(parse_word("123")), stalactic_tableau(parse_word("213")))


def test_rank_two_paths_are_single_shifts():
    for ev in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        reps = {}
        for w in words_with_evaluation(ev):
            reps.setdefault(key_of(w), w)
        tabs = [stalactic_tableau(w) for w in reps.values()]
        for t in tabs:
            for u in tabs:
                if component_key(t) == component_key(u):
                    assert shift_path(t, u).steps <= 1


def test_component_of_1233_paths():
    reps = {}
    for w in words_with_evaluation((1, 1, 2)):
        reps.setdefault(key_of(w), w)
    tabs = [stalactic_tableau(w) for w in reps.values()]
    assert len(tabs) == 6
    groups = {}
    for t in tabs:
        groups.setdefault(component_key(t), []).append(t)
    stal = handle("stal")
    graph = evaluation_graph(stal, (1, 1, 2))
    for group in groups.values():
        for t in group:
            for u in group:
                path = shift_path(t, u)
                check_path(stal, path, t.key(), u.key(), graph)
                assert path.steps <= 3


def test_agreement_with_presentation():
    stal = presentation("stal")
    for w in words_with_evaluation((2, 2, 1)):
        cls = {v for v in words_with_evaluation((2, 2, 1)) if key_of(v) == key_of(w)}
        assert cls == set(stal.close(w).members)


def test_single_row_classes_are_singletons():
    stal = presentation("stal")
    for w in words_with_evaluation((1, 1, 1, 1)):
        assert stal.close(w).members == {w}


def test_conjugacy_witness_examples():
    g, h = conjugacy_witness((1, 2), (2, 1))
    assert g == (1, 2) and h == (2, 1)
    w = parse_word("1233")
    g, h = conjugacy_witness(w, w)
    assert g == h == (1, 2, 3)


def test_conjugacy_witness_requires_equal_evaluation():
    with pytest.raises(ValueError):
        conjugacy_witness((1, 2), (1, 1))
