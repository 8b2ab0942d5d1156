import pytest

from cycshift.handles import handle
from cycshift.hypoplactic import (
    QuasiRibbonTableau,
    quasi_ribbon,
    shift_path,
)
from cycshift.paths import check_path
from cycshift.rewrite import presentation
from cycshift.shiftgraph import diameter, evaluation_graph, full_support_evaluations
from cycshift.words import parse_word, words_with_evaluation

QRT = quasi_ribbon(parse_word("113246546"))


def test_insert_examples():
    # inserting a into the tableau of w gives the tableau of w + (a,)
    assert quasi_ribbon((4,)).rows == ((4,),)
    assert quasi_ribbon((1, 2, 3)).rows == ((1, 2, 3),)
    assert quasi_ribbon((3, 1, 2)).rows == ((1, 2), (3,))


def test_worked_tableau_and_readings():
    assert QRT.rows == ((1, 1, 2), (3, 4, 4), (5,), (6, 6))
    assert QRT.offsets == (0, 2, 4, 4)
    assert QRT.column_reading() == parse_word("113246546")
    assert QRT.row_reading() == parse_word("665344112")
    assert quasi_ribbon(parse_word("665344112")) == QRT


def test_readings_insert_back():
    for w in words_with_evaluation((2, 1, 2)):
        t = quasi_ribbon(w)
        assert quasi_ribbon(t.column_reading()) == t
        assert quasi_ribbon(t.row_reading()) == t


def test_single_row_and_column_readings():
    row = quasi_ribbon((1, 1, 3))
    assert row.column_reading() == row.row_reading() == (1, 1, 3)
    # a single column reads bottom to top either way
    col = quasi_ribbon((3, 2, 1))
    assert col.rows == ((1,), (2,), (3,))
    assert col.column_reading() == col.row_reading() == (3, 2, 1)


def test_weakly_increasing_word_is_single_row():
    assert quasi_ribbon((1, 2, 2, 4)).rows == ((1, 2, 2, 4),)


def test_validation():
    with pytest.raises(ValueError):
        QuasiRibbonTableau(((2, 1),))
    with pytest.raises(ValueError):
        QuasiRibbonTableau(((1, 3), (3, 4)))  # overlap column not strict
    for rows in (((),), ((1,), ())):
        with pytest.raises(ValueError, match="rows must be non-empty"):
            QuasiRibbonTableau(rows)


def test_agreement_with_presentation():
    hypo = presentation("hypo")
    for w in words_with_evaluation((2, 1, 1)):
        assert handle("hypo").class_of(w, 3) == set(hypo.close(w).members)


def test_worked_path():
    t = quasi_ribbon(parse_word("244135"))
    u = quasi_ribbon(parse_word("135244"))
    assert t.rows == ((1,), (2, 3), (4, 4, 5))
    assert u.rows == ((1, 2), (3, 4, 4), (5,))
    path = shift_path(t, u)
    assert path.elements[0] == t and path.elements[-1] == u
    assert path.steps == 4
    keys = [
        "0:1/0:23/1:445",
        "0:123/2:445",
        "0:12/1:3/1:445",
        "0:12/1:3445",
        "0:12/1:344/3:5",
    ]
    assert [el.key() for el in path.elements] == keys


def test_trivial_path():
    t = quasi_ribbon(parse_word("1223"))
    path = shift_path(t, t)
    assert path.elements == (t,)
    assert path.steps == 0


def test_path_requires_equal_evaluation():
    with pytest.raises(ValueError):
        shift_path(quasi_ribbon((1, 2)), quasi_ribbon((1, 1)))


def test_paths_standard_rank_5():
    hypo = handle("hypo")
    reps = {}
    for w in words_with_evaluation((1, 1, 1, 1, 1)):
        reps.setdefault(hypo.key_of(w), w)
    assert len(reps) == 16
    graph = evaluation_graph(hypo, (1, 1, 1, 1, 1))
    for kt, wt in reps.items():
        for ku, wu in reps.items():
            path = shift_path(quasi_ribbon(wt), quasi_ribbon(wu))
            check_path(hypo, path, kt, ku, graph)
            assert path.steps <= 4


@pytest.mark.parametrize(
    "ev, limit, classes, edges, diam",
    [
        ((1,) * 8, None, 128, None, 7),
        ((1,) * 9, None, 256, 6305, 8),  # the necklace engine's edge count
        ((1,) * 10, None, 512, None, 9),
        ((2,) * 8, 16, 128, None, 3),
    ],
)
def test_diameter_law_past_word_enumeration(ev, limit, classes, edges, diam):
    # the row-break model builds these graphs without enumerating their words
    g = evaluation_graph(handle("hypo"), ev, limit)
    assert len(g.adjacency) == classes and len(g.components()) == 1
    assert edges is None or g.edge_count == edges
    assert diameter(g) == diam


def test_every_step_changes_one_row_start():
    # each step settles one pair (i, i+1), so a path takes at most n - 1 steps
    hypo = handle("hypo")
    evs = [ev for k in range(5) for ev in full_support_evaluations(k, 6)] + [(1,) * 6]
    steps = 0
    for ev in evs:
        reps = {}
        evaluation_graph(hypo, ev, representatives=reps)
        elements = [quasi_ribbon(w) for w in reps.values()]
        for t in elements:
            for u in elements:
                path = shift_path(t, u)
                for a, b in zip(path.elements, path.elements[1:]):
                    assert len({row[0] for row in a.rows} ^ {row[0] for row in b.rows}) == 1
                steps += path.steps
    assert steps == 4350
