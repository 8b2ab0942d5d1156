import hashlib

import pytest

from cycshift.handles import handle
from cycshift.paths import ShiftPath, check_path, follow
from cycshift.shiftgraph import evaluation_graph, from_adjacency, full_support_evaluations
from cycshift.stalactic import stalactic_tableau, word_form

SYLV = handle("sylv")
T, U = SYLV.element((1, 2)), SYLV.element((2, 1))
KT, KU = SYLV.key(T), SYLV.key(U)
GRAPH = evaluation_graph(SYLV, (1, 1))


def test_check_path_accepts_a_constructive_path():
    path = SYLV.shift_path(T, U)
    assert path.moves == (((1, 2), 1),)
    check_path(SYLV, path, KT, KU, GRAPH)


def test_check_path_rejects_wrong_endpoints():
    with pytest.raises(ValueError, match="runs"):
        check_path(SYLV, SYLV.shift_path(T, U), KU, KT)


def test_check_path_rejects_a_false_witness():
    with pytest.raises(ValueError, match="witness"):
        check_path(SYLV, ShiftPath((T, U), (((1, 2), 2),)), KT, KU)
    with pytest.raises(ValueError, match="witnesses"):
        check_path(SYLV, ShiftPath((T, U), ()), KT, KU)


def test_check_path_rejects_a_step_that_does_not_move():
    # the witness is right, (1, 2) keys to T before and after the empty shift
    still = ShiftPath((T, T), (((1, 2), 0),))
    for graph in (None, GRAPH):
        with pytest.raises(ValueError, match="does not move"):
            check_path(SYLV, still, KT, KT, graph)


def test_check_path_rejects_a_step_off_the_graph():
    # both endpoints are vertices, but not adjacent
    apart = from_adjacency("sylv", 2, (1, 1), {KT: (), KU: ()})
    with pytest.raises(ValueError, match="is not an edge"):
        check_path(SYLV, SYLV.shift_path(T, U), KT, KU, apart)


def test_check_path_rejects_a_step_to_a_vertex_off_the_graph():
    for keys in ([KT], [KU], []):
        graph = from_adjacency("sylv", 2, (1, 1), {k: () for k in keys})
        with pytest.raises(ValueError, match="is not an edge"):
            check_path(SYLV, SYLV.shift_path(T, U), KT, KU, graph)


def test_has_edge_answers_from_the_neighbour_arrays():
    for a in GRAPH.adjacency:
        for b in [*GRAPH.adjacency, "no such key"]:
            assert GRAPH.has_edge(a, b) == (b in GRAPH.adjacency[a])
            assert GRAPH.has_edge(b, a) == (b in GRAPH.adjacency[a])


def test_check_path_rejects_a_path_over_the_bound():
    moves = (((1, 2), 1), ((2, 1), 1), ((1, 2), 1))
    with pytest.raises(ValueError, match="exceed the bound 2"):
        check_path(SYLV, ShiftPath((T, U, T, U), moves), KT, KU, GRAPH)


def test_check_path_accepts_the_empty_path_of_every_monoid():
    for name in ("hypo", "sylv", "stal", "taig"):
        h = handle(name)
        empty = h.element(())
        check_path(h, h.shift_path(empty, empty), h.key(empty), h.key(empty))


@pytest.mark.parametrize("name", ["hypo", "sylv", "stal", "taig"])
def test_a_shift_path_starts_at_its_first_argument(name):
    h = handle(name)
    pairs = [((), ()), ((2, 1, 3), (2, 1, 3)), ((3, 3, 1, 2), (1, 2, 3, 3)), ((1, 3, 2, 1), (2, 1, 1, 3))]
    for w1, w2 in pairs:
        a, b = h.element(w1), h.element(w2)
        assert h.shift_path(a, b).elements[0] is a


def _follow(t_word, u_word, witnesses):
    return follow(stalactic_tableau(t_word), t_word, u_word, witnesses, word_form, stalactic_tableau)


def test_follow_walks_its_witnesses():
    path = _follow((1, 2, 3), (2, 3, 1), [((1, 2, 3), 1)])
    assert path.moves == (((1, 2, 3), 1),)
    assert path.elements == (stalactic_tableau((1, 2, 3)), stalactic_tableau((2, 3, 1)))


def test_follow_refuses_unequal_evaluations():
    with pytest.raises(ValueError, match="shift path requires equal evaluations"):
        _follow((1, 2), (2, 2), [])


def test_follow_refuses_a_witness_that_does_not_read_the_current_element():
    # 312 rotates to the target 231, but it does not represent the start 123
    with pytest.raises(AssertionError, match="does not read the current element"):
        _follow((1, 2, 3), (2, 3, 1), [((3, 1, 2), 2)])


def test_follow_refuses_a_walk_that_misses_its_target():
    with pytest.raises(AssertionError, match="did not reach its target"):
        _follow((1, 2, 3), (2, 3, 1), [])
    with pytest.raises(AssertionError, match="did not reach its target"):
        _follow((1, 2, 3), (2, 3, 1), [((1, 2, 3), 2)])


def test_follow_takes_no_step_for_a_witness_that_keeps_the_class():
    assert _follow((1, 2, 3), (1, 2, 3), [((1, 2, 3), 0)]).moves == ()
    # 121 and its rotation 211 are one stalactic class; its rotation 112 is another
    path = _follow((2, 1, 1), (1, 1, 2), [((1, 2, 1), 1), ((1, 2, 1), 0), ((1, 2, 1), 2)])
    assert path.moves == (((1, 2, 1), 2),)
    assert path.elements == (stalactic_tableau((2, 1, 1)), stalactic_tableau((1, 1, 2)))


#: every full-support evaluation of rank <= 4 and total <= 6, and the standard rank 5
PINNED_EVALUATIONS = [ev for k in range(5) for ev in full_support_evaluations(k, 6)] + [(1,) * 5]

PATH_DIGESTS = {
    "hypo": "12021179bf9de3e116b1885eb22a810525fd1c561dbe1260557e47184561c744",
    "stal": "7bf009fa43c8dc1ffdefd9c097f1c376cc5dcd043e1ad802386b5807826fff77",
}


@pytest.mark.parametrize("name", list(PATH_DIGESTS))
def test_hypo_and_stal_paths_are_pinned(name):
    # one sha256 over the moves and element keys of the path between every
    # two classes of a component: a change to the builder that alters any
    # path, even to another valid one, changes the digest
    h = handle(name)
    digest = hashlib.sha256()
    for ev in PINNED_EVALUATIONS:
        reps = {}
        graph = evaluation_graph(h, ev, representatives=reps)
        for comp in graph.components():
            elements = [h.element(reps[k]) for k in comp.vertices]
            for a in elements:
                for b in elements:
                    path = h.shift_path(a, b)
                    digest.update(repr((path.moves, [h.key(el) for el in path.elements])).encode())
    assert digest.hexdigest() == PATH_DIGESTS[name]
