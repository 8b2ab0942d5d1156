import pytest

from cycshift.handles import handle
from cycshift.paths import ShiftPath, check_path
from cycshift.shiftgraph import evaluation_graph, from_adjacency

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
