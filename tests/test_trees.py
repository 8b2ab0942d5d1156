"""The shared tree helpers: postfix order, its index, and the postfix key."""

from hypothesis import given
from hypothesis import strategies as st

from cycshift import baxter, sylvester, taiga
from cycshift.trees import Node, PostfixIndex, labels, postfix, serialize

words = st.lists(st.integers(1, 6), max_size=10).map(tuple)


def _recursive_postfix(node: Node | None) -> list[Node]:
    if node is None:
        return []
    return _recursive_postfix(node.left) + _recursive_postfix(node.right) + [node]


def _trees(w):
    pair = baxter.twin_pair(w)
    return [sylvester.right_bst(w), taiga.mult_bst(w), pair.left, pair.right]


@given(words)
def test_postfix_is_left_right_node(w):
    for root in _trees(w):
        assert [id(x) for x in postfix(root)] == [id(x) for x in _recursive_postfix(root)]


@given(words)
def test_index_runs_are_the_subtrees(w):
    for root in _trees(w):
        index = PostfixIndex(root)
        assert index.nodes == postfix(root)
        assert index.labels == labels(root)
        assert index.subtree_ids(None) == set()
        for p, node in enumerate(index.nodes):
            assert index.pos[id(node)] == p
            ids = {id(x) for x in postfix(node)}
            assert index.subtree_ids(node) == ids
            for x in index.nodes:
                assert index.contains(node, x) == (id(x) in ids)


@given(words)
def test_postfix_reading_rebuilds_the_sylvester_tree(w):
    # the builder keys a tree by its postfix labels, which is injective
    t = sylvester.right_bst(w)
    assert serialize(sylvester.right_bst(tuple(labels(t)))) == serialize(t)
