"""The shared tree helpers: postfix order, the sylvester postfix arrays, and the postfix key."""

from hypothesis import given
from hypothesis import strategies as st

from cycshift import baxter, sylvester, taiga
from cycshift.trees import Node, labels, postfix, serialize

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
    # the builder's arrays: position p is the p-th node in postfix order
    t = sylvester.right_bst(w)
    nodes = postfix(t)
    where = {id(x): p for p, x in enumerate(nodes)}
    for tree in (sylvester.PostfixTree(w), sylvester.PostfixTree(labels(t))):
        assert tree.labels == labels(t)
        assert tree.run(-1) == (0, 0)
        for p, node in enumerate(nodes):
            assert tree.left[p] == where.get(id(node.left), -1)
            assert tree.right[p] == where.get(id(node.right), -1)
            lo, hi = tree.run(p)
            assert [id(x) for x in nodes[lo:hi]] == [id(x) for x in postfix(node)]
            for q in range(len(nodes)):
                assert tree.contains(p, q) == (lo <= q < hi)
        for a in set(w):
            assert [nodes[p] for p in tree.occurrences(a)] == [x for x in reversed(nodes) if x.label == a]


@given(words)
def test_postfix_reading_rebuilds_the_sylvester_tree(w):
    # the builder keys a tree by its postfix labels, which is injective
    t = sylvester.right_bst(w)
    assert serialize(sylvester.right_bst(tuple(labels(t)))) == serialize(t)
