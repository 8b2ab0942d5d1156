"""The shared tree helpers: postfix order, the sylvester postfix arrays, and the postfix key."""

import itertools
import operator

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


def _shapes(n):
    """Every binary tree shape on ``n`` nodes, as nested ``(left, right)`` pairs; None is empty."""
    if n == 0:
        yield None
        return
    for k in range(n):
        for left in _shapes(k):
            for right in _shapes(n - 1 - k):
                yield left, right


def _build(shape):
    return None if shape is None else Node(0, 0, _build(shape[0]), _build(shape[1]))


def _every_tree(max_nodes, symbols, mults=(1,)):
    """Every tree of at most ``max_nodes`` nodes, each node given every label and multiplicity.

    A shape's nodes are built once and relabelled in place, so a caller must
    be done with each tree before it asks for the next.
    """
    for n in range(max_nodes + 1):
        for shape in _shapes(n):
            root = _build(shape)
            nodes = postfix(root)
            for labs in itertools.product(symbols, repeat=n):
                for ms in itertools.product(mults, repeat=n):
                    for x, a, m in zip(nodes, labs, ms):
                        x.label, x.mult = a, m
                    yield root


def _ordered(root, left_ok, right_ok):
    """Whether ``left_ok(y, x)`` holds for each label x and each label y below it
    on the left, and ``right_ok(y, x)`` for each y below it on the right."""
    return all(
        all(left_ok(y.label, x.label) for y in postfix(x.left))
        and all(right_ok(y.label, x.label) for y in postfix(x.right))
        for x in postfix(root)
    )


def _accepts(check, root):
    try:
        check(root)
    except ValueError:
        return False
    return True


def test_check_right_strict_accepts_exactly_the_ordered_trees():
    # every tree of at most 5 nodes over 1..3 (11,497 trees)
    accepted = set()
    for root in _every_tree(5, (1, 2, 3)):
        naive = _ordered(root, operator.le, operator.gt)
        assert _accepts(sylvester.check_right_strict, root) == naive, serialize(root)
        if naive:
            accepted.add(serialize(root))
    # and the ordered trees are the insertions of the words
    inserted = {serialize(sylvester.right_bst(w))
                for n in range(6) for w in itertools.product((1, 2, 3), repeat=n)}
    assert accepted == inserted


def test_check_mult_bst_accepts_exactly_the_strictly_ordered_trees_with_positive_multiplicities():
    # every tree of at most 4 nodes over 1..3 with multiplicities 0..2 (95,671
    # trees), and every tree of 5 nodes with multiplicity 1; the 2.48 million
    # trees of 5 nodes with multiplicities 0..2 would take about 20 s
    trees = itertools.chain(_every_tree(4, (1, 2, 3), (0, 1, 2)), _every_tree(5, (1, 2, 3)))
    for root in trees:
        naive = _ordered(root, operator.lt, operator.gt) and all(x.mult > 0 for x in postfix(root))
        assert _accepts(taiga.check_mult_bst, root) == naive, serialize(root, with_mult=True)
