import hashlib
import random

import pytest

from cycshift.handles import handle
from cycshift.paths import check_path
from cycshift.rewrite import presentation
from cycshift.shiftgraph import evaluation_graph
from cycshift.sylvester import (
    Node,
    PostfixTree,
    check_right_strict,
    classify_nodes,
    key,
    right_bst,
    shift_path,
    traversal_plan,
)
from cycshift.trees import labels, postfix, serialize
from cycshift.words import format_word, parse_word, words_with_evaluation

BSTEG = parse_word("5451761524")
SYLV = handle("sylv")


def test_insert_examples():
    assert key(right_bst((3,))) == "3(-)(-)"
    assert key(right_bst((1, 2))) == "2(1(-)(-))(-)"


def test_worked_tree_and_second_reading():
    t = right_bst(BSTEG)
    assert key(t) == "4(2(1(1(-)(-))(-))(4(-)(-)))(5(5(5(-)(-))(-))(6(-)(7(-)(-))))"
    assert key(right_bst(parse_word("1571456254"))) == key(t)


def test_row_and_column_words():
    assert key(right_bst((1, 2, 3))) == "3(2(1(-)(-))(-))(-)"
    assert key(right_bst((3, 2, 1))) == "1(-)(2(-)(3(-)(-)))"


def test_readings():
    assert SYLV.class_of((3,), 3) == {(3,)}
    assert SYLV.class_of((1, 2), 2) == {(1, 2)}


def test_validation_catches_bad_trees():
    bad = Node(2, left=Node(3))
    with pytest.raises(ValueError):
        check_right_strict(bad)
    # equal label with a right subtree below the uppermost occurrence
    bad2 = Node(5, left=Node(5, left=None, right=Node(6)))
    with pytest.raises(ValueError):
        check_right_strict(bad2)
    with pytest.raises(ValueError, match="right subtree must be strictly greater"):
        check_right_strict(Node(2, right=Node(2)))


def test_classification_worked_example():
    # the repeated-5 tree: two primary, one secondary, three tertiary
    t = Node(
        5,
        left=Node(
            5,
            left=Node(
                2,
                left=Node(1),
                right=Node(
                    5,
                    left=Node(
                        4,
                        left=Node(3),
                        right=Node(5, left=Node(5, left=Node(5))),
                    ),
                ),
            ),
        ),
        right=Node(8),
    )
    check_right_strict(t)
    primary, secondary, tertiary = classify_nodes(PostfixTree(labels(t)), 5)
    assert (len(primary), len(secondary), len(tertiary)) == (2, 1, 3)


def test_classification_simple_cases():
    assert [len(p) for p in classify_nodes(PostfixTree((1, 2, 3)), 2)] == [1, 0, 0]
    chain = PostfixTree((4, 4, 4))
    primary, secondary, tertiary = classify_nodes(chain, 4)
    assert (len(primary), len(secondary), len(tertiary)) == (3, 0, 0)


def test_traversal_plan_reference_tree():
    # the walk-definitions tree: visiting the topmost 6 sees bounds 1 and 8,
    # minimum 2, and pads the core with the three outside occurrences of 8
    t = Node(
        1,
        right=Node(
            8,
            left=Node(
                6,
                left=Node(
                    3,
                    left=Node(2, left=Node(2, left=Node(2)), right=Node(3)),
                    right=Node(6, left=Node(4)),
                ),
                right=Node(8, left=Node(7, right=Node(8, left=Node(8)))),
            ),
        ),
    )
    check_right_strict(t)
    plan = traversal_plan(labels(t))
    step = next(s for s in plan if s.label == 6)
    assert step.lower == 1 and step.upper == 8 and step.min_sym == 2
    assert step.anchor_extra == 3
    assert serialize(right_bst(step.anchor)) == (
        "6(3(2(-)(3(-)(-)))(6(4(-)(-))(-)))(8(7(-)(8(8(8(-)(-))(-))(-)))(-))"
    )
    assert step.core == [3, 2, 4, 6, 3, 7, 8, 6]


def test_traversal_plan_chain_trees():
    plan = traversal_plan(labels(right_bst((1, 2, 3, 4))))
    first = plan[0]
    assert first.label == 1 and first.lower is None and first.upper == 2
    only = traversal_plan(labels(right_bst((7,))))[0]
    assert only.lower is None and only.upper is None
    assert serialize(right_bst(only.anchor)) == "7(-)(-)"


def test_shift_path_worked_example():
    t = right_bst(parse_word("13254"))
    u = right_bst(parse_word("23541"))
    path = shift_path(t, u)
    expected = ["13254", "54132", "12543", "41235", "12354", "23541"]
    assert [key(el) for el in path.elements] == [SYLV.key_of(parse_word(w)) for w in expected]
    assert path.steps == 5
    for (uv, vu), (a, b) in zip(path.step_words(), zip(path.elements, path.elements[1:])):
        assert SYLV.key_of(uv) == key(a) and SYLV.key_of(vu) == key(b)


def test_shift_path_trivial_and_errors():
    single = right_bst((2,))
    path = shift_path(single, right_bst((2,)))
    assert path.steps == 0 and key(path.elements[0]) == "2(-)(-)"
    with pytest.raises(ValueError):
        shift_path(right_bst((1, 2)), right_bst((2, 2)))


@pytest.mark.parametrize(
    "ev", [(1, 1, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1, 1), (1, 3, 1, 2), (1, 1, 2, 1)]
)
def test_shift_paths_exhaustive(ev):
    graph = evaluation_graph(SYLV, ev)
    reps = {}
    for w in words_with_evaluation(ev):
        reps.setdefault(SYLV.key_of(w), w)
    for kt, wt in reps.items():
        for ku, wu in reps.items():
            check_path(SYLV, shift_path(right_bst(wt), right_bst(wu)), kt, ku, graph)


# word pairs reaching the builder arms the evaluations above miss
@pytest.mark.parametrize(
    "source, target",
    [
        ("213455", "453215"),  # case 3, visit symbol below its bound, upper bound in the anchor
        ("134255", "145325"),  # case 4, upper bound in the anchor, o2 = 0
        ("123455", "145325"),  # case 4, upper bound in the anchor, o2 >= t2
        ("123345", "231435"),  # case 4, both bounds outside their anchors, upper chain
        ("12334566", "23156436"),  # case 4, both anchors padded (smallest such target)
    ],
)
def test_shift_path_arms(source, target):
    t, u = (right_bst(parse_word(w)) for w in (source, target))
    check_path(SYLV, shift_path(t, u), key(t), key(u))


def test_shift_path_with_both_anchors_padded_reads_rho_before_the_minima():
    # the fifth shift is 3|231746564: the right attachment 7 of the anchor
    # reads before the duplicated minimum 4 of the spine (231476564 would
    # also read the tree, but as another move)
    t, u = right_bst(parse_word("1233445667")), right_bst(parse_word("2314564376"))
    path = shift_path(t, u)
    check_path(SYLV, path, key(t), key(u))
    assert [(format_word(w), k) for w, k in path.moves] == [
        ("1233445667", 2), ("3134456672", 2), ("4456673231", 3), ("3231464675", 7),
        ("3231746564", 1), ("7231465643", 1), ("6231456437", 1),
    ]


def test_shift_paths_are_pinned():
    # one sha256 over the moves and element keys of every sylv and taig path
    # between the classes of four evaluations: a change to the builder that
    # alters any path, even to another valid one, changes the digest
    digest = hashlib.sha256()
    for name in ("sylv", "taig"):
        h = handle(name)
        for ev in [(1, 1, 1, 1, 1), (1, 1, 2, 1), (2, 1, 1, 2), (3, 1, 2)]:
            reps = {}
            for w in words_with_evaluation(ev):
                reps.setdefault(h.key_of(w), w)
            elements = [h.element(reps[k]) for k in sorted(reps)]
            for a in elements:
                for b in elements:
                    path = h.shift_path(a, b)
                    digest.update(repr((path.moves, [h.key(el) for el in path.elements])).encode())
    assert digest.hexdigest() == "5e3db99f249516ad8a73903247db987eedebe03a1ecab48e3f188765018481b8"


def test_seeded_shift_paths_at_workload_sizes_are_pinned():
    # 40 seeded sylv and taig pairs on each of four evaluations of total 7 and
    # 8, the sizes the paths benchmark runs: one sha256 over moves and keys
    digest = hashlib.sha256()
    rng = random.Random(2017)
    for ev in [(1,) * 7, (2, 1, 1, 1, 2, 1), (1, 2, 2, 1, 2), (3, 1, 2, 2)]:
        base = [s + 1 for s, c in enumerate(ev) for _ in range(c)]
        for _ in range(40):
            w1, w2 = rng.sample(base, len(base)), rng.sample(base, len(base))
            for name in ("sylv", "taig"):
                h = handle(name)
                path = h.shift_path(h.element(tuple(w1)), h.element(tuple(w2)))
                digest.update(repr((path.moves, [h.key(el) for el in path.elements])).encode())
    assert digest.hexdigest() == "21317f4cd8339eed2261daef60bd934c829e9ccd58f28b7d2390c3c04b6ac66d"


def _nodes_with_label(root, label):
    """All nodes with the given label, uppermost first: they lie on one search path."""
    found, node = [], root
    while node is not None:
        if node.label == label:
            found.append(node)
        node = node.left if label <= node.label else node.right
    return found


def _parent_map(root):
    """Map id(child) -> parent node, for the whole tree."""
    return {id(c): x for x in postfix(root) for c in (x.left, x.right) if c is not None}


def test_repeated_label_structure_on_generated_trees():
    for w in words_with_evaluation((2, 2, 2)):
        t = right_bst(w)
        check_right_strict(t)
        parents = _parent_map(t)
        for lbl in set(w):
            chain = _nodes_with_label(t, lbl)
            # single descending path: each occurrence is an ancestor of the next
            for a, b in zip(chain, chain[1:]):
                node = parents.get(id(b))
                while node is not None and node is not a:
                    node = parents.get(id(node))
                assert node is a
            # a non-uppermost occurrence that is a left child hangs off an equal label
            for nd in chain[1:]:
                par = parents[id(nd)]
                if par.left is nd:
                    assert par.label == lbl


def test_agreement_with_presentation():
    sylv = presentation("sylv")
    for w in words_with_evaluation((2, 1, 2)):
        assert SYLV.class_of(w, 3) == set(sylv.close(w).members)
