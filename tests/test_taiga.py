import pytest

from cycshift.handles import handle
from cycshift.paths import check_path
from cycshift.rewrite import presentation
from cycshift.shiftgraph import evaluation_graph
from cycshift.sylvester import key as sylv_key, right_bst
from cycshift.taiga import (
    check_mult_bst,
    key,
    mult_bst,
    shift_path,
)
from cycshift.trees import Node, labels
from cycshift.words import parse_word, words_with_evaluation

key_of = handle("taig").key_of


def drop_multiplicities(root):
    """The stripped tree: ``labels`` lists each node once, in postfix order."""
    return right_bst(labels(root))


def test_insert_examples():
    assert key(mult_bst((3,))) == "3^1(-)(-)"
    assert key(mult_bst((4, 4))) == "4^2(-)(-)"


def test_worked_tree():
    t = mult_bst(parse_word("135671456254"))
    assert key(t) == "4^2(2^1(1^2(-)(-))(3^1(-)(-)))(5^3(-)(6^2(-)(7^1(-)(-))))"


def test_drop_multiplicities():
    assert sylv_key(drop_multiplicities(mult_bst((4, 4, 4)))) == "4(-)(-)"
    t = mult_bst(parse_word("135671456254"))
    shape = drop_multiplicities(t)
    assert sylv_key(shape) == "4(2(1(-)(-))(3(-)(-)))(5(-)(6(-)(7(-)(-))))"


def test_validation():
    with pytest.raises(ValueError):
        check_mult_bst(Node(2, mult=0))
    with pytest.raises(ValueError):
        check_mult_bst(Node(2, left=Node(2)))
    # sylvester's order first, then distinct labels
    with pytest.raises(ValueError, match="right subtree must be strictly greater"):
        check_mult_bst(Node(2, right=Node(1)))
    with pytest.raises(ValueError, match="labels must be distinct"):
        check_mult_bst(Node(2, left=Node(1, right=Node(2))))
    check_mult_bst(Node(2, 3, Node(1, 2), Node(3)))


def test_equality_criterion():
    # equal element <=> equal stripped shape and equal evaluation
    for ev in [(2, 1, 1), (2, 2), (1, 2, 1)]:
        words = list(words_with_evaluation(ev))
        for u in words:
            for v in words:
                same = key(mult_bst(u)) == key(mult_bst(v))
                criterion = sylv_key(drop_multiplicities(mult_bst(u))) == sylv_key(
                    drop_multiplicities(mult_bst(v))
                )
                assert same == criterion


def test_agreement_with_presentation():
    taig = presentation("taig")
    for w in words_with_evaluation((2, 1, 2)):
        cls = {v for v in words_with_evaluation((2, 1, 2)) if key_of(v) == key_of(w)}
        assert cls == set(taig.close(w).members)


def test_shift_path_trivial():
    t = mult_bst((1, 2, 2))
    path = shift_path(t, mult_bst((1, 2, 2)))
    assert path.steps == 0


def test_shift_path_requires_equal_evaluation():
    with pytest.raises(ValueError):
        shift_path(mult_bst((1, 2)), mult_bst((2, 2)))


@pytest.mark.parametrize("ev", [(2, 1), (2, 2, 1), (1, 2, 1, 1), (3, 2)])
def test_shift_paths_exhaustive(ev):
    taig = handle("taig")
    graph = evaluation_graph(taig, ev)
    reps = {}
    for w in words_with_evaluation(ev):
        reps.setdefault(key_of(w), w)
    for kt, wt in reps.items():
        for ku, wu in reps.items():
            check_path(taig, shift_path(mult_bst(wt), mult_bst(wu)), kt, ku, graph)
