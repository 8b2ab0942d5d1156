import pytest

from cycshift.baxter import (
    TwinPair,
    canopy,
    check_left_strict,
    complementary,
    conjugacy_witness,
    twin_pair,
)
from cycshift.handles import handle
from cycshift.rewrite import presentation
from cycshift.sylvester import right_bst
from cycshift.trees import Node, serialize
from cycshift.words import parse_word, words_with_evaluation

PAIR_WORD = parse_word("42531643")
BAXT = handle("baxt")


def test_worked_pair():
    pair = twin_pair(PAIR_WORD)
    assert serialize(pair.left) == "4(2(1(-)(-))(3(-)(3(-)(-))))(5(4(-)(-))(6(-)(-)))"
    assert serialize(pair.right) == "3(1(-)(3(2(-)(-))(-)))(4(4(-)(-))(6(5(-)(-))(-)))"


def test_canopies():
    pair = twin_pair(PAIR_WORD)
    assert canopy(pair.left) == "0110101"
    assert canopy(pair.right) == "1001010"
    assert complementary(canopy(pair.left), canopy(pair.right))


def test_canopy_single_node_and_empty():
    assert canopy(twin_pair((3,)).left) == ""
    with pytest.raises(ValueError):
        canopy(None)


def test_twin_validation():
    with pytest.raises(ValueError):
        TwinPair(twin_pair((1, 2)).left, right_bst((1, 1)))
    with pytest.raises(ValueError):
        TwinPair(twin_pair((1, 2)).left, None)
    # both trees are 1(-)(2(-)(-)), each strict its own way, with equal canopies
    with pytest.raises(ValueError, match="twin canopies must be complementary"):
        TwinPair(twin_pair((1, 2)).left, right_bst((2, 1)))
    check_left_strict(twin_pair(PAIR_WORD).left)
    with pytest.raises(ValueError, match="right subtree must be >= its ancestor"):
        check_left_strict(Node(2, right=Node(1)))
    with pytest.raises(ValueError, match="left subtree must be strictly below its ancestor"):
        check_left_strict(Node(2, left=Node(2)))


def test_twin_pairs_compare_and_hash_by_key():
    # 2143 and 2413 are one Baxter class, 2134 another
    a, b = twin_pair((2, 1, 4, 3)), twin_pair((2, 4, 1, 3))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != twin_pair((2, 1, 3, 4))
    assert a != a.key()


def test_all_pairs_are_twins():
    for w in words_with_evaluation((2, 1, 1)):
        pair = twin_pair(w)  # constructor asserts complementarity
        assert complementary(canopy(pair.left), canopy(pair.right))


def test_unique_reading_of_2431():
    assert BAXT.class_of(parse_word("2431"), 4) == {parse_word("2431")}


def test_length_three_words_are_rigid():
    for w in words_with_evaluation((1, 1, 1)):
        assert BAXT.class_of(w, 3) == {w}


def test_empty_pair():
    assert BAXT.class_of((), 0) == {()}


def test_conjugacy_witness_examples():
    g, h = conjugacy_witness(parse_word("123"), parse_word("132"))
    assert g == parse_word("123132")
    assert h == parse_word("132123")
    conjugacy_witness(parse_word("12"), parse_word("12"))
    with pytest.raises(ValueError):
        conjugacy_witness((1, 2), (2, 2))


def test_agreement_with_presentation():
    baxt = presentation("baxt")
    for w in words_with_evaluation((1, 2, 1)):
        cls = {v for v in words_with_evaluation((1, 2, 1)) if BAXT.key_of(v) == BAXT.key_of(w)}
        assert cls == set(baxt.close(w).members)
