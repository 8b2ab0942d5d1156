import pytest

from cycshift.baxter import (
    TwinPair,
    canopy,
    complementary,
    conjugacy_witness,
    left_bst,
    readings,
    twin_pair,
    word_key,
)
from cycshift.rewrite import presentation
from cycshift.sylvester import right_bst
from cycshift.trees import Node, serialize
from cycshift.words import LimitExceededError, parse_word, words_with_evaluation

PAIR_WORD = parse_word("42531643")


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
    assert canopy(left_bst((3,))) == ""
    with pytest.raises(ValueError):
        canopy(None)


def test_twin_validation():
    with pytest.raises(ValueError):
        TwinPair(left_bst((1, 2)), right_bst((1, 1)))
    with pytest.raises(ValueError):
        TwinPair(left_bst((1, 2)), None)


def test_all_pairs_are_twins():
    for w in words_with_evaluation((2, 1, 1)):
        pair = twin_pair(w)  # constructor asserts complementarity
        assert complementary(canopy(pair.left), canopy(pair.right))


def test_unique_reading_of_2431():
    assert readings(twin_pair(parse_word("2431"))) == {parse_word("2431")}


def test_length_three_words_are_rigid():
    for w in words_with_evaluation((1, 1, 1)):
        assert readings(twin_pair(w)) == {w}


def test_readings_match_class_filter():
    for ev in [(1, 1, 1, 1), (2, 1, 1), (2, 2)]:
        words = list(words_with_evaluation(ev))
        for w in words:
            pair = twin_pair(w)
            brute = {v for v in words if word_key(v) == pair.key()}
            assert readings(pair) == brute


def test_readings_limit():
    with pytest.raises(LimitExceededError):
        readings(twin_pair(tuple([1, 2] * 7)))


def test_empty_pair():
    assert readings(twin_pair(())) == {()}


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
        cls = {v for v in words_with_evaluation((1, 2, 1)) if word_key(v) == word_key(w)}
        assert cls == set(baxt.close(w).members)


def test_readings_detect_a_right_tree_grown_after_validation():
    pair = twin_pair((1,))
    pair.right.left = Node(1)  # trees are mutable; the pair was checked at construction
    with pytest.raises(RuntimeError, match="outlived"):
        readings(pair)
