import pytest

from cycshift.handles import handle
from cycshift.plactic import (
    YoungTableau,
    young_tableau,
)
from cycshift.rewrite import presentation
from cycshift.words import parse_word, words_with_evaluation


def test_insert_examples():
    # inserting a into the tableau of w gives the tableau of w + (a,)
    assert young_tableau((3,)).rows == ((3,),)
    assert young_tableau((1, 2, 2, 2)).rows == ((1, 2, 2, 2),)
    assert young_tableau((1, 3, 2)).rows == ((1, 2), (3,))


def test_row_and_column_words():
    n = 5
    assert young_tableau(tuple(range(1, n + 1))).rows == (tuple(range(1, n + 1)),)
    assert young_tableau(tuple(range(n, 0, -1))).rows == tuple((i,) for i in range(1, n + 1))


def test_worked_tableau_reading():
    # rows of the target tableau, read bottom to top, insert back to it
    t = young_tableau(parse_word("564423512224"))
    assert t.rows == ((1, 2, 2, 2, 4), (2, 3, 5), (4, 4), (5, 6))
    assert young_tableau(tuple(a for row in reversed(t.rows) for a in row)) == t


def test_row_reading_round_trip():
    for w in words_with_evaluation((2, 2, 1)):
        t = young_tableau(w)
        assert young_tableau(tuple(a for row in reversed(t.rows) for a in row)) == t


def test_tableau_validation():
    with pytest.raises(ValueError):
        YoungTableau(((2, 1),))
    with pytest.raises(ValueError):
        YoungTableau(((1, 2), (1,)))
    with pytest.raises(ValueError):
        YoungTableau(((1,), (2, 3)))
    for rows in (((),), ((1,), ())):
        with pytest.raises(ValueError, match="rows must be non-empty"):
            YoungTableau(rows)


def test_key_style():
    assert handle("plac").key_of(parse_word("212344")) == "12344/2"


def test_class_against_oracle():
    plac = presentation("plac")
    h = handle("plac")
    assert h.class_of(parse_word("132"), 3) == {parse_word("132"), parse_word("312")}
    for w in words_with_evaluation((1, 1, 1, 1)):
        assert h.class_of(w, 4) == set(plac.close(w).members)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cocharge_constant_on_standard_classes(n):
    from cycshift.words import cocharge_seq

    key_of = handle("plac").key_of
    by_key = {}
    for w in words_with_evaluation((1,) * n):
        by_key.setdefault(key_of(w), set()).add(cocharge_seq(w))
    assert all(len(seqs) == 1 for seqs in by_key.values())
