import pytest

from cycshift import rewrite
from cycshift.rewrite import (
    A_SYM,
    B_SYM,
    X_SYM,
    Y_SYM,
    _window,
    in_factor_language,
    parse_factors,
    presentation,
    xy_cycle_invariant,
)
from cycshift.words import LimitExceededError, parse_word, words_with_evaluation


def test_close_examples():
    plac = presentation("plac")
    assert plac.close(parse_word("12345")).members == {parse_word("12345")}
    assert plac.close(parse_word("132")).members == {parse_word("132"), parse_word("312")}
    baxt = presentation("baxt")
    assert baxt.close(parse_word("2431")).members == {parse_word("2431")}


def test_close_canonical_is_lex_min():
    sylv = presentation("sylv")
    cls = sylv.close(parse_word("2132"))
    assert cls.canonical == min(cls.members)


def test_close_hands_every_member_the_cached_class(monkeypatch):
    plac = presentation("plac")
    cls = plac.close(parse_word("132"))
    # a hit neither closes again nor looks for the canonical word again
    monkeypatch.setattr(plac, "moves", None)
    monkeypatch.setattr(rewrite, "min", None, raising=False)
    assert plac.close(parse_word("312")) is plac.close(parse_word("132")) is cls
    assert cls.canonical == parse_word("132")
    # the length guard still runs before the lookup
    with pytest.raises(LimitExceededError):
        plac.close(parse_word("132"), 2)


def test_close_respects_limit():
    plac = presentation("plac")
    with pytest.raises(LimitExceededError):
        plac.close(tuple([1, 2] * 6))


def test_close_cache_stays_within_its_cap(monkeypatch):
    words = list(words_with_evaluation((1, 1, 2, 2)))
    for name in ("plac", "sylv", "counterexample"):
        want = [presentation(name).close(w) for w in words]
        sizes = {len(c) for c in want}
        cap = 4
        assert min(sizes) < cap < max(sizes), sizes  # small classes cached, large ones not
        monkeypatch.setattr(rewrite, "_CACHE_WORDS", cap)
        capped = presentation(name)
        for w, cls in zip(words, want):
            assert capped.close(w) == cls
            assert len(capped._cache) <= cap
        monkeypatch.undo()


def test_equivalent_examples():
    plac = presentation("plac")
    assert parse_word("312") in plac.close(parse_word("132")).members
    assert parse_word("132") not in plac.close(parse_word("123")).members
    stal = presentation("stal")
    assert parse_word("2112") in stal.close(parse_word("1212")).members


def test_moves_preserve_evaluation():
    for name in ("plac", "hypo", "sylv", "stal", "taig", "baxt", "counterexample"):
        m = presentation(name)
        for w in words_with_evaluation((1, 1, 2, 1)):
            for w2 in m.moves(w):
                assert sorted(w2) == sorted(w)


def test_word_neighbors_baxt_123():
    baxt = presentation("baxt")
    classes = baxt.word_neighbors(parse_word("123"))
    canons = {c.canonical for c in classes}
    assert canons == {parse_word("123"), parse_word("231"), parse_word("312")}


def test_word_neighbors_empty_word():
    for name in ("plac", "baxt"):
        m = presentation(name)
        classes = m.word_neighbors(())
        assert len(classes) == 1 and classes[0].members == {()}


def test_word_neighbors_plac_row():
    plac = presentation("plac")
    classes = plac.word_neighbors(parse_word("12345"))
    assert len(classes) == 5
    canons = {c.canonical for c in classes}
    assert parse_word("12345") in canons


def test_word_neighbors_symmetric():
    sylv = presentation("sylv")
    seeds = [parse_word(w) for w in ("1212", "2121", "1122", "1221")]
    for w in seeds:
        c = sylv.close(w)
        for d in sylv.word_neighbors(w):
            back = {e.canonical for e in sylv.word_neighbors(d.canonical)}
            assert c.canonical in back


def test_factor_parsing():
    w = (A_SYM, X_SYM, Y_SYM, B_SYM)
    assert parse_factors(w) == [(A_SYM,), (X_SYM, Y_SYM), (B_SYM,)]
    assert in_factor_language(w)
    assert not in_factor_language((A_SYM, X_SYM, B_SYM))  # lone x
    assert not in_factor_language((A_SYM, X_SYM, Y_SYM))  # missing b


def test_invariant_examples():
    assert xy_cycle_invariant((A_SYM,) + (X_SYM, Y_SYM) * 3 + (B_SYM,)) == 3
    assert xy_cycle_invariant((B_SYM,) + (Y_SYM, X_SYM) * 3 + (A_SYM,)) == 1
    assert xy_cycle_invariant((A_SYM, B_SYM)) == 0


def test_invariant_rejects_bad_input():
    with pytest.raises(ValueError):
        xy_cycle_invariant((A_SYM, X_SYM, B_SYM))


def test_invariant_constant_on_small_classes():
    m = presentation("counterexample")
    words = [
        (A_SYM, X_SYM, Y_SYM, B_SYM),
        (B_SYM, Y_SYM, X_SYM, A_SYM),
        (A_SYM,) + (X_SYM, Y_SYM) * 2 + (B_SYM,),
        (X_SYM, Y_SYM, A_SYM, B_SYM, Y_SYM, X_SYM),
    ]
    for w in words:
        mu = xy_cycle_invariant(w)
        for member in m.close(w).members:
            assert in_factor_language(member)
            assert xy_cycle_invariant(member) == mu


def test_window_refuses_a_rewrite_that_changes_the_evaluation():
    assert _window((1, 2, 3), 1, (3, 2)) == (1, 3, 2)
    with pytest.raises(RuntimeError, match="changes the evaluation"):
        _window((1, 2, 3), 1, (3, 3))


def test_an_unknown_presentation_is_refused_by_name():
    with pytest.raises(ValueError, match="unknown presentation 'nope'; choose from"):
        presentation("nope")
