import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cycshift.words import (
    LimitExceededError,
    _check_cocharge,
    cocharge_seq,
    evaluation,
    format_word,
    is_standard,
    multinomial,
    necklaces,
    parse_word,
    rotate,
    words_with_evaluation,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_evaluation_examples():
    assert evaluation((), 4) == (0, 0, 0, 0)
    assert evaluation(parse_word("361135112565"), 6) == (4, 1, 2, 0, 3, 2)
    assert evaluation((1, 2, 3, 4, 5), 5) == (1, 1, 1, 1, 1)


def test_evaluation_rejects_out_of_range():
    with pytest.raises(ValueError):
        evaluation((1, 5), 4)


def test_is_standard():
    assert is_standard(parse_word("1246375"))
    assert not is_standard((1, 2, 3, 3))
    assert is_standard(())


def test_rotate():
    assert rotate(parse_word("13254"), 2) == parse_word("25413")
    w = (3, 1, 4)
    assert rotate(w, 0) == w
    assert rotate(w, len(w)) == w
    with pytest.raises(IndexError):
        rotate(w, 4)


def test_rotate_round_trip():
    w = parse_word("23144")
    for k in range(len(w) + 1):
        assert rotate(rotate(w, k), len(w) - k) == w


def test_words_with_evaluation_small():
    assert list(words_with_evaluation((1, 1))) == [(1, 2), (2, 1)]
    assert list(words_with_evaluation((2, 1))) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]


def test_words_with_evaluation_standard_count_and_order():
    words = list(words_with_evaluation((1, 1, 1, 1, 1)))
    assert len(words) == 120
    assert words == sorted(words)
    assert len(set(words)) == 120


def test_words_with_evaluation_counts_match_multinomial():
    for ev in [(2, 2), (3, 1, 1), (2, 0, 2, 1)]:
        words = list(words_with_evaluation(ev))
        assert len(words) == multinomial(ev)
        assert all(evaluation(w, len(ev)) == ev for w in words)


def test_words_with_evaluation_limit():
    with pytest.raises(LimitExceededError):
        words_with_evaluation((6, 6))  # raised at the call, before any word
    assert len(list(words_with_evaluation((6, 6), limit=12))) == multinomial((6, 6))


#: every evaluation of rank <= 4 and total <= 7, the empty and all-zero ones
#: among them, plus the rank-7 standard evaluation
SMALL_EVALUATIONS = [
    ev for rank in range(5) for ev in itertools.product(range(8), repeat=rank) if sum(ev) <= 7
] + [(1,) * 7]


def _symbols(ev):
    return [s + 1 for s, c in enumerate(ev) for _ in range(c)]


def test_words_with_evaluation_are_the_distinct_permutations():
    assert (0, 0) in SMALL_EVALUATIONS and () in SMALL_EVALUATIONS
    for ev in SMALL_EVALUATIONS:
        assert list(words_with_evaluation(ev)) == sorted(set(itertools.permutations(_symbols(ev)))), ev


def _anchor(ev):
    """The least symbol used once, or None."""
    return ev.index(1) + 1 if 1 in ev else None


def test_necklaces_are_the_least_rotations():
    # where the anchor is the least symbol, or no symbol is single
    kept = [ev for ev in SMALL_EVALUATIONS if _anchor(ev) in (None, *_symbols(ev)[:1])]
    assert (1, 2, 2) in kept and (2, 2) in kept and (2, 1) not in kept
    for ev in kept:
        want = [
            w for w in words_with_evaluation(ev)
            if all(w <= w[i:] + w[:i] for i in range(len(w)))
        ]
        got = list(necklaces(ev))
        assert got == sorted(want) and len(set(got)) == len(got), ev


def test_necklaces_are_one_word_per_rotation_class():
    for ev in SMALL_EVALUATIONS:
        got = list(necklaces(ev))
        assert len(set(got)) == len(got), ev
        owner = {}
        for w in got:
            for i in range(max(len(w), 1)):
                assert owner.setdefault(w[i:] + w[:i], w) == w, (ev, w)
        # every word is a rotation of exactly one yielded word
        assert sorted(owner) == list(words_with_evaluation(ev)), ev
        anchor = _anchor(ev)
        if anchor is not None:
            assert all(w[0] == anchor for w in got), ev


def test_necklaces_limit_is_checked_at_the_call():
    with pytest.raises(LimitExceededError) as enum_error:
        words_with_evaluation((6, 6))
    with pytest.raises(LimitExceededError) as necklace_error:
        necklaces((6, 6))
    assert str(necklace_error.value) == str(enum_error.value)
    # binary necklaces of content (6, 6): sum over d | 6 of phi(d) * C(12/d, 6/d), over 12
    assert len(list(necklaces((6, 6), limit=12))) == (924 + 1 * 20 + 2 * 6 + 2 * 2) // 12


def test_cocharge_worked_example():
    assert cocharge_seq(parse_word("1246375")) == (0, 0, 0, 1, 1, 2, 2)


def test_cocharge_row_and_column():
    for n in range(1, 8):
        assert cocharge_seq(tuple(range(1, n + 1))) == (0,) * n
        assert cocharge_seq(tuple(range(n, 0, -1))) == tuple(range(n))


def test_cocharge_rejects_non_standard():
    with pytest.raises(ValueError):
        cocharge_seq((1, 1, 2))


def _standard_words(n):
    return words_with_evaluation((1,) * n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_cocharge_last_letter_cycle(n):
    # moving a last letter a != 1 to the front raises the a-th entry by one
    for w in _standard_words(n):
        a = w[-1]
        if a == 1:
            continue
        moved = (a,) + w[:-1]
        expect = list(cocharge_seq(w))
        expect[a - 1] += 1
        assert cocharge_seq(moved) == tuple(expect)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cocharge_split_cycle(n):
    # rotating x y -> y x with 1 not in x lowers each entry indexed by x by one
    for w in _standard_words(n):
        for k in range(len(w) + 1):
            x, y = w[:k], w[k:]
            if 1 in x:
                continue
            base = cocharge_seq(w)
            rotated = cocharge_seq(y + x)
            diff = tuple(r - b for r, b in zip(rotated, base))
            indicator = tuple(-1 if a + 1 in x else 0 for a in range(n))
            assert diff == indicator


def test_word_parse_and_format():
    assert parse_word("1325") == (1, 3, 2, 5)
    assert parse_word("10,3,12") == (10, 3, 12)
    assert parse_word("") == ()
    assert format_word((1, 3, 2, 5)) == "1325"
    assert format_word((10, 3, 12)) == "10,3,12"
    assert format_word((9, 10)) == "9,10"
    assert format_word((1, 9)) == "19"
    assert format_word(()) == ""
    with pytest.raises(ValueError):
        parse_word("1,x")


def test_check_cocharge_raises_on_bad_sequences():
    _check_cocharge(())
    _check_cocharge((0, 0, 1, 2, 2))
    with pytest.raises(ValueError, match="start at 0"):
        _check_cocharge((1,))
    with pytest.raises(ValueError, match="grow by 0 or 1"):
        _check_cocharge((0, 2))
    with pytest.raises(ValueError, match="grow by 0 or 1"):
        _check_cocharge((0, 1, 0))


def _python(*args, env_update=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_update or {})
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_check_cocharge_raises_under_optimize():
    code = "from cycshift import words\ntry:\n    words._check_cocharge((1,))\nexcept ValueError:\n    print('raised')"
    proc = _python("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


SHOW_LIMITS = "import cycshift; print(cycshift.DEFAULT_MAX_TOTAL, cycshift.DEFAULT_MAX_CLASS)"


@pytest.mark.parametrize(
    "var, value",
    [("CYCSHIFT_MAX_TOTAL", "abc"), ("CYCSHIFT_MAX_CLASS", "-1"), ("CYCSHIFT_MAX_TOTAL", "7"), ("CYCSHIFT_MAX_CLASS", "0")],
)
def test_limits_ignore_the_environment(var, value):
    proc = _python("-c", SHOW_LIMITS, env_update={var: value})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["10", "12"]
