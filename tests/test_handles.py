"""The registry contract: every record's functions agree with one another."""

import itertools
import json
import random

import pytest

from cycshift.handles import HANDLES
from cycshift.hypoplactic import QuasiRibbonTableau, _insert_into_rows
from cycshift.words import format_word

#: every word of rank <= 3 and length <= 5
WORDS = [w for n in range(6) for w in itertools.product((1, 2, 3), repeat=n)]


@pytest.mark.parametrize("name", list(HANDLES))
def test_record_functions_agree(name):
    h = HANDLES[name]
    for w in WORDS:
        el = h.element(w)
        assert h.key(el) == h.key_of(w), w
        json.dumps(h.to_json(el))
        assert isinstance(h.draw(el), str)
        if h.symbols is not None:
            h.check(el)
            assert sorted(h.symbols(el)) == sorted(w), w


def test_path_bounds_are_the_papers_laws():
    bounds = {name: h.path_bound(5) for name, h in HANDLES.items() if h.shift_path}
    assert bounds == {"hypo": 4, "sylv": 5, "stal": 3, "taig": 5}
    assert HANDLES["hypo"].path_bound(0) == 0
    with pytest.raises(ValueError, match="no constructive shift path"):
        HANDLES["plac"].path_bound(5)


def _plac_key(word):
    """Schensted row insertion with a linear scan for the bumped entry."""
    rows = []
    for a in word:
        for row in rows:
            j = next((j for j, b in enumerate(row) if b > a), None)
            if j is None:
                row.append(a)
                break
            a, row[j] = row[j], a
        else:
            rows.append([a])
    return "/".join(format_word(tuple(r)) for r in rows)


def _hypo_key(word):
    """Hypoplactic insertion, one symbol at a time."""
    rows = []
    for a in word:
        _insert_into_rows(rows, a)
    return QuasiRibbonTableau(tuple(map(tuple, rows))).key()


def _stal_key(word):
    """Columns in the order of the rightmost occurrences, heights the counts."""
    last = {a: i for i, a in enumerate(word)}
    return "|".join(f"{a}^{word.count(a)}" for a in sorted(last, key=last.get))


#: every word over 1..4 of length <= 7, then random words whose symbols reach 13
FORM_WORDS = [w for n in range(8) for w in itertools.product((1, 2, 3, 4), repeat=n)]
_rng = random.Random(13)
FORM_WORDS += [(13, 10, 2, 13), (10, 9, 11, 10)] + [
    tuple(_rng.randint(1, 13) for _ in range(_rng.randint(1, 10))) for _ in range(2000)
]


@pytest.mark.parametrize("name", ["plac", "hypo", "stal"])
def test_formatted_form_is_the_key(name):
    h = HANDLES[name]
    reference = {"plac": _plac_key, "hypo": _hypo_key, "stal": _stal_key}[name]
    bad = [w for w in FORM_WORDS if not h.format_form(h.word_form(w)) == h.key(h.element(w)) == reference(w)]
    assert bad == []


@pytest.mark.parametrize("name", ["sylv", "taig", "baxt", "counterexample"])
def test_string_keys_are_their_own_forms(name):
    h = HANDLES[name]
    assert h.word_form is None and h.format_form is str
    assert h.form_of((2, 1, 2)) == h.key_of((2, 1, 2))
