"""The registry contract: every record's functions agree with one another."""

import itertools
import json

import pytest

from cycshift.handles import HANDLES

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
