"""The monoid registry: one ``MonoidHandle`` record per monoid.

A record maps words to canonical class keys and names the monoid's object, a
tableau, tree or twin pair: its insertion, key, drawing, JSON form,
validation, symbols, and the constructive shift path with its bound.  A key
takes two steps: ``word_form`` maps each word to a hashable tuple (tableau
rows or columns, a tree's spine sizes or child arrays, a canonical word), and
``format_form`` turns each class's form into its key.  ``key_of`` is the two
in one call, for every record; the tests hold it to ``key(element(w))`` and
to reference insertions of their own.  The graph engine, the CLI and
``verify`` read the monoids from ``HANDLES`` alone; the rewriting oracle keeps
its own ``rewrite.PRESENTATIONS`` so that it shares no code with what it
checks.  A record may give ``class_graph``, its shift graph built on class
descriptions (hypo's row breaks), which the graph engine then uses.

``MonoidHandle.class_of`` is the one way to list a class, for every monoid:
it filters the arrangements of the evaluation, cross-checked in the tests
against the presentation oracle (``tests/test_lint.py`` keeps it the only one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Hashable

from . import baxter, hypoplactic, plactic, rewrite, stalactic, sylvester, taiga
from .baxter import TwinPair
from .hypoplactic import QuasiRibbonTableau
from .paths import ShiftPath
from .plactic import YoungTableau
from .stalactic import StalacticTableau
from .trees import labels, to_json as tree_json
from .words import Word, evaluation, format_word, words_with_evaluation


@dataclass(frozen=True)
class MonoidHandle:
    name: str
    #: the object a word inserts to; ``key``, ``draw`` and ``to_json`` act on it
    element: Callable[[Word], object]
    key: Callable[[object], str]
    draw: Callable[[object], str]
    to_json: Callable[[object], object]
    #: symbols stored in an object, with multiplicity
    symbols: Callable[[object], list[int]] | None = None
    #: raises ValueError when an object breaks its structural invariants
    check: Callable[[object], None] | None = None
    shift_path: Callable[[object, object], ShiftPath] | None = None
    #: evaluation -> {a word per class: its neighbours' words}, with no word enumerated;
    #: given a class's form as well, the entry of that class alone
    class_graph: Callable[..., dict[Word, set[Word]]] | None = None
    #: the shift path's length bound ``a*n + b`` as ``(a, b)``, n distinct symbols
    path_law: tuple[int, int] | None = None
    #: order-preserving relabelings of the alphabet leave the congruence alone
    relabel_invariant: bool = True
    #: word -> hashable class form, the one the graph engine calls per word
    word_form: Callable[[Word], Hashable] = field(kw_only=True)
    format_form: Callable[[Hashable], str] = field(kw_only=True)
    #: word -> class key in one call, ``format_form(word_form(w))`` unless given
    key_of: Callable[[Word], str] | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.key_of is None:
            form, fmt = self.word_form, self.format_form
            object.__setattr__(self, "key_of", lambda w: fmt(form(w)))

    def path_bound(self, n_distinct: int) -> int:
        """Most shifts ``shift_path`` takes between objects on ``n_distinct`` symbols.

        Never negative: hypo's ``n - 1`` would read -1 for the empty word.
        """
        if self.path_law is None:
            raise ValueError(f"{self.name} has no constructive shift path")
        slope, offset = self.path_law
        return max(0, slope * n_distinct + offset)

    def class_of(self, word: Word, rank: int, limit: int | None = None) -> set[Word]:
        word_form = self.word_form
        target = word_form(word)
        ev = evaluation(word, rank)
        return {w for w in words_with_evaluation(ev, limit) if word_form(w) == target}


_COUNTER = rewrite.presentation("counterexample")


def _counter_form(word: Word) -> Word:
    return _COUNTER.close(word).canonical


def _counter_key(word: Word) -> str:
    return format_word(_counter_form(word))


HANDLES: dict[str, MonoidHandle] = {
    "plac": MonoidHandle(
        "plac", plactic.young_tableau,
        YoungTableau.key, YoungTableau.draw, YoungTableau.to_json,
        YoungTableau.symbols, YoungTableau.check,
        word_form=plactic.word_form, format_form=plactic.format_form,
    ),
    "hypo": MonoidHandle(
        "hypo", hypoplactic.quasi_ribbon,
        QuasiRibbonTableau.key, QuasiRibbonTableau.draw, QuasiRibbonTableau.to_json,
        QuasiRibbonTableau.symbols, QuasiRibbonTableau.check,
        hypoplactic.shift_path, class_graph=hypoplactic.class_graph, path_law=(1, -1),
        word_form=hypoplactic.word_form, format_form=hypoplactic.format_form,
    ),
    "sylv": MonoidHandle(
        "sylv", sylvester.right_bst,
        sylvester.key, sylvester.draw, tree_json,
        labels, sylvester.check_right_strict,
        sylvester.shift_path, path_law=(1, 0),
        word_form=sylvester.word_form, format_form=sylvester.format_form,
    ),
    "stal": MonoidHandle(
        "stal", stalactic.stalactic_tableau,
        StalacticTableau.key, StalacticTableau.draw, StalacticTableau.to_json,
        StalacticTableau.symbols, StalacticTableau.check,
        stalactic.shift_path, path_law=(0, 3),
        word_form=stalactic.word_form, format_form=stalactic.format_form,
    ),
    "taig": MonoidHandle(
        "taig", taiga.mult_bst,
        taiga.key, partial(sylvester.draw, with_mult=True), partial(tree_json, with_mult=True),
        taiga.symbols, taiga.check_mult_bst,
        taiga.shift_path, path_law=(1, 0),
        word_form=taiga.word_form, format_form=taiga.format_form,
    ),
    "baxt": MonoidHandle(
        "baxt", baxter.twin_pair,
        TwinPair.key, TwinPair.draw, TwinPair.to_json,
        TwinPair.symbols, TwinPair.check,
        word_form=baxter.word_form, format_form=baxter.format_form,
    ),
    # the form is the class's canonical word; the object is that word formatted as its key
    "counterexample": MonoidHandle(
        "counterexample", _counter_key, str, str, str,
        relabel_invariant=False, word_form=_counter_form, format_form=format_word,
    ),
}


def handle(name: str) -> MonoidHandle:
    try:
        return HANDLES[name]
    except KeyError:
        raise ValueError(f"unknown monoid {name!r}; choose from {sorted(HANDLES)}")
