"""The monoid registry: one ``MonoidHandle`` record per monoid.

A record maps words to canonical class keys and names the monoid's object, a
tableau, tree or twin pair: its insertion, key, drawing, JSON form,
validation, symbols, and the constructive shift path.  A key
takes two steps: ``word_form`` maps each word to a hashable tuple (tableau
rows or columns, a tree's spine sizes or child arrays, a canonical word), and
``format_form`` turns each class's form into its key.  ``key_of`` is the two
in one call, for every record; the tests hold it to ``key(element(w))`` and
to reference insertions of their own.  The graph engine, the CLI and
``verify`` read the monoids from ``HANDLES`` alone; the rewriting oracle keeps
its own ``rewrite.PRESENTATIONS`` so that it shares no code with what it
checks.  A record may give ``class_graph``, its shift graph built on class
descriptions (hypo's row breaks), which the graph engine then uses.  The
engine builds evaluations with a count of 2 up to the symmetries a record
declares: ``relabel_invariant``, ``saturates`` (stal, taig: counts capped at
2) and ``mirror`` (reverse-complement for plac, hypo and baxt, complement for
stal and taig; none for sylv, which reverse-complement sends to sylv#).
taig's record names stal's as ``image_of``: every taig class is a union of
stal classes, so the engine maps stal's graphs onto taig's.  sylv, baxt and
stal form each necklace's rotations in one pass (``rotation_forms``).

``MonoidHandle.law`` is the one home of the paper's table of diameter laws;
``path_bound`` reads its upper ends, and ``verify``'s c4 and c6 read it too.

``MonoidHandle.class_of`` is the one way to list a class, for every monoid
(``tests/test_lint.py`` keeps it the only one): it walks the class from the
query word by the record's ``moves`` that keep the word's form, so it forms
the class and its one-move neighbours, not the evaluation.  The
counterexample moves by its relations, which generate its classes; every
other record by adjacent swaps.  The tests hold all to the presentation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Hashable, Iterator

from . import baxter, hypoplactic, plactic, rewrite, stalactic, sylvester, taiga
from .baxter import TwinPair
from .hypoplactic import QuasiRibbonTableau
from .paths import ShiftPath
from .plactic import YoungTableau
from .stalactic import StalacticTableau
from .trees import labels, to_json as tree_json
from .words import (
    Evaluation, Word, check_total, complement, evaluation, format_word, reverse_complement, words_with_evaluation,
)


def adjacent_swaps(word: Word) -> Iterator[Word]:
    """Each ``word[:i] + (word[i+1], word[i]) + word[i+2:]`` of two distinct letters."""
    for i in range(len(word) - 1):
        if word[i] != word[i + 1]:
            yield word[:i] + (word[i + 1], word[i]) + word[i + 2:]


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
    #: n distinct symbols -> the paper's (lower, upper) bound on a component's
    #: diameter; the abstract gives baxt and the counterexample none
    law: Callable[[int], tuple[int, int]] | None = None
    #: order-preserving relabelings of the alphabet leave the congruence alone
    relabel_invariant: bool = True
    #: word -> hashable class form, the one the graph engine calls per word
    word_form: Callable[[Word], Hashable] = field(kw_only=True)
    format_form: Callable[[Hashable], str] = field(kw_only=True)
    #: (necklace word, ev, period) -> ``word_form`` of each rotation ``w[i:] + w[:i]``,
    #: i < period, computed in one pass; the necklace engine calls it when given
    rotation_forms: Callable[[Word, Evaluation, int], list[Hashable]] | None = field(default=None, kw_only=True)
    #: word -> class key in one call, ``format_form(word_form(w))`` unless given
    key_of: Callable[[Word], str] | None = field(default=None, kw_only=True)
    #: word -> the words one step away; those that stay in a class connect it (``class_of``)
    moves: Callable[[Word], Iterator[Word]] = field(default=adjacent_swaps, kw_only=True)
    #: the shift graph of an evaluation is that of its counts capped at 2, keys
    #: aside (``shiftgraph.evaluation_graph``)
    saturates: bool = field(default=False, kw_only=True)
    #: the name of a finer record with the same ``mirror``, each of whose
    #: classes lies in one class of this one; the engine builds this record's
    #: graphs with a count of 2 as the images of that record's
    image_of: str | None = field(default=None, kw_only=True)
    #: (word, rank) -> word, an involution onto the reversed evaluation that
    #: sends classes to classes and rotations to rotations; the engine builds
    #: one of an evaluation and its reverse (``shiftgraph.evaluation_graph``)
    mirror: Callable[[Word, int], Word] | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.key_of is None:
            form, fmt = self.word_form, self.format_form
            object.__setattr__(self, "key_of", lambda w: fmt(form(w)))

    def path_bound(self, n_distinct: int) -> int:
        """Most shifts ``shift_path`` takes between objects on ``n_distinct`` symbols.

        The upper end of ``law``, never negative: hypo's ``n - 1`` would read
        -1 for the empty word.
        """
        if self.shift_path is None:
            raise ValueError(f"{self.name} has no constructive shift path")
        return max(0, self.law(n_distinct)[1])

    def class_of(self, word: Word, rank: int, limit: int | None = None) -> set[Word]:
        """Every word with the form of ``word``: a breadth-first walk by ``moves``.

        A move of a member joins the class when its form is the word's; each
        candidate is formed once, kept or rejected.  The walk reaches the
        whole class because the moves that stay inside it connect it.  The
        counterexample moves by its relations (``rewrite.py``), which
        generate its classes; every other record by ``adjacent_swaps``:

        - every relation of ``rewrite.py`` for plac, sylv, stal, taig and baxt
          swaps one adjacent pair (``acb = cab``, ``bac = bca``, ``cavb =
          acvb``, ``bavb = abvb``, ``cudavb = cuadvb``, ``budavc = buadvc``);
        - hypo's two quartic relations swap two disjoint pairs, and each
          factors through one class-keeping swap: ``cadb -> acdb -> acbd``
          (a <= b < c <= d) and ``bdac -> dbac -> dbca`` (a < b <= c < d).
          By the row-break rule (``hypoplactic.word_form``) a swap of ``x <
          y`` can move only the bit of the pair ``x, y``, and only when they
          are consecutive in the support.  That forces b = a in the first
          step, where ``c`` still stands before the last ``a``, and c = b in
          the second, where ``d`` still stands before the last ``b``; so each
          middle word is in the class.

        The word's alphabet and total are checked before any word is formed.
        """
        check_total(evaluation(word, rank), limit)
        word_form, moves = self.word_form, self.moves
        target = word_form(word)
        members, rejected, level = {word}, set(), [word]
        while level:
            found = []
            for u in level:
                for v in moves(u):
                    if v in members or v in rejected:
                        continue
                    if word_form(v) == target:
                        members.add(v)
                        found.append(v)
                    else:
                        rejected.add(v)
            level = found
        return members


_COUNTER = rewrite.presentation("counterexample")


def _counter_form(word: Word) -> Word:
    # the engine runs check_total under its caller's limit before forming words
    return _COUNTER.close(word, len(word)).canonical


def _counter_key(word: Word, limit: int | None = None) -> str:
    return format_word(_COUNTER.close(word, limit).canonical)


def _tree_law(n: int) -> tuple[int, int]:
    return n - 1, n


def _stal_law(n: int) -> tuple[int, int]:
    d = 3 if n > 2 else max(0, n - 1)
    return d, d


HANDLES: dict[str, MonoidHandle] = {
    "plac": MonoidHandle(
        "plac", plactic.young_tableau,
        YoungTableau.key, YoungTableau.draw, YoungTableau.to_json,
        YoungTableau.symbols, YoungTableau.check,
        law=lambda n: (n - 1, max(n - 1, 2 * n - 3)),
        word_form=plactic.word_form, format_form=plactic.format_form, mirror=reverse_complement,
    ),
    "hypo": MonoidHandle(
        "hypo", hypoplactic.quasi_ribbon,
        QuasiRibbonTableau.key, QuasiRibbonTableau.draw, QuasiRibbonTableau.to_json,
        QuasiRibbonTableau.symbols, QuasiRibbonTableau.check,
        hypoplactic.shift_path, class_graph=hypoplactic.class_graph, law=lambda n: (n - 1, n - 1),
        word_form=hypoplactic.word_form, format_form=hypoplactic.format_form, mirror=reverse_complement,
    ),
    "sylv": MonoidHandle(
        "sylv", sylvester.right_bst,
        sylvester.key, sylvester.draw, tree_json,
        labels, sylvester.check_right_strict,
        sylvester.shift_path, law=_tree_law,
        word_form=sylvester.word_form, format_form=sylvester.format_form,
        rotation_forms=sylvester.rotation_forms,
    ),
    "stal": MonoidHandle(
        "stal", stalactic.stalactic_tableau,
        StalacticTableau.key, StalacticTableau.draw, StalacticTableau.to_json,
        StalacticTableau.symbols, StalacticTableau.check,
        stalactic.shift_path, law=_stal_law,
        word_form=stalactic.word_form, format_form=stalactic.format_form, saturates=True,
        mirror=complement, rotation_forms=stalactic.rotation_forms,
    ),
    "taig": MonoidHandle(
        "taig", taiga.mult_bst,
        taiga.key, partial(sylvester.draw, with_mult=True), partial(tree_json, with_mult=True),
        taiga.symbols, taiga.check_mult_bst,
        taiga.shift_path, law=_tree_law,
        word_form=taiga.word_form, format_form=taiga.format_form, saturates=True, image_of="stal",
        mirror=complement,
    ),
    "baxt": MonoidHandle(
        "baxt", baxter.twin_pair,
        TwinPair.key, TwinPair.draw, TwinPair.to_json,
        TwinPair.symbols, TwinPair.check,
        word_form=baxter.word_form, format_form=baxter.format_form, mirror=reverse_complement,
        rotation_forms=baxter.rotation_forms,
    ),
    # the form is the class's canonical word; the object is that word formatted as its key
    "counterexample": MonoidHandle(
        "counterexample", _counter_key, str, str, str, relabel_invariant=False,
        word_form=_counter_form, format_form=format_word, moves=rewrite.counterexample_moves,
    ),
}


def handle(name: str) -> MonoidHandle:
    try:
        return HANDLES[name]
    except KeyError:
        raise ValueError(f"unknown monoid {name!r}; choose from {sorted(HANDLES)}")
