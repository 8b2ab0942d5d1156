"""Presentation-based brute-force oracle.

Each monoid's defining relations are realized as a move generator: given a
word, yield every word reachable by one application of a relation in either
direction.  Congruence classes are then breadth-first closures, which stay
finite because every relation preserves the evaluation (checked per move).

Built-in presentations: plac, hypo, sylv, stal, taig, baxt and the rank-4
"counterexample" monoid on symbols a=1, b=2, x=3, y=4 whose components have
unbounded diameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .words import DEFAULT_MAX_TOTAL, LimitExceededError, Word, rotations

#: most words a closure cache holds; it is emptied before an insertion would
#: pass this, so long-lived presentations (``handles._COUNTER``) stay bounded
_CACHE_WORDS = 1 << 16

MoveFn = Callable[[Word], Iterator[Word]]

A_SYM, B_SYM, X_SYM, Y_SYM = 1, 2, 3, 4


def _swap(word: Word, i: int) -> Word:
    return word[:i] + (word[i + 1], word[i]) + word[i + 2 :]


def _window(word: Word, i: int, repl: tuple[int, ...]) -> Word:
    new = word[:i] + repl + word[i + len(repl) :]
    if sorted(new) != sorted(word):
        raise RuntimeError(f"rewrite of {word} at {i} by {repl} changes the evaluation")
    return new


def plac_moves(word: Word) -> Iterator[Word]:
    n = len(word)
    for i in range(n - 2):
        a, b, c = word[i], word[i + 1], word[i + 2]
        # acb <-> cab for a <= b < c
        if a <= c < b or b <= c < a:
            yield _window(word, i, (b, a, c))
        # bac <-> bca for a < b <= c
        if b < a <= c or c < a <= b:
            yield _window(word, i, (a, c, b))


def hypo_moves(word: Word) -> Iterator[Word]:
    yield from plac_moves(word)
    n = len(word)
    for i in range(n - 3):
        w0, w1, w2, w3 = word[i : i + 4]
        repl = (w1, w0, w3, w2)
        # cadb <-> acbd for a <= b < c <= d
        if w1 <= w3 < w0 <= w2 or w0 <= w2 < w1 <= w3:
            yield _window(word, i, repl)
        # bdac <-> dbca for a < b <= c < d
        if w2 < w0 <= w3 < w1 or w3 < w1 <= w2 < w0:
            yield _window(word, i, repl)


def sylv_moves(word: Word) -> Iterator[Word]:
    # cavb <-> acvb for a <= b < c: swap an adjacent descent/ascent with a
    # later witness strictly between the two
    n = len(word)
    for i in range(n - 1):
        x, y = word[i], word[i + 1]
        if x == y:
            continue
        lo, hi = (x, y) if x < y else (y, x)
        if any(lo <= word[j] < hi for j in range(i + 2, n)):
            yield _swap(word, i)


def stal_moves(word: Word) -> Iterator[Word]:
    # bavb <-> abvb: swap an adjacent pair when one member recurs later
    n = len(word)
    for i in range(n - 1):
        if word[i] == word[i + 1]:
            continue
        if any(word[j] == word[i] or word[j] == word[i + 1] for j in range(i + 2, n)):
            yield _swap(word, i)


def taig_moves(word: Word) -> Iterator[Word]:
    yield from sylv_moves(word)
    yield from stal_moves(word)


def baxt_moves(word: Word) -> Iterator[Word]:
    # cudavb <-> cuadvb for a <= b < c <= d, and budavc <-> buadvc for
    # a < b <= c < d: swap an adjacent pair given earlier and later witnesses
    n = len(word)
    for i in range(1, n - 2):
        x, y = word[i], word[i + 1]
        if x == y:
            continue
        lo, hi = (x, y) if x < y else (y, x)
        emitted = False
        for p in range(i):
            wp = word[p]
            if emitted:
                break
            for j in range(i + 2, n):
                wj = word[j]
                if (lo <= wj < wp <= hi) or (lo < wp <= wj < hi):
                    yield _swap(word, i)
                    emitted = True
                    break


_COUNTER_RULES: tuple[tuple[Word, Word], ...] = (
    ((B_SYM, X_SYM, Y_SYM), (X_SYM, Y_SYM, B_SYM)),
    ((B_SYM, Y_SYM, X_SYM), (Y_SYM, X_SYM, B_SYM)),
    ((A_SYM, X_SYM, Y_SYM, B_SYM), (B_SYM, Y_SYM, X_SYM, A_SYM)),
)


def counterexample_moves(word: Word) -> Iterator[Word]:
    for lhs, rhs in _COUNTER_RULES:
        for pat, repl in ((lhs, rhs), (rhs, lhs)):
            k = len(pat)
            for i in range(len(word) - k + 1):
                if word[i : i + k] == pat:
                    yield _window(word, i, repl)


@dataclass(frozen=True)
class CongruenceClass:
    members: frozenset[Word]
    canonical: Word

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class PresentedMonoid:
    """A named presentation with a move generator and a closure cache."""

    name: str
    moves: MoveFn
    _cache: dict[Word, CongruenceClass] = field(default_factory=dict, repr=False)

    def close(self, word: Word, limit: int | None = None) -> CongruenceClass:
        """The full congruence class of ``word`` by breadth-first closure.

        The cache maps each member of a closed class to the class itself, so
        a hit costs one lookup and the canonical word is found once per class.
        """
        bound = DEFAULT_MAX_TOTAL if limit is None else limit
        if len(word) > bound:
            raise LimitExceededError(f"word length {len(word)} exceeds closure limit {bound}")
        cls = self._cache.get(word)
        if cls is None:
            seen = {word}
            frontier = [word]
            while frontier:
                nxt = []
                for w in frontier:
                    for w2 in self.moves(w):
                        if w2 not in seen:
                            seen.add(w2)
                            nxt.append(w2)
                frontier = nxt
            cls = CongruenceClass(frozenset(seen), min(seen))
            if len(self._cache) + len(cls) > _CACHE_WORDS:
                self._cache.clear()
            if len(cls) <= _CACHE_WORDS:
                for w in cls.members:
                    self._cache[w] = cls
        return cls

    def word_neighbors(self, word: Word, limit: int | None = None) -> list[CongruenceClass]:
        """Classes of all rotations of all members of the class of ``word``."""
        cls = self.close(word, limit)
        out: dict[Word, CongruenceClass] = {}
        for member in cls.members:
            for rot in rotations(member):
                c = self.close(rot, limit)
                out.setdefault(c.canonical, c)
        return [out[k] for k in sorted(out)]


PRESENTATIONS: dict[str, MoveFn] = {
    "plac": plac_moves,
    "hypo": hypo_moves,
    "sylv": sylv_moves,
    "stal": stal_moves,
    "taig": taig_moves,
    "baxt": baxt_moves,
    "counterexample": counterexample_moves,
}


def presentation(name: str) -> PresentedMonoid:
    try:
        moves = PRESENTATIONS[name]
    except KeyError:
        raise ValueError(f"unknown presentation {name!r}; choose from {sorted(PRESENTATIONS)}")
    return PresentedMonoid(name=name, moves=moves)


# ---------------------------------------------------------------------------
# the unbounded-diameter invariant of the counterexample monoid


def parse_factors(word: Word) -> list[Word]:
    """Split into factors a, b, xy, yx; raise when no such factorization exists."""
    out: list[Word] = []
    i = 0
    while i < len(word):
        if word[i] in (A_SYM, B_SYM):
            out.append((word[i],))
            i += 1
        elif word[i : i + 2] in ((X_SYM, Y_SYM), (Y_SYM, X_SYM)):
            out.append(word[i : i + 2])
            i += 2
        else:
            raise ValueError(f"word {word} is not a product of a, b, xy, yx factors")
    return out


def in_factor_language(word: Word) -> bool:
    """True for products of a, b, xy, yx containing a and b exactly once each."""
    try:
        parse_factors(word)
    except ValueError:
        return False
    return word.count(A_SYM) == 1 and word.count(B_SYM) == 1


def xy_cycle_invariant(word: Word) -> int:
    """Count the cyclic run of xy factors after the unique a, ignoring b.

    Reading the word cyclically from the symbol a (wrapping past the seam at
    the word boundary) and skipping b, count how many consecutive xy pairs
    follow; add one unless b occurs after a but before the seam.
    """
    if not in_factor_language(word):
        raise ValueError(f"word {word} is outside the invariant's domain")
    pos_a = word.index(A_SYM)
    cyc = word[pos_a + 1 :] + word[:pos_a]
    reduced = [s for s in cyc if s != B_SYM]
    k = 0
    while 2 * k + 1 < len(reduced) and reduced[2 * k] == X_SYM and reduced[2 * k + 1] == Y_SYM:
        k += 1
    b_before_seam = B_SYM in word[pos_a + 1 :]
    return k if b_before_seam else k + 1
