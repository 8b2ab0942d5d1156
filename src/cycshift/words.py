"""Words over the ordered alphabet {1 < 2 < ...} and their basic statistics.

A word is a tuple of positive integers.  The rank (alphabet size) is carried
alongside words, never inferred, so that a rank-6 scan sees unused symbols.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator

Word = tuple[int, ...]
Evaluation = tuple[int, ...]

#: Global guard for exponential enumerations (number of symbols enumerated).
DEFAULT_MAX_TOTAL = 10

#: Default for ``class --max-class``: the most words the ``class`` command lists.
DEFAULT_MAX_CLASS = 12


class LimitExceededError(ValueError):
    """An enumeration would exceed the configured size limit."""


def check_word(word: Word, rank: int) -> None:
    """Raise ValueError unless every symbol of ``word`` lies in 1..rank."""
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    for a in word:
        if not 1 <= a <= rank:
            raise ValueError(f"symbol {a} outside alphabet 1..{rank}")


def evaluation(word: Word, rank: int) -> Evaluation:
    """Count occurrences of each symbol 1..rank in ``word``."""
    check_word(word, rank)
    counts = [0] * rank
    for a in word:
        counts[a - 1] += 1
    return tuple(counts)


def is_standard(word: Word) -> bool:
    """True iff ``word`` contains each of 1..len(word) exactly once."""
    return sorted(word) == list(range(1, len(word) + 1))


def rotate(word: Word, k: int) -> Word:
    """Cyclic rotation: return word[k:] + word[:k].  Requires 0 <= k <= len."""
    if not 0 <= k <= len(word):
        raise IndexError(f"rotation index {k} out of range for length {len(word)}")
    return word[k:] + word[:k]


def rotations(word: Word) -> list[Word]:
    """All rotations word[k:]+word[:k] for k = 0..len(word), duplicates kept."""
    return [word[k:] + word[:k] for k in range(len(word) + 1)]


def complement(word: Word, rank: int) -> Word:
    """Each symbol ``a`` replaced by ``rank + 1 - a``: a word of the reversed evaluation."""
    return tuple(rank + 1 - a for a in word)


def reverse_complement(word: Word, rank: int) -> Word:
    """The complement read right to left."""
    return complement(word[::-1], rank)


def multinomial(ev: Evaluation) -> int:
    """Number of distinct arrangements of the multiset described by ``ev``."""
    n = factorial(sum(ev))
    for c in ev:
        n //= factorial(c)
    return n


def check_total(ev: Evaluation, limit: int | None) -> None:
    bound = DEFAULT_MAX_TOTAL if limit is None else limit
    total = sum(ev)
    if total > bound:
        raise LimitExceededError(
            f"evaluation total {total} exceeds enumeration limit {bound} (evaluation {ev})"
        )


def _arrangements(a: list[int]) -> Iterator[Word]:
    """Every arrangement of the sorted list ``a``, in lexicographic order.

    Knuth's Algorithm L: ``a`` steps to the next permutation in place.
    """
    n = len(a)
    while True:
        yield tuple(a)
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = n - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1 :] = a[:j:-1]


def _sorted_symbols(ev: Evaluation) -> list[int]:
    return [s + 1 for s, c in enumerate(ev) for _ in range(c)]


def words_with_evaluation(ev: Evaluation, limit: int | None = None) -> Iterator[Word]:
    """Yield every word with the given evaluation, in lexicographic order.

    The total sum(ev) is bounded by ``limit`` (default DEFAULT_MAX_TOTAL);
    the bound is checked when this is called, before the first word.
    """
    check_total(ev, limit)
    return _arrangements(_sorted_symbols(ev))


def necklaces(ev: Evaluation, limit: int | None = None) -> Iterator[Word]:
    """Yield one word of each rotation class (necklace) with evaluation ``ev``.

    When some symbol occurs once, the least such symbol ``s`` anchors every
    necklace: a necklace then has period its length, so exactly one of its
    rotations starts with ``s``, and ``(s,) + tail`` for every arrangement
    ``tail`` of the other symbols lists each necklace once, with no rotation
    compared.  Otherwise each necklace appears at its least rotation, in
    lexicographic order: a least rotation starts with the least symbol, so
    only the arrangements of the rest follow it, and only the rotations that
    also start with that symbol can be smaller.  When the least symbol is
    the anchor, both rules give the same words in the same order.  The limit
    is checked as in ``words_with_evaluation``.
    """
    check_total(ev, limit)
    symbols = _sorted_symbols(ev)
    if not symbols:
        return iter([()])
    if 1 in ev:
        anchor = ev.index(1) + 1
        symbols.remove(anchor)
        return ((anchor,) + tail for tail in _arrangements(symbols))
    least, n = symbols[0], len(symbols)

    def gen() -> Iterator[Word]:
        for tail in _arrangements(symbols[1:]):
            w = (least,) + tail
            if all(w <= w[i:] + w[:i] for i in range(1, n) if w[i] == least):
                yield w

    return gen()


def cocharge_seq(word: Word) -> tuple[int, ...]:
    """Cocharge sequence of a standard word.

    Write the word anticlockwise around a circle with a marker at the seam.
    Label symbol 1 with 0; having labelled i with k, symbol i+1 gets k+1 when
    it is reached clockwise before the seam, and k otherwise.  Reading in word
    positions: the label grows exactly when i+1 occurs earlier than i.
    """
    if not is_standard(word):
        raise ValueError(f"cocharge sequence requires a standard word, got {word}")
    pos = {a: i for i, a in enumerate(word)}
    labels = [0]
    for i in range(2, len(word) + 1):
        labels.append(labels[-1] + (1 if pos[i] < pos[i - 1] else 0))
    seq = tuple(labels) if word else ()
    _check_cocharge(seq)
    return seq


def _check_cocharge(seq: tuple[int, ...]) -> None:
    if seq and seq[0] != 0:
        raise ValueError(f"cocharge sequence must start at 0, got {seq}")
    for a, b in zip(seq, seq[1:]):
        if b not in (a, a + 1):
            raise ValueError(f"cocharge sequence must grow by 0 or 1 per step, got {seq}")


def parse_word(text: str) -> Word:
    """Parse a compact digit string ("1325") or comma-separated form ("10,3,12")."""
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    else:
        parts = list(text)
    try:
        word = tuple(int(p) for p in parts)
    except ValueError as e:
        raise ValueError(f"cannot parse word from {text!r}") from e
    if any(a < 1 for a in word):
        raise ValueError(f"symbols must be positive, got {word}")
    return word


def format_word(word: Word) -> str:
    """Compact digit string when all symbols are single digits, else comma-separated."""
    text = "".join(map(str, word))
    return text if len(text) == len(word) else ",".join(map(str, word))
