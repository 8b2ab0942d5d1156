"""Stalactic tableaux: top-aligned columns, one distinct symbol per column.

Inserting right to left, a new symbol opens a column on the left and a known
symbol drops to the bottom of its column, so the column order matches the
order of the rightmost occurrences in the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .paths import ShiftPath, follow
from .words import Evaluation, Word, rotations


def word_form(word: Word) -> tuple[int, ...]:
    """The column symbols right to left, then their heights: the class's hashable form.

    Columns follow the rightmost occurrences; heights are the counts.  The
    form is flat, a third the size of a tuple of pairs, since a standard
    evaluation keeps one form per word; it lists the columns right to left,
    as the word's last occurrences read backwards, which saves a reversal.
    """
    last = dict.fromkeys(reversed(word))
    return (*last, *map(word.count, last))


def rotation_forms(word: Word, ev: Evaluation, period: int) -> list[tuple[int, ...]]:
    """``word_form`` of each rotation ``word[i:] + word[:i]``, i < ``period``, in one pass.

    Rotation i+1 ends with ``word[i]``: its order is rotation i's with ``word[i]``
    and its height moved to the front; heights come from ``ev``, never recounted.
    """
    order = list(dict.fromkeys(reversed(word)))
    heights = [ev[a - 1] for a in order]
    forms = [(*order, *heights)]
    for a in word[:period - 1]:
        k = order.index(a)
        del order[k]
        order.insert(0, a)
        heights.insert(0, heights.pop(k))
        forms.append((*order, *heights))
    return forms


@lru_cache(maxsize=64)
def _template(k: int) -> str:
    """The key of a flat form with k columns, as a format string: ``{k-1}^{2k-1}|{k-2}^{2k-2}|...``."""
    return "|".join(f"{{{k - 1 - i}}}^{{{2 * k - 1 - i}}}" for i in range(k))


def format_form(form: tuple[int, ...]) -> str:
    return _template(len(form) // 2).format(*form)


@dataclass(frozen=True)
class StalacticTableau:
    columns: tuple[tuple[int, int], ...]

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        syms = [a for a, _ in self.columns]
        if len(set(syms)) != len(syms):
            raise ValueError("stalactic columns carry pairwise distinct symbols")
        if any(h < 1 for _, h in self.columns):
            raise ValueError("column heights must be positive")

    def key(self) -> str:
        return format_form(sum(zip(*self.columns[::-1]), ()))  # the form: symbols, then heights, right to left

    def reading(self) -> Word:
        """Column word: each symbol repeated to its height, left to right."""
        return tuple(a for a, h in self.columns for _ in range(h))

    def symbols(self) -> list[int]:
        return [a for a in self.reading()]

    def draw(self) -> str:
        if not self.columns:
            return "(empty)"
        depth = max(h for _, h in self.columns)
        lines = []
        for i in range(depth):
            lines.append(" ".join(str(a) if i < h else " " for a, h in self.columns))
        return "\n".join(lines)

    def to_json(self) -> list[dict]:
        return [{"symbol": a, "height": h} for a, h in self.columns]


def stalactic_tableau(word: Word) -> StalacticTableau:
    """The tableau ``word`` inserts to right to left: its columns."""
    form = word_form(word)[::-1]  # the heights, then the symbols, left to right
    k = len(form) // 2
    return StalacticTableau(tuple(zip(form[k:], form[:k])))


def height_one_word(t: StalacticTableau) -> Word:
    """Symbols of the height-1 columns, read left to right."""
    return tuple(a for a, h in t.columns if h == 1)


def component_key(t: StalacticTableau) -> tuple[Word, tuple[tuple[int, int], ...]]:
    """Connected-component invariant: (rotation class of the height-1 word, evaluation).

    The rotation class is represented by its lexicographically least rotation;
    the evaluation by the sorted (symbol, height) pairs.
    """
    word = height_one_word(t)
    least = min(rotations(word)) if word else ()
    return least, tuple(sorted(t.columns))


def shift_path(t: StalacticTableau, u: StalacticTableau) -> ShiftPath:
    """Path of at most 3 shifts between tableaux with equal component keys.

    The witnesses are read off the endpoints and ``paths.follow`` checks
    them.  Both endpoints first rotate their repeated symbols to the right
    end; the remaining single columns, still in order, differ by a rotation,
    realized by one more shift.  Of these three shifts, one that leaves its
    tableau as it was is dropped.
    """
    if component_key(t) != component_key(u):
        raise ValueError("shift path requires equal component keys")
    if t == u:
        return follow(t, t.reading(), u.reading(), (), word_form, stalactic_tableau)

    def rest(x: StalacticTableau) -> Word:
        """The reading less the first copy of each repeated symbol: each tall column one shorter."""
        return tuple(a for a, h in x.columns for _ in range(max(h - 1, 1)))

    bvec = tuple(a for a, h in sorted(t.columns) if h > 1)
    singles_t, singles_u = height_one_word(t), height_one_word(u)
    split = next(
        k for k in range(len(singles_t) + 1) if singles_t[k:] + singles_t[:k] == singles_u
    )
    # P(y x) has t's singles, then the repeated block; P(x y) has u's singles
    x = singles_t[split:] + bvec
    y = singles_t[:split] + tuple(a for a, h in sorted(t.columns) if h > 1 for _ in range(h - 1))
    u_rest = rest(u)
    witnesses = ((bvec + rest(t), len(bvec)), (y + x, len(y)), (u_rest + bvec, len(u_rest)))
    return follow(t, t.reading(), u.reading(), witnesses, word_form, stalactic_tableau)


def conjugacy_witness(u: Word, v: Word) -> tuple[Word, Word]:
    """Two-sided intertwiners for words with equal evaluations.

    Returns (g, h) with g the column symbols of the source tableau and h those
    of the target, satisfying g u == v g and u h == h v in the monoid.
    """
    if sorted(u) != sorted(v):
        raise ValueError("conjugacy witnesses require equal evaluations")
    g, h = (tuple(a for a, _ in stalactic_tableau(w).columns) for w in (u, v))
    if word_form(g + u) != word_form(v + g):
        raise AssertionError("left witness fails")
    if word_form(u + h) != word_form(h + v):
        raise AssertionError("right witness fails")
    return g, h
