"""Stalactic tableaux: top-aligned columns, one distinct symbol per column.

Inserting right to left, a new symbol opens a column on the left and a known
symbol drops to the bottom of its column, so the column order matches the
order of the rightmost occurrences in the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .paths import ShiftPath
from .words import Word, rotations


def word_form(word: Word) -> tuple[int, ...]:
    """The column symbols, then the column heights: the class's hashable form.

    Columns follow the rightmost occurrences; heights are the counts.  The
    form is flat, a third the size of a tuple of pairs, since a standard
    evaluation keeps one form per word.
    """
    order = tuple(reversed(dict.fromkeys(reversed(word))))
    return order + tuple(map(word.count, order))


@lru_cache(maxsize=64)
def _template(k: int) -> str:
    """The key of a flat form with k columns, as a format string: ``{0}^{k}|{1}^{k+1}|...``."""
    return "|".join(f"{{{i}}}^{{{k + i}}}" for i in range(k))


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
        return format_form(sum(zip(*self.columns), ()))  # the symbols, then the heights

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
    form = word_form(word)
    k = len(form) // 2
    return StalacticTableau(tuple(zip(form[:k], form[k:])))


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

    Both endpoints first rotate their repeated symbols to the right end; the
    remaining single columns differ by a rotation, realized by one more shift.
    Of these three shifts, one that leaves its tableau as it was is dropped.
    """
    if component_key(t) != component_key(u):
        raise ValueError("shift path requires equal component keys")
    if t == u:
        return ShiftPath((t,), ())
    rep = sorted(a for a, h in t.columns if h > 1)
    bvec = tuple(rep)

    def strip_leftmost(word: Word) -> Word:
        pending = set(rep)
        out = []
        for a in word:
            if a in pending:
                pending.discard(a)
            else:
                out.append(a)
        return tuple(out)

    t_word, u_word = t.reading(), u.reading()
    t_rest = strip_leftmost(t_word)
    u_rest = strip_leftmost(u_word)
    if stalactic_tableau(bvec + t_rest) != t:
        raise AssertionError("re-fronted reading does not represent the source")
    if stalactic_tableau(bvec + u_rest) != u:
        raise AssertionError("re-fronted reading does not represent the target")
    t1 = stalactic_tableau(t_rest + bvec)
    u1 = stalactic_tableau(u_rest + bvec)

    # middle shift: rotate the single columns of t1 into u1's order
    singles_t = height_one_word(t1)
    singles_u = height_one_word(u1)
    mlen = len(singles_t)
    split = next(
        k for k in range(mlen + 1) if singles_t[k:] + singles_t[:k] == singles_u
    )
    # u1 = P(x y) and t1 = P(y x) with x = rotated singles tail + repeated block
    s_word = tuple(a for a, h in u1.columns if h > 1 for _ in range(h))
    s_stripped = strip_leftmost(s_word)
    x = singles_t[split:] + bvec
    y = singles_t[:split] + s_stripped
    if stalactic_tableau(x + y) != u1:
        raise AssertionError("middle witness does not represent the rotated tableau")
    if stalactic_tableau(y + x) != t1:
        raise AssertionError("middle witness does not represent the source tableau")

    # a shift that leaves the tableau as it was is no step
    elements, moves = [t], []
    for el, move in ((t1, (bvec + t_rest, len(bvec))), (u1, (y + x, len(y))),
                     (u, (u_rest + bvec, len(u_rest)))):
        if el != elements[-1]:
            elements.append(el)
            moves.append(move)
    return ShiftPath(tuple(elements), tuple(moves))


def conjugacy_witness(u: Word, v: Word) -> tuple[Word, Word]:
    """Two-sided intertwiners for words with equal evaluations.

    Returns (g, h) with g the column symbols of the source tableau and h those
    of the target, satisfying g u == v g and u h == h v in the monoid.  A
    word's column symbols are the first half of its ``word_form``.
    """
    if sorted(u) != sorted(v):
        raise ValueError("conjugacy witnesses require equal evaluations")
    g, h = (form[:len(form) // 2] for form in (word_form(u), word_form(v)))
    if word_form(g + u) != word_form(v + g):
        raise AssertionError("left witness fails")
    if word_form(u + h) != word_form(h + v):
        raise AssertionError("right witness fails")
    return g, h
