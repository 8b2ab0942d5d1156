"""Quasi-ribbon tableaux and hypoplactic insertion.

A quasi-ribbon tableau has weakly increasing rows attached in a ribbon: each
row is glued to the next by exactly one column (no 2x2 block), and the single
overlap cell strictly increases downwards.  Consequently every symbol of row
i+1 is strictly greater than every symbol of row i, so the tableau is
determined by its evaluation together with the set of adjacent-symbol row
breaks.  Rows are stored as runs; offsets follow from the run lengths.

A class's form is its sorted word with those breaks (``word_form``).  Its
key and its tableau are read off the form, with no insertion; the tests
hold the form to an insertion of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

from .paths import ShiftPath
from .words import Evaluation, Word, format_word


def word_form(word: Word) -> tuple[Word, tuple[int, ...]]:
    """The sorted word and its row breaks, the class's hashable form.

    Of two consecutive distinct symbols ``a < b``, ``b`` starts a new row
    exactly when some ``b`` stands left of some ``a`` (Novelli 2000).
    """
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, a in enumerate(word):
        first.setdefault(a, i)
        last[a] = i
    syms = sorted(last)
    return tuple(sorted(word)), tuple(b for a, b in zip(syms, syms[1:]) if first[b] < last[a])


def _rows(form: tuple[Word, tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The sorted word cut into rows before each break."""
    ordered, breaks = form
    rows: list[list[int]] = []
    for a in ordered:
        if rows and (a == rows[-1][-1] or a not in breaks):
            rows[-1].append(a)
        else:
            rows.append([a])
    return tuple(map(tuple, rows))


def format_form(form: tuple[Word, tuple[int, ...]]) -> str:
    return QuasiRibbonTableau(_rows(form)).key()


#: (placement of a, placement of b) -> the allowed (old bit, new bit) changes, where a
#: symbol's copies lie all in u (U), all in v (V) or on both sides (B)
_MOVES = {"UU": ("00", "11"), "VV": ("00", "11"), "UV": ("01",), "VU": ("10",), "BB": ("11",),
          "BU": ("10", "11"), "VB": ("10", "11"), "UB": ("01", "11"), "BV": ("01", "11")}


def class_graph(
    ev: Evaluation, source: tuple[Word, tuple[int, ...]] | None = None,
) -> dict[Word, set[Word]]:
    """The shift graph of ``ev`` on row readings, one per class, with no word enumerated.

    Given ``source``, the ``word_form`` of one class of ``ev``, only that
    class's entry is built.

    A class is ``ev`` and one bit per pair ``a < b`` of consecutive support
    symbols, "some b stands before some a" (``word_form``).  A shift
    ``uv -> vu`` changes each pair's bit as ``_MOVES`` allows for where the
    copies of ``a`` and ``b`` lie.  With ``UV`` every a precedes every b in
    uv and follows them in vu, so 0 -> 1; with ``UU`` the order inside u
    stays; with ``BU`` some b in u precedes the a in v, so the old bit is 1,
    and the new one is the order inside u.  Each bit the table leaves free is
    the order of two blocks on one side, and on each side these pairs form a
    chain, which some order of the side's blocks realizes whatever the bits.
    So two classes are adjacent exactly when one placement of the symbols
    allows every pair's change.  A frontier walk along the chain keeps each
    placement of the current symbol with the new bits so far.
    """
    support = [(s, c) for s, c in enumerate(ev, 1) if c]
    places = ["UVB" if c > 1 else "UV" for _, c in support]
    ordered = tuple(s for s, c in support for _ in range(c))

    @cache
    def reading(bits: tuple[str, ...]) -> Word:
        breaks = tuple(b for (b, _), bit in zip(support[1:], bits) if bit == "1")
        return tuple(a for row in reversed(_rows((ordered, breaks))) for a in row)

    if source is None:
        sources = product("01", repeat=max(len(support) - 1, 0))
    else:
        sources = [tuple("1" if b in source[1] else "0" for b, _ in support[1:])]
    out = {}
    for old in sources:
        frontier = {(p, ()) for p in places[0]} if places else set()
        for bit, here in zip(old, places[1:]):
            frontier = {(q, new + (b,)) for p, new in frontier for q in here
                        for a, b in _MOVES[p + q] if a == bit}
        out[reading(old)] = {reading(new) for _, new in frontier if new != old}
    return out


@dataclass(frozen=True)
class QuasiRibbonTableau:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        # every row first: the overlap test reads the next row's first symbol
        if not all(self.rows):
            raise ValueError("quasi-ribbon rows must be non-empty")
        for i, row in enumerate(self.rows):
            if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
                raise ValueError(f"row {i} not weakly increasing: {row}")
            if i + 1 < len(self.rows) and row[-1] >= self.rows[i + 1][0]:
                raise ValueError("overlap column must strictly increase downwards")

    @property
    def offsets(self) -> tuple[int, ...]:
        offs = [0] if self.rows else []
        for row in self.rows[:-1]:
            offs.append(offs[-1] + len(row) - 1)
        return tuple(offs)

    def key(self) -> str:
        return "/".join(f"{o}:{format_word(r)}" for o, r in zip(self.offsets, self.rows))

    def symbols(self) -> list[int]:
        return [a for row in self.rows for a in row]

    def columns(self) -> list[list[int]]:
        """Columns left to right, each listed bottom to top."""
        if not self.rows:
            return []
        offs = self.offsets
        width = offs[-1] + len(self.rows[-1])
        cols: list[list[int]] = [[] for _ in range(width)]
        # iterate rows bottom-up so each column comes out bottom-to-top
        for i in range(len(self.rows) - 1, -1, -1):
            for j, a in enumerate(self.rows[i]):
                cols[offs[i] + j].append(a)
        return cols

    def column_reading(self) -> Word:
        return tuple(a for col in self.columns() for a in col)

    def row_reading(self) -> Word:
        out: list[int] = []
        for row in reversed(self.rows):
            out.extend(row)
        return tuple(out)

    def draw(self) -> str:
        lines = []
        for o, row in zip(self.offsets, self.rows):
            lines.append("  " * o + " ".join(str(a) for a in row))
        return "\n".join(lines) or "(empty)"

    def to_json(self) -> list[dict]:
        return [{"offset": o, "row": list(r)} for o, r in zip(self.offsets, self.rows)]


def quasi_ribbon(word: Word) -> QuasiRibbonTableau:
    """The tableau of ``word``, read off its form (as if inserted left to right)."""
    return QuasiRibbonTableau(_rows(word_form(word)))


def shift_path(t: QuasiRibbonTableau, u: QuasiRibbonTableau) -> ShiftPath:
    """Cyclic-shift path from ``t`` to ``u`` using at most (#distinct symbols)-1 shifts.

    Working up through the distinct symbols, each step makes the placement of
    the pair (i, i+1) agree with ``u`` (same row vs. split rows) by rotating
    either the column reading, split after the column holding the rightmost i,
    or the row reading, split after the row holding the symbols i+1.  The
    already-settled part on symbols <= i is never broken up.  Rows strictly
    increase, so i+1 shares the row of i unless it starts a row.
    """
    t_syms, u_syms = sorted(t.symbols()), sorted(u.symbols())
    if t_syms != u_syms:
        raise ValueError("shift path requires equal evaluations")
    syms = sorted(set(t_syms))
    goal = {row[0] for row in u.rows}
    elements = [t]
    moves: list[tuple[Word, int]] = []
    cur = t
    for lo, hi in zip(syms, syms[1:]):
        split = hi in {row[0] for row in cur.rows}
        if split == (hi in goal):
            continue
        if split:
            # split the row reading after the row the symbols hi start (rows r.. read first)
            r = next(ri for ri, row in enumerate(cur.rows) if row[0] == hi)
            word, cut = cur.row_reading(), sum(map(len, cur.rows[r:]))
        else:
            # split the column reading after the column holding the rightmost lo
            cols = cur.columns()
            c = max(ci for ci, col in enumerate(cols) if lo in col)
            word, cut = cur.column_reading(), sum(map(len, cols[: c + 1]))
        if quasi_ribbon(word) != cur:
            raise AssertionError("split reading does not represent the current tableau")
        nxt = quasi_ribbon(word[cut:] + word[:cut])
        moves.append((word, cut))
        elements.append(nxt)
        cur = nxt
    if cur != u:
        raise AssertionError("hypoplactic shift path did not reach its target")
    # every recorded step flips one pair, so none is trivial
    return ShiftPath(tuple(elements), tuple(moves))
