"""Young tableaux and Schensted row insertion (the plactic monoid).

Rows carry weakly increasing entries, columns strictly increase downwards,
and row lengths weakly decrease from top to bottom.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .words import Word, format_word


def _insert_into_rows(rows: list[list[int]], a: int) -> None:
    """Row-insert ``a``: bump the leftmost strictly greater entry downwards."""
    for row in rows:
        if a >= row[-1]:
            row.append(a)
            return
        j = bisect_right(row, a)
        a, row[j] = row[j], a
    rows.append([a])


def word_form(word: Word) -> tuple[tuple[int, ...], ...]:
    """The rows of the tableau of ``word``, the class's hashable form."""
    rows: list[list[int]] = []
    for a in word:
        _insert_into_rows(rows, a)
    return tuple(map(tuple, rows))


def format_form(rows) -> str:
    """Canonical key of a plactic class from its rows (joined by '/')."""
    return "/".join(map(format_word, rows))


@dataclass(frozen=True)
class YoungTableau:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        rows = self.rows
        for i, row in enumerate(rows):
            if not row:
                raise ValueError("Young tableau rows must be non-empty")
            if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
                raise ValueError(f"row {i} not weakly increasing: {row}")
            if i + 1 < len(rows):
                below = rows[i + 1]
                if len(below) > len(row):
                    raise ValueError("row lengths must weakly decrease")
                if any(row[j] >= below[j] for j in range(len(below))):
                    raise ValueError("columns must strictly increase")

    def key(self) -> str:
        return format_form(self.rows)

    def symbols(self) -> list[int]:
        return [a for row in self.rows for a in row]

    def draw(self) -> str:
        return "\n".join(" ".join(str(a) for a in row) for row in self.rows) or "(empty)"

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def young_tableau(word: Word) -> YoungTableau:
    """Insert the symbols of ``word`` left to right into the empty tableau."""
    return YoungTableau(word_form(word))

