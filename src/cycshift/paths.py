"""Paths in cyclic shift graphs produced by the constructive algorithms.

Every step records a witness: a word ``w`` and a split ``k`` such that the
step's source is represented by ``w`` and its target by ``w[k:] + w[:k]``.
A step moves: its two ends are different classes.  ``follow`` builds and
checks the stalactic and taiga paths from their witnesses, dropping a shift
that leaves the class as it was; the hypoplactic and sylvester builders check
their own steps.  ``check_path`` checks any path against a handle's keys and
rejects a step that does not move.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Word


@dataclass(frozen=True)
class ShiftPath:
    """A path T_0 ~ T_1 ~ ... ~ T_k with per-step rotation witnesses."""

    elements: tuple
    moves: tuple[tuple[Word, int], ...]

    @property
    def steps(self) -> int:
        return len(self.elements) - 1

    def step_words(self) -> list[tuple[Word, Word]]:
        """Word pairs (uv, vu) witnessing each step."""
        return [(w, w[k:] + w[:k]) for w, k in self.moves]


def follow(start, t_word: Word, u_word: Word, witnesses, word_form, element) -> ShiftPath:
    """The checked path that ``witnesses`` walk from ``start`` to ``u_word``'s class.

    ``t_word`` represents ``start``; ``word_form`` maps a word to its class's
    form and ``element`` to its object.  Each witness ``(w, k)`` must read the current class; its rotation
    ``w[k:] + w[:k]`` is the next one, and a witness that keeps the class is
    no step.  The walk must end at ``u_word``'s class.
    """
    if sorted(t_word) != sorted(u_word):
        raise ValueError("shift path requires equal evaluations")
    elements, moves, form = [start], [], word_form(t_word)
    for w, k in witnesses:
        if word_form(w) != form:
            raise AssertionError(f"witness {w}|{k} does not read the current element")
        vu = w[k:] + w[:k]
        last, form = form, word_form(vu)
        if form != last:
            moves.append((w, k))
            elements.append(element(vu))
    if form != word_form(u_word):
        raise AssertionError("shift path did not reach its target")
    return ShiftPath(tuple(elements), tuple(moves))


def check_path(handle, path: ShiftPath, source: str, target: str, graph=None) -> None:
    """Raise ValueError unless ``path`` is a witnessed path from ``source`` to ``target``.

    ``handle`` is the monoid's ``MonoidHandle`` and the endpoints are class
    keys.  Each step's witness ``(w, k)`` must key to the step's source and
    its rotation ``w[k:] + w[:k]`` to the step's target; the two ends of a
    step must differ, and each step must be an edge of ``graph`` (a
    ``ShiftGraph``) when one is given; and the path may take at most
    ``handle.path_bound(n)`` steps, ``n`` the number of distinct symbols.
    """
    keys = [handle.key(el) for el in path.elements]
    if (keys[0], keys[-1]) != (source, target):
        raise ValueError(f"path runs {keys[0]} -> {keys[-1]}, not {source} -> {target}")
    if len(path.moves) != path.steps:
        raise ValueError(f"{path.steps} steps but {len(path.moves)} witnesses")
    for (a, b), (w, k) in zip(zip(keys, keys[1:]), path.moves):
        if (handle.key_of(w), handle.key_of(w[k:] + w[:k])) != (a, b):
            raise ValueError(f"witness {w}|{k} does not shift {a} to {b}")
        if a == b:
            raise ValueError(f"step {a} -> {b} does not move")
        if graph is not None and not graph.has_edge(a, b):
            raise ValueError(f"step {a} -> {b} is not an edge")
    bound = handle.path_bound(len(set(handle.symbols(path.elements[0]))))
    if path.steps > bound:
        raise ValueError(f"{path.steps} steps exceed the bound {bound}")

