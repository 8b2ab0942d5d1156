"""Paths in cyclic shift graphs produced by the constructive algorithms.

Every step records a witness: a word ``w`` and a split ``k`` such that the
step's source is represented by ``w`` and its target by ``w[k:] + w[:k]``.
A step moves: its two ends are different classes.  Each builder drops a
shift that leaves its object as it was, and ``check_path`` rejects a step
that does not move.
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

