"""Binary search trees with multiplicities (the taiga monoid).

Labels are distinct and strictly ordered (left < node < right); each node
carries a positive multiplicity.  A repeated symbol bumps the multiplicity
instead of adding a node, so an element is determined by the stripped tree
shape together with the evaluation.
"""

from __future__ import annotations

from collections import Counter

from . import sylvester
from .paths import ShiftPath, follow
from .trees import Node, labels, postfix, serialize
from .words import Word


def mult_bst(word: Word) -> Node | None:
    """Leaf-insert ``word`` right to left; a repeated symbol bumps its node's multiplicity."""
    if not word:
        return None
    root = Node(word[-1])
    for a in word[-2::-1]:
        node = root
        while a != node.label:
            if a < node.label:
                if node.left is None:
                    node.left = Node(a)
                    break
                node = node.left
            elif node.right is None:
                node.right = Node(a)
                break
            else:
                node = node.right
        else:
            node.mult += 1
    return root


def word_form(word: Word) -> tuple[int, ...]:
    """Left children, right children and multiplicities, each an array indexed by label.

    ``0`` marks an empty child or an absent symbol (symbols are positive).
    Labels are distinct, so the arrays fix the tree; they are filled by the
    right to left insertion of ``mult_bst``, without nodes.
    """
    if not word:
        return ()
    size = max(word) + 1
    left, right, mult = [0] * size, [0] * size, [0] * size
    root = word[-1]
    for a in reversed(word):
        if mult[a]:
            mult[a] += 1
            continue
        mult[a] = 1
        node = root
        # descend to the empty slot, hang a there, and stop on reaching it
        while node != a:
            child = left if a < node else right
            if not child[node]:
                child[node] = a
            node = child[node]
    return tuple(left + right + mult)


def format_form(form: tuple[int, ...]) -> str:
    size = len(form) // 3
    left, right, mult = form[:size], form[size:2 * size], form[2 * size:]

    def build(a: int) -> Node | None:
        return Node(a, mult[a], build(left[a]), build(right[a])) if a else None

    # the root is the one present label that is nobody's child
    children = {*left, *right}
    root = next((a for a in range(1, size) if mult[a] and a not in children), 0)
    return serialize(build(root), with_mult=True)


def key(root: Node | None) -> str:
    return serialize(root, with_mult=True)


def check_mult_bst(root: Node | None) -> None:
    """Sylvester's order with distinct labels, so strict, and positive multiplicities."""
    sylvester.check_right_strict(root)
    nodes = postfix(root)
    if len({x.label for x in nodes}) < len(nodes):
        raise ValueError("labels must be distinct")
    if any(x.mult < 1 for x in nodes):
        raise ValueError("multiplicities must be positive")


def shift_path(t: Node | None, u: Node | None) -> ShiftPath:
    """Lift the stripped-tree witnesses (``sylvester.shift_moves``), repeating each symbol.

    ``labels`` lists each node once in postfix order, which is the stripped
    tree's postfix reading, so the witnesses come from the trees as given.
    ``paths.follow`` checks the lifted witnesses through ``word_form`` and
    builds only the path's elements as trees.  No lifted step is trivial:
    every sylvester step changes the stripped tree, and a taiga tree's shape
    is the search tree of its stripped word.
    """
    t_word = tuple(symbols(t))
    mult = Counter(t_word)

    def expand(word: Word) -> Word:
        return tuple(a for sym in word for a in (sym,) * mult[sym])

    lifted = [(expand(w), len(expand(w[:k]))) for w, k in sylvester.shift_moves(labels(t), labels(u))]
    path = follow(t, t_word, tuple(symbols(u)), lifted, word_form, mult_bst)
    if path.steps != len(lifted):
        raise AssertionError("a lifted step leaves the tree as it was")
    return path


def symbols(root: Node | None) -> list[int]:
    """Symbols stored in the tree, each repeated to its multiplicity."""
    return [x.label for x in postfix(root) for _ in range(x.mult)]
