"""Binary search trees with multiplicities (the taiga monoid).

Labels are distinct and strictly ordered (left < node < right); each node
carries a positive multiplicity.  A repeated symbol bumps the multiplicity
instead of adding a node, so an element is determined by the stripped tree
shape together with the evaluation.
"""

from __future__ import annotations

from . import sylvester
from .paths import ShiftPath, compress_path
from .trees import Node, clone, postfix, serialize
from .words import Word


def _insert_mut(root: Node | None, a: int) -> Node:
    if root is None:
        return Node(a, 1)
    node = root
    while True:
        if a == node.label:
            node.mult += 1
            return root
        if a < node.label:
            if node.left is None:
                node.left = Node(a, 1)
                return root
            node = node.left
        else:
            if node.right is None:
                node.right = Node(a, 1)
                return root
            node = node.right


def mult_bst(word: Word) -> Node | None:
    """Insert the symbols of ``word`` right to left into the empty tree."""
    root: Node | None = None
    for a in reversed(word):
        root = _insert_mut(root, a)
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
    stack: list[tuple[Node | None, int | None, int | None]] = [(root, None, None)]
    while stack:
        node, lo, hi = stack.pop()
        if node is None:
            continue
        if node.mult < 1:
            raise ValueError("multiplicities must be positive")
        if lo is not None and node.label <= lo:
            raise ValueError("labels must strictly increase rightwards")
        if hi is not None and node.label >= hi:
            raise ValueError("labels must strictly decrease leftwards")
        stack.append((node.left, lo, node.label))
        stack.append((node.right, node.label, hi))


def drop_multiplicities(root: Node | None) -> Node | None:
    """Forget multiplicities; distinct labels make the result a (both-strict) BST."""
    if root is None:
        return None
    return Node(root.label, 1, drop_multiplicities(root.left), drop_multiplicities(root.right))


def _form(root: Node | None) -> tuple[int, ...]:
    """Label, multiplicity, label, ... in postfix order: distinct labels make it injective.

    Flat rather than pairs: a 2-tuple per node raised the paths benchmark's peak RSS.
    """
    return tuple([v for x in postfix(root) for v in (x.label, x.mult)])


def shift_path(t: Node | None, u: Node | None) -> ShiftPath:
    """Lift the stripped-tree shift path, repeating each symbol per the evaluation."""
    forms, target = [_form(t)], _form(u)
    mult = dict(zip(forms[0][::2], forms[0][1::2]))
    if mult != dict(zip(target[::2], target[1::2])):
        raise ValueError("shift path requires equal evaluations")
    if t is None:
        return ShiftPath((None,), ())
    if forms[0] == target:
        return ShiftPath((clone(t),), ())

    def expand(word: Word) -> Word:
        return tuple(a for sym in word for a in (sym,) * mult[sym])

    base = sylvester.shift_path(drop_multiplicities(t), drop_multiplicities(u))
    elements: list[Node | None] = [clone(t)]
    moves: list[tuple[Word, int]] = []
    for w, k in base.moves:
        uv = expand(w)
        split = len(expand(w[:k]))
        if _form(mult_bst(uv)) != forms[-1]:
            raise AssertionError("lifted reading does not represent the current tree")
        moves.append((uv, split))
        elements.append(mult_bst(uv[split:] + uv[:split]))
        forms.append(_form(elements[-1]))
    if forms[-1] != target:
        raise AssertionError("lifted path did not reach its target")
    return compress_path(elements, moves, forms)


def symbols(root: Node | None) -> list[int]:
    """Symbols stored in the tree, each repeated to its multiplicity."""
    return [x.label for x in postfix(root) for _ in range(x.mult)]
