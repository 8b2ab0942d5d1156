"""Pairs of twin binary search trees (the Baxter monoid).

The right component is the right strict BST of the word; the left component
is the left strict BST, the tree that leaf insertion builds reading the word
left to right (an equal symbol goes right).  The two trees carry the same
symbols and have complementary canopies.  Both are replayed from the class's
form (``word_form``), with no insertion.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import sylvester
from .trees import Node, labels, replay, rotation_orders, serialize, spine_sizes, to_json as tree_json
from .words import Evaluation, Word


def check_left_strict(root: Node | None) -> None:
    stack: list[tuple[Node | None, int | None, int | None]] = [(root, None, None)]
    while stack:
        node, lo, hi = stack.pop()
        if node is None:
            continue
        if lo is not None and node.label < lo:
            raise ValueError("right subtree must be >= its ancestor")
        if hi is not None and node.label >= hi:
            raise ValueError("left subtree must be strictly below its ancestor")
        stack.append((node.left, lo, node.label))
        stack.append((node.right, node.label, hi))


def canopy(root: Node | None) -> str:
    """Bit word of the empty subtrees in left-to-right order, ends dropped.

    An empty left slot reads 1, an empty right slot 0; the first and last
    empty slots of the tree are skipped.
    """
    if root is None:
        raise ValueError("canopy of the empty tree is undefined")
    bits: list[str] = []

    def rec(node: Node) -> None:
        if node.left is None:
            bits.append("1")
        else:
            rec(node.left)
        if node.right is None:
            bits.append("0")
        else:
            rec(node.right)

    rec(root)
    return "".join(bits[1:-1])


def complementary(a: str, b: str) -> bool:
    return len(a) == len(b) and all(x != y for x, y in zip(a, b))


@dataclass(frozen=True)
class TwinPair:
    left: Node | None
    right: Node | None

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        if (self.left is None) != (self.right is None):
            raise ValueError("twin trees must be empty together")
        if self.left is None:
            return
        if sorted(labels(self.left)) != sorted(labels(self.right)):
            raise ValueError("twin trees must carry the same symbols")
        check_left_strict(self.left)
        sylvester.check_right_strict(self.right)
        if not complementary(canopy(self.left), canopy(self.right)):
            raise ValueError("twin canopies must be complementary")

    def key(self) -> str:
        return f"{serialize(self.left)}|{serialize(self.right)}"

    def symbols(self) -> list[int]:
        return labels(self.left)

    def __eq__(self, other) -> bool:
        return isinstance(other, TwinPair) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def draw(self) -> str:
        return (
            "left strict:\n"
            + sylvester.draw(self.left)
            + "\nright strict:\n"
            + sylvester.draw(self.right)
        )

    def to_json(self) -> dict:
        return {"left": tree_json(self.left), "right": tree_json(self.right)}


def twin_pair(word: Word) -> TwinPair:
    """The twin pair of ``word``, both trees replayed from its ``word_form``."""
    n = len(word)
    form = word_form(word)
    symbols = form[:n]
    return TwinPair(replay(symbols, form[n:2 * n]), replay(symbols, form[2 * n:]))


def word_form(word: Word) -> tuple[int, ...]:
    """The sorted symbols, then the ``spine_sizes`` of the left and the right tree.

    Both are Cartesian trees of the standardized order (``sylvester.word_form``):
    left to right insertion puts a later equal symbol to the right, and the
    earlier position nearer the root.
    """
    order = sorted(range(len(word)), key=word.__getitem__)
    return tuple(sorted(word) + spine_sizes([-p for p in order]) + spine_sizes(order))


def rotation_forms(word: Word, ev: Evaluation, period: int) -> list[tuple[int, ...]]:
    """``word_form`` of each rotation ``word[i:] + word[:i]``, i < ``period``, as sylv's kernel forms it."""
    head = sorted(word)
    orders = rotation_orders(word, period)
    return [tuple(head + spine_sizes([-p for p in order]) + spine_sizes(order)) for order in orders]


def format_form(form: tuple[int, ...]) -> str:
    """Both trees' keys, each through ``sylvester.tree_key``'s cache: classes share trees."""
    n = len(form) // 3
    symbols, left, right = form[:n], form[n:2 * n], form[2 * n:]
    return f"{sylvester.tree_key(symbols, left)}|{sylvester.tree_key(symbols, right)}"


def conjugacy_witness(p: Word, q: Word) -> tuple[Word, Word]:
    """Two-sided intertwiners g = pq and h = qp for equal-evaluation words."""
    if sorted(p) != sorted(q):
        raise ValueError("conjugacy witnesses require equal evaluations")
    g = p + q
    h = q + p
    if word_form(p + g) != word_form(g + q):
        raise AssertionError("left witness fails")
    if word_form(h + p) != word_form(q + h):
        raise AssertionError("right witness fails")
    return g, h
