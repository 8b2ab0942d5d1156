"""Rooted binary trees with labelled nodes, shared by the tree-shaped monoids.

Nodes are plain mutable objects; trees are treated as frozen once built.
"""

from __future__ import annotations


class Node:
    __slots__ = ("label", "mult", "left", "right")

    def __init__(self, label: int, mult: int = 1,
                 left: "Node | None" = None, right: "Node | None" = None):
        self.label = label
        self.mult = mult
        self.left = left
        self.right = right

    def __repr__(self) -> str:  # debugging aid only
        return f"Node({serialize(self)})"


def serialize(root: Node | None, with_mult: bool = False) -> str:
    """Parenthesized prefix form ``label(left)(right)`` with ``-`` for empty."""
    if root is None:
        return "-"
    head = f"{root.label}^{root.mult}" if with_mult else str(root.label)
    return f"{head}({serialize(root.left, with_mult)})({serialize(root.right, with_mult)})"


def spine_sizes(priorities) -> list[int]:
    """The Cartesian tree of a sequence, highest priority at the root, as stack sizes.

    The stack holds the right spine of the tree built so far: each item pops
    the lower priorities (its left subtree) and is pushed, and entry i is the
    stack's size after item i.  These sizes fix the shape; ``replay`` inverts them.
    """
    stack: list = []
    sizes: list[int] = []
    for p in priorities:
        while stack and stack[-1] < p:
            stack.pop()
        stack.append(p)
        sizes.append(len(stack))
    return sizes


def rotation_orders(word, period: int):
    """The stable symbol order of each rotation ``word[i:] + word[:i]``, i < ``period``.

    Rotation i reads positions i .. i+n-1 of ``word + word``, sorted stably by
    symbol.  From rotation i to i+1, position i leaves the front of its
    symbol's block for the end of that block as i+n, the new maximum; blocks
    keep their places, so only the first order is sorted.  One list is yielded,
    updated in place; ``spine_sizes`` reads only its relative order.
    """
    n = len(word)
    order = sorted(range(n), key=word.__getitem__)
    end = {word[p]: k for k, p in enumerate(order, 1)}  # where each symbol's block ends
    yield order
    for i in range(period - 1):
        order.remove(i)
        order.insert(end[word[i]] - 1, i + n)
        yield order


def replay(labels, sizes) -> Node | None:
    """The tree with these in-order labels and ``spine_sizes``."""
    stack: list[Node] = []
    for label, size in zip(labels, sizes):
        node = Node(label)
        while len(stack) >= size:
            node.left = stack.pop()
        if stack:
            stack[-1].right = node
        stack.append(node)
    return stack[0] if stack else None


def to_json(root: Node | None, with_mult: bool = False):
    """Nested dict form for export; None for an empty subtree."""
    if root is None:
        return None
    out = {"label": root.label}
    if with_mult:
        out["mult"] = root.mult
    out["left"] = to_json(root.left, with_mult)
    out["right"] = to_json(root.right, with_mult)
    return out


def postfix(root: Node | None) -> list[Node]:
    """Postfix order (left, right, node), built as the (node, right, left) preorder reversed."""
    out: list[Node] = []
    stack = [] if root is None else [root]
    push, pop, emit = stack.append, stack.pop, out.append
    while stack:
        node = pop()
        emit(node)
        if node.left is not None:
            push(node.left)
        if node.right is not None:
            push(node.right)
    out.reverse()
    return out


def labels(root: Node | None) -> list[int]:
    return [x.label for x in postfix(root)]
