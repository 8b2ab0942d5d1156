"""Rooted binary trees with labelled nodes, shared by the tree-shaped monoids.

Nodes are plain mutable objects; trees are treated as frozen once built.
Node identity (``is``) distinguishes equal labels within one tree, which the
path constructions rely on.
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


def clone(root: Node | None) -> Node | None:
    if root is None:
        return None
    return Node(root.label, root.mult, clone(root.left), clone(root.right))


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


class PostfixIndex:
    """A tree's nodes in postfix order, indexed once.

    ``nodes``, ``ids`` and ``labels`` list the nodes, their identities and
    their labels, and ``pos`` maps an identity to its position.  A subtree is
    a contiguous run: the one at position ``p`` starts at ``start[p]``.
    """

    __slots__ = ("nodes", "ids", "labels", "pos", "start")

    def __init__(self, root: Node | None):
        self.nodes = order = postfix(root)
        self.ids = ids = list(map(id, order))
        self.labels = [x.label for x in order]
        self.pos = pos = dict(zip(ids, range(len(ids))))
        self.start = start = []
        for p, x in enumerate(order):
            # a subtree starts where its first child's subtree starts
            first = x.left or x.right
            start.append(p if first is None else start[pos[id(first)]])

    def run(self, node: Node | None) -> tuple[int, int]:
        """Positions ``[lo, hi)`` of the subtree at ``node``; empty for None."""
        if node is None:
            return 0, 0
        p = self.pos[id(node)]
        return self.start[p], p + 1

    def subtree_ids(self, node: Node | None) -> set[int]:
        """Identity set of the subtree at ``node``."""
        lo, hi = self.run(node)
        return set(self.ids[lo:hi])

    def contains(self, anc: Node | None, node: Node) -> bool:
        """Whether ``node`` lies in the subtree at ``anc``."""
        lo, hi = self.run(anc)
        return lo <= self.pos[id(node)] < hi


def labels(root: Node | None) -> list[int]:
    return [x.label for x in postfix(root)]


def parent_map(root: Node | None) -> dict[int, Node]:
    """Map id(child) -> parent node, for the whole tree."""
    parents: dict[int, Node] = {}
    for node in postfix(root):
        if node.left is not None:
            parents[id(node.left)] = node
        if node.right is not None:
            parents[id(node.right)] = node
    return parents


def leftmost(node: Node) -> Node:
    while node.left is not None:
        node = node.left
    return node


def rightmost(node: Node) -> Node:
    while node.right is not None:
        node = node.right
    return node


def search_topmost(root: Node | None, label: int) -> Node | None:
    """Topmost node carrying ``label``: the first hit on the search path.

    All equal labels of a binary search tree lie on one descending path, so
    the uppermost occurrence is the first one a root-to-leaf search meets.
    """
    node = root
    while node is not None:
        if node.label == label:
            return node
        node = node.left if label <= node.label else node.right
    return None


def nodes_with_label(root: Node | None, label: int) -> list[Node]:
    """All nodes with the given label, ordered from uppermost to lowermost."""
    top = search_topmost(root, label)
    found: list[Node] = []
    node = top
    while node is not None:
        if node.label == label:
            found.append(node)
            node = node.left
        else:
            # equal labels sit on a single descending path; keep following it
            node = node.left if label <= node.label else node.right
    return found
