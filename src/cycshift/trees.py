"""Rooted binary trees with labelled nodes, shared by the tree-shaped monoids.

Nodes are plain mutable objects; trees are treated as frozen once built.
Node identity (``is``) distinguishes equal labels within one tree, which the
path constructions rely on.
"""

from __future__ import annotations

from typing import Iterator


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


def postfix(root: Node | None) -> Iterator[Node]:
    """Left-to-right postfix traversal: left subtree, right subtree, node."""
    if root is None:
        return
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
        else:
            stack.append((node, True))
            if node.right is not None:
                stack.append((node.right, False))
            if node.left is not None:
                stack.append((node.left, False))


def nodes(root: Node | None) -> list[Node]:
    return list(postfix(root))


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


def subtree_ids(node: Node | None) -> set[int]:
    """Identity set of all nodes in the complete subtree at ``node``."""
    return {id(x) for x in postfix(node)}


def postfix_reading(root: Node | None, member_ids: set[int] | None = None) -> tuple[int, ...]:
    """Labels in postfix order, restricted to a node-identity set when given.

    The restriction of a postfix order to any node set still lists every node
    after all of its descendants, so it is a valid reading of that fragment.
    """
    if member_ids is None:
        return tuple(x.label for x in postfix(root))
    return tuple(x.label for x in postfix(root) if id(x) in member_ids)


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
