"""Right strict binary search trees (the sylvester monoid) and the
single-shift-per-symbol path construction on their cyclic shift graph.

A right strict BST has each node >= its left subtree and < its right subtree,
so equal labels stack on one descending path and only the uppermost of them
can own a right subtree.  Words insert right to left by leaf insertion.

The path construction walks the target tree U in left-to-right postfix order
restricted to uppermost label occurrences; the shift done for each visited
symbol is a rotation of an explicitly factorized reading of the current tree.
Every factorization and every intermediate invariant is checked at runtime:
a violation raises AssertionError and means a bug, never a silent fallback.
The builder indexes each tree of the walk once (``trees.PostfixIndex``): a
subtree is a contiguous run of the postfix order, so its node set is a
slice, and a tree's key is its postfix reading, which ``right_bst``
inverts.  It works on the symbols as given.

Each shift reads the current tree as ``moved + rest`` and moves on to
``rest + moved``.  The base step moves the first visited symbol with its
subtrees (``_visit_split``).  Step h -> h+1 visits ``u`` while step h's
anchor sits at the root with left and right attachments ``lambda`` and
``rho``; it splits by where step h's node lies in U relative to ``u``'s:

1. not below it: ``u`` with its subtrees comes off ``rho`` (``_visit_split``);
2. in its left subtree: ``u`` is step h's upper bound, and the shift is the
   upper-bound rule below with ``s2`` the primary occurrences of ``u`` and
   ``lambda`` read before the core;
3. in its right subtree, no earlier visit left of ``u``: ``u`` comes off
   as in case 1, and the pieces of ``lambda`` between step h's duplicated
   minima follow: ``moved = head + prefix + u`` and
   ``rest = rest_head + minima + suffix``;
4. in its right subtree, earlier visits left of ``u``:
   ``moved = prefix + middle_moved`` and ``rest = middle_rest + m^r2 + suffix``.

Cases 2, 3 and 4 share the upper-bound rule, the (prefix, suffix) of step
h's upper bound ``q``: of its ``s`` occurrences outside the core, ``s2`` lie
between the two visits in U and ``s1`` do not.

- ``q`` inserted into the anchor: ``q^s2`` and ``q^s1 rho core`` (cases 2
  and 3) or ``rho q^s1 core`` (case 4);
- ``q`` a chain in ``rho`` (``beta`` right of its top, ``delta`` the rest of
  ``rho``): ``beta q^s2`` and ``q^s1 delta anchor``, or, when ``s2 == 0``,
  nothing and ``beta q^s1 delta anchor``;
- no ``q``: nothing and ``rho anchor``.

Case 4's middle places ``t`` occurrences of ``u`` (all of them, or the ones
inserted into the previous pending anchor) around ``gamma``, that anchor
read with its left attachment: ``t2`` as many as are primary in U and
``t1 = t - t2``.  Of all ``u``, ``o1`` hang below the previous anchor and
``o2`` on the spine above it, as do ``r1`` and ``r2`` duplicated minima
``m`` of step h's block:

- ``o2 == 0`` (always when the previous anchor holds inserted ``u``):
  ``u^t2`` and ``u^t1 m^r1 gamma``;
- ``o2 > 0`` (then ``o2 >= t2``): ``u^o1 gamma u^t2`` and ``u^(o2-t2)``.

When both anchors hold inserted occurrences, ``rho`` reads before ``m^r2``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .paths import ShiftPath, compress_path
from .trees import (
    Node,
    PostfixIndex,
    clone,
    labels,
    leftmost,
    nodes_with_label,
    parent_map,
    postfix,
    replay,
    rightmost,
    search_topmost,
    serialize,
    spine_sizes,
)
from .words import Word


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(f"sylvester path internals: {msg}")


# ---------------------------------------------------------------------------
# insertion


def _insert_mut(root: Node | None, a: int) -> Node:
    """Leaf-insert ``a`` in place: go left when a <= label, right otherwise."""
    new = Node(a)
    if root is None:
        return new
    node = root
    while True:
        if a <= node.label:
            if node.left is None:
                node.left = new
                return root
            node = node.left
        else:
            if node.right is None:
                node.right = new
                return root
            node = node.right


def right_bst(word: Word) -> Node | None:
    """Insert the symbols of ``word`` right to left into the empty tree."""
    root: Node | None = None
    for a in reversed(word):
        root = _insert_mut(root, a)
    return root


def key(root: Node | None) -> str:
    return serialize(root)


def word_form(word: Word) -> tuple[int, ...]:
    """The sorted symbols, then the tree's ``spine_sizes``: the class's hashable form.

    Sorting the positions by symbol, stably, standardizes the word: equal
    symbols keep their left-to-right order, as right-to-left insertion puts
    the earlier one below (``a <= label`` goes left).  The tree is then the
    Cartesian tree of that order with the larger position nearer the root.
    """
    order = sorted(range(len(word)), key=word.__getitem__)
    return tuple(sorted(word) + spine_sizes(order))


@lru_cache(maxsize=4096)
def tree_key(symbols: tuple[int, ...], sizes: tuple[int, ...]) -> str:
    """The key of the tree with in-order ``symbols`` and ``spine_sizes``; a bounded cache."""
    return serialize(replay(symbols, sizes))


def format_form(form: tuple[int, ...]) -> str:
    n = len(form) // 2
    return tree_key(form[:n], form[n:])


def check_right_strict(root: Node | None) -> None:
    """Validate the BST ordering and the repeated-label structure."""
    stack: list[tuple[Node | None, int | None, int | None]] = [(root, None, None)]
    while stack:
        node, lo, hi = stack.pop()
        if node is None:
            continue
        if lo is not None and node.label <= lo:
            raise ValueError("right subtree must be strictly greater than its ancestor")
        if hi is not None and node.label > hi:
            raise ValueError("left subtree must be <= its ancestor")
        stack.append((node.left, lo, node.label))
        stack.append((node.right, node.label, hi))
    # only the uppermost occurrence of a label may have a right subtree
    for lbl in set(labels(root)):
        chain = nodes_with_label(root, lbl)
        for nd in chain[1:]:
            if nd.right is not None:
                raise ValueError(f"non-uppermost node {lbl} has a right subtree")


def draw(root: Node | None, with_mult: bool = False) -> str:
    """Indented sideways rendering (right subtree above, left below)."""
    lines: list[str] = []

    def rec(node: Node | None, depth: int) -> None:
        if node is None:
            return
        rec(node.right, depth + 1)
        head = f"{node.label}^{node.mult}" if with_mult else str(node.label)
        lines.append("    " * depth + head)
        rec(node.left, depth + 1)

    rec(root, 0)
    return "\n".join(lines) or "(empty)"


# ---------------------------------------------------------------------------
# repeated-label classification


def classify_nodes(root: Node | None, label: int) -> tuple[list[Node], list[Node], list[Node]]:
    """Split the nodes carrying ``label`` into (primary, secondary, tertiary).

    Primary: the uppermost occurrence and the run of occurrences consecutive
    with it.  Tertiary: a childless bottom occurrence together with the run
    consecutive with it, when not already primary.  Secondary: the rest.
    An occurrence is consecutive with the one above it when it is that one's
    left child, the only place an equal label can hang.
    """
    chain = nodes_with_label(root, label)
    if not chain:
        raise ValueError(f"symbol {label} does not occur in the tree")
    primary = [chain[0]]
    for nd in chain[1:]:
        if primary[-1].left is not nd:
            break
        primary.append(nd)
    primary_ids = {id(x) for x in primary}
    tertiary: list[Node] = []
    bottom = chain[-1]
    if bottom.left is None and bottom.right is None:
        run = [bottom]
        i = len(chain) - 2
        while i >= 0 and chain[i].left is run[-1]:
            run.append(chain[i])
            i -= 1
        tertiary = [nd for nd in run if id(nd) not in primary_ids]
    tert_ids = {id(x) for x in tertiary}
    secondary = [nd for nd in chain if id(nd) not in primary_ids and id(nd) not in tert_ids]
    return primary, secondary, tertiary


# ---------------------------------------------------------------------------
# traversal plan


@dataclass
class PlanStep:
    """Data attached to one visit of the topmost-occurrence postfix walk.

    The core is the complete subtree at the visited node without its
    duplicated minima and without the tertiary occurrences of ``upper``;
    ``anchor`` is the core with the occurrences of ``upper`` that live
    outside it re-inserted (``anchor_core_ids`` are its core nodes), and
    must appear at the root of the walk tree after this step's shift.
    """

    label: int
    min_sym: int
    lower: int | None
    upper: int | None
    anchor: Node
    anchor_core_ids: frozenset[int]
    anchor_extra: int


def _ancestors(parents: dict[int, Node], node: Node) -> Iterator[Node]:
    """The ancestors of ``node``, from its parent up to the root."""
    par = parents.get(id(node))
    while par is not None:
        yield par
        par = parents.get(id(par))


def _index(root: Node):
    """Postfix index, parent map, label counts, topmost nodes and ``classify_nodes``."""
    post = PostfixIndex(root)
    count = Counter(post.labels)
    classes = {lbl: classify_nodes(root, lbl) for lbl in count}
    topmost = {lbl: split[0][0] for lbl, split in classes.items()}
    return post, parent_map(root), count, topmost, classes


def traversal_plan(u_root: Node, index=None) -> list[PlanStep]:
    """Plan the topmost-occurrence postfix walk of ``u_root``; one step per symbol."""
    _require(u_root is not None, "plan needs a non-empty tree")
    post, parents, count, topmost, classes = index or _index(u_root)
    order = [x for x in post.nodes if topmost[x.label] is x]
    _require(len(order) == len(count), "one walk step per distinct symbol")

    steps: list[PlanStep] = []
    for visited in order:
        lo, hi = post.run(visited)
        m = min(post.labels[lo:hi])
        upper = lower = None
        child = visited
        for par in _ancestors(parents, visited):
            if par.left is child and upper is None:
                upper = par.label
            if par.right is child and lower is None:
                lower = par.label
            if upper is not None and lower is not None:
                break
            child = par
        _require(lower is None or lower < m, "lower bound below the block minimum")
        _require(upper is None or visited.label < upper, "upper bound above the visited symbol")

        # the core: right_bst of the block's postfix reading (the subtree's run)
        # without the minima below the uppermost one, the last in postfix order,
        # and without the tertiary occurrences of upper; each is a whole subtree
        mins = [p for p in range(lo, hi) if post.labels[p] == m]
        drop = set(mins[:-1])
        if upper is not None:
            tert = sorted(p for p in (post.pos[id(x)] for x in classes[upper][2]) if lo <= p < hi)
            if tert:
                run = list(range(post.start[tert[-1]], tert[-1] + 1))
                _require(tert == run, "the block's tertiary positions form one postfix run")
                drop.update(tert)
        reading = [post.labels[p] for p in range(lo, hi) if p not in drop]
        core = right_bst(reading)
        core_ids = frozenset(map(id, postfix(core)))
        # the anchor is the core; when the core holds upper, padded in place
        # with the occurrences outside it
        inner = reading.count(upper)
        extra = 0
        if inner:
            extra = count[upper] - inner
            _require(extra >= 1, "at least the uppermost occurrence lies outside the core")
            for _ in range(extra):
                _insert_mut(core, upper)
        steps.append(
            PlanStep(
                label=visited.label,
                min_sym=m,
                lower=lower,
                upper=upper,
                anchor=core,
                anchor_core_ids=core_ids,
                anchor_extra=extra,
            )
        )
    return steps


# ---------------------------------------------------------------------------
# embedding and invariant checks


def _embed_at(pattern: Node, target: Node):
    """Exact structural match of ``pattern`` at ``target``.

    Extra target subtrees are tolerated only below the left child of the
    pattern's leftmost node and the right child of its rightmost node.
    Returns (mapping id(pattern node) -> target node, left attach, right
    attach), or None when the match fails.
    """
    p_lm = leftmost(pattern)
    p_rm = rightmost(pattern)
    mapping: dict[int, Node] = {}

    def walk(p: Node, t: Node) -> bool:
        if p.label != t.label or p.mult != t.mult:
            return False
        mapping[id(p)] = t
        if p.left is not None:
            if t.left is None or not walk(p.left, t.left):
                return False
        elif t.left is not None and p is not p_lm:
            return False
        if p.right is not None:
            if t.right is None or not walk(p.right, t.right):
                return False
        elif t.right is not None and p is not p_rm:
            return False
        return True

    if not walk(pattern, target):
        return None
    return mapping, mapping[id(p_lm)].left, mapping[id(p_rm)].right


def _upset(order_below: list[set[int]], h: int) -> list[int]:
    """Indices i <= h whose visited node is not below a later visited node."""
    return [i for i in range(1, h + 1) if not (order_below[i - 1] & set(range(i + 1, h + 1)))]


# ---------------------------------------------------------------------------
# the path construction


def _chain_down(start: Node | None) -> list[Node]:
    """Follow a pure left chain, asserting empty right subtrees throughout."""
    out = []
    node = start
    while node is not None:
        _require(node.right is None, "expected a bare chain (no right subtrees)")
        out.append(node)
        node = node.left
    return out


def _left_spine(pos: Node | None, anchor: Node):
    """Walk left children from ``pos`` until ``anchor`` embeds.

    Returns the nodes passed on the way and the ``_embed_at`` match, or None
    when the spine ends first.
    """
    spine: list[Node] = []
    while pos is not None:
        found = _embed_at(anchor, pos)
        if found is not None:
            return spine, found
        spine.append(pos)
        pos = pos.left
    return spine, None


class _PathBuilder:
    def __init__(self, t_root: Node, u_root: Node):
        index = _index(u_root)
        self.plan = traversal_plan(u_root, index)
        self.n = len(self.plan)
        self.u_post, self.u_parents, self.count, self.topmost, classes = index
        # which earlier visits are below which later ones, for the pending set
        order = [self.topmost[s.label] for s in self.plan]
        pos_of = {id(nd): i + 1 for i, nd in enumerate(order)}
        self.order_below = [
            {pos_of[id(par)] for par in _ancestors(self.u_parents, nd) if id(par) in pos_of}
            for nd in order
        ]
        self.primary_count = {lbl: len(split[0]) for lbl, split in classes.items()}
        self.trees: list[Node] = []
        # the key of each tree: its postfix reading, which right_bst inverts
        self.keys: list[tuple[int, ...]] = []
        self.moves: list[tuple[Word, int]] = []
        self._push(clone(t_root))

    # -- the current walk tree, indexed once ------------------------------

    def _push(self, tree: Node) -> None:
        """Make ``tree`` the current walk tree, indexed once in postfix order."""
        self.walk = PostfixIndex(tree)
        self.trees.append(tree)
        self.keys.append(tuple(self.walk.labels))

    def _emit(self, moved: list[int], rest: list[int]) -> None:
        w1 = tuple(moved) + tuple(rest)
        # right to left insertion of w1 rebuilds the current tree exactly when
        # each symbol lands on the first unplaced node of its search path,
        # a node carrying that symbol, and every node gets placed
        placed: set[int] = set()
        for a in reversed(w1):
            node = self.trees[-1]
            while node is not None and id(node) in placed:
                node = node.left if a <= node.label else node.right
            if node is None or node.label != a:
                break
            placed.add(id(node))
        _require(
            len(placed) == len(w1) == len(self.walk.ids),
            "factorized reading does not represent the current tree",
        )
        self.moves.append((w1, len(moved)))
        self._push(right_bst(tuple(rest) + tuple(moved)))

    def _reads(self, *idsets: set[int]) -> list[int]:
        """The postfix reading of each identity set in turn."""
        walk = self.walk
        out: list[int] = []
        for ids in idsets:
            out.extend(lab for i, lab in zip(walk.ids, walk.labels) if i in ids)
        return out

    def _check_spine(self, h: int) -> None:
        """Check the walk-tree invariants for the steps pending after step h.

        The pending anchors appear in reverse order down the path of left
        children from the root, anything below an anchor hangs off its two
        extremal attachment points, and no minimum of a pending step sits
        below a node carrying that step's lower bound.
        """
        upset = _upset(self.order_below, h)
        pos: Node | None = self.trees[-1]
        for idx in reversed(upset):
            _, found = _left_spine(pos, self.plan[idx - 1].anchor)
            _require(found is not None, f"anchor of step {idx} missing from the left spine")
            pos = found[1]
        labs, start = self.walk.labels, self.walk.start
        for idx in upset:
            step = self.plan[idx - 1]
            for p, lab in enumerate(labs):
                if lab == step.lower:
                    _require(
                        step.min_sym not in labs[start[p]:p],
                        f"minimum {step.min_sym} below lower bound {step.lower}",
                    )

    def _visit_split(self, u1: int, lower: int | None) -> tuple[list[int], list[int], Node]:
        """Factor the visit symbol ``u1`` off the current tree.

        Returns (head, rest_head, stop): the moved factor reads ``head``
        right before ``u1``, the rest starts with ``rest_head``, and with
        ``u1`` the two read exactly the subtree at ``stop``: the topmost ``u1``
        with its two subtrees, unless some ``u1`` sits below an occurrence of
        ``lower``: then the uppermost such ``u1`` is pulled out of the right
        subtree of the topmost ``lower``, which follows in the rest, so that
        no occurrence re-inserts below its predecessor symbol (all of whose
        occurrences are that topmost one and its left chain).
        """
        walk = self.walk
        sub = walk.subtree_ids
        t_cur = self.trees[-1]
        occ = nodes_with_label(t_cur, u1)
        _require(occ != [], "visit symbol occurs in the current tree")
        if lower is not None:
            # the occurrences with an ancestor ``lower``: they lie in that node's run
            lows = [p for p, lab in enumerate(walk.labels) if lab == lower]
            below = [nd for nd in occ if any(walk.start[p] <= walk.pos[id(nd)] < p for p in lows)]
            if below:
                y = below[0]
                p_node = search_topmost(t_cur, lower)
                _require(
                    p_node is not None and walk.contains(p_node.right, y),
                    "pulled occurrence sits in the right subtree of the bound",
                )
                head = self._reads(sub(y.left), sub(y.right))
                rest_head = self._reads(sub(p_node.right) - sub(y), sub(p_node.left))
                return head, rest_head + [lower], p_node
        y = occ[0]
        return self._reads(sub(y.left), sub(y.right)), [], y

    def _between_counts(self, h: int, s: int, s2: int | None = None) -> tuple[int, int]:
        """Split ``s`` occurrences of step h's upper bound into (s2, s1).

        ``s2`` move to the front of the shift, by default those between
        visits h and h+1 in U; ``s1`` are the rest.
        """
        if s2 is None:
            cur, nxt = self.plan[h - 1], self.plan[h]
            high = self.topmost[nxt.label]
            s2 = 0
            for par in _ancestors(self.u_parents, self.topmost[cur.label]):
                if par is high:
                    break
                _require(par.label == cur.upper, "only upper-bound symbols separate the visits")
                s2 += 1
            else:
                _require(False, "expected an ancestor path")
        _require(s - s2 >= 0, "the moved occurrences fit in the upper ones")
        return s2, s - s2

    def _upper_parts(self, h: int, rm: Node | None, core_ids: set[int], s2=None, middle=()):
        """(prefix, suffix) of a shift by the upper-bound rule of step h.

        The occurrences of the upper bound ``q`` outside the core are either
        inserted into the anchor or form one chain in its right attachment
        ``rm``.  ``s2`` of them (``_between_counts``) move up front, behind
        the subtree right of a chain; with none to move, the block around the
        chain stays contiguous in the suffix so that it lands right of the new
        root.  The identity sets ``middle`` read right before the core.
        """
        sub = self.walk.subtree_ids
        cur = self.plan[h - 1]
        q = cur.upper
        if q is None:
            return [], self._reads(sub(rm), *middle, core_ids)
        if cur.anchor_extra:
            s = cur.anchor_extra
            beta, tail = [], self._reads(sub(rm), *middle, core_ids)
        else:
            qnodes = nodes_with_label(self.trees[-1], q)
            _require(qnodes != [], "upper bound occurs somewhere")
            _require(
                core_ids.isdisjoint(map(id, qnodes)), "upper occurrences sit outside the anchor"
            )
            for a, b in zip(qnodes, qnodes[1:]):
                _require(a.left is b, "upper occurrences form one consecutive chain")
            s = len(qnodes)
            _require(s == self.count[q], "all upper occurrences located")
            top = qnodes[0]
            _require(self.walk.contains(rm, top), "upper chain right of the anchor")
            lo, hi = self.walk.run(top.left)
            _require(set(self.walk.labels[lo:hi]) <= {q}, "only repeats hang left of the uppermost")
            beta = self._reads(sub(top.right))
            tail = self._reads(sub(rm) - sub(top), *middle, core_ids)
        s2, s1 = self._between_counts(h, s, s2)
        if s2:
            return beta + [q] * s2, [q] * s1 + tail
        return [], beta + [q] * s1 + tail

    # -- base step -------------------------------------------------------

    def base_step(self) -> None:
        step = self.plan[0]
        head, rest_head, stop = self._visit_split(step.label, step.lower)
        outside = set(self.walk.ids) - self.walk.subtree_ids(stop)
        self._emit(head + [step.label], rest_head + self._reads(outside))

    # -- induction cases ---------------------------------------------------

    def step(self, h: int) -> None:
        cur, nxt = self.plan[h - 1], self.plan[h]
        n_h = self.topmost[cur.label]
        n_next = self.topmost[nxt.label]
        if self.u_post.contains(n_next.left, n_h):
            self._case2(h)
        elif self.u_post.contains(n_next.right, n_h):
            lo, hi = self.u_post.run(n_next.left)
            left_top = any(self.topmost[x.label] is x for x in self.u_post.nodes[lo:hi])
            if left_top:
                self._case4(h)
            else:
                self._case3(h)
        else:
            self._case1(h)
        self._check_spine(h + 1)

    def _anchor_parts(self, step: PlanStep, found=None):
        """The anchor's attachments, its match (``_embed_at``) and its core's ids.

        The anchor embeds at the current root, unless ``found`` gives its
        match elsewhere.  The match's values are the anchor's nodes in the tree.
        """
        if found is None:
            found = _embed_at(step.anchor, self.trees[-1])
            _require(found is not None, f"anchor of the visit to {step.label} absent at the root")
        mapping, lm, rm = found
        return lm, rm, mapping, {id(mapping[i]) for i in step.anchor_core_ids}

    def _case1(self, h: int) -> None:
        cur, nxt = self.plan[h - 1], self.plan[h]
        u1 = nxt.label
        _require(len(postfix(nxt.anchor)) == 1, "fresh visit carries a single-node anchor")
        sub = self.walk.subtree_ids
        lm, rm, mapping, _ = self._anchor_parts(cur)
        anchor_ids = set(map(id, mapping.values()))
        # the pull-to-front surgery needs every next-lower occurrence outside
        # the anchor; that fails only when the bounds collide and the anchor
        # absorbed those occurrences
        collide = cur.upper == nxt.lower and cur.anchor_extra > 0
        head, rest_head, stop = self._visit_split(u1, None if collide else nxt.lower)
        _require(self.walk.contains(rm, stop), "visit symbol and its bound right of the anchor")
        zeta = sub(rm) - sub(stop)
        self._emit(head + [u1], rest_head + self._reads(zeta, sub(lm), anchor_ids))

    def _case2(self, h: int) -> None:
        cur = self.plan[h - 1]
        u1 = self.plan[h].label
        _require(cur.upper == u1, "upper bound of the old block is the next visit")
        lm, rm, _, core_ids = self._anchor_parts(cur)
        lam = self.walk.subtree_ids(lm)
        self._emit(*self._upper_parts(h, rm, core_ids, self.primary_count[u1], (lam,)))

    def _m_chain_pieces(self, lm: Node | None, anchor_ids: set[int], m: int, stop: Node):
        """Left-spine pieces from the anchor attachment down to ``stop``.

        Returns the word fragment lambda_0 m lambda_1 m ... m lambda_r (bottom
        part first) for the duplicated minima outside the anchor.  Minima
        inside the subtree at ``stop`` belong to the caller's own pieces and
        are skipped here.
        """
        sub = self.walk.subtree_ids
        t_cur = self.trees[-1]
        stop_ids = sub(stop)
        ext_all = [nd for nd in nodes_with_label(t_cur, m) if id(nd) not in anchor_ids]
        _require(
            len(ext_all) == self.count[m] - 1, "all duplicated minima sit outside the anchor"
        )
        ext = [nd for nd in ext_all if id(nd) not in stop_ids]
        _require(
            all(id(nd) in stop_ids for nd in ext_all[len(ext):]),
            "skipped minima form the lower end of the chain",
        )
        regions: list[set[int]] = []
        top = sub(lm)
        if ext:
            _require(id(ext[0]) in top, "duplicated minima hang left of the anchor")
            regions.append(top - sub(ext[0]))
            for a, b in zip(ext, ext[1:]):
                _require(b is not a and self.walk.contains(a.left, b), "minima descend leftwards")
                _require(a.right is None, "duplicated minima have empty right subtrees")
                regions.append(sub(a.left) - sub(b))
            _require(ext[-1].right is None, "duplicated minima have empty right subtrees")
            regions.append(sub(ext[-1].left) - stop_ids)
        else:
            regions.append(top - stop_ids)
        # regions are top..bottom; the word wants bottom..top with m separators
        frag: list[int] = []
        for i, region in enumerate(reversed(regions)):
            if i:
                frag.append(m)
            frag.extend(self._reads(region))
        return frag

    def _case3(self, h: int) -> None:
        cur, nxt = self.plan[h - 1], self.plan[h]
        u1 = nxt.label
        _require(cur.lower == u1, "lower bound of the old block is the next visit")
        lm, rm, mapping, core_ids = self._anchor_parts(cur)
        anchor_ids = set(map(id, mapping.values()))
        y = nodes_with_label(self.trees[-1], u1)[0]
        _require(y.right is None, "uppermost visit symbol has an empty right subtree")
        head, rest_head, stop = self._visit_split(u1, nxt.lower)
        middle = rest_head + self._m_chain_pieces(lm, anchor_ids, cur.min_sym, stop)
        prefix, suffix = self._upper_parts(h, rm, core_ids)
        self._emit(head + prefix + [u1], middle + suffix)

    def _case4(self, h: int) -> None:
        cur, nxt = self.plan[h - 1], self.plan[h]
        u1, m = nxt.label, cur.min_sym
        _require(cur.lower == u1, "lower bound of the old block is the next visit")
        upset = _upset(self.order_below, h)
        _require(len(upset) >= 2, "an earlier pending visit exists")
        gstep = self.plan[upset[-2] - 1]
        _require(gstep.upper == u1, "previous pending block is bounded by the next visit")
        lm_h, rm_h, _, core_ids_h = self._anchor_parts(cur)

        # walk the spine below the anchor down to the previous anchor
        spine, found = _left_spine(lm_h, gstep.anchor)
        for pos in spine:
            _require(pos.label in (m, u1), "spine carries only minima and next visits")
            _require(pos.right is None, "spine nodes have empty right subtrees")
        _require(found is not None, "previous anchor found on the spine")
        lm_g, rm_g, g_mapping, g_core_ids = self._anchor_parts(gstep, found)

        r2 = sum(1 for nd in spine if nd.label == m)
        o2 = len(spine) - r2
        _require(
            all(nd.label == m for nd in spine[:r2]),
            "minima come before next visits on the spine",
        )
        below = _chain_down(rm_g)
        r1 = sum(1 for nd in below if nd.label == m)
        o1 = len(below) - r1
        _require(
            all(nd.label == m for nd in below[:r1])
            and all(nd.label == u1 for nd in below[r1:]),
            "below the previous anchor: minima, then next visits",
        )
        _require(r1 + r2 == self.count[m] - 1, "all duplicated minima located")

        t2 = self.primary_count[u1]
        eg_ext = gstep.anchor_extra > 0
        if eg_ext:
            _require(o1 == 0 and o2 == 0, "next visits all live inside the previous anchor")
            _require(not below, "nothing hangs below the previous anchor here")
            t = gstep.anchor_extra
            _require(len(g_mapping) - len(g_core_ids) == t, "inserted next visits accounted for")
        else:
            t = o1 + o2
            _require(t == self.count[u1], "all next visits located")
        t1 = t - t2
        _require(t1 >= 0, "primary occurrences fit")

        # the middle: next visits around the previous anchor's reading
        gamma = self._reads(self.walk.subtree_ids(lm_g), g_core_ids)
        if o2 == 0:
            moved, rest = [u1] * t2, [u1] * t1 + [m] * r1 + gamma
        else:
            _require(r1 == 0, "minima sit above once next visits reach the spine")
            _require(o2 >= t2, "the next visits on the spine cover the primary ones")
            moved, rest = [u1] * o1 + gamma + [u1] * t2, [u1] * (o2 - t2)
        minima = [m] * r2
        if cur.anchor_extra:
            s2, s1 = self._between_counts(h, cur.anchor_extra)
            q = cur.upper
            rho = self._reads(self.walk.subtree_ids(rm_h))
            # with both anchors padded the right attachment reads before the minima
            tail = rho + minima if eg_ext else minima + rho
            prefix, suffix = [q] * s2, tail + [q] * s1 + self._reads(core_ids_h)
        else:
            prefix, suffix = self._upper_parts(h, rm_h, core_ids_h)
            suffix = minima + suffix
        self._emit(prefix + moved, rest + suffix)

    def run(self) -> tuple[list[Node], list[tuple[Word, int]], list[tuple[int, ...]]]:
        self.base_step()
        self._check_spine(1)
        for h in range(1, self.n):
            self.step(h)
        _require(
            self.keys[-1] == tuple(self.u_post.labels),
            "path construction must end at the target tree",
        )
        return self.trees, self.moves, self.keys


def shift_path(t: Node | None, u: Node | None) -> ShiftPath:
    """Path of at most n cyclic shifts from ``t`` to ``u`` (n = distinct symbols).

    Requires equal evaluations.
    """
    t_labels, u_labels = labels(t), labels(u)
    if sorted(t_labels) != sorted(u_labels):
        raise ValueError("shift path requires equal evaluations")
    if not t_labels:
        return ShiftPath((None,), ())
    if t_labels == u_labels:
        return ShiftPath((clone(t),), ())
    return compress_path(*_PathBuilder(t, u).run())
