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
The builder takes the postfix readings of T and U (``trees.labels``), which
``right_bst`` inverts, and holds U and each tree of its walk as arrays over
postfix positions (``PostfixTree``), with no ``Node``.  A subtree is a run of
that order, so each piece of a factorization is a run or two, read as label
slices; a tree's key is its postfix reading, so a shift that leaves the
reading as it was is dropped, with no step.  It works on the symbols as
given.  ``shift_moves`` returns the builder's step witnesses, which taiga
lifts from its trees' ``labels``; ``shift_path`` starts at ``t`` and adds
the trees.

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

from .paths import ShiftPath
from .trees import Node, labels, replay, rotation_orders, serialize, spine_sizes
from .words import Evaluation, Word

#: a run ``[lo, hi)`` of postfix positions; ``lo >= hi`` reads nothing
Run = tuple[int, int]


def _require(cond: bool, msg: str, *args) -> None:
    """Raise unless ``cond``; the message is ``msg % args``, formatted only then."""
    if not cond:
        raise AssertionError(f"sylvester path internals: {msg % args if args else msg}")


# ---------------------------------------------------------------------------
# insertion


def right_bst(word: Word) -> Node | None:
    """Leaf-insert ``word`` right to left: left at a node when <= its label, else right."""
    if not word:
        return None
    root = Node(word[-1])
    for a in word[-2::-1]:
        node = root
        while True:
            if a <= node.label:
                if node.left is None:
                    node.left = Node(a)
                    break
                node = node.left
            elif node.right is None:
                node.right = Node(a)
                break
            else:
                node = node.right
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


def rotation_forms(word: Word, ev: Evaluation, period: int) -> list[tuple[int, ...]]:
    """``word_form`` of each rotation ``word[i:] + word[:i]``, i < ``period``: one head, no sort per rotation."""
    head = sorted(word)
    return [tuple(head + spine_sizes(order)) for order in rotation_orders(word, period)]


@lru_cache(maxsize=4096)
def tree_key(symbols: tuple[int, ...], sizes: tuple[int, ...]) -> str:
    """The key of the tree with in-order ``symbols`` and ``spine_sizes``; a bounded cache."""
    return serialize(replay(symbols, sizes))


def format_form(form: tuple[int, ...]) -> str:
    n = len(form) // 2
    return tree_key(form[:n], form[n:])


def check_right_strict(root: Node | None) -> None:
    """Validate the order: each node is >= its left subtree and < its right subtree.

    The order alone keeps a right subtree off every occurrence below an equal
    label: such an occurrence lies in the equal label's left subtree, so a
    node below it on the right would be both above and at most that label.
    """
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
# trees as postfix arrays


class PostfixTree:
    """The tree ``right_bst(word)`` as arrays over its postfix positions.

    ``labels[p]`` is the label at position ``p``, ``left[p]`` and
    ``right[p]`` its children's positions (-1 for none), and the subtree at
    ``p`` is the run ``[start[p], p + 1)``; the root is the last position.
    The tree is the Cartesian tree of the positions sorted stably by symbol,
    the larger position nearer the root (``word_form``); the stack of its
    right spine pops each node once its subtree is complete, so in postfix
    order, and fills the arrays as it pops.
    """

    __slots__ = ("labels", "left", "right", "start", "chains")

    def __init__(self, word: Word):
        n = len(word)
        self.chains: dict[int, list[int]] | None = None
        self.labels = labs = []
        self.left = left = []
        self.right = right = []
        self.start = start = []
        # per word position while on the stack: its left child's position and run start
        lchild, first = [-1] * n, [0] * n
        stack: list[int] = []
        # the sentinel n outranks every position and pops the whole stack
        for i in sorted(range(n), key=word.__getitem__) + [n]:
            # a popped node's right child, if any, is the node popped just before it
            last = -1
            while stack and stack[-1] < i:
                j = stack.pop()
                labs.append(word[j])
                left.append(lchild[j])
                right.append(last)
                start.append(first[j])
                last = len(labs) - 1
            if i < n:
                lchild[i] = last
                # a subtree starts with its left child's, else with the next node to complete
                first[i] = start[last] if last >= 0 else len(labs)
                stack.append(i)

    def run(self, p: int) -> Run:
        """Positions ``[lo, hi)`` of the subtree at ``p``; empty for -1."""
        return (self.start[p], p + 1) if p >= 0 else (0, 0)

    def contains(self, anc: int, p: int) -> bool:
        """Whether position ``p`` lies in the subtree at ``anc``."""
        return anc >= 0 and self.start[anc] <= p <= anc

    def occurrences(self, label: int) -> list[int]:
        """The positions carrying ``label``, uppermost first; do not modify.

        They lie on one descending path, and a node follows its descendants
        in postfix order.  Every label's list is built on the first call.
        """
        chains = self.chains
        if chains is None:
            chains = self.chains = {}
            labs = self.labels
            for p in range(len(labs) - 1, -1, -1):
                if labs[p] in chains:
                    chains[labs[p]].append(p)
                else:
                    chains[labs[p]] = [p]
        return chains.get(label, [])


def _minus(outer: Run, inner: Run) -> tuple[Run, Run]:
    """The subtree run ``outer`` without the subtree run ``inner``, as two runs.

    Two subtrees are nested or disjoint; the runs come out in postfix order
    and either may be empty.
    """
    return (outer[0], min(outer[1], inner[0])), (max(outer[0], inner[1]), outer[1])


def _within(runs, p: int) -> bool:
    return any(lo <= p < hi for lo, hi in runs)


# ---------------------------------------------------------------------------
# repeated-label classification


def classify_nodes(tree: PostfixTree, label: int) -> tuple[list[int], list[int], list[int]]:
    """Split the positions carrying ``label`` into (primary, secondary, tertiary).

    Primary: the uppermost occurrence and the run of occurrences consecutive
    with it.  Tertiary: a childless bottom occurrence together with the run
    consecutive with it, when not already primary.  Secondary: the rest.
    An occurrence is consecutive with the one above it when it is that one's
    left child, the only place an equal label can hang.
    """
    left = tree.left
    chain = tree.occurrences(label)
    if not chain:
        raise ValueError(f"symbol {label} does not occur in the tree")
    # the chain runs top to bottom: primary is a prefix, tertiary a suffix
    k = 1
    while k < len(chain) and left[chain[k - 1]] == chain[k]:
        k += 1
    b = len(chain)
    if left[chain[-1]] < 0 and tree.right[chain[-1]] < 0:
        b -= 1
        while b > k and left[chain[b - 1]] == chain[b]:
            b -= 1
    b = max(b, k)
    return chain[:k], chain[k:b], chain[b:]


# ---------------------------------------------------------------------------
# traversal plan


@dataclass
class PlanStep:
    """Data attached to one visit of the topmost-occurrence postfix walk.

    The core is the complete subtree at the visited node without its
    duplicated minima and without the tertiary occurrences of ``upper``;
    ``core`` is its postfix reading.  The anchor is the core with the
    ``anchor_extra`` occurrences of ``upper`` that live outside it
    re-inserted, and must appear at the root of the walk tree after this
    step's shift; ``anchor`` is its postfix reading and ``spines`` the
    lengths of its left and right spines (``_embed_at``).
    """

    label: int
    min_sym: int
    lower: int | None
    upper: int | None
    anchor: list[int]
    spines: tuple[int, int]
    core: list[int]
    anchor_extra: int


def _index(word: Word):
    """The target's arrays, parents, label counts, topmost positions and ``classify_nodes``."""
    tree = PostfixTree(word)
    parent = [-1] * len(word)
    for p, (a, b) in enumerate(zip(tree.left, tree.right)):
        if a >= 0:
            parent[a] = p
        if b >= 0:
            parent[b] = p
    count = Counter(tree.labels)
    classes = {lbl: classify_nodes(tree, lbl) for lbl in count}
    topmost = {lbl: split[0][0] for lbl, split in classes.items()}
    return tree, parent, count, topmost, classes


def traversal_plan(u_word: Word, index=None) -> list[PlanStep]:
    """Plan the topmost-occurrence postfix walk of ``right_bst(u_word)``; one step per symbol."""
    _require(len(u_word) > 0, "plan needs a non-empty tree")
    u, parent, count, topmost, classes = index or _index(u_word)
    labs = u.labels
    order = [p for p, lab in enumerate(labs) if topmost[lab] == p]
    _require(len(order) == len(count), "one walk step per distinct symbol")

    steps: list[PlanStep] = []
    for visited in order:
        label = labs[visited]
        lo, hi = u.run(visited)
        m = min(labs[lo:hi])
        upper = lower = None
        child, par = visited, parent[visited]
        while par >= 0 and (upper is None or lower is None):
            if u.left[par] == child and upper is None:
                upper = labs[par]
            if u.right[par] == child and lower is None:
                lower = labs[par]
            child, par = par, parent[par]
        _require(lower is None or lower < m, "lower bound below the block minimum")
        _require(upper is None or label < upper, "upper bound above the visited symbol")

        # the core: right_bst of the block's postfix reading (the subtree's run)
        # without the minima below the uppermost one, the last in postfix order,
        # and without the tertiary occurrences of upper; each is a whole subtree
        drop = {p for p in u.occurrences(m)[1:] if lo <= p < hi}
        if upper is not None:
            tert = sorted(p for p in classes[upper][2] if lo <= p < hi)
            if tert:
                run = list(range(u.start[tert[-1]], tert[-1] + 1))
                _require(tert == run, "the block's tertiary positions form one postfix run")
                drop.update(tert)
        reading = [labs[p] for p in range(lo, hi) if p not in drop] if drop else labs[lo:hi]
        # the anchor is the core; when the core holds upper, padded with the
        # occurrences outside it, which right to left insertion adds last
        inner = reading.count(upper)
        extra = 0
        anchor, tree, top = reading, u, visited
        if inner:
            extra = count[upper] - inner
            _require(extra >= 1, "at least the uppermost occurrence lies outside the core")
            tree = PostfixTree([upper] * extra + reading)
            anchor, top, drop = tree.labels, len(reading) + extra - 1, ()
        spines = _spine(tree.left, top, drop), _spine(tree.right, top, drop)
        steps.append(PlanStep(label, m, lower, upper, anchor, spines, reading, extra))
    return steps


# ---------------------------------------------------------------------------
# embedding and invariant checks


def _spine(side: list[int], p: int, drop=()) -> int:
    """The number of nodes from ``p`` down one side, stopping short of a dropped one."""
    n = 0
    while p >= 0 and p not in drop:
        n, p = n + 1, side[p]
    return n


def _embed_at(step: PlanStep, tree: PostfixTree, at: int):
    """Exact structural match of ``step``'s anchor at position ``at`` of ``tree``.

    Extra tree subtrees are tolerated only below the left child of the
    anchor's leftmost node and the right child of its rightmost node, so
    those two attachments sit one step past the ends of the anchor's left
    and right spines, walked down from ``at``.  Without their subtrees the
    subtree at ``at`` is a tree of its own, and a tree is its postfix
    reading (``right_bst`` inverts it): the match holds when that reading is
    the anchor's.  The anchor's nodes then fill the runs between the left
    attachment's subtree, which opens the subtree's run, and the right one's,
    which closes it but for the anchor's right spine.  Returns (left attach,
    right attach, runs), positions with -1 for none, or None when the match
    fails.
    """
    ends = []
    for side, steps in zip((tree.left, tree.right), step.spines):
        t = at
        for _ in range(steps):
            if t < 0:
                return None
            t = side[t]
        ends.append(t)
    lm, rm = ends
    labs = tree.labels
    lo = lm + 1 if lm >= 0 else tree.start[at]
    if rm < 0:
        image = ((lo, at + 1),)
        reading = labs[lo:at + 1]
    else:
        image = ((lo, tree.start[rm]), (rm + 1, at + 1))
        reading = labs[lo:tree.start[rm]] + labs[rm + 1:at + 1]
    return (lm, rm, image) if reading == step.anchor else None


# ---------------------------------------------------------------------------
# the path construction


class _PathBuilder:
    def __init__(self, t_word: Word, u_word: Word):
        index = _index(u_word)
        self.plan = traversal_plan(u_word, index)
        self.n = len(self.plan)
        self.u, self.parent, self.count, self.topmost, classes = index
        self.is_top = [self.topmost[lab] == p for p, lab in enumerate(self.u.labels)]
        # visit i is pending after step h, i <= h, while its node is below no
        # visit up to h: while its nearest visited ancestor comes after h
        visit = {self.topmost[s.label]: i for i, s in enumerate(self.plan, 1)}
        above = {}
        for p, i in visit.items():
            a = self.parent[p]
            while a >= 0 and not self.is_top[a]:
                a = self.parent[a]
            above[i] = visit[a] if a >= 0 else self.n + 1
        #: the pending visits after each step h
        self.upsets = [[]]
        for h in range(1, self.n + 1):
            self.upsets.append([i for i in self.upsets[-1] if above[i] > h] + [h])
        self.primary_count = {lbl: len(split[0]) for lbl, split in classes.items()}
        self.moves: list[tuple[Word, int]] = []
        #: step index -> (left spine passed, match) for each pending anchor (``_check_spine``)
        self.matches: dict[int, tuple[list[int], tuple]] = {}
        #: the current tree of the walk
        self.walk = PostfixTree(t_word)

    # -- the current walk tree ----------------------------------------------

    def _emit(self, moved: list[int], rest: list[int]) -> None:
        """Shift the current tree, read as ``moved + rest``; no step when it keeps the reading."""
        w1 = (*moved, *rest)
        # right to left insertion of w1 rebuilds the current tree exactly when
        # each symbol lands on the first unplaced node of its search path,
        # a node carrying that symbol, and every node gets placed
        labs, left, right = self.walk.labels, self.walk.left, self.walk.right
        placed = [False] * len(labs)
        count = 0
        for a in reversed(w1):
            p = len(labs) - 1
            while p >= 0 and placed[p]:
                p = left[p] if a <= labs[p] else right[p]
            if p < 0 or labs[p] != a:
                break
            placed[p] = True
            count += 1
        _require(
            count == len(w1) == len(labs),
            "factorized reading does not represent the current tree",
        )
        walk = PostfixTree((*rest, *moved))
        if walk.labels != labs:
            self.moves.append((w1, len(moved)))
            self.walk = walk

    def _reads(self, *runs: Run) -> list[int]:
        """The labels of each run in turn."""
        labs = self.walk.labels
        out: list[int] = []
        for lo, hi in runs:
            out += labs[lo:hi]
        return out

    def _left_spine(self, pos: int, step: PlanStep):
        """Walk left children from ``pos`` until ``step``'s anchor embeds.

        Returns the positions passed on the way and the ``_embed_at`` match,
        or None when the spine ends first.
        """
        spine: list[int] = []
        while pos >= 0:
            found = _embed_at(step, self.walk, pos)
            if found is not None:
                return spine, found
            spine.append(pos)
            pos = self.walk.left[pos]
        return spine, None

    def _check_spine(self, h: int) -> None:
        """Check the walk-tree invariants for the steps pending after step h.

        The pending anchors appear in reverse order down the path of left
        children from the root, anything below an anchor hangs off its two
        extremal attachment points, and no minimum of a pending step sits
        below a node carrying that step's lower bound.  Each anchor's match
        is kept in ``matches`` for the next step.
        """
        upset = self.upsets[h]
        self.matches = {}
        pos = len(self.walk.labels) - 1
        for idx in reversed(upset):
            spine, found = self._left_spine(pos, self.plan[idx - 1])
            _require(found is not None, "anchor of step %d missing from the left spine", idx)
            self.matches[idx] = spine, found
            pos = found[0]
        labs, start = self.walk.labels, self.walk.start
        for idx in upset:
            step = self.plan[idx - 1]
            for p in self.walk.occurrences(step.lower):
                _require(
                    step.min_sym not in labs[start[p]:p],
                    "minimum %d below lower bound %d", step.min_sym, step.lower,
                )

    def _visit_split(self, u1: int, lower: int | None) -> tuple[list[int], list[int], int]:
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
        run, left, right = walk.run, walk.left, walk.right
        occ = walk.occurrences(u1)
        _require(occ != [], "visit symbol occurs in the current tree")
        if lower is not None:
            # the occurrences with an ancestor ``lower``: they lie in that node's run
            lows = walk.occurrences(lower)
            below = [y for y in occ if any(walk.start[p] <= y < p for p in lows)]
            if below:
                y = below[0]
                p_node = lows[0] if lows else -1
                _require(
                    p_node >= 0 and walk.contains(right[p_node], y),
                    "pulled occurrence sits in the right subtree of the bound",
                )
                head = self._reads(run(left[y]), run(right[y]))
                rest_head = self._reads(*_minus(run(right[p_node]), run(y)), run(left[p_node]))
                return head, rest_head + [lower], p_node
        y = occ[0]
        return self._reads(run(left[y]), run(right[y])), [], y

    def _between_counts(self, h: int, s: int, s2: int | None = None) -> tuple[int, int]:
        """Split ``s`` occurrences of step h's upper bound into (s2, s1).

        ``s2`` move to the front of the shift, by default those between
        visits h and h+1 in U; ``s1`` are the rest.
        """
        if s2 is None:
            cur, nxt = self.plan[h - 1], self.plan[h]
            high = self.topmost[nxt.label]
            s2, par = 0, self.parent[self.topmost[cur.label]]
            while par != high:
                _require(par >= 0, "expected an ancestor path")
                _require(
                    self.u.labels[par] == cur.upper, "only upper-bound symbols separate the visits"
                )
                s2, par = s2 + 1, self.parent[par]
        _require(s - s2 >= 0, "the moved occurrences fit in the upper ones")
        return s2, s - s2

    def _upper_parts(self, h: int, rm: int, image, s2=None, middle=()):
        """(prefix, suffix) of a shift by the upper-bound rule of step h.

        The occurrences of the upper bound ``q`` outside the core are either
        inserted into the anchor, whose nodes fill the runs ``image``, or
        form one chain in its right attachment ``rm``.  ``s2`` of them
        (``_between_counts``) move up front, behind the subtree right of a
        chain; with none to move, the block around the chain stays contiguous
        in the suffix so that it lands right of the new root.  The runs
        ``middle`` read right before the core.
        """
        walk = self.walk
        cur = self.plan[h - 1]
        q = cur.upper
        if q is None:
            return [], self._reads(walk.run(rm), *middle) + cur.core
        if cur.anchor_extra:
            s = cur.anchor_extra
            beta, tail = [], self._reads(walk.run(rm), *middle) + cur.core
        else:
            qnodes = walk.occurrences(q)
            _require(qnodes != [], "upper bound occurs somewhere")
            # with nothing inserted the core is the whole anchor
            _require(
                not any(_within(image, p) for p in qnodes),
                "upper occurrences sit outside the anchor",
            )
            for a, b in zip(qnodes, qnodes[1:]):
                _require(walk.left[a] == b, "upper occurrences form one consecutive chain")
            s = len(qnodes)
            _require(s == self.count[q], "all upper occurrences located")
            top = qnodes[0]
            _require(walk.contains(rm, top), "upper chain right of the anchor")
            lo, hi = walk.run(walk.left[top])
            _require(set(walk.labels[lo:hi]) <= {q}, "only repeats hang left of the uppermost")
            beta = self._reads(walk.run(walk.right[top]))
            tail = self._reads(*_minus(walk.run(rm), walk.run(top)), *middle) + cur.core
        s2, s1 = self._between_counts(h, s, s2)
        if s2:
            return beta + [q] * s2, [q] * s1 + tail
        return [], beta + [q] * s1 + tail

    # -- base step -------------------------------------------------------

    def base_step(self) -> None:
        step = self.plan[0]
        head, rest_head, stop = self._visit_split(step.label, step.lower)
        outside = _minus((0, len(self.walk.labels)), self.walk.run(stop))
        self._emit(head + [step.label], rest_head + self._reads(*outside))

    # -- induction cases ---------------------------------------------------

    def step(self, h: int) -> None:
        cur, nxt = self.plan[h - 1], self.plan[h]
        u = self.u
        n_h = self.topmost[cur.label]
        n_next = self.topmost[nxt.label]
        if u.contains(u.left[n_next], n_h):
            self._case2(h)
        elif u.contains(u.right[n_next], n_h):
            lo, hi = u.run(u.left[n_next])
            if any(self.is_top[lo:hi]):
                self._case4(h)
            else:
                self._case3(h)
        else:
            self._case1(h)
        self._check_spine(h + 1)

    def _anchor_parts(self, h: int):
        """Step h's anchor at the root: its two attachments and the runs of its nodes.

        ``_check_spine`` has just matched it, starting at the root.
        """
        spine, found = self.matches[h]
        _require(not spine, "anchor of the visit to %d absent at the root", self.plan[h - 1].label)
        return found

    def _case1(self, h: int) -> None:
        cur, nxt = self.plan[h - 1], self.plan[h]
        u1 = nxt.label
        _require(len(nxt.anchor) == 1, "fresh visit carries a single-node anchor")
        walk = self.walk
        lm, rm, image = self._anchor_parts(h)
        # the pull-to-front surgery needs every next-lower occurrence outside
        # the anchor; that fails only when the bounds collide and the anchor
        # absorbed those occurrences
        collide = cur.upper == nxt.lower and cur.anchor_extra > 0
        head, rest_head, stop = self._visit_split(u1, None if collide else nxt.lower)
        _require(walk.contains(rm, stop), "visit symbol and its bound right of the anchor")
        zeta = _minus(walk.run(rm), walk.run(stop))
        self._emit(head + [u1], rest_head + self._reads(*zeta, walk.run(lm), *image))

    def _case2(self, h: int) -> None:
        cur = self.plan[h - 1]
        u1 = self.plan[h].label
        _require(cur.upper == u1, "upper bound of the old block is the next visit")
        lm, rm, image = self._anchor_parts(h)
        lam = self.walk.run(lm)
        self._emit(*self._upper_parts(h, rm, image, self.primary_count[u1], (lam,)))

    def _m_chain_pieces(self, lm: int, image, m: int, stop: int):
        """Left-spine pieces from the anchor attachment down to ``stop``.

        Returns the word fragment lambda_0 m lambda_1 m ... m lambda_r (bottom
        part first) for the duplicated minima outside the anchor, whose nodes
        fill the runs ``image``.  Minima inside the subtree at ``stop`` belong
        to the caller's own pieces and are skipped here.
        """
        walk = self.walk
        run, left, right = walk.run, walk.left, walk.right
        s_lo, s_hi = stop_run = run(stop)
        ext_all = [p for p in walk.occurrences(m) if not _within(image, p)]
        _require(
            len(ext_all) == self.count[m] - 1, "all duplicated minima sit outside the anchor"
        )
        ext = [p for p in ext_all if not s_lo <= p < s_hi]
        _require(
            all(s_lo <= p < s_hi for p in ext_all[len(ext):]),
            "skipped minima form the lower end of the chain",
        )
        regions: list[tuple[Run, Run]] = []
        top = run(lm)
        if ext:
            _require(top[0] <= ext[0] < top[1], "duplicated minima hang left of the anchor")
            regions.append(_minus(top, run(ext[0])))
            for a, b in zip(ext, ext[1:]):
                _require(b != a and walk.contains(left[a], b), "minima descend leftwards")
                _require(right[a] < 0, "duplicated minima have empty right subtrees")
                regions.append(_minus(run(left[a]), run(b)))
            _require(right[ext[-1]] < 0, "duplicated minima have empty right subtrees")
            regions.append(_minus(run(left[ext[-1]]), stop_run))
        else:
            regions.append(_minus(top, stop_run))
        # regions are top..bottom; the word wants bottom..top with m separators
        frag: list[int] = []
        for i, region in enumerate(reversed(regions)):
            if i:
                frag.append(m)
            frag.extend(self._reads(*region))
        return frag

    def _case3(self, h: int) -> None:
        cur, nxt = self.plan[h - 1], self.plan[h]
        u1 = nxt.label
        _require(cur.lower == u1, "lower bound of the old block is the next visit")
        lm, rm, image = self._anchor_parts(h)
        y = self.walk.occurrences(u1)[0]
        _require(self.walk.right[y] < 0, "uppermost visit symbol has an empty right subtree")
        head, rest_head, stop = self._visit_split(u1, nxt.lower)
        middle = rest_head + self._m_chain_pieces(lm, image, cur.min_sym, stop)
        prefix, suffix = self._upper_parts(h, rm, image)
        self._emit(head + prefix + [u1], middle + suffix)

    def _case4(self, h: int) -> None:
        cur, nxt = self.plan[h - 1], self.plan[h]
        u1, m = nxt.label, cur.min_sym
        _require(cur.lower == u1, "lower bound of the old block is the next visit")
        upset = self.upsets[h]
        _require(len(upset) >= 2, "an earlier pending visit exists")
        gstep = self.plan[upset[-2] - 1]
        _require(gstep.upper == u1, "previous pending block is bounded by the next visit")
        lm_h, rm_h, image_h = self._anchor_parts(h)
        labs, right = self.walk.labels, self.walk.right

        # the spine below the anchor down to the previous anchor, as
        # ``_check_spine`` walked it from the anchor's left attachment
        spine, found = self.matches[upset[-2]]
        for pos in spine:
            _require(labs[pos] in (m, u1), "spine carries only minima and next visits")
            _require(right[pos] < 0, "spine nodes have empty right subtrees")
        _require(found is not None, "previous anchor found on the spine")
        lm_g, rm_g, _ = found

        r2 = sum(1 for p in spine if labs[p] == m)
        o2 = len(spine) - r2
        _require(
            all(labs[p] == m for p in spine[:r2]),
            "minima come before next visits on the spine",
        )
        # a pure left chain hangs right of the previous anchor
        below, p = [], rm_g
        while p >= 0:
            _require(right[p] < 0, "expected a bare chain (no right subtrees)")
            below.append(p)
            p = self.walk.left[p]
        r1 = sum(1 for p in below if labs[p] == m)
        o1 = len(below) - r1
        _require(
            all(labs[p] == m for p in below[:r1])
            and all(labs[p] == u1 for p in below[r1:]),
            "below the previous anchor: minima, then next visits",
        )
        _require(r1 + r2 == self.count[m] - 1, "all duplicated minima located")

        t2 = self.primary_count[u1]
        eg_ext = gstep.anchor_extra > 0
        if eg_ext:
            _require(o1 == 0 and o2 == 0, "next visits all live inside the previous anchor")
            _require(not below, "nothing hangs below the previous anchor here")
            t = gstep.anchor_extra
            _require(
                len(gstep.anchor) - len(gstep.core) == t,
                "inserted next visits accounted for",
            )
        else:
            t = o1 + o2
            _require(t == self.count[u1], "all next visits located")
        t1 = t - t2
        _require(t1 >= 0, "primary occurrences fit")

        # the middle: next visits around the previous anchor's reading
        gamma = self._reads(self.walk.run(lm_g)) + gstep.core
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
            rho = self._reads(self.walk.run(rm_h))
            # with both anchors padded the right attachment reads before the minima
            tail = rho + minima if eg_ext else minima + rho
            prefix, suffix = [q] * s2, tail + [q] * s1 + cur.core
        else:
            prefix, suffix = self._upper_parts(h, rm_h, image_h)
            suffix = minima + suffix
        self._emit(prefix + moved, rest + suffix)

    def run(self) -> tuple[tuple[Word, int], ...]:
        self.base_step()
        self._check_spine(1)
        for h in range(1, self.n):
            self.step(h)
        _require(
            self.walk.labels == self.u.labels,
            "path construction must end at the target tree",
        )
        return tuple(self.moves)


def shift_moves(t_word: Word, u_word: Word) -> tuple[tuple[Word, int], ...]:
    """The step witnesses ``(w, k)`` from ``right_bst(t_word)`` to ``right_bst(u_word)``.

    Both are postfix readings (``trees.labels``).  Requires equal evaluations.
    Every step changes the tree.
    """
    if sorted(t_word) != sorted(u_word):
        raise ValueError("shift path requires equal evaluations")
    if list(t_word) == list(u_word):
        return ()
    return _PathBuilder(t_word, u_word).run()


def shift_path(t: Node | None, u: Node | None) -> ShiftPath:
    """Path of at most n cyclic shifts from ``t`` to ``u`` (n = distinct symbols).

    Requires equal evaluations.  The first element is ``t``; each later one
    is ``right_bst`` of its step's rotated witness.
    """
    moves = shift_moves(labels(t), labels(u))
    return ShiftPath((t, *(right_bst(w[k:] + w[:k]) for w, k in moves)), moves)
