"""Property-based invariant checks across the monoids."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cycshift import baxter, hypoplactic, plactic, rewrite, stalactic, sylvester, taiga
from cycshift.handles import HANDLES
from cycshift.trees import labels
from cycshift.words import evaluation, rotate

words = st.lists(st.integers(1, 6), max_size=10).map(tuple)
small_words = st.lists(st.integers(1, 4), max_size=7).map(tuple)


@given(words, st.data())
def test_rotation_round_trip(w, data):
    k = data.draw(st.integers(0, len(w)))
    assert rotate(rotate(w, k), len(w) - k) == w


@given(words)
def test_young_tableau_valid_and_content_preserving(w):
    t = plactic.young_tableau(w)
    t.check()
    assert sorted(t.symbols()) == sorted(w)


@given(words)
def test_quasi_ribbon_valid_and_readings_insert_back(w):
    t = hypoplactic.quasi_ribbon(w)
    t.check()
    assert sorted(t.symbols()) == sorted(w)
    assert hypoplactic.quasi_ribbon(t.column_reading()) == t
    assert hypoplactic.quasi_ribbon(t.row_reading()) == t


@given(words)
def test_right_bst_valid(w):
    t = sylvester.right_bst(w)
    sylvester.check_right_strict(t)
    assert sorted(labels(t)) == sorted(w)


@given(words)
def test_mult_bst_valid(w):
    t = taiga.mult_bst(w)
    taiga.check_mult_bst(t)
    assert sorted(taiga.symbols(t)) == sorted(w)


@given(words)
def test_stalactic_tableau_valid(w):
    t = stalactic.stalactic_tableau(w)
    assert sorted(t.symbols()) == sorted(w)
    # column order is the order of rightmost occurrences
    rightmost = sorted(set(w), key=lambda a: max(i for i, b in enumerate(w) if b == a))
    assert [a for a, _ in t.columns] == rightmost


@given(words)
def test_twin_pair_invariants(w):
    pair = baxter.twin_pair(w)
    if pair.left is not None:
        assert baxter.complementary(baxter.canopy(pair.left), baxter.canopy(pair.right))


@given(small_words)
@settings(max_examples=60)
def test_moves_preserve_evaluation_everywhere(w):
    for name, moves in rewrite.PRESENTATIONS.items():
        for w2 in moves(w):
            assert sorted(w2) == sorted(w)


@given(small_words, st.data())
@settings(max_examples=60)
def test_keys_constant_under_one_rewrite(w, data):
    for name in ("plac", "hypo", "sylv", "stal", "taig", "baxt"):
        from cycshift.handles import handle

        h = handle(name)
        succ = list(rewrite.PRESENTATIONS[name](w))
        if succ:
            w2 = data.draw(st.sampled_from(succ))
            assert h.key_of(w2) == h.key_of(w)


@given(small_words, st.data())
@settings(max_examples=60)
def test_neighbor_symmetry(w, data):
    from cycshift.handles import handle
    from cycshift.shiftgraph import evaluation_graph

    if not w:
        return
    name = data.draw(st.sampled_from(["plac", "sylv", "stal", "baxt"]))
    h = handle(name)
    rank = max(w)
    g = evaluation_graph(h, evaluation(w, rank))
    for a, nbrs in g.adjacency.items():
        for b in nbrs:
            assert a in g.adjacency[b]


@given(st.lists(st.integers(1, 7), max_size=11), st.data())
@settings(max_examples=40, deadline=None)
def test_tree_shift_paths_pass_the_checker(w, data):
    # up to 11 letters through the checker; up to 7 also edge by edge
    # against the BFS graph, and never shorter than the BFS distance
    from cycshift.handles import handle
    from cycshift.paths import check_path
    from cycshift.shiftgraph import distance, evaluation_graph

    v = data.draw(st.permutations(w))
    for name in ("sylv", "taig"):
        h = handle(name)
        a, b = h.element(tuple(w)), h.element(tuple(v))
        path = h.shift_path(a, b)
        if len(w) > 7:
            check_path(h, path, h.key(a), h.key(b))
            continue
        graph = evaluation_graph(h, evaluation(tuple(w), 7), 7)
        check_path(h, path, h.key(a), h.key(b), graph)
        assert path.steps >= distance(graph, h.key(a), h.key(b))


@given(st.lists(st.integers(1, 5), min_size=1, max_size=8), st.data())
@settings(max_examples=40, deadline=None)
def test_tree_shift_paths_follow_an_increasing_relabelling(w, data):
    # the sylvester builder only compares labels, so a gapped alphabet gives
    # the same path move for move
    from cycshift.handles import handle
    from cycshift.paths import check_path

    image = data.draw(st.lists(st.integers(1, 20), min_size=5, max_size=5, unique=True))
    phi = dict(zip(range(1, 6), sorted(image)))

    def relabel(word):
        return tuple(phi[a] for a in word)

    v = tuple(data.draw(st.permutations(w)))
    for name in ("sylv", "taig"):
        h = handle(name)
        path = h.shift_path(h.element(tuple(w)), h.element(v))
        a, b = h.element(relabel(w)), h.element(relabel(v))
        gapped = h.shift_path(a, b)
        assert gapped.moves == tuple((relabel(uv), k) for uv, k in path.moves)
        check_path(h, gapped, h.key(a), h.key(b))


@given(st.lists(st.integers(1, 6), max_size=12), st.data())
@settings(max_examples=40, deadline=None)
def test_hypo_and_stal_shift_paths_pass_the_checker(w, data):
    from cycshift.handles import handle
    from cycshift.paths import check_path
    from cycshift.shiftgraph import distance, evaluation_graph

    h = handle("hypo")
    a, b = h.element(tuple(w)), h.element(tuple(data.draw(st.permutations(w))))
    graph = evaluation_graph(h, evaluation(tuple(w), 6), 12)
    path = h.shift_path(a, b)
    check_path(h, path, h.key(a), h.key(b), graph)
    assert path.steps >= distance(graph, h.key(a), h.key(b))
    # stal components: rotate the height-1 columns, put the taller ones back
    # anywhere; up to 11 letters through the checker, up to 7 also edge by edge
    w = tuple(data.draw(st.lists(st.integers(1, 7), max_size=11)))
    h = handle("stal")
    a = h.element(w)
    singles = [c for c in a.columns if c[1] == 1]
    r = data.draw(st.integers(0, max(len(singles) - 1, 0)))
    columns = singles[r:] + singles[:r]
    for c in data.draw(st.permutations([c for c in a.columns if c[1] > 1])):
        columns.insert(data.draw(st.integers(0, len(columns))), c)
    b = stalactic.StalacticTableau(tuple(columns))
    path = h.shift_path(a, b)
    if len(w) > 7:
        check_path(h, path, h.key(a), h.key(b))
        return
    graph = evaluation_graph(h, evaluation(w, 7), 7)
    check_path(h, path, h.key(a), h.key(b), graph)
    assert path.steps >= distance(graph, h.key(a), h.key(b))


@settings(max_examples=60)
@given(st.lists(st.integers(1, 13), max_size=9).map(tuple), st.randoms(use_true_random=False))
def test_forms_agree_exactly_when_keys_agree(w, rng):
    v = tuple(rng.sample(w, len(w)))
    for name in ("plac", "hypo", "sylv", "stal", "taig", "baxt"):
        h = HANDLES[name]
        assert h.format_form(h.word_form(w)) == h.key(h.element(w))
        assert (h.word_form(w) == h.word_form(v)) == (h.key_of(w) == h.key_of(v))


@settings(max_examples=60)
@given(st.lists(st.integers(1, 9), max_size=7), st.integers(1, 3), st.integers(0, 9))
def test_rotation_kernels_form_each_rotation_as_word_form_does(base, repeats, shift):
    # a rotated power of a word: a necklace of any rotation, often periodic
    w = tuple(base * repeats)
    w = w[shift % len(w):] + w[:shift % len(w)] if w else w
    period = next((d for d in range(1, len(w)) if w[d:] + w[:d] == w), len(w) or 1)
    for h in HANDLES.values():
        if h.rotation_forms is not None:
            forms = h.rotation_forms(w, evaluation(w, 9), period)
            assert forms == [h.word_form(w[i:] + w[:i]) for i in range(period)], h.name
