import dataclasses
import itertools
import json
import tracemalloc
from array import array
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycshift import shiftgraph
from cycshift.handles import HANDLES, handle
from cycshift.paths import check_path
from cycshift.shiftgraph import (
    ShiftGraph,
    component,
    diameter,
    diameter_scan,
    distance,
    evaluation_graph,
    export,
    from_adjacency,
    neighbors,
    to_dot,
    to_json,
)
from cycshift.words import (
    LimitExceededError, evaluation, multinomial, necklaces, parse_word, words_with_evaluation,
)


def distances_from(adj, start):
    """Every distance from ``start``: a plain BFS over a key -> neighbour keys mapping.

    The tests pass a graph's public ``adjacency``, read once into a dict.
    """
    if start not in adj:
        raise ValueError(f"unknown vertex {start!r}")
    dist, queue = {start: 0}, deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def test_neighbors_of_plactic_row():
    plac = handle("plac")
    got = neighbors(plac, parse_word("12345"), 5)
    want = {
        plac.key_of(parse_word(w))
        for w in ("12345", "51234", "21345", "45123", "34125")
    }
    assert got == want


def test_neighbors_contains_self():
    for name in ("plac", "sylv", "stal"):
        h = handle(name)
        assert h.key_of((1, 2, 2)) in neighbors(h, (1, 2, 2), 2)


def test_neighbors_of_empty_word():
    h = handle("plac")
    assert neighbors(h, (), 3) == {h.key_of(())}


def _counting(h):
    forms, formats = [], []

    def word_form(w):
        forms.append(w)
        return h.word_form(w)

    def format_form(form):
        formats.append(form)
        return h.format_form(form)

    # a rotation kernel would form the words without the counting word_form
    return dataclasses.replace(h, word_form=word_form, format_form=format_form, rotation_forms=None), forms, formats


def _necklace_engine(h, **fields):
    """``h`` with every shortcut of the engine cleared: each evaluation is built
    from its own necklaces, one ``word_form`` per word, unless ``fields`` say otherwise."""
    cleared = dict(
        class_graph=None, saturates=False, image_of=None, mirror=None, relabel_invariant=False, rotation_forms=None
    )
    return dataclasses.replace(h, **{**cleared, **fields})


def _rotations(words):
    return {w[i:] + w[:i] for w in words for i in range(len(w))}


@pytest.mark.parametrize("ev", [(), (1,), (2, 2), (3, 3), (2, 1, 2), (1, 1, 1, 1, 1), (2, 2, 2)])
def test_every_word_is_keyed_once(ev):
    for name in ("plac", "hypo", "stal", "sylv", "taig", "baxt", "counterexample"):
        h = handle(name)
        if h.saturates:
            # the saturated build: the words of the counts capped at 2, or for
            # an image one word per class of the finer record's saturation when
            # some count is 2, and one padded word per class when some count is above 2
            counted, forms, formats = _counting(h)
            sat = tuple(min(c, 2) for c in ev)
            g = evaluation_graph(counted, ev)
            # keys are formatted on their first read, and a padded graph reads
            # only its own: read the saturation's first, then the padded ones
            if sat != ev:
                evaluation_graph(counted, sat).keys
            classes = len(g.keys)
            padded = 0 if sat == ev else classes
            built = multinomial(sat)
            if h.image_of is not None and 2 in sat:
                built = len(evaluation_graph(handle(h.image_of), sat).adjacency)
            assert len(forms) == built + padded, (name, ev)
            # each saturated class, then each padded word, formatted once
            assert len(formats) == classes + padded, (name, ev)
        # the necklace engine, also for a record that builds its graph from a
        # model, its saturation, a finer record's graph or its mirror's
        counted, forms, formats = _counting(_necklace_engine(h))
        classes = len(evaluation_graph(counted, ev).keys)
        assert sorted(forms) == list(words_with_evaluation(ev)), (name, ev)
        assert len(forms) == multinomial(ev)
        assert len(formats) == len(set(formats)) == classes, (name, ev)
        if h.rotation_forms is not None:
            # the rotation kernel forms every word once too
            outputs, kernel = [], h.rotation_forms
            with_kernel = _necklace_engine(h, rotation_forms=lambda *args: outputs.append(kernel(*args)) or outputs[-1])
            evaluation_graph(with_kernel, ev)
            assert sum(map(len, outputs)) == multinomial(ev), (name, ev)
        words = {w: h.word_form(w) for w in words_with_evaluation(ev)}
        for word in words:
            members = {w for w, form in words.items() if form == words[word]}
            forms.clear()
            assert counted.class_of(word, len(ev)) == members, (name, word)
            # the class and its members' one-move neighbours, each formed once
            stepped = {v for u in members for v in h.moves(u)}
            assert sorted(forms) == sorted(members | stepped), (name, word)
            walked = set(forms)
            forms.clear()
            formats.clear()
            got = neighbors(counted, word, len(ev))
            # class_of's words, then the query word and the members' rotations
            assert set(forms) <= walked | _rotations(members), (name, word)
            # only the answer is formatted, each key once
            assert len(formats) == len(set(formats)) == len(got), (name, word)
            assert set(map(h.format_form, formats)) == got, (name, word)


def test_hypo_neighbors_walk_from_the_word_class_alone():
    hypo = handle("hypo")
    counted, forms, formats = _counting(hypo)
    engine = dataclasses.replace(hypo, class_graph=None)
    for ev in [(1,), (2, 2), (2, 1, 2), (1, 2, 1, 1), (1,) * 4]:
        for word in words_with_evaluation(ev):
            forms.clear()
            got = neighbors(counted, word, len(ev))
            # the query word's form, then one form per answer key
            assert len(forms) <= 1 + len(got), word
            assert got == neighbors(engine, word, len(ev)), word
    forms.clear()
    got = neighbors(counted, tuple(range(1, 11)), 10)
    assert len(got) == 10 and len(forms) <= 11


def test_neighbors_checks_the_alphabet_first():
    with pytest.raises(ValueError, match="outside alphabet"):
        neighbors(handle("plac"), (1, 5), 3)


def test_neighbors_is_every_rotation_of_every_class_member():
    # the necklace engine's clique union: the class and its graph neighbours
    for name, h in HANDLES.items():
        engine = dataclasses.replace(h, class_graph=None)
        for ev in [(2, 2), (3, 3), (2, 1, 2), (1, 2, 1, 1)]:
            adj = evaluation_graph(engine, ev).adjacency
            for word in words_with_evaluation(ev):
                k = h.key_of(word)
                assert neighbors(h, word, len(ev)) == adj[k] | {k}, (name, word)


def test_component_sizes_and_diameters():
    g = component(handle("plac"), parse_word("12345"), 5)
    assert len(g.vertices) == 26 and diameter(g) == 4
    g = component(handle("sylv"), parse_word("1234"), 4)
    assert len(g.vertices) == 14 and diameter(g) == 3


def test_stalactic_reference_component_exactly():
    # six classes, ten edges, diameter three
    h = handle("stal")
    g = component(h, parse_word("1233"), 3)
    name = {w: h.key_of(parse_word(w)) for w in
            ("1233", "1332", "2133", "2331", "3312", "3321")}
    want_edges = {
        ("1233", "1332"), ("1233", "2133"), ("1233", "2331"), ("1233", "3312"),
        ("1332", "2133"), ("1332", "2331"), ("1332", "3321"),
        ("2133", "2331"), ("2133", "3321"), ("2331", "3312"),
    }
    want = {tuple(sorted((name[a], name[b]))) for a, b in want_edges}
    assert set(g.edges()) == want
    assert g.edge_count == 10
    assert diameter(g) == 3
    assert distance(g, name["3312"], name["3321"]) == 3


def test_distance_errors_on_disconnected():
    g = evaluation_graph(handle("stal"), (1, 1, 1))
    h = handle("stal")
    with pytest.raises(ValueError):
        distance(g, h.key_of((1, 2, 3)), h.key_of((2, 1, 3)))


def test_counterexample_graph():
    h = handle("counterexample")
    g = evaluation_graph(h, (1, 1, 2, 2))
    d = distance(g, h.key_of(parse_word("134342")), h.key_of(parse_word("243431")))
    assert d >= 1


def test_scan_report():
    rep = diameter_scan(handle("stal"), 3, 6)
    assert rep.max_diameter == 3
    assert not rep.all_single_component
    text = rep.render()
    assert "monoid=stal" in text and "max diameter 3" in text
    # full enumeration includes evaluations with unused symbols
    assert any(0 in row.evaluation for row in rep.rows)


def test_scan_distinct_restricts_to_full_support():
    rep = diameter_scan(handle("hypo"), 3, 5, distinct_up_to_relabeling=True)
    assert all(all(c > 0 for c in row.evaluation) for row in rep.rows)
    assert rep.max_diameter == 2
    with pytest.raises(ValueError):
        diameter_scan(handle("counterexample"), 4, 4, distinct_up_to_relabeling=True)


def test_export_round_trip():
    g = component(handle("stal"), parse_word("1233"), 3)
    payload = json.loads(to_json(g))
    assert {v: set(nbrs) for v, nbrs in payload["adjacency"].items()} == g.adjacency
    assert payload["vertices"] == g.vertices
    assert tuple(payload["evaluation"]) == g.evaluation and payload["monoid"] == g.monoid


def test_export_dot():
    g = component(handle("plac"), (1,), 1)
    dot = to_dot(g)
    assert dot.splitlines()[0] == "graph {"
    assert '"1"' in dot
    assert "--" not in dot  # single vertex, no edges, no self loops
    with pytest.raises(ValueError):
        export(g, "svg")


def test_every_neighbor_shares_the_evaluation():
    h = handle("sylv")
    for w in words_with_evaluation((2, 1, 1)):
        g = evaluation_graph(h, (2, 1, 1))
        assert h.key_of(w) in g.adjacency


def test_constructive_paths_upper_bound_bfs():
    ev = (1, 1, 1, 1)
    for h in HANDLES.values():
        if h.shift_path is None:
            continue
        g = evaluation_graph(h, ev)
        adj = dict(g.adjacency)
        reps = {}
        for w in words_with_evaluation(ev):
            reps.setdefault(h.key_of(w), w)
        for comp in g.components():
            for ka in comp.vertices:
                dists = distances_from(adj, ka)
                for kb in comp.vertices:
                    path = h.shift_path(h.element(reps[ka]), h.element(reps[kb]))
                    check_path(h, path, ka, kb, g)
                    assert dists[kb] <= path.steps, (h.name, ka, kb)


# ---------------------------------------------------------------------------
# differential check of the engine against the word-by-word construction


def reference_graph(h, ev, keys):
    """One lookup per rotation of every word, as the engine used to build."""
    adj = {k: set() for k in keys.values()}
    for w, k in keys.items():
        for i in range(1, len(w)):
            r = keys[w[i:] + w[:i]]
            if r != k:
                adj[k].add(r)
                adj[r].add(k)
    return from_adjacency(h.name, len(ev), ev, adj)


def reference_diameter(g):
    """Largest eccentricity, one BFS per source."""
    best, adj = 0, dict(g.adjacency)
    for v in adj:
        dist = distances_from(adj, v)
        if len(dist) != len(adj):
            raise ValueError("disconnected")
        best = max(best, max(dist.values()))
    return best


#: every evaluation of rank 4 and total <= 6; one of lower rank has the same
#: words as its zero-padded rank-4 form, whose keys it reuses
DIFFERENTIAL_EVALUATIONS = [ev for ev in itertools.product(range(7), repeat=4) if sum(ev) <= 6]


@pytest.mark.parametrize("name", sorted(set(HANDLES) - {"counterexample"}))
def test_engine_matches_reference(name):
    h = handle(name)
    cases = []
    for ev in DIFFERENTIAL_EVALUATIONS:
        keys = {w: h.key_of(w) for w in words_with_evaluation(ev)}
        cases += [(ev[:rank], keys) for rank in range(4, 0, -1) if not any(ev[rank:])]
    cases.append(((1,) * 6, {w: h.key_of(w) for w in words_with_evaluation((1,) * 6)}))
    for ev, keys in cases:
        # the engine gets the same forms without computing them again
        forms = {w: h.word_form(w) for w in keys}
        cached = _necklace_engine(h, word_form=forms.__getitem__)
        ref = reference_graph(h, ev, keys)
        ref_adj, ref_json, ref_dot = dict(ref.adjacency), to_json(ref), to_dot(ref)
        ref_comps = ref.components()
        ref_comp_adjs = [dict(c.adjacency) for c in ref_comps]
        ref_diameters = [reference_diameter(c) for c in ref_comps]
        # the necklace engine, and the record's own build: from its model, or
        # served from its canonical form when some count is 2 or more
        for g in [evaluation_graph(cached, ev), evaluation_graph(h, ev)]:
            assert dict(g.adjacency) == ref_adj, ev
            # each frozen neighbour array: sorted, no repeats, no self-loop
            for i, row in enumerate(g.nbrs):
                assert isinstance(row, array) and row.typecode == "I", ev
                assert list(row) == sorted(set(row)) and i not in row, ev
            assert to_json(g) == ref_json and to_dot(g) == ref_dot, ev
            comps = g.components()
            assert [dict(c.adjacency) for c in comps] == ref_comp_adjs, ev
            assert [diameter(c) for c in comps] == ref_diameters, ev


@pytest.mark.parametrize(
    ("name", "ev"), [("plac", (2, 1, 1)), ("sylv", (1, 1, 2)), ("stal", (1, 3, 1)), ("taig", (2, 2, 1))]
)
def test_keys_are_formatted_on_first_read(name, ev):
    # served graphs: plac's mirrored, sylv's its own canonical form, stal's
    # padded from its saturation, taig's the image of stal's (mirrored)
    counted, _, formats = _counting(handle(name))
    g = evaluation_graph(counted, ev)
    assert len(g.adjacency) == len(g.nbrs)
    (comp,) = g.components()
    assert diameter(comp) == diameter(g) >= 1
    assert formats == []
    # the first read formats each class once, for the graph and its views
    assert g.vertices == evaluation_graph(_necklace_engine(handle(name)), ev).vertices
    assert comp.vertices == g.vertices and g.keys is comp.keys
    assert len(formats) == len(set(formats)) == len(g.nbrs), (name, ev)


def _period(w):
    return next(d for d in range(1, len(w) + 1) if w[d:] + w[:d] == w) if w else 1


#: every evaluation of rank 4 and total <= 8, unused symbols included (a lower
#: rank's words are those of its zero-padded rank-4 form), the standard ones
#: of rank <= 7, and three whose necklaces are often periodic
KERNEL_EVALUATIONS = [ev for ev in itertools.product(range(9), repeat=4) if sum(ev) <= 8] + [
    (1,) * 5, (1,) * 6, (1,) * 7, (2, 2, 2), (3, 3), (2, 2, 2, 2),
]


@pytest.mark.parametrize("name", [name for name, h in HANDLES.items() if h.rotation_forms])
def test_rotation_kernel_forms_each_rotation_as_word_form_does(name):
    h = handle(name)
    for ev in KERNEL_EVALUATIONS:
        for w in necklaces(ev, sum(ev)):
            p = _period(w)
            assert h.rotation_forms(w, ev, p) == [h.word_form(w[i:] + w[:i]) for i in range(p)], (name, w)


@pytest.mark.parametrize("name", [name for name, h in HANDLES.items() if h.rotation_forms])
def test_rotation_kernel_leaves_every_graph_as_it_was(name):
    # the record's own build, served or direct, with and without its kernel:
    # the same ids, keys, rows and words, in order
    h = handle(name)
    plain = dataclasses.replace(h, rotation_forms=None)
    for ev in DIFFERENTIAL_EVALUATIONS + [(1,) * 6, (2, 2, 2), (3, 3)]:
        reps, want_reps = {}, {}
        g = evaluation_graph(h, ev, representatives=reps)
        want = evaluation_graph(plain, ev, representatives=want_reps)
        assert g.keys == want.keys and g.nbrs == want.nbrs, ev
        assert list(reps.items()) == list(want_reps.items()), ev


#: every evaluation of rank 4 and total <= 8 with a count above 2; a lower
#: rank's graph is that of its zero-padded rank-4 form
SATURATED_EVALUATIONS = [
    ev for ev in itertools.product(range(9), repeat=4) if sum(ev) <= 8 and max(ev) > 2
]


@pytest.mark.parametrize("name", [name for name, h in HANDLES.items() if h.saturates])
def test_saturated_graphs_are_the_necklace_engine_graphs(name):
    h = handle(name)
    engine = _necklace_engine(h)
    for ev in SATURATED_EVALUATIONS:
        reps, want_reps = {}, {}
        g = evaluation_graph(h, ev, representatives=reps)
        want = evaluation_graph(engine, ev, representatives=want_reps)
        assert g.vertices == want.vertices and g.edges() == want.edges(), ev
        assert reps.keys() == want_reps.keys(), ev
        assert all(h.key_of(w) == k and sorted(w) == sorted(want_reps[k]) for k, w in reps.items()), ev
    # the guard reads the evaluation's own total, with the engine's message
    with pytest.raises(LimitExceededError) as exc:
        evaluation_graph(h, (4, 3, 1), 7)
    assert str(exc.value) == "evaluation total 8 exceeds enumeration limit 7 (evaluation (4, 3, 1))"


#: every evaluation of rank 4 and total <= 8 with a count of 2 or more, unused symbols included
SERVED_EVALUATIONS = [
    ev for ev in itertools.product(range(9), repeat=4) if sum(ev) <= 8 and max(ev) > 1
]


@pytest.mark.parametrize("name", [name for name, h in HANDLES.items() if h.mirror or h.saturates])
def test_served_graphs_are_the_direct_builds(name):
    # the graph served from the canonical form (relabeled, capped, mirrored)
    # against the evaluation's own necklaces
    h = handle(name)
    direct = _necklace_engine(h)
    for ev in SERVED_EVALUATIONS:
        reps = {}
        g = evaluation_graph(h, ev, representatives=reps)
        want = evaluation_graph(direct, ev)
        assert g.vertices == want.vertices and g.edges() == want.edges(), ev
        assert [c.vertices for c in g.components()] == [c.vertices for c in want.components()], ev
        assert reps.keys() == set(g.keys), ev
        assert all(h.key_of(w) == k and evaluation(w, 4) == ev for k, w in reps.items()), ev


@pytest.mark.parametrize("name", [name for name, h in HANDLES.items() if h.image_of])
def test_an_image_keeps_the_ids_of_its_own_saturated_build(name):
    # the image of the finer record's saturation against the record's own
    # necklaces on the same saturation: the same keys, rows and words, in order
    h = handle(name)
    own = dataclasses.replace(h, image_of=None)
    for ev in DIFFERENTIAL_EVALUATIONS + SATURATED_EVALUATIONS:
        if max(ev) < 2:
            continue
        reps, want_reps = {}, {}
        g = evaluation_graph(h, ev, representatives=reps)
        want = evaluation_graph(own, ev, representatives=want_reps)
        assert g.keys == want.keys and g.nbrs == want.nbrs, ev
        assert list(reps.items()) == list(want_reps.items()), ev


def test_a_canonical_form_with_many_words_is_not_kept():
    baxt = handle("baxt")
    cached = shiftgraph._canonical_graph
    cached.cache_clear()
    # 45,360 and 113,400 words: each built when asked, then dropped
    for ev in [(2, 1, 1, 2, 1, 2), (2, 2, 2, 2, 2)]:
        evaluation_graph(baxt, ev)
        assert cached.cache_info().currsize == 0, ev
    # the largest census form (630 words) and (2, 2, 2, 2) (2,520) are kept
    for ev in [(2, 2, 2, 1), (2, 2, 2, 2)]:
        evaluation_graph(baxt, ev)
    assert cached.cache_info().currsize == 2


def test_only_saturations_with_a_count_of_2_are_kept():
    stal = handle("stal")
    cached = shiftgraph._canonical_graph
    cached.cache_clear()
    for ev in [(), (1,), (1, 1, 1), (1, 0, 1)]:
        evaluation_graph(stal, ev)
    assert cached.cache_info().currsize == 0
    # one canonical form serves every evaluation that caps, relabels or
    # mirrors to it, whatever the limit: (1, 2) is the complement of (2, 1)
    for ev, limit in [((2, 1), None), ((3, 1), None), ((12, 1), 13), ((1, 2), None), ((0, 2, 1), None)]:
        evaluation_graph(stal, ev, limit)
    assert cached.cache_info()[:2] == (4, 1)  # hits, misses
    # the total guard runs before the cache
    with pytest.raises(LimitExceededError):
        evaluation_graph(stal, (12, 1))


def test_a_scan_builds_each_canonical_form_once(monkeypatch):
    stal = handle("stal")
    built = []
    build = shiftgraph._build
    monkeypatch.setattr(shiftgraph, "_build", lambda h, ev, *rest: built.append(ev) or build(h, ev, *rest))
    cached = shiftgraph._canonical_graph
    cached.cache_clear()
    report = diameter_scan(stal, 5, 8)
    forms = {shiftgraph._canonical(stal, row.evaluation)[0] for row in report.rows}
    # unused symbols, counts above 2 and mirrors share one build: 32 forms with
    # a count of 2 and 6 with none (the empty one included) for 1,287 rows
    assert sorted(built) == sorted(forms) and len(forms) == 38 and len(report.rows) == 1287
    # a scan holds one form at a time and leaves nothing in the cache
    assert cached.cache_info().currsize == 0
    assert report.render() == diameter_scan(_necklace_engine(stal), 5, 8).render()


#: (finer, coarser): every class of the coarser monoid is a union of classes of the finer
REFINEMENTS = [
    ("plac", "hypo"), ("sylv", "hypo"), ("baxt", "hypo"), ("baxt", "sylv"),
    ("sylv", "taig"), ("stal", "taig"), ("baxt", "taig"),
]


def test_a_quotient_shift_graph_is_the_image_of_the_finer_one():
    """Keying each finer class's word by the coarser record maps the finer graph's
    vertices onto the coarser graph's, and its edges, loops dropped, onto the coarser edges.

    This pits hypo's ``class_graph``, the saturated stal and taig builds and
    the necklace engine against each other.
    """
    built = {}

    def graph(name, ev):
        if (name, ev) not in built:
            reps = {}
            built[name, ev] = evaluation_graph(handle(name), ev, representatives=reps), reps
        return built[name, ev]

    def is_image(finer, coarser, ev):
        (g, reps), (q, _) = graph(finer, ev), graph(coarser, ev)
        key_of = handle(coarser).key_of
        f = {k: key_of(reps[k]) for k in g.keys}
        edges = {tuple(sorted((f[a], f[b]))) for a, b in g.edges() if f[a] != f[b]}
        return set(f.values()) == set(q.vertices) and edges == set(q.edges())

    for ev in [(1,) * 6, (1,) * 7, (2, 2, 1, 1), (3, 1, 2), (2, 2, 2), (1, 2, 1, 2, 1)]:
        for finer, coarser in REFINEMENTS:
            assert is_image(finer, coarser, ev), (finer, coarser, ev)
    # baxt does not refine stal
    assert not is_image("baxt", "stal", (1,) * 6)


def _graph(n, edges):
    adj = {str(v): set() for v in range(n)}
    for a, b in edges:
        adj[str(a)].add(str(b))
        adj[str(b)].add(str(a))
    return from_adjacency("test", 0, (), adj)


def test_diameter_small_graphs():
    assert diameter(_graph(0, [])) == 0
    assert diameter(_graph(1, [])) == 0
    for k in range(1, 8):
        assert diameter(_graph(k, [(i, i + 1) for i in range(k - 1)])) == k - 1
    assert diameter(_graph(5, [(i, (i + 1) % 5) for i in range(5)])) == 2
    # a 4-cycle listed with self-loops, n - 1 entries per vertex: the loops are dropped, it is not complete
    looped = {str(i): {str(j % 4) for j in (i - 1, i, i + 1)} for i in range(4)}
    assert diameter(from_adjacency("test", 0, (), looped)) == 2
    with pytest.raises(ValueError, match="disconnected"):
        diameter(_graph(3, [(0, 1)]))
    with pytest.raises(ValueError, match="disconnected"):
        diameter(_graph(2, []))


def test_diameter_refuses_a_disconnected_view():
    # ids given as an array skip the whole-graph search, so only the rounds'
    # own guard stops them: two separate edges, alone and as a view on a
    # parent with one more vertex, whose rows are renumbered
    edges = [array("I", [1]), array("I", [0]), array("I", [3]), array("I", [2])]
    for nbrs in (edges, edges + [array("I")]):
        keys = [str(i) for i in range(len(nbrs))]
        g = ShiftGraph("test", 0, (), keys, nbrs, array("I", range(4)))
        with pytest.raises(ValueError, match="disconnected"):
            diameter(g)


def test_diameter_refuses_a_disconnected_graph_before_any_bitset():
    # stal's standard rank-7 graph: 5,040 classes in 720 components, where one
    # bitset per class would take megabytes before the rounds saw the split
    g = evaluation_graph(handle("stal"), (1,) * 7)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="disconnected"):
            diameter(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_distances_from_unknown_vertex_is_a_value_error():
    g = _graph(2, [(0, 1)])
    for search in (lambda: distance(g, "7", "0"), lambda: distance(g, "0", "7"), lambda: g.component_of("7")):
        with pytest.raises(ValueError, match="unknown vertex"):
            search()
    assert "7" not in g.adjacency and g.adjacency.get("7") is None


@st.composite
def small_graphs(draw):
    """Complete, empty, single-vertex and random graphs on up to 8 vertices."""
    n = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs and not draw(st.booleans()):
        pairs = draw(st.lists(st.sampled_from(pairs), unique=True))
    return _graph(n, pairs)


@given(small_graphs())
@settings(deadline=None)
def test_components_share_sets_and_diameters_match_eccentricities(g):
    comps = g.components()
    adj = dict(g.adjacency)
    # a partition of the vertices, ordered by least vertex
    assert sorted(v for c in comps for v in c.adjacency) == g.vertices
    assert [min(c.adjacency) for c in comps] == sorted(min(c.adjacency) for c in comps)
    for c in comps:
        # a component is a view: it holds its parent's keys and arrays, and copies none
        assert c.keys is g.keys and c.nbrs is g.nbrs
        c_adj = dict(c.adjacency)
        for v in c_adj:
            assert c_adj[v] == adj[v]
            assert set(distances_from(adj, v)) == set(c_adj)
        assert diameter(c) == max(max(distances_from(c_adj, v).values()) for v in c_adj)
    if len(comps) > 1:
        with pytest.raises(ValueError, match="disconnected"):
            diameter(g)
    else:
        assert diameter(g) == max((max(distances_from(adj, v).values()) for v in adj), default=0)
    for a in adj:
        dist = distances_from(adj, a)
        for b in adj:
            if b in dist:
                assert distance(g, a, b) == dist[b]
            else:
                with pytest.raises(ValueError, match="not connected"):
                    distance(g, a, b)
