"""Class counts, symmetries and observed Baxter values of the shift graphs.

The class counts are checked against closed formulas that form no word; the
symmetries against the keys of every word of an evaluation; the Baxter
values are observations, not laws of the paper.
"""

import dataclasses
from math import comb, factorial

import pytest

from cycshift.handles import HANDLES, handle
from cycshift.shiftgraph import diameter, evaluation_graph, full_support_evaluations
from cycshift.words import complement, reverse_complement, words_with_evaluation


def involutions(n):
    a, b = 1, 1  # a(0), a(1); a(n) = a(n-1) + (n-1) a(n-2)
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def baxter(n):
    m = n + 1
    return sum(comb(m, k - 1) * comb(m, k) * comb(m, k + 1) for k in range(1, n + 1)) // (m * comb(m, 2))


#: the class count of a standard evaluation of rank n
STANDARD_COUNTS = {
    "plac": involutions,
    "hypo": lambda n: 2 ** (n - 1),
    "sylv": catalan,
    "stal": factorial,
    "taig": catalan,
    "baxt": baxter,
}

#: the class count of any evaluation with k symbols
SUPPORT_COUNTS = {"hypo": lambda k: 2 ** (k - 1), "stal": factorial, "taig": catalan}


def test_the_formulas_start_as_published():
    assert [involutions(n) for n in range(1, 8)] == [1, 2, 4, 10, 26, 76, 232]
    assert [catalan(n) for n in range(1, 8)] == [1, 2, 5, 14, 42, 132, 429]
    assert [baxter(n) for n in range(1, 8)] == [1, 2, 6, 22, 92, 422, 2074]


@pytest.mark.parametrize("name", sorted(STANDARD_COUNTS))
def test_standard_class_counts(name):
    h = handle(name)
    for n in range(1, 8):
        assert len(evaluation_graph(h, (1,) * n).keys) == STANDARD_COUNTS[name](n), n


@pytest.mark.parametrize("name", sorted(SUPPORT_COUNTS))
def test_full_support_class_counts(name):
    # stal's and taig's evaluations with a repeated symbol come from the shared
    # saturations, taig's as the image of stal's
    h = handle(name)
    for rank in range(1, 5):
        for ev in full_support_evaluations(rank, 8):
            assert len(evaluation_graph(h, ev).keys) == SUPPORT_COUNTS[name](rank), ev


# ---------------------------------------------------------------------------
# symmetries


def respects(h, symmetry, ev):
    """Whether ``symmetry`` sends every class of ``ev`` into one class.

    When it does, it must also map the graph of ``ev`` isomorphically onto the
    graph of ``ev`` reversed, which holds the symmetric images; both graphs
    are built from their own necklaces, not served through ``h.mirror``.
    """
    rank, f = len(ev), {}
    for w in words_with_evaluation(ev):
        image = h.key_of(symmetry(w, rank))
        if f.setdefault(h.key_of(w), image) != image:
            return False
    direct = dataclasses.replace(h, class_graph=None, saturates=False, image_of=None, mirror=None)
    g, q = evaluation_graph(direct, ev), evaluation_graph(direct, ev[::-1])
    assert sorted(f.values()) == q.vertices, (h.name, ev)
    assert sorted(tuple(sorted((f[a], f[b]))) for a, b in g.edges()) == q.edges(), (h.name, ev)
    return True


MONOIDS = ("plac", "hypo", "sylv", "stal", "taig", "baxt")


def mirrored_by(symmetry):
    """The records whose ``mirror`` is ``symmetry``: the engine serves each evaluation's reverse through it."""
    return {name for name in MONOIDS if HANDLES[name].mirror is symmetry}


def test_an_image_shares_the_mirror_of_its_finer_record():
    # so both records serve an evaluation from the same canonical form
    for h in HANDLES.values():
        if h.image_of is not None:
            assert h.mirror is HANDLES[h.image_of].mirror, h.name


@pytest.mark.parametrize(
    ("ev", "by_reverse_complement", "by_complement"),
    [
        # with repeated symbols each record's mirror is the one map that respects it
        *(
            (ev, mirrored_by(reverse_complement), mirrored_by(complement))
            for ev in [(2, 1, 2), (1, 2, 2), (2, 2, 1, 1), (2, 2, 2)]
        ),
        # on standard words complement respects every record, sylv included
        *(((1,) * n, {"plac", "hypo", "stal", "baxt"}, set(MONOIDS)) for n in (5, 6)),
    ],
)
def test_symmetries_that_respect_each_congruence(ev, by_reverse_complement, by_complement):
    assert {name for name in MONOIDS if respects(HANDLES[name], reverse_complement, ev)} == by_reverse_complement
    assert {name for name in MONOIDS if respects(HANDLES[name], complement, ev)} == by_complement


# ---------------------------------------------------------------------------
# Baxter: observed values, not laws


def test_observed_baxter_components_and_diameters():
    baxt = handle("baxt")
    counts, diameters = [], []
    for n in range(2, 8):
        comps = evaluation_graph(baxt, (1,) * n).components()
        counts.append(len(comps))
        diameters.append(max(map(diameter, comps)))
    assert counts == [2 ** (n - 2) for n in range(2, 8)]
    assert diameters == [1, 1, 2, 3, 3, 3]
    assert max(map(diameter, evaluation_graph(baxt, (1, 2, 2, 2)).components())) == 5
