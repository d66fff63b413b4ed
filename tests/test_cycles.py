import copy
import gc
import itertools
import pickle
import random
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance_pool

from pcgraph import build
from pcgraph.core import ColoredCompleteGraph
from pcgraph.cycles import (
    AttachmentKind,
    _canonical,
    _induced,
    _try_lengthen,
    _window_covers,
    _WindowCovers,
    classify_attachment,
    enumerate_pc_cycles,
    has_pc_cycle,
    insert_into_pc_cycle,
    is_pc_cycle,
    is_pc_path,
    pc_hamilton_path,
    pc_quadrangle_search,
)
from pcgraph.detect import DegeneracyTag, degeneracy_status, find_monochromatic_triangle
from pcgraph.errors import (
    BadLength,
    MonochromaticTrianglePresent,
    PCGraphError,
    PreconditionViolated,
    RepeatedVertex,
    TooSmall,
    UnknownVertex,
    VertexOnCycle,
)
from pcgraph.families import exhaustive_colorings, gallai_coloring, random_no_mono_triangle
from pcgraph.trichotomy import classify
from pcgraph.oracles import pc_cycles_by_permutation


def test_cycle_navigation(double_pentagon):
    # a cycle is its vertex tuple: _canonical rotates the smallest vertex
    # first and turns toward its smaller neighbor, and classify_attachment
    # reads each vertex's predecessor and successor by index, around the end
    assert _canonical((3, 1, 4, 0)) == (0, 3, 1, 4)
    for vs in ((0, 1, 4, 3), (1, 4, 3, 0), (3, 0, 1, 4)):
        pred = classify_attachment(double_pentagon, vs, 2)
        succ = classify_attachment(double_pentagon, vs[::-1], 2)
        assert pred.kind is AttachmentKind.ALL_PREDECESSOR
        assert succ.kind is AttachmentKind.ALL_SUCCESSOR


def test_cycle_checks_membership_and_navigation():
    # classify_attachment checks the cycle it is given: its vertices and
    # their repeats, its length, then whether the outside vertex lies on it
    g = random_no_mono_triangle(8, 4, 0)
    with pytest.raises(BadLength, match=r"^cycles need >= 3 vertices, got 2$"):
        classify_attachment(g, (0, 1), 4)
    with pytest.raises(RepeatedVertex, match=r"^repeated vertex in \[2, 5, 2\]$"):
        classify_attachment(g, [2, 5, 2], 4)
    # an iterator is consumed once, so the message names the stored tuple
    with pytest.raises(RepeatedVertex, match=r"^repeated vertex in \[1, 2, 1\]$"):
        classify_attachment(g, (v for v in (1, 2, 1)), 4)
    c = (3, 1, 4, 0, 6)
    for v in c:
        with pytest.raises(VertexOnCycle, match=f"^{v} lies on the cycle$"):
            classify_attachment(g, c, v)
    for off in (True, 4.0, [3], None):
        with pytest.raises(UnknownVertex):
            classify_attachment(g, c, off)
    turns = [c[i:] + c[:i] for i in range(5)]
    assert {_canonical(vs) for vs in turns + [vs[::-1] for vs in turns]} == {(0, 4, 1, 3, 6)}


def test_is_pc_cycle_examples(double_pentagon, rainbow_k4):
    assert is_pc_cycle(double_pentagon, (0, 1, 4, 3))  # colors 1,2,1,2
    assert not is_pc_cycle(double_pentagon, (0, 1, 2))  # consecutive color 1
    assert is_pc_cycle(rainbow_k4, (0, 1, 2))
    assert not is_pc_cycle(rainbow_k4, (0, 1))  # too short


def test_pc_predicates_validate_input(double_pentagon):
    with pytest.raises(UnknownVertex):
        is_pc_cycle(double_pentagon, (0, 1, 9))
    with pytest.raises(RepeatedVertex):
        is_pc_path(double_pentagon, (0, 1, 0))


@pytest.mark.parametrize(
    "seq, error, message",
    [
        ((0, 1, 9), UnknownVertex, "vertex 9 not in 0..4"),
        ((0, -1, 2), UnknownVertex, "vertex -1 not in 0..4"),
        ((0, "1", 2), UnknownVertex, "vertex '1' not in 0..4"),
        ((0, 1.0, 2), UnknownVertex, "vertex 1.0 not in 0..4"),
        ((0, [1], 2), UnknownVertex, "vertex [1] not in 0..4"),
        # an unknown vertex is reported before an earlier repeat
        ((0, 0, 99), UnknownVertex, "vertex 99 not in 0..4"),
        ((0, 1, 0), RepeatedVertex, "repeated vertex in [0, 1, 0]"),
        # a bool is no int, so True is no vertex, repeated or not
        ((True, 1, 2), UnknownVertex, "vertex True not in 0..4"),
        ((True, 2, 3), UnknownVertex, "vertex True not in 0..4"),
    ],
)
def test_sequence_checks_pin_errors(double_pentagon, seq, error, message):
    for predicate in (is_pc_cycle, is_pc_path):
        with pytest.raises(error) as err:
            predicate(double_pentagon, seq)
        assert str(err.value) == message


def test_is_pc_path(double_pentagon):
    assert is_pc_path(double_pentagon, (0, 1))  # single edge
    assert is_pc_path(double_pentagon, (2, 0, 1))  # colors 2 then 1
    assert not is_pc_path(double_pentagon, (0, 1, 2))  # colors 1,1


def test_enumerate_counts_rainbow(rainbow_k4):
    cycles = enumerate_pc_cycles(rainbow_k4, 0, 4)
    assert len(cycles) == 3  # the three Hamiltonian cycles of K4
    for c in cycles:
        assert is_pc_cycle(rainbow_k4, c)


def test_enumerate_double_pentagon(double_pentagon):
    assert enumerate_pc_cycles(double_pentagon, 0, 5) == []
    quads = enumerate_pc_cycles(double_pentagon, 0, 4)
    assert _canonical((0, 1, 4, 3)) in quads
    for bad in (6, 4.5, 4.0, "4"):
        with pytest.raises(BadLength):
            enumerate_pc_cycles(double_pentagon, 0, bad)
        with pytest.raises(BadLength):
            has_pc_cycle(double_pentagon, 0, bad)


def test_enumerate_matches_naive_oracle():
    rng = random.Random(17)
    for trial in range(40):
        n = rng.randint(4, 6)
        k = rng.randint(2, 5)
        g = build(
            n,
            [(u, v, rng.randrange(k)) for u, v in itertools.combinations(range(n), 2)],
        )
        v = rng.randrange(n)
        for ln in range(3, n + 1):
            mine = set(enumerate_pc_cycles(g, v, ln))
            naive = pc_cycles_by_permutation(g, v, ln)
            assert mine == naive, (trial, n, ln)


def test_has_pc_cycle_agrees_with_enumeration(double_pentagon):
    graphs = [double_pentagon] + random_instance_pool(30, sizes=(4, 5, 6, 7), seed=23)
    hits = misses = 0
    for g in graphs:
        for v in range(g.n):
            for ln in range(3, g.n + 1):
                found = has_pc_cycle(g, v, ln)
                listed = enumerate_pc_cycles(g, v, ln)
                if found is None:
                    assert listed == []
                    misses += 1
                else:
                    assert v in found and len(found) == ln and is_pc_cycle(g, found)
                    assert _canonical(found) in listed
                    hits += 1
    assert hits > 0 and misses > 0


def test_hamilton_path_examples(double_pentagon, mono_k3):
    path = pc_hamilton_path(double_pentagon)
    assert len(path) == 5 and is_pc_path(double_pentagon, path)
    with pytest.raises(MonochromaticTrianglePresent):
        pc_hamilton_path(mono_k3)
    assert pc_hamilton_path(build(2, [(0, 1, 3)])) in ((0, 1), (1, 0))
    with pytest.raises(TooSmall):
        pc_hamilton_path(build(1, []))


def test_hamilton_path_random_instances():
    pool = random_instance_pool(120, sizes=(4, 5, 6, 7, 8), seed=99)
    for g in pool:
        path = pc_hamilton_path(g)
        assert len(path) == g.n and len(set(path)) == g.n
        assert is_pc_path(g, path)


def _random_pc_path(g, rng):
    """PC path of 2..n-1 vertices grown by a random walk."""
    m = g._m
    target = rng.randint(2, g.n - 1)
    path = [rng.randrange(g.n)]
    while len(path) < target:
        steps = [
            w
            for w in range(g.n)
            if w not in path and (len(path) < 2 or m[path[-1]][w] != m[path[-2]][path[-1]])
        ]
        if not steps:
            break
        path.append(rng.choice(steps))
    return tuple(path)


def _absorbs_every_outside_vertex(g, path):
    """Count of outside vertices _try_lengthen took by insertion, not at an end.

    Each outside vertex w is offered alone: on the subgraph induced by the
    path plus w, relabeled so the path reads 0..k-1 and w is k.
    """
    m = g._m
    k = len(path)
    inserted = 0
    for w in range(g.n):
        if w in path:
            continue
        order = path + (w,)
        sub = ColoredCompleteGraph(
            k + 1, tuple(tuple(m[a][b] for b in order) for a in order), g._palette
        )
        longer = _try_lengthen(sub, tuple(range(k)))
        assert sorted(longer) == list(range(k + 1)) and is_pc_path(sub, longer)
        inserted += longer[0] != k and longer[-1] != k
    return inserted


def test_pc_path_absorbs_every_vertex():
    # greedy absorption takes any outside vertex into any PC path of a
    # mono-triangle-free graph, not only the paths pc_hamilton_path builds
    rng = random.Random(7)
    inserted = 0
    for g in exhaustive_colorings(5):
        if find_monochromatic_triangle(g) is None:
            inserted += _absorbs_every_outside_vertex(g, _random_pc_path(g, rng))
    for g in random_instance_pool(300, sizes=(6, 8, 10, 12), seed=17, k_choices=(4, 5, 6)):
        for _ in range(5):
            inserted += _absorbs_every_outside_vertex(g, _random_pc_path(g, rng))
    assert inserted > 0


def test_insert_into_pc_cycle(rainbow_k4):
    grown = insert_into_pc_cycle(rainbow_k4, (0, 1, 2), 3)
    assert grown is not None and is_pc_cycle(rainbow_k4, grown)
    assert set(grown) == {0, 1, 2, 3}


def test_insert_into_pc_cycle_on_every_pc_cycle():
    # on every PC cycle of random mono-free K7 and K8 colorings, each outside
    # vertex gives None or the cycle with that vertex inserted, which is PC
    grown = missed = 0
    for n, k, seed in ((7, 3, 0), (7, 4, 1), (7, 5, 2), (8, 3, 3), (8, 4, 4), (8, 5, 5)):
        g = random_no_mono_triangle(n, k, seed)
        for length in range(3, n):
            for v in range(n):
                for cyc in enumerate_pc_cycles(g, v, length):
                    if cyc[0] != v:
                        continue  # listed once, from its smallest vertex
                    for w in set(range(n)).difference(cyc):
                        got = insert_into_pc_cycle(g, cyc, w)
                        if got is None:
                            missed += 1
                            continue
                        assert is_pc_cycle(g, got), (n, seed, cyc, w)
                        assert tuple(u for u in got if u != w) == cyc
                        grown += 1
    assert grown > 0 and missed > 0, (grown, missed)


def test_classify_attachment_single_color():
    # quadrangle colored 1,2,1,2; the outside vertex sees color 5 everywhere
    edges = [
        (0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2),
        (0, 2, 3), (1, 3, 3),
        (0, 4, 5), (1, 4, 5), (2, 4, 5), (3, 4, 5),
    ]
    g = build(5, edges)
    res = classify_attachment(g, (0, 1, 2, 3), 4)
    assert res.kind is AttachmentKind.SINGLE_COLOR and res.color == 5


def test_classify_attachment_extendable_beyond_insertion():
    # col(4, u) copies col(u, u+) around 0->1->2->3->0, which kills every
    # insertion point, yet a PC cycle on all five vertices still exists;
    # classifying G[V(C)+4] must find it
    edges = [
        (0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2),
        (0, 2, 3), (1, 3, 3),
        (0, 4, 1), (1, 4, 2), (2, 4, 1), (3, 4, 2),
    ]
    g = build(5, edges)
    cyc = (0, 1, 2, 3)
    assert insert_into_pc_cycle(g, cyc, 4) is None
    res = classify_attachment(g, cyc, 4)
    assert res.kind is AttachmentKind.EXTENDABLE
    assert set(res.cycle) == {0, 1, 2, 3, 4}
    assert is_pc_cycle(g, res.cycle)


def test_classify_attachment_rejects_cycle_vertices_outside_graph():
    g = random_no_mono_triangle(6, 3, 0)
    for cycle in ((0, 1, 2, 9), (0, 1, 2, -1)):
        with pytest.raises(UnknownVertex):
            classify_attachment(g, cycle, 4)
    # the vertex is checked before membership, so an unhashable one is named
    for v in (6, -1, 1.5, "4", None, [1]):
        with pytest.raises(UnknownVertex):
            classify_attachment(g, (0, 1, 2, 3), v)


def test_classify_attachment_double_pentagon(double_pentagon):
    res = classify_attachment(double_pentagon, (0, 1, 4, 3), 2)
    assert res.kind is AttachmentKind.ALL_PREDECESSOR
    rev = classify_attachment(double_pentagon, (0, 3, 4, 1), 2)
    assert rev.kind is AttachmentKind.ALL_SUCCESSOR
    with pytest.raises(VertexOnCycle):
        classify_attachment(double_pentagon, (0, 1, 4, 3), 0)


def test_classify_attachment_takes_any_vertex_sequence(double_pentagon):
    # a tuple, a list and an iterator of the same vertices give equal results,
    # and a sequence that is no cycle still raises the package's error
    g = random_no_mono_triangle(8, 4, 0)
    cases = [(double_pentagon, (0, 1, 4, 3), 2), (double_pentagon, (0, 3, 4, 1), 2)]
    for ln in (4, 5, 7):
        cyc = enumerate_pc_cycles(g, 0, ln)[0]
        cases += [(g, cyc, w) for w in range(g.n) if w not in cyc]
    kinds = set()
    for h, vs, w in cases:
        res = classify_attachment(h, vs, w)
        assert res == classify_attachment(h, list(vs), w) == classify_attachment(h, iter(vs), w)
        kinds.add(res.kind)
    assert len(kinds) > 1
    for bad in ((0, 1), [0], (), (0, 1, 0, 3)):
        with pytest.raises(PCGraphError):
            classify_attachment(g, bad, 4)


def test_classify_attachment_rejects_a_cycle_that_is_not_pc():
    # without the check, the first gave EXTENDABLE with the non-PC witness
    # (0, 5, 6, 4, 3), and the second raised the InternalError alarm
    for g, cycle, v in (
        (random_no_mono_triangle(7, 3, 1), (0, 5, 4, 3), 6),
        (gallai_coloring(8, 39)[0], (5, 4, 3), 0),
    ):
        assert not is_pc_cycle(g, cycle)
        with pytest.raises(PreconditionViolated, match=r"is not a PC cycle$") as err:
            classify_attachment(g, cycle, v)
        assert err.value.which == "properly-colored"


def test_classify_attachment_on_random_cycles():
    # random vertex sequences, most not PC, and PC cycles from the walk:
    # a non-PC one is rejected, and every EXTENDABLE witness is a PC cycle
    # on the cycle's vertices and the outside one
    rng = random.Random(8)
    graphs = [random_no_mono_triangle(8, 3 + i % 3, i) for i in range(10)]
    graphs += [gallai_coloring(8, i)[0] for i in range(10)]
    rejected = witnesses = 0
    for g in graphs:
        for _ in range(30):
            ln = rng.randrange(3, g.n)
            cycle = tuple(rng.sample(range(g.n), ln))
            if rng.random() < 0.5:
                cycle = rng.choice(enumerate_pc_cycles(g, cycle[0], ln) or [cycle])
            v = rng.choice([w for w in range(g.n) if w not in cycle])
            if not is_pc_cycle(g, cycle):
                with pytest.raises(PreconditionViolated):
                    classify_attachment(g, cycle, v)
                rejected += 1
                continue
            res = classify_attachment(g, cycle, v)
            if res.kind is AttachmentKind.EXTENDABLE:
                assert sorted(res.cycle) == sorted(cycle + (v,))
                assert is_pc_cycle(g, res.cycle)
                witnesses += 1
    assert rejected > 100 and witnesses > 100


def _extendable_by_search(g, cycle, w):
    """Reference decider: DFS for a PC Hamilton cycle of G[V(cycle)+w]."""
    vs = cycle + (w,)
    return has_pc_cycle(_induced(g, vs), 0, len(vs)) is not None


def test_classify_attachment_agrees_with_search_on_k5():
    # every 8th mono-free K5 coloring, each PC quadrangle through vertex 0
    # with its one outside vertex: classify_attachment decides extendability
    # as the Hamilton-cycle DFS does, and its witness is a PC pentagon
    mono_free = (g for g in exhaustive_colorings(5) if find_monochromatic_triangle(g) is None)
    pairs = beyond = stuck = 0
    for g in itertools.islice(mono_free, 0, None, 8):
        for cyc in enumerate_pc_cycles(g, 0, 4):
            (w,) = set(range(5)) - set(cyc)
            res = classify_attachment(g, cyc, w)
            extendable = res.kind is AttachmentKind.EXTENDABLE
            assert extendable == _extendable_by_search(g, cyc, w)
            if extendable:
                assert sorted(res.cycle) == list(range(5)) and is_pc_cycle(g, res.cycle)
                beyond += insert_into_pc_cycle(g, cyc, w) is None
            pairs += 1
            stuck += not extendable
    assert (pairs, beyond, stuck) == (66208, 153, 126)


def test_classify_attachment_single_color_13_cycle():
    # a PC 13-cycle plus a vertex whose edges to it all carry one fresh
    # color: no insertion fits and no PC 14-cycle exists.  {13} is a proper
    # degenerate set of G[V(C)+13], so classify answers at once, where the
    # Hamilton-cycle DFS grows about 8x per cycle vertex and ran for minutes
    base = random_no_mono_triangle(13, 8, 0)
    cyc = classify(base).cycles[13][0]
    fresh = max(base.palette) + 1
    g = build(14, list(base.edges()) + [(u, 13, fresh) for u in range(13)])
    res = classify_attachment(g, cyc, 13)
    assert res.kind is AttachmentKind.SINGLE_COLOR and res.color == fresh


def test_classify_attachment_trichotomy_random():
    # every (cycle, outside vertex) pair must land in exactly one case, and
    # non-extendable tags must mean the oracle finds no covering cycle
    pool = random_instance_pool(150, sizes=(5, 6, 7, 8), seed=41)
    rng = random.Random(4)
    checked = 0
    for g in pool:
        v = rng.randrange(g.n)
        for ln in range(4, g.n):
            cycles = enumerate_pc_cycles(g, v, ln)
            if not cycles:
                continue
            cyc = cycles[0]
            outside = [w for w in range(g.n) if w not in cyc]
            for w in outside:
                res = classify_attachment(g, cyc, w)
                checked += 1
                if res.kind is AttachmentKind.EXTENDABLE:
                    assert set(res.cycle) == set(cyc) | {w}
                    assert is_pc_cycle(g, res.cycle)
                    continue
                # the three non-extendable patterns are mutually exclusive
                single = len({g.color(w, u) for u in cyc}) == 1
                pred = all(g.color(w, u) == g.color(u, cyc[i - 1]) for i, u in enumerate(cyc))
                succ = all(g.color(w, u) == g.color(u, cyc[(i + 1) % ln]) for i, u in enumerate(cyc))
                assert single + pred + succ == 1
                target = tuple(sorted(set(cyc) | {w}))
                covering = [
                    c
                    for c in enumerate_pc_cycles(g, w, ln + 1)
                    if tuple(sorted(c)) == target
                ]
                assert covering == []
    assert checked > 300


def test_quadrangle_search_examples(rainbow_k4, double_pentagon):
    got = pc_quadrangle_search(rainbow_k4, 0)
    assert got is not None and is_pc_cycle(rainbow_k4, got)
    # the double pentagon is non-degenerate and has no monochromatic
    # triangle, so a PC quadrangle runs through every vertex
    for v in range(5):
        quad = pc_quadrangle_search(double_pentagon, v)
        assert quad is not None
        assert v in quad and len(quad) == 4 and is_pc_cycle(double_pentagon, quad)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pc_cycle_rotation_reflection_invariance(data):
    n = data.draw(st.integers(min_value=4, max_value=6))
    colors = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    g = build(
        n,
        [(u, v, c) for (u, v), c in zip(itertools.combinations(range(n), 2), colors)],
    )
    seq = data.draw(st.permutations(range(n)))
    seq = tuple(seq[: data.draw(st.integers(min_value=3, max_value=n))])
    base = is_pc_cycle(g, seq)
    for shift in range(len(seq)):
        rotated = seq[shift:] + seq[:shift]
        assert is_pc_cycle(g, rotated) == base
        assert is_pc_cycle(g, tuple(reversed(rotated))) == base


def test_window_covers_cut_windows_and_build_only_where_none_holds():
    # a toy Hamilton cycle, a seam test that answers each pair at random
    # (the same way every time) and records it, and a builder that grows
    # random vertex tuples and records every call.  Each cover entry is a
    # window whose seam was accepted or a build result; a build runs only
    # for an uncovered position that no window holds, with cur None at
    # L = 4 and else the first (L-1)-cycle of the cover through u
    windows = builds = 0
    for n in range(4, 17):
        for q in (0.0, 0.3, 1.0):
            rng = random.Random(n)
            ham = tuple(rng.sample(range(n), n))
            twice = ham + ham
            seams = {}
            accepted = set()
            calls = []

            def closes(a, b):
                ok = seams.setdefault((a, b), rng.random() < q)
                if ok:
                    accepted.add((a, b))
                return ok

            def build(cur, u, ln):
                if cur is None:
                    cyc = tuple([u] + rng.sample([w for w in range(n) if w != u], 3))
                else:
                    assert u in cur and len(cur) == ln - 1
                    w = rng.choice([w for w in range(n) if w not in cur])
                    i = rng.randrange(ln)
                    cyc = cur[:i] + (w,) + cur[i:]
                calls.append((cur, u, ln, cyc))
                return cyc

            covers = _window_covers(ham, closes, build)
            assert list(covers) == list(range(4, n + 1))
            assert covers[n] == (ham,)
            built = {id(call[3]) for call in calls}
            for ln, cover in covers.items():
                assert set().union(*cover) == set(range(n))
                if ln == n:
                    continue
                for cyc in cover:
                    if id(cyc) in built:
                        builds += 1
                    else:
                        start = ham.index(cyc[0])
                        assert cyc == twice[start : start + ln]
                        assert (cyc[-1], cyc[0]) in accepted
                        windows += 1
            for cur, u, ln, cyc in calls:
                cover = covers[ln]
                k = next(i for i, c in enumerate(cover) if c is cyc)
                assert u not in set().union(*cover[:k])
                p = ham.index(u)
                # every run of ln positions holding p has a seam that fails
                for s in range(p - ln + 1, p + 1):
                    first, last = ham[s % n], ham[(s + ln - 1) % n]
                    assert seams[(last, first)] is False
                if ln == 4:
                    assert cur is None
                else:
                    assert cur is next(c for c in covers[ln - 1] if u in c)
    assert windows > 0 and builds > 0


def test_window_covers_read_as_the_plain_dict_they_stand_for():
    # the window form is a read-only Mapping of L -> tuple of L's cycles:
    # one length at a time or whole, in order 4..n whatever was read first,
    # equal to the plain dict it stands for, and copied or pickled as a form
    n = 12
    rng = random.Random(5)
    ham = tuple(rng.sample(range(n), n))
    twice = ham + ham

    def build(cur, u, ln):
        return tuple([u] + [w for w in ham if w != u][: ln - 1])

    for q in (0.0, 0.5, 1.0):

        def closes(a, b, q=q):
            return (a * 7 + b * 3) % 10 < 10 * q

        covers = _window_covers(ham, closes, build)
        want = {
            ln: tuple(
                [twice[e : e + ln] if type(e) is int else e for e in covers.entries[ln - 4]]
            )
            for ln in range(4, n + 1)
        }
        assert isinstance(covers, Mapping) and not isinstance(covers, dict)
        assert len(covers) == n - 3 and 4 in covers and n in covers
        assert 3 not in covers and n + 1 not in covers and "4" not in covers and True not in covers
        assert covers.get(3) is None and covers.get(n + 1, ()) == ()
        for missing in (n + 1, 4.0, True):
            with pytest.raises(KeyError):
                covers[missing]
        assert covers[n] == (ham,) and covers[n][0] is ham
        assert covers[7] == want[7] and covers.get(5) == want[5]
        assert list(covers) == list(range(4, n + 1))
        assert covers == want and want == covers and not covers != want and not want != covers
        assert dict(covers) == want and {**covers} == want
        for again in (copy.copy(covers), copy.deepcopy(covers), pickle.loads(pickle.dumps(covers))):
            assert type(again) is _WindowCovers and again == want and again == covers
        with pytest.raises(TypeError):
            covers[4] = ()
        with pytest.raises(TypeError):
            del covers[4]
        for mutator in ("update", "setdefault", "pop", "popitem", "clear"):
            assert not hasattr(covers, mutator), mutator
        assert covers == want and list(covers.items()) == list(want.items())
        # every length read on its own, last first, still iterates 4..n
        backwards = _window_covers(ham, closes, build)
        assert [backwards[ln] for ln in range(n, 3, -1)] == [want[ln] for ln in range(n, 3, -1)]
        assert list(backwards) == list(range(4, n + 1)) and backwards == want


def test_searches_leave_no_cyclic_garbage():
    # the recursive walks (the PC-cycle search, the Gallai generator's fill)
    # drop their self-referencing closures, so generating an instance and a
    # search, an enumeration and a growth-route classify on it leave the
    # cyclic collector nothing to find
    gc.collect()
    g0 = random_no_mono_triangle(10, 5, 0)
    gc.disable()
    try:
        g1, _ = gallai_coloring(16, 0)
        generated = gc.collect()
        for g in (g0, g1):
            assert degeneracy_status(g).tag is DegeneracyTag.NON_DEGENERATE
            has_pc_cycle(g, 0, 5)
            enumerate_pc_cycles(g, 0, 5)
            classify(g)
        searched = gc.collect()
    finally:
        gc.enable()
    assert (generated, searched) == (0, 0)
