import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance_pool

from pcgraph import build
from pcgraph.core import ColoredCompleteGraph
from pcgraph.cycles import (
    AttachmentKind,
    Cycle,
    _try_lengthen,
    classify_attachment,
    enumerate_pc_cycles,
    find_pc_quadrangle,
    has_pc_cycle,
    insert_into_pc_cycle,
    is_pc_cycle,
    is_pc_path,
    pc_hamilton_path,
    pc_quadrangle_search,
)
from pcgraph.detect import find_monochromatic_triangle
from pcgraph.errors import (
    BadLength,
    MonochromaticTrianglePresent,
    PreconditionViolated,
    RepeatedVertex,
    TooSmall,
    UnknownVertex,
    VertexOnCycle,
)
from pcgraph.families import exhaustive_colorings, gallai_coloring, random_no_mono_triangle
from pcgraph.oracles import pc_cycles_by_permutation


def test_cycle_navigation():
    c = Cycle((3, 1, 4, 0))
    assert c.succ(3) == 1 and c.pred(3) == 0
    assert c.canonical().vertices == (0, 3, 1, 4)


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
        # bool is an int, so True is vertex 1
        ((True, 1, 2), RepeatedVertex, "repeated vertex in [True, 1, 2]"),
        ((True, 2, 3), None, None),
    ],
)
def test_sequence_checks_pin_errors(double_pentagon, seq, error, message):
    for predicate in (is_pc_cycle, is_pc_path):
        if error is None:
            plain = tuple(int(v) for v in seq)
            assert predicate(double_pentagon, seq) == predicate(double_pentagon, plain)
            continue
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
    assert Cycle((0, 1, 4, 3)).canonical() in quads
    with pytest.raises(BadLength):
        enumerate_pc_cycles(double_pentagon, 0, 6)


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
            mine = {c.vertices for c in enumerate_pc_cycles(g, v, ln)}
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
                    assert found.canonical() in listed
                    hits += 1
    assert hits > 0 and misses > 0


def test_quadrangle_search_is_the_unrolled_walk():
    # pc_quadrangle_search must return exactly the walk's first 4-cycle
    graphs = [g for g in exhaustive_colorings(4) if find_monochromatic_triangle(g) is None]
    mono_free_k5 = (g for g in exhaustive_colorings(5) if find_monochromatic_triangle(g) is None)
    graphs += itertools.islice(mono_free_k5, 0, None, 7)
    for n in range(6, 17):
        for seed in range(20):
            graphs.append(gallai_coloring(n, seed)[0])
            graphs.append(random_no_mono_triangle(n, 4 + seed % 3, seed))
    misses = 0
    for g in graphs:
        for v in range(g.n):
            quad = pc_quadrangle_search(g, v)
            assert quad == has_pc_cycle(g, v, 4)
            misses += quad is None
    assert len(graphs) > 11000 and misses > 0


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
        sub = ColoredCompleteGraph._from_dense(
            k + 1, [[m[a][b] for b in order] for a in order], g._palette
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
    c = Cycle((0, 1, 2))
    grown = insert_into_pc_cycle(rainbow_k4, c, 3)
    assert grown is not None and is_pc_cycle(rainbow_k4, grown)
    assert set(grown.vertices) == {0, 1, 2, 3}


def test_classify_attachment_single_color():
    # quadrangle colored 1,2,1,2; the outside vertex sees color 5 everywhere
    edges = [
        (0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2),
        (0, 2, 3), (1, 3, 3),
        (0, 4, 5), (1, 4, 5), (2, 4, 5), (3, 4, 5),
    ]
    g = build(5, edges)
    res = classify_attachment(g, Cycle((0, 1, 2, 3)), 4)
    assert res.kind is AttachmentKind.SINGLE_COLOR and res.color == 5


def test_classify_attachment_extendable_beyond_insertion():
    # col(4, u) copies col(u, u+) around 0->1->2->3->0, which kills every
    # insertion point, yet a PC cycle on all five vertices still exists; the
    # exact-set fallback must find it
    edges = [
        (0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2),
        (0, 2, 3), (1, 3, 3),
        (0, 4, 1), (1, 4, 2), (2, 4, 1), (3, 4, 2),
    ]
    g = build(5, edges)
    cyc = Cycle((0, 1, 2, 3))
    assert insert_into_pc_cycle(g, cyc, 4) is None
    res = classify_attachment(g, cyc, 4)
    assert res.kind is AttachmentKind.EXTENDABLE
    assert set(res.cycle.vertices) == {0, 1, 2, 3, 4}
    assert is_pc_cycle(g, res.cycle)


def test_classify_attachment_rejects_cycle_vertices_outside_graph():
    g = random_no_mono_triangle(6, 3, 0)
    for cycle in (Cycle((0, 1, 2, 9)), Cycle((0, 1, 2, -1))):
        with pytest.raises(UnknownVertex):
            classify_attachment(g, cycle, 4)


def test_classify_attachment_double_pentagon(double_pentagon):
    res = classify_attachment(double_pentagon, Cycle((0, 1, 4, 3)), 2)
    assert res.kind is AttachmentKind.ALL_PREDECESSOR
    rev = classify_attachment(double_pentagon, Cycle((0, 3, 4, 1)), 2)
    assert rev.kind is AttachmentKind.ALL_SUCCESSOR
    with pytest.raises(VertexOnCycle):
        classify_attachment(double_pentagon, Cycle((0, 1, 4, 3)), 0)


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
                    assert set(res.cycle.vertices) == set(cyc.vertices) | {w}
                    assert is_pc_cycle(g, res.cycle)
                    continue
                # the three non-extendable patterns are mutually exclusive
                single = len({g.color(w, u) for u in cyc}) == 1
                pred = all(g.color(w, u) == g.color(u, cyc.pred(u)) for u in cyc)
                succ = all(g.color(w, u) == g.color(u, cyc.succ(u)) for u in cyc)
                assert single + pred + succ == 1
                target = tuple(sorted(set(cyc.vertices) | {w}))
                covering = [
                    c
                    for c in enumerate_pc_cycles(g, w, ln + 1)
                    if tuple(sorted(c.vertices)) == target
                ]
                assert covering == []
    assert checked > 300


def test_quadrangle_search_examples(rainbow_k4, double_pentagon):
    got = pc_quadrangle_search(rainbow_k4, 0)
    assert got is not None and is_pc_cycle(rainbow_k4, got)
    for v in range(5):
        quad = find_pc_quadrangle(double_pentagon, v)
        assert v in quad and len(quad) == 4 and is_pc_cycle(double_pentagon, quad)


def test_find_pc_quadrangle_preconditions(directed_example, mono_k3):
    with pytest.raises(PreconditionViolated, match="non-degenerate"):
        find_pc_quadrangle(directed_example, 0)
    mono_k4 = build(4, [(u, v, 1) for u, v in itertools.combinations(range(4), 2)])
    with pytest.raises(PreconditionViolated, match="mono"):
        find_pc_quadrangle(mono_k4, 0)
    with pytest.raises(PreconditionViolated, match="size"):
        find_pc_quadrangle(mono_k3, 0)


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
