import collections
import itertools
import pickle
import random

import pytest

from pcgraph import build, detect, dumps_instance
from pcgraph.detect import (
    DegeneracyTag,
    closure_from_seed,
    degeneracy_status,
    find_monochromatic_triangle,
    find_pc_triangle,
    verify_gallai_partition,
)
from pcgraph.errors import NotAPartition, TooSmall
from pcgraph.families import (
    exhaustive_colorings,
    gallai_coloring,
    random_degenerate,
    random_fibers,
    random_no_mono_triangle,
)
from pcgraph.oracles import brute_degeneracy_tag, pc_cycle_exists_with_edge, proper_degenerate_sets
from pcgraph.tournaments import reduce_degenerate


def test_find_mono_triangle(mono_k3, double_pentagon, rainbow_k4):
    assert find_monochromatic_triangle(mono_k3) == (0, 1, 2)
    assert find_monochromatic_triangle(double_pentagon) is None
    assert find_monochromatic_triangle(rainbow_k4) is None
    with pytest.raises(TooSmall):
        find_monochromatic_triangle(build(2, [(0, 1, 1)]))


def test_find_pc_triangle(rainbow_k4, double_pentagon):
    assert find_pc_triangle(rainbow_k4) == (0, 1, 2)
    assert find_pc_triangle(double_pentagon) is None  # only two colors exist
    g, _ = gallai_coloring(8, seed=3)
    assert find_pc_triangle(g) is None


def test_closure_directed_example(directed_example):
    cert = closure_from_seed(directed_example, 0, 1)
    assert cert is not None
    assert cert.S == frozenset({0, 1, 2})
    assert cert.f == {0: 1, 1: 2, 2: 3}
    assert cert.check(directed_example)


def test_closure_double_pentagon_conflict(double_pentagon):
    assert closure_from_seed(double_pentagon, 0, 1) is None


def test_closure_mono_k3(mono_k3):
    cert = closure_from_seed(mono_k3, 0, 7)
    assert cert is not None and cert.S == frozenset({0}) and cert.f == {0: 7}
    # a color absent from the palette matches no edge, so it forces every
    # other vertex in
    cert = closure_from_seed(mono_k3, 0, 99)
    assert cert is not None and cert.f == {0: 99, 1: 7, 2: 7}


def test_degeneracy_status_examples(directed_example, double_pentagon):
    st = degeneracy_status(directed_example)
    assert st.tag is DegeneracyTag.PROPER_SET
    assert st.certificate.S == frozenset({0, 1, 2})
    assert degeneracy_status(double_pentagon).tag is DegeneracyTag.NON_DEGENERATE


def test_degeneracy_status_full_only():
    g, f = random_degenerate(6, [(0, 1), (2, 3), (4,), (5,)], seed=9)
    st = degeneracy_status(g)
    assert st.tag in (DegeneracyTag.FULL_ONLY, DegeneracyTag.PROPER_SET)
    assert st.certificate.check(g)
    if st.tag is DegeneracyTag.FULL_ONLY:
        assert st.certificate.S == frozenset(range(6))


def test_certificates_always_validate():
    rng = random.Random(71)
    for i in range(60):
        n = rng.randint(4, 7)
        g = random_no_mono_triangle(n, rng.choice((3, 4)), seed=1000 + i)
        st = degeneracy_status(g)
        if st.certificate is not None:
            assert st.certificate.check(g)


def test_degeneracy_matches_bruteforce_k4():
    for g in exhaustive_colorings(4):
        assert degeneracy_status(g).tag is brute_degeneracy_tag(g)


def test_degeneracy_matches_bruteforce_random_n6():
    rng = random.Random(0)
    for i in range(100):
        g = random_no_mono_triangle(6, rng.choice((3, 4, 5)), seed=2000 + i)
        assert degeneracy_status(g).tag is brute_degeneracy_tag(g)


def _plain_degeneracy(g):
    """Reference seed loop: every seed closed in full by the public closure."""
    full = None
    for u in range(g.n):
        for c in sorted({g.color(u, v) for v in range(g.n) if v != u}):
            cert = closure_from_seed(g, u, c)
            if cert is None:
                continue
            if len(cert.S) < g.n:
                return DegeneracyTag.PROPER_SET, cert
            if full is None:
                full = cert
    if full is not None:
        return DegeneracyTag.FULL_ONLY, full
    return DegeneracyTag.NON_DEGENERATE, None


def _assert_matches_plain_loop(g):
    st = degeneracy_status(g)
    tag, cert = _plain_degeneracy(g)
    assert st.tag is tag
    if cert is None:
        assert st.certificate is None
    else:
        assert st.certificate.S == cert.S and st.certificate.f == cert.f


def test_pruned_seed_loop_matches_plain_loop_k4():
    for g in exhaustive_colorings(4):
        _assert_matches_plain_loop(g)


def test_pruned_seed_loop_matches_plain_loop_random():
    tags = set()
    cases = [(n, seed, 4 + seed % 2) for n in range(6, 13) for seed in range(8)]
    cases += [(n, seed, 12) for n in (24, 64) for seed in range(3)]
    for n, seed, k in cases:
        pool = [
            random_degenerate(n, random_fibers(n, seed), seed)[0],
            gallai_coloring(n, seed)[0],
            random_no_mono_triangle(n, k, seed),
        ]
        for g in pool:
            _assert_matches_plain_loop(g)
            tags.add(degeneracy_status(g).tag)
    assert tags == set(DegeneracyTag)


def test_pruned_seed_loop_matches_plain_loop_every_4th_k5():
    # the seed pruning keeps the answer on every 4th mono-free K5 coloring
    count = 0
    for g in exhaustive_colorings(5):
        if find_monochromatic_triangle(g) is None:
            if count % 4 == 0:
                _assert_matches_plain_loop(g)
            count += 1
    assert count == 81909


def _closures_after_pruning(g):
    """Seeds at vertex 0 that can survive, plus the vertices u >= 1 whose
    edges to 0..u-1 share one color.

    A seed (0, c) can survive when every other color class at 0 is a
    clique of its own color; that is every color at 0 when all classes are
    such cliques, the one color of the only class that is not, or none.
    """
    n = g.n
    classes = collections.defaultdict(list)
    for v in range(1, n):
        classes[g.color(0, v)].append(v)
    loose = [
        d
        for d, members in classes.items()
        if any(g.color(x, y) != d for x, y in itertools.combinations(members, 2))
    ]
    at_zero = len(classes) if not loose else int(len(loose) == 1)
    return at_zero + sum(
        1 for u in range(1, n) if len({g.color(u, x) for x in range(u)}) == 1
    )


def test_seed_loop_closes_only_one_color_prefix_seeds(monkeypatch):
    # every other seed of a vertex u >= 1 dies on its first check, so the
    # loop does not close it
    calls = []
    closure = detect._closure_dense

    def counting(*args):
        calls.append(args)
        return closure(*args)

    monkeypatch.setattr(detect, "_closure_dense", counting)
    counts = []
    for seed in range(5):
        g = random_degenerate(64, random_fibers(64, seed), seed)[0]
        calls.clear()
        assert degeneracy_status(g).tag is DegeneracyTag.FULL_ONLY
        assert len(calls) == _closures_after_pruning(g)
        counts.append(len(calls))
    assert counts == [3, 2, 3, 3, 3]


def _reference_closure(m, n, u, c, low):
    """The closure as a loop over the color matrix, entry by entry: it tests
    each pulled value against the one already set, and stops at the first
    conflict or at the first vertex below low it would pull in."""
    f = {u: c}
    stack = [u]
    while stack:
        w = stack.pop()
        fw = f[w]
        row = m[w]
        if low and row[:low].count(fw) != low:
            return None
        for x in range(low, n):
            if x == w:
                continue
            col = row[x]
            if col == fw:
                continue
            fx = f.get(x)
            if fx is None:
                f[x] = col
                stack.append(x)
            elif fx != col:
                return None
    return f


def _assert_closures_match_the_loop(g, lows=lambda u: {0, u}):
    """Every seed (u, dense color or -1) at each of lows(u): the same f,
    filled in the same order, or None where the loop gives None.  Returns
    the count of closures per outcome: none, proper or full."""
    m, nbr, n = g._m, g._nbr, g.n
    outcomes = collections.Counter()
    for u in range(n):
        for c in range(-1, g.num_colors):
            for low in lows(u):
                want = _reference_closure(m, n, u, c, low)
                got = detect._closure_dense(m, nbr, n, u, c, low)
                if want is None:
                    assert got is None, (dumps_instance(g), u, c, low)
                    outcomes["none"] += 1
                else:
                    same = got is not None and list(got.items()) == list(want.items())
                    assert same, (dumps_instance(g), u, c, low)
                    outcomes["full" if len(want) == n else "proper"] += 1
    return outcomes


def test_mask_closure_matches_the_dense_loop():
    # mono colorings included, where a class can be a clique of its own
    # color, and uniform ones, where a closure conflicts early
    rng = random.Random(53)
    uniform = []
    for i in range(300):
        n = 6 + i % 5
        k = 1 + i % 6
        edges = [(u, v, rng.randrange(k)) for u, v in itertools.combinations(range(n), 2)]
        uniform.append(build(n, edges))
    degenerate = [random_degenerate(n, random_fibers(n, n), n)[0] for n in range(5, 65)]
    outcomes = collections.Counter()
    k5 = itertools.islice(exhaustive_colorings(5), 0, None, 4)
    for g in itertools.chain(k5, uniform, degenerate):
        outcomes += _assert_closures_match_the_loop(g)
    assert min(outcomes.values()) > 1000, outcomes


def _reference_status(g):
    """degeneracy_status as it closed every seed of vertex 0, kept to pin
    the vertex-0 rule: (tag, S, f) with f in original colors.  It closes
    with the matrix loop, so neither the rule nor the mask closure is
    checked against itself."""
    n, m, pal = g.n, g._m, g._palette
    full = None
    for u in range(n):
        row = m[u]
        if u:
            if row[:u].count(row[0]) != u:
                continue
            seeds = (row[0],)
        else:
            seeds = sorted(set(row[1:]))
        for c in seeds:
            f = _reference_closure(m, n, u, c, u)
            if f is None:
                continue
            if len(f) < n:
                return DegeneracyTag.PROPER_SET, frozenset(f), {v: pal[d] for v, d in f.items()}
            if full is None:
                full = f
    if full is not None:
        return DegeneracyTag.FULL_ONLY, frozenset(range(n)), {v: pal[d] for v, d in full.items()}
    return DegeneracyTag.NON_DEGENERATE, None, None


def _assert_matches_reference(g):
    st = degeneracy_status(g)
    cert = st.certificate
    got = (st.tag, None, None) if cert is None else (st.tag, cert.S, cert.f)
    assert got == _reference_status(g), dumps_instance(g)
    return st.tag


def test_vertex_zero_rule_matches_the_reference_on_random_colorings():
    # uniform colorings, most of them with a monochromatic triangle, where
    # a color class at 0 can be a clique of its own color
    rng = random.Random(29)
    tags = collections.Counter()
    mono = 0
    for i in range(10000):
        n = 5 + i % 5
        k = 2 + i % 3
        edges = [(u, v, rng.randrange(k)) for u, v in itertools.combinations(range(n), 2)]
        g = build(n, edges)
        tags[_assert_matches_reference(g)] += 1
        mono += find_monochromatic_triangle(g) is not None
    assert mono > 8000 and tags.keys() == set(DegeneracyTag), (mono, tags)


def test_closure_minimality_small():
    # a present closure is contained in every degenerate set sharing its seed
    rng = random.Random(13)
    for i in range(40):
        n = rng.randint(4, 6)
        g = random_no_mono_triangle(n, 3, seed=3000 + i)
        proper = list(proper_degenerate_sets(g))
        for u in range(n):
            for c in sorted({g.color(u, v) for v in range(n) if v != u}):
                cert = closure_from_seed(g, u, c)
                if cert is None:
                    continue
                for s_other, f_other in proper:
                    if u in s_other and f_other[u] == c:
                        assert cert.S <= s_other


def test_dead_edges_block_pc_cycles(directed_example):
    st = degeneracy_status(directed_example)
    inside = st.certificate.S
    for u in inside:
        for v in range(directed_example.n):
            if v not in inside:
                assert not pc_cycle_exists_with_edge(directed_example, u, v)


def test_dead_edges_over_exhaustive_k4():
    # every proper-degenerate K4 coloring keeps its boundary edges off PC cycles
    hits = 0
    for g in exhaustive_colorings(4):
        if find_monochromatic_triangle(g) is not None:
            continue
        st = degeneracy_status(g)
        if st.tag is not DegeneracyTag.PROPER_SET:
            continue
        hits += 1
        inside = st.certificate.S
        for u in inside:
            for v in range(4):
                if v not in inside:
                    assert not pc_cycle_exists_with_edge(g, u, v)
    assert hits > 0


def test_gallai_partition_checker(double_pentagon, rainbow_k4):
    singletons = [[v] for v in range(5)]
    assert verify_gallai_partition(double_pentagon, singletons) is True
    assert verify_gallai_partition(rainbow_k4, [[v] for v in range(4)]) is False
    g, parts = gallai_coloring(7, seed=5)
    assert verify_gallai_partition(g, parts) is True


def test_gallai_partition_checker_rejects(double_pentagon):
    with pytest.raises(NotAPartition):
        verify_gallai_partition(double_pentagon, [[0, 1, 2, 3, 4]])
    with pytest.raises(NotAPartition):
        verify_gallai_partition(double_pentagon, [[0, 1], [1, 2, 3, 4]])
    with pytest.raises(NotAPartition):
        verify_gallai_partition(double_pentagon, [[0, 1], [2, 3]])
    # parts, or a part, that are no collection of vertices
    for parts in (None, [0, 1], [[[0]], [1]]):
        with pytest.raises(NotAPartition):
            verify_gallai_partition(double_pentagon, parts)


def test_gallai_partition_checker_rejects_non_int_vertices():
    # float copies equal the ints and hash alike, so they pass the cover check
    g, parts = gallai_coloring(6, 0)
    assert verify_gallai_partition(g, parts)
    with pytest.raises(NotAPartition):
        verify_gallai_partition(g, [[float(v) for v in p] for p in parts])
    with pytest.raises(NotAPartition):
        verify_gallai_partition(g, [parts[0], [str(v) for v in parts[1]]] + parts[2:])


def test_two_colored_graphs_have_no_pc_triangle():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(3, 5)
        g = build(
            n,
            [(u, v, rng.choice((4, 9))) for u, v in itertools.combinations(range(n), 2)],
        )
        assert find_pc_triangle(g) is None


def _plain_first_mono_triangle(g):
    for u, v, w in itertools.combinations(range(g.n), 3):
        c = g.color(u, v)
        if g.color(u, w) == c and g.color(v, w) == c:
            return (u, v, w)
    return None


def test_bitset_mono_scan_matches_plain_scan():
    rng = random.Random(29)
    hits = misses = 0
    for n in range(3, 71):
        pairs = list(itertools.combinations(range(n), 2))
        graphs = [
            build(n, [(u, v, rng.randrange(k)) for u, v in pairs])
            for k in (1, 2, 3, n * n)
        ]
        # many colors with one planted triangle, and mono-free instances
        planted = set(rng.sample(range(n), 3))
        graphs.append(
            build(
                n,
                [
                    (u, v, -1 if {u, v} <= planted else rng.randrange(n * n))
                    for u, v in pairs
                ],
            )
        )
        graphs.append(random_degenerate(n, random_fibers(n, n), n)[0])
        graphs.append(build(n, list(graphs[-1].edges())))  # not yet scanned
        if n <= 12:
            graphs.append(gallai_coloring(n, n)[0])
        for g in graphs:
            want = _plain_first_mono_triangle(g)
            assert find_monochromatic_triangle(g) == want
            hits += want is not None
            misses += want is None
    assert hits > 200 and misses > 150


def _orientation(t):
    return t.parts, t.part_of, t._outmask, t._inmask


def test_mono_scan_is_remembered_and_pickled_but_not_compared():
    # the scan's answer is remembered and pickled; the color-mask table is
    # built with the graph and rebuilt on unpickling; neither is compared
    # or hashed
    fresh_value = 0
    for seed in range(100):
        g, f = random_degenerate(9, random_fibers(9, seed), seed)  # the generator scans
        if any(f[v] not in g.palette for v in range(9)):
            fresh_value += 1
        fresh = build(g.n, list(g.edges()))
        assert g._mono is None and fresh._mono is False
        assert g == fresh and hash(g) == hash(fresh)
        again = pickle.loads(pickle.dumps(g))
        assert again._mono is None and again == fresh
        want = _orientation(reduce_degenerate(g, f))
        for h in (again, fresh):
            assert _orientation(reduce_degenerate(h, f)) == want
            assert h._nbr == g._nbr and h == g and hash(h) == hash(g)
        assert fresh._mono is False  # reduce_degenerate read the table, not a scan
        assert pickle.dumps(again) == pickle.dumps(g)
    # some singleton's value colors no edge: its fd is a fresh index
    assert fresh_value > 0
    mono = build(4, [(u, v, 1 if u else 2) for u, v in itertools.combinations(range(4), 2)])
    assert find_monochromatic_triangle(mono) == (1, 2, 3)
    assert mono == build(4, mono.edges()) and hash(mono) == hash(build(4, mono.edges()))
    again = pickle.loads(pickle.dumps(mono))
    assert again._mono == (1, 2, 3) and find_monochromatic_triangle(again) == (1, 2, 3)


def _reference_masks(g):
    """Per vertex u, the vertices meeting u in each dense color, then {u}."""
    k = g.num_colors
    return [
        [sum(1 << v for v, c in enumerate(row) if c == d) for d in range(k)] + [1 << u]
        for u, row in enumerate(g._m)
    ]


def test_color_masks_match_the_rows():
    # every way a graph comes to be: build, each generator, an induced
    # subgraph and unpickling all hand over the table with the graph
    from pcgraph.cycles import _induced
    from pcgraph.families import FAMILIES, GenSpec, generate

    graphs = [build(1, []), build(2, [(0, 1, 7)])]
    for family in FAMILIES:
        n = {"doublePentagon": 5, "directedExample": 6, "exhaustive": 4}.get(family, 12)
        graphs += generate(GenSpec(family, n=n, k=4, seed=0, count=5))
    graphs += generate(GenSpec("randomDegenerate", n=64, seed=0, count=20))
    graphs += [_induced(g, range(1, g.n, 2)) for g in graphs if g.n >= 4]
    graphs += [pickle.loads(pickle.dumps(g)) for g in graphs]
    for g in itertools.chain(exhaustive_colorings(5), graphs):
        assert g._nbr == _reference_masks(g)


def test_generator_sweep_and_classify_share_one_scan(monkeypatch):
    import pcgraph.detect as detect_mod
    from pcgraph.families import GenSpec, generate
    from pcgraph.sweep import examine_instance

    real = detect_mod._first_monochromatic_triangle
    scans = []

    def counted(*args):
        scans.append(args[1])
        return real(*args)

    monkeypatch.setattr(detect_mod, "_first_monochromatic_triangle", counted)
    for g in generate(GenSpec("randomDegenerate", 9, 0, 0, 3)):
        rec = examine_instance(g, "full")
        assert rec["tag"] == "a" and rec["hamilton_path_ok"]
    assert scans == [9, 9, 9]
