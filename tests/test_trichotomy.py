import collections
import copy
import dataclasses
import hashlib
import itertools
import os
import pickle
import random

import pytest

from helpers import is_window, random_instance_pool

from pcgraph import build, loads_instance
from pcgraph.cycles import (
    _pc_closed,
    _pc_cycle_search,
    _WindowCovers,
    enumerate_pc_cycles,
    has_pc_cycle,
    insert_into_pc_cycle,
    is_pc_cycle,
    pc_quadrangle_search,
)
from pcgraph.detect import (
    DegeneracyCertificate,
    DegeneracyTag,
    degeneracy_status,
    find_monochromatic_triangle,
)
from pcgraph.errors import (
    MonochromaticTrianglePresent,
    RepeatedVertex,
    ResultMismatch,
    TooSmall,
    UnknownVertex,
)
from pcgraph.families import (
    GenSpec,
    double_pentagon_matrix,
    exhaustive_colorings,
    gallai_coloring,
    generate,
    random_degenerate,
    random_fibers,
    random_no_mono_triangle,
)
from pcgraph.oracles import is_pancyclic_from
from pcgraph.tournaments import (
    is_directed_cycle,
    lift_cycle,
    mpt_cycles_through,
    reduce_degenerate,
)
from pcgraph.trichotomy import (
    TrichotomyResult,
    TrichotomyTag,
    _grow_step,
    _regrow_quadrangle,
    _swap_in_pair,
    classify,
    is_double_pentagon_k5,
    side_conditions,
    validate_result,
)


def test_double_pentagon_detector(double_pentagon, rainbow_k4):
    relabel = is_double_pentagon_k5(double_pentagon)
    assert relabel is not None and sorted(relabel) == list(range(5))
    assert is_double_pentagon_k5(rainbow_k4) is None


def test_double_pentagon_detector_relabeled(double_pentagon):
    # all 120 vertex permutations, with the original color ids in both
    # orders, so either pentagon can be dense color class 0
    for perm in itertools.permutations(range(5)):
        for renamed in ({1: 4, 2: 9}, {1: 9, 2: 4}):
            h = build(
                5, [(perm[u], perm[v], renamed[c]) for u, v, c in double_pentagon.edges()]
            )
            assert is_double_pentagon_k5(h) is not None
            result = classify(h)
            assert result.tag is TrichotomyTag.EXCEPTIONAL_K5
            assert validate_result(h, result), (perm, renamed)


def test_classify_examples(double_pentagon, directed_example, rainbow_k4):
    assert classify(double_pentagon).tag is TrichotomyTag.EXCEPTIONAL_K5
    res_b = classify(directed_example)
    assert res_b.tag is TrichotomyTag.PROPER_DEGENERATE
    assert res_b.certificate.S == frozenset({0, 1, 2})
    res_a = classify(rainbow_k4)
    assert res_a.tag is TrichotomyTag.PANCYCLIC
    assert set(res_a.cycles) == {4}
    for ln, cover in res_a.cycles.items():
        assert set().union(*cover) == set(range(4))
        for cyc in cover:
            assert len(cyc) == ln and is_pc_cycle(rainbow_k4, cyc)


def test_classify_rejections(mono_k3):
    with pytest.raises(TooSmall):
        classify(mono_k3)
    mono_k4 = build(4, [(u, v, 2) for u, v in itertools.combinations(range(4), 2)])
    with pytest.raises(MonochromaticTrianglePresent):
        classify(mono_k4)


def test_classify_full_only_route():
    # force the orientation pipeline with planted 2-fibers
    g, f = random_degenerate(8, [(0, 1), (2, 3), (4,), (5,), (6,), (7,)], seed=5)
    st = degeneracy_status(g)
    if st.tag is not DegeneracyTag.FULL_ONLY:
        pytest.skip("seed produced a proper set")
    result = classify(g)
    assert result.tag is TrichotomyTag.PANCYCLIC
    assert validate_result(g, result)


def _full_only(n, seed):
    g, _f = random_degenerate(n, random_fibers(n, seed), seed)
    assert degeneracy_status(g).tag is DegeneracyTag.FULL_ONLY
    return g


def test_classify_gallai_n10_is_pinned():
    # the stream of `pcg gen --family gallai --n 10 --seed 0 --count 16`;
    # the tables pin the growth route's Hamilton cycle, window walk and rule order
    golden = os.path.join(os.path.dirname(__file__), "data", "classify_gallai_n10.jsonl")
    lines = []
    for g in generate(GenSpec("gallai", n=10, seed=0, count=16)):
        st: dict = {}
        result = classify(g, stats_out=st)
        assert validate_result(g, result)
        assert "growth_oracle_uses" not in st
        lines.append(result.to_json() + "\n")
    with open(golden, "rb") as fh:
        assert "".join(lines).encode() == fh.read()


def test_pc_cycle_walk_order_is_pinned():
    # has_pc_cycle(g, v, L) for every v and L on the same 16 instances: the
    # first cycle the depth-first walk closes, so this pins the order in
    # which it tries vertices
    digest = hashlib.sha256()
    for g in generate(GenSpec("gallai", n=10, seed=0, count=16)):
        for v in range(g.n):
            for ln in range(3, g.n + 1):
                cyc = has_pc_cycle(g, v, ln)
                found = "none" if cyc is None else " ".join(map(str, cyc))
                digest.update(f"{v} {ln} {found}\n".encode())
    want = "83e1a1af830dd74362dfb7e3b237f34939baf6b2f0f44fc9fcee7f950a4f1b36"
    assert digest.hexdigest() == want


def _used_list_walk(g, v, length, visit):
    """The PC-cycle walk over the color matrix: a used list, and one color
    compare per candidate vertex."""
    m, n = g._m, g.n
    path = [v]
    used = [False] * n
    used[v] = True

    def dfs(prev_color):
        if len(path) == length:
            closing = m[path[-1]][v]
            if closing != prev_color and closing != m[v][path[1]]:
                return visit(tuple(path))
            return None
        row = m[path[-1]]
        for w in range(n):
            if not used[w] and row[w] != prev_color:
                used[w] = True
                path.append(w)
                got = dfs(row[w])
                path.pop()
                used[w] = False
                if got is not None:
                    return got
        return None

    return dfs(-1)


def test_mask_walk_matches_the_used_list_walk():
    # has_pc_cycle returns the same first cycle for every v and length, and
    # the walk visits the same cycles in the same order, so
    # enumerate_pc_cycles lists the same ones; on K5, monochromatic
    # colorings included, the visit order is compared from vertex 0
    rng = random.Random(61)
    graphs = list(itertools.islice(exhaustive_colorings(5), 0, None, 4))
    graphs += itertools.islice(exhaustive_colorings(6, sample=400, seed=5), 400)
    graphs.append(gallai_coloring(10, 0)[0])
    for i in range(16):
        n = 6 + i % 4
        k = 2 + i // 4
        edges = [(u, v, rng.randrange(k)) for u, v in itertools.combinations(range(n), 2)]
        graphs.append(build(n, edges))
    walks = 0
    for g in graphs:
        for v in range(g.n):
            for ln in range(3, g.n + 1):
                first = _used_list_walk(g, v, ln, lambda walk: walk)
                assert has_pc_cycle(g, v, ln) == first, (g._m, v, ln)
                if v and g.n == 5:
                    continue
                want, got = [], []
                _used_list_walk(g, v, ln, want.append)
                _pc_cycle_search(g, v, ln, got.append)
                assert got == want, (g._m, v, ln)
                walks += len(want)
    assert walks > 1000000, walks


def _random_pc_cycles(count, seed, span=lambda n: (4, n - 1)):
    """(graph, cycle, v): random PC cycles, v a random vertex on each.

    Each length is drawn from span(n), 4..n-1 by default.
    """
    rng = random.Random(seed)
    out = []
    for g in random_instance_pool(count, sizes=(6, 7, 8), seed=seed):
        for _ in range(3):
            ln = rng.randint(*span(g.n))
            listed = enumerate_pc_cycles(g, rng.randrange(g.n), ln)
            if listed:
                cyc = rng.choice(listed)
                out.append((g, cyc, rng.choice(cyc)))
    return out


def _off(g, cyc):
    return [w for w in range(g.n) if w not in cyc]


def _swaps(g, cyc, v):
    """Every R1 candidate in the rule's order: c_i gives way to x, y."""
    i = cyc.index(v)
    vs = cyc[i:] + cyc[:i]
    outside = _off(g, cyc)
    for i in range(1, len(vs)):
        for x in outside:
            for y in outside:
                if x != y:
                    yield vs[:i] + (x, y) + vs[i + 1 :]


def test_growth_rule_returns_its_first_pc_candidate():
    # on random PC cycles, R1 returns exactly the first candidate of its
    # form that is properly colored, and None when there is none
    hits = misses = 0
    for g, cyc, v in _random_pc_cycles(60, seed=31):
        grown = _swap_in_pair(g, cyc, v, _off(g, cyc))
        first = next((c for c in _swaps(g, cyc, v) if is_pc_cycle(g, c)), None)
        if grown is None:
            assert first is None
            misses += 1
        else:
            assert grown == first and len(grown) == len(cyc) + 1
            assert v in grown and is_pc_cycle(g, grown)
            hits += 1
    assert hits > 20 and misses > 0
    # with 1 or 0 vertices off the cycle (lengths n-1 and n) no pair
    # x != y exists, so R1 returns None
    sizes = collections.Counter()
    for g, cyc, v in _random_pc_cycles(20, seed=41, span=lambda n: (n - 1, n)):
        outside = _off(g, cyc)
        assert _swap_in_pair(g, cyc, v, outside) is None
        sizes[len(outside)] += 1
    assert sizes[0] > 0 and sizes[1] > 0


def test_regrow_quadrangle_walks_the_quadrangles_through_v():
    # R5 against a reference regrow: the same quadrangle walk, each
    # quadrangle grown by insertion in vertex order, then R1
    def grow(c, g, v):
        outside = _off(g, c)
        for w in outside:
            got = insert_into_pc_cycle(g, c, w)
            if got is not None:
                return got
        return _swap_in_pair(g, c, v, outside)

    def reference(g, v, ln):
        def visit(cyc):
            while cyc is not None and len(cyc) < ln:
                cyc = grow(cyc, g, v)
            return cyc

        return _pc_cycle_search(g, v, 4, visit)

    hits = 0
    for g in random_instance_pool(40, sizes=(6, 7, 8), seed=37):
        for v in range(g.n):
            # at length 4 nothing grows: R5 returns the first quadrangle
            assert _regrow_quadrangle(g, v, 4) == pc_quadrangle_search(g, v)
            for ln in range(5, g.n + 1):
                got = _regrow_quadrangle(g, v, ln)
                assert got == reference(g, v, ln)
                if got is not None:
                    assert len(got) == ln and v in got and is_pc_cycle(g, got)
                    hits += 1
    assert hits > 100


def test_growth_rule_counts_exhaustive_k5():
    # over every mono-free K5 coloring that takes the growth route, the
    # (vertex, length) steps each rule settled; restart (R5) fires, and the
    # has_pc_cycle search never runs
    counts = collections.Counter()
    for g in exhaustive_colorings(5):
        if find_monochromatic_triangle(g) is None:
            classify(g, stats_out=counts)
    assert counts == {
        "growth_reused": 634839,
        "growth_quadrangles": 79572,
        "growth_inserted": 79021,
        "growth_restarted": 358,
    }


def test_growth_restarts_where_the_reversal_rule_once_fired():
    # every coloring of exhaustive_colorings(6, sample=300000, seed=7) and
    # exhaustive_colorings(7, sample=100000, seed=3) on which a rule that
    # inserted an outside vertex and reversed a cycle segment settled a
    # step: with that rule gone, the R5 restart settles those steps, and
    # the has_pc_cycle search never runs.  On lines 20, 47, 66 and 78
    # (0-based, all n = 6) R5 no longer fires: windows of the Hamilton
    # cycle cover the vertex whose cycle's growth needed it, so that cycle
    # is never built
    path = os.path.join(os.path.dirname(__file__), "data", "growth_former_r3_k6_k7.jsonl")
    with open(path) as fh:
        instances = [loads_instance(line) for line in fh]
    assert len(instances) == 94
    restarted = set()
    for i, g in enumerate(instances):
        st: dict = {}
        result = classify(g, stats_out=st)
        assert result.tag is TrichotomyTag.PANCYCLIC and validate_result(g, result), i
        assert "growth_oracle_uses" not in st, (i, st)
        if st.get("growth_restarted"):
            restarted.add(i)
    assert restarted == set(range(94)) - {20, 47, 66, 78}


def test_growth_never_searches_on_gallai_n64():
    # the former worst case, seed 2, spent over 100 s in has_pc_cycle.  A
    # tag-(a) certificate, windows of one PC Hamilton cycle and a few
    # fallbacks, holds at most 250 distinct cycles (the floor is 219)
    searched = []
    for seed, g in enumerate(generate(GenSpec("gallai", n=64, seed=0, count=200))):
        st: dict = {}
        result = classify(g, stats_out=st)
        assert validate_result(g, result), seed
        if st.get("growth_oracle_uses"):
            searched.append(seed)
        if result.tag is TrichotomyTag.PANCYCLIC:
            distinct = {cyc for cover in result.cycles.values() for cyc in cover}
            assert len(distinct) <= 250, (seed, len(distinct))
    assert searched == []


def _growth_fallback(g, covers, ln, u):
    """The cycle the growth ladder gives u at length ln when no window holds it."""
    if ln == 4:
        return pc_quadrangle_search(g, u)
    cur = next(cyc for cyc in covers[ln - 1] if u in cyc)
    return _grow_step(g, cur, u)[0] or _regrow_quadrangle(g, u, ln) or has_pc_cycle(g, u, ln)


def _no_window_holds(g, ham, ln, u):
    """Whether no run of ln consecutive vertices of ham holding u is a PC cycle."""
    n = g.n
    twice = ham + ham
    p = ham.index(u)
    return not any(is_pc_cycle(g, twice[s % n : s % n + ln]) for s in range(p - ln + 1, p + 1))


def test_growth_covers_are_windows_of_one_pc_hamilton_cycle():
    # the growth route's twin of the orientation route's cover test: each
    # length's cover covers V by PC L-cycles, and every cycle is a run of
    # consecutive vertices of the PC Hamilton cycle cover[n][0], or else
    # the cycle the growth ladder gives a vertex that no earlier cycle of
    # its cover holds and no such run holds
    windows = fallbacks = 0
    graphs = []
    for n in range(8, 29, 4):
        graphs += generate(GenSpec("gallai", n=n, seed=n, count=4))
        graphs += [random_no_mono_triangle(n, 6, seed) for seed in range(2)]
    for g in graphs:
        if degeneracy_status(g).tag is not DegeneracyTag.NON_DEGENERATE:
            continue
        n = g.n
        result = classify(g)
        assert result.tag is TrichotomyTag.PANCYCLIC and validate_result(g, result)
        covers = result.cycles
        (ham,) = covers[n]
        for ln, cover in covers.items():
            for i, cyc in enumerate(cover):
                earlier = set().union(*cover[:i])
                assert not set(cyc) <= earlier
                if is_window(ham, cyc):
                    windows += 1
                else:
                    fallbacks += 1
                    assert any(
                        cyc == _growth_fallback(g, covers, ln, u)
                        and _no_window_holds(g, ham, ln, u)
                        for u in cyc
                        if u not in earlier
                    )
    assert windows > 0 and fallbacks > 0


def test_growth_falls_back_to_the_counted_search(monkeypatch):
    # with every constructive rule failing, each cycle above length 4 that
    # is not reused comes from has_pc_cycle, and each call is counted
    import pcgraph.trichotomy as trichotomy_mod

    for name in (
        "insert_into_pc_cycle",
        "_swap_in_pair",
        "_regrow_quadrangle",
    ):
        monkeypatch.setattr(trichotomy_mod, name, lambda *args: None)
    calls = []
    real = trichotomy_mod.has_pc_cycle

    def counted(g, v, ln):
        calls.append((v, ln))
        return real(g, v, ln)

    monkeypatch.setattr(trichotomy_mod, "has_pc_cycle", counted)
    g = next(
        g
        for g in generate(GenSpec("gallai", n=10, seed=0, count=16))
        if degeneracy_status(g).tag is DegeneracyTag.NON_DEGENERATE
    )
    st: dict = {}
    result = classify(g, stats_out=st)
    assert result.tag is TrichotomyTag.PANCYCLIC and validate_result(g, result)
    assert calls and st["growth_oracle_uses"] == len(calls)
    assert "growth_inserted" not in st and "growth_restarted" not in st


def test_classify_random_degenerate_n12_is_pinned():
    # `pcg classify` of `pcg gen --family randomDegenerate --n 12 --seed S`
    # for S = 0..3, one line each: full-only instances whose cycle tables
    # are small enough to read
    golden = os.path.join(
        os.path.dirname(__file__), "data", "classify_random_degenerate_n12.jsonl"
    )
    lines = []
    for g in generate(GenSpec("randomDegenerate", n=12, seed=0, count=4)):
        assert degeneracy_status(g).tag is DegeneracyTag.FULL_ONLY
        result = classify(g)
        assert result.tag is TrichotomyTag.PANCYCLIC
        assert validate_result(g, result)
        lines.append(result.to_json() + "\n")
    with open(golden, "rb") as fh:
        assert "".join(lines).encode() == fh.read()


def test_classify_random_degenerate_n64_is_pinned():
    # sha256 of classify(g).to_json() for the benchmark's degenerate stream;
    # the cycle tables depend on the Hamilton cycle the windows are cut from
    want = [
        "2c6a7d1baf74c4de90a4361888a9d9e81f6cb320f58c58ef5728f5717a149472",
        "714e6978afa43ccea1b469c340e448b1f2d8110f71291a974805f010ed8eb438",
        "d5b3c350cdcb9e4d4b820754b0a03742c553b7b15e047963bb9d425f8cfd30f7",
        "13ff84a5d42caed8f3faf23f5afbbb081f9c7195b173ffeab5478f1f1dac2ff0",
        "5ee253d2287672f59c6a7629f24bbd78f6749763062d0692b38c2a69a86d1ffa",
    ]
    got = []
    for g in generate(GenSpec("randomDegenerate", n=64, seed=0, count=5)):
        result = classify(g)
        assert result.tag is TrichotomyTag.PANCYCLIC
        assert validate_result(g, result)
        got.append(hashlib.sha256(result.to_json().encode()).hexdigest())
    assert got == want


def test_classify_gallai_n64_is_pinned():
    # sha256 of classify(g).to_json() for a growth-route stream at scale;
    # the Hamilton cycle, the window walk and the rule order fix every cycle
    want = [
        "26ab22854b3453dc4935927c1ef6d53d853b9f40d920a9171f761f8341874035",
        "aaa1b50497764791cc01165dcd868b43cfed6adc3c7dabbcc226cc116f778d32",
        "1baa8426f76d0c0f18575ae0d862e61c3d8f517dd05bb37825ff51211c3cc2b2",
        "6595f8f846087bd8b38329b652fa738258722fce24c223b6b52aaa154412a1a0",
        "2f089997a3ad72c859ccce352898995525c49b3bcc336918e9fe45c2e87a25d8",
    ]
    got = []
    for g in generate(GenSpec("gallai", n=64, seed=0, count=5)):
        result = classify(g)
        assert validate_result(g, result)
        got.append(hashlib.sha256(result.to_json().encode()).hexdigest())
    assert got == want


def test_orientation_route_lifts_h_once(monkeypatch):
    import pcgraph.trichotomy as trichotomy_mod

    real_lift = trichotomy_mod.lift_cycle
    real_reduce = trichotomy_mod.reduce_degenerate
    lifts = []
    built = []

    def counted(g, f, cycle):
        lifts.append(cycle)
        return real_lift(g, f, cycle)

    def kept(g, f):
        built.append(real_reduce(g, f))
        return built[-1]

    monkeypatch.setattr(trichotomy_mod, "lift_cycle", counted)
    monkeypatch.setattr(trichotomy_mod, "reduce_degenerate", kept)
    for n, seed in ((12, 1), (64, 0), (64, 1), (64, 2)):
        g = _full_only(n, seed)
        lifts.clear()
        built.clear()
        result = classify(g)
        assert result.tag is TrichotomyTag.PANCYCLIC and validate_result(g, result)
        covers = built[0].cycle_covers()
        assert set(covers) == set(range(4, n + 1))
        # H alone, whatever fallback cycles the covers hold
        assert lifts == [covers[n][0]]
        # the covers hold t's own tuples, wrapped in nothing
        assert result.cycles == covers
        assert all(
            a is b for ln in covers for a, b in zip(result.cycles[ln], covers[ln], strict=True)
        )


def test_every_orientation_cover_cycle_is_a_directed_cycle_that_lifts():
    # the guarantee that lets classify skip a per-cycle check: windows and
    # fallbacks alike are directed cycles of t, and so lift to PC cycles
    instances = fallbacks = 0
    for n, seeds in ((5, 200), (6, 200), (8, 200), (12, 200), (16, 200), (32, 20), (64, 20)):
        for seed in range(seeds):
            g, _f = random_degenerate(n, random_fibers(n, seed), seed)
            status = degeneracy_status(g)
            if status.tag is not DegeneracyTag.FULL_ONLY:
                continue
            f = status.certificate.f
            t = reduce_degenerate(g, f)
            mpt_cycles_through(t, 0)
            covers = t.cycle_covers()
            ham = covers[n][0]
            for cover in covers.values():
                for cyc in cover:
                    assert is_directed_cycle(t, cyc), (n, seed, cyc)
                    assert lift_cycle(g, f, cyc) == cyc, (n, seed, cyc)
            result = classify(g)
            assert result.cycles == covers and validate_result(g, result), (n, seed)
            instances += 1
            fallbacks += any(not is_window(ham, c) for cover in covers.values() for c in cover)
    # 891 full-only instances, 472 of them with a fallback cycle
    assert instances > 800 and fallbacks > 400, (instances, fallbacks)


def _seam_reversed_window(t, ham):
    """A run of H of length 4..n-1 whose seam pair is the arc first -> last."""
    n = t.n
    twice = ham + ham
    for ln in range(4, n):
        for p in range(n):
            run = twice[p : p + ln]
            if t._outmask[run[0]] >> run[-1] & 1:
                return run
    raise AssertionError("every run of H closes")


def test_validate_result_rejects_a_forged_orientation_window_or_cycle(monkeypatch):
    # cycles forged into t's table come back from classify unchecked, and
    # validate_result, the one tag-(a) checker, judges them by the colors
    import pcgraph.tournaments as tournaments_mod

    real = tournaments_mod._window_covers
    g = _full_only(64, 0)
    result = classify(g)
    ham = result.cycles[64][0]
    window = _seam_reversed_window(reduce_degenerate(g, degeneracy_status(g).certificate.f), ham)
    five = result.cycles[5][0]
    backwards = five[::-1]
    shuffled = _non_pc_reordering(g, five)
    assert is_window(ham, window)
    assert not is_window(ham, backwards) and not is_window(ham, shuffled)
    # the seam edge of the window has the color of H's arc out of its
    # first vertex, and the shuffle is no PC cycle: both fail.  The reversed
    # 5-cycle is no directed cycle of t, but it is a PC cycle, as
    # reversal keeps every pair of consecutive edges: it passes.
    for bad, want in ((window, False), (backwards, True), (shuffled, False)):

        def forged(t, bad=bad):
            covers = real(t)
            entries = list(covers.entries)
            entries[len(bad) - 4] += (bad,)
            return _WindowCovers(covers.ham, entries)

        monkeypatch.setattr(tournaments_mod, "_window_covers", forged)
        got = classify(g)
        assert got.cycles[len(bad)][-1] == bad
        assert validate_result(g, got) is want, bad
        assert _per_vertex_validate(g, got) is want, bad


def test_orientation_route_fills_the_table_with_one_call(monkeypatch):
    import pcgraph.trichotomy as trichotomy_mod

    real = trichotomy_mod.mpt_cycles_through
    calls = []

    def counted(t, v):
        calls.append(v)
        return real(t, v)

    monkeypatch.setattr(trichotomy_mod, "mpt_cycles_through", counted)
    for n, seed in ((12, 1), (64, 0), (64, 1)):
        g = _full_only(n, seed)
        calls.clear()
        result = classify(g)
        assert result.tag is TrichotomyTag.PANCYCLIC and validate_result(g, result)
        # the call asks for vertex 0, which H grows through: its scan stops
        # at the first cycle of every cover
        assert calls == [0]
        assert all(0 in cover[0] for cover in result.cycles.values())


def _recovered(result, changes):
    """result with the covers of some lengths replaced."""
    return dataclasses.replace(result, cycles={**result.cycles, **changes})


def _non_pc_reordering(g, cyc):
    rng = random.Random(0)
    while True:
        order = list(cyc)
        rng.shuffle(order)
        if not is_pc_cycle(g, order):
            return tuple(order)


def test_validate_result_checks_every_entry_of_a_shared_cycle():
    # each cover cycle certifies several vertices, and each way it can
    # fail them is caught: a wrong length, a vertex left uncovered, or a
    # cycle that is not PC
    g = _full_only(12, 1)
    result = classify(g)
    assert validate_result(g, result)
    ln = 6
    cover = result.cycles[ln]
    first = cover[0]
    assert len(cover) > 1
    # a cycle of length ln also in the cover of ln + 1
    longer = result.cycles[ln + 1] + (first,)
    assert not validate_result(g, _recovered(result, {ln + 1: longer}))
    # the cover without its last cycle leaves a vertex uncovered
    assert set().union(*cover[:-1]) != set(range(g.n))
    assert not validate_result(g, _recovered(result, {ln: cover[:-1]}))
    # a non-PC cycle on the same vertices in place of the first
    bad = _non_pc_reordering(g, first)
    assert not validate_result(g, _recovered(result, {ln: (bad,) + cover[1:]}))


def test_validate_result_rejects_malformed_tables():
    # a checker answers False on a malformed table instead of raising
    g = random_no_mono_triangle(6, 4, 3)
    result = classify(g)
    assert result.tag is TrichotomyTag.PANCYCLIC and validate_result(g, result)
    assert not validate_result(g, dataclasses.replace(result, cycles=None))
    assert not validate_result(g, dataclasses.replace(result, cycles=[]))
    cover = result.cycles[4]
    for bad in (7, None, "0123", (0, 1, 2, 9), (0, 1, 1, 2)):
        # a malformed cycle in the cover, and a malformed cover
        assert not validate_result(g, _recovered(result, {4: (bad,) + cover})), bad
        assert not validate_result(g, _recovered(result, {4: bad})), bad
    # one key swapped for one of another shape, the key count kept
    for key, cyc_cover in [(3, ((0, 1, 2),)), ((4,), cover), ("4", cover)]:
        covers = dict(result.cycles)
        del covers[4]
        covers[key] = cyc_cover
        assert not validate_result(g, dataclasses.replace(result, cycles=covers)), key


def _per_vertex_validate(g, result):
    """validate_result's tag-(a) check with a type and range test per vertex.

    The reference for the set-equality check: each cycle goes through
    is_pc_cycle, which tests every vertex, and each cover needs n distinct
    vertices.
    """
    covers = result.cycles
    n = g.n
    if not isinstance(covers, (dict, _WindowCovers)) or covers.keys() != set(range(4, n + 1)):
        return False
    try:
        for ln, cover in covers.items():
            covered = set()
            for cyc in cover:
                vs = tuple(cyc)
                if len(vs) != ln or not is_pc_cycle(g, vs):
                    return False
                covered.update(vs)
            if len(covered) != n:
                return False
    except (TypeError, ValueError, UnknownVertex, RepeatedVertex):
        return False
    return True


def _with_vertex(cyc, i, w):
    vs = tuple(cyc)
    return vs[:i] + (w,) + vs[i + 1 :]


def test_validate_result_rejects_forged_vertices():
    g = _full_only(12, 1)
    result = classify(g)
    n = g.n
    assert validate_result(g, result)
    ln = 6
    cover = result.cycles[ln]
    first = cover[0]
    forged = [_with_vertex(first, 0, bad) for bad in (-1, n, 2**70, 1.0, "a", None)]
    through_1 = next(cyc for cyc in cover if 1 in cyc)
    forged.append(_with_vertex(through_1, (through_1.index(1) + 1) % ln, True))
    forged.append(_with_vertex(first, 0, first[1]))
    for cyc in forged:
        for table in ({ln: (cyc,) + cover}, {ln: cover + (cyc,)}, {ln: (cyc,) + cover[1:]}):
            assert not validate_result(g, _recovered(result, table)), cyc
            assert not _per_vertex_validate(g, _recovered(result, table)), cyc
    # the cover without its last cycle misses a vertex
    assert set().union(*cover[:-1]) != set(range(n))
    assert not validate_result(g, _recovered(result, {ln: cover[:-1]}))
    # m[-1] reads row n - 1, so -1 in place of n - 1 passes the PC test; the
    # cover's union, V with -1 added or n - 1 swapped for -1, rejects it
    swapped = tuple(tuple(-1 if v == n - 1 else v for v in cyc) for cyc in cover)
    assert all(_pc_closed(g._m, cyc) for cyc in swapped)
    assert not validate_result(g, _recovered(result, {ln: swapped}))
    assert not validate_result(g, _recovered(result, {ln: cover + swapped}))


def test_set_equality_validate_agrees_with_the_per_vertex_check():
    # every tag-(a) certificate of K5, and random forgeries of n = 12 covers
    checked = 0
    for g in exhaustive_colorings(5):
        if find_monochromatic_triangle(g) is None:
            result = classify(g)
            if result.tag is TrichotomyTag.PANCYCLIC:
                assert validate_result(g, result) and _per_vertex_validate(g, result)
                checked += 1
    assert checked == 81003
    rng = random.Random(5)
    results = [classify(_full_only(12, s)) for s in range(3)]
    results += [classify(random_no_mono_triangle(12, 5, s)) for s in range(3)]
    strange = (-1, 12, 2**70, 1.0, "a", None, True, 0.0, -13)
    outcomes = collections.Counter()
    for trial in range(500):
        result = rng.choice(results)
        g = result.graph
        ln = rng.randint(4, 12)
        cover = list(result.cycles[ln])
        i = rng.randrange(len(cover))
        cyc = list(cover[i])
        move = rng.randrange(5)
        if move == 0:
            cyc[rng.randrange(ln)] = rng.choice(strange)
        elif move == 1:
            cyc[rng.randrange(ln)] = rng.randrange(12)
        elif move == 2:
            a, b = rng.sample(range(ln), 2)
            cyc[a], cyc[b] = cyc[b], cyc[a]
        elif move == 3:
            cyc.insert(rng.randrange(ln + 1), rng.choice(strange + (rng.randrange(12),)))
        else:
            del cover[i]
            cyc = None
        if cyc is not None:
            cover[i] = tuple(cyc)
        forged = _recovered(result, {ln: tuple(cover)})
        want = _per_vertex_validate(g, forged)
        assert validate_result(g, forged) == want, (trial, ln, cover)
        outcomes[want] += 1
    assert outcomes[True] > 20 and outcomes[False] > 300


def test_validate_result_checks_shared_tuples():
    # classify's covers hold plain vertex tuples; the same covers given as
    # lists still validate, and forgeries of either are rejected alike
    g = _full_only(12, 1)
    result = classify(g)
    as_lists = {ln: tuple([list(c) for c in cover]) for ln, cover in result.cycles.items()}
    for res in (result, dataclasses.replace(result, cycles=as_lists)):
        covers = res.cycles
        assert validate_result(g, res)
        ln = 6
        cover = covers[ln]
        assert not validate_result(g, _recovered(res, {ln: cover[:-1]}))
        longer = covers[ln + 1] + cover[:1]
        assert not validate_result(g, _recovered(res, {ln + 1: longer}))
        bad = type(cover[0])(_non_pc_reordering(g, cover[0]))
        assert not validate_result(g, _recovered(res, {ln: (bad,) + cover[1:]}))


def _seam_results():
    """Tag-(a) results of both routes, at n = 12 and n = 64."""
    graphs = [_full_only(12, 1), random_no_mono_triangle(12, 5, 0), _full_only(64, 0)]
    graphs.append(next(generate(GenSpec("gallai", n=64, seed=0))))
    results = [classify(g) for g in graphs]
    assert all(r.tag is TrichotomyTag.PANCYCLIC for r in results)
    return results


def _checked(g, forged):
    """validate_result's answer, asserted equal to the per-vertex reference's."""
    got = validate_result(g, forged)
    assert got == _per_vertex_validate(g, forged), forged.cycles
    return got


def _runs(ham, ln):
    """(p, the run of ln vertices of ham from position p) for each position p."""
    twice = ham + ham
    return [(p, twice[p : p + ln]) for p in range(len(ham))]


def test_validate_result_tests_a_window_by_its_seam():
    # a run of H is a PC path; put into a cover, it passes exactly when its
    # seam closes it into a PC cycle
    failing = closing = 0
    for result in _seam_results():
        g = result.graph
        n = g.n
        ham = result.cycles[n][0]
        for ln in (4, 5, n // 2, n - 1):
            cover = result.cycles[ln]
            for p, run in _runs(ham, ln)[:16]:
                assert is_window(ham, run)
                closes = is_pc_cycle(g, run)
                for table in ({ln: cover + (run,)}, {ln: (run,) + cover}):
                    assert _checked(g, _recovered(result, table)) is closes, (n, ln, p)
                failing += not closes
                closing += closes
    assert failing > 20 and closing > 20


def test_validate_result_rejects_a_window_holding_a_float_or_bool():
    # 0.0 == 0 and True == 1, so the forged cycle still equals its run of
    # H; only the int test, kept on every cycle, rejects it
    forged = 0
    for result in _seam_results():
        g = result.graph
        n = g.n
        ham = result.cycles[n][0]
        for ln, cover in result.cycles.items():
            for cyc in cover:
                if not is_window(ham, cyc):
                    continue
                for v, fake in ((0, 0.0), (1, True)):
                    if v in cyc:
                        bad = _with_vertex(cyc, cyc.index(v), fake)
                        assert bad == cyc and is_window(ham, bad)
                        table = {ln: (bad,) + cover} if ln < n else {n: (bad,)}
                        assert not _checked(g, _recovered(result, table)), (n, ln, bad)
                        forged += 1
                break
    assert forged > 100


def _window_cover_missing(g, ham, ln, q):
    """Closing runs of ln that avoid position q of ham, if they cover every other position."""
    n = len(ham)
    runs = [
        (p, run)
        for p, run in _runs(ham, ln)
        if (q - p) % n >= ln and is_pc_cycle(g, run)
    ]
    held = {(p + i) % n for p, _run in runs for i in range(ln)}
    return tuple(run for _p, run in runs) if held == set(range(n)) - {q} else None


def test_validate_result_counts_wrapped_windows_and_one_uncovered_position():
    # covers made of windows alone: those that avoid position q of H leave
    # exactly q uncovered and fail; one more closing window through q, one
    # that wraps across H's end when q is 0 or n - 1, makes them pass
    tested = wrapped = 0
    for result in _seam_results():
        g = result.graph
        n = g.n
        ham = result.cycles[n][0]
        for ln in range(4, n):
            for q in (0, n // 2, n - 1):
                rest = _window_cover_missing(g, ham, ln, q)
                if rest is None:
                    continue
                assert not _checked(g, _recovered(result, {ln: rest})), (n, ln, q)
                through = [
                    (p, run)
                    for p, run in _runs(ham, ln)
                    if (q - p) % n < ln and is_pc_cycle(g, run)
                ]
                if not through:
                    continue
                p, run = through[-1]
                for table in ({ln: rest + (run,)}, {ln: (run,) + rest}):
                    assert _checked(g, _recovered(result, table)), (n, ln, q, p)
                tested += 1
                wrapped += p + ln > n
    assert tested > 20 and wrapped > 10


def test_validate_result_reads_a_one_shot_cover_of_length_n_once():
    # covers[n] may be a generator: H is taken from it without losing it,
    # and an empty one answers False instead of raising StopIteration
    for result in _seam_results():
        g = result.graph
        n = g.n
        ham = result.cycles[n][0]
        broken = _with_vertex(ham, 0, ham[1])
        for cycles_n, want in (
            ((ham,), True),
            ((ham, ham[::-1]), True),
            ((ham[::-1],), True),
            ((), False),
            ((broken,), False),
            ((ham, broken), False),
        ):
            for make in (lambda: (c for c in cycles_n), lambda: iter(cycles_n)):
                assert validate_result(g, _recovered(result, {n: make()})) is want
                assert _per_vertex_validate(g, _recovered(result, {n: make()})) is want


def test_validate_result_tests_the_first_cycle_of_length_n_in_full():
    # the first cycle of covers[n] is H, and a forged one fails even when a
    # valid H follows it; a reversed H is a PC Hamilton cycle of its own,
    # and against it no window of the forward H is a window
    for result in _seam_results():
        g = result.graph
        n = g.n
        ham = result.cycles[n][0]
        for bad in (
            tuple(_non_pc_reordering(g, ham)),
            _with_vertex(ham, 0, float(ham[0])),
            _with_vertex(ham, 0, ham[1]),
            ham[:-1],
            ham + (ham[0],),
            tuple(-1 if v == n - 1 else v for v in ham),
        ):
            assert not _checked(g, _recovered(result, {n: (bad, ham)})), bad
        assert _checked(g, _recovered(result, {n: (ham[::-1], ham)}))
        assert _checked(g, _recovered(result, {n: (ham[1:] + ham[:1],)}))
        # -1 for n - 1 in every cycle: m[-1] reads row n - 1, so each cycle
        # passes its color test, and the windows of the forged H are the
        # forged windows; only H's set test rejects the certificate
        swapped = {
            ln: tuple(tuple(-1 if v == n - 1 else v for v in cyc) for cyc in cover)
            for ln, cover in result.cycles.items()
        }
        assert not _checked(g, dataclasses.replace(result, cycles=swapped))


def test_seam_validate_agrees_with_the_per_vertex_check_at_n64():
    # random forgeries of n = 64 certificates of both routes, H included
    # (L = n); runs of H, rotations and reversals exercise the seam test
    # and the full test on valid cycles as well as forged ones
    rng = random.Random(64)
    results = [classify(_full_only(64, s)) for s in range(2)]
    results += [classify(g) for g in generate(GenSpec("gallai", n=64, seed=2, count=2))]
    assert all(r.tag is TrichotomyTag.PANCYCLIC for r in results)
    strange = (-1, 64, 2**70, 1.0, "a", None, True, 0.0, -65)
    outcomes = collections.Counter()
    forged_h = 0
    for trial in range(300):
        result = rng.choice(results)
        g = result.graph
        n = g.n
        ln = n if rng.randrange(4) == 0 else rng.randint(4, n - 1)
        ham = result.cycles[n][0]
        cover = list(result.cycles[ln])
        i = rng.randrange(len(cover))
        cyc = list(cover[i])
        move = rng.randrange(8)
        if move == 0:
            cyc[rng.randrange(ln)] = rng.choice(strange)
        elif move == 1:
            cyc[rng.randrange(ln)] = rng.randrange(n)
        elif move == 2:
            a, b = rng.sample(range(ln), 2)
            cyc[a], cyc[b] = cyc[b], cyc[a]
        elif move == 3:
            cyc.insert(rng.randrange(ln + 1), rng.choice(strange + (rng.randrange(n),)))
        elif move == 4:
            del cover[i]
            cyc = None
        elif move == 5:
            cyc = list(_runs(ham, ln)[rng.randrange(n)][1])
        elif move == 6:
            k = rng.randrange(1, ln)
            cyc = cyc[k:] + cyc[:k]
        else:
            cyc.reverse()
        if cyc is not None:
            cover[i] = tuple(cyc)
        forged_h += ln == n and i == 0
        outcomes[_checked(g, _recovered(result, {ln: tuple(cover)}))] += 1
    assert forged_h > 50
    assert outcomes[True] > 80 and outcomes[False] > 80


def _with_form(result, ham=None, entries=None):
    """result with its window form's H or entries replaced; the rest kept."""
    covers = result.cycles
    ham = covers.ham if ham is None else ham
    entries = covers.entries if entries is None else entries
    return dataclasses.replace(result, cycles=_WindowCovers(ham, entries))


def _form_checked(g, forged):
    """validate_result's answer on a window form, asserted equal to its
    answer on the parsed dict(form) and to the per-vertex reference's."""
    got = validate_result(g, forged)
    assert got == validate_result(g, dataclasses.replace(forged, cycles=dict(forged.cycles)))
    assert got == _per_vertex_validate(g, forged)
    return got


def _form_results():
    """Tag-(a) results of both routes at n = 64, each with a fallback cycle."""
    graphs = [_full_only(64, s) for s in range(3)]
    graphs += list(generate(GenSpec("gallai", n=64, seed=2, count=2)))
    results = [classify(g) for g in graphs]
    for r in results:
        assert type(r.cycles) is _WindowCovers
        assert any(type(e) is tuple for cover in r.cycles.entries for e in cover)
    return results


def test_validate_result_checks_a_tampered_window_form_as_the_per_vertex_check_does():
    # the form's own entries and H, tampered with: each answer is the
    # reference's on the cycles the form stands for, and the parsed
    # dict(form)'s answer
    rng = random.Random(36)
    outcomes = collections.Counter()
    for result in _form_results():
        g = result.graph
        n = g.n
        entries = result.cycles.entries
        assert _form_checked(g, result)
        fallbacks = [
            (i, j) for i, cover in enumerate(entries) for j, e in enumerate(cover) if type(e) is tuple
        ]
        starts = [
            (i, j) for i, cover in enumerate(entries) for j, e in enumerate(cover) if type(e) is int
        ]

        def put(i, j, e):
            cover = entries[i]
            changed = list(entries)
            changed[i] = cover[:j] + (e,) + cover[j + 1 :]
            return _with_form(result, entries=changed)

        for i, j in rng.sample(starts, 12):
            p = entries[i][j]
            for shift in (1, -1, rng.randrange(2, n)):
                outcomes[_form_checked(g, put(i, j, (p + shift) % n))] += 1
            for bad in (n, -1, True, 1.0, n + p):
                assert not _form_checked(g, put(i, j, bad)), (i, bad)
        for i, j in fallbacks:
            cover = entries[i]
            dropped = list(entries)
            dropped[i] = cover[:j] + cover[j + 1 :]
            outcomes[_form_checked(g, _with_form(result, entries=dropped))] += 1
            assert not _form_checked(g, put(i, j, _non_pc_reordering(g, cover[j])))
            assert _form_checked(g, put(i, j, list(cover[j])))  # read with tuple()
        ham = list(result.cycles.ham)
        for _ in range(6):
            a, b = rng.sample(range(n), 2)
            swapped = ham[:]
            swapped[a], swapped[b] = swapped[b], swapped[a]
            outcomes[_form_checked(g, _with_form(result, ham=tuple(swapped)))] += 1
    assert outcomes[True] > 20 and outcomes[False] > 20, outcomes


def test_validate_result_gives_one_verdict_on_the_form_and_on_its_parse():
    # classify's covers in window form, and the same covers as a plain
    # dict of tuples, read back into the form; n = 8 and 16 hold the most
    # fallback cycles
    checked = fallbacks = 0
    specs = [("randomDegenerate", 8, 300), ("randomDegenerate", 16, 150)]
    specs += [("randomDegenerate", 64, 10), ("gallai", 64, 10)]
    for family, n, count in specs:
        for g in generate(GenSpec(family, n=n, seed=0, count=count)):
            result = classify(g)
            if result.tag is not TrichotomyTag.PANCYCLIC:
                continue
            covers = result.cycles
            parsed = dataclasses.replace(result, cycles=dict(covers))
            assert validate_result(g, result) and validate_result(g, parsed), (family, n)
            assert _WindowCovers.read(parsed.cycles, n).entries == covers.entries
            fallbacks += sum(type(e) is tuple for cover in covers.entries for e in cover)
            checked += 1
    assert checked > 400 and fallbacks > 300, (checked, fallbacks)


def test_validate_result_after_classify_builds_no_cover_and_slices_no_window():
    # classify slices only the windows it hands on: on the orientation
    # route mpt_cycles_through's cycles for vertex 0, and on both routes
    # the shorter cycles that fallbacks grew from; validate_result checks
    # the form as it is, so it builds no cover and slices no window
    for g in (_full_only(64, 0), next(generate(GenSpec("gallai", n=64, seed=2)))):
        n = g.n
        result = classify(g)
        covers = result.cycles
        entries = covers.entries
        cut = dict(covers._cut)
        assert cut[n, 0] is covers.ham and covers._built == {}
        grown = {ln - 1 for ln, cover in enumerate(entries, 4) if tuple in map(type, cover)}
        handed = {(n, 0)}
        if degeneracy_status(g).tag is DegeneracyTag.FULL_ONLY:
            q = covers.pos[0]
            for ln, cover in enumerate(entries, 4):
                e = next(e for e in cover if ((q - e) % n < ln if type(e) is int else 0 in e))
                handed.add((ln, e))
        assert grown and all(key in handed or key[0] in grown for key in cut), sorted(cut)
        assert validate_result(g, result)
        assert covers._cut == cut and covers._built == {}
        # reading the covers builds every length, from the windows already sliced
        built = dict(covers)
        assert list(built) == list(range(4, n + 1)) and covers._built == built
        assert all(built[ln][entries[ln - 4].index(p)] is cyc for (ln, p), cyc in cut.items())


def test_copied_and_pickled_covers_are_forms_that_validate_result_accepts():
    # both routes: a copy, a deep copy and a pickle round trip of classify's
    # covers are window forms again, equal to the covers, and they check
    for g in (_full_only(16, 0), next(generate(GenSpec("gallai", n=16, seed=2)))):
        result = classify(g)
        covers = result.cycles
        for again in (copy.copy(covers), copy.deepcopy(covers), pickle.loads(pickle.dumps(covers))):
            assert type(again) is _WindowCovers and again == covers
            assert validate_result(g, dataclasses.replace(result, cycles=again))


def _first_through(cover, v):
    return next(cyc for cyc in cover if v in cyc)


def test_json_entry_is_the_first_cover_cycle_through_each_vertex():
    # both routes at n = 64: the (v, L) entry of the JSON table is the
    # first cycle of L's cover through v; on the full-only route it is
    # also the lift of mpt_cycles_through's L-cycle for v
    full_only = _full_only(64, 0)
    growth = next(generate(GenSpec("gallai", n=64, seed=0)))
    assert degeneracy_status(growth).tag is DegeneracyTag.NON_DEGENERATE
    for g in (growth, full_only):
        result = classify(g)
        assert result.tag is TrichotomyTag.PANCYCLIC and validate_result(g, result)
        # every cover entry is a plain tuple of vertex ints on both routes
        for cover in result.cycles.values():
            assert type(cover) is tuple
            assert all(type(cyc) is tuple and {type(v) for v in cyc} == {int} for cyc in cover)
        table = result.to_json_dict()["certificates"]["cycles"]
        assert list(table) == [str(v) for v in range(64)]
        for v in range(64):
            assert list(table[str(v)]) == [str(ln) for ln in range(4, 65)]
            for ln, cover in result.cycles.items():
                assert table[str(v)][str(ln)] == list(_first_through(cover, v))
    # table is full_only's, from the last pass
    f = degeneracy_status(full_only).certificate.f
    t = reduce_degenerate(full_only, f)
    for v in range(64):
        for ln, dc in mpt_cycles_through(t, v).items():
            assert table[str(v)][str(ln)] == list(lift_cycle(full_only, f, dc))


def test_validate_result_rejects_covers_of_the_wrong_lengths_or_reach():
    g = _full_only(12, 1)
    result = classify(g)
    assert validate_result(g, result)
    n = g.n
    # one (n-1)-cycle misses exactly one vertex
    (first, *rest) = result.cycles[n - 1]
    assert rest and len(set(range(n)) - set(first)) == 1
    assert not validate_result(g, _recovered(result, {n - 1: (first,)}))
    # a missing length, and an extra length 3 or n + 1
    for ln in (4, 7, n):
        covers = dict(result.cycles)
        del covers[ln]
        assert not validate_result(g, dataclasses.replace(result, cycles=covers)), ln
    triangle = ((0, 1, 2),)
    assert not validate_result(g, _recovered(result, {3: triangle}))
    assert not validate_result(g, _recovered(result, {n + 1: result.cycles[n]}))
    # keys of mixed type answer False rather than raise
    assert not validate_result(g, _recovered(result, {"04": result.cycles[4]}))
    mixed = {("04" if ln == 4 else ln): cover for ln, cover in result.cycles.items()}
    assert not validate_result(g, dataclasses.replace(result, cycles=mixed))


def test_validate_result_rejects_malformed_degenerate_sets_and_relabels(double_pentagon):
    # tag (b) and (c) certificates of another shape answer False, as tag (a)
    # tables do, instead of raising
    g = double_pentagon
    assert not DegeneracyCertificate(frozenset({0}), None).check(g)
    for cert in (
        DegeneracyCertificate(None, {}),
        DegeneracyCertificate([[1]], {}),
        {"S": [0], "f": {0: 0}},
        None,
    ):
        forged = TrichotomyResult(TrichotomyTag.PROPER_DEGENERATE, g, certificate=cert)
        assert not validate_result(g, forged), cert
    result = classify(g)
    assert result.tag is TrichotomyTag.EXCEPTIONAL_K5 and validate_result(g, result)
    for relabel in (
        {0: 0, 1: 1, 2: 2, 3: 3, "x": 4},
        {0: 0, 1: 1, 2: 2, 3: 3, 4: "x"},
        {0: 0, 1: 1, 2: 2, 3: 3, 4: [4]},
        [0, 1, 2, 3, 4],
        None,
    ):
        forged = dataclasses.replace(result, relabel=relabel)
        assert not validate_result(g, forged), relabel


def test_validate_result_rejects_non_bijective_relabel():
    # the canonical matrix pulled back along a relabel that merges 0 and 1;
    # edge 01 then has no canonical color and gets a third one
    relabel = {0: 0, 1: 0, 2: 1, 3: 2, 4: 3}
    canon = double_pentagon_matrix()
    g = build(
        5,
        [
            (u, v, 7 if (u, v) == (0, 1) else canon[relabel[u]][relabel[v]])
            for u, v in itertools.combinations(range(5), 2)
        ],
    )
    assert classify(g).tag is TrichotomyTag.PANCYCLIC
    forged = TrichotomyResult(TrichotomyTag.EXCEPTIONAL_K5, g, relabel=relabel)
    assert not validate_result(g, forged)


def test_degeneracy_certificate_rejects_vertices_outside_graph():
    # vertex 4 is a monochromatic star of the top color, so index -1 would
    # read its row
    k4 = {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3}
    g = build(5, [(u, v, c) for (u, v), c in k4.items()] + [(u, 4, 9) for u in range(4)])
    assert DegeneracyCertificate(frozenset({4}), {4: 9}).check(g)
    for vertex in (-1, 7):
        cert = DegeneracyCertificate(frozenset({vertex}), {vertex: 9})
        assert not cert.check(g)
        forged = TrichotomyResult(TrichotomyTag.PROPER_DEGENERATE, g, certificate=cert)
        assert not validate_result(g, forged)


def test_classify_certificates_validate_random():
    pool = random_instance_pool(50, sizes=(4, 5, 6, 7), seed=23)
    for g in pool:
        result = classify(g)
        assert validate_result(g, result)
        if result.tag is TrichotomyTag.PANCYCLIC:
            assert is_pancyclic_from(g)


def test_classify_agrees_with_oracle_exhaustive_k4():
    from pcgraph.detect import find_monochromatic_triangle

    for g in exhaustive_colorings(4):
        if find_monochromatic_triangle(g) is not None:
            continue
        result = classify(g)
        assert (result.tag is TrichotomyTag.PANCYCLIC) == is_pancyclic_from(g)


def test_side_conditions_examples(double_pentagon, directed_example, rainbow_k4):
    rep = side_conditions(double_pentagon, classify(double_pentagon))
    assert not rep.color_degree_meets_half  # min color degree 2 < 3
    assert not rep.mono_degree_below_half  # max mono degree 2 >= 2
    assert rep.exception_bounds_hold

    rep_b = side_conditions(directed_example, classify(directed_example))
    assert rep_b.exception_bounds_hold and not rep_b.color_degree_meets_half

    rep_a = side_conditions(rainbow_k4, classify(rainbow_k4))
    assert rep_a.color_degree_meets_half  # 2*3 >= 5
    assert rep_a.mono_degree_below_half  # 1 < 2
    assert rep_a.pancyclic_when_mono_low is True


def test_side_conditions_mismatch(double_pentagon, rainbow_k4):
    with pytest.raises(ResultMismatch):
        side_conditions(rainbow_k4, classify(double_pentagon))


def test_result_json_schema(double_pentagon, directed_example, rainbow_k4):
    import json

    for g in (double_pentagon, directed_example, rainbow_k4):
        doc = json.loads(classify(g).to_json())
        assert set(doc) == {"tag", "certificates"}
        assert doc["tag"] in ("a", "b", "c")
    doc = json.loads(classify(directed_example).to_json())
    assert doc["certificates"]["degenerate_set"]["S"] == [0, 1, 2]


def test_exception_is_unique_double_pentagon():
    # the only 2-colored mono-triangle-free K5s are the double pentagons, and
    # all of them classify (c)
    count = 0
    from pcgraph.detect import find_monochromatic_triangle

    for g in exhaustive_colorings(5):
        if g.num_colors != 2 or find_monochromatic_triangle(g) is not None:
            continue
        count += 1
        assert is_double_pentagon_k5(g) is not None
        assert classify(g).tag is TrichotomyTag.EXCEPTIONAL_K5
    # K5 has 12 Hamiltonian cycles pairing up with their complements, giving
    # 6 partitions into two pentagon classes
    assert count == 6
