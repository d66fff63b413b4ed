import collections
import itertools
import random

import pytest

from helpers import is_window, random_multipartite_tournament, random_tournament

import pcgraph.tournaments as tournaments_mod
from pcgraph.cycles import is_pc_cycle
from pcgraph.detect import DegeneracyTag, degeneracy_status
from pcgraph.errors import (
    CycleNotInDigraph,
    FiberTooLarge,
    IncompatibleFunction,
    NotATournament,
    NotStronglyConnected,
    PreconditionViolated,
)
from pcgraph.families import (
    GenSpec,
    example_directed,
    generate,
    random_degenerate,
    random_fibers,
)
from pcgraph.oracles import directed_cycle_lengths
from pcgraph.tournaments import (
    MultipartiteTournament,
    cycles_through,
    is_directed_cycle,
    is_strongly_connected,
    lift_cycle,
    mpt_cycles_through,
    reduce_degenerate,
)
from pcgraph.trichotomy import TrichotomyTag, classify


def directed_triangle():
    return MultipartiteTournament.tournament(3, [(0, 1), (1, 2), (2, 0)])


def transitive(n):
    return MultipartiteTournament.tournament(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


def test_strong_connectivity():
    assert is_strongly_connected(directed_triangle())
    assert not is_strongly_connected(transitive(4))
    assert is_strongly_connected(MultipartiteTournament.tournament(1, []))


def test_construction_validation():
    with pytest.raises(PreconditionViolated):
        MultipartiteTournament([(0, 1, 2)], [])  # part too large
    with pytest.raises(PreconditionViolated):
        MultipartiteTournament([(0, 1), (2,)], [(0, 1), (0, 2), (1, 2)])  # intra-part arc
    with pytest.raises(PreconditionViolated):
        MultipartiteTournament([(0,), (1,)], [])  # missing arc
    with pytest.raises(PreconditionViolated):
        MultipartiteTournament([(0,), (1,)], [(0, 1), (1, 0)])  # both directions


def test_construction_rejects_non_int_vertices():
    ok = [(0, 1), (1, 2), (2, 0)]
    assert MultipartiteTournament([(0,), (1,), (2,)], ok).n == 3
    for parts, arcs in (
        ([(0,), (1,), (2,)], [(0, 1), (1, 2.5), (2, 0)]),
        ([(0,), (1,), (2,)], [(0, 1), (1.0, 2), (2, 0)]),
        ([(0,), (1,), (2,)], [(0, 1), (1, "2"), (2, 0)]),
        ([(0,), (1,), (2,)], [(0, 1), (1, None), (2, 0)]),
        ([(0,), (1.0,), (2,)], ok),
        ([(0,), ("1",), (2,)], ok),
        ([(0, 1.0), (2,)], [(0, 2), (2, 1)]),
    ):
        with pytest.raises(PreconditionViolated):
            MultipartiteTournament(parts, arcs)


def test_malformed_input_raises_precondition_violated():
    three = [(0,), (1,), (2,)]
    with pytest.raises(PreconditionViolated, match="^arcs: bad arc"):
        MultipartiteTournament(three, [(0, 1, 2)])
    with pytest.raises(PreconditionViolated, match="^parts:"):
        MultipartiteTournament(5, [])
    with pytest.raises(PreconditionViolated, match="^parts:"):
        MultipartiteTournament((), ())
    with pytest.raises(PreconditionViolated, match="^arcs:"):
        MultipartiteTournament(three, ())
    # the non-iterable arcs value is named, not a "bad arc None"
    with pytest.raises(PreconditionViolated, match="^arcs: not a sequence of arcs: 7$"):
        MultipartiteTournament([[0], [1]], 7)
    with pytest.raises(PreconditionViolated, match="^arcs: bad arc None$"):
        MultipartiteTournament([[0], [1]], [None])


def test_missing_arc_is_named():
    with pytest.raises(PreconditionViolated, match=r"no arc for pair \(1,3\)"):
        MultipartiteTournament([(0,), (1,), (2,), (3,)], [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    with pytest.raises(PreconditionViolated, match=r"no arc for pair \(0,2\)"):
        MultipartiteTournament([(0, 1), (2,), (3,)], [(1, 2), (0, 3), (1, 3), (2, 3)])


def test_arc_checks_reject_vertices_outside_the_digraph():
    t = random_tournament(5, 3)
    cyc = cycles_through(t, 0)[3]
    assert is_directed_cycle(t, cyc)
    for bad in (-1, 5, 2.0, "1", None, [0]):
        for at in range(3):
            seq = cyc[:at] + (bad,) + cyc[at + 1 :]
            assert is_directed_cycle(t, seq) is False
        with pytest.raises(PreconditionViolated, match="vertex"):
            t.has_arc(0, bad)
        with pytest.raises(PreconditionViolated, match="vertex"):
            t.has_arc(bad, 0)
        with pytest.raises(PreconditionViolated, match="vertex"):
            t.out_neighbors(bad)
    assert is_directed_cycle(t, (0, 1, -1)) is False
    assert is_directed_cycle(t, (5, 0, 1)) is False
    assert is_directed_cycle(t, (0, 1, 2.0)) is False
    assert t.has_arc(cyc[0], cyc[1]) and not t.has_arc(cyc[1], cyc[0])
    # -1 once read the last vertex's row
    triangle = directed_triangle()
    assert triangle.out_neighbors(2) == (0,)
    for bad in (-1, 3, "a"):
        with pytest.raises(PreconditionViolated, match="vertex"):
            triangle.out_neighbors(bad)


def test_cycles_through_triangle():
    got = cycles_through(directed_triangle(), 0)
    assert set(got) == {3}
    assert got[3] == (0, 1, 2)


def test_cycles_through_errors():
    with pytest.raises(NotStronglyConnected):
        cycles_through(transitive(4), 0)
    t = MultipartiteTournament([(0, 1), (2,), (3,)], [(0, 2), (2, 1), (1, 3), (3, 0), (2, 3)])
    with pytest.raises(NotATournament):
        cycles_through(t, 0)


def test_tournament_cycles_match_oracle():
    # random strong tournaments: constructed lengths must be exactly 3..n and
    # agree with exhaustive enumeration
    for seed in range(25):
        n = 3 + seed % 6  # 3..8
        t = random_tournament(n, seed)
        for v in range(n):
            got = cycles_through(t, v)
            assert set(got) == set(range(3, n + 1))
            for ln, cyc in got.items():
                assert len(cyc) == ln and v in cyc and is_directed_cycle(t, cyc)
            assert directed_cycle_lengths(t, v) == set(range(3, n + 1))


def test_mpt_quadrangle_example():
    # one 2-part {0,1} and singletons 2,3 wired around the pair
    t = MultipartiteTournament(
        [(0, 1), (2,), (3,)], [(0, 2), (2, 1), (1, 3), (3, 0), (2, 3)]
    )
    got = mpt_cycles_through(t, 0)
    assert got[4] == (0, 2, 1, 3)


def test_mpt_all_singletons_matches_tournament_route():
    t = random_tournament(5, 77)
    full = cycles_through(t, 2)
    mpt = mpt_cycles_through(t, 2)
    assert set(mpt) == {4, 5}
    assert set(full) - set(mpt) == {3}
    # lengths 4..n come from the one shared table
    assert all(full[ln] is mpt[ln] for ln in mpt)


def test_mpt_rejects_violations():
    t = MultipartiteTournament(
        [(0, 1), (2,), (3,)], [(0, 2), (1, 2), (2, 3), (3, 0), (3, 1)]
    )
    assert is_strongly_connected(t)
    with pytest.raises(PreconditionViolated, match="disjointness"):
        mpt_cycles_through(t, 0)
    small = directed_triangle()
    with pytest.raises(PreconditionViolated, match="size"):
        mpt_cycles_through(small, 0)
    with pytest.raises(PreconditionViolated, match="connectivity"):
        mpt_cycles_through(transitive(5), 0)


def test_orientation_checked_once_per_classification(monkeypatch):
    g, _f = random_degenerate(16, random_fibers(16, 0), 0)
    assert degeneracy_status(g).tag is DegeneracyTag.FULL_ONLY
    real = tournaments_mod.is_strongly_connected
    calls = []

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(tournaments_mod, "is_strongly_connected", counted)
    assert classify(g).tag is TrichotomyTag.PANCYCLIC
    assert len(calls) == 1


def test_mpt_precondition_failures_raise_on_every_call(monkeypatch):
    # nothing is remembered about a failed precondition: each call checks
    # again, in order, and raises again
    searches = []

    def counted(label, fn):
        def wrapped(t):
            searches.append(label)
            return fn(t)

        return wrapped

    monkeypatch.setattr(
        tournaments_mod,
        "is_strongly_connected",
        counted("strong", tournaments_mod.is_strongly_connected),
    )
    monkeypatch.setattr(
        MultipartiteTournament,
        "disjointness_violation",
        counted("disjoint", MultipartiteTournament.disjointness_violation),
    )
    not_strong = transitive(5)
    for _ in range(2):
        with pytest.raises(PreconditionViolated, match="connectivity"):
            mpt_cycles_through(not_strong, 0)
    assert searches == ["strong", "strong"]
    searches.clear()
    violating = MultipartiteTournament(
        [(0, 1), (2,), (3,)], [(0, 2), (1, 2), (2, 3), (3, 0), (3, 1)]
    )
    for _ in range(2):
        with pytest.raises(PreconditionViolated, match="disjointness"):
            mpt_cycles_through(violating, 0)
    assert searches == ["strong", "disjoint"] * 2


def test_filled_table_skips_precondition_searches(monkeypatch):
    # the first call fills the table, which shows the preconditions held (t is
    # immutable); the calls for every other vertex make no search
    searches = []

    def counted(label, fn):
        def wrapped(t):
            searches.append(label)
            return fn(t)

        return wrapped

    monkeypatch.setattr(
        tournaments_mod,
        "is_strongly_connected",
        counted("strong", tournaments_mod.is_strongly_connected),
    )
    monkeypatch.setattr(
        MultipartiteTournament,
        "disjointness_violation",
        counted("disjoint", MultipartiteTournament.disjointness_violation),
    )
    first_call = {
        cycles_through: ["strong", "strong", "disjoint"],
        mpt_cycles_through: ["strong", "disjoint"],
    }
    for through, want in first_call.items():
        t = random_tournament(64, 0)
        searches.clear()
        through(t, 0)
        assert searches == want
        for v in range(64):
            assert v in through(t, v)[4]
        assert searches == want


def test_mpt_quadrangle_long_return_path():
    # anchor 4 dominates the whole hub {0,1,2,3} and the only arc leaving the
    # hub starts a 3-step path back: the d >= 3 case of the existence proof
    # in _quadrangle_through
    arcs = [
        (0, 2), (3, 0), (4, 0), (0, 5), (6, 0), (7, 0),
        (2, 1), (1, 3), (4, 1), (5, 1), (6, 1), (7, 1),
        (3, 2), (4, 2), (5, 2), (6, 2), (7, 2),
        (4, 3), (5, 3), (6, 3), (7, 3),
        (4, 5), (4, 6), (7, 4),
        (5, 6), (7, 5),
        (6, 7),
    ]
    t = MultipartiteTournament([(0, 1)] + [(v,) for v in range(2, 8)], arcs)
    assert t.disjointness_violation() is None and is_strongly_connected(t)
    got = mpt_cycles_through(t, 4)
    assert set(got) == set(range(4, 9))
    for ln, cyc in got.items():
        assert len(cyc) == ln and 4 in cyc and is_directed_cycle(t, cyc)


def test_mpt_cycles_random_instances():
    for seed in range(30):
        total = 4 + seed % 5  # 4..8
        t = random_multipartite_tournament(total, seed)
        for v in range(total):
            got = mpt_cycles_through(t, v)
            assert set(got) == set(range(4, total + 1))
            for ln, cyc in got.items():
                assert len(cyc) == ln and v in cyc and is_directed_cycle(t, cyc)
            oracle = {ln for ln in directed_cycle_lengths(t, v) if ln >= 4}
            assert oracle == set(got)


def _copy(t):
    return MultipartiteTournament(**t.to_json_dict())


def test_mpt_cycles_do_not_depend_on_call_order():
    # the cycle table t remembers is filled the same way whichever vertex
    # asks first, so a vertex's cycles on a fresh t match those read after
    # every other vertex was asked for, in shuffled order
    rng = random.Random(11)
    cases = []
    for seed in range(12):
        n = 6 + seed % 11  # 6..16
        cases.append(random_multipartite_tournament(n, seed))
        g, f = random_degenerate(n, random_fibers(n, seed), seed)
        t = reduce_degenerate(g, f)
        if is_strongly_connected(t) and t.disjointness_violation() is None:
            cases.append(t)
    assert len(cases) > 18
    for t in cases:
        order = list(range(t.n))
        rng.shuffle(order)
        warm = _copy(t)
        after = {v: mpt_cycles_through(warm, v) for v in order}
        for v in range(t.n):
            fresh = mpt_cycles_through(_copy(t), v)
            assert fresh == after[v]
            assert list(fresh) == list(range(4, t.n + 1))
            for ln, cyc in fresh.items():
                assert len(cyc) == ln and v in cyc and is_directed_cycle(t, cyc)


def test_mpt_cycles_share_one_cycle_per_covered_vertex():
    g, f = random_degenerate(12, random_fibers(12, 3), 3)
    t = reduce_degenerate(g, f)
    assert is_strongly_connected(t) and t.disjointness_violation() is None
    tables = [mpt_cycles_through(t, v) for v in range(t.n)]
    # the Hamilton cycle starts at vertex 0 and each walk at its position,
    # so each of vertex 0's cycles is the first cover cycle through every
    # vertex on it; in particular one Hamilton cycle serves every vertex
    for ln, cyc in tables[0].items():
        assert all(tables[w][ln] is cyc for w in cyc)
    assert len({id(table[t.n]) for table in tables}) == 1


def test_mpt_table_covers_each_length_with_few_cycles():
    # 64 * 61 = 3,904 (vertex, length) entries; covers need at least
    # sum(ceil(64 / L)) = 219 cycles with 5,162 vertex slots.  A fill that
    # ignores coverage builds about 1,000 cycles with about 17,600 slots,
    # and windows of one Hamilton cycle about 234 with about 5,300
    for g in generate(GenSpec("randomDegenerate", n=64, seed=0, count=5)):
        st = degeneracy_status(g)
        assert st.tag is DegeneracyTag.FULL_ONLY
        t = reduce_degenerate(g, st.certificate.f)
        for v in range(t.n):
            for ln, cyc in mpt_cycles_through(t, v).items():
                assert len(cyc) == ln and v in cyc
        built = [cyc for cover in t.cycle_covers().values() for cyc in cover]
        assert len(built) <= 250
        assert sum(map(len, built)) <= 5500
        assert all(is_directed_cycle(t, cyc) for cyc in built)


def _vertex_mask(cyc):
    return sum(1 << w for w in cyc)


def _fallback(t, covers, ln, u):
    """The cycle the proved rules give u at length ln when no window holds it."""
    if ln == 4:
        return tournaments_mod._quadrangle_through(t, u)
    cur = next(cyc for cyc in covers[ln - 1] if u in cyc)
    return tournaments_mod._extend_cycle(t, cur, u, _vertex_mask(cur))[0]


def test_cycle_covers_are_windows_of_one_hamilton_cycle():
    # each length's cover, read through cycle_covers, covers V by directed
    # L-cycles, and the first one through v is what mpt_cycles_through hands
    # out for v.  Every cycle is a run of consecutive vertices of the
    # Hamilton cycle cover[n][0], or else the fallback the proved rules give
    # a vertex that no earlier cycle of its cover holds
    windows = fallbacks = 0
    for seed in range(6):
        n = 8 + 4 * seed
        g, f = random_degenerate(n, random_fibers(n, seed), seed)
        t = reduce_degenerate(g, f)
        if not (is_strongly_connected(t) and t.disjointness_violation() is None):
            continue
        assert t.cycle_covers() == {ln: () for ln in range(4, n + 1)}
        mpt_cycles_through(t, n - 1)
        covers = t.cycle_covers()
        assert list(covers) == list(range(4, n + 1))
        (ham,) = covers[n]
        for ln, cover in covers.items():
            assert set().union(*cover) == set(range(n))
            assert all(len(cyc) == ln and is_directed_cycle(t, cyc) for cyc in cover)
            for i, cyc in enumerate(cover):
                # each cycle holds a vertex that no earlier one covers
                earlier = set().union(*cover[:i])
                assert not set(cyc) <= earlier
                if is_window(ham, cyc):
                    windows += 1
                else:
                    fallbacks += 1
                    assert any(cyc == _fallback(t, covers, ln, u) for u in cyc if u not in earlier)
        for v in range(n):
            got = mpt_cycles_through(t, v)
            assert got == {ln: next(c for c in cover if v in c) for ln, cover in covers.items()}
    assert windows > 0 and fallbacks > 0


def test_mpt_cycles_reject_unknown_vertex():
    t = random_multipartite_tournament(6, 1)
    for v in (-1, 6, 1.5, "0", None):
        with pytest.raises(PreconditionViolated, match="vertex"):
            mpt_cycles_through(t, v)
    strong4 = random_tournament(4, 0)
    for v in (-1, 4, 1.5, "0", None):
        with pytest.raises(PreconditionViolated, match="vertex"):
            cycles_through(strong4, v)


def _size_one_or_two_partitions(vertices):
    if not vertices:
        yield []
        return
    first, rest = vertices[0], vertices[1:]
    for tail in _size_one_or_two_partitions(rest):
        yield [(first,)] + tail
    for i, partner in enumerate(rest):
        for tail in _size_one_or_two_partitions(rest[:i] + rest[i + 1 :]):
            yield [(first, partner)] + tail


def test_mpt_cycles_exhaustive_small_orders():
    # every labeled multipartite tournament of order 4 and 5 that meets the
    # preconditions, over all part structures and all arc orientations
    checked = 0
    for n in (4, 5):
        for parts in _size_one_or_two_partitions(tuple(range(n))):
            part_of = {v: i for i, p in enumerate(parts) for v in p}
            pairs = [
                (u, w)
                for u, w in itertools.combinations(range(n), 2)
                if part_of[u] != part_of[w]
            ]
            for flips in itertools.product((False, True), repeat=len(pairs)):
                arcs = [(w, u) if flip else (u, w) for (u, w), flip in zip(pairs, flips)]
                t = MultipartiteTournament(parts, arcs)
                if not is_strongly_connected(t) or t.disjointness_violation() is not None:
                    continue
                checked += 1
                for v in range(n):
                    got = mpt_cycles_through(t, v)
                    assert set(got) == set(range(4, n + 1))
                    for ln, cyc in got.items():
                        assert len(cyc) == ln and v in cyc and is_directed_cycle(t, cyc)
    assert checked == 1678


def _random_cycles_through(t, v, min_len, rng, walks=6):
    """Directed cycles through v read off random walks from v."""
    out = []
    for _ in range(walks):
        path = [v]
        while True:
            steps = [w for w in t.out_neighbors(path[-1]) if w not in path]
            if not steps:
                break
            path.append(rng.choice(steps))
            if len(path) >= min_len and t.has_arc(path[-1], v):
                out.append(tuple(path))
    return out


def _first_extension(t, cyc, v):
    """Plain scan in _extend_cycle's rule order: first position, smallest vertices.

    Any insertion comes first, then the swap.
    """
    ln = len(cyc)
    outside = [w for w in range(t.n) if w not in cyc]
    for i in range(ln):
        for w in outside:
            if t.has_arc(cyc[i], w) and t.has_arc(w, cyc[(i + 1) % ln]):
                return cyc[: i + 1] + (w,) + cyc[i + 1 :]
    for i in range(ln):
        if cyc[i] == v:
            continue
        for x in outside:
            if t.has_arc(cyc[i - 1], x):
                for z in outside:
                    if t.has_arc(x, z) and t.has_arc(z, cyc[(i + 1) % ln]):
                        return cyc[:i] + (x, z) + cyc[i + 1 :]
    return None


def test_extend_cycle_is_complete():
    # insertion-or-swap extends any directed cycle through v, not only the
    # cycles the classifier grows: length >= 4 under mpt_cycles_through's
    # preconditions, length >= 3 in strong tournaments.  The bitmask scan
    # must pick what a plain scan in vertex order picks.
    rng = random.Random(4)
    cases = []
    for seed in range(40):
        cases.append((random_multipartite_tournament(5 + seed % 6, seed), 4))
        cases.append((random_tournament(4 + seed % 7, seed), 3))
        n = 6 + seed % 11
        g, f = random_degenerate(n, random_fibers(n, seed), seed)
        t = reduce_degenerate(g, f)
        if is_strongly_connected(t) and t.disjointness_violation() is None:
            cases.append((t, 4))
    cycles = swaps = 0
    for t, min_len in cases:
        for v in range(t.n):
            for cyc in _random_cycles_through(t, v, min_len, rng):
                if len(cyc) == t.n:
                    continue
                got = tournaments_mod._extend_cycle(t, cyc, v, _vertex_mask(cyc))[0]
                assert len(got) == len(cyc) + 1 and v in got and is_directed_cycle(t, got)
                assert got == _first_extension(t, cyc, v)
                cycles += 1
                swaps += not set(cyc) <= set(got)
    assert cycles > 5000 and swaps > 0


def test_extend_cycle_swap_tries_every_dominated_vertex():
    # C = 0 -> 1 -> 2 -> 0 dominates 3 and 4, and 5 dominates C, so nothing
    # inserts.  The swap out of vertex 1 tries 3 first, which reaches no
    # vertex dominating 2, and then 4 -> 5.  The vertex mask returned beside
    # the cycle is the swapped cycle's
    arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    arcs += [(c, d) for c in range(3) for d in (3, 4)] + [(5, c) for c in range(3)]
    t = MultipartiteTournament.tournament(6, arcs)
    assert is_strongly_connected(t)
    got = tournaments_mod._extend_cycle(t, (0, 1, 2), 0, 0b111)
    assert got == ((0, 4, 5, 2), _vertex_mask((0, 4, 5, 2)))
    assert got[0] == _first_extension(t, (0, 1, 2), 0)


def _first_quadrangle(t, v):
    """Plain scan v -> a -> b -> c -> v in vertex order."""
    out = t.out_neighbors
    return next(
        (v, a, b, c)
        for a in out(v)
        for b in out(a)
        for c in out(b)
        if t.has_arc(c, v)
    )


def test_direct_searches_pick_the_smallest_vertices():
    for seed in range(30):
        t = random_tournament(4 + seed % 6, seed)
        out = t.out_neighbors
        for v in range(t.n):
            want = next((v, a, b) for a in out(v) for b in out(a) if t.has_arc(b, v))
            assert tournaments_mod._triangle_through(t, v) == want
        for t in (t, random_multipartite_tournament(5 + seed % 6, seed)):
            for v in range(t.n):
                got = tournaments_mod._quadrangle_through(t, v)
                assert got == _first_quadrangle(t, v)
                assert is_directed_cycle(t, got)
    t = MultipartiteTournament(
        [(0, 1), (2,), (3,)], [(0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    )
    assert t.disjointness_violation() == (0, 1, 2)


def test_reduce_degenerate_arcs():
    g, f = random_degenerate(7, [(0, 1), (2,), (3, 4), (5,), (6,)], seed=4)
    t = reduce_degenerate(g, f)
    expected_arcs = sum(1 for u in range(7) for v in range(u + 1, 7) if f[u] != f[v])
    assert sum(1 for _ in t.arcs()) == expected_arcs
    assert t.disjointness_violation() is None
    for u, v in t.arcs():
        assert g.color(u, v) == f[u] != f[v]


def test_reduce_degenerate_fiber_roles():
    g = example_directed(6)
    # {0,1,2} colored 1,2,3 with f matching their spoke colors reduces to a
    # directed triangle on the inner vertices when restricted there
    from pcgraph import build

    inner = build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    t = reduce_degenerate(inner, {0: 1, 1: 2, 2: 3})
    assert set(t.arcs()) == {(0, 1), (1, 2), (2, 0)}


def test_reduce_degenerate_errors():
    from pcgraph import build

    g = build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    with pytest.raises(IncompatibleFunction, match=r"\(1,2\)"):
        reduce_degenerate(g, {0: 1, 1: 1, 2: 3})
    # every cross edge fits, so only the 2-fiber's own edge is wrong; its
    # value is a color of g, then one that colors no edge
    g = build(3, [(0, 1, 5), (0, 2, 1), (1, 2, 1)])
    for f in ({0: 1, 1: 1, 2: 9}, {0: 7, 1: 7, 2: 1}):
        with pytest.raises(IncompatibleFunction, match=r"^edge \(0,1\) has color 5 "):
            reduce_degenerate(g, f)
    mono = build(3, [(0, 1, 5), (1, 2, 5), (0, 2, 5)])
    with pytest.raises(Exception) as err:
        reduce_degenerate(mono, {0: 5, 1: 5, 2: 5})
    assert "fiber" in str(err.value).lower()


def test_reduce_degenerate_rejects_malformed_maps():
    g, f = random_degenerate(6, random_fibers(6, 2), 2)
    for bad in (None, 5, {**f, 0: [1]}, {**f, 3: {}}, {v: f[v] for v in range(5)}):
        with pytest.raises(IncompatibleFunction):
            reduce_degenerate(g, bad)


def _reference_reduce(g, f):
    """Arc-list orientation by a plain g.color loop over pairs in lexicographic order."""
    n = g.n
    for v in range(n):
        if v not in f:
            raise IncompatibleFunction(f"f is missing vertex {v}")
    fibers = {}
    for v in range(n):
        fibers.setdefault(f[v], []).append(v)
    for value, members in fibers.items():
        if len(members) > 2:
            raise FiberTooLarge(
                f"fiber of color {value} has {len(members)} vertices {members}; "
                "this forces a monochromatic triangle"
            )
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            c = g.color(u, v)
            if c != f[u] and c != f[v]:
                raise IncompatibleFunction(f"edge ({u},{v}) has color {c} not in f values")
            if f[u] != f[v]:
                arcs.append((u, v) if c == f[u] else (v, u))
    return MultipartiteTournament(sorted(fibers.values(), key=min), arcs)


def _same_digraph(t, ref):
    assert t.n == ref.n and t.parts == ref.parts and t.part_of == ref.part_of
    assert t._outmask == ref._outmask and t._inmask == ref._inmask
    assert all(t.out_neighbors(u) == ref.out_neighbors(u) for u in range(t.n))
    assert list(t.arcs()) == list(ref.arcs())


def test_reduce_degenerate_matches_the_arc_list_reference():
    fresh_value = 0
    for n in list(range(5, 17)) + [32, 64]:
        for seed in range(20):
            g, f = random_degenerate(n, random_fibers(n, seed), seed)
            _same_digraph(reduce_degenerate(g, f), _reference_reduce(g, f))
            fresh_value += any(f[v] not in g.palette for v in range(n))
    # a singleton whose value colors no edge has no slot in the mask table
    assert fresh_value > 0


def test_reduce_degenerate_names_the_reference_first_bad_pair():
    # corrupt 1-3 values of a compatible map, to another color of g or to a
    # value no edge carries; both sides must fail alike, or agree on t.  The
    # colors are relabeled so that no color id equals its dense index
    from pcgraph import build

    rng = random.Random(9)
    named = agreed = 0
    for trial in range(400):
        n = rng.choice([5, 6, 8, 11, 16, 32])
        g, f = random_degenerate(n, random_fibers(n, trial), trial)
        g = build(n, [(u, v, 3 * c + 5) for u, v, c in g.edges()])
        bad = {v: 3 * c + 5 for v, c in f.items()}
        for v in rng.sample(range(n), rng.randint(1, 3)):
            bad[v] = rng.choice(sorted(g.palette) + [10**6 + v])
        try:
            want = _reference_reduce(g, bad)
        except (IncompatibleFunction, FiberTooLarge) as err:
            with pytest.raises(type(err)) as got:
                reduce_degenerate(g, bad)
            assert str(got.value) == str(err)
            named += isinstance(err, IncompatibleFunction)
        else:
            _same_digraph(reduce_degenerate(g, bad), want)
            agreed += 1
    assert named > 200 and agreed > 0


def test_lift_cycle_is_pc():
    g, f = random_degenerate(8, [(0, 1), (2, 3), (4,), (5,), (6,), (7,)], seed=5)
    t = reduce_degenerate(g, f)
    if not is_strongly_connected(t):
        pytest.skip("orientation not strong for this seed")
    for v in range(8):
        for ln, cyc in mpt_cycles_through(t, v).items():
            lifted = lift_cycle(g, f, cyc)
            assert is_pc_cycle(g, lifted)
            assert len(lifted) == ln


def test_lift_cycle_rejects_non_cycles():
    g, f = random_degenerate(6, [(0,), (1,), (2,), (3,), (4,), (5,)], seed=6)
    with pytest.raises(CycleNotInDigraph):
        lift_cycle(g, f, (0, 0, 1))
    t = reduce_degenerate(g, f)
    u, v = next(iter(t.arcs()))
    w = next(x for x in range(6) if x not in (u, v))
    with pytest.raises(CycleNotInDigraph):
        # (v, u) traverses the arc backwards, so it cannot be an arc itself
        lift_cycle(g, f, (v, u, w))


def test_lift_cycle_rejects_vertices_outside_the_graph():
    g, f = random_degenerate(6, [(0,), (1,), (2,), (3,), (4,), (5,)], seed=6)
    t = reduce_degenerate(g, f)
    cyc = mpt_cycles_through(t, 0)[4]
    assert lift_cycle(g, f, cyc) == cyc
    for bad in (6, -1, 2.0, "1", None):
        for at in range(4):
            seq = cyc[:at] + (bad,) + cyc[at + 1 :]
            with pytest.raises(CycleNotInDigraph):
                lift_cycle(g, f, seq)
    with pytest.raises(CycleNotInDigraph):
        lift_cycle(g, f, cyc + (6,))


def test_lift_cycle_rejects_a_bool_vertex():
    # False and True index m and f as 0 and 1, so every arc of these
    # cycles would pass; the type test names the bool as no vertex
    g, f = random_degenerate(8, random_fibers(8, 1), 1)
    t = reduce_degenerate(g, f)
    for v, flag in ((0, False), (1, True)):
        for cyc in mpt_cycles_through(t, v).values():
            assert lift_cycle(g, f, cyc) == cyc
            forged = tuple(flag if w == v else w for w in cyc)
            assert forged == cyc  # equal as values, and a bool is an int to isinstance
            with pytest.raises(CycleNotInDigraph, match="outside"):
                lift_cycle(g, f, forged)
            # outside, not f's fault, though f lacks the vertex too
            partial = {w: c for w, c in f.items() if w != v}
            with pytest.raises(CycleNotInDigraph, match="outside"):
                lift_cycle(g, partial, forged)


def test_lift_cycle_names_a_vertex_missing_from_f():
    g, f = random_degenerate(8, random_fibers(8, 1), 1)
    t = reduce_degenerate(g, f)
    cyc = mpt_cycles_through(t, 0)[4]
    partial = dict(f)
    del partial[cyc[1]]
    with pytest.raises(IncompatibleFunction, match=f"f is missing vertex {cyc[1]}$"):
        lift_cycle(g, partial, cyc)
    # a vertex outside g is reported as such, though f lacks it too
    with pytest.raises(CycleNotInDigraph, match="outside"):
        lift_cycle(g, partial, cyc[:1] + (8,) + cyc[2:])


def test_lift_cycle_blames_f_when_every_vertex_is_valid():
    g, f = random_degenerate(8, random_fibers(8, 1), 1)
    t = reduce_degenerate(g, f)
    cyc = mpt_cycles_through(t, 0)[4]
    short = [f[v] for v in range(max(cyc))]  # no value for the largest cycle vertex
    for bad_f in (None, 7, short):
        with pytest.raises(IncompatibleFunction, match="f has no value"):
            lift_cycle(g, bad_f, cyc)
        # a bad vertex is still the error reported, though f is bad too
        for bad in (8, -1, "1"):
            with pytest.raises(CycleNotInDigraph, match="outside"):
                lift_cycle(g, bad_f, cyc[:1] + (bad,) + cyc[2:])


def _reference_lift(g, f, cycle):
    # lift_cycle as it read f twice per edge, kept to pin its outcomes; a
    # non-int entry is reported as outside before any arc is read, as a
    # negative one always was, so a bool is no vertex
    seq = tuple(cycle)
    m = g._m
    pal = g._palette
    if len(seq) < 3 or len(set(seq)) != len(seq):
        raise CycleNotInDigraph(f"{list(seq)} is not a directed cycle")
    try:
        if min(seq) < 0 or any(type(v) is not int for v in seq):
            raise IndexError
        for u, v in zip(seq, seq[1:] + seq[:1]):
            if not (pal[m[u][v]] == f[u] != f[v]):
                raise CycleNotInDigraph(f"({u},{v}) is not an arc of the orientation")
    except (IndexError, TypeError):
        raise CycleNotInDigraph(
            f"{list(seq)} has a vertex outside 0..{g.n - 1}"
        ) from None
    except KeyError as err:
        raise IncompatibleFunction(f"f is missing vertex {err.args[0]}") from None
    return seq


def _lift_outcome(lift, g, f, seq):
    try:
        return tuple(lift(g, f, seq))
    except Exception as err:
        return type(err), str(err)


def _lift_cases(n, f, cyc, crossed):
    """(f, sequence) pairs around one directed cycle: the cycle, each position
    set to a non-vertex, a backwards arc, a repeat, short sequences, and f
    missing each cycle vertex in turn (against every non-vertex if crossed)."""
    k = len(cyc)
    bad = [cyc[:i] + (x,) + cyc[i + 1 :] for i in range(k) for x in (n, -1, 2.0, "1", None, True)]
    odd = [cyc[::-1], cyc + cyc[:1], cyc[:2], cyc[:1], ()]
    odd += [cyc[:i] + (cyc[i + 1], cyc[i]) + cyc[i + 2 :] for i in range(k - 1)]
    odd += [cyc[:i] + (cyc[i - 1],) + cyc[i + 1 :] for i in range(1, k)]
    cases = [(f, seq) for seq in [cyc] + bad + odd]
    for gone in cyc:
        partial = {v: c for v, c in f.items() if v != gone}
        cases += [(partial, seq) for seq in [cyc] + (bad if crossed else [])]
    return cases


def test_lift_cycle_matches_the_reference_on_good_and_bad_input():
    outcomes = collections.Counter()
    for n in range(6, 13):
        for seed in range(20):
            g, f = random_degenerate(n, random_fibers(n, seed), seed)
            t = reduce_degenerate(g, f)
            if not is_strongly_connected(t):
                continue
            mpt_cycles_through(t, n - 1)
            covers = t.cycle_covers()
            ends = (min(covers), max(covers))
            for ln, cover in covers.items():
                for at, cyc in enumerate(cover):
                    crossed = at == 0 and ln in ends
                    for fm, seq in _lift_cases(n, f, cyc, crossed):
                        want = _lift_outcome(_reference_lift, g, fm, seq)
                        got = _lift_outcome(lift_cycle, g, fm, seq)
                        assert got == want, (n, seed, seq)
                        outcomes[want[0] if isinstance(want[0], type) else "lifted"] += 1
    assert outcomes.keys() == {"lifted", CycleNotInDigraph, IncompatibleFunction}
    assert min(outcomes.values()) > 1000, outcomes


def test_json_roundtrip():
    t = random_multipartite_tournament(6, 3)
    again = MultipartiteTournament(**t.to_json_dict())
    assert again.parts == t.parts
    assert set(again.arcs()) == set(t.arcs())
