import itertools
import random

import pytest

from helpers import random_multipartite_tournament, random_tournament

import pcgraph.tournaments as tournaments_mod
from pcgraph.cycles import is_pc_cycle
from pcgraph.detect import DegeneracyTag, degeneracy_status
from pcgraph.errors import (
    CycleNotInDigraph,
    IncompatibleFunction,
    NotATournament,
    NotStronglyConnected,
    PreconditionViolated,
)
from pcgraph.families import example_directed, random_degenerate, random_fibers
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
    real = tournaments_mod._strongly_connected
    calls = []

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(tournaments_mod, "_strongly_connected", counted)
    assert classify(g).tag is TrichotomyTag.PANCYCLIC
    assert len(calls) == 1


def test_mpt_precondition_failures_are_remembered(monkeypatch):
    searches = []

    def counted(label, fn):
        def wrapped(t):
            searches.append(label)
            return fn(t)

        return wrapped

    monkeypatch.setattr(
        tournaments_mod,
        "_strongly_connected",
        counted("strong", tournaments_mod._strongly_connected),
    )
    monkeypatch.setattr(
        MultipartiteTournament,
        "_find_violation",
        counted("disjoint", MultipartiteTournament._find_violation),
    )
    not_strong = transitive(5)
    for _ in range(2):
        with pytest.raises(PreconditionViolated, match="connectivity"):
            mpt_cycles_through(not_strong, 0)
    assert searches == ["strong"]
    searches.clear()
    violating = MultipartiteTournament(
        [(0, 1), (2,), (3,)], [(0, 2), (1, 2), (2, 3), (3, 0), (3, 1)]
    )
    for _ in range(2):
        with pytest.raises(PreconditionViolated, match="disjointness"):
            mpt_cycles_through(violating, 0)
    assert searches == ["strong", "disjoint"]


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
    return MultipartiteTournament.from_json_dict(t.to_json_dict())


def test_mpt_cycles_do_not_depend_on_call_order():
    # the cycle table t remembers is always filled in vertex order, so a
    # vertex's cycles on a fresh t match those read after every other vertex
    # was asked for, in shuffled order
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
    # vertex 0 is served first, so each of its cycles is built for it and
    # filed under every vertex on it; in particular one Hamilton cycle
    # serves every vertex
    for ln, cyc in tables[0].items():
        assert all(tables[w][ln] is cyc for w in cyc)
    assert len({id(table[t.n]) for table in tables}) == 1


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


def test_extend_cycle_is_complete():
    # insertion-or-swap extends any directed cycle through v, not only the
    # cycles the classifier grows: length >= 4 under mpt_cycles_through's
    # preconditions, length >= 3 in strong tournaments
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
                got = tournaments_mod._extend_cycle(t, cyc, v)
                assert len(got) == len(cyc) + 1 and v in got and is_directed_cycle(t, got)
                cycles += 1
                swaps += not set(cyc) <= set(got)
    assert cycles > 5000 and swaps > 0


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
    mono = build(3, [(0, 1, 5), (1, 2, 5), (0, 2, 5)])
    with pytest.raises(Exception) as err:
        reduce_degenerate(mono, {0: 5, 1: 5, 2: 5})
    assert "fiber" in str(err.value).lower()


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


def test_json_roundtrip():
    t = random_multipartite_tournament(6, 3)
    again = MultipartiteTournament.from_json_dict(t.to_json_dict())
    assert again.parts == t.parts
    assert set(again.arcs()) == set(t.arcs())
