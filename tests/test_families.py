import hashlib
import itertools
import random

import pytest

import pcgraph.families as families_mod
from pcgraph.core import ColoredCompleteGraph, _neighbor_table, build, dumps_instance
from pcgraph.detect import (
    DegeneracyTag,
    degeneracy_status,
    find_monochromatic_triangle,
    find_pc_triangle,
    verify_gallai_partition,
)
from pcgraph.errors import (
    BadPartition,
    BudgetExhausted,
    InternalError,
    PreconditionViolated,
    TooLarge,
    TooSmall,
)
from pcgraph.families import (
    GenSpec,
    example_directed,
    example_k5_double_pentagon,
    exhaustive_colorings,
    gallai_coloring,
    generate,
    random_degenerate,
    random_fibers,
    random_no_mono_triangle,
)
from pcgraph.oracles import bell_number
from pcgraph.trichotomy import TrichotomyTag, classify


def test_double_pentagon_contract():
    g = example_k5_double_pentagon()
    assert find_monochromatic_triangle(g) is None
    assert g.num_colors == 2
    for color in g.palette:
        for v in range(5):
            assert sum(1 for u in range(5) if u != v and g.color(u, v) == color) == 2
    assert classify(g).tag is TrichotomyTag.EXCEPTIONAL_K5


def test_directed_example_contract():
    for n in (6, 8):
        g = example_directed(n)
        assert find_monochromatic_triangle(g) is None
        st = degeneracy_status(g)
        assert st.tag is DegeneracyTag.PROPER_SET
        assert st.certificate.S == frozenset({0, 1, 2})
    with pytest.raises(TooSmall):
        example_directed(5)


def test_random_no_mono_contracts():
    g = random_no_mono_triangle(7, 4, seed=1)
    assert find_monochromatic_triangle(g) is None
    tiny = random_no_mono_triangle(3, 2, seed=12)
    assert tiny.n == 3 and find_monochromatic_triangle(tiny) is None


def test_random_no_mono_budget():
    # a 2-colored K6 always carries a monochromatic triangle
    with pytest.raises(BudgetExhausted, match="seed=77"):
        random_no_mono_triangle(6, 2, seed=77)


def test_random_degenerate_contract():
    for seed in range(8):
        fibers = random_fibers(7, seed)
        g, f = random_degenerate(7, fibers, seed)
        assert find_monochromatic_triangle(g) is None
        from pcgraph.detect import DegeneracyCertificate

        assert DegeneracyCertificate(frozenset(range(7)), f).check(g)
    with pytest.raises(BadPartition):
        random_degenerate(5, [(0, 1, 2), (3, 4)], seed=0)
    with pytest.raises(BadPartition):
        random_degenerate(5, [(0, 1), (3, 4)], seed=0)


def test_random_degenerate_matrix_matches_build():
    # the matrix and palette are written directly; build() over the same
    # edges must give the same graph, also when some fiber value lands on no
    # edge and the dense color indices skip it
    skipped = 0
    for n in range(1, 21):
        for seed in range(10):
            g, f = random_degenerate(n, random_fibers(n, seed), seed)
            rebuilt = build(n, list(g.edges()))
            assert (g.n, g._m, g._palette) == (rebuilt.n, rebuilt._m, rebuilt._palette)
            assert all(g.color(u, v) in (f[u], f[v]) for u, v, _c in g.edges())
            if n >= 3:
                skipped += len(set(f.values()) - g.palette)
    assert skipped > 0


def _reference_fitting(la, lb):
    fits = set()
    for index, combo in enumerate(itertools.product((0, 1), repeat=la * lb)):
        if la == 2 and any(combo[z] and combo[lb + z] for z in range(lb)):
            continue
        if lb == 2 and any(not (combo[2 * z] or combo[2 * z + 1]) for z in range(la)):
            continue
        fits.add(index)
    return frozenset(fits)


_REFERENCE_FITTING = {(la, lb): _reference_fitting(la, lb) for la in (1, 2) for lb in (1, 2)}


def _reference_random_degenerate(n, fibers, seed):
    # the per-pair body that predates the write plans: build the cross list,
    # zip it with the chosen combo, and read the palette off the whole matrix
    parts = [tuple(sorted(p)) for p in fibers]
    rng = random.Random(seed)
    f = {v: idx for idx, p in enumerate(parts) for v in p}
    rows = [[-1] * n for _ in range(n)]
    for idx, p in enumerate(parts):
        if len(p) == 2:
            x, y = p
            rows[x][y] = rows[y][x] = idx
    for (i, a), (j, b) in itertools.combinations(enumerate(parts), 2):
        combos = tuple(itertools.product((0, 1), repeat=len(a) * len(b)))
        order = list(range(len(combos)))
        rng.shuffle(order)
        fits = _REFERENCE_FITTING[len(a), len(b)]
        for k in order:
            if k in fits:
                break
        cross = [(u, v) for u in a for v in b]
        for (u, v), forward in zip(cross, combos[k]):
            rows[u][v] = rows[v][u] = i if forward else j
    values = set(itertools.chain.from_iterable(rows))
    values.discard(-1)
    palette = tuple(sorted(values))
    if len(palette) < len(parts):
        rank = {c: d for d, c in enumerate(palette)}
        rank[-1] = -1
        rows = [[rank[c] for c in row] for row in rows]
    return ColoredCompleteGraph(n, tuple(map(tuple, rows)), palette), f


def _record_seeded(monkeypatch):
    # every random.Random seeded from here on, in order; the subclass keeps
    # getrandbits, so its _randbelow and shuffle are the stock ones
    seeded = []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            seeded.append(self)

    monkeypatch.setattr(random, "Random", Recording)
    return seeded


def _both_bodies(seeded, n, fibers, seed):
    # the reference body's and random_degenerate's output on one case, each
    # with the state it left its one generator in
    out = []
    for body in (_reference_random_degenerate, random_degenerate):
        seeded.clear()
        g, f = body(n, fibers, seed)
        assert len(seeded) == 1
        out.append(((g.n, g._m, g._palette, f), seeded[0].getstate()))
    return out


def test_random_degenerate_draws_the_reference_stream(monkeypatch):
    # same graph, palette and witness as the reference body, which calls
    # rng.shuffle once per fiber pair, and the same Mersenne Twister state
    # afterwards, so both consume the same words; n=64 seeds 0..199 open the
    # stream that the benchmark's degenerate-n64 workload draws
    cases = [(n, seed) for n in range(1, 25) for seed in range(50)]
    cases += [(64, seed) for seed in range(200)]
    fibers = {case: random_fibers(*case) for case in cases}
    seeded = _record_seeded(monkeypatch)
    orientations = set()
    for n, seed in cases:
        want, got = _both_bodies(seeded, n, fibers[n, seed], seed)
        assert got == want, (n, seed)
        pairs = itertools.combinations(fibers[n, seed], 2)
        orientations.update(2 ** (len(a) * len(b)) for a, b in pairs)
    assert orientations == {2, 4, 16}


def _replayed_permutation(rng, m):
    # the draws random_degenerate makes, applied as rng.shuffle(list(range(m)))
    # applies them: one draw between two singletons, the _DRAWS[m] steps otherwise
    getrandbits = rng.getrandbits
    if m == 2:
        r = getrandbits(2)
        while r > 1:
            r = getrandbits(2)
        return [0, 1] if r else [1, 0]
    order = list(range(m))
    for t, bits in families_mod._DRAWS[m]:
        r = getrandbits(bits)
        while r > t:
            r = getrandbits(bits)
        order[t], order[r] = order[r], order[t]
    return order


def test_inline_draws_permute_as_shuffle_does(monkeypatch):
    # per orientation count m, the inline draws give shuffle's permutation
    # and leave the generator in shuffle's state, and a single fiber pair of
    # each shape (1-1, 1-2, 2-1, 2-2) gives the reference body's graph
    for m in (2, 4, 16):
        for seed in range(1000):
            want, got = random.Random(seed), random.Random(seed)
            order = list(range(m))
            want.shuffle(order)
            assert _replayed_permutation(got, m) == order, (m, seed)
            assert got.getstate() == want.getstate(), (m, seed)
    seeded = _record_seeded(monkeypatch)
    for fibers in ([(0,), (1,)], [(0,), (1, 2)], [(0, 1), (2,)], [(0, 1), (2, 3)]):
        n = sum(map(len, fibers))
        for seed in range(1000):
            want, got = _both_bodies(seeded, n, fibers, seed)
            assert got == want, (fibers, seed)


class _ScriptedDraws:
    # a stand-in generator whose getrandbits returns the given draws in order
    def __init__(self, draws):
        self._draws = iter(draws)

    def getrandbits(self, _bits):
        return next(self._draws)


def _first_fitting(plans, order):
    return next(k for k in order if plans[k] is not None)


def test_random_degenerate_kept_plan_table_is_the_replayed_shuffle():
    # for each of the 24 in-range draw triples (r3, r2, r1) of a 1-2 or 2-1
    # pair, the table entry random_degenerate reads is the plan of the first
    # fitting orientation in the permutation that shuffle makes of them
    for shape in ((1, 2), (2, 1)):
        plans = families_mod._PLANS[shape]
        kept = families_mod._KEPT[shape]
        assert len(kept) == 24
        seen = set()
        for r3, r2, r1 in itertools.product(range(4), range(3), range(2)):
            order = _replayed_permutation(_ScriptedDraws((r3, r2, r1)), 4)
            k = _first_fitting(plans, order)
            assert kept[6 * r3 + 2 * r2 + r1] is plans[k], (shape, r3, r2, r1)
            seen.add(k)
        assert seen == {k for k, plan in enumerate(plans) if plan is not None}


def test_random_degenerate_ring_tracking_keeps_the_shuffles_first_ring():
    # 32 2-fibers give 496 2-2 pairs per instance, so 202 seeds check the
    # position tracking on 100,192 draw sequences against the permutation
    # that shuffle makes from the same draws; both rings must be kept
    plans = families_mod._PLANS[2, 2]
    fibers = [(2 * i, 2 * i + 1) for i in range(32)]
    wins = {families_mod._RING_A: 0, families_mod._RING_B: 0}
    for seed in range(202):
        g, _f = random_degenerate(64, fibers, seed)
        rng = random.Random(seed)
        for (i, a), (j, b) in itertools.combinations(enumerate(fibers), 2):
            k = _first_fitting(plans, _replayed_permutation(rng, 16))
            for ia, ib, forward in plans[k]:
                assert g._m[a[ia]][b[ib]] == (i if forward else j), (seed, i, j)
            wins[k] += 1
    assert sum(wins.values()) >= 100_000
    assert min(wins.values()) > 0, wins


def test_neighbor_table_matches_reference():
    # the running-bit table against the enumerate / 1 << v one on random
    # symmetric dense matrices; the diagonal's spare slot k holds only {u}
    rng = random.Random(5)
    for n in range(1, 71):
        k = rng.randint(1, 12)
        rows = [[-1] * n for _ in range(n)]
        for u, v in itertools.combinations(range(n), 2):
            rows[u][v] = rows[v][u] = rng.randrange(k)
        matrix = tuple(map(tuple, rows))
        want = []
        for row in matrix:
            masks = [0] * (k + 1)
            for v, c in enumerate(row):
                masks[c] |= 1 << v
            want.append(masks)
        table = _neighbor_table(matrix, k)
        assert table == want, n
        assert all(masks[k] == 1 << u for u, masks in enumerate(table)), n


def test_generator_inputs_raise_pcgraph_errors():
    # bad sizes, fibers and counts raise the package's errors, not TypeError
    # or a graph on no vertices
    for n in (0, -1):
        with pytest.raises(TooSmall):
            random_degenerate(n, [], 1)
    for fibers in (5, [5], [(0, 1), (2, "a")], [(0.0, 1), (2,)]):
        with pytest.raises(BadPartition):
            random_degenerate(3, fibers, 1)
    with pytest.raises(PreconditionViolated, match="^count:"):
        GenSpec("gallai", 5, count="a")
    non_int_n = [
        lambda: random_fibers("a", 1),
        lambda: random_degenerate("a", [(0,)], 1),
        lambda: random_no_mono_triangle("a", 3, 0),
        lambda: gallai_coloring("a", 0),
        lambda: exhaustive_colorings("a"),
        lambda: GenSpec("exhaustive", "a"),
    ]
    for call in non_int_n:
        with pytest.raises(PreconditionViolated, match="^n:"):
            call()
    with pytest.raises(PreconditionViolated, match="^colors:"):
        random_no_mono_triangle(7, "a", 0)


def test_gen_spec_rejects_bool_fields():
    # a bool is an int to isinstance, but no order, color count, seed or count
    for field in ("n", "k", "seed", "count"):
        for value in (True, False):
            with pytest.raises(PreconditionViolated, match=f"^{field}: must be an int"):
                GenSpec("exhaustive", **{"n": 4, field: value})


def test_generator_alarms_raise_internal_error(monkeypatch):
    # the contract checks are not asserts, so they also hold under python -O
    monkeypatch.setattr(families_mod, "find_monochromatic_triangle", lambda g: (0, 1, 2))
    calls = [
        lambda: random_degenerate(7, random_fibers(7, 0), 0),
        lambda: random_no_mono_triangle(7, 4, 1),
        lambda: gallai_coloring(9, 4),
        example_k5_double_pentagon,
        lambda: example_directed(6),
    ]
    for call in calls:
        with pytest.raises(InternalError, match="monochromatic triangle") as info:
            call()
        assert isinstance(info.value.instance, ColoredCompleteGraph)


def test_gallai_contract():
    g, parts = gallai_coloring(5, seed=2)
    assert verify_gallai_partition(g, parts)
    assert find_pc_triangle(g) is None
    assert find_monochromatic_triangle(g) is None


def test_gallai_triangles_have_two_colors():
    g, _ = gallai_coloring(9, seed=4)
    for a, b, c in itertools.combinations(range(9), 3):
        assert len({g.color(a, b), g.color(a, c), g.color(b, c)}) == 2


def test_gallai_n64_stream_is_pinned():
    # sha256 over the instance and top-level partition of seeds 0..9; the
    # part colorings are drawn from a list built once per part count
    digest = hashlib.sha256()
    for seed in range(10):
        g, parts = gallai_coloring(64, seed)
        digest.update(f"{dumps_instance(g)}\n{parts}\n".encode())
    want = "ecfa1ddefea2b99bbb18d6db5d21e71c8e4edda1a80ad11fc5ac7dc3c2a56ac3"
    assert digest.hexdigest() == want


def test_exhaustive_counts():
    assert sum(1 for _ in exhaustive_colorings(3)) == bell_number(3) == 5
    assert sum(1 for _ in exhaustive_colorings(4)) == bell_number(6) == 203


def test_exhaustive_too_large_and_sampling():
    # bad arguments raise at the call, not at the first next()
    with pytest.raises(TooLarge):
        exhaustive_colorings(6)
    with pytest.raises(TooSmall):
        exhaustive_colorings(2)
    sampled = list(exhaustive_colorings(6, sample=10, seed=3))
    assert len(sampled) == 10
    assert all(g.n == 6 for g in sampled)


def test_generate_determinism():
    spec = GenSpec("randomNoMono", n=6, k=3, seed=11, count=5)
    a = [dumps_instance(g) for g in generate(spec)]
    b = [dumps_instance(g) for g in generate(spec)]
    assert a == b
    spec2 = GenSpec("gallai", n=7, seed=1, count=3)
    assert [dumps_instance(g) for g in generate(spec2)] == [
        dumps_instance(g) for g in generate(spec2)
    ]
    spec3 = GenSpec("randomDegenerate", n=6, seed=2, count=3)
    assert [dumps_instance(g) for g in generate(spec3)] == [
        dumps_instance(g) for g in generate(spec3)
    ]


def test_generate_exhaustive_family():
    spec = GenSpec("exhaustive", n=4)
    assert sum(1 for _ in generate(spec)) == 203
