"""Instance generators: named examples, random families, exhaustive streams.

Every generator checks its advertised structural contract with the
corresponding detector before an instance leaves this module, and raises
InternalError with the instance when it fails (a check, not an assert, so
it also runs under python -O).  Every random family is a pure function of
its integer seed, so failures are reproducible from the reported seed alone.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .core import ColoredCompleteGraph, _all_ints, _check_int, _check_order, _from_rows, build
from .detect import (
    _first_monochromatic_triangle,
    find_monochromatic_triangle,
    find_pc_triangle,
    verify_gallai_partition,
)
from .errors import (
    BadPartition,
    BudgetExhausted,
    InternalError,
    PreconditionViolated,
    TooLarge,
    TooSmall,
)

FAMILIES = (
    "doublePentagon",
    "directedExample",
    "randomNoMono",
    "randomDegenerate",
    "gallai",
    "exhaustive",
)


@dataclass(frozen=True)
class GenSpec:
    """Fully determines a generated instance stream."""

    family: str
    n: int = 0
    k: int = 0
    seed: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        for name in ("n", "k", "seed"):
            _check_int(getattr(self, name), name)
        _check_int(self.count, "count", 0)


def _rng(seed: int) -> random.Random:
    """Every generator's random source: PreconditionViolated("seed") unless seed is an int."""
    _check_int(seed, "seed")
    return random.Random(seed)


def _contract(g: ColoredCompleteGraph, holds: bool, what: str) -> None:
    """The generators' alarm: raise InternalError with g unless its contract holds."""
    if not holds:
        raise InternalError(f"generated instance breaks its contract: {what}", instance=g)


def double_pentagon_matrix() -> tuple:
    """Dense color matrix of the canonical two-pentagon K5.

    Color index 0 rings 0-1-2-3-4-0; color index 1 covers the chords, which
    also form a pentagon (0-2-4-1-3-0).
    """
    ring = {(i, (i + 1) % 5) for i in range(5)}
    rows = []
    for u in range(5):
        rows.append(
            tuple(
                -1 if u == v else (0 if (u, v) in ring or (v, u) in ring else 1)
                for v in range(5)
            )
        )
    return tuple(rows)


def example_k5_double_pentagon() -> ColoredCompleteGraph:
    """The unique mono-triangle-free 2-coloring of K5: two edge-disjoint pentagons."""
    dense = double_pentagon_matrix()
    g = build(5, [(u, v, dense[u][v] + 1) for u in range(5) for v in range(u + 1, 5)])
    _contract(g, find_monochromatic_triangle(g) is None, "no monochromatic triangle")
    return g


def example_directed(n: int) -> ColoredCompleteGraph:
    """Three mutually rainbow vertices whose spokes each carry one fixed color.

    Vertices 0,1,2 pairwise use colors 1,2,3; every edge from vertex i to
    the rest carries color i+1; the interior is rainbow on fresh colors, so
    no monochromatic triangle can arise anywhere.  {0,1,2} is then a proper
    degenerate set and its spokes lie on no PC cycle.
    """
    if n < 6:
        raise TooSmall(f"this family needs n >= 6, got {n}")
    edges = [(0, 1, 1), (1, 2, 2), (0, 2, 3)]
    for i, c in ((0, 1), (1, 2), (2, 3)):
        for u in range(3, n):
            edges.append((i, u, c))
    fresh = itertools.count(4)
    for u in range(3, n):
        for v in range(u + 1, n):
            edges.append((u, v, next(fresh)))
    g = build(n, edges)
    _contract(g, find_monochromatic_triangle(g) is None, "no monochromatic triangle")
    return g


_REPAIR_BUDGET = 3000  # recolorings random_no_mono_triangle tries


def random_no_mono_triangle(n: int, k: int, seed: int) -> ColoredCompleteGraph:
    """Random k-coloring repaired until no monochromatic triangle remains.

    Each repair gives another color to one edge, drawn uniformly, of the
    lexicographically first monochromatic triangle that detect's scan
    finds on the rows and a per-vertex color -> mask table, keyed by the
    colors drawn so that no k sizes it.  Raises BudgetExhausted
    (reporting the seed) when _REPAIR_BUDGET recolorings cannot fix it;
    with two colors and n >= 6 that is unavoidable.
    """
    _check_order(n, 3)
    _check_int(k, "colors", 2)
    randrange = _rng(seed).randrange
    rows = [[-1] * n for _ in range(n)]
    nbr = [{} for _ in range(n)]

    def paint(u: int, v: int, c: int) -> None:
        rows[u][v] = rows[v][u] = c
        nbr[u][c] = nbr[u].get(c, 0) | 1 << v
        nbr[v][c] = nbr[v].get(c, 0) | 1 << u

    for u, v in itertools.combinations(range(n), 2):
        paint(u, v, randrange(k))
    for _ in range(_REPAIR_BUDGET):
        bad = _first_monochromatic_triangle(rows, n, nbr)
        if bad is None:
            g = _from_rows(rows, {c for masks in nbr for c, mask in masks.items() if mask})
            _contract(g, find_monochromatic_triangle(g) is None, "no monochromatic triangle")
            return g
        a, b, c = bad
        u, v = ((a, b), (a, c), (b, c))[randrange(3)]
        old = rows[u][v]
        nbr[u][old] ^= 1 << v
        nbr[v][old] ^= 1 << u
        paint(u, v, (old + 1 + randrange(k - 1)) % k)
    raise BudgetExhausted(
        f"could not reach a mono-triangle-free {k}-coloring of K{n} "
        f"within {_REPAIR_BUDGET} recolorings (seed={seed})"
    )


def _check_fibers(n: int, fibers: Sequence[Sequence[int]]) -> List[tuple]:
    try:
        out = [tuple(sorted(p)) for p in fibers]
        flat = sorted(v for p in out for v in p)
    except TypeError:
        # a non-iterable fibers or fiber, or members that do not compare
        raise BadPartition(f"fibers must be sequences of vertices, got {fibers!r}") from None
    if flat != list(range(n)) or not _all_ints(flat):
        raise BadPartition("fibers must partition 0..n-1")
    if any(len(p) not in (1, 2) for p in out):
        raise BadPartition("fiber sizes must be 1 or 2")
    return out


# Orientations of the cross edges between two fibers a and b, indexed as
# random_degenerate's draws shuffle them: entry i of a combo is 1 when the i-th pair
# (u, v) of `for u in a for v in b` is the arc u -> v.
_ORIENTATIONS = {size: tuple(itertools.product((0, 1), repeat=size)) for size in (1, 2, 4)}


def _fitting_orientations(la: int, lb: int) -> frozenset:
    """Indices of the orientations of an la-fiber against an lb-fiber that fit.

    An orientation fits unless both members of a 2-fiber beat one vertex of
    the other fiber (see random_degenerate).
    """
    fits = set()
    for index, combo in enumerate(_ORIENTATIONS[la * lb]):
        if la == 2 and any(combo[z] and combo[lb + z] for z in range(lb)):
            continue
        if lb == 2 and any(not (combo[2 * z] or combo[2 * z + 1]) for z in range(la)):
            continue
        fits.add(index)
    return frozenset(fits)


def _write_plans(la: int, lb: int) -> tuple:
    """Per orientation index, its writes (ia, ib, forward), or None if it does not fit.

    The write (ia, ib, forward) colors the cross edge between a[ia] and b[ib]
    with a's value when forward (the arc a[ia] -> b[ib]) and b's otherwise.
    """
    fits = _fitting_orientations(la, lb)
    cross = [(ia, ib) for ia in range(la) for ib in range(lb)]
    return tuple(
        tuple((ia, ib, forward) for (ia, ib), forward in zip(cross, combo))
        if index in fits
        else None
        for index, combo in enumerate(_ORIENTATIONS[la * lb])
    )


_PLANS = {(la, lb): _write_plans(la, lb) for la in (1, 2) for lb in (1, 2)}

# Per orientation count m above 2, the Fisher-Yates steps that Random.shuffle
# takes on a list of length m: for i = m-1 .. 1, swap item i with item r, where
# r is the first getrandbits(k) draw that is at most i, k = (i + 1).bit_length().
_DRAWS = {m: tuple((i, (i + 1).bit_length()) for i in range(m - 1, 0, -1)) for m in (4, 16)}


def _kept_plans(la: int, lb: int) -> tuple:
    """Per draw sequence of the _DRAWS[4] steps, the plan that its shuffle keeps.

    For an la-fiber against an lb-fiber with m = 4 orientations: entry
    6 * r3 + 2 * r2 + r1 (the draws in itertools.product order) is the
    plan of the first fitting orientation once list(range(4)) has had its
    items t and r swapped for each step (t, r).
    """
    plans = _PLANS[la, lb]
    steps = _DRAWS[len(plans)]
    kept = []
    for draws in itertools.product(*(range(t + 1) for t, _bits in steps)):
        order = list(range(len(plans)))
        for (t, _bits), r in zip(steps, draws):
            order[t], order[r] = order[r], order[t]
        kept.append(next(plans[k] for k in order if plans[k] is not None))
    return tuple(kept)


_KEPT = {shape: _kept_plans(*shape) for shape in ((1, 2), (2, 1))}

# The two orientations of two 2-fibers that fit, the rings; random_degenerate
# keeps whichever its shuffle leaves first.  Unpacking raises unless there
# are exactly two.
_RING_A, _RING_B = (k for k, plan in enumerate(_PLANS[2, 2]) if plan is not None)


def random_degenerate(
    n: int, fibers: Sequence[Sequence[int]], seed: int
) -> Tuple[ColoredCompleteGraph, Dict[int, int]]:
    """Random fully degenerate instance with its compatible coloring witness.

    Each vertex takes its fiber index as f-value, and each edge inside a
    fiber takes that value.  For every pair of fibers, in order, the
    orientations of the cross edges are shuffled and the first that fits
    is kept; a cross edge u -> v takes f(u), the value of its tail.

    An orientation fits when no 2-fiber {x, y} has both members beating one
    vertex z: otherwise xy, xz and yz all carry f(x), a monochromatic
    triangle.  Nothing else can make one: a triangle across three fibers
    has three distinct values at its corners, and no corner is the tail of
    all three of its edges.

    Some orientation always fits, so the search ends at one: any does
    between two singletons; z -> x does for a singleton z against a
    2-fiber {x, y}; and the ring x -> z -> y -> w -> x does for two
    2-fibers {x, y} and {z, w}.  The closing triangle scan is an alarm.

    The only random draws are the ones rng.shuffle(list(range(m))) makes
    through _randbelow, once per fiber pair in itertools.combinations
    order, with m = 2 ** (|a| * |b|) the number of orientations: for
    i = m-1 .. 1, draw getrandbits(k) with k = (i + 1).bit_length() until
    the result r is at most i, then swap items i and r (_DRAWS[m] lists
    the (i, k) steps).  They are written inline on rng.getrandbits, so the
    seed consumes the same Mersenne Twister words and keeps the same
    orientation as shuffling the orientations themselves would.  No list
    is shuffled: the kept orientation is decided from the draws.

    - Two singletons (m = 2): every orientation fits, and the one draw r
      keeps orientation 1 (the arc a -> b) when r is 0 and 0 otherwise.
    - A singleton and a 2-fiber (m = 4): the three in-range draws
      (r3, r2, r1) index _KEPT[|a|, |b|], built at import by replaying the
      swaps on list(range(4)) for each of the 24 triples and taking the
      first fitting orientation.
    - Two 2-fibers (m = 16): only the two rings fit.  Fisher-Yates step t
      moves the item at position r to position t, and no later step
      touches position t again, so an item moved at step t ends at
      position t and the one moved later ends nearer the front; an item
      never moved ends at position 0, after every step.  So the kept ring
      is the one moved later.  The loop tracks the two rings' positions
      until one of them is moved, keeps the other, and then makes the
      remaining draws of the 15 steps.

    The kept orientation is a plan of writes (_PLANS[|a|, |b|][k]); the
    values are written straight into the color matrix and marked as they
    land.  The palette is the values that land on some edge (a singleton
    that is the head of all its cross edges has none), which
    core._from_rows renumbers densely in order, as build() does.
    """
    _check_order(n, 1)
    parts = _check_fibers(n, fibers)
    getrandbits = _rng(seed).getrandbits
    f = {v: idx for idx, p in enumerate(parts) for v in p}
    rows = [[-1] * n for _ in range(n)]
    landed = bytearray(len(parts))
    ring_a, ring_b = _PLANS[2, 2][_RING_A], _PLANS[2, 2][_RING_B]
    for idx, p in enumerate(parts):
        if len(p) == 2:
            x, y = p
            rows[x][y] = rows[y][x] = idx
            landed[idx] = 1
    for i, a in enumerate(parts):
        la = len(a)
        row_a = [rows[u] for u in a]
        for j in range(i + 1, len(parts)):
            b = parts[j]
            lb = len(b)
            if la == 1 and lb == 1:
                # both orientations fit, and orientation k is the arc a -> b
                # iff k; shuffling [0, 1] leaves k = 1 first iff its draw is 0
                r = getrandbits(2)
                while r > 1:
                    r = getrandbits(2)
                c = j if r else i
                v = b[0]
                row_a[0][v] = rows[v][a[0]] = c
                landed[c] = 1
                continue
            if la == 2 and lb == 2:
                # the positions of the two rings until one is moved; the
                # other, moved later, ends first and is kept (see above)
                pa, pb = _RING_A, _RING_B
                steps = iter(_DRAWS[16])
                for t, bits in steps:
                    r = getrandbits(bits)
                    while r > t:
                        r = getrandbits(bits)
                    if r == pa:
                        plan = ring_b
                        break
                    if r == pb:
                        plan = ring_a
                        break
                    if t == pa:
                        pa = r
                    elif t == pb:
                        pb = r
                for t, bits in steps:  # the rest of the shuffle's draws
                    r = getrandbits(bits)
                    while r > t:
                        r = getrandbits(bits)
            else:
                r3 = getrandbits(3)
                while r3 > 3:
                    r3 = getrandbits(3)
                r2 = getrandbits(2)
                while r2 > 2:
                    r2 = getrandbits(2)
                r1 = getrandbits(2)
                while r1 > 1:
                    r1 = getrandbits(2)
                plan = _KEPT[la, lb][6 * r3 + 2 * r2 + r1]
            for ia, ib, forward in plan:
                c = i if forward else j
                v = b[ib]
                row_a[ia][v] = rows[v][a[ia]] = c
                landed[c] = 1
    g = _from_rows(rows, {c for c, hit in enumerate(landed) if hit})
    if n >= 3:
        _contract(g, find_monochromatic_triangle(g) is None, "no monochromatic triangle")
    return g, f


@functools.lru_cache(maxsize=None)
def _mono_free_two_colorings(p: int) -> Tuple[tuple, ...]:
    """Every 0/1 coloring of K_p's pairs with no monochromatic triangle.

    In itertools.product order, so a random choice from it picks the same
    coloring as one from the (c1, c2) colorings in product order.
    """
    pairs = list(itertools.combinations(range(p), 2))
    valid = []
    for combo in itertools.product((0, 1), repeat=len(pairs)):
        coloring = dict(zip(pairs, combo))
        if all(
            len({coloring[(a, b)], coloring[(a, c)], coloring[(b, c)]}) > 1
            for a, b, c in itertools.combinations(range(p), 3)
        ):
            valid.append(combo)
    return tuple(valid)


def _mono_free_two_coloring(p: int, c1: int, c2: int, rng: random.Random) -> Dict[tuple, int]:
    """Random 2-coloring of K_p (p <= 5) with no monochromatic triangle."""
    combo = rng.choice(_mono_free_two_colorings(p))
    colors = (c1, c2)
    return {pair: colors[i] for pair, i in zip(itertools.combinations(range(p), 2), combo)}


def gallai_coloring(
    n: int, seed: int
) -> Tuple[ColoredCompleteGraph, List[List[int]]]:
    """Recursive substitution coloring with no monochromatic and no PC triangle.

    Each level splits its vertices into 2..5 parts, colors cross-part edges
    with two fresh colors avoiding part-level monochromatic triangles, and
    recurses into the parts with further fresh colors.  The top-level
    partition is returned alongside the graph.
    """
    _check_order(n, 3)
    rng = _rng(seed)
    fresh = itertools.count(1)
    rows = [[-1] * n for _ in range(n)]
    colors = set()

    def fill(vertices: List[int]) -> List[List[int]]:
        if len(vertices) < 2:
            return [vertices]
        p = rng.randint(2, min(5, len(vertices)))
        vs = vertices[:]
        rng.shuffle(vs)
        cuts = sorted(rng.sample(range(1, len(vs)), p - 1))
        parts = [vs[a:b] for a, b in zip([0] + cuts, cuts + [len(vs)])]
        c1, c2 = next(fresh), next(fresh)
        part_colors = _mono_free_two_coloring(p, c1, c2, rng)
        for (i, j), c in part_colors.items():
            colors.add(c)
            for u in parts[i]:
                for v in parts[j]:
                    rows[u][v] = rows[v][u] = c
        for part in parts:
            fill(part)
        return parts

    top = fill(list(range(n)))
    del fill  # fill holds itself through its closure cell; leave no cycle for gc
    g = _from_rows(rows, colors)
    partition = sorted((sorted(p) for p in top), key=lambda p: p[0])
    _contract(g, find_monochromatic_triangle(g) is None, "no monochromatic triangle")
    _contract(g, find_pc_triangle(g) is None, "no PC triangle")
    _contract(g, verify_gallai_partition(g, partition), "a Gallai partition")
    return g, partition


# -- exhaustive enumeration --------------------------------------------

def _rgs_stream(m: int) -> Iterator[tuple]:
    """Restricted growth strings of length m, lexicographically.

    These index the set partitions of m items, i.e. edge colorings up to
    color relabeling; the stream has Bell(m) entries.
    """
    a = [0] * m
    mx = [0] * m  # mx[i] = max(a[:i]) for i >= 1
    while True:
        yield tuple(a)
        i = m - 1
        while i >= 1 and a[i] == mx[i] + 1:
            i -= 1
        if i < 1:
            return
        a[i] += 1
        for j in range(i + 1, m):
            mx[j] = mx[j - 1] if mx[j - 1] >= a[j - 1] else a[j - 1]
            a[j] = 0


def _graph_from_rgs(n: int, pairs: List[tuple], rgs: tuple) -> ColoredCompleteGraph:
    rows = [[-1] * n for _ in range(n)]
    for (u, v), c in zip(pairs, rgs):
        rows[u][v] = rows[v][u] = c
    palette = tuple(range(max(rgs) + 1))
    return ColoredCompleteGraph(n, tuple(map(tuple, rows)), palette)


def exhaustive_colorings(
    n: int,
    sample: Optional[int] = None,
    seed: int = 0,
) -> Iterator[ColoredCompleteGraph]:
    """One coloring per color-relabeling class of K_n.

    Full enumeration (Bell(C(n,2)) instances) is supported for n <= 5;
    larger n requires `sample`, drawing random growth strings instead
    (not uniform over partitions, but seed-reproducible).  The arguments
    are checked at the call, before the first instance is asked for.
    """
    _check_order(n, 3)
    if sample is not None:
        _check_int(sample, "sample", 0)
    rng = _rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if n > 5 and sample is None:
        raise TooLarge(
            f"full enumeration of K{n} means Bell({len(pairs)}) instances; "
            "pass a sample size"
        )
    if sample is None:
        stream = _rgs_stream(len(pairs))
    else:
        def sampled() -> Iterator[tuple]:
            for _ in range(sample):
                a = [0]
                mx = 0
                for _i in range(1, len(pairs)):
                    a.append(rng.randint(0, mx + 1))
                    mx = max(mx, a[-1])
                yield tuple(a)

        stream = sampled()
    return (_graph_from_rgs(n, pairs, rgs) for rgs in stream)


# -- uniform dispatch ---------------------------------------------------

def random_fibers(n: int, seed: int) -> List[tuple]:
    """Random partition of 0..n-1 into parts of size 1 and 2."""
    _check_order(n, 1)
    rng = _rng(seed)
    vs = list(range(n))
    rng.shuffle(vs)
    npairs = rng.randint(0, n // 2)
    parts = [tuple(sorted(vs[2 * i : 2 * i + 2])) for i in range(npairs)]
    parts += [(v,) for v in vs[2 * npairs :]]
    return sorted(parts)


def generate(spec: GenSpec) -> Iterator[ColoredCompleteGraph]:
    """Instance stream for a GenSpec; derived seeds are spec.seed + index."""
    if spec.family == "doublePentagon":
        yield example_k5_double_pentagon()
    elif spec.family == "directedExample":
        yield example_directed(spec.n if spec.n else 6)
    elif spec.family == "randomNoMono":
        for i in range(spec.count):
            yield random_no_mono_triangle(spec.n, spec.k, spec.seed + i)
    elif spec.family == "randomDegenerate":
        for i in range(spec.count):
            g, _f = random_degenerate(
                spec.n, random_fibers(spec.n, spec.seed + i), spec.seed + i
            )
            yield g
    elif spec.family == "gallai":
        for i in range(spec.count):
            g, _parts = gallai_coloring(spec.n, spec.seed + i)
            yield g
    elif spec.family == "exhaustive":
        sample = spec.count if spec.n > 5 else None
        yield from exhaustive_colorings(spec.n, sample=sample, seed=spec.seed)
    else:
        raise PreconditionViolated(
            "family", f"unknown family {spec.family!r}; pick one of {FAMILIES}"
        )
