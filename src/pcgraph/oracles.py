"""Brute-force oracles.

The degeneracy oracle enumerates vertex subsets directly, the PC-cycle
oracle walks raw permutations, and the directed-cycle oracle enumerates
paths; none of them shares logic with the code it cross-checks.  The
exception is is_pancyclic_from, which runs cycles.has_pc_cycle: that is the
depth-first walk enumerate_pc_cycles exposes, which the tests check against
pc_cycles_by_permutation.  The oracles exist to catch bugs in the clever
code, so they stay dumb on purpose.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Set, Tuple

from .core import ColoredCompleteGraph
from .cycles import _canonical, is_pc_cycle
from .detect import DegeneracyTag
from .tournaments import MultipartiteTournament


def proper_degenerate_sets(g: ColoredCompleteGraph) -> Iterator[Tuple[frozenset, dict]]:
    """All proper degenerate sets with their (forced) compatible maps.

    A vertex of a proper set has every outward edge in one color, which
    pins its map value, so each subset admits at most one candidate map.
    """
    n = g.n
    m = g._m
    pal = g._palette
    for mask in range(1, (1 << n) - 1):
        members = [v for v in range(n) if mask >> v & 1]
        f = {}
        ok = True
        for u in members:
            row = m[u]
            outward = {row[v] for v in range(n) if v != u and not (mask >> v & 1)}
            if len(outward) != 1:
                ok = False
                break
            f[u] = outward.pop()
        if not ok:
            continue
        for i, u in enumerate(members):
            row = m[u]
            for v in members[i + 1 :]:
                if row[v] != f[u] and row[v] != f[v]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield frozenset(members), {u: pal[c] for u, c in f.items()}


def full_compatible_maps(g: ColoredCompleteGraph, limit: Optional[int] = None) -> List[dict]:
    """All maps on the whole vertex set compatible with every edge.

    Values are restricted to incident colors (always sufficient: a value
    seen on no incident edge can satisfy edges only through the other
    endpoint, so swapping it for any incident color changes nothing).
    """
    n = g.n
    m = g._m
    pal = g._palette
    incident = [sorted({m[u][v] for v in range(n) if v != u}) for u in range(n)]
    out: List[dict] = []
    f = [0] * n

    def backtrack(u: int) -> bool:
        if u == n:
            out.append({v: pal[f[v]] for v in range(n)})
            return limit is not None and len(out) >= limit
        row = m[u]
        for c in incident[u]:
            good = True
            for v in range(u):
                if row[v] != c and row[v] != f[v]:
                    good = False
                    break
            if good:
                f[u] = c
                if backtrack(u + 1):
                    return True
        return False

    backtrack(0)
    return out


def brute_degeneracy_tag(g: ColoredCompleteGraph) -> DegeneracyTag:
    """Degeneracy classification straight from the definition."""
    for _ in proper_degenerate_sets(g):
        return DegeneracyTag.PROPER_SET
    if full_compatible_maps(g, limit=1):
        return DegeneracyTag.FULL_ONLY
    return DegeneracyTag.NON_DEGENERATE


def pc_cycles_by_permutation(g: ColoredCompleteGraph, v: int, length: int) -> Set[tuple]:
    """Canonical PC cycles of a given length through v, from raw permutations."""
    out = set()
    others = [u for u in range(g.n) if u != v]
    for perm in itertools.permutations(others, length - 1):
        seq = (v,) + perm
        if is_pc_cycle(g, seq):
            out.add(_canonical(seq))
    return out


def pc_cycle_exists_with_edge(g: ColoredCompleteGraph, u: int, v: int) -> bool:
    """Whether any PC cycle (any length) uses the edge uv."""
    n = g.n
    m = g._m
    target = m[u][v]

    def dfs(path: List[int], used: List[bool], prev: int) -> bool:
        last = path[-1]
        closing = m[last][u]
        if len(path) >= 3 and closing != prev and closing != m[u][path[1]]:
            return True
        row = m[last]
        for w in range(n):
            if not used[w] and row[w] != prev:
                used[w] = True
                path.append(w)
                if dfs(path, used, row[w]):
                    return True
                path.pop()
                used[w] = False
        return False

    used = [False] * n
    used[u] = used[v] = True
    return dfs([u, v], used, target)


def directed_cycle_lengths(t: MultipartiteTournament, v: int) -> Set[int]:
    """Lengths of all directed cycles through v, by path enumeration."""
    n = t.n
    has_arc = t.has_arc
    lengths: Set[int] = set()

    def dfs(path: List[int], used: List[bool]) -> None:
        last = path[-1]
        if has_arc(last, v) and len(path) >= 3:
            lengths.add(len(path))
        for w in range(n):
            if not used[w] and has_arc(last, w):
                used[w] = True
                path.append(w)
                dfs(path, used)
                path.pop()
                used[w] = False

    used = [False] * n
    used[v] = True
    dfs([v], used)
    return lengths


def is_pancyclic_from(g: ColoredCompleteGraph, lo: int = 4) -> bool:
    """Whether every vertex lies on PC cycles of every length in [lo, n]."""
    from .cycles import has_pc_cycle

    for v in range(g.n):
        for ln in range(lo, g.n + 1):
            if has_pc_cycle(g, v, ln) is None:
                return False
    return True


def bell_number(m: int) -> int:
    """Bell numbers via the triangle recurrence (used to pin stream sizes)."""
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]
