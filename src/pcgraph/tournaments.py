"""Digraph machinery for the degenerate classification pipeline.

A multipartite tournament here has parts of size 1 or 2 and exactly one arc
per cross-part vertex pair.  Two facts drive everything: every vertex of a
strongly connected tournament lies on directed cycles of all lengths from 3
up to the order, and the same holds from length 4 up when 2-parts have
disjoint out-neighborhoods.  The construction scans out-neighbors for a
quadrangle through the vertex, then grows it by inserting an outside vertex
at a dominance switch or swapping one cycle vertex for a dominated 2-path.
Both rules are complete (see _extend_cycle, after Moon's theorem), so no
search backs them up.  A directed L-cycle serves every vertex on it, so
mpt_cycles_through keeps one table per digraph and builds a cycle only for a
vertex that no earlier cycle of that length covers.  A strong tournament is
the special case without 2-parts: cycles_through adds a triangle to the same
table's lengths 4..n.

The bridge to edge-colored graphs: a full compatible vertex-to-color map f
orients each cross-fiber edge toward the endpoint whose f-value it misses,
producing such a tournament; directed cycles of the orientation pull back to
properly colored cycles because consecutive arcs carry distinct f-values.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from .core import ColoredCompleteGraph
from .cycles import Cycle
from .errors import (
    CycleNotInDigraph,
    FiberTooLarge,
    IncompatibleFunction,
    InternalError,
    NotATournament,
    NotStronglyConnected,
    PreconditionViolated,
)

# disjointness_violation's "not computed yet"; None means "no violation"
_UNKNOWN = object()


class MultipartiteTournament:
    """Loopless digraph on 0..n-1 with parts of size <= 2 and one arc per cross pair.

    Instances are immutable, so derived facts are computed at most once and
    remembered: the strong-connectivity and disjointness checks (negative
    results included), and mpt_cycles_through's cycle table, a per-length
    map vertex -> directed cycle filled in vertex order, in which one cycle
    is filed under every vertex it covers.
    """

    __slots__ = (
        "n", "parts", "part_of", "_adj", "_out", "_strong", "_violation",
        "_cycles", "_cycles_done",
    )

    def __init__(self, parts: Sequence[Iterable[int]], arcs: Iterable[Sequence[int]]):
        parts = tuple(tuple(sorted(p)) for p in parts)
        n = sum(len(p) for p in parts)
        covered = sorted(v for p in parts for v in p)
        if covered != list(range(n)) or n == 0:
            raise PreconditionViolated("parts", "parts must partition 0..n-1")
        if any(len(p) not in (1, 2) for p in parts):
            raise PreconditionViolated("parts", "part sizes must be 1 or 2")
        part_of = [0] * n
        for i, p in enumerate(parts):
            for v in p:
                part_of[v] = i
        adj = [[False] * n for _ in range(n)]
        for a in arcs:
            u, v = a
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise PreconditionViolated("arcs", f"bad arc ({u},{v})")
            if part_of[u] == part_of[v]:
                raise PreconditionViolated("arcs", f"arc inside a part: ({u},{v})")
            if adj[u][v] or adj[v][u]:
                raise PreconditionViolated("arcs", f"two arcs for pair ({u},{v})")
            adj[u][v] = True
        for u in range(n):
            for v in range(u + 1, n):
                if part_of[u] != part_of[v] and not adj[u][v] and not adj[v][u]:
                    raise PreconditionViolated("arcs", f"no arc for pair ({u},{v})")
        self.n = n
        self.parts = parts
        self.part_of = tuple(part_of)
        self._adj = tuple(tuple(r) for r in adj)
        self._out = tuple(
            tuple(v for v in range(n) if adj[u][v]) for u in range(n)
        )
        self._strong = None
        self._violation = _UNKNOWN
        self._cycles = {ln: {} for ln in range(4, n + 1)}
        self._cycles_done = 0  # vertices 0.._cycles_done-1 hold every length

    @classmethod
    def tournament(cls, n: int, arcs: Iterable[Sequence[int]]) -> "MultipartiteTournament":
        """All-singleton special case (an ordinary tournament)."""
        return cls([(v,) for v in range(n)], arcs)

    def has_arc(self, u: int, v: int) -> bool:
        return self._adj[u][v]

    def out_neighbors(self, u: int) -> tuple:
        return self._out[u]

    def arcs(self):
        for u in range(self.n):
            for v in self._out[u]:
                yield (u, v)

    def is_tournament(self) -> bool:
        return all(len(p) == 1 for p in self.parts)

    def disjointness_violation(self) -> Optional[tuple]:
        """A triple (x, y, z) with {x,y} a 2-part both dominating z, if any."""
        if self._violation is _UNKNOWN:
            self._violation = self._find_violation()
        return self._violation

    def _find_violation(self) -> Optional[tuple]:
        for p in self.parts:
            if len(p) != 2:
                continue
            x, y = p
            for z in self._out[x]:
                if self._adj[y][z]:
                    return (x, y, z)
        return None

    def to_json_dict(self) -> dict:
        return {"parts": [list(p) for p in self.parts], "arcs": [list(a) for a in self.arcs()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "MultipartiteTournament":
        return cls(data["parts"], data["arcs"])

    def __repr__(self) -> str:
        return f"MultipartiteTournament(n={self.n}, parts={len(self.parts)})"


def is_strongly_connected(t: MultipartiteTournament) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    if t._strong is None:
        t._strong = _strongly_connected(t)
    return t._strong


def _strongly_connected(t: MultipartiteTournament) -> bool:
    """Forward and backward search from vertex 0, uncached."""
    n = t.n
    if n == 1:
        return True
    adj = t._adj
    for backward in (False, True):
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            u = stack.pop()
            for v in range(n):
                if not seen[v] and (adj[v][u] if backward else adj[u][v]):
                    seen[v] = True
                    stack.append(v)
        if not all(seen):
            return False
    return True


def is_directed_cycle(t: MultipartiteTournament, seq: Sequence[int]) -> bool:
    if len(seq) < 3 or len(set(seq)) != len(seq):
        return False
    return all(t.has_arc(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq)))


def _extend_cycle(t: MultipartiteTournament, cyc: tuple, v: int) -> tuple:
    """One-longer directed cycle through v.

    Tries single-vertex insertion at a dominance switch first, then the
    swap of one non-anchor cycle vertex for a 2-path of outside vertices.
    One of them works on a cycle C = c_0..c_{k-1} through v with k < n
    when t meets mpt_cycles_through's preconditions and k >= 4, or is a
    strong tournament and k >= 3, so the closing InternalError is an alarm:

    * If some outside w has an in- and an out-neighbor on C, walk C from
      the one to the other.  Only w's partner p lacks an arc to w, so some
      c_i -> w -> c_{i+1} exists (insertion), or c_i -> w, p = c_{i+1} and
      w -> c_{i+2}, where w and p both dominate c_{i+2}: not disjoint.
    * Otherwise each outside vertex, apart from its partner, is dominated
      by all of C (class D) or dominates all of C (class A).  Strong
      connectivity needs arcs into and out of C, so A and D are nonempty,
      and D reaches C only through an arc b -> a from D to A.  Swapping
      c_i for b, a gives c_{i-1} -> b -> a -> c_{i+1} unless c_i = v,
      c_{i-1} = partner(b) or c_{i+1} = partner(a): at most 3 of k >= 4
      positions, and only c_i = v in a tournament.
    """
    adj = t._adj
    n = t.n
    inside = set(cyc)
    outside = [w for w in range(n) if w not in inside]
    ln = len(cyc)
    for i in range(ln):
        a = cyc[i]
        b = cyc[(i + 1) % ln]
        row = adj[a]
        for w in outside:
            if row[w] and adj[w][b]:
                return cyc[: i + 1] + (w,) + cyc[i + 1 :]
    for i in range(ln):
        if cyc[i] == v:
            continue
        a = cyc[i - 1]
        b = cyc[(i + 1) % ln]
        row = adj[a]
        for x in outside:
            if not row[x]:
                continue
            adjx = adj[x]
            for z in outside:
                if z != x and adjx[z] and adj[z][b]:
                    return cyc[:i] + (x, z) + cyc[i + 1 :]
    raise InternalError(
        f"no directed {ln + 1}-cycle through {v} grown from {list(cyc)}",
        context={"digraph": t.to_json_dict(), "vertex": v, "cycle": list(cyc)},
    )


def _triangle_through(t: MultipartiteTournament, v: int) -> tuple:
    """Directed triangle through v in a strong tournament.

    Some arc runs from N+(v) to N-(v), since otherwise N+(v) could not reach
    v; any such arc a -> b closes v -> a -> b -> v.
    """
    adj = t._adj
    for a in t.out_neighbors(v):
        for b in t.out_neighbors(a):
            if b != v and adj[b][v]:
                return (v, a, b)
    raise InternalError(
        f"no triangle through {v} in a strong tournament",
        context={"digraph": t.to_json_dict(), "vertex": v},
    )


def _check_vertex(t: MultipartiteTournament, v: int) -> None:
    if not (isinstance(v, int) and 0 <= v < t.n):
        raise PreconditionViolated("vertex", f"vertex {v!r} not in 0..{t.n - 1}")


def cycles_through(t: MultipartiteTournament, v: int) -> Dict[int, tuple]:
    """Directed cycles of every length 3..n through v in a strong tournament.

    The triangle comes from _triangle_through and lengths 4..n from
    mpt_cycles_through's shared table: a strong tournament of order >= 4
    meets its preconditions, as it has no 2-part to violate disjointness.
    """
    if not t.is_tournament():
        raise NotATournament("input has a part of size 2")
    if t.n < 3:
        raise PreconditionViolated("size", f"need order >= 3, got {t.n}")
    if not is_strongly_connected(t):
        raise NotStronglyConnected("tournament is not strongly connected")
    _check_vertex(t, v)
    out = {3: _triangle_through(t, v)}
    if t.n >= 4:
        out.update(mpt_cycles_through(t, v))
    return out


def _quadrangle_through(t: MultipartiteTournament, v: int) -> tuple:
    """Directed quadrangle (v, a, b, c) under mpt_cycles_through's preconditions.

    The scan follows arcs only, so every hit is a 4-cycle starting at v, and
    it tries every such cycle.  One always exists, so the closing
    InternalError is an alarm:

    * v in a 2-part {v, y}: take a in N+(v) and b in N+(y) (t is strong).
      Disjointness turns both returns around, a -> y and b -> v with a != b.
    * No 2-part: t is a strong tournament of order >= 4, and a triangle
      through v extends to a quadrangle (see _extend_cycle).
    * Otherwise every 2-part {x, y} spans a quadrangle Q as above.  At most
      one of x, y dominates v, and comparing v with Q's other two vertices
      (which lie in different parts when both dominate v) either closes a
      quadrangle through v or shows that v dominates all of Q.  If v
      dominates the union H of all such Q, a shortest path from H to v
      leaves H by an arc z -> w and reaches v in d >= 1 steps through
      singletons.  d = 1 gives v -> x -> z -> w -> v for the x -> z of Q,
      d = 2 gives v -> z -> w -> u -> v, and for d >= 3 the ring
      z -> w -> ... -> v -> z spans a strong tournament (z's partner lies
      in H) of order >= 5, where the previous case applies.
    """
    adj = t._adj
    out = t._out
    for a in out[v]:
        for b in out[a]:
            for c in out[b]:
                if adj[c][v]:
                    return (v, a, b, c)
    raise InternalError(
        f"no directed quadrangle through {v}",
        context={"digraph": t.to_json_dict(), "vertex": v},
    )


def mpt_cycles_through(t: MultipartiteTournament, v: int) -> Dict[int, tuple]:
    """Directed cycles of every length 4..|V| through v.

    Preconditions (each reported via PreconditionViolated): at least four
    vertices, strong connectivity, and disjoint out-neighborhoods inside
    every 2-part.

    An L-cycle is a certificate for each of its L vertices, so the cycles
    come from a table that t remembers, shared by all vertices: the first
    call for v fills it for vertices 0..v, in that order.  A vertex u takes,
    at each length L, an L-cycle already filed under it when there is one,
    and otherwise builds one (_quadrangle_through at L = 4, _extend_cycle of
    u's (L-1)-cycle above) and files it under every vertex on it that has no
    L-cycle yet.  A reused cycle goes through u and has length >= 4, so
    _extend_cycle's completeness argument covers it.  Because the fill order
    never changes, the result depends on (t, v) only, not on which vertices
    were asked for earlier.
    """
    n = t.n
    if n < 4:
        raise PreconditionViolated("size", f"need at least 4 vertices, got {n}")
    if not is_strongly_connected(t):
        raise PreconditionViolated("connectivity", "digraph is not strongly connected")
    bad = t.disjointness_violation()
    if bad is not None:
        x, y, z = bad
        raise PreconditionViolated(
            "disjointness", f"{z} is dominated by both {x} and {y} of one part"
        )
    _check_vertex(t, v)
    table = t._cycles
    for u in range(t._cycles_done, v + 1):
        cur = None
        for ln in range(4, n + 1):
            row = table[ln]
            cyc = row.get(u)
            if cyc is None:
                cyc = _quadrangle_through(t, u) if cur is None else _extend_cycle(t, cur, u)
                for w in cyc:
                    row.setdefault(w, cyc)
            cur = cyc
        t._cycles_done = u + 1
    return {ln: row[v] for ln, row in table.items()}


# -- correspondence with edge-colored graphs ---------------------------

def reduce_degenerate(g: ColoredCompleteGraph, f) -> MultipartiteTournament:
    """Orient g by a full compatible color map f.

    Fibers of f become the parts (size > 2 would force a monochromatic
    triangle and raises FiberTooLarge); each cross-fiber edge uv becomes the
    arc u -> v exactly when its color is f(u) but not f(v).
    """
    n = g.n
    for v in range(n):
        if v not in f:
            raise IncompatibleFunction(f"f is missing vertex {v}")
    fibers: Dict[int, list] = {}
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
        fu = f[u]
        for v in range(u + 1, n):
            c = g.color(u, v)
            if c != fu and c != f[v]:
                raise IncompatibleFunction(f"edge ({u},{v}) has color {c} not in f values")
            if fu == f[v]:
                continue
            arcs.append((u, v) if c == fu else (v, u))
    parts = sorted(fibers.values(), key=min)
    return MultipartiteTournament(parts, arcs)


def lift_cycle(g: ColoredCompleteGraph, f, cycle: Sequence[int]) -> Cycle:
    """Read a directed cycle of the f-orientation as a properly colored cycle.

    Consecutive arcs u -> v -> w carry colors f(u) != f(v), so the vertex
    sequence is properly colored as-is.  Raises CycleNotInDigraph when any
    consecutive pair is not an arc of the orientation.
    """
    seq = tuple(cycle)
    if len(seq) < 3 or len(set(seq)) != len(seq):
        raise CycleNotInDigraph(f"{list(seq)} is not a directed cycle")
    m = g._m
    pal = g._palette
    for u, v in zip(seq, seq[1:] + seq[:1]):
        if not (pal[m[u][v]] == f[u] != f[v]):
            raise CycleNotInDigraph(f"({u},{v}) is not an arc of the orientation")
    return Cycle(seq)
