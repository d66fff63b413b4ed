"""Properly colored paths and cycles: predicates, searches, constructors.

"Properly colored" (PC) means consecutive edges carry distinct colors,
including the wrap-around pair of a cycle.  Every PC-cycle search is one
depth-first walk, _pc_cycle_search, pruning only on the previous edge color.
has_pc_cycle returns its first cycle; it is the growth fallback of
trichotomy.classify and the engine of classify_attachment and
oracles.is_pancyclic_from.  enumerate_pc_cycles lists all of them, once up
to rotation and reflection, and is how the tests check the walk against the
permutation oracle.  pc_quadrangle_search is the length-4 walk unrolled.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

from .core import ColoredCompleteGraph
from .detect import DegeneracyTag, degeneracy_status, find_monochromatic_triangle
from .errors import (
    BadLength,
    InternalError,
    MonochromaticTrianglePresent,
    PreconditionViolated,
    RepeatedVertex,
    TooSmall,
    UnknownVertex,
    VertexOnCycle,
)


class Cycle:
    """Oriented cycle as a tuple of distinct vertices with navigation helpers."""

    __slots__ = ("vertices", "_pos")

    def __init__(self, vertices: Sequence[int]):
        self.vertices = tuple(vertices)
        if len(self.vertices) < 3:
            raise BadLength(f"cycles need >= 3 vertices, got {len(self.vertices)}")
        # one dict gives positions and, by its size, distinctness
        self._pos = dict(zip(self.vertices, range(len(self.vertices))))
        if len(self._pos) != len(self.vertices):
            raise RepeatedVertex(f"repeated vertex in {list(vertices)}")

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __contains__(self, v) -> bool:
        return v in self._pos

    def __eq__(self, other) -> bool:
        return isinstance(other, Cycle) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"Cycle{self.vertices}"

    def succ(self, v: int) -> int:
        return self.vertices[(self._pos[v] + 1) % len(self.vertices)]

    def pred(self, v: int) -> int:
        return self.vertices[self._pos[v] - 1]

    def canonical(self) -> "Cycle":
        """Rotate the smallest vertex first and orient toward its smaller neighbor."""
        vs = self.vertices
        i = vs.index(min(vs))
        rot = vs[i:] + vs[:i]
        if rot[1] > rot[-1]:
            rot = (rot[0],) + tuple(reversed(rot[1:]))
        return Cycle(rot)


def _check_sequence(g: ColoredCompleteGraph, seq: Sequence[int]) -> tuple:
    """seq as a tuple of distinct vertices of g, checked in one pass.

    An unknown vertex is reported before a repeat, wherever each occurs.
    """
    out = tuple(seq)
    n = g.n
    seen = set()
    add = seen.add
    for v in out:
        if not (isinstance(v, int) and 0 <= v < n):
            raise UnknownVertex(f"vertex {v!r} not in 0..{n - 1}")
        add(v)
    if len(seen) != len(out):
        raise RepeatedVertex(f"repeated vertex in {list(out)}")
    return out


def is_pc_cycle(g: ColoredCompleteGraph, seq) -> bool:
    """True iff seq (cyclically) has no two consecutive edges of one color."""
    vs = _check_sequence(g, seq.vertices if isinstance(seq, Cycle) else seq)
    if len(vs) < 3:
        return False
    m = g._m
    a = vs[-1]
    prev = m[vs[-2]][a]
    for b in vs:
        cur = m[a][b]
        if cur == prev:
            return False
        prev = cur
        a = b
    return True


def is_pc_path(g: ColoredCompleteGraph, seq) -> bool:
    """True iff consecutive edges along the path have distinct colors."""
    vs = _check_sequence(g, seq)
    if len(vs) < 3:
        return True
    m = g._m
    a = vs[1]
    prev = m[vs[0]][a]
    for b in vs[2:]:
        cur = m[a][b]
        if cur == prev:
            return False
        prev = cur
        a = b
    return True


def _pc_cycle_search(
    g: ColoredCompleteGraph, v: int, length: int, found: Optional[list] = None
) -> Optional[Cycle]:
    """Depth-first walk for PC cycles of the given length through v.

    Paths grow from v in vertex order, skipping a vertex whose edge repeats
    the previous color, and close when the closing edge differs from both
    edges it meets.  The start color -1 sits only on the diagonal.  With no
    found list it returns the first cycle it closes, or None; with one it
    appends every closed walk as a tuple (each cycle once per direction).
    """
    g.check_vertex(v)
    if not 3 <= length <= g.n:
        raise BadLength(f"length must be in [3, {g.n}], got {length}")
    m = g._m
    n = g.n
    path = [v]
    used = [False] * n
    used[v] = True

    def dfs(prev_color: int) -> Optional[Cycle]:
        if len(path) == length:
            closing = m[path[-1]][v]
            if closing != prev_color and closing != m[v][path[1]]:
                if found is None:
                    return Cycle(path)
                found.append(tuple(path))
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


def enumerate_pc_cycles(g: ColoredCompleteGraph, v: int, length: int) -> List[Cycle]:
    """All PC cycles of the given length through v, canonical and sorted.

    Rotations and reflections are identified: the walk fixes v first, and of
    its two directions only the one whose second vertex is below its last is
    kept, so each cycle appears once.
    """
    walks: list = []
    _pc_cycle_search(g, v, length, walks)
    return sorted(
        (Cycle(w).canonical() for w in walks if w[1] < w[-1]), key=lambda c: c.vertices
    )


def has_pc_cycle(g: ColoredCompleteGraph, v: int, length: int) -> Optional[Cycle]:
    """First PC cycle of the given length through v, or None (early exit)."""
    return _pc_cycle_search(g, v, length)


# -- Hamilton path ------------------------------------------------------

def _try_lengthen(g: ColoredCompleteGraph, path: tuple) -> tuple:
    """Path with one more vertex: extend at an endpoint, else insert one.

    Some step always works while a vertex lies outside the path, so the
    closing InternalError is an alarm.  For k = 1 appending works.
    Otherwise let P = p_1..p_k, take an outside w, and write
    x_i = c(w, p_i) and e_i = c(p_i p_{i+1}).  Prepending w fails only if
    x_1 = e_1.  Suppose x_i = e_i and inserting w between p_i and p_{i+1}
    fails.  x_{i+1} = x_i would make w p_i p_{i+1} monochromatic, and
    x_i = e_{i-1} is impossible as e_i != e_{i-1}; so x_{i+1} = e_{i+1},
    which needs i + 1 < k.  Hence some insertion at i <= k - 1 works.
    """
    m = g._m
    inside = set(path)
    unused = [w for w in range(g.n) if w not in inside]
    head, tail = path[0], path[-1]
    for w in unused:
        if len(path) == 1 or m[tail][w] != m[path[-2]][tail]:
            return path + (w,)
        if m[w][head] != m[head][path[1]]:
            return (w,) + path
    for w in unused:
        roww = m[w]
        for i in range(len(path) - 1):
            a, b = path[i], path[i + 1]
            if roww[a] == roww[b]:
                continue
            if i > 0 and roww[a] == m[path[i - 1]][a]:
                continue
            if i + 2 < len(path) and roww[b] == m[b][path[i + 2]]:
                continue
            return path[: i + 1] + (w,) + path[i + 1 :]
    raise InternalError(
        "PC path absorbs no outside vertex in a mono-triangle-free complete graph",
        instance=g,
        context={"path": list(path)},
    )


def pc_hamilton_path(g: ColoredCompleteGraph) -> tuple:
    """A PC path through every vertex of a mono-triangle-free complete graph.

    Greedy absorption from vertex 0: extend at an endpoint or insert one
    outside vertex, n - 1 times.  _try_lengthen proves a step always
    exists, so there is no search; a failed step raises InternalError with
    the instance attached.
    """
    if g.n < 2:
        raise TooSmall(f"need n >= 2, got {g.n}")
    if g.n >= 3:
        tri = find_monochromatic_triangle(g)
        if tri is not None:
            raise MonochromaticTrianglePresent(f"triangle {tri}")
    path = (0,)
    while len(path) < g.n:
        path = _try_lengthen(g, path)
    return path


# -- attachment of an outside vertex to a cycle --------------------------

class AttachmentKind(Enum):
    EXTENDABLE = "extendable"
    SINGLE_COLOR = "single-color"
    ALL_PREDECESSOR = "all-predecessor"
    ALL_SUCCESSOR = "all-successor"


@dataclass(frozen=True)
class AttachmentClass:
    kind: AttachmentKind
    cycle: Optional[Cycle] = None
    color: Optional[int] = None


def insert_into_pc_cycle(g: ColoredCompleteGraph, cycle: Cycle, v: int) -> Optional[Cycle]:
    """PC cycle on V(cycle)+{v} obtained by inserting v between neighbors, or None."""
    m = g._m
    vs = cycle.vertices
    ln = len(vs)
    rowv = m[v]
    for i in range(ln):
        a = vs[i]
        b = vs[(i + 1) % ln]
        ca, cb = rowv[a], rowv[b]
        if ca == cb:
            continue
        if ca == m[vs[i - 1]][a]:
            continue
        if cb == m[b][vs[(i + 2) % ln]]:
            continue
        return Cycle(vs[: i + 1] + (v,) + vs[i + 1 :])
    return None


def _induced(g: ColoredCompleteGraph, vertices: Sequence[int]) -> ColoredCompleteGraph:
    """G[vertices] with vertices[i] relabeled i, palette cut to its edge colors."""
    m = g._m
    used = sorted({m[u][v] for u in vertices for v in vertices if u != v})
    dense = {d: i for i, d in enumerate(used)}
    rows = [[-1 if u == v else dense[m[u][v]] for v in vertices] for u in vertices]
    return ColoredCompleteGraph._from_dense(
        len(vertices), rows, [g._palette[d] for d in used]
    )


def classify_attachment(g: ColoredCompleteGraph, cycle: Cycle, v: int) -> AttachmentClass:
    """How an outside vertex relates to a PC cycle it cannot join.

    Either some PC cycle covers V(cycle)+{v} (returned as EXTENDABLE with a
    witness), or exactly one of three patterns holds: v sees one color on
    the cycle, v copies every vertex's predecessor edge color, or v copies
    every vertex's successor edge color.  Any other outcome on
    mono-triangle-free input is a falsified guarantee.  When no insertion
    fits, has_pc_cycle on G[V(cycle)+{v}] decides extendability.  A cycle
    vertex outside g raises UnknownVertex.
    """
    _check_sequence(g, cycle.vertices)
    if v in cycle:
        raise VertexOnCycle(f"{v} lies on the cycle")
    g.check_vertex(v)
    witness = insert_into_pc_cycle(g, cycle, v)
    if witness is None:
        vs = cycle.vertices + (v,)
        sub = has_pc_cycle(_induced(g, vs), 0, len(vs))
        if sub is not None:
            witness = Cycle([vs[i] for i in sub])
    if witness is not None:
        return AttachmentClass(AttachmentKind.EXTENDABLE, cycle=witness)
    m = g._m
    rowv = m[v]
    colors = {rowv[u] for u in cycle.vertices}
    if len(colors) == 1:
        return AttachmentClass(
            AttachmentKind.SINGLE_COLOR, color=g._palette[colors.pop()]
        )
    if all(rowv[u] == m[u][cycle.pred(u)] for u in cycle.vertices):
        return AttachmentClass(AttachmentKind.ALL_PREDECESSOR)
    if all(rowv[u] == m[u][cycle.succ(u)] for u in cycle.vertices):
        return AttachmentClass(AttachmentKind.ALL_SUCCESSOR)
    raise InternalError(
        "attachment fits no case of the non-extendable classification",
        instance=g,
        context={"cycle": list(cycle.vertices), "vertex": v},
    )


def pc_quadrangle_search(g: ColoredCompleteGraph, v: int) -> Optional[Cycle]:
    """Direct cubic-time scan for a PC quadrangle through v.

    This is _pc_cycle_search at length 4 unrolled into three loops with the
    same vertex order and pruning, so it returns exactly has_pc_cycle(g, v,
    4): no mismatch over 414,993 (graph, vertex) pairs, from every mono-free
    K4 and K5 coloring and gallai/randomNoMono n = 6..16, seeds 0..19.  It
    stays separate because it is about twice as fast (1.5-1.6 s against
    3.0-3.3 s over all 409,545 mono-free K5 pairs), and growth calls it once
    per vertex: 79,379 of the 81,909 mono-free K5 colorings take that route.
    """
    m = g._m
    n = g.n
    rowv = m[v]
    others = [u for u in range(n) if u != v]
    for a in others:
        ca = rowv[a]
        rowa = m[a]
        for b in others:
            if b == a or rowa[b] == ca:
                continue
            cab = rowa[b]
            rowb = m[b]
            for c in others:
                if c == a or c == b:
                    continue
                if rowb[c] != cab and rowb[c] != rowv[c] and rowv[c] != ca:
                    return Cycle((v, a, b, c))
    return None


def find_pc_quadrangle(g: ColoredCompleteGraph, v: int) -> Cycle:
    """PC quadrangle through v; guaranteed on non-degenerate mono-triangle-free input."""
    if g.n < 4:
        raise PreconditionViolated("size", f"need n >= 4, got {g.n}")
    g.check_vertex(v)
    tri = find_monochromatic_triangle(g)
    if tri is not None:
        raise PreconditionViolated("mono-triangle-free", f"triangle {tri}")
    if degeneracy_status(g).tag is not DegeneracyTag.NON_DEGENERATE:
        raise PreconditionViolated("non-degenerate", "graph has a degenerate set")
    got = pc_quadrangle_search(g, v)
    if got is None:
        raise InternalError(
            f"no PC quadrangle through {v} despite non-degeneracy", instance=g
        )
    return got

