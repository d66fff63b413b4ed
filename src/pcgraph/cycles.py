"""Properly colored paths and cycles: predicates, searches, constructors.

"Properly colored" (PC) means consecutive edges carry distinct colors,
including the wrap-around pair of a cycle.  A cycle, taken or returned, is a
tuple of its vertices in cycle order; certificate covers hold the same
tuples.  Every PC-cycle search is one depth-first walk, _pc_cycle_search,
pruning only on the previous edge color; it reads the graph's neighbor
table, stepping to the vertices off the path that the last vertex meets
in another color, one mask per step.  has_pc_cycle returns its first
cycle; it is the engine of oracles.is_pancyclic_from, and
trichotomy.classify's growth route runs it as a counted last resort.
classify_attachment decides extendability by insertion, then by classify on
the induced subgraph, with no search.  enumerate_pc_cycles lists all of
them, once up to rotation and reflection (_canonical), and is how the tests
check the walk against the permutation oracle.  pc_quadrangle_search is the
same walk at length 4.  _window_covers, which both tag-(a) routes call, cuts
per length a cover of V from a Hamilton cycle.  _Windows recognizes a window
of that cycle, for _window_covers and trichotomy.validate_result, and
_pc_seam tests the seam of a window of a PC one, for the growth route and
validate_result.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence

from .core import ColoredCompleteGraph, _check_vertex, _check_vertices, _is_int
from .detect import DegeneracyTag, degeneracy_status, find_monochromatic_triangle
from .errors import (
    BadLength,
    InternalError,
    MonochromaticTrianglePresent,
    PreconditionViolated,
    TooSmall,
    VertexOnCycle,
)


def is_pc_cycle(g: ColoredCompleteGraph, seq) -> bool:
    """True iff seq (cyclically) has no two consecutive edges of one color."""
    vs = _check_vertices(g.n, seq)
    return len(vs) >= 3 and _pc_closed(g._m, vs)


def _pc_closed(m: tuple, vs: tuple) -> bool:
    """True iff the closed walk vs has no two consecutive edges of one color in m.

    vs needs at least two entries, and each is used to index a row of m and
    an entry of a row, with no other check.
    """
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
    vs = _check_vertices(g.n, seq)
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
    g: ColoredCompleteGraph,
    v: int,
    length: int,
    visit: Optional[Callable[[tuple], object]] = None,
) -> object:
    """Depth-first walk for PC cycles of the given length through v.

    Paths grow from v in vertex order, skipping a vertex whose edge repeats
    the previous color, and close when the closing edge differs from both
    edges it meets.  The steps from the last vertex are the set bits of
    free & ~N_prev(last), taken in ascending order, with free the mask of
    the vertices off the path and N the graph's neighbor table.  The start
    color -1 reads the spare slot, which holds v alone, so the first step
    may go to any other vertex.  A closed walk's value is the walk, a
    tuple, or visit(walk) with a visit callback, which gets each cycle
    once per direction.  The walk returns the first value that is not
    None, or None.
    """
    _check_vertex(g.n, v)
    if not (_is_int(length) and 3 <= length <= g.n):
        raise BadLength(f"length must be an int in [3, {g.n}], got {length!r}")
    m = g._m
    nbr = g._nbr
    path = [v]

    def dfs(last: int, prev_color: int, free: int):
        if len(path) == length:
            closing = m[last][v]
            if closing != prev_color and closing != m[v][path[1]]:
                return tuple(path) if visit is None else visit(tuple(path))
            return None
        row = m[last]
        steps = free & ~nbr[last][prev_color]
        while steps:
            b = steps & -steps
            w = b.bit_length() - 1
            path.append(w)
            got = dfs(w, row[w], free ^ b)
            path.pop()
            if got is not None:
                return got
            steps ^= b
        return None

    try:
        return dfs(v, -1, ((1 << g.n) - 1) ^ (1 << v))
    finally:
        del dfs  # dfs holds itself through its closure cell; leave no cycle for gc


def _canonical(vs: tuple) -> tuple:
    """vs rotated to its smallest vertex, oriented toward that vertex's smaller neighbor."""
    i = vs.index(min(vs))
    rot = vs[i:] + vs[:i]
    return rot[:1] + rot[:0:-1] if rot[1] > rot[-1] else rot


def enumerate_pc_cycles(g: ColoredCompleteGraph, v: int, length: int) -> List[tuple]:
    """All PC cycles of the given length through v, canonical and sorted.

    Rotations and reflections are identified: the walk fixes v first, and of
    its two directions only the one whose second vertex is below its last is
    kept, so each cycle appears once.
    """
    walks: list = []
    _pc_cycle_search(g, v, length, walks.append)
    return sorted(_canonical(w) for w in walks if w[1] < w[-1])


def has_pc_cycle(g: ColoredCompleteGraph, v: int, length: int) -> Optional[tuple]:
    """First PC cycle of the given length through v, or None (early exit)."""
    return _pc_cycle_search(g, v, length)


# -- pancyclic covers -----------------------------------------------------

class _Windows:
    """The runs of a Hamilton cycle ham: L <= n consecutive vertices in ham's order.

    pos maps each vertex to its position on ham, and twice is ham + ham, so
    the run of L from position p, also across ham's end, is
    twice[p : p + L].  A run closed by its seam, the pair from its last
    vertex back to its first, is a window.  Every tag-(a) window is
    recognized by start, the one slice compare.
    """

    __slots__ = ("pos", "twice")

    def __init__(self, ham: tuple):
        self.pos = {w: i for i, w in enumerate(ham)}
        self.twice = ham + ham

    def start(self, vs: tuple) -> int:
        """p = the position of vs[0] if vs equals the run twice[p : p + len(vs)], else -1.

        KeyError when vs[0] is not on ham, TypeError when it is unhashable,
        and IndexError when vs is empty.  Tuple equality takes 1.0 and True
        for 1, so a caller that needs ints tests the types itself.
        """
        p = self.pos[vs[0]]
        return p if vs == self.twice[p : p + len(vs)] else -1


def _pc_seam(m: tuple, ham: tuple) -> Callable[[int, int], bool]:
    """The seam test for windows of a PC Hamilton cycle ham of the color matrix m.

    A run of ham from b to a is a PC path, so it closes into a PC cycle
    exactly when the seam edge a -> b differs in color from ham's edge into
    a and from ham's edge out of b.  The test reads both from two lists,
    into and out_of, built once and indexed by vertex.
    """
    into = [0] * len(ham)  # into[v]: color of ham's edge into v; out_of[v]: of its edge out of v
    out_of = [0] * len(ham)
    a = ham[-1]
    for b in ham:
        out_of[a] = into[b] = m[a][b]
        a = b
    return lambda a, b: into[a] != m[a][b] != out_of[b]


def _window_covers(ham: tuple, closes: Callable, build: Callable) -> Dict[int, tuple]:
    """Per length L in 4..n, a cover of V = 0..n-1 by L-cycles, cut from one Hamilton cycle.

    Both tag-(a) routes fill their certificate here.  ham is a Hamilton
    cycle, and covers[n] is (ham,).  Any L consecutive vertices of ham, in
    ham's order, form an L-cycle (a window) when closes(last, first)
    accepts its seam, the pair from the last back to the first.  For each
    L in 4..n-1 one walk over ham's positions takes, at the first
    uncovered position p, the window that holds p and starts latest:
    starts p, p-1, ..., p-L+1, around ham, one closes test each.  The walk
    goes on after that window.  A position that no window holds gets
    build(cur, u, L), an L-cycle through its vertex u, where cur is the
    first (L-1)-cycle of the cover through u, or None at L = 4.  So every
    position is covered, and each cover lists its cycles in walk order.
    """
    n = len(ham)
    runs = _Windows(ham)
    twice, pos = runs.twice, runs.pos
    covers: Dict[int, tuple] = {}
    for ln in range(4, n):
        cover = []
        run = (1 << ln) - 1
        done = 0  # bit i: position i of ham lies on a cycle of cover
        p = 0
        while p < n:
            if done >> p & 1:
                p += 1
                continue
            for i in range(p, p - ln, -1):
                j = i % n
                if closes(twice[j + ln - 1], twice[j]):
                    cover.append(twice[j : j + ln])
                    bits = run << j
                    done |= bits | bits >> n  # wrap around ham's end; bits >= n go unread
                    p = i + ln
                    break
            else:
                u = ham[p]
                cur = None if ln == 4 else next(c for c in covers[ln - 1] if u in c)
                cyc = build(cur, u, ln)
                cover.append(cyc)
                for w in cyc:
                    done |= 1 << pos[w]
        covers[ln] = tuple(cover)
    covers[n] = (ham,)
    return covers


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
    cycle: Optional[tuple] = None
    color: Optional[int] = None


def insert_into_pc_cycle(g: ColoredCompleteGraph, vs: tuple, v: int) -> Optional[tuple]:
    """PC cycle on V(vs)+{v} obtained by inserting v between neighbors of vs, or None.

    Precondition, not checked: vs is a PC cycle of distinct vertices of g,
    and v is a vertex of g off it.  Its callers pass cycles they have
    checked.  Outside that the result is unchecked: it need not be a PC
    cycle, and a vertex >= g.n raises IndexError.
    """
    m = g._m
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
        return vs[: i + 1] + (v,) + vs[i + 1 :]
    return None


def _induced(g: ColoredCompleteGraph, vertices: Sequence[int]) -> ColoredCompleteGraph:
    """G[vertices] with vertices[i] relabeled i, palette cut to its edge colors."""
    m = g._m
    used = sorted({m[u][v] for u in vertices for v in vertices if u != v})
    dense = {d: i for i, d in enumerate(used)}
    rows = tuple(
        tuple(-1 if u == v else dense[m[u][v]] for v in vertices) for u in vertices
    )
    return ColoredCompleteGraph(len(vertices), rows, tuple(g._palette[d] for d in used))


def classify_attachment(g: ColoredCompleteGraph, cycle: Sequence[int], v: int) -> AttachmentClass:
    """How an outside vertex relates to a PC cycle, any sequence of its vertices.

    Either some PC cycle covers V(cycle)+{v} (returned as EXTENDABLE with a
    witness), or exactly one of three patterns holds: v sees one color on
    the cycle, v copies every vertex's predecessor edge color, or v copies
    every vertex's successor edge color.  Any other outcome on
    mono-triangle-free input is a falsified guarantee.  When no insertion
    fits, trichotomy.classify on H = G[V(cycle)+{v}] decides extendability,
    in polynomial time: tag (a) hands over a PC Hamilton cycle of H, the
    first of its length-|H| cover.  Tags (b) and (c) rule one out, as the
    boundary edges of a proper degenerate set lie on no PC cycle and the
    double pentagon has no PC pentagon.  A cycle vertex or v outside g
    raises UnknownVertex, a cycle of fewer than 3 vertices BadLength, a
    cycle that is not PC PreconditionViolated, and a monochromatic triangle
    inside H, when no insertion fits, MonochromaticTrianglePresent.
    """
    from .trichotomy import TrichotomyTag, classify  # trichotomy imports this module

    vs = _check_vertices(g.n, cycle)
    if len(vs) < 3:
        raise BadLength(f"cycles need >= 3 vertices, got {len(vs)}")
    _check_vertex(g.n, v)
    if v in vs:
        raise VertexOnCycle(f"{v} lies on the cycle")
    m = g._m
    if not _pc_closed(m, vs):
        raise PreconditionViolated("properly-colored", f"{list(vs)} is not a PC cycle")
    witness = insert_into_pc_cycle(g, vs, v)
    if witness is None:
        hv = vs + (v,)
        res = classify(_induced(g, hv))
        if res.tag is TrichotomyTag.PANCYCLIC:
            witness = tuple(hv[i] for i in res.cycles[len(hv)][0])
    if witness is not None:
        return AttachmentClass(AttachmentKind.EXTENDABLE, cycle=witness)
    rowv = m[v]
    colors = {rowv[u] for u in vs}
    if len(colors) == 1:
        return AttachmentClass(
            AttachmentKind.SINGLE_COLOR, color=g._palette[colors.pop()]
        )
    k = len(vs)
    if all(rowv[u] == m[u][vs[i - 1]] for i, u in enumerate(vs)):
        return AttachmentClass(AttachmentKind.ALL_PREDECESSOR)
    if all(rowv[u] == m[u][vs[(i + 1) % k]] for i, u in enumerate(vs)):
        return AttachmentClass(AttachmentKind.ALL_SUCCESSOR)
    raise InternalError(
        "attachment fits no case of the non-extendable classification",
        instance=g,
        context={"cycle": list(vs), "vertex": v},
    )


def pc_quadrangle_search(g: ColoredCompleteGraph, v: int) -> Optional[tuple]:
    """First PC quadrangle through v in walk order: has_pc_cycle(g, v, 4)."""
    return _pc_cycle_search(g, v, 4)


def find_pc_quadrangle(g: ColoredCompleteGraph, v: int) -> tuple:
    """PC quadrangle through v; guaranteed on non-degenerate mono-triangle-free input."""
    if g.n < 4:
        raise PreconditionViolated("size", f"need n >= 4, got {g.n}")
    _check_vertex(g.n, v)
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

