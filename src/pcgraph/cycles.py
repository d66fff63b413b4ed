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
per length a cover of V from a Hamilton cycle H, and returns it in window
form, _WindowCovers: H with its position map, plus each window's start and
each fallback cycle, which reads as the read-only mapping of cycle tuples
it stands for.  _WindowCovers.read recognizes the windows of a cover given
as tuples, and _WindowCovers.holds checks the form, for
trichotomy.validate_result.  _pc_seam tests the seam of a window of a PC
H, for the growth route and that check.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence

from .core import ColoredCompleteGraph, _all_ints, _check_vertex, _check_vertices, _is_int
from .detect import find_monochromatic_triangle
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


class _WindowCovers(Mapping):
    """Tag-(a) covers in window form: a Hamilton cycle H and, per length, its entries.

    ham is H; pos, each vertex's position on H, and twice, ham + ham, are
    built from it here.  entries[L - 4], for L in 4..n, lists L's cover in
    walk order.  An int entry p stands for the window of L from position p
    of H, also across H's end, twice[p : p + L]; any other entry is a
    fallback cycle (a tuple in every form built here) and stands for
    itself.  Both tag-(a) routes fill their certificate in this form
    (_window_covers); covers[n] is (0,), H itself.  holds checks the form
    as it is, read brings other covers into it, and
    tournaments.mpt_cycles_through answers from it (through).

    As a read-only Mapping it is what it stands for: each length L, in
    order 4..n, maps to the tuple of L's cycles, and it equals the plain
    dict of them.  A length is built when it is first read and kept in
    _built, and a window is sliced once, whichever read needs it first,
    and kept in _cut, so every read of it gives the same tuple; the key n
    gives H itself.  Nothing can be assigned or deleted, and a copy or a
    pickle is a form again.  The check trusts one private part of the form,
    _cut holding only slices of twice, which only this module writes; pos
    and twice cannot belong to another cycle than ham.
    """

    __slots__ = ("ham", "pos", "twice", "entries", "_cut", "_built")

    def __init__(self, ham: tuple, entries: list):
        self.ham = ham
        self.pos = {w: i for i, w in enumerate(ham)}
        self.twice = ham + ham
        self.entries = entries
        self._cut = {(len(ham), 0): ham}  # (L, p) -> its window, once sliced
        self._built: dict = {}  # L -> the tuple of L's cycles, once read

    def __getitem__(self, ln) -> tuple:
        if ln not in self:
            raise KeyError(ln)
        cover = self._built.get(ln)
        if cover is None:
            n = len(self.ham)
            twice = self.twice
            cut = self._cut
            got = []
            # any entry but a start in 0..n-1 stands for itself: an int
            # outside 0..n-1, a bool or a float is no cycle, as holds finds
            for e in self.entries[ln - 4]:
                if type(e) is int and 0 <= e < n:
                    cyc = cut.get((ln, e))
                    if cyc is None:
                        cyc = cut[ln, e] = twice[e : e + ln]
                    e = cyc
                got.append(e)
            # from a list: tuples built from a generator skip CPython's free
            # lists but join them when freed, which raised peak RSS 15% once
            cover = self._built[ln] = tuple(got)
        return cover

    def __iter__(self):
        return iter(range(4, len(self.ham) + 1))

    def __len__(self) -> int:
        return len(self.ham) - 3

    def __contains__(self, ln) -> bool:
        return type(ln) is int and 4 <= ln <= len(self.ham)

    def through(self, v: int, lengths) -> dict:
        """L -> the first cycle of L's cover through vertex v, for each L of lengths.

        A window from position p holds v exactly when (pos[v] - p) % n < L,
        so no window is scanned, and only the cycle given is sliced, once
        (as a read of the length does, inlined: this loop is
        mpt_cycles_through's).
        """
        twice = self.twice
        n = len(self.ham)
        q = self.pos[v]
        entries = self.entries
        cut = self._cut
        out = {}
        for ln in lengths:
            for e in entries[ln - 4]:
                if type(e) is int:
                    if (q - e) % n < ln:
                        key = (ln, e)
                        got = cut.get(key)
                        if got is None:
                            got = cut[key] = twice[e : e + ln]
                        out[ln] = got
                        break
                elif v in e:
                    out[ln] = e
                    break
        return out

    @classmethod
    def read(cls, covers, n: int) -> Optional["_WindowCovers"]:
        """covers in window form, or None when they are not tag-(a) covers of n vertices.

        A _WindowCovers comes back as it is.  Any other covers need to be a
        dict with exactly the keys 4..n, read once each, as
        validate_result reads them: each cover an iterable of cycles, each
        cycle a sequence of L entries, all ints.  The int test is one type
        lookup per entry in C, and the only one that fails 0.0 or True,
        which tuple equality takes for 0 and 1.  H is the first cycle of
        covers[n], read once, since covers[n] may be a one-shot iterator.
        A cycle vs that equals the run of H from its first entry, from
        position p = pos[vs[0]], becomes that start p, and any other stays a
        tuple.  Nothing here tests a color or H itself; holds checks the
        form.
        """
        if type(covers) is cls:
            return covers
        # set equality, since sorting keys of mixed types would raise
        if not isinstance(covers, dict) or covers.keys() != set(range(4, n + 1)):
            return None
        try:
            top = tuple(covers[n])  # read once: covers[n] may be a one-shot iterator
            entries: list = [None] * (n - 3)
            form = cls(tuple(top[0]), entries)
            pos, twice = form.pos, form.twice
            for ln, cover in covers.items():
                got = []
                for vs in map(tuple, top if ln == n else cover):
                    if len(vs) != ln or not _all_ints(vs):
                        return None
                    p = pos[vs[0]]  # KeyError when vs[0] is not on H
                    got.append(p if vs == twice[p : p + ln] else vs)
                entries[ln - 4] = tuple(got)  # a key 4.0 fails this index
        except (TypeError, ValueError, LookupError):
            return None
        return form

    def holds(self, m: tuple) -> bool:
        """Whether the form is tag-(a) covers of the color matrix m, n = len(m).

        A form that holds puts every vertex on a PC cycle of every length
        from 4 to n.  H gets the full test: n entries, all ints, whose set
        is V = {0..n-1}, and the PC color test over every edge.  So H is a
        PC Hamilton cycle.

        A start p must be exactly an int (not a bool or a float) with
        0 <= p < n, and only its seam a -> b, from the run's last vertex back
        to its first, is tested (_pc_seam): m[a][b] must differ in color
        from H's edge into a and from H's edge out of b.  That is the whole
        PC test: the run is a path of H, so its inner edges are H's, and
        each inner vertex sees two consecutive edges of the PC cycle H; only
        the two vertices at the seam see the seam edge.  Since L <= n, the
        run holds L distinct positions of H, hence L distinct vertices.

        Any other entry is a fallback cycle, read with tuple(), and gets the
        full test: L distinct entries, all ints, and the PC color test, which
        indexes the color matrix with every entry.  An int of n or more
        fails an index with IndexError.  A negative int indexes from the end
        of a row and so passes the color test, but it fails the lookup in
        H's position map below with KeyError.

        Coverage is counted by positions on H: a window from position p sets
        bits p..p+L-1, wrapped around H's end, and a fallback the bit of each
        entry's position.  H visits each vertex of V once, so the position
        map is a bijection from V onto 0..n-1, and the positions a cover sets
        are all n exactly when its vertex sets cover V.  The check slices no
        window.
        """
        n = len(m)
        ham = self.ham
        try:
            if len(ham) != n or not _all_ints(ham) or set(ham) != set(range(n)):
                return False
            if not _pc_closed(m, ham) or len(self.entries) != n - 3:
                return False
            twice, pos = self.twice, self.pos
            closes = _pc_seam(m, ham)
            full = (1 << n) - 1
            for ln, cover in enumerate(self.entries, 4):
                run = (1 << ln) - 1
                done = 0  # bit i: position i of H lies on a cycle of the cover
                for e in cover:
                    if type(e) is int:
                        if not (0 <= e < n and closes(twice[e + ln - 1], twice[e])):
                            return False
                        bits = run << e
                        done |= bits | bits >> n
                        continue
                    vs = tuple(e)
                    if len(vs) != ln or not _all_ints(vs) or len(set(vs)) != ln:
                        return False
                    if not _pc_closed(m, vs):
                        return False
                    for w in vs:
                        done |= 1 << pos[w]
                if done & full != full:  # wrapped bits >= n are set too
                    return False
        except (TypeError, ValueError, LookupError):
            return False
        return True


def _window_covers(ham: tuple, closes: Callable, build: Callable) -> _WindowCovers:
    """Per length L in 4..n, a cover of V = 0..n-1 by L-cycles, cut from one Hamilton cycle.

    Both tag-(a) routes fill their certificate here, in window form
    (_WindowCovers): ham is a Hamilton cycle H, and covers[n] is (ham,).
    Any L consecutive vertices of ham, in ham's order, form an L-cycle (a
    window) when closes(last, first) accepts its seam, the pair from the
    last back to the first.  For each L in 4..n-1 one walk over ham's
    positions takes, at the first uncovered position p, the window that
    holds p and starts latest: starts p, p-1, ..., p-L+1, around ham, one
    closes test each.  The cover records the window's start, and the walk
    goes on after it.  A position that no window holds gets
    build(cur, u, L), an L-cycle through its vertex u, where cur is the
    first (L-1)-cycle of the cover through u (through, by positions),
    or None at L = 4; the cover records that cycle.  So every position is
    covered, each cover lists its cycles in walk order, and no window is
    sliced but a cur.
    """
    n = len(ham)
    entries: list = []
    covers = _WindowCovers(ham, entries)
    twice, pos = covers.twice, covers.pos
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
                    cover.append(j)
                    bits = run << j
                    done |= bits | bits >> n  # wrap around ham's end; bits >= n go unread
                    p = i + ln
                    break
            else:
                u = ham[p]
                cur = None if ln == 4 else covers.through(u, (ln - 1,))[ln - 1]
                cyc = build(cur, u, ln)
                cover.append(cyc)
                for w in cyc:
                    done |= 1 << pos[w]
        entries.append(tuple(cover))
    entries.append((0,))
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
    cycle its covers are cut from (read from the window form, with no
    cover built).  Tags (b) and (c) rule one out, as the
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
            witness = tuple(hv[i] for i in res.cycles.ham)
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
