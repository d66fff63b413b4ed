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
mpt_cycles_through fills, per length, a cover of V by few cycles: the rules
grow one Hamilton cycle H, each cover takes runs of L consecutive vertices
of H whose seam arc closes them (windows), and the rules build a cycle only
for a vertex that no window holds (cycles._window_covers, which the colored
growth route shares).  The table keeps the covers in window form, H plus
each window's start, and cycle_covers() hands it out.
A strong tournament is the special case without 2-parts:
cycles_through adds a triangle to lengths 4..n.  Every search over vertices
(insertion and swap candidates, the triangle and quadrangle closers,
disjointness, strong connectivity) is an AND of out- and in-neighbor
bitmasks whose lowest set bit is the smallest fitting vertex, the order a
plain scan would take.

The bridge to edge-colored graphs: a full compatible vertex-to-color map f
orients each cross-fiber edge toward the endpoint whose f-value it misses,
producing such a tournament; directed cycles of the orientation pull back to
properly colored cycles because consecutive arcs carry distinct f-values.
reduce_degenerate reads the tournament's bitmasks straight from the graph's
neighbor table, which the graph builds with its matrix and rebuilds on
unpickling, not on first use: O(n) mask operations where the arc-list
constructor would read and check every pair, and one count shows the map
compatible.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .core import ColoredCompleteGraph, _all_ints, _check_int, _check_vertex, _is_vertex
from .cycles import _window_covers as _cut_windows
from .cycles import _WindowCovers
from .errors import (
    CycleNotInDigraph,
    FiberTooLarge,
    IncompatibleFunction,
    InternalError,
    NotATournament,
    NotStronglyConnected,
    PreconditionViolated,
)

_BIT = (1).__lshift__  # _BIT(v) == 1 << v


def _lowest(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def _members(mask: int) -> tuple:
    """Indices of the set bits of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class MultipartiteTournament:
    """Loopless digraph on 0..n-1 with parts of size <= 2 and one arc per cross pair.

    Each vertex u keeps its out- and in-neighbors as bitmasks: bit w of
    ``_outmask[u]`` (``_inmask[u]``) is set for an arc u -> w (w -> u).  A
    search for a vertex with given arcs is then one AND whose lowest set bit
    is the smallest such vertex.

    Instances are immutable.  The one derived fact remembered is the table
    mpt_cycles_through fills on its first call, which cycle_covers() reads.
    """

    __slots__ = ("n", "parts", "part_of", "_outmask", "_inmask", "_table")

    def __init__(self, parts: Sequence[Iterable[int]], arcs: Iterable[Sequence[int]]):
        try:
            parts = tuple(tuple(p) for p in parts)
        except TypeError:
            raise PreconditionViolated("parts", f"not a sequence of parts: {parts!r}") from None
        if not all(map(_all_ints, parts)):
            raise PreconditionViolated("parts", "part members must be ints")
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
        outmask = [0] * n
        inmask = [0] * n
        try:
            arcs = iter(arcs)
        except TypeError:
            raise PreconditionViolated("arcs", f"not a sequence of arcs: {arcs!r}") from None
        a = None
        try:
            for a in arcs:
                u, v = a
                if not (_is_vertex(n, u) and _is_vertex(n, v)) or u == v:
                    raise PreconditionViolated("arcs", f"bad arc ({u},{v})")
                if part_of[u] == part_of[v]:
                    raise PreconditionViolated("arcs", f"arc inside a part: ({u},{v})")
                if (outmask[u] | inmask[u]) >> v & 1:
                    raise PreconditionViolated("arcs", f"two arcs for pair ({u},{v})")
                outmask[u] |= 1 << v
                inmask[v] |= 1 << u
        except (TypeError, ValueError):
            # unpacking an arc that is not a pair lands here
            raise PreconditionViolated("arcs", f"bad arc {a!r}") from None
        full = (1 << n) - 1
        for u in range(n):
            own = sum(1 << w for w in parts[part_of[u]])
            missing = full & ~own & ~(outmask[u] | inmask[u])
            if missing:
                raise PreconditionViolated("arcs", f"no arc for pair ({u},{_lowest(missing)})")
        self._init(parts, tuple(part_of), outmask, inmask)

    @classmethod
    def _from_masks(
        cls, parts: tuple, part_of: tuple, outmask, inmask
    ) -> "MultipartiteTournament":
        """Trusted path for reduce_degenerate, which builds valid masks itself.

        parts are sorted tuples partitioning 0..n-1, listed by their
        smallest vertex, part_of[v] is the index of v's part, and the masks
        hold exactly one arc per cross-part pair.
        """
        t = cls.__new__(cls)
        t._init(parts, part_of, outmask, inmask)
        return t

    def _init(self, parts: tuple, part_of: tuple, outmask, inmask) -> None:
        """The one initializer both constructors end in."""
        n = len(part_of)
        self.n = n
        self.parts = parts
        self.part_of = part_of
        self._outmask = tuple(outmask)
        self._inmask = tuple(inmask)
        self._table = None  # mpt_cycles_through's covers, once filled

    @classmethod
    def tournament(cls, n: int, arcs: Iterable[Sequence[int]]) -> "MultipartiteTournament":
        """All-singleton special case (an ordinary tournament)."""
        _check_int(n, "n")
        return cls([(v,) for v in range(n)], arcs)

    def has_arc(self, u: int, v: int) -> bool:
        """Whether u -> v is an arc; UnknownVertex unless both are vertices."""
        _check_vertex(self.n, u)
        _check_vertex(self.n, v)
        return bool(self._outmask[u] >> v & 1)

    def out_neighbors(self, u: int) -> tuple:
        """Out-neighbors of u in increasing order; UnknownVertex unless u is a vertex."""
        _check_vertex(self.n, u)
        return _members(self._outmask[u])

    def arcs(self):
        for u in range(self.n):
            for v in _members(self._outmask[u]):
                yield (u, v)

    def cycle_covers(self) -> Mapping[int, tuple]:
        """The directed cycles mpt_cycles_through built, per length.

        Maps each length L, in order 4..n, to the tuple of L-cycles built,
        in walk order (see _window_covers): the covers in window form
        (cycles._WindowCovers) that t keeps, no copy, a read-only mapping
        that slices a length's windows when it is first read.  Their vertex
        sets cover V, and the first of them through v is the one
        mpt_cycles_through(t, v) gives for L.  Before the first
        mpt_cycles_through call it is a plain dict that maps every length
        to ().
        """
        if self._table is None:
            return dict.fromkeys(range(4, self.n + 1), ())
        return self._table

    def is_tournament(self) -> bool:
        return all(len(p) == 1 for p in self.parts)

    def disjointness_violation(self) -> Optional[tuple]:
        """A triple (x, y, z) with {x,y} a 2-part both dominating z, if any."""
        for p in self.parts:
            if len(p) != 2:
                continue
            x, y = p
            both = self._outmask[x] & self._outmask[y]
            if both:
                return (x, y, _lowest(both))
        return None

    def to_json_dict(self) -> dict:
        return {"parts": [list(p) for p in self.parts], "arcs": [list(a) for a in self.arcs()]}

    def __repr__(self) -> str:
        return f"MultipartiteTournament(n={self.n}, parts={len(self.parts)})"


def is_strongly_connected(t: MultipartiteTournament) -> bool:
    """True iff every ordered vertex pair is joined by a directed path.

    A forward and a backward search from vertex 0 over the bitmasks.
    """
    full = (1 << t.n) - 1
    for nbr in (t._outmask, t._inmask):
        seen = todo = 1
        while todo:
            new = nbr[_lowest(todo)] & ~seen
            todo = (todo & (todo - 1)) | new
            seen |= new
        if seen != full:
            return False
    return True


def is_directed_cycle(t: MultipartiteTournament, seq: Sequence[int]) -> bool:
    """Whether seq is a directed cycle of t; False for any vertex outside t."""
    try:
        if len(seq) < 3 or len(set(seq)) != len(seq):
            return False
        return all(t.has_arc(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq)))
    except (PreconditionViolated, TypeError):
        # has_arc rejects a vertex outside 0..n-1; set() an unhashable one
        return False


def _extend_cycle(
    t: MultipartiteTournament, cyc: tuple, v: int, mask: int
) -> Tuple[tuple, int]:
    """One-longer directed cycle through v.

    mask is cyc's vertex mask.  Returns the new cycle with its vertex mask:
    an insertion adds one bit to mask and a swap changes three.

    First tries single-vertex insertion at a dominance switch (first
    position, smallest vertex), then the swap of one non-anchor cycle
    vertex for a 2-path of outside vertices.  One of them works on a cycle
    C = c_0..c_{k-1} through v with k < n when t meets
    mpt_cycles_through's preconditions and k >= 4, or is a strong
    tournament and k >= 3, so the closing InternalError is an alarm:

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
    outm = t._outmask
    inm = t._inmask
    outside = ((1 << t.n) - 1) ^ mask
    ln = len(cyc)
    for i in range(ln):
        hits = outm[cyc[i]] & inm[cyc[(i + 1) % ln]] & outside
        if hits:
            w = hits & -hits
            return cyc[: i + 1] + (w.bit_length() - 1,) + cyc[i + 1 :], mask | w
    for i in range(ln):
        if cyc[i] == v:
            continue
        into_b = inm[cyc[(i + 1) % ln]] & outside
        xs = outm[cyc[i - 1]] & outside
        while xs:
            x = _lowest(xs)
            zs = outm[x] & into_b
            if zs:
                z = zs & -zs
                swapped = (mask ^ _BIT(cyc[i])) | _BIT(x) | z
                return cyc[:i] + (x, z.bit_length() - 1) + cyc[i + 1 :], swapped
            xs &= xs - 1
    raise InternalError(
        f"no directed {ln + 1}-cycle through {v} grown from {list(cyc)}",
        context={"digraph": t.to_json_dict(), "vertex": v, "cycle": list(cyc)},
    )


def _triangle_through(t: MultipartiteTournament, v: int) -> tuple:
    """Directed triangle through v in a strong tournament.

    Some arc runs from N+(v) to N-(v), since otherwise N+(v) could not reach
    v; any such arc a -> b closes v -> a -> b -> v.
    """
    into_v = t._inmask[v]
    from_v = t._outmask[v]
    while from_v:
        a = _lowest(from_v)
        hits = t._outmask[a] & into_v
        if hits:
            return (v, a, _lowest(hits))
        from_v &= from_v - 1
    raise InternalError(
        f"no triangle through {v} in a strong tournament",
        context={"digraph": t.to_json_dict(), "vertex": v},
    )


def cycles_through(t: MultipartiteTournament, v: int) -> Dict[int, tuple]:
    """Directed cycles of every length 3..n through v in a strong tournament.

    The triangle comes from _triangle_through and lengths 4..n from
    mpt_cycles_through's shared table: a strong tournament of order >= 4
    meets its preconditions, as it has no 2-part to violate disjointness.
    Strong connectivity is searched only while that table is unfilled; a
    filled table shows it held, as t is immutable.
    """
    if not t.is_tournament():
        raise NotATournament("input has a part of size 2")
    if t.n < 3:
        raise PreconditionViolated("size", f"need order >= 3, got {t.n}")
    if t._table is None and not is_strongly_connected(t):
        raise NotStronglyConnected("tournament is not strongly connected")
    _check_vertex(t.n, v)
    out = {3: _triangle_through(t, v)}
    if t.n >= 4:
        out.update(mpt_cycles_through(t, v))
    return out


def _quadrangle_through(t: MultipartiteTournament, v: int) -> tuple:
    """Directed quadrangle (v, a, b, c) under mpt_cycles_through's preconditions.

    The scan follows arcs only, so every hit is a 4-cycle starting at v, and
    it returns the first such cycle in (a, b, c) order.  One always exists,
    so the closing InternalError is an alarm:

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
    outm = t._outmask
    into_v = t._inmask[v]
    from_v = outm[v]
    while from_v:
        a = _lowest(from_v)
        from_a = outm[a]
        while from_a:
            b = _lowest(from_a)
            hits = outm[b] & into_v
            if hits:
                return (v, a, b, _lowest(hits))
            from_a &= from_a - 1
        from_v &= from_v - 1
    raise InternalError(
        f"no directed quadrangle through {v}",
        context={"digraph": t.to_json_dict(), "vertex": v},
    )


def _window_covers(t: MultipartiteTournament) -> _WindowCovers:
    """Per length L in 4..n, a cover of V by directed L-cycles, from one Hamilton cycle.

    t must meet mpt_cycles_through's preconditions.  H, a Hamilton cycle
    through vertex 0, grows from _quadrangle_through by _extend_cycle.  Any
    L consecutive vertices of H are a directed path, so cycles._window_covers
    cuts the covers from H with one bit test per seam: is the pair from the
    last vertex to the first an arc of t?  Its fallbacks come from the
    proved rules, _quadrangle_through at L = 4 and _extend_cycle above.  The
    covers come back in window form: H, and per length the windows' starts
    with the fallback tuples.  On randomDegenerate n = 64 they hold about
    234 cycles (the floor, the sum of ceil(64 / L), is 219), about 3 of them
    fallbacks.
    """
    outm = t._outmask
    ham = _quadrangle_through(t, 0)
    mask = sum(map(_BIT, ham))  # distinct vertices: the sum of their bits is their mask
    while len(ham) < t.n:
        ham, mask = _extend_cycle(t, ham, 0, mask)

    def build(cur: Optional[tuple], u: int, ln: int) -> tuple:
        if cur is None:
            return _quadrangle_through(t, u)
        return _extend_cycle(t, cur, u, sum(map(_BIT, cur)))[0]

    return _cut_windows(ham, lambda a, b: outm[a] >> b & 1, build)


def mpt_cycles_through(t: MultipartiteTournament, v: int) -> Dict[int, tuple]:
    """Directed cycles of every length 4..|V| through v.

    Preconditions (each reported via PreconditionViolated): at least four
    vertices, strong connectivity, and disjoint out-neighborhoods inside
    every 2-part.  The last two are searched on every call until the table
    below is filled; t is immutable, so a filled table shows they held,
    and a t that fails one never fills it.

    An L-cycle is a certificate for each of its L vertices, so the cycles
    come from one table that t remembers: per length, a cover of V by
    L-cycles, filled by the first call with _window_covers (windows of one
    Hamilton cycle H, fallbacks from the proved rules) and kept in window
    form, H plus each window's start (cycles._WindowCovers).  The cycle
    given for L is the first cycle of L's cover through v, found by
    v's position on H (through): no cycle is scanned but a fallback, and
    only the cycle given is sliced, once, and kept in the form, so every
    call that gives it, and every read of the covers (cycle_covers), gives
    the same tuple.
    """
    n = t.n
    if n < 4:
        raise PreconditionViolated("size", f"need at least 4 vertices, got {n}")
    if t._table is None:
        if not is_strongly_connected(t):
            raise PreconditionViolated("connectivity", "digraph is not strongly connected")
        bad = t.disjointness_violation()
        if bad is not None:
            x, y, z = bad
            raise PreconditionViolated(
                "disjointness", f"{z} is dominated by both {x} and {y} of one part"
            )
    _check_vertex(t.n, v)
    if t._table is None:
        t._table = _window_covers(t)
    return t._table.through(v, range(4, n + 1))


# -- correspondence with edge-colored graphs ---------------------------

def reduce_degenerate(g: ColoredCompleteGraph, f) -> MultipartiteTournament:
    """Orient g by a full compatible color map f.

    Fibers of f become the parts (size > 2 would force a monochromatic
    triangle and raises FiberTooLarge); each cross-fiber edge uv becomes the
    arc u -> v exactly when its color is f(u) but not f(v).  An edge whose
    color is neither f(u) nor f(v) raises IncompatibleFunction, naming the
    first such pair (u, v), u < v, in lexicographic order; so does an f
    that is no map from every vertex to a hashable value.

    The f-values are mapped to g's dense color indices once; a value that
    colors no edge gets a fresh index >= k, the palette size.  The arcs
    come from the graph's neighbor table g._nbr, O(n) big-int operations
    in all.  With fd the dense f and F(u) the mask of u's fiber, u's
    cross-fiber vertices are cross(u) = V - F(u) and
    out(u) = N_fd(u)(u) & cross(u), or 0 for a fresh fd(u), whose slot in
    the table is absent or the diagonal's.  in(u) = cross(u) - out(u).

    These masks are the orientation iff f is compatible, and one count
    decides that: the number of ordered pairs (u, v) with color(u, v) =
    f(u), the bits of N_fd(u)(u) summed over u.  Across fibers
    f(u) != f(v), so a cross edge is counted at most once, and once
    exactly when its color is f(u) or f(v).  Inside a 2-fiber f(u) = f(v),
    so its edge is counted twice or not at all.  With P 2-fibers the count
    is at most C(n, 2) - P + 2P, and it reaches that bound iff every edge
    is compatible; then every bit of cross(u) off out(u) is indeed an arc
    into u.  Only below the bound does the plain pair loop run, to name
    the first bad pair.
    """
    n = g.n
    try:
        for v in range(n):
            if v not in f:
                raise IncompatibleFunction(f"f is missing vertex {v}")
        dense = {c: d for d, c in enumerate(g._palette)}
        k = len(dense)
        fd = [dense.setdefault(f[v], len(dense)) for v in range(n)]
    except TypeError:
        raise IncompatibleFunction("f must map every vertex to a hashable color") from None
    fibers: Dict[int, list] = {}
    for v, d in enumerate(fd):
        fibers.setdefault(d, []).append(v)
    for members in fibers.values():
        if len(members) > 2:
            raise FiberTooLarge(
                f"fiber of color {f[members[0]]} has {len(members)} vertices {members}; "
                "this forces a monochromatic triangle"
            )
    # fibers are listed by their first, hence smallest, vertex
    parts = tuple(map(tuple, fibers.values()))
    part_of = [0] * n
    for i, p in enumerate(parts):
        for v in p:
            part_of[v] = i
    nbr = g._nbr
    full = (1 << n) - 1
    away = {d: full ^ sum(map(_BIT, p)) for d, p in zip(fibers, parts)}
    outmask = []
    inmask = []
    compatible = 0
    for u, d in enumerate(fd):
        cross = away[d]
        same = nbr[u][d] if d < k else 0
        out = same & cross
        outmask.append(out)
        inmask.append(cross ^ out)
        compatible += same.bit_count()
    # C(n, 2) - P + 2P, with P = n - len(parts) the number of 2-fibers
    if compatible != n * (n - 1) // 2 + (n - len(parts)):
        m = g._m
        for u in range(n):
            row = m[u]
            du = fd[u]
            for v in range(u + 1, n):
                c = row[v]
                if c != du and c != fd[v]:
                    raise IncompatibleFunction(
                        f"edge ({u},{v}) has color {g._palette[c]} not in f values"
                    )
    return MultipartiteTournament._from_masks(parts, tuple(part_of), outmask, inmask)


def lift_cycle(g: ColoredCompleteGraph, f, cycle: Sequence[int]) -> tuple:
    """Read a directed cycle of the f-orientation as a properly colored cycle.

    Consecutive arcs u -> v -> w carry colors f(u) != f(v), so the vertex
    sequence is properly colored as-is; it is returned as the checked tuple.
    Raises CycleNotInDigraph when the cycle is no
    sequence, is shorter than 3 or repeats a vertex, when any consecutive
    pair is not an arc of the orientation, and when a vertex is not an int
    in 0..n-1; IncompatibleFunction when f has no value for a vertex of g
    on the cycle.  The entries' types are tested together in C, as
    validate_result does, so a bool is no vertex, not 0 or 1.

    The walk carries each arc's head value forward as the next arc's tail
    value, so f is read once per vertex (and once more for the first vertex
    on the closing arc).  Every arc still indexes m before f is read for
    it, so a vertex outside g is reported as such even when f lacks it, and
    the first bad arc in cycle order is the one named.
    """
    try:
        seq = tuple(cycle)
    except TypeError:
        raise CycleNotInDigraph(f"{cycle!r} is not a vertex sequence") from None
    m = g._m
    pal = g._palette
    try:
        # the length first, then set() fails an unhashable vertex as outside
        if len(seq) < 3 or len(set(seq)) != len(seq):
            raise CycleNotInDigraph(f"{list(seq)} is not a directed cycle")
        if min(seq) < 0 or not _all_ints(seq):
            raise IndexError  # m[-1] would read the last row instead, m[True] row 1
        u = seq[0]
        m[u][seq[1]]  # index the first arc before reading f
        fu = f[u]
        for v in seq[1:] + seq[:1]:
            if pal[m[u][v]] != fu or fu == (fv := f[v]):
                raise CycleNotInDigraph(f"({u},{v}) is not an arc of the orientation")
            u, fu = v, fv
    except (IndexError, TypeError):
        # a vertex >= n fails an index into m, and a non-int one min() or
        # the type test, so no vertex is range-checked on its own; with
        # every vertex in range, f failed: it is no mapping, or a sequence
        # too short
        n = g.n
        if all(_is_vertex(n, v) for v in seq):
            raise IncompatibleFunction(f"f has no value for a vertex of {list(seq)}") from None
        raise CycleNotInDigraph(f"{list(seq)} has a vertex outside 0..{n - 1}") from None
    except KeyError as err:
        raise IncompatibleFunction(f"f is missing vertex {err.args[0]}") from None
    return seq
