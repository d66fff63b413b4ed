"""Triangle detectors and degeneracy analysis for edge-colored complete graphs.

A vertex set S with a function f on S is *degenerate-compatible* when every
edge inside S takes the f-color of one endpoint and every edge leaving S
takes the f-color of its S endpoint.  Such a proper S seals itself off from
properly colored cycles, so detecting one (or ruling all of them out) is the
first step of the trichotomy classifier.

Search strategy: in a complete graph a vertex of a proper degenerate set has
its f-value forced to its unique outward color, so propagating from every
(vertex, incident color) seed finds a proper set whenever one exists.  The
same seeds also find a full compatible map whenever one exists: some vertex
v of it has f(v) incident to v, and the closure from (v, f(v)) only forces
values that agree with f, so it ends without conflict (see
degeneracy_status).  A seed loop that reaches vertex u has seen every seed
of the vertices below u end without a proper set, and a closure that pulls
one of those vertices in contains such a dead seed's closure, so it cannot
be proper either: the loop abandons it at that point.  A closure from
(u, c) first pulls in every vertex below u that u meets in a color other
than c, so with u >= 1 it can survive only when all edges from u to
0..u-1 have color c: the loop closes the one seed (u, color(u, 0)) at
such a u, and none at any other u >= 1.  At vertex 0 it closes only the
seeds (0, c) for which every other color class at 0 is a clique of its
own color, since any other seed of 0 conflicts.

Every closure, public or in the seed loop, is one mask propagation over
the graph's neighbor table N_c(u) (_closure_dense): popping w pulls in at
once every vertex that w meets in a color other than f(w), and no value
is tested against another while the set grows.  One count then decides
whether the map is compatible: the ordered pairs (w, x) of the set with
color(w, x) = f(w) number C(s, 2) plus C(s_d, 2) per f-class d exactly
when every edge inside the set takes an endpoint's value, the test
tournaments.reduce_degenerate applies to a full map, here for classes of
any size.  An absent seed color reads the table's spare slot, whose one
bit is taken off the count.  So a closure costs O(s) mask operations, not
a read of every matrix entry of its s rows.

The monochromatic-triangle scan runs over the graph's per-vertex, per-color
neighbor bitmask table, which the graph builds with its matrix and rebuilds
on unpickling, not on first use.  The graph remembers the scan's answer, so
every caller after the first (the generator's check, the sweep, classify,
pc_hamilton_path) reads it without scanning again; the answer is pickled
with the graph and the table is not.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import ColoredCompleteGraph, _all_ints, _check_int, _check_vertex, _is_vertex
from .errors import NotAPartition, TooSmall


def find_monochromatic_triangle(g: ColoredCompleteGraph) -> Optional[tuple]:
    """Lexicographically first (u, v, w) whose three edges share a color.

    The graph remembers the answer, so only its first call scans.  The scan
    reads the graph's neighbor table: N_c(u), the vertices that u meets in
    color c.  For u < v with c = color(u, v), the triangles uvw with w > v
    of color c are the set bits of (N_c(u) & N_c(v)) >> (v + 1), and its
    lowest bit is the first such w.
    """
    n = g.n
    if n < 3:
        raise TooSmall(f"triangles need n >= 3, got {n}")
    tri = g._mono
    if tri is False:
        tri = g._mono = _first_monochromatic_triangle(g._m, n, g._nbr)
    return tri


def _first_monochromatic_triangle(m: tuple, n: int, nbr: list) -> Optional[tuple]:
    for u in range(n - 2):
        row_u = m[u]
        nu = nbr[u]
        for v in range(u + 1, n - 1):
            c = row_u[v]
            common = (nu[c] & nbr[v][c]) >> (v + 1)
            if common:
                return (u, v, v + (common & -common).bit_length())
    return None


def find_pc_triangle(g: ColoredCompleteGraph) -> Optional[tuple]:
    """Lexicographically first (u, v, w) whose three edge colors are pairwise distinct."""
    n = g.n
    if n < 3:
        raise TooSmall(f"triangles need n >= 3, got {n}")
    m = g._m
    for u in range(n - 2):
        row_u = m[u]
        for v in range(u + 1, n - 1):
            c = row_u[v]
            row_v = m[v]
            for w in range(v + 1, n):
                a, b = row_u[w], row_v[w]
                if a != c and b != c and a != b:
                    return (u, v, w)
    return None


@dataclass(frozen=True)
class DegeneracyCertificate:
    """Vertex set S plus f mapping S-vertices to original color ids."""

    S: frozenset
    f: Mapping

    def check(self, g: ColoredCompleteGraph) -> bool:
        """Edge-by-edge validation of both compatibility clauses.

        S must be a nonempty set or frozenset of vertices of g, and f a
        mapping from S to int colors; any other shape answers False.
        """
        if not isinstance(self.S, (set, frozenset)) or not isinstance(self.f, Mapping):
            return False
        if not self.S or set(self.f) != self.S or not _all_ints(self.f.values()):
            return False
        if not all(_is_vertex(g.n, v) for v in self.S):
            return False
        inside = self.S
        for u in inside:
            fu = self.f[u]
            row = g._m[u]
            for v in range(g.n):
                if v == u:
                    continue
                c = g._palette[row[v]]
                if v in inside:
                    if c != fu and c != self.f[v]:
                        return False
                elif c != fu:
                    return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "S": sorted(self.S),
            "f": {str(v): self.f[v] for v in sorted(self.S)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


class DegeneracyTag(enum.Enum):
    NON_DEGENERATE = "non-degenerate"
    PROPER_SET = "proper-degenerate-set"
    FULL_ONLY = "degenerate-full-only"


@dataclass(frozen=True)
class DegeneracyStatus:
    tag: DegeneracyTag
    certificate: Optional[DegeneracyCertificate]


def _closure_dense(m: tuple, nbr: list, n: int, u: int, c: int, low: int = 0):
    """Minimal compatible set containing u with value c, or None on conflict.

    Forcing rule: any edge wx with x outside the set and color != f(w)
    pulls x in with f(x) = color(w, x).  Colors are dense indices here, and
    nbr is the graph's neighbor table.  With low > 0 (and u >= low) the
    closure is also abandoned, returning None, as soon as it would pull in
    a vertex below low.

    The set S grows by masks: popping w pulls in every vertex off S that
    is not in N_f(w)(w), in ascending order, so f gets its values in the
    order of a loop over the matrix row.  No value, once set, changes, and
    nothing is tested for a conflict while S grows.  One count at the end
    decides whether (S, f) is compatible: the ordered pairs (w, x) of S
    with color(w, x) = f(w), the bits of N_f(w)(w) & S summed over w.  An
    edge between two f-classes counts at most once, and exactly once when
    its color is f(w) or f(x); an edge inside one class counts twice when
    its color is the class value and not at all otherwise.  So the count
    reaches C(s, 2) + the sum of C(s_d, 2) over the f-classes d, with s =
    |S| and s_d the class sizes, exactly when every edge inside S is
    compatible.  Edges leaving S carry f(w), or w would have pulled the far
    end in.  A conflict of the forcing rule (popping w finds x in S with
    f(x) != color(w, x) != f(w)) is such an incompatible edge of the final
    f, so the count fails exactly when the rule would conflict.

    The count needs no final pass over S: every vertex off N_f(w)(w) + w
    ends in S, so N_f(w)(w) & S has |N_f(w)(w)| - (n - s) bits, and the
    popcount is taken as w is popped; the class sizes are tallied as the
    values land.  An absent seed color, dense -1, reads the spare slot k,
    which holds u alone: that one bit is no edge and is taken off.
    """
    f = {u: c}
    size = [0] * len(nbr[u])  # vertices per f-value; -1 indexes the spare slot
    size[c] = 1
    stack = [u]
    inset = 1 << u
    full = (1 << n) - 1
    below = (1 << low) - 1
    count = -(c < 0)
    same = 0
    while stack:
        w = stack.pop()
        kept = nbr[w][f[w]]
        count += kept.bit_count()
        pulled = full ^ (kept | inset)
        if pulled:
            if pulled & below:
                return None
            inset |= pulled
            row = m[w]
            while pulled:
                b = pulled & -pulled
                x = b.bit_length() - 1
                f[x] = d = row[x]
                same += size[d]
                size[d] += 1
                stack.append(x)
                pulled ^= b
    s = len(f)
    if count - s * (n - s) != s * (s - 1) // 2 + same:
        return None
    return f


def closure_from_seed(g: ColoredCompleteGraph, u: int, c: int) -> Optional[DegeneracyCertificate]:
    """Propagate the forcing rule from f(u)=c; None when it conflicts.

    The result, when present, is the unique minimal degenerate set
    containing u with that seed value.  c is an int color id; a color
    absent from the palette maps to dense index -1, which no edge carries,
    so it simply forces every other vertex in.
    """
    if g.n < 2:
        raise TooSmall(f"closure needs n >= 2, got {g.n}")
    _check_vertex(g.n, u)
    _check_int(c, "color")
    pal = g._palette
    dense = pal.index(c) if c in pal else -1
    f = _closure_dense(g._m, g._nbr, g.n, u, dense)
    if f is None:
        return None
    return DegeneracyCertificate(
        frozenset(f),
        {v: (c if v == u else pal[d]) for v, d in f.items()},
    )


def _vertex_zero_seeds(nbr: list) -> tuple:
    """The dense colors c, ascending, whose closure from (0, c) can survive.

    Those are all colors at 0 when every color class N_d(0) is a clique of
    color d, the one color d of the only class that is not, and none when
    two or more classes are not (see degeneracy_status).
    """
    row = nbr[0]
    colors = [d for d, cls in enumerate(row[:-1]) if cls]  # the last slot is the diagonal
    loose = []
    for d in colors:
        cls = row[d]
        rest = cls
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            if nbr[x][d] & cls != cls ^ low:
                loose.append(d)
                if len(loose) > 1:
                    return ()
                break
            rest ^= low
    return tuple(loose) if loose else tuple(colors)


def degeneracy_status(g: ColoredCompleteGraph) -> DegeneracyStatus:
    """Classify g as proper-degenerate, degenerate-full-only, or non-degenerate.

    Seeds are tried in (vertex, color) lexicographic order and the first
    proper closure wins, so results are deterministic.  The first seed whose
    closure covers every vertex supplies the full-only certificate.

    The seeds alone decide whether a full compatible map exists.  Let F be
    one.  Every edge uv takes F(u) or F(v), so some vertex v has F(v)
    incident to it, and (v, F(v)) is among the seeds tried.  Its closure
    forces f(x) = color(w, x) only when color(w, x) != f(w) = F(w), which
    means color(w, x) = F(x): every forced value agrees with F, so the
    closure never conflicts.  It ends as a proper set (returned as
    PROPER_SET) or as all of V (kept as the full map).  Hence a finished
    seed loop with no full closure means no full map exists, and the answer
    is NON_DEGENERATE.

    Seeds of lower vertices are dead by the time a vertex u is seeded, so
    each closure from u is abandoned once it would pull in a vertex x < u.
    When the loop reaches (u, c), every earlier seed's closure conflicts or
    covers all of V, since a proper one would have returned (for abandoned
    seeds this is the same argument, by induction).  A closure from
    (u, c) forces x in with f(x) = color(w, x), a color incident to x, so
    (x, f(x)) was an earlier seed; the closure from (u, c) contains that
    seed's closure, hence also conflicts or covers all of V, and is not
    proper.  No returned certificate is lost.  The first proper closure
    never pulls in such an x.  The first full closure cannot either: it
    would contain an earlier seed's closure, which then could not conflict
    and would be an earlier full map.  So the full map comes from a seed at
    vertex 0, where no vertex lies below the bound.

    So most seeds are not closed at all.  A closure from (u, c) pops u
    first, with f(u) = c, and any edge from u to a vertex x < u whose color
    is not c would pull x in, so it is abandoned at once unless every edge
    from u to 0..u-1 has color c.  For u >= 1 that leaves only
    c = color(u, 0), and only when color(u, x) = color(u, 0) for every
    x < u; the loop skips every other seed of u, and all of u when those
    edges show two colors.  Each skipped closure would have been abandoned,
    which the loop passes over anyway, so the seed order and the first
    proper or full closure are unchanged.

    Vertex 0 has nothing below it, but a closure from (0, c) conflicts
    unless every other color class at 0, N_d(0) for d != c, is a clique of
    its own color d.  It pops 0 first and pulls in every vertex x of N_d(0)
    with f(x) = d.  If two of them, x and y, meet in a color other than d,
    then popping x forces f(y) = color(x, y) != d against the value y
    already has, so the closure conflicts.  So with two or more classes at
    0 that are no such clique, every seed of 0 conflicts and none is
    closed; with exactly one, class d, only (0, d) is closed; with none,
    every seed of 0 is.  The skipped seeds end in a conflict, which the
    loop passes over anyway, so again the seed order and the first proper
    or full closure are unchanged.  Without a monochromatic triangle a
    class of two or more vertices is never such a clique, but the test
    reads the edges, so the answer holds on any coloring.

    Each seed that is closed goes through _closure_dense, the mask closure
    closure_from_seed also uses.  It propagates without a conflict test and
    counts once at the end: the ordered pairs (w, x) of the set S with
    color(w, x) = f(w) reach C(|S|, 2) plus C(s_d, 2) for each f-class d of
    s_d vertices exactly when every edge inside S is compatible, since a
    cross-class edge counts at most once and once exactly when compatible,
    and an edge inside a class twice when it has the class value and
    otherwise not at all.  A value, once set, never changes, so a seed
    whose matrix loop would conflict leaves an incompatible edge in the
    final f and fails the count.  The certificates are those of that loop,
    with f in the same insertion order.  Every seed here is a color at its
    vertex, so the spare-slot bit that an absent seed color (dense -1, as
    closure_from_seed may pass) takes off the count never arises.
    """
    n = g.n
    if n < 2:
        raise TooSmall(f"degeneracy needs n >= 2, got {n}")
    m = g._m
    nbr = g._nbr
    pal = g._palette
    full_dense = None
    for u in range(n):
        row = m[u]
        if u:
            # the closure from (u, c) survives its first check only when
            # every edge from u to 0..u-1 has color c, so c = row[0]
            c = row[0]
            if row[:u].count(c) != u:
                continue
            seeds = (c,)
        else:
            seeds = _vertex_zero_seeds(nbr)
        for c in seeds:
            f = _closure_dense(m, nbr, n, u, c, u)
            if f is None:
                continue
            if len(f) < n:
                cert = DegeneracyCertificate(
                    frozenset(f), {v: pal[d] for v, d in f.items()}
                )
                return DegeneracyStatus(DegeneracyTag.PROPER_SET, cert)
            if full_dense is None:
                full_dense = f
    if full_dense is not None:
        cert = DegeneracyCertificate(
            frozenset(range(n)), {v: pal[d] for v, d in full_dense.items()}
        )
        return DegeneracyStatus(DegeneracyTag.FULL_ONLY, cert)
    return DegeneracyStatus(DegeneracyTag.NON_DEGENERATE, None)


def verify_gallai_partition(g: ColoredCompleteGraph, parts: Sequence) -> bool:
    """True iff every cross-part pair is monochromatic and at most two colors cross.

    Raises NotAPartition unless parts are >= 2 nonempty disjoint sets of
    int vertices covering the vertices exactly, also when parts or a part
    is no collection of vertices.
    """
    try:
        sets = [set(p) for p in parts]
    except TypeError:
        raise NotAPartition("parts must be collections of int vertices") from None
    if len(sets) < 2 or any(not s for s in sets):
        raise NotAPartition("need at least two nonempty parts")
    if not all(map(_all_ints, sets)):
        raise NotAPartition("part members must be int vertices")
    union = set()
    total = 0
    for s in sets:
        total += len(s)
        union |= s
    if union != set(range(g.n)) or total != g.n:
        raise NotAPartition("parts must cover each vertex exactly once")
    m = g._m
    crossing = set()
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            colors = {m[u][v] for u in sets[i] for v in sets[j]}
            if len(colors) != 1:
                return False
            crossing |= colors
    return len(crossing) <= 2
