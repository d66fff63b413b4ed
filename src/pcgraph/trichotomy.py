"""Trichotomy classifier for mono-triangle-free edge-colored complete graphs.

Every such graph on at least four vertices lands in exactly one bucket:

  (a) every vertex lies on PC cycles of all lengths from 4 to n;
  (b) a proper degenerate set exists, whose boundary edges sit on no PC
      cycle at all (so no PC Hamilton cycle);
  (c) the unique two-colored K5 whose color classes are edge-disjoint
      pentagons, which has PC quadrangles but no PC pentagon.

classify() returns the bucket with a machine-checkable certificate: for
(a), per length L a cover of V by PC L-cycles, for (b), the degenerate set
with its compatible coloring, and for (c), a relabeling onto the canonical
double-pentagon.  Failure to build an (a) certificate on eligible
input is a falsification alarm, raised as InternalError with the instance
attached.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from typing import Dict, Optional

from .core import ColoredCompleteGraph, _all_ints, stats
from .cycles import (
    _pc_closed,
    _pc_cycle_search,
    _pc_seam,
    _window_covers,
    _WindowCovers,
    has_pc_cycle,
    insert_into_pc_cycle,
    pc_quadrangle_search,
)
from .detect import (
    DegeneracyCertificate,
    DegeneracyTag,
    degeneracy_status,
    find_monochromatic_triangle,
)
from .errors import (
    InternalError,
    MonochromaticTrianglePresent,
    PreconditionViolated,
    ResultMismatch,
    TooSmall,
)
from .families import double_pentagon_matrix
from .tournaments import (
    is_strongly_connected,  # unused here; perfbench/tracing.py wraps this site
    lift_cycle,
    mpt_cycles_through,
    reduce_degenerate,
)


class TrichotomyTag(enum.Enum):
    PANCYCLIC = "a"
    PROPER_DEGENERATE = "b"
    EXCEPTIONAL_K5 = "c"


@dataclass(frozen=True)
class TrichotomyResult:
    tag: TrichotomyTag
    graph: ColoredCompleteGraph
    # tag "a": L -> PC L-cycles covering V, vertex tuples in walk order;
    # classify's covers are such a dict in window form (cycles._WindowCovers)
    cycles: Optional[Dict] = None
    certificate: Optional[DegeneracyCertificate] = None  # for tag "b"
    relabel: Optional[Dict] = None  # vertex -> canonical vertex, for tag "c"

    def to_json_dict(self) -> dict:
        certs: dict = {}
        if self.tag is TrichotomyTag.PANCYCLIC:
            # (v, L) holds the first cycle of L's cover through v
            rows: list = [{} for _ in range(self.graph.n)]
            for ln, cover in sorted(self.cycles.items()):
                key = str(ln)
                for cyc in cover:
                    for v in cyc:
                        if key not in rows[v]:
                            rows[v][key] = list(cyc)
            certs["cycles"] = {str(v): row for v, row in enumerate(rows)}
        elif self.tag is TrichotomyTag.PROPER_DEGENERATE:
            certs["degenerate_set"] = self.certificate.to_json_dict()
        else:
            certs["relabel"] = {str(v): w for v, w in sorted(self.relabel.items())}
        return {"tag": self.tag.value, "certificates": certs}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)


def is_double_pentagon_k5(g: ColoredCompleteGraph) -> Optional[Dict[int, int]]:
    """Vertex relabeling onto the canonical double-pentagon K5, if g is one.

    Present exactly when n = 5, two colors are in use, and dense color
    class 0 is 2-regular; class 1 is then 2-regular too, since every vertex
    of K5 has degree 4.  A 2-regular graph on 5 vertices is a single
    pentagon, so walking class 0 from vertex 0 visits every vertex, and
    relabeling the walk's i-th vertex to i sends class 0 onto the canonical
    ring 0-1-2-3-4 and its complement, class 1, onto the canonical chords.
    The walk reads class 0 from the neighbor table: it leaves vertex 0 for
    its lower class-0 neighbor, and every later step leaves a vertex's mask
    for the bit that is not the vertex it came from.
    """
    if g.n != 5 or g.num_colors != 2:
        return None
    class0 = [row[0] for row in g._nbr]
    if any(mask.bit_count() != 2 for mask in class0):
        return None
    ring = [0, (class0[0] & -class0[0]).bit_length() - 1]
    while len(ring) < 5:
        ring.append((class0[ring[-1]] ^ 1 << ring[-2]).bit_length() - 1)
    return {v: i for i, v in enumerate(ring)}


def _pancyclic_via_orientation(g: ColoredCompleteGraph, cert: DegeneracyCertificate) -> Dict:
    """Pancyclic covers from the orientation of a full compatible map.

    The orientation t meets both preconditions of mpt_cycles_through, which
    still checks them, once, in its one call:

    * Disjoint out-neighborhoods inside each 2-part: a fiber {x, y} has
      f(x) = f(y) = c, so edge xy has color c, and arcs x -> z and y -> z
      would give xz and yz color c as well, a monochromatic triangle that
      classify has already rejected.
    * Strong connectivity: otherwise some strong component S != V has no
      arc entering it.  An edge from u in S to x outside S then has color
      f(u): either f(u) = f(x), or the edge is the arc u -> x, which carries
      its tail's value.  Edges inside S take an endpoint's value because f
      is compatible.  So (S, f|S) is a proper degenerate set, and
      degeneracy_status would have returned PROPER_SET, not FULL_ONLY.

    One mpt_cycles_through call fills t's whole table in window form
    (cycles._WindowCovers): H, a Hamilton cycle of t, and per length the
    starts of its windows and a few fallback cycles, about 234 cycles at
    n = 64 of which about 3 are tuples.  The call asks for vertex 0, which
    H grows through, and slices the one window per length it returns.
    The table itself is the certificate: classify returns it as the
    result's covers, and no other window is sliced until a caller reads
    them.

    Every cover cycle lifts, so no cover cycle is checked here.  H and
    every fallback come from _quadrangle_through and _extend_cycle, which
    follow only set bits of t's masks, so each consecutive pair of theirs,
    the closing pair included, is an arc.  A window's inner pairs are arcs
    of H, and cycles._window_covers takes a window only when
    outm[a] >> b & 1 holds for its seam a -> b.  So every cover cycle is a
    directed cycle of t.  reduce_degenerate's count shows that t's masks
    are the f-orientation: an arc u -> v is an edge of color f(u), and
    f(u) != f(v).  Consecutive arcs u -> v -> w thus carry distinct colors
    f(u) and f(v), and every directed cycle of t is a PC cycle.  The one
    lift_cycle call, on H, stays because perfbench's trace wants a
    lift_cycle call per full-only instance.  The InternalError alarms of
    the two rules stay, and validate_result checks the certificate from
    the matrix alone, on both routes.
    """
    f = cert.f
    t = reduce_degenerate(g, f)
    mpt_cycles_through(t, 0)
    covers = t.cycle_covers()
    lift_cycle(g, f, covers.ham)
    return covers


def _grow_step(g: ColoredCompleteGraph, cur: tuple, v: int):
    """(PC cycle one vertex longer than cur through v, its rule key) or (None, None).

    Single-vertex insertion in vertex order, then R1 (_swap_in_pair), both
    over one list of the vertices off cur.
    """
    on = set(cur)
    outside = [w for w in range(g.n) if w not in on]
    for w in outside:
        grown = insert_into_pc_cycle(g, cur, w)
        if grown is not None:
            return grown, "growth_inserted"
    grown = _swap_in_pair(g, cur, v, outside)
    if grown is not None:
        return grown, "growth_swapped"
    return None, None


def _swap_in_pair(g: ColoredCompleteGraph, cycle: tuple, v: int, outside: list) -> Optional[tuple]:
    """R1: replace one cycle vertex other than v by a PC 2-path x, y.

    With the cycle written c_0..c_(k-1) from v = c_0, vertex c_i (i >= 1)
    gives way to two outside vertices, c_(i-1) x y c_(i+1), when no two
    consecutive edges of c_(i-2) c_(i-1) x y c_(i+1) c_(i+2) share a color.
    Tries i, then x, then y in the order of outside, the vertices off the
    cycle; needs at least two of them, since x != y.
    """
    m = g._m
    i = cycle.index(v)
    vs = cycle[i:] + cycle[:i]
    k = len(vs)
    for i in range(1, k):
        p, q = vs[i - 1], vs[(i + 1) % k]
        into_p = m[vs[i - 2]][p]
        from_q = m[q][vs[(i + 2) % k]]
        rowp, rowq = m[p], m[q]
        for x in outside:
            cx = rowp[x]
            if cx == into_p:
                continue
            rowx = m[x]
            for y in outside:
                if y == x:
                    continue
                cxy = rowx[y]
                cy = rowq[y]
                if cxy != cx and cy != cxy and cy != from_q:
                    return vs[:i] + (x, y) + vs[i + 1 :]
    return None


def _regrow_quadrangle(g: ColoredCompleteGraph, v: int, length: int) -> Optional[tuple]:
    """R5: the first PC quadrangle through v that _grow_step lengthens to length.

    The quadrangles are the length-4 walks of _pc_cycle_search in walk
    order, each cycle once per direction; the first is
    pc_quadrangle_search's.  _grow_step is applied until the length is
    reached or it fails; the walk stops at the first quadrangle that
    reaches it.
    """

    def regrow(cyc: tuple) -> Optional[tuple]:
        while cyc is not None and len(cyc) < length:
            cyc = _grow_step(g, cyc, v)[0]
        return cyc

    return _pc_cycle_search(g, v, 4, regrow)


def _pancyclic_by_growth(g: ColoredCompleteGraph, stats_out: Optional[dict]) -> Dict:
    """Pancyclic covers cut from one PC Hamilton cycle grown from a quadrangle.

    build makes a PC L-cycle through v: pc_quadrangle_search at L = 4, and
    above that, from v's (L-1)-cycle, the first of _grow_step, R5
    (_regrow_quadrangle: every PC quadrangle through v in walk order,
    regrown by _grow_step) and the has_pc_cycle search as the last resort.
    Its chain at vertex 0 grows H, a PC Hamilton cycle, and
    cycles._window_covers cuts the covers from H, with build for the
    fallbacks.  A run of H is PC inside, so it closes into a PC cycle when
    its seam a -> b differs in color from H's edges into a and out of b
    (cycles._pc_seam).
    stats_out gains, under growth_quadrangles, growth_inserted,
    growth_swapped (R1), growth_restarted (R5) and growth_oracle_uses (the
    search), how many cycles each rule built, H's chain included, and under
    growth_reused the n(n-3) (vertex, length) pairs less the number of
    builds: the pairs a window settled, or a cycle built for another
    vertex; every key absent while zero.
    """
    counts: Dict[str, int] = {}

    def build(cur: Optional[tuple], v: int, ln: int) -> tuple:
        if cur is None:
            cyc, rule = pc_quadrangle_search(g, v), "growth_quadrangles"
        else:
            cyc, rule = _grow_step(g, cur, v)
            if cyc is None:
                cyc = _regrow_quadrangle(g, v, ln)
                rule = "growth_restarted"
            if cyc is None:
                cyc, rule = has_pc_cycle(g, v, ln), "growth_oracle_uses"
        if cyc is None:
            raise InternalError(
                f"no PC {ln}-cycle through {v} on eligible input",
                instance=g,
                context={"vertex": v, "length": ln},
            )
        counts[rule] = counts.get(rule, 0) + 1
        return cyc

    n = g.n
    ham = None  # grows from a quadrangle through 0 into H
    for ln in range(4, n + 1):
        ham = build(ham, 0, ln)
    covers = _window_covers(ham, _pc_seam(g._m, ham), build)
    if stats_out is not None:
        counts["growth_reused"] = n * (n - 3) - sum(counts.values())
        for key, count in counts.items():
            if count:
                stats_out[key] = stats_out.get(key, 0) + count
    return covers


def classify(g: ColoredCompleteGraph, stats_out: Optional[dict] = None) -> TrichotomyResult:
    """Decide the trichotomy with a validating certificate.

    Pipeline: degeneracy first (a proper set settles (b)); a full-only
    compatible coloring routes through the orientation argument; otherwise
    the double-pentagon check settles (c) and quadrangle-plus-growth builds
    a PC Hamilton cycle whose windows, with a few fallback cycles, are the
    pancyclic covers for (a) (see _pancyclic_by_growth).  Growth runs the
    has_pc_cycle depth-first search only as its counted last resort, when
    insertion and the R1 and R5 rules all fail.  A given
    stats_out dict gains the growth route's count per rule, each absent
    while zero; "growth_oracle_uses" counts the has_pc_cycle searches, and
    it is the only one that sweep records keep.
    """
    if stats_out is not None and not isinstance(stats_out, dict):
        raise PreconditionViolated("stats_out", f"must be a dict or None, got {stats_out!r}")
    if g.n < 4:
        raise TooSmall(f"classification needs n >= 4, got {g.n}")
    tri = find_monochromatic_triangle(g)
    if tri is not None:
        raise MonochromaticTrianglePresent(f"triangle {tri}")
    status = degeneracy_status(g)
    if status.tag is DegeneracyTag.PROPER_SET:
        return TrichotomyResult(
            TrichotomyTag.PROPER_DEGENERATE, g, certificate=status.certificate
        )
    if status.tag is DegeneracyTag.FULL_ONLY:
        cycles = _pancyclic_via_orientation(g, status.certificate)
        return TrichotomyResult(TrichotomyTag.PANCYCLIC, g, cycles=cycles)
    relabel = is_double_pentagon_k5(g)
    if relabel is not None:
        return TrichotomyResult(TrichotomyTag.EXCEPTIONAL_K5, g, relabel=relabel)
    cycles = _pancyclic_by_growth(g, stats_out)
    return TrichotomyResult(TrichotomyTag.PANCYCLIC, g, cycles=cycles)


@dataclass(frozen=True)
class SideConditionReport:
    """How an instance sits relative to the two classic degree thresholds."""

    color_degree_meets_half: bool  # 2 * min color degree >= n + 1
    mono_degree_below_half: bool  # max monochromatic degree < floor(n / 2)
    exception_bounds_hold: bool  # tags b/c never meet either threshold
    pancyclic_when_mono_low: Optional[bool]  # low mono degree forces tag a


def side_conditions(g: ColoredCompleteGraph, result: TrichotomyResult) -> SideConditionReport:
    """Evaluate the degree-threshold side conditions against a classification."""
    if not isinstance(result, TrichotomyResult) or result.graph != g:
        raise ResultMismatch("result was computed from a different instance")
    st = stats(g)
    meets_half = 2 * st.min_color_degree >= g.n + 1
    mono_low = st.max_mono_degree < g.n // 2
    if result.tag in (TrichotomyTag.PROPER_DEGENERATE, TrichotomyTag.EXCEPTIONAL_K5):
        bounds = (not meets_half) and (not mono_low)
    else:
        bounds = True
    corollary = None
    if mono_low:
        corollary = result.tag is TrichotomyTag.PANCYCLIC
    return SideConditionReport(meets_half, mono_low, bounds, corollary)


def _window_form_holds(g: ColoredCompleteGraph, covers: _WindowCovers) -> bool:
    """validate_result's check of tag-(a) covers in window form; see there."""
    n = g.n
    m = g._m
    ham = covers.ham
    try:
        if len(ham) != n or not _all_ints(ham) or set(ham) != set(range(n)):
            return False
        if not _pc_closed(m, ham) or len(covers.entries) != n - 3:
            return False
        twice, pos = covers.twice, covers.pos
        closes = _pc_seam(m, ham)
        full = (1 << n) - 1
        for ln, cover in enumerate(covers.entries, 4):
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


def validate_result(g: ColoredCompleteGraph, result: TrichotomyResult) -> bool:
    """Independently re-check whichever certificate the result carries.

    Pancyclic covers are checked in window form (cycles._WindowCovers): a
    cycle H, and for each length L in 4..n a cover, whose entries are
    window starts p, each standing for the run of L vertices of H from
    position p, and fallback cycles.  classify's covers are in that form
    already.  Any other covers are first read into it (_WindowCovers.read):
    they need exactly the keys 4..n, each cycle L entries, all ints, and a
    cycle that equals the run of H from its first entry becomes that run's
    start.  H is then the first cycle of covers[n].  Either way the one
    check below decides (_window_form_holds), and it slices no window.

    H gets the full test: n entries, all ints, whose set is V = {0..n-1},
    and the PC color test over every edge.  So H is a PC Hamilton cycle.

    A start p must be exactly an int (not a bool or a float) with
    0 <= p < n, and only its seam a -> b, from the run's last vertex back to
    its first, is tested (cycles._pc_seam): m[a][b] must differ in color
    from H's edge into a and from H's edge out of b.  That is the whole PC
    test: the run is a path of H, so its inner edges are H's, and each
    inner vertex sees two consecutive edges of the PC cycle H; only the two
    vertices at the seam see the seam edge.  Since L <= n, the run holds L
    distinct positions of H, hence L distinct vertices.

    Any other entry is a fallback cycle, read with tuple(), and gets the
    full test: L distinct entries, all ints, and the PC color test, which
    indexes the color matrix with every entry.  An int of n or more fails
    an index with IndexError.  A negative int indexes from the end of a
    row and so passes the color test, but it fails the lookup in H's
    position map below with KeyError.

    Coverage is counted by positions on H: a window from position p sets
    bits p..p+L-1, wrapped around H's end, and a fallback the bit of each
    entry's position.  H visits each vertex of V once, so the position map
    is a bijection from V onto 0..n-1, and the positions a cover sets are
    all n exactly when its vertex sets cover V.  So every vertex lies on a
    PC cycle of every length from 4 to n.

    A degenerate set must pass DegeneracyCertificate.check and leave a
    vertex out, and a relabel must be a dict that is a bijection of 0..4.
    A certificate of another shape (a result that is no TrichotomyResult,
    covers that are no dict, a key, cover or cycle of another shape, a
    malformed set or relabel) fails the check.
    """
    if not isinstance(result, TrichotomyResult):
        return False
    if result.tag is TrichotomyTag.PANCYCLIC:
        covers = _WindowCovers.read(result.cycles, g.n)
        return covers is not None and _window_form_holds(g, covers)
    if result.tag is TrichotomyTag.PROPER_DEGENERATE:
        cert = result.certificate
        return (
            isinstance(cert, DegeneracyCertificate)
            and cert.check(g)
            and len(cert.S) < g.n
        )
    relabel = result.relabel
    if (
        not isinstance(relabel, dict)
        or g.n != 5
        or not _all_ints(itertools.chain(relabel, relabel.values()))
        or set(relabel) != set(range(5))
        or sorted(relabel.values()) != list(range(5))
    ):
        return False
    canon = double_pentagon_matrix()
    m = g._m
    mapping = {}
    for u, v in itertools.combinations(range(5), 2):
        want = canon[relabel[u]][relabel[v]]
        have = m[u][v]
        if mapping.setdefault(have, want) != want:
            return False
    return len(set(mapping.values())) == len(mapping)
