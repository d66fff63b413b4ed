"""Trichotomy classifier for mono-triangle-free edge-colored complete graphs.

Every such graph on at least four vertices lands in exactly one bucket:

  (a) every vertex lies on PC cycles of all lengths from 4 to n;
  (b) a proper degenerate set exists, whose boundary edges sit on no PC
      cycle at all (so no PC Hamilton cycle);
  (c) the unique two-colored K5 whose color classes are edge-disjoint
      pentagons, which has PC quadrangles but no PC pentagon.

classify() returns the bucket with a machine-checkable certificate: a full
(vertex, length) -> cycle table for (a), the degenerate set with its
compatible coloring for (b), and a relabeling onto the canonical
double-pentagon for (c).  Failure to build an (a) certificate on eligible
input is a falsification alarm, raised as InternalError with the instance
attached.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from typing import Dict, Optional

from .core import ColoredCompleteGraph, stats
from .cycles import (
    has_pc_cycle,
    insert_into_pc_cycle,
    is_pc_cycle,
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
    cycles: Optional[Dict] = None  # (vertex, length) -> Cycle, for tag "a"
    certificate: Optional[DegeneracyCertificate] = None  # for tag "b"
    relabel: Optional[Dict] = None  # vertex -> canonical vertex, for tag "c"

    def to_json_dict(self) -> dict:
        certs: dict = {}
        if self.tag is TrichotomyTag.PANCYCLIC:
            table: dict = {}
            for (v, ln), cyc in sorted(self.cycles.items()):
                table.setdefault(str(v), {})[str(ln)] = list(cyc.vertices)
            certs["cycles"] = table
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
    """
    if g.n != 5 or g.num_colors != 2:
        return None
    m = g._m
    for u in range(5):
        if sum(1 for v in range(5) if v != u and m[u][v] == 0) != 2:
            return None
    ring = [0]
    prev = None
    while len(ring) < 5:
        cur = ring[-1]
        nxt = next(w for w in range(5) if w != cur and w != prev and m[cur][w] == 0)
        ring.append(nxt)
        prev = cur
    return {v: i for i, v in enumerate(ring)}


def _pancyclic_via_orientation(g: ColoredCompleteGraph, cert: DegeneracyCertificate) -> Dict:
    """Pancyclic table from the orientation of a full compatible map.

    The orientation t meets both preconditions of mpt_cycles_through, which
    still checks them (once: t remembers the answers):

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

    mpt_cycles_through files one directed cycle under every vertex it
    covers, so each distinct cycle is lifted once and the same Cycle object
    fills every (vertex, length) entry it certifies.
    """
    t = reduce_degenerate(g, cert.f)
    cycles: Dict = {}
    lifted: Dict = {}  # directed cycle -> its lift
    for v in range(g.n):
        for ln, dc in mpt_cycles_through(t, v).items():
            cyc = lifted.get(dc)
            if cyc is None:
                cyc = lifted[dc] = lift_cycle(g, cert.f, dc)
            cycles[(v, ln)] = cyc
    return cycles


def _pancyclic_by_growth(g: ColoredCompleteGraph, stats_out: Optional[dict]) -> Dict:
    n = g.n
    cycles: Dict = {}
    for v in range(n):
        cur = pc_quadrangle_search(g, v)
        if cur is None:
            raise InternalError(
                f"no PC quadrangle through {v} on non-degenerate input", instance=g
            )
        cycles[(v, 4)] = cur
        for target in range(5, n + 1):
            grown = None
            for w in range(n):
                if w in cur:
                    continue
                grown = insert_into_pc_cycle(g, cur, w)
                if grown is not None:
                    break
            if grown is None:
                if stats_out is not None:
                    stats_out["growth_oracle_uses"] = stats_out.get("growth_oracle_uses", 0) + 1
                grown = has_pc_cycle(g, v, target)
            if grown is None:
                raise InternalError(
                    f"no PC {target}-cycle through {v} on eligible input",
                    instance=g,
                    context={"vertex": v, "length": target},
                )
            cycles[(v, target)] = grown
            cur = grown
    return cycles


def classify(g: ColoredCompleteGraph, stats_out: Optional[dict] = None) -> TrichotomyResult:
    """Decide the trichotomy with a validating certificate.

    Pipeline: degeneracy first (a proper set settles (b)); a full-only
    compatible coloring routes through the orientation argument; otherwise
    the double-pentagon check settles (c) and quadrangle-plus-growth builds
    the pancyclic table for (a).  A given stats_out dict counts, under
    "growth_oracle_uses" (absent while zero), the lengths that growth
    reached only through the has_pc_cycle search because no single-vertex
    insertion fit.
    """
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
    if result.graph != g:
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


def validate_result(g: ColoredCompleteGraph, result: TrichotomyResult) -> bool:
    """Independently re-check whichever certificate the result carries.

    A pancyclic table is checked entry by entry for its key set, length and
    membership; one cycle object filed under several entries is checked for
    being properly colored once.  A relabel must be a bijection of 0..4.
    """
    if result.tag is TrichotomyTag.PANCYCLIC:
        need = {(v, ln) for v in range(g.n) for ln in range(4, g.n + 1)}
        if set(result.cycles) != need:
            return False
        proper = set()  # ids of checked cycles, kept alive by result.cycles
        for (v, ln), cyc in result.cycles.items():
            if len(cyc) != ln or v not in cyc:
                return False
            if id(cyc) not in proper:
                if not is_pc_cycle(g, cyc):
                    return False
                proper.add(id(cyc))
        return True
    if result.tag is TrichotomyTag.PROPER_DEGENERATE:
        cert = result.certificate
        return cert is not None and len(cert.S) < g.n and cert.check(g)
    relabel = result.relabel
    if (
        relabel is None
        or g.n != 5
        or sorted(relabel) != list(range(5))
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
