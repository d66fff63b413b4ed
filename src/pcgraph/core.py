"""Edge-colored complete graphs: representation, statistics, instance JSON.

A graph is a complete graph on vertices 0..n-1 with one color per edge.
Input colors may be arbitrary integers; internally they are remapped to
dense indices 0..k-1 (sorted by original id) so hot loops compare small
ints.  Every public surface speaks original color ids.

Instances are immutable after construction and safe to share between
worker processes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateEdge,
    EmptyVertexSet,
    InvalidInstance,
    MissingEdge,
    OverlappingSets,
    SelfLoop,
    TooSmall,
    UnknownVertex,
)


class ColoredCompleteGraph:
    """Complete graph with a symmetric edge-color matrix.

    ``_m[u][v]`` holds the dense color index of edge uv (diagonal is -1);
    ``_palette[d]`` maps a dense index back to the original color id.
    """

    __slots__ = ("n", "_m", "_palette")

    def __init__(self, n: int, matrix: tuple, palette: tuple):
        self.n = n
        self._m = matrix
        self._palette = palette

    # -- construction -------------------------------------------------

    @classmethod
    def _from_dense(cls, n: int, rows: Sequence[Sequence[int]], palette: Sequence[int]):
        """Trusted fast path: rows already symmetric with dense indices."""
        return cls(n, tuple(tuple(r) for r in rows), tuple(palette))

    # -- basic access --------------------------------------------------

    @property
    def palette(self) -> frozenset:
        """Exact set of original color ids appearing on edges."""
        return frozenset(self._palette)

    @property
    def num_colors(self) -> int:
        return len(self._palette)

    def color(self, u: int, v: int) -> int:
        """Original color id of edge uv."""
        if u == v:
            raise SelfLoop(f"no edge ({u},{v})")
        return self._palette[self._m[u][v]]

    def edges(self) -> Iterator[tuple]:
        """Yield (u, v, original color) for u < v in lexicographic order."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                yield u, v, self._palette[self._m[u][v]]

    def check_vertex(self, v: int) -> None:
        if not (isinstance(v, int) and 0 <= v < self.n):
            raise UnknownVertex(f"vertex {v!r} not in 0..{self.n - 1}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColoredCompleteGraph)
            and self.n == other.n
            and self._m == other._m
            and self._palette == other._palette
        )

    def __hash__(self) -> int:
        return hash((self.n, self._m, self._palette))

    def __repr__(self) -> str:
        return f"ColoredCompleteGraph(n={self.n}, colors={len(self._palette)})"


@dataclass(frozen=True)
class ColorStats:
    """Per-vertex color degrees plus the two extremal degree statistics."""

    color_degrees: tuple
    min_color_degree: int
    max_mono_degree: int


def build(n: int, edges: Iterable[Sequence[int]]) -> ColoredCompleteGraph:
    """Build a graph from an explicit edge list covering every pair exactly once.

    Each entry is (u, v, color) with 0 <= u, v < n and u != v; colors are
    arbitrary integers.  Raises SelfLoop, DuplicateEdge or MissingEdge
    naming the offending pair.
    """
    if n < 1:
        raise TooSmall(f"need n >= 1, got {n}")
    raw = [[-1] * n for _ in range(n)]
    seen = [[False] * n for _ in range(n)]
    colors = set()
    for entry in edges:
        u, v, c = entry
        if not (isinstance(u, int) and isinstance(v, int) and 0 <= u < n and 0 <= v < n):
            raise UnknownVertex(f"edge endpoint out of range in ({u},{v})")
        if u == v:
            raise SelfLoop(f"({u},{v})")
        if seen[u][v]:
            raise DuplicateEdge(f"({min(u, v)},{max(u, v)})")
        seen[u][v] = seen[v][u] = True
        raw[u][v] = raw[v][u] = c
        colors.add(c)
    for u in range(n):
        for v in range(u + 1, n):
            if not seen[u][v]:
                raise MissingEdge(f"({u},{v})")
    palette = tuple(sorted(colors))
    rank = {c: d for d, c in enumerate(palette)}
    rows = tuple(
        tuple(-1 if u == v else rank[raw[u][v]] for v in range(n)) for u in range(n)
    )
    return ColoredCompleteGraph(n, rows, palette)


def stats(g: ColoredCompleteGraph) -> ColorStats:
    """Color degree per vertex, its minimum, and the max monochromatic degree."""
    if g.n < 2:
        raise TooSmall(f"stats need n >= 2, got {g.n}")
    m = g._m
    n = g.n
    k = g.num_colors
    degrees = []
    max_mono = 0
    for u in range(n):
        counts = [0] * k
        row = m[u]
        for v in range(n):
            if v != u:
                counts[row[v]] += 1
        degrees.append(sum(1 for c in counts if c))
        mx = max(counts)
        if mx > max_mono:
            max_mono = mx
    return ColorStats(tuple(degrees), min(degrees), max_mono)


def colors_between(g: ColoredCompleteGraph, a: Iterable[int], b: Iterable[int]) -> set:
    """Set of original colors on edges with one endpoint in each set."""
    sa, sb = set(a), set(b)
    if not sa or not sb:
        raise EmptyVertexSet("both sets must be nonempty")
    if sa & sb:
        raise OverlappingSets(f"sets share {sorted(sa & sb)}")
    for v in itertools.chain(sa, sb):
        g.check_vertex(v)
    m = g._m
    pal = g._palette
    return {pal[m[u][v]] for u in sa for v in sb}


# -- JSON instance format ---------------------------------------------

def to_instance_dict(g: ColoredCompleteGraph) -> dict:
    return {"n": g.n, "edges": [[u, v, c] for u, v, c in g.edges()]}


def dumps_instance(g: ColoredCompleteGraph) -> str:
    return json.dumps(to_instance_dict(g), separators=(",", ":"))


def from_instance_dict(data) -> ColoredCompleteGraph:
    """Strict loader for {"n": int, "edges": [[u,v,color],...]}."""
    if not isinstance(data, dict) or set(data.keys()) != {"n", "edges"}:
        raise InvalidInstance('expected exactly the keys "n" and "edges"')
    n = data["n"]
    edges = data["edges"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidInstance('"n" must be a positive integer')
    if not isinstance(edges, list) or len(edges) != n * (n - 1) // 2:
        raise InvalidInstance(f'"edges" must list exactly {n * (n - 1) // 2} entries')
    for e in edges:
        if (
            not isinstance(e, list)
            or len(e) != 3
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)
        ):
            raise InvalidInstance(f"bad edge entry {e!r}")
    return build(n, edges)


def loads_instance(text: str) -> ColoredCompleteGraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInstance(f"not JSON: {exc}") from exc
    except RecursionError:
        raise InvalidInstance("JSON nested too deeply") from None
    return from_instance_dict(data)
