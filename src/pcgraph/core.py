"""Edge-colored complete graphs: representation, statistics, instance JSON.

A graph is a complete graph on vertices 0..n-1 with one color per edge.
Input colors may be arbitrary integers; internally they are remapped to
dense indices 0..k-1 (sorted by original id) so hot loops compare small
ints.  _from_rows is the one place that does so: build and the random
generators hand it color rows.  Every public surface speaks original
color ids.

Instances are immutable after construction and safe to share between
worker processes.  Two derived facts ride along, outside equality and
hashing.  The neighbor table N_c(u) (_neighbor_table) is built with the
matrix and rebuilt on unpickling, not on first use; stats, the
monochromatic-triangle scan, the degeneracy closure, the PC-cycle walk,
the double-pentagon check and tournaments.reduce_degenerate read it.  It
is left out of pickles, which it would almost triple at n = 64.  The
answer of detect.find_monochromatic_triangle is remembered, so the
generator, the sweep, classify and pc_hamilton_path share one scan; it is
pickled.  The randomNoMono generator repairs with the same scan, run on its
own rows and a mask table keyed by the colors drawn.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DuplicateEdge,
    InvalidInstance,
    MissingEdge,
    PreconditionViolated,
    RepeatedVertex,
    SelfLoop,
    TooSmall,
    UnknownVertex,
)


class ColoredCompleteGraph:
    """Complete graph with a symmetric edge-color matrix.

    ``_m[u][v]`` holds the dense color index of edge uv (diagonal is -1);
    ``_palette[d]`` maps a dense index back to the original color id.
    ``_nbr`` is the neighbor table of _neighbor_table.  ``_mono`` is
    find_monochromatic_triangle's remembered answer, a triple or None, and
    False until that first scan.
    """

    __slots__ = ("n", "_m", "_palette", "_mono", "_nbr")

    def __init__(self, n: int, matrix: tuple, palette: tuple):
        self.n = n
        self._m = matrix
        self._palette = palette
        self._mono = False
        self._nbr = _neighbor_table(matrix, len(palette))

    def __getstate__(self) -> tuple:
        return self.n, self._m, self._palette, self._mono

    def __setstate__(self, state: tuple) -> None:
        self.n, self._m, self._palette, self._mono = state
        self._nbr = _neighbor_table(self._m, len(self._palette))

    # -- basic access --------------------------------------------------

    @property
    def palette(self) -> frozenset:
        """Exact set of original color ids appearing on edges."""
        return frozenset(self._palette)

    @property
    def num_colors(self) -> int:
        return len(self._palette)

    def color(self, u: int, v: int) -> int:
        """Original color id of edge uv; UnknownVertex unless both are vertices."""
        _check_vertex(self.n, u)
        _check_vertex(self.n, v)
        if u == v:
            raise SelfLoop(f"no edge ({u},{v})")
        return self._palette[self._m[u][v]]

    def edges(self) -> Iterator[tuple]:
        """Yield (u, v, original color) for u < v in lexicographic order."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                yield u, v, self._palette[self._m[u][v]]

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


def _neighbor_table(matrix: tuple, k: int) -> list:
    """Per vertex u, the masks N_c(u) of the vertices that u meets in color c.

    Entry [u][c] has bit v set when edge uv has dense color c.  Each vertex
    has k + 1 slots for k colors: the diagonal's -1 indexes the spare last
    slot, so slot k holds bit u alone and lands in no color's mask.  The
    bit of v is carried along the row by one shift per entry.
    """
    table = []
    for row in matrix:
        masks = [0] * (k + 1)
        bit = 1
        for c in row:
            masks[c] |= bit
            bit <<= 1
        table.append(masks)
    return table


def _is_int(x) -> bool:
    """The package's one int test: exactly int, so no bool and no int subclass."""
    return type(x) is int


def _all_ints(xs: Iterable) -> bool:
    """Whether every item of xs passes _is_int, tested in C: one type lookup per item."""
    return {int}.issuperset(map(type, xs))


def _check_int(x, which: str, least: Optional[int] = None) -> None:
    """PreconditionViolated(which) unless x is an int, and at least least if given."""
    if not _is_int(x):
        raise PreconditionViolated(which, f"must be an int, got {x!r}")
    if least is not None and x < least:
        raise PreconditionViolated(which, f"must be >= {least}, got {x}")


def _check_order(n: int, least: int) -> None:
    """PreconditionViolated("n") unless n is an int; TooSmall if it is below least."""
    _check_int(n, "n")
    if n < least:
        raise TooSmall(f"need n >= {least}, got {n}")


def _is_vertex(n: int, v) -> bool:
    """Whether v is a vertex of a graph or digraph of order n: an int in 0..n-1."""
    return type(v) is int and 0 <= v < n


def _check_vertex(n: int, v) -> None:
    if not _is_vertex(n, v):
        raise UnknownVertex(f"vertex {v!r} not in 0..{n - 1}")


def _check_vertices(n: int, seq) -> tuple:
    """seq as a tuple of distinct vertices of order n.

    PreconditionViolated("vertices") when seq is not iterable,
    UnknownVertex on an entry that is no vertex and RepeatedVertex on a
    repeat; an unknown vertex is reported before a repeat, wherever each
    occurs.
    """
    try:
        out = tuple(seq)
    except TypeError:
        raise PreconditionViolated("vertices", f"not a vertex sequence: {seq!r}") from None
    for v in out:
        _check_vertex(n, v)
    if len(set(out)) != len(out):
        raise RepeatedVertex(f"repeated vertex in {list(out)}")
    return out


@dataclass(frozen=True)
class ColorStats:
    """Per-vertex color degrees plus the two extremal degree statistics."""

    color_degrees: tuple
    min_color_degree: int
    max_mono_degree: int


def build(n: int, edges: Iterable[Sequence[int]]) -> ColoredCompleteGraph:
    """Build a graph from an explicit edge list covering every pair exactly once.

    Each entry is (u, v, color): vertices u != v and a color that is any
    int (a bool is none).  Raises SelfLoop, DuplicateEdge or MissingEdge
    naming the offending pair, UnknownVertex on an endpoint that is no
    vertex, and InvalidInstance on another malformed entry;
    PreconditionViolated when n is no int.
    """
    _check_order(n, 1)
    seen = {}
    entry = None
    try:
        for entry in edges:
            u, v, c = entry
            if not (_is_vertex(n, u) and _is_vertex(n, v)):
                raise UnknownVertex(f"edge endpoint out of range in ({u},{v})")
            if not _is_int(c):
                raise InvalidInstance(f"edge colors must be integers, got {c!r}")
            if u == v:
                raise SelfLoop(f"({u},{v})")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise DuplicateEdge(f"({pair[0]},{pair[1]})")
            seen[pair] = c
    except (TypeError, ValueError):
        raise InvalidInstance(f"bad edge entry {entry!r}") from None
    if len(seen) < n * (n - 1) // 2:
        # the first missing pair, within len(seen) + 1 probes and before any matrix exists
        u, v = next(p for p in itertools.combinations(range(n), 2) if p not in seen)
        raise MissingEdge(f"({u},{v})")
    rows = [[-1] * n for _ in range(n)]
    for (u, v), c in seen.items():
        rows[u][v] = rows[v][u] = c
    return _from_rows(rows, set(seen.values()))


def _from_rows(rows: list, colors) -> ColoredCompleteGraph:
    """The graph whose edge uv has color rows[u][v]; colors is the set of them.

    rows is n x n with int colors off the diagonal and -1 on it; nothing is
    checked.  The palette is the sorted colors.  Unless they are 0..k-1
    already, the rows are renumbered to dense indices, and the diagonal is
    set back to -1 in case -1 is also a color.
    """
    palette = tuple(sorted(colors))
    if palette != tuple(range(len(palette))):
        rank = {-1: -1}
        rank.update((c, d) for d, c in enumerate(palette))
        rows = [[rank[c] for c in row] for row in rows]
        for u, row in enumerate(rows):
            row[u] = -1
    return ColoredCompleteGraph(len(rows), tuple(map(tuple, rows)), palette)


def stats(g: ColoredCompleteGraph) -> ColorStats:
    """Color degree per vertex, its minimum, and the max monochromatic degree.

    Both read the neighbor table: u's color degree is the number of its k
    color masks that are nonzero, and the max monochromatic degree is the
    most bits in any mask.  The spare slot k holds only {u}: it is never
    zero, so the zeros counted are colors missing at u, and for n >= 2
    some color mask of u has a bit, so slot k's one bit never raises the
    max.  The max is taken in one pass over the masks of every vertex.
    """
    if g.n < 2:
        raise TooSmall(f"stats need n >= 2, got {g.n}")
    k = g.num_colors
    degrees = tuple(k - row.count(0) for row in g._nbr)
    max_mono = max(map(int.bit_count, itertools.chain.from_iterable(g._nbr)))
    return ColorStats(degrees, min(degrees), max_mono)


# -- JSON instance format ---------------------------------------------

def to_instance_dict(g: ColoredCompleteGraph) -> dict:
    return {"n": g.n, "edges": [[u, v, c] for u, v, c in g.edges()]}


def dumps_instance(g: ColoredCompleteGraph) -> str:
    return json.dumps(to_instance_dict(g), separators=(",", ":"))


def from_instance_dict(data) -> ColoredCompleteGraph:
    """Strict loader for {"n": int, "edges": [[u,v,color],...]}; build checks each entry."""
    if not isinstance(data, dict) or set(data.keys()) != {"n", "edges"}:
        raise InvalidInstance('expected exactly the keys "n" and "edges"')
    n = data["n"]
    edges = data["edges"]
    if not _is_int(n) or n < 1:
        raise InvalidInstance('"n" must be a positive integer')
    if not isinstance(edges, list) or len(edges) != n * (n - 1) // 2:
        raise InvalidInstance(f'"edges" must list exactly {n * (n - 1) // 2} entries')
    return build(n, edges)


def loads_instance(text: str) -> ColoredCompleteGraph:
    try:
        data = json.loads(text)
    except (TypeError, ValueError) as exc:
        # a text that is no str or bytes, or not JSON
        raise InvalidInstance(f"not JSON: {exc}") from exc
    except RecursionError:
        raise InvalidInstance("JSON nested too deeply") from None
    return from_instance_dict(data)
