"""Seeded random structures shared by the property and acceptance tests.

Expected values are never hard-coded for these: each test regenerates the
object from its recorded seed and compares against a brute-force oracle.
"""

import itertools
import random

from pcgraph.families import random_no_mono_triangle
from pcgraph.tournaments import MultipartiteTournament, is_strongly_connected


def random_tournament(n: int, seed: int) -> MultipartiteTournament:
    """Random strongly connected tournament (resampled until strong)."""
    rng = random.Random(seed)
    while True:
        arcs = [
            (u, v) if rng.random() < 0.5 else (v, u)
            for u in range(n)
            for v in range(u + 1, n)
        ]
        t = MultipartiteTournament.tournament(n, arcs)
        if is_strongly_connected(t):
            return t


def random_multipartite_tournament(total: int, seed: int) -> MultipartiteTournament:
    """Random valid instance: parts of size <= 2, disjoint out-neighborhoods, strong."""
    rng = random.Random(seed)
    while True:
        vs = list(range(total))
        rng.shuffle(vs)
        npairs = rng.randint(0, total // 2)
        parts = [tuple(sorted(vs[2 * i : 2 * i + 2])) for i in range(npairs)]
        parts += [(v,) for v in vs[2 * npairs :]]
        parts.sort()
        arcs = []
        ok = True
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                cross = [(u, v) for u in parts[i] for v in parts[j]]
                combos = list(itertools.product((0, 1), repeat=len(cross)))
                rng.shuffle(combos)
                for combo in combos:
                    chosen = [
                        (u, v) if bit else (v, u) for (u, v), bit in zip(cross, combo)
                    ]
                    heads = {frozenset(a): a[0] for a in chosen}
                    good = True
                    for part in (parts[i], parts[j]):
                        if len(part) != 2:
                            continue
                        x, y = part
                        other = parts[j] if part == parts[i] else parts[i]
                        for z in other:
                            if heads[frozenset((x, z))] == x and heads[frozenset((y, z))] == y:
                                good = False
                                break
                        if not good:
                            break
                    if good:
                        arcs.extend(chosen)
                        break
                else:
                    ok = False
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        t = MultipartiteTournament(parts, arcs)
        if t.disjointness_violation() is None and is_strongly_connected(t):
            return t


def random_instance_pool(count: int, sizes, seed: int, k_choices=(3, 4, 5)):
    """Mono-triangle-free random instances cycling through the given sizes."""
    rng = random.Random(seed)
    out = []
    attempt = 0
    while len(out) < count:
        n = sizes[len(out) % len(sizes)]
        k = rng.choice(k_choices)
        out.append(random_no_mono_triangle(n, k, seed + 7919 * attempt))
        attempt += 1
    return out


def is_window(ham, cyc):
    """Whether cyc is the run of len(cyc) vertices of ham from cyc[0] on."""
    p = ham.index(cyc[0])
    return cyc == (ham + ham)[p : p + len(cyc)]
