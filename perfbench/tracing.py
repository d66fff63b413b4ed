"""Per-layer self time and call counts, taken at pcgraph's import sites.

The traced run replaces public names where ``pcgraph.sweep`` and
``pcgraph.trichotomy`` import them with timing wrappers; nothing under
``src/`` changes.  A layer's self time is the time spent inside its wrapped
calls minus the time of wrapped calls made from inside them, so the layers
plus the benchmark's own spans (instance generation, ``examine_instance``)
add up to the traced time spent drawing and examining instances.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

# (module, name) -> layer.  A layer may span several sites.
SITES: Dict[Tuple[str, str], str] = {
    ("pcgraph.sweep", "find_monochromatic_triangle"): "detect.mono_scan",
    ("pcgraph.trichotomy", "find_monochromatic_triangle"): "detect.mono_scan",
    ("pcgraph.trichotomy", "degeneracy_status"): "detect.degeneracy",
    ("pcgraph.trichotomy", "reduce_degenerate"): "tournaments.reduce",
    ("pcgraph.trichotomy", "is_strongly_connected"): "tournaments.reduce",
    ("pcgraph.trichotomy", "mpt_cycles_through"): "tournaments.mpt",
    ("pcgraph.trichotomy", "lift_cycle"): "tournaments.lift",
    ("pcgraph.trichotomy", "pc_quadrangle_search"): "cycles.quadrangle",
    ("pcgraph.trichotomy", "insert_into_pc_cycle"): "cycles.insert",
    ("pcgraph.trichotomy", "has_pc_cycle"): "cycles.growth_dfs",
    ("pcgraph.sweep", "pc_hamilton_path"): "cycles.hamilton_path",
    ("pcgraph.sweep", "is_pc_path"): "cycles.hamilton_path",
    ("pcgraph.sweep", "classify"): "trichotomy.classify_self",
    ("pcgraph.sweep", "is_double_pentagon_k5"): "trichotomy.double_pentagon",
    ("pcgraph.sweep", "validate_result"): "trichotomy.validate",
    ("pcgraph.sweep", "side_conditions"): "trichotomy.side_conditions",
    ("pcgraph.sweep", "is_pancyclic_from"): "oracles.pancyclic",
    ("pcgraph.sweep", "proper_degenerate_sets"): "oracles.proper_sets",
}
GEN_LAYER = "families.gen"
EXAMINE_LAYER = "sweep.examine_self"
LAYERS = sorted(set(SITES.values()) | {GEN_LAYER, EXAMINE_LAYER})


class TraceError(RuntimeError):
    """The traced run cannot attribute time faithfully."""


def site_key(module: str, name: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{name}"


class Tracer:
    """Wraps the import sites in SITES and accumulates self time per layer.

    Outcome counters: ``mono_rejects`` (the sweep's triangle scan found one),
    ``insert_hits`` (an insertion returned a cycle) and one counter per
    ``DegeneracyTag`` value returned by ``degeneracy_status``.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.outcomes: Counter = Counter()
        self._stack: List[float] = [0.0]
        self._originals: List[Tuple[object, str, Callable]] = []

    # -- spans -----------------------------------------------------------
    def reset_stack(self) -> None:
        """Drop frames a time-limit interrupt may have left half pushed."""
        self._stack[:] = [0.0]

    def add(self, layer: str, start: float, end: float, child: float = 0.0) -> None:
        self.self_s[layer] += end - start - child

    def root(self, layer: str, fn: Callable, *args):
        """Run fn as a top-level span; its self time excludes wrapped calls."""
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self.add(layer, t0, t1, self._stack.pop())

    def _wrap(self, key: str, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        outcomes = self.outcomes
        perf_counter = time.perf_counter

        def timed_next(it):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return next(it)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                self_s[layer] += dt - child

        def timed_iter(it):
            while True:
                try:
                    item = timed_next(it)
                except StopIteration:
                    return
                yield item

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                self_s[layer] += dt - child
                calls[key] += 1
            if key == "sweep.find_monochromatic_triangle" and out is not None:
                outcomes["mono_rejects"] += 1
            elif key == "trichotomy.insert_into_pc_cycle" and out is not None:
                outcomes["insert_hits"] += 1
            elif key == "trichotomy.degeneracy_status":
                outcomes[out.tag.name.lower()] += 1
            if inspect.isgenerator(out):
                return timed_iter(out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- install / remove --------------------------------------------------
    def install(self) -> None:
        """Wrap every site; stop loudly if one is gone."""
        missing = []
        for module, name in SITES:
            mod = importlib.import_module(module)
            fn = getattr(mod, name, None)
            if not callable(fn):
                missing.append(f"{module}.{name}")
        if missing:
            raise TraceError(
                "wrapped name(s) gone from their import site: " + ", ".join(missing)
            )
        for (module, name), layer in SITES.items():
            mod = importlib.import_module(module)
            fn = getattr(mod, name)
            self._originals.append((mod, name, fn))
            setattr(mod, name, self._wrap(site_key(module, name), layer, fn))

    def remove(self) -> None:
        while self._originals:
            mod, name, fn = self._originals.pop()
            setattr(mod, name, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def call_problems(rec: dict, calls: Counter, outcomes: Counter, oracle: str) -> List[str]:
    """Wrapped layers that one completed instance must have reached but did not.

    ``calls`` and ``outcomes`` hold this instance's counts only.  The rules
    follow from the record alone: a layer that ran reads at least one call,
    so a site that is no longer called reports an error here, never zero.
    """
    need = {"sweep.find_monochromatic_triangle": 1}
    if "tag" in rec:
        need.update({"sweep.classify": 1, "trichotomy.degeneracy_status": 1, "sweep.side_conditions": 1})
        if oracle in ("partial", "full"):
            need["sweep.validate_result"] = 1
        if oracle == "full":
            for name in ("is_pancyclic_from", "proper_degenerate_sets",
                         "is_double_pentagon_k5", "pc_hamilton_path"):
                need[f"sweep.{name}"] = 1
        if outcomes["full_only"]:
            for name in ("reduce_degenerate", "mpt_cycles_through", "lift_cycle"):
                need[f"trichotomy.{name}"] = 1
        elif outcomes["non_degenerate"] and rec["tag"] == "a":
            need["trichotomy.pc_quadrangle_search"] = 1
    problems = [
        f"{key}: {calls[key]} call(s), expected at least {least}"
        for key, least in need.items()
        if calls[key] < least
    ]
    if calls["sweep.classify"] > (1 if "tag" in rec else 0):
        problems.append(f"sweep.classify: {calls['sweep.classify']} call(s) for one instance")
    uses = rec.get("growth_oracle_uses")
    if uses is not None and calls["trichotomy.has_pc_cycle"] != uses:
        problems.append(
            f"trichotomy.has_pc_cycle: {calls['trichotomy.has_pc_cycle']} call(s), "
            f"record counts {uses} growth oracle uses"
        )
    return problems
