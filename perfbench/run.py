"""pcgraph sweep benchmark: throughput, per-instance latency and failures.

Run from the repository root:

    python3 perfbench/run.py --workload k5-exhaustive --seed 0 --seconds 60 --trace 0

One process examines one instance at a time with
``pcgraph.sweep.examine_instance``, drawing instances from
``pcgraph.families.generate``: the single-worker path of ``pcg sweep``, as
a closed loop.  The run stops after ``--seconds`` of wall time, or earlier
when the workload's instance stream ends (k5-exhaustive is one pass over
all 115,975 K5 colorings).  Every record is checked; any wrong answer makes
the command exit 1 after printing its result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
for half of ``--seconds``, then replays the same instances with the public
names imported by ``pcgraph.sweep`` and ``pcgraph.trichotomy`` wrapped (see
tracing.py), and reports per-layer self time and counts plus the tracing
overhead.

Times are host-normalized.  The shared hosts this was built on run the same
Python code up to 1.7x slower for stretches of 10-20 s, which moved raw
throughput by 30% between identical runs.  So a fixed pure-Python reference
loop (reference_loop) is timed at most every REF_PERIOD_S, and each wall time is multiplied
by the host factor REF_NOMINAL_S / (mean of the reference timings just
before and just after it): a time as on a quiet host.  The raw figures and
the mean factor are printed beside each metric.

Each instance has a CPU-time limit; an instance that reaches it is stopped,
counted as failed (not as wrong) and listed so that ``pcg gen`` can replay
it.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

TIME_LIMIT_CPU_S = 1.0
SETUP_PROBES = 7
# The tail is the highest of these with >= MIN_BEYOND samples beyond it.  p99.9
# is left out: on k5-exhaustive it moved 4x between identical runs on a shared
# 2-core host, where p99 holds.
TAIL_LADDER = (99.0, 90.0, 50.0)
MIN_BEYOND = 10
STREAM_COUNT = 10**9  # seeded streams are cut by time, never by count
REF_NOMINAL_S = 0.001  # about reference_loop's time on a quiet x86-64 host, Python 3.11
REF_PERIOD_S = 0.1


@dataclass(frozen=True)
class Workload:
    family: str
    n: int
    oracle: str
    seeded: bool  # False: the stream is fixed and --seed is not used

    def spec(self, pcg, seed: int):
        if self.seeded:
            return pcg.families.GenSpec(self.family, self.n, 0, seed, STREAM_COUNT)
        return pcg.families.GenSpec(self.family, self.n)

    def instance_id(self, seed: int, index: int) -> dict:
        if self.seeded:
            return {"family": self.family, "n": self.n, "seed": seed + index}
        return {"family": self.family, "n": self.n, "index": index}


WORKLOADS: Dict[str, Workload] = {
    "k5-exhaustive": Workload("exhaustive", 5, "full", seeded=False),
    "degenerate-n64": Workload("randomDegenerate", 64, "partial", seeded=True),
    "gallai-n64": Workload("gallai", 64, "partial", seeded=True),
}

# Keys a clean record carries as True, by oracle level (see sweep.examine_instance).
REQUIRED_CHECKS = {
    "off": ("side_ok", "corollary_ok"),
    "partial": ("side_ok", "corollary_ok", "cert_ok"),
    "full": ("side_ok", "corollary_ok", "cert_ok", "oracle_ok", "exclusive_ok",
             "exception_ok", "hamilton_path_ok"),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, broken tracing)."""


class TimeLimit(BaseException):
    """Raised inside an instance when it reaches its CPU-time limit.

    A BaseException, so that no ``except Exception`` in the program under
    test swallows it.
    """


def load_pcgraph():
    """Import pcgraph from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pcgraph
        import pcgraph.families
        import pcgraph.sweep
    except ImportError as exc:
        raise BenchError(f"cannot import pcgraph from {src}: {exc}") from exc
    if Path(pcgraph.__file__).resolve().parent != src / "pcgraph":
        raise BenchError(f"pcgraph imported from {pcgraph.__file__}, not from {src}")
    return pcgraph


def clean_problems(rec: dict, oracle: str) -> List[str]:
    """Why a completed record is not clean at the oracle level (empty if clean)."""
    if rec.get("mono_triangle") or rec.get("too_small"):
        return []
    if "internal_error" in rec:
        return [f"internal_error: {rec['internal_error']}"]
    return [key for key in REQUIRED_CHECKS[oracle] if rec.get(key) is not True]


def percentile(sorted_values: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it."""
    for p in TAIL_LADDER:
        if count - max(1, math.ceil(p / 100 * count)) >= MIN_BEYOND:
            return p
    return None


REF_MATRIX = tuple(tuple((7 * i + 3 * j) % 5 for j in range(64)) for i in range(64))


def reference_loop() -> int:
    """Fixed work shaped like pcgraph's inner loops, and independent of it.

    Reads of a dense tuple matrix, comparisons, and tuple and dict building.
    Across processes on a contended host it tracked examine_instance within
    7%, where a plain integer loop tracked it within 13% and raw time moved 53%.
    """
    m = REF_MATRIX
    hits = 0
    seen = {}
    for u in range(64):
        row = m[u]
        for v in range(64):
            c = row[v]
            if c != m[v][u - 1]:
                hits += 1
                seen[(u, v)] = (c, hits)
    return hits


class HostSpeed:
    """How fast the host runs Python, relative to a quiet host."""

    def __init__(self) -> None:
        self._last = self._time_reference()
        self._due = time.perf_counter() + REF_PERIOD_S

    @staticmethod
    def _time_reference() -> float:
        # With the collector off, garbage the program left is not collected
        # (and timed) here; the loop frees all it allocates before returning.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_loop()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def factor(self, force: bool = False) -> Optional[float]:
        """Host factor for the work done since the previous reference timing.

        None while the next timing is not yet due (REF_PERIOD_S), unless forced.
        """
        if not force and time.perf_counter() < self._due:
            return None
        previous, self._last = self._last, self._time_reference()
        self._due = time.perf_counter() + REF_PERIOD_S
        return REF_NOMINAL_S / ((previous + self._last) / 2)


@dataclass
class Run:
    """Outcome of examining one contiguous stretch of a workload's stream."""

    workload: Workload
    seed: int
    attempted: int = 0
    mono_free: int = 0
    tags: Counter = field(default_factory=Counter)
    fallbacks: int = 0
    busy_s: float = 0.0  # wall time drawing and examining instances
    norm_s: float = 0.0  # the same, host-normalized
    exhausted: bool = False
    latencies: array = field(default_factory=lambda: array("d"))  # completed, normalized
    raw_latencies: array = field(default_factory=lambda: array("d"))
    failed_latencies: List[float] = field(default_factory=list)  # normalized
    failures: List[dict] = field(default_factory=list)
    wrong: List[str] = field(default_factory=list)
    tags_checked: int = 0

    def ranked_latencies(self) -> List[float]:
        """Failed instances rank above every completed one."""
        return sorted(self.latencies) + sorted(self.failed_latencies)


class Bench:
    def __init__(self, pcg, workload: Workload, expected: dict,
                 time_limit: float = TIME_LIMIT_CPU_S) -> None:
        self.pcg = pcg
        self.workload = workload
        self.expected = expected
        self.time_limit = time_limit
        self._armed = False

    def _on_limit(self, signum, frame) -> None:
        if self._armed:
            raise TimeLimit()

    def _examine(self, g, tracer):
        """(record, None, False), or (None, reason, wrong) when it did not complete."""
        examine = self.pcg.sweep.examine_instance
        oracle = self.workload.oracle
        try:
            self._armed = True
            signal.setitimer(signal.ITIMER_PROF, self.time_limit)
            try:
                if tracer is None:
                    return examine(g, oracle), None, False
                return tracer.root(tracing.EXAMINE_LAYER, examine, g, oracle), None, False
            finally:
                self._armed = False
                signal.setitimer(signal.ITIMER_PROF, 0)
        except TimeLimit:
            return None, f"time limit ({self.time_limit:g} s CPU)", False
        except Exception as exc:  # any other raise is a failed, wrong instance
            return None, f"raised {type(exc).__name__}: {exc}", True

    def run(self, seed: int, seconds: float, count: Optional[int] = None,
            tracer: Optional[tracing.Tracer] = None) -> Run:
        """Examine instances until `seconds` pass, `count` are done or the stream ends."""
        wl = self.workload
        out = Run(wl, seed)
        stream: Iterator = self.pcg.families.generate(wl.spec(self.pcg, seed))
        old_handler = signal.signal(signal.SIGPROF, self._on_limit)
        host = HostSpeed()
        pending: List[tuple] = []  # (busy, latency, failed) awaiting a host factor

        def settle(factor: Optional[float]) -> None:
            if factor is None:
                return
            for busy, latency, failed in pending:
                out.norm_s += busy * factor
                (out.failed_latencies if failed else out.latencies).append(latency * factor)
            pending.clear()

        start = time.perf_counter()
        try:
            while count is None or out.attempted < count:
                settle(host.factor())
                t0 = time.perf_counter()
                if count is None and out.attempted and t0 - start >= seconds:
                    break
                g = next(stream, None)
                t1 = time.perf_counter()
                if g is None:
                    out.exhausted = True
                    break
                if tracer is not None:
                    tracer.add(tracing.GEN_LAYER, t0, t1)
                    calls, outcomes = tracer.calls.copy(), tracer.outcomes.copy()
                rec, reason, wrong = self._examine(g, tracer)
                t2 = time.perf_counter()
                out.busy_s += t2 - t0
                pending.append((t2 - t0, t2 - t1, rec is None))
                index = out.attempted
                out.attempted += 1
                if rec is None:
                    self._fail(out, index, reason, wrong)
                    if tracer is not None:
                        tracer.reset_stack()
                    continue
                out.raw_latencies.append(t2 - t1)
                self._tally(out, index, rec)
                if tracer is not None:
                    problems = tracing.call_problems(
                        rec, tracer.calls - calls, tracer.outcomes - outcomes, wl.oracle)
                    if problems:
                        raise tracing.TraceError(
                            f"{wl.instance_id(seed, index)}: " + "; ".join(problems))
        finally:
            signal.signal(signal.SIGPROF, old_handler)
        settle(host.factor(force=True))
        if out.exhausted:
            self._check_totals(out)
        return out

    def _fail(self, out: Run, index: int, reason: str, wrong: bool) -> None:
        ident = self.workload.instance_id(out.seed, index)
        out.failures.append(dict(ident, reason=reason))
        if wrong:
            out.wrong.append(f"{ident}: {reason}")

    def _tally(self, out: Run, index: int, rec: dict) -> None:
        problems = clean_problems(rec, self.workload.oracle)
        if problems:
            self._fail(out, index, "not clean: " + ", ".join(problems), wrong=True)
        if rec.get("mono_triangle"):
            return
        out.mono_free += 1
        if "tag" not in rec:
            return
        out.tags[rec["tag"]] += 1
        out.fallbacks += rec.get("fallbacks", 0)
        table = self.expected.get("tags_by_seed")
        if table is not None and self.workload.seeded:
            s = out.seed + index
            if 0 <= s < len(table) and table[s] != "?":
                out.tags_checked += 1
                if table[s] != rec["tag"]:
                    out.wrong.append(
                        f"{self.workload.instance_id(out.seed, index)}: tag {rec['tag']!r}, "
                        f"expected {table[s]!r}")

    def _check_totals(self, out: Run) -> None:
        want = self.expected.get("totals")
        if want is None:
            return
        have = {"processed": out.attempted, "mono_triangle_free": out.mono_free,
                "tags": {t: out.tags[t] for t in "abc"}}
        if have != want:
            out.wrong.append(f"pass totals {have}, expected {want}")


# -- metrics -------------------------------------------------------------

def end_to_end(run: Run, setup: tuple) -> Dict[str, tuple]:
    """name -> (value, unit, note); `setup` is setup_seconds()' (normalized, raw)."""
    ranked = run.ranked_latencies()
    tail_p = tail_percentile(len(ranked))
    tail = percentile(ranked, tail_p) if tail_p is not None else ranked[-1]
    where = f"p{tail_p:g}" if tail_p is not None else "max"
    raw = sorted(run.raw_latencies)
    raw_p50 = f", raw {percentile(raw, 50) * 1e3:.4g} ms" if raw else ""
    return {
        "throughput_inst_per_s": (
            run.attempted / run.norm_s, "inst/s",
            f"{run.attempted} instances in {run.busy_s:.3f} s wall, raw "
            f"{run.attempted / run.busy_s:.4g} inst/s, mean host factor "
            f"{run.norm_s / run.busy_s:.3f}"),
        "latency_p50_ms": (percentile(ranked, 50) * 1e3, "ms",
                           f"p50 of {len(ranked)} samples{raw_p50}"),
        "latency_tail_ms": (tail * 1e3, "ms", f"{where} of {len(ranked)} samples"),
        "failed_frac": (len(run.failures) / run.attempted, "ratio",
                        f"{len(run.failures)} of {run.attempted}"),
        "setup_s": (setup[0], "s", f"median of {SETUP_PROBES} fresh-process probes, "
                                   f"raw {setup[1]:.4g} s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "this process, ru_maxrss"),
    }


def per_layer(tracer: tracing.Tracer, traced: Run, untraced: Run) -> Dict[str, tuple]:
    c, o = tracer.calls, tracer.outcomes
    scale = traced.norm_s / traced.busy_s  # the traced replay's mean host factor
    inserts = c["trichotomy.insert_into_pc_cycle"]
    out: Dict[str, tuple] = {
        f"{layer}_s": (tracer.self_s[layer] * scale, "s", "self time")
        for layer in tracing.LAYERS
    }
    out.update({
        "detect.mono_rejects": (o["mono_rejects"], "count", "sweep-site scans finding one"),
        "detect.proper_set": (o["proper_set"], "count", "degeneracy_status outcomes"),
        "detect.full_only": (o["full_only"], "count", "degeneracy_status outcomes"),
        "detect.non_degenerate": (o["non_degenerate"], "count", "degeneracy_status outcomes"),
        "tournaments.mpt_fallbacks": (traced.fallbacks, "count", "records' exhaustive_fallback"),
        "cycles.insert_calls": (inserts, "count", "insert_into_pc_cycle calls"),
        "cycles.insert_hit_ratio": (o["insert_hits"] / inserts if inserts else 0.0, "ratio",
                                    f"{o['insert_hits']} of {inserts} returned a cycle"),
        "cycles.growth_dfs_calls": (c["trichotomy.has_pc_cycle"], "count",
                                    "has_pc_cycle calls from growth"),
        "trace.instances": (traced.attempted, "count", "instances in the traced replay"),
        "trace.overhead_s": (traced.norm_s - untraced.norm_s, "s",
                             f"traced {traced.norm_s:.3f} s - untraced "
                             f"{untraced.norm_s:.3f} s on the same instances "
                             f"({(traced.norm_s / untraced.norm_s - 1) * 100:+.1f}%)"),
    })
    return out


# -- set-up, environment, output ------------------------------------------

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from pcgraph import families, sweep
next(families.generate(families.GenSpec(sys.argv[2], int(sys.argv[3]), 0, int(sys.argv[4]), 1)))
print("ready", flush=True)
"""


def setup_seconds(workload: Workload, seed: int) -> tuple:
    """Median time from spawning a fresh interpreter to its first instance.

    Returns (host-normalized, raw) medians.
    """
    args = [sys.executable, "-c", PROBE, str(ROOT / "src"), workload.family,
            str(workload.n), str(seed)]
    host = HostSpeed()
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(args, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
        times.append((t1 - t0) * host.factor(force=True))
        raw.append(t1 - t0)
    return statistics.median(times), statistics.median(raw)


def git_sha() -> str:
    """HEAD's sha read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(name: str, workload: Workload, args) -> dict:
    return {
        "workload": name,
        "family": workload.family,
        "n": workload.n,
        "oracle": workload.oracle,
        "seed": args.seed,
        "seeded": workload.seeded,
        "seconds": args.seconds,
        "trace": args.trace,
        "time_limit_cpu_s": TIME_LIMIT_CPU_S,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def print_metrics(title: str, metrics: Dict[str, tuple]) -> None:
    print(f"# {title}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}  ({note})")


def report_run(run: Run) -> None:
    for failure in run.failures:
        replay = {k: v for k, v in failure.items() if k != "reason"}
        print(f"failed: {json.dumps(replay)} {failure['reason']}")
    for wrong in run.wrong:
        print(f"WRONG: {wrong}")
    wl = run.workload
    print(f"# {run.attempted} attempted, {run.mono_free} mono-triangle-free, tags "
          f"a/b/c = {run.tags['a']}/{run.tags['b']}/{run.tags['c']}")
    if wl.seeded:
        print(f"# tags checked against expected.json: {run.tags_checked}")
    elif run.exhausted:
        print("# full pass: totals checked against expected.json")
    else:
        print("# pass cut by --seconds: totals not checked")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        pcg = load_pcgraph()
        expected = json.loads((HERE / "expected.json").read_text())[args.workload]
        print("env " + json.dumps(environment(args.workload, workload, args)), flush=True)
        setup = setup_seconds(workload, args.seed)
        bench = Bench(pcg, workload, expected)
        base = bench.run(args.seed, args.seconds / 2 if args.trace else args.seconds)
        report_run(base)
        e2e = end_to_end(base, setup)
        print_metrics("end to end, untraced", e2e)
        runs = [base]
        if args.trace:
            with tracing.Tracer() as tracer:
                traced = bench.run(args.seed, 0, count=base.attempted, tracer=tracer)
            report_run(traced)
            layers = per_layer(tracer, traced, base)
            print_metrics("per layer, traced replay", layers)
            runs.append(traced)
            metrics, final = layers, traced
        else:
            # failed_frac is 0 on most workloads, so it is no bounded metric;
            # the final line carries it as failed / attempted.
            metrics, final = {k: v for k, v in e2e.items() if k != "failed_frac"}, base
    except (BenchError, tracing.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = not any(run.wrong for run in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": final.attempted,
        "failed": len(final.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
