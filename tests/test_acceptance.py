"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The exhaustive K4/K5
sweeps are shared session fixtures so the oracle work happens once.
"""

import random
import time

import pytest

from helpers import (
    random_instance_pool,
    random_multipartite_tournament,
    random_tournament,
)

from pcgraph import oracles
from pcgraph.cycles import enumerate_pc_cycles, is_pc_path, pc_hamilton_path
from pcgraph.detect import closure_from_seed, degeneracy_status
from pcgraph.families import (
    example_directed,
    example_k5_double_pentagon,
    exhaustive_colorings,
    random_no_mono_triangle,
)
from pcgraph.oracles import (
    bell_number,
    brute_degeneracy_tag,
    directed_cycle_lengths,
    pc_cycle_exists_with_edge,
    proper_degenerate_sets,
)
from pcgraph.sweep import SweepConfig, run_sweep
from pcgraph.tournaments import cycles_through, is_directed_cycle, mpt_cycles_through
from pcgraph.trichotomy import TrichotomyTag, classify, side_conditions


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def k4_sweep():
    start = time.monotonic()
    report = run_sweep(SweepConfig(family="exhaustive", n=4, oracle="full"))
    return report, time.monotonic() - start


@pytest.fixture(scope="session")
def k5_sweep():
    start = time.monotonic()
    report = run_sweep(SweepConfig(family="exhaustive", n=5, oracle="full"))
    return report, time.monotonic() - start


@pytest.fixture(scope="session")
def random_pool_6_to_9():
    return random_instance_pool(1000, sizes=(6, 7, 8, 9), seed=60919)


@pytest.fixture(scope="session")
def random_pool_4_to_9():
    return random_instance_pool(1000, sizes=(4, 5, 6, 7, 8, 9), seed=40919)


def test_criterion_1_exhaustive_k4(k4_sweep):
    report, elapsed = k4_sweep
    ok = (
        report.processed == bell_number(6) == 203
        and report.internal_errors == 0
        and report.exclusivity_violations == 0
        and report.oracle_mismatches == 0
        and report.certificate_failures == 0
        and elapsed < 10.0
    )
    _verdict(
        "criterion 1: exhaustive K4 verification",
        ok,
        f"{report.processed} colorings, tags={report.tags}, {elapsed:.2f}s",
    )


def test_criterion_2_exhaustive_k5(k5_sweep):
    report, elapsed = k5_sweep
    ok = (
        report.processed == bell_number(10) == 115975
        and report.internal_errors == 0
        and report.exclusivity_violations == 0
        and report.oracle_mismatches == 0
        and report.certificate_failures == 0
        and report.exception_agreement_failures == 0
        and report.tags["c"] > 0
        and elapsed < 600.0
    )
    _verdict(
        "criterion 2: exhaustive K5 verification",
        ok,
        f"{report.processed} colorings, tags={report.tags}, {elapsed:.1f}s",
    )


def test_criterion_3_example_reproduction():
    dp = example_k5_double_pentagon()
    ok = classify(dp).tag is TrichotomyTag.EXCEPTIONAL_K5
    for v in range(5):
        ok = ok and enumerate_pc_cycles(dp, v, 5) == []
        ok = ok and len(enumerate_pc_cycles(dp, v, 4)) > 0

    ex = example_directed(6)
    res = classify(ex)
    ok = ok and res.tag is TrichotomyTag.PROPER_DEGENERATE
    ok = ok and res.certificate.S == frozenset({0, 1, 2})
    for u in (0, 1, 2):
        for v in (3, 4, 5):
            ok = ok and not pc_cycle_exists_with_edge(ex, u, v)
    _verdict("criterion 3: example reproduction", ok)


def test_criterion_4_hamilton_path(k4_sweep, k5_sweep, random_pool_6_to_9):
    ok = k4_sweep[0].hamilton_path_failures == 0 and k5_sweep[0].hamilton_path_failures == 0
    checked = 0
    for g in random_pool_6_to_9:
        path = pc_hamilton_path(g)
        if not (len(path) == g.n and len(set(path)) == g.n and is_pc_path(g, path)):
            ok = False
            break
        checked += 1
    _verdict(
        "criterion 4: Hamilton path property",
        ok,
        f"sweeps clean, {checked}/1000 random instances (n in 6..9)",
    )


def test_criterion_5_multipartite_cycles():
    start = time.monotonic()
    ok = True
    rng = random.Random(52)
    for i in range(200):
        total = rng.randint(4, 10)
        t = random_multipartite_tournament(total, 5000 + i)
        for v in range(total):
            got = mpt_cycles_through(t, v)
            if set(got) != set(range(4, total + 1)):
                ok = False
            for ln, cyc in got.items():
                if len(cyc) != ln or v not in cyc or not is_directed_cycle(t, cyc):
                    ok = False
        if total <= 8:
            for v in range(total):
                oracle = {ln for ln in directed_cycle_lengths(t, v) if ln >= 4}
                if oracle != set(range(4, total + 1)):
                    ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _verdict(
        "criterion 5: multipartite tournament cycle suite",
        ok,
        f"200 instances, {elapsed:.1f}s",
    )


def test_criterion_6_tournament_cycles():
    ok = True
    rng = random.Random(61)
    for i in range(200):
        n = rng.randint(3, 10)
        t = random_tournament(n, 6000 + i)
        for v in range(n):
            got = cycles_through(t, v)
            if set(got) != set(range(3, n + 1)):
                ok = False
            for ln, cyc in got.items():
                if len(cyc) != ln or v not in cyc or not is_directed_cycle(t, cyc):
                    ok = False
        if n <= 8:
            for v in range(n):
                if directed_cycle_lengths(t, v) != set(range(3, n + 1)):
                    ok = False
    _verdict("criterion 6: strong tournament cycle suite", ok, "200 instances")


def test_criterion_7_side_conditions(k4_sweep, k5_sweep, random_pool_4_to_9):
    ok = (
        k4_sweep[0].side_condition_failures == 0
        and k4_sweep[0].corollary_violations == 0
        and k5_sweep[0].side_condition_failures == 0
        and k5_sweep[0].corollary_violations == 0
    )
    for g in random_pool_4_to_9:
        rep = side_conditions(g, classify(g))
        if not rep.exception_bounds_hold or rep.pancyclic_when_mono_low is False:
            ok = False
            break
    _verdict(
        "criterion 7: degree-threshold side conditions",
        ok,
        "sweeps plus 1000 random instances (n in 4..9)",
    )


def _degeneracy_cross_check(g, proper_sets) -> bool:
    proper = list(proper_sets(g))
    status = degeneracy_status(g)
    if status.tag is not brute_degeneracy_tag(g):
        return False
    if status.certificate is not None and not status.certificate.check(g):
        return False
    if proper and len(status.certificate.S) >= g.n:
        return False
    # closure minimality against every brute-force proper set
    for u in range(g.n):
        for c in sorted({g.color(u, v) for v in range(g.n) if v != u}):
            cert = closure_from_seed(g, u, c)
            if cert is None:
                continue
            for s_other, f_other in proper:
                if u in s_other and f_other[u] == c and not cert.S <= s_other:
                    return False
    return True


def test_criterion_8_degeneracy_oracle(monkeypatch):
    # brute_degeneracy_tag reads proper_degenerate_sets through the oracles
    # module; a one-graph memo there lets it and the cross-check share one
    # enumeration of each coloring's proper sets
    memo = [None, []]

    def listed_once(g):
        if memo[0] is not g:
            memo[:] = [g, list(proper_degenerate_sets(g))]
        return iter(memo[1])

    monkeypatch.setattr(oracles, "proper_degenerate_sets", listed_once)
    start = time.monotonic()
    ok = all(_degeneracy_cross_check(g, listed_once) for g in exhaustive_colorings(4))
    count5 = 0
    for g in exhaustive_colorings(5):
        if not _degeneracy_cross_check(g, listed_once):
            ok = False
            break
        count5 += 1
    ok = ok and count5 == 115975
    rng = random.Random(88)
    for i in range(500):
        g = random_no_mono_triangle(6, rng.choice((3, 4, 5)), seed=8000 + i)
        if not _degeneracy_cross_check(g, listed_once):
            ok = False
            break
    elapsed = time.monotonic() - start
    _verdict(
        "criterion 8: degeneracy oracle equivalence",
        ok,
        f"all K4/K5 colorings + 500 random n=6, {elapsed:.1f}s",
    )
