import dataclasses
import itertools
import os
import random

import pytest

from helpers import random_instance_pool

from pcgraph import build
from pcgraph.cycles import Cycle, is_pc_cycle
from pcgraph.detect import DegeneracyCertificate, DegeneracyTag, degeneracy_status
from pcgraph.errors import MonochromaticTrianglePresent, ResultMismatch, TooSmall
from pcgraph.families import (
    GenSpec,
    double_pentagon_matrix,
    exhaustive_colorings,
    generate,
    random_degenerate,
    random_fibers,
)
from pcgraph.oracles import is_pancyclic_from
from pcgraph.trichotomy import (
    TrichotomyResult,
    TrichotomyTag,
    classify,
    is_double_pentagon_k5,
    side_conditions,
    validate_result,
)


def test_double_pentagon_detector(double_pentagon, rainbow_k4):
    relabel = is_double_pentagon_k5(double_pentagon)
    assert relabel is not None and sorted(relabel) == list(range(5))
    assert is_double_pentagon_k5(rainbow_k4) is None


def test_double_pentagon_detector_relabeled(double_pentagon):
    # all 120 vertex permutations, with the original color ids in both
    # orders, so either pentagon can be dense color class 0
    for perm in itertools.permutations(range(5)):
        for renamed in ({1: 4, 2: 9}, {1: 9, 2: 4}):
            h = build(
                5, [(perm[u], perm[v], renamed[c]) for u, v, c in double_pentagon.edges()]
            )
            assert is_double_pentagon_k5(h) is not None
            result = classify(h)
            assert result.tag is TrichotomyTag.EXCEPTIONAL_K5
            assert validate_result(h, result), (perm, renamed)


def test_classify_examples(double_pentagon, directed_example, rainbow_k4):
    assert classify(double_pentagon).tag is TrichotomyTag.EXCEPTIONAL_K5
    res_b = classify(directed_example)
    assert res_b.tag is TrichotomyTag.PROPER_DEGENERATE
    assert res_b.certificate.S == frozenset({0, 1, 2})
    res_a = classify(rainbow_k4)
    assert res_a.tag is TrichotomyTag.PANCYCLIC
    assert set(res_a.cycles) == {(v, 4) for v in range(4)}
    for (v, ln), cyc in res_a.cycles.items():
        assert v in cyc and len(cyc) == ln and is_pc_cycle(rainbow_k4, cyc)


def test_classify_rejections(mono_k3):
    with pytest.raises(TooSmall):
        classify(mono_k3)
    mono_k4 = build(4, [(u, v, 2) for u, v in itertools.combinations(range(4), 2)])
    with pytest.raises(MonochromaticTrianglePresent):
        classify(mono_k4)


def test_classify_full_only_route():
    # force the orientation pipeline with planted 2-fibers
    g, f = random_degenerate(8, [(0, 1), (2, 3), (4,), (5,), (6,), (7,)], seed=5)
    st = degeneracy_status(g)
    if st.tag is not DegeneracyTag.FULL_ONLY:
        pytest.skip("seed produced a proper set")
    result = classify(g)
    assert result.tag is TrichotomyTag.PANCYCLIC
    assert validate_result(g, result)


def _full_only(n, seed):
    g, _f = random_degenerate(n, random_fibers(n, seed), seed)
    assert degeneracy_status(g).tag is DegeneracyTag.FULL_ONLY
    return g


def test_classify_gallai_n10_is_pinned():
    # the stream of `pcg gen --family gallai --n 10 --seed 0 --count 16`;
    # seeds 1, 3, 13, 14 and 15 reach the has_pc_cycle walk, so the golden
    # pins the order in which it tries vertices
    golden = os.path.join(os.path.dirname(__file__), "data", "classify_gallai_n10.jsonl")
    lines = []
    walks = 0
    for g in generate(GenSpec("gallai", n=10, seed=0, count=16)):
        st: dict = {}
        lines.append(classify(g, stats_out=st).to_json() + "\n")
        walks += st.get("growth_oracle_uses", 0)
    with open(golden, "rb") as fh:
        assert "".join(lines).encode() == fh.read()
    assert walks == 18


def test_orientation_route_lifts_each_shared_cycle_once(monkeypatch):
    import pcgraph.trichotomy as trichotomy_mod

    g = _full_only(64, 0)
    real = trichotomy_mod.lift_cycle
    lifts = []

    def counted(g, f, cycle):
        lifts.append(tuple(cycle))
        return real(g, f, cycle)

    monkeypatch.setattr(trichotomy_mod, "lift_cycle", counted)
    result = classify(g)
    assert result.tag is TrichotomyTag.PANCYCLIC
    distinct = {id(cyc) for cyc in result.cycles.values()}
    assert len(result.cycles) == 64 * 61
    assert len(distinct) < 64 * 61
    assert len(lifts) == len(distinct) == len(set(lifts))
    assert validate_result(g, result)


def _refiled(result, changes):
    return dataclasses.replace(result, cycles={**result.cycles, **changes})


def test_validate_result_checks_every_entry_of_a_shared_cycle():
    g = _full_only(12, 1)
    result = classify(g)
    assert validate_result(g, result)
    table = result.cycles
    ln = 6
    shared = table[(0, ln)]
    assert sum(1 for cyc in table.values() if cyc is shared) > 1
    on = sorted(shared)
    off = next(v for v in range(g.n) if v not in shared)
    # one shared cycle also filed under a wrong length
    assert not validate_result(g, _refiled(result, {(on[-1], ln + 1): shared}))
    # filed under a vertex not on it
    assert not validate_result(g, _refiled(result, {(off, ln): shared}))
    # a non-PC cycle on the same vertices, shared by all of them
    rng = random.Random(0)
    while True:
        order = list(shared)
        rng.shuffle(order)
        if not is_pc_cycle(g, order):
            break
    bad = Cycle(order)
    assert not validate_result(g, _refiled(result, {(v, ln): bad for v in bad}))


def test_validate_result_rejects_non_bijective_relabel():
    # the canonical matrix pulled back along a relabel that merges 0 and 1;
    # edge 01 then has no canonical color and gets a third one
    relabel = {0: 0, 1: 0, 2: 1, 3: 2, 4: 3}
    canon = double_pentagon_matrix()
    g = build(
        5,
        [
            (u, v, 7 if (u, v) == (0, 1) else canon[relabel[u]][relabel[v]])
            for u, v in itertools.combinations(range(5), 2)
        ],
    )
    assert classify(g).tag is TrichotomyTag.PANCYCLIC
    forged = TrichotomyResult(TrichotomyTag.EXCEPTIONAL_K5, g, relabel=relabel)
    assert not validate_result(g, forged)


def test_degeneracy_certificate_rejects_vertices_outside_graph():
    # vertex 4 is a monochromatic star of the top color, so index -1 would
    # read its row
    k4 = {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3}
    g = build(5, [(u, v, c) for (u, v), c in k4.items()] + [(u, 4, 9) for u in range(4)])
    assert DegeneracyCertificate(frozenset({4}), {4: 9}).check(g)
    for vertex in (-1, 7):
        cert = DegeneracyCertificate(frozenset({vertex}), {vertex: 9})
        assert not cert.check(g)
        forged = TrichotomyResult(TrichotomyTag.PROPER_DEGENERATE, g, certificate=cert)
        assert not validate_result(g, forged)


def test_classify_certificates_validate_random():
    pool = random_instance_pool(50, sizes=(4, 5, 6, 7), seed=23)
    for g in pool:
        result = classify(g)
        assert validate_result(g, result)
        if result.tag is TrichotomyTag.PANCYCLIC:
            assert is_pancyclic_from(g)


def test_classify_agrees_with_oracle_exhaustive_k4():
    from pcgraph.detect import find_monochromatic_triangle

    for g in exhaustive_colorings(4):
        if find_monochromatic_triangle(g) is not None:
            continue
        result = classify(g)
        assert (result.tag is TrichotomyTag.PANCYCLIC) == is_pancyclic_from(g)


def test_side_conditions_examples(double_pentagon, directed_example, rainbow_k4):
    rep = side_conditions(double_pentagon, classify(double_pentagon))
    assert not rep.color_degree_meets_half  # min color degree 2 < 3
    assert not rep.mono_degree_below_half  # max mono degree 2 >= 2
    assert rep.exception_bounds_hold

    rep_b = side_conditions(directed_example, classify(directed_example))
    assert rep_b.exception_bounds_hold and not rep_b.color_degree_meets_half

    rep_a = side_conditions(rainbow_k4, classify(rainbow_k4))
    assert rep_a.color_degree_meets_half  # 2*3 >= 5
    assert rep_a.mono_degree_below_half  # 1 < 2
    assert rep_a.pancyclic_when_mono_low is True


def test_side_conditions_mismatch(double_pentagon, rainbow_k4):
    with pytest.raises(ResultMismatch):
        side_conditions(rainbow_k4, classify(double_pentagon))


def test_result_json_schema(double_pentagon, directed_example, rainbow_k4):
    import json

    for g in (double_pentagon, directed_example, rainbow_k4):
        doc = json.loads(classify(g).to_json())
        assert set(doc) == {"tag", "certificates"}
        assert doc["tag"] in ("a", "b", "c")
    doc = json.loads(classify(directed_example).to_json())
    assert doc["certificates"]["degenerate_set"]["S"] == [0, 1, 2]


def test_exception_is_unique_double_pentagon():
    # the only 2-colored mono-triangle-free K5s are the double pentagons, and
    # all of them classify (c)
    count = 0
    from pcgraph.detect import find_monochromatic_triangle

    for g in exhaustive_colorings(5):
        if g.num_colors != 2 or find_monochromatic_triangle(g) is not None:
            continue
        count += 1
        assert is_double_pentagon_k5(g) is not None
        assert classify(g).tag is TrichotomyTag.EXCEPTIONAL_K5
    # K5 has 12 Hamiltonian cycles pairing up with their complements, giving
    # 6 partitions into two pentagon classes
    assert count == 6
