"""The input contract of every public name, driven with hypothesis.

Each entry point gets valid graphs and digraphs from the families and
tests/helpers.py, and a malformed value (a bool, a float, a negative, None,
a string, a container of the wrong shape) in one other argument.  Only a
PCGraphError may escape, and valid input still gives a validated answer.
CI also runs this module under python -O; its error checks use
pytest.raises, not assert, so they show that no contract check is an assert.
"""

import dataclasses
import functools
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_multipartite_tournament, random_tournament

import pcgraph
from pcgraph import (
    AttachmentClass,
    AttachmentKind,
    DegeneracyCertificate,
    DegeneracyTag,
    MultipartiteTournament,
    TrichotomyResult,
    TrichotomyTag,
    build,
    classify,
    classify_attachment,
    closure_from_seed,
    cycles_through,
    degeneracy_status,
    dumps_instance,
    enumerate_pc_cycles,
    find_monochromatic_triangle,
    find_pc_triangle,
    has_pc_cycle,
    is_double_pentagon_k5,
    is_pc_cycle,
    is_pc_path,
    is_strongly_connected,
    lift_cycle,
    loads_instance,
    mpt_cycles_through,
    pc_hamilton_path,
    reduce_degenerate,
    side_conditions,
    stats,
    verify_gallai_partition,
)
from pcgraph.cycles import pc_quadrangle_search
from pcgraph.errors import (
    InvalidInstance,
    PCGraphError,
    PreconditionViolated,
    ResultMismatch,
    UnknownVertex,
)
from pcgraph.families import (
    GenSpec,
    example_directed,
    example_k5_double_pentagon,
    exhaustive_colorings,
    gallai_coloring,
    random_degenerate,
    random_fibers,
    random_no_mono_triangle,
)
from pcgraph.sweep import SweepConfig, run_sweep
from pcgraph.tournaments import is_directed_cycle
from pcgraph.trichotomy import validate_result

# Value records and enums: their constructors take any field values, or are
# Enum lookups, so they have no input contract of their own to drive.
RECORDS = {
    "AttachmentClass",
    "AttachmentKind",
    "ColorStats",
    "DegeneracyStatus",
    "DegeneracyTag",
    "SideConditionReport",
    "TrichotomyResult",
    "TrichotomyTag",
}

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Small values only: an int argument here is never large, so no call can
# allocate by it.
MALFORMED = st.one_of(
    st.sampled_from(
        [True, False, None, -1, -2, 1.0, 0.5, float("nan"), "0", "x", "", b"1",
         (), [], {}, [0], (0, 1), [[0]], {0: 1}, {0}, object()]
    ),
    st.floats(min_value=-100, max_value=100),
    st.integers(min_value=-1000, max_value=-1),
    st.text(max_size=4),
    st.lists(
        st.one_of(st.integers(-3, 12), st.booleans(), st.none(), st.text(max_size=1)), max_size=5
    ),
    st.tuples(st.one_of(st.integers(-3, 12), st.booleans()), st.floats(-3, 12)),
)


@functools.lru_cache(maxsize=None)
def pool():
    """Valid inputs, one per route: growth, orientation, (b), (c), Gallai."""
    growth = random_no_mono_triangle(8, 4, 0)
    degenerate, f = random_degenerate(8, random_fibers(8, 0), 0)
    gallai, parts = gallai_coloring(9, 1)
    return {
        "growth": growth,
        "degenerate": degenerate,
        "f": f,
        "directed": example_directed(6),
        "pentagon": example_k5_double_pentagon(),
        "gallai": gallai,
        "parts": parts,
        "t": random_tournament(5, 3),
        "mt": random_multipartite_tournament(6, 1),
    }


def _pc():
    return has_pc_cycle(pool()["growth"], 0, 5)


def _directed():
    p = pool()
    return mpt_cycles_through(reduce_degenerate(p["degenerate"], p["f"]), 0)[5]


def _at(seq, i, bad):
    return tuple(seq[:i]) + (bad,) + tuple(seq[i + 1 :])


def _parts():
    return list(pool()["parts"])


def _check_cert(S, f):
    return DegeneracyCertificate(S, f).check(pool()["directed"])


def _drain(it, most=3):
    return list(itertools.islice(it, most))


P = pool  # the cases read the pool lazily, at the call

# (public name, call with the malformed value in one argument)
CASES = [
    ("build", lambda b: build(b, [])),
    ("build", lambda b: build(3, b)),
    ("build", lambda b: build(3, [b, (0, 2, 1), (1, 2, 2)])),
    ("build", lambda b: build(3, [(b, 1, 1), (0, 2, 1), (1, 2, 2)])),
    ("build", lambda b: build(3, [(0, 1, b), (0, 2, 1), (1, 2, 2)])),
    ("loads_instance", lambda b: loads_instance(b)),
    ("loads_instance", lambda b: loads_instance(repr(b))),
    ("ColoredCompleteGraph", lambda b: P()["growth"].color(b, 1)),
    ("ColoredCompleteGraph", lambda b: P()["growth"].color(1, b)),
    ("is_pc_cycle", lambda b: is_pc_cycle(P()["growth"], b)),
    ("is_pc_cycle", lambda b: is_pc_cycle(P()["growth"], _at(_pc(), 1, b))),
    ("is_pc_path", lambda b: is_pc_path(P()["growth"], b)),
    ("is_pc_path", lambda b: is_pc_path(P()["growth"], (0, 1, b))),
    ("has_pc_cycle", lambda b: has_pc_cycle(P()["growth"], b, 4)),
    ("has_pc_cycle", lambda b: has_pc_cycle(P()["growth"], 0, b)),
    ("enumerate_pc_cycles", lambda b: enumerate_pc_cycles(P()["growth"], b, 4)),
    ("enumerate_pc_cycles", lambda b: enumerate_pc_cycles(P()["growth"], 0, b)),
    # a malformed vertex in a triangle, and in too short a cycle, where it is reported first
    ("classify_attachment", lambda b: classify_attachment(P()["growth"], (0, 1, b), 7)),
    ("classify_attachment", lambda b: classify_attachment(P()["growth"], (0, b), 7)),
    ("classify_attachment", lambda b: classify_attachment(P()["growth"], b, 7)),
    ("classify_attachment", lambda b: classify_attachment(P()["growth"], _at(_pc(), 2, b), 7)),
    ("classify_attachment", lambda b: classify_attachment(P()["growth"], _pc(), b)),
    ("closure_from_seed", lambda b: closure_from_seed(P()["growth"], b, 0)),
    ("closure_from_seed", lambda b: closure_from_seed(P()["directed"], 0, b)),
    ("classify", lambda b: classify(P()["growth"], b)),
    ("side_conditions", lambda b: side_conditions(P()["growth"], b)),
    ("verify_gallai_partition", lambda b: verify_gallai_partition(P()["gallai"], b)),
    ("verify_gallai_partition", lambda b: verify_gallai_partition(P()["gallai"], [b] + _parts())),
    ("verify_gallai_partition", lambda b: verify_gallai_partition(P()["gallai"], [[b], *_parts()])),
    ("DegeneracyCertificate", lambda b: _check_cert(b, {0: 1})),
    ("DegeneracyCertificate", lambda b: _check_cert(frozenset({0}), b)),
    ("DegeneracyCertificate", lambda b: _check_cert(frozenset({0, 1}), {0: 1, 1: b})),
    ("MultipartiteTournament", lambda b: MultipartiteTournament(b, [(0, 1)])),
    ("MultipartiteTournament", lambda b: MultipartiteTournament([(0,), (1,)], b)),
    ("MultipartiteTournament", lambda b: MultipartiteTournament([(0,), (1,)], [b])),
    ("MultipartiteTournament", lambda b: MultipartiteTournament([(0,), (1,)], [(b, 1)])),
    ("MultipartiteTournament", lambda b: MultipartiteTournament([(0,), (b,)], [(0, 1)])),
    ("MultipartiteTournament", lambda b: MultipartiteTournament.tournament(b, [])),
    ("MultipartiteTournament", lambda b: P()["t"].has_arc(b, 0)),
    ("MultipartiteTournament", lambda b: P()["t"].has_arc(0, b)),
    ("MultipartiteTournament", lambda b: P()["t"].out_neighbors(b)),
    ("cycles_through", lambda b: cycles_through(P()["t"], b)),
    ("mpt_cycles_through", lambda b: mpt_cycles_through(P()["mt"], b)),
    ("lift_cycle", lambda b: lift_cycle(P()["degenerate"], P()["f"], b)),
    ("lift_cycle", lambda b: lift_cycle(P()["degenerate"], b, _directed())),
    ("lift_cycle", lambda b: lift_cycle(P()["degenerate"], P()["f"], _at(_directed(), 1, b))),
    ("reduce_degenerate", lambda b: reduce_degenerate(P()["degenerate"], b)),
    ("reduce_degenerate", lambda b: reduce_degenerate(P()["degenerate"], {**P()["f"], 3: b})),
    # generators and the sweep: not exported, but public in their modules
    ("families", lambda b: random_no_mono_triangle(8, 4, b)),
    ("families", lambda b: random_no_mono_triangle(8, b, 0)),
    ("families", lambda b: random_degenerate(8, random_fibers(8, 0), b)),
    ("families", lambda b: random_degenerate(8, b, 0)),
    ("families", lambda b: random_degenerate(4, [(0,), (1,), (2,), (b,)], 0)),
    ("families", lambda b: gallai_coloring(9, b)),
    ("families", lambda b: random_fibers(8, b)),
    ("families", lambda b: _drain(exhaustive_colorings(6, sample=b))),
    ("families", lambda b: _drain(exhaustive_colorings(6, sample=3, seed=b))),
    ("families", lambda b: GenSpec("randomNoMono", n=8, k=4, seed=0, count=b)),
    ("families", lambda b: GenSpec("randomNoMono", n=b, k=4)),
    ("sweep", lambda b: run_sweep(SweepConfig(family="exhaustive", n=4, workers=b))),
]

# names whose every argument is a graph or digraph: driven with valid input only
GRAPH_ONLY = {
    "degeneracy_status",
    "dumps_instance",
    "find_monochromatic_triangle",
    "find_pc_triangle",
    "is_double_pentagon_k5",
    "is_strongly_connected",
    "pc_hamilton_path",
    "stats",
}


# Case ids number the rows in the order they were added.  The numbers of
# rows whose public name was deleted are not reused, so that every other id
# keeps its number: 9-11 (core.colors_between), 20 (find_pc_quadrangle) and
# 42 (MultipartiteTournament.from_json_dict).
RETIRED = {9, 10, 11, 20, 42}
NUMBERS = [i for i in range(len(CASES) + len(RETIRED)) if i not in RETIRED]


def test_every_public_name_is_driven():
    # equality, so that a deleted name leaves no stale CASES or GRAPH_ONLY entry
    driven = {name for name, _ in CASES} | GRAPH_ONLY | RECORDS
    assert driven - {"families", "sweep"} == set(pcgraph.__all__)


@pytest.mark.parametrize(
    "case", range(len(CASES)), ids=[f"{i}-{name}" for i, (name, _) in zip(NUMBERS, CASES)]
)
@SETTINGS
@given(bad=MALFORMED)
def test_only_package_errors_escape(case, bad):
    call = CASES[case][1]
    try:
        call(bad)
    except PCGraphError:
        pass


@SETTINGS
@given(bad=MALFORMED)
def test_validate_result_answers_false_for_a_result_of_another_shape(bad):
    g = pool()["growth"]
    assert validate_result(g, bad) is False
    with pytest.raises(ResultMismatch):
        side_conditions(g, bad)


def test_quoted_probes():
    g = random_no_mono_triangle(8, 4, 0)
    with pytest.raises(UnknownVertex, match="^vertex True not in 0..7$"):
        has_pc_cycle(g, True, 4)
    with pytest.raises(UnknownVertex):
        is_pc_cycle(g, (True, 0, 3, 5))
    for call in (
        lambda: is_pc_cycle(g, None),
        lambda: is_pc_path(g, 5),
    ):
        with pytest.raises(PreconditionViolated) as err:
            call()
        assert err.value.which == "vertices"
    assert validate_result(g, None) is False
    with pytest.raises(ResultMismatch):
        side_conditions(g, None)


def test_one_vertex_check_serves_graphs_and_digraphs():
    g = random_no_mono_triangle(8, 4, 0)
    t = random_tournament(5, 3)
    for call, n in (
        (lambda v: has_pc_cycle(g, v, 4), 8),
        (lambda v: g.color(v, 0), 8),
        (lambda v: t.has_arc(0, v), 5),
        (lambda v: t.out_neighbors(v), 5),
        (lambda v: cycles_through(t, v), 5),
    ):
        for v in (True, -1, n, 1.0):
            with pytest.raises(UnknownVertex) as err:
                call(v)
            # UnknownVertex is the PreconditionViolated named "vertex", unprefixed
            assert isinstance(err.value, PreconditionViolated)
            assert err.value.which == "vertex"
            assert str(err.value) == f"vertex {v!r} not in 0..{n - 1}"


def test_bools_are_no_vertices_endpoints_or_colors():
    good = [(0, 2, 1), (1, 2, 2)]
    with pytest.raises(UnknownVertex):
        build(3, [(0, True, 1)] + good)
    with pytest.raises(InvalidInstance):
        build(3, [(0, 1, True)] + good)
    # 1 first, then True: a set of colors would merge the two
    with pytest.raises(InvalidInstance):
        build(3, [(0, 1, 1), (0, 2, True), (1, 2, 2)])
    with pytest.raises(PreconditionViolated, match="^arcs: bad arc"):
        MultipartiteTournament([(0,), (1,)], [(False, 1)])
    directed = example_directed(6)
    with pytest.raises(PreconditionViolated, match="^color:"):
        closure_from_seed(directed, 0, True)
    res = classify(directed)
    assert validate_result(directed, res)
    forged = {v: True if c == 1 else c for v, c in res.certificate.f.items()}
    cert = DegeneracyCertificate(res.certificate.S, forged)
    assert 1 in res.certificate.f.values() and not cert.check(directed)
    assert not validate_result(directed, dataclasses.replace(res, certificate=cert))
    # a certificate holding a bool where its int belongs fails validation
    pentagon = example_k5_double_pentagon()
    res = classify(pentagon)
    assert validate_result(pentagon, res)
    for forged in (
        {v: True if w == 1 else w for v, w in res.relabel.items()},
        {True if v == 1 else v: w for v, w in res.relabel.items()},
    ):
        assert not validate_result(pentagon, dataclasses.replace(res, relabel=forged))
    g = random_no_mono_triangle(8, 4, 0)
    res = classify(g)
    assert validate_result(g, res)
    cover = res.cycles[8]
    forged = tuple(tuple(True if v == 1 else v for v in cyc) for cyc in cover)
    assert not validate_result(g, dataclasses.replace(res, cycles={**res.cycles, 8: forged}))


def test_generator_seeds_must_be_ints():
    # random.Random(None) would seed from the OS, so one call would give a
    # different graph each time
    for call in (
        lambda s: random_no_mono_triangle(8, 4, s),
        lambda s: random_degenerate(8, random_fibers(8, 0), s),
        lambda s: gallai_coloring(12, s),
        lambda s: random_fibers(10, s),
        lambda s: exhaustive_colorings(6, sample=2, seed=s),
    ):
        for seed in (None, True, 1.0, "0"):
            with pytest.raises(PreconditionViolated) as err:
                call(seed)
            assert err.value.which == "seed"
    assert random_no_mono_triangle(8, 4, 3) == random_no_mono_triangle(8, 4, 3)


def test_exhaustive_sample_is_checked_at_the_call():
    for sample in ("3", True, -2, 1.0):
        with pytest.raises(PreconditionViolated) as err:
            exhaustive_colorings(6, sample=sample)  # no instance asked for
        assert err.value.which == "sample"
    assert len(list(exhaustive_colorings(6, sample=0))) == 0
    assert len(list(exhaustive_colorings(6, sample=4))) == 4


@SETTINGS
@given(
    name=st.sampled_from(["growth", "degenerate", "directed", "pentagon", "gallai"]),
    data=st.data(),
)
def test_valid_input_gives_a_validated_answer(name, data):
    g = pool()[name]
    n = g.n
    v = data.draw(st.integers(0, n - 1), label="v")
    res = classify(g)
    assert validate_result(g, res)
    assert side_conditions(g, res) is not None
    assert loads_instance(dumps_instance(g)) == g
    assert stats(g).min_color_degree >= 1
    assert find_monochromatic_triangle(g) is None
    path = pc_hamilton_path(g)
    assert len(path) == n and is_pc_path(g, path)
    status = degeneracy_status(g)
    assert status.certificate is None or status.certificate.check(g)
    assert (is_double_pentagon_k5(g) is not None) == (res.tag is TrichotomyTag.EXCEPTIONAL_K5)
    if find_pc_triangle(g) is not None:
        assert len(set(find_pc_triangle(g))) == 3
    length = data.draw(st.integers(3, n), label="length")
    cyc = has_pc_cycle(g, v, length)
    if cyc is not None:
        assert v in cyc and len(cyc) == length and is_pc_cycle(g, cyc)
    for found in enumerate_pc_cycles(g, v, 4):
        assert v in found and is_pc_cycle(g, found)
    seed = closure_from_seed(g, v, g.color(v, 1 if v == 0 else 0))
    assert seed is None or seed.check(g)
    if status.tag is DegeneracyTag.NON_DEGENERATE:
        # guaranteed: g is non-degenerate and has no monochromatic triangle
        quad = pc_quadrangle_search(g, v)
        assert quad is not None
        assert v in quad and len(quad) == 4 and is_pc_cycle(g, quad)
    if res.tag is TrichotomyTag.PANCYCLIC and n >= 6:
        base = res.cycles[n - 1][0]
        (out,) = set(range(n)) - set(base)
        got = classify_attachment(g, base, out)
        assert isinstance(got, AttachmentClass)
        if got.kind is AttachmentKind.EXTENDABLE:
            assert len(got.cycle) == n and is_pc_cycle(g, got.cycle)


@SETTINGS
@given(data=st.data())
def test_valid_digraph_input_gives_a_validated_answer(data):
    p = pool()
    t, mt = p["t"], p["mt"]
    v = data.draw(st.integers(0, t.n - 1), label="v")
    assert is_strongly_connected(t)
    for ln, cyc in cycles_through(t, v).items():
        assert len(cyc) == ln and v in cyc and is_directed_cycle(t, cyc)
    w = data.draw(st.integers(0, mt.n - 1), label="w")
    for ln, cyc in mpt_cycles_through(mt, w).items():
        assert len(cyc) == ln and w in cyc and is_directed_cycle(mt, cyc)
    g, f = p["degenerate"], p["f"]
    oriented = reduce_degenerate(g, f)
    u = data.draw(st.integers(0, g.n - 1), label="u")
    for cyc in mpt_cycles_through(oriented, u).values():
        assert is_pc_cycle(g, lift_cycle(g, f, cyc))
    assert verify_gallai_partition(p["gallai"], p["parts"])
