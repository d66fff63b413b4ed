import collections
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgraph import build, loads_instance, stats
from pcgraph.core import ColorStats, dumps_instance, from_instance_dict
from pcgraph.errors import (
    DuplicateEdge,
    InvalidInstance,
    MissingEdge,
    PreconditionViolated,
    SelfLoop,
    TooSmall,
)
from pcgraph.families import GenSpec, exhaustive_colorings, generate


def test_public_exports_resolve():
    import pcgraph

    namespace = {}
    exec("from pcgraph import *", namespace)
    assert len(set(pcgraph.__all__)) == len(pcgraph.__all__)
    assert all(name in namespace for name in pcgraph.__all__)


def test_build_double_pentagon_palette(double_pentagon):
    assert double_pentagon.palette == {1, 2}
    assert double_pentagon.color(0, 1) == 1
    assert double_pentagon.color(0, 2) == 2
    assert double_pentagon.color(1, 0) == 1  # symmetric


def test_build_single_edge():
    g = build(2, [(0, 1, 7)])
    assert g.palette == {7}
    assert g.color(0, 1) == 7


def test_build_missing_edge():
    with pytest.raises(MissingEdge, match=r"\(0,2\)"):
        build(3, [(0, 1, 1), (1, 2, 1)])


def test_build_duplicate_and_self_loop():
    with pytest.raises(DuplicateEdge):
        build(2, [(0, 1, 1), (1, 0, 2)])
    with pytest.raises(SelfLoop):
        build(2, [(0, 0, 1)])


def test_build_rejects_malformed_entries():
    # an entry that is no triple, an unhashable color, and colors that are
    # not all integers (a str beside an int once failed in sorted())
    good = [(0, 2, 1), (1, 2, 2)]
    for bad in ((0, 1), 5, (0, 1, [1]), (0, 1, "x"), (0, 1, 1.5)):
        with pytest.raises(InvalidInstance):
            build(3, [bad] + good)
    with pytest.raises(InvalidInstance):
        build(3, 5)


def test_build_rejects_a_non_int_order():
    # an order that is no int is named before any comparison with it
    for n in ("3", None, 2.0):
        with pytest.raises(PreconditionViolated) as err:
            build(n, [])
        assert err.value.which == "n"
    with pytest.raises(TooSmall, match="need n >= 1, got 0"):
        build(0, [])


def test_build_rejects_a_bool_order():
    # a bool is an int to isinstance, but no order, as from_instance_dict says
    for n in (True, False):
        with pytest.raises(PreconditionViolated) as err:
            build(n, [])
        assert err.value.which == "n"


def test_stats_double_pentagon(double_pentagon):
    s = stats(double_pentagon)
    assert s.color_degrees == (2, 2, 2, 2, 2)
    assert s.min_color_degree == 2
    assert s.max_mono_degree == 2


def test_stats_rainbow_k4(rainbow_k4):
    s = stats(rainbow_k4)
    assert s.color_degrees == (3, 3, 3, 3)
    assert s.min_color_degree == 3
    assert s.max_mono_degree == 1


def test_stats_mono_k3(mono_k3):
    s = stats(mono_k3)
    assert s.color_degrees == (1, 1, 1)
    assert s.min_color_degree == 1
    assert s.max_mono_degree == 2


def test_stats_too_small():
    with pytest.raises(TooSmall):
        stats(build(1, []))


def _reference_stats(g):
    # one color lookup per ordered pair, with the diagonal skipped by test
    degrees = []
    max_mono = 0
    for u in range(g.n):
        counts = collections.Counter(g.color(u, v) for v in range(g.n) if v != u)
        degrees.append(len(counts))
        max_mono = max(max_mono, max(counts.values()))
    return ColorStats(tuple(degrees), min(degrees), max_mono)


def test_stats_matches_the_per_pair_reference(double_pentagon, rainbow_k4, mono_k3):
    graphs = [double_pentagon, rainbow_k4, mono_k3, build(2, [(0, 1, 7)])]
    for family in ("randomDegenerate", "gallai"):
        graphs += generate(GenSpec(family, n=64, seed=0, count=10))
    # every K5 coloring up to color renaming, monochromatic triangles included
    graphs = itertools.chain(graphs, exhaustive_colorings(5))
    checked = 0
    for g in graphs:
        assert stats(g) == _reference_stats(g)
        checked += 1
    assert checked == 4 + 20 + 115_975


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_build_symmetry_and_palette(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    colors = data.draw(
        st.lists(
            st.integers(min_value=-50, max_value=50),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    pairs = list(itertools.combinations(range(n), 2))
    g = build(n, [(u, v, c) for (u, v), c in zip(pairs, colors)])
    assert g.palette == set(colors)
    for u, v in pairs:
        assert g.color(u, v) == g.color(v, u)
    s = stats(g)
    assert all(1 <= d <= min(n - 1, len(g.palette)) for d in s.color_degrees)
    assert sum(s.color_degrees) >= len(g.palette)


def test_instance_json_roundtrip(directed_example):
    text = dumps_instance(directed_example)
    again = loads_instance(text)
    assert again == directed_example


@pytest.mark.parametrize(
    "payload",
    [
        "[]",
        '{"n": 3}',
        '{"n": 3, "edges": [[0,1,1],[0,2,1]], "extra": 1}',
        '{"n": 3, "edges": [[0,1,1],[0,2,1]]}',
        '{"n": 3, "edges": [[0,1,1],[0,2,1],[1,2]]}',
        '{"n": 3, "edges": [[0,1,1],[0,2,1],[1,2,"x"]]}',
        '{"n": true, "edges": []}',
        "not json",
        pytest.param("[" * 100000, id="deeply-nested"),
    ],
)
def test_loader_rejects(payload):
    with pytest.raises(InvalidInstance):
        loads_instance(payload)


def test_loader_rejects_bad_pairs():
    data = {"n": 3, "edges": [[0, 1, 1], [0, 1, 2], [1, 2, 1]]}
    with pytest.raises(DuplicateEdge):
        from_instance_dict(data)


def test_instance_json_is_deterministic(double_pentagon):
    a = dumps_instance(double_pentagon)
    b = dumps_instance(double_pentagon)
    assert a == b
    assert json.loads(a)["n"] == 5
