"""Property tests: PHAST tree planes are bit-identical to CSR tree rows.

The ch backend's hierarchy-native tree path rests on one claim, the same
claim every other tree producer honours: a row the
:class:`~repro.roadnet.routing.PHASTTreeProvider` returns -- single source
or batched plane, NumPy path or pure-Python path -- is the **same float
array** :meth:`CSRGraph.tree` computes for that source.  The batched
dispatch pipeline's byte-identical-outcomes guarantee across ``--routing``
and ``--tree-provider`` ablations rests on it, so everything here asserts
with ``==``, never ``isclose``.

Jitter strategies exclude the ulp-degenerate regime (see
``test_ch_equivalence._jitters``): the refolding contract holds on networks
with unique shortest paths or exact-arithmetic ties, which is every real
network and every benchmark generator -- but not a grid whose weights were
jittered by machine epsilon.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.roadnet import routing
from repro.roadnet.generators import (
    arterial_grid_network,
    grid_network,
    random_geometric_network,
)
from repro.roadnet.routing import (
    CHEngine,
    CSREngine,
    CSRGraph,
    ContractionHierarchy,
    PHASTTreeProvider,
)

HAVE_NUMPY = routing._np is not None  # noqa: SLF001


def _jitters(max_value):
    """Jitter inside the bit-identity contract: zero, or far above ulps."""
    return st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=max_value))


def _sample_indices(graph, seed, count):
    step = max(1, len(graph) // count)
    return list(range(seed % step, len(graph), step))


@st.composite
def networks(draw):
    """Grids, arterial grids and (possibly disconnected) geometric nets."""
    kind = draw(st.sampled_from(["grid", "arterial", "geometric"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if kind == "grid":
        return (
            grid_network(
                draw(st.integers(min_value=2, max_value=7)),
                draw(st.integers(min_value=2, max_value=7)),
                weight_jitter=draw(_jitters(1.0)),
                seed=seed,
            ),
            seed,
        )
    if kind == "arterial":
        return (
            arterial_grid_network(
                draw(st.integers(min_value=3, max_value=7)),
                draw(st.integers(min_value=3, max_value=7)),
                weight_jitter=draw(_jitters(0.6)),
                arterial_every=draw(st.integers(min_value=2, max_value=4)),
                seed=seed,
            ),
            seed,
        )
    return (
        random_geometric_network(
            draw(st.integers(min_value=5, max_value=30)),
            radius=draw(st.floats(min_value=0.15, max_value=0.5)),
            seed=seed,
        ),
        seed,
    )


@pytest.mark.skipif(not HAVE_NUMPY, reason="exercises the NumPy sweep path")
@given(networks())
@settings(max_examples=40, deadline=None)
def test_numpy_phast_planes_bit_identical_to_csr_rows(case):
    network, seed = case
    graph = CSRGraph(network)
    hierarchy = ContractionHierarchy.build(graph)
    provider = PHASTTreeProvider(graph, hierarchy)
    indices = _sample_indices(graph, seed, count=5)
    plane = provider.trees(indices)
    for position, index in enumerate(indices):
        # Bit-identical, not approximately equal -- including inf placement
        # for unreachable vertices on disconnected geometric networks.
        assert list(plane[position]) == list(graph.tree(index))
    single = provider.tree(indices[0])
    assert list(single) == list(graph.tree(indices[0]))


@given(networks())
@settings(max_examples=25, deadline=None)
def test_pure_python_phast_bit_identical_to_python_dijkstra(case):
    network, seed = case
    graph = CSRGraph(network)
    hierarchy = ContractionHierarchy.build(graph)
    provider = PHASTTreeProvider(graph, hierarchy)
    reference = CSRGraph(network)
    reference.matrix = None  # force the pure-Python Dijkstra rows
    for index in _sample_indices(graph, seed, count=4):
        assert provider._tree_python(index) == [  # noqa: SLF001
            float(value) for value in reference.tree(index)
        ]


@given(networks())
@settings(max_examples=20, deadline=None)
def test_phast_engine_trees_match_csr_engine(case):
    """End to end through the engine seam: distances_from and prefetch."""
    network, seed = case
    ch = CHEngine(network, tree_provider="phast")
    csr = CSREngine(network)
    vertices = network.vertices()
    step = max(1, len(vertices) // 5)
    sources = vertices[seed % step :: step]

    views = ch.prefetch_trees(sources)
    assert set(views) == set(sources)
    for source in sources:
        fresh = csr.distances_from(source)
        view = views[source]
        assert set(view) == set(fresh)
        assert {v: view[v] for v in view} == {v: fresh[v] for v in fresh}

    assert ch.stats.phast_sweeps == len(set(sources))
    assert ch.stats.dijkstra_runs == 0


@given(networks())
@settings(max_examples=15, deadline=None)
def test_phast_point_distances_match_csr_engine(case):
    """The tree LRU now holds PHAST rows; point reads must stay identical."""
    network, seed = case
    ch = CHEngine(network, tree_provider="phast")
    csr = CSREngine(network)
    vertices = network.vertices()
    step = max(1, len(vertices) // 4)
    sample = vertices[seed % step :: step]
    from repro.errors import DisconnectedError

    for u in sample:
        ch.distances_from(u)  # pin a PHAST row into the LRU
        for v in sample:
            try:
                expected = csr.distance(u, v)
            except DisconnectedError:
                expected = None
            try:
                actual = ch.distance(u, v)
            except DisconnectedError:
                actual = None
            assert actual == expected
