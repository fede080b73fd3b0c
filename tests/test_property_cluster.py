"""Property tests for cluster allocation and the DSL translation layer."""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, ClusterTopology
from repro.query.ast import (
    AndNode,
    BetweenPredicate,
    ComparisonPredicate,
    NotNode,
    OrNode,
    width,
)
from repro.query.dsl import to_dsl


@settings(max_examples=40, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=16),
    shards_per_node=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=100),
)
def test_property_allocation_balanced_and_separated(num_nodes, shards_per_node, seed):
    """For any topology: primaries balanced within ±1 of the mean, and no
    replica ever shares a node with its primary."""
    num_shards = num_nodes * shards_per_node
    cluster = Cluster(
        ClusterTopology(num_nodes=num_nodes, num_shards=num_shards, seed=seed)
    )
    counts = [len(node.shard_ids) for node in cluster.nodes]
    assert max(counts) - min(counts) <= 1
    for shard in cluster.shards:
        for replica in cluster.replicas[shard.shard_id]:
            assert replica.node_id != shard.node_id


@settings(max_examples=40, deadline=None)
@given(
    num_nodes=st.integers(min_value=3, max_value=8),
    failures=st.lists(st.integers(min_value=0, max_value=7), max_size=3),
)
def test_property_master_election_survives_failures(num_nodes, failures):
    """As long as one node lives, there is always exactly one live master."""
    cluster = Cluster(
        ClusterTopology(num_nodes=num_nodes, num_shards=num_nodes * 2)
    )
    for node_id in failures:
        if node_id >= num_nodes:
            continue
        live = [n for n in cluster.nodes if n.alive]
        if len(live) <= 1:
            break
        if cluster.nodes[node_id].alive:
            cluster.fail_node(node_id)
        masters = [n for n in cluster.nodes if n.is_master and n.alive]
        assert len(masters) == 1


# -- DSL translation properties -----------------------------------------------------

_leaves = st.one_of(
    st.builds(
        ComparisonPredicate,
        st.sampled_from(["a", "b"]),
        st.sampled_from(["=", "<", ">="]),
        st.integers(0, 9),
    ),
    st.builds(
        lambda lo, hi: BetweenPredicate("c", min(lo, hi), max(lo, hi)),
        st.integers(0, 9),
        st.integers(0, 9),
    ),
)

_trees = st.recursive(
    _leaves,
    lambda child: st.one_of(
        st.builds(lambda x, y: AndNode((x, y)), child, child),
        st.builds(lambda x, y: OrNode((x, y)), child, child),
        st.builds(NotNode, child),
    ),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(tree=_trees)
def test_property_dsl_leaf_count_matches_tree_width(tree):
    """Every predicate leaf maps to exactly one non-bool DSL node, except
    '!=' which wraps its term in a bool must_not (still one leaf)."""
    dsl = to_dsl(tree)
    assert dsl.leaf_count() == width(tree)


@settings(max_examples=60, deadline=None)
@given(tree=_trees)
def test_property_dsl_json_serializable(tree):
    """The DSL must render to real JSON — it is the wire format."""
    payload = to_dsl(tree).to_json()
    text = json.dumps(payload)
    assert json.loads(text) == payload
