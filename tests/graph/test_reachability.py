"""Tests for repro.graph.reachability."""

import pytest

from repro.errors import ArchitectureError
from repro.graph.reachability import dfs_reachable, remove_feedback_edges


def successor_map(edges):
    """Successor map of *edges*, every endpoint a key."""
    graph = {}
    for a, b in edges:
        graph.setdefault(a, []).append(b)
        graph.setdefault(b, [])
    return graph


def chain(*nodes):
    return successor_map(zip(nodes, nodes[1:]))


def edge_set(graph):
    return {(a, b) for a, succ in graph.items() for b in succ}


def assert_acyclic(dag):
    """Kahn's algorithm consumes every node only if *dag* has no cycle."""
    indegree = {node: 0 for node in dag}
    for succ in dag.values():
        for nxt in succ:
            indegree[nxt] += 1
    ready = [node for node, d in indegree.items() if d == 0]
    consumed = 0
    while ready:
        consumed += 1
        for nxt in dag[ready.pop()]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    assert consumed == len(dag), dag


class TestReachability:
    def test_chain(self):
        g = chain("a", "b", "c")
        assert dfs_reachable(g, "a") == {"a", "b", "c"}
        assert dfs_reachable(g, "c") == {"c"}

    def test_unknown_node(self):
        g = chain("a", "b")
        with pytest.raises(ArchitectureError):
            dfs_reachable(g, "zz")

    def test_branching(self):
        g = successor_map([("a", "b"), ("a", "c"), ("c", "d")])
        assert dfs_reachable(g, "a") == {"a", "b", "c", "d"}


class TestFeedbackRemoval:
    def test_acyclic_unchanged(self):
        g = chain("a", "b", "c")
        dag, removed = remove_feedback_edges(g)
        assert removed == []
        assert edge_set(dag) == edge_set(g)

    def test_simple_cycle_broken(self):
        g = successor_map([("a", "b"), ("b", "a")])
        dag, removed = remove_feedback_edges(g)
        assert removed == [("b", "a")]
        assert edge_set(dag) == {("a", "b")}
        assert_acyclic(dag)

    def test_three_cycle_broken(self):
        g = successor_map([("a", "b"), ("b", "c"), ("c", "a")])
        dag, removed = remove_feedback_edges(g)
        assert removed == [("c", "a")]
        assert_acyclic(dag)

    def test_input_not_modified(self):
        g = successor_map([("a", "b"), ("b", "a")])
        remove_feedback_edges(g)
        assert g == {"a": ["b"], "b": ["a"]}

    def test_multiple_cycles(self):
        g = successor_map(
            [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "b")]
        )
        dag, removed = remove_feedback_edges(g)
        assert removed == [("b", "a"), ("d", "b")]
        assert_acyclic(dag)

    def test_parallel_edges_collapse(self):
        dag, removed = remove_feedback_edges({"a": ["b", "b"], "b": []})
        assert removed == []
        assert dag == {"a": ["b"], "b": []}

    def test_deterministic(self):
        g = successor_map([("a", "b"), ("b", "c"), ("c", "a")])
        _, removed1 = remove_feedback_edges(g)
        _, removed2 = remove_feedback_edges(g)
        assert removed1 == removed2
