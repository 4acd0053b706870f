"""Graph algorithms supporting Algorithm 1: DFS reachability and
feedback-loop removal.

Both run on a successor map ``{node: [successor, ...]}`` that lists
every node as a key.  Algorithm 1 Line 3 "removes feedback loops to make
signal/energy flows directed": G_CPPS must be a DAG before flow-pair
extraction so that "head of F2 reachable from tail of F1" expresses
causal ordering.  We break cycles by dropping the back edges of one
deterministic DFS, which matches the paper's intent without needing the
(NP-hard) minimum feedback arc set.
"""

from __future__ import annotations

from repro.errors import ArchitectureError


def dfs_reachable(graph: dict, source: str) -> set:
    """All nodes reachable from *source* by directed paths (including it)."""
    if source not in graph:
        raise ArchitectureError(f"node {source!r} not in graph")
    seen = {source}
    stack = [source]
    while stack:
        node = stack.pop()
        for nxt in graph[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def remove_feedback_edges(graph: dict) -> tuple:
    """Return ``(dag, removed_edges)`` with cycles broken deterministically.

    One depth-first search visits the nodes, and each node's distinct
    successors, in sorted order; every back edge it meets (an edge into
    a node still on the DFS path) is removed, which leaves the graph
    acyclic.  *removed_edges* lists them as ``(source, target)`` tuples
    in the order found.  The input map is not modified.
    """
    dag = {node: sorted(set(succ)) for node, succ in graph.items()}
    removed = []
    on_path, done = set(), set()
    for root in sorted(dag):
        if root in done:
            continue
        on_path.add(root)
        stack = [(root, iter(list(dag[root])))]
        while stack:
            node, successors = stack[-1]
            nxt = next(successors, None)
            if nxt is None:
                stack.pop()
                on_path.discard(node)
                done.add(node)
            elif nxt in on_path:
                dag[node].remove(nxt)
                removed.append((node, nxt))
            elif nxt not in done:
                on_path.add(nxt)
                stack.append((nxt, iter(list(dag[nxt]))))
    return dag, removed
