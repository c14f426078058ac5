"""Union-find with deterministic min-id roots.

The reference ships a rank-based union-find (utils/union_find.py:6-81) whose
roots are arbitrary; its MinHash pipeline separately remaps every component to
its minimum member id (minhash.py:67-77). We fold the two together:
``union by minimum id`` makes the root of every component its smallest member,
which (a) matches the reference's published cluster-representative convention
and (b) is order-independent — essential for a distributed reduction whose
input edge order depends on task scheduling.

Also provides the vectorized kernel behind every path of stages/cc.py:
``component_min_labels`` labels each node of an edge array with its component
minimum, and ``reduce_edges`` collapses an edge array to its spanning star
(node -> component-min) edges. The package runs only the kernel; the class
stays as the plain reference the tests compare it against.
"""

from __future__ import annotations

import numpy as np


class UnionFind:
    """Path-compressing union-find; root is always the minimum member id."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self.parent
        if x not in parent:
            parent[x] = x
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if rx < ry:
            self.parent[ry] = rx
        else:
            self.parent[rx] = ry

    def get_clusters(self) -> dict[int, int]:
        return {x: self.find(x) for x in self.parent}

    def non_trivial_clusters(self) -> dict[int, int]:
        """Only members whose root differs from themselves (the duplicate map)."""
        return {x: r for x in self.parent if (r := self.find(x)) != x}


def component_min_labels(src, dst) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of an edge list as ``(nodes, roots)``: every
    distinct node (sorted) and the minimum node of its component.

    Vectorized hook-and-compress: node values are factorized to dense ids
    (``np.unique`` sorts, so the smallest dense id is the smallest value);
    each round hooks every root onto the smallest root it shares an edge
    with (``np.minimum.at``), pointer-jumps the forest flat, and keeps only
    the edges that still join two different roots, rewritten onto those
    roots. A root with a neighbouring root either hooks or has all its
    neighbours hook, so the number of roots a component spans at least halves
    per round: O(log n) rounds, each O(edges left + nodes).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    nodes, dense = np.unique(np.concatenate([src, dst]), return_inverse=True)
    parent = np.arange(len(nodes))
    a, b = dense[: len(src)], dense[len(src) :]
    while True:
        cross = a != b
        a, b = a[cross], b[cross]
        if not len(a):
            break
        np.minimum.at(parent, np.concatenate([a, b]), np.concatenate([b, a]))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        a, b = parent[a], parent[b]
    return nodes, nodes[parent]


def reduce_edges(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse an edge list to star edges (member -> component min) of the
    components *within this edge set*.

    Output has one edge per non-root member, so a block of E edges reduces to
    at most ``distinct_nodes - n_components`` edges — the fold step of
    stages/cc.py.
    """
    nodes, roots = component_min_labels(src, dst)
    keep = nodes != roots
    return nodes[keep], roots[keep]
