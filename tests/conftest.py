"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from itertools import product

import sepdim as sd


def random_graph(n: int, p: float, rng: random.Random) -> sd.Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return sd.graph_from_edges(n, edges)


def multipartite_shapes(n_max: int):
    """Every bipartite and tripartite shape with n <= n_max, then a few
    shapes with four and five parts."""
    return [(a, n - a) for n in range(2, n_max + 1) for a in range(1, n // 2 + 1)] + [
        (a, b, n - a - b)
        for n in range(3, n_max + 1)
        for a in range(1, n // 3 + 1)
        for b in range(a, (n - a) // 2 + 1)
    ] + [(1, 1, 1, 1), (1, 1, 2, 2), (2, 2, 2, 2), (1, 2, 2, 3), (1, 1, 1, 1, 1)]


def prufer_tree(seq, n) -> sd.Graph:
    import heapq

    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return sd.graph_from_edges(n, edges)


def _encode_rooted(g, u, parent):
    kids = sorted(_encode_rooted(g, w, u) for w in g.adjacency[u] if w != parent)
    return "(" + "".join(kids) + ")"


def tree_certificate(g: sd.Graph) -> str:
    """Isomorphism-invariant encoding of a tree (min over all roots)."""
    return min(_encode_rooted(g, r, -1) for r in range(g.n))


def all_trees_up_to(n_max: int):
    """One representative per isomorphism class of trees with 4 <= n <= n_max."""
    out = []
    seen = set()
    for n in range(4, n_max + 1):
        for seq in product(range(n), repeat=n - 2):
            t = prufer_tree(list(seq), n)
            key = (n, tree_certificate(t))
            if key not in seen:
                seen.add(key)
                out.append(t)
    return out


def fan(n: int) -> sd.Graph:
    """Maximal outerplanar fan: hub 0 joined to the path 1..n-1."""
    edges = [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)]
    return sd.graph_from_edges(n, edges)


def zigzag_triangulation(n: int) -> sd.Graph:
    """Maximal outerplanar serpentine triangulation of an n-gon."""
    order = [0]
    lo, hi = 1, n - 1
    while lo <= hi:
        order.append(lo)
        lo += 1
        if lo <= hi:
            order.append(hi)
            hi -= 1
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    for i in range(n - 2):
        a, b = order[i], order[i + 2]
        edges.add((min(a, b), max(a, b)))
    return sd.graph_from_edges(n, sorted(edges))
