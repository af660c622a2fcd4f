"""Automorphism groups, orbit partitions of edge pairs, and pattern reduction.

Payoff aggregation per pair orbit is sound because an optimal pair-player
strategy can be taken constant on orbits; for complete multipartite graphs the
same averaging argument applied to the part-preserving subgroup reduces the
ordering player to one canonical ordering per part-label pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .graphs import Graph, nonincident_pairs
from .separation import Ordering


class SymmetryCapExceeded(RuntimeError):
    """Automorphism search over the configured size cap."""


AUTOMORPHISM_N_CAP = 20
AUTOMORPHISM_ORDER_CAP = 10 ** 6


@dataclass
class AutomorphismGroup:
    """Vertex permutations mapping E(G) onto itself, every element listed."""

    elements: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _vertex_invariants(g: Graph):
    return [
        (g.degree(v), tuple(sorted(g.degree(w) for w in g.adjacency[v])))
        for v in range(g.n)
    ]


def _search_maps(g: Graph, h: Graph, limit=None, first_only=False):
    """Backtracking search for edge-preserving bijections g -> h.

    Candidate images are filtered by (degree, sorted neighbor-degree multiset)
    and tried in that order.  Vertices are placed in a static greedy order
    (most placed neighbours first), so each new vertex's adjacency to the
    placed ones prunes early; correctness is what matters, speed is
    best-effort.
    """
    n = g.n
    inv_g = _vertex_invariants(g)
    inv_h = _vertex_invariants(h)
    if sorted(inv_g) != sorted(inv_h):
        return []
    candidates = {
        v: sorted(
            (w for w in range(n) if inv_h[w] == inv_g[v]),
            key=lambda w: (-h.degree(w), inv_h[w], w),
        )
        for v in range(n)
    }
    # Place next the vertex with the most placed neighbours, whose image
    # the adjacency test then pins down; ties go to the most constrained.
    # A dense graph is read through its complement, which has the same
    # automorphisms.
    freq = {}
    for v in range(n):
        freq[inv_g[v]] = freq.get(inv_g[v], 0) + 1
    tie = [(freq[inv_g[v]], -g.degree(v), v) for v in range(n)]
    dense = 4 * len(g.edges) > n * (n - 1)
    links = [0] * n
    left = set(range(n))
    order = []
    while left:
        v = min(left, key=lambda u: (-links[u], tie[u]))
        left.remove(v)
        order.append(v)
        for w in left:
            if (w in g.adjacency[v]) != dense:
                links[w] += 1

    mapping = [-1] * n
    used = [False] * n
    out = []
    adj_g = g.adjacency
    adj_h = h.adjacency

    def rec(i):
        if i == n:
            out.append(tuple(mapping))
            if limit is not None and len(out) > limit:
                raise SymmetryCapExceeded(
                    f"automorphism group larger than the cap of {limit}"
                )
            return len(out) == 1 and first_only
        v = order[i]
        for w in candidates[v]:
            if used[w]:
                continue
            ok = True
            for u in order[:i]:
                if (u in adj_g[v]) != (mapping[u] in adj_h[w]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if rec(i + 1):
                return True
            used[w] = False
            mapping[v] = -1
        return False

    rec(0)
    return out


def automorphisms(g: Graph) -> AutomorphismGroup:
    """Full automorphism group by backtracking with invariant pruning."""
    if g.n > AUTOMORPHISM_N_CAP:
        raise SymmetryCapExceeded(
            f"automorphism search is capped at n <= {AUTOMORPHISM_N_CAP} "
            f"(graph has n={g.n})"
        )
    return AutomorphismGroup(
        tuple(sorted(_search_maps(g, g, limit=AUTOMORPHISM_ORDER_CAP)))
    )


def find_isomorphism(g: Graph, h: Graph):
    """A vertex bijection carrying E(g) onto E(h), or None."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return None
    maps = _search_maps(g, h, first_only=True)
    return maps[0] if maps else None


@dataclass
class OrbitPartition:
    """Orbits of the nonincident pairs under the automorphism group."""

    pairs: list
    classes: list[list[int]]

    @property
    def sizes(self):
        return [len(c) for c in self.classes]


def _apply_to_pair(perm, pair):
    (a, b), (c, d) = pair
    e1 = (min(perm[a], perm[b]), max(perm[a], perm[b]))
    e2 = (min(perm[c], perm[d]), max(perm[c], perm[d]))
    return (e1, e2) if e1 < e2 else (e2, e1)


def pair_orbits(g: Graph, aut: AutomorphismGroup) -> OrbitPartition:
    """Partition nonincident pairs into orbits, ordered by least pair index.

    The orbit of a pair is its image under every group element.  Only the
    images of edge ends matter, so elements that differ only on isolated
    vertices are applied once.
    """
    pairs = nonincident_pairs(g)
    if not pairs:
        return OrbitPartition(pairs, [])
    index = {p: i for i, p in enumerate(pairs)}
    ends = [v for v in range(g.n) if g.adjacency[v]]
    at = {v: i for i, v in enumerate(ends)}
    actions = set(map(itemgetter(*ends), aut.elements))
    seen = [False] * len(pairs)
    classes = []
    for start, pair in enumerate(pairs):
        if seen[start]:
            continue
        local = tuple(tuple(at[v] for v in edge) for edge in pair)
        orbit = sorted({index[_apply_to_pair(act, local)] for act in actions})
        for i in orbit:
            seen[i] = True
        classes.append(orbit)
    return OrbitPartition(pairs, classes)


# ---------------------------------------------------------------------------
# Complete multipartite pattern reduction
# ---------------------------------------------------------------------------

def part_letter(i: int) -> str:
    return chr(ord("A") + i)


def _label_sequences(counts, cur, total):
    """Every sequence with ``counts[lbl]`` copies of each label, in lex order.

    Module level, not a closure that refers to itself: such a closure leaves
    a reference cycle holding the caller's pattern list until the cyclic
    collector runs.
    """
    if len(cur) == total:
        yield tuple(cur)
        return
    for lbl in range(len(counts)):
        if counts[lbl]:
            counts[lbl] -= 1
            cur.append(lbl)
            yield from _label_sequences(counts, cur, total)
            cur.pop()
            counts[lbl] += 1


def multipartite_patterns(g: Graph):
    """All distinct part-label sequences with the parts' multiplicities, in
    lex order.

    Each pattern stands for one orbit of linear orderings under
    part-preserving automorphisms, via the canonical within-part vertex
    assignment.
    """
    if g.parts is None:
        raise ValueError("pattern reduction requires a graph with parts")
    counts = [len(p) for p in g.parts]
    return list(_label_sequences(counts, [], sum(counts)))


def pattern_sequence(g: Graph, pattern) -> tuple[int, ...]:
    """Canonical vertex sequence for a pattern: within each part, vertices
    are used in increasing label order."""
    iters = [iter(p) for p in g.parts]
    return tuple(next(iters[lbl]) for lbl in pattern)


def pattern_ordering(g: Graph, pattern, mode: str = "linear") -> Ordering:
    """Canonical ordering for a pattern (``pattern_sequence``)."""
    return Ordering(mode, pattern_sequence(g, pattern))


def signature_classes(g: Graph):
    """Partition pairs by part signature: the unordered pair of the two
    edges' part-label pairs.  These are exactly the orbits under the
    part-preserving automorphism subgroup.

    Returns (classes, labels) with deterministic ordering.
    """
    if g.parts is None:
        raise ValueError("signature classes require a graph with parts")
    part_of = g.part_of
    pairs = nonincident_pairs(g)
    buckets = {}
    for i, ((a, b), (c, d)) in enumerate(pairs):
        s1 = tuple(sorted((part_of[a], part_of[b])))
        s2 = tuple(sorted((part_of[c], part_of[d])))
        sig = tuple(sorted((s1, s2)))
        buckets.setdefault(sig, []).append(i)
    classes = []
    labels = []
    for sig in sorted(buckets):
        classes.append(buckets[sig])
        (p1, p2), (p3, p4) = sig
        labels.append(
            f"{part_letter(p1)}{part_letter(p2)}|{part_letter(p3)}{part_letter(p4)}"
        )
    return classes, labels
