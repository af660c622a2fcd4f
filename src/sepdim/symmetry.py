"""Automorphism groups, orbit partitions of edge pairs, and pattern reduction.

Payoff aggregation per pair orbit is sound because an optimal pair-player
strategy can be taken constant on orbits; for complete multipartite graphs the
same averaging argument applied to the part-preserving subgroup reduces the
ordering player to one canonical ordering per part-label pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, nonincident_pairs
from .separation import Ordering


class SymmetryCapExceeded(RuntimeError):
    """Automorphism search over the configured size cap."""


AUTOMORPHISM_N_CAP = 20
AUTOMORPHISM_ORDER_CAP = 10 ** 6


@dataclass
class AutomorphismGroup:
    """Vertex permutations mapping E(G) onto itself.

    ``elements`` is the full group; ``generators`` is a small subset whose
    closure is the group (verified by closure enumeration).
    """

    generators: list[tuple[int, ...]]
    order: int
    elements: tuple[tuple[int, ...], ...]


def _vertex_invariants(g: Graph):
    return [
        (g.degree(v), tuple(sorted(g.degree(w) for w in g.adjacency[v])))
        for v in range(g.n)
    ]


def _search_maps(g: Graph, h: Graph, limit=None, first_only=False):
    """Backtracking search for edge-preserving bijections g -> h.

    Candidate images are filtered by (degree, sorted neighbor-degree multiset)
    and tried in that order; correctness is what matters, speed is best-effort.
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
    # Process the most constrained vertices first.
    freq = {}
    for v in range(n):
        freq[inv_g[v]] = freq.get(inv_g[v], 0) + 1
    order = sorted(range(n), key=lambda v: (freq[inv_g[v]], -g.degree(v), v))

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


def _compose(a, b):
    """Permutation composition a after b (one-line notation)."""
    return tuple(a[x] for x in b)


def _extend(group, generators, new):
    """Group generated by ``generators`` plus ``new``, where ``group`` is the
    (closed) group generated by ``generators``: BFS over right products.

    Products of ``group`` with the old generators stay inside it, so only
    its products with ``new`` seed the search.
    """
    gens = [*generators, new]
    seen = set(group)
    frontier = []
    for p in group:
        q = _compose(new, p)
        if q not in seen:
            seen.add(q)
            frontier.append(q)
    while frontier:
        nxt = []
        for p in frontier:
            for gen in gens:
                q = _compose(gen, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def closure(generators, n):
    """Group generated by ``generators``, one generator at a time."""
    seen = {tuple(range(n))}
    for i, gen in enumerate(generators):
        seen = _extend(seen, generators[:i], gen)
    return seen


def automorphisms(g: Graph) -> AutomorphismGroup:
    """Full automorphism group by backtracking with invariant pruning."""
    if g.n > AUTOMORPHISM_N_CAP:
        raise SymmetryCapExceeded(
            f"automorphism search is capped at n <= {AUTOMORPHISM_N_CAP} "
            f"(graph has n={g.n})"
        )
    elements = sorted(_search_maps(g, g, limit=AUTOMORPHISM_ORDER_CAP))
    identity = tuple(range(g.n))
    generators = []
    known = {identity}
    for e in elements:
        if e not in known:
            known = _extend(known, generators, e)
            generators.append(e)
    return AutomorphismGroup(generators, len(elements), tuple(elements))


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
    representatives: list[int]

    @property
    def sizes(self):
        return [len(c) for c in self.classes]


def _apply_to_pair(perm, pair):
    (a, b), (c, d) = pair
    e1 = (min(perm[a], perm[b]), max(perm[a], perm[b]))
    e2 = (min(perm[c], perm[d]), max(perm[c], perm[d]))
    return (e1, e2) if e1 < e2 else (e2, e1)


def pair_orbits(g: Graph, aut: AutomorphismGroup) -> OrbitPartition:
    """Partition nonincident pairs into orbits (BFS under the generators)."""
    pairs = nonincident_pairs(g)
    index = {p: i for i, p in enumerate(pairs)}
    seen = [False] * len(pairs)
    classes = []
    reps = []
    gens = aut.generators or [tuple(range(g.n))]
    for start in range(len(pairs)):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            nxt = []
            for i in frontier:
                for gen in gens:
                    j = index[_apply_to_pair(gen, pairs[i])]
                    if not seen[j]:
                        seen[j] = True
                        orbit.append(j)
                        nxt.append(j)
            frontier = nxt
        classes.append(sorted(orbit))
        reps.append(start)
    return OrbitPartition(pairs, classes, reps)


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


def multipartite_patterns(g: Graph, mode: str = "linear"):
    """All distinct part-label sequences with the parts' multiplicities.

    Each pattern stands for one orbit of orderings under part-preserving
    automorphisms, via the canonical within-part vertex assignment.  Circular
    patterns are deduplicated up to rotation and reflection.
    """
    if g.parts is None:
        raise ValueError("pattern reduction requires a graph with parts")
    counts = [len(p) for p in g.parts]
    total = sum(counts)
    out = list(_label_sequences(counts, [], total))
    if mode == "linear":
        return out
    canon = {}
    for pat in out:
        best = min(
            min(p[k:] + p[:k] for k in range(total))
            for p in (pat, tuple(reversed(pat)))
        )
        if best not in canon:
            canon[best] = best
    return sorted(canon)


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
