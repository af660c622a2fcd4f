"""Graph representation, named graph families, and nonincident edge-pair enumeration.

Vertices are dense integers 0..n-1.  Edges are pairs (u, v) with u < v, kept in
lexicographic order; an EdgePair is a pair of vertex-disjoint edges (e1, e2) with
e1 < e2 lexicographically.  All strategy and report indices refer to these orders.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

Edge = tuple[int, int]
EdgePair = tuple[Edge, Edge]


class GraphError(ValueError):
    """Malformed graph, family parameters, or input text."""


@dataclass(frozen=True)
class Graph:
    """Labeled simple undirected graph with an optional partition into parts.

    When ``parts`` is present the graph must be complete multipartite: every
    edge joins distinct parts and every cross-part vertex pair is an edge.
    """

    n: int
    edges: tuple[Edge, ...]
    parts: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("graph needs at least one vertex")
        seen = set()
        for e in self.edges:
            u, v = e
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge {e} out of range for n={self.n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u > v:
                raise GraphError(f"edge {e} not normalized (want u < v)")
            if e in seen:
                raise GraphError(f"duplicate edge {e}")
            seen.add(e)
        if tuple(sorted(self.edges)) != self.edges:
            raise GraphError("edges not in lexicographic order")
        if self.parts is not None:
            flat = [v for part in self.parts for v in part]
            if sorted(flat) != list(range(self.n)):
                raise GraphError("parts must partition 0..n-1")
            part_of = {}
            for i, part in enumerate(self.parts):
                for v in part:
                    part_of[v] = i
            edge_set = set(self.edges)
            for u, v in self.edges:
                if part_of[u] == part_of[v]:
                    raise GraphError(f"edge {(u, v)} inside part {part_of[u]}")
            for u, v in combinations(range(self.n), 2):
                if part_of[u] != part_of[v] and (u, v) not in edge_set:
                    raise GraphError(
                        f"missing cross-part edge {(u, v)}: parts require a "
                        "complete multipartite graph"
                    )

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def part_of(self) -> tuple[int, ...] | None:
        if self.parts is None:
            return None
        labels = [0] * self.n
        for i, part in enumerate(self.parts):
            for v in part:
                labels[v] = i
        return tuple(labels)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def graph_from_edges(n: int, edges, parts=None) -> Graph:
    """Build a Graph, normalizing each edge to (min, max) and sorting."""
    norm = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
    if parts is not None:
        parts = tuple(tuple(sorted(p)) for p in parts)
    return Graph(n, norm, parts)


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """A named graph family plus its integer parameters."""

    tag: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.tag not in _BUILDERS:
            raise GraphError(f"unknown family tag {self.tag!r}")

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        """Parse the CLI family grammar: K:a,b / K:a,b,c / K:a,b,c,d,...,
        C:n, Kn:n, petersen, heawood, star-subdiv:n, path:n."""
        text = text.strip()
        if text == "petersen":
            return cls("petersen")
        if text == "heawood":
            return cls("heawood")
        if ":" not in text:
            raise GraphError(f"cannot parse family spec {text!r}")
        head, _, rest = text.partition(":")
        try:
            params = tuple(int(p) for p in rest.split(","))
        except ValueError:
            raise GraphError(f"non-integer parameter in family spec {text!r}")
        if head == "C":
            return cls("cycle", params)
        if head == "Kn":
            return cls("complete", params)
        if head == "K":
            if len(params) < 2:
                raise GraphError(
                    f"K: takes two or more part sizes, got {len(params)}"
                )
            tag = {2: "complete-bipartite", 3: "complete-tripartite"}
            return cls(tag.get(len(params), "complete-multipartite"), params)
        if head == "star-subdiv":
            return cls("subdivided-star", params)
        if head == "path":
            return cls("path", params)
        raise GraphError(f"cannot parse family spec {text!r}")

    def __str__(self):
        if not self.params:
            return self.tag
        return f"{self.tag}({','.join(map(str, self.params))})"


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return graph_from_edges(n, combinations(range(n), 2))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_multipartite(*sizes: int) -> Graph:
    if any(s < 1 for s in sizes) or not sizes:
        raise GraphError("part sizes must be positive")
    parts = []
    start = 0
    for s in sizes:
        parts.append(tuple(range(start, start + s)))
        start += s
    edges = [
        (u, v)
        for i, p in enumerate(parts)
        for q in parts[i + 1:]
        for u in p
        for v in q
    ]
    return graph_from_edges(start, edges, parts=parts)


def petersen() -> Graph:
    """Disjointness graph of the 2-element subsets of {1..5}.

    Canonical labeling: subsets in lexicographic order, so vertex 0 is {1,2},
    vertex 9 is {4,5}; two vertices are adjacent when their subsets are disjoint.
    """
    subsets = list(combinations(range(1, 6), 2))
    edges = [
        (i, j)
        for i, j in combinations(range(10), 2)
        if not set(subsets[i]) & set(subsets[j])
    ]
    return graph_from_edges(10, edges)


#: Fano plane lines in cyclic order {i, i+1, i+3} over points 1..7.
FANO_LINES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))


def heawood() -> Graph:
    """Point/line incidence graph of the Fano plane.

    Vertices 0..6 are points 1..7; vertices 7..13 are the lines of
    ``FANO_LINES`` in order; a point is adjacent to the lines through it.
    """
    edges = []
    for li, line in enumerate(FANO_LINES):
        for p in line:
            edges.append((p - 1, 7 + li))
    return graph_from_edges(14, edges)


def subdivided_star(n: int) -> Graph:
    """Star with n rays, every ray subdivided once: center 0, middle vertices
    1..n, leaves n+1..2n."""
    if n < 1:
        raise GraphError("subdivided star needs n >= 1")
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(i, n + i) for i in range(1, n + 1)]
    return graph_from_edges(2 * n + 1, edges)


#: Every family tag -> (number of parameters, builder); None takes four or
#: more.
_BUILDERS = {
    "complete": (1, complete),
    "cycle": (1, cycle),
    "path": (1, path),
    "complete-bipartite": (2, complete_multipartite),
    "complete-tripartite": (3, complete_multipartite),
    "complete-multipartite": (None, complete_multipartite),
    "petersen": (0, petersen),
    "heawood": (0, heawood),
    "subdivided-star": (1, subdivided_star),
}


def generate(spec: FamilySpec) -> Graph:
    """Produce the canonical labeled graph of a family.  Deterministic."""
    arity, build = _BUILDERS[spec.tag]
    count = len(spec.params)
    if count != arity and (arity is not None or count < 4):
        want = "four or more" if arity is None else arity
        raise GraphError(f"family {spec.tag} takes {want} parameter(s), got {count}")
    return build(*spec.params)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on n vertices via a Pruefer sequence."""
    if n < 1:
        raise GraphError("tree needs n >= 1")
    if n <= 2:
        return path(n)
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
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
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return graph_from_edges(n, edges)


# ---------------------------------------------------------------------------
# Pairs of nonincident edges
# ---------------------------------------------------------------------------

def nonincident_pairs(g: Graph) -> list[EdgePair]:
    """All unordered pairs of vertex-disjoint edges, in lexicographic order.

    Empty for graphs with fewer than four vertices.
    """
    pairs = []
    edges = g.edges
    for i, e1 in enumerate(edges):
        a, b = e1
        for e2 in edges[i + 1:]:
            c, d = e2
            if a != c and a != d and b != c and b != d:
                pairs.append((e1, e2))
    return pairs


# ---------------------------------------------------------------------------
# Text ingestion
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Parse an edge-list document: one "u v" edge per line, or one "v" to
    declare a vertex (an isolated one, say); "#" comments and blank lines
    ignored.  n is the largest label + 1.  Errors carry the offending line
    number."""
    edges = []
    seen = set()
    max_label = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) > 2:
            raise GraphError(
                f"line {lineno}: expected one vertex label or two, got {raw!r}"
            )
        try:
            labels = [int(x) for x in fields]
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer vertex label in {raw!r}")
        if min(labels) < 0:
            raise GraphError(f"line {lineno}: negative vertex label in {raw!r}")
        max_label = max(max_label, *labels)
        if len(labels) == 1:
            continue
        u, v = labels
        if u == v:
            raise GraphError(f"line {lineno}: self-loop at vertex {u}")
        e = (min(u, v), max(u, v))
        if e in seen:
            raise GraphError(f"line {lineno}: duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    if max_label < 0:
        raise GraphError("no vertices found in input")
    return graph_from_edges(max_label + 1, edges)


# ---------------------------------------------------------------------------
# Structure helpers
# ---------------------------------------------------------------------------

def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def induced_subgraph(g: Graph, vertices: list[int]) -> Graph:
    """Subgraph induced on ``vertices``, relabeled 0..k-1 in the given order."""
    index = {v: i for i, v in enumerate(vertices)}
    vs = set(vertices)
    edges = [(index[u], index[v]) for u, v in g.edges if u in vs and v in vs]
    return graph_from_edges(len(vertices), edges)


def is_tree(g: Graph) -> bool:
    return len(g.edges) == g.n - 1 and len(connected_components(g)) == 1


def is_caterpillar(g: Graph) -> bool:
    """True iff removing all leaves of the tree leaves a path (possibly empty).

    Raises GraphError when the input is not a tree.
    """
    if not is_tree(g):
        raise GraphError("caterpillar test requires a tree")
    spine = [v for v in range(g.n) if g.degree(v) != 1]
    if not spine:
        return True
    spine_set = set(spine)
    spine_deg = {v: sum(1 for w in g.adjacency[v] if w in spine_set) for v in spine}
    if any(d > 2 for d in spine_deg.values()):
        return False
    # Degrees <= 2 in an induced forest of a tree: a path iff connected.
    start = spine[0]
    stack, seen = [start], {start}
    while stack:
        u = stack.pop()
        for w in g.adjacency[u]:
            if w in spine_set and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(spine)


def find_k4(g: Graph) -> tuple[int, int, int, int] | None:
    """First 4-clique in lexicographic vertex order, or None."""
    for quad in combinations(range(g.n), 4):
        a, b, c, d = quad
        if (
            g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(a, d)
            and g.has_edge(b, c) and g.has_edge(b, d) and g.has_edge(c, d)
        ):
            return quad
    return None
