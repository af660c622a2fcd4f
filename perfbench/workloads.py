"""Workload definitions: the sepdim commands each workload runs, and the
graphs those commands denote.

Standard library only.  The measured process imports this module to build
and write its inputs, and the checker imports it to learn which graph each
input denotes; neither side imports sepdim here.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import combinations

#: One entry per isomorphism class of connected graphs on six vertices:
#: (edge mask, number of labelled copies).  Bit i of the mask is the i-th
#: pair of combinations(range(6), 2); the copies sum to 26704, the number of
#: connected labelled graphs on six vertices (from networkx's graph atlas).
CONNECTED_6 = (
    (26896, 6), (929, 120), (12295, 90), (9313, 360), (4696, 360),
    (21009, 360), (30992, 60), (13452, 360), (29448, 120), (5304, 360),
    (126, 180), (9442, 720), (8302, 360), (15426, 180), (28679, 180),
    (4728, 360), (1752, 360), (4905, 360), (21041, 60), (22216, 180),
    (4001, 180), (8814, 720), (18152, 180), (20353, 180), (16927, 90),
    (5033, 720), (8847, 360), (5848, 360), (23202, 120), (4909, 720),
    (1784, 360), (4907, 360), (26850, 180), (13010, 180), (21106, 360),
    (21045, 180), (12857, 180), (28711, 90), (639, 60), (8815, 180),
    (3811, 120), (5097, 360), (21225, 720), (2923, 180), (4857, 720),
    (2895, 360), (31394, 360), (17015, 120), (11083, 180), (22232, 180),
    (6715, 180), (15768, 15), (24113, 720), (20723, 360), (6717, 360),
    (18168, 180), (29481, 360), (22321, 180), (6969, 180), (23217, 90),
    (3943, 360), (2927, 360), (22189, 90), (31458, 360), (19303, 180),
    (32152, 15), (6719, 360), (20731, 120), (20979, 360), (17023, 60),
    (13117, 720), (21118, 360), (22134, 180), (6971, 180), (15770, 90),
    (31289, 360), (6973, 360), (24117, 360), (23431, 60), (23221, 10),
    (22253, 180), (5885, 120), (32153, 90), (29673, 360), (22142, 90),
    (24182, 360), (21497, 360), (15165, 360), (7099, 360), (28611, 180),
    (31545, 72), (22387, 360), (22390, 60), (30963, 45), (6127, 30),
    (12263, 180), (22269, 360), (26351, 60), (31219, 45), (24538, 360),
    (22007, 60), (16283, 180), (24501, 90), (30447, 60), (4095, 20),
    (32667, 180), (22519, 180), (30587, 15), (22527, 60), (30591, 45),
    (32763, 15), (32767, 1),
)
#: Graphs per round, spread over the classes in proportion to their labelled
#: copies (so in G(6, 1/2) proportions) with at least one of each class;
#: set so that they take 13-17 s of a round on a 2-core box.
RANDOM_QUOTA = 600

@dataclass
class Op:
    """One `sepdim` command plus what the checker needs to judge its report.

    ``graph`` is (n, edges) for `solve` operations: the graph the input
    denotes, over its full vertex set.  ``scan`` is (family, n, mode) for
    `scan` operations.  ``known_fault`` names a program fault the operation
    is expected to hit; such an operation is counted as failed without
    making the run incorrect.
    """

    name: str
    argv: list[str]
    mode: str = "linear"
    reduction: str | None = None
    graph: tuple[int, tuple] | None = None
    scan: tuple[str, int, str] | None = None
    edge_file: str | None = None
    known_fault: str | None = None


# ---------------------------------------------------------------------------
# Graphs, as the CLI grammar defines them
# ---------------------------------------------------------------------------

def _norm(edges):
    return tuple(sorted((min(u, v), max(u, v)) for u, v in edges))


def petersen_graph():
    """Vertex i is the i-th 2-subset of {1..5} in lexicographic order;
    vertices are adjacent when their subsets are disjoint."""
    subsets = list(combinations(range(1, 6), 2))
    edges = [(i, j) for i, j in combinations(range(10), 2)
             if not set(subsets[i]) & set(subsets[j])]
    return 10, _norm(edges)


def cycle_graph(n):
    return n, _norm((i, (i + 1) % n) for i in range(n))


def fan_graph(n):
    """Apex 0 joined to every vertex of the path 1..n-1."""
    edges = [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)]
    return n, _norm(edges)


def multipartite_graph(*sizes):
    """Parts are consecutive label ranges, in the order given."""
    parts, start = [], 0
    for s in sizes:
        parts.append(range(start, start + s))
        start += s
    edges = [(u, v) for i, p in enumerate(parts) for q in parts[i + 1:]
             for u in p for v in q]
    return start, _norm(edges)


def class_copies():
    """Graphs per isomorphism class in one round."""
    total = sum(labelled for _, labelled in CONNECTED_6)
    return [max(1, round(RANDOM_QUOTA * labelled / total))
            for _, labelled in CONNECTED_6]


def relabelled(mask, rng):
    """The class's graph under a labelling drawn from ``rng``."""
    perm = list(range(6))
    rng.shuffle(perm)
    pairs = list(combinations(range(6), 2))
    return 6, _norm((perm[u], perm[v]) for i, (u, v) in enumerate(pairs)
                    if mask >> i & 1)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _solve(name, source, mode="linear", reduction=None, graph=None, **kw):
    argv = ["solve", source, "--json"]
    if mode != "linear":
        argv += ["--mode", mode]
    if reduction is not None:
        argv += ["--reduction", reduction]
    return Op(name, argv, mode=mode, reduction=reduction, graph=graph, **kw)


def _file_op(name, graph, mode="linear", reduction=None, **kw):
    op = _solve(name, "@" + name + ".edges", mode, reduction, graph, **kw)
    op.edge_file = name + ".edges"
    return op


def petersen_linear(seed):
    return [_solve("petersen", "petersen", graph=petersen_graph())]


def circular(seed):
    return [
        _solve("petersen-circ", "petersen", "circular", graph=petersen_graph()),
        _solve("C10-circ", "C:10", "circular", graph=cycle_graph(10)),
        _file_op("fan10-circ", fan_graph(10), "circular"),
        _solve("K5,5-circ", "K:5,5", "circular", "orbits",
               graph=multipartite_graph(5, 5)),
    ]


def random_batch(seed):
    rng = random.Random(seed)
    ops = []
    for (mask, _), copies in zip(CONNECTED_6, class_copies()):
        for _ in range(copies):
            ops.append(_file_op(f"g{len(ops):04d}", relabelled(mask, rng),
                                reduction="none"))
    # Fails on every seed: fractional_sepdim reports pi_f = 0 for 2K2, whose
    # value is 1.  Every round attempts it, so failed/attempted is constant.
    ops.append(_file_op("2K2", (4, ((0, 1), (2, 3))), reduction="none",
                        known_fault="(a) pi_f = 0 when every pair spans two components"))
    return ops


def multipartite_scan(seed):
    def scan(family, n, mode="linear"):
        argv = ["scan", "--family", family, "--n", str(n), "--json"]
        if mode != "linear":
            argv += ["--mode", mode]
        return Op(f"{family}-{n}-{mode}", argv, mode=mode, scan=(family, n, mode))

    return [scan("tripartite", 10), scan("tripartite", 11),
            scan("bipartite", 14), scan("tripartite", 11, "circular")]


def enumeration(seed):
    """The orbit-enumeration path in both modes: Petersen over all 10!/2
    linear orderings, then the circular set."""
    return petersen_linear(seed) + circular(seed)


def lp_batch(seed):
    """The LP-heavy paths: the random batch on the exact simplex, then the
    pattern-reduced scans."""
    return random_batch(seed) + multipartite_scan(seed)


#: Two workloads of 25-40 s per round each, so that a run is as long as the
#: time for all runs allows; see README.md for why not four.
WORKLOADS = {
    "enumeration": enumeration,
    "lp-batch": lp_batch,
}


def build(workload, seed, input_dir):
    """The operations of one round, with edge-file paths under ``input_dir``."""
    ops = WORKLOADS[workload](seed)
    for op in ops:
        if op.edge_file is not None:
            op.edge_file = os.path.join(input_dir, op.edge_file)
            op.argv[1] = "@" + op.edge_file
    return ops


def write_inputs(ops):
    """Write each edge file, leaving one that already holds the same text:
    rewriting or deleting hundreds of files makes the file system flush,
    which slowed the set-up and the operations that followed."""
    for op in ops:
        if op.edge_file is None:
            continue
        n, edges = op.graph
        text = "".join(f"{u} {v}\n" for u, v in edges)
        if os.path.exists(op.edge_file):
            with open(op.edge_file) as fh:
                if fh.read() == text:
                    continue
        with open(op.edge_file, "w") as fh:
            fh.write(text)
