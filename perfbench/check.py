"""Independent checker for sepdim reports.

Uses no code from sepdim: separation predicates, pair classes, brute-force
orderings, the paper's values and a floating-point LP (scipy) are computed
here.  It runs in the benchmark's parent process, after the measured process
has ended.  Every function returns a list of error strings; an empty list
means the report passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, permutations
from math import ceil

import networkx as nx
import numpy as np
from networkx.algorithms.isomorphism import GraphMatcher
from scipy.optimize import linprog

#: Graphs up to this many vertices get both certificate sides checked
#: against every ordering.
BRUTE_FORCE_N = 7
#: Agreement required between a reported value and the float LP.
LP_TOLERANCE = 1e-7


# ---------------------------------------------------------------------------
# Pairs, predicates and pair classes
# ---------------------------------------------------------------------------

def nonincident_pairs(edges):
    """Vertex-disjoint edge pairs (e1, e2), e1 < e2, over sorted edges."""
    edges = sorted(edges)
    return [(e, f) for e, f in combinations(edges, 2) if not set(e) & set(f)]


def pair_label(pair):
    (a, b), (c, d) = pair
    return f"{a}-{b}/{c}-{d}"


def separated(mode, pos, pair):
    """Linear: both ends of one edge precede both ends of the other.
    Circular: the four ends do not alternate around the circle."""
    (a, b), (c, d) = pair
    lo, hi = sorted((pos[a], pos[b]))
    if mode == "linear":
        lo2, hi2 = sorted((pos[c], pos[d]))
        return hi < lo2 or hi2 < lo
    return (lo < pos[c] < hi) == (lo < pos[d] < hi)


def separation_matrix(mode, positions, pairs):
    """Boolean (orderings x pairs) matrix; ``positions[o, v]`` is the place
    of vertex v in ordering o."""
    e = np.array([(a, b, c, d) for (a, b), (c, d) in pairs], dtype=np.int64)
    pa, pb, pc, pd = (positions[:, e[:, i]] for i in range(4))
    lo, hi = np.minimum(pa, pb), np.maximum(pa, pb)
    if mode == "linear":
        lo2, hi2 = np.minimum(pc, pd), np.maximum(pc, pd)
        return (hi < lo2) | (hi2 < lo)
    return ((lo < pc) & (pc < hi)) == ((lo < pd) & (pd < hi))


def automorphisms(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return [tuple(m[v] for v in range(n))
            for m in GraphMatcher(g, g).isomorphisms_iter()]


def orbit_classes(n, edges, pairs):
    """Orbits of the pairs under the automorphism group."""
    index = {p: i for i, p in enumerate(pairs)}
    group = automorphisms(n, edges)
    orbit_of = [None] * len(pairs)
    classes = []
    for i, ((a, b), (c, d)) in enumerate(pairs):
        if orbit_of[i] is not None:
            continue
        members = set()
        for s in group:
            e = tuple(sorted((s[a], s[b])))
            f = tuple(sorted((s[c], s[d])))
            members.add(index[min(e, f), max(e, f)])
        for j in members:
            orbit_of[j] = len(classes)
        classes.append(sorted(members))
    return classes


def signature_classes(part_of, pairs):
    """Pairs grouped by the part labels of their two edges."""
    buckets = {}
    for i, ((a, b), (c, d)) in enumerate(pairs):
        sig = tuple(sorted((tuple(sorted((part_of[a], part_of[b]))),
                            tuple(sorted((part_of[c], part_of[d]))))))
        buckets.setdefault(sig, []).append(i)
    return [buckets[s] for s in sorted(buckets)]


def all_positions(n, mode):
    """Position maps of every ordering (circular: vertex 0 placed first)."""
    if mode == "linear":
        perms = list(permutations(range(n)))
    else:
        perms = [(0,) + t for t in permutations(range(1, n))]
    perms = np.array(perms, dtype=np.int64)
    positions = np.empty_like(perms)
    rows = np.arange(len(perms))[:, None]
    positions[rows, perms] = np.arange(n)
    return positions


# ---------------------------------------------------------------------------
# Values the paper fixes
# ---------------------------------------------------------------------------

def contains_k4(n, edges):
    es = set(edges)
    return any(all((u, v) in es for u, v in combinations(q, 2))
               for q in combinations(range(n), 4))


def is_outerplanar(n, edges):
    """G is outerplanar iff G plus a vertex joined to all of V(G) is planar."""
    g = nx.Graph(edges)
    g.add_nodes_from(range(n))
    g.add_edges_from(("apex", v) for v in range(n))
    return nx.check_planarity(g)[0]


def shape_value(sizes, mode):
    """The paper's pi_f (linear) or pi_f_circ for K_{sizes}, where known."""
    s = tuple(sorted(sizes))
    if len(s) == 2:
        m, t = s
        if m == 1:
            return Fraction(0)
        if mode == "linear" and t in (m, m + 1):
            return Fraction(3 * m, m + 1)
        if mode == "circular" and t == m:
            return Fraction(3 * m - 3, 2 * m - 1)
        return None
    if mode != "linear" or len(s) != 3:
        return None
    a, b, c = s
    if a == b >= 2 and c in (a, a + 1):
        return Fraction(6 * a, 2 * a + 1)
    if a == 1 and b == c >= 2:
        half_up = ceil(b / 2)
        return Fraction(24 * b) / (8 * b + 5 + Fraction(3, 2 * half_up - 1))
    return None


def paper_value(n, edges, mode):
    """pi_f or pi_f_circ where the paper fixes it for this graph, else None."""
    cap = Fraction(3) if mode == "linear" else Fraction(3, 2)
    if contains_k4(n, edges):
        return cap
    g = nx.Graph(edges)
    g.add_nodes_from(range(n))
    if n == 10 and nx.is_isomorphic(g, nx.petersen_graph()):
        return Fraction(30, 17) if mode == "linear" else Fraction(8, 7)
    if nx.is_connected(g) and nx.is_bipartite(g):
        x, y = nx.bipartite.sets(g)
        if len(edges) == len(x) * len(y):
            return shape_value((len(x), len(y)), mode)
    if mode == "circular" and nonincident_pairs(edges) and is_outerplanar(n, edges):
        return Fraction(1)
    return None


def value_errors(n, edges, mode, pi, has_pairs):
    """Properties every reported value must have."""
    errs = []
    cap = Fraction(3) if mode == "linear" else Fraction(3, 2)
    if has_pairs and pi < 1:
        errs.append(f"value {pi} < 1 although nonincident pairs exist")
    if not has_pairs and pi != 0:
        errs.append(f"value {pi} != 0 although no pairs exist")
    if pi > cap or (pi == cap and not contains_k4(n, edges)):
        errs.append(f"value {pi} reaches {cap} on a K4-free graph")
    known = paper_value(n, edges, mode) if has_pairs else None
    if known is not None and pi != known:
        errs.append(f"value {pi} != {known} fixed by the paper")
    return errs


# ---------------------------------------------------------------------------
# Certificates of `sepdim solve`
# ---------------------------------------------------------------------------

def _parse_ordering(key, n, mode):
    head, _, rest = key.partition(":")
    if head != ("lin" if mode == "linear" else "circ") or not rest:
        raise ValueError(f"ordering {key!r} is not a {mode} ordering")
    perm = [int(x) for x in rest.split(",")]
    if sorted(perm) != list(range(n)):
        raise ValueError(f"ordering {key!r} is not an ordering of all {n} vertices")
    pos = [0] * n
    for i, v in enumerate(perm):
        pos[v] = i
    return pos


def _weights(items, what):
    out = {}
    for key, w in items:
        w = Fraction(w)
        if w <= 0 or key in out:
            raise ValueError(f"{what} weight {key}: {w} is not a positive, unique entry")
        out[key] = w
    if sum(out.values()) != 1:
        raise ValueError(f"{what} weights sum to {sum(out.values())}, not 1")
    return out


def _reported_classes(result, reduction, pairs, classes):
    """Map the report's class labels onto the checker's own classes."""
    if reduction == "none":
        rep_label = {pair_label(pairs[c[0]]): c for c in classes}
    elif reduction == "orbits":
        rep_label = {}
        for c in classes:
            for i in c:
                rep_label[f"orbit[{pair_label(pairs[i])}]x{len(c)}"] = c
    else:
        raise ValueError(f"unsupported reduction {reduction!r}")
    got = {}
    for entry in result["classes"]:
        cls = rep_label.get(entry["label"])
        if cls is None or len(cls) != entry["size"]:
            raise ValueError(f"class {entry['label']} (size {entry['size']}) is not "
                             "a pair class of the graph")
        got[entry["label"]] = cls
    if sorted(map(tuple, got.values())) != sorted(map(tuple, classes)):
        raise ValueError("reported classes do not partition the pairs into the "
                         "graph's classes")
    return got


class Checker:
    """Checks reports; caches the graph computations that repeat."""

    def __init__(self):
        self._classes = {}
        self._brute = {}
        self._lp = {}

    def classes(self, n, edges, pairs, reduction):
        if reduction == "none":
            return [[i] for i in range(len(pairs))]
        key = (n, edges)
        if key not in self._classes:
            self._classes[key] = orbit_classes(n, edges, pairs)
        return self._classes[key]

    def _count_rows(self, n, edges, mode, pairs, classes):
        """Distinct per-class separated counts over every ordering."""
        key = (n, edges, mode, tuple(map(tuple, classes)))
        if key not in self._brute:
            sep = separation_matrix(mode, all_positions(n, mode), pairs)
            onehot = np.zeros((len(pairs), len(classes)), dtype=np.int64)
            for q, c in enumerate(classes):
                onehot[c, q] = 1
            self._brute[key] = np.unique(sep.astype(np.int64) @ onehot, axis=0)
        return self._brute[key]

    def solve_errors(self, graph, mode, reduction, code, stdout):
        """``reduction`` is the one the command asked for, None for auto."""
        if code != 0:
            return [f"exit code {code}"]
        n, edges = graph
        report = json.loads(stdout)
        result = report["result"]
        pi = Fraction(result["pi_f" if mode == "linear" else "pi_f_circ"])
        pairs = nonincident_pairs(edges)
        errs = value_errors(n, edges, mode, pi, bool(pairs))
        if (report["graph"]["n"], report["graph"]["pairs"]) != (n, len(pairs)):
            errs.append(f"report reads a graph with {report['graph']['n']} vertices "
                        f"and {report['graph']['pairs']} pairs, the input has {n} "
                        f"and {len(pairs)}")
        if report.get("mode") != mode:
            errs.append(f"report mode {report.get('mode')!r}, asked for {mode!r}")
        if reduction is not None and report.get("reduction") != reduction:
            errs.append(f"report reduction {report.get('reduction')!r}, "
                        f"asked for {reduction!r}")
        if not pairs:
            return errs
        try:
            errs += self.certificate_errors(n, edges, mode, report["reduction"],
                                            pairs, pi, result)
        except (ValueError, KeyError, TypeError) as exc:
            errs.append(f"certificate: {exc}")
        return errs

    def certificate_errors(self, n, edges, mode, reduction, pairs, pi, result):
        if result["certificate"] != "exact" or result["game_value"] is None:
            return [f"certificate {result['certificate']!r} is not exact"]
        value = Fraction(result["game_value"])
        errs = []
        if pi * value != 1:
            errs.append(f"pi_f {pi} is not 1 / game value {value}")
        classes = self.classes(n, edges, pairs, reduction)
        by_label = _reported_classes(result, reduction, pairs, classes)

        # Ordering side: every class is separated with probability >= value.
        primal = _weights(result["primal"], "primal")
        scores = [Fraction(0)] * len(classes)
        for key, w in primal.items():
            pos = _parse_ordering(key, n, mode)
            for q, c in enumerate(classes):
                hit = sum(separated(mode, pos, pairs[i]) for i in c)
                scores[q] += w * Fraction(hit, len(c))
        if min(scores) != value:
            errs.append(f"primal mix separates its worst class with probability "
                        f"{min(scores)}, not the game value {value}")

        # Pair side: no ordering beats the value against the dual mix.
        dual = _weights(result["dual"], "dual")
        for label in dual:
            if label not in by_label:
                raise ValueError(f"dual names unknown class {label!r}")
        if n <= BRUTE_FORCE_N:
            index = {tuple(c): q for q, c in enumerate(classes)}
            coef = [Fraction(0)] * len(classes)
            for label, w in dual.items():
                c = by_label[label]
                coef[index[tuple(c)]] = w / len(c)
            rows = self._count_rows(n, edges, mode, pairs, classes)
            best = max(sum(x * int(k) for x, k in zip(coef, row) if x)
                       for row in rows)
            if best != value:
                errs.append(f"best ordering against the dual mix scores {best}, "
                            f"not the game value {value}")
        return errs

    # -----------------------------------------------------------------------
    # `sepdim scan`
    # -----------------------------------------------------------------------

    def lp_value(self, sizes, mode):
        """pi_f of K_{sizes} from scipy's LP over part-label patterns."""
        key = (tuple(sizes), mode)
        if key not in self._lp:
            self._lp[key] = _pattern_lp(tuple(sizes), mode)
        return self._lp[key]

    def scan_errors(self, family, n, mode, code, stdout):
        if code != 0:
            return [f"exit code {code}"], {}
        rows = json.loads(stdout)["result"]["rows"]
        k = 2 if family == "bipartite" else 3
        want = sorted(_shapes(n, k))
        got = sorted(tuple(sorted(r["shape"])) for r in rows)
        if got != want:
            return [f"scan shapes {got} are not the {family} shapes on {n}"], {}
        errs = []
        values = {}
        for r in rows:
            shape = tuple(sorted(r["shape"]))
            if r["pi_f"] is None:
                errs.append(f"{shape}: no value ({r['skipped']})")
                continue
            pi = Fraction(r["pi_f"])
            values[shape] = pi
            _, edges = _multipartite(shape)
            has_pairs = bool(nonincident_pairs(edges))
            cap = Fraction(3) if mode == "linear" else Fraction(3, 2)
            if has_pairs != (pi >= 1) or (not has_pairs and pi != 0):
                errs.append(f"{shape}: value {pi} with pairs={has_pairs}")
            if pi >= cap:
                errs.append(f"{shape}: value {pi} reaches {cap} without a K4")
            known = shape_value(shape, mode)
            if known is not None and pi != known:
                errs.append(f"{shape}: value {pi} != {known} fixed by the paper")
            lp = self.lp_value(shape, mode)
            if abs(float(pi) - lp) > LP_TOLERANCE * max(1.0, lp):
                errs.append(f"{shape}: value {pi} != {lp:.12g} from scipy's LP")
        if values:
            best = max(values.values())
            for r in rows:
                shape = tuple(sorted(r["shape"]))
                if r["is_max"] != (values.get(shape) == best):
                    errs.append(f"{shape}: is_max {r['is_max']} but the maximum is {best}")
        return errs, values


def _shapes(n, k):
    if k == 2:
        return [(a, n - a) for a in range(1, n // 2 + 1)]
    return [(a, b, n - a - b) for a in range(1, n // 3 + 1)
            for b in range(a, (n - a) // 2 + 1)]


def _multipartite(sizes):
    parts, start = [], 0
    for s in sizes:
        parts.append(range(start, start + s))
        start += s
    edges = sorted((u, v) for i, p in enumerate(parts) for q in parts[i + 1:]
                   for u in p for v in q)
    part_of = [i for i, p in enumerate(parts) for _ in p]
    return part_of, edges


def _label_sequences(counts):
    """All distinct sequences with ``counts[i]`` copies of label i."""
    out, cur, total = [], [], sum(counts)
    counts = list(counts)

    def rec():
        if len(cur) == total:
            out.append(tuple(cur))
            return
        for lbl, left in enumerate(counts):
            if left:
                counts[lbl] -= 1
                cur.append(lbl)
                rec()
                cur.pop()
                counts[lbl] += 1

    rec()
    return out


def _pattern_lp(sizes, mode):
    """Game value over canonical pattern orderings (part i's vertices in
    label order), with pairs classed by part signature; by averaging over
    the part-preserving automorphisms this equals the full game."""
    part_of, edges = _multipartite(sizes)
    pairs = nonincident_pairs(edges)
    if not pairs:
        return 0.0
    classes = signature_classes(part_of, pairs)
    firsts = np.cumsum((0,) + sizes[:-1])
    seqs = np.array(_label_sequences(sizes), dtype=np.int64)
    # Vertex of each slot: first vertex of its part plus earlier same-part slots.
    onehot_lbl = seqs[:, :, None] == np.arange(len(sizes))[None, None, :]
    rank = (np.cumsum(onehot_lbl, axis=1) - 1)[
        np.arange(len(seqs))[:, None], np.arange(seqs.shape[1])[None, :], seqs]
    perms = firsts[seqs] + rank
    positions = np.empty_like(perms)
    positions[np.arange(len(perms))[:, None], perms] = np.arange(perms.shape[1])
    sep = separation_matrix(mode, positions, pairs).astype(np.float64)
    onehot = np.zeros((len(pairs), len(classes)))
    for q, c in enumerate(classes):
        onehot[c, q] = 1.0 / len(c)
    payoff = np.unique(np.round(sep @ onehot, 12), axis=0)
    r, k = payoff.shape
    # max t  s.t.  t - payoff[:, q] . x <= 0 for every class q,  sum x = 1.
    c = np.zeros(r + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-payoff.T, np.ones((k, 1))])
    a_eq = np.hstack([np.ones((1, r)), np.zeros((1, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(k), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (r + 1), method="highs")
    if res.status != 0:
        raise RuntimeError(f"scipy LP failed on K_{sizes}: {res.message}")
    return 1.0 / res.x[-1]


def monotone_errors(smaller, larger):
    """pi_f of an (n+1)-shape is at least that of every n-shape obtained by
    deleting one vertex from one part (a subgraph)."""
    errs = []
    for shape, pi in larger.items():
        for i, s in enumerate(shape):
            sub = tuple(sorted(shape[:i] + (s - 1,) + shape[i + 1:]))
            if s > 1 and sub in smaller and smaller[sub] > pi:
                errs.append(f"{shape}: value {pi} below {smaller[sub]} of its "
                            f"subgraph {sub}")
    return errs


def circular_below_linear_errors(linear, circular):
    """A linearly separated pair is circularly separated: pi_f_circ <= pi_f."""
    return [f"{shape}: circular value {pi} above linear {linear[shape]}"
            for shape, pi in circular.items()
            if shape in linear and pi > linear[shape]]
