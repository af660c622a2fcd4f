"""Constructive ordering-player and pair-player strategies.

Each construction returns an explicit Rational-weighted multiset of orderings
together with its claimed minimum separation probability; the guarantee can be
re-verified exhaustively on small graphs.  Closed-form counting identities for
the block constructions live here as well.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial

from .graphs import Graph, find_k4, is_tree, nonincident_pairs
from .separation import Ordering, max_separation, separates

STRATEGY_SUPPORT_CAP = 10 ** 6
K4FREE_N_CAP = 7


class StrategyError(ValueError):
    """Shape mismatch or unsupported input for a strategy constructor."""


@dataclass
class Strategy:
    """A probability distribution over orderings of one mode.

    ``claimed_guarantee`` is the construction's promised minimum separation
    probability over all nonincident pairs; ``details`` carries per-class
    separation fractions where the construction states them.
    """

    mode: str
    support: list[tuple[Ordering, Fraction]]
    provenance: str
    claimed_guarantee: Fraction | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        total = sum(w for _, w in self.support)
        if total != 1:
            raise StrategyError(f"strategy weights sum to {total}, not 1")
        if any(w <= 0 for _, w in self.support):
            raise StrategyError("strategy weights must be positive")
        if len({o.mode for o, _ in self.support}) > 1:
            raise StrategyError("mixed ordering modes in one strategy")

    def to_json_rows(self):
        return [[o.serialize(), f"{w.numerator}/{w.denominator}"] for o, w in self.support]


def separation_probabilities(strategy: Strategy, pairs) -> list[Fraction]:
    """Exact per-pair separation probability under the strategy."""
    probs = []
    for p in pairs:
        probs.append(sum(w for o, w in strategy.support if separates(o, p)))
    return probs


def min_separation_probability(strategy: Strategy, g: Graph) -> Fraction:
    pairs = nonincident_pairs(g)
    if not pairs:
        return Fraction(1)
    return min(separation_probabilities(strategy, pairs))


def _merge_support(mode, weighted_perms, total):
    """Accumulate (perm, count) into canonical orderings with Fraction weights."""
    acc = {}
    for perm, count in weighted_perms:
        o = Ordering(mode, perm)
        acc[o] = acc.get(o, 0) + count
    return [(o, Fraction(c, total)) for o, c in sorted(acc.items(), key=lambda kv: kv[0].perm)]


def _cap_check(count):
    if count > STRATEGY_SUPPORT_CAP:
        raise StrategyError(
            f"strategy support of {count} orderings exceeds the cap of "
            f"{STRATEGY_SUPPORT_CAP}"
        )


# ---------------------------------------------------------------------------
# Uniform and K4-free boosted distributions
# ---------------------------------------------------------------------------

def uniform_strategy(g: Graph, mode: str = "linear") -> Strategy:
    """Uniform over all orderings: every pair is separated with probability
    exactly 1/3 (linear) or 2/3 (circular) once n >= 4."""
    n = g.n
    _cap_check(factorial(n))
    if mode == "linear":
        support = [
            (Ordering("linear", p), Fraction(1, factorial(n)))
            for p in permutations(range(n))
        ]
    else:
        support = _merge_support(
            "circular", ((p, 1) for p in permutations(range(n))), factorial(n)
        )
    guarantee = Fraction(1, 3) if mode == "linear" else Fraction(2, 3)
    if n < 4:
        guarantee = None
    return Strategy(mode, support, "uniform-orderings", guarantee)


_K4FREE_LINEAR = (("abcd", 4), ("bcad", 4), ("cdba", 8), ("adbc", 8))
_K4FREE_CIRCULAR = (
    ("abdc", 2), ("badc", 2), ("dcba", 2), ("cbad", 2),
    ("adbc", 2), ("adcb", 2), ("acbd", 2), ("dbac", 2),
    ("cdab", 4), ("bcda", 4),
)


def k4free_strategy(g: Graph, mode: str = "linear") -> Strategy:
    """The modified all-orderings list for K4-free graphs.

    For every 4-set (with the labeled non-edge {a,c} chosen as the
    lexicographically least non-adjacent pair, b and d the remaining vertices
    in label order) and every suffix, the group of 24 orderings starting with
    the 4-set is replaced by a reweighted list of 24 that separates both
    induced nonincident pairs more often.  Minimum separation probability:
    1/3 + 4(n-4)!/n! linear, 2/3 + 4(n-4)!/n! circular.
    """
    n = g.n
    quad = find_k4(g)
    if quad is not None:
        raise StrategyError(f"graph contains the 4-clique {quad}; boost needs K4-free input")
    if n < 4:
        raise StrategyError("K4-free boost needs n >= 4")
    if n > K4FREE_N_CAP:
        raise StrategyError(f"K4-free boost support is n!; capped at n <= {K4FREE_N_CAP}")
    table = _K4FREE_LINEAR if mode == "linear" else _K4FREE_CIRCULAR
    weighted = []
    for quad_set in combinations(range(n), 4):
        ac = next(
            (pair for pair in combinations(quad_set, 2) if not g.has_edge(*pair)),
            None,
        )
        if ac is None:
            raise StrategyError(f"graph contains the 4-clique {quad_set}")
        a, c = ac
        b, d = sorted(set(quad_set) - {a, c})
        letters = {"a": a, "b": b, "c": c, "d": d}
        rest = [v for v in range(n) if v not in quad_set]
        for rho in permutations(rest):
            for word, w in table:
                prefix = tuple(letters[ch] for ch in word)
                weighted.append((prefix + rho, w))
    support = _merge_support(mode, weighted, factorial(n))
    base = Fraction(1, 3) if mode == "linear" else Fraction(2, 3)
    guarantee = base + Fraction(4 * factorial(n - 4), factorial(n))
    return Strategy(mode, support, "k4-free-boost", guarantee)


# ---------------------------------------------------------------------------
# Complete bipartite block distributions
# ---------------------------------------------------------------------------

def _require_parts(g: Graph, count: int):
    if g.parts is None or len(g.parts) != count:
        raise StrategyError(f"construction needs a complete {count}-partite graph")
    return g.parts


def bipartite_interleaved_strategy(g: Graph) -> Strategy:
    """Block orderings for complete bipartite graphs.

    Balanced K_{m,m}: uniform over orderings whose consecutive pairs each
    hold one vertex of either part; every pair is separated with probability
    (m+1)/(3m).  Shape K_{m+1,qm}: uniform over orderings placing the larger
    structure's X-vertices at positions divisible by q+1; the fraction is
    ((2m+1)mq-m-2)/(6m(mq-1)).
    """
    parts = _require_parts(g, 2)
    x_part, y_part = parts
    a, b = len(x_part), len(y_part)
    weighted = []
    if a == b:
        m = a
        if m < 2:
            raise StrategyError("balanced interleave needs m >= 2")
        _cap_check(factorial(m) ** 2 * 2 ** m)
        for px in permutations(x_part):
            for py in permutations(y_part):
                for flips in range(2 ** m):
                    perm = []
                    for i in range(m):
                        pair = (px[i], py[i]) if (flips >> i) & 1 else (py[i], px[i])
                        perm.extend(pair)
                    weighted.append((tuple(perm), 1))
        fraction = Fraction(m + 1, 3 * m)
        total = factorial(m) ** 2 * 2 ** m
        provenance = "balanced-interleave"
    else:
        m, q, xs, ys = _one_extra_shape(a, b, x_part, y_part)
        _cap_check(factorial(m + 1) * factorial(q * m))
        total = factorial(m + 1) * factorial(q * m)
        for px in permutations(xs):
            for py in permutations(ys):
                perm = []
                yi = iter(py)
                for i, x in enumerate(px):
                    perm.append(x)
                    if i < m:
                        perm.extend(next(yi) for _ in range(q))
                weighted.append((tuple(perm), 1))
        fraction = Fraction((2 * m + 1) * m * q - m - 2, 6 * m * (m * q - 1))
        provenance = "bipartite-blocks"
    support = _merge_support("linear", weighted, total)
    return Strategy("linear", support, provenance, fraction,
                    details={"fraction": fraction})


def _one_extra_shape(a, b, x_part, y_part):
    """Match part sizes to the (m+1, qm) shape, preferring the larger m."""
    candidates = []
    if a >= 2 and b % (a - 1) == 0 and (a - 1) * (b // (a - 1)) > 1:
        candidates.append((a - 1, b // (a - 1), x_part, y_part))
    if b >= 2 and a % (b - 1) == 0 and (b - 1) * (a // (b - 1)) > 1:
        candidates.append((b - 1, a // (b - 1), y_part, x_part))
    if not candidates:
        raise StrategyError(f"part sizes ({a},{b}) do not fit the (m+1, qm) shape")
    return max(candidates, key=lambda c: c[0])


# ---------------------------------------------------------------------------
# Complete tripartite block distributions
# ---------------------------------------------------------------------------

def tripartite_block_strategy(g: Graph, k: int | None = None) -> Strategy:
    """Block orderings for K_{m,m,m}, K_{m+1,m,m}, and K_{1,m,m}.

    Reported detail fractions: pairs with endpoints in two parts (D) and in
    three parts (T); for the split shape K_{1,m,m}, k is the number of
    mixed pairs placed before the singleton vertex (default: nearest integer
    to m/2, ties upward).
    """
    parts = _require_parts(g, 3)
    sizes = sorted(len(p) for p in parts)
    by_size = sorted(parts, key=len)
    weighted = []
    if sizes[0] == sizes[1] == sizes[2]:
        m = sizes[0]
        if m < 2:
            raise StrategyError("balanced tripartite blocks need m >= 2")
        x_part, y_part, z_part = parts
        _cap_check(factorial(m) ** 3 * 6 ** m)
        total = factorial(m) ** 3 * 6 ** m
        block_orders = list(permutations(range(3)))
        for px in permutations(x_part):
            for py in permutations(y_part):
                for pz in permutations(z_part):
                    for codes in _mixed_radix(len(block_orders), m):
                        perm = []
                        for i in range(m):
                            trip = (px[i], py[i], pz[i])
                            perm.extend(trip[j] for j in block_orders[codes[i]])
                        weighted.append((tuple(perm), 1))
        d_frac = Fraction(m + 1, 3 * m)
        t_frac = Fraction(2 * m + 1, 6 * m)
        details = {"D": d_frac, "T": t_frac}
        provenance = "tripartite-blocks"
        guarantee = min(d_frac, t_frac)
    elif sizes[0] == sizes[1] and sizes[2] == sizes[0] + 1:
        m = sizes[0]
        if m < 2:
            raise StrategyError("near-balanced tripartite blocks need m >= 2")
        x_part = by_size[2]
        y_part, z_part = by_size[0], by_size[1]
        _cap_check(2 * factorial(m + 1) * factorial(m) ** 2)
        total = 2 * factorial(m + 1) * factorial(m) ** 2
        for swap in (False, True):
            p2, p3 = (z_part, y_part) if swap else (y_part, z_part)
            for px in permutations(x_part):
                for py in permutations(p2):
                    for pz in permutations(p3):
                        perm = []
                        for i in range(m):
                            perm.extend((px[i], py[i], pz[i]))
                        perm.append(px[m])
                        weighted.append((tuple(perm), 1))
        d_frac = Fraction(m + 1, 3 * m)
        t_frac = Fraction(2 * m + 1, 6 * m)
        details = {"D": d_frac, "X": t_frac, "YZ": t_frac}
        provenance = "one-extra-tripartite-blocks"
        guarantee = min(d_frac, t_frac)
    elif sizes[0] == 1 and sizes[1] == sizes[2]:
        m = sizes[1]
        if m < 2:
            raise StrategyError("split shape needs m >= 2")
        if k is None:
            k = (m + 1) // 2
        if not 0 <= k <= m:
            raise StrategyError(f"split position k={k} out of range 0..{m}")
        x = by_size[0][0]
        y_part, z_part = by_size[1], by_size[2]
        _cap_check(factorial(m) ** 2 * 2 ** m)
        total = factorial(m) ** 2 * 2 ** m
        for py in permutations(y_part):
            for pz in permutations(z_part):
                for flips in range(2 ** m):
                    perm = []
                    for i in range(m):
                        if i == k:
                            perm.append(x)
                        pair = (py[i], pz[i]) if (flips >> i) & 1 else (pz[i], py[i])
                        perm.extend(pair)
                    if k == m:
                        perm.append(x)
                    weighted.append((tuple(perm), 1))
        t_frac = Fraction(split_tripartite_tcount(m, k), split_tripartite_tpairs(m))
        d_frac = Fraction(m + 1, 3 * m)
        details = {"D": d_frac, "T": t_frac, "k": k}
        provenance = "split-tripartite"
        guarantee = min(d_frac, t_frac)
    else:
        raise StrategyError(
            f"part sizes {tuple(sizes)} fit none of the tripartite block shapes"
        )
    support = _merge_support("linear", weighted, total)
    return Strategy("linear", support, provenance, guarantee, details=details)


def _mixed_radix(base, width):
    """All tuples in range(base)^width."""
    if width == 0:
        yield ()
        return
    for rest in _mixed_radix(base, width - 1):
        for digit in range(base):
            yield rest + (digit,)


def circular_spaced_strategy(g: Graph) -> Strategy:
    """Circular orderings of K_{m,qm} with the X-vertices equally spaced and
    q Y-vertices between successive ones; each pair is separated with
    probability (4mq+q-3)/(6(qm-1))."""
    parts = _require_parts(g, 2)
    p1, p2 = sorted(parts, key=len)
    m, t = len(p1), len(p2)
    if m < 2 or t % m != 0:
        raise StrategyError(f"part sizes ({m},{t}) do not fit the (m, qm) shape")
    q = t // m
    if q * m <= 1:
        raise StrategyError("equal spacing needs qm > 1")
    _cap_check(factorial(m) * factorial(t))
    total = factorial(m) * factorial(t)
    weighted = []
    for px in permutations(p1):
        for py in permutations(p2):
            perm = []
            yi = iter(py)
            for x in px:
                perm.append(x)
                perm.extend(next(yi) for _ in range(q))
            weighted.append((tuple(perm), 1))
    fraction = Fraction(4 * m * q + q - 3, 6 * (q * m - 1))
    support = _merge_support("circular", weighted, total)
    return Strategy("circular", support, "circular-equal-spacing", fraction,
                    details={"fraction": fraction})


# ---------------------------------------------------------------------------
# Randomized tree layouts
# ---------------------------------------------------------------------------

def rooted_tree(g: Graph, root: int):
    """(parent, children, depth) arrays for a tree rooted at ``root``."""
    if not is_tree(g):
        raise StrategyError("input graph is not a tree")
    parent = [-1] * g.n
    depth = [0] * g.n
    children = [[] for _ in range(g.n)]
    order = [root]
    seen = {root}
    for u in order:
        for w in sorted(g.adjacency[u]):
            if w not in seen:
                seen.add(w)
                parent[w] = u
                depth[w] = depth[u] + 1
                children[u].append(w)
                order.append(w)
    return parent, children, depth


def centroid(g: Graph) -> int:
    """Vertex minimizing the largest component left by its removal."""
    if not is_tree(g):
        raise StrategyError("centroid is defined here for trees")
    best, best_score = 0, g.n + 1
    for v in range(g.n):
        seen = {v}
        score = 0
        for w in g.adjacency[v]:
            if w in seen:
                continue
            stack = [w]
            seen.add(w)
            size = 0
            while stack:
                u = stack.pop()
                size += 1
                for z in g.adjacency[u]:
                    if z not in seen:
                        seen.add(z)
                        stack.append(z)
            score = max(score, size)
        if score < best_score:
            best, best_score = v, score
    return best


@lru_cache(maxsize=64)
def _tree_context(g: Graph, root: int):
    """Cached (parent, children, strict-descendant sets) for a rooted tree."""
    parent, children, _ = rooted_tree(g, root)
    n = g.n
    desc = [set() for _ in range(n)]
    order = [root]
    for u in order:
        order.extend(children[u])
    for u in reversed(order):
        for c in children[u]:
            desc[u].add(c)
            desc[u] |= desc[c]
    return parent, children, tuple(frozenset(s) for s in desc)


@dataclass
class TreePairClass:
    """One nonincident pair of tree edges with its layout separation class.

    kind 1: neither edge sits below the other (always separated).
    kind 2: one edge hangs below the lower endpoint of the other
            (separated with probability beta).
    kind 3: one edge hangs below the upper endpoint c of the other;
            probability 1 - (1-beta)^2/2 - beta^2/2, or 3/4 when c is the root.
    """

    pair: tuple
    kind: int
    root_involved: bool = False

    def probability(self, beta):
        if self.kind == 1:
            return Fraction(1) if isinstance(beta, Fraction) else 1.0
        if self.kind == 2:
            return beta
        if self.root_involved:
            return Fraction(3, 4) if isinstance(beta, Fraction) else 0.75
        one = Fraction(1) if isinstance(beta, Fraction) else 1.0
        return one - (one - beta) ** 2 / 2 - beta ** 2 / 2

    def formula(self) -> str:
        if self.kind == 1:
            return "1"
        if self.kind == 2:
            return "beta"
        if self.root_involved:
            return "3/4"
        return "1 - (1-beta)^2/2 - beta^2/2"


def tree_pair_classify(g: Graph, root: int | None = None):
    """Classify every nonincident pair of a rooted tree.

    Returns (root, classes).  Evaluating each class probability at a given
    beta and taking the minimum gives the layout strategy's exact guarantee.
    """
    if root is None:
        root = centroid(g)
    _, _, depth = rooted_tree(g, root)
    _, _, desc = _tree_context(g, root)
    pairs = nonincident_pairs(g)
    out = []
    for pair in pairs:
        e1, e2 = pair
        kind = None
        root_involved = False
        oriented = []
        for u, v in (e1, e2):
            hi, lo = (u, v) if depth[u] < depth[v] else (v, u)
            oriented.append((hi, lo))
        for idx, other in ((0, e2), (1, e1)):
            _, lo = oriented[idx]
            if other[0] in desc[lo] and other[1] in desc[lo]:
                kind = 2
                break
        if kind is None:
            for idx, other in ((0, e2), (1, e1)):
                hi, _ = oriented[idx]
                if other[0] in desc[hi] and other[1] in desc[hi]:
                    kind = 3
                    root_involved = hi == root
                    break
        if kind is None:
            kind = 1
        out.append(TreePairClass(pair, kind, root_involved))
    return root, out


def tree_guarantee(classes, beta):
    """Minimum separation probability over the classified pairs at beta."""
    if not classes:
        return Fraction(1) if isinstance(beta, Fraction) else 1.0
    return min(c.probability(beta) for c in classes)


def tree_strategy_sample(g: Graph, beta, rng: random.Random,
                         root: int | None = None) -> Ordering:
    """One linear layout from the randomized tree algorithm.

    Children of the root pick a side by a fair coin; children of any other
    vertex go between it and its parent with probability 1-beta and on the
    far side with probability beta, independently; the children landing on
    one side are placed immediately next to the vertex in a uniformly random
    order.  Each sample is checked against the subtree-interval property.
    """
    if root is None:
        root = centroid(g)
    if not 0 <= float(beta) <= 1:
        raise StrategyError("beta must lie in [0, 1]")
    parent, children, _ = _tree_context(g, root)
    beta_f = float(beta)
    layout = [root]
    queue = [root]
    while queue:
        u = queue.pop(0)
        kids = children[u]
        if not kids:
            continue
        u_at = layout.index(u)
        if u == root:
            left = [c for c in kids if rng.random() < 0.5]
        else:
            parent_left = layout.index(parent[u]) < u_at
            left = []
            for c in kids:
                toward_parent = rng.random() < 1 - beta_f
                if toward_parent == parent_left:
                    left.append(c)
        right = [c for c in kids if c not in left]
        rng.shuffle(left)
        rng.shuffle(right)
        layout[u_at:u_at] = left
        u_at += len(left)
        layout[u_at + 1:u_at + 1] = right
        queue.extend(kids)
    ordering = Ordering("linear", tuple(layout))
    if not layout_respects_subtrees(g, root, ordering):
        raise StrategyError("sampled layout violated the subtree property")
    return ordering


def layout_respects_subtrees(g: Graph, root: int, ordering: Ordering) -> bool:
    """Check the layout invariant: every vertex lying between a vertex u and a
    child of u is a descendant of u."""
    _, children, desc = _tree_context(g, root)
    pos = ordering.positions()
    perm = ordering.perm
    for u in range(g.n):
        for c in children[u]:
            lo, hi = sorted((pos[u], pos[c]))
            for p in range(lo + 1, hi):
                if perm[p] not in desc[u]:
                    return False
    return True


# ---------------------------------------------------------------------------
# Pair-player strategies (upper bounds on the game value)
# ---------------------------------------------------------------------------

@dataclass
class PairStrategy:
    """A distribution over nonincident pairs (indices into the pair list)."""

    weights: list[tuple[int, Fraction]]
    provenance: str

    def __post_init__(self):
        if sum(w for _, w in self.weights) != 1:
            raise StrategyError("pair weights must sum to 1")


def pair_player_strategy(g: Graph, kind: str, pair_indices=None) -> PairStrategy:
    """Pair-player distributions: uniform on one K4's three pairs, or uniform
    on an explicit class of pairs (typically one orbit)."""
    pairs = nonincident_pairs(g)
    index = {p: i for i, p in enumerate(pairs)}
    if kind == "k4-uniform":
        quad = find_k4(g)
        if quad is None:
            raise StrategyError("no 4-clique found for the k4-uniform strategy")
        a, b, c, d = quad
        chosen = [
            ((a, b), (c, d)),
            ((a, c), (b, d)),
            ((a, d), (b, c)),
        ]
        weights = [(index[p], Fraction(1, 3)) for p in chosen]
        return PairStrategy(weights, "k4-three-pairs")
    if kind == "orbit-uniform":
        if not pair_indices:
            raise StrategyError("orbit-uniform needs a nonempty list of pair indices")
        k = len(pair_indices)
        return PairStrategy(
            [(i, Fraction(1, k)) for i in sorted(pair_indices)], "class-uniform"
        )
    raise StrategyError(f"unknown pair strategy kind {kind!r}")


def pair_strategy_value_bound(g: Graph, mode: str, strategy: PairStrategy) -> Fraction:
    """Exact upper bound on the game value: the maximum over orderings of the
    probability that the strategy's pair is separated."""
    pairs = nonincident_pairs(g)
    weight_of = dict(strategy.weights)
    classes = [[i] for i in range(len(pairs))]
    weights = [weight_of.get(i, Fraction(0)) for i in range(len(pairs))]
    result = max_separation(g, mode, classes, weights)
    return result.score


# ---------------------------------------------------------------------------
# Closed-form counting identities for the block constructions
# ---------------------------------------------------------------------------

def interleave_separated_count(m: int) -> int:
    """Pairs of K_{m,m} separated by one interleaved ordering."""
    return 4 * comb(m, 4) + 5 * comb(m, 3) + comb(m, 2)


def balanced_bipartite_pairs(m: int) -> int:
    return 2 * comb(m, 2) ** 2


def block_bipartite_separated_count(m: int, q: int) -> int:
    """Pairs of K_{m+1,qm} separated by one block ordering."""
    return (
        4 * q * q * comb(m, 4)
        + (7 * q * q + comb(q, 2)) * comb(m, 3)
        + (3 * q * q + 2 * comb(q, 2)) * comb(m, 2)
        + comb(q, 2) * m
    )


def block_bipartite_pairs(m: int, q: int) -> int:
    return 2 * comb(m + 1, 2) * comb(m * q, 2)


def balanced_tripartite_tcount(m: int) -> int:
    """Three-part pairs of K_{m,m,m} separated by one block ordering."""
    return 24 * comb(m, 4) + 33 * comb(m, 3) + 10 * comb(m, 2)


def balanced_tripartite_tpairs(m: int) -> int:
    return 6 * m * m * comb(m, 2)


def one_extra_x_count(m: int) -> int:
    """X-pairs of K_{m+1,m,m} separated by one block ordering."""
    return 8 * comb(m, 4) + 15 * comb(m, 3) + 8 * comb(m, 2) + m


def one_extra_x_pairs(m: int) -> int:
    return m ** 3 * (m + 1)


def one_extra_yz_count(m: int) -> int:
    """Y-pairs plus Z-pairs of K_{m+1,m,m} separated by one block ordering."""
    return 16 * comb(m, 4) + 26 * comb(m, 3) + 10 * comb(m, 2)


def one_extra_yz_pairs(m: int) -> int:
    return 2 * m * m * (m * m - 1)


def split_tripartite_tcount(m: int, k: int) -> int:
    """Three-part pairs of K_{1,m,m} separated when the singleton sits after
    k mixed pairs."""
    return (
        2 * m * k * (m - k)
        + sum(comb(2 * j - 1, 2) for j in range(1, k + 1))
        + sum(comb(2 * j - 1, 2) for j in range(1, m - k + 1))
    )


def split_tripartite_tpairs(m: int) -> int:
    return 2 * m * m * (m - 1)


def odd_binomial_prefix_sum(k: int) -> int:
    """Sum of C(2j-1, 2) for j = 1..k; closed form (4k+1)k(k-1)/6."""
    return sum(comb(2 * j - 1, 2) for j in range(1, k + 1))
