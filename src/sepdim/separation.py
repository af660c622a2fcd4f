"""Separation predicates, payoff rows, the exact linear best response, and
covering checks.  Every search here is exact and runs in one process.

Linear separation: both endpoints of one edge precede both endpoints of the
other.  Circular separation: the four endpoints do not alternate around the
circle.  Every payoff-row source maps a packed per-class *miss* key to the
first ordering that reaches it; a miss is an unseparated pair (linear) or an
alternating pair (circular).  A key holds one little-endian field of
``_field_bytes(sizes)`` bytes per class, with a spare top bit, and
``pareto_filter`` turns keys into rows.  The linear kernel (``_linear_scan``)
indexes position maps directly; enumeration visits one map per reversal pair,
as every verdict is reversal-invariant.  The circular kernel keys alternation
bitmasks, which are XORs over the ordered vertex pairs and split at a prefix
(``_CircularSplit``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import lcm

from .graphs import EdgePair, Graph, nonincident_pairs

LINEAR_ENUM_CAP = 10
CIRCULAR_ENUM_CAP = 10
LINEAR_DP_CAP = 16
INTEGER_LINEAR_CAP = 7
INTEGER_CIRCULAR_CAP = 8

MODES = ("linear", "circular")


class EnumerationCapExceeded(RuntimeError):
    """Requested enumeration is over the configured size cap."""


@dataclass(frozen=True)
class Ordering:
    """A vertex ordering: a permutation of 0..n-1, linear or circular.

    Circular orderings are canonicalized at construction: rotated so the
    smallest label comes first, direction chosen so the second entry is
    smaller than the last.  Rotation and reflection never change a circular
    separation verdict, so canonicalization is free.
    """

    mode: str
    perm: tuple[int, ...]

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        if self.mode == "circular" and n >= 3:
            perm = self.perm
            k = perm.index(min(perm))
            perm = perm[k:] + perm[:k]
            if perm[1] > perm[-1]:
                perm = (perm[0],) + tuple(reversed(perm[1:]))
            object.__setattr__(self, "perm", perm)

    @property
    def n(self) -> int:
        return len(self.perm)

    def positions(self) -> list[int]:
        return _positions(self.perm)

    def reversed(self) -> "Ordering":
        return Ordering(self.mode, tuple(reversed(self.perm)))

    def serialize(self) -> str:
        prefix = "lin" if self.mode == "linear" else "circ"
        return prefix + ":" + ",".join(map(str, self.perm))

    @classmethod
    def parse(cls, text: str) -> "Ordering":
        head, _, rest = text.partition(":")
        mode = {"lin": "linear", "circ": "circular"}.get(head)
        if mode is None or not rest:
            raise ValueError(f"cannot parse ordering {text!r}")
        return cls(mode, tuple(int(x) for x in rest.split(",")))


def _linear_separated(pos, a, b, c, d) -> bool:
    pa, pb = pos[a], pos[b]
    if pa > pb:
        pa, pb = pb, pa
    pc, pd = pos[c], pos[d]
    if pc > pd:
        pc, pd = pd, pc
    return pb < pc or pd < pa


def _circular_separated(pos, a, b, c, d) -> bool:
    # Separated iff {c,d} does not alternate with {a,b}: either both or
    # neither of c,d fall inside the arc (pos[a], pos[b]).
    pa, pb = pos[a], pos[b]
    if pa > pb:
        pa, pb = pb, pa
    return (pa < pos[c] < pb) == (pa < pos[d] < pb)


def separates(ordering: Ordering, pair: EdgePair) -> bool:
    """Whether one ordering separates one nonincident edge pair."""
    (a, b), (c, d) = pair
    pos = ordering.positions()
    if ordering.mode == "linear":
        return _linear_separated(pos, a, b, c, d)
    return _circular_separated(pos, a, b, c, d)


def count_separated(ordering: Ordering, pairs, classes=None) -> tuple[int, ...]:
    """Per-class counts of pairs separated by one ordering.

    ``classes`` holds disjoint lists of pair indices (a partition of all
    pairs in the game reduction); None means a single class of all pairs.
    The result is the ordering's payoff vector.
    """
    if classes is None:
        classes = [list(range(len(pairs)))]
    pos = ordering.positions()
    test = _linear_separated if ordering.mode == "linear" else _circular_separated
    counts = []
    for cls in classes:
        c = 0
        for i in cls:
            (a, b), (cc, dd) = pairs[i]
            if test(pos, a, b, cc, dd):
                c += 1
        counts.append(c)
    return tuple(counts)


# ---------------------------------------------------------------------------
# Payoff rows: miss keys, the two kernels and the Pareto step
# ---------------------------------------------------------------------------

def _pair_specs(pairs, classes):
    """Flatten pairs into (a, b, c, d, class_index) tuples."""
    cls_of = {}
    for k, cls in enumerate(classes):
        for i in cls:
            cls_of[i] = k
    if len(cls_of) != len(pairs):
        raise ValueError("classes must partition the pair list")
    return [
        (p[0][0], p[0][1], p[1][0], p[1][1], cls_of[i])
        for i, p in enumerate(pairs)
    ]


def _singleton_classes(npairs):
    return [[i] for i in range(npairs)]


def _field_bytes(sizes):
    """Bytes per class field of a miss key: the largest class size plus a
    spare top bit."""
    return (max(sizes, default=0).bit_length() + 8) // 8


def _misses(key, nclasses, w):
    """Per-class miss counts of a key with ``w``-byte fields."""
    raw = key.to_bytes(w * nclasses, "little")
    if w == 1:
        return raw
    return [int.from_bytes(raw[i:i + w], "little") for i in range(0, len(raw), w)]


def _key_counts(key, sizes, w):
    """Per-class separated counts of a miss key."""
    return tuple(size - m for size, m in zip(sizes, _misses(key, len(sizes), w)))


def _reversal_half(n):
    """One position map of each reversal pair, in lex order.  The reversed
    ordering has position map n-1-q, so q[0] (with a q[1] tiebreak for the
    odd-n center) decides which copy is kept."""
    half = n - 1
    for q in permutations(range(n)):
        d0 = 2 * q[0] - half
        if d0 < 0 or (d0 == 0 and 2 * q[1] < half):
            yield q


def _linear_scan(maps, pairs, classes):
    """The first position map of ``maps`` per miss key: the linear kernel.

    A pair is missed unless both endpoints of one edge precede both of the
    other's; a miss of class k adds ``1 << 8 * w * k`` to the key.
    """
    w = _field_bytes([len(c) for c in classes])
    specs = [(a, b, c, d, 1 << (8 * w * k))
             for a, b, c, d, k in _pair_specs(pairs, classes)]
    found = {}
    for q in maps:
        key = 0
        for a, b, c, d, unit in specs:
            pa = q[a]; pb = q[b]
            if pa > pb:
                pa, pb = pb, pa
            pc = q[c]; pd = q[d]
            if pc > pd:
                pc, pd = pd, pc
            if pc < pb and pa < pd:
                key += unit
        if key not in found:
            found[key] = q
    return found


def _cross(n, pairs):
    """Bitmasks ``cross[x][y]`` of the pairs with x in the first edge and y
    in the second."""
    cross = [[0] * n for _ in range(n)]
    for i, ((a, b), (c, d)) in enumerate(pairs):
        for x in (a, b):
            for y in (c, d):
                cross[x][y] |= 1 << i
    return cross


def _within(seq, cross):
    """XOR of cross[x][y] over every x placed before y in ``seq``."""
    mask = 0
    for j in range(1, len(seq)):
        y = seq[j]
        for x in seq[:j]:
            mask ^= cross[x][y]
    return mask


def _mask_keys(masks, classes, npairs):
    """Miss keys of alternation masks: the circular kernel's key step.

    A popcount per class or, when classes outnumber the mask's bytes, 8-bit
    lookup tables that sum the units of each byte's set bits.
    """
    w = _field_bytes([len(c) for c in classes])
    nbytes = (npairs + 7) // 8
    if len(classes) <= nbytes:
        keys = [0] * len(masks)
        for k, c in enumerate(classes):
            bits = sum(1 << i for i in c)
            shift = 8 * w * k
            keys = [x + ((m & bits).bit_count() << shift) for x, m in zip(keys, masks)]
        return keys
    unit = [0] * npairs
    for k, c in enumerate(classes):
        for i in c:
            unit[i] = 1 << (8 * w * k)
    tables = []
    for j in range(nbytes):
        table = [0] * 256
        for b in range(1, 256):
            i = 8 * j + (b & -b).bit_length() - 1
            table[b] = table[b & (b - 1)] + (unit[i] if i < npairs else 0)
        tables.append(table)
    at = list.__getitem__
    return [sum(map(at, tables, m.to_bytes(nbytes, "little"))) for m in masks]


def canonical_prefixes(n, k, group=(), chains=None):
    """The prefixes (v1..vk) of distinct vertices of 1..n-1 that are
    lexicographically least in their orbit under the elements of ``group``
    fixing vertex 0, in lex order.

    A DFS down the point-stabiliser chain: at depth j, v is allowed unless
    an element fixing 0, v1..v_{j-1} maps v below itself, and the elements
    that fix v as well go down one level.  A prefix is least in its orbit
    exactly when every step is allowed: an element mapping it lower agrees
    with it up to some v_j and maps v_j lower.  With ``chains`` (vertex
    tuples, 0 heading its chain) v must also be the next of its chain.  No
    group and no chains allow every prefix: ``permutations(range(1, n), k)``.
    """
    before = {v: u for c in chains or () for u, v in zip(c, c[1:])}
    yield from _prefixes((0,), [h for h in group if h[0] == 0], before, n, k)


def _prefixes(placed, stab, before, n, k):
    """The canonical extensions of ``placed`` (0 first) by k more vertices;
    ``stab`` holds the elements fixing every placed vertex, and ``before``
    maps a vertex to its predecessor in its chain."""
    if not k:
        yield placed[1:]
        return
    for v in range(1, n):
        if (v in placed or (before and before.get(v, 0) not in placed)
                or any(h[v] < v for h in stab)):
            continue
        yield from _prefixes(placed + (v,), [h for h in stab if h[v] == v],
                             before, n, k - 1)


class _CircularSplit:
    """Alternation masks of every circular ordering, by a prefix split.

    Fix vertex 0 first and read positions linearly.  Chords ab and cd
    alternate iff [a<c] ^ [a<d] ^ [b<c] ^ [b<d], where [x<y] means x comes
    before y, so an ordering's alternation mask (bit i set when pair i
    alternates) is the XOR of ``cross[x][y]`` over every x placed before y
    (``_within``).  Write the ordering as 0.P.Q, where P arranges a set S of
    k = (n-1)//2 vertices and Q arranges the rest R.  Then the mask is
    W(0.P) ^ W(Q) ^ X(S): the within-sequence XORs, plus the XOR of
    ``cross[x][y]`` over x in {0} + S and y in R.  Reversal keeps
    alternation, so the masks of all 0.P.Q are exactly those of the
    canonical orderings.

    ``group`` holds vertex permutations that map every pair class onto
    itself, and only the prefixes P of ``canonical_prefixes`` are split:
    those least in their orbit under the elements fixing 0.  Tails are
    built only for the sets S those prefixes cover.

    The miss keys are unchanged.  An element h maps pair i to a pair of
    the same class, and h.sigma alternates on h(i) iff sigma alternates on
    i, so sigma and h.sigma share a key.  Every 0.P.Q maps to 0.h(P).h(Q)
    with h(P) canonical, for the h fixing 0 that makes h(P) least.

    The witnesses are unchanged too.  Let sigma = 0.P.Q be the least
    canonical ordering (second entry below the last) with a key, and
    suppose P were not canonical: some h fixes 0, v1..v_{j-1} and maps v_j
    lower.  Then h.sigma has the same key and is lex-smaller than sigma.
    If h.sigma is not canonical, its second entry h(v1) exceeds its last,
    and its reversal 0.(h(P).h(Q)) reversed is canonical, has the same key
    and starts 0, x with x < h(v1) <= v1, so it is smaller than sigma too.
    Either way sigma was not least, so its prefix is canonical and the
    lex-order walk over canonical prefixes in ``witnesses`` meets it first.

    ``chains`` (vertex tuples holding every vertex, 0 heading its chain,
    such as the parts in label order) restrict P and Q to the orderings
    that keep every chain in order; the classes must map onto themselves
    under permutations within the chains, as part signature classes do.
    The keys are kept: rotate an ordering to start in 0's chain and relabel
    within the chains, and it is a chain-kept 0.P.Q.  The direction test is
    dropped, so the witness is the least chain-kept 0.P.Q with its key.
    For parts that are label ranges in part order, lex order on chain-kept
    orderings is lex order on their part-label patterns, and the least
    rotation or reflection of the witness's pattern is again chain-kept
    with 0 first and has the same key, so it is not smaller: the witness is
    the least bracelet pattern with the key.
    """

    def __init__(self, n, pairs, group=(), chains=None):
        cross = _cross(n, pairs)
        self.chains = chains
        k = (n - 1) // 2
        before = {v: u for c in chains or () for u, v in zip(c, c[1:])}
        self.prefixes = list(canonical_prefixes(n, k, group, chains))
        self.head = {}    # P -> W(0.P) ^ X(S)
        self.tails = {}   # S as a vertex bitmask -> ([(Q, W(Q))] in lex order, distinct W(Q))
        self.groups = {}  # S -> (distinct heads, distinct W(Q))
        cuts = {}         # S -> X(S)
        for p in self.prefixes:
            s = sum(1 << v for v in p)
            if s not in cuts:
                r = [v for v in range(1, n) if not s >> v & 1]
                cuts[s] = 0
                for x in (0,) + p:
                    for y in r:
                        cuts[s] ^= cross[x][y]
                orders = permutations(r) if chains is None else (
                    t[k:] for t in _prefixes((0,) + p, (), before, n, len(r)))
                tails = [(q, _within(q, cross)) for q in orders]
                distinct = tuple({m for _, m in tails})
                self.tails[s] = (tails, distinct)
                self.groups[s] = (set(), distinct)
            self.head[p] = m = _within((0,) + p, cross) ^ cuts[s]
            self.groups[s][0].add(m)

    def masks(self):
        """Every distinct alternation mask of the split orderings: h ^ t
        over each S's distinct prefix and suffix masks."""
        out = set()
        for heads, tails in self.groups.values():
            out |= {h ^ t for h in heads for t in tails}
        return out

    def witnesses(self, masks_of):
        """The lexicographically least canonical ordering (0 first, second
        entry smaller than last) per key of ``masks_of``, which maps each
        key to the alternation masks it stands for (with chains, either way).

        One pass over (P, Q) in lex order, P over the canonical prefixes; a
        prefix whose masks miss every unwitnessed target is skipped, and
        the pass ends once every key has its witness.
        """
        target = {m: key for key, ms in masks_of.items() for m in ms}
        found = {}
        for p in self.prefixes:
            head = self.head[p]
            tails, distinct = self.tails[sum(1 << v for v in p)]
            if target.keys().isdisjoint([head ^ m for m in distinct]):
                continue
            first = p[0]
            for q, m in tails:
                key = target.get(head ^ m)
                if key is not None and (self.chains or first < q[-1]):
                    found[key] = (0,) + p + q
                    for x in masks_of[key]:
                        del target[x]
                    if not target:
                        return found
        return found


def _circular_payoffs(n, pairs, classes, pareto, group=(), chains=None):
    """Payoff rows over circular orderings from the split's masks.

    The rows come from the masks' miss keys; only the rows get witnesses,
    found by the split from the masks of each row's key; ``group`` and
    ``chains`` are those of ``_CircularSplit``.
    """
    split = _CircularSplit(n, pairs, group, chains)
    masks = list(split.masks())
    keys = _mask_keys(masks, classes, len(pairs))
    found = dict(zip(keys, keys))
    sizes = [len(c) for c in classes]
    rows = pareto_filter(found, sizes) if pareto else _key_rows(found, sizes)
    wanted = {key: [] for _, key in rows}
    for m, key in zip(masks, keys):
        if key in wanted:
            wanted[key].append(m)
    perms = split.witnesses(wanted)
    return [(counts, Ordering("circular", perms[key])) for counts, key in rows]


def _key_rows(found, sizes):
    """Every (counts, witness) row of ``found``, sorted by counts."""
    w = _field_bytes(sizes)
    return sorted((_key_counts(key, sizes, w), witness) for key, witness in found.items())


def pareto_filter(found, sizes):
    """The Pareto-kept (counts, witness) rows of ``found``, which maps each
    miss key to its witness; ``sizes`` are the class sizes.

    A row is dropped when another row separates at least as many pairs in
    every class: it never helps the maximizing ordering player, so the game
    value is kept.  Key b beats or ties key a iff a - b borrows in no field,
    which the spare top bits show in one subtraction; in order of total
    misses every such b comes before a.  Rows come larger totals first, then
    by counts.
    """
    w = _field_bytes(sizes)
    guard = sum(1 << (8 * w * (k + 1) - 1) for k in range(len(sizes)))
    front = []
    for a in sorted(found, key=lambda key: sum(_misses(key, len(sizes), w))):
        if all((a | guard) - b & guard != guard for b in front):
            front.append(a)
    rows = [(_key_counts(a, sizes, w), found[a]) for a in front]
    return sorted(rows, key=_pareto_order)


def _pareto_order(row):
    """Row order of ``pareto_filter``: larger totals first, then by counts."""
    return (-sum(row[0]), row[0])


def check_cap(what, n, limit):
    """Refuse a graph over the vertex cap of the path that would run."""
    if n > limit:
        raise EnumerationCapExceeded(
            f"{what} is capped at n <= {limit} (graph has n={n})"
        )


def _positions(perm):
    """Position map of a vertex sequence; it is also the sequence of a
    position map."""
    pos = [0] * len(perm)
    for i, v in enumerate(perm):
        pos[v] = i
    return pos


def enumerate_payoffs(g: Graph, mode: str, classes=None, *, pareto=True,
                      group=()):
    """Distinct payoff vectors achieved by any ordering of the given mode.

    Returns a list of (counts, witness Ordering), deduplicated and (by
    default) Pareto-filtered, deterministically ordered; each witness is the
    least ordering with its vector.  Linear mode scans the position maps of
    one ordering per reversal pair (``_linear_scan``), circular mode runs
    the XOR-split kernel (``_CircularSplit``).  ``group`` holds vertex
    permutations that map every class onto itself, such as the automorphisms
    the orbit classes came from; the circular kernel splits only the
    prefixes least under them, with the same rows and witnesses.  No group
    is the identity.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    check_cap(f"{mode} enumeration", g.n,
              LINEAR_ENUM_CAP if mode == "linear" else CIRCULAR_ENUM_CAP)
    pairs = nonincident_pairs(g)
    if classes is None:
        classes = _singleton_classes(len(pairs))
    if not pairs:
        trivial = Ordering(mode, tuple(range(g.n)))
        return [((0,) * len(classes), trivial)]
    _pair_specs(pairs, classes)  # raises unless ``classes`` partition the pairs
    if mode == "circular":
        return _circular_payoffs(g.n, pairs, classes, pareto, group)
    found = _linear_scan(_reversal_half(g.n), pairs, classes)
    sizes = [len(c) for c in classes]
    rows = pareto_filter(found, sizes) if pareto else _key_rows(found, sizes)
    return [(counts, Ordering("linear", tuple(_positions(q)))) for counts, q in rows]


# ---------------------------------------------------------------------------
# Maximum separation search
# ---------------------------------------------------------------------------

@dataclass
class MaxSeparation:
    score: Fraction
    ordering: Ordering


def max_separation(g: Graph, mode: str, classes=None, weights=None) -> MaxSeparation:
    """Maximize the weighted per-class separated counts over orderings.

    Exhaustive within the enumeration caps: the best payoff row of
    ``enumerate_payoffs``.  This is the independent reference the DP-based
    solves are checked against.
    """
    pairs = nonincident_pairs(g)
    if classes is None:
        classes = _singleton_classes(len(pairs))
    if weights is None:
        weights = [Fraction(1)] * len(classes)
    weights = [Fraction(w) for w in weights]
    if not pairs:
        return MaxSeparation(Fraction(0), Ordering(mode, tuple(range(g.n))))
    # Pareto filtering is only sound for nonnegative weights.
    keep_pareto = all(w >= 0 for w in weights)
    rows = enumerate_payoffs(g, mode, classes, pareto=keep_pareto)
    best = None
    for counts, ordering in rows:
        score = sum(w * c for w, c in zip(weights, counts))
        if best is None or score > best[0]:
            best = (score, ordering)
    return MaxSeparation(best[0], best[1])


def best_response(g: Graph, classes, weights, chains=None) -> MaxSeparation:
    """Exact maximum of the weighted linear separation count, by a subset DP.

    ``weights[k]`` scores every separated pair of class k, as in
    ``max_separation``.  Pair (e, f) is separated with f first exactly when
    the first endpoint v of e is placed while f lies inside the placed set S
    and e's other endpoint does not, so the gain of placing v after S depends
    only on (S, v) and a DP over placed sets is exact.

    ``chains`` are vertex tuples that together hold every vertex; a move
    places the next unplaced vertex of one chain, so the DP maximizes over
    the orderings that keep each chain in its order.  None makes every vertex
    its own chain: the Held-Karp DP over all 2^n sets and all n! orderings.
    ``g.parts`` gives the canonical pattern orderings of a complete
    multipartite graph (``symmetry.pattern_sequence``), over the prod(s_i+1)
    sets whose part prefixes are placed.  The DP walks the sets in integer
    order, which is topological because a move adds a bit, and skips the
    sets no move reaches.  Weights are scaled to integers by their common
    denominator.  The returned score is re-checked against a recount of the
    witness ordering.
    """
    n = g.n
    check_cap("linear subset DP", n, LINEAR_DP_CAP)
    pairs = nonincident_pairs(g)
    weights = [Fraction(w) for w in weights]
    if not pairs:
        return MaxSeparation(Fraction(0), Ordering("linear", tuple(range(n))))
    denom = lcm(*(w.denominator for w in weights))
    scaled = [int(w * denom) for w in weights]
    if chains is None:
        chains = [(v,) for v in range(n)]
    # Each chain ends in -1, which the DP reads once the chain is placed.
    moves = [(tuple(chain) + (-1,), sum(1 << v for v in chain)) for chain in chains]

    specs = _pair_specs(pairs, classes)
    edge_id = {}
    ends = []
    for a, b, c, d, _ in specs:
        for edge in ((a, b), (c, d)):
            if edge not in edge_id:
                edge_id[edge] = len(ends)
                ends.append((1 << edge[0]) | (1 << edge[1]))
    m = len(ends)
    # pair_weight[e][f]: weight gained when f is fully placed before e starts.
    pair_weight = [[0] * m for _ in range(m)]
    for a, b, c, d, k in specs:
        e, f = edge_id[(a, b)], edge_id[(c, d)]
        pair_weight[e][f] = pair_weight[f][e] = scaled[k]
    incident = [[e for e in range(m) if ends[e] >> v & 1] for v in range(n)]

    full = (1 << n) - 1
    floor = -sum(abs(scaled[k]) for *_, k in specs) - 1
    best = [floor] * (full + 1)
    best[0] = 0
    last = bytearray(full + 1)
    edge_range = range(m)
    for placed in range(full):
        base = best[placed]
        if base == floor:
            continue
        inside = [f for f in edge_range if ends[f] & placed == ends[f]]
        gain_of = {
            e: sum(map(pair_weight[e].__getitem__, inside))
            for e in edge_range if not ends[e] & placed
        }
        for chain, chain_mask in moves:
            v = chain[(placed & chain_mask).bit_count()]
            if v < 0:
                continue
            gain = base
            for e in incident[v]:
                if e in gain_of:
                    gain += gain_of[e]
            nxt = placed | 1 << v
            if gain > best[nxt]:
                best[nxt] = gain
                last[nxt] = v

    perm = []
    placed = full
    while placed:
        v = last[placed]
        perm.append(v)
        placed ^= 1 << v
    ordering = Ordering("linear", tuple(reversed(perm)))
    score = Fraction(best[full], denom)
    counts = count_separated(ordering, pairs, classes)
    if sum(w * c for w, c in zip(weights, counts)) != score:
        raise AssertionError("subset DP score disagrees with a recount of its witness")
    return MaxSeparation(score, ordering)


# ---------------------------------------------------------------------------
# Covering verification and small exact covers
# ---------------------------------------------------------------------------

def verify_separating_family(g: Graph, orderings, t: int = 1):
    """Check that every nonincident pair is separated at least t times.

    Returns (ok, deficiencies) where deficiencies lists (pair, count) for
    every pair separated fewer than t times.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    if len({o.mode for o in orderings}) > 1:
        raise ValueError("orderings must share one mode")
    pairs = nonincident_pairs(g)
    counts = [0] * len(pairs)
    for o in orderings:
        if o.n != g.n:
            raise ValueError("ordering is not over V(G)")
        pos = o.positions()
        test = _linear_separated if o.mode == "linear" else _circular_separated
        for i, ((a, b), (c, d)) in enumerate(pairs):
            if test(pos, a, b, c, d):
                counts[i] += 1
    deficiencies = [(pairs[i], counts[i]) for i in range(len(pairs)) if counts[i] < t]
    return (not deficiencies), deficiencies


def circular_sepdim_is_one(g: Graph):
    """Whether one circular ordering separates every pair (outerplanarity):
    whether 0 is among the alternation masks.

    Returns (bool, witness Ordering or None); the witness is the least
    canonical ordering that separates every pair.
    """
    pairs = nonincident_pairs(g)
    if not pairs:
        return True, Ordering("circular", tuple(range(g.n)))
    check_cap("circular enumeration", g.n, CIRCULAR_ENUM_CAP)
    split = _CircularSplit(g.n, pairs)
    if 0 not in split.masks():
        return False, None
    return True, Ordering("circular", split.witnesses({0: [0]})[0])


def integer_sepdim(g: Graph, mode: str = "linear", t: int = 1) -> int:
    """Exact minimum multiset of orderings separating every pair >= t times.

    Branch and bound over the inclusion-maximal separation sets (a superset
    is never worse): on 0/1 vectors these are exactly the Pareto-kept rows
    of ``enumerate_payoffs`` over singleton classes.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    pairs = nonincident_pairs(g)
    if not pairs:
        return 0
    check_cap(f"integer {mode} cover", g.n,
              INTEGER_LINEAR_CAP if mode == "linear" else INTEGER_CIRCULAR_CAP)
    maximal = sorted(
        sum(1 << i for i, c in enumerate(counts) if c)
        for counts, _ in enumerate_payoffs(g, mode)
    )
    npairs = len(pairs)
    covering = [[m for m in maximal if (m >> i) & 1] for i in range(npairs)]
    if any(not c for c in covering):
        raise RuntimeError("some pair is never separated; inconsistent enumeration")
    max_cover = max(bin(m).count("1") for m in maximal)

    # Greedy multiset cover seeds the upper bound.
    need = [t] * npairs
    upper = 0
    while any(need):
        best = max(
            maximal,
            key=lambda m: sum(1 for i in range(npairs) if need[i] and (m >> i) & 1),
        )
        for i in range(npairs):
            if need[i] and (best >> i) & 1:
                need[i] -= 1
        upper += 1

    state = {"best": upper}
    need = [t] * npairs

    def rec(depth, deficiency):
        if deficiency == 0:
            state["best"] = min(state["best"], depth)
            return
        if depth + (deficiency + max_cover - 1) // max_cover >= state["best"]:
            return
        target = min(
            (i for i in range(npairs) if need[i]),
            key=lambda i: len(covering[i]),
        )
        for m in covering[target]:
            hit = [i for i in range(npairs) if need[i] and (m >> i) & 1]
            for i in hit:
                need[i] -= 1
            rec(depth + 1, deficiency - len(hit))
            for i in hit:
                need[i] += 1

    rec(0, npairs * t)
    return state["best"]
