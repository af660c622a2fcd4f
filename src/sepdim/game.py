"""Exact solution of the separation game and the fractional covering LP.

The ordering player picks a vertex ordering, the pair player picks a
nonincident edge pair (or a pair class); the payoff is the probability the
chosen pair is separated.  The fractional separation dimension is the
reciprocal of the game value and equals the optimum of the covering LP
"minimize total ordering weight so every pair class is covered once".

That covering LP is solved through its packing dual (max 1.v s.t. Av <= 1,
v >= 0), which starts feasible on the slack basis, with Bland's rule; the
ordering weights are the duals of the packing rows.  Pivoting is
fraction-free: with v_q = |class q| * u_q the constraint matrix is the raw
integer counts, and one integer tableau with a common denominator takes
exactly the pivots Bland's rule takes over Fractions (see ``_simplex_max``).
The optimality certificate is recomputed from the raw matrix, independent of
the pivot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import Graph, complete_multipartite, nonincident_pairs
from .separation import (
    CIRCULAR_ENUM_CAP,
    LINEAR_DP_CAP,
    LINEAR_ENUM_CAP,
    EnumerationCapExceeded,
    Ordering,
    _circular_payoffs,
    _linear_scan,
    _positions,
    best_response,
    check_cap,
    count_separated,
    enumerate_payoffs,
    pareto_filter,
)
from .symmetry import (
    automorphisms,
    multipartite_patterns,
    pair_orbits,
    pattern_sequence,
    signature_classes,
)

# Caps circular patterns only, which are enumerated; linear patterns run
# the subset DP under LINEAR_DP_CAP.
PATTERN_N_CAP = 14
BIPARTITE_SCAN_CAP = 14
TRIPARTITE_SCAN_CAP = 12
REDUCTIONS = ("auto", "none", "orbits", "patterns")


class GameError(ValueError):
    """Malformed game input."""


class LPUnbounded(RuntimeError):
    pass


def _simplex_max(matrix, objective):
    """Maximize objective.u subject to matrix.u <= 1, u >= 0, integer data.

    Fraction-free (integer-preserving) pivoting: one integer tableau shares
    the denominator d, the previous pivot element (d = 1 at the slack
    basis).  Pivoting on (r, e) with p = T[r][e] keeps row r and sets every
    other row, the cost row included, to (x*p - x_e*y) // d; by Sylvester's
    identity every entry is a minor of the starting tableau, so the division
    is exact.  Then d = p.  The true tableau is T/d with d > 0, so every sign
    test and every ratio comparison (done by cross-multiplication) is the
    one Bland's rule makes over Fractions: the lowest eligible index enters,
    ratio ties go to the lowest basic index, and the pivot path, the final
    basis and the returned vertex are those of the Fraction tableau (Bareiss
    1968, Math. Comp. 22).

    ``solve_game`` passes the counts and the class sizes: its packing LP in
    u_q = v_q / |class q|.  Scaling a column by a positive constant changes
    no reduced-cost sign and no ratio-test argmin, so this is also the path
    of Bland's rule on the Fraction matrix counts / |class|.  Returns
    (optimum, u, row_duals) as Fractions, built once from the last tableau.
    """
    m = len(matrix)
    k = len(objective)
    tableau = [
        list(row) + [1 if j == i else 0 for j in range(m)] + [1]
        for i, row in enumerate(matrix)
    ]
    cost = list(objective) + [0] * (m + 1)
    basis = list(range(k, k + m))
    width = k + m
    d = 1

    while True:
        enter = -1
        for j in range(width):
            if cost[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # ratio_i < ratio_leave, both over the common denominator d.
                lhs = tableau[i][-1] * tableau[leave][enter]
                rhs = tableau[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise LPUnbounded("packing LP unbounded: a pair class is never separated")
        prow = tableau[leave]
        p = prow[enter]
        for i in range(m):
            if i == leave:
                continue
            row = tableau[i]
            f = row[enter]
            if f:
                tableau[i] = [(x * p - f * y) // d for x, y in zip(row, prow)]
            elif p != d:
                tableau[i] = [x * p // d for x in row]
        f = cost[enter]
        cost = [(x * p - f * y) // d for x, y in zip(cost, prow)]
        basis[leave] = enter
        d = p

    u = [Fraction(0)] * k
    for i, b in enumerate(basis):
        if b < k:
            u[b] = Fraction(tableau[i][-1], d)
    duals = [Fraction(-cost[k + i], d) for i in range(m)]
    optimum = sum(c * x for c, x in zip(objective, u))
    return optimum, u, duals


@dataclass
class GameSolution:
    """Exact game value with matching primal and dual strategies.

    ``value`` is the separation game value t, ``pi_f`` = 1/t is the covering
    optimum.  ``primal`` weights orderings (by serialized key), ``dual``
    weights pair classes; each side sums to one and the two mixed payoffs
    meet exactly at ``value``.  Graphs without nonincident pairs get
    ``pi_f`` = 0 and no strategies.
    """

    pi_f: Fraction
    value: Fraction | None
    primal: list[tuple[str, Fraction]] = field(default_factory=list)
    dual: list[tuple[str, Fraction]] = field(default_factory=list)
    mode: str = "linear"
    reduction: str = "none"
    class_sizes: list[int] = field(default_factory=list)
    class_labels: list[str] = field(default_factory=list)

    def to_json_dict(self):
        out = {
            "pi_f": _frac_str(self.pi_f),
            "value": _frac_str(self.value) if self.value is not None else None,
            "mode": self.mode,
            "reduction": self.reduction,
            "primal": [[key, _frac_str(w)] for key, w in self.primal],
            "dual": [[key, _frac_str(w)] for key, w in self.dual],
            "classes": [
                {"label": lbl, "size": size}
                for lbl, size in zip(self.class_labels, self.class_sizes)
            ],
        }
        return out


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def solve_game(rows, class_sizes, class_labels=None, *, mode="linear",
               reduction="none") -> GameSolution:
    """Solve the reduced separation game.

    ``rows`` is a list of (counts per class, key); matrix entries are
    counts/|class|, so the reduced value equals the unreduced one.  The
    returned certificate (min primal-mixed payoff = value = max dual-mixed
    payoff) is asserted from the raw matrix.
    """
    rows = list(rows)
    if not rows:
        raise GameError("at least one payoff row is required")
    if any(s <= 0 for s in class_sizes):
        raise GameError("class sizes must be positive")
    k = len(class_sizes)
    if class_labels is None:
        class_labels = [f"class{i}" for i in range(k)]
    matrix = [
        [Fraction(counts[q], class_sizes[q]) for q in range(k)]
        for counts, _ in rows
    ]
    # The same LP in u_q = v_q / |class q|: integer counts, objective sizes.
    optimum, u, duals = _simplex_max([counts for counts, _ in rows], class_sizes)
    v = [s * x for s, x in zip(class_sizes, u)]
    pi_f = optimum
    if pi_f <= 0:
        raise GameError("degenerate game: value would be infinite")
    if sum(duals) != pi_f:
        raise AssertionError("strong duality violated")
    value = Fraction(1) / pi_f
    primal = [
        (rows[i][1], duals[i] / pi_f) for i in range(len(rows)) if duals[i] > 0
    ]
    dual = [(class_labels[q], v[q] / pi_f) for q in range(k) if v[q] > 0]

    # Certificate, recomputed independently of the solve path.
    x = {i: duals[i] / pi_f for i in range(len(rows)) if duals[i] > 0}
    col_payoff = [
        sum(w * matrix[i][q] for i, w in x.items()) for q in range(k)
    ]
    if min(col_payoff) != value:
        raise AssertionError("primal certificate failed")
    w = {q: v[q] / pi_f for q in range(k) if v[q] > 0}
    row_payoff = [
        sum(weight * matrix[i][q] for q, weight in w.items())
        for i in range(len(rows))
    ]
    if max(row_payoff) != value:
        raise AssertionError("dual certificate failed")

    return GameSolution(
        pi_f=pi_f,
        value=value,
        primal=primal,
        dual=dual,
        mode=mode,
        reduction=reduction,
        class_sizes=list(class_sizes),
        class_labels=list(class_labels),
    )


def _pair_label(pair) -> str:
    (a, b), (c, d) = pair
    return f"{a}-{b}/{c}-{d}"


def pattern_payoffs(g: Graph, mode: str, classes):
    """Pareto-kept payoff rows over the canonical pattern orderings, each
    with the first pattern's ordering as witness; ``classes`` None means one
    class of all pairs.  Circular rows come from the split with the parts as
    chains."""
    pairs = nonincident_pairs(g)
    if classes is None:
        classes = [list(range(len(pairs)))]
    if mode == "circular":
        return _circular_payoffs(g.n, pairs, classes, True, chains=g.parts)
    seqs = (pattern_sequence(g, pat) for pat in multipartite_patterns(g))
    found = _linear_scan(map(_positions, seqs), pairs, classes)
    rows = pareto_filter(found, [len(c) for c in classes])
    return [(counts, Ordering(mode, tuple(_positions(q)))) for counts, q in rows]


def _column_generation(g: Graph, pairs, classes, sizes, labels, chains=None,
                       reduction="orbits") -> GameSolution:
    """Solve the linear game over the orderings ``chains`` allows by column
    generation.

    The restricted master holds the orderings found so far, and
    ``best_response`` prices its dual mix exactly over every ordering that
    keeps each chain in order: all n! orderings for ``chains`` None (the
    orbit path), the canonical pattern orderings for ``g.parts`` (the
    pattern path).  Seed columns cover every class first, since a class no
    row separates leaves the packing LP unbounded.  The loop stops when no
    ordering scores more than the master value against the master's dual
    mix: that is the dual certificate over the full game, and the master's
    primal mix is one over real orderings.
    """
    rows = []

    def add_column(weights):
        best = best_response(g, classes, weights, chains)
        counts = count_separated(best.ordering, pairs, classes)
        rows.append((counts, best.ordering.serialize()))
        return best.score

    covered = [False] * len(classes)
    while not all(covered):
        add_column([0 if c else 1 for c in covered])
        covered = [c or x > 0 for c, x in zip(covered, rows[-1][0])]
    while True:
        sol = solve_game(rows, sizes, labels, mode="linear", reduction=reduction)
        dual = dict(sol.dual)
        prices = [dual.get(lbl, 0) / size for lbl, size in zip(labels, sizes)]
        if add_column(prices) <= sol.value:
            return sol


def fractional_sepdim(g: Graph, mode: str = "linear",
                      reduction: str = "auto") -> GameSolution:
    """Exact fractional (circular) separation dimension with certificate.

    Reductions: "none" solves over raw orderings with singleton pair classes;
    "orbits" aggregates pairs per automorphism orbit; "patterns" restricts a
    complete multipartite graph to part-label patterns with signature classes.
    "auto" picks patterns when parts are present, else orbits when the graph
    has any symmetry or is linear and over ``LINEAR_ENUM_CAP``, else none.
    Disconnected graphs are solved whole: pairs across components are
    ordinary pairs.

    Linear "orbits" and linear "patterns" solve by column generation with
    the subset-DP best response, capped at ``LINEAR_DP_CAP`` vertices: over
    all orderings for orbits, and over the canonical pattern orderings (the
    parts as chains) for patterns.  Linear "none" and every circular
    reduction enumerate payoff vectors under the enumeration caps (circular
    patterns under ``PATTERN_N_CAP``), and their primal support is recounted
    on the raw pairs.  A graph over the cap of the path that would run
    raises ``EnumerationCapExceeded`` before any symmetry search.  Each
    reduction has this one path, run in one process, so the certificate
    depends on the graph alone.
    """
    if reduction not in REDUCTIONS:
        raise GameError(f"reduction must be one of {REDUCTIONS}")
    pairs = nonincident_pairs(g)
    if not pairs:
        # Convention: no nonincident pairs means nothing to separate.
        return GameSolution(Fraction(0), None, mode=mode, reduction=reduction)

    if reduction == "auto" and g.parts is not None:
        reduction = "patterns"
    if reduction == "patterns" and g.parts is None:
        raise GameError("pattern reduction requires a complete multipartite graph with parts")
    # The cap of the path that will run, checked before any symmetry search.
    if reduction == "patterns" and mode == "circular":
        check_cap("pattern reduction", g.n, PATTERN_N_CAP)
    elif mode == "circular":
        check_cap("circular enumeration", g.n, CIRCULAR_ENUM_CAP)
    elif reduction == "none":
        check_cap("linear enumeration", g.n, LINEAR_ENUM_CAP)
    else:
        check_cap("linear subset DP", g.n, LINEAR_DP_CAP)

    aut = None
    if reduction == "auto":
        aut = automorphisms(g)
        linear_over_enum = mode == "linear" and g.n > LINEAR_ENUM_CAP
        reduction = "orbits" if aut.order > 1 or linear_over_enum else "none"

    if reduction == "patterns":
        classes, labels = signature_classes(g)
        sizes = [len(c) for c in classes]
        if mode == "linear":
            return _column_generation(g, pairs, classes, sizes, labels,
                                      g.parts, "patterns")
        rows = pattern_payoffs(g, mode, classes)
    elif reduction == "orbits":
        if aut is None:
            aut = automorphisms(g)
        orbits = pair_orbits(g, aut)
        classes = orbits.classes
        labels = [
            f"orbit[{_pair_label(orbits.pairs[c[0]])}]x{len(c)}"
            for c in orbits.classes
        ]
        sizes = orbits.sizes
        if mode == "linear":
            return _column_generation(g, pairs, classes, sizes, labels)
        rows = enumerate_payoffs(g, mode, classes, group=aut.elements)
    else:
        classes = [[i] for i in range(len(pairs))]
        labels = [_pair_label(p) for p in pairs]
        sizes = [1] * len(pairs)
        rows = enumerate_payoffs(g, mode, classes)
    rows = [(counts, o.serialize()) for counts, o in rows]
    sol = solve_game(rows, sizes, labels, mode=mode, reduction=reduction)
    _recount_primal(sol, rows, pairs, classes)
    return sol


def _recount_primal(sol, rows, pairs, classes):
    """Raise unless every ordering of the primal support, recounted on the
    raw pairs, separates exactly the counts of its row.

    Enumerated rows come from the kernels' miss keys; this checks them
    against the separation definition where the certificate uses them.
    Column generation builds its rows by this recount already.
    """
    counts_of = {key: counts for counts, key in rows}
    for key, _ in sol.primal:
        if count_separated(Ordering.parse(key), pairs, classes) != counts_of[key]:
            raise AssertionError(
                f"primal ordering {key} separates other counts than its row")


@dataclass
class ScanRow:
    sizes: tuple[int, ...]
    pi_f: Fraction | None
    is_max: bool = False
    skipped: str | None = None


def conjecture_scan(n: int, family: str, mode: str = "linear") -> list[ScanRow]:
    """Exact pi_f for every complete bipartite/tripartite shape on n vertices.

    Rows come back sorted by value descending with the argmax flagged;
    shapes over the cap are reported as skipped.  An n with no shape (below
    2 for bipartite, 3 for tripartite) raises ``GameError``.
    """
    minimum = {"bipartite": 2, "tripartite": 3}.get(family)
    if minimum is not None and n < minimum:
        raise GameError(f"{family} scan needs n >= {minimum} (got n={n})")
    if family == "bipartite":
        if n > BIPARTITE_SCAN_CAP:
            raise EnumerationCapExceeded(
                f"bipartite scan capped at n <= {BIPARTITE_SCAN_CAP}"
            )
        shapes = [(a, n - a) for a in range(1, n // 2 + 1)]
    elif family == "tripartite":
        if n > TRIPARTITE_SCAN_CAP:
            raise EnumerationCapExceeded(
                f"tripartite scan capped at n <= {TRIPARTITE_SCAN_CAP}"
            )
        shapes = [
            (a, b, n - a - b)
            for a in range(1, n // 3 + 1)
            for b in range(a, (n - a) // 2 + 1)
        ]
    else:
        raise GameError("family must be 'bipartite' or 'tripartite'")

    out = []
    for shape in shapes:
        try:
            sol = fractional_sepdim(complete_multipartite(*shape), mode, "patterns")
            out.append(ScanRow(shape, sol.pi_f))
        except EnumerationCapExceeded as exc:
            out.append(ScanRow(shape, None, skipped=str(exc)))
    solved = [r for r in out if r.pi_f is not None]
    if solved:
        best = max(r.pi_f for r in solved)
        for r in solved:
            if r.pi_f == best:
                r.is_max = True
    out.sort(key=lambda r: (r.pi_f is None, -(r.pi_f or 0), r.sizes))
    return out
