import random
from fractions import Fraction

import pytest

import sepdim as sd
from sepdim import game
from sepdim.game import GameError, LPUnbounded, _simplex_max, solve_game

from conftest import multipartite_shapes, random_graph


def test_solve_game_k4_rows():
    rows = [((1, 0, 0), "a"), ((0, 1, 0), "b"), ((0, 0, 1), "c")]
    sol = solve_game(rows, [1, 1, 1])
    assert sol.value == Fraction(1, 3)
    assert sol.pi_f == 3


def test_solve_game_single_row_full_coverage():
    sol = solve_game([((1,), "only")], [1])
    assert sol.value == 1
    assert sol.pi_f == 1


def test_solve_game_petersen_reduced_row():
    sol = solve_game([((9, 34), "witness")], [15, 60])
    assert sol.value == Fraction(17, 30)
    assert sol.pi_f == Fraction(30, 17)


def test_solve_game_mixing():
    # Two complementary rows force an even mix; value 1/2.
    sol = solve_game([((1, 0), "r0"), ((0, 1), "r1")], [1, 1])
    assert sol.value == Fraction(1, 2)
    assert dict(sol.primal) == {"r0": Fraction(1, 2), "r1": Fraction(1, 2)}
    assert sum(w for _, w in sol.dual) == 1


def test_solve_game_validation():
    with pytest.raises(GameError):
        solve_game([], [1])
    with pytest.raises(GameError):
        solve_game([((1,), "r")], [0])


def test_solution_invariants():
    g = sd.complete_multipartite(3, 3)
    sol = sd.fractional_sepdim(g, "linear", "patterns")
    assert sol.pi_f * sol.value == 1
    assert sum(w for _, w in sol.primal) == 1
    assert sum(w for _, w in sol.dual) == 1
    assert all(w > 0 for _, w in sol.primal)
    assert all(w > 0 for _, w in sol.dual)


def test_gamesolution_json():
    sol = sd.fractional_sepdim(sd.cycle(5), "linear", "orbits")
    data = sol.to_json_dict()
    assert data["pi_f"] == "5/3"
    assert data["value"] == "3/5"
    assert all(len(entry) == 2 for entry in data["primal"])


def test_no_pairs_convention():
    triangle = sd.complete(3)
    sol = sd.fractional_sepdim(triangle, "linear", "none")
    assert sol.pi_f == 0 and sol.value is None
    star = sd.graph_from_edges(5, [(0, i) for i in range(1, 5)])
    assert sd.fractional_sepdim(star, "linear", "none").pi_f == 0


def test_disconnected_maximum_over_components():
    # K4 plus a disjoint C5: the K4 component dominates.
    edges = list(sd.complete(4).edges)
    edges += [(u + 4, v + 4) for u, v in sd.cycle(5).edges]
    g = sd.graph_from_edges(9, edges)
    sol = sd.fractional_sepdim(g, "linear", "none")
    assert sol.pi_f == 3
    # Two disjoint paths: caterpillars, so value 1.
    edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
    g = sd.graph_from_edges(8, edges)
    assert sd.fractional_sepdim(g, "linear", "none").pi_f == 1


def test_disconnected_cross_component_pairs():
    # Every pair spans two components: one ordering placing one component
    # before the other separates them all.
    two_k2 = sd.graph_from_edges(4, [(0, 1), (2, 3)])
    triangle_edge = sd.graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    for g in (two_k2, triangle_edge):
        for reduction in ("auto", "none", "orbits"):
            sol = sd.fractional_sepdim(g, "linear", reduction)
            assert sol.pi_f == 1 and sol.value == 1


def test_disconnected_certificate_over_whole_graph():
    c4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
    g = sd.graph_from_edges(8, c4 + [(u + 4, v + 4) for u, v in c4])
    sol = sd.fractional_sepdim(g, "linear", "auto")
    assert sol.pi_f == 2
    for key, _ in sol.primal:
        assert sorted(sd.Ordering.parse(key).perm) == list(range(8))
    assert sum(sol.class_sizes) == len(sd.nonincident_pairs(g)) == 20


def test_reduction_auto_dispatch():
    sol = sd.fractional_sepdim(sd.complete_multipartite(3, 3), "linear", "auto")
    assert sol.reduction == "patterns"
    sol = sd.fractional_sepdim(sd.cycle(5), "linear", "auto")
    assert sol.reduction == "orbits"
    asym = sd.graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (0, 5)])
    sol = sd.fractional_sepdim(asym, "linear", "auto")
    assert sol.reduction in ("none", "orbits")


def test_patterns_reduction_requires_parts():
    with pytest.raises(GameError):
        sd.fractional_sepdim(sd.cycle(6), "linear", "patterns")


def test_value_range_invariant():
    rng = random.Random(4242)
    for _ in range(10):
        g = random_graph(rng.randrange(4, 8), 0.5, rng)
        if not sd.nonincident_pairs(g):
            continue
        lin = sd.fractional_sepdim(g, "linear", "none")
        circ = sd.fractional_sepdim(g, "circular", "none")
        assert 1 <= lin.pi_f <= 3
        assert 1 <= circ.pi_f <= Fraction(3, 2)
        assert circ.pi_f <= lin.pi_f


def test_monotonicity_under_subgraphs():
    rng = random.Random(7321)
    for _ in range(6):
        n = rng.randrange(5, 8)
        big = random_graph(n, 0.6, rng)
        if len(big.edges) < 2:
            continue
        keep = [e for e in big.edges if rng.random() < 0.7]
        small = sd.graph_from_edges(n, keep)
        v_small = sd.fractional_sepdim(small, "linear", "none").pi_f
        v_big = sd.fractional_sepdim(big, "linear", "none").pi_f
        assert v_small <= v_big


def test_bound_sandwich():
    g = sd.complete_multipartite(3, 3)
    sol = sd.fractional_sepdim(g, "linear", "patterns")
    strat = sd.bipartite_interleaved_strategy(g)
    lower = sd.min_separation_probability(strat, g)
    assert lower <= sol.value
    uniform = sd.uniform_strategy(g, "linear")
    assert sd.min_separation_probability(uniform, g) <= sol.value
    k4 = sd.complete(4)
    sol4 = sd.fractional_sepdim(k4, "linear", "none")
    bound = sd.pair_strategy_value_bound(
        k4, "linear", sd.pair_player_strategy(k4, "k4-uniform")
    )
    assert sol4.value <= bound


def test_scan_bipartite_n6():
    table = sd.conjecture_scan(6, "bipartite")
    best = table[0]
    assert best.sizes == (3, 3) and best.pi_f == Fraction(9, 4) and best.is_max


def test_scan_bipartite_n7():
    table = sd.conjecture_scan(7, "bipartite")
    best = table[0]
    assert best.sizes == (3, 4) and best.pi_f == Fraction(9, 4)


def test_scan_tripartite_anomaly_entries():
    table = sd.conjecture_scan(9, "tripartite")
    values = {r.sizes: r.pi_f for r in table}
    assert values[(3, 3, 3)] > values[(1, 4, 4)]
    assert table[0].sizes == (3, 3, 3)


def test_unbalanced_tripartite_comparison():
    # Moving a vertex between parts can increase the value: (4,2,2) beats (3,3,2).
    a = sd.fractional_sepdim(sd.complete_multipartite(4, 2, 2), "linear", "patterns")
    b = sd.fractional_sepdim(sd.complete_multipartite(3, 3, 2), "linear", "patterns")
    assert a.pi_f > b.pi_f


# Rows of ``conjecture_scan`` as (shape, pi_f, is_max), in table order, as
# the enumerated pattern LPs gave them.
PINNED_SCANS = {
    ("tripartite", 10): [
        ((1, 4, 5), "70/27", True), ((2, 3, 5), "250/97", False),
        ((2, 4, 4), "152/59", False), ((3, 3, 4), "18/7", False),
        ((2, 2, 6), "28/11", False), ((1, 3, 6), "81/32", False),
        ((1, 2, 7), "532/221", False), ((1, 1, 8), "2", False),
    ],
    ("tripartite", 11): [
        ((1, 5, 5), "50/19", True), ((3, 3, 5), "270/103", False),
        ((2, 4, 5), "55/21", False), ((3, 4, 4), "216/83", False),
        ((1, 4, 6), "96/37", False), ((2, 3, 6), "1164/449", False),
        ((1, 3, 7), "105/41", False), ((2, 2, 7), "28/11", False),
        ((1, 2, 8), "53/22", False), ((1, 1, 9), "2", False),
    ],
    ("bipartite", 14): [
        ((7, 7), "21/8", True), ((6, 8), "70/27", False), ((5, 9), "18/7", False),
        ((4, 10), "5/2", False), ((3, 11), "33/14", False), ((2, 12), "2", False),
        ((1, 13), "0", False),
    ],
}


@pytest.mark.parametrize("family, n", sorted(PINNED_SCANS))
def test_scan_rows_pinned(family, n):
    rows = sd.conjecture_scan(n, family)
    got = [(r.sizes, game._frac_str(r.pi_f), r.is_max) for r in rows]
    assert got == PINNED_SCANS[family, n]


def test_circular_scan_rows_pinned():
    # Pinned from the bracelet-pattern enumeration the chain split replaced.
    rows = sd.conjecture_scan(11, "tripartite", "circular")
    got = [(r.sizes, game._frac_str(r.pi_f), r.is_max) for r in rows]
    assert got == [
        ((1, 5, 5), "10/7", True), ((1, 4, 6), "180/127", False),
        ((2, 4, 5), "24/17", False), ((3, 4, 4), "24/17", False),
        ((1, 3, 7), "210/149", False), ((2, 3, 6), "270/193", False),
        ((3, 3, 5), "270/193", False), ((2, 2, 7), "112/81", False),
        ((1, 2, 8), "40/29", False), ((1, 1, 9), "9/7", False),
    ]


@pytest.mark.parametrize("family, n", [("bipartite", 1), ("bipartite", -3),
                                       ("tripartite", 2), ("tripartite", -3)])
def test_scan_refuses_n_below_family_minimum(family, n):
    minimum = {"bipartite": 2, "tripartite": 3}[family]
    with pytest.raises(GameError, match=f"n >= {minimum}"):
        sd.conjecture_scan(n, family)
    assert [r.sizes for r in sd.conjecture_scan(minimum, family)] == [(1,) * minimum]


def test_enumerated_solve_recounts_primal_support(monkeypatch):
    # K_4 circular: three rows, each with weight 1/3.  Swapping two rows'
    # witnesses leaves the LP as it is, but the recount of either ordering
    # disagrees with its row.
    rows = sd.enumerate_payoffs(sd.complete(4), "circular")
    assert len(rows) == 3
    swapped = [(rows[0][0], rows[1][1]), (rows[1][0], rows[0][1]), rows[2]]
    monkeypatch.setattr(game, "enumerate_payoffs", lambda *a, **k: swapped)
    with pytest.raises(AssertionError, match="primal ordering"):
        sd.fractional_sepdim(sd.complete(4), "circular", "none")
    monkeypatch.setattr(game, "enumerate_payoffs", lambda *a, **k: rows)
    assert sd.fractional_sepdim(sd.complete(4), "circular", "none").pi_f == Fraction(3, 2)


def test_pattern_column_generation_matches_full_pattern_lp():
    # Linear patterns solve by column generation with chain-DP pricing; the
    # value must be that of one LP over every enumerated pattern row.
    checked = 0
    for shape in multipartite_shapes(10):
        g = sd.complete_multipartite(*shape)
        if not sd.nonincident_pairs(g):
            continue
        classes, labels = sd.signature_classes(g)
        sizes = [len(c) for c in classes]
        rows = [(counts, o.serialize())
                for counts, o in game.pattern_payoffs(g, "linear", classes)]
        want = solve_game(rows, sizes, labels)
        sol = sd.fractional_sepdim(g, "linear", "patterns")
        assert sol.reduction == "patterns"
        assert sol.pi_f == want.pi_f, shape
        checked += 1
    assert checked == 51


def test_scan_rejects_unknown_family():
    with pytest.raises(GameError):
        sd.conjecture_scan(6, "quadripartite")


# ---------------------------------------------------------------------------
# The fraction-free simplex against the dense Fraction simplex it replaced
# ---------------------------------------------------------------------------

def _reference_simplex_max(matrix, rhs, objective):
    """Bland's-rule simplex over exact Fractions: max objective.v s.t.
    matrix.v <= rhs, v >= 0; returns (optimum, v, row_duals)."""
    m = len(matrix)
    k = len(objective)
    F = Fraction
    tableau = [
        [F(x) for x in row] + [F(1) if j == i else F(0) for j in range(m)] + [F(rhs[i])]
        for i, row in enumerate(matrix)
    ]
    cost = [F(c) for c in objective] + [F(0)] * (m + 1)
    basis = list(range(k, k + m))
    width = k + m

    while True:
        enter = -1
        for j in range(width):
            if cost[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise LPUnbounded("packing LP unbounded")
        piv = tableau[leave][enter]
        row = [x / piv for x in tableau[leave]]
        tableau[leave] = row
        for i in range(m):
            if i != leave and tableau[i][enter]:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], row)]
        if cost[enter]:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, row)]
        basis[leave] = enter

    v = [Fraction(0)] * k
    for i, b in enumerate(basis):
        if b < k:
            v[b] = tableau[i][-1]
    duals = [-cost[k + i] for i in range(m)]
    optimum = sum(c * x for c, x in zip(objective, v))
    return optimum, v, duals


def _both_simplexes(counts, sizes):
    """(fraction-free, reference) results for the packing LP of solve_game,
    the fraction-free one mapped back to v_q = size_q * u_q."""
    matrix = [[Fraction(c[q], sizes[q]) for q in range(len(sizes))] for c in counts]
    want = _reference_simplex_max(
        matrix, [Fraction(1)] * len(counts), [Fraction(1)] * len(sizes)
    )
    optimum, u, duals = _simplex_max(counts, sizes)
    return (optimum, [s * x for s, x in zip(sizes, u)], duals), want


def _captured_lps(monkeypatch, solves):
    """The (counts, sizes) of every LP that ``solves`` hands to solve_game."""
    lps = []
    inner = game.solve_game

    def capture(rows, sizes, *args, **kwargs):
        rows = list(rows)
        lps.append(([counts for counts, _ in rows], list(sizes)))
        return inner(rows, sizes, *args, **kwargs)

    monkeypatch.setattr(game, "solve_game", capture)
    for solve in solves:
        solve()
    monkeypatch.undo()
    return lps


def _assert_same_vertex(lps):
    for counts, sizes in lps:
        got, want = _both_simplexes(counts, sizes)
        assert got == want, (counts, sizes)


def test_simplex_pivot_path_unreduced_lps(monkeypatch):
    rng = random.Random(2718)
    graphs = []
    while len(graphs) < 40:
        g = random_graph(rng.randrange(4, 7), 0.6, rng)
        if sd.nonincident_pairs(g):
            graphs.append(g)
    solves = [
        (lambda g=g, mode=mode: sd.fractional_sepdim(g, mode, "none"))
        for i, g in enumerate(graphs)
        for mode in (("linear", "circular") if i % 4 == 0 else ("linear",))
    ]
    # K6 (a 90 x 45 LP) is the largest unreduced LP of a 6-vertex graph.
    solves.append(lambda: sd.fractional_sepdim(sd.complete(6), "linear", "none"))
    lps = _captured_lps(monkeypatch, solves)
    assert len(lps) == len(solves)
    _assert_same_vertex(lps)


def test_simplex_pivot_path_pattern_and_orbit_lps(monkeypatch):
    # The full linear pattern LPs of K_{3,3,3} and K_{2,3,4}, from the
    # enumerated pattern rows; linear patterns now solve by column
    # generation, so every master LP of those two solves is checked too.
    full = []
    for shape in ((3, 3, 3), (2, 3, 4)):
        g = sd.complete_multipartite(*shape)
        classes, _ = sd.signature_classes(g)
        rows = game.pattern_payoffs(g, "linear", classes)
        full.append(([counts for counts, _ in rows], [len(c) for c in classes]))
    masters = _captured_lps(monkeypatch, [
        lambda: sd.fractional_sepdim(sd.complete_multipartite(3, 3, 3), "linear", "patterns"),
        lambda: sd.fractional_sepdim(sd.complete_multipartite(2, 3, 4), "linear", "patterns"),
    ])
    enumerated = _captured_lps(monkeypatch, [
        lambda: sd.fractional_sepdim(sd.complete_multipartite(3, 3), "circular", "patterns"),
        lambda: sd.fractional_sepdim(sd.petersen(), "circular", "orbits"),
    ])
    assert len(masters) >= 2 and len(enumerated) == 2
    lps = full + masters + enumerated
    assert all(max(sizes) > 1 for _, sizes in lps)
    _assert_same_vertex(lps)


def test_simplex_pivot_path_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        k = data.draw(st.integers(1, 5), label="classes")
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k),
                          label="sizes")
        counts = data.draw(
            st.lists(
                st.tuples(*[st.integers(0, s) for s in sizes]),
                min_size=1, max_size=8,
            ),
            label="counts",
        )
        try:
            got, want = _both_simplexes(counts, sizes)
        except LPUnbounded:
            # A class that no row separates: the reference agrees.
            assert any(all(c[q] == 0 for c in counts) for q in range(k))
            with pytest.raises(LPUnbounded):
                _reference_simplex_max(
                    [[Fraction(c[q], sizes[q]) for q in range(k)] for c in counts],
                    [1] * len(counts), [1] * k,
                )
            return
        assert got == want

    check()


def test_solve_game_unbounded():
    with pytest.raises(LPUnbounded):
        solve_game([((0, 1), "r")], [1, 1])


def _reference_pattern_rows(g, mode):
    # The per-pattern path: count_separated on the ordering of every linear
    # label sequence, read in the asked mode, the first ordering per vector
    # as witness, then the tuple Pareto filter.  In circular mode the first
    # sequence with a vector is its own least rotation and reflection, so
    # this is the least bracelet pattern's ordering; the sequences that do
    # not start with label 0 come after those that do and are rotations of
    # them, so they are skipped.  Rows for the signature classes and for one
    # class of all pairs, whose count is their sum.
    pairs = sd.nonincident_pairs(g)
    classes, _ = sd.signature_classes(g)
    by_class, one_class = {}, {}
    for pat in sd.multipartite_patterns(g):
        if mode == "circular" and pat[0]:
            break
        o = sd.pattern_ordering(g, pat, mode)
        counts = sd.count_separated(o, pairs, classes)
        by_class.setdefault(counts, o)
        one_class.setdefault((sum(counts),), o)
    return _tuple_pareto(by_class), _tuple_pareto(one_class)


def _tuple_pareto(found):
    kept = []
    for counts, o in sorted(found.items(), key=lambda r: (-sum(r[0]), r[0])):
        if not any(all(k >= c for k, c in zip(other, counts)) for other, _ in kept):
            kept.append((counts, o))
    return [(c, o.perm) for c, o in kept]


def test_pattern_rows_match_per_pattern_counts():
    # Every shape with two or three parts and n <= 9 in both modes, and in
    # circular mode every shape with four parts and n <= 9.
    shapes = [(a, n - a) for n in range(2, 10) for a in range(1, n // 2 + 1)] + [
        (a, b, n - a - b)
        for n in range(3, 10)
        for a in range(1, n // 3 + 1)
        for b in range(a, (n - a) // 2 + 1)
    ]
    four_parts = [
        (a, b, c, n - a - b - c)
        for n in range(4, 10)
        for a in range(1, n // 4 + 1)
        for b in range(a, (n - a) // 3 + 1)
        for c in range(b, (n - a - b) // 2 + 1)
    ]
    cases = [(s, m) for s in shapes for m in ("linear", "circular")]
    cases += [(s, "circular") for s in four_parts]
    checked = 0
    for shape, mode in cases:
        g = sd.complete_multipartite(*shape)
        if not sd.nonincident_pairs(g):
            continue
        classes, _ = sd.signature_classes(g)
        got = [[(c, o.perm) for c, o in game.pattern_payoffs(g, mode, cls)]
               for cls in (classes, None)]
        assert got == list(_reference_pattern_rows(g, mode)), (shape, mode)
        checked += 1
    assert checked == 2 * 34 + 18
