import random
from fractions import Fraction

import pytest

import sepdim as sd
from sepdim.game import GameError, solve_game

from conftest import random_graph


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


def test_scan_rejects_unknown_family():
    with pytest.raises(GameError):
        sd.conjecture_scan(6, "quadripartite")
