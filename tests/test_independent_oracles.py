"""Cross-validation against fully independent computation routes.

These tests rebuild the objects from first principles (raw permutation
enumeration, a floating-point LP solver, naive group filtering, networkx
graph matching) and compare with the exact pipeline.
"""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import sepdim as sd
from sepdim.cli import main

from conftest import fan, random_graph


def _naive_separated(perm, pair):
    pos = {v: i for i, v in enumerate(perm)}
    (a, b), (c, d) = pair
    left = max(pos[a], pos[b]) < min(pos[c], pos[d])
    right = max(pos[c], pos[d]) < min(pos[a], pos[b])
    return left or right


def _float_covering_optimum(g):
    """Covering LP over all orderings, solved in floating point by HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    pairs = sd.nonincident_pairs(g)
    columns = []
    for perm in permutations(range(g.n)):
        columns.append([1.0 if _naive_separated(perm, p) else 0.0 for p in pairs])
    # minimize sum x  s.t.  for each pair: sum_sigma x_sigma [separates] >= 1
    n_orderings = len(columns)
    a_ub = [[-columns[s][i] for s in range(n_orderings)] for i in range(len(pairs))]
    b_ub = [-1.0] * len(pairs)
    res = linprog(
        c=[1.0] * n_orderings, A_ub=a_ub, b_ub=b_ub,
        bounds=[(0, None)] * n_orderings, method="highs",
    )
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("builder", [
    lambda: sd.cycle(5),
    lambda: sd.complete(4),
    lambda: sd.complete_multipartite(2, 3),
    lambda: sd.subdivided_star(2),
    lambda: sd.complete_multipartite(1, 2, 2),
    lambda: sd.cycle(6),
])
def test_exact_lp_matches_float_lp(builder):
    g = builder()
    exact = sd.fractional_sepdim(g, "linear", "none").pi_f
    approx = _float_covering_optimum(g)
    assert abs(float(exact) - approx) < 1e-8


def test_exact_lp_matches_float_lp_random():
    rng = random.Random(8128)
    done = 0
    while done < 4:
        g = random_graph(6, 0.5, rng)
        if not sd.nonincident_pairs(g):
            continue
        exact = sd.fractional_sepdim(g, "linear", "none").pi_f
        approx = _float_covering_optimum(g)
        assert abs(float(exact) - approx) < 1e-8
        done += 1


def _naive_automorphism_count(g):
    edge_set = set(g.edges)
    count = 0
    for perm in permutations(range(g.n)):
        if all(tuple(sorted((perm[u], perm[v]))) in edge_set for u, v in g.edges):
            count += 1
    return count


def test_automorphism_order_against_naive_filter():
    cases = [sd.cycle(5), sd.cycle(6), sd.path(5), sd.complete_multipartite(2, 3),
             sd.complete_multipartite(2, 2, 2), sd.subdivided_star(3)]
    rng = random.Random(17)
    cases += [random_graph(6, 0.5, rng) for _ in range(3)]
    for g in cases:
        aut = sd.automorphisms(g)
        assert aut.order == _naive_automorphism_count(g)


def test_automorphism_order_against_networkx():
    nx = pytest.importorskip("networkx")
    cases = [(sd.petersen(), 120), (sd.heawood(), 336),
             (sd.complete_multipartite(4, 4), 1152)]
    rng = random.Random(4423)
    cases += [(random_graph(rng.randrange(3, 9), rng.choice((0.3, 0.5, 0.7)), rng),
               None) for _ in range(20)]
    for g, want in cases:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        count = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(h, h)
                    .isomorphisms_iter())
        assert sd.automorphisms(g).order == count
        if want is not None:
            assert count == want


def _networkx_pair_orbits(g):
    """Pair orbits under every automorphism networkx's matcher finds, as
    sorted index lists ordered by least index."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    maps = list(nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
    pairs = sd.nonincident_pairs(g)
    index = {frozenset(map(frozenset, p)): i for i, p in enumerate(pairs)}
    seen = set()
    classes = []
    for i, pair in enumerate(pairs):
        if i in seen:
            continue
        orbit = {index[frozenset(frozenset(m[v] for v in e) for e in pair)]
                 for m in maps}
        seen |= orbit
        classes.append(sorted(orbit))
    return classes


def test_pair_orbits_against_networkx():
    cases = [sd.petersen(), sd.heawood(), sd.complete_multipartite(4, 4),
             sd.cycle(10), fan(10),
             # Isolated vertices and K2 components: elements that act alike.
             sd.graph_from_edges(9, [(0, 1), (2, 3), (4, 5), (5, 6)]),
             sd.complete_multipartite(1, 4)]
    rng = random.Random(2718)
    cases += [random_graph(rng.randrange(4, 9), rng.choice((0.3, 0.5, 0.7)), rng)
              for _ in range(20)]
    for g in cases:
        want = _networkx_pair_orbits(g)
        assert sd.pair_orbits(g, sd.automorphisms(g)).classes == want


@pytest.mark.parametrize("argv, labels", [
    (["solve", "petersen"], ["orbit[0-7/1-5]x15", "orbit[0-7/1-6]x60"]),
    (["solve", "K:5,5", "--mode", "circular", "--reduction", "orbits"],
     ["orbit[0-5/1-6]x200"]),
], ids=["petersen", "K5,5-circular"])
def test_orbit_class_labels_pinned(capsys, argv, labels):
    # Class order and each class's least pair name the LP rows.
    assert main([*argv, "--json"]) == 0
    classes = json.loads(capsys.readouterr().out)["result"]["classes"]
    assert [c["label"] for c in classes] == labels


def test_integer_cover_against_naive_search():
    # Exhaustive minimum cover check on K4 and C5, every subset size.
    for g, mode, want in [(sd.complete(4), "linear", 3),
                          (sd.complete(4), "circular", 2),
                          (sd.cycle(5), "circular", 1)]:
        pairs = sd.nonincident_pairs(g)
        if mode == "linear":
            orderings = [sd.Ordering(mode, p) for p in permutations(range(g.n))]
        else:
            orderings = {sd.Ordering(mode, p) for p in permutations(range(g.n))}
            orderings = sorted(orderings, key=lambda o: o.perm)
        masks = sorted({
            sum(1 << i for i, p in enumerate(pairs) if sd.separates(o, p))
            for o in orderings
        })
        full = (1 << len(pairs)) - 1
        size = None
        for k in range(1, 5):
            hit = any(
                _union(combo) == full for combo in combinations(masks, k)
            )
            if hit:
                size = k
                break
        assert size == want == sd.integer_sepdim(g, mode)


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out
