import gc
import math
import random
from itertools import combinations, permutations

import pytest

import sepdim as sd
from sepdim.symmetry import SymmetryCapExceeded

from conftest import random_graph


def test_petersen_group_is_induced_symmetric_action():
    g = sd.petersen()
    aut = sd.automorphisms(g)
    assert aut.order == 120
    # Oracle: the full group is the S_5 action on the 2-subset labels.
    subsets = list(combinations(range(1, 6), 2))
    index = {s: i for i, s in enumerate(subsets)}
    induced = set()
    for sigma in permutations(range(1, 6)):
        relabel = {old: sigma[old - 1] for old in range(1, 6)}
        induced.add(tuple(
            index[tuple(sorted((relabel[a], relabel[b])))] for a, b in subsets
        ))
    assert set(aut.elements) == induced


def _is_closed_group(elements, n):
    members = set(elements)
    return (tuple(range(n)) in members
            and all(tuple(a[x] for x in b) in members
                    for a in elements for b in elements))


def test_heawood_group_closed_under_composition():
    g = sd.heawood()
    aut = sd.automorphisms(g)
    assert len(aut.elements) == aut.order == 336
    assert _is_closed_group(aut.elements, g.n)


def test_petersen_group_closed_under_composition():
    g = sd.petersen()
    aut = sd.automorphisms(g)
    assert len(aut.elements) == aut.order == 120
    assert _is_closed_group(aut.elements, g.n)


def test_cycle_group_dihedral():
    assert sd.automorphisms(sd.cycle(5)).order == 10


def test_elements_preserve_edges():
    for g in (sd.petersen(), sd.cycle(6), sd.complete_multipartite(2, 3)):
        aut = sd.automorphisms(g)
        edge_set = set(g.edges)
        for perm in aut.elements:
            mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges}
            assert mapped == edge_set
        assert len(set(aut.elements)) == aut.order
        # Lagrange sanity: order divides n!.
        assert math.factorial(g.n) % aut.order == 0


def test_pair_orbit_sizes():
    pet = sd.petersen()
    orb = sd.pair_orbits(pet, sd.automorphisms(pet))
    assert sorted(orb.sizes) == [15, 60]
    hw = sd.heawood()
    orbh = sd.pair_orbits(hw, sd.automorphisms(hw))
    assert sorted(orbh.sizes) == [84, 84]
    for m in (2, 3):
        g = sd.complete_multipartite(m, m)
        orbm = sd.pair_orbits(g, sd.automorphisms(g))
        assert len(orbm.classes) == 1


def test_orbits_closed_under_elements():
    for g in (sd.petersen(), sd.cycle(7), sd.complete_multipartite(2, 2, 2)):
        aut = sd.automorphisms(g)
        orb = sd.pair_orbits(g, aut)
        index = {p: i for i, p in enumerate(orb.pairs)}
        for cls in orb.classes:
            members = set(cls)
            for perm in aut.elements:
                for i in cls:
                    (a, b), (c, d) = orb.pairs[i]
                    e1 = tuple(sorted((perm[a], perm[b])))
                    e2 = tuple(sorted((perm[c], perm[d])))
                    img = (e1, e2) if e1 < e2 else (e2, e1)
                    assert index[img] in members


def test_automorphism_cap():
    big = sd.complete(25)
    with pytest.raises(SymmetryCapExceeded):
        sd.automorphisms(big)


def test_pattern_counts():
    assert len(sd.multipartite_patterns(sd.complete_multipartite(2, 2))) == 6
    assert len(sd.multipartite_patterns(sd.complete_multipartite(3, 3))) == 20
    assert len(sd.multipartite_patterns(sd.complete_multipartite(2, 2, 2))) == 90


def test_patterns_leave_no_reference_cycle():
    # The pattern list is freed when the call returns, not at the next
    # cyclic collection.
    g = sd.complete_multipartite(3, 4, 4)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        pats = sd.multipartite_patterns(g)
        assert pats == sorted(set(pats))
        del pats
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_pattern_payoff_k33():
    g = sd.complete_multipartite(3, 3)
    o = sd.pattern_ordering(g, (0, 1, 0, 1, 0, 1))
    (count,) = sd.count_separated(o, sd.nonincident_pairs(g))
    assert count == 8


def test_signature_classes_tripartite():
    g = sd.complete_multipartite(2, 2, 2)
    classes, labels = sd.signature_classes(g)
    assert len(classes) == 6
    assert sum(len(c) for c in classes) == len(sd.nonincident_pairs(g))


def test_pattern_lp_matches_full_lp():
    for sizes in [(2, 2), (3, 3), (3, 2), (1, 2, 2), (2, 2, 2)]:
        g = sd.complete_multipartite(*sizes)
        full = sd.fractional_sepdim(g, "linear", "none")
        patt = sd.fractional_sepdim(g, "linear", "patterns")
        assert full.pi_f == patt.pi_f
    for sizes in [(2, 2), (3, 3), (2, 3)]:
        g = sd.complete_multipartite(*sizes)
        full = sd.fractional_sepdim(g, "circular", "none")
        patt = sd.fractional_sepdim(g, "circular", "patterns")
        assert full.pi_f == patt.pi_f


def test_orbit_lp_matches_plain_lp_random():
    rng = random.Random(99)
    for _ in range(8):
        g = random_graph(rng.randrange(5, 8), 0.45, rng)
        none = sd.fractional_sepdim(g, "linear", "none")
        orbs = sd.fractional_sepdim(g, "linear", "orbits")
        assert none.pi_f == orbs.pi_f


def test_find_isomorphism_negative():
    assert sd.find_isomorphism(sd.cycle(6), sd.path(6)) is None
    g1 = sd.cycle(6)
    g2 = sd.graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert sd.find_isomorphism(g1, g2) is None
