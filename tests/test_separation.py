import random
from fractions import Fraction
from itertools import permutations

import pytest

import sepdim as sd
from sepdim.separation import (
    EnumerationCapExceeded, Ordering, _circular_payoffs, canonical_prefixes,
)
from sepdim.symmetry import pattern_sequence

from conftest import fan, multipartite_shapes, random_graph


def test_linear_separation_definition_cases():
    o = Ordering("linear", (0, 1, 2, 3))  # a b c d
    assert sd.separates(o, ((0, 1), (2, 3)))       # ab | cd
    assert not sd.separates(o, ((0, 3), (1, 2)))   # bc nested in ad
    assert not sd.separates(o, ((0, 2), (1, 3)))   # interleaved


def test_circular_separation_definition_cases():
    o = Ordering("circular", (0, 1, 2, 3))
    assert sd.separates(o, ((0, 3), (1, 2)))       # nesting is separated
    assert not sd.separates(o, ((0, 2), (1, 3)))   # alternation fails


def test_circular_k4_two_of_three():
    k4 = sd.complete(4)
    pairs = sd.nonincident_pairs(k4)
    for tail in permutations((1, 2, 3)):
        o = Ordering("circular", (0,) + tail)
        assert sum(sd.separates(o, p) for p in pairs) == 2


def test_count_k33_interleaved():
    g = sd.complete_multipartite(3, 3)
    # x1 y1 x2 y2 x3 y3 with X = 0..2, Y = 3..5
    o = Ordering("linear", (0, 3, 1, 4, 2, 5))
    (count,) = sd.count_separated(o, sd.nonincident_pairs(g))
    assert count == 8


def test_count_c5_rotation():
    g = sd.cycle(5)
    o = Ordering("linear", (0, 1, 2, 3, 4))
    (count,) = sd.count_separated(o, sd.nonincident_pairs(g))
    assert count == 3


def test_enumerate_k4_singletons():
    rows = sd.enumerate_payoffs(sd.complete(4), "linear")
    assert sorted(c for c, _ in rows) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_enumerate_c4_circular_pareto():
    rows = sd.enumerate_payoffs(sd.cycle(4), "circular")
    assert [c for c, _ in rows] == [(1, 1)]


def test_enumerate_petersen_contains_9_34():
    g = sd.petersen()
    orbits = sd.pair_orbits(g, sd.automorphisms(g))
    # The ordering from the disjointness model: 12,34,51,23,45,13,42,35,41,25.
    perm = (0, 7, 3, 4, 9, 1, 5, 8, 2, 6)
    counts = sd.count_separated(Ordering("linear", perm), orbits.pairs, orbits.classes)
    by_size = dict(zip(orbits.sizes, counts))
    assert by_size == {15: 9, 60: 34}


def test_reversal_invariance():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(4, 9)
        perm = tuple(rng.sample(range(n), n))
        o = Ordering("linear", perm)
        verts = rng.sample(range(n), 4)
        e1 = tuple(sorted(verts[:2]))
        e2 = tuple(sorted(verts[2:]))
        pair = (e1, e2) if e1 < e2 else (e2, e1)
        assert sd.separates(o, pair) == sd.separates(o.reversed(), pair)


def _raw_circular_separated(perm, pair):
    # Independent alternation test on an uncanonicalized cyclic sequence.
    pos = {v: i for i, v in enumerate(perm)}
    (a, b), (c, d) = pair
    lo, hi = sorted((pos[a], pos[b]))
    return ((lo < pos[c] < hi)) == ((lo < pos[d] < hi))


def test_circular_canonicalization_preserves_verdicts():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randrange(4, 9)
        perm = tuple(rng.sample(range(n), n))
        verts = rng.sample(range(n), 4)
        e1 = tuple(sorted(verts[:2]))
        e2 = tuple(sorted(verts[2:]))
        pair = (e1, e2) if e1 < e2 else (e2, e1)
        want = _raw_circular_separated(perm, pair)
        k = rng.randrange(n)
        rotated = perm[k:] + perm[:k]
        if rng.random() < 0.5:
            rotated = tuple(reversed(rotated))
        assert sd.separates(Ordering("circular", rotated), pair) == want


def test_three_pairings_rule():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(4, 9)
        perm = tuple(rng.sample(range(n), n))
        quad = sorted(rng.sample(range(n), 4))
        a, b, c, d = quad
        pairings = [
            (((a, b)), ((c, d))),
            (((a, c)), ((b, d))),
            (((a, d)), ((b, c))),
        ]
        lin = sum(sd.separates(Ordering("linear", perm), p) for p in pairings)
        circ = sum(sd.separates(Ordering("circular", perm), p) for p in pairings)
        assert lin == 1
        assert circ == 2


def test_max_separation_examples():
    assert sd.max_separation(sd.complete_multipartite(3, 3), "linear").score == 8
    assert sd.max_separation(sd.complete(4), "linear").score == 1


def test_max_separation_weighted_class():
    # Weighting only one class, exercised on C_6's pair orbits.
    c6 = sd.cycle(6)
    orbits = sd.pair_orbits(c6, sd.automorphisms(c6))
    for idx in range(len(orbits.classes)):
        weights = [1 if i == idx else 0 for i in range(len(orbits.classes))]
        got = sd.max_separation(c6, "linear", orbits.classes, weights)
        assert got.score == max(
            sd.count_separated(o, orbits.pairs, orbits.classes)[idx]
            for _, o in sd.enumerate_payoffs(c6, "linear", orbits.classes, pareto=False)
        )


def test_best_response_matches_enumeration():
    # The subset DP against exhaustive enumeration, on pair orbits and on
    # singleton classes, with integer, fractional and zero weights.
    rng = random.Random(90125)
    checked = 0
    while checked < 36:
        g = random_graph(rng.randrange(4, 8), rng.choice((0.4, 0.5, 0.6)), rng)
        pairs = sd.nonincident_pairs(g)
        if not pairs:
            continue
        if checked % 2:
            classes = sd.pair_orbits(g, sd.automorphisms(g)).classes
        else:
            classes = [[i] for i in range(len(pairs))]
        if checked % 3 == 0:
            weights = [rng.randrange(0, 4) for _ in classes]
        else:
            weights = [Fraction(rng.randrange(0, 6), rng.randrange(1, 8))
                       for _ in classes]
        weights[rng.randrange(len(weights))] = 0
        dp = sd.best_response(g, classes, weights)
        enum = sd.max_separation(g, "linear", classes, weights)
        assert dp.score == enum.score, (checked, g.edges, weights)
        counts = sd.count_separated(dp.ordering, pairs, classes)
        assert sum(Fraction(w) * c for w, c in zip(weights, counts)) == dp.score
        checked += 1


def test_best_response_chains_match_pattern_scan():
    # The chain DP over the parts against a scan of every canonical pattern
    # ordering, on signature classes and on one class, with seeded Fraction
    # weights that include zeros.  The witness is a pattern ordering.
    rng = random.Random(5318)
    checked = 0
    for shape in multipartite_shapes(9):
        g = sd.complete_multipartite(*shape)
        pairs = sd.nonincident_pairs(g)
        if not pairs:
            continue
        signature, _ = sd.signature_classes(g)
        for classes in (signature, [list(range(len(pairs)))]):
            rows = [
                sd.count_separated(sd.pattern_ordering(g, pat), pairs, classes)
                for pat in sd.multipartite_patterns(g)
            ]
            for _ in range(2):
                weights = [Fraction(rng.randrange(0, 6), rng.randrange(1, 8))
                           for _ in classes]
                if len(weights) > 1:
                    weights[rng.randrange(len(weights))] = 0
                dp = sd.best_response(g, classes, weights, g.parts)
                want = max(sum(w * c for w, c in zip(weights, counts))
                           for counts in rows)
                assert dp.score == want, (shape, weights)
                perm = dp.ordering.perm
                pattern = [g.part_of[v] for v in perm]
                assert perm == pattern_sequence(g, pattern), (shape, perm)
        checked += 1
    assert checked == 39


def test_best_response_cap():
    g = sd.cycle(17)
    one_class = [list(range(len(sd.nonincident_pairs(g))))]
    with pytest.raises(EnumerationCapExceeded, match="n <= 16"):
        sd.best_response(g, one_class, [1])


def _raw_linear_separated(pos, pair):
    # Independent test: one edge lies wholly before the other.
    (a, b), (c, d) = pair
    return max(pos[a], pos[b]) < min(pos[c], pos[d]) or \
        max(pos[c], pos[d]) < min(pos[a], pos[b])


def _brute_linear_scan(g):
    # One ordering per reversal pair: the one whose position map is
    # lexicographically smaller than its reversal's, in lex order of position
    # maps, with its separated pairs by the raw predicate.
    pairs = sd.nonincident_pairs(g)
    n = g.n
    out = []
    for pos in permutations(range(n)):
        if pos < tuple(n - 1 - x for x in pos):
            perm = tuple(sorted(range(n), key=pos.__getitem__))
            out.append((perm, [_raw_linear_separated(pos, p) for p in pairs]))
    return out


def test_linear_kernel_matches_brute_force():
    # Rows and witnesses of the linear kernel against a lexicographic scan
    # with the raw separation predicate, with and without the Pareto filter.
    rng = random.Random(31415)
    checked = 0
    while checked < 24:
        n = rng.randrange(4, 8)
        g = random_graph(n, rng.choice((0.3, 0.5, 0.7)), rng)
        if not sd.nonincident_pairs(g):
            continue
        scan = _brute_linear_scan(g)
        choices = _class_choices(g, rng)
        names = ["one", "three"] if n == 7 else sorted(choices)
        for name in names:
            for pareto in (True, False):
                got = sd.enumerate_payoffs(g, "linear", choices[name], pareto=pareto)
                want = _brute_rows(scan, choices[name], pareto)
                assert [(c, o.perm) for c, o in got] == want, (g.edges, name, pareto)
        checked += 1


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded, match="n <= 10"):
        sd.enumerate_payoffs(sd.heawood(), "linear")


def _brute_circular_scan(g):
    # Every canonical circular ordering (0 first, second entry below the
    # last) in lex order, with its separated pairs by the raw alternation
    # test.
    pairs = sd.nonincident_pairs(g)
    out = []
    for tail in permutations(range(1, g.n)):
        if tail[0] < tail[-1]:
            perm = (0,) + tail
            out.append((perm, [_raw_circular_separated(perm, p) for p in pairs]))
    return out


def _brute_rows(scan, classes, pareto):
    # The first ordering of the scan per vector is its witness.
    found = {}
    for perm, sep in scan:
        found.setdefault(tuple(sum(sep[i] for i in c) for c in classes), perm)
    if not pareto:
        return sorted(found.items())
    front = [
        (c, w) for c, w in found.items()
        if not any(o != c and all(x >= y for x, y in zip(o, c)) for o in found)
    ]
    return sorted(front, key=lambda r: (-sum(r[0]), r[0]))


def _labelled_classes(labels):
    classes = [[i for i, x in enumerate(labels) if x == k] for k in range(3)]
    return [c for c in classes if c]


def _class_choices(g, rng):
    pairs = sd.nonincident_pairs(g)
    return {
        "singleton": [[i] for i in range(len(pairs))],
        "orbits": sd.pair_orbits(g, sd.automorphisms(g)).classes,
        "one": [list(range(len(pairs)))],
        "three": _labelled_classes([rng.randrange(3) for _ in pairs]),
    }


def test_circular_kernel_matches_brute_force():
    # Rows and witnesses of the XOR-split kernel against a scan of every
    # canonical circular ordering, with and without the Pareto filter.
    rng = random.Random(2718)
    checked = 0
    while checked < 32:
        n = rng.randrange(4, 9)
        g = random_graph(n, rng.choice((0.3, 0.5, 0.7)), rng)
        if not sd.nonincident_pairs(g):
            continue
        scan = _brute_circular_scan(g)
        choices = _class_choices(g, rng)
        names = ["one", "three"] if n == 8 else sorted(choices)
        for name in names:
            for pareto in (True, False):
                got = sd.enumerate_payoffs(g, "circular", choices[name], pareto=pareto)
                want = _brute_rows(scan, choices[name], pareto)
                assert [(c, o.perm) for c, o in got] == want, (g.edges, name, pareto)
        checked += 1


def test_circular_kernel_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(4, 7), label="n")
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(possible), unique=True), label="edges")
        g = sd.graph_from_edges(n, edges)
        pairs = sd.nonincident_pairs(g)
        hypothesis.assume(pairs)
        labels = data.draw(st.lists(st.integers(0, 2), min_size=len(pairs),
                                    max_size=len(pairs)), label="classes")
        classes = _labelled_classes(labels)
        pareto = data.draw(st.booleans(), label="pareto")
        got = sd.enumerate_payoffs(g, "circular", classes, pareto=pareto)
        want = _brute_rows(_brute_circular_scan(g), classes, pareto)
        assert [(c, o.perm) for c, o in got] == want

    check()


def test_canonical_prefixes_without_group_are_all_prefixes():
    for n in range(1, 9):
        for k in range(n):
            want = list(permutations(range(1, n), k))
            assert list(canonical_prefixes(n, k)) == want, (n, k)
            assert list(canonical_prefixes(n, k, [tuple(range(n))])) == want, (n, k)


def _chain_kept(seq, chains):
    # Each chain's vertices in seq are its first ones, in its order.
    at = {v: i for i, v in enumerate(seq)}
    for chain in chains:
        placed = [v for v in chain if v in at]
        if placed != list(chain[:len(placed)]) or \
                [at[v] for v in placed] != sorted(at[v] for v in placed):
            return False
    return True


def test_chain_prefixes_match_brute_force():
    # The chain-kept prefixes, in lex order, for the split's k and for every
    # vertex after 0: the parts of multipartite graphs, and chains that are
    # not label ranges.
    cases = [(sum(s), sd.complete_multipartite(*s).parts)
             for s in multipartite_shapes(8) + [(2, 3, 4), (2, 2, 2, 3)]]
    cases += [(6, ((0, 3, 5), (1, 4), (2,))), (7, ((0, 6), (5, 1, 3), (2, 4)))]
    for n, chains in cases:
        for k in {(n - 1) // 2, n - 1} if n <= 7 else {(n - 1) // 2}:
            want = [p for p in permutations(range(1, n), k)
                    if _chain_kept((0,) + p, chains)]
            assert list(canonical_prefixes(n, k, chains=chains)) == want, (chains, k)


def test_chain_split_witnesses_match_brute_force():
    # With chains that are not label ranges, the rows and witnesses are
    # those of a lex-order scan of the chain-kept orderings with 0 first,
    # in either direction.
    rng = random.Random(2718)
    for n, chains in [(6, ((0, 3, 5), (1, 4), (2,))), (7, ((0, 6), (5, 1, 3), (2, 4))),
                      (7, ((0,), (6, 1), (5, 2), (4, 3)))]:
        for _ in range(3):
            g = random_graph(n, 0.5, rng)
            pairs = sd.nonincident_pairs(g)
            scan = [(perm, [_raw_circular_separated(perm, p) for p in pairs])
                    for perm in ((0,) + t for t in permutations(range(1, n)))
                    if _chain_kept(perm, chains)]
            for classes in ([[i] for i in range(len(pairs))], [list(range(len(pairs)))]):
                for pareto in (True, False):
                    got = _circular_payoffs(n, pairs, classes, pareto, chains=chains)
                    want = _brute_rows(scan, classes, pareto)
                    assert [(c, o.perm) for c, o in got] == \
                        [(c, Ordering("circular", w).perm) for c, w in want], (g.edges, chains)


def test_circular_chain_rows_property():
    # The split with the parts as chains reaches every miss key of the split
    # over all circular orderings, for signature classes and one class.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=10, deadline=None)
    @hypothesis.given(st.lists(st.integers(1, 4), min_size=2, max_size=4),
                      st.booleans(), st.booleans())
    def check(sizes, one_class, pareto):
        hypothesis.assume(sum(sizes) <= 9)
        g = sd.complete_multipartite(*sizes)
        pairs = sd.nonincident_pairs(g)
        hypothesis.assume(pairs)
        classes = [list(range(len(pairs)))] if one_class else sd.signature_classes(g)[0]
        want = sd.enumerate_payoffs(g, "circular", classes, pareto=pareto)
        got = _circular_payoffs(g.n, pairs, classes, pareto, chains=g.parts)
        assert [c for c, _ in got] == [c for c, _ in want]

    check()


def _seeded_symmetric_graphs(count, seed):
    # Random graphs on 5..8 vertices with pairs and a nontrivial
    # automorphism group (with none, the prefixes are all prefixes).
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_graph(rng.randrange(5, 9), rng.choice((0.3, 0.5, 0.7)), rng)
        if sd.nonincident_pairs(g) and sd.automorphisms(g).order > 1:
            out.append(g)
    return out


def test_canonical_prefixes_match_brute_force():
    # Keep P when no element fixing 0 maps it lex-below itself, in lex order.
    graphs = _seeded_symmetric_graphs(24, 4242) + [
        sd.cycle(8), sd.complete(6), sd.complete_multipartite(3, 3),
        sd.complete_multipartite(2, 2, 2), sd.petersen(), fan(9),
    ]
    for g in graphs:
        group = sd.automorphisms(g).elements
        stab = [h for h in group if h[0] == 0]
        for k in {(g.n - 1) // 2, (g.n - 1) // 2 + 1}:
            want = [
                p for p in permutations(range(1, g.n), k)
                if all(tuple(h[v] for v in p) >= p for h in stab)
            ]
            assert list(canonical_prefixes(g.n, k, group)) == want, (g.edges, k)


def _assert_group_keeps_rows(g):
    aut = sd.automorphisms(g)
    pairs = sd.nonincident_pairs(g)
    for classes in (sd.pair_orbits(g, aut).classes, [list(range(len(pairs)))]):
        for pareto in (True, False):
            want = sd.enumerate_payoffs(g, "circular", classes, pareto=pareto)
            got = sd.enumerate_payoffs(g, "circular", classes, pareto=pareto,
                                       group=aut.elements)
            assert [(c, o.perm) for c, o in got] == [(c, o.perm) for c, o in want], (
                g.edges, classes, pareto)


def test_circular_group_keeps_rows_and_witnesses():
    # The split over stabiliser-canonical prefixes gives the rows and
    # witnesses of the split over every prefix, for orbit classes and for
    # one class of all pairs (both are mapped onto themselves).
    families = [
        sd.cycle(8), sd.cycle(9), sd.complete(6), sd.complete(8),
        sd.complete_multipartite(3, 3), sd.complete_multipartite(4, 4),
        sd.complete_multipartite(2, 2, 2), sd.complete_multipartite(3, 3, 3),
        sd.complete_multipartite(2, 3, 4), sd.petersen(),
    ]
    for g in _seeded_symmetric_graphs(32, 3141) + families:
        _assert_group_keeps_rows(g)


def test_circular_group_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(4, 7), label="n")
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(possible), unique=True), label="edges")
        g = sd.graph_from_edges(n, edges)
        hypothesis.assume(sd.nonincident_pairs(g))
        _assert_group_keeps_rows(g)

    check()


def test_circular_sepdim_is_one_matches_apex_planarity():
    # G is outerplanar iff G plus a vertex joined to every vertex is planar.
    nx = pytest.importorskip("networkx")
    rng = random.Random(1729)
    outerplanar = 0
    for _ in range(40):
        n = rng.randrange(4, 9)
        g = random_graph(n, rng.choice((0.25, 0.35, 0.5)), rng)
        h = nx.Graph(g.edges)
        h.add_nodes_from(range(n))
        h.add_edges_from((n, v) for v in range(n))
        planar, _ = nx.check_planarity(h)
        ok, witness = sd.circular_sepdim_is_one(g)
        assert ok == planar, g.edges
        if ok and sd.nonincident_pairs(g):
            outerplanar += 1
            assert sd.verify_separating_family(g, [witness])[0]
            first = next(perm for perm, sep in _brute_circular_scan(g) if all(sep))
            assert witness.perm == first
    assert 5 <= outerplanar <= 35


def test_verify_family_boundary_cycle():
    for n in (4, 5, 6, 7):
        g = sd.cycle(n)
        ok, defic = sd.verify_separating_family(
            g, [Ordering("circular", tuple(range(n)))], t=1
        )
        assert ok and not defic


def test_verify_family_k4_single_circular_deficient():
    ok, defic = sd.verify_separating_family(
        sd.complete(4), [Ordering("circular", (0, 1, 2, 3))], t=1
    )
    assert not ok
    assert len(defic) == 1


def test_verify_family_bipartc():
    for m, n in [(2, 3), (3, 3), (2, 4)]:
        g = sd.complete_multipartite(m, n)
        xs = list(range(m))
        ys = list(range(m, m + n))
        consecutive = Ordering("circular", tuple(xs + ys))
        reversed_y = Ordering("circular", tuple(xs + ys[::-1]))
        ok, _ = sd.verify_separating_family(g, [consecutive, reversed_y], t=1)
        assert ok


def test_circular_sepdim_is_one():
    ok, witness = sd.circular_sepdim_is_one(sd.cycle(6))
    assert ok and witness is not None
    ok, _ = sd.circular_sepdim_is_one(sd.complete(4))
    assert not ok
    ok, _ = sd.circular_sepdim_is_one(sd.complete_multipartite(2, 3))
    assert not ok


def test_integer_sepdim_values():
    assert sd.integer_sepdim(sd.complete(4), "linear") == 3
    assert sd.integer_sepdim(sd.cycle(6), "circular") == 1
    assert sd.integer_sepdim(sd.complete(4), "circular") == 2


def test_integer_sepdim_twofold():
    # Two-fold covering of K4 linearly needs six orderings.
    assert sd.integer_sepdim(sd.complete(4), "linear", t=2) == 6


def test_ordering_serialization_roundtrip():
    o = Ordering("linear", (2, 0, 1, 3))
    assert Ordering.parse(o.serialize()) == o
    c = Ordering("circular", (2, 0, 1, 3))
    assert c.serialize().startswith("circ:0,")
    assert Ordering.parse(c.serialize()) == c


def test_circular_canonical_form():
    a = Ordering("circular", (2, 0, 1, 3))
    b = Ordering("circular", (1, 0, 3, 2))
    # Same cyclic order up to rotation/reflection canonicalizes identically.
    assert a.perm[0] == 0 and a.perm[1] <= a.perm[-1]
    assert b.perm[0] == 0


def test_enumeration_rejects_non_partition():
    with pytest.raises(ValueError, match="partition"):
        sd.enumerate_payoffs(sd.cycle(5), "linear", classes=[[0]])
