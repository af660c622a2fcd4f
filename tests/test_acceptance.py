"""Acceptance suite: one test per criterion, exact rational equality throughout.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or in failure
output).  Heavy computations are cached at module scope so the certification
criterion can re-examine earlier solves without recomputing them.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import sepdim as sd
from sepdim.game import solve_game
from sepdim.graphs import FamilySpec, generate

from conftest import fan, random_graph, zigzag_triangulation


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


@lru_cache(maxsize=None)
def graph_of(source: str):
    return generate(FamilySpec.parse(source))


@lru_cache(maxsize=None)
def solved(source: str, mode: str, reduction: str):
    return sd.fractional_sepdim(graph_of(source), mode, reduction)


@lru_cache(maxsize=None)
def petersen_bundle(mode: str):
    """Petersen solve kept together with its complete payoff row set."""
    g = graph_of("petersen")
    orbits = sd.pair_orbits(g, sd.automorphisms(g))
    rows = sd.enumerate_payoffs(g, mode, orbits.classes)
    labels = [f"orbit{i}" for i in range(len(orbits.classes))]
    sol = solve_game(
        [(c, o.serialize()) for c, o in rows], orbits.sizes, labels,
        mode=mode, reduction="orbits",
    )
    return g, orbits, rows, sol


def test_criterion_01_cycles():
    with criterion(1, "pi_f(C_n) = n/(n-2) for n = 4..8, exact, < 10 s"):
        start = time.monotonic()
        for n in range(4, 9):
            sol = solved(f"C:{n}", "linear", "orbits")
            assert sol.pi_f == Fraction(n, n - 2), (n, sol.pi_f)
        assert time.monotonic() - start < 10


def test_criterion_02_k4():
    with criterion(2, "pi_f(K_4) = 3 and pi_f_circ(K_4) = 3/2, exact"):
        start = time.monotonic()
        assert solved("Kn:4", "linear", "none").pi_f == 3
        assert solved("Kn:4", "circular", "none").pi_f == Fraction(3, 2)
        assert time.monotonic() - start < 5


def test_criterion_03_balanced_bipartite():
    with criterion(3, "pi_f(K_{m,m}) = 3m/(m+1): m=2,3 full+pattern LP, m=4..7 patterns"):
        for m in (2, 3):
            want = Fraction(3 * m, m + 1)
            assert solved(f"K:{m},{m}", "linear", "none").pi_f == want
            assert solved(f"K:{m},{m}", "linear", "patterns").pi_f == want
        for m in range(4, 8):
            want = Fraction(3 * m, m + 1)
            assert solved(f"K:{m},{m}", "linear", "patterns").pi_f == want


def test_criterion_04_unbalanced_bipartite():
    with criterion(4, "pi_f(K_{3,2}) = 2, pi_f(K_{4,3}) = pi_f(K_{3,4}) = 9/4"):
        assert solved("K:3,2", "linear", "patterns").pi_f == 2
        assert solved("K:4,3", "linear", "patterns").pi_f == Fraction(9, 4)
        assert solved("K:3,4", "linear", "patterns").pi_f == Fraction(9, 4)


def test_criterion_05_tripartite():
    with criterion(5, "tripartite values 12/5, 12/5, 2, 12/5 via pattern LP"):
        assert solved("K:2,2,2", "linear", "patterns").pi_f == Fraction(12, 5)
        assert solved("K:3,2,2", "linear", "patterns").pi_f == Fraction(12, 5)
        assert solved("K:1,2,2", "linear", "patterns").pi_f == 2
        assert solved("K:1,3,3", "linear", "patterns").pi_f == Fraction(12, 5)


def test_criterion_06_subdivided_stars():
    with criterion(6, "pi_f(K'_{1,2}) = 1 and pi_f(K'_{1,3}) = 6/5 by full LP"):
        assert solved("star-subdiv:2", "linear", "none").pi_f == 1
        assert solved("star-subdiv:3", "linear", "none").pi_f == Fraction(6, 5)


def test_criterion_07_petersen_linear():
    with criterion(7, "pi_f(Petersen) = 30/17 by full aggregation, <= 10 min"):
        start = time.monotonic()
        g, orbits, rows, sol = petersen_bundle("linear")
        elapsed = time.monotonic() - start
        assert sol.pi_f == Fraction(30, 17)
        assert elapsed <= 600, f"took {elapsed:.0f}s"
        # The aggregation also reproduces the search claims: the best vector
        # is (9, 34) on (Type 1, Type 2), and nothing separates more.
        by_size = {size: i for i, size in enumerate(orbits.sizes)}
        t1, t2 = by_size[15], by_size[60]
        assert max(c[t1] for c, _ in rows) == 9
        assert max(c[t2] for c, _ in rows) == 34
        assert (9, 34) in {(c[t1], c[t2]) for c, _ in rows}


def test_criterion_08_heawood_witness():
    with criterion(8, "Heawood witness ordering separates (54, 51) by orbit class"):
        start = time.monotonic()
        g = graph_of("heawood")
        orbits = sd.pair_orbits(g, sd.automorphisms(g))

        def connecting_edge(pair):
            (a, b), (c, d) = pair
            return any(g.has_edge(u, v) for u in (a, b) for v in (c, d))

        kinds = []
        for cls in orbits.classes:
            kind = "type2" if connecting_edge(orbits.pairs[cls[0]]) else "type1"
            assert all(connecting_edge(orbits.pairs[i]) == (kind == "type2")
                       for i in cls)
            kinds.append(kind)
        assert sorted(orbits.sizes) == [84, 84]

        # Points 1..7 are vertices 0..6; lines follow FANO_LINES order.
        line_at = {line: 7 + i for i, line in enumerate(sd.graphs.FANO_LINES)}
        witness = sd.Ordering("linear", (
            0, line_at[(1, 2, 4)], 3, line_at[(4, 5, 7)], 4, line_at[(5, 6, 1)],
            5, line_at[(3, 4, 6)], 2, line_at[(2, 3, 5)], 1, line_at[(6, 7, 2)],
            6, line_at[(7, 1, 3)],
        ))
        counts = sd.count_separated(witness, orbits.pairs, orbits.classes)
        got = dict(zip(kinds, counts))
        assert got == {"type1": 54, "type2": 51}
        assert time.monotonic() - start < 5


def test_criterion_09_circular_bipartite():
    with criterion(9, "circular: K_{2,2} = 1, K_{3,3} = 6/5; K_{2,4} adjudicates 6/5"):
        assert solved("K:2,2", "circular", "patterns").pi_f == 1
        assert solved("K:3,3", "circular", "patterns").pi_f == Fraction(6, 5)
        got = solved("K:2,4", "circular", "patterns").pi_f
        q = 2
        general_formula = Fraction(4 * q - 2, 3 * q - 1)   # spacing formula at m=2
        discrepant_variant = Fraction(4 * q - 4, 3 * q - 1)
        assert got == general_formula == Fraction(6, 5)
        assert got != discrepant_variant


def test_criterion_10_petersen_circular():
    with criterion(10, "pi_f_circ(Petersen) = 8/7 over 9!/2 orderings, <= 2 min"):
        start = time.monotonic()
        _, _, _, sol = petersen_bundle("circular")
        elapsed = time.monotonic() - start
        assert sol.pi_f == Fraction(8, 7)
        assert elapsed <= 120, f"took {elapsed:.0f}s"


def test_criterion_11_outerplanarity():
    with criterion(11, "one circular ordering iff maximal outerplanar samples; not K_4/K_{2,3}"):
        for n in range(4, 9):
            ok, witness = sd.circular_sepdim_is_one(fan(n))
            assert ok and witness is not None
        for n in range(5, 9):
            ok, witness = sd.circular_sepdim_is_one(zigzag_triangulation(n))
            assert ok and witness is not None
        assert not sd.circular_sepdim_is_one(graph_of("Kn:4"))[0]
        assert not sd.circular_sepdim_is_one(graph_of("K:2,3"))[0]


def test_criterion_12_circular_bipartite_two_orderings():
    with criterion(12, "pi_circ(K_{m,n}) = 2 for (2,3), (3,3), (2,4)"):
        for m, n in [(2, 3), (3, 3), (2, 4)]:
            g = sd.complete_multipartite(m, n)
            xs = list(range(m))
            ys = list(range(m, m + n))
            family = [
                sd.Ordering("circular", tuple(xs + ys)),
                sd.Ordering("circular", tuple(xs + ys[::-1])),
            ]
            ok, deficiencies = sd.verify_separating_family(g, family, t=1)
            assert ok, deficiencies
            assert not sd.circular_sepdim_is_one(g)[0]


def test_criterion_13_k4free_strategy():
    with criterion(13, "K4-free boost: exact min probability >= base + 4(n-4)!/n!"):
        for source in ("C:5", "K:2,3", "K:2,2,2"):
            g = graph_of(source)
            n = g.n
            boost = Fraction(4 * math.factorial(n - 4), math.factorial(n))
            for mode, base in (("linear", Fraction(1, 3)),
                               ("circular", Fraction(2, 3))):
                strat = sd.k4free_strategy(g, mode)
                lowest = sd.min_separation_probability(strat, g)
                assert strat.claimed_guarantee == base + boost
                assert lowest >= base + boost, (source, mode, lowest)


def test_criterion_14_counting_identities():
    with criterion(14, "all counting identity families, exact, < 5 s"):
        from sepdim.strategies import (
            balanced_bipartite_pairs,
            balanced_tripartite_tcount,
            balanced_tripartite_tpairs,
            block_bipartite_separated_count,
            interleave_separated_count,
            odd_binomial_prefix_sum,
            one_extra_x_count,
            one_extra_x_pairs,
            one_extra_yz_count,
            one_extra_yz_pairs,
            split_tripartite_tcount,
        )

        start = time.monotonic()
        for m in range(2, 51):
            assert 3 * m * interleave_separated_count(m) \
                == (m + 1) * balanced_bipartite_pairs(m)
        for m in range(1, 13):
            for q in range(1, 13):
                if m * q <= 1:
                    continue
                assert 12 * block_bipartite_separated_count(m, q) \
                    == ((2 * m + 1) * m * q - m - 2) * (m + 1) * m * q
        for m in range(2, 31):
            assert 6 * m * balanced_tripartite_tcount(m) \
                == (2 * m + 1) * balanced_tripartite_tpairs(m)
        for m in range(2, 6):
            assert 6 * m * one_extra_x_count(m) == (2 * m + 1) * one_extra_x_pairs(m)
            assert 6 * m * one_extra_yz_count(m) == (2 * m + 1) * one_extra_yz_pairs(m)
        for m in range(2, 31):
            for k in range(1, m + 1):
                assert split_tripartite_tcount(m, k) \
                    - split_tripartite_tcount(m, k - 1) == m - 2 * k + 1
        for k in range(1, 51):
            assert 6 * odd_binomial_prefix_sum(k) == (4 * k + 1) * k * (k - 1)
        assert time.monotonic() - start < 5


def test_criterion_15_tree_strategy():
    with criterion(15, "layout property on 10^4 samples; MC within 4 SE; spider <= 4/3"):
        rng = random.Random(60902)
        samples_done = 0
        while samples_done < 10000:
            g = sd.random_tree(rng.randrange(4, 16), seed=rng.randrange(1 << 30))
            root = sd.centroid(g)
            for _ in range(200):
                layout = sd.tree_strategy_sample(g, Fraction(3, 4), rng, root=root)
                assert sd.layout_respects_subtrees(g, root, layout)
                samples_done += 1

        beta = Fraction(3, 4)
        fixtures = [
            (graph_of("star-subdiv:3"), 0),   # kinds 1 and 3-at-root
            (sd.path(6), 0),                  # kind 2 under an end root
            (graph_of("star-subdiv:3"), 4),   # kind 3 away from the root
        ]
        n_samples = 8000
        for g, root in fixtures:
            _, classes = sd.tree_pair_classify(g, root=root)
            pairs = sd.nonincident_pairs(g)
            hits = [0] * len(pairs)
            for _ in range(n_samples):
                layout = sd.tree_strategy_sample(g, beta, rng, root=root)
                for i, p in enumerate(pairs):
                    if sd.separates(layout, p):
                        hits[i] += 1
            for cls, h in zip(classes, hits):
                p_exact = float(cls.probability(beta))
                se = math.sqrt(max(p_exact * (1 - p_exact), 0.0) / n_samples)
                assert abs(h / n_samples - p_exact) <= max(4 * se, 1e-12), \
                    (g.edges, root, cls, h / n_samples, p_exact)

        _, classes = sd.tree_pair_classify(graph_of("star-subdiv:3"), root=0)
        guarantee = sd.tree_guarantee(classes, beta)
        assert guarantee == Fraction(3, 4)
        assert Fraction(1) / guarantee == Fraction(4, 3)
        assert solved("star-subdiv:3", "linear", "none").pi_f <= Fraction(4, 3)


def _recorded_solves():
    """Every certified solve from criteria 1-10 (cached, so no recompute)."""
    out = []
    for n in range(4, 9):
        out.append((f"C:{n}", "linear", "orbits"))
    out.append(("Kn:4", "linear", "none"))
    out.append(("Kn:4", "circular", "none"))
    for m in (2, 3):
        out.append((f"K:{m},{m}", "linear", "none"))
    for m in range(2, 8):
        out.append((f"K:{m},{m}", "linear", "patterns"))
    out += [("K:3,2", "linear", "patterns"), ("K:4,3", "linear", "patterns"),
            ("K:3,4", "linear", "patterns")]
    out += [("K:2,2,2", "linear", "patterns"), ("K:3,2,2", "linear", "patterns"),
            ("K:1,2,2", "linear", "patterns"), ("K:1,3,3", "linear", "patterns")]
    out += [("star-subdiv:2", "linear", "none"), ("star-subdiv:3", "linear", "none")]
    out += [("K:2,2", "circular", "patterns"), ("K:3,3", "circular", "patterns"),
            ("K:2,4", "circular", "patterns")]
    return out


def _rebuild_classes(g, reduction):
    pairs = sd.nonincident_pairs(g)
    if reduction == "patterns":
        classes, _ = sd.signature_classes(g)
    elif reduction == "orbits":
        classes = sd.pair_orbits(g, sd.automorphisms(g)).classes
    else:
        classes = [[i] for i in range(len(pairs))]
    return pairs, classes


def _check_certificate(g, mode, reduction, sol):
    """Recompute both certificate sides from raw counting primitives."""
    pairs, classes = _rebuild_classes(g, reduction)
    sizes = [len(c) for c in classes]
    # Primal: min over classes of the mixed per-class separation probability.
    mixed = [Fraction(0)] * len(classes)
    for key, weight in sol.primal:
        counts = sd.count_separated(sd.Ordering.parse(key), pairs, classes)
        for q, c in enumerate(counts):
            mixed[q] += weight * Fraction(c, sizes[q])
    assert min(mixed) == sol.value
    # Dual: max over all orderings of the mixed pair-distribution payoff.
    weight_of = dict(sol.dual)
    weights = [weight_of.get(lbl, Fraction(0)) / size
               for lbl, size in zip(sol.class_labels, sizes)]
    if reduction == "patterns":
        best = max(
            sum(w * c for w, c in zip(
                weights,
                sd.count_separated(sd.pattern_ordering(g, pat, mode), pairs, classes),
            ))
            for pat in sd.multipartite_patterns(g)
        )
    else:
        best = sd.max_separation(g, mode, classes, weights).score
    assert best == sol.value


def test_criterion_16_lp_certification():
    with criterion(16, "dual certificates exact for criteria 1-10; strategy bounds consistent"):
        for source, mode, reduction in _recorded_solves():
            g = graph_of(source)
            sol = solved(source, mode, reduction)
            assert sol.value is not None
            assert sol.pi_f * sol.value == 1
            assert sum(w for _, w in sol.primal) == 1
            assert sum(w for _, w in sol.dual) == 1
            _check_certificate(g, mode, reduction, sol)
            base = Fraction(1, 3) if mode == "linear" else Fraction(2, 3)
            assert base <= sol.value  # uniform strategy never beats the optimum

        # Petersen solves: dual max re-checked over the complete row sets.
        for mode, want in (("linear", Fraction(30, 17)), ("circular", Fraction(8, 7))):
            g, orbits, rows, sol = petersen_bundle(mode)
            assert sol.pi_f == want
            weight_of = dict(sol.dual)
            weights = [
                weight_of.get(f"orbit{i}", Fraction(0)) / size
                for i, size in enumerate(orbits.sizes)
            ]
            best = max(sum(w * c for w, c in zip(weights, counts))
                       for counts, _ in rows)
            assert best == sol.value
            base = Fraction(1, 3) if mode == "linear" else Fraction(2, 3)
            assert base <= sol.value

        # Structured strategies stay below the LP value on their instances.
        pairs_between = [
            ("K:3,3", sd.bipartite_interleaved_strategy),
            ("K:3,4", sd.bipartite_interleaved_strategy),
            ("K:2,2,2", sd.tripartite_block_strategy),
            ("K:1,3,3", sd.tripartite_block_strategy),
        ]
        for source, build in pairs_between:
            g = graph_of(source)
            sol = solved(source, "linear", "patterns")
            strat = build(g)
            assert sd.min_separation_probability(strat, g) <= sol.value
        for source in ("K:3,3", "K:2,4"):
            g = graph_of(source)
            sol = solved(source, "circular", "patterns")
            strat = sd.circular_spaced_strategy(g)
            assert sd.min_separation_probability(strat, g) <= sol.value
        for source in ("C:5",):
            g = graph_of(source)
            sol = solved(source, "linear", "orbits")
            strat = sd.k4free_strategy(g, "linear")
            assert sd.min_separation_probability(strat, g) <= sol.value


def test_column_generation_petersen_over_full_rows():
    # The column-generation solve sees only the columns it priced; re-check
    # both of its certificate sides against every ordering's payoff vector.
    _, orbits, rows, _ = petersen_bundle("linear")
    sol = solved("petersen", "linear", "orbits")
    assert sol.pi_f == Fraction(30, 17)
    assert sol.class_sizes == orbits.sizes
    weight_of = dict(sol.dual)
    weights = [weight_of.get(lbl, Fraction(0)) / size
               for lbl, size in zip(sol.class_labels, sol.class_sizes)]
    best = max(sum(w * c for w, c in zip(weights, counts)) for counts, _ in rows)
    assert best == sol.value
    mixed = [Fraction(0)] * len(orbits.classes)
    for key, weight in sol.primal:
        counts = sd.count_separated(sd.Ordering.parse(key), orbits.pairs, orbits.classes)
        for q, c in enumerate(counts):
            mixed[q] += weight * Fraction(c, orbits.sizes[q])
    assert min(mixed) == sol.value


def test_criterion_17_oracle_equivalence():
    with criterion(17, "reduction none equals reduction orbits on 25 random graphs"):
        rng = random.Random(20260810)
        sizes = [5] * 9 + [6] * 8 + [7] * 8
        probs = [0.3, 0.4, 0.5, 0.6]
        for trial in range(25):
            g = random_graph(sizes[trial], probs[trial % 4], rng)
            plain = sd.fractional_sepdim(g, "linear", "none")
            reduced = sd.fractional_sepdim(g, "linear", "orbits")
            assert plain.pi_f == reduced.pi_f, (trial, plain.pi_f, reduced.pi_f)
