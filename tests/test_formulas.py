from fractions import Fraction

import sepdim as sd
from sepdim.formulas import crosscheck, evaluate

from conftest import all_trees_up_to


def test_evaluate_cycles():
    assert evaluate("cycle", (7,), "linear").value == Fraction(7, 5)
    assert evaluate("cycle", (4,), "linear").value == 2
    assert evaluate("cycle", (3,), "linear").value == 0


def test_evaluate_bipartite_circular():
    assert evaluate("complete-bipartite", (4, 4), "circular").value == Fraction(9, 7)
    assert evaluate("complete-bipartite", (2, 2), "circular").value == 1
    assert evaluate("complete-bipartite", (2, 4), "circular").value == Fraction(6, 5)


def test_evaluate_split_tripartite():
    assert evaluate("complete-tripartite", (1, 3, 3), "linear").value == Fraction(12, 5)
    assert evaluate("complete-tripartite", (1, 2, 2), "linear").value == 2
    assert evaluate("complete-tripartite", (1, 4, 4), "linear").value == Fraction(48, 19)


def test_evaluate_complete():
    assert evaluate("complete", (7,), "linear").value == 3
    assert evaluate("complete", (4,), "circular").value == Fraction(3, 2)
    assert evaluate("complete", (3,), "linear").value == 0


def test_evaluate_subdivided_star():
    assert evaluate("subdivided-star", (2,), "linear").value == 1
    assert evaluate("subdivided-star", (3,), "linear").value == Fraction(6, 5)
    assert evaluate("subdivided-star", (4,), "linear").value == Fraction(6, 5)


def test_evaluate_unknown_instances():
    assert evaluate("complete-bipartite", (5, 7), "linear") is None
    assert evaluate("complete-bipartite", (3, 5), "circular") is None
    assert evaluate("complete-tripartite", (2, 3, 4), "linear") is None
    assert evaluate("heawood", (), "circular") is None


def test_evaluate_named_graphs():
    assert evaluate("petersen", (), "linear").value == Fraction(30, 17)
    assert evaluate("petersen", (), "circular").value == Fraction(8, 7)
    assert evaluate("heawood", (), "linear").value == Fraction(28, 17)


def test_bipartite_q1_consistency():
    # The (m+1, qm) formula at q = 1 collapses to the balanced value.
    for m in range(2, 21):
        near = evaluate("complete-bipartite", (m + 1, m), "linear").value
        balanced = evaluate("complete-bipartite", (m, m), "linear").value
        assert near == balanced == Fraction(3 * m, m + 1)


def test_circular_bipartite_q1_consistency():
    for m in range(2, 21):
        got = evaluate("complete-bipartite", (m, m), "circular").value
        assert got == Fraction(3 * m - 3, 2 * m - 1)


def test_values_increase_toward_limits():
    prev = None
    for m in range(2, 21):
        v = evaluate("complete-bipartite", (m, m), "linear").value
        assert v < 3
        if prev is not None:
            assert v > prev
        prev = v
    prev = None
    for m in range(2, 21):
        v = evaluate("complete-bipartite", (m, m), "circular").value
        assert v < Fraction(3, 2)
        if prev is not None:
            assert v > prev
        prev = v


def test_bipartite_gap_from_three():
    # Fixing the smaller structure parameter m bounds the value away from 3.
    for m in range(1, 13):
        for q in range(1, 13):
            if m * q <= 1:
                continue
            v = evaluate("complete-bipartite", (m + 1, q * m), "linear").value
            assert v < 3 * (1 - Fraction(1, 2 * m + 1)) or m == 1


def test_caterpillar_characterization_small_trees():
    for t in all_trees_up_to(7):
        value = sd.fractional_sepdim(t, "linear", "none").pi_f
        cat = sd.is_caterpillar(t)
        if sd.nonincident_pairs(t):
            assert (value == 1) == cat
        else:
            assert value == 0 and cat


def test_crosscheck_pass_rows():
    row = crosscheck("cycle", (6,), "linear")
    assert row["status"] == "PASS"
    assert row["oracle"] == row["lp"] == "3/2"
    row = crosscheck("complete-bipartite", (3, 2), "linear")
    assert row["status"] == "PASS"
    assert row["lp"] == "2"


def test_crosscheck_partial_on_capped_instance():
    row = crosscheck("heawood", (), "linear")
    assert row["status"] == "PASS"
    assert row["oracle"] == row["lp"] == "28/17"
    row = crosscheck("heawood", (), "circular")
    assert row["status"] == "PARTIAL"
    assert row["lp"] is None
    assert "circular enumeration is capped at n <= 10" in row["detail"]


def test_crosscheck_lp_only_for_unknown():
    row = crosscheck("complete-tripartite", (2, 3, 4), "linear")
    assert row["status"] == "LP-ONLY"
    assert row["lp"] is not None


def test_known_values_in_range():
    catalog = [
        ("cycle", (n,), "linear") for n in range(4, 15)
    ] + [
        ("complete-bipartite", (a, b), m)
        for a in range(2, 8) for b in range(2, 8) for m in ("linear", "circular")
    ] + [
        ("complete-tripartite", (a, b, c), "linear")
        for a in range(1, 5) for b in range(a, 5) for c in range(b, 5)
    ] + [
        ("subdivided-star", (n,), "linear") for n in range(2, 9)
    ]
    for family, params, mode in catalog:
        kv = evaluate(family, params, mode)
        if kv is None or kv.value == 0:
            continue
        top = 3 if mode == "linear" else Fraction(3, 2)
        assert 1 <= kv.value <= top, (family, params, mode, kv.value)
