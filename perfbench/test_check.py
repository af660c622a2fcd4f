"""Self-tests of the benchmark's checker, inputs and tracing.

    python3 -m unittest perfbench/test_check.py
"""

from __future__ import annotations

import json
import os
import sys
import unittest
from fractions import Fraction
from itertools import combinations

import networkx as nx

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

C5 = (5, ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4)))


def c5_report():
    """C_5 with its five rotation orderings against the uniform pair mix."""
    pairs = check.nonincident_pairs(C5[1])
    rotations = [",".join(str((k + i) % 5) for i in range(5)) for k in range(5)]
    return {
        "mode": "linear",
        "reduction": "none",
        "graph": {"n": 5, "pairs": 5},
        "result": {
            "pi_f": "5/3",
            "game_value": "3/5",
            "certificate": "exact",
            "primal": [[f"lin:{r}", "1/5"] for r in rotations],
            "dual": [[check.pair_label(p), "1/5"] for p in pairs],
            "classes": [{"label": check.pair_label(p), "size": 1} for p in pairs],
        },
    }


def errors(graph, report, mode="linear", reduction="none"):
    return check.Checker().solve_errors(graph, mode, reduction, 0,
                                        json.dumps(report))


class CertificateTests(unittest.TestCase):
    def test_accepts_c5_rotations(self):
        self.assertEqual(errors(C5, c5_report()), [])

    def test_rejects_perturbed_primal_weight(self):
        report = c5_report()
        report["result"]["primal"][0][1] = "1/4"
        self.assertTrue(errors(C5, report))

    def test_rejects_weight_moved_between_orderings(self):
        report = c5_report()
        report["result"]["primal"][0][1] = "3/10"
        report["result"]["primal"][1][1] = "1/10"
        self.assertTrue(any("primal" in e for e in errors(C5, report)))

    def test_rejects_dual_that_an_ordering_beats(self):
        report = c5_report()
        dual = report["result"]["dual"]
        dual[0][1], dual[1][1] = "3/10", "1/10"
        self.assertTrue(any("dual" in e for e in errors(C5, report)))

    def test_rejects_orderings_over_part_of_the_vertices(self):
        # 2C4 on eight vertices, certified with an ordering of one C4 only.
        edges = ((0, 1), (0, 3), (1, 2), (2, 3), (4, 5), (4, 7), (5, 6), (6, 7))
        pairs = check.nonincident_pairs(edges)
        report = {
            "mode": "linear", "reduction": "none", "graph": {"n": 8, "pairs": 20},
            "result": {
                "pi_f": "2", "game_value": "1/2", "certificate": "exact",
                "primal": [["lin:0,1,2,3", "1"]],
                "dual": [[check.pair_label(pairs[0]), "1"]],
                "classes": [{"label": check.pair_label(p), "size": 1} for p in pairs],
            },
        }
        self.assertTrue(any("all 8 vertices" in e for e in errors((8, edges), report)))

    def test_flags_2k2_value_zero(self):
        report = {"mode": "linear", "reduction": "none",
                  "graph": {"n": 4, "pairs": 1},
                  "result": {"pi_f": "0", "game_value": None,
                             "certificate": "trivial", "primal": [], "dual": [],
                             "classes": []}}
        errs = errors((4, ((0, 1), (2, 3))), report)
        self.assertTrue(any("< 1" in e for e in errs))


class ValueTests(unittest.TestCase):
    def test_pattern_lp_matches_paper(self):
        checker = check.Checker()
        for shape, mode in [((3, 3), "linear"), ((2, 3), "linear"),
                            ((2, 2, 2), "linear"), ((1, 3, 3), "linear"),
                            ((3, 3), "circular")]:
            want = check.shape_value(shape, mode)
            self.assertAlmostEqual(checker.lp_value(shape, mode), float(want),
                                   places=9, msg=str(shape))

    def test_paper_values(self):
        self.assertEqual(check.paper_value(*workloads.petersen_graph(), "linear"),
                         Fraction(30, 17))
        self.assertEqual(check.paper_value(*workloads.fan_graph(10), "circular"), 1)
        self.assertEqual(check.paper_value(*workloads.multipartite_graph(5, 5),
                                           "circular"), Fraction(4, 3))
        k5 = (5, tuple(combinations(range(5), 2)))
        self.assertEqual(check.paper_value(*k5, "linear"), 3)

    def test_monotone_and_circular_bounds(self):
        self.assertTrue(check.monotone_errors({(3, 3, 4): Fraction(2)},
                                              {(3, 4, 4): Fraction(3, 2)}))
        self.assertTrue(check.circular_below_linear_errors(
            {(3, 4, 4): Fraction(2)}, {(3, 4, 4): Fraction(5, 2)}))


class InputTests(unittest.TestCase):
    def test_connected_six_vertex_census(self):
        pairs = list(combinations(range(6), 2))
        graphs = []
        for mask, labelled in workloads.CONNECTED_6:
            g = nx.Graph([pairs[i] for i in range(15) if mask >> i & 1])
            self.assertEqual(g.number_of_nodes(), 6)
            self.assertTrue(nx.is_connected(g))
            aut = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(
                g, g).isomorphisms_iter())
            self.assertEqual(labelled, 720 // aut)
            graphs.append(g)
        self.assertEqual(len(graphs), 112)
        self.assertEqual(sum(lab for _, lab in workloads.CONNECTED_6), 26704)
        for g, h in combinations(graphs, 2):
            if g.number_of_edges() == h.number_of_edges():
                self.assertFalse(nx.is_isomorphic(g, h))

    def test_same_seed_same_inputs(self):
        self.assertEqual([op.graph for op in workloads.random_batch(5)],
                         [op.graph for op in workloads.random_batch(5)])
        self.assertNotEqual([op.graph for op in workloads.random_batch(5)],
                            [op.graph for op in workloads.random_batch(6)])


class TraceTests(unittest.TestCase):
    def test_self_time_excludes_children(self):
        spans = [["cli.main", 0.0, 10.0, -1, 0, None],
                 ["game.solve_game", 2.0, 5.0, 0, 0, {"lp_rows": 4}],
                 ["graphs.pairs", 6.0, 7.0, 0, 0, None]]
        m = layertrace.layer_metrics(spans, [0])
        self.assertEqual(m["cli.main_s"]["value"], 10.0)
        self.assertEqual(m["cli.self_s"]["value"], 6.0)
        self.assertEqual(m["game.lp_rows"]["value"], 4)
        self.assertEqual(m["graphs.pairs_calls"]["value"], 1)
        self.assertEqual(m["separation.orderings_per_s"]["value"], 0.0)

    def test_enumeration_split_by_mode(self):
        spans = [["separation.enumerate.linear", 0.0, 2.0, -1, 0,
                  {"orderings.linear": 60}],
                 ["separation.enumerate.circular", 3.0, 4.0, -1, 1,
                  {"orderings.circular": 12}]]
        m = layertrace.layer_metrics(spans, [0, 0])
        self.assertEqual(m["separation.enumerate_s"]["value"], 3.0)
        self.assertEqual(m["separation.enumerate_linear_s"]["value"], 2.0)
        self.assertEqual(m["separation.enumerate_circular_s"]["value"], 1.0)
        self.assertEqual(m["separation.orderings"]["value"], 72)
        self.assertEqual(m["separation.orderings_circular"]["value"], 12)
        self.assertEqual(m["separation.orderings_per_s"]["value"], 24.0)


if __name__ == "__main__":
    unittest.main()
