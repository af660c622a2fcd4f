"""Layer tracing from outside the program.

Wrappers replace the module attributes sepdim looks up at call time (for
example ``sepdim.game.enumerate_payoffs``).  Each call records a span
[name, start, end, parent index, operation index, counts]; spans stay in
memory until the run ends.  Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import json
import statistics
from math import factorial
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1

    def wrap(self, module, attr, name, count=None):
        """Replace ``module.attr`` by a wrapper that records one span per
        call; ``name`` is a string or a function of the call's arguments,
        and ``count(counts, args, kwargs, result)`` fills the span's
        counters."""
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack
        name_of = name if callable(name) else (lambda args: name)

        def wrapper(*args, **kwargs):
            span = [name_of(args), perf_counter(), None,
                    stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = {}
                count(span[5], args, kwargs, result)
            return result

        setattr(module, attr, wrapper)

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                     "parent": s[3], "op": s[4],
                                     "counts": s[5] or {}}) + "\n")


# ---------------------------------------------------------------------------
# What is wrapped, and the counters taken at each boundary
# ---------------------------------------------------------------------------

def _enumerate_name(args):
    return "separation.enumerate." + args[1]


def _orderings(c, args, kwargs, result):
    g, mode = args[0], args[1]
    c["orderings." + mode] = (factorial(g.n) // 2 if mode == "linear"
                              else factorial(g.n - 1) // 2)


def _pareto(c, args, kwargs, result):
    c["vectors_distinct"] = len(args[0])
    c["vectors_kept"] = len(result)


def _lp(c, args, kwargs, result):
    rows, cols = len(args[0]), len(args[1])
    c["lp_rows"], c["lp_cols"], c["lp_cells"] = rows, cols, rows * cols


def _patterns(c, args, kwargs, result):
    c["patterns"] = len(result)


def _orbit_classes(c, args, kwargs, result):
    c["pair_classes"] = len(result.classes)


def _signature_classes(c, args, kwargs, result):
    c["pair_classes"] = len(result[0])


def install(tracer, sepdim):
    """Wrap the layer boundaries of the imported ``sepdim`` package."""
    cli, game, separation, symmetry = (sepdim.cli, sepdim.game,
                                       sepdim.separation, sepdim.symmetry)
    w = tracer.wrap
    w(cli, "main", "cli.main")
    for mod, attr in ((cli, "parse_graph"), (cli, "generate"),
                      (game, "complete_multipartite")):
        w(mod, attr, "graphs.load")
    for mod in (cli, game, separation, symmetry):
        w(mod, "nonincident_pairs", "graphs.pairs")
    w(cli, "fractional_sepdim", "game.fractional_sepdim")
    w(game, "fractional_sepdim", "game.fractional_sepdim")
    w(cli, "conjecture_scan", "game.conjecture_scan")
    w(game, "pattern_payoffs", "game.pattern_payoffs")
    w(game, "solve_game", "game.solve_game", _lp)
    w(game, "automorphisms", "symmetry.automorphisms")
    w(game, "pair_orbits", "symmetry.pair_orbits", _orbit_classes)
    w(game, "signature_classes", "symmetry.signature_classes", _signature_classes)
    w(game, "multipartite_patterns", "symmetry.patterns", _patterns)
    w(game, "count_separated", "separation.count_separated")
    w(game, "enumerate_payoffs", _enumerate_name, _orderings)
    w(separation, "pareto_filter", "separation.pareto", _pareto)
    w(game, "pareto_filter", "separation.pareto", _pareto)


#: Per-layer metric -> (unit, kind, what).  Kinds: "self" sums the self
#: time of the named spans, "total" their duration, "calls" counts them, and
#: "count" sums the named counters.
LAYER_METRICS = {
    "cli.main_s": ("s", "total", ("cli.main",)),
    "cli.self_s": ("s", "self", ("cli.main",)),
    "graphs.load_s": ("s", "self", ("graphs.load",)),
    "graphs.pairs_s": ("s", "self", ("graphs.pairs",)),
    "graphs.pairs_calls": ("count", "calls", ("graphs.pairs",)),
    "symmetry.automorphisms_s": ("s", "self", ("symmetry.automorphisms",)),
    "symmetry.pair_orbits_s": ("s", "self", ("symmetry.pair_orbits",
                                             "symmetry.signature_classes")),
    "symmetry.pair_classes": ("count", "count", ("pair_classes",)),
    "symmetry.patterns_s": ("s", "self", ("symmetry.patterns",)),
    "symmetry.patterns": ("count", "count", ("patterns",)),
    "separation.enumerate_s": ("s", "self", ("separation.enumerate.linear",
                                             "separation.enumerate.circular")),
    "separation.enumerate_linear_s": ("s", "self", ("separation.enumerate.linear",)),
    "separation.enumerate_circular_s": ("s", "self",
                                        ("separation.enumerate.circular",)),
    "separation.orderings": ("count", "count", ("orderings.linear",
                                                "orderings.circular")),
    "separation.orderings_linear": ("count", "count", ("orderings.linear",)),
    "separation.orderings_circular": ("count", "count", ("orderings.circular",)),
    "separation.pareto_s": ("s", "self", ("separation.pareto",)),
    "separation.vectors_distinct": ("count", "count", ("vectors_distinct",)),
    "separation.vectors_kept": ("count", "count", ("vectors_kept",)),
    "separation.count_separated_s": ("s", "self", ("separation.count_separated",)),
    "separation.count_separated_calls": ("count", "calls",
                                         ("separation.count_separated",)),
    "game.self_s": ("s", "self", ("game.fractional_sepdim", "game.conjecture_scan")),
    "game.pattern_payoffs_s": ("s", "self", ("game.pattern_payoffs",)),
    "game.solve_game_s": ("s", "self", ("game.solve_game",)),
    "game.lp_rows": ("count", "count", ("lp_rows",)),
    "game.lp_cols": ("count", "count", ("lp_cols",)),
    "game.lp_cells": ("count", "count", ("lp_cells",)),
}


def _per_round(spans, round_of_op):
    """Per round: self time, duration and calls per span name, and summed
    counters."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    rounds = {}
    for i, (name, start, end, _, op, counts) in enumerate(spans):
        r = rounds.setdefault(round_of_op[op],
                              {"self": {}, "total": {}, "calls": {}, "count": {}})
        r["total"][name] = r["total"].get(name, 0.0) + end - start
        r["self"][name] = r["self"].get(name, 0.0) + end - start - child_time[i]
        r["calls"][name] = r["calls"].get(name, 0) + 1
        for key, value in (counts or {}).items():
            r["count"][key] = r["count"].get(key, 0) + value
    return list(rounds.values())


def layer_metrics(spans, round_of_op):
    """Every per-layer metric, as the median over rounds of its per-round
    value.  A layer the program no longer calls reads 0."""
    rounds = _per_round(spans, round_of_op) or [
        {"self": {}, "total": {}, "calls": {}, "count": {}}]
    out = {}
    for name, (unit, kind, what) in LAYER_METRICS.items():
        values = [sum(r[kind].get(n, 0) for n in what) for r in rounds]
        out[name] = {"value": statistics.median(values), "unit": unit}
    enum_s = out["separation.enumerate_s"]["value"]
    out["separation.orderings_per_s"] = {
        "value": out["separation.orderings"]["value"] / enum_s if enum_s else 0.0,
        "unit": "1/s",
    }
    return out
