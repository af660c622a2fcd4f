"""Command-line front end: solve, verify, scan, and tree subcommands.

Every command produces a RunReport; ``--json`` prints it canonically (stable
key order, exact fractions as "p/q" strings), ``--csv`` prints flat rows with
a header.  Reports are byte-reproducible for a fixed command and seed, except
for the timing field.  Exit status is nonzero when any FAIL/ERROR row exists.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from fractions import Fraction
from math import sqrt

from .formulas import crosscheck
from .game import (
    GameError,
    conjecture_scan,
    fractional_sepdim,
    _frac_str,
)
from .graphs import (
    FamilySpec,
    Graph,
    GraphError,
    complete_multipartite,
    generate,
    is_tree,
    nonincident_pairs,
    parse_graph,
    random_tree,
)
from .separation import (
    EnumerationCapExceeded,
    Ordering,
    count_separated,
    separates,
)
from .strategies import (
    StrategyError,
    balanced_tripartite_tcount,
    balanced_tripartite_tpairs,
    bipartite_interleaved_strategy,
    block_bipartite_separated_count,
    balanced_bipartite_pairs,
    centroid,
    circular_spaced_strategy,
    interleave_separated_count,
    k4free_strategy,
    min_separation_probability,
    odd_binomial_prefix_sum,
    one_extra_x_count,
    one_extra_x_pairs,
    one_extra_yz_count,
    one_extra_yz_pairs,
    separation_probabilities,
    split_tripartite_tcount,
    tree_guarantee,
    tree_pair_classify,
    tree_strategy_sample,
    tripartite_block_strategy,
    uniform_strategy,
)
from .symmetry import SymmetryCapExceeded

SCHEMA = 1


def _load_graph(source: str):
    """Resolve a graph source: '@path', an existing file path, or a family
    spec string."""
    if source.startswith("@"):
        path = source[1:]
        with open(path) as fh:
            return parse_graph(fh.read()), {"file": path}
    base = os.path.basename(source)
    if os.path.sep in source or (os.path.exists(source) and "." in base):
        with open(source) as fh:
            return parse_graph(fh.read()), {"file": source}
    spec = FamilySpec.parse(source)
    return generate(spec), {"family": str(spec)}


def _graph_summary(g: Graph, origin: dict) -> dict:
    out = {"n": g.n, "edges": len(g.edges), "pairs": len(nonincident_pairs(g))}
    out.update(origin)
    if g.parts is not None:
        out["parts"] = [len(p) for p in g.parts]
    return out


def _report(command, result, *, graph=None, mode=None, reduction=None,
            seed=None, started=None) -> dict:
    report = {
        "schema": SCHEMA,
        "command": command,
        "result": result,
    }
    if graph is not None:
        report["graph"] = graph
    if mode is not None:
        report["mode"] = mode
    if reduction is not None:
        report["reduction"] = reduction
    if seed is not None:
        report["seed"] = seed
    if started is not None:
        report["timing_s"] = round(time.monotonic() - started, 3)
    return report


def _emit(report: dict, args, rows=None, human_lines=None) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report, sort_keys=True))
    elif getattr(args, "csv", False) and rows is not None:
        header, data = rows
        print(",".join(header))
        for row in data:
            print(",".join(str(x) for x in row))
    else:
        for line in human_lines or []:
            print(line)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    started = time.monotonic()
    g, origin = _load_graph(args.source)
    sol = fractional_sepdim(g, args.mode, args.reduction)
    label = "pi_f" if args.mode == "linear" else "pi_f_circ"
    data = sol.to_json_dict()
    result = {
        label: data["pi_f"],
        "game_value": data["value"],
        "certificate": "exact" if sol.value is not None else "trivial",
        **{key: data[key] for key in ("primal", "dual", "classes")},
    }
    report = _report(
        ["solve", args.source], result, graph=_graph_summary(g, origin),
        mode=args.mode, reduction=sol.reduction, started=started,
    )
    human = [
        f"{label} = {data['pi_f']}",
        f"game value = {result['game_value']}  (reduction {sol.reduction}, "
        f"certificate {result['certificate']})",
        f"primal support: {len(sol.primal)} orderings; "
        f"dual support: {len(sol.dual)} pair classes",
    ]
    rows = (
        ["metric", "value"],
        [[label, data["pi_f"]], ["game_value", result["game_value"]],
         ["reduction", sol.reduction], ["certificate", result["certificate"]]],
    )
    _emit(report, args, rows=rows, human_lines=human)
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

_FORMULA_CATALOG = [
    ("cycle", (4,), "linear"), ("cycle", (5,), "linear"), ("cycle", (6,), "linear"),
    ("cycle", (7,), "linear"), ("cycle", (8,), "linear"),
    ("complete", (4,), "linear"), ("complete", (5,), "linear"),
    ("complete-bipartite", (2, 2), "linear"), ("complete-bipartite", (3, 3), "linear"),
    ("complete-bipartite", (3, 2), "linear"), ("complete-bipartite", (4, 3), "linear"),
    ("complete-bipartite", (3, 4), "linear"), ("complete-bipartite", (2, 4), "linear"),
    ("complete-bipartite", (4, 4), "linear"), ("complete-bipartite", (5, 5), "linear"),
    ("complete-bipartite", (6, 6), "linear"), ("complete-bipartite", (7, 7), "linear"),
    ("complete-tripartite", (2, 2, 2), "linear"), ("complete-tripartite", (3, 2, 2), "linear"),
    ("complete-tripartite", (1, 2, 2), "linear"), ("complete-tripartite", (1, 3, 3), "linear"),
    ("complete-tripartite", (3, 3, 3), "linear"), ("complete-tripartite", (1, 4, 4), "linear"),
    ("subdivided-star", (2,), "linear"), ("subdivided-star", (3,), "linear"),
    ("path", (6,), "linear"),
    ("complete", (4,), "circular"),
    ("complete-bipartite", (2, 2), "circular"), ("complete-bipartite", (3, 3), "circular"),
    ("complete-bipartite", (2, 4), "circular"), ("complete-bipartite", (4, 4), "circular"),
    ("complete-bipartite", (2, 6), "circular"), ("complete-bipartite", (5, 5), "circular"),
    ("complete-bipartite", (6, 6), "circular"), ("complete-bipartite", (7, 7), "circular"),
    ("complete-bipartite", (3, 9), "circular"), ("complete-bipartite", (4, 8), "circular"),
    ("cycle", (5,), "circular"), ("cycle", (7,), "circular"),
    ("petersen", (), "linear"), ("petersen", (), "circular"),
    ("heawood", (), "linear"),
]


def _suite_formulas():
    rows = []
    for family, params, mode in _FORMULA_CATALOG:
        row = crosscheck(family, params, mode)
        name = f"{family}{list(params)}:{mode}"
        detail = row["detail"] or f"oracle {row['oracle']} lp {row['lp']}"
        rows.append(("formulas", name, row["status"], detail))
    return rows


def _suite_identities():
    rows = []

    ok = all(
        3 * m * interleave_separated_count(m) == (m + 1) * balanced_bipartite_pairs(m)
        for m in range(2, 51)
    )
    rows.append(("identities", "balanced-bipartite-count", "PASS" if ok else "FAIL",
                 "m in 2..50"))

    ok = True
    for m in range(1, 13):
        for q in range(1, 13):
            if m * q <= 1:
                continue
            lhs = 12 * block_bipartite_separated_count(m, q)
            rhs = ((2 * m + 1) * m * q - m - 2) * (m + 1) * m * q
            if lhs != rhs:
                ok = False
    rows.append(("identities", "one-extra-bipartite-count", "PASS" if ok else "FAIL",
                 "m,q in 1..12, mq>1"))

    ok = all(
        6 * m * balanced_tripartite_tcount(m)
        == (2 * m + 1) * balanced_tripartite_tpairs(m)
        for m in range(2, 31)
    )
    for m in range(2, 7):
        g = complete_multipartite(m, m, m)
        o = Ordering("linear", tuple(v for i in range(m)
                                     for v in (i, m + i, 2 * m + i)))
        t_idx = _three_part_pair_indices(g)
        (count,) = count_separated(o, nonincident_pairs(g), [t_idx])
        if count != balanced_tripartite_tcount(m):
            ok = False
    rows.append(("identities", "balanced-tripartite-count", "PASS" if ok else "FAIL",
                 "closed form m in 2..30; recount m in 2..6"))

    ok = True
    for m in range(2, 6):
        if one_extra_x_pairs(m) + one_extra_yz_pairs(m) != _one_extra_tpair_total(m):
            ok = False
        x_cnt, yz_cnt = _one_extra_block_counts(m)
        if x_cnt != one_extra_x_count(m) or yz_cnt != one_extra_yz_count(m):
            ok = False
        if 6 * m * one_extra_x_count(m) != (2 * m + 1) * one_extra_x_pairs(m):
            ok = False
        if 6 * m * one_extra_yz_count(m) != (2 * m + 1) * one_extra_yz_pairs(m):
            ok = False
    rows.append(("identities", "one-extra-tripartite-count", "PASS" if ok else "FAIL",
                 "totals and recounts m in 2..5"))

    ok = all(
        split_tripartite_tcount(m, k) - split_tripartite_tcount(m, k - 1)
        == m - 2 * k + 1
        for m in range(2, 31)
        for k in range(1, m + 1)
    )
    ok = ok and all(
        6 * odd_binomial_prefix_sum(k) == (4 * k + 1) * k * (k - 1)
        for k in range(1, 51)
    )
    rows.append(("identities", "split-tripartite-increments", "PASS" if ok else "FAIL",
                 "g(k)=m-2k+1 for m<=30; prefix sums k<=50"))
    return rows


def _three_part_pair_indices(g):
    part_of = g.part_of
    out = []
    for i, ((a, b), (c, d)) in enumerate(nonincident_pairs(g)):
        if len({part_of[a], part_of[b], part_of[c], part_of[d]}) == 3:
            out.append(i)
    return out


def _one_extra_tpair_total(m):
    g = complete_multipartite(m + 1, m, m)
    return len(_three_part_pair_indices(g))


def _one_extra_block_counts(m):
    """X-pair and Y/Z-pair counts separated by the canonical block ordering
    of K_{m+1,m,m}."""
    g = complete_multipartite(m + 1, m, m)
    part_of = g.part_of
    perm = []
    for i in range(m):
        perm.extend((i, m + 1 + i, 2 * m + 1 + i))
    perm.append(m)
    o = Ordering("linear", tuple(perm))
    pairs = nonincident_pairs(g)
    x_idx, yz_idx = [], []
    for i, ((a, b), (c, d)) in enumerate(pairs):
        labels = [part_of[a], part_of[b], part_of[c], part_of[d]]
        if len(set(labels)) != 3:
            continue
        common = ({part_of[a], part_of[b]} & {part_of[c], part_of[d]}).pop()
        (x_idx if common == 0 else yz_idx).append(i)
    return count_separated(o, pairs, [x_idx, yz_idx])


def _suite_strategies():
    rows = []
    checks = []
    k4 = generate(FamilySpec.parse("Kn:4"))
    for mode, want in (("linear", Fraction(1, 3)), ("circular", Fraction(2, 3))):
        s = uniform_strategy(k4, mode)
        probs = set(separation_probabilities(s, nonincident_pairs(k4)))
        checks.append((f"uniform-{mode}-K4", probs == {want}, f"probs {probs}"))
    for src in ("C:5", "K:2,3", "K:2,2,2"):
        g, _ = _load_graph(src)
        for mode in ("linear", "circular"):
            s = k4free_strategy(g, mode)
            got = min_separation_probability(s, g)
            checks.append((
                f"k4free-{mode}-{src}", got >= s.claimed_guarantee,
                f"min {got} claimed {s.claimed_guarantee}",
            ))
    for src in ("K:2,2", "K:3,3", "K:3,2", "K:3,4"):
        g, _ = _load_graph(src)
        s = bipartite_interleaved_strategy(g)
        got = min_separation_probability(s, g)
        checks.append((f"interleave-{src}", got == s.claimed_guarantee,
                       f"min {got} fraction {s.claimed_guarantee}"))
    for src in ("K:2,2,2", "K:3,2,2", "K:1,2,2", "K:1,3,3"):
        g, _ = _load_graph(src)
        s = tripartite_block_strategy(g)
        got = min_separation_probability(s, g)
        checks.append((f"tri-blocks-{src}", got == s.claimed_guarantee,
                       f"min {got} claimed {s.claimed_guarantee}"))
    for src in ("K:3,3", "K:2,4"):
        g, _ = _load_graph(src)
        s = circular_spaced_strategy(g)
        got = min_separation_probability(s, g)
        checks.append((f"circ-spaced-{src}", got == s.claimed_guarantee,
                       f"min {got} fraction {s.claimed_guarantee}"))
    g, _ = _load_graph("star-subdiv:4")
    root, classes = tree_pair_classify(g)
    got = tree_guarantee(classes, Fraction(3, 4))
    checks.append(("tree-spider-guarantee", got == Fraction(3, 4),
                   f"min probability {got} at beta=3/4"))
    for name, ok, detail in checks:
        rows.append(("strategies", name, "PASS" if ok else "FAIL", detail))
    return rows


def _count_all_separated(g, perm):
    o = Ordering("linear", tuple(perm))
    return count_separated(o, nonincident_pairs(g))[0]


def _suite_swaps(seed=271828):
    rows = []
    rng = random.Random(seed)

    ok = True
    detail = ""
    tried = 0
    for m in range(2, 7):
        g = complete_multipartite(m, m)
        for _ in range(40):
            perm = list(range(2 * m))
            rng.shuffle(perm)
            swap = _find_bipartite_inversion(g, perm, m)
            if swap is None:
                continue
            tried += 1
            p = swap
            before = _count_all_separated(g, perm)
            perm[p], perm[p + 1] = perm[p + 1], perm[p]
            after = _count_all_separated(g, perm)
            perm[p], perm[p + 1] = perm[p + 1], perm[p]
            if after <= before:
                ok = False
                detail = f"m={m} perm={perm} gave {before}->{after}"
    rows.append(("swaps", "balanced-bipartite-exchange", "PASS" if ok else "FAIL",
                 detail or f"{tried} exchanges, all strictly improving"))

    ok = True
    detail = ""
    tried = 0
    for m in range(2, 6):
        g = complete_multipartite(1, m, m)
        for _ in range(60):
            perm = list(range(2 * m + 1))
            rng.shuffle(perm)
            move = _find_split_move(g, perm, m)
            if move is None:
                continue
            tried += 1
            p = move  # z_i sits at p; move it one position earlier
            before = _count_t_separated(g, perm)
            perm[p - 1], perm[p] = perm[p], perm[p - 1]
            after = _count_t_separated(g, perm)
            perm[p - 1], perm[p] = perm[p], perm[p - 1]
            if after <= before:
                ok = False
                detail = f"m={m} perm={perm} gave {before}->{after}"
    rows.append(("swaps", "split-tripartite-moves", "PASS" if ok else "FAIL",
                 detail or f"{tried} moves, all strictly improving"))
    return rows


def _find_bipartite_inversion(g, perm, m):
    """Position p where perm[p] is the j-th Y-vertex, perm[p+1] the i-th
    X-vertex in appearance order, with j > i."""
    part_of = g.part_of
    rank = {}
    seen = [0, 0]
    for v in perm:
        seen[part_of[v]] += 1
        rank[v] = seen[part_of[v]]
    for p in range(len(perm) - 1):
        u, w = perm[p], perm[p + 1]
        if part_of[u] != part_of[w] and rank[u] > rank[w]:
            return p
    return None


def _find_split_move(g, perm, m):
    """Position p of a vertex that the exchange argument moves one step
    earlier: either w at p and u at p-1 are mixed-part vertices with
    rank(u) > rank(w), or the singleton x sits at p-1 between y_j and z_i
    with j >= i and i < m."""
    part_of = g.part_of
    x = g.parts[0][0]
    rank = {}
    seen = {1: 0, 2: 0}
    for v in perm:
        lbl = part_of[v]
        if lbl:
            seen[lbl] += 1
            rank[v] = seen[lbl]
    for p in range(1, len(perm)):
        w = perm[p]
        u = perm[p - 1]
        if w == x:
            continue
        if u != x and part_of[u] and part_of[u] != part_of[w] and rank[u] > rank[w]:
            return p
        if u == x and p >= 2:
            prev = perm[p - 2]
            if prev != x and part_of[prev] and part_of[prev] != part_of[w]:
                j, i = rank[prev], rank[w]
                if j >= i and i < m:
                    return p
    return None


def _count_t_separated(g, perm):
    o = Ordering("linear", tuple(perm))
    t_idx = _three_part_pair_indices(g)
    (count,) = count_separated(o, nonincident_pairs(g), [t_idx])
    return count


def cmd_verify(args) -> int:
    started = time.monotonic()
    suites = {
        "formulas": _suite_formulas,
        "identities": _suite_identities,
        "strategies": _suite_strategies,
        "swaps": _suite_swaps,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    rows = []
    for name in names:
        rows.extend(suites[name]())
    failed = [r for r in rows if r[2] == "FAIL"]
    result = {
        "checks": [
            {"suite": s, "check": c, "status": st, "detail": d}
            for s, c, st, d in rows
        ],
        "failures": len(failed),
    }
    report = _report(["verify", args.suite], result, started=started)
    human = [f"{st:7s} {s}/{c}  {d}" for s, c, st, d in rows]
    human.append(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
    _emit(report, args, rows=(["suite", "check", "status", "detail"], rows),
          human_lines=human)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    started = time.monotonic()
    try:
        table = conjecture_scan(args.n, args.family, args.mode)
    except (EnumerationCapExceeded, GameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "rows": [
            {
                "shape": list(r.sizes),
                "pi_f": _frac_str(r.pi_f) if r.pi_f is not None else None,
                "is_max": r.is_max,
                "skipped": r.skipped,
            }
            for r in table
        ]
    }
    report = _report(["scan", args.family, str(args.n)], result, mode=args.mode,
                     started=started)
    human = []
    for r in table:
        mark = "  <-- max" if r.is_max else ""
        if r.pi_f is None:
            human.append(f"K_{{{','.join(map(str, r.sizes))}}}: skipped ({r.skipped})")
        else:
            human.append(f"K_{{{','.join(map(str, r.sizes))}}}: {_frac_str(r.pi_f)}{mark}")
    _emit(report, args,
          rows=(["shape", "pi_f", "is_max", "skipped"],
                [["|".join(map(str, r.sizes)),
                  _frac_str(r.pi_f) if r.pi_f is not None else "",
                  r.is_max, r.skipped or ""] for r in table]),
          human_lines=human)
    return 0


# ---------------------------------------------------------------------------
# tree
# ---------------------------------------------------------------------------

def _parse_beta(text: str):
    """An exact fraction for "p/q" or a whole number, else a float; a value
    outside [0, 1] is not a probability and is refused."""
    try:
        value = Fraction(text) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or not 0 <= value <= 1:
        raise ValueError(f"--beta must be a probability in [0, 1], got {text!r}")
    if value == int(value):
        return Fraction(int(value))
    return value


def _load_tree(args):
    if args.source.startswith("random-tree:"):
        n = int(args.source.split(":", 1)[1])
        g = random_tree(n, args.seed)
        return g, {"family": f"random-tree({n})", "tree_seed": args.seed}
    g, origin = _load_graph(args.source)
    return g, origin


def cmd_tree(args) -> int:
    started = time.monotonic()
    if args.samples < 1:
        print(f"error: --samples must be at least 1, got {args.samples}",
              file=sys.stderr)
        return 1
    beta = _parse_beta(args.beta)
    g, origin = _load_tree(args)
    if not is_tree(g):
        print("error: tree command needs a tree input", file=sys.stderr)
        return 1
    if args.root is not None and not 0 <= args.root < g.n:
        print(f"error: root {args.root} out of range for n={g.n}", file=sys.stderr)
        return 1
    root = args.root if args.root is not None else centroid(g)
    root_used, classes = tree_pair_classify(g, root)
    by_class = {}
    for c in classes:
        key = (c.kind, c.root_involved)
        by_class.setdefault(key, []).append(c)

    class_rows = []
    for (kind, root_involved), members in sorted(by_class.items()):
        p = members[0].probability(beta)
        class_rows.append({
            "kind": kind,
            "root_involved": root_involved,
            "pairs": len(members),
            "formula": members[0].formula(),
            "probability": _frac_str(p) if isinstance(p, Fraction) else f"{p:.6g}",
        })
    guarantee = tree_guarantee(classes, beta)
    exact_guarantee = isinstance(guarantee, Fraction)

    result = {
        "root": root_used,
        "beta": str(beta),
        "classes": class_rows,
        "min_probability": _frac_str(guarantee) if exact_guarantee
                           else f"{guarantee:.6g}",
    }
    if exact_guarantee and guarantee > 0:
        result["pi_f_upper_bound"] = _frac_str(Fraction(1) / guarantee)
    human = [f"root {root_used}, beta {beta}"]
    for row in class_rows:
        human.append(
            f"  kind {row['kind']}{' (root)' if row['root_involved'] else ''}: "
            f"{row['pairs']} pairs, probability {row['probability']} = {row['formula']}"
        )
    human.append(f"min separation probability: {result['min_probability']}")
    if "pi_f_upper_bound" in result:
        human.append(f"certified upper bound: pi_f <= {result['pi_f_upper_bound']}")

    if not args.exact:
        rng = random.Random(args.seed)
        pairs = nonincident_pairs(g)
        hits = [0] * len(pairs)
        for _ in range(args.samples):
            o = tree_strategy_sample(g, beta, rng, root=root_used)
            for i, p in enumerate(pairs):
                if separates(o, p):
                    hits[i] += 1
        freqs = [h / args.samples for h in hits]
        min_freq = min(freqs) if freqs else 1.0
        sigma = sqrt(0.25 / args.samples)
        result["samples"] = args.samples
        result["min_frequency"] = min_freq
        result["frequency_sigma_bound"] = sigma
        result["per_pair_frequency"] = [
            {"pair": f"{p[0][0]}-{p[0][1]}/{p[1][0]}-{p[1][1]}", "frequency": f}
            for p, f in zip(pairs, freqs)
        ]
        human.append(
            f"Monte Carlo: {args.samples} samples (seed {args.seed}), "
            f"min frequency {min_freq:.4f} (sigma <= {sigma:.4f}; approximate)"
        )

    report = _report(["tree", args.source], result,
                     graph=_graph_summary(g, origin), seed=args.seed,
                     started=started)
    rows = (
        ["kind", "root_involved", "pairs", "probability"],
        [[r["kind"], r["root_involved"], r["pairs"], r["probability"]]
         for r in class_rows],
    )
    _emit(report, args, rows=rows, human_lines=human)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    parsing leaves it unchanged, and each call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="sepdim",
        description="Exact fractional separation dimension of small graphs.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_output_flags(p):
        p.add_argument("--json", action="store_true", help="print a JSON report")
        p.add_argument("--csv", action="store_true", help="print CSV rows")

    p = sub.add_parser("solve", help="compute pi_f or pi_f_circ with certificate")
    p.add_argument("source", help="family spec (C:7, K:3,3, K:2,2,2,2, Kn:5, "
                                  "petersen, heawood, star-subdiv:4, path:6) "
                                  "or @file")
    p.add_argument("--mode", choices=("linear", "circular"), default="linear")
    p.add_argument("--reduction", choices=("auto", "none", "orbits", "patterns"),
                   default="auto")
    add_output_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("formulas", "identities", "strategies",
                                       "swaps", "all"), default="all")
    add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="exact values across a family of shapes")
    p.add_argument("--family", choices=("bipartite", "tripartite"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("linear", "circular"), default="linear")
    add_output_flags(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("tree", help="randomized tree layout: exact classes or sampling")
    p.add_argument("source", help="tree family spec, @file, or random-tree:n")
    p.add_argument("--beta", default="3/4", help="probability, e.g. 3/4 or 0.7071")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true",
                   help="skip sampling; report exact class probabilities only")
    p.add_argument("--root", type=int, default=None,
                   help="root vertex (default: centroid)")
    add_output_flags(p)
    p.set_defaults(func=cmd_tree)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, GameError, StrategyError, SymmetryCapExceeded,
            EnumerationCapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
