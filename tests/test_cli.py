import json

import pytest

import sepdim as sd
from sepdim.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_cycle_human(capsys):
    code, out, _ = run_cli(capsys, "solve", "C:5")
    assert code == 0
    assert "pi_f = 5/3" in out


def test_solve_circular_label(capsys):
    code, out, _ = run_cli(capsys, "solve", "K:3,3", "--mode", "circular")
    assert code == 0
    assert "pi_f_circ = 6/5" in out


def test_solve_json_schema_and_reproducibility(capsys):
    code, out1, _ = run_cli(capsys, "solve", "K:2,2,2", "--json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "solve", "K:2,2,2", "--json")
    assert code == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["schema"] == 1
    assert r1["result"]["pi_f"] == "12/5"
    assert r1["result"]["certificate"] == "exact"
    r1.pop("timing_s", None)
    r2.pop("timing_s", None)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_solve_csv(capsys):
    code, out, _ = run_cli(capsys, "solve", "C:6", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "metric,value"
    assert "pi_f,3/2" in lines


def test_solve_file_input(tmp_path, capsys):
    path = tmp_path / "square.edges"
    path.write_text("# C4\n0 1\n1 2\n2 3\n0 3\n")
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert "pi_f = 2" in out
    code, out, _ = run_cli(capsys, "solve", "@" + str(path))
    assert code == 0
    assert "pi_f = 2" in out
    # A one-label line declares a vertex: an edgeless five-vertex graph.
    path = tmp_path / "point.edges"
    path.write_text("4\n")
    code, out, _ = run_cli(capsys, "solve", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["graph"]["n"] == 5 and report["graph"]["pairs"] == 0
    assert report["result"]["pi_f"] == "0"
    assert report["result"]["certificate"] == "trivial"


def test_solve_cap_refusal(capsys):
    code, _, err = run_cli(capsys, "solve", "heawood", "--mode", "circular")
    assert code == 1
    assert "circular enumeration is capped at n <= 10" in err
    assert "budget" not in err and "--i-have-time" not in err
    # Linear Heawood is within the subset-DP cap and solved exactly.
    code, out, _ = run_cli(capsys, "solve", "heawood", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["pi_f"] == "28/17"
    assert result["game_value"] == "17/28"
    assert result["certificate"] == "exact"


def test_solve_cap_checked_before_symmetry_search(capsys):
    # K_11 has 11! automorphisms, over the symmetry search's cap; the
    # circular enumeration cap refuses it before that search starts.
    code, _, err = run_cli(capsys, "solve", "Kn:11", "--mode", "circular")
    assert code == 1
    assert "circular enumeration is capped at n <= 10 (graph has n=11)" in err
    assert "automorphism" not in err


def test_solve_linear_patterns_under_subset_dp_cap(capsys):
    # Linear patterns run the chain DP, so K_{8,7} (n = 15, the paper's
    # K_{m+1,m} with m = 7) solves; n = 17 is over the DP's cap.
    code, out, _ = run_cli(capsys, "solve", "K:8,7", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["reduction"] == "patterns"
    assert report["result"]["pi_f"] == "21/8"
    assert report["result"]["certificate"] == "exact"
    code, out, err = run_cli(capsys, "solve", "K:9,8")
    assert code == 1 and out == ""
    assert "linear subset DP is capped at n <= 16 (graph has n=17)" in err


# An asymmetric connected 11-vertex graph: the first connected graph with a
# trivial automorphism group among G(11, 0.3) draws from random.Random(3).
ASYMMETRIC_11 = ((0, 1), (0, 7), (0, 10), (1, 2), (1, 5), (1, 8), (1, 9), (2, 4),
                 (2, 6), (3, 7), (3, 9), (3, 10), (4, 7), (4, 8), (8, 10))


def test_solve_auto_asymmetric_linear_over_enumeration_cap(tmp_path, capsys):
    path = tmp_path / "asym11.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in ASYMMETRIC_11))
    g = sd.parse_graph(path.read_text())
    assert sd.automorphisms(g).order == 1 and len(sd.nonincident_pairs(g)) == 73
    code, out, _ = run_cli(capsys, "solve", "@" + str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["reduction"] == "orbits"
    assert report["result"]["pi_f"] == "2"
    assert report["result"]["certificate"] == "exact"
    assert len(report["result"]["classes"]) == 73


def test_solve_json_byte_stable_column_generation(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "solve", "petersen", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["reduction"] == "orbits"
        assert report["result"]["pi_f"] == "30/17"
        report.pop("timing_s")
        runs.append(json.dumps(report, sort_keys=True))
    assert runs[0] == runs[1]


def test_solve_many_part_shapes(capsys):
    code, out, _ = run_cli(capsys, "solve", "K:2,2,2,2,2")
    assert code == 0
    assert out.splitlines()[0] == "pi_f = 3"
    code, out, _ = run_cli(capsys, "solve", "K:1,1,1,2", "--json")
    assert code == 0
    assert json.loads(out)["graph"]["family"] == "complete-multipartite(1,1,1,2)"
    # Two and three parts keep their tags, so their reports do not change.
    code, out, _ = run_cli(capsys, "solve", "K:5,5", "--json")
    assert json.loads(out)["graph"]["family"] == "complete-bipartite(5,5)"
    code, out, _ = run_cli(capsys, "solve", "K:2,2,2", "--json")
    assert json.loads(out)["graph"]["family"] == "complete-tripartite(2,2,2)"
    code, out, err = run_cli(capsys, "solve", "K:4")
    assert code == 1 and out == ""
    assert err == "error: K: takes two or more part sizes, got 1\n"


def test_parser_built_once_and_calls_do_not_leak(capsys):
    # The parser is kept for the process; each main() call still gets only
    # its own arguments and prints only its own report.
    assert build_parser() is build_parser()
    code, out, _ = run_cli(capsys, "solve", "C:5", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "linear" and report["result"]["pi_f"] == "5/3"
    code, out, _ = run_cli(capsys, "solve", "C:5")
    assert code == 0
    assert out.splitlines()[0] == "pi_f = 5/3" and not out.startswith("{")
    code, out, _ = run_cli(capsys, "solve", "C:5", "--mode", "circular")
    assert code == 0
    assert out.splitlines()[0] == "pi_f_circ = 1"
    code, out, _ = run_cli(capsys, "solve", "C:5", "--json")
    assert json.loads(out)["mode"] == "linear"


def test_solve_bad_family(capsys):
    code, _, err = run_cli(capsys, "solve", "U:9")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("spec", ["C:5,6", "Kn:4,4", "path:3,1", "star-subdiv:2,2"])
def test_solve_wrong_parameter_count(capsys, spec):
    code, out, err = run_cli(capsys, "solve", spec)
    assert code == 1 and out == ""
    assert err.startswith("error: family ") and "parameter" in err


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--i-have-time"],
                                  ["--budget", "1"], ["--linear-cap", "8"],
                                  ["--circular-cap", "8"], ["--pattern-cap", "8"]],
                         ids=["threads", "i-have-time", "budget", "linear-cap",
                              "circular-cap", "pattern-cap"])
def test_solve_retired_flags_rejected(capsys, flag):
    # One deterministic solve path: no worker count, no timed search, and
    # the vertex caps are constants.
    with pytest.raises(SystemExit) as exc:
        main(["solve", "C:5", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_json_has_no_flags(capsys):
    code, out, _ = run_cli(capsys, "solve", "C:5", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["pi_f"] == "5/3"
    assert "flags" not in report


def test_verify_identities(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities")
    assert code == 0
    assert "FAIL" not in out


def test_verify_swaps(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "swaps")
    assert code == 0
    assert "strictly improving" in out


def test_verify_strategies_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "strategies", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,check,status,detail"
    assert all("FAIL" not in line for line in lines[1:])


def test_scan_bipartite(capsys):
    code, out, _ = run_cli(capsys, "scan", "--family", "bipartite", "--n", "6")
    assert code == 0
    assert "K_{3,3}: 9/4  <-- max" in out


def test_scan_tripartite_json(capsys):
    code, out, _ = run_cli(capsys, "scan", "--family", "tripartite", "--n", "9",
                           "--json")
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert rows[0]["shape"] == [3, 3, 3]
    assert rows[0]["is_max"]


def test_scan_refuses_n_below_family_minimum(capsys):
    code, out, err = run_cli(capsys, "scan", "--family", "tripartite", "--n", "-3")
    assert code == 1 and not out
    assert "tripartite scan needs n >= 3" in err
    code, out, err = run_cli(capsys, "scan", "--family", "bipartite", "--n", "1",
                             "--json")
    assert code == 1 and not out
    assert "bipartite scan needs n >= 2" in err


def test_tree_exact_spider(capsys):
    code, out, _ = run_cli(capsys, "tree", "star-subdiv:4", "--beta", "3/4",
                           "--exact")
    assert code == 0
    assert "min separation probability: 3/4" in out
    assert "pi_f <= 4/3" in out


def test_tree_exact_path(capsys):
    code, out, _ = run_cli(capsys, "tree", "path:8", "--beta", "3/4", "--exact")
    assert code == 0
    assert "min separation probability: 3/4" in out


def test_scan_tripartite_n10_reports(capsys):
    # Larger shapes are reported with exact values; the conjectured argmax is
    # not an assertion target, only the exactness and completeness are.
    code, out, _ = run_cli(capsys, "scan", "--family", "tripartite", "--n", "10",
                           "--json")
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert all(r["pi_f"] is not None for r in rows)
    assert sum(1 for r in rows if r["is_max"]) >= 1
    shapes = {tuple(r["shape"]) for r in rows}
    assert (1, 4, 5) in shapes and (2, 4, 4) in shapes and (3, 3, 4) in shapes


def test_tree_sampling_reproducible(capsys):
    args = ["tree", "random-tree:8", "--beta", "0.7071", "--samples", "400",
            "--seed", "7", "--json"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timing_s", None)
    r2.pop("timing_s", None)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["seed"] == 7


def test_tree_rejects_non_tree(capsys):
    code, _, err = run_cli(capsys, "tree", "C:6")
    assert code == 1
    assert "tree" in err


def test_tree_explicit_root(capsys):
    code, out, _ = run_cli(capsys, "tree", "path:6", "--root", "0", "--exact")
    assert code == 0
    assert "root 0" in out


def test_tree_root_out_of_range(capsys):
    code, _, err = run_cli(capsys, "tree", "path:6", "--root", "9")
    assert code == 1
    assert "out of range" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["sampled", "exact"])
def test_tree_rejects_sample_count_below_one(capsys, samples, exact):
    code, out, err = run_cli(capsys, "tree", "path:8", "--samples", samples, *exact)
    assert code == 1 and out == ""
    assert err == f"error: --samples must be at least 1, got {samples}\n"


@pytest.mark.parametrize("beta", ["3/2", "-1/2", "1.5", "-0.5", "inf", "nan",
                                  "1/0", "x"])
@pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["sampled", "exact"])
def test_tree_rejects_beta_outside_unit_interval(capsys, beta, exact):
    code, out, err = run_cli(capsys, "tree", "path:8", f"--beta={beta}",
                             "--samples", "10", *exact)
    assert code == 1 and out == ""
    assert err.startswith("error: --beta must be a probability in [0, 1]")


@pytest.mark.parametrize("beta, want", [("0", "0"), ("1", "3/4"), ("2/2", "3/4")])
def test_tree_accepts_beta_at_interval_ends(capsys, beta, want):
    code, out, _ = run_cli(capsys, "tree", "path:8", "--beta", beta, "--exact")
    assert code == 0
    assert f"min separation probability: {want}" in out
