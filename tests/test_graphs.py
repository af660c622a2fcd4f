import pytest
from math import comb

import sepdim as sd
from sepdim.graphs import FamilySpec, GraphError


def test_cycle4():
    g = sd.cycle(4)
    assert len(g.edges) == 4
    assert len(sd.nonincident_pairs(g)) == 2


def test_petersen_counts():
    g = sd.petersen()
    assert g.n == 10
    assert len(g.edges) == 15
    assert len(sd.nonincident_pairs(g)) == 75


def test_heawood_counts():
    g = sd.heawood()
    assert g.n == 14
    assert len(g.edges) == 21
    assert len(sd.nonincident_pairs(g)) == 168


def test_k4_pairs():
    assert len(sd.nonincident_pairs(sd.complete(4))) == 3


def test_kmm_pair_count():
    g = sd.complete_multipartite(3, 3)
    assert len(sd.nonincident_pairs(g)) == 18 == 2 * comb(3, 2) ** 2


def test_path4_single_pair():
    assert len(sd.nonincident_pairs(sd.path(4))) == 1


def test_bipartite_pair_closed_form():
    for a in range(2, 9):
        for b in range(2, 9):
            g = sd.complete_multipartite(a, b)
            assert len(sd.nonincident_pairs(g)) == 2 * comb(a, 2) * comb(b, 2)


@pytest.mark.parametrize("spec", ["Kn:5", "C:6", "K:3,4", "K:2,2,2", "petersen",
                                  "heawood", "star-subdiv:3", "path:5"])
def test_pairs_well_formed(spec):
    g = sd.generate(FamilySpec.parse(spec))
    edge_set = set(g.edges)
    for e1, e2 in sd.nonincident_pairs(g):
        assert e1 in edge_set and e2 in edge_set
        assert len({*e1, *e2}) == 4
        assert e1 < e2


def test_generate_deterministic():
    a = sd.generate(FamilySpec.parse("petersen"))
    b = sd.generate(FamilySpec.parse("petersen"))
    assert a.edges == b.edges and a.n == b.n


def test_pairs_sorted():
    pairs = sd.nonincident_pairs(sd.complete(6))
    assert pairs == sorted(pairs)


def test_family_param_validation():
    with pytest.raises(GraphError):
        sd.cycle(2)
    with pytest.raises(GraphError):
        sd.subdivided_star(0)
    with pytest.raises(GraphError):
        sd.complete_multipartite(0, 3)
    with pytest.raises(GraphError, match="got 1"):
        FamilySpec.parse("K:3")
    assert FamilySpec.parse("K:2,2,2,2").tag == "complete-multipartite"
    assert sd.generate(FamilySpec.parse("K:1,2,2,3")).parts == (
        (0,), (1, 2), (3, 4), (5, 6, 7))
    with pytest.raises(GraphError, match="four or more"):
        sd.generate(FamilySpec("complete-multipartite", (2, 3)))
    with pytest.raises(GraphError):
        FamilySpec.parse("whatever")


def test_parse_graph_basic():
    g = sd.parse_graph("0 1\n2 3\n")
    assert g.n == 4
    assert len(g.edges) == 2
    assert len(sd.nonincident_pairs(g)) == 1


def test_parse_graph_comments_and_blanks():
    g = sd.parse_graph("# header\n\n0 1  # inline\n1 2\n")
    assert g.edges == ((0, 1), (1, 2))


def test_parse_graph_self_loop():
    with pytest.raises(GraphError, match="line 1.*self-loop"):
        sd.parse_graph("0 0")


def test_parse_graph_duplicate_edge():
    with pytest.raises(GraphError, match="line 3.*duplicate"):
        sd.parse_graph("0 1\n1 2\n1 0\n")


def test_parse_graph_malformed():
    with pytest.raises(GraphError, match="line 2"):
        sd.parse_graph("0 1\n0 1 2\n")
    with pytest.raises(GraphError, match="line 1"):
        sd.parse_graph("a b\n")


def test_parse_graph_isolated_vertices():
    # A one-label line declares a vertex, so top-labelled isolated vertices
    # are kept and an edgeless file is a graph.
    g = sd.parse_graph("0 1\n5\n")
    assert g.n == 6
    assert g.edges == ((0, 1),)
    g = sd.parse_graph("0 1\n2 3\n7\n")
    assert g.n == 8
    sol = sd.fractional_sepdim(g)
    assert sol.pi_f == 1
    assert all(sd.Ordering.parse(key).n == 8 for key, _ in sol.primal)
    g = sd.parse_graph("4\n")
    assert (g.n, g.edges, sd.nonincident_pairs(g)) == (5, (), [])


def test_parse_graph_needs_a_vertex():
    for text in ("", "# only a comment\n\n"):
        with pytest.raises(GraphError, match="no vertices"):
            sd.parse_graph(text)


def test_parse_petersen_up_to_relabeling():
    base = sd.petersen()
    relabel = [3, 7, 0, 9, 4, 1, 8, 5, 2, 6]
    text = "\n".join(f"{relabel[u]} {relabel[v]}" for u, v in base.edges)
    parsed = sd.parse_graph(text)
    iso = sd.find_isomorphism(parsed, base)
    assert iso is not None
    mapped = {tuple(sorted((iso[u], iso[v]))) for u, v in parsed.edges}
    assert mapped == set(base.edges)


def test_caterpillar_path():
    assert sd.is_caterpillar(sd.path(6))


def test_caterpillar_spider_false():
    assert not sd.is_caterpillar(sd.subdivided_star(3))


def test_caterpillar_star():
    star = sd.graph_from_edges(6, [(0, i) for i in range(1, 6)])
    assert sd.is_caterpillar(star)


def test_caterpillar_rejects_non_tree():
    with pytest.raises(GraphError):
        sd.is_caterpillar(sd.cycle(5))


def test_graph_validation():
    with pytest.raises(GraphError):
        sd.Graph(3, ((0, 0),))
    with pytest.raises(GraphError):
        sd.Graph(2, ((0, 1), (0, 1)))
    with pytest.raises(GraphError):
        sd.Graph(2, ((1, 0),))
    # parts must describe a complete multipartite graph
    with pytest.raises(GraphError):
        sd.Graph(3, ((0, 1),), parts=((0,), (1, 2)))


def test_components_and_subgraph():
    g = sd.graph_from_edges(6, [(0, 1), (1, 2), (3, 4)])
    comps = sd.connected_components(g)
    assert comps == [[0, 1, 2], [3, 4], [5]]
    sub = sd.induced_subgraph(g, [3, 4])
    assert sub.n == 2 and sub.edges == ((0, 1),)


def test_random_tree_is_tree():
    for seed in range(5):
        t = sd.random_tree(9, seed)
        assert sd.is_tree(t)


def test_generate_checks_parameter_count():
    assert sd.generate(FamilySpec("cycle", (5,))).n == 5
    for spec in (FamilySpec("cycle", (5, 6)), FamilySpec("complete-bipartite", (3,)),
                 FamilySpec("petersen", (10,)), FamilySpec("complete", ())):
        with pytest.raises(GraphError, match=f"family {spec.tag} takes"):
            sd.generate(spec)
    with pytest.raises(GraphError, match="unknown family tag"):
        FamilySpec("tree", (0, 1, 1, 2))
