"""Exact computation and verification of fractional separation dimension.

Linear and circular vertex orderings of small graphs, the associated
zero-sum separation game solved in exact rational arithmetic, constructive
strategies with verified guarantees, and closed-form value oracles.
"""

from .graphs import (
    FamilySpec,
    Graph,
    GraphError,
    complete,
    complete_multipartite,
    connected_components,
    cycle,
    find_k4,
    generate,
    graph_from_edges,
    heawood,
    induced_subgraph,
    is_caterpillar,
    is_tree,
    nonincident_pairs,
    parse_graph,
    path,
    petersen,
    random_tree,
    subdivided_star,
)
from .separation import (
    EnumerationCapExceeded,
    MaxSeparation,
    Ordering,
    best_response,
    circular_sepdim_is_one,
    count_separated,
    enumerate_payoffs,
    integer_sepdim,
    max_separation,
    separates,
    verify_separating_family,
)
from .symmetry import (
    AutomorphismGroup,
    OrbitPartition,
    automorphisms,
    find_isomorphism,
    multipartite_patterns,
    pair_orbits,
    pattern_ordering,
    signature_classes,
)
from .game import (
    GameError,
    GameSolution,
    ScanRow,
    conjecture_scan,
    fractional_sepdim,
    solve_game,
)
from .strategies import (
    PairStrategy,
    Strategy,
    StrategyError,
    TreePairClass,
    bipartite_interleaved_strategy,
    circular_spaced_strategy,
    centroid,
    k4free_strategy,
    layout_respects_subtrees,
    min_separation_probability,
    pair_player_strategy,
    pair_strategy_value_bound,
    separation_probabilities,
    tree_guarantee,
    tree_pair_classify,
    tree_strategy_sample,
    tripartite_block_strategy,
    uniform_strategy,
)
from .formulas import KnownValue, crosscheck, evaluate

__version__ = "0.1.0"
