"""Toolkit for the asymmetric index of graphs.

The asymmetric index of a graph is the least number of edge removals plus
additions that leaves a graph whose only automorphism is the identity.
The package provides the graph core, family generators, an automorphism
engine (asymmetry tests, exact group order, canonical forms), the exact
edit search, and an executable catalog of index claims.
"""

__version__ = "0.1.0"

from .graph import (Graph, Graph6Error, cartesian_product, disjoint_union,
                    distance, bfs_distances, from_edge_list, from_graph6,
                    join, to_edge_list, to_graph6)
from .automorphism import (AutReport, are_isomorphic, automorphism_group,
                           canonical_form, can_transpose, cycles_str,
                           find_nontrivial_automorphism, is_asymmetric,
                           is_automorphism, transposable_pairs)
from .enumeration import (asymmetric_graphs, asymmetric_trees,
                          nonisomorphic_graphs, nonisomorphic_trees)
from .families import (FamilySpec, circulant, complete, cycle,
                       cycle_with_pendant_paths, generate, grid, path,
                       path_cycle, pendant_extension, split, star, torus,
                       wheel, witness)
from .search import (AiResult, BudgetExceededError, FlipSet,
                     NoAsymmetrizationError, apply_flips, asymmetric_index,
                     count_nonisomorphic_asymmetrizations)
from .claims import (ClaimReport, cycle_augmentation_formula,
                     kn_bound_formulas, partition_count, verify, verify_suite,
                     DEFAULT_ALLOWLIST)

__all__ = [name for name in dir() if not name.startswith("_")]
