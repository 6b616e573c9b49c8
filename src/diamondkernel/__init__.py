"""Kernelization and exact solving for diamond-free edge deletion problems."""

from .family import FamilySpec
from .graph import Graph, edge_key
from .matching import maximum_matching
from .patterns import (PatternOccurrence, clique_partition, find_induced_occurrence,
                       greedy_packing, is_core_member_edge, is_core_member_vertex,
                       is_family_free)
from .phase1 import Instance, RuleLog, run_phase1
from .phase2 import (CliqueContext, KernelOutcome, KernelReport, Modulator,
                     classify_clique, compute_modulator, dfed_vertex_bound,
                     dkt_vertex_bound, kernel_vertex_bound, kernelize,
                     rule_clique_reduction)
from .solver import (EditSolution, Solution, brute_force_editing_solution,
                     brute_force_min_deletion, brute_force_min_editing,
                     brute_force_vertex_deletion, solve_branching)
from .instances import (ReductionTrace, add_universal, attach_stars, clique_layout,
                        gen_gnp, gen_hard_structure, gen_planted_yes, lift_solution,
                        reduce_vc_to_sdfed, subdivide_twice)
from .io import parse_instance, serialize_instance

__version__ = "0.1.0"

__all__ = [
    "FamilySpec", "Graph", "edge_key", "maximum_matching",
    "PatternOccurrence", "clique_partition", "find_induced_occurrence",
    "greedy_packing", "is_core_member_edge", "is_core_member_vertex",
    "is_family_free",
    "Instance", "RuleLog", "run_phase1",
    "CliqueContext", "KernelOutcome", "KernelReport", "Modulator",
    "classify_clique", "compute_modulator", "dfed_vertex_bound",
    "dkt_vertex_bound", "kernel_vertex_bound", "kernelize",
    "rule_clique_reduction",
    "EditSolution", "Solution", "brute_force_editing_solution",
    "brute_force_min_deletion", "brute_force_min_editing",
    "brute_force_vertex_deletion", "solve_branching",
    "ReductionTrace", "add_universal", "attach_stars", "clique_layout",
    "gen_gnp", "gen_hard_structure", "gen_planted_yes", "lift_solution",
    "reduce_vc_to_sdfed", "subdivide_twice",
    "parse_instance", "serialize_instance",
]
