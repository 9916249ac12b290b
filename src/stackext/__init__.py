"""Extending partial stack layouts to whole graphs.

A stack layout places a graph's vertices on a line (the spine) and
assigns every edge to one of a fixed number of pages so that edges
sharing a page never cross.  This package decides whether a layout
fixed on a subgraph extends to the whole graph, exactly, with solvers
tuned to how much is missing, and ships the generators and checkers
used to study the problem's hard cases.
"""

from .bench import BenchReport, BenchRow, bench, format_report
from .cnf import (
    Formula,
    all_clauses,
    assignments,
    emit_dimacs,
    evaluate,
    is_satisfiable,
    parse_dimacs,
    random_formula,
    satisfying_assignment,
)
from .dpsolver import (
    BranchAssignment,
    branch_of_solution,
    check_branch,
    dp_solve_branch,
    dp_table,
    solve_fpt,
    solve_greedy_is,
)
from .generate import gen_random, random_clique_instance
from .model import (
    FaceLookup,
    Graph,
    InputError,
    Instance,
    Layout,
    SpineOrder,
    edge,
    extends,
    find_crossing,
    is_valid,
    make_instance,
    make_layout,
    page_width,
    super_intervals,
)
from .oracle import (
    CapacityError,
    enumerate_solutions,
    search_space,
    solve_exhaustive,
)
from .reductions import (
    CliqueCertificate,
    CliqueInstance,
    GadgetCertificate,
    SatCertificate,
    build_fixation_gadget,
    check_reduction_lemmas,
    fixation_gadget_size,
    parse_clique_input,
    reduce_3sat,
    reduce_mcc,
)
from .render import render_arc_diagram
from .serialize import (
    RawSolution,
    Violation,
    emit_instance,
    emit_solution,
    parse_instance,
    parse_solution,
    verify_solution,
)
from .solve import ALGORITHMS, branch_bound, choose_algorithm, solve
from .solvers import (
    SolveStats,
    candidate_pages,
    reduce_safe_edges,
    solve_edges_only,
    solve_one_vertex,
    solve_xp,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BenchReport",
    "BenchRow",
    "BranchAssignment",
    "CapacityError",
    "CliqueCertificate",
    "CliqueInstance",
    "FaceLookup",
    "Formula",
    "GadgetCertificate",
    "Graph",
    "InputError",
    "Instance",
    "Layout",
    "RawSolution",
    "SatCertificate",
    "SolveStats",
    "SpineOrder",
    "Violation",
    "all_clauses",
    "assignments",
    "bench",
    "branch_bound",
    "branch_of_solution",
    "build_fixation_gadget",
    "candidate_pages",
    "check_branch",
    "check_reduction_lemmas",
    "choose_algorithm",
    "dp_solve_branch",
    "dp_table",
    "edge",
    "emit_dimacs",
    "emit_instance",
    "emit_solution",
    "enumerate_solutions",
    "evaluate",
    "extends",
    "find_crossing",
    "fixation_gadget_size",
    "format_report",
    "gen_random",
    "is_satisfiable",
    "is_valid",
    "make_instance",
    "make_layout",
    "page_width",
    "parse_clique_input",
    "parse_dimacs",
    "parse_instance",
    "parse_solution",
    "random_clique_instance",
    "random_formula",
    "reduce_3sat",
    "reduce_mcc",
    "reduce_safe_edges",
    "render_arc_diagram",
    "satisfying_assignment",
    "search_space",
    "solve",
    "solve_edges_only",
    "solve_exhaustive",
    "solve_fpt",
    "solve_greedy_is",
    "solve_one_vertex",
    "solve_xp",
    "super_intervals",
    "verify_solution",
]
