"""Algorithm choice and the single solving entry point."""

from __future__ import annotations

import math
from typing import Optional

from .dpsolver import solve_fpt, solve_greedy_is
from .model import Instance, InputError, Layout, page_width
from .oracle import solve_exhaustive
from .solvers import SolveStats, solve_edges_only, solve_one_vertex, solve_xp

ALGORITHMS = (
    "auto",
    "oracle",
    "edges-fpt",
    "one-vertex",
    "greedy-is",
    "xp",
    "dp-fpt",
)


def choose_algorithm(inst: Instance) -> str:
    """Cheapest algorithm whose preconditions the instance meets."""
    if inst.n_add == 0:
        return "edges-fpt"
    if inst.n_add == 1 and not inst.new_old_edges:
        return "one-vertex"
    if not inst.kinds.links:
        return "greedy-is"
    return "dp-fpt"


def solve(
    inst: Instance,
    algo: str = "auto",
    stats: Optional[SolveStats] = None,
    cap: Optional[int] = None,
) -> Optional[Layout]:
    """Solve the instance with the named algorithm.

    ``auto`` picks via ``choose_algorithm``.  ``cap`` only matters for
    the exhaustive search.  Returns a full layout or ``None``.
    """
    if algo == "auto":
        algo = choose_algorithm(inst)
    if stats is not None:
        stats.algorithm = algo
    if algo == "oracle":
        return solve_exhaustive(inst, cap=cap)
    if algo == "edges-fpt":
        return solve_edges_only(inst)
    if algo == "one-vertex":
        return solve_one_vertex(inst)
    if algo == "greedy-is":
        return solve_greedy_is(inst, stats)
    if algo == "xp":
        return solve_xp(inst, stats)
    if algo == "dp-fpt":
        return solve_fpt(inst, stats)
    raise InputError(f"unknown algorithm {algo!r}")


def branch_bound(inst: Instance, algo: str) -> Optional[int]:
    """Proven ceiling on ``stats.branches`` for the given algorithm.

    ``None`` for algorithms whose counters have no stated ceiling.
    """
    n, m = inst.n_add, inst.m_add
    if algo == "xp":
        nh = len(inst.layout_h.spine)
        out = 1
        for i in range(1, n + 1):
            out *= nh + i
        return out
    if algo in ("dp-fpt", "greedy-is"):
        width = page_width(inst.layout_h)
        return (
            inst.ell**m
            * math.factorial(n)
            * (2 * m + 1) ** n
            * (width + 1) ** m
        )
    return None
