"""Branching solvers built around a gap-sweep dynamic program.

``solve_fpt`` guesses, per branch, the page of every new edge, the
spine order of the new vertices, the super interval each lands in and
a nesting depth for every new edge with a new endpoint.  Consistent
branches are settled by a left-to-right sweep over the gaps of the
fixed spine.  ``solve_greedy_is`` covers the case of pairwise
non-adjacent new vertices with a first-fit scan instead of the sweep.

Super intervals are the maximal runs of gaps not separated by an old
vertex incident to a new edge.  Inside such a run, sliding a new vertex
never changes its order relative to any endpoint of a new edge, so
crossings between two new edges are decided by the branch alone; the
sweep only has to reconcile new edges with the fixed ones, which is
what the per-gap face structure encodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from .model import (
    Edge,
    FaceLookup,
    Instance,
    InputError,
    Layout,
    Vertex,
    _stack_scan,
    alternates,
    super_intervals,
)
from .solvers import SolveStats, _assemble_layout, _endpoint_keys


@dataclass(frozen=True)
class BranchAssignment:
    """One guess of the discrete part of a solution.

    ``pages`` maps every new edge to a page, ``order`` lists the new
    vertices in intended spine order, ``supers`` maps each new vertex
    to a super interval index and ``depths`` maps each new edge with a
    new endpoint to the nesting depth it is meant to run at.
    """

    pages: Mapping[Edge, int]
    order: tuple[Vertex, ...]
    supers: Mapping[Vertex, int]
    depths: Mapping[Edge, int]

    def __post_init__(self):
        object.__setattr__(self, "pages", MappingProxyType(dict(self.pages)))
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(self, "supers", MappingProxyType(dict(self.supers)))
        object.__setattr__(self, "depths", MappingProxyType(dict(self.depths)))


def _deep_edges(inst: Instance) -> list[Edge]:
    # new edges with at least one new endpoint, canonical order
    old = set(inst.new_old_edges)
    return [e for e in inst.new_edges if e not in old]


def _validate_branch(inst: Instance, branch: BranchAssignment) -> None:
    if set(branch.pages) != set(inst.new_edges):
        raise InputError("branch must assign a page to exactly the new edges")
    if any(not 1 <= p <= inst.ell for p in branch.pages.values()):
        raise InputError("branch page out of range")
    if sorted(branch.order) != sorted(inst.new_vertices):
        raise InputError("branch order must be a permutation of the new vertices")
    count = len(super_intervals(inst))
    if set(branch.supers) != set(inst.new_vertices):
        raise InputError("branch must assign a super interval to each new vertex")
    if any(not 0 <= s < count for s in branch.supers.values()):
        raise InputError("branch super interval index out of range")
    if set(branch.depths) != set(branch.pages) - set(inst.new_old_edges):
        raise InputError(
            "branch must assign a depth to exactly the new edges with a new endpoint"
        )
    if any(d < 0 for d in branch.depths.values()):
        raise InputError("branch depth out of range")


def _old_crossing(inst: Instance, pages: Mapping[Edge, int]) -> bool:
    # new edges between old vertices, against the fixed edges and each other
    placed: dict[int, list[tuple[int, int]]] = {}
    for e, ((a_new, a), (b_new, b)) in zip(inst.new_edges, inst.endpoints):
        if a_new or b_new:
            continue
        p = pages[e]
        a, b = sorted((a, b))
        if p not in inst.lookup.pages_fitting(a, b) or any(
            alternates(x, y, a, b) for x, y in placed.get(p, ())
        ):
            return True
        placed.setdefault(p, []).append((a, b))
    return False


def _implied_crossing(
    inst: Instance, pages: Mapping[Edge, int], order, supers
) -> bool:
    """Crossing forced among new edges by pages, order and super intervals.

    ``supers[t]`` is the super interval of ``order[t]``, non-decreasing
    along the order.  Old endpoints of new edges sit at super interval
    boundaries, so putting every new vertex in the first gap of its
    super interval, in the given order, realises the spine order of all
    endpoints of new edges.  Callers rule out crossings among new edges
    between old vertices first.
    """
    sups = super_intervals(inst)
    keys = _endpoint_keys(inst, [sups[s].gap_lo for s in supers], order)
    by_page: dict[int, list[tuple[int, int]]] = {}
    for e, span in zip(inst.new_edges, keys):
        by_page.setdefault(pages[e], []).append(span)
    return any(_stack_scan(spans)[0] is not None for spans in by_page.values())


def check_branch(inst: Instance, branch: BranchAssignment) -> Optional[str]:
    """``None`` if the branch is consistent, else a short reason.

    Checks, in order: the spine order of the new vertices must not
    contradict their super intervals; new edges between old vertices
    must not cross the fixed edges or each other on their pages; and no
    crossing may be forced among new edges by the branch alone.
    """
    _validate_branch(inst, branch)
    sup_seq = [branch.supers[v] for v in branch.order]
    if any(s > t for s, t in zip(sup_seq, sup_seq[1:])):
        return "order-super-conflict"
    if _old_crossing(inst, branch.pages):
        return "old-crossing"
    if _implied_crossing(inst, branch.pages, branch.order, sup_seq):
        return "implied-crossing"
    return None


@dataclass
class DpTable:
    """Reachability of the sweep states.

    State ``(i, j, r)``: the sweep stands at gap ``i`` with the first
    ``j`` new vertices placed; ``r`` is 1 when the last step was a
    placement and 0 when it was a move to the next gap.
    """

    gaps: int
    placed: int
    reach: list  # [i][j][r], i from 1

    def value(self, i: int, j: int, r: int) -> int:
        return 1 if self.reach[i][j][r] else 0

    @property
    def feasible(self) -> bool:
        return self.reach[self.gaps][self.placed][0] or self.reach[self.gaps][self.placed][1]


def _sweep_tables(
    inst: Instance, branch: BranchAssignment, lookup: FaceLookup
) -> tuple[list, list]:
    """Admissibility of placements and gap moves, per gap and count.

    ``place_ok[i][j]`` allows placing the ``j``-th ordered vertex at gap
    ``i``: the gap lies in its super interval, every edge to an old
    vertex finds that vertex incident to the deepest face of the gap on
    the edge's page at exactly the branch depth, and every edge to
    another new vertex matches the gap's deepest depth on its page.

    ``shift_ok[i][j]`` allows stepping from gap ``i - 1`` to gap ``i``
    with ``j`` vertices placed: every half-finished edge between a
    placed and an unplaced new vertex must run in a face that spans
    both gaps at its branch depth.
    """
    sups = super_intervals(inst)
    old = inst.h.vertex_set
    n = inst.n_add
    gaps = inst.gap_count
    oidx = {v: t + 1 for t, v in enumerate(branch.order)}

    anchored: dict[Vertex, list[tuple[int, int, Vertex]]] = {v: [] for v in branch.order}
    linking: dict[Vertex, list[tuple[int, int]]] = {v: [] for v in branch.order}
    half: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for e, d in branch.depths.items():
        p = branch.pages[e]
        u, v = e
        if u in old:
            anchored[v].append((p, d, u))
        elif v in old:
            anchored[u].append((p, d, v))
        else:
            linking[u].append((p, d))
            linking[v].append((p, d))
            x, y = sorted((oidx[u], oidx[v]))
            for j in range(x, y):
                half[j].append((p, d))

    place_ok = [[False] * (n + 1) for _ in range(gaps + 1)]
    for j in range(1, n + 1):
        v = branch.order[j - 1]
        s = sups[branch.supers[v]]
        for i in range(s.gap_lo, s.gap_hi + 1):
            ok = True
            for p, d, u in anchored[v]:
                ch = lookup.chain(p, i)
                if d != len(ch) - 1 or not lookup.incident(ch[-1], u):
                    ok = False
                    break
            if ok:
                for p, d in linking[v]:
                    if d != lookup.deepest(p, i):
                        ok = False
                        break
            place_ok[i][j] = ok

    shift_ok = [[False] * (n + 1) for _ in range(gaps + 1)]
    for i in range(2, gaps + 1):
        for j in range(n + 1):
            ok = True
            for p, d in half[j]:
                f = lookup.face_at(p, i - 1, d)
                if f is None or not f.spans(i):
                    ok = False
                    break
            shift_ok[i][j] = ok
    return place_ok, shift_ok


def dp_table(
    inst: Instance, branch: BranchAssignment, lookup: Optional[FaceLookup] = None
) -> DpTable:
    """Run the gap sweep for one branch and return the state table."""
    _validate_branch(inst, branch)
    if lookup is None:
        lookup = inst.lookup
    place_ok, shift_ok = _sweep_tables(inst, branch, lookup)
    n = inst.n_add
    gaps = inst.gap_count
    reach = [[[False, False] for _ in range(n + 1)] for _ in range(gaps + 1)]
    reach[1][0][0] = True
    for i in range(1, gaps + 1):
        for j in range(n + 1):
            if i > 1 and shift_ok[i][j] and (reach[i - 1][j][0] or reach[i - 1][j][1]):
                reach[i][j][0] = True
            if j > 0 and place_ok[i][j] and (reach[i][j - 1][0] or reach[i][j - 1][1]):
                reach[i][j][1] = True
    return DpTable(gaps, n, reach)


def dp_solve_branch(
    inst: Instance, branch: BranchAssignment, lookup: Optional[FaceLookup] = None
) -> Optional[Layout]:
    """Layout realising the branch, or ``None``.

    Backtracks through the state table preferring gap moves, so ties
    resolve toward the leftmost admissible placements; vertices sharing
    a gap appear in branch order.
    """
    table = dp_table(inst, branch, lookup)
    if not table.feasible:
        return None
    reach = table.reach
    i, j = table.gaps, table.placed
    r = 0 if reach[i][j][0] else 1
    placements: list[tuple[int, Vertex]] = []
    while (i, j, r) != (1, 0, 0):
        if r == 1:
            placements.append((i, branch.order[j - 1]))
            j -= 1
        else:
            i -= 1
        r = 0 if reach[i][j][0] else 1
    placements.reverse()
    return _assemble_layout(inst, placements, branch.pages)


def _depth_domains(
    inst: Instance, pages: Mapping[Edge, int], supmap: Mapping[Vertex, int],
    lookup: FaceLookup,
) -> list[list[int]]:
    """Depths worth trying per new edge with a new endpoint.

    A compliant placement puts each new endpoint in a gap of its super
    interval, where the edge must run at the gap's deepest depth; other
    depths can never satisfy a placement, so they are skipped.  Domains
    follow the canonical edge order.
    """
    sups = super_intervals(inst)
    domains = []
    for e, ends in zip(inst.new_edges, inst.endpoints):
        dom: Optional[set[int]] = None
        for new, w in ends:
            if new:
                s = sups[supmap[w]]
                gaps = range(s.gap_lo, s.gap_hi + 1)
                ds = {lookup.deepest(pages[e], g) for g in gaps}
                dom = ds if dom is None else dom & ds
        if dom is not None:
            domains.append(sorted(dom))
    return domains


def _branch_loop(inst: Instance, stats: SolveStats):
    """Shared outer enumeration: pages, then order, then super intervals.

    Yields ``(pages, order, sup_tuple)`` for combos passing the branch
    consistency checks.  Super intervals are enumerated non-decreasing
    along the order, so no order-super conflict is ever generated.
    ``stats.branches`` counts each rejection once: a page assignment
    failing on the new edges between old vertices counts 1 for all its
    order and super combos, an implied crossing 1 per combo.
    """
    count = len(super_intervals(inst))
    news = inst.new_vertices
    for pages_tuple in itertools.product(range(1, inst.ell + 1), repeat=inst.m_add):
        pages = dict(zip(inst.new_edges, pages_tuple))
        if _old_crossing(inst, pages):
            stats.branches += 1
            continue
        for order in itertools.permutations(news):
            for sup_tuple in itertools.combinations_with_replacement(
                range(count), len(news)
            ):
                if _implied_crossing(inst, pages, order, sup_tuple):
                    stats.branches += 1
                    continue
                yield pages, order, sup_tuple


def solve_fpt(inst: Instance, stats: Optional[SolveStats] = None) -> Optional[Layout]:
    """Exact solver parameterised by the number of new vertices and edges.

    Branches over pages (lexicographic over the canonical new edge
    order), new vertex orders (lexicographic), non-decreasing super
    intervals along the order (lexicographic) and depths per edge
    (lexicographic over pruned domains); each surviving branch runs the
    gap sweep.  ``stats.branches`` counts the rejections of
    ``_branch_loop``, every depth combo reaching the sweep, and 1 for a
    combo whose depth domains leave no depth combo.
    """
    stats = stats or SolveStats()
    stats.algorithm = "dp-fpt"
    lookup = inst.lookup
    deep = _deep_edges(inst)
    cells = 2 * inst.gap_count * (inst.n_add + 1)
    for pages, order, sup_tuple in _branch_loop(inst, stats):
        supmap = dict(zip(order, sup_tuple))
        domains = _depth_domains(inst, pages, supmap, lookup)
        if not all(domains):
            stats.branches += 1
            continue
        for depth_tuple in itertools.product(*domains):
            stats.branches += 1
            stats.cells += cells
            branch = BranchAssignment(
                pages, order, supmap, dict(zip(deep, depth_tuple))
            )
            sol = dp_solve_branch(inst, branch, lookup)
            if sol is not None:
                if not inst.is_solution(sol):
                    raise RuntimeError("sweep produced an invalid layout")
                return sol
    return None


def branch_of_solution(inst: Instance, sol: Layout) -> BranchAssignment:
    """The branch a given solution of the instance complies with."""
    pages = {e: sol.page_of[e] for e in inst.new_edges}
    order = tuple(sorted(inst.new_vertices, key=sol.rank_of))
    old_ranks = sorted(sol.rank_of(w) for w in inst.h.vertex_set)
    gap: dict[Vertex, int] = {}
    for v in inst.new_vertices:
        r = sol.rank_of(v)
        gap[v] = sum(1 for x in old_ranks if x < r) + 1
    sups = super_intervals(inst)
    supers = {
        v: next(s.index for s in sups if s.contains_gap(g)) for v, g in gap.items()
    }
    lookup = inst.lookup
    old = inst.h.vertex_set
    depths = {}
    for e in _deep_edges(inst):
        w = e[0] if e[0] not in old else e[1]
        depths[e] = lookup.deepest(pages[e], gap[w])
    return BranchAssignment(pages, order, supers, depths)


def solve_greedy_is(
    inst: Instance, stats: Optional[SolveStats] = None
) -> Optional[Layout]:
    """Exact solver for pairwise non-adjacent new vertices.

    Same outer branching as ``solve_fpt``, but with no edges between new
    vertices a single left-to-right first-fit over the gaps settles each
    branch: a vertex goes to the first gap of its super interval, at or
    after the current position, from which all its old neighbours are
    visible on the branch pages.  Visibility is a per-gap, per-vertex
    property here, so first-fit never discards a realisable branch.
    ``stats.branches`` counts the rejections of ``_branch_loop`` and
    every combo the first-fit runs on.
    """
    stats = stats or SolveStats()
    stats.algorithm = "greedy-is"
    if any(u_new and v_new for (u_new, _), (v_new, _) in inst.endpoints):
        raise InputError("first-fit solver needs pairwise non-adjacent new vertices")
    sups = super_intervals(inst)
    fits = inst.lookup.pages_fitting
    # per new vertex: its edges and the doubled positions of their old ends
    anchors: dict[Vertex, list[tuple[Edge, int]]] = {v: [] for v in inst.new_vertices}
    for e, ((u_new, u), (v_new, v)) in zip(inst.new_edges, inst.endpoints):
        if u_new or v_new:
            w, r2 = (u, v) if u_new else (v, u)
            anchors[w].append((e, r2))

    for pages, order, sup_tuple in _branch_loop(inst, stats):
        stats.branches += 1
        ptr = 1
        placements: list[tuple[int, Vertex]] = []
        for v, si in zip(order, sup_tuple):
            s = sups[si]
            want = [(pages[e], r2) for e, r2 in anchors[v]]
            ptr = max(ptr, s.gap_lo)
            while ptr <= s.gap_hi and not all(
                p in fits(2 * ptr - 1, r2) for p, r2 in want
            ):
                ptr += 1
            if ptr > s.gap_hi:
                break
            placements.append((ptr, v))
        if len(placements) != len(order):
            continue
        sol = _assemble_layout(inst, placements, pages)
        if not inst.is_solution(sol):
            raise RuntimeError("first-fit produced an invalid layout")
        return sol
    return None
