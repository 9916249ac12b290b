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
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from .model import (
    Edge,
    FaceLookup,
    Instance,
    InputError,
    Layout,
    SpineOrder,
    Vertex,
    alternates,
    super_intervals,
)
from .oracle import assemble_spine
from .solvers import SolveStats


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
    if set(branch.depths) != set(_deep_edges(inst)):
        raise InputError(
            "branch must assign a depth to exactly the new edges with a new endpoint"
        )
    if any(d < 0 for d in branch.depths.values()):
        raise InputError("branch depth out of range")


def _old_crossing(inst: Instance, pages: Mapping[Edge, int]) -> bool:
    # new edges between old vertices, against the fixed edges and each other
    layout = inst.layout_h
    placed: dict[int, list[tuple[int, int]]] = {}
    for e in inst.new_old_edges:
        p = pages[e]
        a, b = sorted((2 * layout.rank_of(e[0]), 2 * layout.rank_of(e[1])))
        if p not in inst.lookup.pages_fitting(a, b) or any(
            alternates(x, y, a, b) for x, y in placed.get(p, ())
        ):
            return True
        placed.setdefault(p, []).append((a, b))
    return False


def _implied_crossing(inst: Instance, branch: BranchAssignment) -> bool:
    """Crossing forced among new edges by the branch alone.

    Old endpoints of new edges sit at super interval boundaries, so the
    spine order of all such endpoints is already fixed by the branch;
    positions are compared through surrogate keys that realise it.
    """
    layout = inst.layout_h
    sups = super_intervals(inst)
    oidx = {v: t for t, v in enumerate(branch.order)}
    old = inst.h.vertex_set

    def key(w: Vertex) -> tuple[int, int]:
        if w in old:
            return (2 * layout.rank_of(w), 0)
        s = sups[branch.supers[w]]
        return (2 * s.gap_lo - 1, oidx[w] + 1)

    eh = set(inst.new_old_edges)
    ranked = []
    for e in inst.new_edges:
        k1, k2 = key(e[0]), key(e[1])
        ranked.append((e, min(k1, k2), max(k1, k2)))
    for (e1, a1, b1), (e2, a2, b2) in itertools.combinations(ranked, 2):
        if e1 in eh and e2 in eh:
            continue
        if branch.pages[e1] != branch.pages[e2]:
            continue
        if set(e1) & set(e2):
            continue
        if alternates(a1, b1, a2, b2):
            return True
    return False


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
    if _implied_crossing(inst, branch):
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
    _place_ok: list = field(repr=False, default=None)
    _shift_ok: list = field(repr=False, default=None)

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
    deep = _deep_edges(inst)
    oidx = {v: t + 1 for t, v in enumerate(branch.order)}

    anchored: dict[Vertex, list[tuple[int, int, Vertex]]] = {v: [] for v in branch.order}
    linking: dict[Vertex, list[tuple[int, int]]] = {v: [] for v in branch.order}
    half: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for e in deep:
        p, d = branch.pages[e], branch.depths[e]
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
    return DpTable(gaps, n, reach, place_ok, shift_ok)


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
    layout = inst.layout_h
    spine = assemble_spine(layout.spine.order, placements)
    full = dict(layout.page_of)
    full.update(branch.pages)
    return Layout(SpineOrder(spine), inst.ell, full)


def _depth_domains(
    inst: Instance, branch_pages: Mapping[Edge, int], supmap: Mapping[Vertex, int],
    lookup: FaceLookup,
) -> list[list[int]]:
    """Depths worth trying per new edge with a new endpoint.

    A compliant placement puts each new endpoint in a gap of its super
    interval, where the edge must run at the gap's deepest depth; other
    depths can never satisfy a placement, so they are skipped.  Domains
    follow the canonical edge order.
    """
    sups = super_intervals(inst)
    old = inst.h.vertex_set
    domains = []
    for e in _deep_edges(inst):
        p = branch_pages[e]
        dom: Optional[set[int]] = None
        for w in e:
            if w in old:
                continue
            s = sups[supmap[w]]
            ds = {lookup.deepest(p, g) for g in range(s.gap_lo, s.gap_hi + 1)}
            dom = ds if dom is None else dom & ds
        domains.append(sorted(dom))
    return domains


def _branch_loop(inst: Instance, stats: Optional[SolveStats]):
    """Shared outer enumeration: pages, then order, then super intervals.

    Yields ``(pages, order, sup_tuple)`` for combos passing the branch
    consistency checks; rejected combos are only counted.  A page
    assignment failing on the old-old new edges rejects all its order
    and super combos at once.
    """
    sups = super_intervals(inst)
    news = inst.new_vertices
    n = len(news)
    block = math.factorial(n) * (len(sups) ** n)
    for pages_tuple in itertools.product(
        range(1, inst.ell + 1), repeat=len(inst.new_edges)
    ):
        pages = dict(zip(inst.new_edges, pages_tuple))
        if _old_crossing(inst, pages):
            if stats is not None:
                stats.branches += block
            continue
        for order in itertools.permutations(news):
            for sup_tuple in itertools.product(range(len(sups)), repeat=n):
                if any(s > t for s, t in zip(sup_tuple, sup_tuple[1:])):
                    if stats is not None:
                        stats.branches += 1
                    continue
                branch = BranchAssignment(
                    pages, order, dict(zip(order, sup_tuple)), {}
                )
                if _implied_crossing(inst, branch):
                    if stats is not None:
                        stats.branches += 1
                    continue
                yield pages, order, sup_tuple


def solve_fpt(inst: Instance, stats: Optional[SolveStats] = None) -> Optional[Layout]:
    """Exact solver parameterised by the number of new vertices and edges.

    Branches over pages (lexicographic over the canonical new edge
    order), new vertex orders (lexicographic), super intervals per
    vertex (lexicographic along the order) and depths per edge
    (lexicographic over pruned domains); each surviving branch runs the
    gap sweep.  ``stats.branches`` counts rejected combos once and every
    depth combo reaching the sweep.
    """
    if stats is not None:
        stats.algorithm = "dp-fpt"
    lookup = inst.lookup
    deep = _deep_edges(inst)
    for pages, order, sup_tuple in _branch_loop(inst, stats):
        supmap = dict(zip(order, sup_tuple))
        domains = _depth_domains(inst, pages, supmap, lookup)
        seen_depths = False
        for depth_tuple in itertools.product(*domains):
            seen_depths = True
            if stats is not None:
                stats.branches += 1
                stats.cells += 2 * inst.gap_count * (inst.n_add + 1)
            branch = BranchAssignment(
                pages, order, supmap, dict(zip(deep, depth_tuple))
            )
            sol = dp_solve_branch(inst, branch, lookup)
            if sol is not None:
                if not inst.is_solution(sol):
                    raise RuntimeError("sweep produced an invalid layout")
                return sol
        if not seen_depths and stats is not None:
            stats.branches += 1
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
    """
    if stats is not None:
        stats.algorithm = "greedy-is"
    old = inst.h.vertex_set
    if any(u not in old and v not in old for u, v in inst.new_edges):
        raise InputError("first-fit solver needs pairwise non-adjacent new vertices")
    layout = inst.layout_h
    sups = super_intervals(inst)
    fits = inst.lookup.pages_fitting

    for pages, order, sup_tuple in _branch_loop(inst, stats):
        if stats is not None:
            stats.branches += 1
        anchored: dict[Vertex, list[tuple[int, int]]] = {v: [] for v in order}
        for e in _deep_edges(inst):
            u, v = e
            if u in old:
                anchored[v].append((pages[e], 2 * layout.rank_of(u)))
            else:
                anchored[u].append((pages[e], 2 * layout.rank_of(v)))
        ptr = 1
        placements: list[tuple[int, Vertex]] = []
        for t, v in enumerate(order):
            s = sups[sup_tuple[t]]
            ptr = max(ptr, s.gap_lo)
            while ptr <= s.gap_hi and not all(
                p in fits(2 * ptr - 1, u2) for p, u2 in anchored[v]
            ):
                ptr += 1
            if ptr > s.gap_hi:
                break
            placements.append((ptr, v))
        if len(placements) != len(order):
            continue
        spine = assemble_spine(layout.spine.order, placements)
        full = dict(layout.page_of)
        full.update(pages)
        sol = Layout(SpineOrder(spine), inst.ell, full)
        if not inst.is_solution(sol):
            raise RuntimeError("first-fit produced an invalid layout")
        return sol
    return None
