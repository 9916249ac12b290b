"""The branching FPT solver and its gap-sweep dynamic program.

One loop serves ``solve_fpt`` and ``solve_greedy_is``.  It guesses,
per branch, the page of every new edge, the spine order of the new
vertices and the super interval each lands in.  Unary facts come first:
a new edge or vertex that fits nowhere refutes the instance before any
branching, and page guesses are checked as they are made, so a branch
is only completed when every new vertex still has a gap to go to.  A
consistent branch is settled by a left-to-right pass over the gaps of
the fixed spine.
Without edges between two new vertices, whether a gap admits a vertex
depends on that vertex alone, so a first-fit scan settles the branch.
Otherwise each edge between two new vertices also gets a guessed
nesting depth, and the gap sweep settles every depth combo.  A new
edge with an old endpoint needs no guess: it runs at the deepest face
of its new endpoint's gap, and it fits exactly when ``pages_fitting``
says the gap sees the old endpoint on the edge's page.

Super intervals are the maximal runs of gaps not separated by an old
vertex incident to a new edge.  Inside such a run, sliding a new vertex
never changes its order relative to any endpoint of a new edge, so
crossings between two new edges are decided by the branch alone; the
sweep only has to reconcile new edges with the fixed ones, which is
what the per-gap face structure encodes.
"""

from __future__ import annotations

import bisect
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
    to a super interval index and ``depths`` maps new edges to the
    nesting depth they are meant to run at.  ``depths`` must cover the
    edges between two new vertices and may cover the edges between a
    new and an old vertex; a depth given for the latter is enforced.
    """

    pages: Mapping[Edge, int]
    order: tuple[Vertex, ...]
    supers: Mapping[Vertex, int]
    depths: Mapping[Edge, int]

    def __post_init__(self):
        for name in ("pages", "supers", "depths"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        object.__setattr__(self, "order", tuple(self.order))


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
    deep = set(inst.new_edges) - set(inst.new_old_edges)
    if not set(inst.kinds.links) <= set(branch.depths) <= deep:
        raise InputError(
            "branch depths must cover the edges between new vertices and only "
            "new edges with a new endpoint"
        )
    if any(d < 0 for d in branch.depths.values()):
        raise InputError("branch depth out of range")


def _old_crossing(inst: Instance, pages: Mapping[Edge, int]) -> bool:
    # new edges between old vertices, against the fixed edges and each other
    placed: dict[int, list[tuple[int, int]]] = {}
    for e, a, b in inst.kinds.spans:
        p = pages[e]
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
        return any(self.reach[self.gaps][self.placed])


def _sweep_tables(
    inst: Instance, branch: BranchAssignment, lookup: FaceLookup
) -> tuple[list, list]:
    """Admissibility of placements and gap moves, per gap and count.

    ``place_ok[i][j]`` allows placing the ``j``-th ordered vertex at gap
    ``i``: the gap lies in its super interval, the gap sees the old end
    of every edge to an old vertex on the edge's page (``pages_fitting``)
    at the branch depth if one is given, and every edge to another new
    vertex runs at the branch depth, which must be the gap's deepest
    depth on its page.

    ``shift_ok[i][j]`` allows stepping from gap ``i - 1`` to gap ``i``
    with ``j`` vertices placed: every half-finished edge between a
    placed and an unplaced new vertex must run in a face that spans
    both gaps at its branch depth ``d``.  That holds exactly when ``d``
    is at most the depth of the vertex between the two gaps (doubled
    position ``2i - 2``): an edge encloses both gaps exactly when it
    encloses that vertex, and such edges are the outer part of both
    gaps' nested runs of faces, so the face at depth ``d`` is shared.
    """
    sups = super_intervals(inst)
    fits = lookup.pages_fitting
    n = inst.n_add
    gaps = inst.gap_count
    pages, depths = branch.pages, branch.depths
    oidx = {v: t + 1 for t, v in enumerate(branch.order)}

    linking: dict[Vertex, list[tuple[int, int]]] = {v: [] for v in branch.order}
    half: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for e in inst.kinds.links:
        u, v = e
        pd = (pages[e], depths[e])
        linking[u].append(pd)
        linking[v].append(pd)
        x, y = sorted((oidx[u], oidx[v]))
        for j in range(x, y):
            half[j].append(pd)

    place_ok = [[False] * (n + 1) for _ in range(gaps + 1)]
    for j in range(1, n + 1):
        v = branch.order[j - 1]
        s = sups[branch.supers[v]]
        anchored = [(pages[e], r2, depths.get(e)) for e, r2 in inst.kinds.anchors[v]]
        for i in range(s.gap_lo, s.gap_hi + 1):
            place_ok[i][j] = all(
                p in fits(2 * i - 1, r2) and d in (None, lookup.deepest(p, i))
                for p, r2, d in anchored
            ) and all(d == lookup.deepest(p, i) for p, d in linking[v])

    shift_ok = [[False] * (n + 1) for _ in range(gaps + 1)]
    for i in range(2, gaps + 1):
        for j in range(n + 1):
            shift_ok[i][j] = all(d <= lookup.depth(p, 2 * i - 2) for p, d in half[j])
    return place_ok, shift_ok


def dp_table(
    inst: Instance, branch: BranchAssignment, lookup: Optional[FaceLookup] = None
) -> DpTable:
    """Run the gap sweep for one branch and return the state table."""
    _validate_branch(inst, branch)
    place_ok, shift_ok = _sweep_tables(inst, branch, lookup or inst.lookup)
    n, gaps = inst.n_add, inst.gap_count
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
    inst: Instance, pages: Mapping[Edge, int], supmap: Mapping[Vertex, int]
) -> list[list[int]]:
    """Depths worth trying per edge between two new vertices.

    A compliant placement puts each endpoint in a gap of its super
    interval, where the edge must run at the gap's deepest depth; other
    depths can never satisfy a placement, so they are skipped.  Edges
    with an old endpoint get no domain: the gap fixes their depth.
    Domains follow the canonical edge order.
    """
    sups, deepest = super_intervals(inst), inst.lookup.deepest

    def depths(p: int, w: Vertex) -> set[int]:
        s = sups[supmap[w]]
        return {deepest(p, g) for g in range(s.gap_lo, s.gap_hi + 1)}

    return [
        sorted(depths(pages[e], e[0]) & depths(pages[e], e[1]))
        for e in inst.kinds.links
    ]


def _presolve(inst: Instance) -> tuple[str, dict[Vertex, int]]:
    """Unary refutation before any branching.

    Returns the reason, ``""`` when there is none, and per new vertex the
    first gap that sees each of its old neighbours on some page; no gap
    left of it is admissible under any pages.  ``"blocked-edge"``: a new
    edge between old vertices fits on no page.  ``"blocked-vertex"``: a
    new vertex has no such gap.  Either fact holds in every branch.
    Each vertex's scan stops at its first such gap, so an extendable
    instance pays little.
    """
    fits = inst.lookup.pages_fitting
    first: dict[Vertex, int] = {}
    if any(not fits(a, b) for _, a, b in inst.kinds.spans):
        return "blocked-edge", first
    for v, anchors in inst.kinds.anchors.items():
        g = 1
        while g <= inst.gap_count and not all(
            fits(2 * g - 1, r2) for _, r2 in anchors
        ):
            g += 1
        if g > inst.gap_count:
            return "blocked-vertex", first
        first[v] = g
    return "", first


def _branch_loop(inst: Instance, stats: SolveStats, first: Mapping[Vertex, int]):
    """Shared outer enumeration: pages, then order, then super intervals.

    Pages are assigned depth-first over the canonical new edge order,
    with an explicit stack, and checked forward.  A new edge between old
    vertices is checked as soon as it has its page: it must fit against
    the fixed edges (``pages_fitting``) and not alternate with an earlier
    such edge on that page.  Once the last edge from a new vertex to an
    old vertex has its page, the vertex needs an admissible super
    interval, one holding a gap that sees each old neighbour on its
    edge's page; a prefix leaving a vertex none is cut.  At a full page
    assignment, orders are enumerated lexicographically and, per order,
    the super tuples non-decreasing along it (lexicographic) over
    admissible intervals only.  Admissibility is tested lazily, from
    the vertex's gap ``first[v]`` of ``_presolve`` on, and memoised per
    solve on the vertex, the pages of its edges to old vertices and the
    interval.

    Yields ``(pages, order, sup_tuple, starts)`` for combos without an
    implied crossing, ``starts[t]`` the first admissible gap of
    ``order[t]`` in its interval.  The skipped combos are exactly those
    that no first-fit or sweep could settle (each vertex needs an
    admissible gap in its interval), and the rest keep their order, so
    the first combo that settles does not change.  ``stats.branches``
    counts each rejection once: a page prefix cut by an edge between old
    vertices or by a vertex without admissible interval counts 1 for all
    the combos below it, an implied crossing 1 per combo.
    """
    sups = super_intervals(inst)
    count = len(sups)
    fits = inst.lookup.pages_fitting
    edges, news, ell = inst.new_edges, inst.new_vertices, inst.ell
    m, n = len(edges), len(news)
    at = {e: k for k, e in enumerate(edges)}
    span_at: list = [None] * m
    for e, a, b in inst.kinds.spans:
        span_at[at[e]] = (a, b)
    # per vertex: the indices and old ends of its edges to old vertices;
    # the vertex is checked when the last of them gets its page
    ends = {
        v: ([at[e] for e, _ in es], [r2 for _, r2 in es])
        for v, es in inst.kinds.anchors.items()
    }
    last = {idx[-1]: v for v, (idx, _) in ends.items() if idx}
    # per vertex and pages of its edges to old vertices: per interval the
    # first admissible gap, 0 for none and None while untested
    memo: dict[Vertex, dict] = {v: {} for v in news}
    # per vertex: its current memo entry and the (page, old end) pairs
    # the entry is for
    current = {v: ([None] * count, []) for v in news}

    def start(v: Vertex, s: int) -> int:
        status, want = current[v]
        gap = status[s]
        if gap is None:
            gap = 0
            for g in range(max(sups[s].gap_lo, first[v]), sups[s].gap_hi + 1):
                x = 2 * g - 1
                for p, r2 in want:
                    if p not in fits(x, r2):
                        break
                else:
                    gap = g
                    break
            status[s] = gap
        return gap

    pages = [0] * m
    placed: dict[int, list] = {p: [] for p in range(1, ell + 1)}
    on = [False] * m  # edge k's span sits in ``placed``
    k = 0
    while k >= 0:
        if k == m:
            k -= 1
            pmap = dict(zip(edges, pages))
            for order in itertools.permutations(news):
                if not n:
                    yield pmap, order, (), ()
                    continue
                sup = [0] * n
                t = s = 0
                while True:
                    while s < count and not start(order[t], s):
                        s += 1
                    if s == count:
                        if t == 0:
                            break
                        t -= 1
                        s = sup[t] + 1
                    elif t + 1 < n:
                        sup[t] = s
                        t += 1
                    else:
                        sup[t] = s
                        tup = tuple(sup)
                        if _implied_crossing(inst, pmap, order, tup):
                            stats.branches += 1
                        else:
                            yield pmap, order, tup, [
                                start(v, x) for v, x in zip(order, tup)
                            ]
                        s += 1
            continue
        p = pages[k]
        if on[k]:
            placed[p].pop()
            on[k] = False
        if p == ell:
            pages[k] = 0
            k -= 1
            continue
        p = pages[k] = p + 1
        span = span_at[k]
        if span is not None:
            a, b = span
            if p not in fits(a, b) or any(
                alternates(x, y, a, b) for x, y in placed[p]
            ):
                stats.branches += 1
                continue
            placed[p].append(span)
            on[k] = True
        elif k in last:
            v = last[k]
            idx, r2s = ends[v]
            key = tuple(pages[i] for i in idx)
            status = memo[v].get(key)
            if status is None:
                status = memo[v][key] = [None] * count
            current[v] = status, list(zip(key, r2s))
            if not any(start(v, s) for s in range(count)):
                stats.branches += 1
                continue
        k += 1


def _solve_branches(inst: Instance, stats: SolveStats) -> Optional[Layout]:
    """The FPT loop: refute by unary facts, else settle every branch of
    ``_branch_loop`` in turn.

    ``_presolve`` runs first; when it refutes, ``stats.refuted`` names
    the reason and no branch is counted.  Without edges between two new
    vertices, a first-fit scan settles a branch: each vertex, in order,
    goes to the first gap of its super interval, at or after the
    previous vertex, that sees all its old neighbours on the branch
    pages.  Admissibility is then a property of one vertex and one gap,
    so first-fit never discards a realisable branch.  Otherwise the
    edges between new vertices get depths from their pruned domains
    (lexicographic), and each depth combo runs the gap sweep.
    ``stats.branches`` counts the rejections of ``_branch_loop`` (a page
    prefix it cuts counts once), then per surviving branch 1 for a
    first-fit or an empty depth domain, else 1 per depth combo swept.
    """
    stats.refuted, first = _presolve(inst)
    if stats.refuted:
        return None
    sups = super_intervals(inst)
    lookup = inst.lookup
    fits = lookup.pages_fitting
    _, anchors, linking = inst.kinds
    cells = 2 * inst.gap_count * (inst.n_add + 1)

    for pages, order, sup_tuple, starts in _branch_loop(inst, stats, first):
        sol = None
        if linking:
            supmap = dict(zip(order, sup_tuple))
            domains = _depth_domains(inst, pages, supmap)
            if not all(domains):
                stats.branches += 1
                continue
            for depth_tuple in itertools.product(*domains):
                stats.branches += 1
                stats.cells += cells
                depths = dict(zip(linking, depth_tuple))
                branch = BranchAssignment(pages, order, supmap, depths)
                sol = dp_solve_branch(inst, branch, lookup)
                if sol is not None:
                    break
        else:
            stats.branches += 1
            ptr = 1
            placements: list[tuple[int, Vertex]] = []
            for v, si, lo in zip(order, sup_tuple, starts):
                s = sups[si]
                want = [(pages[e], r2) for e, r2 in anchors[v]]
                ptr = max(ptr, lo)
                while ptr <= s.gap_hi and not all(
                    p in fits(2 * ptr - 1, r2) for p, r2 in want
                ):
                    ptr += 1
                if ptr > s.gap_hi:
                    break
                placements.append((ptr, v))
            if len(placements) == len(order):
                sol = _assemble_layout(inst, placements, pages)
        if sol is not None:
            return sol
    return None


def solve_fpt(inst: Instance, stats: Optional[SolveStats] = None) -> Optional[Layout]:
    """Exact solver parameterised by the number of new vertices and edges.

    Refutes by unary facts first (``stats.refuted`` says which, and no
    branch is counted).  Otherwise branches over pages (lexicographic
    over the canonical new edge order, checked as they are set), new
    vertex orders (lexicographic) and non-decreasing admissible super
    intervals along the order (lexicographic), and settles each branch
    by first-fit or, with edges between new vertices, by the gap sweep
    (see ``_solve_branches``, which also says what ``stats.branches``
    counts: a page prefix cut by forward checking counts once;
    ``stats.cells`` adds up the sweep tables' cells).
    """
    stats = stats or SolveStats()
    stats.algorithm = "dp-fpt"
    return _solve_branches(inst, stats)


def branch_of_solution(inst: Instance, sol: Layout) -> BranchAssignment:
    """The branch a given solution of the instance complies with."""
    pages = {e: sol.page_of[e] for e in inst.new_edges}
    order = tuple(sorted(inst.new_vertices, key=sol.rank_of))
    old_ranks = sorted(sol.rank_of(w) for w in inst.layout_h.spine)
    gap = {
        v: bisect.bisect_left(old_ranks, sol.rank_of(v)) + 1 for v in inst.new_vertices
    }
    sups = super_intervals(inst)
    supers = {
        v: next(s.index for s in sups if s.contains_gap(g)) for v, g in gap.items()
    }
    deepest = inst.lookup.deepest
    _, anchors, linking = inst.kinds
    depths = {e: deepest(pages[e], gap[w]) for w, es in anchors.items() for e, _ in es}
    depths.update((e, deepest(pages[e], gap[e[0]])) for e in linking)
    return BranchAssignment(pages, order, supers, depths)


def solve_greedy_is(
    inst: Instance, stats: Optional[SolveStats] = None
) -> Optional[Layout]:
    """Exact solver for pairwise non-adjacent new vertices.

    ``solve_fpt`` restricted to its first-fit case: with no edges
    between new vertices every branch is settled by one first-fit scan,
    and ``stats.branches`` counts the rejections of ``_branch_loop`` (a
    page prefix it cuts counts once) plus every branch the scan runs on;
    a refutation by the presolve counts none.  Raises
    :class:`InputError` on an edge between two new vertices.
    """
    stats = stats or SolveStats()
    stats.algorithm = "greedy-is"
    if inst.kinds.links:
        raise InputError("first-fit solver needs pairwise non-adjacent new vertices")
    return _solve_branches(inst, stats)
