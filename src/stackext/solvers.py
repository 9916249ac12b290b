"""Solvers for the easier instance shapes.

* ``solve_edges_only``: no new vertices.  Safe new edges (those fitting
  on at least as many pages as there are new edges left) can be set
  aside and re-added greedily afterwards, so only a small core is
  brute-forced.
* ``solve_one_vertex``: one new vertex, every new edge attached to it.
  A left-to-right first-fit over the gaps is exact here.
* ``solve_xp``: fully general.  Enumerates all spine extensions and
  settles the page assignment of each like ``solve_edges_only``, which
  is its case without new vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .model import (
    Edge,
    Instance,
    InputError,
    Layout,
    SpineOrder,
    Vertex,
    alternates,
    edge,
)
from .oracle import assemble_spine


@dataclass
class SolveStats:
    """Mutable counter bag a solver fills when handed in.

    ``refuted`` names the unary fact that settled a no-instance before
    any branching (``"blocked-edge"`` or ``"blocked-vertex"``), and is
    empty otherwise.
    """

    branches: int = 0
    cells: int = 0
    algorithm: str = ""
    refuted: str = ""


def _assemble_layout(inst: Instance, placements, pages) -> Layout:
    """The fixed layout with new vertices inserted at ``(gap, vertex)``
    placements and new edges added on the given pages.

    Every solver but the oracle builds its answer here, so this is where
    an answer is checked: a layout that is not a solution of the
    instance raises ``RuntimeError`` instead of being returned.
    """
    layout = inst.layout_h
    spine = assemble_spine(layout.spine.order, placements)
    full = dict(layout.page_of)
    full.update(pages)
    sol = Layout(SpineOrder(spine), inst.ell, full)
    if not inst.is_solution(sol):
        raise RuntimeError("solver produced an invalid layout")
    return sol


def candidate_pages(inst: Instance, e: Edge) -> frozenset[int]:
    """Pages on which new edge ``e`` fits against the fixed layout alone.

    Both endpoints of ``e`` must already lie on the spine.  Interaction
    with other new edges is deliberately ignored.
    """
    e = edge(*e)
    if e not in set(inst.new_edges):
        raise InputError(f"{e!r} is not a new edge of the instance")
    layout = inst.layout_h
    return inst.lookup.pages_fitting(
        2 * layout.rank_of(e[0]), 2 * layout.rank_of(e[1])
    )


def _removal_order(
    edges: Sequence[Edge], fit_count: dict[Edge, int]
) -> tuple[list[Edge], list[Edge]]:
    # repeatedly take the first edge fitting on >= len(remaining) pages
    remaining = list(edges)
    removed: list[Edge] = []
    while True:
        for e in remaining:
            if fit_count[e] >= len(remaining):
                remaining.remove(e)
                removed.append(e)
                break
        else:
            return remaining, removed


def reduce_safe_edges(inst: Instance) -> tuple[Instance, tuple[Edge, ...]]:
    """Strip new edges that are safe to postpone.

    Precondition: no new vertices.  While some new edge fits on at least
    as many pages (against the fixed layout) as there are new edges left,
    remove the first such edge in canonical order.  The removed edges can
    always be re-added after the rest is placed, each on a page no other
    new edge uses, so the reduced instance is extendable if and only if
    the original is.  Returns the reduced instance and the removal order.
    """
    if inst.n_add != 0:
        raise InputError("safe-edge reduction needs an instance without new vertices")
    fits = {e: len(candidate_pages(inst, e)) for e in inst.new_edges}
    remaining, removed = _removal_order(inst.new_edges, fits)
    if not removed:
        return inst, ()
    return Instance(inst.layout_h, inst.new_vertices, remaining), tuple(removed)


def _assign_with_fits(new_pairs, fits) -> Optional[list[int]]:
    """Page per endpoint pair given per-pair page options, or ``None``.

    Pair endpoints only need to be comparable; equal endpoints mean a
    shared vertex, which never blocks.  Pairs that fit on at least as
    many pages as there are pairs left are set aside first and re-added
    greedily afterwards on a page no other pair uses, so only a small
    core is searched depth-first (pages ascending, pairs in given order),
    with an explicit stack so that long cores cannot exhaust recursion.
    """
    order = range(len(new_pairs))
    core, removed = _removal_order(order, {i: len(fits[i]) for i in order})
    options = [sorted(fits[i]) for i in core]
    pick = [-1] * len(core)  # per core pair: index of its current page
    added: dict[int, list] = {}  # per page in use: pairs placed there
    t = 0
    while 0 <= t < len(core):
        a, b = new_pairs[core[t]]
        pages = options[t]
        if pick[t] >= 0:
            added[pages[pick[t]]].pop()
        k = pick[t] + 1
        while k < len(pages) and any(
            alternates(x, y, a, b) for x, y in added.get(pages[k], ())
        ):
            k += 1
        if k < len(pages):
            pick[t] = k
            added.setdefault(pages[k], []).append((a, b))
            t += 1
        else:
            pick[t] = -1
            t -= 1
    if t < 0:
        return None
    chosen = {i: opts[k] for i, opts, k in zip(core, options, pick)}
    for i in reversed(removed):
        used = set(chosen.values())
        free = sorted(set(fits[i]) - used)
        if not free:
            raise RuntimeError("safe-edge invariant violated")
        chosen[i] = free[0]
    return [chosen[i] for i in order]


def solve_edges_only(inst: Instance) -> Optional[Layout]:
    """Exact solver for instances without new vertices.

    Sets safe edges aside, brute-forces the surviving core over per-edge
    candidate pages (pages ascending, edges in canonical order), then
    re-adds the removed edges in reverse removal order, each on the
    smallest candidate page no other new edge uses.  Such a page always
    exists by the removal rule.  This is ``solve_xp`` on its single
    spine candidate.
    """
    if inst.n_add != 0:
        raise InputError("edges-only solver needs an instance without new vertices")
    return solve_xp(inst)


def solve_one_vertex(inst: Instance) -> Optional[Layout]:
    """Exact first-fit solver for one new vertex with all new edges at it.

    Scans the gaps left to right; within a gap assigns every new edge the
    smallest page from which the gap sees the edge's old endpoint.  Edges
    sharing the new vertex cannot cross each other, so per-edge choices
    are independent and the first completely served gap is a solution.
    """
    if inst.n_add != 1 or inst.new_old_edges:
        raise InputError(
            "one-vertex solver needs exactly one new vertex and no new edge "
            "between old vertices"
        )
    (v,) = inst.new_vertices
    fits = inst.lookup.pages_fitting
    anchors = inst.kinds.anchors[v]
    for g in range(1, inst.gap_count + 1):
        options = [fits(2 * g - 1, r2) for _, r2 in anchors]
        if all(options):
            pages = [(e, min(opts)) for (e, _), opts in zip(anchors, options)]
            return _assemble_layout(inst, [(g, v)], pages)
    return None


def _colex_multisets(top: int, k: int) -> Iterator[tuple[int, ...]]:
    # ascending k-multisets over 1..top in colexicographic order
    if k == 0:
        yield ()
        return
    for last in range(1, top + 1):
        for rest in _colex_multisets(last, k - 1):
            yield rest + (last,)


def feasible_gaps(inst: Instance) -> dict[Vertex, frozenset[int]]:
    """Per new vertex: gaps from which every old neighbour is visible on
    some page.  A placement outside this set puts some of the vertex's
    edges across a fixed edge on every page, so spine candidates
    violating it can be skipped without losing solutions."""
    fits = inst.lookup.pages_fitting
    gaps = range(1, inst.gap_count + 1)
    out = {v: frozenset(gaps) for v in inst.new_vertices}
    seen: dict[int, frozenset[int]] = {}  # gaps seeing an old doubled position
    for w, anchors in inst.kinds.anchors.items():
        for _, r2 in anchors:
            if r2 not in seen:
                seen[r2] = frozenset(g for g in gaps if fits(2 * g - 1, r2))
            out[w] &= seen[r2]
    return out


def _endpoint_keys(inst: Instance, gaps, order) -> list[tuple[int, int]]:
    """Per new edge, its two endpoints as ascending integer keys.

    The ``t``-th vertex of ``order`` (from 1), placed in gap
    ``gaps[t - 1]``, gets ``(2 * gap - 1) * (n_add + 1) + t``; an old
    vertex at doubled position ``r2`` gets ``r2 * (n_add + 1)``.  Keys
    order all endpoints as the spine does, vertices sharing a gap in the
    order of ``order``; equal keys mean a shared endpoint, and a key
    divided by ``n_add + 1``, rounded down, is its doubled position.
    """
    scale = inst.n_add + 1
    key = {
        v: (2 * g - 1) * scale + t
        for t, (g, v) in enumerate(zip(gaps, order), start=1)
    }
    return [
        tuple(sorted(key[w] if new else w * scale for new, w in ends))
        for ends in inst.endpoints
    ]


def solve_xp(inst: Instance, stats: Optional[SolveStats] = None) -> Optional[Layout]:
    """General exact solver, exponential only in the number of new vertices.

    Enumerates gap multisets in colexicographic order and new-vertex
    orders lexicographically; every spine candidate turns the instance
    into one without new vertices, whose page assignment is settled as
    ``solve_edges_only`` describes.  Without new vertices there is one
    candidate, the fixed spine.  ``stats.branches`` counts the
    (multiset, order) pairs considered, at most
    ``(n_H + 1) * ... * (n_H + n_add)`` in total, and 1 without new
    vertices.
    """
    stats = stats or SolveStats()
    stats.algorithm = "xp"
    news = inst.new_vertices
    scale = len(news) + 1
    ok_gaps = feasible_gaps(inst)
    pages_fitting = inst.lookup.pages_fitting
    for slots in _colex_multisets(inst.gap_count, len(news)):
        for perm in itertools.permutations(news):
            stats.branches += 1
            if any(g not in ok_gaps[v] for g, v in zip(slots, perm)):
                continue
            pairs = _endpoint_keys(inst, slots, perm)
            fits = [pages_fitting(a // scale, b // scale) for a, b in pairs]
            if not all(fits):
                continue
            chosen = _assign_with_fits(pairs, fits)
            if chosen is not None:
                pages = zip(inst.new_edges, chosen)
                return _assemble_layout(inst, zip(slots, perm), pages)
    return None
