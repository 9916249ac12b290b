"""Exhaustive ground-truth solver.

Enumerates every spine extension and page assignment of an instance,
yielding valid extensions in a fixed deterministic order.  Exponential in
every respect; guarded by a search-space cap so it cannot be pointed at
an instance it will never finish.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .model import Instance, Layout, SpineOrder, Vertex

DEFAULT_CAP = 10**8


class CapacityError(RuntimeError):
    """The instance's search space exceeds the configured cap."""


def search_space(inst: Instance) -> int:
    """Number of (spine extension, page assignment) pairs to try."""
    size = 1
    n = len(inst.layout_h.spine)
    for i in range(1, inst.n_add + 1):
        size *= n + i
    return size * inst.ell**inst.m_add


def spine_extensions(inst: Instance) -> Iterator[tuple[Vertex, ...]]:
    """All spine orders extending the base spine, each exactly once.

    Gap multisets are enumerated in ascending (lexicographic) order; for
    each multiset the new vertices are assigned to its sorted slots in
    every order of the new-vertex tuple.  Co-located vertices appear in
    slot order.
    """
    base = inst.layout_h.spine.order
    news = inst.new_vertices
    if not news:
        yield base
        return
    gaps = range(1, len(base) + 2)
    for slots in itertools.combinations_with_replacement(gaps, len(news)):
        for perm in itertools.permutations(news):
            yield assemble_spine(base, zip(slots, perm))


def assemble_spine(
    base: tuple[Vertex, ...], placements
) -> tuple[Vertex, ...]:
    """Insert new vertices into gaps of ``base``; placements are
    ``(gap, vertex)`` pairs, co-located vertices keeping pair order."""
    by_gap: dict[int, list[Vertex]] = {}
    for g, v in placements:
        by_gap.setdefault(g, []).append(v)
    out: list[Vertex] = []
    for i, w in enumerate(base, start=1):
        out.extend(by_gap.get(i, ()))
        out.append(w)
    out.extend(by_gap.get(len(base) + 1, ()))
    return tuple(out)


def _rank_map(spine: tuple[Vertex, ...]) -> dict[Vertex, int]:
    return {v: i for i, v in enumerate(spine, start=1)}


def enumerate_solutions(
    inst: Instance, cap: Optional[int] = None
) -> Iterator[Layout]:
    """Yield every valid extending layout exactly once.

    Order: spine extensions as in :func:`spine_extensions`, then page
    assignments with pages ascending per new edge in canonical edge
    order.  Partial assignments are pruned at the first crossing, which
    skips no valid completion.

    Raises :class:`CapacityError` up front when the search space exceeds
    ``cap`` (default :data:`DEFAULT_CAP`, 10**8).
    """
    limit = DEFAULT_CAP if cap is None else cap
    size = search_space(inst)
    if size > limit:
        raise CapacityError(
            f"search space {size} exceeds cap {limit}; "
            f"raise the cap or use a parameterized solver"
        )
    h_pages = {
        p: [] for p in range(1, inst.ell + 1)
    }  # type: dict[int, list[tuple[int, int]]]
    new_edges = inst.new_edges
    base_assign = dict(inst.layout_h.page_of)

    for spine in spine_extensions(inst):
        rank = _rank_map(spine)
        for p in h_pages:
            h_pages[p].clear()
        for e, p in base_assign.items():
            a, b = rank[e[0]], rank[e[1]]
            h_pages[p].append((a, b) if a < b else (b, a))
        pairs = []
        for u, v in new_edges:
            a, b = rank[u], rank[v]
            pairs.append((a, b) if a < b else (b, a))

        # depth-first over new edges, pages ascending, fail-fast, with an
        # explicit stack so that long lists of new edges cannot exhaust
        # recursion
        chosen: list[int] = []  # pages of the first len(chosen) new edges
        added: dict[int, list[tuple[int, int]]] = {
            p: [] for p in range(1, inst.ell + 1)
        }

        def fits(pair: tuple[int, int], p: int) -> bool:
            a, b = pair
            for x, y in h_pages[p]:
                if x < a < y < b or a < x < b < y:
                    return False
            for x, y in added[p]:
                if x < a < y < b or a < x < b < y:
                    return False
            return True

        page = 1  # next page to try for new edge len(chosen)
        while True:
            t = len(chosen)
            if t < len(new_edges) and page <= inst.ell:
                if fits(pairs[t], page):
                    chosen.append(page)
                    added[page].append(pairs[t])
                    page = 1
                else:
                    page += 1
                continue
            if t == len(new_edges):
                pages = dict(base_assign)
                pages.update(zip(new_edges, chosen))
                yield Layout(SpineOrder(spine), inst.ell, pages)
            if not chosen:
                break
            page = chosen.pop()
            added[page].pop()
            page += 1


def solve_exhaustive(inst: Instance, cap: Optional[int] = None) -> Optional[Layout]:
    """First valid extension in enumeration order, or ``None``."""
    return next(enumerate_solutions(inst, cap), None)
