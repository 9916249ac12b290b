"""Plain brute-force reference and shared corpora for the tests.

The reference solver is deliberately dumber than anything in the
package: it tries every permutation of all vertices, filters the ones
that keep the fixed spine order, and then tries every page combination
for the new edges, with its own crossing test.  Slow but short enough
to trust by inspection.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Union

from stackext import (
    Graph,
    Instance,
    InputError,
    Layout,
    RawSolution,
    Violation,
    edge,
    find_crossing,
    gen_random,
    make_instance,
    make_layout,
)
from stackext.generate import TRIES
from stackext.model import Edge, Vertex, alternates


def _clashes(spans_by_page) -> bool:
    for spans in spans_by_page.values():
        for (a, b), (c, d) in itertools.combinations(spans, 2):
            if a < c < b < d or c < a < d < b:
                return True
    return False


def reference_solutions(
    inst: Instance,
) -> Iterator[tuple[tuple[str, ...], dict[tuple[str, str], int]]]:
    """Every (spine, new edge pages) pair that solves the instance."""
    base = list(inst.layout_h.spine)
    old = set(base)
    news = list(inst.new_vertices)
    fixed = [
        (e, p) for e, p in sorted(inst.layout_h.page_of.items())
    ]
    for perm in itertools.permutations(base + news):
        if [v for v in perm if v in old] != base:
            continue
        pos = {v: i for i, v in enumerate(perm)}
        for combo in itertools.product(
            range(1, inst.ell + 1), repeat=len(inst.new_edges)
        ):
            spans: dict[int, list[tuple[int, int]]] = {}
            for (u, v), p in itertools.chain(
                fixed, zip(inst.new_edges, combo)
            ):
                a, b = sorted((pos[u], pos[v]))
                spans.setdefault(p, []).append((a, b))
            if not _clashes(spans):
                yield tuple(perm), dict(zip(inst.new_edges, combo))


def reference_extendable(inst: Instance) -> bool:
    for _ in reference_solutions(inst):
        return True
    return False


# ---------------------------------------------------------------------------
# exhaustive corpus, canonical modulo renaming


def _page_maps(k: int, ell: int, spans) -> Iterator[tuple[int, ...]]:
    # all crossing-free page assignments for the k chosen rank pairs
    for combo in itertools.product(range(1, ell + 1), repeat=k):
        by_page: dict[int, list[tuple[int, int]]] = {}
        for (a, b), p in zip(spans, combo):
            by_page.setdefault(p, []).append((a, b))
        if not _clashes(by_page):
            yield combo


def _canonical_new_sets(n_add: int, subsets):
    # quotient out the swap of the two new vertices
    if n_add != 2:
        yield from subsets
        return
    swap = {"n1": "n2", "n2": "n1"}
    for sub in subsets:
        mirrored = tuple(
            sorted(edge(swap.get(u, u), swap.get(v, v)) for u, v in sub)
        )
        if sub <= mirrored:
            yield sub


def enumerate_box(
    nh_max: int,
    mh_max: int,
    ells: tuple[int, ...],
    n_add_max: int,
    m_add_max: int,
) -> Iterator[Instance]:
    """All instances within the given size box, one per renaming class.

    The fixed spine is pinned to ``h1 < h2 < ...`` and the two-new-vertex
    instances are kept only in their lexicographically smaller labeling,
    so no two yields differ by names alone.
    """
    for nh in range(nh_max + 1):
        olds = [f"h{i}" for i in range(1, nh + 1)]
        rank = {v: i for i, v in enumerate(olds, start=1)}
        old_pairs = [edge(u, v) for u, v in itertools.combinations(olds, 2)]
        for ell in ells:
            for k in range(min(mh_max, len(old_pairs)) + 1):
                for chosen in itertools.combinations(old_pairs, k):
                    spans = [
                        tuple(sorted((rank[u], rank[v]))) for u, v in chosen
                    ]
                    for combo in _page_maps(k, ell, spans):
                        h_edges = [
                            (u, v, p) for (u, v), p in zip(chosen, combo)
                        ]
                        left = [e for e in old_pairs if e not in set(chosen)]
                        yield from _extensions_of(
                            ell, olds, h_edges, left, n_add_max, m_add_max
                        )


def _extensions_of(ell, olds, h_edges, left_pairs, n_add_max, m_add_max):
    for n_add in range(n_add_max + 1):
        news = [f"n{i}" for i in range(1, n_add + 1)]
        cands = sorted(
            left_pairs
            + [edge(u, w) for u in news for w in olds]
            + [edge(u, w) for u, w in itertools.combinations(news, 2)]
        )
        subsets = (
            tuple(sorted(sub))
            for r in range(min(m_add_max, len(cands)) + 1)
            for sub in itertools.combinations(cands, r)
        )
        for sub in _canonical_new_sets(n_add, subsets):
            yield make_instance(ell, olds, h_edges, news, sub)


# ---------------------------------------------------------------------------
# seeded random corpora


def random_corpus(
    count: int,
    seed: int,
    v_max: int = 8,
    ell_max: int = 3,
    m_add_max: int = 4,
) -> list[Instance]:
    """Deterministic random instances, oracle-sized."""
    rng = random.Random(seed)
    out: list[Instance] = []
    attempt = 0
    while len(out) < count:
        attempt += 1
        nh = rng.randint(0, v_max - 1)
        n_add = rng.randint(0, min(3, v_max - nh))
        mh = rng.randint(0, min(6, nh * (nh - 1) // 2))
        ell = rng.randint(1, ell_max)
        m_add = rng.randint(0, m_add_max)
        try:
            out.append(
                gen_random(nh, mh, ell, n_add, m_add, seed * 10_000 + attempt)
            )
        except InputError:
            continue
    return out


def solvable_pool(
    count: int, seed: int, **kwargs
) -> list[tuple[Instance, bool]]:
    """Random instances tagged with the reference verdict."""
    return [
        (inst, reference_extendable(inst))
        for inst in random_corpus(count, seed, **kwargs)
    ]


# ---------------------------------------------------------------------------
# branch-constrained checking for the gap-sweep solver


def deep_new_edges(inst: Instance):
    """New edges with at least one new endpoint, in canonical order."""
    news = set(inst.new_vertices)
    return tuple(
        e for e in inst.new_edges if e[0] in news or e[1] in news
    )


def enumerate_branches(inst: Instance):
    """Every branch assignment of the instance, consistent or not."""
    from stackext import BranchAssignment, page_width, super_intervals

    sups = super_intervals(inst)
    deep = deep_new_edges(inst)
    depth_cap = page_width(inst.layout_h)
    for pages in itertools.product(
        range(1, inst.ell + 1), repeat=len(inst.new_edges)
    ):
        pmap = dict(zip(inst.new_edges, pages))
        for order in itertools.permutations(inst.new_vertices):
            for sup_combo in itertools.product(
                range(len(sups)), repeat=inst.n_add
            ):
                smap = dict(zip(order, sup_combo))
                for depths in itertools.product(
                    range(depth_cap + 1), repeat=len(deep)
                ):
                    yield BranchAssignment(
                        pmap, order, smap, dict(zip(deep, depths))
                    )


def reference_implied_crossing(inst: Instance, branch) -> bool:
    """Do two same-page new edges alternate once every new vertex sits in
    the first gap of its super interval, in branch order?

    Pairwise, with plain comparisons: an old vertex of rank ``r`` is at
    ``(2r, 0)``, the ``t``-th vertex of the order (from 1) at
    ``(2 * gap_lo - 1, t)``.  Pairs of new edges between old vertices
    and pairs sharing an endpoint are skipped.
    """
    from stackext import super_intervals

    sups = super_intervals(inst)
    lay = inst.layout_h
    old = inst.layout_h.spine

    def key(w):
        if w in old:
            return (2 * lay.rank_of(w), 0)
        return (2 * sups[branch.supers[w]].gap_lo - 1, branch.order.index(w) + 1)

    spans = [(e, sorted((key(e[0]), key(e[1])))) for e in inst.new_edges]
    for (e1, (a, b)), (e2, (c, d)) in itertools.combinations(spans, 2):
        if e1 in inst.new_old_edges and e2 in inst.new_old_edges:
            continue
        if branch.pages[e1] != branch.pages[e2] or set(e1) & set(e2):
            continue
        if a < c < b < d or c < a < d < b:
            return True
    return False


def covering_depth(inst: Instance, pos2, e, p) -> int:
    # closed covering count of the edge's doubled span among the fixed
    # page-p edges; this is the nesting depth the edge runs at
    lay = inst.layout_h
    a, b = sorted((pos2[e[0]], pos2[e[1]]))
    cnt = 0
    for u, v in lay.edges_on_page(p):
        x, y = sorted((2 * lay.rank_of(u), 2 * lay.rank_of(v)))
        cnt += x <= a and b <= y
    return cnt


def branch_brute_force(inst: Instance, branch) -> bool:
    """Is some valid full layout compliant with every branch choice?"""
    from stackext import Layout, SpineOrder, super_intervals

    sups = super_intervals(inst)
    lay = inst.layout_h
    base = list(lay.spine)
    gap_choices = []
    for v in branch.order:
        s = sups[branch.supers[v]]
        gap_choices.append(range(s.gap_lo, s.gap_hi + 1))
    for gaps in itertools.product(*gap_choices):
        # vertices placed earlier in branch order stay left on ties
        if any(g2 < g1 for g1, g2 in zip(gaps, gaps[1:])):
            continue
        spine = list(base)
        placed = list(enumerate(zip(gaps, branch.order)))
        for _, (g, v) in sorted(
            placed, key=lambda t: (t[1][0], t[0]), reverse=True
        ):
            spine.insert(g - 1, v)
        full = dict(lay.page_of)
        full.update(branch.pages)
        candidate = Layout(SpineOrder(tuple(spine)), inst.ell, full)
        if not inst.is_solution(candidate):
            continue
        pos2 = {}
        old_ranks = {w: lay.rank_of(w) for w in lay.spine}
        for w in spine:
            if w in old_ranks:
                pos2[w] = 2 * old_ranks[w]
        for g, v in zip(gaps, branch.order):
            pos2[v] = 2 * g - 1
        if all(
            covering_depth(inst, pos2, e, branch.pages[e])
            == branch.depths[e]
            for e in branch.depths
        ):
            return True
    return False


def small_dp_corpus(count: int, seed: int) -> list[Instance]:
    """Instances small enough to enumerate every branch of."""
    out: list[Instance] = []
    for inst in random_corpus(
        count * 4, seed, v_max=5, ell_max=2, m_add_max=3
    ):
        if inst.n_add >= 1 and len(inst.layout_h.spine) >= 1:
            out.append(inst)
        if len(out) == count:
            break
    return out


# ---------------------------------------------------------------------------
# planted mid-size instances


def planted_instance(
    seed: int, n_h: int, ell: int, n_add: int, m_add: int, extra: bool = False
) -> Instance:
    """Cut-down valid layout: extendable unless ``extra`` adds an edge.

    Each page is drawn as a random bracket sequence over the full spine
    (an arc closes the most recent open position, so arcs nest), then
    ``n_add`` vertices are cut out and up to ``m_add`` of the drawn arcs
    become new edges; cut arcs beyond that budget leave the graph.  With
    ``extra`` one more new edge joins two old vertices that share no
    edge, which may make the instance unextendable.
    """
    rng = random.Random(seed)
    total = n_h + n_add
    spine = [f"p{i:02d}" for i in range(total)]
    arcs: set[tuple[str, str]] = set()
    fixed = []
    for p in range(1, ell + 1):
        stack: list[int] = []
        for i in range(total):
            while stack and rng.random() < 0.4:
                e = edge(spine[stack.pop()], spine[i])
                if e not in arcs:
                    arcs.add(e)
                    fixed.append((e, p))
            stack.extend([i] * rng.choice((0, 1, 1)))
    news = rng.sample(spine, n_add)
    touching = [t for t in fixed if set(t[0]) & set(news)]
    rng.shuffle(touching)
    new_edges = [e for e, _ in touching[:m_add]]
    olds = [t for t in fixed if not set(t[0]) & set(news)]
    rng.shuffle(olds)
    while len(new_edges) < m_add and olds:
        new_edges.append(olds.pop()[0])
    old_spine = [v for v in spine if v not in news]
    if extra:
        used = {e for e, _ in olds} | set(new_edges)
        free = [
            e
            for e in (edge(u, v) for u, v in itertools.combinations(old_spine, 2))
            if e not in used
        ]
        new_edges.append(rng.choice(free))
    h_edges = [(u, v, p) for (u, v), p in olds]
    return make_instance(ell, old_spine, h_edges, news, new_edges)


# ---------------------------------------------------------------------------
# instance construction with G as one graph


def reference_instance_parts(
    ell, spine, h_edges, new_vertices, new_edges
) -> tuple[Graph, Layout]:
    """G and the fixed layout of ``make_instance``'s pieces, checked the
    long way round: the fixed layout checks the fixed edges, one
    :class:`Graph` checks every vertex and edge of G (the fixed edges a
    second time), then H must lie in G and the fixed layout must have no
    crossing.  Raises :class:`InputError` on any defect."""
    spine = tuple(spine)
    layout = make_layout(spine, ell, h_edges)
    g = Graph(spine + tuple(new_vertices), (*layout.page_of, *new_edges))
    extra = [v for v in layout.spine if v not in g.vertex_set]
    extra += sorted(layout.page_of.keys() - g.edge_set)
    if extra:
        raise InputError(f"fixed vertices and edges {extra} missing from the graph")
    if find_crossing(layout) is not None:
        raise InputError("given layout is invalid")
    return g, layout


# ---------------------------------------------------------------------------
# pairwise solution checker


def reference_verify_solution(
    inst: Instance, sol: Union[RawSolution, Layout]
) -> tuple[Violation, ...]:
    """Every reason ``sol`` is not a solution of ``inst``, empty if valid.

    Compares every pair of placeable edges, on every page, with no stack
    scan; ``verify_solution`` must return the same tuple.

    Checks are layered: naming problems first, then page assignments,
    then fidelity to the fixed layout, then crossings.  Later layers
    skip whatever earlier layers flagged, so each defect is reported
    once, under its most specific code.
    """
    if isinstance(sol, Layout):
        sol = RawSolution(
            sol.spine.order,
            tuple((u, v, p) for (u, v), p in sorted(sol.page_of.items())),
        )
    out: list[Violation] = []
    gset = inst.g.vertex_set
    rank: dict[Vertex, int] = {}
    for i, v in enumerate(sol.spine, start=1):
        if v not in gset:
            out.append(Violation("unknown-vertex", f"{v!r} is not a vertex"))
        if v in rank:
            out.append(Violation("duplicate-vertex", f"{v!r} appears twice"))
        else:
            rank[v] = i
    for v in inst.g.vertices:
        if v not in rank:
            out.append(Violation("missing-vertex", f"{v!r} not on the spine"))

    assigned: dict[Edge, int] = {}
    for u, v, p in sol.pages:
        if u == v:
            out.append(Violation("unknown-edge", f"self-loop at {u!r}"))
            continue
        e = edge(u, v)
        if e in assigned:
            out.append(Violation("duplicate-edge", f"{e} assigned twice"))
            continue
        assigned[e] = p
        if e not in inst.g.edge_set:
            out.append(Violation("unknown-edge", f"{e} is not an edge"))
        if not 1 <= p <= inst.ell:
            out.append(
                Violation("page-out-of-range", f"{e} on page {p}, have 1..{inst.ell}")
            )
    for e in inst.g.edges:
        if e not in assigned:
            out.append(Violation("missing-edge-page", f"{e} has no page"))

    it = iter(sol.spine)
    for v in inst.layout_h.spine:
        for w in it:
            if w == v:
                break
        else:
            out.append(
                Violation(
                    "spine-order-changed",
                    f"fixed spine broken at {v!r}",
                )
            )
            break
    for e, p in inst.layout_h.page_of.items():
        q = assigned.get(e)
        if q is not None and q != p:
            out.append(
                Violation(
                    "old-edge-page-changed", f"{e} moved from page {p} to {q}"
                )
            )

    placeable = [
        (e, p)
        for e, p in sorted(assigned.items())
        if e in inst.g.edge_set
        and 1 <= p <= inst.ell
        and e[0] in rank
        and e[1] in rank
    ]
    for i, (e1, p1) in enumerate(placeable):
        a, b = sorted((rank[e1[0]], rank[e1[1]]))
        for e2, p2 in placeable[i + 1 :]:
            if p1 != p2:
                continue
            c, d = sorted((rank[e2[0]], rank[e2[1]]))
            if a < c < b < d or c < a < d < b:
                out.append(
                    Violation("crossing", f"{e1} crosses {e2} on page {p1}")
                )
    return tuple(out)


# ---------------------------------------------------------------------------
# random instances, drawn the long way round


def reference_gen_random(
    nh: int,
    mh: int,
    ell: int,
    n_add: int,
    m_add: int,
    seed: int,
) -> Instance:
    """``gen_random`` the long way round: each draw is checked against
    every edge on its page, and the new edges are sampled from a list of
    all remaining pairs.  ``gen_random`` must return the same instance
    or raise the same error for the same arguments.

    Random extension instance, deterministic per seed.

    The fixed layout is built incrementally: random endpoint pairs and
    pages are drawn until the edge can join its page without a crossing,
    so the layout is valid by construction.  :data:`TRIES` bounds the
    draws per fixed edge; dense requests that keep losing the draw are
    rejected rather than looped forever.  New edges are sampled from all
    remaining vertex pairs, so they may also join two old vertices.
    """
    if min(nh, mh, n_add, m_add) < 0:
        raise InputError("sizes must be non-negative")
    if ell < 1:
        raise InputError(f"page count must be positive, got {ell}")
    if mh > 0 and nh < 2:
        raise InputError(f"{mh} fixed edges need at least 2 fixed vertices")
    rng = random.Random(seed)
    old = [f"h{i}" for i in range(1, nh + 1)]
    spine = old[:]
    rng.shuffle(spine)
    rank = {v: i for i, v in enumerate(spine, start=1)}
    on_page: dict[int, list[tuple[int, int]]] = {p: [] for p in range(1, ell + 1)}
    h_edges = []
    chosen = set()
    for t in range(mh):
        for _ in range(TRIES):
            u, v = rng.sample(old, 2)
            e = edge(u, v)
            if e in chosen:
                continue
            p = rng.randrange(1, ell + 1)
            a, b = sorted((rank[u], rank[v]))
            if any(alternates(x, y, a, b) for x, y in on_page[p]):
                continue
            chosen.add(e)
            on_page[p].append((a, b))
            h_edges.append((e[0], e[1], p))
            break
        else:
            raise InputError(
                f"could not place fixed edge {t + 1} of {mh} within {TRIES} tries; "
                f"lower mh or raise ell"
            )
    news = [f"n{i}" for i in range(1, n_add + 1)]
    everyone = spine + news
    # pairs of a sorted list come out normalized and in sorted order
    candidates = [
        e for e in itertools.combinations(sorted(everyone), 2) if e not in chosen
    ]
    if m_add > len(candidates):
        raise InputError(
            f"asked for {m_add} new edges but only {len(candidates)} pairs remain"
        )
    new_es = rng.sample(candidates, m_add)
    return make_instance(ell, spine, h_edges, news, new_es)
