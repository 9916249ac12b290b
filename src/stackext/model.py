"""Core model for stack layouts (book embeddings) and extension instances.

A stack layout of a graph places all vertices on a line (the spine) and
assigns every edge to one of ``ell`` pages so that edges sharing a page
can be drawn as arcs in a half-plane without crossings.  Two edges on the
same page cross exactly when their endpoints alternate along the spine.

An extension instance is what its file states: a valid layout of a
subgraph ``H`` of a graph ``G`` (its vertices on the spine, its edges on
pages), then the vertices and edges of ``G`` that are new.  The question
is whether the layout can be completed to a valid layout of ``G`` that
keeps every spine position and page choice made for ``H``.  Everything
else (the page count, ``G`` as a graph, the kind of each new edge) is
derived from those three pieces, once, on first use.

Conventions used throughout the package:

* spine ranks are 1-based,
* gaps (candidate insertion intervals) are 1-based: gap ``i`` lies
  between spine positions ``i - 1`` and ``i``, so a spine with ``n``
  vertices has gaps ``1 .. n + 1``,
* pages are 1-based: ``1 .. ell``,
* face depth 0 is the outer face of a page,
* geometry uses doubled positions: the vertex of rank ``r`` sits at
  ``2r`` and gap ``g`` at ``2g - 1``, so one integer line holds both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional


Vertex = str
Edge = tuple[Vertex, Vertex]

# Gap and page indices are plain ints; the aliases document intent.
GapIndex = int
Page = int


class InputError(ValueError):
    """Raised for structurally invalid graphs, layouts or instances."""


def edge(u: Vertex, v: Vertex) -> Edge:
    """Normalized undirected edge: endpoints sorted, self-loops rejected."""
    if u == v:
        raise InputError(f"self-loop at {u!r}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with a fixed, duplicate-free vertex order."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise InputError(f"duplicate vertex {v!r}")
            seen.add(v)
        known = set()
        for u, v in self.edges:
            if u == v:
                raise InputError(f"self-loop at {u!r}")
            e = (u, v) if u < v else (v, u)
            if e in known:
                raise InputError(f"multi-edge {e!r}")
            if u not in seen or v not in seen:
                raise InputError(f"edge {e!r} has an unknown endpoint")
            known.add(e)
        object.__setattr__(self, "edges", tuple(sorted(known)))
        object.__setattr__(self, "_vset", frozenset(seen))
        object.__setattr__(self, "_eset", frozenset(known))

    @property
    def vertex_set(self) -> frozenset[Vertex]:
        return self._vset  # type: ignore[attr-defined]

    @property
    def edge_set(self) -> frozenset[Edge]:
        return self._eset  # type: ignore[attr-defined]


@dataclass(frozen=True)
class SpineOrder:
    """Total order of a vertex set along the spine, with 1-based ranks."""

    order: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        ranks = {}
        for i, v in enumerate(self.order, start=1):
            if v in ranks:
                raise InputError(f"vertex {v!r} appears twice on the spine")
            ranks[v] = i
        object.__setattr__(self, "_rank", MappingProxyType(ranks))

    def rank_of(self, v: Vertex) -> int:
        try:
            return self._rank[v]  # type: ignore[attr-defined]
        except KeyError:
            raise InputError(f"vertex {v!r} is not on the spine") from None

    def __contains__(self, v: Vertex) -> bool:
        return v in self._rank  # type: ignore[attr-defined]

    def __iter__(self):
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class Layout:
    """Spine order plus a page assignment, not necessarily crossing-free.

    ``page_of`` maps every assigned edge to a page in ``1 .. ell``.
    Whether the assignment is actually crossing-free is checked by
    :func:`is_valid`; keeping construction and validation separate lets
    solvers assemble candidate layouts cheaply.  The loop that checks
    each edge's ends on the spine also files its doubled ``(lo, hi)``
    span under its page, in ``page_of`` order; the crossing scans read
    those lists, so construction sorts nothing.
    """

    spine: SpineOrder
    ell: int
    page_of: Mapping[Edge, int]

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise InputError(f"page count must be positive, got {self.ell}")
        rank = self.spine._rank  # type: ignore[attr-defined]
        fixed = {}
        spans: list[list[tuple[int, int]]] = [[] for _ in range(self.ell + 1)]
        for (u, v), p in self.page_of.items():
            if u == v:
                raise InputError(f"self-loop at {u!r}")
            e = (u, v) if u < v else (v, u)
            if e in fixed:
                raise InputError(f"multi-edge {e!r}")
            if not 1 <= p <= self.ell:
                raise InputError(f"page {p} of edge {e!r} outside 1..{self.ell}")
            try:
                a, b = rank[u], rank[v]
            except KeyError:
                raise InputError(f"edge {e!r} has an endpoint off the spine") from None
            fixed[e] = p
            spans[p].append((2 * a, 2 * b) if a < b else (2 * b, 2 * a))
        object.__setattr__(self, "page_of", MappingProxyType(fixed))
        object.__setattr__(self, "_spans", spans)

    @cached_property
    def _scans(self) -> tuple:
        # ``_stack_scan`` of each page's doubled spans, at the page's index
        return (None, *map(_stack_scan, self._spans[1:]))  # type: ignore[attr-defined]

    def edges_on_page(self, p: Page) -> tuple[Edge, ...]:
        if not 1 <= p <= self.ell:
            raise InputError(f"page {p} outside 1..{self.ell}")
        return tuple(sorted(e for e, q in self.page_of.items() if q == p))

    def rank_of(self, v: Vertex) -> int:
        return self.spine.rank_of(v)


def make_layout(
    spine: Iterable[Vertex], ell: int, assignments: Iterable[tuple[Vertex, Vertex, int]]
) -> Layout:
    """Convenience constructor from ``(u, v, page)`` triples; an edge
    given twice, in either direction, is a multi-edge."""
    assignments = tuple(assignments)
    # the dict merges a pair given twice; Layout rejects (u, v) beside (v, u)
    page_of = {(u, v): p for u, v, p in assignments}
    layout = Layout(SpineOrder(tuple(spine)), ell, page_of)
    if len(layout.page_of) != len(assignments):
        raise InputError("multi-edge in the page assignment")
    return layout


# ---------------------------------------------------------------------------
# geometry kernel
#
# Positions are doubled so that gaps fit between vertex ranks as integers:
# the vertex of rank r sits at 2r, gap g sits at 2g - 1.  Every crossing,
# visibility and face question about a layout is answered here, from the
# one ``_stack_scan`` per page that ``Layout`` caches on first use.


def alternates(a, b, c, d) -> bool:
    """Do the spans ``a < b`` and ``c < d`` interleave along the spine?

    Two same-page edges cross exactly when their spans alternate; spans
    sharing an endpoint never do.  Works for any comparable positions.
    """
    return a < c < b < d or c < a < d < b


def _stack_scan(spans):
    """One left-to-right sweep over a page's arcs with a stack of open arcs.

    A page is crossing-free exactly when its arcs nest like balanced
    parentheses (Bernhart & Kainen 1979).  Arcs open in order of ``lo``,
    longer first on ties; an arc that opens under the top of the stack
    but closes beyond it alternates with it, and every alternating pair
    shows up this way.  ``spans`` holds distinct ``(lo, hi)``, ``lo < hi``.

    Returns ``(crossing, arcs)``: ``None`` or the alternating pair of
    spans the sweep stops at, and the arcs opened as ``(lo, hi, depth)``
    in sweep order, ``depth`` the number of arcs containing the arc,
    itself included (the stack height once it has opened).
    """
    stack: list[tuple[int, int, int]] = []
    arcs = []
    for lo, neg_hi in sorted([(lo, -hi) for lo, hi in spans]):
        while stack and stack[-1][1] <= lo:
            stack.pop()
        if stack and stack[-1][1] < -neg_hi:
            return (stack[-1][:2], (lo, -neg_hi)), arcs
        stack.append((lo, -neg_hi, len(stack) + 1))
        arcs.append(stack[-1])
    return None, arcs


def find_crossing(layout: Layout) -> Optional[tuple[Edge, Edge, Page]]:
    """A same-page crossing pair, edges sorted, on the first page with one."""
    for p in range(1, layout.ell + 1):
        crossing = layout._scans[p][0]
        if crossing is not None:
            on_page = [e for e, q in layout.page_of.items() if q == p]
            edge_of = dict(zip(layout._spans[p], on_page))  # type: ignore[attr-defined]
            e1, e2 = sorted(edge_of[span] for span in crossing)
            return e1, e2, p
    return None


def is_valid(graph: Graph, layout: Layout) -> bool:
    """Is ``layout`` a valid stack layout of ``graph``?

    Requires the spine to order exactly the graph's vertices, a page in
    range for every edge, and no same-page crossing.
    """
    if set(layout.spine) != graph.vertex_set or set(layout.page_of) != graph.edge_set:
        return False
    return find_crossing(layout) is None


def extends(layout_g: Layout, layout_h: Layout) -> bool:
    """Does ``layout_g`` preserve every decision made in ``layout_h``?

    True when the smaller spine appears as a subsequence of the larger
    one and every assigned edge keeps its page.
    """
    # neither spine repeats a vertex, so the subsequence test is that the
    # smaller spine's ranks in the larger one increase
    rank = layout_g.spine._rank  # type: ignore[attr-defined]
    try:
        ranks = [rank[v] for v in layout_h.spine.order]
    except KeyError:
        return False
    return ranks == sorted(ranks) and layout_h.page_of.items() <= layout_g.page_of.items()


# ---------------------------------------------------------------------------
# pages as plane subdivisions


def _arcs(layout: Layout) -> tuple:
    # per page, the arcs of the cached scan; a crossing is an input error
    conflict = find_crossing(layout)
    if conflict is not None:
        raise InputError(f"page {conflict[2]} is not crossing-free")
    return tuple(arcs for _, arcs in layout._scans[1:])


def page_width(layout: Layout) -> int:
    """Largest number of same-page edges strictly spanning a single gap.

    This is the largest arc depth of the layout's cached stack scan: the
    edges over a position are those containing the innermost one, and
    the gap just inside an edge's left end lies under every edge
    containing it.  Raises :class:`InputError` on a page with a crossing.
    """
    return max((d for arcs in _arcs(layout) for _, _, d in arcs), default=0)


class FaceLookup:
    """Index of a crossing-free fixed layout: face depths and visibility.

    One table per page holds, for every doubled position ``0 .. 2n + 1``,
    the innermost edge strictly enclosing it as ``(lo, hi, depth)``, with
    ``(0, 2n + 2, 0)`` for the outer face.  A stack walk over the arcs of
    the layout's cached scan fills it run by run, each position once.
    The faces spanning a gap are the outer face and the edges over it, at
    depths ``0 .. deepest``.  Raises :class:`InputError` on a crossing.
    """

    def __init__(self, layout: Layout):
        top = 2 * len(layout.spine) + 1
        self._faces: dict[int, list[tuple[int, int, int]]] = {}
        self._fits: dict[tuple[int, int], frozenset[int]] = {}
        for p, arcs in enumerate(_arcs(layout), start=1):
            faces: list[tuple[int, int, int]] = []
            stack, x = [(0, top + 1, 0)], 0  # x: first position not written
            # a last arc, opening at ``top``, closes the others and ends the table
            for arc in (*arcs, (top, top, 0)):
                while stack[-1][1] <= arc[0]:
                    closed = stack.pop()
                    faces += [closed] * (closed[1] - x)
                    x = closed[1]
                faces += [stack[-1]] * (arc[0] + 1 - x)
                x = arc[0] + 1
                stack.append(arc)
            self._faces[p] = faces

    def depth(self, page: int, x: int) -> int:
        """Number of edges of ``page`` strictly enclosing doubled position ``x``."""
        return self._faces[page][x][2]

    def deepest(self, page: int, gap: int) -> int:
        """Depth of the innermost face of ``page`` spanning ``gap``."""
        return self._faces[page][2 * gap - 1][2]

    def pages_fitting(self, a2: int, b2: int) -> frozenset[int]:
        """Pages on which the span between doubled positions ``a2`` and
        ``b2`` alternates with no fixed edge, memoised.

        On a crossing-free page the edges strictly enclosing a position
        nest, so the span is blocked exactly when the innermost edge
        around one end closes or opens strictly between the two ends.
        """
        if b2 < a2:
            a2, b2 = b2, a2
        fit = self._fits.get((a2, b2))
        if fit is None:
            fit = self._fits[(a2, b2)] = frozenset(
                p
                for p, faces in self._faces.items()
                if faces[a2][1] >= b2 and faces[b2][0] <= a2
            )
        return fit


# ---------------------------------------------------------------------------
# extension instances


class EdgeKinds(NamedTuple):
    """The new edges of an instance by kind, each in canonical edge order.

    ``spans`` holds the edges between two old vertices as
    ``(edge, a2, b2)``, the doubled spine positions of the ends with
    ``a2 < b2``; ``anchors`` maps every new vertex to its edges to old
    vertices as ``(edge, r2)``, ``r2`` the old end's doubled position;
    ``links`` holds the edges between two new vertices.
    """

    spans: tuple[tuple[Edge, int, int], ...]
    anchors: Mapping[Vertex, tuple[tuple[Edge, int], ...]]
    links: tuple[Edge, ...]


@dataclass(frozen=True)
class Instance:
    """An extension instance: a fixed layout and the pieces it lacks.

    ``layout_h`` fixes the subgraph H, so the page count is read from it.
    ``new_vertices`` keeps its order; ``new_edges`` is normalized and
    sorted.  ``Layout`` checks the fixed part; construction checks the
    new pieces against it and that the fixed layout has no crossing, so
    H lies in G by construction.  That check leaves ``vertex_set``, the
    vertices of G, and ``new_edge_set``; G's edges are ``layout_h``'s
    plus those, so answers are checked from the pieces.  Everything else
    (G as a graph, the new edges by kind, the index of the fixed layout)
    is derived on first use, in deterministic order, and cached.
    """

    layout_h: Layout
    new_vertices: tuple[Vertex, ...]
    new_edges: tuple[Edge, ...]
    vertex_set: frozenset[Vertex] = field(init=False, repr=False, compare=False)
    new_edge_set: frozenset[Edge] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lay = self.layout_h
        new_vertices = tuple(self.new_vertices)
        # Graph checks G's vertices and, of its edges, only the new ones
        new = Graph(lay.spine.order + new_vertices, self.new_edges)
        fixed = lay.page_of.keys() & new.edges
        if fixed:
            raise InputError(f"multi-edge {min(fixed)!r}")
        object.__setattr__(self, "new_vertices", new_vertices)
        object.__setattr__(self, "new_edges", new.edges)
        object.__setattr__(self, "vertex_set", new.vertex_set)
        object.__setattr__(self, "new_edge_set", new.edge_set)
        conflict = find_crossing(lay)
        if conflict is not None:
            e1, e2, p = conflict
            raise InputError(f"given layout is invalid: {e1} crosses {e2} on page {p}")

    @property
    def ell(self) -> int:
        return self.layout_h.ell

    @cached_property
    def g(self) -> Graph:
        """The whole graph G, built on first use."""
        lay = self.layout_h
        edges = (*lay.page_of, *self.new_edges)
        return Graph(lay.spine.order + self.new_vertices, edges)

    @cached_property
    def new_old_edges(self) -> tuple[Edge, ...]:
        """New edges whose both endpoints already lie on the spine."""
        return tuple(e for e, _, _ in self.kinds.spans)

    @cached_property
    def incident_old(self) -> tuple[Vertex, ...]:
        """Old vertices touched by a new edge, in spine order."""
        spine = self.layout_h.spine
        inc = {w for e in self.new_edges for w in e if w in spine}
        return tuple(sorted(inc, key=spine.rank_of))

    @property
    def n_add(self) -> int:
        return len(self.new_vertices)

    @property
    def m_add(self) -> int:
        return len(self.new_edges)

    @property
    def kappa(self) -> int:
        return self.n_add + self.m_add

    @property
    def gap_count(self) -> int:
        return len(self.layout_h.spine) + 1

    @cached_property
    def lookup(self) -> FaceLookup:
        """Index of the fixed layout, built on first use."""
        return FaceLookup(self.layout_h)

    @cached_property
    def super_intervals(self) -> tuple[SuperInterval, ...]:
        """The instance's super intervals (see :func:`super_intervals`),
        built on first use."""
        out = []
        lo = 1
        for i, w in enumerate(self.incident_old):
            r = self.layout_h.rank_of(w)
            out.append(SuperInterval(i, lo, r))
            lo = r + 1
        out.append(SuperInterval(len(self.incident_old), lo, self.gap_count))
        return tuple(out)

    @cached_property
    def endpoints(self) -> tuple[tuple[tuple[bool, object], ...], ...]:
        """Both endpoints of every new edge, in ``new_edges`` order, built
        on first use.  Each endpoint is ``(is_new, where)``: an old vertex
        by its doubled spine position, a new vertex by itself."""
        rank = self.layout_h.spine._rank  # type: ignore[attr-defined]
        return tuple(
            tuple((False, 2 * rank[w]) if w in rank else (True, w) for w in e)
            for e in self.new_edges
        )

    @cached_property
    def kinds(self) -> EdgeKinds:
        """The new edges by kind (see :class:`EdgeKinds`), sorted in one
        pass over the endpoint table on first use.  Solvers read an
        edge's kind here instead of deriving it again."""
        spans, links = [], []
        anchors: dict[Vertex, list] = {v: [] for v in self.new_vertices}
        for e, ((u_new, u), (v_new, v)) in zip(self.new_edges, self.endpoints):
            if u_new and v_new:
                links.append(e)
            elif u_new or v_new:
                w, r2 = (u, v) if u_new else (v, u)
                anchors[w].append((e, r2))
            else:
                spans.append((e, min(u, v), max(u, v)))
        frozen = MappingProxyType({v: tuple(es) for v, es in anchors.items()})
        return EdgeKinds(tuple(spans), frozen, tuple(links))

    def is_solution(self, layout: Layout) -> bool:
        """Is ``layout`` a valid stack layout of G extending ``layout_h``,
        with every new edge on a page in ``1 .. ell``?

        G is read from the pieces: the spine must hold ``vertex_set``,
        and ``page_of`` every new edge and nothing beyond the fixed ones,
        which :func:`extends` checks.  Only the pages holding a new edge
        are scanned: fixed edges alone nest on any spine that keeps the
        order of the fixed one.
        """
        page_of = layout.page_of
        if (
            layout.spine._rank.keys() != self.vertex_set  # type: ignore[attr-defined]
            or len(page_of) != len(self.layout_h.page_of) + len(self.new_edges)
            or not page_of.keys() >= self.new_edge_set
            or not extends(layout, self.layout_h)
        ):
            return False
        pages = {page_of[e] for e in self.new_edges}
        if max(pages, default=0) > self.ell:
            return False
        spans = layout._spans  # type: ignore[attr-defined]
        return all(_stack_scan(spans[p])[0] is None for p in pages)


def make_instance(
    ell: int,
    spine: Iterable[Vertex],
    h_edges: Iterable[tuple[Vertex, Vertex, int]],
    new_vertices: Iterable[Vertex] = (),
    new_edges: Iterable[tuple[Vertex, Vertex]] = (),
) -> Instance:
    """Assemble an :class:`Instance` from plain pieces.

    :func:`make_layout` builds and checks the fixed layout, and
    :class:`Instance` checks the new pieces against it; every defect
    raises :class:`InputError`.  Instance files are read through here.
    """
    return Instance(make_layout(spine, ell, h_edges), new_vertices, new_edges)


@dataclass(frozen=True)
class SuperInterval:
    """Maximal run of gaps delimited by consecutive affected old vertices.

    ``gap_lo .. gap_hi`` is the run of gaps, 1-based: it starts just
    right of one affected old vertex (or at the left end of the spine)
    and ends just left of the next (or at the right end).  ``index``
    counts the affected old vertices to the left.
    """

    index: int
    gap_lo: GapIndex
    gap_hi: GapIndex

    def contains_gap(self, g: GapIndex) -> bool:
        return self.gap_lo <= g <= self.gap_hi


def super_intervals(inst: Instance) -> tuple[SuperInterval, ...]:
    """Partition of the gaps with boundaries at the affected old vertices.

    New vertices only ever need to be located up to the super interval
    containing them: moving a new vertex between gaps of the same super
    interval never changes its order relative to any endpoint of a new
    edge, so crossings among new edges stay as they are.  Crossings with
    fixed edges can change, because a fixed edge may end between two
    gaps of one super interval; the face sweep reconciles those.  There are
    ``len(inst.incident_old) + 1`` super intervals, hence at most
    ``2 * m_add + 1``.  Cached on the instance.
    """
    return inst.super_intervals
