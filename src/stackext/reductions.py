"""Hardness constructions producing extension instances.

Two generators turn classic NP-hard problems into extension instances:

* :func:`reduce_3sat` encodes satisfiability of a 3-CNF formula with two
  new vertices, so deciding extendability with ``n_add`` fixed to 2 is
  already NP-hard when the page count may grow.

* :func:`reduce_mcc` encodes multicolored clique, with one new vertex
  per part and one new edge per part pair, so extendability is unlikely
  to drop below XP in the number of new elements.

Both are built around a reusable anchor gadget that pins new "anchor"
vertices between prescribed old vertices and forces their edges onto the
last page.  Certificates returned next to the instances translate
solutions back to witnesses of the source problem and vice versa.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Optional, Sequence

from .cnf import Clause, Formula, evaluate
from .model import (
    Edge,
    InputError,
    Instance,
    Layout,
    SpineOrder,
    Vertex,
    edge,
    make_instance,
)
from .oracle import assemble_spine, enumerate_solutions
from .serialize import _need, canonical, load_json


# ---------------------------------------------------------------------------
# anchor gadget


def _check_gadget_params(f_count: int, ell: int) -> None:
    if f_count < 1:
        raise InputError(f"need at least one anchor, got {f_count}")
    if ell < 2:
        raise InputError(f"the gadget needs at least 2 pages, got {ell}")


def fixation_gadget_size(f_count: int, ell: int, simple: bool = True) -> tuple[int, int]:
    """Vertex and edge counts of the anchor gadget, new elements included.

    With ``simple`` the blocks carry one private vertex pair per page
    below the top one, as :func:`build_fixation_gadget` builds them; the
    compressed form reuses a single pair per block and stacks parallel
    edges instead.  That is not a simple graph, so it only exists as a
    count.
    """
    _check_gadget_params(f_count, ell)
    edges = (ell + 4) * f_count + ell + 2
    if simple:
        return 2 * f_count * ell + 2 * ell - 1, edges
    return 4 * f_count + 3, edges


def _gadget_parts(f_count, ell, bname, vname, aname):
    # spine order and fixed edges of the anchor blocks; names injected so
    # other constructions can embed the gadget under their own labels
    top = ell - 1
    pd = ell
    spine: list[Vertex] = []
    h_edges: list[tuple[Vertex, Vertex, int]] = []
    for i in range(1, f_count + 2):
        for q in range(top, 0, -1):
            spine.append(bname(i, q))
        spine.append(vname(i))
        for q in range(1, top + 1):
            spine.append(aname(i, q))
        for q in range(1, top + 1):
            h_edges.append((bname(i, q), aname(i, q), q))
        h_edges.append((bname(i, top), vname(i), pd))
        h_edges.append((vname(i), aname(i, top), pd))
    for i in range(1, f_count + 1):
        h_edges.append((vname(i), vname(i + 1), pd))
    h_edges.append((bname(1, top), aname(f_count + 1, top), pd))
    return spine, h_edges


def build_fixation_gadget(f_count: int, ell: int) -> Instance:
    """Instance whose every solution interleaves anchors with old vertices.

    The spine holds blocks ``b_i^{ell-1} .. b_i^1, v_i, a_i^1 .. a_i^{ell-1}``
    for ``i = 1 .. f_count + 1``.  Pages ``1 .. ell - 1`` each carry one
    edge per block, nested around ``v_i``; the last page ties every
    ``v_i`` to its block tops, to its successor ``v_{i+1}``, and closes
    the whole row with one long edge.  New anchor vertices ``f_i`` are
    adjacent to ``v_i`` and ``v_{i+1}``; in any solution ``f_i`` ends up
    strictly between the two and both its edges end up on the last page.
    Its size is :func:`fixation_gadget_size` with ``simple`` set.
    """
    _check_gadget_params(f_count, ell)
    spine, h_edges = _gadget_parts(
        f_count,
        ell,
        lambda i, q: f"b{i}p{q}",
        lambda i: f"v{i}",
        lambda i, q: f"a{i}p{q}",
    )
    new_vs = tuple(f"f{i}" for i in range(1, f_count + 1))
    new_es = []
    for i in range(1, f_count + 1):
        new_es.append((f"f{i}", f"v{i}"))
        new_es.append((f"f{i}", f"v{i + 1}"))
    return make_instance(ell, spine, h_edges, new_vs, new_es)


def _insert_after(spine: SpineOrder, pairs) -> SpineOrder:
    # ``spine`` with the new vertex ``v`` of each pair ``(w, v)`` right after ``w``
    return SpineOrder(
        assemble_spine(spine.order, ((spine.rank_of(w) + 1, v) for w, v in pairs))
    )


def fixation_layout(f_count: int, ell: int) -> Layout:
    """The intended solution of :func:`build_fixation_gadget`: each anchor
    sits in the middle gap between its two blocks, edges on the last page."""
    inst = build_fixation_gadget(f_count, ell)
    lay = inst.layout_h
    pages = dict(lay.page_of)
    pages.update((e, ell) for e in inst.new_edges)
    after = ((f"a{i}p{ell - 1}", f"f{i}") for i in range(1, f_count + 1))
    return Layout(_insert_after(lay.spine, after), ell, pages)


# ---------------------------------------------------------------------------
# satisfiability


def _list_of(x: Any, kind: type, size: int = -1) -> bool:
    # a JSON list of ``kind`` items (booleans are no integers), of length
    # ``size`` unless that is -1
    return isinstance(x, list) and size in (-1, len(x)) and all(
        isinstance(i, kind) and not isinstance(i, bool) for i in x
    )


def _cert_field(doc: Any, key: str, item_ok) -> list:
    """List field ``key`` of a certificate document whose items all pass
    ``item_ok``; raises :class:`InputError` otherwise."""
    val = _need(doc, key, list, "certificate")
    if not all(map(item_ok, val)):
        raise InputError(f"certificate.{key} has a malformed entry")
    return val


@dataclass(frozen=True)
class SatCertificate:
    """Links a formula to its reduced instance.

    Knows how to read a truth assignment off a solution layout and how
    to write down the canonical solution for a satisfying assignment.
    """

    n_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))

    @property
    def formula(self) -> Formula:
        return Formula(self.n_vars, self.clauses)

    @property
    def ell(self) -> int:
        return 2 * self.n_vars + 1

    def var_page(self, i: int, value: bool) -> int:
        """Page encoding ``x_i = value``: odd for true, even for false."""
        if not 1 <= i <= self.n_vars:
            raise InputError(f"variable {i} outside 1..{self.n_vars}")
        return 2 * i - 1 if value else 2 * i

    def extract_assignment(self, sol: Layout) -> dict[int, bool]:
        """Truth assignment encoded by the pages of the ``(s, x_i)`` edges."""
        out = {}
        for i in range(1, self.n_vars + 1):
            p = sol.page_of.get(edge("s", f"x{i}"))
            if p == 2 * i - 1:
                out[i] = True
            elif p == 2 * i:
                out[i] = False
            else:
                raise InputError(
                    f"edge (s, x{i}) has page {p}, expected {2 * i - 1} or {2 * i}"
                )
        return out

    def satisfying_layout(self, inst: Instance, assignment: Mapping[int, bool]) -> Layout:
        """The canonical solution for a satisfying assignment.

        ``s`` and ``v`` go into the anchor gaps of the gadget, each
        variable edge onto the page of its truth value, and each clause
        edge onto the page of the negation of a satisfied literal, which
        is exactly the page its blockers leave open.
        """
        n = self.n_vars
        top = 2 * n
        pd = self.ell
        missing = [i for i in range(1, n + 1) if i not in assignment]
        if missing:
            raise InputError(f"assignment misses variables {missing}")
        pages = dict(inst.layout_h.page_of)
        for name in ("gv1", "gv2"):
            pages[edge("s", name)] = pd
        for name in ("gv2", "gv3"):
            pages[edge("v", name)] = pd
        for i in range(1, n + 1):
            pages[edge("s", f"x{i}")] = self.var_page(i, assignment[i])
        for j, clause in enumerate(self.clauses, start=1):
            hit = next(
                (lit for lit in clause if assignment[abs(lit)] == (lit > 0)), None
            )
            if hit is None:
                raise InputError(f"assignment does not satisfy clause {j}")
            pages[edge("v", f"c{j}")] = self.var_page(abs(hit), hit < 0)
        after = ((f"ga1p{top}", "s"), (f"ga2p{top}", "v"))
        return Layout(_insert_after(inst.layout_h.spine, after), self.ell, pages)

    def to_json(self) -> str:
        doc = {"n_vars": self.n_vars, "clauses": [list(c) for c in self.clauses]}
        return canonical(doc)

    @classmethod
    def from_json(cls, text: str) -> "SatCertificate":
        doc = load_json(text)
        clauses = _cert_field(doc, "clauses", lambda c: _list_of(c, int))
        formula = Formula(_need(doc, "n_vars", int, "certificate"), map(tuple, clauses))
        return cls(formula.n_vars, formula.clauses)


def reduce_3sat(formula: Formula) -> tuple[Instance, SatCertificate]:
    """Extension instance extendable iff ``formula`` is satisfiable.

    Pages come in pairs: page ``2i - 1`` stands for setting variable
    ``i`` true, page ``2i`` for false, and one extra page anchors the
    gadget.  Two new vertices ``s`` and ``v`` are pinned by an anchor
    gadget left of a row of variable vertices ``x_i`` and clause
    vertices ``c_j``, separated by groups of blocker vertices.  Blocker
    edges leave exactly the two pages of variable ``i`` open for the
    edge ``(s, x_i)`` and exactly the negations of the literals of
    clause ``j`` open for ``(v, c_j)``.  Since ``(s, x_i)`` and
    ``(v, c_j)`` always interleave, sharing a page is impossible, which
    ties clause pages to satisfied literals.
    """
    n, m = formula.n_vars, len(formula.clauses)
    ell = 2 * n + 1
    pd = ell
    top = ell - 1
    spine, h_edges = _gadget_parts(
        2,
        ell,
        lambda i, q: f"gb{i}p{q}",
        lambda i: f"gv{i}",
        lambda i, q: f"ga{i}p{q}",
    )
    groups = n + m + 1
    for q in range(1, groups + 1):
        spine.extend(f"d{q}p{p}" for p in range(1, top + 1))
        if q <= n:
            spine.append(f"x{q}")
        elif q <= n + m:
            spine.append(f"c{q - n}")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j == i:
                continue
            for pg in (2 * j - 1, 2 * j):
                h_edges.append((f"d{i}p{pg}", f"d{i + 1}p{pg}", pg))
    for j, clause in enumerate(formula.clauses, start=1):
        lit_of = {abs(lit): lit for lit in clause}
        q = n + j
        for i in range(1, n + 1):
            lit = lit_of.get(i)
            if lit is None:
                open_pages: tuple[int, ...] = (2 * i - 1, 2 * i)
            elif lit > 0:
                open_pages = (2 * i - 1,)
            else:
                open_pages = (2 * i,)
            for pg in open_pages:
                h_edges.append((f"d{q}p{pg}", f"d{q + 1}p{pg}", pg))
    h_edges.append(("d1p1", f"d{groups}p{top}", pd))

    new_vs = ("s", "v")
    new_es = [("s", "gv1"), ("s", "gv2"), ("v", "gv2"), ("v", "gv3")]
    new_es += [("s", f"x{i}") for i in range(1, n + 1)]
    new_es += [("v", f"c{j}") for j in range(1, m + 1)]
    inst = make_instance(ell, spine, h_edges, new_vs, new_es)
    return inst, SatCertificate(n, formula.clauses)


# ---------------------------------------------------------------------------
# multicolored clique


@dataclass(frozen=True)
class CliqueInstance:
    """A graph on indexed parts, asking for one vertex per part, pairwise
    adjacent.

    ``part_sizes[a - 1]`` is the size of part ``a``; vertex ``(a, i)``
    is the ``i``-th vertex of part ``a``.  Edges join different parts
    and are stored normalized (lower part first) in input order, which
    downstream fixes the page order of the reduced instance.
    """

    part_sizes: tuple[int, ...]
    edges: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.part_sizes)
        if len(sizes) < 2:
            raise InputError(f"need at least 2 parts, got {len(sizes)}")
        if any(s < 1 for s in sizes):
            raise InputError("every part needs at least one vertex")
        norm = []
        seen = set()
        for it in self.edges:
            (a, i), (b, j) = it
            if a == b:
                raise InputError(f"edge inside part {a}")
            if a > b:
                a, i, b, j = b, j, a, i
            for part, idx in ((a, i), (b, j)):
                if not 1 <= part <= len(sizes):
                    raise InputError(f"part {part} outside 1..{len(sizes)}")
                if not 1 <= idx <= sizes[part - 1]:
                    raise InputError(
                        f"vertex ({part}, {idx}) outside part of size {sizes[part - 1]}"
                    )
            e = ((a, i), (b, j))
            if e in seen:
                raise InputError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        if not norm:
            raise InputError("need at least one edge")
        object.__setattr__(self, "part_sizes", sizes)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "_eset", frozenset(norm))

    @property
    def k(self) -> int:
        return len(self.part_sizes)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        if a[0] > b[0]:
            a, b = b, a
        return (a, b) in self._eset  # type: ignore[attr-defined]

    def colorful_cliques(self) -> Iterator[tuple[int, ...]]:
        """All ways to pick one vertex index per part, pairwise adjacent."""
        ranges = [range(1, s + 1) for s in self.part_sizes]
        for pick in itertools.product(*ranges):
            if all(
                self.has_edge((a, pick[a - 1]), (b, pick[b - 1]))
                for a, b in itertools.combinations(range(1, self.k + 1), 2)
            ):
                yield pick

    def has_colorful_clique(self) -> bool:
        return next(self.colorful_cliques(), None) is not None


@dataclass(frozen=True)
class CliqueCertificate:
    """Links a part-indexed graph to its reduced instance.

    ``dropped`` records edges of the construction that were skipped
    because the same vertex pair had already been used on an earlier
    page; only corridor edges between selection slots can collide this
    way, and each such pair keeps its first page.  ``labels`` optionally
    names the source vertices, one row per part; empty means unlabeled.
    """

    part_sizes: tuple[int, ...]
    edges: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    dropped: tuple[tuple[Vertex, Vertex, int, int], ...]
    labels: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "edges",
            tuple((tuple(a), tuple(b)) for a, b in self.edges),
        )
        object.__setattr__(
            self, "dropped", tuple(tuple(d) for d in self.dropped)
        )
        labels = tuple(tuple(row) for row in self.labels)
        if labels:
            if len(labels) != len(self.part_sizes) or any(
                len(row) != s for row, s in zip(labels, self.part_sizes)
            ):
                raise InputError("labels do not match the part sizes")
            flat = [name for row in labels for name in row]
            if len(set(flat)) != len(flat):
                raise InputError("duplicate vertex label")
        object.__setattr__(self, "labels", labels)

    def label_of(self, a: int, i: int) -> str:
        if self.labels:
            return self.labels[a - 1][i - 1]
        return f"v{a}_{i}"

    @property
    def k(self) -> int:
        return len(self.part_sizes)

    @property
    def ell(self) -> int:
        return len(self.edges) + 1

    def extract_selection(self, sol: Layout) -> tuple[int, ...]:
        """Vertex index per part read off the anchor positions.

        Anchor ``x_a`` must sit between ``u_a^i`` and ``u_a^{i+1}`` for
        some selectable ``i``; anything else is rejected.
        """
        out = []
        for a in range(1, self.k + 1):
            rx = sol.rank_of(f"x{a}")
            n_a = self.part_sizes[a - 1]
            below = [
                s
                for s in range(0, n_a + 2)
                if sol.rank_of(f"u{a}j{s}") < rx
            ]
            i = max(below, default=-1)
            if not 1 <= i <= n_a:
                raise InputError(
                    f"anchor x{a} sits outside the selection slots of part {a}"
                )
            out.append(i)
        return tuple(out)

    def extract_vertices(self, sol: Layout) -> tuple[str, ...]:
        """Source vertex names selected by a solution, one per part."""
        return tuple(
            self.label_of(a, i)
            for a, i in enumerate(self.extract_selection(sol), start=1)
        )

    def selection_layout(self, inst: Instance, selection: Sequence[int]) -> Layout:
        """The canonical solution choosing vertex ``selection[a-1]`` in
        each part; the selected vertices must be pairwise adjacent."""
        selection = tuple(selection)
        if len(selection) != self.k:
            raise InputError(f"need {self.k} indices, got {len(selection)}")
        for a, i in enumerate(selection, start=1):
            if not 1 <= i <= self.part_sizes[a - 1]:
                raise InputError(f"index {i} outside part {a}")
        page_of_pair = {e: t for t, e in enumerate(self.edges, start=1)}
        pd = self.ell
        pages = dict(inst.layout_h.page_of)
        for a in range(1, self.k + 1):
            pages[edge(f"x{a}", f"u{a}j0")] = pd
            pages[edge(f"x{a}", f"u{a + 1}j0")] = pd
        for a, b in itertools.combinations(range(1, self.k + 1), 2):
            key = ((a, selection[a - 1]), (b, selection[b - 1]))
            t = page_of_pair.get(key)
            if t is None:
                raise InputError(f"selected vertices {key} are not adjacent")
            pages[edge(f"x{a}", f"x{b}")] = t
        after = ((f"u{a}j{i}", f"x{a}") for a, i in enumerate(selection, start=1))
        return Layout(_insert_after(inst.layout_h.spine, after), self.ell, pages)

    def to_json(self) -> str:
        doc = {
            "part_sizes": list(self.part_sizes),
            "edges": [[list(a), list(b)] for a, b in self.edges],
            "dropped": [list(d) for d in self.dropped],
            "labels": [list(row) for row in self.labels],
        }
        return canonical(doc)

    @classmethod
    def from_json(cls, text: str) -> "CliqueCertificate":
        doc = load_json(text)

        def edge_ok(e) -> bool:  # [[part, index], [part, index]]
            return _list_of(e, list, 2) and all(_list_of(v, int, 2) for v in e)

        def dropped_ok(d) -> bool:  # [u, v, skipped page, kept page]
            return _list_of(d, object, 4) and _list_of(d[:2], str) and _list_of(d[2:], int)

        sizes = _cert_field(doc, "part_sizes", lambda s: _list_of([s], int))
        gc = CliqueInstance(tuple(sizes), _cert_field(doc, "edges", edge_ok))
        dropped = _cert_field(doc, "dropped", dropped_ok)
        labels = []
        if "labels" in doc:
            labels = _cert_field(doc, "labels", lambda row: _list_of(row, str))
        return cls(
            gc.part_sizes, gc.edges, tuple(map(tuple, dropped)), tuple(map(tuple, labels))
        )


def reduce_mcc(
    gc: CliqueInstance, labels: Sequence[Sequence[str]] = ()
) -> tuple[Instance, CliqueCertificate]:
    """Extension instance extendable iff ``gc`` has a colorful clique.

    One page per input edge, in input order, plus a last page anchoring
    the gadget, built by the same block code as :func:`reduce_3sat` with
    ``u_a^0`` as the marks.  Part ``a`` contributes selection vertices
    ``u_a^0 .. u_a^{n_a + 1}``; anchor ``x_a`` must end up in a gap
    ``(u_a^i, u_a^{i+1})``, which selects vertex ``(a, i)``.  The page
    of input edge ``e = ((a, i), (b, j))`` is walled off so that the new
    edge ``(x_a, x_b)`` fits there exactly when ``x_a`` selects ``i``
    and ``x_b`` selects ``j``; corridor edges between the two slots keep
    every other page blocked.  Edge counts: ``kappa`` is
    ``3k + k(k-1)/2`` for ``k`` parts, and every page has width at most
    three.
    """
    k, m = gc.k, gc.m
    pd = m + 1
    sizes = gc.part_sizes

    def size_of(a: int) -> int:
        return sizes[a - 1] if a <= k else 0

    blocks, h_edges = _gadget_parts(
        k,
        pd,
        lambda a, t: f"b{a}e{t}",
        lambda a: f"u{a}j0",
        lambda a, t: f"a{a}e{t}",
    )
    # the selection slots of part ``a`` follow its block of 2m + 1 vertices
    spine: list[Vertex] = ["u0j0"]
    for a in range(1, k + 2):
        spine += blocks[(a - 1) * (2 * m + 1) : a * (2 * m + 1)]
        spine.extend(f"u{a}j{s}" for s in range(1, size_of(a) + 2))

    seen_pairs: dict[Edge, int] = {}
    dropped: list[tuple[Vertex, Vertex, int, int]] = []

    def emit(u: Vertex, v: Vertex, pg: int) -> None:
        e = edge(u, v)
        prev = seen_pairs.get(e)
        if prev is None:
            seen_pairs[e] = pg
            h_edges.append((u, v, pg))
        elif prev != pg:
            dropped.append((e[0], e[1], pg, prev))

    for t, ((pa, i), (pb, j)) in enumerate(gc.edges, start=1):
        for c in range(1, k + 1):
            if c in (pa, pb):
                continue
            emit(f"a{c}e{t}", f"b{c + 1}e{t}", t)
        emit(f"a{pa}e{t}", f"u{pa}j{i}", t)
        emit(f"u{pa}j{i + 1}", f"b{pa + 1}e{t}", t)
        emit(f"a{pb}e{t}", f"u{pb}j{j}", t)
        emit(f"u{pb}j{j + 1}", f"b{pb + 1}e{t}", t)
        emit(f"u{pa}j{i}", f"u{pb}j{j + 1}", t)
        emit(f"u{pa}j{i + 1}", f"u{pb}j{j}", t)

    new_vs = tuple(f"x{a}" for a in range(1, k + 1))
    new_es = []
    for a in range(1, k + 1):
        new_es.append((f"x{a}", f"u{a}j0"))
        new_es.append((f"x{a}", f"u{a + 1}j0"))
    for a, b in itertools.combinations(range(1, k + 1), 2):
        new_es.append((f"x{a}", f"x{b}"))

    inst = make_instance(pd, spine, h_edges, new_vs, new_es)
    cert = CliqueCertificate(
        sizes, gc.edges, tuple(dropped), tuple(tuple(row) for row in labels)
    )
    return inst, cert


def parse_clique_input(text: str) -> tuple[CliqueInstance, tuple[tuple[str, ...], ...]]:
    """Read a colored graph, as ``{"vertices": [{"name", "color"}...],
    "edges": [[name, name]...]}``, into a part-indexed instance.

    Colors must be exactly ``1 .. k``; a vertex's index within its part
    is its position among same-colored vertices, in file order.  Returns
    the instance together with the per-part name table.
    """
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise InputError("clique input must be an object")
    verts = doc.get("vertices")
    edges_in = doc.get("edges")
    if not isinstance(verts, list) or not isinstance(edges_in, list):
        raise InputError("clique input needs 'vertices' and 'edges' lists")
    where: dict[str, tuple[int, int]] = {}
    by_color: dict[int, list[str]] = {}
    for item in verts:
        if not isinstance(item, dict) or "name" not in item or "color" not in item:
            raise InputError("each vertex needs 'name' and 'color'")
        name, color = item["name"], item["color"]
        if not isinstance(name, str) or isinstance(color, bool) or not isinstance(color, int):
            raise InputError(f"bad vertex entry {item!r}")
        if name in where:
            raise InputError(f"duplicate vertex {name!r}")
        by_color.setdefault(color, []).append(name)
        where[name] = (color, len(by_color[color]))
    if not by_color:
        raise InputError("no vertices")
    k = max(by_color)
    if sorted(by_color) != list(range(1, k + 1)):
        missing = sorted(set(range(1, k + 1)) - set(by_color))
        raise InputError(f"colors must cover 1..{k}; missing {missing}")
    part_sizes = tuple(len(by_color[a]) for a in range(1, k + 1))
    pairs = []
    for item in edges_in:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise InputError(f"bad edge entry {item!r}")
        u, v = item
        if u not in where or v not in where:
            raise InputError(f"edge ({u!r}, {v!r}) has an unknown endpoint")
        pairs.append((where[u], where[v]))
    labels = tuple(tuple(by_color[a]) for a in range(1, k + 1))
    return CliqueInstance(part_sizes, tuple(pairs)), labels


# ---------------------------------------------------------------------------
# behavior checks


@dataclass(frozen=True)
class GadgetCertificate:
    """Marks an instance as a bare anchor gadget for the lemma checker."""

    f_count: int
    ell: int


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of checking forced-behavior claims over all solutions.

    Each clause holds universally over the enumerated solutions or is
    reported false; zero solutions make every clause pass vacuously.
    """

    solutions: int
    results: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.results)


def check_reduction_lemmas(
    inst: Instance,
    cert,
    cap: Optional[int] = None,
) -> LemmaReport:
    """Enumerate all solutions and test the forced-behavior claims.

    For the anchor gadget: anchors sit strictly between their marks and
    their edges use the last page.  For the formula reduction: the same,
    plus the last page carries no other new edge, variable edges use one
    of their two variable pages, and the read-off assignment satisfies
    the formula.  For the clique reduction: anchors select a slot, their
    edges use the last page, and each anchor-pair edge sits on the page
    of the input edge joining exactly the selected slots.
    """
    if isinstance(cert, GadgetCertificate):
        clauses = ["anchors-between-marks", "anchor-edges-on-last-page"]
    elif isinstance(cert, SatCertificate):
        clauses = [
            "anchors-between-marks",
            "anchor-edges-on-last-page",
            "last-page-exclusive",
            "variable-pages",
            "assignment-satisfies",
        ]
    elif isinstance(cert, CliqueCertificate):
        clauses = [
            "anchors-between-marks",
            "anchors-in-slots",
            "anchor-edges-on-last-page",
            "clique-edges-match-slots",
        ]
    else:
        raise InputError(f"unsupported certificate {type(cert).__name__}")
    holds = {name: True for name in clauses}
    count = 0
    for sol in enumerate_solutions(inst, cap):
        count += 1
        if isinstance(cert, GadgetCertificate):
            _check_gadget_solution(cert, sol, holds)
        elif isinstance(cert, SatCertificate):
            _check_sat_solution(cert, sol, holds)
        else:
            _check_mcc_solution(cert, sol, holds)
    return LemmaReport(count, tuple((name, holds[name]) for name in clauses))


def _check_gadget_solution(cert: GadgetCertificate, sol: Layout, holds) -> None:
    pd = cert.ell
    for i in range(1, cert.f_count + 1):
        if not (
            sol.rank_of(f"v{i}") < sol.rank_of(f"f{i}") < sol.rank_of(f"v{i + 1}")
        ):
            holds["anchors-between-marks"] = False
        for mark in (f"v{i}", f"v{i + 1}"):
            if sol.page_of.get(edge(f"f{i}", mark)) != pd:
                holds["anchor-edges-on-last-page"] = False


def _check_sat_solution(cert: SatCertificate, sol: Layout, holds) -> None:
    pd = cert.ell
    marks = ["gv1", "s", "gv2", "v", "gv3"]
    ranks = [sol.rank_of(w) for w in marks]
    if ranks != sorted(ranks) or len(set(ranks)) != len(ranks):
        holds["anchors-between-marks"] = False
    anchor_edges = {
        edge("s", "gv1"),
        edge("s", "gv2"),
        edge("v", "gv2"),
        edge("v", "gv3"),
    }
    for e in anchor_edges:
        if sol.page_of.get(e) != pd:
            holds["anchor-edges-on-last-page"] = False
    for i in range(1, cert.n_vars + 1):
        p = sol.page_of.get(edge("s", f"x{i}"))
        if p not in (2 * i - 1, 2 * i):
            holds["variable-pages"] = False
        if p == pd:
            holds["last-page-exclusive"] = False
    for j in range(1, len(cert.clauses) + 1):
        if sol.page_of.get(edge("v", f"c{j}")) == pd:
            holds["last-page-exclusive"] = False
    if holds["variable-pages"]:
        try:
            gamma = cert.extract_assignment(sol)
        except InputError:
            holds["assignment-satisfies"] = False
        else:
            if not evaluate(cert.formula, gamma):
                holds["assignment-satisfies"] = False


def _check_mcc_solution(cert: CliqueCertificate, sol: Layout, holds) -> None:
    pd = cert.ell
    k = cert.k
    for a in range(1, k + 1):
        rx = sol.rank_of(f"x{a}")
        if not sol.rank_of(f"u{a}j0") < rx < sol.rank_of(f"u{a + 1}j0"):
            holds["anchors-between-marks"] = False
        for mark in (f"u{a}j0", f"u{a + 1}j0"):
            if sol.page_of.get(edge(f"x{a}", mark)) != pd:
                holds["anchor-edges-on-last-page"] = False
    try:
        picks = cert.extract_selection(sol)
    except InputError:
        holds["anchors-in-slots"] = False
        holds["clique-edges-match-slots"] = False
        return
    for a, b in itertools.combinations(range(1, k + 1), 2):
        t = sol.page_of.get(edge(f"x{a}", f"x{b}"))
        if t is None or not 1 <= t <= len(cert.edges):
            holds["clique-edges-match-slots"] = False
            continue
        if cert.edges[t - 1] != ((a, picks[a - 1]), (b, picks[b - 1])):
            holds["clique-edges-match-slots"] = False
