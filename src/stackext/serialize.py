"""JSON forms for instances and solutions, and a solution checker.

Instance files look like::

    { "ell": 2,
      "H": { "spine": ["a", "b"], "edges": [{"u": "a", "v": "b", "page": 1}] },
      "new_vertices": ["c"],
      "new_edges": [{"u": "a", "v": "c"}] }

Solution files carry the full spine and a page per edge of ``G``::

    { "spine": ["a", "c", "b"],
      "pages": [{"u": "a", "v": "b", "page": 1}, {"u": "a", "v": "c", "page": 2}] }

Emission is canonical: object keys sorted, two-space indent, trailing
newline, fixed edges ordered by (lower endpoint rank, higher endpoint
rank, page).  :func:`emit_instance` and :func:`emit_solution` write
that text straight from the model, one ``%`` template per edge row;
it equals :func:`canonical` of the file's document.  Parsing then
emitting a canonical file reproduces it byte for byte.

:func:`verify_solution` checks a candidate solution against an instance
and reports every problem as a :class:`Violation` with a stable code
instead of raising, so defective files can be diagnosed in one pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Union

from .model import (
    InputError,
    Instance,
    Layout,
    Vertex,
    edge,
    make_instance,
    make_layout,
)


def canonical(doc: Any) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` and a newline.

    Instance and solution files equal ``canonical`` of their document,
    but :func:`emit_instance` and :func:`emit_solution` write them
    straight from the model, which is several times faster than the
    pure-Python encoder behind the indented ``json`` call.
    """
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _names(names: tuple[Vertex, ...], pad: str) -> str:
    # a list of names whose key sits at indentation ``pad``, each quoted
    # by the C string encoder that ``json`` itself uses
    if not names:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(map(_quote, names)) + "\n" + pad + "]"


# edge rows as the indented ``json.dumps`` writes them: fixed edges sit
# one level deeper (under "H") than solution pages and new edges
_FIXED_ROW = '      {\n        "page": %d,\n        "u": %s,\n        "v": %s\n      }'
_SOLUTION_ROW = '    {\n      "page": %d,\n      "u": %s,\n      "v": %s\n    }'
_NEW_ROW = '    {\n      "u": %s,\n      "v": %s\n    }'


def _rows(rows: list[str], pad: str) -> str:
    # filled-in rows of a list whose key sits at ``pad``
    if not rows:
        return "[]"
    return "[\n" + ",\n".join(rows) + "\n" + pad + "]"


def load_json(text: str) -> Any:
    """Decode JSON text; malformed or too deeply nested text (and numbers
    too long to convert) raise :class:`InputError`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"not valid JSON: {exc}") from None


def _need(doc: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(doc, dict):
        raise InputError(f"{where} must be an object")
    return _field(doc, key, kind, where)


def _field(doc: dict, key: str, kind: type, where: str) -> Any:
    if key not in doc:
        raise InputError(f"{where} lacks {key!r}")
    val = doc[key]
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise InputError(f"{where}.{key} must be an integer")
    elif not isinstance(val, kind):
        raise InputError(f"{where}.{key} must be a {kind.__name__}")
    return val


def _name_list(val: Any, where: str) -> tuple[str, ...]:
    if not isinstance(val, list) or not all(isinstance(v, str) for v in val):
        raise InputError(f"{where} must be a list of strings")
    return tuple(val)


def _edge_docs(layout: Layout) -> list[tuple[Vertex, Vertex, int]]:
    # every edge as (u, v, page), left end first, sorted by the spine
    # positions of its ends, then by page
    rank = layout.spine._rank  # type: ignore[attr-defined]
    rows = []
    for (u, v), p in layout.page_of.items():
        a, b = rank[u], rank[v]
        rows.append((a, b, p, u, v) if a < b else (b, a, p, v, u))
    rows.sort()
    return [(u, v, p) for _, _, p, u, v in rows]


def _edge_obj(item: Any, where: str, with_page: bool):
    if type(item) is dict:
        u, v = item.get("u"), item.get("v")
        if type(u) is str and type(v) is str:
            if not with_page:
                return u, v
            page = item.get("page")
            if type(page) is int:
                return u, v, page
    # a row that is not plain JSON of the right types: word the error
    if not isinstance(item, dict):
        raise InputError(f"{where} must be an object")
    u, v = _field(item, "u", str, where), _field(item, "v", str, where)
    return (u, v, _field(item, "page", int, where)) if with_page else (u, v)


# ---------------------------------------------------------------------------
# instances


def instance_from_doc(doc: Any) -> Instance:
    ell = _need(doc, "ell", int, "instance")
    h = _need(doc, "H", dict, "instance")
    spine = _name_list(_need(h, "spine", list, "instance.H"), "instance.H.spine")
    raw_edges = _need(h, "edges", list, "instance.H")
    h_edges = [_edge_obj(it, "instance.H.edges[]", True) for it in raw_edges]
    new_vs = _name_list(
        _need(doc, "new_vertices", list, "instance"), "instance.new_vertices"
    )
    raw_new = _need(doc, "new_edges", list, "instance")
    new_es = [_edge_obj(it, "instance.new_edges[]", False) for it in raw_new]
    return make_instance(ell, spine, h_edges, new_vs, new_es)


def emit_instance(inst: Instance) -> str:
    lay = inst.layout_h
    fixed = [_FIXED_ROW % (p, _quote(u), _quote(v)) for u, v, p in _edge_docs(lay)]
    new = [_NEW_ROW % (_quote(u), _quote(v)) for u, v in inst.new_edges]
    return (
        '{\n  "H": {\n    "edges": ' + _rows(fixed, "    ")
        + ',\n    "spine": ' + _names(lay.spine.order, "    ")
        + '\n  },\n  "ell": %d' % inst.ell
        + ',\n  "new_edges": ' + _rows(new, "  ")
        + ',\n  "new_vertices": ' + _names(inst.new_vertices, "  ") + "\n}\n"
    )


def parse_instance(text: str) -> Instance:
    return instance_from_doc(load_json(text))


# ---------------------------------------------------------------------------
# solutions


@dataclass(frozen=True)
class RawSolution:
    """A solution file as written: not yet checked against any instance."""

    spine: tuple[Vertex, ...]
    pages: tuple[tuple[Vertex, Vertex, int], ...]


def solution_from_doc(doc: Any) -> RawSolution:
    spine = _name_list(_need(doc, "spine", list, "solution"), "solution.spine")
    raw = _need(doc, "pages", list, "solution")
    pages = tuple(_edge_obj(it, "solution.pages[]", True) for it in raw)
    return RawSolution(spine, pages)


def emit_solution(layout: Layout) -> str:
    pages = [
        _SOLUTION_ROW % (p, _quote(u), _quote(v)) for u, v, p in _edge_docs(layout)
    ]
    return (
        '{\n  "pages": ' + _rows(pages, "  ")
        + ',\n  "spine": ' + _names(layout.spine.order, "  ") + "\n}\n"
    )


def parse_solution(text: str) -> RawSolution:
    return solution_from_doc(load_json(text))


def as_layout(sol: RawSolution, ell: int) -> Layout:
    """Strict :class:`Layout` from a raw solution; raises on defects."""
    return make_layout(sol.spine, ell, sol.pages)


# ---------------------------------------------------------------------------
# checking


@dataclass(frozen=True)
class Violation:
    """One defect of a candidate solution.

    Codes: ``unknown-vertex``, ``missing-vertex``, ``duplicate-vertex``,
    ``unknown-edge``, ``duplicate-edge``, ``missing-edge-page``,
    ``page-out-of-range``, ``spine-order-changed``,
    ``old-edge-page-changed``, ``crossing``.
    """

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


def _nested(spans) -> bool:
    """Do the ``(lo, hi)`` spans of one page nest, no two alternating?

    One stack pass over the spans sorted by left end, longest first.
    Arcs that close at or before the new left end are popped, since
    spans sharing an endpoint never cross; the page has a crossing
    exactly when the arc left on top closes strictly inside the new
    span.  It is kept apart from the scan in ``model``, so that a bug in
    the kernel cannot hide behind the checker.
    """
    stack: list[int] = []
    for lo, neg_hi in sorted((a, -b) for a, b in spans):
        while stack and stack[-1] <= lo:
            stack.pop()
        if stack and stack[-1] < -neg_hi:
            return False
        stack.append(-neg_hi)
    return True


def verify_solution(
    inst: Instance, sol: Union[RawSolution, Layout]
) -> tuple[Violation, ...]:
    """Every reason ``sol`` is not a solution of ``inst``, empty if valid.

    Checks are layered: naming problems first, then page assignments,
    then fidelity to the fixed layout, then crossings.  Later layers
    skip whatever earlier layers flagged, so each defect is reported
    once, under its most specific code.  G is read from the instance's
    pieces: its vertices are ``inst.vertex_set`` and its edges those of
    ``inst.layout_h`` and ``inst.new_edge_set``.

    Each layer first tests whether it holds as a whole, with dict and
    set operations; only a layer that fails runs the loop that words
    its violations, in a fixed order.  A :class:`Layout` is read as rows
    sorted by edge only on that path.

    Crossings cost O(m log m) on a valid solution: each page is proved
    crossing-free by its own stack scan, and only the pages that have a
    crossing have their edges compared pairwise, to list every pair.
    The scan is this module's own, not the model's.
    """
    known, new_set, ell = inst.layout_h.page_of, inst.new_edge_set, inst.ell
    out: list[Violation] = []

    spine = sol.spine.order if isinstance(sol, Layout) else sol.spine
    rank = dict(zip(spine, range(1, len(spine) + 1)))
    vertices_ok = len(rank) == len(spine) and rank.keys() == inst.vertex_set
    if not vertices_ok:
        rank = {}
        for i, v in enumerate(spine, start=1):
            if v not in inst.vertex_set:
                out.append(Violation("unknown-vertex", f"{v!r} is not a vertex"))
            if v in rank:
                out.append(Violation("duplicate-vertex", f"{v!r} appears twice"))
            else:
                rank[v] = i
        for v in inst.layout_h.spine.order + inst.new_vertices:
            if v not in rank:
                out.append(Violation("missing-vertex", f"{v!r} not on the spine"))

    if isinstance(sol, Layout):
        assigned, rows = sol.page_of, len(sol.page_of)
    else:
        assigned = {(u, v) if u < v else (v, u): p for u, v, p in sol.pages}
        rows = len(sol.pages)
    fixed_kept = known.items() <= assigned.items()
    edges_ok = (
        fixed_kept
        and rows == len(assigned) == len(known) + len(new_set)
        and assigned.keys() >= new_set
        and 1 <= min(assigned.values(), default=1)
        and max(assigned.values(), default=1) <= ell
    )
    if not edges_ok:
        if isinstance(sol, Layout):
            pages = tuple((u, v, p) for (u, v), p in sorted(sol.page_of.items()))
        else:
            pages = sol.pages
        assigned = {}
        for u, v, p in pages:
            if u == v:
                out.append(Violation("unknown-edge", f"self-loop at {u!r}"))
                continue
            e = edge(u, v)
            if e in assigned:
                out.append(Violation("duplicate-edge", f"{e} assigned twice"))
                continue
            assigned[e] = p
            if e not in known and e not in new_set:
                out.append(Violation("unknown-edge", f"{e} is not an edge"))
            if not 1 <= p <= ell:
                out.append(
                    Violation("page-out-of-range", f"{e} on page {p}, have 1..{ell}")
                )
        missing = [e for e in (*known, *new_set) if e not in assigned]
        for e in sorted(missing):
            out.append(Violation("missing-edge-page", f"{e} has no page"))
        fixed_kept = known.items() <= assigned.items()

    old = inst.layout_h.spine.order
    spine_kept = False
    if vertices_ok:
        ranks = [rank[v] for v in old]
        spine_kept = ranks == sorted(ranks)
    if not spine_kept:
        it = iter(spine)
        for v in old:
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
    if not fixed_kept:
        for e, p in known.items():
            q = assigned.get(e)
            if q is not None and q != p:
                out.append(
                    Violation(
                        "old-edge-page-changed", f"{e} moved from page {p} to {q}"
                    )
                )

    placeable = assigned.items()
    if not (vertices_ok and edges_ok):
        placeable = [
            (e, p)
            for e, p in placeable
            if (e in known or e in new_set)
            and 1 <= p <= ell
            and e[0] in rank
            and e[1] in rank
        ]
    spans: list[list[tuple[int, int]]] = [[] for _ in range(ell + 1)]
    for (u, v), p in placeable:
        a, b = rank[u], rank[v]
        spans[p].append((a, b) if a < b else (b, a))
    flagged = {p for p in range(1, ell + 1) if not _nested(spans[p])}
    if not flagged:
        return tuple(out)
    placeable = sorted((e, p) for e, p in placeable if p in flagged)
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
