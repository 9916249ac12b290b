"""Seeded instance families for the benchmark, with answers known
without asking the program.

Every family returns plain pieces (page count, fixed spine, fixed edges
with pages, new vertices, new edges) plus the expected verdict and the
evidence for it:

* planted yes-instances carry the full layout they were cut from, and
  that layout is re-checked here with this module's own crossing test;
* blocked-edge no-instances carry a new edge between old vertices that
  crosses a fixed edge on every page;
* blocked-gap no-instances carry a new vertex with no gap that sees all
  of its old neighbours;
* 3-CNF reductions are labelled by brute force over all assignments.

Nothing in this module imports the program.  ``worker.py build`` turns
the pieces into instances through the program's public constructors.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Optional

# ---------------------------------------------------------------------------
# geometry, written independently of the program


def alternate(a: int, b: int, c: int, d: int) -> bool:
    """Do spans ``a < b`` and ``c < d`` interleave along the spine?"""
    return a < c < b < d or c < a < d < b


def span(rank: dict, u: str, v: str) -> tuple[int, int]:
    a, b = rank[u], rank[v]
    return (a, b) if a < b else (b, a)


def page_crossing_free(spans: list[tuple[int, int]]) -> bool:
    """Stack scan: arcs on one page must nest like parentheses.

    Arcs sharing an endpoint never cross, so arcs are sorted by left end
    ascending and right end descending, and an open arc only conflicts
    with a later arc that starts strictly inside it and ends strictly
    outside it.
    """
    stack: list[int] = []
    for a, b in sorted(spans, key=lambda s: (s[0], -s[1])):
        while stack and stack[-1] <= a:
            stack.pop()
        if stack and stack[-1] < b:
            return False
        stack.append(b)
    return True


def layout_problems(case: "Case", spine: list, pages: list) -> list[str]:
    """Why ``(spine, pages)`` is not a solution of ``case``; empty if it is.

    ``pages`` holds ``(u, v, page)`` triples.  Checks that the spine
    orders exactly the vertices of G and keeps the fixed order, that
    every edge of G gets exactly one page in range, that fixed edges keep
    their pages, and that no page has a crossing.
    """
    out = []
    vertices = set(case.spine) | set(case.new_vertices)
    if len(spine) != len(set(spine)) or set(spine) != vertices:
        return ["spine does not order exactly the vertices of G"]
    rank = {v: i for i, v in enumerate(spine)}
    fixed_order = [v for v in spine if v not in set(case.new_vertices)]
    if fixed_order != list(case.spine):
        out.append("fixed spine order changed")
    wanted = {frozenset((u, v)): p for u, v, p in case.h_edges}
    for u, v in case.new_edges:
        wanted[frozenset((u, v))] = None
    got: dict = {}
    for u, v, p in pages:
        key = frozenset((u, v))
        if key in got:
            out.append(f"edge {u}-{v} assigned twice")
        got[key] = p
    if set(got) != set(wanted):
        out.append("assigned edges differ from the edges of G")
        return out
    by_page: dict[int, list] = {}
    for key, p in got.items():
        if not isinstance(p, int) or not 1 <= p <= case.ell:
            out.append(f"page {p} out of range")
            continue
        if wanted[key] is not None and wanted[key] != p:
            out.append("a fixed edge changed its page")
        u, v = tuple(key)
        by_page.setdefault(p, []).append(span(rank, u, v))
    for p, spans in by_page.items():
        if not page_crossing_free(spans):
            out.append(f"crossing on page {p}")
    return out


def gap_sees(spans: list[tuple[int, int]], gap2: int, r2: int) -> bool:
    """Doubled coordinates: does the gap at ``gap2`` see the vertex at
    ``r2`` past every arc in ``spans`` (also doubled)?"""
    a, b = (gap2, r2) if gap2 < r2 else (r2, gap2)
    return not any(alternate(x, y, a, b) for x, y in spans)


def blocked_new_vertex(case: "Case", v: str) -> bool:
    """True when no gap of the fixed spine sees every old neighbour of the
    new vertex ``v`` on some page, so ``v`` has nowhere to go."""
    rank = {w: i for i, w in enumerate(case.spine, start=1)}
    nbrs = [
        u if w == v else w
        for u, w in case.new_edges
        if v in (u, w) and (u if w == v else w) in rank
    ]
    pages: dict[int, list] = {p: [] for p in range(1, case.ell + 1)}
    for u, w, p in case.h_edges:
        a, b = span(rank, u, w)
        pages[p].append((2 * a, 2 * b))
    for g in range(1, len(case.spine) + 2):
        if all(
            any(gap_sees(pages[p], 2 * g - 1, 2 * rank[u]) for p in pages)
            for u in nbrs
        ):
            return False
    return True


def blocked_old_edge(case: "Case") -> Optional[tuple[str, str]]:
    """A new edge between old vertices that crosses a fixed edge on every
    page, if there is one."""
    rank = {w: i for i, w in enumerate(case.spine, start=1)}
    pages: dict[int, list] = {p: [] for p in range(1, case.ell + 1)}
    for u, w, p in case.h_edges:
        pages[p].append(span(rank, u, w))
    for u, w in case.new_edges:
        if u in rank and w in rank:
            a, b = span(rank, u, w)
            if all(any(alternate(x, y, a, b) for x, y in pages[p]) for p in pages):
                return (u, w)
    return None


def satisfiable(n_vars: int, clauses) -> bool:
    """Brute force over all ``2 ** n_vars`` assignments."""
    for bits in itertools.product((False, True), repeat=n_vars):
        if all(any(bits[abs(x) - 1] == (x > 0) for x in c) for c in clauses):
            return True
    return False


def from_text(case: "Case", text: str) -> "Case":
    """Fill a case's pieces from instance text, read without the program."""
    doc = json.loads(text)
    case.ell = doc["ell"]
    case.spine = list(doc["H"]["spine"])
    case.h_edges = [(e["u"], e["v"], e["page"]) for e in doc["H"]["edges"]]
    case.new_vertices = list(doc["new_vertices"])
    case.new_edges = [(e["u"], e["v"]) for e in doc["new_edges"]]
    return case


def pieces(case: "Case") -> tuple:
    """Order-free view of an instance, for comparing two descriptions."""
    return (
        case.ell,
        tuple(case.spine),
        frozenset((frozenset((u, v)), p) for u, v, p in case.h_edges),
        frozenset(case.new_vertices),
        frozenset(frozenset(e) for e in case.new_edges),
    )


def check_evidence(case: "Case") -> None:
    """Re-check a case's expected verdict without the program.

    Raises ``AssertionError`` when the evidence does not hold.
    """
    if case.family in ("3cnf-sat", "3cnf-unsat"):
        ok = satisfiable(case.args["n_vars"], case.args["clauses"]) == case.expect
    elif case.expect:
        w = case.witness
        triples = [(e["u"], e["v"], e["page"]) for e in w["pages"]]
        ok = not layout_problems(case, w["spine"], triples)
    elif case.family == "blocked-edge":
        ok = blocked_old_edge(case) is not None
    elif case.family == "blocked-gap":
        ok = any(blocked_new_vertex(case, v) for v in case.new_vertices)
    else:
        ok = False
    if not ok:
        raise AssertionError(f"{case.id}: evidence for {case.family} does not hold")


# ---------------------------------------------------------------------------
# cases


@dataclass
class Case:
    """One benchmark instance as plain pieces plus its known answer.

    ``build`` names the program constructor that makes the instance:
    ``make_instance`` from these pieces, ``gen_random`` from ``args``, or
    ``reduce_3sat`` from the formula in ``args``.  For the last two the
    pieces are filled in from the built instance before any check.
    """

    id: str
    family: str
    build: str
    expect: bool
    ell: int = 0
    spine: list = field(default_factory=list)
    h_edges: list = field(default_factory=list)
    new_vertices: list = field(default_factory=list)
    new_edges: list = field(default_factory=list)
    witness: Optional[dict] = None
    args: dict = field(default_factory=dict)


def nested_layout(
    rng: random.Random, spine: list, ell: int, per_vertex: float, exact: bool = False
):
    """Random crossing-free arcs over ``spine``, about ``per_vertex`` per
    vertex, spread over ``ell`` pages.

    Each page is drawn as a random bracket sequence: a left-to-right
    walk opens arcs and closes the innermost open one, so arcs on a page
    always nest.  Repeated pairs are dropped.  With ``exact`` each page
    gets exactly ``per_vertex * len(spine) // ell`` arcs: a denser walk is
    thinned at random, which keeps the page crossing-free.
    """
    n = len(spine)
    taken: set = set()
    out = []
    rate = 0.9 if exact else per_vertex / ell
    target = int(per_vertex * n) // ell if exact else 0
    for p in range(1, ell + 1):
        page: list = []
        while len(page) < target or not page:
            taken -= {frozenset(e[:2]) for e in page}
            page = []
            stack: list[int] = []
            for i in range(n):
                while stack and rng.random() < 0.5 * rate + 0.1:
                    j = stack.pop()
                    key = frozenset((spine[j], spine[i]))
                    if key not in taken:
                        taken.add(key)
                        page.append((spine[j], spine[i], p))
                    if rng.random() < 0.5:
                        break
                if rng.random() < rate:
                    stack.append(i)
            if not exact:
                break
        if exact:
            keep = rng.sample(page, target)
            taken -= {frozenset(e[:2]) for e in page} - {frozenset(e[:2]) for e in keep}
            page = keep
        out += page
    return out


def _names(rng: random.Random, n: int, prefix: str) -> list[str]:
    labels = [f"{prefix}{i}" for i in range(n)]
    rng.shuffle(labels)
    return labels


def planted(
    rng: random.Random,
    cid: str,
    n_h: int,
    ell: int,
    n_add: int,
    m_add: tuple[int, int],
    new_new: bool,
    per_vertex: float = 1.5,
    old_cuts: bool = True,
    exact_edges: bool = False,
    new_first: bool = False,
    first_page: bool = False,
) -> Case:
    """Draw a valid layout of all of G, then cut vertices and edges away.

    The cut vertices become new vertices and every edge at them a new
    edge.  Extra edges between old vertices are cut until the number of
    new edges reaches the requested range, unless ``old_cuts`` is off; then
    every new edge meets a new vertex.  With ``new_new`` at least one
    new edge joins two new vertices, without it none does.  With
    ``new_first`` the new vertices are the leftmost that fit the shape.
    With ``first_page`` only vertices whose edges all lie on page 1 become
    new, and only edges on page 1 are cut between old vertices.
    The answer is yes, witnessed by the drawn layout.
    """
    lo, hi = m_add
    for _ in range(1000):
        spine = _names(rng, n_h + n_add, "v")
        edges = nested_layout(rng, spine, ell, per_vertex, exact_edges)
        deg: dict = {v: 0 for v in spine}
        off_first: set = set()
        for u, v, p in edges:
            deg[u] += 1
            deg[v] += 1
            if first_page and p != 1:
                off_first |= {u, v}
        if first_page:
            # only vertices whose edges all lie on page 1 can become new
            deg = {v: (d if v not in off_first else 0) for v, d in deg.items()}
        news: list = []
        if new_new and n_add >= 2:
            pair = [e for e in edges if 1 <= deg[e[0]] <= 4 and 1 <= deg[e[1]] <= 4]
            if not pair:
                continue
            u, v, _p = rng.choice(pair)
            news = [u, v]
        top = 4 if old_cuts else hi
        pool = [v for v in spine if 1 <= deg[v] <= top and v not in news]
        if not new_first:
            rng.shuffle(pool)
        news += pool[: n_add - len(news)]
        if len(news) != n_add:
            continue
        newset = set(news)
        cut = [(u, v) for u, v, _p in edges if u in newset or v in newset]
        if new_new != any(u in newset and v in newset for u, v in cut):
            continue
        if len(cut) > hi or (not old_cuts and len(cut) < lo):
            continue
        rest = [(u, v) for u, v, p in edges
                if u not in newset and v not in newset and (p == 1 or not first_page)]
        extra = 0
        if old_cuts:
            extra = rng.randint(max(0, lo - len(cut)), max(0, hi - len(cut)))
        if extra > len(rest):
            continue
        cut += rng.sample(rest, extra)
        cutset = {frozenset(e) for e in cut}
        case = Case(
            cid,
            "planted",
            "make_instance",
            True,
            ell,
            [v for v in spine if v not in newset],
            [(u, v, p) for u, v, p in edges if frozenset((u, v)) not in cutset],
            sorted(news),
            cut,
            {"spine": spine, "pages": [{"u": u, "v": v, "page": p} for u, v, p in edges]},
        )
        check_evidence(case)
        return case
    raise RuntimeError(f"{cid}: no planted instance of this shape")


def _gadget(case: Case, tag: str, at: int) -> str:
    """Insert a block ``l_1 .. l_ell z r_ell .. r_1`` before spine position
    ``at``, with arc ``(l_p, r_p)`` on page ``p``.  Returns ``z``, which is
    then seen on page ``p`` only from gaps inside ``(l_p, r_p)``."""
    ell = case.ell
    left = [f"{tag}l{p}" for p in range(1, ell + 1)]
    right = [f"{tag}r{p}" for p in range(ell, 0, -1)]
    z = f"{tag}z"
    case.spine[at:at] = left + [z] + right
    case.h_edges += [(left[p - 1], right[ell - p], p) for p in range(1, ell + 1)]
    return z


def blocked_gap(rng: random.Random, base: Case) -> Case:
    """Near miss: a planted instance whose new vertex ``v`` also has to
    reach into two separate gadget blocks.

    Each block encloses its centre on every page, so a gap seeing the
    centre of one block lies inside that block, and no gap lies inside
    both.  The answer is no; the evidence is re-checked gap by gap with
    this module's own visibility test.
    """
    case = Case(
        base.id, "blocked-gap", "make_instance", False, base.ell, list(base.spine),
        list(base.h_edges), list(base.new_vertices), list(base.new_edges),
    )
    v = rng.choice(case.new_vertices)
    # both blocks go into gaps of the planted spine, the right one first,
    # so that they never nest
    a, b = sorted(rng.randrange(len(case.spine) + 1) for _ in range(2))
    z2 = _gadget(case, "gb", b)
    z1 = _gadget(case, "ga", a)
    case.new_edges += [(v, z1), (v, z2)]
    check_evidence(case)
    return case


def blocked_edge(rng: random.Random, base: Case) -> Optional[Case]:
    """A planted instance plus one new edge between old vertices that
    crosses a fixed edge on every page, or ``None`` when random pairs find
    no such edge.  The answer is no; the edge is re-checked with this
    module's own crossing test."""
    rank = {w: i for i, w in enumerate(base.spine)}
    known = {frozenset((u, v)) for u, v, _p in base.h_edges}
    known |= {frozenset(e) for e in base.new_edges}
    for _ in range(1000):
        u, w = rng.sample(base.spine, 2)
        if frozenset((u, w)) in known or abs(rank[u] - rank[w]) < 2:
            continue
        case = Case(
            base.id, "blocked-edge", "make_instance", False, base.ell,
            list(base.spine), list(base.h_edges), list(base.new_vertices),
            list(base.new_edges) + [(u, w)],
        )
        if blocked_old_edge(case) == (u, w):
            check_evidence(case)
            return case
    return None


def random_3cnf(rng: random.Random, n_vars: int, n_clauses: int) -> list:
    clauses = []
    for _ in range(n_clauses):
        vs = sorted(rng.sample(range(1, n_vars + 1), 3))
        clauses.append([x if rng.random() < 0.5 else -x for x in vs])
    return clauses


def sat_case(rng: random.Random, cid: str, n_vars: int, n_clauses: int, want: bool) -> Case:
    """Reduction of a random 3-CNF formula whose brute-force label is ``want``."""
    for _ in range(10000):
        clauses = random_3cnf(rng, n_vars, n_clauses)
        if satisfiable(n_vars, clauses) == want:
            return Case(
                cid, "3cnf-sat" if want else "3cnf-unsat", "reduce_3sat", want,
                args={"n_vars": n_vars, "clauses": clauses},
            )
    raise RuntimeError(f"{cid}: no formula with label {want}")


def unsat_3cnf(rng: random.Random, cid: str, n_vars: int) -> Case:
    """Unsatisfiable formula: all eight sign patterns over one random
    variable triple, plus shuffled filler clauses."""
    trio = sorted(rng.sample(range(1, n_vars + 1), 3))
    clauses = [
        [x if s else -x for x, s in zip(trio, signs)]
        for signs in itertools.product((True, False), repeat=3)
    ]
    clauses += random_3cnf(rng, n_vars, rng.randint(0, 2))
    rng.shuffle(clauses)
    if satisfiable(n_vars, clauses):
        raise AssertionError(f"{cid}: formula is satisfiable")
    return Case(
        cid, "3cnf-unsat", "reduce_3sat", False,
        args={"n_vars": n_vars, "clauses": clauses},
    )


def blocked_edge_draw(rng: random.Random, cid: str, **shape) -> Case:
    """Arguments for a ``gen_random`` draw of the given shape; the blocked
    edge is found and checked after the build, when the pieces are known."""
    return Case(
        cid, "blocked-edge", "gen_random", False,
        args=dict(shape, seed=rng.randrange(2**31)),
    )
