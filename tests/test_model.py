"""Core data model: layouts, crossings, face lookup, instances."""

import itertools
import json
import pathlib
import re
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import stackext
from stackext import (
    FaceLookup,
    Graph,
    InputError,
    Instance,
    Layout,
    SpineOrder,
    edge,
    extends,
    find_crossing,
    gen_random,
    is_valid,
    make_instance,
    make_layout,
    page_width,
    super_intervals,
    verify_solution,
)
from stackext.cli import main
from stackext.model import alternates

from reference_impl import _clashes, reference_instance_parts


def small_instances():
    return st.builds(
        lambda seed, nh, mh, ell, n_add, m_add: (seed, nh, mh, ell, n_add, m_add),
        st.integers(0, 10**6),
        st.integers(0, 6),
        st.integers(0, 6),
        st.integers(1, 3),
        st.integers(0, 3),
        st.integers(0, 4),
    )


def build(params):
    seed, nh, mh, ell, n_add, m_add = params
    try:
        return gen_random(nh, min(mh, nh * (nh - 1) // 2), ell, n_add, m_add, seed)
    except InputError:
        return None


def test_edge_normalizes():
    assert edge("b", "a") == ("a", "b")
    assert edge("a", "b") == ("a", "b")


def test_edge_rejects_loop():
    with pytest.raises(InputError):
        edge("a", "a")


def test_graph_rejects_duplicate_vertices():
    with pytest.raises(InputError):
        Graph(("a", "b", "a"), ())


def test_graph_rejects_unknown_endpoint():
    with pytest.raises(InputError):
        Graph(("a", "b"), (("a", "c"),))


def test_graph_rejects_parallel_edges():
    with pytest.raises(InputError):
        Graph(("a", "b"), (("a", "b"), ("b", "a")))


def test_spine_order_ranks():
    s = SpineOrder(("c", "a", "b"))
    assert s.rank_of("c") == 1
    assert s.rank_of("b") == 3
    assert "a" in s and "z" not in s


def test_layout_rejects_page_out_of_range():
    with pytest.raises(InputError):
        make_layout(("a", "b"), 2, [("a", "b", 3)])


def test_layout_rejects_multi_edge():
    with pytest.raises(InputError):
        Layout(SpineOrder(("a", "b")), 2, {("a", "b"): 1, ("b", "a"): 2})


def test_crosses_is_alternation():
    # spans of (a, c), (b, d), (a, b), (c, d) over the spine a < b < c < d
    assert alternates(1, 3, 2, 4)
    assert alternates(2, 4, 1, 3)
    assert not alternates(1, 2, 3, 4)
    assert not alternates(1, 4, 2, 3)
    # shared endpoints never cross
    assert not alternates(1, 3, 3, 4)
    assert not alternates(1, 3, 1, 4)


def test_alternation_test_is_spelled_once():
    # the kernel's ``alternates`` is the only copy in the package; the
    # oracle and the solution checker keep their own on purpose, as
    # independent checkers
    pattern = re.compile(r"\w+ < \w+ < \w+ < \w+ or ")
    found = {
        path.name: len(pattern.findall(path.read_text(encoding="utf-8")))
        for path in pathlib.Path(stackext.__file__).parent.glob("*.py")
    }
    assert found["model.py"] == 1
    others = {name for name, n in found.items() if n and name != "model.py"}
    assert others <= {"oracle.py", "serialize.py"}


def test_layouts_stay_cheap_validity_is_separate():
    # construction accepts a crossing pair; the checks catch it
    lay = make_layout(("a", "b", "c", "d"), 1, [("a", "c", 1), ("b", "d", 1)])
    g = Graph(("a", "b", "c", "d"), (("a", "c"), ("b", "d")))
    assert not is_valid(g, lay)
    assert find_crossing(lay) == (edge("a", "c"), edge("b", "d"), 1)


def test_is_valid_full_cover():
    lay = make_layout(("a", "b", "c"), 2, [("a", "c", 1)])
    assert is_valid(Graph(("a", "b", "c"), (("a", "c"),)), lay)
    # an unassigned graph edge fails the cover check
    assert not is_valid(Graph(("a", "b", "c"), (("a", "c"), ("a", "b"))), lay)
    assert find_crossing(lay) is None


def test_extends_positive_and_negatives():
    h = make_layout(("a", "b", "c"), 2, [("a", "c", 1)])
    good = make_layout(("a", "x", "b", "c"), 2, [("a", "c", 1), ("x", "b", 2)])
    assert extends(good, h)
    reordered = make_layout(("b", "a", "c"), 2, [("a", "c", 1)])
    assert not extends(reordered, h)
    repaged = make_layout(("a", "b", "c"), 2, [("a", "c", 2)])
    assert not extends(repaged, h)
    missing = make_layout(("a", "b", "c"), 2, [])
    assert not extends(missing, h)
    off_spine = make_layout(("a", "c"), 2, [("a", "c", 1)])
    assert not extends(off_spine, h)


def test_page_width_hand_example():
    lay = make_layout(
        ("a", "b", "c", "d", "e", "f"),
        2,
        [("a", "f", 1), ("a", "c", 1), ("c", "e", 1), ("b", "d", 2)],
    )
    # gap 3 (between b and c) sits under (a,f) and (a,c) and (b,d)
    assert page_width(lay) == 2


def test_page_width_rejects_crossing_layout():
    lay = make_layout(("a", "b", "c", "d"), 2, [("a", "c", 2), ("b", "d", 2)])
    with pytest.raises(InputError):
        page_width(lay)


@given(small_instances())
@settings(max_examples=60, deadline=None)
def test_page_width_matches_naive_count(params):
    inst = build(params)
    if inst is None:
        return
    lay = inst.layout_h
    n = len(lay.spine)
    best = 0
    for p in range(1, lay.ell + 1):
        for g in range(1, n + 2):
            cnt = 0
            for u, v in lay.edges_on_page(p):
                a, b = sorted((lay.rank_of(u), lay.rank_of(v)))
                # gap g, between ranks g - 1 and g, sits under the arc
                cnt += a < g <= b
            best = max(best, cnt)
    assert page_width(lay) == best


def _demo_layout():
    return make_layout(
        ("a", "b", "c", "d", "e", "f"),
        1,
        [("a", "f", 1), ("a", "c", 1), ("c", "e", 1)],
    )


def test_face_lookup_hand_example():
    lookup = FaceLookup(_demo_layout())
    # gaps 2 .. 5 lie under (a, f) and one of (a, c), (c, e); gap 6 under
    # (a, f) only; gaps 1 and 7 in the outer face
    assert [lookup.deepest(1, g) for g in range(1, 8)] == [0, 2, 2, 2, 2, 1, 0]
    # gap 4 is doubled position 7; vertex c (doubled position 6) lies
    # under (a, f) only
    assert lookup.depth(1, 7) == 2
    assert lookup.depth(1, 6) == 1


def test_vertex_incidence_hand_example():
    # a gap sees a vertex exactly when the vertex lies on the boundary of
    # the gap's deepest face; ``pages_fitting`` is the one test for it
    lay = _demo_layout()
    lookup = FaceLookup(lay)

    def seen_from(w):
        r2 = 2 * lay.rank_of(w)
        return [g for g in range(1, 8) if 1 in lookup.pages_fitting(2 * g - 1, r2)]

    # c joins its two bounding edges and still touches the big face (gap 6)
    assert seen_from("c") == [2, 3, 4, 5, 6]
    # b is sealed under (a, c)
    assert seen_from("b") == [2, 3]
    # the outer face (gaps 1 and 7) touches the extremes, and a is hidden
    # from the face below (c, e)
    assert seen_from("a") == [1, 2, 3, 6, 7]
    assert seen_from("f") == [1, 6, 7]


# ---------------------------------------------------------------------------
# the geometry kernel against plain pairwise alternation


@st.composite
def raw_layouts(draw, crossing_free=False, max_n=8):
    """Small layouts with shared endpoints and, unless ``crossing_free``,
    any number of crossings per page; names do not follow spine order.
    Each page first gets a rainbow (arcs nested around one centre, for
    deep nesting) and a fan (arcs sharing a left end, for ties on the
    left end), then random arcs follow on random pages."""
    n = draw(st.integers(2, max_n))
    ell = draw(st.integers(1, 3))
    spine = [f"v{i}" for i in draw(st.permutations(range(n)))]
    chosen = []
    for p in range(1, ell + 1):
        c, k = draw(st.integers(1, n)), draw(st.integers(0, n // 2))
        chosen += [(c - i, c + 1 + i, p) for i in range(k) if c - i >= 1 and c + i < n]
        chosen += [(c, b, p) for b in range(c + 1, min(n, c + k) + 1)]
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=12)):
        chosen.append((a, b, draw(st.integers(1, ell))))
    kept: dict[int, list[tuple[int, int]]] = {}
    triples, seen = [], set()
    for a, b, p in chosen:
        if (a, b) in seen:
            continue
        if crossing_free and any(
            c < a < d < b or a < c < b < d for c, d in kept.get(p, ())
        ):
            continue
        seen.add((a, b))
        kept.setdefault(p, []).append((a, b))
        triples.append((spine[a - 1], spine[b - 1], p))
    return make_layout(spine, ell, triples)


def _rank_spans(lay):
    return {
        p: [
            tuple(sorted((lay.rank_of(u), lay.rank_of(v))))
            for u, v in lay.edges_on_page(p)
        ]
        for p in range(1, lay.ell + 1)
    }


@given(raw_layouts())
@settings(max_examples=200, deadline=None)
def test_is_valid_and_find_crossing_match_pairwise(lay):
    graph = Graph(lay.spine.order, tuple(lay.page_of))
    clash = _clashes(_rank_spans(lay))
    assert is_valid(graph, lay) == (not clash)
    found = find_crossing(lay)
    assert (found is not None) == clash
    if found is not None:
        e1, e2, p = found
        assert e1 < e2
        assert lay.page_of[e1] == p == lay.page_of[e2]
        a, b = sorted((lay.rank_of(e1[0]), lay.rank_of(e1[1])))
        c, d = sorted((lay.rank_of(e2[0]), lay.rank_of(e2[1])))
        assert a < c < b < d or c < a < d < b


@given(raw_layouts(crossing_free=True, max_n=30))
@settings(max_examples=150, deadline=None)
def test_depth_matches_pairwise_enclosure(lay):
    lookup = FaceLookup(lay)
    for p, spans in _rank_spans(lay).items():
        for x in range(2 * len(lay.spine) + 2):
            want = sum(1 for a, b in spans if 2 * a < x < 2 * b)
            assert lookup.depth(p, x) == want


@given(raw_layouts(crossing_free=True, max_n=30))
@settings(max_examples=150, deadline=None)
def test_pages_fitting_matches_pairwise_alternation(lay):
    # doubled positions: vertex of rank r at 2r, gap g at 2g - 1, so this
    # covers vertex-vertex, gap-vertex and gap-gap spans
    lookup = FaceLookup(lay)
    doubled = {
        p: [(2 * a, 2 * b) for a, b in spans]
        for p, spans in _rank_spans(lay).items()
    }
    top = 2 * len(lay.spine) + 1
    for a2, b2 in itertools.combinations_with_replacement(range(1, top + 1), 2):
        want = frozenset(
            p
            for p, spans in doubled.items()
            if not any(x < a2 < y < b2 or a2 < x < b2 < y for x, y in spans)
        )
        assert lookup.pages_fitting(a2, b2) == want
        assert lookup.pages_fitting(b2, a2) == want


@given(small_instances())
@settings(max_examples=60, deadline=None)
def test_sees_matches_naive_alternation(params):
    # vertex-vertex visibility on the generated fixed layout, against the
    # plain alternation count that skips edges sharing an endpoint
    inst = build(params)
    if inst is None or len(inst.layout_h.spine) < 2:
        return
    lay = inst.layout_h
    lookup = FaceLookup(lay)
    for u, v in itertools.combinations(lay.spine.order, 2):
        a, b = sorted((lay.rank_of(u), lay.rank_of(v)))
        for p in range(1, lay.ell + 1):
            blocked = False
            for x, y in lay.edges_on_page(p):
                if u in (x, y) or v in (x, y):
                    continue
                c, d = sorted((lay.rank_of(x), lay.rank_of(y)))
                if c < a < d < b or a < c < b < d:
                    blocked = True
            assert (p in lookup.pages_fitting(2 * a, 2 * b)) == (not blocked)


def test_gap_next_to_vertex_always_sees_it():
    lay = _demo_layout()
    lookup = FaceLookup(lay)
    for w in lay.spine:
        r2 = 2 * lay.rank_of(w)
        # gap r lies just left of the vertex of rank r, gap r + 1 just right
        assert 1 in lookup.pages_fitting(r2 - 1, r2)
        assert 1 in lookup.pages_fitting(r2 + 1, r2)


def test_face_lookup_rejects_crossing_layout():
    lay = make_layout(("a", "b", "c", "d"), 1, [("a", "c", 1), ("b", "d", 1)])
    with pytest.raises(InputError):
        FaceLookup(lay)


def test_fixed_layout_is_scanned_once(monkeypatch):
    # construction's crossing check, the face lookup, page_width and
    # find_crossing all read the one scan per page the layout caches
    calls = []
    scan = stackext.model._stack_scan
    monkeypatch.setattr(
        stackext.model, "_stack_scan", lambda spans: calls.append(spans) or scan(spans)
    )
    fixed = [("b", "d", 1), ("a", "f", 1), ("e", "c", 3)]
    layout = make_layout("abcdef", 3, fixed)
    assert calls == []
    inst = Instance(layout, ["x"], [("x", "a")])
    assert inst.lookup.deepest(1, 3) == 2
    assert page_width(inst.layout_h) == 2
    assert find_crossing(inst.layout_h) is None
    # one scan per page, of the doubled spans the layout filed while it
    # checked each edge: in ``page_of`` order, not sorted by name
    assert calls == [[(4, 8), (2, 12)], [], [(6, 10)]]


def test_face_lookup_fills_a_deep_rainbow_in_linear_time():
    # 9 999 nested arcs on 20 000 vertices; writing each arc's whole span
    # would take about 10^8 steps, one write per position takes 4 * 10^4
    n = 20_000
    spine = [f"v{i:05d}" for i in range(n)]
    lay = make_layout(spine, 1, [(spine[i], spine[n - 1 - i], 1) for i in range(9_999)])
    t0 = time.perf_counter()
    lookup = FaceLookup(lay)
    assert time.perf_counter() - t0 < 1.0
    # gap n // 2 + 1 lies between the middle two vertices, under every arc
    assert lookup.deepest(1, n // 2 + 1) == 9_999
    assert lookup.depth(1, 2 * (n // 2)) == 9_999
    assert [lookup.depth(1, x) for x in range(6)] == [0, 0, 0, 1, 1, 2]
    assert page_width(lay) == 9_999


def test_instance_views():
    inst = make_instance(
        2,
        ["a", "b", "c"],
        [("a", "c", 1)],
        ["x", "y"],
        [("x", "y"), ("x", "a"), ("b", "c")],
    )
    assert inst.new_vertices == ("x", "y")
    assert inst.new_edges == (("a", "x"), ("b", "c"), ("x", "y"))
    assert inst.new_old_edges == (("b", "c"),)
    assert inst.incident_old == ("a", "b", "c")
    assert inst.kinds.spans == ((("b", "c"), 4, 6),)
    assert inst.kinds.anchors == {"x": ((("a", "x"), 2),), "y": ()}
    assert inst.kinds.links == (("x", "y"),)
    assert inst.n_add == 2 and inst.m_add == 3 and inst.kappa == 5
    assert inst.gap_count == 4


# make_instance arguments (ell, spine, fixed edges, new vertices, new
# edges) that are each malformed in exactly one way, with the message of
# the InputError each raises
BAD_INSTANCES = {
    "duplicate-fixed-edge": (
        (2, "abc", [("a", "b", 1), ("a", "b", 1)], [], []),
        "multi-edge in the page assignment",
    ),
    "duplicate-fixed-edge-reversed": (
        (2, "abc", [("a", "b", 1), ("b", "a", 2)], [], []),
        "multi-edge ('a', 'b')",
    ),
    "fixed-edge-off-spine": (
        (2, "ab", [("a", "z", 1)], [], []),
        "edge ('a', 'z') has an endpoint off the spine",
    ),
    "page-0": (
        (2, "ab", [("a", "b", 0)], [], []),
        "page 0 of edge ('a', 'b') outside 1..2",
    ),
    "page-ell-plus-1": (
        (2, "ab", [("a", "b", 3)], [], []),
        "page 3 of edge ('a', 'b') outside 1..2",
    ),
    "fixed-self-loop": ((2, "ab", [("a", "a", 1)], [], []), "self-loop at 'a'"),
    "new-self-loop": ((2, "ab", [], ["x"], [("x", "x")]), "self-loop at 'x'"),
    "duplicate-spine-vertex": (
        (2, "aba", [], [], []),
        "vertex 'a' appears twice on the spine",
    ),
    "new-vertex-is-old": ((2, "ab", [], ["a"], []), "duplicate vertex 'a'"),
    "duplicate-new-vertex": ((2, "ab", [], ["x", "x"], []), "duplicate vertex 'x'"),
    "duplicate-new-edge": (
        (2, "ab", [], ["x"], [("a", "x"), ("x", "a")]),
        "multi-edge ('a', 'x')",
    ),
    "new-edge-is-fixed": (
        (2, "ab", [("a", "b", 1)], [], [("b", "a")]),
        "multi-edge ('a', 'b')",
    ),
    "new-edge-unknown-end": (
        (2, "ab", [], ["x"], [("a", "y")]),
        "edge ('a', 'y') has an unknown endpoint",
    ),
    "crossing-fixed-layout": (
        (1, "abcd", [("a", "c", 1), ("b", "d", 1)], [], []),
        "given layout is invalid: ('a', 'c') crosses ('b', 'd') on page 1",
    ),
    "ell-0": ((0, "ab", [], [], []), "page count must be positive, got 0"),
}


@pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
def test_make_instance_rejects_malformed_pieces(case):
    pieces, message = BAD_INSTANCES[case]
    with pytest.raises(InputError) as exc:
        make_instance(*pieces)
    assert str(exc.value) == message


@pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
def test_solve_rejects_malformed_instance_file(case, tmp_path):
    (ell, spine, fixed, news, new_edges), message = BAD_INSTANCES[case]
    doc = {
        "ell": ell,
        "H": {
            "spine": list(spine),
            "edges": [{"u": u, "v": v, "page": p} for u, v, p in fixed],
        },
        "new_vertices": news,
        "new_edges": [{"u": u, "v": v} for u, v in new_edges],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    got = CliRunner().invoke(main, ["solve", str(path)])
    assert got.exit_code == 2, got.output
    assert got.output.splitlines() == [f"error: {message}"], got.output


def test_instance_is_its_graph_and_fixed_layout():
    layout = make_layout("abc", 2, [("a", "c", 2)])
    inst = Instance(layout, ["x"], [("x", "b")])
    assert inst.ell == 2 and inst.layout_h is layout
    assert inst.new_vertices == ("x",) and inst.new_edges == (("b", "x"),)
    assert inst.kinds.anchors == {"x": ((("b", "x"), 4),)}
    assert "g" not in vars(inst)
    assert inst.g == Graph(("a", "b", "c", "x"), (("a", "c"), ("b", "x")))
    assert inst == make_instance(2, "abc", [("a", "c", 2)], ["x"], [("b", "x")])


@st.composite
def pieces_with_defects(draw):
    # make_instance pieces on a few names, the new ones drawn with any
    # of the defects the new-piece checks look for
    spine = list(draw(st.permutations("abcde"))[: draw(st.integers(2, 5))])
    ell = draw(st.integers(1, 3))
    pairs = draw(
        st.lists(st.sampled_from(list(itertools.combinations(spine, 2))),
                 unique=True, max_size=4)
    )
    fixed = [(u, v, draw(st.integers(1, ell))) for u, v in pairs]
    news = draw(st.lists(st.sampled_from("xyz"), unique=True, max_size=3))
    names = spine + news
    free = [e for e in itertools.combinations(names, 2) if e not in pairs]
    new_edges = []
    if free:
        new_edges = draw(st.lists(st.sampled_from(free), unique=True, max_size=5))
    defects = draw(st.sets(st.sampled_from(
        ["duplicate", "loop", "multi-edge", "unknown-end", "already-fixed"]
    )))
    if "duplicate" in defects:
        news.append(draw(st.sampled_from(names)))
    if "loop" in defects:
        new_edges.append((draw(st.sampled_from(names)),) * 2)
    if "multi-edge" in defects and new_edges:
        new_edges.append(draw(st.sampled_from(new_edges)))
    if "unknown-end" in defects:
        new_edges.append((draw(st.sampled_from(names)), "q"))
    if "already-fixed" in defects and pairs:
        new_edges.append(draw(st.sampled_from(pairs)))
    new_edges = [
        (v, u) if draw(st.booleans()) else (u, v)
        for u, v in draw(st.permutations(new_edges))
    ]
    return ell, spine, fixed, news, new_edges


@given(pieces_with_defects())
@settings(max_examples=300, deadline=None)
def test_instance_construction_matches_graph_of_g(pieces):
    # the new pieces checked against the fixed layout reject exactly what
    # one Graph of all of G plus the H-in-G check rejects
    try:
        g, layout = reference_instance_parts(*pieces)
    except InputError:
        with pytest.raises(InputError):
            make_instance(*pieces)
        return
    inst = make_instance(*pieces)
    assert inst.layout_h == layout and inst.g == g
    assert inst.vertex_set == g.vertex_set
    assert inst.new_edge_set | layout.page_of.keys() == g.edge_set
    assert inst.new_vertices == tuple(v for v in g.vertices if v not in layout.spine)
    assert inst.new_edges == tuple(e for e in g.edges if e not in layout.page_of)


def test_instance_rejects_new_edge_already_fixed():
    with pytest.raises(InputError):
        make_instance(2, ["a", "b"], [("a", "b", 1)], [], [("a", "b")])


def test_instance_rejects_invalid_fixed_layout():
    with pytest.raises(InputError):
        make_instance(
            1, ["a", "b", "c", "d"], [("a", "c", 1), ("b", "d", 1)], [], []
        )


def test_super_intervals_hand_example():
    inst = make_instance(
        2,
        ["a", "b", "c", "d"],
        [],
        ["x"],
        [("x", "b"), ("x", "c")],
    )
    sups = super_intervals(inst)
    # gaps 1..2 share {left: none, right: b, c}; gap 3 splits b and c;
    # gaps 4..5 mirror the first class
    assert [s.gap_lo for s in sups] == [1, 3, 4]
    assert [s.gap_hi for s in sups] == [2, 3, 5]
    assert len(sups) <= 2 * inst.m_add + 1


@given(small_instances())
@settings(max_examples=60, deadline=None)
def test_super_intervals_partition_gaps(params):
    inst = build(params)
    if inst is None:
        return
    sups = super_intervals(inst)
    covered = []
    for s in sups:
        covered.extend(range(s.gap_lo, s.gap_hi + 1))
    assert covered == list(range(1, inst.gap_count + 1))
    assert len(sups) <= 2 * inst.m_add + 1


def test_is_solution_accepts_and_rejects():
    inst = make_instance(
        2, ["a", "b", "c"], [("a", "c", 1)], ["x"], [("x", "b")]
    )
    good = make_layout(
        ("a", "x", "b", "c"), 2, [("a", "c", 1), ("x", "b", 1)]
    )
    assert inst.is_solution(good)
    wrong_page = make_layout(
        ("a", "x", "b", "c"), 2, [("a", "c", 2), ("x", "b", 1)]
    )
    assert not inst.is_solution(wrong_page)


def test_is_solution_rejects_a_page_above_the_instance_ell():
    # the layout may have more pages than the instance; a new edge on one
    # of them is no solution, as verify_solution's page-out-of-range says
    inst = make_instance(1, ["a", "b"], [("a", "b", 1)], ["x"], [("a", "x")])
    above = make_layout("axb", 2, [("a", "b", 1), ("a", "x", 2)])
    assert not inst.is_solution(above)
    assert [v.code for v in verify_solution(inst, above)] == ["page-out-of-range"]
    assert inst.is_solution(make_layout("axb", 2, [("a", "b", 1), ("a", "x", 1)]))


def test_is_solution_scans_only_pages_with_new_edges(monkeypatch):
    fixed = [("a", "c", 1), ("b", "d", 2)]
    inst = make_instance(3, "abcd", fixed, ["x"], [("x", "c")])
    seen = []
    scan = stackext.model._stack_scan
    monkeypatch.setattr(
        stackext.model, "_stack_scan", lambda spans: seen.append(spans) or scan(spans)
    )
    assert inst.is_solution(make_layout("axbcd", 3, fixed + [("x", "c", 3)]))
    # (x, c) crosses (b, d) on page 2; only the page with the new edge is scanned
    assert not inst.is_solution(make_layout("axbcd", 3, fixed + [("x", "c", 2)]))
    assert seen == [[(4, 8)], [(6, 10), (4, 8)]]


@given(small_instances(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_is_solution_matches_is_valid_and_extends(params, rng):
    inst = build(params)
    if inst is None:
        return
    spine = list(inst.layout_h.spine)
    for v in inst.new_vertices:
        spine.insert(rng.randint(0, len(spine)), v)
    if rng.random() < 0.2:
        rng.shuffle(spine)
    # now and then one page more than the instance has
    ell = inst.ell + (rng.random() < 0.2)
    pages = dict(inst.layout_h.page_of)
    pages.update({e: rng.randint(1, ell) for e in inst.new_edges})
    if pages and rng.random() < 0.2:
        pages[rng.choice(sorted(pages))] = rng.randint(1, ell)
    lay = Layout(SpineOrder(tuple(spine)), ell, pages)
    want = is_valid(inst.g, lay) and extends(lay, inst.layout_h)
    in_range = all(pages[e] <= inst.ell for e in inst.new_edges)
    assert inst.is_solution(lay) == (want and in_range)
