"""File formats and the solution checker."""

import itertools
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from stackext import (
    InputError,
    RawSolution,
    Violation,
    edge,
    emit_instance,
    emit_solution,
    make_instance,
    make_layout,
    parse_instance,
    parse_solution,
    solve,
    solve_exhaustive,
    verify_solution,
)
from stackext.serialize import _nested, as_layout, canonical, instance_from_doc

from reference_impl import _clashes, random_corpus, reference_verify_solution


def _inst():
    return make_instance(
        2,
        ["a", "b", "c", "d"],
        [("a", "c", 1), ("b", "d", 2)],
        ["x"],
        [("x", "a"), ("x", "d"), ("b", "c")],
    )


def _good_solution(inst):
    sol = solve_exhaustive(inst)
    assert sol is not None
    return sol


def test_instance_round_trips_byte_for_byte():
    for inst in random_corpus(60, seed=50_000, v_max=7, ell_max=3):
        text = emit_instance(inst)
        again = parse_instance(text)
        assert emit_instance(again) == text
        assert again == inst


def test_solution_round_trips_byte_for_byte():
    count = 0
    for inst in random_corpus(120, seed=51_000, v_max=6, ell_max=2):
        lay = solve_exhaustive(inst)
        if lay is None:
            continue
        count += 1
        text = emit_solution(lay)
        raw = parse_solution(text)
        assert emit_solution(as_layout(raw, inst.ell)) == text
    assert count >= 40


def test_emitted_files_are_canonical():
    text = emit_instance(_inst())
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    # fixed edges ordered by endpoint ranks
    pairs = [(e["u"], e["v"]) for e in doc["H"]["edges"]]
    assert pairs == [("a", "c"), ("b", "d")]


# names with quotes, backslashes, control characters and non-ASCII text
_NAME = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t é€\u2028\ud800😀ab') | st.characters()
)
_NAMES = st.lists(_NAME, max_size=4)
_ROW = st.fixed_dictionaries(
    {"page": st.integers(-3, 10**20), "u": _NAME, "v": _NAME}
)
_SOLUTION_DOC = st.fixed_dictionaries(
    {"pages": st.lists(_ROW, max_size=4), "spine": _NAMES}
)
_INSTANCE_DOC = st.fixed_dictionaries(
    {
        "H": st.fixed_dictionaries(
            {"edges": st.lists(_ROW, max_size=3), "spine": _NAMES}
        ),
        "ell": st.integers(-3, 10**20),
        "new_edges": st.lists(
            st.fixed_dictionaries({"u": _NAME, "v": _NAME}), max_size=3
        ),
        "new_vertices": _NAMES,
    }
)
_ODD = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _NAME,
    lambda kids: st.lists(kids, max_size=3)
    | st.tuples(kids)
    | st.dictionaries(_NAME, kids, max_size=3),
    max_leaves=6,
)


@st.composite
def _documents(draw):
    # an instance or solution document, in half the cases with one value
    # somewhere in it (a field, a row, a name) swapped for another type
    doc = draw(_INSTANCE_DOC | _SOLUTION_DOC)
    if draw(st.booleans()):
        holder = doc
        while True:
            keys = list(holder) if isinstance(holder, dict) else range(len(holder))
            key = draw(st.sampled_from(keys))
            inner = holder[key]
            if not (isinstance(inner, (dict, list)) and inner) or draw(st.booleans()):
                holder[key] = draw(_ODD)
                break
            holder = inner
    return doc


@settings(max_examples=200, deadline=None)
@given(_documents())
@example({"pages": [], "spine": []})
@example({"pages": [{"page": True, "u": "a", "v": "b"}], "spine": ["a", "b"]})
@example({"pages": [{"page": 1, "u": "a", "v": "b", "w": 0}], "spine": []})
@example({"pages": ("ab",), "spine": "ab"})
def test_canonical_matches_indented_json(doc):
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert canonical(doc) == expected


@st.composite
def _pieces(draw):
    # a small instance as plain pieces; fixed edges join spine neighbours
    # or the two ends, so they never cross, and either end may come first
    names = draw(st.lists(_NAME, unique=True, max_size=7))
    k = draw(st.integers(0, len(names)))
    spine, news = names[:k], names[k:]
    ell = draw(st.integers(1, 3))
    spans = list(zip(spine, spine[1:]))
    if len(spine) > 2:
        spans.append((spine[0], spine[-1]))
    h_edges = []
    for u, v in spans:
        if draw(st.booleans()):
            p = draw(st.integers(1, ell))
            h_edges.append((v, u, p) if draw(st.booleans()) else (u, v, p))
    fixed = {frozenset(e[:2]) for e in h_edges}
    free = [e for e in itertools.combinations(names, 2) if frozenset(e) not in fixed]
    drawn = []
    if free:
        drawn = draw(st.lists(st.sampled_from(free), unique=True, max_size=4))
    new_edges = [e[::-1] if draw(st.booleans()) else e for e in drawn]
    return ell, spine, h_edges, news, new_edges


@settings(max_examples=150, deadline=None)
@given(_pieces())
@example((1, [], [], [], []))
@example((2, ["", "\ud800"], [("\ud800", "", 2)], [], []))
def test_writers_match_indented_json(pieces):
    ell, spine, h_edges, news, new_edges = pieces
    inst = make_instance(ell, spine, h_edges, news, new_edges)
    rank = {v: i for i, v in enumerate(spine)}
    fixed = sorted((*sorted((rank[u], rank[v])), p) for u, v, p in h_edges)
    doc = {
        "ell": ell,
        "H": {
            "spine": spine,
            "edges": [{"u": spine[a], "v": spine[b], "page": p} for a, b, p in fixed],
        },
        "new_vertices": news,
        "new_edges": [{"u": u, "v": v} for u, v in sorted(map(sorted, new_edges))],
    }
    assert emit_instance(inst) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    sol = solve(inst)
    if sol is not None:
        text = emit_solution(sol)
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_parse_instance_rejects_bad_documents():
    good = json.loads(emit_instance(_inst()))
    with pytest.raises(InputError):
        parse_instance("{nope")
    for breakage in (
        lambda d: d.pop("ell"),
        lambda d: d.__setitem__("ell", True),
        lambda d: d.__setitem__("ell", "2"),
        lambda d: d.pop("H"),
        lambda d: d["H"].pop("spine"),
        lambda d: d["H"]["spine"].append(7),
        lambda d: d["H"]["edges"].append({"u": "a"}),
        lambda d: d["H"]["edges"][0].pop("page"),
        lambda d: d.pop("new_vertices"),
        lambda d: d.pop("new_edges"),
        lambda d: d["new_edges"].__setitem__(0, {"u": "x"}),
    ):
        doc = json.loads(json.dumps(good))
        breakage(doc)
        with pytest.raises(InputError):
            instance_from_doc(doc)


@pytest.mark.parametrize(
    "row, message",
    [
        ([1], "instance.H.edges[] must be an object"),
        ({"v": "c", "page": 1}, "instance.H.edges[] lacks 'u'"),
        ({"u": "a", "v": 2, "page": 1}, "instance.H.edges[].v must be a str"),
        ({"u": True, "v": "c", "page": 1}, "instance.H.edges[].u must be a str"),
        ({"u": "a", "v": "c"}, "instance.H.edges[] lacks 'page'"),
        ({"u": "a", "v": "c", "page": True}, "instance.H.edges[].page must be an integer"),
        ({"u": "a", "v": "c", "page": 1.0}, "instance.H.edges[].page must be an integer"),
    ],
)
def test_bad_fixed_row_is_named(row, message):
    # a bool page is an int to isinstance, but not a page number
    doc = json.loads(emit_instance(_inst()))
    doc["H"]["edges"][0] = row
    with pytest.raises(InputError) as err:
        instance_from_doc(doc)
    assert str(err.value) == message


_NAMES = st.sampled_from(["a", "b", "c", "x", "y", ""])
_KEYS = st.sampled_from(
    ["ell", "H", "spine", "edges", "u", "v", "page", "new_vertices", "new_edges"]
)
# page counts stay at most 8: memory that grows with ``ell`` is a
# separate matter
_SMALL = st.integers(-1, 8)
_JSON = st.recursive(
    st.none() | st.booleans() | _SMALL | st.floats() | _NAMES,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(_KEYS | _NAMES, kids, max_size=5),
    max_leaves=20,
)
_EDGE = st.fixed_dictionaries({"u": _NAMES, "v": _NAMES}, optional={"page": _SMALL})
_DOC = st.fixed_dictionaries(
    {
        "ell": _SMALL,
        "H": st.fixed_dictionaries(
            {
                "spine": st.lists(_NAMES, max_size=5, unique=True),
                "edges": st.lists(_EDGE, max_size=4),
            }
        ),
        "new_vertices": st.lists(_NAMES, max_size=3, unique=True),
        "new_edges": st.lists(_EDGE, max_size=4),
    }
)
_TEXT = st.one_of(
    st.text(max_size=40),
    _JSON.map(json.dumps),
    _DOC.map(json.dumps),
    st.tuples(_DOC, _KEYS, _JSON).map(lambda t: json.dumps({**t[0], t[1]: t[2]})),
    st.tuples(st.sampled_from(["[", '{"H": ', "[{}, "]), st.integers(0, 5_000)).map(
        lambda t: t[0] * t[1]
    ),
)


@settings(max_examples=300, deadline=None)
@given(_TEXT)
@example("[" * 200_000)
@example('{"ell": ' * 100_000)
@example('{"ell": ' + "9" * 5000 + "}")
def test_parse_instance_parses_or_raises_input_error(text):
    try:
        inst = parse_instance(text)
    except InputError:
        return
    assert parse_instance(emit_instance(inst)) == inst


def test_parse_solution_shape():
    raw = parse_solution(
        '{"spine": ["a", "x", "b"], "pages": [{"u": "a", "v": "b", "page": 1}]}'
    )
    assert raw == RawSolution(("a", "x", "b"), (("a", "b", 1),))
    with pytest.raises(InputError):
        parse_solution('{"spine": ["a"]}')
    with pytest.raises(InputError):
        parse_solution("[]")


def test_as_layout_is_strict():
    raw = RawSolution(("a", "a"), ())
    with pytest.raises(InputError):
        as_layout(raw, 1)


def test_verify_accepts_real_solutions():
    inst = _inst()
    sol = _good_solution(inst)
    assert verify_solution(inst, sol) == ()
    raw = parse_solution(emit_solution(sol))
    assert verify_solution(inst, raw) == ()


def _raw_of(inst):
    sol = _good_solution(inst)
    return parse_solution(emit_solution(sol))


def _codes(violations):
    return [v.code for v in violations]


def test_violation_unknown_vertex():
    inst = _inst()
    raw = _raw_of(inst)
    got = verify_solution(
        inst, RawSolution(raw.spine + ("ghost",), raw.pages)
    )
    assert "unknown-vertex" in _codes(got)


def test_violation_missing_vertex():
    inst = _inst()
    raw = _raw_of(inst)
    got = verify_solution(inst, RawSolution(raw.spine[:-1], raw.pages))
    assert "missing-vertex" in _codes(got)


def test_violation_duplicate_vertex():
    inst = _inst()
    raw = _raw_of(inst)
    got = verify_solution(
        inst, RawSolution(raw.spine + (raw.spine[0],), raw.pages)
    )
    assert "duplicate-vertex" in _codes(got)


def test_violation_unknown_edge():
    inst = _inst()
    raw = _raw_of(inst)
    got = verify_solution(
        inst, RawSolution(raw.spine, raw.pages + (("a", "b", 1),))
    )
    assert "unknown-edge" in _codes(got)
    got = verify_solution(
        inst, RawSolution(raw.spine, raw.pages + (("a", "a", 1),))
    )
    assert "unknown-edge" in _codes(got)


def test_violation_duplicate_edge():
    inst = _inst()
    raw = _raw_of(inst)
    got = verify_solution(inst, RawSolution(raw.spine, raw.pages + raw.pages[:1]))
    assert "duplicate-edge" in _codes(got)


def test_violation_missing_edge_page():
    inst = _inst()
    raw = _raw_of(inst)
    got = verify_solution(inst, RawSolution(raw.spine, raw.pages[1:]))
    assert "missing-edge-page" in _codes(got)
    # a fixed edge swapped for a non-edge leaves the number of rows as it is
    swapped = tuple(
        ("a", "b", p) if edge(u, v) == ("a", "c") else (u, v, p) for u, v, p in raw.pages
    )
    got = verify_solution(inst, RawSolution(raw.spine, swapped))
    assert _codes(got) == ["unknown-edge", "missing-edge-page"]


def test_violation_page_out_of_range():
    inst = _inst()
    raw = _raw_of(inst)
    u, v, _ = raw.pages[0]
    got = verify_solution(
        inst, RawSolution(raw.spine, ((u, v, 99),) + raw.pages[1:])
    )
    assert "page-out-of-range" in _codes(got)


def test_violation_spine_order_changed():
    inst = _inst()
    raw = _raw_of(inst)
    flipped = tuple(reversed(raw.spine))
    got = verify_solution(inst, RawSolution(flipped, raw.pages))
    assert "spine-order-changed" in _codes(got)


def test_violation_old_edge_page_changed():
    inst = _inst()
    raw = _raw_of(inst)
    moved = tuple(
        (u, v, 2 if edge(u, v) == edge("a", "c") else p) for u, v, p in raw.pages
    )
    got = verify_solution(inst, RawSolution(raw.spine, moved))
    assert "old-edge-page-changed" in _codes(got)


def test_violation_crossing():
    inst = make_instance(
        1, ["a", "b", "c", "d"], [("a", "c", 1)], [], [("b", "d")]
    )
    raw = RawSolution(
        ("a", "b", "c", "d"),
        (("a", "c", 1), ("b", "d", 1)),
    )
    got = verify_solution(inst, raw)
    assert _codes(got) == ["crossing"]
    assert "crosses" in got[0].detail


def test_violations_are_layered():
    # a page defect must not double-report as a crossing
    inst = _inst()
    raw = _raw_of(inst)
    u, v, _ = raw.pages[0]
    got = verify_solution(
        inst, RawSolution(raw.spine, ((u, v, 99),) + raw.pages[1:])
    )
    assert "crossing" not in _codes(got)
    assert len([c for c in _codes(got) if c == "page-out-of-range"]) == 1


def test_violation_str():
    v = Violation("crossing", "a bad pair")
    assert str(v) == "crossing: a bad pair"


# spans over few positions, so shared endpoints and touching arcs are common
_SPANS = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7))
    .filter(lambda t: t[0] != t[1])
    .map(lambda t: tuple(sorted(t))),
    max_size=9,
)


@settings(max_examples=400, deadline=None)
@given(_SPANS)
@example([(1, 3), (3, 5)])
@example([(1, 3), (1, 5)])
@example([(1, 5), (3, 5), (1, 3)])
@example([(1, 3), (2, 4)])
@example([(0, 7), (1, 6), (2, 4), (3, 5)])
def test_nested_scan_matches_pairwise_alternation(spans):
    assert _nested(spans) == (not _clashes({1: spans}))


@st.composite
def _checked_solutions(draw):
    # an instance, then a raw solution that may break every layer of the
    # checker: crossings on several pages, pages out of range, unknown,
    # duplicate and missing edges, unknown, duplicate and missing vertices
    names = [f"v{i}" for i in range(draw(st.integers(2, 9)))]
    old = names[: draw(st.integers(1, len(names)))]
    new = names[len(old) :]
    ell = draw(st.integers(1, 3))
    pairs = list(itertools.combinations(names, 2))
    h_edges, new_edges, fixed = [], [], {}
    many = st.lists(
        st.sampled_from(pairs), min_size=len(names) - 1, max_size=20, unique=True
    )
    for u, v in draw(many):
        # pairs keep the order of ``names``, of which ``old`` is a prefix
        span = (old.index(u), old.index(v)) if v in old else None
        if span is not None and draw(st.booleans()):
            for p in range(1, ell + 1):
                if not _clashes({p: fixed.get(p, []) + [span]}):
                    fixed.setdefault(p, []).append(span)
                    h_edges.append((u, v, p))
                    break
            else:
                new_edges.append((u, v))
        else:
            new_edges.append((u, v))
    inst = make_instance(ell, old, h_edges, new, new_edges)

    spine = list(draw(st.permutations(names)))
    if draw(st.integers(0, 5)) == 0:
        spine.pop(draw(st.integers(0, len(spine) - 1)))
    if draw(st.integers(0, 5)) == 0:
        spine.insert(draw(st.integers(0, len(spine))), draw(st.sampled_from(names)))
    if draw(st.integers(0, 5)) == 0:
        spine.append("ghost")
    page_pool = [*range(1, ell + 1)] * 3 + [0, ell + 1]
    home = {edge(u, v): p for u, v, p in h_edges}
    pages = []
    for e in inst.g.edges:
        if draw(st.integers(0, 11)) == 0:
            continue
        pool = page_pool + [home[e]] * 8 if e in home else page_pool
        u, v = draw(st.permutations(e))
        pages.append((u, v, draw(st.sampled_from(pool))))
    ends = st.sampled_from(names + ["ghost"])
    extra = st.tuples(ends, ends, st.sampled_from(page_pool))
    pages += draw(st.lists(extra, max_size=3))
    if pages and draw(st.booleans()):
        pages.append(draw(st.sampled_from(pages)))
    pages = draw(st.permutations(pages))
    return inst, RawSolution(tuple(spine), tuple(pages))


@settings(max_examples=400, deadline=None)
@given(_checked_solutions())
def test_verify_solution_matches_pairwise_reference(case):
    inst, raw = case
    assert verify_solution(inst, raw) == reference_verify_solution(inst, raw)
    # the same rows as a Layout with one page fewer or more than the
    # instance, so that pages run out of range: of the spine and rows it
    # keeps what a Layout can hold, the first of each vertex and edge
    spine = tuple(dict.fromkeys(raw.spine))
    for ell in range(max(1, inst.ell - 1), inst.ell + 2):
        rows: dict = {}
        for u, v, p in raw.pages:
            if u != v and u in spine and v in spine and 1 <= p <= ell:
                rows.setdefault(edge(u, v), (u, v, p))
        lay = make_layout(spine, ell, rows.values())
        assert verify_solution(inst, lay) == reference_verify_solution(inst, lay)


def test_solve_verify_emit_build_no_graph():
    # a yes-answer is checked from the instance's pieces: neither the
    # solver's self-check nor verify_solution nor the writer builds G
    yes = 0
    for inst in random_corpus(40, seed=25_000, v_max=7, ell_max=3):
        sol = solve(inst, "auto")
        if sol is None:
            continue
        yes += 1
        assert verify_solution(inst, sol) == ()
        emit_solution(sol)
        assert "g" not in vars(inst)
    assert yes
