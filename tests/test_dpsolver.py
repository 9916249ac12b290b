"""Gap-sweep DP: branch checking, table semantics, full solver."""

import itertools
import math
import sys

import pytest

from stackext import (
    BranchAssignment,
    FaceLookup,
    InputError,
    SolveStats,
    branch_of_solution,
    check_branch,
    dp_solve_branch,
    dp_table,
    edge,
    make_instance,
    page_width,
    solve,
    solve_exhaustive,
    solve_fpt,
    solve_greedy_is,
    super_intervals,
    verify_solution,
)

from reference_impl import (
    branch_brute_force,
    enumerate_branches,
    random_corpus,
    reference_extendable,
    reference_implied_crossing,
    small_dp_corpus,
)


def _deep_edges(inst):
    # new edges with at least one new endpoint, canonical order
    old = inst.layout_h.spine
    return [e for e in inst.new_edges if not (e[0] in old and e[1] in old)]


def test_table_base_states():
    inst = make_instance(
        2, ["a", "b", "c"], [("a", "c", 1)], ["x"], [("x", "b")]
    )
    sups = super_intervals(inst)
    branch = BranchAssignment(
        {edge("x", "b"): 1}, ("x",), {"x": 0}, {edge("x", "b"): 1}
    )
    table = dp_table(inst, branch)
    assert table.value(1, 0, 0) == 1
    assert table.value(1, 0, 1) == 0
    assert len(sups) >= 1


def test_branch_validation_rejects_malformed():
    inst = make_instance(
        2, ["a", "b", "c"], [("a", "c", 1)], ["x"], [("x", "b")]
    )
    with pytest.raises(InputError):
        check_branch(
            inst, BranchAssignment({}, ("x",), {"x": 0}, {edge("x", "b"): 0})
        )
    with pytest.raises(InputError):
        check_branch(
            inst,
            BranchAssignment(
                {edge("x", "b"): 5}, ("x",), {"x": 0}, {edge("x", "b"): 0}
            ),
        )


def test_check_branch_reasons():
    inst = make_instance(
        1,
        ["a", "b", "c", "d"],
        [("a", "c", 1)],
        ["x", "y"],
        [("x", "a"), ("y", "d"), ("b", "d")],
    )
    sups = super_intervals(inst)
    # (b, d) crosses the fixed (a, c) on the only page
    branch = BranchAssignment(
        {e: 1 for e in inst.new_edges},
        ("x", "y"),
        {"x": 0, "y": 0},
        {e: 0 for e in _deep_edges(inst)},
    )
    assert check_branch(inst, branch) == "old-crossing"
    # order contradicting super intervals
    two = make_instance(
        2,
        ["a", "b", "c"],
        [],
        ["x", "y"],
        [("x", "a"), ("y", "c")],
    )
    s2 = super_intervals(two)
    assert len(s2) >= 2
    b2 = BranchAssignment(
        {e: 1 for e in two.new_edges},
        ("x", "y"),
        {"x": len(s2) - 1, "y": 0},
        {e: 0 for e in _deep_edges(two)},
    )
    assert check_branch(two, b2) == "order-super-conflict"


def test_implied_crossing_detected():
    inst = make_instance(
        1,
        ["a", "b"],
        [],
        ["x", "y"],
        [("x", "a"), ("y", "b")],
    )
    sups = super_intervals(inst)
    # both vertices in one super interval, edges on one page, but the
    # order x before y makes (x, a) and (y, b) interleave when a's and
    # b's sides differ; build the specific conflicting shape instead
    full = make_instance(
        1,
        ["a", "b", "c", "d"],
        [],
        ["x", "y"],
        [("x", "b"), ("y", "c"), ("x", "d"), ("y", "a")],
    )
    found = None
    for pages in [{e: 1 for e in full.new_edges}]:
        for order in itertools.permutations(full.new_vertices):
            for sup in itertools.product(
                range(len(super_intervals(full))), repeat=2
            ):
                b = BranchAssignment(
                    pages,
                    order,
                    dict(zip(order, sup)),
                    {e: 0 for e in _deep_edges(full)},
                )
                if check_branch(full, b) == "implied-crossing":
                    found = b
                    break
    assert found is not None


def test_implied_crossing_matches_pairwise_reference():
    # every branch past the order and old-crossing checks; depths do not
    # take part in the check, so all are 0
    checked = crossing = 0
    for inst in random_corpus(300, seed=44_000, v_max=7, ell_max=2):
        count = len(super_intervals(inst))
        depths = {e: 0 for e in _deep_edges(inst)}
        for pages in itertools.product(range(1, inst.ell + 1), repeat=inst.m_add):
            pmap = dict(zip(inst.new_edges, pages))
            for order in itertools.permutations(inst.new_vertices):
                for sup in itertools.product(range(count), repeat=inst.n_add):
                    branch = BranchAssignment(pmap, order, dict(zip(order, sup)), depths)
                    got = check_branch(inst, branch)
                    if got in ("order-super-conflict", "old-crossing"):
                        continue
                    checked += 1
                    want = reference_implied_crossing(inst, branch)
                    crossing += want
                    assert (got == "implied-crossing") == want, (inst, branch)
    assert checked >= 10_000 and crossing >= 2_000


def test_dp_branch_verdicts_match_brute_force():
    total_branches = 0
    insts = small_dp_corpus(60, seed=40_000)
    for inst in insts:
        lookup = FaceLookup(inst.layout_h)
        for branch in enumerate_branches(inst):
            if check_branch(inst, branch) is not None:
                continue
            total_branches += 1
            got = dp_solve_branch(inst, branch, lookup) is not None
            want = branch_brute_force(inst, branch)
            assert got == want, (inst, branch)
    assert total_branches >= 500


def test_dp_solutions_comply_with_their_branch():
    for inst in small_dp_corpus(40, seed=41_000):
        lookup = FaceLookup(inst.layout_h)
        for branch in enumerate_branches(inst):
            if check_branch(inst, branch) is not None:
                continue
            sol = dp_solve_branch(inst, branch, lookup)
            if sol is None:
                continue
            assert inst.is_solution(sol)
            back = branch_of_solution(inst, sol)
            assert back.pages == branch.pages
            assert back.order == branch.order
            assert back.depths == branch.depths


def test_dp_branch_needs_depths_only_between_new_vertices():
    # a branch whose depths cover just the edges between two new vertices
    # is realisable exactly when some completion of the other depths is;
    # a depth given to an edge with an old end is enforced
    partial_branches = wrong_depths = 0
    for inst in small_dp_corpus(40, seed=45_000):
        news = set(inst.new_vertices)
        between = [e for e in inst.new_edges if set(e) <= news]
        sups = super_intervals(inst)
        lookup = FaceLookup(inst.layout_h)
        cap = page_width(inst.layout_h) + 1
        realisable: dict = {}
        for branch in enumerate_branches(inst):
            if check_branch(inst, branch) is not None:
                continue
            key = (
                tuple(branch.pages.items()),
                branch.order,
                tuple(branch.supers.items()),
                tuple(branch.depths[e] for e in between),
            )
            realisable[key] = realisable.get(key) or branch_brute_force(inst, branch)
        for (pages, order, supers, depths), want in realisable.items():
            partial = BranchAssignment(
                dict(pages), order, dict(supers), dict(zip(between, depths))
            )
            partial_branches += 1
            assert (dp_solve_branch(inst, partial, lookup) is not None) == want
            for e in set(_deep_edges(inst)) - set(between):
                w = e[0] if e[0] in news else e[1]
                s = sups[partial.supers[w]]
                p = partial.pages[e]
                fixed = {lookup.deepest(p, g) for g in range(s.gap_lo, s.gap_hi + 1)}
                for d in set(range(cap + 1)) - fixed:
                    wrong = BranchAssignment(
                        partial.pages, order, partial.supers, {**partial.depths, e: d}
                    )
                    wrong_depths += 1
                    assert dp_solve_branch(inst, wrong, lookup) is None
    assert partial_branches >= 300 and wrong_depths >= 300


def test_solve_fpt_matches_reference():
    for inst in random_corpus(120, seed=42_000, v_max=6, ell_max=3):
        stats = SolveStats()
        sol = solve_fpt(inst, stats)
        assert (sol is not None) == reference_extendable(inst)
        if sol is not None:
            assert inst.is_solution(sol)
        assert stats.algorithm == "dp-fpt"
        n, m = inst.n_add, inst.m_add
        w = page_width(inst.layout_h)
        assert stats.branches <= (
            inst.ell**m * math.factorial(n) * (2 * m + 1) ** n * (w + 1) ** m
        )


def test_greedy_matches_reference_on_its_domain():
    checked = 0
    for inst in random_corpus(300, seed=43_000, v_max=7, ell_max=3):
        old = inst.layout_h.spine
        if not all(u in old or v in old for u, v in inst.new_edges):
            continue
        checked += 1
        sol = solve_greedy_is(inst)
        assert (sol is not None) == reference_extendable(inst)
        if sol is not None:
            assert inst.is_solution(sol)
        assert solve_fpt(inst) == sol
    assert checked >= 100


def test_greedy_rejects_adjacent_new_vertices():
    inst = make_instance(1, ["a"], [], ["x", "y"], [("x", "y")])
    with pytest.raises(InputError):
        solve_greedy_is(inst)


def test_presolve_refutes_blocked_edges_and_vertices_before_branching():
    # (b, d) alternates with the fixed (a, c) on the only page; x sees b
    # only from under (a, c) and d only from outside it
    spine, fixed = ["a", "b", "c", "d"], [("a", "c", 1)]
    blocked_edge = make_instance(1, spine, fixed, ["x"], [("b", "d"), ("x", "a")])
    blocked_vertex = make_instance(
        1, spine, fixed, ["x", "y"], [("x", "b"), ("x", "d"), ("y", "a")]
    )
    linked = make_instance(
        1, spine, fixed, ["x", "y"], [("x", "b"), ("x", "d"), ("x", "y")]
    )
    cases = [
        (blocked_edge, "blocked-edge", (solve_greedy_is, solve_fpt)),
        (blocked_vertex, "blocked-vertex", (solve_greedy_is, solve_fpt)),
        (linked, "blocked-vertex", (solve_fpt,)),
    ]
    for inst, reason, solvers in cases:
        assert solve_exhaustive(inst) is None
        for solver in solvers:
            stats = SolveStats()
            assert solver(inst, stats) is None
            assert (stats.refuted, stats.branches) == (reason, 0)
    stats = SolveStats()
    assert solve_fpt(make_instance(1, spine, fixed, ["x"], [("x", "b")]), stats)
    assert stats.refuted == ""


def test_fpt_loop_keeps_explicit_stacks():
    # 1200 new vertices, each joined to the middle of a 3-vertex spine on
    # one page: a walk that recursed once per new vertex would exceed
    # the interpreter's recursion limit
    n_add = 1200
    assert n_add > sys.getrecursionlimit()
    news = [f"n{i}" for i in range(n_add)]
    inst = make_instance(1, ("h0", "h1", "h2"), [], news, [(v, "h1") for v in news])
    for algo in ("auto", "greedy-is", "dp-fpt"):
        sol = solve(inst, algo)
        assert sol is not None and verify_solution(inst, sol) == (), algo
