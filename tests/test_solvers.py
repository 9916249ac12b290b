"""Targeted solvers: safe-edge reduction, single vertex, spine search."""

import math

import pytest

from stackext import (
    FaceLookup,
    InputError,
    SolveStats,
    candidate_pages,
    enumerate_solutions,
    make_instance,
    reduce_safe_edges,
    solve_edges_only,
    solve_exhaustive,
    solve_one_vertex,
    solve_xp,
    solve,
    verify_solution,
)
from stackext.solvers import _colex_multisets, feasible_gaps

from reference_impl import random_corpus, reference_extendable


def _edges_only(count, seed):
    out = []
    for inst in random_corpus(count * 3, seed, v_max=7, ell_max=3):
        if inst.n_add == 0:
            out.append(inst)
        if len(out) == count:
            break
    return out


def test_candidate_pages_ignores_other_new_edges():
    inst = make_instance(
        2,
        ["a", "b", "c", "d"],
        [("a", "c", 1)],
        [],
        [("b", "d"), ("a", "d")],
    )
    # (b, d) alternates with the fixed (a, c) on page 1 only
    assert candidate_pages(inst, ("b", "d")) == frozenset({2})
    assert candidate_pages(inst, ("a", "d")) == frozenset({1, 2})


def test_candidate_pages_rejects_unknown_edge():
    inst = make_instance(2, ["a", "b", "c"], [], [], [("a", "b")])
    with pytest.raises(InputError):
        candidate_pages(inst, ("a", "c"))


def test_reduce_safe_edges_requires_no_new_vertices():
    inst = make_instance(1, ["a", "b"], [], ["x"], [("x", "a")])
    with pytest.raises(InputError):
        reduce_safe_edges(inst)


def test_reduce_safe_edges_shrinks_and_preserves_verdict():
    hits = 0
    for inst in _edges_only(80, seed=30_000):
        reduced, removed = reduce_safe_edges(inst)
        assert set(reduced.new_edges) | set(removed) == set(inst.new_edges)
        assert not set(reduced.new_edges) & set(removed)
        hits += bool(removed)
        before = solve_exhaustive(inst) is not None
        after = solve_exhaustive(reduced) is not None
        assert before == after
    assert hits > 10  # the rule fires often enough to mean something


def test_removed_edges_fit_widely():
    for inst in _edges_only(40, seed=31_000):
        reduced, removed = reduce_safe_edges(inst)
        # replay the removal: each edge taken fit on >= edges-left pages
        left = list(inst.new_edges)
        for e in removed:
            assert len(candidate_pages(inst, e)) >= len(left)
            left.remove(e)


def test_edges_only_matches_reference():
    for inst in _edges_only(120, seed=32_000):
        sol = solve_edges_only(inst)
        assert (sol is not None) == reference_extendable(inst)
        if sol is not None:
            assert inst.is_solution(sol)
            assert sol.spine.order == inst.layout_h.spine.order


def test_edges_only_rejects_new_vertices():
    inst = make_instance(1, ["a"], [], ["x"], [("a", "x")])
    with pytest.raises(InputError):
        solve_edges_only(inst)


def test_one_vertex_matches_reference():
    checked = 0
    for inst in random_corpus(400, seed=33_000, v_max=7, ell_max=3):
        if inst.n_add != 1 or inst.new_old_edges:
            continue
        checked += 1
        sol = solve_one_vertex(inst)
        assert (sol is not None) == reference_extendable(inst)
        if sol is not None:
            assert inst.is_solution(sol)
    assert checked >= 40


def test_colex_multiset_order():
    got = list(_colex_multisets(3, 2))
    assert got == [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]
    assert list(_colex_multisets(4, 0)) == [()]
    assert len(list(_colex_multisets(5, 3))) == math.comb(5 + 2, 3)


def test_feasible_gaps_keep_every_solution():
    for inst in random_corpus(60, seed=34_000, v_max=6, ell_max=2):
        if inst.n_add == 0:
            continue
        ok = feasible_gaps(inst)
        for sol in enumerate_solutions(inst):
            old_ranks = sorted(
                sol.rank_of(w) for w in inst.layout_h.spine
            )
            for v in inst.new_vertices:
                r = sol.rank_of(v)
                gap = sum(1 for x in old_ranks if x < r) + 1
                assert gap in ok[v]


def test_xp_matches_reference():
    for inst in random_corpus(150, seed=35_000, v_max=7, ell_max=3):
        stats = SolveStats()
        sol = solve_xp(inst, stats)
        assert (sol is not None) == reference_extendable(inst)
        if sol is not None:
            assert inst.is_solution(sol)
        assert stats.algorithm == "xp"


def test_xp_branch_counter_exact_on_failure():
    """An unextendable run visits every (gaps, order) pair, no more."""
    seen = 0
    for inst in random_corpus(200, seed=36_000, v_max=6, ell_max=2):
        stats = SolveStats()
        sol = solve_xp(inst, stats)
        nh = len(inst.layout_h.spine)
        bound = math.prod(range(nh + 1, nh + inst.n_add + 1))
        assert stats.branches <= max(bound, 1)
        if sol is None and inst.n_add > 0:
            assert stats.branches == bound
            seen += 1
    assert seen >= 10


def test_xp_handles_old_old_new_edges():
    inst = make_instance(
        1,
        ["a", "b", "c", "d"],
        [("a", "d", 1)],
        ["x"],
        [("b", "c"), ("x", "a")],
    )
    sol = solve_xp(inst)
    assert sol is not None and inst.is_solution(sol)
    blocked = make_instance(
        1,
        ["a", "b", "c", "d"],
        [("a", "c", 1)],
        ["x"],
        [("b", "d"), ("x", "b")],
    )
    assert solve_xp(blocked) is None


@pytest.mark.parametrize("algo", ["auto", "xp", "oracle"])
def test_long_nested_core_solves_without_recursion(algo):
    # 1200 nested new edges on one page: none can be set aside as safe,
    # so the whole core is searched, deeper than the recursion limit
    spine = [f"v{i:04d}" for i in range(1, 2601)]
    nested = [(spine[i], spine[-1 - i]) for i in range(1200)]
    inst = make_instance(1, spine, [], [], nested)
    sol = solve(inst, algo)
    assert sol is not None
    assert verify_solution(inst, sol) == ()


@pytest.mark.parametrize(
    "algo", ["xp", "one-vertex", "greedy-is", "dp-fpt", "edges-fpt"]
)
def test_solvers_refuse_to_return_an_invalid_layout(algo, monkeypatch):
    # with visibility faked to allow every page, each solver picks a
    # placement or page that crosses the fixed edge (a, c); the check in
    # the shared layout assembler must catch it
    if algo == "edges-fpt":
        inst = make_instance(1, "abcd", [("a", "c", 1)], [], [("b", "d")])
    else:
        inst = make_instance(1, "abc", [("a", "c", 1)], ["x"], [("x", "b")])
        assert solve(inst, algo) is not None
    every_page = frozenset(range(1, inst.ell + 1))
    monkeypatch.setattr(FaceLookup, "pages_fitting", lambda self, a, b: every_page)
    with pytest.raises(RuntimeError, match="invalid layout"):
        solve(inst, algo)
