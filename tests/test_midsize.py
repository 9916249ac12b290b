"""Oracle agreement on planted instances of 20-40 fixed vertices.

The acceptance gate covers instance boxes small enough to enumerate;
here face depths above 1, super intervals and branch pruning come into
play.  Every third draw gets one extra new edge between old vertices,
which turns some instances unextendable.  Few planted draws join two
new vertices, so a second corpus keeps the draws that do: only those
run ``dp-fpt``'s gap sweep rather than its first-fit case.
"""

import pytest

from stackext import (
    InputError,
    SolveStats,
    gen_random,
    page_width,
    solve,
    solve_exhaustive,
    verify_solution,
)

from reference_impl import planted_instance


def _corpus():
    out = []
    for k in range(60):
        n_add = k % 3
        m_add = 3 + (k // 3) % 3
        inst = planted_instance(
            40_000 + k, 20 + (k * 7) % 21, 2, n_add, m_add, extra=k % 3 == 2
        )
        out.append(inst)
    return out


def _linked_corpus(count: int = 14):
    # the first planted draws with an edge between two new vertices
    # (about 1 in 9 with 2-3 new vertices)
    out = []
    k = 0
    while len(out) < count:
        inst = planted_instance(
            46_000 + k, 20 + (k * 7) % 21, 2, 2 + k % 2, 4 + k % 2, extra=k % 3 == 2
        )
        k += 1
        news = set(inst.new_vertices)
        if any(u in news and v in news for u, v in inst.new_edges):
            out.append(inst)
    return out


def test_xp_greedy_and_dp_agree_with_the_oracle():
    corpus = _corpus()
    verdicts = []
    for inst in corpus:
        expected = solve_exhaustive(inst) is not None
        verdicts.append(expected)
        for algo in ("xp", "greedy-is", "dp-fpt"):
            try:
                sol = solve(inst, algo)
            except InputError:
                assert algo == "greedy-is"
                continue
            assert (sol is not None) == expected, (algo, inst.n_add, inst.m_add)
            if sol is not None:
                assert verify_solution(inst, sol) == ()
    assert not all(verdicts) and any(verdicts)
    assert max(page_width(inst.layout_h) for inst in corpus) >= 2


def test_xp_and_dp_agree_with_the_oracle_across_new_vertex_edges():
    verdicts = []
    for inst in _linked_corpus():
        expected = solve_exhaustive(inst) is not None
        verdicts.append(expected)
        with pytest.raises(InputError):
            solve(inst, "greedy-is")
        for algo in ("xp", "dp-fpt"):
            sol = solve(inst, algo)
            assert (sol is not None) == expected, (algo, inst.n_add, inst.m_add)
            if sol is not None:
                assert verify_solution(inst, sol) == ()
    assert not all(verdicts) and any(verdicts)


def _grid():
    # 16 planted draws with 20-111 fixed vertices and up to 12 new edges,
    # then 4 random ones with 80 fixed vertices, 4 new vertices and 8 new
    # edges; no draw joins two new vertices, so ``auto`` runs greedy-is
    out = [
        planted_instance(
            41_000 + k,
            20 + 13 * (k % 8),
            2 + k % 2,
            2 + k % 3,
            5 + (3 * k) % 8,
            extra=k % 4 == 3,
        )
        for k in range(16)
    ]
    out += [
        gen_random(nh=80, mh=120, ell=3, n_add=4, m_add=8, seed=500 + k)
        for k in range(4)
    ]
    return out


def test_grid_verdicts_with_bounded_counted_work():
    # every no-instance of the grid has a new edge between old vertices
    # that fits on no page; the yes-instances need at most 94 branches,
    # where walking the whole page product took up to 237 616
    refuted = {7, 11, 15, 16, 17, 18, 19}
    for k, inst in enumerate(_grid()):
        stats = SolveStats()
        sol = solve(inst, "auto", stats)
        assert stats.algorithm == "greedy-is"
        assert (sol is None) == (k in refuted), k
        assert stats.refuted == ("blocked-edge" if k in refuted else ""), k
        if sol is not None:
            assert verify_solution(inst, sol) == ()
        assert stats.branches <= 200, (k, stats.branches)
