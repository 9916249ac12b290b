"""Exhaustive search: enumeration order, completeness, capacity."""

import pytest

from stackext import (
    CapacityError,
    enumerate_solutions,
    make_instance,
    search_space,
    solve_exhaustive,
)
from stackext.oracle import spine_extensions

from reference_impl import random_corpus, reference_solutions


def _tiny():
    return make_instance(
        2, ["a", "b", "c"], [("a", "c", 1)], ["x", "y"], [("x", "a"), ("x", "y")]
    )


def test_search_space_formula():
    inst = _tiny()
    # two insertions into a 3-vertex spine, two edges over two pages
    assert search_space(inst) == 4 * 5 * 2 * 2


def test_spine_extension_count_and_validity():
    inst = _tiny()
    spines = list(spine_extensions(inst))
    assert len(spines) == 4 * 5
    assert len(set(spines)) == len(spines)
    base = [v for v in inst.layout_h.spine]
    for s in spines:
        assert sorted(s) == sorted(base + list(inst.new_vertices))
        assert [v for v in s if v in set(base)] == base


@pytest.mark.parametrize("idx", range(40))
def test_full_solution_sets_match_reference(idx):
    inst = random_corpus(40, seed=20_000, v_max=6, ell_max=2, m_add_max=3)[idx]
    got = {
        (sol.spine.order, tuple(sorted(sol.page_of.items())))
        for sol in enumerate_solutions(inst)
    }
    want = set()
    for spine, pages in reference_solutions(inst):
        all_pages = dict(inst.layout_h.page_of)
        all_pages.update(pages)
        want.add((spine, tuple(sorted(all_pages.items()))))
    assert got == want


def test_exhaustive_verdict_and_validity():
    for inst in random_corpus(30, seed=21_000, v_max=6, ell_max=2):
        sol = solve_exhaustive(inst)
        if sol is not None:
            assert inst.is_solution(sol)


def test_cap_argument_trips():
    inst = _tiny()
    with pytest.raises(CapacityError):
        solve_exhaustive(inst, cap=10)
    with pytest.raises(CapacityError):
        list(enumerate_solutions(inst, cap=10))


def test_empty_instance_is_trivially_extendable():
    inst = make_instance(1, [], [], [], [])
    sol = solve_exhaustive(inst)
    assert sol is not None and len(sol.spine) == 0
    assert search_space(inst) == 1
