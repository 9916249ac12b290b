"""Ship gate: nine end-to-end checks over the whole package.

Each test prints one summary line; run with ``-v`` to get a pass/fail
line per check.  ``STACKEXT_ACCEPTANCE=full`` switches the first check
from its default corpus (a complete box of small instances plus the
random pool) to the complete stated box, which enumerates 8.4 million
instances and runs well over an hour.
"""

import itertools
import os
import random
import time

from stackext import (
    BranchAssignment,
    CliqueInstance,
    Formula,
    GadgetCertificate,
    InputError,
    SolveStats,
    all_clauses,
    branch_bound,
    build_fixation_gadget,
    check_branch,
    check_reduction_lemmas,
    dp_solve_branch,
    dp_table,
    edge,
    emit_instance,
    emit_solution,
    enumerate_solutions,
    evaluate,
    fixation_gadget_size,
    gen_random,
    is_satisfiable,
    make_instance,
    page_width,
    parse_instance,
    parse_solution,
    random_clique_instance,
    random_formula,
    reduce_3sat,
    reduce_mcc,
    reduce_safe_edges,
    solve_edges_only,
    solve_exhaustive,
    solve_fpt,
    solve_greedy_is,
    solve_one_vertex,
    solve_xp,
    verify_solution,
)
from stackext.serialize import RawSolution, as_layout

from reference_impl import (
    branch_brute_force,
    enumerate_branches,
    enumerate_box,
    random_corpus,
    small_dp_corpus,
)

FULL = os.environ.get("STACKEXT_ACCEPTANCE", "").lower() == "full"


def _battery(inst):
    """Every exact solver whose preconditions the instance meets."""
    out = {
        "xp": solve_xp(inst) is not None,
        "dp-fpt": solve_fpt(inst) is not None,
    }
    if inst.n_add == 0:
        out["edges-fpt"] = solve_edges_only(inst) is not None
    if inst.n_add == 1 and not inst.new_old_edges:
        out["one-vertex"] = solve_one_vertex(inst) is not None
    old = inst.layout_h.spine
    if all(u in old or v in old for u, v in inst.new_edges):
        out["greedy-is"] = solve_greedy_is(inst) is not None
    return out


def test_criterion_1_all_solvers_agree_with_the_oracle():
    start = time.monotonic()
    if FULL:
        corpus = enumerate_box(5, 6, (1, 2), 2, 3)
    else:
        corpus = itertools.chain(
            enumerate_box(4, 4, (1, 2), 2, 2),
            random_corpus(500, seed=70_000, v_max=8, ell_max=3),
        )
    checked = 0
    runs = 0
    for inst in corpus:
        checked += 1
        want = solve_exhaustive(inst) is not None
        got = _battery(inst)
        runs += len(got)
        disagree = {name for name, v in got.items() if v != want}
        assert not disagree, (sorted(disagree), inst)
    elapsed = time.monotonic() - start
    assert checked >= (37_872 + 500 if not FULL else 8_000_000)
    if not FULL:
        assert elapsed < 600.0
    print(
        f"criterion 1: pass - {checked} instances, {runs} solver runs, "
        f"0 disagreements, {elapsed:.1f}s"
    )


def test_criterion_2_safe_edge_reduction_keeps_the_verdict():
    rng = random.Random(71_500)
    checked = 0
    shrunk = 0
    while checked < 200:
        nh = rng.randint(2, 7)
        mh = rng.randint(0, min(6, nh * (nh - 1) // 2))
        ell = rng.randint(1, 3)
        m_add = rng.randint(1, 4)
        try:
            inst = gen_random(nh, mh, ell, 0, m_add, seed=rng.randint(0, 10**6))
        except InputError:
            continue
        checked += 1
        reduced, removed = reduce_safe_edges(inst)
        shrunk += bool(removed)
        assert set(removed) | set(reduced.new_edges) == set(inst.new_edges)
        before = solve_edges_only(inst) is not None
        after = solve_edges_only(reduced) is not None
        assert before == after, inst
        assert before == (solve_exhaustive(inst) is not None)
    assert shrunk >= 20
    print(
        f"criterion 2: pass - {checked} edge-only instances, "
        f"{shrunk} actually shrank, verdicts identical"
    )


def test_criterion_3_gadget_size_formulas():
    checked = 0
    for f_count in range(1, 5):
        for ell in range(2, 9):
            edges = (ell + 4) * f_count + ell + 2
            assert fixation_gadget_size(f_count, ell, simple=True) == (
                2 * f_count * ell + 2 * ell - 1,
                edges,
            )
            assert fixation_gadget_size(f_count, ell, simple=False) == (
                4 * f_count + 3,
                edges,
            )
            inst = build_fixation_gadget(f_count, ell)
            assert len(inst.g.vertices) == 2 * f_count * ell + 2 * ell - 1
            assert len(inst.g.edges) == edges
            checked += 1
    print(f"criterion 3: pass - {checked} (anchors, pages) combinations")


def test_criterion_4_gadget_forces_anchor_placement():
    combos = 0
    for f_count, ell in itertools.product((1, 2), (2, 3)):
        inst = build_fixation_gadget(f_count, ell)
        sols = list(enumerate_solutions(inst))
        assert sols
        for sol in sols:
            for i in range(1, f_count + 1):
                assert (
                    sol.rank_of(f"v{i}")
                    < sol.rank_of(f"f{i}")
                    < sol.rank_of(f"v{i + 1}")
                )
                assert sol.page_of[edge(f"f{i}", f"v{i}")] == ell
                assert sol.page_of[edge(f"f{i}", f"v{i + 1}")] == ell
        rep = check_reduction_lemmas(inst, GadgetCertificate(f_count, ell))
        assert rep.solutions == len(sols) and rep.ok
        combos += 1
    print(f"criterion 4: pass - {combos} gadget shapes, every solution pinned")


def test_criterion_5_satisfiability_reduction():
    start = time.monotonic()
    eight = all_clauses(3)
    census = [Formula(3, ())]
    census += [Formula(3, (c,)) for c in eight]
    census += [
        Formula(3, pair)
        for pair in itertools.combinations_with_replacement(eight, 2)
    ]
    assert len(census) == 45
    rng = random.Random(71_000)
    census += [random_formula(rng, 3, rng.randint(1, 3)) for _ in range(50)]
    # every formula with at most three clauses is satisfiable, so add
    # the one three-variable formula that rules out all eight assignments
    census.append(Formula(3, tuple(eight)))
    n_sat = n_unsat = 0
    for f in census:
        inst, cert = reduce_3sat(f)
        assert inst.ell == 2 * f.n_vars + 1
        assert inst.n_add == 2
        sol = solve_xp(inst)
        assert (sol is not None) == is_satisfiable(f), f
        if sol is None:
            n_unsat += 1
        else:
            n_sat += 1
            assert evaluate(f, cert.extract_assignment(sol))
    elapsed = time.monotonic() - start
    assert n_sat >= 95 and n_unsat >= 1
    assert elapsed < 900.0
    print(
        f"criterion 5: pass - {len(census)} formulas ({n_sat} sat, "
        f"{n_unsat} unsat), verdicts and extractions agree, {elapsed:.1f}s"
    )


def test_criterion_6_clique_reduction():
    rng = random.Random(72_000)
    trials = []
    for _ in range(20):
        trials.append(
            random_clique_instance(
                rng, (rng.randint(1, 3), rng.randint(1, 3)), density=0.6
            )
        )
    for _ in range(9):
        trials.append(
            random_clique_instance(
                rng,
                (rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)),
                density=0.7,
            )
        )
    trials.append(random_clique_instance(rng, (3, 1, 1), density=0.8))
    trials.append(
        CliqueInstance((1, 1, 1), (((1, 1), (2, 1)), ((1, 1), (3, 1))))
    )
    assert len(trials) >= 30
    pos = neg = 0
    for gc in trials:
        inst, cert = reduce_mcc(gc)
        k = gc.k
        assert inst.ell == gc.m + 1
        assert inst.kappa == 3 * k + k * (k - 1) // 2
        assert page_width(inst.layout_h) <= 3
        sol = solve_xp(inst)
        assert (sol is not None) == gc.has_colorful_clique(), gc
        if sol is None:
            neg += 1
            continue
        pos += 1
        picks = cert.extract_selection(sol)
        assert picks in set(gc.colorful_cliques())
    assert pos >= 1 and neg >= 1
    print(
        f"criterion 6: pass - {len(trials)} part-indexed graphs "
        f"({pos} with cliques, {neg} without), extraction always a clique"
    )


def test_criterion_7_sweep_matches_branch_constrained_search():
    inst = make_instance(
        2, ["a", "b", "c"], [("a", "c", 1)], ["x"], [("x", "b")]
    )
    branch = BranchAssignment(
        {edge("x", "b"): 1}, ("x",), {"x": 0}, {edge("x", "b"): 1}
    )
    table = dp_table(inst, branch)
    assert table.value(1, 0, 0) == 1
    assert table.value(1, 0, 1) == 0
    instances = small_dp_corpus(100, seed=40_500)
    assert len(instances) == 100
    branches = 0
    for inst in instances:
        for branch in enumerate_branches(inst):
            if check_branch(inst, branch) is not None:
                continue
            branches += 1
            got = dp_solve_branch(inst, branch) is not None
            assert got == branch_brute_force(inst, branch), (inst, branch)
    assert branches >= 500
    print(
        f"criterion 7: pass - base cells exact, {branches} consistent "
        f"branches over {len(instances)} instances match brute force"
    )


def test_criterion_8_branch_counters_stay_under_their_ceilings():
    checked_xp = checked_dp = 0
    for inst in random_corpus(200, seed=73_000, v_max=7, ell_max=3):
        stats = SolveStats()
        solve_xp(inst, stats)
        assert stats.branches <= branch_bound(inst, "xp"), inst
        checked_xp += 1
        stats = SolveStats()
        solve_fpt(inst, stats)
        assert stats.branches <= branch_bound(inst, "dp-fpt"), inst
        checked_dp += 1
    assert branch_bound(gen_random(3, 1, 1, 1, 1, seed=0), "oracle") is None
    print(
        f"criterion 8: pass - counters bounded on {checked_xp} searches "
        f"and {checked_dp} sweeps"
    )


def _mutants(inst, sol):
    """Broken variants of a solution: a moved fixed edge, a swapped
    adjacent fixed pair.  Yields (raw, expected code)."""
    raw = parse_solution(emit_solution(sol))
    lay = inst.layout_h
    if inst.ell >= 2 and lay.page_of:
        (u, v), p = sorted(lay.page_of.items())[0]
        flipped = tuple(
            (a, b, p % inst.ell + 1 if edge(a, b) == edge(u, v) else q)
            for a, b, q in raw.pages
        )
        yield RawSolution(raw.spine, flipped), "old-edge-page-changed"
    spine = raw.spine
    for i in range(len(spine) - 1):
        a, b = spine[i], spine[i + 1]
        if a in lay.spine and b in lay.spine:
            swapped = list(spine)
            swapped[i], swapped[i + 1] = b, a
            yield RawSolution(tuple(swapped), raw.pages), "spine-order-changed"
            break


def test_criterion_9_files_round_trip_and_mutants_are_rejected():
    round_trips = 0
    accepted = 0
    rejected = {"old-edge-page-changed": 0, "spine-order-changed": 0}
    for inst in random_corpus(220, seed=74_000, v_max=7, ell_max=3):
        if round_trips < 100:
            text = emit_instance(inst)
            assert emit_instance(parse_instance(text)) == text
            round_trips += 1
        sol = solve_exhaustive(inst)
        if sol is None:
            continue
        assert verify_solution(inst, sol) == ()
        text = emit_solution(sol)
        raw = parse_solution(text)
        assert emit_solution(as_layout(raw, inst.ell)) == text
        accepted += 1
        if sum(rejected.values()) < 50:
            for mutant, code in _mutants(inst, sol):
                got = verify_solution(inst, mutant)
                assert got, (inst, code)
                assert code in {v.code for v in got}
                rejected[code] += 1
    assert round_trips == 100
    assert accepted >= 50
    assert sum(rejected.values()) >= 50
    assert all(count > 0 for count in rejected.values())
    print(
        f"criterion 9: pass - {round_trips} byte-identical round trips, "
        f"{accepted} solver outputs accepted, "
        f"{sum(rejected.values())} mutants rejected {dict(rejected)}"
    )
