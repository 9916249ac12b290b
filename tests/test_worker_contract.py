"""The package calls that ``perfbench/worker.py`` makes, pinned.

The benchmark worker stores the answer of its ``probes`` request without
checking it and counts errors only for the plain pipeline, so a renamed
or removed call there would still let a traced run pass.  These tests
make the same calls, in the same way, on small instances.
"""

import stackext
from stackext import dpsolver, solvers
from stackext.model import make_instance, super_intervals
from stackext.serialize import (
    as_layout,
    emit_instance,
    emit_solution,
    parse_instance,
    parse_solution,
    verify_solution,
)


def _linked_instance():
    # one edge between two new vertices, so ``auto`` runs ``dp-fpt``
    return make_instance(
        2, "abc", [("a", "c", 1)], ["x", "y"], [("x", "b"), ("x", "y"), ("y", "c")]
    )


def test_pipeline_counts_sweeps_through_the_module_global(monkeypatch):
    inst = parse_instance(emit_instance(_linked_instance()))
    plain_sweep = dpsolver.dp_solve_branch
    sweeps = [0]

    def counted_sweep(*args, **kwargs):
        sweeps[0] += 1
        return plain_sweep(*args, **kwargs)

    monkeypatch.setattr(dpsolver, "dp_solve_branch", counted_sweep)
    stats = stackext.SolveStats()
    sol = stackext.solve(inst, "auto", stats)
    assert sweeps[0] >= 1
    assert stats.algorithm == "dp-fpt"
    assert stats.branches >= 1 and stats.cells >= 0
    assert sol is not None and verify_solution(inst, sol) == ()
    monkeypatch.undo()

    # the probes: a returned solution read back, its branch and the sweep
    layout = as_layout(parse_solution(emit_solution(sol)), inst.ell)
    assert inst.is_solution(layout)
    branch = dpsolver.branch_of_solution(inst, layout)
    assert dpsolver.check_branch(inst, branch) is None
    lookup = dpsolver.FaceLookup(inst.layout_h)
    assert inst.is_solution(dpsolver.dp_solve_branch(inst, branch, lookup))


def test_probes_rebuild_and_index_the_instance():
    inst = _linked_instance()
    lay = inst.layout_h
    h_edges = [(u, v, p) for (u, v), p in lay.page_of.items()]
    again = make_instance(
        inst.ell, lay.spine.order, h_edges, inst.new_vertices, inst.new_edges
    )
    assert emit_instance(again) == emit_instance(inst)
    # b and c, at ranks 2 and 3, close the first two of three super intervals
    sups = super_intervals(inst)
    got = [(s.index, s.gap_lo, s.gap_hi) for s in sups]
    assert got == [(0, 1, 2), (1, 3, 3), (2, 4, 4)]
    assert stackext.choose_algorithm(inst) == "dp-fpt"
    gaps = solvers.feasible_gaps(inst)
    assert set(gaps) == {"x", "y"}
    assert stackext.solve(inst, "xp") is not None


def test_constructors_the_worker_calls():
    names = ("Formula", "reduce_3sat", "gen_random", "InputError", "CapacityError")
    assert all(hasattr(stackext, name) for name in names)
    formula = stackext.Formula(3, ((1, -2, 3), (-1, 2, 3)))
    inst = stackext.reduce_3sat(formula)[0]
    assert stackext.solve(inst, "xp") is not None

