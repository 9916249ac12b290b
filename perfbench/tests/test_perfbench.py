"""Self-tests of the benchmark: its generators, its own checks, and that a
wrong answer from the program fails a run.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stackext import (  # noqa: E402
    Formula,
    emit_solution,
    gen_random,
    is_satisfiable,
    make_instance,
    reduce_3sat,
    solve,
    solve_exhaustive,
)
from stackext.serialize import emit_instance  # noqa: E402

TINY = {
    "planted": dict(n_h=6, ell=2, n_add=2, m_add=(2, 4), new_new=False),
    "planted-nn": dict(n_h=5, ell=2, n_add=2, m_add=(2, 3), new_new=True),
    "planted-one": dict(n_h=8, ell=2, n_add=1, m_add=(2, 3), new_new=False,
                        old_cuts=False),
    "planted-early": dict(n_h=8, ell=2, n_add=2, m_add=(2, 3), new_new=False,
                          first_page=True, new_first=True),
    "blocked-gap": dict(n_h=2, ell=2, n_add=1, m_add=(1, 1), new_new=False,
                        old_cuts=False),
    "blocked-edge-large": dict(n_h=10, ell=1, n_add=1, m_add=(1, 2), new_new=False,
                               per_vertex=1.0),
}


def _instance(case: gen.Case):
    return make_instance(case.ell, case.spine, case.h_edges, case.new_vertices,
                         case.new_edges)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("seed", range(6))
def test_tiny_labels_agree_with_the_oracle(name, seed):
    family = name.split("-")[0] if name.startswith("planted") else name
    case = workloads.draw(random.Random(f"tiny:{seed}"), f"t{seed}", family, TINY[name])
    gen.check_evidence(case)
    sol = solve_exhaustive(_instance(case))
    assert (sol is not None) == case.expect


@pytest.mark.parametrize("seed", range(6))
def test_tiny_gen_random_blocked_edges_are_no_instances(seed):
    case = gen.blocked_edge_draw(random.Random(seed), "t", nh=8, mh=5, ell=2,
                                 n_add=0, m_add=3)
    for k in range(200):
        inst = gen_random(**dict(case.args, seed=case.args["seed"] + k))
        gen.from_text(case, emit_instance(inst))
        if gen.blocked_old_edge(case):
            break
    else:
        pytest.skip("no blocked draw at this size")
    gen.check_evidence(case)
    assert solve_exhaustive(inst) is None


@pytest.mark.parametrize("seed", range(4))
def test_3cnf_labels_agree_with_the_program(seed):
    # the reductions are too large for the oracle's cap; xp settles them
    rng = random.Random(seed)
    for case in (gen.sat_case(rng, "s", 3, 3, True), gen.unsat_3cnf(rng, "u", 3)):
        gen.check_evidence(case)
        formula = Formula(case.args["n_vars"], tuple(map(tuple, case.args["clauses"])))
        assert is_satisfiable(formula) == case.expect
        inst, _cert = reduce_3sat(formula)
        assert (solve(inst, "xp") is not None) == case.expect


def test_stack_scan_matches_pairwise_alternation():
    rng = random.Random(0)
    for _ in range(2000):
        n = rng.randint(2, 9)
        arcs = set()
        for _ in range(rng.randint(1, 6)):
            a, b = sorted(rng.sample(range(n), 2))
            arcs.add((a, b))
        arcs = list(arcs)
        pairwise = not any(
            gen.alternate(a, b, c, d)
            for (a, b), (c, d) in itertools.combinations(arcs, 2)
        )
        assert gen.page_crossing_free(arcs) == pairwise


def _drawn(seed):
    once, draws = workloads.schedule("refute", seed)
    return [(c.id, gen.pieces(c), c.args) for c in once + [d for s in draws for d in s]]


def test_same_seed_same_cases_and_other_seed_other_cases():
    one = _drawn(3)
    assert one == _drawn(3)
    assert [x[1:] for x in one] != [x[1:] for x in _drawn(4)]


def test_rounds_take_each_stratum_draw_in_turn():
    strata = workloads.STRATA["planted"]
    draws = [[(k, d) for d in range(distinct)]
             for k, (_f, _s, _r, distinct) in enumerate(strata)]
    first = workloads.round_of("planted", draws, 0)
    assert len(first) == sum(per_round for _f, _s, per_round, _d in strata)
    rounds = [workloads.round_of("planted", draws, r) for r in range(240)]
    for k, cases in enumerate(draws):
        picks = [x for rnd in rounds for x in rnd if x[0] == k]
        # every draw comes up before any comes up twice
        assert sorted(picks[:len(cases)]) == cases


def _planted_case():
    case = gen.planted(random.Random(5), "p", 12, 2, 1, (2, 3), False)
    return case, json.loads(json.dumps({"id": case.id, "family": case.family,
                                        "expect": case.expect,
                                        "text": emit_instance(_instance(case))}))


def test_check_flags_wrong_verdicts_and_bad_layouts():
    case, record = _planted_case()
    pieces = run.pieces_of(record)
    sol = solve(_instance(case))
    good = {"verdict": "yes", "solution": emit_solution(sol)}
    assert run.check(record, pieces, good) == (True, "")
    assert run.check(record, pieces, {"verdict": "no"})[1]
    doc = json.loads(good["solution"])
    doc["spine"].reverse()
    assert run.check(record, pieces, {"verdict": "yes", "solution": json.dumps(doc)})[1]
    assert run.check(record, pieces, {"verdict": "timeout"}) == (False, "")


def test_tail_is_the_eleventh_largest_sample():
    values = list(range(1, 101))
    assert report.tail(values) == (90, 90.0)
    assert report.tail([3.0, 1.0]) == (3.0, 100.0)


def _copy_checkout(tmp_path, with_src=True):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return tmp_path


def _run(where, *extra, workload="planted"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "0.1", *extra]
    return subprocess.run(cmd, cwd=where, capture_output=True, text=True, timeout=170)


def test_a_wrong_verdict_fails_the_run(tmp_path):
    where = _copy_checkout(tmp_path)
    solve_py = where / "src" / "stackext" / "solve.py"
    text = solve_py.read_text()
    # every instance answered "not extendable": planted ones become wrong
    first = '    if algo == "auto":\n'
    assert first in text
    text = text.replace(first, "    return None\n" + first, 1)
    solve_py.write_text(text)
    done = _run(where)
    assert done.returncode == 1
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert "wrong:" in done.stdout


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    where = _copy_checkout(tmp_path, with_src=False)
    done = _run(where)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_traced_run_reports_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        wanted = {m["name"] for m in json.load(fh)["per_layer"]}
    done = _run(ROOT, "--trace", "1", workload="refute")
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == wanted
    for name in ("model.make_instance.busy_s", "solve.xp_race.busy_s",
                 "serialize.parse_instance.busy_s", "solve.auto.greedy-is.busy_s"):
        assert metrics[name]["value"] > 0, name
