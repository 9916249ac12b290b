"""Command line interface, one command per section."""

import json

import pytest
from click.testing import CliRunner

from stackext import (
    emit_instance,
    emit_solution,
    gen_random,
    make_instance,
    parse_instance,
    parse_solution,
    solve_exhaustive,
)
from stackext import cli
from stackext.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def _write_instance(path, inst):
    path.write_text(emit_instance(inst))
    return str(path)


def _solvable(tmp_path):
    inst = make_instance(
        2,
        ["a", "b", "c", "d"],
        [("a", "c", 1), ("b", "d", 2)],
        ["x"],
        [("x", "a"), ("x", "d")],
    )
    return inst, _write_instance(tmp_path / "inst.json", inst)


def _unsolvable(tmp_path):
    inst = make_instance(
        1,
        ["a", "b", "c", "d"],
        [("a", "c", 1)],
        [],
        [("b", "d")],
    )
    return inst, _write_instance(tmp_path / "dead.json", inst)


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_solution_to_stdout(runner, tmp_path):
    inst, path = _solvable(tmp_path)
    got = runner.invoke(main, ["solve", path])
    assert got.exit_code == 0, got.output
    raw = parse_solution(got.output)
    assert set(raw.spine) == set(inst.g.vertices)


def test_solve_writes_solution_file(runner, tmp_path):
    inst, path = _solvable(tmp_path)
    out = tmp_path / "sol.json"
    got = runner.invoke(main, ["solve", path, "-o", str(out)])
    assert got.exit_code == 0
    assert "solution written to" in got.output
    parse_solution(out.read_text())


def test_solve_unsolvable_exits_1(runner, tmp_path):
    _, path = _unsolvable(tmp_path)
    got = runner.invoke(main, ["solve", path])
    assert got.exit_code == 1
    assert "not extendable" in got.output


def test_solve_each_applicable_algorithm(runner, tmp_path):
    inst, path = _solvable(tmp_path)
    for algo in ("auto", "oracle", "one-vertex", "greedy-is", "xp", "dp-fpt"):
        got = runner.invoke(main, ["solve", path, "--algo", algo])
        assert got.exit_code == 0, (algo, got.output)


def test_solve_emits_branch_stats(runner, tmp_path):
    _, path = _solvable(tmp_path)
    got = runner.invoke(main, ["solve", path, "--algo", "xp",
                               "--emit-branch-stats"])
    assert got.exit_code == 0
    assert "algorithm: xp" in got.output
    assert "branches:" in got.output
    assert "branch ceiling:" in got.output


def test_solve_names_a_presolve_refutation(runner, tmp_path):
    # x sees b only from under the fixed (a, c) and d only from outside it
    blocked = make_instance(
        1, ["a", "b", "c", "d"], [("a", "c", 1)], ["x", "y"],
        [("x", "b"), ("x", "d"), ("y", "a")],
    )
    path = _write_instance(tmp_path / "blocked.json", blocked)
    got = runner.invoke(main, ["solve", path, "--emit-branch-stats"])
    assert got.exit_code == 1
    assert "algorithm: greedy-is" in got.output
    assert "branches: 0" in got.output
    assert "refuted: blocked-vertex" in got.output
    _, path = _solvable(tmp_path)
    got = runner.invoke(main, ["solve", path, "--algo", "dp-fpt",
                               "--emit-branch-stats"])
    assert got.exit_code == 0
    assert "refuted:" not in got.output


def test_solve_capacity_exit(runner, tmp_path):
    inst = gen_random(5, 3, 2, 2, 2, seed=0)
    path = _write_instance(tmp_path / "big.json", inst)
    got = runner.invoke(main, ["solve", path, "--algo", "oracle",
                               "--cap", "5"])
    assert got.exit_code == 3
    assert "error:" in got.output


def test_solve_rejects_garbage_file(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    got = runner.invoke(main, ["solve", str(bad)])
    assert got.exit_code == 2
    assert "error:" in got.output


def test_solve_missing_file(runner, tmp_path):
    got = runner.invoke(main, ["solve", str(tmp_path / "absent.json")])
    assert got.exit_code == 2


def test_solve_crash_exits_4_with_traceback(runner, tmp_path, monkeypatch):
    # an unexpected exception is not a "no" (exit 1) or bad input (exit 2)
    def broken(*args):
        raise RuntimeError("solver produced an invalid layout")

    monkeypatch.setattr(cli, "solve", broken)
    _, path = _solvable(tmp_path)
    got = runner.invoke(main, ["solve", path])
    assert got.exit_code == cli.EXIT_INTERNAL == 4, got.output
    assert "Traceback (most recent call last)" in got.output
    assert "RuntimeError: solver produced an invalid layout" in got.output


@pytest.mark.parametrize("command", ["solve", "verify", "reduce mcc"])
def test_deeply_nested_json_is_an_input_error(runner, tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    _, path = _solvable(tmp_path)
    args = {
        "solve": ["solve", str(deep)],
        "verify": ["verify", path, str(deep)],
        "reduce mcc": ["reduce", "mcc", str(deep)],
    }[command]
    got = runner.invoke(main, args)
    assert got.exit_code == 2
    assert got.exception is None or isinstance(got.exception, SystemExit)
    assert len(got.output.strip().splitlines()) == 1
    assert got.output.startswith("error: not valid JSON")


# ---------------------------------------------------------------------------
# verify


def test_verify_accepts_solver_output(runner, tmp_path):
    inst, path = _solvable(tmp_path)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(emit_solution(solve_exhaustive(inst)))
    got = runner.invoke(main, ["verify", path, str(sol_path)])
    assert got.exit_code == 0
    assert got.output.strip() == "valid"


def test_verify_names_violations(runner, tmp_path):
    inst, path = _solvable(tmp_path)
    sol = solve_exhaustive(inst)
    doc = json.loads(emit_solution(sol))
    doc["pages"][0]["page"] = 99
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(doc))
    got = runner.invoke(main, ["verify", path, str(sol_path)])
    assert got.exit_code == 1
    assert "page-out-of-range" in got.output


# ---------------------------------------------------------------------------
# gen


def test_gen_round_trips(runner, tmp_path):
    out = tmp_path / "gen.json"
    args = ["gen", "--nh", "5", "--mh", "3", "--ell", "2",
            "--n-add", "1", "--m-add", "2", "--seed", "7",
            "-o", str(out)]
    got = runner.invoke(main, args)
    assert got.exit_code == 0
    inst = parse_instance(out.read_text())
    assert len(inst.layout_h.spine) == 5
    again = runner.invoke(main, args[:-2])
    assert again.exit_code == 0
    assert again.output == out.read_text()


def test_gen_rejects_impossible(runner):
    got = runner.invoke(main, ["gen", "--nh", "1", "--mh", "1",
                               "--ell", "1", "--n-add", "0", "--m-add", "0"])
    assert got.exit_code == 2
    assert "error:" in got.output


# ---------------------------------------------------------------------------
# reduce


def test_reduce_3sat_default_paths(runner, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 -2 3 0\n")
    got = runner.invoke(main, ["reduce", "3sat", str(cnf)])
    assert got.exit_code == 0
    inst = parse_instance((tmp_path / "f.instance.json").read_text())
    assert inst.ell == 7
    cert = json.loads((tmp_path / "f.cert.json").read_text())
    assert cert["n_vars"] == 3


def test_reduce_3sat_rejects_bad_cnf(runner, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 0\n")
    got = runner.invoke(main, ["reduce", "3sat", str(cnf)])
    assert got.exit_code == 2


def test_reduce_mcc_default_paths(runner, tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({
        "vertices": [
            {"name": "p", "color": 1},
            {"name": "q", "color": 2},
        ],
        "edges": [["p", "q"]],
    }))
    got = runner.invoke(main, ["reduce", "mcc", str(graph),
                               "--out", str(tmp_path / "i.json"),
                               "--cert", str(tmp_path / "c.json")])
    assert got.exit_code == 0
    inst = parse_instance((tmp_path / "i.json").read_text())
    assert inst.ell == 2
    cert = json.loads((tmp_path / "c.json").read_text())
    assert cert["labels"] == [["p"], ["q"]]


# ---------------------------------------------------------------------------
# render


def test_render_fixed_layout(runner, tmp_path):
    _, path = _solvable(tmp_path)
    got = runner.invoke(main, ["render", path])
    assert got.exit_code == 0
    assert got.output.startswith("<svg ")


def test_render_solution_stacked(runner, tmp_path):
    inst, path = _solvable(tmp_path)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(emit_solution(solve_exhaustive(inst)))
    out = tmp_path / "pic.svg"
    got = runner.invoke(main, ["render", path, "--solution", str(sol_path),
                               "--stacked", "-o", str(out)])
    assert got.exit_code == 0
    assert out.read_text().count(">page ") == inst.ell


def test_render_refuses_invalid_solution(runner, tmp_path):
    inst, path = _solvable(tmp_path)
    sol = solve_exhaustive(inst)
    doc = json.loads(emit_solution(sol))
    doc["spine"] = doc["spine"][:-1]
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(doc))
    got = runner.invoke(main, ["render", path, "--solution", str(sol_path)])
    assert got.exit_code == 2
    assert "refusing to render" in got.output


# ---------------------------------------------------------------------------
# bench


def test_bench_runs_directory(runner, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for seed in range(3):
        inst = gen_random(4, 2, 2, 1, 1, seed=seed)
        (corpus / f"r{seed}.json").write_text(emit_instance(inst))
    got = runner.invoke(main, ["bench", str(corpus), "-a", "xp",
                               "-a", "oracle"])
    assert got.exit_code == 0, got.output
    assert "all verdicts agree" in got.output
    assert got.output.count("r0.json") == 2


def test_bench_empty_directory(runner, tmp_path):
    got = runner.invoke(main, ["bench", str(tmp_path)])
    assert got.exit_code == 2
    assert "no instance files" in got.output


# ---------------------------------------------------------------------------
# stats


def test_stats_reports_sizes(runner, tmp_path):
    inst, path = _solvable(tmp_path)
    got = runner.invoke(main, ["stats", path])
    assert got.exit_code == 0
    assert "fixed vertices" in got.output
    assert "kappa" in got.output
    lines = dict(
        (line.rsplit(None, 1)[0].strip(), line.rsplit(None, 1)[1])
        for line in got.output.splitlines()
    )
    assert lines["new vertices (n_add)"] == "1"
    assert lines["new edges (m_add)"] == "2"
