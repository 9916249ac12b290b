"""The process that imports the program and calls it.

Three modes, all started by ``run.py``:

``worker.py build WORKLOAD SEED``
    Draws the workload's cases, makes each instance through the
    program's public constructors, checks the evidence for its answer,
    and prints one JSON line: the hopeless cases and the draws of every
    stratum, each case with its instance text, the constructor call that
    made it, its expected verdict and (for planted cases) the drawn layout.

``worker.py time``
    Reads the constructor calls (JSON on stdin), imports ``stackext``
    and makes every instance again, timed: this is the set-up time.

``worker.py serve``
    Imports ``stackext``, says ``ready``, then reads one JSON request per
    line from stdin and answers each with one JSON line on stdout.  Requests are ``pipeline`` (parse, solve with
    ``auto``, verify, emit: what ``stackext solve FILE -o OUT`` runs),
    ``race`` (the same instance with ``xp``) and ``probes`` (single
    layer calls timed one by one).  The parent kills this process when
    a request overruns its limit, so every time is taken here and sent
    back with the answer.  A request marked ``trace`` also gets back the
    spans recorded around the calls into the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

clock = time.perf_counter


class Spans:
    """Spans of one request: ``[name, start, end, parent, instance]``.

    ``parent`` indexes into the same list, ``-1`` for a root.  A disabled
    recorder only runs the calls.
    """

    def __init__(self, enabled: bool, instance: str):
        self.enabled = enabled
        self.instance = instance
        self.items: list = []

    def call(self, name: str, parent: int, fn, *args):
        idx = self.open(name, parent)
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def open(self, name: str, parent: int) -> int:
        if not self.enabled:
            return -1
        self.items.append([name, clock(), None, parent, self.instance])
        return len(self.items) - 1

    def close(self, idx: int, name: str = "") -> None:
        if idx >= 0:
            self.items[idx][2] = clock()
            self.items[idx][0] = name or self.items[idx][0]


# ---------------------------------------------------------------------------
# build


def recipe(case) -> dict:
    """The constructor call that makes ``case``, as plain JSON."""
    if case.build == "make_instance":
        return {"make_instance": [case.ell, case.spine, case.h_edges,
                                  case.new_vertices, case.new_edges]}
    if case.build == "gen_random":
        return {"gen_random": dict(case.args)}
    return {"reduce_3sat": [case.args["n_vars"], case.args["clauses"]]}


def construct(stackext, how: dict):
    """Call the constructor a recipe names; returns its layer and instance."""
    (name, args), = how.items()
    if name == "make_instance":
        return "model.make_instance", stackext.make_instance(*args)
    if name == "gen_random":
        return "generate.gen_random", stackext.gen_random(**args)
    formula = stackext.Formula(args[0], tuple(tuple(c) for c in args[1]))
    return "reductions.reduce_3sat", stackext.reduce_3sat(formula)[0]


def build(workload: str, seed: int) -> dict:
    """Draw the workload, turn every case into instance text through the
    program's constructors and check its evidence.

    Nothing here is timed: ``time`` repeats the constructor calls in a
    fresh process.  ``gen_random`` draws are redrawn here, with the next
    seed, until the draw succeeds and some new edge between old vertices
    is blocked on every page, so that a recipe makes a usable case at once.
    """
    import stackext
    import gen
    import workloads

    def emit(case) -> dict:
        if case.build == "gen_random":
            while True:
                try:
                    inst = stackext.gen_random(**case.args)
                except stackext.InputError:
                    case.args["seed"] += 1
                    continue
                gen.from_text(case, stackext.emit_instance(inst))
                if gen.blocked_old_edge(case) is not None:
                    break
                case.args["seed"] += 1
        how = recipe(case)
        text = stackext.emit_instance(construct(stackext, how)[1])
        if case.build == "make_instance":
            drawn = gen.pieces(case)
            gen.from_text(case, text)
            if gen.pieces(case) != drawn:
                raise AssertionError(f"{case.id}: instance text differs from its pieces")
        else:
            gen.from_text(case, text)
        gen.check_evidence(case)
        return {
            "id": case.id, "family": case.family, "expect": case.expect,
            "text": text, "recipe": how,
            "witness": json.dumps(case.witness) if case.witness else None,
        }

    once, draws = workloads.schedule(workload, seed)
    return {"once": [emit(c) for c in once],
            "draws": [[emit(c) for c in cases] for cases in draws]}


def time_build(recipes: list) -> dict:
    """Set-up time: import ``stackext``, then make every instance with its
    constructor and write it with ``emit_instance``.  Returns the time, the
    busy time of each constructor and a digest of the texts made."""
    t0 = clock()
    import stackext

    setup = clock() - t0
    busy = {"generate.gen_random": 0.0, "reductions.reduce_3sat": 0.0,
            "model.make_instance": 0.0}
    texts = []
    for how in recipes:
        t = clock()
        layer, inst = construct(stackext, how)
        made = clock()
        texts.append(stackext.emit_instance(inst))
        done = clock()
        busy[layer] += made - t
        setup += done - t
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    return {"setup_s": setup, "busy": busy, "texts_sha256": digest}


# ---------------------------------------------------------------------------
# serve


def serve() -> None:
    import stackext
    from stackext import dpsolver, solvers
    from stackext.model import make_instance, super_intervals
    from stackext.serialize import (
        emit_solution, parse_instance, parse_solution, verify_solution, as_layout,
    )

    sweeps = [0]
    current = {"stats": stackext.SolveStats()}
    plain_sweep = dpsolver.dp_solve_branch

    def counted_sweep(*args, **kwargs):
        sweeps[0] += 1
        return plain_sweep(*args, **kwargs)

    def report_partial(_signum, _frame):
        # asked by the parent just before it kills an overrunning solve
        stats = current["stats"]
        line = json.dumps({"verdict": "timeout", "algo": stats.algorithm,
                           "branches": stats.branches, "cells": stats.cells,
                           "sweeps": sweeps[0]})
        os.write(1, (line + "\n").encode())

    signal.signal(signal.SIGUSR1, report_partial)

    def pipeline(req: dict, spans: Spans) -> dict:
        sweeps[0] = 0
        dpsolver.dp_solve_branch = counted_sweep if spans.enabled else plain_sweep
        stats = current["stats"] = stackext.SolveStats()
        t0 = clock()
        root = spans.open("pipeline", -1)
        inst = spans.call("serialize.parse_instance", root, parse_instance, req["text"])
        solve_at = spans.open("solve.auto", root)
        sol = stackext.solve(inst, "auto", stats)
        spans.close(solve_at, f"solve.auto.{stats.algorithm}")
        out = {"verdict": "no", "solution": None}
        if sol is not None:
            bad = spans.call("serialize.verify_solution", root, verify_solution, inst, sol)
            text = spans.call("serialize.emit_solution", root, emit_solution, sol)
            out = {"verdict": "yes", "solution": text,
                   "program_verify": [str(v) for v in bad]}
        latency = clock() - t0
        spans.close(root)
        out.update(latency_s=latency, algo=stats.algorithm, branches=stats.branches,
                   cells=stats.cells, sweeps=sweeps[0])
        return out

    def race(req: dict, spans: Spans) -> dict:
        inst = parse_instance(req["text"])
        t0 = clock()
        sol = spans.call("solve.xp_race", -1, stackext.solve, inst, "xp")
        race_s = clock() - t0
        if sol is None:
            return {"verdict": "no", "race_s": race_s}
        return {"verdict": "yes", "solution": emit_solution(sol), "race_s": race_s}

    def probes(req: dict, spans: Spans) -> dict:
        inst = parse_instance(req["text"])
        root = spans.open("probes", -1)
        lay = inst.layout_h
        h_edges = [(u, v, p) for (u, v), p in lay.page_of.items()]
        spans.call("model.make_instance", root, make_instance, inst.ell,
                   lay.spine.order, h_edges, inst.new_vertices, inst.new_edges)
        spans.call("model.super_intervals", root, super_intervals, inst)
        algo = spans.call("solve.choose_algorithm", root, stackext.choose_algorithm, inst)
        if inst.n_add:
            spans.call("solvers.feasible_gaps", root, solvers.feasible_gaps, inst)
        lookup = spans.call("dpsolver.FaceLookup", root, dpsolver.FaceLookup, lay)
        if req.get("solution"):
            returned = as_layout(parse_solution(req["solution"]), inst.ell)
            spans.call("model.is_solution", root, inst.is_solution, returned)
        known = req.get("witness") or req.get("solution")
        if known:
            layout = as_layout(parse_solution(known), inst.ell)
            branch = dpsolver.branch_of_solution(inst, layout)
            spans.call("dpsolver.check_branch", root, dpsolver.check_branch, inst, branch)
            spans.call("dpsolver.dp_solve_branch", root, plain_sweep, inst, branch, lookup)
        spans.close(root)
        return {"algo": algo}

    ops = {"pipeline": pipeline, "race": race, "probes": probes}
    sys.stdout.write(json.dumps({"ready": True}) + "\n")
    sys.stdout.flush()
    for line in sys.stdin:
        req = json.loads(line)
        spans = Spans(req.get("trace", False), req.get("id", ""))
        try:
            out = ops[req["op"]](req, spans)
        except stackext.CapacityError as exc:
            out = {"verdict": "capacity", "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - reported to the parent, counted
            out = {"verdict": "error",
                   "error": f"{type(exc).__name__}: {exc}",
                   "traceback": traceback.format_exc(limit=4)}
        out["spans"] = spans.items
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sys.stdout.write(json.dumps(out) + "\n")
        sys.stdout.flush()


def main(argv: list[str]) -> int:
    if argv[:1] == ["build"] and len(argv) == 3:
        print(json.dumps(build(argv[1], int(argv[2]))))
        return 0
    if argv == ["time"]:
        print(json.dumps(time_build(json.load(sys.stdin))))
        return 0
    if argv == ["serve"]:
        serve()
        return 0
    print("usage: worker.py build WORKLOAD SEED | worker.py time | worker.py serve",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
