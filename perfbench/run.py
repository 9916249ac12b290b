"""Benchmark of the ``stackext solve`` pipeline on seeded workloads.

Usage::

    python3 perfbench/run.py --workload planted --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  Set-up draws the workload's instances (see ``workloads.py``),
then builds them through the program's constructors in fresh processes,
several times, and reports the median time.  Then a closed loop with one
client sends each instance's text to one worker process and waits for
the checked verdict, round after round, until ``--seconds`` have passed.
A request that overruns the per-instance limit is killed from here and
counts as undecided at the limit.

Every verdict is compared with the answer the benchmark knows on its
own, and every returned layout is re-checked with the benchmark's own
crossing test.  A wrong verdict or a bad layout makes the run exit 1.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, derived from spans recorded around every call into the
program (written to ``.perfbench_out/``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402  (benchmark-local modules, found through HERE)
import report  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_RUNS = 5
clock = time.perf_counter


class Lines:
    """JSON lines from a pipe, each read with a deadline."""

    def __init__(self, fd: int):
        self.fd = fd
        self.buf = b""

    def next(self, deadline: float):
        """The next line, or ``None`` at the deadline or end of input."""
        while b"\n" not in self.buf:
            left = deadline - clock()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, 1 << 20)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        try:
            return json.loads(line)
        except ValueError:
            return {"verdict": "error", "error": "unreadable answer"}


class Worker:
    """One ``worker.py serve`` process, started again after every kill.

    A process per request would also run each solve in a fresh process,
    as ``stackext solve`` does, but its start-up would then take most of
    the loop's time.  The process has imported the program before any
    request's clock starts.
    """

    def __init__(self):
        self.proc = None
        self.lines = None
        self.peak_rss_kb = 0

    def start(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, "serve"], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.lines = Lines(self.proc.stdout.fileno())
        if self.lines.next(clock() + 120.0) != {"ready": True}:
            self.stop(kill=True)
            raise RuntimeError("worker did not start")

    def request(self, req: dict, limit: float) -> tuple[dict, float]:
        """Answer and elapsed seconds.

        A request still running at ``limit`` gets the verdict ``timeout``:
        the worker is asked (SIGUSR1) for the counters of the interrupted
        solve, which come back as ``partial``, and is then killed.
        """
        if self.proc is None:
            self.start()
        t0 = clock()
        try:
            self.proc.stdin.write((json.dumps(req) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.stop(kill=True)
            return {"verdict": "error", "error": "worker died"}, clock() - t0
        got = self.lines.next(t0 + limit)
        elapsed = clock() - t0
        if got is not None:
            # peak memory of answered requests only: at a kill it depends
            # on how far the search got, not on the instance
            self.peak_rss_kb = max(self.peak_rss_kb, got.get("rss_kb", 0))
            return got, elapsed
        if elapsed < limit:
            self.stop(kill=True)
            return {"verdict": "error", "error": "worker died"}, elapsed
        self.proc.send_signal(signal.SIGUSR1)
        partial = self.lines.next(clock() + 1.0)
        self.stop(kill=True)
        return {"verdict": "timeout", "partial": partial}, elapsed

    def stop(self, kill: bool = False) -> None:
        """End the worker, at end of input or killed, and reap it."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if kill:
            proc.kill()
        else:
            proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:
                pass


def set_up(workload: str, seed: int) -> dict:
    """Draw the workload once, then time its construction ``SETUP_RUNS``
    times, each in a fresh process.

    Returns the hopeless cases (``once``), the draws of every stratum, and
    the median set-up time with the constructor busy times of that median
    build.  Every timed build must make the same instance texts.
    """
    done = subprocess.run(
        [sys.executable, WORKER, "build", workload, str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=170,
    )
    built = json.loads(done.stdout.decode().strip().splitlines()[-1])
    cases = built["once"] + [c for d in built["draws"] for c in d]
    recipes = json.dumps([c["recipe"] for c in cases]).encode()
    digest = hashlib.sha256("\n".join(c["text"] for c in cases).encode()).hexdigest()
    timings = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, WORKER, "time"], input=recipes,
            cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120,
        )
        timed = json.loads(done.stdout.decode().strip().splitlines()[-1])
        if timed["texts_sha256"] != digest:
            raise RuntimeError("set-up is not deterministic: builds differ")
        timings.append(timed)
    samples = [t["setup_s"] for t in timings]
    middle = sorted(timings, key=lambda t: t["setup_s"])[len(timings) // 2]
    return {"once": built["once"], "draws": built["draws"],
            "setup_s": middle["setup_s"], "busy": middle["busy"],
            "setup_samples": samples}


def check(case: dict, pieces: gen.Case, got: dict) -> tuple[bool, str]:
    """Is the answer decided, and is it wrong?  ``(decided, problem)``."""
    verdict = got.get("verdict")
    if verdict == "yes":
        sol = json.loads(got["solution"])
        triples = [(e["u"], e["v"], e["page"]) for e in sol["pages"]]
        problems = gen.layout_problems(pieces, sol["spine"], triples)
        if problems:
            return False, f"returned layout fails the check: {problems[0]}"
        if got.get("program_verify"):
            return False, "verify_solution rejects the returned layout"
        if not case["expect"]:
            return False, "layout returned for a no-instance"
        return True, ""
    if verdict == "no":
        if case["expect"]:
            return False, "not extendable, but the instance is"
        return True, ""
    return False, ""


def pieces_of(case: dict) -> gen.Case:
    return gen.from_text(gen.Case(case["id"], case["family"], "", case["expect"]),
                         case["text"])


def run_one(worker: Worker, case: dict, pieces: gen.Case, limit: float,
            traced: bool, flip: bool) -> dict:
    """All requests for one instance; returns its record."""
    rec = {"id": case["id"], "family": case["family"], "expect": case["expect"],
           "bytes": len(case["text"]), "t0": clock()}
    modes = [False, True] if traced else [False]
    if flip:
        modes.reverse()
    for with_spans in modes:
        req = {"op": "pipeline", "id": case["id"], "text": case["text"],
               "trace": with_spans}
        start = clock()
        got, elapsed = worker.request(req, limit)
        decided, problem = check(case, pieces, got)
        key = "traced" if with_spans else "plain"
        rec[key] = {"start": start, "verdict": got.get("verdict"), "decided": decided,
                    "problem": problem, "elapsed": elapsed,
                    "latency": got["latency_s"] if "latency_s" in got else elapsed,
                    "answer": got}
    if traced:
        start = clock()
        got, elapsed = worker.request(
            {"op": "race", "id": case["id"], "text": case["text"], "trace": True},
            limit)
        _decided, problem = check(case, pieces, got)
        rec["race"] = {"start": start, "verdict": got.get("verdict"),
                       "problem": problem, "elapsed": elapsed, "answer": got}
        sol = rec["traced"]["answer"].get("solution")
        start = clock()
        got, elapsed = worker.request(
            {"op": "probes", "id": case["id"], "text": case["text"], "trace": True,
             "solution": sol, "witness": case.get("witness")}, limit)
        rec["probes"] = {"start": start, "verdict": got.get("verdict"),
                         "elapsed": elapsed, "answer": got}
    rec["t1"] = clock()
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.STRATA))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its worker, in the finally below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "stackext", "__init__.py")):
        print(f"no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    limit = workloads.LIMIT_S[args.workload]

    setup = set_up(args.workload, args.seed)
    cases = setup["once"] + [c for d in setup["draws"] for c in d]
    pieces = {c["id"]: pieces_of(c) for c in cases}
    worker = Worker()
    records = []
    try:
        worker.start()
        t_start = clock()
        # whole rounds only, so every run sees the same mix of shapes; the
        # hopeless cases go first, once
        todo = list(setup["once"])
        r = 0
        while r == 0 or clock() - t_start < args.seconds:
            todo += workloads.round_of(args.workload, setup["draws"], r)
            for case in todo:
                records.append(run_one(worker, case, pieces[case["id"]], limit,
                                       traced, len(records) % 2 == 1))
            todo = []
            r += 1
        wall = clock() - t_start
    finally:
        worker.stop()

    result = report.summarize(records, setup, wall, worker.peak_rss_kb,
                              limit, traced)
    for line in result["lines"]:
        print(line)
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": result["spans"]}, fh)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
