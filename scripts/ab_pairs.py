"""A/B of the benchmark's end-to-end metrics between two source trees.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload planted --seed 1 --pairs 10 --seconds 40

Runs ``perfbench/run.py --trace 0`` of the two trees ``--pairs`` times
each, alternating which tree goes first (the parent in even pairs).
Every run gets a fresh copy of its tree, without bytecode or earlier
output, as a checkout would.  A run that exits with an error or reports
``correct: false`` stops the script with exit 1.

Prints, for each end-to-end metric that ``BENCHMARK.json`` of the parent
tree declares, the median and quartiles of both trees, the pairs the
change won (ties count for neither) and a verdict:

* ``gain``: the change won at least 9 of 10 pairs and its median is
  better than the parent's by more than the parent's interquartile range;
* ``worse beyond bound``: the change's median is worse than the parent's
  by more than the metric's bound;
* ``unresolved``: the parent's interquartile range is wider than the
  bound and not every change run is better than every parent run;
* ``within bound`` otherwise.

Then one JSON line with the same numbers and every run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_setup import summary  # noqa: E402  (a sibling script)


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in a fresh copy of ``tree``: its last
    JSON line."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "tree")
        shutil.copytree(tree, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".perfbench_out", ".hypothesis", ".pytest_cache"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=copy, stdout=subprocess.PIPE, timeout=10 * seconds + 900,
        )
    lines = done.stdout.decode().strip().splitlines()
    out = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if done.returncode != 0 or out.get("correct") is not True:
        sys.exit(f"{tree}: run.py exited {done.returncode}, "
                 f"correct: {out.get('correct')}")
    return out


def verdict(m: dict, pairs: int) -> str:
    """The verdict the module docstring defines, from ``summary``'s numbers."""
    sign = 1 if m["better"] == "lower" else -1
    p, c = m["parent"], m["change"]
    gap = sign * (p["median"] - c["median"])  # > 0: the change is better
    iqr = p["q3"] - p["q1"]
    if 10 * m["change_better_in_pairs"] >= 9 * pairs and gap > iqr:
        return (f"gain (won {m['change_better_in_pairs']}/{pairs}, "
                f"median gap {gap:.4g} vs parent IQR {iqr:.4g})")
    if -gap > m["bound"] * p["median"]:
        return "worse beyond bound"
    every = m["every_change_run_better_than_every_parent_run"]
    if m["parent_iqr_rel"] > m["bound"] and not every:
        return "unresolved"
    return "within bound"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40)
    args = ap.parse_args(argv)
    trees = {s: os.path.abspath(getattr(args, s)) for s in ("parent", "change")}
    with open(os.path.join(trees["parent"], "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]

    runs: list[dict] = []
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            out = run_bench(trees[side], args.workload, args.seed, args.seconds)
            out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
            runs.append({"pair": i, "side": side, **out})
            print(f"pair {i} {side}: " + ", ".join(
                f"{k} {v:.4g}" for k, v in out["metrics"].items()), flush=True)

    metrics = {}
    for spec in declared:
        name, better = spec["name"], spec["better"]
        parent, change = ([r["metrics"][name] for r in runs if r["side"] == s]
                          for s in ("parent", "change"))
        m = {"better": better, "bound": spec["bound"],
             **summary(parent, change, better)}
        every = (max(change) < min(parent) if better == "lower"
                 else min(change) > max(parent))
        m["every_change_run_better_than_every_parent_run"] = every
        m["verdict"] = verdict(m, args.pairs)
        metrics[name] = m
        p, c = m["parent"], m["change"]
        print(f"{name}: {p['median']:.4g} -> {c['median']:.4g} {spec['unit']} "
              f"(parent {p['q1']:.4g}-{p['q3']:.4g}, change {c['q1']:.4g}-{c['q3']:.4g}; "
              f"change better in {m['change_better_in_pairs']}/{args.pairs} pairs): "
              f"{m['verdict']}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "seconds": args.seconds, "python": sys.version.split()[0],
        "failed": {s: sum(r["failed"] for r in runs if r["side"] == s)
                   for s in ("parent", "change")},
        "attempted": {s: sum(r["attempted"] for r in runs if r["side"] == s)
                      for s in ("parent", "change")},
        "correct": True, "metrics": metrics, "runs": runs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
