"""A/B of the benchmark's set-up time between two source trees.

    python3 scripts/ab_setup.py PARENT CHANGE --workload refute --seed 1 --runs 20

Draws the workload's recipes once, with ``perfbench/worker.py build`` of
the parent tree.  Then it runs ``perfbench/worker.py time`` on those
recipes ``--runs`` times per tree, alternating which tree goes first in
each pair, after one untimed warm-up run per tree.  Every run must make
the instance texts the build made, or the script exits 1.

Prints, for ``setup_s`` and each constructor's busy time, the median and
quartiles of both trees and the pairs the change won (lower is better),
then one JSON line with the same numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys


def worker(tree: str, *args: str, stdin: bytes = b"") -> dict:
    """Run ``perfbench/worker.py`` of ``tree``; returns its last JSON line."""
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "worker.py"), *args],
        cwd=tree, input=stdin, stdout=subprocess.PIPE, check=True, timeout=300,
    )
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def summary(parent: list[float], change: list[float], better: str = "lower") -> dict:
    """Quartiles of both sides and the pairs where the change was better:
    lower, or higher when ``better`` is ``"higher"``."""

    def quartiles(xs: list[float]) -> dict:
        q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return {"q1": q1, "median": median, "q3": q3}

    p, c = quartiles(parent), quartiles(change)
    return {
        "parent": p,
        "change": c,
        "change_better_in_pairs": sum(
            b > a if better == "higher" else b < a for a, b in zip(parent, change)
        ),
        "median_change_rel": c["median"] / p["median"] - 1,
        "parent_iqr_rel": (p["q3"] - p["q1"]) / p["median"],
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--runs", type=int, default=20)
    args = ap.parse_args(argv)
    trees = {s: os.path.abspath(getattr(args, s)) for s in ("parent", "change")}

    built = worker(trees["parent"], "build", args.workload, str(args.seed))
    cases = built["once"] + [c for d in built["draws"] for c in d]
    recipes = json.dumps([c["recipe"] for c in cases]).encode()
    digest = hashlib.sha256("\n".join(c["text"] for c in cases).encode()).hexdigest()

    runs: dict[str, list[dict]] = {"parent": [], "change": []}

    def timed(side: str) -> dict:
        out = worker(trees[side], "time", stdin=recipes)
        if out["texts_sha256"] != digest:
            sys.exit(f"{side} made other instance texts than the build: "
                     f"{out['texts_sha256']} != {digest}")
        return out

    for side in runs:
        timed(side)  # warm-up: compiles the tree's bytecode
    for i in range(args.runs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(timed(side))

    metrics = {"setup_s": summary(*([r["setup_s"] for r in runs[s]] for s in runs))}
    for layer in runs["parent"][0]["busy"]:
        busy = [[r["busy"][layer] for r in runs[s]] for s in runs]
        if any(map(any, busy)):  # skips a constructor no recipe calls
            metrics[f"{layer}.busy_s"] = summary(*busy)
    for name, m in metrics.items():
        p, c = m["parent"], m["change"]
        print(f"{name}: {p['median']:.4f} -> {c['median']:.4f} s "
              f"(parent {p['q1']:.4f}-{p['q3']:.4f}, "
              f"change {c['q1']:.4f}-{c['q3']:.4f}; "
              f"change lower in {m['change_better_in_pairs']}/{args.runs} pairs)")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "pairs": args.runs,
        "texts_sha256": digest, "python": sys.version.split()[0],
        "metrics": metrics,
        "samples": {s: [r["setup_s"] for r in runs[s]] for s in runs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
