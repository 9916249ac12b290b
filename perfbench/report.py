"""Metrics of one run, derived from its per-instance records and spans."""

from __future__ import annotations

import statistics

ALGOS = ("edges-fpt", "one-vertex", "greedy-is", "dp-fpt", "xp")
SPAN_SUMS = (
    "serialize.parse_instance", "serialize.verify_solution",
    "serialize.emit_solution", "model.make_instance", "model.is_solution",
    "model.super_intervals", "solve.choose_algorithm", "solve.xp_race",
    "solvers.feasible_gaps", "dpsolver.FaceLookup",
)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it: the value of
    the eleventh largest sample, and the percentile it stands for.  With
    ten samples or fewer, the largest one, at percentile 100."""
    ordered = sorted(values, reverse=True)
    if len(ordered) <= 10:
        return ordered[0], 100.0
    return ordered[10], 100.0 * (len(ordered) - 10) / len(ordered)


def end_to_end(runs: list[dict], wall: float) -> dict:
    """``runs`` are the pipeline results of one mode, one per instance."""
    lat = [r["latency"] for r in runs]
    decided = sum(r["decided"] for r in runs)
    tail_s, pct = tail(lat)
    return {
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * tail_s,
        "tail_percentile": pct,
        "samples": len(lat),
        "decided_frac": decided / len(runs),
        "decided_per_s": decided / wall,
    }


def collect_spans(records: list[dict], algo_of) -> list[list]:
    """All spans of a traced run as ``[name, start, end, parent, instance]``
    with global parent indices.  Each instance gets a root span; requests
    killed at the limit get one span for the whole request."""
    spans: list[list] = []
    for rec in records:
        root = len(spans)
        spans.append(["instance", rec["t0"], rec["t1"], -1, rec["id"]])
        for key in ("traced", "race", "probes"):
            part = rec[key]
            got = part["answer"]
            if part["verdict"] == "timeout":
                name = {"traced": f"solve.auto.{algo_of(rec)}",
                        "race": "solve.xp_race", "probes": "probes"}[key]
                spans.append([name, part["start"], part["start"] + part["elapsed"],
                              root, rec["id"], "timeout"])
                continue
            base = len(spans)
            for name, start, end, parent, inst in got.get("spans", []):
                up = root if parent < 0 else base + parent
                spans.append([name, start, end, up, inst])
    return spans


def per_layer(records: list[dict], setup: dict, wall: float, limit: float) -> dict:
    def algo_of(rec):
        return (rec["probes"]["answer"].get("algo")
                or rec["traced"]["answer"].get("algo") or "unknown")

    spans = collect_spans(records, algo_of)
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        busy[s[0]] = busy.get(s[0], 0.0) + (s[2] - s[1])
        calls[s[0]] = calls.get(s[0], 0) + 1
    m: dict[str, tuple[float, str]] = {}
    for name in SPAN_SUMS:
        m[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    m["serialize.bytes_in"] = (sum(r["bytes"] for r in records), "bytes")
    for name in ("dpsolver.check_branch", "dpsolver.dp_solve_branch"):
        n = calls.get(name, 0)
        m[f"{name}.us_per_call"] = (1e6 * busy.get(name, 0.0) / n if n else 0.0, "us")
    routed = [algo_of(r) for r in records]
    for algo in ALGOS:
        m[f"solve.routed.{algo}"] = (routed.count(algo), "count")
        m[f"solve.auto.{algo}.busy_s"] = (busy.get(f"solve.auto.{algo}", 0.0), "s")
        m[f"solve.auto.{algo}.timeouts"] = (
            sum(1 for r, a in zip(records, routed)
                if a == algo and r["traced"]["verdict"] == "timeout"), "count")
    for algo in ("one-vertex", "edges-fpt"):
        m[f"solvers.{algo}.busy_s"] = (busy.get(f"solve.auto.{algo}", 0.0), "s")

    # auto against xp, both as solve-only times, killed runs at the limit
    def solve_time(rec):
        t = rec["traced"]
        if t["verdict"] == "timeout":
            return t["elapsed"]
        for name, start, end, *_ in t["answer"].get("spans", []):
            if name.startswith("solve.auto"):
                return end - start
        return limit

    def xp_time(rec):
        return rec["race"]["answer"].get("race_s", rec["race"]["elapsed"])

    slower = sum(1 for r in records if solve_time(r) > 2 * xp_time(r) + 0.010)
    m["solve.auto_slower_than_xp"] = (slower, "count")
    m["solve.xp_race.raced"] = (len(records), "count")

    counters = {"sweeps": 0, "branches": 0, "cells": 0}
    for r in records:
        got = r["traced"]["answer"]
        src = got.get("partial") or {} if r["traced"]["verdict"] == "timeout" else got
        for key in counters:
            counters[key] += src.get(key, 0)
    for key, value in counters.items():
        m[f"dpsolver.{key}"] = (value, "count")
    for name in ("reductions.reduce_3sat", "generate.gen_random"):
        m[f"{name}.busy_s"] = (setup["busy"][name], "s")

    pipe = sum(r["traced"]["latency"] for r in records)
    m["pipeline.busy_s"] = (pipe, "s")
    auto = sum(busy.get(f"solve.auto.{a}", 0.0) for a in ALGOS)
    ser = sum(busy.get(n, 0.0) for n in SPAN_SUMS if n.startswith("serialize."))
    m["share.solve_auto"] = (auto / pipe, "ratio")
    m["share.serialize"] = (ser / pipe, "ratio")

    # tracing overhead: the same pipeline requests with and without spans,
    # each rate over the time of its own requests
    plain = end_to_end([r["plain"] for r in records],
                       sum(r["plain"]["elapsed"] for r in records))
    traced = end_to_end([r["traced"] for r in records],
                        sum(r["traced"]["elapsed"] for r in records))
    m["trace_overhead.latency_p50_ms"] = (
        traced["latency_p50_ms"] - plain["latency_p50_ms"], "ms")
    m["trace_overhead.decided_per_s"] = (
        plain["decided_per_s"] - traced["decided_per_s"], "1/s")
    return {"metrics": m, "spans": spans}


def summarize(records: list[dict], setup: dict, wall: float, peak_rss_kb: int,
              limit: float, traced: bool) -> dict:
    problems = [(r["id"], p["problem"]) for r in records
                for p in (r["plain"], r.get("traced"), r.get("race"))
                if p and p["problem"]]
    failed = sum(
        1 for r in records
        if r["plain"]["problem"] or r["plain"]["verdict"] in ("error", "capacity")
    )
    lines = [f"wrong: {i}: {msg}" for i, msg in problems]
    errors = [(r["id"], r["plain"]["answer"].get("error")) for r in records
              if r["plain"]["verdict"] in ("error", "capacity")]
    lines += [f"failed: {i}: {msg}" for i, msg in errors]
    # failed and wrong answers count at the limit, killed ones as measured
    for r in records:
        for p in (r["plain"], r.get("traced")):
            if p and (p["problem"] or p["verdict"] not in ("yes", "no", "timeout")):
                p["latency"] = max(limit, p["elapsed"])
    e2e = end_to_end([r["plain"] for r in records], wall)
    by_stratum: dict[tuple, list] = {}
    for r in records:
        # ids end in -s<stratum>-d<draw>, or -h<k> for a hopeless case
        part = r["id"].split("-")[-2 if "-d" in r["id"] else -1]
        key = (part[0], int(part[1:]), r["family"])
        by_stratum.setdefault(key, []).append(r["plain"])
    for (kind, k, fam), runs in sorted(by_stratum.items()):
        lat = sorted(1000 * x["latency"] for x in runs)
        timeouts = sum(x["verdict"] == "timeout" for x in runs)
        lines.append(
            f"stratum {kind}{k:<2} {fam:<18} n={len(runs):<4} timeouts={timeouts:<3} "
            f"p50={statistics.median(lat):9.2f} ms  max={lat[-1]:9.2f} ms"
        )
    lines.append(
        f"setup runs: {', '.join(f'{s:.3f}' for s in setup['setup_samples'])} s; "
        f"latency_tail_ms is p{e2e['tail_percentile']:.1f} of {e2e['samples']} samples"
    )
    out = {"correct": not problems, "attempted": len(records), "failed": failed,
           "lines": lines, "spans": []}
    if traced:
        layer = per_layer(records, setup, wall, limit)
        metrics = layer["metrics"]
        out["spans"] = layer["spans"]
    else:
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "latency_p50_ms": (e2e["latency_p50_ms"], "ms"),
            "latency_tail_ms": (e2e["latency_tail_ms"], "ms"),
            "decided_frac": (e2e["decided_frac"], "ratio"),
            "decided_per_s": (e2e["decided_per_s"], "1/s"),
            "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<40} {value:>14.6g} {unit}")
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return out
