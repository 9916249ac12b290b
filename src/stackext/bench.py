"""Corpus benchmarking: run solvers, time them, compare verdicts."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .model import Instance
from .oracle import CapacityError
from .serialize import emit_instance, parse_instance
from .solve import solve
from .solvers import SolveStats

DEFINITE = ("extendable", "not-extendable")


@dataclass(frozen=True)
class BenchRow:
    instance: str
    algorithm: str
    verdict: str
    seconds: float
    branches: int
    cells: int
    note: str = ""


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    discrepancies: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def _run_inline(inst: Instance, algo: str, cap: Optional[int]):
    stats = SolveStats()
    try:
        sol = solve(inst, algo, stats, cap)
    except CapacityError as exc:
        return "capacity", stats, str(exc)
    if sol is None:
        return "not-extendable", stats, ""
    if not inst.is_solution(sol):
        return "error", stats, "solver returned an invalid layout"
    return "extendable", stats, ""


def _child(conn, text: str, algo: str, cap: Optional[int]) -> None:
    try:
        verdict, stats, note = _run_inline(parse_instance(text), algo, cap)
        conn.send((verdict, stats.branches, stats.cells, note))
    except Exception as exc:  # noqa: BLE001 - report, don't crash the parent
        conn.send(("error", 0, 0, f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def _run_budgeted(inst: Instance, algo: str, cap: Optional[int], budget: float):
    """One solve in a worker process, killed at the deadline."""
    # imported here so that ``import stackext`` does not pay for it
    import multiprocessing

    text = emit_instance(inst)
    parent, child = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.Process(target=_child, args=(child, text, algo, cap))
    proc.start()
    child.close()
    proc.join(budget)
    if proc.is_alive():
        proc.terminate()
        proc.join()
        parent.close()
        return "timeout", 0, 0, f"budget of {budget:g}s exhausted"
    got = parent.recv() if parent.poll() else ("error", 0, 0, "worker died")
    parent.close()
    return got


def bench(
    instances: Sequence[tuple[str, Instance]],
    algorithms: Sequence[str],
    budget: Optional[float] = None,
    cap: Optional[int] = None,
) -> BenchReport:
    """Run every algorithm on every instance and collect a report.

    With a ``budget`` each run happens in its own process and is killed
    at the deadline; timeouts are recorded as a verdict, never raised.
    Two definite verdicts for the same instance that disagree end up in
    ``report.discrepancies``.
    """
    rows = []
    for name, inst in instances:
        for algo in algorithms:
            start = time.perf_counter()
            if budget is None:
                verdict, stats, note = _run_inline(inst, algo, cap)
                branches, cells = stats.branches, stats.cells
            else:
                verdict, branches, cells, note = _run_budgeted(
                    inst, algo, cap, budget
                )
            elapsed = time.perf_counter() - start
            rows.append(
                BenchRow(name, algo, verdict, elapsed, branches, cells, note)
            )
    return BenchReport(tuple(rows), discrepancies(rows))


def discrepancies(rows: Sequence[BenchRow]) -> tuple[str, ...]:
    """Instances on which two definite verdicts disagree, one line each."""
    problems = []
    for name in dict.fromkeys(r.instance for r in rows):
        mine = [r for r in rows if r.instance == name and r.verdict in DEFINITE]
        if len({r.verdict for r in mine}) > 1:
            pairs = ", ".join(f"{r.algorithm}={r.verdict}" for r in mine)
            problems.append(f"{name}: {pairs}")
    return tuple(problems)


def format_report(report: BenchReport) -> str:
    head = ("instance", "algorithm", "verdict", "seconds", "branches", "cells")
    body = [
        (
            r.instance,
            r.algorithm,
            r.verdict if not r.note else f"{r.verdict} ({r.note})",
            f"{r.seconds:.4f}",
            str(r.branches),
            str(r.cells),
        )
        for r in report.rows
    ]
    widths = [max(len(h), *(len(b[i]) for b in body)) if body else len(h)
              for i, h in enumerate(head)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(head))]
    for b in body:
        lines.append("  ".join(b[i].ljust(widths[i]) for i in range(len(head))))
    for msg in report.discrepancies:
        lines.append(f"DISAGREE {msg}")
    lines.append(
        "all verdicts agree" if report.ok
        else f"{len(report.discrepancies)} instance(s) with conflicting verdicts"
    )
    return "\n".join(lines) + "\n"
