"""Command line front end.

Exit codes for ``solve``: 0 a solution was written, 1 the instance is
not extendable, 2 the input is malformed, 3 the exhaustive search
budget was exceeded.  ``verify`` exits 0 on a valid solution and 1 with
one violation per output line otherwise.  ``bench`` exits 1 when two
algorithms disagree on any instance.  Any command exits 4, printing the
traceback, on an unexpected exception, so a crash never reads as a "no".
"""

from __future__ import annotations

import functools
import pathlib
import sys
import traceback

import click

from .bench import bench as run_bench
from .bench import format_report
from .cnf import parse_dimacs
from .generate import gen_random
from .model import InputError, page_width, super_intervals
from .oracle import CapacityError
from .reductions import parse_clique_input, reduce_3sat, reduce_mcc
from .render import render_arc_diagram
from .serialize import (
    as_layout,
    emit_instance,
    emit_solution,
    parse_instance,
    parse_solution,
    verify_solution,
)
from .solve import ALGORITHMS, branch_bound, solve
from .solvers import SolveStats

EXIT_UNSOLVABLE = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


def _fail(msg: str, code: int) -> None:
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


def _read(path: str) -> str:
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _fail(f"cannot read {path}: {exc.strerror or exc}", EXIT_INPUT)


def _write(path, text: str, kind: str) -> None:
    if path is None:
        click.echo(text, nl=False)
        return
    try:
        pathlib.Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        _fail(f"cannot write {path}: {exc.strerror or exc}", EXIT_INPUT)
    click.echo(f"{kind} written to {path}", err=True)


def _load_instance(path: str):
    return parse_instance(_read(path))


def _guard(fn):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InputError as exc:
            _fail(str(exc), EXIT_INPUT)
        except (click.ClickException, click.Abort, click.exceptions.Exit):
            raise
        except Exception:
            traceback.print_exc()
            sys.exit(EXIT_INTERNAL)

    return inner


@click.group()
def main() -> None:
    """Work with partial stack layouts and their extensions."""


@main.command("solve")
@click.argument("instance", type=click.Path())
@click.option(
    "--algo",
    type=click.Choice(ALGORITHMS),
    default="auto",
    show_default=True,
    help="solving algorithm; auto picks the cheapest applicable one",
)
@click.option("--out", "-o", type=click.Path(), default=None,
              help="solution file (default: stdout)")
@click.option("--cap", type=int, default=None,
              help="state budget for the exhaustive search")
@click.option("--emit-branch-stats", is_flag=True,
              help="report branch counters and their ceiling on stderr")
@_guard
def cmd_solve(instance, algo, out, cap, emit_branch_stats) -> None:
    """Extend the partial layout in INSTANCE, if possible."""
    inst = _load_instance(instance)
    stats = SolveStats()
    try:
        sol = solve(inst, algo, stats, cap)
    except CapacityError as exc:
        _fail(str(exc), EXIT_CAPACITY)
    if emit_branch_stats:
        click.echo(f"algorithm: {stats.algorithm}", err=True)
        click.echo(f"branches: {stats.branches}", err=True)
        if stats.refuted:
            click.echo(f"refuted: {stats.refuted}", err=True)
        if stats.cells:
            click.echo(f"table cells: {stats.cells}", err=True)
        bound = branch_bound(inst, stats.algorithm)
        if bound is not None:
            click.echo(f"branch ceiling: {bound}", err=True)
    if sol is None:
        click.echo("not extendable", err=True)
        sys.exit(EXIT_UNSOLVABLE)
    if verify_solution(inst, sol):
        raise RuntimeError("solver returned a layout that fails verification")
    _write(out, emit_solution(sol), "solution")


@main.command("verify")
@click.argument("instance", type=click.Path())
@click.argument("solution", type=click.Path())
@_guard
def cmd_verify(instance, solution) -> None:
    """Check SOLUTION against INSTANCE, reporting every violation."""
    inst = _load_instance(instance)
    sol = parse_solution(_read(solution))
    violations = verify_solution(inst, sol)
    for v in violations:
        click.echo(str(v))
    if violations:
        sys.exit(EXIT_UNSOLVABLE)
    click.echo("valid")


@main.command("gen")
@click.option("--nh", type=int, required=True, help="fixed vertices")
@click.option("--mh", type=int, required=True, help="fixed edges")
@click.option("--ell", type=int, required=True, help="pages")
@click.option("--n-add", type=int, required=True, help="new vertices")
@click.option("--m-add", type=int, required=True, help="new edges")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "-o", type=click.Path(), default=None)
@_guard
def cmd_gen(nh, mh, ell, n_add, m_add, seed, out) -> None:
    """Write a random instance, deterministic per seed."""
    inst = gen_random(nh, mh, ell, n_add, m_add, seed)
    _write(out, emit_instance(inst), "instance")


@main.group("reduce")
def cmd_reduce() -> None:
    """Turn other decision problems into extension instances."""


def _emit_reduction(source, out, cert_path, inst, cert) -> None:
    src = pathlib.Path(source)
    out = out or str(src.with_suffix(".instance.json"))
    cert_path = cert_path or str(src.with_suffix(".cert.json"))
    _write(out, emit_instance(inst), "instance")
    _write(cert_path, cert.to_json(), "certificate")


@cmd_reduce.command("3sat")
@click.argument("cnf", type=click.Path())
@click.option("--out", type=click.Path(), default=None,
              help="instance file (default: <cnf>.instance.json)")
@click.option("--cert", type=click.Path(), default=None,
              help="certificate file (default: <cnf>.cert.json)")
@_guard
def cmd_reduce_3sat(cnf, out, cert) -> None:
    """Reduce a DIMACS formula with three distinct variables per clause.

    The reduced instance is extendable exactly when the formula is
    satisfiable, and the certificate file lets ``stackext``'s library
    turn any solution back into a satisfying assignment.
    """
    formula = parse_dimacs(_read(cnf))
    inst, certificate = reduce_3sat(formula)
    _emit_reduction(cnf, out, cert, inst, certificate)


@cmd_reduce.command("mcc")
@click.argument("graph", type=click.Path())
@click.option("--out", type=click.Path(), default=None,
              help="instance file (default: <graph>.instance.json)")
@click.option("--cert", type=click.Path(), default=None,
              help="certificate file (default: <graph>.cert.json)")
@_guard
def cmd_reduce_mcc(graph, out, cert) -> None:
    """Reduce a colored-clique search given as JSON.

    GRAPH holds ``{"vertices": [{"name": ..., "color": 1..k}, ...],
    "edges": [[name, name], ...]}`` with edges joining distinct colors
    only.  The reduced instance is extendable exactly when one vertex
    per color can be picked with all picks pairwise adjacent.
    """
    gc, labels = parse_clique_input(_read(graph))
    inst, certificate = reduce_mcc(gc, labels)
    _emit_reduction(graph, out, cert, inst, certificate)


@main.command("render")
@click.argument("instance", type=click.Path())
@click.option("--solution", type=click.Path(), default=None,
              help="render this solution instead of the fixed layout")
@click.option("--stacked", is_flag=True,
              help="one band per page instead of alternating half-planes")
@click.option("--out", "-o", type=click.Path(), default=None)
@_guard
def cmd_render(instance, solution, stacked, out) -> None:
    """Draw an arc diagram as SVG."""
    inst = _load_instance(instance)
    if solution is None:
        svg = render_arc_diagram(inst.layout_h, stacked=stacked)
    else:
        sol = parse_solution(_read(solution))
        violations = verify_solution(inst, sol)
        if violations:
            _fail(f"refusing to render an invalid solution: {violations[0]}",
                  EXIT_INPUT)
        svg = render_arc_diagram(
            as_layout(sol, inst.ell),
            new_vertices=inst.new_vertices,
            new_edges=inst.new_edges,
            stacked=stacked,
        )
    _write(out, svg, "diagram")


@main.command("bench")
@click.argument("corpus", type=click.Path())
@click.option("--algo", "-a", multiple=True,
              type=click.Choice(ALGORITHMS), default=("auto", "oracle"),
              show_default=True, help="algorithms to race")
@click.option("--budget", type=float, default=None,
              help="seconds per run; overruns are recorded, not fatal")
@click.option("--cap", type=int, default=None,
              help="state budget for the exhaustive search")
@_guard
def cmd_bench(corpus, algo, budget, cap) -> None:
    """Run algorithms over a directory of instance files."""
    root = pathlib.Path(corpus)
    files = sorted(root.glob("*.json")) if root.is_dir() else []
    if not files:
        _fail(f"no instance files (*.json) under {corpus}", EXIT_INPUT)
    instances = [(f.name, parse_instance(_read(str(f)))) for f in files]
    report = run_bench(instances, list(algo), budget, cap)
    click.echo(format_report(report), nl=False)
    if not report.ok:
        sys.exit(EXIT_UNSOLVABLE)


@main.command("stats")
@click.argument("instance", type=click.Path())
@_guard
def cmd_stats(instance) -> None:
    """Print the size parameters of an instance."""
    inst = _load_instance(instance)
    rows = (
        ("fixed vertices", len(inst.layout_h.spine)),
        ("fixed edges", len(inst.layout_h.page_of)),
        ("pages", inst.ell),
        ("new vertices (n_add)", inst.n_add),
        ("new edges (m_add)", inst.m_add),
        ("kappa", inst.kappa),
        ("fixed page width", page_width(inst.layout_h)),
        ("super intervals", len(super_intervals(inst))),
    )
    pad = max(len(name) for name, _ in rows)
    for name, value in rows:
        click.echo(f"{name.ljust(pad)}  {value}")


if __name__ == "__main__":
    main()
