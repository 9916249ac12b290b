"""The three workloads as fixed rounds of instance shapes.

A workload is a list of strata, each a family plus its shape, the
number of instances it has in every round, and the number of distinct
draws it takes them from.  Every round has the same mix, and only the
drawn contents depend on the seed.  The timed loop runs whole rounds.
The hopeless strata, which the seed's ``auto`` cannot settle within the
limit, are drawn once and sent once per run, before the first round:
each costs a whole limit, and sent in every round they would fill the
top of the latency distribution.
"""

from __future__ import annotations

import random

import gen

# exactly 1.2 fixed edges per vertex, so sizes do not vary between seeds
LARGE = dict(per_vertex=1.2, exact_edges=True)
# one new vertex near the left end of the spine, carrying every new edge:
# first-fit stops within a few gaps, so parse and verify set the time
EXACT = dict(new_new=False, old_cuts=False, new_first=True, **LARGE)
# new vertices near the left end whose edges, and the cut old edges, all
# lie on page 1: the first page assignment `auto` tries is one that
# works, so the branching solvers settle these with a narrow spread
EARLY = dict(new_new=False, first_page=True, new_first=True)

# (family, shape, per round, distinct draws).  Shapes are chosen so that
# each stratum is settled well inside the per-instance limit on the seed.
# Strata are listed by their time on the seed.  Each workload has a
# middle band of five narrow strata whose times step up by about a fifth
# from one to the next, with about as many instances below the band as
# above it, so that the median latency falls inside the band and moves
# smoothly when the machine runs slower or faster.  Its slowest stratum
# sits above every other stratum, so that the tail latency falls inside
# it.  A stratum's draws are used in turn and start over when they run
# out; the slowest stratum has enough distinct draws that the tail does
# not rest on a few instances.
STRATA = {
    "planted": [
        # below the middle
        ("planted", dict(n_h=30, ell=2, n_add=2, m_add=(3, 3), new_new=True,
                         first_page=True, new_first=True), 1, 24),
        ("planted", dict(n_h=40, ell=2, n_add=3, m_add=(4, 6), **EARLY), 1, 24),
        ("planted", dict(n_h=60, ell=2, n_add=1, m_add=(3, 6), new_new=False,
                         old_cuts=False), 1, 24),
        ("planted", dict(n_h=100, ell=3, n_add=1, m_add=(12, 16), **EARLY), 1, 24),
        # the middle: greedy-is, one narrow shape per size
        *[("planted", dict(n_h=n_h, ell=2, n_add=1, m_add=(4, 6), **EARLY), 1, 24)
          for n_h in (70, 85, 100, 115, 130)],
        # above the middle
        ("planted", dict(n_h=120, ell=3, n_add=2, m_add=(4, 6), **EARLY), 1, 24),
        ("planted", dict(n_h=150, ell=2, n_add=1, m_add=(3, 6), new_new=False,
                         old_cuts=False), 1, 24),
        ("planted", dict(n_h=150, ell=2, n_add=1, m_add=(4, 6), **EARLY), 1, 24),
        # the tail: greedy-is on the densest fixed layouts
        ("planted", dict(n_h=150, ell=2, n_add=2, m_add=(6, 8), per_vertex=3.0,
                         **EARLY), 1, 60),
    ],
    "refute": [
        # below the middle
        ("blocked-edge", dict(nh=80, mh=64, ell=3, n_add=0, m_add=5), 1, 24),
        ("blocked-edge", dict(nh=60, mh=48, ell=2, n_add=2, m_add=6), 1, 24),
        ("blocked-edge", dict(nh=100, mh=80, ell=2, n_add=0, m_add=6), 1, 24),
        ("blocked-edge-large", dict(n_h=60, ell=2, n_add=2, m_add=(4, 6),
                                    new_new=True), 1, 24),
        # the middle: greedy-is, one narrow shape per size
        *[("blocked-edge", dict(nh=nh, mh=nh * 4 // 5, ell=3, n_add=1, m_add=5), 1, 24)
          for nh in (60, 70, 80, 90, 100)],
        # above the middle
        ("blocked-edge", dict(nh=100, mh=80, ell=3, n_add=1, m_add=6), 1, 24),
        ("blocked-gap", dict(n_h=40, ell=2, n_add=1, m_add=(3, 4), new_new=False), 1, 24),
        ("blocked-gap", dict(n_h=60, ell=2, n_add=1, m_add=(4, 4), **EARLY), 1, 24),
        # the tail: greedy-is exhausting every branch of a near miss
        ("blocked-gap", dict(n_h=40, ell=2, n_add=2, m_add=(3, 3), new_new=False,
                             old_cuts=False), 1, 60),
    ],
    "large-fixed": [
        # below the middle
        ("blocked-edge-large", dict(n_h=800, ell=4, n_add=0, m_add=(3, 5),
                                    new_new=False, **LARGE), 1, 1),
        ("planted", dict(n_h=800, ell=4, n_add=0, m_add=(4, 6), new_new=False,
                         **LARGE), 1, 1),
        # the middle
        ("blocked-gap", dict(n_h=800, ell=3, n_add=1, m_add=(4, 4),
                             new_new=False, old_cuts=False, **LARGE), 3, 3),
        # above the middle
        ("planted", dict(n_h=1500, ell=3, n_add=1, m_add=(3, 6), **EXACT), 2, 2),
    ],
}

# the seed's known `auto` timeouts: 3-CNF reductions sent to greedy-is
HOPELESS = {
    "planted": [("3cnf-sat", dict(n_vars=3, n_clauses=3)),
                ("3cnf-sat", dict(n_vars=4, n_clauses=6))],
    "refute": [("3cnf-unsat", dict(n_vars=3)), ("3cnf-unsat", dict(n_vars=4))],
    "large-fixed": [],
}

# Per-instance limit, seconds.  On the seed the slowest decided instance
# of each workload takes under a fifth of it, and the hopeless ones need
# far longer than it.
LIMIT_S = {"planted": 1.0, "refute": 1.0, "large-fixed": 15.0}


def draw(rng: random.Random, cid: str, family: str, shape: dict) -> gen.Case:
    if family == "planted":
        return gen.planted(rng, cid, **shape)
    if family == "blocked-gap":
        return gen.blocked_gap(rng, gen.planted(rng, cid, **shape))
    if family == "blocked-edge-large":
        while True:
            case = gen.blocked_edge(rng, gen.planted(rng, cid, **shape))
            if case is not None:
                return case
    if family == "blocked-edge":
        return gen.blocked_edge_draw(rng, cid, **shape)
    if family == "3cnf-sat":
        return gen.sat_case(rng, cid, want=True, **shape)
    if family == "3cnf-unsat":
        return gen.unsat_3cnf(rng, cid, **shape)
    raise ValueError(f"unknown family {family!r}")


def schedule(workload: str, seed: int) -> tuple[list[gen.Case], list[list[gen.Case]]]:
    """``(once, draws)``: the hopeless cases, sent once per run, and the
    distinct draws of each stratum.  A case's id names its workload, seed,
    stratum and draw."""
    if workload not in STRATA:
        raise ValueError(f"unknown workload {workload!r}")
    once = []
    for k, (family, shape) in enumerate(HOPELESS[workload]):
        rng = random.Random(f"{workload}:{seed}:once:{k}")
        once.append(draw(rng, f"{workload}-{seed}-h{k}", family, shape))
    draws = []
    for k, (family, shape, _per_round, distinct) in enumerate(STRATA[workload]):
        cases = []
        for d in range(distinct):
            rng = random.Random(f"{workload}:{seed}:{k}:{d}")
            cases.append(draw(rng, f"{workload}-{seed}-s{k}-d{d}", family, shape))
        draws.append(cases)
    return once, draws


def round_of(workload: str, draws: list[list], r: int) -> list:
    """Round ``r``: each stratum's next ``per round`` draws, in turn."""
    out = []
    for (_f, _s, per_round, _d), cases in zip(STRATA[workload], draws):
        for i in range(r * per_round, (r + 1) * per_round):
            out.append(cases[i % len(cases)])
    return out
