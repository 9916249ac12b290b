"""Seeded random generators for instances and reduction inputs."""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .model import InputError, Instance, alternates, edge, make_instance
from .reductions import CliqueInstance

# draws per fixed edge before gen_random gives up on a dense request
TRIES = 100


def gen_random(
    nh: int,
    mh: int,
    ell: int,
    n_add: int,
    m_add: int,
    seed: int,
) -> Instance:
    """Random extension instance, deterministic per seed.

    The fixed layout is built incrementally: random endpoint pairs and
    pages are drawn until the edge can join its page without a crossing,
    so the layout is valid by construction.  :data:`TRIES` bounds the
    draws per fixed edge; dense requests that keep losing the draw are
    rejected rather than looped forever.  New edges are sampled from all
    remaining vertex pairs, so they may also join two old vertices.
    """
    if min(nh, mh, n_add, m_add) < 0:
        raise InputError("sizes must be non-negative")
    if ell < 1:
        raise InputError(f"page count must be positive, got {ell}")
    if mh > 0 and nh < 2:
        raise InputError(f"{mh} fixed edges need at least 2 fixed vertices")
    rng = random.Random(seed)
    old = [f"h{i}" for i in range(1, nh + 1)]
    spine = old[:]
    rng.shuffle(spine)
    rank = {v: i for i, v in enumerate(spine, start=1)}
    on_page: dict[int, list[tuple[int, int]]] = {p: [] for p in range(1, ell + 1)}
    h_edges = []
    chosen = set()
    for t in range(mh):
        for _ in range(TRIES):
            u, v = rng.sample(old, 2)
            e = edge(u, v)
            if e in chosen:
                continue
            p = rng.randrange(1, ell + 1)
            a, b = sorted((rank[u], rank[v]))
            if any(alternates(x, y, a, b) for x, y in on_page[p]):
                continue
            chosen.add(e)
            on_page[p].append((a, b))
            h_edges.append((e[0], e[1], p))
            break
        else:
            raise InputError(
                f"could not place fixed edge {t + 1} of {mh} within {TRIES} tries; "
                f"lower mh or raise ell"
            )
    news = [f"n{i}" for i in range(1, n_add + 1)]
    everyone = spine + news
    # pairs of a sorted list come out normalized and in sorted order
    candidates = [
        e for e in itertools.combinations(sorted(everyone), 2) if e not in chosen
    ]
    if m_add > len(candidates):
        raise InputError(
            f"asked for {m_add} new edges but only {len(candidates)} pairs remain"
        )
    new_es = rng.sample(candidates, m_add)
    return make_instance(ell, spine, h_edges, news, new_es)


def random_clique_instance(
    rng: random.Random,
    part_sizes: Sequence[int],
    density: float = 0.5,
) -> CliqueInstance:
    """Random part-indexed graph; at least one edge survives.

    The edge order (hence the page order of the reduced instance) is a
    random shuffle of the kept pairs.
    """
    sizes = tuple(part_sizes)
    pairs = []
    for a, b in itertools.combinations(range(1, len(sizes) + 1), 2):
        for i in range(1, sizes[a - 1] + 1):
            for j in range(1, sizes[b - 1] + 1):
                pairs.append(((a, i), (b, j)))
    keep = [e for e in pairs if rng.random() < density]
    if not keep:
        keep = [pairs[rng.randrange(len(pairs))]]
    rng.shuffle(keep)
    return CliqueInstance(sizes, tuple(keep))
