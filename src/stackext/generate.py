"""Seeded random generators for instances and reduction inputs."""

from __future__ import annotations

import bisect
import itertools
import random
from collections.abc import Iterable, Sequence

from .model import InputError, Instance, edge, make_instance
from .reductions import CliqueInstance

# draws per fixed edge before gen_random gives up on a dense request
TRIES = 100


class _PairsLeft(Sequence):
    """``itertools.combinations(names, 2)`` without the pairs in ``taken``,
    as a sequence that unranks its items instead of listing them.

    ``taken`` holds pairs of that combination list.  ``random.sample``
    only takes a population's length and indexes it (or lists a small
    one), so it draws from this view what it draws from the listed pairs.
    """

    def __init__(
        self, names: Sequence[str], taken: Iterable[tuple[str, str]]
    ) -> None:
        self._names = names
        n = len(names)
        # self._starts[i]: combination index of (names[i], names[i + 1])
        self._starts = list(itertools.accumulate(range(n - 1, 0, -1), initial=0))
        at = {v: i for i, v in enumerate(names)}
        skip = sorted(self._starts[at[u]] + at[v] - at[u] - 1 for u, v in taken)
        # the t-th skipped index has skip[t] - t kept indices below it
        self._kept_below = [s - t for t, s in enumerate(skip)]
        self._len = n * (n - 1) // 2 - len(skip)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, j: int) -> tuple[str, str]:
        if not 0 <= j < self._len:
            raise IndexError(j)
        x = j + bisect.bisect_right(self._kept_below, j)
        i = bisect.bisect_right(self._starts, x) - 1
        return self._names[i], self._names[i + 1 + x - self._starts[i]]


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

    A crossing-free page nests like balanced parentheses, so each page
    keeps, for every spine rank, the ends of the innermost edge strictly
    over it.  A draw is then tested in O(1): a set lookup and two list
    reads.  Placing an edge of span ``a < b`` costs at most ``b - a``
    steps.  The new edges are drawn from a view of the remaining pairs
    that finds each pair drawn by two binary searches, instead of a list
    of all of them.
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
    # sampling the ranks in ``old`` order draws what sampling ``old`` would
    ranks = [rank[v] for v in old]
    # per page, lo[r] < r < hi[r] are the ends of the innermost edge over
    # rank r; ranks 0 and nh + 1 close the outer face
    faces = [([0] * (nh + 2), [nh + 1] * (nh + 2)) for _ in range(ell)]
    h_edges = []
    chosen = set()
    for t in range(mh):
        for _ in range(TRIES):
            x, y = rng.sample(ranks, 2)
            a, b = (x, y) if x < y else (y, x)
            if (a, b) in chosen:
                continue
            p = rng.randrange(1, ell + 1)
            lo, hi = faces[p - 1]
            # FaceLookup.pages_fitting's rule on ranks: the span fits iff
            # the face over each end also reaches the other end
            if hi[a] < b or lo[b] > a:
                continue
            r = a + 1
            while r < b:
                if a <= lo[r] and hi[r] <= b:
                    r = hi[r]  # ranks under an edge inside [a, b] keep theirs
                else:
                    lo[r], hi[r] = a, b
                    r += 1
            chosen.add((a, b))
            h_edges.append((*edge(spine[a - 1], spine[b - 1]), p))
            break
        else:
            raise InputError(
                f"could not place fixed edge {t + 1} of {mh} within {TRIES} tries; "
                f"lower mh or raise ell"
            )
    news = [f"n{i}" for i in range(1, n_add + 1)]
    pairs = _PairsLeft(sorted(spine + news), [(u, v) for u, v, _ in h_edges])
    if m_add > len(pairs):
        raise InputError(
            f"asked for {m_add} new edges but only {len(pairs)} pairs remain"
        )
    new_es = rng.sample(pairs, m_add)
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
