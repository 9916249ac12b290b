"""Random instance generators."""

import itertools
import random

import pytest

from stackext import (
    InputError,
    emit_instance,
    find_crossing,
    gen_random,
    random_clique_instance,
)
from stackext.generate import TRIES, _PairsLeft

from reference_impl import reference_gen_random


def test_gen_random_is_deterministic():
    a = gen_random(4, 3, 2, 1, 2, seed=11)
    b = gen_random(4, 3, 2, 1, 2, seed=11)
    assert a == b
    c = gen_random(4, 3, 2, 1, 2, seed=12)
    assert a != c


def test_gen_random_shapes():
    for seed in range(30):
        inst = gen_random(5, 4, 2, 2, 3, seed=seed)
        assert len(inst.layout_h.spine) == 5
        assert len(inst.layout_h.page_of) == 4
        assert inst.ell == 2
        assert inst.n_add == 2
        assert inst.m_add == 3
        assert find_crossing(inst.layout_h) is None


def test_gen_random_validation():
    with pytest.raises(InputError):
        gen_random(-1, 0, 1, 0, 0, seed=0)
    with pytest.raises(InputError):
        gen_random(3, 2, 0, 0, 0, seed=0)
    with pytest.raises(InputError):
        gen_random(1, 1, 1, 0, 0, seed=0)
    # more new edges than vertex pairs left
    with pytest.raises(InputError):
        gen_random(2, 1, 1, 0, 5, seed=0)


def test_gen_random_reports_placement_dead_ends():
    # a single page cannot hold every edge of K5; the generator must
    # give up with advice rather than loop forever
    with pytest.raises(InputError) as err:
        gen_random(5, 10, 1, 0, 0, seed=0)
    assert "lower mh or raise ell" in str(err.value)


def test_gen_random_empty_cases():
    inst = gen_random(0, 0, 1, 1, 0, seed=3)
    assert len(inst.layout_h.spine) == 0
    assert inst.n_add == 1
    inst = gen_random(3, 0, 2, 0, 0, seed=3)
    assert inst.m_add == 0


def _outcome(gen, args):
    try:
        return emit_instance(gen(*args))
    except InputError as exc:
        return f"InputError: {exc}"


# the gen_random shapes of perfbench's refute workload
_REFUTE_SHAPES = [
    (80, 64, 3, 0, 5), (60, 48, 2, 2, 6), (100, 80, 2, 0, 6),
    *[(nh, nh * 4 // 5, 3, 1, 5) for nh in (60, 70, 80, 90, 100)],
    (100, 80, 3, 1, 6),
]


def test_gen_random_matches_reference():
    rng = random.Random(23)
    draws = []
    for _ in range(3000):
        nh = rng.randint(0, 40)
        # up to 2 nh + 2 fixed edges, so that placement dead-ends occur
        draws.append((nh, rng.randint(0, 2 * nh + 2), rng.randint(1, 3),
                      rng.randint(0, 4), rng.randint(0, 12), rng.randrange(2**31)))
    draws += [(*shape, seed) for shape in _REFUTE_SHAPES for seed in range(3)]
    outcomes = [_outcome(reference_gen_random, args) for args in draws]
    assert [_outcome(gen_random, args) for args in draws] == outcomes
    errors = sum(o.startswith("InputError") for o in outcomes)
    assert 0 < errors < len(draws) // 2
    assert any(f"within {TRIES} tries" in o for o in outcomes)


def test_pairs_left_lists_the_remaining_pairs():
    rng = random.Random(5)
    for n in range(7):
        names = [f"v{i}" for i in range(n)]
        every = list(itertools.combinations(names, 2))
        for _ in range(20):
            taken = set(rng.sample(every, rng.randint(0, len(every))))
            view = _PairsLeft(names, taken)
            left = [e for e in every if e not in taken]
            assert len(view) == len(left)
            assert list(view) == left
            with pytest.raises(IndexError):
                view[len(view)]


def test_random_clique_instance_shape():
    rng = random.Random(21)
    gc = random_clique_instance(rng, (2, 3, 2), density=0.7)
    assert gc.part_sizes == (2, 3, 2)
    assert gc.m >= 1
    for (a, _), (b, _) in gc.edges:
        assert a < b


def test_random_clique_instance_low_density_keeps_one_edge():
    rng = random.Random(4)
    gc = random_clique_instance(rng, (1, 1), density=0.0)
    assert gc.m == 1


def test_random_clique_instance_deterministic():
    a = random_clique_instance(random.Random(8), (2, 2), density=0.5)
    b = random_clique_instance(random.Random(8), (2, 2), density=0.5)
    assert a == b
