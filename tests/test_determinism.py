"""Golden hashes: every named algorithm emits the same solution files.

Determinism is a documented contract, so the hashes are fixed: they were
recorded with the pairwise crossing loops that the stack-scan geometry
kernel replaced, and any change to an emitted byte fails here.  ``auto``
was recorded when it still routed by shape alone, before the FPT loop
refuted by unary facts and checked pages forward.
"""

import hashlib

import pytest

from stackext import ALGORITHMS, InputError, emit_solution, gen_random, solve

from reference_impl import random_corpus

GOLDEN = {
    "oracle": "919b3e3f42cc63848ee7fce247febe9f7a3a88bd877ec01f52335624ce15bb91",
    "edges-fpt": "3b384d17b3b155f6fa73696c09c05cf59563e9e80311c342bcd54f196435246c",
    "one-vertex": "fca9aa6961ffb7537c8063e9833403901b733b3108228126095f97ecf76f809f",
    "greedy-is": "a2d99204aea71410ad27b0ecb1c597b61809cca1ad79053adb8e4dbbf9409315",
    "xp": "1d7c8b56e833e3ac661bba5bf50bebd478dc4803005855c44f6d7f1fc7f7d9e7",
    "dp-fpt": "a0c099bf3bf2b29bcf82f2a98ea6f787c7a2343fc2d957b68309fffa7b1cd5ee",
    "auto": "05bfcfe89c179718ee3123e127f20f74f3b803f26179fec138ea9f7fcba22121",
}


def _digest(algo: str) -> str:
    parts = []
    for inst in random_corpus(150, seed=37_000, v_max=7, ell_max=3):
        try:
            sol = solve(inst, algo)
        except InputError:
            parts.append("n/a")
            continue
        parts.append("none" if sol is None else emit_solution(sol))
    return hashlib.sha256("".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_solution_files_are_byte_identical(algo):
    assert _digest(algo) == GOLDEN[algo]


# ``greedy-is`` on the draws ``gen_random(8, 6, 2, 3, 5, seed)``, seeds
# 0..39, that have no edge between new vertices.  First-fit's gap pointer
# never moves left: the next vertex in the order goes at or after the
# previous one, even when its super interval starts left of that.  Resetting
# the pointer to the start of the super interval still yields valid
# layouts, but other ones on 4 of these 30 draws.
FIRST_FIT_GOLDEN = "c63c4162bc6dd3e5c72993f1892822e801fa745745c17be593c452e83b795d1c"


def test_first_fit_solutions_are_byte_identical():
    parts = []
    for seed in range(40):
        try:
            inst = gen_random(nh=8, mh=6, ell=2, n_add=3, m_add=5, seed=seed)
            sol = solve(inst, "greedy-is")
        except InputError:
            continue
        parts.append(f"{seed}:" + ("none" if sol is None else emit_solution(sol)))
    assert len(parts) == 30
    digest = hashlib.sha256("".join(parts).encode()).hexdigest()
    assert digest == FIRST_FIT_GOLDEN
