"""Hardness-instance generators and their behavior checks."""

import itertools
import json
import random

import pytest

from stackext import (
    CliqueCertificate,
    CliqueInstance,
    Formula,
    GadgetCertificate,
    InputError,
    all_clauses,
    build_fixation_gadget,
    check_reduction_lemmas,
    enumerate_solutions,
    evaluate,
    fixation_gadget_size,
    page_width,
    parse_clique_input,
    random_clique_instance,
    random_formula,
    reduce_3sat,
    reduce_mcc,
    satisfying_assignment,
    solve_xp,
)
from stackext.reductions import SatCertificate, fixation_layout


# ---------------------------------------------------------------------------
# anchor gadget

# spot values computed by hand from the block shape: each of the
# f_count + 1 blocks holds 2(ell - 1) private vertices plus its mark in
# the simple form, the compressed form one pair plus the mark
SIZE_SPOTS = {
    (1, 2, True): (7, 10),
    (1, 2, False): (7, 10),
    (2, 3, True): (17, 19),
    (2, 3, False): (11, 19),
    (4, 8, True): (79, 58),
    (4, 8, False): (19, 58),
}


@pytest.mark.parametrize("f_count,ell,simple", sorted(SIZE_SPOTS))
def test_gadget_size_spot_values(f_count, ell, simple):
    assert fixation_gadget_size(f_count, ell, simple) == SIZE_SPOTS[
        (f_count, ell, simple)
    ]


def test_gadget_size_matches_built_instance():
    for f_count, ell in itertools.product((1, 2, 3), (2, 3, 4)):
        inst = build_fixation_gadget(f_count, ell)
        n_v, n_e = fixation_gadget_size(f_count, ell, simple=True)
        assert len(inst.g.vertices) == n_v
        assert len(inst.g.edges) == n_e
        assert inst.n_add == f_count
        assert inst.m_add == 2 * f_count


def test_gadget_param_validation():
    with pytest.raises(InputError):
        fixation_gadget_size(0, 2)
    with pytest.raises(InputError):
        fixation_gadget_size(1, 1)


def test_intended_gadget_layout_solves():
    for f_count, ell in itertools.product((1, 2), (2, 3)):
        inst = build_fixation_gadget(f_count, ell)
        assert inst.is_solution(fixation_layout(f_count, ell))


def test_gadget_is_rigid():
    for f_count, ell in itertools.product((1, 2), (2, 3)):
        inst = build_fixation_gadget(f_count, ell)
        sols = list(enumerate_solutions(inst))
        assert len(sols) == 1
        assert sols[0] == fixation_layout(f_count, ell)
        rep = check_reduction_lemmas(inst, GadgetCertificate(f_count, ell))
        assert rep.solutions == 1
        assert rep.ok


def test_lemma_checker_rejects_unknown_certificate():
    inst = build_fixation_gadget(1, 2)
    with pytest.raises(InputError):
        check_reduction_lemmas(inst, object())


# ---------------------------------------------------------------------------
# satisfiability

# whole-graph counts, new elements included; fixed part by hand:
# 3 gadget blocks of 2(ell-1)+1 vertices, n+m+1 blocker groups of
# ell-1 vertices plus the x/c row, blockers 2 per absent variable and
# 1 per literal, gadget edges (ell+4)*2 + ell + 2, one closing edge
SAT_SPOTS = {
    (3, 0): (68, 47),
    (3, 1): (75, 51),
    (3, 2): (82, 55),
    (4, 2): (115, 78),
}


def _formula(n, m, seed=0):
    if m == 0:
        return Formula(n, ())
    return random_formula(random.Random(seed), n, m)


@pytest.mark.parametrize("n,m", sorted(SAT_SPOTS))
def test_sat_reduction_sizes(n, m):
    inst, cert = reduce_3sat(_formula(n, m))
    assert (len(inst.g.vertices), len(inst.g.edges)) == SAT_SPOTS[(n, m)]
    assert inst.ell == 2 * n + 1 == cert.ell
    assert inst.n_add == 2
    assert inst.m_add == 4 + n + m


def test_sat_reduction_positive_direction():
    f = Formula(3, ((1, -2, 3), (-1, 2, -3)))
    gamma = satisfying_assignment(f)
    assert gamma is not None
    inst, cert = reduce_3sat(f)
    lay = cert.satisfying_layout(inst, gamma)
    assert inst.is_solution(lay)
    assert cert.extract_assignment(lay) == gamma


def test_sat_reduction_solver_extraction():
    f = Formula(3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3)))
    inst, cert = reduce_3sat(f)
    sol = solve_xp(inst)
    assert sol is not None
    assert inst.is_solution(sol)
    assert evaluate(f, cert.extract_assignment(sol))


def test_sat_reduction_negative_direction():
    dead = Formula(3, tuple(all_clauses(3)))
    inst, cert = reduce_3sat(dead)
    assert solve_xp(inst) is None


def test_sat_certificate_guards():
    f = Formula(3, ((1, 2, 3),))
    inst, cert = reduce_3sat(f)
    with pytest.raises(InputError):
        cert.var_page(0, True)
    with pytest.raises(InputError):
        cert.var_page(4, False)
    with pytest.raises(InputError):
        cert.satisfying_layout(inst, {1: True, 2: True})
    with pytest.raises(InputError):
        cert.satisfying_layout(
            inst, {1: False, 2: False, 3: False}
        )


def test_sat_certificate_round_trip():
    _, cert = reduce_3sat(Formula(3, ((1, -2, 3), (-1, 2, -3))))
    again = SatCertificate.from_json(cert.to_json())
    assert again == cert
    assert json.loads(cert.to_json())["n_vars"] == 3


def test_sat_lemmas_hold_over_all_solutions():
    f = Formula(3, ((1, -2, 3),))
    inst, cert = reduce_3sat(f)
    # the raw space is huge but pruning keeps the walk fast
    rep = check_reduction_lemmas(inst, cert, cap=10**11)
    assert rep.solutions == 12
    assert rep.ok, rep.results


# ---------------------------------------------------------------------------
# multicolored clique


def test_clique_instance_validation():
    ok = CliqueInstance((2, 2), (((1, 1), (2, 2)),))
    assert ok.k == 2 and ok.m == 1
    with pytest.raises(InputError):
        CliqueInstance((3,), (((1, 1), (1, 2)),))
    with pytest.raises(InputError):
        CliqueInstance((2, 0), (((1, 1), (2, 1)),))
    with pytest.raises(InputError):
        CliqueInstance((2, 2), (((1, 1), (1, 2)),))
    with pytest.raises(InputError):
        CliqueInstance((2, 2), (((1, 1), (3, 1)),))
    with pytest.raises(InputError):
        CliqueInstance((2, 2), (((1, 1), (2, 3)),))
    with pytest.raises(InputError):
        CliqueInstance(
            (2, 2), (((1, 1), (2, 2)), ((2, 2), (1, 1)))
        )
    with pytest.raises(InputError):
        CliqueInstance((2, 2), ())


def test_clique_instance_normalizes_and_searches():
    gc = CliqueInstance(
        (2, 2),
        (((2, 1), (1, 1)), ((1, 1), (2, 2)), ((1, 2), (2, 2))),
    )
    assert gc.edges[0] == ((1, 1), (2, 1))
    assert gc.has_edge((2, 2), (1, 1))
    assert not gc.has_edge((1, 2), (2, 1))
    assert set(gc.colorful_cliques()) == {(1, 1), (1, 2), (2, 2)}
    assert gc.has_colorful_clique()


def test_mcc_reduction_shape():
    rng = random.Random(5)
    for sizes in ((2, 2), (1, 3), (2, 2, 2)):
        gc = random_clique_instance(rng, sizes)
        inst, cert = reduce_mcc(gc)
        k = len(sizes)
        assert inst.ell == gc.m + 1 == cert.ell
        assert inst.n_add == k
        assert inst.m_add == 2 * k + k * (k - 1) // 2
        assert inst.kappa == 3 * k + k * (k - 1) // 2
        assert page_width(inst.layout_h) == 3


def test_mcc_verdicts_and_extraction():
    rng = random.Random(9)
    trials = []
    for _ in range(12):
        sizes = rng.choice(((2, 2), (2, 3), (1, 2), (2, 2, 1)))
        trials.append(random_clique_instance(rng, sizes, density=0.6))
    # any single cross edge is a colorful clique for two parts, so pin
    # a three-part instance with one pair missing as the negative case
    trials.append(
        CliqueInstance(
            (1, 1, 1), (((1, 1), (2, 1)), ((1, 1), (3, 1)))
        )
    )
    seen_pos = seen_neg = 0
    for gc in trials:
        inst, cert = reduce_mcc(gc)
        sol = solve_xp(inst)
        want = gc.has_colorful_clique()
        assert (sol is not None) == want
        if sol is None:
            seen_neg += 1
            continue
        seen_pos += 1
        picks = cert.extract_selection(sol)
        assert picks in set(gc.colorful_cliques())
    assert seen_pos >= 1 and seen_neg >= 1


def test_mcc_selection_layout():
    gc = CliqueInstance(
        (2, 2),
        (((1, 1), (2, 1)), ((1, 2), (2, 2))),
    )
    inst, cert = reduce_mcc(gc)
    lay = cert.selection_layout(inst, (1, 1))
    assert inst.is_solution(lay)
    assert cert.extract_selection(lay) == (1, 1)
    with pytest.raises(InputError):
        cert.selection_layout(inst, (1,))
    with pytest.raises(InputError):
        cert.selection_layout(inst, (1, 3))
    with pytest.raises(InputError):
        cert.selection_layout(inst, (1, 2))


def test_mcc_corridor_dedupe():
    gc = CliqueInstance(
        (2, 2),
        (((1, 1), (2, 2)), ((1, 2), (2, 1))),
    )
    inst, cert = reduce_mcc(gc)
    assert ("u1j2", "u2j2", 2, 1) in cert.dropped
    # the shared corridor pair keeps its first page, instance stays simple
    assert len(set(inst.g.edges)) == len(inst.g.edges)
    rep = check_reduction_lemmas(inst, cert)
    assert rep.ok, rep.results


def test_mcc_labels():
    gc = CliqueInstance((2, 1), (((1, 2), (2, 1)),))
    inst, cert = reduce_mcc(gc, labels=(("ant", "bee"), ("cow",)))
    assert cert.label_of(1, 2) == "bee"
    sol = solve_xp(inst)
    assert sol is not None
    assert cert.extract_vertices(sol) == ("bee", "cow")
    bare = reduce_mcc(gc)[1]
    assert bare.label_of(1, 2) == "v1_2"
    with pytest.raises(InputError):
        CliqueCertificate((2, 1), gc.edges, (), labels=(("a",), ("c",)))
    with pytest.raises(InputError):
        CliqueCertificate((2, 1), gc.edges, (), labels=(("a", "a"), ("c",)))


def test_clique_certificate_round_trip():
    gc = CliqueInstance(
        (2, 2),
        (((1, 1), (2, 2)), ((1, 2), (2, 1))),
    )
    _, cert = reduce_mcc(gc, labels=(("p", "q"), ("r", "t")))
    again = CliqueCertificate.from_json(cert.to_json())
    assert again == cert


_CERT_MALFORMED = [
    pytest.param("[" * 200_000, id="deep-nesting"),
    pytest.param("[]", id="list"),
    pytest.param("{}", id="empty-object"),
    pytest.param('{"n_vars": 2, "clauses": 5}', id="clauses-not-a-list"),
    pytest.param('{"n_vars": 3, "clauses": [[1, 2, true]]}', id="boolean-literal"),
    pytest.param('{"n_vars": 3, "clauses": [[1, 2, 4]]}', id="literal-out-of-range"),
    pytest.param(
        '{"part_sizes": [2, 1], "edges": [[[1, 1], [2]]], "dropped": []}',
        id="short-edge-end",
    ),
    pytest.param(
        '{"part_sizes": [2, 1], "edges": [[[1, 1], [2, 1]]], "dropped": [["a", "b", 1]]}',
        id="short-dropped-entry",
    ),
    pytest.param(
        '{"part_sizes": [2, 1], "edges": [[[1, 1], [2, 1]]], "dropped": [],'
        ' "labels": [["a", "b"], [3]]}',
        id="label-not-a-string",
    ),
    pytest.param(
        '{"part_sizes": [2, 0], "edges": [[[1, 1], [2, 1]]], "dropped": []}',
        id="empty-part",
    ),
]


@pytest.mark.parametrize("cls", [SatCertificate, CliqueCertificate])
@pytest.mark.parametrize("text", _CERT_MALFORMED)
def test_certificate_from_json_rejects_malformed_input(cls, text):
    with pytest.raises(InputError):
        cls.from_json(text)


def test_parse_clique_input():
    doc = {
        "vertices": [
            {"name": "p", "color": 1},
            {"name": "q", "color": 2},
            {"name": "r", "color": 1},
        ],
        "edges": [["p", "q"], ["q", "r"]],
    }
    gc, labels = parse_clique_input(json.dumps(doc))
    assert gc.part_sizes == (2, 1)
    assert labels == (("p", "r"), ("q",))
    assert gc.edges == (((1, 1), (2, 1)), ((1, 2), (2, 1)))


@pytest.mark.parametrize(
    "doc",
    [
        "nonsense",
        "[]",
        '{"vertices": []}',
        '{"vertices": [], "edges": []}',
        '{"vertices": [{"name": "p"}], "edges": []}',
        '{"vertices": [{"name": "p", "color": true}], "edges": []}',
        '{"vertices": [{"name": "p", "color": 1}, {"name": "p", "color": 1}], "edges": []}',
        '{"vertices": [{"name": "p", "color": 2}], "edges": []}',
        '{"vertices": [{"name": "p", "color": 1}, {"name": "q", "color": 2}], "edges": [["p"]]}',
        '{"vertices": [{"name": "p", "color": 1}, {"name": "q", "color": 2}], "edges": [["p", "z"]]}',
    ],
)
def test_parse_clique_input_rejects(doc):
    with pytest.raises(InputError):
        parse_clique_input(doc)


def test_mcc_lemmas_on_small_instance():
    gc = CliqueInstance((1, 2), (((1, 1), (2, 2)),))
    inst, cert = reduce_mcc(gc)
    rep = check_reduction_lemmas(inst, cert)
    assert rep.solutions >= 1
    assert rep.ok, rep.results
    names = [name for name, _ in rep.results]
    assert "anchors-in-slots" in names
