import random

import pytest

import brute_reference
from qcontract import _budget, quiver
from qcontract._gf import GF, gf
from qcontract.cartan import ContractiblePair, contract_cartan
from qcontract.quiver import (
    AdmissibleAutomorphism, OrbitPair, Quiver, act, block_quot,
    block_sub, contract_quiver, count_fiber_lemma_checks, group_order,
    group_points, heart_subset, is_heart, is_sub_stable, levi_points, make_quiver,
    mu_contraction, mu_fiber_report, point_orbits, quiver_cartan, rep_points,
    stabilizer_generators, sub_stable_points,
    twisted_frobenius_fixed, twisted_frobenius_fixed_group,
)

A2Q = make_quiver((1, 2), [(1, 2)])
A3Q = make_quiver((1, 2, 3), [(1, 2), (2, 3)])
C3Q = make_quiver((0, 1, 2), [(0, 1), (1, 2), (2, 0)])
D4Q = make_quiver(("c", 1, 2, 3), [("c", 1), ("c", 2), ("c", 3)])


def folded_a5():
    q = make_quiver((1, 2, 3, 4, 5), [(1, 2), (2, 3), (4, 3), (5, 4)])
    a = AdmissibleAutomorphism(
        q, {1: 5, 5: 1, 2: 4, 4: 2, 3: 3},
        {"1>2": "5>4", "5>4": "1>2", "2>3": "4>3", "4>3": "2>3"})
    return q, a


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver((1,), (make_quiver((1, 2), [(1, 2)]).edges[0],))  # bad endpoint
    with pytest.raises(ValueError):
        make_quiver((1,), [(1, 1)])  # loop
    with pytest.raises(ValueError):
        Quiver((1, 1), ())
    q = make_quiver((1, 2), [(1, 2), (1, 2)])
    assert [h.id for h in q.edges] == ["1>2", "1>2#2"]


def test_automorphism_validation():
    q, a = folded_a5()
    assert a.vertex_orbits() == [(1, 5), (2, 4), (3,)]
    assert not a.is_identity()
    with pytest.raises(ValueError):  # not structure preserving
        AdmissibleAutomorphism(A2Q, {1: 2, 2: 1}, {"1>2": "1>2"})
    two_cycle = make_quiver((1, 2), [(1, 2), (2, 1)])
    with pytest.raises(ValueError):  # edge inside a single orbit
        AdmissibleAutomorphism(two_cycle, {1: 2, 2: 1},
                               {"1>2": "2>1", "2>1": "1>2"})
    ident = AdmissibleAutomorphism.identity(two_cycle)
    assert ident.is_identity() and ident.vertex_orbits() == [(1,), (2,)]


def test_quiver_cartan_pinned():
    c = quiver_cartan(A2Q, AdmissibleAutomorphism.identity(A2Q))
    assert c.indices == (1, 2) and c.pairing == ((2, -1), (-1, 2))
    c = quiver_cartan(C3Q, AdmissibleAutomorphism.identity(C3Q))
    assert c.pairing == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    assert not c.is_finite_type()
    q, a = folded_a5()
    c = quiver_cartan(q, a)
    assert c.indices == ((1, 5), (2, 4), 3)
    assert c.pairing == ((4, -2, 0), (-2, 4, -2), (0, -2, 2))


def test_pair_validation():
    ident = AdmissibleAutomorphism.identity(A3Q)
    with pytest.raises(ValueError):  # {1},{3}: no edge between them
        contract_quiver(A3Q, ident, OrbitPair((1,), (3,)))
    with pytest.raises(ValueError):  # wrong orientation
        contract_quiver(A3Q, ident, OrbitPair((3,), (2,)))
    with pytest.raises(ValueError):  # not an orbit
        contract_quiver(A3Q, ident, OrbitPair((1, 2), (3,)))


def test_contract_path():
    contr = contract_quiver(A3Q, AdmissibleAutomorphism.identity(A3Q),
                            OrbitPair((2,), (3,)))
    hat, hat_auto = contr
    assert hat.vertices == (1, 2)
    assert [(h.id, h.source, h.target) for h in hat.edges] == [("1>2", 1, 2)]
    assert hat_auto.is_identity()


def test_contract_cycle():
    contr = contract_quiver(C3Q, AdmissibleAutomorphism.identity(C3Q),
                            OrbitPair((1,), (2,)))
    hat = contr.hat_quiver
    assert hat.vertices == (0, 1)
    assert [(h.id, h.source, h.target) for h in hat.edges] == \
        [("0>1", 0, 1), ("2>0*1>2", 1, 0)]


def test_contract_star():
    contr = contract_quiver(D4Q, AdmissibleAutomorphism.identity(D4Q),
                            OrbitPair(("c",), (1,)))
    hat = contr.hat_quiver
    assert hat.vertices == ("c", 2, 3)
    assert [(h.id, h.source, h.target) for h in hat.edges] == \
        [("c>2", "c", 2), ("c>3", "c", 3)]


def test_contract_reversal_edge():
    # an extra arrow into the dropped vertex becomes a reversed composite
    q = make_quiver(("p", "z", "m"), [("p", "m"), ("z", "m")])
    contr = contract_quiver(q, AdmissibleAutomorphism.identity(q),
                            OrbitPair(("p",), ("m",)))
    hat = contr.hat_quiver
    assert hat.vertices == ("p", "z")
    assert [(h.id, h.source, h.target) for h in hat.edges] == \
        [("~p>m*z>m", "z", "p")]


def test_contract_folded():
    q, a = folded_a5()
    contr = contract_quiver(q, a, OrbitPair((1, 5), (2, 4)))
    hat, hat_auto = contr
    assert hat.vertices == (1, 3, 5)
    assert [(h.id, h.source, h.target) for h in hat.edges] == \
        [("2>3*1>2", 1, 3), ("4>3*5>4", 5, 3)]
    assert hat_auto.vertex_map == {1: 5, 3: 3, 5: 1}
    assert hat_auto.edge_map == {"2>3*1>2": "4>3*5>4", "4>3*5>4": "2>3*1>2"}


def _check_contraction_commutes(quiver, auto, pair):
    contr = contract_quiver(quiver, auto, pair)
    hat_cartan = quiver_cartan(contr.hat_quiver, contr.hat_auto)
    base = quiver_cartan(quiver, auto)
    plus_sym = contr.merged_orbit_symbol()
    from qcontract.quiver import orbit_symbol
    minus_sym = orbit_symbol(auto.orbit_of_vertex(pair.minus[0]))
    direct = contract_cartan(base, ContractiblePair(plus_sym, minus_sym),
                             new_index=plus_sym)
    assert hat_cartan.indices == direct.indices
    assert hat_cartan.pairing == direct.pairing


def test_contraction_commutes_with_cartan_pinned():
    _check_contraction_commutes(A3Q, AdmissibleAutomorphism.identity(A3Q),
                                OrbitPair((2,), (3,)))
    _check_contraction_commutes(C3Q, AdmissibleAutomorphism.identity(C3Q),
                                OrbitPair((1,), (2,)))
    _check_contraction_commutes(D4Q, AdmissibleAutomorphism.identity(D4Q),
                                OrbitPair(("c",), (1,)))
    q, a = folded_a5()
    _check_contraction_commutes(q, a, OrbitPair((1, 5), (2, 4)))


def test_contraction_commutes_with_cartan_fuzz():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 4)
        old = list(range(n))
        arrows = []
        for a in old:
            for b in old:
                if a != b and rng.random() < 0.3:
                    arrows.append((a, b))
        # plant one contractible pair P -> M and random spokes
        for v in old:
            if rng.random() < 0.4:
                arrows.append((v, "P") if rng.random() < 0.5 else ("P", v))
            if rng.random() < 0.4:
                arrows.append((v, "M") if rng.random() < 0.5 else ("M", v))
        arrows.append(("P", "M"))
        q = make_quiver(old + ["P", "M"], arrows)
        ident = AdmissibleAutomorphism.identity(q)
        _check_contraction_commutes(q, ident, OrbitPair(("P",), ("M",)))


def test_point_counts_pinned():
    dims = {1: 1, 2: 1}
    assert len(rep_points(A2Q, dims, gf(2))) == 2
    assert len(group_points(A2Q, dims, gf(2))) == 1
    assert len(rep_points(A2Q, dims, gf(3))) == 3
    assert len(group_points(A2Q, dims, gf(3))) == 4
    assert group_order(A2Q, dims, 2) == 1
    assert group_order(A2Q, dims, 3) == 4
    assert group_order(A2Q, {1: 2, 2: 1}, 2) == 6


def test_budget_guard():
    saved = _budget.active_budget()
    _budget.set_budget(1000)
    try:
        with pytest.raises(_budget.BudgetExceeded):
            rep_points(A2Q, {1: 4, 2: 4}, gf(5))
    finally:
        _budget.set_budget(saved.limit)


ENUMERATIONS = {
    "group_points": lambda d, F: group_points(A2Q, d, F),
    "sub_stable_points": lambda d, F: sub_stable_points(A2Q, d, d, F),
    "unipotent_points": lambda d, F: brute_reference.unipotent_points(A2Q, d, d, F),
    "stabilizer_points": lambda d, F: brute_reference.stabilizer_points(A2Q, d, d, F),
    "levi_points": lambda d, F: levi_points(A2Q, d, d, F),
}


@pytest.mark.parametrize("name", sorted(ENUMERATIONS))
def test_enumerations_charge_before_building(name, monkeypatch):
    F = gf(3)
    calls = []
    for meth in ("all_matrices", "general_linear"):
        orig = getattr(type(F), meth)
        monkeypatch.setattr(type(F), meth,
                            lambda self, *a, _o=orig, _m=meth: calls.append(_m) or _o(self, *a))
    saved = _budget.active_budget()
    try:
        budget = _budget.set_budget(1000)
        with pytest.raises(_budget.BudgetExceeded):
            ENUMERATIONS[name]({1: 3, 2: 3}, F)
        assert calls == [] and budget.used == 0
        # the closed-form charge is exactly the number of points built
        budget = _budget.set_budget(10 ** 6)
        for dims in ({1: 1, 2: 1}, {1: 2, 2: 1}, {1: 0, 2: 2}):
            before = budget.used
            got = ENUMERATIONS[name](dims, gf(2))
            assert budget.used - before == len(got) == len(set(got))
    finally:
        _budget.set_budget(saved.limit)


def test_twisted_frobenius_identity_auto():
    # with the identity automorphism and base q, everything is fixed
    dims = {1: 1, 2: 1}
    pts = rep_points(A2Q, dims, gf(3))
    ident = AdmissibleAutomorphism.identity(A2Q)
    assert twisted_frobenius_fixed(pts, A2Q, ident, gf(3), 3) == pts


def test_twisted_frobenius_folded():
    q, a = folded_a5()
    F4 = gf(4)
    dims = {v: 1 for v in q.vertices}
    fixed = twisted_frobenius_fixed(rep_points(q, dims, F4), q, a, F4, 2)
    # one free F4 entry per edge orbit (the other is its conjugate)
    assert len(fixed) == 16
    gfix = twisted_frobenius_fixed_group(group_points(q, dims, F4), q, a, F4, 2)
    assert len(gfix) == 9
    assert group_order(q, dims, 2, auto=a) == 9


def test_heart_pinned():
    pair = OrbitPair((1,), (2,))
    dims = {1: 1, 2: 1}
    assert len(heart_subset(rep_points(A2Q, dims, gf(2)), A2Q, pair, dims, gf(2))) == 1
    assert len(heart_subset(rep_points(A2Q, dims, gf(3)), A2Q, pair, dims, gf(3))) == 2
    dims2 = {1: 2, 2: 2}
    hearts = heart_subset(rep_points(A2Q, dims2, gf(2)), A2Q, pair, dims2, gf(2))
    assert len(hearts) == 6  # |GL_2(F_2)|
    with pytest.raises(ValueError):
        heart_subset([], A2Q, pair, {1: 1, 2: 2}, gf(2))


def test_mu_pinned_values():
    F7 = gf(7)
    ident = AdmissibleAutomorphism.identity(C3Q)
    contr = contract_quiver(C3Q, ident, OrbitPair((1,), (2,)))
    dims = {0: 1, 1: 1, 2: 1}
    x = (((3,),), ((2,),), ((5,),))  # edges 0>1, 1>2, 2>0
    assert mu_contraction(contr, dims, F7, x) == (((3,),), ((3,),))  # 5*2 = 3
    with pytest.raises(ValueError):
        mu_contraction(contr, dims, F7, (((3,),), ((0,),), ((5,),)))

    F5 = gf(5)
    q = make_quiver(("p", "z", "m"), [("p", "m"), ("z", "m")])
    contr = contract_quiver(q, AdmissibleAutomorphism.identity(q),
                            OrbitPair(("p",), ("m",)))
    x = (((2,),), ((3,),))
    # reversed composite: inv(2) * 3 = 3 * 3 = 4
    assert mu_contraction(contr, {"p": 1, "z": 1, "m": 1}, F5, x) == (((4,),),)


def test_mu_refuses_a_singular_crossing_component_before_any_product(monkeypatch):
    products = []
    for meth in ("mat_mul", "mat_inv"):
        monkeypatch.setattr(GF, meth, lambda self, *a, _m=meth: products.append(_m))
    contr = contract_quiver(C3Q, AdmissibleAutomorphism.identity(C3Q),
                            OrbitPair((1,), (2,)))
    with pytest.raises(ValueError, match="component 1>2 is singular"):
        mu_contraction(contr, {0: 1, 1: 1, 2: 1}, gf(7), (((3,),), ((0,),), ((5,),)))
    q = make_quiver(("p", "z", "m"), [("p", "m"), ("z", "m")])
    contr = contract_quiver(q, AdmissibleAutomorphism.identity(q),
                            OrbitPair(("p",), ("m",)))
    with pytest.raises(ValueError, match="component p>m is singular"):
        mu_contraction(contr, {"p": 1, "z": 1, "m": 1}, gf(5), (((0,),), ((3,),)))
    assert products == []


def test_mu_refuses_unequal_pair_dimensions():
    # the 0x2 crossing component is stored as (), like a 0x0 one, so it
    # would pass as invertible; the unequal pair dimensions refuse it
    contr = contract_quiver(A3Q, AdmissibleAutomorphism.identity(A3Q),
                            OrbitPair((1,), (2,)))
    with pytest.raises(ValueError, match="unequal dimensions"):
        mu_contraction(contr, {1: 2, 2: 0, 3: 1}, gf(2), ((), ((),)))


def test_mu_equivariance_random():
    rng = random.Random(17)
    F3 = gf(3)
    ident = AdmissibleAutomorphism.identity(C3Q)
    contr = contract_quiver(C3Q, ident, OrbitPair((1,), (2,)))
    dims = {0: 2, 1: 1, 2: 1}
    pts = rep_points(C3Q, dims, F3)
    hearts = heart_subset(pts, C3Q, contr.pair, dims, F3)
    gls = {v: F3.general_linear(dims[v]) for v in C3Q.vertices}
    for _ in range(200):
        x = rng.choice(hearts)
        g = tuple(rng.choice(gls[v]) for v in C3Q.vertices)
        gx = act(F3, C3Q, g, x)
        lhs = mu_contraction(contr, dims, F3, gx)
        rhs = act(F3, contr.hat_quiver, contr.project_group(g),
                  mu_contraction(contr, dims, F3, x))
        assert lhs == rhs


def test_mu_fiber_report_pinned():
    ident = AdmissibleAutomorphism.identity(A2Q)
    contr = contract_quiver(A2Q, ident, OrbitPair((1,), (2,)))
    rep = mu_fiber_report(contr, {1: 1, 2: 1}, gf(3))
    assert rep == {"heart_size": 2, "fiber_sizes": [2], "constant": True,
                   "expected_fiber": 2, "matches_group_order": True,
                   "surjective": True}
    rep = mu_fiber_report(contr, {1: 2, 2: 2}, gf(2))
    assert rep["fiber_sizes"] == [6] and rep["matches_group_order"]
    assert rep["surjective"]


def test_mu_fiber_report_twisted():
    q, a = folded_a5()
    contr = contract_quiver(q, a, OrbitPair((1, 5), (2, 4)))
    rep = mu_fiber_report(contr, {v: 1 for v in q.vertices}, gf(4), base_q=2)
    # G^{[minus],F}: one orbit of size 2 over the base field, GL_1(F_4)
    assert rep["heart_size"] == 12 and rep["fiber_sizes"] == [3]
    assert rep["expected_fiber"] == 3 and rep["matches_group_order"]
    assert rep["surjective"]


def test_sub_stable_blocks():
    F2 = gf(2)
    sub, quot = {1: 1, 2: 1}, {1: 1, 2: 1}
    s_w = sub_stable_points(A2Q, sub, quot, F2)
    assert len(s_w) == 8
    full = rep_points(A2Q, {1: 2, 2: 2}, F2)
    assert sorted(s_w) == sorted(x for x in full if is_sub_stable(A2Q, sub, x))
    x = (((1, 1), (0, 1)),)
    assert block_sub(A2Q, sub, x) == (((1,),),)
    assert block_quot(A2Q, sub, x) == (((1,),),)


def test_fiber_lemma_report_pinned():
    ident = AdmissibleAutomorphism.identity(A2Q)
    contr = contract_quiver(A2Q, ident, OrbitPair((1,), (2,)))
    tau = {1: 1, 2: 1}
    omega = {1: 1, 2: 1}
    rep = count_fiber_lemma_checks(contr, tau, omega, gf(2))
    assert rep["cartesian_top_squares"]
    assert rep["kappa_fiber_constant"] and rep["kappa_surjective"]
    # constant q-power fiber; the observed exponent is reported next to the
    # stated formula, which differs by a factor of two in the exponent here
    assert rep["kappa_fiber_observed"] == 2
    assert rep["kappa_fiber_formula"] == 4
    assert not rep["kappa_fiber_matches"]
    p = rep["p_prime"]
    assert p["constant"] and p["surjective"]
    assert p["observed"] == p["expected"] == 1 and p["matches"]


def test_fiber_lemma_degenerate_sub():
    ident = AdmissibleAutomorphism.identity(A2Q)
    contr = contract_quiver(A2Q, ident, OrbitPair((1,), (2,)))
    rep = count_fiber_lemma_checks(contr, {1: 1, 2: 1}, {1: 0, 2: 0}, gf(2))
    assert rep["kappa_fiber_observed"] == 1
    assert rep["p_prime"]["observed"] == 1 and rep["p_prime"]["matches"]


def test_fiber_lemma_report_pinned_f3():
    ident = AdmissibleAutomorphism.identity(A2Q)
    contr = contract_quiver(A2Q, ident, OrbitPair((1,), (2,)))
    rep = count_fiber_lemma_checks(contr, {1: 1, 2: 1}, {1: 1, 2: 1}, gf(3))
    assert rep["cartesian_top_squares"]
    assert rep["kappa_fiber_constant"] and rep["kappa_surjective"]
    assert rep["kappa_fiber_observed"] == 3 and rep["kappa_fiber_formula"] == 9
    assert not rep["kappa_fiber_matches"]
    assert rep["p_prime"] == {"constant": True, "observed": 4, "expected": 4,
                              "matches": True, "surjective": True}


@pytest.mark.parametrize("q, tau, omega, kappa, p_prime", [
    (2, (1, 1), (2, 2), (4, 16), 6),
    (2, (2, 2), (1, 1), (4, 16), 6),
    (4, (1, 1), (1, 1), (4, 16), 9),
    (2, (2, 2), (2, 2), (16, 256), 36),
    (3, (1, 1), (2, 2), (9, 81), 96),
])
def test_fiber_lemma_report_pinned_beyond_one_dimension(q, tau, omega, kappa, p_prime):
    ident = AdmissibleAutomorphism.identity(A2Q)
    contr = contract_quiver(A2Q, ident, OrbitPair((1,), (2,)))
    rep = count_fiber_lemma_checks(contr, dict(zip(A2Q.vertices, tau)),
                                   dict(zip(A2Q.vertices, omega)), gf(q))
    assert rep == {"cartesian_top_squares": True, "kappa_fiber_constant": True,
                   "kappa_fiber_observed": kappa[0], "kappa_fiber_formula": kappa[1],
                   "kappa_fiber_matches": False, "kappa_surjective": True,
                   "p_prime": {"constant": True, "observed": p_prime, "expected": p_prime,
                               "matches": True, "surjective": True}}



@pytest.mark.parametrize("q, kappa, p_prime", [(2, (2, 4), 1), (3, (3, 9), 4)])
def test_fiber_lemma_report_pinned_with_a_zero_dimensional_vertex(q, kappa, p_prime):
    # vertex 1 has dimension 0, so the edge 1 -> 2 is a 1 x 0 matrix; acting
    # on it must keep that shape for p' to reach every class
    contr = contract_quiver(A3Q, AdmissibleAutomorphism.identity(A3Q),
                            OrbitPair((2,), (3,)))
    dims = {1: 0, 2: 1, 3: 1}
    rep = count_fiber_lemma_checks(contr, dims, dims, gf(q))
    assert rep == {"cartesian_top_squares": True, "kappa_fiber_constant": True,
                   "kappa_fiber_observed": kappa[0], "kappa_fiber_formula": kappa[1],
                   "kappa_fiber_matches": False, "kappa_surjective": True,
                   "p_prime": {"constant": True, "observed": p_prime, "expected": p_prime,
                               "matches": True, "surjective": True}}


@pytest.mark.parametrize("quiver_, pair, tau, omega", [
    (A3Q, ((1,), (2,)), (1, 1, 1), (1, 1, 1)),
    (A3Q, ((2,), (3,)), (1, 1, 1), (1, 1, 1)),
    (D4Q, (("c",), (1,)), (1, 1, 1, 1), (1, 1, 0, 1)),
])
def test_fiber_lemma_report_pinned_with_a_contracted_edge(quiver_, pair, tau, omega):
    # the contracted quiver keeps an edge, so the contracted classes of p'
    # differ from point to point (on A2 there is one contracted point)
    contr = contract_quiver(quiver_, AdmissibleAutomorphism.identity(quiver_),
                            OrbitPair(*pair))
    assert contr.hat_quiver.edges
    rep = count_fiber_lemma_checks(contr, dict(zip(quiver_.vertices, tau)),
                                   dict(zip(quiver_.vertices, omega)), gf(2))
    assert rep == {"cartesian_top_squares": True, "kappa_fiber_constant": True,
                   "kappa_fiber_observed": 2, "kappa_fiber_formula": 4,
                   "kappa_fiber_matches": False, "kappa_surjective": True,
                   "p_prime": {"constant": True, "observed": 1, "expected": 1,
                               "matches": True, "surjective": True}}


@pytest.mark.parametrize("q, tau, omega, used, mat_muls", [
    (2, (1, 1), (1, 1), 21, 10),
    (3, (1, 1), (1, 1), 146, 176),
    (2, (1, 1), (2, 2), 423, 456),
    (4, (1, 1), (1, 1), 541, 738),
], ids=["F2-1,1-1,1", "F3-1,1-1,1", "F2-1,1-2,2", "F4-1,1-1,1"])
def test_fiber_lemma_work_is_pinned(q, tau, omega, used, mat_muls, monkeypatch):
    # p' charges one budget unit per (generator, stable point) step of the
    # Q-orbit walk and per Levi element over each orbit, and makes two GF
    # products per edge of each action: both counts are pinned
    calls = []
    orig = type(gf(q)).mat_mul
    monkeypatch.setattr(type(gf(q)), "mat_mul",
                        lambda self, a, b: calls.append(None) or orig(self, a, b))
    contr = contract_quiver(A2Q, AdmissibleAutomorphism.identity(A2Q), OrbitPair((1,), (2,)))
    saved = _budget.active_budget()
    try:
        budget = _budget.set_budget(10 ** 6)
        count_fiber_lemma_checks(contr, dict(zip(A2Q.vertices, tau)),
                                 dict(zip(A2Q.vertices, omega)), gf(q))
    finally:
        _budget.set_budget(saved.limit)
    assert (budget.used, len(calls)) == (used, mat_muls)


def test_p_prime_report_never_enumerates_the_whole_group(monkeypatch):
    def whole_group(*args):
        raise AssertionError("the fiber report enumerated a whole group")

    monkeypatch.setattr(quiver, "group_points", whole_group)
    # nor the whole G_v = GL(omega_v + tau_v) at a vertex where both parts
    # are nonzero: p' walks the Levi factor, which needs GL(omega_v) and
    # GL(tau_v) only
    general_linear = GF.general_linear

    def forbid(size):
        def gl(self, n):
            if n == size:
                raise AssertionError(f"the fiber report enumerated GL({n})")
            return general_linear(self, n)
        monkeypatch.setattr(GF, "general_linear", gl)

    forbid(2)
    test_fiber_lemma_report_pinned()
    test_fiber_lemma_report_pinned_f3()
    forbid(3)
    test_fiber_lemma_report_pinned_beyond_one_dimension(2, (1, 1), (2, 2), (4, 16), 6)


@pytest.mark.parametrize("quiver_, pair, tau, omega, q", [
    (A2Q, ((1,), (2,)), (1, 1), (1, 1), 2),
    (A2Q, ((1,), (2,)), (1, 1), (1, 1), 3),
    (A2Q, ((1,), (2,)), (1, 1), (1, 1), 4),
    (A2Q, ((1,), (2,)), (1, 1), (2, 2), 2),
    (A2Q, ((1,), (2,)), (2, 2), (1, 1), 2),
    (A3Q, ((2,), (3,)), (0, 1, 1), (0, 1, 1), 2),
    (A3Q, ((1,), (2,)), (1, 1, 1), (1, 1, 1), 2),
    (A3Q, ((2,), (3,)), (1, 1, 1), (1, 1, 1), 2),
    (D4Q, (("c",), (1,)), (1, 1, 1, 1), (1, 1, 0, 1), 2),
    (A2Q, ((1,), (2,)), (1, 1), (1, 1), 5),
    (A3Q, ((2,), (3,)), (0, 1, 1), (2, 1, 1), 2),
], ids=["A2-F2", "A2-F3", "A2-F4", "A2-F2-1,1-2,2", "A2-F2-2,2-1,1", "A3-F2-zero-vertex",
        "A3-F2-pair-1,2", "A3-F2-pair-2,3", "D4-F2", "A2-F5", "A3-F2-free-vertex-2,1,1"])
def test_p_prime_slice_matches_the_full_walk(quiver_, pair, tau, omega, q):
    # p' reads the classes over one point per Q-orbit of S_heart only; by
    # G- and Q-equivariance its report equals that of a walk of every class
    # of G x_U S_heart.  The last case has a contracted edge and a Levi
    # factor with elements of order 3 (GL_2(F_2) at the free vertex), so a
    # target built with m in place of m^-1 fails there
    contr = contract_quiver(quiver_, AdmissibleAutomorphism.identity(quiver_),
                            OrbitPair(*pair))
    tau, omega = dict(zip(quiver_.vertices, tau)), dict(zip(quiver_.vertices, omega))
    assert (count_fiber_lemma_checks(contr, tau, omega, gf(q))["p_prime"]
            == brute_reference.p_prime_full(contr, tau, omega, gf(q)))


@pytest.mark.parametrize("quiver_, tau, omega, q", [
    (A2Q, (1, 1), (1, 1), 2),
    (A2Q, (1, 1), (1, 1), 3),
    (A2Q, (1, 1), (1, 1), 4),
    (A3Q, (0, 1, 1), (0, 1, 1), 3),
    (A2Q, (0, 0), (2, 1), 3),
], ids=["A2-F2", "A2-F3", "A2-F4", "A3-F3-zero-vertex", "A2-F3-tau-0"])
def test_stabilizer_generators_generate_the_block_stabilizer(quiver_, tau, omega, q):
    F = gf(q)
    tau, omega = dict(zip(quiver_.vertices, tau)), dict(zip(quiver_.vertices, omega))
    gens = stabilizer_generators(quiver_, omega, tau, F)
    for g, g_inv in gens:
        assert all(F.mat_mul(a, b) == F.mat_id(len(a)) for a, b in zip(g, g_inv))
    identity = tuple(F.mat_id(omega[v] + tau[v]) for v in quiver_.vertices)
    closure, seen = [identity], {identity}
    for h in closure:  # grows while it is walked
        for g, _ in gens:
            gh = tuple(F.mat_mul(a, b) for a, b in zip(g, h))
            if gh not in seen:
                seen.add(gh)
                closure.append(gh)
    # with tau = 0 the block stabilizer is the whole group
    whole = (group_points(quiver_, omega, F) if not any(tau.values())
             else brute_reference.stabilizer_points(quiver_, omega, tau, F))
    assert sorted(closure) == sorted(whole)


@pytest.mark.parametrize("quiver_, pair, tau, omega, orbits", [
    (A3Q, ((2,), (3,)), (1, 1, 1), (1, 1, 1), 5),
    (D4Q, (("c",), (1,)), (1, 1, 1, 1), (1, 1, 0, 1), 10),
], ids=["A3-pair-2,3", "D4"])
def test_point_orbits_are_the_block_stabilizer_orbits(quiver_, pair, tau, omega, orbits):
    # the orbit walk under the generators partitions the stable heart as
    # the whole brute-force block stabilizer does
    F = gf(2)
    tau, omega = dict(zip(quiver_.vertices, tau)), dict(zip(quiver_.vertices, omega))
    heart = [x for x in sub_stable_points(quiver_, omega, tau, F)
             if is_heart(quiver_, OrbitPair(*pair), F, x)]
    walked = point_orbits(F, quiver_, stabilizer_generators(quiver_, omega, tau, F), heart)
    whole = brute_reference.stabilizer_points(quiver_, omega, tau, F)
    assert len(walked) == orbits
    assert ({frozenset(o) for o in walked}
            == {frozenset(act(F, quiver_, g, x) for g in whole) for x in heart})


def _stable_heart(tau, omega, F):
    return [x for x in sub_stable_points(A2Q, omega, tau, F)
            if is_heart(A2Q, OrbitPair((1,), (2,)), F, x)]


def _lex_least_member(F, g, x, subgroup):
    """The least member of the class of (g, x) under (g, x) ~ (g s^-1, s.x),
    searched over the (s, s^-1) pairs of the whole subgroup."""
    return min((tuple(F.mat_mul(gm, sm) for gm, sm in zip(g, sinv)),
                act(F, A2Q, s, x, sinv)) for s, sinv in subgroup)


@pytest.mark.parametrize("q, tau, omega, sample", [
    (2, {1: 1, 2: 1}, {1: 1, 2: 1}, None),
    (2, {1: 2, 2: 2}, {1: 0, 2: 0}, None),
    (3, {1: 1, 2: 1}, {1: 0, 2: 0}, None),
    (3, {1: 1, 2: 1}, {1: 1, 2: 1}, 150),
])
@pytest.mark.parametrize("subgroup", ["unipotent", "stabilizer"])
def test_coset_table_gives_the_lex_least_class_member(q, tau, omega, sample, subgroup):
    F = gf(q)
    sub = getattr(brute_reference, f"{subgroup}_points")(A2Q, omega, tau, F)
    g_all = brute_reference.stabilizer_points(A2Q, omega, tau, F)
    us, qs = ([list(p) for p in pools] for _, pools in
              brute_reference.vertex_blocks(F, A2Q.vertices, omega, tau))
    tables = [brute_reference.coset_table(F, qv, sv)
              for qv, sv in zip(qs, qs if subgroup == "stabilizer" else us)]
    assert [set(t) for t in tables] == [{g[k] for g in g_all} for k in range(len(A2Q.vertices))]
    with_inv = [(s, tuple(F.mat_inv(m) for m in s)) for s in sub]
    heart = _stable_heart(tau, omega, F)
    pairs = [(g, x) for g in g_all for x in heart]
    if sample is not None:
        pairs = random.Random(q).sample(pairs, sample)
    ends, memo = quiver._edge_ends(A2Q), {}
    for g, x in pairs:
        class_of = brute_reference.class_map(F, ends, tables, memo, g)
        assert class_of(x) == _lex_least_member(F, g, x, with_inv)


@pytest.mark.parametrize("q", [2, 3])
def test_unipotent_radical_preserves_the_stable_heart(q):
    F = gf(q)
    dims = {1: 1, 2: 1}
    heart = set(_stable_heart(dims, dims, F))
    for u in brute_reference.unipotent_points(A2Q, dims, dims, F):
        assert {act(F, A2Q, u, x) for x in heart} == heart


def test_rep_space_orbits():
    F2 = gf(2)
    space = brute_reference.RepSpace(A2Q, {1: 2, 2: 2}, F2)
    # orbits of a single 2x2 matrix under row/column action = rank classes
    sizes = sorted(space.orbit_size(r) for r in space.orbit_reps())
    assert sizes == [1, 6, 9]
    assert sum(sizes) == len(space.points) == 16
    again = brute_reference.RepSpace(A2Q, {1: 2, 2: 2}, F2)
    assert space.orbit_reps() == again.orbit_reps()
    for x in space.points:
        assert space.orbit_rep(x) in space.points


def test_quiver_json_roundtrip():
    for q in (A2Q, C3Q, D4Q):
        assert Quiver.from_json(q.to_json()) == q
