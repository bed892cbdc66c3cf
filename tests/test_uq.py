import gc
import hashlib
import json
import random
import weakref

import pytest

from dense_reference import dense, dense_rank
from qcontract.cartan import (
    CartanDatum, ContractiblePair, simply_connected_datum, simply_laced_cartan,
)
from qcontract import scalar, uq
from qcontract._linalg import rank
from qcontract.falg import FAlgebra, FElement, _pbw_data, coproduct_r, theta
from qcontract.scalar import (
    QV_ONE, QV_ZERO, quantum_integer, v_power,
)
from qcontract.uq import (
    UAlgebra, UElement, bar_U, braid_assumption_holds,
    braid_basic, braid_formula_gate, braid_on_V_check, braid_props_check,
    build_module, check_relations, delta, delta_component, divided_power,
    e_gen, e_merged, emb_co_check, embedding_relations_check, f_gen,
    f_merged, k_gen, k_merged_vector, k_tilde_gen, linear_tree_factorization_check,
    module_canonical_check, module_hom_check, module_operator, module_relations_check,
    naive_square_check, omega,
    pi_weight, psi_dot_check, psi_preimage, psi_tensor_check, render_udot,
    render_uelement, rho, subquotient_phi_probe, subset_root_datum,
    tensor_of, tensor_psi, tilde_braid_i0, u_act_udot, u_element,
    u_injectivity_report, u_multiply, u_one, udot_act_u, udot_idempotent,
    udot_multiply, UdotElement, UEmbedding, UTensor,
)

A1 = simply_laced_cartan((1,), [])
A2 = simply_laced_cartan((1, 2), [(1, 2)])
A3 = simply_laced_cartan((1, 2, 3), [(1, 2), (2, 3)])
A4 = simply_laced_cartan((1, 2, 3, 4), [(1, 2), (2, 3), (3, 4)])
TRIANGLE = simply_laced_cartan((1, 2, 3), [(1, 2), (2, 3), (1, 3)])

U1 = UAlgebra(simply_connected_datum(A1), 10)
U2 = UAlgebra(simply_connected_datum(A2), 8)
U3 = UAlgebra(simply_connected_datum(A3), 8)
# B2 with d = 2 on vertex 1, so the braid twists differ between the letters
UB2 = UAlgebra(simply_connected_datum(CartanDatum((1, 2), ((4, -2), (-2, 2)))), 8)
PAIR12 = ContractiblePair(1, 2)
PAIR23 = ContractiblePair(2, 3)


def rand_element(alg, rng, width=3, letters=2):
    terms = {}
    for _ in range(rng.randint(1, width)):
        ew = tuple(rng.randrange(alg.rank) for _ in range(rng.randint(0, letters)))
        fw = tuple(rng.randrange(alg.rank) for _ in range(rng.randint(0, letters)))
        mu = tuple(rng.randint(-1, 1) for _ in range(alg.rank_y))
        terms[(ew, mu, fw)] = v_power(rng.randint(-2, 2), rng.randint(-2, 2) or 1)
    return u_element(alg, terms)


# --- multiplication ----------------------------------------------------------

def test_torus_conjugation():
    for i in (1, 2):
        for mu in ((1, 0), (0, 1), (2, -1)):
            w = U2.weight_pairing(mu, U2.f.word_degree((U2.position(i),)))
            assert u_multiply(k_gen(U2, mu), e_gen(U2, i)) == \
                u_multiply(e_gen(U2, i), k_gen(U2, mu)).scale(v_power(w))
            assert u_multiply(k_gen(U2, mu), f_gen(U2, i)) == \
                u_multiply(f_gen(U2, i), k_gen(U2, mu)).scale(v_power(-w))


def test_raising_lowering_commutator():
    com = u_multiply(e_gen(U1, 1), f_gen(U1, 1)) \
        - u_multiply(f_gen(U1, 1), e_gen(U1, 1))
    gap = (k_tilde_gen(U1, 1) - k_tilde_gen(U1, 1, -1)) \
        .scale(QV_ONE / (v_power(1) - v_power(-1)))
    assert com == gap
    # distinct indices commute across the triangular split
    assert u_multiply(e_gen(U2, 1), f_gen(U2, 2)) == \
        u_multiply(f_gen(U2, 2), e_gen(U2, 1))


def test_serre_reduction_in_u():
    # e_gen(.., n) is the divided power, so the adjacent relator has
    # coefficients 1, -1, 1
    acc = u_multiply(e_gen(U2, 1, 2), e_gen(U2, 2)) \
        - u_multiply(u_multiply(e_gen(U2, 1), e_gen(U2, 2)), e_gen(U2, 1)) \
        + u_multiply(e_gen(U2, 2), e_gen(U2, 1, 2))
    assert acc.is_zero()
    acc = u_multiply(f_gen(U2, 2, 2), f_gen(U2, 1)) \
        - u_multiply(u_multiply(f_gen(U2, 2), f_gen(U2, 1)), f_gen(U2, 2)) \
        + u_multiply(f_gen(U2, 1), f_gen(U2, 2, 2))
    assert acc.is_zero()


def test_divided_power_product():
    cube = u_multiply(e_gen(U1, 1, 2), e_gen(U1, 1))
    assert cube == e_gen(U1, 1, 3).scale(quantum_integer(3, 1))
    assert divided_power(e_gen(U1, 1), 3, 1) == e_gen(U1, 1, 3)


def test_associativity_random():
    rng = random.Random(0)
    for _ in range(40):
        x, y, z = (rand_element(U2, rng) for _ in range(3))
        assert u_multiply(u_multiply(x, y), z) == \
            u_multiply(x, u_multiply(y, z))


def test_render():
    assert render_uelement(u_one(U2)) == "(1)*1"
    assert render_uelement(UElement(U2, {})) == "0"
    assert "E[1]" in render_uelement(e_gen(U2, 1))
    word = u_multiply(u_multiply(e_gen(U2, 1), k_gen(U2, (1, 0))),
                      f_gen(U2, 2))
    assert "K{" in render_uelement(word) and "F[2]" in render_uelement(word)


# --- involutions -------------------------------------------------------------

def test_bar_involution():
    rng = random.Random(1)
    for _ in range(10):
        x = rand_element(U2, rng)
        assert bar_U(bar_U(x)) == x
    assert bar_U(k_gen(U2, (1, -1))) == k_gen(U2, (-1, 1))
    x, y = rand_element(U2, rng), rand_element(U2, rng)
    assert bar_U(u_multiply(x, y)) == u_multiply(bar_U(x), bar_U(y))


def test_omega_swaps_sides():
    assert omega(e_gen(U2, 1)) == f_gen(U2, 1)
    assert omega(f_gen(U2, 2)) == e_gen(U2, 2)
    assert omega(k_gen(U2, (1, 0))) == k_gen(U2, (-1, 0))
    rng = random.Random(2)
    for _ in range(10):
        x = rand_element(U2, rng)
        assert omega(omega(x)) == x
    x, y = rand_element(U2, rng), rand_element(U2, rng)
    assert omega(u_multiply(x, y)) == u_multiply(omega(x), omega(y))


def test_rho_antihomomorphism():
    assert rho(e_gen(U2, 1)) == \
        u_multiply(k_tilde_gen(U2, 1), f_gen(U2, 1)).scale(v_power(1))
    assert rho(f_gen(U2, 1)) == \
        u_multiply(e_gen(U2, 1), k_tilde_gen(U2, 1, -1)).scale(v_power(-1))
    rng = random.Random(3)
    x, y = rand_element(U2, rng, letters=1), rand_element(U2, rng, letters=1)
    assert rho(u_multiply(x, y)) == u_multiply(rho(y), rho(x))
    assert rho(rho(x)) == x


def test_merged_generator_conjugations():
    for eps in (1, -1):
        assert omega(e_merged(U2, PAIR12, eps)) == \
            f_merged(U2, PAIR12, eps).scale(-v_power(-eps))
        assert bar_U(e_merged(U2, PAIR12, eps)) == e_merged(U2, PAIR12, -eps)
        assert bar_U(f_merged(U2, PAIR12, eps)) == f_merged(U2, PAIR12, -eps)


# --- the product kernel against a termwise reference --------------------------
# The reference shares no memo with the kernel: it normal-orders a sequence of
# letters one swap at a time, twists with weight_pairing and v_power, and
# reduces each outer word with a fresh component reduce.

UG2 = UAlgebra(simply_connected_datum(CartanDatum((1, 2), ((2, -3), (-3, 6)))), 6)


def _ref_normal_order(alg, letters, c):
    """Normal-ordered raw triples of c times the product of letters, each
    ("E", p), ("K", mu) or ("F", p)."""
    order = {"E": 0, "K": 1, "F": 2}
    syms = alg.cartan.indices
    out = {}
    stack = [(tuple(letters), c)]
    while stack:
        seq, c = stack.pop()
        for k in range(len(seq) - 1):
            (s, x), (t, y) = seq[k], seq[k + 1]
            head, tail = seq[:k], seq[k + 2:]
            if s == t == "K":
                stack.append((head + (("K", uq._vadd(x, y)),) + tail, c))
                break
            if order[s] <= order[t]:
                continue
            swapped = head + (seq[k + 1], seq[k]) + tail
            if s == "K":     # K_x E_y = v^<x, alpha_y> E_y K_x
                w = alg.weight_pairing(x, alg.f.word_degree((y,)))
                stack.append((swapped, c * v_power(w)))
            elif t == "K":   # F_x K_y = v^<y, alpha_x> K_y F_x
                w = alg.weight_pairing(y, alg.f.word_degree((x,)))
                stack.append((swapped, c * v_power(w)))
            else:            # F_x E_y = E_y F_x - delta_xy (Kt - Kt^-1)/(v_x - v_x^-1)
                stack.append((swapped, c))
                if x == y:
                    d = alg.cartan.d(syms[x])
                    kt = alg.k_tilde_vector(syms[x])
                    den = QV_ONE / (v_power(d) - v_power(-d))
                    stack.append((head + (("K", kt),) + tail, -c * den))
                    stack.append((head + (("K", uq._neg(kt)),) + tail, c * den))
            break
        else:
            ks = [x for s, x in seq if s == "K"]
            key = (tuple(x for s, x in seq if s == "E"),
                   ks[0] if ks else alg.y_zero,
                   tuple(x for s, x in seq if s == "F"))
            out[key] = out.get(key, QV_ZERO) + c
    return out


def _ref_reduce(alg, raw):
    def nf(w):
        if not w:
            return {(): QV_ONE}
        return alg.f.component(alg.f.word_degree(w)).reduce({w: QV_ONE})

    out = {}
    for (ew, mid, fw), c in raw.items():
        for a, ca in nf(ew).items():
            for b, cb in nf(fw).items():
                out[a, mid, b] = out.get((a, mid, b), QV_ZERO) + c * ca * cb
    return out


def _ref_letters(t):
    ew, mu, fw = t
    return [("E", p) for p in ew] + [("K", mu)] + [("F", p) for p in fw]


def _ref_sum(alg, cls, pieces):
    """cls on the reduced sum of (letters, coefficient) pieces."""
    raw = {}
    for letters, c in pieces:
        for t, d in _ref_normal_order(alg, letters, c).items():
            raw[t] = raw.get(t, QV_ZERO) + d
    return cls(alg, _ref_reduce(alg, raw))


def _ref_u_multiply(x, y):
    return _ref_sum(x.algebra, UElement, (
        (_ref_letters(s) + _ref_letters(t), c * d)
        for s, c in x.coords.items() for t, d in y.coords.items()))


def _ref_omega(x):
    return _ref_sum(x.algebra, UElement, (
        ([("F", p) for p in ew] + [("K", uq._neg(mu))] + [("E", p) for p in fw], c)
        for (ew, mu, fw), c in x.coords.items()))


def _ref_rho(x):
    """rho(E_p) = v^d_p Kt_p F_p and rho(F_p) = v^-d_p E_p Kt_p^-1, reversed."""
    alg = x.algebra
    syms = alg.cartan.indices

    def pieces():
        for (ew, mu, fw), c in x.coords.items():
            letters = []
            for p in reversed(fw):
                kt = alg.k_tilde_vector(syms[p])
                letters += [("E", p), ("K", uq._neg(kt))]
                c = c * v_power(-alg.cartan.d(syms[p]))
            letters.append(("K", mu))
            for p in reversed(ew):
                letters += [("K", alg.k_tilde_vector(syms[p])), ("F", p)]
                c = c * v_power(alg.cartan.d(syms[p]))
            yield letters, c

    return _ref_sum(alg, UElement, pieces())


def _ref_weight(alg, w):
    return alg.degree_in_x(alg.f.word_degree(w))


def _ref_udot_multiply(x, y):
    """E_a 1_lam F_b times E_p 1_sig F_q, for lam + wt b = sig + wt p: cross
    F_b E_p to terms g E_xe K_tau F_xf, then K_tau F_xf 1_sig is
    v^<tau, m> 1_m F_xf with m = sig - wt xf."""
    alg = x.algebra
    raw = {}
    for (a, lam, b), c1 in x.coords.items():
        for (p, sig, q), c2 in y.coords.items():
            if uq._vadd(lam, _ref_weight(alg, b)) != uq._vadd(sig, _ref_weight(alg, p)):
                continue
            letters = [("F", i) for i in b] + [("E", i) for i in p]
            for (xe, tau, xf), g in _ref_normal_order(alg, letters, c1 * c2).items():
                m = uq._vsub(sig, _ref_weight(alg, xf))
                key = (a + xe, m, xf + q)
                raw[key] = raw.get(key, QV_ZERO) + g * v_power(alg.datum.pair(tau, m))
    return UdotElement(alg, _ref_reduce(alg, raw))


def _rand_udot_pair(alg, rng):
    """Two idempotented elements, most of whose term pairs meet."""
    def word():
        return tuple(rng.randrange(alg.rank) for _ in range(rng.randint(0, 2)))

    def coeff():
        return v_power(rng.randint(-2, 2), rng.randint(-2, 2) or 1)

    xs, ys = {}, {}
    for _ in range(3):
        a, b, p, q = word(), word(), word(), word()
        lam = tuple(rng.randint(-2, 2) for _ in range(alg.datum.rankX))
        xs[a, lam, b] = coeff()
        sig = uq._vsub(uq._vadd(lam, _ref_weight(alg, b)), _ref_weight(alg, p))
        ys[p, sig if rng.random() < 0.8 else lam, q] = coeff()
    return UdotElement(alg, xs), UdotElement(alg, ys)


@pytest.mark.parametrize("alg, seed", [(U2, 71), (UB2, 72), (UG2, 73)],
                         ids=["A2", "B2", "G2"])
def test_product_kernel_matches_the_termwise_reference(alg, seed):
    rng = random.Random(seed)
    nonzero = 0
    for _ in range(15):
        x, y = rand_element(alg, rng), rand_element(alg, rng)
        prod = u_multiply(x, y)
        assert prod == _ref_u_multiply(x, y)
        assert omega(x) == _ref_omega(x)
        assert rho(x) == _ref_rho(x)
        mu = tuple(rng.randint(-2, 2) for _ in range(alg.rank_y))
        assert UElement(alg, uq._k_shift(alg, mu, x.coords)) == \
            _ref_u_multiply(k_gen(alg, mu), x)
        xd, yd = _rand_udot_pair(alg, rng)
        dprod = udot_multiply(xd, yd)
        assert dprod == _ref_udot_multiply(xd, yd)
        nonzero += bool(prod) + bool(dprod)
    assert nonzero >= 25


# --- the embedding -----------------------------------------------------------

def test_embedding_relations_a2_to_a1():
    for eps in (1, -1):
        rep = embedding_relations_check(UEmbedding(U2, PAIR12, eps))
        assert rep["holds"], rep["failures"]
        assert set(rep["families"]) == {
            "K-product", "K-E", "K-F", "E-F", "Serre-E", "Serre-F"}
        assert all(f["holds"] for f in rep["families"].values())


def test_embedding_relations_a3_to_a2():
    for pair in (PAIR12, PAIR23):
        for eps in (1, -1):
            rep = embedding_relations_check(UEmbedding(U3, pair, eps))
            assert rep["holds"], rep["failures"]


def test_identity_images_satisfy_relations():
    rep = check_relations(
        U2, U2,
        {i: e_gen(U2, i) for i in (1, 2)},
        {i: f_gen(U2, i) for i in (1, 2)})
    assert rep["holds"] and all(f["checked"] for f in rep["families"].values())


def test_invalid_pair_rejected():
    with pytest.raises(ValueError):
        UEmbedding(U3, ContractiblePair(1, 3), 1)
    with pytest.raises(ValueError):
        UEmbedding(U2, PAIR12, 0)


def test_merged_commutator_display():
    # the commutator of the merged generators reproduces the merged torus gap
    kt0 = k_merged_vector(U2, PAIR12)
    for eps in (1, -1):
        emb = UEmbedding(U2, PAIR12, eps)
        e0 = emb.apply(e_gen(emb.source, emb.merged))
        f0 = emb.apply(f_gen(emb.source, emb.merged))
        com = u_multiply(e0, f0) - u_multiply(f0, e0)
        gap = (k_gen(U2, kt0) - k_gen(U2, tuple(-a for a in kt0))) \
            .scale(QV_ONE / (v_power(1) - v_power(-1)))
        assert com == gap


def test_psi_multiplicative_random():
    rng = random.Random(4)
    for eps in (1, -1):
        emb = UEmbedding(U3, PAIR23, eps)
        for _ in range(12):
            x = rand_element(emb.source, rng, width=2)
            y = rand_element(emb.source, rng, width=2)
            assert emb.apply(u_multiply(x, y)) == \
                u_multiply(emb.apply(x), emb.apply(y))


def test_psi_preimage_roundtrip():
    rng = random.Random(5)
    emb = UEmbedding(U2, PAIR12, 1)
    for _ in range(8):
        x = rand_element(emb.source, rng, width=2, letters=2)
        back = psi_preimage(emb, emb.apply(x))
        assert back == x
    # a bare half of the merged raising word is not in the image
    assert psi_preimage(emb, e_gen(U2, 1)) is None


@pytest.mark.parametrize("eps", [1, -1])
def test_psi_preimage_rejects_non_images_of_image_bidegree(eps):
    # the opposite-sign merged generators sit in the image's bidegrees but
    # not in the image, so the solve itself must find no preimage
    emb = UEmbedding(U2, PAIR12, eps)
    assert psi_preimage(emb, e_merged(U2, PAIR12, -eps)) is None
    assert psi_preimage(emb, f_merged(U2, PAIR12, -eps)) is None
    assert psi_preimage(emb, e_merged(U2, PAIR12, eps)) == \
        e_gen(emb.source, emb.merged)
    assert psi_preimage(emb, f_merged(U2, PAIR12, eps)) == \
        f_gen(emb.source, emb.merged)


def test_injectivity_report():
    emb = UEmbedding(U2, PAIR12, 1)
    rep = u_injectivity_report(emb, 3)
    assert rep["injective"]
    assert all(b["rank"] == b["dim"] for b in rep["blocks"].values())
    assert len(rep["blocks"]) > 4


# --- comultiplication --------------------------------------------------------

def _tensor_mul(t1, t2):
    """The product on U ⊗ U, each factor through u_multiply: the oracle the
    closed-form coproduct is tested against."""
    alg = t1.algebra
    out = {}
    for (s1, s2), c in t1.coords.items():
        for (u1, u2), d in t2.coords.items():
            left = u_multiply(UElement(alg, {s1: QV_ONE}),
                              UElement(alg, {u1: QV_ONE}))
            right = u_multiply(UElement(alg, {s2: QV_ONE}),
                               UElement(alg, {u2: QV_ONE}))
            for a, ca in left.coords.items():
                for b, cb in right.coords.items():
                    out[a, b] = out.get((a, b), QV_ZERO) + c * d * ca * cb
    return UTensor(alg, out)


def _delta_e(alg, i):
    return tensor_of(e_gen(alg, i), u_one(alg)) \
        + tensor_of(k_tilde_gen(alg, i), e_gen(alg, i))


def _delta_f(alg, i):
    return tensor_of(f_gen(alg, i), k_tilde_gen(alg, i, -1)) \
        + tensor_of(u_one(alg), f_gen(alg, i))


def test_delta_on_generators():
    for i in (1, 2):
        assert delta(e_gen(U2, i)) == _delta_e(U2, i)
        assert delta(f_gen(U2, i)) == _delta_f(U2, i)
    mu = (1, -1)
    assert delta(k_gen(U2, mu)) == tensor_of(k_gen(U2, mu), k_gen(U2, mu))


def test_delta_homomorphism_random():
    # B2 and G2 have d != 1, where K~ = d * coroot and the bar on r(theta_f)
    # differ from what A2 alone would pass
    rng = random.Random(6)
    for alg, pairs in ((U2, 15), (UB2, 10), (UG2, 10)):
        for _ in range(pairs):
            x = rand_element(alg, rng, width=2)
            y = rand_element(alg, rng, width=2)
            assert delta(u_multiply(x, y)) == _tensor_mul(delta(x), delta(y))


@pytest.mark.parametrize("alg, seed", [(U2, 61), (UB2, 62), (UG2, 63), (U3, 64)],
                         ids=["A2", "B2", "G2", "A3"])
def test_delta_is_the_letterwise_product(alg, seed):
    # the closed form from f's r against the product of the generator
    # coproducts, one letter at a time
    syms = alg.cartan.indices
    rng = random.Random(seed)
    for _ in range(10):
        x = rand_element(alg, rng, width=2, letters=3)
        want = UTensor(alg, {})
        for (ew, mu, fw), c in x.coords.items():
            acc = tensor_of(k_gen(alg, mu), k_gen(alg, mu))
            for p in reversed(ew):
                acc = _tensor_mul(_delta_e(alg, syms[p]), acc)
            for p in fw:
                acc = _tensor_mul(acc, _delta_f(alg, syms[p]))
            want = want + acc.scale(c)
        assert delta(x) == want


def test_delta_component_slices():
    t = delta(e_gen(U2, 1))
    assert delta_component(t, (1, 0), (0, 0)) == \
        tensor_of(e_gen(U2, 1), u_one(U2))
    assert delta_component(t, (0, 0), (1, 0)) == \
        tensor_of(k_tilde_gen(U2, 1), e_gen(U2, 1))
    assert delta_component(t, (0, 1), (0, 0)).is_zero()


def test_delta_merged_display():
    kt0 = k_merged_vector(U2, PAIR12)
    one = u_one(U2)
    ep, em = e_gen(U2, 1), e_gen(U2, 2)
    fp, fm = f_gen(U2, 1), f_gen(U2, 2)
    for eps in (1, -1):
        e0, f0 = e_merged(U2, PAIR12, eps), f_merged(U2, PAIR12, eps)
        assert delta(e0) == tensor_of(e0, one) \
            + tensor_of(k_gen(U2, kt0), e0) \
            + tensor_of(u_multiply(k_tilde_gen(U2, 1), em),
                        ep).scale(QV_ONE - v_power(1 - eps)) \
            + tensor_of(u_multiply(k_tilde_gen(U2, 2), ep),
                        em).scale(v_power(1) - v_power(-eps))
        assert delta(f0) == \
            tensor_of(f0, k_gen(U2, tuple(-a for a in kt0))) \
            + tensor_of(one, f0) \
            + tensor_of(fp, u_multiply(k_tilde_gen(U2, 1, -1),
                                       fm)).scale(v_power(1) - v_power(eps)) \
            + tensor_of(fm, u_multiply(k_tilde_gen(U2, 2, -1),
                                       fp)).scale(QV_ONE - v_power(1 + eps))


def test_emb_co_blocks():
    emb = UEmbedding(U2, PAIR12, 1)
    for tau, om in (((0,), (0,)), ((1,), (-1,)), ((-1,), (1,))):
        rep = emb_co_check(emb, (1,), (1,), tau, om)
        assert rep["holds"], rep["failures"]
        assert rep["checked"] == 1


def test_transported_coproduct_differs_globally():
    # the embedding respects the coproduct block by block, not globally:
    # the downstairs coproduct of a merged generator carries middle terms
    # that the transported coproduct cannot see
    for eps in (1, -1):
        emb = UEmbedding(U2, PAIR12, eps)
        f0_hat = f_gen(emb.source, emb.merged)
        assert tensor_psi(emb, delta(f0_hat)) != delta(emb.apply(f0_hat))


# --- the idempotented form ---------------------------------------------------

def test_udot_idempotents():
    lam, mu = (1, 0), (0, 1)
    one_lam = udot_idempotent(U2, lam)
    assert udot_multiply(one_lam, one_lam) == one_lam
    assert udot_multiply(one_lam, udot_idempotent(U2, mu)).is_zero()
    assert render_udot(one_lam) == "(1)*1{λ=(1,0)}"


def test_udot_weight_shifts():
    lam = (1, 1)
    one_lam = udot_idempotent(U2, lam)
    root1 = U2.datum.root(1)
    shifted = udot_idempotent(U2, tuple(a - b for a, b in zip(lam, root1)))
    assert udot_act_u(one_lam, e_gen(U2, 1)) == \
        u_act_udot(e_gen(U2, 1), shifted)
    assert pi_weight(k_gen(U2, (1, 0)), lam, lam) == \
        one_lam.scale(v_power(U2.datum.pair((1, 0), lam)))
    assert pi_weight(e_gen(U2, 1),
                     tuple(a + b for a, b in zip(lam, root1)), lam) == \
        u_act_udot(e_gen(U2, 1), one_lam)


@pytest.mark.parametrize("alg, seed", [(U2, 41), (UB2, 42), (U3, 43)])
def test_udot_is_a_u_bimodule(alg, seed):
    # the actions and the projection are checked against U_q's product and
    # U̇'s own product, on seeded inputs with weights in [-2, 2]
    rng = random.Random(seed)
    gens = [g for _, g in uq._named_generators(alg)]
    wd = alg.f.word_degree

    def weight():
        return tuple(rng.randint(-2, 2) for _ in range(alg.datum.rankX))

    nonzero = 0
    for _ in range(10):
        u1 = rng.choice(gens) + u_multiply(rng.choice(gens), rng.choice(gens))
        u2 = rng.choice(gens)
        x = u_act_udot(rng.choice(gens), udot_idempotent(alg, weight())) \
            + udot_idempotent(alg, weight())
        lhs = u_act_udot(u1, u_act_udot(u2, x))
        assert lhs == u_act_udot(u_multiply(u1, u2), x)
        assert udot_act_u(udot_act_u(x, u1), u2) == \
            udot_act_u(x, u_multiply(u1, u2))
        assert udot_act_u(u_act_udot(u1, x), u2) == \
            u_act_udot(u1, udot_act_u(x, u2))
        lam_r = weight()
        ew, _, fw = rng.choice(sorted(u1.coords))
        lam_l = tuple(a + b - c for a, b, c in zip(
            lam_r, alg.degree_in_x(wd(ew)), alg.degree_in_x(wd(fw))))
        block = pi_weight(u1, lam_l, lam_r)
        assert block == udot_multiply(
            udot_idempotent(alg, lam_l),
            u_act_udot(u1, udot_idempotent(alg, lam_r)))
        nonzero += bool(lhs) + bool(block)
    assert nonzero >= 10


def test_psi_dot_check():
    for eps in (1, -1):
        emb = UEmbedding(U2, PAIR12, eps)
        rep = psi_dot_check(emb, [(0, 0), (1, 0), (0, 1), (1, 1)])
        assert rep["holds"], rep["failures"]
        # per weight: 5 base comparisons, and 4 generators times 2 sides on
        # each of the 5 base elements
        assert rep["checked"] == 4 * (5 + 5 * 4 * 2)


# --- braid operators ---------------------------------------------------------

def test_braid_inverse_pairs():
    gens = [e_gen(U2, 1), f_gen(U2, 1), e_gen(U2, 2), f_gen(U2, 2),
            k_gen(U2, (1, 0)), k_gen(U2, (0, 1))]
    for i in (1, 2):
        for e in (1, -1):
            for primed in (True, False):
                op = braid_basic(U2, i, e, primed)
                inv = op.inverse()
                for g in gens:
                    assert inv.apply(op.apply(g)) == g
                    assert op.apply(inv.apply(g)) == g



def _braid_by_definition(op, x):
    """Sum of c·T(E_ew)·K_{s(mu)}·T(F_fw), both products through u_multiply."""
    alg = op.algebra
    out = UElement(alg, {})
    for (ew, mu, fw), c in x.coords.items():
        t = u_multiply(op._word_image(ew, False),
                       k_gen(alg, alg.reflect_y(op._p, mu)))
        out = out + u_multiply(t, op._word_image(fw, True)).scale(c)
    return out


@pytest.mark.parametrize("alg", [U2, UB2], ids=["A2", "B2"])
def test_braid_apply_matches_the_termwise_definition(alg):
    rng = random.Random(11)
    xs = [rand_element(alg, rng, width=4) for _ in range(4)]
    for i in alg.cartan.indices:
        for e in (1, -1):
            for primed in (True, False):
                op = braid_basic(alg, i, e, primed)
                for x in xs:
                    y = op.apply(x)
                    assert y == _braid_by_definition(op, x)
                    assert op.inverse().apply(y) == x


def test_braid_operators_belong_to_their_algebra():
    op = braid_basic(U2, 1, 1, True)
    assert braid_basic(U2, 1, 1, True) is op
    assert op.inverse() is braid_basic(U2, 1, -1, False)
    assert op.inverse().inverse() is op
    assert braid_basic(U2, 1, 1, False) is not op
    other = UAlgebra(simply_connected_datum(A2), 8)
    assert braid_basic(other, 1, 1, True) is not op
    # the merged-index composite: one map per (algebra, pair, sign, decoration)
    labels = [(e, primed) for e in (1, -1) for primed in (True, False)]
    tildes = [tilde_braid_i0(U2, PAIR12, e, primed) for e, primed in labels]
    assert len({id(t) for t in tildes}) == 4
    assert all(tilde_braid_i0(U2, PAIR12, e, primed) is t
               for (e, primed), t in zip(labels, tildes))
    assert tilde_braid_i0(U3, PAIR12, 1) is not tilde_braid_i0(U3, PAIR23, 1)
    assert tilde_braid_i0(other, PAIR12, 1) is not tildes[0]
    assert tilde_braid_i0(other, PAIR12, 1) is tilde_braid_i0(other, PAIR12, 1)


def test_map_composites_apply_their_factors_in_order():
    # T_1 and T_2 move the torus by reflections that do not commute, and ρ
    # reverses products, so a composite with its factors, torus maps or
    # order flag mixed up fails here
    rng = random.Random(23)
    xs = [rand_element(U2, rng) for _ in range(3)]
    rho(xs[0])
    omega(xs[0])
    maps = [braid_basic(U2, 1, 1, True), braid_basic(U2, 2, -1, False),
            U2._maps["rho"], U2._maps["omega"]]
    for f in maps:
        for g in maps:
            fg = f @ g
            assert fg.anti == (f.anti != g.anti)
            for x in xs:
                assert fg.apply(x) == f.apply(g.apply(x))


@pytest.mark.parametrize("alg, pair, seed", [(U2, PAIR12, 21), (U3, PAIR23, 22)],
                         ids=["A2", "A3"])
def test_composite_braid_matches_its_factors_one_at_a_time(alg, pair, seed):
    rng = random.Random(seed)
    xs = [rand_element(alg, rng, width=4) for _ in range(4)]
    for e in (1, -1):
        for primed in (True, False):
            tilde = tilde_braid_i0(alg, pair, e, primed)
            tp = braid_basic(alg, pair.plus, e, primed)
            tm = braid_basic(alg, pair.minus, e, primed)
            for x in xs:
                assert tilde.apply(x) == tp.apply(tm.apply(tp.apply(x)))


def test_rank_two_braid_relation():
    gens = [e_gen(U2, 1), f_gen(U2, 2), k_gen(U2, (1, -1)),
            u_multiply(e_gen(U2, 1), f_gen(U2, 1))]
    for e in (1, -1):
        for primed in (True, False):
            t1 = braid_basic(U2, 1, e, primed)
            t2 = braid_basic(U2, 2, e, primed)
            for g in gens:
                assert t1.apply(t2.apply(t1.apply(g))) == \
                    t2.apply(t1.apply(t2.apply(g)))


def test_braid_gate():
    rep = braid_formula_gate(U2, PAIR12)
    assert rep["holds"], rep["failures"]
    assert rep["checked"] == 12


def test_braid_gate_runs_once_per_algebra(monkeypatch):
    # fresh algebras created and collected one after another reuse memory
    # addresses; each must still run its own gate, and only once.  The
    # counting stand-in passes the gate, which test_braid_gate checks for real.
    gated = []

    def counting(algebra, pair):
        gated.append(pair)
        return {"holds": True, "failures": []}

    monkeypatch.setattr(uq, "braid_formula_gate", counting)
    seen, reused, made = set(), 0, 0
    while reused < 3 and made < 300:
        alg = UAlgebra(simply_connected_datum(A2), 4)
        made += 1
        reused += id(alg) in seen
        seen.add(id(alg))
        tilde_braid_i0(alg, PAIR12, 1)
        tilde_braid_i0(alg, PAIR12, -1)
        del alg
        gc.collect()
    assert len(gated) == made


def test_algebra_caches_die_with_the_algebra():
    alg = UAlgebra(simply_connected_datum(A1), 4)
    assert build_module(alg, (1,)) is build_module(alg, (1,))
    assert _pbw_data(alg.f) is _pbw_data(alg.f)
    assert braid_basic(alg, 1, -1, False).apply(
        braid_basic(alg, 1, 1).apply(e_gen(alg, 1))) == e_gen(alg, 1)
    # the word normal forms and the root pairings are memos of this algebra
    # alone: a fresh algebra of the same datum starts with both empty
    assert alg.f.reduce_word((0, 0)) is alg.f.reduce_word((0, 0))
    assert alg.root_pairs((1,)) is alg.root_pairs((1,)) == (2,)
    assert alg.f._word_nf and alg._root_pairs
    other = UAlgebra(simply_connected_datum(A1), 4)
    assert not other.f._word_nf and not other._root_pairs
    refs = [weakref.ref(alg), weakref.ref(alg.f)]
    del alg
    gc.collect()
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("alg", [U2, UB2], ids=["A2", "B2"])
def test_word_normal_forms_stay_unmutated(alg):
    # the memo hands one dict to every caller; after a batch of products,
    # braid images and coproducts, each entry still equals a fresh reduction
    rng = random.Random(17)
    op = braid_basic(alg, 1, 1, True)
    for _ in range(5):
        x, y = rand_element(alg, rng), rand_element(alg, rng)
        u_multiply(x, op.apply(y))
        rho(omega(x))
        delta(x)
        r = coproduct_r(FElement(alg.f, (1, 1), alg.f.reduce_word((0, 1))))
        r * r
    nf = alg.f._word_nf
    assert len(nf) > 20
    for w, got in nf.items():
        fresh = ({(): QV_ONE} if not w else
                 alg.f.component(alg.f.word_degree(w)).reduce({w: QV_ONE}))
        assert got == fresh, w


def test_braid_neighbor_assumption():
    assert braid_assumption_holds(U3, PAIR12) == (True, None)
    tri = UAlgebra(simply_connected_datum(TRIANGLE), 4)
    ok, bad = braid_assumption_holds(tri, PAIR12)
    assert not ok and bad == 3
    rep = braid_props_check(tri, PAIR12)
    assert rep == {"assumption": False, "violating_vertex": "3",
                   "holds": False, "failures": rep["failures"]}


def test_composite_braid_on_merged_lists():
    for pair in (PAIR12, PAIR23):
        rep = braid_props_check(U3, pair)
        assert rep["assumption"] and rep["holds"], rep["failures"]
        assert rep["checked"] == 24


def test_bar_conjugated_composite():
    gens = [e_gen(U2, 1), f_gen(U2, 2), e_merged(U2, PAIR12, 1),
            k_gen(U2, (1, 0))]
    for e in (1, -1):
        t_pos = tilde_braid_i0(U2, PAIR12, e, True)
        t_neg = tilde_braid_i0(U2, PAIR12, -e, True)
        for g in gens:
            assert bar_U(t_pos.apply(bar_U(g))) == t_neg.apply(g)


def test_braid_on_image_a2():
    for eps in (1, -1):
        emb = UEmbedding(U2, PAIR12, eps)
        for e in (1, -1):
            rep = braid_on_V_check(emb, e)
            assert rep["hypothesis"] and rep["holds"], rep["failures"]
            assert rep["checked"] == 12


def test_braid_on_image_a3_hypothesis():
    # vertex 2 is interior, so one sign pattern per pair is rejected
    emb = UEmbedding(U3, PAIR23, 1)
    good = braid_on_V_check(emb, 1)          # e*eps = 1 needs minus end vertex
    assert good["hypothesis"] and good["holds"], good["failures"]
    bad = braid_on_V_check(emb, -1)          # e*eps = -1 needs plus end vertex
    assert not bad["hypothesis"] and bad["non_end_vertex"] == "2"
    emb = UEmbedding(U3, PAIR12, 1)
    assert braid_on_V_check(emb, -1)["holds"]
    assert not braid_on_V_check(emb, 1)["hypothesis"]


@pytest.mark.parametrize("new_index", [2, 3])
def test_embedding_merged_index_may_reuse_a_pair_name(new_index):
    emb = UEmbedding(U3, PAIR23, 1, new_index=new_index)
    assert emb.merged == new_index
    assert emb.source.cartan.indices == (1, new_index)
    assert embedding_relations_check(emb)["holds"]
    rep = braid_on_V_check(emb, 1)
    assert rep["hypothesis"] and rep["holds"], rep["failures"]


# --- subquotient probe -------------------------------------------------------

def test_subquotient_probe_a2():
    rep = subquotient_phi_probe(U2, PAIR12, 3, epsilon=1)
    assert rep["label"] == "evidence"
    assert rep["holds"], rep["failures"]
    assert rep["surjective"] and rep["meet_trivial"] and rep["torus_bijective"]
    assert rep["identities_hold"]
    assert rep["quotient_braid"]["holds"]
    assert rep["quotient_braid"]["checked"] == 16
    rep = subquotient_phi_probe(U2, PAIR12, 1, epsilon=-1)
    assert rep["holds"] and rep["identities_hold"], rep["failures"]


def test_subquotient_probe_a3():
    rep = subquotient_phi_probe(U3, PAIR23, 3, epsilon=1)
    assert rep["holds"], rep["failures"]
    assert rep["quotient_braid"]["holds"]
    assert rep["quotient_braid"]["checked"] == 28


def test_subquotient_probe_b3_long_edge():
    # B3 with d = 2 on vertices 1 and 2: the contracted pair is the long edge
    b3 = CartanDatum((1, 2, 3), ((4, -2, 0), (-2, 4, -2), (0, -2, 2)))
    target = UAlgebra(simply_connected_datum(b3), 8)
    rep = subquotient_phi_probe(target, PAIR12, 3, epsilon=1)
    assert rep["holds"] and not rep["failures"], rep["failures"]
    assert rep["quotient_braid"]["checked"] == 28
    assert not rep["quotient_braid"]["failures"]


def _digest(rep):
    return hashlib.sha256(
        json.dumps(rep, sort_keys=True, default=repr).encode()).hexdigest()


# the full reports of the probe on A3, pair (2,3), window 4, and on B3 (long
# edge) and C3 (short edge), pair (1,2), window 3, all at epsilon = 1
PROBE_DIGESTS = [
    ("A3", A3, PAIR23, 4,
     "04c73fc7fc0bd37bace197f39a592381732d26a8026b6d69449b62b294be21e5"),
    ("B3", CartanDatum((1, 2, 3), ((4, -2, 0), (-2, 4, -2), (0, -2, 2))), PAIR12, 3,
     "c43a92c67ccfb6cd6df0c4c62865f5ceeb641bff076eb7873c947aa32df70850"),
    ("C3", CartanDatum((1, 2, 3), ((2, -1, 0), (-1, 2, -2), (0, -2, 4))), PAIR12, 3,
     "96da23f67b8151941a978290049fe6f76ddcfbcec847d74b9209f1330a6fed73"),
]


@pytest.mark.parametrize("name, datum, pair, window, want", PROBE_DIGESTS,
                         ids=[c[0] for c in PROBE_DIGESTS])
def test_subquotient_probe_digests(name, datum, pair, window, want):
    rep = subquotient_phi_probe(UAlgebra(simply_connected_datum(datum), 8),
                                pair, window, epsilon=1)
    braid = rep["quotient_braid"]
    assert braid["checked"] == 28 and not braid["ambiguous"]
    if name == "C3":
        # monomials v^(+-d) with d != 1 leave E[3] and F[3] with no preimage
        # at this window
        assert rep["holds"] is False
        assert [f["got"] for f in braid["failures"]] == \
            ["no preimage modulo the ideal"] * 4
    else:
        assert rep["holds"] is True
    assert _digest(rep) == want


def test_rank_of_matches_dense_elimination():
    rng = random.Random(7)
    for _ in range(20):
        xs = [rand_element(U2, rng, width=2, letters=1) for _ in range(rng.randint(1, 4))]
        rows = [x.coords for x in xs]
        rows += [(xs[0].scale(v_power(rng.randint(-2, 2))) + x).coords for x in xs]
        rows.append({})
        live = [r for r in rows if r]
        assert rank(rows) == (dense_rank(dense(live, QV_ZERO)) if live else 0)

def test_subquotient_probe_holds_needs_unambiguous_preimages(monkeypatch):
    fake = {"checked": 16, "holds": True, "failures": [],
            "ambiguous": ["primed (e=1) on E[1]"]}
    monkeypatch.setattr(uq, "_quotient_braid_agreement", lambda *a: fake)
    rep = subquotient_phi_probe(U2, PAIR12, 1, epsilon=-1)
    assert rep["identities_hold"] and rep["meet_trivial"]
    assert rep["holds"] is False


def test_subquotient_probe_builds_no_component_past_max_total():
    target = UAlgebra(simply_connected_datum(A2), 8)
    assert subquotient_phi_probe(target, PAIR12, 3)["holds"]
    built = sorted(target.f._components)
    assert built and max(sum(nu) for nu in built) <= 3, built


def test_cold_a2_probe_takes_few_gcds(monkeypatch):
    # a work count, not a timing: sums over a shared denominator that cancel
    # to a Laurent value, and quotients that divide exactly, need no gcd; 20
    # heuristic gcds ran when they went through the constructor
    calls = []
    plain = scalar._heu_gcd
    monkeypatch.setattr(scalar, "_heu_gcd",
                        lambda a, b: calls.append(1) or plain(a, b))
    target = UAlgebra(simply_connected_datum(A2), 8)
    assert subquotient_phi_probe(target, PAIR12, 3, epsilon=1)["holds"]
    assert len(calls) <= 4, len(calls)


@pytest.mark.parametrize("target, pair, seed",
                         [(U2, PAIR12, 11), (U3, PAIR23, 12)])
def test_solve_mod_ideal_recovers_embedded_element(target, pair, seed):
    rng = random.Random(seed)
    emb = UEmbedding(target, pair, 1)
    src = emb.source
    letters = uq._probe_alphabet(target, pair)
    ideal = uq._crossing_ideal(letters, uq._products_upto(target, letters, 4), 4)
    mus = [src.y_zero] + uq._y_basis(src)
    degrees = list(uq._degrees_up_to(src.rank, 2))
    for _ in range(6):
        nu_e, nu_f = rng.choice(degrees), rng.choice(degrees)
        triples = [(a, mu, b) for a in src.f.component(nu_e).basis
                   for b in src.f.component(nu_f).basis for mu in mus]
        x = UElement(src, {t: v_power(rng.randint(-2, 2), rng.randint(1, 3))
                           for t in rng.sample(triples, min(3, len(triples)))})
        y = emb.apply(x)
        norm = uq._norm_key(target, y.coords)
        for row in ideal:
            if uq._norm_key(target, row) == norm and rng.random() < 0.5:
                y = y + UElement(target, row).scale(
                    v_power(rng.randint(-2, 2), rng.choice((-1, 1))))
        assert uq._solve_mod_ideal(emb, y, ideal) == (x, True)


def test_solve_mod_ideal_flags_an_ideal_that_meets_the_image():
    emb = UEmbedding(U2, PAIR12, 1)
    src = emb.source
    x = UElement(src, {((0,), src.y_zero, ()): QV_ONE,
                       ((0, 0), src.y_zero, (0,)): v_power(1)})
    y = emb.apply(x)
    sol = uq._solve_mod_ideal(emb, y, [y.coords])
    assert sol is not None and sol[1] is False
    assert uq._solve_mod_ideal(emb, y, []) == (x, True)


# --- integrable quotients ----------------------------------------------------

def test_module_dims_match_weyl_count():
    # rank two: dim = (a+1)(b+1)(a+b+2)/2
    for lam, want in (((0, 0), 1), ((1, 0), 3), ((0, 1), 3),
                      ((1, 1), 8), ((2, 0), 6)):
        assert build_module(U2, lam).dim == want
    # rank three checks against the same hook-content count
    assert build_module(U3, (1, 0, 0)).dim == 4
    assert build_module(U3, (0, 1, 0)).dim == 6


@pytest.mark.parametrize("cartan, lam, builds, basis, weights", [
    (A2, (1, 1), 15,
     [((0, 0), 0), ((0, 1), 0), ((1, 0), 0), ((1, 1), 0), ((1, 1), 1),
      ((1, 2), 1), ((2, 1), 1), ((2, 2), 2)],
     [(1, 1), (2, -1), (-1, 2), (0, 0), (0, 0), (1, -2), (-2, 1), (-1, -1)]),
    (A3, (0, 1, 0), 28,
     [((0, 0, 0), 0), ((0, 1, 0), 0), ((0, 1, 1), 1), ((1, 1, 0), 0),
      ((1, 1, 1), 1), ((1, 2, 1), 3)],
     [(0, 1, 0), (1, -1, 1), (1, 0, -1), (-1, 0, 1), (-1, 1, -1), (0, -1, 0)]),
])
def test_module_builds_only_reachable_components(cartan, lam, builds, basis,
                                                 weights, monkeypatch):
    # M_nu = sum_p F_p M_(nu - e_p), so a degree with no surviving degree one
    # letter below it is skipped; building every degree of each level took
    # 21 and 56 components and gave the same module data.  A component is
    # built from the components one letter lower, so the built set also
    # holds every degree below a requested one.
    alg = UAlgebra(simply_connected_datum(cartan), 8)
    built = []
    orig = FAlgebra._build_component
    monkeypatch.setattr(FAlgebra, "_build_component",
                        lambda self, nu, *a: built.append(nu) or orig(self, nu, *a))
    mod = uq.HWModule(alg, lam)
    assert len(built) == len(set(built)) == builds
    assert all(nu[:p] + (nu[p] - 1,) + nu[p + 1:] in built
               for nu in built for p in range(len(nu)) if nu[p])
    assert mod.basis == basis and mod.weights == weights
    assert mod.reps == {nu: [c for m, c in basis if m == nu] for nu, _ in basis}
    assert mod.index == {b: k for k, b in enumerate(basis)}


def test_module_weights_and_relations():
    mod = build_module(U1, (2,))
    assert mod.dim == 3
    assert mod.weights == [(2,), (0,), (-2,)]
    rep = module_relations_check(mod)
    assert rep["holds"], rep["failures"]
    rep = module_relations_check(build_module(U2, (1, 1)))
    assert rep["holds"], rep["failures"]


@pytest.mark.parametrize("alg,lam", [(U1, (2,)), (U2, (1, 1)), (U2, (2, 0)),
                                     (U3, (1, 0, 0)), (U3, (0, 1, 0))])
def test_module_relations_hold_on_honest_modules(alg, lam):
    rep = module_relations_check(build_module(alg, lam))
    assert rep["holds"] and rep["character"], rep["failures"]
    fams = rep["families"]
    assert set(fams) == {"K-product", "K-E", "K-F", "E-F", "Serre-E", "Serre-F"}
    assert rep["checked"] == sum(f["checked"] for f in fams.values())
    if alg.rank >= 2:
        assert all(f["checked"] for f in fams.values())


def test_module_relations_catch_a_scaled_raising_action(monkeypatch):
    # doubling every E_i keeps the torus and Serre relations but breaks
    # E_iF_i - F_iE_i = [K~_i], which only composed matrices can see
    orig = uq.HWModule.generator
    monkeypatch.setattr(uq.HWModule, "generator", lambda self, p, raising: (
        orig(self, p, raising).scale(2) if raising else orig(self, p, raising)))
    rep = module_relations_check(uq.HWModule(U2, (1, 1)))
    assert rep["holds"] is False and rep["character"]
    assert [(f["family"], f["at"]) for f in rep["failures"]] == [
        ("E-F", ["1", "1"]), ("E-F", ["2", "2"])]


def test_module_relations_catch_shifted_weights():
    # shifting every weight by the fundamental weight (1, 0) keeps all
    # weight differences, so the K-E and K-F families still hold; only the
    # character, read off the highest-weight vector, sees the shift
    mod = uq.HWModule(U2, (1, 1))
    mod.weights = [(a + 1, b) for a, b in mod.weights]
    rep = module_relations_check(mod)
    fams = rep["families"]
    assert fams["K-E"]["holds"] and fams["K-F"]["holds"]
    assert rep["character"] is False and rep["holds"] is False


def test_module_rejects_bad_weights():
    with pytest.raises(ValueError):
        build_module(U2, (-1, 0))


def test_module_action_shape():
    mod = build_module(U2, (1, 0))
    k = module_operator(mod, k_gen(U2, (1, 0))).coords
    assert sorted(k) == [(idx, idx) for idx in range(mod.dim)]
    ef = module_operator(mod, u_multiply(e_gen(U2, 1), f_gen(U2, 1))).coords
    fe = module_operator(mod, u_multiply(f_gen(U2, 1), e_gen(U2, 1))).coords
    for idx in range(mod.dim):
        gap = U2.datum.pair(U2.datum.coroot(1), mod.weights[idx])
        want = quantum_integer(abs(gap), 1)
        if gap < 0:
            want = QV_ZERO - want
        diff = (ef.get((idx, idx), QV_ZERO) - fe.get((idx, idx), QV_ZERO))
        assert diff == want


def test_module_hom_check_small():
    for eps in (1, -1):
        emb = UEmbedding(U2, PAIR12, eps)
        for lam, hyp_minus, hyp_plus in (((1, 0), True, False),
                                         ((0, 1), False, True)):
            rep = module_hom_check(emb, lam)
            assert rep["holds"], rep["failures"]
            assert rep["dims"] == [2, 3]
            assert rep["hypothesis_minus"] is hyp_minus
            assert rep["hypothesis_plus"] is hyp_plus


def test_module_canonical_check():
    rep = module_canonical_check(UEmbedding(U2, PAIR12, 1), (1, 0))
    assert rep["holds"] and not rep["twisted"]["applicable"]
    assert rep["plain"]["holds"] and len(rep["plain"]["classes"]) == 2
    # observed, not adjudicated: on A3 the degree (1, 1) canonical class of
    # the contracted module does not map to a canonical class
    rep = module_canonical_check(UEmbedding(U3, PAIR12, 1), (0, 0, 1))
    assert rep["plain"]["applicable"] and not rep["plain"]["holds"]
    assert len(rep["plain"]["classes"]) == 3
    assert rep["twisted"]["holds"] and not rep["holds"]
    # neither threshold vanishes, so nothing is checked and nothing holds
    rep = module_canonical_check(UEmbedding(U2, PAIR12, 1), (1, 1))
    assert not rep["plain"]["applicable"] and not rep["twisted"]["applicable"]
    assert not rep["holds"]


def test_tensor_module_check():
    emb = UEmbedding(U2, PAIR12, 1)
    rep = psi_tensor_check(emb, (1, 0), (0, 1))
    assert rep["holds"], rep
    assert rep["dims"] == [4, 9]
    assert rep["factor_map_matches"]
    rep = psi_tensor_check(emb, (0, 0), (0, 0))
    assert rep["holds"] and rep["dims"] == [1, 1]


# observed, not adjudicated: the separate-factor map does not match on these
# two squares, although module_hom_check holds on each factor
TENSOR_FACTOR_MISMATCH = {(1, (1, 0), (1, 0)), (-1, (0, 1), (0, 1))}
FUNDAMENTAL_DIMS_A2 = {(0, 0): (1, 1), (1, 0): (2, 3), (0, 1): (2, 3)}


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("left", list(FUNDAMENTAL_DIMS_A2))
@pytest.mark.parametrize("right", list(FUNDAMENTAL_DIMS_A2))
def test_tensor_module_check_pinned_on_a2(eps, left, right):
    rep = psi_tensor_check(UEmbedding(U2, PAIR12, eps), left, right)
    (ls, lt), (rs, rt) = FUNDAMENTAL_DIMS_A2[left], FUNDAMENTAL_DIMS_A2[right]
    matches = (eps, left, right) not in TENSOR_FACTOR_MISMATCH
    assert rep == {"dims": [ls * rs, lt * rt], "well_defined": True,
                   "spans": True, "injective": True,
                   "factor_map_matches": matches, "holds": matches}


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("pair", [PAIR12, PAIR23])
def test_tensor_module_check_pinned_on_a3(eps, pair):
    rep = psi_tensor_check(UEmbedding(U3, pair, eps), (0, 0, 1), (1, 0, 0))
    assert rep == {"dims": [9, 16], "well_defined": True, "spans": True,
                   "injective": True, "factor_map_matches": True,
                   "holds": True}


# each basis class of the contracted module goes to one class of the full
# module, times a unit written for ε = 1 as (plain, twisted); ε = -1 bars it
HOM_IMAGES_A3 = [
    (PAIR12, (1, 0, 0), True, False, [3, 4],
     {"[]": (0, "1", "1"), "[0]": (2, "1", "-v^-1"), "[1, 0]": (3, "1", "-v^-1")}),
    (PAIR12, (0, 1, 0), False, True, [3, 6],
     {"[]": (0, "1", "1"), "[0]": (3, "-v", "1"), "[1, 0]": (4, "-v", "1")}),
    (PAIR12, (0, 0, 1), True, True, [3, 4],
     {"[]": (0, "1", "1"), "[1]": (1, "1", "1"), "[0, 1]": (3, "-v", "1")}),
    (PAIR23, (1, 0, 0), True, True, [3, 4],
     {"[]": (0, "1", "1"), "[0]": (1, "1", "1"), "[1, 0]": (3, "1", "-v^-1")}),
    (PAIR23, (0, 1, 0), True, False, [3, 6],
     {"[]": (0, "1", "1"), "[1]": (2, "1", "-v^-1"), "[0, 1]": (4, "1", "-v^-1")}),
    (PAIR23, (0, 0, 1), False, True, [3, 4],
     {"[]": (0, "1", "1"), "[1]": (2, "-v", "1"), "[0, 1]": (3, "-v", "1")}),
]


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("pair,lam,hyp_minus,hyp_plus,dims,images", HOM_IMAGES_A3)
def test_module_hom_check_pinned_on_a3(eps, pair, lam, hyp_minus, hyp_plus,
                                       dims, images):
    rep = module_hom_check(UEmbedding(U3, pair, eps), lam)
    bar = {"1": "1", "-v": "-v^-1", "-v^-1": "-v"}
    unit = (lambda c: c) if eps == 1 else bar.get
    assert rep == {
        "dims": dims, "hypothesis_minus": hyp_minus, "hypothesis_plus": hyp_plus,
        **{side: {"well_defined": True, "intertwines": True, "injective": True,
                  "images": {w: {str(k): unit(cs[s])} for w, (k, *cs) in images.items()}}
           for s, side in enumerate(("plain", "twisted"))},
        "holds": True, "failures": []}


# --- linear chains -----------------------------------------------------------

def test_subset_root_datum():
    sub = subset_root_datum(U3.datum, [1, 2])
    assert sub.cartan.indices == (1, 2)
    assert sub.cartan.dot(1, 2) == -1
    assert sub.root(1) == U3.datum.root(1)


def test_linear_tree_factorization():
    u4 = UAlgebra(simply_connected_datum(A4), 8)
    for alg, chain, checked in ((U3, (2, 3), 7), (U3, (1, 2, 3), 7),
                                (u4, (2, 3, 4), 10)):
        for eps in (1, -1):
            rep = linear_tree_factorization_check(alg, chain, eps)
            assert rep["hypothesis"] and rep["holds"], (chain, rep["failures"])
            assert rep["checked"] == checked


def test_linear_tree_rejections():
    rep = linear_tree_factorization_check(U3, (1, 3), 1)
    assert not rep["hypothesis"] and "adjacent" in rep["reason"]
    u4 = UAlgebra(simply_connected_datum(A4), 6)
    rep = linear_tree_factorization_check(u4, (2, 3), 1)
    assert not rep["hypothesis"] and "off the chain" in rep["reason"]
    rep = linear_tree_factorization_check(u4, (1, 2, 3), 1)
    assert not rep["hypothesis"] and not rep["holds"]
    assert rep["reason"] == "vertex 3 has a neighbor 4 off the chain"


def test_naive_square():
    for eps in (1, -1):
        rep = naive_square_check(U3, 1, 2, 3, eps)
        assert rep["holds"], rep["failures"]
        assert rep["checked"] == 7
