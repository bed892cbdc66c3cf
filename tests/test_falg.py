import random

import pytest

from qcontract._budget import BudgetExceeded, set_budget
from qcontract._linalg import rank as matrix_rank
from qcontract.cartan import CartanDatum, ContractiblePair, simply_laced_cartan
from qcontract.falg import (
    FAlgebra, FElement, FEmbedding, bar, bar_comp_check, bilinear_form,
    brace_form, coproduct_r, f_i_membership, f_prime, felement,
    form_compat_check, from_free, graded_basis, injectivity_report,
    left_f_i_membership, left_pi_i, left_r_i, one, p_bar_check,
    parse_felement, pi_i, psi_dagger_epsilon, psi_epsilon, r_component, r_i,
    relator_image_is_zero, render_felement, restriction_compat_check,
    serre_relator, subquotient_f, tensor, theta, theta_merged_power_identity,
)
from qcontract.falg import (
    _pbw_data as falg_pbw_data,
    _subquotient_basis_failures as falg_subquotient_basis_failures,
    b_emb_check, canonical_basis, pbw_monomials,
)
from qcontract.scalar import (
    QV_ONE, in_one_plus_vinv, quantum_integer, qv, v_power,
)

A1 = simply_laced_cartan((1,), [])
A2 = simply_laced_cartan((1, 2), [(1, 2)])
A3 = simply_laced_cartan((1, 2, 3), [(1, 2), (2, 3)])
D4 = simply_laced_cartan(("c", 1, 2, 3), [("c", 1), ("c", 2), ("c", 3)])
B2 = CartanDatum((1, 2), ((4, -2), (-2, 2)))
AFF = simply_laced_cartan((1, 2), [(1, 2), (1, 2)])  # 1.2 = -2, not finite

FA2 = FAlgebra(A2)
FA3 = FAlgebra(A3)
PAIR32 = ContractiblePair(2, 3)
PAIR21 = ContractiblePair(1, 2)

C_INV = QV_ONE - v_power(-2)           # (theta_i, theta_i) = 1/(1 - v^-2)
C = QV_ONE / C_INV


def monomial(alg, *symbols):
    out = one(alg)
    for s in symbols:
        out = out * theta(alg, s)
    return out


def basis_elements(alg, nu):
    nu = alg.degree(nu)
    return [felement(alg, nu, {w: QV_ONE}) for w in alg.component(nu).basis]


def degrees_up_to(rank, total):
    def grow(prefix, left):
        if len(prefix) == rank:
            yield tuple(prefix)
            return
        for n in range(left + 1):
            yield from grow(prefix + [n], left - n)
    return [d for d in grow([], total) if any(d)]


def kostant_count(datum, nu):
    """Multiset partitions of nu into positive roots; independent of the
    word-reduction route.  Roots are closed up by simple reflections acting
    on simple-root coordinates, s_i(x) = x - <i, x> alpha_i."""
    n = len(datum.indices)
    simple = [tuple(int(k == a) for k in range(n)) for a in range(n)]
    entry = [[datum.cartan_entry(i, j) for j in datum.indices] for i in datum.indices]
    closure = set(simple)
    frontier = list(closure)
    while frontier:
        nxt = []
        for x in frontier:
            for a in range(n):
                pairing = sum(entry[a][k] * x[k] for k in range(n))
                y = tuple(x[k] - (pairing if k == a else 0) for k in range(n))
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
        frontier = nxt
    roots = sorted(x for x in closure if all(c >= 0 for c in x))

    def count(rem, k):
        if not any(rem):
            return 1
        if k == len(roots):
            return 0
        total = count(rem, k + 1)
        cur = tuple(a - b for a, b in zip(rem, roots[k]))
        while all(c >= 0 for c in cur):
            total += count(cur, k + 1)
            cur = tuple(a - b for a, b in zip(cur, roots[k]))
        return total

    return count(tuple(nu), 0)


# --- graded components and dimensions ---------------------------------------

def test_dimensions_pinned():
    assert FA2.component((1, 1)).dim == 2
    assert FA2.component((2, 1)).dim == 2
    assert FA2.component((2, 2)).dim == 3
    assert FA3.component((1, 1, 1)).dim == 4
    assert FA3.component((2, 2, 2)).dim == 10


def test_basis_words_pinned():
    # lex-greatest words become pivots, so the basis keeps the lex-least ones
    comp = FA2.component((2, 1))
    assert comp.basis == ((0, 0, 1), (0, 1, 0))


def test_dimensions_match_root_partition_counts():
    for datum in (A2, A3, B2):
        alg = FAlgebra(datum)
        for nu in degrees_up_to(len(datum.indices), 6 if datum is not A3 else 5):
            assert alg.component(nu).dim == kostant_count(datum, nu), (datum.indices, nu)
    # the benchmark's headline component: a 420 x 210 Serre elimination
    assert FAlgebra(A3).component((2, 3, 2)).dim == kostant_count(A3, (2, 3, 2)) == 13


def test_gram_kernel_matches_relation_span():
    # graded_basis re-derives the component with the bilinear-form cross-check
    for alg, total in ((FA2, 5), (FA3, 4), (FAlgebra(AFF), 5), (FAlgebra(B2), 4)):
        for nu in degrees_up_to(alg.rank, total):
            comp = graded_basis(alg, nu)
            assert comp.gram_kernel_dim is not None


def test_component_degree_bound():
    small = FAlgebra(A2, degree_bound=3)
    small.component((2, 1))
    with pytest.raises(ValueError):
        small.component((2, 2))


def test_budget_enforced():
    fresh = FAlgebra(A2)
    set_budget(3)
    try:
        with pytest.raises(BudgetExceeded):
            fresh.component((2, 2))
    finally:
        set_budget(None)


# --- algebra operations ------------------------------------------------------

def test_divided_power_product():
    t1 = theta(FA2, 1)
    assert t1 * t1 == theta(FA2, 1, 2).scale(quantum_integer(2))
    t2 = theta(FA2, 2)
    prod = t1 * t2 * t1
    assert prod.nu == (2, 1)


def test_serre_relator_reduces_to_zero():
    assert serre_relator(FA2, 1, 2).is_zero()
    assert serre_relator(FA2, 2, 1).is_zero()
    assert serre_relator(FAlgebra(B2), 1, 2).is_zero()
    assert serre_relator(FAlgebra(B2), 2, 1).is_zero()
    assert serre_relator(FAlgebra(AFF), 1, 2).is_zero()


def test_bar_is_involutive_homomorphism():
    x = felement(FA2, (1, 1), {(0, 1): v_power(2), (1, 0): qv(3)})
    assert bar(bar(x)) == x
    y = monomial(FA2, 1, 2, 1)
    assert bar(x * y) == bar(x) * bar(y)


def test_form_values_pinned():
    t1 = theta(FA2, 1)
    assert bilinear_form(t1, t1) == C
    t12 = monomial(FA2, 1, 2)
    t21 = monomial(FA2, 2, 1)
    assert bilinear_form(t12, t12) == C * C
    assert bilinear_form(t12, t21) == v_power(-1) * C * C
    assert brace_form(t1, t1) == QV_ONE / (QV_ONE - v_power(2))


def test_word_class_norms_lie_in_one_plus_vinv():
    # at squarefree degree every basis word class satisfies the norm condition
    for w in FA3.component((1, 1, 1)).basis:
        x = felement(FA3, (1, 1, 1), {w: QV_ONE})
        assert in_one_plus_vinv(bilinear_form(x, x))


def test_coproduct_pinned():
    t1, t2 = theta(FA2, 1), theta(FA2, 2)
    t12 = t1 * t2
    expected = (tensor(t12, one(FA2)) + tensor(t1, t2)
                + tensor(t2, t1).scale(v_power(-1)) + tensor(one(FA2), t12))
    assert coproduct_r(t12) == expected


def test_coproduct_is_multiplicative():
    rng = random.Random(7)
    for _ in range(10):
        nux = rng.choice([(1, 0), (0, 1), (1, 1)])
        nuy = rng.choice([(1, 0), (1, 1), (2, 1)])
        x = rng.choice(basis_elements(FA2, nux))
        y = rng.choice(basis_elements(FA2, nuy))
        assert coproduct_r(x * y) == coproduct_r(x) * coproduct_r(y)


def test_form_adjoint_to_coproduct():
    # (x x', y) agrees with the component pairing of r(y)
    for nux, nuxp in (((1, 0), (0, 1)), ((1, 1), (1, 0)), ((1, 1), (1, 1))):
        for x in basis_elements(FA2, nux):
            for xp in basis_elements(FA2, nuxp):
                nu = tuple(a + b for a, b in zip(x.nu, xp.nu))
                for y in basis_elements(FA2, nu):
                    lhs = bilinear_form(x * xp, y)
                    rhs = sum(
                        (c * bilinear_form(x, felement(FA2, nux, {wl: QV_ONE}))
                         * bilinear_form(xp, felement(FA2, nuxp, {wr: QV_ONE}))
                         for (wl, wr), c in
                         r_component(y, nux, nuxp).coords.items()),
                        start=qv(0))
                    assert lhs == rhs


def test_r_i_pinned_values():
    vals = {
        (0, 1, 2): v_power(-1),   # theta1 theta2 theta3
        (0, 2, 1): QV_ONE,
        (1, 0, 2): v_power(-2),
        (2, 1, 0): v_power(-1),
    }
    t13 = felement(FA3, (1, 0, 1), {(0, 2): QV_ONE})
    for w, c in vals.items():
        x = felement(FA3, (1, 1, 1), {w: QV_ONE})
        assert r_i(x, 2) == t13.scale(c)


def test_r_i_leibniz():
    rng = random.Random(11)
    alpha2 = FA3.degree({2: 1})
    for _ in range(12):
        nux = rng.choice([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1)])
        nuy = rng.choice([(0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1)])
        x = rng.choice(basis_elements(FA3, nux))
        y = rng.choice(basis_elements(FA3, nuy))
        twist = v_power(FA3.degree_dot(alpha2, y.nu))
        assert r_i(x * y, 2) == (r_i(x, 2) * y).scale(twist) + x * r_i(y, 2)
        twist_l = v_power(FA3.degree_dot(alpha2, x.nu))
        assert left_r_i(x * y, 2) == left_r_i(x, 2) * y + (x * left_r_i(y, 2)).scale(twist_l)


def test_f_prime_pinned():
    assert render_felement(f_prime(FA2, 1, 2, 1)) == "(1)*[1,2] + (-v^-1)*[2,1]"
    assert f_prime(FA2, 1, 2, 0) == theta(FA2, 2)
    for m in (1, 2, 3):
        assert r_i(f_prime(FA2, 1, 2, m), 1).is_zero()
        assert f_i_membership(f_prime(FA2, 1, 2, m), 1)


def test_projection_splits_each_piece():
    for i in (1, 2):
        for nu in degrees_up_to(2, 4):
            for x in basis_elements(FA2, nu):
                k = pi_i(x, i)
                assert r_i(k, i).is_zero()
                assert pi_i(k, i) == k
                rest = x - k
                # the complement is a right multiple of the generator
                assert pi_i(rest, i).is_zero()
                kl = left_pi_i(x, i)
                assert left_r_i(kl, i).is_zero()
                assert left_pi_i(kl, i) == kl
    t2 = theta(FA2, 2)
    assert pi_i(monomial(FA2, 2, 1) * theta(FA2, 1), 1).is_zero()
    assert left_pi_i(t2 * monomial(FA2, 1, 2), 2).is_zero()


def test_projection_pinned_values():
    x321 = felement(FA3, (1, 1, 1), {(2, 1, 0): QV_ONE})
    x132 = felement(FA3, (1, 1, 1), {(0, 2, 1): QV_ONE})
    assert pi_i(x321, 2) == x321 - x132.scale(v_power(-1))
    assert pi_i(monomial(FA2, 2, 1), 1).is_zero()
    assert f_i_membership(monomial(FA2, 1, 2) - monomial(FA2, 2, 1).scale(v_power(-1)), 1)
    assert left_f_i_membership(monomial(FA2, 2, 1) - monomial(FA2, 1, 2).scale(v_power(-1)), 1)


def test_kernel_orthogonal_to_multiples():
    nu = (2, 1)
    lower = basis_elements(FA2, (1, 1))
    t1 = theta(FA2, 1)
    for x in basis_elements(FA2, nu):
        k = pi_i(x, 1)
        for y in lower:
            assert bilinear_form(k, y * t1) == qv(0)


def test_rank_of_r_i_is_full():
    # r_i maps each piece onto the piece one alpha_i lower
    from qcontract._linalg import rank
    for i in (1, 2):
        p = FA2.position(i)
        for nu in degrees_up_to(2, 4):
            if nu[p] == 0:
                continue
            lower = tuple(n - (1 if k == p else 0) for k, n in enumerate(nu))
            rows = [r_i(x, i).coordinate_vector() for x in basis_elements(FA2, nu)]
            assert rank(rows) == FA2.component(lower).dim


# --- the contraction embeddings ----------------------------------------------

def test_merged_generator_pinned():
    emb = psi_epsilon(FA2, PAIR21, 1)
    assert render_felement(emb.merged_generator()) == "(1)*[1,2] + (-v^-1)*[2,1]"
    demb = psi_dagger_epsilon(FA2, PAIR21, 1)
    # the dagger generator is -v times the plain one
    assert demb.merged_generator() == emb.merged_generator().scale(v_power(1, -1))
    emb_m = psi_epsilon(FA2, PAIR21, -1)
    assert emb_m.merged_generator() == monomial(FA2, 1, 2) - monomial(FA2, 2, 1).scale(v_power(1))


def test_merged_generator_matches_f_prime():
    emb = psi_epsilon(FA3, PAIR32, 1)
    assert emb.merged_generator() == f_prime(FA3, 2, 3, 1)


def test_degree_map():
    emb = psi_epsilon(FA3, PAIR32, 1)
    assert emb.degree_map((2, 1)) == (2, 1, 1)
    assert emb.source.cartan.indices == (1, "2+3")


def test_relator_images_vanish():
    cases = [
        (FA3, PAIR32),
        (FAlgebra(D4, degree_bound=8), ContractiblePair("c", 1)),
    ]
    for alg, pair in cases:
        for eps in (1, -1):
            for dagger in (False, True):
                emb = FEmbedding(alg, pair, eps, dagger=dagger)
                src = emb.source
                for i in src.cartan.indices:
                    for j in src.cartan.indices:
                        if i != j:
                            assert relator_image_is_zero(emb, i, j), (pair, eps, dagger, i, j)


def test_rank_one_source_has_no_relators():
    emb = psi_epsilon(FA2, PAIR21, 1)
    with pytest.raises(ValueError):
        emb.source.serre_relator_free("1+2", "1+2")


def test_theta_merged_power_identity():
    for eps in (1, -1):
        for dagger in (False, True):
            emb = FEmbedding(FA2, PAIR21, eps, dagger=dagger)
            for n in (1, 2, 3):
                assert theta_merged_power_identity(emb, n)


def test_embedding_multiplicative():
    rng = random.Random(23)
    emb = psi_epsilon(FA3, PAIR32, 1)
    src = emb.source
    degs = degrees_up_to(2, 2)
    for _ in range(40):
        x = rng.choice(basis_elements(src, rng.choice(degs)))
        y = rng.choice(basis_elements(src, rng.choice(degs)))
        assert emb.apply(x * y) == emb.apply(x) * emb.apply(y)


def test_injectivity_reports():
    emb = psi_epsilon(FA3, PAIR32, 1)
    rep = injectivity_report(emb, 4)
    assert rep["injective"]
    assert all(p["rank"] == p["dim"] for p in rep["pieces"].values())
    d4 = FAlgebra(D4, degree_bound=8)
    for eps in (1, -1):
        rep = injectivity_report(FEmbedding(d4, ContractiblePair("c", 1), eps), 3)
        assert rep["injective"]
    rep = injectivity_report(psi_dagger_epsilon(FA2, PAIR21, -1), 4)
    assert rep["injective"]


def test_bar_swaps_the_two_embeddings():
    for alg, pair in ((FA2, PAIR21), (FA3, PAIR32)):
        for eps in (1, -1):
            for dagger in (False, True):
                emb = FEmbedding(alg, pair, eps, dagger=dagger)
                src = emb.source
                for nu in degrees_up_to(src.rank, 3):
                    for x in basis_elements(src, nu):
                        assert p_bar_check(emb, x)
                # semilinearity spot check with a v-loaded coefficient
                x = basis_elements(src, src.degree({pair.merged_symbol(): 1}))[0]
                assert p_bar_check(emb, x.scale(v_power(3, 2)))


def test_restriction_compatibility():
    emb = psi_epsilon(FA2, PAIR21, 1)
    rep = restriction_compat_check(emb, (2,), (1,), (1,))
    assert rep["holds"] and not rep["conjugated"]
    for eps in (1, -1):
        for dagger in (False, True):
            emb = FEmbedding(FA3, PAIR32, eps, dagger=dagger)
            for nu, tau, omega in (((1, 1), (1, 0), (0, 1)),
                                   ((1, 1), (0, 1), (1, 0)),
                                   ((2, 1), (1, 1), (1, 0)),
                                   ((1, 1), (0, 0), (1, 1))):
                rep = restriction_compat_check(emb, nu, tau, omega)
                assert rep["holds"], (eps, dagger, nu, tau, omega)
                # the plain identity holds for one sign, conjugated for the other
                assert rep["conjugated"] == ((eps == 1) == dagger)


def test_form_compatibility_sweep():
    for eps in (1, -1):
        emb = psi_epsilon(FA3, PAIR32, eps)
        src = emb.source
        for nu in degrees_up_to(2, 3):
            for x in basis_elements(src, nu):
                for y in basis_elements(src, nu):
                    rep = form_compat_check(x, y, FA3, PAIR32, eps)
                    assert rep["holds"], (eps, nu, rep)


def test_form_scaling_factor_pinned():
    # contracting A2 with nu = one merged letter rescales the form by v^2
    for eps in (1, -1):
        emb = FEmbedding(FA2, PAIR21, -1)
        src = emb.source
        x = theta(src, "1+2")
        assert bilinear_form(emb.apply(x), emb.apply(x)) == v_power(2) * bilinear_form(x, x)
    rep = form_compat_check(x, x, FA2, PAIR21, -1)
    assert rep["holds"] and rep["scaled"] and rep["scaled_dagger"]
    rep = form_compat_check(x, x, FA2, PAIR21, 1)
    assert rep["holds"] and rep["scaled_brace"] and rep["scaled_brace_dagger"]


def test_bar_projection_compatibility_rank_one_source():
    for eps in (1, -1):
        for dagger in (False, True):
            emb = FEmbedding(FA2, PAIR21, eps, dagger=dagger)
            for n in (1, 2, 3):
                rep = bar_comp_check(emb, (n,))
                assert rep["holds"], (eps, dagger, n, rep)


def test_bar_projection_compatibility_two_generator_source():
    # with a second generator only the composite projecting at the pair
    # endpoint without a neighbour outside the pair (3 in A3) stays
    # compatible; the side at the endpoint next to 1 genuinely fails, and
    # the report keeps the two answers separate
    for pair in (PAIR32, ContractiblePair(3, 2)):
        for eps in (1, -1):
            for dagger in (False, True):
                emb = FEmbedding(FA3, pair, eps, dagger=dagger)
                right_i = pair.minus if dagger else pair.plus
                for nu in ((1, 1), (2, 1), (1, 2)):
                    rep = bar_comp_check(emb, nu)
                    sides = (rep["right_projection"], rep["left_projection"])
                    free, next_to_1 = sides if right_i == 3 else sides[::-1]
                    assert free, (pair, eps, dagger, nu)
                    assert not next_to_1, (pair, eps, dagger, nu)
                    assert not rep["holds"]


def test_spec_projection_of_embedded_generator():
    # projecting the embedded merged generator equals projecting theta1 theta2
    emb = psi_epsilon(FA2, PAIR21, 1)
    img = emb.apply(theta(emb.source, "1+2"))
    assert pi_i(img, 1) == pi_i(monomial(FA2, 1, 2), 1)
    assert img == pi_i(img, 1)  # already in the kernel piece


# --- the split subquotient ----------------------------------------------------

def test_subquotient_a3():
    rep = subquotient_f(FA3, PAIR32, 3)
    assert rep["holds"]
    piece = rep["pieces"][(1, 2)]
    assert piece["subalgebra_dim"] == 7
    assert piece["quotient_rank"] == 2
    assert piece["kernel_dim"] == piece["ideal_dim"] == 5
    assert piece["split"] and piece["well_defined"]


def test_subquotient_a2_split_to_degree_four():
    rep = subquotient_f(FA2, PAIR21, 4)
    assert rep["holds"]
    assert all(p["split"] for p in rep["pieces"].values())
    assert rep["pieces"][(4,)]["quotient_rank"] == 1


def test_subquotient_epsilon_variant():
    rep = subquotient_f(FA3, PAIR32, 2, epsilon=-1)
    assert rep["holds"]


# --- rendering ----------------------------------------------------------------

def test_render_parse_roundtrip():
    rng = random.Random(3)
    for nu in ((1, 1), (2, 1), (2, 2)):
        words = FA2.component(nu).basis
        coords = {w: v_power(rng.randrange(-3, 4), rng.randrange(1, 5))
                  for w in words}
        x = felement(FA2, nu, coords)
        assert parse_felement(FA2, render_felement(x)) == x
    assert render_felement(one(FA2).scale(0)) == "0"
    assert parse_felement(FA2, "0").is_zero()


def test_render_merged_symbols():
    emb = psi_epsilon(FA3, PAIR32, 1)
    src = emb.source
    x = monomial(src, "2+3", 1)
    text = render_felement(x)
    assert "2+3" in text
    assert parse_felement(src, text) == x


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_felement(FA2, "theta_1")
    with pytest.raises(KeyError):
        parse_felement(FA2, "(1)*[7]")


# --- canonical bases -----------------------------------------------------------

def a2_closed_form(nu):
    n1, n2 = nu
    out = set()
    for a in range(n1 + 1):
        if n2 >= n1:
            out.add(monomial_divided(FA2, (1, a), (2, n2), (1, n1 - a)))
    for a in range(n2 + 1):
        if n1 > n2:
            out.add(monomial_divided(FA2, (2, a), (1, n1), (2, n2 - a)))
    return out


def monomial_divided(alg, *powers):
    out = one(alg)
    for s, n in powers:
        out = out * theta(alg, s, n)
    return out


def test_canonical_basis_rank_one():
    alg = FAlgebra(A1, 10)
    for n in range(5):
        assert canonical_basis(alg, (n,)) == [theta(alg, 1, n)]


def test_canonical_basis_a2_small():
    assert set(canonical_basis(FA2, (1, 1))) == \
        {monomial(FA2, 1, 2), monomial(FA2, 2, 1)}
    assert set(canonical_basis(FA2, (2, 1))) == \
        {theta(FA2, 1, 2) * theta(FA2, 2), theta(FA2, 2) * theta(FA2, 1, 2)}


def test_canonical_basis_a2_closed_form():
    for total in range(6):
        for n1 in range(total + 1):
            nu = (n1, total - n1)
            assert set(canonical_basis(FA2, nu)) == a2_closed_form(nu)


def test_canonical_basis_defining_conditions():
    for alg, nu in ((FA2, (2, 2)), (FA3, (1, 1, 1)), (FA3, (1, 2, 1))):
        basis = canonical_basis(alg, nu)
        comp = alg.component(nu)
        assert len(basis) == comp.dim
        rows = [b.coordinate_vector() for b in basis]
        assert matrix_rank(rows) == comp.dim
        for b in basis:
            assert bar(b) == b
            assert in_one_plus_vinv(bilinear_form(b, b))


def test_canonical_basis_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_basis(FAlgebra(AFF, 6), (1, 1))


def test_pbw_monomials_span():
    for nu in ((1, 1), (2, 1), (2, 2), (3, 2)):
        monos = pbw_monomials(FA2, nu)
        assert len(monos) == FA2.component(nu).dim
        _, betas, _, _ = falg_pbw_data(FA2)
        for a, el in monos:
            built = tuple(sum(m * b[s] for m, b in zip(a, betas))
                          for s in range(2))
            assert built == nu and el.nu == nu


def test_b_emb_projected_membership():
    for eps in (1, -1):
        for n in range(4):
            rep = b_emb_check(FA2, PAIR21, (n,), eps)
            assert rep["holds"], rep["failures"]
            assert rep["checked"] == 4 * rep["source_size"]
            # a rank-one source: all four projected containments hold too
            for label, verdict in rep["projected"].items():
                assert verdict["holds"], (label, verdict["failures"])


def test_b_emb_merged_projection_pin():
    emb = psi_epsilon(FA2, PAIR21, 1)
    lhs = pi_i(emb.apply(theta(emb.source, emb.merged)), 1)
    assert lhs == pi_i(monomial(FA2, 1, 2), 1)


def test_b_emb_contracted_target():
    rep = b_emb_check(FA3, PAIR32, (1, 1), 1)
    assert rep["holds"], rep["failures"]
    assert rep["source_size"] == 2
    # the projected containments at the dropped index 3 hold; the two through
    # the surviving index 2 each fail on one witness
    proj = rep["projected"]
    assert proj["left_pi[minus] o psi"]["holds"]
    assert proj["pi[minus] o psi_dagger"]["holds"]
    src = psi_epsilon(FA3, PAIR32, 1).source
    v = v_power(1)

    def witnesses(label):
        return [(parse_felement(src, f["element"]), parse_felement(FA3, f["image"]))
                for f in proj[label]["failures"]]

    merged = theta(src, "2+3")
    assert witnesses("pi[plus] o psi") == [(
        merged * theta(src, 1),
        monomial(FA3, 2, 1, 3) - monomial(FA3, 3, 2, 1).scale(v_power(-1)))]
    assert witnesses("left_pi[plus] o psi_dagger") == [(
        theta(src, 1) * merged,
        monomial(FA3, 1, 2, 3).scale(QV_ONE - QV_ONE - v)
        + monomial(FA3, 1, 3, 2)
        + monomial(FA3, 2, 1, 3).scale(QV_ONE - v_power(-2)))]
    # the split matches the bar compatibility of the same composites
    for dagger, right, left in (
            (False, "pi[plus] o psi", "left_pi[minus] o psi"),
            (True, "pi[minus] o psi_dagger", "left_pi[plus] o psi_dagger")):
        sides = bar_comp_check(FEmbedding(FA3, PAIR32, 1, dagger=dagger), (1, 1))
        assert sides["right_projection"] == proj[right]["holds"]
        assert sides["left_projection"] == proj[left]["holds"]


def test_b_emb_subquotient_form_a3():
    for pair in (PAIR32, ContractiblePair(3, 2)):
        for eps in (1, -1):
            for nu_hat in ((1, 1), (2, 1), (1, 2)):
                rep = b_emb_check(FA3, pair, nu_hat, eps)
                assert rep["holds"], (pair, eps, nu_hat, rep["failures"])
                assert rep["checked"] == 4 * rep["source_size"]


def test_b_emb_subquotient_form_rejects_wrong_bases():
    emb = psi_epsilon(FA3, PAIR32, 1)
    nu_hat = (1, 1)
    nu = emb.degree_map(nu_hat)
    basis_hat = canonical_basis(emb.source, nu_hat)
    basis_tgt = canonical_basis(FA3, nu)

    def conditions(source, target):
        return sorted((f["condition"], f.get("matches"))
                      for f in falg_subquotient_basis_failures(
                          "psi", emb, nu_hat, nu, source, target))

    assert conditions(basis_hat, basis_tgt) == []
    # scaling the target basis by v breaks every congruence and every
    # quotient image
    scaled = [b.scale(v_power(1)) for b in basis_tgt]
    assert conditions(basis_hat, scaled) == \
        [("congruent to one basis element", 0)] * 2 \
        + [("quotient into basis or zero", None)] * 2
    # a repeated target element gives an image two congruent matches
    assert conditions(basis_hat, basis_tgt + basis_tgt) == \
        [("congruent to one basis element", 2)] * 2
    # a repeated source element reaches an already used target element
    assert conditions(basis_hat + basis_hat[:1], basis_tgt) == \
        [("distinct basis elements", None)]
