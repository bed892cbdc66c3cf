import random

import pytest

from qcontract.cartan import (
    CartanDatum, ContractiblePair, RootDatum, WeylElement, contract_cartan,
    contract_root_datum, enumerate_roots, positive_roots, simple_reflection,
    simply_connected_datum, simply_laced_cartan, validate_cartan,
    weyl_embedding, weyl_group, weyl_word, _det,
)
from qcontract.uq import UAlgebra

A2 = simply_laced_cartan((1, 2), [(1, 2)])
A3 = simply_laced_cartan((1, 2, 3), [(1, 2), (2, 3)])
D4 = simply_laced_cartan(("c", 1, 2, 3), [("c", 1), ("c", 2), ("c", 3)])


def test_validate_cartan_pinned():
    ok, bad = validate_cartan(A2)
    assert ok and not bad
    ok, bad = validate_cartan(CartanDatum((1, 2), ((2, 1), (1, 2))))
    assert not ok and any("positive" in m for m in bad)
    ok, bad = validate_cartan(CartanDatum((1, 2), ((3, -1), (-1, 2))))
    assert not ok and any("even" in m for m in bad)
    with pytest.raises(ValueError):
        CartanDatum((1, 2), ((2, -1), (0, 2)))


@pytest.mark.parametrize("seed", range(3))
def test_det_matches_sympy(seed):
    # Bareiss' integer elimination against sympy's determinant, on seeded
    # integer matrices with n <= 6: singular ones (a row that is a
    # combination of two others) and ones with a zero pivot that needs a row
    # swap are made on purpose, and n = 0 has determinant 1
    sp = pytest.importorskip("sympy")
    rng = random.Random(seed)
    cases = [[], [[0, 1], [1, 0]], [[0, 2, 1], [0, 1, 4], [3, 2, 8]], [[0, 0], [5, 1]]]
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.4:
            rows[0][0] = 0
        if n >= 3 and rng.random() < 0.3:
            rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
        cases.append(rows)
    dets = [sp.Matrix(rows).det() if rows else 1 for rows in cases]
    assert [_det(rows) for rows in cases] == dets
    assert sum(d == 0 for d in dets) >= 5
    assert sum(bool(r) and r[0][0] == 0 and d != 0 for r, d in zip(cases, dets)) >= 5


def test_validate_divisibility():
    # B2-like datum: 1.1 = 4, 2.2 = 2, 1.2 = -2 is fine; 1.2 = -1 is not
    ok, _ = validate_cartan(CartanDatum((1, 2), ((4, -2), (-2, 2))))
    assert ok
    ok, bad = validate_cartan(CartanDatum((1, 2), ((4, -1), (-1, 2))))
    assert not ok and any("not an integer" in m for m in bad)


def test_contract_cartan_pinned():
    out = contract_cartan(A2, ContractiblePair(1, 2))
    assert out.pairing == ((2,),)
    out = contract_cartan(A3, ContractiblePair(2, 3))
    assert out.indices == (1, "2+3")
    assert out.pairing == ((2, -1), (-1, 2))
    out = contract_cartan(D4, ContractiblePair("c", 1), new_index="c1")
    assert out.indices == ("c1", 2, 3)
    assert out.pairing == ((2, -1, -1), (-1, 2, 0), (-1, 0, 2))


def test_contract_cartan_rejects_bad_pair():
    # in A3 the indices 1 and 3 are orthogonal: 1.1 != -2*(1.3)
    with pytest.raises(ValueError):
        contract_cartan(A3, ContractiblePair(1, 3))


def test_contract_cartan_fuzz_valid():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(3, 6)
        verts = list(range(n))
        edges = [(0, 1)]  # the contractible pair needs exactly one bond
        for a in range(n):
            for b in range(a + 1, n):
                if (a, b) != (0, 1) and rng.random() < 0.4:
                    edges.append((a, b))
        scale = rng.choice([1, 2, 3])
        base = simply_laced_cartan(verts, edges)
        datum = CartanDatum(base.indices,
                            tuple(tuple(scale * x for x in r) for r in base.pairing))
        ok, bad = validate_cartan(datum)
        assert ok, bad
        out = contract_cartan(datum, ContractiblePair(0, 1))
        ok, bad = validate_cartan(out)
        assert ok, bad
        assert out.dot("0+1", "0+1") == datum.dot(0, 0)


def test_contract_root_datum_pinned():
    rd = simply_connected_datum(A2)
    hat = contract_root_datum(rd, ContractiblePair(1, 2), new_index="0")
    assert hat.root("0") == (1, 1)
    assert hat.coroot("0") == (1, 1)
    assert hat.pair(hat.coroot("0"), hat.root("0")) == 2


def test_dominant_cone_containment():
    rng = random.Random(31)
    rd = simply_connected_datum(A3)
    hat = contract_root_datum(rd, ContractiblePair(2, 3))
    for _ in range(20):
        x = tuple(rng.randint(0, 6) for _ in range(3))
        # dominant for I means dominant for the contracted datum
        if rd.dominant(x):
            assert hat.dominant(x)
    assert rd.dominant((1, 0, 2)) and hat.dominant((1, 0, 2))
    # the converse can fail
    assert hat.dominant((0, 1, -1)) and not rd.dominant((0, 1, -1))


def test_weyl_group_sizes():
    assert len(weyl_group(simply_connected_datum(A2))) == 6
    assert len(weyl_group(simply_connected_datum(A3))) == 24
    assert len(weyl_group(simply_connected_datum(D4))) == 192


def test_simple_reflection_involution():
    for datum in (A2, A3, D4):
        rd = simply_connected_datum(datum)
        for i in datum.indices:
            s = simple_reflection(rd, i)
            assert (s * s).is_identity()


def test_weyl_enumeration_rejects_affine():
    aff = CartanDatum((1, 2), ((2, -2), (-2, 2)))
    with pytest.raises(ValueError):
        weyl_group(simply_connected_datum(aff))


def test_y_regular_needs_independent_coroots():
    # affine A1 on Y = X = Z: the two simple coroots are 1 and -1
    aff = CartanDatum((1, 2), ((2, -2), (-2, 2)))
    flat = RootDatum(aff, ((1,),), {1: (2,), 2: (-2,)}, {1: (1,), 2: (-1,)})
    assert not flat.is_Y_regular()
    with pytest.raises(ValueError):
        simple_reflection(flat, 1)
    assert simply_connected_datum(aff).is_Y_regular()
    assert contract_root_datum(simply_connected_datum(A3),
                               ContractiblePair(2, 3)).is_Y_regular()


def test_weyl_embedding_merged_reflection():
    for datum, pair in ((A2, ContractiblePair(1, 2)),
                        (A3, ContractiblePair(2, 3)),
                        (D4, ContractiblePair("c", 1))):
        rd = simply_connected_datum(datum)
        emb = weyl_embedding(rd, pair)
        sp = simple_reflection(rd, pair.plus)
        sm = simple_reflection(rd, pair.minus)
        assert emb.generator_images[emb.merged] == sp * sm * sp
        # the contracted reflection acts on the same Y with the same matrix
        shat = simple_reflection(emb.contracted, emb.merged)
        assert shat == emb.generator_images[emb.merged]


def test_weyl_embedding_verify():
    rd = simply_connected_datum(A3)
    emb = weyl_embedding(rd, ContractiblePair(2, 3))
    report = emb.verify()
    assert report == {"finite_type": True, "order": 6,
                      "homomorphism": True, "injective": True}
    images = {emb.apply(w).matrix for w in weyl_group(emb.contracted)}
    assert len(images) == 6


@pytest.mark.parametrize("new_index", [2, 3])
def test_merged_index_may_reuse_a_pair_name(new_index):
    rd = simply_connected_datum(A3)
    pair = ContractiblePair(2, 3)
    hat = contract_root_datum(rd, pair, new_index=new_index)
    assert hat.cartan.indices == (1, new_index)
    assert hat.root(new_index) == (-1, 1, 1)
    assert hat.root(1) == rd.root(1)
    emb = weyl_embedding(rd, pair, new_index)
    assert emb.merged == new_index
    assert emb.verify() == {"finite_type": True, "order": 6,
                            "homomorphism": True, "injective": True}


def test_weyl_embedding_verify_rejects_wrong_image():
    rd = simply_connected_datum(A3)
    emb = weyl_embedding(rd, ContractiblePair(2, 3))
    # s_3 commutes with s_1, so (s_1 s_3)^3 = s_1 s_3 breaks the A2 relation
    emb.generator_images[emb.merged] = simple_reflection(rd, 3)
    assert emb.verify()["homomorphism"] is False


def test_weyl_embedding_infinite_branch():
    # contracting one bond of the affine 3-cycle gives the A1(1) shape
    cyc = simply_laced_cartan((0, 1, 2), [(0, 1), (1, 2), (2, 0)])
    rd = simply_connected_datum(cyc)
    emb = weyl_embedding(rd, ContractiblePair(1, 2))
    assert not emb.contracted.cartan.is_finite_type()
    report = emb.verify(word_bound=4)
    assert report["homomorphism"] and report["injective"]


def test_roots_counts_and_symmetry():
    rd = simply_connected_datum(A2)
    roots = enumerate_roots(rd)
    assert len(roots) == 6
    assert len(positive_roots(rd)) == 3
    assert all(tuple(-x for x in r) in roots for r in roots)
    rd3 = simply_connected_datum(A3)
    assert len(enumerate_roots(rd3)) == 12
    assert len(positive_roots(rd3)) == 6
    rd4 = simply_connected_datum(D4)
    assert len(enumerate_roots(rd4)) == 24


def test_contracted_positive_roots_included():
    rd = simply_connected_datum(A3)
    hat = contract_root_datum(rd, ContractiblePair(2, 3))
    big = positive_roots(rd)
    small = positive_roots(hat)
    assert small == {(0, 1, 1), (1, 0, 0), (1, 1, 1)}
    assert small <= big


def test_affine_real_roots_height_bound():
    aff = CartanDatum((1, 2), ((2, -2), (-2, 2)))
    rd = simply_connected_datum(aff)
    with pytest.raises(ValueError):
        enumerate_roots(rd)
    roots = enumerate_roots(rd, height_bound=5)
    pos = positive_roots(rd, height_bound=5)
    assert pos == {(1, 0), (0, 1), (2, 1), (1, 2), (3, 2), (2, 3)}
    assert len(roots) == 12


def test_weyl_word_and_apply():
    rd = simply_connected_datum(A2)
    w0 = weyl_word(rd, (1, 2, 1))
    assert w0 == weyl_word(rd, (2, 1, 2))
    assert w0.apply((1, 0)) == (0, -1)
    assert w0.apply((0, 1)) == (-1, 0)


def test_json_roundtrip():
    data = A3.to_json()
    assert data["indices"] == [1, 2, 3]
    assert CartanDatum.from_json(data) == A3
    rd = simply_connected_datum(A2)
    js = rd.to_json()
    assert js["coroots_in_Y"]["1"] == [1, 0]
    assert js["roots_in_X"]["1"] == [2, -1]


def _pair_by_definition(rd, y, x):
    return sum(rd.pairing[a][b] * y[a] * x[b]
               for a in range(len(rd.pairing)) for b in range(len(rd.pairing[0])))


def test_pair_matches_the_double_sum():
    c3 = CartanDatum((1, 2, 3), ((2, -1, 0), (-1, 2, -2), (0, -2, 4)))
    # A2 on Y = X = Z^2 with the pairing ((1, 1), (0, 1)): coroots e_1, e_2
    # and roots P^-1 times the Cartan columns
    skew = RootDatum(A2, ((1, 1), (0, 1)), {1: (3, -1), 2: (-3, 2)},
                     {1: (1, 0), 2: (0, 1)})
    rng = random.Random(211)
    for rd in (simply_connected_datum(A3), simply_connected_datum(c3),
               contract_root_datum(simply_connected_datum(A3), ContractiblePair(2, 3)),
               skew):
        alg = UAlgebra(rd, 2)
        roots = [rd.root(i) for i in rd.cartan.indices]
        n = len(rd.pairing)
        for _ in range(40):
            y = tuple(rng.randint(-5, 5) for _ in range(n))
            x = tuple(rng.randint(-5, 5) for _ in range(n))
            assert rd.pair(y, x) == _pair_by_definition(rd, y, x)
            nu = tuple(rng.randint(0, 3) for _ in roots)
            wt = [sum(k * r[a] for k, r in zip(nu, roots)) for a in range(n)]
            assert alg.weight_pairing(y, nu) == _pair_by_definition(rd, y, wt)
        for i in rd.cartan.indices:
            for j in rd.cartan.indices:
                assert rd.pair(rd.coroot(i), rd.root(j)) == rd.cartan.cartan_entry(i, j)
