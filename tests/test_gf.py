import random

import pytest

from qcontract import _budget
from qcontract._gf import GF, gf, gl_order


def image_rank(F, A):
    """log_q of the number of distinct products A·x over all column vectors x."""
    ncols = len(A[0])
    images = {F.mat_mul(A, x) for x in F.all_matrices(ncols, 1)}
    k = 0
    while F.q ** k < len(images):
        k += 1
    assert F.q ** k == len(images)
    return k


@pytest.mark.parametrize("q", [2, 3, 4])
def test_mat_rank_matches_image_count(q):
    F = gf(q)
    for A in F.all_matrices(2, 2):
        assert F.mat_rank(A) == image_rank(F, A)
    rng = random.Random(q)
    for shape in ((2, 3), (3, 2), (3, 3), (1, 4)):
        for _ in range(20):
            A = tuple(tuple(rng.randrange(q) for _ in range(shape[1]))
                      for _ in range(shape[0]))
            assert F.mat_rank(A) == image_rank(F, A)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_mat_inv_on_every_2x2(q):
    F = gf(q)
    invertible = 0
    for A in F.all_matrices(2, 2):
        if F.mat_rank(A) < 2:
            with pytest.raises(ZeroDivisionError):
                F.mat_inv(A)
            continue
        invertible += 1
        inv = F.mat_inv(A)
        assert F.mat_mul(A, inv) == F.mat_id(2)
        assert F.mat_mul(inv, A) == F.mat_id(2)
    assert invertible == gl_order(2, q) == len(F.general_linear(2))


@pytest.mark.parametrize("q", [2, 3])
def test_general_linear_is_the_invertible_filter_in_order(q):
    F = gf(q)
    for n in range(4):
        want = [m for m in F.all_matrices(n, n) if F.is_invertible(m)]
        assert F.general_linear(n) == want
        assert len(want) == gl_order(n, q)


def _least_irreducible_monic(p, e):
    """Trial division: the first monic of degree e over F_p, in the order of
    its base-p code (low coefficients first), with no monic factor of degree
    1..e//2."""
    def digits(code, n):
        return [code // p ** i % p for i in range(n)]

    def divides(d, f):
        f = list(f)
        for i in range(len(f) - 1, len(d) - 2, -1):
            c = f[i]
            for j, x in enumerate(d):
                f[i - len(d) + 1 + j] = (f[i - len(d) + 1 + j] - c * x) % p
        return not any(f)

    for code in range(p ** e):
        f = digits(code, e) + [1]
        if not any(divides(digits(c, k) + [1], f)
                   for k in range(1, e // 2 + 1) for c in range(p ** k)):
            return f


@pytest.mark.parametrize("q", [2, 3, 5, 7, 4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121])
def test_modulus_is_the_least_irreducible_monic(q):
    F = gf(q)
    assert F.modulus == (None if F.e == 1 else _least_irreducible_monic(F.p, F.e))


def test_field_tables_are_charged_before_they_are_built(monkeypatch):
    calls = []
    for meth in ("_add_raw", "_mul_raw"):
        orig = getattr(GF, meth)
        monkeypatch.setattr(GF, meth, lambda self, a, b, _o=orig: calls.append(a) or _o(self, a, b))
    saved = _budget.active_budget()
    try:
        budget = _budget.set_budget(121 * 121 - 1)
        with pytest.raises(_budget.BudgetExceeded):
            GF(121)
        assert calls == [] and budget.used == 0
        # F_4: the add table, then x^2, x^2 + 1 and x^2 + x fail before x^2 + x + 1
        budget = _budget.set_budget(10 ** 6)
        GF(4)
        assert budget.used == 5 * 16
    finally:
        _budget.set_budget(saved.limit)


FIELDS = [2, 3, 4, 5, 8, 9, 121]


def _power(F, a, n):
    """a^n by repeated multiplication, independent of ``GF.pow``."""
    out = 1
    for _ in range(n):
        out = F.mul(out, a)
    return out


@pytest.mark.parametrize("q", FIELDS)
def test_field_axioms_and_frobenius_hypothesis(q):
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    F = gf(q)
    elem = st.integers(0, q - 1)

    @hyp.settings(max_examples=150, deadline=None, derandomize=True)
    @hyp.given(elem, elem, elem)
    def check(a, b, c):
        add, mul = F.add, F.mul
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
        assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
        assert add(a, F.neg(a)) == 0 and F.sub(add(a, b), b) == a
        if a:
            assert mul(a, F.inv(a)) == 1
        else:
            with pytest.raises(ZeroDivisionError):
                F.inv(a)
        if a and b:
            assert mul(a, b) != 0
        assert _power(F, a, q) == a
        frob = F.frobenius
        assert frob(a) == _power(F, a, F.p)
        assert frob(add(a, b)) == add(frob(a), frob(b))
        assert frob(mul(a, b)) == mul(frob(a), frob(b))

    check()


def test_mat_mul_keeps_the_rows_of_an_empty_product():
    # n x 0 times 0 x 0 is n x 0: n empty rows, not a matrix with no rows
    F = gf(2)
    assert F.mat_mul(((), ()), ()) == ((), ())
    assert F.mat_mul((), ()) == ()
    assert F.mat_mul((), ((1, 0), (0, 1))) == ()


@pytest.mark.parametrize("q", FIELDS)
def test_mat_mul_matches_the_naive_product_hypothesis(q):
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    F = gf(q)

    def naive(A, B):
        out = []
        for row in A:
            cells = []
            for c in range(len(B[0])):
                s = 0
                for t, a in enumerate(row):
                    s = F._add_raw(s, F._mul_raw(a, B[t][c]))
                cells.append(s)
            out.append(tuple(cells))
        return tuple(out)

    def mat(rows, cols):
        return st.lists(st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols)
                        .map(tuple), min_size=rows, max_size=rows).map(tuple)

    shapes = st.tuples(*(st.integers(1, 4),) * 3)

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(shapes.flatmap(lambda s: st.tuples(mat(s[0], s[1]), mat(s[1], s[2]))))
    def check(AB):
        A, B = AB
        assert F.mat_mul(A, B) == naive(A, B)

    check()
