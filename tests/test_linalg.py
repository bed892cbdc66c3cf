import random
from fractions import Fraction

import pytest

from qcontract._linalg import (dense, echelon_insert, echelon_reduce, nullspace,
                               rank, reduce_by_rows, rref, solve, solve_in_span,
                               transpose)
from qcontract.scalar import QV_ONE, QV_ZERO, QVScalar, v_power


def F(rows):
    return [[Fraction(x) for x in r] for r in rows]


def test_rref_and_rank_small():
    m, piv = rref(F([[1, 2, 3], [2, 4, 6], [1, 0, 1]]))
    assert piv == [0, 1]
    assert rank(F([[1, 2, 3], [2, 4, 6], [1, 0, 1]])) == 2
    assert rank([]) == 0
    assert rank(F([[0, 0], [0, 0]])) == 0


def test_nullspace_matches_rank():
    rng = random.Random(5)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = F([[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)])
        ns = nullspace(m, nc, Fraction(1))
        assert len(ns) == nc - rank(m)
        for vec in ns:
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_solve_consistent_and_not():
    a = F([[1, 1], [1, -1]])
    x = solve(a, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]
    bad = solve(F([[1, 1], [2, 2]]), [Fraction(1), Fraction(3)])
    assert bad is None
    under = solve(F([[1, 1]]), [Fraction(5)])
    assert under is not None
    assert under[0] + under[1] == 5


def test_over_qv_field():
    v = v_power(1)
    m = [[QV_ONE, v], [v, v * v]]
    assert rank(m) == 1
    ns = nullspace(m, 2, QV_ONE)
    assert len(ns) == 1
    assert ns[0][0] + v * ns[0][1] == QVScalar.from_rat(0)
    # row-span membership: a vector lies in the span iff it adds no rank
    assert rank(m + [[v, v * v]]) == rank(m)
    assert rank(m + [[QV_ONE, QV_ONE]]) == rank(m) + 1


# --- differential tests against a dense reference ----------------------------

def dense_rref(rows, ncols=None):
    """Textbook Gauss-Jordan over every cell of every row."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    if ncols is None:
        ncols = len(m[0])
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def dense_solve(rows, rhs, zero):
    n = len(rows[0])
    red, pivots = dense_rref([list(r) + [b] for r, b in zip(rows, rhs)], n + 1)
    if n in pivots:
        return None
    sol = [zero] * n
    for r, pc in enumerate(pivots):
        sol[pc] = red[r][n]
    return sol


def dense_nullspace(rows, ncols, one):
    zero = one - one
    red, pivots = dense_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = zero - red[r][fc]
        basis.append(vec)
    return basis


def random_fraction(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))


def random_qv(rng):
    num = v_power(rng.randint(-2, 2), rng.randint(-3, 3) or 1)
    if rng.random() < 0.5:
        num = num + v_power(rng.randint(-2, 2), rng.randint(1, 2))
    if rng.random() < 0.3:
        num = num / (QV_ONE + v_power(rng.randint(1, 2)))
    return num if num else QV_ONE


def sparse_matrix(rng, nrows, ncols, entry, zero, density=0.1):
    """A random sparse matrix with zero, duplicate and dependent rows mixed in."""
    m = [[entry(rng) if rng.random() < density else zero for _ in range(ncols)]
         for _ in range(nrows)]
    for i in range(nrows):
        roll = rng.random()
        if i and roll < 0.15:
            m[i] = list(m[rng.randrange(i)])
        elif i > 1 and roll < 0.3:
            a, b = rng.sample(range(i), 2)
            fa, fb = entry(rng), entry(rng)
            m[i] = [fa * x + fb * y for x, y in zip(m[a], m[b])]
        elif roll < 0.4:
            m[i] = [zero] * ncols
    return m


def assert_matches_dense(m, zero, one, narrow):
    snapshot = [list(r) for r in m]
    ncols = len(m[0])
    assert rref(m) == dense_rref(m)
    assert rank(m) == len(dense_rref(m)[1])
    assert rref(m, narrow) == dense_rref(m, narrow)
    assert nullspace(m, ncols, one) == dense_nullspace(m, ncols, one)
    rhs = [row[-1] for row in m]
    assert solve([row[:-1] for row in m], rhs) == dense_solve([row[:-1] for row in m], rhs, zero)
    assert m == snapshot


@pytest.mark.parametrize("seed", range(6))
def test_rref_matches_dense_over_fractions(seed):
    rng = random.Random(seed)
    zero, one = Fraction(0), Fraction(1)
    for _ in range(8):
        nrows, ncols = rng.randint(1, 30), rng.randint(2, 30)
        m = sparse_matrix(rng, nrows, ncols, random_fraction, zero,
                          density=rng.choice([0.1, 0.1, 0.3]))
        assert_matches_dense(m, zero, one, rng.randint(0, ncols))


@pytest.mark.parametrize("seed", range(3))
def test_rref_matches_dense_over_qv(seed):
    rng = random.Random(100 + seed)
    for _ in range(4):
        nrows, ncols = rng.randint(1, 10), rng.randint(2, 12)
        m = sparse_matrix(rng, nrows, ncols, random_qv, QV_ZERO, density=0.25)
        assert_matches_dense(m, QV_ZERO, QV_ONE, rng.randint(0, ncols))


def test_rref_reduces_columns_past_ncols():
    m = F([[1, 2, 3, 4], [2, 4, 7, 9], [0, 0, 0, 5]])
    red, pivots = rref(m, 2)
    assert pivots == [0]
    assert red == F([[1, 2, 3, 4], [0, 0, 1, 1], [0, 0, 0, 5]])
    assert (red, pivots) == dense_rref(m, 2)


def test_rref_matches_dense_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    entry = st.tuples(st.integers(0, 9), st.fractions(-5, 5, max_denominator=4)).map(
        lambda t: t[1] if t[0] == 0 else Fraction(0))

    @st.composite
    def case(draw):
        nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(2, 12))
        rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
        extra = draw(st.lists(st.integers(0, nrows - 1), max_size=3))
        return rows + [list(rows[i]) for i in extra], draw(st.integers(0, ncols))

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(case())
    def check(arg):
        m, narrow = arg
        assert_matches_dense(m, Fraction(0), Fraction(1), narrow)

    check()


def assert_echelon_matches_dense(m):
    """Rows fed one at a time into a sparse echelon set, keyed so that column
    c is key ncols - 1 - c (columns in descending key order), reduce to the
    dense rref: leads are the pivots, tails the negated non-pivot entries."""
    ncols = len(m[0])
    rules = {}
    added = [echelon_insert(rules, {ncols - 1 - c: x for c, x in enumerate(row) if x})
             for row in m]
    ranks = [len(dense_rref(m[:i])[1]) for i in range(len(m) + 1)]
    assert added == [ranks[i + 1] > ranks[i] for i in range(len(m))]
    echelon_reduce(rules)
    red, pivots = dense_rref(m)
    assert sorted(rules, reverse=True) == [ncols - 1 - c for c in pivots]
    for r, c in enumerate(pivots):
        assert rules[ncols - 1 - c] == {ncols - 1 - k: -red[r][k]
                                        for k in range(ncols) if k != c and red[r][k]}


@pytest.mark.parametrize("seed", range(6))
def test_sparse_echelon_matches_dense_over_fractions(seed):
    rng = random.Random(200 + seed)
    for _ in range(8):
        nrows, ncols = rng.randint(1, 25), rng.randint(2, 25)
        assert_echelon_matches_dense(sparse_matrix(
            rng, nrows, ncols, random_fraction, Fraction(0),
            density=rng.choice([0.1, 0.2, 0.4])))


@pytest.mark.parametrize("seed", range(2))
def test_sparse_echelon_matches_dense_over_qv(seed):
    rng = random.Random(300 + seed)
    for _ in range(3):
        nrows, ncols = rng.randint(1, 8), rng.randint(2, 10)
        assert_echelon_matches_dense(sparse_matrix(rng, nrows, ncols, random_qv,
                                                   QV_ZERO, density=0.3))


# --- layout and reduction helpers against the dense reference ----------------

def dense_residual(red, pivots, vec):
    """vec minus the combination of rref rows matching it on pivot columns."""
    out = list(vec)
    for r, pc in enumerate(pivots):
        c = vec[pc]
        for k in range(len(out)):
            out[k] = out[k] - c * red[r][k]
    return out


def semi_echelon(vecs):
    """A basis grown one reduced row at a time, each row scaled to 1 at its
    first nonzero column but never cleared above (the shape psi_tensor_check
    builds)."""
    rows, pivots = [], []
    for vec in vecs:
        row = reduce_by_rows(rows, pivots, vec)
        pc = next((k for k, x in enumerate(row) if x), None)
        if pc is not None:
            rows.append([x / row[pc] for x in row])
            pivots.append(pc)
    return rows, pivots


@pytest.mark.parametrize("seed", range(4))
def test_dense_and_transpose(seed):
    rng = random.Random(200 + seed)
    zero = Fraction(0)
    vecs = [{(rng.randint(0, 4), rng.choice("ab")): random_fraction(rng)
             for _ in range(rng.randint(0, 5))} for _ in range(rng.randint(1, 8))]
    keys = sorted(set().union(*vecs))
    rows = dense(vecs, zero)
    assert len(rows) == len(vecs)
    for vec, row in zip(vecs, rows):
        assert len(row) == len(keys)
        assert {k: x for k, x in zip(keys, row) if x} == vec
    cols = transpose(rows)
    assert all(cols[j][i] == rows[i][j]
               for i in range(len(rows)) for j in range(len(keys)))
    assert transpose(cols) == (rows if keys else [])
    assert dense([], zero) == []


@pytest.mark.parametrize("seed", range(4))
def test_solve_in_span_matches_dense(seed):
    rng = random.Random(300 + seed)
    zero = Fraction(0)
    for _ in range(10):
        n, dim = rng.randint(1, 10), rng.randint(1, 10)
        vecs = sparse_matrix(rng, n, dim, random_fraction, zero, density=0.3)
        if rng.random() < 0.5:
            coeffs = [random_fraction(rng) for _ in range(n)]
            target = [sum((c * v[k] for c, v in zip(coeffs, vecs)), zero)
                      for k in range(dim)]
        else:
            target = [random_fraction(rng) if rng.random() < 0.4 else zero
                      for _ in range(dim)]
        mat = [[vecs[c][r] for c in range(n)] for r in range(dim)]
        got = solve_in_span(vecs, target)
        assert got == dense_solve(mat, target, zero)
        if got is not None:
            assert [sum((c * v[k] for c, v in zip(got, vecs)), zero)
                    for k in range(dim)] == target
    assert solve_in_span([], [zero, zero]) == []
    assert solve_in_span([], [zero, Fraction(1)]) is None


@pytest.mark.parametrize("entries", ["fraction", "qv"])
@pytest.mark.parametrize("seed", range(3))
def test_reduce_by_rows_matches_dense(entries, seed):
    rng = random.Random(400 + seed)
    entry, zero, one = ((random_fraction, Fraction(0), Fraction(1))
                        if entries == "fraction" else (random_qv, QV_ZERO, QV_ONE))
    for _ in range(6):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 9)
        m = sparse_matrix(rng, nrows, ncols, entry, zero, density=0.3)
        red, pivots = dense_rref(m)
        semi, semi_pivots = semi_echelon(m)
        assert sorted(semi_pivots) == pivots
        for k, (row, pc) in enumerate(zip(semi, semi_pivots)):
            assert row[pc] == one
            assert not any(row[q] for q in semi_pivots[:k])
        for _ in range(4):
            vec = [entry(rng) if rng.random() < 0.5 else zero for _ in range(ncols)]
            if rng.random() < 0.3:
                vec = [a + b for a, b in zip(vec, m[rng.randrange(nrows)])]
            want = dense_residual(red, pivots, vec)
            assert reduce_by_rows(red, pivots, vec) == want
            assert reduce_by_rows(semi, semi_pivots, vec) == want
            assert all(not want[pc] for pc in pivots)
            in_span = len(dense_rref(m + [vec])[1]) == len(pivots)
            assert in_span == (not any(want))
