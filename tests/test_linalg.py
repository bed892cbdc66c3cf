import random
from fractions import Fraction

import pytest

from qcontract._linalg import nullspace, rank, rref, solve
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
