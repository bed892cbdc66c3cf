import random
from fractions import Fraction

import pytest

from dense_reference import (dense, dense_nullspace, dense_rank, dense_residual,
                             dense_rref, dense_solve, sparse, transpose)
from qcontract import scalar
from qcontract._linalg import (echelon_extend, echelon_insert, echelon_reduce,
                               nullspace, rank, residue, rref, solve)
from qcontract.scalar import QV_ONE, QV_ZERO, QVScalar, v_power


def F(rows):
    return [[Fraction(x) for x in r] for r in rows]


def rows_of(m):
    """Dense rows as sparse ones, column c keyed -c: leads are the leftmost
    columns, as the pivots of dense elimination are."""
    return [{-c: x for c, x in enumerate(row) if x} for row in m]


def cols_of(m):
    """The columns of a dense matrix as sparse vectors keyed by row."""
    return [{r: row[c] for r, row in enumerate(m) if row[c]} for c in range(len(m[0]))]


def rules_of(red, pivots):
    """Dense rref rows as the echelon rules of ``rows_of``: each lead is a
    pivot, its tail the negated non-pivot entries."""
    return {-c: {-k: -x for k, x in enumerate(red[r]) if k != c and x}
            for r, c in enumerate(pivots)}


def test_rref_and_rank_small():
    m = F([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rref(rows_of(m)) == {0: {-2: Fraction(-1)}, -1: {-2: Fraction(-1)}}
    assert rank(rows_of(m)) == 2
    assert rank([]) == 0
    assert rank(rows_of(F([[0, 0], [0, 0]]))) == 0
    assert rref([]) == {}


def test_nullspace_matches_rank():
    rng = random.Random(5)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = F([[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)])
        ns = nullspace(cols_of(m), Fraction(1))
        assert len(ns) == nc - rank(rows_of(m))
        for vec in ns:
            for row in m:
                assert sum(row[j] * x for j, x in vec.items()) == 0


def test_solve_consistent_and_not():
    a = F([[1, 1], [1, -1]])
    assert solve(cols_of(a), {0: Fraction(3), 1: Fraction(1)}, Fraction(1)) == \
        ({0: Fraction(2), 1: Fraction(1)}, [0, 1])
    bad, pivots = solve(cols_of(F([[1, 1], [2, 2]])), {0: Fraction(1), 1: Fraction(3)},
                        Fraction(1))
    assert bad is None and pivots == [0]
    under, pivots = solve(cols_of(F([[1, 1]])), {0: Fraction(5)}, Fraction(1))
    assert under == {0: Fraction(5)} and pivots == [0]


def test_over_qv_field():
    v = v_power(1)
    m = [[QV_ONE, v], [v, v * v]]
    assert rank(rows_of(m)) == 1
    ns = nullspace(cols_of(m), QV_ONE)
    assert len(ns) == 1
    assert ns[0][0] + v * ns[0][1] == QVScalar.from_rat(0)
    # row-span membership: a vector lies in the span iff it adds no rank
    assert rank(rows_of(m + [[v, v * v]])) == rank(rows_of(m))
    assert rank(rows_of(m + [[QV_ONE, QV_ONE]])) == rank(rows_of(m)) + 1


# --- differential tests against the dense reference --------------------------

def random_fraction(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))


def random_qv(rng):
    num = v_power(rng.randint(-2, 2), rng.randint(-3, 3) or 1)
    if rng.random() < 0.5:
        num = num + v_power(rng.randint(-2, 2), rng.randint(1, 2))
    if rng.random() < 0.3:
        num = num / (QV_ONE + v_power(rng.randint(1, 2)))
    return num if num else QV_ONE


FIELDS = {"fraction": (random_fraction, Fraction(0), Fraction(1)),
          "qv": (random_qv, QV_ZERO, QV_ONE)}


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
    red, pivots = dense_rref(m)
    rows, cols = rows_of(m), cols_of(m)
    assert rref(rows) == rules_of(red, pivots)
    assert rank(rows) == len(pivots) == rank(cols)
    assert nullspace(cols, one) == [sparse(vec) for vec in dense_nullspace(m, ncols, one)]
    # the solve's pivots are the dense ones, so those below narrow count the
    # rank of the first narrow columns
    _, all_pivots = solve(cols, {}, one)
    assert all_pivots == pivots
    assert [j for j in all_pivots if j < narrow] == dense_rref(m, narrow)[1]
    rhs = [row[-1] for row in m]
    want = dense_solve([row[:-1] for row in m], rhs, zero)
    got, _ = solve(cols[:-1], cols[-1], one)
    assert got == (None if want is None else sparse(want))
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

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
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


# --- rows whose pivot is not a monomial wait ---------------------------------

TWO = v_power(1) + v_power(-1)      # [2], the pivot Serre rows wait on


def rules_added(rows):
    """echelon_extend fed one row at a time: how many rules each row had
    added by the time the next was asked for, and the final rules."""
    rules, added = {}, []

    def fed():
        for row in rows:
            before = len(rules)
            yield row
            added.append(len(rules) - before)

    echelon_extend(rules, fed())
    return added, rules


def test_waiting_residues_sharing_a_lead_keep_both_rules():
    # both [2]-led rows wait on column 0; the second's residue, reduced by
    # the first's rule, leads at column 2, so no rule overwrites another
    m = [[TWO, QV_ONE, QV_ZERO, QV_ONE],
         [TWO, QV_ZERO, QV_ONE, QV_ZERO],
         [QV_ZERO, QV_ONE, v_power(1), QV_ZERO]]
    added, rules = rules_added(rows_of(m))
    assert added == [0, 0, 1]
    red, pivots = dense_rref(m)
    assert rules == rules_of(red, pivots) and len(pivots) == 3
    assert_matches_dense(m, QV_ZERO, QV_ONE, 2)
    assert_echelon_matches_dense(m)


def test_waiting_pivot_divides_late(monkeypatch):
    # [2] divides the waiting row only once its tail is reduced, where it
    # divides exactly, so no fraction is put into canonical form; inserted
    # in order, its rule holds -1/[2] until the reduction cancels it
    m = [[TWO, QV_ONE, QV_ZERO], [QV_ZERO, QV_ONE, TWO]]
    red, pivots = dense_rref(m)
    calls = []
    plain = scalar._canonical_fraction
    monkeypatch.setattr(scalar, "_canonical_fraction",
                        lambda num, den: calls.append(1) or plain(num, den))
    assert rref(rows_of(m)) == rules_of(red, pivots)
    late = len(calls)
    in_order = {}
    for row in rows_of(m):
        echelon_insert(in_order, row)
    echelon_reduce(in_order)
    assert in_order == rules_of(red, pivots)
    assert late == 0 < len(calls) - late
    monkeypatch.undo()
    assert all(x.is_laurent() for tail in in_order.values() for x in tail.values())
    # a pivot that does not divide its row leaves a fraction in the rules
    m = [[TWO, QV_ONE, v_power(2)], [QV_ZERO, QV_ONE, QV_ONE]]
    red, pivots = dense_rref(m)
    rules = rref(rows_of(m))
    assert rules == rules_of(red, pivots)
    assert not all(x.is_laurent() for tail in rules.values() for x in tail.values())
    assert_matches_dense(m, QV_ZERO, QV_ONE, 1)
    assert_echelon_matches_dense(m)


def test_fraction_rows_never_wait():
    m = F([[2, 1, 0], [2, 0, 1], [0, 3, 1], [4, 1, 1]])
    added, rules = rules_added(rows_of(m))
    assert added == [1, 1, 1, 0]
    red, pivots = dense_rref(m)
    assert rules == rules_of(red, pivots)


# --- keyed vectors, solving and reduction against the dense reference --------

@pytest.mark.parametrize("seed", range(4))
def test_dense_and_transpose(seed):
    # the reference layout, and the sparse rank of vectors with tuple keys
    # against the dense rank of that layout and of its transpose
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
    assert rank(vecs) == dense_rank(rows) == dense_rank(cols)


@pytest.mark.parametrize("seed", range(4))
def test_solve_in_span_matches_dense(seed):
    rng = random.Random(300 + seed)
    zero, one = Fraction(0), Fraction(1)
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
        want = dense_solve(transpose(vecs), target, zero)
        got, _ = solve([sparse(v) for v in vecs], sparse(target), one)
        assert got == (None if want is None else sparse(want))
        if got is not None:
            assert [sum((c * vecs[j][k] for j, c in got.items()), zero)
                    for k in range(dim)] == target
    assert solve([], {}, one) == ({}, [])
    assert solve([], {1: one}, one) == (None, [])


@pytest.mark.parametrize("entries", ["fraction", "qv"])
@pytest.mark.parametrize("seed", range(3))
def test_tagged_solve_matches_dense(entries, seed):
    # columns with duplicates, combinations and zeros among them, against
    # consistent and inconsistent right-hand sides
    rng = random.Random(500 + seed)
    entry, zero, one = FIELDS[entries]
    outcomes = set()
    for _ in range(8):
        n, dim = rng.randint(1, 9), rng.randint(1, 8)
        vecs = sparse_matrix(rng, n, dim, entry, zero, density=0.35)
        if rng.random() < 0.5:
            coeffs = [entry(rng) for _ in range(n)]
            target = [sum((c * v[k] for c, v in zip(coeffs, vecs)), zero)
                      for k in range(dim)]
        else:
            target = [entry(rng) if rng.random() < 0.4 else zero for _ in range(dim)]
        mat = transpose(vecs)
        want = dense_solve(mat, target, zero)
        got, pivots = solve([sparse(v) for v in vecs], sparse(target), one)
        outcomes.add(want is None)
        if want is None:
            assert got is None
        else:
            assert got == sparse(want)
            assert set(got) <= set(pivots)     # the free variables are zero
        for k in range(n + 1):
            assert sum(j < k for j in pivots) == len(dense_rref(mat, k)[1])
    assert outcomes == {True, False}
    assert solve([], {}, one) == ({}, [])
    assert solve([], {0: one}, one) == (None, [])


@pytest.mark.parametrize("entries", ["fraction", "qv"])
@pytest.mark.parametrize("seed", range(3))
def test_reduce_by_rows_matches_dense(entries, seed):
    # the residue by reduced rules, and by rules grown one row at a time and
    # never reduced (the shape psi_tensor_check builds), is the dense one
    rng = random.Random(400 + seed)
    entry, zero, one = FIELDS[entries]
    for _ in range(6):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 9)
        m = sparse_matrix(rng, nrows, ncols, entry, zero, density=0.3)
        red, pivots = dense_rref(m)
        reduced = rref(rows_of(m))
        semi = {}
        for row in rows_of(m):
            echelon_insert(semi, row)
        assert sorted(semi) == sorted(reduced) == sorted(-c for c in pivots)
        for _ in range(4):
            vec = [entry(rng) if rng.random() < 0.5 else zero for _ in range(ncols)]
            if rng.random() < 0.3:
                vec = [a + b for a, b in zip(vec, m[rng.randrange(nrows)])]
            want = rows_of([dense_residual(red, pivots, vec)])[0]
            got = residue(reduced, rows_of([vec])[0])
            assert got == want == residue(semi, rows_of([vec])[0])
            assert list(got) == sorted(got, reverse=True)
            assert not any(-pc in got for pc in pivots)
            in_span = len(dense_rref(m + [vec])[1]) == len(pivots)
            assert in_span == (not got)
