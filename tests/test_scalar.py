import operator
import random
from fractions import Fraction

import pytest

from qcontract import scalar
from qcontract.scalar import (
    LaurentPoly, QVScalar, QV_ONE, QV_V, QV_ZERO, bar,
    degree_at_infinity, in_one_plus_vinv,
    in_regular_at_infinity, parse_scalar, quantum_binomial,
    quantum_factorial, quantum_integer, render_scalar, v_power,
)


def L(coeffs):
    return QVScalar(LaurentPoly(coeffs))


def rand_scalar(rng, maxdeg=4):
    def rand_poly():
        return LaurentPoly({rng.randint(-maxdeg, maxdeg): rng.randint(-5, 5)
                            for _ in range(rng.randint(0, 4))})
    num = rand_poly()
    den = rand_poly()
    while den.is_zero():
        den = rand_poly()
    return QVScalar(num, den)


def test_quantum_integers_pinned():
    assert quantum_integer(2, 1) == L({1: 1, -1: 1})
    assert quantum_integer(0, 1) == QV_ZERO
    assert quantum_integer(1, 3) == QV_ONE
    assert quantum_integer(3, 2) == L({4: 1, 0: 1, -4: 1})
    with pytest.raises(ValueError):
        quantum_integer(-1, 1)


def test_quantum_factorial_and_binomial_pinned():
    assert quantum_factorial(0, 1) == QV_ONE
    assert quantum_factorial(1, 1) == QV_ONE
    assert quantum_factorial(3, 1) == quantum_integer(2, 1) * quantum_integer(3, 1)
    assert quantum_binomial(2, 1, 1) == L({1: 1, -1: 1})
    assert quantum_binomial(4, 2, 1) == L({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert quantum_binomial(5, 0, 2) == QV_ONE
    with pytest.raises(ValueError):
        quantum_binomial(2, 3, 1)


def test_quantum_binomial_recurrence():
    # [b choose a] = v^a [b-1 choose a] + v^(a-b) [b-1 choose a-1]
    for b in range(1, 7):
        for a in range(1, b):
            lhs = quantum_binomial(b, a, 1)
            rhs = v_power(a) * quantum_binomial(b - 1, a, 1) \
                + v_power(a - b) * quantum_binomial(b - 1, a - 1, 1)
            assert lhs == rhs


def test_quantum_binomial_matches_the_factorial_quotient():
    # the q-Pascal rule builds [b, a] as a Laurent polynomial, no fraction
    for k in (1, 2, 3):
        for b in range(7):
            for a in range(b + 1):
                want = quantum_factorial(b, k) / (
                    quantum_factorial(a, k) * quantum_factorial(b - a, k))
                _assert_same_form(quantum_binomial(b, a, k), want)
    with pytest.raises(ValueError):
        quantum_binomial(2, 1, 0)


def test_quantum_binomial_bar_invariant():
    for b in range(0, 9):
        for a in range(0, b + 1):
            for k in (1, 2, 3):
                x = quantum_binomial(b, a, k)
                assert bar(x) == x


def test_canonical_form_shape():
    rng = random.Random(7)
    for _ in range(300):
        x = rand_scalar(rng)
        den = x.den
        assert den.low() == 0 or den.coeffs == {0: 1}
        assert den.coeff(0) != 0
        assert den.coeffs[den.degree()] > 0
        if not x.is_laurent():
            # den primitive over Z
            fracs = [Fraction(c) for c in den.coeffs.values()]
            assert all(f.denominator == 1 for f in fracs)


def test_laurent_integer_coefficients_stay_ints():
    half = LaurentPoly({0: Fraction(1, 2), 1: Fraction(1, 3)})
    prod = half * LaurentPoly({0: 6})
    assert prod.coeffs == {0: 3, 1: 2}
    assert all(type(c) is int for c in prod.coeffs.values())
    assert type((LaurentPoly({0: Fraction(1, 2)}) * LaurentPoly({0: 2})).coeff(0)) is int
    total = half + LaurentPoly({0: Fraction(1, 2), 1: Fraction(2, 3), 2: 5})
    assert total.coeffs == {0: 1, 1: 1, 2: 5}
    assert all(type(c) is int for c in total.coeffs.values())
    # a non-integral sum or product keeps its Fraction
    assert (half + LaurentPoly({0: 1})).coeff(0) == Fraction(3, 2)
    assert (half * half).coeff(1) == Fraction(1, 3)


def test_canonical_equality_across_routes():
    a = L({1: 1, -1: 1})
    b = (v_power(2) + QV_ONE) / QV_V
    assert a == b and hash(a) == hash(b)
    c = (v_power(2) - QV_ONE) / (QV_V - v_power(-1))
    assert c == QV_V
    d = QV_ONE / (QV_ONE - v_power(-2))
    e = v_power(2) / (v_power(2) - QV_ONE)
    assert d == e and hash(d) == hash(e)


def test_field_axioms_random():
    rng = random.Random(11)
    for _ in range(120):
        x, y, z = (rand_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        assert x + QV_ZERO == x
        assert x * QV_ONE == x
        if x:
            assert x * (QV_ONE / x) == QV_ONE
        assert x - x == QV_ZERO


def test_bar_is_involution_and_homomorphism():
    rng = random.Random(13)
    for _ in range(200):
        x, y = rand_scalar(rng), rand_scalar(rng)
        assert bar(bar(x)) == x
        assert bar(x + y) == bar(x) + bar(y)
        assert bar(x * y) == bar(x) * bar(y)
    assert bar(QV_V) == v_power(-1)
    assert bar(L({3: 2, 0: -1})) == L({-3: 2, 0: -1})


def test_pow_and_division():
    x = QV_V + QV_ONE
    assert x ** 0 == QV_ONE
    assert x ** 3 == x * x * x
    assert x ** -2 == QV_ONE / (x * x)
    with pytest.raises(ZeroDivisionError):
        QV_ONE / QV_ZERO


def test_foreign_operands_raise_type_error_on_both_sides():
    two = scalar.qv(2)
    for other in (0.5, "a"):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(two, other)
            with pytest.raises(TypeError):
                op(other, two)
    assert 1 - two == scalar.qv(-1)
    assert 1 / two == scalar.qv(Fraction(1, 2))


def test_regular_at_infinity_membership():
    assert in_regular_at_infinity(QV_ZERO)
    assert in_regular_at_infinity(v_power(-2) + QV_ONE)
    assert not in_regular_at_infinity(QV_V)
    f = QV_ONE / (QV_ONE - v_power(-2))
    assert in_regular_at_infinity(f)
    assert in_one_plus_vinv(f + v_power(-5))
    assert not in_one_plus_vinv(f + QV_ONE)
    assert not in_one_plus_vinv(QV_ZERO)
    assert degree_at_infinity(QV_V + QV_ONE) == 1


def test_render_parse_roundtrip():
    rng = random.Random(23)
    for _ in range(200):
        x = rand_scalar(rng)
        assert parse_scalar(render_scalar(x)) == x
    assert render_scalar(L({2: 3, -1: -1, 0: Fraction(1, 2)})) == "3*v^2 + 1/2 - v^-1"
    assert parse_scalar("3*v^2 - v^-1 + 1/2") == L({2: 3, -1: -1, 0: Fraction(1, 2)})
    assert render_scalar(QV_ZERO) == "0"
    assert parse_scalar("(1 - v^-2)^2") == (QV_ONE - v_power(-2)) ** 2
    with pytest.raises(ValueError):
        parse_scalar("v +")
    with pytest.raises(ValueError):
        parse_scalar("w")


# --- oracles: sympy, hypothesis, and the Euclid fallback --------------------

# Factors shared by numerator and denominator: cyclotomic polynomials and
# products of them, as quantum integers produce, plus non-unit contents.
_SHARED = [{1: 1, 0: 1}, {2: 1, 0: 1}, {2: 1, 1: 1, 0: 1}, {2: 1, 1: -1, 0: 1},
           {4: 1, 3: 1, 2: 1, 1: 1, 0: 1}, {2: 1, 0: -1}, {4: 1, 2: 1, 0: 1},
           {1: 3, 0: -2}, {0: 6}, {0: Fraction(3, 4)}]


def _rand_fraction(rng):
    """(num, den) Laurent polynomials with a random shared factor."""
    def poly(nterms):
        return LaurentPoly({rng.randint(-3, 5): rng.choice(
            [rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 8)),
             rng.randint(-10 ** 6, 10 ** 6)]) for _ in range(nterms)})
    num, den = poly(rng.randint(1, 4)), poly(rng.randint(1, 4))
    while den.is_zero():
        den = poly(rng.randint(1, 4))
    for _ in range(rng.randint(0, 3)):
        h = LaurentPoly(rng.choice(_SHARED)).shift(rng.randint(-2, 2))
        num, den = num * h, den * h
    return num, den


def _assert_sympy_canonical(sp, v, num, den, x):
    """x is num/den in the canonical form built from sympy.cancel: the
    reduced denominator stripped of its power of v, made primitive over Z
    with positive lead, and the numerator that goes with it."""
    def expr(p):
        return sum((sp.Rational(c.numerator, c.denominator) * v ** e
                    for e, c in p.coeffs.items()), sp.Integer(0))
    n, d = sp.fraction(sp.cancel(expr(num) / expr(den)))
    low = min(m[0] for m in sp.Poly(d, v).monoms())
    _, dp = sp.Poly(sp.expand(d / v ** low), v).primitive()
    want_den = (dp if dp.LC() > 0 else -dp).as_expr()
    want_num = sp.expand(sp.cancel(n / d * want_den))
    assert sp.expand(expr(x.den) - want_den) == 0, (num, den, x)
    assert sp.expand(expr(x.num) - want_num) == 0, (num, den, x)


def test_canonical_form_matches_sympy_cancel():
    sp = pytest.importorskip("sympy")
    v = sp.Symbol("v")
    rng = random.Random(2308)
    for _ in range(100):
        num, den = _rand_fraction(rng)
        x = QVScalar(num, den)
        _assert_sympy_canonical(sp, v, num, den, x)
        assert all(isinstance(c, int) for c in x.den.coeffs.values())


def test_field_axioms_and_bar_hypothesis():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coeff = st.integers(-20, 20) | st.fractions(min_value=-5, max_value=5,
                                                max_denominator=6)
    poly = st.dictionaries(st.integers(-4, 4), coeff, max_size=4).map(LaurentPoly)
    scalars = st.tuples(poly, poly.filter(bool)).map(lambda nd: QVScalar(*nd))

    @hyp.settings(max_examples=80, deadline=None, derandomize=True)
    @hyp.given(scalars, scalars, scalars)
    def check(x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x
        assert x - x == QV_ZERO and x * QV_ONE == x
        if x:
            assert x * (QV_ONE / x) == QV_ONE
        assert bar(bar(x)) == x
        assert bar(x + y) == bar(x) + bar(y)
        assert bar(x * y) == bar(x) * bar(y)
        assert hash(x * y) == hash(y * x)

    check()


def test_heuristic_gcd_equals_euclid():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    big = st.integers(-10 ** 40, 10 ** 40)
    poly = st.lists(big, min_size=1, max_size=6).map(lambda a: [1] + a)

    def lp(a):
        return LaurentPoly(dict(enumerate(a)))

    def prim(p):
        return scalar._int_form(p.coeffs, 0)[2]

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    @hyp.settings(max_examples=120, deadline=None, derandomize=True)
    @hyp.given(poly, poly, poly)
    def check(f, g, h):
        a, b = prim(lp(mul(f, h))), prim(lp(mul(g, h)))
        heu = scalar._heu_gcd(a, b)
        hyp.assume(heu is not None)
        g_heu, qa, qb = heu
        assert g_heu == prim(scalar._poly_gcd(lp(a), lp(b)))
        assert mul(g_heu, qa) == a and mul(g_heu, qb) == b

    check()


def test_euclid_fallback_gives_same_canonical_form(monkeypatch):
    sp = pytest.importorskip("sympy")
    v = sp.Symbol("v")
    rng = random.Random(1989)
    cases = [_rand_fraction(rng) for _ in range(60)]
    divmods = []
    divmod0 = scalar._poly_divmod

    def counted(a, b):
        divmods.append(1)
        return divmod0(a, b)

    monkeypatch.setattr(scalar, "_poly_divmod", counted)
    heuristic = [QVScalar(num, den) for num, den in cases]
    assert not divmods, "Euclid ran although the heuristic gcd succeeded"
    monkeypatch.setattr(scalar, "_heu_gcd", lambda a, b: None)
    for (num, den), x in zip(cases, heuristic):
        y = QVScalar(num, den)
        assert (y.num.coeffs, y.den.coeffs) == (x.num.coeffs, x.den.coeffs)
        _assert_sympy_canonical(sp, v, num, den, y)
    assert divmods


def test_constant_hashes_as_the_rational_it_equals():
    two = QVScalar(LaurentPoly({1: 2, 0: 2}), LaurentPoly({1: 1, 0: 1}))
    assert two == 2 and hash(two) == hash(2)
    assert len({QVScalar.from_rat(2), 2, Fraction(2), two}) == 1
    for c in (0, -3, Fraction(1, 2), Fraction(-7, 3)):
        x = QVScalar(LaurentPoly({0: c}))
        seen = {c: "rational"}
        seen[x] = "scalar"
        assert seen == {c: "scalar"} and len({x, c}) == 1
    assert len({QV_V, 1, QV_ONE / (QV_ONE + QV_V), QV_ZERO, 0}) == 4


# --- fast paths against the canonicalising constructor -----------------------

def _naive_mul(p, q):
    out = {}
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + Fraction(c1) * c2
    return LaurentPoly(out)


def _naive_add(p, q):
    out = dict(p.coeffs)
    for e, c in q.coeffs.items():
        out[e] = out.get(e, 0) + Fraction(c)
    return LaurentPoly(out)


def _assert_same_form(got, want):
    """Equal numerators and denominators, every integral coefficient an int,
    and a denominator 1 held as the shared object."""
    assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)
    for c in (*got.num.coeffs.values(), *got.den.coeffs.values()):
        assert type(c) is int or c.denominator != 1, (got, c)
    assert (got.den is scalar._L_ONE) == got.is_laurent()


def _assert_same_scaled_row(c, vec, row):
    """The elimination kernel's row step vec += c * row against the sum
    a + c * x per entry: the same keys, each entry in the same form."""
    vec = {k: x for k, x in vec.items() if x}
    row = {k: x for k, x in row.items() if x}
    want = dict(vec)
    for k, x in row.items():
        s = want.get(k, QVScalar(LaurentPoly())) + c * x
        if s:
            want[k] = s
        else:
            del want[k]
    QVScalar.add_scaled_row(vec, c, row)
    assert vec.keys() == want.keys()
    for k, x in want.items():
        _assert_same_form(vec[k], x)


def test_fast_paths_match_the_constructor_hypothesis():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # Fraction coefficients whose products and sums are often integral
    rat = (st.integers(-6, 6) | st.integers(-6, 6).map(Fraction)
           | st.sampled_from([Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3),
                              Fraction(-4, 3), Fraction(3, 4)]))
    nonzero = rat.filter(bool)
    poly = st.dictionaries(st.integers(-3, 3), rat, max_size=4).map(LaurentPoly)
    monomial = st.builds(lambda e, c: LaurentPoly({e: c}), st.integers(-3, 3), nonzero)
    nonmonomial = poly.filter(lambda p: len(p.coeffs) > 1)
    fraction = st.tuples(poly, nonmonomial)
    scalars = st.one_of(
        st.just(QVScalar(LaurentPoly())),
        monomial.map(QVScalar),
        poly.map(QVScalar),
        fraction.map(lambda nd: QVScalar(*nd)))

    @hyp.settings(max_examples=400, deadline=None, derandomize=True)
    @hyp.given(scalars, scalars, scalars, rat, st.integers(-3, 3),
               poly, nonmonomial, poly)
    def check(a, b, z, c, e, q, d, r):
        # q·d / d divides exactly; r/d + (q·d - r)/d cancels to q
        qd = _naive_mul(q, d)
        _assert_same_form(QVScalar(qd) / QVScalar(d), QVScalar(qd, d))
        _assert_same_form(QVScalar(qd) / QVScalar(d), QVScalar(q))
        s, t = QVScalar(r, d), QVScalar(_naive_add(qd, -r), d)
        _assert_same_form(s + t, QVScalar(
            _naive_add(_naive_mul(s.num, t.den), _naive_mul(t.num, s.den)),
            _naive_mul(s.den, t.den)))
        _assert_same_form(s + t, QVScalar(q))
        for x, y in ((a, b), (b, a)):
            if y:
                # key 1 is filled in, key 2 cancels, key 3 is not in the row
                _assert_same_scaled_row(y, {0: x, 2: -(y * z), 3: z, 4: z},
                                        {0: z, 1: x, 2: z, 4: x})
            _assert_same_form(x * y, QVScalar(_naive_mul(x.num, y.num),
                                              _naive_mul(x.den, y.den)))
            _assert_same_form(x + y, QVScalar(
                _naive_add(_naive_mul(x.num, y.den), _naive_mul(y.num, x.den)),
                _naive_mul(x.den, y.den)))
            if y:
                _assert_same_form(x / y, QVScalar(_naive_mul(x.num, y.den),
                                                  _naive_mul(x.den, y.num)))
        _assert_same_form(-a, QVScalar(_naive_mul(a.num, LaurentPoly({0: -1})), a.den))
        _assert_same_form(QVScalar.from_rat(c), QVScalar(LaurentPoly({0: c})))
        _assert_same_form(v_power(e, c), QVScalar(LaurentPoly({e: c})))

    check()


def test_shift_is_multiplication_by_a_power_of_v_hypothesis():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rat = (st.integers(-6, 6)
           | st.sampled_from([Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]))
    poly = st.dictionaries(st.integers(-3, 3), rat, max_size=4).map(LaurentPoly)
    fraction = st.tuples(poly, poly.filter(lambda p: len(p.coeffs) > 1))
    scalars = st.one_of(
        st.just(QV_ZERO),
        poly.map(QVScalar),
        fraction.map(lambda nd: QVScalar(*nd)))

    @hyp.settings(max_examples=300, deadline=None, derandomize=True)
    @hyp.given(scalars, st.integers(-4, 4))
    def check(x, k):
        got = x.shift(k)
        _assert_same_form(got, x * v_power(k))
        assert got == QVScalar(_naive_mul(x.num, LaurentPoly({k: 1})), x.den)
        assert got.shift(-k) == x

    check()
    # pinned: a true fraction and zero
    assert QVScalar(LaurentPoly({1: 1}), LaurentPoly({0: 1, 1: 1})).shift(-1) \
        == QV_ONE / (QV_ONE + QV_V)
    assert QV_ZERO.shift(3) == QV_ZERO
