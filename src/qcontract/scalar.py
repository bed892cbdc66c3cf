"""Exact scalar arithmetic.

Laurent polynomials in the indeterminate v over the rationals, the fraction
field Q(v) in a canonical form (so equality is structural), quantum
integers/factorials/binomials, and the bar involution v -> v^-1.

Every Q(v) value holds its fraction in canonical form.  The constructor
``QVScalar(num, den)`` computes that form: numerator and denominator are
written once as a rational times a primitive integer polynomial (dense
coefficient lists), their gcd comes from the heuristic gcd of Char, Geddes
and Gonnet (integer gcd at one evaluation point, certified by exact division
over Z), and both are divided by it over Z.  Euclid's algorithm over the
rationals runs only when the heuristic gives up.

``QVScalar._of(num, den)`` wraps a fraction that is canonical already; the
arithmetic uses it, with no gcd, where the form cannot change:
  - c·v^k (``from_rat``, ``v_power``) and a sum or product of two Laurent
    polynomials have denominator 1;
  - a sum with zero is the other operand, and -n/d is canonical with n/d;
  - a monomial c·v^k (c != 0) times n/d is c·v^k·n over d: c is a unit, and
    d, with nonzero constant term, is coprime to v.  A quotient by c·v^k is
    the product with c^-1·v^-k, and a quotient by ±v^k is a shift (negated
    for -v^k);
  - an exact quotient: a Laurent value over a non-monomial Laurent value,
    or a sum over a shared denominator, whose int-coefficient numerator the
    denominator divides over Z (``_exact_quotient``, by ``_zdiv``).  The
    quotient is then a Laurent polynomial, and the gcd is never computed;
    a denominator that does not divide sends the fraction to the
    constructor.

Both classes are immutable; constructors set slots through the slot
descriptors' setters.  ``QVScalar.add_scaled_row`` is the elimination
kernel's step vec += c·row (one pass over coefficient dicts per Laurent
entry, absent entries included), ``QVScalar.is_monomial`` tells the kernel
which pivots divide with no fraction, and ``quantum_binomial`` is the
q-Pascal rule on Laurent polynomials.

Coefficients are ints unless a value is a non-integral rational: a
``Fraction`` comes only from a caller or from ``_frac``, so ``fractions``
(and ``decimal`` with it) is not imported until such a value appears.

No floating point anywhere; every identity checked downstream is exact.
"""
from __future__ import annotations

import numbers
from math import gcd, lcm
from typing import Mapping, Union

Rat = Union[int, "Fraction"]  # fractions.Fraction, which only _frac imports here


def _norm_coeff(c: Rat) -> Rat:
    # keep ints as ints: Fraction arithmetic is much slower
    if type(c) is not int and c.denominator == 1:
        return int(c)
    return c


def _frac(n: Rat, d: Rat) -> Rat:
    """n/d: an int when d divides n, else a Fraction."""
    if n % d == 0:
        return n // d
    from fractions import Fraction
    return Fraction(n, d)


class LaurentPoly:
    """Laurent polynomial in v: a finite map exponent -> nonzero rational."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Rat] | None = None):
        d = {e: _norm_coeff(c) for e, c in coeffs.items() if c} if coeffs else {}
        _set_coeffs(self, d)

    def __setattr__(self, k, v):
        raise AttributeError("LaurentPoly is immutable")

    # --- constructors -------------------------------------------------
    @staticmethod
    def v_power(e: int, c: Rat = 1) -> LaurentPoly:
        return LaurentPoly._of({e: _norm_coeff(c)} if c else {})

    @staticmethod
    def _of(d: dict[int, Rat]) -> LaurentPoly:
        """Wrap a dict of nonzero coefficients as it is, without a copy."""
        out = _new(LaurentPoly)
        _set_coeffs(out, d)
        return out

    # --- structure ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def degree(self) -> int:
        """Largest exponent; raises on zero."""
        return max(self.coeffs)

    def low(self) -> int:
        """Smallest exponent; raises on zero."""
        return min(self.coeffs)

    def coeff(self, e: int) -> Rat:
        return self.coeffs.get(e, 0)

    # --- arithmetic ---------------------------------------------------
    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        a, b = self.coeffs, other.coeffs
        if not a:
            return other
        if not b:
            return self
        d = dict(a)
        for e, c in b.items():
            s = d.get(e, 0) + c
            if s:
                # an int term leaves a stored Fraction non-integral
                d[e] = s if type(c) is int else _norm_coeff(s)
            elif e in d:
                del d[e]
        return LaurentPoly._of(d)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._of({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _L_ZERO
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            (e1, c1), = a.items()
            d = {e1 + e2: c1 * c2 for e2, c2 in b.items()}
        else:
            d = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    s = d.get(e, 0) + c1 * c2
                    if s:
                        d[e] = s
                    elif e in d:
                        del d[e]
        if type(sum(d.values())) is not int:   # some Fraction, maybe integral
            d = {e: _norm_coeff(c) for e, c in d.items()}
        return LaurentPoly._of(d)

    def scale(self, c: Rat) -> LaurentPoly:
        if not c:
            return _L_ZERO
        return LaurentPoly({e: x * c for e, x in self.coeffs.items()})

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by v^k."""
        if k == 0:
            return self
        return LaurentPoly._of({e + k: c for e, c in self.coeffs.items()})

    def bar(self) -> LaurentPoly:
        """v -> v^-1."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def __repr__(self):
        return f"LaurentPoly({render_laurent(self)!r})"


_new = object.__new__
_set_coeffs = LaurentPoly.coeffs.__set__
_L_ZERO = LaurentPoly()
_L_ONE = LaurentPoly({0: 1})


def _poly_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Ordinary-polynomial division (both arguments with exponents >= 0)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q: dict[int, Rat] = {}
    r = a
    db = b.degree()
    lb = b.coeffs[db]
    while r.coeffs and r.degree() >= db:
        dr = r.degree()
        c = q[dr - db] = _frac(r.coeffs[dr], lb)
        r = r - b.shift(dr - db).scale(c)
    return LaurentPoly(q), r


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """A gcd of nonzero ordinary polynomials over Q, by Euclid's algorithm;
    only its primitive part is defined."""
    while not b.is_zero():
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return a


# --- dense integer polynomials ---------------------------------------------
#
# Canonicalization works on ordinary polynomials over Z stored as dense
# coefficient lists, constant term first.  The lists it handles are
# primitive with positive lead and nonzero constant term.

def _primitive(a: list[int]) -> tuple[int, list[int]]:
    """(c, a/c) with a/c primitive over Z with positive lead."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return c, (a if c == 1 else [x // c for x in a])


def _int_form(coeffs: Mapping[int, Rat], low: int) -> tuple[int, int, list[int]]:
    """(p, q, a) with coeffs = (p/q) * v^low * a(v), a primitive over Z with
    positive lead, q > 0."""
    q = lcm(*[c.denominator for c in coeffs.values()])
    a = [0] * (max(coeffs) - low + 1)
    for e, c in coeffs.items():
        a[e - low] = c.numerator * (q // c.denominator)
    p, a = _primitive(a)
    return p, q, a


def _zdiv(a: list[int], b: list[int]) -> list[int] | None:
    """a / b over Z, or None when b does not divide a exactly.  b has a
    nonzero constant term."""
    m = len(b) - 1
    n = len(a) - 1 - m
    if n < 0 or a[0] % b[0]:
        return None
    r = list(a)
    lb = b[-1]
    q = [0] * (n + 1)
    for i in range(n, -1, -1):
        t, rem = divmod(r[i + m], lb)
        if rem:
            return None
        if t:
            q[i] = t
            for j in range(m):
                r[i + j] -= t * b[j]
    if any(r[:m]):
        return None
    return q


def _eval(a: list[int], x: int) -> int:
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def _balanced_digits(h: int, x: int) -> list[int]:
    """The polynomial g with g(x) = h and every coefficient in (-x/2, x/2]."""
    half = x // 2
    g = []
    while h:
        d = h % x
        if d > half:
            d -= x
        g.append(d)
        h = (h - d) // x
    return g


# Evaluation points tried by the heuristic gcd before it gives up.
_HEU_TRIES = 6


def _heu_gcd(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]] | None:
    """(g, a/g, b/g) with g = gcd(a, b), or None when no evaluation point
    gave a certified gcd.

    The heuristic gcd of Char, Geddes and Gonnet (J. Symbolic Comput. 7,
    1989): evaluate at an integer xi, take the integer gcd h, and read a
    candidate g off the balanced base-xi digits of h.  Every root of a
    common factor C of a and b lies within 1 + min(|a|, |b|) of zero (max
    norms), so for xi >= 2 min(|a|, |b|) + 2 a nonconstant C has
    |C(xi)| > xi/2, while the content of the digit polynomial is at most
    xi/2.  Hence a primitive g that divides both a and b exactly is their
    gcd; any other candidate fails a division and xi grows."""
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    top = min(len(a), len(b))
    for _ in range(_HEU_TRIES):
        g = _balanced_digits(gcd(_eval(a, xi), _eval(b, xi)), xi)
        if len(g) <= top:
            _, g = _primitive(g)
            qa = _zdiv(a, g)
            qb = None if qa is None else _zdiv(b, g)
            if qb is not None:
                return g, qa, qb
        xi = 2 * xi + 1
    return None


def _cancel(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """a and b divided by their gcd: the heuristic gcd, else Euclid."""
    if len(a) == 1 or len(b) == 1:
        return a, b
    heu = _heu_gcd(a, b)
    if heu is not None:
        return heu[1], heu[2]
    g = _poly_gcd(LaurentPoly(dict(enumerate(a))), LaurentPoly(dict(enumerate(b))))
    _, _, g = _int_form(g.coeffs, 0)
    qa, qb = _zdiv(a, g), _zdiv(b, g)
    if qa is None or qb is None:
        raise ArithmeticError("division was expected to be exact")
    return qa, qb


def _int_dense(coeffs: Mapping[int, Rat]) -> tuple[int, list[int]] | None:
    """(low, a) with coeffs = v^low * a(v) as a dense list, or None when a
    coefficient is not an int."""
    low = min(coeffs)
    a = [0] * (max(coeffs) - low + 1)
    for e, c in coeffs.items():
        if type(c) is not int:
            return None
        a[e - low] = c
    return low, a


def _exact_quotient(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """num/den as a Laurent polynomial when both have int coefficients and
    den divides num over Z, else None; num is nonzero.  A quotient over Z is
    the quotient over Q, so it needs no gcd, and a None only sends the
    caller to the constructor."""
    a, b = _int_dense(num.coeffs), _int_dense(den.coeffs)
    q = None if a is None or b is None else _zdiv(a[1], b[1])
    if q is None:
        return None
    low = a[0] - b[0]
    return LaurentPoly._of({e + low: c for e, c in enumerate(q) if c})


def _laurent(a: list[int], low: int, p: int = 1, q: int = 1) -> LaurentPoly:
    """(p/q) * v^low * a(v) as a LaurentPoly."""
    if q == 1:
        return LaurentPoly._of({e + low: c * p for e, c in enumerate(a) if c})
    return LaurentPoly._of({e + low: _frac(c * p, q) for e, c in enumerate(a) if c})


class QVScalar:
    """Element of Q(v) as a canonical fraction of Laurent polynomials.

    Canonical form: numerator and denominator share no polynomial factor, the
    denominator is an ordinary polynomial with nonzero constant term, positive
    leading coefficient and primitive integer content, and a denominator 1 is
    the object ``_L_ONE``.  Equality is structural; a constant hashes as the
    rational it equals.

    The constructor computes the form on primitive integer parts: a monomial
    denominator folds into the numerator; otherwise the common factor is
    found by the heuristic gcd (``_heu_gcd``), with Euclid over Q
    (``_poly_gcd``) as the fallback, and divided out exactly over Z.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _L_ONE):
        num, den = _canonical_fraction(num, den)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, k, v):
        raise AttributeError("QVScalar is immutable")

    # --- constructors -------------------------------------------------
    @staticmethod
    def _of(num: LaurentPoly, den: LaurentPoly = _L_ONE) -> QVScalar:
        """Wrap a fraction that is in canonical form already."""
        out = _new(QVScalar)
        _set_num(out, num)
        _set_den(out, den)
        return out

    @staticmethod
    def from_rat(c: Rat) -> QVScalar:
        return QVScalar._of(LaurentPoly.v_power(0, c))

    @staticmethod
    def v_power(e: int, c: Rat = 1) -> QVScalar:
        return QVScalar._of(LaurentPoly.v_power(e, c))

    def shift(self, k: int) -> QVScalar:
        """Multiply by v^k.  The result is canonical as it stands: v is
        coprime to a denominator with nonzero constant term."""
        if k == 0:
            return self
        return QVScalar._of(self.num.shift(k), self.den)

    # --- structure ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num.coeffs

    def __bool__(self) -> bool:
        return bool(self.num.coeffs)

    def is_laurent(self) -> bool:
        return self.den.coeffs == {0: 1}

    def is_monomial(self) -> bool:
        """A nonzero c·v^k: a unit of the Laurent ring, so dividing by it
        makes no fraction."""
        return self.den is _L_ONE and len(self.num.coeffs) == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, QVScalar):
            if not isinstance(other, numbers.Rational):
                return NotImplemented
            other = QVScalar.from_rat(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        const = self.num.coeffs.keys() <= {0} and self.is_laurent()
        return hash(self.num.coeff(0) if const else (self.num, self.den))

    # --- arithmetic ---------------------------------------------------
    def __add__(self, other) -> QVScalar:
        if type(other) is not QVScalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        if not other.num.coeffs:
            return self
        if not self.num.coeffs:
            return other
        if self.den is _L_ONE and other.den is _L_ONE:
            return QVScalar._of(self.num + other.num)
        if self.den is other.den or self.den == other.den:
            num = self.num + other.num
            if not num.coeffs:
                return QV_ZERO
            q = _exact_quotient(num, self.den)
            return QVScalar(num, self.den) if q is None else QVScalar._of(q)
        return QVScalar(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    __radd__ = __add__

    @staticmethod
    def add_scaled_row(vec: dict, c: QVScalar, row: Mapping) -> None:
        """vec += c * row in place, dropping keys that cancel: the elimination
        kernel's step.  Where c, the row entry and the entry of vec (absent
        or Laurent) are Laurent, it multiplies and adds on coefficient
        dicts in one pass; an entry holding a fraction takes a + c * x."""
        laurent = c.den is _L_ONE
        terms = c.num.coeffs.items()
        for k, x in row.items():
            a = vec.get(k)
            if not laurent or x.den is not _L_ONE or (a is not None and a.den is not _L_ONE):
                s = c * x if a is None else a + c * x
                if s:
                    vec[k] = s
                else:
                    del vec[k]
                continue
            d = {} if a is None else dict(a.num.coeffs)
            for e2, c2 in x.num.coeffs.items():
                for e1, c1 in terms:
                    e = e1 + e2
                    s = d.get(e, 0) + c1 * c2
                    if s:
                        d[e] = s if type(s) is int else _norm_coeff(s)
                    else:   # c1 * c2 != 0, so e was in d
                        del d[e]
            if d:
                vec[k] = QVScalar._of(LaurentPoly._of(d))
            else:
                del vec[k]

    def __neg__(self) -> QVScalar:
        return QVScalar._of(-self.num, self.den)

    def __sub__(self, other) -> QVScalar:
        if type(other) is not QVScalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> QVScalar:
        if (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> QVScalar:
        if type(other) is not QVScalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        a, b = self, other
        if a.den is not _L_ONE or len(a.num.coeffs) != 1:
            a, b = b, a
        # a is a Laurent monomial if either factor is one
        if a.den is _L_ONE:
            if len(a.num.coeffs) == 1:
                if len(b.num.coeffs) == 1:
                    (e1, c1), = a.num.coeffs.items()
                    (e2, c2), = b.num.coeffs.items()
                    c = c1 * c2
                    return QVScalar._of(LaurentPoly._of(
                        {e1 + e2: c if type(c) is int else _norm_coeff(c)}), b.den)
                return QVScalar._of(a.num * b.num, b.den)
            if b.den is _L_ONE:
                return QVScalar._of(a.num * b.num)
        return QVScalar(a.num * b.num, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> QVScalar:
        if type(other) is not QVScalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(v)")
        if other.den is _L_ONE:
            if len(other.num.coeffs) == 1:
                (e, c), = other.num.coeffs.items()
                if c == 1:
                    return self.shift(-e)
                if c == -1:
                    return (-self).shift(-e)
                return QVScalar._of(self.num * LaurentPoly.v_power(-e, _frac(1, c)), self.den)
            if self.den is _L_ONE:
                if not self.num.coeffs:
                    return self
                q = _exact_quotient(self.num, other.num)
                return QVScalar(self.num, other.num) if q is None else QVScalar._of(q)
        return QVScalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> QVScalar:
        if (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> QVScalar:
        if n < 0:
            return (QV_ONE / self) ** (-n)
        out = QV_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self):
        return f"QVScalar({render_scalar(self)!r})"


def _coerce(x) -> QVScalar:
    if isinstance(x, QVScalar):
        return x
    if isinstance(x, numbers.Rational):
        return QVScalar.from_rat(x)
    if isinstance(x, LaurentPoly):
        return QVScalar(x)
    return NotImplemented


def _canonical_fraction(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    if den.is_zero():
        raise ZeroDivisionError("zero denominator in Q(v)")
    if num.is_zero():
        return _L_ZERO, _L_ONE
    if len(den.coeffs) == 1:
        # monomial denominator: fold into the numerator
        e, c = next(iter(den.coeffs.items()))
        if c == 1:
            return num.shift(-e), _L_ONE
        return num.shift(-e).scale(_frac(1, c)), _L_ONE
    k, m = den.low(), num.low()
    pn, qn, a = _int_form(num.coeffs, m)
    pd, qd, b = _int_form(den.coeffs, k)
    a, b = _cancel(a, b)
    # num/den = (pn qd)/(qn pd) * v^(m-k) * a/b, and b is canonical
    p, q = pn * qd, qn * pd
    if q < 0:
        p, q = -p, -q
    g = gcd(p, q)
    return _laurent(a, m - k, p // g, q // g), (_L_ONE if len(b) == 1 else _laurent(b, 0))


_set_num, _set_den = QVScalar.num.__set__, QVScalar.den.__set__
QV_ZERO = QVScalar(_L_ZERO)
QV_ONE = QVScalar(_L_ONE)
QV_V = QVScalar.v_power(1)


def qv(x) -> QVScalar:
    """Coerce an int, Fraction or LaurentPoly into Q(v)."""
    out = _coerce(x)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} into Q(v)")
    return out


def v_power(e: int, c: Rat = 1) -> QVScalar:
    return QVScalar.v_power(e, c)


# --- quantum combinatorics ---------------------------------------------

def quantum_integer_poly(a: int, k: int = 1) -> LaurentPoly:
    if a < 0:
        raise ValueError(f"quantum integer needs a >= 0, got {a}")
    if k < 1:
        raise ValueError(f"quantum integer needs k >= 1, got {k}")
    return LaurentPoly({k * (a - 1 - 2 * t): 1 for t in range(a)})


def quantum_integer(a: int, k: int = 1) -> QVScalar:
    """(v^(ka) - v^(-ka)) / (v^k - v^(-k)) as an exact Laurent polynomial."""
    return QVScalar._of(quantum_integer_poly(a, k))


def quantum_factorial(a: int, k: int = 1) -> QVScalar:
    if a < 0:
        raise ValueError(f"quantum factorial needs a >= 0, got {a}")
    out = _L_ONE
    for m in range(1, a + 1):
        out = out * quantum_integer_poly(m, k)
    return QVScalar._of(out)


def quantum_binomial(b: int, a: int, k: int = 1) -> QVScalar:
    """[b, a] at v^k by the q-Pascal rule [n, j] = v^(kj) [n-1, j]
    + v^(-k(n-j)) [n-1, j-1], on Laurent polynomials: no fraction forms."""
    if not 0 <= a <= b:
        raise ValueError(f"quantum binomial needs 0 <= a <= b, got a={a}, b={b}")
    if k < 1:
        raise ValueError(f"quantum binomial needs k >= 1, got {k}")
    col = [_L_ONE] + [_L_ZERO] * a    # col[j] = [n, j] after step n
    for n in range(1, b + 1):
        for j in range(min(n, a), 0, -1):
            col[j] = col[j].shift(k * j) + col[j - 1].shift(-k * (n - j))
    return QVScalar._of(col[a])


def bar(x: QVScalar) -> QVScalar:
    """The involution v -> v^-1, extended to fractions."""
    return QVScalar(x.num.bar(), x.den.bar())


# --- membership in the subring of functions regular at v = infinity ----

def degree_at_infinity(x: QVScalar) -> int | None:
    """deg(num) - deg(den), or None for zero."""
    if x.is_zero():
        return None
    return x.num.degree() - x.den.degree()


def in_regular_at_infinity(x: QVScalar) -> bool:
    """True iff x lies in Q[[v^-1]] intersect Q(v)."""
    d = degree_at_infinity(x)
    return d is None or d <= 0


def in_one_plus_vinv(x: QVScalar) -> bool:
    """True iff x lies in 1 + v^-1 Q[[v^-1]] intersect Q(v)."""
    d = degree_at_infinity(x - QV_ONE)
    return d is None or d <= -1


def is_integer_laurent(x: QVScalar) -> bool:
    """Laurent polynomial with integer coefficients."""
    return x.is_laurent() and \
        all(c.denominator == 1 for c in x.num.coeffs.values())


def laurent_negative_part(x: QVScalar) -> QVScalar:
    """Truncation to strictly negative exponents; x must be Laurent."""
    if not x.is_laurent():
        raise ValueError("negative part needs a Laurent polynomial")
    return QVScalar(LaurentPoly({e: c for e, c in x.num.coeffs.items()
                                 if e < 0}))


# --- rendering and parsing ----------------------------------------------

def _render_term(c: Rat, e: int) -> str:
    if e == 0:
        return str(c)
    vpart = "v" if e == 1 else f"v^{e}"
    if c == 1:
        return vpart
    return f"{c}*{vpart}"


def render_laurent(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.coeffs, reverse=True):
        c = p.coeffs[e]
        if not parts:
            parts.append(_render_term(c, e) if c > 0 else "-" + _render_term(-c, e))
        elif c > 0:
            parts.append("+ " + _render_term(c, e))
        else:
            parts.append("- " + _render_term(-c, e))
    return " ".join(parts)


def render_scalar(x: QVScalar) -> str:
    if x.is_laurent():
        return render_laurent(x.num)
    return f"({render_laurent(x.num)})/({render_laurent(x.den)})"


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[str] = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.toks.append(text[i:j])
                i = j
            elif ch in "+-*/^()v":
                self.toks.append(ch)
                i += 1
            else:
                raise ValueError(f"unexpected character {ch!r} in scalar literal")
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        t = self.peek()
        if t is None:
            raise ValueError("unexpected end of scalar literal")
        self.pos += 1
        return t


def _parse_expr(tk: _Tokens) -> QVScalar:
    out = _parse_product(tk)
    while tk.peek() in ("+", "-"):
        op = tk.next()
        rhs = _parse_product(tk)
        out = out + rhs if op == "+" else out - rhs
    return out


def _parse_product(tk: _Tokens) -> QVScalar:
    out = _parse_factor(tk)
    while tk.peek() in ("*", "/"):
        op = tk.next()
        rhs = _parse_factor(tk)
        out = out * rhs if op == "*" else out / rhs
    return out


def _parse_factor(tk: _Tokens) -> QVScalar:
    neg = False
    while tk.peek() == "-":
        tk.next()
        neg = not neg
    atom = _parse_atom(tk)
    if tk.peek() == "^":
        tk.next()
        sign = 1
        if tk.peek() == "-":
            tk.next()
            sign = -1
        e = sign * int(tk.next())
        atom = atom ** e
    return -atom if neg else atom


def _parse_atom(tk: _Tokens) -> QVScalar:
    t = tk.next()
    if t == "v":
        return QV_V
    if t == "(":
        inner = _parse_expr(tk)
        if tk.next() != ")":
            raise ValueError("unbalanced parentheses in scalar literal")
        return inner
    if t.isdigit():
        return QVScalar.from_rat(int(t))
    raise ValueError(f"unexpected token {t!r} in scalar literal")


def parse_scalar(text: str) -> QVScalar:
    """Parse the rendering grammar, e.g. '3*v^2 - v^-1 + 1/2'."""
    tk = _Tokens(text)
    out = _parse_expr(tk)
    if tk.peek() is not None:
        raise ValueError(f"trailing input in scalar literal at token {tk.peek()!r}")
    return out
