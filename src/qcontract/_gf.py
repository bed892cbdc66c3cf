"""Finite fields F_{p^e} with int-encoded elements.

An element is an integer 0..q-1 whose base-p digits are the coefficients of
a residue polynomial modulo a fixed irreducible monic polynomial, chosen as
the lexicographically least one (deterministic, computed once per field).
Every field has full add, mul, neg and inverse tables, built once; each
q x q table is charged q^2 to the work budget before it is built.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from . import _budget

Mat = tuple[tuple[int, ...], ...]


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    p = None
    for c in range(2, q + 1):
        if q % c == 0:
            p = c
            break
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"not a prime power: {q}")
    return p, e


def _poly_mul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    # reduce by the monic modulus
    d = len(mod) - 1
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(d):
                out[i - d + j] = (out[i - d + j] - c * mod[j]) % p
    return out[:d]


def _decode(code: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(code % p)
        code //= p
    return out


def _encode(digits: Iterable[int], p: int) -> int:
    out = 0
    for c in reversed(list(digits)):
        out = out * p + c
    return out


class GF:
    """Arithmetic in F_q on int-encoded elements."""

    def __init__(self, q: int):
        """Build the tables.  The modulus is the first candidate, in code
        order, whose multiplication table gives every nonzero element an
        inverse: the quotient ring is a field exactly when the candidate is
        irreducible, so this is the least irreducible monic."""
        p, e = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        _budget.charge(q * q)
        self._add = [[self._add_raw(a, b) for b in range(q)] for a in range(q)]
        candidates = [None] if e == 1 else (_decode(c, p, e) + [1] for c in range(q))
        for self.modulus in candidates:
            _budget.charge(q * q)
            mul = []
            for a in range(q):
                row = [self._mul_raw(a, b) for b in range(q)]
                if a and 1 not in row:
                    break  # a has no inverse: try the next candidate
                mul.append(row)
            else:
                break  # every nonzero element has an inverse
        self._mul = mul
        self._neg = [row.index(0) for row in self._add]
        self._inv = [0] + [row.index(1) for row in mul[1:]]

    def _add_raw(self, a: int, b: int) -> int:
        p = self.p
        if self.e == 1:
            return (a + b) % p
        out = 0
        mult = 1
        while a or b:
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _mul_raw(self, a: int, b: int) -> int:
        p = self.p
        if self.e == 1:
            return (a * b) % p
        pa = _decode(a, p, self.e)
        pb = _decode(b, p, self.e)
        return _encode(_poly_mul_mod(pa, pb, self.modulus, p), p)

    # --- public ops ----------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self._inv[a]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a = self.inv(a)
            n = -n
        if not a:
            return 1 if n == 0 else 0
        n %= self.q - 1
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def frobenius(self, a: int, base: int | None = None) -> int:
        """a -> a^base, default base = p (the absolute Frobenius)."""
        return self.pow(a, self.p if base is None else base)

    # --- matrices (tuples of row tuples) --------------------------------
    def mat_mul(self, A: Mat, B: Mat) -> Mat:
        """A times B.  A B with no rows is read as 0 x 0 (a tuple of rows
        cannot hold a width), so an n x 0 A gives n empty rows."""
        if not A or not B:
            return tuple(() for _ in A)
        n, k, m = len(A), len(B), len(B[0])
        add, mul = self._add, self._mul
        out = []
        for r in range(n):
            Ar = A[r]
            row = []
            for c in range(m):
                s = 0
                for t in range(k):
                    s = add[s][mul[Ar[t]][B[t][c]]]
                row.append(s)
            out.append(tuple(row))
        return tuple(out)

    def mat_id(self, n: int) -> Mat:
        return tuple(tuple(1 if a == b else 0 for b in range(n)) for a in range(n))

    def _eliminate(self, m: list[list[int]], ncols: int, above: bool) -> int:
        """Row-reduce m in place, choosing pivots among the first ncols
        columns; returns the rank.  Pivot rows are normalized and cleared
        below, and also above when ``above`` (reduced row echelon form)."""
        inv, mul, sub = self.inv, self.mul, self.sub
        nrows = len(m)
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            pr = next((i for i in range(r, nrows) if m[i][c]), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            f = inv(m[r][c])
            row = m[r] = [mul(f, x) for x in m[r]]
            for i in range(0 if above else r + 1, nrows):
                f = m[i][c]
                if i != r and f:
                    m[i] = [sub(x, mul(f, y)) for x, y in zip(m[i], row)]
            r += 1
        return r

    def mat_inv(self, A: Mat) -> Mat:
        n = len(A)
        aug = [list(A[r]) + [1 if c == r else 0 for c in range(n)] for r in range(n)]
        if self._eliminate(aug, n, True) < n:
            raise ZeroDivisionError("singular matrix over F_q")
        return tuple(tuple(r[n:]) for r in aug)

    def mat_rank(self, A: Mat) -> int:
        if not A:
            return 0
        return self._eliminate([list(r) for r in A], len(A[0]), False)

    def is_invertible(self, A: Mat) -> bool:
        n = len(A)
        return n == 0 or (len(A[0]) == n and self.mat_rank(A) == n)

    def all_matrices(self, rows: int, cols: int) -> list[Mat]:
        cells = rows * cols
        out = []
        for code in range(self.q ** cells):
            digits = _decode(code, self.q, cells)
            out.append(tuple(tuple(digits[r * cols + c] for c in range(cols))
                             for r in range(rows)))
        return out

    def general_linear(self, n: int) -> list[Mat]:
        """GL_n(F_q) in the order of ``all_matrices(n, n)`` (the last row is
        the most significant), built from the last row up: each new row is
        drawn from the vectors outside the span of the rows below it, so no
        singular matrix is made."""
        add, mul = self.add, self.mul
        vectors = [r for (r,) in self.all_matrices(1, n)]
        out: list[Mat] = [()]
        for _ in range(n):
            grown = []
            for rows in out:
                span = {(0,) * n}
                for r in rows:
                    span = {tuple(add(a, mul(c, b)) for a, b in zip(s, r))
                            for s in span for c in range(self.q)}
                grown.extend((r,) + rows for r in vectors if r not in span)
            out = grown
        return out

    def frobenius_mat(self, A: Mat, base: int | None = None) -> Mat:
        return tuple(tuple(self.frobenius(x, base) for x in row) for row in A)

@lru_cache(maxsize=None)
def gf(q: int) -> GF:
    return GF(q)


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{k<n} (q^n - q^k)."""
    out = 1
    for k in range(n):
        out *= q ** n - q ** k
    return out
