"""Graded algebra on generator words modulo the quantum Serre relations.

Normal forms come from exact linear algebra per graded piece, each built
from the pieces one letter lower: their rewrite rules, prefixed by a letter,
keep distinct leading words, so only the ideal's rows that start with a
relator are reduced against them; their word lists, prefixed alike, are
the piece's words in order.  The relators are the closed form
sum_r (-1)^r [m, r]_i i^(m-r) j i^r, m = 1 - a_ij, so no fraction enters
before the elimination; a commuting pair (a_ij = 0) gives one relator, not
two copies of ij - ji.  The elimination is ``_linalg.echelon_extend``, so
rows whose pivot is not a monomial (such as [2] = v + v^-1) are divided
last, when their tails are reduced.  The result is the reduced echelon form
of the ideal span, columns in descending word order, so the basis is the
lexicographically least complement of the leading terms.  The bilinear form
is computed by a cleared recursion that never divides; the (1 - v_i^-2)^-1
factors are restored at the end.

``chain_words`` (on plain words) and ``chain_sum`` (on elements) write the
alternating sum sum_r (-v^t)^r p^(a) q p^(b), a + b = n, once: for the Serre
relators, f', merged divided powers and the braid images in U_q.

Internally letters are generator positions (ints); the public surface speaks
in the Cartan datum's index symbols.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping

from . import _budget
from ._linalg import echelon_extend, nullspace, rank, residue, rref, solve
from .cartan import CartanDatum, ContractiblePair, Record, contract_cartan
from .scalar import (
    QVScalar, QV_ONE, QV_ZERO, LaurentPoly, bar as scalar_bar,
    in_one_plus_vinv, is_integer_laurent, laurent_negative_part, qv,
    quantum_binomial, quantum_factorial, render_scalar, parse_scalar, v_power,
)

Degree = tuple[int, ...]       # multiplicity per generator position
PlainWord = tuple[int, ...]    # letters are generator positions


def _add_into(acc: dict, key, c: QVScalar) -> None:
    """acc[key] += c, keeping acc free of zeros."""
    a = acc.get(key)
    if a is None:
        if c:
            acc[key] = c
        return
    s = a + c
    if s:
        acc[key] = s
    else:
        del acc[key]


def _add_outer(acc: dict, c: QVScalar, left: Mapping, right: Mapping) -> None:
    """acc += c * (left ⊗ right), keyed by pairs (left key, right key)."""
    for kl, cl in left.items():
        cl = c * cl
        for kr, cr in right.items():
            _add_into(acc, (kl, kr), cl * cr)


def sign_power(base_exp: int, n: int) -> QVScalar:
    """(-v^base_exp)^n for any integer n."""
    c = v_power(n * base_exp)
    return -c if n % 2 else c


def chain_words(p: int, q: int, n: int, twist: int, r_first: bool,
                d: int) -> dict[PlainWord, QVScalar]:
    """sum_(r+s=n) (-v^twist)^r p^a q p^b / ([a]_d! [b]_d!) on plain words,
    p != q, (a, b) = (r, s) when r_first and (s, r) otherwise (Lusztig,
    Introduction to Quantum Groups, 1.4.1 and 37.1.3)."""
    facs = [quantum_factorial(k, d) for k in range(n + 1)]
    out = {}
    for r in range(n + 1):
        a, b = (r, n - r) if r_first else (n - r, r)
        out[(p,) * a + (q,) + (p,) * b] = sign_power(twist, r) / (facs[a] * facs[b])
    return out


def chain_sum(power, gen, n: int, twist: int, r_first: bool):
    """sum_(r+s=n) (-v^twist)^r power(a) gen power(b), (a, b) as in
    ``chain_words``, on any ``LinearCombination`` with ``*``, ``+``, ``scale``."""
    acc = gen._like({})
    for r in range(n + 1):
        a, b = (r, n - r) if r_first else (n - r, r)
        acc = acc + (power(a) * gen * power(b)).scale(sign_power(twist, r))
    return acc


class LinearCombination:
    """Sparse combination of basis keys with nonzero Q(v) coefficients, tied
    to one algebra.  Subclasses add their products, bar and rendering;
    ``_like`` builds a sibling of the same type on new coordinates, and
    ``_of`` wraps coordinates that ``_add_into`` built, which hold no zero."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords: Mapping):
        self.algebra = algebra
        self.coords = {k: c for k, c in coords.items() if c}

    @classmethod
    def _of(cls, algebra, coords: dict):
        """Wrap a dict that is free of zeros already, without a copy."""
        out = object.__new__(cls)
        out.algebra = algebra
        out.coords = coords
        return out

    def _like(self, coords: Mapping):
        return type(self)(self.algebra, coords)

    def __add__(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("elements of different algebras")
        out = dict(self.coords)
        for k, c in other.coords.items():
            _add_into(out, k, c)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = qv(c)
        return self._like({k: c * x for k, x in self.coords.items()})

    def is_zero(self) -> bool:
        return not self.coords

    def __bool__(self) -> bool:
        return bool(self.coords)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.algebra is other.algebra
                and self.coords == other.coords)

    def __hash__(self):
        return hash(tuple(sorted(self.coords.items())))


class GradedComponent(Record):
    nu: Degree
    words: tuple[PlainWord, ...]     # every word of degree nu, ascending
    basis: tuple[PlainWord, ...]     # complement of the ideal's leading terms
    rewrite: Mapping[PlainWord, Mapping[PlainWord, QVScalar]]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, coords: Mapping[PlainWord, QVScalar]) -> dict[PlainWord, QVScalar]:
        out: dict[PlainWord, QVScalar] = {}
        for w, c in coords.items():
            if not c:
                continue
            rw = self.rewrite.get(w)
            if rw is None:
                _add_into(out, w, c)
            else:
                for b, r in rw.items():
                    _add_into(out, b, c * r)
        return out


class FAlgebra:
    """The graded algebra of a Cartan datum, with normal forms up to a total
    degree bound (components are finite-dimensional; the algebra is not)."""

    def __init__(self, cartan: CartanDatum, degree_bound: int = 8):
        self.cartan = cartan
        self.degree_bound = degree_bound
        self.rank = len(cartan.indices)
        self._pos = {s: k for k, s in enumerate(cartan.indices)}
        # i.j on generator positions
        self._dot = tuple(tuple(cartan.pairing[a][b] for b in range(self.rank))
                          for a in range(self.rank))
        self._d = tuple(cartan.d(s) for s in cartan.indices)
        self._components: dict[Degree, GradedComponent] = {}
        self._gt_memo: dict[tuple[PlainWord, PlainWord], LaurentPoly] = {}
        self._word_nf: dict[PlainWord, dict[PlainWord, QVScalar]] = {}
        self._proj: dict = {}
        self._pbw: tuple | None = None

    # --- degrees and words ---------------------------------------------
    def position(self, symbol) -> int:
        return self._pos[symbol]

    def degree(self, nu) -> Degree:
        if isinstance(nu, tuple) and len(nu) == self.rank \
                and all(isinstance(x, int) for x in nu):
            return nu
        out = [0] * self.rank
        for s, n in dict(nu).items():
            out[self._pos[s]] = n
        return tuple(out)

    def word_degree(self, w: PlainWord) -> Degree:
        out = [0] * self.rank
        for p in w:
            out[p] += 1
        return tuple(out)

    def reduce_word(self, w: PlainWord) -> dict[PlainWord, QVScalar]:
        """Normal form of the single word w, memoized on this algebra: the
        dict returned is shared, so callers only read it."""
        hit = self._word_nf.get(w)
        if hit is None:
            hit = ({(): QV_ONE} if not w else
                   self.component(self.word_degree(w)).reduce({w: QV_ONE}))
            self._word_nf[w] = hit
        return hit

    def degree_dot(self, a: Degree, b: Degree) -> int:
        return sum(a[s] * self._dot[s][t] * b[t]
                   for s in range(self.rank) if a[s]
                   for t in range(self.rank) if b[t])

    def plain_words(self, nu: Degree) -> list[PlainWord]:
        """Every word of degree nu, ascending."""
        if not any(nu):
            return [()]
        return [(p,) + w for p in range(self.rank) if nu[p]
                for w in self.plain_words(nu[:p] + (nu[p] - 1,) + nu[p + 1:])]

    # --- the Serre ideal and graded components -------------------------
    def serre_relator_words(self, i, j) -> dict[PlainWord, QVScalar]:
        """The relator sum_r (-1)^r i^(m-r) j i^r / ([m-r]_i! [r]_i!),
        m = 1 - a_ij, on plain words."""
        pi, pj = self._pos[i], self._pos[j]
        if pi == pj:
            raise ValueError("the relator needs two distinct generators")
        return chain_words(pi, pj, 1 - self.cartan.cartan_entry(i, j), 0, False,
                           self._d[pi])

    @cached_property
    def _serre_relators(self) -> list[tuple[dict[PlainWord, QVScalar], Degree]]:
        """Each ordered pair's relator on plain words, with its degree, times
        ±[m]_i! (m = 1 - a_ij): sum_r ±(-1)^r [m, r]_i i^(m-r) j i^r, with
        coefficient 1 at the greatest word i^m j or j i^m.  So every row it
        seeds in _build_component has a unit lead, and no fraction forms.
        A commuting pair (a_ij = 0) gives ij - ji both ways round, so only
        the order with i at the lower position is kept."""
        out = []
        for pi, i in enumerate(self.cartan.indices):
            for pj, j in enumerate(self.cartan.indices):
                m = 1 - self.cartan.cartan_entry(i, j)
                if pi != pj and (m > 1 or pi < pj):
                    top = 0 if pi > pj else m        # r of the greatest word
                    rel = {}
                    for r in range(m + 1):
                        c = quantum_binomial(m, r, self._d[pi])
                        rel[(pi,) * (m - r) + (pj,) + (pi,) * r] = -c if (r + top) % 2 else c
                    out.append((rel, self.word_degree(next(iter(rel)))))
        return out

    def component(self, nu) -> GradedComponent:
        nu = self.degree(nu)
        if sum(nu) > self.degree_bound:
            raise ValueError(
                f"degree bound exceeded: |nu| = {sum(nu)} > {self.degree_bound}")
        comp = self._components.get(nu)
        if comp is None:
            comp = self._components[nu] = self._build_component(nu)
        return comp

    def _relator_rows(self, nu: Degree) -> Iterable[dict[PlainWord, QVScalar]]:
        """The rows rel * w of degree nu, w a basis word, each charged to
        the budget before it is built."""
        for rel, rel_deg in self._serre_relators:
            rest = tuple(n - d for n, d in zip(nu, rel_deg))
            if any(x < 0 for x in rest):
                continue
            for w in self.component(rest).basis:
                _budget.charge()
                yield {m + w: c for m, c in rel.items()}

    def _build_component(self, nu: Degree) -> GradedComponent:
        # I_nu = sum_p theta_p I_(nu - e_p) + sum_rel rel F_(nu - deg rel),
        # and rel I lies in the first sum, so w runs over basis words only.
        # The words of nu, ascending: p + those of nu - e_p, p ascending.
        words = [] if any(nu) else [()]
        rules: dict[PlainWord, dict[PlainWord, QVScalar]] = {}
        for p in range(self.rank):
            if nu[p]:
                lower = self.component(nu[:p] + (nu[p] - 1,) + nu[p + 1:])
                words += [(p,) + w for w in lower.words]
                for lead, tail in lower.rewrite.items():
                    _budget.charge()
                    rules[(p,) + lead] = {(p,) + w: c for w, c in tail.items()}
        echelon_extend(rules, self._relator_rows(nu))
        basis = tuple(w for w in words if w not in rules)
        rewrite = {lead: dict(sorted(rules[lead].items(), reverse=True))
                   for lead in sorted(rules, reverse=True)}
        return GradedComponent(nu, tuple(words), basis, rewrite)

    # --- the bilinear form ----------------------------------------------
    def _gtilde(self, u: PlainWord, w: PlainWord) -> LaurentPoly:
        """Cleared pairing: the true form times prod_i (1-v_i^-2)^{nu_i}."""
        if len(u) != len(w):
            return LaurentPoly({})
        if not u:
            return LaurentPoly({0: 1})
        key = (u, w)
        memo = self._gt_memo
        got = memo.get(key)
        if got is not None:
            return got
        _budget.charge()
        head, rest = u[0], u[1:]
        acc = LaurentPoly({})
        prefix_dot = 0
        for p, letter in enumerate(w):
            if letter == head:
                term = self._gtilde(rest, w[:p] + w[p + 1:])
                if term:
                    acc = acc + term.shift(prefix_dot)
            prefix_dot += self._dot[head][letter]
        memo[key] = acc
        return acc

    def form_plain(self, x: Mapping[PlainWord, QVScalar],
                   y: Mapping[PlainWord, QVScalar]) -> QVScalar:
        total = QV_ZERO
        nu = None
        for u, cu in x.items():
            if nu is None:
                nu = self.word_degree(u)
            for w, cw in y.items():
                if len(u) == len(w):
                    total = total + cu * cw * qv(self._gtilde(u, w))
        if not total or nu is None:
            return QV_ZERO
        clear = LaurentPoly({0: 1})
        for p, n in enumerate(nu):
            factor = LaurentPoly({0: 1}) - LaurentPoly({-2 * self._d[p]: 1})
            for _ in range(n):
                clear = clear * factor
        return total / qv(clear)


class FElement(LinearCombination):
    """Reduced coordinates on the basis words of one graded piece.  A zero
    of one degree adds to an element of another; two nonzero elements of
    different degrees do not add."""

    __slots__ = ("nu",)

    def __init__(self, algebra: FAlgebra, nu, coords: Mapping[PlainWord, QVScalar]):
        super().__init__(algebra, coords)
        self.nu = algebra.degree(nu)

    def _like(self, coords) -> "FElement":
        return FElement(self.algebra, self.nu, coords)

    def __add__(self, other: "FElement") -> "FElement":
        if self.algebra is other.algebra and self.nu != other.nu:
            if not self.coords:
                return other
            if not other.coords:
                return self
            raise ValueError("sum of distinct degrees")
        return super().__add__(other)

    def __mul__(self, other: "FElement") -> "FElement":
        if self.algebra is not other.algebra:
            raise ValueError("elements of different algebras")
        alg = self.algebra
        nu = tuple(a + b for a, b in zip(self.nu, other.nu))
        prod: dict[PlainWord, QVScalar] = {}
        for u, cu in self.coords.items():
            for w, cw in other.coords.items():
                _add_into(prod, u + w, cu * cw)
        return FElement(alg, nu, alg.component(nu).reduce(prod))

    def bar(self) -> "FElement":
        return self._like({w: scalar_bar(c) for w, c in self.coords.items()})

    def __repr__(self):
        return f"FElement({render_felement(self)})"

    def coordinate_vector(self) -> list[QVScalar]:
        comp = self.algebra.component(self.nu)
        return [self.coords.get(w, QV_ZERO) for w in comp.basis]


def felement(algebra: FAlgebra, nu, coords: Mapping[PlainWord, QVScalar]) -> FElement:
    nu = algebra.degree(nu)
    return FElement(algebra, nu, algebra.component(nu).reduce(dict(coords)))


def one(algebra: FAlgebra) -> FElement:
    return FElement(algebra, (0,) * algebra.rank, {(): QV_ONE})


def theta(algebra: FAlgebra, i, n: int = 1) -> FElement:
    """The n-th divided power of a generator."""
    p = algebra.position(i)
    nu = tuple(n if k == p else 0 for k in range(algebra.rank))
    c = QV_ONE / quantum_factorial(n, algebra._d[p])
    return felement(algebra, nu, {(p,) * n: c})


def serre_relator(algebra: FAlgebra, i, j) -> FElement:
    """The defining relator; reducing it must give zero."""
    plain = algebra.serre_relator_words(i, j)
    nu = algebra.word_degree(next(iter(plain)))
    return felement(algebra, nu, plain)


def graded_basis(algebra: FAlgebra, nu) -> GradedComponent:
    """The cached component, cross-checked against the bilinear form: its
    relation span must be the kernel of the form on words."""
    comp = algebra.component(nu)
    words, rewrite = comp.words, comp.rewrite
    gt = algebra._gtilde
    gram_dim = len(words) - rank([{w: g for w in words if (g := qv(gt(u, w)))}
                                  for u in words])
    if gram_dim != len(rewrite):
        raise AssertionError(
            f"form kernel and relation span disagree at {comp.nu}: "
            f"{gram_dim} vs {len(rewrite)}")
    for lead, tail in rewrite.items():
        for u in words:
            val = sum((c * qv(gt(u, w)) for w, c in tail.items()), QV_ZERO)
            if val != qv(gt(u, lead)):
                raise AssertionError(
                    f"relation row escapes the form kernel at {comp.nu}")
    return comp


def bar(x: FElement) -> FElement:
    return x.bar()


def bilinear_form(x: FElement, y: FElement) -> QVScalar:
    if x.nu != y.nu:
        return QV_ZERO
    return x.algebra.form_plain(x.coords, y.coords)


def brace_form(x: FElement, y: FElement) -> QVScalar:
    """{x, y} = conjugate of (bar x, bar y)."""
    return scalar_bar(bilinear_form(x.bar(), y.bar()))


# --- the coproduct ----------------------------------------------------------

class TensorElement(LinearCombination):
    """Combination of basis-word pairs; multiplication twists by
    v^(|y| . |x'|) when (x (x) y)(x' (x) y') is formed."""

    __slots__ = ()

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        alg = self.algebra
        out: dict[tuple[PlainWord, PlainWord], QVScalar] = {}
        for (al, ar), ca in self.coords.items():
            for (bl, br), cb in other.coords.items():
                twist = alg.degree_dot(alg.word_degree(ar), alg.word_degree(bl))
                left, right = alg.reduce_word(al + bl), alg.reduce_word(ar + br)
                _add_outer(out, (ca * cb).shift(twist), left, right)
        return TensorElement(alg, out)

    def bar(self) -> "TensorElement":
        return self._like({k: scalar_bar(c) for k, c in self.coords.items()})

    def component(self, tau, omega) -> "TensorElement":
        alg = self.algebra
        tau, omega = alg.degree(tau), alg.degree(omega)
        return self._like({
            (wl, wr): c for (wl, wr), c in self.coords.items()
            if alg.word_degree(wl) == tau and alg.word_degree(wr) == omega})


def tensor(x: FElement, y: FElement) -> TensorElement:
    out: dict[tuple[PlainWord, PlainWord], QVScalar] = {}
    _add_outer(out, QV_ONE, x.coords, y.coords)
    return TensorElement(x.algebra, out)


def coproduct_r(x: FElement) -> TensorElement:
    """The algebra map with r(theta_i) = theta_i (x) 1 + 1 (x) theta_i.  A
    word w splits 2^|w| ways, charged to the budget before they are made."""
    alg = x.algebra
    out: dict[tuple[PlainWord, PlainWord], QVScalar] = {}
    for w, c in x.coords.items():
        n = len(w)
        _budget.charge(1 << n)
        for mask in range(1 << n):
            twist = 0
            left: list[int] = []
            right: list[int] = []
            for k in range(n):
                if mask >> k & 1:
                    for l in range(k):
                        if not (mask >> l & 1):
                            twist += alg._dot[w[l]][w[k]]
                    left.append(w[k])
                else:
                    right.append(w[k])
            _add_outer(out, c.shift(twist), alg.reduce_word(tuple(left)),
                       alg.reduce_word(tuple(right)))
    return TensorElement(alg, out)


def r_component(x: FElement, tau, omega) -> TensorElement:
    return coproduct_r(x).component(tau, omega)


# --- the derivations r_i and the projections pi^i ---------------------------

def _derive(x: FElement, i, left: bool) -> FElement:
    """Drop each letter theta_i from each word, twisted by v^(i . w') where w'
    is the rest of the word after that letter, or before it when left."""
    alg = x.algebra
    p = alg.position(i)
    nu = list(x.nu)
    if nu[p] == 0:
        return FElement(alg, tuple(nu), {})
    nu[p] -= 1
    dot = alg._dot[p]
    out: dict[PlainWord, QVScalar] = {}
    for w, c in x.coords.items():
        before, after = 0, sum(dot[letter] for letter in w)
        for k, letter in enumerate(w):
            after -= dot[letter]
            if letter == p:
                _add_into(out, w[:k] + w[k + 1:],
                          c * v_power(before if left else after))
            before += dot[letter]
    return felement(alg, tuple(nu), out)


def r_i(x: FElement, i) -> FElement:
    """Characterized by r_i(theta_j) = delta_ij and
    r_i(xy) = v^(i.|y|) r_i(x) y + x r_i(y)."""
    return _derive(x, i, left=False)


def left_r_i(x: FElement, i) -> FElement:
    """The twin with the twist on the left factor."""
    return _derive(x, i, left=True)


def f_prime(algebra: FAlgebra, i, j, m: int) -> FElement:
    """Generators of the kernel of r_i."""
    if m < 0:
        raise ValueError("negative exponent")
    pi, pj = algebra.position(i), algebra.position(j)
    if pi == pj:
        raise ValueError("two distinct generators required")
    di = algebra._d[pi]
    plain = chain_words(pi, pj, m, algebra._dot[pi][pj] + di * (m - 1), False, di)
    nu = algebra.word_degree(next(iter(plain)))
    return felement(algebra, nu, plain)


def _projector(alg: FAlgebra, i, nu: Degree, side: str):
    """Basis data for the split of a piece into the derivation kernel plus
    generator multiples."""
    p = alg.position(i)
    key = (p, nu, side)
    got = alg._proj.get(key)
    if got is not None:
        return got
    comp = alg.component(nu)
    dim = comp.dim
    if nu[p] == 0:
        kernel = [{w: QV_ONE} for w in comp.basis]
        mult_vecs: list[dict[PlainWord, QVScalar]] = []
    else:
        sub = list(nu)
        sub[p] -= 1
        sub = tuple(sub)
        gen = theta(alg, i)
        mult_vecs = []
        for w in alg.component(sub).basis:
            b = FElement(alg, sub, {w: QV_ONE})
            m = b * gen if side == "right" else gen * b
            mult_vecs.append(m.coords)
        deriv = r_i if side == "right" else left_r_i
        imgs = [deriv(FElement(alg, nu, {w: QV_ONE}), i).coords for w in comp.basis]
        kernel = [{comp.basis[c]: x for c, x in rel.items()}
                  for rel in nullspace(imgs, QV_ONE)]
        if len(kernel) + len(mult_vecs) != dim \
                or rank(kernel + mult_vecs) != dim:
            raise AssertionError(
                f"kernel and generator multiples do not split the piece at {nu}")
    data = (kernel, mult_vecs)
    alg._proj[key] = data
    return data


def pi_i(x: FElement, i) -> FElement:
    """Projection onto the kernel of r_i along right multiples of theta_i."""
    return _project(x, i, "right")


def left_pi_i(x: FElement, i) -> FElement:
    """Projection onto the kernel of left_r_i along left multiples of theta_i."""
    return _project(x, i, "left")


def _project(x: FElement, i, side: str) -> FElement:
    kernel, mult = _projector(x.algebra, i, x.nu, side)
    sol, _ = solve(kernel + mult, x.coords, QV_ONE)
    if sol is None:
        raise AssertionError("piece decomposition failed to split the element")
    out: dict[PlainWord, QVScalar] = {}
    for k, c in sol.items():
        if k < len(kernel):
            for w, a in kernel[k].items():
                _add_into(out, w, c * a)
    return FElement(x.algebra, x.nu, out)


def f_i_membership(x: FElement, i) -> bool:
    return r_i(x, i).is_zero()


def left_f_i_membership(x: FElement, i) -> bool:
    return left_r_i(x, i).is_zero()


# --- embeddings from a contracted datum -------------------------------------

def merged_expansion(target: FAlgebra, pair: ContractiblePair, epsilon: int,
                     dagger: bool = False) -> dict[PlainWord, QVScalar]:
    """The merged generator as plain words of the pair: θ₊θ₋ − v^(−εd)θ₋θ₊,
    or for ψ† the mirror θ₋θ₊ − v^(εd)θ₊θ₋, with d that of the pair."""
    pp, pm = target.position(pair.plus), target.position(pair.minus)
    d = target._d[pp]
    if dagger:
        return {(pm, pp): QV_ONE, (pp, pm): -v_power(epsilon * d)}
    return {(pp, pm): QV_ONE, (pm, pp): -v_power(-epsilon * d)}


class FEmbedding:
    """Generator substitution from the contracted algebra: ordinary indices
    pass through, the merged one maps to a two-term quantum commutator."""

    def __init__(self, target: FAlgebra, pair: ContractiblePair, epsilon: int,
                 dagger: bool = False, merged_symbol=None,
                 source: FAlgebra | None = None):
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        self.target = target
        self.pair = pair
        self.epsilon = epsilon
        self.dagger = dagger
        merged = merged_symbol if merged_symbol is not None else pair.merged_symbol()
        self.merged = merged
        if source is None:
            source = FAlgebra(
                contract_cartan(target.cartan, pair, new_index=merged),
                target.degree_bound)
        self.source = source
        self._d0 = source.cartan.d(merged)
        self._merged_expansion = merged_expansion(target, pair, epsilon, dagger)
        self._letter_map = {}
        for s in source.cartan.indices:
            if s != merged:
                self._letter_map[source.position(s)] = target.position(s)
        self._merged_pos = source.position(merged)

    def merged_generator(self) -> FElement:
        nu = [0] * self.target.rank
        nu[self.target.position(self.pair.plus)] = 1
        nu[self.target.position(self.pair.minus)] = 1
        return felement(self.target, tuple(nu), self._merged_expansion)

    def degree_map(self, nu) -> Degree:
        nu = self.source.degree(nu)
        out = [0] * self.target.rank
        for p, n in enumerate(nu):
            if p == self._merged_pos:
                out[self.target.position(self.pair.plus)] += n
                out[self.target.position(self.pair.minus)] += n
            else:
                out[self._letter_map[p]] += n
        return tuple(out)

    def apply_plain(self, coords: Mapping[PlainWord, QVScalar]) -> dict[PlainWord, QVScalar]:
        out: dict[PlainWord, QVScalar] = {}
        for w, c in coords.items():
            terms: dict[PlainWord, QVScalar] = {(): c}
            for letter in w:
                if letter == self._merged_pos:
                    nxt: dict[PlainWord, QVScalar] = {}
                    for u, cu in terms.items():
                        for m, cm in self._merged_expansion.items():
                            _add_into(nxt, u + m, cu * cm)
                    terms = nxt
                else:
                    t = self._letter_map[letter]
                    terms = {u + (t,): cu for u, cu in terms.items()}
            for u, cu in terms.items():
                _add_into(out, u, cu)
        return out

    def apply(self, x: FElement) -> FElement:
        if x.algebra is not self.source:
            raise ValueError("element does not live in the source algebra")
        nu = self.degree_map(x.nu)
        return felement(self.target, nu, self.apply_plain(x.coords))

    def apply_raw(self, x: FElement) -> dict[PlainWord, QVScalar]:
        """Image as unreduced word coordinates; usable past the degree bound."""
        return self.apply_plain(x.coords)


def psi_epsilon(target: FAlgebra, pair: ContractiblePair, epsilon: int,
                **kw) -> FEmbedding:
    return FEmbedding(target, pair, epsilon, dagger=False, **kw)


def psi_dagger_epsilon(target: FAlgebra, pair: ContractiblePair, epsilon: int,
                       **kw) -> FEmbedding:
    return FEmbedding(target, pair, epsilon, dagger=True, **kw)


def relator_image_is_zero(emb: FEmbedding, i, j) -> bool:
    """Whether the source relator dies in the target; the homomorphism test."""
    src = serre_relator(emb.source, i, j)
    if src:
        raise AssertionError("relator fails to reduce to zero at the source")
    plain = emb.source.serre_relator_words(i, j)
    image = emb.apply_plain(plain)
    nu = emb.degree_map(emb.source.word_degree(next(iter(plain))))
    if sum(nu) <= emb.target.degree_bound:
        return not felement(emb.target, nu, image)
    # past the bound: zero iff orthogonal to every word of that degree
    words = emb.target.plain_words(nu)
    return all(not emb.target.form_plain({w: QV_ONE}, image) for w in words)


def injectivity_report(emb: FEmbedding, max_total: int) -> dict:
    """Per-piece rank certificates through the bilinear form.

    Pairing against a fixed element is well defined on the quotient, so a
    nonsingular matrix of pairings proves the images independent without
    reducing them.  The opposite-sign twin supplies the pairing partners;
    if that matrix degenerates, single words act as fallback probes.
    """
    alg, tgt = emb.source, emb.target
    twin = FEmbedding(tgt, emb.pair, -emb.epsilon, dagger=emb.dagger,
                      merged_symbol=emb.merged, source=alg)
    pieces = {}
    all_ok = True
    for nu in _degrees_up_to(alg.rank, max_total):
        comp = alg.component(nu)
        if comp.dim == 0:
            continue
        images = [emb.apply_plain({w: QV_ONE}) for w in comp.basis]
        duals = [twin.apply_plain({w: QV_ONE}) for w in comp.basis]
        gram = [{k: g for k, b in enumerate(duals) if (g := tgt.form_plain(a, b))}
                for a in images]
        got = rank(gram)
        if got < comp.dim:
            probes: list[PlainWord] = []
            seen = set()
            for img in images:
                for w in img:
                    if w not in seen:
                        seen.add(w)
                        probes.append(w)
            matrix = [{p: g for p in probes
                       if (g := tgt.form_plain({p: QV_ONE}, img))} for img in images]
            got = max(got, rank(matrix))
        pieces[nu] = {"dim": comp.dim, "rank": got}
        all_ok = all_ok and got == comp.dim
    return {"max_total_degree": max_total, "pieces": pieces, "injective": all_ok}


def theta_merged_power_identity(emb: FEmbedding, n: int) -> bool:
    """The divided power of the merged generator expands into an alternating
    sum of divided-power words of the two contracted generators."""
    alg, tgt = emb.source, emb.target
    pp, pm = emb.pair.plus, emb.pair.minus
    a, b, sign = (pp, pm, 1) if emb.dagger else (pm, pp, -1)
    return emb.apply(theta(alg, emb.merged, n)) == chain_sum(
        lambda k: theta(tgt, a, k), theta(tgt, b, n), n,
        sign * emb.epsilon * emb._d0, True)


def p_bar_check(emb: FEmbedding, x: FElement) -> bool:
    """bar of the image equals the opposite-sign embedding of bar."""
    sibling = FEmbedding(emb.target, emb.pair, -emb.epsilon, dagger=emb.dagger,
                         merged_symbol=emb.merged, source=emb.source)
    return emb.apply(x).bar() == sibling.apply(x.bar())


def restriction_compat_check(emb: FEmbedding, nu, tau, omega) -> dict:
    """The coproduct intertwines the embedding, with bar conjugation on the
    side where the plain identity fails."""
    alg, tgt = emb.source, emb.target
    nu, tau, omega = alg.degree(nu), alg.degree(tau), alg.degree(omega)
    if tuple(a + b for a, b in zip(tau, omega)) != nu:
        raise ValueError("bidegree does not sum to the total degree")
    t_img, o_img = emb.degree_map(tau), emb.degree_map(omega)
    plain = (emb.epsilon == 1) != emb.dagger
    results = []
    for w in alg.component(nu).basis:
        x = FElement(alg, nu, {w: QV_ONE})
        if plain:
            lhs = coproduct_r(emb.apply(x)).component(t_img, o_img)
            inner = r_component(x, tau, omega)
        else:
            lhs = coproduct_r(emb.apply(x).bar()).bar().component(t_img, o_img)
            inner = coproduct_r(x.bar()).bar().component(tau, omega)
        rhs_coords: dict[tuple[PlainWord, PlainWord], QVScalar] = {}
        for (wl, wr), c in inner.coords.items():
            _add_outer(rhs_coords, c, emb.apply(FElement(alg, tau, {wl: QV_ONE})).coords,
                       emb.apply(FElement(alg, omega, {wr: QV_ONE})).coords)
        results.append(lhs == TensorElement(tgt, rhs_coords))
    return {"nu": nu, "tau": tau, "omega": omega, "conjugated": not plain,
            "dagger": emb.dagger, "epsilon": emb.epsilon,
            "holds": all(results), "dimension": len(results)}


def form_compat_check(x: FElement, y: FElement, target: FAlgebra,
                      pair: ContractiblePair, epsilon: int,
                      merged_symbol=None) -> dict:
    """The five displayed form identities between the two algebras."""
    alg = x.algebra
    kw = {"merged_symbol": merged_symbol, "source": alg}
    psi = {e: FEmbedding(target, pair, e, **kw) for e in (1, -1)}
    dag = {e: FEmbedding(target, pair, e, dagger=True, **kw) for e in (1, -1)}
    e = epsilon

    def tgt_brace(a, b):
        return scalar_bar(target.form_plain(
            {w: scalar_bar(c) for w, c in a.items()},
            {w: scalar_bar(c) for w, c in b.items()}))

    base = bilinear_form(x, y)
    brace = brace_form(x, y)
    out = {"epsilon": e}
    out["adjoint_pair"] = (
        base == target.form_plain(psi[e].apply_raw(x), psi[-e].apply_raw(y))
        == target.form_plain(dag[e].apply_raw(x), dag[-e].apply_raw(y)))
    if e == 1:
        out["same_sign"] = (
            base == target.form_plain(psi[1].apply_raw(x), psi[1].apply_raw(y))
            == target.form_plain(dag[-1].apply_raw(x), dag[-1].apply_raw(y)))
    else:
        out["same_sign_brace"] = (
            brace == tgt_brace(psi[-1].apply_raw(x), psi[-1].apply_raw(y))
            == tgt_brace(dag[1].apply_raw(x), dag[1].apply_raw(y)))
    if x.nu == y.nu:
        merged = merged_symbol if merged_symbol is not None else pair.merged_symbol()
        n0 = x.nu[alg.position(merged)]
        d0 = alg.cartan.d(merged)
        # the twisted images rescale the form by v^{2*n0*d0} (and the brace
        # by its inverse); both sides below put the factor on the image form
        if e == -1:
            out["scaled"] = (
                base == v_power(-2 * n0 * d0)
                * target.form_plain(psi[-1].apply_raw(x), psi[-1].apply_raw(y)))
            out["scaled_dagger"] = (
                base == v_power(-2 * n0 * d0)
                * target.form_plain(dag[1].apply_raw(x), dag[1].apply_raw(y)))
        else:
            out["scaled_brace"] = (
                brace == v_power(2 * n0 * d0)
                * tgt_brace(psi[1].apply_raw(x), psi[1].apply_raw(y)))
            out["scaled_brace_dagger"] = (
                brace == v_power(2 * n0 * d0)
                * tgt_brace(dag[-1].apply_raw(x), dag[-1].apply_raw(y)))
    out["holds"] = all(v for k, v in out.items() if k != "epsilon")
    return out


def bar_comp_check(emb: FEmbedding, nu) -> dict:
    """Whether the two projected composites intertwine the bar involutions.

    The plain embedding is followed either by the right projection at
    ``pair.plus`` or by the left projection at ``pair.minus``; the dagger
    embedding mirrors this (right projection at ``pair.minus``, left at
    ``pair.plus``).  Compatibility is checked on every basis monomial of the
    source piece; since monomials are bar-fixed, each amounts to the image
    being fixed by the projected bar map.  With a rank-one source both sides
    hold.  Once the source piece has a second generator, a side can fail:
    the one projecting at a pair endpoint whose outside neighbour occurs in
    the piece (a plain letter next to the merged letter breaks it).  On A3
    exactly one side holds; on the middle edge of A4 with both outside
    neighbours present neither does.  So each side is its own verdict and
    ``holds`` needs both.
    """
    alg = emb.source
    nu = alg.degree(nu)
    right_i = emb.pair.minus if emb.dagger else emb.pair.plus
    left_i = emb.pair.plus if emb.dagger else emb.pair.minus
    right_ok = True
    left_ok = True
    for w in alg.component(nu).basis:
        img = emb.apply(FElement(alg, nu, {w: QV_ONE}))
        if right_ok and pi_i(img.bar(), right_i) != pi_i(img, right_i):
            right_ok = False
        if left_ok and left_pi_i(img.bar(), left_i) != left_pi_i(img, left_i):
            left_ok = False
        if not (right_ok or left_ok):
            break
    return {"nu": nu, "epsilon": emb.epsilon, "dagger": emb.dagger,
            "right_projection": right_ok, "left_projection": left_ok,
            "holds": right_ok and left_ok}


def _degrees_up_to(rank: int, max_total: int) -> Iterable[Degree]:
    def grow(prefix, left):
        if len(prefix) == rank:
            yield tuple(prefix)
            return
        for n in range(left + 1):
            yield from grow(prefix + [n], left - n)
    yield from grow([], max_total)


# --- rendering and parsing ---------------------------------------------------

def render_felement(x: FElement) -> str:
    if not x.coords:
        return "0"
    alg = x.algebra
    parts = []
    for w in sorted(x.coords):
        sym = ",".join(str(alg.cartan.indices[p]) for p in w)
        parts.append(f"({render_scalar(x.coords[w])})*[{sym}]")
    return " + ".join(parts)


def parse_felement(algebra: FAlgebra, text: str) -> FElement:
    text = text.strip()
    if text == "0":
        return one(algebra).scale(0)
    coords: dict[PlainWord, QVScalar] = {}
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith("]")):
            raise ValueError(f"malformed term: {chunk!r}")
        close = chunk.rindex(")*[")
        c = parse_scalar(chunk[1:close])
        body = chunk[close + 3:-1]
        letters = tuple(algebra.position(_coerce_symbol(algebra, s.strip()))
                        for s in body.split(",")) if body else ()
        _add_into(coords, letters, c)
    if not coords:
        return one(algebra).scale(0)
    nu = algebra.word_degree(next(iter(coords)))
    return felement(algebra, nu, coords)


def _coerce_symbol(algebra: FAlgebra, s: str):
    for sym in algebra.cartan.indices:
        if str(sym) == s:
            return sym
    raise KeyError(s)


# --- the split subquotient ---------------------------------------------------

def subquotient_f(target: FAlgebra, pair: ContractiblePair, max_total: int,
                  merged_symbol=None, epsilon: int = 1) -> dict:
    """Per graded piece: the subalgebra spanned by words in the untouched
    generators and the two products of the contracted ones, the counit-style
    quotient onto the contracted algebra, its kernel versus the two-sided
    ideal of the wrong-order product, and the split against the embedding."""
    merged = merged_symbol if merged_symbol is not None else pair.merged_symbol()
    emb = FEmbedding(target, pair, epsilon, merged_symbol=merged)
    src = emb.source
    report = {"pieces": {}, "holds": True}
    for nu_hat in _degrees_up_to(src.rank, max_total):
        nu = emb.degree_map(nu_hat)
        vecs, imgs = _token_span(emb, nu)
        sub_dim = rank(vecs)
        # the quotient map on spanning words, checked well defined on relations
        well_defined = True
        for rel in nullspace(vecs, QV_ONE):
            acc: dict[PlainWord, QVScalar] = {}
            for k, c in rel.items():
                if imgs[k] is not None:
                    _add_into(acc, imgs[k], c)
            if acc and felement(src, nu_hat, acc):
                well_defined = False
        # image dimension and kernel of the quotient on the subalgebra piece
        scomp = src.component(nu_hat)
        j_rank = rank([felement(src, nu_hat, {img: QV_ONE}).coords
                       for img in imgs if img is not None])
        ker_dim = sub_dim - j_rank
        # token words with a wrong-order factor span the candidate ideal;
        # they map to zero, so the ideal sits inside the kernel already
        ideal_vecs = _ideal_vecs(vecs, imgs)
        ideal_dim = rank(ideal_vecs)
        # split: the quotient inverts the embedding
        split_ok = True
        for w in scomp.basis:
            x = FElement(src, nu_hat, {w: QV_ONE})
            back = _apply_quotient(src, nu_hat, vecs, imgs, emb.apply(x))
            if back is None or back != x:
                split_ok = False
        piece_ok = (well_defined and ker_dim == ideal_dim and split_ok
                    and j_rank == scomp.dim)
        report["pieces"][nu_hat] = {
            "subalgebra_dim": sub_dim,
            "quotient_rank": j_rank,
            "kernel_dim": ker_dim,
            "ideal_dim": ideal_dim,
            "well_defined": well_defined,
            "split": split_ok,
            "holds": piece_ok,
        }
        report["holds"] = report["holds"] and piece_ok
    return report


def _quotient_tokens(emb: FEmbedding) -> list:
    """Generator tokens of the subalgebra, as (target word, image word in the
    contracted algebra or None).  Untouched generators pass through; the
    product of the pair in the embedding's order maps to the merged generator
    and the other order to zero (mirrored for the dagger embedding)."""
    target, src = emb.target, emb.source
    tokens = [((target.position(s),), (src.position(s),))
              for s in src.cartan.indices if s != emb.merged]
    pp, pm = target.position(emb.pair.plus), target.position(emb.pair.minus)
    kept, killed = ((pm, pp), (pp, pm)) if emb.dagger else ((pp, pm), (pm, pp))
    tokens.append((kept, (emb._merged_pos,)))
    tokens.append((killed, None))
    return tokens


def _token_words(tokens, target: FAlgebra, nu: Degree) -> list:
    """All token sequences whose concatenated target degree is nu, each as
    (concatenated target word, concatenated image word or None)."""
    out = []

    def grow(word, img, deg):
        if deg == nu:
            out.append((word, img))
            return
        for t, im in tokens:
            nxt = list(deg)
            ok = True
            for p in t:
                nxt[p] += 1
                if nxt[p] > nu[p]:
                    ok = False
            if ok:
                grow(word + t, None if (img is None or im is None) else img + im,
                     tuple(nxt))

    grow((), (), (0,) * target.rank)
    return out


def _token_span(emb: FEmbedding, nu: Degree) -> tuple[list, list]:
    """Coordinate vectors of the degree-nu token words, with their images
    under the quotient (None for words in the ideal)."""
    target = emb.target
    words = _token_words(_quotient_tokens(emb), target, nu)
    vecs = [felement(target, nu, {w: QV_ONE}).coords for w, _ in words]
    return vecs, [img for _, img in words]


def _ideal_vecs(vecs, imgs) -> list:
    """The token words holding a wrong-order factor: the ideal's spanning set."""
    return [vec for vec, img in zip(vecs, imgs) if img is None]


def _apply_quotient(src: FAlgebra, nu_hat, vecs, imgs, x: FElement):
    """Express x in token words, then push through the token images; None
    when x lies outside the subalgebra."""
    if not vecs:
        return None
    sol, _ = solve(vecs, x.coords, QV_ONE)
    if sol is None:
        return None
    acc: dict[PlainWord, QVScalar] = {}
    for k, c in sol.items():
        if imgs[k] is not None:
            _add_into(acc, imgs[k], c)
    return felement(src, nu_hat, acc)


# --- canonical bases (finite type) -------------------------------------------

def _longest_positions(cartan: CartanDatum) -> tuple[int, ...]:
    """Reduced word for the longest Weyl element, as generator positions,
    found by reflecting a strictly dominant weight until it is antidominant."""
    if not cartan.is_finite_type():
        raise ValueError("finite type required")
    n = len(cartan.indices)
    rows = [[cartan.cartan_entry(cartan.indices[p], cartan.indices[q])
             for q in range(n)] for p in range(n)]
    lam = [1] * n
    word: list[int] = []
    while True:
        p = next((k for k in range(n) if lam[k] > 0), None)
        if p is None:
            return tuple(word)
        word.append(p)
        c = lam[p]
        for q in range(n):
            lam[q] -= c * rows[q][p]


def _pbw_data(algebra: FAlgebra) -> tuple:
    """Positive roots in the convex order of one reduced word, with their
    root vectors built by the raising-part braid operators; memoized."""
    if algebra._pbw is not None:
        return algebra._pbw
    from .cartan import simply_connected_datum
    from .uq import UAlgebra, braid_basic, e_gen

    cartan = algebra.cartan
    n = algebra.rank
    rows = [[cartan.cartan_entry(cartan.indices[p], cartan.indices[q])
             for q in range(n)] for p in range(n)]
    word = _longest_positions(cartan)
    betas: list[Degree] = []
    for k, p in enumerate(word):
        x = [0] * n
        x[p] = 1
        for t in reversed(word[:k]):
            x[t] -= sum(rows[t][r] * x[r] for r in range(n))
        if any(c < 0 for c in x):
            raise AssertionError("reduced word produced a negative root")
        betas.append(tuple(x))
    if len(set(betas)) != len(betas):
        raise AssertionError("reduced word repeated a root")
    if max(sum(b) for b in betas) > algebra.degree_bound:
        raise ValueError("degree bound below the highest root")
    amb = UAlgebra(simply_connected_datum(cartan), algebra.degree_bound)
    ops = [braid_basic(amb, cartan.indices[p], -1, True) for p in range(n)]
    vectors: list[FElement] = []
    for k, p in enumerate(word):
        x = e_gen(amb, cartan.indices[p])
        for t in reversed(word[:k]):
            x = ops[t].apply(x)
        coords: dict[PlainWord, QVScalar] = {}
        for (ew, mu, fw), c in x.coords.items():
            if fw or any(mu):
                raise AssertionError("root vector left the raising part")
            coords[ew] = c
        vectors.append(felement(algebra, betas[k], coords))
    d_half = tuple(algebra.degree_dot(b, b) // 2 for b in betas)
    algebra._pbw = (word, tuple(betas), tuple(vectors), d_half)
    return algebra._pbw


def pbw_monomials(algebra: FAlgebra, nu) -> list[tuple[tuple[int, ...], FElement]]:
    """Divided-power root-vector monomials of one degree, with exponents."""
    _, betas, vectors, d_half = _pbw_data(algebra)
    nu = algebra.degree(nu)
    expos: list[tuple[int, ...]] = []

    def grow(k: int, left: tuple[int, ...], acc: list[int]) -> None:
        if k == len(betas):
            if not any(left):
                expos.append(tuple(acc))
            return
        beta = betas[k]
        top = min(left[s] // beta[s] for s in range(len(left)) if beta[s])
        for m in range(top + 1):
            grow(k + 1, tuple(a - m * b for a, b in zip(left, beta)),
                 acc + [m])

    grow(0, nu, [])
    out = []
    for a in expos:
        el = one(algebra)
        for k, m in enumerate(a):
            if not m:
                continue
            power = vectors[k]
            for _ in range(m - 1):
                power = power * vectors[k]
            el = el * power.scale(QV_ONE / quantum_factorial(m, d_half[k]))
        out.append((a, el))
    return out


def canonical_basis(algebra: FAlgebra, nu) -> list[FElement]:
    """Bar-invariant basis of one graded piece: root-vector monomials, the
    triangular bar transition, and the unitriangular correction with strictly
    negative-power coefficients.  Each output is re-verified against the
    three characterizing conditions (integral coordinates, bar invariance,
    norm in 1 + v^-1 times power series)."""
    nu = algebra.degree(nu)
    if not algebra.cartan.is_finite_type():
        raise ValueError("finite type required")
    monos = pbw_monomials(algebra, nu)
    comp = algebra.component(nu)
    if len(monos) != comp.dim:
        raise AssertionError("monomial count differs from the graded dimension")
    if not monos:
        return []
    n = len(monos)
    vecs = [el.coords for _, el in monos]
    trans: list[dict[int, QVScalar]] = []
    for _, el in monos:
        sol, _ = solve(vecs, el.bar().coords, QV_ONE)
        if sol is None:
            raise AssertionError("root-vector monomials are not a basis")
        trans.append(sol)
    for col in range(n):
        if trans[col].get(col) != QV_ONE:
            raise AssertionError("bar transition is not unipotent")

    done: list[int] = []
    state = [0] * n

    def visit(col: int) -> None:
        if state[col] == 2:
            return
        if state[col] == 1:
            raise AssertionError("bar transition is not triangular")
        state[col] = 1
        for k in trans[col]:
            if k != col:
                visit(k)
        state[col] = 2
        done.append(col)

    for col in range(n):
        visit(col)

    in_pbw: dict[int, dict[int, QVScalar]] = {}
    elements: dict[int, FElement] = {}
    seen: list[int] = []
    for col in done:
        rest = {k: c for k, c in trans[col].items() if k != col}
        el = monos[col][1]
        coords = {col: QV_ONE}
        for idx in reversed(seen):
            c = rest.pop(idx, QV_ZERO)
            if not c:
                continue
            if scalar_bar(c) != QV_ZERO - c:
                raise AssertionError("correction source is not antisymmetric")
            p = laurent_negative_part(c)
            if not p:
                continue
            el = el + elements[idx].scale(p)
            for k2, c2 in in_pbw[idx].items():
                _add_into(coords, k2, p * c2)
            for k2, c2 in in_pbw[idx].items():
                if k2 != idx:
                    _add_into(rest, k2, QV_ZERO - c * c2)
        if rest:
            raise AssertionError("correction escaped the processed prefix")
        in_pbw[col] = coords
        elements[col] = el
        seen.append(col)

    for col in range(n):
        b = elements[col]
        if b.bar() != b:
            raise AssertionError("output is not bar invariant")
        for c in in_pbw[col].values():
            if not is_integer_laurent(c):
                raise AssertionError("output left the integral form")
        if not in_one_plus_vinv(bilinear_form(b, b)):
            raise AssertionError("output norm is not almost one")
    order = sorted(range(n), key=lambda j: monos[j][0], reverse=True)
    return [elements[col] for col in order]


def b_emb_check(target: FAlgebra, pair: ContractiblePair, nu_hat,
                epsilon: int) -> dict:
    """Canonical-basis images through the subquotient, for psi and psi_dagger.

    For each embedding the ideal is spanned by the token words holding the
    pair product in the order that embedding sends to zero (see
    ``_quotient_tokens``).  ``holds`` says, for both embeddings, that every
    source canonical-basis element maps, modulo that ideal, to exactly one
    target canonical-basis element, that distinct source elements reach
    distinct ones, and that the quotient sends each target canonical-basis
    element lying in the subalgebra to a source canonical-basis element or
    to zero.  ``failures`` lists the breaches, each with its witness.

    The four single-index projected containments (a projected image lies
    among the nonzero projections of the target basis) are reported one by
    one under ``projected``, each with its own verdict and failures, and
    ``checked`` counts them.  They are not part of ``holds``: once the source
    piece has a second generator, the containments projecting at a pair
    endpoint whose outside neighbour occurs in the piece fail, on the same
    data where ``bar_comp_check`` finds that composite not bar compatible.
    """
    plus = psi_epsilon(target, pair, epsilon)
    dagger = psi_dagger_epsilon(target, pair, epsilon, source=plus.source)
    src = plus.source
    nu_hat = src.degree(nu_hat)
    nu = plus.degree_map(nu_hat)
    basis_hat = canonical_basis(src, nu_hat)
    basis_tgt = canonical_basis(target, nu)
    failures: list[dict] = []
    for name, emb in (("psi", plus), ("psi_dagger", dagger)):
        failures += _subquotient_basis_failures(name, emb, nu_hat, nu,
                                                basis_hat, basis_tgt)
    variants = (
        ("pi[plus] o psi", plus, pi_i, pair.plus),
        ("left_pi[minus] o psi", plus, left_pi_i, pair.minus),
        ("pi[minus] o psi_dagger", dagger, pi_i, pair.minus),
        ("left_pi[plus] o psi_dagger", dagger, left_pi_i, pair.plus),
    )
    projected = {}
    for label, emb, proj, sym in variants:
        allowed = [proj(b, sym) for b in basis_tgt]
        allowed = [c for c in allowed if not c.is_zero()]
        missed = []
        for b in basis_hat:
            img = proj(emb.apply(b), sym)
            if not any(img == c for c in allowed):
                missed.append({"element": render_felement(b),
                               "image": render_felement(img)})
        projected[label] = {"holds": not missed, "failures": missed}
    return {"checked": len(variants) * len(basis_hat), "holds": not failures,
            "failures": failures, "projected": projected,
            "source_size": len(basis_hat), "target_size": len(basis_tgt)}


def _subquotient_basis_failures(name: str, emb: FEmbedding, nu_hat, nu,
                                basis_hat, basis_tgt) -> list[dict]:
    """Breaches of the subquotient form of the canonical-basis statement for
    one embedding; the ideal is reduced once, and congruence is equality of
    the reduced coordinate vectors."""
    vecs, imgs = _token_span(emb, nu)
    ideal = rref(_ideal_vecs(vecs, imgs))
    residues = [residue(ideal, b.coords) for b in basis_tgt]
    failures = []
    reached: dict[int, FElement] = {}
    for b_hat in basis_hat:
        img = emb.apply(b_hat)
        r = residue(ideal, img.coords)
        matches = [k for k, rb in enumerate(residues) if rb == r]
        witness = {"embedding": name, "element": render_felement(b_hat),
                   "image": render_felement(img)}
        if len(matches) != 1:
            failures.append({"condition": "congruent to one basis element",
                             "matches": len(matches), **witness})
        elif matches[0] in reached:
            failures.append({"condition": "distinct basis elements",
                             "shared_with": render_felement(reached[matches[0]]),
                             **witness})
        else:
            reached[matches[0]] = b_hat
    for b in basis_tgt:
        q = _apply_quotient(emb.source, nu_hat, vecs, imgs, b)
        if q is not None and not q.is_zero() and not any(q == c for c in basis_hat):
            failures.append({"condition": "quotient into basis or zero",
                             "embedding": name, "element": render_felement(b),
                             "image": render_felement(q)})
    return failures
