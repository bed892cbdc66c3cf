"""Cartan data, root data, Weyl groups and root systems, together with the
edge-contraction operation that merges a contractible pair of indices into a
single index and the induced embedding of Weyl groups.
"""
from __future__ import annotations

import operator
from typing import Hashable, Iterable, Mapping, Sequence

from . import _budget

Symbol = Hashable
Vector = tuple[int, ...]


class Record:
    """Immutable value record: the fields are a subclass's own annotations,
    set positionally before ``__post_init__``.  Equality needs the exact
    type; the hash is the field tuple's, so a dict field makes it unhashable."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._values = operator.attrgetter(*cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} "
                            f"fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable record")


# --- Cartan data ---------------------------------------------------------

class CartanDatum(Record):
    """Finite index set with a symmetric integer pairing i.j."""

    indices: tuple[Symbol, ...]
    pairing: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.indices)
        if len(set(self.indices)) != n:
            raise ValueError("duplicate indices")
        if len(self.pairing) != n or any(len(r) != n for r in self.pairing):
            raise ValueError("pairing matrix shape does not match the index set")
        for a in range(n):
            for b in range(n):
                if self.pairing[a][b] != self.pairing[b][a]:
                    raise ValueError(f"pairing not symmetric at {(a, b)}")

    def position(self, i: Symbol) -> int:
        return self.indices.index(i)

    def dot(self, i: Symbol, j: Symbol) -> int:
        return self.pairing[self.position(i)][self.position(j)]

    def d(self, i: Symbol) -> int:
        """Half the diagonal entry: i.i/2."""
        return self.dot(i, i) // 2

    def cartan_entry(self, i: Symbol, j: Symbol) -> int:
        """a_ij = 2(i.j)/(i.i)."""
        num = 2 * self.dot(i, j)
        den = self.dot(i, i)
        if num % den:
            raise ValueError(f"2({i}.{j})/({i}.{i}) is not an integer")
        return num // den

    def is_finite_type(self) -> bool:
        """Positive definiteness of the pairing, by leading principal minors."""
        n = len(self.indices)
        for k in range(1, n + 1):
            sub = [r[:k] for r in self.pairing[:k]]
            if _det(sub) <= 0:
                return False
        return True

    def to_json(self) -> dict:
        return {"indices": list(self.indices), "pairing": [list(r) for r in self.pairing]}

    @staticmethod
    def from_json(data: Mapping) -> CartanDatum:
        return CartanDatum(tuple(data["indices"]),
                           tuple(tuple(int(x) for x in r) for r in data["pairing"]))


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by Bareiss' fraction-free elimination
    (Math. Comp. 22, 1968): each entry it makes is a minor, so each division is exact."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        top, p = m[c], m[c][c]
        for i in range(c + 1, n):
            r = m[i]
            m[i] = [0] * (c + 1) + [(p * r[j] - r[c] * top[j]) // prev
                                    for j in range(c + 1, n)]
        prev = p
    return sign * prev


def validate_cartan(datum: CartanDatum) -> tuple[bool, list[str]]:
    """Check the defining conditions; returns (ok, diagnostics)."""
    bad: list[str] = []
    for i in datum.indices:
        d = datum.dot(i, i)
        if d <= 0 or d % 2:
            bad.append(f"{i}.{i} = {d} is not a positive even integer")
    for a, i in enumerate(datum.indices):
        dii = datum.dot(i, i)
        if dii <= 0 or dii % 2:
            continue
        for j in datum.indices[a + 1:]:
            x = datum.dot(i, j)
            if x > 0:
                bad.append(f"{i}.{j} = {x} is positive")
            elif (2 * x) % dii:
                bad.append(f"2({i}.{j})/({i}.{i}) = {2 * x}/{dii} is not an integer")
            djj = datum.dot(j, j)
            if djj > 0 and djj % 2 == 0 and x <= 0 and (2 * x) % djj:
                bad.append(f"2({j}.{i})/({j}.{j}) = {2 * x}/{djj} is not an integer")
    return (not bad), bad


def simply_laced_cartan(indices: Iterable[Symbol], edges: Iterable[tuple[Symbol, Symbol]]) -> CartanDatum:
    """Datum with i.i = 2 and i.j = -(number of edges between i and j)."""
    idx = tuple(indices)
    pos = {i: a for a, i in enumerate(idx)}
    m = [[0] * len(idx) for _ in idx]
    for a in range(len(idx)):
        m[a][a] = 2
    for i, j in edges:
        if i == j:
            raise ValueError(f"loop at {i}")
        m[pos[i]][pos[j]] -= 1
        m[pos[j]][pos[i]] -= 1
    return CartanDatum(idx, tuple(tuple(r) for r in m))


# --- contractible pairs and contraction ---------------------------------

class ContractiblePair(Record):
    plus: Symbol
    minus: Symbol

    def check(self, datum: CartanDatum) -> None:
        pp = datum.dot(self.plus, self.plus)
        mm = datum.dot(self.minus, self.minus)
        pm = datum.dot(self.plus, self.minus)
        if pp != mm:
            raise ValueError(f"pair condition fails: {self.plus}.{self.plus} = {pp} "
                             f"!= {self.minus}.{self.minus} = {mm}")
        if pp != -2 * pm:
            raise ValueError(f"pair condition fails: {self.plus}.{self.plus} = {pp} "
                             f"!= -2*({self.plus}.{self.minus}) = {-2 * pm}")

    def merged_symbol(self) -> str:
        return f"{self.plus}+{self.minus}"


def contract_cartan(datum: CartanDatum, pair: ContractiblePair,
                    new_index: Symbol | None = None) -> CartanDatum:
    """Replace {plus, minus} by one index carrying their sum; restrict the form."""
    pair.check(datum)
    if new_index is None:
        new_index = pair.merged_symbol()
    if new_index in datum.indices and new_index not in (pair.plus, pair.minus):
        raise ValueError(f"merged index name {new_index!r} collides")
    out_indices = tuple(new_index if i == pair.plus else i
                        for i in datum.indices if i != pair.minus)

    def dot(i: Symbol, j: Symbol) -> int:
        def unpack(k):
            return (pair.plus, pair.minus) if k == new_index else (k,)
        return sum(datum.dot(a, b) for a in unpack(i) for b in unpack(j))

    m = tuple(tuple(dot(i, j) for j in out_indices) for i in out_indices)
    out = CartanDatum(out_indices, m)
    ok, bad = validate_cartan(out)
    if not ok:
        raise AssertionError(f"contracted datum invalid: {bad}")
    return out


# --- root data -----------------------------------------------------------

class RootDatum(Record):
    """Perfect pairing on Y x X with marked simple roots and coroots."""

    cartan: CartanDatum
    pairing: tuple[tuple[int, ...], ...]          # rankY x rankX
    simple_roots_in_X: Mapping[Symbol, Vector]
    simple_coroots_in_Y: Mapping[Symbol, Vector]

    def __post_init__(self):
        ry, rx = self.rankY, self.rankX
        if ry != rx or abs(_det(self.pairing)) != 1:
            raise ValueError("pairing is not perfect")
        for i in self.cartan.indices:
            for j in self.cartan.indices:
                want = self.cartan.cartan_entry(i, j)
                got = self.pair(self.simple_coroots_in_Y[i], self.simple_roots_in_X[j])
                if got != want:
                    raise ValueError(f"<{i}, {j}'> = {got}, expected 2({i}.{j})/({i}.{i}) = {want}")

    @property
    def rankY(self) -> int:
        return len(self.pairing)

    @property
    def rankX(self) -> int:
        return len(self.pairing[0]) if self.pairing else 0

    def pair(self, y: Sequence[int], x: Sequence[int]) -> int:
        return sum(ya * sum(p * xb for p, xb in zip(row, x))
                   for row, ya in zip(self.pairing, y) if ya)

    def coroot(self, i: Symbol) -> Vector:
        return self.simple_coroots_in_Y[i]

    def root(self, i: Symbol) -> Vector:
        return self.simple_roots_in_X[i]

    def pair_index(self, i: Symbol, x: Sequence[int]) -> int:
        """<i, x> for a simple coroot i and x in X."""
        return self.pair(self.coroot(i), x)

    def is_Y_regular(self) -> bool:
        """The simple coroots are independent: det(C·Cᵀ) != 0."""
        rows = [self.coroot(i) for i in self.cartan.indices]
        return _det([[sum(a * b for a, b in zip(r, t)) for t in rows]
                     for r in rows]) != 0

    def dominant(self, x: Sequence[int]) -> bool:
        return all(self.pair_index(i, x) >= 0 for i in self.cartan.indices)

    def to_json(self) -> dict:
        return {"cartan": self.cartan.to_json(),
                "pairing": [list(r) for r in self.pairing],
                "roots_in_X": {str(i): list(self.root(i)) for i in self.cartan.indices},
                "coroots_in_Y": {str(i): list(self.coroot(i)) for i in self.cartan.indices}}


def simply_connected_datum(datum: CartanDatum) -> RootDatum:
    """Y = X = Z[I] with the identity pairing; i' = column i of the Cartan matrix."""
    n = len(datum.indices)
    eye = tuple(tuple(1 if a == b else 0 for b in range(n)) for a in range(n))
    coroots = {i: tuple(1 if b == a else 0 for b in range(n))
               for a, i in enumerate(datum.indices)}
    roots = {i: tuple(datum.cartan_entry(j, i) for j in datum.indices)
             for i in datum.indices}
    return RootDatum(datum, eye, roots, coroots)


def contract_root_datum(rd: RootDatum, pair: ContractiblePair,
                        new_index: Symbol | None = None) -> RootDatum:
    """Same Y and X; the merged index gets the sums of roots and coroots."""
    hat = contract_cartan(rd.cartan, pair, new_index)
    i0 = pair.merged_symbol() if new_index is None else new_index
    vp, vm = rd.root(pair.plus), rd.root(pair.minus)
    cp, cm = rd.coroot(pair.plus), rd.coroot(pair.minus)
    roots = {i: rd.root(i) for i in hat.indices if i != i0}
    roots[i0] = tuple(a + b for a, b in zip(vp, vm))
    coroots = {i: rd.coroot(i) for i in hat.indices if i != i0}
    coroots[i0] = tuple(a + b for a, b in zip(cp, cm))
    return RootDatum(hat, rd.pairing, roots, coroots)


# --- Weyl groups -----------------------------------------------------------

class WeylElement:
    """Integer matrix acting on Y (rows index the output basis); word advisory."""

    __slots__ = ("matrix", "word")

    def __init__(self, matrix: tuple[tuple[int, ...], ...], word: tuple[Symbol, ...] = ()):
        self.matrix = matrix
        self.word = word

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __mul__(self, other: WeylElement) -> WeylElement:
        a, b = self.matrix, other.matrix
        n = len(a)
        m = tuple(tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
                  for r in range(n))
        return WeylElement(m, self.word + other.word)

    def apply(self, y: Sequence[int]) -> Vector:
        return tuple(sum(row[k] * y[k] for k in range(len(y))) for row in self.matrix)

    def is_identity(self) -> bool:
        n = len(self.matrix)
        return all(self.matrix[r][c] == (1 if r == c else 0)
                   for r in range(n) for c in range(n))

    def __repr__(self):
        return f"WeylElement(word={list(self.word)})"


def identity_weyl(rankY: int) -> WeylElement:
    return WeylElement(tuple(tuple(1 if a == b else 0 for b in range(rankY))
                             for a in range(rankY)), ())


def simple_reflection(rd: RootDatum, i: Symbol) -> WeylElement:
    """s_i(mu) = mu - <mu, i'> i on Y."""
    if not rd.is_Y_regular():
        raise ValueError("reflections need linearly independent simple coroots")
    n = rd.rankY
    ip = rd.root(i)
    ci = rd.coroot(i)
    cols = []
    for a in range(n):
        e = [1 if b == a else 0 for b in range(n)]
        c = rd.pair(e, ip)
        cols.append(tuple(e[b] - c * ci[b] for b in range(n)))
    m = tuple(tuple(cols[c][r] for c in range(n)) for r in range(n))
    return WeylElement(m, (i,))


def weyl_group(rd: RootDatum) -> list[WeylElement]:
    """All elements, BFS over right multiplication; finite type only."""
    if not rd.cartan.is_finite_type():
        raise ValueError("full Weyl enumeration needs a finite-type datum")
    gens = {i: simple_reflection(rd, i) for i in rd.cartan.indices}
    start = identity_weyl(rd.rankY)
    seen = {start.matrix: start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for i, s in gens.items():
                _budget.charge()
                u = w * s
                if u.matrix not in seen:
                    seen[u.matrix] = u
                    nxt.append(u)
        frontier = nxt
    return list(seen.values())


def weyl_word(rd: RootDatum, word: Iterable[Symbol]) -> WeylElement:
    out = identity_weyl(rd.rankY)
    for i in word:
        out = out * simple_reflection(rd, i)
    return out


class WeylEmbedding:
    """Generators of the contracted Weyl group sent into the ambient one:
    the merged index goes to s_plus s_minus s_plus, everything else stays."""

    def __init__(self, rd: RootDatum, pair: ContractiblePair,
                 new_index: Symbol | None = None):
        self.rd = rd
        self.pair = pair
        self.contracted = contract_root_datum(rd, pair, new_index)
        self.merged = pair.merged_symbol() if new_index is None else new_index
        sp = simple_reflection(rd, pair.plus)
        sm = simple_reflection(rd, pair.minus)
        self.generator_images: dict[Symbol, WeylElement] = {
            i: simple_reflection(rd, i)
            for i in self.contracted.cartan.indices if i != self.merged}
        self.generator_images[self.merged] = sp * sm * sp

    def apply_word(self, word: Iterable[Symbol]) -> WeylElement:
        out = identity_weyl(self.rd.rankY)
        for i in word:
            out = out * self.generator_images[i]
        return out

    def apply(self, w: WeylElement) -> WeylElement:
        return self.apply_word(w.word)

    def _relations_hold(self) -> bool:
        """The generator images satisfy the Coxeter relations s_i^2 = 1 and
        (s_i s_j)^m = 1 for each finite order m of the contracted datum;
        these present the contracted Weyl group, so the map is a
        homomorphism exactly when they hold."""
        idx = self.contracted.cartan.indices
        img = self.generator_images
        for a, i in enumerate(idx):
            if not (img[i] * img[i]).is_identity():
                return False
            for j in idx[a + 1:]:
                m = _coxeter_order(self.contracted.cartan, i, j)
                if m is None:
                    continue
                w = img[i] * img[j]
                p = identity_weyl(self.rd.rankY)
                for _ in range(m):
                    p = p * w
                if not p.is_identity():
                    return False
        return True

    def verify(self, word_bound: int = 6) -> dict:
        """Check homomorphism (by relations) and injectivity; injectivity is
        exhaustive in finite type and checked on words up to word_bound
        otherwise."""
        hat = self.contracted
        hom = self._relations_hold()
        report = {"finite_type": hat.cartan.is_finite_type()}
        if report["finite_type"]:
            elements = weyl_group(hat)
            inj = len({self.apply(w).matrix for w in elements}) == len(elements)
            report.update(order=len(elements), homomorphism=hom, injective=inj)
        else:
            words = _all_words(hat.cartan.indices, word_bound)
            seen: dict = {}
            for word in words:
                _budget.charge()
                key = weyl_word(hat, word).matrix
                im = self.apply_word(word).matrix
                if seen.setdefault(key, im) != im:
                    hom = False  # map not constant on an element's words
            inj = len(set(seen.values())) == len(seen)
            report.update(homomorphism=hom, injective=inj, words_checked=len(words))
        return report


def _coxeter_order(datum: CartanDatum, i: Symbol, j: Symbol) -> int | None:
    n = datum.cartan_entry(i, j) * datum.cartan_entry(j, i)
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(n)


def _all_words(alphabet: Sequence[Symbol], max_len: int) -> list[tuple[Symbol, ...]]:
    out: list[tuple[Symbol, ...]] = [()]
    layer: list[tuple[Symbol, ...]] = [()]
    for _ in range(max_len):
        layer = [w + (a,) for w in layer for a in alphabet]
        out.extend(layer)
    return out


def weyl_embedding(rd: RootDatum, pair: ContractiblePair,
                   new_index: Symbol | None = None) -> WeylEmbedding:
    return WeylEmbedding(rd, pair, new_index)


# --- root systems ----------------------------------------------------------

def _roots_with_coefficients(rd: RootDatum,
                             height_bound: int | None) -> dict[Vector, tuple[int, ...]]:
    """W-orbit of the simple coroots inside Y (real roots only), each root
    with its integer coefficients in the simple coroots: s_i changes only
    coefficient i, by -<y, alpha_i>.

    Finite type closes on its own; otherwise a height bound is required and
    the closure keeps roots whose coefficients sum to at most the bound in
    absolute value.
    """
    if not rd.cartan.is_finite_type() and height_bound is None:
        raise ValueError("non-finite type needs a height bound")
    if not rd.is_Y_regular():
        raise ValueError("root enumeration needs linearly independent simple coroots")
    idx = rd.cartan.indices
    gens = [(k, simple_reflection(rd, i), rd.root(i)) for k, i in enumerate(idx)]
    roots = {rd.coroot(i): tuple(int(a == k) for a in range(len(idx)))
             for k, i in enumerate(idx)}
    frontier = list(roots)
    while frontier:
        nxt = []
        for y in frontier:
            for k, s, alpha in gens:
                _budget.charge()
                z = s.apply(y)
                if z in roots:
                    continue
                c = list(roots[y])
                c[k] -= rd.pair(y, alpha)
                if height_bound is None or abs(sum(c)) <= height_bound:
                    roots[z] = tuple(c)
                    nxt.append(z)
        frontier = nxt
    return roots


def enumerate_roots(rd: RootDatum, height_bound: int | None = None) -> frozenset[Vector]:
    """The real roots, up to the height bound outside finite type."""
    return frozenset(_roots_with_coefficients(rd, height_bound))


def positive_roots(rd: RootDatum, height_bound: int | None = None) -> frozenset[Vector]:
    """Roots whose simple-coroot coefficients are all nonnegative."""
    return frozenset(y for y, c in _roots_with_coefficients(rd, height_bound).items()
                     if min(c) >= 0)
