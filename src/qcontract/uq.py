"""Quantized enveloping algebra on a root datum, in triangular normal form.

Elements are linear combinations of triples (raising word, torus exponent,
lowering word), ordered raising-torus-lowering.  Products are normalized by
crossing lowering letters through raising words (producing torus terms on
matching letters), moving torus factors left, and reducing both outer words
through the graded Serre algebra.

Moving K_mu past a word w twists by v^<mu, wt w>.  ``UAlgebra.root_pairs``
memoizes <mu, alpha_p> for each simple root, so the twist is
sum(r[p] for p in w), applied with ``QVScalar.shift`` rather than a product
with a power of v.  The crossings (``_cross``), the root pairings and the
normal forms of single words (``FAlgebra.reduce_word``) are memos owned by
their algebra, the images of source triples (``UEmbedding.image``) by their
embedding, and the word images of an algebra map (``UMap``) by that map;
the algebra holds one cache of its maps (braid operators, their composites,
ω and ρ).  The dicts they return are shared and only read.

The module also provides the contraction embedding on the whole algebra, the
coproduct Δ (in closed form from f's r, so no product is normal-ordered) and
its bidegree blocks, the modified (idempotented) form, braid operators with
their contraction compatibilities, a rank probe for the subquotient
presentation, highest-weight and tensor modules, and the factorization of
contraction embeddings along linear chains of vertices.
"""
from __future__ import annotations

from operator import add, sub
from typing import Callable, Mapping, Sequence

from ._budget import charge
from ._linalg import echelon_insert, rank, rref, residue, solve
from .cartan import (CartanDatum, ContractiblePair, RootDatum,
                     contract_root_datum)
from .falg import (FAlgebra, FElement, LinearCombination, _add_into,
                   _add_outer, _degrees_up_to, canonical_basis, chain_sum, chain_words,
                   coproduct_r, felement, merged_expansion, psi_dagger_epsilon,
                   psi_epsilon, sign_power, theta)
from .scalar import (QV_ONE, QVScalar, bar as scalar_bar, qv,
                     quantum_factorial, quantum_integer, render_scalar,
                     v_power)

PlainWord = tuple[int, ...]
Degree = tuple[int, ...]
YVec = tuple[int, ...]
XVec = tuple[int, ...]
Triple = tuple[PlainWord, YVec, PlainWord]


def _neg(vec: Sequence[int]) -> tuple[int, ...]:
    return tuple(-a for a in vec)


def _vadd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def _vsub(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(sub, a, b))


class UAlgebra:
    """Ambient data: a root datum plus one shared graded Serre algebra whose
    basis words serve for both the raising and the lowering part."""

    def __init__(self, datum: RootDatum, degree_bound: int = 8):
        self.datum = datum
        self.cartan = datum.cartan
        self.f = FAlgebra(datum.cartan, degree_bound)
        self.rank = self.f.rank
        self.rank_y = datum.rankY
        self.y_zero: YVec = (0,) * self.rank_y
        self._d = tuple(self.cartan.d(s) for s in self.cartan.indices)
        self._roots = tuple(datum.root(s) for s in self.cartan.indices)
        self._coroots = tuple(datum.coroot(s) for s in self.cartan.indices)
        self._kt = tuple(tuple(self._d[p] * c for c in self._coroots[p])
                         for p in range(self.rank))
        self._cross_one_memo: dict = {}
        self._cross_memo: dict = {}
        self._root_pairs: dict[YVec, tuple[int, ...]] = {}
        self._gated: set = set()          # pairs whose braid formula gate passed
        self._modules: dict = {}          # highest weight -> HWModule
        self._maps: dict = {}             # braids, their composites, ω, ρ

    def position(self, symbol) -> int:
        return self.f.position(symbol)

    def y_vector(self, mu) -> YVec:
        mu = tuple(int(c) for c in mu)
        if len(mu) != self.rank_y:
            raise ValueError("torus exponent has the wrong length")
        return mu

    def x_vector(self, lam) -> XVec:
        lam = tuple(int(c) for c in lam)
        if len(lam) != self.datum.rankX:
            raise ValueError("weight has the wrong length")
        return lam

    def degree_in_x(self, nu: Degree) -> XVec:
        out = [0] * self.datum.rankX
        for p, n in enumerate(nu):
            if n:
                for a, c in enumerate(self._roots[p]):
                    out[a] += n * c
        return tuple(out)

    def weight_pairing(self, mu: YVec, nu: Degree) -> int:
        """Pairing of a torus exponent with the weight of a letter degree."""
        return self.datum.pair(mu, self.degree_in_x(nu))

    def root_pairs(self, mu: YVec) -> tuple[int, ...]:
        """<mu, alpha_p> for each simple root, memoized per exponent: the
        twist <mu, wt w> of a word w is sum(r[p] for p in w)."""
        r = self._root_pairs.get(mu)
        if r is None:
            r = tuple(self.datum.pair(mu, a) for a in self._roots)
            self._root_pairs[mu] = r
        return r

    def k_tilde_vector(self, i, n: int = 1) -> YVec:
        p = self.position(i)
        return tuple(n * c for c in self._kt[p])

    def reflect_y(self, p: int, mu: YVec) -> YVec:
        n = self.root_pairs(mu)[p]
        if not n:
            return mu
        return tuple(a - n * b for a, b in zip(mu, self._coroots[p]))

    # --- crossing a lowering letter through a raising word ----------------
    def _cross_one(self, i: int, ew: PlainWord) -> dict[Triple, QVScalar]:
        key = (i, ew)
        hit = self._cross_one_memo.get(key)
        if hit is not None:
            return hit
        charge(len(ew) + 1)
        if not ew:
            out: dict[Triple, QVScalar] = {((), self.y_zero, (i,)): QV_ONE}
        else:
            j, rest = ew[0], ew[1:]
            out = {}
            for (a, kv, fp), c in self._cross_one(i, rest).items():
                _add_into(out, ((j,) + a, kv, fp), c)
            if j == i:
                d = self._d[i]
                den = QV_ONE / (v_power(d) - v_power(-d))
                kt = self._kt[i]
                r = self.root_pairs(kt)
                w = sum(r[p] for p in rest)
                _add_into(out, (rest, kt, ()), (-den).shift(w))
                _add_into(out, (rest, _neg(kt), ()), den.shift(-w))
        self._cross_one_memo[key] = out
        return out

    def _cross(self, fw: PlainWord, ew: PlainWord) -> dict[Triple, QVScalar]:
        """Normal order for the product (lowering word) x (raising word)."""
        if not fw or not ew:
            return {(ew, self.y_zero, fw): QV_ONE}
        key = (fw, ew)
        hit = self._cross_memo.get(key)
        if hit is not None:
            return hit
        i, prefix = fw[-1], fw[:-1]
        out: dict[Triple, QVScalar] = {}
        for (a1, k1, f1), c1 in self._cross_one(i, ew).items():
            r = self.root_pairs(k1).__getitem__
            for (a2, k2, f2), c2 in self._cross(prefix, a1).items():
                charge()
                _add_into(out, (a2, _vadd(k1, k2), f2 + f1),
                          (c1 * c2).shift(sum(map(r, f2))))
        self._cross_memo[key] = out
        return out

    def reduce_triples(self, raw: Mapping[Triple, QVScalar]) -> dict[Triple, QVScalar]:
        """Reduce both outer words; the middle entry (a torus exponent, or a
        weight in the idempotented form) passes through."""
        out: dict[Triple, QVScalar] = {}
        reduce_word = self.f.reduce_word
        for (ew, mu, fw), c in raw.items():
            if not c:
                continue
            left, right = reduce_word(ew), reduce_word(fw)
            for a, ca in left.items():
                cl = c if ca is QV_ONE else c * ca
                for b, cb in right.items():
                    _add_into(out, (a, mu, b), cl if cb is QV_ONE else cl * cb)
        return out


class UElement(LinearCombination):
    """Combination of reduced normal-ordered triples with exact coefficients."""

    __slots__ = ()

    def __mul__(self, other: "UElement") -> "UElement":
        return u_multiply(self, other)

    def __str__(self):
        return render_uelement(self)

    def __repr__(self):
        return f"UElement({self})"


def u_element(algebra: UAlgebra, terms: Mapping[Triple, QVScalar]) -> UElement:
    fixed = {}
    for (ew, mu, fw), c in terms.items():
        fixed[(tuple(ew), algebra.y_vector(mu), tuple(fw))] = qv(c)
    return UElement._of(algebra, algebra.reduce_triples(fixed))


def u_one(algebra: UAlgebra) -> UElement:
    return UElement(algebra, {((), algebra.y_zero, ()): QV_ONE})


def e_gen(algebra: UAlgebra, i, n: int = 1) -> UElement:
    """The n-th divided power of a raising generator."""
    x = theta(algebra.f, i, n)
    return UElement(algebra, {(w, algebra.y_zero, ()): c
                              for w, c in x.coords.items()})


def f_gen(algebra: UAlgebra, i, n: int = 1) -> UElement:
    x = theta(algebra.f, i, n)
    return UElement(algebra, {((), algebra.y_zero, w): c
                              for w, c in x.coords.items()})


def k_gen(algebra: UAlgebra, mu) -> UElement:
    return UElement(algebra, {((), algebra.y_vector(mu), ()): QV_ONE})


def k_tilde_gen(algebra: UAlgebra, i, n: int = 1) -> UElement:
    return k_gen(algebra, algebra.k_tilde_vector(i, n))


def e_merged(algebra: UAlgebra, pair: ContractiblePair, epsilon: int) -> UElement:
    """Two-term quantum commutator of the raising pair generators."""
    y0 = algebra.y_zero
    return UElement._of(algebra, algebra.reduce_triples(
        {(w, y0, ()): c
         for w, c in merged_expansion(algebra.f, pair, epsilon).items()}))


def f_merged(algebra: UAlgebra, pair: ContractiblePair, epsilon: int) -> UElement:
    """Lowering-side merged generator: the mirrored (ψ†) expansion."""
    y0 = algebra.y_zero
    return UElement._of(algebra, algebra.reduce_triples(
        {((), y0, w): c
         for w, c in merged_expansion(algebra.f, pair, epsilon, True).items()}))


def k_merged_vector(algebra: UAlgebra, pair: ContractiblePair) -> YVec:
    return _vadd(algebra.k_tilde_vector(pair.plus),
                 algebra.k_tilde_vector(pair.minus))


def divided_power(x: UElement, n: int, d: int) -> UElement:
    out = u_one(x.algebra)
    for _ in range(n):
        out = u_multiply(out, x)
    return out.scale(QV_ONE / quantum_factorial(n, d))


def u_multiply(x: UElement, y: UElement) -> UElement:
    """Product of two elements in normal form.  For terms E_e1 K_m1 F_f1 and
    E_e2 K_m2 F_f2, F_f1 E_e2 crosses to terms g·E_a K_t F_b (``_cross``);
    K_m1 then moves right past E_a and K_m2 left past F_b, which twists the
    term by v^(<m1, wt a> + <m2, wt b>).  Each twist is a sum of memoized
    root pairings (``root_pairs``) applied as a shift of g, and a crossing
    coefficient that is the object QV_ONE is not multiplied.  When f1 or e2
    is empty nothing crosses, and the pair makes its one term directly."""
    if x.algebra is not y.algebra:
        raise ValueError("elements of different algebras")
    alg = x.algebra
    rp = alg.root_pairs
    ys = [(e2, m2, f2, c2, rp(m2).__getitem__)
          for (e2, m2, f2), c2 in y.coords.items()]
    raw: dict[Triple, QVScalar] = {}
    for (e1, m1, f1), c1 in x.coords.items():
        r1 = rp(m1).__getitem__
        for e2, m2, f2, c2, r2 in ys:
            charge()
            base, m12 = c1 * c2, _vadd(m1, m2)
            if not f1 or not e2:    # nothing crosses: the one term E_e2 F_f1
                _add_into(raw, (e1 + e2, m12, f1 + f2),
                          base.shift(sum(map(r1, e2)) + sum(map(r2, f1))))
                continue
            for (a, t, b), g in alg._cross(f1, e2).items():
                w = sum(map(r1, a)) + sum(map(r2, b))
                _add_into(raw, (e1 + a, _vadd(m12, t), b + f2),
                          (base if g is QV_ONE else base * g).shift(w))
    return UElement._of(alg, alg.reduce_triples(raw))


def bar_U(x: UElement) -> UElement:
    """Bar involution: fixes raising and lowering letters, negates the torus
    exponent, conjugates coefficients."""
    return UElement(x.algebra, {(ew, _neg(mu), fw): scalar_bar(c)
                                for (ew, mu, fw), c in x.coords.items()})


class UMap:
    """Algebra map from source to target, given by the images of the letters
    E_p and F_p (``letter(p, lowering)``) and a torus map mu -> mu'.  It
    sends E_ew K_mu F_fw to T(E_ew)·K_mu'·T(F_fw), or, when anti (an
    antiautomorphism), to T(F_fw)·K_mu'·T(E_ew) with each word image taken
    in reversed order.  Word images are memoized on the map."""

    def __init__(self, source: UAlgebra, target: UAlgebra,
                 letter: Callable[[int, bool], UElement],
                 y_map: Callable[[YVec], YVec], anti: bool = False):
        self.source = source
        self.target = target
        self._letter = letter
        self.y_map = y_map
        self.anti = anti
        self._words: tuple[dict, dict] = ({}, {})   # raising, lowering

    def _word_image(self, w: PlainWord, lowering: bool) -> UElement:
        memo = self._words[lowering]
        if w not in memo:
            if len(w) < 2:
                memo[w] = self._letter(w[0], lowering) if w else u_one(self.target)
            else:
                head, tail = (w[1:], w[:1]) if self.anti else (w[:-1], w[-1:])
                memo[w] = u_multiply(self._word_image(head, lowering),
                                     self._word_image(tail, lowering))
        return memo[w]

    def apply(self, x: UElement) -> UElement:
        """Sum of c·L·K_nu·R over the terms of x.  L·K_nu is closed form:
        (a, m, b)·K_nu is v^<nu, wt b>·(a, m + nu, b), the term u_multiply
        gives, since b crosses no raising letter.  The terms that share R's
        word are summed first, so each distinct word costs one product."""
        if x.algebra is not self.source:
            raise ValueError("element does not live in the source algebra")
        alg = self.target
        groups: dict[PlainWord, dict] = {}
        for (ew, mu, fw), c in x.coords.items():
            charge()
            first, w = (fw, ew) if self.anti else (ew, fw)
            nu = self.y_map(mu)
            raw = groups.setdefault(w, {})
            r = alg.root_pairs(nu).__getitem__
            for (a, m, b), y in self._word_image(first, self.anti).coords.items():
                _add_into(raw, (a, _vadd(m, nu), b),
                          (c if y is QV_ONE else c * y).shift(sum(map(r, b))))
        out: dict[Triple, QVScalar] = {}
        for w, raw in groups.items():
            right = self._word_image(w, not self.anti)
            for t, c in u_multiply(UElement._of(alg, raw), right).coords.items():
                _add_into(out, t, c)
        return UElement._of(alg, out)

    def __matmul__(self, inner: "UMap") -> "UMap":
        """The composite self∘inner: letter images self(inner(letter)),
        torus maps composed, anti when exactly one factor is."""
        if inner.target is not self.source:
            raise ValueError("maps do not compose")
        return UMap(inner.source, self.target,
                    lambda p, low: self.apply(inner._word_image((p,), low)),
                    lambda mu: self.y_map(inner.y_map(mu)), self.anti != inner.anti)


def _cached_map(alg: UAlgebra, key, build: Callable[[], UMap]) -> UMap:
    """The algebra's one map under key, built on first use."""
    if key not in alg._maps:
        alg._maps[key] = build()
    return alg._maps[key]


def omega(x: UElement) -> UElement:
    """Swap raising and lowering letters and invert the torus."""
    alg = x.algebra
    return _cached_map(alg, "omega", lambda: UMap(alg, alg, lambda p, low: (
        e_gen if low else f_gen)(alg, alg.cartan.indices[p]), _neg)).apply(x)


def rho(x: UElement) -> UElement:
    """Antiautomorphism fixing the torus, sending each raising letter E_p to
    v^d K̃_p F_p and each lowering letter F_p to v^-d E_p K̃_p^-1."""
    alg = x.algebra

    def letter(p: int, lowering: bool) -> UElement:
        d, kt = alg._d[p], alg._kt[p]
        return UElement(alg, {((p,), _neg(kt), ()): v_power(-d)} if lowering
                        else {((), kt, (p,)): v_power(d)})

    return _cached_map(alg, "rho", lambda: UMap(alg, alg, letter, lambda mu: mu,
                                                anti=True)).apply(x)


def _render_triples(x: LinearCombination, head: str, skip_zero: bool) -> str:
    """Terms (c)*E[..]·head(m)}·F[..] in sorted order, m the middle entry;
    a zero m is left out when skip_zero, and a term with no factor reads 1."""
    if not x.coords:
        return "0"
    syms = x.algebra.cartan.indices
    chunks = []
    for (ew, mid, fw) in sorted(x.coords):
        parts = ["".join(f"E[{syms[p]}]" for p in ew),
                 "" if skip_zero and not any(mid)
                 else head + "(" + ",".join(str(a) for a in mid) + ")}",
                 "".join(f"F[{syms[p]}]" for p in fw)]
        body = "·".join(p for p in parts if p) or "1"
        chunks.append(f"({render_scalar(x.coords[(ew, mid, fw)])})*{body}")
    return " + ".join(chunks)


def render_uelement(x: UElement) -> str:
    return _render_triples(x, "K{μ=", True)


# --- the contraction embedding ---------------------------------------------

class UEmbedding:
    """Generator substitution from the contracted algebra: the merged index
    maps to quantum commutators on both outer parts, the torus is shared."""

    def __init__(self, target: UAlgebra, pair: ContractiblePair, epsilon: int,
                 new_index=None, source: UAlgebra | None = None):
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        self.target = target
        self.pair = pair
        self.epsilon = epsilon
        self.datum = contract_root_datum(target.datum, pair, new_index)
        if source is not None:
            if source.datum != self.datum:
                raise ValueError("source algebra has a different datum")
            self.source = source
        else:
            self.source = UAlgebra(self.datum, target.f.degree_bound)
        self.merged = pair.merged_symbol() if new_index is None else new_index
        self.plus_map = psi_epsilon(target.f, pair, epsilon,
                                    merged_symbol=self.merged,
                                    source=self.source.f)
        self.minus_map = psi_dagger_epsilon(target.f, pair, epsilon,
                                            merged_symbol=self.merged,
                                            source=self.source.f)
        self._images: dict[Triple, dict[Triple, QVScalar]] = {}

    def substitute(self, terms: Mapping[Triple, QVScalar]) -> dict[Triple, QVScalar]:
        """Normal-ordered image of source triples (raising word, middle,
        lowering word): the outer words go through the two halves of the
        embedding, the middle (torus exponent or weight) passes through."""
        raw: dict[Triple, QVScalar] = {}
        for (ew, mid, fw), c in terms.items():
            eimg = self.plus_map.apply_plain({ew: QV_ONE})
            fimg = self.minus_map.apply_plain({fw: QV_ONE})
            for a, ca in eimg.items():
                for b, cb in fimg.items():
                    _add_into(raw, (a, mid, b), c * ca * cb)
        return self.target.reduce_triples(raw)

    def apply(self, x: UElement) -> UElement:
        if x.algebra is not self.source:
            raise ValueError("element does not live in the source algebra")
        return UElement._of(self.target, self.substitute(x.coords))

    def image(self, t: Triple) -> dict[Triple, QVScalar]:
        """Coordinates of the image of the source triple t, memoized."""
        img = self._images.get(t)
        if img is None:
            img = self._images[t] = self.apply(UElement(self.source, {t: QV_ONE})).coords
        return img

    def degree_map(self, nu: Degree) -> Degree:
        return self.plus_map.degree_map(nu)


def _images_of(emb: UEmbedding, lowering: bool) -> dict:
    """Target images of the source's raising (or lowering) generators."""
    merged, gen = (f_merged, f_gen) if lowering else (e_merged, e_gen)
    return {i: merged(emb.target, emb.pair, emb.epsilon) if i == emb.merged
            else gen(emb.target, i) for i in emb.source.cartan.indices}


def _y_basis(algebra: UAlgebra) -> list[YVec]:
    n = algebra.rank_y
    return [tuple(1 if a == b else 0 for b in range(n)) for a in range(n)]


def _named_generators(algebra: UAlgebra) -> list[tuple[str, UElement]]:
    """E[i] and F[i] for each index in order, then K at each basis exponent."""
    gens = []
    for i in algebra.cartan.indices:
        gens.append((f"E[{i}]", e_gen(algebra, i)))
        gens.append((f"F[{i}]", f_gen(algebra, i)))
    return gens + [(f"K{mu}", k_gen(algebra, mu)) for mu in _y_basis(algebra)]


def _generators_with_images(emb: UEmbedding) -> list[tuple[str, UElement, UElement]]:
    """The source's named generators, each with its assigned target image."""
    e_imgs, f_imgs = _images_of(emb, False), _images_of(emb, True)
    images = [img for i in emb.source.cartan.indices
              for img in (e_imgs[i], f_imgs[i])]
    images += [k_gen(emb.target, mu) for mu in _y_basis(emb.source)]
    return [(name, g, img)
            for (name, g), img in zip(_named_generators(emb.source), images)]


class _Identities:
    """Recorder of identities between linear combinations of any kind:
    ``expect`` counts one and returns its verdict, a mismatch failing with
    both sides rendered by ``str`` (a ``got`` of None: no preimage); ``miss``
    counts one that could not be evaluated; ``report`` builds the report."""

    def __init__(self):
        self.checked = 0
        self.failures: list[dict] = []

    def expect(self, label: str, got: LinearCombination | None,
               want: LinearCombination) -> bool:
        self.checked += 1
        ok = got is not None and got == want
        if not ok:
            self.failures.append({
                "identity": label,
                "got": "no preimage" if got is None else str(got),
                "want": str(want)})
        return ok

    def miss(self, label: str, why: str) -> None:
        self.checked += 1
        self.failures.append({"identity": label, "got": why})

    def report(self, **fields) -> dict:
        return {**fields, "checked": self.checked,
                "holds": not self.failures, "failures": self.failures}


def check_relations(source: UAlgebra, target: UAlgebra,
                    e_images: Mapping, f_images: Mapping,
                    k_images: Callable[[YVec], UElement] | None = None) -> dict:
    """Evaluate all six defining relation families of the source presentation
    on assigned generator images; residuals must vanish.

    Only the images' own ``*``, ``+``, ``-``, ``scale`` and ``==`` are used,
    so the images may live in U_q (products normal-order) or be linear maps
    of a module (products compose).  A divided power is never formed on its
    own: the Serre term x^(r) y x^(s) is the product of r factors x, y and s
    factors x, scaled by 1/([r]! [s]!), and zero is ``scale(0)``."""
    if k_images is None:
        k_images = lambda mu: k_gen(target, mu)
    indices = source.cartan.indices
    basis = _y_basis(source)
    report: dict = {"families": {}, "failures": []}

    def fam(name: str, cases) -> None:
        """cases yields (at, lhs, rhs); each is one checked identity."""
        checked = 0
        fails = []
        for at, lhs, rhs in cases:
            checked += 1
            if lhs != rhs:
                fails.append({"family": name, "at": at, "diff": str(lhs - rhs)})
        report["families"][name] = {"checked": checked, "holds": not fails}
        report["failures"].extend(fails)

    def weight(mu: YVec, i) -> int:
        return source.datum.pair(mu, source.datum.root(i))

    fam("K-product", (([list(a), list(b)], k_images(a) * k_images(b),
                       k_images(_vadd(a, b)))
                      for a in basis for b in basis))
    fam("K-E", (([list(mu), str(i)], k_images(mu) * e_images[i],
                 (e_images[i] * k_images(mu)).scale(v_power(weight(mu, i))))
                for mu in basis for i in indices))
    fam("K-F", (([list(mu), str(i)], k_images(mu) * f_images[i],
                 (f_images[i] * k_images(mu)).scale(v_power(-weight(mu, i))))
                for mu in basis for i in indices))

    def crossing(i, j):
        lhs = e_images[i] * f_images[j] - f_images[j] * e_images[i]
        if i != j:
            return [str(i), str(j)], lhs, lhs.scale(0)
        di = source.cartan.d(i)
        kt = source.k_tilde_vector(i)
        den = QV_ONE / (v_power(di) - v_power(-di))
        return [str(i), str(j)], lhs, (k_images(kt) - k_images(_neg(kt))).scale(den)

    fam("E-F", (crossing(i, j) for i in indices for j in indices))

    def serre(images, i, j):
        di = source.cartan.d(i)
        m = 1 - source.cartan.cartan_entry(i, j)
        acc = None
        for r in range(m + 1):
            factors = [images[i]] * r + [images[j]] + [images[i]] * (m - r)
            term = factors[0]
            for x in factors[1:]:
                term = term * x
            c = QV_ONE / (quantum_factorial(r, di) * quantum_factorial(m - r, di))
            term = term.scale(-c if r % 2 else c)
            acc = term if acc is None else acc + term
        return [str(i), str(j)], acc, acc.scale(0)

    for name, images in (("Serre-E", e_images), ("Serre-F", f_images)):
        fam(name, (serre(images, i, j) for i in indices for j in indices
                   if i != j))
    report["holds"] = not report["failures"]
    return report


def embedding_relations_check(emb: UEmbedding) -> dict:
    return check_relations(emb.source, emb.target,
                           _images_of(emb, False), _images_of(emb, True))


def psi_preimage(emb: UEmbedding, y: UElement) -> UElement | None:
    """The source element whose image is y, or None when y is not in the
    image; the embedding is injective, so the preimage is unique."""
    sol = _solve_mod_ideal(emb, y, [])
    return None if sol is None else sol[0]


def u_injectivity_report(emb: UEmbedding, max_total: int) -> dict:
    """Rank of the embedding on every (raising degree, lowering degree) block
    up to a total letter bound; full rank on each block means injective."""
    src = emb.source
    blocks = {}
    ok = True
    for nu_e in _degrees_up_to(src.rank, max_total):
        for nu_f in _degrees_up_to(src.rank, max_total - sum(nu_e)):
            basis_e = src.f.component(nu_e).basis
            basis_f = src.f.component(nu_f).basis
            pairs = [(a, b) for a in basis_e for b in basis_f]
            if not pairs:
                continue
            rk = rank([emb.substitute({(a, src.y_zero, b): QV_ONE})
                       for a, b in pairs])
            blocks[f"{nu_e}|{nu_f}"] = {"dim": len(pairs), "rank": rk}
            if rk != len(pairs):
                ok = False
    return {"blocks": blocks, "injective": ok}


# --- coproduct ---------------------------------------------------------------

class UTensor(LinearCombination):
    """Sum of two-fold tensors of normal-ordered triples."""

    __slots__ = ()

    def __repr__(self):
        alg = self.algebra
        bits = []
        for (s, t) in sorted(self.coords):
            c = self.coords[(s, t)]
            left = render_uelement(UElement(alg, {s: QV_ONE}))
            right = render_uelement(UElement(alg, {t: QV_ONE}))
            bits.append(f"({render_scalar(c)})*[{left}]⊗[{right}]")
        return " + ".join(bits) if bits else "0"


def tensor_of(x: UElement, y: UElement) -> UTensor:
    if x.algebra is not y.algebra:
        raise ValueError("tensor factors over different algebras")
    out: dict[tuple[Triple, Triple], QVScalar] = {}
    _add_outer(out, QV_ONE, x.coords, y.coords)
    return UTensor(x.algebra, out)


def delta(x: UElement) -> UTensor:
    """Coproduct in closed form from f's r (Lusztig, Introduction to Quantum
    Groups, 3.1.5): with r(θ_e) = Σ a ⊗ b and r̄(θ_f) = bar r(θ_f) = Σ c ⊗ d,
    Δ(E_e K_μ F_f) = Σ E_a K_(μ + K̃_|b|) F_c ⊗ E_b K_(μ - K̃_|c|) F_d.  The
    words of r are reduced, so every factor is in normal order already and
    nothing crosses; each pair of terms is charged before it is added."""
    alg = x.algebra
    f = alg.f

    def r_of(w: PlainWord, conjugate: bool):
        t = coproduct_r(FElement(f, f.word_degree(w), {w: QV_ONE}))
        return (t.bar() if conjugate else t).coords.items()

    def k_tilde(w: PlainWord) -> YVec:
        return tuple(map(sum, zip(alg.y_zero, *(alg._kt[p] for p in w))))

    total: dict[tuple[Triple, Triple], QVScalar] = {}
    for (ew, mu, fw), c in x.coords.items():
        lows = [(cw, _vsub(mu, k_tilde(cw)), d, cf) for (cw, d), cf in r_of(fw, True)]
        for (a, b), ce in r_of(ew, False):
            left_mu, ce = _vadd(mu, k_tilde(b)), c * ce
            for cw, right_mu, d, cf in lows:
                charge()
                _add_into(total, ((a, left_mu, cw), (b, right_mu, d)), ce * cf)
    return UTensor._of(alg, total)


def _triple_norm(alg: UAlgebra, t: Triple) -> Degree:
    ew, _, fw = t
    return _vsub(alg.f.word_degree(ew), alg.f.word_degree(fw))


def delta_component(t: UTensor, left_norm: Degree, right_norm: Degree) -> UTensor:
    alg = t.algebra
    left_norm, right_norm = tuple(left_norm), tuple(right_norm)
    out = {pair: c for pair, c in t.coords.items()
           if _triple_norm(alg, pair[0]) == left_norm
           and _triple_norm(alg, pair[1]) == right_norm}
    return UTensor(alg, out)


def tensor_psi(emb: UEmbedding, t: UTensor) -> UTensor:
    """Apply the embedding to both tensor factors."""
    out: dict[tuple[Triple, Triple], QVScalar] = {}
    for (s1, s2), c in t.coords.items():
        _add_outer(out, c, emb.image(s1), emb.image(s2))
    return UTensor(emb.target, out)


def emb_co_check(emb: UEmbedding, nu_e: Degree, nu_f: Degree,
                 tau: Degree, omega_deg: Degree) -> dict:
    """Coproduct blocks commute with the embedding: for every spanning triple
    of the given source bidegree, the (tau, omega) block downstairs of the
    image equals the image of the block upstairs."""
    src = emb.source
    nu_e, nu_f = src.f.degree(nu_e), src.f.degree(nu_f)
    tau = tuple(int(a) for a in tau)
    omega_deg = tuple(int(a) for a in omega_deg)
    tau_t = emb.degree_map(tau)
    omega_t = emb.degree_map(omega_deg)
    ids = _Identities()
    for a in src.f.component(nu_e).basis:
        for b in src.f.component(nu_f).basis:
            x = UElement(src, {(a, src.y_zero, b): QV_ONE})
            ids.expect(f"block of the image of {[list(a), list(b)]}",
                       delta_component(delta(emb.apply(x)), tau_t, omega_t),
                       tensor_psi(emb, delta_component(delta(x), tau, omega_deg)))
    return ids.report(block=[list(tau), list(omega_deg)])


# --- the modified form -------------------------------------------------------

class UdotElement(LinearCombination):
    """Combination of (raising word, middle weight, lowering word) triples in
    the idempotented form; the middle weight sits between the outer words."""

    __slots__ = ()

    def __str__(self):
        return render_udot(self)

    def __repr__(self):
        return f"UdotElement({self})"


def render_udot(x: UdotElement) -> str:
    return _render_triples(x, "1{λ=", False)


def udot_idempotent(algebra: UAlgebra, lam) -> UdotElement:
    return UdotElement(algebra, {((), algebra.x_vector(lam), ()): QV_ONE})


def _end_weight(alg: UAlgebra, t: Triple, left: bool) -> XVec:
    """The weight λ with 1_λ·t = t (left) or t·1_λ = t (right), for a triple
    t = E_e 1_m F_f: m + wt e on the left, m + wt f on the right."""
    e, m, f = t
    return _vadd(m, alg.degree_in_x(alg.f.word_degree(e if left else f)))


def udot_multiply(x: UdotElement, y: UdotElement) -> UdotElement:
    """Product in the idempotented form: two terms meet only where the right
    weight of the first is the left weight of the second."""
    if x.algebra is not y.algebra:
        raise ValueError("elements of different algebras")
    alg = x.algebra
    raw: dict = {}
    for (a, lam, b), c1 in x.coords.items():
        right = _end_weight(alg, (a, lam, b), False)
        for (p, sig, q), c2 in y.coords.items():
            if _end_weight(alg, (p, sig, q), True) != right:
                continue
            charge()
            for (xe, tau, xf), g in alg._cross(b, p).items():
                m = _vsub(sig, alg.degree_in_x(alg.f.word_degree(xf)))
                _add_into(raw, (a + xe, m, xf + q),
                          (c1 * c2 * g).shift(alg.datum.pair(tau, m)))
    return UdotElement(alg, alg.reduce_triples(raw))


def _at_weight(u: UElement, lam: XVec, left: bool) -> UdotElement:
    """1_λ·u (left) or u·1_λ (right) in the idempotented form: a term
    (e, μ, f) becomes v^<μ, m>·(e, m, f) with m = λ - wt e on the left and
    m = λ - wt f on the right.  Terms that differ only in μ share a key."""
    alg = u.algebra
    raw: dict = {}
    for (e, mu, f), c in u.coords.items():
        m = _vsub(lam, alg.degree_in_x(alg.f.word_degree(e if left else f)))
        _add_into(raw, (e, m, f), c.shift(alg.datum.pair(mu, m)))
    return UdotElement(alg, raw)


def u_act_udot(u: UElement, x: UdotElement) -> UdotElement:
    """u·x, the sum over the left weights λ of x of (u·1_λ)·x."""
    lams = sorted({_end_weight(x.algebra, t, True) for t in x.coords})
    return sum((udot_multiply(_at_weight(u, lam, False), x) for lam in lams),
               UdotElement(x.algebra, {}))


def udot_act_u(x: UdotElement, u: UElement) -> UdotElement:
    """x·u, the sum over the right weights λ of x of x·(1_λ·u)."""
    lams = sorted({_end_weight(x.algebra, t, False) for t in x.coords})
    return sum((udot_multiply(x, _at_weight(u, lam, True)) for lam in lams),
               UdotElement(x.algebra, {}))


def pi_weight(x: UElement, lam_left, lam_right) -> UdotElement:
    """Projection onto one weight block of the idempotented form: the
    lam_left block of x·1_{lam_right}."""
    alg = x.algebra
    lam_left = alg.x_vector(lam_left)
    y = _at_weight(x, alg.x_vector(lam_right), False)
    return UdotElement(alg, {t: c for t, c in y.coords.items()
                             if _end_weight(alg, t, True) == lam_left})


def psi_udot(emb: UEmbedding, x: UdotElement) -> UdotElement:
    """The embedding on the idempotented form; weights pass through."""
    if x.algebra is not emb.source:
        raise ValueError("element does not live in the source algebra")
    return UdotElement(emb.target, emb.substitute(x.coords))


def psi_dot_check(emb: UEmbedding, weights: Sequence) -> dict:
    """Bimodule compatibility of the idempotented embedding at the given
    middle weights: each base element x_s (the idempotent 1_λ and each
    generator times it) maps to its target counterpart x_t, and the embedding
    intertwines every generator acting on x_s from either side.  Each base
    comparison and each side counts as one checked identity."""
    src, tgt = emb.source, emb.target
    gens = _generators_with_images(emb)
    ids = _Identities()
    for lam in weights:
        lam = src.x_vector(lam)
        one_s, one_t = udot_idempotent(src, lam), udot_idempotent(tgt, lam)
        base = [(f"1{list(lam)}", one_s, one_t)] + [
            (f"{name}·1{list(lam)}", u_act_udot(g, one_s), u_act_udot(gi, one_t))
            for name, g, gi in gens]
        for base_name, xs, xt in base:
            if not ids.expect(f"image of {base_name}", psi_udot(emb, xs), xt):
                continue
            for name, g, gi in gens:
                ids.expect(f"{name} on the left of {base_name}",
                           psi_udot(emb, u_act_udot(g, xs)), u_act_udot(gi, xt))
                ids.expect(f"{name} on the right of {base_name}",
                           psi_udot(emb, udot_act_u(xs, g)), udot_act_u(xt, gi))
    return ids.report()


# --- braid operators ---------------------------------------------------------

class BraidOperator(UMap):
    """Simple-index symmetry (Lusztig, Introduction to Quantum Groups,
    37.1.3): the algebra map with these letter images and the simple
    reflection on the torus; label = (index, sign, primed or doubleprime)."""

    def __init__(self, algebra: UAlgebra, i, e: int, primed: bool = True):
        if e not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.algebra = algebra
        self.index = i
        self.e = e
        self.primed = primed
        p = algebra.position(i)
        self._p = p
        d = algebra._d[p]
        kt = tuple(e * a for a in algebra._kt[p])
        tw = e * d if primed else -e * d
        y0 = algebra.y_zero
        e_img = {p: UElement(algebra, {((), kt, (p,)): -v_power(e * d - tw)})}
        f_img = {p: UElement(algebra, {((p,), _neg(kt), ()): -v_power(tw - e * d)})}
        for q, sym in enumerate(algebra.cartan.indices):
            if q == p:
                continue
            # F's chain is E's, each word reversed and each coefficient barred
            words = chain_words(p, q, -algebra.cartan.cartan_entry(i, sym), tw, primed, d)
            e_img[q] = UElement._of(algebra, algebra.reduce_triples(
                {(w, y0, ()): c for w, c in words.items()}))
            f_img[q] = UElement._of(algebra, algebra.reduce_triples(
                {((), y0, w[::-1]): scalar_bar(c) for w, c in words.items()}))
        super().__init__(algebra, algebra, lambda q, low: (f_img if low else e_img)[q],
                         lambda mu: algebra.reflect_y(p, mu))

    def inverse(self) -> "BraidOperator":
        """The inverse carries the opposite decoration and opposite sign."""
        return braid_basic(self.algebra, self.index, -self.e, not self.primed)

    def __repr__(self):
        kind = "primed" if self.primed else "doubleprime"
        return f"BraidOperator({self.index}, e={self.e}, {kind})"


def braid_basic(algebra: UAlgebra, i, e: int, primed: bool = True) -> BraidOperator:
    """The algebra's one operator with this label, so its word images are
    built once per algebra."""
    return _cached_map(algebra, ("T", i, e, primed),
                       lambda: BraidOperator(algebra, i, e, primed))


def braid_formula_gate(algebra: UAlgebra, pair: ContractiblePair) -> dict:
    """Consistency gate for the substitution formulas: the operators must
    reproduce the quoted evaluations on the merged generators."""
    pp = algebra.position(pair.plus)
    d0 = algebra._d[pp]
    ids = _Identities()
    tp1 = braid_basic(algebra, pair.plus, 1)
    tm1 = braid_basic(algebra, pair.minus, 1)
    ids.expect("plus moves merged(-1) to the minus generator",
               tp1.apply(e_merged(algebra, pair, -1)), e_gen(algebra, pair.minus))
    ids.expect("plus moves merged(-1) to the minus generator, lowering",
               tp1.apply(f_merged(algebra, pair, -1)), f_gen(algebra, pair.minus))
    ids.expect("minus moves merged(+1) to the plus generator",
               tm1.apply(e_merged(algebra, pair, 1)),
               e_gen(algebra, pair.plus).scale(-v_power(-d0)))
    ids.expect("minus moves merged(+1) to the plus generator, lowering",
               tm1.apply(f_merged(algebra, pair, 1)),
               f_gen(algebra, pair.plus).scale(-v_power(d0)))
    for e in (1, -1):
        tme = braid_basic(algebra, pair.minus, e)
        tpe = braid_basic(algebra, pair.plus, e)
        ids.expect(f"minus sends plus generator to merged(e={e})",
                   tme.apply(e_gen(algebra, pair.plus)),
                   e_merged(algebra, pair, -e))
        ids.expect(f"minus sends plus generator to merged(e={e}), lowering",
                   tme.apply(f_gen(algebra, pair.plus)),
                   f_merged(algebra, pair, -e))
        ids.expect(f"plus sends minus generator to merged(e={e})",
                   tpe.apply(e_gen(algebra, pair.minus)),
                   e_merged(algebra, pair, e).scale(-v_power(e * d0)))
        ids.expect(f"plus sends minus generator to merged(e={e}), lowering",
                   tpe.apply(f_gen(algebra, pair.minus)),
                   f_merged(algebra, pair, e).scale(-v_power(-e * d0)))
    return ids.report()


def _ensure_gate(algebra: UAlgebra, pair: ContractiblePair) -> None:
    key = (pair.plus, pair.minus)
    if key in algebra._gated:
        return
    report = braid_formula_gate(algebra, pair)
    if not report["holds"]:
        raise AssertionError(f"braid formula gate failed: {report['failures']}")
    algebra._gated.add(key)


def tilde_braid_i0(algebra: UAlgebra, pair: ContractiblePair, e: int,
                   primed: bool = True) -> UMap:
    """Merged-index symmetry as the plus-minus-plus composite, one map per
    label and algebra."""
    _ensure_gate(algebra, pair)

    def build() -> UMap:
        tp = braid_basic(algebra, pair.plus, e, primed)
        return tp @ (braid_basic(algebra, pair.minus, e, primed) @ tp)

    return _cached_map(algebra, ("T~", pair.plus, pair.minus, e, primed), build)


def braid_assumption_holds(algebra: UAlgebra, pair: ContractiblePair):
    """No third vertex may neighbor both members of the pair."""
    for j in algebra.cartan.indices:
        if j in (pair.plus, pair.minus):
            continue
        if algebra.cartan.dot(j, pair.plus) != 0 \
                and algebra.cartan.dot(j, pair.minus) != 0:
            return False, j
    return True, None


def braid_props_check(algebra: UAlgebra, pair: ContractiblePair) -> dict:
    """All identities of the merged-index symmetry lists, both decorations,
    for every sign choice; the neighbor assumption is checked first."""
    ok, bad = braid_assumption_holds(algebra, pair)
    if not ok:
        return {"assumption": False, "violating_vertex": str(bad),
                "holds": False, "failures": [
                    {"identity": "neighbor assumption",
                     "got": f"vertex {bad} meets both members"}]}
    pp = algebra.position(pair.plus)
    d0 = algebra._d[pp]
    kt0 = k_merged_vector(algebra, pair)
    ids = _Identities()
    others = [j for j in algebra.cartan.indices
              if j not in (pair.plus, pair.minus)]
    for e in (1, -1):
        tp = tilde_braid_i0(algebra, pair, e, primed=True)
        td = tilde_braid_i0(algebra, pair, e, primed=False)
        ke = k_gen(algebra, tuple(e * a for a in kt0))
        kem = k_gen(algebra, tuple(-e * a for a in kt0))
        for eps in (1, -1):
            ids.expect(f"primed list 1 (e={e}, eps={eps})",
                       tp.apply(e_merged(algebra, pair, eps)),
                       u_multiply(ke, f_merged(algebra, pair, -eps))
                       .scale(v_power(-e * d0)))
            ids.expect(f"primed list 2 (e={e}, eps={eps})",
                       tp.apply(f_merged(algebra, pair, eps)),
                       u_multiply(e_merged(algebra, pair, -eps), kem)
                       .scale(v_power(e * d0)))
            ids.expect(f"doubleprime list 1 (e={e}, eps={eps})",
                       td.apply(e_merged(algebra, pair, eps)),
                       u_multiply(f_merged(algebra, pair, -eps), ke)
                       .scale(v_power(e * d0)))
            ids.expect(f"doubleprime list 2 (e={e}, eps={eps})",
                       td.apply(f_merged(algebra, pair, eps)),
                       u_multiply(kem, e_merged(algebra, pair, -eps))
                       .scale(v_power(-e * d0)))
        for j in others:
            nj = -(algebra.cartan.cartan_entry(pair.plus, j)
                   + algebra.cartan.cartan_entry(pair.minus, j))
            # lists 3-4: j away from the minus end, merged(-e), the double
            # prime side carries the sign; lists 5-6 (written k): j away from
            # the plus end, merged(e), the primed side carries it
            for apart, tag, first, eps, signed_primed in (
                    (pair.minus, "j", 3, -e, False),
                    (pair.plus, "k", 5, e, True)):
                if algebra.cartan.dot(j, apart) != 0:
                    continue
                for op, primed in ((tp, True), (td, False)):
                    kind = "primed" if primed else "doubleprime"
                    for lowering in (False, True):
                        r_first = primed != lowering
                        twist = e * d0 if r_first else -e * d0
                        gen = (f_gen if lowering else e_gen)(algebra, j)
                        merged = (f_merged if lowering else e_merged)(
                            algebra, pair, eps)
                        want = chain_sum(lambda k: divided_power(merged, k, d0),
                                         gen, nj, twist, r_first)
                        if primed == signed_primed:
                            want = want.scale(sign_power(twist, nj))
                        ids.expect(f"{kind} list {first + lowering} (e={e}, {tag}={j})",
                                   op.apply(gen), want)
    return ids.report(assumption=True)


def _end_vertex(cartan: CartanDatum, i) -> bool:
    return sum(1 for j in cartan.indices
               if j != i and cartan.dot(i, j) != 0) == 1


def _rescale_letters(x: UElement, powers: Mapping[int, int], u: int) -> UElement:
    """Scale each triple by (-v^u)^powers[p] per raising letter p and by
    (-v^-u)^powers[p] per lowering letter; letters outside powers keep their
    coefficient."""
    out = {}
    for (ew, mu, fw), c in x.coords.items():
        for p in ew:
            if p in powers:
                c = c * sign_power(u, powers[p])
        for p in fw:
            if p in powers:
                c = c * sign_power(-u, powers[p])
        out[(ew, mu, fw)] = c
    return UElement(x.algebra, out)


def _merged_powers(src: UAlgebra, merged, scaled) -> dict[int, int]:
    """Per-letter exponents of the contracted-side rescale: 1 on the merged
    letter, and on each letter whose symbol passes ``scaled`` the Cartan
    entry a(merged, letter)."""
    p0 = src.position(merged)
    out = {q: src.cartan.cartan_entry(merged, sym)
           for q, sym in enumerate(src.cartan.indices)
           if q != p0 and scaled(sym)}
    out[p0] = 1
    return out


def braid_on_V_check(emb: UEmbedding, e: int) -> dict:
    """On the image subalgebra, the rescaled merged-index symmetry agrees with
    the contracted algebra's own symmetry, generator by generator; requires
    the stated end-vertex hypothesis."""
    eps = emb.epsilon
    pair = emb.pair
    tgt, src = emb.target, emb.source
    if e * eps == -1:
        hyp_vertex = pair.plus
    else:
        hyp_vertex = pair.minus
    if not _end_vertex(tgt.cartan, hyp_vertex):
        return {"hypothesis": False, "non_end_vertex": str(hyp_vertex),
                "holds": False, "failures": [
                    {"identity": "end-vertex hypothesis",
                     "got": f"vertex {hyp_vertex} is not an end vertex"}]}
    _ensure_gate(tgt, pair)
    emb_opp = UEmbedding(tgt, pair, -eps, new_index=emb.merged,
                         source=src)
    kt0 = k_merged_vector(tgt, pair)
    ids = _Identities()
    gens = _named_generators(src)
    d_m = src._d[src.position(emb.merged)]

    def chi(x: UElement | None, sign: int) -> UElement | None:
        """Image-side rescaling transported to source coordinates: diagonal
        on normal-ordered triples, with per-letter factors."""
        return None if x is None else _rescale_letters(
            x, _merged_powers(src, emb.merged, lambda sym: sign == 1),
            -sign * eps * d_m)

    for primed in (True, False):
        tilde = tilde_braid_i0(tgt, pair, e, primed)
        own = braid_basic(src, emb.merged, e, primed)
        kind = "primed" if primed else "doubleprime"
        for name, g in gens:
            got = chi(psi_preimage(emb_opp, tilde.apply(emb.apply(g))),
                      e * eps if primed else -e * eps)
            ids.expect(f"{kind} agreement on {name} (e={e})", got, own.apply(g))
    tilde = tilde_braid_i0(tgt, pair, e, True)

    def v_op(x: UElement) -> UElement | None:
        xhat = chi(psi_preimage(emb_opp, tilde.apply(x)), e * eps)
        return None if xhat is None else emb.apply(xhat)

    ids.expect("closed form on the merged raising generator",
               v_op(e_merged(tgt, pair, eps)),
               u_multiply(k_gen(tgt, tuple(e * a for a in kt0)),
                          f_merged(tgt, pair, eps)).scale(-QV_ONE))
    ids.expect("closed form on the merged lowering generator",
               v_op(f_merged(tgt, pair, eps)),
               u_multiply(e_merged(tgt, pair, eps),
                          k_gen(tgt, tuple(-e * a for a in kt0))).scale(-QV_ONE))
    root_sum = _vadd(tgt.datum.root(pair.plus), tgt.datum.root(pair.minus))
    coroot_sum = _vadd(tgt.datum.coroot(pair.plus),
                       tgt.datum.coroot(pair.minus))
    for mu in _y_basis(tgt):
        n = tgt.datum.pair(mu, root_sum)
        want_mu = tuple(a - n * b for a, b in zip(mu, coroot_sum))
        ids.expect(f"torus case K{mu}", v_op(k_gen(tgt, mu)),
                   k_gen(tgt, want_mu))
    survivors = [j for j in tgt.cartan.indices
                 if j not in (pair.plus, pair.minus)]
    e0, f0 = e_merged(tgt, pair, eps), f_merged(tgt, pair, eps)
    for j in survivors:
        dj = tgt._d[tgt.position(j)]
        nj = -(tgt.datum.pair(tgt.datum.coroot(j),
                              _vadd(tgt.datum.root(pair.plus),
                                    tgt.datum.root(pair.minus))))
        for ee in (1, -1):
            for primed in (True, False):
                op = braid_basic(tgt, j, ee, primed)
                kind = "primed" if primed else "doubleprime"
                twist = ee * dj if primed else -ee * dj
                ids.expect(f"surviving-index formula {kind} E (j={j}, e={ee})",
                           op.apply(e0), chain_sum(lambda k: e_gen(tgt, j, k),
                                                    e0, nj, twist, primed))
                ids.expect(f"surviving-index formula {kind} F (j={j}, e={ee})",
                           op.apply(f0), chain_sum(lambda k: f_gen(tgt, j, k),
                                                    f0, nj, -twist, not primed))
                own = braid_basic(src, j, ee, primed)
                for name, g in gens:
                    ids.expect(f"surviving-index agreement {kind} (j={j}, e={ee},"
                               f" {name})",
                               op.apply(emb.apply(g)), emb.apply(own.apply(g)))
    return ids.report(hypothesis=True)


# --- subquotient probe -------------------------------------------------------

def _k_shift(alg: UAlgebra, mu: YVec, terms: Mapping[Triple, QVScalar]) -> dict:
    """K_mu times terms: E_ew K_kv F_fw becomes v^<mu, wt ew> E_ew K_(mu+kv) F_fw."""
    r = alg.root_pairs(mu)
    return {(ew, _vadd(mu, kv), fw): c.shift(sum(r[p] for p in ew))
            for (ew, kv, fw), c in terms.items()}


def _probe_alphabet(tgt: UAlgebra, pair: ContractiblePair) -> list[tuple[str, UElement, int]]:
    pp, pm = tgt.position(pair.plus), tgt.position(pair.minus)
    y0 = tgt.y_zero
    letters = []
    for j in tgt.cartan.indices:
        if j in (pair.plus, pair.minus):
            continue
        letters.append((f"E[{j}]", e_gen(tgt, j), 1))
        letters.append((f"F[{j}]", f_gen(tgt, j), 1))
    letters.append(("E+E-", UElement._of(tgt, tgt.reduce_triples(
        {((pp, pm), y0, ()): QV_ONE})), 2))
    letters.append(("E-E+", UElement._of(tgt, tgt.reduce_triples(
        {((pm, pp), y0, ()): QV_ONE})), 2))
    letters.append(("F+F-", UElement._of(tgt, tgt.reduce_triples(
        {((), y0, (pp, pm)): QV_ONE})), 2))
    letters.append(("F-F+", UElement._of(tgt, tgt.reduce_triples(
        {((), y0, (pm, pp)): QV_ONE})), 2))
    return letters


def _products_upto(tgt: UAlgebra, letters, max_total: int) -> list[tuple[UElement, int]]:
    """(element, total degree) of the nonzero words in the given letters of
    total degree at most max_total, breadth first; the empty word comes
    first, whatever the bound.  The entries of degree at most b < max_total
    are, in order, the list at bound b."""
    frontier = [(u_one(tgt), 0)]
    out = list(frontier)
    while frontier:
        nxt = []
        for x, deg in frontier:
            for _, letter, w in letters:
                if deg + w > max_total:
                    continue
                charge()
                y = u_multiply(x, letter)
                if not y.is_zero():
                    nxt.append((y, deg + w))
        out += nxt
        frontier = nxt
    return out


def _crossing_ideal(letters, words: list[tuple[UElement, int]],
                    max_total: int) -> list[dict]:
    """Coordinates of the nonzero products x1·g·x2 of total degree at most
    max_total, for the crossing letters g = E-E+ and F+F- and words x1, x2
    taken from ``words`` (the ``_products_upto`` list of the probe alphabet
    at a bound of at least max_total - 2).  The empty word stands on either
    side even where max_total leaves no room for g."""
    letter_map = {name: el for name, el, _ in letters}
    rows = []
    for gname in ("E-E+", "F+F-"):
        g = letter_map[gname]
        for x1, d1 in words:
            if d1 > max(max_total - 2, 0):
                continue
            left = u_multiply(x1, g)
            for x2, d2 in words:
                if d2 > max(max_total - 2 - d1, 0):
                    continue
                charge()
                y = u_multiply(left, x2)
                if not y.is_zero():
                    rows.append(y.coords)
    return rows


def subquotient_phi_probe(target: UAlgebra, pair: ContractiblePair,
                          max_total: int, epsilon: int = 1) -> dict:
    """Rank evidence for the subquotient presentation: the pair subalgebra is
    spanned by the embedded image plus the crossing ideal, and the two meet
    trivially as far as the probe sees.  Also pins the inversion identities,
    the ideal images of the merged-index symmetry, and the quotient-level
    agreement of both decorated symmetries.  Evidence only."""
    emb = UEmbedding(target, pair, epsilon)
    amb = target
    hat = emb.source
    d0 = amb._d[amb.position(pair.plus)]
    letters = _probe_alphabet(amb, pair)
    letter_map = {name: el for name, el, _ in letters}
    words = _products_upto(amb, letters, max_total)
    sub_rows = [x.coords for x, _ in words]
    ideal_base = _crossing_ideal(letters, words, max_total)
    mus: set[YVec] = {mu for rows in (sub_rows, ideal_base)
                      for row in rows for (_, mu, _f) in row}
    shifts: set[YVec] = {amb.y_zero}
    for row in ideal_base:
        for (_, have, _f) in row:
            for want in mus:
                shifts.add(_vsub(want, have))
    ideal_rows = ideal_base + [_k_shift(amb, sh, row) for row in ideal_base
                               for sh in sorted(shifts) if any(sh)]
    psi_rows = [img for _, img in _candidate_images(
        emb, max_total, mus, lambda de, df: sum(de) + sum(df) <= max_total)]
    groups: list[dict[Degree, list[dict]]] = [{}, {}, {}]
    for by_norm, rows in zip(groups, (sub_rows, ideal_rows, psi_rows)):
        for t in rows:
            if t:
                by_norm.setdefault(_norm_key(amb, t), []).append(t)
    blocks = {}
    surjective = True
    injective = True
    for nk in sorted(set().union(*groups)):
        sub, idl, psi = (g.get(nk, []) for g in groups)
        r_sub = rank(sub)
        r_idl = rank(idl)
        # one echelon set fed psi, then the ideal, then sub: its running
        # counts are the ranks of psi, psi + idl and psi + idl + sub
        rules: dict = {}
        r_psi = sum(echelon_insert(rules, t) for t in psi)
        r_pi = r_psi + sum(echelon_insert(rules, t) for t in idl)
        r_all = r_pi + sum(echelon_insert(rules, t) for t in sub)
        surj = r_all == r_pi
        meet = r_psi + r_idl - r_pi
        blocks[str(nk)] = {"sub": r_sub, "ideal": r_idl, "image": r_psi,
                           "image_plus_ideal": r_pi,
                           "surjective": surj, "meet": meet}
        surjective = surjective and surj
        injective = injective and meet == 0
    ids = _Identities()
    den = QV_ONE / (v_power(epsilon * d0) - v_power(-epsilon * d0))
    ee_mp = letter_map["E-E+"]
    ee_pm = letter_map["E+E-"]
    ff_pm = letter_map["F+F-"]
    ff_mp = letter_map["F-F+"]
    ids.expect("inversion: minus-plus raising",
               ee_mp, (e_merged(amb, pair, epsilon)
                       - e_merged(amb, pair, -epsilon)).scale(den))
    ids.expect("inversion: plus-minus raising",
               ee_pm, (e_merged(amb, pair, epsilon).scale(v_power(epsilon * d0))
                       - e_merged(amb, pair, -epsilon)
                       .scale(v_power(-epsilon * d0))).scale(den))
    ids.expect("inversion: plus-minus lowering",
               ff_pm, (f_merged(amb, pair, -epsilon)
                       - f_merged(amb, pair, epsilon)).scale(den))
    ids.expect("inversion: minus-plus lowering",
               ff_mp, (f_merged(amb, pair, -epsilon).scale(v_power(epsilon * d0))
                       - f_merged(amb, pair, epsilon)
                       .scale(v_power(-epsilon * d0))).scale(den))
    kt0 = k_merged_vector(amb, pair)
    for e in (1, -1):
        tilde = tilde_braid_i0(amb, pair, e, True)
        ke = k_gen(amb, tuple(e * a for a in kt0))
        kem = k_gen(amb, tuple(-e * a for a in kt0))
        ids.expect(f"ideal image: raising crossing (e={e})",
                   tilde.apply(ee_mp),
                   u_multiply(ke, ff_pm).scale(v_power(-e * d0)))
        ids.expect(f"merged image: raising pair (e={e})",
                   tilde.apply(ee_pm),
                   u_multiply(ke, ff_mp).scale(v_power(-e * d0)))
        ids.expect(f"ideal image: lowering crossing (e={e})",
                   tilde.apply(ff_pm),
                   u_multiply(ee_mp, kem).scale(v_power(e * d0)))
        ids.expect(f"merged image: lowering pair (e={e})",
                   tilde.apply(ff_mp),
                   u_multiply(ee_pm, kem).scale(v_power(e * d0)))
    torus = hat.rank_y == amb.rank_y and all(
        emb.apply(k_gen(hat, mu)) == k_gen(amb, mu) for mu in _y_basis(hat))
    quotient = _quotient_braid_agreement(emb, ideal_base)
    report = {
        "label": "evidence",
        "blocks": blocks,
        "surjective": surjective,
        "meet_trivial": injective,
        "torus_bijective": torus,
        "identities_hold": not ids.failures,
        "failures": ids.failures,
        "quotient_braid": quotient,
    }
    report["holds"] = (surjective and injective and torus and not ids.failures
                       and bool(quotient["holds"])
                       and not quotient["ambiguous"])
    return report


def _norm_key(alg: UAlgebra, terms: Mapping[Triple, QVScalar]) -> Degree:
    t = next(iter(terms))
    return _triple_norm(alg, t)


def _quotient_braid_agreement(emb: UEmbedding, ideal_base: list[dict]) -> dict:
    """Generator agreement of the decorated quotient symmetries: solve for the
    preimage modulo the ideal spanned by ideal_base, rescale per letter,
    compare upstairs."""
    tgt, src = emb.target, emb.source
    pair = emb.pair
    d0 = tgt._d[tgt.position(pair.plus)]
    powers = {primed: _merged_powers(
        src, emb.merged,
        lambda sym: tgt.cartan.dot(sym, pair.minus if primed else pair.plus) == 0)
        for primed in (True, False)}
    gens = [(name, g, emb.apply(g)) for name, g in _named_generators(src)]
    ids = _Identities()
    ambiguous = []
    for primed in (True, False):
        for e in (1, -1):
            tilde = tilde_braid_i0(tgt, pair, e, primed)
            own = braid_basic(src, emb.merged, e, primed)
            for name, g, image in gens:
                y = tilde.apply(image)
                sol = _solve_mod_ideal(emb, y, ideal_base)
                kind = "primed" if primed else "doubleprime"
                label = f"{kind} (e={e}) on {name}"
                if sol is None:
                    ids.miss(label, "no preimage modulo the ideal")
                    continue
                xhat, unique = sol
                if not unique:
                    ambiguous.append(label)
                ids.expect(label, _rescale_letters(xhat, powers[primed],
                                                   (-e if primed else e) * d0),
                           own.apply(g))
    return ids.report(ambiguous=ambiguous)


def _candidate_images(emb: UEmbedding, bound: int, mus,
                      keep: Callable[[Degree, Degree], bool]) -> list[tuple]:
    """Each source triple (a, μ, b), with a and b basis words of degrees
    ν_e, ν_f up to bound and μ in mus, paired with the coordinates of its
    image (``UEmbedding.image``); only bidegrees whose image degrees pass
    keep are listed.  Ordered by ν_e, ν_f, a, b, then sorted μ."""
    src = emb.source
    degs = [(nu, emb.degree_map(nu)) for nu in _degrees_up_to(src.rank, bound)]
    out = []
    for nu_e, img_e in degs:
        for nu_f, img_f in degs:
            if not keep(img_e, img_f):
                continue
            for a in src.f.component(nu_e).basis:
                for b in src.f.component(nu_f).basis:
                    for mu in sorted(mus):
                        out.append(((a, mu, b), emb.image((a, mu, b))))
    return out


def _solve_mod_ideal(emb: UEmbedding, y: UElement,
                     ideal_base: list[dict]) -> tuple[UElement, bool] | None:
    """Express y as an embedded element plus ideal terms; the embedded part
    is returned, flagged unique when the two spans meet trivially.  With no
    ideal rows this is the preimage under the embedding (``psi_preimage``).

    One solve takes the rows of ideal_base shifted by K_μ as its first
    columns and the candidate images as its last.  The embedding is
    injective, so the images are independent, and the spans meet trivially
    exactly when every image column is a pivot.  When they meet, the
    embedded part is not determined: the solve returns one representative
    (free variables zero), which may differ from an image-first order's.

    Only candidate images that can meet y or an ideal candidate are built.
    The image of a·K_μ·b is bihomogeneous of bidegree
    (degree_map(ν_e), degree_map(ν_f)), and degree_map is injective.  So a
    block of candidates whose bidegree occurs neither in y nor in any ideal
    candidate touches only rows that no other column touches: the exact
    solve (free variables zero) gives it coefficient 0, and its columns are
    pivots, leaving the uniqueness flag alone.  Dropping such blocks
    changes no result."""
    tgt, src = emb.target, emb.source
    mus = {mu for t in (y.coords, *ideal_base) for (_, mu, _f) in t}
    norm = _norm_key(tgt, y.coords) if y.coords else None
    ideal_cands = []
    for row in ideal_base:
        if not row or (norm is not None and _norm_key(tgt, row) != norm):
            continue
        base_mus = {mu for (_, mu, _f) in row}
        shift_set = {(0,) * tgt.rank_y}
        for want in mus:
            for have in base_mus:
                shift_set.add(_vsub(want, have))
        ideal_cands += [_k_shift(tgt, sh, row) for sh in sorted(shift_set)]
    wd = tgt.f.word_degree
    live = {(wd(ew), wd(fw)) for t in (y.coords, *ideal_cands)
            for (ew, _, fw) in t}
    cap = max((sum(d) for bideg in live for d in bideg), default=0)
    cands = _candidate_images(emb, cap, mus, lambda de, df: (de, df) in live)
    n = len(ideal_cands)
    sol, pivots = solve(ideal_cands + [img for _, img in cands], y.coords, QV_ONE)
    if sol is None:
        return None
    xhat = {cands[j - n][0]: c for j, c in sol.items() if j >= n}
    unique = sum(j >= n for j in pivots) == len(cands)
    return UElement(src, xhat), unique


# --- highest-weight modules --------------------------------------------------

class HWModule:
    """Quotient of the Serre algebra by the threshold left ideal, with
    explicit generator matrices; finite-dimensional for dominant weights."""

    def __init__(self, algebra: UAlgebra, lam: XVec):
        self.algebra = algebra
        self.lam = algebra.x_vector(lam)
        if not algebra.datum.dominant(self.lam):
            raise ValueError("weight is not dominant")
        if not algebra.cartan.is_finite_type():
            raise ValueError("finite type required")
        self._thresholds = {
            i: algebra.datum.pair_index(i, self.lam) + 1
            for i in algebra.cartan.indices}
        # the submodule's reduced echelon rules per degree, with column c of
        # the component keyed -c so that leads are the leftmost columns
        self._sub: dict[Degree, dict[int, dict]] = {}
        self.reps: dict[Degree, list[int]] = {}
        self.index: dict[tuple[Degree, int], int] = {}
        self.basis: list[tuple[Degree, int]] = []
        self._build()
        self.dim = len(self.basis)
        self.weights = [
            _vsub(self.lam, algebra.degree_in_x(nu)) for nu, _ in self.basis]
        self._e_word_memo: dict = {}
        self._generators: dict[tuple[int, bool], ModuleMap] = {}

    def _build(self):
        alg = self.algebra
        f = alg.f
        level = 0
        while True:
            level_dim = 0
            for nu in _degrees_up_to(alg.rank, level):
                if sum(nu) != level:
                    continue
                # M_nu = sum_p F_p M_(nu - e_p): zero when no degree one
                # letter below it survived, so its component is not built
                if level and not any(nu[:p] + (a - 1,) + nu[p + 1:] in self.reps
                                     for p, a in enumerate(nu) if a):
                    continue
                comp = f.component(nu)
                if not comp.basis:
                    continue
                rows = []
                for p, sym in enumerate(alg.cartan.indices):
                    n = self._thresholds[sym]
                    if nu[p] < n:
                        continue
                    low = tuple(a - (n if q == p else 0)
                                for q, a in enumerate(nu))
                    for w in f.component(low).basis:
                        charge()
                        el = felement(f, nu, {w + (p,) * n: QV_ONE})
                        rows.append({-c: x for c, x in
                                     enumerate(el.coordinate_vector()) if x})
                rules = self._sub[nu] = rref(rows)
                free = [c for c in range(len(comp.basis)) if -c not in rules]
                if free:
                    self.reps[nu] = free
                    for c in free:
                        self.index[(nu, c)] = len(self.basis)
                        self.basis.append((nu, c))
                    level_dim += len(free)
            if level > 0 and level_dim == 0:
                break
            level += 1
            if level > alg.f.degree_bound:
                raise ValueError("module exceeds the degree bound")

    def project(self, x: FElement) -> dict[int, QVScalar]:
        """Class of a Serre-algebra element in the quotient coordinates."""
        nu = x.nu
        rules = self._sub.get(nu)
        if rules is None:
            return {}
        vec = residue(rules, {-c: a for c, a in enumerate(x.coordinate_vector()) if a})
        return {self.index[(nu, -k)]: a for k, a in vec.items()}

    def rep_element(self, idx: int) -> FElement:
        nu, col = self.basis[idx]
        w = self.algebra.f.component(nu).basis[col]
        return FElement(self.algebra.f, nu, {w: QV_ONE})

    # --- generator actions ------------------------------------------------
    def generator(self, p: int, raising: bool) -> ModuleMap:
        """E_p (raising) or F_p, at letter position p, built once: F_p sends
        the class of b to the class of theta_p b, and E_p acts on the class
        of a word as ``_e_word`` says."""
        op = self._generators.get((p, raising))
        if op is None:
            f = self.algebra.f
            if raising:
                cols = {idx: self._e_word(p, f.component(nu).basis[c])
                        for idx, (nu, c) in enumerate(self.basis)}
            else:
                th = FElement(f, tuple(int(q == p) for q in range(self.algebra.rank)),
                              {(p,): QV_ONE})
                cols = {idx: self.project(th * self.rep_element(idx))
                        for idx in range(self.dim)}
            op = self._generators[(p, raising)] = ModuleMap.of_columns(self, cols)
        return op

    def _e_word(self, p: int, w: PlainWord) -> dict[int, QVScalar]:
        key = (p, w)
        hit = self._e_word_memo.get(key)
        if hit is not None:
            return hit
        alg = self.algebra
        if not w:
            out: dict[int, QVScalar] = {}
        else:
            j, rest = w[0], w[1:]
            out = self.generator(j, False)(self._e_word(p, rest))
            if j == p:
                rest_deg = alg.f.word_degree(rest)
                wt = _vsub(self.lam, alg.degree_in_x(rest_deg))
                a = alg.datum.pair(alg._coroots[p], wt)
                c = quantum_integer(a, alg._d[p])
                if c:
                    cls = self.project(FElement(alg.f, rest_deg,
                                                {rest: QV_ONE}))
                    for tgt, val in cls.items():
                        _add_into(out, tgt, c * val)
        self._e_word_memo[key] = out
        return out

    def torus(self, mu) -> ModuleMap:
        """K_mu: v^<mu, wt> on each weight vector."""
        mu = self.algebra.y_vector(mu)
        return ModuleMap(self, {(idx, idx): v_power(self.algebra.datum.pair(mu, wt))
                                for idx, wt in enumerate(self.weights)})


def build_module(algebra: UAlgebra, lam) -> HWModule:
    lam = algebra.x_vector(lam)
    mod = algebra._modules.get(lam)
    if mod is None:
        mod = algebra._modules[lam] = HWModule(algebra, lam)
    return mod


class ModuleMap(LinearCombination):
    """Linear map out of a module, as a combination of matrix units keyed by
    (row, column) and tied to its domain module.  The product f * g is the
    composite f∘g, so sums and composites of generator actions are linear
    maps of the module that compare with ``==``; f(vec) is the image of a
    sparse vector {basis key: coefficient}."""

    __slots__ = ()

    @classmethod
    def of_columns(cls, domain, cols: Mapping) -> "ModuleMap":
        """The map sending basis vector k of ``domain`` to ``cols[k]``."""
        return cls(domain, {(r, k): x for k, col in cols.items() for r, x in col.items()})

    def __call__(self, vec: Mapping) -> dict:
        out: dict = {}
        for (r, k), x in self.coords.items():
            if k in vec:
                _add_into(out, r, vec[k] * x)
        return out

    def __mul__(self, other: "ModuleMap") -> "ModuleMap":
        by_col: dict[int, list[tuple[int, QVScalar]]] = {}
        for (r, c), x in self.coords.items():
            by_col.setdefault(c, []).append((r, x))
        out: dict[tuple[int, int], QVScalar] = {}
        for (j, k), y in other.coords.items():
            for i, x in by_col.get(j, ()):
                _add_into(out, (i, k), x * y)
        return ModuleMap(other.algebra, out)

    def __str__(self):
        return " + ".join(f"({render_scalar(c)})*[{r},{k}]"
                          for (r, k), c in sorted(self.coords.items())) or "0"


def module_operator(mod: HWModule, x: UElement) -> ModuleMap:
    """The action of a normal-ordered element: each triple (e, mu, f) acts
    as the composite E_e K_mu F_f of generator maps."""
    total = ModuleMap(mod, {})
    for (ew, mu, fw), c in x.coords.items():
        op = mod.torus(mu)
        for p in fw:
            op = op * mod.generator(p, False)
        for p in reversed(ew):
            op = mod.generator(p, True) * op
        total = total + op.scale(c)
    return total


def module_relations_check(mod: HWModule) -> dict:
    """U_q's defining relations on the module, plus the character: K_μ
    acts on the highest-weight vector (index 0, the empty word) by
    v^⟨μ, λ⟩ for the λ the module was built at.  The module is cyclic on
    that vector, so with the K-F family this fixes every weight.

    ``check_relations`` evaluates its six families on the generator
    operators E_i, F_i and K_μ as linear maps of the module, so every
    product in a relation is a composite of matrices; E_iF_j - F_jE_i is
    never normal-ordered in U_q first, where it would agree for any linear
    action.  The report is check_relations' report (families, failures with
    the residual map) with ``checked`` summed over the families and the
    ``character`` verdict folded into ``holds``."""
    alg = mod.algebra
    e_maps = {i: mod.generator(p, True) for p, i in enumerate(alg.cartan.indices)}
    f_maps = {i: mod.generator(p, False) for p, i in enumerate(alg.cartan.indices)}
    report = check_relations(alg, alg, e_maps, f_maps, mod.torus)
    report["checked"] = sum(f["checked"] for f in report["families"].values())
    report["character"] = all(module_operator(mod, k_gen(alg, mu))({0: QV_ONE})
                              == {0: v_power(alg.datum.pair(mu, mod.lam))}
                              for mu in _y_basis(alg))
    report["holds"] = report["holds"] and report["character"]
    return report


def _induced_map(fmap, src_mod: HWModule, tgt_mod: HWModule) -> ModuleMap:
    """The map of module quotients induced by a map of f."""
    return ModuleMap.of_columns(src_mod, {
        idx: tgt_mod.project(fmap.apply(src_mod.rep_element(idx)))
        for idx in range(src_mod.dim)})


def module_hom_check(emb: UEmbedding, lam) -> dict:
    """The contracted module maps into the full module: the lowering-side
    embedding descends to the quotients, intertwines all generator actions
    through the embedding, and is injective; same for the twisted side with
    the raising-side embedding."""
    lam = emb.target.x_vector(lam)
    src_mod = build_module(emb.source, lam)
    tgt_mod = build_module(emb.target, lam)
    report: dict = {
        "dims": [src_mod.dim, tgt_mod.dim],
        "hypothesis_minus": emb.target.datum.pair_index(emb.pair.minus, lam) == 0,
        "hypothesis_plus": emb.target.datum.pair_index(emb.pair.plus, lam) == 0,
    }
    failures = []
    for twisted in (False, True):
        label = "twisted" if twisted else "plain"
        fmap = emb.plus_map if twisted else emb.minus_map
        well = True
        for nu, rules in src_mod._sub.items():
            basis = emb.source.f.component(nu).basis
            for lead, tail in rules.items():
                row = {basis[-k]: -x for k, x in tail.items()}
                row[basis[-lead]] = QV_ONE
                if tgt_mod.project(fmap.apply(FElement(emb.source.f, nu, row))):
                    well = False
        phi = _induced_map(fmap, src_mod, tgt_mod)
        inter = True
        for name, g, gi in _generators_with_images(emb):
            if twisted:
                g, gi = omega(g), omega(gi)
            if phi * module_operator(src_mod, g) != module_operator(tgt_mod, gi) * phi:
                inter = False
                failures.append({"side": label, "generator": name})
        cols = [phi({idx: QV_ONE}) for idx in range(src_mod.dim)]
        inj = rank(cols) == src_mod.dim
        images = {}
        for (nu, col), image in zip(src_mod.basis, cols):
            w = emb.source.f.component(nu).basis[col]
            images[str(list(w))] = {str(k): render_scalar(c)
                                    for k, c in sorted(image.items())}
        report[label] = {"well_defined": well, "intertwines": inter,
                         "injective": inj, "images": images}
    report["holds"] = all(report[side]["well_defined"]
                          and report[side]["intertwines"]
                          and report[side]["injective"]
                          for side in ("plain", "twisted")) \
        and not failures
    report["failures"] = failures
    return report


def module_canonical_check(emb: UEmbedding, lam) -> dict:
    """Under the vanishing-threshold hypotheses, nonzero canonical classes of
    the contracted module map to canonical classes of the full module (the
    lowering side needs the minus threshold zero, the twisted side the plus
    threshold).  Holds when some side applies and every applicable side
    holds."""
    lam = emb.target.x_vector(lam)
    src_mod = build_module(emb.source, lam)
    tgt_mod = build_module(emb.target, lam)
    out: dict = {}
    for twisted in (False, True):
        i_hyp = emb.pair.plus if twisted else emb.pair.minus
        if emb.target.datum.pair_index(i_hyp, lam) != 0:
            out["twisted" if twisted else "plain"] = {"applicable": False}
            continue
        fmap = emb.plus_map if twisted else emb.minus_map
        ok = True
        seen = []
        tgt_classes: dict[Degree, list[dict]] = {}
        for nu in tgt_mod.reps:
            tgt_classes[nu] = [
                tgt_mod.project(b) for b in canonical_basis(emb.target.f, nu)]
        for nu in src_mod.reps:
            for b in canonical_basis(emb.source.f, nu):
                cls = src_mod.project(b)
                if not cls:
                    continue
                img = fmap.apply(b)
                icls = tgt_mod.project(img)
                if not icls:
                    continue
                match = any(icls == t for ts in tgt_classes.values()
                            for t in ts)
                seen.append({"degree": list(nu), "in_basis": match})
                ok = ok and match
        out["twisted" if twisted else "plain"] = {
            "applicable": True, "holds": ok, "classes": seen}
    sides = [side for side in out.values() if side["applicable"]]
    out["holds"] = bool(sides) and all(side["holds"] for side in sides)
    return out


# --- tensor modules ----------------------------------------------------------

class TensorModule:
    """Twisted module tensor ordinary module, with the coproduct action; its
    basis keys are the pairs (a, b) of factor basis indices."""

    def __init__(self, algebra: UAlgebra, lam_left, lam_right):
        self.algebra = algebra
        self.left = build_module(algebra, lam_left)
        self.right = build_module(algebra, lam_right)
        self.dim = self.left.dim * self.right.dim

    def action(self, x: UElement) -> ModuleMap:
        alg = self.algebra
        out = ModuleMap(self, {})
        for (s, t), c in delta(x).coords.items():
            out = out + _kron(
                self, module_operator(self.left, omega(UElement(alg, {s: QV_ONE}))),
                module_operator(self.right, UElement(alg, {t: QV_ONE}))).scale(c)
        return out


def _kron(domain: TensorModule, f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """f ⊗ g on the pair basis of ``domain``."""
    acc: dict = {}
    _add_outer(acc, QV_ONE, f.coords, g.coords)
    return ModuleMap(domain, {((r, s), (k, l)): x for ((r, k), (s, l)), x in acc.items()})


def psi_tensor_check(emb: UEmbedding, lam_left, lam_right) -> dict:
    """The induced map on tensor modules: propagate from the cyclic vector by
    generator actions, check well-definedness, injectivity, and that the
    separate-factor map matches."""
    src_tm = TensorModule(emb.source, lam_left, lam_right)
    tgt_tm = TensorModule(emb.target, lam_left, lam_right)
    n, m = src_tm.dim, tgt_tm.dim
    # E[i] and F[i] come first in the generator list, the K's last
    actions = [(src_tm.action(g), tgt_tm.action(gi)) for _, g, gi
               in _generators_with_images(emb)[:2 * emb.source.rank]]
    # echelon rules of pairs (source vector | target vector), source keys
    # (1, k) above target keys (0, k) so that every lead is in the source
    # part; a pair reducing to (0 | nonzero) means the same source vector was
    # reached with two different images
    rules: dict = {}
    consistent = True

    def reduce_pair(vs: dict, vt: dict) -> bool:
        nonlocal consistent
        vec = {(0, k): c for k, c in vt.items()}
        vec.update({(1, k): c for k, c in vs.items()})
        vec = residue(rules, vec)
        if not vec or not next(iter(vec))[0]:
            consistent = consistent and not vec
            return False
        echelon_insert(rules, vec)
        return True

    seed = ({(0, 0): QV_ONE}, {(0, 0): QV_ONE})   # both highest weight vectors
    work = [seed]
    reduce_pair(*seed)
    while work:
        vs, vt = work.pop()
        for sa, ta in actions:
            charge()
            nvs, nvt = sa(vs), ta(vt)
            if (nvs or nvt) and reduce_pair(nvs, nvt):
                work.append((nvs, nvt))
    spans = len(rules) == n
    injective = False
    block_match = False
    if spans and consistent:
        # the leads are the n source keys (1, k), and reducing (e_k | 0)
        # leaves (0 | -phi(e_k))
        phi = {k: {i: -c for (_, i), c in residue(rules, {(1, k): QV_ONE}).items()}
               for _, k in rules}
        injective = rank(list(phi.values())) == n
        hom_left = module_hom_check(emb, src_tm.left.lam)
        hom_right = module_hom_check(emb, src_tm.right.lam)
        kron = _kron(src_tm, _induced_map(emb.plus_map, src_tm.left, tgt_tm.left),
                     _induced_map(emb.minus_map, src_tm.right, tgt_tm.right))
        block_match = ModuleMap.of_columns(src_tm, phi) == kron \
            and hom_left["holds"] and hom_right["holds"]
    return {"dims": [n, m],
            "well_defined": consistent, "spans": spans,
            "injective": injective, "factor_map_matches": block_match,
            "holds": consistent and spans and injective and block_match}


# --- linear chains -----------------------------------------------------------

def subset_root_datum(datum: RootDatum, keep: Sequence) -> RootDatum:
    """Restriction to a subset of the vertex set; lattices are unchanged."""
    keep = list(keep)
    positions = [datum.cartan.position(i) for i in keep]
    pairing = tuple(tuple(datum.cartan.pairing[a][b] for b in positions)
                    for a in positions)
    sub_cartan = CartanDatum(tuple(keep), pairing)
    roots = {i: datum.root(i) for i in keep}
    coroots = {i: datum.coroot(i) for i in keep}
    return RootDatum(sub_cartan, datum.pairing, roots, coroots)


def _relabel(source: UAlgebra, target: UAlgebra, symbol_map: Mapping,
             y_map: Callable[[YVec], YVec]) -> UMap:
    """Algebra map determined by a bijection of generator symbols and a fixed
    lattice automorphism on the torus."""
    syms = source.cartan.indices
    return UMap(source, target,
                lambda p, low: (f_gen if low else e_gen)(target, symbol_map[syms[p]]),
                lambda mu: target.y_vector(y_map(mu)))


def _chain_hypotheses(algebra: UAlgebra, chain: Sequence) -> str | None:
    cartan = algebra.cartan
    n = len(chain)
    if n < 2:
        return "chain needs at least two vertices"
    if len(set(chain)) != n:
        return "chain vertices must be distinct"
    for a in chain:
        if a not in cartan.indices:
            return f"vertex {a} is not in the datum"
    for k in range(n - 1):
        if cartan.dot(chain[k], chain[k + 1]) == 0:
            return f"consecutive vertices {chain[k]},{chain[k + 1]} not adjacent"
    for a in range(n):
        for b in range(a + 2, n):
            if cartan.dot(chain[a], chain[b]) != 0:
                return f"non-consecutive vertices {chain[a]},{chain[b]} adjacent"
    for k in range(1, n):
        inside = {chain[k - 1]} | ({chain[k + 1]} if k + 1 < n else set())
        for j in cartan.indices:
            if j == chain[k] or j in inside:
                continue
            if cartan.dot(chain[k], j) != 0:
                return f"vertex {chain[k]} has a neighbor {j} off the chain"
    return None


def linear_tree_factorization_check(target: UAlgebra, chain: Sequence,
                                    epsilon: int) -> dict:
    """Factor the first-edge contraction embedding through the chain: slide
    the contraction to the far end by relabeling isomorphisms, embed the
    vertex-deleted subalgebra, and undo with one braid operator per vertex."""
    problem = _chain_hypotheses(target, chain)
    if problem is not None:
        return {"hypothesis": False, "reason": problem, "holds": False}
    chain = list(chain)
    n = len(chain)
    emb = UEmbedding(target, ContractiblePair(chain[0], chain[1]), epsilon)
    stations: list[UAlgebra] = [emb.source]
    for k in range(1, n - 1):
        stations.append(
            UEmbedding(target, ContractiblePair(chain[k], chain[k + 1]),
                       epsilon).source)
    sub_datum = subset_root_datum(
        target.datum, [i for i in target.cartan.indices if i != chain[-1]])
    sub_alg = UAlgebra(sub_datum, target.f.degree_bound)
    stations.append(sub_alg)
    rhs = _relabel(sub_alg, target, {s: s for s in sub_alg.cartan.indices},
                   lambda mu: mu)
    for k in reversed(range(1, n)):
        upstream = stations[k - 1]
        downstream = stations[k]
        merged_up = next(s for s in upstream.cartan.indices
                         if s not in target.cartan.indices)
        merged_down = None
        if k + 1 < n:
            merged_down = next(s for s in downstream.cartan.indices
                               if s not in target.cartan.indices)
        mapping = {merged_up: chain[k - 1]}
        for sym in upstream.cartan.indices:
            if sym == merged_up:
                continue
            if merged_down is not None and sym == chain[k + 1]:
                mapping[sym] = merged_down
            else:
                mapping[sym] = sym
        p = target.position(chain[k])
        y_map = lambda mu, p=p: target.reflect_y(p, mu)
        rhs = rhs @ _relabel(upstream, downstream, mapping, y_map)
    for k in reversed(range(1, n)):
        rhs = braid_basic(target, chain[k], -epsilon, True) @ rhs
    ids = _Identities()
    for name, g in _named_generators(emb.source):
        ids.expect(f"factorization on {name}", rhs.apply(g), emb.apply(g))
    return ids.report(hypothesis=True)


def naive_square_check(target: UAlgebra, i1, i2, i3, epsilon: int) -> dict:
    """Three consecutive chain vertices: sliding the contracted edge by the
    relabeling isomorphism commutes with one braid operator downstairs."""
    emb_12 = UEmbedding(target, ContractiblePair(i1, i2), epsilon)
    emb_23 = UEmbedding(target, ContractiblePair(i2, i3), epsilon)
    merged_23 = emb_23.merged
    merged_12 = emb_12.merged
    mapping = {}
    for sym in emb_23.source.cartan.indices:
        if sym == merged_23:
            mapping[sym] = i3
        elif sym == i1:
            mapping[sym] = merged_12
        else:
            mapping[sym] = sym
    p2 = target.position(i2)
    relabel = _relabel(emb_23.source, emb_12.source, mapping,
                       lambda mu: target.reflect_y(p2, mu))
    braid = braid_basic(target, i2, -epsilon, True)
    ids = _Identities()
    for name, g in _named_generators(emb_23.source):
        ids.expect(f"square on {name}", braid.apply(emb_23.apply(g)),
                   emb_12.apply(relabel.apply(g)))
    return ids.report()
