"""Quantized enveloping algebra on a root datum, in triangular normal form.

Elements are linear combinations of triples (raising word, torus exponent,
lowering word), ordered raising-torus-lowering.  Products are normalized by
crossing lowering letters through raising words (producing torus terms on
matching letters), moving torus factors left, and reducing both outer words
through the graded Serre algebra.

The module also provides the contraction embedding on the whole algebra, the
coproduct and its bidegree blocks, the modified (idempotented) form, braid
operators together with their contraction compatibilities, a rank probe for
the subquotient presentation, highest-weight and tensor modules, and the
factorization of contraction embeddings along linear chains of vertices.
"""
from __future__ import annotations

from typing import Callable, Mapping, Sequence

from ._budget import charge
from ._linalg import rank as _mat_rank, rref as _rref, solve as _solve
from .cartan import (CartanDatum, ContractiblePair, RootDatum,
                     contract_root_datum)
from .falg import (FAlgebra, FElement, LinearCombination, _add_into,
                   _degrees_up_to, felement, psi_dagger_epsilon, psi_epsilon,
                   theta)
from .scalar import (QV_ONE, QV_ZERO, QVScalar, bar as scalar_bar, qv,
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
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def _sign_power(base_exp: int, n: int) -> QVScalar:
    """(-v^base_exp)^n for any integer n."""
    c = v_power(n * base_exp)
    return -c if n % 2 else c


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
        self._gated: set = set()          # pairs whose braid formula gate passed
        self._modules: dict = {}          # highest weight -> HWModule

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

    def k_tilde_vector(self, i, n: int = 1) -> YVec:
        p = self.position(i)
        return tuple(n * c for c in self._kt[p])

    def reflect_y(self, p: int, mu: YVec) -> YVec:
        n = self.datum.pair(mu, self._roots[p])
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
                w = self.weight_pairing(kt, self.f.word_degree(rest))
                _add_into(out, (rest, kt, ()), -v_power(w) * den)
                _add_into(out, (rest, _neg(kt), ()), v_power(-w) * den)
            out = {k: c for k, c in out.items() if c}
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
            for (a2, k2, f2), c2 in self._cross(prefix, a1).items():
                charge()
                w = self.weight_pairing(k1, self.f.word_degree(f2))
                _add_into(out, (a2, _vadd(k1, k2), f2 + f1),
                          c1 * c2 * v_power(w))
        out = {k: c for k, c in out.items() if c}
        self._cross_memo[key] = out
        return out

    def _reduce_word(self, w: PlainWord) -> Mapping[PlainWord, QVScalar]:
        if not w:
            return {(): QV_ONE}
        return self.f.component(self.f.word_degree(w)).reduce({w: QV_ONE})

    def reduce_triples(self, raw: Mapping[Triple, QVScalar]) -> dict[Triple, QVScalar]:
        """Reduce both outer words; the middle entry (a torus exponent, or a
        weight in the idempotented form) passes through."""
        out: dict[Triple, QVScalar] = {}
        for (ew, mu, fw), c in raw.items():
            if not c:
                continue
            for a, ca in self._reduce_word(ew).items():
                for b, cb in self._reduce_word(fw).items():
                    _add_into(out, (a, mu, b), c * ca * cb)
        return {k: c for k, c in out.items() if c}


class UElement(LinearCombination):
    """Combination of reduced normal-ordered triples with exact coefficients."""

    __slots__ = ()

    def __mul__(self, other: "UElement") -> "UElement":
        return u_multiply(self, other)

    def __repr__(self):
        return f"UElement({render_uelement(self)})"


def u_element(algebra: UAlgebra, terms: Mapping[Triple, QVScalar]) -> UElement:
    fixed = {}
    for (ew, mu, fw), c in terms.items():
        fixed[(tuple(ew), algebra.y_vector(mu), tuple(fw))] = qv(c)
    return UElement(algebra, algebra.reduce_triples(fixed))


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
    pp, pm = algebra.position(pair.plus), algebra.position(pair.minus)
    d0 = algebra._d[pp]
    raw = {((pp, pm), algebra.y_zero, ()): QV_ONE,
           ((pm, pp), algebra.y_zero, ()): -v_power(-epsilon * d0)}
    return UElement(algebra, algebra.reduce_triples(raw))


def f_merged(algebra: UAlgebra, pair: ContractiblePair, epsilon: int) -> UElement:
    """Lowering-side merged generator; minus-first, opposite twist sign."""
    pp, pm = algebra.position(pair.plus), algebra.position(pair.minus)
    d0 = algebra._d[pp]
    raw = {((), algebra.y_zero, (pm, pp)): QV_ONE,
           ((), algebra.y_zero, (pp, pm)): -v_power(epsilon * d0)}
    return UElement(algebra, algebra.reduce_triples(raw))


def k_merged_vector(algebra: UAlgebra, pair: ContractiblePair) -> YVec:
    return _vadd(algebra.k_tilde_vector(pair.plus),
                 algebra.k_tilde_vector(pair.minus))


def divided_power(x: UElement, n: int, d: int) -> UElement:
    out = u_one(x.algebra)
    for _ in range(n):
        out = u_multiply(out, x)
    return out.scale(QV_ONE / quantum_factorial(n, d))


def u_multiply(x: UElement, y: UElement) -> UElement:
    if x.algebra is not y.algebra:
        raise ValueError("elements of different algebras")
    alg = x.algebra
    wd = alg.f.word_degree
    raw: dict[Triple, QVScalar] = {}
    for (e1, m1, f1), c1 in x.coords.items():
        for (e2, m2, f2), c2 in y.coords.items():
            charge()
            base = c1 * c2
            for (a, t, b), g in alg._cross(f1, e2).items():
                w = alg.weight_pairing(m1, wd(a)) + alg.weight_pairing(m2, wd(b))
                mu = _vadd(_vadd(m1, t), m2)
                _add_into(raw, (e1 + a, mu, b + f2), base * g * v_power(w))
    return UElement(alg, alg.reduce_triples(raw))


def bar_U(x: UElement) -> UElement:
    """Bar involution: fixes raising and lowering letters, negates the torus
    exponent, conjugates coefficients."""
    return UElement(x.algebra, {(ew, _neg(mu), fw): scalar_bar(c)
                                for (ew, mu, fw), c in x.coords.items()})


def omega(x: UElement) -> UElement:
    """Swap raising and lowering letters and invert the torus."""
    alg = x.algebra
    out = UElement(alg, {})
    for (ew, mu, fw), c in x.coords.items():
        t = UElement(alg, {((), alg.y_zero, ew): QV_ONE})
        t = u_multiply(t, k_gen(alg, _neg(mu)))
        t = u_multiply(t, UElement(alg, {(fw, alg.y_zero, ()): QV_ONE}))
        out = out + t.scale(c)
    return out


def rho(x: UElement) -> UElement:
    """Antiautomorphism fixing the torus, sending each raising letter to a
    torus-twisted lowering letter and conversely."""
    alg = x.algebra
    out = UElement(alg, {})
    for (ew, mu, fw), c in x.coords.items():
        acc = u_one(alg)
        for p in reversed(fw):
            d = alg._d[p]
            img = UElement(alg, {((p,), _neg(alg._kt[p]), ()): v_power(-d)})
            acc = u_multiply(acc, img)
        acc = u_multiply(acc, k_gen(alg, mu))
        for p in reversed(ew):
            d = alg._d[p]
            img = UElement(alg, {((), alg._kt[p], (p,)): v_power(d)})
            acc = u_multiply(acc, img)
        out = out + acc.scale(c)
    return out


def render_uelement(x: UElement) -> str:
    if not x.coords:
        return "0"
    alg = x.algebra
    syms = alg.cartan.indices
    chunks = []
    for (ew, mu, fw) in sorted(x.coords):
        c = x.coords[(ew, mu, fw)]
        parts = []
        if ew:
            parts.append("".join(f"E[{syms[p]}]" for p in ew))
        if any(mu):
            parts.append("K{μ=(" + ",".join(str(a) for a in mu) + ")}")
        if fw:
            parts.append("".join(f"F[{syms[p]}]" for p in fw))
        body = "·".join(parts) if parts else "1"
        chunks.append(f"({render_scalar(c)})*{body}")
    return " + ".join(chunks)


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
        self.merged = next(i for i in self.datum.cartan.indices
                           if i not in target.cartan.indices)
        self.plus_map = psi_epsilon(target.f, pair, epsilon,
                                    merged_symbol=self.merged,
                                    source=self.source.f)
        self.minus_map = psi_dagger_epsilon(target.f, pair, epsilon,
                                            merged_symbol=self.merged,
                                            source=self.source.f)

    def apply(self, x: UElement) -> UElement:
        if x.algebra is not self.source:
            raise ValueError("element does not live in the source algebra")
        raw: dict[Triple, QVScalar] = {}
        for (ew, mu, fw), c in x.coords.items():
            eimg = self.plus_map.apply_plain({ew: QV_ONE})
            fimg = self.minus_map.apply_plain({fw: QV_ONE})
            for a, ca in eimg.items():
                for b, cb in fimg.items():
                    _add_into(raw, (a, mu, b), c * ca * cb)
        return UElement(self.target, self.target.reduce_triples(raw))

    def degree_map(self, nu: Degree) -> Degree:
        return self.plus_map.degree_map(nu)


def _e_images_of(emb: UEmbedding) -> dict:
    out = {}
    for i in emb.source.cartan.indices:
        if i == emb.merged:
            out[i] = e_merged(emb.target, emb.pair, emb.epsilon)
        else:
            out[i] = e_gen(emb.target, i)
    return out


def _f_images_of(emb: UEmbedding) -> dict:
    out = {}
    for i in emb.source.cartan.indices:
        if i == emb.merged:
            out[i] = f_merged(emb.target, emb.pair, emb.epsilon)
        else:
            out[i] = f_gen(emb.target, i)
    return out


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
    e_imgs, f_imgs = _e_images_of(emb), _f_images_of(emb)
    images = [img for i in emb.source.cartan.indices
              for img in (e_imgs[i], f_imgs[i])]
    images += [k_gen(emb.target, mu) for mu in _y_basis(emb.source)]
    return [(name, g, img)
            for (name, g), img in zip(_named_generators(emb.source), images)]


def check_relations(source: UAlgebra, target: UAlgebra,
                    e_images: Mapping, f_images: Mapping,
                    k_images: Callable[[YVec], UElement] | None = None) -> dict:
    """Evaluate all six defining relation families of the source presentation
    on assigned generator images; residuals must vanish."""
    if k_images is None:
        k_images = lambda mu: k_gen(target, mu)
    indices = source.cartan.indices
    basis = _y_basis(source)
    report: dict = {"families": {}, "failures": []}

    def fam(name: str, checked: int, fails: list):
        report["families"][name] = {"checked": checked, "holds": not fails}
        report["failures"].extend(fails)

    fails: list = []
    count = 0
    for a in basis:
        for b in basis:
            count += 1
            lhs = u_multiply(k_images(a), k_images(b))
            rhs = k_images(_vadd(a, b))
            if lhs != rhs:
                fails.append({"family": "K-product", "at": [list(a), list(b)],
                              "diff": render_uelement(lhs - rhs)})
    fam("K-product", count, fails)

    fails, count = [], 0
    for mu in basis:
        kk = k_images(mu)
        for i in indices:
            count += 1
            w = source.datum.pair(mu, source.datum.root(i))
            lhs = u_multiply(kk, e_images[i])
            rhs = u_multiply(e_images[i], kk).scale(v_power(w))
            if lhs != rhs:
                fails.append({"family": "K-E", "at": [list(mu), str(i)],
                              "diff": render_uelement(lhs - rhs)})
    fam("K-E", count, fails)

    fails, count = [], 0
    for mu in basis:
        kk = k_images(mu)
        for i in indices:
            count += 1
            w = source.datum.pair(mu, source.datum.root(i))
            lhs = u_multiply(kk, f_images[i])
            rhs = u_multiply(f_images[i], kk).scale(v_power(-w))
            if lhs != rhs:
                fails.append({"family": "K-F", "at": [list(mu), str(i)],
                              "diff": render_uelement(lhs - rhs)})
    fam("K-F", count, fails)

    fails, count = [], 0
    for i in indices:
        di = source.cartan.d(i)
        kt = source.k_tilde_vector(i)
        for j in indices:
            count += 1
            lhs = u_multiply(e_images[i], f_images[j]) \
                - u_multiply(f_images[j], e_images[i])
            if i == j:
                den = QV_ONE / (v_power(di) - v_power(-di))
                rhs = (k_images(kt) - k_images(_neg(kt))).scale(den)
            else:
                rhs = UElement(target, {})
            if lhs != rhs:
                fails.append({"family": "E-F", "at": [str(i), str(j)],
                              "diff": render_uelement(lhs - rhs)})
    fam("E-F", count, fails)

    for name, images in (("Serre-E", e_images), ("Serre-F", f_images)):
        fails, count = [], 0
        for i in indices:
            di = source.cartan.d(i)
            for j in indices:
                if i == j:
                    continue
                count += 1
                m = 1 - source.cartan.cartan_entry(i, j)
                acc = UElement(target, {})
                for r in range(m + 1):
                    s = m - r
                    term = u_multiply(
                        u_multiply(divided_power(images[i], r, di), images[j]),
                        divided_power(images[i], s, di))
                    acc = acc + (term if r % 2 == 0 else -term)
                if not acc.is_zero():
                    fails.append({"family": name, "at": [str(i), str(j)],
                                  "diff": render_uelement(acc)})
        fam(name, count, fails)

    report["holds"] = not report["failures"]
    return report


def embedding_relations_check(emb: UEmbedding) -> dict:
    return check_relations(emb.source, emb.target,
                           _e_images_of(emb), _f_images_of(emb))


def psi_preimage(emb: UEmbedding, y: UElement) -> UElement | None:
    """Solve for the source element with the given image, blockwise over
    (raising degree, torus, lowering degree); None when no preimage exists."""
    tgt, src = emb.target, emb.source
    pp, pm = tgt.position(emb.pair.plus), tgt.position(emb.pair.minus)
    blocks: dict[tuple[Degree, YVec, Degree], dict[Triple, QVScalar]] = {}
    for (ew, mu, fw), c in y.coords.items():
        key = (tgt.f.word_degree(ew), mu, tgt.f.word_degree(fw))
        blocks.setdefault(key, {})[(ew, mu, fw)] = c
    out: dict[Triple, QVScalar] = {}
    for (de, mu, df), part in blocks.items():
        if de[pp] != de[pm] or df[pp] != df[pm]:
            return None
        nu_e = _degree_preimage(emb, de)
        nu_f = _degree_preimage(emb, df)
        pairs = [(a, b) for a in src.f.component(nu_e).basis
                 for b in src.f.component(nu_f).basis]
        images = []
        for a, b in pairs:
            ia = emb.plus_map.apply_plain({a: QV_ONE})
            ib = emb.minus_map.apply_plain({b: QV_ONE})
            img: dict[Triple, QVScalar] = {}
            for wa, ca in ia.items():
                for wb, cb in ib.items():
                    _add_into(img, (wa, mu, wb), ca * cb)
            images.append(tgt.reduce_triples(img))
        keys = sorted(set().union(part, *images))
        rows = [[images[c].get(k, QV_ZERO) for c in range(len(pairs))]
                for k in keys]
        rhs = [part.get(k, QV_ZERO) for k in keys]
        sol = _solve(rows, rhs)
        if sol is None:
            return None
        for (a, b), c in zip(pairs, sol):
            if c:
                _add_into(out, (a, mu, b), c)
    return UElement(src, out)


def _degree_preimage(emb: UEmbedding, nu: Degree) -> Degree:
    """Letter degree upstairs; the two contracted coordinates must agree."""
    src, tgt = emb.source, emb.target
    out = [0] * src.rank
    for q, sym in enumerate(src.cartan.indices):
        if sym == emb.merged:
            out[q] = nu[tgt.position(emb.pair.plus)]
        else:
            out[q] = nu[tgt.position(sym)]
    return tuple(out)


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
            images = []
            for a, b in pairs:
                x = UElement(src, {(a, src.y_zero, b): QV_ONE})
                images.append(emb.apply(x).coords)
            keys = sorted(set().union(*images))
            rows = [[img.get(k, QV_ZERO) for k in keys] for img in images]
            rk = _mat_rank(rows)
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
    for s, cs in x.coords.items():
        for t, ct in y.coords.items():
            _add_into(out, (s, t), cs * ct)
    return UTensor(x.algebra, out)


def _tensor_mul(t1: UTensor, t2: UTensor) -> UTensor:
    alg = t1.algebra
    out: dict[tuple[Triple, Triple], QVScalar] = {}
    for (s1, s2), c in t1.coords.items():
        for (u1, u2), d in t2.coords.items():
            charge()
            left = u_multiply(UElement(alg, {s1: QV_ONE}),
                              UElement(alg, {u1: QV_ONE}))
            right = u_multiply(UElement(alg, {s2: QV_ONE}),
                               UElement(alg, {u2: QV_ONE}))
            for a, ca in left.coords.items():
                for b, cb in right.coords.items():
                    _add_into(out, (a, b), c * d * ca * cb)
    return UTensor(alg, out)


def delta(x: UElement) -> UTensor:
    """Coproduct, computed letterwise from the generator rules."""
    alg = x.algebra
    y0 = alg.y_zero
    unit_triple = ((), y0, ())
    total: dict[tuple[Triple, Triple], QVScalar] = {}
    for (ew, mu, fw), c in x.coords.items():
        acc = UTensor(alg, {(unit_triple, unit_triple): QV_ONE})
        for p in ew:
            step = UTensor(alg, {
                (((p,), y0, ()), unit_triple): QV_ONE,
                (((), alg._kt[p], ()), ((p,), y0, ())): QV_ONE})
            acc = _tensor_mul(acc, step)
        if any(mu):
            step = UTensor(alg, {(((), mu, ()), ((), mu, ())): QV_ONE})
            acc = _tensor_mul(acc, step)
        for p in fw:
            step = UTensor(alg, {
                (((), y0, (p,)), ((), _neg(alg._kt[p]), ())): QV_ONE,
                (unit_triple, ((), y0, (p,))): QV_ONE})
            acc = _tensor_mul(acc, step)
        total_acc = acc.scale(c)
        for t, cc in total_acc.coords.items():
            _add_into(total, t, cc)
    return UTensor(alg, total)


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
        a = emb.apply(UElement(emb.source, {s1: QV_ONE}))
        b = emb.apply(UElement(emb.source, {s2: QV_ONE}))
        for u, cu in a.coords.items():
            for w, cw in b.coords.items():
                _add_into(out, (u, w), c * cu * cw)
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
    checked, failures = 0, []
    for a in src.f.component(nu_e).basis:
        for b in src.f.component(nu_f).basis:
            checked += 1
            x = UElement(src, {(a, src.y_zero, b): QV_ONE})
            lhs = delta_component(delta(emb.apply(x)), tau_t, omega_t)
            rhs = tensor_psi(emb, delta_component(delta(x), tau, omega_deg))
            if lhs != rhs:
                failures.append({"triple": [list(a), list(b)],
                                 "diff": repr(lhs - rhs)})
    return {"checked": checked, "block": [list(tau), list(omega_deg)],
            "holds": not failures, "failures": failures}


# --- the modified form -------------------------------------------------------

class UdotElement(LinearCombination):
    """Combination of (raising word, middle weight, lowering word) triples in
    the idempotented form; the middle weight sits between the outer words."""

    __slots__ = ()

    def __repr__(self):
        return f"UdotElement({render_udot(self)})"


def render_udot(x: UdotElement) -> str:
    if not x.coords:
        return "0"
    syms = x.algebra.cartan.indices
    chunks = []
    for (ew, lam, fw) in sorted(x.coords):
        c = x.coords[(ew, lam, fw)]
        parts = []
        if ew:
            parts.append("".join(f"E[{syms[p]}]" for p in ew))
        parts.append("1{λ=(" + ",".join(str(a) for a in lam) + ")}")
        if fw:
            parts.append("".join(f"F[{syms[p]}]" for p in fw))
        chunks.append(f"({render_scalar(c)})*" + "·".join(parts))
    return " + ".join(chunks)


def udot_idempotent(algebra: UAlgebra, lam) -> UdotElement:
    return UdotElement(algebra, {((), algebra.x_vector(lam), ()): QV_ONE})


def udot_multiply(x: UdotElement, y: UdotElement) -> UdotElement:
    """Product in the idempotented form; mismatched middle weights vanish."""
    if x.algebra is not y.algebra:
        raise ValueError("elements of different algebras")
    alg = x.algebra
    wd = alg.f.word_degree
    raw: dict = {}
    for (a, lam, b), c1 in x.coords.items():
        for (p, sig, q), c2 in y.coords.items():
            charge()
            for (xe, tau, xf), g in alg._cross(b, p).items():
                m = _vsub(sig, alg.degree_in_x(wd(xf)))
                if _vsub(lam, alg.degree_in_x(wd(xe))) != m:
                    continue
                w = alg.datum.pair(tau, m)
                _add_into(raw, (a + xe, m, xf + q), c1 * c2 * g * v_power(w))
    return UdotElement(alg, alg.reduce_triples(raw))


def u_act_udot(u: UElement, x: UdotElement) -> UdotElement:
    alg = x.algebra
    if u.algebra is not alg:
        raise ValueError("elements of different algebras")
    wd = alg.f.word_degree
    raw: dict = {}
    for (e, mu, f), c1 in u.coords.items():
        for (p, sig, q), c2 in x.coords.items():
            charge()
            for (xe, tau, xf), g in alg._cross(f, p).items():
                m = _vsub(sig, alg.degree_in_x(wd(xf)))
                w = alg.weight_pairing(mu, wd(xe)) \
                    + alg.datum.pair(_vadd(mu, tau), m)
                _add_into(raw, (e + xe, m, xf + q), c1 * c2 * g * v_power(w))
    return UdotElement(alg, alg.reduce_triples(raw))


def udot_act_u(x: UdotElement, u: UElement) -> UdotElement:
    alg = x.algebra
    if u.algebra is not alg:
        raise ValueError("elements of different algebras")
    wd = alg.f.word_degree
    raw: dict = {}
    for (a, lam, b), c1 in x.coords.items():
        for (p, mu, q), c2 in u.coords.items():
            charge()
            for (xe, tau, xf), g in alg._cross(b, p).items():
                m = _vsub(lam, alg.degree_in_x(wd(xe)))
                w = alg.datum.pair(tau, m) \
                    + alg.datum.pair(mu, _vadd(m, alg.degree_in_x(wd(xf))))
                _add_into(raw, (a + xe, m, xf + q), c1 * c2 * g * v_power(w))
    return UdotElement(alg, alg.reduce_triples(raw))


def pi_weight(x: UElement, lam_left, lam_right) -> UdotElement:
    """Projection onto one weight block of the idempotented form."""
    alg = x.algebra
    lam_left = alg.x_vector(lam_left)
    lam_right = alg.x_vector(lam_right)
    wd = alg.f.word_degree
    raw: dict = {}
    for (ew, mu, fw), c in x.coords.items():
        de = alg.degree_in_x(wd(ew))
        df = alg.degree_in_x(wd(fw))
        if _vsub(lam_left, lam_right) != _vsub(de, df):
            continue
        m = _vsub(lam_right, df)
        _add_into(raw, (ew, m, fw), c * v_power(alg.datum.pair(mu, m)))
    return UdotElement(alg, raw)


def psi_udot(emb: UEmbedding, x: UdotElement) -> UdotElement:
    """The embedding on the idempotented form; weights pass through."""
    if x.algebra is not emb.source:
        raise ValueError("element does not live in the source algebra")
    raw: dict = {}
    for (ew, lam, fw), c in x.coords.items():
        eimg = emb.plus_map.apply_plain({ew: QV_ONE})
        fimg = emb.minus_map.apply_plain({fw: QV_ONE})
        for a, ca in eimg.items():
            for b, cb in fimg.items():
                _add_into(raw, (a, lam, b), c * ca * cb)
    return UdotElement(emb.target, emb.target.reduce_triples(raw))


def psi_dot_check(emb: UEmbedding, weights: Sequence, max_letters: int = 2) -> dict:
    """Bimodule compatibility of the idempotented embedding at the given
    middle weights, on generator words up to a letter bound."""
    src, tgt = emb.source, emb.target
    gens = _generators_with_images(emb)
    failures = []
    checked = 0
    for lam in weights:
        lam = src.x_vector(lam)
        base_pairs = [(udot_idempotent(src, lam), udot_idempotent(tgt, lam))]
        if max_letters > 1:
            for name, g, gi in gens:
                base_pairs.append((u_act_udot(g, udot_idempotent(src, lam)),
                                   u_act_udot(gi, udot_idempotent(tgt, lam))))
        for xs, xt in base_pairs:
            if psi_udot(emb, xs) != xt:
                failures.append({"weight": list(lam),
                                 "diff": render_udot(psi_udot(emb, xs) - xt)})
                continue
            for name, g, gi in gens:
                checked += 2
                left = psi_udot(emb, u_act_udot(g, xs))
                right = u_act_udot(gi, psi_udot(emb, xs))
                if left != right:
                    failures.append({"weight": list(lam), "generator": name,
                                     "side": "left",
                                     "diff": render_udot(left - right)})
                left = psi_udot(emb, udot_act_u(xs, g))
                right = udot_act_u(psi_udot(emb, xs), gi)
                if left != right:
                    failures.append({"weight": list(lam), "generator": name,
                                     "side": "right",
                                     "diff": render_udot(left - right)})
    return {"checked": checked, "holds": not failures, "failures": failures}


# --- braid operators ---------------------------------------------------------

class BraidOperator:
    """Simple-index symmetry acting by generator substitution followed by
    normal-form reduction; label = (index, sign, primed or doubleprime)."""

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
        kt = algebra._kt[p]
        self._e_img: dict[int, UElement] = {}
        self._f_img: dict[int, UElement] = {}
        if primed:
            self._e_img[p] = UElement(algebra, {
                ((), tuple(e * a for a in kt), (p,)): -QV_ONE})
            self._f_img[p] = UElement(algebra, {
                ((p,), tuple(-e * a for a in kt), ()): -QV_ONE})
        else:
            self._e_img[p] = UElement(algebra, {
                ((), tuple(e * a for a in kt), (p,)): -v_power(2 * e * d)})
            self._f_img[p] = UElement(algebra, {
                ((p,), tuple(-e * a for a in kt), ()): -v_power(-2 * e * d)})
        for q, sym in enumerate(algebra.cartan.indices):
            if q == p:
                continue
            n = -algebra.cartan.cartan_entry(i, sym)
            raw_e: dict[Triple, QVScalar] = {}
            raw_f: dict[Triple, QVScalar] = {}
            for r in range(n + 1):
                s = n - r
                fac = QV_ONE / (quantum_factorial(r, d) * quantum_factorial(s, d))
                sign = QV_ONE if r % 2 == 0 else -QV_ONE
                if primed:
                    ce = sign * v_power(e * d * r) * fac
                    cf = sign * v_power(-e * d * r) * fac
                    _add_into(raw_e, ((p,) * r + (q,) + (p,) * s,
                                      algebra.y_zero, ()), ce)
                    _add_into(raw_f, ((), algebra.y_zero,
                                      (p,) * s + (q,) + (p,) * r), cf)
                else:
                    ce = sign * v_power(-e * d * r) * fac
                    cf = sign * v_power(e * d * r) * fac
                    _add_into(raw_e, ((p,) * s + (q,) + (p,) * r,
                                      algebra.y_zero, ()), ce)
                    _add_into(raw_f, ((), algebra.y_zero,
                                      (p,) * r + (q,) + (p,) * s), cf)
            self._e_img[q] = UElement(algebra, algebra.reduce_triples(raw_e))
            self._f_img[q] = UElement(algebra, algebra.reduce_triples(raw_f))
        self._eword_memo: dict[PlainWord, UElement] = {}
        self._fword_memo: dict[PlainWord, UElement] = {}

    def _word_image(self, w: PlainWord, lowering: bool) -> UElement:
        memo = self._fword_memo if lowering else self._eword_memo
        hit = memo.get(w)
        if hit is not None:
            return hit
        if not w:
            out = u_one(self.algebra)
        else:
            head = self._word_image(w[:-1], lowering)
            img = (self._f_img if lowering else self._e_img)[w[-1]]
            out = u_multiply(head, img)
        memo[w] = out
        return out

    def apply(self, x: UElement) -> UElement:
        if x.algebra is not self.algebra:
            raise ValueError("element does not live in this algebra")
        out = UElement(self.algebra, {})
        for (ew, mu, fw), c in x.coords.items():
            charge()
            t = self._word_image(ew, False)
            t = u_multiply(t, k_gen(self.algebra,
                                    self.algebra.reflect_y(self._p, mu)))
            t = u_multiply(t, self._word_image(fw, True))
            out = out + t.scale(c)
        return out

    def inverse(self) -> "BraidOperator":
        """The inverse carries the opposite decoration and opposite sign."""
        return BraidOperator(self.algebra, self.index, -self.e,
                             not self.primed)

    def __repr__(self):
        kind = "primed" if self.primed else "doubleprime"
        return f"BraidOperator({self.index}, e={self.e}, {kind})"


def braid_basic(algebra: UAlgebra, i, e: int, primed: bool = True) -> BraidOperator:
    return BraidOperator(algebra, i, e, primed)


class ComposedBraid:
    """Composite of braid operators, rightmost applied first."""

    def __init__(self, ops: Sequence[BraidOperator]):
        self.ops = list(ops)

    def apply(self, x: UElement) -> UElement:
        for op in reversed(self.ops):
            x = op.apply(x)
        return x


def braid_formula_gate(algebra: UAlgebra, pair: ContractiblePair) -> dict:
    """Consistency gate for the substitution formulas: the operators must
    reproduce the quoted evaluations on the merged generators."""
    pp = algebra.position(pair.plus)
    d0 = algebra._d[pp]
    failures = []

    def expect(label: str, got: UElement, want: UElement):
        if got != want:
            failures.append({"identity": label,
                             "got": render_uelement(got),
                             "want": render_uelement(want)})

    tp1 = braid_basic(algebra, pair.plus, 1)
    tm1 = braid_basic(algebra, pair.minus, 1)
    expect("plus moves merged(-1) to the minus generator",
           tp1.apply(e_merged(algebra, pair, -1)), e_gen(algebra, pair.minus))
    expect("plus moves merged(-1) to the minus generator, lowering",
           tp1.apply(f_merged(algebra, pair, -1)), f_gen(algebra, pair.minus))
    expect("minus moves merged(+1) to the plus generator",
           tm1.apply(e_merged(algebra, pair, 1)),
           e_gen(algebra, pair.plus).scale(-v_power(-d0)))
    expect("minus moves merged(+1) to the plus generator, lowering",
           tm1.apply(f_merged(algebra, pair, 1)),
           f_gen(algebra, pair.plus).scale(-v_power(d0)))
    for e in (1, -1):
        tme = braid_basic(algebra, pair.minus, e)
        tpe = braid_basic(algebra, pair.plus, e)
        expect(f"minus sends plus generator to merged(e={e})",
               tme.apply(e_gen(algebra, pair.plus)),
               e_merged(algebra, pair, -e))
        expect(f"minus sends plus generator to merged(e={e}), lowering",
               tme.apply(f_gen(algebra, pair.plus)),
               f_merged(algebra, pair, -e))
        expect(f"plus sends minus generator to merged(e={e})",
               tpe.apply(e_gen(algebra, pair.minus)),
               e_merged(algebra, pair, e).scale(-v_power(e * d0)))
        expect(f"plus sends minus generator to merged(e={e}), lowering",
               tpe.apply(f_gen(algebra, pair.minus)),
               f_merged(algebra, pair, e).scale(-v_power(-e * d0)))
    return {"holds": not failures, "failures": failures}


def _ensure_gate(algebra: UAlgebra, pair: ContractiblePair) -> None:
    key = (pair.plus, pair.minus)
    if key in algebra._gated:
        return
    report = braid_formula_gate(algebra, pair)
    if not report["holds"]:
        raise AssertionError(f"braid formula gate failed: {report['failures']}")
    algebra._gated.add(key)


def tilde_braid_i0(algebra: UAlgebra, pair: ContractiblePair, e: int,
                   primed: bool = True) -> ComposedBraid:
    """Merged-index symmetry as the plus-minus-plus composite."""
    _ensure_gate(algebra, pair)
    tp = braid_basic(algebra, pair.plus, e, primed)
    tm = braid_basic(algebra, pair.minus, e, primed)
    return ComposedBraid([tp, tm, tp])


def braid_assumption_holds(algebra: UAlgebra, pair: ContractiblePair):
    """No third vertex may neighbor both members of the pair."""
    for j in algebra.cartan.indices:
        if j in (pair.plus, pair.minus):
            continue
        if algebra.cartan.dot(j, pair.plus) != 0 \
                and algebra.cartan.dot(j, pair.minus) != 0:
            return False, j
    return True, None


def _merged_divided(algebra: UAlgebra, pair: ContractiblePair, epsilon: int,
                    n: int, lowering: bool) -> UElement:
    base = (f_merged if lowering else e_merged)(algebra, pair, epsilon)
    d0 = algebra._d[algebra.position(pair.plus)]
    return divided_power(base, n, d0)


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
    failures = []
    checked = 0

    def expect(label: str, got: UElement, want: UElement):
        nonlocal checked
        checked += 1
        if got != want:
            failures.append({"identity": label,
                             "got": render_uelement(got),
                             "want": render_uelement(want)})

    others = [j for j in algebra.cartan.indices
              if j not in (pair.plus, pair.minus)]

    def chain_sum(gen: UElement, nj: int, eps: int, lowering: bool,
                  r_first: bool, twist: int, signed: bool) -> UElement:
        """sum_r (-1)^r v^(twist r) M^(a) gen M^(b) over r + s = nj, with M
        the merged(eps) generator in divided powers, (a, b) = (r, s) when
        r_first and (s, r) otherwise, times (-v^twist)^nj when signed."""
        extra = _sign_power(twist, nj) if signed else QV_ONE
        acc = UElement(algebra, {})
        for r in range(nj + 1):
            s = nj - r
            a, b = (r, s) if r_first else (s, r)
            sign = QV_ONE if r % 2 == 0 else -QV_ONE
            acc = acc + u_multiply(
                u_multiply(_merged_divided(algebra, pair, eps, a, lowering), gen),
                _merged_divided(algebra, pair, eps, b, lowering)) \
                .scale(sign * v_power(twist * r) * extra)
        return acc

    for e in (1, -1):
        tp = tilde_braid_i0(algebra, pair, e, primed=True)
        td = tilde_braid_i0(algebra, pair, e, primed=False)
        ke = k_gen(algebra, tuple(e * a for a in kt0))
        kem = k_gen(algebra, tuple(-e * a for a in kt0))
        for eps in (1, -1):
            expect(f"primed list 1 (e={e}, eps={eps})",
                   tp.apply(e_merged(algebra, pair, eps)),
                   u_multiply(ke, f_merged(algebra, pair, -eps))
                   .scale(v_power(-e * d0)))
            expect(f"primed list 2 (e={e}, eps={eps})",
                   tp.apply(f_merged(algebra, pair, eps)),
                   u_multiply(e_merged(algebra, pair, -eps), kem)
                   .scale(v_power(e * d0)))
            expect(f"doubleprime list 1 (e={e}, eps={eps})",
                   td.apply(e_merged(algebra, pair, eps)),
                   u_multiply(f_merged(algebra, pair, -eps), ke)
                   .scale(v_power(e * d0)))
            expect(f"doubleprime list 2 (e={e}, eps={eps})",
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
                        expect(f"{kind} list {first + lowering} (e={e}, {tag}={j})",
                               op.apply(gen),
                               chain_sum(gen, nj, eps, lowering, r_first, twist,
                                         primed == signed_primed))
    return {"assumption": True, "checked": checked,
            "holds": not failures, "failures": failures}


def _end_vertex(cartan: CartanDatum, i) -> bool:
    return sum(1 for j in cartan.indices
               if j != i and cartan.dot(i, j) != 0) == 1


def chi_maps(emb: UEmbedding, sign: int) -> Callable[[UElement], UElement]:
    """Image-side rescaling transported to source coordinates: diagonal on
    normal-ordered triples, with per-letter factors."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    src = emb.source
    eps = emb.epsilon
    p0 = src.position(emb.merged)
    d0 = src._d[p0]
    adjacency = {}
    for q, sym in enumerate(src.cartan.indices):
        if q != p0:
            adjacency[q] = src.cartan.cartan_entry(emb.merged, sym)

    def factor(word: PlainWord, lowering: bool) -> QVScalar:
        c = QV_ONE
        for p in word:
            if p == p0:
                if sign == -1:
                    c = c * (-v_power((-eps if lowering else eps) * d0))
                else:
                    c = c * (-v_power((eps if lowering else -eps) * d0))
            elif sign == 1:
                n = adjacency[p] * (eps if lowering else -eps)
                c = c * _sign_power(d0, n)
        return c

    def apply(x: UElement) -> UElement:
        if x.algebra is not src:
            raise ValueError("element does not live in the source algebra")
        out = {}
        for (ew, mu, fw), c in x.coords.items():
            out[(ew, mu, fw)] = c * factor(ew, False) * factor(fw, True)
        return UElement(src, out)

    return apply


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
    failures = []
    checked = 0

    def expect(label: str, got, want):
        nonlocal checked
        checked += 1
        if got is None or got != want:
            failures.append({
                "identity": label,
                "got": "no preimage" if got is None else render_uelement(got),
                "want": render_uelement(want)})

    gens = _named_generators(src)
    for primed in (True, False):
        tilde = tilde_braid_i0(tgt, pair, e, primed)
        chi = chi_maps(emb, e * eps if primed else -e * eps)
        own = braid_basic(src, emb.merged, e, primed)
        for name, g in gens:
            y = tilde.apply(emb.apply(g))
            xhat = psi_preimage(emb_opp, y)
            got = None if xhat is None else chi(xhat)
            kind = "primed" if primed else "doubleprime"
            expect(f"{kind} agreement on {name} (e={e})", got, own.apply(g))
    chi = chi_maps(emb, e * eps)
    tilde = tilde_braid_i0(tgt, pair, e, True)

    def v_op(x: UElement) -> UElement | None:
        xhat = psi_preimage(emb_opp, tilde.apply(x))
        return None if xhat is None else emb.apply(chi(xhat))

    expect("closed form on the merged raising generator",
           v_op(e_merged(tgt, pair, eps)),
           u_multiply(k_gen(tgt, tuple(e * a for a in kt0)),
                      f_merged(tgt, pair, eps)).scale(-QV_ONE))
    expect("closed form on the merged lowering generator",
           v_op(f_merged(tgt, pair, eps)),
           u_multiply(e_merged(tgt, pair, eps),
                      k_gen(tgt, tuple(-e * a for a in kt0))).scale(-QV_ONE))
    root_sum = _vadd(tgt.datum.root(pair.plus), tgt.datum.root(pair.minus))
    coroot_sum = _vadd(tgt.datum.coroot(pair.plus),
                       tgt.datum.coroot(pair.minus))
    for mu in _y_basis(tgt):
        n = tgt.datum.pair(mu, root_sum)
        want_mu = tuple(a - n * b for a, b in zip(mu, coroot_sum))
        expect(f"torus case K{mu}", v_op(k_gen(tgt, mu)),
               k_gen(tgt, want_mu))
    survivors = [j for j in tgt.cartan.indices
                 if j not in (pair.plus, pair.minus)]
    for j in survivors:
        dj = tgt._d[tgt.position(j)]
        nj = -(tgt.datum.pair(tgt.datum.coroot(j),
                              _vadd(tgt.datum.root(pair.plus),
                                    tgt.datum.root(pair.minus))))
        for ee in (1, -1):
            for primed in (True, False):
                op = braid_basic(tgt, j, ee, primed)
                acc_e = UElement(tgt, {})
                acc_f = UElement(tgt, {})
                for r in range(nj + 1):
                    s = nj - r
                    sign = QV_ONE if r % 2 == 0 else -QV_ONE
                    er = e_gen(tgt, j, r)
                    es = e_gen(tgt, j, s)
                    fr = f_gen(tgt, j, r)
                    fs = f_gen(tgt, j, s)
                    if primed:
                        acc_e = acc_e + u_multiply(
                            u_multiply(er, e_merged(tgt, pair, eps)), es) \
                            .scale(sign * v_power(ee * dj * r))
                        acc_f = acc_f + u_multiply(
                            u_multiply(fs, f_merged(tgt, pair, eps)), fr) \
                            .scale(sign * v_power(-ee * dj * r))
                    else:
                        acc_e = acc_e + u_multiply(
                            u_multiply(es, e_merged(tgt, pair, eps)), er) \
                            .scale(sign * v_power(-ee * dj * r))
                        acc_f = acc_f + u_multiply(
                            u_multiply(fr, f_merged(tgt, pair, eps)), fs) \
                            .scale(sign * v_power(ee * dj * r))
                kind = "primed" if primed else "doubleprime"
                expect(f"surviving-index formula {kind} E (j={j}, e={ee})",
                       op.apply(e_merged(tgt, pair, eps)), acc_e)
                expect(f"surviving-index formula {kind} F (j={j}, e={ee})",
                       op.apply(f_merged(tgt, pair, eps)), acc_f)
                own = braid_basic(src, j, ee, primed)
                for name, g in gens:
                    expect(f"surviving-index agreement {kind} (j={j}, e={ee},"
                           f" {name})",
                           op.apply(emb.apply(g)), emb.apply(own.apply(g)))
    return {"hypothesis": True, "checked": checked,
            "holds": not failures, "failures": failures}


# --- subquotient probe -------------------------------------------------------

def _k_shift(alg: UAlgebra, mu: YVec, terms: Mapping[Triple, QVScalar]) -> dict:
    out = {}
    for (ew, kv, fw), c in terms.items():
        w = alg.weight_pairing(mu, alg.f.word_degree(ew))
        out[(ew, _vadd(mu, kv), fw)] = c * v_power(w)
    return out


def _probe_alphabet(tgt: UAlgebra, pair: ContractiblePair) -> list[tuple[str, UElement, int]]:
    pp, pm = tgt.position(pair.plus), tgt.position(pair.minus)
    y0 = tgt.y_zero
    letters = []
    for j in tgt.cartan.indices:
        if j in (pair.plus, pair.minus):
            continue
        letters.append((f"E[{j}]", e_gen(tgt, j), 1))
        letters.append((f"F[{j}]", f_gen(tgt, j), 1))
    letters.append(("E+E-", UElement(tgt, tgt.reduce_triples(
        {((pp, pm), y0, ()): QV_ONE})), 2))
    letters.append(("E-E+", UElement(tgt, tgt.reduce_triples(
        {((pm, pp), y0, ()): QV_ONE})), 2))
    letters.append(("F+F-", UElement(tgt, tgt.reduce_triples(
        {((), y0, (pp, pm)): QV_ONE})), 2))
    letters.append(("F-F+", UElement(tgt, tgt.reduce_triples(
        {((), y0, (pm, pp)): QV_ONE})), 2))
    return letters


def _products_upto(tgt: UAlgebra, letters, max_total: int):
    """Yield (element, total degree) over all words in the given letters."""
    frontier = [(u_one(tgt), 0)]
    yield u_one(tgt), 0
    while frontier:
        nxt = []
        for x, deg in frontier:
            for _, letter, w in letters:
                if deg + w > max_total:
                    continue
                charge()
                y = u_multiply(x, letter)
                if y.is_zero():
                    continue
                yield y, deg + w
                nxt.append((y, deg + w))
        frontier = nxt


def _rank_of(terms_list: list[dict]) -> int:
    live = [t for t in terms_list if t]
    if not live:
        return 0
    keys = sorted(set().union(*live))
    rows = [[t.get(k, QV_ZERO) for k in keys] for t in live]
    return _mat_rank(rows)


def _crossing_ideal(tgt: UAlgebra, letters, max_total: int) -> list[dict]:
    """Coordinates of the nonzero products x1·g·x2 of total degree at most
    max_total, for the crossing letters g = E-E+ and F+F- and words x1, x2
    in the probe alphabet."""
    letter_map = {name: el for name, el, _ in letters}
    rows = []
    for gname in ("E-E+", "F+F-"):
        g = letter_map[gname]
        for x1, d1 in _products_upto(tgt, letters, max_total - 2):
            left = u_multiply(x1, g)
            for x2, d2 in _products_upto(tgt, letters, max_total - 2 - d1):
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
    sub_rows = []
    mus: set[YVec] = set()
    for x, deg in _products_upto(amb, letters, max_total):
        sub_rows.append(x.coords)
        for (_, mu, _f) in x.coords:
            mus.add(mu)
    ideal_base = _crossing_ideal(amb, letters, max_total)
    for row in ideal_base:
        mus.update(mu for (_, mu, _f) in row)
    shifts: set[YVec] = {amb.y_zero}
    for row in ideal_base:
        for (_, have, _f) in row:
            for want in mus:
                shifts.add(_vsub(want, have))
    ideal_rows = list(ideal_base)
    for row in ideal_base:
        for sh in sorted(shifts):
            if any(sh):
                ideal_rows.append(_k_shift(amb, sh, row))
    psi_rows = []
    for nu_e in _degrees_up_to(hat.rank, max_total):
        deg_e = sum(emb.degree_map(nu_e))
        if deg_e > max_total:
            continue
        for nu_f in _degrees_up_to(hat.rank, max_total):
            deg_f = sum(emb.degree_map(nu_f))
            if deg_e + deg_f > max_total:
                continue
            for a in hat.f.component(nu_e).basis:
                for b in hat.f.component(nu_f).basis:
                    for mu in sorted(mus):
                        x = UElement(hat, {(a, mu, b): QV_ONE})
                        psi_rows.append(emb.apply(x).coords)
    norms = sorted({_norm_key(amb, t)
                    for rows in (sub_rows, ideal_rows, psi_rows)
                    for t in rows if t})
    blocks = {}
    surjective = True
    injective = True
    for nk in norms:
        sub = [t for t in sub_rows if t and _norm_key(amb, t) == nk]
        idl = [t for t in ideal_rows if t and _norm_key(amb, t) == nk]
        psi = [t for t in psi_rows if t and _norm_key(amb, t) == nk]
        r_sub = _rank_of(sub)
        r_idl = _rank_of(idl)
        r_psi = _rank_of(psi)
        r_pi = _rank_of(psi + idl)
        r_all = _rank_of(psi + idl + sub)
        surj = r_all == r_pi
        meet = r_psi + r_idl - r_pi
        blocks[str(nk)] = {"sub": r_sub, "ideal": r_idl, "image": r_psi,
                           "image_plus_ideal": r_pi,
                           "surjective": surj, "meet": meet}
        surjective = surjective and surj
        injective = injective and meet == 0
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append({"identity": label,
                             "got": render_uelement(got),
                             "want": render_uelement(want)})

    den = QV_ONE / (v_power(epsilon * d0) - v_power(-epsilon * d0))
    ee_mp = letter_map["E-E+"]
    ee_pm = letter_map["E+E-"]
    ff_pm = letter_map["F+F-"]
    ff_mp = letter_map["F-F+"]
    expect("inversion: minus-plus raising",
           ee_mp, (e_merged(amb, pair, epsilon)
                   - e_merged(amb, pair, -epsilon)).scale(den))
    expect("inversion: plus-minus raising",
           ee_pm, (e_merged(amb, pair, epsilon).scale(v_power(epsilon * d0))
                   - e_merged(amb, pair, -epsilon)
                   .scale(v_power(-epsilon * d0))).scale(den))
    expect("inversion: plus-minus lowering",
           ff_pm, (f_merged(amb, pair, -epsilon)
                   - f_merged(amb, pair, epsilon)).scale(den))
    expect("inversion: minus-plus lowering",
           ff_mp, (f_merged(amb, pair, -epsilon).scale(v_power(epsilon * d0))
                   - f_merged(amb, pair, epsilon)
                   .scale(v_power(-epsilon * d0))).scale(den))
    kt0 = k_merged_vector(amb, pair)
    for e in (1, -1):
        tilde = tilde_braid_i0(amb, pair, e, True)
        ke = k_gen(amb, tuple(e * a for a in kt0))
        kem = k_gen(amb, tuple(-e * a for a in kt0))
        expect(f"ideal image: raising crossing (e={e})",
               tilde.apply(ee_mp),
               u_multiply(ke, ff_pm).scale(v_power(-e * d0)))
        expect(f"merged image: raising pair (e={e})",
               tilde.apply(ee_pm),
               u_multiply(ke, ff_mp).scale(v_power(-e * d0)))
        expect(f"ideal image: lowering crossing (e={e})",
               tilde.apply(ff_pm),
               u_multiply(ee_mp, kem).scale(v_power(e * d0)))
        expect(f"merged image: lowering pair (e={e})",
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
        "identities_hold": not failures,
        "failures": failures,
        "quotient_braid": quotient,
    }
    report["holds"] = (surjective and injective and torus and not failures
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
    p0 = src.position(emb.merged)
    d0 = tgt._d[tgt.position(pair.plus)]
    adjacency = {}
    j_case = {}
    k_case = {}
    for q, sym in enumerate(src.cartan.indices):
        if q != p0:
            adjacency[q] = src.cartan.cartan_entry(emb.merged, sym)
            j_case[q] = tgt.cartan.dot(sym, pair.minus) == 0
            k_case[q] = tgt.cartan.dot(sym, pair.plus) == 0

    def rescale(x: UElement, primed: bool, e: int) -> UElement:
        out = {}
        for (ew, mu, fw), c in x.coords.items():
            for p in ew:
                if p == p0:
                    c = c * (-v_power((-e if primed else e) * d0))
                elif j_case[p] if primed else k_case[p]:
                    c = c * _sign_power((-e if primed else e) * d0,
                                        adjacency[p])
            for p in fw:
                if p == p0:
                    c = c * (-v_power((e if primed else -e) * d0))
                elif j_case[p] if primed else k_case[p]:
                    c = c * _sign_power((e if primed else -e) * d0,
                                        adjacency[p])
            out[(ew, mu, fw)] = c
        return UElement(src, out)

    gens = _named_generators(src)
    failures = []
    checked = 0
    ambiguous = []
    for primed in (True, False):
        for e in (1, -1):
            tilde = tilde_braid_i0(tgt, pair, e, primed)
            own = braid_basic(src, emb.merged, e, primed)
            for name, g in gens:
                checked += 1
                y = tilde.apply(emb.apply(g))
                sol = _solve_mod_ideal(emb, y, ideal_base)
                kind = "primed" if primed else "doubleprime"
                if sol is None:
                    failures.append({"identity": f"{kind} (e={e}) on {name}",
                                     "got": "no preimage modulo the ideal"})
                    continue
                xhat, unique = sol
                if not unique:
                    ambiguous.append(f"{kind} (e={e}) on {name}")
                got = rescale(xhat, primed, e)
                want = own.apply(g)
                if got != want:
                    failures.append({"identity": f"{kind} (e={e}) on {name}",
                                     "got": render_uelement(got),
                                     "want": render_uelement(want)})
    return {"checked": checked, "holds": not failures,
            "ambiguous": ambiguous, "failures": failures}


def _solve_mod_ideal(emb: UEmbedding, y: UElement,
                     ideal_base: list[dict]) -> tuple[UElement, bool] | None:
    """Express y as an embedded element plus ideal terms; the embedded part
    is returned, flagged unique when the two spans meet trivially.

    Only candidate images that can meet y or an ideal candidate are built.
    The image of a·K_μ·b is bihomogeneous of bidegree
    (degree_map(ν_e), degree_map(ν_f)), and degree_map is injective.  So a
    block of candidates whose bidegree occurs neither in y nor in any ideal
    candidate touches only rows that no other column touches: the exact
    solve (free variables zero) gives it coefficient 0, and it adds the same
    rank to the image span and to the whole span, leaving the uniqueness
    flag alone.  Dropping such blocks changes no result."""
    tgt, src = emb.target, emb.source
    keys_y = set(y.coords)
    mus = {mu for (_, mu, _f) in keys_y}
    for row in ideal_base:
        mus.update(mu for (_, mu, _f) in row)
    norm = None
    if y.coords:
        norm = _norm_key(tgt, y.coords)
    ideal_cands = []
    for row in ideal_base:
        if not row:
            continue
        if norm is not None and _norm_key(tgt, row) != norm:
            continue
        base_mus = {mu for (_, mu, _f) in row}
        shift_set = {(0,) * tgt.rank_y}
        for want in mus:
            for have in base_mus:
                shift_set.add(_vsub(want, have))
        for sh in sorted(shift_set):
            ideal_cands.append(_k_shift(tgt, sh, row))
    wd = tgt.f.word_degree
    live = {(wd(ew), wd(fw)) for t in (y.coords, *ideal_cands)
            for (ew, _, fw) in t}
    cap = max((sum(d) for bideg in live for d in bideg), default=0)
    degs = [(nu, emb.degree_map(nu)) for nu in _degrees_up_to(src.rank, cap)]
    cand_pairs = []
    imgs = []
    for nu_e, img_e in degs:
        for nu_f, img_f in degs:
            if (img_e, img_f) not in live:
                continue
            for a in src.f.component(nu_e).basis:
                for b in src.f.component(nu_f).basis:
                    for mu in sorted(mus):
                        x = UElement(src, {(a, mu, b): QV_ONE})
                        cand_pairs.append((a, mu, b))
                        imgs.append(emb.apply(x).coords)
    cols = imgs + ideal_cands
    if not any(cols) and not y.coords:
        return UElement(src, {}), True
    # One elimination of the augmented system [cols | y] gives both the
    # solution (free variables zero) and the rank of cols: the number of
    # pivots before the augmented column.
    n = len(cols)
    keys = sorted(set().union(keys_y, *[set(c) for c in cols]))
    aug = [[c.get(k, QV_ZERO) for c in cols] + [y.coords.get(k, QV_ZERO)]
           for k in keys]
    red, pivots = _rref(aug, n + 1)
    if n in pivots:
        return None
    xhat: dict[Triple, QVScalar] = {}
    for row, pc in zip(red, pivots):
        if pc < len(cand_pairs) and row[n]:
            _add_into(xhat, cand_pairs[pc], row[n])
    unique = (_rank_of(imgs) + _rank_of(ideal_cands) == len(pivots))
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
        self._sub: dict[Degree, tuple[list, list[int], list[int]]] = {}
        self.reps: dict[Degree, list[int]] = {}
        self.index: dict[tuple[Degree, int], int] = {}
        self.basis: list[tuple[Degree, int]] = []
        self._build()
        self.dim = len(self.basis)
        self.weights = [
            _vsub(self.lam, algebra.degree_in_x(nu)) for nu, _ in self.basis]
        self._e_word_memo: dict = {}
        self._f_col_memo: dict = {}

    def _build(self):
        alg = self.algebra
        f = alg.f
        level = 0
        while True:
            level_dim = 0
            for nu in _degrees_up_to(alg.rank, level):
                if sum(nu) != level:
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
                        x = felement(f, nu, {w + (p,) * n: QV_ONE})
                        rows.append([x.coords.get(b, QV_ZERO)
                                     for b in comp.basis])
                red, pivots = _rref(rows, len(comp.basis)) if rows else ([], [])
                pivot_set = set(pivots)
                free = [c for c in range(len(comp.basis))
                        if c not in pivot_set]
                self._sub[nu] = (red, pivots, free)
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
        info = self._sub.get(nu)
        if info is None:
            return {}
        red, pivots, free = info
        comp = self.algebra.f.component(nu)
        vec = [x.coords.get(b, QV_ZERO) for b in comp.basis]
        for r, pc in enumerate(pivots):
            c = vec[pc]
            if c:
                row = red[r]
                vec = [a - c * b for a, b in zip(vec, row)]
        out = {}
        for c in free:
            if vec[c]:
                out[self.index[(nu, c)]] = vec[c]
        return out

    def rep_element(self, idx: int) -> FElement:
        nu, col = self.basis[idx]
        w = self.algebra.f.component(nu).basis[col]
        return FElement(self.algebra.f, nu, {w: QV_ONE})

    # --- generator actions ------------------------------------------------
    def f_action(self, i, coords: Mapping[int, QVScalar]) -> dict[int, QVScalar]:
        p = self.algebra.position(i)
        out: dict[int, QVScalar] = {}
        for idx, c in coords.items():
            key = (p, idx)
            col = self._f_col_memo.get(key)
            if col is None:
                x = self.rep_element(idx)
                th = FElement(self.algebra.f,
                              tuple(1 if q == p else 0
                                    for q in range(self.algebra.rank)),
                              {(p,): QV_ONE})
                col = self.project(th * x)
                self._f_col_memo[key] = col
            for tgt, val in col.items():
                _add_into(out, tgt, c * val)
        return out

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
            inner = self._e_word(p, rest)
            out = self.f_action(alg.cartan.indices[j], inner)
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
        out = {k: c for k, c in out.items() if c}
        self._e_word_memo[key] = out
        return out

    def e_action(self, i, coords: Mapping[int, QVScalar]) -> dict[int, QVScalar]:
        p = self.algebra.position(i)
        out: dict[int, QVScalar] = {}
        for idx, c in coords.items():
            nu, col = self.basis[idx]
            w = self.algebra.f.component(nu).basis[col]
            for tgt, val in self._e_word(p, w).items():
                _add_into(out, tgt, c * val)
        return out

    def k_action(self, mu, coords: Mapping[int, QVScalar]) -> dict[int, QVScalar]:
        mu = self.algebra.y_vector(mu)
        return {idx: c * v_power(self.algebra.datum.pair(mu, self.weights[idx]))
                for idx, c in coords.items()}


def build_module(algebra: UAlgebra, lam) -> HWModule:
    lam = algebra.x_vector(lam)
    mod = algebra._modules.get(lam)
    if mod is None:
        mod = algebra._modules[lam] = HWModule(algebra, lam)
    return mod


def action_matrix(mod: HWModule, x: UElement) -> list[dict[int, QVScalar]]:
    """Columns of the action of a normal-ordered element."""
    alg = mod.algebra
    cols: list[dict[int, QVScalar]] = [{} for _ in range(mod.dim)]
    for (ew, mu, fw), c in x.coords.items():
        for idx in range(mod.dim):
            vec: dict[int, QVScalar] = {idx: QV_ONE}
            for p in reversed(fw):
                vec = mod.f_action(alg.cartan.indices[p], vec)
                if not vec:
                    break
            if vec and any(mu):
                vec = mod.k_action(mu, vec)
            for p in reversed(ew):
                if not vec:
                    break
                vec = mod.e_action(alg.cartan.indices[p], vec)
            for tgt, val in vec.items():
                _add_into(cols[idx], tgt, c * val)
    return cols


def action_matrix_twisted(mod: HWModule, x: UElement) -> list[dict[int, QVScalar]]:
    return action_matrix(mod, omega(x))


def _cols_equal(a: list[dict], b: list[dict]) -> bool:
    return all(x == y for x, y in zip(a, b))


def _cols_compose(outer: list[dict], inner: list[dict]) -> list[dict]:
    out: list[dict] = []
    for col in inner:
        acc: dict[int, QVScalar] = {}
        for mid, c in col.items():
            for tgt, val in outer[mid].items():
                _add_into(acc, tgt, c * val)
        out.append({k: v for k, v in acc.items() if v})
    return out


def module_relations_check(mod: HWModule) -> dict:
    """All defining relations as matrix identities, plus the torus character
    on every weight vector."""
    alg = mod.algebra
    failures = []
    checked = 0

    def expect(label: str, got: list[dict], want: list[dict]):
        nonlocal checked
        checked += 1
        if not _cols_equal(got, want):
            failures.append({"identity": label})

    for i in alg.cartan.indices:
        for j in alg.cartan.indices:
            lhs = _cols_sub(
                action_matrix(mod, u_multiply(e_gen(alg, i), f_gen(alg, j))),
                action_matrix(mod, u_multiply(f_gen(alg, j), e_gen(alg, i))))
            if i == j:
                di = alg.cartan.d(i)
                den = QV_ONE / (v_power(di) - v_power(-di))
                kt = alg.k_tilde_vector(i)
                rhs = _cols_sub(action_matrix(mod, k_gen(alg, kt)),
                                action_matrix(mod, k_gen(alg, _neg(kt))))
                rhs = [{k: v * den for k, v in col.items()} for col in rhs]
            else:
                rhs = [{} for _ in range(mod.dim)]
            expect(f"crossing ({i},{j})", lhs, rhs)
    for mu in _y_basis(alg):
        for i in alg.cartan.indices:
            w = alg.datum.pair(mu, alg.datum.root(i))
            lhs = _cols_compose(action_matrix(mod, k_gen(alg, mu)),
                                action_matrix(mod, e_gen(alg, i)))
            rhs = _cols_compose(action_matrix(mod, e_gen(alg, i)),
                                action_matrix(mod, k_gen(alg, mu)))
            rhs = [{k: v * v_power(w) for k, v in col.items()} for col in rhs]
            expect(f"torus past raising ({mu},{i})", lhs, rhs)
            lhs = _cols_compose(action_matrix(mod, k_gen(alg, mu)),
                                action_matrix(mod, f_gen(alg, i)))
            rhs = _cols_compose(action_matrix(mod, f_gen(alg, i)),
                                action_matrix(mod, k_gen(alg, mu)))
            rhs = [{k: v * v_power(-w) for k, v in col.items()}
                   for col in rhs]
            expect(f"torus past lowering ({mu},{i})", lhs, rhs)
    for i in alg.cartan.indices:
        di = alg.cartan.d(i)
        for j in alg.cartan.indices:
            if i == j:
                continue
            m = 1 - alg.cartan.cartan_entry(i, j)
            acc_e = [{} for _ in range(mod.dim)]
            acc_f = [{} for _ in range(mod.dim)]
            for r in range(m + 1):
                s = m - r
                sgn = QV_ONE if r % 2 == 0 else -QV_ONE
                te = action_matrix(mod, u_multiply(
                    u_multiply(e_gen(alg, i, r), e_gen(alg, j)),
                    e_gen(alg, i, s)))
                tf = action_matrix(mod, u_multiply(
                    u_multiply(f_gen(alg, i, r), f_gen(alg, j)),
                    f_gen(alg, i, s)))
                acc_e = _cols_add(acc_e, [{k: sgn * v for k, v in col.items()}
                                          for col in te])
                acc_f = _cols_add(acc_f, [{k: sgn * v for k, v in col.items()}
                                          for col in tf])
            expect(f"Serre raising ({i},{j})", acc_e,
                   [{} for _ in range(mod.dim)])
            expect(f"Serre lowering ({i},{j})", acc_f,
                   [{} for _ in range(mod.dim)])
    character = all(
        action_matrix(mod, k_gen(alg, mu))[idx]
        == {idx: v_power(alg.datum.pair(mu, mod.weights[idx]))}
        for mu in _y_basis(alg) for idx in range(mod.dim))
    return {"checked": checked, "character": character,
            "holds": character and not failures, "failures": failures}


def _cols_add(a: list[dict], b: list[dict]) -> list[dict]:
    out = []
    for x, y in zip(a, b):
        acc = dict(x)
        for k, v in y.items():
            _add_into(acc, k, v)
        out.append({k: v for k, v in acc.items() if v})
    return out


def _cols_sub(a: list[dict], b: list[dict]) -> list[dict]:
    return _cols_add(a, [{k: -v for k, v in col.items()} for col in b])


def module_hom_check(emb: UEmbedding, lam, check_canonical: bool = False) -> dict:
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
        for nu, (red, pivots, free) in src_mod._sub.items():
            comp = emb.source.f.component(nu)
            for r in range(len(pivots)):
                row_el = FElement(emb.source.f, nu,
                                  {w: red[r][c] for c, w in
                                   enumerate(comp.basis) if red[r][c]})
                img = fmap.apply(row_el)
                info = tgt_mod._sub.get(img.nu)
                if info is None:
                    continue
                if tgt_mod.project(img):
                    well = False
        phi: list[dict[int, QVScalar]] = []
        for idx in range(src_mod.dim):
            img = fmap.apply(src_mod.rep_element(idx))
            phi.append(tgt_mod.project(img))
        inter = True
        for name, g, gi in _generators_with_images(emb):
            if twisted:
                src_cols = action_matrix_twisted(src_mod, g)
                tgt_cols = action_matrix_twisted(tgt_mod, gi)
            else:
                src_cols = action_matrix(src_mod, g)
                tgt_cols = action_matrix(tgt_mod, gi)
            lhs = _cols_compose(phi, src_cols)
            rhs = _cols_compose(tgt_cols, phi)
            if not _cols_equal(lhs, rhs):
                inter = False
                failures.append({"side": label, "generator": name})
        if phi:
            keys = range(tgt_mod.dim)
            rows = [[phi[c].get(k, QV_ZERO) for c in range(src_mod.dim)]
                    for k in keys]
            inj = _mat_rank(rows) == src_mod.dim
        else:
            inj = True
        images = {}
        for idx in range(src_mod.dim):
            nu, col = src_mod.basis[idx]
            w = emb.source.f.component(nu).basis[col]
            images[str(list(w))] = {str(k): render_scalar(c)
                                    for k, c in sorted(phi[idx].items())}
        report[label] = {"well_defined": well, "intertwines": inter,
                         "injective": inj, "images": images}
    report["holds"] = all(report[side]["well_defined"]
                          and report[side]["intertwines"]
                          and report[side]["injective"]
                          for side in ("plain", "twisted")) \
        and not failures
    report["failures"] = failures
    if check_canonical:
        report["canonical"] = _canonical_image_check(emb, lam,
                                                     src_mod, tgt_mod)
    return report


def _canonical_image_check(emb: UEmbedding, lam, src_mod: HWModule,
                           tgt_mod: HWModule) -> dict:
    """Under the vanishing-threshold hypotheses, nonzero canonical classes map
    to canonical classes (lowering side needs the minus threshold zero, the
    twisted side the plus threshold)."""
    from .falg import canonical_basis
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
    return out


# --- tensor modules ----------------------------------------------------------

class TensorModule:
    """Twisted module tensor ordinary module, with the coproduct action."""

    def __init__(self, algebra: UAlgebra, lam_left, lam_right):
        self.algebra = algebra
        self.left = build_module(algebra, lam_left)
        self.right = build_module(algebra, lam_right)
        self.lam_left = self.left.lam
        self.lam_right = self.right.lam
        self.dim = self.left.dim * self.right.dim

    def pair_index(self, a: int, b: int) -> int:
        return a * self.right.dim + b

    def action(self, x: UElement) -> list[dict[int, QVScalar]]:
        alg = self.algebra
        cols: list[dict[int, QVScalar]] = [{} for _ in range(self.dim)]
        for (s, t), c in delta(x).coords.items():
            left_cols = action_matrix_twisted(
                self.left, UElement(alg, {s: QV_ONE}))
            right_cols = action_matrix(
                self.right, UElement(alg, {t: QV_ONE}))
            for a in range(self.left.dim):
                for b in range(self.right.dim):
                    src = self.pair_index(a, b)
                    for ta, va in left_cols[a].items():
                        for tb, vb in right_cols[b].items():
                            _add_into(cols[src],
                                      self.pair_index(ta, tb), c * va * vb)
        return [{k: v for k, v in col.items() if v} for col in cols]

    def cyclic_index(self) -> int:
        return self.pair_index(0, 0)


def tensor_module(algebra: UAlgebra, lam_left, lam_right) -> TensorModule:
    return TensorModule(algebra, lam_left, lam_right)


def psi_tensor_check(emb: UEmbedding, lam_left, lam_right) -> dict:
    """The induced map on tensor modules: propagate from the cyclic vector by
    generator actions, check well-definedness, injectivity, and that the
    separate-factor map matches."""
    src_tm = tensor_module(emb.source, lam_left, lam_right)
    tgt_tm = tensor_module(emb.target, lam_left, lam_right)
    e_imgs, f_imgs = _e_images_of(emb), _f_images_of(emb)
    gens: list[tuple[UElement, UElement]] = []
    for i in emb.source.cartan.indices:
        gens.append((e_gen(emb.source, i), e_imgs[i]))
        gens.append((f_gen(emb.source, i), f_imgs[i]))
    src_actions = [src_tm.action(g) for g, _ in gens]
    tgt_actions = [tgt_tm.action(gi) for _, gi in gens]
    seed_s = {src_tm.cyclic_index(): QV_ONE}
    seed_t = {tgt_tm.cyclic_index(): QV_ONE}
    basis_rows: list[tuple[list[QVScalar], list[QVScalar]]] = []
    pivots: list[int] = []
    consistent = True

    def reduce_pair(vs: dict, vt: dict):
        nonlocal consistent
        row = [vs.get(k, QV_ZERO) for k in range(src_tm.dim)]
        companion = [vt.get(k, QV_ZERO) for k in range(tgt_tm.dim)]
        for (brow, bcomp), pc in zip(basis_rows, pivots):
            c = row[pc]
            if c:
                row = [a - c * b for a, b in zip(row, brow)]
                companion = [a - c * b for a, b in zip(companion, bcomp)]
        for pc, val in enumerate(row):
            if val:
                row = [a / val for a in row]
                companion = [a / val for a in companion]
                basis_rows.append((row, companion))
                pivots.append(pc)
                return True
        if any(companion):
            consistent = False
        return False

    work = [(seed_s, seed_t)]
    reduce_pair(seed_s, seed_t)
    while work:
        vs, vt = work.pop()
        for (sa, ta) in zip(src_actions, tgt_actions):
            charge()
            nvs: dict[int, QVScalar] = {}
            for idx, c in vs.items():
                for tgt_i, val in sa[idx].items():
                    _add_into(nvs, tgt_i, c * val)
            nvt: dict[int, QVScalar] = {}
            for idx, c in vt.items():
                for tgt_i, val in ta[idx].items():
                    _add_into(nvt, tgt_i, c * val)
            nvs = {k: v for k, v in nvs.items() if v}
            nvt = {k: v for k, v in nvt.items() if v}
            if not nvs and not nvt:
                continue
            if reduce_pair(nvs, nvt):
                work.append((nvs, nvt))
    spans = len(basis_rows) == src_tm.dim
    phi_cols: list[dict[int, QVScalar]] = []
    injective = False
    block_match = False
    if spans and consistent:
        for k in range(src_tm.dim):
            vec = [QV_ONE if a == k else QV_ZERO for a in range(src_tm.dim)]
            comp = [QV_ZERO] * tgt_tm.dim
            for (brow, bcomp), pc in zip(basis_rows, pivots):
                c = vec[pc]
                if c:
                    vec = [a - c * b for a, b in zip(vec, brow)]
                    comp = [a + c * b for a, b in zip(comp, bcomp)]
            phi_cols.append({i: c for i, c in enumerate(comp) if c})
        rows = [[phi_cols[c].get(r, QV_ZERO) for c in range(src_tm.dim)]
                for r in range(tgt_tm.dim)]
        injective = _mat_rank(rows) == src_tm.dim
        hom_left = module_hom_check(emb, src_tm.lam_left)
        hom_right = module_hom_check(emb, src_tm.lam_right)
        phi_l: list[dict[int, QVScalar]] = []
        for idx in range(src_tm.left.dim):
            img = emb.plus_map.apply(src_tm.left.rep_element(idx))
            phi_l.append(tgt_tm.left.project(img))
        phi_r = []
        for idx in range(src_tm.right.dim):
            img = emb.minus_map.apply(src_tm.right.rep_element(idx))
            phi_r.append(tgt_tm.right.project(img))
        kron: list[dict[int, QVScalar]] = []
        for a in range(src_tm.left.dim):
            for b in range(src_tm.right.dim):
                col: dict[int, QVScalar] = {}
                for ta, va in phi_l[a].items():
                    for tb, vb in phi_r[b].items():
                        _add_into(col, tgt_tm.pair_index(ta, tb), va * vb)
                kron.append({k: v for k, v in col.items() if v})
        block_match = _cols_equal(phi_cols, kron) and hom_left["holds"] \
            and hom_right["holds"]
    return {"dims": [src_tm.dim, tgt_tm.dim],
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


class GeneratorRelabel:
    """Algebra map determined by a bijection of generator symbols and a fixed
    lattice automorphism on the torus."""

    def __init__(self, source: UAlgebra, target: UAlgebra,
                 symbol_map: Mapping, y_map: Callable[[YVec], YVec]):
        self.source = source
        self.target = target
        self.symbol_map = dict(symbol_map)
        self.y_map = y_map
        self._letters = {source.position(a): target.position(b)
                         for a, b in self.symbol_map.items()}

    def apply(self, x: UElement) -> UElement:
        if x.algebra is not self.source:
            raise ValueError("element does not live in the source algebra")
        raw: dict[Triple, QVScalar] = {}
        for (ew, mu, fw), c in x.coords.items():
            new = (tuple(self._letters[p] for p in ew),
                   self.target.y_vector(self.y_map(mu)),
                   tuple(self._letters[p] for p in fw))
            _add_into(raw, new, c)
        return UElement(self.target, self.target.reduce_triples(raw))


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
    relabels: list[GeneratorRelabel] = []
    for k in range(1, n):
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
        relabels.append(GeneratorRelabel(upstream, downstream, mapping, y_map))
    braids = [braid_basic(target, chain[k], -epsilon, True)
              for k in range(1, n)]

    def rhs(x: UElement) -> UElement:
        for rel in relabels:
            x = rel.apply(x)
        y = _upsilon_apply(sub_alg, target, x)
        for op in reversed(braids):
            y = op.apply(y)
        return y

    failures = []
    checked = 0
    for name, g in _named_generators(emb.source):
        checked += 1
        lhs = emb.apply(g)
        got = rhs(g)
        if lhs != got:
            failures.append({"generator": name,
                             "lhs": render_uelement(lhs),
                             "rhs": render_uelement(got)})
    return {"hypothesis": True, "checked": checked,
            "holds": not failures, "failures": failures}


def _upsilon_apply(sub: UAlgebra, full: UAlgebra, x: UElement) -> UElement:
    """Standard embedding of a vertex-deleted subalgebra."""
    if x.algebra is not sub:
        raise ValueError("element does not live in the subalgebra")
    letters = {sub.position(s): full.position(s)
               for s in sub.cartan.indices}
    raw: dict[Triple, QVScalar] = {}
    for (ew, mu, fw), c in x.coords.items():
        _add_into(raw, (tuple(letters[p] for p in ew), mu,
                        tuple(letters[p] for p in fw)), c)
    return UElement(full, full.reduce_triples(raw))


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
    relabel = GeneratorRelabel(emb_23.source, emb_12.source, mapping,
                               lambda mu: target.reflect_y(p2, mu))
    braid = braid_basic(target, i2, -epsilon, True)
    failures = []
    checked = 0
    for name, g in _named_generators(emb_23.source):
        checked += 1
        lhs = braid.apply(emb_23.apply(g))
        rhs = emb_12.apply(relabel.apply(g))
        if lhs != rhs:
            failures.append({"generator": name,
                             "lhs": render_uelement(lhs),
                             "rhs": render_uelement(rhs)})
    return {"checked": checked, "holds": not failures, "failures": failures}
