"""Whole-group enumerations for the quiver tests: the unipotent radical and
the block stabilizer listed element by element, G-orbits on E_V by closure
under a generating set of G_V, and the p' fiber report from a walk of every
class of G x_U S_heart.  The library never lists these groups; the tests use
them as oracles for its per-vertex coset tables and its block-stabilizer
slice."""
import itertools
import math
from collections import Counter, defaultdict

from qcontract import _budget
from qcontract._gf import GF, Mat
from qcontract.quiver import (
    GPoint, Point, _class_map, _coset_table, _edge_ends, _product, _vertex_blocks,
    act, is_heart, mu_contraction, rep_points, sub_stable_points,
)


def unipotent_points(quiver, sub, quot, field: GF) -> list[GPoint]:
    """The whole unipotent radical U = prod_v U_v."""
    return _product(*_vertex_blocks(field, quiver.vertices, sub, quot)[0])


def stabilizer_points(quiver, sub, quot, field: GF) -> list[GPoint]:
    """The whole block stabilizer Q = prod_v Q_v."""
    return _product(*_vertex_blocks(field, quiver.vertices, sub, quot)[1])


def p_prime_full(contr, tau, omega, field: GF) -> dict:
    """The p' part of ``count_fiber_lemma_checks`` with every class of
    G x_U S_heart visited: coset tables keyed by the whole G_v = GL(w + t),
    one representative per coset of G/U, and the fiber-product target over
    every hat class of G-hat x_U-hat S-hat."""
    q, hat, pair = contr.quiver, contr.hat_quiver, contr.pair
    nu = {v: tau[v] + omega[v] for v in q.vertices}
    mu = {x: mu_contraction(contr, nu, field, x)
          for x in sub_stable_points(q, omega, tau, field) if is_heart(q, pair, field, x)}
    hat_s = sub_stable_points(hat, contr.contracted_dims(omega),
                              contr.contracted_dims(tau), field)
    us, qs = ([list(p) for p in pools]
              for _, pools in _vertex_blocks(field, q.vertices, omega, tau))
    gs = [field.general_linear(nu[v]) for v in q.vertices]
    u_of = [_coset_table(field, g, u) for g, u in zip(gs, us)]
    q_of = [_coset_table(field, g, s) for g, s in zip(gs, qs)]
    hat_u_of, hat_q_of = contr.project_group(u_of), contr.project_group(q_of)
    ends, hat_ends = _edge_ends(q), _edge_ends(hat)
    memo: dict = {}

    def minima(tables):
        return itertools.product(*({m for m, _, _ in t.values()} for t in tables))

    def hat_q(g, x):
        return _class_map(field, hat_ends, hat_q_of, memo, g)(x)

    fibers = Counter()
    for g in minima(u_of):
        hat_u = _class_map(field, hat_ends, hat_u_of, memo, contr.project_group(g))
        q_class = _class_map(field, ends, q_of, memo, g)
        for x, xh in mu.items():
            fibers[hat_u(xh), q_class(x)] += 1
    # a class mod Q is (m, y) with y in S_heart; it pushes to the hat-Q
    # class of (m-hat, mu(y))
    by_push = defaultdict(set)
    for e2 in {e2 for _, e2 in fibers}:
        by_push[hat_q(contr.project_group(e2[0]), mu[e2[1]])].add(e2)
    target = {((m, xhat), e2) for m in minima(hat_u_of) for xhat in hat_s
              for e2 in by_push.get(hat_q(m, xhat), ())}
    sizes = set(fibers.values())
    observed = next(iter(sizes)) if len(sizes) == 1 else None
    expected = math.prod(len(field.general_linear(d[v])) for d in (tau, omega)
                         for v in pair.minus)
    return {"constant": observed is not None, "observed": observed,
            "expected": expected, "matches": observed == expected,
            "surjective": set(fibers) == target}


def primitive_element(field: GF) -> int:
    q = field.q
    for g in range(2, q):
        x, order = g, 1
        while x != 1:
            x = field.mul(x, g)
            order += 1
        if order == q - 1:
            return g
    return 1


def gl_generators(field: GF, n: int) -> list[Mat]:
    """Transvections plus one diagonal unit: a generating set of GL_n(F_q)."""
    if n == 0:
        return []
    gens: list[Mat] = []
    u = primitive_element(field)
    if u != 1:
        gens.append(tuple(tuple((u if r == c == 0 else (1 if r == c else 0))
                                for c in range(n)) for r in range(n)))
    for i in range(n):
        for j in range(n):
            if i != j:
                for c in range(1, field.q):
                    gens.append(tuple(tuple((1 if r == s else 0) + (c if (r, s) == (i, j) else 0)
                                            for s in range(n)) for r in range(n)))
    return gens


class RepSpace:
    """E^F with its G^F-orbit table (generator closure, lex-least reps)."""

    def __init__(self, quiver, dims, field: GF):
        self.quiver = quiver
        self.dims = dict(dims)
        self.field = field
        self.points = rep_points(quiver, dims, field)
        self._gens = self._group_generators()
        self._orbit_rep: dict[Point, Point] = {}
        self._orbit_size: dict[Point, int] = {}
        self._build_orbits()

    def _group_generators(self) -> list[tuple[GPoint, GPoint]]:
        q = self.quiver
        out = []
        for k, v in enumerate(q.vertices):
            for m in gl_generators(self.field, self.dims[v]):
                g = tuple(m if t == k else self.field.mat_id(self.dims[w])
                          for t, w in enumerate(q.vertices))
                ginv = tuple(self.field.mat_inv(c) for c in g)
                out.append((g, ginv))
        return out

    def _build_orbits(self):
        for start in sorted(self.points):
            if start in self._orbit_rep:
                continue
            orbit = {start}
            frontier = [start]
            while frontier:
                nxt = []
                for x in frontier:
                    for g, ginv in self._gens:
                        _budget.charge()
                        y = act(self.field, self.quiver, g, x, ginv)
                        if y not in orbit:
                            orbit.add(y)
                            nxt.append(y)
                frontier = nxt
            rep = min(orbit)
            for x in orbit:
                self._orbit_rep[x] = rep
            self._orbit_size[rep] = len(orbit)

    def orbit_rep(self, x: Point) -> Point:
        return self._orbit_rep[x]

    def orbit_reps(self) -> list[Point]:
        return sorted(self._orbit_size)

    def orbit_size(self, rep: Point) -> int:
        return self._orbit_size[rep]
