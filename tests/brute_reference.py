"""Whole-group enumerations for the quiver tests: the unipotent radical and
the block stabilizer listed element by element, lex-least coset tables and
the class maps read off them, and the p' fiber report from a walk of every
class of G x_U S_heart.  The library never lists these groups nor builds
these tables; the tests use them as oracles for its Levi and Q-orbit walk.
``RepSpace`` tabulates G-orbits on E_V with the library's own generators and
orbit walk."""
import itertools
import math
from collections import Counter, defaultdict

from qcontract._gf import GF, Mat, gl_order
from qcontract.quiver import (
    GPoint, Point, _edge_ends, _product, _upper_blocks, is_heart, mu_contraction,
    point_orbits, rep_points, stabilizer_generators, sub_stable_points,
)


def vertex_blocks(field: GF, vertices, sub, quot):
    """Per vertex, with w = sub_v and t = quot_v: the counts and lazy pools of
    the unipotent radical U_v = [[I, *], [0, I]] of GL(w + t) and of its
    block stabilizer Q_v = [[A, *], [0, D]] (A, D invertible)."""
    q, gl, mid = field.q, field.general_linear, field.all_matrices
    wts = [(sub[v], quot[v]) for v in vertices]
    return [([q ** (w * t) for w, t in wts],
             (_upper_blocks([field.mat_id(w)], mid(w, t), [field.mat_id(t)], w) for w, t in wts)),
            ([gl_order(w, q) * q ** (w * t) * gl_order(t, q) for w, t in wts],
             (_upper_blocks(gl(w), mid(w, t), gl(t), w) for w, t in wts))]


def coset_table(field: GF, group, subgroup) -> dict[Mat, tuple[Mat, Mat, Mat]]:
    """One vertex factor: g -> (m, t, t^-1), m the lex-least element of gS
    and t = m^-1 g.  A coset of prod_v S_v has the tuple of per-vertex minima
    as its least element, and as s -> g s^-1 is injective, the least member
    of the class of (g, x) under (g, x) ~ (g s^-1, s.x) is (m, t.x)."""
    pairs = [(s, field.mat_inv(s)) for s in subgroup]
    table: dict[Mat, tuple[Mat, Mat, Mat]] = {}
    for g in group:
        if g not in table:
            m = min(field.mat_mul(g, s) for s, _ in pairs)
            table.update((field.mat_mul(m, s), (m, s, sinv)) for s, sinv in pairs)
    return table


def class_map(field: GF, ends, tables, memo: dict, g: GPoint):
    """x -> (m, t.x), the least member of the class of (g, x), from the
    table minima m of g and the (t_target, t_source^-1) pair of each edge.
    Each product t_target x_h t_source^-1 is kept in ``memo``: the walks of
    every class of G x_U S_heart meet one product many times."""
    cols = [table[gv] for table, gv in zip(tables, g)]
    m = tuple(c[0] for c in cols)
    frame = [(cols[a][1], cols[b][2]) for a, b in ends]

    def apply(x):
        out = []
        for (t, tinv), xh in zip(frame, x):
            key = (t, xh, tinv)
            if key not in memo:
                memo[key] = field.mat_mul(field.mat_mul(t, xh), tinv)
            out.append(memo[key])
        return m, tuple(out)
    return apply


def unipotent_points(quiver, sub, quot, field: GF) -> list[GPoint]:
    """The whole unipotent radical U = prod_v U_v."""
    return _product(*vertex_blocks(field, quiver.vertices, sub, quot)[0])


def stabilizer_points(quiver, sub, quot, field: GF) -> list[GPoint]:
    """The whole block stabilizer Q = prod_v Q_v."""
    return _product(*vertex_blocks(field, quiver.vertices, sub, quot)[1])


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
              for _, pools in vertex_blocks(field, q.vertices, omega, tau))
    gs = [field.general_linear(nu[v]) for v in q.vertices]
    u_of = [coset_table(field, g, u) for g, u in zip(gs, us)]
    q_of = [coset_table(field, g, s) for g, s in zip(gs, qs)]
    hat_u_of, hat_q_of = contr.project_group(u_of), contr.project_group(q_of)
    ends, hat_ends = _edge_ends(q), _edge_ends(hat)
    memo: dict = {}

    def minima(tables):
        return itertools.product(*({m for m, _, _ in t.values()} for t in tables))

    def hat_q(g, x):
        return class_map(field, hat_ends, hat_q_of, memo, g)(x)

    fibers = Counter()
    for g in minima(u_of):
        hat_u = class_map(field, hat_ends, hat_u_of, memo, contr.project_group(g))
        q_class = class_map(field, ends, q_of, memo, g)
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


class RepSpace:
    """E^F with its G^F-orbit table (lex-least reps), from the library's
    generators of prod_v GL(V_v) (the block stabilizer with quotient 0) and
    its orbit walk."""

    def __init__(self, quiver, dims, field: GF):
        self.quiver = quiver
        self.dims = dict(dims)
        self.field = field
        self.points = rep_points(quiver, dims, field)
        gens = stabilizer_generators(quiver, self.dims, dict.fromkeys(self.dims, 0), field)
        self._orbit_rep: dict[Point, Point] = {}
        self._orbit_size: dict[Point, int] = {}
        for orbit in point_orbits(field, quiver, gens, self.points):
            rep = min(orbit)
            self._orbit_rep.update(dict.fromkeys(orbit, rep))
            self._orbit_size[rep] = len(orbit)

    def orbit_rep(self, x: Point) -> Point:
        return self._orbit_rep[x]

    def orbit_reps(self) -> list[Point]:
        return sorted(self._orbit_size)

    def orbit_size(self, rep: Point) -> int:
        return self._orbit_size[rep]
