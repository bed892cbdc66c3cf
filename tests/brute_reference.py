"""Whole-group enumerations for the quiver tests: the unipotent radical and
the block stabilizer listed element by element, and G-orbits on E_V by
closure under a generating set of G_V.  The library never lists these
groups; the tests use them as oracles for its per-vertex coset tables."""
from qcontract import _budget
from qcontract._gf import GF, Mat
from qcontract.quiver import GPoint, Point, _product, _vertex_blocks, act, rep_points


def unipotent_points(quiver, sub, quot, field: GF) -> list[GPoint]:
    """The whole unipotent radical U = prod_v U_v."""
    return _product(*_vertex_blocks(field, quiver.vertices, sub, quot)[1])


def stabilizer_points(quiver, sub, quot, field: GF) -> list[GPoint]:
    """The whole block stabilizer Q = prod_v Q_v."""
    return _product(*_vertex_blocks(field, quiver.vertices, sub, quot)[2])


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
