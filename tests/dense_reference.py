"""Dense references for the sparse kernel in ``qcontract._linalg``: textbook
Gauss-Jordan over every cell of every row, and the layout of sparse vectors
as dense rows.  Shared by the differential tests of every layer."""


def dense(vecs, zero):
    """Sparse vectors as dense rows over the sorted union of their keys."""
    keys = sorted(set().union(*vecs))
    return [[v.get(k, zero) for k in keys] for v in vecs]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def sparse(vec):
    """A dense vector as a dict from column index to nonzero entry."""
    return {k: x for k, x in enumerate(vec) if x}


def dense_rref(rows, ncols=None):
    """Textbook Gauss-Jordan over every cell of every row; pivots are chosen
    left to right among the first ncols columns (default: all)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    if ncols is None:
        ncols = len(m[0])
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def dense_rank(rows):
    return len(dense_rref(rows)[1])


def dense_solve(rows, rhs, zero):
    """One solution of rows · x = rhs with the free variables zero, or None."""
    n = len(rows[0])
    red, pivots = dense_rref([list(r) + [b] for r, b in zip(rows, rhs)], n + 1)
    if n in pivots:
        return None
    sol = [zero] * n
    for r, pc in enumerate(pivots):
        sol[pc] = red[r][n]
    return sol


def dense_nullspace(rows, ncols, one):
    """Right kernel basis, one vector per free column, one there."""
    zero = one - one
    red, pivots = dense_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = zero - red[r][fc]
        basis.append(vec)
    return basis


def dense_residual(red, pivots, vec):
    """vec minus the combination of rref rows matching it on pivot columns."""
    out = list(vec)
    for r, pc in enumerate(pivots):
        c = vec[pc]
        for k in range(len(out)):
            out[k] = out[k] - c * red[r][k]
    return out
