"""Exact linear algebra over any field type.

Entries must support +, -, *, /, bool (truthiness = nonzero) and ==.  Works
for Fraction, QVScalar and SqrtQScalar.  Plain ints are not accepted as
entries since int/int would go through floats; finite-field elements are
plain ints, so ``_gf.GF`` keeps its own ``mat_inv`` and ``mat_rank``.

Each pivot step normalizes and subtracts the pivot row only over its nonzero
entries: ``a - f*0 == a`` exactly, so skipping them changes no result.
"""
from __future__ import annotations

from typing import Sequence, TypeVar

T = TypeVar("T")


def _eliminate(m: list[list[T]], ncols: int, above: bool) -> list[int]:
    """Row-reduce m in place, choosing pivots among the first ncols columns;
    returns the pivot columns.  Pivot rows are normalized and cleared below,
    and also above when ``above`` (reduced row echelon form)."""
    pivots: list[int] = []
    nrows = len(m)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        row = m[r]
        piv = row[c]
        nz = [k for k in range(c, len(row)) if row[k]]
        for k in nz:
            row[k] = row[k] / piv
        for i in range(0 if above else r + 1, nrows):
            other = m[i]
            f = other[c]
            if i != r and f:
                for k in nz:
                    other[k] = other[k] - f * row[k]
        pivots.append(c)
        r += 1
    return pivots


def rref(rows: Sequence[Sequence[T]], ncols: int | None = None) -> tuple[list[list[T]], list[int]]:
    """Reduced row echelon form of a copy; returns (matrix, pivot columns).
    Pivots are chosen among the first ncols columns (default: all); the
    remaining columns are reduced along with them."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    return m, _eliminate(m, len(m[0]) if ncols is None else ncols, True)


def rank(rows: Sequence[Sequence[T]]) -> int:
    """Rank by Gaussian elimination without back-substitution."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    return len(_eliminate(m, len(m[0]), False))


def nullspace(rows: Sequence[Sequence[T]], ncols: int, one: T) -> list[list[T]]:
    """Basis of the right kernel; needs the field's one to build unit vectors."""
    zero = one - one
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = zero - red[r][fc]
        basis.append(vec)
    return basis


def solve(rows: Sequence[Sequence[T]], rhs: Sequence[T]) -> list[T] | None:
    """One solution of A x = b (free variables set to zero), or None."""
    if len(rows) != len(rhs):
        raise ValueError("matrix/vector size mismatch")
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    # any nonzero entry exists in red unless the system was all-zero
    some = rhs[0]
    zero = some - some
    sol = [zero] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = red[r][ncols]
    return sol
