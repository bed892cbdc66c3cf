"""Exact linear algebra over any field type.

Entries must support +, -, *, /, bool (truthiness = nonzero) and ==.  Works
for Fraction, QVScalar and SqrtQScalar.  Plain ints are not accepted as
entries since int/int would go through floats.

This module owns both the eliminations and the bookkeeping around them:
laying sparse vectors out as dense rows (``dense``, ``transpose``), solving
for a combination of given vectors (``solve_in_span``) and reducing a vector
by echelon rows (``reduce_by_rows``; ``echelon_insert`` and
``echelon_reduce`` keep sparse rows as dicts keyed by their leads), so
callers never build their own key-union matrices.  Finite-field elements
are plain ints whose arithmetic goes through table lookups, so ``_gf.GF``
keeps one elimination kernel of its own: routing it through here would put
a field-operation indirection into every step of this kernel, which the
Q(v) eliminations cannot afford.

Each pivot step normalizes and subtracts the pivot row only over its nonzero
entries: ``a - f*0 == a`` exactly, so skipping them changes no result.
"""
from __future__ import annotations

from typing import Hashable, Mapping, Sequence, TypeVar

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


def dense(vecs: Sequence[Mapping[Hashable, T]], zero: T) -> list[list[T]]:
    """Sparse vectors as dense rows over the sorted union of their keys."""
    keys = sorted(set().union(*vecs))
    return [[v.get(k, zero) for k in keys] for v in vecs]


def transpose(rows: Sequence[Sequence[T]]) -> list[list[T]]:
    return [list(col) for col in zip(*rows)]


def solve_in_span(vectors: Sequence[Sequence[T]], target: Sequence[T]) -> list[T] | None:
    """Coefficients c with sum_k c[k] * vectors[k] == target (free ones
    zero), or None when target is outside the span."""
    if not vectors:
        return None if any(target) else []
    return solve(transpose(vectors), target)


def reduce_by_rows(rows: Sequence[Sequence[T]], pivots: Sequence[int],
                   vec: Sequence[T]) -> list[T]:
    """vec minus multiples of the rows, taken in order, that clear it at each
    row's pivot column.  Each row must be 1 at its pivot and 0 at the pivots
    of the rows before it (rref rows, or a semi-echelon basis grown one
    reduced row at a time)."""
    vec = list(vec)
    for row, pc in zip(rows, pivots):
        c = vec[pc]
        if c:
            vec = [a - c * b for a, b in zip(vec, row)]
    return vec


def _add_scaled(vec: dict, c: T, row: Mapping) -> None:
    """vec += c * row in place, dropping keys that cancel."""
    for k, x in row.items():
        s = vec[k] + c * x if k in vec else c * x
        if s:
            vec[k] = s
        else:
            del vec[k]


def echelon_insert(rules: dict[Hashable, dict], vec: Mapping[Hashable, T]) -> bool:
    """Add the sparse vector vec to a sparse echelon set unless it lies in
    its span; returns whether it was added.  ``rules`` maps each lead to its
    tail, the row lead - sum_k tail[k] * k with every tail key below the
    lead.  vec is reduced at its greatest key while that key leads a rule."""
    vec = dict(vec)
    while vec:
        lead = max(vec)
        c = vec.pop(lead)
        if lead not in rules:
            neg = -c
            rules[lead] = {k: x / neg for k, x in vec.items()}
            return True
        _add_scaled(vec, c, rules[lead])
    return False


def echelon_reduce(rules: dict[Hashable, dict]) -> None:
    """Clear every lead out of every tail, in place: the reduced echelon form.
    Leads go in ascending order, so each tail is cleared by reduced rules."""
    for lead in sorted(rules):
        tail = rules[lead]
        for k in [k for k in tail if k in rules]:
            _add_scaled(tail, tail.pop(k), rules[k])
