"""Exact linear algebra over a field, on sparse vectors.

Entries must support +, -, *, /, bool (truthiness = nonzero) and ==.  Works
for Fraction and QVScalar.  Plain ints are not accepted as entries since
int/int would go through floats.  A vector is a dict from mutually
comparable keys to nonzero entries.

There is one elimination kernel.  ``echelon_insert`` grows a set of rules,
each mapping a lead to its tail: the row lead - sum_k tail[k] * k, where the
lead is the row's *greatest* key.  So a caller picks its pivots by how it
keys the coordinates: negated column indices make the leftmost column the
lead, as in textbook row reduction.  ``echelon_reduce`` clears every lead
out of every tail; ``rank`` applies the first to a list of rows.
``residue`` reduces a vector until no lead is left in it, which gives one
representative per coset of the span, empty exactly on the span.
All of them combine entries only in ``_add_scaled``, which hands the whole
step vec += c * row to the entry type's ``add_scaled_row`` when it has one
(``QVScalar``'s multiplies and adds Laurent entries on their coefficient
dicts, with no object in between) and otherwise runs a + c * x per entry
(``Fraction``): still one kernel.

``echelon_extend`` adds a list of rows and reduces; ``rref`` is that on an
empty set.  A row whose pivot is not a monomial c·v^k (the entry type's
``is_monomial``; a type without one never waits) waits, and goes in through
``echelon_insert`` as its residue once every other row is in, lowest lead
first: divided only when nothing is left to clear from it, it divides
exactly wherever the reduced form is Laurent, with no fraction that cancels
later, and ``QVScalar`` finds such a quotient by division over Z, with no
gcd.  The reduced echelon form of a span is unique, so the order changes
no result.  It does change the rules before reduction and which rows add
rank, so ``solve``, ``nullspace`` and running ranks insert plainly.

``solve`` and ``nullspace`` take vectors as the columns of a system.
Column j is tagged with the key (0, j), below every coordinate key (1, k),
and the tagged columns are inserted in order.  A column gets a coordinate
lead exactly when it is independent of the columns before it, so these are
the leftmost pivots of dense elimination.  A dependent column reduces to
tags, the greatest being its own: that rule is the kernel vector that is 1
at the free column j and nonzero only at earlier pivots.  A target y lies in
the span exactly when it reduces to tags, which all belong to pivot
columns, and minus those tags is the solution with the free variables zero.

Finite-field elements are plain ints whose arithmetic goes through table
lookups, so ``_gf.GF`` keeps one elimination kernel of its own: routing it
through here would put a field-operation indirection into every step of
this kernel, which the Q(v) eliminations cannot afford.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Hashable, Iterable, Mapping, Sequence, TypeVar

T = TypeVar("T")
Vec = Mapping[Hashable, T]


def _add_scaled(vec: dict, c: T, row: Mapping) -> None:
    """vec += c * row in place, dropping keys that cancel."""
    add_row = getattr(type(c), "add_scaled_row", None)
    if add_row is not None:
        add_row(vec, c, row)
        return
    for k, x in row.items():
        s = vec[k] + c * x if k in vec else c * x
        if s:
            vec[k] = s
        else:
            del vec[k]


def _reduce_top(rules: Mapping[Hashable, Mapping], vec: dict):
    """Reduce vec in place at its greatest key while that key leads a rule;
    returns that key with its entry, popped from vec, or None if vec cancels."""
    while vec:
        lead = max(vec)
        c = vec.pop(lead)
        if lead not in rules:
            return lead, c
        _add_scaled(vec, c, rules[lead])
    return None


def echelon_insert(rules: dict[Hashable, dict], vec: Vec) -> bool:
    """Add the sparse vector vec to a sparse echelon set unless it lies in
    its span; returns whether it was added.  ``rules`` maps each lead to its
    tail, the row lead - sum_k tail[k] * k with every tail key below the
    lead.  vec is reduced at its greatest key while that key leads a rule."""
    vec = dict(vec)
    top = _reduce_top(rules, vec)
    if top is None:
        return False
    lead, neg = top[0], -top[1]
    rules[lead] = {k: x / neg for k, x in vec.items()}
    return True


def echelon_extend(rules: dict[Hashable, dict],
                   rows: Iterable[Vec]) -> dict[Hashable, dict]:
    """Add the span of the sparse rows to the echelon set and reduce it;
    returns rules.  A row whose pivot is not a monomial waits, and goes in
    as its residue once every other row is in, lowest lead first."""
    waiting = []
    for row in rows:
        vec = dict(row)
        top = _reduce_top(rules, vec)
        if top is None:
            continue
        lead, c = top
        is_monomial = getattr(c, "is_monomial", None)
        if is_monomial is None or is_monomial():
            neg = -c
            rules[lead] = {k: x / neg for k, x in vec.items()}
        else:
            vec[lead] = c
            waiting.append((lead, vec))
    waiting.sort(key=itemgetter(0))
    for _, vec in waiting:
        echelon_insert(rules, residue(rules, vec))
    echelon_reduce(rules)
    return rules


def echelon_reduce(rules: dict[Hashable, dict]) -> None:
    """Clear every lead out of every tail, in place: the reduced echelon form.
    Leads go in ascending order, so each tail is cleared by reduced rules."""
    for lead in sorted(rules):
        tail = rules[lead]
        for k in [k for k in tail if k in rules]:
            _add_scaled(tail, tail.pop(k), rules[k])


def rank(rows: Sequence[Vec]) -> int:
    """Dimension of the span of the sparse rows."""
    rules: dict = {}
    return sum(echelon_insert(rules, row) for row in rows)


def rref(rows: Sequence[Vec]) -> dict[Hashable, dict]:
    """The reduced echelon rules of the span of the sparse rows."""
    return echelon_extend({}, rows)


def residue(rules: Mapping[Hashable, Mapping], vec: Vec) -> dict:
    """vec minus the combination of rules that leaves no lead in it, keys in
    descending order.  Any echelon rules of one span give the same residue."""
    vec = dict(vec)
    out = {}
    while vec:
        key = max(vec)
        c = vec.pop(key)
        if key in rules:
            _add_scaled(vec, c, rules[key])
        else:
            out[key] = c
    return out


def _tagged(cols: Sequence[Vec], one: T) -> dict:
    """Echelon rules of the columns, column j keyed (0, j) below its
    coordinates (1, k) and inserted in order."""
    rules: dict = {}
    for j, col in enumerate(cols):
        vec = {(1, k): x for k, x in col.items()}
        vec[(0, j)] = one
        echelon_insert(rules, vec)
    return rules


def solve(cols: Sequence[Vec], y: Vec, one: T) -> tuple[dict[int, T] | None, list[int]]:
    """(x, pivots) with sum_j x[j] * cols[j] == y, where x is sparse, keyed
    in ascending order and zero at the free columns, or None when y is
    outside the span; pivots are the columns independent of those before
    them, so the rank of the first k columns is the count of pivots below k."""
    rules = _tagged(cols, one)
    pivots = [j for j in range(len(cols)) if (0, j) not in rules]
    rest = residue(rules, {(1, k): x for k, x in y.items()})
    if any(tag for tag, _ in rest):
        return None, pivots
    return {j: -x for (_, j), x in reversed(rest.items())}, pivots


def nullspace(cols: Sequence[Vec], one: T) -> list[dict[int, T]]:
    """Basis of the relations x with sum_j x[j] * cols[j] == 0: one per free
    column j, equal to one there and zero at the other free columns."""
    rules = _tagged(cols, one)
    return [dict(sorted([(i, -x) for (_, i), x in rules[(0, j)].items()]
                        + [(j, one)]))
            for j in range(len(cols)) if (0, j) in rules]
