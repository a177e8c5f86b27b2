"""Exact linear algebra over Gaussian rationals.

Dense matrices are lists of rows of :class:`Scalar`; the sparse variant used
for chain-complex ranks stores rows as ``{column: Scalar}`` dicts.  All
eliminations pick pivots in deterministic column order so downstream normal
forms and reports are reproducible.
"""

from __future__ import annotations

from .elements import add_term
from .scalars import Scalar


def rref(rows, ncols):
    """Reduced row-echelon form in place; returns the pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Scalar.one() / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(rows, ncols):
    work = [list(row) for row in rows]
    return len(rref(work, ncols))


def kernel_basis(rows, ncols):
    """Basis of the right kernel, one vector per free column."""
    work = [list(row) for row in rows]
    pivots = rref(work, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Scalar.zero()] * ncols
        vec[free] = Scalar.one()
        for r, c in enumerate(pivots):
            vec[c] = -work[r][free]
        basis.append(vec)
    return basis


def invert(matrix):
    """Exact inverse of a square matrix, or None if singular."""
    n = len(matrix)
    work = [list(row) + [Scalar.one() if i == j else Scalar.zero() for j in range(n)]
            for i, row in enumerate(matrix)]
    pivots = rref(work, n)
    if len(pivots) != n:
        return None
    return [row[n:] for row in work]


def rank_sparse(rows, ncols):
    """Rank of a sparse matrix given as a list of {col: Scalar} rows."""
    work = [dict(row) for row in rows if row]
    pivot_of_col = {}
    count = 0
    for row in work:
        while row:
            col = min(c for c, v in row.items() if not v.is_zero()) if any(
                not v.is_zero() for v in row.values()
            ) else None
            if col is None:
                break
            owner = pivot_of_col.get(col)
            if owner is None:
                inv = Scalar.one() / row[col]
                pivot_of_col[col] = {c: v * inv for c, v in row.items() if not v.is_zero()}
                count += 1
                break
            factor = -row[col]
            for c, v in owner.items():
                add_term(row, c, factor * v)
    return count
