"""Exact linear algebra over Gaussian rationals.

Every rank, kernel, solve and inverse in the package comes from one sparse
row reduction, :func:`eliminate`, over rows stored as ``{column: Scalar}``
dicts; work is proportional to the nonzeros, which is what the very sparse
integer matrices of the de Rham, Brylinski, jet-evaluation and Hochschild
complexes need.  Pivots are taken in column order and the rows are fully
reduced, so the result is the unique reduced row-echelon form and every
normal form built from it is reproducible.  :func:`homology_dims` builds
those rows from a boundary rule on basis elements (d, delta, Hochschild b).

The dense routines (:func:`rref`, :func:`rank`, :func:`kernel_basis` over
lists of rows) are kept as independent oracles for the tests; no computation
in the package calls them.
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


def eliminate(rows, ncols):
    """Sparse reduced row-echelon form of ``{col: Scalar}`` rows.

    Pivots are taken only in columns ``< ncols``; entries in later columns
    (an augmented block) are carried along, as in :func:`rref`.  Returns
    ``(pivots, reduced)``: the pivot columns in increasing order and, for
    each, its row scaled to 1 at the pivot and zero at every other pivot
    column.  Rows that reduce to zero before ``ncols`` are dropped.
    """
    owner = {}
    for source in rows:
        row = {c: v for c, v in source.items() if not v.is_zero()}
        while True:
            lead = min((c for c in row if c < ncols), default=None)
            if lead is None:
                break
            pivot_row = owner.get(lead)
            if pivot_row is None:
                inv = Scalar.one() / row[lead]
                owner[lead] = {c: v * inv for c, v in row.items()}
                break
            factor = -row[lead]
            for c, v in pivot_row.items():
                add_term(row, c, factor * v)
    pivots = sorted(owner)
    # back-substitute from the last pivot; a reduced row has no entry at any
    # other pivot column, so clearing one entry never refills another
    for c in reversed(pivots):
        row = owner[c]
        for later in sorted(k for k in row if k != c and k in owner):
            factor = -row[later]
            for k, v in owner[later].items():
                add_term(row, k, factor * v)
    return pivots, [owner[c] for c in pivots]


def rank_sparse(rows, ncols):
    """Rank of a sparse matrix given as a list of {col: Scalar} rows."""
    return len(eliminate(rows, ncols)[0])


def homology_dims(bases, rule, step):
    """Homology dimensions of a complex given by a rule on basis elements.

    ``bases[q]`` lists the keys of degree q; ``rule(key)`` yields the
    ``(target key, Scalar)`` image of one key in degree ``q + step`` (+1 for
    d, -1 for a boundary).  The complex is zero outside the given degrees.
    Returns ``(dims, ranks)``, ``ranks[q]`` being the rank of the map out of q.
    """
    top = len(bases)
    ranks = []
    for q, basis in enumerate(bases):
        if not 0 <= q + step < top:
            ranks.append(0)
            continue
        index = {key: i for i, key in enumerate(bases[q + step])}
        rows = []
        for key in basis:
            row = {}
            for target, coeff in rule(key):
                add_term(row, index[target], coeff)
            rows.append(row)
        ranks.append(rank_sparse(rows, len(index)))
    dims = [
        len(basis) - ranks[q] - (ranks[q - step] if 0 <= q - step < top else 0)
        for q, basis in enumerate(bases)
    ]
    return dims, ranks


def null_space(pivots, reduced, ncols):
    """Right-kernel basis from :func:`eliminate`'s result, one
    ``{col: Scalar}`` per free column below ``ncols``.

    Equal to :func:`kernel_basis` on the dense form of the same matrix.
    """
    pivot_set = set(pivots)
    basis = {free: {free: Scalar.one()} for free in range(ncols) if free not in pivot_set}
    for c, row in zip(pivots, reduced):
        for free, v in row.items():
            if free in basis:
                basis[free][c] = -v
    return list(basis.values())


def invert(matrix):
    """Exact inverse of a square matrix, or None if singular."""
    n = len(matrix)
    rows = [{**dict(enumerate(row)), n + i: Scalar.one()} for i, row in enumerate(matrix)]
    pivots, reduced = eliminate(rows, n)
    if len(pivots) != n:
        return None
    return [[row.get(n + j, Scalar.zero()) for j in range(n)] for row in reduced]
