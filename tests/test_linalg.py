import random

from jetstar.linalg import (
    eliminate,
    invert,
    kernel_basis,
    null_space,
    rank,
    rank_sparse,
    rref,
)
from jetstar.scalars import Scalar, rational


def random_matrix(rng, nrows, ncols, density=0.6):
    return [
        [
            Scalar(rng.randint(-3, 3)) if rng.random() < density else Scalar.zero()
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def matmul(a, b):
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(len(b))), Scalar.zero())
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]


def test_rref_pivots_are_unit_columns():
    rows = [
        [Scalar(2), Scalar(4), Scalar(-2)],
        [Scalar(1), Scalar(2), Scalar(0)],
    ]
    pivots = rref(rows, 3)
    assert pivots == [0, 2]
    assert rows[0][0] == Scalar.one() and rows[1][2] == Scalar.one()
    assert rows[0][2] == Scalar.zero()


def test_kernel_vectors_annihilate(rng=random.Random(7)):
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        ncols = len(m[0])
        basis = kernel_basis(m, ncols)
        assert rank(m, ncols) + len(basis) == ncols
        for vec in basis:
            for row in m:
                total = Scalar.zero()
                for a, v in zip(row, vec):
                    total = total + a * v
                assert total.is_zero()


def test_invert_round_trip(rng=random.Random(8)):
    found = 0
    while found < 10:
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, density=0.8)
        inv = invert(m)
        if inv is None:
            continue
        found += 1
        product = matmul(m, inv)
        for i in range(n):
            for j in range(n):
                expected = Scalar.one() if i == j else Scalar.zero()
                assert product[i][j] == expected


def test_invert_detects_singular():
    m = [[Scalar(1), Scalar(2)], [Scalar(2), Scalar(4)]]
    assert invert(m) is None


def test_rank_sparse_matches_dense(rng=random.Random(9)):
    for _ in range(30):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = random_matrix(rng, nrows, ncols, density=0.5)
        sparse_rows = [
            {j: v for j, v in enumerate(row) if not v.is_zero()} for row in m
        ]
        assert rank_sparse(sparse_rows, ncols) == rank(m, ncols)


def test_gaussian_rational_entries():
    i = Scalar(0, 1)
    m = [[i, Scalar.one()], [Scalar.one(), -i]]
    assert rank(m, 2) == 1  # second row is -i times the first
    assert invert(m) is None
    half = Scalar(rational(1, 2), rational(1, 2))
    m2 = [[half, Scalar.zero()], [Scalar.one(), Scalar.one()]]
    inv = invert(m2)
    assert inv is not None
    assert matmul(m2, inv)[0][0] == Scalar.one()


def random_sparse_gaussian(rng, nrows, ncols):
    """Sparse Gaussian-rational rows with dependent rows, empty rows and
    zero columns mixed in, as dense lists."""
    values = [Scalar(rational(rng.randint(-4, 4), rng.randint(1, 3)),
                     rational(rng.randint(-2, 2), rng.randint(1, 2)))
              for _ in range(8)]
    dead_cols = {c for c in range(ncols) if rng.random() < 0.25}
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append([Scalar.zero()] * ncols)
        elif kind < 0.35 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.choice(values), rng.choice(values)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([
                rng.choice(values) if c not in dead_cols and rng.random() < 0.3
                else Scalar.zero()
                for c in range(ncols)
            ])
    return rows


def to_sparse(rows):
    return [{c: v for c, v in enumerate(row) if not v.is_zero()} for row in rows]


def test_eliminate_matches_dense_oracle(rng=random.Random(10)):
    deficient = 0
    for _ in range(120):
        nrows, ncols = rng.randint(0, 8), rng.randint(1, 8)
        m = random_sparse_gaussian(rng, nrows, ncols)
        work = [list(row) for row in m]
        dense_pivots = rref(work, ncols)
        pivots, reduced = eliminate(to_sparse(m), ncols)
        assert pivots == dense_pivots
        assert rank_sparse(to_sparse(m), ncols) == rank(m, ncols) == len(pivots)
        for row, dense_row in zip(reduced, work):
            assert [row.get(c, Scalar.zero()) for c in range(ncols)] == dense_row
        kernel = [[vec.get(c, Scalar.zero()) for c in range(ncols)]
                  for vec in null_space(pivots, reduced, ncols)]
        assert kernel == kernel_basis(m, ncols)
        deficient += len(pivots) < min(nrows, ncols)
    assert deficient > 20


def test_eliminate_carries_augmented_columns():
    # pivots only before ncols; the identity block records the row operations
    rows = [{1: Scalar(2), 2: Scalar.one()}, {0: Scalar(3), 3: Scalar.one()}, {}]
    pivots, reduced = eliminate(rows, 2)
    assert pivots == [0, 1]
    assert reduced == [{0: Scalar.one(), 3: Scalar(rational(1, 3))},
                       {1: Scalar.one(), 2: Scalar(rational(1, 2))}]


def test_invert_matches_dense_oracle(rng=random.Random(11)):
    singular = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_sparse_gaussian(rng, n, n)
        work = [list(row) + [Scalar.one() if i == j else Scalar.zero() for j in range(n)]
                for i, row in enumerate(m)]
        full_rank = len(rref(work, n)) == n
        inv = invert(m)
        if not full_rank:
            singular += 1
            assert inv is None
        else:
            assert inv == [row[n:] for row in work]
    assert singular > 5
