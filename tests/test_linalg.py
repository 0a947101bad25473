import random
from fractions import Fraction

from gasymp.linalg import SparseEchelon, nullspace, rank, rref, sparse_nullspace


def _satisfies(eq: dict, v: dict) -> bool:
    return sum(c * v.get(col, 0) for col, c in eq.items()) == 0


def test_sparse_nullspace_unreduced_row_repro():
    equations = [{2: 1, 3: 1}, {1: 1, 2: 1}]
    kernel = sparse_nullspace(equations, 4)
    assert len(kernel) == 2
    for v in kernel:
        assert all(_satisfies(eq, v) for eq in equations)


def _random_sparse_rows(rng: random.Random, nrows: int, ncols: int) -> list:
    rows = []
    for _ in range(nrows):
        row = {}
        for c in rng.sample(range(ncols), rng.randint(1, min(4, ncols))):
            value = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if value:
                row[c] = value
        rows.append(row)
    # duplicated and combined rows make dependent insertions common
    if len(rows) >= 2:
        a, b = rng.sample(rows, 2)
        rows.append({c: a.get(c, 0) + 2 * b.get(c, 0) for c in set(a) | set(b)
                     if a.get(c, 0) + 2 * b.get(c, 0)})
    return rows


def test_sparse_against_dense_randomized():
    rng = random.Random(20151224)
    for _ in range(200):
        ncols = rng.randint(1, 8)
        rows = _random_sparse_rows(rng, rng.randint(1, 8), ncols)
        dense = [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]

        ech = SparseEchelon()
        for row in rows:
            ech.insert(row)
        # the stated invariant: unit pivots, zeros in every other pivot column
        for p, row in ech.rows.items():
            assert min(row) == p and row[p] == 1
            assert not any(q in row for q in ech.rows if q != p)
        # reduced echelon form is unique, so it must equal the dense one
        mat, pivots = rref(dense)
        assert sorted(ech.rows) == pivots
        for r, p in enumerate(pivots):
            assert [ech.rows[p].get(c, 0) for c in range(ncols)] == mat[r]

        kernel = sparse_nullspace(rows, ncols)
        dense_kernel = nullspace(dense)
        assert len(kernel) == len(dense_kernel) == ncols - len(pivots)
        for v in kernel:
            assert all(_satisfies(eq, v) for eq in rows)
        vectors = [[v.get(c, Fraction(0)) for c in range(ncols)] for v in kernel]
        if vectors:
            assert rank(vectors) == len(vectors)
            assert rank(vectors + dense_kernel) == len(dense_kernel)
