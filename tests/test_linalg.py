import math
import random
from fractions import Fraction

import pytest

from gasymp.linalg import SparseEchelon, sparse_nullspace, sparse_solve


def _satisfies(eq: dict, v: dict) -> bool:
    return sum(c * v.get(col, 0) for col, c in eq.items()) == 0


def test_sparse_nullspace_unreduced_row_repro():
    equations = [{2: 1, 3: 1}, {1: 1, 2: 1}]
    kernel = sparse_nullspace(equations, 4)
    assert len(kernel) == 2
    for v in kernel:
        assert all(_satisfies(eq, v) for eq in equations)


def test_nullspace_selfcheck_catches_a_corrupted_kernel_vector(monkeypatch):
    """The kernel check runs in integers on the scaled equations and vectors;
    a kernel vector made wrong by one entry of the reduced echelon raises."""
    equations = [{0: Fraction(1, 2), 1: Fraction(1, 3), 2: 1, 3: Fraction(-2, 5)},
                 {1: 2, 2: Fraction(3, 4), 3: Fraction(-5, 7)}]
    kernel = sparse_nullspace(equations, 4)
    assert len(kernel) == 2 and all(_satisfies(eq, v) for eq in equations for v in kernel)
    original = SparseEchelon.reduced

    def corrupted(self):
        rows = original(self)
        row = rows[0]
        return {**rows, 0: {**row, 2: row[2] + 1}}

    monkeypatch.setattr(SparseEchelon, "reduced", corrupted)
    with pytest.raises(AssertionError, match="kernel vector violates an equation"):
        sparse_nullspace(equations, 4)


def test_zero_entries_are_ignored():
    ech = SparseEchelon()
    assert ech.insert({0: Fraction(0), 1: Fraction(1)})
    assert ech.rows == {1: {1: 1}}
    assert sparse_nullspace([{0: Fraction(0), 1: Fraction(1)}], 2) == [{0: 1}]
    sol, dim = sparse_solve([{0: Fraction(0), 1: Fraction(2)}, {0: Fraction(1)}],
                            [Fraction(4), Fraction(3)], 2)
    assert sol == [3, 2] and dim == 0


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


def _random_systems(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        ncols = rng.randint(1, 8)
        yield ncols, _random_sparse_rows(rng, rng.randint(1, 8), ncols)


def _assert_echelon(ech: SparseEchelon, reduced: bool) -> None:
    """The stated invariant: integer entries with gcd 1, a positive pivot at the
    least column and, once reduced, zeros in every other pivot column."""
    for p, row in ech.rows.items():
        assert all(type(v) is int and v for v in row.values())
        assert math.gcd(*row.values()) == 1
        assert min(row) == p and row[p] > 0
        if reduced:
            assert not any(q in row for q in ech.rows if q != p)


def test_sparse_echelon_invariant_and_kernel_randomized():
    rng = random.Random(7)
    for ncols, rows in _random_systems(20151224, 200):
        ech = SparseEchelon()
        for row in rows:
            ech.insert(row)
            _assert_echelon(ech, reduced=False)
        basis = ech.reduced()
        _assert_echelon(ech, reduced=True)
        # the reduced basis is unique for its span, whatever the insertion order
        shuffled = SparseEchelon()
        for row in rng.sample(rows, len(rows)):
            shuffled.insert(row)
        assert sorted(shuffled.reduced().items()) == sorted(basis.items())
        kernel = sparse_nullspace(rows, ncols)
        assert len(kernel) == ncols - len(ech)
        for v in kernel:
            assert all(_satisfies(eq, v) for eq in rows)
        # each kernel vector has its own free column at 1, so they are independent
        frees = [max(c for c in v if c not in ech.rows) for v in kernel]
        assert len(set(frees)) == len(kernel)
        assert all(v[c] == 1 for v, c in zip(kernel, frees))


def _per_free_column_nullspace(equations: list, ncols: int) -> list:
    """The kernel read out one free column at a time, probing every reduced
    row for that column."""
    ech = SparseEchelon()
    for eq in equations:
        ech.insert(eq)
    rows = ech.reduced()
    basis = []
    for free in range(ncols):
        if free in rows:
            continue
        v = {free: Fraction(1)}
        for p, row in rows.items():
            coeff = row.get(free)
            if coeff:
                v[p] = Fraction(-coeff, row[p])
        basis.append(v)
    return basis


def test_one_pass_read_out_matches_the_per_column_loop():
    """Same vectors, same entries and the same key order: the free column,
    then the pivots in row order."""
    for ncols, rows in _random_systems(20151224, 200):
        got = sparse_nullspace(rows, ncols)
        assert [list(v.items()) for v in got] == [
            list(v.items()) for v in _per_free_column_nullspace(rows, ncols)]


def test_echelon_never_mutates_or_keeps_the_callers_rows():
    """Integer rows are read without a copy; insert, contains and reduced()
    still leave every row passed in unchanged, store none of them, and give
    the same reduced basis as the rational rows."""
    for ncols, rows in _random_systems(1515, 150):
        as_int = [{c: int(v * 2) for c, v in row.items()} for row in rows]
        as_int[0][ncols] = 0  # an explicit zero entry takes the copying path
        given = as_int + rows
        before = [dict(row) for row in given]
        ech = SparseEchelon()
        for row in given:
            ech.insert(row)
            ech.contains(row)
        basis = {p: dict(row) for p, row in ech.reduced().items()}
        assert given == before
        for row in given:
            row.clear()
        assert ech.rows == basis
        rational = SparseEchelon()
        for row in before[len(as_int):]:
            rational.insert(row)
        assert rational.reduced() == basis


def test_sparse_against_dense_randomized():
    sympy = pytest.importorskip("sympy")
    for ncols, rows in _random_systems(20151224, 200):
        dense = sympy.Matrix([[row.get(c, 0) for c in range(ncols)] for row in rows])
        ech = SparseEchelon()
        for row in rows:
            ech.insert(row)
        # reduced echelon form is unique, so each reduced row divided by its
        # pivot must equal sympy's dense one
        basis = ech.reduced()
        mat, pivots = dense.rref()
        assert sorted(basis) == list(pivots)
        for r, p in enumerate(pivots):
            row = basis[p]
            assert [Fraction(row.get(c, 0), row[p]) for c in range(ncols)] == list(mat.row(r))
        kernel = sparse_nullspace(rows, ncols)
        if kernel:
            vectors = sympy.Matrix([[v.get(c, 0) for c in range(ncols)] for v in kernel])
            assert vectors.rank() == len(kernel) == ncols - dense.rank()


def test_sparse_solve_particular_solution_and_dimension():
    # x0 + x2 = 2, x1 - x2 = 3 over three unknowns: x2 is free
    sol, dim = sparse_solve([{0: 1, 2: 1}, {1: 1, 2: -1}], [2, 3], 3)
    assert sol == [2, 3, 0]
    assert dim == 1
    sol, dim = sparse_solve([{0: 1}, {0: 2}], [0, 0], 2)
    assert sol == [0, 0]
    assert dim == 1


def test_sparse_solve_inconsistent_system():
    # x0 + x1 = 1 and 2 x0 + 2 x1 = 3 have no common solution
    sol, dim = sparse_solve([{0: 1, 1: 1}, {0: 2, 1: 2}], [1, 3], 2)
    assert sol is None
    assert dim == 1
    # a nonzero target on a monomial no unknown reaches
    assert sparse_solve([{0: 1}, {}], [1, 1], 1)[0] is None


def test_sparse_solve_against_sympy_randomized():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1512)
    for ncols, rows in _random_systems(31, 150):
        rhs = [Fraction(rng.randint(-2, 2)) for _ in rows]
        sol, dim = sparse_solve(rows, rhs, ncols)
        a = sympy.Matrix([[row.get(c, 0) for c in range(ncols)] for row in rows])
        augmented = a.row_join(sympy.Matrix(rhs))
        assert (sol is not None) == (augmented.rank() == a.rank())
        assert dim == ncols - a.rank()
        if sol is not None:
            assert all(sum(c * sol[col] for col, c in eq.items()) == b
                       for eq, b in zip(rows, rhs))
