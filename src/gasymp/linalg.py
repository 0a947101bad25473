"""Exact linear algebra over the rationals (dense and sparse rows)."""

from __future__ import annotations

from fractions import Fraction


def rref(rows: list) -> tuple:
    """Reduced row echelon form of a dense Fraction matrix (copied).

    Returns (matrix, pivot_columns).
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rank(rows: list) -> int:
    return len(rref(rows)[1])


def solve(rows: list, rhs: list) -> tuple:
    """Solve A x = b exactly.

    Returns (particular_solution, nullspace_basis) or (None, nullspace_basis)
    when inconsistent.  Free variables are set to zero in the particular
    solution.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    mat, pivots = rref(aug)
    for row in mat:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None, nullspace(rows)
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        if c < ncols:
            sol[c] = mat[r][-1]
    return sol, nullspace(rows)


def nullspace(rows: list) -> list:
    """Basis of the right kernel of a dense Fraction matrix."""
    if not rows:
        return []
    ncols = len(rows[0])
    mat, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][fc]
        basis.append(v)
    return basis


def _subtract(target: dict, f: Fraction, row: dict) -> None:
    """target -= f * row in place, dropping entries that cancel."""
    for c, v in row.items():
        s = target.get(c, 0) - f * v
        if s:
            target[c] = s
        elif c in target:
            del target[c]


class SparseEchelon:
    """Incrementally built reduced row echelon basis of sparse Fraction rows.

    Rows are dicts column -> nonzero Fraction, stored by pivot column (their
    least column).  Invariant: every stored row has coefficient 1 at its own
    pivot and 0 at every other row's pivot column, so the basis is the unique
    reduced echelon form of the span whatever the insertion order.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> reduced row (dict)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, row: dict) -> dict:
        """Residual of row after clearing pivots until its least column is not
        a pivot; empty iff row lies in the span."""
        row = dict(row)
        while row:
            p = min(row)
            if p not in self.rows:
                return row
            _subtract(row, row[p], self.rows[p])
        return row

    def insert(self, row: dict) -> bool:
        """Reduce and insert; returns True if the row enlarged the span."""
        res = self.reduce(row)
        if not res:
            return False
        p = min(res)
        inv = Fraction(1) / res[p]
        res = {c: v * inv for c, v in res.items()}
        for q in [c for c in res if c in self.rows]:
            _subtract(res, res[q], self.rows[q])
        for other in self.rows.values():
            f = other.get(p)
            if f:
                _subtract(other, f, res)
        self.rows[p] = res
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)


def sparse_nullspace(equations: list, ncols: int) -> list:
    """Right kernel basis for a system of sparse equation rows over unknowns
    0..ncols-1.  Returns sparse solution vectors (dicts), each checked
    against every equation."""
    ech = SparseEchelon()
    for eq in equations:
        ech.insert(eq)
    basis = []
    for free in range(ncols):
        if free in ech.rows:
            continue
        v = {free: Fraction(1)}
        for p, row in ech.rows.items():
            coeff = row.get(free)
            if coeff:
                v[p] = -coeff
        basis.append(v)
    columns: dict = {}
    for i, eq in enumerate(equations):
        for col, c in eq.items():
            columns.setdefault(col, []).append((i, c))
    for v in basis:
        image: dict = {}
        for col, x in v.items():
            for i, c in columns.get(col, ()):
                image[i] = image.get(i, 0) + c * x
        if any(image.values()):
            raise AssertionError("kernel vector violates an equation")
    return basis
