"""Exact linear algebra over the rationals on sparse rows: one reduced echelon
basis, its kernel and its linear solve."""

from __future__ import annotations

from fractions import Fraction


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

    Rows are dicts column -> Fraction; zero entries of a row passed in are
    dropped, and stored rows are keyed by pivot column (their least column).
    Invariant: every stored row has coefficient 1 at its own pivot and 0 at
    every other row's pivot column, so the basis is the unique reduced echelon
    form of the span whatever the insertion order.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> reduced row (dict)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, row: dict) -> dict:
        """Residual of row after clearing pivots until its least column is
        neither a pivot nor a zero entry; empty iff row lies in the span."""
        row = dict(row)
        while row:
            p = min(row)
            if p in self.rows:
                _subtract(row, row[p], self.rows[p])
            elif row[p]:
                return row
            else:
                del row[p]
        return row

    def insert(self, row: dict) -> bool:
        """Reduce and insert; returns True if the row enlarged the span."""
        res = self.reduce(row)
        if not res:
            return False
        p = min(res)
        inv = Fraction(1) / res[p]
        res = {c: v * inv for c, v in res.items() if v}
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


def sparse_solve(equations: list, rhs: list, ncols: int) -> tuple:
    """One solution x of the sparse system equations[i] . x = rhs[i] over
    unknowns 0..ncols-1, and the dimension of its solution space.

    The right-hand side sits in the augmented column ``ncols``; the system is
    inconsistent exactly when that column becomes a pivot, and the solution
    is then None.  Free unknowns are 0 in the solution, which is checked
    against every equation."""
    ech = SparseEchelon()
    for eq, b in zip(equations, rhs):
        ech.insert({**eq, ncols: b} if b else eq)
    null_dim = ncols - sum(1 for p in ech.rows if p < ncols)
    if ncols in ech.rows:
        return None, null_dim
    sol = [Fraction(0)] * ncols
    for p, row in ech.rows.items():
        sol[p] = row.get(ncols, Fraction(0))
    for eq, b in zip(equations, rhs):
        if sum(c * sol[col] for col, c in eq.items()) != b:
            raise AssertionError("solution violates an equation")
    return sol, null_dim
