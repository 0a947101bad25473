"""Exact linear algebra over the rationals on sparse rows: one fraction-free
echelon basis with an on-demand reduced form, its kernel, its linear solve
and the integer check that equations annihilate vectors."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def integral(row: dict) -> dict:
    """The row scaled to integer entries, zero entries dropped."""
    den = lcm(*(v.denominator for v in row.values()))
    if den == 1:
        return {c: n for c, v in row.items() if (n := v.numerator)}
    return {c: n * (den // v.denominator) for c, v in row.items() if (n := v.numerator)}


def primitive(row: dict) -> dict:
    """The nonzero integer row divided by the gcd of its entries, signed so
    that its entry at the least column is positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _combine(row: dict, pivot_row: dict, p: int) -> dict:
    """a*row - b*pivot_row with a, b the smallest integers that clear column p."""
    a, b = pivot_row[p], row[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = dict(row) if a == 1 else {c: a * v for c, v in row.items()}
    for c, v in pivot_row.items():
        s = out.get(c, 0) - b * v
        if s:
            out[c] = s
        else:
            del out[c]
    return out


class SparseEchelon:
    """Incrementally built echelon basis of sparse rational rows, stored
    fraction-free (Bareiss, Math. Comp. 22, 1968).

    Rows passed in are dicts column -> Fraction (or int); their zero entries
    are dropped.  Stored rows are keyed by pivot column in insertion order.
    Invariant: every stored row has integer entries with gcd 1, a positive
    entry at its pivot, and its pivot at its least column.  ``insert`` and
    ``contains`` only reduce forward.  After ``reduced()`` every row is also
    zero at every other pivot column, which makes the basis the unique
    primitive reduced echelon basis of the span whatever the insertion order;
    dividing each row by its pivot entry gives the reduced row echelon form.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> primitive integer row (dict)

    def __len__(self) -> int:
        return len(self.rows)

    def _reduce(self, row: dict) -> dict:
        """Integer residual of row after clearing pivots until its least
        column is not a pivot; empty iff row lies in the span.  An integer
        row without zeros is not copied: the residual may be ``row`` itself."""
        if not all(type(v) is int and v for v in row.values()):
            row = integral(row)
        rows = self.rows
        while row:
            p = min(row)
            pivot_row = rows.get(p)
            if pivot_row is None:
                return row
            row = _combine(row, pivot_row, p)
        return row

    def insert(self, row: dict) -> bool:
        """Reduce and insert; returns True if the row enlarged the span."""
        res = self._reduce(row)
        if not res:
            return False
        res = primitive(res)
        self.rows[min(res)] = dict(res) if res is row else res  # never the caller's dict
        return True

    def contains(self, row: dict) -> bool:
        return not self._reduce(row)

    def reduced(self) -> dict:
        """The rows, after one backward pass (pivots in descending order)
        has cleared every other pivot column of each row.  The reduced rows
        keep the class invariant, so later ``insert`` and ``contains`` calls
        answer as before; the invariant ring's peel reads a product span's
        echelons this way, each degree once."""
        rows = self.rows
        for p in sorted(rows, reverse=True):
            row = rows[p]
            for q in [q for q in row if q != p and q in rows]:
                row = _combine(row, rows[q], q)
            rows[p] = primitive(row)
        return rows


def sparse_nullspace(equations: list, ncols: int) -> list:
    """Right kernel basis for a system of sparse equation rows over unknowns
    0..ncols-1: one sparse vector (dict) per free column c, with 1 at c, 0 at
    every other free column and -row[c]/row[p] at the pivot p of each reduced
    row, keyed c first and then the pivots in row order.  It is read in one
    pass over the reduced rows, each of which is zero at every other pivot,
    so the read-out costs their number of nonzeros.  Each vector is checked
    against every equation (``annihilates``)."""
    ech = SparseEchelon()
    for eq in equations:
        ech.insert(eq)
    rows = ech.reduced()
    vectors = {free: {free: Fraction(1)} for free in range(ncols) if free not in rows}
    for p, row in rows.items():
        pivot = row[p]
        for c, coeff in row.items():
            if c != p:
                vectors[c][p] = Fraction(-coeff, pivot)
    basis = list(vectors.values())
    if not annihilates(equations, basis):
        raise AssertionError("kernel vector violates an equation")
    return basis


def annihilates(equations: list, vectors: list) -> bool:
    """True when every equation row times every vector is zero, decided in
    integers: the equations and each vector are scaled to integer entries
    first, which does not change a zero product."""
    columns: dict = {}  # column -> [(equation, entry)]
    for i, eq in enumerate(equations):
        for col, c in integral(eq).items():
            columns.setdefault(col, []).append((i, c))
    for v in vectors:
        image: dict = {}
        for col, x in integral(v).items():
            for i, c in columns.get(col, ()):
                image[i] = image.get(i, 0) + c * x
        if any(image.values()):
            return False
    return True


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
    for p, row in ech.reduced().items():
        sol[p] = Fraction(row.get(ncols, 0), row[p])
    for eq, b in zip(equations, rhs):
        if sum(c * sol[col] for col, c in eq.items()) != b:
            raise AssertionError("solution violates an equation")
    return sol, null_dim
