"""Polynomial differential forms: wedge, exterior derivative, pullback.

Forms are stored in the canonical basis of strictly increasing variable-index
tuples; antisymmetry signs are resolved at construction time, so equality is
structural equality of the stored terms.  The constructor is the one place
that canonicalizes and sums terms: every operation below hands it raw
(index tuple, coefficient) items.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .poly import (PolyMap, Polynomial, TableMismatch, VariableTable,
                   add_terms, format_poly)


def _sort_signed(idx: tuple) -> tuple:
    """(sign, sorted tuple) or (0, ()) when an index repeats."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(idx)


class DifferentialForm:
    """Homogeneous-degree polynomial differential form."""

    __slots__ = ("table", "degree", "terms")

    def __init__(self, table: VariableTable, degree: int, terms: dict | Iterable):
        """``terms`` is a dict or an iterable of (index tuple, coefficient)
        items, in any order and with repeats.  Each index is sorted with its
        sign, and the coefficients of one sorted index are summed into one
        term dict (``add_terms``); one ``Polynomial`` per nonzero sum is
        built at the end."""
        sums = {}
        for idx, coeff in (terms.items() if isinstance(terms, dict) else terms):
            if isinstance(coeff, (int, Fraction)):
                coeff = table.scalar(coeff)
            if coeff.table != table:
                raise TableMismatch("coefficient over a different table")
            if len(idx) != degree:
                raise ValueError("index tuple length differs from form degree")
            sign, canon = _sort_signed(idx)
            if sign:
                add_terms(sums.setdefault(canon, {}), coeff.terms, sign)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms",
                           {idx: Polynomial(table, s) for idx, s in sums.items() if s})

    def __setattr__(self, name, value):
        raise AttributeError("DifferentialForm is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "DifferentialForm"):
        if self.table != other.table:
            raise TableMismatch("forms over different tables")

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check(other)
        if self.degree != other.degree and self.terms and other.terms:
            raise ValueError("cannot add forms of different degree")
        deg = self.degree if self.terms or not other.terms else other.degree
        return DifferentialForm(self.table, deg, [*self.terms.items(), *other.terms.items()])

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(self.table, self.degree, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def __mul__(self, scalar) -> "DifferentialForm":
        if isinstance(scalar, (int, Fraction)):
            scalar = self.table.scalar(scalar)
        return DifferentialForm(self.table, self.degree,
                                {i: c * scalar for i, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, DifferentialForm) and self.table == other.table
                and self.terms == other.terms
                and (self.degree == other.degree or not self.terms))

    def __repr__(self):
        if not self.terms:
            return "DifferentialForm(0)"
        names = self.table.names
        bits = []
        for idx in sorted(self.terms):
            wedge_str = "^".join(f"d{names[i]}" for i in idx) or "1"
            bits.append(f"({format_poly(self.terms[idx])}) {wedge_str}")
        return "DifferentialForm(" + " + ".join(bits) + ")"


def lift_form(form: DifferentialForm, target: VariableTable) -> DifferentialForm:
    """The same form on a table that extends the form's own, matched by name."""
    src = form.table
    pos = [target.index(n) for n in src.names]
    return DifferentialForm(target, form.degree,
                            {tuple(pos[i] for i in idx): src.lift(c, target)
                             for idx, c in form.terms.items()})


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """a ^ b; only index pairs that do not overlap are multiplied."""
    if a.table != b.table:
        raise TableMismatch("wedge across tables")
    return DifferentialForm(a.table, a.degree + b.degree,
                            [(ia + ib, ca * cb) for ia, ca in a.terms.items()
                             for ib, cb in b.terms.items() if set(ia).isdisjoint(ib)])


def _differential(p: Polynomial, skip: set) -> list:
    """The items ((i,), dp/dx_i) of the one-form dp, over the positions i not
    in ``skip`` that some monomial of p contains, ascending: exactly the
    nonzero partials, as no two terms of a partial meet."""
    support = {i for m in p.terms for i, e in enumerate(m) if e}
    return [((i,), p.partial(i)) for i in sorted(support - skip)]


def exterior_derivative(form: DifferentialForm, params: frozenset | set = frozenset()) -> DifferentialForm:
    """d(form); variables named in ``params`` are treated as constants."""
    skip = {form.table.index(n) for n in params}
    return DifferentialForm(form.table, form.degree + 1,
                            [(i + idx, dc) for idx, coeff in form.terms.items()
                             for i, dc in _differential(coeff, skip)])


def liouville(table: VariableTable) -> DifferentialForm:
    """Sum of dx_l ^ dalpha_l over the positional base/fiber pairs."""
    return DifferentialForm(table, 2, {pair: 1 for pair in table.cotangent_pairs()})


def pullback(form: DifferentialForm, pmap: PolyMap,
             params: frozenset | set = frozenset()) -> DifferentialForm:
    """Pullback of a form on the target of ``pmap`` to its source.

    ``params`` names source variables treated as constants (family
    parameters), so their differentials are suppressed.  Each term
    f dy_i ^ ... is pulled back as (f o pmap) d(pmap_i) ^ ..., one wedge per
    index, and the pieces of all terms are summed by one constructor call.
    """
    if form.table != pmap.target:
        raise TableMismatch("form does not live on the target of the map")
    src = pmap.source
    skip = {src.index(n) for n in params}
    one_forms = {}
    pieces = []
    for idx, coeff in form.terms.items():
        piece = DifferentialForm(src, 0, {(): pmap.pull(coeff)})
        for i in idx:
            if i not in one_forms:
                one_forms[i] = DifferentialForm(src, 1, _differential(pmap.components[i], skip))
            piece = wedge(piece, one_forms[i])
        pieces.extend(piece.terms.items())
    return DifferentialForm(src, form.degree, pieces)
