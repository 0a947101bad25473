"""Polynomial differential forms: wedge, exterior derivative, pullback.

Forms are stored in the canonical basis of strictly increasing variable-index
tuples; antisymmetry signs are resolved at construction time, so equality is
structural equality of the stored terms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .poly import (PolyMap, Polynomial, TableMismatch, VariableTable,
                   format_poly)


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

    def __init__(self, table: VariableTable, degree: int, terms: Mapping):
        clean = {}
        for idx, coeff in terms.items():
            if isinstance(coeff, (int, Fraction)):
                coeff = table.scalar(coeff)
            if coeff.table != table:
                raise TableMismatch("coefficient over a different table")
            if len(idx) != degree:
                raise ValueError("index tuple length differs from form degree")
            sign, canon = _sort_signed(tuple(idx))
            if sign == 0 or coeff.is_zero():
                continue
            prev = clean.get(canon, table.zero())
            total = prev + (coeff if sign > 0 else -coeff)
            if total.is_zero():
                clean.pop(canon, None)
            else:
                clean[canon] = total
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

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
        merged = dict(self.terms)
        for idx, c in other.terms.items():
            total = merged.get(idx, self.table.zero()) + c
            if total.is_zero():
                merged.pop(idx, None)
            else:
                merged[idx] = total
        return DifferentialForm(self.table, deg, merged)

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


def form_from_polynomial(p: Polynomial) -> DifferentialForm:
    return DifferentialForm(p.table, 0, {(): p})


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    if a.table != b.table:
        raise TableMismatch("wedge across tables")
    deg = a.degree + b.degree
    acc = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            sign, canon = _sort_signed(ia + ib)
            if sign == 0:
                continue
            coeff = ca * cb if sign > 0 else -(ca * cb)
            prev = acc.get(canon, a.table.zero())
            total = prev + coeff
            if total.is_zero():
                acc.pop(canon, None)
            else:
                acc[canon] = total
    return DifferentialForm(a.table, deg, acc)


def exterior_derivative(form: DifferentialForm, params: frozenset | set = frozenset()) -> DifferentialForm:
    """d(form); variables named in ``params`` are treated as constants."""
    table = form.table
    skip = {table.index(n) for n in params}
    terms = {}
    for idx, coeff in form.terms.items():
        for i in range(len(table.names)):
            if i in skip:
                continue
            dc = coeff.partial(i)
            if dc.is_zero():
                continue
            sign, canon = _sort_signed((i,) + idx)
            if sign == 0:
                continue
            add = dc if sign > 0 else -dc
            prev = terms.get(canon, table.zero())
            total = prev + add
            if total.is_zero():
                terms.pop(canon, None)
            else:
                terms[canon] = total
    return DifferentialForm(table, form.degree + 1, terms)


def liouville(table: VariableTable) -> DifferentialForm:
    """Sum of dx_l ^ dalpha_l over the positional base/fiber pairs."""
    terms = {}
    for xi, ai in table.cotangent_pairs():
        sign, canon = _sort_signed((xi, ai))
        terms[canon] = table.scalar(sign)
    return DifferentialForm(table, 2, terms)


def pullback(form: DifferentialForm, pmap: PolyMap,
             params: frozenset | set = frozenset()) -> DifferentialForm:
    """Pullback of a form on the target of ``pmap`` to its source.

    ``params`` names source variables treated as constants (family
    parameters), so their differentials are suppressed.
    """
    if form.table != pmap.target:
        raise TableMismatch("form does not live on the target of the map")
    src = pmap.source
    skip = {src.index(n) for n in params}

    one_forms = {}

    def d_component(i: int) -> DifferentialForm:
        if i not in one_forms:
            comp = pmap.components[i]
            terms = {}
            for j in range(len(src.names)):
                if j in skip:
                    continue
                dc = comp.partial(j)
                if not dc.is_zero():
                    terms[(j,)] = dc
            one_forms[i] = DifferentialForm(src, 1, terms)
        return one_forms[i]

    result = DifferentialForm(src, form.degree, {})
    for idx, coeff in form.terms.items():
        piece = form_from_polynomial(pmap.pull(coeff))
        for i in idx:
            piece = wedge(piece, d_component(i))
        result = result + piece
    return result
