"""Moment maps for cotangent lifts and the identities that certify them.

All verifications here are exact polynomial identities: group parameters,
level values, and tangent directions are adjoined as auxiliary variables, so
a single check proves the identity for every parameter value at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .poly import Derivation, Polynomial, VariableTable, format_poly
from .reps import GaRep, cotangent_lift, sl2_infinitesimal


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exact identity check; residuals witness any failure."""

    ok: bool
    residuals: tuple = ()
    notes: tuple = ()

    @classmethod
    def of(cls, polys) -> "Verdict":
        """The verdict of identities that each state a polynomial is zero: ok
        iff every one is, and the nonzero ones are the residuals."""
        residuals = tuple(p for p in polys if not p.is_zero())
        return cls(not residuals, residuals)

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "ok" + (f" ({'; '.join(self.notes)})" if self.notes else "")
        parts = [format_poly(r) if isinstance(r, Polynomial) else str(r) for r in self.residuals]
        return "FAILED: " + "; ".join(parts or self.notes)


@dataclass(frozen=True)
class MomentTriple:
    """The three components of the quadratic moment map on T*V."""

    phi_h: Polynomial
    phi_e: Polynomial
    phi_f: Polynomial

    def components(self) -> tuple:
        return (self.phi_h, self.phi_e, self.phi_f)


@functools.cache
def moment_triple(rep: GaRep) -> MomentTriple:
    """Phi_A = sum_l alpha_l * A(x_l) over the cotangent pairs of T*V, for A
    in {H, E, F}: the pairing of the fiber with the sl2 vector fields.  It is
    computed once per representation; the polynomials are immutable, so the
    cached triple is shared."""
    table = rep.table_tv()
    pairs = [(table.names[x], table.names[a]) for x, a in table.cotangent_pairs()]

    def pairing(basis: str) -> Polynomial:
        d = sl2_infinitesimal(rep, basis, table)
        return sum((table.var(a) * d.image(x) for x, a in pairs), table.zero())

    return MomentTriple(*(pairing(basis) for basis in "HEF"))


def ga_moment(rep: GaRep) -> Polynomial:
    """Moment map of the additive action: the E component of the triple."""
    return moment_triple(rep).phi_e


def sl2_moment_w(rep: GaRep) -> tuple:
    """The three defining equations of the zero level on T*W:
    (Phi_H + u lam - v eta, Phi_E + v lam, Phi_F + u eta)."""
    tv, table = rep.table_tv(), rep.table_tw()
    h, e, f = (tv.lift(phi, table) for phi in moment_triple(rep).components())
    u, v = table.var("u"), table.var("v")
    lam, eta = table.var("lam"), table.var("eta")
    return (h + u * lam - v * eta, e + v * lam, f + u * eta)


@dataclass(frozen=True)
class WeightMatrix:
    """Integer torus weights: one row per torus factor, one column per paired
    base coordinate."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged weight matrix")
        object.__setattr__(self, "rows", rows)

    @property
    def coordinates(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def torus_moment(weights: WeightMatrix, pairs: Sequence, table: VariableTable) -> tuple:
    """One polynomial per torus factor: sum_j w[i][j] * z_j * zeta_j over the
    given (base, fiber) coordinate name pairs."""
    pairs = tuple(pairs)
    if weights.rows and weights.coordinates != len(pairs):
        raise ValueError("weight columns must match the number of coordinate pairs")
    out = []
    for row in weights.rows:
        comp = table.zero()
        for w, (z, zeta) in zip(row, pairs):
            if w:
                comp = comp + w * table.var(z) * table.var(zeta)
        out.append(comp)
    return tuple(out)


def cox_torus_data(rep: GaRep) -> tuple:
    """Weight matrix and coordinate pairing for the blow-up torus action on a
    sym1^n representation, in the rep's naming: Cox-style (y_i, x_i, b_i, a_i)
    for ``GaRep((1,) * n, "cox")``.

    Factor 0 scales every y_i; factor i scales x_i and the other y_j inversely.
    The pairing matches the torus-moment display: y_i with a_i, x_i with b_i.
    """
    if any(k != 1 for k in rep.summands):
        raise ValueError("cox torus data applies to sym1^n representations")
    n = rep.multiplicity
    rows = []
    row0 = []
    for i in range(1, n + 1):
        row0.extend([1, 0])  # weight on (y_i, x_i)
    rows.append(row0)
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            row.extend([0 if j == i else -1, 1 if j == i else 0])
        rows.append(row)
    pairs = []
    for i in range(1, n + 1):
        pairs.append((rep.x_name(i, 1), rep.a_name(i, 2)))
        pairs.append((rep.x_name(i, 2), rep.a_name(i, 1)))
    return WeightMatrix(tuple(rows)), tuple(pairs)


# ---------------------------------------------------------------------------
# identity checks


def verify_lifting_identity(rep: GaRep) -> Verdict:
    """omega_p(A_p, p') = d_p Phi_A (p') for A in {H, E, F}, exactly in the
    point coordinates and a fresh tangent copy of them.  Phi_A pairs the
    fiber with A on the base block, so this holds only if A acts on the
    fiber block as the negated transpose."""
    table = rep.table_tv()
    primed = [f"{n}@t" for n in table.names]
    ext = table.extend(primed)
    triple = moment_triple(rep)
    pairs = table.cotangent_pairs()
    differences = []
    for basis, phi in zip("HEF", triple.components()):
        d = sl2_infinitesimal(rep, basis, table)
        # omega(Av, w) with Av the infinitesimal vector field, w the primed copy
        lhs = ext.zero()
        for xi, ai in pairs:
            ax = table.lift(d.images.get(xi, table.zero()), ext)
            aa = table.lift(d.images.get(ai, table.zero()), ext)
            lhs = lhs + ax * ext.var(primed[ai]) - ext.var(primed[xi]) * aa
        rhs = ext.zero()
        for i, name in enumerate(table.names):
            rhs = rhs + table.lift(phi.partial(i), ext) * ext.var(primed[i])
        differences.append(lhs - rhs)
    return Verdict.of(differences)


def verify_equivariance(rep: GaRep) -> Verdict:
    """Transformation law of the triple under the lifted action, with the
    group parameter symbolic:

        Phi_H o lift(c) = Phi_H + 2 c Phi_E
        Phi_F o lift(c) = Phi_F - c Phi_H - c^2 Phi_E
        Phi_E o lift(c) = Phi_E
    """
    table = rep.table_tv()
    lift = cotangent_lift(rep)
    src = lift.source
    c = src.var("c")
    triple = moment_triple(rep)
    h = table.lift(triple.phi_h, src)
    e = table.lift(triple.phi_e, src)
    f = table.lift(triple.phi_f, src)
    return Verdict.of(lift.pull(phi) - expected for phi, expected in (
        (triple.phi_h, h + 2 * c * e),
        (triple.phi_f, f - c * h - c * c * e),
        (triple.phi_e, e),
    ))


def sl2_invariant_of_ga_moment(rep: GaRep) -> Polynomial:
    """u^2 Phi_E - u v Phi_H - v^2 Phi_F on T*V extended by plain (u, v)."""
    table = rep.table_tv()
    ext = table.extend(["u", "v"])
    triple = moment_triple(rep)
    u, v = ext.var("u"), ext.var("v")
    return (u * u * table.lift(triple.phi_e, ext)
            - u * v * table.lift(triple.phi_h, ext)
            - v * v * table.lift(triple.phi_f, ext))


def verify_sl2_invariance_of_f(rep: GaRep) -> Verdict:
    """The combination above is killed by all three sl2 derivations extended
    to act on (u, v) as the standard 2-dimensional piece."""
    table = rep.table_tv()
    ext = table.extend(["u", "v"])
    f = sl2_invariant_of_ga_moment(rep)
    u, v = ext.var("u"), ext.var("v")
    extra = {
        "H": {"u": u, "v": -v},
        "E": {"u": v, "v": ext.zero()},
        "F": {"u": ext.zero(), "v": u},
    }
    derivatives = []
    for basis in "HEF":
        base = sl2_infinitesimal(rep, basis, table)
        images = {name: table.lift(p, ext) for name, p in
                  ((table.names[i], img) for i, img in base.images.items())}
        images.update(extra[basis])
        derivatives.append(Derivation(ext, images)(f))
    return Verdict.of(derivatives)


def verify_moment_projection(rep: GaRep) -> Verdict:
    """Substituting (u, v, lam, eta) = (1, 0, 0, 1) into the E component of
    the T*W moment equations recovers the additive moment map on T*V."""
    tw = rep.table_tw()
    tv = rep.table_tv()
    e_comp = sl2_moment_w(rep)[1]
    subst = e_comp.substitute({"u": 1, "v": 0, "lam": 0, "eta": 1})
    return Verdict.of([tw.project(subst, tv) - ga_moment(rep)])
