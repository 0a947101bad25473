"""Level hypersurfaces of the additive moment map and their geometry.

Every classification statement is established twice: once by the closed-form
criterion (read off the summand data) and once by a certified computation
(Jacobian ideals, ideal membership, Krull dimension).  The two paths must
agree; a disagreement is reported as a failure rather than silently resolved.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .groebner import DEFAULT_CAPS, GroebnerCaps, Ideal
from .moments import Verdict, ga_moment
from .poly import Polynomial, VariableTable
from .reps import GaRep, ga_derivation

GENERIC = "generic"


@dataclass(frozen=True)
class Hypersurface:
    """A moment level set: the principal ideal (mu - xi) on T*V.

    ``level`` is an exact rational, or the string ``"generic"`` in which case
    the level is a fresh invertible auxiliary variable ``xi`` and every
    statement proved is an identity for all nonzero levels at once.
    """

    rep: GaRep
    level: object
    table: VariableTable
    ideal: Ideal

    @staticmethod
    def at(rep: GaRep, level) -> "Hypersurface":
        if rep.is_trivial:
            raise ValueError("trivial action: level sets are empty or all of T*V")
        base = rep.table_tv()
        if level == GENERIC:
            table = base.extend(["xi"])
            mu = base.lift(ga_moment(rep), table)
            gen = mu - table.var("xi")
        else:
            level = Fraction(level)
            table = base
            gen = ga_moment(rep) - table.scalar(level)
        return Hypersurface(rep, level if level == GENERIC else Fraction(level),
                            table, Ideal(table, [gen]))

    @property
    def generator(self) -> Polynomial:
        return self.ideal.gens[0]

    def is_zero_level(self) -> bool:
        return self.level != GENERIC and self.level == 0


@dataclass(frozen=True)
class GeometryReport:
    irreducible: bool
    smooth: bool
    normal: bool
    singular_locus: Ideal
    fixed_locus: Ideal
    components: tuple | None
    dim_hypersurface: int
    dim_singular: int  # -1 when empty
    certified: bool
    notes: tuple = ()


@functools.cache
def fixed_locus(rep: GaRep) -> Ideal:
    """Ideal of the fixed points of the lifted action on T*V: the linear span
    of the moved coordinate directions x_(i+1), a_i within each summand.  It
    is built and certified once per representation and process (the rep is
    frozen and the ideal immutable)."""
    table = rep.table_tv()
    gens = []
    for j, k in enumerate(rep.summands):
        for i in range(1, k + 1):
            gens.append(table.var(rep.x_name(j + 1, i + 1)))
            gens.append(table.var(rep.a_name(j + 1, i)))
    ideal = Ideal(table, gens)
    verdict = _certify_fixed_locus(rep, ideal)
    if not verdict.ok:
        raise AssertionError("fixed locus certification failed: " + verdict.describe())
    return ideal


def _certify_fixed_locus(rep: GaRep, ideal: Ideal) -> Verdict:
    """The ideal equals the linear ideal of the images D(v) of the
    coordinates under the E derivation: each image lies in the ideal, and
    each generator lies in the ideal of the images.

    The lifted action is exp(c N) with N the linear map that D is on
    coordinates, and exp(c N) p = p for all c iff N p = 0, that is, iff every
    D(v) vanishes at p.  Two-way membership makes the ideals equal, and an
    ideal of linear forms is prime, so it is the whole vanishing ideal of the
    fixed locus."""
    images = tuple(ga_derivation(rep).images.values())
    span = Ideal(ideal.table, images)
    return Verdict.of([*(ideal.normal_form(p) for p in images),
                       *(span.normal_form(g) for g in ideal.gens)])


def diagonal_torus_weights(rep: GaRep) -> dict:
    """Weight of each T*V coordinate under the diagonal torus: k-2i on the
    base chain, the negative on the dual chain."""
    table = rep.table_tv()
    weights = {}
    for j, k in enumerate(rep.summands):
        for i in range(k + 1):
            weights[rep.x_name(j + 1, i + 1)] = k - 2 * i
            weights[rep.a_name(j + 1, i + 1)] = -(k - 2 * i)
    return weights


def unstable_locus(rep: GaRep) -> tuple:
    """(ideal, weights): the complement of the completely stable set is the
    non-negative weight space, so its ideal is generated by the coordinates
    of negative diagonal-torus weight."""
    table = rep.table_tv()
    weights = diagonal_torus_weights(rep)
    gens = [table.var(n) for n in table.names if weights[n] < 0]
    return Ideal(table, gens), weights


def check_moment_vanishes_on_unstable(rep: GaRep, caps: GroebnerCaps = DEFAULT_CAPS) -> Verdict:
    ideal, _ = unstable_locus(rep)
    mu = ga_moment(rep)
    return Verdict.of([] if ideal.member(mu, caps=caps) else [mu])


def stable_complement_codim(rep: GaRep, caps: GroebnerCaps = DEFAULT_CAPS) -> int:
    """Codimension of the unstable part of the zero level inside it, computed
    two ways: the ceiling formula 2*sum(ceil(k_j/2)) - 1 and the certified
    Groebner dimension count.  Disagreement is a hard failure."""
    if rep.is_trivial:
        raise ValueError("trivial action has no stability theory")
    formula = 2 * sum((k + 1) // 2 for k in rep.summands) - 1
    surface = Hypersurface.at(rep, 0)
    unstable, _ = unstable_locus(rep)
    cut = Ideal(surface.table, unstable.gens + surface.ideal.gens)
    dim_h = surface.ideal.dimension(caps)
    dim_cut = cut.dimension(caps)
    certified = dim_h - dim_cut
    if certified != formula:
        raise AssertionError(
            f"stable-complement codimension mismatch: formula {formula}, certified {certified}")
    return formula


def _binomial_split(mu: Polynomial) -> tuple | None:
    """The only reducible shape of the moment quadric: a single term c*v*w in
    two distinct variables.  Returns their positions or None."""
    if len(mu.terms) != 1:
        return None
    (mono, _), = mu.terms.items()
    support = [i for i, e in enumerate(mono) if e]
    if len(support) == 2 and all(mono[i] == 1 for i in support):
        return tuple(support)
    return None


def components(h: Hypersurface, caps: GroebnerCaps = DEFAULT_CAPS) -> tuple:
    """The two component data sets of a reducible zero level (the binomial
    case), each carrying the restricted derivation for invariant work."""
    if not h.is_zero_level():
        raise ValueError("only the zero level can be reducible")
    split = _binomial_split(h.generator)
    if split is None:
        raise ValueError("hypersurface is irreducible; no component decomposition")
    table = h.table
    d = ga_derivation(h.rep, table)
    out = []
    for pos in split:
        ideal = Ideal(table, [table.var(table.names[pos])])
        for g in ideal.gens:
            if not ideal.member(d(g), caps=caps):
                raise AssertionError("component ideal is not derivation-stable")
        out.append((ideal, d))
    return tuple(out)


def classify(h: Hypersurface, caps: GroebnerCaps = DEFAULT_CAPS) -> GeometryReport:
    """Full geometric classification with criterion and certification paths.

    The criterion path reads irreducibility/smoothness/normality off the
    summand data; the certification path recomputes the singular locus as the
    Jacobian ideal, compares it with the fixed locus by membership both ways,
    and checks the codimension formula by Krull dimension.

    Membership is exact as mu is a quadratic form, so mu lies in the ideal
    of its partials (Euler): at level 0 both ideals are linear, hence prime,
    and at the generic level xi = mu - (mu - xi) is a member.
    """
    rep = h.rep
    if rep.is_trivial:
        raise ValueError("trivial action is a degenerate case")
    table = h.table
    base = rep.table_tv()
    zero_level = h.is_zero_level()
    nonzero = [k for k in rep.summands if k > 0]
    sym1_plus_trivials = nonzero == [1]

    # irreducibility and normality fail together, only at the reducible zero
    # level of sym1 plus trivial summands
    crit_irreducible = crit_normal = (not zero_level) or (not sym1_plus_trivials)
    crit_smooth = not zero_level

    gen = h.generator
    # partials only along the T*V coordinates; a symbolic level is a parameter
    jac = [gen.partial(table.index(n)) for n in base.names]
    singular = Ideal(table, [gen] + jac)
    # the level variable is invertible, so a generic locus is empty iff xi
    # vanishes on it
    unit = table.var("xi") if h.level == GENERIC else table.one()
    singular_empty = singular.member(unit, caps=caps)

    fixed = fixed_locus(rep)
    fixed_on_table = Ideal(table, [base.lift(g, table) for g in fixed.gens])

    notes = []
    certified = True
    cert_smooth = singular_empty
    if cert_smooth != crit_smooth:
        certified = False
        notes.append("smoothness: criterion and Jacobian computation disagree")

    dim_h = h.ideal.dimension(caps)
    if h.level == GENERIC:
        # fiber dimension over the punctured level line
        dim_h -= 1
    dim_sing = -1
    if not singular_empty:
        dim_sing = singular.dimension(caps)
        # singular locus equals the fixed locus (zero level only)
        agree = all(singular.member(g, caps=caps) for g in fixed_on_table.gens) and all(
            fixed_on_table.member(g, caps=caps) for g in singular.gens)
        if not (agree and zero_level):
            certified = False
            notes.append("singular locus does not match the fixed locus")
        expected_codim = 2 * sum(rep.summands) - 1
        if dim_h - dim_sing != expected_codim:
            certified = False
            notes.append(
                f"codimension mismatch: {dim_h - dim_sing} vs formula {expected_codim}")
        cert_normal = (dim_h - dim_sing) >= 2
    else:
        cert_normal = True
    if cert_normal != crit_normal:
        certified = False
        notes.append("normality: criterion and codimension computation disagree")

    # at the zero level the generator is mu itself
    split = _binomial_split(gen) if zero_level else None
    cert_irreducible = split is None
    comp_pair = None if cert_irreducible else tuple(
        Ideal(table, [table.var(table.names[p])]) for p in split)
    if cert_irreducible != crit_irreducible:
        certified = False
        notes.append("irreducibility: criterion and binomial split disagree")

    return GeometryReport(
        irreducible=crit_irreducible,
        smooth=crit_smooth,
        normal=crit_normal,
        singular_locus=singular,
        fixed_locus=fixed_on_table,
        components=comp_pair,
        dim_hypersurface=dim_h,
        dim_singular=dim_sing,
        certified=certified,
        notes=tuple(notes),
    )
