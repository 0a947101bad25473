"""Embeddings of additive level sets into the enveloping zero level and the
identities relating the two symplectic pictures.

Level-set equalities are implemented as ideal congruences modulo the moment
generator.  A symbolic family parameter is adjoined as an auxiliary variable,
and the embedding it defines is stored multiplied by that parameter, so that
every component is a polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .forms import lift_form, liouville, pullback
from .groebner import DEFAULT_CAPS, GroebnerCaps, Ideal
from .levelsets import Hypersurface, components
from .moments import Verdict, ga_moment, moment_triple, sl2_moment_w
from .poly import PolyMap, VariableTable, format_poly
from .reps import GaRep, ga_derivation, sl2_infinitesimal


@dataclass(frozen=True)
class EmbeddingMap:
    """One member of the i/j family of level-set embeddings T*V -> T*W.

    For the i family the (u, v) slot is the constant (a, 0) and the dual slot
    carries (-Phi_H/a, -Phi_F/a); the j family mirrors this on (lam, eta).
    With a rational parameter the map is polynomial.  With a symbolic
    parameter a the stored components are the true ones times a (the true map
    is components / a), so a homogeneous form of degree d pulls back through
    them to a^d times its true pullback.
    """

    kind: str  # "i" | "j"
    parameter: object  # Fraction or aux variable name
    map: PolyMap

    @property
    def symbolic(self) -> bool:
        return isinstance(self.parameter, str)


def build_embedding(rep: GaRep, kind: str = "i", parameter=Fraction(1)) -> EmbeddingMap:
    if kind not in ("i", "j"):
        raise ValueError("kind must be 'i' or 'j'")
    tv = rep.table_tv()
    tw = rep.table_tw()
    triple = moment_triple(rep)
    if isinstance(parameter, str):
        source = tv.extend([parameter])
        par = source.var(parameter)
        phi_h = tv.lift(triple.phi_h, source)
        phi_f = tv.lift(triple.phi_f, source)
    else:
        parameter = Fraction(parameter)
        if parameter == 0:
            raise ValueError("embedding parameter must be nonzero")
        source = tv
        par = parameter
        phi_h = triple.phi_h
        phi_f = triple.phi_f

    # the symbolic map, par times the true one
    comps = {name: par * source.var(name) for name in tv.names}
    if kind == "i":
        fiber = (par * par, source.zero(), -phi_h, -phi_f)
    else:
        fiber = (-phi_f, phi_h, source.zero(), par * par)
    comps.update(zip(("u", "v", "lam", "eta"), fiber))
    if not isinstance(parameter, str):
        inverse = 1 / parameter
        comps = {name: c * inverse for name, c in comps.items()}

    return EmbeddingMap(kind, parameter, PolyMap(source, tw, [comps[n] for n in tw.names]))


def naive_embedding(rep: GaRep) -> EmbeddingMap:
    """The constant-fiber inclusion (x, (1,0), alpha, (0,1)); it does not land
    in the enveloping zero level (negative control)."""
    tv = rep.table_tv()
    tw = rep.table_tw()
    comps = {name: tv.var(name) for name in tv.names}
    comps["u"], comps["v"] = tv.one(), tv.zero()
    comps["lam"], comps["eta"] = tv.zero(), tv.one()
    return EmbeddingMap("naive", Fraction(1), PolyMap(tv, tw, [comps[n] for n in tw.names]))


def verify_embedding_into_zero_level(rep: GaRep, emb: EmbeddingMap,
                                     caps: GroebnerCaps = DEFAULT_CAPS) -> Verdict:
    """On the level set the three enveloping moment equations must vanish:
    their pullbacks are members of (mu).  The negative direction is certified
    too: over (mu - xi) with a fresh level variable, each residual reduces to
    a multiple of xi, nonzero overall, so only the zero level maps.

    The equations are homogeneous, so through a symbolic-parameter embedding
    each pulls back to a^deg times its true pullback, and a is a
    non-zerodivisor modulo (mu): membership is the same for both.
    """
    source = emb.map.source
    tv = rep.table_tv()
    mu = ga_moment(rep)
    ideal = Ideal(source, [tv.lift(mu, source)])
    pulled = []
    for comp in sl2_moment_w(rep):
        if not comp.is_homogeneous():
            raise AssertionError(f"enveloping equation not homogeneous: {format_poly(comp)}")
        pulled.append(emb.map.pull(comp))
    members = Verdict.of(ideal.normal_form(p, caps=caps) for p in pulled)
    if not members:
        return members

    # level obstruction: residuals over (mu - xi) are multiples of xi, that
    # is, xi divides each of their monomials
    ext = source.extend(["xi"])
    level_ideal = Ideal(ext, [tv.lift(mu, ext) - ext.var("xi")])
    xi = ext.index("xi")
    nonzero_multiple = False
    for p in pulled:
        res = level_ideal.normal_form(source.lift(p, ext), caps=caps)
        if res.is_zero():
            continue
        if not all(m[xi] for m in res.terms):
            return Verdict(False, (res,), ("obstruction residual is not a multiple of xi",))
        nonzero_multiple = True
    if not nonzero_multiple:
        return Verdict(False, (), ("no level obstruction found: map lands in every level",))
    return Verdict(True)


def verify_equivariance_of_embedding(rep: GaRep, emb: EmbeddingMap,
                                     caps: GroebnerCaps = DEFAULT_CAPS) -> Verdict:
    """lift_W(c) o emb = emb o lift_V(c) modulo (mu), certified through the
    derivations: D_V(emb_w) - emb^*(D_W w) lies in (mu) for every coordinate
    w of T*W, with D_V and D_W the E derivations on T*V and T*W.

    The check is exact.  Both sides are emb^*-derivations, so agreeing on the
    coordinates is agreeing everywhere.  D_V(mu) = 0, checked here as the
    first identity, so D_V acts on the quotient by (mu) and is locally
    nilpotent there.  Exponentials of intertwined locally nilpotent
    derivations intertwine, and the c-linear coefficient of the group
    identity is the derivation identity, so the two lifts intertwine for
    every c iff the derivations do."""
    if emb.symbolic:
        raise ValueError("equivariance check expects a rational-parameter embedding")
    d_v = ga_derivation(rep)
    d_w = sl2_infinitesimal(rep, "E", include_w=True)
    mu = ga_moment(rep)
    ideal = Ideal(rep.table_tv(), [mu])
    return Verdict.of([d_v(mu), *(
        ideal.normal_form(d_v(emb.map.component(name)) - emb.map.pull(d_w.image(name)), caps=caps)
        for name in rep.table_tw().names)])


def verify_liouville_pullback(rep: GaRep, emb: EmbeddingMap,
                              caps: GroebnerCaps = DEFAULT_CAPS) -> Verdict:
    """Pullback of the enveloping Liouville form equals the base one as a
    congruence modulo (mu): every coefficient of the difference is a member."""
    if emb.symbolic:
        raise ValueError("form pullback expects a rational-parameter embedding")
    tw = rep.table_tw()
    tv = rep.table_tv()
    omega_w = liouville(tw)
    omega_v = liouville(tv)
    pulled = pullback(omega_w, emb.map)
    diff = pulled - omega_v
    ideal = Ideal(tv, [ga_moment(rep)])
    return Verdict.of(coeff for coeff in diff.terms.values()
                      if not ideal.member(coeff, caps=caps))


def embedding_checks(rep: GaRep, emb: EmbeddingMap,
                     caps: GroebnerCaps = DEFAULT_CAPS) -> dict:
    """The three verdicts on an embedding, as booleans in report order:
    lands_in_zero_level, equivariant, liouville_pullback."""
    return {
        "lands_in_zero_level": bool(verify_embedding_into_zero_level(rep, emb, caps)),
        "equivariant": bool(verify_equivariance_of_embedding(rep, emb, caps)),
        "liouville_pullback": bool(verify_liouville_pullback(rep, emb, caps)),
    }


def scaling_map(rep: GaRep) -> PolyMap:
    """Base coordinates scaled by the parameter C, fiber fixed."""
    tv = rep.table_tv()
    src = tv.extend(["C"])
    c = src.var("C")
    comps = []
    xset = set(tv.positions("x"))
    for i, name in enumerate(tv.names):
        v = src.var(name)
        comps.append(c * v if i in xset else v)
    return PolyMap(src, tv, comps)


def verify_family_scaling(rep: GaRep) -> Verdict:
    """(a) mu o phi_C = C * mu exactly; (b) phi_C^* omega = C * omega exactly."""
    phi = scaling_map(rep)
    src = phi.source
    c = src.var("C")
    tv = rep.table_tv()
    mu = ga_moment(rep)
    res_mu = phi.pull(mu) - c * tv.lift(mu, src)
    omega = liouville(tv)
    pulled = pullback(omega, phi, params={"C"})
    lifted_omega = lift_form(omega, src)
    diff_form = pulled - (c * lifted_omega)
    return Verdict.of([res_mu, *diff_form.terms.values()])


def verify_boundary_unit(rep: GaRep) -> Verdict:
    """Substituting (u, v) = (0, 0) into u^2 Phi_E - u v Phi_H - v^2 Phi_F - xi
    leaves exactly -xi, a unit for every nonzero level."""
    from .moments import sl2_invariant_of_ga_moment

    f = sl2_invariant_of_ga_moment(rep)
    ext0 = f.table
    ext = ext0.extend(["xi"])
    xi = ext.var("xi")
    g = ext0.lift(f, ext) - xi
    sub = g.substitute({"u": 0, "v": 0})
    return Verdict.of([sub + xi])


def verify_stabiliser_column(caps: GroebnerCaps = DEFAULT_CAPS) -> Verdict:
    """A determinant-one 2x2 matrix fixing (a, 0) with invertible a is upper
    unitriangular: p = 1, r = 0, s = 1 follow from the fixing equations."""
    t = VariableTable(("p", "q", "r", "s", "a", "ai"), ("aux",) * 6)
    p, q, r, s, a, ai = (t.var(n) for n in t.names)
    ideal = Ideal(t, [p * a - a, r * a, p * s - q * r - 1, a * ai - 1])
    return Verdict.of(w for w in (p - 1, r, s - 1) if not ideal.member(w, caps=caps))


# ---------------------------------------------------------------------------
# golden comparisons for the two smallest irreducible cases


def sym1_enveloping_invariants(rep: GaRep) -> list:
    """The six generators of the enveloping invariant ring for the smallest
    irreducible case, on T*W."""
    t = rep.table_tw()
    x1, x2, u, v = t.var("x1"), t.var("x2"), t.var("u"), t.var("v")
    a1, a2, lam, eta = t.var("a1"), t.var("a2"), t.var("lam"), t.var("eta")
    return [
        x2 * u - x1 * v,
        a1 * u + a2 * v,
        x1 * a1 + x2 * a2,
        a1 * eta - a2 * lam,
        x1 * lam + x2 * eta,
        u * lam + v * eta,
    ]


def sym2_enveloping_invariants(rep: GaRep) -> list:
    """The ten generators of the enveloping invariant ring for the weight-two
    irreducible case, on T*W."""
    t = rep.table_tw()
    x1, x2, x3 = t.var("x1"), t.var("x2"), t.var("x3")
    a1, a2, a3 = t.var("a1"), t.var("a2"), t.var("a3")
    u, v, lam, eta = t.var("u"), t.var("v"), t.var("lam"), t.var("eta")
    return [
        x1 * v * v - 2 * x2 * u * v + x3 * u * u,
        x1 * x3 - x2 * x2,
        a1 * u * u + a2 * u * v + a3 * v * v,
        x1 * a1 + x2 * a2 + x3 * a3,
        4 * a1 * a3 - a2 * a2,
        u * lam + v * eta,
        a1 * eta * eta - a2 * eta * lam + a3 * lam * lam,
        x1 * lam * lam + 2 * x2 * eta * lam + x3 * eta * eta,
        x1 * v * lam - x2 * (u * lam - v * eta) - x3 * u * eta,
        2 * a1 * u * eta - a2 * (u * lam - v * eta) - 2 * a3 * lam * v,
    ]


def sym2_levelset_invariants(rep: GaRep) -> list:
    """The eight-generator table for the invariants of the zero level of the
    weight-two case, on T*V."""
    t = rep.table_tv()
    x1, x2, x3 = t.var("x1"), t.var("x2"), t.var("x3")
    a1, a2, a3 = t.var("a1"), t.var("a2"), t.var("a3")
    return [
        x3,
        x1 * x3 - x2 * x2,
        a1,
        x1 * a1 + x2 * a2 + x3 * a3,
        4 * a1 * a3 - a2 * a2,
        x1 * a1 - x3 * a3,
        4 * x3 * a3 * a3 + 2 * x2 * a2 * a3 - 4 * x1 * a1 * a3 + x1 * a2 * a2,
        2 * x3 * x1 * a3 - 2 * x2 * x2 * a3 - 2 * x1 * x1 * a1 - x1 * x2 * a2,
    ]


def induced_quotient_maps_sym1(caps: GroebnerCaps = DEFAULT_CAPS) -> Verdict:
    """Golden test: on each component of the reducible zero level of the
    smallest case, composing the embedding with the six enveloping invariants
    gives the two expected six-tuples, and the quadric relation pulls back to
    zero."""
    rep = GaRep((1,))
    tv = rep.table_tv()
    emb = build_embedding(rep, "i", Fraction(1))
    hs = sym1_enveloping_invariants(rep)
    x1, x2 = tv.var("x1"), tv.var("x2")
    a1, a2 = tv.var("a1"), tv.var("a2")
    expected = {
        "x2": [tv.zero(), a1, a1 * x1, tv.zero(), -a1 * x1 * x1, -a1 * x1],
        "a1": [x2, tv.zero(), x2 * a2, -x2 * a2 * a2, tv.zero(), x2 * a2],
    }
    surface = Hypersurface.at(rep, 0)
    residuals = []
    notes = []
    for ideal, _ in components(surface, caps):
        key = next(iter(ideal.gens))
        name = format_poly(key)
        if name not in expected:
            return Verdict(False, (key,), ("unexpected component ideal",))
        for slot, (h, want) in enumerate(zip(hs, expected[name]), start=1):
            got = ideal.normal_form(emb.map.pull(h), caps=caps)
            want_nf = ideal.normal_form(want, caps=caps)
            if got != want_nf:
                residuals.append(got - want_nf)
                notes.append(f"component ({name}), slot {slot}")
        rel = hs[0] * hs[3] - hs[1] * hs[4] + hs[2] * hs[5]
        pulled = ideal.normal_form(emb.map.pull(rel), caps=caps)
        if not pulled.is_zero():
            residuals.append(pulled)
            notes.append(f"component ({name}), relation")
    return Verdict(not residuals, tuple(residuals), tuple(notes))


def induced_quotient_map_sym2(caps: GroebnerCaps = DEFAULT_CAPS) -> Verdict:
    """Golden test: each enveloping generator composed with the embedding
    matches its expression in the eight level-set generators, as a congruence
    modulo (mu)."""
    rep = GaRep((2,))
    tv = rep.table_tv()
    emb = build_embedding(rep, "i", Fraction(1))
    hs = sym2_enveloping_invariants(rep)
    fs = sym2_levelset_invariants(rep)
    f1, f2, f3, f4, f5, f6, f7, f8 = fs
    expected = [f1, f2, f3, f4, f5, -2 * f6, -f6 * f7, -2 * f6 * f8, tv.zero(), tv.zero()]
    ideal = Ideal(tv, [ga_moment(rep)])
    residuals = []
    notes = []
    for slot, (h, want) in enumerate(zip(hs, expected), start=1):
        residual = ideal.normal_form(emb.map.pull(h) - want, caps=caps)
        if not residual.is_zero():
            residuals.append(residual)
            notes.append(f"slot {slot}")
    return Verdict(not residuals, tuple(residuals), tuple(notes))
