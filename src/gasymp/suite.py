"""The built-in reproduction suite: every published identity the toolkit
certifies, as numbered criteria with machine-readable pass/fail results."""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from . import properties
from .comparison import (build_embedding, induced_quotient_map_sym2,
                         induced_quotient_maps_sym1, naive_embedding,
                         sym1_enveloping_invariants, verify_boundary_unit,
                         verify_embedding_into_zero_level,
                         verify_equivariance_of_embedding, verify_family_scaling,
                         verify_liouville_pullback, verify_stabiliser_column)
from .groebner import GroebnerCaps, Ideal
from .invariants import (QuotientRing, algebra_equal_up_to_degree, essen_derksen,
                         nullcone_equals_fixed, restriction_misses, section_sigma,
                         standard_sym1_invariants, verify_generators)
from .levelsets import (Hypersurface, check_moment_vanishes_on_unstable, classify,
                        stable_complement_codim, unstable_locus)
from .moments import (cox_torus_data, ga_moment, moment_triple, torus_moment,
                      verify_equivariance, verify_lifting_identity, verify_moment_projection,
                      verify_sl2_invariance_of_f)
from .poly import format_poly
from .reps import GaRep, ga_derivation, parse_rep, sl2_infinitesimal
from .comparison import sym2_levelset_invariants


@dataclass
class CriterionResult:
    cid: str
    title: str
    passed: bool
    details: tuple
    elapsed: float


CAPS = GroebnerCaps()
CHAIN_CAPS = GroebnerCaps(max_degree=40, max_pairs=20_000, max_basis=400)


class Failure(Exception):
    pass


def _expect(condition: bool, message: str, details: list):
    if condition:
        details.append("ok: " + message)
    else:
        details.append("FAIL: " + message)
        raise Failure(message)


# the reps of the moment-map certificates (criterion 1) and the sections (9)
_MOMENT_REPS = ("sym1", "sym2", "sym3", "sym1^2")


def crit_moment_tables(details: list):
    triple1 = moment_triple(parse_rep("sym1"))
    _expect(format_poly(triple1.phi_h) == "x1*a1 - x2*a2", "weight-1 Phi_H display", details)
    _expect(format_poly(triple1.phi_e) == "x2*a1", "weight-1 Phi_E display", details)
    _expect(format_poly(triple1.phi_f) == "x1*a2", "weight-1 Phi_F display", details)
    triple2 = moment_triple(parse_rep("sym2"))
    _expect(format_poly(triple2.phi_h) == "2*x1*a1 - 2*x3*a3", "weight-2 Phi_H display", details)
    _expect(format_poly(triple2.phi_e) == "2*x2*a1 + x3*a2", "weight-2 Phi_E display", details)
    _expect(format_poly(triple2.phi_f) == "x1*a2 + 2*x2*a3", "weight-2 Phi_F display", details)
    for spec in _MOMENT_REPS:
        rep = parse_rep(spec)
        _expect(bool(verify_lifting_identity(rep)),
                f"{spec}: each Phi_A lifts its sl2 vector field", details)
        _expect(bool(verify_equivariance(rep)),
                f"{spec}: moment triple transformation law under the lifted action", details)
        _expect(bool(verify_moment_projection(rep)),
                f"{spec}: the T*W moment's E component projects to the moment map", details)


def crit_enveloping_invariants_sym1(details: list):
    from .moments import sl2_moment_w

    rep = parse_rep("sym1")
    table = rep.table_tw()
    ideal = Ideal(table, list(sl2_moment_w(rep)))
    hs = sym1_enveloping_invariants(rep)
    for basis in "HEF":
        d = sl2_infinitesimal(rep, basis, include_w=True)
        for i, h in enumerate(hs, start=1):
            _expect(ideal.member(d(h), caps=CAPS),
                    f"h{i} killed by the {basis} derivation on the zero level", details)
    rel = hs[0] * hs[3] - hs[1] * hs[4] + hs[2] * hs[5]
    _expect(ideal.normal_form(rel, caps=CAPS).is_zero(),
            "quadric relation h1*h4 - h2*h5 + h3*h6 reduces to zero", details)


def crit_sym2_generator_table(details: list):
    rep = parse_rep("sym2")
    ring = QuotientRing.level_set(rep, 0, CHAIN_CAPS)
    report = essen_derksen(ring, certify_degree=6)
    _expect(report.termination == "Terminated", "intersection chain terminates", details)
    fs = sym2_levelset_invariants(rep)
    _expect(algebra_equal_up_to_degree(ring, list(report.generators), fs, 6),
            "computed algebra equals the eight-generator table through degree 6", details)
    verdict, certified = verify_generators(ring, fs, 4)
    _expect(bool(verdict) and certified >= 4,
            "eight-generator table certified complete through degree 4", details)


def crit_non_finite_generation(details: list):
    rep = parse_rep("sym1")
    ring = QuotientRing.level_set(rep, 0, CHAIN_CAPS)
    table = ring.table
    x1, x2 = table.var("x1"), table.var("x2")
    a1, a2 = table.var("a1"), table.var("a2")
    for n in range(1, 11):
        fam1 = x1 ** n * a1
        fam2 = x2 * a2 ** n
        _expect(ring.is_invariant(fam1), f"x1^{n}*a1 invariant on the zero level", details)
        _expect(ring.is_invariant(fam2), f"x2*a2^{n} invariant on the zero level", details)
        _expect(restriction_misses(ring, fam1),
                f"x1^{n}*a1 does not extend to an ambient invariant", details)
        _expect(restriction_misses(ring, fam2),
                f"x2*a2^{n} does not extend to an ambient invariant", details)
    report = essen_derksen(ring, certify_degree=4)
    _expect(report.termination == "CapReached",
            "intersection chain honestly reports CapReached", details)


_GEOMETRY_MATRIX = ("sym1", "sym2", "sym3", "sym1^2", "sym1+sym0")


def crit_geometry_classification(details: list):
    for spec in _GEOMETRY_MATRIX:
        rep = parse_rep(spec)
        sym1_trivials = [k for k in rep.summands if k > 0] == [1]
        for level in (Fraction(0), Fraction(1)):
            surface = Hypersurface.at(rep, level)
            report = classify(surface, CAPS)
            _expect(report.certified,
                    f"{spec} at level {level}: criterion and certification agree", details)
            _expect(report.irreducible == (level != 0 or not sym1_trivials),
                    f"{spec} at level {level}: irreducibility", details)
            _expect(report.smooth == (level != 0),
                    f"{spec} at level {level}: smoothness", details)
            _expect(report.normal == (level != 0 or not sym1_trivials),
                    f"{spec} at level {level}: normality", details)
    sing2 = classify(Hypersurface.at(parse_rep("sym2"), 0), CAPS)
    _expect(sing2.dim_singular == 2, "weight-2 zero level has a 2-dimensional singular locus",
            details)


def crit_stability(details: list):
    expected_unstable = {
        "sym1": {"x2", "a1"},
        "sym2": {"x3", "a1"},
        "sym1^2": {"x1_2", "x2_2", "a1_1", "a2_1"},
    }
    for spec, names in expected_unstable.items():
        rep = parse_rep(spec)
        ideal, _ = unstable_locus(rep)
        got = {format_poly(g) for g in ideal.gens}
        _expect(got == names, f"{spec}: unstable ideal is ({', '.join(sorted(names))})", details)
        _expect(bool(check_moment_vanishes_on_unstable(rep, CAPS)),
                f"{spec}: moment map vanishes on the unstable locus", details)
    for spec, codim in (("sym1", 1), ("sym2", 1), ("sym3", 3), ("sym1^2", 3)):
        got = stable_complement_codim(parse_rep(spec), CAPS)
        _expect(got == codim, f"{spec}: stable-complement codimension {codim}", details)


def crit_embedding_suite(details: list):
    _expect(bool(verify_stabiliser_column(CAPS)),
            "the stabiliser of (a, 0) is upper unitriangular", details)
    for spec in ("sym1", "sym2", "sym3"):
        rep = parse_rep(spec)
        for kind in ("i", "j"):
            emb = build_embedding(rep, kind, Fraction(1))
            _expect(bool(verify_embedding_into_zero_level(rep, emb, CAPS)),
                    f"{spec}: {kind}_1 lands in the enveloping zero level"
                    " with a nonzero level obstruction", details)
            _expect(bool(verify_equivariance_of_embedding(rep, emb, CAPS)),
                    f"{spec}: {kind}_1 equivariance congruence", details)
            _expect(bool(verify_embedding_into_zero_level(
                        rep, build_embedding(rep, kind, "a"), CAPS)),
                    f"{spec}: {kind}_a lands in the enveloping zero level"
                    " for a symbolic parameter a", details)
        _expect(not verify_embedding_into_zero_level(rep, naive_embedding(rep), CAPS),
                f"{spec}: naive constant-fiber inclusion fails", details)


def crit_symplectic_identities(details: list):
    for spec in ("sym1", "sym2"):
        rep = parse_rep(spec)
        emb = build_embedding(rep, "i", Fraction(1))
        _expect(bool(verify_liouville_pullback(rep, emb, CAPS)),
                f"{spec}: canonical form pulls back along i_1 modulo the level ideal", details)
        _expect(bool(verify_family_scaling(rep)),
                f"{spec}: scaling family identities hold exactly", details)


def crit_torsor_section(details: list):
    for spec in _MOMENT_REPS:
        rep = parse_rep(spec)
        sol = section_sigma(rep)
        d = ga_derivation(rep)
        mu = ga_moment(rep)
        _expect(d(sol.sigma) == mu, f"{spec}: section image is exactly the moment map", details)
        # cleared form of "the localized section has derivation one"
        _expect(d(sol.sigma) * mu - sol.sigma * d(mu) == mu * mu,
                f"{spec}: localized section identity after clearing denominators", details)
        _expect(bool(verify_boundary_unit(rep)),
                f"{spec}: boundary substitution leaves exactly minus the level", details)
        _expect(bool(verify_sl2_invariance_of_f(rep)),
                f"{spec}: u^2 Phi_E - u v Phi_H - v^2 Phi_F is sl2-invariant", details)


def crit_blowup_suite(details: list):
    for n in (2, 3):
        rep = GaRep((1,) * n, "cox")
        weights, pairs = cox_torus_data(rep)
        cox_table = rep.table_tv()
        mus = torus_moment(weights, pairs, cox_table)
        y = [cox_table.var(f"y{i}") for i in range(1, n + 1)]
        x = [cox_table.var(f"x{i}") for i in range(1, n + 1)]
        b = [cox_table.var(f"b{i}") for i in range(1, n + 1)]
        a = [cox_table.var(f"a{i}") for i in range(1, n + 1)]
        expected = [sum((a[i] * y[i] for i in range(n)), cox_table.zero())]
        for i in range(n):
            comp = b[i] * x[i]
            for j in range(n):
                if j != i:
                    comp = comp - a[j] * y[j]
            expected.append(comp)
        for idx, (got, want) in enumerate(zip(mus, expected)):
            _expect(got == want, f"n={n}: torus moment component {idx} matches the display",
                    details)
    rep2 = parse_rep("sym1^2")
    ambient = QuotientRing.ambient_tv(rep2, CAPS)
    verdict, certified = verify_generators(ambient, standard_sym1_invariants(rep2), 4)
    _expect(bool(verdict) and certified >= 4,
            "n=2: separating invariant list certified complete through degree 4", details)
    for n in (1, 2, 3):
        rep = parse_rep(f"sym1^{n}" if n > 1 else "sym1")
        _expect(bool(nullcone_equals_fixed(rep, CAPS)),
                f"n={n}: nullcone of the invariant list equals the fixed locus", details)


def crit_induced_maps(details: list):
    _expect(bool(induced_quotient_maps_sym1(CAPS)),
            "reducible case: both component six-tuples match", details)
    _expect(bool(induced_quotient_map_sym2(CAPS)),
            "weight-2 case: all ten induced components match", details)


_PROPERTY_CASES = 1000


def crit_property_suites(details: list):
    for name, run in properties.SUITES.items():
        failures = run(_PROPERTY_CASES)
        _expect(failures == 0, f"{name}: {_PROPERTY_CASES} randomized cases, zero failures",
                details)


_ORACLE_REPS = ("sym1", "sym1+sym0", "sym1+sym0^2", "sym1^2", "sym2", "sym2+sym0", "sym3")


def crit_oracle_equivalence(details: list):
    for spec in _ORACLE_REPS:
        rep = parse_rep(spec)
        ring = QuotientRing.ambient_tv(rep, CHAIN_CAPS)
        report = essen_derksen(ring, certify_degree=4)
        _expect(report.certified_degree >= 4,
                f"{spec}: chain subalgebra contains every graded invariant through degree 4"
                f" [{report.termination}]", details)


CRITERIA = (
    ("1", "moment-map tables match the published displays", ("moments",), crit_moment_tables),
    ("2", "enveloping invariants are killed on the zero level and satisfy the quadric relation",
     ("6.1", "enveloping"), crit_enveloping_invariants_sym1),
    ("3", "weight-2 level-set invariant table recomputed and certified",
     ("6.2", "invariants"), crit_sym2_generator_table),
    ("4", "non-finite-generation evidence on the reducible zero level",
     ("non-fg",), crit_non_finite_generation),
    ("5", "level-set geometry classification certified", ("geometry",),
     crit_geometry_classification),
    ("6", "stability loci and codimension formulas certified", ("stability",), crit_stability),
    ("7", "embedding suite into the enveloping zero level", ("embedding",), crit_embedding_suite),
    ("8", "symplectic pullback and scaling identities", ("symplectic",),
     crit_symplectic_identities),
    ("9", "torsor sections and the boundary unit check", ("section",), crit_torsor_section),
    ("10", "blow-up torus suite: moments, separating invariants, nullcone", ("5", "blowup"),
     crit_blowup_suite),
    ("11", "induced quotient maps golden tests", ("6.1", "6.2", "golden"), crit_induced_maps),
    ("12", "randomized property suites", ("properties",), crit_property_suites),
    ("13", "oracle equivalence of graded kernels and the intersection chain", ("oracle",),
     crit_oracle_equivalence),
)


def list_criteria() -> list:
    return [(cid, title, tags) for cid, title, tags, _ in CRITERIA]


def _run_one(entry) -> CriterionResult:
    cid, title, _tags, fn = entry
    details: list = []
    start = time.perf_counter()
    try:
        fn(details)
        passed = True
    except Failure:
        passed = False
    except Exception as exc:  # report crashes as failures with context
        details.append(f"ERROR: {type(exc).__name__}: {exc}")
        passed = False
    return CriterionResult(cid, title, passed, tuple(details), time.perf_counter() - start)


def run_criteria(only: str | None = None) -> list:
    selected = []
    for entry in CRITERIA:
        cid, title, tags, _fn = entry
        if only is None or only == cid or only in tags or only in title:
            selected.append(entry)
    return [_run_one(entry) for entry in selected]
