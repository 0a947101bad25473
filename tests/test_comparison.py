from fractions import Fraction

import pytest

from gasymp.comparison import (EmbeddingMap, build_embedding, induced_quotient_map_sym2,
                               induced_quotient_maps_sym1, naive_embedding, scaling_map,
                               sym1_enveloping_invariants, sym2_enveloping_invariants,
                               sym2_levelset_invariants, verify_boundary_unit,
                               verify_embedding_into_zero_level,
                               verify_equivariance_of_embedding, verify_family_scaling,
                               verify_liouville_pullback, verify_stabiliser_column)
from gasymp.groebner import Ideal
from gasymp.moments import ga_moment, sl2_moment_w
from gasymp.poly import PolyMap
from gasymp.reps import _exp_action, cotangent_lift, parse_rep, sl2_infinitesimal


def test_embedding_components_sym1():
    rep = parse_rep("sym1")
    emb = build_embedding(rep, "i", Fraction(1))
    t = rep.table_tv()
    x1, x2, a1, a2 = t.var("x1"), t.var("x2"), t.var("a1"), t.var("a2")
    assert emb.map.component("u") == t.one()
    assert emb.map.component("v").is_zero()
    assert emb.map.component("lam") == -(x1 * a1 - x2 * a2)
    assert emb.map.component("eta") == -x1 * a2
    # restriction to the base block is the identity
    for name in t.names:
        assert emb.map.component(name) == t.var(name)


def test_embedding_j_family():
    rep = parse_rep("sym2")
    emb = build_embedding(rep, "j", Fraction(1))
    t = rep.table_tv()
    triple_h = 2 * t.var("x1") * t.var("a1") - 2 * t.var("x3") * t.var("a3")
    triple_f = t.var("x1") * t.var("a2") + 2 * t.var("x2") * t.var("a3")
    assert emb.map.component("lam").is_zero()
    assert emb.map.component("eta") == t.one()
    assert emb.map.component("u") == -triple_f
    assert emb.map.component("v") == triple_h


@pytest.mark.parametrize("spec", ["sym1", "sym2", "sym3"])
@pytest.mark.parametrize("kind", ["i", "j"])
def test_embedding_verifications(spec, kind):
    rep = parse_rep(spec)
    emb = build_embedding(rep, kind, Fraction(1))
    assert verify_embedding_into_zero_level(rep, emb).ok
    assert verify_equivariance_of_embedding(rep, emb).ok
    assert verify_liouville_pullback(rep, emb).ok


def test_symbolic_parameter_embedding():
    rep = parse_rep("sym1")
    emb = build_embedding(rep, "i", "a")
    assert emb.symbolic
    assert verify_embedding_into_zero_level(rep, emb).ok


@pytest.mark.parametrize("spec", ["sym1", "sym2"])
@pytest.mark.parametrize("kind", ["i", "j"])
def test_symbolic_embedding_scales_quadrics(spec, kind):
    # the symbolic map is stored times a, so a quadric pulls back times a^2
    rep = parse_rep(spec)
    symbolic = build_embedding(rep, kind, "a").map
    rational = build_embedding(rep, kind, 2).map
    for eq in sl2_moment_w(rep):
        at_two = symbolic.pull(eq).substitute({"a": 2})
        assert symbolic.source.project(at_two, rational.source) == 4 * rational.pull(eq)


def test_naive_inclusion_fails():
    for spec in ("sym1", "sym2"):
        rep = parse_rep(spec)
        assert not verify_embedding_into_zero_level(rep, naive_embedding(rep)).ok


def test_sign_mutation_fails_equivariance():
    rep = parse_rep("sym1")
    emb = build_embedding(rep, "i", Fraction(1))
    comps = list(emb.map.components)
    comps[emb.map.target.index("lam")] = -comps[emb.map.target.index("lam")]
    bad = EmbeddingMap("i", Fraction(1), PolyMap(emb.map.source, emb.map.target, comps))
    assert not verify_equivariance_of_embedding(rep, bad).ok


def _group_equivariance(rep, emb) -> bool:
    """Oracle: lift_W(c) o emb = emb o lift_V(c) modulo (mu), composed over
    T*V extended by the group parameter c."""
    tv = rep.table_tv()
    lift_v = cotangent_lift(rep)
    lift_w = _exp_action(sl2_infinitesimal(rep, "E", include_w=True), rep.table_tw())
    src = lift_v.source

    def along(target, assignment):
        return PolyMap(src, target, [assignment[n] if n in assignment else src.var(n)
                                     for n in target.names])

    along_emb = along(lift_w.source, {name: tv.lift(emb.map.component(name), src)
                                      for name in rep.table_tw().names})
    along_lift = along(tv, {name: lift_v.component(name) for name in tv.names})
    ideal = Ideal(src, [tv.lift(ga_moment(rep), src)])
    return all(ideal.member(along_emb.pull(w) - along_lift.pull(e))
               for w, e in zip(lift_w.components, emb.map.components))


@pytest.mark.parametrize("spec", ["sym1", "sym2", "sym3", "sym1^2", "sym1+sym0", "sym2+sym0",
                                  "sym2+sym1"])
@pytest.mark.parametrize("kind", ["i", "j"])
@pytest.mark.parametrize("parameter", [Fraction(1), Fraction(-3, 2)])
def test_derivation_equivariance_matches_group_oracle(spec, kind, parameter):
    rep = parse_rep(spec)
    emb = build_embedding(rep, kind, parameter)
    assert verify_equivariance_of_embedding(rep, emb).ok
    assert _group_equivariance(rep, emb)
    # a sign flip of each T*W slot: both verdicts agree, and some flips fail
    failed = 0
    for slot, name in enumerate(emb.map.target.names):
        comps = list(emb.map.components)
        comps[slot] = -comps[slot]
        bad = EmbeddingMap(kind, parameter, PolyMap(emb.map.source, emb.map.target, comps))
        verdict = verify_equivariance_of_embedding(rep, bad).ok
        assert verdict == _group_equivariance(rep, bad), name
        failed += not verdict
    assert failed


def test_projection_back_is_identity():
    rep = parse_rep("sym2")
    emb = build_embedding(rep, "i", Fraction(1))
    tv = rep.table_tv()
    for name in tv.names:
        assert emb.map.component(name) == tv.var(name)


def test_scaling_family():
    for spec in ("sym1", "sym2"):
        rep = parse_rep(spec)
        assert verify_family_scaling(rep).ok
        phi = scaling_map(rep)
        mu = ga_moment(rep)
        src = phi.source
        assert phi.pull(mu) == src.var("C") * rep.table_tv().lift(mu, src)
    # at C = 1 the map is the identity
    rep = parse_rep("sym1")
    phi = scaling_map(rep)
    for name in rep.table_tv().names:
        assert phi.component(name).substitute({"C": 1}) == phi.source.var(name)


def test_boundary_unit_check():
    for spec in ("sym1", "sym2", "sym1^2"):
        assert verify_boundary_unit(parse_rep(spec)).ok


def test_stabiliser_column_fact():
    assert verify_stabiliser_column().ok


def test_enveloping_invariants_killed_on_zero_level():
    rep = parse_rep("sym1")
    table = rep.table_tw()
    ideal = Ideal(table, list(sl2_moment_w(rep)))
    for basis in "HEF":
        d = sl2_infinitesimal(rep, basis, include_w=True)
        for h in sym1_enveloping_invariants(rep):
            assert ideal.member(d(h))
    rep2 = parse_rep("sym2")
    table2 = rep2.table_tw()
    ideal2 = Ideal(table2, list(sl2_moment_w(rep2)))
    for basis in "HEF":
        d = sl2_infinitesimal(rep2, basis, include_w=True)
        for h in sym2_enveloping_invariants(rep2):
            assert ideal2.member(d(h))


def test_quadric_relation():
    rep = parse_rep("sym1")
    hs = sym1_enveloping_invariants(rep)
    rel = hs[0] * hs[3] - hs[1] * hs[4] + hs[2] * hs[5]
    table = rep.table_tw()
    ideal = Ideal(table, list(sl2_moment_w(rep)))
    assert ideal.normal_form(rel).is_zero()


def test_levelset_invariants_killed_modulo_moment():
    rep = parse_rep("sym2")
    table = rep.table_tv()
    ideal = Ideal(table, [ga_moment(rep)])
    d = sl2_infinitesimal(rep, "E")
    for f in sym2_levelset_invariants(rep):
        assert ideal.member(d(f))


def test_golden_induced_maps():
    assert induced_quotient_maps_sym1().ok
    assert induced_quotient_map_sym2().ok


def test_zero_level_obstruction_is_multiple_of_level():
    # the verification itself asserts the residual over (mu - xi) is a
    # nonzero multiple of xi; a map into every level would fail it
    rep = parse_rep("sym1")
    emb = build_embedding(rep, "i", Fraction(1))
    verdict = verify_embedding_into_zero_level(rep, emb)
    assert verdict.ok and not verdict.residuals
