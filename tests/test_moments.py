import pytest

from gasymp.moments import (WeightMatrix, cox_torus_data, ga_moment, moment_triple,
                            sl2_moment_w, torus_moment, verify_equivariance,
                            verify_lifting_identity, verify_moment_projection,
                            verify_sl2_invariance_of_f)
from gasymp.poly import Derivation, format_poly
from gasymp.properties import _all_reps_up_to_dim
from gasymp.report import RunConfig, analyze
from gasymp.reps import GaRep, parse_rep, sl2_infinitesimal


def test_moment_triple_displays():
    t1 = moment_triple(parse_rep("sym1"))
    assert format_poly(t1.phi_h) == "x1*a1 - x2*a2"
    assert format_poly(t1.phi_e) == "x2*a1"
    assert format_poly(t1.phi_f) == "x1*a2"
    t2 = moment_triple(parse_rep("sym2"))
    assert format_poly(t2.phi_h) == "2*x1*a1 - 2*x3*a3"
    assert format_poly(t2.phi_e) == "2*x2*a1 + x3*a2"
    assert format_poly(t2.phi_f) == "x1*a2 + 2*x2*a3"
    t0 = moment_triple(GaRep((0,)))
    assert t0.phi_h.is_zero() and t0.phi_e.is_zero() and t0.phi_f.is_zero()


def _summand_formula_triple(rep: GaRep) -> tuple:
    """Closed-form oracle: per summand of weight k (0-based i),
    Phi_H = sum (k-2i) x_i a_i, Phi_E = sum_(i>=1) (k+1-i) x_i a_(i-1),
    Phi_F = sum_(i>=1) i x_(i-1) a_i."""
    table = rep.table_tv()
    h = e = f = table.zero()
    for j, k in enumerate(rep.summands):
        xs = [table.var(rep.x_name(j + 1, i + 1)) for i in range(k + 1)]
        als = [table.var(rep.a_name(j + 1, i + 1)) for i in range(k + 1)]
        for i in range(k + 1):
            h = h + (k - 2 * i) * xs[i] * als[i]
        for i in range(1, k + 1):
            e = e + (k + 1 - i) * xs[i] * als[i - 1]
            f = f + i * xs[i - 1] * als[i]
    return h, e, f


def test_pairing_triple_matches_summand_formula():
    reps = _all_reps_up_to_dim(8) + [GaRep((1,), "cox"), GaRep((1, 1), "cox"),
                                     GaRep((1, 1, 1), "cox"), GaRep((1, 0), "cox")]
    for rep in reps:
        assert moment_triple(rep).components() == _summand_formula_triple(rep), rep


def test_one_triple_per_analysis():
    moment_triple.cache_clear()
    analyze(RunConfig("sym2", level=0))
    assert moment_triple.cache_info().misses == 1


def test_triple_additivity():
    rep = parse_rep("sym2+sym1")
    table = rep.table_tv()
    total = moment_triple(rep)
    # summandwise construction agrees with the direct sum
    partial = {"H": table.zero(), "E": table.zero(), "F": table.zero()}
    for j, k in enumerate(rep.summands):
        single = GaRep((k,))
        sub = single.table_tv()
        sub_triple = moment_triple(single)
        renaming = {single.x_name(1, i + 1): rep.x_name(j + 1, i + 1) for i in range(k + 1)}
        renaming.update({single.a_name(1, i + 1): rep.a_name(j + 1, i + 1) for i in range(k + 1)})
        for key, p in zip("HEF", sub_triple.components()):
            from gasymp.poly import Polynomial

            terms = {}
            for m, c in p.terms.items():
                e = [0] * len(table.names)
                for i, ei in enumerate(m):
                    if ei:
                        e[table.index(renaming[sub.names[i]])] = ei
                terms[tuple(e)] = c
            partial[key] = partial[key] + Polynomial(table, terms)
    assert partial["H"] == total.phi_h
    assert partial["E"] == total.phi_e
    assert partial["F"] == total.phi_f


def test_ga_moment_is_phi_e():
    for spec in ("sym1", "sym2", "sym3+sym1"):
        rep = parse_rep(spec)
        assert ga_moment(rep) == moment_triple(rep).phi_e


def test_ga_moment_invariant_under_its_flow():
    for spec in ("sym1", "sym2", "sym1^2", "sym3"):
        rep = parse_rep(spec)
        e = sl2_infinitesimal(rep, "E")
        assert e(ga_moment(rep)).is_zero()


def test_sl2_moment_w_displays():
    comps = sl2_moment_w(parse_rep("sym1"))
    assert [format_poly(c) for c in comps] == [
        "x1*a1 - x2*a2 + u*lam - v*eta",
        "x2*a1 + v*lam",
        "x1*a2 + u*eta",
    ]
    comps2 = sl2_moment_w(parse_rep("sym2"))
    assert format_poly(comps2[0]) == "2*x1*a1 - 2*x3*a3 + u*lam - v*eta"
    # trivial summand: only the standard piece contributes
    comps0 = sl2_moment_w(GaRep((0,)))
    assert [format_poly(c) for c in comps0] == ["u*lam - v*eta", "v*lam", "u*eta"]


def test_lifting_identity():
    for spec in ("sym1", "sym2", "sym1^2"):
        assert verify_lifting_identity(parse_rep(spec)).ok
    assert verify_lifting_identity(GaRep((0,))).ok


def test_equivariance_transformation_law():
    for spec in ("sym1", "sym2", "sym3"):
        assert verify_equivariance(parse_rep(spec)).ok
    assert verify_equivariance(GaRep((0,))).ok


def test_sl2_invariance_of_combined_function():
    for spec in ("sym1", "sym2", "sym2+sym1"):
        assert verify_sl2_invariance_of_f(parse_rep(spec)).ok


def test_moment_projection_diagram():
    for spec in ("sym1", "sym2", "sym1^2"):
        assert verify_moment_projection(parse_rep(spec)).ok


def test_torus_moment_display():
    rep = GaRep((1, 1), "cox")
    weights, pairs = cox_torus_data(rep)
    cox = rep.table_tv()
    mus = torus_moment(weights, pairs, cox)
    y1, y2 = cox.var("y1"), cox.var("y2")
    x1, x2 = cox.var("x1"), cox.var("x2")
    b1, b2 = cox.var("b1"), cox.var("b2")
    a1, a2 = cox.var("a1"), cox.var("a2")
    assert mus[0] == a1 * y1 + a2 * y2
    assert mus[1] == b1 * x1 - a2 * y2
    assert mus[2] == b2 * x2 - a1 * y1
    # adding the first component turns the others into the pairwise relations
    assert mus[1] + mus[0] == b1 * x1 + a1 * y1
    assert mus[2] + mus[0] == b2 * x2 + a2 * y2


def test_torus_moment_invariance_property():
    rep = GaRep((1, 1), "cox")
    weights, pairs = cox_torus_data(rep)
    cox = rep.table_tv()
    mus = torus_moment(weights, pairs, cox)
    for row, mu in zip(weights.rows, mus):
        images = {}
        for w, (z, zeta) in zip(row, pairs):
            images[z] = w * cox.var(z)
            images[zeta] = -w * cox.var(zeta)
        d = Derivation(cox, images)
        assert d(mu).is_zero()


def test_torus_moment_trivial_weights():
    rep = parse_rep("sym1")
    std = rep.table_tv()
    zero = torus_moment(WeightMatrix(((0, 0),)), (("x1", "a1"), ("x2", "a2")), std)
    assert len(zero) == 1 and zero[0].is_zero()
    single = torus_moment(WeightMatrix(((1, 0),)), (("x1", "a1"), ("x2", "a2")), std)
    assert single[0] == std.var("x1") * std.var("a1")


def test_weight_matrix_validation():
    with pytest.raises(ValueError):
        WeightMatrix(((1, 2), (1,)))
    rep = parse_rep("sym1")
    with pytest.raises(ValueError):
        torus_moment(WeightMatrix(((1,),)), (("x1", "a1"), ("x2", "a2")), rep.table_tv())
