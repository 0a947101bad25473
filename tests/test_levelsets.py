from fractions import Fraction

import pytest

from gasymp.groebner import Ideal
from gasymp.invariants import standard_sym1_invariants
from gasymp.levelsets import (GENERIC, Hypersurface, _certify_fixed_locus,
                              check_moment_vanishes_on_unstable, classify, components,
                              diagonal_torus_weights, fixed_locus, stable_complement_codim,
                              unstable_locus)
from gasymp.moments import ga_moment
from gasymp.poly import format_poly
from gasymp.reps import GaRep, parse_rep


def test_trivial_rep_is_degenerate():
    with pytest.raises(ValueError):
        Hypersurface.at(GaRep((0, 0)), 0)


CLASSIFICATION = [
    # spec, level, irreducible, smooth, normal
    ("sym1", 0, False, False, False),
    ("sym1", 1, True, True, True),
    ("sym2", 0, True, False, True),
    ("sym2", 1, True, True, True),
    ("sym3", 0, True, False, True),
    ("sym3", 1, True, True, True),
    ("sym1^2", 0, True, False, True),
    ("sym1^2", 1, True, True, True),
    ("sym1+sym0", 0, False, False, False),
    ("sym1+sym0", 1, True, True, True),
]


@pytest.mark.parametrize("spec,level,irr,smooth,normal", CLASSIFICATION)
def test_classification_matrix(spec, level, irr, smooth, normal):
    report = classify(Hypersurface.at(parse_rep(spec), level))
    assert report.certified, report.notes
    assert report.irreducible == irr
    assert report.smooth == smooth
    assert report.normal == normal
    if level == 0:
        # the zero level always has dimension one less than the ambient space
        rep = parse_rep(spec)
        assert report.dim_hypersurface == 2 * rep.dim - 1
        assert report.dim_hypersurface - report.dim_singular == 2 * sum(rep.summands) - 1
    else:
        assert report.dim_singular == -1


def test_generic_level_proves_all_nonzero_levels_at_once():
    report = classify(Hypersurface.at(parse_rep("sym2"), GENERIC))
    assert report.certified
    assert report.smooth and report.irreducible and report.normal
    assert report.dim_singular == -1
    assert report.dim_hypersurface == 5


def test_sym2_singular_dimension():
    report = classify(Hypersurface.at(parse_rep("sym2"), 0))
    assert report.dim_singular == 2


def test_fixed_locus():
    assert {format_poly(g) for g in fixed_locus(parse_rep("sym1")).gens} == {"x2", "a1"}
    assert {format_poly(g) for g in fixed_locus(parse_rep("sym2")).gens} == {
        "x2", "x3", "a1", "a2"}
    assert fixed_locus(GaRep((0,))).gens == ()


@pytest.mark.parametrize("spec", ["sym1", "sym2", "sym1^2", "sym2+sym0"])
def test_fixed_locus_certificate_rejects_a_changed_ideal(spec):
    rep = parse_rep(spec)
    fixed = fixed_locus(rep)
    table = fixed.table
    assert _certify_fixed_locus(rep, fixed).ok
    # a dropped generator leaves some image D(v) outside the ideal
    for i in range(len(fixed.gens)):
        dropped = Ideal(table, fixed.gens[:i] + fixed.gens[i + 1:])
        assert not _certify_fixed_locus(rep, dropped).ok, (spec, i)
    # an unmoved coordinate is not in the ideal of the images
    extra = [table.var(n) for n in table.names if table.var(n) not in fixed.gens]
    assert extra
    for x in extra:
        assert not _certify_fixed_locus(rep, Ideal(table, fixed.gens + (x,))).ok, (spec, x)


def test_singular_locus_is_fixed_locus_at_zero():
    for spec in ("sym1", "sym2", "sym1^2"):
        rep = parse_rep(spec)
        report = classify(Hypersurface.at(rep, 0))
        fixed = report.fixed_locus
        sing = report.singular_locus
        for g in fixed.gens:
            assert sing.member(g)
        for g in sing.gens:
            assert fixed.member(g)


def test_membership_decides_the_loci_exactly():
    """Why ``classify`` and ``nullcone_equals_fixed`` compare loci by ideal
    membership alone: mu is a quadratic form, so mu lies in the ideal of its
    partials (Euler).  At level 0 the singular ideal is then that linear
    ideal and equals the fixed ideal, with equal reduced GREVLEX bases; at
    the generic level xi = mu - (mu - xi) lies in the singular ideal.  For
    sym1^n each fixed generator is one of the nullcone ideal's generators."""
    for spec in ("sym1", "sym2", "sym3", "sym1^2", "sym1+sym0", "sym2+sym0"):
        rep = parse_rep(spec)
        table = rep.table_tv()
        mu = ga_moment(rep)
        partials = Ideal(table, [mu.partial(i) for i in range(len(table.names))])
        assert partials.member(mu), spec
        zero = classify(Hypersurface.at(rep, 0))
        assert zero.singular_locus.groebner() == zero.fixed_locus.groebner(), spec
        generic = classify(Hypersurface.at(rep, GENERIC))
        assert generic.singular_locus.member(generic.singular_locus.table.var("xi")), spec
    for n in (1, 2, 3):
        rep = parse_rep(f"sym1^{n}")
        nullcone = standard_sym1_invariants(rep)
        assert all(g in nullcone for g in fixed_locus(rep).gens), n


def test_diagonal_torus_weights():
    w = diagonal_torus_weights(parse_rep("sym2"))
    assert w["x1"] == 2 and w["x2"] == 0 and w["x3"] == -2
    assert w["a1"] == -2 and w["a2"] == 0 and w["a3"] == 2


def test_unstable_locus():
    assert {format_poly(g) for g in unstable_locus(parse_rep("sym1"))[0].gens} == {"x2", "a1"}
    assert {format_poly(g) for g in unstable_locus(parse_rep("sym2"))[0].gens} == {"x3", "a1"}
    assert {format_poly(g) for g in unstable_locus(parse_rep("sym1^2"))[0].gens} == {
        "x1_2", "x2_2", "a1_1", "a2_1"}


def test_unstable_contains_fixed():
    for spec in ("sym1", "sym2", "sym3", "sym1^2"):
        rep = parse_rep(spec)
        unstable, _ = unstable_locus(rep)
        fixed = fixed_locus(rep)
        ugens = {format_poly(g) for g in unstable.gens}
        fgens = {format_poly(g) for g in fixed.gens}
        assert ugens <= fgens
    assert {format_poly(g) for g in unstable_locus(parse_rep("sym2"))[0].gens} < {
        format_poly(g) for g in fixed_locus(parse_rep("sym2")).gens}


def test_moment_vanishes_on_unstable():
    for spec in ("sym1", "sym2", "sym3+sym1"):
        assert check_moment_vanishes_on_unstable(parse_rep(spec)).ok


@pytest.mark.parametrize("spec,codim", [("sym1", 1), ("sym2", 1), ("sym3", 3), ("sym1^2", 3)])
def test_stable_complement_codim(spec, codim):
    assert stable_complement_codim(parse_rep(spec)) == codim


def test_components_reducible_case():
    surface = Hypersurface.at(parse_rep("sym1"), 0)
    comps = components(surface)
    gens = {format_poly(ideal.gens[0]) for ideal, _ in comps}
    assert gens == {"x2", "a1"}
    for ideal, deriv in comps:
        for g in ideal.gens:
            assert ideal.member(deriv(g))


def test_components_with_trivial_summand():
    surface = Hypersurface.at(parse_rep("sym1+sym0"), 0)
    comps = components(surface)
    assert len(comps) == 2


def test_components_refuse_irreducible():
    with pytest.raises(ValueError):
        components(Hypersurface.at(parse_rep("sym2"), 0))
    with pytest.raises(ValueError):
        components(Hypersurface.at(parse_rep("sym1"), 1))


def test_hypersurface_ideal_is_principal_quadric():
    rep = parse_rep("sym2")
    surface = Hypersurface.at(rep, Fraction(7, 3))
    assert len(surface.ideal.gens) == 1
    gen = surface.generator
    assert gen.degree() == 2
    assert gen == ga_moment(rep) - surface.table.scalar(Fraction(7, 3))
