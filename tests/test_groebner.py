import random
from fractions import Fraction

import pytest

import gasymp.groebner as groebner_mod
from gasymp.comparison import sym1_enveloping_invariants
from gasymp.groebner import GroebnerCaps, Ideal, NotCompleted, exact_divide, reduce_full
from gasymp.moments import sl2_moment_w
from gasymp.poly import BLOCK_X, GREVLEX, LEX, BlockElim, Polynomial, VariableTable, format_poly
from gasymp.properties import _random_poly, groebner_selfchecks
from gasymp.reps import parse_rep


def _table(*names):
    return VariableTable(tuple(names), (BLOCK_X,) * len(names))


def test_two_way_reduction_certifies_basis():
    # x is the last table position: the larger variable under lex, the smaller under grevlex
    t = _table("y", "x")
    x, y = t.var("x"), t.var("y")
    gens = [x ** 2 - y, y ** 2 - x]
    ideal = Ideal(t, gens)
    basis = ideal.groebner()
    # every input generator reduces to zero against the output
    for g in gens:
        assert reduce_full(g, list(basis), GREVLEX).is_zero()
    # every output element is certified a member of the input ideal
    for g in basis:
        cof = ideal.lift(g)
        assert cof is not None
        total = t.zero()
        for c, gen in zip(cof, gens):
            total = total + c * gen
        assert total == g
    # the lex basis eliminates x and exposes the univariate relation
    lex_basis = ideal.groebner(LEX)
    assert any(g == y ** 4 - y for g in lex_basis)
    assert ideal.member(y ** 4 - y)


def test_zero_ideal():
    t = _table("x")
    assert Ideal(t, []).groebner() == ()
    assert Ideal(t, [t.zero()]).groebner() == ()


def test_membership_examples():
    t = _table("x", "y")
    x, y = t.var("x"), t.var("y")
    assert Ideal(t, [x]).member(x ** 2 * y)
    assert not Ideal(t, [x ** 2, y ** 2]).member(x + y)


def test_colon_and_saturate():
    t = _table("x", "y")
    x, y = t.var("x"), t.var("y")
    assert Ideal(t, [x * y]).colon(x).same_ideal(Ideal(t, [y]))
    colon = Ideal(t, [x ** 2 * y, x * y ** 2]).colon(x * y)
    assert colon.same_ideal(Ideal(t, [x, y]))
    sat = Ideal(t, [x ** 2 * y]).saturate(x)
    assert sat.same_ideal(Ideal(t, [y]))
    # idempotent
    assert sat.saturate(x).same_ideal(sat)
    with pytest.raises(ValueError):
        Ideal(t, [x]).colon(t.zero())


def test_colon_property_randomized():
    rng = random.Random(3)
    t = _table("x", "y")
    for _ in range(50):
        gens = [_random_poly(rng, t, max_degree=2, max_terms=2, coeff_bound=2)
                for _ in range(2)]
        f = _random_poly(rng, t, max_degree=1, max_terms=1, coeff_bound=2)
        if f.is_zero():
            continue
        ideal = Ideal(t, gens)
        colon = ideal.colon(f)
        for g in colon.gens:
            assert ideal.member(g * f)


def test_eliminate():
    t = VariableTable(("x", "y", "t"), (BLOCK_X, BLOCK_X, "aux"))
    x, y, tt = t.var("x"), t.var("y"), t.var("t")
    parent = Ideal(t, [x - tt, y - tt ** 2])
    out = parent.eliminate(["x", "y"])
    sub = out.table
    assert out.same_ideal(Ideal(sub, [sub.var("y") - sub.var("x") ** 2]))
    # every output element is a member of the input ideal and t-free
    for g in out.gens:
        assert parent.member(sub.lift(g, t))
    # keep everything: the ideal comes back unchanged
    keep_all = Ideal(t, [x]).eliminate(["x", "y", "t"])
    assert keep_all.member(keep_all.table.var("x"))


def test_image_of_component_embedding():
    # graph of the map (x2, 0, x2*a2, -x2*a2^2, 0, x2*a2); eliminating the
    # source variables leaves the image ideal, satisfied by the components
    src = ("x2", "a2")
    tags = tuple(f"h{i}" for i in range(1, 7))
    table = VariableTable(src + tags, (BLOCK_X,) * 2 + ("aux",) * 6)
    x2, a2 = table.var("x2"), table.var("a2")
    comps = [x2, table.zero(), x2 * a2, -x2 * a2 ** 2, table.zero(), x2 * a2]
    graph = [table.var(tag) - c for tag, c in zip(tags, comps)]
    image = Ideal(table, graph).eliminate(tags)
    assert image.gens  # the image is a proper subvariety
    sub = image.table
    for g in image.gens:
        expanded = sub.lift(g, table).substitute(dict(zip(tags, comps)))
        assert expanded.is_zero()


def test_dimension():
    t = _table("x", "y")
    x = t.var("x")
    assert Ideal(t, [x]).dimension() == 1
    assert Ideal(t, []).dimension() == 2
    assert Ideal(t, [t.one()]).dimension() == -1
    t6 = _table("x1", "x2", "x3", "a1", "a2", "a3")
    sing = Ideal(t6, [t6.var(n) for n in ("x2", "x3", "a1", "a2")])
    assert sing.dimension() == 2


def test_radical_membership():
    t = _table("x", "y")
    x, y = t.var("x"), t.var("y")
    ideal = Ideal(t, [x ** 2])
    assert ideal.radical_member(x)
    assert not ideal.radical_member(y)


def test_exact_divide():
    t = _table("x", "y")
    x, y = t.var("x"), t.var("y")
    assert exact_divide(x ** 2 * y + x * y ** 2, x * y) == x + y
    assert exact_divide(x ** 2 + y, x) is None


def test_caps_raise_not_completed():
    t = _table("x", "y", "z")
    x, y, z = t.var("x"), t.var("y"), t.var("z")
    gens = [x * y - z ** 2, x * z - y ** 2]
    with pytest.raises(NotCompleted):
        Ideal(t, gens).groebner(caps=GroebnerCaps(max_degree=40, max_pairs=0))
    with pytest.raises(NotCompleted):
        Ideal(t, gens).groebner(caps=GroebnerCaps(max_degree=2, max_pairs=100))


def _assert_least_max_pairs(ideal, order, least):
    """The pair cap counts processed pairs: ``least`` suffices, one fewer
    raises."""
    fresh = Ideal(ideal.table, ideal.gens)
    assert fresh.groebner(order, GroebnerCaps(max_pairs=least))
    with pytest.raises(NotCompleted, match="pair cap"):
        fresh.groebner(order, GroebnerCaps(max_pairs=least - 1))


@pytest.mark.parametrize("order, least", [(GREVLEX, 2), (LEX, 4), (BlockElim((0,)), 4)])
def test_pair_cap_counts_processed_pairs(order, least):
    t = _table("x", "y", "z")
    x, y, z = t.var("x"), t.var("y"), t.var("z")
    cubic = Ideal(t, [x * y - z ** 2, x * z - y ** 2, x ** 2 - y * z])
    _assert_least_max_pairs(cubic, order, least)


def test_pair_cap_on_tag_elimination():
    # the sym1 enveloping presentation: graph of the six published generators
    # over the sl2 moment ideal, eliminating everything but the tags
    rep = parse_rep("sym1")
    table = rep.table_tw()
    gens = sym1_enveloping_invariants(rep)
    tags = [f"t{i + 1}" for i in range(len(gens))]
    ext = table.extend(tags)
    graph = [table.lift(g, ext) for g in sl2_moment_w(rep)]
    graph += [ext.var(tag) - table.lift(g, ext) for tag, g in zip(tags, gens)]
    order = BlockElim(tuple(range(len(table.names))))
    _assert_least_max_pairs(Ideal(ext, graph), order, 416)
    assert len(Ideal(ext, graph).eliminate(tags).gens) == 11


def test_normal_form_and_lift_reuse_stored_leads(monkeypatch):
    t = _table("x", "y", "z")
    x, y, z = t.var("x"), t.var("y"), t.var("z")
    gens = [x * y - z ** 2, x * z - y ** 2, x ** 2 - y * z]
    ideal = Ideal(t, gens)
    rng = random.Random(17)
    fs = [_random_poly(rng, t, max_degree=4, max_terms=5) for _ in range(8)]
    for order in (GREVLEX, LEX):
        basis = list(ideal.groebner(order))
        expected = [reduce_full(f, basis, order) for f in fs]
        ideal.normal_form(fs[0], order)
        ideal.lift(gens[0] * x, order)
        calls = []
        original = Polynomial.leading

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Polynomial, "leading", counting)
        for _ in range(3):
            assert [ideal.normal_form(f, order) for f in fs] == expected
            for f, g in zip(fs, gens):
                cof = ideal.lift(f * g, order)
                assert sum((c * h for c, h in zip(cof, gens)), t.zero()) == f * g
        assert not calls
        monkeypatch.setattr(Polynomial, "leading", original)


def test_randomized_selfchecks():
    assert groebner_selfchecks(1000) == 0


def test_deterministic_output():
    t = _table("x", "y", "z")
    x, y, z = t.var("x"), t.var("y"), t.var("z")
    gens = [x * y - z ** 2, y ** 2 - x * z, x ** 2 - y * z]
    a = [format_poly(g) for g in Ideal(t, gens).groebner()]
    b = [format_poly(g) for g in Ideal(t, gens).groebner()]
    c = [format_poly(g) for g in Ideal(t, list(reversed(gens))).groebner()]
    assert a == b == c


def test_ideal_lift_tracks_one_basis(monkeypatch):
    tracked = []
    original = groebner_mod.buchberger

    def counting(*args, **kwargs):
        tracked.append(kwargs.get("track", False))
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner_mod, "buchberger", counting)
    t = _table("x", "y", "z")
    x, y, z = t.var("x"), t.var("y"), t.var("z")
    gens = [x * y - z ** 2, y ** 2 - x * z]
    ideal = Ideal(t, gens)
    rng = random.Random(11)
    for _ in range(6):
        a, b = (_random_poly(rng, t, max_degree=2, max_terms=3) for _ in range(2))
        f = a * gens[0] + b * gens[1]
        cof = ideal.lift(f)
        assert cof is not None and len(cof) == len(gens)
        assert cof[0] * gens[0] + cof[1] * gens[1] == f
    # the S-polynomial of the generators: neither leading term (x*y, y^2)
    # divides its leading term x^2*z, so its lift needs the tracked basis
    s = x ** 2 * z - y * z ** 2
    cof = ideal.lift(s)
    assert cof[0] * gens[0] + cof[1] * gens[1] == s
    assert ideal.lift(x) is None
    assert ideal.lift(x * y) is None
    assert ideal.lift(t.zero()) == [t.zero(), t.zero()]
    assert tracked == [True]


def _sympy_oracle(sympy, table):
    symbols = sympy.symbols(table.names)

    def to_sympy(p):
        return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*[s ** e for s, e in zip(symbols, m)])
                           for m, c in p.terms.items()])

    def from_sympy(expr, target):
        poly = sympy.Poly(expr, *[symbols[table.index(n)] for n in target.names])
        return Polynomial(target, {tuple(m): Fraction(int(c.p), int(c.q))
                                   for m, c in poly.terms()})

    return symbols, to_sympy, from_sympy


def test_groebner_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = _table("z1", "z2", "z3")
    symbols, to_sympy, from_sympy = _sympy_oracle(sympy, t)
    rng = random.Random(29)

    def sympy_basis(gens, order, mono, symbol_order):
        basis = sympy.groebner([to_sympy(g) for g in gens], *symbol_order, order=order)
        return {format_poly(from_sympy(e, t).monic(mono), mono) for e in basis.exprs}

    opposite = {"grevlex": 0, "lex": 0}
    cases = 0
    while cases < 30:
        gens = [_random_poly(rng, t, max_degree=2, max_terms=3, coeff_bound=3)
                for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        cases += 1
        ideal = Ideal(t, gens)
        for order, mono, table_orientation in (("grevlex", GREVLEX, symbols),
                                               ("lex", LEX, symbols[::-1])):
            ours = {format_poly(g.monic(mono), mono) for g in ideal.groebner(mono)}
            assert ours == sympy_basis(gens, order, mono, table_orientation), (order, gens)
            if ours != sympy_basis(gens, order, mono, table_orientation[::-1]):
                opposite[order] += 1
        # elimination orders: the eliminated variable leads a sympy lex order
        for gone in ("z1", "z3"):
            keep = [n for n in t.names if n != gone]
            ours = ideal.eliminate(keep)
            lead = symbols[t.index(gone)]
            rest = [s for s in symbols if s != lead]
            basis = sympy.groebner([to_sympy(g) for g in gens], lead, *rest, order="lex")
            theirs = [from_sympy(e, ours.table) for e in basis.exprs if lead not in e.free_symbols]
            assert ours.same_ideal(Ideal(ours.table, theirs)), (gone, gens)
    # the pairings above are the only ones that agree: the opposite variable
    # orientation gives a different basis on some of the ideals
    assert opposite["grevlex"] and opposite["lex"]
