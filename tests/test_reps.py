import math
from fractions import Fraction

import pytest

from gasymp.forms import liouville, pullback
from gasymp.poly import PolyMap, format_poly
from gasymp.properties import _all_reps_up_to_dim, one_parameter_law, sl2_bracket_suite
from gasymp.reps import (GaRep, NilpotentInput, RepSpecError, _exp_action, cotangent_lift,
                         ga_action, jordan_decompose, parse_rep, sl2_infinitesimal,
                         standard_nilpotent_matrix, verify_sl2_brackets)


def test_parse_grammar():
    assert parse_rep("sym1").summands == (1,)
    assert parse_rep("sym1^2+sym3").summands == (3, 1, 1)
    assert parse_rep(" sym0 + sym2 ").summands == (2, 0)
    assert parse_rep("sym10").summands == (10,)


@pytest.mark.parametrize("bad,pos", [
    ("", 0),
    ("sss", 0),
    ("sym", 3),
    ("sym1^", 5),
    ("sym1+", 5),
    ("sym1 sym2", 5),
    ("sym1^0", 5),
])
def test_parse_errors_report_position(bad, pos):
    with pytest.raises(RepSpecError) as err:
        parse_rep(bad)
    assert err.value.position == pos


def test_tables_and_naming():
    rep = parse_rep("sym2")
    assert rep.table_v().names == ("x1", "x2", "x3")
    assert rep.table_tv().names == ("x1", "x2", "x3", "a1", "a2", "a3")
    assert rep.table_tw().names == ("x1", "x2", "x3", "u", "v", "a1", "a2", "a3", "lam", "eta")
    multi = parse_rep("sym1^2")
    assert multi.table_v().names == ("x1_1", "x1_2", "x2_1", "x2_2")
    assert GaRep((1, 1), "cox").table_tv().names == (
        "y1", "x1", "y2", "x2", "b1", "a1", "b2", "a2")
    assert GaRep((1, 0), "cox").table_tv().names == ("y1", "x1", "x2_1", "b1", "a1", "a2_1")
    for bad in ((2,), (1, 2), (0,), (0, 0)):
        with pytest.raises(ValueError):
            GaRep(bad, "cox")
    with pytest.raises(ValueError):
        GaRep((1,), "blowup")


def test_ga_action_displays():
    act1 = ga_action(parse_rep("sym1"))
    assert format_poly(act1.component("x1")) == "x2*c + x1"
    assert format_poly(act1.component("x2")) == "x2"
    act2 = ga_action(parse_rep("sym2"))
    assert format_poly(act2.component("x1")) == "x3*c^2 + 2*x2*c + x1"
    assert format_poly(act2.component("x2")) == "x3*c + x2"
    act0 = ga_action(GaRep((0,)))
    assert act0.component("x1") == act0.source.var("x1")


def test_cotangent_lift_displays():
    lift = cotangent_lift(parse_rep("sym1"))
    src = lift.source
    assert lift.component("x1") == src.var("x1") + src.var("c") * src.var("x2")
    assert lift.component("a2") == src.var("a2") - src.var("c") * src.var("a1")
    assert lift.component("a1") == src.var("a1")
    # identity at c = 0
    for name in lift.target.names:
        assert lift.component(name).substitute({"c": 0}) == src.var(name)


def test_cox_lift_matches_blowup_coordinates():
    rep = parse_rep("sym1^2")
    lift = cotangent_lift(rep)
    src = lift.source
    # per summand: (y, x, b, a) -> (y + c x, x, b, a - c b)
    for j in (1, 2):
        y, x = f"x{j}_1", f"x{j}_2"
        b, a = f"a{j}_1", f"a{j}_2"
        assert lift.component(y) == src.var(y) + src.var("c") * src.var(x)
        assert lift.component(x) == src.var(x)
        assert lift.component(b) == src.var(b)
        assert lift.component(a) == src.var(a) - src.var("c") * src.var(b)


def _binomial_action(rep: GaRep, target) -> PolyMap:
    """Closed-form oracle for exp(c E): per summand sym k (0-based i),
    x_i -> sum_d C(k-i, d) c^d x_(i+d) and a_i -> sum_d C(k-i+d, d) (-c)^d
    a_(i-d); on T*W also (u, v, lam, eta) -> (u + c v, v, lam, eta - c lam)."""
    source = target.extend(["c"])
    c = source.var("c")
    comps = {}
    for j, k in enumerate(rep.summands):
        xs = [source.var(rep.x_name(j + 1, i + 1)) for i in range(k + 1)]
        for i in range(k + 1):
            comps[rep.x_name(j + 1, i + 1)] = sum(
                (math.comb(k - i, d) * c ** d * xs[i + d] for d in range(k + 1 - i)), source.zero())
            a = rep.a_name(j + 1, i + 1)
            if a in target.names:
                comps[a] = sum((math.comb(k - i + d, d) * (-c) ** d * source.var(rep.a_name(j + 1, i + 1 - d))
                                for d in range(i + 1)), source.zero())
    if "u" in target.names:
        u, v, lam, eta = (source.var(n) for n in ("u", "v", "lam", "eta"))
        comps.update(u=u + c * v, v=v, lam=lam, eta=eta - c * lam)
    return PolyMap(source, target, [comps[n] for n in target.names])


ORACLE_REPS = _all_reps_up_to_dim(8) + [GaRep((1,), "cox"), GaRep((1, 1), "cox"),
                                        GaRep((1, 1, 1), "cox"), GaRep((1, 0), "cox")]


def test_exponential_actions_match_binomial_closed_forms():
    for rep in ORACLE_REPS:
        assert ga_action(rep) == _binomial_action(rep, rep.table_v()), rep
        assert cotangent_lift(rep) == _binomial_action(rep, rep.table_tv()), rep
        lift_w = _exp_action(sl2_infinitesimal(rep, "E", include_w=True), rep.table_tw())
        assert lift_w == _binomial_action(rep, rep.table_tw()), rep


def test_one_parameter_group_law():
    assert one_parameter_law(1000) == 0


def test_sl2_infinitesimal_examples():
    rep = parse_rep("sym1")
    e = sl2_infinitesimal(rep, "E")
    t = rep.table_tv()
    assert e.image("x1") == t.var("x2")
    assert e.image("x2").is_zero()
    assert e.image("a1").is_zero()
    assert e.image("a2") == -t.var("a1")
    rep2 = parse_rep("sym2")
    h = sl2_infinitesimal(rep2, "H")
    t2 = rep2.table_tv()
    assert h.image("x1") == 2 * t2.var("x1")
    assert h.image("x2").is_zero()
    assert h.image("x3") == -2 * t2.var("x3")
    assert h.image("a1") == -2 * t2.var("a1")
    zero = sl2_infinitesimal(GaRep((0,)), "E")
    assert not zero.images


def test_sl2_brackets_all_small_reps():
    assert sl2_bracket_suite(1000) == 0
    assert verify_sl2_brackets(parse_rep("sym2+sym1"), include_w=True)


def test_derivative_of_action_is_infinitesimal():
    for spec in ("sym1", "sym2", "sym3"):
        rep = parse_rep(spec)
        act = ga_action(rep)
        e = sl2_infinitesimal(rep, "E")
        src = act.source
        cpos = src.index("c")
        for name in rep.table_v().names:
            diff = act.component(name) - src.var(name)
            linear = {}
            for m, c in diff.terms.items():
                if m[cpos] == 1:
                    mm = list(m)
                    mm[cpos] = 0
                    linear[tuple(mm)] = c
                elif m[cpos] == 0:
                    raise AssertionError("difference has a c-free term")
            from gasymp.poly import Polynomial

            got = src.project(Polynomial(src, linear), rep.table_v())
            want = rep.table_tv().project(e.image(name), rep.table_v())
            assert got == want


def test_lift_preserves_liouville_exactly():
    for spec in ("sym1", "sym2", "sym1^2"):
        rep = parse_rep(spec)
        lift = cotangent_lift(rep)
        omega = liouville(rep.table_tv())
        pulled = pullback(omega, lift, params={"c"})
        src = lift.source
        lifted = {tuple(src.index(rep.table_tv().names[i]) for i in idx):
                  rep.table_tv().lift(c, src) for idx, c in omega.terms.items()}
        from gasymp.forms import DifferentialForm

        assert pulled == DifferentialForm(src, 2, lifted)


def test_lift_w_pairs():
    rep = parse_rep("sym1")
    lift = _exp_action(sl2_infinitesimal(rep, "E", include_w=True), rep.table_tw())
    src = lift.source
    assert lift.component("u") == src.var("u") + src.var("c") * src.var("v")
    assert lift.component("eta") == src.var("eta") - src.var("c") * src.var("lam")


def test_jordan_decompose():
    rep, p = jordan_decompose(NilpotentInput(((0, 1), (0, 0))))
    assert rep.summands == (1,)
    rep0, _ = jordan_decompose(NilpotentInput(((0, 0), (0, 0))))
    assert rep0.summands == (0, 0)
    n3 = ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    rep3, p3 = jordan_decompose(NilpotentInput(n3))
    assert rep3.summands == (2,)
    _check_conjugation(n3, rep3, p3)
    mixed = ((0, 5, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 3, 0))
    repm, pm = jordan_decompose(NilpotentInput(mixed))
    assert repm.summands == (1, 1)
    _check_conjugation(mixed, repm, pm)


def _check_conjugation(n, rep, p):
    sympy = pytest.importorskip("sympy")
    n = [[Fraction(x) for x in row] for row in n]
    p = [list(row) for row in p]
    b = [list(row) for row in standard_nilpotent_matrix(rep)]
    size = len(n)

    def matmul(a, c):
        return [[sum(a[i][k] * c[k][j] for k in range(size)) for j in range(size)]
                for i in range(size)]

    assert matmul(n, p) == matmul(p, b)
    # p must be invertible: full rank
    assert sympy.Matrix(p).rank() == size


def test_non_nilpotent_rejected():
    with pytest.raises(ValueError):
        NilpotentInput(((1, 0), (0, 0)))
    # a zero diagonal is not enough: a cyclic permutation has a unit power
    for matrix in (((0, 1), (1, 0)), ((0, 1, 0), (0, 0, 1), (1, 0, 0))):
        with pytest.raises(ValueError, match="not nilpotent"):
            NilpotentInput(matrix)
    # nilpotent of the largest order n, N^(n-1) != 0 = N^n
    NilpotentInput(((0, 1, 0), (0, 0, 1), (0, 0, 0)))


def test_nilpotency_order_of_lift():
    from gasymp.invariants import QuotientRing, _variable_orbits

    for spec, order in (("sym2", 3), ("sym1", 2)):
        orbits = _variable_orbits(QuotientRing.ambient_tv(parse_rep(spec)))
        assert max(len(orbit) for orbit in orbits.values()) == order
