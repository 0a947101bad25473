import random
from fractions import Fraction

from gasymp.comparison import build_embedding, scaling_map
from gasymp.forms import (DifferentialForm, _sort_signed, exterior_derivative, liouville,
                          pullback, wedge)
from gasymp.poly import BLOCK_ALPHA, BLOCK_X, PolyMap, VariableTable
from gasymp.properties import (_random_form, _random_poly, _table, d_squared_zero,
                               graded_commutativity, pullback_functoriality)
from gasymp.reps import parse_rep


def _tstar(n):
    names = tuple(f"x{i+1}" for i in range(n)) + tuple(f"a{i+1}" for i in range(n))
    return VariableTable(names, (BLOCK_X,) * n + (BLOCK_ALPHA,) * n)


def test_liouville_small():
    t = _tstar(1)
    omega = liouville(t)
    assert omega.degree == 2
    assert omega.terms == {(0, 1): t.one()}
    t2 = _tstar(2)
    omega2 = liouville(t2)
    assert len(omega2.terms) == 2


def test_antisymmetry_and_canonical_storage():
    t = _tstar(1)
    dx_da = DifferentialForm(t, 2, {(0, 1): t.one()})
    da_dx = DifferentialForm(t, 2, {(1, 0): t.one()})
    assert da_dx == -1 * dx_da
    assert DifferentialForm(t, 2, {(0, 0): t.one()}).is_zero()


def test_top_power_nondegenerate():
    t = _tstar(2)
    omega = liouville(t)
    top = wedge(omega, omega)
    # 2 dx1^da1^dx2^da2
    assert len(top.terms) == 1
    ((idx, coeff),) = top.terms.items()
    assert sorted(idx) == [0, 1, 2, 3]
    assert coeff == 2 * t.one() or coeff == -2 * t.one()
    # sign bookkeeping: reorder to the canonical tuple
    assert top == wedge(omega, omega)


def test_exterior_derivative_examples():
    t = _tstar(1)
    x, a = t.var("x1"), t.var("a1")
    form = DifferentialForm(t, 1, {(1,): x})  # x da
    d = exterior_derivative(form)
    assert d == DifferentialForm(t, 2, {(0, 1): t.one()})
    assert exterior_derivative(liouville(t)).is_zero()
    # dx ^ dx = 0
    assert wedge(DifferentialForm(t, 1, {(0,): t.one()}),
                 DifferentialForm(t, 1, {(0,): t.one()})).is_zero()


def test_d_squared_randomized():
    assert d_squared_zero(1000) == 0


def test_graded_commutativity_randomized():
    assert graded_commutativity(1000) == 0


def test_pullback_functoriality_randomized():
    assert pullback_functoriality(300) == 0


def test_pullback_identity():
    t = _tstar(1)
    omega = liouville(t)
    assert pullback(omega, PolyMap.identity(t)) == omega


def test_lift_preserves_liouville():
    from gasymp.properties import lift_preserves_liouville

    assert lift_preserves_liouville(5) == 0


# The oracle: a term-at-a-time version of the form operations on canonical
# term dicts (index tuple -> Polynomial), each canonicalizing and summing its
# own terms with Polynomial `+` from the zero polynomial.


def _oracle_accumulate(table, items):
    acc = {}
    for idx, coeff in items:
        sign, canon = _sort_signed(tuple(idx))
        if sign == 0 or coeff.is_zero():
            continue
        total = acc.get(canon, table.zero()) + (coeff if sign > 0 else -coeff)
        if total.is_zero():
            acc.pop(canon, None)
        else:
            acc[canon] = total
    return acc


def _oracle_wedge(table, a, b):
    return _oracle_accumulate(table, [(ia + ib, ca * cb) for ia, ca in a.items()
                                      for ib, cb in b.items()])


def _oracle_d(table, terms, params=frozenset()):
    skip = {table.index(n) for n in params}
    return _oracle_accumulate(table, [((i,) + idx, coeff.partial(i))
                                      for idx, coeff in terms.items()
                                      for i in range(len(table.names)) if i not in skip])


def _oracle_pullback(terms, pmap, params=frozenset()):
    src = pmap.source
    skip = {src.index(n) for n in params}
    result = {}
    for idx, coeff in terms.items():
        piece = {(): pmap.pull(coeff)}
        for i in idx:
            comp = pmap.components[i]
            piece = _oracle_wedge(src, piece, {(j,): comp.partial(j)
                                               for j in range(len(src.names)) if j not in skip})
        result = _oracle_accumulate(src, [*result.items(), *piece.items()])
    return result


def test_constructor_sums_repeated_reordered_and_cancelling_items():
    t = _tstar(2)
    x1, a1, x2 = t.var("x1"), t.var("a1"), t.var("x2")
    form = DifferentialForm(t, 2, [((0, 1), x1), ((1, 0), a1), ((0, 1), 2 * a1),
                                   ((3, 2), x2), ((2, 3), x2), ((1, 1), x1),
                                   ((0, 2), Fraction(1, 2)), ((2, 0), 1)])
    # dx1^da1: x1 - a1 + 2a1; dx2^da2 cancels; the repeated index drops; and
    # 1/2 dx1^dx2 - dx1^dx2 leaves -1/2 dx1^dx2
    assert form.terms == {(0, 1): x1 + a1, (0, 2): t.scalar(Fraction(-1, 2))}
    assert form == DifferentialForm(t, 2, {(1, 0): -x1 - a1, (2, 0): Fraction(1, 2)})
    assert DifferentialForm(t, 1, iter([((0,), x1), ((0,), -x1)])).is_zero()
    rng = random.Random(17)
    for _ in range(200):
        degree = rng.randint(0, 3)
        items = [(tuple(rng.choices(range(4), k=degree)), _random_poly(rng, t, max_degree=2))
                 for _ in range(rng.randint(0, 6))]
        assert DifferentialForm(t, degree, items).terms == _oracle_accumulate(t, items)


def test_form_operations_match_the_oracle_on_random_forms_and_maps():
    rng = random.Random(23)
    table = _table(4)
    poly_args = dict(max_degree=2, max_terms=3, coeff_bound=3)
    for _ in range(150):
        a = _random_form(rng, table, rng.randint(0, 2), 3, **poly_args)
        b = _random_form(rng, table, rng.randint(0, 2), 3, **poly_args)
        assert wedge(a, b).terms == _oracle_wedge(table, a.terms, b.terms)
        params = set(rng.sample(table.names, rng.randint(0, 2)))
        assert exterior_derivative(a, params).terms == _oracle_d(table, a.terms, params)
        pmap = PolyMap(table, table, [_random_poly(rng, table, **poly_args) for _ in range(4)])
        assert pullback(b, pmap, params).terms == _oracle_pullback(b.terms, pmap, params)
        if a.degree == b.degree:
            assert (a - b).terms == _oracle_accumulate(
                table, [*a.terms.items(), *((i, -c) for i, c in b.terms.items())])


def test_liouville_and_scaling_pullbacks_match_the_oracle():
    for spec in ("sym1", "sym2", "sym1^2"):
        rep = parse_rep(spec)
        omega_w = liouville(rep.table_tw())
        for kind in ("i", "j"):
            pmap = build_embedding(rep, kind).map
            assert pullback(omega_w, pmap).terms == _oracle_pullback(omega_w.terms, pmap)
        phi = scaling_map(rep)
        omega = liouville(rep.table_tv())
        assert (pullback(omega, phi, {"C"}).terms
                == _oracle_pullback(omega.terms, phi, {"C"}))
