from gasymp.forms import (DifferentialForm, exterior_derivative, liouville,
                          pullback, wedge)
from gasymp.poly import BLOCK_ALPHA, BLOCK_X, PolyMap, VariableTable
from gasymp.properties import d_squared_zero, graded_commutativity, pullback_functoriality


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
