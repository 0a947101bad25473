import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from gasymp.groebner import Ideal, NotCompleted, Packing, _Overflow, _packing, reduce_full
from gasymp.hilbert import Fields
from gasymp.invariants import QuotientRing, _variable_orbits
from gasymp.poly import (BLOCK_ALPHA, BLOCK_X, BlockElim, Derivation, GREVLEX, LEX,
                         MonomialOrder, PolyMap, Polynomial, TableMismatch, VariableTable,
                         add_terms, format_poly, mono_div, mono_divides, mono_mul, mul_terms,
                         partial_terms)
from gasymp.properties import _random_poly


def _table(*names):
    return VariableTable(tuple(names), (BLOCK_X,) * len(names))


def test_table_validation():
    with pytest.raises(ValueError):
        VariableTable(("x", "x"), (BLOCK_X, BLOCK_X))
    with pytest.raises(ValueError):
        VariableTable(("x",), ("nope",))
    t = VariableTable(("x", "a"), (BLOCK_X, BLOCK_ALPHA))
    assert t.cotangent_pairs() == ((0, 1),)


def test_basic_arithmetic():
    t = _table("x", "y")
    x, y = t.var("x"), t.var("y")
    p = (x + y) * (x - y)
    assert p == x ** 2 - y ** 2
    assert (p - p).is_zero()
    assert (x * 0).is_zero()
    assert x ** 0 == t.one()
    assert (x + 1) * (x - 1) == x ** 2 - 1


def test_table_mismatch_raises():
    t1 = _table("x")
    t2 = _table("y")
    with pytest.raises(TableMismatch):
        t1.var("x") + t2.var("y")


def test_ring_axioms_randomized():
    rng = random.Random(7)
    t = _table("x", "y", "z")
    for _ in range(1000):
        f = _random_poly(rng, t)
        g = _random_poly(rng, t)
        h = _random_poly(rng, t)
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def _mixed_poly(rng, t):
    """Random polynomial whose input coefficients are ints, Fractions and zeros."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        m = tuple(rng.randint(0, 2) for _ in t.names)
        c = rng.randint(-3, 3)
        terms[m] = c if rng.random() < 0.5 else Fraction(c, rng.randint(1, 4))
    return Polynomial(t, terms)


def _exact_terms(p):
    return all(type(c) is Fraction and c != 0 for c in p.terms.values())


def test_coefficients_stay_nonzero_fractions():
    rng = random.Random(19)
    t = _table("x", "y", "z")
    d = Derivation(t, {"x": t.var("y"), "y": t.var("z") ** 2})
    basis = [t.var("x") ** 2 - t.var("y") * t.var("z"), 3 * t.var("y") ** 2 + 1]
    for _ in range(300):
        f, g = _mixed_poly(rng, t), _mixed_poly(rng, t)
        scalar = rng.choice([0, 2, -1, Fraction(-3, 5)])
        results = [f, f + g, f - g, -f, f * g, f * scalar, scalar * f, f + scalar,
                   f.partial(rng.randrange(3)), d(f), reduce_full(f * g, basis)]
        for p in results:
            assert _exact_terms(p), p.terms


def test_constructor_drops_zeros_and_rejects_floats():
    t = _table("x", "y")
    m = (1, 0)
    assert Polynomial(t, {m: 0}).is_zero()
    assert Polynomial(t, {m: Fraction(0)}).is_zero()
    with pytest.raises(TypeError):
        Polynomial(t, {m: 1.5})


def test_formatting_is_canonical():
    t = _table("x", "y")
    x, y = t.var("x"), t.var("y")
    p = 2 * y * x - x + Fraction(3, 2) * y ** 3
    assert format_poly(p) == "3/2*y^3 + 2*x*y - x"
    assert format_poly(t.zero()) == "0"
    assert format_poly(-x) == "-x"


def test_grevlex_vs_lex_leading():
    # the last table position is the largest variable under lex only
    t = _table("y", "x")
    x, y = t.var("x"), t.var("y")
    p = x + y ** 2
    assert p.leading(GREVLEX)[0] == (y ** 2).leading(GREVLEX)[0]
    assert p.leading(LEX)[0] == x.leading(LEX)[0]


def _two_block_key(dominant, m):
    """The block order as two grevlex keys, one per block, each block read
    from its last position to its first: the oracle for ``BlockElim.key``."""
    d = [m[i] for i in sorted(dominant, reverse=True)]
    r = [m[i] for i in reversed(range(len(m))) if i not in dominant]
    return (sum(d), *[-e for e in d], sum(r), *[-e for e in r])


@dataclass(frozen=True)
class _ReversedGrevLex(MonomialOrder):
    """GREVLEX with the variables taken in reverse order: its own key fields
    are not the low ones in variable order."""

    def key(self, m):
        return (sum(m), *[-e for e in m])


def test_packing_follows_the_order_keys():
    """On random monomials of 1-12 variables, under GREVLEX, LEX and random
    ``BlockElim`` blocks, at field widths 8 and 16: packed monomials compare
    as ints, after the order's mask, as their keys do; pack and unpack
    round-trip; a product packs to the sum of the packings; the guard test
    on a difference is ``mono_divides``, and the difference is then the
    quotient; ``exponents`` is the monomial packed by ``hilbert.Fields`` at
    the same width.  A reversed GREVLEX, whose own fields are not the low
    ones in variable order once there are two variables, is rejected.  The
    block order's key orders monomials as the two-block oracle does."""
    rng = random.Random(18)
    for n in range(1, 13):
        blocks = {(0,), (n - 1,), tuple(range(n)), tuple(range(0, n, 2)),
                  tuple(sorted(rng.sample(range(n), rng.randint(1, n))))}
        orders = [GREVLEX, LEX, *(BlockElim(b) for b in sorted(blocks))]
        monos = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(40)]
        for width in (8, 16):
            if n > 1:
                with pytest.raises(AssertionError, match="not the low ones"):
                    Packing(_ReversedGrevLex(), n, width)
            else:
                Packing(_ReversedGrevLex(), n, width)  # one variable: its one field is low
        for order, width in itertools.product(orders, (8, 16)):
            packing = _packing(order, n, width)
            packed = {m: packing.pack(m) for m in monos}
            assert all(packing.unpack(p) == m for m, p in packed.items()), order
            fields = Fields((1,) * n, width)
            assert all(packing.exponents(p) == fields.pack(m) for m, p in packed.items()), order
            assert (sorted(monos, key=order.key)
                    == sorted(monos, key=lambda m: packing.key(packed[m]))), order
            for a, b in zip(monos, reversed(monos)):
                pa, pb = packed[a], packed[b]
                assert packing.pack(mono_mul(a, b)) == pa + pb, (order, a, b)
                divides = not (pb - pa) & packing.guards
                assert divides == mono_divides(a, b), (order, a, b)
                if divides:
                    assert packing.unpack(pb - pa) == mono_div(b, a)
        for b in blocks:
            assert (sorted(monos, key=BlockElim(b).key)
                    == sorted(monos, key=lambda m: _two_block_key(b, m))), b


def test_packing_overflow_is_caught():
    """A monomial of total degree 2**(width - 1) does not pack, and a product
    that reaches a guard bit sets it."""
    packing = _packing(LEX, 2, 8)
    with pytest.raises(_Overflow):
        packing.pack((100, 28))
    a = packing.pack((100, 0))
    assert (a + a) & packing.guards
    assert packing.wider().unpack(packing.wider().pack((100, 28))) == (100, 28)


def test_partial_derivative_and_evaluate():
    t = _table("x", "y")
    x, y = t.var("x"), t.var("y")
    p = x ** 2 * y + 3 * y
    assert p.partial(0) == 2 * x * y
    assert p.partial(1) == x ** 2 + 3
    assert p.evaluate({"x": 2, "y": Fraction(1, 2)}) == Fraction(7, 2)


def test_substitute():
    t = _table("x", "y")
    x, y = t.var("x"), t.var("y")
    p = x ** 2 + y
    assert p.substitute({"x": y}) == y ** 2 + y
    assert p.substitute({"x": 1, "y": 0}) == t.one()


# Substitution, pullback, partial derivative and derivation as they were
# written on Polynomial arithmetic (one Polynomial per term, powers through
# Polynomial products), kept as oracles for the term-dict routines.


def _oracle_power(cache, base, e):
    if e not in cache:
        q = max(k for k in cache if k <= e)
        acc = cache[q]
        while q < e:
            acc = acc * base
            q += 1
            cache[q] = acc
    return cache[e]


def _oracle_substitute(p, assignment):
    t = p.table
    images = {t.index(name): t.scalar(v) if isinstance(v, (int, Fraction)) else v
              for name, v in assignment.items()}
    out = t.zero()
    pow_cache = {i: {0: t.one()} for i in images}
    for m, c in p.terms.items():
        rest = list(m)
        factor = t.scalar(c)
        for i in images:
            if m[i]:
                rest[i] = 0
                factor = factor * _oracle_power(pow_cache[i], images[i], m[i])
        out = out + factor * Polynomial(t, {tuple(rest): Fraction(1)})
    return out


def _oracle_pull(pmap, f):
    src = pmap.source
    out = src.zero()
    pow_cache = [{0: src.one()} for _ in pmap.components]
    for m, c in f.terms.items():
        term = src.scalar(c)
        for i, e in enumerate(m):
            if e:
                term = term * _oracle_power(pow_cache[i], pmap.components[i], e)
        out = out + term
    return out


def _oracle_partial(p, pos):
    terms = {}
    for m, c in p.terms.items():
        e = m[pos]
        if e:
            mm = list(m)
            mm[pos] = e - 1
            mm = tuple(mm)
            s = terms.get(mm, Fraction(0)) + c * e
            if s:
                terms[mm] = s
            else:
                del terms[mm]
    return Polynomial(p.table, terms)


def _oracle_derivation(d, f):
    out = {}
    for i, img in d.images.items():
        partial = {}
        for m, c in f.terms.items():
            if m[i]:
                base = list(m)
                base[i] = m[i] - 1
                partial[tuple(base)] = c * m[i]
        mul_terms(partial, img.terms, out)
    return Polynomial(d.table, out)


def _rational_poly(rng, t, max_degree):
    """A random polynomial with Fraction coefficients of several denominators."""
    return sum((_random_poly(rng, t, max_degree=max_degree) * Fraction(1, rng.randint(1, 6))
                for _ in range(2)), t.zero())


def _random_image(rng, t):
    """A rational polynomial, a variable, a nonzero scalar, the int 0 or the
    zero polynomial."""
    kind = rng.randrange(5)
    if kind == 0:
        return _rational_poly(rng, t, 2)
    if kind == 1:
        return t.var(rng.choice(t.names))
    if kind == 2:
        return Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
    return 0 if kind == 3 else t.zero()


def test_substitute_matches_the_polynomial_oracle():
    """Seeded partial assignments of polynomial, scalar and zero images; an
    assigned variable often has exponent 0 in every term of f."""
    rng = random.Random(23)
    t = _table("x", "y", "z", "w")
    for _ in range(300):
        f = _rational_poly(rng, t, 4)
        names = rng.sample(t.names, rng.randint(1, 4))
        assignment = {name: _random_image(rng, t) for name in names}
        assert f.substitute(assignment) == _oracle_substitute(f, assignment)
    x, y = t.var("x"), t.var("y")
    assert (x * y).substitute({"z": x + 1, "x": 0}).is_zero()


def test_pull_matches_the_polynomial_oracle():
    """Seeded maps into the same table and into a wider source table, whose
    extra variables only the components mention."""
    rng = random.Random(29)
    t = _table("x", "y", "z")
    for source in (t, t.extend(["s", "c"])):
        for _ in range(150):
            comps = [_random_image(rng, source) for _ in t.names]
            pmap = PolyMap(source, t, comps)
            f = _rational_poly(rng, t, 4)
            assert pmap.pull(f) == _oracle_pull(pmap, f)
    with pytest.raises(TableMismatch):
        PolyMap.identity(t).pull(t.extend(["s"]).one())


def test_partial_and_derivation_match_the_oracles():
    rng = random.Random(31)
    t = _table("x", "y", "z")
    for _ in range(300):
        f = _rational_poly(rng, t, 4)
        pos = rng.randrange(len(t))
        assert f.partial(pos) == _oracle_partial(f, pos)
        names = rng.sample(t.names, rng.randint(1, 3))
        d = Derivation(t, {name: _rational_poly(rng, t, 2) for name in names})
        assert d(f) == _oracle_derivation(d, f)
    # integer term dicts stay integer, and a position of exponent 0 drops out
    assert partial_terms({(2, 1): 3, (0, 4): 5}, 0) == {(1, 1): 6}
    assert all(type(c) is int for c in partial_terms({(3, 1): 2}, 1).values())


def test_add_terms_signs_cancels_and_keeps_no_zero():
    half = Fraction(1, 2)
    out = {(1, 0): half, (0, 1): Fraction(2)}
    assert add_terms(out, {(1, 0): half, (2, 0): Fraction(3)}, -1) is out
    # (1, 0) cancels and is dropped, (2, 0) is new and enters negated
    assert out == {(0, 1): 2, (2, 0): -3}
    assert add_terms(out, {(0, 1): Fraction(-2), (2, 0): Fraction(3)}) == {}
    # an empty dict takes a copy of the terms; the source is not changed
    src = {(1, 1): half}
    fresh = add_terms({}, src)
    assert fresh == src and fresh is not src
    assert add_terms({}, src, -1) == {(1, 1): -half} and src == {(1, 1): half}
    rng = random.Random(41)
    t = _table("x", "y")
    for _ in range(200):
        f, g = _rational_poly(rng, t, 3), _rational_poly(rng, t, 3)
        for sign in (1, -1):
            want = {m: f.terms.get(m, 0) + sign * g.terms.get(m, 0)
                    for m in f.terms.keys() | g.terms.keys()}
            got = add_terms(dict(f.terms), g.terms, sign)
            assert got == {m: c for m, c in want.items() if c}
            assert (f + g if sign > 0 else f - g).terms == got
    assert (f - f).is_zero() and f - 0 == f and 1 - f == -(f - 1)


def test_substitute_and_pull_build_one_polynomial(monkeypatch):
    """Each call adds every term into one dict and wraps it once: no
    Polynomial product and no Polynomial per term or per power."""
    t = _table("x", "y", "z")
    x, y, z = t.var("x"), t.var("y"), t.var("z")
    f = (x + 2 * y - z) ** 3 + Fraction(1, 3) * x * y ** 2
    wide = t.extend(["c"])
    c = wide.var("c")
    pmap = PolyMap(wide, t, [c * wide.var("x"), wide.var("y") + 1, wide.zero()])
    assignment = {"x": y + z, "z": Fraction(2, 3), "y": 0}
    counts = {"init": 0, "mul": 0}
    init, mul = Polynomial.__init__, Polynomial.__mul__

    def counting_init(self, *args):
        counts["init"] += 1
        init(self, *args)

    def counting_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    for call in (lambda: f.substitute(assignment), lambda: pmap.pull(f)):
        counts.update(init=0, mul=0)
        call()
        assert counts == {"init": 1, "mul": 0}


def test_derivation_leibniz_randomized():
    rng = random.Random(11)
    t = _table("x", "y", "z")
    d = Derivation(t, {"x": t.var("y"), "y": t.var("z") ** 2, "z": t.one()})
    for _ in range(1000):
        f = _random_poly(rng, t)
        g = _random_poly(rng, t)
        assert d(f * g) == d(f) * g + f * d(g)


def test_derivation_matches_sum_of_partials():
    """D(f) is collected into one dict; it equals the reference
    sum of f.partial(i) * D(v_i) on random derivations with non-linear images."""
    rng = random.Random(41)
    t = _table("x", "y", "z")
    for _ in range(200):
        d = Derivation(t, {n: _random_poly(rng, t, max_degree=3) * Fraction(1, rng.randint(1, 5))
                           for n in rng.sample(t.names, rng.randint(1, 3))})
        f = _random_poly(rng, t, max_degree=4, max_terms=6)
        reference = sum((f.partial(i) * img for i, img in d.images.items()), t.zero())
        assert d(f) == reference


def test_derivation_bracket():
    t = _table("x", "y")
    d1 = Derivation(t, {"x": t.var("y")})
    d2 = Derivation(t, {"y": t.var("x")})
    br = d1.bracket(d2)
    assert br(t.var("x")) == -t.var("x")
    assert br(t.var("y")) == t.var("y")


def test_local_nilpotency():
    # over the zero ideal the variable orbits decide local nilpotency
    t = _table("x1", "x2")
    x1, x2 = t.var("x1"), t.var("x2")
    d = Derivation(t, {"x1": x2})
    assert _variable_orbits(QuotientRing(t, Ideal(t, []), d)) == {"x1": [x1, x2], "x2": [x2]}
    bad = Derivation(t, {"x1": x1})
    with pytest.raises(NotCompleted):
        _variable_orbits(QuotientRing(t, Ideal(t, []), bad))


def test_polymap_pull_and_compose():
    t = _table("x", "y")
    x, y = t.var("x"), t.var("y")
    sq = PolyMap(t, t, [x ** 2, y + 1])
    assert sq.pull(x * y) == x ** 2 * (y + 1)
    ident = PolyMap.identity(t)
    assert sq.compose(ident).components == sq.components
    assert ident.compose(sq).components == sq.components


def test_determinism_of_storage():
    t = _table("x", "y")
    x, y = t.var("x"), t.var("y")
    p1 = (x + y) ** 3 - x ** 3
    p2 = 3 * x ** 2 * y + 3 * x * y ** 2 + y ** 3
    assert format_poly(p1) == format_poly(p2)
    assert p1 == p2
