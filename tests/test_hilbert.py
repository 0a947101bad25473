import itertools
import random
from math import comb
from operator import le, mul

import pytest

from gasymp.hilbert import (Fields, _pivot, colon_step, dimension, hilbert_function, minimal,
                            numerator, packed_numerator)


def _monomials(n, d):
    """Every exponent tuple of total degree d in n variables."""
    if n == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d + 1) for rest in _monomials(n - 1, d - e)]


def _weighted_monomials(weights, d):
    """Every exponent tuple of weighted degree d under positive ``weights``."""
    if not weights:
        return [()] if d == 0 else []
    w = weights[0]
    return [(e,) + rest for e in range(d // w + 1)
            for rest in _weighted_monomials(weights[1:], d - e * w)]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _series(num, n, top):
    """Coefficients of N(t) / (1 - t)^n through degree top."""
    return [sum(c * comb(d - i + n - 1, n - 1) for i, c in enumerate(num) if i <= d)
            for d in range(top + 1)]


def _independent_dimension(gens, n):
    """The largest set of variables that contains no generator's support."""
    supports = [{i for i, e in enumerate(m) if e} for m in gens]
    if any(not s for s in supports):
        return -1
    return max(len(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)
               if not any(s <= set(c) for s in supports))


def test_numerator_matches_standard_monomial_count():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 5)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        gens = [m for m in gens if any(m)]
        counts = [sum(1 for m in _monomials(n, d) if not any(_divides(g, m) for g in gens))
                  for d in range(9)]
        assert _series(numerator(gens, (1,) * n), n, 8) == counts, gens
        assert dimension(gens, n) == _independent_dimension(gens, n), gens


def test_weighted_numerator_matches_standard_monomial_count():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(2, 5)
        weights = tuple(rng.randint(1, 4) for _ in range(n))
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        gens = [m for m in gens if any(m)]
        num = numerator(gens, weights)
        for d in range(13):
            standard = sum(1 for m in _weighted_monomials(weights, d)
                           if not any(_divides(g, m) for g in gens))
            assert hilbert_function(num, weights, d) == standard, (gens, weights, d)
        # all ones is the standard grading: the same numerator and series
        ones = (1,) * n
        assert [hilbert_function(numerator(gens, ones), ones, d) for d in range(9)] == \
            _series(numerator(gens, ones), n, 8)


def _minimal_generators(gens):
    gens = set(gens)
    return [m for m in gens if not any(g != m and _divides(g, m) for g in gens)]


def _minimal(gens):
    """The quadratic scan, kept here only as an oracle: by increasing degree,
    stably on the input order, keep each monomial no kept one divides."""
    out = []
    for m in sorted(gens, key=sum):
        if not any(_divides(g, m) for g in out):
            out.append(m)
    return out


def _packed_minimal(gens):
    """``minimal`` through the packed edge: the tuples packed at the least
    width that fits them, the result unpacked."""
    fields = Fields.fitting((1,) * len(gens[0]) if gens else (), gens)
    return [fields.unpack(p) for p in minimal([fields.pack(m) for m in gens], fields)]


def test_minimal_matches_the_quadratic_scan():
    """On seeded random monomial lists that mix linear generators, pure
    powers, repeats and mutually divisible monomials, ``minimal`` returns
    the oracle's generators in the oracle's order."""
    rng = random.Random(2323)
    seen = {"linear": 0, "pure power": 0, "repeat": 0, "divisible": 0}
    for _ in range(300):
        n = rng.randint(1, 7)
        gens = []
        for _ in range(rng.randint(0, 14)):
            kind, v = rng.random(), rng.randrange(n)
            if kind < 0.2:
                m = tuple(int(i == v) for i in range(n))
            elif kind < 0.4:
                m = tuple(rng.randint(2, 4) if i == v else 0 for i in range(n))
            elif kind < 0.6 and gens:
                m = tuple(e + rng.choice([0, 0, 1]) for e in rng.choice(gens))
            else:
                m = tuple(rng.choice([0, 0, 1, 1, 2, 3]) for _ in range(n))
            gens.append(m)
        if gens and rng.random() < 0.3:
            gens.append(rng.choice(gens))
        got = _packed_minimal(gens)
        assert got == _minimal(gens), gens
        assert [sum(m) for m in got] == sorted(sum(m) for m in got)
        seen["linear"] += any(sum(m) == 1 for m in gens)
        seen["pure power"] += any(sum(map(bool, m)) == 1 and sum(m) > 1 for m in gens)
        seen["repeat"] += len(set(gens)) < len(gens)
        seen["divisible"] += any(g != m and _divides(g, m) for g in gens for m in gens)
    assert min(seen.values()) >= 50, seen


def test_colon_step_matches_numerator():
    """N(J + m) = N(J) - t^(w.m) * N(J : m), where J : m is generated by the
    excesses lcm(g, m) / m; adding the monomials of an ideal one at a time
    from N = 1 gives its numerator, as ``buchberger`` keeps it."""
    rng = random.Random(16)
    for _ in range(80):
        n = rng.randint(2, 5)
        weights = tuple(rng.randint(1, 4) for _ in range(n))
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 7))]
        gens = [m for m in gens if any(m)]
        fields = Fields.fitting(weights, gens)
        num = [1]
        for k, m in enumerate(gens):
            colon = [fields.pack(e) for e in _minimal_generators(
                tuple(max(a - b, 0) for a, b in zip(g, m)) for g in gens[:k])]
            shift = sum(e * w for e, w in zip(m, weights))
            assert colon_step(numerator(gens[:k], weights), colon, fields, shift) == \
                numerator(gens[:k + 1], weights), (gens[:k + 1], weights)
            num = colon_step(num, colon, fields, shift)
        assert num == numerator(gens, weights), (gens, weights)


def test_weighted_numerator_examples():
    # k[x, y] with deg x = 1, deg y = 2: HS(k[x,y]/(x*y)) = (1 - t^3) / ((1 - t)(1 - t^2))
    assert numerator([(1, 1)], (1, 2)) == [1, 0, 0, -1]
    assert numerator([], (2, 3)) == [1]
    assert numerator([(0, 0)], (2, 3)) == []
    # a pure power splits off as 1 - t^(e * w)
    assert numerator([(0, 2)], (1, 3)) == [1, 0, 0, 0, 0, 0, -1]
    assert [hilbert_function([1], (1, 2), d) for d in range(6)] == [1, 1, 2, 2, 3, 3]


def test_numerator_examples():
    assert numerator([(1, 1)], (1, 1)) == [1, 0, -1]
    assert numerator([(2, 0), (1, 1)], (1, 1)) == [1, 0, -2, 1]
    assert numerator([], (1, 1, 1)) == [1]
    assert numerator([(0, 0)], (1, 1)) == []
    # a redundant generator does not change the series
    assert numerator([(1, 1), (2, 1)], (1, 1)) == [1, 0, -1]


def test_dimension_extremes():
    assert dimension([(0, 0, 0)], 3) == -1
    assert dimension([], 3) == 3
    assert dimension([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3) == 0


def _tuple_minimal(gens):
    """The minimal-generator routine on exponent tuples, kept here only as an
    oracle: by increasing degree, stably on the input order, with a linear
    generator x_v kept as the variable v."""
    out, other = [], []
    linear = set()
    for m in sorted(gens, key=sum):
        if linear and not linear.isdisjoint(itertools.compress(itertools.count(), m)):
            continue
        for g in other:
            if all(map(le, g, m)):
                break
        else:
            out.append(m)
            if sum(m) == 1:
                linear.add(m.index(1))
            else:
                other.append(m)
    return out


def _tuple_numerator(gens, weights):
    """Bigatti's pivot recursion on exponent tuples, kept here only as an
    oracle, with numerators as sparse {degree: coefficient} dicts so that
    exponents near 2**15 stay cheap."""
    if any(not any(m) for m in gens):
        return {}
    mixed = [m for m in gens if sum(map(bool, m)) > 1]
    counts = [sum(c) for c in zip(*[map(bool, m) for m in mixed])] or [0] * len(weights)
    out, rest = {0: 1}, []
    for m in gens:
        if any(map(mul, m, counts)):
            rest.append(m)
        else:
            out = _sparse_add(out, out, sum(map(mul, m, weights)), -1)
    if not rest:
        return out
    v = counts.index(max(counts))
    plus = [m for m in rest if not m[v]] + [tuple(int(i == v) for i in range(len(weights)))]
    colon = _tuple_minimal({m[:v] + (max(m[v] - 1, 0),) + m[v + 1:] for m in rest})
    inner = _sparse_add(_tuple_numerator(plus, weights), _tuple_numerator(colon, weights),
                        weights[v], 1)
    product = {}
    for i, a in out.items():
        for j, b in inner.items():
            product[i + j] = product.get(i + j, 0) + a * b
    return {d: c for d, c in product.items() if c}


def _sparse_add(a, b, shift, sign):
    """a + sign * t^shift * b on {degree: coefficient} dicts."""
    out = dict(a)
    for d, c in b.items():
        out[d + shift] = out.get(d + shift, 0) + sign * c
    return {d: c for d, c in out.items() if c}


def _dense(poly):
    return [poly.get(d, 0) for d in range(max(poly, default=-1) + 1)]


def _random_monomials(rng, n, width):
    """A list of exponent tuples that fits ``width``: total degree below
    2**(width - 1), with pure powers at exactly 2**(width - 1) - 1, large
    mixed monomials, small ones, linear ones and repeats."""
    top = (1 << (width - 1)) - 1
    gens = []
    for _ in range(rng.randint(1, 9)):
        kind, v = rng.random(), rng.randrange(n)
        if kind < 0.15:
            m = tuple(top if i == v else 0 for i in range(n))
        elif kind < 0.3:
            m = tuple(int(i == v) for i in range(n))
        elif kind < 0.45:
            cuts = sorted(rng.randint(0, top) for _ in range(n - 1))
            m = tuple(b - a for a, b in zip([0] + cuts, cuts + [top]))
        elif kind < 0.55 and gens:
            m = rng.choice(gens)
        else:
            m = tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(n))
        gens.append(m)
    return gens


@pytest.mark.parametrize("width", [8, 16])
def test_packed_routines_match_the_tuple_oracles(width):
    """On seeded random monomial sets whose exponents reach the largest
    value a field holds, 2**(width - 1) - 1, and weights 1-3: ``minimal`` on
    packed ints returns the tuple oracle's generators in its order, and the
    packed recursion returns the tuple recursion's numerator, directly and
    through ``numerator``, whose own width is the least that fits."""
    rng = random.Random(4100 + width)
    seen = {"top exponent": 0, "mixed large": 0, "unit ideal": 0}
    for _ in range(150 if width == 8 else 60):
        n = rng.randint(1, 5)
        weights = tuple(rng.randint(1, 3) for _ in range(n))
        gens = _random_monomials(rng, n, width)
        if rng.random() < 0.1:
            gens.append((0,) * n)
        fields = Fields(weights, width)
        packed = [fields.pack(m) for m in gens]
        assert [fields.unpack(p) for p in packed] == gens
        assert [fields.unpack(p) for p in minimal(packed, fields)] == _tuple_minimal(gens), gens
        expected = _dense(_tuple_numerator(_tuple_minimal(set(gens)), weights))
        assert packed_numerator(packed, fields) == expected, (gens, weights)
        assert numerator(gens, weights) == expected, (gens, weights)
        assert Fields.fitting(weights, gens).width == (8 if max(map(sum, gens)) < 128 else 16)
        seen["top exponent"] += any((1 << (width - 1)) - 1 in m for m in gens)
        seen["mixed large"] += any(sum(map(bool, m)) > 1 and sum(m) >= 64 for m in gens)
        seen["unit ideal"] += not all(map(any, gens))
    assert min(seen.values()) >= 2, seen


def test_pivot_counts_more_generators_than_a_field_holds():
    """The pivot's per-variable counts are one sum of the mixed supports, in
    chunks of fewer than 2**(width - 1), so that no count carries into the
    next field: on sets of up to 490 mixed monomials at 8 bits, where a
    variable is in up to 330 of them, the pivot is the variable in the
    most, the first on ties, and the numerator of all monomials of degree 8
    in 5 variables is the tuple oracle's."""
    rng = random.Random(4242)
    fields = Fields((1,) * 5, 8)
    gens = _monomials(5, 8)
    mixed = [m for m in gens if sum(map(bool, m)) > 1]
    for k in (3, 130, 300, len(mixed)):
        sample = rng.sample(mixed, k)
        supports = [((fields.pack(m) | fields.guards) - fields.lows) & fields.guards
                    for m in sample]
        counts = [sum(1 for m in sample if m[v]) for v in range(5)]
        assert _pivot(supports, fields) == counts.index(max(counts)), counts
    assert max(sum(1 for m in mixed if m[v]) for v in range(5)) >= 256
    assert numerator(gens, (1,) * 5) == _dense(_tuple_numerator(gens, (1,) * 5))
