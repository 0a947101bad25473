import itertools
import random
from math import comb

from gasymp.hilbert import colon_step, dimension, hilbert_function, minimal, numerator


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
        got = minimal(gens)
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
        num = [1]
        for k, m in enumerate(gens):
            colon = _minimal_generators(tuple(max(a - b, 0) for a, b in zip(g, m))
                                        for g in gens[:k])
            shift = sum(e * w for e, w in zip(m, weights))
            assert colon_step(numerator(gens[:k], weights), colon, weights, shift) == \
                numerator(gens[:k + 1], weights), (gens[:k + 1], weights)
            num = colon_step(num, colon, weights, shift)
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
