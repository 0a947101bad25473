import hashlib
import itertools
import json
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from gasymp import cache as cache_mod
from gasymp import hilbert, invariants, suite
from gasymp.comparison import sym2_levelset_invariants
from gasymp.groebner import GroebnerCaps, Ideal, NotCompleted
from gasymp.levelsets import Hypersurface, components, diagonal_torus_weights
from gasymp.invariants import (DegreeSpan, NoSliceError, QuotientRing,
                               algebra_equal_up_to_degree, essen_derksen, graded_kernel,
                               nullcone_equals_fixed, restriction_misses, section_sigma,
                               standard_sym1_invariants, verify_generators)
from gasymp.linalg import SparseEchelon, integral, primitive, sparse_nullspace
from gasymp.moments import ga_moment, sl2_moment_w
from gasymp.poly import (GREVLEX, BlockElim, Derivation, Polynomial, format_poly, mul_terms,
                         poly_key)
from gasymp.reps import GaRep, ga_derivation, parse_rep, sl2_infinitesimal

# a chain reads its Groebner caps from its ring: every ring a chain of these
# tests runs on is built with these
CHAIN_CAPS = GroebnerCaps(max_degree=40, max_pairs=20000, max_basis=400)


def _level_zero_ring(spec, caps=GroebnerCaps()):
    rep = parse_rep(spec)
    table = rep.table_tv()
    return rep, QuotientRing(table, Ideal(table, [ga_moment(rep)]),
                             ga_derivation(rep, table), caps)


def _chain_rings(rep, level):
    """The rings an analysis runs the chain on: the level set and, when it
    is reducible, each normalization component."""
    rings = [QuotientRing.level_set(rep, level)]
    try:
        rings += [QuotientRing(ideal.table, ideal, d)
                  for ideal, d in components(Hypersurface.at(rep, level))]
    except ValueError:
        pass  # an irreducible level set
    return rings


def test_quotient_ring_checks_stability():
    rep = parse_rep("sym1")
    table = rep.table_tv()
    with pytest.raises(ValueError):
        QuotientRing(table, Ideal(table, [table.var("x1")]), ga_derivation(rep, table))


def test_graded_kernel_examples():
    rep = parse_rep("sym1")
    ambient = QuotientRing.ambient_tv(rep)
    deg1 = graded_kernel(ambient, 1)
    assert {format_poly(p) for p in deg1} == {"x2", "a1"}
    _, ring = _level_zero_ring("sym1")
    deg2 = graded_kernel(ring, 2)
    assert any(p == ring.table.var("x1") * ring.table.var("a1") for p in deg2)
    assert graded_kernel(ring, 0) == [ring.table.one()]


def test_graded_kernel_sym4_degree4_is_invariant():
    _, ring = _level_zero_ring("sym4")
    kernel = graded_kernel(ring, 4)
    assert len(kernel) == 79
    assert all(ring.is_invariant(p) for p in kernel)


_KERNEL_SHA256 = {
    ("sym3", 1): "51d8245171f1ecda9d241820633ee030eda67a2b7d4defb4706d36b075f3b56b",
    ("sym3", 2): "5dc7b12f9d0dd509845801943d75ecea5298a5ea514f480a68cb541d1bf67739",
    ("sym3", 3): "691786cfba42f4bc729f556e8c8784ff58baae70f3c16c1e0f76935784e77afa",
    ("sym3", 4): "e6d8d7f492c75a9ffbfa1414c7c7ed9cf79259aa4e6a30fe0f33e94d4a75f0b4",
    ("sym4", 1): "82ca6f80a4b2c7c1b7f95587df1e7ed5c7fec82bf0b024637f7d7243ce6fa4fb",
    ("sym4", 2): "1cac7a66cbc9cb2db7508101b2d0ec192f91bc99718b80ce5aaeadfe0005b65f",
    ("sym4", 3): "0ec6b0b5d595da8480bcd09c8865900c57d96d76767266c044a6f5b794b26d46",
    ("sym4", 4): "87d5b46a4709947bf31897c8fe4253353551301095f53ad7fd8d3446426a1c95",
}


def test_graded_kernel_cache_bytes_are_pinned():
    # the cached encodings of these kernels, as written under cache schema 2;
    # a change here must bump cache.SCHEMA_VERSION
    for (spec, degree), digest in _KERNEL_SHA256.items():
        _, ring = _level_zero_ring(spec)
        blob = json.dumps([cache_mod.encode_poly(p) for p in graded_kernel(ring, degree)])
        assert hashlib.sha256(blob.encode()).hexdigest() == digest, (spec, degree)


def _rational_kernel(q, derivations, degree):
    """The kernel by the rational route: D(m) as a Polynomial, its normal form
    q.nf and one rational equation per (derivation, image monomial)."""
    mons = invariants._quotient_basis(q, degree)
    equations = []
    for d in derivations:
        rows: dict = {}
        for col, m in enumerate(mons):
            image = q.nf(d(Polynomial(q.table, {m: Fraction(1)})))
            for mm, c in image.terms.items():
                rows.setdefault(mm, {})[col] = c
        equations.extend(rows.values())
    out = []
    for vec in sparse_nullspace(equations, len(mons)):
        p = Polynomial(q.table, {mons[i]: c for i, c in vec.items()})
        out.append(p * (Fraction(1) / p.leading(GREVLEX)[1]))
    out.sort(key=poly_key)
    return out


def _kernel_cases():
    """(name, rep, ring kind, degrees) for the integer-column kernel; the
    ring kinds are built by ``_kernel_ring``."""
    for spec in ("sym1", "sym2", "sym1+sym0", "sym3", "sym4"):
        yield f"{spec} level 0", spec, "zero", range(1, 6)
    yield "sym1^2 level 0", "sym1^2", "zero", range(1, 7)
    yield "sym3 ambient", "sym3", "ambient", range(1, 6)
    yield "sym1 enveloping, H E F", "sym1", "enveloping", range(1, 5)
    yield "sym2 level 0, D and 2D", "sym2", "doubled", range(1, 6)
    yield "sym1 modulo 3psi + 2x2^2, D", "sym1", "psi", range(1, 7)
    yield "sym1 modulo 3psi + 2x2^2, D and 2D", "sym1", "psi doubled", range(1, 7)


def _kernel_ring(spec, kind):
    rep = parse_rep(spec)
    if kind == "ambient":
        ring = QuotientRing.ambient_tv(rep)
        return ring, (ring.derivation,)
    if kind == "enveloping":
        table = rep.table_tw()
        ders = tuple(sl2_infinitesimal(rep, b, include_w=True) for b in "HEF")
        return QuotientRing(table, Ideal(table, list(sl2_moment_w(rep))), ders[1]), ders
    if kind.startswith("psi"):
        # the invariant 3*psi + 2*x2^2, psi = x1*a1 + x2*a2, has the lead 2*x2^2,
        # so a column reduces with scale 2 under D where it has an odd
        # coefficient at a multiple of x2^2, and with scale 1 under 2D
        table = rep.table_tv()
        x1, x2, a1, a2 = (table.var(name) for name in ("x1", "x2", "a1", "a2"))
        ring = QuotientRing(table, Ideal(table, [3 * (x1 * a1 + x2 * a2) + 2 * x2 ** 2]),
                            ga_derivation(rep, table))
    else:
        _, ring = _level_zero_ring(spec)
    if kind.endswith("doubled"):
        return ring, (ring.derivation, ring.derivation * 2)
    return ring, (ring.derivation,)


@pytest.mark.parametrize("name, spec, kind, degrees", list(_kernel_cases()),
                         ids=[case[0] for case in _kernel_cases()])
def test_integer_columns_match_the_rational_kernel(name, spec, kind, degrees):
    """The kernel from integer columns, one positive scale per column over
    all derivations, equals the rational route's, vector for vector."""
    ring, ders = _kernel_ring(spec, kind)
    for degree in degrees:
        system = invariants._kernel_equations(ring, ders, degree)
        assert invariants._kernel_compute(ring, ders, system) == _rational_kernel(
            ring, ders, degree), (name, degree)


def test_kernel_columns_reduce_with_scales_that_differ_by_derivation(monkeypatch):
    """The ring modulo 3psi + 2x2^2 exercises the column scale: its columns
    reduce with scales above 1, which differ between D and 2D in one column,
    and its kernel vectors mix columns of different scales."""
    ring, ders = _kernel_ring("sym1", "psi doubled")
    scales = []
    reduce_row = Ideal.reduce_row

    def recording(self, work, *args, **kwargs):
        residue, s = reduce_row(self, work, *args, **kwargs)
        scales.append(s)
        return residue, s

    monkeypatch.setattr(Ideal, "reduce_row", recording)
    kernel = invariants._kernel_compute(ring, ders, invariants._kernel_equations(ring, ders, 4))
    columns = invariants._quotient_basis(ring, 4)
    pairs = list(zip(scales[::2], scales[1::2]))
    assert len(pairs) == len(columns)
    column_scale = {m: max(pair) for m, pair in zip(columns, pairs)}
    assert any(a != b for a, b in pairs)
    assert any(len({column_scale[m] for m in p.terms}) > 1 for p in kernel)


def test_kernel_checks_each_vector_once(monkeypatch):
    """The columns are built without Derivation.__call__ or QuotientRing.nf;
    the self-check applies each once per returned vector (the rational route
    applied them once per column: 294 at this degree)."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    _, ring = _level_zero_ring("sym1^2")
    calls = {"derivation": 0, "nf": 0}
    derive, nf = Derivation.__call__, QuotientRing.nf

    def counting_derive(self, f):
        calls["derivation"] += 1
        return derive(self, f)

    def counting_nf(self, f):
        calls["nf"] += 1
        return nf(self, f)

    monkeypatch.setattr(Derivation, "__call__", counting_derive)
    monkeypatch.setattr(QuotientRing, "nf", counting_nf)
    kernel = graded_kernel(ring, 4)
    assert len(invariants._quotient_basis(ring, 4)) == 294
    assert len(kernel) == 90 and calls == {"derivation": 90, "nf": 90}


def test_kernel_self_check_rejects_a_wrong_vector(monkeypatch):
    """A kernel vector that is not invariant raises instead of being returned."""
    _, ring = _level_zero_ring("sym1")
    original = invariants.sparse_nullspace

    def shifted(equations, ncols):
        return [{**v, 0: v.get(0, 0) + 1} for v in original(equations, ncols)]

    monkeypatch.setattr(invariants, "sparse_nullspace", shifted)
    with pytest.raises(AssertionError, match="kernel vector is not invariant"):
        ders = (ring.derivation,)
        invariants._kernel_compute(ring, ders, invariants._kernel_equations(ring, ders, 2))


def test_graded_kernel_of_the_zero_ring_is_empty(tmp_path):
    """When the ideal contains 1 the quotient ring is zero and has no
    invariants, not even the constants; degree 0 stays uncached."""
    rep = parse_rep("sym1")
    t = rep.table_tv()
    ring = QuotientRing(t, Ideal(t, [t.scalar(1)]), ga_derivation(rep, t))
    disk = cache_mod.DiskCache(str(tmp_path))
    cache_mod.set_active_cache(disk)
    try:
        assert graded_kernel(ring, 0) == []
        assert list(tmp_path.iterdir()) == []
        assert graded_kernel(ring, 2) == []
    finally:
        cache_mod.set_active_cache(None)


def test_unversioned_cache_entries_are_not_served(tmp_path):
    # the key the code before the versioned cache computed for this kernel
    _, ring = _level_zero_ring("sym1")
    d = ring.derivation
    payload = {
        "kind": "graded-kernel",
        "table": [list(ring.table.names), list(ring.table.blocks)],
        "ideal": [format_poly(g) for g in sorted(ring.ideal.gens, key=poly_key)],
        "derivations": [[f"{d.table.names[i]}:{format_poly(p)}"
                         for i, p in sorted(d.images.items())]],
        "degree": 2,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    old_key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    disk = cache_mod.DiskCache(str(tmp_path))
    bogus = ring.table.var("x1") ** 2
    disk.put(old_key, [cache_mod.encode_poly(bogus)])
    cache_mod.set_active_cache(disk)
    try:
        cached = graded_kernel(ring, 2)
    finally:
        cache_mod.set_active_cache(None)
    assert bogus not in cached
    assert cached == graded_kernel(ring, 2)


def test_degree_span_dimensions_match_dense_rank():
    sympy = pytest.importorskip("sympy")
    rep, ring = _level_zero_ring("sym2")
    gens = sym2_levelset_invariants(rep)
    bound = 4
    products = {}

    def rec(start, product, degree):
        for i in range(start, len(gens)):
            d = degree + gens[i].degree()
            if d <= bound:
                nxt = product * gens[i]
                products.setdefault(d, []).append(ring.nf(nxt))
                rec(i, nxt, d)

    rec(0, ring.table.one(), 0)
    expected = {}
    for d, ps in products.items():
        monos = sorted({m for p in ps for m in p.terms})
        expected[d] = sympy.Matrix([[p.terms.get(m, 0) for m in monos] for p in ps]).rank()
    rng = random.Random(1512)
    for _ in range(4):
        order = list(gens)
        rng.shuffle(order)
        built = DegreeSpan(ring, order)
        built.extend(bound)
        grown = DegreeSpan(ring, [])
        for g in order:
            grown.add(g)
        assert not grown.add(order[0] ** bound)  # spanned, and extends the span past 4
        assert grown.max_degree == order[0].degree() * bound
        for span in (built, grown):
            assert {d: len(span.rows_by_degree[d]) for d in expected} == expected


class _UnskippedSpan:
    """The oracle of ``DegreeSpan``: its product loop with no skip.  ``add``
    multiplies the new generator by every row of each lower degree, upwards,
    and ``extend`` multiplies every generator by every row."""

    def __init__(self, q, gens, max_degree):
        self.q, self.max_degree = q, max_degree
        self.gens = []
        self.rows_by_degree = defaultdict(list)
        self.echelons = defaultdict(SparseEchelon)
        self._insert(0, {(0,) * len(q.table.names): 1})
        for g in gens:
            self.add(g)

    def _insert(self, degree, product):
        nf = self.q.ideal.reduce_row(product, caps=self.q.caps)[0]
        if nf and self.echelons[degree].insert(nf):
            self.rows_by_degree[degree].append(primitive(nf))

    def add(self, g):
        g = self.q.nf(g)
        if g.is_zero() or g.is_constant():
            return
        self.gens.append((g.degree(), primitive(integral(g.terms))))
        for degree in range(g.degree(), self.max_degree + 1):
            self._grow(degree, self.gens[-1:])

    def extend(self, bound):
        for degree in range(self.max_degree + 1, bound + 1):
            self._grow(degree, self.gens)
        self.max_degree = max(self.max_degree, bound)

    def _grow(self, degree, gens):
        for step, g in gens:
            for row in self.rows_by_degree[degree - step]:
                self._insert(degree, mul_terms(row, g))


def _assert_same_span(span, oracle, bound, row_for_row):
    """Equal row counts and reduced echelons in every degree through the
    bound (the rows themselves too, given ``row_for_row``); the span's
    monomials increase in its order, lex with the later generator more
    significant, and every divisor of a kept monomial is kept."""
    n = len(span._gens)
    for d in range(bound + 1):
        rows = span.rows_by_degree[d]
        assert len(rows) == len(oracle.rows_by_degree[d]), d
        if row_for_row:
            assert rows == oracle.rows_by_degree[d], d
        assert span._echelons[d].reduced() == oracle.echelons[d].reduced(), d
        monos = span._monos_by_degree[d]
        keys = [tuple(mono.count(i) for i in reversed(range(n))) for mono in monos]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), d
        for mono in monos:
            assert all(mono[:k] + mono[k + 1:] in span._standard for k in range(len(mono)))


def _check_span_constructions(q, gens, bound):
    """The span through ``bound`` built by ``add`` (the generators in their
    order, and with the higher degrees first, so a low-degree generator is
    added after higher ones) and extended to ``bound``, against the oracle
    built through ``bound``; and grown by ``extend`` over all or part of the
    generators before ``add`` adjoins the rest, against the oracle built the
    same way."""
    high_first = sorted(gens, key=lambda g: -g.degree())
    for order in (gens, high_first):
        span = DegreeSpan(q, order)
        span.extend(bound)
        _assert_same_span(span, _UnskippedSpan(q, order, bound), bound, row_for_row=True)
    half = len(gens) // 2
    for head, tail in ((gens, []), (high_first[:half], high_first[half:])):
        span, oracle = DegreeSpan(q, head), _UnskippedSpan(q, head, 0)
        span.extend(bound)
        oracle.extend(bound)
        for g in tail:
            span.add(g)
            oracle.add(g)
        _assert_same_span(span, oracle, bound, row_for_row=False)


_LEVEL_ZERO_SPECS = ("sym1", "sym2", "sym1+sym0", "sym1^2", "sym2+sym0")


@pytest.mark.parametrize("spec", _LEVEL_ZERO_SPECS)
def test_degree_span_matches_the_unskipped_product_loop_at_level_zero(monkeypatch, spec):
    """The generators of the level-0 chain and of each normalization
    component's chain, through degree 7."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    for q in _chain_rings(parse_rep(spec), 0):
        _check_span_constructions(q, list(essen_derksen(q).generators), 7)


@pytest.mark.parametrize("spec", suite._ORACLE_REPS)
def test_degree_span_matches_the_unskipped_product_loop_on_ambient_rings(monkeypatch, spec):
    """The generators of the oracle criterion's ambient chains, through
    degree 5 (4 for sym3)."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    q = QuotientRing.ambient_tv(parse_rep(spec), CHAIN_CAPS)
    gens = list(essen_derksen(q, certify_degree=4).generators)
    _check_span_constructions(q, gens, 4 if spec == "sym3" else 5)


def _grown_spans(q, gens, bound):
    """The span of ``gens`` through ``bound`` grown four ways: every
    generator added, then one ``extend``; extended one degree further after
    each ``add``; extended first, so ``add`` grows every product of a
    generator as it arrives; and extended over half the generators before
    ``add`` adjoins the rest."""
    at_once = DegreeSpan(q, gens)
    at_once.extend(bound)
    stepwise = DegreeSpan(q, [])
    for i, g in enumerate(gens):
        stepwise.add(g)
        stepwise.extend(min(i + 1, bound))
    stepwise.extend(bound)
    spans = [at_once, stepwise]
    for head in (0, len(gens) // 2):
        span = DegreeSpan(q, gens[:head])
        span.extend(bound)
        for g in gens[head:]:
            span.add(g)
        spans.append(span)
    return spans


# (rep, level or None for the ambient ring, degree bound): the generator sets
# of the level-0 chains with their normalization components, and of the
# oracle criterion's ambient chains
_GROWTH_CASES = ([(spec, 0, 7) for spec in _LEVEL_ZERO_SPECS]
                 + [(spec, None, 4 if spec == "sym3" else 5) for spec in suite._ORACLE_REPS])


@pytest.mark.parametrize("spec, level, bound", _GROWTH_CASES,
                         ids=[f"{spec} {'ambient' if level is None else 'level 0'}"
                              for spec, level, _ in _GROWTH_CASES])
def test_span_rows_do_not_depend_on_growth_order(monkeypatch, spec, level, bound):
    """However a span is grown to ``bound`` (``_grown_spans``), for the
    generators in their order and with the higher degrees first, it has the
    same generators and, in every degree, the same rows with the same
    generator monomials, row for row."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    rep = parse_rep(spec)
    if level is None:
        q = QuotientRing.ambient_tv(rep, CHAIN_CAPS)
        chains = [(q, essen_derksen(q, certify_degree=4).generators)]
    else:
        chains = [(q, essen_derksen(q).generators) for q in _chain_rings(rep, level)]
    for q, gens in chains:
        for order in (list(gens), sorted(gens, key=lambda g: -g.degree())):
            first, *others = _grown_spans(q, order, bound)
            for span in others:
                assert span._gens == first._gens
                assert span.max_degree == first.max_degree
                for d in range(first.max_degree + 1):
                    assert span.rows_by_degree[d] == first.rows_by_degree[d], d
                    assert span._monos_by_degree[d] == first._monos_by_degree[d], d


def test_degree_span_inserts_only_standard_products(monkeypatch, tmp_path):
    """The sym1^2 level-0 analysis, on a fresh cache, sends 1 914 products
    through ``DegreeSpan._insert`` and keeps 1 820 rows.  With the peel at
    the fixed degree 8 it sent 4 270 and kept 4 059, and the product loop
    with no skip sent 7 595 for those rows.  48 of the inserts (165 then)
    are the own products (i,) of generators that ``add`` finds in the span
    already, one membership question each.  The redundant generator of
    ``DegreeSpan(q, [g, g])`` costs one insert, (g,) itself, made before the
    span is extended to degree 2."""
    from gasymp.report import RunConfig, analyze, parse_level
    calls, kept = [], []
    original = DegreeSpan._insert

    def counting(self, degree, product, mono):
        before = len(self.rows_by_degree[degree])
        original(self, degree, product, mono)
        calls.append(mono)
        kept.extend(self.rows_by_degree[degree][before:])

    monkeypatch.setattr(DegreeSpan, "_insert", counting)
    monkeypatch.setattr(cache_mod, "_active_cache", cache_mod.DiskCache(str(tmp_path)))
    analyze(RunConfig(rep_spec="sym1^2", level=parse_level("0")))
    assert (len(calls), len(kept)) == (1914, 1820)
    calls.clear()
    rep, ring = _level_zero_ring("sym2")
    g = sym2_levelset_invariants(rep)[0]
    DegreeSpan(ring, [g, g]).extend(2)
    assert calls == [(), (0,), (1,), (0, 0)]


def _contains_then_add_minimalize(q, gens):
    """The oracle of ``_minimalize``: the loop it ran before ``DegreeSpan.add``
    answered membership.  Each generator's integer normal form is read by the
    span (``spans``, which extends it to the generator's degree); one outside
    is kept and adjoined again from its rational normal form, its products
    built through the degree the span has reached."""
    span = DegreeSpan(q, [])
    kept = []
    for g in sorted(gens, key=lambda g: (g.degree(), poly_key(g))):
        if not span.spans(span._nf(integral(g.terms))):
            kept.append(g)
            g = q.nf(g)
            span._gens.append((g.degree(), primitive(integral(g.terms))))
            for degree in range(g.degree(), span.max_degree + 1):
                span._grow(degree, len(span._gens) - 1)
    return invariants._dedup(kept), span


# (rep, level or None for the ambient ring): the level-0 chains with their
# normalization components, and the ambient chains of the oracle criterion
# but sym3, the slowest
_MINIMALIZE_CASES = ([(spec, 0) for spec in _LEVEL_ZERO_SPECS]
                     + [(spec, None) for spec in suite._ORACLE_REPS if spec != "sym3"])


@pytest.mark.parametrize("spec, level", _MINIMALIZE_CASES,
                         ids=[f"{spec} {'ambient' if level is None else 'level 0'}"
                              for spec, level in _MINIMALIZE_CASES])
def test_minimalize_matches_contains_then_add(monkeypatch, spec, level):
    """Every generator list the chain minimalizes gives the oracle's kept
    generators and the oracle's span: the same generators, bound, rows and
    row monomials in every degree."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    calls = []
    original = invariants._minimalize

    def recording(q, gens):
        calls.append((q, list(gens)))
        return original(q, gens)

    monkeypatch.setattr(invariants, "_minimalize", recording)
    if level is None:
        essen_derksen(QuotientRing.ambient_tv(parse_rep(spec), CHAIN_CAPS), certify_degree=4)
    else:
        for q in _chain_rings(parse_rep(spec), level):
            essen_derksen(q)
    assert calls
    for q, gens in calls:
        kept, span = original(q, gens)
        want, oracle = _contains_then_add_minimalize(q, gens)
        assert [format_poly(g) for g in kept] == [format_poly(g) for g in want]
        assert span.max_degree == oracle.max_degree and span._gens == oracle._gens
        for d in range(span.max_degree + 1):
            assert span.rows_by_degree[d] == oracle.rows_by_degree[d], d
            assert span._monos_by_degree[d] == oracle._monos_by_degree[d], d


def test_graded_kernel_requires_homogeneous_data():
    rep = parse_rep("sym1")
    table = rep.table_tv()
    ring = QuotientRing(table, Ideal(table, [ga_moment(rep) - 1]), ga_derivation(rep, table))
    with pytest.raises(ValueError):
        graded_kernel(ring, 2)


def test_essen_sym1_ambient():
    report = essen_derksen(QuotientRing.ambient_tv(parse_rep("sym1"), CHAIN_CAPS), 4)
    assert report.termination == "Terminated"
    table = parse_rep("sym1").table_tv()
    expected = [table.var("x2"), table.var("a1"),
                table.var("x1") * table.var("a1") + table.var("x2") * table.var("a2")]
    ambient = QuotientRing.ambient_tv(parse_rep("sym1"))
    assert algebra_equal_up_to_degree(ambient, list(report.generators), expected, 6)


def test_algebra_equality_needs_equal_dimensions_and_one_containment():
    """On the ambient sym1 ring, with h = x1*a1 + x2*a2: k[x2, h] and
    k[a1, h] have equal dimensions in every degree (one in degree 1, two in
    degree 2) but are unequal, as x2 is not in k[a1, h]; k[x2] lies in
    k[x2, a1] with a smaller degree-1 piece; k[x2, a1] equals
    k[x2 + a1, x2 - a1]."""
    ambient = QuotientRing.ambient_tv(parse_rep("sym1"))
    x1, x2, a1, a2 = (ambient.table.var(v) for v in ("x1", "x2", "a1", "a2"))
    h = x1 * a1 + x2 * a2
    cases = [([x2, h], [a1, h], False), ([x2], [x2, a1], False),
             ([x2, a1], [x2 + a1, x2 - a1], True)]
    for gens_a, gens_b, equal in cases:
        assert algebra_equal_up_to_degree(ambient, gens_a, gens_b, 3) is equal
        assert algebra_equal_up_to_degree(ambient, gens_b, gens_a, 3) is equal


def test_essen_sym1_zero_level_caps():
    _, ring = _level_zero_ring("sym1", CHAIN_CAPS)
    report = essen_derksen(ring, certify_degree=4)
    assert report.termination == "CapReached"
    assert any("zerodivisor" in note for note in report.notes)
    # mined generators include the intrinsic non-extending invariants
    table = ring.table
    span = DegreeSpan(ring, list(report.generators))
    span.extend(4)
    assert not span.add(table.var("x1") * table.var("a1"))
    assert not span.add(table.var("x2") * table.var("a2") ** 2)


def test_essen_sym2_zero_level_matches_table():
    rep, ring = _level_zero_ring("sym2", CHAIN_CAPS)
    report = essen_derksen(ring, certify_degree=6)
    assert report.termination == "Terminated"
    fs = sym2_levelset_invariants(rep)
    assert algebra_equal_up_to_degree(ring, list(report.generators), fs, 6)
    assert report.certified_degree >= 6


def test_chain_builds_one_span_per_generator_set(monkeypatch):
    """Each generator set of the chain gets one product span, built while it
    is minimalized and read by the peel step, the certificate round and the
    final degree certificate, which builds none of its own."""
    built = []
    original = DegreeSpan.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cache_mod, "_active_cache", None)
    monkeypatch.setattr(DegreeSpan, "__init__", counting)
    report = essen_derksen(QuotientRing.level_set(parse_rep("sym2"), 0))
    assert report.termination == "Terminated"
    assert len(built) == 2


def test_each_kernel_system_is_built_once(monkeypatch, tmp_path):
    """The degree walk builds the kernel system of a (ring, degree) once: its
    count, the zerodivisor branch's mining and a short degree's residual read
    the same system.  The sym1, sym2, sym1+sym0 and sym1^2 level-0 analyses,
    each on a fresh cache, build 46 systems, no two alike."""
    from gasymp.report import RunConfig, analyze, parse_level

    built = []
    original = invariants._kernel_equations

    def counting(q, ders, degree):
        built.append(invariants._ring_key(q, ders, kind="kernel-system", degree=degree))
        return original(q, ders, degree)

    monkeypatch.setattr(invariants, "_kernel_equations", counting)
    for spec in ("sym1", "sym2", "sym1+sym0", "sym1^2"):
        monkeypatch.setattr(cache_mod, "_active_cache", cache_mod.DiskCache(str(tmp_path / spec)))
        analyze(RunConfig(rep_spec=spec, level=parse_level("0")))
    assert len(built) == len(set(built)) == 46


def _kernel_misses(q, span, degrees, ders):
    """The vector walk the degree certificate ran before it counted: yield
    (d, p) for each graded-kernel vector p of each degree d of ``degrees``
    that ``span`` does not contain, after adding it to the span, so it
    counts for the rest of the walk."""
    for d in degrees:
        for p in graded_kernel(q, d, ders):
            if span.add(p):
                yield d, p


def _walk_certificate(q, gens, degree_bound):
    """The oracle of the degree certificate, the vector walk it ran before it
    counted: (ok, certified degree, residual) from the first graded-kernel
    vector outside the generators' product span."""
    span = DegreeSpan(q, gens)
    span.extend(degree_bound)
    miss = next(_kernel_misses(q, span, range(1, degree_bound + 1), (q.derivation,)), None)
    if miss is None:
        return True, degree_bound, None
    return False, miss[0] - 1, miss[1]


def _mine_then_walk(q, gens, mine_through, degree_bound):
    """The oracle of the zerodivisor branch's mining: every graded-kernel
    vector outside the span through ``mine_through`` joins the generators,
    then the vector walk certifies them."""
    gens = list(gens)
    span = DegreeSpan(q, gens)
    span.extend(mine_through)
    for _, p in _kernel_misses(q, span, range(1, mine_through + 1), (q.derivation,)):
        gens.append(p)
    return gens, _walk_certificate(q, gens, degree_bound)


# (rep, level or None for the ambient ring, certify degree): the level-0
# analyses with their normalization components, and the ambient rings of the
# oracle criterion
_CERTIFICATE_CASES = ([(spec, 0, 6) for spec in
                       ("sym1", "sym2", "sym1+sym0", "sym1^2", "sym2+sym0")]
                      + [(spec, None, 4) for spec in suite._ORACLE_REPS])


@pytest.mark.parametrize("spec, level, bound", _CERTIFICATE_CASES,
                         ids=[f"{spec} {'ambient' if level is None else 'level 0'}"
                              for spec, level, _ in _CERTIFICATE_CASES])
def test_rank_certificate_matches_the_vector_walk(monkeypatch, tmp_path, spec, level, bound):
    """The certificate by counting gives the oracle's verdict, certified
    degree and residual on each chain's final generators, and on each set
    with one generator dropped; mining through ``MINE_DEGREE`` from each set
    adds the oracle's generators and certifies what it does.  A private cache
    serves the oracle's graded kernels from one drop to the next."""
    monkeypatch.setattr(cache_mod, "_active_cache", cache_mod.DiskCache(str(tmp_path)))
    rep = parse_rep(spec)
    if level is None:
        rings = [QuotientRing.ambient_tv(rep, CHAIN_CAPS)]
    else:
        rings = _chain_rings(rep, level)
    short = 0
    for q in rings:
        gens = list(essen_derksen(q, bound).generators)
        for subset in [gens] + [gens[:i] + gens[i + 1:] for i in range(len(gens))]:
            verdict, certified = verify_generators(q, subset, bound)
            got = (verdict.ok, certified, verdict.residuals[0] if not verdict.ok else None)
            assert got == _walk_certificate(q, subset, bound), [format_poly(g) for g in subset]
            short += not verdict.ok
            mined = list(subset)
            verdict, certified = invariants._certify(
                q, mined, DegreeSpan(q, subset), (q.derivation,), bound,
                invariants.MINE_DEGREE)
            got = (verdict.ok, certified, verdict.residuals[0] if not verdict.ok else None)
            assert (mined, got) == _mine_then_walk(q, subset, invariants.MINE_DEGREE, bound)
    assert short >= len(rings)  # the walk after a short count ran


def test_rank_certificate_checks_the_span_against_the_equations(monkeypatch):
    """A span row the equations do not annihilate raises, and so does a rank
    that leaves the kernel smaller than the span."""
    rep, ring = _level_zero_ring("sym2")
    ders = (ring.derivation,)
    span = DegreeSpan(ring, sym2_levelset_invariants(rep))
    span.extend(2)
    system = invariants._kernel_equations(ring, ders, 2)
    assert invariants._rank_certifies(span, 2, system)
    mons, equations, scales = invariants._kernel_equations(ring, ders, 2)
    used = {mons.index(m) for row in span.rows_by_degree[2] for m in row}
    i, col = next((i, c) for i, eq in enumerate(equations) for c in eq if c in used)
    del equations[i][col]
    with pytest.raises(AssertionError, match="span row is not invariant"):
        invariants._rank_certifies(span, 2, (mons, equations, scales))

    class Overranked(SparseEchelon):
        def __len__(self):
            return super().__len__() + 1

    monkeypatch.setattr(invariants, "SparseEchelon", Overranked)
    with pytest.raises(AssertionError, match="span exceeds the kernel"):
        invariants._rank_certifies(span, 2, system)


def test_capped_chain_certifies_on_its_own_span(monkeypatch):
    """A chain span holds exactly its generators' products: the certificate
    round only reads it, like the peel step, so a resource cap that stops the
    round after it returned a candidate leaves the span of the generators the
    chain reports, and the final certificate reads that span.  Peeling is
    off, so the round itself finds the sym2 level-0 generators; the cap hits
    at its second returned candidate."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    monkeypatch.setattr(invariants, "_peel_candidates", lambda *args: [])
    original_round, original_filter = invariants._certificate_round, invariants._new_invariant
    original_verify, original_add = invariants.verify_generators, DegreeSpan.add
    in_round, adds, returned, given = [], [], [], []

    def recording_round(*args):
        in_round.append(args[2])
        try:
            return original_round(*args)
        finally:
            in_round.pop()

    def capped_filter(*args):
        b = original_filter(*args)
        if b is not None and in_round:
            returned.append(b)
            if len(returned) == 2:
                raise NotCompleted("test cap")
        return b

    def counting_add(span, g):
        if in_round:
            adds.append(g)
        return original_add(span, g)

    def recording_verify(q, gens, degree_bound, span=None):
        # the span as it is received, before the certificate grows it
        given.append((span, list(span._gens), span.max_degree,
                      {d: list(rows) for d, rows in span.rows_by_degree.items()},
                      {d: list(monos) for d, monos in span._monos_by_degree.items()}))
        return original_verify(q, gens, degree_bound, span=span)

    monkeypatch.setattr(invariants, "_certificate_round", recording_round)
    monkeypatch.setattr(invariants, "_new_invariant", capped_filter)
    monkeypatch.setattr(DegreeSpan, "add", counting_add)
    monkeypatch.setattr(invariants, "verify_generators", recording_verify)
    _, ring = _level_zero_ring("sym2")
    report = essen_derksen(ring, certify_degree=6)
    assert report.notes == ("resource cap hit: test cap",)
    assert len(returned) == 2 and adds == []
    (span, span_gens, degree, rows, monos), = given
    assert span is not None and degree > 0
    gens = list(report.generators)
    # in the order ``_minimalize`` adds them: a span's rows follow that order
    fresh = DegreeSpan(ring, sorted(gens, key=lambda g: (g.degree(), poly_key(g))))
    fresh.extend(degree)
    assert span_gens == fresh._gens
    for d in range(degree + 1):
        assert rows.get(d, []) == fresh.rows_by_degree[d], d
        assert monos.get(d, []) == fresh._monos_by_degree[d], d
    assert report.certified_degree == _walk_certificate(ring, gens, 6)[1] == 1


def test_round_cap_stops_the_chain(monkeypatch):
    """The ambient sym2 chain terminates in its second round, so a round cap
    of one stops it honestly with CapReached and a note naming the cap."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    ring = QuotientRing.ambient_tv(parse_rep("sym2"), CHAIN_CAPS)
    for cap, termination in ((1, "CapReached"), (2, "Terminated")):
        monkeypatch.setattr(invariants, "MAX_ROUNDS", cap)
        report = essen_derksen(ring, certify_degree=4)
        assert report.termination == termination
        assert ("round cap 1 reached" in report.notes) == (cap == 1)


def test_generator_degree_cap_skips_candidates(monkeypatch):
    """Below its relations' degrees, the generator degree cap makes the
    certificate round skip candidates: the ambient and level-0 sym2 chains
    then end in CapReached with a note naming the cap, never in Terminated,
    with the generators and certified degree of the uncapped run."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    rep = parse_rep("sym2")
    rings = (QuotientRing.ambient_tv(rep), QuotientRing.level_set(rep, 0))
    uncapped = [essen_derksen(ring) for ring in rings]
    assert all(report.termination == "Terminated" for report in uncapped)
    for cap in (0, 2):
        monkeypatch.setattr(invariants, "MAX_GENERATOR_DEGREE", cap)
        for ring, full in zip(rings, uncapped):
            report = essen_derksen(ring)
            assert report.termination == "CapReached"
            assert f"candidates above degree {cap} were skipped" in report.notes
            assert report.generators == full.generators
            assert report.certified_degree == full.certified_degree


def test_chain_decides_each_candidate_once(monkeypatch):
    """A repeated candidate or strip quotient is judged from the chain's
    tried set, without stripping or lifting it again: the sym2 chain
    proposes 255 nonzero candidates, strips 82 monic classes (scalar
    multiples are one class) and lifts 84, each once, whether it came in as
    a candidate or as a quotient.  Only the strips and lifts of the chain's
    filter (``_new_invariant``) count, not those of the exponential images.
    The chain makes 95 lifts in all.  With the peel at the fixed degree 8
    it proposed 632, stripped 212, lifted 221 and made 232 lifts; before
    strip quotients joined the tried set it stripped 221 classes and made
    467 lifts, 456 of them in the filter."""
    stripped, lifted, filtering, proposed = [], [], [], []
    calls = {"lift_row": 0}
    original_strip, original_filter = invariants._strip_f, invariants._new_invariant
    original_lift = Ideal.lift_row

    def recording(q, b, *args, **kwargs):
        if filtering:
            stripped.append(invariants._monic_class(b))  # before the strip consumes b
        return original_strip(q, b, *args, **kwargs)

    def candidate_filter(*args, **kwargs):
        proposed.append(1)
        filtering.append(1)
        try:
            return original_filter(*args, **kwargs)
        finally:
            filtering.pop()

    def lift(ideal, work, *args, **kwargs):
        calls["lift_row"] += 1
        if filtering:
            lifted.append(invariants._monic_class(work))
        return original_lift(ideal, work, *args, **kwargs)

    monkeypatch.setattr(cache_mod, "_active_cache", None)
    monkeypatch.setattr(invariants, "_strip_f", recording)
    monkeypatch.setattr(invariants, "_new_invariant", candidate_filter)
    monkeypatch.setattr(Ideal, "lift_row", lift)
    report = essen_derksen(QuotientRing.level_set(parse_rep("sym2"), 0))
    assert len(proposed) == 255
    assert len(set(stripped)) == len(stripped) == 82
    assert len(set(lifted)) == len(lifted) == 84
    assert calls == {"lift_row": 95}
    assert report.termination == "Terminated"
    assert report.certified_degree == 6
    assert [format_poly(g) for g in report.generators] == [
        "a1", "a2^2 - 4*a1*a3", "x1*a1 - x3*a3",
        "x1*a2^2 - 4*x1*a1*a3 + 2*x2*a2*a3 + 4*x3*a3^2",
        "x1^2*a1 + 1/2*x1*x2*a2 + x2^2*a3 - x1*x3*a3",
        "x2*a2 + 2*x3*a3", "x2^2 - x1*x3", "x3"]


def _full_back_substitution_peel(span, div, max_degree):
    """The peel read from the full ``SparseEchelon.reduced()`` of every span
    row, re-echeloned under the (block, monomial) key: per degree, the rows
    pivoted in the divisible block in increasing pivot order, shifted down by
    the divisor."""
    pos = invariants._single_variable(div)
    found = []
    for d in range(2, max_degree + 1):
        ech = SparseEchelon()
        for row in span.rows_by_degree[d]:
            ech.insert({(0 if m[pos] == 0 else 1, m): c for m, c in row.items()})
        rows = ech.reduced()
        for block, p in sorted(rows):
            if block:
                found.append({m[:pos] + (m[pos] - 1,) + m[pos + 1:]: c
                              for (_, m), c in rows[block, p].items()})
    return found


# the ambient sym3 chain and the level-0 chains with their normalization
# components: (id, spec, level or None for the ambient ring, peel degree)
_PEEL_CASES = ([("sym3 ambient", "sym3", None, 6)]
               + [(f"{spec} level 0", spec, 0, 8) for spec in _LEVEL_ZERO_SPECS])


@pytest.mark.parametrize("spec, level, bound", [case[1:] for case in _PEEL_CASES],
                         ids=[case[0] for case in _PEEL_CASES])
def test_peel_matches_the_full_back_substitution(monkeypatch, spec, level, bound):
    """On the span of each chain's generators, by every slice image alone and
    by all of them at once, the peel's rows equal, one for one, those of the
    oracle that re-echelons every span row per divisor; both come in
    increasing pivot order, degree by degree, divisor by divisor."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    rep = parse_rep(spec)
    if level is None:
        rings = [(QuotientRing.ambient_tv(rep, CHAIN_CAPS), 4)]
    else:
        rings = [(q, 6) for q in _chain_rings(rep, level)]
    for q, certify in rings:
        gens = essen_derksen(q, certify).generators
        images = [image for _, image, _, _ in
                  invariants._find_slices(q, invariants._variable_orbits(q))]
        assert images
        expected = []
        for image in images:
            span = DegreeSpan(q, gens)
            span.extend(bound)
            rows = _full_back_substitution_peel(span, image, bound)
            assert invariants._peel_candidates(span, [image], bound) == rows
            expected += rows
        assert expected
        assert invariants._peel_candidates(DegreeSpan(q, gens), images, bound) == expected


def test_peel_work_per_analysis(monkeypatch):
    """Per sym1^2 level-0 analysis with the cache off, the peel inserts 634
    rows into its own echelons (2 311 with the peel at the fixed degree 8,
    12 147 when it also re-echeloned every span row per divisor and round):
    only the rows that carry both a free and a divisible monomial are
    eliminated.  Each peel back-substitutes each span degree piece it reads
    once."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    inside, peels = [], []
    original_peel, original_insert = invariants._peel_candidates, DegreeSpan._insert
    original_echelon_insert, original_reduced = SparseEchelon.insert, SparseEchelon.reduced
    counts = {"insert": 0}

    def peel(span, divisors, max_degree):
        reduced = []
        peels.append((span, max_degree, reduced))
        inside.append(reduced)
        try:
            return original_peel(span, divisors, max_degree)
        finally:
            inside.pop()

    def span_insert(*args):
        inside.append(None)  # the span's own inserts, as the peel extends it
        try:
            return original_insert(*args)
        finally:
            inside.pop()

    def echelon_insert(ech, row):
        counts["insert"] += bool(inside and inside[-1] is not None)
        return original_echelon_insert(ech, row)

    def reduced(ech, *args):
        if inside and inside[-1] is not None:
            inside[-1].append(ech)
        return original_reduced(ech, *args)

    monkeypatch.setattr(invariants, "_peel_candidates", peel)
    monkeypatch.setattr(DegreeSpan, "_insert", span_insert)
    monkeypatch.setattr(SparseEchelon, "insert", echelon_insert)
    monkeypatch.setattr(SparseEchelon, "reduced", reduced)
    essen_derksen(QuotientRing.level_set(parse_rep("sym1^2"), 0))
    assert counts == {"insert": 634}
    assert len(peels) == 2 and len({id(span) for span, _, _ in peels}) == 2
    for span, max_degree, echelons in peels:
        pieces = {id(span._echelons[d]) for d in range(2, max_degree + 1)}
        assert sorted(id(ech) for ech in echelons if id(ech) in pieces) == sorted(pieces)


def _record_reach(monkeypatch) -> list:
    """The peel degree of every ``_peel_candidates`` call, in call order."""
    reaches, original = [], invariants._peel_candidates

    def peel(span, divisors, max_degree):
        reaches.append(max_degree)
        return original(span, divisors, max_degree)

    monkeypatch.setattr(invariants, "_peel_candidates", peel)
    return reaches


# (id, spec, level or None for the ambient ring, the reach of each round per
# chain ring): the level-0 chains with their normalization components, whose
# reducible level sets take the zerodivisor branch and peel nothing, at
# certify degree 6; the ambient chains of the oracle criterion at degree 4
_REACH_CASES = ([(f"{spec} level 0", spec, 0, reaches) for spec, reaches in (
                    ("sym1", [[], [6], [6]]), ("sym2", [[6, 6]]),
                    ("sym1+sym0", [[], [6], [6]]), ("sym1^2", [[6, 6]]),
                    ("sym2+sym0", [[6, 6]]))]
                + [(f"{spec} ambient", spec, None, [reaches]) for spec, reaches in (
                    ("sym1", [4]), ("sym1+sym0", [4]), ("sym1+sym0^2", [4]),
                    ("sym1^2", [4]), ("sym2", [6, 6]), ("sym2+sym0", [6, 6]),
                    ("sym3", [8, 8, 8, 8]))])


@pytest.mark.parametrize("spec, level, want", [case[1:] for case in _REACH_CASES],
                         ids=[case[0] for case in _REACH_CASES])
def test_peel_reach_per_chain(monkeypatch, spec, level, want):
    """The peel's reach starts at twice the highest degree of the first
    minimalized generators, at least the certify degree, and on these chains
    it stays there.
    The level-0 chains peel to 6, the degree their final certificate grows
    the span to anyway, where the fixed peel degree grew every round's span
    to 8; only the ambient sym3 chain, whose discovery needs degree 8, still
    peels there."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    reaches = _record_reach(monkeypatch)
    rep = parse_rep(spec)
    if level is None:
        rings = [(QuotientRing.ambient_tv(rep, CHAIN_CAPS), 4)]
    else:
        rings = [(q, 6) for q in _chain_rings(rep, level)]
    got = []
    for q, certify in rings:
        reaches.clear()
        essen_derksen(q, certify)
        got.append(list(reaches))
    assert got == want


def test_peel_reach_climbs_after_a_generator_from_its_top_degree(monkeypatch):
    """The sym1^2 level-0 chain at certify degree 4 starts its reach at 4
    (its first generators have degree 2) and keeps a generator from its top
    peeled degree in each of its first two rounds, so it peels 4, 5 and 6.
    Its generators, status, notes and certified degree are those of the
    fixed peel degree 8 the chain used before."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    ring = QuotientRing.level_set(parse_rep("sym1^2"), 0)
    reaches = _record_reach(monkeypatch)
    report = essen_derksen(ring, certify_degree=4)
    assert reaches == [4, 5, 6]
    reach_peel = invariants._peel_candidates
    monkeypatch.setattr(invariants, "_peel_candidates",
                        lambda span, divisors, _: reach_peel(span, divisors, 8))
    fixed = essen_derksen(ring, certify_degree=4)
    assert reaches[3:] == [8, 8]  # the fixed degree finds them in one round
    assert report == fixed
    assert report.termination == "Terminated" and report.certified_degree == 4


@pytest.mark.parametrize("certify", [1, 2])
def test_peel_reach_does_not_start_at_the_certify_degree(monkeypatch, certify):
    """At a certify degree below twice the first generators' degree the reach
    still starts there: the sym2 level-0 chain peels to 6 and keeps
    ``x1*a1 - x3*a3``.  A reach that started at the certify degree keeps
    ``x1*a1 + 1/2*x2*a2`` in its place."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    reaches = _record_reach(monkeypatch)
    report = essen_derksen(QuotientRing.level_set(parse_rep("sym2"), 0), certify)
    assert set(reaches) == {6}
    names = [format_poly(g) for g in report.generators]
    assert "x1*a1 - x3*a3" in names and "x1*a1 + 1/2*x2*a2" not in names


@pytest.mark.parametrize("spec", _LEVEL_ZERO_SPECS)
def test_peel_changes_no_answer_of_its_span(monkeypatch, spec):
    """A peel back-substitutes the span's echelons in place.  After it, each
    span the level-0 chain peeled has the generators, rows and generator
    monomials of a fresh span over the same generators, and its membership
    test reads every candidate judged against it, every row of the fresh
    span and every standard monomial of degree 1 to 3 as the fresh span
    does."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    original_peel, original_filter = invariants._peel_candidates, invariants._new_invariant
    peeled, candidates = [], defaultdict(list)  # span id -> the rows judged against it

    def peel(span, divisors, max_degree):
        peeled.append(span)
        return original_peel(span, divisors, max_degree)

    def candidate_filter(q, b, f_ideal, span, tried):
        candidates[id(span)].append(dict(b))  # before the filter consumes b
        return original_filter(q, b, f_ideal, span, tried)

    monkeypatch.setattr(invariants, "_peel_candidates", peel)
    monkeypatch.setattr(invariants, "_new_invariant", candidate_filter)
    for q in _chain_rings(parse_rep(spec), 0):
        essen_derksen(q)
    monkeypatch.undo()
    assert peeled and candidates
    verdicts = set()
    for span in peeled:
        q = span.q
        fresh = DegreeSpan(q, [Polynomial(q.table, g) for _, g in span._gens])
        fresh.extend(span.max_degree)
        assert fresh._gens == span._gens
        for d in range(span.max_degree + 1):
            assert fresh.rows_by_degree[d] == span.rows_by_degree[d], d
            assert fresh._monos_by_degree[d] == span._monos_by_degree[d], d
        rows = [row for d in range(span.max_degree + 1) for row in fresh.rows_by_degree[d]]
        monomials = [{m: 1} for d in (1, 2, 3) for m in invariants._quotient_basis(q, d)]
        for row in rows + candidates[id(span)] + monomials:
            verdict = span.spans(dict(row))
            assert verdict == fresh.spans(dict(row))
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_candidate_invariance_is_checked_in_integers(monkeypatch):
    """The filter's integer check (D(b) through ``_derive_row``, reduced by
    ``Ideal.reduce_row``) agrees with ``QuotientRing.is_invariant`` on each
    candidate the level-0 chains return (those of sym1 come from its
    exponential images alone), and each of them with one term doubled, which
    is not invariant, raises in the filter."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    original_filter = invariants._new_invariant
    returned = []

    def candidate_filter(q, b, f_ideal, span, tried):
        p = original_filter(q, b, f_ideal, span, tried)
        if p is not None:
            returned.append((q, p, f_ideal, span))
        return p

    monkeypatch.setattr(invariants, "_new_invariant", candidate_filter)
    for spec in _LEVEL_ZERO_SPECS:
        for q in _chain_rings(parse_rep(spec), 0):
            essen_derksen(q)
    monkeypatch.undo()

    def integer_check(q, row):
        images = invariants._integer_images(q.derivation)
        return not q.ideal.reduce_row(invariants._derive_row(images, row), caps=q.caps)[0]

    assert returned
    for q, p, f_ideal, span in returned:
        row = primitive(integral(p.terms))
        assert integer_check(q, row) and q.is_invariant(p)
        m = max(row)
        perturbed = {**row, m: 2 * row[m]}  # p plus a multiple of one of its terms
        assert not integer_check(q, perturbed)
        assert not q.is_invariant(Polynomial(q.table, perturbed))
        with pytest.raises(AssertionError, match="chain candidate not invariant"):
            invariants._new_invariant(q, perturbed, f_ideal, span, set())


def _long_division(f, g):
    """f / g by leading terms alone under GREVLEX, or None when g does not
    divide f."""
    rem, quot = f, f.table.zero()
    gm, gc = g.leading(GREVLEX)
    while not rem.is_zero():
        rm, rc = rem.leading(GREVLEX)
        if any(a > b for a, b in zip(gm, rm)):
            return None
        piece = Polynomial(f.table, {tuple(b - a for a, b in zip(gm, rm)): rc / gc})
        quot, rem = quot + piece, rem - piece * g
    return quot


def _two_query_strip(q, b, f_ideal):
    """The division by the slice image through two queries on two bases: a
    membership test on the reduced basis of ``f_ideal``, then long division
    by f or, when that fails, the first cofactor of the tracked lift.
    Returns the normal form of b and of each quotient, the last one the
    stripped result."""
    f = f_ideal.gens[0]
    steps = []
    while True:
        nf = q.nf(b)
        steps.append(nf)
        if nf.is_zero() or nf.is_constant() or not f_ideal.member(nf, caps=q.caps):
            return steps
        b = _long_division(nf, f)
        if b is None:
            b = f_ideal.lift(nf, caps=q.caps)[0]


def _positive_multiple(p, q):
    """p is a positive scalar multiple of q (zero only of zero)."""
    if not q.terms:
        return not p.terms
    scale = p.leading(GREVLEX)[1] / q.leading(GREVLEX)[1] if p.terms else 0
    return scale > 0 and p == q * scale


def _chain_digest(report):
    payload = [[format_poly(g) for g in report.generators], report.certified_degree,
               report.termination, list(report.notes)]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


# sha256 of (generators, certified degree, termination, notes) of the level-0
# chain and of the chain of each normalization component, as the analysis runs
# them
_LEVEL_ZERO_CHAIN_SHA256 = {
    "sym1": ("332973b4cacc0ec3858778158d34d0bd525e43f18c2fb9aa9c3b6f8e8042dcaf",
             "a3980277d3c361d81ba5fb60dc905a19f4331767d5af2a082672329f2b185dd9",
             "6379d782c7cae00cd8ef0fe19f532b3ee93d5c2877a8480cbfc5180d59f39e59"),
    "sym2": ("5631d422462195171862fe0874eb75aadb52646bcf944b6fa2679ce90022c7bc",),
    "sym1+sym0": ("c2b2aa71d5338d78519e34fbc9833a62ba02563d0338fd08ba2c5f8ef18da656",
                  "4b9b079a339cf76792c61a51601f537ed756bc76f36b2d1fcac22a511f752166",
                  "624ad80d48c3666abdfe6d579eecf1fe05a9bdb630b4a2836f45737ad099bc02"),
    "sym1^2": ("65656fc8f49b7d4f538325e2451d8e84ce6ee9df1c346e85b86e1a7757e274b8",),
}


@pytest.mark.parametrize("spec", list(_LEVEL_ZERO_CHAIN_SHA256))
def test_level_zero_chains_strip_by_lift_alone(monkeypatch, spec):
    """``_strip_f`` divides by the lift alone, with no membership test.
    Every polynomial a level-0 chain strips, over (f) + I in its filter and
    over (f) for its exponential images, is an integer normal form.  A strip
    that runs to its end comes out as a positive multiple of what the
    two-query route gives; one that ends early, at a quotient of the chain's
    tried set, took only steps of that route: each quotient whose class it
    tested is a positive multiple of the route's quotient at that step.  The
    chains' outputs are pinned."""
    inside, stripped = [], []
    calls = {"member": 0}
    original_strip, original_member = invariants._strip_f, Ideal.member
    original_class = invariants._monic_class

    def strip(q, nf, f_ideal, tried):
        given = Polynomial(q.table, nf)  # before the strip consumes nf
        steps = []
        inside.append(steps)
        try:
            out = original_strip(q, nf, f_ideal, tried)
        finally:
            inside.pop()
        stripped.append((q, given, f_ideal, [Polynomial(q.table, row) for row in steps],
                         None if out is None else Polynomial(q.table, out)))
        return out

    def monic_class(row):
        if inside:  # a quotient the strip tests against the tried set
            inside[-1].append(dict(row))
        return original_class(row)

    def member(*args, **kwargs):
        calls["member"] += bool(inside)
        return original_member(*args, **kwargs)

    monkeypatch.setattr(cache_mod, "_active_cache", None)
    monkeypatch.setattr(invariants, "_strip_f", strip)
    monkeypatch.setattr(invariants, "_monic_class", monic_class)
    monkeypatch.setattr(Ideal, "member", member)
    digests = tuple(_chain_digest(essen_derksen(q)) for q in _chain_rings(parse_rep(spec), 0))
    assert calls == {"member": 0}
    monkeypatch.undo()
    assert digests == _LEVEL_ZERO_CHAIN_SHA256[spec]
    assert stripped
    ended_early = 0
    for q, b, f_ideal, steps, out in stripped:
        assert q.nf(b) == b, format_poly(b)
        expected = _two_query_strip(q, b, f_ideal)
        # the quotients the strip tested, each a step of the two-query route
        assert len(steps) < len(expected), format_poly(b)
        assert all(map(_positive_multiple, steps, expected[1:])), format_poly(b)
        if out is None:
            assert steps, format_poly(b)
            ended_early += 1
        else:
            # the integer strip returns a positive multiple of the rational one
            assert _positive_multiple(out, expected[-1]), format_poly(b)
            assert len(steps) == len(expected) - 1, format_poly(b)
    assert ended_early


# (slice variable, image a non-zerodivisor?) of every slice, at level 0 and
# on the ambient ring
_SLICE_VERDICTS = {
    "sym1": ([("x1", False), ("a2", False)], [("x1", True), ("a2", True)]),
    "sym2": ([("x2", True), ("a2", True)], [("x2", True), ("a2", True)]),
    "sym3": ([("x3", True), ("a2", True)], [("x3", True), ("a2", True)]),
    "sym1^2": ([("x1_1", True), ("x2_1", True), ("a1_2", True), ("a2_2", True)],
               [("x1_1", True), ("x2_1", True), ("a1_2", True), ("a2_2", True)]),
    "sym1+sym0": ([("x1_1", False), ("a1_2", False)], [("x1_1", True), ("a1_2", True)]),
    "sym2+sym0": ([("x1_2", True), ("a1_2", True)], [("x1_2", True), ("a1_2", True)]),
    "sym1+sym0^2": ([("x1_1", False), ("a1_2", False)], [("x1_1", True), ("a1_2", True)]),
    "sym2+sym1": ([("x1_2", True), ("x2_1", True), ("a1_2", True), ("a2_2", True)],
                  [("x1_2", True), ("x2_1", True), ("a1_2", True), ("a2_2", True)]),
}


def test_slice_verdicts(monkeypatch):
    """The Hilbert-series test of each slice image, and the (f) + I it hands
    to the chain."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    for spec, (level_zero, ambient) in _SLICE_VERDICTS.items():
        rep = parse_rep(spec)
        for q, expected in ((QuotientRing.level_set(rep, 0), level_zero),
                            (QuotientRing.ambient_tv(rep), ambient)):
            slices = invariants._find_slices(q, invariants._variable_orbits(q))
            assert [(name, nzd) for name, _, nzd, _ in slices] == expected, spec
            for _, image, _, f_ideal in slices:
                assert f_ideal.gens == (image,) + q.ideal.gens


def _cayley_sylvester(rep, degree):
    """The number of degree-d monomials of diagonal torus weight 0 or 1."""
    if degree < 0:
        return 0
    weights = diagonal_torus_weights(rep)
    return sum(1 for m in itertools.combinations_with_replacement(rep.table_tv().names, degree)
               if sum(weights[name] for name in m) in (0, 1))


def test_ambient_kernel_dimensions_are_cayley_sylvester(monkeypatch):
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    for spec in ("sym1", "sym2", "sym1^2", "sym3", "sym2+sym0", "sym1+sym0^2"):
        rep = parse_rep(spec)
        ambient = QuotientRing.ambient_tv(rep)
        for d in range(1, 6):
            assert len(graded_kernel(ambient, d)) == _cayley_sylvester(rep, d), (spec, d)


def test_zero_level_kernel_excess_over_restricted_invariants(monkeypatch):
    """The ambient invariants restrict onto CS(d) - CS(d - 2) dimensions of
    the degree-d zero-level kernel (phi_e is an invariant non-zerodivisor);
    the rest of the kernel is the excess."""
    excess = {
        "sym1": [0, 1, 2, 3, 4, 5],
        "sym2": [0, 1, 2, 3, 6, 9],
        "sym1^2": [0, 1, 4, 6, 20, 29],
        "sym3": [0, 1, 0, 1, 2, 8],
        "sym1+sym0": [0, 1, 4, 10, 20, 35],
    }
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    for spec, expected in excess.items():
        rep = parse_rep(spec)
        ring = QuotientRing.level_set(rep, 0)
        got = [len(graded_kernel(ring, d))
               - (_cayley_sylvester(rep, d) - _cayley_sylvester(rep, d - 2))
               for d in range(1, 7)]
        assert got == expected, spec


class _TagIdeal(Exception):
    """Carries the ideal and tags of the first tag elimination out of a chain."""


def _first_tag_ideal(monkeypatch, q, certify_degree):
    def capture(ideal, keep, caps=None):
        raise _TagIdeal(ideal, tuple(keep))

    with monkeypatch.context() as patch, pytest.raises(_TagIdeal) as caught:
        patch.setattr(Ideal, "eliminate", capture)
        essen_derksen(q, certify_degree)
    return caught.value.args


def test_tag_elimination_hilbert_functions(monkeypatch):
    """The first certificate round eliminates from J = I + (Y_i - g_i) + (f)
    with weight(Y_i) = deg g_i.  Its Hilbert function, counted on the
    leading terms of the elimination basis, is (1 - t^deg f) * HS(k[x]/I):
    the known series that drives the elimination."""
    cases = [
        ("sym2", 0, 6, [1, 5, 14, 30, 55, 91, 140, 204, 285]),
        ("sym1^2", 0, 6, [1, 7, 27, 77, 182, 378, 714, 1254, 2079]),
        ("sym2+sym0", None, 4, [1, 7, 28, 84, 210, 462, 924, 1716]),
    ]
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    for spec, level, certify_degree, expected in cases:
        rep = parse_rep(spec)
        q = (QuotientRing.ambient_tv(rep, CHAIN_CAPS) if level is None
             else QuotientRing.level_set(rep, level))
        tag_ideal, tags = _first_tag_ideal(monkeypatch, q, certify_degree)
        table = tag_ideal.table
        f = tag_ideal.gens[-1]
        weights = [1] * len(table.names)
        for tag, g in zip(tags, tag_ideal.gens[len(q.ideal.gens):-1]):
            weights[table.index(tag)] = (table.var(tag) - g).degree()
        dominant = tuple(i for i, name in enumerate(table.names) if name not in tags)
        order = BlockElim(dominant)
        leads = [g.leading(order)[0] for g in tag_ideal.groebner(order)]
        got = [hilbert.hilbert_function(hilbert.numerator(leads, weights), weights, d)
               for d in range(len(expected))]
        ones = (1,) * len(q.table.names)
        base = hilbert.numerator(q.ideal.leading_terms(), ones)
        series = [hilbert.hilbert_function(base, ones, d) for d in range(len(expected))]
        shifted = [c - (series[d - f.degree()] if d >= f.degree() else 0)
                   for d, c in enumerate(series)]
        assert got == shifted == expected, spec


def test_essen_components_terminate():
    rep = parse_rep("sym1")
    table = rep.table_tv()
    d = ga_derivation(rep, table)
    for var, expected in (("x2", {"x1", "a1"}), ("a1", {"x2", "a2"})):
        ring = QuotientRing(table, Ideal(table, [table.var(var)]), d, CHAIN_CAPS)
        report = essen_derksen(ring, certify_degree=4)
        assert report.termination == "Terminated"
        assert {format_poly(g) for g in report.generators} == expected


def test_essen_trivial_action_raises():
    rep = GaRep((0, 0))
    table = rep.table_tv()
    ring = QuotientRing(table, Ideal(table, []), ga_derivation(rep, table), CHAIN_CAPS)
    with pytest.raises(NoSliceError):
        essen_derksen(ring, certify_degree=4)


def test_essen_level_one_is_a_torsor():
    rep = parse_rep("sym1")
    ring = QuotientRing.level_set(rep, 1, CHAIN_CAPS)
    report = essen_derksen(ring, certify_degree=4)
    assert report.termination == "Terminated"
    assert report.certified_degree == 0
    assert any("trivial torsor" in note for note in report.notes)
    assert report.generators and all(ring.is_invariant(g) for g in report.generators)


def test_essen_ungraded_without_unit_section_raises():
    # x2^3 - 1 is inhomogeneous, and no s of degree at most 2 has D(s) = 1
    rep = parse_rep("sym1")
    table = rep.table_tv()
    ring = QuotientRing(table, Ideal(table, [table.var("x2") ** 3 - 1]),
                        ga_derivation(rep, table), CHAIN_CAPS)
    with pytest.raises(ValueError, match="homogeneous"):
        essen_derksen(ring, certify_degree=4)


def test_degree_span_rejects_inhomogeneous_data():
    rep, ring = _level_zero_ring("sym1")
    table = ring.table
    with pytest.raises(ValueError):
        DegreeSpan(QuotientRing.level_set(rep, 1), [])
    span = DegreeSpan(ring, [table.var("x2")])
    span.extend(2)
    with pytest.raises(ValueError):
        span.add(table.var("x2") + table.var("x1") ** 2)


def test_verify_generators_sym2_table():
    rep, ring = _level_zero_ring("sym2")
    verdict, certified = verify_generators(ring, sym2_levelset_invariants(rep), 4)
    assert verdict.ok
    assert certified == 4


def test_verify_generators_flags_non_invariant():
    rep, ring = _level_zero_ring("sym2")
    bad = [ring.table.var("x1")]
    verdict, certified = verify_generators(ring, bad, 2)
    assert not verdict.ok
    assert certified == 0
    assert "not invariant" in verdict.notes[0]


class _KeyProbe(cache_mod.DiskCache):
    """An active cache that records the first key looked up and stops there."""

    class Stop(Exception):
        pass

    def __init__(self):
        self.keys = []

    def get(self, key):
        self.keys.append(key)
        raise self.Stop


def _first_key(compute):
    probe = _KeyProbe()
    cache_mod.set_active_cache(probe)
    try:
        with pytest.raises(_KeyProbe.Stop):
            compute()
    finally:
        cache_mod.set_active_cache(None)
    return probe.keys[0]


def test_content_keys_are_pinned():
    # entries written to a cache earlier must keep being served
    ring = QuotientRing.level_set(parse_rep("sym1"), 0)
    assert _first_key(lambda: graded_kernel(ring, 2)) == (
        "01940c47468fea9993a18d42f42a07b0f3a8bc0b3a040d6d93b576653dbf0a2e")
    assert _first_key(lambda: essen_derksen(ring, certify_degree=6)) == (
        "a6ea3016d5efb3ad1b1fbbab2bbd8cd75498a79c99082534ada4b4c64953e0a5")


def test_verify_generators_flags_incomplete():
    rep, ring = _level_zero_ring("sym2")
    partial = [ring.table.var("x3")]
    verdict, certified = verify_generators(ring, partial, 2)
    assert not verdict.ok


def test_verify_generators_multi_derivation():
    # enveloping invariants on the enveloping zero level, all three derivations
    rep = parse_rep("sym1")
    table = rep.table_tw()
    ideal = Ideal(table, list(sl2_moment_w(rep)))
    ders = [sl2_infinitesimal(rep, b, include_w=True) for b in "HEF"]
    ring = QuotientRing(table, ideal, ders[1])
    from gasymp.comparison import sym1_enveloping_invariants

    verdict, certified = verify_generators(ring, sym1_enveloping_invariants(rep), 4,
                                           derivations=ders)
    assert verdict.ok and certified == 4


def test_restriction_misses():
    _, ring = _level_zero_ring("sym1")
    table = ring.table
    x1, x2 = table.var("x1"), table.var("x2")
    a1, a2 = table.var("a1"), table.var("a2")
    assert restriction_misses(ring, x1 * a1, 2)
    assert not restriction_misses(ring, x2, 1)
    assert restriction_misses(ring, x2 * a2 ** 2, 3)
    for n in range(1, 11):
        assert restriction_misses(ring, x1 ** n * a1, n + 1)
        assert restriction_misses(ring, x2 * a2 ** n, n + 1)
    with pytest.raises(ValueError):
        restriction_misses(ring, x1, 2)


def test_nullcone_equals_fixed():
    for n in (1, 2, 3):
        spec = "sym1" if n == 1 else f"sym1^{n}"
        assert nullcone_equals_fixed(parse_rep(spec)).ok
    with pytest.raises(ValueError):
        nullcone_equals_fixed(parse_rep("sym2"))


def test_standard_sym1_invariants_are_invariant():
    rep = parse_rep("sym1^2")
    ambient = QuotientRing.ambient_tv(rep)
    for g in standard_sym1_invariants(rep):
        assert ambient.is_invariant(g)


def test_section_sigma():
    # (coefficients, solution_dim): one free coefficient per summand, and the
    # free ones are 0 in the particular solution
    expected = {
        "sym1": ((1, 0), 1),
        "sym2": ((2, 1, 0), 1),
        "sym3": ((3, 2, 1, 0), 1),
        "sym1^2": ((1, 0, 1, 0), 2),
        "sym1+sym0": ((1, 0, 0), 2),
        "sym2+sym1": ((2, 1, 0, 1, 0), 2),
    }
    for spec, (coefficients, dim) in expected.items():
        rep = parse_rep(spec)
        sol = section_sigma(rep)
        assert sol.coefficients == tuple(Fraction(c) for c in coefficients), spec
        assert sol.solution_dim == dim, spec
        assert ga_derivation(rep)(sol.sigma) == ga_moment(rep)
    with pytest.raises(ValueError):
        section_sigma(GaRep((0,)))


# sha256 of (generators, certified degree, termination, notes) of the ambient
# chains, run as the oracle criterion runs them
_AMBIENT_CHAIN_SHA256 = {
    "sym1": "728491275e552c90e539fa7b8b8dc20f83cfe5a94b5d2a56ce57fe04caab5c1e",
    "sym1+sym0": "b09310a9dae48bc580247adebc2dc099b9b55473804d937ff15d25b9d8ea622c",
    "sym2": "a8dc0b2ee5375c0e9ff35d2435a7b1aca704942953c735cb12d895312e442dd9",
    "sym2+sym0": "1f9c9a1187d1818af94eefe612a7b7937cc59ebafd384f1b1e2f5b4e2918281a",
}


def test_oracle_agreement_small_reps():
    for spec, digest in _AMBIENT_CHAIN_SHA256.items():
        ring = QuotientRing.ambient_tv(parse_rep(spec), CHAIN_CAPS)
        report = essen_derksen(ring, certify_degree=4)
        assert report.certified_degree >= 4
        assert _chain_digest(report) == digest, spec
