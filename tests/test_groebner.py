import hashlib
import heapq
import json
import random
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest

import gasymp.groebner as groebner_mod
from gasymp import cache as cache_mod
from gasymp import hilbert
from gasymp.comparison import (sym1_enveloping_invariants, sym2_enveloping_invariants,
                               sym2_levelset_invariants)
from gasymp.groebner import GroebnerCaps, Ideal, NotCompleted, int_row, reduce_full, reduce_rows
from gasymp.invariants import (DegreeSpan, QuotientRing, essen_derksen, graded_kernel,
                               standard_sym1_invariants)
from gasymp.linalg import integral
from gasymp.moments import ga_moment, sl2_moment_w
from gasymp.poly import (BLOCK_X, GREVLEX, LEX, BlockElim, Polynomial, VariableTable, format_poly,
                         mono_div, mono_divides, mono_mul)
from gasymp.properties import _random_poly, groebner_selfchecks
from gasymp.reps import parse_rep


def _table(*names):
    return VariableTable(tuple(names), (BLOCK_X,) * len(names))


def _tuple_reduce_rows(work, rows, order, quotients=None):
    """The oracle for ``reduce_rows``: the same fraction-free reduction on
    monomials as exponent tuples, against tuple rows (``int_row``), the
    terms waiting on a heap under the negated order key."""
    def key(m):
        return tuple(-x for x in order.key(m))

    leads = [row[0] for row in rows]
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    scale = 1
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        for i, lm in enumerate(leads):
            if mono_divides(lm, m):
                break
        else:
            remainder[m] = c
            continue
        _, lead, tail = rows[i]
        g = gcd(c, lead)
        a, b = lead // g, c // g
        if a != 1:
            scale *= a
            for part in (work, remainder, *(quotients or ())):
                for mm in part:
                    part[mm] *= a
        q = mono_div(m, lm)
        if quotients is not None:
            quotients[i][q] = quotients[i].get(q, 0) + b
        for gm, gc in tail:
            mm = mono_mul(gm, q)
            prev = work.get(mm)
            if prev is None:
                heapq.heappush(heap, (key(mm), mm))
                work[mm] = -b * gc
            else:
                work[mm] = prev - b * gc
    return remainder, scale


def _packed_reduce_rows(work, rows, order, nvars, quotients=None):
    """``reduce_rows`` on tuple work and tuple rows in ``nvars`` variables,
    through the engine's own packing and unpacking (``Packing.pack_row`` at
    8 bits, ``_reduce_packed``), so its results compare with the oracle's."""
    packing = groebner_mod._packing(order, nvars)
    remainder, s, quots = groebner_mod._reduce_packed(
        work, [packing.pack_row(row) for row in rows], packing, quotients is not None)
    for out, q in zip(quotients or (), quots or ()):
        out.update(q)
    return remainder, s


def _unpacked(rows, packing):
    """Packed integer rows, as ``buchberger`` and ``interreduce`` return
    them, with their monomials as exponent tuples."""
    unpack = packing.unpack
    return [(unpack(lm), lead, tuple((unpack(m), c) for m, c in tail)) for lm, lead, tail in rows]


def _row_polys(rows, packing, table):
    """Packed integer rows as polynomials, each its row's integer multiple."""
    return [Polynomial(table, {lm: lead, **dict(tail)})
            for lm, lead, tail in _unpacked(rows, packing)]


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


def test_eliminate():
    t = VariableTable(("x", "y", "t"), (BLOCK_X, BLOCK_X, "aux"))
    x, y, tt = t.var("x"), t.var("y"), t.var("t")
    parent = Ideal(t, [x - tt, y - tt ** 2])
    out = parent.eliminate(["x", "y"])
    sub = out.table
    assert out.groebner() == Ideal(sub, [sub.var("y") - sub.var("x") ** 2]).groebner()
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


def test_exact_divide():
    """Exact division by g is the lift over (g)."""
    t = _table("x", "y")
    x, y = t.var("x"), t.var("y")
    assert Ideal(t, [x * y]).lift(x ** 2 * y + x * y ** 2) == [x + y]
    assert Ideal(t, [x]).lift(x ** 2 + y) is None


def _long_division(f, g):
    """Division of f by the single polynomial g through leading terms only:
    an independent reference for the lift over (g)."""
    table = f.table
    rem, quot = f, table.zero()
    gm, gc = g.leading(GREVLEX)
    while not rem.is_zero():
        rm, rc = rem.leading(GREVLEX)
        if any(a > b for a, b in zip(gm, rm)):
            return None
        piece = Polynomial(table, {tuple(b - a for a, b in zip(gm, rm)): rc / gc})
        quot = quot + piece
        rem = rem - piece * g
    return quot


def test_exact_divide_matches_long_division():
    rng = random.Random(11)
    t = _table("x", "y", "z")
    refused = 0
    for _ in range(150):
        g = _random_poly(rng, t, max_degree=2, max_terms=3)
        h = _random_poly(rng, t, max_degree=3, max_terms=4)
        if g.is_zero():
            continue
        principal = Ideal(t, [g])
        assert principal.lift(g * h) == [h] == [_long_division(g * h, g)]
        r = _random_poly(rng, t, max_degree=3, max_terms=3)
        if _long_division(r, g) is None:  # r is not a multiple of g
            refused += 1
            assert principal.lift(g * h + r) is None
            assert _long_division(g * h + r, g) is None
    assert refused > 100


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


def _graph_ideal(table, defining, gens):
    """The graph ideal of ``gens`` over (``defining``) on the table extended
    by one tag per generator, and the tags."""
    tags = [f"t{i + 1}" for i in range(len(gens))]
    ext = table.extend(tags)
    graph = [table.lift(g, ext) for g in defining]
    graph += [ext.var(tag) - table.lift(g, ext) for tag, g in zip(tags, gens)]
    return Ideal(ext, graph), tags


def _presentation_ideals():
    """The graph ideals of the four published generator tables."""
    sym1, sym2, sym1_2 = parse_rep("sym1"), parse_rep("sym2"), parse_rep("sym1^2")
    return {
        "sym1^2": _graph_ideal(sym1_2.table_tv(), [], standard_sym1_invariants(sym1_2)),
        "sym2-levelset": _graph_ideal(sym2.table_tv(), [ga_moment(sym2)],
                                      sym2_levelset_invariants(sym2)),
        "sym1-enveloping": _graph_ideal(sym1.table_tw(), list(sl2_moment_w(sym1)),
                                        sym1_enveloping_invariants(sym1)),
        "sym2-enveloping": _graph_ideal(sym2.table_tw(), list(sl2_moment_w(sym2)),
                                        sym2_enveloping_invariants(sym2)),
    }


def _random_form(rng, table, degree):
    """A random nonzero form of the given degree over the table's variables."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * len(table.names)
            for _ in range(degree):
                exps[rng.randrange(len(exps))] += 1
            terms[tuple(exps)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        form = Polynomial(table, terms)
        if not form.is_zero():
            return form


def _targets_of(monkeypatch):
    """Record the ``target`` of every Buchberger run."""
    seen = []
    original = groebner_mod.buchberger

    def recording(*args, **kwargs):
        seen.append(kwargs.get("target"))
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner_mod, "buchberger", recording)
    return seen


def _eliminated_without_target(ideal, tags):
    """The target-free route: the tag-free elements of the reduced basis under
    the order that makes every other variable dominant."""
    table = ideal.table
    dominant = tuple(i for i, name in enumerate(table.names) if name not in tags)
    sub = table.subtable(tags)
    basis = Ideal(table, ideal.gens).groebner(BlockElim(dominant))
    return tuple(table.project(g, sub) for g in basis
                 if all(m[i] == 0 for m in g.terms for i in dominant))


def test_hilbert_driven_eliminate_matches_target_free_basis(monkeypatch):
    cases = list(_presentation_ideals().values())
    rng = random.Random(41)
    base = _table("x", "y", "z")
    for _ in range(12):
        defining = [_random_form(rng, base, 2)] if rng.random() < 0.5 else []
        gens = [_random_form(rng, base, rng.randint(1, 3)) for _ in range(rng.randint(2, 4))]
        cases.append(_graph_ideal(base, defining, gens))
    for ideal, tags in cases:
        expected = _eliminated_without_target(ideal, tags)
        seen = _targets_of(monkeypatch)
        assert Ideal(ideal.table, ideal.gens).eliminate(tags).gens == expected
        assert seen[0] is not None, tags  # the elimination itself ran Hilbert driven
        monkeypatch.undo()


class _Captured(Exception):
    """Carries the ideal and tags of a tag elimination out of a chain."""


def _first_certificate_round(monkeypatch, spec):
    """The ideal and tags of the first tag elimination of the level-0 chain
    of ``spec``: its first certificate round."""
    def capture(ideal, keep, caps=None):
        raise _Captured(ideal, tuple(keep))

    with monkeypatch.context() as patch, pytest.raises(_Captured) as caught:
        patch.setattr(cache_mod, "_active_cache", None)
        patch.setattr(Ideal, "eliminate", capture)
        essen_derksen(QuotientRing.level_set(parse_rep(spec), 0))
    return caught.value.args


def test_eliminate_interreduces_only_the_rows_it_returns(monkeypatch):
    """Under the elimination order every monomial with a dominant variable is
    larger than every monomial free of them, so the Buchberger rows with a
    dominant-free lead interreduce alone to the dominant-free part of the
    full reduced basis.  ``eliminate`` returns exactly that part, as the full
    interreduction (the oracle) gives it, and hands ``interreduce`` one row
    per relation it returns, no other."""
    cases = list(_presentation_ideals().items())
    cases += [(f"{spec} round 1", _first_certificate_round(monkeypatch, spec))
              for spec in ("sym2", "sym1^2")]
    original = groebner_mod.interreduce
    sizes = {}
    for name, (ideal, tags) in cases:
        expected = _eliminated_without_target(ideal, tags)
        received = []

        def counting(rows, *args):
            received.append(len(rows))
            return original(rows, *args)

        with monkeypatch.context() as patch:
            patch.setattr(groebner_mod, "interreduce", counting)
            relations = Ideal(ideal.table, ideal.gens).eliminate(tags).gens
        assert relations == expected, name
        assert received == [len(relations)], name
        sizes[name] = len(relations)
    assert sizes == {"sym1^2": 5, "sym2-levelset": 10, "sym1-enveloping": 11,
                     "sym2-enveloping": 12, "sym2 round 1": 12, "sym1^2 round 1": 54}


def test_ungradable_ideal_gets_no_target(monkeypatch):
    t = VariableTable(("x", "y", "t"), (BLOCK_X, BLOCK_X, "aux"))
    x, y, tt = t.var("x"), t.var("y"), t.var("t")
    dominant = (0, 1)
    assert Ideal(t, [tt - x * y, tt * x - y ** 3])._grading(dominant) == (1, 1, 2)
    # inhomogeneous in the eliminated variables; a weight 3/2; a free weight
    for gens in ([tt - x - y ** 2], [tt ** 2 - x ** 3], [x * y - y ** 2]):
        ideal = Ideal(t, gens)
        assert ideal._grading(dominant) is None, gens
        expected = _eliminated_without_target(ideal, ["t"])
        seen = _targets_of(monkeypatch)
        assert ideal.eliminate(["t"]).gens == expected
        assert seen == [None]
        monkeypatch.undo()


def test_run_without_pairs_reads_no_target():
    t = VariableTable(("x", "y", "s", "u"), (BLOCK_X, BLOCK_X, "aux", "aux"))
    x, y, s, u = (t.var(n) for n in t.names)

    def unread():
        raise AssertionError("the series was read")

    # coprime leading terms x, y under the order that eliminates x and y: no pairs
    order = BlockElim((0, 1))
    rows = groebner_mod.buchberger([s - x, u - y ** 2], order, target=((1, 1, 1, 2), unread))
    basis = groebner_mod.interreduce(*rows, t)[0]
    assert sorted(format_poly(g) for g in basis) == ["x - s", "y^2 - u"]


def test_dropping_one_more_pair_fails_the_self_check(monkeypatch):
    original = groebner_mod._shortfall

    def one_short(*args):
        return max(original(*args) - 1, 0)

    ideal, tags = _presentation_ideals()["sym1^2"]
    assert ideal.eliminate(tags).gens
    monkeypatch.setattr(groebner_mod, "_shortfall", one_short)
    with pytest.raises(AssertionError, match="target Hilbert series"):
        Ideal(ideal.table, ideal.gens).eliminate(tags)


def test_shortfall_is_read_once_per_degree(monkeypatch):
    """The Hilbert-driven run reads the missing count once, at the head of
    each weighted degree it visits: 18 reads over the four published tag
    eliminations, by strictly increasing degree within each run."""
    original = groebner_mod._shortfall
    total = 0
    for name, (ideal, tags) in _presentation_ideals().items():
        degrees = []

        def counting(num, target, weights, d):
            degrees.append(d)
            return original(num, target, weights, d)

        monkeypatch.setattr(groebner_mod, "_shortfall", counting)
        Ideal(ideal.table, ideal.gens).eliminate(tags)
        monkeypatch.undo()
        assert degrees == sorted(set(degrees)), (name, degrees)
        total += len(degrees)
    assert total == 18


def test_one_corrupted_colon_numerator_fails_the_self_check(monkeypatch):
    """The running count trusts every colon step.  A colon ideal that lost a
    generator makes the count believe in leading monomials that the basis
    does not have; the final from-scratch series must catch every such run
    that then drops a needed pair.  A run whose count goes negative instead
    processes every pair of that degree and must return the true basis."""
    ideal, tags = _presentation_ideals()["sym1^2"]
    expected = ideal.eliminate(tags).gens
    original = hilbert.colon_step
    outcomes = []
    for k in range(100):
        steps = []

        def dropping(num, colon, weights, shift):
            if colon:
                if len(steps) == k:
                    colon = colon[:-1]
                steps.append(1)
            return original(num, colon, weights, shift)

        monkeypatch.setattr(hilbert, "colon_step", dropping)
        try:
            outcomes.append(Ideal(ideal.table, ideal.gens).eliminate(tags).gens == expected)
        except AssertionError as exc:
            assert "leading terms miss the target Hilbert series" in str(exc)
            outcomes.append("tripped")
        monkeypatch.undo()
        if len(steps) <= k:
            outcomes.pop()  # no step k: nothing was corrupted
            break
    assert False not in outcomes
    assert outcomes.count("tripped") > len(outcomes) // 2, outcomes


def _textbook_new_pairs(mh, leads):
    """The quadratic Becker-Weispfenning scan, kept here only as an oracle:
    a candidate g survives when it is coprime to mh, or when no later
    candidate's lcm and no surviving earlier one's lcm divides its lcm; the
    new pairs are the survivors that are not coprime."""
    lcms = [tuple(map(max, mh, mg)) for _, mg in leads]
    kept = []  # (index, lcm, coprime)
    for pos, (ig, mg) in enumerate(leads):
        coprime = tuple(a + b for a, b in zip(mh, mg)) == lcms[pos]
        if (coprime
                or not (any(mono_divides(m, lcms[pos]) for m in lcms[pos + 1:])
                        or any(mono_divides(m, lcms[pos]) for _, m, _ in kept))):
            kept.append((ig, lcms[pos], coprime))
    return [(ig, m) for ig, m, coprime in kept if not coprime]


def _tuple_colon_pairs(mh, leads):
    """``_colon_pairs`` on exponent tuples, kept here only as an oracle: each
    excess is g with the positions of mh's support lowered, and the colon is
    the minimal excesses by the quadratic scan (by increasing degree, stably
    on the input order)."""
    support = [(v, e) for v, e in enumerate(mh) if e]
    last = {}
    for ig, mg in leads:
        excess = list(mg)
        for v, e in support:
            excess[v] = mg[v] - e if mg[v] > e else 0
        last[tuple(excess)] = ig, mg
    colon = []
    for e in sorted(last, key=sum):
        if not any(mono_divides(g, e) for g in colon):
            colon.append(e)
    return colon, [(last[e][0], mono_mul(mh, e)) for e in colon if last[e][1] != e]


def _packed_colon_pairs(mh, leads, width=8):
    """``_colon_pairs`` through the packed edge: mh and the leads packed by
    ``hilbert.Fields`` at ``width``, the colon and the lcms unpacked."""
    fields = hilbert.Fields((1,) * len(mh), width)
    colon, pairs = groebner_mod._colon_pairs(
        fields.pack(mh), [(ig, fields.pack(m)) for ig, m in leads], fields)
    return [fields.unpack(e) for e in colon], [(ig, fields.unpack(m)) for ig, m in pairs]


def _structured_update(rng, width):
    """A new lead mh (a pure power about a third of the time) and candidate
    leads that stress the update: random ones, ones coprime to mh, and
    families that share one excess, as they differ only on mh's support."""
    mh = [0] * width
    if rng.random() < 0.3:
        mh[rng.randrange(width)] = rng.randint(1, 3)
    else:
        mh = [rng.choice([0, 0, 0, 1, 2]) for _ in range(width)]
        mh[rng.randrange(width)] += 1
    support = [v for v in range(width) if mh[v]]
    pool = [tuple(rng.choice([0, 0, 0, 1, 1, 2, 3]) for _ in range(width))
            for _ in range(rng.randint(3, 10))]
    pool += [tuple(0 if mh[v] else rng.choice([0, 0, 1, 2]) for v in range(width))
             for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(1, 3)):
        excess = [0 if mh[v] else rng.choice([0, 0, 1, 2]) for v in range(width)]
        for _ in range(rng.randint(2, 4)):
            pool.append(tuple(rng.randint(0, mh[v]) if mh[v] else e
                              for v, e in enumerate(excess)))
    return tuple(mh), pool


def test_colon_pairs_match_the_textbook_update():
    """On random minimal lead sets and new leads that none of them divides,
    criterion M read from the colon ideal keeps exactly the pairs of the
    quadratic scan, and the colon generators are the minimal excesses, by
    increasing degree.  The structured cases reach 12 variables and include
    pure-power new leads, leads coprime to mh and leads with one excess, of
    which the last index must win."""
    rng = random.Random(1616)
    seen = {"coprime": 0, "repeated excess": 0, "pure power": 0, "width 12": 0}
    for trial in range(800):
        if trial < 400:
            n = rng.randint(2, 6)
            monos = {tuple(rng.choice([0, 0, 0, 1, 1, 2, 3]) for _ in range(n)) for _ in range(12)}
            monos = [m for m in monos if any(m)]
            rng.shuffle(monos)
            mh, rest = monos[0], monos[1:]
        else:
            mh, rest = _structured_update(rng, rng.randint(2, 12))
            rest = sorted(set(rest))
            rng.shuffle(rest)
        leads = [m for m in rest if any(m) and not mono_divides(m, mh)
                 and not any(o != m and mono_divides(o, m) for o in rest)]
        indexed = list(zip(sorted(rng.sample(range(100), len(leads))), leads))
        colon, pairs = _packed_colon_pairs(mh, indexed)
        assert sorted(pairs) == _textbook_new_pairs(mh, indexed), (mh, leads)
        excesses = {tuple(max(a - b, 0) for a, b in zip(m, mh)) for m in leads}
        assert sorted(colon) == sorted(e for e in excesses
                                       if not any(o != e and mono_divides(o, e) for o in excesses))
        assert [sum(e) for e in colon] == sorted(sum(e) for e in colon)
        seen["coprime"] += any(not any(map(min, m, mh)) for m in leads)
        seen["repeated excess"] += len(excesses) < len(leads)
        seen["pure power"] += sum(map(bool, mh)) == 1
        seen["width 12"] += len(mh) == 12
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("width", [8, 16])
def test_packed_colon_pairs_match_the_tuple_oracle(width):
    """On seeded random minimal lead sets whose exponents reach the largest
    value a field holds, 2**(width - 1) - 1, with total degree below
    2**(width - 1), the packed colon and pairs are the tuple oracle's, in
    its order."""
    rng = random.Random(4141 + width)
    top = (1 << (width - 1)) - 1
    at_top = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        monos = set()
        for _ in range(rng.randint(2, 12)):
            kind, v = rng.random(), rng.randrange(n)
            if kind < 0.2:
                m = tuple(rng.choice([top, top - 1, 1]) if i == v else 0 for i in range(n))
            elif kind < 0.5:
                cuts = sorted(rng.randint(0, top) for _ in range(n - 1))
                m = tuple(b - a for a, b in zip([0] + cuts, cuts + [top]))
            else:
                m = tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(n))
            monos.add(m)
        monos = sorted(m for m in monos if any(m))
        rng.shuffle(monos)
        if not monos:
            continue
        mh, rest = monos[0], monos[1:]
        leads = [m for m in rest if not mono_divides(m, mh)
                 and not any(o != m and mono_divides(o, m) for o in rest)]
        indexed = list(zip(sorted(rng.sample(range(100), len(leads))), leads))
        assert _packed_colon_pairs(mh, indexed, width) == _tuple_colon_pairs(mh, indexed), \
            (mh, leads)
        at_top += any(top in m for m in [mh, *leads])
    assert at_top >= 50, at_top


def _full_scan_prune(live, mh, leads):
    """Criterion B as a scan over every live pair, kept here only as an
    oracle: drop (i, j) when mh divides its lcm and neither lcm(lm i, mh) nor
    lcm(lm j, mh) is that lcm."""
    for ij, lcm_ij in list(live.items()):
        if (mono_divides(mh, lcm_ij)
                and tuple(map(max, leads[ij[0]], mh)) != lcm_ij
                and tuple(map(max, leads[ij[1]], mh)) != lcm_ij):
            del live[ij]


def test_indexed_criterion_b_matches_the_full_scan():
    """On seeded random lead sequences, with pairs added and popped between
    the leads, the prune over one support bucket drops exactly the pairs that
    the scan over every live pair drops, and each bucket holds exactly the
    live pairs whose lcm contains its variable.  The sequences include the
    lead 1, for which every live pair is tested."""
    rng = random.Random(2222)
    dropped = units = 0
    for _ in range(80):
        width = rng.randint(1, 8)
        store, oracle = groebner_mod.LivePairs(width), {}
        leads = []
        for ih in range(rng.randint(2, 25)):
            mh = tuple(rng.choice([0, 0, 0, 1, 1, 2]) for _ in range(width))
            leads.append(mh)
            units += not any(mh)
            before = len(oracle)
            store.prune(mh, leads)
            _full_scan_prune(oracle, mh, leads)
            dropped += before - len(oracle)
            assert store.lcm == oracle
            for ig in rng.sample(range(ih), min(ih, rng.randint(0, 4))):
                lcm_ig = tuple(map(max, leads[ig], mh))
                store.add((ig, ih), lcm_ig)
                oracle[ig, ih] = lcm_ig
            for ij in rng.sample(sorted(oracle), min(len(oracle), rng.randint(0, 2))):
                assert store.pop(ij) == oracle.pop(ij)
            assert store.pop((ih, ih + 1)) is None
            assert bool(store) == bool(oracle)
            assert store.buckets == [{ij for ij, m in oracle.items() if m[v]}
                                     for v in range(width)]
    assert dropped > 200 and units > 10, (dropped, units)


def test_criterion_b_tests_one_bucket(monkeypatch):
    """Criterion B tests only the live pairs in the bucket of lm(h)'s rarest
    variable: on the sym2 enveloping tag elimination (both of its Buchberger
    runs) that is 2 300 tests, where a scan over every live pair makes
    17 704."""
    tested, scanned = [], []
    original = groebner_mod.LivePairs.candidates

    def counting(self, mh):
        out = original(self, mh)
        tested.append(len(out))
        scanned.append(len(self.lcm))
        return out

    monkeypatch.setattr(groebner_mod.LivePairs, "candidates", counting)
    ideal, tags = _presentation_ideals()["sym2-enveloping"]
    ideal.eliminate(tags)
    assert (sum(tested), sum(scanned)) == (2300, 17704)
    assert 4 * sum(tested) <= sum(scanned)


def _processed_pairs(monkeypatch):
    """Record the (i, j) of every pair a Buchberger run processes: the pair's
    S-polynomial is formed right after gcd of the two leading coefficients."""
    seen = []
    original = groebner_mod.gcd

    def recording(*args):
        caller = sys._getframe(1)
        if caller.f_code is groebner_mod.buchberger.__code__:
            seen.append(caller.f_locals["ij"])
        return original(*args)

    monkeypatch.setattr(groebner_mod, "gcd", recording)
    return seen


def test_processed_pairs_of_the_presentations_are_pinned(monkeypatch):
    """The pair handling may get cheaper but must process the same pairs in
    the same order: both runs of each published tag elimination (the target
    basis and the Hilbert-driven one), by count and sha256."""
    pinned = {
        "sym1^2": (26, "e8793bdffe6cd6b5e8e0a22bb41e029fbc24fb5af6820cc01cee5feafd1b0c7b"),
        "sym2-levelset": (34, "da5a991b0c5a8eb3807762014d8adc47f60039a0f9d1e52c2ce8aea92e4992a1"),
        "sym1-enveloping": (121, "426102a0a89172b659fc4fbdf6a31093eac7e583efefdb0e4e9ddaedb9d8420e"),
        "sym2-enveloping": (252, "1cc1424822ebd7a9649f8d3960914ea3fa5486e8dda5fb05a179d5f710090b6b"),
    }
    for name, (ideal, tags) in _presentation_ideals().items():
        seen = _processed_pairs(monkeypatch)
        Ideal(ideal.table, ideal.gens).eliminate(tags)
        monkeypatch.undo()
        digest = hashlib.sha256(repr(seen).encode()).hexdigest()
        assert (len(seen), digest) == pinned[name], name


def test_pair_cap_on_hilbert_driven_elimination():
    """The Hilbert-driven elimination of the sym1 enveloping presentation
    needs 110 of the 416 pairs that the target-free run processes."""
    ideal, tags = _presentation_ideals()["sym1-enveloping"]
    relations = Ideal(ideal.table, ideal.gens).eliminate(tags, GroebnerCaps(max_pairs=110))
    assert len(relations.gens) == 11
    with pytest.raises(NotCompleted, match="pair cap"):
        Ideal(ideal.table, ideal.gens).eliminate(tags, GroebnerCaps(max_pairs=109))


def test_normal_form_and_lift_reuse_stored_leads(monkeypatch):
    t = _table("x", "y", "z")
    x, y, z = t.var("x"), t.var("y"), t.var("z")
    gens = [x * y - z ** 2, x * z - y ** 2, x ** 2 - y * z]
    ideal = Ideal(t, gens)
    rng = random.Random(17)
    fs = [_random_poly(rng, t, max_degree=4, max_terms=5) for _ in range(8)]
    expected = [reduce_full(f, list(ideal.groebner()), GREVLEX) for f in fs]
    ideal.normal_form(fs[0])
    ideal.lift(gens[0] * x)
    calls = []
    original = Polynomial.leading

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "leading", counting)
    for _ in range(3):
        assert [ideal.normal_form(f) for f in fs] == expected
        for f, g in zip(fs, gens):
            cof = ideal.lift(f * g)
            assert sum((c * h for c, h in zip(cof, gens)), t.zero()) == f * g
    assert not calls


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
            assert ours.groebner() == Ideal(ours.table, theirs).groebner(), (gone, gens)
    # the pairings above are the only ones that agree: the opposite variable
    # orientation gives a different basis on some of the ideals
    assert opposite["grevlex"] and opposite["lex"]


_SCALES = [Fraction(n, d) for n in (-3, -2, 2, 3, 5) for d in (1, 2, 7)]


def _random_basis(rng, table, count):
    """Non-constant random polynomials with non-unit rational coefficients."""
    basis = []
    while len(basis) < count:
        g = _random_poly(rng, table, max_degree=2, max_terms=3) * rng.choice(_SCALES)
        if not g.is_constant():
            basis.append(g)
    return basis


def _quotients(f, basis, order):
    """The quotients of f by the basis, from the integer core: with F the
    integral scaling d*f and G_i = (L_i / lc_i) * basis_i the basis's integer
    rows, ``reduce_rows`` gives s*F = sum(Q_i * G_i) + R, so
    q_i = Q_i * L_i / (lc_i * s * d)."""
    rows = [int_row(g, order) for g in basis]
    quots = [{} for _ in basis]
    _, s = _packed_reduce_rows(integral(f.terms), rows, order, len(f.table.names), quots)
    sd = s * lcm(*(c.denominator for c in f.terms.values()))
    return [Polynomial(f.table, {m: c * Fraction(lead, sd) / g.terms[lm] for m, c in q.items()})
            for g, (lm, lead, _), q in zip(basis, rows, quots)]


def _division_holds(f, basis, order):
    """p = sum(q_i * g_i) + r exactly, and no term of r is divisible by a
    leading monomial of the basis."""
    quot = _quotients(f, basis, order)
    r = reduce_full(f, basis, order)
    leads = [g.leading(order)[0] for g in basis]
    return (sum((q * g for q, g in zip(quot, basis)), r) == f
            and not any(mono_divides(lm, m) for lm in leads for m in r.terms))


def test_integer_core_division_identity():
    """The reduction runs in integers, scaling the remainder and the
    quotients instead of dividing by a leading coefficient; its rational
    results satisfy the division identity exactly on bases whose integer
    rows have non-unit leads, among them the sym3 level set (lead 3)."""
    rng = random.Random(1414)
    t = _table("z1", "z2", "z3")
    leads = set()
    for _ in range(200):
        basis = _random_basis(rng, t, rng.randint(1, 3))
        leads.update(int_row(g, GREVLEX)[1] for g in basis)
        f = _random_poly(rng, t, max_degree=5, max_terms=6) * rng.choice(_SCALES)
        for order in (GREVLEX, LEX):
            assert _division_holds(f, basis, order), (f, basis)
    assert {2, 3, 4} <= leads
    ring = QuotientRing.level_set(parse_rep("sym3"), 0)
    basis = list(ring.ideal.groebner())
    assert [int_row(g, GREVLEX)[1] for g in basis] == [3]
    for _ in range(30):
        f = _random_poly(rng, ring.table, max_degree=4, max_terms=6) * rng.choice(_SCALES)
        assert _division_holds(f, basis, GREVLEX), f
        assert ring.nf(f) == reduce_full(f, basis, GREVLEX)


def test_reduce_row_skips_the_core_only_on_reduced_rows(monkeypatch):
    """``Ideal.reduce_row`` returns ``reduce_rows``' (R, s) on random integer
    rows, and ``Ideal.normal_form`` the normal form ``reduce_full`` gives on
    their polynomials, against the principal basis of the sym1^2 zero level
    and the five rows of the sym2 enveloping zero level.  An input with no
    term divisible by a leading monomial makes no ``reduce_rows`` call in
    either and comes back as it is, the row with scale 1; every other input
    makes exactly one."""
    monkeypatch.setattr(cache_mod, "_active_cache", None)
    sym1sq, sym2 = parse_rep("sym1^2"), parse_rep("sym2")
    ideals = [Ideal(sym1sq.table_tv(), [ga_moment(sym1sq)]),
              Ideal(sym2.table_tw(), list(sl2_moment_w(sym2)))]
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return reduce_rows(*args, **kwargs)

    monkeypatch.setattr(groebner_mod, "reduce_rows", counting)
    rng = random.Random(3131)
    for ideal, size in zip(ideals, (1, 5)):
        basis = ideal.groebner()
        assert len(basis) == size
        rows, leads = [int_row(g) for g in basis], [g.leading(GREVLEX)[0] for g in basis]
        seen = {True: 0, False: 0}
        for _ in range(300):
            f = _random_poly(rng, ideal.table, max_degree=4, max_terms=5)
            if rng.random() < 0.5:  # a multiple of a lead term makes the row reducible
                f = f + _random_poly(rng, ideal.table, 2, 1) * Polynomial(
                    ideal.table, {rng.choice(leads): Fraction(1)})
            work = integral(f.terms)
            reducible = any(mono_divides(lm, m) for lm in leads for m in work)
            seen[reducible] += 1
            expected = _tuple_reduce_rows(dict(work), rows, GREVLEX)
            before = len(calls)
            got = ideal.reduce_row(dict(work))
            assert got == expected and len(calls) - before == reducible, format_poly(f)
            assert reducible or got == (work, 1)
            expected = reduce_full(f, basis, GREVLEX)
            before = len(calls)
            assert ideal.normal_form(f) == expected and len(calls) - before == reducible
            assert reducible or ideal.normal_form(f) is f
        assert min(seen.values()) >= 50, seen
    assert ideals[0].reduce_row({}) == ({}, 1)


def _items(rows_result):
    """A reduction's (remainder, scale) with the remainder as its list of
    items, so the order the terms were found in is compared too."""
    remainder, s = rows_result
    return list(remainder.items()), s


@pytest.mark.parametrize("order", [GREVLEX, LEX, BlockElim((0, 2))])
def test_packed_core_matches_the_tuple_oracle(order):
    """``reduce_rows`` on packed monomials returns, once unpacked, the
    oracle's remainder (its terms in the same order), scale and quotients,
    on random integer polynomials against random bases with leads 2, 3 and
    6 among others."""
    rng = random.Random(2323)
    t = _table("x", "y", "z", "w")
    for _ in range(120):
        basis = _random_basis(rng, t, rng.randint(1, 4))
        rows = [int_row(g, order) for g in basis]
        work = integral((_random_poly(rng, t, max_degree=6, max_terms=8)
                         * rng.choice(_SCALES)).terms)
        expected_q, got_q = [{} for _ in rows], [{} for _ in rows]
        expected = _tuple_reduce_rows(dict(work), rows, order, expected_q)
        got = _packed_reduce_rows(dict(work), rows, order, 4, got_q)
        assert _items(got) == _items(expected) and got_q == expected_q, (order, basis)


def test_packed_core_matches_the_oracle_on_a_certificate_round(monkeypatch):
    """Every reduction of the sym1^2 level-0 chain's first certificate
    round (its tag elimination) gives, unpacked, the tuple oracle's
    remainder and scale on the same work and rows."""
    ideal, tags = _first_certificate_round(monkeypatch, "sym1^2")
    original = groebner_mod.reduce_rows
    seen = []

    def recording(work, rows, packing, quotients=None):
        unpack = packing.unpack
        args = ({unpack(m): c for m, c in work.items()}, _unpacked(rows, packing), packing.order)
        remainder, s = original(work, rows, packing, quotients)
        seen.append((args, ([(unpack(m), c) for m, c in remainder.items()], s)))
        return remainder, s

    monkeypatch.setattr(groebner_mod, "reduce_rows", recording)
    Ideal(ideal.table, ideal.gens).eliminate(tags)
    monkeypatch.undo()
    assert len(seen) > 500
    for (work, rows, order), got in seen:
        assert got == _items(_tuple_reduce_rows(work, rows, order))


def test_field_overflow_widens_the_packing():
    """Under LEX (y > x) the basis of (y - x^100, y^2 - 1) is
    (x^200 - 1, y - x^100): reducing y^2 makes x^200, whose field passes the
    8-bit width the run starts at.  The run starts again at 16 bits and ends
    with the basis, with no ``NotCompleted``; the input reductions agree with
    the tuple oracle.  GREVLEX queries on works of degree 231 pack the
    stored 8-bit rows of the GREVLEX basis again at 16 bits, for the query
    only, and agree with the oracle."""
    t = _table("x", "y")
    x, y = t.var("x"), t.var("y")
    caps = GroebnerCaps(max_degree=400)
    gens = [y - x ** 100, y ** 2 - 1]
    rows, packing = groebner_mod.buchberger(gens, LEX, caps)
    assert packing.width == 16
    assert sorted(_unpacked(rows, packing)) == sorted(int_row(g, LEX)
                                                      for g in (x ** 200 - 1, y - x ** 100))
    ideal = Ideal(t, gens)
    basis = ideal.groebner(LEX, caps)
    assert basis == (x ** 200 - 1, y - x ** 100)
    assert ideal._gb[LEX.descriptor(), caps][-1].width == 16
    for g in gens:
        remainder, _ = _tuple_reduce_rows(integral(g.terms), [int_row(b, LEX) for b in basis], LEX)
        assert not remainder and reduce_full(g, basis, LEX).is_zero()
    member, other = x ** 130 * (y - x ** 100), x ** 130 * y + x
    assert ideal.member(member, caps=caps) and not ideal.member(other, caps=caps)
    assert ideal._gb[GREVLEX.descriptor(), caps][-1].width == 8
    rows = [int_row(b, GREVLEX) for b in ideal.groebner(caps=caps)]
    remainder, s = _tuple_reduce_rows(integral(other.terms), rows, GREVLEX)
    assert ideal.normal_form(other, caps=caps) == Polynomial(
        t, {m: Fraction(c, s) for m, c in remainder.items()})


def test_hilbert_driven_eliminate_on_sixteen_bit_leads(monkeypatch):
    """Eliminating x from (t - x^130, y - x^2) under the weights x = 1,
    y = 2, t = 130 is Hilbert driven, and its leads x^130 need 16-bit fields:
    both Buchberger runs widen once and return at 16 bits, the colon steps
    and the target series run on those fields, and the relation is
    y^65 - t, as the target-free route finds it."""
    t = VariableTable(("x", "y", "t"), (BLOCK_X, BLOCK_X, "aux"))
    x, y, tt = t.var("x"), t.var("y"), t.var("t")
    ideal = Ideal(t, [tt - x ** 130, y - x ** 2])
    caps = GroebnerCaps(max_degree=200)
    assert ideal._grading((0,)) == (1, 2, 130)
    widths, steps = [], []
    original, step = groebner_mod.buchberger, hilbert.colon_step

    def recording(*args, **kwargs):
        rows, packing = original(*args, **kwargs)
        widths.append((kwargs.get("target") is not None, packing.width))
        return rows, packing

    def counting(num, colon, fields, shift):
        steps.append(fields.width)
        return step(num, colon, fields, shift)

    with monkeypatch.context() as patch:
        patch.setattr(groebner_mod, "buchberger", recording)
        patch.setattr(hilbert, "colon_step", counting)
        relations = ideal.eliminate(["y", "t"], caps)
    sub = relations.table
    assert relations.gens == (sub.var("y") ** 65 - sub.var("t"),)
    assert widths == [(False, 16), (True, 16)]
    assert steps and set(steps) == {16}
    basis = Ideal(t, ideal.gens).groebner(BlockElim((0,)), caps)
    assert relations.gens == tuple(t.project(g, sub) for g in basis
                                   if all(m[0] == 0 for m in g.terms))


def _widenings(monkeypatch):
    """Record the width of every packing a computation widens from."""
    seen = []
    original = groebner_mod.Packing.wider

    def recording(self):
        seen.append(self.width)
        return original(self)

    monkeypatch.setattr(groebner_mod.Packing, "wider", recording)
    return seen


def test_lex_lead_of_large_total_degree_widens_the_packing(monkeypatch):
    """LEX keys have no degree field, so a reduction under LEX can make a
    lead whose total degree passes 2**(width - 1) while every field fits:
    (z - x^100, z*y^50 - 1) has the lead x^100*y^50, degree 150, at 8 bits.
    The exponent fields of the colon ideals read total degrees below that
    bound, so the run starts again at 16 bits, once, and ends with the
    basis."""
    t = _table("x", "y", "z")
    x, y, z = t.var("x"), t.var("y"), t.var("z")
    caps = GroebnerCaps(max_degree=400)
    widened = _widenings(monkeypatch)
    rows, packing = groebner_mod.buchberger([z - x ** 100, z * y ** 50 - 1], LEX, caps)
    assert packing.width == 16 and widened == [8]
    assert [packing.unpack(row[0]) for row in rows] == [(0, 0, 1), (100, 50, 0)]
    basis = groebner_mod.interreduce(rows, packing, t)[0]
    assert basis == [x ** 100 * y ** 50 - 1, z - x ** 100]


def test_interreduce_widens_its_own_rows(monkeypatch):
    """Under LEX (x > y, z > y) Buchberger ends on (x - y^100, z - x*y^50)
    at 8 bits, and only the tail reduction of ``interreduce`` makes y^150,
    past that width: ``interreduce`` packs the rows it was given again at
    16 bits, once, and stores the reduced basis with that packing."""
    t = _table("y", "x", "z")
    y, x, z = t.var("y"), t.var("x"), t.var("z")
    gens = [z - x * y ** 50, x - y ** 100]
    widened = _widenings(monkeypatch)
    rows, packing = groebner_mod.buchberger(gens, LEX)
    assert packing.width == 8 and widened == []
    basis, rows, packing = groebner_mod.interreduce(rows, packing, t)
    assert basis == [x - y ** 100, z - y ** 150]
    assert packing.width == 16 and widened == [8]
    assert _unpacked(rows, packing) == [int_row(g, LEX) for g in basis]
    del widened[:]
    ideal = Ideal(t, gens)
    assert ideal.groebner(LEX) == (x - y ** 100, z - y ** 150)
    assert ideal._gb[LEX.descriptor(), groebner_mod.DEFAULT_CAPS][-1].width == 16
    assert widened == [8]


def test_stored_rows_are_packed_once(monkeypatch):
    """A basis stays packed from Buchberger to the ``Ideal`` that stores it:
    ``Ideal.groebner``, the tracked run of ``lift_row`` and ``eliminate`` on
    an ideal that fits 8 bits pack no row (``Packing.pack_row``) and widen
    no packing, while their answers hold."""
    t = VariableTable(("x", "y", "t"), (BLOCK_X, BLOCK_X, "aux"))
    x, y, tt = t.var("x"), t.var("y"), t.var("t")
    gens = [x - tt ** 2, y - tt ** 3]
    packed = []
    original = groebner_mod.Packing.pack_row

    def counting(self, row):
        packed.append(1)
        return original(self, row)

    monkeypatch.setattr(groebner_mod.Packing, "pack_row", counting)
    widened = _widenings(monkeypatch)
    ideal = Ideal(t, gens)
    assert len(ideal.groebner()) > len(gens) and len(ideal.groebner(LEX)) > len(gens)
    f = (x + tt) * gens[0] - y * gens[1]
    cofactors, s = ideal.lift_row(integral(f.terms))
    assert sum((Polynomial(t, c) * g for c, g in zip(cofactors, gens)), t.zero()) == f * s
    relations = ideal.eliminate(["x", "y"])
    sub = relations.table
    assert relations.gens == (sub.var("x") ** 3 - sub.var("y") ** 2,)
    assert packed == [] and widened == []


def test_reduce_full_matches_sympy_reduced():
    """sympy's division algorithm takes the leading term of what is left and
    the first basis element whose leading term divides it, as the integer
    core does, so the quotients (``_quotients``) and the remainder
    (``reduce_full``) agree exactly."""
    sympy = pytest.importorskip("sympy")
    t = _table("z1", "z2", "z3")
    symbols, to_sympy, from_sympy = _sympy_oracle(sympy, t)
    rng = random.Random(31)
    for _ in range(40):
        basis = _random_basis(rng, t, rng.randint(1, 3))
        f = _random_poly(rng, t, max_degree=5, max_terms=6) * rng.choice(_SCALES)
        for order, mono, orientation in (("grevlex", GREVLEX, symbols), ("lex", LEX, symbols[::-1])):
            quot = _quotients(f, basis, mono)
            r = reduce_full(f, basis, mono)
            q_sympy, r_sympy = sympy.reduced(to_sympy(f), [to_sympy(g) for g in basis],
                                             *orientation, order=order)
            assert r == from_sympy(r_sympy, t), (order, f, basis)
            assert quot == [from_sympy(q, t) for q in q_sympy], (order, f, basis)


def test_sym1_squared_level_zero_span_dimensions():
    """The integer product span of the sym1^2 zero level, grown from its
    invariants of degrees 1-3 (the degrees of the chain's generators), has
    the graded kernel's dimensions in degrees 0-8; those of degrees 0-5 are
    recomputed here, the others are pinned."""
    ring = QuotientRing.level_set(parse_rep("sym1^2"), 0)
    gens = [p for d in (1, 2, 3) for p in graded_kernel(ring, d)]
    span = DegreeSpan(ring, gens)
    span.extend(8)
    dims = [len(span.rows_by_degree[d]) for d in range(9)]
    assert dims == [1, 4, 16, 40, 90, 180, 329, 560, 914]
    assert dims[:6] == [len(graded_kernel(ring, d)) for d in range(6)]


# sha256 of the JSON list of ``cache.encode_poly`` encodings of each table's
# reduced tag-elimination basis
_TAG_BASIS_SHA256 = {
    "sym1^2": "b37ab6898f6093d6041e1b55df13b1189a4a7c87cddd292d996cbd9ff56884c5",
    "sym2-levelset": "78f073d060c94e344dd02f1dc98ae5d725e1fa36fd6ead6126a6535a9fe33496",
    "sym1-enveloping": "4d2128f486a45bc4ceabfc0afac075297d5e4aa127ac74300bc20ef4b87c808e",
    "sym2-enveloping": "eac46bddddd4e79bc6773943a559fce967fd95157b9e51722b1f7eea329900eb",
}


def _dominant(ideal, tags):
    return tuple(i for i, name in enumerate(ideal.table.names) if name not in tags)


def test_tag_elimination_bases_are_pinned():
    for name, (ideal, tags) in _presentation_ideals().items():
        basis = ideal.groebner(BlockElim(_dominant(ideal, tags)))
        blob = json.dumps([cache_mod.encode_poly(g) for g in basis])
        assert hashlib.sha256(blob.encode()).hexdigest() == _TAG_BASIS_SHA256[name], name


def test_untracked_buchberger_multiplies_no_polynomials(monkeypatch):
    """Every basis element is held as an integer row from input to result, so
    one untracked run on the sym1^2 graph ideal makes no Polynomial product,
    and neither it nor a tracked run builds any Polynomial: both return
    integer rows, the tracked one with term-dict representations."""
    ideal, tags = _presentation_ideals()["sym1^2"]
    order = BlockElim(_dominant(ideal, tags))
    calls = []
    original = Polynomial.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    basis, _ = groebner_mod.buchberger(ideal.gens, order)
    monkeypatch.undo()
    assert len(basis) > len(ideal.gens) and not calls
    built = []
    original_init = Polynomial.__init__

    def building(self, *args):
        built.append(1)
        original_init(self, *args)

    monkeypatch.setattr(Polynomial, "__init__", building)
    rows, _ = groebner_mod.buchberger(ideal.gens, order)
    tracked, _, reps = groebner_mod.buchberger(ideal.gens, order, track=True)
    monkeypatch.undo()
    assert not built
    assert rows == tracked == basis and len(reps) == len(rows)


def _lift_over_reduce_full(ideal, f, order, caps):
    """Cofactors assembled from polynomials: the quotients of the division
    by the tracked basis (``_quotients``), each times its representation,
    summed, when ``reduce_full`` leaves no remainder."""
    t = ideal.table
    rows, packing, reps = groebner_mod.buchberger(ideal.gens, order, caps, track=True)
    basis = _row_polys(rows, packing, t)
    if not reduce_full(f, basis, order).is_zero():
        return None
    quot = _quotients(f, basis, order)
    out = [t.zero()] * len(ideal.gens)
    for q, rep in zip(quot, reps):
        if not q.is_zero():
            for k in range(len(out)):
                out[k] = out[k] + q * Polynomial(t, rep[k])
    return out


@pytest.mark.parametrize("order", [GREVLEX, LEX, BlockElim((0,))])
def test_lift_matches_polynomial_cofactor_assembly(order):
    """``Ideal.lift`` reduces in integers against the tracked GREVLEX rows and
    sums its cofactors in term dicts, on rational members, on non-members and
    on inputs whose integer rows have leads 2, 3 and 6 in ``order``.  It
    returns None exactly when f's remainder against the reduced basis in
    ``order`` is nonzero, and otherwise cofactors that re-expand to f; under
    GREVLEX they are the cofactors assembled from ``reduce_full`` quotients.
    Its integer core ``lift_row`` returns None exactly when ``lift`` does,
    and otherwise s * work = sum(C_i * gens_i) for its one positive scale s,
    under GREVLEX with the assembled cofactors times that scale."""
    rng = random.Random(1717)
    t = _table("x", "y", "z")
    caps = GroebnerCaps(max_degree=12, max_pairs=2000)
    members = 0
    for _ in range(30):
        gens = [_form_with_lead(rng, t, order, rng.choice((1, 2, 3, 6)))
                for _ in range(rng.randint(2, 3))]
        ideal = Ideal(t, gens)
        fs = [sum((_random_poly(rng, t, max_degree=2, max_terms=3) * rng.choice(_SCALES) * g
                   for g in gens), t.zero()),
              _random_poly(rng, t, max_degree=3, max_terms=4) * rng.choice(_SCALES)]
        for f in fs:
            got = ideal.lift(f, caps=caps)
            remainder = reduce_full(f, ideal.groebner(order, caps), order)
            assert (got is None) == (not remainder.is_zero()), (gens, f)
            if order is GREVLEX:
                expected = _lift_over_reduce_full(ideal, f, order, caps)
                assert got == expected, (gens, f)
            work = integral(f.terms)
            core = ideal.lift_row(dict(work), caps=caps)
            assert (core is None) == (got is None)
            if core is not None:
                cofactors, s = core
                cofactors = [Polynomial(t, x) for x in cofactors]
                assert s > 0
                den = lcm(*(v.denominator for v in f.terms.values()))  # work = den * f
                if order is GREVLEX:
                    assert cofactors == [c * (s * den) for c in expected]
                assert sum((c * g for c, g in zip(cofactors, gens)), t.zero()) == Polynomial(t, work) * s
            if got is not None:
                members += 1
                assert sum((c * g for c, g in zip(got, gens)), t.zero()) == f
    assert 30 <= members < 60  # members and non-members both occur


def _form_with_lead(rng, table, order, lead):
    """A random non-constant polynomial of degree at most 2 whose integer row
    has leading coefficient ``lead``, scaled by a random rational."""
    while True:
        monos = {tuple(rng.choice([0, 0, 1, 2]) for _ in table.names) for _ in range(3)}
        monos = [m for m in monos if sum(m) <= 2]
        if len(monos) > 1:
            break
    lm = max(monos, key=order.key)
    tail = [m for m in monos if m != lm]
    # a tail coefficient of +-1 keeps the row primitive, so its lead stays ``lead``
    terms = {lm: lead, tail[0]: rng.choice([-1, 1])}
    terms.update((m, rng.choice([-4, -3, -1, 1, 2, 5])) for m in tail[1:])
    return Polynomial(table, terms) * rng.choice(_SCALES)


@pytest.mark.parametrize("order", [GREVLEX, LEX, BlockElim((0,))])
def test_tracked_representations_reexpand_exactly(order):
    """Rational inputs with integer leads 2, 3 and 6: every tracked basis
    element equals its representation re-expanded over the inputs, and the
    tracked basis, autoreduced, is the untracked one."""
    rng = random.Random(1515)
    t = _table("x", "y", "z")
    caps = GroebnerCaps(max_degree=12, max_pairs=2000)
    leads = set()
    for _ in range(40):
        chosen = [rng.choice((2, 3, 6)) for _ in range(rng.randint(2, 3))]
        gens = [_form_with_lead(rng, t, order, lead) for lead in chosen]
        assert [int_row(g, order)[1] for g in gens] == chosen
        rows, packing, reps = groebner_mod.buchberger(gens, order, caps, track=True)
        basis = _row_polys(rows, packing, t)
        reps = [[Polynomial(t, x) for x in rep] for rep in reps]
        # the untracked run returns the same rows; the reduced basis autoreduces them
        untracked = groebner_mod.buchberger(gens, order, caps)
        reduced = groebner_mod.interreduce(*untracked, t)
        assert groebner_mod.interreduce(rows, packing, t) == reduced
        for g, rep in zip(basis, reps):
            assert sum((r * h for r, h in zip(rep, gens)), t.zero()) == g, (gens, g)
        leads.update(g.leading(order)[1] for g in basis)
    assert leads - {1}


@pytest.mark.parametrize("order", [GREVLEX, LEX, BlockElim((0,))])
def test_member_matches_normal_form_oracle(order):
    """``Ideal.member`` decides on the integer remainder against the stored
    GREVLEX rows; it agrees with the rational normal form being zero, and
    with the remainder against the reduced basis in ``order`` being zero, on
    rational members sum(h_i * g_i), on non-members and on generators whose
    integer rows have leads 2, 3 and 6 in ``order``, and on the zero
    polynomial, the empty ideal and the unit ideal.  A positional order
    raises ``TypeError``."""
    rng = random.Random(1919)
    t = _table("x", "y", "z")
    caps = GroebnerCaps(max_degree=12, max_pairs=2000)
    verdicts = []
    for _ in range(30):
        gens = [_form_with_lead(rng, t, order, rng.choice((1, 2, 3, 6)))
                for _ in range(rng.randint(2, 3))]
        ideal = Ideal(t, gens)
        member = sum((_random_poly(rng, t, max_degree=2, max_terms=3) * rng.choice(_SCALES) * g
                      for g in gens), t.zero())
        other = _random_poly(rng, t, max_degree=3, max_terms=4) * rng.choice(_SCALES)
        for f in (member, other, t.zero()):
            got = ideal.member(f, caps=caps)
            assert got == ideal.normal_form(f, caps=caps).is_zero(), (gens, f)
            remainder = reduce_full(f, ideal.groebner(order, caps), order)
            assert got == remainder.is_zero(), (gens, f)
            verdicts.append(got)
        assert ideal.member(member, caps=caps)
    assert True in verdicts and False in verdicts
    f = _random_poly(rng, t, max_degree=3, max_terms=4) * Fraction(2, 3)
    empty, unit = Ideal(t, []), Ideal(t, [Fraction(5, 3)])
    assert empty.member(t.zero()) and not empty.member(f)
    assert empty.normal_form(f) == f
    assert empty.lift(f) is None and empty.lift_row({}) == ([], 1)
    assert unit.member(f) and unit.normal_form(f).is_zero()
    with pytest.raises(TypeError):  # the order is not a query's to choose
        unit.member(f, order)
