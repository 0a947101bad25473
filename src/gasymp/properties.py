"""Seeded randomized property suites shared by the test suite and the CLI.

Each suite runs a requested number of cases and returns the number of
failures (0 expected).  Randomness is fully determined by the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .forms import (DifferentialForm, exterior_derivative, lift_form, liouville,
                    pullback, wedge)
from .groebner import GroebnerCaps, Ideal, buchberger, interreduce, reduce_full
from .poly import (BLOCK_X, LEX, BlockElim, Derivation, GREVLEX, MonomialOrder,
                   PolyMap, Polynomial, VariableTable, mono_div, mono_lcm)
from .reps import GaRep, cotangent_lift, ga_action, sl2_infinitesimal, verify_sl2_brackets


def _random_poly(rng: random.Random, table: VariableTable, max_degree: int = 3,
                 max_terms: int = 4, coeff_bound: int = 4) -> Polynomial:
    n = len(table.names)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_degree)
        exps = [0] * n
        for _ in range(deg):
            exps[rng.randrange(n)] += 1
        c = 0
        while c == 0:
            c = rng.randint(-coeff_bound, coeff_bound)
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + Fraction(c)
    return Polynomial(table, terms)


def _table(nvars: int) -> VariableTable:
    return VariableTable(tuple(f"z{i+1}" for i in range(nvars)), (BLOCK_X,) * nvars)


def ring_axioms(cases: int, seed: int = 0) -> int:
    rng = random.Random(seed)
    failures = 0
    table = _table(3)
    for _ in range(cases):
        f = _random_poly(rng, table)
        g = _random_poly(rng, table)
        h = _random_poly(rng, table)
        if (f + g) + h != f + (g + h):
            failures += 1
        if f + g != g + f or f * g != g * f:
            failures += 1
        if (f * g) * h != f * (g * h):
            failures += 1
        if f * (g + h) != f * g + f * h:
            failures += 1
    return failures


def leibniz(cases: int, seed: int = 1) -> int:
    rng = random.Random(seed)
    failures = 0
    table = _table(4)
    images = {table.names[0]: table.var(table.names[1]),
              table.names[1]: table.var(table.names[2]) * table.var(table.names[3]),
              table.names[2]: table.scalar(1)}
    d = Derivation(table, images)
    for _ in range(cases):
        f = _random_poly(rng, table)
        g = _random_poly(rng, table)
        if d(f * g) != d(f) * g + f * d(g):
            failures += 1
    return failures


def _closure_failures(table: VariableTable, gens: list, basis: list,
                      order: MonomialOrder) -> int:
    """Failures of a claimed Groebner basis of (gens) under ``order``: an empty
    basis, an input generator or an S-polynomial of two basis elements that
    does not reduce to zero."""
    if not basis:
        return 1
    failures = sum(1 for g in gens if not reduce_full(g, basis, order).is_zero())
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            fi, fj = basis[i], basis[j]
            mi, ci = fi.leading(order)
            mj, cj = fj.leading(order)
            lcm = mono_lcm(mi, mj)
            s = (Polynomial(table, {mono_div(lcm, mi): 1 / ci}) * fi
                 - Polynomial(table, {mono_div(lcm, mj): 1 / cj}) * fj)
            if not reduce_full(s, basis, order).is_zero():
                failures += 1
    return failures


def groebner_selfchecks(cases: int, seed: int = 2,
                        caps: GroebnerCaps = GroebnerCaps(max_degree=12, max_pairs=2000)) -> int:
    """Random small ideals: under GREVLEX, LEX and an elimination order every
    input generator reduces to zero against the basis and every S-polynomial
    of basis pairs reduces to zero; every GREVLEX basis element carries an
    exact cofactor certificate over the inputs."""
    rng = random.Random(seed)
    failures = 0
    table = _table(3)
    for _ in range(cases):
        gens = [_random_poly(rng, table, max_degree=2, max_terms=3, coeff_bound=3)
                for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        for order in (LEX, BlockElim((0,))):
            basis = interreduce(buchberger(gens, order, caps), order)
            failures += _closure_failures(table, gens, basis, order)
        basis = interreduce(buchberger(gens, GREVLEX, caps), GREVLEX)
        failures += _closure_failures(table, gens, basis, GREVLEX)
        ideal = Ideal(table, gens)
        for b in basis:
            cof = ideal.lift(b, GREVLEX, caps)
            if cof is None:
                failures += 1
                continue
            total = table.zero()
            for c, g in zip(cof, gens):
                total = total + c * g
            if total != b:
                failures += 1
    return failures


def d_squared_zero(cases: int, seed: int = 3) -> int:
    rng = random.Random(seed)
    failures = 0
    table = _table(5)
    n = len(table.names)
    for _ in range(cases):
        degree = rng.randint(0, 2)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            idx = tuple(sorted(rng.sample(range(n), degree)))
            terms[idx] = _random_poly(rng, table, max_degree=2, max_terms=2)
        form = DifferentialForm(table, degree, terms)
        if not exterior_derivative(exterior_derivative(form)).is_zero():
            failures += 1
    return failures


def graded_commutativity(cases: int, seed: int = 4) -> int:
    rng = random.Random(seed)
    failures = 0
    table = _table(5)
    n = len(table.names)

    def random_form(degree):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            idx = tuple(sorted(rng.sample(range(n), degree)))
            terms[idx] = _random_poly(rng, table, max_degree=2, max_terms=2)
        return DifferentialForm(table, degree, terms)

    for _ in range(cases):
        da, db = rng.randint(0, 2), rng.randint(0, 2)
        a, b = random_form(da), random_form(db)
        sign = -1 if (da % 2) and (db % 2) else 1
        if wedge(a, b) != sign * wedge(b, a):
            failures += 1
    return failures


def pullback_functoriality(cases: int, seed: int = 5) -> int:
    """pullback(form, f o g) = pullback(pullback(form, f), g) on random
    quadratic maps, and d commutes with pullback."""
    rng = random.Random(seed)
    failures = 0
    table = _table(3)
    n = len(table.names)

    def random_map():
        return PolyMap(table, table,
                       [_random_poly(rng, table, max_degree=2, max_terms=2, coeff_bound=2)
                        for _ in range(n)])

    for _ in range(cases):
        f = random_map()
        g = random_map()
        degree = rng.randint(1, 2)
        terms = {}
        for _ in range(rng.randint(1, 2)):
            idx = tuple(sorted(rng.sample(range(n), degree)))
            terms[idx] = _random_poly(rng, table, max_degree=1, max_terms=2, coeff_bound=2)
        form = DifferentialForm(table, degree, terms)
        lhs = pullback(form, f.compose(g))
        rhs = pullback(pullback(form, f), g)
        if lhs != rhs:
            failures += 1
        if exterior_derivative(pullback(form, f)) != pullback(exterior_derivative(form), f):
            failures += 1
    return failures


_REP_POOL = ("sym1", "sym2", "sym1^2", "sym1+sym0", "sym3", "sym2+sym1")


def one_parameter_law(cases: int, seed: int = 6) -> int:
    """action(c) o action(c') = action(c + c'), exactly as a polynomial
    identity once per representation, then spot-checked at random rational
    parameter values and points."""
    from .reps import parse_rep

    rng = random.Random(seed)
    failures = 0
    identities = {}
    for spec in _REP_POOL:
        rep = parse_rep(spec)
        act = ga_action(rep, "c")
        table_v = rep.table_v()
        both = table_v.extend(["c", "cp"])
        first = {}  # x |-> action with parameter cp
        comps_cp = {}
        for name in table_v.names:
            comp = act.component(name)
            comps_cp[name] = _rename_param(comp, act.source, both, "c", "cp")
        composed = {}
        for name in table_v.names:
            comp = _rename_param(act.component(name), act.source, both, "c", "c")
            composed[name] = comp.substitute({n: comps_cp[n] for n in table_v.names})
        added = {}
        for name in table_v.names:
            comp = act.component(name)
            added[name] = _rename_param(comp, act.source, both, "c", "c").substitute(
                {"c": both.var("c") + both.var("cp")})
        identities[spec] = all(composed[n] == added[n] for n in table_v.names)
    for _ in range(cases):
        spec = rng.choice(_REP_POOL)
        if not identities[spec]:
            failures += 1
            continue
        rep = parse_rep(spec)
        act = ga_action(rep, "c")
        point = {n: Fraction(rng.randint(-3, 3)) for n in rep.table_v().names}
        c1, c2 = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        mid = {n: act.component(n).evaluate({**point, "c": c2}) for n in rep.table_v().names}
        lhs = {n: act.component(n).evaluate({**mid, "c": c1}) for n in rep.table_v().names}
        rhs = {n: act.component(n).evaluate({**point, "c": c1 + c2}) for n in rep.table_v().names}
        if lhs != rhs:
            failures += 1
    return failures


def _rename_param(p: Polynomial, src: VariableTable, target: VariableTable,
                  old: str, new: str) -> Polynomial:
    out = {}
    oi = src.index(old)
    for m, c in p.terms.items():
        e = [0] * len(target.names)
        for i, ei in enumerate(m):
            if not ei:
                continue
            name = src.names[i] if i != oi else new
            e[target.index(name)] = ei
        out[tuple(e)] = c
    return Polynomial(target, out)


def sl2_bracket_suite(cases: int, seed: int = 7) -> int:
    """Exact bracket structure for every representation of bounded dimension,
    plus per-case evaluation of the commutator identities on random
    polynomials."""
    rng = random.Random(seed)
    failures = 0
    reps = _all_reps_up_to_dim(8)
    for rep in reps:
        if not verify_sl2_brackets(rep):
            failures += 1
    triples = {}
    for rep in reps:
        triples[rep.summands] = tuple(sl2_infinitesimal(rep, b) for b in "HEF")
    pool = [rep.summands for rep in reps]
    tables = {rep.summands: rep.table_tv() for rep in reps}
    for _ in range(cases):
        key = rng.choice(pool)
        h, e, f = triples[key]
        p = _random_poly(rng, tables[key], max_degree=2, max_terms=3)
        if e(h(p)) - h(e(p)) != 2 * e(p):
            failures += 1
        if f(h(p)) - h(f(p)) != -2 * f(p):
            failures += 1
        if f(e(p)) - e(f(p)) != h(p):
            failures += 1
    return failures


def _all_reps_up_to_dim(max_dim: int) -> list:
    out = []

    def rec(prefix, remaining, max_part):
        if prefix and any(k > 0 for k in prefix):
            out.append(GaRep(tuple(prefix)))
        for size in range(min(remaining, max_part), 0, -1):
            rec(prefix + [size - 1], remaining - size, size)

    rec([], max_dim, max_dim)
    uniq = {r.summands: r for r in out}
    return [uniq[k] for k in sorted(uniq, reverse=True)]


def lift_preserves_liouville(cases: int, seed: int = 8) -> int:
    """The cotangent lift preserves the canonical two-form, as an identity in
    the group parameter, per representation plus random pool re-draws."""
    from .reps import parse_rep

    rng = random.Random(seed)
    failures = 0
    verdicts = {}
    for spec in _REP_POOL:
        rep = parse_rep(spec)
        lift = cotangent_lift(rep)
        omega = liouville(rep.table_tv())
        pulled = pullback(omega, lift, params={"c"})
        lifted = lift_form(omega, lift.source)
        verdicts[spec] = pulled == lifted
        if not verdicts[spec]:
            failures += 1
    for _ in range(cases):
        if not verdicts[rng.choice(_REP_POOL)]:
            failures += 1
    return failures


SUITES = {
    "ring-axioms": ring_axioms,
    "groebner-selfchecks": groebner_selfchecks,
    "d-squared": d_squared_zero,
    "graded-commutativity": graded_commutativity,
    "pullback-functoriality": pullback_functoriality,
    "one-parameter-law": one_parameter_law,
    "sl2-brackets": sl2_bracket_suite,
    "leibniz": leibniz,
    "lift-liouville": lift_preserves_liouville,
}
