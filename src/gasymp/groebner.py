"""Buchberger Groebner engine and the ideal queries built on it.

The engine keeps its critical pairs in a queue keyed once per pair, when the
pair is created, by the degree and the monomial-order key of its lcm, and
always processes the least live pair (normal selection).  The
Gebauer-Moeller criteria (coprime leading terms, chain criterion) prune
pairs on each update; a pruned pair stays in the queue and is skipped when it
comes up.  The engine produces reduced bases and enforces resource caps:
exceeding a cap raises :class:`NotCompleted` instead of returning a truncated
(wrong) basis, and the pair cap counts processed live pairs only.  An
optional cofactor-tracking mode expresses every basis element and
every reduction in terms of the input generators, which powers exact
membership certificates and exact division modulo an ideal.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import cache as cache_mod
from .poly import (GREVLEX, BlockElim, MonomialOrder, Polynomial, VariableTable,
                   format_poly, mono_deg, mono_div, mono_divides, mono_lcm,
                   mono_mul, poly_key)


class NotCompleted(Exception):
    """A resource cap was exceeded before the computation finished."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


@dataclass(frozen=True)
class GroebnerCaps:
    max_degree: int = 40
    max_pairs: int = 200_000
    max_basis: int = 100_000


DEFAULT_CAPS = GroebnerCaps()


def _mono_poly(table: VariableTable, m, c=Fraction(1)) -> Polynomial:
    return Polynomial(table, {m: c})


def reduce_full(p: Polynomial, basis: Sequence, order: MonomialOrder = GREVLEX,
                quotients: list | None = None, leads: Sequence | None = None) -> Polynomial:
    """Full normal form of p against basis (every term reduced).

    When ``quotients`` is a list it is filled with one quotient polynomial per
    basis element, so that p = sum(q_i * basis_i) + remainder.  ``leads`` may
    carry precomputed (monomial, coefficient) leading terms of the basis.
    """
    table = p.table
    if quotients is not None:
        del quotients[:]
        quotients.extend(table.zero() for _ in basis)
    if leads is None:
        leads = [g.leading(order) for g in basis]
    key = order.key
    work = dict(p.terms)
    # heap keyed by negated order key so the largest monomial pops first
    heap = [(_neg_key(key(m)), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = work.get(m)
        if not c:
            continue
        del work[m]
        hit = -1
        for i, (lm, _) in enumerate(leads):
            if mono_divides(lm, m):
                hit = i
                break
        if hit < 0:
            remainder[m] = c
            continue
        lm, lc = leads[hit]
        q = mono_div(m, lm)
        factor = c / lc
        if quotients is not None:
            quotients[hit] = quotients[hit] + _mono_poly(table, q, factor)
        for gm, gc in basis[hit].terms.items():
            if gm == lm:
                continue
            mm = mono_mul(gm, q)
            prev = work.get(mm, 0)
            s = prev - factor * gc
            if s:
                if not prev:
                    heapq.heappush(heap, (_neg_key(key(mm)), mm))
                work[mm] = s
            elif mm in work:
                del work[mm]
    return Polynomial(p.table, remainder)


def _neg_key(key):
    deg, tail = key[0], key[1:]
    return (-deg,) + tuple(tuple(-x for x in part) if isinstance(part, tuple) else -part for part in tail)


def _primitive(p: Polynomial, order: MonomialOrder) -> Polynomial:
    """Integer-primitive scaling with positive leading coefficient; keeps the
    working basis in small integers."""
    denom = 1
    for c in p.terms.values():
        denom = denom * c.denominator // _gcd(denom, c.denominator)
    numer = 0
    for c in p.terms.values():
        numer = _gcd(numer, abs(c.numerator * (denom // c.denominator)))
    scale = Fraction(denom, numer if numer else 1)
    q = p * scale
    if q.leading(order)[1] < 0:
        q = -q
    return q


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def buchberger(gens: Sequence, order: MonomialOrder = GREVLEX,
               caps: GroebnerCaps = DEFAULT_CAPS, track: bool = False):
    """Groebner basis by Buchberger's algorithm.

    Each pair (i, j) is keyed once, when it is created, by (degree of its lcm,
    order key of its lcm, (i, j)) and pushed onto a heap; its lcm is stored
    with it.  The Becker-Weispfenning update of each new element drops pairs
    by the coprimality and chain criteria; a dropped pair's heap entry is
    skipped when it is popped.  The pair processed next is always the live
    pair with the least key, and ``caps.max_pairs`` counts those processed
    pairs only.

    With ``track=True`` the result is (basis, representations) where
    representations[i] expresses basis[i] over ``gens``.
    """
    inputs = [g for g in gens if not g.is_zero()]
    table = inputs[0].table if inputs else None
    if table is None:
        return ([], []) if track else []

    store: list = []   # every element ever admitted
    leads: list = []   # parallel (monomial, coefficient)
    reps: list = []    # parallel representations over the inputs (tracked)
    active: list = []  # indices forming the current basis
    live: dict = {}    # (i, j) -> lcm of the leading monomials, for pairs still to process
    queue: list = []   # heap of (degree of lcm, order key of lcm, (i, j)), one entry per pair

    def admit(p: Polynomial, rep) -> int:
        if track:
            lc = p.leading(order)[1]
            inv = Fraction(1) / lc
            p = p * inv
            rep = [r * inv for r in rep]
        else:
            p = _primitive(p, order)
        store.append(p)
        leads.append(p.leading(order))
        if track:
            reps.append(rep)
        return len(store) - 1

    def update(ih: int):
        """Becker-Weispfenning pair update for the new element ih."""
        mh = leads[ih][0]
        candidates = sorted(active)
        lcms = [mono_lcm(mh, leads[ig][0]) for ig in candidates]
        kept = []  # (ig, lcm, coprime)
        for pos, ig in enumerate(candidates):
            lcm_ig = lcms[pos]
            coprime = mono_mul(mh, leads[ig][0]) == lcm_ig
            if (coprime
                    or not (any(mono_divides(lcm, lcm_ig) for lcm in lcms[pos + 1:])
                            or any(mono_divides(lcm, lcm_ig) for _, lcm, _ in kept))):
                kept.append((ig, lcm_ig, coprime))
        for ij, lcm_ij in list(live.items()):
            if (mono_divides(mh, lcm_ij)
                    and mono_lcm(leads[ij[0]][0], mh) != lcm_ij
                    and mono_lcm(leads[ij[1]][0], mh) != lcm_ij):
                del live[ij]
        for ig, lcm_ig, coprime in kept:
            if not coprime:
                live[ig, ih] = lcm_ig
                heapq.heappush(queue, (mono_deg(lcm_ig), order.key(lcm_ig), (ig, ih)))
        active[:] = [ig for ig in active if not mono_divides(mh, leads[ig][0])]
        active.append(ih)

    def current_basis():
        return [store[i] for i in active], [leads[i] for i in active]

    def reduce_tracked(p: Polynomial, base_rep):
        bas, lds = current_basis()
        if track:
            quot: list = []
            r = reduce_full(p, bas, order, quot, lds)
            rep = list(base_rep)
            for q, ig in zip(quot, active):
                if not q.is_zero():
                    rep = [x - q * y for x, y in zip(rep, reps[ig])]
            return r, rep
        return reduce_full(p, bas, order, None, lds), None

    nin = len(inputs)
    for i, g in enumerate(inputs):
        base_rep = None
        if track:
            base_rep = [table.zero()] * nin
            base_rep[i] = table.one()
        r, rep = reduce_tracked(g, base_rep)
        if r.is_zero():
            continue
        update(admit(r, rep))

    processed = 0
    while live:
        ij = heapq.heappop(queue)[2]
        lcm = live.pop(ij, None)
        if lcm is None:
            continue  # pruned by a later update
        processed += 1
        if processed > caps.max_pairs:
            raise NotCompleted(f"pair cap {caps.max_pairs} exceeded")
        i, j = ij
        mi, ci = leads[i]
        mj, cj = leads[j]
        a = _mono_poly(table, mono_div(lcm, mi), Fraction(1) / ci)
        b = _mono_poly(table, mono_div(lcm, mj), Fraction(1) / cj)
        s = a * store[i] - b * store[j]
        if s.is_zero():
            continue
        base_rep = None
        if track:
            base_rep = [a * x - b * y for x, y in zip(reps[i], reps[j])]
        r, rep = reduce_tracked(s, base_rep)
        if r.is_zero():
            continue
        if r.degree() > caps.max_degree:
            raise NotCompleted(f"degree cap {caps.max_degree} exceeded during completion")
        if len(store) >= caps.max_basis:
            raise NotCompleted(f"basis cap {caps.max_basis} exceeded during completion")
        update(admit(r, rep))

    result = [store[i] for i in sorted(active)]
    if track:
        return result, [reps[i] for i in sorted(active)]
    return result


def interreduce(basis: Sequence, order: MonomialOrder = GREVLEX) -> list:
    """Minimalize and autoreduce a Groebner basis; output sorted and monic."""
    basis = [g for g in basis if not g.is_zero()]
    keep = []
    leads = [g.leading(order)[0] for g in basis]
    for i, g in enumerate(basis):
        if any(j != i and mono_divides(leads[j], leads[i])
               and (not mono_divides(leads[i], leads[j]) or j < i) for j in range(len(basis))):
            continue
        keep.append(g)
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = reduce_full(g, others, order) if others else g
        if not r.is_zero():
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading(order)[0]))
    return reduced


class Ideal:
    """Ideal of a polynomial ring with cached reduced Groebner bases and a
    cached cofactor-tracked basis for lifting; each cached basis is kept
    with its leading terms, which every reduction against it reuses."""

    __slots__ = ("table", "gens", "_gb")

    def __init__(self, table: VariableTable, gens: Iterable):
        cleaned = []
        for g in gens:
            if isinstance(g, (int, Fraction)):
                g = table.scalar(g)
            if g.table != table:
                raise ValueError("generator over a different table")
            if not g.is_zero():
                cleaned.append(g)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "gens", tuple(cleaned))
        object.__setattr__(self, "_gb", {})

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    def __repr__(self):
        return "Ideal(" + ", ".join(format_poly(g) for g in self.gens) + ")"

    def _cache_key(self, order: MonomialOrder, caps: GroebnerCaps) -> str:
        payload = {
            "kind": "groebner",
            "table": [list(self.table.names), list(self.table.blocks)],
            "gens": [cache_mod.encode_poly(g) for g in sorted(self.gens, key=poly_key)],
            "order": order.descriptor(),
            "caps": [caps.max_degree, caps.max_pairs, caps.max_basis],
        }
        return cache_mod.content_key(payload)

    def groebner(self, order: MonomialOrder = GREVLEX,
                 caps: GroebnerCaps = DEFAULT_CAPS) -> tuple:
        """Reduced Groebner basis (cached per monomial order and caps, with
        its leading terms)."""
        cache_id = (order.descriptor(), caps)
        hit = self._gb.get(cache_id)
        if hit is not None:
            return hit[0]
        disk = cache_mod.get_active_cache()
        stored = None
        if disk is not None:
            key = self._cache_key(order, caps)
            stored = disk.get(key)
        if stored is not None:
            basis = tuple(cache_mod.decode_poly(self.table, g) for g in stored)
        else:
            basis = tuple(interreduce(buchberger(self.gens, order, caps), order))
            if disk is not None:
                disk.put(key, [cache_mod.encode_poly(g) for g in basis])
        self._gb[cache_id] = basis, tuple(g.leading(order) for g in basis)
        return basis

    def leading_terms(self, order: MonomialOrder = GREVLEX,
                      caps: GroebnerCaps = DEFAULT_CAPS) -> tuple:
        """(monomial, coefficient) leading terms of the reduced basis, in the
        basis's order; stored with the basis, so never re-derived."""
        self.groebner(order, caps)
        return self._gb[order.descriptor(), caps][1]

    # -- queries -------------------------------------------------------------

    def normal_form(self, f: Polynomial, order: MonomialOrder = GREVLEX,
                    caps: GroebnerCaps = DEFAULT_CAPS) -> Polynomial:
        basis = self.groebner(order, caps)
        if not basis:
            return f
        return reduce_full(f, basis, order, leads=self._gb[order.descriptor(), caps][1])

    def member(self, f: Polynomial, order: MonomialOrder = GREVLEX,
               caps: GroebnerCaps = DEFAULT_CAPS) -> bool:
        if f.is_zero():
            return True
        return self.normal_form(f, order, caps).is_zero()

    def lift(self, f: Polynomial, order: MonomialOrder = GREVLEX,
             caps: GroebnerCaps = DEFAULT_CAPS) -> list | None:
        """Cofactors c_i with f = sum(c_i * gens_i), or None if f is not a member.

        The cofactor-tracked Buchberger run is made once per order and caps and
        kept with the reduced bases; the returned identity is exact and can be
        re-expanded as an independent certificate.
        """
        table = self.table
        if f.is_zero():
            return [table.zero()] * len(self.gens)
        if not self.gens:
            return None
        cache_id = ("tracked", order.descriptor(), caps)
        tracked = self._gb.get(cache_id)
        if tracked is None:
            basis, reps = buchberger(self.gens, order, caps, track=True)
            tracked = basis, reps, tuple(g.leading(order) for g in basis)
            self._gb[cache_id] = tracked
        basis, reps, leads = tracked
        quot: list = []
        if not reduce_full(f, basis, order, quot, leads).is_zero():
            return None
        out = [table.zero()] * len(self.gens)
        for q, rep in zip(quot, reps):
            if q.is_zero():
                continue
            for k in range(len(out)):
                out[k] = out[k] + q * rep[k]
        return out

    def is_unit_ideal(self, caps: GroebnerCaps = DEFAULT_CAPS) -> bool:
        basis = self.groebner(GREVLEX, caps)
        return any(g.is_constant() and not g.is_zero() for g in basis)

    def same_ideal(self, other: "Ideal", caps: GroebnerCaps = DEFAULT_CAPS) -> bool:
        if self.table != other.table:
            return False
        return (all(self.member(g, caps=caps) for g in other.gens)
                and all(other.member(g, caps=caps) for g in self.gens))

    def intersect_principal(self, f: Polynomial, caps: GroebnerCaps = DEFAULT_CAPS) -> "Ideal":
        """I n (f), via a tag variable and elimination."""
        table = self.table
        tname = table.fresh_name("t@")
        ext = table.extend([tname])
        t = ext.var(tname)
        gens = [table.lift(g, ext) * t for g in self.gens]
        gens.append((1 - t) * table.lift(f, ext))
        order = BlockElim((ext.index(tname),))
        basis = Ideal(ext, gens).groebner(order, caps)
        tpos = ext.index(tname)
        kept = [g for g in basis if all(m[tpos] == 0 for m in g.terms)]
        return Ideal(table, [ext.project(g, table) for g in kept])

    def colon(self, f: Polynomial, caps: GroebnerCaps = DEFAULT_CAPS) -> "Ideal":
        """(I : f) = {g : g*f in I}."""
        if f.is_zero():
            raise ValueError("colon by zero")
        if f.is_constant():
            return Ideal(self.table, self.gens)
        inter = self.intersect_principal(f, caps)
        out = []
        for g in inter.gens:
            q = exact_divide(g, f)
            if q is None:
                raise ArithmeticError("intersection element not divisible by f")
            out.append(q)
        return Ideal(self.table, out)

    def saturate(self, f: Polynomial, caps: GroebnerCaps = DEFAULT_CAPS,
                 max_steps: int = 64) -> "Ideal":
        current = self
        for _ in range(max_steps):
            nxt = current.colon(f, caps)
            if nxt.same_ideal(current, caps):
                return current
            current = nxt
        raise NotCompleted(f"saturation did not stabilize within {max_steps} colon steps")

    def eliminate(self, keep: Sequence, caps: GroebnerCaps = DEFAULT_CAPS) -> "Ideal":
        """I intersected with the subring on the kept variables."""
        keep = tuple(keep)
        keep_pos = {self.table.index(n) for n in keep}
        dominant = tuple(i for i in range(len(self.table.names)) if i not in keep_pos)
        sub = self.table.subtable(keep)
        if not dominant:
            return Ideal(sub, [self.table.project(g, sub) for g in self.gens])
        order = BlockElim(dominant)
        basis = self.groebner(order, caps)
        kept = [g for g in basis if all(all(m[i] == 0 for i in dominant) for m in g.terms)]
        return Ideal(sub, [self.table.project(g, sub) for g in kept])

    def dimension(self, caps: GroebnerCaps = DEFAULT_CAPS) -> int:
        """Krull dimension of the vanishing locus; -1 for the empty locus."""
        basis = self.groebner(GREVLEX, caps)
        if any(g.is_constant() and not g.is_zero() for g in basis):
            return -1
        n = len(self.table.names)
        if not basis:
            return n
        supports = []
        for g in basis:
            lm, _ = g.leading(GREVLEX)
            supports.append(frozenset(i for i, e in enumerate(lm) if e))
        best = 0

        def extend(candidate: set, start: int):
            nonlocal best
            best = max(best, len(candidate))
            if len(candidate) + (n - start) <= best:
                return
            for v in range(start, n):
                cand = candidate | {v}
                if all(not s <= cand for s in supports):
                    extend(cand, v + 1)

        extend(set(), 0)
        return best

    def radical_member(self, f: Polynomial, caps: GroebnerCaps = DEFAULT_CAPS) -> bool:
        """f vanishes on V(I)?  Fast path: plain membership; otherwise the
        auxiliary-variable trick 1 in I + (1 - t*f)."""
        if f.is_zero():
            return True
        if self.member(f, caps=caps):
            return True
        table = self.table
        tname = table.fresh_name("t@")
        ext = table.extend([tname])
        t = ext.var(tname)
        gens = [table.lift(g, ext) for g in self.gens]
        gens.append(1 - t * table.lift(f, ext))
        return Ideal(ext, gens).is_unit_ideal(caps)


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """Quotient f/g when g divides f exactly, else None."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    table = f.table
    rem = f
    quot = table.zero()
    gm, gc = g.leading(GREVLEX)
    while not rem.is_zero():
        rm, rc = rem.leading(GREVLEX)
        if not mono_divides(gm, rm):
            return None
        piece = _mono_poly(table, mono_div(rm, gm), rc / gc)
        quot = quot + piece
        rem = rem - piece * g
    return quot
