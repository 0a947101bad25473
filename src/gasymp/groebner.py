"""Buchberger Groebner engine and the ideal queries built on it.

The engine keeps its critical pairs in a queue keyed once per pair, when the
pair is created, by the degree and the monomial-order key of its lcm, and
always processes the least live pair (normal selection).  Each new element h
meets the active leads J once, through the colon ideal J : lm(h): its minimal
generators give the new pairs of Gebauer-Moeller criterion M, and criterion
B prunes the live pairs that lm(h) can reach.  The live pairs are indexed by
the support of their lcm (``LivePairs``), so criterion B tests only the pairs
whose lcm contains the variable of lm(h) with the fewest of them; a pruned
pair stays in the queue and is skipped when it comes up.  The main loop
goes one degree at a time, the total degree or, given the Hilbert series of
a weighted homogeneous ideal, as ``Ideal.eliminate`` does, the weighted one.
With the series, a degree's remaining pairs are dropped once the leading
terms leave that degree's known number of standard monomials (Traverso's
Hilbert-driven Buchberger, J. Symbolic Comput. 22, 1996), read once at the
degree's head.  Their count is read from the leading terms' numerator, kept
along by one colon step per new element (Bigatti); the final leading terms
must then have exactly the given series, by one from-scratch numerator.
Every admitted element is held once, as a primitive integer row with a
positive lead (``int_row``), and the reduced basis is made from those rows.
The engine enforces resource caps: exceeding a cap raises
:class:`NotCompleted` instead of returning a truncated (wrong) basis, and the
pair cap counts processed live pairs only.  An optional cofactor-tracking
mode expresses every basis element and every reduction in terms of the input
generators, which powers exact membership certificates and exact division by
a polynomial or modulo an ideal (``Ideal.lift``).  An ``Ideal`` keeps each
basis ``Ideal.groebner`` computes for as long as the object lives, in the
process only: the disk cache holds results built from bases, never a basis.
An elimination keeps none: it interreduces only the rows it returns.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from itertools import compress
from operator import le, mul
from typing import Iterable, Sequence

from . import hilbert
from .linalg import integral, sparse_solve
from .poly import (GREVLEX, BlockElim, MonomialOrder, Polynomial, VariableTable,
                   format_poly, mono_deg, mono_div, mono_mul, mul_terms)


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


def _row(work: dict, order: MonomialOrder) -> tuple:
    """(row, c): the nonzero integer term dict ``work`` is c times its row."""
    lm = max(work, key=order.key)
    c = gcd(*work.values())
    if work[lm] < 0:
        c = -c
    return (lm, work[lm] // c, tuple((m, v // c) for m, v in work.items() if m != lm)), c


def int_row(g: Polynomial, order: MonomialOrder = GREVLEX) -> tuple:
    """g scaled to a primitive integer polynomial with a positive leading
    coefficient, as the integer row (leading monomial, leading coefficient,
    tail); the tail lists the other terms as (monomial, integer) pairs.
    Scaling does not change a reduction's remainder up to a scalar, so each
    basis element's row is built once and every reduction reads it."""
    return _row(integral(g.terms), order)[0]


def reduce_rows(work: dict, rows: Sequence, order: MonomialOrder = GREVLEX,
                quotients: list | None = None) -> tuple:
    """The fraction-free full reduction of the integer polynomial ``work``
    (monomial -> int, consumed) against integer rows (``int_row``).

    Returns (R, s): the integer remainder R, no term of which is divisible by
    a leading monomial, and the positive integer s with
    s * work = sum(Q_i * G_i) + R, where G_i is row i as a polynomial.  A term
    c*m with m = t*lm_i is cancelled as (L_i/g)*work - (c/g)*t*G_i, where L_i
    is the row's leading coefficient and g = gcd(c, L_i); the remainder, the
    quotients and s are scaled by L_i/g with it, so nothing is divided.  When
    ``quotients`` is a list of dicts, one per row, Q_i is added into them.
    The terms wait on a heap under the order's ``heap_key``, so the largest
    monomial pops first."""
    key = order.heap_key
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
            if all(map(le, lm, m)):  # mono_divides(lm, m), inlined: the hottest test
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


def reduce_full(p: Polynomial, basis: Sequence, order: MonomialOrder = GREVLEX,
                rows: Sequence | None = None) -> Polynomial:
    """Full normal form of p against basis (every term reduced).

    ``rows`` may carry the basis's precomputed integer rows (``int_row``),
    which are then read in its place.  The reduction runs in integers
    (``reduce_rows``); only its input and its remainder are rational.  The
    quotients, when a caller needs them, are ``reduce_rows``' own."""
    if rows is None:
        rows = [int_row(g, order) for g in basis]
    remainder, scale = reduce_rows(integral(p.terms), rows, order)
    scale *= lcm(*(c.denominator for c in p.terms.values()))
    return Polynomial(p.table, {m: Fraction(c, scale) for m, c in remainder.items()})


def _shortfall(num: list, target: list, weights: tuple, d: int) -> int:
    """How many leading monomials of weighted degree d leading terms with
    Hilbert numerator ``num`` still miss: their Hilbert function minus the
    ``target``'s, at d."""
    return hilbert.hilbert_function(num, weights, d) - hilbert.hilbert_function(target, weights, d)


def _colon_pairs(mh: tuple, leads: list) -> tuple:
    """(colon, pairs) for a new leading monomial mh against the active leads
    J, given as (index, monomial) by increasing index, none dividing mh.

    ``colon`` is the minimal generators of the colon ideal J : mh, which the
    excesses lcm(mh, g) / mh generate, by increasing degree
    (``hilbert.minimal``).  ``pairs`` is (index, lcm) for the new pairs that
    Gebauer-Moeller criterion M keeps: one per minimal excess, with the last
    g that has it, unless that g is coprime to mh (its excess is g itself; no
    other g has that excess, as no lead divides another).  Every other pair
    has an lcm that another pair's lcm divides, or shares its lcm with a
    later or a coprime pair.

    An excess differs from g only on the support of mh, so each is g with
    those few positions lowered."""
    support = [(v, e) for v, e in enumerate(mh) if e]
    last = {}  # excess -> (the last index with it, its leading monomial)
    for ig, mg in leads:
        excess = list(mg)
        for v, e in support:
            excess[v] = mg[v] - e if mg[v] > e else 0
        last[tuple(excess)] = ig, mg
    colon = hilbert.minimal(last)
    return colon, [(last[e][0], mono_mul(mh, e)) for e in colon if last[e][1] != e]


class LivePairs:
    """The live critical pairs (i, j) of a Buchberger run with the lcm of their
    leading monomials, indexed by the lcm's support: ``buckets[v]`` holds the
    live pairs whose lcm contains x_v.  A pair leaves its buckets when it is
    popped or pruned."""

    def __init__(self, nvars: int):
        self.lcm: dict = {}  # (i, j) -> lcm of the leading monomials
        self.buckets = [set() for _ in range(nvars)]

    def __bool__(self) -> bool:
        return bool(self.lcm)

    def add(self, ij: tuple, lcm_ij: tuple) -> None:
        self.lcm[ij] = lcm_ij
        for v in compress(range(len(lcm_ij)), lcm_ij):
            self.buckets[v].add(ij)

    def pop(self, ij: tuple):
        """The lcm of the live pair ij, which leaves the store; None for a pair
        that is not live."""
        lcm_ij = self.lcm.pop(ij, None)
        if lcm_ij is not None:
            for v in compress(range(len(lcm_ij)), lcm_ij):
                self.buckets[v].remove(ij)
        return lcm_ij

    def candidates(self, mh: tuple):
        """The live pairs whose lcm mh can divide, and maybe others: the bucket
        of the variable of mh with the fewest live pairs, as such an lcm
        contains every variable of mh; every live pair when mh is 1."""
        support = compress(self.buckets, mh)
        return min(support, key=len, default=self.lcm)

    def prune(self, mh: tuple, leads: Sequence) -> None:
        """Gebauer-Moeller criterion B for a new leading monomial mh: drop the
        live pairs (i, j) whose lcm mh divides without being lcm(lm i, mh) or
        lcm(lm j, mh); ``leads[k]`` is the leading monomial of element k.
        Which pairs go does not depend on the order they are tested in."""
        lcms = self.lcm
        dropped = [ij for ij in self.candidates(mh)
                   if (all(map(le, mh, lcms[ij]))
                       and tuple(map(max, leads[ij[0]], mh)) != lcms[ij]
                       and tuple(map(max, leads[ij[1]], mh)) != lcms[ij])]
        for ij in dropped:
            self.pop(ij)


def buchberger(gens: Sequence, order: MonomialOrder = GREVLEX,
               caps: GroebnerCaps = DEFAULT_CAPS, track: bool = False,
               target: tuple | None = None):
    """Groebner basis by Buchberger's algorithm.

    Every admitted element is held once, as its integer row (``int_row``:
    primitive, positive lead L).  The S-pair of rows i and j is
    (L_j/g)*t_i*G_i - (L_i/g)*t_j*G_j with g = gcd(L_i, L_j), reduced by
    ``reduce_rows``.  The run returns its final rows, by admission, and builds
    no ``Polynomial``; ``interreduce`` makes the reduced basis from them.

    Each pair (i, j) is keyed once, when it is created, by (degree of its lcm,
    order key of its lcm, (i, j)) and pushed onto a heap; its lcm is stored
    with it in ``LivePairs``, indexed by the lcm's support.  Each new
    element's update reads its colon ideal once (``_colon_pairs``) for the new
    pairs of criterion M, the pairs the quadratic Becker-Weispfenning scan
    keeps; criterion B then drops live pairs, testing only one support bucket
    of lm(h) (``LivePairs.prune``), and a dropped pair's heap entry is skipped
    when it is popped.  The pair processed next is always the live pair with
    the least key, and ``caps.max_pairs`` counts those processed pairs only.

    The main loop goes one degree at a time, weighted by ``target``'s
    weights or else by all ones: each step pops the pairs of the least degree
    d in the queue, those created at d included, as the heap is keyed by
    degree first.

    ``target`` is ``(weights, series)``: positive integer weights for which
    every input is homogeneous, and a function returning the Hilbert series
    numerator of the ideal in that grading (``hilbert.numerator``), called
    once, at the first degree.  The numerator of the active leads is kept
    along, one ``hilbert.colon_step`` per update.  At the head of each degree
    d, the run ends once the leading terms have the whole target series, and
    otherwise the number of leading monomials still missing at d is read
    from the numerator (``_shortfall``).  Each element admitted at d (its
    leading monomial has degree d, since every reduction stays homogeneous)
    lowers it by one, and once it reaches 0 the rest of degree d reduces to
    zero and is dropped without reduction or count against
    ``caps.max_pairs``; a count below 0 drops nothing.  Every run that read
    the target ends with one from-scratch ``hilbert.numerator`` of its
    leading terms, which must be the target, else ``AssertionError``: the
    count trusts the target and every colon step, and this checks both.  A
    run without pairs reads no target.

    With ``track=True`` the result is (rows, representations) where
    representations[i] is one term dict per nonzero input, expressing row i
    as a polynomial over them: from s*work = sum(Q_k*G_k) + R,
    rep(R) = s*rep(work) - sum(Q_k*rep(G_k)).  ``Ideal.lift`` reduces
    against those rows, a Groebner basis that need not be the reduced one.
    """
    inputs = [g for g in gens if not g.is_zero()]
    if not inputs:
        return ([], []) if track else []

    rows: list = []    # every element ever admitted, as its integer row (int_row)
    leads: list = []   # their leading monomials
    reps: list = []    # parallel representations: n term dicts, one per input
    n = len(inputs) if track else 0
    # indices forming the current basis, increasing: an update keeps the order
    # of those it keeps and appends the new index, the largest
    active: list = []
    width = len(inputs[0].table.names)
    live = LivePairs(width)  # the pairs still to process
    queue: list = []   # heap of (degree of lcm, order key of lcm, (i, j)), one entry per pair
    weights, series = target or ((1,) * width, None)
    target_num = None
    num = [1]  # Hilbert numerator of the active leads, kept when ``target`` is given

    def degree(m) -> int:
        return sum(map(mul, m, weights))

    def reduce(work: dict, rep) -> tuple:
        """The remainder of the integer polynomial ``work`` (consumed)
        against the active rows and, when tracked, its representation."""
        quots = [{} for _ in active] if track else None
        remainder, s = reduce_rows(work, [rows[k] for k in active], order, quots)
        if track and remainder:
            rep = [{m: s * c for m, c in x.items()} for x in rep]
            for k, q in zip(active, quots):
                neg = {m: -c for m, c in q.items()}
                for x, y in zip(rep, reps[k]):
                    mul_terms(neg, y, x)
        return remainder, rep

    def admit(remainder: dict, rep) -> int:
        """Store the nonzero remainder as its integer row; the remainder is c
        times the row, so the row's representation is rep / c."""
        row, c = _row(remainder, order)
        rows.append(row)
        leads.append(row[0])
        reps.append([{m: v / c for m, v in x.items()} for x in rep])
        return len(rows) - 1

    def update(ih: int):
        """Gebauer-Moeller update for the new element ih: the new pairs of
        criterion M (``_colon_pairs``), then criterion B on the live pairs
        that lm(h) can reach (``LivePairs.prune``)."""
        nonlocal num
        mh = leads[ih]
        colon, pairs = _colon_pairs(mh, [(ig, leads[ig]) for ig in active])
        live.prune(mh, leads)
        for ig, lcm_ig in pairs:
            live.add((ig, ih), lcm_ig)
            heapq.heappush(queue, (degree(lcm_ig), order.key(lcm_ig), (ig, ih)))
        if series is not None:
            num = hilbert.colon_step(num, colon, weights, degree(mh))
        active[:] = [ig for ig in active if not all(map(le, mh, leads[ig]))]
        active.append(ih)

    for i, g in enumerate(inputs):
        work = integral(g.terms)
        m = next(iter(work))  # work = (work[m] / g[m]) * g
        rep = [{(0,) * len(m): work[m] / g.terms[m]} if k == i else {} for k in range(n)]
        remainder, rep = reduce(work, rep)
        if remainder:
            update(admit(remainder, rep))

    processed = 0
    while live:
        d = queue[0][0]
        missing = None  # the leading monomials still missing at d; None without a target
        if series is not None:
            if target_num is None:
                target_num = series()
            if num == target_num:
                break  # the leads have the target series: every remaining pair reduces to zero
            missing = _shortfall(num, target_num, weights, d)
        while queue and queue[0][0] == d:
            _, _, ij = heapq.heappop(queue)
            lcm = live.pop(ij)
            if lcm is None or missing == 0:
                continue  # pruned by a later update, or degree d is complete
            processed += 1
            if processed > caps.max_pairs:
                raise NotCompleted(f"pair cap {caps.max_pairs} exceeded")
            i, j = ij
            (mi, li, tail_i), (mj, lj, tail_j) = rows[i], rows[j]
            g = gcd(li, lj)
            a, b = {mono_div(lcm, mi): lj // g}, {mono_div(lcm, mj): -(li // g)}
            work = mul_terms(b, dict(tail_j), mul_terms(a, dict(tail_i)))
            rep = [mul_terms(b, y, mul_terms(a, x)) for x, y in zip(reps[i], reps[j])]
            remainder, rep = reduce(work, rep)
            if not remainder:
                continue
            if max(map(mono_deg, remainder)) > caps.max_degree:
                raise NotCompleted(f"degree cap {caps.max_degree} exceeded during completion")
            if len(rows) >= caps.max_basis:
                raise NotCompleted(f"basis cap {caps.max_basis} exceeded during completion")
            update(admit(remainder, rep))
            if missing is not None:
                missing -= 1

    # the independent check of the incremental count: one from-scratch series
    if (target_num is not None
            and hilbert.numerator([leads[i] for i in active], weights) != target_num):
        raise AssertionError("leading terms miss the target Hilbert series")
    if not track:
        return [rows[i] for i in active]
    return [rows[i] for i in active], [reps[i] for i in active]


def interreduce(rows: Sequence, table: VariableTable, order: MonomialOrder = GREVLEX) -> tuple:
    """(basis, rows): the reduced Groebner basis, monic and sorted by leading
    monomial, from the integer rows of a minimal one, as ``buchberger``
    returns them, and the basis's own integer rows (``int_row``), in its
    order.  A tail term below lm(g) can only be divisible by a smaller lead,
    so the rows are taken by increasing lead and each tail is reduced
    (``reduce_rows``) against the rows already reduced; each row and each
    ``Polynomial`` is made once."""
    done: list = []  # the reduced rows so far, by increasing lead
    basis = []
    for lm, lead, tail in sorted(rows, key=lambda row: order.key(row[0])):
        remainder, s = reduce_rows(dict(tail), done, order)
        row, _ = _row({lm: s * lead, **remainder}, order)
        done.append(row)
        basis.append(Polynomial(table, {lm: 1, **{m: Fraction(c, row[1]) for m, c in row[2]}}))
    return basis, done


class Ideal:
    """Ideal of a polynomial ring with memoized reduced Groebner bases, each
    kept with the integer rows (``int_row``) ``interreduce`` built for it,
    which every reduction against it reads (``_rows``) and which give its
    leading monomials, and a memoized cofactor-tracked basis for lifting: the
    rows ``buchberger`` returns, with its representations in integers.  An
    elimination (``eliminate``) stores no basis.  The lift is the one
    division, in integers (``lift_row``) with a rational wrapper (``lift``):
    over (g) alone it is exact division by g, as that quotient is unique.
    The queries read the one reduced GREVLEX basis, as membership and the
    existence of a lift do not depend on the monomial order; a normal form
    in another order is ``reduce_full(f, groebner(order), order)``."""

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

    def groebner(self, order: MonomialOrder = GREVLEX,
                 caps: GroebnerCaps = DEFAULT_CAPS) -> tuple:
        """Reduced Groebner basis, computed once per monomial order and caps
        (``interreduce`` of the final rows of an untracked ``buchberger``
        run) and kept on this object with the integer rows ``interreduce``
        built for it."""
        cache_id = (order.descriptor(), caps)
        hit = self._gb.get(cache_id)
        if hit is None:
            basis, rows = interreduce(buchberger(self.gens, order, caps), self.table, order)
            hit = self._gb[cache_id] = (tuple(basis), tuple(rows))
        return hit[0]

    def _rows(self, caps: GroebnerCaps) -> tuple:
        """The integer rows stored with the reduced GREVLEX basis, read from
        the memo once per reduction; a miss computes it through ``groebner``."""
        hit = self._gb.get((GREVLEX.descriptor(), caps))
        if hit is None:
            self.groebner(GREVLEX, caps)
            hit = self._gb[GREVLEX.descriptor(), caps]
        return hit[1]

    def leading_terms(self, *, caps: GroebnerCaps = DEFAULT_CAPS) -> tuple:
        """Leading monomials of the reduced GREVLEX basis, in its order; read
        from its stored integer rows, so never re-derived."""
        return tuple(row[0] for row in self._rows(caps))

    # -- queries -------------------------------------------------------------

    def normal_form(self, f: Polynomial, *, caps: GroebnerCaps = DEFAULT_CAPS) -> Polynomial:
        rows = self._rows(caps)
        return reduce_full(f, (), GREVLEX, rows) if rows and not f.is_zero() else f

    def reduce_row(self, work: dict, *, caps: GroebnerCaps = DEFAULT_CAPS) -> tuple:
        """``reduce_rows``' pair (R, s) for the integer polynomial ``work``
        (monomial -> int, consumed) against the rows stored with the reduced
        basis: R is s times the normal form of ``work``, s a positive
        integer.  A ``work`` with no term divisible by a leading monomial is
        already reduced and comes back as (work, 1) without ``reduce_rows``;
        the test stays out of that core, whose Buchberger callers would pay
        for it on every S-pair."""
        rows = self._rows(caps)
        leads = [row[0] for row in rows]
        if any(all(map(le, lm, m)) for m in work for lm in leads):
            return reduce_rows(work, rows, GREVLEX)
        return work, 1

    def member(self, f: Polynomial, *, caps: GroebnerCaps = DEFAULT_CAPS) -> bool:
        """f in the ideal: its integer remainder against the stored rows
        (``reduce_row``) is zero.  The zero polynomial needs no basis."""
        return f.is_zero() or not self.reduce_row(integral(f.terms), caps=caps)[0]

    def lift(self, f: Polynomial, *, caps: GroebnerCaps = DEFAULT_CAPS) -> list | None:
        """Cofactors c_i with f = sum(c_i * gens_i), or None if f is not a member:
        ``lift_row`` of f scaled to integers, divided back by its scale.  The
        identity is exact and can be re-expanded as an independent certificate.
        """
        if f.is_zero():
            return [self.table.zero()] * len(self.gens)
        lifted = self.lift_row(integral(f.terms), caps=caps)
        if lifted is None:
            return None
        out, s = lifted
        scale = Fraction(1, s * lcm(*(c.denominator for c in f.terms.values())))
        return [Polynomial(self.table, {m: c * scale for m, c in x.items()}) for x in out]

    def lift_row(self, work: dict, *, caps: GroebnerCaps = DEFAULT_CAPS) -> tuple | None:
        """The integer core of ``lift``: (cofactors, s), integer term dicts C_i
        and a positive integer s with s * work = sum(C_i * gens_i), for the
        integer polynomial ``work`` (monomial -> int, consumed); None when work
        is not a member.

        The cofactor-tracked GREVLEX Buchberger run is made once per caps and
        kept with the reduced bases, its representations as integer term dicts
        over one common denominator D.  ``work`` is reduced against its rows
        (``reduce_rows``: s0 * work = sum(Q_k * G_k)), and the quotients meet
        the representations D * G_k = sum(R_ki * gens_i) in term dicts
        (``mul_terms``), so C_i = sum(Q_k * R_ki) and s = s0 * D."""
        cache_id = ("tracked", caps)
        if cache_id not in self._gb:
            rows, reps = buchberger(self.gens, GREVLEX, caps, track=True)
            den = lcm(*(c.denominator for rep in reps for x in rep for c in x.values()))
            reps = [[{m: int(c * den) for m, c in x.items()} for x in rep] for rep in reps]
            self._gb[cache_id] = rows, reps, den
        rows, reps, den = self._gb[cache_id]
        quots = [{} for _ in rows]
        remainder, s = reduce_rows(work, rows, GREVLEX, quots)
        if remainder:
            return None
        out = [{} for _ in self.gens]
        for q, rep in zip(quots, reps):
            for x, y in zip(out, rep):
                mul_terms(q, y, x)
        return out, s * den

    def eliminate(self, keep: Sequence, caps: GroebnerCaps = DEFAULT_CAPS) -> "Ideal":
        """I intersected with the subring on the kept variables: the elements
        of the reduced basis free of the other variables, under the
        elimination order that makes those dominant (the Elimination Theorem).

        Only those elements are made.  Under that order every monomial with a
        dominant variable is larger than every monomial free of them, so a
        ``buchberger`` row whose leading monomial is free of them is free of
        them throughout, and every leading monomial that divides one of its
        tail terms is another such row's.  ``interreduce`` of those rows
        alone is therefore exactly the dominant-free part of the full reduced
        basis; the other rows are dropped unreduced, and no basis is kept on
        this object.

        When I is homogeneous for a grading with weight 1 on every eliminated
        variable (``_grading``), the Buchberger run is Hilbert driven: its
        target is the series of I read from the cheap basis that eliminates
        the kept variables instead.  Every monomial order gives a homogeneous
        ideal the same Hilbert function (Macaulay), so that target is exact;
        for a graph ideal I + (Y_i - g_i) that basis is the tags plus a basis
        of I."""
        keep = tuple(keep)
        keep_pos = {self.table.index(n) for n in keep}
        dominant = tuple(i for i in range(len(self.table.names)) if i not in keep_pos)
        sub = self.table.subtable(keep)
        if not dominant:
            return Ideal(sub, [self.table.project(g, sub) for g in self.gens])
        order = BlockElim(dominant)
        weights = self._grading(dominant)
        if weights is None:
            rows = buchberger(self.gens, order, caps)
        else:
            def series():
                rows = buchberger(self.gens, BlockElim(tuple(keep_pos)), caps)
                return hilbert.numerator([row[0] for row in rows], weights)

            rows = buchberger(self.gens, order, caps, target=(weights, series))
        kept = [row for row in rows if not any(row[0][i] for i in dominant)]
        basis, _ = interreduce(kept, self.table, order)
        return Ideal(sub, [self.table.project(g, sub) for g in basis])

    def _grading(self, unit: Sequence) -> tuple | None:
        """Positive integer weights, 1 on the positions ``unit``, for which
        every generator is homogeneous; None when the solution of that linear
        system (free weights 0, ``sparse_solve``) has another weight."""
        n = len(self.table.names)
        unit = set(unit)
        cols = {i: k for k, i in enumerate(i for i in range(n) if i not in unit)}
        equations, rhs = [], []
        for g in self.gens:
            first, *rest = g.terms
            for m in rest:
                step = [e - e0 for e, e0 in zip(m, first)]
                equations.append({cols[i]: d for i, d in enumerate(step) if d and i in cols})
                rhs.append(-sum(d for i, d in enumerate(step) if i in unit))
        solution, _ = sparse_solve(equations, rhs, len(cols))
        if solution is None or any(w <= 0 or w.denominator != 1 for w in solution):
            return None
        weights = [1] * n
        for i, k in cols.items():
            weights[i] = int(solution[k])
        return tuple(weights)

    def dimension(self, caps: GroebnerCaps = DEFAULT_CAPS) -> int:
        """Krull dimension of the vanishing locus; -1 for the empty locus.

        Read from the Hilbert series of the GREVLEX leading-term ideal.  GREVLEX
        refines the total degree, so that ideal has the affine Hilbert function
        of I (the number of standard monomials of degree at most d) even when I
        is not homogeneous, as for nonzero and generic levels, and the degree
        of that function is dim V(I)."""
        return hilbert.dimension(self.leading_terms(caps=caps), len(self.table.names))
