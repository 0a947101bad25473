"""Buchberger Groebner engine and the ideal queries built on it.

The engine keeps its critical pairs in a queue keyed once per pair, when the
pair is created, by the degree and the monomial-order key of its lcm, and
always processes the least live pair (normal selection).  Each new element h
meets the active leads J once, through the colon ideal J : lm(h): its minimal
generators give the new pairs of Gebauer-Moeller criterion M, and criterion
B prunes the live pairs that lm(h) can reach.  The live pairs are indexed by
the support of their lcm (``LivePairs``), so criterion B tests only the pairs
whose lcm contains the variable of lm(h) with the fewest of them; a pruned
pair stays in the queue and is skipped when it comes up.  The pair loop
runs on exponent ints (``hilbert.Fields``): each lcm is lm(h) plus its
excess, and each pair's key is read off that excess.  The main loop
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
Inside the engine each monomial is one int (``Packing``): the order's key
packed in fixed-width fields, so monomials compare as ints, multiply by
addition and divide by subtraction, with a guard bit per field that a
division's borrow or a product's overflow sets; a basis stays packed from
the Buchberger run to the rows an ``Ideal`` stores.
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
from functools import lru_cache
from fractions import Fraction
from math import gcd, lcm
from itertools import compress
from operator import le, mul
from typing import Iterable, Sequence

from . import hilbert
from .linalg import integral, sparse_solve
from .poly import (GREVLEX, BlockElim, MonomialOrder, Polynomial, VariableTable,
                   format_poly, mul_terms)


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


class _Overflow(Exception):
    """A monomial does not fit the fields of its ``Packing``: the computation
    restarts at twice the width (``Packing.wider``)."""


class Packing:
    """The monomials of ``nvars`` variables under ``order`` as single ints.

    ``pack(m)`` stores the absolute values of ``order.key(m)`` as big-endian
    fields of ``width`` bits, the first entry in the highest field; the top
    bit of each field is a guard, 0 in every packed monomial.  The key must
    be linear in m with every coefficient 0, 1 or -1, each entry of one sign,
    and every variable must have an entry of its own (its exponent or its
    negation), and these must be the low fields, in variable order; the
    constructor asserts all four, and GREVLEX, LEX and ``BlockElim`` keys
    have them.  Then, for packed monomials a and b:

    - ``a ^ mask`` and ``b ^ mask`` compare as the keys do, as ``mask``
      complements the fields of the negative entries; ``a ^ flip`` is that
      comparison reversed, for a min-heap;
    - the product is ``a + b``, while no field reaches its guard bit;
    - a divides b iff ``(b - a) & guards`` is 0, and b - a is then the
      quotient: the field of a variable with a smaller exponent in b borrows
      and sets its guard, and a negative difference borrows at the top.

    Every field is at most the total degree, so a monomial of total degree
    below 2**(width - 1) fits; ``pack`` raises ``_Overflow`` for any other,
    and ``reduce_rows`` for a product that sets a guard bit.  The caller then
    restarts at ``wider()``: the packed order, products and divisibility
    are those of the monomials at every width, so no result depends on it."""

    __slots__ = ("order", "nvars", "width", "weights", "own", "exps", "nbytes", "field",
                 "limit", "guards", "mask", "flip")

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        units = [tuple(int(u == v) for u in range(nvars)) for v in range(nvars)]
        zero = order.key((0,) * nvars)
        keys = [order.key(u) for u in units]
        columns = [tuple(k[f] for k in keys) for f in range(len(zero))]  # coefficients per entry
        probe = tuple(range(1, nvars + 1))
        assert not any(zero) and order.key(probe) == tuple(
            sum(map(mul, col, probe)) for col in columns), "the order key is not linear"
        assert all(set(col) <= {0, 1} or set(col) <= {0, -1} for col in columns), \
            "a key entry is not of one sign with unit coefficients"
        own = [max((f for f, col in enumerate(columns) if tuple(map(abs, col)) == u), default=None)
               for u in units]  # each variable's own entry, the last if it has several
        assert None not in own, "a variable has no key entry of its own"
        shifts = [(len(columns) - 1 - f) * width for f in range(len(columns))]
        self.order, self.nvars, self.width = order, nvars, width
        self.field = (1 << (width - 1)) - 1  # the value bits of one field
        self.limit = 1 << (width - 1)        # the least total degree that does not fit
        self.weights = tuple(sum(abs(col[v]) << s for col, s in zip(columns, shifts))
                             for v in range(nvars))
        self.own = tuple(shifts[f] for f in own)
        assert self.own == tuple(range(0, width * nvars, width)), \
            "the variables' own fields are not the low ones in variable order"
        self.exps = (1 << width * nvars) - 1  # the own fields: the exponent int under a mask
        self.nbytes = len(columns) * width // 8
        self.guards = sum(1 << (s + width - 1) for s in shifts)
        self.mask = sum(self.field << s for col, s in zip(columns, shifts) if -1 in col)
        self.flip = sum(self.field << s for s in shifts) ^ self.mask

    def wider(self) -> "Packing":
        """The packing of the same order at twice the field width."""
        return _packing(self.order, self.nvars, 2 * self.width)

    def key(self, p: int) -> int:
        """The order key of the packed monomial p, as an int."""
        return p ^ self.mask

    def lead(self, terms: dict) -> int:
        """The largest packed monomial of a nonempty term dict."""
        mask = self.mask
        return max(m ^ mask for m in terms) ^ mask

    def pack(self, m: tuple) -> int:
        """The exponent tuple m as one int; ``_Overflow`` if it does not fit."""
        if sum(m) >= self.limit:
            raise _Overflow
        return sum(map(mul, m, self.weights))

    def unpack(self, p: int) -> tuple:
        """The exponent tuple of the packed monomial p: at 8 bits, the low
        bytes of its little-endian bytes."""
        if self.width == 8:
            return tuple(p.to_bytes(self.nbytes, "little")[:self.nvars])
        field = self.field
        return tuple([(p >> s) & field for s in self.own])

    def exponents(self, p: int) -> int:
        """The packed monomial p as its exponents packed by
        ``hilbert.Fields`` at this width: its own fields, the low ones."""
        return p & self.exps

    def pack_terms(self, terms: dict) -> dict:
        """A term dict on exponent tuples with its monomials packed."""
        if max(map(sum, terms), default=0) >= self.limit:
            raise _Overflow
        weights = self.weights
        return {sum(map(mul, m, weights)): c for m, c in terms.items()}

    def pack_row(self, row: tuple) -> tuple:
        """An integer row (``int_row``) with its monomials packed."""
        lm, lead, tail = row
        pack = self.pack
        return pack(lm), lead, tuple([(pack(m), c) for m, c in tail])


@lru_cache(maxsize=256)
def _packing(order: MonomialOrder, nvars: int, width: int = 8) -> Packing:
    """The ``Packing`` of ``order`` on ``nvars`` variables, built once per
    width; a computation starts at 8 bits per field."""
    return Packing(order, nvars, width)


@lru_cache(maxsize=256)
def _fields(weights: tuple, width: int) -> hilbert.Fields:
    """The ``hilbert.Fields`` of a grading at a packing's width, built once
    per width, as ``_packing`` is: building it takes about 6% of a
    Buchberger run on the small ideals of an analysis."""
    return hilbert.Fields(weights, width)


def _fitted(run, packing: Packing):
    """run(packing), again at twice the width while it overflows."""
    while True:
        try:
            return run(packing)
        except _Overflow:
            packing = packing.wider()


def _repacked(rows: Sequence, packing: Packing, wide: Packing) -> Sequence:
    """Integer rows packed by ``packing``, packed by ``wide`` (as they are if it is one)."""
    if wide is packing:
        return rows
    unpack = packing.unpack
    return [wide.pack_row((unpack(lm), lead, [(unpack(m), c) for m, c in tail]))
            for lm, lead, tail in rows]


def _row(work: dict, lm) -> tuple:
    """(row, c): the nonzero integer term dict ``work``, whose leading
    monomial is lm, is c times its row."""
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
    work = integral(g.terms)
    return _row(work, max(work, key=order.key))[0]


def reduce_rows(work: dict, rows: Sequence, packing: Packing,
                quotients: list | None = None) -> tuple:
    """The fraction-free full reduction of the integer polynomial ``work``
    (packed monomial -> int, consumed) against integer rows (``int_row``)
    whose monomials are packed by ``packing``.

    Returns (R, s): the packed integer remainder R, no term of which is
    divisible by a leading monomial, and the positive integer s with
    s * work = sum(Q_i * G_i) + R, where G_i is row i as a polynomial.  A term
    c*m with m = t*lm_i is cancelled as (L_i/g)*work - (c/g)*t*G_i, where L_i
    is the row's leading coefficient and g = gcd(c, L_i); the remainder, the
    quotients and s are scaled by L_i/g with it, so nothing is divided.  When
    ``quotients`` is a list of dicts, one per row, the packed Q_i is added
    into them.  The terms wait on a heap of ints under ``packing.flip``, so
    the largest monomial pops first; a divisor test is one subtraction and
    one mask, and a product one addition.  A term of ``work`` or a product
    with a guard bit set raises ``_Overflow``."""
    flip, guards = packing.flip, packing.guards
    if any(m & guards for m in work):
        raise _Overflow
    leads = [row[0] for row in rows]
    heap = [m ^ flip for m in work]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    remainder = {}
    scale = 1
    while heap:
        m = heappop(heap) ^ flip
        c = work.pop(m, 0)
        if not c:
            continue
        for i, lm in enumerate(leads):
            q = m - lm
            if not q & guards:  # lm divides m, and q = m / lm
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
        if quotients is not None:
            quotients[i][q] = quotients[i].get(q, 0) + b
        for gm, gc in tail:
            mm = gm + q
            prev = work.get(mm)
            if prev is None:
                if mm & guards:
                    raise _Overflow
                heappush(heap, mm ^ flip)
                work[mm] = -b * gc
            else:
                work[mm] = prev - b * gc
    return remainder, scale


def _reduce_packed(work: dict, rows: Sequence, packing: Packing, track: bool = False) -> tuple:
    """(R, s, quotients): ``reduce_rows`` of the integer polynomial ``work``
    (monomial -> int, left as it is) against rows packed by ``packing``.
    Only here is work packed, and R and the quotients (None unless
    ``track``) come back unpacked.  When a term of work or a product does
    not fit, the rows are packed again (``_repacked``), for this call only,
    at the width that fits."""
    def run(wide):
        quots = [{} for _ in rows] if track else None
        wide_rows = _repacked(rows, packing, wide)
        remainder, s = reduce_rows(wide.pack_terms(work), wide_rows, wide, quots)
        unpack = wide.unpack
        return ({unpack(m): c for m, c in remainder.items()}, s,
                quots and [{unpack(m): c for m, c in q.items()} for q in quots])

    return _fitted(run, packing)


def reduce_full(p: Polynomial, basis: Sequence, order: MonomialOrder = GREVLEX,
                rows: tuple | None = None) -> Polynomial:
    """Full normal form of p against basis (every term reduced).

    ``rows`` may carry the basis's precomputed integer rows (``int_row``),
    packed, with their packing, as (rows, packing), as ``Ideal.normal_form``
    passes its stored ones; they are then read in its place.  The reduction
    runs in integers on packed monomials (``_reduce_packed``); only its
    input and its remainder are rational."""
    if rows is None:  # packed at the least width from 8 bits that fits them
        rows = _fitted(lambda packing: ([packing.pack_row(int_row(g, order)) for g in basis],
                                        packing), _packing(order, len(p.table.names)))
    remainder, scale, _ = _reduce_packed(integral(p.terms), *rows)
    scale *= lcm(*(c.denominator for c in p.terms.values()))
    return Polynomial(p.table, {m: Fraction(c, scale) for m, c in remainder.items()})


def _shortfall(num: list, target: list, weights: tuple, d: int) -> int:
    """How many leading monomials of weighted degree d leading terms with
    Hilbert numerator ``num`` still miss: their Hilbert function minus the
    ``target``'s, at d."""
    return hilbert.hilbert_function(num, weights, d) - hilbert.hilbert_function(target, weights, d)


def _colon_pairs(mh: int, leads: Iterable, fields: hilbert.Fields) -> tuple:
    """(colon, pairs) for a new leading monomial mh against the active leads
    J, given as (index, monomial) by increasing index, none dividing mh; the
    monomials are packed by ``fields``.

    ``colon`` is the minimal generators of the colon ideal J : mh, which the
    excesses lcm(mh, g) / mh generate, by increasing degree
    (``hilbert.minimal``).  ``pairs`` is (index, lcm) for the new pairs that
    Gebauer-Moeller criterion M keeps: one per minimal excess, with the last
    g that has it, unless that g is coprime to mh (its excess is g itself; no
    other g has that excess, as no lead divides another).  Every other pair
    has an lcm that another pair's lcm divides, or shares its lcm with a
    later or a coprime pair.

    Each excess (g - mh)^+ is one saturating subtraction (``hilbert.Fields``),
    and each lcm is mh plus its excess."""
    guards, top = fields.guards, fields.width - 1
    last = {}  # excess -> (the last index with it, its leading monomial)
    for ig, mg in leads:
        d = (mg | guards) - mh
        ge = d & guards  # the guards of the fields where mg >= mh
        last[d & (ge - (ge >> top))] = ig, mg
    colon = hilbert.minimal(last, fields)
    return colon, [(last[e][0], mh + e) for e in colon if last[e][1] != e]


class LivePairs:
    """The live critical pairs (i, j) of a Buchberger run with the lcm of their
    leading monomials, an exponent int of ``fields`` (``hilbert.Fields``),
    indexed by the lcm's support: ``buckets[v]`` holds the live pairs whose
    lcm contains x_v.  A pair leaves its buckets when it is popped or pruned.

    The support of an exponent int m is the guard bits that ``m + fill``
    sets, one in each field that is not 0, as no field exceeds ``fill``'s;
    read as bytes, the one that holds a field's guard is nonzero exactly
    when the field is, so the buckets of m are those that byte selects."""

    def __init__(self, fields: hilbert.Fields):
        self.fields = fields
        self.lcm: dict = {}  # (i, j) -> lcm of the leading monomials
        self.buckets = [set() for _ in fields.shifts]
        self.fill = fields.guards - fields.lows  # the value bits of every field
        self.step = fields.width // 8            # bytes per field, its guard in the last
        self.nbytes = self.step * len(fields.shifts)

    def __bool__(self) -> bool:
        return bool(self.lcm)

    def _support(self, m: int) -> bytes:
        """One byte per variable, nonzero when the exponent int m has it."""
        step = self.step
        support = (m + self.fill) & self.fields.guards
        return support.to_bytes(self.nbytes, "little")[step - 1::step]

    def add(self, ij: tuple, lcm_ij: int) -> None:
        self.lcm[ij] = lcm_ij
        for pairs in compress(self.buckets, self._support(lcm_ij)):
            pairs.add(ij)

    def pop(self, ij: tuple):
        """The lcm of the live pair ij, which leaves the store; None for a pair
        that is not live."""
        lcm_ij = self.lcm.pop(ij, None)
        if lcm_ij is not None:
            for pairs in compress(self.buckets, self._support(lcm_ij)):
                pairs.remove(ij)
        return lcm_ij

    def candidates(self, mh: int):
        """The live pairs whose lcm mh can divide, and maybe others: the bucket
        of the variable of mh with the fewest live pairs, as such an lcm
        contains every variable of mh; every live pair when mh is 1."""
        return min(compress(self.buckets, self._support(mh)), key=len, default=self.lcm)

    def prune(self, mh: int, exps: Sequence) -> None:
        """Gebauer-Moeller criterion B for a new leading monomial mh: drop the
        live pairs (i, j) whose lcm mh divides without being lcm(lm i, mh) or
        lcm(lm j, mh); ``exps[k]`` is the leading monomial of element k, all
        exponent ints of the store's fields.  mh divides an lcm when their
        difference has no guard bit set, and lcm(g, mh) is mh plus the excess
        (g - mh)^+, one saturating subtraction, as in ``_colon_pairs``.  Which
        pairs go does not depend on the order they are tested in."""
        lcms, guards, top = self.lcm, self.fields.guards, self.fields.width - 1
        if not lcms:
            return
        dropped = []
        for ij in self.candidates(mh):
            lcm_ij = lcms[ij]
            if (lcm_ij - mh) & guards:
                continue
            for mg in (exps[ij[0]], exps[ij[1]]):
                d = (mg | guards) - mh
                ge = d & guards
                if mh + (d & (ge - (ge >> top))) == lcm_ij:  # lcm(g, mh): the pair stays
                    break
            else:
                dropped.append(ij)
        for ij in dropped:
            self.pop(ij)


def _pair_key(lcm_ig: int, mh: int, ph: int, deg: int, packing: Packing,
              fields: hilbert.Fields) -> tuple:
    """(weighted degree, packed order key) of the lcm ``lcm_ig`` of a new
    pair, for the heap: lcm_ig and the new leading monomial mh are exponent
    ints of ``fields``, ph is mh packed by ``packing`` and deg its weighted
    degree.  Both the degree and the packing are linear in the exponents,
    so each is mh's plus that of the excess lcm_ig - mh, summed over the
    excess's support only (about two variables on the presentations), and
    the key equals ``packing.key(packing.pack(lcm))``.  ``_Overflow`` when
    the lcm's total degree reaches ``packing.limit``, as in ``Packing.pack``."""
    if lcm_ig % fields.mod >= packing.limit:  # the total degree, below fields.mod
        raise _Overflow
    excess, width, field = lcm_ig - mh, fields.width, fields.field
    support = ((excess | fields.guards) - fields.lows) & fields.guards
    while support:
        top = support.bit_length() - 1  # the guard bit of the last variable left
        support ^= 1 << top
        v = top // width
        e = (excess >> v * width) & field
        deg += e * fields.weights[v]
        ph += e * packing.weights[v]
    return deg, ph ^ packing.mask


def buchberger(gens: Sequence, order: MonomialOrder = GREVLEX,
               caps: GroebnerCaps = DEFAULT_CAPS, track: bool = False,
               target: tuple | None = None):
    """Groebner basis by Buchberger's algorithm.

    Every admitted element is held once, as its integer row (``int_row``:
    primitive, positive lead L) on packed monomials (``Packing``): the
    inputs are packed once, and the S-pair of rows i and j,
    (L_j/g)*t_i*G_i - (L_i/g)*t_j*G_j with g = gcd(L_i, L_j), is formed by
    adding the packed t_i and t_j to the packed tails and reduced by
    ``reduce_rows``.  Each leading monomial is also kept as its exponents
    packed by ``hilbert.Fields`` at the run's width (``Packing.exponents``),
    the int the whole pair loop reads: ``_colon_pairs``, the colon steps,
    ``LivePairs`` and the pair keys (``_pair_key``); its exponent tuple,
    unpacked once when its element is admitted, serves only its weighted
    degree and the final from-scratch Hilbert check.  The active basis is
    kept as three lists in step, the indices, their rows and their
    exponent ints, which the reductions and the colons read as they are.
    The run returns its final rows, by admission, as it holds them, with
    their packing (None without a nonzero input), and builds no
    ``Polynomial``; ``interreduce`` makes the reduced basis from them.  A
    monomial that does not fit the packing's fields starts the run again at
    twice the width (8 bits per field first); the pairs, their order and
    the rows do not depend on the width.

    Each pair (i, j) is keyed once, when it is created, by (degree of its lcm,
    packed order key of its lcm, (i, j)) and pushed onto a heap; the key
    compares as the order's key does and is read off the lcm's excess over
    the new lead (``_pair_key``), and its lcm, the exponent int that
    ``_colon_pairs`` returns, is stored with it in ``LivePairs``, indexed
    by the lcm's support.  Each new element's update reads its colon ideal
    once (``_colon_pairs``) for the new pairs of criterion M, the pairs the
    quadratic Becker-Weispfenning scan keeps; criterion B then drops live
    pairs, testing only one support bucket of lm(h) (``LivePairs.prune``),
    and a dropped pair's heap entry is skipped when it is popped.  The pair
    processed next is always the live pair with the least key, and
    ``caps.max_pairs`` counts those processed pairs only.

    The main loop goes one degree at a time, weighted by ``target``'s
    weights or else by all ones: each step pops the pairs of the least degree
    d in the queue, those created at d included, as the heap is keyed by
    degree first.

    ``target`` is ``(weights, series)``: positive integer weights for which
    every input is homogeneous, and a function returning the Hilbert series
    numerator of the ideal in that grading (``hilbert.numerator``), called
    once, at the first degree.  The numerator of the active leads is kept
    along, one ``hilbert.colon_step`` per update, on the packed colon of
    ``_colon_pairs``.  At the head of each degree
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

    With ``track=True`` the result is (rows, packing, representations) where
    representations[i] is one term dict per nonzero input, expressing row i
    as a polynomial over them: from s*work = sum(Q_k*G_k) + R,
    rep(R) = s*rep(work) - sum(Q_k*rep(G_k)), with the quotients unpacked
    before ``mul_terms`` meets the representations.  ``Ideal.lift`` reduces
    against those rows, a Groebner basis that need not be the reduced one.
    """
    inputs = [g for g in gens if not g.is_zero()]
    if not inputs:
        return ([], None, []) if track else ([], None)

    n = len(inputs) if track else 0
    nvars = len(inputs[0].table.names)
    weights, series = target or ((1,) * nvars, None)
    target_num = None
    packing = _packing(order, nvars)

    def degree(m) -> int:
        return sum(map(mul, m, weights))

    def reduce(work: dict, rep) -> tuple:
        """The remainder of the packed integer polynomial ``work``
        (consumed) against the active rows and, when tracked, its
        representation, from the unpacked quotients."""
        quots = [{} for _ in active] if track else None
        remainder, s = reduce_rows(work, active_rows, packing, quots)
        if track and remainder:
            rep = [{m: s * c for m, c in x.items()} for x in rep]
            for k, q in zip(active, quots):
                neg = {packing.unpack(m): -c for m, c in q.items()}
                for x, y in zip(rep, reps[k]):
                    mul_terms(neg, y, x)
        return remainder, rep

    def admit(remainder: dict, rep) -> int:
        """Store the nonzero remainder as its integer row, and its leading
        monomial unpacked and as exponents; the remainder is c times the
        row, so the row's representation is rep / c."""
        row, c = _row(remainder, packing.lead(remainder))
        lead = packing.unpack(row[0])
        if sum(lead) >= packing.limit:
            # only a key with no degree field (LEX) lets a product get here;
            # ``hilbert.Fields`` reads total degrees below that limit
            raise _Overflow
        rows.append(row)
        leads.append(lead)
        exps.append(packing.exponents(row[0]))
        reps.append([{m: v / c for m, v in x.items()} for x in rep])
        return len(rows) - 1

    def update(ih: int):
        """Gebauer-Moeller update for the new element ih: the new pairs of
        criterion M (``_colon_pairs``), then criterion B on the live pairs
        that lm(h) can reach (``LivePairs.prune``)."""
        nonlocal num
        mh, ph, deg = exps[ih], rows[ih][0], degree(leads[ih])
        colon, pairs = _colon_pairs(mh, zip(active, active_exps), fields)
        live.prune(mh, exps)
        for ig, lcm_ig in pairs:
            live.add((ig, ih), lcm_ig)
            heapq.heappush(queue, (*_pair_key(lcm_ig, mh, ph, deg, packing, fields), (ig, ih)))
        if series is not None:
            num = hilbert.colon_step(num, colon, fields, deg)
        guards = fields.guards
        for k in reversed([k for k, mg in enumerate(active_exps) if not (mg - mh) & guards]):
            del active[k], active_rows[k], active_exps[k]
        active.append(ih)
        active_rows.append(rows[ih])
        active_exps.append(mh)

    while True:  # one pass per field width, from the first that fits to the end
        rows: list = []    # every element ever admitted, as its packed integer row
        leads: list = []   # their leading monomials, unpacked
        exps: list = []    # and packed by ``fields``
        fields = _fields(tuple(weights), packing.width)
        reps: list = []    # parallel representations: n term dicts, one per input
        # indices forming the current basis, increasing: an update keeps the
        # order of those it keeps and appends the new index, the largest;
        # their rows and exponent ints, kept in step with it
        active: list = []
        active_rows: list = []
        active_exps: list = []
        live = LivePairs(fields)  # the pairs still to process
        queue: list = []   # heap of (degree of lcm, packed key of lcm, (i, j)), one entry per pair
        num = [1]  # Hilbert numerator of the active leads, kept when ``target`` is given
        try:
            for i, g in enumerate(inputs):
                work = integral(g.terms)
                m = next(iter(work))  # work = (work[m] / g[m]) * g
                rep = [{(0,) * len(m): work[m] / g.terms[m]} if k == i else {} for k in range(n)]
                remainder, rep = reduce(packing.pack_terms(work), rep)
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
                        # the leads have the target series: every remaining pair reduces to zero
                        break
                    missing = _shortfall(num, target_num, weights, d)
                while queue and queue[0][0] == d:
                    _, key, ij = heapq.heappop(queue)
                    lcm = live.pop(ij)
                    if lcm is None or missing == 0:
                        continue  # pruned by a later update, or degree d is complete
                    processed += 1
                    if processed > caps.max_pairs:
                        raise NotCompleted(f"pair cap {caps.max_pairs} exceeded")
                    i, j = ij
                    (mi, li, tail_i), (mj, lj, tail_j) = rows[i], rows[j]
                    g = gcd(li, lj)
                    t = key ^ packing.mask  # the packed lcm
                    ti, tj, ci, cj = t - mi, t - mj, lj // g, -(li // g)
                    work = {ti + m: ci * c for m, c in tail_i}
                    for m, c in tail_j:
                        m += tj
                        c = work.get(m, 0) + cj * c
                        if c:
                            work[m] = c
                        else:
                            del work[m]
                    rep = []
                    if track:
                        a, b = {packing.unpack(ti): ci}, {packing.unpack(tj): cj}
                        rep = [mul_terms(b, y, mul_terms(a, x)) for x, y in zip(reps[i], reps[j])]
                    remainder, rep = reduce(work, rep)
                    if not remainder:
                        continue
                    if max(sum(packing.unpack(m)) for m in remainder) > caps.max_degree:
                        raise NotCompleted(
                            f"degree cap {caps.max_degree} exceeded during completion")
                    if len(rows) >= caps.max_basis:
                        raise NotCompleted(
                            f"basis cap {caps.max_basis} exceeded during completion")
                    update(admit(remainder, rep))
                    if missing is not None:
                        missing -= 1
            break
        except _Overflow:
            packing = packing.wider()

    # the independent check of the incremental count: one from-scratch series
    if (target_num is not None
            and hilbert.numerator([leads[i] for i in active], weights) != target_num):
        raise AssertionError("leading terms miss the target Hilbert series")
    return (active_rows, packing, [reps[i] for i in active]) if track else (active_rows, packing)


def interreduce(rows: Sequence, packing: Packing, table: VariableTable) -> tuple:
    """(basis, rows, packing): the reduced Groebner basis, monic and sorted by
    leading monomial, from the integer rows of a minimal one, packed by
    ``packing``, as ``buchberger`` returns them, and the basis's own integer
    rows (``int_row``), in its order, packed by that packing or, when a tail
    reduction does not fit it, a wider one (``_repacked``).  A tail term
    below lm(g) can only be divisible by a smaller lead, so the rows are
    taken by increasing lead and each tail is reduced (``reduce_rows``)
    against the rows already reduced; each row and each ``Polynomial`` is
    made once, and each monomial unpacked once."""
    def run(wide):
        done: list = []  # the reduced rows so far, by increasing lead
        basis = []
        for lm, lead, tail in sorted(_repacked(rows, packing, wide), key=lambda r: wide.key(r[0])):
            remainder, s = reduce_rows(dict(tail), done, wide)
            row, _ = _row({lm: s * lead, **remainder}, lm)
            done.append(row)
            unpack = wide.unpack
            basis.append(Polynomial(table, {unpack(lm): 1, **{unpack(m): Fraction(c, row[1])
                                                               for m, c in row[2]}}))
        return basis, done, wide

    return _fitted(run, packing)


class Ideal:
    """Ideal of a polynomial ring with memoized reduced Groebner bases, each
    kept with its leading monomials and the packed integer rows
    ``interreduce`` built for it, with their ``Packing``, which every
    reduction against it reads, and a memoized cofactor-tracked basis for
    lifting: the rows ``buchberger`` returns, packed, with its
    representations in integers.  A query packs its caller's terms, reduces
    them and unpacks only the remainder and the quotients
    (``_reduce_packed``); a caller that keeps its terms packed runs on the
    stored rows and their packing (``packed``) and reduces them with
    ``reduce_rows`` itself.  An elimination (``eliminate``) stores no
    basis.  The lift is the one division, in integers (``lift_row``) with a
    rational wrapper (``lift``): over (g) alone it is exact division by g, as
    that quotient is unique.  The queries read the one reduced GREVLEX basis,
    as membership and the existence of a lift do not depend on the monomial
    order; a normal form in another order is
    ``reduce_full(f, groebner(order), order)``."""

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
        run) and kept on this object with its leading monomials and the
        packed integer rows ``interreduce`` built for it."""
        cache_id = (order.descriptor(), caps)
        hit = self._gb.get(cache_id)
        if hit is None:
            basis, rows, packing = interreduce(*buchberger(self.gens, order, caps), self.table)
            leads = tuple(packing.unpack(row[0]) for row in rows)
            hit = self._gb[cache_id] = (tuple(basis), leads, tuple(rows), packing)
        return hit[0]

    def _stored(self, caps: GroebnerCaps) -> tuple:
        """The memo entry of the reduced GREVLEX basis, (basis, leading
        monomials, packed rows, packing), read once per reduction; a miss
        computes it through ``groebner``."""
        hit = self._gb.get((GREVLEX.descriptor(), caps))
        if hit is None:
            self.groebner(GREVLEX, caps)
            hit = self._gb[GREVLEX.descriptor(), caps]
        return hit

    def leading_terms(self, *, caps: GroebnerCaps = DEFAULT_CAPS) -> tuple:
        """Leading monomials of the reduced GREVLEX basis, in its order;
        unpacked once from its stored rows, so never re-derived."""
        return self._stored(caps)[1]

    def packed(self, run, *, caps: GroebnerCaps = DEFAULT_CAPS):
        """run(rows, packing) on the packed integer rows stored with the
        reduced GREVLEX basis and their ``Packing``, for a caller that keeps
        its terms packed and reduces them with ``reduce_rows`` itself.  When
        run overflows, it runs again at twice the width, on the rows packed
        again (``_fitted``, ``_repacked``).  An ideal with no rows (the zero
        ideal) starts at its table's 8-bit GREVLEX packing."""
        _, _, rows, packing = self._stored(caps)
        packing = packing or _packing(GREVLEX, len(self.table.names))
        return _fitted(lambda wide: run(_repacked(rows, packing, wide), wide), packing)

    # -- queries -------------------------------------------------------------

    def normal_form(self, f: Polynomial, *, caps: GroebnerCaps = DEFAULT_CAPS) -> Polynomial:
        """``reduce_full`` against the stored rows; an f with no term divisible
        by a leading monomial comes back as it is, as in ``reduce_row``."""
        _, leads, rows, packing = self._stored(caps)
        if any(all(map(le, lm, m)) for m in f.terms for lm in leads):
            return reduce_full(f, (), GREVLEX, (rows, packing))
        return f

    def reduce_row(self, work: dict, *, caps: GroebnerCaps = DEFAULT_CAPS) -> tuple:
        """``reduce_rows``' pair (R, s) for the integer polynomial ``work``
        (monomial -> int) against the rows stored with the reduced basis: R
        is s times the normal form of ``work``, s a positive integer.  A
        ``work`` with no term divisible by a leading monomial is already
        reduced and comes back as (work, 1), neither packed nor reduced
        (``_reduce_packed``); the test stays out of that core, whose
        Buchberger callers would pay for it on every S-pair."""
        _, leads, rows, packing = self._stored(caps)
        if any(all(map(le, lm, m)) for m in work for lm in leads):
            return _reduce_packed(work, rows, packing)[:2]
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
        integer polynomial ``work`` (monomial -> int); None when work is not
        a member.

        The cofactor-tracked GREVLEX Buchberger run is made once per caps and
        kept with the reduced bases, its rows packed and its representations
        as integer term dicts over one common denominator D.  ``work`` is
        reduced against those rows (``_reduce_packed``:
        s0 * work = sum(Q_k * G_k)), and the unpacked quotients meet the
        representations D * G_k = sum(R_ki * gens_i) in term dicts
        (``mul_terms``), so C_i = sum(Q_k * R_ki) and s = s0 * D."""
        cache_id = ("tracked", caps)
        if cache_id not in self._gb:
            rows, packing, reps = buchberger(self.gens, GREVLEX, caps, track=True)
            den = lcm(*(c.denominator for rep in reps for x in rep for c in x.values()))
            reps = [[{m: int(c * den) for m, c in x.items()} for x in rep] for rep in reps]
            self._gb[cache_id] = (rows, packing, reps, den)
        rows, packing, reps, den = self._gb[cache_id]
        if not rows:  # the zero ideal: only zero is a member
            return None if work else ([], 1)
        remainder, s, quots = _reduce_packed(work, rows, packing, track=True)
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
        this object.  A row's leading monomial is free of them when the first
        field of its packed key, their degree, is 0.

        When I is homogeneous for a grading with weight 1 on every eliminated
        variable (``_grading``), the Buchberger run is Hilbert driven: its
        target is the series of I read from the cheap basis that eliminates
        the kept variables instead.  Every monomial order gives a homogeneous
        ideal the same Hilbert function (Macaulay), so that target is exact;
        for a graph ideal I + (Y_i - g_i) that basis is the tags plus a basis
        of I.  Its leading monomials go to the series as exponent ints
        (``Packing.exponents``)."""
        keep = tuple(keep)
        keep_pos = {self.table.index(n) for n in keep}
        dominant = tuple(i for i in range(len(self.table.names)) if i not in keep_pos)
        sub = self.table.subtable(keep)
        if not dominant:
            return Ideal(sub, [self.table.project(g, sub) for g in self.gens])
        order = BlockElim(dominant)
        weights = self._grading(dominant)
        if weights is None:
            rows, packing = buchberger(self.gens, order, caps)
        else:
            def series():
                rows, packing = buchberger(self.gens, BlockElim(tuple(keep_pos)), caps)
                return hilbert.packed_numerator([packing.exponents(row[0]) for row in rows],
                                                _fields(weights, packing.width))

            rows, packing = buchberger(self.gens, order, caps, target=(weights, series))
        # the first field of a BlockElim key, the top one, is the dominant degree
        kept = [row for row in rows if not row[0] >> (8 * packing.nbytes - packing.width)]
        basis = interreduce(kept, packing, self.table)[0]
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
