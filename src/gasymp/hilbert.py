"""Hilbert series of monomial ideals and the questions they decide.

For a monomial ideal M of k[x_1, ..., x_n] graded by positive integer weights
w, HS(k[x]/M) = N(t) / prod(1 - t^w_i) with N an integer polynomial.  A
Groebner basis's leading monomials span such an M with the Hilbert function
of the ideal itself when the ideal is homogeneous for w (Macaulay), so N
answers questions about the ideal:

* a form f of degree d is a non-zerodivisor modulo a homogeneous I exactly
  when HS(k[x]/(I + f)) = (1 - t^d) * HS(k[x]/I);
* the Krull dimension is the pole order of the standard series at t = 1;
* a Groebner basis of a homogeneous ideal with a known series is complete in
  degree d once its leading monomials leave the known number of standard
  monomials there (``hilbert_function``), which ``groebner.buchberger``
  reads as its stop rule, once per weighted degree; it keeps its leading
  terms' numerator along, one colon ideal per new leading monomial
  (``colon_step``).

``minimal`` is the one minimal-generator routine: Bigatti's recursion and
``groebner._colon_pairs`` both read it.  Both run on monomials packed as one
int each (``Fields``); ``numerator``, ``is_nonzerodivisor`` and ``dimension``
take exponent tuples and pack them once.

Numerators are coefficient lists, constant term first, with no trailing zeros.
"""

from __future__ import annotations

from operator import add


class Fields:
    """The monomials of ``len(weights)`` variables, graded by ``weights``, as
    single ints: the exponent of x_v in the field of ``width`` bits that
    starts at bit v * width, under a guard bit on top of the field, 0 in every
    packed monomial.  Every packed monomial must have total degree below
    2**(width - 1) (``fitting`` picks such a width).  Then, for packed a, b:

    - a divides b iff ``(b - a) & guards`` is 0: a field with a smaller
      exponent in b borrows and sets a guard bit;
    - the support of a, one guard bit per variable of a, is
      ``((a | guards) - lows) & guards``, where ``lows`` is the lowest bit of
      every field; a is mixed iff its support has two or more bits;
    - the excess (a - b)^+, max(a_v - b_v, 0) in every field, is one
      saturating subtraction: with d = (a | guards) - b and ge = d & guards,
      it is ``d & (ge - (ge >> (width - 1)))``;
    - the total degree of a is ``a % mod`` with mod = 2**width - 1;
    - a : x_v is a minus x_v's unit when a has x_v.

    ``groebner.Packing`` keeps the exponents of its orders in this layout,
    in its low fields."""

    __slots__ = ("weights", "width", "shifts", "lows", "guards", "field", "mod")

    def __init__(self, weights, width: int):
        self.weights, self.width = tuple(weights), width
        # the field of x_v starts at bit shifts[v]
        self.shifts = tuple(range(0, len(self.weights) * width, width))
        self.lows = sum(1 << s for s in self.shifts)
        self.guards = self.lows << (width - 1)
        self.field = (1 << (width - 1)) - 1  # the value bits of one field
        self.mod = (1 << width) - 1

    @classmethod
    def fitting(cls, weights, monomials) -> "Fields":
        """The fields of the least width from 8 bits that fits every exponent
        tuple in ``monomials``."""
        top, width = max(map(sum, monomials), default=0), 8
        while top >> (width - 1):
            width *= 2
        return cls(weights, width)

    def pack(self, m) -> int:
        """The exponent tuple m as one int."""
        return sum(e << s for e, s in zip(m, self.shifts))

    def unpack(self, p: int) -> tuple:
        """The exponent tuple of the packed monomial p."""
        if self.width == 8:
            return tuple(p.to_bytes(len(self.shifts), "little"))
        field = self.field
        return tuple([(p >> s) & field for s in self.shifts])


def numerator(leads, weights) -> list:
    """N(t) with HS(k[x]/M) = N(t) / prod(1 - t^w_i), where M is spanned by the
    monomials ``leads`` (exponent tuples as long as ``weights``); [] for the
    unit ideal.  The standard grading is all ones.  The tuples are packed
    once, at the least width that fits them (``packed_numerator``)."""
    leads = list(leads)
    fields = Fields.fitting(weights, leads)
    return packed_numerator([fields.pack(m) for m in leads], fields)


def packed_numerator(gens, fields: Fields) -> list:
    """``numerator`` of the monomials ``gens``, packed by ``fields``.

    Bigatti's pivot recursion (JPAA 119, 1997): with x_v the variable that
    occurs in the most generators of two or more variables,
    N(M) = N(M + (x_v)) + t^w_v * N(M : x_v).  A pure power x_i^e in a
    variable that no such generator has splits off as the factor
    1 - t^(e * w_i), so an ideal of pure powers is the base case,
    N = prod(1 - t^(w . m))."""
    return _series(minimal(gens, fields), fields)


def colon_step(num: list, colon: list, fields: Fields, shift: int) -> list:
    """N(M + (m)) from N(M) and the minimal generators ``colon`` of M : m,
    packed by ``fields``, where ``shift`` is the weighted degree of m:
    Bigatti's colon recursion HS(k[x]/(M + m)) = HS(k[x]/M) -
    t^shift * HS(k[x]/(M : m)) on numerators.  A Groebner basis that gains
    the leading monomial m updates its numerator this way, without a run
    over all of its leading monomials."""
    return _trim(_add_shifted(num, _series(colon, fields), shift, -1))


def minimal(gens, fields: Fields) -> list:
    """The minimal generators of the monomial ideal spanned by ``gens``
    (monomials packed by ``fields``, repeats allowed): the monomials no
    other one divides, by increasing degree and otherwise in the input
    order.  A linear generator x_v divides exactly the monomials that have
    x_v, so its field joins one mask and only the others are scanned."""
    guards, lows, field = fields.guards, fields.lows, fields.field
    out, other = [], []  # the minimal generators, and those of degree > 1
    linear = 0  # the value bits of the fields of the variables x_v that are generators
    for m in sorted(gens, key=fields.mod.__rmod__):
        if m & linear:
            continue
        for g in other:
            if not (m - g) & guards:
                break
        else:
            out.append(m)
            if m & lows and not m & (m - 1):  # x_v: one bit, at the bottom of its field
                linear |= m * field
            else:
                other.append(m)
    return out


def _series(gens: list, fields: Fields) -> list:
    """The numerator of the minimal generators ``gens``.  The recursion
    (``_numerator``) works on its value at t = 2**bits, each coefficient in
    ``bits`` bits, a whole number of bytes: the Taylor resolution writes N(t)
    as a signed sum of one power of t per subset of the generators, so no
    coefficient reaches 2**len(gens), and 2**(bits - 1) more than each is
    one positive digit.  Those digits are read from the bytes at once."""
    size = (len(gens) + 9) // 8  # bytes per coefficient, so bits >= len(gens) + 2
    bits, half = 8 * size, 1 << (8 * size - 1)
    x = _numerator(gens, fields, bits)
    count = abs(x).bit_length() // bits + 1  # at least the number of coefficients
    raw = (x + int.from_bytes(half.to_bytes(size, "little") * count, "little")).to_bytes(
        size * count, "little")
    return _trim([int.from_bytes(raw[i:i + size], "little") - half
                  for i in range(0, size * count, size)])


def _numerator(gens: list, fields: Fields, bits: int) -> int:
    """N(2**bits) for the minimal generators ``gens``."""
    if 0 in gens:
        return 0
    guards, width, shifts, weights = fields.guards, fields.width, fields.shifts, fields.weights
    supports = [((m | guards) - fields.lows) & guards for m in gens]
    mixed = [s for s in supports if s & (s - 1)]
    union = 0  # the variables of the mixed generators
    for s in mixed:
        union |= s
    # a pure power in a variable that no mixed generator has is a factor 1 - t^deg
    out, rest = 1, []
    for m, s in zip(gens, supports):
        if s & union:
            rest.append(m)
        else:
            v = s.bit_length() // width - 1
            out -= out << (m >> shifts[v]) * weights[v] * bits
    if not rest:
        return out
    v = _pivot(mixed, fields)
    unit, field = 1 << shifts[v], fields.field << shifts[v]
    # no generator without x_v divides x_v or is divided by it: still minimal
    plus = [m for m in rest if not m & field] + [unit]
    colon = minimal({m - unit if m & field else m for m in rest}, fields)
    return out * (_numerator(plus, fields, bits)
                  + (_numerator(colon, fields, bits) << weights[v] * bits))


def _pivot(mixed: list, fields: Fields) -> int:
    """The variable in the most of the supports ``mixed``, the first on ties.
    Each support, shifted down to the lowest bits of its fields, adds one to
    the count of every variable it has; summing fewer than 2**(width - 1) of
    them at a time, no count reaches a guard bit."""
    field, top = fields.field, fields.width - 1
    counts = fields.unpack(sum(mixed[:field]) >> top)
    for k in range(field, len(mixed), field):
        counts = tuple(map(add, counts, fields.unpack(sum(mixed[k:k + field]) >> top)))
    return counts.index(max(counts))


def _add_shifted(a: list, b: list, shift: int, sign: int) -> list:
    """Coefficients of a + sign * t^shift * b."""
    out = a + [0] * max(0, len(b) + shift - len(a))
    for i, c in enumerate(b):
        out[i + shift] += sign * c
    return out


def _trim(p: list) -> list:
    while p and not p[-1]:
        p = p[:-1]
    return p


def hilbert_function(num: list, weights, d: int) -> int:
    """The coefficient of t^d in N(t) / prod(1 - t^w_i): the number of
    standard monomials of weighted degree d when ``num`` is a numerator of
    ``numerator`` under the same weights."""
    counts = [1] + [0] * d  # monomials of k[x] per weighted degree
    for w in weights:
        for k in range(w, d + 1):
            counts[k] += counts[k - w]
    return sum(c * counts[d - i] for i, c in enumerate(num[:d + 1]))


def is_nonzerodivisor(leads_i, leads_i_plus_f, n: int, deg_f: int) -> bool:
    """Whether a form f of degree ``deg_f`` is a non-zerodivisor modulo a
    homogeneous ideal I, given the leading monomials of Groebner bases of I
    and of I + (f) under one degree-compatible order."""
    ones = (1,) * n
    base = numerator(leads_i, ones)
    return numerator(leads_i_plus_f, ones) == _trim(_add_shifted(base, base, deg_f, -1))


def dimension(leads, n: int) -> int:
    """n minus the multiplicity of t = 1 as a root of the standard numerator,
    that is, the Krull dimension of k[x]/M; -1 for the unit ideal."""
    p = numerator(leads, (1,) * n)
    if not p:
        return -1
    mult = 0
    while sum(p) == 0:
        # p = (1 - t) * q with q_k = p_0 + ... + p_k
        p = [sum(p[:k + 1]) for k in range(len(p) - 1)]
        mult += 1
    return n - mult
