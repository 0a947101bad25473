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
``groebner._colon_pairs`` both read it.

Numerators are coefficient lists, constant term first, with no trailing zeros.
"""

from __future__ import annotations

from itertools import compress, count
from operator import le, mul


def numerator(leads, weights) -> list:
    """N(t) with HS(k[x]/M) = N(t) / prod(1 - t^w_i), where M is spanned by the
    monomials ``leads`` (exponent tuples as long as ``weights``); [] for the
    unit ideal.  The standard grading is all ones.

    Bigatti's pivot recursion (JPAA 119, 1997): with x_v the variable that
    occurs in the most generators of two or more variables,
    N(M) = N(M + (x_v)) + t^w_v * N(M : x_v).  A pure power x_i^e in a
    variable that no such generator has splits off as the factor
    1 - t^(e * w_i), so an ideal of pure powers is the base case,
    N = prod(1 - t^(w . m))."""
    return _trim(_numerator(minimal({tuple(m) for m in leads}), tuple(weights)))


def colon_step(num: list, colon: list, weights, shift: int) -> list:
    """N(M + (m)) from N(M) and the minimal generators ``colon`` of M : m,
    where ``shift`` is the weighted degree of m: Bigatti's colon recursion
    HS(k[x]/(M + m)) = HS(k[x]/M) - t^shift * HS(k[x]/(M : m)) on numerators.
    A Groebner basis that gains the leading monomial m updates its numerator
    this way, without a run over all of its leading monomials."""
    return _trim(_add_shifted(num, _numerator(colon, tuple(weights)), shift, -1))


def minimal(gens) -> list:
    """The minimal generators of the monomial ideal spanned by ``gens``
    (exponent tuples, repeats allowed): the monomials no other one divides,
    by increasing degree and otherwise in the input order.  A linear
    generator x_v is kept as v alone: it divides exactly the monomials that
    have x_v, so only the others are scanned."""
    out, other = [], []  # the minimal generators, and those of degree > 1
    linear = set()  # the variables x_v that are generators
    for m in sorted(gens, key=sum):
        if linear and not linear.isdisjoint(compress(count(), m)):
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


def _numerator(gens: list, weights: tuple) -> list:
    if any(not any(m) for m in gens):
        return []
    mixed = [m for m in gens if sum(map(bool, m)) > 1]
    counts = [sum(c) for c in zip(*[map(bool, m) for m in mixed])] or [0] * len(weights)
    # a pure power in a variable that no mixed generator has is a factor 1 - t^deg
    out, rest = [1], []
    for m in gens:
        if any(map(mul, m, counts)):
            rest.append(m)
        else:
            out = _add_shifted(out, out, sum(map(mul, m, weights)), -1)
    if not rest:
        return out
    v = counts.index(max(counts))
    # no generator without x_v divides x_v or is divided by it: still minimal
    plus = [m for m in rest if not m[v]] + [tuple(int(i == v) for i in range(len(weights)))]
    colon = minimal({m[:v] + (max(m[v] - 1, 0),) + m[v + 1:] for m in rest})
    return _product(out, _add_shifted(_numerator(plus, weights), _numerator(colon, weights),
                                      weights[v], 1))


def _product(a: list, b: list) -> list:
    """Coefficients of a * b."""
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


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
