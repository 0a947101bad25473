"""Hilbert series of monomial ideals and the two questions they decide.

For a monomial ideal M of k[x_1, ..., x_n] in the standard grading,
HS(k[x]/M) = N(t) / (1 - t)^n with N an integer polynomial.  A Groebner
basis's leading monomials span such an M with the Hilbert function of the
ideal itself (Macaulay), so N answers questions about the ideal:

* a form f of degree d is a non-zerodivisor modulo a homogeneous I exactly
  when HS(k[x]/(I + f)) = (1 - t^d) * HS(k[x]/I);
* the Krull dimension is the pole order of the series at t = 1.

Numerators are coefficient lists, constant term first, with no trailing zeros.
"""

from __future__ import annotations


def numerator(leads, n: int) -> list:
    """N(t) with HS(k[x]/M) = N(t) / (1 - t)^n, where M is spanned by the
    monomials ``leads`` (exponent tuples of length n); [] for the unit ideal.

    Bigatti's pivot recursion (JPAA 119, 1997): with x_v the variable that
    occurs in the most generators of two or more variables,
    N(M) = N(M + (x_v)) + t * N(M : x_v); an ideal of pure powers is the base
    case, N = prod(1 - t^e)."""
    return _trim(_numerator(_minimal({tuple(m) for m in leads}), n))


def _minimal(gens) -> list:
    """The minimal generators: the monomials no other one divides."""
    gens = sorted(gens, key=sum)
    out = []
    for m in gens:
        if not any(all(a <= b for a, b in zip(g, m)) for g in out):
            out.append(m)
    return out


def _numerator(gens: list, n: int) -> list:
    if any(sum(m) == 0 for m in gens):
        return []
    mixed = [m for m in gens if sum(1 for e in m if e) > 1]
    if not mixed:
        out = [1]
        for m in gens:
            out = _add_shifted(out, out, sum(m), -1)
        return out
    v = max(range(n), key=lambda i: sum(1 for m in mixed if m[i]))
    pivot = tuple(int(i == v) for i in range(n))
    plus = _minimal([m for m in gens if not m[v]] + [pivot])
    colon = _minimal({m[:v] + (max(m[v] - 1, 0),) + m[v + 1:] for m in gens})
    return _add_shifted(_numerator(plus, n), _numerator(colon, n), 1, 1)


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


def is_nonzerodivisor(leads_i, leads_i_plus_f, n: int, deg_f: int) -> bool:
    """Whether a form f of degree ``deg_f`` is a non-zerodivisor modulo a
    homogeneous ideal I, given the leading monomials of Groebner bases of I
    and of I + (f) under one degree-compatible order."""
    base = numerator(leads_i, n)
    return numerator(leads_i_plus_f, n) == _trim(_add_shifted(base, base, deg_f, -1))


def dimension(leads, n: int) -> int:
    """n minus the multiplicity of t = 1 as a root of the numerator, that is,
    the Krull dimension of k[x]/M; -1 for the unit ideal."""
    p = numerator(leads, n)
    if not p:
        return -1
    mult = 0
    while sum(p) == 0:
        # p = (1 - t) * q with q_k = p_0 + ... + p_k
        p = [sum(p[:k + 1]) for k in range(len(p) - 1)]
        mult += 1
    return n - mult
