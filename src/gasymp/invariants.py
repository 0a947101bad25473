"""Invariant rings of additive actions on coordinate rings and their quotients.

Two independent routes to the invariants are implemented and played against
each other:

* ``graded_kernel`` computes the invariants of one total degree by exact
  linear algebra on normal forms (valid whenever the defining ideal is
  homogeneous, which holds for every zero level here);
* ``essen_derksen`` runs the local-slice algorithm on graded data:
  invariants of the localization via the exponential (Dixmier) substitution
  with cleared denominators, then intersection with the coordinate ring by
  iterated divide-by-slice-image steps, certified through Groebner
  subalgebra membership.  Ungraded data need a section s with D(s) = 1,
  along which the same exponential map gives the invariants directly.

Finite generation is undecidable in general, so reports carry an honest
termination status plus the degree up to which completeness was certified.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import cache as cache_mod
from .groebner import (DEFAULT_CAPS, BlockElim, GroebnerCaps, Ideal,
                       NotCompleted, exact_divide)
from .linalg import SparseEchelon, solve, sparse_nullspace
from .moments import Verdict, ga_moment
from .poly import (Derivation, GREVLEX, Polynomial, VariableTable,
                   format_poly, poly_key)
from .reps import GaRep, ga_derivation


class QuotientRing:
    """Ambient polynomial ring modulo a derivation-stable ideal."""

    __slots__ = ("table", "ideal", "derivation", "caps")

    def __init__(self, table: VariableTable, ideal: Ideal, derivation: Derivation,
                 caps: GroebnerCaps = DEFAULT_CAPS, check: bool = True):
        if ideal.table != table or derivation.table != table:
            raise ValueError("quotient data over mismatched tables")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "derivation", derivation)
        object.__setattr__(self, "caps", caps)
        if check:
            for g in ideal.gens:
                if not ideal.member(derivation(g), caps=caps):
                    raise ValueError(
                        f"derivation does not preserve the ideal: D({format_poly(g)}) escapes")

    def __setattr__(self, name, value):
        raise AttributeError("QuotientRing is immutable")

    @staticmethod
    def ambient_tv(rep: GaRep, caps: GroebnerCaps = DEFAULT_CAPS) -> "QuotientRing":
        table = rep.table_tv()
        return QuotientRing(table, Ideal(table, []), ga_derivation(rep, table), caps)

    @staticmethod
    def level_set(rep: GaRep, level, caps: GroebnerCaps = DEFAULT_CAPS) -> "QuotientRing":
        table = rep.table_tv()
        mu = ga_moment(rep)
        return QuotientRing(table, Ideal(table, [mu - table.scalar(level)]),
                            ga_derivation(rep, table), caps)

    def nf(self, f: Polynomial) -> Polynomial:
        return self.ideal.normal_form(f, caps=self.caps)

    def is_invariant(self, f: Polynomial) -> bool:
        return self.ideal.member(self.derivation(f), caps=self.caps)

    def homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.ideal.gens)

    def derivation_preserves_degree(self) -> bool:
        return all(img.is_homogeneous() and img.degree() == 1
                   for img in self.derivation.images.values())

    def nilpotency_order(self, bound: int | None = None) -> int:
        """Least k with D^k(v) in the ideal for every variable."""
        if bound is None:
            bound = 2 * len(self.table.names) + 2
        worst = 1
        for name in self.table.names:
            p = self.nf(self.table.var(name))
            k = 0
            while not p.is_zero():
                p = self.nf(self.derivation(p))
                k += 1
                if k > bound:
                    raise NotCompleted(f"derivation not locally nilpotent within bound {bound}")
            worst = max(worst, k if k else 1)
        return worst


@dataclass(frozen=True)
class InvariantReport:
    generators: tuple
    certified_degree: int
    termination: str  # "Terminated" | "CapReached"
    notes: tuple = ()


# ---------------------------------------------------------------------------
# graded kernels


def _degree_monomials(table: VariableTable, degree: int) -> list:
    n = len(table.names)
    out = []

    def rec(prefix, remaining, pos):
        if pos == n - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, pos + 1)

    if n == 0:
        return [()] if degree == 0 else []
    rec([], degree, 0)
    return out


def _quotient_basis(q: QuotientRing, degree: int) -> list:
    """Monomials of the given total degree outside the leading-term ideal."""
    leads = [m for m, _ in q.ideal.leading_terms(caps=q.caps)]
    out = []
    for m in _degree_monomials(q.table, degree):
        if not any(all(l <= e for l, e in zip(lm, m)) for lm in leads):
            out.append(m)
    return out


def _ring_payload(q: QuotientRing, derivations: tuple) -> dict:
    """Cache-key content of a quotient ring with its derivations."""
    encode = cache_mod.encode_poly
    return {
        "table": [list(q.table.names), list(q.table.blocks)],
        "ideal": [encode(g) for g in sorted(q.ideal.gens, key=poly_key)],
        "derivations": [[[i, encode(p)] for i, p in sorted(d.images.items())]
                        for d in derivations],
    }


def _kernel_cached(q: QuotientRing, derivations: tuple, degree: int) -> list:
    disk = cache_mod.get_active_cache()
    key = None
    if disk is not None:
        key = cache_mod.content_key(dict(_ring_payload(q, derivations),
                                         kind="graded-kernel", degree=degree))
        stored = disk.get(key)
        if stored is not None:
            return [cache_mod.decode_poly(q.table, entry) for entry in stored]
    result = _kernel_compute(q, derivations, degree)
    if disk is not None and key is not None:
        disk.put(key, [cache_mod.encode_poly(p) for p in result])
    return result


def _kernel_compute(q: QuotientRing, derivations: tuple, degree: int) -> list:
    mons = _quotient_basis(q, degree)
    equations = []
    # rows are indexed by (derivation, image monomial); build sparse columns
    for d in derivations:
        rows: dict = {}
        for col, m in enumerate(mons):
            image = q.nf(d(Polynomial(q.table, {m: Fraction(1)})))
            for mm, c in image.terms.items():
                rows.setdefault(mm, {})[col] = c
        equations.extend(rows.values())
    kernel = sparse_nullspace(equations, len(mons))
    out = []
    for vec in kernel:
        terms = {mons[i]: c for i, c in vec.items()}
        p = Polynomial(q.table, terms)
        lead = p.leading(GREVLEX)[1]
        out.append(p * (Fraction(1) / lead))
    out.sort(key=poly_key)
    return out


def graded_kernel(q: QuotientRing, degree: int,
                  derivations: Sequence | None = None) -> list:
    """Basis of the invariants of one total degree in the quotient ring.

    Requires a homogeneous defining ideal and degree-preserving derivations
    so that the graded piece is well defined.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if not q.homogeneous():
        raise ValueError("graded kernel needs a homogeneous defining ideal")
    ders = tuple(derivations) if derivations is not None else (q.derivation,)
    for d in ders:
        if not all(img.is_homogeneous() and img.degree() == 1 for img in d.images.values()):
            raise ValueError("graded kernel needs degree-preserving derivations")
    if degree == 0:
        return [q.table.one()]
    return _kernel_cached(q, ders, degree)


# ---------------------------------------------------------------------------
# subalgebra spans by degree (linear-algebra certification)


class DegreeSpan:
    """Span of normal forms of generator products, grown one generator at a time.

    The ideal and the generators must be homogeneous, so a product of total
    degree d has a homogeneous normal form of degree d.  ``rows_by_degree[d]``
    holds a basis of the degree-d piece of the span, kept in one fully reduced
    echelon per degree, so membership of a degree-d element is decided exactly
    inside that piece and does not depend on the order of enumeration.
    """

    def __init__(self, q: QuotientRing, gens: Sequence, max_degree: int):
        if not q.homogeneous():
            raise ValueError("a degree span needs a homogeneous defining ideal")
        self.q = q
        self.max_degree = max_degree
        self._gens = []
        self.rows_by_degree = defaultdict(list)
        self._echelons = defaultdict(SparseEchelon)
        self._insert(0, q.table.one())
        for g in gens:
            self.add(g)

    def _insert(self, degree: int, product: Polynomial) -> None:
        nf = self.q.nf(product)
        if not nf.is_zero() and self._echelons[degree].insert(dict(nf.terms)):
            self.rows_by_degree[degree].append(nf)

    def add(self, g: Polynomial) -> None:
        """Adjoin one generator: V(d) += nf(g * V(d - deg g)) for d upwards,
        so the lower pieces already hold the products that involve g."""
        g = self.q.nf(g)
        if g.is_zero() or g.is_constant():
            return
        if not g.is_homogeneous():
            raise ValueError("a degree span needs homogeneous generators")
        self._gens.append(g)
        step = g.degree()
        for degree in range(step, self.max_degree + 1):
            for row in self.rows_by_degree[degree - step]:
                self._insert(degree, row * g)

    def _extend(self, bound: int) -> None:
        for degree in range(self.max_degree + 1, bound + 1):
            for g in self._gens:
                for row in self.rows_by_degree[degree - g.degree()]:
                    self._insert(degree, row * g)
        self.max_degree = max(self.max_degree, bound)

    def contains(self, p: Polynomial) -> bool:
        """Subalgebra membership; raises the degree bound as far as p needs."""
        nf = self.q.nf(p)
        if nf.is_zero():
            return True
        if not nf.is_homogeneous():
            return False
        d = nf.degree()
        self._extend(d)
        return self._echelons[d].contains(dict(nf.terms))


def _single_variable(p: Polynomial) -> int | None:
    """Position of v when p is a nonzero scalar multiple of a variable."""
    if len(p.terms) != 1:
        return None
    (mono, _), = p.terms.items()
    support = [i for i, e in enumerate(mono) if e]
    if len(support) == 1 and mono[support[0]] == 1:
        return support[0]
    return None


def _peel_candidates(q: QuotientRing, span: DegreeSpan, div: Polynomial) -> list:
    """Degreewise peeling: a reduced echelon of each graded span piece with
    the div-free monomials leading exposes exactly span n div*B as the rows
    pivoted in the divisible block; dividing them by the divisor yields new
    invariants without any Groebner computation."""
    pos = _single_variable(div)
    if pos is None:
        return []
    found = []
    for d in range(2, span.max_degree + 1):
        rows = span.rows_by_degree[d]
        if not rows:
            continue
        ech = SparseEchelon()
        for p in rows:
            keyed = {(0 if m[pos] == 0 else 1, m): c for m, c in p.terms.items()}
            ech.insert(keyed)
        for pivot, row in ech.rows.items():
            if pivot[0] == 0:
                continue  # pivot in the divisor-free block
            terms = {}
            for (_, m), c in row.items():
                mm = list(m)
                if mm[pos] < 1:
                    raise AssertionError("divisible block row with a free monomial")
                mm[pos] -= 1
                terms[tuple(mm)] = c
            found.append(Polynomial(q.table, terms))
    return found


def verify_generators(q: QuotientRing, gens: Sequence, degree_bound: int,
                      derivations: Sequence | None = None) -> tuple:
    """Check a proposed generating set: every generator must be killed by the
    derivation(s) modulo the ideal, and through the degree bound every graded
    invariant must lie in the subalgebra the generators span.

    Returns (verdict, certified_degree); a non-invariant generator fails
    immediately and is named in the verdict.
    """
    ders = tuple(derivations) if derivations is not None else (q.derivation,)
    for g in gens:
        for d in ders:
            if not q.ideal.member(d(g), caps=q.caps):
                return (Verdict(False, (g,), (f"not invariant: {format_poly(g)}",)), 0)
    span = DegreeSpan(q, gens, degree_bound)
    certified = 0
    for deg in range(1, degree_bound + 1):
        for p in graded_kernel(q, deg, ders):
            if not span.contains(p):
                return (Verdict(False, (p,),
                                (f"degree {deg} invariant outside the subalgebra",)), certified)
        certified = deg
    return (Verdict(True), certified)


def algebra_equal_up_to_degree(q: QuotientRing, gens_a: Sequence, gens_b: Sequence,
                               degree_bound: int) -> bool:
    """Degree-certified equality of two generated subalgebras."""
    span_a = DegreeSpan(q, gens_a, degree_bound)
    span_b = DegreeSpan(q, gens_b, degree_bound)
    return all(other.contains(p)
               for one, other in ((span_a, span_b), (span_b, span_a))
               for d in range(1, degree_bound + 1) for p in one.rows_by_degree[d])


def restriction_misses(q: QuotientRing, f: Polynomial, degree_bound: int,
                       ambient: QuotientRing | None = None) -> bool:
    """True iff the quotient invariant f is not congruent modulo the ideal to
    any ambient invariant of degree <= degree_bound."""
    if not q.is_invariant(f):
        raise ValueError("f is not invariant in the quotient")
    if ambient is None:
        ambient = QuotientRing(q.table, Ideal(q.table, []), q.derivation, q.caps, check=False)
    span = SparseEchelon()
    for d in range(0, degree_bound + 1):
        for p in graded_kernel(ambient, d):
            span.insert(dict(q.nf(p).terms))
    return not span.contains(dict(q.nf(f).terms))


# ---------------------------------------------------------------------------
# the local-slice (exponential + intersection) algorithm


@dataclass(frozen=True)
class EssenConfig:
    max_rounds: int = 10
    caps: GroebnerCaps = DEFAULT_CAPS
    certify_degree: int = 6
    mine_degree: int = 4


MAX_GENERATOR_DEGREE = 12  # chain candidates above this degree are skipped (an honest cap)
MAX_SLICES = 3  # distinct peeling divisors used for discovery
SATURATE_DEGREE = 8  # degreewise discovery works below this bound
UNIT_SLICE_DEGREE = 2  # torsor sections are searched up to this degree


class NoSliceError(ValueError):
    """No variable has an invariant nonzero image (trivial action)."""


def _find_slices(q: QuotientRing) -> list:
    """All (slice variable s, image f = D(s), f non-zerodivisor?) triples.

    The image is kept exactly as D(s); rescaling it would break the
    exponential substitution."""
    out = []
    for name in q.table.names:
        image = q.nf(q.derivation(q.table.var(name)))
        if image.is_zero():
            continue
        second = q.nf(q.derivation(image))
        if not second.is_zero():
            continue
        nzd = q.ideal.colon(image, q.caps).same_ideal(q.ideal, q.caps)
        out.append((name, image, nzd))
    return out


def _find_slice(q: QuotientRing) -> tuple:
    """(slice variable s, invariant image f) with f nonzero mod the ideal.

    Prefers a slice whose image is a non-zerodivisor modulo the ideal; falls
    back to the first slice otherwise (flagged by the third component).
    """
    slices = _find_slices(q)
    if not slices:
        raise NoSliceError("no local slice: the induced action is trivial")
    for entry in slices:
        if entry[2]:
            return entry
    return slices[0]


def _find_unit_slice(q: QuotientRing) -> Polynomial | None:
    """A polynomial s of small degree with D(s) = 1 modulo the ideal.

    Such an s trivializes the action as a torsor: the exponential map along
    it needs no localization at all.  Solved by linear algebra over the
    normal-form monomials of bounded degree."""
    candidates = []
    for d in range(1, UNIT_SLICE_DEGREE + 1):
        candidates.extend(_quotient_basis(q, d))
    if not candidates:
        return None
    images = [q.nf(q.derivation(Polynomial(q.table, {m: Fraction(1)}))) for m in candidates]
    one = q.nf(q.table.one())
    monos = sorted({m for img in images for m in img.terms} | set(one.terms))
    rows = [[img.terms.get(m, Fraction(0)) for img in images] for m in monos]
    rhs = [one.terms.get(m, Fraction(0)) for m in monos]
    sol, _ = solve(rows, rhs)
    if sol is None:
        return None
    return Polynomial(q.table, {m: c for m, c in zip(candidates, sol) if c})


def _exp_images(q: QuotientRing, s: Polynomial, f: Polynomial, strip_f: bool) -> list:
    """Cleared exponential images f^nu * exp(-(s/f) D)(v) of every variable v,
    for an s with invariant image D(s) = f; each is checked to be invariant.

    A torsor section (D(s) = 1) takes f = 1, and the map is then a ring
    retraction onto the invariants.  With ``strip_f`` (sound when f is a
    non-zerodivisor) spurious f factors left over from the clearing are
    divided out, which keeps the generators minimal."""
    table = q.table
    out = []
    for name in table.names:
        chain = [q.nf(table.var(name))]
        while not chain[-1].is_zero():
            chain.append(q.nf(q.derivation(chain[-1])))
        chain.pop()
        nu = len(chain) - 1
        total = table.zero()
        factorial = Fraction(1)
        for i, elem in enumerate(chain):
            if i:
                factorial *= i
            total = total + (Fraction(1) / factorial) * elem * ((-s) ** i) * (f ** (nu - i))
        total = q.nf(total)
        if strip_f:
            while not (total.is_zero() or total.is_constant()):
                quot = exact_divide(total, f)
                if quot is None:
                    break
                total = q.nf(quot)
        if total.is_zero() or total.is_constant():
            continue
        if not q.is_invariant(total):
            raise AssertionError(f"exponential image not invariant: {format_poly(total)}")
        out.append(total.monic(GREVLEX))
    return out


def _graph_data(q: QuotientRing, gens: list) -> tuple:
    """Extended table with tag variables, the graph ideal generators, and the
    elimination order that makes the ambient block dominant."""
    table = q.table
    n = len(table.names)
    tags = [f"Y{i+1}@" for i in range(len(gens))]
    ext = table.extend(tags)
    graph = [table.lift(g, ext) for g in q.ideal.gens]
    for tag, g in zip(tags, gens):
        graph.append(ext.var(tag) - table.lift(g, ext))
    order = BlockElim(tuple(range(n)))
    return ext, tags, graph, order


def _divide_by_f(q: QuotientRing, w: Polynomial, f: Polynomial, f_ideal: Ideal,
                 caps: GroebnerCaps) -> Polynomial | None:
    """b with w = f*b modulo the ideal, or None when w is not in (f) + I.

    ``f_ideal`` is (f) + I with f as its first generator, so the first
    cofactor of a lift is the quotient."""
    nf = q.nf(w)
    if nf.is_zero():
        return q.table.zero()
    direct = exact_divide(nf, f)
    if direct is not None:
        return direct
    cof = f_ideal.lift(nf, caps=caps)
    return None if cof is None else cof[0]


def _strip_f(q: QuotientRing, b: Polynomial, f: Polynomial, f_ideal: Ideal,
             caps: GroebnerCaps) -> Polynomial:
    """Divide out the maximal power of f (sound for a non-zerodivisor f:
    every quotient of an invariant by f stays invariant)."""
    while True:
        nf = q.nf(b)
        if nf.is_zero() or nf.is_constant():
            return nf
        if not f_ideal.member(nf, caps=caps):
            return nf
        nxt = _divide_by_f(q, nf, f, f_ideal, caps)
        if nxt is None:
            return nf
        b = nxt


def _essen_cache_key(q: QuotientRing, config: EssenConfig) -> str:
    config_values = [config.max_rounds, config.certify_degree, config.mine_degree,
                     MAX_GENERATOR_DEGREE, MAX_SLICES, SATURATE_DEGREE,
                     config.caps.max_degree, config.caps.max_pairs, config.caps.max_basis]
    return cache_mod.content_key(dict(_ring_payload(q, (q.derivation,)),
                                      kind="essen-derksen", config=config_values))


def essen_derksen(q: QuotientRing, config: EssenConfig = EssenConfig()) -> InvariantReport:
    """Generators of the invariant ring by the local-slice algorithm.

    The data must be graded (a homogeneous ideal and a derivation that keeps
    degree) or carry a section s of degree at most ``UNIT_SLICE_DEGREE`` with
    D(s) = 1; anything else raises ``ValueError``.  With such a section the
    action is a trivial torsor and the exponential images along s generate
    the whole invariant ring (Terminated, certified degree 0).

    On graded data the cleared exponential images generate the invariants of
    the localization at a slice image f; the chain A_0, A_1, ... adjoins b
    with f*b in A_m until nothing new appears.  Discovery is accelerated by
    using every available slice image as a peeling divisor (any quotient of
    an invariant by an invariant non-zerodivisor is again invariant), but the
    termination certificate rests on the primary slice alone.  When that
    chain stabilizes and f is a non-zerodivisor the output generates the full
    invariant ring (Terminated); otherwise the honest status is CapReached
    with partial generators.

    Results are cached on disk when a cache is active; entries are keyed by
    the full content of the quotient data and the configuration.
    """
    disk = cache_mod.get_active_cache()
    key = None
    if disk is not None:
        key = _essen_cache_key(q, config)
        stored = disk.get(key)
        if stored is not None:
            return InvariantReport(
                tuple(cache_mod.decode_poly(q.table, blob) for blob in stored["generators"]),
                stored["certified_degree"], stored["termination"], tuple(stored["notes"]))
    report = _essen_derksen_compute(q, config)
    if disk is not None and key is not None:
        disk.put(key, {
            "generators": [cache_mod.encode_poly(g) for g in report.generators],
            "certified_degree": report.certified_degree,
            "termination": report.termination,
            "notes": list(report.notes),
        })
    return report


def _essen_derksen_compute(q: QuotientRing, config: EssenConfig) -> InvariantReport:
    caps = config.caps
    q.nilpotency_order()

    if not (q.homogeneous() and q.derivation_preserves_degree()):
        # a degree-keeping D has no D(s) = 1, so only ungraded data get here
        s = _find_unit_slice(q)
        if s is None:
            raise ValueError("the invariant chain needs a homogeneous ideal with a "
                             "degree-preserving derivation, or a section s of degree "
                             f"at most {UNIT_SLICE_DEGREE} with D(s) = 1")
        gens = _dedup(_exp_images(q, s, q.table.one(), strip_f=False))
        note = (f"global section {format_poly(s)} with derivation one: the action is a "
                "trivial torsor and the exponential images generate the invariants")
        return InvariantReport(tuple(gens), 0, "Terminated", (note,))

    notes = []
    s_name, f, nzd = _find_slice(q)

    if not nzd:
        gens = _dedup(_exp_images(q, q.table.var(s_name), f, strip_f=False)
                      + [f.monic(GREVLEX)])
        # localizing at a zerodivisor loses the components it kills, so the
        # chain cannot certify completeness; report partial generators only
        notes.append(f"slice image {format_poly(f)} is a zerodivisor modulo the ideal; "
                     "completeness cannot be certified")
        span = DegreeSpan(q, gens, config.mine_degree)
        for d in range(1, config.mine_degree + 1):
            for p in graded_kernel(q, d):
                if not span.contains(p):
                    gens.append(p)
                    span.add(p)
        notes.append(f"generators mined from graded kernels through degree {config.mine_degree}")
        certified = _certify_degree(q, gens, config)
        return InvariantReport(tuple(gens), certified, "CapReached", tuple(notes))

    # distinct non-zerodivisor slice images, primary first
    divisors = [(s_name, f)]
    seen = {format_poly(f.monic(GREVLEX))}
    for name, image, ok in _find_slices(q):
        key = format_poly(image.monic(GREVLEX))
        if ok and key not in seen:
            seen.add(key)
            divisors.append((name, image))
    divisors = divisors[:MAX_SLICES]

    gens = []
    for name, image in divisors:
        gens.extend(_exp_images(q, q.table.var(name), image, strip_f=True))
        gens.append(image.monic(GREVLEX))
    gens = _minimalize(q, gens)

    # f is a form of degree one over a homogeneous ideal that does not contain
    # 1 (else no slice exists), so f is never invertible and (f) + I is proper
    status = "CapReached"
    f_ideal = Ideal(q.table, [f] + list(q.ideal.gens))
    peel_degree = max(SATURATE_DEGREE, config.certify_degree + 1)
    try:
        for _round in range(config.max_rounds):
            # cheap discovery: degreewise peeling by every slice image
            span = DegreeSpan(q, gens, peel_degree)
            new = []
            for _, div in divisors:
                for cand in _peel_candidates(q, span, div):
                    b = _strip_f(q, cand, f, f_ideal, caps)
                    if b.is_zero() or b.is_constant():
                        continue
                    if not q.is_invariant(b):
                        raise AssertionError(
                            f"peeled candidate not invariant: {format_poly(b)}")
                    b = b.monic(GREVLEX)
                    if any(b == g2 for g2 in gens + new) or span.contains(b):
                        continue
                    new.append(b)
            if new:
                gens = _minimalize(q, gens + new)
                continue
            # discovery stabilized: run the full preimage certificate on the
            # primary slice
            new, skipped = _certificate_round(q, gens, f, f_ideal, caps)
            if not new:
                if skipped:
                    notes.append(
                        f"candidates above degree {MAX_GENERATOR_DEGREE} were skipped")
                    break
                status = "Terminated"
                break
            gens = _minimalize(q, gens + new)
        else:
            notes.append(f"round cap {config.max_rounds} reached")
    except NotCompleted as exc:
        notes.append(f"resource cap hit: {exc.message}")
    certified = _certify_degree(q, gens, config)
    return InvariantReport(tuple(gens), certified, status, tuple(notes))


def _certificate_round(q: QuotientRing, gens: list, f: Polynomial, f_ideal: Ideal,
                       caps: GroebnerCaps) -> tuple:
    """One full colon-by-f round through the tag-elimination preimage ideal.

    An empty result certifies that the generated algebra is f-saturated, the
    stabilization condition of the intersection chain."""
    new = []
    ext, tags, graph, order = _graph_data(q, gens)
    with_f = graph + [q.table.lift(f, ext)]
    basis = Ideal(ext, with_f).groebner(order, caps)
    ambient_pos = range(len(q.table.names))
    tag_only = [g for g in basis
                if all(all(m[i] == 0 for i in ambient_pos) for m in g.terms)]
    weights = {ext.index(tag): u.degree() for tag, u in zip(tags, gens)}

    def predicted_degree(g: Polynomial) -> int:
        return max(sum(weights[i] * e for i, e in enumerate(m) if e)
                   for m in g.terms)

    tag_only.sort(key=predicted_degree)
    low = [g for g in tag_only
           if predicted_degree(g) - f.degree() <= MAX_GENERATOR_DEGREE]
    skipped = len(low) != len(tag_only)
    span = DegreeSpan(q, gens, 0)
    for g in low:
        # w = g at the generators, a subalgebra element of (f) + I
        w = _eval_tags(q, ext, tags, gens, g)
        b = _divide_by_f(q, w, f, f_ideal, caps)
        if b is None:
            raise AssertionError("preimage element not divisible by the slice image")
        b = _strip_f(q, b, f, f_ideal, caps)
        if b.is_zero() or b.is_constant():
            continue
        if not q.is_invariant(b):
            raise AssertionError(f"colon step produced a non-invariant: {format_poly(b)}")
        b = b.monic(GREVLEX)
        if any(b == g2 for g2 in gens + new):
            continue
        if span.contains(b):
            continue
        new.append(b)
        span.add(b)
    return new, skipped


def _minimalize(q: QuotientRing, gens: list) -> list:
    """Drop generators lying in the subalgebra of the remaining ones.

    Exact for homogeneous generators: membership of a degree-d element is
    decided inside the degree-d product span."""
    span = DegreeSpan(q, [], 0)
    kept: list = []
    for g in sorted(gens, key=lambda g: (g.degree(), poly_key(g))):
        if not span.contains(g):
            kept.append(g)
            span.add(g)
    return _dedup(kept)


def _eval_tags(q: QuotientRing, ext, tags, gens, g: Polynomial) -> Polynomial:
    assignment = {tag: q.table.lift(u, ext) for tag, u in zip(tags, gens)}
    value = g.substitute(assignment)
    return ext.project(value, q.table)


def _dedup(gens: list) -> list:
    seen = {}
    for g in gens:
        seen.setdefault(format_poly(g), g)
    return [seen[k] for k in sorted(seen)]


def _certify_degree(q: QuotientRing, gens: list, config: EssenConfig) -> int:
    span = DegreeSpan(q, gens, config.certify_degree)
    certified = 0
    for d in range(1, config.certify_degree + 1):
        for p in graded_kernel(q, d):
            if not span.contains(p):
                return certified
        certified = d
    return certified


# ---------------------------------------------------------------------------
# special certificates


def standard_sym1_invariants(rep: GaRep) -> list:
    """The separating invariant list for sym1^n: the moved coordinates, the
    two families of 2x2 minors, and the mixed pairings."""
    if any(k != 1 for k in rep.summands):
        raise ValueError("the standard list applies to sym1^n representations")
    table = rep.table_tv()
    n = rep.multiplicity
    y = [table.var(rep.x_name(j + 1, 1)) for j in range(n)]
    x = [table.var(rep.x_name(j + 1, 2)) for j in range(n)]
    b = [table.var(rep.a_name(j + 1, 1)) for j in range(n)]
    a = [table.var(rep.a_name(j + 1, 2)) for j in range(n)]
    invs = list(x) + list(b)
    for i in range(n):
        for j in range(n):
            if i < j:
                invs.append(x[i] * y[j] - x[j] * y[i])
                invs.append(b[i] * a[j] - b[j] * a[i])
            invs.append(x[i] * a[j] + y[i] * b[j])
    return invs


def nullcone_equals_fixed(rep: GaRep, caps: GroebnerCaps = DEFAULT_CAPS) -> Verdict:
    """For sym1^n: the common zero locus of the standard invariant list equals
    the fixed locus, via radical membership in both directions."""
    from .levelsets import fixed_locus  # local import to avoid a cycle

    table = rep.table_tv()
    nullcone = Ideal(table, standard_sym1_invariants(rep))
    fixed = fixed_locus(rep, certify=False)
    for g in fixed.gens:
        if not nullcone.radical_member(g, caps):
            return Verdict(False, (g,), ("fixed generator misses the nullcone",))
    for g in nullcone.gens:
        if not fixed.radical_member(g, caps):
            return Verdict(False, (g,), ("nullcone generator misses the fixed locus",))
    return Verdict(True)


@dataclass(frozen=True)
class SectionSolution:
    coefficients: tuple  # one lambda per T*V coordinate pair, in table order
    solution_dim: int
    sigma: Polynomial


def section_sigma(rep: GaRep) -> SectionSolution:
    """Solve D(sum lambda_i x_i a_i) = mu exactly.

    Returns one solution (free variables set to zero), the dimension of the
    solution space, and the section polynomial itself.  Inconsistency is a
    hard failure.
    """
    if rep.is_trivial:
        raise ValueError("trivial action has mu = 0; no section is needed")
    table = rep.table_tv()
    d = ga_derivation(rep, table)
    mu = ga_moment(rep)
    pairs = []
    for j, k in enumerate(rep.summands):
        for i in range(k + 1):
            pairs.append(table.var(rep.x_name(j + 1, i + 1)) * table.var(rep.a_name(j + 1, i + 1)))
    images = [d(p) for p in pairs]
    monos = sorted({m for p in images for m in p.terms} | set(mu.terms))
    rows = [[img.terms.get(m, Fraction(0)) for img in images] for m in monos]
    rhs = [mu.terms.get(m, Fraction(0)) for m in monos]
    sol, null = solve(rows, rhs)
    if sol is None:
        raise AssertionError("section system is inconsistent")
    sigma = table.zero()
    for lam, p in zip(sol, pairs):
        sigma = sigma + lam * p
    residual = d(sigma) - mu
    if not residual.is_zero():
        raise AssertionError("section verification failed")
    return SectionSolution(tuple(sol), len(null), sigma)
