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
from math import lcm
from typing import Sequence

from . import cache as cache_mod
from . import hilbert
from .groebner import DEFAULT_CAPS, GroebnerCaps, Ideal, NotCompleted
from .levelsets import Hypersurface, fixed_locus
from .linalg import SparseEchelon, annihilates, integral, primitive, sparse_nullspace, sparse_solve
from .moments import Verdict, ga_moment
from .poly import (Derivation, GREVLEX, PolyMap, Polynomial, VariableTable,
                   format_poly, mul_terms, partial_terms, poly_key)
from .reps import GaRep, ga_derivation


class QuotientRing:
    """Ambient polynomial ring modulo a derivation-stable ideal."""

    __slots__ = ("table", "ideal", "derivation", "caps")

    def __init__(self, table: VariableTable, ideal: Ideal, derivation: Derivation,
                 caps: GroebnerCaps = DEFAULT_CAPS):
        if ideal.table != table or derivation.table != table:
            raise ValueError("quotient data over mismatched tables")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "derivation", derivation)
        object.__setattr__(self, "caps", caps)
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
        """The ring of ``Hypersurface.at(rep, level)`` with the additive
        derivation; a trivial rep raises its ``ValueError``."""
        surface = Hypersurface.at(rep, level)
        return QuotientRing(surface.table, surface.ideal, ga_derivation(rep, surface.table), caps)

    def nf(self, f: Polynomial) -> Polynomial:
        return self.ideal.normal_form(f, caps=self.caps)

    def is_invariant(self, f: Polynomial) -> bool:
        return self.ideal.member(self.derivation(f), caps=self.caps)

    def homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.ideal.gens)


def _keeps_degree(d: Derivation) -> bool:
    """Every variable image is a linear form, so D maps each degree to itself."""
    return all(img.is_homogeneous() and img.degree() == 1 for img in d.images.values())


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
    leads = q.ideal.leading_terms(caps=q.caps)
    out = []
    for m in _degree_monomials(q.table, degree):
        if not any(all(l <= e for l, e in zip(lm, m)) for lm in leads):
            out.append(m)
    return out


def _ring_key(q: QuotientRing, derivations: tuple, **extra) -> str:
    """Cache key of a computation on a quotient ring with its derivations;
    ``extra`` names the computation and its parameters."""
    encode = cache_mod.encode_poly
    return cache_mod.content_key(dict(
        table=[list(q.table.names), list(q.table.blocks)],
        ideal=[encode(g) for g in sorted(q.ideal.gens, key=poly_key)],
        derivations=[[[i, encode(p)] for i, p in sorted(d.images.items())]
                     for d in derivations],
        **extra))


def _integer_images(d: Derivation) -> dict:
    """The variable images (position -> integer term dict) of a positive
    integer multiple of d: one common denominator clears them all, so the
    multiple has d's kernel."""
    flat = integral({(i, m): c for i, img in d.images.items() for m, c in img.terms.items()})
    images: dict = {}
    for (i, m), c in flat.items():
        images.setdefault(i, {})[m] = c
    return images


def _derive_row(images: dict, row: dict) -> dict:
    """The image of an integer term dict under the derivation whose integer
    variable images are ``images`` (``_integer_images``)."""
    work: dict = {}
    for i, img in images.items():
        mul_terms(partial_terms(row, i), img, work)
    return work


def _kernel_equations(q: QuotientRing, derivations: tuple, degree: int) -> tuple:
    """(mons, equations, scales): the integer system whose kernel is the
    kernel of the derivations on the degree piece of q.

    ``mons`` is the quotient basis of the degree.  Column j of ``equations``
    holds scales[j] times the normal forms of D(m_j), for every derivation D,
    built in integers: D(m_j) is a term dict of an integer multiple of D
    (``_integer_images``, ``_derive_row``) and
    ``Ideal.reduce_row`` gives its normal form times a positive s.  The
    column scale is one positive integer common to all derivations, the lcm
    of their s."""
    mons = _quotient_basis(q, degree)
    images = [_integer_images(d) for d in derivations]
    blocks = [{} for _ in derivations]  # per derivation: image monomial -> equation row
    scales = []
    for col, m in enumerate(mons):
        residues = [q.ideal.reduce_row(_derive_row(imgs, {m: 1}), caps=q.caps)
                    for imgs in images]
        scale = lcm(*(s for _, s in residues))
        scales.append(scale)
        for rows, (residue, s) in zip(blocks, residues):
            factor = scale // s
            for mm, c in residue.items():
                rows.setdefault(mm, {})[col] = c * factor
    return mons, [eq for rows in blocks for eq in rows.values()], scales


def _kernel_compute(q: QuotientRing, derivations: tuple, system: tuple) -> list:
    """The kernel of the derivations read out of their ``_kernel_equations``
    system on one degree of q: one monic polynomial per free column, sorted
    by ``poly_key``.

    A column scale keeps the pivots and divides the column's kernel entries
    by it, so the read-out multiplies each entry by its column's scale before
    the vector is made monic.  Every returned vector is checked through the
    rational route: q.nf(d(p)) must be zero for every derivation d, else
    ``AssertionError``."""
    mons, equations, scales = system
    out = []
    for vec in sparse_nullspace(equations, len(mons)):
        p = Polynomial(q.table, {mons[i]: c * scales[i] for i, c in vec.items()})
        p = p * (Fraction(1) / p.leading(GREVLEX)[1])
        if not all(q.nf(d(p)).is_zero() for d in derivations):
            raise AssertionError(f"kernel vector is not invariant: {format_poly(p)}")
        out.append(p)
    out.sort(key=poly_key)
    return out


def _graded_derivations(q: QuotientRing, derivations: Sequence | None) -> tuple:
    """The derivations (default: the ring's), after checking that q has
    graded pieces they keep: a homogeneous ideal and degree-preserving
    derivations, else ``ValueError``."""
    if not q.homogeneous():
        raise ValueError("graded kernel needs a homogeneous defining ideal")
    ders = tuple(derivations) if derivations is not None else (q.derivation,)
    if not all(_keeps_degree(d) for d in ders):
        raise ValueError("graded kernel needs degree-preserving derivations")
    return ders


def graded_kernel(q: QuotientRing, degree: int,
                  derivations: Sequence | None = None) -> list:
    """Basis of the invariants of one total degree in the quotient ring, from
    ``_kernel_compute``, cached per ring, derivations and degree.

    Requires a homogeneous defining ideal and degree-preserving derivations
    so that the graded piece is well defined.  Degree 0 is not cached: it is
    the constants, [1], or [] when the ideal contains 1 and the ring is zero;
    a homogeneous ideal contains 1 exactly when a generator is a constant.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    ders = _graded_derivations(q, derivations)
    if degree == 0:
        return [] if any(g.is_constant() for g in q.ideal.gens) else [q.table.one()]
    return cache_mod.cached(
        lambda: _ring_key(q, ders, kind="graded-kernel", degree=degree),
        lambda: _kernel_compute(q, ders, _kernel_equations(q, ders, degree)),
        lambda kernel: [cache_mod.encode_poly(p) for p in kernel],
        lambda stored: [cache_mod.decode_poly(q.table, entry) for entry in stored])


# ---------------------------------------------------------------------------
# subalgebra spans by degree (linear-algebra certification)


class DegreeSpan:
    """Span of normal forms of generator products, grown one generator at a time.

    The ideal and the generators must be homogeneous, so a product of total
    degree d has a homogeneous normal form of degree d.  ``rows_by_degree[d]``
    holds a basis of the degree-d piece of the span, kept in one echelon per
    degree, so membership of a degree-d element is decided exactly
    inside that piece and does not depend on the order of enumeration.
    Generators, rows and products are primitive integer term dicts, since
    scaling a row does not change a span: a product is reduced in integers
    against the ring's stored basis rows (``Ideal.reduce_row``).

    Each row is the normal form of the product of a generator monomial, a
    sorted tuple of generator indices (``_monos_by_degree``, parallel to the
    rows).  Every degree receives its products in increasing order of one
    monomial order: lex with the later generator more significant.  ``add``
    appends generator i, so its products g_i * row, all holding i, come after
    every product of the earlier generators; ``extend`` multiplies each g_i
    only by rows whose monomial holds no generator after i.  Call a monomial
    dependent when its product lies in the span of the products of the
    smaller monomials of its degree.  In this order those are the products
    inserted before it, so ``rows_by_degree[d]`` holds exactly the standard
    (independent) monomials of degree d.  The dependent monomials form a
    monomial ideal, the leading monomials of the generators' relations: a
    relation times g_j is again one, led by its leading monomial times g_j.
    So a product whose monomial has a dependent immediate divisor
    mono + e_i - e_j, of lower degree and decided already, is dependent too,
    and it is skipped before it is built (Sturmfels, Algorithms in Invariant
    Theory, on standard monomials).  A generator in the span of the others
    costs its own insert and is not kept (``add`` returns False).

    ``_echelons[d]`` is the degree piece's echelon, keyed by monomial.  The
    peel (``_peel_candidates``) reads it back-substituted, once per degree;
    the reduced rows keep the echelon's invariant, so ``spans`` and later
    inserts answer as before, and ``rows_by_degree`` does not change.
    """

    def __init__(self, q: QuotientRing, gens: Sequence):
        if not q.homogeneous():
            raise ValueError("a degree span needs a homogeneous defining ideal")
        self.q = q
        self.max_degree = 0
        self._gens = []  # (degree, primitive integer terms)
        self.rows_by_degree = defaultdict(list)
        self._monos_by_degree = defaultdict(list)  # the generator monomial of each row
        self._standard = set()  # every monomial of _monos_by_degree
        self._echelons = defaultdict(SparseEchelon)
        self._insert(0, {(0,) * len(q.table.names): 1}, ())
        for g in gens:
            self.add(g)

    def _nf(self, row: dict) -> dict:
        """The integer normal form of an integer term dict (consumed), up to
        a positive scale."""
        return self.q.ideal.reduce_row(row, caps=self.q.caps)[0]

    def _insert(self, degree: int, product: dict, mono: tuple) -> None:
        nf = self._nf(product)
        if nf and self._echelons[degree].insert(nf):
            self.rows_by_degree[degree].append(primitive(nf))
            self._monos_by_degree[degree].append(mono)
            self._standard.add(mono)

    def add(self, g: Polynomial) -> bool:
        """Adjoin one generator, the span's one way in; True when g lies
        outside the subalgebra of the earlier ones.  g's integer normal form
        is taken once, the span is extended to deg g, and then
        V(d) += nf(g * V(d - deg g)) for d upwards, so the lower pieces
        already hold the products that involve g.  When g's own product (i,)
        is dependent, it divides every product of g, none of which is built,
        and g leaves ``_gens`` again."""
        nf = self._nf(integral(g.terms))
        if not any(map(any, nf)):  # zero or a constant
            return False
        degrees = {sum(m) for m in nf}
        if len(degrees) != 1:
            raise ValueError("a degree span needs homogeneous generators")
        step, = degrees
        self.extend(step)
        i = len(self._gens)
        self._gens.append((step, primitive(nf)))
        self._grow(step, i)
        if (i,) not in self._standard:
            self._gens.pop()
            return False
        for degree in range(step + 1, self.max_degree + 1):
            self._grow(degree, i)
        return True

    def extend(self, bound: int) -> None:
        """Grow every degree piece through ``bound``; the span grows only as
        far as its readers ask, and a piece's rows do not depend on when."""
        for degree in range(self.max_degree + 1, bound + 1):
            self._grow(degree, 0)
        self.max_degree = max(self.max_degree, bound)

    def _grow(self, degree: int, first: int) -> None:
        """The one product loop: for each generator i from ``first`` on, insert
        nf(g_i * row) into the degree piece for each row of degree - deg g_i
        whose monomial holds no generator after i, unless the product's
        monomial has a divisor outside the standard monomials (see the class
        docstring)."""
        standard = self._standard
        for i in range(first, len(self._gens)):
            step, g = self._gens[i]
            for row, mono in zip(self.rows_by_degree[degree - step],
                                 self._monos_by_degree[degree - step]):
                if mono and mono[-1] > i:
                    continue
                product = mono + (i,)
                if all(product[:k] + product[k + 1:] in standard for k in range(len(mono))):
                    self._insert(degree, mul_terms(row, g), product)

    def spans(self, nf: dict) -> bool:
        """Subalgebra membership of an integer normal form, read from the
        echelon of its degree; extends the span as far as nf needs."""
        if not nf:
            return True
        degrees = {sum(m) for m in nf}
        if len(degrees) != 1:
            return False
        d, = degrees
        self.extend(d)
        return self._echelons[d].contains(nf)


def _single_variable(p: Polynomial) -> int | None:
    """Position of v when p is a nonzero scalar multiple of a variable."""
    if len(p.terms) != 1:
        return None
    (mono, _), = p.terms.items()
    support = [i for i, e in enumerate(mono) if e]
    if len(support) == 1 and mono[support[0]] == 1:
        return support[0]
    return None


def _peel_candidates(span: DegreeSpan, divisors: Sequence, max_degree: int) -> list:
    """Degreewise peeling by each divisor that is a variable x_v, through
    ``max_degree`` (the span is extended that far): the rows of the unique
    primitive reduced echelon basis of W_d = span_d n x_v*R, for d = 2 ..
    ``max_degree``, each divided by x_v, as primitive integer term dicts, with
    no Groebner computation.  They are new invariants when x_v is invariant.
    The rows come divisor by divisor, then by degree, then in increasing
    pivot order.  Each is an integer normal form, as ``_strip_f`` takes it:
    its monomials divide the span rows' standard monomials, so none lies in
    the leading-term ideal.

    Every divisor reads the span's own echelon of degree d, back-substituted
    once (``SparseEchelon.reduced``).  In a reduced echelon an element's
    entry at pivot p is its coefficient on row p, so every element of W_d,
    zero at each monomial that x_v does not divide (a free one), is a
    combination of the rows pivoted at divisible monomials.  Such a row with
    no free monomial lies in W_d as it stands.  Only the others go through an
    echelon keyed by (block, monomial), free block first: its rows pivoted
    in the divisible block are the combinations whose free part cancels.
    Those and the rows that lie in W_d span W_d, and one back-substitution
    of them gives its reduced basis."""
    positions = [pos for pos in map(_single_variable, divisors) if pos is not None]
    if not positions:
        return []
    span.extend(max_degree)
    pieces = [span._echelons[d].reduced() for d in range(2, max_degree + 1)]
    found = []
    for pos in positions:
        for rows in pieces:
            basis, mixed = SparseEchelon(), SparseEchelon()
            for p, row in rows.items():
                if not p[pos]:
                    continue
                if all(m[pos] for m in row):
                    basis.rows[p] = row
                else:
                    mixed.insert({(0 if m[pos] == 0 else 1, m): c for m, c in row.items()})
            for (block, p), row in mixed.rows.items():
                if block:
                    basis.rows[p] = {m: c for (_, m), c in row.items()}
            reduced = basis.reduced()
            for p in sorted(reduced):
                terms = {}
                for m, c in reduced[p].items():
                    if m[pos] < 1:
                        raise AssertionError("divisible block row with a free monomial")
                    terms[m[:pos] + (m[pos] - 1,) + m[pos + 1:]] = c
                found.append(terms)
    return found


def verify_generators(q: QuotientRing, gens: Sequence, degree_bound: int,
                      derivations: Sequence | None = None,
                      span: DegreeSpan | None = None) -> tuple:
    """Check a proposed generating set: every generator must be killed by the
    derivation(s) modulo the ideal, and through the degree bound every graded
    invariant must lie in the subalgebra the generators span.

    Returns (verdict, certified_degree); a non-invariant generator fails
    immediately and is named in the verdict.  ``span``, when given, is the
    product span of exactly ``gens`` (``DegreeSpan``), such as the one the
    chain's last ``_minimalize`` built; otherwise one is built.  The degrees
    are certified by ``_certify``.
    """
    ders = _graded_derivations(q, derivations)
    for g in gens:
        for d in ders:
            if not q.ideal.member(d(g), caps=q.caps):
                return (Verdict(False, (g,), (f"not invariant: {format_poly(g)}",)), 0)
    if span is None:
        span = DegreeSpan(q, gens)
    return _certify(q, gens, span, ders, degree_bound)


def _certify(q: QuotientRing, gens: list, span: DegreeSpan, ders: tuple,
             degree_bound: int, mine_through: int = 0) -> tuple:
    """The one degree walk: (verdict, certified degree) of the subalgebra
    whose product span is ``span``.  Each degree d through the bound builds
    its ``_kernel_equations`` system once and is certified by counting
    (``_rank_certifies``); one that falls short reads its checked kernel
    vectors from the same system (``_kernel_compute``).  Through
    ``mine_through`` each vector outside the span joins ``gens`` and the span
    before the next is tested; above, the first is the verdict's residual and
    d - 1 the certified degree."""
    for d in range(1, degree_bound + 1):
        span.extend(d)
        system = _kernel_equations(q, ders, d)
        if _rank_certifies(span, d, system):
            continue
        mined = len(gens)
        for p in _kernel_compute(q, ders, system):
            if span.add(p):
                if d > mine_through:
                    note = f"degree {d} invariant outside the subalgebra"
                    return Verdict(False, (p,), (note,)), d - 1
                gens.append(p)
        if len(gens) == mined:
            raise AssertionError(f"degree {d}: the kernel rank exceeds the span's, "
                                 "but every kernel vector lies in the span")
    return (Verdict(True), degree_bound)


def _rank_certifies(span: DegreeSpan, degree: int, system: tuple) -> bool:
    """True when the span's degree piece is the whole kernel of the degree's
    ``_kernel_equations`` system, decided by dimension: dim ker is the number
    of columns minus the rank of the equations.

    Two checks always run, each raising ``AssertionError``: the equations
    annihilate every span row (``annihilates``; column c holds
    scales[c] * nf(D m_c), so a row entry at m_c enters with weight
    lcm(scales) / scales[c]), which shows span <= kernel, and the span is no
    larger than the kernel.  Like the kernel vectors, this rests on the
    columns having no spurious rank; a kernel that comes out too large only
    sends the walk to its checked vectors, so the count can under-certify
    but never over-certify."""
    mons, equations, scales = system
    column = {m: c for c, m in enumerate(mons)}
    weight = lcm(*scales)
    rows = span.rows_by_degree[degree]
    vectors = [{column[m]: r * (weight // scales[column[m]]) for m, r in row.items()}
               for row in rows]
    if not annihilates(equations, vectors):
        raise AssertionError(f"degree {degree} span row is not invariant")
    ech = SparseEchelon()
    for eq in equations:
        ech.insert(eq)
    dim = len(mons) - len(ech)
    if len(rows) > dim:
        raise AssertionError(f"degree {degree} span exceeds the kernel: "
                             f"{len(rows)} > {dim}")
    return len(rows) == dim


def algebra_equal_up_to_degree(q: QuotientRing, gens_a: Sequence, gens_b: Sequence,
                               degree_bound: int) -> bool:
    """Degree-certified equality of two generated subalgebras: in each degree
    the two spans have one dimension and B's span reads each row of A's, an
    integer normal form (``DegreeSpan.spans``).  A subspace of B's piece with
    B's finite dimension is all of it, so one direction suffices."""
    span_a, span_b = DegreeSpan(q, gens_a), DegreeSpan(q, gens_b)
    span_a.extend(degree_bound)
    span_b.extend(degree_bound)
    rows_a = span_a.rows_by_degree
    degrees = range(1, degree_bound + 1)
    return (all(len(rows_a[d]) == len(span_b.rows_by_degree[d]) for d in degrees)
            and all(span_b.spans(row) for d in degrees for row in rows_a[d]))


def restriction_misses(q: QuotientRing, f: Polynomial, degree_bound: int) -> bool:
    """True iff the quotient invariant f is not congruent modulo the ideal to
    any ambient invariant of degree <= degree_bound."""
    if not q.is_invariant(f):
        raise ValueError("f is not invariant in the quotient")
    ambient = QuotientRing(q.table, Ideal(q.table, []), q.derivation, q.caps)
    span = SparseEchelon()
    for d in range(0, degree_bound + 1):
        for p in graded_kernel(ambient, d):
            span.insert(dict(q.nf(p).terms))
    return not span.contains(dict(q.nf(f).terms))


# ---------------------------------------------------------------------------
# the local-slice (exponential + intersection) algorithm


MAX_ROUNDS = 10  # rounds of the chain before it stops with CapReached (an honest cap)
MINE_DEGREE = 4  # a zerodivisor slice mines graded kernels up to min(certify_degree, this)
MAX_GENERATOR_DEGREE = 12  # chain candidates above this degree are skipped (an honest cap)
MAX_SLICES = 3  # distinct peeling divisors used for discovery
SATURATE_DEGREE = 8  # the cap of the peel's reach (see essen_derksen)
UNIT_SLICE_DEGREE = 2  # torsor sections are searched up to this degree


class NoSliceError(ValueError):
    """No variable has an invariant nonzero image (trivial action)."""


def _variable_orbits(q: QuotientRing) -> dict:
    """The D-orbit of each variable v modulo the ideal, in table order:
    name -> [nf(v), nf(Dv), ..., the last nonzero one], empty when v lies in
    the ideal.  Finite orbits of the variables make D locally nilpotent on the
    quotient (Leibniz rule); an orbit longer than 2n + 2 raises NotCompleted."""
    bound = 2 * len(q.table.names) + 2
    out = {}
    for name in q.table.names:
        orbit = [q.nf(q.table.var(name))]
        while not orbit[-1].is_zero():
            if len(orbit) > bound:
                raise NotCompleted(f"derivation not locally nilpotent within bound {bound}")
            orbit.append(q.nf(q.derivation(orbit[-1])))
        orbit.pop()
        out[name] = orbit
    return out


def _find_slices(q: QuotientRing, orbits: dict) -> list:
    """All (slice variable s, image f = D(s), f non-zerodivisor?, (f) + I)
    entries: the variables whose orbit stops after D(s).

    Graded data only: I is homogeneous and D keeps degree, so f is a linear
    form, and f is a non-zerodivisor modulo I exactly when
    HS(k[x]/(I + f)) = (1 - t^deg f) * HS(k[x]/I), compared on the GREVLEX
    leading terms (``hilbert.is_nonzerodivisor``).  The ideal (f) + I has f as
    its first generator, as ``_strip_f`` needs.

    The image is kept exactly as D(s); rescaling it would break the
    exponential substitution."""
    n = len(q.table.names)
    leads = q.ideal.leading_terms(caps=q.caps)
    out = []
    for name, orbit in orbits.items():
        if len(orbit) != 2:
            continue
        image = orbit[1]
        if not image.is_homogeneous():
            raise ValueError(f"slice image {format_poly(image)} is not homogeneous")
        f_ideal = Ideal(q.table, [image] + list(q.ideal.gens))
        f_leads = f_ideal.leading_terms(caps=q.caps)
        nzd = hilbert.is_nonzerodivisor(leads, f_leads, n, image.degree())
        out.append((name, image, nzd, f_ideal))
    return out


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
    sol, _ = _solve_combination(images, q.nf(q.table.one()))
    if sol is None:
        return None
    return Polynomial(q.table, {m: c for m, c in zip(candidates, sol) if c})


def _solve_combination(images: list, target: Polynomial) -> tuple:
    """(c, dim): coefficients with sum c_i * images[i] = target, free ones 0
    (None when there are none), and the dimension of the solution space.
    One equation per monomial."""
    rows: dict = defaultdict(dict)
    for i, img in enumerate(images):
        for m, c in img.terms.items():
            rows[m][i] = c
    monos = sorted(set(rows) | set(target.terms))
    return sparse_solve([rows.get(m, {}) for m in monos],
                        [target.terms.get(m, 0) for m in monos], len(images))


def _exp_images(q: QuotientRing, orbits: dict, s: Polynomial, f: Polynomial,
                strip_f: bool) -> list:
    """Cleared exponential images f^nu * exp(-(s/f) D)(v) of every variable v,
    read off its orbit (``_variable_orbits``), for an s with invariant image
    D(s) = f; each is checked to be invariant.

    A torsor section (D(s) = 1) takes f = 1, and the map is then a ring
    retraction onto the invariants.  With ``strip_f`` (sound when f is a
    non-zerodivisor) spurious f factors left over from the clearing are
    divided out by ``_strip_f`` over (f) alone, where the lift is exact
    division by f; this keeps the generators minimal."""
    table = q.table
    f_ideal = Ideal(table, [f])
    out = []
    for orbit in orbits.values():
        nu = len(orbit) - 1
        total = table.zero()
        factorial = Fraction(1)
        for i, elem in enumerate(orbit):
            if i:
                factorial *= i
            total = total + (Fraction(1) / factorial) * elem * ((-s) ** i) * (f ** (nu - i))
        if strip_f:
            nf = q.ideal.reduce_row(integral(total.terms), caps=q.caps)[0]
            total = Polynomial(table, _strip_f(q, nf, f_ideal, set()))
        else:
            total = q.nf(total)
        if total.is_zero() or total.is_constant():
            continue
        if not q.is_invariant(total):
            raise AssertionError(f"exponential image not invariant: {format_poly(total)}")
        out.append(total.monic(GREVLEX))
    return out


def _graph_data(q: QuotientRing, gens: list) -> tuple:
    """Extended table with one tag variable per generator, the tags, and the
    graph ideal generators."""
    table = q.table
    tags = [f"Y{i+1}@" for i in range(len(gens))]
    ext = table.extend(tags)
    graph = [table.lift(g, ext) for g in q.ideal.gens]
    for tag, g in zip(tags, gens):
        graph.append(ext.var(tag) - table.lift(g, ext))
    return ext, tags, graph


def _strip_f(q: QuotientRing, nf: dict, f_ideal: Ideal, tried: set) -> dict | None:
    """Divide out the maximal power of f modulo the ideal I (sound for a
    non-zerodivisor f: every quotient of an invariant by f stays invariant),
    on integer term dicts: nf, an integer normal form modulo I, is consumed,
    and the result is a positive multiple of the normal form of the last
    quotient.

    ``f_ideal`` has f as its first generator: (f) + I for the chain's filter,
    or (f) alone for ``_exp_images``.  Its lift (``Ideal.lift_row``) is the
    only division: None stops the loop on a non-member, and the first
    cofactor c_0 has f*c_0 = s*nf modulo I (exactly, over (f) alone) for a
    positive integer s, which fixes c_0 modulo I as f is a non-zerodivisor.

    The monic class (``_monic_class``) of each quotient's normal form joins
    ``tried``, the chain's set of judged classes in its filter, and a
    quotient whose class is there already ends the strip with None: the
    strip of a quotient is the rest of the strip that reached it, so the
    class was judged before with the outcome this strip would reach (see
    ``_new_invariant``).  ``_exp_images`` passes a set of its own."""
    while any(map(any, nf)):  # neither zero nor a constant
        lifted = f_ideal.lift_row(dict(nf), caps=q.caps)
        if lifted is None:
            break
        nf = q.ideal.reduce_row(lifted[0][0], caps=q.caps)[0]
        key = _monic_class(nf)
        if key in tried:
            return None
        tried.add(key)
    return nf


def essen_derksen(q: QuotientRing, certify_degree: int = 6) -> InvariantReport:
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
    termination certificate rests on the primary slice alone.  The peel
    reads each round's product span through a reach taken from the chain's
    own data: twice the highest degree among the starting generators (the
    minimalized exponential and slice images), at least ``certify_degree``,
    and one degree more after each round that keeps a generator from its top
    peeled degree, never above ``SATURATE_DEGREE``.  The reach decides only
    which candidates discovery sees; no verdict rests on it.  When that
    chain stabilizes and f is a non-zerodivisor the output generates the full
    invariant ring (Terminated); otherwise the honest status is CapReached
    with partial generators.

    The final certificate (``verify_generators``) reaches ``certify_degree``.
    Every Groebner computation of the chain runs under the ring's caps.
    Results are cached on disk when a cache is active, keyed by the full
    content of the quotient data, the certify degree, the chain's constants
    and the ring's caps.
    """
    config_values = [MAX_ROUNDS, certify_degree, min(certify_degree, MINE_DEGREE),
                     MAX_GENERATOR_DEGREE, MAX_SLICES, SATURATE_DEGREE,
                     q.caps.max_degree, q.caps.max_pairs, q.caps.max_basis]
    return cache_mod.cached(
        lambda: _ring_key(q, (q.derivation,), kind="essen-derksen", config=config_values),
        lambda: _essen_derksen_compute(q, certify_degree),
        lambda report: {
            "generators": [cache_mod.encode_poly(g) for g in report.generators],
            "certified_degree": report.certified_degree,
            "termination": report.termination,
            "notes": list(report.notes),
        },
        lambda stored: InvariantReport(
            tuple(cache_mod.decode_poly(q.table, blob) for blob in stored["generators"]),
            stored["certified_degree"], stored["termination"], tuple(stored["notes"])))


def _essen_derksen_compute(q: QuotientRing, certify_degree: int) -> InvariantReport:
    orbits = _variable_orbits(q)

    if not (q.homogeneous() and _keeps_degree(q.derivation)):
        # a degree-keeping D has no D(s) = 1, so only ungraded data get here
        s = _find_unit_slice(q)
        if s is None:
            raise ValueError("the invariant chain needs a homogeneous ideal with a "
                             "degree-preserving derivation, or a section s of degree "
                             f"at most {UNIT_SLICE_DEGREE} with D(s) = 1")
        gens = _dedup(_exp_images(q, orbits, s, q.table.one(), strip_f=False))
        note = (f"global section {format_poly(s)} with derivation one: the action is a "
                "trivial torsor and the exponential images generate the invariants")
        return InvariantReport(tuple(gens), 0, "Terminated", (note,))

    notes = []
    slices = _find_slices(q, orbits)
    if not slices:
        raise NoSliceError("no local slice: the induced action is trivial")
    # the primary slice: the first whose image is a non-zerodivisor, else the first
    s_name, f, nzd, f_ideal = next((entry for entry in slices if entry[2]), slices[0])

    if not nzd:
        gens = _dedup(_exp_images(q, orbits, q.table.var(s_name), f, strip_f=False)
                      + [f.monic(GREVLEX)])
        # localizing at a zerodivisor loses the components it kills, so the
        # chain cannot certify completeness; report partial generators only
        notes.append(f"slice image {format_poly(f)} is a zerodivisor modulo the ideal; "
                     "completeness cannot be certified")
        mine_degree = min(certify_degree, MINE_DEGREE)
        notes.append(f"generators mined from graded kernels through degree {mine_degree}")
        certified = _certify(q, gens, DegreeSpan(q, gens), (q.derivation,),
                             certify_degree, mine_degree)[1]
        return InvariantReport(tuple(gens), certified, "CapReached", tuple(notes))

    # distinct non-zerodivisor slice images, primary first
    divisors = [(s_name, f)]
    seen = {format_poly(f.monic(GREVLEX))}
    for name, image, ok, _ in slices:
        key = format_poly(image.monic(GREVLEX))
        if ok and key not in seen:
            seen.add(key)
            divisors.append((name, image))
    divisors = divisors[:MAX_SLICES]

    gens = []
    for name, image in divisors:
        gens.extend(_exp_images(q, orbits, q.table.var(name), image, strip_f=True))
        gens.append(image.monic(GREVLEX))
    gens, span = _minimalize(q, gens)
    # the peel's reach (see the docstring): the status comes from the
    # certificate round and the certified degree from verify_generators
    reach = min(SATURATE_DEGREE, max(certify_degree, 2 * max(g.degree() for g in gens)))

    # f is a form of degree one over a homogeneous ideal that does not contain
    # 1 (else no slice exists), so f is never invertible and (f) + I is proper
    status = "CapReached"
    tried = set()  # every candidate the chain's filter has judged
    try:
        for _round in range(MAX_ROUNDS):
            # cheap discovery: degreewise peeling by every slice image
            new, top = [], set()
            for cand in _peel_candidates(span, [image for _, image in divisors], reach):
                # a divisor is a variable, so peel degree d gives rows of degree d - 1
                from_top = sum(next(iter(cand))) + 1 == reach
                b = _new_invariant(q, cand, f_ideal, span, tried)
                if b is not None:
                    new.append(b)
                    if from_top:
                        top.add(b)
            if new:
                gens, span = _minimalize(q, gens + new)
                if any(g in top for g in gens):
                    reach = min(SATURATE_DEGREE, reach + 1)
                continue
            # discovery stabilized: run the full preimage certificate on the
            # primary slice
            new, skipped = _certificate_round(q, gens, span, f, f_ideal, tried)
            if not new:
                if skipped:
                    notes.append(
                        f"candidates above degree {MAX_GENERATOR_DEGREE} were skipped")
                    break
                status = "Terminated"
                break
            gens, span = _minimalize(q, gens + new)
        else:
            notes.append(f"round cap {MAX_ROUNDS} reached")
    except NotCompleted as exc:
        notes.append(f"resource cap hit: {exc.message}")
    certified = verify_generators(q, gens, certify_degree, span=span)[1]
    return InvariantReport(tuple(gens), certified, status, tuple(notes))


def _certificate_round(q: QuotientRing, gens: list, span: DegreeSpan, f: Polynomial,
                       f_ideal: Ideal, tried: set) -> tuple:
    """One full colon-by-f round through the tag-elimination preimage ideal.

    ``span`` is the product span of ``gens``, and the round only reads it:
    like the peel step, it returns its candidates, and ``_minimalize`` drops
    any that the others span.  ``tried`` is the chain's set of judged
    candidates.  An empty result certifies that the generated algebra is
    f-saturated, the stabilization condition of the intersection chain."""
    new = []
    ext, tags, graph = _graph_data(q, gens)
    relations = Ideal(ext, graph + [q.table.lift(f, ext)]).eliminate(tags, q.caps)
    weights = [u.degree() for u in gens]

    def predicted_degree(g: Polynomial) -> int:
        return max(sum(weights[i] * e for i, e in enumerate(m) if e)
                   for m in g.terms)

    tag_only = sorted(relations.gens, key=predicted_degree)
    low = [g for g in tag_only
           if predicted_degree(g) - f.degree() <= MAX_GENERATOR_DEGREE]
    skipped = len(low) != len(tag_only)
    # g at the generators is a subalgebra element of (f) + I
    at_gens = PolyMap(q.table, relations.table, gens)
    for g in low:
        w = q.nf(at_gens.pull(g))
        if not f_ideal.member(w, caps=q.caps):
            raise AssertionError("preimage element not divisible by the slice image")
        if w.is_zero():
            continue
        b = _new_invariant(q, integral(w.terms), f_ideal, span, tried)
        if b is not None:
            new.append(b)
    return new, skipped


def _monic_class(row: dict) -> frozenset:
    """The key of the scalar multiples of a nonzero integer term dict: the
    items of its primitive multiple (``primitive``)."""
    return frozenset(primitive(row).items())


def _new_invariant(q: QuotientRing, b: dict, f_ideal: Ideal, span: DegreeSpan,
                   tried: set) -> Polynomial | None:
    """The chain's candidate filter on integer term dicts: b (a nonzero
    integer normal form, consumed) with every slice-image factor stripped
    (``_strip_f`` through ``f_ideal``), as a monic polynomial, or None when
    that is a constant or already in ``span``.  The stripped row is a normal
    form, so the span reads it directly (``DegreeSpan.spans``), and a
    ``Polynomial`` is built only for a returned candidate.  Raises when a
    candidate it returns is not invariant, decided in integers as in
    ``_kernel_equations``: the row's image under an integer multiple of D
    (``_derive_row``) must reduce to zero, which holds iff D kills the
    candidate modulo the ideal.  The others are invariant already, as
    members of the invariant subalgebra.

    ``tried`` holds the class of every candidate and every strip quotient
    judged earlier in the same chain, and a repeat is None without any work;
    a strip that reaches a judged quotient ends there (``_strip_f``).  That
    is exact because stripping commutes with scalars, a quotient's strip is
    the rest of the strip that reached it, and the generated algebra only
    grows within a chain (``_minimalize`` keeps the algebra it is given and
    each round only adds generators): a class dropped before is still
    constant or in the span, and one returned before, whose class is in
    ``tried`` as the candidate's or its last quotient's, lies in the
    generated algebra once its round's ``_minimalize`` runs.  So ``tried``
    also drops a repeat of a candidate returned earlier in the round."""
    key = _monic_class(b)
    if key in tried:
        return None
    tried.add(key)
    b = _strip_f(q, b, f_ideal, tried)
    if b is None or span.spans(b):  # judged already, or zero, a constant or spanned
        return None
    lead = b[max(b, key=GREVLEX.key)]
    monic = {m: Fraction(c, lead) for m, c in b.items()}
    if q.ideal.reduce_row(_derive_row(_integer_images(q.derivation), b), caps=q.caps)[0]:
        raise AssertionError(
            f"chain candidate not invariant: {format_poly(Polynomial(q.table, monic))}")
    return Polynomial(q.table, monic)


def _minimalize(q: QuotientRing, gens: list) -> tuple:
    """(kept, span): the generators that do not lie in the subalgebra of the
    others, and the product span of the kept ones.

    Exact for homogeneous generators: membership of a degree-d element is
    decided inside the degree-d product span."""
    span = DegreeSpan(q, [])
    kept = [g for g in sorted(gens, key=lambda g: (g.degree(), poly_key(g))) if span.add(g)]
    return _dedup(kept), span


def _dedup(gens: list) -> list:
    # sorted by the printed form, so the order follows the table's naming:
    # a cox table lists the same generators in the order of their cox names
    seen = {}
    for g in gens:
        seen.setdefault(format_poly(g), g)
    return [seen[k] for k in sorted(seen)]


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
    the fixed locus, via ideal membership in both directions.  That is exact:
    each fixed generator is one of the list's, and each standard invariant
    lies in the linear ideal (x, b), so the two ideals are equal."""
    table = rep.table_tv()
    nullcone = Ideal(table, standard_sym1_invariants(rep))
    fixed = fixed_locus(rep)
    for g in fixed.gens:
        if not nullcone.member(g, caps=caps):
            return Verdict(False, (g,), ("fixed generator misses the nullcone",))
    for g in nullcone.gens:
        if not fixed.member(g, caps=caps):
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
    sol, null_dim = _solve_combination([d(p) for p in pairs], mu)
    if sol is None:
        raise AssertionError("section system is inconsistent")
    sigma = table.zero()
    for lam, p in zip(sol, pairs):
        sigma = sigma + lam * p
    residual = d(sigma) - mu
    if not residual.is_zero():
        raise AssertionError("section verification failed")
    return SectionSolution(tuple(sol), null_dim, sigma)
