"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials live over a fixed :class:`VariableTable` that records variable
names and their block (base coordinates ``x``, fiber coordinates ``alpha``,
and auxiliary parameters ``aux``).  Coefficients are ``fractions.Fraction``
throughout, monomials are plain exponent tuples, and every value is immutable
after construction, so objects can be shared freely between threads.

The module also houses the small amount of calculus the toolkit needs:
derivations (linear maps determined by variable images, extended by the
Leibniz rule) and polynomial maps given by one component per target variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, le, sub
from typing import Mapping, Sequence

Mono = tuple  # exponent vector aligned with a VariableTable

BLOCK_X = "x"
BLOCK_ALPHA = "alpha"
BLOCK_AUX = "aux"
_BLOCKS = (BLOCK_X, BLOCK_ALPHA, BLOCK_AUX)


class TableMismatch(ValueError):
    """Raised when two values over different variable tables are combined."""


def _as_scalar(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


@dataclass(frozen=True)
class VariableTable:
    """Ordered variable names with block tags.

    The order of the tuple fixes the variable order of the monomial orders:
    under GREVLEX position 0 is the largest variable, under LEX the last
    position is.  Block tags partition the sequence.
    """

    names: tuple
    blocks: tuple
    _index: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        names = tuple(self.names)
        blocks = tuple(self.blocks)
        if len(names) != len(blocks):
            raise ValueError("names and blocks must have equal length")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for b in blocks:
            if b not in _BLOCKS:
                raise ValueError(f"unknown block tag {b!r}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r} in table {self.names}") from None

    def positions(self, block: str) -> tuple:
        return tuple(i for i, b in enumerate(self.blocks) if b == block)

    def cotangent_pairs(self) -> tuple:
        """Positional base/fiber pairs (l-th x with l-th alpha variable)."""
        xs = self.positions(BLOCK_X)
        als = self.positions(BLOCK_ALPHA)
        if len(xs) != len(als):
            raise ValueError("x-block and alpha-block differ in size")
        return tuple(zip(xs, als))

    # -- constructors for values over this table --------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.scalar(1)

    def scalar(self, value) -> "Polynomial":
        c = _as_scalar(value)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * len(self.names): c})

    def var(self, name: str) -> "Polynomial":
        e = [0] * len(self.names)
        e[self.index(name)] = 1
        return Polynomial(self, {tuple(e): Fraction(1)})

    # -- derived tables ----------------------------------------------------

    def extend(self, new_names: Sequence, block: str = BLOCK_AUX) -> "VariableTable":
        return VariableTable(self.names + tuple(new_names), self.blocks + (block,) * len(tuple(new_names)))

    def subtable(self, keep: Sequence) -> "VariableTable":
        keep = tuple(keep)
        pos = [self.index(n) for n in keep]
        return VariableTable(tuple(self.names[i] for i in pos), tuple(self.blocks[i] for i in pos))

    def lift(self, poly: "Polynomial", target: "VariableTable") -> "Polynomial":
        """Re-express ``poly`` on ``target``, which must contain all its names."""
        if poly.table == target:
            return poly
        pos = [target.index(n) for n in poly.table.names]
        n = len(target.names)
        terms = {}
        for m, c in poly.terms.items():
            e = [0] * n
            for i, ei in enumerate(m):
                if ei:
                    e[pos[i]] = ei
            terms[tuple(e)] = c
        return Polynomial(target, terms)

    def project(self, poly: "Polynomial", target: "VariableTable") -> "Polynomial":
        """Re-express ``poly`` on a subtable; fails if other variables occur."""
        pos = {self.index(n): j for j, n in enumerate(target.names)}
        n = len(target.names)
        terms = {}
        for m, c in poly.terms.items():
            e = [0] * n
            for i, ei in enumerate(m):
                if not ei:
                    continue
                if i not in pos:
                    raise ValueError(f"polynomial mentions eliminated variable {self.names[i]}")
                e[pos[i]] = ei
            terms[tuple(e)] = c
        return Polynomial(target, terms)


# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(map(le, a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    return tuple(map(sub, a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def add_terms(out: dict, terms: Mapping, sign: int = 1) -> dict:
    """Add sign · ``terms`` into the term dict ``out`` and return it.  A
    monomial that ``out`` lacks is copied, so coefficients are added only
    where two terms meet; no zero coefficient is kept."""
    for m, c in terms.items():
        prev = out.get(m)
        if prev is None:
            out[m] = c if sign > 0 else -c
        else:
            s = prev + c if sign > 0 else prev - c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def mul_terms(a: Mapping, b: Mapping, out: dict | None = None) -> dict:
    """The product of two term dicts (monomial -> nonzero coefficient), with
    int or Fraction coefficients alike, added into ``out`` when given; no
    zero coefficient is kept."""
    if len(a) > len(b):
        a, b = b, a
    if out is None:
        out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            prev = out.get(m)
            s = c1 * c2 if prev is None else prev + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def partial_terms(terms: Mapping, pos: int) -> dict:
    """The derivative of a term dict along position ``pos``: c·m goes to
    c·m[pos]·(m − e_pos).  That map of monomials is injective, so no two
    terms meet and no coefficient cancels."""
    out = {}
    for m, c in terms.items():
        e = m[pos]
        if e:
            mm = list(m)
            mm[pos] = e - 1
            out[tuple(mm)] = c * e
    return out


def compose_terms(terms: Mapping, images: Mapping, width: int) -> dict:
    """The sum of c · rest(m) · ∏ images[i]^m[i] over the terms c·m, where
    ``images`` maps positions of m to term dicts of ``width`` variables and
    rest(m) keeps the positions it does not name (none when it names them
    all; m may then have another width, as in a pullback).  The powers of
    each image are built once per call, and every term's last product is
    added straight into the result by ``mul_terms``."""
    one = (0,) * width
    powers = {i: [{one: 1}, img] for i, img in images.items()}
    out = {}
    for m, c in terms.items():
        factors = []
        for i, pw in powers.items():
            e = m[i]
            if e:
                while len(pw) <= e:
                    pw.append(mul_terms(pw[-1], pw[1]))
                factors.append(pw[e])
        rest = one if len(powers) == len(m) else tuple(
            [0 if i in powers else e for i, e in enumerate(m)])
        acc = {rest: c}
        last = factors.pop() if factors else {one: 1}
        for f in factors:
            acc = mul_terms(acc, f)
        mul_terms(acc, last, out)
    return out


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """Total order on monomials, compatible with multiplication, 1 minimal.

    ``key(m)`` is a flat tuple of ints of one length per table, so keys
    compare lexicographically.  Every order here has a key linear in m, each
    entry of one sign, that gives every variable an entry of its own, so
    ``groebner.Packing`` can store a monomial as one int ordered by it."""

    def key(self, m: Mono):
        raise NotImplementedError

    def descriptor(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class GrevLex(MonomialOrder):
    """Graded reverse lexicographic order; ties in total degree go against the
    last table position, so position 0 is the largest variable (z1^2 > z2*z3,
    as in sympy's grevlex with the gens in table order)."""

    def key(self, m: Mono):
        return (sum(m), *[-e for e in reversed(m)])

    def descriptor(self) -> str:
        return "grevlex"


@dataclass(frozen=True)
class Lex(MonomialOrder):
    """Lexicographic order; later table positions are larger (sympy's lex
    with the gens in reverse table order)."""

    def key(self, m: Mono):
        return tuple(reversed(m))

    def descriptor(self) -> str:
        return "lex"


@dataclass(frozen=True)
class BlockElim(MonomialOrder):
    """Elimination (product) order: the dominant positions are compared
    first by grevlex, then the remaining positions by grevlex.  Any monomial
    involving a dominant variable beats every monomial that avoids them, so
    the order eliminates the dominant block.

    The key is grevlex on d, m at the dominant positions read last to first,
    then the GREVLEX key of all of m: once d ties, sum(m) compares like the
    degree of the other positions and the tied dominant entries compare
    equal, so that part orders like grevlex on the other positions."""

    dominant: tuple

    def __post_init__(self):
        object.__setattr__(self, "dominant", tuple(sorted(set(self.dominant))))

    def key(self, m: Mono):
        d = [m[i] for i in reversed(self.dominant)]
        return (sum(d), *[-e for e in d], sum(m), *[-e for e in reversed(m)])

    def descriptor(self) -> str:
        return "elim" + ",".join(str(i) for i in self.dominant)


GREVLEX = GrevLex()
LEX = Lex()


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Sparse exact polynomial: map from exponent tuple to nonzero Fraction."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VariableTable, terms: Mapping):
        clean = {}
        for m, c in terms.items():
            if type(c) is not Fraction:
                c = _as_scalar(c)
            if c:
                clean[m] = c
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.table != other.table:
            raise TableMismatch("polynomials over different variable tables")

    def _plus(self, other, sign: int):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.table.scalar(other)
        self._check(other)
        return Polynomial(self.table, add_terms(dict(self.terms), other.terms, sign))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _as_scalar(other)
            if c == 0:
                return self.table.zero()
            return Polynomial(self.table, {m: cc * c for m, cc in self.terms.items()})
        self._check(other)
        return Polynomial(self.table, mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.table.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.table.scalar(other)
        return self.terms == other.terms and self.table == other.table

    def __hash__(self):
        return hash((self.table.names, tuple(sorted(self.terms.items()))))

    # -- structure -----------------------------------------------------------

    def leading(self, order: MonomialOrder = GREVLEX) -> tuple:
        """(monomial, coefficient) of the largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.leading(order)
        return self * (Fraction(1) / c)

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def partial(self, pos: int) -> "Polynomial":
        return Polynomial(self.table, partial_terms(self.terms, pos))

    def evaluate(self, values: Mapping) -> Fraction:
        """Evaluate at a rational point given as name -> value (full support)."""
        point = [None] * len(self.table.names)
        for name, v in values.items():
            point[self.table.index(name)] = _as_scalar(v)
        total = Fraction(0)
        for m, c in self.terms.items():
            t = c
            for i, e in enumerate(m):
                if e:
                    if point[i] is None:
                        raise ValueError(f"no value for {self.table.names[i]}")
                    t *= point[i] ** e
            total += t
        return total

    def substitute(self, assignment: Mapping) -> "Polynomial":
        """Substitute polynomials (same table) or scalars for a subset of the
        variables."""
        width = len(self.table.names)
        images = {}
        for name, p in assignment.items():
            if isinstance(p, Polynomial):
                self._check(p)
                images[self.table.index(name)] = p.terms
            else:
                c = _as_scalar(p)
                images[self.table.index(name)] = {(0,) * width: c} if c else {}
        return Polynomial(self.table, compose_terms(self.terms, images, width))

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)})"


def format_mono(table: VariableTable, m: Mono) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(table.names[i])
        elif e > 1:
            parts.append(f"{table.names[i]}^{e}")
    return "*".join(parts)


def format_poly(p: Polynomial, order: MonomialOrder = GREVLEX) -> str:
    """Canonical human-readable form: terms descending in the given order,
    `^` powers, explicit `*`, rational coefficients as num/den."""
    if p.is_zero():
        return "0"
    chunks = []
    for m, c in p.sorted_terms(order):
        mono = format_mono(p.table, m)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def poly_key(p: Polynomial, order: MonomialOrder = GREVLEX) -> tuple:
    """Deterministic sort key for polynomial sequences."""
    return tuple((order.key(m), c.numerator, c.denominator) for m, c in p.sorted_terms(order))


# ---------------------------------------------------------------------------
# derivations


class Derivation:
    """Derivation of the polynomial ring, determined by variable images and
    extended by linearity and the Leibniz rule."""

    __slots__ = ("table", "images")

    def __init__(self, table: VariableTable, images: Mapping):
        imgs = {}
        for name, p in images.items():
            idx = table.index(name)
            if isinstance(p, (int, Fraction)):
                p = table.scalar(p)
            if p.table != table:
                raise TableMismatch("derivation image over wrong table")
            if not p.is_zero():
                imgs[idx] = p
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("Derivation is immutable")

    def image(self, name: str) -> Polynomial:
        return self.images.get(self.table.index(name), self.table.zero())

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.table != self.table:
            raise TableMismatch("derivation applied across tables")
        # the sum of (df/dv_i) * D(v_i), every product added into one dict
        out = {}
        for i, img in self.images.items():
            mul_terms(partial_terms(f.terms, i), img.terms, out)
        return Polynomial(self.table, out)

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.table != other.table:
            raise TableMismatch("derivations over different tables")
        images = {}
        for i in set(self.images) | set(other.images):
            name = self.table.names[i]
            images[name] = self.images.get(i, self.table.zero()) + other.images.get(i, self.table.zero())
        return Derivation(self.table, images)

    def __mul__(self, c) -> "Derivation":
        return Derivation(self.table, {self.table.names[i]: p * c for i, p in self.images.items()})

    __rmul__ = __mul__

    def bracket(self, other: "Derivation") -> "Derivation":
        """Commutator [self, other] as a derivation."""
        if self.table != other.table:
            raise TableMismatch("derivations over different tables")
        images = {}
        for name in self.table.names:
            v = self.table.var(name)
            images[name] = self(other(v)) - other(self(v))
        return Derivation(self.table, images)

    def __eq__(self, other):
        return isinstance(other, Derivation) and self.table == other.table and self.images == other.images

    def __repr__(self):
        body = ", ".join(f"{self.table.names[i]} -> {format_poly(p)}" for i, p in sorted(self.images.items()))
        return f"Derivation({body})"


# ---------------------------------------------------------------------------
# polynomial maps


class PolyMap:
    """Polynomial map source -> target, stored as one component per target
    variable, each a polynomial on the source table."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: VariableTable, target: VariableTable, components: Sequence):
        components = tuple(components)
        if len(components) != len(target.names):
            raise ValueError("one component per target variable required")
        comps = []
        for p in components:
            if isinstance(p, (int, Fraction)):
                p = source.scalar(p)
            if p.table != source:
                raise TableMismatch("component over wrong source table")
            comps.append(p)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", tuple(comps))

    def __setattr__(self, name, value):
        raise AttributeError("PolyMap is immutable")

    def component(self, name: str) -> Polynomial:
        return self.components[self.target.index(name)]

    def pull(self, f: Polynomial) -> Polynomial:
        """Pullback f -> f o self."""
        if f.table != self.target:
            raise TableMismatch("pullback of a function on the wrong table")
        images = dict(enumerate(c.terms for c in self.components))
        return Polynomial(self.source, compose_terms(f.terms, images, len(self.source.names)))

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """self o inner."""
        if inner.target != self.source:
            raise TableMismatch("composition across mismatched tables")
        return PolyMap(inner.source, self.target, [inner.pull(c) for c in self.components])

    @staticmethod
    def identity(table: VariableTable) -> "PolyMap":
        return PolyMap(table, table, [table.var(n) for n in table.names])

    def __eq__(self, other):
        return (isinstance(other, PolyMap) and self.source == other.source
                and self.target == other.target and self.components == other.components)

    def __repr__(self):
        body = ", ".join(f"{n} -> {format_poly(c)}" for n, c in zip(self.target.names, self.components))
        return f"PolyMap({body})"
