"""Representation bookkeeping for linear additive-group actions.

A representation is a multiset of irreducible pieces ``sym k`` (dimension
k+1).  The module builds the coordinate tables for T*V and T*W (W = V + one
extra standard 2-dimensional piece with reserved names u, v, lam, eta), the
three standard infinitesimal sl2 derivations, and the Jordan decomposition
of an arbitrary nilpotent matrix into this normal form.  The actions are read
off the derivations: the one-parameter unipotent action and its cotangent
lift are the exponential exp(c * E) of the E derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .poly import BLOCK_ALPHA, BLOCK_X, Derivation, PolyMap, VariableTable


class RepSpecError(ValueError):
    """Malformed representation specification; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class GaRep:
    """Multiset of sym^k summands, stored sorted descending, with the naming
    of its coordinates: ``std`` or ``cox`` (see ``x_name``)."""

    summands: tuple
    naming: str = "std"

    def __post_init__(self):
        ks = tuple(sorted((int(k) for k in self.summands), reverse=True))
        if not ks:
            raise ValueError("a representation needs at least one summand")
        if any(k < 0 for k in ks):
            raise ValueError("summand indices must be non-negative")
        if self.naming not in ("std", "cox"):
            raise ValueError(f"unknown naming {self.naming!r}")
        if self.naming == "cox" and (any(k > 1 for k in ks) or all(k == 0 for k in ks)):
            raise ValueError("cox naming applies to sums of sym1 (plus trivial) summands")
        object.__setattr__(self, "summands", ks)

    @property
    def dim(self) -> int:
        return sum(k + 1 for k in self.summands)

    @property
    def is_trivial(self) -> bool:
        return all(k == 0 for k in self.summands)

    @property
    def multiplicity(self) -> int:
        return len(self.summands)

    def spec(self) -> str:
        parts = []
        i = 0
        ks = self.summands
        while i < len(ks):
            j = i
            while j < len(ks) and ks[j] == ks[i]:
                j += 1
            mult = j - i
            parts.append(f"sym{ks[i]}" + (f"^{mult}" if mult > 1 else ""))
            i = j
        return "+".join(parts)

    # -- naming ------------------------------------------------------------

    def _single(self) -> bool:
        return len(self.summands) == 1

    def x_name(self, j: int, i: int) -> str:
        """Base coordinate i of summand j (both 1-based): ``x<i>`` for a single
        summand, else ``x<j>_<i>``.  Cox naming calls a sym1 summand's pair
        ``y<j>, x<j>`` (the blow-up coordinates); sym0 summands keep theirs."""
        if self.naming == "cox" and self.summands[j - 1] == 1:
            return f"{'yx'[i - 1]}{j}"
        return f"x{i}" if self._single() else f"x{j}_{i}"

    def a_name(self, j: int, i: int) -> str:
        """Fiber partner of ``x_name(j, i)``: ``a`` in place of ``x``; cox
        naming calls a sym1 summand's pair ``b<j>, a<j>``."""
        if self.naming == "cox" and self.summands[j - 1] == 1:
            return f"{'ba'[i - 1]}{j}"
        return f"a{i}" if self._single() else f"a{j}_{i}"

    # -- tables ------------------------------------------------------------

    def _coordinates(self) -> tuple:
        """(base names, fiber names), each in table order."""
        slots = [(j + 1, i + 1) for j, k in enumerate(self.summands) for i in range(k + 1)]
        return [self.x_name(j, i) for j, i in slots], [self.a_name(j, i) for j, i in slots]

    def table_v(self) -> VariableTable:
        xs, _ = self._coordinates()
        return VariableTable(tuple(xs), (BLOCK_X,) * len(xs))

    def table_tv(self) -> VariableTable:
        xs, als = self._coordinates()
        return VariableTable(tuple(xs + als), (BLOCK_X,) * len(xs) + (BLOCK_ALPHA,) * len(als))

    def table_tw(self) -> VariableTable:
        xs, als = self._coordinates()
        names = xs + ["u", "v"] + als + ["lam", "eta"]
        blocks = (BLOCK_X,) * (len(xs) + 2) + (BLOCK_ALPHA,) * (len(als) + 2)
        return VariableTable(tuple(names), blocks)


def parse_rep(text: str) -> GaRep:
    """Parse a representation spec: ``sym<k>`` terms joined by ``+`` with an
    optional ``^<mult>``, e.g. ``sym1^2+sym3``; whitespace is ignored."""
    stripped = []
    positions = []
    for i, ch in enumerate(text):
        if not ch.isspace():
            stripped.append(ch)
            positions.append(i)
    s = "".join(stripped)

    def err(msg: str, pos: int):
        original = positions[pos] if pos < len(positions) else len(text)
        raise RepSpecError(msg, original)

    summands = []
    i = 0
    if not s:
        err("empty representation spec", 0)
    while True:
        if not s.startswith("sym", i):
            err("expected 'sym<k>'", i)
        i += 3
        j = i
        while j < len(s) and s[j].isdigit():
            j += 1
        if j == i:
            err("expected an integer after 'sym'", i)
        k = int(s[i:j])
        i = j
        mult = 1
        if i < len(s) and s[i] == "^":
            i += 1
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            if j == i:
                err("expected an integer multiplicity after '^'", i)
            mult = int(s[i:j])
            if mult < 1:
                err("multiplicity must be positive", i)
            i = j
        summands.extend([k] * mult)
        if i == len(s):
            break
        if s[i] != "+":
            err("expected '+' between summands", i)
        i += 1
        if i == len(s):
            err("trailing '+'", i)
    return GaRep(tuple(summands))


# ---------------------------------------------------------------------------
# actions


def _exp_action(d: Derivation, target: VariableTable) -> PolyMap:
    """exp(c * d) on the variables of ``target``: v -> sum_n c^n/n! d^n(v).
    The sum is finite because d is nilpotent on linear forms.  ``target`` may
    be a subtable of d's table that d maps into itself (V inside T*V)."""
    ext = d.table.extend(["c"])
    source = target.extend(["c"])
    c = ext.var("c")
    comps = []
    for name in target.names:
        power, coeff, comp, n = d.table.var(name), ext.one(), ext.zero(), 0
        while not power.is_zero():  # coeff = c^n / n!
            comp = comp + coeff * d.table.lift(power, ext)
            n += 1
            power, coeff = d(power), coeff * c * Fraction(1, n)
        comps.append(ext.project(comp, source))
    return PolyMap(source, target, comps)


def ga_action(rep: GaRep) -> PolyMap:
    """Unipotent one-parameter action on V: exp(c * E) on the base
    coordinates.  At c = 0 it is the identity."""
    return _exp_action(sl2_infinitesimal(rep, "E"), rep.table_v())


def cotangent_lift(rep: GaRep) -> PolyMap:
    """Lift of the action to T*V: exp(c * E) with E acting on the fiber
    block as the negated transpose, i.e. by rho(c)^{-1} on the right."""
    return _exp_action(sl2_infinitesimal(rep, "E"), rep.table_tv())


_SL2_BASES = ("H", "E", "F")


def _sl2_images(k: int, basis: str, xs: list, als: list, table: VariableTable) -> dict:
    """Images of one summand's variables under the chosen sl2 basis element,
    including the dual (negated transpose) action on the fiber block."""
    images = {}
    n = k + 1
    xv = [table.var(name) for name in xs]
    av = [table.var(name) for name in als]
    for i in range(n):
        if basis == "H":
            w = k - 2 * i
            images[xs[i]] = w * xv[i]
            images[als[i]] = -w * av[i]
        elif basis == "E":
            images[xs[i]] = (k - i) * xv[i + 1] if i + 1 < n else table.zero()
            images[als[i]] = -(k + 1 - i) * av[i - 1] if i >= 1 else table.zero()
        elif basis == "F":
            images[xs[i]] = i * xv[i - 1] if i >= 1 else table.zero()
            images[als[i]] = -(i + 1) * av[i + 1] if i + 1 < n else table.zero()
        else:
            raise ValueError(f"unknown sl2 basis element {basis!r}")
    return images


def sl2_infinitesimal(rep: GaRep, basis: str, table: VariableTable | None = None,
                      include_w: bool = False) -> Derivation:
    """Derivation of the sl2 basis element on T*V (or T*W with include_w)."""
    if basis not in _SL2_BASES:
        raise ValueError(f"basis must be one of {_SL2_BASES}")
    if table is None:
        table = rep.table_tw() if include_w else rep.table_tv()
    images = {}
    for j, k in enumerate(rep.summands):
        xs = [rep.x_name(j + 1, i + 1) for i in range(k + 1)]
        als = [rep.a_name(j + 1, i + 1) for i in range(k + 1)]
        images.update(_sl2_images(k, basis, xs, als, table))
    if include_w:
        images.update(_sl2_images(1, basis, ["u", "v"], ["lam", "eta"], table))
    return Derivation(table, images)


def ga_derivation(rep: GaRep, table: VariableTable | None = None) -> Derivation:
    """Infinitesimal generator of the additive action on T*V (the E element)."""
    return sl2_infinitesimal(rep, "E", table)


def verify_sl2_brackets(rep: GaRep, include_w: bool = False) -> bool:
    """Structural constants of the three derivations.

    Acting on functions reverses composition, so the commutators realize the
    bracket with swapped arguments: [D_E, D_H] = 2 D_E, [D_F, D_H] = -2 D_F,
    [D_F, D_E] = D_H.
    """
    h = sl2_infinitesimal(rep, "H", include_w=include_w)
    e = sl2_infinitesimal(rep, "E", include_w=include_w)
    f = sl2_infinitesimal(rep, "F", include_w=include_w)
    return (e.bracket(h) == 2 * e) and (f.bracket(h) == (-2) * f) and (f.bracket(e) == h)


# ---------------------------------------------------------------------------
# Jordan decomposition of a nilpotent matrix


@dataclass(frozen=True)
class NilpotentInput:
    """Square rational matrix required to be nilpotent (checked)."""

    matrix: tuple

    def __post_init__(self):
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.matrix)
        n = len(rows)
        if n == 0:
            raise ValueError("matrix must be non-empty")
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "matrix", rows)
        # an n x n matrix is nilpotent iff its n-th power is zero
        if any(x for r in _mat_power(rows, n) for x in r):
            raise ValueError("matrix is not nilpotent")

    @property
    def size(self) -> int:
        return len(self.matrix)


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def _mat_power(a, d: int):
    n = len(a)
    acc = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    for _ in range(d):
        acc = _mat_mul(acc, a)
    return acc


def _mat_vec(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def jordan_decompose(nil: NilpotentInput) -> tuple:
    """(rep, P) with P^-1 N P the block sum of the standard superdiagonal
    matrices with entries k, k-1, ..., 1 (the E normal form).

    The block multiset comes from the rank filtration; chains are built from
    the top of each block and rescaled so that N maps the basis exactly onto
    the normal-form images.
    """
    n = nil.size
    ranks = []
    d = 0
    while True:
        power = linalg.SparseEchelon()
        for row in _mat_power(nil.matrix, d):
            power.insert(_dense_to_sparse(row))
        ranks.append(len(power))
        if ranks[-1] == 0:
            break
        d += 1
    depth = len(ranks) - 1  # smallest d with N^d = 0 (1 for the zero matrix)
    # number of blocks of size >= s equals rank(N^{s-1}) - rank(N^s)
    block_counts = {}
    for s in range(1, depth + 1):
        ge_s = ranks[s - 1] - ranks[s]
        gt_s = (ranks[s] - ranks[s + 1]) if s + 1 < len(ranks) else 0
        count = ge_s - gt_s
        if count:
            block_counts[s] = count
    sizes = sorted((s for s, c in block_counts.items() for _ in range(c)), reverse=True)
    rep = GaRep(tuple(s - 1 for s in sizes))

    def nvec(v):
        return _mat_vec(nil.matrix, v)

    chains = []
    for s in sizes:
        # candidate top w: independent of ker N^{s-1} plus the vectors of
        # height >= s already produced by longer chains
        blockers = linalg.SparseEchelon()
        for v in _kernel_of_power(nil.matrix, s - 1):
            blockers.insert(v)
        for chain in chains:
            for idx, vec in enumerate(chain):
                if len(chain) - idx >= s:
                    blockers.insert(_dense_to_sparse(vec))
        top = next((v for v in _kernel_of_power(nil.matrix, s) if blockers.insert(v)), None)
        if top is None:
            raise AssertionError("rank data and chain search disagree")
        chain = [[top.get(i, Fraction(0)) for i in range(n)]]
        for _ in range(s - 1):
            chain.append(nvec(chain[-1]))
        chains.append(chain)

    columns = []
    for chain, s in zip(chains, sizes):
        # basis b_i = N^(s-i) w / (s-i)! gives N b_(i+1) = (s-i) b_i
        for i in range(1, s + 1):
            j = s - i
            scale = Fraction(1)
            for t in range(1, j + 1):
                scale /= t
            columns.append([x * scale for x in chain[j]])

    p_matrix = [[columns[j][i] for j in range(n)] for i in range(n)]
    return rep, tuple(tuple(r) for r in p_matrix)


def standard_nilpotent_matrix(rep: GaRep) -> tuple:
    """Block sum of the superdiagonal (k, k-1, ..., 1) normal forms."""
    n = rep.dim
    mat = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for k in rep.summands:
        for i in range(k):
            mat[offset + i][offset + i + 1] = Fraction(k - i)
        offset += k + 1
    return tuple(tuple(r) for r in mat)


def _dense_to_sparse(v) -> dict:
    return {i: x for i, x in enumerate(v) if x != 0}


def _kernel_of_power(matrix, d: int) -> list:
    """Sparse basis of ker N^d: the unique reduced echelon kernel, self-checked."""
    return linalg.sparse_nullspace([_dense_to_sparse(r) for r in _mat_power(matrix, d)],
                                   len(matrix))
