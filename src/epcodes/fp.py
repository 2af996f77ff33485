"""Exact linear algebra over small prime fields F_p.

Vectors are tuples of ints reduced mod p, matrices are tuples of such
tuples.  Everything is computed with exact integer arithmetic; no floats
anywhere.  An :class:`FpCode` stores the unique reduced row echelon basis
of its row space, so two codes are equal iff they are the same subspace.

Supported moduli are the primes up to 13.  Weights are counted once, by
:meth:`FpCode.weight_profile`, on words packed into ints with one field per
coordinate: spanned by XOR at p=2 and by packed addition with a per-field
reduction mod p otherwise, so no codeword is built as a tuple.
"""

from __future__ import annotations

import enum
import itertools
import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)

# (item size in bytes, array typecode), narrowest first: the count fields of
# FpCode.weight_profile
_COUNT_ITEMS = sorted({array(t).itemsize: t for t in "QLIHB"}.items())


def validate_modulus(p: int) -> None:
    """Reject moduli outside the supported prime range."""
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"modulus must be one of {SUPPORTED_PRIMES}, got {p!r}")


@lru_cache(maxsize=None)
def inverse_table(p: int) -> Vec:
    """Multiplicative inverses mod p; index 0 is unused (set to 0)."""
    validate_modulus(p)
    return (0,) + tuple(pow(v, p - 2, p) for v in range(1, p))


def vec_add(x: Vec, y: Vec, p: int) -> Vec:
    return tuple((a + b) % p for a, b in zip(x, y))


def vec_scale(c: int, x: Vec, p: int) -> Vec:
    c %= p
    return tuple((c * a) % p for a in x)


def vec_dot(x: Vec, y: Vec, p: int) -> int:
    return sum(a * b for a, b in zip(x, y)) % p


def rref(p: int, rows: Iterable[Sequence[int]], n: int | None = None) -> tuple[Mat, Vec]:
    """Reduced row echelon form over F_p.

    Args:
        p: prime modulus.
        rows: matrix rows, arbitrary ints (reduced mod p here).
        n: row length; inferred from the first row when omitted.

    Returns:
        (basis, pivots): the nonzero RREF rows and their pivot columns,
        both as tuples.  The zero matrix yields ((), ()).
    """
    validate_modulus(p)
    work = [[int(v) % p for v in row] for row in rows]
    if n is None:
        n = len(work[0]) if work else 0
    for row in work:
        if len(row) != n:
            raise ValueError(f"ragged matrix: expected {n} columns, got {len(row)}")
    inv = inverse_table(p)
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        pivot_row = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        head = inv[work[rank][col]]
        if head != 1:
            work[rank] = [(head * v) % p for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                c = work[i][col]
                work[i] = [(a - c * b) % p for a, b in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
    basis = tuple(tuple(row) for row in work[:rank])
    return basis, tuple(pivots)


class MdsStatus(enum.Enum):
    """Singleton-bound classification of a code's parameters."""

    MDS = "MDS"
    AMDS = "AMDS"
    NEITHER = "NEITHER"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class FpCode:
    """A linear code over F_p, stored by its RREF generator basis.

    The basis is canonical for the row space, so ``==`` and ``hash``
    compare subspaces.  ``basis`` may be empty (the zero code).
    """

    p: int
    n: int
    basis: Mat
    pivots: Vec = field(default=())

    def __post_init__(self) -> None:
        validate_modulus(self.p)
        if self.n < 1:
            raise ValueError("length must be positive")
        # the RREF of a span is unique, so a basis in RREF is its own RREF
        if rref(self.p, self.basis, self.n) != (self.basis, self.pivots):
            raise ValueError("basis is not in reduced row echelon form")

    @classmethod
    def from_rows(cls, p: int, rows: Iterable[Sequence[int]], n: int | None = None) -> "FpCode":
        """Build the code spanned by the iterable ``rows`` (need not be independent);
        its basis is :func:`rref`'s own output, so it takes :func:`_unchecked`."""
        if n is None:
            rows = list(rows)
            if not rows:
                raise ValueError("cannot infer length from an empty generating set")
            n = len(rows[0])
        basis, pivots = rref(p, rows, n)
        if n < 1:
            raise ValueError("length must be positive")
        return _unchecked(p, n, basis, pivots)

    @classmethod
    def zero(cls, p: int, n: int) -> "FpCode":
        return cls(p, n, (), ())

    @classmethod
    def full(cls, p: int, n: int) -> "FpCode":
        eye = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls(p, n, eye, tuple(range(n)))

    @property
    def k(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def reduce(self, vec: Sequence[int]) -> Vec:
        """Residue of ``vec`` modulo the row space (zero iff member)."""
        p = self.p
        v = [int(a) % p for a in vec]
        if len(v) != self.n:
            raise ValueError("vector of wrong length")
        for row, piv in zip(self.basis, self.pivots):
            c = v[piv]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    def contains_code(self, other: "FpCode") -> bool:
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("codes live in different spaces")
        return all(self.contains(row) for row in other.basis)

    def codewords(self) -> Iterator[Vec]:
        """Yield all p^k codewords (the zero word first)."""
        p, n = self.p, self.n
        words: list[Vec] = [(0,) * n]
        for row in self.basis:
            scaled = [vec_scale(c, row, p) for c in range(1, p)]
            words = [vec_add(w, s, p) for s in [(0,) * n] + scaled for w in words]
        return iter(words)

    def weight_profile(self) -> tuple[Vec, ...]:
        """Per coordinate j, the number of codewords of each weight 0..n
        that are nonzero at j.  Summed over j, the tuples give w * A_w for
        each weight w.

        Every word lives in one int with one byte-aligned field per
        coordinate, of the narrowest array item size that holds p^k.  A
        support has a 1 in each field where the word is nonzero, so the sum
        of the supports of one weight is that weight's n counts at once, and
        no count overflows: it is below p^k.  At p=2 a word is its support
        and the packed rows span the words by XOR.  At odd p a field holds a
        value v < p in its low f = p.bit_length() + 1 bits, and the words are
        spanned by adding the p - 1 packed multiples of each row.  A sum s <
        2p is reduced mod p by adding 2^(f-1) - p to every field, which sets
        the flag bit f - 1 exactly where s >= p, and subtracting p there;
        adding 2^(f-1) - 1 instead flags exactly the nonzero values, which
        is the support.  Neither carries out of a field, because s + 2^(f-1)
        - p <= p - 2 + 2^(f-1) < 2^f, and f <= 5 bits fit the narrowest field.
        """
        p, n = self.p, self.n
        fits = [item for item in _COUNT_ITEMS if p**self.k < 1 << 8 * item[0]]
        if not fits:
            raise ValueError(f"too many codewords to count: {p}^{self.k}")
        size, typecode = fits[0]
        units = [1 << (8 * size * j) for j in range(n)]
        if p == 2:
            supports = [0]
            for row in self.basis:
                packed = sum(u for u, v in zip(units, row) if v)
                supports += [s ^ packed for s in supports]
        else:
            top = p.bit_length()  # the flag bit, f - 1
            ones = sum(units)
            flags, wrap, nonzero = ones << top, ((1 << top) - p) * ones, ((1 << top) - 1) * ones
            words = [0]
            for row in self.basis:
                multiples = [sum(c * v % p * u for u, v in zip(units, row)) for c in range(1, p)]
                words += [
                    (t := w + m) - (((t + wrap) & flags) >> top) * p
                    for m in multiples
                    for w in words
                ]
            supports = [((w + nonzero) & flags) >> top for w in words]
        totals = [0] * (n + 1)
        for s in supports:
            totals[s.bit_count()] += s
        counts = array(typecode, b"".join(t.to_bytes(n * size, "little") for t in totals))
        if sys.byteorder == "big":
            counts.byteswap()
        # n counts per weight, transposed to n + 1 counts per coordinate
        return tuple(zip(*zip(*[iter(counts)] * n)))

    @cached_property
    def weight_enumerator(self) -> Vec:
        """Coefficient tuple (A_0, ..., A_n) of the weight enumerator, read
        off the weight profile: a word of weight w is nonzero at w coordinates."""
        by_weight = list(zip(*self.weight_profile()))
        return (1,) + tuple(sum(by_weight[w]) // w for w in range(1, self.n + 1))

    @cached_property
    def min_distance(self) -> int | None:
        """Minimum nonzero weight, or None for the zero code."""
        if self.is_zero():
            return None
        we = self.weight_enumerator
        return next(w for w in range(1, self.n + 1) if we[w])

    @cached_property
    def dual(self) -> "FpCode":
        """The Euclidean dual code."""
        p, n = self.p, self.n
        pivot_set = set(self.pivots)
        rows = []
        for free in range(n):
            if free in pivot_set:
                continue
            v = [0] * n
            v[free] = 1
            for row, piv in zip(self.basis, self.pivots):
                v[piv] = (-row[free]) % p
            rows.append(v)
        return FpCode.from_rows(p, rows, n)

    def intersect(self, other: "FpCode") -> "FpCode":
        """Intersection of row spaces, via duality: (A^d + B^d)^d."""
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("codes live in different spaces")
        summed = FpCode.from_rows(self.p, self.dual.basis + other.dual.basis, self.n)
        return summed.dual

    def gram_det(self) -> int:
        """det(G G^T) mod p for the RREF basis G (1 for the zero code)."""
        p, k = self.p, self.k
        gram = [[vec_dot(a, b, p) for b in self.basis] for a in self.basis]
        inv = inverse_table(p)
        det = 1
        for col in range(k):
            pivot_row = next((i for i in range(col, k) if gram[i][col]), None)
            if pivot_row is None:
                return 0
            if pivot_row != col:
                gram[col], gram[pivot_row] = gram[pivot_row], gram[col]
                det = (-det) % p
            det = (det * gram[col][col]) % p
            head = inv[gram[col][col]]
            for i in range(col + 1, k):
                if gram[i][col]:
                    c = (gram[i][col] * head) % p
                    gram[i] = [(a - c * b) % p for a, b in zip(gram[i], gram[col])]
        return det % p

    @property
    def is_lcd(self) -> bool:
        """True iff the hull is trivial (det(G G^T) != 0)."""
        return self.gram_det() != 0

    @property
    def is_self_orthogonal(self) -> bool:
        """True iff the basis rows are pairwise orthogonal, each to itself too."""
        basis, p = self.basis, self.p
        return all(vec_dot(a, b, p) == 0 for i, a in enumerate(basis) for b in basis[i:])

    @property
    def is_self_dual(self) -> bool:
        return 2 * self.k == self.n and self.is_self_orthogonal

    @property
    def mds_status(self) -> MdsStatus:
        """Singleton-bound status; the zero code is NEITHER."""
        d = self.min_distance
        if d is None:
            return MdsStatus.NEITHER
        if self.k == self.n - d + 1:
            return MdsStatus.MDS
        if self.k == self.n - d:
            return MdsStatus.AMDS
        return MdsStatus.NEITHER


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    assert num % den == 0
    return num // den


def iter_pivot_patterns(n: int, k: int) -> Iterator[Vec]:
    """All strictly increasing pivot column patterns, in lex order."""
    return iter(itertools.combinations(range(n), k))


def _pattern_rows(p: int, n: int, pivots: Vec) -> list[list[Vec]]:
    """Every filling of each RREF row of a pivot pattern, in lex order.

    Entry (i, j) is free iff j > pivots[i] and j is not itself a pivot
    column, so every filling is in RREF by construction.  Only the pattern's
    template (the pivots' unit entries, zeros elsewhere) goes through the
    ``FpCode`` constructor, which rejects a bad modulus or length and pivots
    out of order; the codes built from these rows take the trusted path
    :func:`_unchecked`.
    """
    pivot_set = set(pivots)
    template = [[0] * n for _ in pivots]
    for i, piv in enumerate(pivots):
        template[i][piv] = 1
    FpCode(p, n, tuple(tuple(row) for row in template), pivots)
    rows = []
    for i, piv in enumerate(pivots):
        free = [j for j in range(piv + 1, n) if j not in pivot_set]
        fillings = []
        for values in itertools.product(range(p), repeat=len(free)):
            for j, v in zip(free, values):
                template[i][j] = v
            fillings.append(tuple(template[i]))
        rows.append(fillings)
    return rows


def _unchecked(p: int, n: int, basis: Mat, pivots: Vec) -> FpCode:
    """The trusted path, for a basis in RREF by construction: the output of
    :func:`rref` or a filling of a checked pattern (:func:`_pattern_rows`)."""
    code = object.__new__(FpCode)  # the frozen fields, without __post_init__
    code.__dict__.update(p=p, n=n, basis=basis, pivots=pivots)
    return code


def iter_subspaces_with_pivots(p: int, n: int, pivots: Vec) -> Iterator[FpCode]:
    """Yield every subspace of F_p^n whose RREF has the given pivots.

    RREF matrices are parameterized exactly by their free entries, so the
    matrices are emitted directly in reduced form, no elimination: one
    filling of each row (:func:`_pattern_rows`) per subspace, built on the
    trusted path :func:`_unchecked`.

    The LCD census walks this and keeps the codes that pass ``is_lcd``; the
    self-dual censuses walk :func:`iter_self_orthogonal_with_pivots`.
    """
    pivots = tuple(pivots)
    for basis in itertools.product(*_pattern_rows(p, n, pivots)):
        yield _unchecked(p, n, basis, pivots)


def iter_self_orthogonal_with_pivots(p: int, n: int, pivots: Vec) -> Iterator[FpCode]:
    """Yield every self-orthogonal subspace of F_p^n with the given pivots.

    A backtracking walk over the RREF rows of the pattern, filled from the
    last row (fewest free entries) to the first: a row is kept only if it is
    isotropic and orthogonal to every row already chosen.  Any subset of the
    rows of a self-orthogonal basis spans a self-orthogonal code, so a
    rejected row ends its branch, and the walk emits exactly the
    self-orthogonal codes with this pattern, each once, on the trusted path
    :func:`_unchecked`.

    The left-self-dual census walks the patterns of dimension n/2 and the
    self-dual census those of every dimension up to n/2.
    """
    pivots = tuple(pivots)
    # each row's isotropic fillings; orthogonality is checked during the walk
    options = [[r for r in rows if vec_dot(r, r, p) == 0] for rows in _pattern_rows(p, n, pivots)]
    chosen: list[Vec] = [()] * len(pivots)

    def fill(i: int) -> Iterator[FpCode]:
        if i < 0:
            yield _unchecked(p, n, tuple(chosen), pivots)
            return
        below = chosen[i + 1:]
        for row in options[i]:
            if all(vec_dot(row, other, p) == 0 for other in below):
                chosen[i] = row
                yield from fill(i - 1)

    yield from fill(len(pivots) - 1)


def iter_subspaces(p: int, n: int, dims: Sequence[int] | None = None) -> Iterator[FpCode]:
    """Yield all subspaces of F_p^n (of the given dimensions, if any)."""
    validate_modulus(p)
    for k in dims if dims is not None else range(n + 1):
        for pivots in iter_pivot_patterns(n, k):
            yield from iter_subspaces_with_pivots(p, n, pivots)
