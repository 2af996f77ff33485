"""Linear codes over E_p and their structural invariants.

A left E_p-submodule C of E_p^n is determined by an ordered pair of
F_p codes: the residue R = alpha(C) and the torsion T = {b : tb in C},
with R contained in T.  Conversely any such pair yields the code
C = rR + tT = {ra + tb : a in R, b in T}, of size p^(2 m1 + m2) where
m1 = dim R and m2 = dim T - dim R.  :class:`EpCode` stores that pair and
derives everything else from it:

* left dual  (R^d, R^d)   -- annihilators z with <z, c> = 0 for c in C,
* right dual (T^d, F_p^n) -- annihilators z with <c, z> = 0,
* minimum distance d(C) = d(T), since supp(ra + tb) = supp(a) u supp(b),
* niceness, LCD, self-duality and Singleton-bound status.

Generator matrices are read and written in a plain text format: a header
line ``p=<prime> n=<length>``, then one row per line of whitespace
separated element tokens (see :mod:`epcodes.ring`).  ``#`` starts a
comment.  Codes serialize canonically as r times the residue RREF basis
followed by t times a complement basis of R in T.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .fp import FpCode, Mat, MdsStatus, Vec, validate_modulus
from .ring import EpElem

EpVec = tuple[EpElem, ...]


class ParseError(ValueError):
    """Malformed generator-matrix text; carries a line number and a kind.

    The kind is ``"syntax"`` for an unreadable header or entry, ``"ragged"``
    for a row with the wrong number of entries, and ``"params"`` for a
    header naming an unsupported modulus or length.
    """

    def __init__(self, message: str, line: int | None = None, kind: str = "syntax") -> None:
        self.line = line
        self.kind = kind
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


def decompose(row: Sequence[EpElem]) -> tuple[Vec, Vec]:
    """Split an E_p vector into its t-adic parts (a, b), row = ra + tb."""
    parts = [e.t_adic() for e in row]
    return tuple(u for u, _ in parts), tuple(v for _, v in parts)


def compose(a: Sequence[int], b: Sequence[int], p: int) -> EpVec:
    """Inverse of :func:`decompose`."""
    return tuple(EpElem.from_t_adic(u, v, p) for u, v in zip(a, b))


@dataclass(frozen=True)
class EpCode:
    """A left linear code over E_p, stored as its (residue, torsion) pair."""

    residue: FpCode
    torsion: FpCode

    def __post_init__(self) -> None:
        r, t = self.residue, self.torsion
        if (r.p, r.n) != (t.p, t.n):
            raise ValueError("residue and torsion live in different spaces")
        if not t.contains_code(r):
            raise ValueError("residue code must be contained in the torsion code")

    @classmethod
    def from_generators(cls, rows: Sequence[Sequence[EpElem]], p: int, n: int) -> "EpCode":
        """Smallest submodule of E_p^n containing the given vectors
        (:meth:`EpGenMatrix.code`)."""
        return EpGenMatrix(p, n, tuple(tuple(r) for r in rows)).code()

    @classmethod
    def free_code(cls, residue: FpCode) -> "EpCode":
        """The free code rG + tG generated by r times a basis of G."""
        return cls(residue, residue)

    @classmethod
    def zero(cls, p: int, n: int) -> "EpCode":
        return cls(FpCode.zero(p, n), FpCode.zero(p, n))

    @classmethod
    def full(cls, p: int, n: int) -> "EpCode":
        return cls(FpCode.full(p, n), FpCode.full(p, n))

    @classmethod
    def t_full(cls, p: int, n: int) -> "EpCode":
        """The code tF_p^n, the unique right self-dual code."""
        return cls(FpCode.zero(p, n), FpCode.full(p, n))

    # -- shape ----------------------------------------------------------------

    @property
    def p(self) -> int:
        return self.residue.p

    @property
    def n(self) -> int:
        return self.residue.n

    @property
    def m1(self) -> int:
        return self.residue.k

    @property
    def m2(self) -> int:
        return self.torsion.k - self.residue.k

    @property
    def cardinality_exp(self) -> int:
        """|C| = p ** cardinality_exp."""
        return 2 * self.m1 + self.m2

    @property
    def is_free(self) -> bool:
        return self.residue == self.torsion

    def is_zero(self) -> bool:
        return self.torsion.is_zero()

    def codewords(self) -> Iterator[EpVec]:
        """All p^(2 m1 + m2) codewords ra + tb."""
        p = self.p
        for a in self.residue.codewords():
            for b in self.torsion.codewords():
                yield compose(a, b, p)

    def subset_of(self, other: "EpCode") -> bool:
        return other.residue.contains_code(self.residue) and other.torsion.contains_code(
            self.torsion
        )

    def intersect(self, other: "EpCode") -> "EpCode":
        return EpCode(
            self.residue.intersect(other.residue), self.torsion.intersect(other.torsion)
        )

    # -- duality ----------------------------------------------------------------

    @cached_property
    def left_dual(self) -> "EpCode":
        """{z : <z, c> = 0 for all c in C}.  Depends only on the residue:
        <z, ra + tb> = sum a_j z_j, so both t-adic parts of z must lie in R^d."""
        rd = self.residue.dual
        return EpCode(rd, rd)

    @cached_property
    def right_dual(self) -> "EpCode":
        """{z : <c, z> = 0 for all c in C}.  Depends only on the torsion:
        <c, z> = r(u.a) + t(u.b) for u = alpha(z), so u ranges over T^d
        while the t-part of z is unconstrained."""
        return EpCode(self.torsion.dual, FpCode.full(self.p, self.n))

    @property
    def is_left_nice(self) -> bool:
        return self.cardinality_exp + self.left_dual.cardinality_exp == 2 * self.n

    @property
    def is_right_nice(self) -> bool:
        return self.cardinality_exp + self.right_dual.cardinality_exp == 2 * self.n

    @property
    def is_lcd(self) -> bool:
        """Left nice with trivial left hull; equivalently free with LCD residue."""
        return self.is_left_nice and self.intersect(self.left_dual).is_zero()

    @property
    def is_left_self_dual(self) -> bool:
        return self == self.left_dual

    @property
    def is_right_self_dual(self) -> bool:
        return self == self.right_dual

    @property
    def is_self_dual(self) -> bool:
        """C equals the intersection of its one-sided duals."""
        return self == self.left_dual.intersect(self.right_dual)

    @property
    def is_qsd(self) -> bool:
        """Quasi self-dual: contained in both duals, with |C| = p^n."""
        return (
            self.cardinality_exp == self.n
            and self.subset_of(self.left_dual)
            and self.subset_of(self.right_dual)
        )

    # -- metrics ----------------------------------------------------------------

    @property
    def min_distance(self) -> int | None:
        """Minimum Hamming weight, None for the zero code.  Equals d(T)."""
        return self.torsion.min_distance

    @property
    def mds_status(self) -> MdsStatus:
        """Singleton status over E_p: |C| <= p^(2(n-d+1)), MDS at equality,
        AMDS one step below."""
        d = self.min_distance
        if d is None:
            return MdsStatus.NEITHER
        if self.cardinality_exp == 2 * (self.n - d + 1):
            return MdsStatus.MDS
        if self.cardinality_exp == 2 * (self.n - d):
            return MdsStatus.AMDS
        return MdsStatus.NEITHER

    # -- serialization ------------------------------------------------------------

    def torsion_complement(self) -> Mat:
        """A deterministic basis of the torsion modulo the residue."""
        acc = self.residue
        comp: list[Vec] = []
        for row in self.torsion.basis:
            red = acc.reduce(row)
            if any(red):
                comp.append(red)
                acc = FpCode.from_rows(self.p, acc.basis + (red,), self.n)
        return tuple(comp)

    def generator_matrix(self) -> "EpGenMatrix":
        """Canonical generators: r * (residue basis), then t * (complement)."""
        p, n = self.p, self.n
        r1 = EpElem.r(p)
        t1 = EpElem.t(p)
        rows = [tuple(a * r1 for a in row) for row in self.residue.basis]
        rows += [tuple(b * t1 for b in row) for row in self.torsion_complement()]
        return EpGenMatrix(p, n, tuple(rows))


@dataclass(frozen=True)
class EpGenMatrix:
    """A matrix of E_p elements, the exchange format for codes."""

    p: int
    n: int
    rows: tuple[EpVec, ...]

    def __post_init__(self) -> None:
        validate_modulus(self.p)
        if self.n < 1:
            raise ValueError("length must be positive")
        for row in self.rows:
            if len(row) != self.n:
                raise ValueError(
                    f"ragged generator matrix: generator of length {len(row)}, expected {self.n}"
                )
            for e in row:
                if e.p != self.p:
                    raise ValueError("entry over the wrong ring")

    @classmethod
    def from_token_rows(cls, p: int, token_rows: Sequence[str], n: int | None = None) -> "EpGenMatrix":
        """Build from rows like ``"r 0 2t"``; length inferred if omitted."""
        rows = []
        for text in token_rows:
            rows.append(tuple(EpElem.from_token(tok, p) for tok in text.split()))
        if n is None:
            if not rows:
                raise ValueError("cannot infer length from an empty matrix")
            n = len(rows[0])
        return cls(p, n, tuple(rows))

    @classmethod
    def parse(cls, text: str) -> "EpGenMatrix":
        """Parse the text format (header line, then token rows)."""
        header: tuple[int, int] | None = None
        rows: list[EpVec] = []
        header_line = 0
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                m = re.match(r"^p=(\d+)\s+n=(\d+)$", line)
                if m is None:
                    raise ParseError("expected header 'p=<prime> n=<length>'", lineno)
                p, n = int(m.group(1)), int(m.group(2))
                try:
                    validate_modulus(p)
                except ValueError as exc:
                    raise ParseError(str(exc), lineno, "params") from None
                if n < 1:
                    raise ParseError("length must be positive", lineno, "params")
                header = (p, n)
                header_line = lineno
                continue
            p, n = header
            tokens = line.split()
            if len(tokens) != n:
                raise ParseError(f"expected {n} entries, got {len(tokens)}", lineno, "ragged")
            try:
                rows.append(tuple(EpElem.from_token(tok, p) for tok in tokens))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
        if header is None:
            raise ParseError("missing header 'p=<prime> n=<length>'")
        return cls(header[0], header[1], tuple(rows))

    def to_text(self) -> str:
        return "\n".join([f"p={self.p} n={self.n}", *self.token_rows()]) + "\n"

    def token_rows(self) -> list[str]:
        return [" ".join(e.token for e in row) for row in self.rows]

    def code(self) -> EpCode:
        """Smallest submodule of E_p^n containing the rows.

        Decomposing each generator as ra + tb, the closure has residue
        span{a} and torsion span{a} + span{b}: left-multiplying by r and
        t projects a generator onto ra and ta respectively, so both the
        a-parts and b-parts land in the torsion.
        """
        a_rows, b_rows = [], []
        for row in self.rows:
            a, b = decompose(row)
            a_rows.append(a)
            b_rows.append(b)
        residue = FpCode.from_rows(self.p, a_rows, self.n)
        return EpCode(residue, FpCode.from_rows(self.p, a_rows + b_rows, self.n))
