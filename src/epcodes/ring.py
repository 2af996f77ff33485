"""The non-unital ring E_p = <r, s | pr = ps = 0, r2 = r, s2 = s, rs = r, sr = s>.

E_p has p^2 elements, written ir + js with coefficients mod p.  It is
noncommutative for every p, has no identity, and is local: the unique
maximal ideal is the two-sided ideal pF_p t generated by t = r + (p-1)s,
which squares to zero.  Every element decomposes uniquely as ur + vt,
and the coefficient u defines a surjective ring morphism alpha onto F_p.
Multiplication collapses to x * y = alpha(y) x, so right multiplication
by t kills everything while left multiplication by r fixes r-multiples.

Elements render to and parse from short tokens: ``0``, ``[c]r``,
``[c]s``, ``[c]t`` and ``[c]r+[d]s`` with coefficients in 1..p-1.
Rendering omits a coefficient of 1 and writes pure multiples of t in the
t form.  Parsing also accepts an explicit ``1`` and the ``r+s`` spelling
of a multiple of t (``r+2s`` is t at p=3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fp import validate_modulus


@dataclass(frozen=True)
class EpElem:
    """An element i*r + j*s of E_p, with 0 <= i, j < p."""

    i: int
    j: int
    p: int

    def __post_init__(self) -> None:
        validate_modulus(self.p)
        if not (0 <= self.i < self.p and 0 <= self.j < self.p):
            raise ValueError("coefficients must already be reduced mod p")

    # -- distinguished elements -------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "EpElem":
        return cls(0, 0, p)

    @classmethod
    def r(cls, p: int) -> "EpElem":
        return cls(1, 0, p)

    @classmethod
    def s(cls, p: int) -> "EpElem":
        return cls(0, 1, p)

    @classmethod
    def t(cls, p: int) -> "EpElem":
        # t = r + (p-1)s generates the maximal ideal; t*t = 0.
        return cls(1, p - 1, p)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "EpElem") -> None:
        if not isinstance(other, EpElem):
            raise TypeError(f"expected EpElem, got {type(other).__name__}")
        if other.p != self.p:
            raise ValueError("mixed characteristics")

    def __add__(self, other: "EpElem") -> "EpElem":
        self._check(other)
        return EpElem((self.i + other.i) % self.p, (self.j + other.j) % self.p, self.p)

    def __neg__(self) -> "EpElem":
        return EpElem(-self.i % self.p, -self.j % self.p, self.p)

    def __sub__(self, other: "EpElem") -> "EpElem":
        return self + (-other)

    def __mul__(self, other: "EpElem") -> "EpElem":
        # The defining relations force x * y = alpha(y) * x.
        self._check(other)
        return self.scale(other.alpha)

    def scale(self, c: int) -> "EpElem":
        """Action of the scalar c in F_p."""
        c %= self.p
        return EpElem((c * self.i) % self.p, (c * self.j) % self.p, self.p)

    def __rmul__(self, c: int) -> "EpElem":
        if not isinstance(c, int):
            return NotImplemented
        return self.scale(c)

    def __bool__(self) -> bool:
        return bool(self.i or self.j)

    # -- structure ----------------------------------------------------------

    @property
    def alpha(self) -> int:
        """The morphism alpha(ur + vt) = u, i.e. i + j mod p."""
        return (self.i + self.j) % self.p

    def t_adic(self) -> tuple[int, int]:
        """The unique (u, v) with self = u*r + v*t."""
        return self.alpha, (-self.j) % self.p

    @classmethod
    def from_t_adic(cls, u: int, v: int, p: int) -> "EpElem":
        u %= p
        v %= p
        return cls((u + v) % p, (-v) % p, p)

    @property
    def in_max_ideal(self) -> bool:
        """True iff the element is a multiple of t (alpha vanishes)."""
        return self.alpha == 0

    # -- tokens ---------------------------------------------------------------

    @property
    def token(self) -> str:
        i, j, p = self.i, self.j, self.p
        if not (i or j):
            return "0"
        if j == 0:
            return _coef(i) + "r"
        if i == 0:
            return _coef(j) + "s"
        if j == (-i) % p:
            return _coef(i) + "t"
        return f"{_coef(i)}r+{_coef(j)}s"

    def __str__(self) -> str:
        return self.token

    @classmethod
    def from_token(cls, text: str, p: int) -> "EpElem":
        """Parse one grammar token; raises ValueError on bad input."""
        elem = _token_table(p).get(text.strip())
        if elem is None:
            raise ValueError(f"not an element token for p={p}: {text!r}")
        return elem


def _coef(c: int) -> str:
    return "" if c == 1 else str(c)


@lru_cache(maxsize=None)
def _token_table(p: int) -> dict[str, EpElem]:
    """Every token the grammar accepts at p, mapped to its element."""
    validate_modulus(p)
    # each coefficient c in 1..p-1 is written as its digits, or left empty if 1
    coefs = [(str(c), c) for c in range(1, p)] + [("", 1)]
    table = {"0": EpElem.zero(p)}
    for text, c in coefs:
        table[f"{text}r"] = EpElem(c, 0, p)
        table[f"{text}s"] = EpElem(0, c, p)
        table[f"{text}t"] = EpElem(c, -c % p, p)
        for text2, d in coefs:
            table[f"{text}r+{text2}s"] = EpElem(c, d, p)
    return table


def elements(p: int) -> list[EpElem]:
    """All p^2 elements, in (i, j) lexicographic order."""
    validate_modulus(p)
    return [EpElem(i, j, p) for i in range(p) for j in range(p)]
