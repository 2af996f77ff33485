"""The non-unital ring E_p = <r, s | pr = ps = 0, r2 = r, s2 = s, rs = r, sr = s>.

E_p has p^2 elements, written ir + js with coefficients mod p.  It is
noncommutative for every p, has no identity, and is local: the unique
maximal ideal is the two-sided ideal pF_p t generated by t = r + (p-1)s,
which squares to zero.  Every element decomposes uniquely as ur + vt,
and the coefficient u defines a surjective ring morphism alpha onto F_p.
Multiplication collapses to x * y = alpha(y) x, so right multiplication
by t kills everything while left multiplication by r fixes r-multiples.

Elements render to and parse from short tokens: ``0``, ``[c]r``,
``[c]s``, ``[c]t`` and ``[c]r+[d]s`` with coefficients in 1..p-1 (a
coefficient of 1 is omitted).  Pure multiples of t prefer the t form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .fp import validate_modulus

_TOKEN_RE = re.compile(
    r"^(?:0"
    r"|(?P<rc>\d*)r(?:\+(?P<sc2>\d*)s)?"
    r"|(?P<sc>\d*)s"
    r"|(?P<tc>\d*)t)$"
)


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
        validate_modulus(p)
        m = _TOKEN_RE.match(text.strip())
        if m is None:
            raise ValueError(f"not an element token: {text!r}")
        rc, sc2, sc, tc = m.group("rc", "sc2", "sc", "tc")
        if tc is not None:
            c = _coef_val(tc, p)
            return cls(c, -c % p, p)
        if sc is not None:
            return cls(0, _coef_val(sc, p), p)
        if rc is None:
            return cls.zero(p)
        return cls(_coef_val(rc, p), 0 if sc2 is None else _coef_val(sc2, p), p)


def _coef(c: int) -> str:
    return "" if c == 1 else str(c)


def _coef_val(text: str, p: int) -> int:
    if text == "":
        return 1
    if text.startswith("0") or not (1 <= int(text) < p):
        raise ValueError(f"coefficient {text!r} out of range for p={p}")
    return int(text)


def elements(p: int) -> list[EpElem]:
    """All p^2 elements, in (i, j) lexicographic order."""
    validate_modulus(p)
    return [EpElem(i, j, p) for i in range(p) for j in range(p)]
