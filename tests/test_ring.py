"""Ring arithmetic, checked exhaustively against bilinear expansion."""

import operator

import pytest

from epcodes import EpElem, elements
from oracles import all_elements, alpha, mul_e


def test_elements_enumerates_the_whole_ring():
    for p in (2, 3, 5, 7):
        elems = elements(p)
        assert len(elems) == p * p
        assert len(set(elems)) == p * p


def test_multiplication_matches_bilinear_expansion():
    # every product, expanded through the defining relations independently
    for p in (2, 3, 5):
        for a in elements(p):
            for b in elements(p):
                got = a * b
                assert (got.i, got.j) == mul_e(p, (a.i, a.j), (b.i, b.j))


def test_addition_is_componentwise():
    for p in (2, 3, 5):
        for a in elements(p):
            for b in elements(p):
                got = a + b
                assert (got.i, got.j) == ((a.i + b.i) % p, (a.j + b.j) % p)
                diff = a - b
                assert (diff.i, diff.j) == ((a.i - b.i) % p, (a.j - b.j) % p)
            assert a + -a == EpElem.zero(p)


def test_operands_must_be_elements_of_one_ring():
    r2, r3 = EpElem.r(2), EpElem.r(3)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="mixed characteristics"):
            op(r2, r3)
        with pytest.raises(TypeError, match="expected EpElem, got int"):
            op(r2, 1)
    # an int scales from the left; any other left operand is not a scalar
    assert 3 * r3 == EpElem.zero(3) and 5 * r2 == r2
    with pytest.raises(TypeError):
        1.0 * r2


def test_defining_relations():
    for p in (2, 3, 5, 7, 11, 13):
        r, s = EpElem.r(p), EpElem.s(p)
        assert r * r == r
        assert s * s == s
        assert r * s == r
        assert s * r == s
        assert p * r == EpElem.zero(p) == p * s


def test_ring_is_associative_and_distributive():
    for p in (2, 3):
        elems = elements(p)
        for a in elems:
            for b in elems:
                for c in elems:
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c
                    assert (a + b) * c == a * c + b * c


def test_no_two_sided_identity():
    # the ring is non-unital: nothing fixes every element from both sides
    for p in (2, 3):
        elems = elements(p)
        assert not any(
            all(e * x == x and x * e == x for x in elems) for e in elems
        )


def test_noncommutative():
    r, s = EpElem.r(2), EpElem.s(2)
    assert r * s != s * r


def test_t_annihilates_from_the_right():
    for p in (2, 3, 5):
        t = EpElem.t(p)
        assert t == EpElem.r(p) + (p - 1) * EpElem.s(p)
        for x in elements(p):
            assert x * t == EpElem.zero(p)
        assert t * EpElem.r(p) == t


def test_right_multiplication_is_alpha_scaling():
    for p in (2, 3, 5):
        for x in elements(p):
            for y in elements(p):
                assert x * y == y.alpha * x


def test_alpha_is_a_homomorphism():
    for p in (2, 3, 5):
        for a in elements(p):
            assert a.alpha == alpha(p, (a.i, a.j))
            for b in elements(p):
                assert (a + b).alpha == (a.alpha + b.alpha) % p
                assert (a * b).alpha == (a.alpha * b.alpha) % p


def test_maximal_ideal_is_the_alpha_kernel():
    for p in (2, 3, 5):
        for a in elements(p):
            assert a.in_max_ideal == (a.alpha == 0)


def test_t_adic_round_trip():
    """Every element splits uniquely as u*r + v*t with u = alpha."""
    for p in (2, 3, 5):
        for a in elements(p):
            u, v = a.t_adic()
            assert u == a.alpha
            assert EpElem.from_t_adic(u, v, p) == a
            assert u * EpElem.r(p) + v * EpElem.t(p) == a


def test_scale_matches_repeated_addition():
    for p in (2, 3):
        for a in elements(p):
            acc = EpElem.zero(p)
            for c in range(p):
                assert a.scale(c) == acc
                acc = acc + a


def test_token_round_trip():
    for p in (2, 3, 5, 7):
        for a in elements(p):
            assert EpElem.from_token(a.token, p) == a
            assert str(a) == a.token


def test_token_examples():
    assert EpElem.from_token("0", 3) == EpElem.zero(3)
    assert EpElem.from_token("r", 3) == EpElem.r(3)
    assert EpElem.from_token("2t", 3) == 2 * EpElem.t(3)
    # r + 2s is exactly t at p=3, so it parses and prints in t form
    assert EpElem.from_token("r+2s", 3) == EpElem.t(3)
    assert EpElem.t(3).token == "t"
    assert (2 * EpElem.t(3)).token == "2t"
    assert (EpElem.r(3) + EpElem.s(3)).token == "r+s"
    assert (EpElem.r(5) + 2 * EpElem.s(5)).token == "r+2s"


def _spellings(p):
    """Every token the grammar accepts at p, with its (i, j): each
    coefficient c in 1..p-1 is written as its digits, or left empty if 1."""
    coefs = [(str(c), c) for c in range(1, p)] + [("", 1)]
    out = {"0": (0, 0)}
    for text, c in coefs:
        out[f"{text}r"] = (c, 0)
        out[f"{text}s"] = (0, c)
        out[f"{text}t"] = (c, -c % p)
        for text2, d in coefs:
            out[f"{text}r+{text2}s"] = (c, d)
    return out


def test_token_language_is_exactly_the_listed_spellings():
    for p in (2, 3, 5, 7):
        spellings = _spellings(p)
        assert len(spellings) == 1 + 3 * p + p * p
        for text, (i, j) in spellings.items():
            assert EpElem.from_token(text, p) == EpElem(i, j, p), (p, text)
    assert len(_spellings(2)) == 11 and len(_spellings(3)) == 19
    assert EpElem.from_token(" r ", 3) == EpElem.r(3)
    for bad, p in (("01r", 3), ("0t", 3), ("r+0s", 3), ("r + s", 3), ("rr", 3)):
        with pytest.raises(ValueError):
            EpElem.from_token(bad, p)
    # an out-of-range coefficient is reported against its modulus
    for bad, p in (("3r", 3), ("13r", 13)):
        with pytest.raises(ValueError, match=f"p={p}"):
            EpElem.from_token(bad, p)


def test_token_rejects_junk():
    for bad in ("q", "3r", "rr", "r+", "", "r + s", "0r"):
        with pytest.raises(ValueError):
            EpElem.from_token(bad, 3)


def test_unsupported_modulus_rejected():
    for p in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            EpElem.zero(p)
    for i, j in ((3, 0), (0, 3), (-1, 0), (0, -2)):
        with pytest.raises(ValueError, match="coefficients must already be reduced"):
            EpElem(i, j, 3)
