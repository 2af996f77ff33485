"""Linear algebra over F_p against span-based brute force."""

import math
import random

import pytest

from epcodes import FpCode, MdsStatus, fp, gaussian_binomial, iter_subspaces, rref
from epcodes.fp import (
    iter_pivot_patterns,
    iter_self_orthogonal_with_pivots,
    iter_subspaces_with_pivots,
)
from oracles import brute_fp_dual, fp_span


def _random_rows(rng, p, n, k):
    return [tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)]


def test_from_rows_preserves_the_row_space():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(60):
            n = rng.randint(1, 5)
            rows = _random_rows(rng, p, n, rng.randint(0, n + 1))
            c = FpCode.from_rows(p, rows, n)
            assert fp_span(p, c.basis, n) == fp_span(p, rows, n)
            assert len(c.basis) == c.k
            # any iterable will do, consumed once, with or without n
            assert FpCode.from_rows(p, iter(rows), n) == c
            if rows:
                assert FpCode.from_rows(p, (row for row in rows)) == c


def test_rref_is_idempotent_with_unit_pivots():
    rng = random.Random(12)
    for p in (2, 3, 5):
        for _ in range(40):
            n = rng.randint(1, 5)
            mat = _random_rows(rng, p, n, rng.randint(1, n))
            basis, pivots = rref(p, mat)
            if basis:
                assert rref(p, basis) == (basis, pivots)
            for row, piv in zip(basis, pivots):
                assert row[piv] == 1
                # pivot columns are cleared everywhere else
                assert all(other[piv] == 0 for other in basis if other is not row)


def test_contains_matches_span_membership():
    rng = random.Random(13)
    for p in (2, 3):
        for _ in range(30):
            n = rng.randint(1, 4)
            c = FpCode.from_rows(p, _random_rows(rng, p, n, rng.randint(0, n)), n)
            span = fp_span(p, c.basis, n)
            from itertools import product
            for v in product(range(p), repeat=n):
                assert c.contains(v) == (v in span)
            for wrong in ((0,) * (n - 1), (0,) * (n + 1)):
                with pytest.raises(ValueError, match="vector of wrong length"):
                    c.reduce(wrong)


def test_codewords_are_exactly_the_span():
    rng = random.Random(14)
    for p in (2, 3):
        for _ in range(20):
            n = rng.randint(1, 4)
            c = FpCode.from_rows(p, _random_rows(rng, p, n, rng.randint(0, n)), n)
            assert set(c.codewords()) == fp_span(p, c.basis, n)


def test_dual_matches_brute_force_exhaustively():
    # every subspace of F_p^n for n <= 3
    for p in (2, 3):
        for n in (1, 2, 3):
            for c in iter_subspaces(p, n):
                want = brute_fp_dual(p, n, fp_span(p, c.basis, n))
                assert fp_span(p, c.dual.basis, n) == want
                assert c.dual.dual == c
                assert c.dual.k == n - c.k


def test_weight_enumerator_counts_directly():
    rng = random.Random(15)
    codes = []
    for p in (2, 3, 5):
        for _ in range(25):
            n = rng.randint(1, 5)
            codes.append(FpCode.from_rows(p, _random_rows(rng, p, n, rng.randint(0, n)), n))
    # the zero codes, and F_2^10, whose 2^10 words need 2-byte packed fields
    codes += [FpCode.zero(p, 4) for p in (2, 3, 5)] + [FpCode.full(2, 10)]
    for c in codes:
        direct = [0] * (c.n + 1)
        for w in fp_span(c.p, c.basis, c.n):
            direct[sum(1 for x in w if x)] += 1
        assert list(c.weight_enumerator) == direct
    assert FpCode.full(2, 10).weight_enumerator == tuple(math.comb(10, w) for w in range(11))


def test_weight_profile_of_full_and_zero_codes_is_closed_form():
    # p^k on both sides of the 8-bit and 16-bit limits of the count fields
    for p, n in ((2, 7), (2, 8), (2, 16), (3, 6), (13, 3)):
        profile = FpCode.full(p, n).weight_profile()
        column = (0,) + tuple(math.comb(n - 1, w - 1) * (p - 1) ** w for w in range(1, n + 1))
        assert profile == (column,) * n
    for p in fp.SUPPORTED_PRIMES:
        assert FpCode.zero(p, 3).weight_profile() == ((0,) * 4,) * 3
    # 2^64 words: no count field is wide enough, and no enumeration starts
    with pytest.raises(ValueError, match="too many codewords"):
        FpCode.full(2, 64).weight_profile()


def test_weight_profile_builds_no_codeword_tuples(monkeypatch):
    rng = random.Random(17)
    codes = [FpCode.from_rows(p, _random_rows(rng, p, 4, 3), 4) for p in (3, 5, 13)]
    spans = [fp_span(c.p, c.basis, c.n) for c in codes]

    def no_codewords(self):
        raise AssertionError("codewords() was called")

    monkeypatch.setattr(FpCode, "codewords", no_codewords)
    for c, span in zip(codes, spans):
        direct = [[0] * (c.n + 1) for _ in range(c.n)]
        enumerator = [0] * (c.n + 1)
        for word in span:
            wt = sum(1 for v in word if v)
            enumerator[wt] += 1
            for j, v in enumerate(word):
                direct[j][wt] += v != 0
        assert c.weight_profile() == tuple(map(tuple, direct))
        assert c.weight_enumerator == tuple(enumerator)


def test_min_distance_is_the_least_nonzero_weight():
    rng = random.Random(16)
    for p in (2, 3):
        for _ in range(40):
            n = rng.randint(1, 5)
            c = FpCode.from_rows(p, _random_rows(rng, p, n, rng.randint(0, n)), n)
            weights = sorted(
                sum(1 for x in w if x) for w in fp_span(p, c.basis, n) if any(w)
            )
            assert c.min_distance == (weights[0] if weights else None)


def test_zero_code_has_no_distance():
    z = FpCode.zero(3, 4)
    assert z.k == 0 and z.is_zero()
    assert z.min_distance is None
    assert z.mds_status is MdsStatus.NEITHER


def test_lcd_iff_trivial_hull():
    for p in (2, 3):
        for n in (1, 2, 3):
            for c in iter_subspaces(p, n):
                span = fp_span(p, c.basis, n)
                hull = span & brute_fp_dual(p, n, span)
                assert c.is_lcd == (len(hull) == 1)
                assert p ** c.intersect(c.dual).k == len(hull)
                assert (c.gram_det() != 0) == c.is_lcd


def test_self_orthogonal_and_self_dual_definitional():
    for p in (2, 3):
        for n in (1, 2, 3, 4):
            for c in iter_subspaces(p, n):
                span = fp_span(p, c.basis, n)
                dual = brute_fp_dual(p, n, span)
                assert c.is_self_orthogonal == (span <= dual)
                assert c.is_self_dual == (span == dual)


def test_intersect_matches_set_intersection():
    rng = random.Random(17)
    for _ in range(40):
        p = rng.choice((2, 3))
        n = rng.randint(1, 4)
        a = FpCode.from_rows(p, _random_rows(rng, p, n, rng.randint(0, n)), n)
        b = FpCode.from_rows(p, _random_rows(rng, p, n, rng.randint(0, n)), n)
        want = fp_span(p, a.basis, n) & fp_span(p, b.basis, n)
        assert fp_span(p, a.intersect(b).basis, n) == want
    for other in (FpCode.full(2, 3), FpCode.full(3, 2)):
        for op in (FpCode.intersect, FpCode.contains_code):
            with pytest.raises(ValueError, match="codes live in different spaces"):
                op(FpCode.full(2, 2), other)


def test_mds_status_follows_the_singleton_gap():
    for p in (2, 3):
        for n in (1, 2, 3, 4):
            for c in iter_subspaces(p, n):
                d = c.min_distance
                if d is None:
                    assert c.mds_status is MdsStatus.NEITHER
                elif c.k == n - d + 1:
                    assert c.mds_status is MdsStatus.MDS
                elif c.k == n - d:
                    assert c.mds_status is MdsStatus.AMDS
                else:
                    assert c.mds_status is MdsStatus.NEITHER


def test_iter_subspaces_counts_match_gaussian_binomials():
    for p in (2, 3):
        for n in (1, 2, 3, 4):
            seen = list(iter_subspaces(p, n))
            assert len(seen) == len(set(seen))
            for k in range(n + 1):
                count = sum(1 for c in seen if c.k == k)
                assert count == gaussian_binomial(n, k, p)
            assert gaussian_binomial(n, -1, p) == gaussian_binomial(n, n + 1, p) == 0
    assert gaussian_binomial(6, 3, 2) == 1395


def test_enumerated_codes_equal_fully_checked_codes():
    # the walk checks each pivot pattern's template once and skips the
    # RREF checks for the rest; rebuilding through the checks must agree
    for p, max_n in ((2, 5), (3, 4)):
        for n in range(1, max_n + 1):
            for k in range(n + 1):
                for pivots in iter_pivot_patterns(n, k):
                    for code in iter_subspaces_with_pivots(p, n, pivots):
                        checked = FpCode(p, n, code.basis, code.pivots)
                        assert code == checked and hash(code) == hash(checked)
                        assert FpCode.from_rows(p, code.basis, n) == code
    # the template still goes through the checks
    with pytest.raises(ValueError):
        list(iter_subspaces_with_pivots(4, 2, (0,)))


def test_self_orthogonal_walk_equals_the_filtered_enumeration():
    for p, max_n in ((2, 8), (3, 6)):
        for n in range(1, max_n + 1):
            for k in range(n // 2 + 1):
                for pivots in iter_pivot_patterns(n, k):
                    walked = list(iter_self_orthogonal_with_pivots(p, n, pivots))
                    assert len(walked) == len(set(walked))
                    filtered = {
                        c for c in iter_subspaces_with_pivots(p, n, pivots) if c.is_self_orthogonal
                    }
                    assert set(walked) == filtered
                    for code in walked:
                        checked = FpCode(p, n, code.basis, code.pivots)
                        assert code == checked and hash(code) == hash(checked)
    # the template still goes through the checks
    with pytest.raises(ValueError):
        list(iter_self_orthogonal_with_pivots(4, 2, (0,)))


def _self_dual_count(p, n):
    return sum(
        1
        for pivots in iter_pivot_patterns(n, n // 2)
        for _ in iter_self_orthogonal_with_pivots(p, n, pivots)
    )


def test_self_dual_counts_match_the_closed_forms():
    # Pless (1965): prod_{i=1}^{n/2-1} (2^i + 1) binary self-dual codes of
    # even length n, and 2 prod_{i=1}^{n/2-1} (3^i + 1) ternary ones for n = 0 mod 4
    for n in (2, 4, 6, 8, 10):
        assert _self_dual_count(2, n) == math.prod(2**i + 1 for i in range(1, n // 2))
    for n in (4, 8):
        assert _self_dual_count(3, n) == 2 * math.prod(3**i + 1 for i in range(1, n // 2))
    # -1 is not a square mod 3, so no ternary self-dual code has n = 2 mod 4
    assert _self_dual_count(3, 6) == 0


def test_iter_subspaces_dims_filter():
    dims = [1, 3]
    seen = list(iter_subspaces(2, 4, dims))
    assert {c.k for c in seen} == set(dims)
    assert len(seen) == gaussian_binomial(4, 1, 2) + gaussian_binomial(4, 3, 2)


def test_length_must_be_positive():
    with pytest.raises(ValueError):
        FpCode.from_rows(2, [], 0)
    for empty in ([], (), iter([])):
        with pytest.raises(ValueError, match="cannot infer length"):
            FpCode.from_rows(2, empty)


def test_unsupported_modulus_rejected():
    with pytest.raises(ValueError):
        FpCode.from_rows(4, [(1, 0)], 2)


@pytest.mark.parametrize(
    "p, n, basis, pivots",
    [
        (2, 2, ((1, 5),), (0,)),  # an entry not reduced mod p
        (3, 2, ((1, -1),), (0,)),  # a negative entry
        (2, 2, ((1, 1),), (1,)),  # the wrong pivot column
        (2, 2, ((1, 1), (0,)), (0, 1)),  # a ragged row
        (2, 3, ((0, 1, 0), (1, 0, 0)), (1, 0)),  # rows out of order
        (2, 2, ((1, 1), (0, 1)), (0, 1)),  # an entry above a pivot
        (4, 2, ((1, 0),), (0,)),  # no field
        (2, 0, (), ()),  # no length
    ],
)
def test_constructor_rejects_a_basis_that_is_not_its_own_rref(p, n, basis, pivots):
    with pytest.raises(ValueError):
        FpCode(p, n, basis, pivots)


def test_from_rows_row_reduces_once_and_skips_the_check(monkeypatch):
    # the basis of from_rows is rref's own output, so re-checking it is waste
    calls = []
    real = fp.rref

    def counting(*args):
        calls.append(args)
        return real(*args)

    def refuse(self):
        raise AssertionError("from_rows re-checked its basis")

    monkeypatch.setattr(fp, "rref", counting)
    monkeypatch.setattr(FpCode, "__post_init__", refuse)
    code = FpCode.from_rows(3, [(1, 2, 0), (2, 1, 0), (0, 0, 4)], 3)
    assert len(calls) == 1 and code.basis == ((1, 2, 0), (0, 0, 1))
    assert FpCode.from_rows(2, [(1, 5)], 2).basis == ((1, 1),)
    with pytest.raises(ValueError, match="length must be positive"):
        FpCode.from_rows(2, [], -1)
