"""Codes over E_p against definition-level brute force at tiny lengths."""

import random
from itertools import product

import pytest

from epcodes import (
    EpCode,
    EpElem,
    EpGenMatrix,
    FpCode,
    MdsStatus,
    ParseError,
    compose,
    decompose,
    elements,
    iter_subspaces,
)
from oracles import (
    ZERO,
    brute_left_dual,
    brute_right_dual,
    closure,
    embed_r,
    embed_t,
    fp_span,
    pair_words,
    residue_of,
    torsion_of,
    weight,
)


def _pairs(p, n):
    """Every code of length n as a (residue, torsion) pair."""
    for torsion in iter_subspaces(p, n):
        if torsion.k == 0:
            yield EpCode(FpCode.zero(p, n), torsion)
            continue
        for coords in iter_subspaces(p, torsion.k):
            rows = [
                tuple(
                    sum(c * torsion.basis[j][col] for j, c in enumerate(row)) % p
                    for col in range(n)
                )
                for row in coords.basis
            ]
            yield EpCode(FpCode.from_rows(p, rows, n), torsion)


def _words(code):
    return {tuple((e.i, e.j) for e in w) for w in code.codewords()}


# the non-free pair from the worked example: equivalent residues, but the
# codes differ in their number of weight-1 words
B_CODE = EpCode(
    FpCode.from_rows(2, [(1, 1, 0)]), FpCode.from_rows(2, [(1, 0, 0), (0, 1, 0)])
)
C_CODE = EpCode(
    FpCode.from_rows(2, [(1, 0, 1)]), FpCode.from_rows(2, [(1, 0, 1), (0, 1, 0)])
)


def test_worked_example_pair():
    for code, res, tor in (
        (B_CODE, {(0, 0, 0), (1, 1, 0)}, {(0, 0, 0), (1, 1, 0), (0, 1, 0), (1, 0, 0)}),
        (C_CODE, {(0, 0, 0), (1, 0, 1)}, {(0, 0, 0), (1, 0, 1), (0, 1, 0), (1, 1, 1)}),
    ):
        assert not code.is_free
        assert code.m1 == 1 and code.m2 == 1
        assert len(_words(code)) == 8
        assert set(code.residue.codewords()) == res
        assert set(code.torsion.codewords()) == tor
    b_ones = sum(1 for w in _words(B_CODE) if weight(w) == 1)
    c_ones = sum(1 for w in _words(C_CODE) if weight(w) == 1)
    assert (b_ones, c_ones) == (2, 1)
    # d(C) = 1 even though the residue code has distance 2
    assert B_CODE.min_distance == 1
    assert B_CODE.residue.min_distance == 2


def test_codewords_match_the_pair_construction():
    for p, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        for code in _pairs(p, n):
            want = pair_words(p, code.residue.basis, code.torsion.basis, n)
            assert _words(code) == want
            assert len(want) == p ** code.cardinality_exp


def test_residue_and_torsion_are_definitional():
    for p, n in ((2, 2), (2, 3), (3, 2)):
        for code in _pairs(p, n):
            words = _words(code)
            assert set(code.residue.codewords()) == residue_of(p, words)
            assert set(code.torsion.codewords()) == torsion_of(p, n, words)


def test_from_generators_equals_two_sided_closure():
    rng = random.Random(31)
    elems = [(e.i, e.j) for e in elements(2)]
    # exhaustive single generators at p=2, n=2
    cases = [[v] for v in product(elems, repeat=2)]
    for _ in range(40):
        n = rng.choice((2, 3))
        count = rng.randint(1, 2)
        cases.append(
            [tuple(rng.choice(elems) for _ in range(n)) for _ in range(count)]
        )
    for gens in cases:
        n = len(gens[0])
        rows = [[EpElem(i, j, 2) for (i, j) in g] for g in gens]
        code = EpCode.from_generators(rows, 2, n)
        assert _words(code) == closure(2, n, gens)


def test_from_generators_closure_ternary():
    rng = random.Random(32)
    elems = [(e.i, e.j) for e in elements(3)]
    for _ in range(25):
        n = rng.choice((2, 3))
        gens = [tuple(rng.choice(elems) for _ in range(n)) for _ in range(rng.randint(1, 2))]
        rows = [[EpElem(i, j, 3) for (i, j) in g] for g in gens]
        code = EpCode.from_generators(rows, 3, n)
        assert _words(code) == closure(3, n, gens)


def test_left_and_right_duals_are_definitional():
    for p, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)):
        for code in _pairs(p, n):
            words = _words(code)
            assert _words(code.left_dual) == brute_left_dual(p, n, words)
            assert _words(code.right_dual) == brute_right_dual(p, n, words)


def test_qsd_and_self_dual_coincide():
    for p, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)):
        for code in _pairs(p, n):
            assert code.is_qsd == code.is_self_dual
            if code.is_self_dual:
                assert code.cardinality_exp == n


def test_no_nonzero_code_is_right_lcd():
    for p, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        for code in _pairs(p, n):
            hull = code.intersect(code.right_dual)
            if code.is_zero():
                assert hull.is_zero()
            else:
                assert not hull.is_zero()


def test_min_distance_is_the_least_codeword_weight():
    for p, n in ((2, 1), (2, 2), (2, 3), (3, 2)):
        for code in _pairs(p, n):
            weights = sorted(weight(w) for w in _words(code) if any(x != ZERO for x in w))
            assert code.min_distance == (weights[0] if weights else None)
            if code.is_free and not code.is_zero():
                assert code.min_distance == code.residue.min_distance


def test_membership_and_intersection():
    rng = random.Random(33)
    all_b = list(_pairs(2, 3))
    for _ in range(30):
        a, b = rng.choice(all_b), rng.choice(all_b)
        inter = a.intersect(b)
        assert _words(inter) == (_words(a) & _words(b))
        assert inter.subset_of(a) and inter.subset_of(b)


def test_zero_full_and_t_full():
    for p in (2, 3):
        z = EpCode.zero(p, 2)
        assert z.is_zero() and z.cardinality_exp == 0
        assert z.is_lcd  # vacuously: trivial hull and nice
        full = EpCode.full(p, 2)
        assert full.cardinality_exp == 4
        tf = EpCode.t_full(p, 2)
        assert tf.m1 == 0 and tf.m2 == 2
        assert _words(tf) == {embed_t(p, v) for v in product(range(p), repeat=2)}
        assert tf.is_right_self_dual
        assert tf.mds_status is MdsStatus.AMDS


def test_right_self_dual_is_exactly_t_full():
    for p, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        want = EpCode.t_full(p, n)
        for code in _pairs(p, n):
            assert code.is_right_self_dual == (code == want)


def test_mds_status_uses_the_doubled_singleton_gap():
    # |C| = p^exp against p^(2(n-d+1))
    cases = [
        (EpCode.free_code(FpCode.from_rows(2, [(1, 1)])), MdsStatus.MDS),
        (EpCode.t_full(2, 2), MdsStatus.AMDS),
        (EpCode.t_full(2, 3), MdsStatus.NEITHER),
        (EpCode.zero(2, 2), MdsStatus.NEITHER),
        (EpCode.full(2, 2), MdsStatus.MDS),
    ]
    for code, want in cases:
        assert code.mds_status is want
        d = code.min_distance
        if d is not None:
            assert code.cardinality_exp <= 2 * (code.n - d + 1)


def test_generator_matrix_round_trip():
    for p, n in ((2, 1), (2, 2), (2, 3), (3, 2)):
        for code in _pairs(p, n):
            mat = code.generator_matrix()
            assert mat.code() == code
            assert EpGenMatrix.parse(mat.to_text()) == mat


def test_decompose_compose_round_trip():
    for p in (2, 3):
        for vec in product(elements(p), repeat=2):
            a, b = decompose(vec)
            assert compose(a, b, p) == tuple(vec)
            assert tuple(x.alpha for x in vec) == a


def test_parse_rejects_bad_input():
    with pytest.raises(ParseError):
        EpGenMatrix.parse("r r\n")  # no header
    with pytest.raises(ParseError) as err:
        EpGenMatrix.parse("p=2 n=3\nr r\n")
    assert err.value.line == 2 and "entries" in str(err.value)
    with pytest.raises(ParseError):
        EpGenMatrix.parse("p=2 n=2\nr q\n")
    with pytest.raises(ParseError):
        EpGenMatrix.parse("p=4 n=2\nr r\n")
    with pytest.raises(ParseError):
        EpGenMatrix.parse("p=2 n=0\n")


def test_parse_header_only_is_the_zero_code():
    mat = EpGenMatrix.parse("p=3 n=4\n")
    assert mat.code() == EpCode.zero(3, 4)
    assert mat.to_text() == "p=3 n=4\n"


def test_token_rows_round_trip():
    mat = EpGenMatrix.from_token_rows(2, ["t 0", "0 t"])
    assert mat.code() == EpCode.t_full(2, 2)
    assert mat.token_rows() == ["t 0", "0 t"]


def test_free_code_and_pair_validation():
    free = EpCode.free_code(FpCode.from_rows(3, [(1, 2)]))
    assert free.is_free and free.m1 == 1 and free.m2 == 0
    with pytest.raises(ValueError):
        # residue must sit inside the torsion code
        EpCode(FpCode.from_rows(2, [(1, 1)]), FpCode.zero(2, 2))


def test_pairs_and_generators_reject_mismatched_input():
    # a residue outside the torsion, and codes in different spaces
    with pytest.raises(ValueError, match="contained in the torsion"):
        EpCode(FpCode.full(2, 2), FpCode.from_rows(2, [(1, 0)], 2))
    for other in (FpCode.zero(2, 3), FpCode.zero(3, 2)):
        with pytest.raises(ValueError, match="different spaces"):
            EpCode(FpCode.zero(2, 2), other)
    r2, r3 = EpElem.from_token("r", 2), EpElem.from_token("r", 3)
    with pytest.raises(ValueError, match="length must be positive"):
        EpCode.from_generators([], 2, 0)
    with pytest.raises(ValueError, match="generator of length 1, expected 2"):
        EpCode.from_generators([(r2,)], 2, 2)
    with pytest.raises(ValueError, match="wrong ring"):
        EpCode.from_generators([(r2, r3)], 2, 2)
    with pytest.raises(ValueError, match="ragged"):
        EpGenMatrix(2, 2, ((r2, r2), (r2,)))
    with pytest.raises(ValueError, match="wrong ring"):
        EpGenMatrix(2, 2, ((r2, r3),))
    with pytest.raises(ValueError, match="empty matrix"):
        EpGenMatrix.from_token_rows(2, [])


def test_generator_matrix_of_length_zero_is_rejected():
    # its own text "p=2 n=0" is rejected by parse, so it must not be built
    with pytest.raises(ValueError, match="length must be positive"):
        EpGenMatrix(2, 0, ())
    with pytest.raises(ValueError, match="length must be positive"):
        EpGenMatrix.from_token_rows(2, [""])


@pytest.mark.parametrize("text", ["", "\n\n", "# a comment only\n  # and another\n"])
def test_parse_without_a_header_is_a_syntax_error(text):
    with pytest.raises(ParseError, match="missing header") as err:
        EpGenMatrix.parse(text)
    assert err.value.kind == "syntax" and err.value.line is None
