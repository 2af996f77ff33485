"""Randomized structural-theorem suites over mixed scales.

Each suite runs at least a thousand independently seeded cases across
p = 2 (lengths up to 8) and p = 3 (lengths up to 5), comparing the
library's predicates against the residue-level characterizations and
against definition-level recomputation.
"""

import random

from epcodes import (
    EpCode,
    FpCode,
    MonomialMapEp,
    MonomialMapFp,
    elements,
    equivalent_ep,
    equivalent_fp,
)

CASES = 1000


def _scales(rng):
    p = rng.choice((2, 2, 3))
    n = rng.randint(1, 8 if p == 2 else 5)
    return p, n


def _random_fp(rng, p, n, k=None):
    k = rng.randint(0, n) if k is None else k
    rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)]
    return FpCode.from_rows(p, rows, n)


def _random_pair(rng, p, n):
    torsion = _random_fp(rng, p, n)
    if torsion.k == 0:
        return EpCode(FpCode.zero(p, n), torsion)
    rows = []
    for _ in range(rng.randint(0, torsion.k)):
        coeffs = [rng.randrange(p) for _ in range(torsion.k)]
        rows.append(
            tuple(
                sum(c * b[i] for c, b in zip(coeffs, torsion.basis)) % p
                for i in range(n)
            )
        )
    return EpCode(FpCode.from_rows(p, rows, n), torsion)


def _random_map_fp(rng, p, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return MonomialMapFp(p, tuple(perm), tuple(rng.randrange(1, p) for _ in range(n)))


def _random_map_ep(rng, p, n):
    perm = list(range(n))
    rng.shuffle(perm)
    units = [e for e in elements(p) if e.alpha != 0]
    return MonomialMapEp(p, tuple(perm), tuple(rng.choice(units) for _ in range(n)))


def _self_dual_residue(rng, p):
    """A random monomial image of a known self-dual residue code."""
    if p == 2:
        n = rng.choice((2, 4, 6, 8))
        rows = [
            tuple(1 if c in (2 * i, 2 * i + 1) else 0 for c in range(n))
            for i in range(n // 2)
        ]
    else:
        n = 4
        rows = [(1, 0, 1, 1), (0, 1, 1, 2)]
    base = FpCode.from_rows(p, rows, n)
    return _random_map_fp(rng, p, n).apply(base)


def _contains(code, word):
    from epcodes import decompose

    a, b = decompose(word)
    return code.residue.contains(a) and code.torsion.contains(b)


# -- suite engines (shared with the acceptance run) -----------------------------


def run_distance_suite(seed, cases):
    """d(C) equals the least codeword weight, the torsion distance, and the
    residue distance in the free case."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        p, n = _scales(rng)
        code = _random_pair(rng, p, n)
        if code.cardinality_exp > (14 if p == 2 else 8):
            continue
        weights = [
            sum(1 for e in w if e) for w in code.codewords() if any(e for e in w)
        ]
        brute = min(weights) if weights else None
        assert code.min_distance == brute
        assert code.min_distance == code.torsion.min_distance
        if code.is_free and not code.is_zero():
            assert code.min_distance == code.residue.min_distance
        done += 1
    return done


def run_lcd_suite(seed, cases):
    """LCD exactly for free codes with LCD residue."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        p, n = _scales(rng)
        if done % 3 == 0:
            code = EpCode.free_code(_random_fp(rng, p, n))
        else:
            code = _random_pair(rng, p, n)
        assert code.is_lcd == (code.is_free and code.residue.is_lcd)
        done += 1
    return done


def run_self_dual_suite(seed, cases):
    """Left self-dual exactly for free codes with self-dual residue; right
    self-dual only for t times the full space; two-sided self-dual is QSD."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        p, n = _scales(rng)
        if done % 4 == 0:
            residue = _self_dual_residue(rng, p)
            code = EpCode.free_code(residue)
            n = code.n
        elif done % 4 == 1:
            code = EpCode.free_code(_random_fp(rng, p, n))
        else:
            code = _random_pair(rng, p, n)
        assert code.is_left_self_dual == (code.is_free and code.residue.is_self_dual)
        assert code.is_right_self_dual == (code == EpCode.t_full(p, code.n))
        assert code.is_self_dual == code.is_qsd
        if code.is_left_self_dual:
            assert code.cardinality_exp == code.n  # forces even length
        done += 1
    return done


def run_free_equivalence_suite(seed, cases):
    """Free codes are equivalent exactly when their residues are."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        p, n = _scales(rng)
        res1 = _random_fp(rng, p, n)
        if done % 5 < 3:
            # positive: build the image through a random map, both levels
            fp_map = _random_map_fp(rng, p, n)
            res2 = fp_map.apply(res1)
            witness = equivalent_ep(EpCode.free_code(res1), EpCode.free_code(res2))
            assert witness is not None
            assert witness.alpha_map().apply(res1) == res2
        else:
            # either direction on unrelated codes: the two levels must agree
            n = rng.randint(1, 6 if p == 2 else 5)
            res1 = _random_fp(rng, p, n)
            res2 = _random_fp(rng, p, n, k=res1.k)
            fp_witness = equivalent_fp(res1, res2)
            ep_witness = equivalent_ep(EpCode.free_code(res1), EpCode.free_code(res2))
            assert (fp_witness is None) == (ep_witness is None)
            if ep_witness is not None:
                assert ep_witness.apply(EpCode.free_code(res1)) == EpCode.free_code(res2)
        done += 1
    return done


def run_singleton_suite(seed, cases):
    """Cardinality exponent never exceeds 2(n - d + 1); the MDS and AMDS
    labels sit exactly at the bound and one step under it."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        p, n = _scales(rng)
        code = _random_pair(rng, p, n)
        d = code.min_distance
        if d is None:
            continue
        exp = code.cardinality_exp
        assert exp <= 2 * (code.n - d + 1)
        assert (code.mds_status.name == "MDS") == (exp == 2 * (code.n - d + 1))
        assert (code.mds_status.name == "AMDS") == (exp == 2 * (code.n - d))
        done += 1
    return done


def run_group_action_suite(seed, cases):
    """Monomial maps act on vectors: composition, inverse, identity, and
    image codes contain exactly the transported words."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        p, n = _scales(rng)
        m1, m2 = _random_map_ep(rng, p, n), _random_map_ep(rng, p, n)
        vec = tuple(rng.choice(elements(p)) for _ in range(n))
        assert m1.then(m2).apply_vec(vec) == m2.apply_vec(m1.apply_vec(vec))
        assert m1.inverse().apply_vec(m1.apply_vec(vec)) == vec
        assert MonomialMapEp.identity(p, n).apply_vec(vec) == vec
        code = _random_pair(rng, p, n)
        image = m1.apply(code)
        word = next(iter(code.codewords()))
        assert _contains(image, m1.apply_vec(word))
        assert image.cardinality_exp == code.cardinality_exp
        done += 1
    return done


ALL_SUITES = (
    ("distance", run_distance_suite, 101),
    ("lcd", run_lcd_suite, 102),
    ("self-dual", run_self_dual_suite, 103),
    ("free-equivalence", run_free_equivalence_suite, 104),
    ("singleton", run_singleton_suite, 105),
    ("group-action", run_group_action_suite, 106),
)


def test_distance_suite():
    assert run_distance_suite(101, CASES) == CASES


def test_lcd_suite():
    assert run_lcd_suite(102, CASES) == CASES


def test_self_dual_suite():
    assert run_self_dual_suite(103, CASES) == CASES


def test_free_equivalence_suite():
    assert run_free_equivalence_suite(104, CASES) == CASES


def test_singleton_suite():
    assert run_singleton_suite(105, CASES) == CASES


def test_group_action_suite():
    assert run_group_action_suite(106, CASES) == CASES
