"""Monomial equivalence, witnesses and canonical forms."""

import random
from itertools import permutations, product
from math import factorial

import pytest

from epcodes import (
    BudgetExceeded,
    EpCode,
    EpElem,
    FpCode,
    MonomialMapEp,
    MonomialMapFp,
    canonical_form,
    canonical_form_fp,
    canonical_form_free,
    canonical_key,
    canonical_key_fp,
    elements,
    equivalent_ep,
    equivalent_fp,
    iter_subspaces,
)
from epcodes import equiv
from epcodes.equiv import _profile, monomial_orbit
from epcodes.fp import SUPPORTED_PRIMES
from oracles import brute_canonical_key, brute_monomial_images
from test_code import B_CODE, C_CODE, _pairs, _words


def _random_fp(rng, p, n, k=None):
    k = rng.randint(0, n) if k is None else k
    rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)]
    return FpCode.from_rows(p, rows, n)


def _random_map_fp(rng, p, n):
    perm = list(range(n))
    rng.shuffle(perm)
    scale = tuple(rng.randrange(1, p) for _ in range(n))
    return MonomialMapFp(p, tuple(perm), scale)


def _random_map_ep(rng, p, n):
    perm = list(range(n))
    rng.shuffle(perm)
    units = [e for e in elements(p) if e.alpha != 0]
    return MonomialMapEp(p, tuple(perm), tuple(rng.choice(units) for _ in range(n)))


def _transported(m, code):
    return {tuple(m.apply_vec(w)) for w in code.codewords()}


def test_fp_map_group_laws():
    rng = random.Random(41)
    for _ in range(150):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 6)
        m1, m2 = _random_map_fp(rng, p, n), _random_map_fp(rng, p, n)
        ident = MonomialMapFp.identity(p, n)
        vec = tuple(rng.randrange(p) for _ in range(n))
        # then is self-first: (m1 then m2)(x) = m2(m1(x))
        assert m1.then(m2).apply_vec(vec) == m2.apply_vec(m1.apply_vec(vec))
        assert m1.then(ident).apply_vec(vec) == m1.apply_vec(vec)
        assert m1.then(m1.inverse()).apply_vec(vec) == vec
        assert ident.apply_vec(vec) == vec


def test_ep_map_group_laws_and_transport():
    rng = random.Random(42)
    for _ in range(150):
        p = rng.choice((2, 3))
        n = rng.randint(1, 5)
        m1, m2 = _random_map_ep(rng, p, n), _random_map_ep(rng, p, n)
        vec = tuple(rng.choice(elements(p)) for _ in range(n))
        other = tuple(rng.choice(elements(p)) for _ in range(n))
        lam = rng.choice(elements(p))
        assert m1.then(m2).apply_vec(vec) == m2.apply_vec(m1.apply_vec(vec))
        assert m1.then(m1.inverse()).apply_vec(vec) == tuple(vec)
        # linear over addition and left scaling, and weight preserving
        added = tuple(a + b for a, b in zip(vec, other))
        assert m1.apply_vec(added) == tuple(
            a + b for a, b in zip(m1.apply_vec(vec), m1.apply_vec(other))
        )
        scaled = tuple(lam * x for x in vec)
        assert m1.apply_vec(scaled) == tuple(lam * x for x in m1.apply_vec(vec))
        assert sum(1 for x in m1.apply_vec(vec) if x) == sum(1 for x in vec if x)
        # the alpha shadow commutes with transport
        assert tuple(x.alpha for x in m1.apply_vec(vec)) == m1.alpha_map().apply_vec(
            tuple(x.alpha for x in vec)
        )


def test_apply_is_codeword_transport():
    rng = random.Random(43)
    pool = [c for c in _pairs(2, 3)] + [c for c in _pairs(3, 2)]
    for _ in range(60):
        code = rng.choice(pool)
        m = _random_map_ep(rng, code.p, code.n)
        image = m.apply(code)
        assert {tuple(w) for w in image.codewords()} == _transported(m, code)


def test_map_validation():
    with pytest.raises(ValueError):
        MonomialMapFp(2, (0, 0), (1, 1))
    with pytest.raises(ValueError):
        MonomialMapFp(3, (0, 1), (1, 0))  # zero scaling
    with pytest.raises(ValueError):
        MonomialMapEp(2, (0, 1), (EpElem.t(2), EpElem.r(2)))  # t has alpha 0
    r2 = EpElem.r(2)
    for perm, scale in (((0, 0), (r2, r2)), ((1, 0), (r2,))):
        with pytest.raises(ValueError, match="not a valid monomial map"):
            MonomialMapEp(2, perm, scale)
    with pytest.raises(ValueError, match="scale entry over the wrong ring"):
        MonomialMapEp(2, (0, 1), (r2, EpElem.r(3)))
    # a map acts only on codes and maps of its own (p, n)
    fp_map, ep_map = MonomialMapFp.identity(2, 2), MonomialMapEp.identity(2, 2)
    for m, code in (
        (fp_map, FpCode.full(2, 3)),
        (fp_map, FpCode.full(3, 2)),
        (ep_map, EpCode.full(2, 3)),
        (ep_map, EpCode.full(3, 2)),
    ):
        with pytest.raises(ValueError, match="map and code do not match"):
            m.apply(code)
    for other in (MonomialMapFp.identity(2, 3), MonomialMapFp.identity(3, 2)):
        with pytest.raises(ValueError, match="maps do not compose"):
            fp_map.then(other)


def test_lift_commutes_with_alpha():
    rng = random.Random(44)
    for _ in range(40):
        p = rng.choice((2, 3))
        n = rng.randint(1, 5)
        m = _random_map_fp(rng, p, n)
        assert m.lift().alpha_map() == m


def _brute_equivalent_fp(c1, c2):
    p, n = c1.p, c1.n
    w1 = set(c1.codewords())
    w2 = set(c2.codewords())
    for perm in permutations(range(n)):
        for scale in product(range(1, p), repeat=n):
            m = MonomialMapFp(p, perm, scale)
            if {m.apply_vec(w) for w in w1} == w2:
                return True
    return False


def test_equivalent_fp_matches_brute_force():
    # all pairs of subspaces at (2, 3) and (3, 2)
    for p, n in ((2, 3), (3, 2)):
        subs = list(iter_subspaces(p, n))
        for c1 in subs:
            for c2 in subs:
                witness = equivalent_fp(c1, c2)
                assert (witness is not None) == _brute_equivalent_fp(c1, c2)
                if witness is not None:
                    assert witness.apply(c1) == c2


def test_equivalent_fp_witness_random():
    rng = random.Random(45)
    for _ in range(60):
        p = rng.choice((2, 3))
        n = rng.randint(1, 6 if p == 3 else 8)
        c1 = _random_fp(rng, p, n)
        m = _random_map_fp(rng, p, n)
        c2 = m.apply(c1)
        witness = equivalent_fp(c1, c2)
        assert witness is not None and witness.apply(c1) == c2


def test_equivalent_ep_on_free_codes_random():
    rng = random.Random(46)
    for _ in range(40):
        p = rng.choice((2, 3))
        n = rng.randint(1, 5)
        code = EpCode.free_code(_random_fp(rng, p, n))
        m = _random_map_ep(rng, p, n)
        image = m.apply(code)
        witness = equivalent_ep(code, image)
        assert witness is not None
        assert _transported(witness, code) == {tuple(w) for w in image.codewords()}


def test_equivalent_ep_on_nonfree_codes_random():
    rng = random.Random(47)
    pool = [c for c in _pairs(2, 3) if not c.is_free]
    pool += [c for c in _pairs(3, 2) if not c.is_free]
    for _ in range(30):
        code = rng.choice(pool)
        m = _random_map_ep(rng, code.p, code.n)
        image = m.apply(code)
        witness = equivalent_ep(code, image)
        assert witness is not None
        assert _transported(witness, code) == {tuple(w) for w in image.codewords()}


def test_worked_example_codes_are_inequivalent():
    # equivalent residues are not enough for non-free codes
    assert equivalent_fp(B_CODE.residue, C_CODE.residue) is not None
    assert equivalent_ep(B_CODE, C_CODE) is None
    assert equivalent_ep(C_CODE, B_CODE) is None


def test_equivalent_ep_rejects_different_spaces():
    with pytest.raises(ValueError):
        equivalent_ep(EpCode.zero(2, 2), EpCode.zero(2, 3))
    with pytest.raises(ValueError):
        equivalent_ep(EpCode.zero(2, 2), EpCode.zero(3, 2))
    for other in (FpCode.zero(2, 3), FpCode.zero(3, 2)):
        with pytest.raises(ValueError, match="codes live in different spaces"):
            equivalent_fp(FpCode.zero(2, 2), other)


def test_equivalent_ep_matches_brute_force_among_nonfree_codes():
    # every non-free code at (2, 4) and (3, 3), against each code that shares
    # its (m1, m2) and both weight enumerators, where only the search and the
    # coordinate profiles can tell the two apart
    for p, n in ((2, 4), (3, 3)):
        groups = {}
        for code in _pairs(p, n):
            if not code.is_free:
                invariants = (
                    code.m1,
                    code.m2,
                    code.residue.weight_enumerator,
                    code.torsion.weight_enumerator,
                )
                groups.setdefault(invariants, []).append(code)
        for group in groups.values():
            keys = [brute_canonical_key(p, n, [c.residue.basis, c.torsion.basis]) for c in group]
            for c1, key1 in zip(group, keys):
                for c2, key2 in zip(group, keys):
                    witness = equivalent_ep(c1, c2)
                    assert (witness is not None) == (key1 == key2)
                    if witness is not None:
                        assert witness.apply(c1) == c2


def test_profile_counts_codewords_and_follows_the_coordinates():
    rng = random.Random(50)
    for p, _ in product(SUPPORTED_PRIMES, range(12)):
        n = rng.randint(1, {2: 7, 3: 5}.get(p, 3))
        codes = [_random_fp(rng, p, n) for _ in range(rng.randint(1, 2))]
        before = _profile(codes)
        for s in range(n):
            direct = []
            for c in codes:
                counts = [0] * (n + 1)
                for word in c.codewords():
                    if word[s]:
                        counts[sum(1 for v in word if v)] += 1
                direct.append(tuple(counts))
            assert before[s] == tuple(direct)
        m = _random_map_fp(rng, p, n)
        after = _profile([m.apply(c) for c in codes])
        assert all(after[m.perm[s]] == before[s] for s in range(n))


def test_unequal_profiles_are_inequivalent_without_a_search(monkeypatch):
    # equal weight enumerators (1, 0, 3, 0, 3, 0, 1), unequal profiles
    a = FpCode.from_rows(2, [(1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 1), (0, 0, 1, 1, 1, 1)])
    b = FpCode.from_rows(2, [(1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, 0), (0, 0, 1, 1, 0, 0)])
    assert a.weight_enumerator == b.weight_enumerator
    # one torsion, and residues of one weight; the residue word runs through
    # the torsion's weight-1 words in c and through its weight-2 word in d
    torsion = FpCode.from_rows(2, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)])
    c = EpCode(FpCode.from_rows(2, [(1, 1, 0, 0)]), torsion)
    d = EpCode(FpCode.from_rows(2, [(0, 0, 1, 1)]), torsion)
    assert c.residue.weight_enumerator == d.residue.weight_enumerator

    def no_search(*args):
        raise AssertionError("the witness search ran")

    monkeypatch.setattr(equiv, "_search", no_search)
    assert equivalent_fp(a, b) is None
    assert equivalent_ep(c, d) is None
    with pytest.raises(AssertionError):
        equivalent_ep(c, c)


def test_equal_profiles_can_still_be_inequivalent(monkeypatch):
    # at p=5 n=6 these profiles agree as multisets, so only the witness
    # search can tell the codes apart, and it must come back empty
    a = FpCode.from_rows(5, [(1, 0, 0, 3, 0, 1), (0, 1, 0, 1, 4, 2), (0, 0, 1, 0, 2, 4)])
    b = FpCode.from_rows(5, [(1, 0, 0, 2, 3, 2), (0, 1, 0, 3, 0, 4), (0, 0, 1, 2, 4, 1)])
    assert sorted(_profile([a])) == sorted(_profile([b]))
    assert a.weight_enumerator == b.weight_enumerator == (1, 0, 0, 12, 24, 60, 28)
    assert canonical_key_fp(a, 6) != canonical_key_fp(b, 6)

    results = []
    search = equiv._search

    def spy(*args, **kwargs):
        results.append(search(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(equiv, "_search", spy)
    zero = FpCode.zero(5, 6)
    pairs = [
        (equivalent_fp, a, b),
        (equivalent_ep, EpCode.free_code(a), EpCode.free_code(b)),
        (equivalent_ep, EpCode(zero, a), EpCode(zero, b)),
    ]
    for decide, x, y in pairs:
        results.clear()
        assert decide(x, y, max_n=6) is None
        assert results == [None]


def test_canonical_form_fp_is_invariant_and_canonical():
    rng = random.Random(48)
    for _ in range(50):
        p = rng.choice((2, 3))
        n = rng.randint(1, 5)
        c = _random_fp(rng, p, n)
        key, rep = canonical_form_fp(c)
        assert equivalent_fp(c, rep) is not None
        m = _random_map_fp(rng, p, n)
        key2, rep2 = canonical_form_fp(m.apply(c))
        assert key2 == key and rep2 == rep
    assert canonical_key_fp(FpCode.from_rows(2, [(0, 1)])) == canonical_key_fp(
        FpCode.from_rows(2, [(1, 0)])
    )


def test_canonical_keys_separate_inequivalent_codes():
    for p, n in ((2, 3), (3, 2)):
        subs = list(iter_subspaces(p, n))
        for c1 in subs:
            for c2 in subs:
                same = canonical_key_fp(c1) == canonical_key_fp(c2)
                assert same == (equivalent_fp(c1, c2) is not None)


def test_canonical_form_ep_is_invariant():
    rng = random.Random(49)
    pool = [c for c in _pairs(2, 3)] + [c for c in _pairs(3, 2)]
    for _ in range(40):
        code = rng.choice(pool)
        key, rep = canonical_form(code)
        m = _random_map_ep(rng, code.p, code.n)
        key2, rep2 = canonical_form(m.apply(code))
        assert (key2, rep2) == (key, rep)
        assert canonical_key(code) == key
    # the B and C codes get distinct keys
    assert canonical_key(B_CODE) != canonical_key(C_CODE)


def test_monomial_orbit_matches_the_brute_force_orbit():
    # every subspace at p=2 n<=5 and p=3 n<=4, a few at p=5; each orbit is
    # checked against the images under all (p-1)^n n! maps, and its size
    # against the group order over the brute-force automorphism count
    rng = random.Random(23)
    codes = [c for n in range(1, 6) for c in iter_subspaces(2, n)]
    codes += [c for n in range(1, 5) for c in iter_subspaces(3, n)]
    codes += [_random_fp(rng, 5, n) for n in (1, 2, 3, 3, 4, 4)]
    # codes with large automorphism groups, whose searches tie deep in the
    # tree: the tetracode (orbit 8, |Aut| = 48), three disjoint pairs
    # (orbit 15), the binary even-weight code, the full space, a ternary
    # code with a repeated and a zero column (orbit 60), and a zero code
    codes += [
        FpCode.from_rows(3, [(1, 0, 1, 1), (0, 1, 1, 2)]),
        FpCode.from_rows(2, [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)]),
        FpCode.from_rows(2, [tuple(int(j in (i, 5)) for j in range(6)) for i in range(5)]),
        FpCode.from_rows(2, [tuple(int(j == i) for j in range(6)) for i in range(6)]),
        FpCode.from_rows(3, [(1, 1, 0, 0, 0), (0, 0, 1, 2, 0)]),
        FpCode.from_rows(3, [], 5),
    ]
    for c in codes:
        images = [image for (image,) in brute_monomial_images(c.p, c.n, [c.basis])]
        orbit = monomial_orbit(c)
        assert orbit == set(images)
        aut = images.count(c.basis)
        assert len(orbit) * aut == (c.p - 1) ** c.n * factorial(c.n) == len(images)


def test_canonical_keys_match_their_definition():
    # the least serialization over the whole monomial group, by brute force
    for p, max_n in ((2, 5), (3, 4)):
        for n in range(1, max_n + 1):
            for c in iter_subspaces(p, n):
                assert canonical_key_fp(c) == brute_canonical_key(p, n, [c.basis])
    for p, n in ((2, 3), (2, 4), (3, 2), (3, 3)):
        for code in _pairs(p, n):
            bases = [code.residue.basis, code.torsion.basis]
            assert canonical_key(code) == brute_canonical_key(p, n, bases)


def test_canonical_form_is_invariant_on_large_automorphism_groups():
    # groups of order up to 10!, far beyond the random codes above
    n = 10
    rep5 = [tuple([1] * 5 + [0] * 5), tuple([0] * 5 + [1] * 5)]
    even = [tuple(1 if j in (i, i + 1) else 0 for j in range(n)) for i in range(n - 1)]
    rng = random.Random(50)
    for c in (FpCode.full(2, n), FpCode.from_rows(2, even, n), FpCode.from_rows(2, rep5, n)):
        form = canonical_form_fp(c)
        for _ in range(3):
            assert canonical_form_fp(_random_map_fp(rng, 2, n).apply(c)) == form
    code = EpCode(FpCode.zero(3, 6), FpCode.full(3, 6))
    form = canonical_form(code)
    for _ in range(3):
        assert canonical_form(_random_map_ep(rng, 3, 6).apply(code)) == form


def test_canonical_form_free_matches_the_joint_search():
    # the doubled-column shortcut must agree with the full canonical form
    for p, n in ((2, 3), (2, 4), (3, 2), (3, 3)):
        for residue in iter_subspaces(p, n):
            key, rep = canonical_form_free(residue)
            joint_key, joint_rep = canonical_form(EpCode.free_code(residue))
            assert key == joint_key
            assert rep == joint_rep


def test_budget_refusals():
    big = FpCode.from_rows(2, [tuple([1] * 11)], 11)
    canon = "canonicalization refused at n=11 for p=2; largest feasible n is 10"
    with pytest.raises(BudgetExceeded, match=canon) as err:
        canonical_form_fp(big)
    assert err.value.largest_feasible == 10
    with pytest.raises(BudgetExceeded, match=canon):
        canonical_form_free(big)
    ternary = EpCode.free_code(FpCode.from_rows(3, [(1,) * 7], 7))
    with pytest.raises(BudgetExceeded, match="canonicalization refused at n=7 for p=3;"):
        canonical_form(ternary)
    # the witness search takes the same numbers, and its refusal says so
    with pytest.raises(BudgetExceeded, match="equivalence refused at n=11 for p=2;"):
        equivalent_fp(big, big)
    with pytest.raises(BudgetExceeded, match="equivalence refused at n=7 for p=3;"):
        equivalent_ep(ternary, ternary)
    # a prime above 3 takes 5
    with pytest.raises(BudgetExceeded, match="largest feasible n is 5$"):
        equivalent_fp(FpCode.zero(5, 6), FpCode.zero(5, 6))
    # an explicit cap can lower the budget as well
    small = FpCode.from_rows(2, [(1, 0, 1, 0)], 4)
    with pytest.raises(BudgetExceeded):
        canonical_form_fp(small, max_n=3)
    key, _ = canonical_form_fp(small, max_n=4)
    assert key == canonical_key_fp(small)


def test_equivalent_ep_passes_one_gate_per_query(monkeypatch):
    # a free pair goes straight to the residue witness, not through
    # equivalent_fp and its own gate
    calls = []
    gate = equiv._gate

    def spy(*args):
        calls.append(args)
        return gate(*args)

    monkeypatch.setattr(equiv, "_gate", spy)
    zero = FpCode.zero(2, 4)
    free = EpCode.free_code(FpCode.from_rows(2, [(1, 1, 0, 0)], 4))
    nonfree = EpCode(zero, FpCode.from_rows(2, [(1, 1, 0, 0)], 4))
    for c1, c2, max_n in ((free, free, None), (nonfree, nonfree, None), (free, free, 4)):
        calls.clear()
        assert equivalent_ep(c1, c2, max_n) is not None
        assert calls == [("equivalence", 2, 4, 10 if max_n is None else max_n)]
    # unequal (m1, m2) is decided after the gate, still once
    calls.clear()
    assert equivalent_ep(free, nonfree) is None and len(calls) == 1


def test_a_cap_below_one_is_a_bad_parameter_not_a_refusal():
    # a cap of 0 would otherwise refuse every code as past "largest feasible n 0"
    code = FpCode.from_rows(2, [(1, 0, 1, 0)], 4)
    ep = EpCode.free_code(code)
    for max_n in (0, -1):
        for call in (
            lambda: canonical_form_fp(code, max_n=max_n),
            lambda: canonical_form_free(code, max_n=max_n),
            lambda: canonical_form(ep, max_n=max_n),
            lambda: equivalent_fp(code, code, max_n),
            lambda: equivalent_ep(ep, ep, max_n),
        ):
            with pytest.raises(ValueError, match="max_n must be at least 1"):
                call()
    assert equivalent_ep(ep, ep, 4) is not None
