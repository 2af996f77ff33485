"""Monomial equivalence of codes: group actions, witnesses, canonical forms, orbits.

A monomial map permutes the n coordinates and scales each by a unit.
Over E_p the scaling entries must come from outside the maximal ideal
(alpha nonzero); since x * e = alpha(e) x coordinatewise, such a map acts
on an :class:`~epcodes.code.EpCode` through the F_p monomial map carrying
alpha of each scale, applied to the residue and torsion codes jointly.

Canonical forms, equivalence and monomial orbits share one search over
column assignments.  Fix the RREF basis B of a code and assign target
columns 0..n-1 to (source column, unit scale) choices.  The serialized
image is read off column by column: the first t columns of the RREF of the
mapped matrix equal the RREF of the chosen k x t submatrix (padded with
zero rows), so the serialization is append-only and supports tight
pruning.  The search runs in one of three modes:

- minimize: the canonical key is the lexicographic minimum of that
  serialization over the whole monomial group (``_minimize``);
- witness: an assignment whose serialization matches the other code's own
  RREF decides equivalence (``_witness``);
- orbit: every serialization the group reaches, which read back as RREF
  bases are the code's monomial orbit (:func:`monomial_orbit`).

Each mode searches a list of F_p codes jointly: one
:class:`~epcodes.fp.FpCode`, or the (residue, torsion) pair of an E_p code.

The minimize and orbit modes prune with the automorphisms they meet (after
Leon, "Computing automorphism groups of error-correcting codes", 1982, and
McKay & Piperno, "Practical graph isomorphism II", 2014), under one tie
rule: a leaf whose serialization was met before yields an automorphism,
kept as a generator, and the search backjumps to the node where the two
leaves diverge.  Only branches that repeat the serializations of branches
explored before them are dropped, so minimize mode, which also bounds by
the incumbent, gives the key, representative and map of the unpruned
search, and orbit mode meets every serialization of the orbit.

The witness search keeps no generators; it prunes by coordinate
invariants instead (Leon 1982).  The profile of a coordinate counts, in
each code, the codewords of each weight that are nonzero there; one code's
profiles are :meth:`~epcodes.fp.FpCode.weight_profile`.  A monomial map
keeps supports and weights, so a witness sends each source column to a
target column of equal profile: codes whose profiles differ as multisets
are inequivalent without a search, and otherwise each target column is
offered only the source columns of its profile.  No branch that
could reach a witness is dropped, so the witness found is the one the
unpruned search finds first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

from .code import EpCode
from .fp import FpCode, Mat, Vec, inverse_table, validate_modulus
from .ring import EpElem


class BudgetExceeded(RuntimeError):
    """A computation was refused because n exceeds the configured budget."""

    def __init__(self, message: str, largest_feasible: int) -> None:
        super().__init__(message)
        self.largest_feasible = largest_feasible


# Largest length searched without an explicit override (5 for p above 3), a
# guard on the cost of one canonical search on outside input.  On seeded
# random binary codes of random dimension, canonical_form_fp took a median of
# 18 ms (max 0.83 s) at n = 10 and 178 ms (max 12 s) at n = 11; the witness
# search equivalent_fp, which the same numbers gate, took a median of
# 0.2-0.4 ms (max 5-19 ms) at n = 12 on each of three seeds of 80 pairs, half
# of them equivalent (2-CPU x86-64, Python 3.11, untraced).
CANON_BUDGET = {2: 10, 3: 6}


def _gate(what: str, p: int, n: int, limit: int) -> None:
    """The one length gate: refuses ``what`` when n exceeds ``limit``."""
    if n > limit:
        raise BudgetExceeded(
            f"{what} refused at n={n} for p={p}; largest feasible n is {limit}",
            largest_feasible=limit,
        )


def _check_max_n(max_n: int | None) -> None:
    """A cap below 1 is a bad parameter, not a refusal at "largest n is 0"."""
    if max_n is not None and max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n!r}")


def _gate_search(what: str, p: int, n: int, max_n: int | None) -> None:
    """Gates one search at ``max_n``, or if None at ``CANON_BUDGET`` (5 above p = 3)."""
    _check_max_n(max_n)
    _gate(what, p, n, CANON_BUDGET.get(p, 5) if max_n is None else max_n)


@dataclass(frozen=True)
class MonomialMapFp:
    """y[perm[i]] = scale[perm[i]] * x[i]; scale is indexed by target."""

    p: int
    perm: tuple[int, ...]
    scale: tuple[int, ...]

    def __post_init__(self) -> None:
        validate_modulus(self.p)
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)) or len(self.scale) != n:
            raise ValueError("not a valid monomial map")
        if any(not 1 <= c < self.p for c in self.scale):
            raise ValueError("scales must be units mod p")

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, p: int, n: int) -> "MonomialMapFp":
        return cls(p, tuple(range(n)), (1,) * n)

    def apply_vec(self, x: Sequence[int]) -> Vec:
        y = [0] * self.n
        for i, v in enumerate(x):
            j = self.perm[i]
            y[j] = (self.scale[j] * v) % self.p
        return tuple(y)

    def apply(self, c: FpCode) -> FpCode:
        if (c.p, c.n) != (self.p, self.n):
            raise ValueError("map and code do not match")
        return FpCode.from_rows(c.p, [self.apply_vec(row) for row in c.basis], c.n)

    def then(self, other: "MonomialMapFp") -> "MonomialMapFp":
        """The composite map: self first, then other."""
        if (other.p, other.n) != (self.p, self.n):
            raise ValueError("maps do not compose")
        perm = tuple(other.perm[t] for t in self.perm)
        scale = [0] * self.n
        for i in range(self.n):
            t1 = self.perm[i]
            t2 = other.perm[t1]
            scale[t2] = (other.scale[t2] * self.scale[t1]) % self.p
        return MonomialMapFp(self.p, perm, tuple(scale))

    def inverse(self) -> "MonomialMapFp":
        inv = inverse_table(self.p)
        perm = [0] * self.n
        scale = [1] * self.n
        for i in range(self.n):
            perm[self.perm[i]] = i
            scale[i] = inv[self.scale[self.perm[i]]]
        return MonomialMapFp(self.p, tuple(perm), tuple(scale))

    def lift(self) -> "MonomialMapEp":
        """The E_p map with entries scale * r (alpha recovers scale)."""
        r1 = EpElem.r(self.p)
        return MonomialMapEp(self.p, self.perm, tuple(c * r1 for c in self.scale))


@dataclass(frozen=True)
class MonomialMapEp:
    """A monomial map over E_p; every scale must have alpha != 0."""

    p: int
    perm: tuple[int, ...]
    scale: tuple[EpElem, ...]

    def __post_init__(self) -> None:
        validate_modulus(self.p)
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)) or len(self.scale) != n:
            raise ValueError("not a valid monomial map")
        for e in self.scale:
            if e.p != self.p:
                raise ValueError("scale entry over the wrong ring")
            if e.alpha == 0:
                raise ValueError("scale entries must lie outside the maximal ideal")

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, p: int, n: int) -> "MonomialMapEp":
        return cls(p, tuple(range(n)), (EpElem.r(p),) * n)

    def alpha_map(self) -> MonomialMapFp:
        return MonomialMapFp(self.p, self.perm, tuple(e.alpha for e in self.scale))

    def apply_vec(self, x: Sequence[EpElem]) -> tuple[EpElem, ...]:
        """Transport of a codeword: y[perm[i]] = x[i] * scale[perm[i]]."""
        y = [EpElem.zero(self.p)] * self.n
        for i, v in enumerate(x):
            j = self.perm[i]
            y[j] = v * self.scale[j]
        return tuple(y)

    def apply(self, c: EpCode) -> EpCode:
        """Image code: both the residue and the torsion transform under
        the alpha reduction, because x * e = alpha(e) x coordinatewise."""
        if (c.p, c.n) != (self.p, self.n):
            raise ValueError("map and code do not match")
        fp_map = self.alpha_map()
        return EpCode(fp_map.apply(c.residue), fp_map.apply(c.torsion))

    def then(self, other: "MonomialMapEp") -> "MonomialMapEp":
        """The composite map, self first.  The action depends on alpha alone,
        so the composite is the lift of the composite alpha maps."""
        return self.alpha_map().then(other.alpha_map()).lift()

    def inverse(self) -> "MonomialMapEp":
        """Undoes the transport; scaling by e acts through alpha(e) alone."""
        return self.alpha_map().inverse().lift()


# ---------------------------------------------------------------------------
# Column-assignment search engine.
#
# State per branch: one working matrix W per input matrix, kept fully
# row-reduced against the columns assigned so far.  Assigning source
# column s with unit scale u appends, for each matrix, the column of the
# image RREF: the unit vector e_rank if the scaled column is independent,
# or its reduced coefficients if dependent.  Row operations triggered by
# a new pivot never touch previously assigned columns, which makes the
# serialization append-only.
#
# A node serializes every candidate (_serialize reads one column per
# matrix), which is all that sorting, the bound and the target match
# need; the row reduction that builds a successor state (_enter) runs only
# for the candidates the search actually enters.
#
# _minimize (canonical forms), _witness (equivalence) and monomial_orbit
# are the engine's only callers; the public entry points go through them.
#
# Witness mode compares each candidate's serialization with the target's
# column, and takes from _witness one allowed set of source columns per
# target column: the columns whose profile (FpCode.weight_profile, one
# per code of the list) equals the target column's.  A node skips the
# unassigned columns outside its allowed set before it picks a
# representative per class; the columns of one joint projective class share
# a profile, so the node keeps or skips whole classes and the
# representatives it keeps are unchanged.  The other modes get no allowed
# sets, and witness mode keeps no leaf table.
#
# Minimize and orbit mode keep a leaf table: each serialization met, with
# the map that first reached it.  They prune by backjump and orbits, and
# minimize mode also by bound: candidates are sorted, and the loop stops at
# the first that makes the prefix exceed the incumbent.  So a leaf missing
# from the table is a new minimum, or in orbit mode a new orbit member.
# Backjump: a leaf in the table ties the leaf that first reached it.  Two
# leaves with equal serialization have equal image codes, so their maps
# m, m' differ by an automorphism g = m'^-1 m of the codes.  g fixes their
# common prefix pointwise with factor 1, and for every map x through the
# earlier leaf's branch at the divergence node, x g^-1 runs through the new
# leaf's branch with the same serialization.  That earlier branch is a
# sibling explored before, so the rest of the new one repeats it, and the
# search resumes at the divergence node.  Orbits: g is kept as a generator
# (perm, factor), which sends source column s to perm[s] scaled by
# factor[s].  A generator that fixes a node's prefix sends its candidate
# (s, u) to (perm[s], u / factor[s]), read modulo the joint projective
# classes, with the same set of serializations; so candidates are grouped
# into orbits (union-find, grown as generators arrive) and only the first
# of each orbit is searched.  Every dropped leaf has an equal leaf earlier
# in search order, so the first leaf that attains the minimum is never
# dropped, and orbit mode meets every serialization.
# ---------------------------------------------------------------------------


def _serialize(
    mats: list[list[list[int]]], ranks: list[int], s: int, u: int, p: int
) -> tuple[int, ...]:
    """The image RREF column, over every matrix, of assigning (s, u)."""
    ser: list[int] = []
    for W, rank in zip(mats, ranks):
        col = [(u * row[s]) % p for row in W]
        if any(col[rank:]):
            ser.extend(1 if i == rank else 0 for i in range(len(W)))
        else:
            ser.extend(col)
    return tuple(ser)


def _enter(
    mats: list[list[list[int]]], ranks: list[int], s: int, u: int, p: int
) -> tuple[list[list[list[int]]], list[int]]:
    """The successor state of assigning (s, u): each matrix row-reduced
    against the new column, and its rank."""
    inv = inverse_table(p)
    new_mats: list[list[list[int]]] = []
    new_ranks: list[int] = []
    for W, rank in zip(mats, ranks):
        k = len(W)
        pivot = next((i for i in range(rank, k) if W[i][s]), None)
        if pivot is None:
            new_mats.append(W)
            new_ranks.append(rank)
            continue
        W2 = [row[:] for row in W]
        W2[rank], W2[pivot] = W2[pivot], W2[rank]
        head = inv[(u * W2[rank][s]) % p]
        W2[rank] = [(head * v) % p for v in W2[rank]]
        for i in range(k):
            if i != rank:
                c = (u * W2[i][s]) % p
                if c:
                    W2[i] = [(a - c * b) % p for a, b in zip(W2[i], W2[rank])]
        new_mats.append(W2)
        new_ranks.append(rank + 1)
    return new_mats, new_ranks


def _source_classes(
    mats: Sequence[Sequence[Sequence[int]]], n: int, p: int
) -> list[tuple[int, int]]:
    """Each source column's joint projective class, as (anchor, factor).

    Columns that agree up to one joint nonzero scalar are interchangeable:
    any completed assignment through one converts into an assignment
    through the other with the same serialization, scales adjusted.  The
    anchor is the first column of the class, and the column is factor
    times the anchor; the factor of a zero column is 0.  Row operations do
    not change the classes, so one computation serves the whole search.
    """
    inv = inverse_table(p)
    first: dict[tuple[int, ...], tuple[int, int]] = {}
    out: list[tuple[int, int]] = []
    for s in range(n):
        flat = [row[s] for m in mats for row in m]
        lead = next((v for v in flat if v), 0)
        key = tuple((inv[lead] * v) % p for v in flat)
        anchor, anchor_lead = first.setdefault(key, (s, lead))
        out.append((anchor, lead * inv[anchor_lead] % p))
    return out


def _find(parent: dict[tuple[int, int], tuple[int, int]], x: tuple[int, int]) -> tuple[int, int]:
    """Union-find root; a candidate absent from ``parent`` is its own root."""
    while (up := parent.get(x, x)) != x:
        x = up
    return x


def _merge_orbits(
    parent: dict[tuple[int, int], tuple[int, int]],
    keys: Sequence[tuple[int, int]],
    gens: Sequence[tuple[list[int], list[int]]],
    fixed: Sequence[int],
    classes: Sequence[tuple[int, int]],
    reps: dict[int, int],
    p: int,
) -> None:
    """Union each candidate (s, u) of ``keys`` with its image under every
    generator that fixes the sources ``fixed`` pointwise with factor 1.

    Such a generator g turns each completed assignment through (perm[s], v)
    into one through (s, v * factor[s]) with the same prefix and the same
    serialization, so the two candidates root equal sets of serializations.
    The image is read as a candidate through ``reps``, the node's source
    column for each class anchor.
    """
    inv = inverse_table(p)
    for perm, factor in gens:
        if any(perm[s] != s or factor[s] != 1 for s in fixed):
            continue
        for s, u in keys:
            anchor, f = classes[perm[s]]
            rep = reps[anchor]
            image = (rep, u * inv[factor[s]] * f * inv[classes[rep][1]] % p) if f else (rep, 1)
            a, b = _find(parent, (s, u)), _find(parent, image)
            if a != b:
                parent[b] = a


def _search(
    p: int,
    n: int,
    mats0: Sequence[Sequence[Sequence[int]]],
    target: Sequence[tuple[int, ...]] | None,
    allowed: Sequence[Collection[int]] | None = None,
    orbit: bool = False,
) -> tuple[list[tuple[int, ...]], MonomialMapFp] | set[Mat] | None:
    """Shared engine: with ``target`` given, finds one assignment whose
    serialization equals it (equivalence witness); otherwise minimizes the
    serialization over the group (canonical form), or with ``orbit`` meets
    every serialization the group reaches.  ``allowed[t]``, when given,
    holds every source column a witness may send to target column t; it
    must be a union of joint projective classes.  Returns the serialized
    columns and the map that produces them, None when no witness exists,
    or in orbit mode the set of serializations transposed to RREF bases.
    """
    units = range(1, p)
    inv = inverse_table(p)
    classes = _source_classes(mats0, n, p)
    best: tuple[list[tuple[int, ...]], list[int], list[int]] | None = None
    gens: list[tuple[list[int], list[int]]] = []
    # the leaf table, each map as its sources then its scales
    leaves: dict[tuple[tuple[int, ...], ...], bytes] = {}

    def rec(
        mats: list[list[list[int]]],
        ranks: list[int],
        unassigned: list[int],
        prefix: list[tuple[int, ...]],
        sources: list[int],
        scales: list[int],
    ) -> int | None:
        """None to go on with the caller's next candidate, or the depth of
        the node the search resumes at (-1: a witness was found)."""
        nonlocal best
        t = n - len(unassigned)
        if not unassigned:
            if target is not None:
                best = (prefix, sources, scales)
                return -1
            first = leaves.get(key := tuple(prefix))
            if first is None:
                # a new minimum, or in orbit mode a new member of the orbit
                leaves[key] = bytes(sources + scales)
                if not orbit:
                    best = (prefix, sources, scales)
                return None
            # a tie: keep the automorphism, backjump to the divergence node
            sources0, scales0 = first[:n], first[n:]
            perm, factor = list(range(n)), [1] * n
            for s0, u0, s, u in zip(sources0, scales0, sources, scales):
                perm[s0], factor[s0] = s, u0 * inv[u] % p
            gens.append((perm, factor))
            return next(
                i for i in range(n) if (sources0[i], scales0[i]) != (sources[i], scales[i])
            )
        # one source column per class: the first one still unassigned
        reps: dict[int, int] = {}
        candidates = []
        for s in unassigned:
            if allowed is not None and s not in allowed[t]:
                continue
            anchor, f = classes[s]
            if anchor not in reps:
                reps[anchor] = s
                for u in units if f else [1]:
                    candidates.append((_serialize(mats, ranks, s, u, p), s, u))
        candidates.sort()
        # orbits of the candidates under the generators that fix the prefix
        parent: dict[tuple[int, int], tuple[int, int]] = {}
        merged = 0
        explored: list[tuple[int, int]] = []
        for ser, s, u in candidates:
            if target is not None:
                if ser != target[t]:
                    continue
            else:
                # Prune once prefix+ser exceeds the incumbent; candidates
                # are sorted, so every later one is at least as large.
                if best is not None and prefix + [ser] > best[0][: t + 1]:
                    break
                if merged < len(gens):
                    keys = [(c[1], c[2]) for c in candidates]
                    _merge_orbits(parent, keys, gens[merged:], sources, classes, reps, p)
                    merged = len(gens)
                root = _find(parent, (s, u))
                if any(_find(parent, e) == root for e in explored):
                    continue
                explored.append((s, u))
            mats2, ranks2 = _enter(mats, ranks, s, u, p)
            rest = [x for x in unassigned if x != s]
            back = rec(mats2, ranks2, rest, prefix + [ser], sources + [s], scales + [u])
            if back is not None and back < t:
                return back
        return None

    mats = [[list(r) for r in m] for m in mats0]
    if rec(mats, [0] * len(mats0), list(range(n)), [], [], []) is None and target is not None:
        return None
    if orbit:
        # drained entry by entry, so the table and the set never both hold the orbit
        bases = set()
        while leaves:
            bases.add(tuple(zip(*leaves.popitem()[0])))
        return bases
    cols, sources, scales = best
    perm = [0] * n
    scale = [1] * n
    for t, (s, u) in enumerate(zip(sources, scales)):
        perm[s] = t
        scale[t] = u
    return cols, MonomialMapFp(p, tuple(perm), tuple(scale))


def _key_bytes(header: Sequence[int], cols: Sequence[tuple[int, ...]]) -> bytes:
    flat = list(header)
    for col in cols:
        flat.extend(col)
    return bytes(flat)


def _minimize(
    codes: Sequence[FpCode], max_n: int | None
) -> tuple[list[tuple[int, ...]], list[FpCode]]:
    """The least joint serialization of ``codes`` over the monomial group,
    and the images of ``codes`` under the map that attains it."""
    p, n = codes[0].p, codes[0].n
    _gate_search("canonicalization", p, n, max_n)
    cols, m = _search(p, n, [c.basis for c in codes], None)
    return cols, [m.apply(c) for c in codes]


def _profile(codes: Sequence[FpCode]) -> list[tuple[Vec, ...]]:
    """Per coordinate j, the weight profile of each code at j
    (:meth:`~epcodes.fp.FpCode.weight_profile`)."""
    return list(zip(*(c.weight_profile() for c in codes)))


def _witness(codes1: Sequence[FpCode], codes2: Sequence[FpCode]) -> MonomialMapFp | None:
    """A monomial map carrying each of ``codes1`` onto its partner in
    ``codes2``, or None; a map that fails to do so is an internal error.

    Codes whose profiles differ as multisets are inequivalent without a
    search; otherwise target column t is offered the source columns whose
    profile equals its own.
    """
    p, n = codes1[0].p, codes1[0].n
    prof1, prof2 = _profile(codes1), _profile(codes2)
    if sorted(prof1) != sorted(prof2):
        return None
    by_profile: dict[tuple[Vec, ...], set[int]] = {}
    for s, prof in enumerate(prof1):
        by_profile.setdefault(prof, set()).add(s)
    allowed = [by_profile[prof] for prof in prof2]
    # the RREF bases of codes2 are their own serialization, read by column
    target = [tuple(row[j] for c in codes2 for row in c.basis) for j in range(n)]
    found = _search(p, n, [c.basis for c in codes1], target, allowed)
    if found is None:
        return None
    m = found[1]
    if [m.apply(c) for c in codes1] != list(codes2):
        raise RuntimeError("internal error: equivalence witness failed validation")
    return m


# -- F_p level ----------------------------------------------------------------


def monomial_orbit(code: FpCode) -> set[Mat]:
    """The RREF bases of every image of ``code`` under the monomial group.

    One orbit-mode search: the serialization of an image is its RREF basis
    read column by column, so the set holds one basis per subspace, and its
    size is the group order divided by the order of Aut(code).
    """
    return _search(code.p, code.n, [code.basis], None, orbit=True)


def canonical_form_fp(c: FpCode, max_n: int | None = None) -> tuple[bytes, FpCode]:
    """Canonical key and representative under the monomial group."""
    cols, (rep,) = _minimize([c], max_n)
    return _key_bytes((c.p, c.n, c.k), cols), rep


def canonical_key_fp(c: FpCode, max_n: int | None = None) -> bytes:
    return canonical_form_fp(c, max_n)[0]


def canonical_form_free(residue: FpCode, max_n: int | None = None) -> tuple[bytes, EpCode]:
    """Canonical form of the free code r*G at the cost of a residue search.

    A free code carries the pair (R, R), so every joint column is the
    residue column repeated twice; doubling preserves lexicographic order,
    hence both minimizations select the same group elements and the joint
    key is the residue key with doubled columns and a widened header.
    """
    cols, (rep,) = _minimize([residue], max_n)
    key = _key_bytes((rep.p, rep.n, rep.k, rep.k), [col + col for col in cols])
    return key, EpCode.free_code(rep)


def equivalent_fp(
    c1: FpCode, c2: FpCode, max_n: int | None = None
) -> MonomialMapFp | None:
    """A monomial map sending c1 to c2, or None.

    Codes of unequal dimension are inequivalent at once; otherwise the
    witness search decides, and it first compares the per-coordinate weight
    profiles, which determine the weight enumerator.
    """
    if (c1.p, c1.n) != (c2.p, c2.n):
        raise ValueError("codes live in different spaces")
    _gate_search("equivalence", c1.p, c1.n, max_n)
    if c1.k != c2.k:
        return None
    return _witness([c1], [c2])


# -- E_p level ----------------------------------------------------------------


def canonical_form(c: EpCode, max_n: int | None = None) -> tuple[bytes, EpCode]:
    """Canonical key and representative of an E_p code.

    The serialization interleaves the residue and torsion RREF columns,
    so equal keys mean equal (residue, torsion) pairs after some single
    monomial change of coordinates, i.e. monomial equivalence.
    """
    cols, (residue, torsion) = _minimize([c.residue, c.torsion], max_n)
    return _key_bytes((c.p, c.n, c.residue.k, c.torsion.k), cols), EpCode(residue, torsion)


def canonical_key(c: EpCode, max_n: int | None = None) -> bytes:
    return canonical_form(c, max_n)[0]


def equivalent_ep(
    c1: EpCode, c2: EpCode, max_n: int | None = None
) -> MonomialMapEp | None:
    """A monomial map over E_p sending c1 to c2, or None.

    Codes of unequal (m1, m2) are inequivalent at once.  Free codes reduce
    to a witness search on the residues; the general case searches for one
    coordinate change carrying both pairs simultaneously, pruned by the
    joint per-coordinate weight profiles of residue and torsion.
    """
    if (c1.p, c1.n) != (c2.p, c2.n):
        raise ValueError("codes live in different spaces")
    _gate_search("equivalence", c1.p, c1.n, max_n)
    if (c1.m1, c1.m2) != (c2.m1, c2.m2):
        return None
    if c1.is_free:
        m = _witness([c1.residue], [c2.residue])
    else:
        m = _witness([c1.residue, c1.torsion], [c2.residue, c2.torsion])
    return None if m is None else m.lift()
