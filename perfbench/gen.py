"""Seeded input generator for the equiv-batch workload.

The generator is independent of the package under test: it carries its own
F_p linear algebra, so the inputs it writes and the certificates it attaches
do not depend on the code being measured.  A code over E_p is handled as its
(residue, torsion) pair of F_p codes, R inside T.

Equivalent pairs are a random code and its image under a random monomial map
with unit scales alpha != 0 and a random t-part.  Inequivalent pairs share
(m1, m2) and the residue and torsion weight enumerators, so the prefilter of
``equivalent_ep`` passes and the search must run to exhaustion; each carries a
certificate, an equivalence invariant that ``equivalent_ep`` does not consult,
on which the two codes differ.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import asdict, dataclass
from functools import cached_property

# (p, n, m1, m2, pairs) of the random stratum.  The lengths are p=2 with
# n = 8, 9, 10 and p=3 with n = 6.  At each length the torsion dimension
# m1 + m2 is 4 or 5, about n/2, where codes are most numerous, and m1 varies
# so that the joint search sees residue-heavy, balanced and torsion-heavy
# codes:
#   n=8:  (2, 2) balanced, (3, 1) residue-heavy;
#   n=9:  (2, 3) torsion-heavy, (3, 2) residue-heavy;
#   n=10: (1, 3) torsion-heavy, (2, 2) balanced, (3, 2) residue-heavy, and
#         (4, 0), the one free shape, which takes the residue-only path of
#         equivalent_ep with its dual weight-enumerator prefilter;
#   p=3:  (1, 2), (1, 3), (2, 2), the ternary shapes whose random codes share
#         both weight enumerators with a certified inequivalent code often
#         enough to fill the inequivalent half; free ternary shapes, (0, 3)
#         and (2, 1) gave at most one such class pair in 3,000 draws, and
#         p=2 n=8 (4, 0) gave nine.
# The batch is stratified so that every seed draws the same number of
# queries of every shape, and the cost of a batch depends on the seed only
# through the codes drawn inside each shape.  Half of the pairs of each shape
# are equivalent and half inequivalent.  Uniformly drawn codes almost never
# have an automorphism beyond the scalar maps (``python3 gen.py SEED``
# reports the share), so the structured stratum below supplies the codes
# with large automorphism groups.
BATCH_SHAPES = (
    (2, 8, 2, 2, 30),
    (2, 8, 3, 1, 30),
    (2, 9, 2, 3, 30),
    (2, 9, 3, 2, 30),
    (2, 10, 1, 3, 30),
    (2, 10, 2, 2, 30),
    (2, 10, 3, 2, 30),
    (2, 10, 4, 0, 30),
    (3, 6, 1, 2, 30),
    (3, 6, 1, 3, 30),
    (3, 6, 2, 2, 30),
)

# (p, n, m1, m2) of the structured stratum: direct sums of symmetric blocks
# (structured_codes), whose automorphism groups have order at least the
# product of the factorials of the block lengths.  These are the queries
# whose search revisits one partial map under many automorphisms: the
# latency tail.  Torsion dimension 8 at n=10 gives 44, 53 and 56 classes and
# 12, 15 and 14 certified inequivalent pairs, with single queries of up to
# about 1 s on the reference machine; torsion dimension 9, and the shapes
# (0, 8), (7, 1) and (8, 0), reach 5 to 60 s per query, which one run could
# not hold.
STRUCTURED_SHAPES = (
    (2, 10, 2, 6),
    (2, 10, 3, 5),
    (2, 10, 4, 4),
)

# codes drawn per round, and rounds at most, when looking for
# weight-enumerator collisions between inequivalent codes
_ROUND = 100
_MAX_ROUNDS = 30
_MIN_CLASS_PAIRS = 10


# -- F_p linear algebra ---------------------------------------------------------


def rref(p: int, rows, n: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon basis of the row space of ``rows``."""
    work = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [(inv * v) % p for v in work[rank]]
        for i in range(len(work)):
            c = work[i][col]
            if i != rank and c:
                work[i] = [(a - c * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return tuple(tuple(r) for r in work[:rank])


def span(p: int, basis, n: int) -> list[tuple[int, ...]]:
    words = [(0,) * n]
    for row in basis:
        words = [
            tuple((w + c * v) % p for w, v in zip(word, row))
            for c in range(p)
            for word in words
        ]
    return words


def weight_enumerator(words, n: int) -> tuple[int, ...]:
    counts = [0] * (n + 1)
    for word in words:
        counts[n - word.count(0)] += 1
    return tuple(counts)


def hull_dim(p: int, basis) -> int:
    """dim(C cap C^dual) = k - rank(G G^T); invariant under monomial maps for
    p in {2, 3}, where every unit squares to 1."""
    gram = [[sum(a * b for a, b in zip(x, y)) % p for y in basis] for x in basis]
    return len(basis) - len(rref(p, gram, len(basis))) if basis else 0


def _profile(words, n: int) -> list[list[int]]:
    """Per coordinate j, the weight distribution of the codewords nonzero at j."""
    per_coord = [[0] * (n + 1) for _ in range(n)]
    for word in words:
        w = n - word.count(0)
        for j, v in enumerate(word):
            if v:
                per_coord[j][w] += 1
    return per_coord


def _coset_enumerators(p: int, n: int, rwords, twords) -> list[list[int]]:
    """Sorted weight enumerators of the cosets of R in T."""
    seen: set = set()
    out = []
    for x in twords:
        if x in seen:
            continue
        coset = [tuple((a + b) % p for a, b in zip(x, y)) for y in rwords]
        seen.update(coset)
        out.append(list(weight_enumerator(coset, n)))
    return sorted(out)


@dataclass(frozen=True, eq=False)
class Code:
    """An E_p code as its (residue, torsion) RREF pair, with both spans."""

    p: int
    n: int
    residue: tuple
    torsion: tuple
    rwords: list
    twords: list

    @classmethod
    def of(cls, p: int, n: int, residue, torsion) -> "Code":
        return cls(p, n, residue, torsion, span(p, residue, n), span(p, torsion, n))

    @cached_property
    def enumerators(self) -> tuple:
        return weight_enumerator(self.rwords, self.n), weight_enumerator(self.twords, self.n)

    @cached_property
    def certificate(self) -> list:
        """Equivalence invariants that equivalent_ep never consults.

        A monomial map permutes coordinates, keeps supports and carries
        cosets of R in T to cosets, so the joint per-coordinate support
        profile of (R, T) and the coset weight enumerators are invariant for
        every p; the hull dimensions are invariant for p in {2, 3}.
        """
        p, n = self.p, self.n
        joint = sorted(zip(_profile(self.rwords, n), _profile(self.twords, n)))
        return [
            hull_dim(p, self.residue),
            hull_dim(p, self.torsion),
            [list(x) for x in joint],
            _coset_enumerators(p, n, self.rwords, self.twords),
        ]


# -- structured codes -------------------------------------------------------------

# basis rows of the block codes of length b: the whole space, the sum-zero
# code, the repetition code and the zero code
def _block_basis(p: int, b: int, kind: str) -> list[list[int]]:
    if kind == "full":
        return [[int(i == j) for j in range(b)] for i in range(b)]
    if kind == "sum0":
        return [[1] + [0] * (i - 1) + [p - 1] + [0] * (b - 1 - i) for i in range(1, b)]
    if kind == "rep":
        return [[1] * b]
    return []


def _block_pairs(p: int, b: int) -> list[tuple[str, str]]:
    """(torsion kind, residue kind) with residue inside torsion; the torsion
    block is the whole space or the sum-zero code, whose columns are pairwise
    independent, so its symmetric group is not collapsed by the search's
    merging of proportional columns."""
    pairs = [("full", r) for r in ("full", "sum0", "rep", "zero")]
    pairs += [("sum0", r) for r in ("sum0", "zero")]
    if b % p == 0:
        pairs.append(("sum0", "rep"))
    return pairs


def _partitions(n: int, smallest: int):
    """Partitions of n into parts >= smallest, parts in non-increasing order."""
    if n == 0:
        yield ()
        return
    for part in range(n, smallest - 1, -1):
        for rest in _partitions(n - part, smallest):
            if not rest or rest[0] <= part:
                yield (part,) + rest


def structured_codes(p: int, n: int, m1: int, m2: int) -> list[Code]:
    """Every direct sum of blocks of length >= 2 whose torsion block is the
    whole space or the sum-zero code, with dim R = m1 and dim T = m1 + m2,
    one code per certificate.

    Such a code is fixed by every permutation inside a block and by the
    exchange of equal blocks, so its automorphism group has order at least
    the product of the factorials of the block lengths.
    """
    out: dict[str, Code] = {}
    for parts in _partitions(n, 2):
        lengths = sorted(set(parts))
        choices = [
            itertools.combinations_with_replacement(_block_pairs(p, b), parts.count(b))
            for b in lengths
        ]
        for combo in itertools.product(*choices):
            rrows, trows, off = [], [], 0
            for b, kinds in zip(lengths, combo):
                for tk, rk in kinds:
                    trows += [[0] * off + row + [0] * (n - off - b) for row in _block_basis(p, b, tk)]
                    rrows += [[0] * off + row + [0] * (n - off - b) for row in _block_basis(p, b, rk)]
                    off += b
            if len(rrows) != m1 or len(trows) != m1 + m2:
                continue
            code = Code.of(p, n, rref(p, rrows, n), rref(p, trows, n))
            out.setdefault(json.dumps(code.certificate), code)
    return [out[key] for key in sorted(out)]


# -- codes and matrices ---------------------------------------------------------


def random_code(rng: random.Random, p: int, n: int, m1: int, m2: int) -> Code:
    """A uniformly drawn generating set, reduced to (residue, torsion)."""
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m1 + m2)]
        residue = rref(p, rows[:m1], n)
        torsion = rref(p, rows, n)
        if len(residue) == m1 and len(torsion) == m1 + m2:
            return Code.of(p, n, residue, torsion)


def _token(u: int, v: int, p: int) -> str:
    """Token of the E_p element u*r + v*t, written i*r + j*s."""
    i, j = (u + v) % p, (-v) % p

    def coef(c: int) -> str:
        return "" if c == 1 else str(c)

    if not (i or j):
        return "0"
    if j == 0:
        return coef(i) + "r"
    if i == 0:
        return coef(j) + "s"
    return f"{coef(i)}r+{coef(j)}s"


def matrix_rows(rng: random.Random, code: Code):
    """Generators of rR + tT as rows of t-adic pairs (u, v) = u*r + v*t.

    Each residue generator a becomes the row r*a + t*b for a random torsion
    word b, and each torsion generator c becomes t*c, so the program sees
    neither the RREF bases nor the split into residue and torsion parts.
    """
    p, n = code.p, code.n
    rows = []
    for a in _mix(rng, p, code.residue, n):
        rows.append(list(zip(a, rng.choice(code.twords))))
    for c in _mix(rng, p, code.torsion, n):
        rows.append([(0, y) for y in c])
    rng.shuffle(rows)
    return rows


def matrix_text(p: int, n: int, rows) -> str:
    lines = [f"p={p} n={n}"] + [" ".join(_token(u, v, p) for u, v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _mix(rng: random.Random, p: int, basis, n: int):
    """An invertible random recombination of ``basis``."""
    k = len(basis)
    while True:
        coef = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
        if len(rref(p, coef, k)) == k:
            break
    return [
        tuple(sum(c * row[j] for c, row in zip(line, basis)) % p for j in range(n))
        for line in coef
    ]


def random_map(rng: random.Random, p: int, n: int):
    """A random monomial map over E_p: a permutation and scales u*r + v*t
    with u != 0 and a random t-part v."""
    perm = list(range(n))
    rng.shuffle(perm)
    scales = [(rng.randrange(1, p), rng.randrange(p)) for _ in range(n)]
    return perm, scales


def apply_map(p: int, perm, scales, rows):
    """Transport y[perm[i]] = x[i] * scale[perm[i]] of every generator.

    E_p multiplies as x * e = alpha(e) x, and alpha(u*r + v*t) = u."""
    out = []
    for row in rows:
        y = [None] * len(row)
        for i, (u, v) in enumerate(row):
            a = scales[perm[i]][0]
            y[perm[i]] = ((a * u) % p, (a * v) % p)
        out.append(y)
    return out


# -- the batch --------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    stratum: str  # "random" or "structured"
    p: int
    n: int
    first: str
    second: str
    equivalent: bool
    certificate: tuple  # (first's, second's) for inequivalent pairs


def _inequivalent_pairs(rng: random.Random, p: int, n: int, m1: int, m2: int, count: int):
    """Pairs with equal (m1, m2) and weight enumerators but distinct
    certificates.

    Codes are drawn in rounds and bucketed by their weight enumerators until
    the buckets hold ``count`` pairs of certificate classes, or the rounds run
    out; small shapes have few classes, and then class pairs repeat with
    other codes drawn from the two classes.
    """
    buckets: dict[tuple, dict[tuple, list]] = {}
    for _ in range(_MAX_ROUNDS):
        for _ in range(_ROUND):
            code = random_code(rng, p, n, m1, m2)
            bucket = buckets.setdefault(code.enumerators, {})
            bucket.setdefault((code.residue, code.torsion), [code, None])
        candidates = []
        for we in sorted(buckets):
            if len(buckets[we]) < 2:
                continue
            classes: dict[str, list] = {}
            for entry in buckets[we].values():
                if entry[1] is None:
                    entry[1] = json.dumps(entry[0].certificate)
                classes.setdefault(entry[1], []).append(entry[0])
            keys = sorted(classes)
            for i in range(len(keys)):
                for j in range(i + 1, len(keys)):
                    candidates.append((classes[keys[i]], classes[keys[j]]))
        if len(candidates) >= count:
            break
    if len(candidates) < min(count, _MIN_CLASS_PAIRS):
        raise RuntimeError(
            f"only {len(candidates)} certified inequivalent class pairs at "
            f"p={p} n={n} m1={m1} m2={m2}"
        )
    if len(candidates) >= count:
        picks = rng.sample(candidates, count)
    else:
        picks = rng.choices(candidates, k=count)
    return [(rng.choice(a), rng.choice(b)) for a, b in picks]


def _equivalent_query(rng: random.Random, stratum: str, code: Code) -> Query:
    p, n = code.p, code.n
    rows = matrix_rows(rng, code)
    image = apply_map(p, *random_map(rng, p, n), rows)
    rng.shuffle(image)
    return Query(stratum, p, n, matrix_text(p, n, rows), matrix_text(p, n, image), True, ())


def _inequivalent_query(rng: random.Random, stratum: str, a: Code, b: Code) -> Query:
    p, n = a.p, a.n
    first = matrix_text(p, n, matrix_rows(rng, a))
    second = matrix_text(p, n, matrix_rows(rng, b))
    return Query(stratum, p, n, first, second, False, (a.certificate, b.certificate))


def make_batch(seed: int, shapes=BATCH_SHAPES, structured=STRUCTURED_SHAPES) -> list[Query]:
    """The seeded query list; the same seed gives the same list.

    The random stratum draws its codes from the seed.  The structured
    stratum is the same for every seed, maps and matrices included, so that
    its tail is a fixed load that moves only when the search does (the
    latency of one such query depends mostly on the map that hides it): it
    holds each code once as an equivalent pair, and as many inequivalent
    pairs, which take the pairs of codes with equal weight enumerators in
    turn.  The seed also fixes the order of the batch.
    """
    rng = random.Random(seed)
    batch: list[Query] = []
    for p, n, m1, m2, pairs in shapes:
        half = pairs // 2
        for _ in range(half):
            batch.append(_equivalent_query(rng, "random", random_code(rng, p, n, m1, m2)))
        for a, b in _inequivalent_pairs(rng, p, n, m1, m2, pairs - half):
            batch.append(_inequivalent_query(rng, "random", a, b))
    fixed = random.Random(0)
    for p, n, m1, m2 in structured:
        codes = structured_codes(p, n, m1, m2)
        pairs = [
            (a, b)
            for i, a in enumerate(codes)
            for b in codes[i + 1:]
            if a.enumerators == b.enumerators
        ]
        for i, code in enumerate(codes):
            batch.append(_equivalent_query(fixed, "structured", code))
            batch.append(_inequivalent_query(fixed, "structured", *pairs[i % len(pairs)]))
    rng.shuffle(batch)
    return batch


def batch_digest(batch: list[Query]) -> str:
    blob = json.dumps([asdict(q) for q in batch], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# -- automorphisms ------------------------------------------------------------------


def automorphisms(code: Code, limit: int) -> int:
    """The number of automorphisms of (R, T) that permute its classes of
    proportional columns, counted up to ``limit`` and modulo the p - 1
    scalar maps.

    Monomial maps over E_p act on (R, T) through the unit part of their
    scales.  equivalent_ep merges zero columns and columns that are joint
    scalar multiples of each other, so the symmetries inside such a class
    cost its search nothing; this counts the rest: maps of one
    representative column per class onto another of the same class size.
    The search assigns representatives in order and keeps a partial map
    only while it carries the projections of R and T on the assigned
    columns onto the projections on their images, and only between columns
    with equal support profiles.
    """
    p, n = code.p, code.n
    joint = [tuple(row[j] for row in code.residue + code.torsion) for j in range(n)]
    size: dict[tuple, int] = {}
    reps: dict[tuple, int] = {}
    for j, col in enumerate(joint):
        lead = next((v for v in col if v), 0)
        if not lead:
            continue
        key = tuple(v * pow(lead, p - 2, p) % p for v in col)
        size[key] = size.get(key, 0) + 1
        reps.setdefault(key, j)
    cols = [reps[key] for key in sorted(reps)]
    per_coord = list(zip(_profile(code.rwords, n), _profile(code.twords, n)))
    profile = [json.dumps([size[key], per_coord[j]]) for key, j in zip(sorted(reps), cols)]
    codes = [{tuple(w[j] for j in cols) for w in words} for words in (code.rwords, code.twords)]
    m = len(cols)
    found = 0

    def rec(images: list[int], scales: list[int]) -> None:
        nonlocal found
        i = len(images)
        if i == m:
            found += 1
            return
        for target in range(m):
            if target in images or profile[target] != profile[i]:
                continue
            for d in range(1, p):
                img = images + [target]
                scl = scales + [d]
                if all(
                    {tuple(x[a] * s % p for a, s in zip(range(i + 1), scl)) for x in words}
                    == {tuple(x[b] for b in img) for x in words}
                    for words in codes
                ):
                    rec(img, scl)
                if found >= limit * (p - 1):
                    return

    rec([], [])
    return found // (p - 1) if m else 1


def report(batch: list[Query], limit: int = 1000) -> list[str]:
    """Per stratum and kind of pair: the share of first codes with an
    automorphism beyond the merging of proportional columns and the scalar
    maps, and the median number of such automorphisms, counted up to
    ``limit``."""
    groups: dict[tuple, list[int]] = {}
    for q in batch:
        key = (q.stratum, q.p, q.n, "equivalent" if q.equivalent else "inequivalent")
        groups.setdefault(key, []).append(automorphisms(_parse_text(q.p, q.n, q.first), limit))
    lines = []
    for (stratum, p, n, kind), counts in sorted(groups.items()):
        counts.sort()
        median = counts[len(counts) // 2]
        lines.append(
            f"{stratum} p={p} n={n} {kind}: {len(counts)} pairs, "
            f"{sum(c > 1 for c in counts) / len(counts):.1%} with nontrivial automorphisms, "
            f"median {median}{'+' if median >= limit else ''}, largest {counts[-1]}"
            f"{'+' if counts[-1] >= limit else ''}"
        )
    return lines


def _parse_text(p: int, n: int, text: str) -> Code:
    """(R, T) of a generator matrix written by matrix_text."""
    tokens = {_token(u, v, p): (u, v) for u in range(p) for v in range(p)}
    rows = [[tokens[t] for t in line.split()] for line in text.splitlines()[1:]]
    residue = rref(p, [[u for u, _ in row] for row in rows], n)
    torsion = rref(p, list(residue) + [[v for _, v in row] for row in rows], n)
    return Code.of(p, n, residue, torsion)


if __name__ == "__main__":
    import sys

    for line in report(make_batch(int(sys.argv[1]) if len(sys.argv) > 1 else 1)):
        print(line)
