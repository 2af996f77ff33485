"""Brute-force reference implementations used to cross-check the library.

Everything here recomputes arithmetic, duals, closures and spans from the
definitions alone: ring elements are (i, j) coefficient pairs over the
basis (r, s), multiplication is expanded bilinearly through the defining
relations, and searches walk the full ambient space.  Deliberately slow,
usable only at tiny lengths.
"""

from itertools import permutations, product

# defining relations on the basis: r*r=r, r*s=r, s*r=s, s*s=s
_BASIS_MUL = {
    ("r", "r"): "r",
    ("r", "s"): "r",
    ("s", "r"): "s",
    ("s", "s"): "s",
}

ZERO = (0, 0)


def add_e(p, a, b):
    return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)


def mul_e(p, a, b):
    """Bilinear expansion of (a_r r + a_s s)(b_r r + b_s s)."""
    acc = {"r": 0, "s": 0}
    left = {"r": a[0], "s": a[1]}
    right = {"r": b[0], "s": b[1]}
    for x, y in product("rs", repeat=2):
        acc[_BASIS_MUL[x, y]] += left[x] * right[y]
    return (acc["r"] % p, acc["s"] % p)


def alpha(p, e):
    return (e[0] + e[1]) % p


def all_elements(p):
    return [(i, j) for i in range(p) for j in range(p)]


def vadd(p, x, y):
    return tuple(add_e(p, a, b) for a, b in zip(x, y))


def lmul(p, lam, x):
    return tuple(mul_e(p, lam, a) for a in x)


def rmul(p, x, lam):
    return tuple(mul_e(p, a, lam) for a in x)


def inner(p, x, y):
    acc = ZERO
    for a, b in zip(x, y):
        acc = add_e(p, acc, mul_e(p, a, b))
    return acc


def weight(x):
    return sum(1 for a in x if a != ZERO)


def all_vectors(p, n):
    return list(product(all_elements(p), repeat=n))


def brute_left_dual(p, n, words):
    """All v with <v, c> = 0 for every codeword c, straight from the definition."""
    return {
        v for v in all_vectors(p, n)
        if all(inner(p, v, c) == ZERO for c in words)
    }


def brute_right_dual(p, n, words):
    return {
        v for v in all_vectors(p, n)
        if all(inner(p, c, v) == ZERO for c in words)
    }


def closure(p, n, gens):
    """Smallest set containing gens closed under + and two-sided scaling.

    Scaling distributes over addition, so closing the generators under
    both-sided multiplication first and then taking the additive span is
    exact, and far cheaper than a raw fixpoint sweep.
    """
    scaled = []
    for g in gens:
        g = tuple(g)
        scaled.append(g)
        for lam in all_elements(p):
            scaled.append(lmul(p, lam, g))
            scaled.append(rmul(p, g, lam))
    words = {tuple([ZERO] * n)}
    for g in scaled:
        if g in words:
            continue
        multiples = [g]
        for _ in range(p - 2):
            multiples.append(vadd(p, multiples[-1], g))
        words |= {vadd(p, w, m) for w in words for m in multiples}
    return words


def fp_span(p, rows, n):
    """Every F_p combination of the rows, as a set of tuples."""
    span = set()
    for coeffs in product(range(p), repeat=len(rows)):
        span.add(
            tuple(sum(c * row[k] for c, row in zip(coeffs, rows)) % p for k in range(n))
        )
    if not span:
        span.add(tuple([0] * n))
    return span


def brute_fp_dual(p, n, span_set):
    return {
        v for v in product(range(p), repeat=n)
        if all(sum(a * b for a, b in zip(v, c)) % p == 0 for c in span_set)
    }


def embed_r(p, a):
    """r * a for an F_p vector a: each coordinate a_k * r = (a_k, 0)."""
    return tuple((u % p, 0) for u in a)


def embed_t(p, b):
    """t * b for an F_p vector b: each coordinate b_k * t = (b_k, b_k(p-1))."""
    return tuple((v % p, (v * (p - 1)) % p) for v in b)


def pair_words(p, residue_rows, torsion_rows, n):
    """The codeword set r*R + t*T built from the two spans directly."""
    words = set()
    for a in fp_span(p, residue_rows, n):
        ra = embed_r(p, a)
        for b in fp_span(p, torsion_rows, n):
            words.add(vadd(p, ra, embed_t(p, b)))
    return words


def residue_of(p, words):
    """The alpha image of the codeword set, coordinate by coordinate."""
    return {tuple(alpha(p, a) for a in w) for w in words}


def torsion_of(p, n, words):
    """All F_p vectors v with t*v in the codeword set."""
    return {
        v for v in product(range(p), repeat=n) if embed_t(p, v) in words
    }


def brute_rref(p, rows, n):
    """Reduced row echelon form of the nonzero rows, by plain elimination."""
    work = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        head = pow(work[rank][col], p - 2, p)
        work[rank] = [(head * v) % p for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                c = work[i][col]
                work[i] = [(a - c * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return work[:rank]


def brute_monomial_images(p, n, bases):
    """The images of the codes under each of the (p-1)^n n! monomial maps.

    ``bases`` lists the basis rows of each code.  A map (perm, scale) sends
    x to y with y[perm[i]] = scale[perm[i]] * x[i]; each image is yielded as
    the list of the codes' RREF images, as tuples of rows.
    """
    for perm in permutations(range(n)):
        for scale in product(range(1, p), repeat=n):
            images = []
            for rows in bases:
                mapped = []
                for row in rows:
                    y = [0] * n
                    for i, v in enumerate(row):
                        y[perm[i]] = (scale[perm[i]] * v) % p
                    mapped.append(y)
                images.append(tuple(tuple(r) for r in brute_rref(p, mapped, n)))
            yield images


def brute_canonical_key(p, n, bases):
    """The canonical key straight from its definition.

    ``bases`` lists the basis rows of each code (one code, or the residue
    and torsion of an E_p code).  Every monomial map is applied to every
    code; the image's serialization reads the columns of the RREF images
    one after another, each column joining the codes' entries in order.
    The key is the least serialization over all (p-1)^n n! maps, behind the
    header (p, n, dimension of each code).
    """
    best = None
    for images in brute_monomial_images(p, n, bases):
        ser = [v for j in range(n) for image in images for v in (row[j] for row in image)]
        if best is None or ser < best:
            best = ser
    header = [p, n] + [len(brute_rref(p, rows, n)) for rows in bases]
    return bytes(header + best)
