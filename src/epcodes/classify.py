"""Exhaustive classification and reference-table verification.

LCD, left self-dual and self-dual codes are classified by one pipeline,
driven by a row of :data:`CENSUSES` per kind: for each RREF pivot pattern it
walks the census's residue subspaces, lifts them to E_p and deduplicates
through the canonical form, so the output is independent of walk order and of
the worker count.  The LCD census walks every subspace of the pattern and
keeps those that pass ``is_lcd``; the left self-dual and self-dual censuses
walk only the self-orthogonal ones (``fp.iter_self_orthogonal_with_pivots``),
which prunes a basis row by row, and keep them all.

Each monomial orbit of residues is canonicalized once (orbit-level
generation after McKay, "Isomorph-free exhaustive generation", 1998): a
residue that starts a new class adds its whole orbit
(``equiv.monomial_orbit``) to the set of bases its shard has met, and every
later residue of that orbit is skipped before the census predicate is
asked.  This is exact.  At p = 2 and p = 3, the only moduli classified,
every monomial scaling is an isometry, so each census predicate
(``is_lcd``, self-orthogonality) holds on a whole orbit or nowhere on it,
and each lift (``EpCode.free_code``, s -> (s, s.dual)) commutes with
monomial maps.  Two residues of one orbit therefore lift to one E_p class,
with one canonical key and one representative, and skipping all but the
first loses no class and changes no record.  The orbit sizes of the
classes, one per key, must sum to the residues walked, which certifies
that the orbits partition the walk.  An orbit never leaves its dimension,
so a shard is one dimension and owns its set of met bases; only a census
with fewer dimensions than workers splits a dimension into slices, which
may each search a class once.  The algorithms are unbounded in n; the
``budget`` of each census row is only a guardrail against runs that cannot
finish at desk scale, and it is the one length gate of its census: the
``classify_*`` functions, the ternary bound and the default scope of the
table verifier all read it.
"""

from __future__ import annotations

import enum
import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from math import factorial
from typing import Callable, Iterable

from .code import EpCode, EpGenMatrix
from .equiv import (
    BudgetExceeded,
    canonical_form,
    canonical_form_free,
    monomial_orbit,
)
from .fp import (
    FpCode,
    Mat,
    MdsStatus,
    Vec,
    iter_pivot_patterns,
    iter_self_orthogonal_with_pivots,
    iter_subspaces,
    iter_subspaces_with_pivots,
)
from .tables import CountTable, MatrixTable, TableRow, load_table

# (table, label) of the rows that are defective in print, with the reason;
# their discrepancy is a confirmed finding, not a verification failure, and
# {d} stands for the recomputed minimum distance
KNOWN_DISCREPANCIES = {
    (7, "n=8 #1 (printed)"): (
        "rows 3 and 4 differ only in coordinate 7, so the residue code contains "
        "the weight-1 vector e_7 and cannot be self-orthogonal; as printed the "
        "matrix spans a code with minimum distance {d} that is not left self-dual"
    ),
}


def validate_workers(workers: int) -> None:
    """Reject worker counts below one."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")


@dataclass(frozen=True)
class ClassRecord:
    """One equivalence class, carried by its canonical representative."""

    p: int
    n: int
    representative: EpGenMatrix
    d: int | None
    m1: int
    m2: int
    free: bool
    lcd: bool
    left_self_dual: bool
    right_self_dual: bool
    self_dual: bool
    mds_status: MdsStatus
    key: bytes | None

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "generators": self.representative.token_rows(),
            "d": self.d,
            "m1": self.m1,
            "m2": self.m2,
            "free": self.free,
            "lcd": self.lcd,
            "left_self_dual": self.left_self_dual,
            "right_self_dual": self.right_self_dual,
            "self_dual": self.self_dual,
            "mds": self.mds_status.name,
            "key": self.key.hex() if self.key is not None else None,
        }


def _record(code: EpCode, key: bytes | None) -> ClassRecord:
    return ClassRecord(
        p=code.p,
        n=code.n,
        representative=code.generator_matrix(),
        d=code.min_distance,
        m1=code.m1,
        m2=code.m2,
        free=code.is_free,
        lcd=code.is_lcd,
        left_self_dual=code.is_left_self_dual,
        right_self_dual=code.is_right_self_dual,
        self_dual=code.is_self_dual,
        mds_status=code.mds_status,
        key=key,
    )


def _validate(rec: ClassRecord) -> ClassRecord:
    """Recompute every field from the representative; mismatches are bugs."""
    rebuilt = _record(rec.representative.code(), rec.key)
    if replace(rebuilt, representative=rec.representative) != rec:
        raise RuntimeError(f"class record failed self-validation: {rec}")
    return rec


@dataclass(frozen=True)
class Classification:
    """Deduplicated classes for one (kind, p, n), sorted by canonical key."""

    kind: str
    p: int
    n: int
    records: tuple[ClassRecord, ...]
    seen_total: int
    note: str = ""

    @property
    def total(self) -> int:
        return len(self.records)

    def distance_counts(self) -> dict[int, int]:
        """Classes per minimum distance; the zero code has none and is skipped."""
        counts: dict[int, int] = {}
        for rec in self.records:
            if rec.d is not None:
                counts[rec.d] = counts.get(rec.d, 0) + 1
        return counts

    def keys(self) -> set[bytes]:
        return {rec.key for rec in self.records}


# -- the census table ------------------------------------------------------------


@dataclass(frozen=True)
class Census:
    """How one kind of code is classified: for each pivot pattern of dimension
    in ``dims(n)``, the residues that ``walk(p, n, pivots)`` yields and
    ``keep`` accepts are lifted by ``lift``, every class found must satisfy
    ``check``, and ``noun`` names the classes in report notes.  The walk,
    ``keep`` and ``lift`` commute with monomial maps, so one canonical search
    per orbit of kept residues serves the whole orbit, and a residue already
    met is skipped before ``keep`` is asked.  ``budget`` maps each supported
    p to the largest n classified without force."""

    dims: Callable[[int], Iterable[int]]
    walk: Callable[[int, int, Vec], Iterable[FpCode]]
    keep: Callable[[FpCode], bool]
    lift: Callable[[FpCode], EpCode]
    check: Callable[[EpCode], bool]
    noun: str
    budget: dict[int, int]


# The cost of each census at its budget and past it (the next even length
# for the self-dual kinds), one in-process run each with force=True and one
# worker (2-CPU x86-64, Python 3.11):
#   lcd             p=2  n=7 1.5 s, n=8 22 s      p=3  n=6 3.3 s, n=7 133 s
#   left-self-dual  p=2  n=10 0.47 s, n=12 29 s   p=3  n=8 0.30 s, n=10 37 s
#   self-dual       p=2  n=8 0.30 s, n=10 12 s    p=3  n=6 0.05 s, n=8 6.5 s
# With one canonical search per class, the time goes to the walk and to
# marking orbits.  Odd lengths hold no left self-dual code, and at p=3 none
# of length 6 or 10.
CENSUSES = {
    # LCD codes are exactly the free lifts r*G of the LCD codes over F_p
    "lcd": Census(
        dims=lambda n: range(n + 1),
        # called through the module name, which perfbench's tracer rebinds
        walk=lambda p, n, pivots: iter_subspaces_with_pivots(p, n, pivots),
        keep=lambda s: s.is_lcd,
        lift=EpCode.free_code,
        check=lambda c: c.is_lcd,
        noun="LCD",
        budget={2: 7, 3: 6},
    ),
    # left self-dual codes are the free lifts of self-dual residue codes, so
    # only dimension n/2 of an even length contributes
    "left-self-dual": Census(
        dims=lambda n: () if n % 2 else (n // 2,),
        walk=iter_self_orthogonal_with_pivots,
        keep=lambda s: True,
        lift=EpCode.free_code,
        check=lambda c: c.is_left_self_dual,
        noun="left self-dual",
        budget={2: 10, 3: 8},
    ),
    # self-dual codes are the pairs (R, dual(R)) with R self-orthogonal
    "self-dual": Census(
        dims=lambda n: range(n // 2 + 1),
        walk=iter_self_orthogonal_with_pivots,
        keep=lambda s: True,
        lift=lambda s: EpCode(s, s.dual),
        check=lambda c: c.is_self_dual and c.is_qsd and c.cardinality_exp == c.n,
        noun="self-dual",
        budget={2: 8, 3: 6},
    ),
}


def classify_budget(kind: str, p: int) -> int:
    """Largest length the census behind a ``CLASSIFY_KINDS`` name classifies
    without force; ``mds-amds-lcd`` filters the LCD census.  Only p = 2 and
    p = 3 can be classified at all: for larger primes the scalings of the
    monomial group are not isometries, so LCD and self-dual classes have
    representatives that need not satisfy the defining predicate."""
    budget = CENSUSES[kind.removeprefix("mds-amds-")].budget
    if p not in budget:
        raise ValueError(
            f"classification supports p in (2, 3) only, got {p!r}; monomial "
            "scalings preserve the inner product just for these moduli"
        )
    return budget[p]


def _check_request(kind: str, p: int, n: int, workers: int = 1, force: bool = False) -> None:
    """The one gate of a census request, passed before any work or caching."""
    validate_workers(workers)
    limit = classify_budget(kind, p)
    if n < 1:
        raise ValueError(f"length must be positive, got {n!r}")
    if not force and n > limit:
        raise BudgetExceeded(
            f"classification refused at n={n} for p={p}; largest feasible n is {limit}",
            largest_feasible=limit,
        )


def _canonical(code: EpCode) -> tuple[bytes, EpCode]:
    """Canonical key and representative; free codes take the residue search.

    Passing n as the cap lifts the canonical budget: every census is gated
    by its own budget, which is never above it, and the verifier
    canonicalizes only printed rows.
    """
    if code.is_free:
        return canonical_form_free(code.residue, code.n)
    return canonical_form(code, code.n)


# -- the pipeline ----------------------------------------------------------------


# each class's representative and orbit size, by canonical key
_Classes = dict[bytes, tuple[EpCode, int]]


def _shard(args: tuple[str, int, int, int, int, int]) -> tuple[_Classes, int]:
    """Classify the residues of census ``name`` at dimension k, or of slice
    i of its pivot patterns taken round-robin in ``slices``.  A residue in
    the orbit of a class the shard already found is skipped; every new class
    adds its residue's whole orbit to the shard's set of met bases.  Returns
    each new class's representative and orbit size by key, and the number
    of residues walked that ``keep`` accepts, met ones included, since
    ``keep`` holds on a whole orbit."""
    name, p, n, k, i, slices = args
    census = CENSUSES[name]
    seen: set[Mat] = set()
    out: _Classes = {}
    walked = 0
    for pivots in tuple(iter_pivot_patterns(n, k))[i::slices]:
        for sub in census.walk(p, n, pivots):
            if sub.basis in seen:
                walked += 1
            elif census.keep(sub):
                walked += 1
                orbit = monomial_orbit(sub)
                seen |= orbit
                key, rep = _canonical(census.lift(sub))
                out.setdefault(key, (rep, len(orbit)))
    return out, walked


def _merge(shards: Iterable[tuple[_Classes, int]]) -> tuple[_Classes, int]:
    merged: _Classes = {}
    walked = 0
    for out, count in shards:
        walked += count
        for key, entry in out.items():
            merged.setdefault(key, entry)
    return merged, walked


def _run_shards(name: str, p: int, n: int, workers: int) -> tuple[_Classes, int]:
    # the pool forks every worker at once, so never start more than can run
    workers = min(workers, os.cpu_count() or 1)
    # An orbit never leaves its dimension, so a shard is one dimension and
    # searches each class once.  Only a census with fewer dimensions than
    # workers (left self-dual has one) splits them into round-robin slices of
    # their pivot patterns, so that every worker gets a share.
    dims = tuple(CENSUSES[name].dims(n))
    slices = -(-workers // len(dims))
    shards = [(name, p, n, k, i, slices) for k in dims for i in range(slices)]
    workers = min(workers, len(shards))
    if workers <= 1:
        return _merge(map(_shard, shards))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _merge(pool.map(_shard, shards))


def _check_partition(census: Census, merged: _Classes, walked: int) -> None:
    """Certify the skipping in :func:`_shard`: the orbits of the classes,
    one per key, must partition the walked residues, so their sizes sum to
    the number walked.  A residue walked twice, an orbit short of its
    class or an orbit holding a residue the walk never emits breaks it."""
    covered = sum(size for _, size in merged.values())
    if covered != walked:
        raise RuntimeError(
            f"the orbits of {len(merged)} {census.noun} classes hold {covered} "
            f"residues, but the walk emitted {walked}"
        )


_cache: dict[tuple[str, int, int], Classification] = {}


def _census(name: str, p: int, n: int, workers: int, force: bool) -> Classification:
    """Every class of one census, sorted by canonical key; built once per
    (name, p, n), after the request passes the budget."""
    _check_request(name, p, n, workers, force)
    if (name, p, n) not in _cache:
        census = CENSUSES[name]
        merged, walked = _run_shards(name, p, n, workers)
        _check_partition(census, merged, walked)
        for code, _ in merged.values():
            if not census.check(code):
                raise RuntimeError(f"non {census.noun} class emitted: {code}")
        records = tuple(_validate(_record(merged[key][0], key)) for key in sorted(merged))
        _cache[(name, p, n)] = Classification(name, p, n, records, len(records))
    return _cache[(name, p, n)]


def _mds_amds(kind: str, full: Classification) -> Classification:
    """The MDS and AMDS classes of a census, reported as ``kind``; built once."""
    key = ("mds-amds-" + full.kind, full.p, full.n)
    if key not in _cache:
        records = tuple(r for r in full.records if r.mds_status is not MdsStatus.NEITHER)
        note = f"{full.total} {CENSUSES[full.kind].noun} classes in total"
        _cache[key] = Classification(kind, full.p, full.n, records, full.total, note)
    return _cache[key]


def classify_lcd(p: int, n: int, workers: int = 1, force: bool = False) -> Classification:
    """All LCD codes over E_p of length n, up to monomial equivalence."""
    return _census("lcd", p, n, workers, force)


def classify_mds_amds_lcd(
    p: int, n: int, workers: int = 1, force: bool = False
) -> Classification:
    """The MDS/AMDS subset of classify_lcd, one record per class."""
    return _mds_amds("mds-amds-lcd", classify_lcd(p, n, workers, force))


def classify_left_self_dual(
    p: int, n: int, workers: int = 1, force: bool = False
) -> Classification:
    """MDS/AMDS left self-dual codes over E_p of length n; odd lengths are
    empty outright, since a self-dual residue code has dimension n/2."""
    if n % 2:
        _check_request("left-self-dual", p, n, workers, force)
        return Classification(
            "left-self-dual", p, n, (), 0,
            "odd length: a self-dual residue code would need dimension n/2",
        )
    return _mds_amds("left-self-dual", _census("left-self-dual", p, n, workers, force))


def classify_self_dual(
    p: int, n: int, workers: int = 1, force: bool = False
) -> Classification:
    """MDS/AMDS self-dual codes over E_p of length n.

    These codes are generally not free; by the even-length theorem every
    MDS/AMDS class has even n and even torsion excess m2.
    """
    result = _mds_amds("self-dual", _census("self-dual", p, n, workers, force))
    for rec in result.records:
        if rec.n % 2 or rec.m2 % 2:
            raise RuntimeError(f"MDS/AMDS self-dual class with odd shape: {rec}")
    return result


CLASSIFY_KINDS = {
    "lcd": classify_lcd,
    "mds-amds-lcd": classify_mds_amds_lcd,
    "left-self-dual": classify_left_self_dual,
    "self-dual": classify_self_dual,
}


# -- right self-dual codes -------------------------------------------------------


def _iter_pair_codes(p: int, n: int):
    """Every E_p code of length n as a (residue, torsion) pair; small n only."""
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


@dataclass(frozen=True)
class RightSelfDualReport:
    """The unique right self-dual code t*F_p^n and its parameters."""

    p: int
    n: int
    record: ClassRecord
    uniqueness_checked: bool

    @property
    def mds_status(self) -> MdsStatus:
        return self.record.mds_status


def right_self_dual_report(p: int, n: int) -> RightSelfDualReport:
    """Construct t*F_p^n; AMDS exactly at n=2 and never MDS."""
    code = EpCode.t_full(p, n)
    if not code.is_right_self_dual:
        raise RuntimeError("t*F_p^n failed the right self-dual predicate")
    checked = n <= 2
    if checked:
        for other in _iter_pair_codes(p, n):
            if other.is_right_self_dual and other != code:
                raise RuntimeError(f"unexpected right self-dual code: {other}")
    if (code.mds_status is MdsStatus.AMDS) != (n == 2) or code.mds_status is MdsStatus.MDS:
        raise RuntimeError("right self-dual status contradicts the length theorem")
    return RightSelfDualReport(p, n, _record(code, None), checked)


# -- ternary lower bound ---------------------------------------------------------


def ternary_lcd_lower_bound(n: int) -> int:
    """Sum over m of ceil(phi(n, m) / (2^(n-1) n!)) for raw LCD counts phi;
    it walks the subspaces of the LCD census, so it takes that budget."""
    _check_request("lcd", 3, n)
    denom = 2 ** (n - 1) * factorial(n)
    bound = 0
    for m in range(n + 1):
        phi = sum(1 for sub in iter_subspaces(3, n, [m]) if sub.is_lcd)
        bound += -(-phi // denom)
    return bound


# -- table verification ----------------------------------------------------------


class Verdict(enum.Enum):
    CONFIRMED = "confirmed"
    DISCREPANCY = "discrepancy"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class RowVerdict:
    label: str
    verdict: Verdict
    known: bool = False
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "row": self.label,
            "verdict": self.verdict.value,
            "known": self.known,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class TableReport:
    table_id: int
    verdicts: tuple[RowVerdict, ...]
    notes: tuple[str, ...] = ()

    @property
    def confirmed(self) -> bool:
        return all(v.verdict is not Verdict.DISCREPANCY for v in self.verdicts)

    @property
    def acceptable(self) -> bool:
        """True when every discrepancy is a known printed defect."""
        return all(
            v.verdict is not Verdict.DISCREPANCY or v.known for v in self.verdicts
        )


# table kind -> the census that re-derives it and its CLASSIFY_KINDS name
_TABLE_KINDS = {
    "lcd-totals": ("lcd", "lcd"),
    "lcd-by-distance": ("lcd", "lcd"),
    "mds-amds-lcd": ("lcd", "mds-amds-lcd"),
    "mds-amds-left-self-dual": ("left-self-dual", "left-self-dual"),
    "mds-amds-self-dual": ("self-dual", "self-dual"),
}


def _direct_row_check(row: TableRow, census: Census) -> tuple[bool, str]:
    """Check the printed predicate, distance and remark on one matrix."""
    code = row.matrix.code()
    problems = []
    if not census.check(code):
        problems.append(f"not {census.noun}")
    if code.min_distance != row.d:
        problems.append(f"minimum distance is {code.min_distance}, printed {row.d}")
    if code.mds_status is not row.status:
        problems.append(f"status is {code.mds_status.name}, printed {row.status.name}")
    return not problems, "; ".join(problems)


def _verify_counts(table: CountTable, limit: int, workers: int) -> TableReport:
    verdicts = []
    notes = (
        "totals count the zero code as one class",
        "distance rows exclude the zero code; printed dashes are zeros",
    )
    for n in table.lengths():
        if n > limit:
            verdicts.append(
                RowVerdict(
                    f"n={n}", Verdict.SKIPPED,
                    detail="beyond the verification scope; raise max_n to recompute",
                )
            )
            continue
        cls_ = classify_lcd(table.p, n, workers=workers, force=True)
        if table.kind == "lcd-totals":
            want, got = table.total(n), cls_.total
            ok = want == got
            detail = f"recomputed {got}, printed {want}"
        else:
            want = table.by_distance(n)
            counts = cls_.distance_counts()
            got = tuple(counts.get(d, 0) for d in range(1, n + 1))
            ok = want == got
            detail = f"recomputed {got}, printed {want}"
        verdicts.append(
            RowVerdict(f"n={n}", Verdict.CONFIRMED if ok else Verdict.DISCREPANCY, detail=detail)
        )
    return TableReport(table.table_id, tuple(verdicts), notes)


def _verify_matrices(table: MatrixTable, limit: int, workers: int) -> TableReport:
    verdicts: list[RowVerdict] = []
    notes: list[str] = []
    census, kind = _TABLE_KINDS[table.kind]

    for row in table.rows:
        ok, detail = _direct_row_check(row, CENSUSES[census])
        if row.variant == "printed":
            # a known-defective block: confirm the defect, never the row
            reason = KNOWN_DISCREPANCIES.get((table.table_id, row.label))
            if reason is not None:
                detail = reason.format(d=row.matrix.code().min_distance)
            verdicts.append(
                RowVerdict(
                    row.label,
                    Verdict.CONFIRMED if ok else Verdict.DISCREPANCY,
                    known=reason is not None,
                    detail=detail,
                )
            )
            continue
        if row.variant == "completed":
            notes.append(
                f"{row.label}: the published block prints only the first generator; "
                "the bundled completion is the unique class making the block census exact"
            )
        if row.variant == "corrected":
            detail = (detail + "; " if detail else "") + "corrected variant of the printed block"
        verdicts.append(
            RowVerdict(row.label, Verdict.CONFIRMED if ok else Verdict.DISCREPANCY, detail=detail)
        )

    def block(n: int) -> list[TableRow]:
        return [row for row in table.block(n) if row.variant != "printed"]

    @functools.cache
    def block_keys(n: int) -> tuple[bytes, ...]:
        """Canonical keys of a length block, shared by both checks below."""
        return tuple(_canonical(row.matrix.code())[0] for row in block(n))

    for n in table.lengths():
        rows = block(n)
        if len(rows) < 2:
            continue
        keys = {}
        for row, key in zip(rows, block_keys(n)):
            if key in keys:
                verdicts.append(
                    RowVerdict(
                        f"n={n} inequivalence",
                        Verdict.DISCREPANCY,
                        detail=f"{keys[key]} and {row.label} are monomially equivalent",
                    )
                )
            keys[key] = row.label
        if len(keys) == len(rows):
            verdicts.append(
                RowVerdict(
                    f"n={n} inequivalence", Verdict.CONFIRMED,
                    detail=f"{len(rows)} printed classes pairwise inequivalent",
                )
            )

    census_lengths: list[int] = []
    max_len = max(limit, max(table.lengths(), default=0))
    for n in range(1, max_len + 1):
        if n % 2 and table.kind != "mds-amds-lcd":
            continue  # odd lengths are excluded by the even-length theorem
        if n > table.last_n:
            verdicts.append(
                RowVerdict(f"n={n} census", Verdict.SKIPPED, detail="beyond the printed range")
            )
        elif n <= limit:
            census_lengths.append(n)
        else:
            tail = "; the rows above were checked directly" if n in table.lengths() else ""
            verdicts.append(
                RowVerdict(
                    f"n={n} census", Verdict.SKIPPED,
                    detail="beyond the verification scope" + tail,
                )
            )
    # compare each length block in scope against exhaustive classification
    for n in census_lengths:
        cls_ = CLASSIFY_KINDS[kind](table.p, n, workers=workers, force=True)
        fixture_keys = set(block_keys(n))
        label = f"n={n} census" + ("" if fixture_keys else " (absent length)")
        if fixture_keys == cls_.keys():
            noun = "class" if cls_.total == 1 else "classes"
            detail = f"{cls_.total} {noun}, matching the printed block exactly"
            verdicts.append(RowVerdict(label, Verdict.CONFIRMED, detail=detail))
        else:
            missing = len(fixture_keys - cls_.keys())
            extra = len(cls_.keys() - fixture_keys)
            verdicts.append(
                RowVerdict(
                    label,
                    Verdict.DISCREPANCY,
                    detail=f"{missing} printed classes unmatched, {extra} classes absent from print",
                )
            )
    if table.kind != "mds-amds-lcd":
        notes.append(
            "odd lengths are absent by the even-length theorem and were not enumerated"
        )
    return TableReport(table.table_id, tuple(verdicts), tuple(notes))


def verify_table(table_id: int, max_n: int | None = None, workers: int = 1) -> TableReport:
    """Recompute one published table and give every row a verdict.

    The default scope is the census budget at the table's p, cut to the last
    length the paper covers; an explicit ``max_n`` replaces it and lifts the
    budget, so the censuses below run forced.  A discrepancy is a first-class
    result: the report never raises just because print and recomputation
    disagree.
    """
    validate_workers(workers)
    if max_n is not None and max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n!r}")
    table = load_table(table_id)
    kind = _TABLE_KINDS[table.kind][1]
    limit = min(classify_budget(kind, table.p), table.last_n) if max_n is None else max_n
    if isinstance(table, CountTable):
        return _verify_counts(table, limit, workers)
    return _verify_matrices(table, limit, workers)
