"""Classification pipelines against the bundled tables at small lengths."""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from epcodes import (
    BudgetExceeded,
    FpCode,
    equiv,
    equivalent_fp,
    MdsStatus,
    Verdict,
    canonical_form,
    canonical_form_free,
    classify,
    classify_budget,
    classify_lcd,
    classify_left_self_dual,
    classify_mds_amds_lcd,
    classify_self_dual,
    load_table,
    right_self_dual_report,
    ternary_lcd_lower_bound,
    verify_table,
)
from epcodes.classify import CLASSIFY_KINDS
from epcodes.cli import main
from epcodes.fp import iter_pivot_patterns


def _row_key(row):
    code = row.matrix.code()
    if code.is_free:
        return canonical_form_free(code.residue)[0]
    return canonical_form(code)[0]


def test_lcd_totals_match_the_published_counts():
    t1, t2 = load_table(1), load_table(2)
    for n in range(1, 6):
        assert classify_lcd(2, n).total == t1.total(n)
    for n in range(1, 5):
        assert classify_lcd(3, n).total == t2.total(n)


def test_lcd_distance_tallies_match():
    t3, t4 = load_table(3), load_table(4)
    for n in range(1, 6):
        counts = classify_lcd(2, n).distance_counts()
        assert tuple(counts.get(d, 0) for d in range(1, n + 1)) == t3.by_distance(n)
    counts = classify_lcd(3, 4).distance_counts()
    assert tuple(counts.get(d, 0) for d in range(1, 5)) == t4.by_distance(4)


def test_every_lcd_record_is_a_free_lcd_code():
    for cls_ in (classify_lcd(2, 4), classify_lcd(3, 3)):
        assert cls_.seen_total == cls_.total
        for rec in cls_.records:
            code = rec.representative.code()
            assert code.is_lcd and rec.lcd
            assert code.is_free or code.is_zero()
            assert rec.d == code.min_distance
            assert rec.key is not None


def test_records_are_sorted_and_self_describing():
    cls_ = classify_lcd(2, 4)
    keys = [rec.key for rec in cls_.records]
    assert keys == sorted(keys)
    for rec in cls_.records:
        code = rec.representative.code()
        assert (rec.m1, rec.m2) == (code.m1, code.m2)
        assert rec.mds_status is code.mds_status
        data = rec.to_json_dict()
        assert data["key"] == rec.key.hex()
        assert data["generators"] == rec.representative.token_rows()


def test_mds_amds_subset_matches_table_5_blocks():
    t5 = load_table(5)
    for n in range(1, 5):
        cls_ = classify_mds_amds_lcd(2, n)
        assert cls_.keys() == {_row_key(row) for row in t5.block(n)}
        want = sorted((row.d, row.status.name) for row in t5.block(n))
        got = sorted((rec.d, rec.mds_status.name) for rec in cls_.records)
        assert got == want


def test_mds_amds_subset_matches_table_6_blocks():
    t6 = load_table(6)
    for n in range(1, 5):
        cls_ = classify_mds_amds_lcd(3, n)
        assert cls_.keys() == {_row_key(row) for row in t6.block(n)}


def test_left_self_dual_classification():
    assert classify_left_self_dual(2, 3).records == ()
    assert "odd" in classify_left_self_dual(2, 3).note
    two = classify_left_self_dual(2, 2)
    assert two.total == 1 and two.seen_total == 1
    assert two.records[0].mds_status is MdsStatus.MDS
    assert two.records[0].left_self_dual
    # at length 6 the only class is neither MDS nor AMDS
    six = classify_left_self_dual(2, 6)
    assert six.total == 0 and six.seen_total == 1
    assert classify_left_self_dual(3, 2).seen_total == 0
    t8 = load_table(8)
    four = classify_left_self_dual(3, 4)
    assert four.keys() == {_row_key(row) for row in t8.block(4)}


def test_self_dual_classification_matches_tables_9_and_10():
    t9, t10 = load_table(9), load_table(10)
    for p, n, table, want_total, want_seen in (
        (2, 2, t9, 2, 2),
        (2, 4, t9, 2, 4),
        (3, 2, t10, 1, 1),
        (3, 4, t10, 1, 3),
    ):
        cls_ = classify_self_dual(p, n)
        assert (cls_.total, cls_.seen_total) == (want_total, want_seen)
        assert cls_.keys() == {_row_key(row) for row in table.block(n)}
    # self-dual codes exist at odd lengths but are never MDS or AMDS
    odd = classify_self_dual(3, 3)
    assert odd.total == 0 and odd.seen_total > 0


def test_classification_is_worker_invariant(monkeypatch):
    monkeypatch.setattr(classify, "_cache", {})
    one = classify_lcd(2, 4, workers=1)
    classify._cache.clear()
    many = classify_lcd(2, 4, workers=3)
    assert one == many


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps
    in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args, chunksize=1):
        return map(fn, args)


def test_worker_count_is_capped_at_the_cpu_count(monkeypatch):
    # a huge count must never reach the pool, which forks every worker at once
    monkeypatch.setattr(classify, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(classify.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(classify, "_cache", {})
    one = classify_lcd(2, 4, workers=1)
    classify._cache.clear()
    huge = classify_lcd(2, 4, workers=10**6)
    assert _SerialPool.sizes == [3]
    assert huge == one


def test_pool_gets_one_shard_per_dimension(monkeypatch):
    # an orbit never leaves its dimension, so a dimension is split only when
    # there are fewer dimensions than workers, and then into ceil(workers /
    # dimensions) slices; every pivot pattern is walked by exactly one shard
    for name, p, n, cpus in (
        ("self-dual", 3, 4, 2),  # 3 dimensions, 2 workers: one shard each
        ("lcd", 2, 4, 3),  # 5 dimensions, 3 workers
        ("self-dual", 2, 4, 5),  # 3 dimensions, 5 workers: 2 slices each
        ("left-self-dual", 3, 4, 2),  # 1 dimension, 2 workers: 2 slices
    ):
        with monkeypatch.context() as m:
            _check_shard_plan(m, name, p, n, cpus)


def _check_shard_plan(monkeypatch, name, p, n, cpus):
    monkeypatch.setattr(classify, "_cache", {})
    serial = classify._census(name, p, n, 1, True)
    census = classify.CENSUSES[name]
    mapped, walked = [], []  # each shard and the pivot patterns it walks

    def recording_walk(p, n, pivots):
        walked[-1].append(pivots)
        return census.walk(p, n, pivots)

    class _RecordingPool(_SerialPool):
        def map(self, fn, shards, chunksize=1):
            assert chunksize == 1
            for shard in shards:
                mapped.append(shard)
                walked.append([])
                yield fn(shard)

    monkeypatch.setitem(classify.CENSUSES, name, replace(census, walk=recording_walk))
    monkeypatch.setattr(classify, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(classify.os, "cpu_count", lambda: cpus)
    classify._cache.clear()
    pooled = classify._census(name, p, n, cpus, True)
    assert pooled == serial
    dims = list(census.dims(p, n))
    slices = 1 if len(dims) >= cpus else -(-cpus // len(dims))
    shard_dims = [shard[3] for shard in mapped]
    assert sorted(shard_dims) == sorted(dims * slices)
    for k, patterns in zip(shard_dims, walked):
        assert all(len(q) == k for q in patterns)
    every = [q for patterns in walked for q in patterns]
    assert sorted(every) == sorted(q for k in dims for q in iter_pivot_patterns(n, k))


def test_pooled_runs_do_not_share_walked_orbits(monkeypatch):
    # the in-process pool runs every shard in this process, so a set of met
    # bases that outlived its shard would empty the second census
    monkeypatch.setattr(classify, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(classify.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(classify, "_cache", {})
    first = classify_lcd(2, 5, workers=2)
    classify._cache.clear()
    second = classify_lcd(2, 5, workers=2)
    assert first == second and first.total == load_table(1).total(5)


def _orbit_census_cases():
    yield from (("lcd", 2, n) for n in range(1, 6))
    yield from (("lcd", 3, n) for n in range(1, 5))
    yield from (("left-self-dual", 2, 6), ("self-dual", 2, 6), ("self-dual", 3, 4))


def test_orbit_skipping_keeps_every_record(monkeypatch):
    # canonicalizing every residue, as before orbits were skipped, gives the
    # same records; the partition certificate cannot hold for one-residue
    # "orbits", so it is switched off for that reference run only
    monkeypatch.setattr(classify, "_cache", {})
    cases = list(_orbit_census_cases())
    skipping = [classify._census(*case, 1, True) for case in cases]
    classify._cache.clear()
    monkeypatch.setattr(classify, "monomial_orbit", lambda c: {c.basis})
    with pytest.raises(RuntimeError, match="orbits of"):
        classify._census("lcd", 2, 3, 1, True)
    monkeypatch.setattr(classify, "_check_partition", lambda *args: None)
    every = [classify._census(*case, 1, True) for case in cases]
    assert [c.records for c in every] == [c.records for c in skipping]


def test_one_search_per_class_on_either_path(monkeypatch):
    searches = []
    real = classify._canonical

    def counting(code):
        searches.append(code)
        return real(code)

    monkeypatch.setattr(classify, "_canonical", counting)
    monkeypatch.setattr(classify, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(classify.os, "cpu_count", lambda: 2)
    for workers in (1, 2):
        monkeypatch.setattr(classify, "_cache", {})
        for name, p, n in _orbit_census_cases():
            searches.clear()
            total = classify._census(name, p, n, workers, True).total
            # a class met in two slices of one dimension is still searched once
            assert len(searches) == total


def test_partition_certificate_catches_a_residue_walked_twice(monkeypatch):
    census = classify.CENSUSES["lcd"]

    def twice_at_the_empty_pattern(p, n, pivots):
        yield from census.walk(p, n, pivots)
        if not pivots:
            yield from census.walk(p, n, pivots)

    doubled = replace(census, walk=twice_at_the_empty_pattern)
    monkeypatch.setitem(classify.CENSUSES, "lcd", doubled)
    monkeypatch.setattr(classify, "_cache", {})
    with pytest.raises(RuntimeError, match="hold 4 residues, but the walk emitted 5"):
        classify_lcd(2, 2)


def test_classification_cache_returns_the_same_object(monkeypatch):
    a = classify_lcd(2, 3)
    assert classify_lcd(2, 3) is a
    monkeypatch.setattr(classify, "_cache", {})
    assert classify_lcd(2, 3) == a


def test_budget_refusals_and_force():
    with pytest.raises(BudgetExceeded) as err:
        classify_lcd(2, 9)
    assert err.value.largest_feasible == 7
    with pytest.raises(BudgetExceeded):
        classify_lcd(3, 7)
    with pytest.raises(BudgetExceeded):
        classify_self_dual(3, 8)
    # force lifts the gate; the odd-length theorem then answers instantly
    forced = classify_left_self_dual(3, 7, force=True)
    assert forced.records == () and "odd" in forced.note


def test_each_census_takes_its_own_budget(monkeypatch):
    monkeypatch.setattr(classify, "_cache", {})
    # lcd at p=2 n=8 takes half a minute, so its budget stops at 7
    with pytest.raises(BudgetExceeded) as err:
        classify_lcd(2, 8)
    assert err.value.largest_feasible == 7
    with pytest.raises(BudgetExceeded):
        classify_mds_amds_lcd(3, 7)
    # one search per orbit keeps p=2 n=10 left self-dual within its budget
    assert classify_left_self_dual(2, 10).total == 0
    # the odd-length shortcut passes the same gate
    with pytest.raises(BudgetExceeded) as err:
        classify_left_self_dual(3, 9)
    assert err.value.largest_feasible == 8
    assert set(classify._cache) == {
        ("left-self-dual", 2, 10), ("mds-amds-left-self-dual", 2, 10)
    }


def test_readme_prints_the_budgets_the_code_keeps():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    # the census table: one row per census, naming the kinds that share it
    header, _, *rows = [line for line in readme.splitlines() if line.startswith("|")]
    primes = [int(p) for p in re.findall(r"p = (\d+)", header)]
    printed = {}
    for row in rows:
        label, *cells = [cell.strip() for cell in row.strip("|").split("|")]
        for kind in re.findall(r"`([a-z-]+)`", label):
            if kind in CLASSIFY_KINDS:
                printed[kind] = dict(zip(primes, map(int, cells)))
    assert printed == {
        kind: {p: classify_budget(kind, p) for p in (2, 3)} for kind in CLASSIFY_KINDS
    }
    # the CANON_BUDGET sentence, the per-prime numbers and the rest
    (numbers,) = re.findall(r"`CANON_BUDGET` \(([^)]*)\)", " ".join(readme.split()))
    at_p = {int(p): int(n) for n, p in re.findall(r"n = (\d+) at p = (\d+)", numbers)}
    assert at_p == equiv.CANON_BUDGET
    (other,) = re.findall(r"n = (\d+) at larger p", numbers)
    for p in (5, 7, 11, 13):
        with pytest.raises(BudgetExceeded) as err:
            equivalent_fp(FpCode.zero(p, 20), FpCode.zero(p, 20))
        assert err.value.largest_feasible == int(other)


def test_lengths_below_one_are_rejected_before_any_work(monkeypatch):
    monkeypatch.setattr(classify, "_cache", {})
    for fn in CLASSIFY_KINDS.values():
        for n in (0, -1):
            with pytest.raises(ValueError, match="length must be positive"):
                fn(2, n)
            with pytest.raises(ValueError, match="length must be positive"):
                fn(3, n, force=True)
    assert classify._cache == {}


def test_classification_requires_p_2_or_3():
    assert [classify_budget(kind, 2) for kind in sorted(CLASSIFY_KINDS)] == [7, 10, 7, 8]
    assert [classify_budget(kind, 3) for kind in sorted(CLASSIFY_KINDS)] == [6, 8, 6, 6]
    for kind in CLASSIFY_KINDS:
        with pytest.raises(ValueError):
            classify_budget(kind, 5)
    with pytest.raises(ValueError):
        classify_lcd(5, 2)
    with pytest.raises(ValueError):
        classify_self_dual(7, 2)
    with pytest.raises(ValueError):
        classify_lcd(2, 3, workers=0)
    with pytest.raises(ValueError):
        classify_left_self_dual(2, 3, workers=-1)
    with pytest.raises(ValueError):
        verify_table(10, workers=0)


def test_right_self_dual_reports():
    rep = right_self_dual_report(2, 2)
    assert rep.mds_status is MdsStatus.AMDS and rep.uniqueness_checked
    assert right_self_dual_report(2, 1).mds_status is MdsStatus.NEITHER
    assert right_self_dual_report(3, 3).mds_status is MdsStatus.NEITHER
    assert not right_self_dual_report(3, 3).uniqueness_checked
    assert right_self_dual_report(3, 2).record.d == 1
    # generic in p: only the classification pipelines are restricted
    assert right_self_dual_report(5, 2).mds_status is MdsStatus.AMDS


def test_ternary_lower_bound():
    assert ternary_lcd_lower_bound(1) == 2
    for n in range(1, 5):
        assert ternary_lcd_lower_bound(n) <= classify_lcd(3, n).total
    with pytest.raises(BudgetExceeded):
        ternary_lcd_lower_bound(7)


def test_verify_table_counts_confirmed_at_reduced_scope():
    report = verify_table(1, max_n=4)
    assert report.confirmed and report.acceptable
    checked = [v for v in report.verdicts if v.verdict is Verdict.CONFIRMED]
    skipped = [v for v in report.verdicts if v.verdict is Verdict.SKIPPED]
    assert len(checked) == 4 and len(skipped) == 9
    report3 = verify_table(3, max_n=4)
    assert report3.confirmed


def test_verify_table_5_small_scope():
    report = verify_table(5, max_n=4)
    assert report.confirmed
    labels = {v.label for v in report.verdicts}
    assert "n=4 census" in labels and "n=4 #1" in labels


def test_verify_table_7_reports_the_known_defect(monkeypatch):
    report = verify_table(7, max_n=4)
    assert not report.confirmed
    assert report.acceptable
    flagged = [v for v in report.verdicts if v.verdict is Verdict.DISCREPANCY]
    assert len(flagged) == 1
    bad = flagged[0]
    assert bad.known and bad.label == "n=8 #1 (printed)"
    for phrase in ("rows 3 and 4", "coordinate 7", "weight-1", "self-orthogonal"):
        assert phrase in bad.detail
    corrected = [v for v in report.verdicts if v.label == "n=8 #2 (corrected)"]
    assert corrected[0].verdict is Verdict.CONFIRMED
    # the explanation is the one listed for this (table, row), {d} filled in
    key = (7, "n=8 #1 (printed)")
    monkeypatch.setitem(classify.KNOWN_DISCREPANCIES, key, "stand-in, distance {d}")
    (bad,) = [v for v in verify_table(7, max_n=4).verdicts if v.known]
    assert bad.detail == "stand-in, distance 1"


def test_default_verify_scope_is_the_budget_cut_to_the_printed_range(monkeypatch):
    # widening the default scope of any table is a deliberate change here
    scope = {}

    def record(table, limit, workers):
        scope[table.table_id] = limit

    monkeypatch.setattr(classify, "_verify_counts", record)
    monkeypatch.setattr(classify, "_verify_matrices", record)
    for t in range(1, 11):
        verify_table(t)
    assert scope == {1: 7, 2: 6, 3: 7, 4: 6, 5: 6, 6: 6, 7: 10, 8: 8, 9: 6, 10: 4}
    assert [load_table(t).last_n for t in range(1, 11)] == [13, 10, 13, 10, 6, 6, 12, 12, 6, 4]


def test_verify_lengths_past_the_printed_range_are_skipped(monkeypatch):
    calls = []
    real = classify.classify_self_dual

    def spy(p, n, **kwargs):
        calls.append((p, n))
        return real(p, n, **kwargs)

    monkeypatch.setitem(classify.CLASSIFY_KINDS, "self-dual", spy)
    # table 9 stops at n = 6; the census at n = 8 would find a real AMDS
    # class the paper never claimed to list
    report = verify_table(9, max_n=8)
    assert report.confirmed
    assert (2, 8) not in calls and (2, 6) in calls
    (row,) = [v for v in report.verdicts if v.label == "n=8 census"]
    assert row.verdict is Verdict.SKIPPED and row.detail == "beyond the printed range"


def test_verify_max_n_lifts_the_census_budget(monkeypatch):
    monkeypatch.setitem(classify.CENSUSES["lcd"].budget, 3, 2)
    with pytest.raises(BudgetExceeded):
        classify_lcd(3, 3)

    def census(report):
        return {v.label: v.verdict for v in report.verdicts if v.label.endswith("census")}

    # the default scope follows the budget; an explicit max_n runs past it
    assert census(verify_table(6))["n=3 census"] is Verdict.SKIPPED
    assert census(verify_table(6, max_n=3))["n=3 census"] is Verdict.CONFIRMED


def test_verify_table_10_full():
    report = verify_table(10)
    assert report.confirmed
    assert any("even-length" in note for note in report.notes)


def test_verify_table_rejects_unknown_ids():
    with pytest.raises(ValueError):
        verify_table(12)


def test_verify_table_rejects_a_scope_below_one(monkeypatch):
    # a scope below one would verify no census and report every row SKIPPED
    monkeypatch.setattr(classify, "_cache", {})
    for max_n in (0, -3):
        with pytest.raises(ValueError, match="max_n must be at least 1"):
            verify_table(10, max_n=max_n)
    assert classify._cache == {}
    assert verify_table(10, max_n=1).confirmed


def test_left_self_dual_walks_only_lengths_that_hold_a_self_dual_residue(monkeypatch):
    # a ternary self-dual code needs n = 0 mod 4, so n = 2 mod 4 plans no shard
    census = classify.CENSUSES["left-self-dual"]
    assert [tuple(census.dims(2, n)) for n in range(1, 7)] == [(), (1,), (), (2,), (), (3,)]
    assert [tuple(census.dims(3, n)) for n in range(1, 9)] == [(), (), (), (2,), (), (), (), (4,)]
    monkeypatch.setattr(classify, "_cache", {})
    walked = {n: classify._census("left-self-dual", 3, n, 1, True) for n in (2, 6)}
    # the old rule walked dimension n/2 at every even length and found nothing
    old = replace(census, dims=lambda p, n: () if n % 2 else (n // 2,))
    monkeypatch.setitem(classify.CENSUSES, "left-self-dual", old)
    classify._cache.clear()
    for n, result in walked.items():
        assert classify._census("left-self-dual", 3, n, 1, True) == result
        assert result.records == ()

    def no_walk(p, n, pivots):
        raise AssertionError(f"walked p={p} n={n}")

    monkeypatch.setitem(classify.CENSUSES, "left-self-dual", replace(census, walk=no_walk))
    monkeypatch.setattr(classify, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(classify.os, "cpu_count", lambda: 2)
    for p, n in ((2, 5), (3, 6), (3, 10)):
        for workers in (1, 2):
            classify._cache.clear()
            assert classify._census("left-self-dual", p, n, workers, True).records == ()


def test_left_self_dual_census_is_the_free_part_of_the_self_dual_census(monkeypatch):
    # the lift (s, s.dual) of a self-dual residue s is the free code (s, s)
    monkeypatch.setattr(classify, "_cache", {})
    for p, lengths in ((2, (2, 4, 6, 8)), (3, (2, 4, 6))):
        for n in lengths:
            left = classify._census("left-self-dual", p, n, 1, True)
            both = classify._census("self-dual", p, n, 1, True)
            assert left.records == tuple(rec for rec in both.records if rec.free)


def test_lcd_census_at_p2_n4_pins_the_benchmark_counts(monkeypatch):
    # the per-layer invariants of the benchmark's smoke test: every subspace
    # of F_2^4 walked, and one is_lcd hit and one canonical search per class
    counts = {"walked": 0, "searches": 0, "hits": 0}
    walk, search = classify.iter_subspaces_with_pivots, classify.canonical_form_free
    is_lcd = FpCode.is_lcd.fget

    def counting_walk(p, n, pivots):
        for code in walk(p, n, pivots):
            counts["walked"] += 1
            yield code

    def counting_search(*args):
        counts["searches"] += 1
        return search(*args)

    def counting_is_lcd(code):
        hit = is_lcd(code)
        counts["hits"] += hit
        return hit

    monkeypatch.setattr(classify, "iter_subspaces_with_pivots", counting_walk)
    monkeypatch.setattr(classify, "canonical_form_free", counting_search)
    monkeypatch.setattr(FpCode, "is_lcd", property(counting_is_lcd))
    monkeypatch.setattr(classify, "_cache", {})
    result = classify._census("lcd", 2, 4, 1, True)
    # 1 + 15 + 35 + 15 + 1 subspaces of F_2^4, of which 10 classes are LCD
    assert counts == {"walked": 67, "searches": 10, "hits": 10}
    assert result.total == 10


def test_verify_reports_a_census_that_misses_a_printed_class(monkeypatch, capsys):
    real = classify.CLASSIFY_KINDS["self-dual"]

    def short(p, n, **kwargs):
        full = real(p, n, **kwargs)
        return replace(full, records=full.records[:-1]) if n == 2 else full

    monkeypatch.setitem(classify.CLASSIFY_KINDS, "self-dual", short)
    report = verify_table(9, max_n=4)
    assert not report.confirmed and not report.acceptable
    flagged = [v for v in report.verdicts if v.verdict is Verdict.DISCREPANCY]
    assert [(v.label, v.known) for v in flagged] == [("n=2 census", False)]
    assert flagged[0].detail == "1 printed classes unmatched, 0 classes absent from print"
    assert main(["verify-tables", "--table", "9", "--max-n", "4"]) == 1
    assert "1 printed classes unmatched" in capsys.readouterr().out


def test_verify_reports_printed_rows_that_are_equivalent(monkeypatch):
    table = load_table(9)
    first = table.block(2)[0]
    twin = replace(first, index=len(table.block(2)) + 1)
    doubled = replace(table, rows=table.rows + (twin,))
    monkeypatch.setattr(classify, "load_table", lambda table_id: doubled)
    report = verify_table(9, max_n=4)
    assert not report.confirmed and not report.acceptable
    flagged = [v for v in report.verdicts if v.verdict is Verdict.DISCREPANCY]
    assert [(v.label, v.known) for v in flagged] == [("n=2 inequivalence", False)]
    assert flagged[0].detail == f"{first.label} and {twin.label} are monomially equivalent"
    # the census still matches, since the twin adds no class
    (census,) = [v for v in report.verdicts if v.label == "n=2 census"]
    assert census.verdict is Verdict.CONFIRMED
