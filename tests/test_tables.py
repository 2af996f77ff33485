"""Bundled reference tables: loading, shape and internal consistency."""

import pytest

from epcodes import CountTable, MatrixTable, MdsStatus, load_table, tables


def test_all_tables_load(monkeypatch):
    for table_id in range(1, 11):
        table = load_table(table_id)
        assert table.table_id == table_id
    with pytest.raises(ValueError):
        load_table(11)
    with pytest.raises(ValueError):
        load_table(0)
    # a malformed fixture is reported against its table
    counts = ["table 1", "p 2", "kind lcd-totals"]
    matrices = ["table 5", "p 2", "kind mds-amds-lcd", "last-n 4"]
    for table_id, lines, message in (
        (1, ["table 2", "p 2", "kind lcd-totals"], "fixture announces table 2, wanted 1"),
        (1, counts + ["n=1"], "bad count line in table 1: 'n=1'"),
        (1, counts + ["m=1 2"], "bad count line in table 1: 'm=1 2'"),
        (5, matrices + ["[n=2 d=2 MDS]", "[n=2 d=1 AMDS]", "r 0"], "empty matrix block"),
        (5, matrices + ["[n=2 d=2 MDS]"], "empty matrix block in table 5"),
        (5, matrices + ["r r"], "matrix row outside a block in table 5"),
    ):
        monkeypatch.setattr(tables, "_data_lines", lambda _, lines=lines: lines)
        with pytest.raises(ValueError, match=message):
            load_table(table_id)


def test_count_table_shapes():
    t1, t2 = load_table(1), load_table(2)
    assert isinstance(t1, CountTable) and t1.p == 2 and t1.kind == "lcd-totals"
    assert t1.lengths() == tuple(range(1, 14))
    assert t2.p == 3 and t2.lengths() == tuple(range(1, 11))
    t3, t4 = load_table(3), load_table(4)
    assert t3.kind == "lcd-by-distance" and t3.lengths() == tuple(range(1, 14))
    assert t4.lengths() == tuple(range(1, 11))


def test_published_totals_spot_values():
    t1, t2 = load_table(1), load_table(2)
    assert [t1.total(n) for n in range(1, 7)] == [2, 3, 6, 10, 18, 34]
    assert t1.total(13) == 30620
    assert [t2.total(n) for n in range(1, 6)] == [2, 4, 6, 12, 24]
    assert t2.total(10) == 5590


def test_published_distance_rows_spot_values():
    t3, t4 = load_table(3), load_table(4)
    assert t3.by_distance(6) == (18, 11, 3, 0, 1, 0)
    assert t3.by_distance(3) == (3, 1, 1)
    assert t4.by_distance(5) == (12, 8, 1, 1, 1)
    # dashes in print parse as zero
    assert t4.by_distance(4) == (6, 4, 0, 1)
    assert t3.by_distance(6)[3] == 0


def test_distance_rows_sum_to_totals_minus_zero_code():
    # the by-distance rows omit the zero code, the totals include it
    t1, t3 = load_table(1), load_table(3)
    for n in t3.lengths():
        assert sum(t3.by_distance(n)) + 1 == t1.total(n)
    t2, t4 = load_table(2), load_table(4)
    for n in t4.lengths():
        assert sum(t4.by_distance(n)) + 1 == t2.total(n)


def test_matrix_table_shapes():
    expected = {
        5: (2, "mds-amds-lcd", 28, (1, 2, 3, 4, 5, 6)),
        6: (3, "mds-amds-lcd", 39, (1, 2, 3, 4, 5, 6)),
        7: (2, "mds-amds-left-self-dual", 4, (2, 4, 8)),
        8: (3, "mds-amds-left-self-dual", 2, (4, 12)),
        9: (2, "mds-amds-self-dual", 4, (2, 4)),
        10: (3, "mds-amds-self-dual", 2, (2, 4)),
    }
    for table_id, (p, kind, count, lengths) in expected.items():
        table = load_table(table_id)
        assert isinstance(table, MatrixTable)
        assert (table.p, table.kind) == (p, kind)
        assert len(table.rows) == count
        assert table.lengths() == lengths
        assert max(lengths) <= table.last_n


def test_matrix_rows_parse_and_match_headers():
    for table_id in range(5, 11):
        table = load_table(table_id)
        labels = set()
        for row in table.rows:
            code = row.matrix.code()
            assert code.p == table.p and code.n == row.n
            assert row.status in (MdsStatus.MDS, MdsStatus.AMDS)
            assert 1 <= row.d <= row.n
            assert row.label not in labels
            labels.add(row.label)


def test_variant_rows_where_expected():
    variants = {
        (table_id, row.variant)
        for table_id in range(5, 11)
        for row in load_table(table_id).rows
        if row.variant
    }
    assert variants == {(6, "completed"), (7, "printed"), (7, "corrected")}
    seven = load_table(7)
    printed = [r for r in seven.rows if r.variant == "printed"]
    corrected = [r for r in seven.rows if r.variant == "corrected"]
    assert len(printed) == 1 and printed[0].n == 8
    assert len(corrected) == 1 and corrected[0].n == 8
    assert printed[0].label == "n=8 #1 (printed)"


def test_table_blocks():
    t5 = load_table(5)
    assert [len(t5.block(n)) for n in range(1, 7)] == [1, 2, 4, 6, 6, 9]
    assert t5.block(7) == ()
    t9 = load_table(9)
    assert [row.d for row in t9.block(2)] == [2, 1]
    assert [row.status for row in t9.block(2)] == [MdsStatus.MDS, MdsStatus.AMDS]
