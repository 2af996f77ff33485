"""Bundled reference tables and their loader.

The package ships the published classification tables as plain-text
fixtures under ``epcodes/data``.  Tables 1-4 are count tables; tables
5-10 list generator matrices in the element token grammar; their
``last-n`` header line gives the last length the paper covers, since a
length without a block may hold no such code or lie past the printed
range.  Matrix blocks may carry a variant marker:

* ``printed``   - kept verbatim although known to be defective,
* ``corrected`` - replacement for the preceding printed block,
* ``completed`` - printed block whose truncated matrix was completed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

from .code import EpGenMatrix
from .fp import MdsStatus

COUNT_TABLE_IDS = (1, 2, 3, 4)
MATRIX_TABLE_IDS = (5, 6, 7, 8, 9, 10)
TABLE_IDS = COUNT_TABLE_IDS + MATRIX_TABLE_IDS

_BLOCK_RE = re.compile(
    r"^\[n=(\d+) d=(\d+) (MDS|AMDS)( printed| corrected| completed)?\]$"
)


@dataclass(frozen=True)
class CountTable:
    """A table of class counts, keyed by length."""

    table_id: int
    p: int
    kind: str
    cells: dict[int, tuple[str, ...]]

    def lengths(self) -> tuple[int, ...]:
        return tuple(sorted(self.cells))

    def total(self, n: int) -> int:
        (cell,) = self.cells[n]
        return int(cell)

    @property
    def last_n(self) -> int:
        """The last length the paper covers: a count table prints every row."""
        return max(self.cells)

    def by_distance(self, n: int) -> tuple[int, ...]:
        """Counts N1..Nn with printed dashes read as zero."""
        return tuple(0 if c == "-" else int(c) for c in self.cells[n])


@dataclass(frozen=True)
class TableRow:
    """One generator matrix block of a matrix table."""

    n: int
    d: int
    status: MdsStatus
    variant: str
    index: int
    matrix: EpGenMatrix

    @property
    def label(self) -> str:
        tag = f" ({self.variant})" if self.variant else ""
        return f"n={self.n} #{self.index}{tag}"


@dataclass(frozen=True)
class MatrixTable:
    """A table of generator matrices grouped by length, covering lengths up
    to ``last_n``."""

    table_id: int
    p: int
    kind: str
    rows: tuple[TableRow, ...]
    last_n: int

    def lengths(self) -> tuple[int, ...]:
        return tuple(sorted({row.n for row in self.rows}))

    def block(self, n: int) -> tuple[TableRow, ...]:
        return tuple(row for row in self.rows if row.n == n)


def _data_lines(table_id: int) -> list[str]:
    name = f"table{table_id:02d}.txt"
    text = resources.files("epcodes.data").joinpath(name).read_text("utf-8")
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line:
            lines.append(line)
    return lines


def _header(lines: list[str], table_id: int, size: int) -> tuple[dict[str, str], list[str]]:
    kv = dict(item.split(None, 1) for item in lines[:size])
    if int(kv["table"]) != table_id:
        raise ValueError(f"fixture announces table {kv['table']}, wanted {table_id}")
    return kv, lines[size:]


def load_table(table_id: int) -> CountTable | MatrixTable:
    """Load one bundled table by its published number."""
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table id {table_id}; valid ids are 1..10")
    counts = table_id in COUNT_TABLE_IDS
    # table, p and kind; a matrix fixture adds last-n
    kv, lines = _header(_data_lines(table_id), table_id, 3 if counts else 4)
    p, kind = int(kv["p"]), kv["kind"]
    if counts:
        cells: dict[int, tuple[str, ...]] = {}
        for line in lines:
            head, *rest = line.split()
            m = re.match(r"^n=(\d+)$", head)
            if m is None or not rest:
                raise ValueError(f"bad count line in table {table_id}: {line!r}")
            cells[int(m.group(1))] = tuple(rest)
        return CountTable(table_id, p, kind, cells)

    rows: list[TableRow] = []
    block: tuple[int, int, MdsStatus, str] | None = None
    matrix_lines: list[str] = []
    indices: dict[int, int] = {}

    def flush() -> None:
        if block is None:
            return
        n, d, status, variant = block
        if not matrix_lines:
            raise ValueError(f"empty matrix block in table {table_id}")
        indices[n] = indices.get(n, 0) + 1
        rows.append(
            TableRow(
                n, d, status, variant, indices[n],
                EpGenMatrix.from_token_rows(p, matrix_lines, n),
            )
        )

    for line in lines:
        m = _BLOCK_RE.match(line)
        if m:
            flush()
            variant = (m.group(4) or "").strip()
            block = (int(m.group(1)), int(m.group(2)), MdsStatus[m.group(3)], variant)
            matrix_lines = []
        else:
            if block is None:
                raise ValueError(f"matrix row outside a block in table {table_id}")
            matrix_lines.append(line)
    flush()
    return MatrixTable(table_id, p, kind, tuple(rows), int(kv["last-n"]))
