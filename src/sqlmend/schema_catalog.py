"""Schema and cell-content extraction from SQLite database files.

The catalog is the read-only ground truth that the inspection tools check
action sequences against: table and column structure with type affinities
and foreign keys, plus an in-memory index of distinct TEXT cells per column.
Both are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import re
import sqlite3
import string
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from .sqllex import quote

DEFAULT_CELL_CAP = 50_000

_BATCH_ROWS = 256  # rows per fetchmany; 1024 was no faster and raised peak memory
_NON_WORD_RE = re.compile(r"\W+")
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


class CorruptDatabase(Exception):
    """The file exists but cannot be read as a SQLite database."""


def affinity_of(declared_type: str) -> str:
    """Map a declared column type to one of the seven affinities."""
    t = (declared_type or "").upper()
    if "INT" in t:
        return "INTEGER"
    if "CHAR" in t or "CLOB" in t or "TEXT" in t:
        return "TEXT"
    if "BOOL" in t:
        return "BOOLEAN"
    if "DATE" in t or "TIME" in t:
        return "DATE"
    if "REAL" in t or "FLOA" in t or "DOUB" in t:
        return "REAL"
    if "NUM" in t or "DEC" in t:
        return "NUMERIC"
    return "OTHER"


def _fold(name: str) -> str:
    """A table or column name as SQLite compares it: A-Z folded to a-z,
    and no other letter (SQLite FAQ, q18). Only this module folds names."""
    # lower() is the same on ASCII and about ten times faster than translate
    return name.lower() if name.isascii() else name.translate(_ASCII_LOWER)


def normalize_cell(text: str) -> str:
    """Normalize a cell value: strip one quote pair, case-fold, collapse
    each run of non-word characters (punctuation, whitespace) to one space.

    Idempotent: the output contains only word characters and single spaces,
    so normalizing it again is a no-op.
    """
    s = text.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "'\"`":
        s = s[1:-1]
    return _NON_WORD_RE.sub(" ", s.casefold()).strip()


@dataclass(frozen=True)
class ColumnInfo:
    name: str
    affinity: str
    is_primary_key: bool = False


@dataclass(frozen=True)
class TableInfo:
    name: str
    columns: tuple[ColumnInfo, ...]

    @cached_property
    def _columns_by_name(self) -> dict[str, ColumnInfo]:
        # reversed, so the first of two colliding names wins
        return {_fold(col.name): col for col in reversed(self.columns)}

    def column(self, name: str) -> ColumnInfo | None:
        return self._columns_by_name.get(_fold(name))

    def has_column(self, name: str) -> bool:
        return self.column(name) is not None


@dataclass(frozen=True)
class ForeignKeyLink:
    table: str
    column: str
    ref_table: str
    ref_column: str


@dataclass(frozen=True)
class Resolution:
    """What SchemaCatalog.resolve decided: a status, plus the owning table
    and column when the status is "ok" or "out_of_scope".
    """

    status: str  # ok | out_of_scope | ambiguous | unknown_table | unknown_column
    table: TableInfo | None = None
    column: ColumnInfo | None = None


@dataclass(frozen=True)
class SchemaCatalog:
    tables: tuple[TableInfo, ...]
    foreign_keys: tuple[ForeignKeyLink, ...]
    source_path: str

    @cached_property
    def _tables_by_name(self) -> dict[str, TableInfo]:
        # reversed, so the first of two colliding names wins
        return {_fold(tab.name): tab for tab in reversed(self.tables)}

    def table(self, name: str) -> TableInfo | None:
        return self._tables_by_name.get(_fold(name))

    def resolve(self, table: str | None, column: str,
                scope: Sequence[str] | None = None) -> Resolution:
        """Decide which table owns a column reference.

        A qualified reference (`table` given) is "ok" when the table and
        its column exist, else "unknown_table" or "unknown_column"; the
        scope plays no part. An unqualified one is "ok" when exactly one
        table owns the column among `scope` (FROM table names: unknown
        names are skipped, a repeated name counts twice), or among the
        whole catalog when `scope` is None, and "ambiguous" when several
        do. When no scope table owns it, it is "out_of_scope" if the
        catalog has exactly one owner, else "unknown_column".
        """
        if table is not None:
            tab = self.table(table)
            if tab is None:
                return Resolution("unknown_table")
            col = tab.column(column)
            return Resolution("ok", tab, col) if col is not None else Resolution("unknown_column")
        tables = self.tables if scope is None else [
            t for t in map(self.table, scope) if t is not None]
        owners = [t for t in tables if t.has_column(column)]
        if len(owners) > 1:
            return Resolution("ambiguous")
        status = "ok"
        if not owners and scope is not None:
            owners, status = [t for t in self.tables if t.has_column(column)], "out_of_scope"
        if len(owners) != 1:
            return Resolution("unknown_column")
        return Resolution(status, owners[0], owners[0].column(column))

    @cached_property
    def fk_pairs(self) -> frozenset[tuple[tuple[str, str], tuple[str, str]]]:
        """Each declared foreign key as a ((table, column), (table, column))
        pair of catalog names, in both directions."""
        return frozenset(pair for fk in self.foreign_keys for pair in (
            ((fk.table, fk.column), (fk.ref_table, fk.ref_column)),
            ((fk.ref_table, fk.ref_column), (fk.table, fk.column))))

    @cached_property
    def fk_neighbors(self) -> dict[str, frozenset[str]]:
        """The table graph: each table's name and the names of the tables
        that a foreign key joins it to, in either direction."""
        graph: dict[str, set[str]] = {t.name: set() for t in self.tables}
        for (table, _column), (ref_table, _ref_column) in self.fk_pairs:
            graph[table].add(ref_table)
        return {table: frozenset(neighbors) for table, neighbors in graph.items()}

    def to_json_dict(self) -> dict:
        return {
            "source": self.source_path,
            "tables": [
                {
                    "name": t.name,
                    "columns": [
                        {"name": c.name, "affinity": c.affinity, "primary_key": c.is_primary_key}
                        for c in t.columns
                    ],
                }
                for t in self.tables
            ],
            "foreign_keys": [
                {
                    "table": fk.table,
                    "column": fk.column,
                    "references_table": fk.ref_table,
                    "references_column": fk.ref_column,
                }
                for fk in self.foreign_keys
            ],
        }


@dataclass(frozen=True)
class ColumnCells:
    table: str
    column: str
    cells: tuple[str, ...]  # distinct raw values, sorted

    def __contains__(self, value: str) -> bool:
        """Whether `value` byte-equals a cell, by binary search."""
        i = bisect_left(self.cells, value)
        return i < len(self.cells) and self.cells[i] == value

    @cached_property
    def postings(self):
        """The retriever's TrigramPostings of these cells, built on first
        use. From Python 3.12 threads that first use it together may each
        build it; the results are equal and one is kept."""
        from .retriever import TrigramPostings  # the retriever imports this module
        return TrigramPostings(self.cells)


class CellIndex:
    """Distinct TEXT-affinity cells per (table, column), as raw strings."""

    def __init__(self, columns: dict[tuple[str, str], ColumnCells]):
        self._columns = dict(columns)

    def column_cells(self, table: str, column: str) -> ColumnCells | None:
        return self._columns.get((_fold(table), _fold(column)))

    def columns(self) -> list[tuple[str, str]]:
        """Indexed (table, column) pairs in original case, sorted."""
        return sorted((c.table, c.column) for c in self._columns.values())


def connect_readonly(db_path: str | Path) -> sqlite3.Connection:
    """Open a database file read-only.

    The path travels as an escaped file: URI, so a ``?`` or ``#`` in it
    stays part of the name; a missing file raises sqlite3.Error instead of
    being created.
    """
    return sqlite3.connect(Path(db_path).resolve().as_uri() + "?mode=ro", uri=True)


def _connect_existing(db_path: str | Path) -> sqlite3.Connection:
    path = Path(db_path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    if path.is_dir():
        raise CorruptDatabase(f"{db_path}: is a directory, not a database file")
    return connect_readonly(path)


def load_catalog(db_path: str | Path) -> SchemaCatalog:
    """Introspect a SQLite file into a SchemaCatalog.

    User tables only; internal sqlite_* tables are excluded. Raises
    FileNotFoundError for a missing path and CorruptDatabase for a file
    that is not a readable database.
    """
    conn = _connect_existing(db_path)
    try:
        try:
            rows = conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
            ).fetchall()
        except sqlite3.DatabaseError as exc:
            raise CorruptDatabase(f"{db_path}: {exc}") from exc

        tables: list[TableInfo] = []
        links: list[ForeignKeyLink] = []
        names = [r[0] for r in rows if not r[0].startswith("sqlite_")]
        infos: dict[str, list[tuple]] = {}
        for name in names:
            infos[name] = conn.execute("PRAGMA table_info(" + quote(name, '"') + ")").fetchall()
        for name in names:
            cols = tuple(
                ColumnInfo(name=row[1], affinity=affinity_of(row[2]), is_primary_key=row[5] > 0)
                for row in infos[name]
            )
            if not cols:
                continue
            tables.append(TableInfo(name=name, columns=cols))
        by_name = {_fold(t.name): t for t in tables}
        for table in tables:
            for row in conn.execute("PRAGMA foreign_key_list(" + quote(table.name, '"') + ")"):
                seq, ref_table, src_col, dst_col = row[1:5]
                target = by_name.get(_fold(ref_table))
                if target is None:
                    continue
                if dst_col is None:  # the seq-th column of the key pairs with the PK's seq-th
                    pks = [r[1] for r in sorted(infos[target.name], key=lambda r: r[5]) if r[5]]
                    if seq >= len(pks):
                        continue
                    dst_col = pks[seq]
                src, dst = table.column(src_col), target.column(dst_col)
                if src is None or dst is None:
                    continue
                # both columns spelled as declared, whatever case the key wrote
                links.append(ForeignKeyLink(table=table.name, column=src.name,
                                            ref_table=target.name, ref_column=dst.name))
        links.sort(key=lambda fk: (fk.table.lower(), fk.column.lower(),
                                   fk.ref_table.lower(), fk.ref_column.lower()))
        return SchemaCatalog(tables=tuple(tables), foreign_keys=tuple(links),
                             source_path=str(db_path))
    finally:
        conn.close()


def _batches(conn: sqlite3.Connection, db_path: str | Path, sql: str):
    """The rows of `sql`, a batch at a time; a failed read is CorruptDatabase."""
    try:
        cursor = conn.execute(sql)
        while rows := cursor.fetchmany(_BATCH_ROWS):
            yield rows
    except sqlite3.DatabaseError as exc:
        raise CorruptDatabase(f"{db_path}: {exc}") from exc


def _most_frequent(conn: sqlite3.Connection, db_path: str | Path, table_sql: str,
                   col_sql: str, cap: int) -> list:
    """The `cap` most frequent non-NULL values of a column, byte-distinct,
    ties to the smaller value in binary order."""
    col = f"{col_sql} COLLATE BINARY"
    sql = (f"SELECT {col}, COUNT(*) AS n FROM {table_sql} WHERE {col} IS NOT NULL "
           f"GROUP BY {col} ORDER BY n DESC, {col} ASC LIMIT {cap}")
    return [value for rows in _batches(conn, db_path, sql) for value, _count in rows]


def build_cell_index(catalog: SchemaCatalog, db_path: str | Path) -> CellIndex:
    """Index distinct non-NULL cells of every TEXT-affinity column.

    Each table is read once. Cells are distinct by their bytes, whatever
    the column's collation. A column with more than DEFAULT_CELL_CAP
    distinct values keeps the most frequent DEFAULT_CELL_CAP of them.
    """
    cap = DEFAULT_CELL_CAP
    conn = _connect_existing(db_path)
    try:
        columns: dict[tuple[str, str], ColumnCells] = {}
        for table in catalog.tables:
            names = [col.name for col in table.columns if col.affinity == "TEXT"]
            if not names:
                continue
            table_sql = quote(table.name, '"')
            # each column's distinct values so far, NULL included; None once
            # there are more than the cap, and _most_frequent reads the column
            seen: list[set | None] = [set() for _ in names]
            col_list = ", ".join(quote(name, '"') for name in names)
            for rows in _batches(conn, db_path, f"SELECT {col_list} FROM {table_sql}"):
                for j, values in enumerate(seen):
                    if values is not None:
                        values.update(map(itemgetter(j), rows))
                        if len(values) > cap:
                            seen[j] = None
                if all(values is None for values in seen):
                    break
            for name, values in zip(names, seen):
                if values is None:
                    values = _most_frequent(conn, db_path, table_sql, quote(name, '"'), cap)
                cells = tuple(sorted(v for v in values if isinstance(v, str)))
                columns[(_fold(table.name), _fold(name))] = ColumnCells(
                    table=table.name, column=name, cells=cells
                )
        return CellIndex(columns)
    finally:
        conn.close()


class Database:
    """A database file, kept as the path given, whose catalog and cell
    index are built on first use by this module's load_catalog and
    build_cell_index. From Python 3.12 threads that first use it together
    may each build it; the results are equal and one is kept.
    """

    def __init__(self, path: str | Path):
        self.path = path

    @cached_property
    def catalog(self) -> SchemaCatalog:
        return load_catalog(self.path)

    @cached_property
    def index(self) -> CellIndex:
        return build_cell_index(self.catalog, self.path)
