from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import pytest

from sqlmend.schema_catalog import build_cell_index, load_catalog

EPISODE_DDL = """
CREATE TABLE episode (
    id INTEGER PRIMARY KEY,
    title TEXT,
    air_date TEXT,
    written_by TEXT,
    directed_by TEXT
);
CREATE TABLE pairing (
    id INTEGER PRIMARY KEY,
    episode_id INTEGER REFERENCES episode(id),
    guest TEXT,
    rating REAL
);
CREATE TABLE network (
    id INTEGER PRIMARY KEY,
    name TEXT
);
"""

EPISODE_ROWS = [
    (1, "A Love of a Lifetime", "2009-09-24", "Todd Casey", "Chris Fisher"),
    (2, "Double Down", "2009-10-01", "Chris Dingess", "Nathan Hope"),
    (3, "The Firefly", "2009-10-08", "Todd Casey", "Terrence O'Hara"),
    (4, "Revenge of Broken Jaw", "2010-03-12", "Juan Carlos Coto", "Chris Fisher"),
    (5, "Bloodlines", "2009-11-05", "Dan Dworkin", "Fred Toye"),
]

PAIRING_ROWS = [
    (1, 1, "Moon Bloodgood", 7.5),
    (2, 2, "Garret Dillahunt", 8.1),
    (3, 3, "Moon Bloodgood", 7.9),
]

NETWORK_ROWS = [(1, "Fox"), (2, "ABC")]


def make_db(path: Path, ddl: str, rows: dict[str, list[tuple]] | None = None) -> Path:
    conn = sqlite3.connect(path)
    try:
        conn.executescript(ddl)
        for table, table_rows in (rows or {}).items():
            if not table_rows:
                continue
            placeholders = ", ".join("?" * len(table_rows[0]))
            conn.executemany(f"INSERT INTO {table} VALUES ({placeholders})", table_rows)
        conn.commit()
    finally:
        conn.close()
    return path


@pytest.fixture(scope="session")
def episode_db(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("db") / "episodes.sqlite"
    return make_db(path, EPISODE_DDL, {
        "episode": EPISODE_ROWS,
        "pairing": PAIRING_ROWS,
        "network": NETWORK_ROWS,
    })


@pytest.fixture(scope="session")
def episode_catalog(episode_db):
    return load_catalog(episode_db)


@pytest.fixture(scope="session")
def episode_index(episode_db, episode_catalog):
    return build_cell_index(episode_catalog, episode_db)


# Mixed-case names: each foreign key spells its columns in another case
# than their declarations, and album's lowercase name sorts after Genre's
# in binary order but before it case-folded.
MUSIC_DDL = """
CREATE TABLE Artist (ArtistId INTEGER PRIMARY KEY, Name TEXT);
CREATE TABLE Genre (GenreId INTEGER PRIMARY KEY, Name TEXT);
CREATE TABLE album (
    AlbumId INTEGER PRIMARY KEY,
    Title TEXT,
    artistid INTEGER REFERENCES Artist(artistID),
    GenreID INTEGER REFERENCES genre(GENREID)
);
"""

MUSIC_ROWS = {
    "Artist": [(1, "AC/DC"), (2, "Accept")],
    "Genre": [(1, "Rock")],
    "album": [(1, "Let There Be Rock", 1, 1), (2, "Balls to the Wall", 2, 1)],
}


@pytest.fixture(scope="session")
def music_db(tmp_path_factory) -> Path:
    return make_db(tmp_path_factory.mktemp("db") / "music.sqlite", MUSIC_DDL, MUSIC_ROWS)


@pytest.fixture(scope="session")
def music_catalog(music_db):
    return load_catalog(music_db)


@pytest.fixture()
def tmp_db(tmp_path):
    def build(ddl: str, rows: dict[str, list[tuple]] | None = None,
              name: str = "fixture.sqlite") -> Path:
        return make_db(tmp_path / name, ddl, rows)

    return build


# ---------------------------------------------------------------------------
# A tiny benchmark dataset in the standard layout
# ---------------------------------------------------------------------------

SHOWS_DDL = """
CREATE TABLE show (
    id INTEGER PRIMARY KEY,
    title TEXT,
    air_date TEXT,
    viewers REAL
);
"""

SHOWS_ROWS = [
    (1, "A Love of a Lifetime", "2009-09-24", 5.2),
    (2, "Double Down", "2009-10-01", 4.8),
    (3, "The Firefly", "2009-10-08", 5.0),
]


def write_dataset(root: Path, examples: list[dict], db_id: str, ddl: str,
                  rows: dict[str, list[tuple]]) -> Path:
    db_dir = root / "database" / db_id
    db_dir.mkdir(parents=True, exist_ok=True)
    make_db(db_dir / f"{db_id}.sqlite", ddl, rows)
    dataset = root / "examples.json"
    dataset.write_text(json.dumps(examples, indent=1), encoding="utf-8")
    return dataset


@pytest.fixture()
def toy_dataset(tmp_path) -> Path:
    examples = [
        {"id": "e0", "db_id": "shows",
         "question": "When did the episode \"A Love of a Lifetime\" air?",
         "gold_sql": "SELECT air_date FROM show WHERE title = 'A Love of a Lifetime'"},
        {"id": "e1", "db_id": "shows",
         "question": "How many shows are there?",
         "gold_sql": "SELECT COUNT(*) FROM show"},
        {"id": "e2", "db_id": "shows",
         "question": "List all titles.",
         "gold_sql": "SELECT title FROM show"},
    ]
    return write_dataset(tmp_path, examples, "shows", SHOWS_DDL, {"show": SHOWS_ROWS})
