"""Seeded synthetic SQLite datasets for the perfbench workloads.

This module imports nothing from ``sqlmend``: the generated inputs depend
only on the workload name, the seed and the size, so a change to the
program cannot change what it is measured on.  Every example carries the
answer known by construction (the final literal, the exact rewritten SQL
where the post-processing contract fixes it, and the EX outcome), which
the harness's correctness gate checks.

Usage: python3 perfbench/generate.py --workload refine-mismatch --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sqlite3
from collections import Counter
from pathlib import Path

WORKLOADS = ("refine-mismatch", "postprocess-rescue", "many-db-matched")
SIZES = ("full", "tiny")

# Cell counts of the shared venue database: region.name, venue.name,
# artist.name (about 100, 2k and 20k distinct cells).
VENUE_DB_CELLS = {"full": (100, 2000, 20000), "tiny": (30, 200, 1000)}
PROBE_CELLS = (1000, 10000, 50000)

# (type, count at full size, count at tiny size).  The shares are fixed so
# that every seed has the same cost classes (cheap: 100-cell column or no
# mismatch; 2k-cell column; 20k-cell column), and the median and p90 of the
# per-example times fall near the middle of one class, where the phase
# noise of a shared machine moves them least.
REFINE_MIX = (("A", 6, 2), ("B", 2, 1), ("E", 2, 1), ("F", 2, 1),  # cheap, 30%
              ("C", 12, 2), ("D", 4, 1),                          # 2k, 40%
              ("G", 4, 1),                                        # 2k x 4 iterations, 10%
              ("H", 8, 2))                                        # 20k, 20%
RESCUE_MIX = (("P3", 8, 2), ("P5", 4, 1),                         # cheap, 30%
              ("P2", 8, 2), ("P4", 8, 2), ("P6", 4, 1),           # 2k, 50%
              ("P1", 8, 2))                                       # 20k, 20%
MANY_DB = {"full": (30, 4), "tiny": (3, 4)}  # databases, examples per database

# Required gap between the right cell's similarity and the runner-up's, so
# float summation order cannot flip the ranking.
MARGIN = 0.02

_PUNCT_RE = re.compile(r"[^\w\s]+", re.UNICODE)
_SPACE_RE = re.compile(r"\s+")


# ---------------------------------------------------------------------------
# Similarity reference (trigram cosine over normalized text)
# ---------------------------------------------------------------------------


def normalize(text: str) -> str:
    s = text.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "'\"`":
        s = s[1:-1]
    s = _PUNCT_RE.sub(" ", s.casefold())
    return _SPACE_RE.sub(" ", s).strip()


def trigrams(text: str) -> Counter:
    norm = normalize(text)
    if not norm:
        return Counter()
    padded = f"  {norm}  "
    return Counter(padded[i:i + 3] for i in range(len(padded) - 2))


class ColumnOracle:
    """Top-2 cells of one column for a literal, from trigram postings."""

    def __init__(self, cells: list[str]):
        self.cells = list(cells)
        self.by_norm = {normalize(c): c for c in self.cells}
        self.norms = []
        self.postings: dict[str, list[tuple[int, int]]] = {}
        for i, cell in enumerate(self.cells):
            profile = trigrams(cell)
            self.norms.append(math.sqrt(sum(w * w for w in profile.values())))
            for gram, weight in profile.items():
                self.postings.setdefault(gram, []).append((i, weight))

    def top2(self, literal: str) -> list[tuple[float, str]]:
        query = trigrams(literal)
        qnorm = math.sqrt(sum(w * w for w in query.values()))
        dots: dict[int, float] = {}
        for gram, weight in query.items():
            for i, cell_weight in self.postings.get(gram, ()):
                dots[i] = dots.get(i, 0.0) + weight * cell_weight
        scored = []
        for i, dot in dots.items():
            if qnorm and self.norms[i]:
                scored.append((min(1.0, dot / (qnorm * self.norms[i])), self.cells[i]))
        exact = self.by_norm.get(normalize(literal))
        if exact is not None:
            scored = [(s, c) for s, c in scored if c != exact] + [(1.0, exact)]
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        while len(scored) < 2:
            scored.append((0.0, ""))
        return scored[:2]

    def unique_best(self, literal: str, cell: str) -> bool:
        (s1, c1), (s2, _c2) = self.top2(literal)
        return c1 == cell and s1 - s2 >= MARGIN


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

_ONSETS = "b c d f g h k l m n p r s t v z br st tr ch sh gr pl kr".split()
_VOWELS = "a e i o u ai ou ia".split()
_CODAS = ["", "", "", "n", "r", "s", "l", "k"]


def make_words(rng: random.Random, n: int) -> list[str]:
    words: list[str] = []
    seen = set()
    while len(words) < n:
        syllables = rng.choice((2, 2, 3))
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
        word = (word + rng.choice(_CODAS)).capitalize()
        if len(word) >= 4 and word not in seen:
            seen.add(word)
            words.append(word)
    return words


def distinct_names(rng: random.Random, n: int, patterns, words: list[str]) -> list[str]:
    """n names whose normalized forms are pairwise distinct."""
    seen = set()
    out: list[str] = []
    while len(out) < n:
        pattern = rng.choice(patterns)
        name = pattern.format(*(rng.choice(words) for _ in range(3)))
        key = normalize(name)
        if key not in seen:
            seen.add(key)
            out.append(name)
    return out


ARTIST_PATTERNS = ("{0} {1}", "{0} {1}", "{0} {1}", "{0} {1}'s {2}", "{0}-{1} {2}",
                   "{0} & {1}", "St. {0} {1}", "The {0} {1}")
VENUE_PATTERNS = ("{0} Hall", "{0} Arena", "{0} Theatre", "{0}'s Lounge", "{0}-{1} Club",
                  "{0} {1} Stadium", "{0} Pavilion", "The {0} Garden", "{0} {1} Hall")
REGION_PATTERNS = ("{0} Valley", "North {0}", "{0} Coast", "{0} Highlands", "Upper {0}",
                   "{0} Plains", "{0}-{1}")
GENRES = ["Rock", "Jazz", "Hip-Hop", "Drum & Bass", "Blues", "Soul", "Funk", "Reggae",
          "Country", "Folk", "Metal", "Punk", "Disco", "House", "Techno", "Trance",
          "Ambient", "Gospel", "Opera", "Ska", "Grunge", "Swing", "Bluegrass", "Salsa",
          "Tango", "Bossa Nova", "Afrobeat", "Dubstep", "Electro", "Synth-Pop",
          "Trip Hop", "Zydeco", "Cumbia", "Flamenco", "K-Pop", "Emo", "Shoegaze",
          "Krautrock", "Polka", "Calypso"]


# ---------------------------------------------------------------------------
# Literal corruption
# ---------------------------------------------------------------------------


def _case(cell: str, rng) -> str:
    return cell.lower() if cell.lower() != cell else cell.upper()


def _punct(cell: str, rng) -> str:
    if _PUNCT_RE.search(cell):
        swap = {"'": "’", "-": " ", "&": "+", ".": ""}
        return _PUNCT_RE.sub(lambda m: "".join(swap.get(ch, " ") for ch in m.group()), cell)
    words = cell.split(" ")
    if len(words) > 1:
        i = rng.randrange(len(words) - 1)
        return " ".join(words[:i]) + (" " if i else "") + words[i] + "-" + " ".join(words[i + 1:])
    return cell + "."


def _quote(cell: str, rng) -> str:
    q = rng.choice("\"'")
    return f"{q}{cell}{q}"


def _typo(cell: str, rng) -> str:
    words = cell.split(" ")
    candidates = [i for i, w in enumerate(words) if len(w) >= 5 and w.isalpha()]
    if not candidates:
        return cell
    i = rng.choice(candidates)
    w = words[i]
    j = rng.randrange(1, len(w) - 2)
    kind = rng.randrange(3)
    if kind == 0:
        w = w[:j] + w[j + 1] + w[j] + w[j + 2:]
    elif kind == 1:
        w = w[:j] + w[j + 1:]
    else:
        w = w[:j] + w[j] + w[j:]
    words[i] = w
    return " ".join(words)


CORRUPTIONS = (_case, _punct, _quote, _typo)


class Corrupter:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.turn = 0
        self.oracles: dict[str, ColumnOracle] = {}

    def __call__(self, column: str, cells: list[str], cell_set: set, cell: str) -> str | None:
        """A literal that is not a cell of the column and whose unique most
        similar cell is `cell`; None when no corruption qualifies."""
        if column not in self.oracles:
            self.oracles[column] = ColumnOracle(cells)
        oracle = self.oracles[column]
        for step in range(len(CORRUPTIONS)):
            fn = CORRUPTIONS[(self.turn + step) % len(CORRUPTIONS)]
            literal = fn(cell, self.rng)
            if literal == cell or literal in cell_set:
                continue
            if oracle.unique_best(literal, cell):
                self.turn += 1
                return literal
        return None


# ---------------------------------------------------------------------------
# Quoting helpers (SQL and the action DSL)
# ---------------------------------------------------------------------------


def sql_str(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def dsl_str(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def rows_of(conn: sqlite3.Connection, sql: str) -> list:
    return conn.execute(sql).fetchall()


def same_rows(a: list, b: list) -> bool:
    return sorted(map(repr, a)) == sorted(map(repr, b))


def make_db(path: Path, ddl: str, rows: dict[str, list[tuple]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(path)
    try:
        conn.executescript(ddl)
        for table, table_rows in rows.items():
            marks = ", ".join("?" * len(table_rows[0]))
            conn.executemany(f"INSERT INTO {table} VALUES ({marks})", table_rows)
        conn.commit()
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# The shared venue database (refine-mismatch, postprocess-rescue)
# ---------------------------------------------------------------------------

VENUE_DDL = """
CREATE TABLE region (id INTEGER PRIMARY KEY, name TEXT, population INTEGER);
CREATE TABLE venue (id INTEGER PRIMARY KEY, name TEXT, code TEXT, capacity INTEGER,
                    region_id INTEGER REFERENCES region(id));
CREATE TABLE artist (id INTEGER PRIMARY KEY, name TEXT, genre TEXT, debut_year INTEGER,
                     venue_id INTEGER REFERENCES venue(id));
"""


class VenueDb:
    """In-memory copy of the generated rows, for choosing example targets."""

    def __init__(self, path: Path, seed: int, size: str):
        rng = random.Random(f"venue-db:{seed}:{size}")
        n_region, n_venue, n_artist = VENUE_DB_CELLS[size]
        words = make_words(rng, 900)
        self.region_names = distinct_names(rng, n_region, REGION_PATTERNS, words)
        self.venue_names = distinct_names(rng, n_venue, VENUE_PATTERNS, words)
        self.artist_names = distinct_names(rng, n_artist, ARTIST_PATTERNS, words)
        self.codes = [str(c) for c in rng.sample(range(1000, 99999), n_venue)]
        self.regions = [(i + 1, name, rng.randrange(10_000, 5_000_000))
                        for i, name in enumerate(self.region_names)]
        self.venues = [(i + 1, name, self.codes[i], rng.randrange(50, 60_000),
                        (i % n_region) + 1)
                       for i, name in enumerate(self.venue_names)]
        self.artists = [(i + 1, name, rng.choice(GENRES), rng.randrange(1950, 2024),
                         (i % n_venue) + 1)
                        for i, name in enumerate(self.artist_names)]
        make_db(path, VENUE_DDL, {"region": self.regions, "venue": self.venues,
                                  "artist": self.artists})
        self.columns = {
            "region.name": self.region_names,
            "venue.name": self.venue_names,
            "artist.name": self.artist_names,
            "artist.genre": sorted(set(a[2] for a in self.artists)),
        }
        self.column_sets = {k: set(v) for k, v in self.columns.items()}


def _refine_examples(db: VenueDb, conn, rng: random.Random, size: str) -> list[dict]:
    corrupt = Corrupter(rng)
    used: set[str] = set()
    out: list[dict] = []

    def pick(rows, column_key, name_index=1):
        while True:
            row = rng.choice(rows)
            cell = row[name_index]
            if cell in used:
                continue
            literal = corrupt(column_key, db.columns[column_key],
                              db.column_sets[column_key], cell)
            if literal is not None:
                used.add(cell)
                return row, cell, literal

    for kind, full, tiny in REFINE_MIX:
        for n in range(full if size == "full" else tiny):
            ex: dict = {"kind": kind, "fixes": {}, "refuse": False, "connectives": "AND"}
            if kind == "A":
                row, cell, lit = pick(db.regions, "region.name")
                ex["question"] = f"What is the population of the region called {lit}?"
                ex["draft"] = (f"add_select(population)\nadd_from(region)\n"
                               f"add_where(name, =, {dsl_str(lit)})")
                ex["gold"] = f"SELECT population FROM region WHERE name = {sql_str(cell)}"
                ex["pairs"] = [(cell, lit)]
            elif kind == "B":
                row = rng.choice(db.artists)
                while row[1] in used:
                    row = rng.choice(db.artists)
                used.add(row[1])
                ex["question"] = f"Which genre does {row[1]} play?"
                ex["draft"] = (f"add_select(genre)\nadd_from(artist)\n"
                               f"add_where(name, =, {dsl_str(row[1])})")
                ex["gold"] = f"SELECT genre FROM artist WHERE name = {sql_str(row[1])}"
                ex["pairs"] = [(row[1], None)]
            elif kind in ("C", "G"):
                row, cell, lit = pick(db.venues, "venue.name")
                if n % 2 == 0 or kind == "G":
                    ex["question"] = f"What is the capacity of the venue {lit}?"
                    ex["draft"] = (f"add_select(capacity)\nadd_from(venue)\n"
                                   f"add_where(name, =, {dsl_str(lit)})")
                    ex["gold"] = f"SELECT capacity FROM venue WHERE name = {sql_str(cell)}"
                else:
                    ex["question"] = f"Which artists debuted at the venue {lit}?"
                    ex["draft"] = ("add_select(artist.name)\nadd_from(artist, venue, "
                                   "join(artist.venue_id, venue.id))\n"
                                   f"add_where(venue.name, =, {dsl_str(lit)})")
                    ex["gold"] = ("SELECT artist.name FROM artist JOIN venue ON "
                                  "artist.venue_id = venue.id WHERE venue.name = "
                                  f"{sql_str(cell)}")
                ex["pairs"] = [(cell, lit)]
                ex["refuse"] = kind == "G"
            elif kind == "D":
                row, vcell, vlit = pick(db.venues, "venue.name")
                region = db.regions[row[4] - 1]
                rlit = corrupt("region.name", db.columns["region.name"],
                               db.column_sets["region.name"], region[1])
                if rlit is None:
                    rlit = region[1]
                connective = "AND" if n % 2 == 0 else "OR"
                ex["connectives"] = connective
                ex["question"] = (f"Which venues are called {vlit} "
                                  f"{'and' if connective == 'AND' else 'or'} lie in {rlit}?")
                ex["draft"] = ("add_select(venue.name)\nadd_from(venue, region, "
                               "join(venue.region_id, region.id))\n"
                               f"add_where(venue.name, =, {dsl_str(vlit)})\n"
                               f"add_where(region.name, =, {dsl_str(rlit)})")
                ex["gold"] = ("SELECT venue.name FROM venue JOIN region ON "
                              f"venue.region_id = region.id WHERE venue.name = {sql_str(vcell)} "
                              f"{connective} region.name = {sql_str(region[1])}")
                ex["pairs"] = [(vcell, vlit), (region[1], rlit if rlit != region[1] else None)]
            elif kind == "E":
                row = rng.choice(db.venues)
                while row[1] in used:
                    row = rng.choice(db.venues)
                used.add(row[1])
                bad, good = "join(artist.id, venue.id)", "join(artist.venue_id, venue.id)"
                ex["question"] = f"List the artists who debuted at {row[1]}."
                ex["draft"] = (f"add_select(artist.name)\nadd_from(artist, venue, {bad})\n"
                               f"add_where(venue.name, =, {dsl_str(row[1])})")
                ex["fixes"] = {"ForeignKeyMismatch": [bad, good]}
                ex["gold"] = ("SELECT artist.name FROM artist JOIN venue ON "
                              "artist.venue_id = venue.id WHERE venue.name = "
                              f"{sql_str(row[1])}")
                ex["pairs"] = [(row[1], None)]
            elif kind == "F":
                row = rng.choice(db.venues)
                while row[2] in used:
                    row = rng.choice(db.venues)
                used.add(row[2])
                bad = f"add_where(code, =, {row[2]})"
                good = f"add_where(code, =, {dsl_str(row[2])})"
                ex["question"] = f"What is the name of the venue with code {row[2]}?"
                ex["draft"] = f"add_select(name)\nadd_from(venue)\n{bad}"
                ex["fixes"] = {"TypeMismatch": [bad, good]}
                ex["gold"] = f"SELECT name FROM venue WHERE code = {sql_str(row[2])}"
                ex["pairs"] = [(row[2], None)]
            elif kind == "H":
                row, cell, lit = pick(db.artists, "artist.name")
                if n % 2 == 0:
                    ex["question"] = f"In which year did {lit} debut?"
                    ex["draft"] = (f"add_select(debut_year)\nadd_from(artist)\n"
                                   f"add_where(name, =, {dsl_str(lit)})")
                    ex["gold"] = f"SELECT debut_year FROM artist WHERE name = {sql_str(cell)}"
                else:
                    ex["question"] = f"At which venue did {lit} debut?"
                    ex["draft"] = ("add_select(venue.name)\nadd_from(artist, venue, "
                                   "join(artist.venue_id, venue.id))\n"
                                   f"add_where(artist.name, =, {dsl_str(lit)})")
                    ex["gold"] = ("SELECT venue.name FROM artist JOIN venue ON "
                                  "artist.venue_id = venue.id WHERE artist.name = "
                                  f"{sql_str(cell)}")
                ex["pairs"] = [(cell, lit)]
            out.append(ex)

    for ex in out:
        gold_rows = rows_of(conn, ex["gold"])
        if not gold_rows:
            raise RuntimeError(f"empty gold result: {ex['gold']}")
        if ex["refuse"]:
            # the loop never converges and falls back to the first draft
            wrong = ex["gold"]
            for cell, lit in ex["pairs"]:
                if lit is not None:
                    wrong = wrong.replace(sql_str(cell), sql_str(lit))
            ex["ex"] = same_rows(rows_of(conn, wrong), gold_rows)
            ex["present"] = [lit for _cell, lit in ex["pairs"] if lit is not None]
            ex["absent"] = [cell for cell, lit in ex["pairs"] if lit is not None]
        else:
            ex["ex"] = True
            ex["present"] = [cell for cell, _lit in ex["pairs"]]
            ex["absent"] = [lit for _cell, lit in ex["pairs"] if lit is not None]
    return out


def _rescue_examples(db: VenueDb, conn, rng: random.Random, size: str) -> list[dict]:
    corrupt = Corrupter(rng)
    used: set[str] = set()
    out: list[dict] = []

    def lit_for(column_key: str, cell: str) -> str:
        literal = corrupt(column_key, db.columns[column_key], db.column_sets[column_key], cell)
        if literal is None:
            raise LookupError(cell)
        return literal

    def fresh(rows, index=1):
        while True:
            row = rng.choice(rows)
            if row[index] not in used:
                used.add(row[index])
                return row

    for kind, full, tiny in RESCUE_MIX:
        made = 0
        while made < (full if size == "full" else tiny):
            try:
                ex = _rescue_one(kind, db, conn, rng, fresh, lit_for)
            except LookupError:
                continue
            out.append(ex)
            made += 1
    return out


def _rescue_one(kind, db: VenueDb, conn, rng, fresh, lit_for) -> dict:
    """One file prediction: the gold query with some literals corrupted."""
    if kind == "P1":
        artist = fresh(db.artists)
        cells = [("artist.name", artist[1], True)]
        gold = "SELECT debut_year FROM artist WHERE name = {0}"
        question = f"In which year did {artist[1]} debut?"
    elif kind == "P2":
        venue = fresh(db.venues)
        region = db.regions[venue[4] - 1]
        cells = [("venue.name", venue[1], True), ("region.name", region[1], False)]
        gold = ("SELECT T1.capacity FROM venue AS T1 JOIN region AS T2 ON "
                "T1.region_id = T2.id WHERE T1.name = {0} AND T2.name = {1}")
        question = f"How large is {venue[1]} in {region[1]}?"
    elif kind == "P3":
        region = fresh(db.regions)
        caps = sorted(v[3] for v in db.venues if v[4] == region[0])
        floor = caps[len(caps) // 2] - 1
        cells = [("region.name", region[1], True)]
        gold = ("SELECT T2.name FROM region AS T1 JOIN venue AS T2 ON T2.region_id = T1.id "
                f"WHERE T1.name = {{0}} AND T2.capacity > {floor}")
        question = f"Which venues in {region[1]} hold more than {floor} people?"
    elif kind == "P4":
        artist = fresh(db.artists)
        venue = db.venues[artist[4] - 1]
        cells = [("venue.name", venue[1], True), ("artist.genre", artist[2], False)]
        gold = ("SELECT T1.name FROM artist AS T1 JOIN venue AS T2 ON T1.venue_id = T2.id "
                "WHERE T2.name = {0} AND T1.genre = {1}")
        question = f"Which {artist[2]} artists debuted at {venue[1]}?"
    elif kind == "P5":
        region = fresh(db.regions)
        cells = [("region.name", region[1], True)]
        gold = "SELECT population FROM region WHERE name = {0}"
        question = f"How many people live in {region[1]}?"
    else:  # P6
        artist = fresh(db.artists)
        venue = db.venues[artist[4] - 1]
        region = db.regions[venue[4] - 1]
        cells = [("region.name", region[1], True), ("venue.name", venue[1], False),
                 ("artist.genre", artist[2], True)]
        gold = ("SELECT T1.name FROM artist AS T1 JOIN venue AS T2 ON T1.venue_id = T2.id "
                "JOIN region AS T3 ON T2.region_id = T3.id "
                "WHERE T3.name = {0} AND T2.name = {1} AND T1.genre = {2}")
        question = f"Which {artist[2]} artists debuted at {venue[1]} in {region[1]}?"
    literals = [lit_for(col, cell) if corrupt_it else cell for col, cell, corrupt_it in cells]
    gold_sql = gold.format(*(sql_str(cell) for _col, cell, _c in cells))
    pred_template = gold
    if kind == "P5":  # wrong select column: post-processing cannot rescue it
        pred_template = gold.replace("SELECT population", "SELECT id")
    prediction = pred_template.format(*(sql_str(lit) for lit in literals))
    rescued = pred_template.format(*(sql_str(cell) for _col, cell, _c in cells))
    gold_rows = rows_of(conn, gold_sql)
    if not gold_rows:
        raise RuntimeError(f"empty gold result: {gold_sql}")
    return {
        "kind": kind, "question": question, "gold": gold_sql, "prediction": prediction,
        "sql": rescued, "ex": same_rows(rows_of(conn, rescued), gold_rows),
        "present": [cell for _col, cell, _c in cells],
        "pairs": [(cell, lit if lit != cell else None)
                  for lit, (_col, cell, _c) in zip(literals, cells)],
        "absent": [lit for lit, (_col, cell, _c) in zip(literals, cells) if lit != cell],
    }


# ---------------------------------------------------------------------------
# Many small Spider-like databases (many-db-matched)
# ---------------------------------------------------------------------------

TABLE_POOL = ["club", "member", "event", "sponsor", "team", "player", "school", "student",
              "course", "teacher", "company", "employee", "department", "project", "museum",
              "exhibit", "gallery", "airline", "flight", "airport", "hotel", "guest",
              "booking", "library", "book", "author", "store", "product", "supplier", "farm",
              "crop", "festival", "band", "song", "album", "station", "train", "ship",
              "captain", "port"]
CATEGORICAL = {
    "city": ["Paris", "Lagos", "Osaka", "Lima", "Oslo", "Quito", "Perth", "Dakar", "Turin",
             "Bergen", "Austin", "Hanoi", "Cusco", "Bilbao", "Nairobi", "Tbilisi", "Recife",
             "Split", "Kochi", "Malmo"],
    "country": ["France", "Nigeria", "Japan", "Peru", "Norway", "Ecuador", "Australia",
                "Senegal", "Italy", "Vietnam", "Spain", "Kenya", "Georgia", "Brazil",
                "Croatia"],
    "status": ["Active", "Retired", "On Leave", "Pending", "Closed", "Suspended"],
    "category": ["Gold", "Silver", "Bronze", "Platinum", "Standard", "Premium", "Basic",
                 "Trial"],
    "level": ["Beginner", "Intermediate", "Advanced", "Expert", "Master"],
    "region": ["North", "South", "East", "West", "Central", "Coastal", "Highland"],
    "kind": ["Public", "Private", "Non-Profit", "Co-op", "State-Owned", "Family"],
}
NUMERIC = {"year": ("INTEGER", 1950, 2023), "age": ("INTEGER", 18, 80),
           "capacity": ("INTEGER", 10, 90000), "score": ("REAL", 0, 100),
           "budget": ("REAL", 1000, 900000)}
NAME_PATTERNS = ("{0} {1}", "{0} {1}", "{0}-{1}", "{0} {1} {2}", "{0}'s {1}")
TEMPLATES = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")
TABLE_ROWS = (300, 800, 150, 1000, 500, 650)  # rows of the i-th table of a database


def _many_db_one(root: Path, db_id: str, d: int, rng: random.Random, words: list[str]) -> dict:
    """Database number `d`.  Its shape (table count, rows per table, column
    counts, FK tree) follows from `d` alone, so every seed has the same
    shapes; the seed picks names, columns and values."""
    names = rng.sample(TABLE_POOL, 3 + d % 4)
    tables: list[dict] = []
    for i, tname in enumerate(names):
        cats = rng.sample(sorted(CATEGORICAL), 1 + (i + d) % 2)
        nums = rng.sample(sorted(NUMERIC), 1 + (i + d + 1) % 2)
        parent = tables[(i - 1) // 2] if i else None
        n_rows = TABLE_ROWS[i]
        row_names = distinct_names(rng, n_rows, NAME_PATTERNS, words)
        cols = ["id INTEGER PRIMARY KEY", "name TEXT"]
        cols += [f"{c} TEXT" for c in cats]
        cols += [f"{n} {NUMERIC[n][0]}" for n in nums]
        if parent is not None:
            cols.append(f"{parent['name']}_id INTEGER REFERENCES {parent['name']}(id)")
        rows = []
        for r in range(n_rows):
            row = [r + 1, row_names[r]]
            row += [rng.choice(CATEGORICAL[c]) for c in cats]
            for n in nums:
                kind, lo, hi = NUMERIC[n]
                row.append(rng.randint(lo, hi) if kind == "INTEGER"
                           else round(rng.uniform(lo, hi), 2))
            if parent is not None:
                row.append(rng.randint(1, len(parent["rows"])))
            rows.append(tuple(row))
        tables.append({"name": tname, "cats": cats, "nums": nums, "rows": rows,
                       "parent": parent, "ddl": f"CREATE TABLE {tname} ({', '.join(cols)});"})
    path = root / "database" / db_id / f"{db_id}.sqlite"
    make_db(path, "\n".join(t["ddl"] for t in tables), {t["name"]: t["rows"] for t in tables})
    return {"path": path, "tables": tables}


def _col_index(table: dict, column: str) -> int:
    return 2 + (table["cats"] + table["nums"]).index(column)


def _many_db_example(template: str, k: int, tables: list[dict], rng) -> dict:
    """One example; `k` picks the tables, so costs do not depend on the seed."""
    children = [t for t in tables if t["parent"] is not None]
    ex: dict = {"connectives": "AND", "fixes": {}, "refuse": False, "sub": {}, "present": []}
    t = tables[k % len(tables)]
    cat = rng.choice(t["cats"])
    value = rng.choice(t["rows"])[_col_index(t, cat)]
    if template == "T1":
        ex["question"] = f"List the names of every {t['name']} whose {cat} is {value}."
        ex["draft"] = f"add_select(name)\nadd_from({t['name']})\nadd_where({cat}, =, {dsl_str(value)})"
        ex["gold"] = f"SELECT name FROM {t['name']} WHERE {cat} = {sql_str(value)}"
        ex["present"] = [value]
    elif template in ("T2", "T6", "T8"):
        c = children[k % len(children)]
        p = c["parent"]
        pcat = rng.choice(p["cats"])
        fk = f"{p['name']}_id"
        used_parents = sorted(set(r[-1] for r in c["rows"]))
        pvalue = p["rows"][rng.choice(used_parents) - 1][_col_index(p, pcat)]
        if template == "T2":
            ex["question"] = (f"Which {c['name']} names belong to a {p['name']} "
                              f"with {pcat} {pvalue}?")
            ex["draft"] = (f"add_select({c['name']}.name)\n"
                           f"add_from({c['name']}, {p['name']}, join({c['name']}.{fk}, {p['name']}.id))\n"
                           f"add_where({p['name']}.{pcat}, =, {dsl_str(pvalue)})")
            ex["gold"] = (f"SELECT T1.name FROM {c['name']} AS T1 JOIN {p['name']} AS T2 ON "
                          f"T1.{fk} = T2.id WHERE T2.{pcat} = {sql_str(pvalue)}")
            ex["present"] = [pvalue]
        elif template == "T6":
            sub = f"ids of every {p['name']} whose {pcat} is {pvalue}"
            ex["question"] = (f"Name each {c['name']} of a {p['name']} "
                              f"whose {pcat} is {pvalue}.")
            ex["sub"] = {sub: (f"add_select(id)\nadd_from({p['name']})\n"
                               f"add_where({pcat}, =, {dsl_str(pvalue)})")}
            ex["draft"] = (f"qa({dsl_str(sub)})\nadd_select(name)\nadd_from({c['name']})\n"
                           f"add_where({fk}, IN, @s.0.qa)")
            ex["gold"] = (f"SELECT name FROM {c['name']} WHERE {fk} IN "
                          f"(SELECT id FROM {p['name']} WHERE {pcat} = {sql_str(pvalue)})")
            ex["present"] = [pvalue]
        else:
            ex["question"] = f"How many {c['name']} rows does each {p['name']} have?"
            ex["draft"] = (f"add_select({p['name']}.name, COUNT(*))\n"
                           f"add_from({c['name']}, {p['name']}, join({c['name']}.{fk}, {p['name']}.id))\n"
                           f"add_group_by({p['name']}.name)")
            ex["gold"] = (f"SELECT T2.name, COUNT(*) FROM {c['name']} AS T1 JOIN {p['name']} AS T2 "
                          f"ON T1.{fk} = T2.id GROUP BY T2.name")
    elif template == "T3":
        counts = sorted(Counter(r[_col_index(t, cat)] for r in t["rows"]).values())
        k = counts[len(counts) // 2] - 1
        ex["question"] = f"Which {cat} values occur more than {k} times in {t['name']}?"
        ex["draft"] = (f"add_select({cat}, COUNT(*))\nadd_from({t['name']})\n"
                       f"add_group_by({cat})\nadd_having(COUNT(*), >, {k})")
        ex["gold"] = (f"SELECT {cat}, COUNT(*) FROM {t['name']} GROUP BY {cat} "
                      f"HAVING COUNT(*) > {k}")
    elif template == "T4":
        num = rng.choice(t["nums"])
        ex["question"] = f"Which three {t['name']} rows have the highest {num}?"
        ex["draft"] = (f"add_select(name, {num})\nadd_from({t['name']})\n"
                       f"add_order_by({num}, DESC)\nadd_limit(3)")
        ex["gold"] = f"SELECT name, {num} FROM {t['name']} ORDER BY {num} DESC LIMIT 3"
    elif template == "T5":
        u = tables[(k + 1) % len(tables)]
        ucat = rng.choice(u["cats"])
        uvalue = rng.choice(u["rows"])[_col_index(u, ucat)]
        ex["question"] = (f"Names of {t['name']} with {cat} {value} together with "
                          f"{u['name']} with {ucat} {uvalue}.")
        ex["draft"] = ("add_merge(UNION):\n    left:\n"
                       f"        add_select(name)\n        add_from({t['name']})\n"
                       f"        add_where({cat}, =, {dsl_str(value)})\n    right:\n"
                       f"        add_select(name)\n        add_from({u['name']})\n"
                       f"        add_where({ucat}, =, {dsl_str(uvalue)})")
        ex["gold"] = (f"SELECT name FROM {t['name']} WHERE {cat} = {sql_str(value)} UNION "
                      f"SELECT name FROM {u['name']} WHERE {ucat} = {sql_str(uvalue)}")
        ex["present"] = [value, uvalue]
    else:  # T7
        num = rng.choice(t["nums"])
        values = sorted(r[_col_index(t, num)] for r in t["rows"])
        x = values[len(values) // 2]
        connective = ("AND", "OR")[k % 2]
        ex["connectives"] = connective
        ex["question"] = (f"Which {t['name']} names have {cat} {value} "
                          f"{connective.lower()} {num} above {x}?")
        ex["draft"] = (f"add_select(name)\nadd_from({t['name']})\n"
                       f"add_where({cat}, =, {dsl_str(value)})\nadd_where({num}, >, {x})")
        ex["gold"] = (f"SELECT name FROM {t['name']} WHERE {cat} = {sql_str(value)} "
                      f"{connective} {num} > {x}")
        ex["present"] = [value]
    ex["ex"] = True
    ex["absent"] = []
    return ex


def _many_db_examples(root: Path, seed: int, size: str) -> tuple[list[dict], dict]:
    rng = random.Random(f"many-db:{seed}:{size}")
    words = make_words(rng, 700)
    n_dbs, per_db = MANY_DB[size]
    out: list[dict] = []
    rows_total = 0
    tables_total = 0
    for d in range(n_dbs):
        db_id = f"db{d:02d}"
        db = _many_db_one(root, db_id, d, rng, words)
        tables_total += len(db["tables"])
        rows_total += sum(len(t["rows"]) for t in db["tables"])
        conn = sqlite3.connect(db["path"])
        try:
            for j in range(per_db):
                template = TEMPLATES[(d * per_db + j) % len(TEMPLATES)]
                for _attempt in range(100):
                    ex = _many_db_example(template, d + j, db["tables"], rng)
                    if rows_of(conn, ex["gold"]):
                        break
                else:
                    raise RuntimeError(f"no example with a non-empty result: {ex['gold']}")
                ex["kind"] = template
                ex["db_id"] = db_id
                out.append(ex)
        finally:
            conn.close()
    sizes = {"databases": n_dbs, "tables": tables_total, "rows": rows_total,
             "examples": len(out)}
    return out, sizes


# ---------------------------------------------------------------------------
# Scale probe columns
# ---------------------------------------------------------------------------


def make_probe(root: Path, seed: int) -> dict:
    """One single-column database per size, with a hit literal and a typo
    miss whose unique most similar cell is `target`.  No cell shares the
    miss's normalized form, so only scoring the column finds its cell."""
    rng = random.Random(f"probe:{seed}")
    words = make_words(rng, 900)
    cells = distinct_names(rng, max(PROBE_CELLS), ARTIST_PATTERNS, words)
    out = {}
    for n in PROBE_CELLS:
        column = cells[:n]
        path = root / "probe" / f"probe{n}.sqlite"
        make_db(path, "CREATE TABLE item (id INTEGER PRIMARY KEY, label TEXT);",
                {"item": [(i + 1, c) for i, c in enumerate(column)]})
        oracle = ColumnOracle(column)
        target, miss = next((cell, typo) for cell in column[n // 2:]
                            for typo in [_typo(cell, rng)]
                            if typo != cell and oracle.unique_best(typo, cell))
        out[str(n)] = {"path": str(path.relative_to(root)), "hit": column[n // 2],
                       "target": target, "miss": miss}
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, size: str, out: Path, probe: bool = False) -> dict:
    """Write databases, examples.json, predictions.sql and bench.json under
    `out`; returns the bench.json content."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{size}")
    if workload == "many-db-matched":
        examples, sizes = _many_db_examples(out, seed, size)
    else:
        path = out / "database" / "venues" / "venues.sqlite"
        db = VenueDb(path, seed, size)
        conn = sqlite3.connect(path)
        try:
            make = _refine_examples if workload == "refine-mismatch" else _rescue_examples
            examples = make(db, conn, rng, size)
        finally:
            conn.close()
        for ex in examples:
            ex["db_id"] = "venues"
        pairs = [(cell, lit) for ex in examples for cell, lit in ex["pairs"] if lit is not None]
        sizes = {"databases": 1, "tables": 3, "cells_per_column": {
            "region.name": len(db.region_names), "venue.name": len(db.venue_names),
            "venue.code": len(db.codes), "artist.name": len(db.artist_names),
            "artist.genre": len(db.columns["artist.genre"])}, "examples": len(examples),
            # corruptions by case, punctuation or quotes keep the cell's normalized form
            "corrupted_literals": len(pairs),
            "normalized_equal": sum(normalize(lit) == normalize(cell) for cell, lit in pairs)}
    rng.shuffle(examples)

    records, script, expected = [], {}, {}
    for i, ex in enumerate(examples):
        example_id = f"{workload[:2]}{i:04d}"
        records.append({"id": example_id, "question": ex["question"],
                        "gold_sql": ex["gold"], "db_id": ex["db_id"]})
        expected[example_id] = {"kind": ex["kind"], "ex": ex["ex"], "present": ex["present"],
                                "absent": ex["absent"], "sql": ex.get("sql")}
        if "draft" in ex:
            script[example_id] = {"question": ex["question"], "draft": ex["draft"],
                                  "refuse": ex["refuse"], "fixes": ex["fixes"],
                                  "connectives": ex["connectives"], "sub": ex.get("sub", {})}
    (out / "examples.json").write_text(json.dumps(records, indent=1), encoding="utf-8")
    if workload == "postprocess-rescue":
        (out / "predictions.sql").write_text(
            "".join(ex["prediction"] + "\n" for ex in examples), encoding="utf-8")
    scorable = len(expected)
    bench = {
        "workload": workload, "seed": seed, "size": size, "sizes": sizes,
        "predictor": "file" if workload == "postprocess-rescue" else "pipeline",
        "post_process": workload != "refine-mismatch",
        "agent_script": script, "expected": expected,
        "expected_ex_rate": sum(1 for e in expected.values() if e["ex"]) / scorable,
        "probe": make_probe(out, seed) if probe else None,
    }
    (out / "bench.json").write_text(json.dumps(bench, indent=1), encoding="utf-8")
    return bench


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=SIZES)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--probe", action="store_true",
                        help="also write the single-column scale-probe databases")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    generate(args.workload, args.seed, args.size, args.out, probe=args.probe)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
