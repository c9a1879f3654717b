from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from sqlmend.sqllex import from_items, quote, select_cores, tokenize, unquote

PIECES = ["SELECT", "order", "by", "a1", "_x", "é", "1", "2.5", "1e5", "'", '"', "''", "[", "]",
          "`", "(", ")", ",", ".", ";", "*", "=", "<", ">", "!", "-", "--", "/", "/*", "*/",
          " ", "  ", "\n", "\t"]
sql_texts = st.lists(st.one_of(st.sampled_from(PIECES), st.text(max_size=3)),
                     max_size=30).map("".join)


def skip_gap(gap: str) -> bool:
    """True when `gap` holds only whitespace and comments."""
    i = 0
    while i < len(gap):
        if gap[i].isspace():
            i += 1
        elif gap.startswith("--", i):
            end = gap.find("\n", i)
            i = len(gap) if end == -1 else end
        elif gap.startswith("/*", i):
            end = gap.find("*/", i + 2)
            i = len(gap) if end == -1 else end + 2
        else:
            return False
    return True


@settings(max_examples=500, deadline=None)
@given(sql_texts)
def test_tokens_cover_the_text_in_order(sql):
    tokens = tokenize(sql)
    previous_end = 0
    depth = 0
    for token in tokens:
        assert previous_end <= token.start < token.end
        assert sql[token.start:token.end] == token.text
        assert skip_gap(sql[previous_end:token.start])
        assert token.depth == depth
        if token.kind == "punct" and token.text == "(":
            depth += 1
        elif token.kind == "punct" and token.text == ")":
            depth -= 1
        previous_end = token.end
    assert skip_gap(sql[previous_end:])


def test_token_kinds():
    sql = "SELECT [a b], `c``d` FROM t WHERE x <> 'it''s' -- gone\nAND y >= \"q\"\"r\" /* gone"
    assert [(t.kind, t.text) for t in tokenize(sql)] == [
        ("word", "SELECT"), ("ident", "[a b]"), ("punct", ","), ("ident", "`c``d`"),
        ("word", "FROM"), ("word", "t"), ("word", "WHERE"), ("word", "x"), ("op", "<>"),
        ("squote", "'it''s'"), ("word", "AND"), ("word", "y"), ("op", ">="),
        ("dquote", '"q""r"')]
    assert [unquote(t) for t in tokenize("[a b] `c``d` 'it''s' \"q\"\"r\"")] == \
        ["a b", "c`d", "it's", 'q"r']
    assert quote("it's", "'") == "'it''s'" and quote('q"r', '"') == '"q""r"'


def test_numbers_and_stray_quotes():
    assert [(t.kind, t.text) for t in tokenize("1e5 t1 2.5 1from 'x")] == [
        ("number", "1e5"), ("word", "t1"), ("number", "2.5"), ("number", "1from"),
        ("punct", "'"), ("word", "x")]
    assert [t.depth for t in tokenize("(a (b) c)")] == [0, 1, 1, 2, 2, 1, 1]


def _runs(core) -> list[tuple[str, str]]:
    return [(clause, " ".join(t.text for t in run)) for clause, run in core.clauses]


def test_select_cores_give_each_token_its_innermost_core_and_clause():
    sql = ("WITH w AS (SELECT 1) SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = 'x') "
           "AND e = 'y' GROUP BY a ORDER BY count(*) UNION ALL SELECT f FROM v LIMIT 3")
    tokens = tokenize(sql)
    cte, outer, inner, arm = select_cores(tokens)
    assert (cte.depth, _runs(cte)) == (1, [("select", "1")])
    assert (outer.depth, _runs(outer)) == (0, [
        ("select", "a"), ("from", "t"), ("where", "b IN ( ) AND e = 'y'"), ("group by", "a"),
        ("order by", "count ( * )")])
    assert (inner.depth, _runs(inner)) == (1, [
        ("select", "c"), ("from", "u"), ("where", "d = 'x'")])
    assert _runs(arm) == [("select", "f"), ("from", "v"), ("limit", "3")]
    # ends: its `)`, the UNION at its depth, the text's end
    assert [tokens[c.end].text for c in (cte, outer, inner)] == [")", "UNION", ")"]
    assert arm.end == len(tokens)
    # each core's parent is the innermost core open at its `select`
    assert [c.parent for c in (cte, outer, inner, arm)] == [None, None, outer, None]
    # a stray `)` ends the core around it; the text after belongs to none
    [core] = select_cores(tokenize("SELECT a FROM t) WHERE b = 'x'"))
    assert _runs(core) == [("select", "a"), ("from", "t")]


def test_from_items_read_tables_aliases_and_on_conditions():
    sql = ("SELECT * FROM a AS x LEFT OUTER JOIN [b] y ON x.id = y.id AND x.k = y.k, \"c\", "
           "(SELECT 1) AS s NATURAL JOIN main.d CROSS JOIN f(1) g")
    core = select_cores(tokenize(sql))[0]
    items = [(i.table, i.alias, [sql[on[0].start:on[-1].end] for on in i.on])
             for i in from_items(core)]
    assert items == [("a", "x", []), ("b", "y", ["x.id = y.id AND x.k = y.k"]),
                     ("c", None, []), (None, "s", []), (None, None, []), (None, "g", [])]
