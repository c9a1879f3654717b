"""One token stream over SQL text, shared by every SQL scanner.

Recognised, after SQLite ("SQL As Understood By SQLite", lang_keywords and
lang_comment): `'...'` and `"..."` literals with doubled-quote escapes,
`[...]` and `` `...` `` identifiers, `--` and `/* */` comments (dropped, an
unterminated block comment runs to the end), words, numbers, comparison
operators, and every other non-space character as one-character
punctuation. A number glued to letters (`1e5`, `1from`) is one token. An
unterminated quote, bracket or backtick starts no token of its own: it is
read as punctuation and lexing goes on after it. Each token carries its
paren depth, the count of `(` minus `)` tokens before it.

Over the tokens, `select_cores` reads the SELECT cores and the clause each
token sits in, and `from_items` reads a core's FROM entries; the ORDER BY
flag of execution accuracy, exact match and post-processing read SQL
structure through these two.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

_LEXEME_RE = re.compile(
    r"""(?P<comment>--[^\n]*|/\*.*?(?:\*/|\Z))
      | (?P<squote>'(?:[^']|'')*')
      | (?P<dquote>"(?:[^"]|"")*")
      | (?P<ident>\[[^\]]*\]|`(?:[^`]|``)*`)
      | (?P<word>[^\W\d]\w*)
      | (?P<number>\d+(?:\.\d+)?\w*)
      | (?P<op><>|<=|>=|!=|=|<|>)
      | (?P<punct>\S)
    """,
    re.VERBOSE | re.DOTALL,
)

STRING_KINDS = ("squote", "dquote")


class Token(NamedTuple):
    kind: str  # squote | dquote | ident | word | number | op | punct
    text: str
    start: int
    end: int
    depth: int


def tokenize(sql: str) -> list[Token]:
    tokens = []
    depth = 0
    for match in _LEXEME_RE.finditer(sql):
        kind = match.lastgroup
        if kind == "comment":
            continue
        text = match.group()
        tokens.append(Token(kind, text, match.start(), match.end(), depth))
        if text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
    return tokens


def unquote(token: Token) -> str:
    """The value of a string literal or quoted identifier token."""
    body, quote_char = token.text[1:-1], token.text[0]
    return body if quote_char == "[" else body.replace(quote_char * 2, quote_char)


def quote(value: str, quote_char: str) -> str:
    """`value` as a string literal in `quote_char` quotes."""
    return quote_char + value.replace(quote_char, quote_char * 2) + quote_char


def word(token: Token) -> str | None:
    """A word token's text lowercased, as a keyword is read; None for any
    other token, so `[from]` is no keyword."""
    return token.text.lower() if token.kind == "word" else None


def name(token: Token) -> str | None:
    """The name a word or `[...]`/`` `...` `` token spells. A `"..."` token
    may be a string literal, so it names nothing here."""
    if token.kind == "word":
        return token.text
    return unquote(token) if token.kind == "ident" else None


@dataclass
class Core:
    """One SELECT core. `clauses` holds its clause runs in textual order:
    the clause (select, from, where, group by, having, order by or limit)
    and the tokens under it, the keyword left out. A nested core's tokens
    belong to that core, while the parens around it stay in this one."""
    depth: int  # the depth of its `select` token
    clauses: list[tuple[str, list[Token]]]
    end: int  # the index of the token that ended it, or len(tokens)
    parent: Core | None = None  # the core it is nested in, if any


def select_cores(tokens: list[Token]) -> list[Core]:
    """The SELECT cores of a token stream, in the order of their `select`
    words. A core starts at a `select` word and ends at a `)` that closes
    a paren opened outside it, at a set operator or a `select` at its own
    depth, or at the end of the text. Each token belongs to the innermost
    core open at it; a token before the first `select`, or after a core
    ends with none around it, belongs to none. A core's parent is the
    innermost core open at its `select`.
    """
    cores: list[Core] = []
    open_cores: list[Core] = []
    i = 0
    while i < len(tokens):
        token, keyword, width = tokens[i], word(tokens[i]), 1
        if token.text == ")" or keyword in ("select", "union", "intersect", "except"):
            # a `)` carries the depth inside the paren that it closes
            while open_cores and open_cores[-1].depth >= token.depth:
                open_cores.pop().end = i
        if keyword == "select":
            parent = open_cores[-1] if open_cores else None
            open_cores.append(Core(token.depth, [("select", [])], len(tokens), parent))
            cores.append(open_cores[-1])
        elif open_cores:
            core, clause = open_cores[-1], None
            if token.depth == core.depth:
                if keyword in ("from", "where", "having", "limit"):
                    clause = keyword
                elif keyword in ("group", "order") and i + 1 < len(tokens) \
                        and word(tokens[i + 1]) == "by":
                    clause, width = f"{keyword} by", 2
            if clause:
                core.clauses.append((clause, []))
            else:
                core.clauses[-1][1].append(token)
        i += width
    return cores


class FromItem(NamedTuple):
    table: str | None  # None for a derived table or any entry not a plain name
    alias: str | None
    on: list[list[Token]]  # the tokens of each of its ON conditions


_JOIN_KINDS = {"natural", "left", "right", "full", "outer", "inner", "cross"}


def from_items(core: Core) -> list[FromItem]:
    """The entries of a core's FROM clause, split at its own depth's `,`
    and `JOIN` (the join kind words before a JOIN dropped) and then at
    `ON`. An entry reads as `name [[AS] alias]`: its last word or quoted
    name after the first token is its alias. A `"..."` token is a name
    here, where no string can stand."""
    items = []
    for clause, run in core.clauses:
        if clause != "from":
            continue
        for entry in split(run, lambda t: t.depth == core.depth
                           and (t.text == "," or word(t) == "join")):
            while entry and word(entry[-1]) in _JOIN_KINDS:
                entry.pop()
            if not entry:
                continue
            head, *on = split(entry, lambda t: t.depth == core.depth and word(t) == "on")
            table = alias = None
            if head and (len(head) == 1 or head[1].text not in (".", "(")):
                table = _from_name(head[0])
            if len(head) > 1 and word(head[-1]) != "as" and head[-2].text != ".":
                alias = _from_name(head[-1])
            items.append(FromItem(table, alias, on))
    return items


def _from_name(token: Token) -> str | None:
    return unquote(token) if token.kind == "dquote" else name(token)


def split(tokens: list[Token], is_separator) -> list[list[Token]]:
    """`tokens` cut at every separator token, which is dropped."""
    parts: list[list[Token]] = [[]]
    for token in tokens:
        if is_separator(token):
            parts.append([])
        else:
            parts[-1].append(token)
    return parts
