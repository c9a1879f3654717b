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
"""

from __future__ import annotations

import re
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
