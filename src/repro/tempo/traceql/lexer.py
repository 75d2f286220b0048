"""TraceQL lexer.

Same flat-token-stream approach as ``common.vectorlang``; TraceQL needs a
smaller operator set plus the boolean connectives ``&&``/``||`` and the
``.`` of ``span.<attribute>`` field paths.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.common.errors import QueryError


class Tok(enum.Enum):
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    AND = "&&"
    OR = "||"
    DOT = "."
    EQ = "="
    NEQ = "!="
    RE = "=~"
    NRE = "!~"
    GT = ">"
    GTE = ">="
    LT = "<"
    LTE = "<="
    STRING = "STRING"
    NUMBER = "NUMBER"
    DURATION = "DURATION"
    IDENT = "IDENT"
    EOF = "EOF"


@dataclass(frozen=True)
class Token:
    kind: Tok
    text: str
    pos: int


_DURATION_RE = re.compile(r"\d+(?:\.\d+)?(?:ms|s|m|h|d|w|y)(?:\d+(?:ms|s|m|h|d|w|y))*")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")

# Multi-char operators first so "=~" never lexes as "=" + "~".
_OPERATORS: list[tuple[str, Tok]] = [
    ("&&", Tok.AND),
    ("||", Tok.OR),
    ("!=", Tok.NEQ),
    ("!~", Tok.NRE),
    ("=~", Tok.RE),
    (">=", Tok.GTE),
    ("<=", Tok.LTE),
    ("{", Tok.LBRACE),
    ("}", Tok.RBRACE),
    ("(", Tok.LPAREN),
    (")", Tok.RPAREN),
    (".", Tok.DOT),
    ("=", Tok.EQ),
    (">", Tok.GT),
    ("<", Tok.LT),
]

_QUOTES = {'"': '"', "'": "'", "`": "`"}


def tokenize(text: str) -> list[Token]:
    """Lex ``text`` into tokens, ending with an EOF token."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _QUOTES:
            literal, end = _read_string(text, i)
            tokens.append(Token(Tok.STRING, literal, i))
            i = end
            continue
        if ch.isdigit():
            m = _DURATION_RE.match(text, i)
            if m:
                tokens.append(Token(Tok.DURATION, m.group(), i))
                i = m.end()
                continue
            m = _NUMBER_RE.match(text, i)
            if m:
                tokens.append(Token(Tok.NUMBER, m.group(), i))
                i = m.end()
                continue
        matched = False
        for op, kind in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(kind, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(Token(Tok.IDENT, m.group(), i))
            i = m.end()
            continue
        raise QueryError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token(Tok.EOF, "", n))
    return tokens


def _read_string(text: str, start: int) -> tuple[str, int]:
    """Read a quoted string starting at ``start``; returns (value, end_index)."""
    quote = text[start]
    raw = quote == "`"
    out: list[str] = []
    i = start + 1
    while i < len(text):
        ch = text[i]
        if ch == quote:
            return "".join(out), i + 1
        if ch == "\\" and not raw:
            if i + 1 >= len(text):
                break
            nxt = text[i + 1]
            escapes = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", quote: quote}
            out.append(escapes.get(nxt, nxt))
            i += 2
            continue
        out.append(ch)
        i += 1
    raise QueryError(f"unterminated string starting at position {start}")
