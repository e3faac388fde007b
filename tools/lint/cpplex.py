#!/usr/bin/env python3
"""cpplex: a lightweight C++ lexer for capstan-lint.

Every capstan-lint class reads this token stream, lexed once per file:
line numbers kept, comments and whitespace gone, string/char literals
opaque, and multi-character operators as single tokens. That is all
it is. It does not preprocess, expand macros, or build an AST; the
classes are designed around what a faithful token stream can support.

Token kinds:
    id     identifiers and keywords (C++ keywords are not special)
    num    numeric literals (including hex/float/separators)
    str    string literals, quotes included ("..." and R"raw(...)raw")
    char   character literals, quotes included
    punct  operators and punctuation; multi-char operators
           (`::`, `->`, `+=`, `<<=`, ...) are one token

Python 3.8+, standard library only.
"""

# Multi-character operators, longest first so maximal munch works.
_PUNCTS = (
    "<<=", ">>=", "->*", "...",
    "::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", ".*",
)


class Tok:
    """One lexical token: kind, exact text, 1-based source line."""

    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"Tok({self.kind!r}, {self.text!r}, {self.line})"

    def __eq__(self, other):
        return (isinstance(other, Tok) and self.kind == other.kind
                and self.text == other.text and self.line == other.line)


def _lex_quoted(text, i, quote):
    """Span of a quoted literal starting at @p i; handles escapes."""
    n = len(text)
    j = i + 1
    while j < n:
        c = text[j]
        if c == "\\":
            j += 2
            continue
        if c == quote:
            return j + 1
        if c == "\n":  # unterminated literal: stop at end of line
            return j
        j += 1
    return n


def _lex_raw_string(text, i):
    """Span of a raw string literal R"delim( ... )delim" at @p i."""
    n = len(text)
    j = text.find("(", i + 2)
    if j < 0:
        return n
    delim = text[i + 2:j]
    end = text.find(")" + delim + '"', j + 1)
    return n if end < 0 else end + len(delim) + 2


def lex(text):
    """Tokenize @p text; returns a list of Tok."""
    tokens = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c in " \t\r\v\f":
            i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            line += text.count("\n", i, j)
            i = j
        elif (c == "R" and i + 1 < n and text[i + 1] == '"'):
            j = _lex_raw_string(text, i)
            tokens.append(Tok("str", text[i:j], line))
            line += text.count("\n", i, j)
            i = j
        elif c == '"':
            j = _lex_quoted(text, i, '"')
            tokens.append(Tok("str", text[i:j], line))
            i = j
        elif c == "'":
            j = _lex_quoted(text, i, "'")
            tokens.append(Tok("char", text[i:j], line))
            i = j
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Tok("id", text[i:j], line))
            i = j
        elif c.isdigit() or (c == "." and i + 1 < n
                             and text[i + 1].isdigit()):
            j = i + 1
            while j < n:
                ch = text[j]
                if ch.isalnum() or ch in "._'":
                    j += 1
                elif ch in "+-" and text[j - 1] in "eEpP":
                    j += 1  # exponent sign
                else:
                    break
            tokens.append(Tok("num", text[i:j], line))
            i = j
        else:
            for p in _PUNCTS:
                if text.startswith(p, i):
                    tokens.append(Tok("punct", p, line))
                    i += len(p)
                    break
            else:
                tokens.append(Tok("punct", c, line))
                i += 1
    return tokens


def quoted_includes(tokens):
    """All `#include "path"` directives as (path, line) pairs.

    System includes (`#include <...>`) are intentionally skipped: only
    quoted includes participate in the project include graph.
    """
    out = []
    for i in range(len(tokens) - 2):
        if (tokens[i].kind == "punct" and tokens[i].text == "#"
                and tokens[i + 1].kind == "id"
                and tokens[i + 1].text == "include"
                and tokens[i + 2].kind == "str"):
            out.append((tokens[i + 2].text.strip('"'),
                        tokens[i].line))
    return out


def match_forward(tokens, i, open_text, close_text):
    """Index of the token closing the bracket opened at @p i."""
    depth = 0
    for j in range(i, len(tokens)):
        t = tokens[j]
        if t.kind == "punct":
            if t.text == open_text:
                depth += 1
            elif t.text == close_text:
                depth -= 1
                if depth == 0:
                    return j
    return len(tokens) - 1
