"""Lexer for the Click router-configuration language.

The language is deliberately small and declarative (§5.2 of the paper):
its sole function is to describe elements and the connections between
them.  The lexer produces a token stream; parenthesized configuration
strings are captured *raw* (quotes, nested parentheses and comments
respected) because element configuration syntax is the element's own
business — tools must round-trip it byte-for-byte.

Every configuration is parsed whole at least once — at load, and by a
control-plane update whose edit the region re-parse
(:mod:`repro.lang.region`) cannot resolve — so the scanner stays in C
as far as it can: one compiled pattern skips whitespace and comments
and matches the next token, a configuration string is captured by
jumping between the characters that matter in it, and line and column
come from counting newlines between token starts.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ClickSyntaxError, SourceLocation

# Token kinds.
IDENT = "IDENT"
NUMBER = "NUMBER"
VARIABLE = "VARIABLE"  # $name, inside compound-element bodies
CONFIG = "CONFIG"  # raw text between ( and )
COLONCOLON = "::"
ARROW = "->"
SEMI = ";"
COMMA = ","
BAR = "|"
BARBAR = "||"
LBRACE = "{"
RBRACE = "}"
LBRACKET = "["
RBRACKET = "]"
ELEMENTCLASS = "elementclass"
REQUIRE = "require"
EOF = "EOF"

_KEYWORDS = {"elementclass": ELEMENTCLASS, "require": REQUIRE}


class Token(NamedTuple):
    kind: str
    value: str
    location: SourceLocation

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.value)


# One match per token: whitespace and comments, then the token.  The
# last alternative is empty, so a match never fails and never backtracks
# into the skipped text; it marks end of input, an unterminated block
# comment, or a character no token starts with.  Punctuation kinds are
# their own text; a number is a run of decimal digits (``\d``: what
# ``int`` reads, so superscripts are unexpected characters).
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*"
    r"(?:(?P<IDENT>[A-Za-z_@][A-Za-z0-9_@/]*)"
    r"|(?P<NUMBER>\d+)"
    r"|(?P<PUNCT>::|->|\|\||[;,|{}\[\]])"
    r"|(?P<VARIABLE>\$[A-Za-z0-9_@/]*)"
    r"|(?P<CONFIG>\()"
    r"|(?P<OTHER>))",
    re.S,
)
# Inside a configuration string: the next character or pair that is not
# plain text.
_CONFIG_STOP = re.compile(r'[()"]|//|/\*')
# The rest of a double-quoted string after its opening quote; a
# backslash escapes the next character.
_STRING_REST = re.compile(r'[^"\\]*(?:\\.[^"\\]*)*"', re.S)


def _config_end(text, open_paren, location):
    """The index of the ``)`` that closes the ``(`` at ``open_paren``.
    Parentheses inside double-quoted strings or comments don't count."""
    depth = 1
    pos = open_paren + 1
    while True:
        stop = _CONFIG_STOP.search(text, pos)
        if stop is None:
            break
        char = stop.group()
        pos = stop.end()
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth == 0:
                return stop.start()
        elif char == '"':
            rest = _STRING_REST.match(text, pos)
            if rest is None:
                raise ClickSyntaxError("unterminated string in configuration", location)
            pos = rest.end()
        elif char == "//":
            pos = text.find("\n", pos)
            if pos < 0:
                break
        else:
            pos = text.find("*/", pos) + 2
            if pos < 2:
                break
    raise ClickSyntaxError("unterminated configuration string", location)


def tokenize(text, filename="<config>"):
    """The token list for ``text``, ending with EOF.  A configuration
    string is captured raw (stripped of surrounding whitespace) as one
    CONFIG token located at its ``(``."""
    tokens = []
    append = tokens.append
    match = _TOKEN.match
    pos = 0
    line = 1
    line_start = 0  # index of the first character of ``line``
    last = 0  # where the previous token started
    while True:
        found = match(text, pos)
        kind = found.lastgroup
        start = found.start(kind)
        newlines = text.count("\n", last, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", last, start) + 1
        last = start
        location = SourceLocation(filename, line, start - line_start + 1)
        pos = found.end()
        if kind == "IDENT":
            value = found.group(kind)
            append(Token(_KEYWORDS.get(value, IDENT), value, location))
        elif kind == "PUNCT":
            value = found.group(kind)
            append(Token(value, value, location))
        elif kind == "CONFIG":
            end = _config_end(text, start, location)
            append(Token(CONFIG, text[pos:end].strip(), location))
            pos = end + 1
        elif kind == "NUMBER":
            append(Token(NUMBER, found.group(kind), location))
        elif kind == "VARIABLE":
            value = found.group(kind)
            if value == "$":
                raise ClickSyntaxError("'$' must introduce a variable name", location)
            append(Token(VARIABLE, value, location))
        elif pos == len(text):
            append(Token(EOF, "", location))
            return tokens
        elif text.startswith("/*", pos):
            raise ClickSyntaxError("unterminated block comment", location)
        else:
            raise ClickSyntaxError("unexpected character %r" % text[pos], location)


#: What decides where a configuration string splits: a quoted string
#: (backslash escapes; an unterminated one runs to the end), a bracket,
#: or a comma.  Everything between them is argument text.
_ARG_SEPARATORS = re.compile(r'"(?:[^"\\]|\\.)*"?|[,()\[\]{}]', re.DOTALL)


def split_config_args(config):
    """Split an element configuration string into top-level comma-separated
    arguments, respecting quotes, parentheses, brackets, and braces.

    >>> split_config_args("12/0800, -")
    ['12/0800', '-']
    >>> split_config_args('"a, b", c')
    ['"a, b"', 'c']
    """
    if config is None:
        return []
    args = []
    depth = start = 0
    for found in _ARG_SEPARATORS.finditer(config):
        char = found.group()
        if char == ",":
            if depth == 0:
                args.append(config[start : found.start()].strip())
                start = found.end()
        elif char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
    tail = config[start:].strip()
    if tail or args:
        args.append(tail)
    # An entirely empty configuration means zero arguments.
    if args == [""]:
        return []
    return args


def join_config_args(args):
    """Inverse of :func:`split_config_args` for well-behaved arguments."""
    return ", ".join(args)
