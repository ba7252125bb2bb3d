"""Unit tests for the Click-language lexer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configs import crossed_pairs, firewall_config, ip_router_config, simple_config
from repro.configs.iprouter import default_interfaces
from repro.core.pipeline import named_pipeline
from repro.core.toolchain import load_config, save_config
from repro.errors import SourceLocation
from repro.lang import lexer as lex
from repro.lang.archive import read_archive
from repro.lang.errors import ClickSyntaxError
from repro.lang.lexer import Token, join_config_args, split_config_args, tokenize
from repro.verify.genconfig import generate_case


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)]


class TestTokens:
    def test_declaration(self):
        assert kinds("c :: Classifier(12/0800, -);") == [
            lex.IDENT, lex.COLONCOLON, lex.IDENT, lex.CONFIG, lex.SEMI, lex.EOF,
        ]

    def test_config_is_raw(self):
        tokens = tokenize("c :: Classifier(12/0800, -);")
        config = [t for t in tokens if t.kind == lex.CONFIG][0]
        assert config.value == "12/0800, -"

    def test_arrow_and_ports(self):
        assert kinds("a [0] -> [1] b;") == [
            lex.IDENT, lex.LBRACKET, lex.NUMBER, lex.RBRACKET, lex.ARROW,
            lex.LBRACKET, lex.NUMBER, lex.RBRACKET, lex.IDENT, lex.SEMI, lex.EOF,
        ]

    def test_line_comments_skipped(self):
        assert values("a // comment -> b\n-> c;")[:3] == ["a", "->", "c"]

    def test_block_comments_skipped(self):
        assert values("a /* x -> y */ -> c;")[:3] == ["a", "->", "c"]

    def test_unterminated_block_comment(self):
        with pytest.raises(ClickSyntaxError):
            tokenize("a /* never closed")

    def test_nested_parens_in_config(self):
        tokens = tokenize("f :: IPFilter(allow (src 1.0.0.1), deny all)")
        config = [t for t in tokens if t.kind == lex.CONFIG][0]
        assert config.value == "allow (src 1.0.0.1), deny all"

    def test_quotes_protect_parens_in_config(self):
        tokens = tokenize('e :: Error(")")')
        config = [t for t in tokens if t.kind == lex.CONFIG][0]
        assert config.value == '")"'

    def test_unterminated_config(self):
        with pytest.raises(ClickSyntaxError):
            tokenize("c :: Classifier(12/0800")

    def test_elementclass_keyword(self):
        assert kinds("elementclass Foo { }")[0] == lex.ELEMENTCLASS

    def test_variable(self):
        tokens = tokenize("$color")
        assert tokens[0].kind == lex.VARIABLE
        assert tokens[0].value == "$color"

    def test_identifiers_may_contain_at_and_slash(self):
        tokens = tokenize("FastClassifier@@c")
        assert tokens[0].kind == lex.IDENT
        assert tokens[0].value == "FastClassifier@@c"

    def test_location_tracking(self):
        tokens = tokenize("a ->\n  b;")
        b_token = [t for t in tokens if t.value == "b"][0]
        assert b_token.location.line == 2
        assert b_token.location.column == 3

    def test_unexpected_character(self):
        with pytest.raises(ClickSyntaxError):
            tokenize("a ~ b")

    def test_error_messages_and_locations(self):
        cases = [
            ("a\n  /* never closed", "unterminated block comment", 2, 3),
            ('x :: Error("a)\n', "unterminated string in configuration", 1, 11),
            ("x :: Queue(\n(1)", "unterminated configuration string", 1, 11),
            ("a -> $ b", "'$' must introduce a variable name", 1, 6),
            ("a ->\tb ~", "unexpected character '~'", 1, 8),
        ]
        for text, message, line, column in cases:
            with pytest.raises(ClickSyntaxError) as info:
                tokenize(text, "t.click")
            assert info.value.bare_message == message
            assert info.value.location == SourceLocation("t.click", line, column)
            assert str(info.value) == "t.click:%d:%d: %s" % (line, column, message)

    def test_numbers_are_decimal_digits(self):
        """``\\d``, which is what ``int`` reads: an Arabic-Indic digit is a
        port number, a superscript two is not a digit at all."""
        assert tokenize("[\u0663]")[1][:2] == (lex.NUMBER, "\u0663")
        with pytest.raises(ClickSyntaxError, match="unexpected character"):
            tokenize("[\u00b2]")

    def test_location_after_multiline_config_and_comments(self):
        tokens = tokenize("a :: Q(1,\n 2) /* x\n y */ // z\n\r\n  -> b;")
        arrow = [t for t in tokens if t.kind == lex.ARROW][0]
        assert arrow.location == SourceLocation("<config>", 5, 3)
        assert tokens[-1].location == SourceLocation("<config>", 5, 8)


class TestRecords:
    """Tokens and locations are tuples that keep a record's str, repr,
    equality and hash (a frozen dataclass hashes its field tuple too)."""

    def test_source_location(self):
        location = SourceLocation("f.click", 3, 7)
        assert str(location) == "f.click:3:7"
        assert repr(location) == "SourceLocation(filename='f.click', line=3, column=7)"
        assert location == SourceLocation("f.click", 3, 7)
        assert location != SourceLocation("f.click", 3, 8)
        assert hash(location) == hash(("f.click", 3, 7))
        assert "%s" % (location,) == "f.click:3:7"

    def test_token(self):
        location = SourceLocation("<config>", 1, 6)
        token = tokenize("a -> b")[2]
        assert token == Token(lex.IDENT, "b", location)
        assert repr(token) == "Token(IDENT, 'b')"
        assert str(token) == "Token(IDENT, 'b')"
        assert hash(token) == hash((lex.IDENT, "b", ("<config>", 1, 6)))
        assert token != Token(lex.IDENT, "b", SourceLocation("<config>", 1, 7))


# -- the reference lexer -----------------------------------------------------
#
# The lexer's earlier form, frozen: a class that walked the text one
# character at a time through _peek and _advance.  Its tokens are plain
# (kind, value, (filename, line, column)) tuples.  The scanner must agree
# with it token for token, and error for error, on every text below.


class ReferenceLexer:
    def __init__(self, text, filename="<config>"):
        self.text = text
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    def location(self):
        return (self.filename, self.line, self.column)

    def error(self, message, location):
        return ClickSyntaxError(message, SourceLocation(*location))

    def _advance(self, count=1):
        for _ in range(count):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                    self.column = 1
                else:
                    self.column += 1
                self.pos += 1

    def _peek(self, offset=0):
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _skip_space_and_comments(self):
        while self.pos < len(self.text):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                start = self.location()
                self._advance(2)
                while self.pos < len(self.text) and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                if self.pos >= len(self.text):
                    raise self.error("unterminated block comment", start)
                self._advance(2)
            else:
                return

    def _lex_config(self):
        start = self.location()
        self._advance()
        depth = 1
        chunk_start = self.pos
        while self.pos < len(self.text):
            char = self._peek()
            if char == '"':
                self._advance()
                while self.pos < len(self.text) and self._peek() != '"':
                    if self._peek() == "\\":
                        self._advance()
                    self._advance()
                if self.pos >= len(self.text):
                    raise self.error("unterminated string in configuration", start)
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.text) and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                self._advance(2)
            elif char == "(":
                depth += 1
                self._advance()
            elif char == ")":
                depth -= 1
                if depth == 0:
                    value = self.text[chunk_start:self.pos].strip()
                    self._advance()
                    return (lex.CONFIG, value, start)
                self._advance()
            else:
                self._advance()
        raise self.error("unterminated configuration string", start)

    def next_token(self):
        ident_start = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_@")
        ident_cont = ident_start | set("0123456789/")
        self._skip_space_and_comments()
        loc = self.location()
        if self.pos >= len(self.text):
            return (lex.EOF, "", loc)
        char = self._peek()
        if char == "(":
            return self._lex_config()
        for pair in ("::", "->", "||"):
            if char == pair[0] and self._peek(1) == pair[1]:
                self._advance(2)
                return (pair, pair, loc)
        if char in ";,|{}[]":
            self._advance()
            return (char, char, loc)
        if char == "$":
            self._advance()
            start = self.pos
            while self.pos < len(self.text) and self._peek() in ident_cont:
                self._advance()
            name = self.text[start:self.pos]
            if not name:
                raise self.error("'$' must introduce a variable name", loc)
            return (lex.VARIABLE, "$" + name, loc)
        if char.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self._peek().isdigit():
                self._advance()
            return (lex.NUMBER, self.text[start:self.pos], loc)
        if char in ident_start:
            start = self.pos
            while self.pos < len(self.text) and self._peek() in ident_cont:
                self._advance()
            word = self.text[start:self.pos]
            return ({"elementclass": lex.ELEMENTCLASS, "require": lex.REQUIRE}.get(word, lex.IDENT), word, loc)
        raise self.error("unexpected character %r" % char, loc)


def outcome(scan, text):
    """``scan``'s tokens as plain tuples, or its error as
    ``(type, message, location)``."""
    try:
        return [(kind, value, tuple(location)) for kind, value, location in scan(text)]
    except ClickSyntaxError as exc:
        return (type(exc), exc.bare_message, tuple(exc.location))


def reference_tokens(text):
    lexer = ReferenceLexer(text)
    tokens = []
    while not tokens or tokens[-1][0] != lex.EOF:
        tokens.append(lexer.next_token())
    return tokens


def assert_agrees(text):
    assert outcome(tokenize, text) == outcome(reference_tokens, text), text


def stock_texts():
    return [
        ip_router_config(),
        ip_router_config(default_interfaces(4), mtu=576, extra_routes=("10.9.0.0/16 1",)),
        firewall_config(),
        simple_config(),
        simple_config(crossed_pairs(2)),
    ]


def paper_pipeline_texts():
    """click-optimize's paper pipeline output, and each of its archive
    members on its own (generated Python source included)."""
    text = save_config(named_pipeline("paper").run(load_config(ip_router_config())).graph)
    return [text] + list(read_archive(text).values())


# Characters and pairs that steer the scanner: quotes and escapes,
# parentheses, both comment forms, variables, newlines and CRs,
# punctuation, a character no token starts with, and non-ASCII letters
# and digits.
_MUTATIONS = [
    '"', "\\", '\\"', "(", ")", "((", "//", "/*", "*/", "/", "*", "$", "$x",
    "\n", "\r", "\t", " ", ":", "::", "-", "->", "|", "||", ";", ",", "[", "]",
    "{", "}", "a", "7", "@", "~", "\u00e9", "\u0663", "elementclass", "require",
]


def mutants(rng, base, count):
    for _ in range(count):
        start = rng.randrange(len(base))
        text = list(base[start:start + rng.randint(20, 400)])
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(text) + 1)
            roll = rng.random()
            if roll < 0.5 or not text:
                text.insert(at, rng.choice(_MUTATIONS))
            elif roll < 0.75:
                del text[min(at, len(text) - 1)]
            else:
                text[min(at, len(text) - 1)] = rng.choice(_MUTATIONS)
        yield "".join(text)


class TestAgainstReference:
    def test_stock_configurations(self):
        for text in stock_texts():
            assert_agrees(text)
            assert isinstance(outcome(tokenize, text), list)

    def test_paper_pipeline_output_and_archive_members(self):
        texts = paper_pipeline_texts()
        assert len(texts) > 2
        for text in texts:
            assert_agrees(text)

    def test_generated_configurations(self):
        for index in range(16):
            assert_agrees(generate_case(7, index)["config"])

    def test_edge_cases(self):
        for text in [
            "", " ", "\n\n", "//", "// x", "/**/", "/*/", "/* */x", "a/**/b", "a//b\nc",
            "$", "$$", "$1a/b", "a$b", "1a", "a1/2", "::::", "-->", "|||", ":", "-",
            "f(", "f()", "f( )", "f(())", "f(()", 'f(")")', 'f("\\")', 'f("\\', 'f("\\"',
            'f("a\\"b")', "f(/*)*/)", "f(/*)", "f(/* *//)", "f(/**/*)", "f(/* *//* */)",
            "f(// )\n)", "f(// )", "f(a)(b)", "a /* *//b", "a /**//**/b",
            "f(\u00a0x\u00a0)", "a\r\nb", "\u00e9", "a\x0cb", "a\u2028b",
        ]:
            assert_agrees(text)

    def test_seeded_mutations(self):
        rng = random.Random(2029)
        bases = stock_texts() + paper_pipeline_texts()[:1]
        messages = set()
        count = 0
        for base in bases:
            for text in mutants(rng, base, 420):
                expected = outcome(reference_tokens, text)
                assert outcome(tokenize, text) == expected, text
                if isinstance(expected, tuple):
                    messages.add(expected[1].split(" '")[0])
                count += 1
        assert count >= 2000
        # Every way the scanner can fail was reached.
        assert {
            "unterminated block comment",
            "unterminated string in configuration",
            "unterminated configuration string",
            "'$' must introduce a variable name",
            "unexpected character",
        } <= messages


class TestConfigSplitting:
    def test_simple(self):
        assert split_config_args("12/0800, -") == ["12/0800", "-"]

    def test_empty(self):
        assert split_config_args("") == []
        assert split_config_args(None) == []

    def test_quoted_commas(self):
        assert split_config_args('"a, b", c') == ['"a, b"', "c"]

    def test_nested_parens(self):
        assert split_config_args("f(a, b), c") == ["f(a, b)", "c"]

    def test_trailing_empty_arg_preserved(self):
        assert split_config_args("a, ") == ["a", ""]

    def test_join_round_trip(self):
        args = ["12/0800", "-", "src 1.0.0.1"]
        assert split_config_args(join_config_args(args)) == args

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet='ab ,()[]{}"\\\t\n', max_size=40))
    def test_splits_as_the_character_loop(self, config):
        assert split_config_args(config) == loop_split(config)

    def test_splits_every_stock_configuration_as_the_character_loop(self):
        for text in stock_texts():
            for decl in load_config(text, "<stock>").elements.values():
                assert split_config_args(decl.config) == loop_split(decl.config)


def loop_split(config):
    """The character-at-a-time splitter :func:`split_config_args`
    replaced, kept as its oracle."""
    if config is None:
        return []
    args = []
    depth = 0
    current = []
    index = 0
    while index < len(config):
        char = config[index]
        if char == '"':
            current.append(char)
            index += 1
            while index < len(config) and config[index] != '"':
                if config[index] == "\\" and index + 1 < len(config):
                    current.append(config[index])
                    index += 1
                current.append(config[index])
                index += 1
            if index < len(config):
                current.append('"')
                index += 1
            continue
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        if char == "," and depth == 0:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(char)
        index += 1
    tail = "".join(current).strip()
    if tail or args:
        args.append(tail)
    if args == [""]:
        return []
    return args
