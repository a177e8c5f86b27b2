"""Expression parser for mixed elements.

Grammar (EBNF):

    expression := term , { ("+" | "-") , term } ;
    term       := signed , { ("*" | "/") , signed } ;
    signed     := "-" , signed | power ;
    power      := atom , { "^" , ( exponent | atom ) } ;
    atom       := natural | name | "(" , expression , ")" ;
    name       := "h" | "i" | ( "x" | "y" | "dx" ) , digits ;
    exponent   := [ "-" ] , digits ;

``*`` and ``^``-between-elements are the same graded product, so wedge
factors may be written either way (``dx1*dx2`` or ``dx1^dx2``); antisymmetry
is applied by the product itself.  ``/`` divides by an invertible factor
(a scalar, possibly times a power of ``h``).  Exceeding a policy cap is not
an error: the offending terms are dropped and reported as a notice.

:func:`read_json` and :func:`json_field` read the JSON input files (subsets,
connections, configs); malformed JSON, a missing key or a value of the wrong
type is a :class:`ValidationError` that names the file or the key.
"""

from __future__ import annotations

import json
import re

from .elements import MixedElement, TruncationPolicy
from .errors import JetstarError, ParseError, ValidationError
from .scalars import Scalar

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(dx\d+|x\d+|y\d+|h|i)|([()+\-*/^]))")

_MAX_EXPONENT = 10_000

# Parse-time arithmetic runs nearly untruncated so that cap overflows can be
# detected and reported; the final result is truncated by the real policy.
_WIDE = 1 << 30


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        number, name, op = match.groups()
        start = match.end() - len(match.group().lstrip())
        if number is not None:
            tokens.append(_Token("int", int(number), start))
        elif name is not None:
            tokens.append(_Token("name", name, start))
        else:
            tokens.append(_Token("op", op, start))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens, dim, wide_policy, text_len):
        self.tokens = tokens
        self.index = 0
        self.dim = dim
        self.policy = wide_policy
        self.text_len = text_len

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self):
        token = self.peek()
        if token is not None:
            self.index += 1
        return token

    def expect_op(self, op):
        token = self.peek()
        if token is None or token.kind != "op" or token.value != op:
            raise ParseError(f"expected {op!r}", token.pos if token else self.text_len)
        return self.next()

    def parse_expression(self):
        value = self.parse_term()
        while True:
            token = self.peek()
            if token is None or token.kind != "op" or token.value not in "+-":
                return value
            self.next()
            rhs = self.parse_term()
            value = value + rhs if token.value == "+" else value - rhs

    def parse_term(self):
        value = self.parse_signed()
        while True:
            token = self.peek()
            if token is None or token.kind != "op" or token.value not in "*/":
                return value
            self.next()
            rhs = self.parse_signed()
            if token.value == "*":
                value = value.mul(rhs, self.policy)
            else:
                value = value.mul(_invert(rhs, token.pos), self.policy)

    def parse_signed(self):
        token = self.peek()
        if token is not None and token.kind == "op" and token.value == "-":
            self.next()
            return -self.parse_signed()
        return self.parse_power()

    def parse_power(self):
        value = self.parse_atom()
        while True:
            token = self.peek()
            if token is None or token.kind != "op" or token.value != "^":
                return value
            caret = self.next()
            value = self.parse_power_tail(value, caret.pos)

    def parse_power_tail(self, base, caret_pos):
        token = self.peek()
        if token is None:
            raise ParseError("dangling '^'", caret_pos)
        negative = False
        if token.kind == "op" and token.value == "-":
            self.next()
            token = self.peek()
            if token is None or token.kind != "int":
                raise ParseError("expected integer exponent after '^-'", caret_pos)
            negative = True
        if token.kind == "int":
            self.next()
            exponent = -token.value if negative else token.value
            return _int_power(base, exponent, self.policy, caret_pos)
        # '^' between elements is the graded (wedge) product
        rhs = self.parse_atom()
        return base.mul(rhs, self.policy)

    def parse_atom(self):
        token = self.next()
        if token is None:
            raise ParseError("unexpected end of expression", self.text_len)
        if token.kind == "int":
            return MixedElement.scalar(self.dim, Scalar(token.value))
        if token.kind == "name":
            return self._name_element(token)
        if token.kind == "op" and token.value == "(":
            value = self.parse_expression()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {token.value!r}", token.pos)

    def _name_element(self, token):
        name = token.value
        if name == "h":
            return MixedElement.hbar(self.dim)
        if name == "i":
            return MixedElement.scalar(self.dim, Scalar.i())
        kind, index = ("dx", name[2:]) if name.startswith("dx") else (name[0], name[1:])
        j = int(index)
        if not 1 <= j <= self.dim:
            raise ParseError(f"variable {name!r} out of range for dimension {self.dim}", token.pos)
        if kind == "x":
            return MixedElement.base_var(self.dim, j)
        if kind == "y":
            return MixedElement.fiber_var(self.dim, j)
        return MixedElement.form_var(self.dim, j)


def _invert(element, pos):
    if len(element.terms) != 1:
        raise ParseError("division by a non-invertible expression", pos)
    ((alpha, beta, k, forms), coeff), = element.terms.items()
    if any(alpha) or any(beta) or forms:
        raise ParseError("division by a non-invertible expression", pos)
    inverse = Scalar.one() / coeff
    return MixedElement.monomial(element.dim, inverse, k=-k)


def _int_power(base, exponent, policy, pos):
    if abs(exponent) > _MAX_EXPONENT:
        raise ParseError(f"exponent {exponent} too large", pos)
    if exponent < 0:
        return _int_power(_invert(base, pos), -exponent, policy, pos)
    result = MixedElement.one(base.dim)
    for _ in range(exponent):
        result = result.mul(base, policy)
    return result


def parse_element(text, policy, notices=None):
    """Parse ``text`` into a MixedElement truncated by ``policy``.

    ``notices``, if given, is a list that truncation messages are appended
    to (terms dropped by the policy caps are a notice, not an error).
    Raises :class:`ParseError` with a position on malformed input.
    """
    if not isinstance(policy, TruncationPolicy):
        raise ValidationError("parse_element needs a TruncationPolicy")
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    wide = TruncationPolicy(policy.half_dim, _WIDE, _WIDE, _WIDE, -_WIDE)
    parser = _Parser(tokens, policy.dim, wide, len(text))
    value = parser.parse_expression()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected token {trailing.value!r}", trailing.pos)
    truncated = value.truncate(policy)
    dropped = len(value.terms) - len(truncated.terms)
    if dropped and notices is not None:
        notices.append(f"truncation: {dropped} term(s) beyond policy caps dropped")
    return truncated


def read_json(path):
    """The JSON value stored at ``path``; malformed JSON is a ValidationError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from None


def json_field(data, key, convert):
    """``convert(data[key])``; a missing key or a value ``convert`` rejects
    is a ValidationError naming ``key``."""
    if not isinstance(data, dict):
        raise ValidationError(f"expected a JSON object with key {key!r}, got {type(data).__name__}")
    if key not in data:
        raise ValidationError(f"missing key {key!r}")
    try:
        return convert(data[key])
    except JetstarError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid value for {key!r}: {exc}") from None
