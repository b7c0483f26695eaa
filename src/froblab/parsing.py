"""Text DSL front end: polynomials, generator lists, ring declarations.

Grammar (whitespace insignificant):

    expr    := ["+"|"-"] product { ("+"|"-") product }
    product := factor { "*" factor }
    factor  := NUMBER | NAME ["^" NUMBER] | "(" expr ")" ["^" NUMBER]

Parenthesized groups are expanded at parse time; a product may contain at most
two grouped factors. Output formatting (rings.format_poly) is always canonical,
and parse(format(f)) == f.
"""

from __future__ import annotations

import itertools
import re

from .errors import ExponentOverflow, ParseError
from .rings import EXPONENT_LIMIT, Polynomial, RingDescriptor, make_ring

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))")
_RING = re.compile(r"^\s*F_?(\d+)\s*\[([^\]]*)\]\s*(?::\s*(lex|grevlex))?\s*$")


def _where(text, pos):
    """Line and column, both from 1, of the offset pos in text."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class _Tokens:
    def __init__(self, text):
        self.items = []  # (kind, value, line, col)
        end = 0
        # each match starts where the last ended; the scan stops at trailing newlines
        for m in _TOKEN.finditer(text):
            value = m.group(m.lastindex)
            if not value.isspace():
                kind = ("num", "name", "op")[m.lastindex - 1]
                self.items.append((kind, value, *_where(text, m.start(m.lastindex))))
            end = m.end()
        self.pos = 0
        self.end = ("end", "", *_where(text, end))

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return self.end

    def next(self):
        tok = self.peek()
        if tok[0] != "end":
            self.pos += 1
        return tok


class _PolyParser:
    def __init__(self, ring: RingDescriptor, text: str):
        self.ring = ring
        self.toks = _Tokens(text)

    def fail(self, message, tok=None):
        tok = tok or self.toks.peek()
        raise ParseError(message, tok[2], tok[3])

    def parse(self) -> Polynomial:
        f = self.expr()
        tok = self.toks.peek()
        if tok[0] != "end":
            self.fail(f"unexpected '{tok[1]}'")
        return f

    def expr(self) -> Polynomial:
        sign = 1
        kind, val, *_ = self.toks.peek()
        if kind == "op" and val in "+-":
            self.toks.next()
            sign = -1 if val == "-" else 1
        f = self.product() * sign
        while True:
            kind, val, *_ = self.toks.peek()
            if kind == "op" and val in "+-":
                self.toks.next()
                g = self.product()
                f = f + g if val == "+" else f - g
            else:
                return f

    def product(self) -> Polynomial:
        factors = [self.factor()]
        while True:
            kind, val, *_ = self.toks.peek()
            if kind == "op" and val == "*":
                self.toks.next()
                factors.append(self.factor())
            else:
                break
        grouped = sum(1 for _, g in factors if g)
        if grouped > 2:
            self.fail("at most 2 grouped factors per product level")
        f = factors[0][0]
        for g, _ in factors[1:]:
            f = f * g
        return f

    def factor(self):
        """Returns (polynomial, was_parenthesized_group)."""
        kind, val, line, col = self.toks.next()
        if kind == "num":
            return Polynomial.constant(self.ring, int(val)), False
        if kind == "name":
            try:
                base = Polynomial.variable(self.ring, val)
            except ValueError:
                raise ParseError(f"unknown variable {val}", line, col) from None
            return self._maybe_power(base), False
        if kind == "op" and val == "(":
            inner = self.expr()
            kind2, val2, line2, col2 = self.toks.next()
            if not (kind2 == "op" and val2 == ")"):
                raise ParseError("expected ')'", line2, col2)
            return self._maybe_power(inner), True
        if kind == "end":
            raise ParseError("unexpected end of input", line, col)
        raise ParseError(f"unexpected '{val}'", line, col)

    def _maybe_power(self, base: Polynomial) -> Polynomial:
        kind, val, *_ = self.toks.peek()
        if kind == "op" and val == "^":
            self.toks.next()
            kind2, val2, line2, col2 = self.toks.next()
            if kind2 != "num":
                raise ParseError("expected integer exponent after '^'", line2, col2)
            n = int(val2)
            if n > EXPONENT_LIMIT:
                raise ExponentOverflow(f"exponent {n} beyond {EXPONENT_LIMIT}")
            return base**n
        return base


def parse_poly(ring: RingDescriptor, text: str) -> Polynomial:
    """Parse the polynomial DSL into canonical form."""
    return _PolyParser(ring, text).parse()


def split_top_level(text: str, sep: str = ","):
    """Split on sep outside parentheses; used for generator lists. Each part
    is padded on the left with spaces to the column where it starts in text,
    so that a parse error in it names a column of text."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(" " * start + text[start:i])
            start = i + 1
    parts.append(" " * start + text[start:])
    return parts


def parse_gens(ring: RingDescriptor, text: str):
    """Parse a comma-separated generator list, optionally parenthesized;
    error positions are those in text."""
    inner = text.strip()
    if inner.startswith("(") and inner.endswith(")"):
        # the outer parentheses match when no prefix of what they hold closes more than it opens
        depths = itertools.accumulate((ch == "(") - (ch == ")") for ch in inner[1:-1])
        if min(depths, default=0) >= 0:
            start, end = text.index("("), text.rindex(")")
            text = f"{text[:start]} {text[start + 1:end]} "
    if not text.strip():
        return []
    return [parse_poly(ring, part) for part in split_top_level(text)]


def parse_ring(text: str) -> RingDescriptor:
    """Parse a ring declaration like "F5[x,y,z]" or "F_101[x1,...]:lex"."""
    m = _RING.match(text)
    if not m:
        raise ParseError(f"bad ring declaration: {text!r}")
    p = int(m.group(1))
    names = [v.strip() for v in m.group(2).split(",") if v.strip()]
    order = m.group(3) or "grevlex"
    return make_ring(p, names, order=order)
