"""Propositional formulas: syntax tree, connective table, parser, and
canonical printer.

The concrete grammar, loosest binding last::

    formula := iff
    iff     := imp ( "<->" imp )*
    imp     := or ( ("->" | "<-" | "!->" | "!<-") or )?
    or      := xor ( ("|" | "nor") xor )*
    xor     := and ( "^" and )*
    and     := unary ( ("&" | "nand") unary )*
    unary   := "!" unary | atom
    atom    := ident | "0" | "1" | "F" | "T"
             | "maj" "(" formula "," formula "," formula ")"
             | "(" formula ")"

Runs of "&", "^" and "|" are flattened into a single k-ary node, so
``x & y & z`` is one conjunction over three operands while
``(x & y) & z`` keeps its nesting.  ``nand``/``nor`` chains associate to
the left without flattening.  The four implication operators are
non-associative: chaining them without parentheses is a syntax error.
Keywords (``F``, ``T``, ``nand``, ``nor``, ``maj``) are case-insensitive
and reserved; they cannot be used as variable names.

Unicode operator aliases are accepted on input only:
``¬`` ``∧`` ``∨`` ``⊕`` ``⇒`` ``⇐`` ``≡`` for
``!`` ``&`` ``|`` ``^`` ``->`` ``<-`` ``<->``.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import NamedTuple

from .errors import ParseError, UnboundVariableError


class Connective(Enum):
    """Named connectives available as formula nodes."""

    AND = "&"
    OR = "|"
    XOR = "^"
    NAND = "nand"
    NOR = "nor"
    IMPLIES = "->"
    CONVERSE_IMPLIES = "<-"
    NON_IMPLIES = "!->"
    CONVERSE_NON_IMPLIES = "!<-"
    EQUIV = "<->"
    MAJ = "maj"


#: Connectives restricted to exactly two operands.
BINARY_ONLY = frozenset(
    {
        Connective.IMPLIES,
        Connective.CONVERSE_IMPLIES,
        Connective.NON_IMPLIES,
        Connective.CONVERSE_NON_IMPLIES,
        Connective.EQUIV,
    }
)

#: Connectives whose parse-level chains collapse into one k-ary node.
FLATTENED = frozenset({Connective.AND, Connective.OR, Connective.XOR})

# Printer binding strength; atoms bind tightest.
_LEVEL_ATOM = 6
_LEVEL_NOT = 5


class Algebra(NamedTuple):
    """The four primitives of a Boolean algebra in which every connective's
    meaning is written: bitmask integers and multilinear polynomials each
    supply one."""

    neg: Callable
    and_: Callable
    or_: Callable
    xor: Callable

    def apply(self, op: Connective, values):
        """Value of ``op`` applied to the operand ``values``."""
        return CONNECTIVES[op].meaning(self, values)


class ConnectiveRow(NamedTuple):
    level: int  # printer binding strength
    meaning: Callable  # (algebra, operand values) -> value


def _maj(A: Algebra, v):
    return A.or_(A.or_(A.and_(v[0], v[1]), A.and_(v[0], v[2])), A.and_(v[1], v[2]))


#: Each connective defined once, after Boole: one form over the primitives
#: of an algebra ``A``, read as truth values or as polynomials by the
#: algebra that applies it.
CONNECTIVES: dict[Connective, ConnectiveRow] = {
    Connective.AND: ConnectiveRow(4, lambda A, v: reduce(A.and_, v)),
    Connective.NAND: ConnectiveRow(4, lambda A, v: A.neg(reduce(A.and_, v))),
    Connective.XOR: ConnectiveRow(3, lambda A, v: reduce(A.xor, v)),
    Connective.OR: ConnectiveRow(2, lambda A, v: reduce(A.or_, v)),
    Connective.NOR: ConnectiveRow(2, lambda A, v: A.neg(reduce(A.or_, v))),
    Connective.IMPLIES: ConnectiveRow(1, lambda A, v: A.or_(A.neg(v[0]), v[1])),
    Connective.CONVERSE_IMPLIES: ConnectiveRow(
        1, lambda A, v: A.or_(v[0], A.neg(v[1]))
    ),
    Connective.NON_IMPLIES: ConnectiveRow(1, lambda A, v: A.and_(v[0], A.neg(v[1]))),
    Connective.CONVERSE_NON_IMPLIES: ConnectiveRow(
        1, lambda A, v: A.and_(A.neg(v[0]), v[1])
    ),
    Connective.EQUIV: ConnectiveRow(0, lambda A, v: A.neg(A.xor(v[0], v[1]))),
    # Printed in function-call syntax, so it binds like an atom.
    Connective.MAJ: ConnectiveRow(_LEVEL_ATOM, _maj),
}

IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Lower-cased words that can never be variable names.
RESERVED_WORDS = frozenset({"f", "t", "nand", "nor", "maj"})


class Formula:
    """Base class for formula nodes.  Instances are immutable and hashable."""

    __slots__ = ()

    def __invert__(self) -> "Formula":
        return Not(self)

    def __and__(self, other: "Formula") -> "Formula":
        return App(Connective.AND, (self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return App(Connective.OR, (self, other))

    def __xor__(self, other: "Formula") -> "Formula":
        return App(Connective.XOR, (self, other))

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True, slots=True)
class Const(Formula):
    """Logical constant, 0 for false and 1 for true."""

    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {self.value!r}")


@dataclass(frozen=True, slots=True)
class Var(Formula):
    """Reference to a named atomic proposition."""

    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not IDENTIFIER_RE.match(self.name):
            raise ValueError(f"invalid variable name {self.name!r}")
        if self.name.lower() in RESERVED_WORDS:
            raise ValueError(f"variable name {self.name!r} is a reserved word")


@dataclass(frozen=True, slots=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, slots=True)
class App(Formula):
    """Application of a connective to a tuple of operand formulas."""

    op: Connective
    operands: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "operands", tuple(self.operands))
        k = len(self.operands)
        if self.op in BINARY_ONLY:
            if k != 2:
                raise ValueError(f"{self.op.name} takes exactly 2 operands, got {k}")
        elif self.op is Connective.MAJ:
            if k != 3:
                raise ValueError(f"MAJ takes exactly 3 operands, got {k}")
        elif k < 2:
            raise ValueError(f"{self.op.name} takes at least 2 operands, got {k}")


@dataclass(frozen=True, slots=True)
class VariableOrder:
    """Ordered distinct variable names; position 0 is the most significant
    argument (leftmost Kronecker factor downstream)."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names!r}")
        for name in self.names:
            if not IDENTIFIER_RE.match(name) or name.lower() in RESERVED_WORDS:
                raise ValueError(f"invalid variable name {name!r}")

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def position(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnboundVariableError(name) from None


def variables(f: Formula) -> VariableOrder:
    """Distinct variable names in order of first occurrence, pre-order
    left to right.  Constant formulas yield the empty order."""
    seen: dict[str, None] = {}

    def walk(g: Formula) -> None:
        if isinstance(g, Var):
            seen.setdefault(g.name)
        elif isinstance(g, Not):
            walk(g.operand)
        elif isinstance(g, App):
            for child in g.operands:
                walk(child)

    walk(f)
    return VariableOrder(tuple(seen))


# --------------------------------------------------------------------------
# Tokenizer

_UNICODE_ALIASES = {
    "¬": "!",
    "∧": "&",
    "∨": "|",
    "⊕": "^",
    "⇒": "->",
    "⇐": "<-",
    "≡": "<->",
}

# Longest first, so "!->" wins over "!" and "<->" over "<-".
_MULTI_CHAR_OPS = ("!->", "!<-", "<->", "->", "<-")
_SINGLE_CHAR_TOKENS = frozenset("!&^|(),")


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # operator/punctuation text, or "ident", "const", "maj", "end"
    text: str
    pos: int  # 1-based character offset
    value: int = 0  # constant value when kind == "const"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        pos = i + 1
        if ch in _UNICODE_ALIASES:
            tokens.append(_Token(_UNICODE_ALIASES[ch], ch, pos))
            i += 1
            continue
        for sym in _MULTI_CHAR_OPS:
            if text.startswith(sym, i):
                tokens.append(_Token(sym, sym, pos))
                i += len(sym)
                break
        else:
            if ch in _SINGLE_CHAR_TOKENS:
                tokens.append(_Token(ch, ch, pos))
                i += 1
            elif ch in "01":
                tokens.append(_Token("const", ch, pos, value=int(ch)))
                i += 1
            elif ch.isalpha() or ch == "_":
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                low = word.lower()
                if low in ("nand", "nor", "maj"):
                    tokens.append(_Token(low, word, pos))
                elif low == "f":
                    tokens.append(_Token("const", word, pos, value=0))
                elif low == "t":
                    tokens.append(_Token("const", word, pos, value=1))
                else:
                    tokens.append(_Token("ident", word, pos))
                i = j
            else:
                raise ParseError(
                    f"unknown operator or character {ch!r}",
                    pos,
                    expected=("operator", "identifier"),
                )
    tokens.append(_Token("end", "end of input", n + 1))
    return tokens


# --------------------------------------------------------------------------
# Recursive-descent parser

_ATOM_EXPECTED = frozenset(
    {"identifier", "'0'", "'1'", "'F'", "'T'", "'maj'", "'('", "'!'"}
)
_INFIX_EXPECTED = frozenset(
    {
        "'&'",
        "'nand'",
        "'^'",
        "'|'",
        "'nor'",
        "'->'",
        "'<-'",
        "'!->'",
        "'!<-'",
        "'<->'",
        "end of input",
    }
)

_IMPLICATION_TOKENS = {
    "->": Connective.IMPLIES,
    "<-": Connective.CONVERSE_IMPLIES,
    "!->": Connective.NON_IMPLIES,
    "!<-": Connective.CONVERSE_NON_IMPLIES,
}


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _advance(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.text!r}", tok.pos, expected={f"'{kind}'"}
            )
        return self._advance()

    def parse(self) -> Formula:
        f = self._iff()
        tok = self._peek()
        if tok.kind != "end":
            raise ParseError(
                f"unexpected {tok.text!r}", tok.pos, expected=_INFIX_EXPECTED
            )
        return f

    def _iff(self) -> Formula:
        f = self._imp()
        while self._peek().kind == "<->":
            self._advance()
            f = App(Connective.EQUIV, (f, self._imp()))
        return f

    def _imp(self) -> Formula:
        f = self._or()
        op = _IMPLICATION_TOKENS.get(self._peek().kind)
        if op is not None:
            self._advance()
            # Non-associative: a second implication operator is left for the
            # caller, which rejects it as an unexpected token.
            f = App(op, (f, self._or()))
        return f

    def _or(self) -> Formula:
        return self._chain(self._xor, {"|": Connective.OR, "nor": Connective.NOR})

    def _xor(self) -> Formula:
        return self._chain(self._and, {"^": Connective.XOR})

    def _and(self) -> Formula:
        return self._chain(self._unary, {"&": Connective.AND, "nand": Connective.NAND})

    def _chain(self, sub, ops: dict[str, Connective]) -> Formula:
        f = sub()
        built: Connective | None = None  # connective of the node built here
        while self._peek().kind in ops:
            op = ops[self._peek().kind]
            self._advance()
            rhs = sub()
            if built is op and op in FLATTENED:
                assert isinstance(f, App)
                f = App(op, f.operands + (rhs,))
            else:
                f = App(op, (f, rhs))
            built = op
        return f

    def _unary(self) -> Formula:
        if self._peek().kind == "!":
            self._advance()
            return Not(self._unary())
        return self._atom()

    def _atom(self) -> Formula:
        tok = self._peek()
        if tok.kind == "ident":
            self._advance()
            return Var(tok.text)
        if tok.kind == "const":
            self._advance()
            return Const(tok.value)
        if tok.kind == "maj":
            self._advance()
            self._expect("(")
            a = self._iff()
            self._expect(",")
            b = self._iff()
            self._expect(",")
            c = self._iff()
            self._expect(")")
            return App(Connective.MAJ, (a, b, c))
        if tok.kind == "(":
            self._advance()
            f = self._iff()
            self._expect(")")
            return f
        raise ParseError(f"unexpected {tok.text!r}", tok.pos, expected=_ATOM_EXPECTED)


def parse(text: str) -> Formula:
    """Parse formula text into its syntax tree.

    Raises :class:`ParseError` with a 1-based column and the set of
    acceptable tokens on any syntax error.
    """
    if not text or not text.strip():
        raise ParseError("empty formula", 1, expected=_ATOM_EXPECTED)
    return _Parser(_tokenize(text)).parse()


# --------------------------------------------------------------------------
# Canonical printer

_NON_ASSOCIATIVE = BINARY_ONLY - {Connective.EQUIV}


def _level(f: Formula) -> int:
    if isinstance(f, Not):
        return _LEVEL_NOT
    if isinstance(f, App):
        return CONNECTIVES[f.op].level
    return _LEVEL_ATOM


def format_formula(f: Formula) -> str:
    """Canonical infix text with minimal parentheses.

    ``parse(format_formula(f))`` reproduces ``f`` node for node for every
    tree the grammar can denote; nested same-connective conjunctions and
    disjunctions keep explicit parentheses so they are not re-flattened.
    The one exception is a NAND/NOR node with more than two operands,
    which no infix chain can reproduce (chains parse left-nested); it
    prints as the equivalent negated conjunction/disjunction.
    """
    if isinstance(f, Const):
        return str(f.value)
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Not):
        inner = format_formula(f.operand)
        if _level(f.operand) < _LEVEL_NOT:
            inner = f"({inner})"
        return f"!{inner}"
    assert isinstance(f, App)
    if f.op is Connective.MAJ:
        return "maj(" + ", ".join(format_formula(g) for g in f.operands) + ")"
    if f.op in (Connective.NAND, Connective.NOR) and len(f.operands) > 2:
        dual = Connective.AND if f.op is Connective.NAND else Connective.OR
        return f"!({format_formula(App(dual, f.operands))})"
    level = CONNECTIVES[f.op].level
    parts = []
    for i, child in enumerate(f.operands):
        text = format_formula(child)
        lv = _level(child)
        if f.op in _NON_ASSOCIATIVE:
            wrap = lv <= level
        elif i == 0:
            wrap = lv < level or (
                isinstance(child, App) and child.op is f.op and f.op in FLATTENED
            )
        else:
            wrap = lv <= level
        parts.append(f"({text})" if wrap else text)
    return f" {f.op.value} ".join(parts)
