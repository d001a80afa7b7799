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
from enum import Enum
from functools import reduce
from typing import NamedTuple

from ._value import Value
from .errors import DomainError, ParseError, UnboundVariableError


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


class Formula(Value):
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


class Const(Formula):
    """Logical constant, 0 for false and 1 for true."""

    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: int):
        if value not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {value!r}")
        object.__setattr__(self, "value", value)


class Var(Formula):
    """Reference to a named atomic proposition."""

    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not IDENTIFIER_RE.match(name):
            raise ValueError(f"invalid variable name {name!r}")
        if name.lower() in RESERVED_WORDS:
            raise ValueError(f"variable name {name!r} is a reserved word")
        object.__setattr__(self, "name", name)


class _Node(Formula):
    """An inner node.  Equality, hashing and ``repr`` walk the tree with an
    explicit stack, so they work at any depth the parser builds; they mean
    what :class:`Value`'s methods mean, field by field."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _preorder(self) == _preorder(other)

    def __hash__(self):
        return hash(tuple(_preorder(self)))

    def __repr__(self):
        return _repr(self)


class Not(_Node):
    __slots__ = __match_args__ = ("operand",)

    def __init__(self, operand: Formula):
        object.__setattr__(self, "operand", operand)


class App(_Node):
    """Application of a connective to a tuple of operand formulas."""

    __slots__ = __match_args__ = ("op", "operands")

    def __init__(self, op: Connective, operands: tuple[Formula, ...]):
        operands = tuple(operands)
        k = len(operands)
        if op in BINARY_ONLY:
            if k != 2:
                raise ValueError(f"{op.name} takes exactly 2 operands, got {k}")
        elif op is Connective.MAJ:
            if k != 3:
                raise ValueError(f"MAJ takes exactly 3 operands, got {k}")
        elif k < 2:
            raise ValueError(f"{op.name} takes at least 2 operands, got {k}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "operands", operands)


def _preorder(f: Formula) -> list:
    """The tree as a token list in pre-order: ``Not`` for a negation,
    ``(op, operand count)`` for an application, leaves as themselves.  The
    list determines the tree, so two trees are equal iff their lists are."""
    tokens, stack = [], [f]
    while stack:
        g = stack.pop()
        if g.__class__ is Not:
            tokens.append(Not)
            stack.append(g.operand)
        elif g.__class__ is App:
            tokens.append((g.op, len(g.operands)))
            stack.extend(reversed(g.operands))
        else:
            tokens.append(g)
    return tokens


class _Text(str):
    """Literal output on :func:`_repr`'s stack, told apart from nodes."""

    __slots__ = ()


def _repr(f: Formula) -> str:
    """``repr`` as :class:`Value` prints it, e.g.
    ``Not(operand=Var(name='x'))``, built from an explicit stack of nodes
    and literal text."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if g.__class__ is _Text:
            out.append(g)
        elif g.__class__ is Not:
            out.append("Not(operand=")
            stack += [_Text(")"), g.operand]
        elif g.__class__ is App:
            out.append(f"App(op={g.op!r}, operands=(")
            stack.append(_Text(",))" if len(g.operands) == 1 else "))"))
            for i, child in enumerate(reversed(g.operands)):
                stack += [_Text(", "), child] if i else [child]
        else:
            out.append(repr(g))
    return "".join(out)


class VariableOrder(Value):
    """Ordered distinct variable names; position 0 is the most significant
    argument (leftmost Kronecker factor downstream)."""

    __slots__ = __match_args__ = ("names",)

    def __init__(self, names: tuple[str, ...]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names!r}")
        for name in names:
            if not IDENTIFIER_RE.match(name) or name.lower() in RESERVED_WORDS:
                raise ValueError(f"invalid variable name {name!r}")
        object.__setattr__(self, "names", names)

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

    try:
        walk(f)
    except RecursionError:
        raise DomainError("formula nested too deeply to list its variables") from None
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


class _Token(Value):
    __slots__ = __match_args__ = ("kind", "text", "pos", "value")

    def __init__(self, kind: str, text: str, pos: int, value: int = 0):
        # kind: operator/punctuation text, or "ident", "const", "maj", "end";
        # pos: 1-based character offset; value: the constant when "const".
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "value", value)


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
    acceptable tokens on any syntax error, and at the token where parsing
    ran out of Python's recursion limit on too deeply nested text.
    """
    if not text or not text.strip():
        raise ParseError("empty formula", 1, expected=_ATOM_EXPECTED)
    parser = _Parser(_tokenize(text))
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("formula nested too deeply", parser._peek().pos) from None


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
    try:
        return _format(f)
    except RecursionError:
        raise DomainError("formula nested too deeply to print") from None


def _format(f: Formula) -> str:
    if isinstance(f, Const):
        return str(f.value)
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Not):
        inner = _format(f.operand)
        if _level(f.operand) < _LEVEL_NOT:
            inner = f"({inner})"
        return f"!{inner}"
    assert isinstance(f, App)
    if f.op is Connective.MAJ:
        return "maj(" + ", ".join(_format(g) for g in f.operands) + ")"
    if f.op in (Connective.NAND, Connective.NOR) and len(f.operands) > 2:
        dual = Connective.AND if f.op is Connective.NAND else Connective.OR
        return f"!({_format(App(dual, f.operands))})"
    level = CONNECTIVES[f.op].level
    parts = []
    for i, child in enumerate(f.operands):
        text = _format(child)
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
