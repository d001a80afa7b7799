"""Propositional formulas: syntax tree, connective table, parser, and
canonical printer.

The concrete grammar, loosest binding first::

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
    ident   := [A-Za-z_][A-Za-z0-9_]*, except a keyword

An infix operator binds as strongly as its connective's ``level`` in
:data:`CONNECTIVES`; the grammar above spells those levels out.
Runs of "&", "^" and "|" are flattened into a single k-ary node, so
``x & y & z`` is one conjunction over three operands while
``(x & y) & z`` keeps its nesting.  ``nand``/``nor`` chains associate to
the left without flattening.  The four implication operators are
non-associative: chaining them without parentheses is a syntax error.
Operators are spelled as the values of :class:`Connective`.  Keywords
(``F``, ``T``, ``nand``, ``nor``, ``maj``) are case-insensitive and
reserved; they cannot be used as variable names.  Identifiers are ASCII:
any character that starts no token is a :class:`ParseError` at its column.

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

#: The implications: ``a -> b -> c`` does not parse, so printing wraps both
#: operands of these when they bind no more strongly.
_NON_ASSOCIATIVE = BINARY_ONLY - {Connective.EQUIV}

# Binding strength of negations and atoms, which bind tightest.
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
    level: int  # binding strength, read by the parser and the printer
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

# --------------------------------------------------------------------------
# Lexicon

#: Token kind of every fixed spelling, words lower-cased: each connective
#: and "!" "(" ")" "," stand for themselves, the Unicode aliases for their
#: ASCII spellings, and the constants for their values.  The words among
#: them are the keywords, which can never be variable names.
_LEXICON = {
    **{op.value: op.value for op in Connective},
    **{s: s for s in "!(),"},
    **{"¬": "!", "∧": "&", "∨": "|", "⊕": "^", "⇒": "->", "⇐": "<-", "≡": "<->"},
    **{"0": 0, "1": 1, "f": 0, "t": 1},
}

#: One token at a time: whitespace, a symbol (longest first, so "!->" wins
#: over "!" and "<->" over "<-"), a word, or a character no token starts with.
_TOKEN_RE = re.compile(
    r"(?P<space>\s+)|(?P<symbol>%s)|(?P<word>[A-Za-z_][A-Za-z0-9_]*)|(?P<other>.)"
    % "|".join(
        re.escape(s)
        for s in sorted(_LEXICON, key=len, reverse=True)
        if not s.isalpha()
    ),
    re.DOTALL,
)


def _word_kind(name) -> str | int | None:
    """The token kind of ``name`` if it is one word: "ident" or a keyword's
    kind; None if it is not a word."""
    m = _TOKEN_RE.fullmatch(name) if isinstance(name, str) else None
    if m is None or m.lastgroup != "word":
        return None
    return _LEXICON.get(name.lower(), "ident")


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
        Value.__init__(self, value)


class Var(Formula):
    """Reference to a named atomic proposition."""

    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        kind = _word_kind(name)
        if kind is None:
            raise ValueError(f"invalid variable name {name!r}")
        if kind != "ident":
            raise ValueError(f"variable name {name!r} is a reserved word")
        Value.__init__(self, name)


class _Node(Formula):
    """An inner node.  Equality, hashing and ``repr`` walk the tree with an
    explicit stack, so they work at any depth; they mean what
    :class:`Value`'s methods mean, field by field."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _shape(self) == _shape(other)

    def __hash__(self):
        return hash(tuple(_shape(self)))

    def __repr__(self):
        return _write(self, _repr_parts)


class Not(_Node):
    __slots__ = __match_args__ = ("operand",)


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
        Value.__init__(self, op, operands)


def postorder(f: Formula) -> list[Formula]:
    """Every node of ``f``, each after its operands, operands left to
    right; leaves therefore come in text order."""
    nodes, stack = [], [f]
    while stack:  # pre-order with operands right to left, reversed below
        g = stack.pop()
        nodes.append(g)
        if g.__class__ is Not:
            stack.append(g.operand)
        elif g.__class__ is App:
            stack.extend(g.operands)
    nodes.reverse()
    return nodes


def _shape(f: Formula) -> list:
    """The tree as a token list in post-order: ``Not`` for a negation,
    ``(op, operand count)`` for an application, leaves as themselves.  The
    list determines the tree, so two trees are equal iff their lists are."""
    return [
        (g.op, len(g.operands)) if g.__class__ is App
        else Not if g.__class__ is Not
        else g
        for g in postorder(f)
    ]


def _write(f: Formula, parts: Callable) -> str:
    """Text of ``f``, where ``parts(node)`` lists the node's text as
    literal strings and child nodes.  One explicit stack expands the
    nodes; the output is joined once, so any depth takes linear time."""
    out, stack = [], [f]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(parts(item)))
    return "".join(out)


def _repr_parts(g: Formula) -> list:
    """``repr`` as :class:`Value` prints it, e.g.
    ``Not(operand=Var(name='x'))``."""
    if g.__class__ is Not:
        return ["Not(operand=", g.operand, ")"]
    if g.__class__ is App:
        parts = [f"App(op={g.op!r}, operands=(", g.operands[0]]
        for child in g.operands[1:]:
            parts += [", ", child]
        parts.append("))")
        return parts
    return [repr(g)]


class VariableOrder(Value):
    """Ordered distinct variable names; position 0 is the most significant
    argument (leftmost Kronecker factor downstream)."""

    __slots__ = __match_args__ = ("names",)

    def __init__(self, names: tuple[str, ...]):
        names = tuple(names)
        for name in names:
            if _word_kind(name) != "ident":
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names!r}")
        Value.__init__(self, names)

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
    return VariableOrder(
        tuple(dict.fromkeys(g.name for g in postorder(f) if g.__class__ is Var))
    )


# --------------------------------------------------------------------------
# Tokenizer

def _tokenize(text: str) -> list[tuple]:
    """The tokens of ``text`` as ``(kind, text, column)`` triples, the last
    one "end"; kind is an ASCII spelling, "ident", or 0 or 1 for a
    constant.  Columns are 1-based."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group, tok = m.lastgroup, m.group()
        if group == "word":
            tokens.append((_LEXICON.get(tok.lower(), "ident"), tok, m.start() + 1))
        elif group == "symbol":
            tokens.append((_LEXICON[tok], tok, m.start() + 1))
        elif group == "other":
            raise ParseError(
                f"unknown operator or character {tok!r}",
                m.start() + 1,
                expected=("operator", "identifier"),
            )
    tokens.append(("end", "end of input", len(text) + 1))
    return tokens


# --------------------------------------------------------------------------
# Operator-precedence parser

_ATOM_EXPECTED = frozenset(
    {"identifier", "'0'", "'1'", "'F'", "'T'", "'maj'", "'('", "'!'"}
)
#: Infix token kind -> its connective, whose ``level`` in :data:`CONNECTIVES`
#: is its binding strength.
_INFIX = {op.value: op for op in CONNECTIVES if op is not Connective.MAJ}
_INFIX_EXPECTED = frozenset({f"'{kind}'" for kind in _INFIX} | {"end of input"})


def _unexpected(tok: tuple, expected) -> ParseError:
    return ParseError(f"unexpected {tok[1]!r}", tok[2], expected=expected)


def _after_operand(ops: list) -> set[str] | frozenset[str]:
    """The expected set of an error after a complete operand: what closes
    the innermost open ``(`` or ``maj(``, or at top level any infix
    operator or the end."""
    for entry in reversed(ops):
        if entry == "(":
            return {"')'"}
        if entry.__class__ is int:
            return {"','"} if entry < 2 else {"')'"}
    return _INFIX_EXPECTED


def parse(text: str) -> Formula:
    """Parse formula text into its syntax tree.

    One pass over the tokens with an explicit operator stack (Dijkstra's
    shunting-yard), so nesting depth is limited only by memory.  Raises
    :class:`ParseError` with a 1-based column and the set of acceptable
    tokens on any syntax error.
    """
    if not text or not text.strip():
        raise ParseError("empty formula", 1, expected=_ATOM_EXPECTED)
    tokens = _tokenize(text)
    # Pending operators, innermost last: "!" awaiting its operand, a
    # connective awaiting its right operand, "(" or, for an open "maj(",
    # the number of its arguments already complete.
    ops: list = []
    # Left operands of pending connectives and complete arguments of open
    # "maj(", each with the connective of the chain that built it.
    operands: list[tuple[Formula, Connective | None]] = []
    i = 0
    while True:
        # An operand is due: prefixes and openings, then an atom.
        tok = tokens[i]
        kind = tok[0]
        i += 1
        if kind == "ident":
            f = Var(tok[1])
        elif kind.__class__ is int:
            f = Const(kind)
        elif kind == "!" or kind == "(":
            ops.append(kind)
            continue
        elif kind == "maj":
            if tokens[i][0] != "(":
                raise _unexpected(tokens[i], {"'('"})
            ops.append(0)
            i += 1
            continue
        else:
            raise _unexpected(tok, _ATOM_EXPECTED)
        built = None
        # f is a complete operand: reduce what binds at least as strongly
        # as the next token, and close frames, until an infix operator.
        while True:
            while ops and ops[-1] == "!":
                ops.pop()
                f = Not(f)
            tok = tokens[i]
            kind = tok[0]
            i += 1
            op = _INFIX.get(kind)
            level = -1 if op is None else CONNECTIVES[op].level
            while ops and ops[-1].__class__ is Connective:
                top = ops[-1]
                if CONNECTIVES[top].level < level:
                    break
                ops.pop()
                if top in _NON_ASSOCIATIVE and op in _NON_ASSOCIATIVE:
                    raise _unexpected(tok, _after_operand(ops))
                lhs, lhs_built = operands.pop()
                if lhs_built is top and top in FLATTENED:
                    f = App(top, lhs.operands + (f,))
                else:
                    f = App(top, (lhs, f))
                built = top
            if op is not None:
                operands.append((f, built))
                ops.append(op)
                break
            frame = ops[-1] if ops else None
            if kind == ")" and (frame == "(" or frame == 2):
                ops.pop()
                if frame == 2:
                    (b, _), (a, _) = operands.pop(), operands.pop()
                    f = App(Connective.MAJ, (a, b, f))
                built = None
            elif kind == "," and (frame == 0 or frame == 1):
                ops[-1] = frame + 1
                operands.append((f, None))
                break
            elif kind == "end" and frame is None:
                return f
            else:
                raise _unexpected(tok, _after_operand(ops))


# --------------------------------------------------------------------------
# Canonical printer

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
    return _write(f, _format_parts)


def _format_parts(f: Formula) -> list:
    if isinstance(f, Const):
        return [str(f.value)]
    if isinstance(f, Var):
        return [f.name]
    if isinstance(f, Not):
        if _level(f.operand) < _LEVEL_NOT:
            return ["!(", f.operand, ")"]
        return ["!", f.operand]
    assert isinstance(f, App)
    if f.op is Connective.MAJ:
        a, b, c = f.operands
        return ["maj(", a, ", ", b, ", ", c, ")"]
    if f.op in (Connective.NAND, Connective.NOR) and len(f.operands) > 2:
        dual = Connective.AND if f.op is Connective.NAND else Connective.OR
        return ["!(", App(dual, f.operands), ")"]
    level = CONNECTIVES[f.op].level
    sep = f" {f.op.value} "
    parts = []
    for i, child in enumerate(f.operands):
        lv = _level(child)
        if i or f.op in _NON_ASSOCIATIVE:
            wrap = lv <= level
        else:  # the left operand of a left-associative chain
            wrap = lv < level or (
                isinstance(child, App) and child.op is f.op and f.op in FLATTENED
            )
        if i:
            parts.append(sep)
        parts += ["(", child, ")"] if wrap else [child]
    return parts
