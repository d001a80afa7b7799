import re

import pytest
from hypothesis import given

from boolops.errors import ParseError
from boolops.formula import (
    App,
    Connective,
    Const,
    Not,
    Var,
    VariableOrder,
    format_formula,
    parse,
    variables,
)
from boolops.truthtable import Interpretation, eval_formula, truth_vector
from conftest import formulas

AND = Connective.AND
OR = Connective.OR
XOR = Connective.XOR


def test_parse_conjunction():
    assert parse("x & y") == App(AND, (Var("x"), Var("y")))


def test_parse_negated_disjunction():
    assert parse("!(x | y)") == Not(App(OR, (Var("x"), Var("y"))))


def test_parse_majority():
    assert parse("maj(x, y, z)") == App(
        Connective.MAJ, (Var("x"), Var("y"), Var("z"))
    )


def test_precedence_not_and_or():
    assert parse("!x & y | z") == App(
        OR, (App(AND, (Not(Var("x")), Var("y"))), Var("z"))
    )


def test_precedence_xor_between_and_or():
    assert parse("a & b ^ c | d") == App(
        OR, (App(XOR, (App(AND, (Var("a"), Var("b"))), Var("c"))), Var("d"))
    )


def test_chain_flattening():
    f = parse("x & y & z")
    assert f == App(AND, (Var("x"), Var("y"), Var("z")))
    # Parenthesized groups keep their own node.
    g = parse("(x & y) & z")
    assert g == App(AND, (App(AND, (Var("x"), Var("y"))), Var("z")))
    assert f != g


def test_nand_nor_chains_left_associate():
    assert parse("a nand b nand c") == App(
        Connective.NAND,
        (App(Connective.NAND, (Var("a"), Var("b"))), Var("c")),
    )
    assert parse("a nor b | c") == App(
        OR, (App(Connective.NOR, (Var("a"), Var("b"))), Var("c"))
    )


def test_equiv_chains_left_associate():
    assert parse("a <-> b <-> c") == App(
        Connective.EQUIV,
        (App(Connective.EQUIV, (Var("a"), Var("b"))), Var("c")),
    )


def test_implication_family():
    assert parse("a -> b") == App(Connective.IMPLIES, (Var("a"), Var("b")))
    assert parse("a <- b") == App(Connective.CONVERSE_IMPLIES, (Var("a"), Var("b")))
    assert parse("a !-> b") == App(Connective.NON_IMPLIES, (Var("a"), Var("b")))
    assert parse("a !<- b") == App(
        Connective.CONVERSE_NON_IMPLIES, (Var("a"), Var("b"))
    )


def test_implication_is_non_associative():
    with pytest.raises(ParseError) as excinfo:
        parse("a -> b -> c")
    assert excinfo.value.position == 8
    parse("a -> (b -> c)")
    parse("(a -> b) -> c")


def test_constants():
    for text in ("0", "F", "f"):
        assert parse(text) == Const(0)
    for text in ("1", "T", "t"):
        assert parse(text) == Const(1)


def test_unicode_aliases():
    assert parse("x ∧ ¬y") == parse("x & !y")
    assert parse("a ⇒ b") == parse("a -> b")
    assert parse("a ⇐ b") == parse("a <- b")
    assert parse("a ≡ b") == parse("a <-> b")
    assert parse("x ⊕ y ∨ z") == parse("x ^ y | z")


def test_keywords_case_insensitive():
    assert parse("x NAND y") == parse("x nand y")
    assert parse("MAJ(x, y, z)") == parse("maj(x, y, z)")


def test_parse_error_position_and_expected():
    with pytest.raises(ParseError) as excinfo:
        parse("x &")
    assert excinfo.value.position == 4
    assert "identifier" in excinfo.value.expected


def test_parse_error_unbalanced_paren():
    with pytest.raises(ParseError) as excinfo:
        parse("(x | y")
    assert excinfo.value.position == 7
    assert "')'" in excinfo.value.expected


ATOM = {"identifier", "'0'", "'1'", "'F'", "'T'", "'maj'", "'('", "'!'"}
INFIX = {"'&'", "'nand'", "'^'", "'|'", "'nor'", "'->'", "'<-'", "'!->'", "'!<-'",
         "'<->'", "end of input"}


@pytest.mark.parametrize(
    "text, message, position, expected",
    [
        ("", "empty formula", 1, ATOM),
        ("x &", "unexpected 'end of input'", 4, ATOM),
        ("x & & y", "unexpected '&'", 5, ATOM),
        ("!", "unexpected 'end of input'", 2, ATOM),
        ("x y", "unexpected 'y'", 3, INFIX),
        ("x @ y", "unknown operator or character '@'", 3, {"operator", "identifier"}),
        (")", "unexpected ')'", 1, ATOM),
        ("x)", "unexpected ')'", 2, INFIX),
        (",", "unexpected ','", 1, ATOM),
        ("x , y", "unexpected ','", 3, INFIX),
        ("(x y)", "unexpected 'y'", 4, {"')'"}),
        ("(x | y", "unexpected 'end of input'", 7, {"')'"}),
        ("(maj(a, b, c) x)", "unexpected 'x'", 15, {"')'"}),
        ("maj x", "unexpected 'x'", 5, {"'('"}),
        ("maj(", "unexpected 'end of input'", 5, ATOM),
        ("maj(a b, c)", "unexpected 'b'", 7, {"','"}),
        ("maj(a, b)", "unexpected ')'", 9, {"','"}),
        ("maj(a, b, c", "unexpected 'end of input'", 12, {"')'"}),
        ("maj(a, b, c, d)", "unexpected ','", 12, {"')'"}),
        ("a -> b -> c", "unexpected '->'", 8, INFIX),
        ("a <-> b -> c !<- d", "unexpected '!<-'", 14, INFIX),
        ("(a -> b <- c)", "unexpected '<-'", 9, {"')'"}),
        ("maj(a -> b !-> c, d, e)", "unexpected '!->'", 12, {"','"}),
        # Identifiers are ASCII: any other letter or digit is its own error.
        ("é", "unknown operator or character 'é'", 1, {"operator", "identifier"}),
        ("x²", "unknown operator or character '²'", 2, {"operator", "identifier"}),
        ("a & Жb", "unknown operator or character 'Ж'", 5, {"operator", "identifier"}),
    ],
)
def test_parse_error_reports(text, message, position, expected):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert str(excinfo.value) == f"{message} (column {position})"
    assert excinfo.value.position == position
    assert excinfo.value.expected == expected


N = 10**5
DEEP = {
    "parens": ("(" * N + "x" + ")" * N, "01"),
    "not": ("!" * (2 * N) + "x", "01"),
    "nand": ("x" + " nand y" * (N - 1), "1110"),
    "maj": ("maj(x, y, " * N + "z" + ")" * N, "00010111"),
    "implies": ("x -> (" * N + "y" + ")" * N, "1101"),
}


@pytest.mark.parametrize("text, bits", DEEP.values(), ids=DEEP.keys())
def test_deep_text_parses_prints_and_evaluates(text, bits):
    f = parse(text)
    g = parse(format_formula(f))
    assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
    order = variables(f)
    tv = truth_vector(f, order)
    assert str(tv) == bits
    last = Interpretation.from_index(len(order), len(bits) - 1)
    assert eval_formula(f, order, last) == int(bits[-1])


def test_unterminated_deep_maj_is_a_parse_error_at_the_end():
    text = "maj(x, y, " * 2000
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert str(excinfo.value) == f"unexpected 'end of input' (column {len(text) + 1})"
    assert excinfo.value.expected == ATOM


def test_walkers_handle_trees_nested_to_any_depth():
    # Three-operand NAND nodes, which no text denotes: they print as negated
    # conjunctions, so the text reparses to another tree with the same table.
    deep = Var("x")
    for _ in range(N):
        deep = App(Connective.NAND, (deep, Var("y"), Const(1)))
    order = VariableOrder(("x", "y"))
    assert variables(deep) == order
    text = format_formula(deep)
    assert text.startswith("!(!(" * 2) and text.endswith(" & y & 1)")
    tv = truth_vector(deep, order)
    assert truth_vector(parse(text), order) == tv
    assert eval_formula(deep, order, Interpretation((1, 1))) == tv.bits[3]


def test_deep_trees_compare_hash_and_repr():
    text = "x" + " nand x" * 799
    a, b = parse(text), parse(text)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a).startswith("App(op=<Connective.NAND: 'nand'>, operands=(App(")
    assert repr(a).count("Var(name='x')") == 800
    assert a != parse("x" + " nand x" * 798)
    deep = Var("x")
    for _ in range(5000):
        deep = Not(deep)
    assert deep == Not(deep.operand) and hash(deep) == hash(Not(deep.operand))
    assert repr(deep) == "Not(operand=" * 5000 + "Var(name='x')" + ")" * 5000


def test_node_equality_hash_and_repr_are_structural():
    f = parse("!x & maj(y, T, z -> x)")
    assert repr(f) == (
        "App(op=<Connective.AND: '&'>, operands=(Not(operand=Var(name='x')), "
        "App(op=<Connective.MAJ: 'maj'>, operands=(Var(name='y'), Const(value=1), "
        "App(op=<Connective.IMPLIES: '->'>, operands=(Var(name='z'), Var(name='x')))"
        "))))"
    )
    same = App(AND, (Not(Var("x")), parse("maj(y, 1, z -> x)")))
    assert f == same and hash(f) == hash(same)
    assert len({f, same, parse("x & y"), parse("x & y")}) == 2
    assert parse("x & y") != parse("x | y")  # the connective counts
    assert parse("x & y & z") != parse("(x & y) & z")  # so does the shape
    assert parse("!x") != Var("x") and parse("!x") != "!x"
    assert App(AND, (Var("x"), Const(True))) == App(AND, (Var("x"), Const(1)))


def test_parse_error_unknown_character():
    with pytest.raises(ParseError) as excinfo:
        parse("x @ y")
    assert excinfo.value.position == 3


def test_parse_error_trailing_garbage():
    with pytest.raises(ParseError) as excinfo:
        parse("x y")
    assert excinfo.value.position == 3
    assert "end of input" in excinfo.value.expected


def test_parse_error_empty():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("   ")


def test_reserved_words_rejected_as_variables():
    with pytest.raises(ValueError):
        Var("maj")
    with pytest.raises(ValueError):
        Var("T")
    with pytest.raises(ValueError):
        Var("1bad")


def test_node_arity_validation():
    with pytest.raises(ValueError):
        App(Connective.IMPLIES, (Var("x"),))
    with pytest.raises(ValueError):
        App(Connective.MAJ, (Var("x"), Var("y")))
    with pytest.raises(ValueError):
        App(AND, (Var("x"),))


def test_variables_first_occurrence():
    assert variables(parse("y & x")).names == ("y", "x")
    assert variables(parse("x ^ y & x")).names == ("x", "y")
    assert variables(Const(1)).names == ()


def test_variable_order_rejects_duplicates():
    with pytest.raises(ValueError):
        VariableOrder(("x", "x"))


@pytest.mark.parametrize(
    "names", [("x", 1), (None,), (["x"],)], ids=["int", "None", "list"]
)
def test_variable_order_rejects_names_that_are_not_strings(names):
    message = re.escape(f"invalid variable name {names[-1]!r}")
    with pytest.raises(ValueError, match=message):
        VariableOrder(names)


def test_format_examples():
    assert format_formula(parse("x & (y | z)")) == "x & (y | z)"
    assert format_formula(Not(Var("x"))) == "!x"
    assert format_formula(parse("x -> y")) == "x -> y"
    assert format_formula(parse("maj(x, !y, z & w)")) == "maj(x, !y, z & w)"


def test_format_keeps_structure_against_reflattening():
    f = App(AND, (App(AND, (Var("x"), Var("y"))), Var("z")))
    assert format_formula(f) == "(x & y) & z"
    g = App(AND, (Var("x"), App(AND, (Var("y"), Var("z")))))
    assert format_formula(g) == "x & (y & z)"


def test_format_kary_nand_prints_negated_conjunction():
    f = App(Connective.NAND, (Var("a"), Var("b"), Var("c")))
    assert format_formula(f) == "!(a & b & c)"


@given(formulas())
def test_roundtrip_parse_format(f):
    assert parse(format_formula(f)) == f


@given(formulas())
def test_variables_stable_under_reformat(f):
    assert variables(parse(format_formula(f))) == variables(f)


@given(formulas(kary_duals=True))
def test_format_always_reparses(f):
    # k-ary NAND/NOR lose their node shape but never their meaning; the
    # semantic check lives in the truth-table tests.
    parse(format_formula(f))
