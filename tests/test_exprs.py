"""Unit tests for the expression language: parsing, printing, evaluation,
exact derivatives."""
import importlib.util
import math
import pathlib
import random
import re
import warnings

import numpy as np
import pytest

from acmslab import exprs
from acmslab.exprs import (
    Bin,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Pow,
    Var,
    add,
    array_program,
    differentiate,
    div,
    evaluate,
    free_variables,
    hash_cons,
    mul,
    neg,
    num,
    parse,
    pow_,
    sub,
    to_text,
)
from acmslab.charts import DerivativeMode, chart_from_text, chart_to_text
from acmslab.gallery import GALLERY_NAMES, gallery_chart


class TestParsing:
    def test_precedence(self):
        e = parse("1 + 2 * x1")
        assert e == Bin("+", Num(1.0), Bin("*", Num(2.0), Var(1)))

    def test_left_associative(self):
        e = parse("x1 - x2 - x3")
        assert e == Bin("-", Bin("-", Var(1), Var(2)), Var(3))

    def test_parens_override(self):
        e = parse("(1 + x1) * 2")
        assert e == Bin("*", Bin("+", Num(1.0), Var(1)), Num(2.0))

    def test_power_binds_tighter_than_unary_minus(self):
        e = parse("-x1^2")
        assert e == Neg(Pow(Var(1), 2))

    def test_negative_exponent(self):
        assert parse("x1^-2") == Pow(Var(1), -2)

    def test_unary_minus_folds_into_literal(self):
        assert parse("-2") == Num(-2.0)
        assert parse("-2 * x1") == Bin("*", Num(-2.0), Var(1))

    def test_function_call(self):
        assert parse("sin(x2)") == Call("sin", Var(2))

    def test_scientific_notation(self):
        assert parse("2.5e-3") == Num(0.0025)
        assert parse(".5") == Num(0.5)

    def test_variable_indices(self):
        assert parse("x12") == Var(12)

    def test_equal_subtrees_are_one_object(self):
        e = parse("sin(x1 + 1) * sin(x1 + 1) - (x1 + 1)")
        assert e.left.left is e.left.right
        assert e.right is e.left.left.arg

    def test_one_table_shares_across_calls(self):
        nodes = {}
        a = parse("x1^2 + 1", nodes)
        b = parse("2 * (x1^2 + 1)", nodes)
        assert b.right is a
        assert parse("x1^2 + 1") is not a  # a fresh table

    def test_equal_groups_are_one_object(self):
        nodes = {}
        a = parse("(x1 - sqrt(x2)) * 2 + cos(x1 - sqrt(x2))", nodes)
        b = parse("exp(x1 - sqrt(x2))", nodes)
        assert a.left.left is a.right.arg is b.arg
        assert a.left.left == parse("x1 - sqrt(x2)")

    def test_group_nodes_equal_fresh_parses(self):
        # a group read from the table is the node a fresh parse would build
        nodes = {}
        for text in ("-(2)", "(2)^3 - (2)", "(x1 * (x2 + 1)) / (x2 + 1)", "((x1))"):
            assert parse(text, nodes) == parse(text)
        assert parse("-(2)") == Num(-2.0)

    def test_signed_zeros_stay_distinct(self):
        e = parse("0 + -0")
        assert e.left is not e.right
        assert [math.copysign(1.0, n.value) for n in (e.left, e.right)] == [1.0, -1.0]


class TestParseErrors:
    def test_dangling_operator(self):
        with pytest.raises(ParseError) as exc:
            parse("x1 +")
        assert exc.value.message == "unexpected end of input"
        assert (exc.value.line, exc.value.column) == (1, 5)

    def test_unclosed_paren_reports_opener(self):
        with pytest.raises(ParseError) as exc:
            parse("(x1 + x2")
        assert exc.value.message == "unclosed parenthesis"
        assert (exc.value.line, exc.value.column) == (1, 1)

    def test_bare_open_paren(self):
        with pytest.raises(ParseError) as exc:
            parse("(")
        assert exc.value.message == "unclosed parenthesis"

    def test_unknown_name(self):
        with pytest.raises(ParseError) as exc:
            parse("2 + y")
        assert "unknown variable name" in exc.value.message
        assert exc.value.column == 5

    def test_zero_index_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse("x0")
        assert "start at x1" in exc.value.message

    def test_symbolic_exponent_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse("x1 ^ x2")
        assert exc.value.message == "exponent must be an integer literal"

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("x1^2.5")

    def test_chained_power_rejected(self):
        # powers do not associate; the second ^ is left dangling
        with pytest.raises(ParseError) as exc:
            parse("x1^2^3")
        assert "trailing input" in exc.value.message

    def test_trailing_input(self):
        with pytest.raises(ParseError) as exc:
            parse("x1 x2")
        assert "trailing input" in exc.value.message
        assert exc.value.column == 4

    def test_malformed_number(self):
        with pytest.raises(ParseError) as exc:
            parse("1..2")
        assert "malformed number" in exc.value.message

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse("x1 $ x2")
        assert "unexpected character" in exc.value.message

    def test_line_tracking(self):
        with pytest.raises(ParseError) as exc:
            parse("1 +\n  bogus")
        assert exc.value.line == 2
        assert exc.value.column == 3

    @pytest.mark.parametrize("text,message,position", [
        ("1 +\r\n  bogus", "unknown variable name 'bogus'", (2, 3)),
        ("x1 +  ", "unexpected end of input", (1, 7)),
        ("\tx1 $", "unexpected character '$'", (1, 5)),
        ("x1 +\n1..2", "malformed number '1..2'", (2, 1)),
        # the whole text is scanned before parsing, so the $ wins
        ("x1 x2 $", "unexpected character '$'", (1, 7)),
        ("x1 + ²", "unknown variable name '²'", (1, 6)),
    ])
    def test_positions(self, text, message, position):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.message == message
        assert (exc.value.line, exc.value.column) == position

    @pytest.mark.parametrize("text,message,position", [
        ("x1^" + "1" * 5000, "exponent too long (5000 digits)", (1, 4)),
        ("x1 ^ -" + "1" * 5000 + " + 1", "exponent too long (5000 digits)", (1, 7)),
        ("1 +\n x" + "1" * 5000, "variable index too long (5000 digits)", (2, 2)),
    ], ids=["exponent", "negative_exponent", "variable_index"])
    def test_integer_literal_beyond_int_conversion(self, text, message, position):
        # CPython converts at most 4,300 digits to an int by default
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.message == message
        assert (exc.value.line, exc.value.column) == position

    @pytest.mark.parametrize("text,message,position", [
        # the second group is read from the table; the $ after it still wins
        ("(x1 + x2) * (x1 + x2) $", "unexpected character '$'", (1, 23)),
        ("(x1 + x2) * (x1 + x2", "unclosed parenthesis", (1, 13)),
        ("(x1 + x2) * (x1 + x2) + y", "unknown variable name 'y'", (1, 25)),
        ("sin(x1 + x2) - (x1 + x2) x3", "unexpected trailing input 'x3'", (1, 26)),
        ("(x1 + x2) *\n (x1 + x2) ^ x1", "exponent must be an integer literal", (2, 14)),
    ])
    def test_positions_after_a_repeated_group(self, text, message, position):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.message == message
        assert (exc.value.line, exc.value.column) == position

    def test_position_after_a_group_from_an_earlier_text(self):
        nodes = {}
        parse("(x1 + x2)^2", nodes)
        with pytest.raises(ParseError) as exc:
            parse("1 - (x1 + x2) * 2..5", nodes)
        assert exc.value.message == "malformed number '2..5'"
        assert exc.value.column == 17

    @pytest.mark.parametrize("text,message", [
        ("x1 + ½", "unknown variable name '½'"),
        ("x²", "unknown variable name 'x²'"),
        ("_x", "unexpected character '_'"),
    ])
    def test_unicode_lexemes(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.message == message

    def test_arabic_indic_digits_are_numbers(self):
        assert parse("\u0663 * x\u0662") == Bin("*", Num(3.0), Var(2))

    @pytest.mark.parametrize("text", [
        "²", "½", "\u0663", "\u0663\u0660.5", "x\u0662", "_x", "x1", "x²", ".5", ".",
        "1..2", "1e5", "e5", "sin", "(", "^", "$", "\u00e9t\u00e9", "",
    ])
    def test_lexeme_kind_agrees_with_token_pattern(self, text):
        # the parser reads a kind off each lexeme; it must be the kind of
        # the pattern alternative that scanned it
        for lexeme in exprs._TOKEN.findall(text):
            expected = next(kind for kind, pattern in exprs._KINDS
                            if re.fullmatch(pattern, lexeme))
            assert exprs._kind(lexeme) == expected, lexeme


class TestPrinting:
    def test_integers_print_bare(self):
        assert to_text(parse("2.0 * x1")) == "2 * x1"

    def test_fraction_prints_exactly(self):
        assert to_text(Num(0.0025)) == "0.0025"

    def test_right_operand_parenthesized(self):
        assert to_text(parse("x1 - (x2 - x3)")) == "x1 - (x2 - x3)"
        assert to_text(parse("x1 / (x2 / x3)")) == "x1 / (x2 / x3)"

    def test_redundant_parens_dropped(self):
        assert to_text(parse("(x1 * x2) + x3")) == "x1 * x2 + x3"

    def test_negative_literal_as_power_base(self):
        assert to_text(Pow(Num(-2.0), 3)) == "(-2)^3"

    def test_negative_zero_keeps_its_sign(self):
        assert to_text(Num(-0.0)) == "-0"
        assert to_text(Num(0.0)) == "0"
        assert math.copysign(1.0, parse(to_text(Num(-0.0))).value) == -1.0

    def test_negative_zero_round_trip_keeps_evaluated_sign(self):
        # -0.0 + -0.0 is -0.0, while -0.0 + 0.0 is 0.0
        e = parse("x1 + -0")
        again = parse(to_text(e))
        assert to_text(e) == "x1 + -0"
        assert [math.copysign(1.0, array_program([t])([[-0.0]])[0][0][0, 0])
                for t in (e, again)] == [-1.0, -1.0]

    @pytest.mark.parametrize("text", [
        "x1 + x2 * x3",
        "-2 * x1",
        "x1 - -2",
        "-x1 * x2",
        "sin(x1) * cos(x2)",
        "x1^-3 / (1 + x2^2)",
        "sqrt(1 + x1^2)",
        "exp(-x1) - 0.5",
        "(x1 + x2)^4",
    ])
    def test_round_trip_is_identity(self, text):
        e = parse(text)
        assert parse(to_text(e)) == e


class TestSmartConstructors:
    def test_constant_folding(self):
        assert add(num(1), num(2)) == Num(3.0)
        assert mul(num(3), num(4)) == Num(12.0)
        assert sub(num(1), num(1)) == Num(0.0)
        assert div(num(1), num(4)) == Num(0.25)

    def test_identities(self):
        x = Var(1)
        assert add(x, num(0)) == x
        assert mul(x, num(1)) == x
        assert mul(num(0), x) == Num(0.0)
        assert div(x, num(1)) == x
        assert sub(num(0), x) == Neg(x)

    def test_double_negation(self):
        x = Var(2)
        assert neg(neg(x)) == x

    def test_pow_special_exponents(self):
        x = Var(1)
        assert pow_(x, 0) == Num(1.0)
        assert pow_(x, 1) == x
        assert pow_(num(2), 10) == Num(1024.0)

    @pytest.mark.parametrize("base, exponent, message", [
        (-0.0, -1, "zero raised to a negative power"),
        (0.0, -2, "zero raised to a negative power"),
        (1e200, 2, "math error: overflow encountered in power"),
    ])
    def test_pow_of_an_undefined_constant_stays_unfolded(self, base, exponent, message):
        # Python's ** would raise ZeroDivisionError or OverflowError while
        # folding; the node is left for evaluate to reject
        e = pow_(num(base), exponent)
        assert e == Pow(Num(base), exponent)
        with pytest.raises(EvalError) as exc:
            evaluate(e, [])
        assert exc.value.message == message
        # the power rule folds the unfolded power away with the zero
        # derivative of its constant base
        assert differentiate(Pow(Num(base), exponent + 1), 1) == Num(0.0)


class TestEvaluation:
    def test_basic(self):
        assert evaluate(parse("x1^2 + 2 * x2"), [3.0, 4.0]) == pytest.approx(17.0)

    def test_functions(self):
        got = evaluate(parse("sin(x1)^2 + cos(x1)^2"), [0.7])
        assert got == pytest.approx(1.0)
        assert evaluate(parse("sqrt(x1)"), [9.0]) == pytest.approx(3.0)
        assert evaluate(parse("exp(0)"), []) == pytest.approx(1.0)

    def test_unbound_variable(self):
        with pytest.raises(EvalError) as exc:
            evaluate(parse("x3"), [1.0, 2.0])
        assert "unbound variable x3" in exc.value.message

    def test_division_by_zero_names_subexpression(self):
        with pytest.raises(EvalError) as exc:
            evaluate(parse("1 + x1 / x2"), [1.0, 0.0])
        assert exc.value.message == "division by zero"
        assert exc.value.where == "x1 / x2"

    def test_sqrt_of_negative(self):
        with pytest.raises(EvalError) as exc:
            evaluate(parse("sqrt(x1)"), [-4.0])
        assert "square root of negative" in exc.value.message

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalError):
            evaluate(parse("x1^-3"), [0.0])

    def test_overflow_is_eval_error(self):
        with pytest.raises(EvalError) as exc:
            evaluate(parse("exp(x1)"), [1e6])
        assert exc.value.message == "math error: overflow encountered in exp"
        assert exc.value.where == "exp(x1)"


class TestDifferentiate:
    def test_power_rule_frozen(self):
        assert to_text(differentiate(parse("x1^2"), 1)) == "2 * x1"

    def test_sin_rule_frozen(self):
        assert to_text(differentiate(parse("sin(x1)"), 1)) == "cos(x1)"

    def test_sqrt_rule_frozen(self):
        assert to_text(differentiate(parse("sqrt(x1)"), 1)) == "1 / (2 * sqrt(x1))"

    def test_other_variable_is_constant(self):
        assert differentiate(parse("sin(x2)"), 1) == Num(0.0)

    def test_derivative_round_trips(self):
        d = differentiate(parse("x1 * exp(x1^2)"), 1)
        assert parse(to_text(d)) == d

    def test_memo_differentiates_each_node_once(self):
        e = parse("sin(x1 * x2) * sin(x1 * x2) + cos(x1 * x2)")
        memo = {}
        d = differentiate(e, 1, memo)
        assert d == differentiate(e, 1)
        assert differentiate(e, 1, memo) is d
        # seven distinct nodes (x1 * x2 and sin(x1 * x2) are one each), one entry each
        assert len({id(node) for node, _ in memo.values()}) == len(memo) == 7

    def test_product_rule_value(self):
        e = parse("x1 * sin(x1)")
        d = differentiate(e, 1)
        t = 0.8
        want = math.sin(t) + t * math.cos(t)
        assert evaluate(d, [t]) == pytest.approx(want)


def _random_expr(rng, depth, exponents=None):
    """Small expression sampler for derivative cross-checks. Arguments are
    kept positive-safe for sqrt by squaring. With ``exponents``, a power is
    a `Pow` node, unfolded even for x^0 and x^1, with its exponent drawn
    from them, and a leaf may be -0.0."""
    if depth == 0 or rng.random() < 0.3:
        if exponents is not None and rng.random() < 0.1:
            return Num(-0.0)
        if rng.random() < 0.5:
            return Var(rng.randint(1, 2))
        return num(round(rng.uniform(0.5, 2.5), 3))

    def sub_expr():
        return _random_expr(rng, depth - 1, exponents)

    pick = rng.randint(0, 5)
    if pick == 0:
        return add(sub_expr(), sub_expr())
    if pick == 1:
        return sub(sub_expr(), sub_expr())
    if pick == 2:
        return mul(sub_expr(), sub_expr())
    if pick == 3:
        if exponents is None:
            return pow_(sub_expr(), rng.randint(2, 3))
        return Pow(sub_expr(), rng.choice(exponents))
    if pick == 4:
        return Call(rng.choice(["sin", "cos", "exp"]), sub_expr())
    return Call("sqrt", add(num(1), pow_(sub_expr(), 2)))


class TestDerivativeAgainstFiniteDifference:
    def test_random_expressions(self):
        rng = random.Random(7)
        h = 1e-6
        checked = 0
        for _ in range(60):
            e = _random_expr(rng, 3)
            if not free_variables(e):
                continue
            x = [rng.uniform(0.4, 1.2), rng.uniform(0.4, 1.2)]
            for idx in sorted(free_variables(e)):
                d = evaluate(differentiate(e, idx), x)
                up = list(x)
                dn = list(x)
                up[idx - 1] += h
                dn[idx - 1] -= h
                fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
                assert d == pytest.approx(fd, abs=1e-4 * (1.0 + abs(d)))
                checked += 1
        assert checked > 40

    def test_canonical_form_stable_under_reparse(self):
        rng = random.Random(8)
        for _ in range(40):
            e = _random_expr(rng, 3)
            text = to_text(e)
            again = parse(text)
            assert to_text(again) == text


def test_free_variables():
    assert free_variables(parse("x1 * sin(x3) + 2")) == {1, 3}
    assert free_variables(parse("4.5")) == set()
    assert free_variables(parse("x2"), parse("x5 + 1"), parse("0")) == {2, 5}


DEEP_SUM = "1" + " + x1" * 2999  # parses to a left-deep tree 3000 levels down


def test_free_variables_of_deep_tree():
    assert free_variables(parse(DEEP_SUM + " + x2")) == {1, 2}


class TestHashCons:
    def test_shares_repeated_subtrees(self):
        nodes, roots = hash_cons([parse("sin(x1) * sin(x1)"), parse("sin(x1)")])
        assert nodes == [("var", 1), ("call", "sin", 0), ("bin", "*", 1, 1)]
        assert roots == [2, 1]

    def test_equal_groups_are_one_object(self):
        nodes = {}
        a = parse("(x1 - sqrt(x2)) * 2 + cos(x1 - sqrt(x2))", nodes)
        b = parse("exp(x1 - sqrt(x2))", nodes)
        assert a.left.left is a.right.arg is b.arg
        assert a.left.left == parse("x1 - sqrt(x2)")

    def test_group_nodes_equal_fresh_parses(self):
        # a group read from the table is the node a fresh parse would build
        nodes = {}
        for text in ("-(2)", "(2)^3 - (2)", "(x1 * (x2 + 1)) / (x2 + 1)", "((x1))"):
            assert parse(text, nodes) == parse(text)
        assert parse("-(2)") == Num(-2.0)

    def test_signed_zeros_stay_distinct(self):
        nodes, _ = hash_cons([Num(0.0), Num(-0.0)])
        assert len(nodes) == 2

    def test_s5_second_metric_derivatives(self):
        # pins the sharing: 625 trees of 49,785 nodes in all
        dg, ddg = _s5_metric_derivatives()
        assert len(hash_cons(dg)[0]) == 283
        assert len(hash_cons(ddg)[0]) == 1681

    @pytest.mark.parametrize("source", [*GALLERY_NAMES, "s5_fd",
                                        *(f"darboux_d{2 * n + 1}" for n in (1, 2, 3, 4)),
                                        "s5_dg_ddg", "deep_sum"])
    def test_equals_reference(self, source):
        # the same nodes in the same order, so every array program keeps
        # its row order
        for exprs_ in _hash_cons_sources(source):
            assert hash_cons(exprs_) == _reference_hash_cons(exprs_)


def _s5_metric_derivatives():
    """The S^5 gallery metric's first and second derivative trees, in C
    order of (m, k, i, j)."""
    chart = gallery_chart("s5")
    d = chart.dim
    g = [chart.g[i][j] for i in range(d) for j in range(d)]
    dg = [differentiate(e, k + 1) for k in range(d) for e in g]
    return dg, [differentiate(e, m + 1) for m in range(d) for e in dg]


DARBOUX = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "darboux.py"


def _hash_cons_sources(source):
    """The expression lists that `test_equals_reference` hash-conses for
    ``source``: each base grid of a chart, flattened in C order, or the
    named tree sets."""
    if source == "s5_dg_ddg":
        return _s5_metric_derivatives()
    if source == "deep_sum":
        return [[parse(DEEP_SUM)]]
    if source == "s5_fd":
        chart = chart_from_text(chart_to_text(gallery_chart("s5").with_mode(
            DerivativeMode("fd"))))
    elif source.startswith("darboux_d"):
        spec = importlib.util.spec_from_file_location("perfbench_darboux", DARBOUX)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        chart = chart_from_text(module.darboux_sasakian_text(int(source[9:]) // 2))
    else:
        chart = gallery_chart(source)
    return [[e for row in chart.g for e in row], [e for row in chart.phi for e in row],
            list(chart.xi), list(chart.eta)]


def _reference_hash_cons(exprs_):
    """The hash-consing walk as first written, through the isinstance
    chains of `exprs._children` and `exprs._node_key`: the oracle for
    `hash_cons`, which must return the same nodes in the same order."""
    nodes, slot_of_key, slot_of_id, roots = [], {}, {}, []
    for root in exprs_:
        stack = [root]
        while stack:
            e = stack[-1]
            if id(e) in slot_of_id:
                stack.pop()
                continue
            kids = exprs._children(e)
            pending = [k for k in kids if id(k) not in slot_of_id]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            key = exprs._node_key(e, [slot_of_id[id(k)] for k in kids])
            slot = slot_of_key.get(key)
            if slot is None:
                slot = slot_of_key[key] = len(nodes)
                nodes.append(key)
            slot_of_id[id(e)] = slot
        roots.append(slot_of_id[id(root)])
    return nodes, roots


class TestArrayProgram:
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_values_equal_tree_walker(self, order):
        rng = random.Random(11)
        exprs = [_random_expr(rng, 4) for _ in range(80)]
        program = array_program(exprs)
        points = [[rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)] for _ in range(20)]
        want = [[evaluate(e, x) for e in exprs] for x in points]
        assert program(points, order)[0][0].tolist() == want
        assert [program([x], order)[0][0][0].tolist() for x in points] == want

    def test_signed_zero_results(self):
        got = array_program([parse("x1 + -0"), parse("x1 + 0")])([[-0.0]])[0][0][0]
        assert [math.copysign(1.0, v) for v in got] == [-1.0, 1.0]

    def test_non_finite_constant(self):
        # an infinite number in the text flags every row, which reads as IEEE
        e = add(Var(1), mul(num(1e200), num(1e200)))  # folds to inf
        (values,), flagged = array_program([e, num(2.5)])([[1.0]])
        assert flagged == [0]
        assert values.tolist() == [[math.inf, 2.5]]

    def test_single_expression(self):
        (values, grads, hessians), _ = array_program([parse("x1^2")])([[3.0]], 2)
        assert (values.tolist(), grads.tolist(), hessians.tolist()) == ([[9.0]], [[[6.0]]],
                                                                         [[[[2.0]]]])

    def test_unused_variables_have_zero_derivatives(self):
        # the jets run along x2 alone; x1 and x3 get exact zeros
        (values, grads, hessians), _ = array_program([parse("x2 * x2")])([[5.0, 3.0, 7.0]], 2)
        assert values.tolist() == [[9.0]]
        assert grads.tolist() == [[[0.0], [6.0], [0.0]]]
        assert hessians[0, :, :, 0].tolist() == [[0.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                                                 [0.0, 0.0, 0.0]]

    def test_empty_stack(self):
        jet, flagged = array_program([parse("x1 * x2"), parse("sqrt(x1)")])(np.empty((0, 2)), 2)
        assert [part.shape for part in jet] == [(0, 2), (0, 2, 2), (0, 2, 2, 2)]
        assert flagged == []

    def test_finite_entries_whose_sum_overflows(self):
        # the flags test each entry of the work array: finite entries whose
        # sum would overflow flag no row and print no warning
        program = array_program([parse("1e308 * x1"), parse("1e308 + x1")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (values, grads), flagged = program([[1.0], [1.5]], 1)
        assert flagged == []
        assert values.tolist() == [[1e308, 1e308], [1.5e308, 1e308]]
        assert grads.tolist() == [[[1e308, 1.0]], [[1e308, 1.0]]]

    def test_deep_tree(self):
        # 3,000 groups of one node each, run in depth order
        x = [0.1]
        want = 1.0
        for _ in range(2999):
            want += x[0]
        (values, grads), _ = array_program([parse(DEEP_SUM)])([x], 1)
        assert (values.tolist(), grads.tolist()) == ([[want]], [[[2999.0]]])

    def test_random_jets_match_symbolic_derivatives(self):
        # x^1, x^0 and negative powers unfolded, and -0.0 leaves: the values
        # bit for bit, sign of zero included, the derivatives to rounding
        # (the largest relative difference seen is 1.7e-15)
        rng = random.Random(5)
        seen, checked = set(), 0
        for _ in range(300):
            e = _random_expr(rng, 4, exponents=(-3, -2, -1, 0, 1, 2, 3))
            points = [[rng.uniform(0.4, 1.2), rng.uniform(0.4, 1.2)] for _ in range(3)]
            try:
                first = [differentiate(e, k) for k in (1, 2)]
                second = [[differentiate(d, m) for d in first] for m in (1, 2)]
                want = [([evaluate(e, x)], [[evaluate(d, x)] for d in first],
                         [[[evaluate(d, x)] for d in row] for row in second]) for x in points]
            except EvalError:
                continue  # the tree-walker refused
            (values, grads, hessians), flagged = array_program([e])(points, 2)
            assert flagged == [], to_text(e)
            for r, (value, grad, hessian) in enumerate(want):
                assert [math.copysign(1.0, v) for v in values[r]] == \
                    [math.copysign(1.0, v) for v in value]
                assert values[r].tolist() == value
                for got, exact in ((grads[r], grad), (hessians[r], hessian)):
                    exact = np.array(exact)
                    assert np.all(np.abs(got - exact) <= 64 * np.finfo(float).eps
                                  * (1.0 + np.abs(exact))), to_text(e)
            seen.update(key[:2] for key in hash_cons([e])[0])
            checked += 1
        assert checked > 250
        assert {("pow", k) for k in (-3, -2, -1, 0, 1, 2, 3)} | {("num", "-0.0")} <= seen

    @pytest.mark.parametrize("text,point", [
        ("1 / x1", [0.0]),
        ("sqrt(x1)", [-4.0]),
        ("x1^-3", [0.0]),
        ("exp(x1)", [1e6]),
        ("x1^2", [1e200]),
    ])
    def test_flags_where_tree_walker_raises(self, text, point):
        # the failing row alone, at every order; every entry reads at 1.0
        e = parse(text)
        with pytest.raises(EvalError):
            evaluate(e, point)
        for order in (0, 1, 2):
            assert array_program([parse("x1"), e])([[1.0], point], order)[1] == [1]

    @pytest.mark.parametrize("text, point, value", [
        ("1 / (1 / (x1 - 1))", 1.0, 0.0),  # 1 / 0 is inf, and 1 / inf is 0.0
        ("sqrt(x1 - 2)^0", 0.0, 1.0),      # sqrt(-2) is NaN, and NaN^0 is 1.0
        ("1 / (x1 * x1)", 1e200, 0.0),     # x1 * x1 overflows to inf
    ])
    def test_flags_exceptions_the_outputs_hide(self, text, point, value):
        # a finite output, but the failing node's row holds inf or NaN
        for order in (0, 1, 2):
            jet, flagged = array_program([parse(text)])([[2.5], [point]], order)
            assert flagged == [1]
            assert jet[0][1, 0] == value

    def test_reads_ieee_results(self):
        # sqrt(0) reads, but its derivative is inf: both rows are flagged
        (values, grads), flagged = array_program([parse("sqrt(x1)")])([[0.0], [-1.0]], 1)
        assert flagged == [0, 1]
        assert values[0, 0] == 0.0 and math.isnan(values[1, 0])
        assert grads[0, 0, 0] == math.inf and math.isnan(grads[1, 0, 0])
