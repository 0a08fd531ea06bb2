"""Arithmetic expression trees with exact partial derivatives.

A deliberately small language carries chart tensor components: numeric
literals, coordinates x1..xk, the four arithmetic operators, integer powers,
unary minus and the functions sin, cos, sqrt, exp. Derivatives are exact, so
Christoffel data can be evaluated without finite-difference noise: the
array program carries truncated Taylor series (jets) through the tree.
Simplification is limited to float constant folding and the 0/1 identities,
which keeps printed output predictable.

`parse` splits the whole text into lexeme strings with one ``findall`` of
one token pattern before parsing starts; a lexeme's kind is read off its
first character. Token offsets are found only for a `ParseError`: the text
is scanned again with the same pattern, which raises a bad character or a
malformed number first, and the offset becomes a line and column.

A chart's expressions are one DAG, not a forest of trees. `parse` builds
each repeated subtree once, and callers that parse many components pass one
node table so that equal subtrees across all of them are one object too.
The table also maps the lexemes of each parenthesized group (a function's
argument too) to the group's node, so each distinct group is parsed once
per table: a repeated copy is skipped to its closing parenthesis.
`free_variables` and `hash_cons` visit each distinct object once. Sharing
changes no value: every tree prints and evaluates as before.

Two evaluators give the same values. `evaluate` walks one tree at one point
and names the failing subexpression in an `EvalError`; it is the reference.
`array_program` runs many trees over a stack of points, one ufunc call per
group of nodes of one depth and operation, and carries each node's first
and second derivatives along with its value by forward-mode automatic
differentiation: a few more array calls per group, and no derivative tree
is built. Both take each power and function's ufunc from `_operation`, and
`FUNCTIONS` holds each function's value ufunc, symbolic derivative and
Taylor coefficients. `differentiate` builds the derivative as a tree; no
command calls it, and the tests compare the jets against it.

``parse(to_text(e)) == e`` holds for every tree built by ``parse`` or
``differentiate`` (the canonical forms): the parser folds a unary minus on a
bare literal into the literal, and the printer parenthesizes negative
literals appearing as operands. -0.0 prints as ``-0``, so its sign
survives the round trip.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

import numpy as np

Expr = Union["Num", "Var", "Bin", "Pow", "Neg", "Call"]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, prints as x<index>


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow:
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Neg:
    arg: Expr


@dataclass(frozen=True)
class Call:
    func: str
    arg: Expr


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class EvalError(ValueError):
    def __init__(self, message: str, where: str):
        super().__init__(f"{message} in {where!r}")
        self.message = message
        self.where = where


# ---------------------------------------------------------------------------
# smart constructors: constant folding plus 0/1 identities, nothing more

def num(value: float) -> Num:
    return Num(float(value))


def _is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Num) and (value is None or e.value == value)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return num(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Bin("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return num(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Bin("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return num(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return num(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Bin("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return num(a.value / b.value)
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return num(0.0)
    if _is_const(b, 1.0):
        return a
    return Bin("/", a, b)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_(base: Expr, exponent: int) -> Expr:
    """``base ^ exponent``, folded to a number when the base is one and the
    power is defined there, as `evaluate` computes it; a zero base to a
    negative power, or a power that overflows, stays a `Pow`, which
    `evaluate` rejects with an `EvalError`."""
    exponent = int(exponent)
    if exponent == 0:
        return num(1.0)
    if exponent == 1:
        return base
    if _is_const(base):
        try:
            return num(evaluate(Pow(base, exponent), []))
        except EvalError:
            pass
    return Pow(base, exponent)


def _d_sqrt(a: Expr, da: Expr) -> Expr:
    return div(da, mul(num(2.0), Call("sqrt", a)))


#: name -> (value ufunc, symbolic derivative rule, Taylor coefficients) of
#: every function of the language. ``taylor(u, w, order)`` gives f'(u) and,
#: at order 2, f''(u) (else None), from the argument ``u`` and ``w = f(u)``.
FUNCTIONS: dict[str, tuple[np.ufunc, Callable[[Expr, Expr], Expr], Callable]] = {
    "sin": (np.sin, lambda a, da: mul(Call("cos", a), da),
            lambda u, w, order: (np.cos(u), -w if order > 1 else None)),
    "cos": (np.cos, lambda a, da: neg(mul(Call("sin", a), da)),
            lambda u, w, order: (-np.sin(u), -w if order > 1 else None)),
    "sqrt": (np.sqrt, _d_sqrt,
             lambda u, w, order: (0.5 / w, -0.25 / (w * u) if order > 1 else None)),
    "exp": (np.exp, lambda a, da: mul(Call("exp", a), da),
            lambda u, w, order: (w, w if order > 1 else None)),
}


# ---------------------------------------------------------------------------
# tokenizer / parser

#: The kinds of token, each with the pattern of its lexemes, in the order
#: they are tried: an operator (the most frequent lexeme in chart texts),
#: a number, a name, the end of the text, or any other character (an
#: error). The first three start with disjoint characters, so their order
#: decides no match. ``\d`` and ``\w`` are Unicode classes.
_KINDS = (("op", r"[-+*/^()]"),
          ("num", r"(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?"),
          ("name", r"[^\W\d_]\w*"),
          ("end", r"\Z"),
          ("bad", r"."))

#: One lexeme (group 1) after optional blanks. Every position of a text
#: matches, so the matches tile it, and the last lexeme is the empty end.
_TOKEN = re.compile(r"[ \t\r\n]*(%s)" % "|".join(pattern for _, pattern in _KINDS))


def _kind(lexeme: str) -> str:
    """The kind in `_KINDS` whose pattern scanned ``lexeme``. The first
    character decides (the second after a leading '.'), by the pattern's
    classes: ``\\d`` is `str.isdecimal`, ``\\w`` is `str.isalnum` or '_'."""
    if not lexeme:
        return "end"
    if (lexeme[1:2] if lexeme[0] == "." else lexeme[0]).isdecimal():
        return "num"
    if lexeme[0].isalnum():
        return "name"
    return "op" if lexeme in "-+*/^()" else "bad"


def _error(text: str, message: str, offset: int) -> ParseError:
    """A `ParseError` at character ``offset`` of ``text``, with its 1-based
    line and column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _offsets(text: str) -> list[int]:
    """The character offset of each lexeme of ``text``. Raises the first
    unexpected character or malformed number of the text, if any."""
    offsets = []
    for m in _TOKEN.finditer(text):
        lexeme, offset = m[1], m.start(1)
        kind = _kind(lexeme)
        if kind == "bad":
            raise _error(text, f"unexpected character {lexeme!r}", offset)
        if kind == "num":
            try:
                float(lexeme)
            except ValueError:
                raise _error(text, f"malformed number {lexeme!r}", offset)
        offsets.append(offset)
        if kind == "end":
            return offsets


def _match_parens(lexemes: list[str]) -> dict[int, int]:
    """The index of the ``)`` that closes each matched ``(`` of ``lexemes``."""
    close: dict[int, int] = {}
    opened = []
    for i, lexeme in enumerate(lexemes):
        if lexeme == "(":
            opened.append(i)
        elif lexeme == ")" and opened:
            close[opened.pop()] = i
    return close


class _Parser:
    """Recursive descent over the lexemes of one text. A parenthesized group
    (a function's argument too) that parses is kept in the node table under
    its lexemes, parentheses included, so a later copy of it, in this text
    or in another parsed with the same table, is skipped to its closing
    parenthesis and read as the same node."""

    def __init__(self, text: str, nodes: dict[tuple, Expr]):
        self.text = text
        self.lexemes = _TOKEN.findall(text)
        self.close = _match_parens(self.lexemes)
        self.pos = 0
        self.nodes = nodes

    def error(self, message: str, index: int) -> ParseError:
        """A `ParseError` at lexeme ``index``. Offsets are found only here,
        by scanning the text again, and a bad character or malformed number
        anywhere in the text is the error instead."""
        return _error(self.text, message, _offsets(self.text)[index])

    def integer(self, index: int, digits: str, what: str) -> int:
        """The decimal ``digits`` of lexeme ``index`` as an int, or a
        `ParseError` there when CPython refuses to convert that many digits
        (`sys.get_int_max_str_digits`)."""
        try:
            return int(digits)
        except ValueError:
            raise self.error(f"{what} too long ({len(digits)} digits)", index)

    def share(self, key: tuple, cls, *fields) -> Expr:
        """The table's node ``cls(*fields)`` under ``key``, made on first
        sight. A key is the node's structure: child fields are table nodes
        already, so their ids stand for them, and a number stands as its
        ``repr``, which keeps 0.0 and -0.0 apart."""
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(*fields)
        return node

    def peek(self) -> str:
        return self.lexemes[self.pos]

    def next(self) -> str:
        lexeme = self.lexemes[self.pos]
        self.pos += 1
        return lexeme

    def expect_op(self, op: str, *, context: int | None = None) -> None:
        """Consume the next lexeme, which must be ``op``. At the end of the
        text, a ``context`` index names the unclosed parenthesis."""
        if self.next() == op:
            return
        if context is not None and self.lexemes[self.pos - 1] == "":
            raise self.error("unclosed parenthesis", context)
        raise self.error(f"expected {op!r}", self.pos - 1)

    def parse_group(self, opener: int) -> Expr:
        """The expression between the ``(`` at lexeme ``opener``, just
        consumed, and its ``)``."""
        close = self.close.get(opener, opener)  # an unclosed group cannot parse
        key = tuple(self.lexemes[opener:close + 1])
        node = self.nodes.get(key)
        if node is not None:
            self.pos = close + 1
            return node
        node = self.parse_expr()
        self.expect_op(")", context=opener)
        self.nodes[key] = node  # it parsed, so the ``)`` just consumed is ``close``
        return node

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()
            right = self.parse_term()
            node = self.share(("bin", op, id(node), id(right)), Bin, op, node, right)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek() in ("*", "/"):
            op = self.next()
            right = self.parse_unary()
            node = self.share(("bin", op, id(node), id(right)), Bin, op, node, right)
        return node

    def parse_unary(self) -> Expr:
        if self.peek() == "-":
            self.next()
            inner = self.parse_unary()
            # fold a minus on a bare literal into the literal (canonical form)
            if isinstance(inner, Num):
                value = -inner.value
                return self.share(("num", repr(value)), Num, value)
            return self.share(("neg", id(inner)), Neg, inner)
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek() != "^":
            return base
        self.next()
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        text = self.next()
        if not text.isdecimal():  # only a number lexeme can be all decimal digits
            raise self.error("exponent must be an integer literal", self.pos - 1)
        exponent = sign * self.integer(self.pos - 1, text, "exponent")
        return self.share(("pow", exponent, id(base)), Pow, base, exponent)

    def parse_atom(self) -> Expr:
        at = self.pos
        text = self.next()
        if text == "(":
            if self.peek() == "":
                raise self.error("unclosed parenthesis", at)
            return self.parse_group(at)
        kind = _kind(text)
        if kind == "num":
            try:
                value = float(text)
            except ValueError:  # `error` raises the malformed number first
                raise self.error(f"malformed number {text!r}", at)
            return self.share(("num", repr(value)), Num, value)
        if kind == "name":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_group(at + 1)
                return self.share(("call", text, id(arg)), Call, text, arg)
            if text[0] == "x" and text[1:].isdecimal():
                index = self.integer(at, text[1:], "variable index")
                if index < 1:
                    raise self.error("variable indices start at x1", at)
                return self.share(("var", index), Var, index)
            raise self.error(f"unknown variable name {text!r}", at)
        if kind == "end":
            raise self.error("unexpected end of input", at)
        raise self.error(f"unexpected token {text!r}", at)


def parse(text: str, nodes: dict[tuple, Expr] | None = None) -> Expr:
    """The tree of ``text``, with each repeated subtree one shared object.
    Calls that pass the same ``nodes`` table share subtrees with each other
    too; the table maps each node's structure to the node, and each
    parenthesized group parsed to its node."""
    parser = _Parser(text, {} if nodes is None else nodes)
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing:
        raise parser.error(f"unexpected trailing input {trailing!r}", parser.pos)
    return node


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 10, 20, 25, 30, 100


def _precedence(e: Expr) -> int:
    if isinstance(e, Bin):
        return _PREC_ADD if e.op in "+-" else _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Num) and (e.value < 0 or math.copysign(1.0, e.value) < 0):
        return _PREC_NEG  # negative literals read like a unary minus
    return _PREC_ATOM


def _format_number(value: float) -> str:
    if value == 0.0 and math.copysign(1.0, value) < 0:
        return "-0"  # int() would drop the sign
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _wrap(e: Expr, parent_prec: int) -> str:
    text = to_text(e)
    if _precedence(e) < parent_prec:
        return f"({text})"
    return text


def to_text(e: Expr) -> str:
    """Canonical textual form; reparsing it reproduces the tree."""
    if isinstance(e, Num):
        return _format_number(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Bin):
        left = _wrap(e.left, _precedence(e))
        right = _wrap(e.right, _precedence(e) + 1)
        return f"{left} {e.op} {right}"
    if isinstance(e, Neg):
        return f"-{_wrap(e.arg, _PREC_NEG)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_POW + 1)}^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.func}({to_text(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation

#: Every floating-point exception but underflow stops an evaluation.
_RAISE = {"divide": "raise", "invalid": "raise", "over": "raise"}

#: The ufunc of each ``(kind, attribute)`` of a node key but powers'.
_UFUNCS = {("bin", "+"): np.add, ("bin", "-"): np.subtract, ("bin", "*"): np.multiply,
           ("bin", "/"): np.divide, ("neg", None): np.negative,
           **{("call", name): fn for name, (fn, *_) in FUNCTIONS.items()}}


def _operation(kind: str, attr) -> tuple[np.ufunc, tuple]:
    """The ufunc of a node and the constants it takes after its children: the
    one definition of each operation, which `array_program` applies to
    columns and `evaluate`, for powers and functions, to 1-element arrays."""
    if kind == "pow":
        return np.power, (float(attr),)
    return _UFUNCS[kind, attr], ()


def _apply(e: Pow | Call, arg: float) -> float:
    """``e``'s operation on the value ``arg`` of its child, as `array_program`
    computes it; a floating-point exception is an `EvalError`."""
    fn, consts = _operation(*_node_key(e, [])[:2])
    try:
        with np.errstate(**_RAISE):
            return float(fn(np.array([arg]), *consts)[0])
    except FloatingPointError as exc:
        raise EvalError(f"math error: {exc}", to_text(e)) from exc


def evaluate(e: Expr, values) -> float:
    """Evaluate with values[i-1] bound to xi. Domain problems raise EvalError
    naming the offending subexpression. Powers and functions apply
    `array_program`'s ufuncs; Python's operators round as numpy's do."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.index > len(values):
            raise EvalError(f"unbound variable x{e.index}", to_text(e))
        return float(values[e.index - 1])
    if isinstance(e, Bin):
        a = evaluate(e.left, values)
        b = evaluate(e.right, values)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise EvalError("division by zero", to_text(e))
        return a / b
    if isinstance(e, Neg):
        return -evaluate(e.arg, values)
    if isinstance(e, Pow):
        base = evaluate(e.base, values)
        if base == 0.0 and e.exponent < 0:
            raise EvalError("zero raised to a negative power", to_text(e))
        return _apply(e, base)
    if isinstance(e, Call):
        arg = evaluate(e.arg, values)
        if e.func == "sqrt" and arg < 0.0:
            raise EvalError(f"square root of negative value {arg:.6g}", to_text(e))
        return _apply(e, arg)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e: Expr, index: int, memo: dict | None = None) -> Expr:
    """Exact partial derivative with respect to x<index>.

    ``memo`` maps ``(id(node), index)`` to ``(node, derivative)`` for every
    node already differentiated; holding the node keeps its id from being
    reused. Calls that share one memo differentiate each (node, variable)
    pair once, however many trees hold the node."""
    if memo is None:
        memo = {}
    key = (id(e), index)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if isinstance(e, Num):
        d = num(0.0)
    elif isinstance(e, Var):
        d = num(1.0 if e.index == index else 0.0)
    elif isinstance(e, Bin):
        da = differentiate(e.left, index, memo)
        db = differentiate(e.right, index, memo)
        if e.op == "+":
            d = add(da, db)
        elif e.op == "-":
            d = sub(da, db)
        elif e.op == "*":
            d = add(mul(da, e.right), mul(e.left, db))
        else:
            d = div(sub(mul(da, e.right), mul(e.left, db)), pow_(e.right, 2))
    elif isinstance(e, Neg):
        d = neg(differentiate(e.arg, index, memo))
    elif isinstance(e, Pow):
        da = differentiate(e.base, index, memo)
        d = mul(mul(num(float(e.exponent)), pow_(e.base, e.exponent - 1)), da)
    elif isinstance(e, Call):
        da = differentiate(e.arg, index, memo)
        d = num(0.0) if _is_const(da, 0.0) else FUNCTIONS[e.func][1](e.arg, da)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[key] = (e, d)
    return d


def free_variables(*exprs: Expr) -> set[int]:
    """Indices of the coordinates ``exprs`` use. Each distinct node is
    visited once, however many trees share it; iterative, so deep trees are
    fine."""
    found: set[int] = set()
    seen: set[int] = set()
    stack = list(exprs)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Var):
            found.add(node.index)
        elif not isinstance(node, (Num, Bin, Neg, Pow, Call)):
            raise TypeError(f"not an expression node: {node!r}")
        stack.extend(_children(node))
    return found


def _children(e: Expr) -> tuple:
    if isinstance(e, Bin):
        return (e.left, e.right)
    if isinstance(e, Neg | Call):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    return ()


# ---------------------------------------------------------------------------
# array programs

def _node_key(e: Expr, kids: list[int]) -> tuple:
    """Structural identity of ``e``: ``(kind, attribute, *child slots)``.
    Numbers are keyed by ``repr`` so that 0.0 and -0.0 stay distinct."""
    if isinstance(e, Num):
        return ("num", repr(e.value))
    if isinstance(e, Var):
        return ("var", e.index)
    if isinstance(e, Bin):
        return ("bin", e.op, *kids)
    if isinstance(e, Neg):
        return ("neg", None, *kids)
    if isinstance(e, Pow):
        return ("pow", e.exponent, *kids)
    if isinstance(e, Call):
        return ("call", e.func, *kids)
    raise TypeError(f"not an expression node: {e!r}")


def hash_cons(exprs) -> tuple[list[tuple], list[int]]:
    """Share every repeated subexpression of ``exprs``.

    Returns ``(nodes, roots)``: ``nodes`` lists each structurally distinct
    subexpression once, children before parents, as a key
    ``(kind, attribute, *child indices into nodes)`` (`_node_key`);
    ``roots[n]`` is the index of ``exprs[n]``. Each distinct object is
    keyed once: a visit tests its class by identity, not through
    isinstance chains, and pushes only the children not yet keyed, a
    right operand above its left, so a right subtree is keyed before its
    left sibling. The walk uses an explicit stack, so tree depth is not
    limited by the interpreter's recursion limit.
    """
    nodes: list[tuple] = []
    slot_of_key: dict[tuple, int] = {}
    slot_of_id: dict[int, int] = {}  # every node stays alive through `exprs`
    roots = []
    for root in exprs:
        stack = [root]
        while stack:
            e = stack[-1]
            if id(e) in slot_of_id:
                stack.pop()
                continue
            cls = type(e)
            if cls is Num:
                key = ("num", repr(e.value))
            elif cls is Var:
                key = ("var", e.index)
            elif cls is Bin:
                a, b = slot_of_id.get(id(e.left)), slot_of_id.get(id(e.right))
                if a is None or b is None:
                    if a is None:
                        stack.append(e.left)
                    if b is None:
                        stack.append(e.right)
                    continue
                key = ("bin", e.op, a, b)
            else:
                if cls is Pow:
                    head, kid = ("pow", e.exponent), e.base
                elif cls is Neg:
                    head, kid = ("neg", None), e.arg
                elif cls is Call:
                    head, kid = ("call", e.func), e.arg
                else:
                    raise TypeError(f"not an expression node: {e!r}")
                a = slot_of_id.get(id(kid))
                if a is None:
                    stack.append(kid)
                    continue
                key = (*head, a)
            stack.pop()
            slot = slot_of_key.get(key)
            if slot is None:
                slot = slot_of_key[key] = len(nodes)
                nodes.append(key)
            slot_of_id[id(e)] = slot
        roots.append(slot_of_id[id(root)])
    return nodes, roots


def _symmetric_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i b_j + b_i a_j, flattened to ``(d * d, ...)``, for gradient blocks
    ``(d, ...)``: entry (i, j) and entry (j, i) are the same sum, so the
    result is symmetric bit for bit."""
    t = a[:, None] * b[None, :]
    return (t + t.swapaxes(0, 1)).reshape((len(a) * len(b),) + t.shape[2:])


# Each rule writes the jets ``out`` of a group of nodes from the jets of its
# operands, ``(width, nodes, points)`` blocks: the values, then for order 1
# or 2 the derivative along each of the d variables the program uses, then
# for order 2 the second derivatives, (1, 1), (1, 2), ... (d, d).

def _product(fn, consts, ops, out, d: int) -> None:
    """w = u v: w' = u v' + u' v, w'' = u v'' + u'' v + u' v'^T + v' u'^T."""
    u, v = ops
    fn(u[:1], v, out=out)  # the value u v, and u v', u v''
    out[1:] += u[1:] * v[:1]
    if len(out) > 1 + d:
        out[1 + d:] += _symmetric_outer(u[1:1 + d], v[1:1 + d])


def _quotient(fn, consts, ops, out, d: int) -> None:
    """w = u / v: w' = (u' - w v') / v, w'' = (u'' - w v'' - w' v'^T - v' w'^T) / v."""
    u, v = ops
    fn(u[0], v[0], out=out[0])
    np.multiply(out[:1], v[1:], out=out[1:])
    np.subtract(u[1:], out[1:], out=out[1:])
    out[1:1 + d] /= v[:1]
    if len(out) > 1 + d:
        out[1 + d:] -= _symmetric_outer(out[1:1 + d], v[1:1 + d])
        out[1 + d:] /= v[:1]


def _power_taylor(u, w, order, k):
    """The coefficients of `FUNCTIONS` for u^k; None where k makes one 0.
    For the squares, u^1 is u and u^0 is 1."""
    if k == 2:
        return 2.0 * u, (2.0 if order > 1 else None)
    first = None if k == 0 else k * np.power(u, k - 1.0)
    second = None if order < 2 or k in (0, 1) else k * (k - 1.0) * np.power(u, k - 2.0)
    return first, second


def _chain(fn, consts, ops, out, d: int, *, taylor) -> None:
    """w = f(u): w' = f'(u) u', w'' = f'(u) u'' + f''(u) u' u'^T."""
    u = ops[0]
    fn(u[0], *consts, out=out[0])
    first, second = taylor(u[0], out[0], 1 if len(out) == 1 + d else 2, *consts)
    if first is None:
        out[1:] = 0.0
        return
    np.multiply(first, u[1:], out=out[1:])
    if second is not None:
        grad = u[1:1 + d]
        t = grad[:, None] * grad[None, :]
        t *= second
        out[1 + d:] += t.reshape(out[1 + d:].shape)


#: The jet rule of each ``(kind, attribute)``, powers under ``("pow",
#: None)``: None for the linear operations, whose ufunc applies to the
#: derivatives as it does to the values.
_RULES = {("bin", "+"): None, ("bin", "-"): None, ("neg", None): None,
          ("bin", "*"): _product, ("bin", "/"): _quotient,
          ("pow", None): partial(_chain, taylor=_power_taylor),
          **{("call", name): partial(_chain, taylor=taylor)
             for name, (*_, taylor) in FUNCTIONS.items()}}


def _along(axes: list[int], d: int, part: np.ndarray) -> np.ndarray:
    """The jet ``part``, whose derivative axes (those after the first) run
    over the variables ``axes`` (0-based), over all of x1..xd instead, 0
    along the others."""
    order = part.ndim - 2
    full = np.zeros(part.shape[:1] + (d,) * order + part.shape[-1:])
    full[(slice(None), *np.ix_(*[axes] * order))] = part
    return full


def _rows(rows: list[int]):
    """The work-array ``rows`` as a slice when they are consecutive (a view
    is cheaper than a gather), else as an index array."""
    first, stop = rows[0], rows[0] + len(rows)
    if rows[-1] == stop - 1 and rows == list(range(first, stop)):
        return slice(first, stop)
    return np.array(rows, dtype=np.intp)


def array_program(exprs) -> Callable[..., list[np.ndarray]]:
    """A callable ``program(points, order=0, *, strict=True)`` from an
    ``(n, k)`` array of points (x1..xk per row) to the truncated Taylor
    series ("jet") of ``exprs`` at every row, up to ``order`` 0, 1 or 2:
    a list of the C-ordered ``(n, len(exprs))`` values, the ``(n, k,
    len(exprs))`` first derivatives along x1..xk and the ``(n, k, k,
    len(exprs))`` second derivatives. The values are ``evaluate(e, row)``
    bit for bit, whatever the order.

    Each `hash_cons` node is one row of a (1 + v + v^2) x nodes x points
    work array, shorter below order 2: its value, and its gradient and
    Hessian (flattened) along the v variables that ``exprs`` use, at every
    point; a derivative along any other variable is 0, which is written
    into the outputs alone. Depth is 0 for numbers and variables, else
    one more than the deepest child's; the nodes of one depth, kind and
    attribute (every ``*`` at depth 4) form a group, whose block is written
    in depth order: for ``+``, ``-`` and negation, which are linear, by one
    ufunc call over every order; for the others by the node's own ufunc on
    the values and a few array calls for the product, quotient and chain
    rules of forward-mode automatic differentiation (Griewank and Walther,
    *Evaluating Derivatives*, 2nd ed., SIAM 2008). Every Hessian is
    symmetric bit for bit. One ``take`` per order gathers the outputs in
    their final layout.

    With ``strict``, any floating-point exception but underflow raises
    ``FloatingPointError`` and names nothing: wherever `evaluate` raises,
    where an operator overflows on the way to a finite value (``1 / (x1 *
    x1)`` at 1e200), and where a derivative rule divides by zero or
    overflows; so does a value that is not finite anywhere in the work
    array (an infinite number in the text), so a strict read returns finite
    numbers only. Without it the IEEE results (inf, NaN) are returned.
    """
    nodes, roots = hash_cons(exprs)
    depth: list[int] = []
    groups: dict[tuple, list[int]] = {}
    for slot, key in enumerate(nodes):  # (kind, attr) and one child slot per operand
        if len(key) == 2:
            depth.append(0)
            continue
        below = depth[key[2]]
        if len(key) == 4 and depth[key[3]] > below:
            below = depth[key[3]]
        depth.append(below + 1)
        groups.setdefault((below + 1, key[0], key[1]), []).append(slot)
    numbers = [slot for slot, key in enumerate(nodes) if key[0] == "num"]
    variables = [slot for slot, key in enumerate(nodes) if key[0] == "var"]
    by_depth = sorted(groups.items(), key=lambda item: item[0][0])  # stable
    order_of_rows = numbers + variables + [slot for _, slots in by_depth for slot in slots]
    row = {slot: r for r, slot in enumerate(order_of_rows)}
    steps = []  # (ufunc, constants, derivative rule, rows written, operand rows)
    for (_, kind, attr), slots in by_depth:
        kids = zip(*(nodes[slot][2:] for slot in slots))  # one tuple per operand
        args = [_rows([row[kid] for kid in column]) for column in kids]
        steps.append((*_operation(kind, attr), _RULES[kind, None if kind == "pow" else attr],
                      slice(row[slots[0]], row[slots[-1]] + 1), args))
    constants = np.array([float(nodes[slot][1]) for slot in numbers])[:, None]
    columns = np.array([nodes[slot][1] - 1 for slot in variables], dtype=np.intp)
    inputs = slice(len(numbers), len(numbers) + len(variables))
    axes = sorted(set(columns.tolist()))  # the variables the jets differentiate along
    v = len(axes)
    # the row of d x_k / d x_k in the work array with its first two axes merged
    seeds = np.array([(1 + axes.index(c)) * len(order_of_rows) + r
                      for r, c in enumerate(columns.tolist(), len(numbers))], dtype=np.intp)
    outputs = np.array([row[slot] for slot in roots], dtype=np.intp)

    def program(points, order: int = 0, *, strict: bool = True) -> list[np.ndarray]:
        points = np.asarray(points, float)
        n, d = points.shape
        # every row's values are written; derivatives only where not 0
        work = (np.zeros if order else np.empty)(((1, 1 + v, 1 + v + v * v)[order],
                                                  len(order_of_rows), n))
        values = work[0]
        values[:len(numbers)] = constants
        values[inputs] = points.T.take(columns, axis=0)
        with np.errstate(**(_RAISE if strict else {"all": "ignore"})):
            if not order:
                for fn, consts, _, rows, args in steps:
                    fn(*[values[a] if a.__class__ is slice else values.take(a, axis=0)
                         for a in args], *consts, out=values[rows])
            else:
                work.reshape(work.shape[0] * work.shape[1], n)[seeds] = 1.0
                for fn, consts, rule, rows, args in steps:
                    ops = [work[:, a] if a.__class__ is slice else work.take(a, axis=1)
                           for a in args]
                    if rule is None:
                        fn(*ops, *consts, out=work[:, rows])
                    else:
                        rule(fn, consts, ops, work[:, rows], v)
        if strict and not np.isfinite(work).all():
            raise FloatingPointError("a value is not finite")
        jet = [values.T.take(outputs, axis=1)]
        if order:
            jet.append(work[1:1 + v].transpose(2, 0, 1).take(outputs, axis=2))
        if order == 2:
            hessians = work[1 + v:].reshape(v, v, len(order_of_rows), n)
            jet.append(hessians.transpose(3, 0, 1, 2).take(outputs, axis=3))
        if v < d:  # every x_k the expressions do not use: derivatives of 0
            jet[1:] = [_along(axes, d, part) for part in jet[1:]]
        return jet

    return program
