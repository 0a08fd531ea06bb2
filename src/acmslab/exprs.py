"""Arithmetic expression trees with exact partial derivatives.

A deliberately small language carries chart tensor components: numeric
literals, coordinates x1..xk, the four arithmetic operators, integer powers,
unary minus and the functions sin, cos, sqrt, exp. Derivatives are produced
symbolically so Christoffel data can be evaluated without finite-difference
noise; simplification is limited to float constant folding and the 0/1
identities, which keeps printed output predictable.

`parse` scans the whole text with one token pattern before parsing starts,
and each token keeps its position as a character offset; only a
`ParseError` turns an offset into a line and column.

A chart's expressions are one DAG, not a forest of trees. `parse` builds
each repeated subtree once, and callers that parse many components pass one
node table so that equal subtrees across all of them are one object too.
`differentiate` takes a memo keyed by node and variable, so over a whole
chart each shared subexpression is differentiated once per variable and
its derivative is one object wherever it is used. (Equal derivatives of
different nodes stay separate objects; `hash_cons` merges them by
structure.) `free_variables` and `hash_cons` visit each distinct object
once. Sharing changes no value: every tree prints, evaluates and compiles
as before.

Two evaluators give the same floats. `evaluate` walks one tree recursively
and names the failing subexpression in an `EvalError`; it is the reference.
`compile_kernel` hash-conses many trees into one straight-line program over
their distinct subexpressions and compiles it to Python, for evaluating a
whole grid at many points.

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
from operator import itemgetter
from typing import Callable, Union

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
    exponent = int(exponent)
    if exponent == 0:
        return num(1.0)
    if exponent == 1:
        return base
    if _is_const(base):
        return num(base.value ** exponent)
    return Pow(base, exponent)


def _d_sqrt(a: Expr, da: Expr) -> Expr:
    return div(da, mul(num(2.0), Call("sqrt", a)))


FUNCTIONS: dict[str, tuple[Callable[[float], float], Callable[[Expr, Expr], Expr]]] = {
    "sin": (math.sin, lambda a, da: mul(Call("cos", a), da)),
    "cos": (math.cos, lambda a, da: neg(mul(Call("sin", a), da))),
    "sqrt": (math.sqrt, _d_sqrt),
    "exp": (math.exp, lambda a, da: mul(Call("exp", a), da)),
}


# ---------------------------------------------------------------------------
# tokenizer / parser

#: One token after optional blanks: a number, a name, an operator, the end
#: of the text, or any other character (an error). Every position of a text
#: matches, so the matches tile it. ``\d`` and ``\w`` are Unicode classes.
_TOKEN = re.compile(r"""[ \t\r\n]*(?:
    (?P<num>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?)
  | (?P<name>[^\W\d_]\w*)
  | (?P<op>[-+*/^()])
  | (?P<end>\Z)
  | (?P<bad>.))""", re.VERBOSE)


def _error(text: str, message: str, offset: int) -> ParseError:
    """A `ParseError` at character ``offset`` of ``text``, with its 1-based
    line and column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The ``(kind, text, offset)`` tokens of ``text``, ending with one
    ``end`` token; kind is num, name, op or end. An operator is known by its
    text alone."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        lexeme, offset = m[kind], m.start(kind)
        if kind == "bad":
            raise _error(text, f"unexpected character {lexeme!r}", offset)
        if kind == "num":
            try:
                float(lexeme)
            except ValueError:
                raise _error(text, f"malformed number {lexeme!r}", offset)
        tokens.append((kind, lexeme, offset))
        if kind == "end":
            return tokens


class _Parser:
    def __init__(self, text: str, nodes: dict[tuple, Expr]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nodes = nodes

    def share(self, key: tuple, cls, *fields) -> Expr:
        """The table's node ``cls(*fields)`` under ``key``, made on first
        sight. A key is the node's structure: child fields are table nodes
        already, so their ids stand for them, and a number stands as its
        ``repr``, which keeps 0.0 and -0.0 apart."""
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(*fields)
        return node

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str, *, context: int | None = None) -> int:
        """The offset of the next token, which must be ``op``. At the end
        of the text, a ``context`` offset names the unclosed parenthesis."""
        kind, text, offset = self.next()
        if text == op:
            return offset
        if context is not None and kind == "end":
            raise _error(self.text, "unclosed parenthesis", context)
        raise _error(self.text, f"expected {op!r}", offset)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            right = self.parse_term()
            node = self.share(("bin", op, id(node), id(right)), Bin, op, node, right)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            right = self.parse_unary()
            node = self.share(("bin", op, id(node), id(right)), Bin, op, node, right)
        return node

    def parse_unary(self) -> Expr:
        if self.peek()[1] == "-":
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
        if self.peek()[1] != "^":
            return base
        self.next()
        sign = 1
        if self.peek()[1] == "-":
            self.next()
            sign = -1
        kind, text, offset = self.next()
        if kind != "num" or not text.isdigit():
            raise _error(self.text, "exponent must be an integer literal", offset)
        exponent = sign * int(text)
        return self.share(("pow", exponent, id(base)), Pow, base, exponent)

    def parse_atom(self) -> Expr:
        kind, text, offset = self.next()
        if kind == "num":
            value = float(text)
            return self.share(("num", repr(value)), Num, value)
        if kind == "name":
            if text in FUNCTIONS:
                opener = self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")", context=opener)
                return self.share(("call", text, id(arg)), Call, text, arg)
            if text[0] == "x" and text[1:].isdigit():
                index = int(text[1:])
                if index < 1:
                    raise _error(self.text, "variable indices start at x1", offset)
                return self.share(("var", index), Var, index)
            raise _error(self.text, f"unknown variable name {text!r}", offset)
        if text == "(":
            if self.peek()[0] == "end":
                raise _error(self.text, "unclosed parenthesis", offset)
            inner = self.parse_expr()
            self.expect_op(")", context=offset)
            return inner
        if kind == "end":
            raise _error(self.text, "unexpected end of input", offset)
        raise _error(self.text, f"unexpected token {text!r}", offset)


def parse(text: str, nodes: dict[tuple, Expr] | None = None) -> Expr:
    """The tree of ``text``, with each repeated subtree one shared object.
    Calls that pass the same ``nodes`` table share subtrees with each other
    too; the table maps each node's structure to the node."""
    parser = _Parser(text, {} if nodes is None else nodes)
    node = parser.parse_expr()
    kind, trailing, offset = parser.peek()
    if kind != "end":
        raise _error(text, f"unexpected trailing input {trailing!r}", offset)
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

def evaluate(e: Expr, values) -> float:
    """Evaluate with values[i-1] bound to xi. Domain problems raise EvalError
    naming the offending subexpression."""
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
        try:
            return float(base ** e.exponent)
        except OverflowError as exc:
            raise EvalError(f"math error: {exc}", to_text(e)) from exc
    if isinstance(e, Call):
        arg = evaluate(e.arg, values)
        if e.func == "sqrt" and arg < 0.0:
            raise EvalError(f"square root of negative value {arg:.6g}", to_text(e))
        fn = FUNCTIONS[e.func][0]
        try:
            return fn(arg)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"math error: {exc}", to_text(e)) from exc
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
# compiled kernels

#: Statements per generated function, each compiled on its own. Chunks bound
#: the compiler's memory (a dim-64 chart's `dphi` grid has 262,144
#: components) and cost about a fifth of row speed. Building the nine S^5
#: grids in a fresh process grew ru_maxrss by 1.2 MB chunked against 5.1 MB
#: in one piece, and one piece evaluated `ddg` (1,681 nodes) at 2 rows in
#: 97-143 µs against 122-179 µs chunked (best of 300; Python 3.11.7,
#: numpy 2.4.6).
_CHUNK = 200


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
    ``(kind, attribute, *child indices into nodes)``; ``roots[n]`` is the
    index of ``exprs[n]``. The walk uses an explicit stack, so tree depth is
    not limited by the interpreter's recursion limit.
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
            kids = _children(e)
            pending = [k for k in kids if id(k) not in slot_of_id]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            key = _node_key(e, [slot_of_id[id(k)] for k in kids])
            slot = slot_of_key.get(key)
            if slot is None:
                slot = slot_of_key[key] = len(nodes)
                nodes.append(key)
            slot_of_id[id(e)] = slot
        roots.append(slot_of_id[id(root)])
    return nodes, roots


def _right_hand_side(key: tuple, operands: list[str]) -> str:
    kind, attr = key[0], key[1]
    if kind == "var":
        return f"float(x[{attr - 1}])"
    if kind == "bin":
        return f"{operands[0]} {attr} {operands[1]}"
    if kind == "neg":
        return f"-{operands[0]}"
    if kind == "pow":
        return f"{operands[0]} ** ({attr})"
    return f"{attr}({operands[0]})"  # call


def compile_kernel(exprs) -> Callable[[list[float]], list[float]]:
    """Compile ``exprs`` into one callable ``values -> list[float]``.

    The result equals ``[evaluate(e, values) for e in exprs]`` bit for bit:
    each shared subexpression is computed once, with the same float
    operators and ``math`` functions that `evaluate` applies. Where
    `evaluate` raises `EvalError`, the kernel raises the underlying
    ``ZeroDivisionError``, ``ValueError`` or ``OverflowError`` instead and
    names no component; callers re-run `evaluate` to find it. ``values``
    must bind every variable the expressions use.

    The program is split into functions of at most ``_CHUNK`` statements
    that share one list of slot values; within a function, values live in
    locals.
    """
    nodes, roots = hash_cons(exprs)
    template = [0.0] * len(nodes)
    literals: dict[int, str] = {}
    for slot, key in enumerate(nodes):
        if key[0] == "num":
            template[slot] = value = float(key[1])
            if math.isfinite(value):
                literals[slot] = f"({key[1]})"
    computed = [slot for slot, key in enumerate(nodes) if key[0] != "num"]
    chunks = [computed[i:i + _CHUNK] for i in range(0, len(computed), _CHUNK)]
    chunk_of = {slot: c for c, chunk in enumerate(chunks) for slot in chunk}
    shared = set(roots)  # slots read by the output or by a later chunk
    for slot in computed:
        shared.update(kid for kid in nodes[slot][2:]
                      if kid in chunk_of and chunk_of[kid] != chunk_of[slot])
    scope = {name: fn for name, (fn, _) in FUNCTIONS.items()}
    steps = []
    for c, chunk in enumerate(chunks):
        loads: set[int] = set()
        body = []
        for slot in chunk:
            operands = []
            for kid in nodes[slot][2:]:
                if kid in literals:
                    operands.append(literals[kid])
                else:
                    if chunk_of.get(kid) != c:
                        loads.add(kid)
                    operands.append(f"v{kid}")
            body.append(f"    v{slot} = {_right_hand_side(nodes[slot], operands)}")
        source = "\n".join([
            "def step(x, t):",
            *(f"    v{slot} = t[{slot}]" for slot in sorted(loads)),
            *body,
            *(f"    t[{slot}] = v{slot}" for slot in chunk if slot in shared),
        ])
        exec(compile(source, "<kernel>", "exec"), scope)
        steps.append(scope.pop("step"))
    fetch = itemgetter(*roots) if len(roots) > 1 else lambda t: (t[roots[0]],)

    def kernel(values) -> list[float]:
        t = template.copy()
        for step in steps:
            step(values, t)
        return list(fetch(t))

    return kernel
