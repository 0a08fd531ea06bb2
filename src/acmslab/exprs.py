"""Arithmetic expression trees with exact partial derivatives.

A deliberately small language carries chart tensor components: numeric
literals, coordinates x1..xk, the four arithmetic operators, integer powers,
unary minus and the functions sin, cos, sqrt, exp. Derivatives are produced
symbolically so Christoffel data can be evaluated without finite-difference
noise; simplification is limited to float constant folding and the 0/1
identities, which keeps printed output predictable.

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

_OPERATORS = set("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                float(lexeme)
            except ValueError:
                raise ParseError(f"malformed number {lexeme!r}", line, start_col)
            tokens.append(_Token("num", lexeme, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _OPERATORS:
            tokens.append(_Token("op", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], nodes: dict[tuple, Expr]):
        self.tokens = tokens
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

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str, *, context: _Token | None = None):
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.next()
        if context is not None and tok.kind == "end":
            raise ParseError("unclosed parenthesis", context.line, context.column)
        raise ParseError(f"expected {text!r}", tok.line, tok.column)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            right = self.parse_term()
            node = self.share(("bin", op, id(node), id(right)), Bin, op, node, right)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            right = self.parse_unary()
            node = self.share(("bin", op, id(node), id(right)), Bin, op, node, right)
        return node

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
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
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            sign = 1
            if self.peek().kind == "op" and self.peek().text == "-":
                self.next()
                sign = -1
            exp_tok = self.peek()
            if exp_tok.kind != "num" or not exp_tok.text.isdigit():
                raise ParseError("exponent must be an integer literal",
                                 exp_tok.line, exp_tok.column)
            self.next()
            exponent = sign * int(exp_tok.text)
            return self.share(("pow", exponent, id(base)), Pow, base, exponent)
        return base

    def parse_atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            value = float(tok.text)
            return self.share(("num", repr(value)), Num, value)
        if tok.kind == "name":
            if tok.text in FUNCTIONS:
                open_tok = self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")", context=open_tok)
                return self.share(("call", tok.text, id(arg)), Call, tok.text, arg)
            if tok.text[0] == "x" and tok.text[1:].isdigit():
                index = int(tok.text[1:])
                if index < 1:
                    raise ParseError("variable indices start at x1", tok.line, tok.column)
                return self.share(("var", index), Var, index)
            raise ParseError(f"unknown variable name {tok.text!r}", tok.line, tok.column)
        if tok.kind == "op" and tok.text == "(":
            if self.peek().kind == "end":
                raise ParseError("unclosed parenthesis", tok.line, tok.column)
            inner = self.parse_expr()
            self.expect_op(")", context=tok)
            return inner
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.line, tok.column)
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column)


def parse(text: str, nodes: dict[tuple, Expr] | None = None) -> Expr:
    """The tree of ``text``, with each repeated subtree one shared object.
    Calls that pass the same ``nodes`` table share subtrees with each other
    too; the table maps each node's structure to the node."""
    parser = _Parser(_tokenize(text), {} if nodes is None else nodes)
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing input {trailing.text!r}",
                         trailing.line, trailing.column)
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

#: Statements per generated function, each compiled on its own. Compiling
#: the S^5 second metric derivatives (1,681 nodes) in one piece peaks at about
#: 5 MB of allocations; 200 statements at a time peak near 1.3 MB and run as
#: fast.
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
