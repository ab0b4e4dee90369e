"""Closed-form coefficient expressions: parser and evaluator.

The grammar is deliberately small: numbers, the variables x1..xd (x and
ASCII digits, the first of them 1-9) and t, unary minus, sin/cos/exp/sqrt,
the binary operators + - * / and ^ with an integer-literal exponent.
Precedence from strongest to weakest:

    ^   unary -   * /   + -

Parsing is whitespace-insensitive and deterministic; errors carry the byte
offset of the offending token.  MAX_DEPTH bounds the nesting of parentheses,
calls and unary minuses and the depth of the tree, so neither the parser nor
a walk of the tree (evaluation, comparison, axes) nears the recursion limit.
Parsed ASTs are frozen dataclasses, so two expressions are the same exactly
when their trees compare equal.  Evaluation takes one coordinate form, a
tuple of per-axis arrays that broadcast together, and turns any NaN/Inf,
division by zero or negative sqrt into an EvalError instead of propagating
silent non-finite values.  eval_free evaluates once the subtrees that do not
reference one axis, for evaluations on slabs along it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "sqrt")

# deepest nesting of parentheses, calls and unary minuses, and deepest tree
# (edges from the root to a leaf), that an expression may have
MAX_DEPTH = 100
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EvalError(ValueError):
    """Raised when evaluation leaves the function's domain or overflows."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "t" or "x<k>"
    axis: int  # 0 for t, k >= 1 for x_k


@dataclass(frozen=True)
class Neg:
    arg: "Ast"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Ast"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Ast"
    right: "Ast"


@dataclass(frozen=True)
class Pow:
    base: "Ast"
    exponent: int


Ast = Num | Var | Neg | Call | BinOp | Pow


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# one alternative per token kind, tried in this order at each position: a
# number is digits and dots with an optional signed exponent (a bare "1e" is
# the number 1 and the identifier e), an identifier a letter or underscore and
# then word characters, and any other character is an error
_TOKEN = re.compile(r"""
    (?P<num> (?:\d|\.\d) [\d.]* (?:[eE][+-]?\d+)? )
  | (?P<ident> [^\W\d]\w* )
  | (?P<op> [-+*/^()] )
  | (?P<space> \s+ )
  | (?P<other> . )
""", re.VERBOSE | re.DOTALL)


@dataclass(frozen=True)
class _Token:
    kind: str  # num ident op end
    text: str
    offset: int


def _byte_offset(src: str, pos: int) -> int:
    return len(src[:pos].encode("utf-8"))


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(src):
        kind, text = match.lastgroup, match.group()
        if kind == "space":
            continue
        offset = _byte_offset(src, match.start())
        if kind == "other":
            raise ExprSyntaxError(f"unexpected character {text!r}", offset)
        if kind == "num":
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {text!r}", offset) from None
            if not np.isfinite(value):
                raise ExprSyntaxError(f"number literal {text!r} overflows", offset)
        tokens.append(_Token(kind, text, offset))
    tokens.append(_Token("end", "", _byte_offset(src, len(src))))
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.nesting = 0
        self.depths: dict[int, int] = {}  # id of each node built -> depth of its tree

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}, got {tok.text!r}", tok.offset)

    def node(self, tok: _Token, ast: Ast) -> Ast:
        """ast, built at tok from children that passed through here; a tree
        deeper than MAX_DEPTH is refused at tok."""
        children = [v for v in vars(ast).values() if isinstance(v, Ast)]
        depth = self.depths[id(ast)] = max((self.depths[id(c)] + 1 for c in children), default=0)
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(_TOO_DEEP, tok.offset)
        return ast

    def nested(self, tok: _Token, parse) -> Ast:
        """parse() one nesting level below tok; a level beyond MAX_DEPTH is
        refused at tok, before the parser recurses into it."""
        if self.nesting == MAX_DEPTH:
            raise ExprSyntaxError(_TOO_DEEP, tok.offset)
        self.nesting += 1
        ast = parse()
        self.nesting -= 1
        return ast

    def parse(self) -> Ast:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return node

    def expr(self) -> Ast:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.take()
            node = self.node(tok, BinOp(tok.text, node, self.term()))
        return node

    def term(self) -> Ast:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.take()
            node = self.node(tok, BinOp(tok.text, node, self.unary()))
        return node

    def unary(self) -> Ast:
        if self.peek().kind == "op" and self.peek().text == "-":
            tok = self.take()
            return self.node(tok, Neg(self.nested(tok, self.unary)))
        return self.power()

    def power(self) -> Ast:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            caret = self.take()
            sign = 1
            if self.peek().kind == "op" and self.peek().text == "-":
                self.take()
                sign = -1
            tok = self.take()
            if tok.kind != "num" or any(c in tok.text for c in ".eE"):
                raise ExprSyntaxError("exponent must be an integer literal", tok.offset)
            return self.node(caret, Pow(base, sign * int(tok.text)))
        return base

    def atom(self) -> Ast:
        tok = self.take()
        if tok.kind == "num":
            return self.node(tok, Num(float(tok.text)))
        if tok.kind == "ident":
            name = tok.text
            if name == "t":
                return self.node(tok, Var("t", 0))
            if name.startswith("x") and name[1:].isdigit():
                # x and ASCII digits, the first 1-9: x0, x01, x² and x١ are not
                # variables, so x1 has no second spelling
                if not name[1:].isascii() or name[1] == "0":
                    raise ExprSyntaxError(f"bad variable {name!r}", tok.offset)
                return self.node(tok, Var(name, int(name[1:])))
            if name in FUNCTIONS:
                nxt = self.peek()
                if not (nxt.kind == "op" and nxt.text == "("):
                    raise ExprSyntaxError(f"function {name!r} needs one argument", nxt.offset)
                self.take()
                arg = self.nested(tok, self.expr)
                self.expect_op(")")
                return self.node(tok, Call(name, arg))
            raise ExprSyntaxError(f"unknown identifier {name!r}", tok.offset)
        if tok.kind == "op" and tok.text == "(":
            node = self.nested(tok, self.expr)
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {tok.text or 'end of input'!r}", tok.offset)


def parse(source: str) -> Ast:
    """Parse an expression source string into its AST."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# analysis helpers
# ---------------------------------------------------------------------------


def axes(ast: Ast) -> set[int]:
    """The axes an expression references: k for x<k>, 0 for t."""
    if isinstance(ast, Var):
        return {ast.axis}
    if isinstance(ast, Num):
        return set()
    if isinstance(ast, BinOp):
        return axes(ast.left) | axes(ast.right)
    return axes(ast.base if isinstance(ast, Pow) else ast.arg)


def validate_dimension(ast: Ast, d: int) -> None:
    axis = max(axes(ast), default=0)
    if axis > d:
        raise ValueError(f"expression uses x{axis} but the problem dimension is {d}")


def depends_on_t(ast: Ast) -> bool:
    return 0 in axes(ast)


def is_zero(ast: Ast) -> bool:
    return isinstance(ast, Num) and ast.value == 0.0


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_many(ast: Ast, x: tuple, t: float, known: dict | None = None) -> np.ndarray:
    """Evaluate at a fixed time on a tuple of coordinate arrays.

    x[k - 1] holds the values of x<k>, and the arrays broadcast together.  The
    result has its own reduced shape: the ndim of that broadcast, with size 1
    along every axis that no referenced coordinate spans.  A constant is a
    (1, ..., 1) array, and cos(x1) has the size of x1's array, so an
    expression is computed only on the distinct values of the variables it
    references.  An (N, d) point array pts is passed as tuple(pts.T); a
    constant then comes back as a (1,) array, which broadcasts to (N,).

    Raises EvalError on division by zero, sqrt of a negative number, or a
    non-finite result; every check sees every distinct value.  known, from
    eval_free, holds subtrees already evaluated on coordinates that agree
    with x along the axes they reference; each is taken from it.
    """
    coords = tuple(np.asarray(c, dtype=float) for c in x)
    ndim = len(np.broadcast_shapes(*(c.shape for c in coords)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.asarray(_eval(ast, coords, float(t), known), dtype=float)
    out = out.reshape((1,) * (ndim - out.ndim) + out.shape)
    if not np.all(np.isfinite(out)):
        raise EvalError("expression evaluated to a non-finite value")
    return out


def eval_free(ast: Ast, x: tuple, t: float, axis: int) -> dict:
    """The values on the coordinate tuple x at time t of each maximal subtree
    of ast, other than a leaf, that does not reference x<axis>, keyed by the
    subtree's id, or the EvalError its evaluation raised.  eval_many(ast,
    slab, t, known) on slabs of x along that axis then computes those
    subtrees once, and gives slab by slab the values eval_many(ast, slab, t)
    gives: the same operations on the same values, and an EvalError raised
    where the evaluation reaches it."""
    free, stack = [], [ast]
    while stack:
        node = stack.pop()
        if isinstance(node, (Num, Var)):
            continue
        if axis not in axes(node):
            free.append(node)
        elif isinstance(node, BinOp):
            stack += [node.left, node.right]
        else:
            stack.append(node.base if isinstance(node, Pow) else node.arg)
    known: dict = {}
    if not free:
        return known
    coords = tuple(np.asarray(c, dtype=float) for c in x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for node in free:
            try:
                known[id(node)] = _eval(node, coords, float(t))
            except EvalError as exc:
                known[id(node)] = exc
    return known


def _finite(value):
    if not np.all(np.isfinite(value)):
        raise EvalError("non-finite intermediate value (overflow or domain error)")
    return value


def _eval(ast: Ast, x: tuple[np.ndarray, ...], t: float, known: dict | None = None):
    if known:
        value = known.get(id(ast))
        if isinstance(value, EvalError):
            raise value
        if value is not None:
            return value
    if isinstance(ast, Num):
        return np.float64(ast.value)
    if isinstance(ast, Var):
        if ast.axis == 0:
            return np.float64(t)
        if ast.axis > len(x):
            raise EvalError(f"variable {ast.name} out of range for {len(x)} dims")
        return x[ast.axis - 1]
    if isinstance(ast, Neg):
        return -_eval(ast.arg, x, t, known)
    if isinstance(ast, Call):
        arg = _eval(ast.arg, x, t, known)
        if ast.fn == "sin":
            return np.sin(arg)
        if ast.fn == "cos":
            return np.cos(arg)
        if ast.fn == "exp":
            return _finite(np.exp(arg))
        if ast.fn == "sqrt":
            if np.any(np.asarray(arg) < 0.0):
                raise EvalError("sqrt of a negative value")
            return np.sqrt(arg)
        raise EvalError(f"unknown function {ast.fn!r}")
    if isinstance(ast, Pow):
        base = _eval(ast.base, x, t, known)
        if ast.exponent < 0 and np.any(np.asarray(base) == 0.0):
            raise EvalError("zero raised to a negative power")
        return _finite(np.power(base, ast.exponent))
    if isinstance(ast, BinOp):
        left = _eval(ast.left, x, t, known)
        right = _eval(ast.right, x, t, known)
        if ast.op == "+":
            return _finite(left + right)
        if ast.op == "-":
            return _finite(left - right)
        if ast.op == "*":
            return _finite(left * right)
        if ast.op == "/":
            if np.any(np.asarray(right) == 0.0):
                raise EvalError("division by zero")
            return _finite(left / right)
    raise EvalError(f"cannot evaluate node {ast!r}")
