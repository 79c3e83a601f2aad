"""Parser and evaluator for hybrid multiset/algebraic signal expressions.

The language mixes ordinary arithmetic with the set-style signal operators,
spelled in ASCII: union ``\\/``, intersection ``/\\``, postfix complement
``~``, and the common product ``<>``. Precedence from loosest to tightest:

    \\/  <  /\\  <  + -  <  * <>  <  unary -  <  postfix ~  <  call/parens

with every binary operator left-associative, so ``a \\/ b /\\ c`` reads as
``a \\/ (b /\\ c)``. The function names sin, cos, abs, and sign are
reserved only in call position; anywhere else they are ordinary variables.

Grammar (EBNF):

    expr    := union ;            union  := inter ( "\\/" inter )* ;
    inter   := addsub ( "/\\" addsub )* ;  addsub := term ( ("+"|"-") term )* ;
    term    := unary ( ("*"|"<>") unary )* ;
    unary   := "-" unary | postfix ;      postfix := atom ( "~" )* ;
    atom    := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")" ;

``parse`` builds an AST, ``evaluate`` runs it elementwise over an
Environment of equally shaped signals, and ``pretty_print`` emits a fully
parenthesized canonical form with the round-trip guarantee
parse(pretty_print(a)) == a for every AST that ``parse`` returns. None of
them recurses, so neither long input nor a deep tree can exhaust the
interpreter stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from . import ops
from .errors import BadParam, DepthExceeded, ExprSyntaxError, UnboundVariable, finite
from .signal import Signal, _real, check_same_shape

MAX_DEPTH = 256


def _lift(fn):
    """An elementwise numpy function applied to Signal operands."""
    return lambda first, *rest: first.with_samples(fn(first.samples, *(r.samples for r in rest)))


_PREFIX, _POSTFIX, _CALL = 5, 6, 7

# name -> (symbol, precedence, function). Precedence 1-4 are the binary,
# left-associative levels from loosest to tightest; then come prefix minus,
# postfix ~ and calls, whose symbol is the function name.
OPERATORS = {
    "add": ("+", 3, _lift(np.add)),
    "sub": ("-", 3, _lift(np.subtract)),
    "mul": ("*", 4, _lift(np.multiply)),
    "intersect": ("/\\", 2, ops.intersection),
    "union": ("\\/", 1, ops.union),
    "cprod": ("<>", 4, ops.common_product),
    "neg": ("-", _PREFIX, _lift(np.negative)),
    "complement": ("~", _POSTFIX, ops.complement),
    "sin": ("sin", _CALL, _lift(np.sin)),
    "cos": ("cos", _CALL, _lift(np.cos)),
    "abs": ("abs", _CALL, ops.absolute),
    "sign": ("sign", _CALL, _lift(ops._signs)),
}
BINARY_OPS = tuple(name for name, (_, prec, _) in OPERATORS.items() if prec < _PREFIX)
UNARY_OPS = tuple(name for name, (_, prec, _) in OPERATORS.items() if prec in (_PREFIX, _POSTFIX))
CALL_NAMES = tuple(name for name, (_, prec, _) in OPERATORS.items() if prec == _CALL)
_BINARY_BY_SYMBOL = {OPERATORS[name][0]: name for name in BINARY_OPS}
_LAYOUT = {_PREFIX: "{s}{0}", _POSTFIX: "({0}){s}", _CALL: "{s}({0})"}


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", self.name):
            raise BadParam(f"bad variable name {self.name!r}")


@dataclass(frozen=True)
class Const:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", finite(_real(self.value), "constant"))


@dataclass(frozen=True)
class Unary:
    op: str
    child: "Expr"

    def __post_init__(self):
        if not isinstance(self.op, str) or self.op not in UNARY_OPS:
            raise BadParam(f"bad unary op {self.op!r}")


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self):
        if not isinstance(self.op, str) or self.op not in BINARY_OPS:
            raise BadParam(f"bad binary op {self.op!r}")


@dataclass(frozen=True)
class Call:
    fn: str
    child: "Expr"

    def __post_init__(self):
        if not isinstance(self.fn, str) or self.fn not in CALL_NAMES:
            raise BadParam(f"bad function {self.fn!r}")


Expr = Union[Var, Const, Unary, Binary, Call]


class Environment:
    """Named signal bindings sharing one length/dt/t0 grid."""

    def __init__(self, bindings: Mapping[str, Signal]):
        if not isinstance(bindings, Mapping):
            raise BadParam("bindings must be a mapping of names to signals")
        items = dict(bindings)
        for name, sig in items.items():
            if not isinstance(sig, Signal):
                raise BadParam(f"binding {name!r} is not a Signal")
        if items:
            check_same_shape(*items.values())
        self._bindings = items

    def lookup(self, name: str) -> Signal:
        try:
            return self._bindings[name]
        except KeyError:
            raise UnboundVariable(name) from None

    def prototype(self) -> Signal:
        if not self._bindings:
            raise BadParam("environment is empty")
        return next(iter(self._bindings.values()))


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>\\/|/\\|<>|[-+*~()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "number":
            tokens.append(("number", m.group(), pos))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _node(cls, op: str, *kids):
    """Build an AST node from (node, height) children; return (node, height)."""
    return cls(op, *(k for k, _ in kids)), 1 + max(h for _, h in kids)


def parse(text: str) -> Expr:
    """Parse expression text into an AST.

    Raises ExprSyntaxError (carrying the character offset) on malformed
    input and DepthExceeded when brackets, calls and unary minus nest more
    than 256 levels deep or the tree would be more than 256 nodes high.
    """
    tokens = _tokenize(text)
    pos = 0
    done = []  # finished operands as (node, height)
    pending = []  # binary op names, "neg", and None where a group opens
    groups = [""]  # open groups, innermost last: "" top level, "(" or a call name
    depth = 1  # open groups plus pending minus signs

    def fail(expected: str):
        kind, tok, offset = tokens[pos]
        got = "end of input" if kind == "end" else repr(tok)
        raise ExprSyntaxError(f"expected {expected}, got {got}", offset)

    while True:
        # An operand: prefix minus signs, then an atom or the opening of a group.
        kind, tok, offset = tokens[pos]
        if kind == "-" or kind == "(" or (kind == "ident" and tokens[pos + 1][0] == "("):
            if kind == "ident":
                if tok not in CALL_NAMES:
                    raise ExprSyntaxError(
                        f"unknown function {tok!r} (expected one of {', '.join(CALL_NAMES)})",
                        offset,
                    )
                pos += 1
            pos += 1
            pending.append("neg" if kind == "-" else None)
            if kind != "-":
                groups.append(tok)
            depth += 1
            if depth > MAX_DEPTH:
                raise DepthExceeded(f"expression nesting exceeds {MAX_DEPTH}")
            continue
        if kind == "number":
            done.append((Const(float(tok)), 1))
        elif kind == "ident":
            done.append((Var(tok), 1))
        else:
            fail("a number, a name, or '('")
        pos += 1
        # After an atom: postfix ~, pending minus signs, then either a binary
        # operator or the end of the innermost group, which is itself an atom.
        while True:
            while tokens[pos][0] == "~":
                pos += 1
                done.append(_node(Unary, "complement", done.pop()))
            while pending and pending[-1] == "neg":
                pending.pop()
                depth -= 1
                done.append(_node(Unary, "neg", done.pop()))
            kind = tokens[pos][0]
            name = _BINARY_BY_SYMBOL.get(kind)
            prec = OPERATORS[name][1] if name else 0
            while pending and pending[-1] is not None and OPERATORS[pending[-1]][1] >= prec:
                right = done.pop()
                done.append(_node(Binary, pending.pop(), done.pop(), right))
            if name:
                pending.append(name)
                pos += 1
                break
            group = groups.pop()
            if not group:
                if kind != "end":
                    fail("end of input")
                ast, height = done[0]
                if height > MAX_DEPTH:
                    raise DepthExceeded(f"expression tree is higher than {MAX_DEPTH}")
                return ast
            if kind != ")":
                fail("')'")
            pos += 1
            pending.pop()
            depth -= 1
            if group != "(":
                done.append(_node(Call, group, done.pop()))


def _fold(ast: Expr, visit):
    """Post-order fold with an explicit stack: visit(node, child results)."""
    results = []
    stack = [(ast, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Binary):
            op, kids = node.op, (node.left, node.right)
        elif isinstance(node, Unary):
            op, kids = node.op, (node.child,)
        elif isinstance(node, Call):
            op, kids = node.fn, (node.child,)
        else:
            op, kids = None, ()
        if kids and not expanded:
            stack.append((node, True))
            stack.extend((kid, False) for kid in reversed(kids))
            continue
        args = results[len(results) - len(kids):]
        del results[len(results) - len(kids):]
        results.append(visit(node, op, args))
    return results[0]


def evaluate(ast: Expr, env: Environment) -> Signal:
    """Evaluate an AST elementwise over the environment's signals.

    Constants broadcast to the environment's common grid, which is also why
    a constant-only expression still needs a nonempty environment.
    """

    def visit(node, op, args):
        if isinstance(node, Var):
            return env.lookup(node.name)
        if isinstance(node, Const):
            proto = env.prototype()
            return proto.with_samples(np.full(len(proto), node.value))
        return OPERATORS[op][2](*args)

    with np.errstate(all="ignore"):  # an overflowed value fails the Signal's finite check
        return _fold(ast, visit)


def pretty_print(ast: Expr) -> str:
    """Fully parenthesized canonical rendering; parses back to the same AST.

    Each node adds one level of nesting, so the text nests exactly as deep as
    the tree is high.
    """

    def visit(node, op, args):
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Const):
            return repr(node.value)
        symbol, prec, _ = OPERATORS[op]
        return _LAYOUT.get(prec, "({0} {s} {1})").format(*args, s=symbol)

    return _fold(ast, visit)
