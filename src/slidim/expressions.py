"""Arithmetic expression parsing and compiled evaluation for vector fields.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-'? atom
    atom   := number | ident | func '(' expr ')' | '(' expr ')'

with ``func`` one of sin, cos, exp, log, sqrt, tanh and ``ident`` one of
x, y, z or a declared parameter.  Note that per this grammar unary minus
binds tighter than '^', so ``-x^2`` parses as ``(-x)^2``.

Each parsed expression is compiled once into a plain Python function whose
arithmetic goes through :mod:`slidim.dmath` dispatchers, so the same
compiled code evaluates floats, numpy batches and dual numbers.
"""

import re

import numpy as np

from . import dmath
from .errors import ExpressionSyntaxError, NonFinite, UnknownIdentifier

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")
VARIABLES = ("x", "y", "z")

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, params):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.params = params

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExpressionSyntaxError(f"expected {op!r}", off)
        return self.next()

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = ("bin", val, node, self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = ("bin", val, node, self.parse_factor())
            else:
                return node

    def parse_factor(self):
        node = self.parse_unary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            node = ("bin", "^", node, self.parse_factor())
        return node

    def parse_unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return ("neg", self.parse_atom())
        return self.parse_atom()

    def parse_atom(self):
        kind, val, off = self.next()
        if kind == "num":
            return ("num", float(val))
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return ("call", val, arg)
            if val in VARIABLES:
                return ("var", val)
            if val in self.params:
                return ("param", val)
            raise UnknownIdentifier(val, off)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def _codegen(node):
    kind = node[0]
    if kind == "num":
        return repr(node[1])
    if kind == "var":
        return node[1]
    if kind == "param":
        return "p_" + node[1]
    if kind == "neg":
        return f"(-{_codegen(node[1])})"
    if kind == "call":
        return f"_{node[1]}({_codegen(node[2])})"
    _, op, left, right = node
    if op == "^":
        return f"({_codegen(left)} ** {_codegen(right)})"
    return f"({_codegen(left)} {op} {_codegen(right)})"


_NAMESPACE = {f"_{name}": getattr(dmath, name) for name in FUNCTIONS}


def _compile(tree, params):
    args = ", ".join(f"p_{k}={float(v)!r}" for k, v in params.items())
    head = f"def _f(x, y, z, *, {args}):" if params else "def _f(x, y, z):"
    source = f"{head}\n    return {_codegen(tree)}\n"
    scope = dict(_NAMESPACE)
    exec(source, scope)  # noqa: S102 - code built from our own validated AST
    return scope["_f"]


class ScalarExpr:
    """One parsed scalar expression over (x, y, z) and named parameters."""

    def __init__(self, text, params=None):
        self.text = text
        self.params = dict(params or {})
        self.tree = _parse_tree(text, self.params)
        self.fn = _compile(self.tree, self.params)

    def with_params(self, **updates):
        unknown = set(updates) - set(self.params)
        if unknown:
            raise KeyError(f"undeclared parameters: {sorted(unknown)}")
        merged = {**self.params, **{k: float(v) for k, v in updates.items()}}
        return ScalarExpr(self.text, merged)

    def __call__(self, x, y, z):
        return self.fn(x, y, z)

    def eval_checked(self, x, y, z):
        w = self.fn(x, y, z)
        if not np.all(np.isfinite(dmath.value(w))):
            raise NonFinite(f"expression {self.text!r} evaluated to a non-finite value")
        return w

    def value_and_grad(self, x, y, z):
        """One dual pass: value and exact gradient of the parsed expression."""
        d = self.fn(dmath.Dual(x, (1.0, 0.0, 0.0)),
                    dmath.Dual(y, (0.0, 1.0, 0.0)),
                    dmath.Dual(z, (0.0, 0.0, 1.0)))
        if not isinstance(d, dmath.Dual):  # constant expression
            return d, (0.0, 0.0, 0.0)
        return d.val, d.partials


def _parse_tree(text, params):
    parser = _Parser(text, params)
    tree = parser.parse_expr()
    kind, val, off = parser.peek()
    if kind != "end":
        raise ExpressionSyntaxError(f"trailing input {val!r}", off)
    return tree


def _split_components(text):
    """Split a source string on top-level commas."""
    tokens = _tokenize(text)
    parts, depth, start = [], 0, 0
    for kind, val, off in tokens:
        if kind != "op":
            continue
        if val == "(":
            depth += 1
        elif val == ")":
            depth -= 1
        elif val == "," and depth == 0:
            parts.append(text[start:off])
            start = off + 1
    parts.append(text[start:])
    return parts


def parse_expr(text, params=None):
    """Parse a single scalar expression."""
    return ScalarExpr(text, params)


def parse_field(source, params=None):
    """Parse a three-component vector field.

    ``source`` is either one string with three top-level comma-separated
    component expressions, or a sequence of three component strings.
    """
    if isinstance(source, str):
        parts = _split_components(source)
    else:
        parts = list(source)
    if len(parts) != 3:
        raise ExpressionSyntaxError(
            f"a field needs exactly 3 components, got {len(parts)}", 0)
    return VectorFieldExpr([ScalarExpr(p, params) for p in parts])


def _stack3(values, like):
    out = np.empty(np.shape(like) + (3,))
    for k, v in enumerate(values):
        out[..., k] = v
    return out


class VectorFieldExpr:
    """A differentiable R^3 -> R^3 field defined by parsed expressions."""

    def __init__(self, components):
        if len(components) != 3:
            raise ValueError("need exactly 3 components")
        self.components = tuple(components)
        self.params = dict(components[0].params)

    def with_params(self, **updates):
        return VectorFieldExpr([c.with_params(**updates) for c in self.components])

    def __call__(self, u):
        """Evaluate at points ``u`` of shape (..., 3); returns (..., 3)."""
        u = np.asarray(u, dtype=float)
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        return _stack3([c(x, y, z) for c in self.components], x)

    def eval_components(self, x, y, z):
        """Raw component evaluation; accepts floats, arrays or duals."""
        return tuple(c(x, y, z) for c in self.components)


class SwitchingFunction:
    """Scalar switching function g with its dual-derived gradient."""

    def __init__(self, text_or_expr, params=None):
        if isinstance(text_or_expr, ScalarExpr):
            self.expr = text_or_expr
        else:
            self.expr = ScalarExpr(text_or_expr, params)

    @property
    def params(self):
        return self.expr.params

    def with_params(self, **updates):
        return SwitchingFunction(self.expr.with_params(**updates))

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        return np.asarray(self.expr(u[..., 0], u[..., 1], u[..., 2]), dtype=float)

    def value(self, x, y, z):
        return self.expr(x, y, z)

    def gradient(self, u):
        """Gradient at points ``u`` of shape (..., 3); returns (..., 3)."""
        u = np.asarray(u, dtype=float)
        _, grad = self.expr.value_and_grad(u[..., 0], u[..., 1], u[..., 2])
        return _stack3(grad, u[..., 0])

    def value_and_gradient(self, u):
        u = np.asarray(u, dtype=float)
        val, grad = self.expr.value_and_grad(u[..., 0], u[..., 1], u[..., 2])
        return np.asarray(val, dtype=float), _stack3(grad, u[..., 0])

    def check_regular(self, points, tol_manifold=1e-10, tol_regular=1e-8):
        """0 must be a regular value: |grad g| > tol where |g| is small."""
        val, grad = self.value_and_gradient(points)
        near = np.abs(val) < tol_manifold
        norms = np.linalg.norm(grad, axis=-1)
        return bool(np.all(norms[near] > tol_regular)) if np.any(near) else True
