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

Every evaluation is one kernel (:func:`_compile_stages`), generated once by
one code generator into a plain Python function over numpy ufuncs: it maps
the component rows of its variables, x, y, z or any others, to one (k, ...)
array of its k output trees, evaluating each repeated subtree once
(common-subexpression elimination).  A field is one kernel; a
:class:`SwitchingFunction` (g, Xg, ...) evaluates a scalar at points
(..., 3) by one kernel each for its value, its value with its gradient and
its Newton step onto its zero set.  Derivatives come from the parse tree
itself: :func:`_diff` differentiates a tree symbolically into another tree
of the same form (folding the constants 0 and 1).  Gradients, Lie
derivatives Fg = sum_i F_i dg/dx_i and second Lie derivatives F(Fg) are
all built this way, once per expression.
"""

import re
from collections import Counter
from functools import cached_property

import numpy as np

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
    """Recursive descent over the grammar above, one method per rule."""

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

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = ("bin", val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = ("bin", val, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.unary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            node = ("bin", "^", node, self.factor())
        return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return ("neg", self.atom())
        return self.atom()

    def atom(self):
        kind, val, off = self.next()
        if kind == "num":
            if not np.isfinite(float(val)):
                raise ExpressionSyntaxError(f"number {val} overflows a float", off)
            return ("num", float(val))
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", val, arg)
            if val in VARIABLES:
                return ("var", val)
            if val in self.params:
                return ("param", val)
            raise UnknownIdentifier(val, off)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def _codegen(trees, fixed):
    """Prelude statements, statements and value expressions for ``trees``: a
    subtree used more than once across them (trees are tuples, so equal
    subtrees hash alike) is assigned to a temporary on first use.

    Every subtree that uses no variable outside ``fixed``, a set of variable
    names (parameters are fixed too), goes to the prelude instead, assigned
    to a temporary of its own.
    """
    uses = Counter()

    def count(node):
        uses[node] += 1
        if uses[node] == 1:  # children of a repeated subtree are counted once
            for child in node[1:]:
                if isinstance(child, tuple):
                    count(child)

    for tree in trees:
        count(tree)
    prelude, lines, names = [], [], {}

    def emit(node, into):
        if node in names:
            return names[node]
        kind = node[0]
        if kind == "num":
            return repr(node[1])
        if kind in ("var", "param"):
            return node[1] if kind == "var" else "p_" + node[1]
        hoist = into is lines and _variables(node) <= fixed
        if hoist:
            into = prelude
        if kind == "neg":
            code = f"(-{emit(node[1], into)})"
        elif kind == "call":
            code = f"_{node[1]}({emit(node[2], into)})"
        else:
            _, op, left, right = node
            code = f"({emit(left, into)} {'**' if op == '^' else op} {emit(right, into)})"
        if uses[node] == 1 and not hoist:
            return code
        names[node] = f"_t{len(names)}"
        into.append(f"{names[node]} = {code}")
        return names[node]

    return prelude, lines, [emit(tree, lines) for tree in trees]


def _variables(node):
    """The names of the variables a tree uses."""
    if node[0] == "var":
        return {node[1]}
    return set().union(*(_variables(child) for child in node[1:] if isinstance(child, tuple)))


_NAMESPACE = {f"_{name}": getattr(np, name) for name in FUNCTIONS} | {"_empty": np.empty}

ZERO = ("num", 0.0)
ONE = ("num", 1.0)


def _add(a, b):
    if a == ZERO:
        return b
    return a if b == ZERO else ("bin", "+", a, b)


def _sub(a, b):
    if a[0] == "num" and b[0] == "num":
        return ("num", a[1] - b[1])
    if a == b:
        return ZERO
    if b == ZERO:
        return a
    return ("neg", b) if a == ZERO else ("bin", "-", a, b)


def _neg(a):
    return ZERO if a == ZERO else ("neg", a)


def _mul(a, b):
    if a == ZERO or b == ZERO:
        return ZERO
    if a == ONE:
        return b
    return a if b == ONE else ("bin", "*", a, b)


def _div(a, b):
    if a == ZERO:
        return ZERO
    return a if b == ONE else ("bin", "/", a, b)


# d f(a) / da for each builtin, as a tree in a
_CHAIN = {
    "sin": lambda a: ("call", "cos", a),
    "cos": lambda a: ("neg", ("call", "sin", a)),
    "exp": lambda a: ("call", "exp", a),
    "log": lambda a: ("bin", "/", ONE, a),
    "sqrt": lambda a: ("bin", "/", ("num", 0.5), ("call", "sqrt", a)),
    "tanh": lambda a: ("bin", "-", ONE,
                       ("bin", "*", ("call", "tanh", a), ("call", "tanh", a))),
}


def _diff(node, var):
    """d(node)/d(var) as a tree of the same form, constants 0 and 1 folded."""
    kind = node[0]
    if kind == "var":
        return ONE if node[1] == var else ZERO
    if kind in ("num", "param"):
        return ZERO
    if kind == "neg":
        return _neg(_diff(node[1], var))
    if kind == "call":
        return _mul(_CHAIN[node[1]](node[2]), _diff(node[2], var))
    _, op, a, b = node
    da, db = _diff(a, var), _diff(b, var)
    if op == "+":
        return _add(da, db)
    if op == "-":
        return _sub(da, db)
    if op == "*":
        return _add(_mul(da, b), _mul(a, db))
    if op == "/":
        return _div(_sub(da, _mul(node, db)), b)
    if db == ZERO:  # constant exponent: b a^(b-1) da
        return _mul(_mul(b, ("bin", "^", a, _sub(b, ONE))), da)
    # a^b (db log a + b da / a)
    return _mul(node, _add(_mul(db, ("call", "log", a)), _mul(b, _div(da, a))))


def _params_args(params):
    return ["*", *(f"p_{k}={float(v)!r}" for k, v in params.items())] if params else []


def _exec(source):
    scope = dict(_NAMESPACE)
    exec(source, scope)  # noqa: S102 - code built from our own validated AST
    scope["_f"].source = source
    return scope["_f"]


def _compile_stages(trees, variables, varying, params):
    """The kernel of the output ``trees`` over ``variables``.

    Called with the component rows (m, N) of a start state, it returns
    ``stage(v)``: the k outputs, as one fresh (k, N) array, at a state
    ``v`` of the components ``varying`` of the variables, those that change
    along the flow (for an integration step, ``v`` is a stage state).  The
    others keep their start values and are not part of ``v``; every subtree
    that uses only them and parameters is evaluated once per start state,
    in the prelude.  With every component varying no start values are
    read, and the kernel is built with ``None``.
    """
    fixed = set(variables) - {variables[k] for k in varying}
    prelude, lines, values = _codegen(trees, fixed)
    reads = [f"{name} = _u[{j}]" for j, name in enumerate(variables) if name in fixed]
    body = [f"[{', '.join(variables[k] for k in varying)}] = _v", *lines,
            f"_o = _empty(({len(values)}, *_v.shape[1:]))",
            *(f"_o[{i}] = {v}" for i, v in enumerate(values)), "return _o"]
    source = "\n    ".join([f"def _f({', '.join(['_u', *_params_args(params)])}):",
                            *reads, *prelude, "def _stage(_v):",
                            *("    " + line for line in body), "return _stage"]) + "\n"
    return _exec(source)


def _as_variables(node, names):
    """``node`` with the parameters ``names`` read as variables."""
    if node[0] == "param":
        return ("var", node[1]) if node[1] in names else node
    return tuple(_as_variables(c, names) if isinstance(c, tuple) else c for c in node)


class ScalarExpr:
    """One scalar expression over (x, y, z) and named parameters, the record
    (text, params, tree) that fields are built from: parsed from ``text``,
    or given an already parsed (or derived) ``tree``."""

    def __init__(self, text, params=None, tree=None):
        self.text = text
        self.params = dict(params or {})
        for name, value in self.params.items():
            if not np.isfinite(value):
                raise NonFinite(f"parameter {name} = {value} is not finite")
        self.tree = _parse_tree(text, self.params) if tree is None else tree
        self._derivatives = {}

    def diff(self, var):
        """The partial derivative along ``var``, of this type, built once."""
        d = self._derivatives.get(var)
        if d is None:
            d = type(self)(f"d({self.text})/d{var}", self.params, _diff(self.tree, var))
            self._derivatives[var] = d
        return d


class SwitchingFunction(ScalarExpr):
    """A scalar of the state evaluated at points (..., 3): the switching
    function g and its Lie derivatives such as Xg.

    Each evaluation is one compiled kernel, built on first use.  Values
    come back with the row shape of the points, also where the expression
    folded to a constant.
    """

    def __call__(self, u):
        return self._value(np.asarray(u, dtype=float).T)[0].T

    def value_and_gradient(self, u):
        """Values (...,) and gradients (..., 3) at points ``u`` of shape (..., 3)."""
        out = self._value_and_gradient(np.asarray(u, dtype=float).T)
        return out[0].T, out[1:].T

    @cached_property
    def _value(self):
        return _compile_stages([self.tree], VARIABLES, range(3), self.params)(None)

    @cached_property
    def _value_and_gradient(self):
        trees = [self.tree, *(self.diff(v).tree for v in VARIABLES)]
        return _compile_stages(trees, VARIABLES, range(3), self.params)(None)

    @cached_property
    def newton_step(self):
        """One Newton step toward g = 0 along grad g, compiled once: it maps
        points v (3, ...) to x_i - g / sum_j (dg/dx_j)^2 * dg/dx_i as one
        fresh (3, ...) array, with the constants 0 and 1 folded (for g = z
        it is (x, y, 0))."""
        grad = [self.diff(v).tree for v in VARIABLES]
        norm2 = ZERO
        for d in grad:
            norm2 = _add(norm2, _mul(d, d))
        ratio = _div(self.tree, norm2)
        trees = [_sub(("var", v), _mul(ratio, d)) for v, d in zip(VARIABLES, grad)]
        return _compile_stages(trees, VARIABLES, range(3), self.params)(None)


def _parse_tree(text, params):
    parser = _Parser(text, params)
    tree = parser.expr()
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


def parse_field(source, params=None):
    """Parse a three-component vector field: ``source`` is one string with
    three top-level comma-separated component expressions."""
    parts = _split_components(source)
    if len(parts) != 3:
        raise ExpressionSyntaxError(
            f"a field needs exactly 3 components, got {len(parts)}", 0)
    return VectorFieldExpr([ScalarExpr(p, params) for p in parts], VARIABLES)


class VectorFieldExpr:
    """A differentiable field defined by parsed expressions, one component
    per variable of ``variables`` (x, y, z for a system's fields)."""

    def __init__(self, components, variables):
        if len(components) != len(variables):
            raise ValueError("need one component per variable")
        self.components = tuple(components)
        self.variables = tuple(variables)
        self.params = dict(components[0].params)
        # the components that change along the flow; a field component
        # folded to the constant 0 keeps its start value
        self.varying = tuple(k for k, c in enumerate(self.components) if c.tree != ZERO)

    def __call__(self, u):
        """Evaluate at points ``u`` of shape (..., m); returns (..., m), 0 on
        the constant components: the stage kernel at the points themselves."""
        ut = np.asarray(u, dtype=float).T
        rows = list(self.varying)
        out = np.zeros(ut.shape)
        out[rows] = self.stages(ut)(ut[rows])
        return out.T

    @cached_property
    def stages(self):
        """The stage kernel of one integration step (``_compile_stages``):
        called with the component rows at the start of the step."""
        return _compile_stages([self.components[k].tree for k in self.varying],
                               self.variables, self.varying, self.params)

    def with_constants(self, names):
        """This field with the parameters ``names`` read as further state
        components whose field is 0: each trajectory carries its own
        constant values of them (the bench shooting flies (x, y, z, u1, u2))."""
        params = {k: v for k, v in self.params.items() if k not in names}
        components = [ScalarExpr(c.text, params, _as_variables(c.tree, names))
                      for c in self.components]
        components += [ScalarExpr("0", params, ZERO) for _ in names]
        return VectorFieldExpr(components, self.variables + tuple(names))

    def lie(self, expr):
        """The Lie derivative sum_i F_i d(expr)/dx_i as a switching function."""
        tree = ZERO
        for comp, var in zip(self.components, self.variables):
            tree = _add(tree, _mul(comp.tree, expr.diff(var).tree))
        return SwitchingFunction(f"L({expr.text})", {**self.params, **expr.params}, tree)

