"""Closed-form scalar fields on a coordinate chart, with exact differentiation.

Expressions are immutable trees built from constants, chart variables, sums,
products, quotients, real powers, exp, log, sqrt and negation.  Nodes are
hash-consed (structurally identical subtrees are the same object), which keeps
repeated differentiation from blowing up.  Evaluation goes through a Tape: the
shared DAG of one or more roots recorded once as a straight-line program, then
replayed over a whole batch of points at once.  Everything downstream
(metrics, connections, curvature) bottoms out in these trees, so
differentiation here is exact symbolic rewriting, never a finite-difference
scheme.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np


class Chart:
    """Coordinate chart on R^{2m} with coordinates ordered x1, y1, ..., xm, ym."""

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("complex dimension must be at least 2")
        self.m = m
        self.n = 2 * m
        names = []
        for k in range(1, m + 1):
            names.append(f"x{k}")
            names.append(f"y{k}")
        self.names = tuple(names)
        self._index = {name: i for i, name in enumerate(names)}

    def index_of(self, name: str) -> int:
        return self._index[name]

    def __repr__(self):
        return f"Chart(m={self.m})"


class EvaluationDomainError(ArithmeticError):
    """A sub-expression left its domain (log/sqrt of a negative, division by zero).

    Carries the offending node so callers probing near-singular points can
    recover and report instead of aborting.
    """

    def __init__(self, node, message):
        super().__init__(message)
        self.node = node


# Hash-consing table: (class name, payload) -> node.  Nodes are immutable, so
# sharing is safe; identity then doubles as structural equality.
_INTERN: dict = {}


def _intern(key, build):
    node = _INTERN.get(key)
    if node is None:
        node = build()
        _INTERN[key] = node
    return node


class ScalarExpr:
    """Base class for expression nodes."""

    __slots__ = ("_diff_cache",)

    def __init__(self):
        self._diff_cache = {}

    # -- operator sugar so geometric code can assemble fields naturally --
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, exponent):
        return pow_(self, float(exponent))

    def __neg__(self):
        return neg(self)

    def diff(self, var: int) -> "ScalarExpr":
        d = self._diff_cache.get(var)
        if d is None:
            d = self._diff(var)
            self._diff_cache[var] = d
        return d

    def eval(self, x) -> float:
        return evaluate(self, x)

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return f"<expr {to_text(self)}>"


class Const(ScalarExpr):
    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        self.value = value

    def _diff(self, var):
        return const(0.0)


class Var(ScalarExpr):
    __slots__ = ("index", "name")

    def __init__(self, index, name):
        super().__init__()
        self.index = index
        self.name = name

    def _diff(self, var):
        return const(1.0 if var == self.index else 0.0)


class Add(ScalarExpr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        super().__init__()
        self.a = a
        self.b = b

    def _diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))


class Mul(ScalarExpr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        super().__init__()
        self.a = a
        self.b = b

    def _diff(self, var):
        return add(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))


class Div(ScalarExpr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        super().__init__()
        self.a = a
        self.b = b

    def _diff(self, var):
        num = add(mul(self.a.diff(var), self.b), neg(mul(self.a, self.b.diff(var))))
        return div(num, mul(self.b, self.b))


class Pow(ScalarExpr):
    """base ** p with a real constant exponent."""

    __slots__ = ("a", "p")

    def __init__(self, a, p):
        super().__init__()
        self.a = a
        self.p = p

    def _diff(self, var):
        return mul(mul(const(self.p), pow_(self.a, self.p - 1.0)), self.a.diff(var))


class Neg(ScalarExpr):
    __slots__ = ("a",)

    def __init__(self, a):
        super().__init__()
        self.a = a

    def _diff(self, var):
        return neg(self.a.diff(var))


class Exp(ScalarExpr):
    __slots__ = ("a",)

    def __init__(self, a):
        super().__init__()
        self.a = a

    def _diff(self, var):
        return mul(self, self.a.diff(var))


class Log(ScalarExpr):
    __slots__ = ("a",)

    def __init__(self, a):
        super().__init__()
        self.a = a

    def _diff(self, var):
        return div(self.a.diff(var), self.a)


class Sqrt(ScalarExpr):
    __slots__ = ("a",)

    def __init__(self, a):
        super().__init__()
        self.a = a

    def _diff(self, var):
        return div(self.a.diff(var), mul(const(2.0), self))


def _coerce(v):
    if isinstance(v, ScalarExpr):
        return v
    return const(float(v))


# -- smart constructors: constant folding and unit/zero elimination only ------

def const(value: float) -> Const:
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return _intern(("c", value), lambda: Const(value))


def var(chart: Chart, index: int) -> Var:
    if not 0 <= index < chart.n:
        raise ValueError(f"variable index {index} out of range for n={chart.n}")
    name = chart.names[index]
    return _intern(("v", index, name), lambda: Var(index, name))


def _is_const(e, v=None):
    return isinstance(e, Const) and (v is None or e.value == v)


def add(a, b):
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return _intern(("+", id(a), id(b)), lambda: Add(a, b))


def neg(a):
    if _is_const(a):
        return const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return _intern(("n", id(a)), lambda: Neg(a))


def mul(a, b):
    if _is_const(a) and _is_const(b):
        return const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return neg(b)
    if _is_const(b, -1.0):
        return neg(a)
    return _intern(("*", id(a), id(b)), lambda: Mul(a, b))


def div(a, b):
    if _is_const(b):
        if b.value == 0.0:
            raise ZeroDivisionError("division by constant zero in expression")
        return mul(a, const(1.0 / b.value))
    # 0/b is not folded, so a domain error at b == 0 is still reported
    return _intern(("/", id(a), id(b)), lambda: Div(a, b))


def pow_(a, p: float):
    p = float(p)
    if p == 0.0:
        return const(1.0)
    if p == 1.0:
        return a
    if _is_const(a):
        if a.value == 0.0 and p < 0.0:
            raise EvaluationDomainError(a, "zero raised to a negative power")
        if a.value < 0.0 and p != int(p):
            raise EvaluationDomainError(a, "negative base with non-integer exponent")
        try:
            return const(a.value ** p)
        except OverflowError:
            raise EvaluationDomainError(a, "power overflow") from None
    return _intern(("^", id(a), p), lambda: Pow(a, p))


def exp(a):
    a = _coerce(a)
    if _is_const(a):
        if a.value > 709.0:
            raise EvaluationDomainError(a, "exp overflow")
        return const(math.exp(a.value))
    return _intern(("exp", id(a)), lambda: Exp(a))


def log(a):
    a = _coerce(a)
    if _is_const(a):
        if a.value <= 0.0:
            raise EvaluationDomainError(a, f"log of non-positive constant {a.value}")
        return const(math.log(a.value))
    return _intern(("log", id(a)), lambda: Log(a))


def sqrt(a):
    a = _coerce(a)
    if _is_const(a):
        if a.value < 0.0:
            raise EvaluationDomainError(a, f"sqrt of negative constant {a.value}")
        return const(math.sqrt(a.value))
    return _intern(("sqrt", id(a)), lambda: Sqrt(a))


def differentiate(e: ScalarExpr, var_index: int) -> ScalarExpr:
    """Exact partial derivative with respect to chart coordinate `var_index`."""
    return e.diff(var_index)


# -- compiled evaluation -------------------------------------------------------

_ADD, _MUL, _NEG, _DIV, _POW, _EXP, _LOG, _SQRT, _CONST, _VAR = range(10)
_OPCODE = {Add: _ADD, Mul: _MUL, Neg: _NEG, Div: _DIV, Pow: _POW, Exp: _EXP,
           Log: _LOG, Sqrt: _SQRT}


class Tape:
    """Straight-line program that computes a list of expression roots.

    Instruction i = (op, d, a, b) computes the value of node i into register
    d from the registers a and b (a power keeps its exponent in b, a constant
    its value, a variable its coordinate index in a).  The instructions are
    in the order a memoized post-order walk over the roots visits the nodes,
    shared subtrees once, so each node costs the same float operation on the
    same operands, and the first node to leave its domain is the one the walk
    would meet first.  A register is reused as soon as the last instruction
    reading its value has run, so a replay over a batch of points holds only
    the values still needed.
    """

    __slots__ = ("code", "nodes", "outputs", "registers")

    def __init__(self, code, nodes, outputs, registers):
        self.code = code
        self.nodes = nodes          # nodes[i] is the node instruction i computes
        self.outputs = outputs      # register of each root
        self.registers = registers


def compile_tape(roots) -> Tape:
    """Record the evaluation of `roots` as one Tape."""
    slot = {}
    code = []
    nodes = []
    for root in roots:
        stack = [root]
        while stack:
            node = stack[-1]
            key = id(node)
            if key in slot:
                stack.pop()
                continue
            cls = type(node)
            if cls is Const:
                instr = (_CONST, 0, node.value)
            elif cls is Var:
                instr = (_VAR, node.index, 0)
            elif cls is Add or cls is Mul or cls is Div:
                a = slot.get(id(node.a))
                b = slot.get(id(node.b))
                if a is None or b is None:
                    if a is None:
                        stack.append(node.a)
                    if b is None:
                        stack.append(node.b)
                    continue
                instr = (_OPCODE[cls], a, b)
            else:
                a = slot.get(id(node.a))
                if a is None:
                    stack.append(node.a)
                    continue
                instr = (_OPCODE[cls], a, node.p if cls is Pow else 0)
            stack.pop()
            slot[key] = len(code)
            code.append(instr)
            nodes.append(node)
    outputs = [slot[id(r)] for r in roots]
    return _allocate_registers(code, nodes, outputs)


def _allocate_registers(code, nodes, outputs):
    """Map the value of every instruction to a register, reusing the
    register of a value after the last instruction that reads it; roots
    keep theirs to the end."""
    size = len(code)
    last = [0] * size
    for i, (op, a, b) in enumerate(code):
        if op < _CONST:
            last[a] = i
            if op == _ADD or op == _MUL or op == _DIV:
                last[b] = i
    for s in outputs:
        last[s] = size
    reg = [0] * size
    free = []
    count = 0
    allocated = []
    for i, (op, a, b) in enumerate(code):
        if op < _CONST:
            ra = reg[a]
            if last[a] == i:
                free.append(ra)
            if op == _ADD or op == _MUL or op == _DIV:
                rb = reg[b]
                if last[b] == i and b != a:
                    free.append(rb)
                b = rb
            a = ra
        if free:
            d = free.pop()
        else:
            d = count
            count += 1
        reg[i] = d
        allocated.append((op, d, a, b))
    return Tape(allocated, nodes, [reg[s] for s in outputs], count)


def _libm(fn, column):
    """fn from the math module on every element of a column: the platform's
    libm gives each point of a batch the bits it gets alone, which numpy's
    vectorized exp, log and power do not."""
    return np.array([fn(v) for v in column.tolist()])


def _power(column, p, node):
    try:
        return np.array([v ** p for v in column.tolist()])
    except OverflowError:
        raise EvaluationDomainError(node, "power overflow") from None


def _first(column, mask):
    return float(column[mask.argmax()])


def evaluate(e, x):
    """Evaluate at a point (shape (n,)) or at a batch of points (shape
    (B, n)).  An expression gives its value at a point and a (B,) array on a
    batch; a Tape gives the list of its root values at a point and a
    (B, roots) array on a batch.  One linear pass over the tape, every
    instruction on the (B,) column of its node's values, with every domain
    check of that node: the first node outside its domain at any point
    raises, with the value at the first such point."""
    if not isinstance(e, Tape):
        values = evaluate(compile_tape([e]), x)
        return values[0] if isinstance(values, list) else values[:, 0]
    x = np.asarray(x, dtype=float)
    cols = np.ascontiguousarray(np.atleast_2d(x).T)
    v = [None] * e.registers
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (op, d, a, b) in enumerate(e.code):
            if op == _ADD:
                v[d] = v[a] + v[b]
            elif op == _MUL:
                v[d] = v[a] * v[b]
            elif op == _NEG:
                v[d] = -v[a]
            elif op == _CONST:
                v[d] = b
            elif op == _VAR:
                v[d] = cols[a]
            elif op == _DIV:
                den = v[b]
                if (den == 0.0).any():
                    raise EvaluationDomainError(e.nodes[i], "division by zero")
                v[d] = v[a] / den
            elif op == _POW:
                val = v[a]
                if b < 0.0 and (val == 0.0).any():
                    raise EvaluationDomainError(e.nodes[i],
                                                "zero raised to a negative power")
                if b != int(b) and (val < 0.0).any():
                    raise EvaluationDomainError(e.nodes[i],
                                                "negative base with non-integer exponent")
                v[d] = _power(val, b, e.nodes[i])
            elif op == _EXP:
                val = v[a]
                if (val > 709.0).any():
                    raise EvaluationDomainError(e.nodes[i], "exp overflow")
                v[d] = _libm(math.exp, val)
            elif op == _LOG:
                val = v[a]
                bad = val <= 0.0
                if bad.any():
                    raise EvaluationDomainError(
                        e.nodes[i], f"log of non-positive value {_first(val, bad)}")
                v[d] = _libm(math.log, val)
            else:
                val = v[a]
                bad = val < 0.0
                if bad.any():
                    raise EvaluationDomainError(
                        e.nodes[i], f"sqrt of negative value {_first(val, bad)}")
                v[d] = np.sqrt(val)
    out = np.empty((cols.shape[1], len(e.outputs)))
    for j, r in enumerate(e.outputs):
        out[:, j] = v[r]
    return out[0].tolist() if x.ndim == 1 else out


def derivative_trees(e: ScalarExpr, multi_index) -> ScalarExpr:
    """Tree for the mixed partial along a sorted multi-index (cached per node)."""
    tree = e
    for i in multi_index:
        tree = tree.diff(i)
    return tree


def symmetric_index(n: int, order: int):
    """Integer array of shape (n,)*order giving, for every multi-index, the
    position of its sorted form among combinations_with_replacement(range(n),
    order).  Gathering one value per sorted multi-index through it fills a
    symmetric derivative array with bitwise exact symmetry."""
    rank = {idx: i for i, idx in
            enumerate(itertools.combinations_with_replacement(range(n), order))}
    out = np.empty((n,) * order, dtype=np.intp)
    for idx in np.ndindex(out.shape):
        out[idx] = rank[tuple(sorted(idx))]
    return out


def derivative_tensor(e: ScalarExpr, x, order: int, n: int = None):
    """All mixed partials of a given order at x, as a symmetric array."""
    if n is None:
        n = len(x)
    trees = [derivative_trees(e, idx)
             for idx in itertools.combinations_with_replacement(range(n), order)]
    values = np.array(evaluate(compile_tape(trees), x))
    return np.asarray(values[symmetric_index(n, order)])


# -- parsing -------------------------------------------------------------------
#
# expr   := ('-')? term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*
# factor := base ('^' real)?
# base   := real | ident | '(' expr ')' | func '(' expr ')'
# func   := 'exp' | 'log' | 'sqrt'

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCS = {"exp": exp, "log": log, "sqrt": sqrt}


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text, names):
        self.text = text
        self.names = names
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise ParseError(f"unexpected character {stripped[0]!r}", pos)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected trailing token {val!r}", pos)
        return e

    def expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val == "-":
            self.next()
            negate = True
        e = self.term()
        if negate:
            e = neg(e)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = add(e, rhs if val == "+" else neg(rhs))
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                e = mul(e, rhs) if val == "*" else div(e, rhs)
            else:
                return e

    def factor(self):
        e = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            e = pow_(e, self.exponent())
        return e

    def exponent(self):
        kind, val, pos = self.next()
        sign = 1.0
        if kind == "op" and val == "-":
            sign = -1.0
            kind, val, pos = self.next()
        if kind != "num":
            raise ParseError("malformed exponent: expected a real literal", pos)
        return sign * float(val)

    def base(self):
        kind, val, pos = self.next()
        if kind == "num":
            return const(float(val))
        if kind == "ident":
            if val in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return _FUNCS[val](arg)
            if val in self.names:
                return _intern(("v", self.names.index(val), val),
                               lambda: Var(self.names.index(val), val))
            raise ParseError(f"unknown variable {val!r}", pos)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "op" and val == "-":
            return neg(self.base())
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def parse_expression(text: str, chart) -> ScalarExpr:
    """Parse an expression over the chart coordinates (or any name container
    exposing `.names`)."""
    names = list(chart.names)
    return _Parser(text, names).parse()


# -- printing ------------------------------------------------------------------

_PREC = {Add: 1, Neg: 1, Mul: 2, Div: 2, Pow: 3, Const: 9, Var: 9, Exp: 9, Log: 9, Sqrt: 9}


def _wrap(child_text, child, parent_prec):
    if _PREC[type(child)] < parent_prec:
        return f"({child_text})"
    return child_text


def to_text(e: ScalarExpr) -> str:
    """Pretty-print; output re-parses to an identically-evaluating expression."""
    cls = type(e)
    if cls is Const:
        v = e.value
        if v < 0:
            return f"(0 - {_fmt_num(-v)})"
        return _fmt_num(v)
    if cls is Var:
        return e.name
    if cls is Add:
        # right operands of the same precedence get parentheses so the
        # reparsed tree reassociates identically (bitwise round-trip)
        left = _wrap(to_text(e.a), e.a, 1)
        if isinstance(e.b, Neg):
            return f"{left} - {_wrap(to_text(e.b.a), e.b.a, 2)}"
        return f"{left} + {_wrap(to_text(e.b), e.b, 2)}"
    if cls is Neg:
        return f"-{_wrap(to_text(e.a), e.a, 2)}"
    if cls is Mul:
        return f"{_wrap(to_text(e.a), e.a, 2)}*{_wrap(to_text(e.b), e.b, 3)}"
    if cls is Div:
        return f"{_wrap(to_text(e.a), e.a, 2)}/{_wrap(to_text(e.b), e.b, 3)}"
    if cls is Pow:
        return f"{_wrap(to_text(e.a), e.a, 9)}^{_fmt_num(e.p)}"
    if cls is Exp:
        return f"exp({to_text(e.a)})"
    if cls is Log:
        return f"log({to_text(e.a)})"
    if cls is Sqrt:
        return f"sqrt({to_text(e.a)})"
    raise TypeError(cls)


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)
