"""Truncated derivative arrays ("jets") and exact calculus on them.

A Jet holds the value and all partial-derivative arrays of a tensor-valued
quantity up to a fixed order, at one point or at a whole batch of points:
terms[k] has the batch axes (none for a single point), then the component
shape, then k symmetric derivative axes.  Every function here works on the
trailing axes only, so one code path serves a point and a batch, and a jet
without batch axes (a constant) broadcasts against a batched one.  Products,
contractions, matrix inverses, determinants and smooth scalar functions are
propagated through exact Leibniz / Faa di Bruno recursions, so the only
error anywhere is float rounding.  This is what lets curvature, Schouten and
splitting-operator chains reach fourth and fifth derivatives of a defining
function without symbolic blowup or finite-difference noise.
"""

from __future__ import annotations

import functools
import itertools
import math
import string

import numpy as np


class Jet:
    __slots__ = ("n", "comp_shape", "terms")

    def __init__(self, n, comp_shape, terms):
        self.n = n
        self.comp_shape = tuple(comp_shape)
        self.terms = list(terms)

    @property
    def order(self):
        return len(self.terms) - 1

    @property
    def batch_shape(self):
        t = self.terms[0]
        return t.shape[:t.ndim - len(self.comp_shape)]

    @staticmethod
    def constant(n, array, order):
        array = np.asarray(array, dtype=float)
        terms = [array] + [np.zeros(array.shape + (n,) * k) for k in range(1, order + 1)]
        return Jet(n, array.shape, terms)

    def truncated(self, order):
        if order > self.order:
            raise ValueError(f"jet of order {self.order} cannot provide order {order}")
        return Jet(self.n, self.comp_shape, self.terms[: order + 1])

    def copy(self):
        return Jet(self.n, self.comp_shape, [t.copy() for t in self.terms])

    def __add__(self, other):
        other = _coerce(other, self)
        k = min(self.order, other.order)
        return Jet(self.n, self.comp_shape,
                   [self.terms[i] + other.terms[i] for i in range(k + 1)])

    def __sub__(self, other):
        other = _coerce(other, self)
        k = min(self.order, other.order)
        return Jet(self.n, self.comp_shape,
                   [self.terms[i] - other.terms[i] for i in range(k + 1)])

    def __neg__(self):
        return Jet(self.n, self.comp_shape, [-t for t in self.terms])

    def scaled(self, c):
        """c times the jet; c is a number or holds one factor per batch element."""
        if np.ndim(c) == 0:
            return Jet(self.n, self.comp_shape, [c * t for t in self.terms])
        return Jet(self.n, self.comp_shape, [_lead(c, t) * t for t in self.terms])


def _coerce(v, like):
    if isinstance(v, Jet):
        return v
    return Jet.constant(like.n, np.broadcast_to(np.asarray(v, dtype=float), like.comp_shape),
                        like.order)


def _lead(a, t):
    """a, holding one value per batch element, shaped to broadcast against t."""
    a = np.asarray(a)
    return a.reshape(a.shape + (1,) * (t.ndim - a.ndim))


def _where(mask, a: Jet, b: Jet):
    """Per batch element: a where mask holds, b elsewhere; either may be an
    unbatched constant."""
    return Jet(a.n, a.comp_shape,
               [np.where(_lead(mask, max(ta, tb, key=np.ndim)), ta, tb)
                for ta, tb in zip(a.terms, b.terms)])


@functools.lru_cache(maxsize=None)
def _symmetrizing_axes(ndim, k):
    base = ndim - k
    return [tuple(range(base)) + tuple(base + p[i] for i in range(k))
            for p in itertools.permutations(range(k))]


def sym_last(arr, k):
    """Symmetrize over the last k axes."""
    if k <= 1:
        return arr
    total = np.zeros_like(arr)
    axes_list = _symmetrizing_axes(arr.ndim, k)
    for axes in axes_list:
        total += np.transpose(arr, axes)
    return total / len(axes_list)


_LETTERS = string.ascii_letters


def _derivative_letters(used, count):
    pool = [c for c in _LETTERS if c not in used]
    if len(pool) < count:
        raise ValueError("einsum letter pool exhausted")
    return "".join(pool[:count])


@functools.lru_cache(maxsize=None)
def _jmul_plan(spec, order):
    """Per output order k, the (j, einsum subscripts, binomial) of each
    Leibniz term D^j a D^(k-j) b, with leading batch axes as '...'."""
    ins, out = spec.split("->")
    in_a, in_b = ins.split(",")
    used = set(spec) - {",", "-", ">"}
    plan = []
    for k in range(order + 1):
        dk = _derivative_letters(used, k)
        plan.append([(j, f"...{in_a}{dk[:j]},...{in_b}{dk[j:]}->...{out}{dk}",
                      math.comb(k, j)) for j in range(k + 1)])
    return plan, len(out)


def jmul(spec, a: Jet, b: Jet, order=None):
    """Leibniz product: einsum over component axes, exact derivative bookkeeping.

    spec is a plain einsum spec for the component axes, e.g. 'ci,ibd->cbd'.
    """
    if order is None:
        order = min(a.order, b.order)
    plan, out_ndim = _jmul_plan(spec, order)
    terms = []
    for k, pieces in enumerate(plan):
        acc = None
        for j, subscripts, binomial in pieces:
            piece = sym_last(np.einsum(subscripts, a.terms[j], b.terms[k - j]), k)
            if binomial != 1:
                piece = binomial * piece
            acc = piece if acc is None else acc + piece
        terms.append(acc)
    t0 = terms[0]
    return Jet(a.n, t0.shape[t0.ndim - out_ndim:], terms)


@functools.lru_cache(maxsize=None)
def _jcontract_plan(spec, order):
    ins, out = spec.split("->")
    used = set(spec) - {",", "-", ">"}
    return [f"...{ins}{dk}->...{out}{dk}"
            for dk in (_derivative_letters(used, k) for k in range(order + 1))], len(out)


def jcontract(spec, a: Jet):
    """Single-operand einsum on component axes (derivative axes ride along)."""
    plan, out_ndim = _jcontract_plan(spec, a.order)
    terms = [np.einsum(subscripts, t) for subscripts, t in zip(plan, a.terms)]
    t0 = terms[0]
    return Jet(a.n, t0.shape[t0.ndim - out_ndim:], terms)


def jpartial(a: Jet):
    """Coordinate derivative: one order lower, a new leading component axis."""
    if a.order < 1:
        raise ValueError("need at least a first-order jet to differentiate")
    nb = len(a.batch_shape)
    base = nb + len(a.comp_shape)
    terms = [np.moveaxis(a.terms[k + 1], base, nb) for k in range(a.order)]
    return Jet(a.n, (a.n,) + a.comp_shape, terms)


def jtranspose(a: Jet, perm):
    """Permute component axes."""
    nb = len(a.batch_shape)
    lead = tuple(range(nb)) + tuple(nb + p for p in perm)
    terms = []
    for k in range(a.order + 1):
        axes = lead + tuple(nb + len(perm) + i for i in range(k))
        terms.append(np.transpose(a.terms[k], axes))
    return Jet(a.n, tuple(a.comp_shape[p] for p in perm), terms)


def _contract_first_axes(p, q, nb):
    """p[..., a, i, d...] q[..., i, b, e...] -> [..., a, d..., b, e...]: the
    tensordot of p's second and q's first component axis, as one matmul over
    the batch (each matrix product is the tensordot of one point)."""
    p = np.moveaxis(p, nb + 1, -1)
    lead = p.shape[:nb]
    prod = np.matmul(p.reshape(lead + (-1, p.shape[-1])),
                     q.reshape(lead + (q.shape[nb], -1)))
    return prod.reshape(p.shape[:-1] + q.shape[nb + 1:])


def jinv_matrix(g: Jet):
    """Inverse of a jet-valued square matrix, via d(G . G^{-1}) = 0."""
    g0 = g.terms[0]
    nb = g0.ndim - 2
    h0 = np.linalg.inv(g0)
    terms = [h0]
    for k in range(1, g.order + 1):
        acc = np.zeros(h0.shape + (g.n,) * k)
        for j in range(1, k + 1):
            # (D^j G)[a,i,...] (D^{k-j} H)[i,b,...] with derivative axes appended
            piece = _contract_first_axes(g.terms[j], terms[k - j], nb)
            # axes now: a, d1..dj, b, e1..e_{k-j}  -> move b after a
            piece = np.moveaxis(piece, nb + 1 + j, nb + 1)
            piece = math.comb(k, j) * sym_last(piece, k)
            acc += piece
        dk = _derivative_letters("abi", k)
        terms.append(-np.einsum(f"...ai,...ib{dk}->...ab{dk}", h0, acc))
    return Jet(g.n, g.comp_shape, terms)


def _scalar_mul(a: Jet, b: Jet, order=None):
    return jmul(",->", a, b, order)


def jdet(g: Jet):
    """Determinant of a jet-valued square matrix via elimination with partial
    pivoting, the pivot row chosen per batch element; an element whose pivot
    column is all zero has determinant zero."""
    size = g.comp_shape[0]
    batch = g.batch_shape
    rows = [[_entry(g, i, j, len(batch)) for j in range(size)] for i in range(size)]
    sign = np.ones(batch)
    singular = np.zeros(batch, dtype=bool)
    det = None
    for col in range(size):
        mags = np.array([np.abs(rows[r][col].terms[0]) for r in range(col, size)])
        pivot_row = col + mags.argmax(axis=0)
        singular |= mags.max(axis=0) == 0.0
        for r in range(col + 1, size):
            swap = pivot_row == r
            if swap.any():
                for c in range(size):
                    rows[col][c], rows[r][c] = (_where(swap, rows[r][c], rows[col][c]),
                                                _where(swap, rows[col][c], rows[r][c]))
                sign = np.where(swap, -sign, sign)
        pivot = rows[col][col]
        det = pivot if det is None else _scalar_mul(det, pivot)
        if singular.any():
            pivot = _where(singular, Jet.constant(g.n, 1.0, g.order), pivot)
        inv_pivot = jrecip(pivot)
        for r in range(col + 1, size):
            factor = _scalar_mul(rows[r][col], inv_pivot)
            for c in range(col + 1, size):
                rows[r][c] = rows[r][c] - _scalar_mul(factor, rows[col][c])
    det = det.scaled(sign)
    if singular.any():
        det = _where(singular, Jet.constant(g.n, 0.0, g.order), det)
    return det


def _entry(g: Jet, i, j, nb):
    index = (slice(None),) * nb + (i, j)
    return Jet(g.n, (), [t[index] for t in g.terms])


# -- smooth scalar functions via Faa di Bruno ----------------------------------

def _partitions(k):
    """Integer partitions of k as non-increasing tuples."""
    if k == 0:
        yield ()
        return
    def rec(remaining, maximum):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maximum), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(k, k)


def _partition_multiplicity(lam):
    k = sum(lam)
    m = math.factorial(k)
    for part in lam:
        m //= math.factorial(part)
    counts = {}
    for part in lam:
        counts[part] = counts.get(part, 0) + 1
    for c in counts.values():
        m //= math.factorial(c)
    return m


@functools.lru_cache(maxsize=None)
def _faa_di_bruno_terms(k):
    return [(lam, _partition_multiplicity(lam)) for lam in _partitions(k)]


def _outer(a, b, nb):
    """Outer product over the non-batch axes, element by element of the batch."""
    return a.reshape(a.shape + (1,) * (b.ndim - nb)) \
        * b.reshape(b.shape[:nb] + (1,) * (a.ndim - nb) + b.shape[nb:])


def jcompose(u: Jet, fderivs):
    """f(u) for scalar jets, given [f(u0), f'(u0), ..., f^{(K)}(u0)]; each
    entry is a number or holds one value per batch element."""
    if u.comp_shape != ():
        raise ValueError("jcompose needs a scalar jet")
    order = u.order
    nb = u.terms[0].ndim
    terms = [np.asarray(fderivs[0], dtype=float)]
    for k in range(1, order + 1):
        acc = np.zeros(u.terms[0].shape + (u.n,) * k)
        for lam, multiplicity in _faa_di_bruno_terms(k):
            block = u.terms[lam[0]]
            for part in lam[1:]:
                block = _outer(block, u.terms[part], nb)
            block = sym_last(block, k)
            acc = acc + _lead(fderivs[len(lam)] * multiplicity, block) * block
        terms.append(acc)
    return Jet(u.n, (), terms)


def _each(fn, arr):
    """fn on every element as a Python float: libm gives each point of a
    batch the bits it gets alone, which numpy's vectorized exp, log and power
    do not."""
    arr = np.asarray(arr)
    return np.array([fn(v) for v in arr.ravel().tolist()]).reshape(arr.shape)


def jrecip(u: Jet):
    u0 = u.terms[0]
    if (u0 == 0.0).any():
        raise ZeroDivisionError("jet reciprocal at a zero value")
    derivs = [(-1.0) ** b * math.factorial(b) / _each(lambda v: v ** (b + 1), u0)
              for b in range(u.order + 1)]
    return jcompose(u, derivs)


def jpow(u: Jet, p: float):
    u0 = u.terms[0]
    if p != int(p) and (u0 < 0.0).any():
        raise ValueError("jet power of a negative value with a non-integer exponent")
    derivs = []
    coeff = 1.0
    for b in range(u.order + 1):
        derivs.append(coeff * _each(lambda v: v ** (p - b), u0))
        coeff *= p - b
    return jcompose(u, derivs)


def jsqrt(u: Jet):
    return jpow(u, 0.5)


def jexp(u: Jet):
    e = _each(math.exp, u.terms[0])
    return jcompose(u, [e] * (u.order + 1))


def jlog(u: Jet):
    u0 = u.terms[0]
    if (u0 <= 0.0).any():
        raise ValueError("jet log of a non-positive value")
    derivs = [_each(math.log, u0)]
    derivs += [(-1.0) ** (b - 1) * math.factorial(b - 1) / _each(lambda v: v ** b, u0)
               for b in range(1, u.order + 1)]
    return jcompose(u, derivs)


def jabs_pow(u: Jet, p: float):
    """|u|^p for u bounded away from zero (sign taken from the value)."""
    negative = u.terms[0] < 0.0
    if negative.any():
        u = _where(negative, -u, u)
    return jpow(u, p)
