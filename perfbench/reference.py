"""A fixed reference kernel: a yardstick for the speed the machine gives the
benchmark at a given moment.

The kernel does the two kinds of work the program spends its time on, in a
fixed amount: a memoised post-order walk over a shared expression DAG with
float arithmetic (as in expression evaluation), and a few small numpy
einsums and transposes (as in the jet recursions).  It imports nothing from
``cprojective``, so no change to the program changes it.

``Sampler`` runs the kernel from a timer signal while an operation runs, so
the speed is sampled during the operation itself.
"""

from __future__ import annotations

import math
import random
import signal
import time

import numpy as np

_NODES = 800
_ARRAY_CALLS = 8

# Seconds between two samples of a running operation.
SAMPLE_INTERVAL_S = 0.02


class _Node:
    __slots__ = ("op", "a", "b", "value")

    def __init__(self, op, a=None, b=None, value=0.0):
        self.op = op
        self.a = a
        self.b = b
        self.value = value


def _build_dag():
    rng = random.Random(20160323)
    nodes = [_Node("var", value=float(i)) for i in range(4)]
    nodes += [_Node("const", value=rng.uniform(0.1, 0.9)) for _ in range(16)]
    while len(nodes) < _NODES:
        op = rng.choice(("+", "+", "*", "*", "neg", "exp"))
        # Children mostly from the recent past, sometimes from far back, so
        # the walk shares subtrees and touches memory all over the DAG.
        a = nodes[rng.randrange(max(0, len(nodes) - 64), len(nodes))]
        b = nodes[rng.randrange(len(nodes))]
        nodes.append(_Node(op, a, b))
    return nodes[-1]


_DAG_ROOT = _build_dag()
_RNG = np.random.default_rng(20160323)
_A = _RNG.standard_normal((4, 4, 4))
_B = _RNG.standard_normal((4, 4))


def _walk(root, x, memo):
    stack = [root]
    while stack:
        node = stack[-1]
        key = id(node)
        if key in memo:
            stack.pop()
            continue
        op = node.op
        if op == "var":
            memo[key] = x[int(node.value)]
            stack.pop()
            continue
        if op == "const":
            memo[key] = node.value
            stack.pop()
            continue
        kids = (node.a,) if op in ("neg", "exp") else (node.a, node.b)
        pending = [k for k in kids if id(k) not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        va = memo[id(node.a)]
        if op == "+":
            memo[key] = (va + memo[id(node.b)]) * 0.5
        elif op == "*":
            memo[key] = va * memo[id(node.b)]
        elif op == "neg":
            memo[key] = -va
        else:
            memo[key] = math.exp(min(va, 1.0))
    return memo[id(root)]


def kernel():
    """One fixed amount of reference work; returns a checksum."""
    total = _walk(_DAG_ROOT, (0.1, 0.2, -0.3, 0.4), {})
    a = _A
    for _ in range(_ARRAY_CALLS):
        c = np.einsum("ijk,kl->ijl", a, _B)
        c = np.moveaxis(c, 0, -1) + a
        a = c / (1.0 + np.abs(c).max())
    return total + float(a.sum())


class Sampler:
    """Runs the kernel every ``SAMPLE_INTERVAL_S`` of wall time while
    started, from a ``SIGALRM`` handler in the main thread, and adds up how
    many runs it made and the wall and CPU seconds they took.  The handler
    runs between two bytecodes of whatever the main thread is executing, so
    each run sees the machine at that moment of the operation.  The caller
    subtracts the sampler's own time from the operation's."""

    def __init__(self):
        self.runs = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        kernel()
        self.cpu_s += time.process_time() - cpu0
        self.wall_s += time.perf_counter() - wall0
        self.runs += 1

    def start(self):
        self.runs = 0
        self.wall_s = self.cpu_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        """Stops sampling; returns (runs, wall seconds, CPU seconds)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return self.runs, self.wall_s, self.cpu_s
