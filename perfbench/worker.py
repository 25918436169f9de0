"""Closed-loop client: runs one workload in this process and prints one JSON
object with the raw measurements as its last line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--max-ops N]

One client, one operation at a time: each operation starts after the previous
one has returned.  An operation is ``cprojective.cli.main(argv)`` with its
standard output captured.  In an untraced run the reference kernel
(``reference.py``) is sampled during every timed operation, so that
``run.py`` can scale the times to a machine of fixed speed.  ``run.py``
starts this script with the package source on ``PYTHONPATH`` and BLAS
threads pinned to 1.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

import reference
from workloads import WORKLOADS, CheckFailure

# No operation starts later than this after the worker starts, whatever the
# minimum operation count says, so a much slower program still finishes a run
# well inside the harness time limit.
HARD_STOP_S = 110.0

# Minimum operations in each half of a traced run (untraced, then traced).
TRACE_HALF_MIN_OPS = 11


def _libc_trim():
    name = ctypes.util.find_library("c")
    if not name:
        return lambda: None
    libc = ctypes.CDLL(name)
    trim = getattr(libc, "malloc_trim", None)
    if trim is None:
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    return lambda: trim(0)


_TRIM = _libc_trim()
_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mb():
    """Resident set size after a full collection and returning freed heap
    pages to the system, so the figure tracks retained memory."""
    gc.collect()
    _TRIM()
    with open("/proc/self/statm", encoding="ascii") as fh:
        resident = int(fh.read().split()[1])
    return resident * _PAGE / 2**20


class Client:
    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def call(self, op, sampler=None):
        """Runs one operation; returns (output, wall_s, cpu_s, ok, samples).
        With a ``sampler``, the reference kernel is sampled while the
        operation runs: ``samples`` is (kernel runs, kernel wall seconds), and
        the kernel's wall and CPU seconds are left out of ``wall_s`` and
        ``cpu_s``.  Without one, ``samples`` is (0, 0.0)."""
        buf = io.StringIO()
        self.attempted += 1
        out = None
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        if sampler:
            sampler.start()
        try:
            with contextlib.redirect_stdout(buf):
                try:
                    rc = self.cli.main(op.argv)
                except SystemExit as exit_:  # argparse rejects the argv
                    rc = exit_.code
        except Exception:  # an operation that raises is a failed operation
            self.fail(op, traceback.format_exc(limit=3))
        else:
            out = buf.getvalue()
        finally:
            runs, kernel_wall, kernel_cpu = sampler.stop() if sampler else (0, 0.0, 0.0)
            wall = time.perf_counter() - wall0 - kernel_wall
            cpu = time.process_time() - cpu0 - kernel_cpu
        samples = (runs, kernel_wall)
        if out is None:
            return None, wall, cpu, False, samples
        try:
            op.check(rc, out)
        except (CheckFailure, ValueError, KeyError, TypeError, IndexError) as err:
            self.fail(op, f"{type(err).__name__}: {err}")
            return out, wall, cpu, False, samples
        return out, wall, cpu, True, samples

    def fail(self, op, why):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append({"argv": op.argv, "why": why})


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_loop(client, cycles, seconds, min_ops, max_ops, started, sampler=None):
    """Timed closed loop over whole cycles.  Returns the per-operation
    samples (with ``sampler``, also its kernel runs and seconds during each
    operation), the number of operations in each cycle, the RSS after the
    first and after the ``min_ops``-th operation, and the peak RSS up to that
    operation: memory figures cover a fixed amount of work however many
    operations the time allows."""
    res = {"walls": [], "cpus": [], "kernel_runs": [], "kernel_s": [], "out_bytes": [],
           "cycle_sizes": []}
    walls = res["walls"]
    rss_window = peak = None
    t_end = time.perf_counter() + seconds
    for cycle in cycles:
        for op in cycle:
            out, wall, cpu, _, (runs, kernel_s) = client.call(op, sampler)
            walls.append(wall)
            res["cpus"].append(cpu)
            res["kernel_runs"].append(runs)
            res["kernel_s"].append(kernel_s)
            res["out_bytes"].append(len(out.encode()) if out is not None else 0)
            if len(walls) == 1:
                res["rss_first_mb"] = rss_mb()
            if len(walls) == min_ops:
                rss_window, peak = rss_mb(), peak_rss_mb()
        res["cycle_sizes"].append(len(cycle))
        now = time.perf_counter()
        if max_ops and len(walls) >= max_ops:
            break
        if now - started > HARD_STOP_S or (now >= t_end and len(walls) >= min_ops):
            break
    if rss_window is None:
        rss_window, peak = rss_mb(), peak_rss_mb()
    res.update(rss_window_mb=rss_window, peak_rss_window_mb=peak,
               rss_window_ops=min(min_ops, len(walls)))
    return res


def determinism(client, op, expected):
    """Re-runs ``op`` and requires byte-identical output; a mismatch is a
    failed operation."""
    out, _, _, ok, _ = client.call(op)
    if ok and out != expected:
        client.fail(op, "output differs from the first run of the same operation")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--max-ops", type=int, default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    from cprojective import cli
    import numpy

    workload = WORKLOADS[args.workload]
    cycles = workload.cycles(args.seed, args.workdir)
    client = Client(cli)
    result = {"workload": workload.name, "seed": args.seed,
              "cprojective_file": cli.__file__, "numpy": numpy.__version__}

    # Warm-up: the first operation pays one-time lazy imports and allocator
    # growth; it is checked and later re-run for determinism, but not timed.
    first = next(cycles)[0]
    ref_out = client.call(first)[0]

    min_ops = workload.min_ops
    max_ops = args.max_ops
    if max_ops:
        min_ops = min(min_ops, max_ops)
    if args.trace:
        # Half the time untraced, for the overhead ratio; then the traced half.
        half_min = min(min_ops, TRACE_HALF_MIN_OPS)
        plain = run_loop(client, cycles, args.seconds / 2, half_min, max_ops, started)
        from tracing import Tracer
        tracer = Tracer()
        tracer.calibrate()
        result["bound"] = tracer.install()
        result["unwrapped"] = tracer.unwrapped_bindings()
        traced = run_loop(client, cycles, args.seconds / 2, half_min, max_ops, started)
        result["plain"] = plain
        result["traced"] = traced
        result["trace"] = tracer.summary()
    else:
        result["timed"] = run_loop(client, cycles, args.seconds, min_ops, max_ops,
                                   started, reference.Sampler())

    determinism(client, first, ref_out)
    result["peak_rss_end_mb"] = peak_rss_mb()
    result["attempted"] = client.attempted
    result["failed"] = client.failed
    result["failures"] = client.failures
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
