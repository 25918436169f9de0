"""cprojective benchmark: one seeded workload, measured end to end or traced
per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` next to this
directory.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics, with ``--trace 1`` one with the per-layer
metrics.  Lines before it print the environment and every metric by name with
its unit.  Raw samples, the environment and, for traced runs, every span go to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from tracing import LAYERS  # noqa: E402
from workloads import CERTIFICATES, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
# Reported times are normalized seconds: seconds on a nominal machine on which
# one run of the reference kernel (reference.py) takes REF_S and a fresh
# interpreter that imports numpy (STARTUP_ARGV) takes STARTUP_REF_S.  See
# ``normalized_cycles`` and ``normalized_setup``.
REF_S = 0.001
STARTUP_REF_S = 0.2
STARTUP_ARGV = [sys.executable, "-c", "import numpy"]
# Whole-run limit for the worker; the harness must exit within 180 s.
WORKER_TIMEOUT_S = 160.0

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

JET_FUNCTIONS = ("jmul", "jcontract", "jpartial", "jtranspose", "jinv_matrix",
                 "jdet", "jcompose")


class HarnessError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def environment(load_start, numpy_version):
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "blas_env": BLAS_ENV,
        "platform": platform.platform(),
    }


def measure_setup(config, env):
    """Wall times of fresh interpreters importing cprojective.cli and
    building the GeometryContext for ``config``, and of the start-up probes
    run before each and after the last: fresh interpreters that import
    numpy and nothing of the program."""
    setup_argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), config]
    times, refs = [], []

    def timed(argv):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60, check=False)
        if proc.returncode != 0:
            raise HarnessError(f"{argv[1]} failed:\n" + proc.stderr.decode()[-2000:])
        return time.perf_counter() - start

    refs.append(timed(STARTUP_ARGV))
    for _ in range(SETUP_REPEATS):
        times.append(timed(setup_argv))
        refs.append(timed(STARTUP_ARGV))
    return times, refs


def normalized_setup(times, refs):
    """Each set-up time scaled to the nominal machine: ``time *
    STARTUP_REF_S / ref``, with ``ref`` the mean of the start-up probes just
    before and after it.  Process start-up and imports slow down less than
    computation when the machine is slow, so set-up has a yardstick of its
    own kind."""
    return [t * STARTUP_REF_S * 2.0 / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]


def normalized_cycles(res, key):
    """Per-operation value of each cycle (``key`` is "walls" or "cpus"),
    scaled to the nominal machine: ``value * REF_S / kernel``, with
    ``kernel`` the mean time of the reference kernel runs sampled during the
    cycle's operations.  The speed this machine gives the benchmark moves
    between levels up to 2.2x apart, from one second to the next or for
    many minutes; the kernel slows with the program, so the ratio stays put
    while raw times do not (README, "Normalized time")."""
    sizes = res["cycle_sizes"]
    runs = cycle_means(res["kernel_runs"], sizes)
    if not all(runs):
        raise HarnessError("a cycle ended before the reference kernel was sampled")
    return [value * REF_S * n / kernel_s for value, n, kernel_s in
            zip(cycle_means(res[key], sizes), runs, cycle_means(res["kernel_s"], sizes))]


def run_worker(args, workdir, env, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--max-ops", str(args.max_ops)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}:\n"
                           + proc.stderr.decode()[-4000:])
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise HarnessError("worker printed no result")
    return json.loads(lines[-1])


def cycle_means(values, sizes):
    """Mean per-operation value of each cycle.  A ``sweep-ball3`` cycle mixes
    ten calls whose costs differ by up to 35x, so a median or percentile of
    single calls would fall in a gap between cost groups and jump with the
    number of cycles a run holds; order statistics of cycle means do not."""
    means, start = [], 0
    for size in sizes:
        means.append(sum(values[start:start + size]) / size)
        start += size
    return means


def tail(values):
    """The highest percentile with at least 10 samples beyond it: the
    11th-largest sample (the smallest when there are at most 10).  Returns
    (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[0], 0.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(res, setup):
    sizes = res["cycle_sizes"]
    per_cycle = normalized_cycles(res, "walls")
    tail_value, pct = tail(per_cycle)
    metrics = {
        "op_s": metric(statistics.median(per_cycle), "s"),
        "op_s.tail": metric(tail_value, "s"),
        "cpu_s": metric(statistics.median(normalized_cycles(res, "cpus")), "s"),
        "peak_rss_mb": metric(res["peak_rss_window_mb"], "MB"),
        "rss_growth_mb": metric(res["rss_window_mb"] - res["rss_first_mb"], "MB"),
        "setup_s": metric(statistics.median(normalized_setup(*setup)), "s"),
    }
    notes = {"ops": len(res["walls"]), "cycles": len(sizes), "op_s.tail_percentile": pct,
             "rss_growth_window_ops": res["rss_window_ops"],
             "wall_op_s": statistics.median(cycle_means(res["walls"], sizes)),
             "wall_setup_s": statistics.median(setup[0]),
             "kernel_s": sum(res["kernel_s"]) / sum(res["kernel_runs"])}
    return metrics, notes


def per_layer(res, workload):
    tr = res["trace"]
    counts = tr["counts"]
    calls = {name: span["calls"] for name, span in tr["spans"].items()}
    self_t = {name: span["self_s"] for name, span in tr["spans"].items()}
    total = {name: span["total_s"] for name, span in tr["spans"].items()}
    ops = len(res["traced"]["walls"])

    def per_op(value):
        return value / ops

    m = {}
    for f in ("evaluate", "derivative_trees"):
        m[f"fieldexpr.{f}.calls"] = metric(per_op(calls.get(f"fieldexpr.{f}", 0)), "count/op")
        m[f"fieldexpr.{f}.self_s"] = metric(per_op(self_t.get(f"fieldexpr.{f}", 0.0)), "s/op")
    m["fieldexpr.parse_expression.self_s"] = metric(
        per_op(self_t.get("fieldexpr.parse_expression", 0.0)), "s/op")
    for f in JET_FUNCTIONS:
        m[f"jets.{f}.calls"] = metric(per_op(calls.get(f"jets.{f}", 0)), "count/op")
        m[f"jets.{f}.self_s"] = metric(per_op(self_t.get(f"jets.{f}", 0.0)), "s/op")
    for k in range(5):
        m[f"jets.jmul.calls.k{k}"] = metric(per_op(counts.get(f"jets.jmul.k{k}", 0)),
                                            "count/op")
    m["jets.out_mb"] = metric(per_op(counts.get("jets.out_bytes", 0)) / 2**20,
                              "MB-computed/op")
    requests = counts.get("geometry.jet.requests", 0)
    builds = calls.get("geometry.leaf", 0) + calls.get("geometry.compose", 0)
    hits = requests - builds
    m["geometry.jet.requests"] = metric(per_op(requests), "count/op")
    m["geometry.jet.cache_hits"] = metric(per_op(hits), "count/op")
    m["geometry.jet.hit_ratio"] = metric(hits / requests if requests else 0.0, "ratio")
    m["geometry.leaf.builds"] = metric(per_op(calls.get("geometry.leaf", 0)), "count/op")
    for k in range(5):
        m[f"geometry.leaf.builds.k{k}"] = metric(
            per_op(counts.get(f"geometry.leaf.k{k}", 0)), "count/op")
    m["geometry.leaf.self_s"] = metric(per_op(self_t.get("geometry.leaf", 0.0)), "s/op")
    m["geometry.compose.self_s"] = metric(per_op(self_t.get("geometry.compose", 0.0)),
                                          "s/op")
    m["boundary.richardson.calls"] = metric(per_op(calls.get("boundary.richardson", 0)),
                                            "count/op")
    m["boundary.richardson.samples"] = metric(
        per_op(counts.get("boundary.richardson.samples", 0)), "count/op")
    m["boundary.richardson.self_s"] = metric(
        per_op(self_t.get("boundary.richardson", 0.0)), "s/op")
    m["boundary.extrapolate_limit.calls"] = metric(
        per_op(calls.get("boundary.extrapolate_limit", 0)), "count/op")
    m["boundary.make_ray.self_s"] = metric(per_op(self_t.get("boundary.make_ray", 0.0)),
                                           "s/op")
    for name in CERTIFICATES:
        m[f"cert.{name}.s"] = metric(per_op(tr["cert"].get(name, 0.0)), "s/op")
    m["cli.load_config.self_s"] = metric(per_op(self_t.get("cli.load_config", 0.0)),
                                         "s/op")
    m["cli.context.s"] = metric(per_op(total.get("cli.GeometryContext", 0.0)), "s/op")
    m["cli.format_json.self_s"] = metric(per_op(self_t.get("cli.format_json", 0.0)),
                                         "s/op")
    m["cli.output_bytes"] = metric(per_op(sum(res["traced"]["out_bytes"])), "bytes/op")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(per_op(tr["layer_self"][layer]), "s/op")
    traced, plain = (statistics.median(cycle_means(half["walls"], half["cycle_sizes"]))
                     for half in (res["traced"], res["plain"]))
    m["trace.overhead_ratio"] = metric(traced / plain, "ratio")

    layer_total = sum(tr["layer_self"].values())
    shares = {layer: tr["layer_self"][layer] / layer_total for layer in LAYERS}
    missing = [name for name in workload.required if calls.get(name, 0) == 0]
    notes = {"traced_ops": ops, "untraced_ops": len(res["plain"]["walls"]),
             "layer_share": shares, "zero_call_functions": missing,
             "unwrapped_bindings": res["unwrapped"]}
    return m, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--max-ops", type=int, default=0,
                    help="stop after this many timed operations (harness self-test)")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "cprojective", "cli.py")):
        print(f"benchmark: no cprojective sources under {SRC}", file=sys.stderr)
        return 2

    # One CPU for the harness and every process it starts: the two CPUs of
    # this kind of machine change speed independently, and a set-up process
    # must run on the CPU its start-up probes measured.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return _run(args, workdir, started)
    except HarnessError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir, started):
    workload = WORKLOADS[args.workload]
    env = child_env()
    load_start = list(os.getloadavg())

    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir)
    first_op = next(workload.cycles(args.seed, probe_dir))[0]
    setup = measure_setup(first_op.argv[2], env)

    ops_dir = os.path.join(workdir, "ops")
    os.makedirs(ops_dir)
    timeout = WORKER_TIMEOUT_S - (time.perf_counter() - started)
    res = run_worker(args, ops_dir, env, timeout)

    if not os.path.realpath(res["cprojective_file"]).startswith(os.path.realpath(SRC)):
        raise HarnessError(f"imported cprojective from {res['cprojective_file']}, "
                           f"not from {SRC}")

    env_info = environment(load_start, res["numpy"])
    correct = res["failed"] == 0
    fail_ratio = res["failed"] / res["attempted"]

    if args.trace:
        metrics, notes = per_layer(res, workload)
        if notes["zero_call_functions"] or notes["unwrapped_bindings"]:
            raise HarnessError(
                f"trace coverage: zero calls for {notes['zero_call_functions']}, "
                f"unwrapped bindings {notes['unwrapped_bindings']}")
        raw = {"spans": res["trace"]["spans"],
               "leaf_builds_by_field": res["trace"]["leaf_by_field"],
               "span_cost_s": res["trace"]["span_cost_s"],
               "bound_attributes": res["bound"]}
    else:
        timed = res["timed"]
        metrics, notes = end_to_end(timed, setup)
        notes["peak_rss_end_of_run_mb"] = res["peak_rss_end_mb"]
        raw = {"samples": {"wall_s": timed["walls"], "cpu_s": timed["cpus"],
                           "kernel_runs": timed["kernel_runs"], "kernel_s": timed["kernel_s"],
                           "cycle_sizes": timed["cycle_sizes"]}}
    notes["setup_samples_s"], notes["setup_ref_s"] = setup
    notes["fail_ratio"] = fail_ratio

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env_info, "correct": correct,
              "attempted": res["attempted"], "failed": res["failed"],
              "failures": res["failures"], "metrics": metrics, "notes": notes, **raw}
    kind = "trace" if args.trace else "run"
    with open(os.path.join(OUT, f"{kind}-{args.workload}-{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("environment: " + json.dumps(env_info))
    print("notes: " + json.dumps(notes))
    for f in res["failures"]:
        print("failure: " + json.dumps(f))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"fail_ratio = {fail_ratio!r} ratio ({res['failed']}/{res['attempted']})")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
