"""Seeded workload generators and output checks.

Each workload turns a seed into a sequence of CLI operations.  An operation
is one call of ``cprojective.cli.main`` with an argv that names a generated
config file; the program sees nothing but those files and the argv.  Each
operation carries a check that decides whether its exit code and output are
the expected ones.

This module imports nothing from ``cprojective``: the checks read the
program's output text, never its objects.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random

# Battery order of ``cprojective report``.
CERTIFICATES = (
    "hermitean-metric",
    "quasi-kahler",
    "levi",
    "metricity",
    "det-vs-scalar-curvature",
    "asymptotic-form",
    "volume-density",
    "scalar-boundary-constancy",
    "compactification-constant",
    "schouten-asymptotics",
    "curvature-asymptotics-order1",
    "curvature-asymptotics-order2",
    "einstein-residual",
    "tracefree-coefficients",
)

# report-perturbed: every certificate passes except the Einstein residual.
PERTURBED_VERDICTS = {name: "pass" for name in CERTIFICATES}
PERTURBED_VERDICTS["einstein-residual"] = "fail"

# report-flat: the verdict pattern of configs/flat.json.
FLAT_VERDICTS = {
    "hermitean-metric": "pass",
    "quasi-kahler": "pass",
    "levi": "fail",
    "metricity": "pass",
    "det-vs-scalar-curvature": "not-applicable",
    "asymptotic-form": "not-applicable",
    "volume-density": "fail",
    "scalar-boundary-constancy": "not-applicable",
    "compactification-constant": "not-applicable",
    "schouten-asymptotics": "fail",
    "curvature-asymptotics-order1": "fail",
    "curvature-asymptotics-order2": "fail",
    "einstein-residual": "pass",
    "tracefree-coefficients": "fail",
}

SCHEDULE = {"t0": 0.1, "K": 8, "order": 3}
CONFIG_SEED = 1234

SWEEP_QUANTITIES = ("S", "g", "h", "rho2R-defect", "rhoP-defect",
                    "tau-over-rho", "gammahat", "psi", "detH-over-S")

# Relative agreement required of the ball's scalar curvature along a ray and
# of its Richardson limit.
S_REL_TOL = 1e-8


class CheckFailure(Exception):
    pass


class Operation:
    """One CLI call: its argv and the check its exit code and output must
    pass."""

    def __init__(self, argv, check):
        self.argv = argv
        self.check = check


def _sphere_point(rng, n, radius):
    """A uniformly random point on the radius-sphere of R^n."""
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            return [radius * c / norm for c in v]


def _ball_rho(m):
    return "1 - " + " - ".join(f"{c}{k}^2" for k in range(1, m + 1) for c in "xy")


def _write_config(workdir, name, cfg):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1)
    return path


# -- report checks ------------------------------------------------------------

def _check_report(expected_rc, verdicts):
    def check(rc, out):
        if rc != expected_rc:
            raise CheckFailure(f"exit code {rc}, expected {expected_rc}")
        try:
            report = json.loads(out)
        except json.JSONDecodeError as err:
            raise CheckFailure(f"report is not JSON: {err}")
        if "error" in report:
            raise CheckFailure(f"report carries an error: {report['error']}")
        got = [(c["name"], c["verdict"]) for c in report["certificates"]]
        want = [(name, verdicts[name]) for name in CERTIFICATES]
        if got != want:
            diff = [(g, w) for g, w in zip(got, want) if g != w]
            raise CheckFailure(f"verdicts differ from the expected pattern: {diff}"
                               if diff else f"certificate list {got}")
        if report["meta"]["seed"] != CONFIG_SEED:
            raise CheckFailure("report meta.seed differs from the config seed")
        if "signature" not in report:
            raise CheckFailure("report has no signature block")
    return check


def report_perturbed(seed, workdir):
    """``report`` on the m = 2 perturbed ball; a fresh epsilon and four fresh
    boundary points on the 0.99-sphere per operation, one operation per
    cycle."""
    rng = random.Random(seed)
    check = _check_report(1, PERTURBED_VERDICTS)
    index = 0
    while True:
        eps = rng.uniform(0.2, 0.5)
        q = "(1 - x1^2 - y1^2 - x2^2 - y2^2)"
        cfg = {
            "m": 2,
            "J": "standard",
            "metric": "from-rho",
            "rho": f"{q}*exp({eps!r}*x1^2*{q}^2)",
            "C": -1.0,
            "patch": {"points": [_sphere_point(rng, 4, 0.99) for _ in range(4)]},
            "schedule": dict(SCHEDULE),
            "seed": CONFIG_SEED,
        }
        path = _write_config(workdir, f"perturbed-{index}.json", cfg)
        yield [Operation(["report", "--config", path], check)]
        index += 1


def report_flat(seed, workdir):
    """``report`` on the explicit Euclidean metric with rho = x1 and four
    fresh patch points in the plane x1 = 0 per operation, one operation per
    cycle."""
    rng = random.Random(seed)
    check = _check_report(1, FLAT_VERDICTS)
    eye = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    index = 0
    while True:
        points = [[0.0] + [rng.uniform(-0.5, 0.5) for _ in range(3)]
                  for _ in range(4)]
        cfg = {
            "m": 2,
            "J": "standard",
            "metric": {"type": "explicit", "components": eye},
            "rho": "x1",
            "patch": {"points": points},
            "schedule": dict(SCHEDULE),
            "seed": CONFIG_SEED,
        }
        path = _write_config(workdir, f"flat-{index}.json", cfg)
        yield [Operation(["report", "--config", path], check)]
        index += 1


# -- sweep-ball3 ---------------------------------------------------------------

def _parse_sweep(out, quantity):
    lines = out.splitlines()
    if not lines or not lines[0].startswith(f"# quantity: {quantity};"):
        raise CheckFailure(f"sweep output lacks the '# quantity: {quantity}' line")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    header, body = rows[0], rows[1:]
    if header[0] != "t":
        raise CheckFailure("sweep header does not start with 't'")
    values = []
    for row in body:
        if len(row) != len(header):
            raise CheckFailure("sweep row width differs from its header")
        vals = [float(v) for v in row]
        if not all(math.isfinite(v) for v in vals):
            raise CheckFailure(f"non-finite value in sweep of {quantity}")
        values.append(vals)
    return header, values


def _check_sweep(quantity, samples, ncols, state):
    def check(rc, out):
        if rc != 0:
            raise CheckFailure(f"sweep {quantity} exited {rc}")
        header, rows = _parse_sweep(out, quantity)
        if len(rows) != samples:
            raise CheckFailure(f"sweep {quantity}: {len(rows)} rows, expected {samples}")
        if len(header) != ncols + 1:
            raise CheckFailure(f"sweep {quantity}: {len(header) - 1} columns, "
                               f"expected {ncols}")
        if quantity == "S":
            s = [r[1] for r in rows]
            spread = max(s) - min(s)
            if spread > S_REL_TOL * abs(s[0]):
                raise CheckFailure(f"S varies along the ray by {spread:.3e}")
            state["S"] = s[0]
    return check


def _check_limits(state):
    def check(rc, out):
        if rc != 0:
            raise CheckFailure(f"limits exited {rc}")
        payload = json.loads(out)
        if payload["converged"] is not True:
            raise CheckFailure("limits of S did not converge")
        ref = state.get("S")
        value = payload["value"]
        if ref is None or abs(value - ref) > S_REL_TOL * abs(ref):
            raise CheckFailure(f"limit of S {value!r} differs from the swept S {ref!r}")
    return check


def sweep_ball3(seed, workdir):
    """Sweeps of every registered quantity plus ``limits --expr S`` along
    seeded rays of the m = 3 ball.  One config file serves every operation,
    and every operation reloads it.  Each ray is a cycle of ten operations in
    a seeded order, with ``sweep S`` first so the limit has a reference."""
    m = 3
    n = 2 * m
    rng = random.Random(seed)
    cfg = {
        "m": m,
        "J": "standard",
        "metric": "from-rho",
        "rho": _ball_rho(m),
        "C": -1.0,
        "patch": {"points": [_sphere_point(rng, n, 0.99)]},
        "schedule": dict(SCHEDULE),
        "seed": CONFIG_SEED,
    }
    path = _write_config(workdir, "ball3.json", cfg)
    samples = SCHEDULE["K"] + 1
    sym = n * (n + 1) // 2
    ncols = {"S": 1, "g": sym, "h": sym, "rho2R-defect": 1, "rhoP-defect": 1,
             "tau-over-rho": 1, "gammahat": n * sym, "psi": n * sym,
             "detH-over-S": 1}
    while True:
        ray = ",".join(repr(c) for c in _sphere_point(rng, n, 0.99))
        state = {}
        rest = [q for q in SWEEP_QUANTITIES if q != "S"] + ["limits"]
        rng.shuffle(rest)
        cycle = []
        for q in ["S"] + rest:
            if q == "limits":
                argv = ["limits", "--config", path, "--expr", "S", f"--ray={ray}"]
                cycle.append(Operation(argv, _check_limits(state)))
            else:
                argv = ["sweep", "--config", path, "--quantity", q, f"--ray={ray}"]
                cycle.append(Operation(argv, _check_sweep(q, samples, ncols[q], state)))
        yield cycle


class Workload:
    """``cycles(seed, workdir)`` yields lists of operations; the timed loop
    stops only between cycles, so every run holds whole cycles."""

    def __init__(self, name, cycles, min_ops, required):
        self.name = name
        self.cycles = cycles
        self.min_ops = min_ops
        self.required = required


# Functions each workload is known to call; a traced run in which any of them
# records zero calls fails.
_COMMON = (
    "fieldexpr.evaluate", "fieldexpr.derivative_trees", "fieldexpr.parse_expression",
    "jets.jmul", "jets.jcontract", "jets.jpartial", "jets.jtranspose",
    "jets.jinv_matrix", "jets.jdet", "jets.jcompose",
    "boundary.make_ray", "boundary.richardson", "boundary.extrapolate_limit",
    "cli.load_config", "cli.format_json", "cli.GeometryContext",
    "geometry.leaf", "geometry.compose",
)

WORKLOADS = {
    "report-perturbed": Workload("report-perturbed", report_perturbed, 11,
                                 _COMMON + ("cli.run_certificates",)),
    "report-flat": Workload("report-flat", report_flat, 100,
                            _COMMON + ("cli.run_certificates",)),
    "sweep-ball3": Workload("sweep-ball3", sweep_ball3, 100,
                            _COMMON + ("cli.sweep_rows",)),
}
