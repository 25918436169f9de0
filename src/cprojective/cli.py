"""Configuration-driven command line: certificate reports, ray sweeps and
boundary limits.

Subcommands:
    report --config FILE [--out FILE]
    sweep  --config FILE --quantity NAME --ray "b1,..,bn[;v1,..,vn]" [--out FILE]
    limits --config FILE --expr EXPR --ray "b1,..,bn[;v1,..,vn]"

Reports are deterministic JSON (stable key order, 17-significant-digit
floats): two runs on the same config are byte-identical.  Exit codes:
0 all applicable certificates pass, 1 certificate failure, 2 configuration
error, 3 runtime evaluation error (partial report still emitted).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys

import numpy as np

from . import __version__
from . import boundary as bd
from . import cproj as cp
from . import fieldexpr as fx
from . import geometry as geo
from . import tractor as tr


class ConfigError(ValueError):
    pass


DEFAULT_TOLERANCES = {
    "hermitean": 1e-10,
    "quasi_kahler": 1e-8,
    "levi_nondegeneracy": 1e-8,
    "metricity": 1e-9,
    "det_vs_scalar": 1e-6,
    "asymptotic_form": 1e-6,
    "volume_density": 1e-6,
    "scalar_constancy": 1e-5,
    "compactification_constant": 1e-6,
    "schouten": 1e-6,
    "curvature_order1": 1e-6,
    "curvature_order2": 1e-5,
    "einstein": 1e-9,
    "psi": 1e-5,
}


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")
    return validate_config(raw)


def validate_config(raw):
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = {}
    m = raw.get("m")
    if not isinstance(m, int) or m < 2:
        raise ConfigError("'m' must be an integer >= 2")
    cfg["m"] = m
    chart = fx.Chart(m)
    cfg["chart"] = chart

    jspec = raw.get("J", "standard")
    if jspec == "standard":
        cfg["J"] = geo.standard_J(chart)
    elif isinstance(jspec, list):
        comps = _parse_expr_matrix(jspec, chart, "J")
        cfg["J"] = geo.AlmostComplexStructure(chart, comps)
    else:
        raise ConfigError("'J' must be \"standard\" or a matrix of expressions")

    rho_text = raw.get("rho")
    cfg["rho_expr"] = None
    if rho_text is not None:
        if not isinstance(rho_text, str):
            raise ConfigError("'rho' must be an expression string")
        cfg["rho_expr"] = _parse_expr(rho_text, chart, "'rho'")

    metric = raw.get("metric", "from-rho")
    if metric == "from-rho":
        if cfg["rho_expr"] is None:
            raise ConfigError("metric 'from-rho' requires a 'rho' expression")
        cfg["metric_source"] = "from-rho"
    elif isinstance(metric, dict) and metric.get("type") == "explicit":
        comps = _parse_expr_matrix(metric.get("components"), chart, "metric")
        cfg["metric_source"] = "explicit"
        cfg["metric_components"] = comps
    else:
        raise ConfigError("'metric' must be \"from-rho\" or "
                          "{\"type\": \"explicit\", \"components\": [[...]]}")

    C = raw.get("C")
    if C is not None and not isinstance(C, (int, float)):
        raise ConfigError("'C' must be a number")
    cfg["C"] = None if C is None else float(C)

    patch = raw.get("patch", {})
    points = patch.get("points", []) if isinstance(patch, dict) else None
    if points is None or not isinstance(points, list):
        raise ConfigError("'patch' must be {\"points\": [[...], ...]}")
    for p in points:
        if not isinstance(p, list) or len(p) != chart.n:
            raise ConfigError(f"patch points must have length {chart.n}")
    cfg["patch_points"] = [_number(p, _float_vector, "patch point coordinates")
                           for p in points]

    sched = raw.get("schedule", {})
    if not isinstance(sched, dict):
        raise ConfigError("'schedule' must be {\"t0\": ..., \"K\": ..., \"order\": ...}")
    cfg["t0"] = _number(sched.get("t0", 0.1), float, "'schedule.t0'")
    cfg["K"] = _number(sched.get("K", 8), int, "'schedule.K'")
    cfg["order"] = _number(sched.get("order", 3), int, "'schedule.order'")
    if cfg["K"] < cfg["order"] + 1:
        raise ConfigError("schedule needs K >= order + 1")

    tols = dict(DEFAULT_TOLERANCES)
    overrides = raw.get("tolerances") or {}
    if not isinstance(overrides, dict):
        raise ConfigError("'tolerances' must be an object of named tolerances")
    for key, val in overrides.items():
        if key not in tols:
            raise ConfigError(f"unknown tolerance key {key!r}")
        tols[key] = _number(val, float, f"tolerance {key!r}")
    cfg["tolerances"] = tols
    cfg["seed"] = _number(raw.get("seed", 1234), int, "'seed'")
    cfg["raw"] = raw
    if isinstance(jspec, list):
        _check_complex_structure(cfg["J"], interior_points(cfg))
    return cfg


def interior_points(cfg):
    """The seeded interior sample points of a config, as a (20, n) batch."""
    rho = cfg["rho_expr"]
    return geo.seeded_points(cfg["chart"], count=20, seed=cfg["seed"],
                             radius=0.6 if rho is not None else 0.5,
                             rho=rho, rho_min=0.05)


def _check_complex_structure(J, points, tol=1e-8):
    """An explicit J must square to -1; checked at the seeded points."""
    Jm = J.field.value(points)
    residual = float(np.abs(Jm @ Jm + np.eye(Jm.shape[-1])).max())
    if not residual <= tol:
        raise ConfigError(f"'J' does not square to -1: max |J^2 + I| = "
                          f"{residual:.3e} at the seeded points")


def _number(value, convert, what):
    """convert(value) for a numeric config entry; a value it rejects is a
    config error, not a runtime one."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be numeric, got {value!r}") from None


def _float_vector(values):
    return np.array([float(v) for v in values])


def _parse_expr(text, names, what):
    """Parse a config expression.  Constant folding evaluates constant
    subexpressions, so a constant outside its domain (1/0, log(0-1)) is
    reported here as a config error."""
    try:
        return fx.parse_expression(text, names)
    except fx.ParseError as err:
        raise ConfigError(f"{what} does not parse: {err}") from None
    except ArithmeticError as err:
        raise ConfigError(f"{what} has a constant outside its domain: {err}") from None


def _parse_expr_matrix(rows, chart, what):
    n = chart.n
    if not isinstance(rows, list) or len(rows) != n \
            or any(not isinstance(r, list) or len(r) != n for r in rows):
        raise ConfigError(f"'{what}' must be an {n}x{n} matrix of expression strings")
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            comps[i, j] = _parse_expr(str(rows[i][j]), chart, f"'{what}'[{i}][{j}]")
    return comps


class GeometryContext:
    """Everything the certificate battery needs, built lazily from a config."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.chart = cfg["chart"]
        self.J = cfg["J"]
        self.rho = (bd.DefiningFunction(self.chart, cfg["rho_expr"])
                    if cfg["rho_expr"] is not None else None)
        if cfg["metric_source"] == "from-rho":
            self.g = bd.defining_metric(self.rho, self.J)
        else:
            self.g = geo.tensor_from_exprs(self.chart, cfg["metric_components"],
                                           (-1, -1), 0.0, "g")
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def points(self):
        return self._get("points", lambda: interior_points(self.cfg))

    @property
    def conn(self):
        return self._get("conn", lambda: geo.canonical_connection(
            self.g, self.J, self.points,
            tol=self.cfg["tolerances"]["quasi_kahler"]))

    @property
    def scale(self):
        return self._get("scale", lambda: tr.scale_from_connection(
            self.conn, self.J, self.g))

    @property
    def R(self):
        return self._get("R", lambda: geo.curvature(self.conn))

    @property
    def S(self):
        return self._get("S", lambda: geo.scalar_curvature(
            self.g, geo.ricci(self.R)))

    @property
    def tau(self):
        return self._get("tau", lambda: geo.volume_density_and_tau(self.g)[1])

    @property
    def sigma(self):
        return self._get("sigma", lambda: tr.metric_sigma(self.g, self.tau))

    @property
    def rays(self):
        def build():
            if self.rho is None:
                return []
            return [bd.make_ray(self.rho, p, t0=self.cfg["t0"], K=self.cfg["K"])
                    for p in self.cfg["patch_points"]]
        return self._get("rays", build)

    @property
    def conn_hat(self):
        return self._get("conn_hat", lambda: cp.modified_connection_for_defining_function(
            self.conn, self.cfg["rho_expr"], self.J))

    @property
    def C(self):
        if self.cfg["C"] is not None:
            return self.cfg["C"]
        if self.cfg["metric_source"] == "from-rho":
            return -1.0
        return None

    def integrable(self):
        if self.J.is_constant:
            return True
        N = geo.nijenhuis(self.J)
        return bool((geo.max_abs_per_point(N.value(self.points[:5])) < 1e-10).all())


def _cert_entry(name, anchor, verdict, diagnostics):
    return {"name": name, "anchor": anchor, "verdict": verdict,
            "diagnostics": diagnostics}


def run_certificates(ctx: GeometryContext, entries=None):
    """The full battery, in order; appends to `entries` as it goes so a
    runtime failure still leaves a partial report."""
    tol = ctx.cfg["tolerances"]
    order = ctx.cfg["order"]
    if entries is None:
        entries = []

    def push(name, anchor, passed, applicable=True, **diag):
        verdict = "pass" if passed else "fail"
        if not applicable:
            verdict = "not-applicable"
        entries.append(_cert_entry(name, anchor, verdict, diag))
        return verdict

    # 1. Hermitean metric
    herm = geo.hermitean_metric_residual(ctx.g, ctx.J, ctx.points)
    push("hermitean-metric", "metric-hermitean-for-J", herm < tol["hermitean"],
         residual=herm, tolerance=tol["hermitean"])

    # 2. quasi-Kahler class
    ok, residual = geo.quasi_kahler_check(ctx.g, ctx.J, ctx.points,
                                          tol["quasi_kahler"])
    push("quasi-kahler", "admissible-metric-class", ok,
         residual=residual, tolerance=tol["quasi_kahler"])

    # 3. Levi checks
    if ctx.rho is not None:
        rep = bd.levi_checks(ctx.rho, ctx.J, ctx.cfg["patch_points"],
                             nondeg_threshold=tol["levi_nondegeneracy"])
        push("levi", "boundary-cr-nondegeneracy", rep.nondegenerate
             and rep.hermitean_residual < 1e-8 and rep.tangential_residual < 1e-8,
             min_levi_eigenvalue=rep.min_levi_eigenvalue,
             signature=list(rep.signature),
             hermitean_residual=rep.hermitean_residual,
             tangential_residual=rep.tangential_residual,
             tolerance=tol["levi_nondegeneracy"])
        levi_signature = list(rep.signature)
    else:
        push("levi", "boundary-cr-nondegeneracy", False, applicable=False,
             note="no defining function configured")
        levi_signature = None

    # 4. metricity residual
    res_field = tr.metricity_residual(ctx.sigma, ctx.conn)
    res = geo.max_abs_over_points(res_field, ctx.points)
    push("metricity", "metricity-equation", res < tol["metricity"],
         residual=res, tolerance=tol["metricity"])

    # 5. det H proportional to S
    L = tr.splitting_L_sigma(ctx.sigma, ctx.scale)
    detH = tr.det_H(L)
    s_vals = ctx.S.value(ctx.points)
    applicable = not (np.abs(s_vals) < 1e-12).any()
    ratios = (detH.value(ctx.points) / s_vals).tolist() if applicable else []
    if applicable and ratios:
        mean = float(np.mean(ratios))
        spread = (max(ratios) - min(ratios)) / abs(mean) if mean != 0 else math.inf
        push("det-vs-scalar-curvature", "gram-determinant-vs-scalar-curvature",
             spread < tol["det_vs_scalar"], relative_spread=spread,
             ratio=mean, tolerance=tol["det_vs_scalar"])
    else:
        push("det-vs-scalar-curvature", "gram-determinant-vs-scalar-curvature",
             False, applicable=False, note="scalar curvature vanishes")

    boundary_ready = ctx.rho is not None and ctx.rays and ctx.C is not None

    # 6. asymptotic form
    if boundary_ready:
        cert = bd.certify_asymptotic_form(ctx.g, ctx.rho, ctx.J, ctx.C,
                                          ctx.rays, tol["asymptotic_form"], order)
        push("asymptotic-form", "compactness-normal-form", cert.passed,
             **cert.diagnostics)
    else:
        push("asymptotic-form", "compactness-normal-form", False,
             applicable=False, note="needs rho, rays and a constant C")

    # 7. volume density
    if ctx.rho is not None and ctx.rays:
        cert = bd.certify_volume_density(ctx.tau, ctx.rho, ctx.rays,
                                         tol["volume_density"], order)
        push("volume-density", "defining-density-volume-growth", cert.passed,
             **cert.diagnostics)
    else:
        push("volume-density", "defining-density-volume-growth", False,
             applicable=False, note="needs rho and rays")

    # 8. scalar boundary constancy
    if ctx.rho is not None and ctx.rays:
        cert = bd.scalar_boundary_constancy(ctx.S, ctx.rays,
                                            tol["scalar_constancy"], order)
        push("scalar-boundary-constancy", "boundary-scalar-constancy",
             cert.passed, applicable=cert.applicable, **cert.diagnostics)
    else:
        push("scalar-boundary-constancy", "boundary-scalar-constancy", False,
             applicable=False, note="needs rho and rays")

    # 9. compactification constant
    if boundary_ready:
        est = bd.compactification_constant(ctx.g, ctx.scale.P, ctx.rays,
                                           tol["compactification_constant"], order)
        passed = est.converged and abs(est.value - ctx.C) < \
            max(tol["compactification_constant"], 10 * est.error_estimate)
        push("compactification-constant", "normal-form-constant", passed,
             value=est.value, expected=ctx.C, error_estimate=est.error_estimate,
             tolerance=tol["compactification_constant"])
    else:
        push("compactification-constant", "normal-form-constant", False,
             applicable=False, note="needs rho, rays and a constant C")

    # 10. Schouten asymptotics
    if ctx.rho is not None and ctx.rays:
        cert = bd.certify_schouten_asymptotics(ctx.scale.decomposition, ctx.rho,
                                               ctx.conn_hat, ctx.J, ctx.rays,
                                               tol["schouten"], order)
        push("schouten-asymptotics", "schouten-decay", cert.passed,
             **cert.diagnostics)
    else:
        push("schouten-asymptotics", "schouten-decay", False,
             applicable=False, note="needs rho and rays")

    # 11./12. curvature asymptotics
    if ctx.rho is not None and ctx.rays:
        cert = bd.certify_curvature_asymptotics(ctx.R, ctx.rho, ctx.J, ctx.rays,
                                                1, tol["curvature_order1"], order)
        push("curvature-asymptotics-order1", "curvature-decay-order1",
             cert.passed, **cert.diagnostics)
        if ctx.integrable():
            cert = bd.certify_curvature_asymptotics(ctx.R, ctx.rho, ctx.J,
                                                    ctx.rays, 2,
                                                    tol["curvature_order2"], order)
            push("curvature-asymptotics-order2", "curvature-decay-order2",
                 cert.passed, **cert.diagnostics)
        else:
            push("curvature-asymptotics-order2", "curvature-decay-order2",
                 False, applicable=False, note="complex structure not integrable")
    else:
        push("curvature-asymptotics-order1", "curvature-decay-order1", False,
             applicable=False, note="needs rho and rays")
        push("curvature-asymptotics-order2", "curvature-decay-order2", False,
             applicable=False, note="needs rho and rays")

    # 13. Einstein residual
    er_field = tr.einstein_residual(ctx.sigma, ctx.scale)
    er = geo.max_abs_over_points(er_field, ctx.points)
    push("einstein-residual", "normal-solution-einstein", er < tol["einstein"],
         residual=er, tolerance=tol["einstein"])

    # 14. Psi boundedness
    if ctx.rho is not None and ctx.rays:
        psi = cp.tracefree_coefficients(ctx.conn, ctx.J)
        cert = bd.psi_boundedness(ctx.conn, psi, ctx.rays, tol["psi"], order)
        push("tracefree-coefficients", "structure-extendability", cert.passed,
             **cert.diagnostics)
    else:
        push("tracefree-coefficients", "structure-extendability", False,
             applicable=False, note="needs rho and rays")

    all_pass = all(e["verdict"] != "fail" for e in entries)
    return entries, all_pass, levi_signature


def build_report(cfg):
    """Returns (report, all_pass, error).  On a runtime evaluation error the
    report still carries the certificates computed so far."""
    ctx = GeometryContext(cfg)
    meta = {
        "config-hash": hashlib.sha256(
            _canonical_json(cfg["raw"]).encode()).hexdigest(),
        "seed": cfg["seed"],
        "version": __version__,
    }
    entries = []
    error = None
    all_pass = False
    levi_signature = None
    try:
        _, all_pass, levi_signature = run_certificates(ctx, entries)
    except (fx.EvaluationDomainError, geo.GeometryError, bd.BoundaryError,
            tr.TractorError, np.linalg.LinAlgError, ZeroDivisionError) as err:
        error = f"{type(err).__name__}: {err}"
    report = {"meta": meta, "certificates": entries}
    if error is None:
        eigs = np.linalg.eigvalsh(ctx.g.value(ctx.points)[0])
        report["signature"] = {
            "metric": [int(np.sum(eigs > 0)), int(np.sum(eigs < 0))],
            "levi": levi_signature,
        }
    else:
        report["error"] = error
    return report, all_pass, error


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def format_json(obj, indent=0):
    """Deterministic JSON with 17-significant-digit floats and stable
    (insertion) key order; non-finite floats become strings."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {format_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}  {format_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return format(v, ".17g")
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _parse_ray_spec(text, ctx):
    if ctx.rho is None:
        raise ConfigError("ray evaluation needs a 'rho' in the config")
    parts = text.split(";")
    base = _number(parts[0].split(","), _float_vector, "ray base point")
    if base.size != ctx.chart.n:
        raise ConfigError(f"ray base point must have {ctx.chart.n} components")
    direction = None
    if len(parts) > 1 and parts[1].strip():
        direction = _number(parts[1].split(","), _float_vector, "ray direction")
        if direction.size != ctx.chart.n:
            raise ConfigError(f"ray direction must have {ctx.chart.n} components")
    return bd.make_ray(ctx.rho, base, direction,
                       t0=ctx.cfg["t0"], K=ctx.cfg["K"])


SWEEP_QUANTITIES = ("S", "g", "h", "rho2R-defect", "rhoP-defect",
                    "tau-over-rho", "gammahat", "psi", "detH-over-S")


def sweep_rows(ctx: GeometryContext, quantity, ray):
    """Header names and per-sample rows for a registered quantity, from one
    evaluation on the batch of the ray's samples."""
    n = ctx.chart.n
    names = ctx.chart.names
    sym_pairs = [(a, b) for a in range(n) for b in range(a, n)]
    anchor = {
        "S": "scalar-curvature",
        "g": "metric-components",
        "h": "compactness-normal-form",
        "rho2R-defect": "curvature-decay-order1",
        "rhoP-defect": "schouten-decay",
        "tau-over-rho": "defining-density-volume-growth",
        "gammahat": "compactified-connection",
        "psi": "structure-extendability",
        "detH-over-S": "gram-determinant-vs-scalar-curvature",
    }
    upper = np.triu_indices(n)
    # (c, a, b) for c in range(n) for a <= b, in column order
    coeff_index = tuple(np.array([(c, a, b) for c in range(n) for a, b in sym_pairs]).T)
    if quantity == "S":
        cols = ["S"]
        fn = lambda X: ctx.S.value(X)[:, None]
    elif quantity == "g":
        cols = [f"g[{names[a]}:{names[b]}]" for a, b in sym_pairs]
        fn = lambda X: ctx.g.value(X)[:, upper[0], upper[1]]
    elif quantity == "h":
        if ctx.C is None:
            raise ConfigError("quantity 'h' needs a constant C in the config")
        h = bd.asymptotic_smooth_part(ctx.g, ctx.rho, ctx.C, ctx.J)
        cols = [f"h[{names[a]}:{names[b]}]" for a, b in sym_pairs]
        fn = lambda X: h.value(X)[:, upper[0], upper[1]]
    elif quantity == "rho2R-defect":
        if ctx.C is None:
            raise ConfigError("quantity 'rho2R-defect' needs a constant C")
        defect = bd.curvature_defect(ctx.R, ctx.rho, ctx.J, 1)
        cols = ["max-abs-defect"]
        fn = lambda X: geo.max_abs_per_point(defect.value(X))[:, None]
    elif quantity == "rhoP-defect":
        defect = bd.schouten_defect(ctx.scale.P, ctx.rho, ctx.conn_hat, ctx.J)
        cols = ["max-abs-defect"]
        fn = lambda X: geo.max_abs_per_point(defect.value(X))[:, None]
    elif quantity == "tau-over-rho":
        cols = ["tau-over-rho"]
        fn = lambda X: (ctx.tau.value(X) / ctx.rho.value(X))[:, None]
    elif quantity == "gammahat":
        cols = [f"Ghat[{names[c]}:{names[a]}:{names[b]}]"
                for c in range(n) for a, b in sym_pairs]
        fn = lambda X: ctx.conn_hat.value(X)[(slice(None),) + coeff_index]
    elif quantity == "psi":
        psi = cp.tracefree_coefficients(ctx.conn, ctx.J)
        cols = [f"Psi[{names[c]}:{names[a]}:{names[b]}]"
                for c in range(n) for a, b in sym_pairs]
        fn = lambda X: psi.value(X)[(slice(None),) + coeff_index]
    elif quantity == "detH-over-S":
        L = tr.splitting_L_sigma(ctx.sigma, ctx.scale)
        detH = tr.det_H(L)
        cols = ["detH-over-S"]
        fn = lambda X: (detH.value(X) / ctx.S.value(X))[:, None]
    else:
        raise ConfigError(f"unknown quantity {quantity!r}; choose from "
                          + ", ".join(SWEEP_QUANTITIES))
    rows = [[t] + values for t, values in zip(ray.ts(), fn(ray.points()).tolist())]
    return anchor[quantity], cols, rows


LIMIT_SCALARS = ("S", "rho", "tau")


class _LimitNames:
    names = LIMIT_SCALARS


def cmd_report(config_path, out_path=None):
    cfg = load_config(config_path)
    report, all_pass, error = build_report(cfg)
    _emit(format_json(report) + "\n", out_path)
    if error is not None:
        return 3
    return 0 if all_pass else 1


def cmd_sweep(config_path, quantity, ray_text, out_path=None):
    cfg = load_config(config_path)
    ctx = GeometryContext(cfg)
    ray = _parse_ray_spec(ray_text, ctx)
    anchor, cols, rows = sweep_rows(ctx, quantity, ray)
    buf = io.StringIO()
    buf.write(f"# quantity: {quantity}; anchor: {anchor}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + cols)
    for row in rows:
        writer.writerow([format(v, ".17g") for v in row])
    _emit(buf.getvalue(), out_path)
    return 0


def cmd_limits(config_path, expr_text, ray_text):
    cfg = load_config(config_path)
    ctx = GeometryContext(cfg)
    ray = _parse_ray_spec(ray_text, ctx)
    expr = _parse_expr(expr_text, _LimitNames(), "limit expression")

    def fn(x):
        scalars = [ctx.S.value(x), ctx.rho.value(x), ctx.tau.value(x)]
        return fx.evaluate(expr, np.stack(scalars, axis=-1))

    est, = bd.limits_along_rays(fn, [ray], tol=1e-8, order=cfg["order"])
    payload = {
        "expression": expr_text,
        "value": est.value,
        "error_estimate": est.error_estimate,
        "converged": est.converged,
        "samples_used": est.samples_used,
    }
    _emit(format_json(payload) + "\n", None)
    return 0


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.lru_cache(maxsize=None)
def _argument_parser():
    """Built once per process: an argparse parser is a web of reference
    cycles, and one built per call would be garbage that only the cyclic
    collector frees."""
    parser = argparse.ArgumentParser(
        prog="cprojective",
        description="Certify compactification asymptotics of Hermitean metrics "
                    "built from defining functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="run the certificate battery")
    p_report.add_argument("--config", required=True)
    p_report.add_argument("--out")

    p_sweep = sub.add_parser("sweep", help="tabulate a quantity along a ray")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--quantity", required=True)
    p_sweep.add_argument("--ray", required=True,
                         help='"b1,..,bn" or "b1,..,bn;v1,..,vn"')
    p_sweep.add_argument("--out")

    p_limits = sub.add_parser("limits", help="extrapolate a scalar expression")
    p_limits.add_argument("--config", required=True)
    p_limits.add_argument("--expr", required=True)
    p_limits.add_argument("--ray", required=True)

    return parser


def main(argv=None):
    parser = _argument_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.config, args.out)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.quantity, args.ray, args.out)
        if args.command == "limits":
            return cmd_limits(args.config, args.expr, args.ray)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (fx.EvaluationDomainError, geo.GeometryError, bd.BoundaryError,
            tr.TractorError, np.linalg.LinAlgError, ZeroDivisionError) as err:
        print(f"evaluation error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
