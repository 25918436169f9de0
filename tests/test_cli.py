import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cprojective import cli

REPO = Path(__file__).resolve().parent.parent
BALL_CONFIG = REPO / "configs" / "ball.json"
FLAT_CONFIG = REPO / "configs" / "flat.json"
PERTURBED_CONFIG = REPO / "configs" / "perturbed_ball.json"


def run_cli(args):
    # the package is imported from src/, also when only pytest's own
    # pythonpath setting put it on the path of this process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "cprojective.cli"] + args,
                          capture_output=True, text=True, cwd=REPO, env=env)
    return proc


@pytest.fixture(scope="module")
def ball_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report") / "ball.json"
    code = cli.main(["report", "--config", str(BALL_CONFIG), "--out", str(out)])
    return code, out.read_text()


def test_ball_report_passes(ball_report):
    code, text = ball_report
    assert code == 0
    report = json.loads(text)
    assert all(c["verdict"] == "pass" for c in report["certificates"])


def test_report_schema(ball_report):
    _, text = ball_report
    report = json.loads(text)
    assert set(report) == {"meta", "certificates", "signature"}
    assert set(report["meta"]) == {"config-hash", "seed", "version"}
    assert set(report["signature"]) == {"metric", "levi"}
    for cert in report["certificates"]:
        assert set(cert) == {"name", "anchor", "verdict", "diagnostics"}
        assert cert["verdict"] in ("pass", "fail", "not-applicable")


def test_report_battery_order(ball_report):
    _, text = ball_report
    names = [c["name"] for c in json.loads(text)["certificates"]]
    assert names == [
        "hermitean-metric", "quasi-kahler", "levi", "metricity",
        "det-vs-scalar-curvature", "asymptotic-form", "volume-density",
        "scalar-boundary-constancy", "compactification-constant",
        "schouten-asymptotics", "curvature-asymptotics-order1",
        "curvature-asymptotics-order2", "einstein-residual",
        "tracefree-coefficients",
    ]


def test_every_certificate_carries_tolerance(ball_report):
    _, text = ball_report
    for cert in json.loads(text)["certificates"]:
        assert "tolerance" in cert["diagnostics"]


def test_report_deterministic(tmp_path, ball_report):
    _, first = ball_report
    out = tmp_path / "again.json"
    code = cli.main(["report", "--config", str(BALL_CONFIG), "--out", str(out)])
    assert code == 0
    assert out.read_text() == first


def test_ball_report_signature(ball_report):
    _, text = ball_report
    report = json.loads(text)
    assert report["signature"]["metric"] == [0, 4]
    assert report["signature"]["levi"] == [0, 1]


def test_wrong_constant_fails(tmp_path):
    cfg = json.loads(BALL_CONFIG.read_text())
    cfg["C"] = -2.0
    cfg["patch"]["points"] = cfg["patch"]["points"][:2]
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    code = cli.main(["report", "--config", str(path), "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    by_name = {c["name"]: c["verdict"] for c in report["certificates"]}
    assert by_name["asymptotic-form"] == "fail"


def test_flat_report(tmp_path):
    out = tmp_path / "flat.json"
    code = cli.main(["report", "--config", str(FLAT_CONFIG), "--out", str(out)])
    assert code == 1
    by_name = {c["name"]: c["verdict"]
               for c in json.loads(out.read_text())["certificates"]}
    assert by_name["levi"] == "fail"
    assert by_name["volume-density"] == "fail"
    assert by_name["scalar-boundary-constancy"] == "not-applicable"
    assert by_name["det-vs-scalar-curvature"] == "not-applicable"
    assert by_name["hermitean-metric"] == "pass"


def test_perturbed_report(tmp_path):
    out = tmp_path / "pert.json"
    code = cli.main(["report", "--config", str(PERTURBED_CONFIG),
                     "--out", str(out)])
    assert code == 1     # non-Einstein: the normal-solution certificate fails
    by_name = {c["name"]: c["verdict"]
               for c in json.loads(out.read_text())["certificates"]}
    assert by_name["einstein-residual"] == "fail"
    assert by_name["asymptotic-form"] == "pass"
    assert by_name["scalar-boundary-constancy"] == "pass"
    assert by_name["schouten-asymptotics"] == "pass"


def test_malformed_expression_exit_2(tmp_path):
    cfg = json.loads(BALL_CONFIG.read_text())
    cfg["rho"] = "1 - x1^2 +"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["report", "--config", str(path)])
    assert proc.returncode == 2
    assert "position" in proc.stderr


def test_missing_config_exit_2():
    proc = run_cli(["report", "--config", "/nonexistent/config.json"])
    assert proc.returncode == 2


def test_invalid_m_exit_2(tmp_path):
    path = tmp_path / "m1.json"
    path.write_text('{"m": 1}')
    proc = run_cli(["report", "--config", str(path)])
    assert proc.returncode == 2


def _set(path, value):
    def edit(cfg):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set(("schedule", "K"), "abc"),
    _set(("schedule", "K"), 1e400),
    _set(("schedule", "t0"), "abc"),
    _set(("schedule", "order"), None),
    _set(("seed",), "abc"),
    _set(("tolerances",), {"hermitean": "tiny"}),
    _set(("tolerances",), [1e-10]),
    _set(("schedule",), [0.1, 8, 3]),
    _set(("patch", "points"), [["a", 0, 0, 0]]),
    _set(("patch", "points"), [[None, 0, 0, 0]]),
    _set(("rho",), "1 - x1^2 - y1^2 - x2^2 - y2^2 + 1/0"),
    _set(("rho",), "1 - x1^2 - y1^2 - x2^2 - y2^2 + log(0-1)"),
    _set(("rho",), "1 - x1^2 - y1^2 - x2^2 - y2^2 + (0-8)^0.5"),
    _set(("rho",), "1 - x1^2 - y1^2 - x2^2 - y2^2 + exp(710)"),
    _set(("rho",), "1 - x1^2 - y1^2 - x2^2 - y2^2 + 10^400"),
], ids=["K-text", "K-inf", "t0-text", "order-null", "seed-text", "tolerance-text",
        "tolerances-list", "schedule-list", "patch-text", "patch-null",
        "rho-div-zero", "rho-log-negative", "rho-negative-root", "rho-exp-overflow",
        "rho-pow-overflow"])
def test_bad_config_value_exit_2(tmp_path, capsys, edit):
    cfg = json.loads(BALL_CONFIG.read_text())
    edit(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["report", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("argv", [
    ["sweep", "--quantity", "S", "--ray", "0.99,zero,0,0"],
    ["sweep", "--quantity", "S", "--ray", "0.99,0,0,0;-1,0,x,0"],
    ["limits", "--expr", "S/0", "--ray", "0.99,0,0,0"],
])
def test_bad_command_line_value_exit_2(capsys, argv):
    argv = argv[:1] + ["--config", str(BALL_CONFIG)] + argv[1:]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_sweep_tau_over_rho(capsys):
    code = cli.main(["sweep", "--config", str(BALL_CONFIG),
                     "--quantity", "tau-over-rho", "--ray", "0.99,0,0,0"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("# quantity: tau-over-rho")
    assert lines[1] == "t,tau-over-rho"
    values = [float(line.split(",")[1]) for line in lines[2:]]
    assert len(values) == 9
    # converging to a nonzero constant
    assert abs(values[-1] - values[-2]) < 1e-9
    assert abs(values[-1]) > 0.1


def test_sweep_scalar_curvature(capsys):
    code = cli.main(["sweep", "--config", str(BALL_CONFIG),
                     "--quantity", "S", "--ray", "0.99,0,0,0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = [float(line.split(",")[1]) for line in lines[2:]]
    assert all(abs(v - 6.0) < 1e-8 for v in values)


def test_sweep_flat_scalar_zeros(capsys):
    code = cli.main(["sweep", "--config", str(FLAT_CONFIG),
                     "--quantity", "S", "--ray", "0,0.3,0.1,0.2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = [float(line.split(",")[1]) for line in lines[2:]]
    assert all(v == 0.0 for v in values)


def test_sweep_unknown_quantity():
    proc = run_cli(["sweep", "--config", str(BALL_CONFIG),
                    "--quantity", "nope", "--ray", "0.99,0,0,0"])
    assert proc.returncode == 2


def test_sweep_components_header(capsys):
    code = cli.main(["sweep", "--config", str(BALL_CONFIG),
                     "--quantity", "g", "--ray", "0.99,0,0,0"])
    assert code == 0
    header = capsys.readouterr().out.strip().splitlines()[1]
    assert header.split(",")[1] == "g[x1:x1]"
    assert len(header.split(",")) == 11     # t + 10 symmetric components


@pytest.mark.parametrize("quantity", ["h", "rho2R-defect", "rhoP-defect",
                                      "detH-over-S", "gammahat", "psi"])
def test_sweep_all_quantities_smoke(capsys, quantity):
    code = cli.main(["sweep", "--config", str(BALL_CONFIG),
                     "--quantity", quantity, "--ray", "0.99,0,0,0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11      # comment + header + 9 samples
    assert lines[0].startswith(f"# quantity: {quantity}")


def test_explicit_J_matrix_config(tmp_path):
    cfg = json.loads(BALL_CONFIG.read_text())
    J = [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
         ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]
    cfg["J"] = J
    cfg["patch"]["points"] = cfg["patch"]["points"][:2]
    path = tmp_path / "jmatrix.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    code = cli.main(["report", "--config", str(path), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert all(c["verdict"] != "fail" for c in report["certificates"])


def test_J_not_squaring_to_minus_one_exit_2(tmp_path, capsys):
    cfg = json.loads(BALL_CONFIG.read_text())
    cfg["J"] = [["0", "-1", "0", "0"], ["2", "0", "0", "0"],
                ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]
    path = tmp_path / "badJ.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["report", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: 'J' does not square to -1")
    assert "max |J^2 + I| = 1.000e+00" in captured.err


def test_power_overflow_along_a_ray_exit_3(tmp_path, capsys):
    """x1^2 overflows at x1 = 1e155: an evaluation error, not a traceback."""
    cfg = json.loads(BALL_CONFIG.read_text())
    cfg["rho"] += " + (1 + 1e-300*x1)^400"
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["sweep", "--config", str(path), "--quantity", "S",
                     "--ray", "1e155,0,0,0"])
    assert code == 3
    assert capsys.readouterr().err == \
        "evaluation error: EvaluationDomainError: power overflow\n"


def test_report_leaves_no_cyclic_garbage(capsys):
    """Everything a report builds is freed by reference counting, so
    repeated in-process reports do not pile up garbage between collections."""
    argv = ["report", "--config", str(FLAT_CONFIG)]
    cli.main(argv)
    gc.collect()
    gc.disable()
    try:
        cli.main(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_limits_scalar_curvature(capsys):
    code = cli.main(["limits", "--config", str(BALL_CONFIG),
                     "--expr", "S", "--ray", "0.99,0,0,0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert abs(payload["value"] - 6.0) < 1e-6


def test_limits_divergent(capsys):
    code = cli.main(["limits", "--config", str(BALL_CONFIG),
                     "--expr", "1/rho", "--ray", "0.99,0,0,0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is False


def test_limits_affine_expression(capsys):
    code = cli.main(["limits", "--config", str(BALL_CONFIG),
                     "--expr", "0*S + 2", "--ray", "0.99,0,0,0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 2.0
    assert payload["error_estimate"] < 1e-14


def test_sweep_with_explicit_direction(capsys):
    code = cli.main(["sweep", "--config", str(BALL_CONFIG), "--quantity", "S",
                     "--ray", "0.99,0,0,0;-1,0,0,0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = [float(line.split(",")[1]) for line in lines[2:]]
    assert all(abs(v - 6.0) < 1e-8 for v in values)


def test_outward_direction_rejected():
    proc = run_cli(["sweep", "--config", str(BALL_CONFIG), "--quantity", "S",
                    "--ray", "0.99,0,0,0;1,0,0,0"])
    assert proc.returncode == 3        # boundary error: not an inward ray


def test_degenerate_patch_point_partial_report(tmp_path):
    cfg = json.loads(BALL_CONFIG.read_text())
    cfg["patch"]["points"] = [[0.0, 0.0, 0.0, 0.0]]   # gradient vanishes
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    code = cli.main(["report", "--config", str(path), "--out", str(out)])
    assert code == 3
    report = json.loads(out.read_text())
    assert "error" in report
    # the pointwise certificates before the boundary stage are still present
    names = [c["name"] for c in report["certificates"]]
    assert "hermitean-metric" in names and "quasi-kahler" in names


def test_limits_tau_over_rho(capsys):
    code = cli.main(["limits", "--config", str(BALL_CONFIG),
                     "--expr", "tau/rho", "--ray", "0.99,0,0,0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert abs(payload["value"] - 16.0 ** (-1.0 / 3.0)) < 1e-9


def test_limits_parse_error():
    proc = run_cli(["limits", "--config", str(BALL_CONFIG),
                    "--expr", "S +", "--ray", "0.99,0,0,0"])
    assert proc.returncode == 2


def test_console_script_entry_point():
    proc = run_cli(["report", "--config", str(FLAT_CONFIG)])
    assert proc.returncode == 1
    json.loads(proc.stdout)     # stdout is the report itself
