import contextlib
import io
import json

import numpy as np
import pytest

from curveavg import cli, load_snapshot
from curveavg.cli import main
from curveavg.sweep import DEFAULT_SLOPE_TOLS

CFG = """
[curve]
n = 3

[construction]
rho = 0.5
c0 = 0.7
delta = 0.9
aperture = 0.95

[grid]
policy = windowed

[experiment]
lambdas = 16 32 64
ps = 4
time_nodes = 5
epsilon = 0.3
checks = orthogonality

[output]
svg = on
"""


def write_cfg(tmp_path, text=CFG):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("curveavg ")


def test_cone_verify(tmp_path, capsys):
    assert main(["cone-verify", "--out", str(tmp_path)]) == 0
    assert "worst residual" in capsys.readouterr().out
    lines = (tmp_path / "cone.csv").read_text().splitlines()
    assert lines[0] == ("tau,scale,theta,theta_residual,theta_homogeneity,"
                        "phi_homogeneity,closed_form_error")
    assert len(lines) == 1 + 17 * 2   # 17 rays x 2 scales
    for line in lines[1:]:
        cols = [float(v) for v in line.split(",")]
        assert max(cols[3:]) <= 1e-12
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "cone-verify"
    assert any(a.endswith("cone.csv") for a in manifest["artifacts"])
    assert manifest["wall_s"] > 0


def test_cone_verify_perturbed_curve(tmp_path, capsys):
    # the closed form holds for the moment curve only: a perturbed curve
    # leaves its column empty and is judged on residual and homogeneity
    cfg = write_cfg(tmp_path, "[curve]\nn = 3\nkind = perturbed-moment\n"
                              "perturb1 = 0 0 0 0 0.02\n")
    assert main(["cone-verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "cone.csv").read_text().splitlines()
    assert all(line.endswith(",") for line in lines[1:])


def test_multiplier_verify(tmp_path):
    cfg = write_cfg(tmp_path, CFG.replace("lambdas = 16 32 64", "lambdas = 64"))
    assert main(["multiplier-verify", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "multiplier.csv").read_text().splitlines()
    assert lines[0] == "lambda,t,direction,|mu_hat|,deficit,ratio_to_rate"
    assert len(lines) == 1 + 1 * 3 * 3   # one lambda, three times, three rays
    for line in lines[1:]:
        cols = line.split(",")
        assert len(cols[2].split(";")) == 3   # unit direction, one value per axis
        assert float(cols[3]) > 0 and float(cols[5]) > 0


def test_synthesize_writes_snapshots(tmp_path):
    cfg = write_cfg(tmp_path, CFG.replace("lambdas = 16 32 64", "lambdas = 16 32"))
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == 0
    for lam in (16, 32):
        field, got_lam = load_snapshot(tmp_path / f"field_lambda{lam}.bin")
        assert got_lam == float(lam)
        assert field.l2() > 0
    lines = (tmp_path / "norms.csv").read_text().splitlines()
    assert lines[0] == "lambda,p,input_norm"
    assert len(lines) == 1 + 2 * 2   # two lambdas x p in {2, 4}


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = main(["sweep", "--config", write_cfg(tmp), "--out", str(tmp)])
    return tmp, status, stdout.getvalue()


def test_sweep_passes_and_writes_artifacts(sweep_dir):
    tmp, status, _ = sweep_dir
    assert status == 0
    for name in ("report.json", "sweep.csv", "slopes.csv", "loglog.svg",
                 "manifest.json"):
        assert (tmp / name).exists(), name
    # field snapshots come from `curveavg synthesize` only
    assert not list(tmp.glob("field_lambda*.bin"))

    report = json.loads((tmp / "report.json").read_text())
    assert all(c["passed"] for c in report["checks"])
    assert [c["lam"] for c in report["cells"]] == [16.0, 32.0, 64.0]

    rows = (tmp / "sweep.csv").read_text().splitlines()
    assert rows[0] == "lambda,p,input_norm,output_norm,quotient"
    assert len(rows) == 1 + 3

    slope_rows = (tmp / "slopes.csv").read_text().splitlines()
    assert slope_rows[0] == "p,series,slope,intercept,max_residual,expected,gap"
    assert len(slope_rows) == 1 + 3   # input/output/quotient for p=4


def test_report_rerenders(sweep_dir, capsys):
    tmp, _, _ = sweep_dir
    assert main(["report", "--out", str(tmp)]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out and "orthogonality" in out


def test_report_prints_the_sweep_stdout(sweep_dir, capsys):
    tmp, _, swept = sweep_dir
    assert main(["report", "--out", str(tmp)]) == 0
    assert capsys.readouterr().out == swept


def test_report_leaves_the_sweep_manifest(sweep_dir, capsys):
    # report only re-renders: the sweep's manifest, with its config and
    # artifacts, stays byte for byte
    tmp, _, _ = sweep_dir
    before = (tmp / "manifest.json").read_bytes()
    assert main(["report", "--out", str(tmp)]) == 0
    capsys.readouterr()
    assert (tmp / "manifest.json").read_bytes() == before
    manifest = json.loads(before)
    assert manifest["command"] == "sweep"
    assert manifest["config"]["rho"] == 0.5 and len(manifest["artifacts"]) == 4


def test_report_strict_fails_on_red(sweep_dir, tmp_path, capsys):
    tmp, _, _ = sweep_dir
    payload = json.loads((tmp / "report.json").read_text())
    payload["checks"][0]["passed"] = False
    (tmp_path / "report.json").write_text(json.dumps(payload))
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert main(["report", "--out", str(tmp_path), "--strict"]) == 1
    capsys.readouterr()


def test_strict_fails_on_warnings_in_sweep_and_report(tmp_path, monkeypatch,
                                                      capsys):
    # a quotient trend that does not fall warns; --strict fails on it in
    # sweep and in report alike, and report prints what sweep printed
    real = cli.sharpness_sweep

    def rising(cfg, slope_tols=None):
        return {**real(cfg, slope_tols), "quotient_monotone": False}

    monkeypatch.setattr(cli, "sharpness_sweep", rising)
    cfg = write_cfg(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path),
                 "--strict"]) == 1
    swept = capsys.readouterr().out
    assert swept.endswith(
        "overall: PASS\nwarning: quotient trend not decreasing in lambda\n")
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == swept
    assert main(["report", "--out", str(tmp_path), "--strict"]) == 1
    capsys.readouterr()


def test_bad_config_yields_error_record(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CFG.replace("rho = 0.5", "rho = 3.0"))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "rho" in capsys.readouterr().err
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["command"] == "sweep"
    assert "rho" in record["message"]


def test_lambda_max_can_starve_the_fit(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path),
                 "--lambda-max", "32"]) == 2
    record = json.loads((tmp_path / "error.json").read_text())
    assert "3 lambda" in record["message"]
    capsys.readouterr()


def test_lambda_max_only_widens_slope_bands(tmp_path, monkeypatch, capsys):
    # fits over fewer dyadic points carry more bias: every band must be at
    # least as wide as its default (input/output 0.1, quotient 0.05)
    seen = []

    class Captured(Exception):
        pass

    def capture(cfg, slope_tols=None):
        seen.append(slope_tols)
        raise Captured

    monkeypatch.setattr(cli, "sharpness_sweep", capture)
    cfg = write_cfg(tmp_path, CFG.replace("lambdas = 16 32 64",
                                          "lambdas = 16 32 64 128"))
    with pytest.raises(Captured):
        main(["sweep", "--config", cfg, "--out", str(tmp_path),
              "--lambda-max", "64"])
    tols = seen[0]
    assert set(tols) == set(DEFAULT_SLOPE_TOLS)
    for series, default in DEFAULT_SLOPE_TOLS.items():
        assert tols[series] >= max(default, 0.08), series
    with pytest.raises(Captured):
        main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert seen[1] is None   # nothing dropped: the default bands
    capsys.readouterr()


def test_report_without_sweep(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 2
    record = json.loads((tmp_path / "error.json").read_text())
    assert "run sweep first" in record["message"]
    capsys.readouterr()
