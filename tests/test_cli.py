import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import ACCEPTANCE_CONFIG
from curveavg import DomainError, cli
from curveavg import sweep as sweep_module
from curveavg.cli import main
from curveavg.sweep import DEFAULT_SLOPE_TOLS
from curveavg.verify import load_snapshot

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
    assert lines[0] == ("lambda,t,direction,|mu_hat|,deficit_leading,"
                        "ratio_to_rate")
    assert len(lines) == 1 + 1 * 3 * 3   # one lambda, three times, three rays
    for line in lines[1:]:
        cols = line.split(",")
        assert len(cols[2].split(";")) == 3   # unit direction, one value per axis
        assert float(cols[3]) > 0 and float(cols[5]) > 0
        if cols[2] == "0;0;1":
            # the gap to the leading term, not the constant-factor gap to
            # alpha_n chi (t u_n)^{-1/n}, which stays near |m| / 2
            assert float(cols[4]) < 0.1 * float(cols[3])


def test_synthesize_writes_snapshots(tmp_path):
    cfg = write_cfg(tmp_path, CFG.replace("lambdas = 16 32 64", "lambdas = 16 32"))
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == 0
    for lam in (16, 32):
        field, got_lam = load_snapshot(tmp_path / f"field_lambda{lam}.bin")
        assert got_lam == float(lam)
        assert (np.abs(field.coeffs) ** 2).sum() > 0
    lines = (tmp_path / "norms.csv").read_text().splitlines()
    assert lines[0] == "lambda,p,input_norm"
    assert len(lines) == 1 + 2 * 2   # two lambdas x p in {2, 4}


def test_lambdas_need_not_be_powers_of_two(tmp_path, capsys):
    # a sweep over three non-dyadic lambdas runs and passes; synthesize
    # names the snapshot of each distinct lambda apart, an integer one as
    # before
    cfg = write_cfg(tmp_path, CFG.replace("lambdas = 16 32 64",
                                          "lambdas = 20 28.5 45"))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    cfg = write_cfg(tmp_path, CFG.replace("lambdas = 16 32 64",
                                          "lambdas = 16 16.5"))
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == 0
    for name, lam in (("16", 16.0), ("16.5", 16.5)):
        assert load_snapshot(tmp_path / f"field_lambda{name}.bin")[1] == lam
    capsys.readouterr()


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


def test_report_rebuilds_the_sweep_tables(sweep_dir, tmp_path, capsys):
    # from report.json alone, report writes sweep.csv, slopes.csv and
    # loglog.svg byte for byte as the sweep did; the plot only when the
    # config echo asks for it
    tmp, _, _ = sweep_dir
    names = ("sweep.csv", "slopes.csv", "loglog.svg")
    payload = json.loads((tmp / "report.json").read_text())
    for svg in (True, False):
        out = tmp_path / f"svg{svg}"
        out.mkdir()
        payload["config"]["svg"] = svg
        (out / "report.json").write_text(json.dumps(payload))
        assert main(["report", "--out", str(out)]) == 0
        for name in names[:2 + svg]:
            assert (out / name).read_bytes() == (tmp / name).read_bytes(), name
        assert (out / "loglog.svg").exists() == svg
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ("report.json",) + names[:2 + svg])
    capsys.readouterr()


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


def test_forked_cell_error_reads_as_in_process(tmp_path, monkeypatch, capsys):
    # a cell's CurveAvgError under --jobs 2 is the one its forked child
    # raised: the same exit status, stderr line and error.json as --jobs 1
    def cell(cfg, lam):
        if lam == 32.0:
            raise DomainError(f"no cell at lambda={lam:g}")
        return {"lam": lam}

    monkeypatch.setattr(sweep_module, "run_cell", cell)
    fds = len(os.listdir("/proc/self/fd"))
    seen = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        status = main(["sweep", "--config", write_cfg(tmp_path), "--out",
                       str(out), "--jobs", jobs])
        seen.append((status, capsys.readouterr().err,
                     (out / "error.json").read_text()))
    assert seen[0] == seen[1]
    assert seen[0][:2] == (2, "error: no cell at lambda=32\n")
    assert json.loads(seen[0][2])["error"] == "DomainError"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


def test_config_without_section_header(tmp_path, capsys):
    # text the INI parser rejects is a config error: exit 2 and error.json,
    # never exit 1, which says a check failed
    cfg = write_cfg(tmp_path, CFG.replace("[curve]\n", ""))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert "no section headers" in record["message"]
    capsys.readouterr()


@pytest.mark.parametrize("command", ["synthesize", "multiplier-verify"])
def test_lambda_max_below_every_lambda(tmp_path, capsys, command):
    # no lambda left is a config error, not an empty table
    assert main([command, "--config", write_cfg(tmp_path), "--out",
                 str(tmp_path), "--lambda-max", "8"]) == 2
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert "lambdas is empty" in record["message"]
    assert not (tmp_path / "norms.csv").exists()
    assert not (tmp_path / "multiplier.csv").exists()
    capsys.readouterr()


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_config_error(tmp_path, monkeypatch, capsys, jobs):
    def refuse(cfg, slope_tols=None):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "sharpness_sweep", refuse)
    assert main(["sweep", "--config", write_cfg(tmp_path), "--out",
                 str(tmp_path), "--jobs", jobs]) == 2
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert f"jobs must be >= 1, got {jobs}" in record["message"]
    capsys.readouterr()


@pytest.mark.parametrize("command, name, content, error", [
    ("sweep", "missing.cfg", None, "ConfigError"),
    ("sweep", "dir.cfg", "directory", "ConfigError"),
    ("sweep", "latin1.cfg", "[curve]\nn = 3 # \xe9\n".encode("latin-1"),
     "ConfigError"),
    ("report", "report.json", b"not json", "CurveAvgError"),
    ("report", "report.json", b'{"cells": []}', "CurveAvgError"),
    ("report", "report.json", b"[]", "CurveAvgError"),
], ids=["missing", "directory", "not-utf8", "not-json", "no-config",
        "not-an-object"])
def test_unreadable_input_file_is_an_error_record(tmp_path, capsys, command,
                                                  name, content, error):
    # a file the command cannot read or use is exit 2 and an error.json
    # naming the file, as every other bad input is, not a traceback
    out = tmp_path / "out"
    path = (out if command == "report" else tmp_path) / name
    if content == "directory":
        path.mkdir(parents=True)
    elif content is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
    argv = [command, "--out", str(out)]
    if command == "sweep":
        argv += ["--config", str(path)]
    assert main(argv) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == error and str(path) in record["message"]
    assert str(path) in capsys.readouterr().err


def test_partial_report_names_the_missing_key(tmp_path, capsys):
    # a report.json with its config but no cells: exit 2, and error.json
    # names the key, before any table is written
    (tmp_path / "report.json").write_text('{"config": {"svg": true}}')
    assert main(["report", "--out", str(tmp_path)]) == 2
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "CurveAvgError"
    assert "'cells'" in record["message"]
    assert not (tmp_path / "sweep.csv").exists()
    assert "'cells'" in capsys.readouterr().err


def test_report_without_sweep(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 2
    record = json.loads((tmp_path / "error.json").read_text())
    assert "run sweep first" in record["message"]
    capsys.readouterr()


@pytest.mark.parametrize("text, env, key", [
    (CFG.replace("policy = windowed", "policy = windowed\nmemory_cap = inf"),
     None, "[grid] memory_cap"),
    (CFG.replace("n = 3", "n = 3\nperturb1 = nan"), None, "[curve] perturb1"),
    (CFG.replace("n = 3", "n = 3\nperturb2 = 0 0 1e400"), None,
     "[curve] perturb2"),
    (CFG, "inf", "CSL_MEMORY_CAP"),
])
def test_non_finite_config_value_is_a_config_error(tmp_path, monkeypatch,
                                                   capsys, text, env, key):
    # exit 2 and error.json naming the key, before any cell runs
    def refuse(cfg, slope_tols=None):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "sharpness_sweep", refuse)
    if env:
        monkeypatch.setenv("CSL_MEMORY_CAP", env)
    assert main(["sweep", "--config", write_cfg(tmp_path, text), "--out",
                 str(tmp_path)]) == 2
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(key)
    capsys.readouterr()


def test_oversized_ball_stops_the_sweep_before_any_cell(tmp_path,
                                                        monkeypatch, capsys):
    # epsilon = 1 makes the ball radius lambda^0 = 1, which at lambda = 2048
    # exceeds half the n2 box side: the gate names that lambda, exit 2, and
    # no cell starts
    def refuse(cfg, lam):
        raise AssertionError(f"the cell at lambda={lam:g} ran")

    monkeypatch.setattr(sweep_module, "run_cell", refuse)
    root = Path(__file__).resolve().parents[1]
    text = ((root / "perfbench" / "workloads" / "n2.cfg").read_text()
            .replace("epsilon = 0.3", "epsilon = 1.0")
            .replace("lambdas = 64 128 256", "lambdas = 64 128 256 2048"))
    assert "epsilon = 1.0" in text and "2048" in text
    assert main(["sweep", "--config", write_cfg(tmp_path, text), "--out",
                 str(tmp_path)]) == 2
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["message"] == ("lambda=2048: ball radius 1 must lie in "
                                 "(0, half box side 0.9256)")
    assert capsys.readouterr().err == f"error: {record['message']}\n"


def test_aperture_stops_the_sweep_before_any_cell(tmp_path, monkeypatch,
                                                  capsys):
    # at aperture 0.7 the outer balls of the pinned lambda = 32 cell cross
    # the cone's edge: the gate names that lambda, exit 2, and no cell
    # starts, also when the cells would run in a pool
    def refuse(cfg, lam):
        raise AssertionError(f"the cell at lambda={lam:g} ran")

    monkeypatch.setattr(sweep_module, "run_cell", refuse)
    text = ACCEPTANCE_CONFIG.replace("aperture = 0.95", "aperture = 0.7")
    assert main(["sweep", "--config", write_cfg(tmp_path, text), "--out",
                 str(tmp_path), "--jobs", "2"]) == 2
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(
        "lambda=32: support ball of piece nu=-2 exits the cone aperture c=0.7")
    assert capsys.readouterr().err == f"error: {record['message']}\n"


def test_sweep_runs_without_a_config(tmp_path, capsys):
    # RunConfig's defaults are the pinned construction, so a sweep with no
    # --config passes its checks
    assert main(["sweep", "--out", str(tmp_path), "--lambda-max", "128"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_repeated_lambda_is_a_config_error(tmp_path, monkeypatch, capsys):
    def refuse(cfg, slope_tols=None):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "sharpness_sweep", refuse)
    text = CFG.replace("lambdas = 16 32 64", "lambdas = 4 4 4")
    assert main(["sweep", "--config", write_cfg(tmp_path, text), "--out",
                 str(tmp_path)]) == 2
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert "lambdas must be distinct" in record["message"]
    assert "lambdas must be distinct" in capsys.readouterr().err


# the options each command reads: 16 of the 25 (command, option) pairs
ACCEPTED = {
    "cone-verify": ("--config", "--out"),
    "multiplier-verify": ("--config", "--out", "--lambda-max"),
    "synthesize": ("--config", "--out", "--lambda-max"),
    "sweep": ("--config", "--out", "--lambda-max", "--jobs", "--strict"),
    "report": ("--config", "--out", "--strict"),
}
VALUES = {"--config": ["run.cfg"], "--out": ["out"], "--lambda-max": ["8"],
          "--jobs": ["0"], "--strict": []}
PARSED = {"config": "run.cfg", "out": "out", "lambda_max": 8.0, "jobs": 0,
          "strict": True}


@pytest.mark.parametrize("option", list(VALUES))
@pytest.mark.parametrize("command", list(ACCEPTED))
def test_each_command_accepts_only_the_options_it_reads(command, option,
                                                        capsys):
    assert sum(map(len, ACCEPTED.values())) == 16
    argv = [command, option, *VALUES[option]]
    if option in ACCEPTED[command]:
        args = cli._parser().parse_args(argv)
        dest = option[2:].replace("-", "_")
        assert getattr(args, dest) == PARSED[dest]
        return
    # an option the command would not read is a usage error, not a
    # silently ignored flag or a config error of a value it never uses
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["report", "--jobs", "0"],
                                  ["cone-verify", "--lambda-max", "8"],
                                  ["synthesize", "--strict"]])
def test_foreign_option_is_reported_with_the_commands_usage(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: curveavg {argv[0]} [-h]")
    assert (f"curveavg {argv[0]}: error: unrecognized arguments: "
            f"{' '.join(argv[1:])}") in err
