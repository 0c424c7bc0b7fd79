import json
import os
import platform
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from curveavg import (GridError, LatticeWindow, SpectralField, render_report,
                      sweep_artifacts, sweep_tables)
from curveavg.reporting import (fmt, quotient_svg, report_warnings, verdict,
                                write_csv, write_json, write_manifest)
from curveavg.verify import load_snapshot, save_snapshot


def test_fmt_gives_twelve_significant_digits():
    assert fmt(0.1) == "1.00000000000e-01"
    assert fmt(float(np.pi)) == "3.14159265359e+00"
    assert fmt(3) == "3"
    assert fmt("lambda") == "lambda"


def test_csv_layout(tmp_path):
    path = write_csv(tmp_path / "t.csv", ("a", "b"), [(1.0, 2), (0.5, "x")])
    lines = path.read_text().splitlines()
    assert lines == ["a,b", "1.00000000000e+00,2", "5.00000000000e-01,x"]


def test_json_is_sorted_and_terminated(tmp_path):
    path = write_json(tmp_path / "t.json", {"b": 1, "a": [1.5, None]})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [1.5, None], "b": 1}


def test_manifest_contents(tmp_path):
    write_manifest(tmp_path, {"n": 3}, [tmp_path / "z.csv", tmp_path / "a.csv"],
                   "sweep", wall_s=1.25)
    m = json.loads((tmp_path / "manifest.json").read_text())
    assert m["tool"] == "curveavg" and m["command"] == "sweep"
    assert m["config"] == {"n": 3}
    assert m["artifacts"] == sorted(m["artifacts"])
    assert m["created_unix"] > 1.7e9
    # the run's wall time and the machine it ran on
    assert m["wall_s"] == 1.25
    assert m["python"] == platform.python_version()
    assert m["numpy"] == np.__version__
    assert m["platform"].startswith(platform.system() + "-")
    assert m["cpu_count"] == os.cpu_count()


# --- snapshots -----------------------------------------------------------------

def sparse_field(window, fhat):
    """The field of the nonzero entries of a coefficient array laid over
    `window`, on their own box."""
    flat = np.flatnonzero(fhat)
    k = np.stack(np.unravel_index(flat, fhat.shape), axis=-1) + window.k0
    return SpectralField.on_lattice(window.L, k, fhat.ravel()[flat])


def cubic_field():
    window = LatticeWindow(L=2.0, dims=(8,) * 3, k0=(-4,) * 3)
    rng = np.random.default_rng(0)
    fhat = rng.standard_normal(window.dims) + 1j * rng.standard_normal(window.dims)
    return sparse_field(window, fhat)


def assert_same_field(g, f):
    assert g.window == f.window
    assert np.array_equal(g.flat, f.flat)
    assert np.array_equal(g.coeffs, f.coeffs)


def test_snapshot_roundtrip_cubic(tmp_path):
    f = cubic_field()
    path = save_snapshot(tmp_path / "f.bin", f, 32.0)
    assert path.name == "f.bin"
    g, lam = load_snapshot(path)
    assert lam == 32.0
    assert_same_field(g, f)
    assert g.support == ()


def test_snapshot_roundtrip_offset_window(tmp_path):
    window = LatticeWindow(L=5.0, dims=(4, 8, 4), k0=(3, -2, 7))
    rng = np.random.default_rng(1)
    f = sparse_field(window, rng.standard_normal(window.dims) + 0j)
    g, lam = load_snapshot(save_snapshot(tmp_path / "f.bin", f, 64.0))
    assert (g.window.dims, g.window.k0) == ((4, 8, 4), (3, -2, 7))
    assert g.window.L == 5.0 and lam == 64.0
    assert_same_field(g, f)


def test_snapshot_size_follows_the_support(tmp_path):
    # five coefficients on a 128^3 window: the whole window would be 33.5 MB
    window = LatticeWindow(L=2.0, dims=(128,) * 3, k0=(-64,) * 3)
    f = SpectralField(window=window,
                      flat=np.array([0, 7, 4096, 99999, 128 ** 3 - 1]),
                      coeffs=np.array([1.0, -2j, 0.5 + 0.5j, 3.0, 1e-9 + 0j]))
    path = save_snapshot(tmp_path / "f.bin", f, 128.0)
    assert path.stat().st_size < 64 * 1024
    assert_same_field(load_snapshot(path)[0], f)


def test_snapshot_rejects_garbage(tmp_path):
    short = tmp_path / "short.bin"
    short.write_bytes(b"\x00" * 16)
    with pytest.raises(GridError, match="not a readable snapshot"):
        load_snapshot(short)

    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(GridError, match="not a readable snapshot"):
        load_snapshot(empty)

    truncated = tmp_path / "trunc.bin"
    save_snapshot(truncated, cubic_field(), 8.0)
    truncated.write_bytes(truncated.read_bytes()[:-16])
    with pytest.raises(GridError, match="not a readable snapshot"):
        load_snapshot(truncated)

    # the dense layout: float64 header (n, N, L, lambda), then the window
    dense = tmp_path / "dense.bin"
    dense.write_bytes(np.array([3, 8, 2.0, 8.0], dtype="<f8").tobytes()
                      + np.zeros(8 ** 3, dtype="<c16").tobytes())
    with pytest.raises(GridError, match="not a readable snapshot"):
        load_snapshot(dense)

    foreign = tmp_path / "foreign.bin"
    with open(foreign, "wb") as fh:
        np.savez(fh, values=np.arange(3))
    with pytest.raises(GridError, match="not a readable snapshot"):
        load_snapshot(foreign)


@pytest.mark.parametrize("changes, match", [
    ({"L": np.array([1.0, 2.0])}, "real scalars"),
    ({"lam": np.array("x")}, "real scalars"),
    ({"dims": np.full(3, 8.0)}, "malformed"),
    ({"k0": np.zeros(3)}, "malformed"),
    ({"coeffs": np.array(["a"] * 8 ** 3)}, "not numeric"),
], ids=["vector-L", "string-lambda", "float-dims", "float-k0",
        "string-coeffs"])
def test_snapshot_rejects_malformed_arrays(tmp_path, changes, match):
    # each once escaped as a bare TypeError or ValueError, or loaded
    path = _rewritten(tmp_path, **changes)
    with pytest.raises(GridError, match=match) as err:
        load_snapshot(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("side", [np.nan, np.inf, 0.0, -2.0])
def test_snapshot_rejects_a_side_no_torus_has(tmp_path, side):
    path = _rewritten(tmp_path, L=np.float64(side))
    with pytest.raises(GridError, match="finite and positive") as err:
        load_snapshot(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("lam", [-3.0, 0.0, np.nan, np.inf])
def test_snapshot_rejects_a_lambda_no_cell_has(tmp_path, lam):
    path = _rewritten(tmp_path, lam=np.float64(lam))
    with pytest.raises(GridError, match="finite and positive") as err:
        load_snapshot(path)
    assert str(path) in str(err.value)


def test_snapshot_rejects_repeated_indices(tmp_path):
    # two coefficients on one lattice point are no field's support
    path = _rewritten(tmp_path, flat=np.array([1, 1, 2]),
                      coeffs=np.ones(3, dtype=complex))
    with pytest.raises(GridError, match="repeated") as err:
        load_snapshot(path)
    assert str(path) in str(err.value)


def _rewritten(tmp_path, **changes):
    """A valid snapshot with some of its arrays replaced."""
    path = save_snapshot(tmp_path / "f.bin", cubic_field(), 8.0)
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays.update(changes)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


def test_snapshot_rejects_other_versions_and_stray_indices(tmp_path):
    for version in (0, 2):
        with pytest.raises(GridError, match="format version"):
            load_snapshot(_rewritten(tmp_path, version=np.int64(version)))
    for stray in (8 ** 3, -1):
        flat = np.arange(8 ** 3)
        flat[5] = stray
        with pytest.raises(GridError, match="outside"):
            load_snapshot(_rewritten(tmp_path, flat=flat))
    with pytest.raises(GridError, match="malformed"):
        load_snapshot(_rewritten(tmp_path, k0=np.zeros(2, dtype=np.int64)))


def test_snapshot_rejects_an_empty_or_unsized_window(tmp_path):
    # no support point gives no box; a window with an axis of no points
    # holds no index
    with pytest.raises(GridError, match="support point"):
        load_snapshot(_rewritten(tmp_path, flat=np.zeros(0, dtype=np.int64),
                                 coeffs=np.zeros(0, dtype=complex)))
    for dims in ((8, 0, 8), (-8, -8, 8)):
        with pytest.raises(GridError, match="malformed"):
            load_snapshot(_rewritten(tmp_path, dims=np.array(dims)))


def test_padded_window_snapshot_loads_onto_its_box(tmp_path):
    # a file numbering its support on a larger window, as snapshots did
    # when the window was padded to powers of two, loads onto the support's
    # box with the same lattice points and coefficients
    window = LatticeWindow(L=3.0, dims=(16, 32, 8), k0=(-8, -20, 2))
    k = np.array([(-5, -3, 4), (-2, 0, 6), (-4, 7, 5), (-3, -1, 4)])
    flat = np.ravel_multi_index(tuple((k - window.k0).T), window.dims)
    f = SpectralField(window, flat, np.array([1.0, -2j, 0.5 + 0.5j, 3.0]))
    g, lam = load_snapshot(save_snapshot(tmp_path / "f.bin", f, 16.0))
    assert lam == 16.0
    assert (g.window.L, g.window.dims, g.window.k0) == (3.0, (4, 11, 3),
                                                         (-5, -3, 4))
    assert np.array_equal(g.xi(), f.xi())
    assert np.array_equal(g.coeffs, f.coeffs)


# --- rendering -----------------------------------------------------------------

def fake_report(monotone=True):
    """A `sharpness_sweep` payload with one p, one failed check and exact
    power-law cells."""
    cells = [{"lam": lam,
              "norms_in": {"4.0": lam ** 1.2},
              "out_short": {"4.0": lam ** 0.9},
              "quotient": {"4.0": lam ** -0.3}}
             for lam in (32.0, 64.0, 128.0)]
    fits = {which: {"slope": slope, "intercept": 0.0, "max_residual": 0.0,
                    "expected": want, "gap": abs(slope - want)}
            for which, slope, want in (("input", 1.2, 7 / 6),
                                       ("output", 0.9, 5 / 6),
                                       ("quotient", -0.3, -1 / 3))}
    checks = [{"name": "orthogonality", "passed": True, "detail": "max defect 0"},
              {"name": "slope/quotient/p=4", "passed": False, "detail": "off"}]
    return {"n": 3, "ps": [4.0], "lambdas": [32.0, 64.0, 128.0],
            "cells": cells, "slopes": {"4": fits}, "checks": checks,
            "quotient_monotone": monotone, "config": {}}


def test_svg_is_wellformed_xml():
    svg = quotient_svg(fake_report())
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    tags = [el.tag.split("}")[-1] for el in root.iter()]
    assert tags.count("circle") == 3     # one dot per lambda
    assert "line" in tags and "text" in tags


def test_render_report_text():
    text = render_report(fake_report())
    assert "[PASS] orthogonality" in text
    assert "[FAIL] slope/quotient/p=4" in text
    assert text.rstrip().endswith("overall: FAIL")
    # slope lines carry signed values
    assert "slope +1.2000" in text and "slope -0.3000" in text


def test_warnings_follow_the_verdict_and_fail_only_strict():
    report = fake_report(monotone=False)
    assert report_warnings(report) == ["quotient trend not decreasing in lambda"]
    assert render_report(report).endswith(
        "overall: FAIL\nwarning: quotient trend not decreasing in lambda\n")
    report["checks"][1]["passed"] = True
    assert verdict(report) and not verdict(report, strict=True)
    report["quotient_monotone"] = True
    assert report_warnings(report) == [] and verdict(report, strict=True)


def test_sweep_artifacts_project_the_payload(tmp_path):
    report = fake_report()
    paths = sweep_artifacts(report, tmp_path)
    assert [p.name for p in paths] == ["report.json", "sweep.csv",
                                       "slopes.csv", "loglog.svg"]
    stored = json.loads((tmp_path / "report.json").read_text())
    assert stored == json.loads(json.dumps(report))
    rows = (tmp_path / "slopes.csv").read_text().splitlines()
    assert rows[0] == "p,series,slope,intercept,max_residual,expected,gap"
    fits = report["slopes"]["4"]
    assert rows[1:] == [",".join(fmt(v) for v in (
        4.0, which, fit["slope"], fit["intercept"], fit["max_residual"],
        fit["expected"], fit["gap"])) for which, fit in fits.items()]
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[1] == ",".join(fmt(v) for v in (
        32.0, 4.0, 32.0 ** 1.2, 32.0 ** 0.9, 32.0 ** -0.3))
    assert (tmp_path / "loglog.svg").read_text() == quotient_svg(report)


def two_ps_report():
    """`fake_report` with ps = 4, 10, whose slopes' keys sort as "10" < "4"."""
    report = fake_report()
    report["ps"] = [4.0, 10.0]
    for c in report["cells"]:
        for key in ("norms_in", "out_short", "quotient"):
            c[key]["10.0"] = 2 * c[key]["4.0"]
    report["slopes"]["10"] = report["slopes"]["4"]
    return report


def test_render_report_follows_ps():
    # the summary lists the fits in `ps` order, as the tables do
    report = json.loads(json.dumps(two_ps_report(), sort_keys=True))
    text = render_report(report)
    assert text.index("  p=4 ") < text.index("  p=10 ")


def test_tables_follow_ps_when_read_back(tmp_path):
    # JSON sorts the slopes' keys ("10" < "4"): the tables and the plot of
    # the file read back still follow `ps`, as those of the payload do
    report = two_ps_report()
    back = json.loads(json.dumps(report, sort_keys=True))
    assert list(back["slopes"]) == ["10", "4"]
    for name, payload in (("memory", report), ("file", back)):
        (tmp_path / name).mkdir()
        sweep_tables(payload, tmp_path / name)
    for table in ("sweep.csv", "slopes.csv", "loglog.svg"):
        assert ((tmp_path / "file" / table).read_bytes()
                == (tmp_path / "memory" / table).read_bytes()), table
