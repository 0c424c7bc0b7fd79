import json
import os
import platform
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from curveavg import (GridError, GridSpec, LatticeWindow, SlopeFit,
                      SpectralField, SweepReport, load_snapshot, render_report,
                      save_snapshot)
from curveavg.reporting import (fmt, quotient_svg, write_csv, write_json,
                                write_manifest)


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

def cubic_field():
    window = GridSpec(n=3, L=2.0, N=8).window()
    rng = np.random.default_rng(0)
    fhat = rng.standard_normal(window.dims) + 1j * rng.standard_normal(window.dims)
    return SpectralField.from_dense(window, fhat)


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
    f = SpectralField.from_dense(window, rng.standard_normal(window.dims) + 0j)
    g, lam = load_snapshot(save_snapshot(tmp_path / "f.bin", f, 64.0))
    assert (g.window.dims, g.window.k0) == ((4, 8, 4), (3, -2, 7))
    assert g.window.L == 5.0 and lam == 64.0
    assert_same_field(g, f)


def test_snapshot_size_follows_the_support(tmp_path):
    # five coefficients on a 128^3 window: the whole window would be 33.5 MB
    window = GridSpec(n=3, L=2.0, N=128).window()
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


# --- rendering -----------------------------------------------------------------

def fake_report():
    cells = [{"lam": lam,
              "norms_in": {4.0: lam ** 1.2},
              "out_short": {4.0: lam ** 0.9},
              "quotient": {4.0: lam ** -0.3}}
             for lam in (32.0, 64.0, 128.0)]
    fits = {"input": SlopeFit(1.2, 0.0, 0.0), "output": SlopeFit(0.9, 0.0, 0.0),
            "quotient": SlopeFit(-0.3, 0.0, 0.0)}
    checks = [{"name": "orthogonality", "passed": True, "detail": "max defect 0"},
              {"name": "slope/quotient/p=4", "passed": False, "detail": "off"}]
    return SweepReport(n=3, ps=(4.0,), lambdas=(32.0, 64.0, 128.0), cells=cells,
                       slopes={4.0: fits}, checks=checks, config={})


def test_svg_is_wellformed_xml():
    svg = quotient_svg(fake_report())
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    tags = [el.tag.split("}")[-1] for el in root.iter()]
    assert tags.count("circle") == 3     # one dot per lambda
    assert "line" in tags and "text" in tags


def test_render_report_text():
    text = render_report(fake_report().to_dict())
    assert "[PASS] orthogonality" in text
    assert "[FAIL] slope/quotient/p=4" in text
    assert text.rstrip().endswith("overall: FAIL")
    # slope lines carry signed values
    assert "slope +1.2000" in text and "slope -0.3000" in text
