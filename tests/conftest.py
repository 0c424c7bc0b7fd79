import json

import pytest

from curveavg.cli import main as cli_main
from curveavg.config import parse_config

# The pinned acceptance configuration. Free constants chosen once for the
# whole suite: a wide cutoff and aperture so the stationary point is deep
# inside the support, and bump radius 1.0 and c0 = 0.7 for as many disjoint
# pieces as the dyadic range admits. `policy`, `window` and `snapshots` carry
# their only legal values and set nothing.
ACCEPTANCE_CONFIG = """\
[curve]
n = 3
kind = moment

[construction]
rho = 1.0
c0 = 0.7
delta = 0.9
aperture = 0.95

[grid]
policy = windowed
points_per_radius = 4
oversample = 3

[experiment]
lambdas = 32 64 128 256
ps = 4 6 8
window = short
time_nodes = 9
epsilon = 0.3
checks = orthogonality slopes floor
piece_floor = 1.0

[output]
svg = on
snapshots = off
"""


@pytest.fixture(scope="session")
def acceptance_runs(tmp_path_factory):
    """The scaling sweep, run twice (serial and 8-way) for the acceptance
    criteria that read its cells and compare its artifacts, plus the parsed
    config for the criteria that rebuild a cell's field."""
    base = tmp_path_factory.mktemp("acceptance")
    cfg = base / "acceptance.cfg"
    cfg.write_text(ACCEPTANCE_CONFIG)
    runs = {}
    for jobs in (1, 8):
        out = base / f"jobs{jobs}"
        status = cli_main(["sweep", "--config", str(cfg),
                           "--out", str(out), "--jobs", str(jobs)])
        runs[jobs] = {"dir": out, "status": status}
    runs["config"] = parse_config(ACCEPTANCE_CONFIG)
    report_path = runs[1]["dir"] / "report.json"
    runs["report"] = json.loads(report_path.read_text(encoding="utf-8"))
    return runs
