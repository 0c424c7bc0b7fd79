"""Averages over nondegenerate curves: cone geometry, oscillatory multiplier
asymptotics, and the counterexample family that pins down the sharp local
smoothing exponent min{1/n, (1/n)(1/2 + 2/p), 2/p}.

The package is organized bottom-up: `legendre` holds the Gauss-Legendre rules,
`curves`/`bumps` define the curves and smooth cutoffs, `cone` solves the
frequency-side geometry, `multiplier` evaluates the averaging multiplier and
its leading term on the cone, `fields` synthesizes the lattice-supported
counterexample family, `averaging` applies A_t and measures norms and the
ball's share, `sweep` runs scaling experiments (`parallel` forks its cells
under --jobs K), and `cli`/`reporting` handle artifacts. `verify` holds what
no sweep runs (the oracles, the exponent table, the curve checks, the verify
commands, the snapshot format); it is not imported here: `curveavg.verify.X`.
"""

from ._version import __version__
from .averaging import (PairTable, TimeWindow, lp_norm_spacetime, norm_grid,
                        norm_peak_bytes, pair_peak_bytes, pair_table,
                        space_stats)
from .bumps import CutoffSpec, radial_bump, smooth_step
from .cone import ConeChart, moment_gamma_seed
from .config import (CellPlan, RunConfig, cell_plan, enforce_memory_cap,
                     estimate_field_bytes, parse_config, parse_memory_size,
                     with_overrides)
from .curves import CurveSpec
from .errors import (ApertureError, ConfigError, ConvergenceError,
                     CurveAvgError, DomainError, GeometryError, GridError,
                     QuadratureError, ResolutionError)
from .fields import (CounterexampleSpec, LatticeWindow, SpectralField,
                     SupportBall, build_f, frequency_centers, windowed_lattice)
from .legendre import GL16_NODES, GL16_WEIGHTS, gauss_legendre, panel_rule
from .multiplier import alpha_n, cone_decay, leading_constant, mu_hat_batch
from .reporting import (render_report, sweep_artifacts, sweep_tables,
                        write_csv, write_json)
from .sweep import (Cell, cell_field, cell_support, expected_slopes,
                    fit_slope, measure, run_cell, sharpness_sweep)

__all__ = [
    "__version__",
    # errors
    "CurveAvgError", "DomainError", "ApertureError", "ConvergenceError",
    "QuadratureError", "GridError", "GeometryError", "ResolutionError",
    "ConfigError",
    # curves and cutoffs
    "CurveSpec", "CutoffSpec", "smooth_step", "radial_bump",
    # cone geometry
    "ConeChart", "moment_gamma_seed",
    # quadrature rules
    "gauss_legendre", "GL16_NODES", "GL16_WEIGHTS", "panel_rule",
    # multiplier
    "alpha_n", "mu_hat_batch", "leading_constant", "cone_decay",
    # fields
    "LatticeWindow", "SpectralField", "SupportBall",
    "CounterexampleSpec", "frequency_centers", "windowed_lattice", "build_f",
    # averaging
    "TimeWindow", "PairTable", "pair_table", "space_stats",
    "lp_norm_spacetime", "norm_grid", "norm_peak_bytes", "pair_peak_bytes",
    # config
    "RunConfig", "parse_config", "parse_memory_size", "with_overrides",
    "CellPlan", "cell_plan", "enforce_memory_cap", "estimate_field_bytes",
    # sweep
    "expected_slopes", "fit_slope", "Cell",
    "cell_field", "cell_support", "measure", "run_cell", "sharpness_sweep",
    # reporting
    "write_csv", "write_json", "sweep_artifacts", "sweep_tables",
    "render_report",
]
