"""Averages over nondegenerate curves: cone geometry, oscillatory multiplier
asymptotics, and the counterexample family that pins down the sharp local
smoothing exponent min{1/n, (1/n)(1/2 + 2/p), 2/p}.

The package is organized bottom-up: `curves`/`bumps` define the model class
of curves and smooth cutoffs, `cone` solves the frequency-side geometry,
`multiplier` evaluates the averaging multiplier and its stationary-phase
reference, `fields` synthesizes the lattice-supported counterexample family,
`averaging` applies A_t and measures norms, `sweep` runs scaling experiments,
and `cli`/`reporting` handle artifacts.
"""

from ._version import __version__
from .averaging import (TimeWindow, apply_averaging, ball_kernel,
                        direct_oracle, lp_norm_spacetime, norm_peak_bytes,
                        space_stats)
from .bumps import CutoffSpec, radial_bump, smooth_step
from .cone import ConeChart, moment_gamma_seed
from .config import (RunConfig, enforce_memory_cap, estimate_field_bytes,
                     parse_config, parse_memory_size, with_overrides)
from .curves import (CurveSpec, ModelClassReport, model_class_report,
                     nondegeneracy_margin)
from .errors import (ApertureError, ConfigError, ConvergenceError,
                     CurveAvgError, DomainError, GeometryError, GridError,
                     QuadratureError, ResolutionError)
from .fields import (CounterexampleSpec, LatticeWindow, SpectralField,
                     SupportBall, build_f, frequency_centers, piece_boxes,
                     windowed_lattice)
from .multiplier import (MultiplierSample, alpha_n, derivative_bound_check,
                         mu_hat, mu_hat_batch, multiplier_sample)
from .reporting import (load_snapshot, render_report, save_snapshot,
                        sweep_artifacts, write_csv, write_json)
from .sweep import (critical_exponent, expected_slopes, fit_slope, run_cell,
                    sharpness_sweep)

__all__ = [
    "__version__",
    # errors
    "CurveAvgError", "DomainError", "ApertureError", "ConvergenceError",
    "QuadratureError", "GridError", "GeometryError", "ResolutionError",
    "ConfigError",
    # curves and cutoffs
    "CurveSpec", "nondegeneracy_margin", "model_class_report",
    "ModelClassReport", "CutoffSpec", "smooth_step", "radial_bump",
    # cone geometry
    "ConeChart", "moment_gamma_seed",
    # multiplier
    "alpha_n", "mu_hat", "mu_hat_batch",
    "multiplier_sample", "MultiplierSample", "derivative_bound_check",
    # fields
    "LatticeWindow", "SpectralField", "SupportBall",
    "CounterexampleSpec", "frequency_centers", "windowed_lattice",
    "piece_boxes", "build_f",
    # averaging
    "TimeWindow", "apply_averaging", "direct_oracle", "ball_kernel",
    "space_stats", "lp_norm_spacetime", "norm_peak_bytes",
    # config
    "RunConfig", "parse_config", "parse_memory_size", "with_overrides",
    "enforce_memory_cap", "estimate_field_bytes",
    # sweep
    "critical_exponent", "expected_slopes", "fit_slope", "run_cell",
    "sharpness_sweep",
    # reporting
    "save_snapshot", "load_snapshot", "write_csv", "write_json",
    "sweep_artifacts", "render_report",
]
