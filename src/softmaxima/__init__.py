"""Smoothed maxima of finite centered Gaussian ensembles.

The package estimates and bounds softmax functionals of Gaussian vectors on
finite labeled index sets: tilted (Gibbs) averages, normalized free energies,
participation ratios, and divergences to the uniform measure, together with
the inequalities that sandwich them between metric quantities of the index
set.  A Random Energy Model driver applies the same machinery to the
finite-size pressure and its phase-transition sandwich.

Everything downstream of a seed is deterministic: per-sample randomness is a
pure function of (seed, sample index), so estimates are bit-identical however
the batch is filled.
"""

from .ensemble import (IndexedEnsemble, ball, build_from_covariance, build_iid,
                       from_spec, greedy_packing)
from .gibbs import (EXPECTED_MAX, FREE_ENERGY, GIBBS_AVERAGE, KL_TO_UNIFORM,
                    PARTICIPATION_RATIO, REM_PRESSURE, RENYI_HALF,
                    REPLICA_GIBBS, SHANNON_ENTROPY, GibbsState, Observable,
                    free_energy, gibbs_average, gibbs_measure, kl_to_uniform,
                    log_partition, parse_observable, participation_derivative,
                    participation_ratio, renyi_half_via_participation,
                    renyi_observable, renyi_to_uniform, shannon_entropy,
                    soft_max, soft_max_observable)
from .quench import (QuenchedEstimate, ThresholdResult,
                     UnboundedThresholdError, beta_star, clear_cache,
                     mc_estimate, mc_estimates, per_sample_values,
                     quadrature_oracle, quadrature_oracles, realization_batch,
                     standard_normal_batch)
from .bounds import (BoundReport, SandwichDiagnostics, divergence_bounds,
                     max_bounds, sandwich_suite, soft_super_sudakov)
from .rem import (PressureCurve, PressureRow, RemModel, limit_pressure,
                  pressure_sweep, q_lower, q_upper_min, rem_model)
from .cli import ExperimentConfig, main, run

__version__ = "0.1.0"
