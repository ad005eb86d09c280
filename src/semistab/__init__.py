"""Desk-scale numerics for semigroup norm growth and decay-ratio laws.

Builds three block-diagonal semigroup families on finite truncations,
measures them in Euclidean or difference-weighted norms, computes spectral
projections by contour quadrature, and verifies growth / decay claims as
finite-window trend and bracket tests.
"""

from ._version import __version__
from .asymptotics import (Envelope, FitFamily, HardyReport, NormSamples,
                          Quantity, RateFit, TranslationCurve, WitnessBound,
                          concave_envelope, envelope_translation_check,
                          fit_rate, hardy_check, hardy_sums, sample_norms,
                          witness_lower_bound, witness_vector)
from .errors import (ClusteredSpectrumError, ConfigError, ContourTooCloseError,
                     IllConditionedError, InsufficientSamplesError,
                     NonconvergedError, SemistabError, SpectrumHitError,
                     TruncationInadequateError)
from .experiments import (ExperimentConfig, RunReport, Spacing, TimeGrid,
                          Verdict, config_hash, parse_config, render_config,
                          run_hardy, run_simulate, run_theorem_check,
                          run_witness)
from .linalg import operator_norm
from .models import (BlockDiagonal, Eigenvalue, Family, Model, ModelSpec,
                     build_model, check_truncation, eigenvalues, evolve_blocks,
                     resolvent_blocks, semigroup_norm)
from .spectral import (Contour, DecayCurve, ProjectionReport,
                       hypothesis_a_check, hypothesis_b_check,
                       riesz_projection_quadrature)

__all__ = [name for name in dir() if not name.startswith("_")]
