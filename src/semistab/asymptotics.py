"""Norm sampling, concave-log envelopes, rate fitting, and lower bounds.

The envelope of a set of norm samples is the upper concave hull of the
points (t, log value): a piecewise-linear concave majorant of the log-norm,
extended beyond the last knot with the final slope.  Asymptotic laws are
fitted by least squares in log space; the two families cover power laws and
reciprocal-logarithm decay.

The discrete Hardy inequality checker and the tent-shaped witness sequence
provide the two independent lower-bound routes for the weighted-norm model:
the Hardy ratio certifies the upper estimate's key step, and the witness
certifies the t / log t growth of the semigroup-resolvent product from
below.  The witness applies the model's own T(t), A^-1 (the resolvent at
0) and truncation rule, and reuses the tent's norm: nothing is restated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, models
from .errors import InsufficientSamplesError
from .models import Family, Model

#: Left end of every fitting window (log t > 2 there).
FIT_T_MIN = float(np.e) ** 2

#: Witness times must exceed this (log t > 1 there).
FIT_T_FLOOR = float(np.e)

MIN_FIT_SAMPLES = 8

#: Tolerance of the envelope translation check |f(t+s)/f(s) - 1|.
TRANSLATION_TOL = 0.05


class Quantity(enum.Enum):
    SEMIGROUP_NORM = "SEMIGROUP_NORM"
    RESOLVENT_PRODUCT_NORM = "RESOLVENT_PRODUCT_NORM"
    RATIO = "RATIO"


@dataclass(frozen=True)
class NormSamples:
    """Sampled values of one of the three monitored quantities."""

    quantity: Quantity
    ts: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if ts.ndim != 1 or ts.shape != values.shape:
            raise ValueError("ts and values must be 1-d arrays of equal length")
        if ts.size and np.any(np.diff(ts) <= 0):
            raise ValueError("ts must be strictly increasing")
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise ValueError("values must be finite and positive")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "values", values)


def loglog_slope(ts: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log(values) against log(ts)."""
    design = np.column_stack([np.ones(ts.size), np.log(ts)])
    return float(np.linalg.lstsq(design, np.log(values), rcond=None)[0][1])


def sample_norms(model: Model, ts, tol: float = linalg.LANCZOS_TOL_DEFAULT) -> tuple:
    """The pair of :class:`NormSamples` ||T(t)|| and ||T(t) R_mu|| over a
    time grid, from one :func:`models.norm_curve` call; mu = spec.mu_default.

    The grid must be strictly increasing and nonnegative, and the model's
    truncation must be adequate for the largest time (hard error otherwise).
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("ts must be a nonempty 1-d grid")
    if np.any(ts < 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("ts must be nonnegative and strictly increasing")
    models.check_truncation(model, float(ts[-1]))
    semi, prod = models.norm_curve(
        model, ts, models.resolvent_blocks(model, model.spec.mu_default), tol)
    return (NormSamples(Quantity.SEMIGROUP_NORM, ts, semi),
            NormSamples(Quantity.RESOLVENT_PRODUCT_NORM, ts, prod))


@dataclass(frozen=True)
class Envelope:
    """Piecewise-linear concave majorant of log f over the sampled window."""

    knot_ts: np.ndarray
    knot_log_values: np.ndarray
    a_estimate: float

    def log_value(self, t):
        tt = np.asarray(t, dtype=float)
        scalar = tt.ndim == 0
        tt = np.atleast_1d(tt)
        kt = self.knot_ts
        kv = self.knot_log_values
        out = np.interp(tt, kt, kv)
        if kt.size >= 2:
            left_slope = (kv[1] - kv[0]) / (kt[1] - kt[0])
            right_slope = (kv[-1] - kv[-2]) / (kt[-1] - kt[-2])
            below = tt < kt[0]
            above = tt > kt[-1]
            out[below] = kv[0] + left_slope * (tt[below] - kt[0])
            out[above] = kv[-1] + right_slope * (tt[above] - kt[-1])
        return float(out[0]) if scalar else out

    def value(self, t):
        return np.exp(self.log_value(t))

    def __call__(self, t):
        return self.value(t)


def concave_envelope(samples: NormSamples) -> Envelope:
    """Upper concave hull of (t, log value), by the monotone-chain scan.

    The hull majorizes every sample, its knot sequence has non-increasing
    slopes, and the largest sample-to-hull ratio (at most 1) estimates the
    approximation constant of the majorant.
    """
    ts = samples.ts
    logv = np.log(samples.values)
    if ts.size < 3:
        raise ValueError(f"need at least 3 samples, got {ts.size}")
    hull = []
    for x, y in zip(ts, logv):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # Pop the middle point when it lies on or below the new chord.
            if (y2 - y1) * (x - x1) <= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((float(x), float(y)))
    knot_ts = np.array([p[0] for p in hull])
    knot_logv = np.array([p[1] for p in hull])
    # The first and last samples are knots, so no sample needs extrapolation.
    ratios = samples.values / np.exp(np.interp(ts, knot_ts, knot_logv))
    a_est = min(float(np.max(ratios)), 1.0)
    return Envelope(knot_ts, knot_logv, a_est)


@dataclass(frozen=True)
class TranslationCurve:
    """Sampled s -> f(t+s)/f(s) with the end-of-window verdict."""

    ratios: np.ndarray
    within_tolerance: bool


def envelope_translation_check(env: Envelope, t: float, s_grid) -> TranslationCurve:
    """Check that translating the envelope argument stops mattering.

    Samples f(t+s)/f(s) over the grid; the verdict holds when the ratio at
    the largest s is within ``TRANSLATION_TOL`` of 1.
    """
    if t <= 0:
        raise ValueError(f"shift t must be positive, got {t}")
    s = np.asarray(s_grid, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("s_grid must be a nonempty 1-d grid")
    if s[0] < env.knot_ts[0] - 1e-12 or s[-1] > env.knot_ts[-1] + 1e-12:
        raise ValueError("s_grid must lie within the envelope knot range")
    with np.errstate(over="ignore"):
        ratios = env.value(t + s) / env.value(s)
    bad = s[~np.isfinite(ratios)]
    if bad.size:
        raise ValueError(f"f(t+s)/f(s) not finite at shift t = {t!r}, s = {bad[0]}")
    verdict = bool(abs(float(ratios[-1]) - 1.0) <= TRANSLATION_TOL)
    return TranslationCurve(ratios, verdict)


class FitFamily(enum.Enum):
    POWER = "POWER"
    INVERSE_LOG = "INVERSE_LOG"


@dataclass(frozen=True)
class RateFit:
    """A fitted asymptotic law and its residual (RMS in log space).

    ``exponent_or_scale`` is the power-law exponent for POWER and the
    max/min spread of the compensated values v * log t for INVERSE_LOG.
    """

    family: FitFamily
    coefficient: float
    exponent_or_scale: float
    residual: float
    window: tuple


def fit_rate(samples: NormSamples, family: FitFamily) -> RateFit:
    """Least-squares fit of one rate law over the window t >= ``FIT_T_MIN``.

    POWER fits log v against log t; INVERSE_LOG fits v * log t to a constant
    (so the coefficient c means v ~ c / log t).  Requires at least 8
    samples in the window.
    """
    mask = samples.ts >= FIT_T_MIN * (1.0 - 1e-12)
    ts = samples.ts[mask]
    values = samples.values[mask]
    if ts.size < MIN_FIT_SAMPLES:
        raise InsufficientSamplesError(
            f"need >= {MIN_FIT_SAMPLES} samples with t >= {FIT_T_MIN}, got {ts.size}")
    window = (float(ts[0]), float(ts[-1]))
    logt = np.log(ts)
    if family is FitFamily.POWER:
        design = np.column_stack([np.ones(ts.size), logt])
        coef, alpha = np.linalg.lstsq(design, np.log(values), rcond=None)[0]
        resid = np.log(values) - design @ (coef, alpha)
        return RateFit(family, float(np.exp(coef)), float(alpha),
                       float(np.sqrt(np.mean(resid ** 2))), window)
    compensated = values * logt
    logu = np.log(compensated)
    level = float(np.mean(logu))
    resid = logu - level
    spread = float(np.max(compensated) / np.min(compensated))
    return RateFit(family, float(np.exp(level)), spread,
                   float(np.sqrt(np.mean(resid ** 2))), window)


@dataclass(frozen=True)
class HardyReport:
    """Both sides of the discrete Hardy inequality and their ratio.

    The inequality is invariant under scaling, so ``lhs`` and ``rhs`` are
    the two sums for the normalized sequence c / max |c|.  ``ratio`` is
    lhs / (4 rhs) and never exceeds 1; the zero sequence is reported as all
    zeros.
    """

    lhs: float
    rhs: float
    ratio: float


def hardy_sums(values, lengths) -> tuple:
    """Both Hardy sums and their ratio for each of many sequences at once.

    ``values`` holds the sequences back to back and ``lengths`` their sizes,
    each at least 1.  Returns the arrays ``(lhs, rhs, ratio)`` with one entry
    per sequence, each as :func:`hardy_check` defines it.  Every step is a
    segmented reduction over the concatenation, so a batch costs a fixed
    number of numpy calls.  The scale max |c| is taken in two steps, as
    m = max(|Re c|, |Im c|) and then m max |c / m|, so that a modulus above
    the largest float does not overflow; the sums on c / m are divided by
    (max |c / m|)^2 at the end.
    """
    c = np.asarray(values, dtype=complex).ravel()
    lengths = np.asarray(lengths, dtype=np.intp).ravel()
    if lengths.size == 0 or np.any(lengths < 1) or lengths.sum() != c.size:
        raise ValueError("lengths must be positive and sum to the number "
                         "of values")
    starts = np.cumsum(lengths) - lengths
    m = np.maximum.reduceat(np.maximum(np.abs(c.real), np.abs(c.imag)), starts)
    if not np.all(np.isfinite(m)):
        raise ValueError("sequence entries must be finite")
    zero = m == 0.0
    m[zero] = 1.0
    # Real division of the interleaved parts: complex division by a
    # subnormal scale overflows.
    c = (c.view(float).reshape(-1, 2)
         / np.repeat(m, lengths)[:, None]).view(complex).ravel()
    modulus = np.abs(c)
    scale = np.maximum.reduceat(modulus, starts) ** 2
    scale[zero] = 1.0
    n = np.arange(1.0, c.size + 1.0) - np.repeat(starts, lengths)
    lhs = np.add.reduceat(modulus ** 2 / n ** 2, starts) / scale
    # Sequence j sits after j + 1 zeros, so one diff of the padded copy
    # [0, c^1, 0, c^2, ..., 0] gives its L + 1 differences, the rise from
    # and the drop back to zero included, starting at starts[j] + j.
    segment = np.arange(lengths.size)
    padded = np.zeros(c.size + lengths.size + 1, dtype=complex)
    padded[np.arange(1, c.size + 1) + np.repeat(segment, lengths)] = c
    rhs = np.add.reduceat(np.abs(np.diff(padded)) ** 2,
                          starts + segment) / scale
    ratio = np.divide(lhs, 4.0 * rhs, out=np.zeros_like(lhs), where=~zero)
    return lhs, rhs, ratio


def hardy_check(seq) -> HardyReport:
    """Evaluate sum |c_n|^2 / n^2 against 4 sum |c_{n+1} - c_n|^2.

    The input is read as a finitely supported sequence indexed from 1:
    implicit zeros surround it, so the difference sum includes both the
    |c_1|^2 boundary term and the final drop back to zero.  Both sums are
    taken on c / max |c|, which neither overflows nor underflows to 0 / 0,
    by one :func:`hardy_sums` call.
    """
    c = np.asarray(seq, dtype=complex).ravel()
    if c.size == 0:
        return HardyReport(0.0, 0.0, 0.0)
    lhs, rhs, ratio = hardy_sums(c, [c.size])
    return HardyReport(float(lhs[0]), float(rhs[0]), float(ratio[0]))


def witness_vector(t: float, dim: int):
    """The tent sequence peaking at index 2t, and its weighted norm.

    Coefficients are indexed from 2: c_n = n up to 2t, then 4t - n down to
    zero at 4t.  Returns (vector, order-1 weighted norm); the squared norm
    equals 4t + 2 when 2t is an integer.
    """
    if t <= FIT_T_FLOOR:
        raise ValueError(f"t must exceed e, got {t}")
    need = math.ceil(4 * t) + 1
    if dim < need:
        raise ValueError(f"dim {dim} too small for the tent; need >= {need}")
    n = np.arange(2, dim + 2, dtype=float)
    c = np.where(n <= 2 * t, n, np.where(n <= 4 * t, 4 * t - n, 0.0))
    c = c.astype(complex)
    norm = float(np.linalg.norm(linalg.apply_difference(1, c)))
    return c, norm


@dataclass(frozen=True)
class WitnessBound:
    t: float
    raw_ratio: float
    normalized: float


def witness_lower_bound(model: Model, t: float) -> WitnessBound:
    """Growth certificate ||T(t) A^-1 x|| / ||x|| for the tent vector x.

    Only meaningful on the order-1 weighted diagonal model, whose
    truncation must be adequate out to t (:func:`models.check_truncation`).
    The raw ratio grows like t / log t; the normalized value multiplies it
    by log(t) / t and stays inside a fixed positive bracket.
    """
    if model.spec.family is not Family.LOG_SPECTRUM or model.spec.order != 1:
        raise ValueError("witness bound requires the LOG_SPECTRUM family at order 1")
    models.check_truncation(model, t)
    x, x_norm = witness_vector(t, model.dim)
    y = (models.evolve_blocks(model, t)
         @ models.resolvent_blocks(model, 0.0)).scalars * x
    raw = float(np.linalg.norm(linalg.apply_difference(1, y))) / x_norm
    return WitnessBound(float(t), raw, raw * math.log(t) / t)
