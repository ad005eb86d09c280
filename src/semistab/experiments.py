"""Experiment configuration, execution, and persistence.

Configs are flat ``section.key = value`` text files (hand-editable; exact
grammar in the README).  Every run produces a self-contained JSON report
with the echoed canonical config, the sampled curves, fitted constants,
projection diagnostics, and tri-state verdicts, plus CSV files with the
plot-ready data.  Outputs are written atomically and, timings aside, are
byte-reproducible for identical configs and seeds.
"""

from __future__ import annotations

import cmath
import enum
import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from operator import attrgetter

import numpy as np

from . import asymptotics, models, spectral
from ._version import __version__
from .asymptotics import (FitFamily, NormSamples, Quantity, concave_envelope,
                          envelope_translation_check, fit_rate, hardy_check,
                          loglog_slope, sample_norms, witness_lower_bound)
from .errors import (ClusteredSpectrumError, ConfigError,
                     InsufficientSamplesError, TruncationInadequateError)
from .models import Family, Model, ModelSpec, build_model

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

#: Thresholds for the conclusion-decay verdict of the theorem pipeline.
CONCLUSION_SLOPE_MAX = -0.1
CONCLUSION_DROP_MAX = 0.75

#: Spread bound used by every boundedness / two-sided-equivalence verdict.
SPREAD_BOUND = 3.0

#: Trend-slope bound for compensated-curve flatness.
TREND_SLOPE_BOUND = 0.15

_ENVELOPE_DEFECT_TOL = 1e-12

#: Largest accepted ``grid.points``; the grid is allocated before any run.
MAX_GRID_POINTS = 100_000

#: Default cap on the coordinate dimension: the CLI's ``--max-dim`` for the
#: config commands, and the cap on the dimension ``witness`` derives from t.
MAX_DIM = 200_000


class Spacing(enum.Enum):
    LINEAR = "LINEAR"
    GEOMETRIC = "GEOMETRIC"


@dataclass(frozen=True)
class TimeGrid:
    t_min: float
    t_max: float
    points: int
    spacing: Spacing = Spacing.GEOMETRIC

    def __post_init__(self):
        if self.points < 2:
            raise ValueError(f"grid needs >= 2 points, got {self.points}")
        if not (self.t_max > self.t_min):
            raise ValueError("t_max must exceed t_min")
        if self.spacing is Spacing.GEOMETRIC:
            if self.t_min <= 0:
                raise ValueError("geometric grids need t_min > 0")
        elif self.t_min < 0:
            raise ValueError("t_min must be >= 0")

    def values(self) -> np.ndarray:
        if self.spacing is Spacing.GEOMETRIC:
            return np.geomspace(self.t_min, self.t_max, self.points)
        return np.linspace(self.t_min, self.t_max, self.points)


@dataclass(frozen=True)
class Tolerances:
    norm_tol: float
    proj_tol: float


@dataclass(frozen=True)
class OutputSpec:
    directory: str
    formats: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully set run; ``parse_config`` builds it from ``KEY_TABLE``."""

    model: ModelSpec
    grid: TimeGrid
    contour_nodes: int
    radius_cap: float
    top_k: int
    translation_shift: float
    tolerances: Tolerances
    output: OutputSpec


def format_complex(z: complex) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def _checked(parse, ok, failure: str):
    """``parse``, then reject values failing ``ok`` with ``failure``."""
    def checked(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(failure)
        return value
    return checked


def _formats(text: str) -> tuple:
    formats = tuple(f.strip() for f in text.split(",") if f.strip())
    bad = set(formats) - {"CSV", "JSON"}
    if bad:
        raise ValueError(f"unknown output formats: {sorted(bad)}")
    return formats


_FINITE = _checked(float, math.isfinite, "must be finite")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "must be finite and positive")
_AT_LEAST_ONE = _checked(int, lambda n: n >= 1, "must be >= 1")
_FRACTION = _checked(float, lambda v: 0 < v < 1, "must be in (0, 1)")
_POINTS = _checked(_checked(int, lambda n: n >= 2, "grid needs >= 2 points"),
                   lambda n: n <= MAX_GRID_POINTS, f"exceeds the cap {MAX_GRID_POINTS}")

REQUIRED = object()

#: Every config key in canonical order, as (name, parser, default, path).
#: The parser raises ValueError on a value outside the key's own range; the
#: default is a parsed value or REQUIRED; the path is the attribute path of
#: the value in an ``ExperimentConfig``.  Parsing, defaults, single-key range
#: rules and ``render_config`` all come from this table.
KEY_TABLE = (
    ("model.family", Family, REQUIRED, "model.family"),
    ("model.max_index", lambda s: s if s == "auto" else int(s), "auto",
     "model.max_index"),
    ("model.order", _AT_LEAST_ONE, 1, "model.order"),
    ("model.mu", _checked(complex, cmath.isfinite, "must be finite"), 1.0 + 0.0j,
     "model.mu_default"),
    ("grid.t_min", _FINITE, REQUIRED, "grid.t_min"),
    ("grid.t_max", _FINITE, REQUIRED, "grid.t_max"),
    ("grid.points", _POINTS, REQUIRED, "grid.points"),
    ("grid.spacing", Spacing, Spacing.GEOMETRIC, "grid.spacing"),
    ("contour.nodes", lambda s: spectral.check_nodes(int(s)), spectral.DEFAULT_NODES,
     "contour_nodes"),
    ("contour.radius_cap", _POSITIVE, spectral.RADIUS_CAP, "radius_cap"),
    ("checks.top_k", _AT_LEAST_ONE, 5, "top_k"),
    ("checks.translation_shift", _POSITIVE, 1.0, "translation_shift"),
    ("tolerances.norm_tol", _FRACTION, 1e-10, "tolerances.norm_tol"),
    ("tolerances.proj_tol", _POSITIVE, 1e-8, "tolerances.proj_tol"),
    ("output.directory", str, "out", "output.directory"),
    ("output.formats", _formats, ("CSV", "JSON"), "output.formats"),
)


def parse_config(text: str, max_dim: int | None = None) -> ExperimentConfig:
    """Parse the flat key = value grammar into a validated config.

    Each value goes through its ``KEY_TABLE`` parser; one outside its key's
    range raises a ``ConfigError`` naming the line: floats and ``model.mu``
    must be finite, ``model.order`` and ``checks.top_k`` >= 1,
    ``grid.points`` in [2, ``MAX_GRID_POINTS``], ``contour.nodes`` even and
    >= 16, ``contour.radius_cap``, ``checks.translation_shift`` and
    ``tolerances.proj_tol`` > 0, ``tolerances.norm_tol`` in (0, 1), and
    ``output.formats`` within CSV, JSON.  The checks across keys follow:
    ``TimeGrid``'s rules; ``model.max_index = auto`` resolves to the minimal
    adequate truncation for ``grid.t_max`` and ``model.order``
    (:func:`models.required_max_index`), and a smaller explicit value is
    rejected, as is a dimension above ``max_dim``.  A ``model.mu`` on the
    spectrum is rejected when the model is built (``SpectrumHitError``).
    """
    parsers = {name: parse for name, parse, _, _ in KEY_TABLE}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        name, _, value = (part.strip() for part in line.partition("="))
        if name not in parsers:
            raise ConfigError(f"line {lineno}: unknown key {name!r}")
        if name in values:
            raise ConfigError(f"line {lineno}: duplicate key {name!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {name!r}")
        try:
            values[name] = parsers[name](value)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: {name}: bad value {value!r}: {exc}") from None

    # Group the values by the object that holds them ("" is the config).
    fields = {}
    for name, _, default, path in KEY_TABLE:
        value = values.get(name, default)
        if value is REQUIRED:
            raise ConfigError(f"missing required key {name!r}")
        owner, _, attr = path.rpartition(".")
        fields.setdefault(owner, {})[attr] = value

    model = fields["model"]
    family, order, max_index = model["family"], model["order"], model["max_index"]
    try:
        grid = TimeGrid(**fields["grid"])
        need = models.required_max_index(family, grid.t_max, order)
        if max_index == "auto":
            max_index = need
        elif max_index < need:
            raise TruncationInadequateError(
                f"model.max_index {max_index} is inadequate for grid.t_max "
                f"{grid.t_max} and model.order {order}; need max_index >= "
                f"{need} (dim {models.model_dim(family, need)})",
                required=need)
        dim = models.model_dim(family, max_index)
        if max_dim is not None and dim > max_dim:
            raise TruncationInadequateError(
                f"adequate truncation needs dim {dim} > configured cap {max_dim} "
                f"(minimal adequate max_index {need})",
                required=need)
        return ExperimentConfig(
            model=ModelSpec(**dict(model, max_index=max_index)), grid=grid,
            tolerances=Tolerances(**fields["tolerances"]),
            output=OutputSpec(**fields["output"]), **fields[""])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _render_value(value) -> str:
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value)  # a float's str is its shortest round-trip repr


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical text for a config; parsing it back yields an equal config."""
    return "".join(f"{name} = {_render_value(attrgetter(path)(cfg))}\n"
                   for name, _, _, path in KEY_TABLE)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Verdict:
    status: str
    detail: str
    metrics: dict


def _verdict(ok: bool, detail: str, **metrics) -> Verdict:
    return Verdict(PASS if ok else FAIL, detail, metrics)


def _skipped(reason: str, **metrics) -> Verdict:
    return Verdict(SKIPPED, reason, metrics)


def _passed(statuses) -> bool:
    """The exit rule: every verdict status is PASS or SKIPPED."""
    return all(s in (PASS, SKIPPED) for s in statuses)


@dataclass
class RunReport:
    command: str
    config_text: str
    verdicts: dict
    samples: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)
    projections: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "config": {
                "command": self.command,
                "text": self.config_text,
                "hash": hashlib.sha256(
                    self.config_text.encode("utf-8")).hexdigest(),
            },
            "samples": self.samples,
            "fits": self.fits,
            "projections": self.projections,
            "verdicts": {k: asdict(v) for k, v in self.verdicts.items()},
            "timings": self.timings,
            "version": self.version,
        }

    def all_passed(self) -> bool:
        return _passed(v.status for v in self.verdicts.values())


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(cell) for cell in row) for row in rows)
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, obj) -> None:
    _atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _finish(report: RunReport, started: float, out_dir: str, csv_files: dict,
            formats=("CSV", "JSON")) -> RunReport:
    """Stamp the total time, write the run's files, and return the report."""
    report.timings["total_s"] = time.perf_counter() - started
    if "CSV" in formats:
        for name, (header, rows) in csv_files.items():
            write_csv(os.path.join(out_dir, name), header, rows)
    if "JSON" in formats:
        write_json(os.path.join(out_dir, "report.json"), report.to_dict())
    return report


def _sample(cfg: ExperimentConfig):
    """The model, the time grid, and the semigroup and product curves on it,
    from one semigroup evaluation per grid time."""
    model = build_model(cfg.model)
    ts = cfg.grid.values()
    semi, prod = sample_norms(
        model, ts, (Quantity.SEMIGROUP_NORM, Quantity.RESOLVENT_PRODUCT_NORM),
        tol=cfg.tolerances.norm_tol)
    return model, ts, semi, prod


def _samples_dict(*curves: NormSamples) -> dict:
    return {
        curve.quantity.value.lower(): {
            "t": [float(t) for t in curve.ts],
            "value": [float(v) for v in curve.values],
        }
        for curve in curves
    }


def _fit_dict(fit) -> dict:
    return dict(asdict(fit), family=fit.family.value, window=list(fit.window))


def _spread(values: np.ndarray) -> float:
    return float(np.max(values) / np.min(values))


def _growth_verdict(model: Model, semi: NormSamples) -> Verdict:
    t_floor, bracket = models.FAMILIES[model.spec.family].growth
    if t_floor is None:
        order = model.spec.order
        try:
            fit = fit_rate(semi, FitFamily.POWER)
        except InsufficientSamplesError as exc:
            return _skipped(str(exc))
        ok = order - bracket <= fit.exponent_or_scale <= order + bracket
        return _verdict(ok, f"power-law exponent {fit.exponent_or_scale:.4f} "
                            f"vs expected {order}",
                        exponent=fit.exponent_or_scale, expected=float(order))
    mask = semi.ts >= t_floor
    if not np.any(mask):
        return _skipped(f"no samples with t >= {t_floor}")
    normalized = semi.values[mask] / semi.ts[mask]
    worst = float(np.max(np.abs(normalized - 1.0)))
    return _verdict(worst <= bracket,
                    f"max |norm(t)/t - 1| = {worst:.4f} over t >= {t_floor}",
                    worst_deviation=worst, bracket=bracket)


def _bounded_verdict(model: Model, prod: NormSamples) -> Verdict:
    t_from = models.FAMILIES[model.spec.family].bounded_from
    if t_from is None:
        return _skipped("resolvent product is unbounded for this family; "
                        "the ratio law verdict covers it")
    mask = prod.ts >= t_from
    if np.count_nonzero(mask) < 2:
        return _skipped(f"need >= 2 samples with t >= {t_from:g}")
    spread = _spread(prod.values[mask])
    return _verdict(spread <= SPREAD_BOUND,
                    f"sup/inf of the resolvent product = {spread:.4f} "
                    f"over t >= {t_from:g}",
                    spread=spread, bound=SPREAD_BOUND)


def _ratio_verdict(model: Model, ratio: NormSamples):
    """Family-appropriate decay law of the ratio; returns (verdict, fits)."""
    bracket = models.FAMILIES[model.spec.family].ratio_exponent
    law = FitFamily.INVERSE_LOG if bracket is None else FitFamily.POWER
    try:
        fit = fit_rate(ratio, law)
    except InsufficientSamplesError as exc:
        return _skipped(str(exc)), {}
    fits = {f"ratio_{law.value.lower()}": _fit_dict(fit)}
    if bracket is not None:
        ok = bracket[0] <= fit.exponent_or_scale <= bracket[1]
        return _verdict(ok, f"ratio power-law exponent {fit.exponent_or_scale:.4f}",
                        exponent=fit.exponent_or_scale), fits
    mask = ratio.ts >= fit.window[0]
    compensated = ratio.values[mask] * np.log(ratio.ts[mask])
    slope = loglog_slope(ratio.ts[mask], compensated)
    ok = fit.exponent_or_scale <= SPREAD_BOUND and abs(slope) <= TREND_SLOPE_BOUND
    return _verdict(ok, f"ratio * log t: spread {fit.exponent_or_scale:.4f}, "
                        f"trend slope {slope:.4f}",
                    spread=fit.exponent_or_scale, trend_slope=slope,
                    spread_bound=SPREAD_BOUND,
                    slope_bound=TREND_SLOPE_BOUND), fits


def run_simulate(cfg: ExperimentConfig, out_dir: str | None = None) -> RunReport:
    """Sample the three monitored curves and judge the family's claims."""
    started = time.perf_counter()
    model, ts, semi, prod = _sample(cfg)
    timings = {"sampling_s": time.perf_counter() - started}
    ratio = NormSamples(Quantity.RATIO, ts, prod.values / semi.values)

    verdicts = {"semigroup_growth": _growth_verdict(model, semi),
                "resolvent_product_bounded": _bounded_verdict(model, prod)}
    ratio_verdict, fits = _ratio_verdict(model, ratio)
    verdicts["ratio_decay"] = ratio_verdict

    report = RunReport("simulate", render_config(cfg), verdicts,
                       samples=_samples_dict(semi, prod, ratio), fits=fits,
                       timings=timings)
    rows = list(zip(ts, semi.values, prod.values, ratio.values))
    return _finish(report, started, out_dir or cfg.output.directory,
                   {"samples.csv": (["t", "semigroup_norm",
                                     "resolvent_product_norm", "ratio"], rows)},
                   cfg.output.formats)


def _envelope_verdict(env, semi: NormSamples) -> Verdict:
    kt = env.knot_ts
    slopes = np.diff(env.knot_log_values) / np.diff(kt)
    concavity = float(np.max(np.diff(slopes) / (kt[2:] - kt[:-2]), initial=0.0))
    majorization = float(np.max(np.log(semi.values) - env.log_value(semi.ts)))
    ok = (concavity <= _ENVELOPE_DEFECT_TOL
          and majorization <= _ENVELOPE_DEFECT_TOL
          and 0.0 < env.a_estimate <= 1.0)
    return _verdict(ok, f"concavity defect {concavity:.2e}, majorization "
                        f"defect {majorization:.2e}, a = {env.a_estimate:.4f}",
                    concavity_defect=concavity,
                    majorization_defect=majorization,
                    a_estimate=env.a_estimate)


def _projection_entry(lam: complex, contour, report) -> dict:
    return {
        "eigenvalue": format_complex(lam),
        "center": format_complex(contour.center),
        "radius": contour.radius,
        "nodes": contour.nodes,
        "drift": report.drift,
        "idempotency_defect": report.idempotency_defect,
        "commutation_defect": report.commutation_defect,
        "rank": report.rank,
        "enclosed": [format_complex(z) for z in report.enclosed],
    }


def run_theorem_check(cfg: ExperimentConfig, out_dir: str | None = None) -> RunReport:
    """Drive the full decay-criterion pipeline and report its verdicts.

    Checks, in order: envelope admissibility (log-concavity, majorization,
    positive approximation constant), envelope translation stability,
    decay of the projected semigroup against the envelope for the lowest
    eigenvalues, and decay of the resolvent-product curve divided by the
    envelope.
    """
    if cfg.grid.points < 3:
        raise ConfigError("theorem-check needs a grid of at least 3 points "
                          "to build an envelope")
    started = time.perf_counter()
    model, ts, semi, prod = _sample(cfg)
    timings = {"sampling_s": time.perf_counter() - started}
    env = concave_envelope(semi)

    verdicts = {"envelope_conditions": _envelope_verdict(env, semi)}

    translation = envelope_translation_check(env, cfg.translation_shift, ts)
    verdicts["envelope_translation"] = _verdict(
        translation.within_tolerance,
        f"|f(t+s)/f(s) - 1| = {abs(float(translation.ratios[-1]) - 1.0):.4f} "
        f"at s = {float(ts[-1]):.4g} for shift t = {cfg.translation_shift}",
        end_ratio=float(translation.ratios[-1]),
        shift=cfg.translation_shift)

    projections = []
    curves = []
    skipped = {}  # formatted eigenvalue -> reason, in spectral order
    for lam in model.spectrum[:cfg.top_k].tolist():
        try:
            contour = spectral.hypothesis_a_check(
                model, lam, radius_cap=cfg.radius_cap, nodes=cfg.contour_nodes)
        except ClusteredSpectrumError as exc:
            skipped[format_complex(lam)] = str(exc)
            continue
        proj_report = spectral.riesz_projection_quadrature(
            model, contour, drift_tol=cfg.tolerances.proj_tol)
        projections.append(_projection_entry(lam, contour, proj_report))
        curve = spectral.hypothesis_b_check(model, proj_report, semi, env,
                                            tol=cfg.tolerances.norm_tol)
        # Only one projection is held at a time, none during the next
        # quadrature.
        del proj_report
        curves.append((lam, curve))
    if not curves:
        detail = "; ".join(f"{v}: {msg}" for v, msg in skipped.items())
        verdicts["hypothesis_b_decay"] = _skipped(
            f"no eigenvalue admitted an isolating circle ({detail})",
            skipped_eigenvalues=list(skipped))
    else:
        decaying = sum(curve.decaying for _, curve in curves)
        detail = (f"{decaying}/{len(curves)} projected curves decay"
                  + (f"; skipped clustered eigenvalue(s) {list(skipped)}"
                     if skipped else ""))
        verdicts["hypothesis_b_decay"] = _verdict(
            decaying == len(curves), detail, checked=len(curves),
            skipped=len(skipped), skipped_eigenvalues=list(skipped))

    conclusion = prod.values / env.value(ts)
    slope = loglog_slope(ts, conclusion)
    drop = float(conclusion[-1] / conclusion[0])
    verdicts["conclusion_decay"] = _verdict(
        slope <= CONCLUSION_SLOPE_MAX and drop <= CONCLUSION_DROP_MAX,
        f"resolvent-product / envelope: trend slope {slope:.4f}, "
        f"end/start {drop:.4f}",
        trend_slope=slope, end_over_start=drop,
        slope_bound=CONCLUSION_SLOPE_MAX, drop_bound=CONCLUSION_DROP_MAX)

    samples = _samples_dict(semi, prod)
    samples["envelope_knots"] = {
        "t": [float(x) for x in env.knot_ts],
        "log_value": [float(y) for y in env.knot_log_values],
    }
    report = RunReport("theorem-check", render_config(cfg), verdicts,
                       samples=samples, projections=projections,
                       timings=timings)
    curve_rows = list(zip(ts, semi.values, prod.values, env.value(ts), conclusion))
    hyp_rows = [(format_complex(lam), t, v)
                for lam, curve in curves
                for t, v in zip(curve.ts, curve.values)]
    csv_files = {
        "theorem_curves.csv": (["t", "semigroup_norm", "resolvent_product_norm",
                                "envelope", "conclusion_curve"], curve_rows),
        "hypothesis_b.csv": (["eigenvalue", "t", "value"], hyp_rows),
        "envelope_knots.csv": (["t", "log_value"],
                               list(zip(env.knot_ts, env.knot_log_values))),
    }
    return _finish(report, started, out_dir or cfg.output.directory,
                   csv_files, cfg.output.formats)


def run_hardy(cases: int, max_len: int = 512, seed: int = 42,
              out_dir: str = "out") -> RunReport:
    """Randomized check of the discrete Hardy inequality.

    Draws ``cases`` standard complex Gaussian sequences with lengths in
    [2, max_len] and reports the worst ratio together with its witness.
    ``max_len`` is capped at ``MAX_DIM``.
    """
    if cases < 1:
        raise ConfigError(f"cases must be >= 1, got {cases}")
    if not 2 <= max_len <= MAX_DIM:
        raise ConfigError(f"max_len must be in [2, {MAX_DIM}], got {max_len}")
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_ratio = -1.0
    worst_seq = np.zeros(0, dtype=complex)
    worst_case = -1
    for case in range(cases):
        length = int(rng.integers(2, max_len + 1))
        seq = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        ratio = hardy_check(seq).ratio
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_seq = seq
            worst_case = case

    config_text = (f"hardy.cases = {cases}\nhardy.max_len = {max_len}\n"
                   f"hardy.seed = {seed}\n")
    verdict = _verdict(worst_ratio <= 1.0,
                       f"worst ratio {worst_ratio!r} over {cases} cases "
                       f"(seed {seed}, case {worst_case})",
                       worst_ratio=worst_ratio, cases=cases,
                       max_len=max_len, seed=seed, worst_case=worst_case)
    rows = [(i + 1, z.real, z.imag) for i, z in enumerate(worst_seq)]
    return _finish(RunReport("hardy", config_text, {"hardy_bound": verdict}),
                   started, out_dir,
                   {"hardy_worst.csv": (["n", "re", "im"], rows)})


def run_witness(t_values, dim: int | None = None,
                out_dir: str = "out") -> RunReport:
    """Witness-vector lower-bound experiment on the weighted diagonal model.

    A ``dim`` derived from t (``dim=None``) is capped at ``MAX_DIM``."""
    ts = sorted(float(t) for t in t_values)
    for t in ts:
        if not math.isfinite(t):
            raise ConfigError(f"witness needs finite t values, got t = {t!r}")
    if not ts:
        raise ConfigError("need at least one t value")
    if ts[0] <= asymptotics.FIT_T_FLOOR:
        raise ConfigError(f"witness needs every t > e, got t = {ts[0]!r}")
    need = models.required_max_index(Family.LOG_SPECTRUM, ts[-1])
    need_dim = models.model_dim(Family.LOG_SPECTRUM, need)
    if dim is None and need_dim > MAX_DIM:
        raise TruncationInadequateError(
            f"witness at t = {ts[-1]!r} needs dim {need_dim:.6g} > cap "
            f"{MAX_DIM}; pass --dim to choose a dimension", required=need)
    dim = need_dim if dim is None else dim
    if dim < need_dim:
        raise TruncationInadequateError(
            f"dim {dim} inadequate for witness at t {ts[-1]}; need dim >= "
            f"{need_dim}", required=need)
    started = time.perf_counter()
    spec = ModelSpec(Family.LOG_SPECTRUM, dim + 1, order=1)
    model = build_model(spec)
    bounds = [witness_lower_bound(model, t) for t in ts]

    normalized = np.array([b.normalized for b in bounds])
    raw = np.array([b.raw_ratio for b in bounds])
    verdicts = {}
    if len(ts) >= 2:
        bracket = _spread(normalized)
        verdicts["witness_bracket"] = _verdict(
            bracket <= 5.0,
            f"normalized witness values span max/min = {bracket:.4f}",
            bracket=bracket, bound=5.0)
        increasing = bool(np.all(np.diff(raw) > 0))
        verdicts["witness_monotone"] = _verdict(
            increasing, "raw witness ratio increases along the t grid",
            increasing=increasing)
    else:
        verdicts["witness_bracket"] = _skipped("need >= 2 t values for a bracket")

    config_text = (f"witness.t = {','.join(repr(t) for t in ts)}\n"
                   f"witness.dim = {dim}\n")
    report = RunReport(
        "witness", config_text, verdicts,
        samples={"witness": {"t": list(ts),
                             "raw_ratio": [float(r) for r in raw],
                             "normalized": [float(v) for v in normalized]}})
    rows = list(zip(ts, raw, normalized))
    return _finish(report, started, out_dir,
                   {"witness.csv": (["t", "raw_ratio", "normalized"], rows)})


def load_report(path: str) -> dict:
    """Read a report JSON; raises ConfigError naming the file and the first
    bad key that :func:`render_report` or :func:`report_exit_code` reads."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            report = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed report {path}: {exc}") from None

    def check(ok: bool, key: str) -> None:
        if not ok:
            raise ConfigError(f"malformed report {path}: bad or missing {key}")

    check(isinstance(report, dict)
          and isinstance(report.get("verdicts"), dict), "'verdicts'")
    check(isinstance(report.get("config", {}), dict), "'config'")
    fits = report.get("fits", {})
    check(isinstance(fits, dict), "'fits'")
    for name, verdict in report["verdicts"].items():
        check(isinstance(verdict, dict)
              and isinstance(verdict.get("status"), str),
              f"'status' of verdict {name!r}")
    for name, fit in fits.items():
        for key in ("family", "coefficient", "exponent_or_scale", "residual"):
            kind = str if key == "family" else (int, float)
            check(isinstance(fit, dict) and isinstance(fit.get(key), kind),
                  f"{key!r} of fit {name!r}")
    return report


def render_report(report: dict) -> str:
    """Human-readable verdict and constants table for a report dict."""
    lines = []
    config = report.get("config", {})
    lines.append(f"command: {config.get('command', '?')}   "
                 f"version: {report.get('version', '?')}")
    lines.append(f"config hash: {config.get('hash', '?')}")
    lines.append("")
    lines.append(f"{'check':<28} {'status':<8} detail")
    lines.append("-" * 76)
    for name in sorted(report.get("verdicts", {})):
        verdict = report["verdicts"][name]
        lines.append(f"{name:<28} {verdict.get('status', '?'):<8} "
                     f"{verdict.get('detail', '')}")
    fits = report.get("fits", {})
    if fits:
        lines.append("")
        lines.append(f"{'fit':<28} {'family':<12} {'coefficient':<16} "
                     f"{'exponent/scale':<16} residual")
        lines.append("-" * 88)
        for name in sorted(fits):
            fit = fits[name]
            lines.append(f"{name:<28} {fit['family']:<12} "
                         f"{fit['coefficient']:<16.6g} "
                         f"{fit['exponent_or_scale']:<16.6g} "
                         f"{fit['residual']:.3g}")
    return "\n".join(lines)


def report_exit_code(report: dict) -> int:
    verdicts = report.get("verdicts", {}).values()
    return 0 if _passed(v.get("status") for v in verdicts) else 1
