import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (dense, dense_operator_norm, hardy_extremal, hardy_one,
                     weighted_vector_norm)
from semistab.asymptotics import (FitFamily, HardyReport, NormSamples,
                                  Quantity, concave_envelope,
                                  envelope_translation_check, fit_rate,
                                  hardy_check, hardy_sums, sample_norms,
                                  witness_lower_bound, witness_vector)
from semistab.errors import (InsufficientSamplesError,
                             TruncationInadequateError)
from semistab.experiments import parse_config, run_hardy, run_simulate
from semistab import linalg, models
from semistab.models import (Family, ModelSpec, build_model, evolve_blocks,
                             resolvent_blocks)

RNG = np.random.default_rng(99173)

E = float(np.e)


def _model(family, max_index, **kw):
    return build_model(ModelSpec(family, max_index, **kw))


def _samples(ts, values, quantity=Quantity.SEMIGROUP_NORM):
    return NormSamples(quantity, np.asarray(ts, float), np.asarray(values, float))


# ---------------------------------------------------------------- sampling

def test_norm_samples_validation():
    with pytest.raises(ValueError):
        _samples([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        _samples([1.0, 2.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        _samples([1.0, 2.0], [1.0, np.inf])
    with pytest.raises(ValueError, match="1-d arrays of equal length"):
        _samples([1.0, 2.0], [1.0])


@pytest.mark.parametrize("family", list(Family))
def test_semigroup_norm_at_zero_is_one(family):
    m = _model(family, 120)
    got = sample_norms(m, [0.0, 1.0, 2.0])[0]
    assert got.values[0] == pytest.approx(1.0, rel=1e-9)


def test_jordan_pairs_norm_at_100():
    m = _model(Family.JORDAN_PAIRS, 5000)
    got = sample_norms(m, [100.0])[0]
    assert 99.0 <= got.values[0] <= 101.0


@pytest.mark.parametrize("ts, message", [
    ([], "nonempty 1-d grid"), ([[1.0, 2.0]], "nonempty 1-d grid"),
    ([-1.0, 1.0], "nonnegative and strictly increasing"),
    ([2.0, 1.0], "nonnegative and strictly increasing"),
])
def test_sample_norms_rejects_a_bad_grid(ts, message):
    with pytest.raises(ValueError, match=message):
        sample_norms(_model(Family.JORDAN_PAIRS, 100), ts)


def test_sample_norms_truncation_gate():
    m = _model(Family.JORDAN_PAIRS, 100)
    with pytest.raises(TruncationInadequateError) as info:
        sample_norms(m, [10.0])
    assert info.value.required == 500


@pytest.mark.parametrize("last", [math.inf, math.nan])
def test_sample_norms_names_a_last_time_no_truncation_covers(last):
    # inf raised a bare OverflowError from math.ceil, and NaN "cannot
    # convert float NaN to integer"; neither named the input.
    m = _model(Family.JORDAN_PAIRS, 100)
    with pytest.raises(ValueError, match=f"t_max must be finite .* got {last}"):
        sample_norms(m, [1.0, last])


@pytest.mark.parametrize("family", [Family.JORDAN_PAIRS, Family.LOG_SPECTRUM])
def test_sample_norms_builds_the_resolvent_once_where_it_is_needed(
        monkeypatch, family):
    # R_mu is built once for the whole curve, not once per T(t).
    calls = []

    def recorded(name):
        original = getattr(models, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    for name in ("semigroup_norm", "evolve_blocks", "resolvent_blocks"):
        monkeypatch.setattr(models, name, recorded(name))
    m = _model(family, models.truncation(family, 4.0))
    sample_norms(m, [1.0, 2.0, 4.0])
    assert calls.count("resolvent_blocks") == 1
    built = calls.index("resolvent_blocks")
    if m.norm_order == 0:
        assert calls.count("semigroup_norm") == 3
    else:
        assert calls[built:].count("evolve_blocks") == 3


def test_order0_sample_norms_peaks_at_building_the_resolvent():
    # At dim 199998 the peak is the build of R_mu: its two gaps, corner and
    # two inverses, five complex vectors of 99999 blocks.  R_mu is held
    # through the ||T(t)|| row, whose passes run in chunks, and that adds
    # nothing: the bound is the peak measured with R_mu built only after
    # the last ||T(t)||.
    family = Family.JORDAN_PAIRS
    m = _model(family, models.truncation(family, 2000.0))
    assert m.dim == 199998
    ts = np.geomspace(1.0, 2000.0, 24)
    sample_norms(m, ts)  # first-call allocations, which are not the curve's
    tracemalloc.start()
    try:
        sample_norms(m, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8001802


def test_ratio_is_pointwise_quotient(tmp_path):
    # simulate's ratio is prod / semi of the one sampled pair, bitwise.
    cfg = parse_config("model.family = JORDAN_PAIRS\ngrid.t_min = 0.5\n"
                       "grid.t_max = 6.0\ngrid.points = 7\n")
    samples = run_simulate(cfg, str(tmp_path)).samples
    semi, prod = sample_norms(build_model(cfg.model), cfg.grid.values())
    assert cfg.model.max_index == 300
    assert samples["semigroup_norm"]["value"] == semi.values.tolist()
    assert samples["resolvent_product_norm"]["value"] == prod.values.tolist()
    assert samples["ratio"]["value"] == (prod.values / semi.values).tolist()


@pytest.mark.parametrize("family", list(Family))
def test_doubling_truncation_never_decreases_semigroup_norm(family):
    ts = np.geomspace(1.0, 5.0, 5)
    small = sample_norms(_model(family, 250), ts)[0]
    large = sample_norms(_model(family, 500), ts)[0]
    assert np.all(large.values >= small.values * (1.0 - 1e-7))


# ---------------------------------------------------------------- envelope

def test_envelope_interpolates_log_concave_data():
    ts = np.geomspace(1.0, 100.0, 25)
    samples = _samples(ts, ts + 1.0)
    env = concave_envelope(samples)
    assert np.max(np.abs(env.log_value(ts) - np.log(ts + 1.0))) <= 1e-12
    assert env.a_estimate == pytest.approx(1.0)


def test_envelope_of_bounded_samples_is_constant():
    ts = np.geomspace(1.0, 50.0, 10)
    env = concave_envelope(_samples(ts, np.full(10, 7.5)))
    assert env.knot_ts.size == 2
    assert env.value(123.0) == pytest.approx(7.5)


def test_envelope_invariants_on_noisy_data():
    ts = np.geomspace(1.0, 300.0, 40)
    values = (ts ** 1.3) * np.exp(0.2 * RNG.standard_normal(40))
    env = concave_envelope(_samples(ts, values))
    kt, kv = env.knot_ts, env.knot_log_values
    slopes = np.diff(kv) / np.diff(kt)
    assert np.all(np.diff(slopes) <= 1e-12)  # concave log
    assert np.min(env.log_value(ts) - np.log(values)) >= -1e-12  # majorizes
    assert 0.0 < env.a_estimate <= 1.0


def test_envelope_right_extension_keeps_final_slope():
    ts = np.array([1.0, 2.0, 4.0])
    env = concave_envelope(_samples(ts, np.array([2.0, 3.0, 4.0])))
    slope = (env.knot_log_values[-1] - env.knot_log_values[-2]) / \
            (env.knot_ts[-1] - env.knot_ts[-2])
    expected = env.knot_log_values[-1] + slope * 6.0
    assert env.log_value(10.0) == pytest.approx(expected)


def test_envelope_needs_three_samples():
    with pytest.raises(ValueError):
        concave_envelope(_samples([1.0, 2.0], [1.0, 1.0]))


def test_jordan_pairs_envelope_tracks_linear_growth():
    m = _model(Family.JORDAN_PAIRS, 10000)
    ts = np.geomspace(1.0, 200.0, 20)
    env = concave_envelope(sample_norms(m, ts)[0])
    window = ts[ts >= 10.0]
    ratios = env.value(window) / (window + 1.0)
    assert np.all(ratios <= 1.3) and np.all(ratios >= 1 / 1.3)


def test_translation_check_linear_envelope():
    ts = np.geomspace(1.0, 1100.0, 80)
    env = concave_envelope(_samples(ts, ts + 1.0))
    s_grid = np.geomspace(1.0, 1000.0, 30)
    curve = envelope_translation_check(env, 10.0, s_grid)
    assert curve.within_tolerance
    assert curve.ratios[-1] == pytest.approx(1011.0 / 1001.0, abs=5e-3)


def test_translation_check_constant_envelope():
    ts = np.geomspace(1.0, 100.0, 10)
    env = concave_envelope(_samples(ts, np.full(10, 4.0)))
    curve = envelope_translation_check(env, 10.0, ts)
    assert np.max(np.abs(curve.ratios - 1.0)) <= 1e-12
    assert curve.within_tolerance


def test_translation_check_fails_for_exponential_growth():
    # Growth-bound zero matters: an exponential envelope translates badly.
    ts = np.linspace(1.0, 40.0, 20)
    env = concave_envelope(_samples(ts, np.exp(ts)))
    curve = envelope_translation_check(env, 10.0, ts)
    assert not curve.within_tolerance
    assert curve.ratios[-1] == pytest.approx(np.exp(10.0), rel=1e-6)


@pytest.mark.filterwarnings("error")
def test_translation_check_rejects_a_ratio_that_overflows():
    # f(t + s) overflowed at a shift of 1e300, with a RuntimeWarning, and the
    # check returned the ratio inf; report.json then held "Infinity".
    ts = np.geomspace(1.0, 50.0, 12)
    env = concave_envelope(_samples(ts, ts))
    with pytest.raises(ValueError, match=r"not finite at shift t = 1e\+300, "
                                         r"s = 1\.0$"):
        envelope_translation_check(env, 1e300, ts)
    assert envelope_translation_check(env, 1e3, ts).ratios[-1] > 1.0


def test_translation_check_rejects_out_of_range_grid():
    ts = np.geomspace(1.0, 100.0, 10)
    env = concave_envelope(_samples(ts, ts))
    with pytest.raises(ValueError):
        envelope_translation_check(env, 1.0, np.array([0.1, 50.0]))
    with pytest.raises(ValueError, match="shift t must be positive, got 0.0"):
        envelope_translation_check(env, 0.0, ts)
    with pytest.raises(ValueError, match="s_grid must be a nonempty 1-d grid"):
        envelope_translation_check(env, 1.0, np.array([]))


# ---------------------------------------------------------------- rate fits

def test_fit_inverse_log_recovers_synthetic_constant():
    ts = np.geomspace(10.0, 1e4, 40)
    fit = fit_rate(_samples(ts, 3.0 / np.log(ts)), FitFamily.INVERSE_LOG)
    assert fit.coefficient == pytest.approx(3.0, abs=1e-10)
    assert fit.residual <= 1e-12
    assert fit.exponent_or_scale == pytest.approx(1.0, abs=1e-12)


def test_fit_power_recovers_synthetic_law():
    ts = np.geomspace(8.0, 500.0, 30)
    fit = fit_rate(_samples(ts, 2.5 * ts ** -0.75), FitFamily.POWER)
    assert fit.coefficient == pytest.approx(2.5, abs=1e-10)
    assert fit.exponent_or_scale == pytest.approx(-0.75, abs=1e-10)
    assert fit.residual <= 1e-12


def test_fit_window_respects_floor_and_count():
    ts = np.geomspace(1.0, 6.0, 20)  # everything below e^2
    with pytest.raises(InsufficientSamplesError):
        fit_rate(_samples(ts, ts), FitFamily.POWER)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_fit_power_reads_the_resolvent_growth_rate(alpha):
    # A bounded semigroup with iR in the resolvent set has ||T(t) A^-1|| =
    # O(t^(-1/alpha)) exactly when ||R(is, A)|| = O(|s|^alpha) (Borichev and
    # Tomilov, 2010).  The diagonal table lambda_n = -n^(-alpha) + i n has
    # that resolvent growth; the fitted exponents read -1.9995, -0.9979 and
    # -0.4902, the same at n up to 40000.
    n = np.arange(1.0, 10001.0)
    empty = np.empty(0, dtype=complex)
    m = models.Model(ModelSpec(Family.DIAG_JORDAN, 2), 0,
                     -n ** -alpha + 1j * n, empty, empty)
    ts = np.geomspace(1.0, 200.0, 24)
    prod = models.norm_curve(m, ts, resolvent_blocks(m, 1.0),
                             linalg.LANCZOS_TOL_DEFAULT)[1]
    fit = fit_rate(_samples(ts, prod, Quantity.RESOLVENT_PRODUCT_NORM),
                   FitFamily.POWER)
    assert abs(fit.exponent_or_scale + 1.0 / alpha) <= 0.03


# ---------------------------------------------------------------- hardy

def test_hardy_single_spike():
    report = hardy_check([1.0])
    assert report.lhs == pytest.approx(1.0)
    assert report.rhs == pytest.approx(2.0)
    assert report.ratio == pytest.approx(1.0 / 8.0)


def test_hardy_plateau_oracle():
    c = np.ones(100, dtype=complex)
    report = hardy_check(c)
    lhs_oracle = sum(1.0 / k ** 2 for k in range(1, 101))
    assert report.lhs == pytest.approx(lhs_oracle)
    assert report.rhs == pytest.approx(2.0)
    assert report.ratio == pytest.approx(lhs_oracle / 8.0)
    assert report.ratio <= 1.0


def test_hardy_zero_sequence():
    report = hardy_check(np.zeros(5))
    assert report.lhs == report.rhs == report.ratio == 0.0
    assert hardy_check([]) == HardyReport(0.0, 0.0, 0.0)


def test_hardy_ratio_of_the_extremal_sequence_is_the_exact_worst(tmp_path):
    # The exact worst ratio at length L is the top eigenvalue of diag(1/n^2)
    # against 4 tridiag(-1, 2, -1); it rises with L towards the constant 1
    # only logarithmically, so the <= 1 verdict alone would pass a kernel
    # whose constant 4 were 3 (0.658 * 4/3 = 0.88 at L = 512).
    worst = {}
    for length in (64, 512):
        worst[length], vector = hardy_extremal(length)
        assert hardy_check(vector).ratio == pytest.approx(worst[length],
                                                          rel=1e-12, abs=0.0)
    assert worst[64] == pytest.approx(0.5188448014, abs=1e-10)
    assert worst[64] < worst[512] < 1.0
    drawn = run_hardy(2000, max_len=64, out_dir=str(tmp_path / "hardy"))
    assert drawn.verdicts["hardy_bound"].metrics["worst_ratio"] <= worst[64]


def test_hardy_near_extremal_sequence():
    c = 1.0 / np.sqrt(np.arange(1, 513, dtype=float))
    assert hardy_check(c).ratio <= 1.0


def test_hardy_seeded_random_sequences():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        length = int(rng.integers(2, 129))
        c = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        assert hardy_check(c).ratio <= 1.0


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.complex_numbers(max_magnitude=1e8, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=64))
def test_hardy_property(seq):
    assert hardy_check(np.array(seq)).ratio <= 1.0 + 1e-12


def test_hardy_extreme_magnitudes():
    assert hardy_check([1e200, 2e200]).ratio == pytest.approx(
        hardy_check([1.0, 2.0]).ratio, rel=1e-15)


def test_hardy_accepts_a_modulus_above_the_largest_float():
    # |1.7e308 + 1.7e308j| overflows to inf although both parts are finite.
    assert hardy_check([1.7e308 + 1.7e308j]) == hardy_check([1 + 1j]) \
        == HardyReport(1.0, 2.0, 0.125)
    big = hardy_check([1.7e308 + 1.7e308j, -1e308, 3e307j])
    assert big.ratio == pytest.approx(
        hardy_check([1.7 + 1.7j, -1.0, 0.3j]).ratio, rel=1e-15)


def test_hardy_rejects_non_finite_entries():
    for bad in ([1.0, np.inf], [complex(1.0, np.nan)], [np.nan, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            hardy_check(bad)
    with pytest.raises(ValueError, match="finite"):
        hardy_sums([1.0, 2.0, np.inf], [2, 1])


def test_hardy_sums_rejects_lengths_that_do_not_cover_the_values():
    for lengths in ([], [2, 0, 1], [1, 1], [2, 2]):
        with pytest.raises(ValueError, match="lengths"):
            hardy_sums([1.0, 2.0, 3.0], lengths)


def _ulps(got: float, want: float) -> float:
    return abs(got - want) / np.spacing(max(abs(got), abs(want)))


# One sequence: its length, the seed of its entries, and either None (the
# zero sequence) or the decimal exponents of its largest entry and of the
# spread below it.
_HARDY_SEQUENCE = st.tuples(
    st.integers(1, 600), st.integers(0, 2 ** 32 - 1),
    st.none() | st.tuples(st.floats(-300.0, 300.0), st.floats(0.0, 30.0)))


def _hardy_sequence(length, seed, magnitude):
    if magnitude is None:
        return np.zeros(length, dtype=complex)
    top, spread = magnitude
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, length))
    parts /= np.max(np.abs(parts))
    return (parts[0] + 1j * parts[1]) * 10.0 ** (top - spread
                                                 * rng.random(length))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(_HARDY_SEQUENCE, min_size=1, max_size=40))
def test_hardy_sums_matches_one_sequence_at_a_time(batch):
    seqs = [_hardy_sequence(*drawn) for drawn in batch]
    lhs, rhs, ratio = hardy_sums(np.concatenate(seqs),
                                 [seq.size for seq in seqs])
    for j, seq in enumerate(seqs):
        row = (lhs[j], rhs[j], ratio[j])
        assert hardy_check(seq) == HardyReport(*row)
        if not np.any(seq):
            assert row == (0.0, 0.0, 0.0)
            continue
        for got, want in zip(row, hardy_one(seq)):
            assert _ulps(got, want) <= 16


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.just(0j) | st.complex_numbers(min_magnitude=1e-3,
                                                 max_magnitude=1e8),
                min_size=1, max_size=64),
       st.floats(min_value=-150.0, max_value=150.0))
def test_hardy_ratio_is_scale_invariant(seq, log10_scale):
    c = np.array(seq)
    scaled = hardy_check(10.0 ** log10_scale * c).ratio
    assert math.isclose(scaled, hardy_check(c).ratio, rel_tol=1e-12)


# ---------------------------------------------------------------- witness

def test_witness_vector_frozen_tent():
    vec, norm = witness_vector(10.0, 80)
    assert vec[0] == 2.0 and vec[1] == 3.0
    assert vec[18] == 20.0 and vec[19] == 19.0
    assert np.all(vec[39:] == 0.0)
    assert norm ** 2 == pytest.approx(42.0)


@pytest.mark.parametrize("t", [10.0, 20.0, 40.0])
def test_witness_norm_squared_is_4t_plus_2(t):
    _, norm = witness_vector(t, int(8 * t))
    assert norm ** 2 == pytest.approx(4.0 * t + 2.0, abs=1e-9)


def test_witness_minimal_tent_norm():
    t = E + 0.1
    _, norm = witness_vector(t, 40)
    assert abs(norm ** 2 - 4.0 * t) <= 3.0


def test_witness_scaling_doubles_norm_squared():
    _, n1 = witness_vector(25.0, 400)
    _, n2 = witness_vector(50.0, 400)
    assert n2 ** 2 / n1 ** 2 == pytest.approx(2.0, rel=0.05)


def test_witness_vector_guards():
    with pytest.raises(ValueError):
        witness_vector(2.0, 100)  # t must exceed e
    with pytest.raises(ValueError):
        witness_vector(10.0, 30)  # tent does not fit


def test_witness_lower_bound_bracket_and_bound():
    m = _model(Family.LOG_SPECTRUM, 81, order=1)
    bound = witness_lower_bound(m, 10.0)
    assert bound.normalized == bound.raw_ratio * math.log(10.0) / 10.0
    # Never exceeds the true operator norm of the product (svd oracle).
    full = dense(evolve_blocks(m, 10.0)) @ dense(resolvent_blocks(m, 0.0))
    assert bound.raw_ratio <= dense_operator_norm(full, 1) * (1.0 + 1e-9)


@pytest.mark.parametrize("t", [10.0, 20.0])
def test_witness_raw_ratio_is_the_dense_quotient(t):
    # The value itself, not only its bound: ||T(t) A^-1 x|| / ||x|| with the
    # dense semigroup and resolvent and the dense weighted norm.
    m = _model(Family.LOG_SPECTRUM, 162, order=1)
    assert m.dim == 161
    x, _ = witness_vector(t, m.dim)
    y = (dense(evolve_blocks(m, t)) @ dense(resolvent_blocks(m, 0.0))) @ x
    order = m.norm_order
    want = weighted_vector_norm(order, y) / weighted_vector_norm(order, x)
    assert witness_lower_bound(m, t).raw_ratio == pytest.approx(want, rel=1e-13)


def test_witness_lower_bound_guards():
    with pytest.raises(ValueError):
        witness_lower_bound(_model(Family.JORDAN_PAIRS, 30), 10.0)
    with pytest.raises(ValueError):
        witness_lower_bound(_model(Family.LOG_SPECTRUM, 30, order=2), 10.0)
    with pytest.raises(TruncationInadequateError):
        witness_lower_bound(_model(Family.LOG_SPECTRUM, 30, order=1), 10.0)
