import dataclasses
import math
import re
from unittest.mock import patch

import numpy as np
import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (block_norms, blocks_on, commutation_probe,
                     contour_projection_closed, dense, dense_operator_norm,
                     every_block, full_support_projection, generator_blocks,
                     riesz_projection_closed, trapezoid_exact,
                     trapezoid_node_sum, whole_norm_curve, whole_projection)
from semistab.errors import (ClusteredSpectrumError, ContourTooCloseError,
                             NonconvergedError)
from semistab import linalg, models, spectral
from semistab.asymptotics import NormSamples, Quantity, sample_norms
from semistab.experiments import parse_config, run_simulate, run_theorem_check
from semistab.linalg import LANCZOS_TOL_DEFAULT
from semistab.models import (BlockDiagonal, Family, ModelSpec, build_model,
                             eigenvalues, evolve_blocks, norm_curve,
                             resolvent_blocks)
from semistab.spectral import (Contour, hypothesis_a_check, hypothesis_b_check,
                               riesz_projection_quadrature)


def _model(family, max_index, **kw):
    return build_model(ModelSpec(family, max_index, **kw))


def _record_calls(monkeypatch, name, module=models):
    """Replace <module>.<name> by a wrapper; returns the list of its
    arguments."""
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def _record_pairs(monkeypatch):
    """Record the (t, block) pairs each call of the semigroup evaluates, one
    list per call: a 1x1 block as its eigenvalue, a 2x2 block as (mid,
    half_gap), each at its own time."""
    calls = []
    original = models.evolve_blocks

    def recorded(model, t, **kwargs):
        blocks = model.scalars.tolist() + list(zip(model.mid.tolist(),
                                                   model.half_gap.tolist()))
        calls.append(list(zip(np.broadcast_to(t, len(blocks)).tolist(),
                              blocks)))
        return original(model, t, **kwargs)

    monkeypatch.setattr(models, "evolve_blocks", recorded)
    return calls


def _semi(model, ts):
    """||T(t)|| samples on ts; unlike sample_norms, at any truncation."""
    ts = np.asarray(ts, dtype=float)
    return NormSamples(Quantity.SEMIGROUP_NORM, ts, norm_curve(
        model, ts, resolvent_blocks(model, 1.0), LANCZOS_TOL_DEFAULT)[0])


def test_contour_validation():
    with pytest.raises(ValueError):
        Contour(0j, -1.0)
    with pytest.raises(ValueError):
        Contour(0j, 1.0, nodes=8)
    with pytest.raises(ValueError):
        Contour(0j, 1.0, nodes=17)
    assert Contour(1j, 0.5).nodes == 64


@pytest.mark.parametrize("center, radius", [(1.5j, math.nan),
                                            (math.nan, 0.5), (math.inf, 0.5)])
def test_contour_with_a_non_finite_part_raises(center, radius):
    # Each projected onto nothing: rank 0, drift 0.0, no eigenvalue enclosed.
    with pytest.raises(ValueError, match="finite center and a finite positive"):
        riesz_projection_quadrature(_model(Family.JORDAN_PAIRS, 20),
                                    Contour(center, radius))


def test_hypothesis_a_passes_a_nan_radius_cap_to_the_contour():
    # min(gap / 2, nan) dropped the NaN and gave radius 0.5, the half-gap.
    m = _model(Family.JORDAN_PAIRS, 20)
    lam = m.spectrum[0]
    assert hypothesis_a_check(m, lam).radius == 0.5
    with pytest.raises(ValueError, match="finite positive radius, got .* nan"):
        hypothesis_a_check(m, lam, radius_cap=math.nan)


def test_quadrature_jordan_pairs_single_eigenvalue():
    m = _model(Family.JORDAN_PAIRS, 2)
    report = riesz_projection_quadrature(m, Contour(2.5j, 0.4))
    expected = np.array([[1.0, -1j], [0.0, 0.0]])
    assert np.max(np.abs(dense(whole_projection(m, report)) - expected)) <= 1e-8
    assert report.rank == 1
    assert report.enclosed == (2.5j,)
    assert report.idempotency_defect <= 1e-10
    assert report.commutation_defect <= 1e-9


def test_quadrature_log_spectrum_coordinate_projection():
    m = _model(Family.LOG_SPECTRUM, 6)
    report = riesz_projection_quadrature(m, Contour(1j * np.log(2), 0.1))
    expected = np.zeros((m.dim, m.dim))
    expected[0, 0] = 1.0
    assert np.max(np.abs(dense(whole_projection(m, report)) - expected)) <= 1e-10
    assert report.rank == 1


def test_quadrature_empty_contour_is_zero():
    m = _model(Family.LOG_SPECTRUM, 6)
    report = riesz_projection_quadrature(m, Contour(0.5 + 0.0j, 0.1))
    assert np.max(np.abs(dense(whole_projection(m, report)))) <= 1e-10
    assert report.rank == 0
    assert report.enclosed == ()


def test_quadrature_rejects_contour_through_eigenvalue():
    m = _model(Family.LOG_SPECTRUM, 6)
    lam = 1j * np.log(3)
    with pytest.raises(ContourTooCloseError):
        riesz_projection_quadrature(m, Contour(lam + 0.1, 0.1))


def test_quadrature_nonconverged_when_pole_hugs_contour():
    # Circle centered between two eigenvalues whose radius leaves both just
    # outside by 2e-6: admissible margin, but the integrand is near-singular
    # on the contour and node doubling exposes the drift.
    m = _model(Family.LOG_SPECTRUM, 6)
    lo, hi = 1j * np.log(2), 1j * np.log(3)
    center = (lo + hi) / 2.0
    radius = abs(hi - lo) / 2.0 - 2e-6
    with pytest.raises(NonconvergedError):
        riesz_projection_quadrature(m, Contour(center, radius, nodes=16))


def test_quadrature_with_a_loose_drift_tolerance_checks_the_trace():
    # The same near-singular circle, with node doubling let through: the
    # trace of the sum is far from an integer, and that raises instead.
    m = _model(Family.LOG_SPECTRUM, 6)
    lo, hi = 1j * np.log(2), 1j * np.log(3)
    contour = Contour((lo + hi) / 2.0, abs(hi - lo) / 2.0 - 2e-6, nodes=16)
    with pytest.raises(NonconvergedError, match="not within 1e-06 of an integer"):
        riesz_projection_quadrature(m, contour, drift_tol=np.inf)


def test_closed_projection_jordan_block_is_block_identity():
    m = _model(Family.DIAG_JORDAN, 3)
    eigs = eigenvalues(m)
    idx = next(i for i, e in enumerate(eigs) if e.multiplicity == 2)
    report = riesz_projection_closed(m, idx)
    p = dense(whole_projection(m, report))
    lam = eigs[idx].value
    s = m.scalars.size + 2 * int(np.flatnonzero(m.upper == lam)[0])
    assert np.max(np.abs(p[s:s + 2, s:s + 2] - np.eye(2))) == 0.0
    assert report.rank == 2


def test_closed_projection_jordan_pairs_upper():
    m = _model(Family.JORDAN_PAIRS, 4)
    eigs = eigenvalues(m)
    idx = next(i for i, e in enumerate(eigs) if abs(e.value - 4.25j) < 1e-12)
    report = riesz_projection_closed(m, idx)
    mat = dense(whole_projection(m, report))
    block = mat[4:6, 4:6]
    assert np.max(np.abs(block - np.array([[1.0, -2j], [0.0, 0.0]]))) < 1e-12
    norm = dense_operator_norm(mat, 0)
    assert norm == pytest.approx(np.sqrt(5.0), rel=1e-10)


def test_closed_projection_index_out_of_range():
    m = _model(Family.JORDAN_PAIRS, 3)
    with pytest.raises(IndexError):
        riesz_projection_closed(m, 99)


@pytest.mark.parametrize("family,max_index", [(Family.DIAG_JORDAN, 5),
                                              (Family.JORDAN_PAIRS, 6),
                                              (Family.LOG_SPECTRUM, 8)])
def test_quadrature_matches_closed_form(family, max_index):
    m = _model(family, max_index)
    eigs = eigenvalues(m)
    for idx, eig in enumerate(eigs):
        contour = hypothesis_a_check(m, eig.value)
        quad = riesz_projection_quadrature(m, contour)
        closed = riesz_projection_closed(m, idx)
        gap = whole_projection(m, quad) - whole_projection(m, closed)
        assert gap.sup_singular_value() <= 1e-8
        assert quad.idempotency_defect <= 1e-10
        assert quad.commutation_defect <= 1e-9
        assert quad.rank == closed.rank == eig.multiplicity


def test_disjoint_projections_are_additive():
    m = _model(Family.LOG_SPECTRUM, 8)
    c1 = hypothesis_a_check(m, 1j * np.log(2))
    c2 = hypothesis_a_check(m, 1j * np.log(4))
    p1 = riesz_projection_quadrature(m, c1)
    p2 = riesz_projection_quadrature(m, c2)
    w1, w2 = whole_projection(m, p1), whole_projection(m, p2)
    assert (w1 @ w2).sup_singular_value() <= 1e-12
    combined = dense(w1) + dense(w2)
    assert np.max(np.abs(combined @ combined - combined)) <= 1e-12
    assert round(np.trace(combined).real) == p1.rank + p2.rank


def test_node_doubling_is_negligible():
    m = _model(Family.JORDAN_PAIRS, 5)
    lam = eigenvalues(m)[0].value
    c64 = hypothesis_a_check(m, lam, nodes=64)
    c128 = hypothesis_a_check(m, lam, nodes=128)
    p64 = riesz_projection_quadrature(m, c64)
    p128 = riesz_projection_quadrature(m, c128)
    gap = whole_projection(m, p64) - whole_projection(m, p128)
    assert gap.sup_singular_value() <= 1e-10


def test_hypothesis_a_log_spectrum_radius():
    m = _model(Family.LOG_SPECTRUM, 10)
    contour = hypothesis_a_check(m, 1j * np.log(2))
    assert contour.center == 1j * np.log(2)
    assert contour.radius == pytest.approx((np.log(3) - np.log(2)) / 2.0)


def test_hypothesis_a_jordan_pairs_radius_from_enumeration():
    m = _model(Family.JORDAN_PAIRS, 6)
    lam = 2.5j
    values = [e.value for e in eigenvalues(m)]
    gap = min(abs(v - lam) for v in values if abs(v - lam) > 1e-12)
    contour = hypothesis_a_check(m, lam)
    assert contour.radius == pytest.approx(min(gap / 2.0, 0.5))


def test_hypothesis_a_diag_jordan_capped_radius():
    m = _model(Family.DIAG_JORDAN, 6)
    contour = hypothesis_a_check(m, 1j)
    assert contour.radius <= 0.5
    # The nearest eigenvalue sits at distance 1, so the cap binds.
    assert contour.radius == pytest.approx(0.5)


def test_hypothesis_a_rejects_non_eigenvalue():
    m = _model(Family.LOG_SPECTRUM, 5)
    with pytest.raises(ValueError):
        hypothesis_a_check(m, 1.0 + 1.0j)


def test_hypothesis_a_clustered_spectrum(monkeypatch):
    # The built-in families stay isolated at small truncations, so shrink a
    # gap artificially in the spectral table to exercise the error path.
    none = np.zeros(0, dtype=complex)
    clustered = (np.array([1j, 1j + 1e-10]), none, none)
    row = models.FAMILIES[Family.LOG_SPECTRUM]
    monkeypatch.setitem(models.FAMILIES, Family.LOG_SPECTRUM,
                        dataclasses.replace(row, table=lambda _: clustered))
    m = _model(Family.LOG_SPECTRUM, 3)
    with pytest.raises(ClusteredSpectrumError):
        hypothesis_a_check(m, 1j)


def test_hypothesis_b_constant_projected_norm_decays_against_linear():
    m = _model(Family.JORDAN_PAIRS, 3)
    contour = hypothesis_a_check(m, 2.5j)
    ts = np.geomspace(10.0, 1000.0, 12)
    proj = riesz_projection_quadrature(m, contour)
    curve = hypothesis_b_check(m, proj, _semi(m, ts), lambda t: t + 1.0)
    oracle = np.sqrt(1.0 + 1.0) / (ts + 1.0)  # ||P|| = sqrt(1 + (n/2)^2), n = 2
    assert np.max(np.abs(curve.values - oracle)) <= 1e-7
    assert curve.decaying
    assert curve.slope == pytest.approx(-1.0, abs=0.1)


def test_hypothesis_b_empty_contour_curve_is_zero():
    m = _model(Family.LOG_SPECTRUM, 6)
    proj = riesz_projection_quadrature(m, Contour(0.5 + 0.0j, 0.1))
    curve = hypothesis_b_check(m, proj, _semi(m, np.geomspace(1.0, 100.0, 8)),
                               lambda t: t + 1.0)
    assert not np.any(curve.values)  # rank 0: no norm is taken
    assert curve.decaying
    assert curve.slope is None


@pytest.mark.parametrize("order", [1, 0])
def test_hypothesis_b_rank_zero_takes_no_norm(monkeypatch, order):
    # Around no eigenvalue the projection's entries are about 1e-103, below
    # the weighted kernel's range, so at rank 0 the curve must be 0 with no
    # norm taken, in either norm.
    m = _model(Family.LOG_SPECTRUM, 1601, order=1)
    m = _euclidean(m) if order == 0 else m
    proj = riesz_projection_quadrature(m, Contour(20.0 + 0.0j, 0.5))
    assert proj.rank == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a norm was taken")

    for module, name in ((linalg, "operator_norm"), (models, "norm_curve"),
                         (models, "block_operator_norm")):
        monkeypatch.setattr(module, name, refuse)
    ts = np.geomspace(10.0, 200.0, 8)
    semi = NormSamples(Quantity.SEMIGROUP_NORM, ts, np.ones(ts.size))
    curve = hypothesis_b_check(m, proj, semi, lambda t: t + 1.0)
    assert np.array_equal(curve.values, np.zeros(ts.size))
    assert curve.decaying
    assert curve.slope is None


def test_hypothesis_b_log_spectrum_against_power_envelope():
    m = _model(Family.LOG_SPECTRUM, 20)
    contour = hypothesis_a_check(m, 1j * np.log(3))
    ts = np.geomspace(1.0, 100.0, 10)
    proj = riesz_projection_quadrature(m, contour)
    curve = hypothesis_b_check(m, proj, _semi(m, ts), lambda t: 5.0 * t + 1.0)
    assert curve.decaying


@pytest.mark.parametrize("scale", [1.0, 1e14])
def test_hypothesis_b_verdict_ignores_envelope_scale(scale):
    # ||T(t) P|| is constant, so no rescaling of a constant envelope may
    # turn the curve into a (vacuous) decay.
    m = _model(Family.JORDAN_PAIRS, 500)
    contour = hypothesis_a_check(m, eigenvalues(m)[0].value)
    proj = riesz_projection_quadrature(m, contour)
    curve = hypothesis_b_check(m, proj, _semi(m, np.geomspace(1.0, 10.0, 12)),
                               lambda t: scale)
    assert not curve.decaying
    assert curve.slope == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_hypothesis_b_rejects_an_envelope_that_is_not_finite_and_positive(bad):
    # Such an envelope used to give inf, nan, negative or zero values and a
    # silent FAIL verdict.
    m = _model(Family.JORDAN_PAIRS, 3)
    proj = riesz_projection_quadrature(m, hypothesis_a_check(m, 2.5j))
    ts = np.geomspace(1.0, 10.0, 6)
    with pytest.raises(ValueError, match=re.escape(f"at t = {ts[3]!r}")):
        hypothesis_b_check(m, proj, _semi(m, ts),
                           lambda t: bad if t > 3.0 else 1.0)


def test_hypothesis_b_fails_on_a_single_surviving_sample():
    # T(t) P = e^(-40 t) P falls below the residue floor after the first
    # time: one sample cannot carry a trend.
    m = _with_table(_DJ, [1j, 2j - 40.0], [], [])
    proj = riesz_projection_quadrature(m, hypothesis_a_check(m, 2j - 40.0))
    curve = hypothesis_b_check(m, proj, _semi(m, [0.1, 5.0, 10.0]),
                               lambda t: 1.0)
    assert curve.values[0] > 0.0
    assert curve.slope is None and not curve.decaying


def test_hypothesis_b_needs_semigroup_norm_samples():
    m = _model(Family.JORDAN_PAIRS, 3)
    proj = riesz_projection_quadrature(m, hypothesis_a_check(m, 2.5j))
    semi = _semi(m, np.geomspace(1.0, 10.0, 6))
    ratio = NormSamples(Quantity.RATIO, semi.ts, semi.values)
    with pytest.raises(ValueError, match="SEMIGROUP_NORM"):
        hypothesis_b_check(m, proj, ratio, lambda t: 1.0)
    for ts in ([5.0], [0.0, 1.0, 2.0]):
        semi = NormSamples(Quantity.SEMIGROUP_NORM, np.array(ts),
                           np.ones(len(ts)))
        with pytest.raises(ValueError, match="grid of positive times"):
            hypothesis_b_check(m, proj, semi, lambda t: 1.0)


def _assert_full_curve(model, proj, semi):
    """The certified curve against T(t) P evaluated on every block."""
    curve = hypothesis_b_check(model, proj, semi, lambda t: 1.0)
    full = whole_norm_curve(model, semi.ts, whole_projection(model, proj))
    assert np.array_equal(curve.values, full)
    return full


_EPS = np.finfo(float).eps


def _assert_ulps(got, want):
    """``got`` within 4 ulps of ``want``, relative: ||T(t)|| from the block
    moduli against the complex T(t)."""
    assert np.all(np.abs(got - want) <= 4 * _EPS * want)


def _euclidean(model):
    """The model measured in the Euclidean norm, where the certified route
    runs."""
    return dataclasses.replace(model, norm_order=0)


def _with_table(model, scalars, mid, half_gap):
    """The Euclidean model on another spectral table."""
    table = [np.array(a, dtype=complex) for a in (scalars, mid, half_gap)]
    return dataclasses.replace(model, scalars=table[0], mid=table[1],
                               half_gap=table[2], norm_order=0)


@st.composite
def _norm_cases(draw):
    """A time in [0, 2000] and a Euclidean model: a family's own, or one on
    a random table whose eigenvalues have real parts <= 0, t times each at
    least -300 so that no modulus overflows or underflows to 0, and some
    blocks with d = 0; of the inputs only Im d may be subnormal."""
    t = draw(st.floats(0.0, 2000.0))
    m = _euclidean(_model(draw(st.sampled_from(list(Family))),
                          draw(st.integers(3, 12))))
    if draw(st.booleans()):
        return m, t
    rate = st.floats(-300.0 / max(t, 300.0), 0.0, allow_subnormal=False)
    freq = st.floats(-50.0, 50.0, allow_subnormal=False)
    scalars = draw(st.lists(st.builds(complex, rate, freq), max_size=3))
    mid, half_gap = [], []
    for _ in range(draw(st.integers(0 if scalars else 1, 6))):
        # Re mid <= -|Re d| keeps both eigenvalues of the block in Re <= 0.
        low, high = sorted(draw(st.tuples(rate, rate)))
        mid.append(complex(low, draw(freq)))
        half_gap.append(draw(st.just(0j) | st.builds(
            complex, st.sampled_from([high, -high]),
            st.floats(-5.0, 5.0))))
    return _with_table(m, scalars, mid, half_gap), t


_DJ = _euclidean(_model(Family.DIAG_JORDAN, 12))
_JP = _euclidean(_model(Family.JORDAN_PAIRS, 12))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_norm_cases())
@example(case=(_DJ, 0.0))
@example(case=(_DJ, 2000.0))
@example(case=(_euclidean(_model(Family.JORDAN_PAIRS, 12)), 2000.0))
@example(case=(_with_table(_DJ, [-0.5 + 1j], [-0.3 + 2j, -1.0], [0j, 0.5j]),
               0.0))
# sinh(t d) / d is t, not 0 / 0, for a subnormal half-gap.
@example(case=(_with_table(_DJ, [], [-0.5 + 1j], [2.2e-313j]), 0.0))
@example(case=(_with_table(_DJ, [], [-0.5 + 1j], [2.2e-313j]), 2000.0))
def test_semigroup_norm_matches_the_whole_semigroup(case):
    # ||T(t)|| from the block moduli, against the sup of block norms of the
    # complex T(t) and against a dense SVD of it.
    m, t = case
    got = models.semigroup_norm(m, t)
    semi = evolve_blocks(m, t)
    _assert_ulps(got, semi.sup_singular_value())
    sigma = np.linalg.svd(dense(semi), compute_uv=False)[0]
    assert abs(got - sigma) <= 8 * _EPS * sigma


def test_semigroup_norm_rejects_negative_time():
    with pytest.raises(ValueError, match="t must be >= 0"):
        models.semigroup_norm(_DJ, -1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_semigroup_norm_raises_where_the_moduli_are_nan():
    # Eigenvalues -2 + 0.5i and -0.5i: at t = 2000 the carrier exp(-t)
    # underflows to 0 while exp(-t Re d) and sinh(t Re d) overflow, so the
    # moduli are 0 * inf; the sup of block norms let that NaN through.
    m = _with_table(_DJ, [], [-1.0], [-1.0 + 0.5j])
    with pytest.raises(ValueError, match="at t = 2000.0 is not finite"):
        models.semigroup_norm(m, 2000.0)
    assert np.isnan(evolve_blocks(m, 2000.0).sup_singular_value())
    got = models.semigroup_norm(m, 300.0)
    sigma = np.linalg.svd(dense(evolve_blocks(m, 300.0)), compute_uv=False)[0]
    assert abs(got - sigma) <= 8 * _EPS * sigma


@settings(derandomize=True, max_examples=25, deadline=None)
@given(family=st.sampled_from(list(Family)), max_index=st.integers(3, 12),
       t_first=st.floats(0.01, 10.0), span=st.floats(1.5, 1e3),
       points=st.integers(2, 12))
def test_certified_curve_matches_full_evaluation(family, max_index, t_first,
                                                 span, points):
    # Against P on its whole support, where the rings leave blocks out.
    m = _euclidean(_model(family, max_index))
    semi = _semi(m, np.geomspace(t_first, t_first * span, points))
    for lam in m.spectrum.tolist():
        contour = hypothesis_a_check(m, lam)
        curve = hypothesis_b_check(m, riesz_projection_quadrature(m, contour),
                                   semi, lambda t: 1.0)
        full = whole_projection(m, full_support_projection(m, contour))
        assert np.array_equal(curve.values, whole_norm_curve(m, semi.ts, full))


# T(t) = diag(1, [[1, t], [0, 1]]) against X = diag(x, e I), where block 1
# has norm about t e > x = v, the seed's.
@pytest.mark.parametrize("x,e,t", [
    # v^2 is subnormal and e^2 underflows to 0.
    (5e-158, 1e-162, 1e5),
    # v^2 is normal, but e^2 = 2024.45 subnormal steps rounds to 2024:
    # squared first, the bound of block 1 falls below v^2.
    (1e-153, 1.0001055927867375e-160, 1e7)])
def test_certified_curve_keeps_blocks_of_subnormal_square(x, e, t):
    m = _with_table(_DJ, [0j], [0j], [0j])
    tiny = np.array([complex(e)])
    factor = BlockDiagonal(np.array([complex(x)]), tiny, 0.0 * tiny, tiny)
    ts = np.array([t])
    got = norm_curve(m, ts, factor, LANCZOS_TOL_DEFAULT)[1]
    want = whole_norm_curve(m, ts, factor)
    assert want[0] > x
    assert np.array_equal(got, want)


#: Half-gaps 0, subnormal, real, imaginary and complex.
_HALF_GAPS = st.sampled_from([0j, 5e-324 + 0j, 1e-310j, 0.3 + 0j, -0.2 + 0j,
                              0.7j, 0.25 - 1.5j])

#: Bounds that are not normal, so that every pair of their time is evaluated.
_NOT_NORMAL = st.sampled_from([0.0, 5e-324, math.inf, math.nan])


@st.composite
def _curve_cases(draw):
    """A Euclidean table of 1x1 and 2x2 blocks; a factor with zero blocks,
    or zero; a grid that may start at t = 0; and ||T(t)|| on it, but where
    drawn, a bound that is not normal."""
    value = st.builds(complex, st.floats(-0.4, 0.1), st.floats(-3.0, 3.0))
    scalars = draw(st.lists(value, max_size=4))
    pairs = draw(st.lists(st.tuples(value, _HALF_GAPS),
                          min_size=0 if scalars else 1, max_size=4))
    m = _with_table(_DJ, scalars, [mid for mid, _ in pairs],
                    [d for _, d in pairs])
    entry = st.just(0j) | st.builds(complex, st.floats(-2.0, 2.0),
                                    st.floats(-2.0, 2.0))
    zero = draw(st.booleans())
    factor = BlockDiagonal(*(np.array([0j if zero else draw(entry)
                                       for _ in range(size)], dtype=complex)
                             for size in [len(scalars)] + 3 * [len(pairs)]))
    times = draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=6,
                          unique=True))
    ts = np.unique(times + [0.0] * draw(st.booleans()))
    bound = np.array([models.semigroup_norm(m, t) for t in ts.tolist()])
    for i in draw(st.sets(st.integers(0, ts.size - 1))):
        bound[i] = draw(_NOT_NORMAL)
    return m, factor, ts, bound


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_curve_cases())
# A zero factor: no bound is normal, and every pair is evaluated.
@example(case=(_with_table(_DJ, [0.1j], [-0.3 + 1j], [0.7j]),
               BlockDiagonal(*4 * [np.zeros(1, dtype=complex)]),
               np.array([0.0, 2.0]), np.array([1.0, 2.0])))
def test_batched_curve_is_the_whole_evaluation_bitwise(case):
    # The curve from the two batches of (grid time, block) pairs is the
    # supremum of the whole product's block norms at each grid time, and
    # where the bound is not normal every block is evaluated, once.
    m, factor, ts, bound = case
    times = []
    original = models.evolve_blocks

    def recorded(model, t, **kwargs):
        times.extend(np.broadcast_to(t, model.scalars.size
                                     + model.mid.size).tolist())
        return original(model, t, **kwargs)

    with patch.object(models, "evolve_blocks", recorded):
        got = norm_curve(m, ts, factor, LANCZOS_TOL_DEFAULT, semi=bound)[1]
    assert np.array_equal(got, whole_norm_curve(m, ts, factor))
    blocks = m.scalars.size + m.mid.size
    for t, b in zip(ts.tolist(), bound.tolist()):
        with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf
            top = (np.max(block_norms(factor)) * b) ** 2
        if not np.finfo(float).tiny <= top < math.inf:
            assert times.count(t) == blocks


@settings(derandomize=True, max_examples=25, deadline=None)
@given(family=st.sampled_from(list(Family)), t_max=st.floats(0.05, 20.0),
       points=st.integers(1, 12), mu_re=st.floats(0.05, 3.0),
       mu_im=st.floats(-5.0, 30.0))
# 19999 blocks, past the 16384 complex entries from which numpy evaluates
# a * (b + c) as (b + c) *= a.
@example(family=Family.JORDAN_PAIRS, t_max=400.0, points=24, mu_re=1.0,
         mu_im=0.0)
def test_resolvent_curve_matches_full_evaluation(family, t_max, points,
                                                 mu_re, mu_im):
    # The order-0 rows of sample_norms at an adequate truncation, at the
    # spec's mu; Re mu > 0 keeps mu off every spectrum, and mu near i n
    # concentrates R_mu on a few blocks.
    mu = complex(mu_re, mu_im)
    m = _euclidean(_model(family, max(models.truncation(family, t_max), 3),
                          mu_default=mu))
    ts = np.geomspace(t_max / 100.0, t_max, points)
    semi, prod = sample_norms(m, ts)
    one = np.ones(m.mid.size, dtype=complex)
    identity = BlockDiagonal(np.ones(m.scalars.size, dtype=complex), one,
                             0.0 * one, one)
    _assert_ulps(semi.values, whole_norm_curve(m, ts, identity))
    assert np.array_equal(prod.values,
                          whole_norm_curve(m, ts, resolvent_blocks(m, mu)))


def _curves(model, ts, nodes=64):
    """||T(t)||, ||T(t) R_mu|| and, per eigenvalue, the projection and its
    hypothesis-(b) curve against f(t) = t + 1."""
    rows = norm_curve(model, ts, resolvent_blocks(model, 1.0),
                      LANCZOS_TOL_DEFAULT)
    semi = NormSamples(Quantity.SEMIGROUP_NORM, ts, rows[0])
    projections = [riesz_projection_quadrature(
        model, hypothesis_a_check(model, lam, nodes=nodes))
        for lam in model.spectrum.tolist()]
    checks = [hypothesis_b_check(model, proj, semi, lambda t: t + 1.0)
              for proj in projections]
    return rows, checks, projections


@settings(derandomize=True, max_examples=20, deadline=None)
@given(family=st.sampled_from(list(Family)), max_index=st.integers(3, 40),
       t_max=st.floats(1.0, 2000.0), seed=st.integers(0, 2 ** 32 - 1),
       nodes=st.sampled_from([64, 256]))
def test_block_permutation_moves_no_curve_and_no_verdict(family, max_index,
                                                         t_max, seed, nodes):
    # Permuting the 2x2 blocks among themselves, and the 1x1 blocks, is a
    # unitary similarity: it guards the index split of the certified route
    # and the support index of each projection, which with 256 nodes leaves
    # out the blocks beyond |z| of about 16.
    m = _euclidean(_model(family, max_index))
    rng = np.random.default_rng(seed)
    scalars, blocks = (rng.permutation(n) for n in (m.scalars.size, m.mid.size))
    shuffled = dataclasses.replace(m, scalars=m.scalars[scalars],
                                   mid=m.mid[blocks],
                                   half_gap=m.half_gap[blocks])
    ts = np.geomspace(t_max / 100.0, t_max, 10)
    rows, checks, projections = _curves(m, ts, nodes)
    moved_rows, moved_checks, moved_projections = _curves(shuffled, ts, nodes)
    assert np.array_equal(moved_rows, rows)
    for check, moved in zip(checks, moved_checks, strict=True):
        assert np.array_equal(moved.values, check.values)
        assert moved.decaying == check.decaying
    # Block k of the shuffled table is block origin[k] of the model.
    origin = np.concatenate([scalars, m.scalars.size + blocks])
    for proj, moved in zip(projections, moved_projections, strict=True):
        held = np.isin(origin, proj.index)
        assert moved.index.tolist() == np.flatnonzero(held).tolist()


def test_certified_curve_takes_a_growing_tail_block(monkeypatch):
    # P is 1 on the first coordinate and residue of about 2^-64 on the
    # second, whose eigenvalue has real part 0.05: from t near 900 on, that
    # tail block of T(t) P carries the norm.
    none = np.zeros(0, dtype=complex)
    table = (np.array([1j, 0.05 + 1.6j]), none, none)
    row = models.FAMILIES[Family.JORDAN_PAIRS]
    monkeypatch.setitem(models.FAMILIES, Family.JORDAN_PAIRS,
                        dataclasses.replace(row, table=lambda _: table))
    m = _model(Family.JORDAN_PAIRS, 2)
    proj = riesz_projection_quadrature(m, hypothesis_a_check(m, 1j))
    assert 0 < abs(whole_projection(m, proj).scalars[1]) < 1e-18
    full = _assert_full_curve(m, proj, _semi(m, np.geomspace(1.0, 2000.0, 16)))
    assert full[0] == pytest.approx(1.0)
    assert full[-1] > 1e20


def test_certified_curve_widens_the_tail_as_the_head_decays(monkeypatch):
    # The Jordan block of i - 1 decays like t e^-t; by t = 60 the residue
    # that P leaves on the unimodular 1x1 block (about 2^-64) exceeds it.
    m = _model(Family.DIAG_JORDAN, 6)
    proj = riesz_projection_quadrature(m, hypothesis_a_check(m, 1j - 1.0))
    ts = np.geomspace(1.0, 60.0, 12)
    semi = _semi(m, ts)
    full = _assert_full_curve(m, proj, semi)
    assert full[-1] > 1e3 * 60.0 * np.exp(-60.0)
    calls = _record_pairs(monkeypatch)
    hypothesis_b_check(m, proj, semi, lambda t: 1.0)
    # The Jordan block at every grid time, then the tail at the last only.
    top, widened = calls
    assert top == [(t, (m.mid[0], m.half_gap[0])) for t in ts.tolist()]
    assert {t for t, _ in widened} == {ts[-1]} and len(widened) > 1


def test_contour_projection_closed_matches_quadrature_for_pairs():
    # A circle enclosing both eigenvalues of one block; the next eigenvalue
    # at 8i/3 sits close outside, so extra nodes keep the trapezoid sharp.
    m = _model(Family.JORDAN_PAIRS, 4)
    contour = Contour(2j, 0.58, nodes=256)  # encloses 1.5j and 2.5j only
    quad = riesz_projection_quadrature(m, contour)
    closed = contour_projection_closed(m, contour)
    gap = whole_projection(m, quad) - whole_projection(m, closed)
    assert gap.sup_singular_value() <= 1e-8
    assert quad.rank == closed.rank == 2


def test_quadrature_evaluates_no_semigroup(monkeypatch):
    # The trapezoid rule is a closed filter of the spectral table, and the
    # commutation defect comes from the generator: neither a resolvent nor
    # the semigroup, whole, sliced or as a norm, is evaluated.
    m = _model(Family.JORDAN_PAIRS, 6)
    contour = hypothesis_a_check(m, 2.5j)
    recorded = [_record_calls(monkeypatch, name) for name in
                ("evolve_blocks", "semigroup_norm", "resolvent_blocks")]
    calls = _record_pairs(monkeypatch)
    riesz_projection_quadrature(m, contour)
    assert recorded == [[], [], []]
    assert calls == []


def test_commutation_defect_is_the_generator_commutator():
    # Block k of T(t) P - P T(t) is c_k(t) g_k, with c_k(t) the corner of
    # T(t) and g_k the corner of A P - P A: the probe the defect replaces,
    # at any t, is max_k |c_k(t)| |g_k|.  A corner perturbed by 1e-6 makes
    # g nonzero on every block.  The projection is not onto the n = 2
    # block, where U P_c - P_c L in the probe cancels to about 1e-11
    # relative at t = 1.
    m = _model(Family.JORDAN_PAIRS, 12)
    report = riesz_projection_quadrature(m, hypothesis_a_check(m, 8j / 3))
    p = whole_projection(m, report)
    perturbed = BlockDiagonal(p.scalars, p.upper, p.corner + 1e-6, p.lower)
    a = generator_blocks(m)
    g = np.abs((a @ perturbed - perturbed @ a).corner)
    for t in (1.0, 10.0, 100.0):
        corner = np.abs(evolve_blocks(m, t).corner)
        assert commutation_probe(m, perturbed, t) == pytest.approx(
            np.max(corner * g), rel=1e-12)
    defect = spectral._defects(m, perturbed)[1]
    assert defect == pytest.approx(np.max(g), rel=1e-12)
    assert defect > 1e-9
    assert report.commutation_defect <= 1e-9


def test_commutation_defect_does_not_depend_on_the_table_size(monkeypatch):
    # 20000 blocks with complex half-gaps, all on the support, which the
    # whole-support report takes at once.  From 16384 complex entries on
    # numpy evaluates c * (u - l) as (u - l) *= c, which rounds differently
    # and here moves the defect; on pieces of 8192 blocks it does not, and
    # the defect taken piece by piece is the reported one, as is the
    # defect the rings report.
    k = np.arange(1, 20001)
    table = (np.zeros(0, dtype=complex), -1.0 + 1j * k,
             np.full(k.size, 0.3 + 0.2j))
    row = models.FAMILIES[Family.JORDAN_PAIRS]
    monkeypatch.setitem(models.FAMILIES, Family.JORDAN_PAIRS,
                        dataclasses.replace(row, table=lambda _: table))
    m = _model(Family.JORDAN_PAIRS, 2)
    contour = hypothesis_a_check(m, m.upper[0])
    full = full_support_projection(m, contour)
    assert full.index.size == k.size
    part, p = m.take(full.index), full.support
    pieces = [slice(j, j + 8192) for j in range(0, k.size, 8192)]
    assert full.commutation_defect == max(np.max(np.abs(
        p.corner[s] * (part.upper[s] - part.lower[s])
        - (p.upper[s] - p.lower[s]))) for s in pieces)
    report = riesz_projection_quadrature(m, contour)
    assert report.commutation_defect == full.commutation_defect


def test_weighted_projection_is_held_on_every_block():
    # The Euclidean reach of this circle is about 0.14, one block of 400;
    # the weighted norm couples every coordinate, so P is held on all.
    m = _model(Family.LOG_SPECTRUM, 401, order=2)
    contour = Contour(1j * np.log(2), 2e-6)
    report = riesz_projection_quadrature(m, contour)
    assert report.index.tolist() == every_block(m).tolist()
    whole = spectral._quadrature_sum(m, contour)[0]
    assert _entries(report.support).tobytes() == _entries(whole).tobytes()
    ts = np.geomspace(1.0, 100.0, 6)
    semi = _semi(m, ts)
    curve = hypothesis_b_check(m, report, semi, lambda t: 1.0)
    assert np.array_equal(curve.values, norm_curve(
        m, ts, whole_projection(m, report), LANCZOS_TOL_DEFAULT,
        semi=semi.values)[1])


def test_hypothesis_b_rejects_a_weighted_projection_on_part_of_the_table():
    m = _model(Family.LOG_SPECTRUM, 20)
    report = riesz_projection_quadrature(m, hypothesis_a_check(m, 1j * np.log(3)))
    cut = dataclasses.replace(report, index=report.index[:5],
                              support=blocks_on(report.support, np.arange(5)))
    with pytest.raises(ValueError, match="couples every coordinate.* 5 of 19"):
        hypothesis_b_check(m, cut, _semi(m, [1.0, 10.0]), lambda t: 1.0)


def test_hypothesis_b_curve_is_norm_over_envelope_per_sample(monkeypatch):
    m = _model(Family.LOG_SPECTRUM, 20)
    proj = riesz_projection_quadrature(m, hypothesis_a_check(m, 1j * np.log(3)))
    ts = np.geomspace(1.0, 100.0, 10)
    whole = whole_projection(m, proj)
    expected = [models.block_operator_norm(
        m, models.evolve_blocks(m, float(t)) @ whole) / (5.0 * t + 1.0)
        for t in ts]
    semi = _semi(m, ts)
    evolves = _record_calls(monkeypatch, "evolve_blocks")
    norms = _record_calls(monkeypatch, "operator_norm", linalg)
    asked = []
    curve = hypothesis_b_check(
        m, proj, semi, lambda t: asked.append(t) or 5.0 * t + 1.0)
    assert curve.values.tolist() == expected  # bitwise
    assert asked == list(ts)
    assert len(evolves) == ts.size
    assert len(norms) == ts.size + 1  # one more for ||P||


_TINY = np.finfo(float).tiny


def _entries(op: BlockDiagonal) -> np.ndarray:
    return np.concatenate([op.scalars, op.upper, op.corner, op.lower])


def _sampled(a: np.ndarray, large: bool) -> np.ndarray:
    """All of ``a``, or on a large model its first and last six entries."""
    return np.concatenate([a[:6], a[-6:]]) if large and a.size > 12 else a


@settings(derandomize=True, max_examples=10, deadline=None)
@given(family=st.sampled_from(list(Family)), max_index=st.integers(2, 40),
       nodes=st.sampled_from([16, 24, 64, 250]))
# A contour centred on a Jordan eigenvalue: z_a = z_b = 0 in its block.
@example(family=Family.DIAG_JORDAN, max_index=4, nodes=16)
# dim 199998: z^N overflows unless written in w = 1/z outside the circle.
@example(family=Family.JORDAN_PAIRS, max_index=100000, nodes=64)
@example(family=Family.JORDAN_PAIRS, max_index=12, nodes=250)
def test_filter_matches_exact_trapezoid_sum(family, max_index, nodes):
    """Oracle chain: the closed filter against the exact trapezoid sum and
    against the node-by-node sum within that sum's rounding bound; the
    closed-form indicator is the third link, in the tests above."""
    # The order-1 weighted norm needs two coordinates.
    assume(family is not Family.LOG_SPECTRUM or max_index > 2)
    m = _model(family, max_index)
    large = m.dim > 1000
    for lam in m.spectrum[:2] if large else m.spectrum:
        contour = hypothesis_a_check(m, lam, nodes=nodes)
        p, p2 = spectral._quadrature_sum(m, contour)
        for op in (p, p2):
            parts = _entries(op).view(float)
            assert np.all(np.isfinite(parts))
            # Subnormal parts would slow every product with P, and are 0.
            assert not np.any((parts != 0) & (np.abs(parts) < _TINY))
        exact = trapezoid_exact(*(_sampled(a, large)
                                  for a in (m.scalars, m.upper, m.lower)),
                                contour)
        got = BlockDiagonal(*(_sampled(a, large) for a in (
            p.scalars, p.upper, p.corner, p.lower)))
        size = max(1.0, exact.sup_singular_value())
        assert (got - exact).sup_singular_value() <= 1e-14 * size
        if not large:
            node, bound = trapezoid_node_sum(m, contour)
            assert np.all(np.abs(_entries(node) - _entries(exact))
                          <= _entries(bound) + 1e-14 * size)
            assert np.all(np.abs(_entries(p) - _entries(node))
                          <= _entries(bound) + 1e-14 * size)


@st.composite
def _support_cases(draw):
    """A circle of radius 1e-6 to 0.5 with 16, 64 or 256 nodes, and a
    model: a family's own, centred on one of its eigenvalues, or a random
    table whose eigenvalues lie near |z| = tiny^(-1/N), where the diagonal
    of the sum reaches tiny, or near (N / (r tiny))^(1/(N+1)), where the
    corner of a close pair does."""
    nodes = draw(st.sampled_from([16, 64, 256]))
    radius = draw(st.floats(1e-6, 0.5))
    if draw(st.booleans()):
        m = _model(draw(st.sampled_from(list(Family))), draw(st.integers(3, 60)))
        return m, Contour(draw(st.sampled_from(m.spectrum.tolist())), radius,
                          nodes)
    log_tiny = np.log(_TINY)
    edges = (np.exp(-log_tiny / nodes),
             np.exp((np.log(nodes / radius) - log_tiny) / (nodes + 1)))
    center = complex(draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)))

    def near_edge():
        size = draw(st.sampled_from(edges)) * draw(st.floats(0.8, 1.25))
        return center + radius * size * np.exp(2j * np.pi * draw(st.floats(0, 1)))

    scalars = [near_edge() for _ in range(draw(st.integers(0, 4)))]
    mid = [near_edge() for _ in range(draw(st.integers(1, 8)))]
    half_gap = [abs(z - center) * draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.3]))
                * 1j ** draw(st.integers(0, 3)) for z in mid]
    return _with_table(_DJ, scalars, mid, half_gap), Contour(center, radius, nodes)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_support_cases())
# Each fails once R(N, r) shrinks by 10%: a 1x1 block at z = 60000 with 64
# nodes leaves 60000^-64 = 6e-306 on the diagonal, and a Jordan block at
# z = 68000 with r = 1e-6 a diagonal below tiny but a corner of 1.6e-306.
@example(case=(_with_table(_DJ, [30000.0], [], []), Contour(0j, 0.5, 64)))
@example(case=(_with_table(_DJ, [], [0.068], [0j]), Contour(0j, 1e-6, 64)))
# 39999 blocks, past the 16384 complex entries from which numpy evaluates
# a * (b + c) as (b + c) *= a, against supports of 4806 and 4557.
@example(case=(_model(Family.JORDAN_PAIRS, 40000),
               Contour(0.3 + 20j, 300.0, 256)))
@example(case=(_model(Family.JORDAN_PAIRS, 40000), Contour(0.3 + 20j, 0.07)))
def test_quadrature_on_the_support_is_the_whole_table_sum(case):
    # Off the support both sums are exactly 0 on the whole table, and on it
    # the sums of the support alone are the same to the last bit.
    m, contour = case
    index = spectral._scan(m, contour)[0]
    off = np.setdiff1d(np.arange(m.scalars.size + m.mid.size), index)
    for whole, held in zip(spectral._quadrature_sum(m, contour),
                           spectral._quadrature_sum(m.take(index), contour)):
        assert not np.any(_entries(blocks_on(whole, off)))
        assert (_entries(blocks_on(whole, index)).tobytes()
                == _entries(held).tobytes())


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_support_cases())
@example(case=(_model(Family.DIAG_JORDAN, 4), Contour(3j - 1.0 / 3.0, 0.5)))
@example(case=(_model(Family.JORDAN_PAIRS, 40000), Contour(0.3 + 20j, 0.07)))
# A drift of 1.5e-35 at |z| = 3.5 and, beyond the first ring, a Jordan block
# at |z| = 4.2 whose diagonal is below 1e-40 but whose corner, 1 / r = 1e6
# times larger, drifts by 2.0e-33.
@example(case=(_with_table(_DJ, [3.5e-6], [4.2e-6], [0j]), Contour(0j, 1e-6)))
# Projections summed on 2 and on 4 rings (8 and 11 of 11 support blocks).
@example(case=(_JP, hypothesis_a_check(_JP, 1.5j)))
@example(case=(_JP, hypothesis_a_check(_JP, 2.5j)))
def test_rings_report_the_whole_support_suprema(case):
    # The rings stop where no block beyond them can reach a supremum: the
    # drift, both defects, the rank, ||P||, the entries of P and the
    # hypothesis-(b) curve are those of P on its whole support, to the last
    # bit.
    m, contour = case
    m = _euclidean(m)
    assume(spectral._scan(m, contour)[4] >= spectral.CONTOUR_MARGIN)
    try:
        full = full_support_projection(m, contour)
    except NonconvergedError:
        with pytest.raises(NonconvergedError):
            riesz_projection_quadrature(m, contour, drift_tol=np.inf)
        return
    report = riesz_projection_quadrature(m, contour, drift_tol=np.inf)
    for name in ("drift", "idempotency_defect", "commutation_defect"):
        assert _bits(getattr(report, name)) == _bits(getattr(full, name)), name
    assert report.rank == full.rank
    assert np.all(np.diff(report.index) > 0)
    assert np.all(np.isin(report.index, full.index))
    want = blocks_on(whole_projection(m, full), report.index)
    assert _entries(report.support).tobytes() == _entries(want).tobytes()
    norms = [models.block_operator_norm(m.take(r.index), r.support)
             for r in (report, full)]
    assert _bits(norms[0]) == _bits(norms[1])
    # Times short enough that exp(t Re lam) stays finite.
    eigs = np.concatenate([m.scalars, m.upper, m.lower])
    ts = np.geomspace(0.5, 300.0, 6) / max(1.0, float(np.max(eigs.real)))
    try:
        semi = NormSamples(Quantity.SEMIGROUP_NORM, ts, np.array(
            [models.semigroup_norm(m, t) for t in ts.tolist()]))
    except ValueError:  # a norm that is not finite
        return
    curves = [hypothesis_b_check(m, r, semi, lambda t: 1.0).values
              for r in (report, full)]
    assert curves[0].tobytes() == curves[1].tobytes()


def test_hypothesis_b_takes_the_whole_support_where_a_far_block_reaches():
    # Around -1/3 + 3i the rings hold the blocks of 2i - 1/2 and 3i - 1/3.
    # By t = 288, T(t) P there has decayed below the residue P leaves on
    # the unimodular block of i, at |z| = 4.06 outside them, which carries
    # the curve: 1.22e-39 on the whole support, 5.85e-40 on the rings.
    m = _model(Family.DIAG_JORDAN, 4)
    contour = hypothesis_a_check(m, 3j - 1.0 / 3.0)
    report = riesz_projection_quadrature(m, contour)
    full = full_support_projection(m, contour)
    assert report.index.tolist() == [2, 3] and report.beyond > 0
    assert full.index.tolist() == [0, 1, 2, 3]
    ts = np.array([8.0, 288.0])
    rings = whole_norm_curve(m, ts, whole_projection(m, report))
    want = whole_norm_curve(m, ts, whole_projection(m, full))
    assert rings[1] == pytest.approx(5.84961739e-40)
    assert want[1] == pytest.approx(1.22288441e-39)
    curve = hypothesis_b_check(m, report, _semi(m, ts), lambda t: 1.0)
    assert np.array_equal(curve.values, want)


def test_a_block_on_the_edge_of_a_ring_is_held_once():
    # |z| = 0, 4 and 16 exactly.  The first ring has no drift, which no
    # bound beyond can be below; the second holds the block at |z| = 4, and
    # beyond it the block at 16 is bounded by 16^-64 against a drift of
    # about 4^-64.
    m = _with_table(_DJ, [0j, 2.0, 8.0], [], [])
    report = riesz_projection_quadrature(m, Contour(0j, 0.5))
    assert report.index.tolist() == [0, 1]
    assert 0 < report.beyond < 1e-76 < report.drift


def test_a_projection_on_several_rings_is_their_union_sum():
    # Three of the five lowest eigenvalues of _JP need more than the first
    # ring, |z| < 4; P is then the whole support's P on the rings' blocks,
    # not the last ring's sum.
    several = 0
    for lam in models.lowest_eigenvalues(_JP, 5).tolist():
        contour = hypothesis_a_check(_JP, lam)
        index, least = spectral._scan(_JP, contour)[:2]
        report = riesz_projection_quadrature(_JP, contour)
        full = full_support_projection(_JP, contour)
        want = blocks_on(whole_projection(_JP, full), report.index)
        assert _entries(report.support).tobytes() == _entries(want).tobytes()
        several += bool(np.any(least[np.isin(index, report.index)]
                               >= spectral._RING_GROWTH))
    assert several == 3


def test_one_margin_rules_pruning_and_the_rings(monkeypatch):
    # A bound between 1 - 1e-6 and 1 - 1e-12 times a value attained is ruled
    # out by the shipped margin and kept by the wider one, in _prune's keep
    # rule and in spectral._final alike.
    bound = np.array([1.0, 1.0 - 1e-9])
    decisions = []
    for margin in (models.MARGIN, 1.0 - 1e-6):
        monkeypatch.setattr(models, "MARGIN", margin)
        seen = []

        def norms_of(sets, items):
            seen.extend(items.tolist())
            return sets, np.sqrt(bound[items])

        models._prune(bound, norms_of)
        final = spectral._final(np.array([1.0]), bound[1])
        decisions.append((1 in seen, bool(final[0])))
    assert decisions == [(False, True), (True, False)]


def test_a_bound_at_the_margin_leaves_a_supremum_open():
    # The rule is strict, and a subnormal supremum is never final.
    sup = np.array([1.0, 1e-300, 1e-310, 0.0])
    bound = models.MARGIN * sup
    assert spectral._final(sup, bound).tolist() == [False, False, False, True]
    below = np.nextafter(bound, 0.0)
    assert spectral._final(sup, below).tolist() == [True, True, False, True]


@st.composite
def _clustered_tables(draw):
    """A few eigenvalues up the imaginary axis at gaps from 1e-9 to 0.3,
    some with a near-duplicate at most 1e-12 away."""
    gaps = draw(st.lists(st.sampled_from([1e-9, 1e-7, 1e-6, 2e-6, 1e-3, 0.3])
                         | st.floats(1e-9, 0.3), min_size=1, max_size=6))
    table = [1j * (1.0 + x) for x in np.cumsum([0.0] + gaps)]
    for i in draw(st.lists(st.integers(0, len(table) - 1), max_size=3)):
        shift = draw(st.floats(-1e-12, 1e-12)) * 1j ** draw(st.integers(0, 3))
        table.append(table[i] + shift)
    return table


@settings(derandomize=True, max_examples=200, deadline=None)
@given(table=_clustered_tables(), cap=st.sampled_from([1e-6, 2e-6, 0.5]))
# A gap of 1e-7 gives a radius of 5e-8, inside the quadrature's margin of its
# own center; a near-duplicate 1e-12 away lies 1e-6 - 1e-12 from a circle of
# radius 1e-6.
@example(table=[1j, 1j + 1e-7, 2j, 3j], cap=0.5)
@example(table=[1j, 1j + 1e-12, 2j], cap=1e-6)
def test_hypothesis_a_circles_pass_the_quadrature_margin(table, cap):
    # Every circle hypothesis (a) returns passes the quadrature's margin
    # check and encloses only its eigenvalue; every other eigenvalue is
    # clustered.
    m = _with_table(_DJ, table, [], [])
    for lam in m.spectrum.tolist():
        try:
            contour = hypothesis_a_check(m, lam, radius_cap=cap)
        except ClusteredSpectrumError:
            continue
        _, _, _, enclosed, worst = spectral._scan(m, contour)
        assert worst >= spectral.CONTOUR_MARGIN
        assert lam in enclosed
        assert all(abs(z - lam) <= spectral._SAME_VALUE for z in enclosed)


@pytest.mark.parametrize("family", list(Family))
def test_doubled_filter_is_the_exact_2n_sum(family):
    m = _model(family, 12)
    for lam in m.spectrum:
        contour = hypothesis_a_check(m, lam, nodes=24)
        p, p2 = spectral._quadrature_sum(m, contour)
        exact = trapezoid_exact(m.scalars, m.upper, m.lower, contour, nodes=48)
        size = max(1.0, exact.sup_singular_value())
        assert (p2 - exact).sup_singular_value() <= 1e-14 * size
        report = riesz_projection_quadrature(m, contour, drift_tol=1.0)
        assert report.drift == (p - p2).sup_singular_value()


def test_filter_at_node_sum_error_scale():
    # r = 0.005 around a JORDAN_PAIRS pair at n = 200 with 16 nodes: forming
    # mu - lam costs the node sum about |mu| / r ulps per term, so it strays
    # from the exact sum far more than the filter does.
    m = _model(Family.JORDAN_PAIRS, 200)
    contour = hypothesis_a_check(m, m.spectrum[-1], nodes=16)
    assert contour.radius == pytest.approx(0.005, rel=0.01)
    p, _ = spectral._quadrature_sum(m, contour)
    node, bound = trapezoid_node_sum(m, contour)
    exact = trapezoid_exact(m.scalars, m.upper, m.lower, contour)
    node_error = np.max(np.abs(_entries(node) - _entries(exact)))
    filter_error = np.max(np.abs(_entries(p) - _entries(exact)))
    assert node_error <= np.max(_entries(bound))
    assert filter_error <= 1e-14 * max(1.0, exact.sup_singular_value())
    assert filter_error < node_error / 100


_SMALL_RUN = """\
model.family = JORDAN_PAIRS
grid.t_min = 1.0
grid.t_max = 20.0
grid.points = 9
grid.spacing = GEOMETRIC
checks.top_k = 3
output.formats = JSON
output.directory = {out}
"""


def test_theorem_check_shares_one_semigroup_per_grid_time(monkeypatch,
                                                          tmp_path):
    # The resolvent-product curve and the projected curves evaluate T(t) X
    # only on the blocks of X that can attain its norm, ||T(t)|| comes from
    # the block moduli once per grid time, and the commutation defects from
    # the generator: no whole semigroup is evaluated.
    cfg = parse_config(_SMALL_RUN.format(out=tmp_path / "t"))
    resolvents = _record_calls(monkeypatch, "resolvent_blocks")
    norms = _record_calls(monkeypatch, "semigroup_norm")
    calls = _record_pairs(monkeypatch)
    # The first hypothesis-(b) check ends the sampling of ||T(t) R_mu||.
    started = []
    check = spectral.hypothesis_b_check

    def recorded_check(*args, **kwargs):
        started.append(len(calls))
        return check(*args, **kwargs)

    monkeypatch.setattr(spectral, "hypothesis_b_check", recorded_check)
    report = run_theorem_check(cfg)
    checked = report.verdicts["hypothesis_b_decay"].metrics["checked"]
    points = cfg.grid.points
    assert checked == 3
    assert len(resolvents) == 1
    assert [t for (t,) in norms] == cfg.grid.values().tolist()
    m = build_model(cfg.model)
    assert calls and all(len({block for _, block in pairs}) < m.mid.size
                         for pairs in calls)
    sampled, projected = calls[:started[0]], calls[started[0]:]
    grid = cfg.grid.values().tolist()
    # ||T(t) R_mu|| evaluates the block of largest bound at every grid time,
    # in one batch, and from t = 3.08 on the blocks it cannot rule out, in
    # one more.
    top, rest = sampled
    assert [t for t, _ in top] == grid and len({b for _, b in top}) == 1
    assert sorted({t for t, _ in rest}) == grid[3:]
    assert not set(top) & set(rest)
    # Each projected curve: the one block of P at every grid time.
    assert len(projected) == checked
    lowest = m.spectrum[:checked]
    for pairs in projected:
        assert [t for t, _ in pairs] == grid
        [(mid, half_gap)] = {block for _, block in pairs}
        assert np.any(np.isin(lowest, [mid + half_gap, mid - half_gap]))


def test_simulate_evaluates_the_semigroup_once_per_grid_time(monkeypatch,
                                                             tmp_path):
    # In the Euclidean norm once per grid time means one norm from the
    # block moduli, and no whole semigroup: T(t) R_mu is evaluated on the
    # (t, block) pairs that theorem-check's sampling evaluates.
    cfg = parse_config(_SMALL_RUN.format(out=tmp_path / "s"))
    calls = _record_pairs(monkeypatch)
    norms = _record_calls(monkeypatch, "semigroup_norm")
    run_simulate(cfg)
    assert len(norms) == cfg.grid.points
    m = build_model(cfg.model)
    assert all(len({block for _, block in pairs}) < m.mid.size
               for pairs in calls)
    grid = cfg.grid.values().tolist()
    top, rest = calls
    assert [t for t, _ in top] == grid and len({b for _, b in top}) == 1
    assert sorted({t for t, _ in rest}) == grid[3:]


def test_simulate_evaluates_the_weighted_semigroup_once_per_grid_time(
        monkeypatch, tmp_path):
    # The weighted norms take T(t) and T(t) R_mu whole, from one T(t).
    text = _SMALL_RUN.replace("JORDAN_PAIRS", "LOG_SPECTRUM\nmodel.order = 2")
    cfg = parse_config(text.format(out=tmp_path / "w"))
    evolves = _record_calls(monkeypatch, "evolve_blocks")
    calls = _record_pairs(monkeypatch)
    run_simulate(cfg)
    assert len(evolves) == len(calls) == cfg.grid.points
    m = build_model(cfg.model)
    grid = cfg.grid.values().tolist()
    assert [{t for t, _ in pairs} for pairs in calls] == [{t} for t in grid]
    assert all(len(pairs) == m.scalars.size for pairs in calls)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(table=_clustered_tables(), cap=st.sampled_from([1e-6, 2e-6, 0.5]))
@example(table=[1j, 1j + 1e-7, 2j, 3j], cap=0.5)
@example(table=[1j, 1j + 1e-12, 2j], cap=1e-6)
def test_hypothesis_a_is_the_rule_on_the_sorted_spectrum(table, cap):
    # The pass in chunks keeps only the gap and the distances within
    # _SAME_VALUE; the circle and the closest approach it reports are those
    # of the whole sorted spectrum.
    m = _with_table(_DJ, table, [], [])
    for lam in m.spectrum.tolist():
        dist = np.abs(m.spectrum - lam)
        gap = float(np.min(dist, where=dist > spectral._SAME_VALUE,
                           initial=np.inf))
        radius = min(gap / 2.0, cap)
        closest = float(np.min(np.abs(dist - radius)))
        if closest < spectral.CONTOUR_MARGIN:
            with pytest.raises(ClusteredSpectrumError,
                               match=re.escape(f"passes {closest:.3e} from")):
                hypothesis_a_check(m, lam, radius_cap=cap)
        else:
            assert hypothesis_a_check(m, lam, radius_cap=cap) == Contour(
                lam, radius)
