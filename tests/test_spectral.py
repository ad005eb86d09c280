import numpy as np
import pytest

from oracles import dense_operator_norm
from semistab.errors import (ClusteredSpectrumError, ContourTooCloseError,
                             NonconvergedError)
from semistab import models
from semistab.linalg import NormContext
from semistab.models import Family, ModelSpec, build_model, eigenvalues
from semistab.spectral import (COMMUTATION_TIMES, Contour,
                               contour_projection_closed,
                               hypothesis_a_check, hypothesis_b_check,
                               riesz_projection_closed,
                               riesz_projection_quadrature)


def _model(family, max_index, **kw):
    return build_model(ModelSpec(family, max_index, **kw))


def _record_calls(monkeypatch, name):
    """Replace models.<name> by a wrapper; returns the list of its arguments."""
    calls = []
    original = getattr(models, name)

    def recorded(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(models, name, recorded)
    return calls


def test_contour_validation():
    with pytest.raises(ValueError):
        Contour(0j, -1.0)
    with pytest.raises(ValueError):
        Contour(0j, 1.0, nodes=8)
    with pytest.raises(ValueError):
        Contour(0j, 1.0, nodes=17)
    assert Contour(1j, 0.5).nodes == 64


def test_quadrature_jordan_pairs_single_eigenvalue():
    m = _model(Family.JORDAN_PAIRS, 2)
    report = riesz_projection_quadrature(m, Contour(2.5j, 0.4))
    expected = np.array([[1.0, -1j], [0.0, 0.0]])
    assert np.max(np.abs(report.projection - expected)) <= 1e-8
    assert report.rank == 1
    assert report.enclosed == (2.5j,)
    assert report.idempotency_defect <= 1e-10
    assert report.commutation_defect <= 1e-9


def test_quadrature_log_spectrum_coordinate_projection():
    m = _model(Family.LOG_SPECTRUM, 6)
    report = riesz_projection_quadrature(m, Contour(1j * np.log(2), 0.1))
    expected = np.zeros((m.dim, m.dim))
    expected[0, 0] = 1.0
    assert np.max(np.abs(report.projection - expected)) <= 1e-10
    assert report.rank == 1


def test_quadrature_empty_contour_is_zero():
    m = _model(Family.LOG_SPECTRUM, 6)
    report = riesz_projection_quadrature(m, Contour(0.5 + 0.0j, 0.1))
    assert np.max(np.abs(report.projection)) <= 1e-10
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


def test_closed_projection_jordan_block_is_block_identity():
    m = _model(Family.DIAG_JORDAN, 3)
    eigs = eigenvalues(m)
    idx = next(i for i, e in enumerate(eigs) if e.multiplicity == 2)
    report = riesz_projection_closed(m, idx)
    p = report.projection
    lam = eigs[idx].value
    s = m.scalars.size + 2 * int(np.flatnonzero(m.upper == lam)[0])
    assert np.max(np.abs(p[s:s + 2, s:s + 2] - np.eye(2))) == 0.0
    assert report.rank == 2


def test_closed_projection_jordan_pairs_upper():
    m = _model(Family.JORDAN_PAIRS, 4)
    eigs = eigenvalues(m)
    idx = next(i for i, e in enumerate(eigs) if abs(e.value - 4.25j) < 1e-12)
    report = riesz_projection_closed(m, idx)
    block = report.projection[4:6, 4:6]
    assert np.max(np.abs(block - np.array([[1.0, -2j], [0.0, 0.0]]))) < 1e-12
    norm = dense_operator_norm(report.projection, NormContext.euclidean(m.dim))
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
        assert (quad.blocks - closed.blocks).sup_singular_value() <= 1e-8
        assert quad.idempotency_defect <= 1e-10
        assert quad.commutation_defect <= 1e-9
        assert quad.rank == closed.rank == eig.multiplicity


def test_disjoint_projections_are_additive():
    m = _model(Family.LOG_SPECTRUM, 8)
    c1 = hypothesis_a_check(m, 1j * np.log(2))
    c2 = hypothesis_a_check(m, 1j * np.log(4))
    p1 = riesz_projection_quadrature(m, c1)
    p2 = riesz_projection_quadrature(m, c2)
    prod = (p1.blocks @ p2.blocks).sup_singular_value()
    assert prod <= 1e-12
    combined = p1.projection + p2.projection
    assert np.max(np.abs(combined @ combined - combined)) <= 1e-12
    assert round(np.trace(combined).real) == p1.rank + p2.rank


def test_node_doubling_is_negligible():
    m = _model(Family.JORDAN_PAIRS, 5)
    lam = eigenvalues(m)[0].value
    c64 = hypothesis_a_check(m, lam, nodes=64)
    c128 = hypothesis_a_check(m, lam, nodes=128)
    p64 = riesz_projection_quadrature(m, c64)
    p128 = riesz_projection_quadrature(m, c128)
    assert (p64.blocks - p128.blocks).sup_singular_value() <= 1e-10


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
    from semistab import models

    none = np.zeros(0, dtype=complex)
    clustered = (np.array([1j, 1j + 1e-10]), none, none)
    monkeypatch.setattr(models, "_spectral_table", lambda *_: clustered)
    m = _model(Family.LOG_SPECTRUM, 3)
    with pytest.raises(ClusteredSpectrumError):
        hypothesis_a_check(m, 1j)


def test_hypothesis_b_constant_projected_norm_decays_against_linear():
    m = _model(Family.JORDAN_PAIRS, 3)
    contour = hypothesis_a_check(m, 2.5j)
    ts = np.geomspace(10.0, 1000.0, 12)
    proj = riesz_projection_quadrature(m, contour)
    curve = hypothesis_b_check(m, proj, ts, lambda t: t + 1.0)
    oracle = np.sqrt(1.0 + 1.0) / (ts + 1.0)  # ||P|| = sqrt(1 + (n/2)^2), n = 2
    assert np.max(np.abs(curve.values - oracle)) <= 1e-7
    assert curve.decaying
    assert curve.slope == pytest.approx(-1.0, abs=0.1)


def test_hypothesis_b_empty_contour_curve_is_zero():
    m = _model(Family.LOG_SPECTRUM, 6)
    proj = riesz_projection_quadrature(m, Contour(0.5 + 0.0j, 0.1))
    curve = hypothesis_b_check(m, proj, np.geomspace(1.0, 100.0, 8),
                               lambda t: t + 1.0)
    assert np.max(curve.values) <= 1e-13  # quadrature residue of the zero map
    assert curve.decaying
    assert curve.slope is None


def test_hypothesis_b_log_spectrum_against_power_envelope():
    m = _model(Family.LOG_SPECTRUM, 20)
    contour = hypothesis_a_check(m, 1j * np.log(3))
    ts = np.geomspace(1.0, 100.0, 10)
    proj = riesz_projection_quadrature(m, contour)
    curve = hypothesis_b_check(m, proj, ts, lambda t: 5.0 * t + 1.0)
    assert curve.decaying


@pytest.mark.parametrize("scale", [1.0, 1e14])
def test_hypothesis_b_verdict_ignores_envelope_scale(scale):
    # ||T(t) P|| is constant, so no rescaling of a constant envelope may
    # turn the curve into a (vacuous) decay.
    m = _model(Family.JORDAN_PAIRS, 500)
    contour = hypothesis_a_check(m, eigenvalues(m)[0].value)
    proj = riesz_projection_quadrature(m, contour)
    curve = hypothesis_b_check(m, proj, np.geomspace(1.0, 10.0, 12),
                               lambda t: scale)
    assert not curve.decaying
    assert curve.slope == pytest.approx(0.0, abs=1e-6)


def test_contour_projection_closed_matches_quadrature_for_pairs():
    # A circle enclosing both eigenvalues of one block; the next eigenvalue
    # at 8i/3 sits close outside, so extra nodes keep the trapezoid sharp.
    m = _model(Family.JORDAN_PAIRS, 4)
    contour = Contour(2j, 0.58, nodes=256)  # encloses 1.5j and 2.5j only
    quad = riesz_projection_quadrature(m, contour)
    closed = contour_projection_closed(m, contour)
    assert (quad.blocks - closed.blocks).sup_singular_value() <= 1e-8
    assert quad.rank == closed.rank == 2


def test_quadrature_evaluates_semigroup_only_for_commutation(monkeypatch):
    # The quadrature accumulator starts from zeros shaped by the spectral
    # table; the semigroup is evaluated only at the commutation probes.
    m = _model(Family.JORDAN_PAIRS, 6)
    contour = hypothesis_a_check(m, 2.5j)
    calls = _record_calls(monkeypatch, "evolve_blocks")
    riesz_projection_quadrature(m, contour)
    assert [t for (t,) in calls] == list(COMMUTATION_TIMES)


def test_hypothesis_b_curve_is_norm_over_envelope_per_sample(monkeypatch):
    m = _model(Family.LOG_SPECTRUM, 20)
    proj = riesz_projection_quadrature(m, hypothesis_a_check(m, 1j * np.log(3)))
    ts = np.geomspace(1.0, 100.0, 10)
    expected = [models.block_operator_norm(
        m, models.evolve_blocks(m, float(t)) @ proj.blocks) / (5.0 * t + 1.0)
        for t in ts]
    evolves = _record_calls(monkeypatch, "evolve_blocks")
    norms = _record_calls(monkeypatch, "block_operator_norm")
    asked = []
    curve = hypothesis_b_check(
        m, proj, ts, lambda t: asked.append(t) or 5.0 * t + 1.0)
    assert curve.values.tolist() == expected  # bitwise
    assert asked == list(ts)
    assert len(evolves) == ts.size
    assert len(norms) == ts.size + 1  # one more for ||P||
