"""Acceptance suite: the ten checks this project treats as its exit gate,
plus a negative control outside the theorem's hypotheses and an imaginary
shift of the spectrum that must change no norm and no verdict.

Each criterion test prints a single PASS/FAIL line (visible with pytest -s
/ -rA; the per-test verdicts also appear in pytest -v output).  Expected
values come from closed forms, independent oracles, or bracket statements;
nothing here is tuned to the implementation under test.
"""

import dataclasses
import functools
import json
import math
import os
import tempfile
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import riesz_projection_closed, whole_projection
from semistab import models
from semistab.asymptotics import (TRANSLATION_TOL, FitFamily, NormSamples,
                                  Quantity, concave_envelope, fit_rate,
                                  sample_norms, witness_lower_bound,
                                  witness_vector)
from semistab.experiments import (format_complex, parse_config, run_hardy,
                                  run_simulate, run_theorem_check)
from semistab.models import (Family, ModelSpec, build_model, eigenvalues,
                             evolve_blocks, resolvent_blocks)
from semistab.spectral import hypothesis_a_check, riesz_projection_quadrature

E2 = float(np.e) ** 2


def _announce(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _model(family, max_index, **kw):
    return build_model(ModelSpec(family, max_index, **kw))


def test_criterion_01_jordan_pairs_linear_growth():
    started = time.perf_counter()
    worst = 0.0
    for t in (20.0, 50.0, 100.0, 200.0):
        m = _model(Family.JORDAN_PAIRS, 50 * int(t))
        value = sample_norms(m, [t])[0].values[0]
        worst = max(worst, abs(value / t - 1.0))
        assert 0.9 <= value / t <= 1.1
    elapsed = time.perf_counter() - started
    _announce(1, elapsed < 30.0,
              f"norm(t)/t within [0.9, 1.1] (worst dev {worst:.4f}), "
              f"{elapsed:.1f}s < 30s")


def test_criterion_02_jordan_pairs_bounded_product_and_ratio_law():
    m = _model(Family.JORDAN_PAIRS, 50000)
    ts = np.geomspace(10.0, 1000.0, 30)
    semi, prod = sample_norms(m, ts)
    ratio = NormSamples(Quantity.RATIO, ts, prod.values / semi.values)
    spread = float(prod.values.max() / prod.values.min())
    fit = fit_rate(ratio, FitFamily.POWER)
    ok = spread <= 3.0 and -1.1 <= fit.exponent_or_scale <= -0.9
    _announce(2, ok, f"resolvent-product spread {spread:.3f} <= 3, "
                     f"ratio exponent {fit.exponent_or_scale:.4f} in [-1.1,-0.9]")


def test_criterion_03_diag_jordan_example():
    m_growth = _model(Family.DIAG_JORDAN, 10000)
    devs = []
    for t in (50.0, 100.0, 200.0):
        value = sample_norms(m_growth, [t])[0].values[0]
        devs.append(value / t)
        assert 0.8 <= value / t <= 1.2
    m_bounded = _model(Family.DIAG_JORDAN, 50000)
    ts = np.geomspace(10.0, 1000.0, 30)
    prod = sample_norms(m_bounded, ts)[1]
    spread = float(prod.values.max() / prod.values.min())
    ok = spread <= 3.0
    _announce(3, ok, f"norm(t)/t in [0.8, 1.2] (got {min(devs):.3f}.."
                     f"{max(devs):.3f}), resolvent-product spread "
                     f"{spread:.3f} <= 3 while i is in the spectrum")


def test_criterion_04_log_spectrum_ratio_law():
    started = time.perf_counter()
    m = _model(Family.LOG_SPECTRUM, 1601, order=1)
    ts = np.geomspace(E2, 200.0, 16)
    semi, prod = sample_norms(m, ts)
    ratio = NormSamples(Quantity.RATIO, ts, prod.values / semi.values)
    compensated = ratio.values * np.log(ts)
    spread = float(compensated.max() / compensated.min())
    design = np.column_stack([np.ones(ts.size), np.log(ts)])
    slope = float(np.linalg.lstsq(design, np.log(compensated), rcond=None)[0][1])
    elapsed = time.perf_counter() - started
    ok = spread <= 3.0 and abs(slope) <= 0.15 and elapsed < 600.0
    _announce(4, ok, f"r(t) log t: spread {spread:.3f} <= 3, trend slope "
                     f"{slope:.4f} within 0.15, {elapsed:.1f}s < 600s (dim 1600)")


@pytest.mark.parametrize("order", [1, 2])
def test_criterion_05_log_spectrum_growth_exponent(order):
    m = _model(Family.LOG_SPECTRUM, 801, order=order)
    ts = np.geomspace(10.0, 100.0, 10)
    semi = sample_norms(m, ts)[0]
    fit = fit_rate(semi, FitFamily.POWER)
    ok = order - 0.2 <= fit.exponent_or_scale <= order + 0.2
    _announce(5, ok, f"order {order}: growth exponent "
                     f"{fit.exponent_or_scale:.4f} in [{order - 0.2}, {order + 0.2}]")


def test_criterion_06_hardy_inequality_randomized(tmp_path):
    report = run_hardy(10_000, max_len=512, seed=42,
                       out_dir=str(tmp_path / "hardy"))
    verdict = report.verdicts["hardy_bound"]
    worst = verdict.metrics["worst_ratio"]
    ok = verdict.status == "PASS" and worst <= 1.0
    _announce(6, ok, f"10^4 seeded sequences satisfy the bound; worst ratio "
                     f"{worst:.6f}")


def test_criterion_07_projection_oracle_equivalence():
    worst_gap = 0.0
    worst_idem = 0.0
    worst_comm = 0.0
    checked = 0
    for family in Family:
        m = _model(family, 100)
        for idx, eig in enumerate(eigenvalues(m)):
            contour = hypothesis_a_check(m, eig.value)
            quad = riesz_projection_quadrature(m, contour)
            closed = riesz_projection_closed(m, idx)
            gap = (whole_projection(m, quad)
                   - whole_projection(m, closed)).sup_singular_value()
            worst_gap = max(worst_gap, gap)
            worst_idem = max(worst_idem, quad.idempotency_defect)
            worst_comm = max(worst_comm, quad.commutation_defect)
            checked += 1
            assert gap <= 1e-8
            assert quad.idempotency_defect <= 1e-10
            assert quad.commutation_defect <= 1e-9
    ok = worst_gap <= 1e-8 and worst_idem <= 1e-10 and worst_comm <= 1e-9
    _announce(7, ok, f"{checked} eigenvalues: max |P_quad - P_closed| "
                     f"{worst_gap:.2e}, idempotency {worst_idem:.2e}, "
                     f"commutation {worst_comm:.2e}")


@pytest.mark.parametrize("order", [1, 2])
def test_criterion_08_theorem_pipeline(order, tmp_path):
    text = (f"model.family = LOG_SPECTRUM\nmodel.order = {order}\n"
            f"grid.t_min = {E2!r}\ngrid.t_max = 200.0\ngrid.points = 16\n"
            f"output.directory = {tmp_path / f'n{order}'}\n")
    report = run_theorem_check(parse_config(text))
    statuses = {name: v.status for name, v in report.verdicts.items()}
    translation = report.verdicts["envelope_translation"]
    end_gap = abs(translation.metrics["end_ratio"] - 1.0)
    ok = all(s == "PASS" for s in statuses.values()) and end_gap <= 0.05
    _announce(8, ok, f"order {order}: verdicts {statuses}, translation gap "
                     f"{end_gap:.4f} <= 0.05")


def test_criterion_09_witness_lower_bound():
    m = _model(Family.LOG_SPECTRUM, 641, order=1)
    grid = [10.0, 20.0, 40.0, 80.0]
    normalized = []
    raws = []
    for t in grid:
        _, tent_norm = witness_vector(t, m.dim)
        assert tent_norm ** 2 == pytest.approx(4.0 * t + 2.0, abs=1e-9)
        bound = witness_lower_bound(m, t)
        normalized.append(bound.normalized)
        raws.append(bound.raw_ratio)
    bracket = max(normalized) / min(normalized)
    ok = bracket <= 5.0 and min(normalized) > 0.0
    _announce(9, ok, f"normalized witness in [{min(normalized):.4f}, "
                     f"{max(normalized):.4f}], bracket {bracket:.3f} <= 5, "
                     f"tent norm^2 = 4t + 2 exactly")
    assert all(b > a for a, b in zip(raws, raws[1:]))  # raw ratio increases


def test_criterion_10_structural_suite(tmp_path):
    started = time.perf_counter()

    # Semigroup law across all families on a coarse grid.
    law_defect = 0.0
    for family in Family:
        m = _model(family, 200)
        grid = np.linspace(0.0, 100.0, 20)
        for t in grid[::5]:
            for s in grid[::5]:
                diff = (evolve_blocks(m, t + s) -
                        evolve_blocks(m, t) @ evolve_blocks(m, s))
                law_defect = max(law_defect, diff.sup_singular_value())
    assert law_defect <= 1e-9

    # Resolvent identity on random points off the spectrum; the factor is
    # (mu - nu) under the (A - mu I)^-1 convention.
    rng = np.random.default_rng(42)
    res_defect = 0.0
    for family in Family:
        m = _model(family, 60)
        for _ in range(4):
            mu = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            nu = complex(rng.uniform(-2.0, -0.5), rng.uniform(-1.0, 1.0))
            r_mu = resolvent_blocks(m, mu)
            r_nu = resolvent_blocks(m, nu)
            diff = r_mu - r_nu - (mu - nu) * (r_mu @ r_nu)
            res_defect = max(res_defect, diff.sup_singular_value())
    assert res_defect <= 1e-10

    # Monotone truncation.
    ts = np.geomspace(1.0, 5.0, 5)
    for family in Family:
        small = sample_norms(_model(family, 250), ts)[0]
        large = sample_norms(_model(family, 500), ts)[0]
        assert np.all(large.values >= small.values * (1.0 - 1e-7))

    # Determinism: identical configs give identical data files.
    text = ("model.family = JORDAN_PAIRS\ngrid.t_min = 1.0\n"
            "grid.t_max = 30.0\ngrid.points = 10\n"
            f"output.directory = {tmp_path / 'd1'}\n")
    cfg = parse_config(text)
    run_simulate(cfg)
    run_simulate(cfg, out_dir=str(tmp_path / "d2"))
    with open(tmp_path / "d1" / "samples.csv", "rb") as fh:
        csv_a = fh.read()
    with open(tmp_path / "d2" / "samples.csv", "rb") as fh:
        csv_b = fh.read()
    assert csv_a == csv_b
    reports = []
    for name in ("d1", "d2"):
        with open(tmp_path / name / "report.json", "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data.pop("timings")
        reports.append(json.dumps(data, sort_keys=True))
    assert reports[0] == reports[1]

    elapsed = time.perf_counter() - started
    ok = elapsed < 900.0
    _announce(10, ok, f"semigroup law {law_defect:.2e}, resolvent identity "
                      f"{res_defect:.2e}, monotone truncation, byte-identical "
                      f"reruns; {elapsed:.1f}s < 900s")



CONFIGS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
HYPOTHESES = ("envelope_conditions", "envelope_translation", "hypothesis_b_decay")


def test_negative_control_simple_imaginary_spectrum(monkeypatch, tmp_path):
    # Simple eigenvalues i n in the Euclidean norm: a bounded semigroup with
    # spectrum on iR, outside the theorem's hypotheses.  ||T(t)|| stays 1
    # and the ratio stays 1/sqrt(2) at mu = 1, so both laws must fail while
    # the product stays bounded, and theorem-check must fail hypothesis (b)
    # and the conclusion.
    def simple_imaginary(max_index):
        none = np.zeros(0, dtype=complex)
        return 1j * np.arange(1, max_index + 1, dtype=float), none, none

    row = models.FAMILIES[Family.JORDAN_PAIRS]
    monkeypatch.setitem(models.FAMILIES, Family.JORDAN_PAIRS,
                        dataclasses.replace(row, table=simple_imaginary))
    cfg = parse_config("model.family = JORDAN_PAIRS\ngrid.t_min = 1.0\n"
                       "grid.t_max = 200.0\ngrid.points = 24\n"
                       f"output.directory = {tmp_path}\n")
    simulate = run_simulate(cfg)
    assert {name: v.status for name, v in simulate.verdicts.items()} == {
        "semigroup_growth": "FAIL", "resolvent_product_bounded": "PASS",
        "ratio_decay": "FAIL"}
    assert simulate.verdicts["ratio_decay"].detail == \
        "ratio power-law exponent 0.0000"
    theorem = run_theorem_check(cfg)
    assert {name: v.status for name, v in theorem.verdicts.items()} == {
        "envelope_conditions": "PASS", "envelope_translation": "PASS",
        "hypothesis_b_decay": "FAIL", "conclusion_decay": "FAIL"}
    assert theorem.verdicts["hypothesis_b_decay"].detail == \
        "0/5 projected curves decay"


#: Desk-size grids on which every simulate verdict is PASS, except the
#: LOG_SPECTRUM product law, which is SKIPPED by design.
SHIFT_GRIDS = {
    Family.DIAG_JORDAN: "grid.t_min = 1.0\ngrid.t_max = 60.0\ngrid.points = 16\n",
    Family.JORDAN_PAIRS: "grid.t_min = 1.0\ngrid.t_max = 60.0\ngrid.points = 16\n",
    Family.LOG_SPECTRUM: f"grid.t_min = {E2!r}\ngrid.t_max = 60.0\ngrid.points = 12\n",
}


def _shifted_row(row, shift):
    """The row with ``shift`` added to every eigenvalue."""
    def table(max_index):
        scalars, mid, half_gap = row.table(max_index)
        return scalars + shift, mid + shift, half_gap
    return dataclasses.replace(row, table=table)


def _shift_runs(family, shift):
    """simulate and theorem-check of the family shifted by ``shift``, at
    mu = 1 + shift; no files are kept."""
    row = _shifted_row(models.FAMILIES[family], shift)
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.dict(models.FAMILIES, {family: row}):
        cfg = parse_config(f"model.family = {family.value}\n"
                           f"model.mu = {format_complex(1.0 + shift)}\n"
                           f"{SHIFT_GRIDS[family]}output.directory = {out}\n")
        return cfg, run_simulate(cfg), run_theorem_check(cfg)


@functools.lru_cache(maxsize=None)
def _unshifted_runs(family):
    return _shift_runs(family, 0j)


@pytest.mark.parametrize("family", list(Family))
@settings(derandomize=True, max_examples=5, deadline=None)
@given(omega=st.floats(-1000.0, 1000.0))
@example(omega=1000.0)
def test_imaginary_shift_changes_no_norm_and_no_verdict(family, omega):
    # A -> A + i omega I with mu -> mu + i omega multiplies T(t) by the
    # unimodular e^{i omega t} and leaves the resolvent product's norm alone,
    # so every curve matches within rounding and every verdict stays, while
    # every contour moves by i omega.
    cfg, simulate, theorem = _unshifted_runs(family)
    _, shifted_simulate, shifted_theorem = _shift_runs(family, 1j * omega)
    for name, curve in simulate.samples.items():
        base = np.array(curve["value"])
        moved = np.array(shifted_simulate.samples[name]["value"])
        assert np.max(np.abs(moved / base - 1.0)) <= 10 * cfg.norm_tol
    for base, moved in ((simulate, shifted_simulate), (theorem, shifted_theorem)):
        assert {k: v.status for k, v in moved.verdicts.items()} == \
            {k: v.status for k, v in base.verdicts.items()}
    for base, moved in zip(theorem.projections, shifted_theorem.projections,
                           strict=True):
        drift = complex(moved["center"]) - complex(base["center"]) - 1j * omega
        assert abs(drift) <= 1e-12 * (1.0 + abs(omega))


@pytest.mark.parametrize("family", list(Family))
def test_real_shift_fails_translation_by_the_spectral_bound(family):
    # A -> A + eps I with mu -> mu + eps multiplies T(t) by e^{eps t}, so
    # f(t+s)/f(s) cannot tend to 1.  At eps = 0.005 its end ratio is still
    # within the tolerance on this window; the eigenvalue at Re = eps fails
    # the verdict, and every other status stays as at eps = 0.
    _, _, theorem = _unshifted_runs(family)
    base = theorem.verdicts["envelope_translation"]
    assert base.status == "PASS" and base.metrics["spectral_bound"] == 0.0
    _, _, shifted = _shift_runs(family, 0.005)
    verdict = shifted.verdicts["envelope_translation"]
    assert verdict.status == "FAIL"
    assert verdict.metrics["spectral_bound"] == 0.005
    assert "has real part 0.005 > 0" in verdict.detail
    assert abs(verdict.metrics["end_ratio"] - 1.0) <= TRANSLATION_TOL
    for name, moved in shifted.verdicts.items():
        if name != "envelope_translation":
            assert moved.status == theorem.verdicts[name].status, name


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS_DIR)))
def test_shipped_config_hypotheses_imply_conclusion(name, tmp_path):
    with open(os.path.join(CONFIGS_DIR, name), "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    report = run_theorem_check(cfg, out_dir=str(tmp_path))
    statuses = {key: v.status for key, v in report.verdicts.items()}
    if all(statuses[key] == "PASS" for key in HYPOTHESES):
        assert statuses["conclusion_decay"] == "PASS", statuses


@st.composite
def _random_rows(draw):
    """A FAMILIES row drawn as in ROADMAP item 10: 2x2 blocks with
    mid = i s n + r/n and a half-gap a/n^p that is imaginary, zero, real or
    complex, n = 2, ..., max_index, and up to two 1x1 blocks.  Every real
    part drawn is 0 or at least 1e-3 in size, far above rounding."""
    part = st.just(0.0) | st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3)
    spacing, real = draw(st.floats(0.5, 3.0)), draw(part)
    kind = draw(st.sampled_from(["imaginary", "zero", "real", "complex"]))
    unit = {"imaginary": 1j, "zero": 0.0, "real": 1.0,
            "complex": complex(draw(part), 1.0)}[kind]
    gap = unit * draw(st.floats(1e-3, 1.0))
    power = draw(st.integers(1, 2))
    scalars = np.array([complex(draw(part), draw(st.floats(-3.0, 3.0)))
                        for _ in range(draw(st.integers(0, 2)))],
                       dtype=complex)

    def table(max_index):
        n = np.arange(2, max_index + 1, dtype=float)
        return (scalars, 1j * spacing * n + real / n,
                np.full(n.size, complex(gap)) / n ** power)
    return dataclasses.replace(models.FAMILIES[Family.JORDAN_PAIRS],
                               table=table)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(row=_random_rows())
def test_an_eigenvalue_right_of_the_axis_fails_translation(row):
    # ROADMAP item 10, clause 1: Re lambda > 0 gives log f(t) >= t Re lambda,
    # so f(t + s) / f(s) cannot tend to 1, whatever the window shows.
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.dict(models.FAMILIES, {Family.JORDAN_PAIRS: row}):
        cfg = parse_config("model.family = JORDAN_PAIRS\nmodel.mu = 1+0.37j\n"
                           "grid.t_min = 1.0\ngrid.t_max = 60.0\n"
                           f"grid.points = 16\noutput.directory = {out}\n")
        report = run_theorem_check(cfg)
    scalars, mid, half_gap = row.table(cfg.model.max_index)
    if np.concatenate([scalars, mid + half_gap, mid - half_gap]).real.max() > 0:
        assert report.verdicts["envelope_translation"].status == "FAIL"
