import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (block_norms, contour_projection_closed, dense,
                     evolve_four_calls, generator_blocks,
                     riesz_projection_closed, semigroup_moduli,
                     sup_block_norm_unpruned, weighted_vector_norm,
                     whole_projection)
from semistab import linalg, models, spectral
from semistab.errors import (SemistabError, SpectrumHitError,
                             TruncationInadequateError)
from semistab.models import (BlockDiagonal, Family, ModelSpec, build_model,
                             check_truncation, eigenvalues, evolve_blocks,
                             model_dim, resolvent_blocks)
from semistab.spectral import (Contour, hypothesis_a_check,
                               riesz_projection_quadrature)

RNG = np.random.default_rng(515)


def _model(family, max_index, **kw):
    return build_model(ModelSpec(family, max_index, **kw))


def test_build_diag_jordan_layout():
    m = _model(Family.DIAG_JORDAN, 3)
    assert m.dim == 5
    assert m.norm_order == 0
    assert (m.scalars.size, m.mid.size) == (1, 2)  # block sizes 1, 2, 2
    assert m.scalars.tolist() == [1j]
    assert list(zip(m.upper.tolist(), m.lower.tolist())) == [
        (1j - 1.0, 1j - 1.0), (2j - 0.5, 2j - 0.5)]


def test_build_jordan_pairs_layout():
    m = _model(Family.JORDAN_PAIRS, 2)
    assert m.dim == 2
    assert (m.scalars.size, m.mid.size) == (0, 1)
    assert (m.upper.tolist(), m.lower.tolist()) == ([1j * 2.5], [1j * 1.5])


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("max_index", [3, 4, 17, 200])
def test_model_dim_is_the_table_coordinate_count(family, max_index):
    m = _model(family, max_index)
    assert m.dim == model_dim(family, max_index)
    # A part counts its own coordinates, not the whole truncation's.
    part = m.take(np.arange(0, m.scalars.size + m.mid.size, 2))
    assert part.dim == part.scalars.size + 2 * part.mid.size < m.dim


@pytest.mark.parametrize("max_index", [2, 4])
def test_build_model_rejects_a_weighted_order_the_dim_cannot_carry(max_index):
    # dim 1 and 3 against order 3: the first weighted norm would fail.
    with pytest.raises(ValueError, match="order 3 needs dim >= 4"):
        _model(Family.LOG_SPECTRUM, max_index, order=3)
    assert _model(Family.LOG_SPECTRUM, 5, order=3).dim == 4


def test_build_log_spectrum_layout():
    m = _model(Family.LOG_SPECTRUM, 4, order=1)
    assert m.dim == 3
    assert m.norm_order == 1
    assert m.mid.size == 0
    diag = m.scalars.tolist()
    assert diag == pytest.approx([1j * np.log(2), 1j * np.log(3), 1j * np.log(4)])


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(Family.JORDAN_PAIRS, 1)
    with pytest.raises(ValueError):
        ModelSpec(Family.LOG_SPECTRUM, 10, order=0)
    spec = ModelSpec(Family.LOG_SPECTRUM, 10)
    assert spec.mu_default == 1.0 + 0.0j


def test_build_model_rejects_mu_on_the_spectrum():
    spec = ModelSpec(Family.JORDAN_PAIRS, 4, mu_default=1.5j)
    with pytest.raises(SpectrumHitError, match="1.5j"):
        build_model(spec)
    assert build_model(ModelSpec(Family.JORDAN_PAIRS, 4, mu_default=2j)).dim == 6


def test_non_finite_mu_is_named_where_it_enters():
    # NaN built, and the resolvent then blamed an overflow of a finite mu.
    with pytest.raises(ValueError, match=r"mu must be finite, got \(nan\+0j\)"):
        build_model(ModelSpec(Family.JORDAN_PAIRS, 20, mu_default=math.nan))
    m = _model(Family.JORDAN_PAIRS, 20)
    for mu in (math.nan, complex(1.0, math.inf)):
        with pytest.raises(ValueError, match="mu must be finite"):
            resolvent_blocks(m, mu)


@pytest.mark.parametrize("family", list(Family))
def test_evolve_at_zero_is_identity(family):
    m = _model(family, 12)
    semi = dense(evolve_blocks(m, 0.0))
    assert np.max(np.abs(semi - np.eye(m.dim))) < 1e-14


@pytest.mark.parametrize("family", list(Family))
def test_evolve_at_zero_is_exactly_the_identity(family):
    # So T(0) commutes exactly with any block operator.
    m = _model(family, 2000)
    semi = evolve_blocks(m, 0.0)
    assert np.all(semi.scalars == 1) and np.all(semi.upper == 1)
    assert np.all(semi.lower == 1) and np.all(semi.corner == 0)
    rng = np.random.default_rng(0)
    other = BlockDiagonal(*(rng.standard_normal(a.size)
                            + 1j * rng.standard_normal(a.size)
                            for a in (semi.scalars, semi.upper, semi.corner,
                                      semi.lower)))
    comm = semi @ other - other @ semi
    assert not any(np.any(a) for a in (comm.scalars, comm.upper, comm.corner,
                                       comm.lower))


def test_evolve_rejects_negative_time():
    # t < 0 let NaN through: evolve_blocks returned a non-finite T(t).
    for t in (-1.0, math.nan):
        for fn in (evolve_blocks, models.semigroup_norm):
            with pytest.raises(ValueError, match="t must be >= 0"):
                fn(_model(Family.JORDAN_PAIRS, 4), t)


def test_evolve_rejects_infinite_time():
    # evolve_blocks returned NaN blocks, and semigroup_norm blamed its norm.
    for fn in (evolve_blocks, models.semigroup_norm):
        with pytest.raises(ValueError, match="t must be >= 0 and finite"):
            fn(_model(Family.JORDAN_PAIRS, 4), math.inf)


def test_jordan_pairs_block_at_pi():
    m = _model(Family.JORDAN_PAIRS, 2)
    block = dense(evolve_blocks(m, np.pi))
    expected = np.array([[1j, 2.0], [0.0, -1j]])
    assert np.max(np.abs(block - expected)) < 1e-12


@pytest.mark.parametrize("family", list(Family))
def test_semigroup_law(family):
    m = _model(family, 40)
    grid = np.linspace(0.0, 100.0, 20)
    for t in grid[::4]:
        for s in grid[::4]:
            lhs = evolve_blocks(m, t + s)
            rhs = evolve_blocks(m, t) @ evolve_blocks(m, s)
            assert (lhs - rhs).sup_singular_value() <= 1e-9


@pytest.mark.parametrize("family", list(Family))
def test_spectral_mapping_on_block_diagonals(family):
    m = _model(family, 20)
    t = 3.7
    semi = dense(evolve_blocks(m, t))
    # Coordinates: the 1x1 blocks, then (upper, lower) of each 2x2 block.
    lams = np.concatenate([m.scalars, np.column_stack([m.upper, m.lower]).ravel()])
    assert np.max(np.abs(np.diag(semi) - np.exp(lams * t))) < 1e-12


def test_generator_frozen_blocks():
    mj = _model(Family.JORDAN_PAIRS, 2)
    expected = np.array([[2.5j, 1.0], [0.0, 1.5j]])
    assert np.max(np.abs(dense(generator_blocks(mj)) - expected)) < 1e-14

    ml = _model(Family.LOG_SPECTRUM, 3)
    assert dense(generator_blocks(ml))[0, 0] == pytest.approx(1j * np.log(2))

    md = _model(Family.DIAG_JORDAN, 2)
    a = dense(generator_blocks(md))
    assert a[0, 0] == 1j
    assert np.max(np.abs(a[1:3, 1:3] - np.array([[1j - 1, 1], [0, 1j - 1]]))) < 1e-14


@pytest.mark.parametrize("family", list(Family))
def test_generator_is_time_derivative_of_semigroup(family):
    m = _model(family, 6)
    a = dense(generator_blocks(m))
    errs = []
    for h in (1e-5, 1e-6):
        diff = (dense(evolve_blocks(m, h)) - np.eye(m.dim)) / h
        errs.append(np.max(np.abs(diff - a)))
    assert errs[0] < 1e-3
    assert 5.0 <= errs[0] / errs[1] <= 20.0  # first-order truncation error


@pytest.mark.parametrize("family", list(Family))
def test_resolvent_inverts_shifted_generator(family):
    m = _model(family, 15)
    for mu in (1.0 + 0.0j, -0.3 + 2.2j):
        r = dense(resolvent_blocks(m, mu))
        shifted = dense(generator_blocks(m)) - mu * np.eye(m.dim)
        defect = shifted @ r - np.eye(m.dim)
        assert np.max(np.abs(defect)) <= 1e-12


@pytest.mark.parametrize("family", list(Family))
def test_resolvent_identity(family):
    # With R_mu = (A - mu I)^-1 the identity carries a (mu - nu) factor.
    m = _model(family, 12)
    for _ in range(5):
        mu = complex(RNG.uniform(0.5, 2.0), RNG.uniform(-1.0, 1.0))
        nu = complex(RNG.uniform(-2.0, -0.5), RNG.uniform(-1.0, 1.0))
        r_mu = dense(resolvent_blocks(m, mu))
        r_nu = dense(resolvent_blocks(m, nu))
        defect = r_mu - r_nu - (mu - nu) * (r_mu @ r_nu)
        assert np.max(np.abs(defect)) <= 1e-10


def test_resolvent_spectrum_hit():
    m = _model(Family.LOG_SPECTRUM, 6)
    with pytest.raises(SpectrumHitError):
        resolvent_blocks(m, 1j * np.log(3))


@pytest.mark.parametrize("family", [Family.JORDAN_PAIRS, Family.DIAG_JORDAN])
def test_resolvent_names_a_mu_whose_corner_overflows(family):
    # At mu = 1e155 + 1e155j the product a b in the corner -1/(ab)
    # overflowed: the corner came out NaN with a RuntimeWarning, and
    # simulate stopped on "values must be finite and positive".
    m = _model(family, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"mu \(1e\+155\+1e\+155j\)"):
            resolvent_blocks(m, 1e155 + 1e155j)
        r = resolvent_blocks(m, 1e154 + 1e154j)
    assert all(np.all(np.isfinite(x))
               for x in (r.scalars, r.upper, r.corner, r.lower))


def test_log_spectrum_resolvent_at_zero():
    m = _model(Family.LOG_SPECTRUM, 6)
    r = dense(resolvent_blocks(m, 0.0))
    n = np.arange(2, 7, dtype=float)
    assert np.max(np.abs(np.diag(r) - (-1j / np.log(n)))) < 1e-14


def test_jordan_pairs_product_matches_displayed_formula():
    # Oracle: the closed-form product of the semigroup with the inverse
    # generator, entry by entry, for each 2x2 block.
    m = _model(Family.JORDAN_PAIRS, 8)
    for t in (0.5, 3.0, 17.0):
        semi = dense(evolve_blocks(m, t))
        prod = semi @ dense(resolvent_blocks(m, 0.0))
        for i in range(m.mid.size):
            n = i + 2
            start = m.scalars.size + 2 * i
            pref = 1j * n / (1.0 - n ** 4) * np.exp(1j * t * n)
            oracle = pref * np.array([
                [(n * n - 1) * np.exp(1j * t / n),
                 (n * n - 1) * n * np.sin(t / n) + 1j * n * np.exp(-1j * t / n)],
                [0.0, (n * n + 1) * np.exp(-1j * t / n)],
            ])
            got = prod[start:start + 2, start:start + 2]
            assert np.max(np.abs(got - oracle)) <= 1e-10


def test_eigenvalue_listing():
    md = _model(Family.DIAG_JORDAN, 2)
    eigs = eigenvalues(md)
    assert [(e.value, e.multiplicity) for e in eigs] == [(1j - 1.0, 2), (1j, 1)]

    mj = _model(Family.JORDAN_PAIRS, 2)
    assert [e.value for e in eigenvalues(mj)] == [1.5j, 2.5j]
    assert all(e.multiplicity == 1 for e in eigenvalues(mj))

    ml = _model(Family.LOG_SPECTRUM, 3)
    assert [e.value for e in eigenvalues(ml)] == pytest.approx(
        [1j * np.log(2), 1j * np.log(3)])


def test_diag_jordan_first_block_is_isometric():
    m = _model(Family.DIAG_JORDAN, 5)
    x = np.zeros(m.dim, dtype=complex)
    x[0] = 1.0 + 1.0j
    for t in (0.0, 1.0, 50.0):
        y = dense(evolve_blocks(m, t)) @ x
        assert weighted_vector_norm(m.norm_order, y) == \
            pytest.approx(weighted_vector_norm(m.norm_order, x))


def test_minimal_truncation_rules():
    assert models.truncation(Family.JORDAN_PAIRS, 10.0) == 500
    assert models.truncation(Family.DIAG_JORDAN, 10.0) == 500
    assert models.truncation(Family.LOG_SPECTRUM, 10.0) == 81
    # The order-N weighted norm needs dim = max_index - 1 >= N + 1.
    assert models.truncation(Family.LOG_SPECTRUM, 0.0) == 3
    assert models.truncation(Family.LOG_SPECTRUM, 0.5, 5) == 7


def test_check_truncation_raises_with_required_value():
    m = _model(Family.JORDAN_PAIRS, 100)
    with pytest.raises(TruncationInadequateError) as info:
        check_truncation(m, 10.0)
    assert info.value.required == 500
    assert "500" in str(info.value)
    check_truncation(m, 2.0)  # adequate, no raise


def test_truncation_gate_returns_what_to_build():
    assert models.truncation(Family.JORDAN_PAIRS, 10.0) == 500
    assert models.truncation(Family.JORDAN_PAIRS, 10.0, max_index=600) == 600
    assert models.truncation(Family.LOG_SPECTRUM, 0.5, order=5) == 7
    # JORDAN_PAIRS at max_index 500 has dim 998; the cap is inclusive.
    assert models.truncation(Family.JORDAN_PAIRS, 10.0, max_dim=998) == 500
    for kw in ({"max_index": 499}, {"max_dim": 997},
               {"max_index": 600, "max_dim": 1197}):
        with pytest.raises(TruncationInadequateError) as info:
            models.truncation(Family.JORDAN_PAIRS, 10.0, **kw)
        assert info.value.required == 500, kw


@pytest.mark.parametrize("t_max", [math.inf, math.nan, -1.0, 1e308])
def test_truncation_names_a_t_max_no_truncation_covers(t_max):
    # 50 * 1e308 overflows: math.ceil raised a bare OverflowError, and NaN
    # "cannot convert float NaN to integer".
    for family in Family:
        with pytest.raises(ValueError, match=re.escape(
                f"t_max must be finite and >= 0, got {t_max}")):
            models.truncation(family, t_max)


def test_truncation_messages_stay_short_past_the_float_range():
    # The dim of a JORDAN_PAIRS truncation for t_max 3e306 is 3e308, past
    # the largest float; the cap message prints it to six digits.
    cases = [(Family.JORDAN_PAIRS, 3e306, {}), (Family.LOG_SPECTRUM, 1e307, {}),
             (Family.JORDAN_PAIRS, 10.0, {"max_index": 10 ** 400})]
    for family, t_max, kw in cases:
        with pytest.raises(TruncationInadequateError) as info:
            models.truncation(family, t_max, max_dim=100, **kw)
        assert len(str(info.value)) < 150 and "> cap 100" in str(info.value)
    with pytest.raises(TruncationInadequateError,
                       match=r"need dim >= 3(\.0*)?e\+308"):
        models.truncation(Family.JORDAN_PAIRS, 3e306, max_index=2)


_EPS = np.finfo(float).eps

_PHASES = st.floats(0.0, 2.0 * np.pi)

# Complex entries with magnitudes 1e-8 ... 1e8.
_ENTRIES = st.builds(lambda e, phase: 10.0 ** e * np.exp(1j * phase),
                     st.floats(-8.0, 8.0), _PHASES)


@st.composite
def _upper_block(draw):
    upper = draw(_ENTRIES)
    if draw(st.booleans()):
        return upper, draw(_ENTRIES), draw(_ENTRIES)
    # Nearly equal diagonal and a corner far below it, where
    # sqrt(s^2 - 4 |det|^2) cancels.
    lower = upper * (1.0 + draw(st.floats(-1e-6, 1e-6)))
    corner = upper * 10.0 ** draw(st.floats(-12.0, -4.0)) * np.exp(1j * draw(_PHASES))
    return upper, corner, lower


@st.composite
def _block_operator(draw, scalars, blocks):
    values = draw(st.lists(_ENTRIES, min_size=scalars, max_size=scalars))
    rows = draw(st.lists(_upper_block(), min_size=blocks, max_size=blocks))
    upper, corner, lower = (np.array([row[i] for row in rows], dtype=complex)
                            for i in range(3))
    return BlockDiagonal(np.array(values, dtype=complex), upper, corner, lower)


_OPERAND_PAIRS = (st.tuples(st.integers(0, 3), st.integers(0, 4))
                  .filter(lambda shape: sum(shape) > 0)
                  .flatmap(lambda shape: st.tuples(_block_operator(*shape),
                                                   _block_operator(*shape))))


def _dense_reference(op):
    """Densify block by block, the loop that :func:`oracles.dense` vectorises."""
    dim = op.scalars.size + 2 * op.upper.size
    out = np.zeros((dim, dim), dtype=complex)
    for i, value in enumerate(op.scalars):
        out[i, i] = value
    for k, (u, c, l) in enumerate(zip(op.upper, op.corner, op.lower)):
        j = op.scalars.size + 2 * k
        out[j:j + 2, j:j + 2] = [[u, c], [0.0, l]]
    return out


_DJ = _model(Family.DIAG_JORDAN, 4)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ops=_OPERAND_PAIRS, c=_ENTRIES)
@example(ops=(evolve_blocks(_DJ, 1.3), evolve_blocks(_DJ, 2.1)), c=1.0)
def test_block_diagonal_algebra_matches_dense(ops, c):
    a, b = ops
    dense_a, dense_b = dense(a), dense(b)
    assert np.array_equal(dense_a, _dense_reference(a))
    # Both sides round two complex products and one sum per entry.
    bound = 16 * _EPS * (np.abs(dense_a) @ np.abs(dense_b))
    assert np.all(np.abs(dense(a @ b) - dense_a @ dense_b) <= bound)
    assert np.array_equal(dense(a - b), dense_a - dense_b)
    assert np.array_equal(dense(c * a), c * dense_a)
    assert (a - a).sup_singular_value() == 0.0
    diag = np.abs(np.diag(dense_a))
    assert abs(a.trace() - np.trace(dense_a)) <= diag.size * _EPS * diag.sum()
    sup = a.sup_singular_value()
    assert sup == pytest.approx(np.linalg.norm(dense_a, 2), rel=1e-14)


def test_block_norm_keeps_a_small_corner():
    # sqrt(s^2 - 4 |det|^2) returned exactly 1 here, dropping the corner.
    op = BlockDiagonal(np.zeros(0, dtype=complex), np.array([1.0 + 0j]),
                       np.array([1e-8 + 0j]), np.array([1.0 + 0j]))
    sigma = np.linalg.svd(dense(op), compute_uv=False)[0]
    assert op.sup_singular_value() == pytest.approx(sigma, rel=1e-14)
    assert op.sup_singular_value() > 1.0


# Complex entries with magnitudes 1e-300 ... 1e300, and zero: squared
# Frobenius norms overflow, underflow and go subnormal.
_WIDE = (st.builds(lambda e, phase: 10.0 ** e * np.exp(1j * phase),
                   st.floats(-300.0, 300.0), _PHASES)
         | st.just(0j))


def _operator(scalars, rows) -> BlockDiagonal:
    upper, corner, lower = (np.array([row[i] for row in rows], dtype=complex)
                            for i in range(3))
    return BlockDiagonal(np.array(scalars, dtype=complex), upper, corner, lower)


@st.composite
def _wide_operator(draw):
    scalars = draw(st.lists(_WIDE, max_size=3))
    rows = draw(st.lists(st.tuples(_WIDE, _WIDE, _WIDE), max_size=6))
    if rows and draw(st.booleans()):
        # Frobenius ties: permuted entries keep a block's F but not its norm.
        u, c, l = rows[0]
        rows += [(c, u, l), (u, l, c), (l, c, u), (u, c, l)]
    if rows and draw(st.booleans()):
        # A 1x1-like block whose F is a share in [1/2, 1] of the first's:
        # its norm can still win.
        share = draw(st.floats(0.5, 1.0))
        with np.errstate(over="ignore"):
            frob = sum(abs(x) ** 2 for x in rows[0])
        if np.isfinite(frob):
            rows.append((np.sqrt(share * frob), 0j, 0j))
    return _operator(scalars, rows)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(op=_wide_operator())
@example(op=_operator([3j, -1.0], []))  # scalars only
@example(op=_operator([], []))
@example(op=_operator([], [(1e-160, 0j, 1e-160), (1e-170, 1e-161, 0j)]))
@example(op=_operator([1.0], [(2.0, 0j, 0j), (0j, 2.0, 0j), (1.0, 1.0, 1.0)]))
# F = 1.010025 against 2, yet norm 1.005 against 1.
@example(op=_operator([], [(1.0, 0j, 1.0), (1.005, 0j, 0j)]))
def test_pruned_block_norm_is_the_full_formula_bitwise(op):
    assert op.sup_singular_value() == sup_block_norm_unpruned(op)


def _evaluated_runs(monkeypatch, m, t):
    """semigroup_norm(m, t), and the start of each run whose moduli it
    formed, in the order it formed them."""
    moduli, runs = models._moduli, []

    def recorded(model, ones, twos, *args):
        runs.append(ones.start + twos.start)
        return moduli(model, ones, twos, *args)

    monkeypatch.setattr(models, "_moduli", recorded)
    return models.semigroup_norm(m, t), runs


def test_semigroup_norm_skips_all_but_the_chunks_of_near_ties(monkeypatch):
    # jordan_pairs_t2000 at t = 100.  Each chunk's bound is the squared norm
    # of [[1, t psi], [0, 1]], psi = sinc(t/b), b its largest n: chunk 0
    # (n <= 16385) has t/n up to 50 > pi, but sinc(t/16385) is above 1/pi.
    # The last chunk (b = 100000) has the largest bound and goes first.  Its
    # block of largest F keeps only blocks with s1 within s2^2 / 2v (about
    # 5e-7) of v: the 1467 with n > 98533, that block among them and
    # evaluated once.  That supremum is above every other chunk's bound, so
    # they are skipped whole, and it is the unpruned supremum bitwise.
    m = _model(Family.JORDAN_PAIRS, 100000)
    pair_norms, chunk_bounds = models._pair_norms, models._chunk_bounds
    evaluated = []

    def counted(u, c, l):
        evaluated.append(np.size(u))
        return pair_norms(u, c, l)

    def uncounted(summary, t):  # the bound's one call per chunk
        with patch.object(models, "_pair_norms", pair_norms):
            return chunk_bounds(summary, t)

    monkeypatch.setattr(models, "_pair_norms", counted)
    monkeypatch.setattr(models, "_chunk_bounds", uncounted)
    got, runs = _evaluated_runs(monkeypatch, m, 100.0)
    assert runs == [6 * models.CHUNK]
    assert evaluated == [1, 1466]
    assert got == sup_block_norm_unpruned(semigroup_moduli(m, 100.0))


_INF, _NAN = float("inf"), float("nan")

# Block norms with ties and near ties, zeros, subnormals, inf and NaN.
_PRUNE_NORMS = (st.sampled_from([0.0, 5e-324, 2.5e-310, 0.5, 1.0, 1.0 + _EPS,
                                 1.0 + 2 * _EPS, 1e300, _INF, _NAN])
                | st.floats(0.0, 1e300))

# Relative slack of a squared bound over the squared norm: within the
# pruning margin (down to 1e-13 below the norm, the rounding that
# test_each_chunk_bound_is_above_its_blocks allows), far above it,
# infinite, or NaN (no bound known).
_PRUNE_SLACK = st.one_of(st.floats(-1e-13, 1e-11), st.floats(-1e-13, 1e-11),
                         st.floats(0.0, 10.0), st.just(_INF), st.just(_NAN))


@st.composite
def _pruning_cases(draw):
    cases = [(n, draw(_PRUNE_SLACK))
             for n in draw(st.lists(_PRUNE_NORMS, max_size=8))]
    if draw(st.booleans()):
        # Norms a few ulps apart, with bounds inside the margin.
        base = draw(st.floats(1e-100, 1e100))
        cases += [(base * (1.0 + k * _EPS), draw(st.floats(-1e-13, 2e-12)))
                  for k in draw(st.lists(st.integers(0, 4), min_size=2,
                                         max_size=4))]
    norms, slack = zip(*draw(st.permutations(cases))) if cases else ((), ())
    bound_sq = [n * n * (1.0 + f) for n, f in zip(norms, slack)]
    return np.array(norms, dtype=float), np.array(bound_sq, dtype=float)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(case=_pruning_cases())
@example(case=(np.zeros(0), np.zeros(0)))
# The block of largest bound is the only one that attains the supremum.
@example(case=(np.array([2.0, 1.0]), np.array([4.0, 1.0])))
# A near tie above the seed, inside the margin.
@example(case=(np.array([1.0, 1.0 + _EPS]),
               np.array([1.0 + 1e-13, (1.0 + _EPS) ** 2])))
# A near tie above the seed whose bound rounded 1e-13 below its norm, and so
# below the seed's: only the margin keeps it.
@example(case=(np.array([1.0, 1.0 + _EPS]),
               np.array([1.0, (1.0 + _EPS) ** 2 * (1.0 - 1e-13)])))
# NaN bounds say nothing: every block is evaluated.
@example(case=(np.array([1.0, 2.0]), np.array([_NAN, _NAN])))
@example(case=(np.array([_NAN, 1.0]), np.array([_NAN, 1.0])))
# v^2 is subnormal, and a bound that underflowed to 0 says nothing.
@example(case=(np.array([1e-157, 2e-157]), np.array([1e-300, 0.0])))
def test_prune_keeps_the_supremum_bitwise(case):
    # Bounds at least the squared norms, less 1e-13 of rounding: the result
    # is the supremum of all norms, NaN included, and no item is evaluated
    # twice.
    norms, bound_sq = case
    seen = []

    def sup_on(index):
        seen.extend(index.tolist())
        return np.max(norms[index])

    got = models._prune(bound_sq, sup_on)
    assert len(seen) == len(set(seen))
    want = np.max(norms, initial=0.0)
    assert np.isnan(got) if np.isnan(want) else got == want


@st.composite
def _spectral_tables(draw):
    """A family's table, or a table on a coarse grid where eigenvalues
    repeat: Jordan blocks (d = 0), values shared across blocks, equal
    imaginary parts.  No -0.0 is drawn, and sums and differences of the
    grid give +0.0, so no two equal eigenvalues differ in the sign of a
    zero."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(list(Family)))
        return models.FAMILIES[family].table(draw(st.integers(2, 300)))
    grid = st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.5, 2.0])
    value = st.builds(complex, grid, grid)
    scalars = draw(st.lists(value, max_size=6))
    pairs = draw(st.lists(st.tuples(value, st.just(0j) | value),
                          min_size=0 if scalars else 1, max_size=6))
    return (np.array(scalars, dtype=complex),
            np.array([mid for mid, _ in pairs], dtype=complex),
            np.array([d for _, d in pairs], dtype=complex))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(table=_spectral_tables())
def test_spectrum_is_the_unique_values_sorted_by_imag_then_real(table):
    # build_model sorts every eigenvalue once; np.unique sorted them by
    # (real, imag) and a lexsort reordered the distinct values.
    row = replace(models.FAMILIES[Family.DIAG_JORDAN], table=lambda _: table)
    with patch.dict(models.FAMILIES, {Family.DIAG_JORDAN: row}):
        m = _model(Family.DIAG_JORDAN, 2, mu_default=100.0 + 100.0j)
    scalars, mid, half_gap = table
    values, counts = np.unique(np.concatenate(
        [scalars, mid + half_gap, mid - half_gap]), return_counts=True)
    order = np.lexsort((values.real, values.imag))
    assert m.spectrum.tobytes() == values[order].tobytes()
    assert m.multiplicity.tolist() == counts[order].tolist()


_EVOLVE_MODELS = {family: _model(family, 500) for family in Family}


@pytest.mark.parametrize("family", list(Family))
@settings(derandomize=True, max_examples=30, deadline=None)
@given(t=st.floats(0.0, 2000.0))
@example(t=2000.0)
@example(t=210.0)  # t / n near pi at n = 67
def test_evolve_matches_four_call_form(family, t):
    m = _EVOLVE_MODELS[family]
    want = evolve_four_calls(m, t)
    diff = evolve_blocks(m, t) - want
    assert diff.sup_singular_value() <= 1e-14 * want.sup_singular_value()
    # Blockwise, where exp(t d) is near -1 the corner sinh(t d) / d is near
    # 0 and E (2 + E) cancels to an absolute error of about 2 eps / |d|,
    # with |d| >= pi / t there: below the eps t both forms inherit from
    # rounding t d itself.
    carrier = np.abs(np.exp(t * np.concatenate([m.scalars, m.mid])))
    assert np.all(block_norms(diff) <= 1e-14 * block_norms(want)
                  + _EPS * t * carrier)


def test_evolve_corner_is_t_at_small_gaps():
    # With mid = 0 the carrier is 1 and the corner is sinh(t d) / d, which
    # is t (1 + (t d)^2 / 6): within 1.7e-17 of t where |t d| <= 1e-8.
    m = _model(Family.JORDAN_PAIRS, 2001)
    rng = np.random.default_rng(2000)
    for t in (1e-6, 1e-3, 1.0, 7.5, 2000.0):
        d = rng.standard_normal(m.mid.size) + 1j * rng.standard_normal(m.mid.size)
        d *= 1e-8 / t * rng.uniform(0.0, 1.0, d.size) / np.abs(d)
        d[:3] = (0.0, 1e-8 / t, 1j * 1e-8 / t)
        corner = evolve_blocks(replace(m, mid=np.zeros_like(d), half_gap=d),
                               t).corner
        assert np.max(np.abs(corner - t)) <= 1e-15 * t


def test_evolve_keeps_digits_where_exp_t_d_is_small():
    # |exp(t d)| = 1.5e-6 here: formed as 1 + expm1(t d) it kept only about
    # ten digits, and the corner and both diagonal entries inherited the
    # loss (a 5e5-ulp corner).  The moduli have closed forms: e^{t Re mid}
    # |sinh(t d)| / |d| in the corner, by |sinh(x + iy)|^2 = sinh^2 x +
    # sin^2 y, and e^{t Re(mid +- d)} on the diagonal.
    t, mid, d = 27.7069, -0.11842 + 7.43458j, -0.48321 + 0.13078j
    m = _model(Family.JORDAN_PAIRS, 2)
    block = evolve_blocks(replace(m, mid=np.array([mid]),
                                  half_gap=np.array([d])), t)
    x, y = t * d.real, t * d.imag
    corner = np.exp(t * mid.real) * np.hypot(np.sinh(x), np.sin(y)) / abs(d)
    assert abs(abs(block.corner[0]) - corner) <= 8 * _EPS * corner
    for got, rate in ((block.upper[0], mid + d), (block.lower[0], mid - d)):
        want = np.exp(t * rate.real)
        assert abs(abs(got) - want) <= 8 * _EPS * want


@pytest.mark.parametrize("family", [Family.DIAG_JORDAN, Family.JORDAN_PAIRS])
def test_weighted_norm_rejects_2x2_blocks(family, monkeypatch):
    # The weighted kernel takes a diagonal; a 2x2 block, which no shipped
    # family measures in a weighted norm, is named instead of dropped.
    row = models.FAMILIES[family]
    monkeypatch.setitem(models.FAMILIES, family, replace(row, weighted=True))
    m = _model(family, 8, order=2)
    op = evolve_blocks(m, 3.0) @ resolvent_blocks(m, 1.0)
    with pytest.raises(ValueError, match=r"order-2 norm takes a diagonal "
                                         r"operator, got \d+ 2x2 blocks"):
        models.block_operator_norm(m, op)


_TOL = linalg.LANCZOS_TOL_DEFAULT


@pytest.mark.parametrize("family", [Family.DIAG_JORDAN, Family.JORDAN_PAIRS])
def test_weighted_curve_rejects_a_factor_with_2x2_blocks(family, monkeypatch):
    # The weighted curve writes T(t) into a diagonal workspace; a factor
    # with 2x2 blocks is named before any norm is taken, not dropped.
    row = models.FAMILIES[family]
    monkeypatch.setitem(models.FAMILIES, family, replace(row, weighted=True))
    m = _model(family, 8, order=2)
    with pytest.raises(ValueError, match=r"order-2 norm takes a diagonal "
                                         r"operator, got \d+ 2x2 blocks"):
        models.norm_curve(m, np.array([1.0, 3.0]),
                          resolvent_blocks(m, 1.0), _TOL)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("dim", [1600, 4099, 50000])
def test_weighted_curve_is_the_one_off_norms_bitwise(dim, order):
    # 1 row (below 4096), 1 row (a prime), 10 rows: T(t) written into the
    # workspace and X multiplied in in place give the one-off norms of
    # evolve_blocks(m, t) and of its product with X to the bit.
    m = _model(Family.LOG_SPECTRUM, dim + 1, order=order)
    assert m.dim == dim and linalg._rows(dim) == (10 if dim == 50000 else 1)
    x = resolvent_blocks(m, 1.0 + 0.5j)
    ts = np.array([13.0, 250.0, 1000.0, 4000.0])
    semi, prod = models.norm_curve(m, ts, x, _TOL)
    for i, t in enumerate(ts.tolist()):
        op = evolve_blocks(m, t)
        assert semi[i] == linalg.operator_norm(op.scalars, order, _TOL)
        assert prod[i] == linalg.operator_norm((op @ x).scalars, order, _TOL)
    given, _ = models.norm_curve(m, ts, x, _TOL, semi=semi[::-1])
    assert given.tolist() == semi[::-1].tolist()


def test_weighted_curve_holds_one_workspace_and_no_t_dependent_array():
    # Over a 9-point order-2 curve at dim 50000 (10 rows) the peak is the
    # Workspace (four vectors), X, one row (the wrap row's copy) and small
    # arrays (under 32 KB, the test runner's own included); building X (its gap and its inverse) comes before the
    # Workspace, so it does not add to it, and T(t) and X are written in
    # the kernel's layout without ufunc buffers.  A T(t) array per grid
    # time, or a workspace per norm, adds a vector.
    dim = 50000
    m = _model(Family.LOG_SPECTRUM, dim + 1, order=2)
    ts = np.geomspace(1.0, 5000.0, 9)
    models.norm_curve(m, ts[:1], resolvent_blocks(m, 1.0), _TOL)
    vector = dim * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        models.norm_curve(m, ts, resolvent_blocks(m, 1.0), _TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * vector + vector // 10 + 2**15, peak / vector


def test_resolvent_blocks_match_dense_inverse():
    m = _model(Family.JORDAN_PAIRS, 6)
    mu = 0.7 - 0.2j
    inverse = np.linalg.inv(dense(generator_blocks(m)) - mu * np.eye(m.dim))
    assert np.max(np.abs(dense(resolvent_blocks(m, mu)) - inverse)) < 1e-11


@pytest.mark.parametrize("family", list(Family))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(max_index=st.integers(2, 12), t=st.floats(0.0, 50.0),
       s=st.floats(0.0, 50.0), mu=st.complex_numbers(max_magnitude=20.0))
def test_table_oracle_pairs_on_small_truncations(family, max_index, t, s, mu):
    # The order-1 weighted norm needs two coordinates.
    assume(family is not Family.LOG_SPECTRUM or max_index > 2)
    m = _model(family, max_index)
    assume(np.min(np.abs(m.spectrum - mu)) >= 0.05)
    assert model_dim(family, max_index) == m.dim

    inverse = np.linalg.inv(dense(generator_blocks(m)) - mu * np.eye(m.dim))
    got = dense(resolvent_blocks(m, mu))
    assert np.max(np.abs(got - inverse)) <= 1e-10 * max(1.0,
                                                        np.max(np.abs(inverse)))

    law = evolve_blocks(m, t + s) - evolve_blocks(m, t) @ evolve_blocks(m, s)
    assert law.sup_singular_value() <= 1e-9

    for idx, eig in enumerate(eigenvalues(m)):
        contour = hypothesis_a_check(m, eig.value)
        quad = whole_projection(m, riesz_projection_quadrature(m, contour))
        for closed in (riesz_projection_closed(m, idx),
                       contour_projection_closed(m, contour)):
            gap = quad - whole_projection(m, closed)
            assert gap.sup_singular_value() <= 1e-8
            assert closed.rank == eig.multiplicity


@pytest.mark.parametrize("family", list(Family))
def test_model_holds_arrays_not_block_objects(family):
    # One Python object per block costs over 100 bytes per coordinate; the
    # spectral table needs 16 (one complex per coordinate).  Holding the
    # sorted spectrum and multiplicities too read 28 to 40.
    spec = ModelSpec(family, 20001)
    tracemalloc.start()
    try:
        m = build_model(spec)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept / m.dim <= 20


@pytest.mark.parametrize("family", list(Family))
def test_a_part_derives_its_own_spectrum(family):
    m = _model(family, 40)
    assert m.spectrum.size > 5  # read before the part is taken
    part = m.take(np.array([0, 3, 4, 17, 30]))
    values, counts = np.unique(np.concatenate(
        [part.scalars, part.upper, part.lower]), return_counts=True)
    order = np.lexsort((values.real, values.imag))
    assert part.spectrum.tobytes() == values[order].tobytes()
    assert part.multiplicity.tolist() == counts[order].tolist()


@pytest.mark.parametrize("step", [3, 7])
def test_evolve_blocks_on_a_part_is_the_whole_table_bitwise(step):
    # 19999 blocks: from 16384 complex entries on numpy evaluates
    # a * (b + c) as (b + c) *= a, which rounds differently, so a block
    # evaluated with the whole table differed from the same block evaluated
    # with a part.
    m = _model(Family.JORDAN_PAIRS, 20000)
    index = np.arange(0, m.mid.size, step)
    for t in (0.5, 3.0, 77.0, 1000.0):
        whole = evolve_blocks(m, t).take(index)
        part = evolve_blocks(m.take(index), t)
        for field in ("upper", "corner", "lower"):
            assert (getattr(part, field).tobytes()
                    == getattr(whole, field).tobytes()), (t, field)


# Passes over the table in chunks: every chunk size gives the whole-table
# pass to the last bit.  The grid makes eigenvalues repeat across chunk
# boundaries and tie in imaginary part (1j against 1j - 1, as in
# DIAG_JORDAN's first blocks); 2j and complex(-0.0, 2) are equal but
# differ in bits, so a sorted read that kept the first it met would depend
# on the chunks.
_GRID = [1j, 1j - 1.0, 2j, complex(-0.0, 2.0), 2j - 0.5, 3j - 1.0,
         0.5j - 0.5, 0.5j]


def _table(scalars, mid, half_gap):
    return models.Model(ModelSpec(Family.DIAG_JORDAN, 2), 0, *(
        np.array(a, dtype=complex) for a in (scalars, mid, half_gap)))


@st.composite
def _chunk_tables(draw):
    """A table on the grid, at times with no 1x1 or no 2x2 blocks."""
    scalars = draw(st.lists(st.sampled_from(_GRID), max_size=9))
    mid = draw(st.lists(st.sampled_from(_GRID), max_size=9))
    half_gap = [draw(st.sampled_from([0j, 0.5j, 1j, 0.5, -0.25])) for _ in mid]
    return _table(scalars, mid, half_gap)


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message it raises."""
    try:
        return fn(*args)
    except (SemistabError, ValueError) as exc:
        return type(exc), str(exc)


def _whole_table_passes(m):
    """What every pass over the table yields, as comparable values."""
    got = [models.semigroup_norm(m, t) for t in (0.0, 0.7, 3.0)]
    for op in (resolvent_blocks(m, 0.1 + 0.3j), evolve_blocks(m, 1.3)):
        got.append(op.block_norms().tobytes())
    for lam in m.spectrum[:4].tolist():
        contour = _outcome(hypothesis_a_check, m, lam)
        got.append(contour)
        if not isinstance(contour, tuple):
            report = _outcome(riesz_projection_quadrature, m, contour)
            got.append(report if isinstance(report, tuple) else (
                report.index.tobytes(), repr(report.enclosed), report.rank))
    return got


@settings(derandomize=True, max_examples=120, deadline=None)
@given(m=_chunk_tables(), size=st.sampled_from([1, 2, 7]))
# 1j repeats across the boundary of chunks of 2 blocks.
@example(m=_table([1j, 1j, 2j], [1j, 2j], [0j, 0.5j]), size=2)
@example(m=_table([1j], [1j - 1.0, 2j - 1.0], [0j, 0j]), size=1)
@example(m=_table([], [2j, complex(-0.0, 2.0), 2j], [0j, 0j, 1j]), size=1)
# Block 0's lower eigenvalue, (-0.0, 2), equals block 1's 2j.
@example(m=_table([], [complex(-0.0, 2.5), 2j], [0.5j, 0j]), size=1)
@example(m=_table([0.5j, complex(-0.0, 2.0), 2j, 1j - 1.0], [], []), size=7)
@example(m=_table([], [], []), size=1)
def test_chunked_passes_are_the_whole_table_passes_bitwise(m, size):
    # A fresh model per chunk size: the summary is formed once per model.
    with patch.object(models, "CHUNK", 10 ** 9):
        whole = _whole_table_passes(replace(m))
    with patch.object(models, "CHUNK", size):
        m = replace(m)
        assert _whole_table_passes(m) == whole
        for k in range(1, 6):
            assert (models.lowest_eigenvalues(m, k).tobytes()
                    == m.spectrum[:k].tobytes())


@pytest.mark.parametrize("at", [0, -1])
def test_semigroup_norm_raises_on_nan_in_the_first_or_last_chunk(at):
    # Python's max(1.0, nan) is 1.0: a supremum taken chunk by chunk with it
    # would drop the NaN.
    mid = np.full(7, 1j)
    mid[at] = complex(np.nan, 1.0)
    m = _table([], mid, np.zeros(7))
    with patch.object(models, "CHUNK", 2):
        with pytest.raises(ValueError, match="nan at t = 1.0"):
            models.semigroup_norm(m, 1.0)


# Tables for the chunk bounds: half-gaps real, imaginary (also with a -0.0
# real part), complex or 0, mids with real parts of either sign or zero,
# 1x1 blocks; or a table whose real parts are all zero, of spread imaginary
# parts, as in JORDAN_PAIRS, where whole chunks are skipped.
_RE = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)
_IM = st.floats(-40.0, 40.0)
_GAPS = (st.just(0j) | st.builds(complex, st.floats(-3.0, 3.0), st.just(0.0))
         | st.builds(complex, st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))
         | st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
_TIMES = st.sampled_from([0.0, 1e-3, 1.0, 100.0, 2000.0, 1e6]) | st.floats(0.0, 60.0)


@st.composite
def _bound_tables(draw):
    if draw(st.booleans()):
        n = np.arange(2, draw(st.integers(3, 40)), dtype=float)
        scale = draw(st.floats(0.1, 10.0))
        return _table([1j] * draw(st.integers(0, 1)), 1j * n,
                      complex(draw(st.sampled_from([0.0, -0.0])), 1.0) * scale / n)
    scalars = draw(st.lists(st.builds(complex, st.floats(-2.0, 1.0), _IM),
                            max_size=3))
    pairs = draw(st.lists(st.tuples(st.builds(complex, _RE, _IM), _GAPS),
                          max_size=12))
    return _table(scalars, [mid for mid, _ in pairs], [d for _, d in pairs])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=_bound_tables(), t=_TIMES, size=st.sampled_from([1, 2, 7]))
@example(m=_table([], [1j, 2j], [0.5j, -1.0 + 0j]), t=0.0, size=1)
@example(m=_table([-1.0], [complex(-0.0, 3.0)], [complex(-0.0, 0.25)]),
         t=2000.0, size=1)
def test_semigroup_norm_is_the_unpruned_supremum_bitwise(m, t, size):
    # Skipped chunks, the zero-real moduli and the pruning in between give
    # the supremum of every block's norm, or raise where that is not finite.
    want = sup_block_norm_unpruned(semigroup_moduli(m, t))
    with patch.object(models, "CHUNK", size):
        if math.isfinite(want):
            assert models.semigroup_norm(m, t) == want
        else:
            with pytest.raises(ValueError, match=re.escape(
                    f"{want!r} at t = {t!r} is not finite")):
                models.semigroup_norm(m, t)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=_bound_tables(), t=_TIMES, size=st.sampled_from([1, 2, 7]))
def test_each_chunk_bound_is_above_its_blocks(m, t, size):
    # Within rounding, inside the 1e-12 margin of a skip, of every squared
    # block norm from tiny up; no bound (NaN) or inf where one is NaN.
    moduli = semigroup_moduli(m, t)
    with np.errstate(all="ignore"):
        norms = np.concatenate([moduli.scalars, models._pair_norms(
            moduli.upper, moduli.corner, moduli.lower)]) ** 2
    with patch.object(models, "CHUNK", size):
        bounds = models._chunk_bounds(m.summary, t)
        runs = list(models.chunks(m.scalars.size, m.mid.size))
    assert bounds.size == len(runs)
    for bound, (ones, twos) in zip(bounds.tolist(), runs):
        worst = np.max(np.concatenate([norms[ones], norms[m.scalars.size:][twos]]))
        if np.isnan(worst):
            assert not bound < np.inf
        elif worst >= np.finfo(float).tiny:
            assert not bound < (1.0 - 1e-13) * worst, (bound, worst)


def _sinc(y):
    return np.divide(np.sin(y), y, out=np.ones_like(y), where=y > 0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(y_lo=st.floats(0.0, 40.0), width=st.floats(0.0, 40.0),
       at=st.floats(0.0, 1.0))
# Just below pi, where sinc(y_lo) is near 0 and the second lobe is not.
@example(y_lo=3.14, width=2.0, at=0.66)
@example(y_lo=0.0, width=np.pi, at=1.0)
def test_the_lobe_bound_is_above_sinc_on_its_interval(y_lo, width, at):
    # Within the interval [y_lo, y_hi], also across pi and past it.
    y_hi = y_lo + width
    y = min(y_lo + at * width, y_hi)
    with np.errstate(all="ignore"):  # 1 / y_lo where it is not taken
        psi = models._lobe(np.array([y_lo]), np.array([y_hi]))[0]
    assert psi * psi >= _sinc(np.array([y]))[0] ** 2 * (1.0 - 1e-15)


def test_semigroup_norm_forms_one_chunk_per_grid_time_or_so(monkeypatch):
    # jordan_pairs_t2000 over its 24 geometric grid times: the bound leaves
    # one chunk per time, and two at one of them (25 of 168 chunk passes;
    # 112 with the squared Frobenius norm as the bound).
    m = _model(Family.JORDAN_PAIRS, 100000)
    moduli, runs = models._moduli, []

    def counted(*args):
        runs.append(1)
        return moduli(*args)

    monkeypatch.setattr(models, "_moduli", counted)
    for t in np.geomspace(1.0, 2000.0, 24).tolist():
        models.semigroup_norm(m, t)
    assert len(runs) == 25


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_subnormal_carrier_keeps_its_chunk_evaluated():
    # e^(t Re mid) = e^-740 is subnormal, up to 0.6% off its exact value,
    # and e^(t Re d) = e^709.7 carries that into u ~ e^-30.3.  A 1x1 block
    # just below the computed u, but above the exact e^tE, must not hide
    # it.
    t = 1e-3
    pair = _table([], [-740.0 / t], [709.7 / t])
    top = sup_block_norm_unpruned(semigroup_moduli(pair, t))
    m = _table([np.log(top * (1.0 - 1e-5)) / t], pair.mid, pair.half_gap)
    with patch.object(models, "CHUNK", 1):
        assert models.semigroup_norm(m, t) == top


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("size", [1, 16384])
def test_semigroup_norm_raises_on_a_half_gap_with_a_nan_imaginary_part(size):
    # |d| is NaN, so its corner must be NaN, not the t of a d below tiny.
    m = _table([], [1j, 2j], [complex(0.0, np.nan), 0.5j])
    assert np.isnan(evolve_blocks(m, 1.0).sup_singular_value())
    with patch.object(models, "CHUNK", size):
        with pytest.raises(ValueError, match="nan at t = 1.0 is not finite"):
            models.semigroup_norm(m, 1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("field, entry", [("mid", complex(np.nan, 30.0)),
                                          ("half_gap", complex(0.0, np.inf))])
def test_semigroup_norm_raises_on_a_non_finite_entry_in_a_chunk_it_skips(
        monkeypatch, field, entry):
    # JORDAN_PAIRS in chunks of 100 with chunk 5 damped by e^{-t}: at t = 100
    # its bound is about e^{-200} t^2 and it is skipped.  An infinite
    # half-gap there would leave psi = 1 and the bound small; a NaN makes it
    # NaN.  Either way the chunk is evaluated and the NaN moduli raise.
    m = _model(Family.JORDAN_PAIRS, 2000)
    mid, half_gap = m.mid.copy(), m.half_gap.copy()
    mid[500:600] -= 1.0
    monkeypatch.setattr(models, "CHUNK", 100)
    _, runs = _evaluated_runs(monkeypatch, _table([], mid, half_gap), 100.0)
    assert 500 not in runs
    {"mid": mid, "half_gap": half_gap}[field][557] = entry
    with pytest.raises(ValueError, match="is not finite"):
        models.semigroup_norm(_table([], mid, half_gap), 100.0)


def test_the_summary_is_kept_per_chunk_size():
    # A model read under chunks of 10**9, and one under chunks of 1: one row
    # per run each, and the same norm.
    m = _model(Family.JORDAN_PAIRS, 40)
    with patch.object(models, "CHUNK", 10 ** 9):
        whole = models.semigroup_norm(m, 7.0)
        assert m.summary.size == 1
    m = replace(m)
    with patch.object(models, "CHUNK", 1):
        assert m.summary.size == m.mid.size
        assert models.semigroup_norm(m, 7.0) == whole


def test_spectral_bound_is_exact_and_names_an_eigenvalue():
    # 0.1 + 0.2 rounds to 0.30000000000000004, the real part of the
    # eigenvalue as the table holds it, and so the bound.
    m = _table([0.5j, -0.25], [0.1 + 1j, 2j], [0.2, 3j])
    bound, lam = models.spectral_bound(m)
    want = np.max(np.concatenate([m.scalars, m.upper, m.lower]).real)
    assert bound == want > 0 and lam == m.upper[0]
    for family in Family:
        assert models.spectral_bound(_model(family, 300)) == (0.0, None)
    assert models.spectral_bound(_table([], [], [])) == (-np.inf, None)


def test_distinct_and_the_enclosed_read_take_an_empty_set():
    values, counts = models.distinct(np.zeros(0, dtype=complex))
    assert values.size == counts.size == 0
    m = _model(Family.JORDAN_PAIRS, 40)
    index, enclosed, worst = spectral._support(m, Contour(100.0 + 0j, 0.5))
    assert enclosed == () and worst > 99.0
    assert models.lowest_eigenvalues(_table([], [], []), 5).size == 0


@pytest.mark.parametrize("t", [1.0, 100.0])
def test_semigroup_norm_holds_no_dim_sized_temporary(t):
    # At dim 199998 the pass over the whole table held 7.2 MB of
    # temporaries at its peak; in chunks it holds 1.6 MB.
    m = _model(Family.JORDAN_PAIRS, 100000)
    tracemalloc.start()
    try:
        models.semigroup_norm(m, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.2e6 / 4, peak
