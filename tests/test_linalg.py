import math
import os
import subprocess
import sys
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (cumulative_matrix, dense_operator_norm, difference_matrix,
                     mellin_sup, weighted_vector_norm)
from semistab import linalg
from semistab.errors import IllConditionedError
from semistab.linalg import (apply_cumulative, apply_cumulative_adjoint,
                             apply_difference, operator_norm)

RNG = np.random.default_rng(20240817)


def _random_complex(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def test_difference_matrix_order1():
    expected = np.array([[1, 0, 0], [-1, 1, 0], [0, -1, 1]], dtype=complex)
    assert np.array_equal(difference_matrix(1, 3), expected)


def test_difference_matrix_order2_matches_squared_order1():
    d1 = difference_matrix(1, 6)
    d2 = difference_matrix(2, 6)
    assert np.max(np.abs(d2 - d1 @ d1)) == 0.0
    d2_small = difference_matrix(2, 4)
    assert np.array_equal(d2_small[:, 0], np.array([1, -2, 1, 0], dtype=complex))
    assert np.array_equal(np.diag(d2_small, -1), np.full(3, -2.0 + 0j))


def test_difference_matrix_constant_sequence():
    out = difference_matrix(1, 2) @ np.array([1.0, 1.0])
    assert np.array_equal(out, np.array([1.0, 0.0]))


def test_difference_matrix_order_zero_is_identity():
    # The 0-th difference is the identity, so order 0 is the Euclidean norm.
    eye = np.eye(5, dtype=complex)
    assert np.array_equal(difference_matrix(0, 5), eye)
    assert np.array_equal(cumulative_matrix(0, 5), eye)
    v = np.array([1.0, -2.0, 3j, 0.5, -1j])
    for apply in (apply_difference, apply_cumulative, apply_cumulative_adjoint):
        assert np.array_equal(apply(0, v), v)
    w = v.copy()
    assert np.array_equal(
        linalg._differences(0, w, adjoint=True), v)


def test_difference_matrix_rejects_small_dim():
    with pytest.raises(ValueError):
        difference_matrix(3, 3)
    with pytest.raises(ValueError):
        cumulative_matrix(2, 2)


def test_cumulative_matrix_order1_is_partial_sums():
    assert np.array_equal(cumulative_matrix(1, 4), np.tril(np.ones((4, 4))))


def test_cumulative_matrix_order2_forward_substitution():
    # Independent oracle: invert the difference matrix column by column.
    d = difference_matrix(2, 3)
    oracle = np.linalg.solve(d, np.eye(3, dtype=complex))
    got = cumulative_matrix(2, 3)
    assert np.max(np.abs(got - oracle)) < 1e-14
    assert np.array_equal(got, np.array([[1, 0, 0], [2, 1, 0], [3, 2, 1]],
                                        dtype=complex))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [5, 64, 257])
def test_difference_cumulative_inverse_pair_dense(order, dim):
    d = difference_matrix(order, dim).real
    ell = cumulative_matrix(order, dim).real
    assert np.max(np.abs(d @ ell - np.eye(dim))) <= 1e-12
    assert np.max(np.abs(ell @ d - np.eye(dim))) <= 1e-12


def test_difference_cumulative_inverse_pair_dim_2048():
    # Binomial entries stay integral well below 2^53, so the product is
    # exact.  D has order+1 bands, so form D @ L by shifted row sums rather
    # than a full matmul.
    dim = 2048
    for order in (1, 4):
        ell = cumulative_matrix(order, dim).real
        prod = np.zeros((dim, dim))
        for j in range(order + 1):
            coeff = (-1) ** j * math.comb(order, j)
            prod[j:, :] += coeff * ell[:dim - j, :]
        assert np.max(np.abs(prod - np.eye(dim))) <= 1e-12


@pytest.mark.parametrize("order", [1, 2, 3])
def test_apply_functions_match_matrices(order):
    dim = 40
    v = _random_complex(dim)
    d = difference_matrix(order, dim)
    ell = cumulative_matrix(order, dim)
    assert np.max(np.abs(apply_difference(order, v) - d @ v)) < 1e-10
    assert np.max(np.abs(apply_cumulative(order, v) - ell @ v)) < 1e-9
    assert np.max(np.abs(apply_cumulative(order, apply_difference(order, v)) - v)) < 1e-10


@pytest.mark.parametrize("order", [1, 2, 3])
def test_apply_adjoints_are_adjoint(order):
    dim = 50
    x = _random_complex(dim)
    y = _random_complex(dim)
    w = y.copy()
    adjoint = linalg._differences(order, w, adjoint=True)
    assert np.vdot(y, apply_difference(order, x)) == pytest.approx(
        np.vdot(adjoint, x), abs=1e-9)
    assert np.vdot(y, apply_cumulative(order, x)) == pytest.approx(
        np.vdot(apply_cumulative_adjoint(order, y), x), abs=1e-8)


def test_weighted_norm_tent_is_42():
    # Tent for t = 10: coefficients 2..20 rising, 19..1 falling, zeros after.
    dim = 60
    n = np.arange(2, dim + 2, dtype=float)
    tent = np.where(n <= 20, n, np.where(n <= 40, 40 - n, 0.0))
    assert weighted_vector_norm(1, tent.astype(complex)) ** 2 == pytest.approx(42.0)


def test_weighted_norm_first_basis_vector():
    v = np.zeros(5, dtype=complex)
    v[0] = 1.0
    assert weighted_vector_norm(1, v) == pytest.approx(math.sqrt(2.0))


def test_euclidean_norm():
    assert weighted_vector_norm(0, np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_weighted_norm_positive_definite():
    for _ in range(25):
        v = _random_complex(30)
        assert weighted_vector_norm(2, v) > 0.0
    assert weighted_vector_norm(2, np.zeros(30)) == 0.0


def test_weighted_norm_rejects_nonfinite():
    with pytest.raises(ValueError):
        weighted_vector_norm(0, np.array([1.0, np.nan]))
    # The kernel stops at the first non-finite estimate instead of running
    # its whole step cap into a convergence failure.
    for bad in (np.inf, np.nan):
        for order in (0, 2):
            diag = np.ones(2000, dtype=complex)
            diag[7] = bad
            with pytest.raises(ValueError, match="non-finite"):
                operator_norm(diag, order)


@pytest.mark.parametrize("order", [0, 2], ids=["ctx0", "ctx1"])
@pytest.mark.parametrize("method", ["svd", "power"])
def test_operator_norm_identity_is_one(order, method):
    value = (dense_operator_norm(np.eye(6), order) if method == "svd"
             else operator_norm(np.ones(6), order))
    assert value == pytest.approx(1.0, rel=1e-9)


def test_operator_norm_2x2_bracket():
    # At order 1 on C^2, D diag(a, b) L = [[a, 0], [b - a, b]]: for unimodular
    # a, b its norm lies within 1 of the off-diagonal entry; closed-form 2x2
    # singular value as the exact oracle.
    t = 5.0
    a, b = np.exp(1j * t * np.log([2.0, 3.0]))
    mat = np.array([[a, 0.0], [b - a, b]])
    value = operator_norm(np.array([a, b]), 1)
    lo = abs(b - a)
    assert lo <= value <= lo + 1.0
    s = np.sum(np.abs(mat) ** 2)
    p = np.abs(mat[0, 0] * mat[1, 1]) ** 2
    oracle = math.sqrt((s + math.sqrt(s * s - 4 * p)) / 2.0)
    assert value == pytest.approx(oracle, rel=1e-12)


def test_operator_norm_weighted_diagonal_growth():
    # Unimodular log-phase diagonal in the order-1 weighted norm: at least 1,
    # at most a small multiple of t plus 1.
    for t in (5.0, 10.0, 20.0):
        dim = int(8 * t)
        n = np.arange(2, dim + 2, dtype=float)
        value = operator_norm(np.exp(1j * t * np.log(n)), 1)
        assert value >= 1.0 - 1e-12
        assert value <= 5.0 * t + 1.0


@pytest.mark.parametrize("t", [0.05, 1.0, 10.0, 40.0, 300.0])
def test_mellin_sup_at_order_one_is_closed_form(t):
    # |sigma_1|^2 = (1/4 + (xi + t)^2) / (1/4 + xi^2) peaks at
    # xi = (sqrt(t^2 + 1) - t) / 2.
    assert mellin_sup(1, t) == pytest.approx(t + math.sqrt(t * t + 1.0),
                                             rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dim", ["order + 2", 200, 5000])
@pytest.mark.parametrize("t", [0.05, 1.0, 10.0, 40.0])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_log_phase_norm_is_at_most_its_mellin_symbol_sup(order, t, dim):
    # n^(it) in the order-N norm is a truncation of multiplication by s^(it)
    # in the N-th derivative norm, whose Mellin symbol on Re = 1/2 is
    # prod_k (k - 1/2 + i(xi + t)) / (k - 1/2 + i xi).  Its sup bounds every
    # value sampled here (largest ratio 0.9967, at order 3, t = 0.05, dim
    # 5000); with k in place of k - 1/2 the kernel exceeds it (16.95 against
    # 10.10 at order 1, t = 10, dim 5000).  A scan of samples, not a proof
    # that the symbol bounds the kernel.
    dim = order + 2 if dim == "order + 2" else dim
    diag = np.arange(2.0, dim + 2.0) ** (1j * t)
    assert operator_norm(diag, order) <= mellin_sup(order, t) * (1 + 1e-9)


def test_operator_norm_adjoint_symmetry():
    # D and L are real, so D conj(M) L = conj(D M L): the conjugate diagonal,
    # M's adjoint, has the same singular values in every order-N norm.
    for order in (0, 1, 2):
        for _ in range(5):
            diag = _random_complex(12)
            a = operator_norm(diag, order)
            b = operator_norm(diag.conj(), order)
            assert a == pytest.approx(b, rel=1e-10)


def test_operator_norm_submultiplicative():
    tol = 1e-10
    for order in (0, 1, 2):
        for _ in range(10):
            a = _random_complex(10)
            b = _random_complex(10)
            na = operator_norm(a, order, tol=tol)
            nb = operator_norm(b, order, tol=tol)
            nab = operator_norm(a * b, order, tol=tol)
            assert nab <= na * nb * (1.0 + 10.0 * tol)


@pytest.mark.parametrize("dim", [3, 17, 64, 200, 512])
def test_power_iteration_matches_dense_svd(dim):
    tol = 1e-8
    diag = _random_complex(dim)
    for order in (0, 2):
        p = operator_norm(diag, order, tol=tol)
        s = dense_operator_norm(np.diag(diag), order)
        assert p == pytest.approx(s, rel=10.0 * tol)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(dim=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1),
       noise=st.floats(0.0, 1.0), planted=st.floats(0.0, 10.0),
       order=st.integers(0, 2))
def test_power_iteration_matches_dense_svd_property(dim, seed, noise, planted,
                                                    order):
    # Gaussian noise with one planted entry, anywhere from far below the
    # noise to far above it.
    assume(order < dim)
    tol = 1e-10
    rng = np.random.default_rng(seed)
    diag = noise * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    diag[rng.integers(dim)] += planted
    s = dense_operator_norm(np.diag(diag), order)
    if 0.0 < s < linalg.NORM_FLOOR:
        # Tiny draws of noise and planted: the kernel names its range
        # instead of returning a norm it cannot vouch for.
        with pytest.raises(IllConditionedError, match="kernel's range"):
            operator_norm(diag, order, tol=tol)
        return
    p = operator_norm(diag, order, tol=tol)
    assert p == pytest.approx(s, rel=10.0 * tol, abs=0.0)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_operator_norm_close_top_singular_values_at_default_cap(order):
    # Top moduli 16.9704 and 16.9406 over Gaussian noise: the power
    # iteration's geometric-tail rule hit its 400-step cap on a pair of
    # singular values this close (estimate 16.96946 for 16.9704); the Ritz
    # residual stops within the default cap.
    rng = np.random.default_rng(1558151)
    diag = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    diag[[7, 23]] = 16.9704 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2))
    diag[23] *= 16.9406 / 16.9704
    got = operator_norm(diag, order)
    assert got == pytest.approx(dense_operator_norm(np.diag(diag), order),
                                rel=1e-12)


def test_power_iteration_matches_svd_weighted():
    tol = 1e-8
    dim = 40
    diag = np.exp(1j * 7.0 * np.log(np.arange(2, dim + 2)))
    p = operator_norm(diag, 2, tol=tol)
    s = dense_operator_norm(np.diag(diag), 2)
    assert p == pytest.approx(s, rel=10.0 * tol)


# Complex entries 10^e e^(i theta), e in [-3, 3].
_ENTRY = st.builds(lambda e, theta: 10.0 ** e * np.exp(1j * theta),
                   st.floats(-3.0, 3.0), st.floats(0.0, 2.0 * np.pi))


_EDGES = [-1, 0, 1, "2c+1"]

#: Dims from here up hold the Lanczos vectors in more than one row.
_BLOCKED_FROM = 4096


def _dim_at(c, edge):
    return 2 * c + 1 if edge == "2c+1" else c + edge


def _cumsums(order, x):
    for _ in range(order):
        x = np.cumsum(x)
    return x


@st.composite
def _blocked_diagonals(draw):
    """A row count b for the kernel's layout and a diagonal of ``_ENTRY``
    draws, b times a row length of up to 6 entries."""
    b = draw(st.sampled_from([1, 2, 3, 5]))
    size = b * draw(st.integers(1, 6))
    diag = draw(st.lists(_ENTRY, min_size=size, max_size=size))
    return b, np.array(diag, dtype=complex)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=_blocked_diagonals(), order=st.integers(0, 4))
def test_power_iteration_matches_dense_svd_on_block_operators(case, order):
    # The block operators the kernel takes are diagonals (1x1 blocks), here
    # with entries over six decades: operator_norm(m, order) is the largest
    # singular value of D diag(m) L.  Forcing the row count puts the wrap
    # rows and the column carries of the blocked passes at dims a dense SVD
    # can take.
    b, diag = case
    assume(diag.size > order)
    want = dense_operator_norm(np.diag(diag), order)
    with patch.object(linalg, "_rows", lambda n: b):
        got = operator_norm(diag, order)
    assert got == pytest.approx(want, rel=1e-8)


def test_rows_is_the_divisor_nearest_the_target():
    # One row below 4096 entries and for a prime dim; else the divisor of
    # dim nearest sqrt(dim / 512), scanned here over every divisor.
    assert [linalg._rows(n) for n in (1, 4095, 4096, 16000, 160000, 160001)] \
        == [1, 1, 2, 5, 16, 1]
    for n in range(_BLOCKED_FROM, 40000, 97):
        target = math.sqrt(n / 512)
        nearest = min(abs(d - target) for d in range(1, n + 1) if n % d == 0)
        b = linalg._rows(n)
        assert n % b == 0 and abs(b - target) == nearest


@pytest.mark.parametrize("edge", _EDGES)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_in_place_differences_at_chunk_edges(order, edge):
    # Dims at the edges of the blocked layout, with rows b = 1, 2, 1, 3.  A
    # backward pass subtracts rows from the last up and takes the wrap row
    # from a copy; an edge or a scan order off by one drops or repeats a
    # neighbour.  The adjoint pass runs from the first row down.
    # Subtraction is exact per entry, so the 1-d differences are matched
    # bitwise with np.diff, and the blocked ones with the 1-d ones.
    n = _dim_at(_BLOCKED_FROM, edge)
    x = _random_complex(n)
    backward, adjoint = x.copy(), x.copy()
    for _ in range(order):
        backward = np.diff(backward, prepend=0.0)
        adjoint = adjoint - np.append(adjoint[1:], 0.0)
    assert np.array_equal(linalg._differences(order, x.copy(), adjoint=False),
                          backward)
    assert np.array_equal(linalg._differences(order, x.copy(), adjoint=True),
                          adjoint)
    b = linalg._rows(n)
    blocked = x.reshape(-1, b).T.copy()
    for want, adj in ((backward, False), (adjoint, True)):
        got = linalg._differences(order, blocked.copy(), adjoint=adj)
        assert np.array_equal(got.ravel("F"), want)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(b=st.integers(1, 6), m=st.integers(1, 20), order=st.integers(0, 4),
       adjoint=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_differences_equal_the_1d_ones(b, m, order, adjoint, seed):
    # Entry c*b + r of the vector sits at [r, c] of the (b, m) array.
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((b, m)) + 1j * rng.standard_normal((b, m))
    want = linalg._differences(order, y.ravel("F").copy(), adjoint)
    got = linalg._differences(order, y.copy(), adjoint)
    assert np.array_equal(got.ravel("F"), want)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(b=st.integers(1, 6), m=st.integers(1, 20), order=st.integers(0, 4),
       where=st.sampled_from(["new", "in place", "other"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_partial_sums_match_cumsum(b, m, order, where, seed):
    # Row adds, a cumsum of the column totals and the broadcast carry sum in
    # another order than one cumsum does: equal up to rounding.  The
    # adjoint sums run backward, a forward pass on the reversed vector.
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((b, m)) + 1j * rng.standard_normal((b, m))
    x = y.ravel("F")
    for apply, want in ((apply_cumulative, _cumsums(order, x)),
                        (apply_cumulative_adjoint,
                         _cumsums(order, x[::-1])[::-1])):
        vec = y.copy()
        out = {"new": None, "in place": vec, "other": np.empty_like(vec)}[where]
        got = apply(order, vec, out)
        assert got.shape == (b, m)
        if out is not None:
            assert got is out
        scale = np.max(np.abs(want))
        np.testing.assert_allclose(got.ravel("F"), want, rtol=0,
                                   atol=1e-13 * scale)


def test_adjoint_differences_copy_nothing():
    # Reading ahead of the output, numpy subtracts in place without the
    # dim-sized copy that reading behind it costs.
    w = _random_complex(50000)
    tracemalloc.start()
    try:
        linalg._differences(3, w, adjoint=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


@pytest.mark.parametrize("adjoint", [False, True])
def test_blocked_passes_copy_at_most_one_row(adjoint):
    # At dim 160000 the kernel's vectors are 16 rows of 10000 entries.  A
    # difference pass copies one row for its wrap row; the partial sums,
    # in place, copy nothing.
    n = 160000
    b = linalg._rows(n)
    assert b == 16
    w = _random_complex(b, n // b)
    row = (n // b) * np.dtype(complex).itemsize
    partial_sums = apply_cumulative_adjoint if adjoint else apply_cumulative
    tracemalloc.start()
    try:
        linalg._differences(3, w, adjoint=adjoint)
        differences = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        partial_sums(3, w, w)
        sums = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert differences < row + 4096
    assert sums < 4096


@pytest.mark.parametrize("chunk", [5, 8])
@pytest.mark.parametrize("edge", _EDGES)
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_in_place_step_matches_dense_svd_at_chunk_edges(monkeypatch, chunk,
                                                        edge, order):
    # The Gram application runs in place in w, row by row: with b rows
    # forced and row lengths c - 1, c, c + 1 and 2c + 1, the wrap rows and
    # the column carries run at dims small enough for a dense SVD.
    m = _dim_at(chunk, edge)
    for b in (2, 3, 5):
        monkeypatch.setattr(linalg, "_rows", lambda n, b=b: b)
        diag = _random_complex(b * m)
        want = dense_operator_norm(np.diag(diag), order)
        assert operator_norm(diag, order) == pytest.approx(want, rel=1e-9)


def test_power_iteration_stops_short_at_close_singular_values():
    # Top singular values 1000.0005 and 1000.000005: on 2x2 blocks with
    # these, the power iteration's geometric-tail rule returned
    # 1000.00041368, 8.6e-8 below, against tol 1e-10; the Ritz residual
    # does not stop short.
    diag = np.array([1.0, 1000.0005, 2.0, 1000.000005, 0.5]) + 0j
    want = dense_operator_norm(np.diag(diag), 0)
    assert operator_norm(diag) == pytest.approx(want, rel=1e-8)


def test_operator_norm_consistent_with_vector_norms():
    tol = 1e-10
    diag = _random_complex(25)
    bound = operator_norm(diag, 1, tol=tol)
    for _ in range(20):
        v = _random_complex(25)
        lhs = weighted_vector_norm(1, diag * v)
        rhs = bound * weighted_vector_norm(1, v) * (1.0 + 10.0 * tol)
        assert lhs <= rhs


def test_matvec_operator_cap_raises_ill_conditioned(monkeypatch):
    # On Hermitian Gram operators of this size Lanczos settles long before
    # its 300-step cap: on this 30-dim diagonal at order 1 it stops even at
    # tol 5e-324.  An adjoint transform that runs the partial sums forward
    # instead of backward makes the Gram operator non-Hermitian: the Ritz
    # residual never settles, and the kernel must name that at its cap
    # rather than return a number.
    rng = np.random.default_rng(5)
    diag = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    assert operator_norm(diag, 1, tol=5e-324) > 0.0
    monkeypatch.setattr(linalg, "apply_cumulative_adjoint",
                        linalg.apply_cumulative)
    with pytest.raises(IllConditionedError,
                       match=f"within {linalg.LANCZOS_STEP_CAP} "
                             r"steps \(last estimate .*, Ritz residual "
                             r".* against tol \* theta = ") as info:
        operator_norm(diag, 1)
    assert info.value.last_estimate > 0.0


def test_step_cap_does_not_grow_with_dimension(monkeypatch):
    # Singular values evenly spaced in (0, 1] at dim 10^4: the top gap is
    # 1e-4, so the top Ritz residual shrinks by only about 3% a step and is
    # still far above tol after 300 steps.  A cap that grew with dim would
    # allow 10^5 steps here, each with a dense eigh of the growing
    # tridiagonal.
    n = 10_000
    sigma = np.linspace(1.0 / n, 1.0, n)
    steps = []

    def counted(*args, _fn=linalg.apply_cumulative):
        steps.append(1)
        return _fn(*args)

    monkeypatch.setattr(linalg, "apply_cumulative", counted)
    with pytest.raises(IllConditionedError,
                       match=f"within {linalg.LANCZOS_STEP_CAP} steps"):
        operator_norm(sigma)
    assert len(steps) == linalg.LANCZOS_STEP_CAP == 300


def test_operator_norm_rejects_bad_inputs():
    # Only tol <= 0 was checked: tol=inf stopped at the first step and NaN
    # ran to the step cap.
    for tol in (0.0, math.inf, 1.0, 5.0, math.nan):
        with pytest.raises(ValueError, match=r"tol must be in \(0, 1\)"):
            operator_norm(np.ones(3), tol=tol)


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_operator_norm_reads_no_uninitialised_workspace(monkeypatch, b,
                                                        order):
    # Every array the kernel takes from np.empty is NaN-filled: an entry
    # read before it is written, such as v_{k-1} at the first step, spreads
    # NaN into the norm.
    diag = _random_complex(b * 20)
    want = dense_operator_norm(np.diag(diag), order)
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(linalg, "_rows", lambda n: b)
    monkeypatch.setattr(linalg.np, "empty", nan_empty)
    assert operator_norm(diag, order) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("shape", [(), (3, 3), (4, 1), (1, 2, 2)])
def test_operator_norm_rejects_a_diag_that_is_not_1d(shape):
    # A matrix is not read as its diagonal, nor a scalar as a 1x1 operator.
    with pytest.raises(ValueError, match=r"diag must be 1-d, got shape"):
        operator_norm(np.ones(shape, dtype=complex))


@pytest.mark.parametrize("order", [1, 2])
def test_weighted_norm_counts_one_cumulative_pair_per_step(order, monkeypatch):
    # perfbench counts linalg.apply_cumulative calls under operator_norm as
    # power steps; each step must make one call and one adjoint call.
    calls = {"apply_cumulative": 0, "apply_cumulative_adjoint": 0}
    for name in calls:
        def counted(*args, _fn=getattr(linalg, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(linalg, name, counted)
    diag = np.exp(1j * 5.0 * np.log(np.arange(2, 202)))
    operator_norm(diag, order)
    assert calls["apply_cumulative"] == calls["apply_cumulative_adjoint"] >= 1


@pytest.mark.parametrize("order", [0, 2])
def test_operator_norm_of_zero_is_zero(order):
    assert operator_norm(np.zeros(50), order) == 0.0


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("scale", [1e-200, 1e-140, 1e-100, 1e-50, 1.0])
def test_tiny_norm_is_right_or_raises(scale, order):
    # Squared Gram-vector entries of size norm**4 underflowed, so these came
    # back as the start's Rayleigh quotient (1.4801e-140 at order 0 for
    # 2e-140) or as 0.0, without an error.
    diag = scale * np.linspace(1.0, 2.0, 30)
    want = dense_operator_norm(np.diag(diag), order)
    if scale < linalg.NORM_FLOOR:
        with pytest.raises(IllConditionedError, match="kernel's range"):
            operator_norm(diag, order)
    else:
        assert operator_norm(diag, order) == pytest.approx(want, rel=1e-9,
                                                           abs=0.0)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("scale", [1e76, 1e78, 1e80, 1e100])
def test_huge_norm_is_right_or_raises(scale, order):
    # The squares of Gram-vector entries, of order norm**4, overflowed above
    # about 1e77 and raised a bare ValueError about a non-finite beta.
    diag = scale * np.linspace(1.0, 2.0, 30)
    if scale > 1e77:
        with pytest.raises(IllConditionedError, match="kernel's range"):
            operator_norm(diag, order)
    else:
        want = dense_operator_norm(np.diag(diag), order)
        assert operator_norm(diag, order) == pytest.approx(want, rel=1e-9,
                                                           abs=0.0)


def test_weighted_norm_allocates_its_workspace_once():
    # Three Lanczos vectors, allocated once per call, with each Gram
    # application in place in one of them and the 1-d diag read in place
    # through its column-major view: the peak stays within four vectors of
    # dim complex entries (the fourth covers the one-row temporaries and
    # the small arrays), however many steps run, at a dim held in 10 rows.
    # The five-vector workspace (a copy of diag included), a start vector
    # made apart from the workspace, or a temporary of dim entries per
    # step, raises the peak past four.
    dim = 50000
    assert linalg._rows(dim) == 10
    diag = np.exp(1j * 30.0 * np.log(np.arange(2, dim + 2)))
    tracemalloc.start()
    try:
        operator_norm(diag, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * dim * np.dtype(complex).itemsize


def _filled_workspace(diag):
    work = linalg.Workspace(diag.size)
    np.copyto(work.diag, diag.reshape(work.diag.shape, order="F"))
    return work


@pytest.mark.parametrize("dim", [7, 1600, 4099, 50000])
def test_workspace_holds_the_diagonal_in_the_kernel_layout(dim):
    # Entry c*b + r of the diagonal sits at [r, c] of every array, each
    # C-contiguous; a workspace given a 1-d diagonal reads it in place.
    diag = _random_complex(dim)
    work = _filled_workspace(diag)
    b = linalg._rows(dim)
    assert work.dim == dim
    for a in (work.diag, work.v_prev, work.v, work.w):
        assert a.shape == (b, dim // b) and a.flags.c_contiguous
    assert np.array_equal(work.diag[:, 0], diag[:b])
    assert np.array_equal(work.diag.ravel("F"), diag)
    given = linalg.Workspace(dim, diag)
    assert np.shares_memory(given.diag, diag)
    assert np.array_equal(given.diag, work.diag)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("dim", [30, 4099, 50000])
def test_norm_on_a_filled_workspace_is_the_norm_of_its_diagonal(order, dim):
    # Bitwise the 1-d call, which reads diag through a strided view,
    # however often the workspace is reused: the kernel zeroes v_prev and
    # lays out a fresh start itself.
    diag = np.exp(1j * 7.0 * np.log(np.arange(2, dim + 2))) / np.arange(
        1, dim + 1) ** 0.25
    work = _filled_workspace(diag)
    want = operator_norm(diag, order)
    for a in (work.v_prev, work.v, work.w):
        a.fill(np.nan)
    assert operator_norm(work, order) == want
    assert operator_norm(work, order) == want
    assert np.array_equal(work.diag.ravel("F"), diag)


def test_norm_on_a_filled_workspace_allocates_no_dim_sized_array():
    # The four arrays are the caller's: what the norm allocates is one row
    # (the wrap row's copy) and small arrays (under 32 KB, the test
    # runner's own included); the seeded start is formed
    # one row of its outer product at a time, without ufunc buffers.
    dim = 50000
    work = _filled_workspace(np.exp(1j * 30.0 * np.log(np.arange(2, dim + 2))))
    operator_norm(work, 2)  # the start factors, cached per dim
    tracemalloc.start()
    try:
        operator_norm(work, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= dim // 10 * np.dtype(complex).itemsize + 2**15


def test_operator_norm_order_validation():
    with pytest.raises(ValueError, match=r"dim must be >= order \+ 1"):
        operator_norm(np.zeros(0))
    with pytest.raises(ValueError, match="order must be >= 0"):
        operator_norm(np.ones(4), -1)
    with pytest.raises(ValueError, match=r"dim must be >= order \+ 1"):
        operator_norm(np.ones(2), 2)
    assert operator_norm(np.ones(3), 2) == pytest.approx(1.0)


@pytest.mark.parametrize("dim", [1, 2, 30, 1600, 4099, 50000, 160000])
def test_start_is_the_unit_rank_one_matrix_of_its_factors(dim):
    # Entry [r, c] of the laid-out start is a_r c_c, for the cached factors
    # of the layout's shape; each factor is a unit vector, so the start is.
    v = linalg.Workspace(dim).v
    a, c = linalg._start_factors(v.shape)
    assert (a.size, c.size) == v.shape
    assert not (a.flags.writeable or c.flags.writeable)
    assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-15)
    assert np.linalg.norm(c) == pytest.approx(1.0, rel=1e-15)
    start = linalg._start_vector(v)
    assert start is v
    assert np.array_equal(start, np.outer(a, c))
    assert np.linalg.norm(start) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("dim", [30, 4099, 160000])
def test_start_is_the_same_across_calls_and_workspaces(dim):
    # The kernel overwrites v; only the factors are cached, not the start.
    first, second = linalg.Workspace(dim), linalg.Workspace(dim)
    want = linalg._start_vector(first.v).copy()
    first.v.fill(np.nan)
    assert np.array_equal(linalg._start_vector(first.v), want)
    assert np.array_equal(linalg._start_vector(second.v), want)


@pytest.mark.parametrize("dim, rows", [(1600, 1), (160000, 16), (159979, 1)])
def test_start_allocates_nothing_once_its_factors_are_drawn(dim, rows):
    # The workspace draws the factors; forming the start from them takes
    # one row product per row and no ufunc buffer.
    work = linalg.Workspace(dim)
    assert len(work.v) == rows
    tracemalloc.start()
    try:
        linalg._start_vector(work.v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


def test_weighted_simulate_never_imports_numpy_random(tmp_path):
    # The start is drawn with the random module: numpy.random would add
    # about 6 MB to the RSS of every weighted run.
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    code = ("import sys, semistab\n"
            "cfg = semistab.parse_config(sys.argv[1])\n"
            "semistab.run_simulate(cfg, sys.argv[2])\n"
            "print('numpy.random' in sys.modules)")
    text = ("model.family = LOG_SPECTRUM\nmodel.order = 2\n"
            "grid.t_min = 1.0\ngrid.t_max = 20.0\ngrid.points = 6\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, text, str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
