import math
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (as_operator, cumulative_matrix, dense, dense_operator_norm,
                     difference_matrix, weighted_vector_norm)
from semistab import linalg, models
from semistab.errors import IllConditionedError
from semistab.linalg import (apply_cumulative, apply_cumulative_adjoint,
                             apply_difference, operator_norm)
from semistab.models import BlockDiagonal

RNG = np.random.default_rng(20240817)


def _random_complex(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def _diagonal(diag) -> BlockDiagonal:
    """A diagonal operator: 1x1 blocks only."""
    none = np.zeros(0, dtype=complex)
    return BlockDiagonal(np.asarray(diag, dtype=complex), none, none, none)


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
                operator_norm(_diagonal(diag), order)


@pytest.mark.parametrize("order", [0, 2], ids=["ctx0", "ctx1"])
@pytest.mark.parametrize("method", ["svd", "power"])
def test_operator_norm_identity_is_one(order, method):
    eye = np.eye(6, dtype=complex)
    value = (dense_operator_norm(eye, order) if method == "svd"
             else operator_norm(as_operator(eye), order))
    assert value == pytest.approx(1.0, rel=1e-9)


def test_operator_norm_2x2_bracket():
    # Norm of [[e^{it/n}, n sin(t/n)], [0, e^{-it/n}]] lies within 1 of the
    # off-diagonal entry; closed-form 2x2 singular value as the exact oracle.
    n, t = 10, 5.0
    mat = np.array([[np.exp(1j * t / n), n * np.sin(t / n)],
                    [0.0, np.exp(-1j * t / n)]])
    value = operator_norm(as_operator(mat), 0)
    lo = n * np.sin(t / n)
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
        op = _diagonal(np.exp(1j * t * np.log(n)))
        value = operator_norm(op, 1)
        assert value >= 1.0 - 1e-12
        assert value <= 5.0 * t + 1.0


def test_operator_norm_adjoint_symmetry():
    for _ in range(5):
        mat = _random_complex(12, 12)
        a = operator_norm(as_operator(mat))
        b = operator_norm(as_operator(mat.conj().T))
        assert a == pytest.approx(b, rel=1e-10)


def test_operator_norm_submultiplicative():
    tol = 1e-10
    for _ in range(10):
        a = _random_complex(10, 10)
        b = _random_complex(10, 10)
        na = operator_norm(as_operator(a), tol=tol)
        nb = operator_norm(as_operator(b), tol=tol)
        nab = operator_norm(as_operator(a @ b), tol=tol)
        assert nab <= na * nb * (1.0 + 10.0 * tol)


@pytest.mark.parametrize("dim", [3, 17, 64, 200, 512])
def test_power_iteration_matches_dense_svd(dim):
    tol = 1e-8
    mat = _random_complex(dim, dim)
    p = operator_norm(as_operator(mat), tol=tol)
    s = dense_operator_norm(mat, 0)
    assert p == pytest.approx(s, rel=10.0 * tol)


def _planted(n, weight, floor):
    """weight * u u^H + floor * I, with u = (e0 - e1) / sqrt(2) orthogonal to ones."""
    u = np.zeros(n, dtype=complex)
    u[:2] = [1.0, -1.0]
    u /= math.sqrt(2.0)
    return weight * np.outer(u, u.conj()) + floor * np.eye(n)


@pytest.mark.parametrize("weight, floor, expected", [(3.0, 0.5, 3.5),
                                                     (1.0, 0.0, 1.0)])
def test_power_iteration_finds_direction_orthogonal_to_ones(weight, floor,
                                                            expected):
    # An all-ones start gave 0.5 and 0.0 here.
    n = 600
    mat = _planted(n, weight, floor)
    got = operator_norm(as_operator(mat))
    assert got == pytest.approx(expected, rel=1e-10)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(dim=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1),
       noise=st.floats(0.0, 1.0), planted=st.floats(0.0, 10.0),
       order=st.integers(0, 2))
def test_power_iteration_matches_dense_svd_property(dim, seed, noise, planted,
                                                    order):
    assume(order < dim)
    tol = 1e-10
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = noise * gauss + _planted(dim, planted, 0.0)
    s = dense_operator_norm(mat, order)
    if 0.0 < s < linalg.NORM_FLOOR:
        # Tiny draws of noise and planted: the kernel names its range
        # instead of returning a norm it cannot vouch for.
        with pytest.raises(IllConditionedError, match="kernel's range"):
            operator_norm(as_operator(mat), order, tol=tol)
        return
    p = operator_norm(as_operator(mat), order, tol=tol)
    assert p == pytest.approx(s, rel=10.0 * tol, abs=0.0)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_operator_norm_close_top_singular_values_at_default_cap(order):
    # Top singular values 16.9704 and 16.9406: the power iteration's
    # geometric-tail rule hit its 400-step cap here at order 0 (estimate
    # 16.96946); the Ritz residual stops within the default cap.
    rng = np.random.default_rng(1558151)
    mat = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    got = operator_norm(as_operator(mat), order)
    assert got == pytest.approx(dense_operator_norm(mat, order), rel=1e-12)


def test_power_iteration_matches_svd_weighted():
    tol = 1e-8
    dim = 40
    diag = np.exp(1j * 7.0 * np.log(np.arange(2, dim + 2)))
    p = operator_norm(_diagonal(diag), 2, tol=tol)
    s = dense_operator_norm(np.diag(diag), 2)
    assert p == pytest.approx(s, rel=10.0 * tol)


_EPS = np.finfo(float).eps

# Complex entries 10^e e^(i theta), e in [-3, 3].
_ENTRY = st.builds(lambda e, theta: 10.0 ** e * np.exp(1j * theta),
                   st.floats(-3.0, 3.0), st.floats(0.0, 2.0 * np.pi))


@st.composite
def _block_operators(draw):
    """0-6 scalars, then 0-6 upper triangular 2x2 blocks."""
    scalars = draw(st.lists(_ENTRY, max_size=6))
    rows = draw(st.lists(st.tuples(_ENTRY, _ENTRY, _ENTRY), max_size=6))
    upper, corner, lower = (np.array([row[i] for row in rows], dtype=complex)
                            for i in range(3))
    return BlockDiagonal(np.array(scalars, dtype=complex), upper, corner, lower)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(op=_block_operators(), order=st.integers(0, 3))
def test_power_iteration_matches_dense_svd_on_block_operators(op, order):
    assume(op.dim > order)
    mat = dense(op)
    rng = np.random.default_rng(op.dim)
    v, w = (rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
            for _ in range(2))
    # Each output entry rounds at most two complex products and one sum.
    assert np.all(np.abs(op.matvec(v) - mat @ v)
                  <= 16 * _EPS * np.abs(mat) @ np.abs(v))
    assert np.all(np.abs(op.rmatvec(w) - mat.conj().T @ w)
                  <= 16 * _EPS * np.abs(mat).T @ np.abs(w))
    assert abs(np.vdot(w, op.matvec(v)) - np.vdot(op.rmatvec(w), v)) <= \
        16 * op.dim * _EPS * np.abs(w) @ np.abs(mat) @ np.abs(v)

    want = dense_operator_norm(mat, order)
    try:
        got = operator_norm(op, order)
    except IllConditionedError:
        return  # the kernel's contract: a named failure, not a wrong number
    assert got == pytest.approx(want, rel=1e-8)


_EDGES = [-1, 0, 1, "2c+1"]


def _dim_at(chunk, edge):
    return 2 * chunk + 1 if edge == "2c+1" else chunk + edge


@pytest.mark.parametrize("edge", _EDGES)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_in_place_differences_at_chunk_edges(order, edge):
    # Each pass subtracts a copy of each chunk's neighbours; an edge off by
    # one drops or repeats a neighbour.  Subtraction is exact per entry, so
    # the whole-vector differences are matched bitwise.
    x = _random_complex(_dim_at(linalg._CHUNK, edge))
    backward, adjoint = x.copy(), x.copy()
    for _ in range(order):
        backward = np.diff(backward, prepend=0.0)
        adjoint = adjoint - np.append(adjoint[1:], 0.0)
    assert np.array_equal(linalg._differences(order, x.copy(), adjoint=False),
                          backward)
    assert np.array_equal(linalg._differences(order, x.copy(), adjoint=True),
                          adjoint)


@pytest.mark.parametrize("chunk", [5, 8])
@pytest.mark.parametrize("edge", _EDGES)
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_in_place_step_matches_dense_svd_at_chunk_edges(monkeypatch, chunk,
                                                        edge, order):
    # The Gram application runs in place in w, chunk by chunk: with short
    # chunks, the dims at their edges are small enough for a dense SVD.
    monkeypatch.setattr(linalg, "_CHUNK", chunk)
    monkeypatch.setattr(models, "_CHUNK", chunk)
    dim = _dim_at(chunk, edge)
    blocks = dim // 3
    op = BlockDiagonal(_random_complex(dim - 2 * blocks),
                       *(_random_complex(blocks) for _ in range(3)))
    want = dense_operator_norm(dense(op), order)
    assert operator_norm(op, order) == pytest.approx(want, rel=1e-9)


def test_power_iteration_stops_short_at_close_singular_values():
    # Blocks [[1, 1], [0, 1000]] and [[1, 0.1], [0, 1000]]: top singular
    # values 1000.0005 and 1000.000005.  The power iteration's geometric-tail
    # rule returned 1000.00041368, 8.6e-8 below, against tol 1e-10; the
    # Ritz residual does not stop short.  Only the block property's order 0
    # draws found it; the instrument takes order-0 norms in closed form.
    op = BlockDiagonal(np.zeros(0, dtype=complex), np.array([1.0, 1.0]) + 0j,
                       np.array([1.0, 0.1]) + 0j, np.array([1e3, 1e3]) + 0j)
    want = dense_operator_norm(dense(op), 0)
    assert operator_norm(op) == pytest.approx(want, rel=1e-8)


def test_operator_norm_consistent_with_vector_norms():
    tol = 1e-10
    mat = _random_complex(25, 25)
    bound = operator_norm(as_operator(mat), 1, tol=tol)
    for _ in range(20):
        v = _random_complex(25)
        lhs = weighted_vector_norm(1, mat @ v)
        rhs = bound * weighted_vector_norm(1, v) * (1.0 + 10.0 * tol)
        assert lhs <= rhs


def test_matvec_operator_cap_raises_ill_conditioned():
    # On Hermitian Gram operators of this size Lanczos settles long before
    # its 300-step cap: on a 30-dim diagonal with top singular values 2 and
    # 2 - 1e-4 it stops even at tol 5e-324.  An rmatvec that transposes
    # without conjugating makes the Gram operator complex symmetric, not
    # Hermitian: the Ritz residual never settles, and the kernel must name
    # that at its cap rather than return a number.
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    op = SimpleNamespace(
        dim=30, matvec=lambda v, out=None: np.matmul(mat, v, out=out),
        rmatvec=lambda w, out=None: np.matmul(mat.T, w, out=out))
    with pytest.raises(IllConditionedError,
                       match=f"within {linalg.LANCZOS_STEP_CAP} "
                             r"steps \(last estimate .*, Ritz residual "
                             r".* against tol \* theta = ") as info:
        operator_norm(op)
    assert info.value.last_estimate > 0.0


def test_step_cap_does_not_grow_with_dimension():
    # Singular values evenly spaced in (0, 1] at dim 10^4: the top gap is
    # 1e-4, so the top Ritz residual shrinks by only about 3% a step and is
    # still far above tol after 300 steps.  A cap that grew with dim would
    # allow 10^5 steps here, each with a dense eigh of the growing
    # tridiagonal.
    n = 10_000
    sigma = np.linspace(1.0 / n, 1.0, n)
    steps = []

    def matvec(v, out=None):
        steps.append(1)
        return np.multiply(sigma, v, out=out)

    op = SimpleNamespace(dim=n, matvec=matvec,
                         rmatvec=lambda w, out=None: np.multiply(sigma, w, out=out))
    with pytest.raises(IllConditionedError,
                       match=f"within {linalg.LANCZOS_STEP_CAP} steps"):
        operator_norm(op)
    assert len(steps) == linalg.LANCZOS_STEP_CAP == 300


def test_operator_norm_rejects_bad_inputs():
    with pytest.raises(ValueError):
        operator_norm(as_operator(np.eye(3)), tol=0.0)


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
    operator_norm(_diagonal(diag), order)
    assert calls["apply_cumulative"] == calls["apply_cumulative_adjoint"] >= 1


@pytest.mark.parametrize("order", [0, 2])
def test_operator_norm_of_zero_is_zero(order):
    zero = _diagonal(np.zeros(50))
    assert operator_norm(zero, order) == 0.0


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("scale", [1e-200, 1e-140, 1e-100, 1e-50, 1.0])
def test_tiny_norm_is_right_or_raises(scale, order):
    # Squared Gram-vector entries of size norm**4 underflowed, so these came
    # back as the start's Rayleigh quotient (1.4801e-140 at order 0 for
    # 2e-140) or as 0.0, without an error.
    op = _diagonal(scale * np.linspace(1.0, 2.0, 30))
    want = dense_operator_norm(dense(op), order)
    if scale < linalg.NORM_FLOOR:
        with pytest.raises(IllConditionedError, match="kernel's range"):
            operator_norm(op, order)
    else:
        assert operator_norm(op, order) == pytest.approx(want, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("scale", [1e76, 1e78, 1e80, 1e100])
def test_huge_norm_is_right_or_raises(scale, order):
    # The squares of Gram-vector entries, of order norm**4, overflowed above
    # about 1e77 and raised a bare ValueError about a non-finite beta.
    op = _diagonal(scale * np.linspace(1.0, 2.0, 30))
    if scale > 1e77:
        with pytest.raises(IllConditionedError, match="kernel's range"):
            operator_norm(op, order)
    else:
        want = dense_operator_norm(dense(op), order)
        assert operator_norm(op, order) == pytest.approx(want, rel=1e-9, abs=0.0)


def test_weighted_norm_allocates_its_workspace_once():
    # Three Lanczos vectors, allocated once per call, with each Gram
    # application in place in one of them: the peak stays within four
    # vectors of dim complex entries (the fourth covers the start vector's
    # outer-product slack, the chunk-sized scratch and the small arrays),
    # however many steps run.  The five-vector workspace, or a temporary of
    # dim entries per step, raises the peak past four.
    dim = 50000
    op = _diagonal(np.exp(1j * 30.0 * np.log(np.arange(2, dim + 2))))
    tracemalloc.start()
    try:
        operator_norm(op, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * dim * np.dtype(complex).itemsize


def test_operator_norm_order_validation():
    with pytest.raises(ValueError, match=r"dim must be >= order \+ 1"):
        operator_norm(_diagonal(np.zeros(0)))
    with pytest.raises(ValueError, match="order must be >= 0"):
        operator_norm(_diagonal(np.ones(4)), -1)
    with pytest.raises(ValueError, match=r"dim must be >= order \+ 1"):
        operator_norm(_diagonal(np.ones(2)), 2)
    assert operator_norm(_diagonal(np.ones(3)), 2) == pytest.approx(1.0)


def test_start_vector_is_a_fresh_copy_of_the_seeded_draws():
    # The Gaussian factors are cached per length; the start vector, which
    # the kernel overwrites, must not be.
    import random

    for n in (1, 2, 30, 1600, 1601):
        rng = random.Random(0)
        m = math.isqrt(n - 1) + 1
        a, b = (np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                          for _ in range(m)]) for _ in range(2))
        want = np.outer(a, b).ravel()[:n]
        want /= np.linalg.norm(want)
        first = linalg._start_vector(n)
        first[:] = 0.0
        assert np.array_equal(linalg._start_vector(n), want)
