"""Difference-weighted sequence norms and the weighted operator-norm kernel.

The weighted norm of order N is the l2 norm of the N-th backward difference
of a sequence, with entries before the sequence start treated as zero.  That
zero-prefix convention makes the truncated difference map injective and
reproduces the boundary terms (for N = 1, the extra squared modulus of the
first coefficient).

Order 0 is the Euclidean norm: the 0-th difference is the identity.

The operator norm of M in the order-N norm is the largest singular value of
``D @ M @ L``, where D is the banded difference transform and L its
lower-triangular inverse.  :func:`operator_norm` is the one kernel: plain
three-term Lanczos on the Gram operator G of that product, with M applied
through its ``matvec`` and ``rmatvec`` (a ``models.BlockDiagonal`` in the
instrument) and D, L and their adjoints in O(order * dim).  Each Gram
application runs in place in the next Lanczos vector, so the workspace is
the three Lanczos vectors, allocated once per call, and temporaries of at
most ``_CHUNK`` entries.  Dense references for D, L and the norms live in
the test suite.

Stop rule.  After step k the top eigenpair (theta, s) of the k x k
tridiagonal T_k gives the Ritz residual ``beta_k |s_k|``; the kernel stops
when it is at most ``tol * theta`` (or when ``beta_k = 0``: the Krylov space
is invariant) and returns ``sqrt(theta)``.  There is no reorthogonalisation.
Once a Ritz value converges, the recurrence loses orthogonality and copies
of it ("ghost" Ritz values) appear, but the top Ritz value stays accurate
(Paige, Linear Algebra Appl. 34, 1980).

What the residual does not show.  A small Ritz residual puts theta close to
*some* eigenvalue of G, and every Ritz value is at most lambda_max, the top
one; neither fact shows that the top eigenvalue was found.  The bound of
Kuczynski and Wozniakowski (SIAM J. Matrix Anal. Appl. 13, 1992) would, in
probability, for a start uniform on the sphere: ``theta >= (1 - eps)
lambda_max`` fails with probability at most
``1.648 sqrt(n) exp(-sqrt(eps) (2k - 1))``.  At n = 160000 and failure
probability 1e-3 that needs k >= 22 steps for eps = 0.1 (k >= 68 for
eps = 0.01), against about 8 steps per norm in the weighted simulate runs,
and the seeded start is not uniform.  Up to rounding, the estimate is only
known to be a lower bound on the norm.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from .errors import IllConditionedError

#: Default relative tolerance of the Ritz residual at the stop.
LANCZOS_TOL_DEFAULT = 1e-10

#: Lanczos steps (Gram applications) allowed before giving up, whatever the
#: dimension: the k x k tridiagonal's ``eigh`` at step k = 300 takes about
#: 11 ms and 0.7 MB, against about 8 steps per production norm.
LANCZOS_STEP_CAP = 300

#: Smallest nonzero norm returned: the squares of Gram-vector entries, of
#: order norm**4, underflow in ``np.linalg.norm`` below about 1e-77.
NORM_FLOOR = 1e-60

#: Entries per chunk of the in-place passes (256 KB of complex): no
#: temporary of a Lanczos step is longer.
_CHUNK = 1 << 14


def _differences(order: int, w: np.ndarray, adjoint: bool) -> np.ndarray:
    """Order-N backward differences of ``w``, or their adjoint, in place.

    A difference of two overlapping slices makes numpy copy all of ``w``, so
    each pass walks chunks of ``_CHUNK`` entries, subtracting a copy of each
    chunk's neighbours: backward differences from the end, adjoint ones from
    the start, so that no neighbour is overwritten before it is read.
    Returns ``w``.
    """
    n = w.size
    if adjoint:  # w_j -= w_{j+1} for j < n - 1, from the start
        shift, edges = 1, [(lo, min(lo + _CHUNK, n - 1))
                           for lo in range(0, n - 1, _CHUNK)]
    else:  # w_j -= w_{j-1} for j >= 1, from the end
        shift, edges = -1, [(max(hi - _CHUNK, 1), hi)
                            for hi in range(n, 1, -_CHUNK)]
    scratch = np.empty(min(n, _CHUNK), dtype=complex)
    chunks = [(w[lo:hi], w[lo + shift:hi + shift], scratch[:hi - lo])
              for lo, hi in edges]
    for _ in range(order):
        for chunk, neighbours, part in chunks:
            np.copyto(part, neighbours)
            np.subtract(chunk, part, out=chunk)
    return w


def apply_difference(order: int, vec: np.ndarray) -> np.ndarray:
    """Order-N backward difference of a vector, zero-prefix convention."""
    return _differences(order, np.array(vec, dtype=complex), adjoint=False)


def apply_cumulative(order: int, vec: np.ndarray, out=None) -> np.ndarray:
    """Order-N repeated partial sums; inverse of :func:`apply_difference`.

    Written into ``out`` when it is given, which may be ``vec`` itself,
    else into a new array.
    """
    return _partial_sums(order, vec, out, backward=False)


def apply_cumulative_adjoint(order: int, vec: np.ndarray,
                             out=None) -> np.ndarray:
    return _partial_sums(order, vec, out, backward=True)


def _partial_sums(order: int, vec, out, backward: bool) -> np.ndarray:
    # The first pass reads vec and writes out, so no copy precedes it; later
    # passes, like every pass when out is vec, are in-place cumsums, which
    # allocate nothing.
    vec = np.asarray(vec, dtype=complex)
    if out is None:
        out = np.empty(vec.shape, dtype=complex)
    src, dst = (vec[::-1], out[::-1]) if backward else (vec, out)
    if order == 0:
        np.copyto(dst, src)
    for _ in range(order):
        np.cumsum(src, out=dst)
        src = dst
    return out


@functools.lru_cache(maxsize=8)
def _start_factors(m: int) -> tuple:
    # Two complex Gaussian vectors of length m from a fixed seed, read-only
    # so that every caller can share them; 2m draws, no numpy.random.
    rng = random.Random(0)
    pair = tuple(np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                           for _ in range(m)]) for _ in range(2))
    for factor in pair:
        factor.flags.writeable = False
    return pair


def _start_vector(n: int) -> np.ndarray:
    # Seeded start a (x) b cut to n entries, a and b complex Gaussian of
    # length ceil(sqrt(n)): <x, a (x) b> is a nonzero bilinear form for any
    # x != 0, so unlike all-ones it is almost surely not orthogonal to the top
    # singular vector.  Only the factors are cached: no vector of length n
    # outlives the call.
    a, b = _start_factors(math.isqrt(n - 1) + 1)
    v = np.outer(a, b).ravel()[:n]
    v /= np.linalg.norm(v)
    return v


def _subtract_scaled(w: np.ndarray, v: np.ndarray, alpha: float,
                     v_prev: np.ndarray, beta: float | None) -> None:
    """``w -= alpha v``, then ``w -= beta v_prev`` unless beta is None, in
    place: each product goes into a chunk-sized scratch first, which rounds
    as whole-vector products into a buffer do."""
    scratch = np.empty(min(w.size, _CHUNK), dtype=complex)
    for lo in range(0, w.size, _CHUNK):
        hi = min(lo + _CHUNK, w.size)
        part = scratch[:hi - lo]
        np.subtract(w[lo:hi], np.multiply(v[lo:hi], alpha, out=part),
                    out=w[lo:hi])
        if beta is not None:
            np.subtract(w[lo:hi], np.multiply(v_prev[lo:hi], beta, out=part),
                        out=w[lo:hi])


def operator_norm(op, order: int = 0,
                  tol: float = LANCZOS_TOL_DEFAULT) -> float:
    """Operator norm of ``op`` on C^dim, dim = ``op.dim``, in the order-N norm.

    ``op`` is any linear operator with ``dim``, ``matvec`` and ``rmatvec``
    (the conjugate transpose), both taking an optional ``out`` array, which
    may be their input: the kernel calls both with ``out`` equal to the
    input.  Three-term Lanczos on the Gram operator
    ``G = (D op L)^H (D op L)`` from a fixed-seed random start, at most
    ``LANCZOS_STEP_CAP`` steps; one step applies ``L``, ``op`` and
    ``D``, then their adjoints in reverse order (at order 0 the transforms
    are the identity), all in place in the next Lanczos vector, and stops
    once the Ritz residual of the top Ritz value ``theta`` is at most
    ``tol * theta``; the norm is ``sqrt(theta)``.
    Raises ``ValueError`` for an order outside [0, dim), non-finite entries or
    a norm above about 1e154, and :class:`IllConditionedError` at the step cap,
    for a nonzero norm below ``NORM_FLOOR`` or for one above about 1e77.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = op.dim
    if not 0 <= order < n:
        raise ValueError(f"order must be >= 0, got {order}" if order < 0 else
                         f"dim must be >= order + 1, got dim={n}, order={order}")
    # The workspace, allocated once: the Lanczos vectors v_{k-1}, v_k and
    # the next one w, in which each Gram application runs in place.
    v = _start_vector(n)
    v_prev, w = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    alphas, betas = [], []
    theta = residual = 0.0
    for step in range(LANCZOS_STEP_CAP):
        # w = G v.  The transforms are looked up at call time, so that a
        # tracer that rebinds them in this module sees one call of each per
        # step.
        apply_cumulative(order, v, w)
        _differences(order, op.matvec(w, out=w), adjoint=False)
        alpha = float(np.vdot(w, w).real)
        if not math.isfinite(alpha):
            raise ValueError(f"non-finite Lanczos coefficient alpha = {alpha!r} "
                             f"at step {step + 1}: the operator has non-finite "
                             "entries or a norm above about 1e154")
        _differences(order, w, adjoint=True)
        apply_cumulative_adjoint(order, op.rmatvec(w, out=w), w)
        _subtract_scaled(w, v, alpha, v_prev, betas[-1] if step else None)
        with np.errstate(over="ignore"):
            beta = float(np.linalg.norm(w))
        if not math.isfinite(beta):
            # alpha is finite: the squares of G v, of order norm**4, overflow.
            raise IllConditionedError("operator norm above about 1e77 is out "
                                      "of the kernel's range",
                                      last_estimate=math.sqrt(alpha))
        alphas.append(alpha)
        betas.append(beta)
        # The top eigenpair (theta, s) of the tridiagonal T_k; eigh reads
        # its lower triangle only.
        values, vectors = np.linalg.eigh(np.diag(alphas)
                                         + np.diag(betas[:-1], -1))
        theta = max(float(values[-1]), 0.0)
        residual = beta * abs(float(vectors[-1, -1]))
        # beta == 0 (an invariant Krylov space, on which theta is an
        # eigenvalue of G; theta = 0 for a zero operator) makes the
        # residual 0 and stops here.
        if residual <= tol * theta:
            # At theta = 0 op is zero if it maps 2**1000 v, whose products
            # with its entries cannot underflow, to zero.
            if theta < NORM_FLOOR ** 2 and (theta or np.any(op.matvec(
                    np.multiply(v, 2.0 ** 1000, out=w), out=w))):
                raise IllConditionedError(f"operator norm below {NORM_FLOOR} "
                                          "is out of the kernel's range",
                                          last_estimate=math.sqrt(theta))
            return math.sqrt(theta)
        np.multiply(w, 1.0 / beta, out=w)
        v_prev, v, w = v, w, v_prev
    sigma = math.sqrt(theta)
    raise IllConditionedError(
        f"Lanczos did not converge within {LANCZOS_STEP_CAP} steps (last "
        f"estimate {sigma!r}, Ritz residual {residual:.3e} against "
        f"tol * theta = {tol * theta:.3e})",
        last_estimate=sigma,
    )
