"""Difference-weighted sequence norms and the weighted operator-norm kernel.

The weighted norm of order N is the l2 norm of the N-th backward difference
of a sequence, with entries before the sequence start treated as zero.  That
zero-prefix convention makes the truncated difference map injective and
reproduces the boundary terms (for N = 1, the extra squared modulus of the
first coefficient).

Order 0 is the Euclidean norm: the 0-th difference is the identity.

The operator norm of M in a norm context is the largest singular value of
``D @ M @ L``, where D is the banded difference transform and L its
lower-triangular inverse.  :func:`operator_norm` is the one kernel: plain
three-term Lanczos on the Gram operator G of that product, with M applied
through its ``matvec`` and ``rmatvec`` (a ``models.BlockDiagonal`` in the
instrument) and D, L and their adjoints in O(order * dim), all in a
workspace of five vectors allocated once per call.  Dense references for
D, L and the norms live in the test suite.

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

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError

#: Default relative tolerance of the Ritz residual at the stop.
POWER_TOL_DEFAULT = 1e-10

#: Lanczos steps (Gram applications) allowed before giving up, whatever the
#: dimension: the k x k tridiagonal's ``eigh`` at step k = 300 takes about
#: 11 ms and 0.7 MB, against about 8 steps per production norm.
LANCZOS_STEP_CAP = 300

#: Smallest nonzero norm returned: the squares of Gram-vector entries, of
#: order norm**4, underflow in ``np.linalg.norm`` below about 1e-77.
NORM_FLOOR = 1e-60


@dataclass(frozen=True)
class NormContext:
    """A norm on C^dim: l2 of the order-N backward difference (order 0: l2)."""

    dim: int
    order: int = 0

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        if self.dim <= self.order:
            raise ValueError(f"dim must be >= order + 1, got dim={self.dim}, "
                             f"order={self.order}")


def _differences(order: int, src: np.ndarray, spare: np.ndarray,
                 adjoint: bool) -> tuple:
    """Order-N backward differences of ``src``, or their adjoint.

    An in-place difference has overlapping operands, which numpy would
    buffer, so each order writes from one buffer into the other.  Both are
    overwritten; returns ``(result, free)``, the buffer holding the result
    and the other one.
    """
    for _ in range(order):
        if adjoint:
            np.subtract(src[:-1], src[1:], out=spare[:-1])
            spare[-1:] = src[-1:]
        else:
            spare[:1] = src[:1]
            np.subtract(src[1:], src[:-1], out=spare[1:])
        src, spare = spare, src
    return src, spare


def apply_difference(order: int, vec: np.ndarray) -> np.ndarray:
    """Order-N backward difference of a vector, zero-prefix convention."""
    w = np.array(vec, dtype=complex)
    return _differences(order, w, np.empty_like(w), adjoint=False)[0]


def apply_cumulative(order: int, vec: np.ndarray, out=None) -> np.ndarray:
    """Order-N repeated partial sums; inverse of :func:`apply_difference`.

    Written into ``out`` when it is given, else into a new array.
    """
    return _partial_sums(order, vec, out, backward=False)


def apply_cumulative_adjoint(order: int, vec: np.ndarray,
                             out=None) -> np.ndarray:
    return _partial_sums(order, vec, out, backward=True)


def _partial_sums(order: int, vec, out, backward: bool) -> np.ndarray:
    # The first pass reads vec and writes out, so no copy precedes it.
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


def _start_vector(n: int) -> np.ndarray:
    # Seeded start a (x) b cut to n entries, a and b complex Gaussian of
    # length ceil(sqrt(n)): <x, a (x) b> is a nonzero bilinear form for any
    # x != 0, so unlike all-ones it is almost surely not orthogonal to the top
    # singular vector; 2 sqrt(n) draws, no numpy.random (about 6 MB).
    rng = random.Random(0)
    m = math.isqrt(n - 1) + 1
    a, b = (np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                      for _ in range(m)]) for _ in range(2))
    v = np.outer(a, b).ravel()[:n]
    v /= np.linalg.norm(v)
    return v


def operator_norm(op, ctx: NormContext,
                  tol: float = POWER_TOL_DEFAULT) -> float:
    """Operator norm of ``op`` on (C^dim, ctx).

    ``op`` is any linear operator with ``dim``, ``matvec`` and ``rmatvec``
    (the conjugate transpose), both taking an optional ``out`` array that
    does not overlap their input.  Three-term Lanczos on the Gram operator
    ``G = (D op L)^H (D op L)`` from a fixed-seed random start, at most
    ``LANCZOS_STEP_CAP`` steps; one step applies ``L``, ``op`` and
    ``D``, then their adjoints in reverse order (at order 0 the transforms
    are the identity), and stops once the Ritz residual of the top Ritz
    value ``theta`` is at most ``tol * theta``; the norm is ``sqrt(theta)``.
    Raises :class:`IllConditionedError` at the step cap, for a nonzero norm
    below ``NORM_FLOOR`` or for one above about 1e77, and ``ValueError`` when
    the operator has non-finite entries or a norm above about 1e154.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if op.dim != ctx.dim:
        raise ValueError(f"operator dim {op.dim} does not match the "
                         f"context dim {ctx.dim}")
    n, order = ctx.dim, ctx.order
    # The workspace, allocated once: the Lanczos vectors v_{k-1}, v_k and
    # the next one w, and two buffers the transforms alternate between.
    v = _start_vector(n)
    v_prev, w, left, right = (np.empty(n, dtype=complex) for _ in range(4))
    alphas, betas = [], []
    theta = residual = 0.0
    for step in range(LANCZOS_STEP_CAP):
        # w = G v.  The transforms are looked up at call time, so that a
        # tracer that rebinds them in this module sees one call of each per
        # step.
        u, free = _differences(
            order, op.matvec(apply_cumulative(order, v, left), right), left,
            adjoint=False)
        alpha = float(np.vdot(u, u).real)
        if not math.isfinite(alpha):
            raise ValueError(f"non-finite Lanczos coefficient alpha = {alpha!r} "
                             f"at step {step + 1}: the operator has non-finite "
                             "entries or a norm above about 1e154")
        u, free = _differences(order, u, free, adjoint=True)
        apply_cumulative_adjoint(order, op.rmatvec(u, free), w)
        # w -= alpha v_k + beta_{k-1} v_{k-1}, with a transform buffer as
        # the scratch for the products.
        np.subtract(w, np.multiply(v, alpha, out=left), out=w)
        if step:
            np.subtract(w, np.multiply(v_prev, betas[-1], out=left), out=w)
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
            if theta < NORM_FLOOR ** 2 and (theta or np.any(
                    op.matvec(v * 2.0 ** 1000))):
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
