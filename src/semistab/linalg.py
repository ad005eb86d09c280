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
three-term Lanczos on the Gram operator G of that product, for M diagonal
(as the one family measured in a weighted norm is) and given as the 1-d
array of its entries or in a filled :class:`Workspace`, with D, L and
their adjoints in O(order * dim).  Dense references for D, L and the norms
live in the test suite.

Layout, workspace.  The kernel holds the multiplier and each Lanczos vector
of dim entries as a C-contiguous ``(b, m)`` array read in column-major
order: entry ``c*b + r`` sits at ``[r, c]``.  ``b`` (:func:`_rows`) is the
divisor of dim nearest ``sqrt(dim / 512)``, and 1 below 4096 entries or for
a prime dim.  An order-1 partial sum is then ``b - 1`` contiguous row adds,
one cumsum over the ``m`` column totals in the last row and one broadcast
add of the shifted totals to the other rows; a difference pass is ``b - 1``
row subtractions and one wrap row, for which one row is copied.  The
transforms take either a 1-d vector, the one-row case, or such an array.
The seeded start is defined in this layout: the unit rank-one matrix
``a c^T`` of shape ``(b, m)``, whose factors are drawn once per shape.
A :class:`Workspace` holds these arrays for a whole curve of norms, and
:meth:`Workspace.laid_out` is the one way a vector enters the layout (a 1-d
diagonal given for one norm is read in place, not copied); each Gram
application runs in place in the next Lanczos vector, so a norm allocates
only temporaries of one row and small arrays.

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

All functions here are pure and safe to call concurrently, but not
:func:`operator_norm` twice on one workspace.
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


def _rows(n: int) -> int:
    # Rows of the kernel's layout: the divisor of n nearest sqrt(n / 512),
    # the smaller on a tie; divisors past twice the target lose to 1.
    if n < 4096:
        return 1
    target = math.sqrt(n / 512)
    return min((d for d in range(1, int(2 * target) + 1) if n % d == 0),
               key=lambda d: abs(d - target))


def _differences(order: int, w: np.ndarray, adjoint: bool) -> np.ndarray:
    """Order-N backward differences of ``w``, or their adjoint, in place.

    ``w`` is a 1-d vector or a ``(b, m)`` array in the kernel's layout.  A
    backward pass, w_j -= w_{j-1}, subtracts rows from the last up, an
    adjoint pass, w_j -= w_{j+1}, from the first down; then the wrap row
    reads a one-row copy taken before the rows changed.  With one row the
    adjoint's wrap row reads ahead of what it writes, which numpy does
    without a copy.  Returns ``w``.
    """
    y = np.atleast_2d(w)
    b, step = len(y), 1 if adjoint else -1
    edge, wrap = (y[0, 1:], y[-1, :-1]) if adjoint else (y[-1, :-1], y[0, 1:])
    copy = edge if adjoint and b == 1 else np.empty_like(edge)
    for _ in range(order):
        if copy is not edge:
            np.copyto(copy, edge)
        for r in range(b - 1) if adjoint else range(b - 1, 0, -1):
            np.subtract(y[r], y[r + step], out=y[r])
        np.subtract(wrap, copy, out=wrap)
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
    # A pass adds each row into the next, cumsums the column totals this
    # leaves in the last row and adds each column's carry to its other
    # rows.  Backward sums run forward on the view reversed in both axes,
    # the layout of the reversed vector.  The first pass reads vec and
    # writes out; no pass allocates.
    vec = np.asarray(vec, dtype=complex)
    if out is None:
        out = np.empty(vec.shape, dtype=complex)
    flip = (slice(None, None, -1),) * 2 if backward else ()
    dst = np.atleast_2d(out)[flip]
    src = dst if out is vec else np.atleast_2d(vec)[flip]
    if order == 0:
        np.copyto(dst, src)
    for _ in range(order):
        if src is not dst:
            np.copyto(dst[0], src[0])
        for r in range(1, len(dst)):
            np.add(dst[r - 1], src[r], out=dst[r])
        np.cumsum(dst[-1], out=dst[-1])
        if len(dst) > 1:
            np.add(dst[:-1, 1:], dst[-1, :-1], out=dst[:-1, 1:])
        src = dst
    return out


@functools.lru_cache(maxsize=8)
def _start_factors(shape: tuple) -> tuple:
    # Unit complex Gaussian vectors a in C^b and c in C^m, (b, m) = shape,
    # from a fixed seed: Box-Muller on 53-bit uniforms u in [0, 1), so
    # log1p(-u) is finite.  Read-only, so that every caller can share them;
    # no numpy.random (6 MB of RSS) and no Python loop per draw.
    n = sum(shape)
    bits = np.frombuffer(random.Random(0).randbytes(16 * n), dtype="<u8")
    u = (bits >> np.uint64(11)) * 2.0 ** -53
    z = np.sqrt(-2.0 * np.log1p(-u[:n])) * np.exp(2j * np.pi * u[n:])
    pair = np.split(z, [shape[0]])
    for factor in pair:
        factor /= np.linalg.norm(factor)
        factor.flags.writeable = False
    return tuple(pair)


def _start_vector(out: np.ndarray) -> np.ndarray:
    # The unit rank-one matrix a c^T of the layout's shape: <x, a c^T> is a
    # nonzero bilinear form for any x != 0, so unlike all-ones it is almost
    # surely not orthogonal to the top singular vector.  Row by row, as a
    # broadcast outer product allocates ufunc buffers on every norm.
    a, c = _start_factors(out.shape)
    for r in range(a.size):
        np.multiply(a[r], c, out=out[r])
    return out


class Workspace:
    """The kernel's arrays for one dim, allocated once: the multiplier
    ``diag`` and the Lanczos vectors ``v_prev``, ``v`` and ``w``, each
    C-contiguous in the ``(b, m)`` layout, ``b = _rows(dim)``.  A given
    1-d ``diag`` is read through :meth:`laid_out`, not copied: the products
    are elementwise, so the norm is the same to the bit.  The start's
    factors are drawn before the vectors."""

    def __init__(self, dim: int, diag: np.ndarray | None = None):
        b = _rows(dim)
        self.dim = dim
        _start_factors((b, dim // b))
        self.v_prev, self.v, self.w = (
            np.empty((b, dim // b), dtype=complex) for _ in range(3))
        self.diag = (np.empty_like(self.v) if diag is None
                     else self.laid_out(diag))

    def laid_out(self, vec: np.ndarray) -> np.ndarray:
        """A vector of dim entries as a view in the kernel's layout: entry j
        at ``[j % b, j // b]``, so ``vec`` is the view's ``ravel("F")``.
        numpy writes through the view without ufunc buffers."""
        return vec.reshape(self.v.shape, order="F")


def operator_norm(diag, order: int = 0,
                  tol: float = LANCZOS_TOL_DEFAULT) -> float:
    """Operator norm of M = diag(``diag``) on C^dim in the order-N norm;
    ``diag`` is a filled :class:`Workspace`, whose multiplier is read and
    whose Lanczos vectors are overwritten, or a 1-d array of dim entries,
    read in place by a fresh one.

    Three-term Lanczos on ``G = (D M L)^H (D M L)`` from a fixed-seed random
    start, at most ``LANCZOS_STEP_CAP`` steps; one step applies ``L``, ``M``
    and ``D``, then their adjoints in reverse order (at order 0 the
    transforms are the identity), all in place in the next Lanczos vector,
    and stops once the Ritz residual of the top Ritz value ``theta`` is at
    most ``tol * theta``; the norm is ``sqrt(theta)``.
    Raises ``ValueError`` for ``tol`` outside (0, 1), ``diag`` neither 1-d
    nor a workspace, an order outside [0, dim), non-finite entries or a norm
    above about 1e154, and :class:`IllConditionedError` at the step cap, for
    a nonzero norm below ``NORM_FLOOR`` or for one above about 1e77.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol!r}")
    work = diag
    if not isinstance(work, Workspace):
        diag = np.asarray(diag, dtype=complex)
        if diag.ndim != 1:
            raise ValueError(f"diag must be 1-d, got shape {diag.shape}")
        work = Workspace(diag.size, diag)
    n = work.dim
    if not 0 <= order < n:
        raise ValueError(f"order must be >= 0, got {order}" if order < 0 else
                         f"dim must be >= order + 1, got dim={n}, order={order}")
    diag, v_prev, v, w = work.diag, work.v_prev, _start_vector(work.v), work.w
    v_prev.fill(0.0)
    alphas, betas = [], []
    theta = residual = beta = 0.0
    for step in range(LANCZOS_STEP_CAP):
        # w = G v.  The transforms are looked up at call time, so that a
        # tracer that rebinds them in this module sees one call of each per
        # step.  diag comes first in each product: numpy rounds w * diag
        # differently.
        apply_cumulative(order, v, w)
        _differences(order, np.multiply(diag, w, out=w), adjoint=False)
        alpha = float(np.vdot(w, w).real)
        if not math.isfinite(alpha):
            raise ValueError(f"non-finite Lanczos coefficient alpha = {alpha!r} "
                             f"at step {step + 1}: the operator has non-finite "
                             "entries or a norm above about 1e154")
        _differences(order, w, adjoint=True)
        # conj(diag) w as conj(diag conj(w)): no conjugate copy of diag.
        np.multiply(diag, np.conjugate(w, out=w), out=w)
        apply_cumulative_adjoint(order, np.conjugate(w, out=w), w)
        # w -= beta v_prev + alpha v, both products in v_prev, which
        # retires at the rotation below; v_prev is zero at the first step.
        np.subtract(w, np.multiply(v_prev, beta, out=v_prev), out=w)
        np.subtract(w, np.multiply(v, alpha, out=v_prev), out=w)
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
            # At theta = 0 the operator is zero if every entry is.
            if theta < NORM_FLOOR ** 2 and (theta or np.any(diag)):
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
