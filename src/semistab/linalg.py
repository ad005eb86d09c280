"""Difference-weighted sequence norms and the weighted operator-norm kernel.

The weighted norm of order N is the l2 norm of the N-th backward difference
of a sequence, with entries before the sequence start treated as zero.  That
zero-prefix convention makes the truncated difference map injective and
reproduces the boundary terms (for N = 1, the extra squared modulus of the
first coefficient).

Order 0 is the Euclidean norm: the 0-th difference is the identity.

The operator norm of M in a norm context is the largest singular value of
``D @ M @ L``, where D is the banded difference transform and L its
lower-triangular inverse.  :func:`operator_norm` is the one kernel: power
iteration on the Gram operator of that product, with M applied through its
``matvec`` and ``rmatvec`` (a ``models.BlockDiagonal`` in the instrument)
and D, L and their adjoints in O(order * dim).  Dense references for D, L
and the norms live in the test suite.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError

#: Default relative tolerance for the power-iteration estimate.
POWER_TOL_DEFAULT = 1e-10

#: Power-iteration steps allowed per coordinate before giving up.
POWER_STEPS_PER_DIM = 10

# Consecutive satisfied tail bounds required before accepting the estimate.
_CONVERGED_STREAK = 2


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


def apply_difference(order: int, vec: np.ndarray) -> np.ndarray:
    """Order-N backward difference of a vector, zero-prefix convention."""
    w = np.asarray(vec, dtype=complex)
    for _ in range(order):
        # One fresh array per order: numpy would buffer an in-place
        # difference, whose operands overlap.
        out = np.empty_like(w)
        out[:1] = w[:1]
        np.subtract(w[1:], w[:-1], out=out[1:])
        w = out
    return w


def apply_difference_adjoint(order: int, vec: np.ndarray) -> np.ndarray:
    w = np.array(vec, dtype=complex)
    for _ in range(order):
        np.subtract(w[:-1], w[1:], out=w[:-1])
    return w


def apply_cumulative(order: int, vec: np.ndarray) -> np.ndarray:
    """Order-N repeated partial sums; inverse of :func:`apply_difference`."""
    w = np.array(vec, dtype=complex)
    for _ in range(order):
        np.cumsum(w, out=w)
    return w


def apply_cumulative_adjoint(order: int, vec: np.ndarray) -> np.ndarray:
    w = np.array(vec, dtype=complex)
    backward = w[::-1]
    for _ in range(order):
        np.cumsum(backward, out=backward)
    return w


def _gram_power_iteration(mv, rmv, n, tol, cap):
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
    # The Rayleigh estimates of the Gram operator are nondecreasing and their
    # increments are roughly geometric, so the extrapolated tail
    # delta * rho / (1 - rho) bounds the remaining error; stop once it stays
    # below tol * sigma.
    prev = None
    prev_delta = None
    streak = 0
    sigma = 0.0
    for step in range(cap):
        u = mv(v)
        sigma = float(np.linalg.norm(u))
        if not math.isfinite(sigma):
            # A finite unit vector mapped to a non-finite one: the operator
            # has non-finite entries or overflows; no further step can help.
            raise ValueError(f"non-finite norm estimate {sigma!r} at power "
                             f"step {step + 1}")
        if sigma == 0.0:
            return 0.0
        w = rmv(u)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return sigma
        v = w / nw
        if prev is not None:
            delta = max(sigma - prev, 0.0)
            settled = delta <= tol * sigma
            if settled and delta > 0.0 and prev_delta:
                rho = delta / prev_delta
                settled = rho < 1.0 and delta * rho / (1.0 - rho) <= tol * sigma
            streak = streak + 1 if settled else 0
            if streak >= _CONVERGED_STREAK:
                return sigma
            prev_delta = delta
        prev = sigma
    raise IllConditionedError(
        f"power iteration did not converge within {cap} iterations "
        f"(last estimate {sigma!r})",
        last_estimate=sigma,
    )


def operator_norm(op, ctx: NormContext,
                  tol: float = POWER_TOL_DEFAULT) -> float:
    """Operator norm of ``op`` on (C^dim, ctx).

    ``op`` is any linear operator with ``dim``, ``matvec`` and ``rmatvec``
    (the conjugate transpose).  Power iteration on the Gram operator of
    ``D @ op @ L`` from a fixed-seed random start, at most
    ``POWER_STEPS_PER_DIM * dim`` steps; one step applies ``L``, ``op`` and
    ``D``, then their adjoints in reverse order (at order 0 the transforms
    return their input).  Raises :class:`IllConditionedError` at the step
    cap and ``ValueError`` on a non-finite estimate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if op.dim != ctx.dim:
        raise ValueError(f"operator dim {op.dim} does not match the "
                         f"context dim {ctx.dim}")
    order = ctx.order

    # The transforms are looked up at call time, so that a tracer that
    # rebinds them in this module sees one call of each per step.
    def mv(v):
        return apply_difference(order, op.matvec(apply_cumulative(order, v)))

    def rmv(u):
        return apply_cumulative_adjoint(
            order, op.rmatvec(apply_difference_adjoint(order, u)))

    return _gram_power_iteration(mv, rmv, ctx.dim, tol,
                                 POWER_STEPS_PER_DIM * ctx.dim)
