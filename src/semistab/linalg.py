"""Difference-weighted sequence norms and operator-norm estimation.

The weighted norm of order N is the l2 norm of the N-th backward difference
of a sequence, with entries before the sequence start treated as zero.  That
zero-prefix convention makes the truncated difference map injective and
reproduces the boundary terms (for N = 1, the extra squared modulus of the
first coefficient).

Operator norms between two norm contexts are largest singular values of the
similarity-transformed matrix ``D_cod @ M @ L_dom``, where D is the banded
difference transform and L its lower-triangular inverse.  Small dense
problems go through a full SVD; everything else runs power iteration on the
Gram operator with O(order * dim) structured applications of D and L.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IllConditionedError

#: Largest dimension routed to a dense SVD by default.
DENSE_SVD_MAX_DIM = 512

#: Default relative tolerance for the power-iteration estimate.
POWER_TOL_DEFAULT = 1e-10

# Consecutive satisfied tail bounds required before accepting the estimate.
_CONVERGED_STREAK = 2


class NormKind(enum.Enum):
    EUCLIDEAN = "EUCLIDEAN"
    DELTA_WEIGHTED = "DELTA_WEIGHTED"


@dataclass(frozen=True)
class NormContext:
    """A norm on C^dim: plain l2, or l2 of the order-N backward difference."""

    kind: NormKind
    dim: int
    order: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.kind is NormKind.DELTA_WEIGHTED:
            _validate_weight_params(self.order, self.dim)
        elif self.order != 0:
            raise ValueError("order is only meaningful for DELTA_WEIGHTED")

    @classmethod
    def euclidean(cls, dim: int) -> "NormContext":
        return cls(NormKind.EUCLIDEAN, dim)

    @classmethod
    def delta_weighted(cls, order: int, dim: int) -> "NormContext":
        return cls(NormKind.DELTA_WEIGHTED, dim, order)


def _validate_weight_params(order: int, dim: int) -> None:
    if order == 0:
        raise ValueError("identity transform not a weighting")
    if order < 0:
        raise ValueError(f"order must be >= 1, got {order}")
    if dim <= order:
        raise ValueError(f"dim must be >= order + 1, got dim={dim}, order={order}")


def difference_matrix(order: int, dim: int) -> np.ndarray:
    """Dense matrix of the order-N backward difference on C^dim.

    Row n carries the alternating binomial band: entry (n, n - j) equals
    (-1)^j C(N, j) for 0 <= j <= min(n, N).  Entries that would reach before
    the sequence start are dropped, which encodes the zero-prefix convention.
    """
    _validate_weight_params(order, dim)
    out = np.zeros((dim, dim), dtype=complex)
    for j in range(order + 1):
        idx = np.arange(j, dim)
        out[idx, idx - j] = (-1) ** j * math.comb(order, j)
    return out


def cumulative_matrix(order: int, dim: int) -> np.ndarray:
    """Inverse of :func:`difference_matrix`: lower-triangular binomial sums.

    Entry (n, k) for k <= n equals C(n - k + N - 1, N - 1); for N = 1 this is
    the all-ones partial-sum operator.
    """
    _validate_weight_params(order, dim)
    out = np.zeros((dim, dim), dtype=complex)
    for off in range(dim):
        rows = np.arange(off, dim)
        out[rows, rows - off] = math.comb(off + order - 1, order - 1)
    return out


def apply_difference(order: int, vec: np.ndarray) -> np.ndarray:
    """Order-N backward difference of a vector, zero-prefix convention."""
    w = np.asarray(vec, dtype=complex)
    for _ in range(order):
        w = np.diff(w, prepend=0.0)
    return w


def apply_difference_adjoint(order: int, vec: np.ndarray) -> np.ndarray:
    w = np.asarray(vec, dtype=complex)
    for _ in range(order):
        w = np.concatenate([w[:-1] - w[1:], w[-1:]])
    return w


def apply_cumulative(order: int, vec: np.ndarray) -> np.ndarray:
    """Order-N repeated partial sums; inverse of :func:`apply_difference`."""
    w = np.asarray(vec, dtype=complex)
    for _ in range(order):
        w = np.cumsum(w)
    return w


def apply_cumulative_adjoint(order: int, vec: np.ndarray) -> np.ndarray:
    w = np.asarray(vec, dtype=complex)
    for _ in range(order):
        w = np.cumsum(w[::-1])[::-1]
    return w


def weighted_vector_norm(ctx: NormContext, vec: np.ndarray) -> float:
    """Norm of ``vec`` in the given context."""
    v = np.asarray(vec, dtype=complex)
    if v.ndim != 1 or v.shape[0] != ctx.dim:
        raise ValueError(f"expected a vector of length {ctx.dim}, got shape {v.shape}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError("vector entries must be finite")
    if ctx.kind is NormKind.EUCLIDEAN:
        return float(np.linalg.norm(v))
    return float(np.linalg.norm(apply_difference(ctx.order, v)))


@dataclass(frozen=True)
class MatvecOperator:
    """Matrix-free linear operator: a shape plus matvec/rmatvec callables.

    ``rmatvec`` must apply the conjugate transpose.
    """

    shape: tuple
    matvec: Callable
    rmatvec: Callable

    @classmethod
    def from_diagonal(cls, diag: np.ndarray) -> "MatvecOperator":
        d = np.asarray(diag, dtype=complex)
        dc = np.conj(d)
        n = d.shape[0]
        return cls((n, n), lambda v: d * v, lambda v: dc * v)


def _transformed_dense(mat, domain, codomain):
    g = mat
    if domain.kind is NormKind.DELTA_WEIGHTED:
        g = g @ cumulative_matrix(domain.order, domain.dim)
    if codomain.kind is NormKind.DELTA_WEIGHTED:
        g = difference_matrix(codomain.order, codomain.dim) @ g
    return g


def _transformed_matvecs(op, domain, codomain):
    if isinstance(op, np.ndarray):
        base_mv = op.__matmul__
        herm = op.conj().T
        base_rmv = herm.__matmul__
    else:
        base_mv = op.matvec
        base_rmv = op.rmatvec

    dom_weighted = domain.kind is NormKind.DELTA_WEIGHTED
    cod_weighted = codomain.kind is NormKind.DELTA_WEIGHTED

    def mv(v):
        w = apply_cumulative(domain.order, v) if dom_weighted else v
        w = base_mv(w)
        return apply_difference(codomain.order, w) if cod_weighted else w

    def rmv(u):
        w = apply_difference_adjoint(codomain.order, u) if cod_weighted else u
        w = base_rmv(w)
        return apply_cumulative_adjoint(domain.order, w) if dom_weighted else w

    return mv, rmv


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
    for _ in range(cap):
        u = mv(v)
        sigma = float(np.linalg.norm(u))
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


def operator_norm(op, domain: NormContext, codomain: NormContext | None = None,
                  tol: float = POWER_TOL_DEFAULT, method: str = "auto",
                  max_iter: int | None = None) -> float:
    """Operator norm of ``op`` as a map (C^n, domain) -> (C^m, codomain).

    Computed as the largest singular value of ``D_cod @ op @ L_dom``.  With
    ``method="auto"`` dense inputs of dimension <= 512 use a full SVD and
    everything else uses power iteration on the Gram operator (fixed-seed
    random start, iteration cap ``10 * max(m, n)`` unless overridden).  A
    dense input whose power iteration hits the cap falls back to the SVD when
    small enough; otherwise :class:`IllConditionedError` is raised.
    """
    codomain = domain if codomain is None else codomain
    if tol <= 0:
        raise ValueError("tol must be positive")

    dense = isinstance(op, np.ndarray)
    if dense:
        mat = np.asarray(op, dtype=complex)
        if mat.ndim != 2:
            raise ValueError(f"expected a matrix, got ndim={mat.ndim}")
        if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
            raise ValueError("matrix entries must be finite")
        op = mat
        m, n = mat.shape
    else:
        m, n = op.shape
    if n != domain.dim or m != codomain.dim:
        raise ValueError(
            f"operator shape ({m}, {n}) does not match contexts "
            f"(codomain dim {codomain.dim}, domain dim {domain.dim})")

    if method not in ("auto", "power", "svd"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "svd" if dense and max(m, n) <= DENSE_SVD_MAX_DIM else "power"

    if method == "svd":
        if not dense:
            raise ValueError("svd method requires a dense matrix")
        g = _transformed_dense(op, domain, codomain)
        return float(np.linalg.svd(g, compute_uv=False)[0])

    mv, rmv = _transformed_matvecs(op, domain, codomain)
    cap = max_iter if max_iter is not None else 10 * max(m, n)
    try:
        return _gram_power_iteration(mv, rmv, n, tol, cap)
    except IllConditionedError:
        if dense and max(m, n) <= DENSE_SVD_MAX_DIM:
            g = _transformed_dense(op, domain, codomain)
            return float(np.linalg.svd(g, compute_uv=False)[0])
        raise
