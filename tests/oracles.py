"""Dense references for the matrix-free weighted-norm kernel.

``semistab.linalg`` applies the difference transform D and its inverse L
matrix-free and estimates operator norms by power iteration.  These helpers
build D and L as dense matrices and take norms by a full SVD, so the tests
can hold the kernel against an independent computation.  Dense, so keep the
dimensions moderate.
"""

import math

import numpy as np

from semistab.linalg import MatvecOperator, NormContext, NormKind


def difference_matrix(order: int, dim: int) -> np.ndarray:
    """Dense matrix of the order-N backward difference on C^dim.

    Row n carries the alternating binomial band: entry (n, n - j) equals
    (-1)^j C(N, j) for 0 <= j <= min(n, N).  Entries that would reach before
    the sequence start are dropped, which encodes the zero-prefix convention.
    """
    NormContext.delta_weighted(order, dim)  # same parameter checks
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
    NormContext.delta_weighted(order, dim)
    out = np.zeros((dim, dim), dtype=complex)
    for off in range(dim):
        rows = np.arange(off, dim)
        out[rows, rows - off] = math.comb(off + order - 1, order - 1)
    return out


def weighted_vector_norm(ctx: NormContext, vec) -> float:
    """Norm of ``vec`` in the given context, through the dense D."""
    v = np.asarray(vec, dtype=complex)
    if v.ndim != 1 or v.shape[0] != ctx.dim:
        raise ValueError(f"expected a vector of length {ctx.dim}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if ctx.kind is NormKind.EUCLIDEAN:
        return float(np.linalg.norm(v))
    return float(np.linalg.norm(difference_matrix(ctx.order, ctx.dim) @ v))


def dense_operator_norm(mat, ctx: NormContext) -> float:
    """Largest singular value of ``D @ mat @ L`` by a full SVD."""
    g = np.asarray(mat, dtype=complex)
    if ctx.kind is NormKind.DELTA_WEIGHTED:
        g = (difference_matrix(ctx.order, ctx.dim) @ g
             @ cumulative_matrix(ctx.order, ctx.dim))
    return float(np.linalg.svd(g, compute_uv=False)[0])


def as_operator(mat) -> MatvecOperator:
    """A dense matrix as a matrix-free operator (matvec and its adjoint)."""
    mat = np.asarray(mat, dtype=complex)
    return MatvecOperator(mat.shape, mat.__matmul__, mat.conj().T.__matmul__)
