"""Spectral projections by contour quadrature, with closed-form oracles.

The projection onto the part of the spectrum enclosed by a circle is
computed as (1 / 2 pi i) times the contour integral of (mu I - A)^-1,
approximated by the trapezoidal rule on equispaced nodes, which converges
exponentially for integrands analytic in a neighborhood of the circle.
This normalization (prefactor and counterclockwise orientation) is the one
that makes the result idempotent.

Also provides the two checkable conditions used by the decay-criterion
pipeline: existence of an isolating circle around an eigenvalue, and decay
of the projected semigroup norm against a majorant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, models
from .asymptotics import loglog_slope, norm_curve
from .errors import (ClusteredSpectrumError, ContourTooCloseError,
                     NonconvergedError)
from .models import BlockDiagonal, Model

#: Times at which the commutation defect of a projection is probed.
COMMUTATION_TIMES = (0.0, 1.0, 10.0, 100.0)

#: Maximal admissible drift of the projection under node doubling.
QUADRATURE_DRIFT_TOL = 1e-8

#: Minimal distance between the contour circle and any eigenvalue.
CONTOUR_MARGIN = 1e-6

#: Default cap on isolating-circle radii.
RADIUS_CAP = 0.5

#: Below this eigenvalue gap no isolating circle is attempted.
MIN_GAP = 1e-9

DEFAULT_NODES = 64

_TRACE_INT_TOL = 1e-6

#: Eigenvalues closer than this are the same value.
_SAME_VALUE = 1e-12

#: Projected norms below this multiple of ||P|| are quadrature residue.
_RESIDUE_REL = 1e-13


def check_nodes(nodes: int) -> int:
    """``nodes`` if it is a valid quadrature node count, else ValueError."""
    if nodes < 16 or nodes % 2 != 0:
        raise ValueError(f"nodes must be even and >= 16, got {nodes}")
    return nodes


@dataclass(frozen=True)
class Contour:
    """A counterclockwise circle in C with an even number of quadrature nodes."""

    center: complex
    radius: float
    nodes: int = DEFAULT_NODES

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        check_nodes(self.nodes)
        object.__setattr__(self, "center", complex(self.center))


@dataclass(frozen=True)
class ProjectionReport:
    """A spectral projection together with its quality diagnostics."""

    blocks: BlockDiagonal
    idempotency_defect: float
    commutation_defect: float
    rank: int
    enclosed: tuple

    @property
    def projection(self) -> np.ndarray:
        return self.blocks.to_dense()


@dataclass(frozen=True)
class DecayCurve:
    """Sampled t -> ||T(t) P|| / f(t) with a monotone-decay verdict."""

    ts: np.ndarray
    values: np.ndarray
    slope: float | None
    decaying: bool


def _contour_margin_check(model: Model, contour: Contour) -> None:
    margins = np.abs(np.abs(model.spectrum - contour.center) - contour.radius)
    worst = float(np.min(margins))
    if worst < CONTOUR_MARGIN:
        raise ContourTooCloseError(
            f"an eigenvalue lies within {worst:.3e} of the contour "
            f"(margin {CONTOUR_MARGIN})")


def _quadrature_sum(model: Model, contour: Contour, nodes: int) -> BlockDiagonal:
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    weights = np.exp(1j * theta)
    mus = contour.center + contour.radius * weights
    zero = np.zeros(model.mid.size, dtype=complex)
    acc = BlockDiagonal(np.zeros(model.scalars.size, dtype=complex),
                        zero, zero, zero)
    scale = contour.radius / nodes
    for mu, w in zip(mus, weights):
        # (mu I - A)^-1 = -(A - mu I)^-1, hence the minus sign.
        acc = acc - (scale * w) * models.resolvent_blocks(model, mu)
    return acc


def _enclosed_eigenvalues(model: Model, contour: Contour) -> tuple:
    inside = np.abs(model.spectrum - contour.center) < contour.radius
    return tuple(model.spectrum[inside].tolist())


def _build_report(model: Model, blocks: BlockDiagonal, enclosed) -> ProjectionReport:
    idem = (blocks @ blocks - blocks).sup_singular_value()
    comm = 0.0
    for t in COMMUTATION_TIMES:
        semi = models.evolve_blocks(model, t)
        comm = max(comm, (semi @ blocks - blocks @ semi).sup_singular_value())
    tr = blocks.trace()
    rank = round(tr.real)
    if abs(tr - rank) > _TRACE_INT_TOL:
        raise NonconvergedError(
            f"projection trace {tr} is not within {_TRACE_INT_TOL} of an integer")
    return ProjectionReport(blocks, float(idem), float(comm), int(rank),
                            tuple(enclosed))


def riesz_projection_quadrature(model: Model, contour: Contour,
                                drift_tol: float = QUADRATURE_DRIFT_TOL
                                ) -> ProjectionReport:
    """Spectral projection for the circle, by trapezoidal quadrature.

    The report carries the projection at the requested node count; the node
    count is doubled once as a convergence check and a drift above
    ``drift_tol`` raises :class:`NonconvergedError`.
    """
    _contour_margin_check(model, contour)
    p = _quadrature_sum(model, contour, contour.nodes)
    p2 = _quadrature_sum(model, contour, 2 * contour.nodes)
    drift = (p - p2).sup_singular_value()
    if drift > drift_tol:
        raise NonconvergedError(
            f"node doubling moved the projection by {drift:.3e} "
            f"(tolerance {drift_tol})")
    return _build_report(model, p, _enclosed_eigenvalues(model, contour))


def _closed_blocks(model: Model, center: complex, radius: float) -> BlockDiagonal:
    """Closed-form projection onto the eigenvalues within radius of center.

    A 2x2 block with distinct eigenvalues a, b projects onto a as
    [[1, 1/(a-b)], [0, 0]] and onto b as the complement; a block with both
    eigenvalues selected is kept whole.
    """
    upper, lower = model.upper, model.lower
    hit_a = np.abs(upper - center) < radius
    hit_b = np.abs(lower - center) < radius
    sign = hit_a.astype(float) - hit_b
    corner = sign / np.where(sign != 0, upper - lower, 1.0)
    scalars = np.abs(model.scalars - center) < radius
    return BlockDiagonal(scalars.astype(complex), hit_a.astype(complex), corner,
                         hit_b.astype(complex))


def riesz_projection_closed(model: Model, eigenvalue_index: int) -> ProjectionReport:
    """Exact blockwise projection onto one eigenvalue, the quadrature oracle.

    The index counts the distinct eigenvalues in the order of
    :func:`models.eigenvalues`.  Blocks not containing the eigenvalue
    contribute zero.
    """
    count = model.spectrum.size
    if not 0 <= eigenvalue_index < count:
        raise IndexError(
            f"eigenvalue index {eigenvalue_index} out of range (0..{count - 1})")
    lam = complex(model.spectrum[eigenvalue_index])
    return _build_report(model, _closed_blocks(model, lam, _SAME_VALUE), (lam,))


def contour_projection_closed(model: Model, contour: Contour) -> ProjectionReport:
    """Closed-form projection for everything enclosed by the circle."""
    _contour_margin_check(model, contour)
    blocks = _closed_blocks(model, contour.center, contour.radius)
    return _build_report(model, blocks, _enclosed_eigenvalues(model, contour))


def hypothesis_a_check(model: Model, lam: complex,
                       radius_cap: float = RADIUS_CAP,
                       nodes: int = DEFAULT_NODES) -> Contour:
    """An isolating circle around the eigenvalue, if one exists.

    The radius is half the distance to the nearest other eigenvalue, capped.
    """
    lam = complex(lam)
    dist = np.abs(model.spectrum - lam)
    if np.min(dist) > _SAME_VALUE:
        raise ValueError(f"{lam} is not an eigenvalue of the model")
    others = dist[dist > _SAME_VALUE]
    if not others.size:
        return Contour(lam, radius_cap, nodes)
    gap = float(np.min(others))
    if gap < MIN_GAP:
        raise ClusteredSpectrumError(
            f"nearest-neighbor gap {gap:.3e} at {lam} is below {MIN_GAP}")
    return Contour(lam, min(gap / 2.0, radius_cap), nodes)


def hypothesis_b_check(model: Model, projection: ProjectionReport, ts, envelope,
                       tol: float = linalg.POWER_TOL_DEFAULT) -> DecayCurve:
    """Decay of t -> ||T(t) P|| / f(t) over the sampled grid.

    ``projection`` is the spectral projection P, as built by
    :func:`riesz_projection_quadrature`; ``envelope`` is any callable
    majorant f(t) > 0.  The verdict is decaying when the log-log
    least-squares slope is <= -0.5 and the last sample is below a tenth of
    the first.  A rank-zero projection (contour around nothing) decays
    vacuously.  Samples with ||T(t) P|| below 1e-13 ||P|| are quadrature
    residue and are left out of the fit, so rescaling f cannot change the
    verdict.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size < 2 or np.any(ts <= 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("ts must be a strictly increasing grid of positive times")
    proj = projection.blocks
    norms = norm_curve(model, ts, proj, tol)
    values = norms / np.array([float(envelope(t)) for t in ts])
    if projection.rank == 0:
        return DecayCurve(ts, values, None, True)
    kept = norms >= _RESIDUE_REL * models.block_operator_norm(model, proj, tol=tol)
    if np.count_nonzero(kept) < 2:
        # A single surviving sample cannot carry a trend.
        return DecayCurve(ts, values, None, False)
    slope = loglog_slope(ts[kept], values[kept])
    decaying = slope <= -0.5 and values[-1] < 0.1 * values[0]
    return DecayCurve(ts, values, slope, bool(decaying))
