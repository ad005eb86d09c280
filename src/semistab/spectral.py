"""Spectral projections by contour quadrature.

The projection onto the part of the spectrum enclosed by a circle is
computed as (1 / 2 pi i) times the contour integral of (mu I - A)^-1,
approximated by the trapezoidal rule on equispaced nodes, which converges
exponentially for integrands analytic in a neighborhood of the circle.
This normalization (prefactor and counterclockwise orientation) is the one
that makes the result idempotent.  The rule is never summed node by node:
on a block-diagonal operator it is a rational filter of the spectral table,
evaluated in closed form.  A projection's idempotency and commutation
defects are read off its blocks and the spectral table; no semigroup is
evaluated to build one.

A projection's support is the blocks with an eigenvalue at |z| < R(N, r),
z = (lam - c) / r, or every block on a weighted model, whose norm couples
every coordinate.  Beyond R, every entry of the N- and 2N-node sums, at
most |z|^-N / (1 - |z|^-N) on the diagonal and
|h(z_s)| N / (r |z_l| (1 - |z_l|^-N)) in the corner, is below tiny / 2, so
0 once flushed (tiny the smallest normal float, 2 the rounding margin).
Every number a projection reports is a supremum over blocks, attained
within a few radii of the circle, so the support is evaluated in rings of
blocks by their least |z|, |z| < 4, 16, 64, ..., innermost first, and only
out to the first ring beyond which the same two bounds show that no block
reaches any of them (:func:`_majorants`); the last ring ends at R.  A
projection is held on its evaluated rings, every block on a weighted model.

Also provides the two checkable conditions used by the decay-criterion
pipeline: existence of an isolating circle around an eigenvalue, and decay
of the projected semigroup norm against a majorant.  Hypothesis (a) decides
each circle by the quadrature's own margin test.  It, and the quadrature's
support and enclosed eigenvalues, each take one pass over the table in the
chunks of :meth:`models.Model.chunked`; the sorted spectrum is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, models
from .asymptotics import NormSamples, Quantity, loglog_slope
from .errors import (ClusteredSpectrumError, ContourTooCloseError,
                     NonconvergedError)
from .models import BlockDiagonal, Model

#: Maximal admissible drift of the projection under node doubling.
QUADRATURE_DRIFT_TOL = 1e-8

#: Minimal distance between the contour circle and any eigenvalue.
CONTOUR_MARGIN = 1e-6

#: Default cap on isolating-circle radii.
RADIUS_CAP = 0.5

DEFAULT_NODES = 64

_TRACE_INT_TOL = 1e-6

#: Eigenvalues closer than this are the same value.
_SAME_VALUE = 1e-12

#: Projected norms below this multiple of ||P|| are quadrature residue.
_RESIDUE_REL = 1e-13

_TINY = np.finfo(float).tiny

#: Each ring of a projection's support reaches this factor further out in
#: |z| than the ring inside it.
_RING_GROWTH = 4.0

#: A supremum is final once every value it leaves out is below this
#: multiple of it: the margin of the pruning rule in :mod:`models`.
_MARGIN = 1.0 - 1e-12


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
        object.__setattr__(self, "center", complex(self.center))
        if not (np.isfinite(self.center) and 0 < self.radius < np.inf):
            raise ValueError(f"a contour needs a finite center and a finite "
                             f"positive radius, got {self.center}, {self.radius}")
        check_nodes(self.nodes)


@dataclass(frozen=True)
class ProjectionReport:
    """A spectral projection together with its quality diagnostics.

    ``commutation_defect`` is the sup of block norms of A P - P A for the
    generator A, whose block k is [[0, g_k], [0, 0]] with
    g_k = P_c (a - b) - (P_u - P_l) on the block [[a, 1], [0, b]].  P and
    T(t) are functions of the same block, so block k of T(t) P - P T(t) is
    c_k(t) g_k, c_k(t) the corner of T(t): P commutes with the semigroup iff
    the defect is 0.  ``drift`` is the node-doubling drift of a quadrature;
    closed forms have none.  P is ``support`` on the blocks ``index``
    (ascending, 1x1 first): the rings of its support that a quadrature
    evaluated, every block on a weighted model.  On each other block of
    the support ||P_k|| <= ``beyond`` (0 when there is none), and every
    reported supremum is attained on ``index``; ``contour`` is the circle
    that P projects for, from which the rest of the support is evaluated
    where a supremum of ||T(t) P|| needs it.
    """

    support: BlockDiagonal
    index: np.ndarray
    idempotency_defect: float
    commutation_defect: float
    rank: int
    enclosed: tuple
    drift: float
    beyond: float = 0.0
    contour: Contour | None = None


@dataclass(frozen=True)
class DecayCurve:
    """Sampled t -> ||T(t) P|| / f(t) with a monotone-decay verdict."""

    ts: np.ndarray
    values: np.ndarray
    slope: float | None
    decaying: bool


def _geometric(q: np.ndarray, n: int):
    """q^n and 1 + q + ... + q^(n-1) by binary splitting, in about 2 log2(n)
    array products: S_2m = S_m (1 + q^m) and S_(2m+1) = S_2m + q^2m.
    Complex products are out of place: numpy rounds an in-place one
    differently, and a sum must not depend on its blocks.  ``np.multiply``
    keeps them so where numpy would evaluate a * (b + c) as (b + c) *= a,
    from 16384 entries (256 KiB) on.
    """
    power, total = q, np.ones_like(q)
    for bit in bin(n)[3:]:
        total = np.multiply(total, 1.0 + power)
        power = power * power
        if bit == "1":
            total += power
            power = power * q
    return power, total


def _unit_power(z: np.ndarray, nodes: int):
    """u^N, with u = z inside the unit circle and u = 1/z outside, where z^N
    could overflow; and the outside mask.  ``z`` is overwritten."""
    outside = np.abs(z) > 1.0
    np.divide(1.0, z, out=z, where=outside)
    return np.power(z, nodes, out=z), outside


def _filter(power: np.ndarray, outside: np.ndarray):
    """h(z) = 1 / (1 - z^N) and z^N h(z) from u^N: outside the unit circle
    they are -u^N / (1 - u^N) and -1 / (1 - u^N)."""
    den = 1.0 - power
    h = np.negative(power, out=np.ones_like(power), where=outside)
    g = np.where(outside, -1.0, power)
    h /= den
    g /= den
    return h, g


def _flush_subnormal(op: BlockDiagonal) -> BlockDiagonal:
    """Zero, in place, every real and imaginary part below the smallest
    normal float.  The filter decays like |z|^-N, so far eigenvalues leave
    subnormal entries that change no norm but slow every later product with
    the projection several-fold."""
    for entries in (op.scalars, op.upper, op.corner, op.lower):
        parts = entries.view(float)
        parts[np.abs(parts) < _TINY] = 0.0
    return op


def _scan(model: Model, contour: Contour) -> tuple:
    """The support, the blocks with an eigenvalue at |z| < R(N, r) (every
    block on a weighted model; ascending, 1x1 first), each support block's
    least |z| and |a - b| (0 on a 1x1 block), the distinct enclosed
    eigenvalues in spectral order, and the closest approach of an eigenvalue
    to the circle, from one pass over the table in chunks."""
    # The least R with R^N and R^(N+1) r / N both at least 2 / tiny.
    n, r, flush = contour.nodes, contour.radius, np.log(2.0 / _TINY)
    reach = r * np.exp(max(flush / n, (flush + np.log(n / r)) / (n + 1)))
    if model.norm_order > 0:  # a weighted norm couples every coordinate
        reach = np.inf
    count, worst = model.scalars.size, np.inf
    index, least = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    spread = [np.zeros(0)]
    inside = [np.zeros(0, dtype=complex)]
    for ones, twos, part in model.chunked():
        upper, lower = part.upper, part.lower
        dist = []
        for eigs in (part.scalars, upper, lower):
            dist.append(np.abs(eigs - contour.center))
            worst = min(worst, float(np.min(np.abs(dist[-1] - r),
                                            initial=np.inf)))
            inside.append(eigs[dist[-1] < r])
        # fmin: a block is near where either eigenvalue is, NaN or not.
        dist[1:] = [np.fmin(dist[1], dist[2])]
        near = [np.flatnonzero(d < reach) for d in dist]
        index += [ones.start + near[0], count + twos.start + near[1]]
        least += [d[k] / r for d, k in zip(dist, near)]
        spread += [np.zeros(near[0].size),
                   np.abs(upper[near[1]] - lower[near[1]])]
    enclosed = models.distinct(np.concatenate(inside))[0]
    return (np.concatenate(index), np.concatenate(least),
            np.concatenate(spread), tuple(enclosed.tolist()), worst)


def _support(model: Model, contour: Contour) -> tuple:
    """The support, the enclosed eigenvalues and the closest approach, of
    :func:`_scan`."""
    index, _, _, enclosed, worst = _scan(model, contour)
    return index, enclosed, worst


def _quadrature_sum(model: Model, contour: Contour) -> tuple:
    """The trapezoid sums at N = contour.nodes and 2N nodes, in closed form.

    On N equispaced nodes of |mu - c| = r the rule sums the resolvent of an
    eigenvalue lam to the rational filter h(z) = 1 / (1 - z^N), z = (lam - c)
    / r (Trefethen & Weideman, SIAM Rev. 56, 2014), so no resolvent is
    evaluated.  A 2x2 block [[a, 1], [0, b]] takes the divided difference
    h[z_a, z_b] / r as its corner (Higham, Functions of Matrices, 2008,
    section 4.4), written without cancellation as
    h(z_s) z_l^N h(z_l) S(q) / (r z_l), with z_l the larger of z_a, z_b in
    modulus, q = z_s / z_l and S(q) = 1 + q + ... + q^(N-1); it is 0 where
    z_a = z_b = 0.  The 2N sums reuse z^N and q^N.  Temporaries are
    released early: at dim 2e5 each array of blocks takes 1.6 MB.
    """
    nodes, center, radius = contour.nodes, contour.center, contour.radius
    upper = model.upper - center
    lower = model.lower - center
    larger = np.abs(upper) >= np.abs(lower)
    z_l = np.where(larger, upper, lower)
    nonzero = z_l != 0
    q = np.divide(np.where(larger, lower, upper), z_l,
                  out=np.zeros_like(z_l), where=nonzero)
    q_power, geometric = _geometric(q, nodes)
    del q
    scale = np.divide(geometric, z_l, out=np.zeros_like(z_l), where=nonzero)
    del geometric, z_l
    powers = [_unit_power(shift / radius, nodes)
              for shift in (model.scalars - center, upper, lower)]
    del upper, lower
    sums = []
    for doubled in (False, True):
        if doubled:
            powers = [(power * power, outside) for power, outside in powers]
            scale = np.multiply(scale, 1.0 + q_power)
        (h_s, _), (h_a, g_a), (h_b, g_b) = (_filter(*p) for p in powers)
        g_a = g_a * h_b
        g_b = g_b * h_a
        corner = np.where(larger, g_a, g_b)
        del g_a, g_b
        corner = corner * scale
        sums.append(_flush_subnormal(BlockDiagonal(h_s, h_a, corner, h_b)))
    return tuple(sums)


def _defects(part: Model, support: BlockDiagonal) -> tuple:
    """The idempotency and commutation defects and the trace of P held as
    ``support`` on the blocks of ``part``."""
    idem = (support @ support - support).sup_singular_value()
    # Block k of A P - P A is [[0, g_k], [0, 0]]; 1x1 blocks commute.
    comm = np.max(np.abs(np.multiply(support.corner, part.upper - part.lower)
                         - (support.upper - support.lower)), initial=0.0)
    return float(idem), float(comm), support.trace()


def _rank(trace: complex) -> int:
    """The rank of a projection of trace ``trace``, which must be within
    ``_TRACE_INT_TOL`` of an integer (else :class:`NonconvergedError`)."""
    rank = round(trace.real)
    if abs(trace - rank) > _TRACE_INT_TOL:
        raise NonconvergedError(f"projection trace {trace} is not within "
                                f"{_TRACE_INT_TOL} of an integer")
    return int(rank)


def _build_report(part: Model, support: BlockDiagonal, index: np.ndarray,
                  enclosed, drift: float) -> ProjectionReport:
    """The report of P held as ``support`` on the blocks ``index``, the
    blocks of ``part``, and 0 elsewhere."""
    idem, comm, trace = _defects(part, support)
    return ProjectionReport(support, index, idem, comm, _rank(trace),
                            tuple(enclosed), float(drift))


def _majorants(contour: Contour, closest: float, spread: float) -> tuple:
    """Bounds over the blocks whose eigenvalues all lie at |z| >= ``closest``
    > 1, ``spread`` the largest |a - b| of their 2x2 blocks: on a block's
    drift, idempotency defect, commutation defect and norm, in the order of
    :func:`_project`'s suprema, and on a diagonal entry of P.

    With w = 1 / closest, a diagonal entry h(z) is at most
    |z|^-N / (1 - |z|^-N) <= D = w^N / (1 - w^N), and a corner
    h(z_s) z_l^N h(z_l) S(q) / (r z_l) at most C = D N w / (r (1 - w^N)),
    as |S(q)| <= N.  The 2N-node entries are below both: D_2N =
    D w^N / (1 + w^N), and the corner takes 2N D_2N / (1 - w^2N), which is
    2 w^N / (1 + w^N)^2 <= 1 times C's.  So ||P_k|| <= b = 2D + C for either
    sum, the drift is at most 2b, ||P_k^2 - P_k|| at most b (1 + b), and
    |g_k| = |P_c (a - b) - (P_a - P_b)| at most C spread + 2D; it is 0 where
    every such block has a = b bitwise, as P_a = P_b then is.

    Rounding.  w is taken 8 eps = 2^-49 relative above 1 / closest: the
    quadrature's |u| = 1 / |z|, from z = (lam - c) / r as rounded, exceeds
    1 / closest by about 5 eps at most, so |u|^N stays below w^N at any N.
    Forming u^N adds at most 100 complex products of 2.3 eps each below 100
    nodes, and above that the 708 eps of exp(N log u) where it is normal;
    the filter, the corner and the block norms add a few ulps more.  About
    2e-13 relative in all, inside the margin by which :func:`_final` asks a
    supremum to exceed its bound.  Where w^N is not a normal float, and so
    not exact relatively, the bounds read NaN, which no supremum exceeds.
    """
    # Python floats, which overflow to inf without a warning.
    n, r = contour.nodes, float(contour.radius)
    w = (1.0 + 2.0 ** -49) / closest
    power = w ** n
    if not power >= _TINY:
        return np.full(4, np.nan), np.nan
    diagonal = power / (1.0 - power)
    corner = diagonal * n * w / (r * (1.0 - power))
    norm = 2.0 * diagonal + corner
    comm = corner * spread + 2.0 * diagonal if spread else 0.0
    return np.array([2.0 * norm, norm * (1.0 + norm), comm, norm]), diagonal


def _final(sup, bound):
    """Where a supremum ``sup`` is attained whatever the values that
    ``bound`` bounds: the bound is 0, which it is only where each of them
    is, or below the margin times a normal ``sup`` (a subnormal one is off
    by 2^-1074, not relatively)."""
    return (bound == 0) | ((bound < _MARGIN * sup) & (sup >= _TINY))


def _merge(held: list, count: int) -> tuple:
    """The index and the operator of the rings ``held``, as pairs (index,
    operator), in one ascending index, 1x1 first."""
    if len(held) == 1:
        return held[0]
    index = np.concatenate([ring for ring, _ in held])
    ones = index < count
    fields = [np.concatenate([getattr(p, name) for _, p in held])
              for name in ("scalars", "upper", "corner", "lower")]
    first, second = (np.argsort(index[mask]) for mask in (ones, ~ones))
    return (np.concatenate([index[ones][first], index[~ones][second]]),
            BlockDiagonal(fields[0][first], *(f[second] for f in fields[1:])))


def _project(model: Model, contour: Contour, drift_tol: float,
             whole: bool = False) -> ProjectionReport:
    """:func:`riesz_projection_quadrature`, on the rings of the support
    innermost first (all of it at once where ``whole`` or the model is
    weighted).  Each ring's blocks are summed once, and the suprema taken
    over them join those of the rings inside.  The loop stops at the first
    ring beyond which no block can reach any supremum (:func:`_majorants`,
    :func:`_final`) nor move the rank or its integrality check: the
    diagonal bound times the blocks beyond, twice, is below half the check's
    tolerance less the trace's distance from an integer, and the other half
    covers the rounding of summing the trace in another order."""
    index, least, spread, enclosed, worst = _scan(model, contour)
    if worst < CONTOUR_MARGIN:
        raise ContourTooCloseError(f"an eigenvalue lies within {worst:.3e} of "
                                   f"the contour (margin {CONTOUR_MARGIN})")
    # Drift, idempotency defect, commutation defect and ||P||.
    held, sups, trace, low = [], np.zeros(4), 0j, 0.0
    high = np.inf if whole or model.norm_order > 0 else _RING_GROWTH
    while True:
        ring = index[(low <= least) & (least < high)]
        part = model.take(ring)
        p, p2 = _quadrature_sum(part, contour)
        idem, comm, tr = _defects(part, p)
        sups = np.maximum(sups, [(p - p2).sup_singular_value(), idem, comm,
                                 p.sup_singular_value()])
        trace += tr
        held.append((ring, p))
        far = high <= least
        if not far.any():
            beyond = 0.0
            break
        closest = float(np.min(least, where=far, initial=np.inf))
        bounds, diagonal = _majorants(
            contour, closest, float(np.max(spread, where=far, initial=0.0)))
        beyond = float(bounds[3])
        slack = abs(trace - np.rint(trace.real))
        if (np.all(_final(sups, bounds)) and slack + 2.0 * diagonal
                * np.count_nonzero(far) < _TRACE_INT_TOL / 2):
            break
        low = high
        while high <= closest:  # on to the next ring that holds a block
            high *= _RING_GROWTH
    drift = float(sups[0])
    if not drift <= drift_tol:
        raise NonconvergedError(
            f"node doubling moved the projection by {drift:.3e} "
            f"(tolerance {drift_tol})")
    index, support = _merge(held, model.scalars.size)
    return ProjectionReport(support, index, float(sups[1]), float(sups[2]),
                            _rank(trace), enclosed, drift, beyond, contour)


def riesz_projection_quadrature(model: Model, contour: Contour,
                                drift_tol: float = QUADRATURE_DRIFT_TOL
                                ) -> ProjectionReport:
    """Spectral projection for the circle, by trapezoidal quadrature.

    The report carries the projection at the requested node count on the
    rings of its support that reach every reported supremum, and its
    drift: the node count is doubled once as a convergence check, and a
    drift above ``drift_tol``, or not finite, raises
    :class:`NonconvergedError`.
    """
    return _project(model, contour, drift_tol)


def hypothesis_a_check(model: Model, lam: complex,
                       radius_cap: float = RADIUS_CAP,
                       nodes: int = DEFAULT_NODES) -> Contour:
    """An isolating circle around the eigenvalue, if one exists.

    The radius is half the distance to the nearest other eigenvalue, capped
    at ``radius_cap``.  A circle within ``CONTOUR_MARGIN`` of an eigenvalue,
    ``lam`` included, raises :class:`ClusteredSpectrumError`.  One pass over
    the table in chunks keeps the gap and the distances within
    ``_SAME_VALUE`` of ``lam``.
    """
    lam = complex(lam)
    gap, same = np.inf, [np.zeros(0)]
    for *_, part in model.chunked():
        for eigs in (part.scalars, part.upper, part.lower):
            dist = np.abs(eigs - lam)
            same.append(dist[dist <= _SAME_VALUE])
            gap = min(gap, float(np.min(dist, where=dist > _SAME_VALUE,
                                        initial=np.inf)))
    same = np.concatenate(same)
    if not same.size:
        raise ValueError(f"{lam} is not an eigenvalue of the model")
    contour = Contour(lam, min(radius_cap, gap / 2.0), nodes)
    # An eigenvalue at the gap or beyond (gap >= 2 radius) is no closer to
    # the circle than lam's near-duplicates, which decide the approach.
    closest = float(np.min(np.abs(same - contour.radius)))
    if closest < CONTOUR_MARGIN:
        raise ClusteredSpectrumError(
            f"circle of radius {contour.radius:.3e} at {lam} (gap {gap:.3e}) "
            f"passes {closest:.3e} from an eigenvalue (margin {CONTOUR_MARGIN})")
    return contour


def hypothesis_b_check(model: Model, projection: ProjectionReport,
                       semi: NormSamples, envelope,
                       tol: float = linalg.LANCZOS_TOL_DEFAULT) -> DecayCurve:
    """Decay of t -> ||T(t) P|| / f(t) over the grid of ``semi``.

    ``projection`` is the spectral projection P, as built by
    :func:`riesz_projection_quadrature`; ``semi`` holds the model's
    ``SEMIGROUP_NORM`` samples ||T(t)|| on a grid of at least two positive
    times, as from :func:`asymptotics.sample_norms`; ``envelope`` is any
    callable majorant f(t), which must be finite and positive on the grid
    (``ValueError`` naming the first t where it is not).  ||T(t) P|| is the
    second row of :func:`models.norm_curve`, handed ``semi`` as the first,
    on the blocks P is held on: every block on a weighted model (else
    ValueError).  A block left out has norm at most ||T(t)|| times
    ``projection.beyond``; unless that is below the margin of
    :func:`_final` times the curve at every grid time, P is evaluated on
    its whole support and the curve taken again.

    The verdict is decaying when the log-log least-squares slope is <= -0.5
    and the last sample is below a tenth of the first.  A rank-zero
    projection (contour around nothing) decays vacuously: its curve reads 0
    and no norm is taken.  Samples with ||T(t) P|| below 1e-13 ||P|| are
    quadrature residue and are left out of the fit, so rescaling f cannot
    change the verdict.
    """
    if semi.quantity is not Quantity.SEMIGROUP_NORM:
        raise ValueError(f"hypothesis (b) needs SEMIGROUP_NORM samples, "
                         f"got {semi.quantity.value}")
    ts = semi.ts
    if ts.size < 2 or ts[0] <= 0:
        raise ValueError("ts must be a strictly increasing grid of positive times")
    f = np.array([float(envelope(t)) for t in ts])
    bad = ~(np.isfinite(f) & (f > 0))
    if np.any(bad):
        first = int(np.argmax(bad))
        raise ValueError(f"envelope f(t) = {f[first]!r} at t = {ts[first]!r} "
                         f"is not finite and positive")
    blocks = model.scalars.size + model.mid.size
    if model.norm_order > 0 and projection.index.size < blocks:
        raise ValueError(f"a weighted norm couples every coordinate, but P "
                         f"covers {projection.index.size} of {blocks} blocks")
    if projection.rank == 0:
        return DecayCurve(ts, np.zeros(ts.size), None, True)
    while True:
        part, proj = model.take(projection.index), projection.support
        norms = models.norm_curve(part, ts, proj, tol, semi=semi.values)[1]
        # Block k of T(t) P has norm at most ||T(t)|| ||P_k||.
        ratio = np.divide(norms, semi.values, out=np.zeros(ts.size),
                          where=semi.values > 0)
        if np.all(_final(ratio, projection.beyond)):
            break
        projection = _project(model, projection.contour, np.inf, whole=True)
    values = norms / f
    kept = norms >= _RESIDUE_REL * models.block_operator_norm(part, proj, tol=tol)
    if np.count_nonzero(kept) < 2:
        # A single surviving sample cannot carry a trend.
        return DecayCurve(ts, values, None, False)
    slope = loglog_slope(ts[kept], values[kept])
    decaying = slope <= -0.5 and values[-1] < 0.1 * values[0]
    return DecayCurve(ts, values, slope, bool(decaying))
