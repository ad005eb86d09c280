"""Three block-diagonal semigroup families on finite truncations.

All families have growth bound 0.  Each is one row of ``FAMILIES``: its
norm, truncation rule, expected laws and spectral table, which holds the
eigenvalues of its leading 1x1 blocks, and for each upper triangular 2x2
block a midpoint ``mid`` and half-gap ``d``, the block being
[[mid + d, 1], [0, mid - d]].  The semigroup, the resolvent and the
sorted spectrum are array expressions over that table, which is all a
:class:`Model` holds (the spectrum is derived on first read); the semigroup
block is

    exp(t mid) * [[exp(t d), sinh(t d) / d], [0, exp(-t d)]],

with t in place of sinh(t d) / d where d is 0 or subnormal.  The Euclidean
norm of T(t) depends only on the moduli of these entries, which are real
expressions in the table (:func:`semigroup_norm`), so it never forms T(t).

The passes over the whole table that a theorem-check repeats run in chunks
of :data:`CHUNK` blocks (:func:`chunks`, :meth:`Model.chunked`), so that none
holds a dim-sized temporary: the Euclidean norm of T(t), block norms and the
lowest eigenvalues (:func:`lowest_eigenvalues`, which never sorts the table
whole).  A few numbers per chunk (:attr:`Model.summary`) bound its blocks of
T(t) at any t, so that the norm leaves chunks out whole, and give the
spectral bound (:func:`spectral_bound`).  The resolvent and the weighted
norms take the table whole.

Everything here is a pure function of its inputs.  Every operator derived
from a table keeps the 2x2 blocks upper triangular, so :class:`BlockDiagonal`
stores three entries per block; block constructors are vectorized over
blocks.  :class:`BlockDiagonal` is the one operator type; the weighted norm
kernel in :mod:`linalg` takes the entries of a diagonal one.
:func:`truncation` is the one adequacy rule and the one gate applying it
with the dimension cap; :func:`evolve_blocks` is the one way to T(t), and
:func:`norm_curve` the one for the pair t -> ||T(t)||, ||T(t) X||; in the
Euclidean norm each value is a supremum over blocks, and :func:`_prune` is
the one rule for which runs and blocks it evaluates.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import linalg
from .errors import SpectrumHitError, TruncationInadequateError

_SPECTRUM_MARGIN = 1e-12

_TINY = np.finfo(float).tiny

#: Blocks per run of a whole-table pass, so that no temporary of the pass is
#: dim-sized.  Fixed: at dim 2e5 it ran faster than 8192 and 32768.
CHUNK = 16384


def chunks(scalars: int, pairs: int):
    """The blocks of a table of ``scalars`` 1x1 blocks, then ``pairs`` 2x2
    blocks, in consecutive runs of at most :data:`CHUNK`: ``(ones, twos)``,
    the slices of the 1x1 and of the 2x2 blocks in a run."""
    for lo in range(0, scalars + pairs, CHUNK):
        hi = lo + CHUNK
        yield (slice(min(lo, scalars), min(hi, scalars)),
               slice(max(lo - scalars, 0), max(hi - scalars, 0)))


def distinct(eigs: np.ndarray) -> tuple:
    """The distinct values of ``eigs`` sorted by (imag, real), and how often
    each occurs.  Repeated eigenvalues come from one expression, so bitwise
    grouping is exact; adding 0 turns -0.0 into 0.0, so that equal values
    are equal in bits and the order of ``eigs`` does not show."""
    eigs = eigs + 0.0
    eigs = eigs[np.lexsort((eigs.real, eigs.imag))]
    new = np.ones(eigs.size, dtype=bool)
    new[1:] = eigs[1:] != eigs[:-1]
    first = np.flatnonzero(new)
    return eigs[first], np.diff(first, append=eigs.size)


class Family(enum.Enum):
    DIAG_JORDAN = "DIAG_JORDAN"
    JORDAN_PAIRS = "JORDAN_PAIRS"
    LOG_SPECTRUM = "LOG_SPECTRUM"


@dataclass(frozen=True)
class ModelSpec:
    """Which family to build, at which truncation, with which parameters."""

    family: Family
    max_index: int
    order: int = 1
    mu_default: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not isinstance(self.family, Family):
            raise ValueError(f"family must be a Family, got {self.family!r}")
        if self.max_index < 2:
            raise ValueError(f"max_index must be >= 2, got {self.max_index}")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        object.__setattr__(self, "mu_default", complex(self.mu_default))


@dataclass(frozen=True)
class Eigenvalue:
    value: complex
    multiplicity: int


@dataclass(frozen=True, eq=False)
class Model:
    """A truncation: its spectral table and the order of its norm (0: l2).

    Coordinates hold the 1x1 blocks (eigenvalues ``scalars``) first, then
    the 2x2 blocks [[mid + half_gap, 1], [0, mid - half_gap]] in order.
    ``spectrum`` lists the distinct eigenvalues sorted by (imag, real) and
    ``multiplicity`` their algebraic multiplicities, both derived from the
    table on first read, by sorting it whole; no pass in this package reads
    them, as each runs over the table in :meth:`chunked`.
    """

    spec: ModelSpec
    norm_order: int
    scalars: np.ndarray
    mid: np.ndarray
    half_gap: np.ndarray

    @functools.cached_property
    def _distinct(self) -> tuple:
        return distinct(np.concatenate([self.scalars, self.upper, self.lower]))

    spectrum = property(lambda self: self._distinct[0])
    multiplicity = property(lambda self: self._distinct[1])

    @functools.cached_property
    def summary(self) -> np.ndarray:
        """One :data:`_SUMMARY` row per run of :meth:`chunked`, formed a run
        at a time on first read."""
        return np.array([_summarize(part) for *_, part in self.chunked()],
                        dtype=_SUMMARY)

    @property
    def dim(self) -> int:
        return self.scalars.size + 2 * self.mid.size

    @property
    def upper(self) -> np.ndarray:
        """Eigenvalue at the first coordinate of each 2x2 block."""
        return self.mid + self.half_gap

    @property
    def lower(self) -> np.ndarray:
        """Eigenvalue at the second coordinate of each 2x2 block."""
        return self.mid - self.half_gap

    def chunked(self):
        """The table in the runs of :func:`chunks`, as ``(ones, twos,
        part)``: ``part`` holds the run's blocks as views of the table, with
        the whole truncation's norm order."""
        for ones, twos in chunks(self.scalars.size, self.mid.size):
            yield ones, twos, replace(self, scalars=self.scalars[ones],
                                      mid=self.mid[twos],
                                      half_gap=self.half_gap[twos])

    def take(self, index: np.ndarray) -> "Model":
        """The table on the blocks ``index`` (ascending, 1x1 first) only, with
        its own dim and spectrum; the norm order stays the whole truncation's."""
        split = np.searchsorted(index, self.scalars.size)
        blocks = index[split:] - self.scalars.size
        return replace(self, scalars=self.scalars[index[:split]],
                       mid=self.mid[blocks], half_gap=self.half_gap[blocks])


#: Per run of a table: the largest real part of its 1x1 eigenvalues and of
#: its 2x2 ones (Re mid + |Re d|), the largest Re mid and |Re d|, the least
#: and largest |Im d|, whether every real part of mid and d is zero (-0.0
#: is, NaN is not), and whether every entry is finite.  An empty part reads
#: -inf for its real parts and 0 for its |d|.
_SUMMARY = np.dtype([("ones", float), ("top", float), ("mid", float),
                    ("re", float), ("im_lo", float), ("im_hi", float),
                    ("imaginary", bool), ("finite", bool)])


def _summarize(part: Model) -> tuple:
    # fl(a + |b|) is the larger of fl(a + b) and fl(a - b), so ``top`` is
    # exact.
    re_mid, d = part.mid.real, part.half_gap
    re, im = np.abs(d.real), np.abs(d.imag)
    return (np.max(part.scalars.real, initial=-np.inf),
            np.max(re_mid + re, initial=-np.inf),
            np.max(re_mid, initial=-np.inf), np.max(re, initial=0.0),
            np.min(im) if im.size else 0.0, np.max(im, initial=0.0),
            not (re_mid.any() or d.real.any()),
            all(np.isfinite(x).all() for x in (part.scalars, part.mid, d)))


def _diag_jordan_table(max_index: int):
    """One unimodular 1x1 block with eigenvalue i, then Jordan blocks (d = 0)
    with eigenvalue ik - 1/k, k = 1, ..., max_index - 1: the semigroup block
    is exp((ik - 1/k) t) * [[1, t], [0, 1]]."""
    k = np.arange(1, max_index, dtype=float)
    return np.array([1j]), 1j * k - 1.0 / k, np.zeros(k.size, dtype=complex)


def _jordan_pairs_table(max_index: int):
    """2x2 blocks with mid = in and d = i/n, n = 2, ..., max_index: simple
    eigenvalues i(n + 1/n) and i(n - 1/n), and the semigroup block
    exp(int) * [[exp(it/n), n sin(t/n)], [0, exp(-it/n)]]."""
    n = np.arange(2, max_index + 1, dtype=float)
    return np.zeros(0, dtype=complex), 1j * n, 1j / n


def _log_spectrum_table(max_index: int):
    """Diagonal, with simple eigenvalues i log n, n = 2, ..., max_index."""
    n = np.arange(2, max_index + 1, dtype=float)
    none = np.zeros(0, dtype=complex)
    return 1j * np.log(n), none, none


@dataclass(frozen=True)
class FamilyRow:
    """One family: ``table(max_index)`` gives its arrays (scalars, mid,
    half_gap); ``weighted`` picks the order-N difference-weighted norm over
    the Euclidean; max_index >= ceil(a t) + b, for ``truncation = (a, b)``,
    is adequate out to time t.  The rest are the laws ``simulate`` expects:
    ``growth = (t_floor, bracket)`` bounds |norm(t)/t - 1| by bracket over
    t >= t_floor, or with t_floor None the norm's power-law exponent to
    N +- bracket; the resolvent product is bounded over t >= ``bounded_from``
    (None: unbounded); ``ratio_exponent`` brackets the ratio's power-law
    exponent (None: the ratio decays like 1/log t).

    The defaults are what the two block families share.  They need 50 blocks
    per unit time because the supremum over blocks is attained near, or
    beyond, block index t.
    """

    table: Callable[[int], tuple]
    growth: tuple
    weighted: bool = False
    truncation: tuple = (50, 0)
    bounded_from: float | None = 10.0
    ratio_exponent: tuple | None = (-1.1, -0.9)


#: The one description of each family.  LOG_SPECTRUM needs 8 coordinates
#: per unit time because the norm witness is supported on indices up to 4t.
FAMILIES = {
    Family.DIAG_JORDAN: FamilyRow(_diag_jordan_table, growth=(50.0, 0.2)),
    Family.JORDAN_PAIRS: FamilyRow(_jordan_pairs_table, growth=(20.0, 0.1)),
    Family.LOG_SPECTRUM: FamilyRow(_log_spectrum_table, growth=(None, 0.2),
                                   weighted=True, truncation=(8, 1),
                                   bounded_from=None, ratio_exponent=None),
}


def model_dim(family: Family, max_index: int) -> int:
    """Coordinate dimension of a truncation, without building it.

    Each family adds a fixed number of coordinates per index, so the
    dimension is affine in max_index and is read off the two smallest tables.
    """
    tables = [FAMILIES[family].table(m) for m in (2, 3)]
    d2, d3 = (scalars.size + 2 * mid.size for scalars, mid, _ in tables)
    return d2 + (d3 - d2) * (max_index - 2)


def build_model(spec: ModelSpec) -> Model:
    """Spectral table and the norm the family is measured in.

    Raises :class:`SpectrumHitError` when ``spec.mu_default`` lies on the
    spectrum, ``ValueError`` when it is not finite or a weighted norm's
    order is not below the dim.  The sorted spectrum is not formed here.
    """
    row = FAMILIES[spec.family]
    order = spec.order if row.weighted else 0
    model = Model(spec, order, *row.table(spec.max_index))
    _gaps(model, spec.mu_default)
    if model.dim <= order:
        raise ValueError(f"order {order} needs dim >= {order + 1}, got {model.dim}")
    return model


def _pair_norms(u: np.ndarray, c: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Largest singular values of the blocks [[u, c], [0, l]], u, c, l >= 0."""
    return (np.hypot(u + l, c) + np.hypot(u - l, c)) / 2.0


def _prune(bound_sq: np.ndarray, sup_on: Callable[[np.ndarray], float]) -> float:
    """The supremum of a set of norms, from the items that can attain it.

    ``bound_sq[k]`` bounds the squared norm of item k (a block, or a run of
    blocks), and ``sup_on(index)`` is the supremum of the norms of the items
    ``index``, NaN if one is.  It evaluates the item of largest bound, of
    norm v, then every other item whose bound is not below (1 - 1e-12) v^2,
    each once; no item left out can exceed v.  A NaN is kept, and every item
    is evaluated where the top bound is NaN, infinite or not normal, or
    where v^2 < tiny.

    The margin covers the rounding of a bound against the norm it bounds
    where the two are computed apart, as a run's bound and its moduli are,
    their exponents rounded apart: fl(t a) is off t a by eps/2 |t a|, and
    each exp, product, sum and hypot adds an ulp or two.  Where a bound is
    finite, |t Re mid| <= 710 for a normal carrier exp(t Re mid),
    |t Re d| <= 347 and |t E| <= 710 (E = Re mid + |Re d|, itself rounded),
    so a computed norm exceeds the exact one by at most
    eps/2 (710 + 347) ~ 1.2e-13 relative, and the exact bound's root the
    computed one by eps 710 ~ 1.6e-13: about 5.6e-13 on squares
    (:func:`_chunk_bounds`), inside the margin with room for the ulps.  The
    two corner terms of a block of T(t) X share the carrier exp(t mid), so
    a product block is off by no more; Frobenius bounds are a few ulps from
    exact.
    """
    top = np.max(bound_sq, initial=0.0)
    keep = np.ones(bound_sq.shape, dtype=bool)
    v = 0.0
    if _TINY <= top < np.inf:
        at = int(np.argmax(bound_sq))
        v = float(sup_on(np.array([at])))
        if v * v >= _TINY:
            keep = bound_sq >= (1.0 - 1e-12) * v * v
        keep[at] = False
    rest = np.flatnonzero(keep)
    # np.maximum keeps a NaN; max(1.0, nan) is 1.0.
    return float(np.maximum(v, sup_on(rest))) if rest.size else v


def _sup_norm(s: np.ndarray, u: np.ndarray, c: np.ndarray,
              l: np.ndarray) -> float:
    """Supremum of the norms of the 1x1 blocks ``s`` and the 2x2 blocks
    [[u, c], [0, l]], from the moduli of their entries; NaN if one is.

    A block's singular values satisfy s1 +- s2 = hypot(u +- l, c), from
    s1 s2 = u l and s1^2 + s2^2 = u^2 + c^2 + l^2 = F; their mean avoids the
    cancellation in sqrt(s^2 - 4 det^2).  :func:`_prune` selects by F.
    """
    with np.errstate(over="ignore"):
        frob = u * u + c * c + l * l
    pairs = _prune(frob, lambda k: np.max(_pair_norms(u[k], c[k], l[k])))
    return float(np.maximum(np.max(s, initial=0.0), pairs))


@dataclass(frozen=True)
class BlockDiagonal:
    """Block-diagonal operator: 1x1 blocks ``scalars``, then 2x2 blocks
    [[upper, corner], [0, lower]]; all four fields are 1-d arrays and the
    coordinates hold the scalars first.  Differences, scalar multiples and
    products (the algebra below) keep the blocks upper triangular.
    """

    scalars: np.ndarray
    upper: np.ndarray
    corner: np.ndarray
    lower: np.ndarray

    def __sub__(self, other):
        return BlockDiagonal(self.scalars - other.scalars, self.upper - other.upper,
                             self.corner - other.corner, self.lower - other.lower)

    def __rmul__(self, c):
        return BlockDiagonal(c * self.scalars, c * self.upper, c * self.corner,
                             c * self.lower)

    def __matmul__(self, other):
        return BlockDiagonal(self.scalars * other.scalars, self.upper * other.upper,
                             self.upper * other.corner + self.corner * other.lower,
                             self.lower * other.lower)

    def trace(self) -> complex:
        return complex(self.scalars.sum() + (self.upper + self.lower).sum())

    def sup_singular_value(self) -> float:
        """Euclidean spectral norm: the supremum of block norms
        (:func:`_sup_norm` on the moduli of the entries)."""
        return _sup_norm(*(np.abs(a) for a in (self.scalars, self.upper,
                                               self.corner, self.lower)))

    def block_norms(self) -> np.ndarray:
        """The norm of every block, the 1x1 blocks first, a chunk at a time."""
        count = self.scalars.size
        out = np.empty(count + self.upper.size)
        pairs = out[count:]
        for ones, twos in chunks(count, self.upper.size):
            out[ones] = np.abs(self.scalars[ones])
            pairs[twos] = _pair_norms(*(np.abs(x[twos]) for x in (
                self.upper, self.corner, self.lower)))
        return out

    def take(self, index: np.ndarray) -> "BlockDiagonal":
        """The operator on the blocks ``index`` (ascending, 1x1 first) only."""
        split = np.searchsorted(index, self.scalars.size)
        scalars, blocks = index[:split], index[split:] - self.scalars.size
        return BlockDiagonal(self.scalars[scalars], self.upper[blocks],
                             self.corner[blocks], self.lower[blocks])


def evolve_blocks(model: Model, t: float, out=None) -> BlockDiagonal:
    """The semigroup at time t as a block-diagonal operator; with ``out``,
    an array of as many entries as there are 1x1 blocks (the weighted
    norms pass :attr:`linalg.Workspace.diag`), the 1x1 blocks exp(t s) are
    written into it in column-major order, s_j at ``out.ravel("F")[j]``,
    and it is ``scalars``.

    Each 2x2 block is exp(t mid) [[exp(t d), sinh(t d) / d], [0, exp(-t d)]]
    (t in place of sinh(t d) / d where d is 0 or subnormal), from three
    transcendental calls: with C = exp(t mid), G = exp(t d) and
    E = expm1(t d), the block is C [[G, E (2 + E) / (2 G d)], [0, 1 / G]].
    The carrier C keeps the corner free of the cancellation between exp(ta)
    and exp(tb) at nearby eigenvalues a, b, and expm1 keeps it accurate at
    small t d; G is not formed as 1 + E, which cancels where Re(t d) << 0.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be >= 0 and finite, got {t}")
    d = model.half_gap
    carrier = np.exp(t * model.mid)
    gain = np.expm1(t * d)
    grow = np.exp(t * d)
    # np.multiply, not a * (b + c): from 16384 complex entries on numpy
    # evaluates that as (b + c) *= a, which rounds differently, so a block
    # would depend on the length of the table.
    corner = np.divide(np.multiply(gain, 2.0 + gain),
                       np.multiply(2.0 * d, grow),
                       out=np.full(d.shape, t, dtype=complex),
                       where=np.abs(d) >= _TINY)
    corner = corner * carrier
    scalars = (model.scalars if out is None
               else model.scalars.reshape(out.shape, order="F"))
    return BlockDiagonal(np.exp(np.multiply(t, scalars, out=out), out=out),
                         carrier * grow, corner, carrier / grow)


def _lobe(y_lo: np.ndarray, y_hi: np.ndarray) -> np.ndarray:
    """psi >= |sinc y| = |sin y| / y for every y in [y_lo, y_hi], y_lo >= 0:
    sinc falls on [0, pi], and beyond pi |sinc y| <= 1 / y < 1 / pi.  So
    psi = sinc(y_lo) where y_hi <= pi, max(sinc(y_lo), 1 / pi) where
    y_lo <= pi < y_hi, and 1 / y_lo where pi < y_lo; since fl(pi) < pi,
    each comparison with fl(pi) holds for pi too."""
    sinc = np.divide(np.sin(y_lo), y_lo, out=np.ones_like(y_lo), where=y_lo > 0)
    return np.where(y_lo <= np.pi, np.where(y_hi <= np.pi, sinc, np.maximum(
        sinc, 1.0 / np.pi)), 1.0 / y_lo)


def _chunk_bounds(summary: np.ndarray, t: float) -> np.ndarray:
    """Per row of a :attr:`Model.summary`, a bound on the squared norms of
    its run's blocks of T(t): the larger of e^2tS and the squared norm of
    [[e^tE, e^tR t g], [0, e^tE]], S = ``ones``, E = ``top``, R = ``mid``.

    A 2x2 block has diagonal moduli e^(t Re mid +- t Re d) <= e^tE and
    corner e^(t Re mid) t |sinh(w) / w|, w = t d = x + iy; |sinh(w) / w|^2
    is a mean of (sinh x / x)^2 and sinc^2 y, so the corner is at most
    e^tR t g, g = sinh X / X where X = t max |Re d| > 0, else
    :func:`_lobe` of t |Im d| over the run (then every x is 0).  The norm of
    a nonnegative 2x2 matrix grows with its entries, so the block's norm is
    at most the pair's.

    NaN (then every run is evaluated, :func:`_prune`) where an entry is not
    finite, t |Im d| overflows, an overflow meets an underflow (also at
    t = 0 for an empty part), or e^X or t g exceeds 2^500.  Below that, a
    subnormal e^(t Re mid) or e^x, off by up to 2^-1074 rather than
    relatively, moves a block's norm by at most about 2^-573, against
    v >= 2^-511 where a run is left out (:func:`_prune`); above it, by more
    than the margin.
    """
    with np.errstate(all="ignore"):
        x, y_lo, y_hi = (t * summary[key] for key in ("re", "im_lo", "im_hi"))
        gain = np.where(x > 0, np.sinh(x) / x, _lobe(y_lo, y_hi))
        diagonal = np.exp(t * summary["top"])
        pair = _pair_norms(diagonal, np.exp(t * summary["mid"]) * t * gain,
                           diagonal)
        bound = np.maximum(np.exp(2 * t * summary["ones"]), pair * pair)
        small = np.maximum(np.exp(x), t * gain) <= 2.0 ** 500
    bound[~(summary["finite"] & np.isfinite(y_hi) & small)] = np.nan
    return bound


def _moduli(model: Model, ones: slice, twos: slice, t: float,
            imaginary: bool) -> tuple:
    """The moduli (s, u, c, l) of the blocks of T(t) in the run ``ones``,
    ``twos`` (:func:`semigroup_norm`)."""
    d = model.half_gap[twos]
    size = np.abs(d)
    if imaginary:  # exp(+-0) = 1, sinh(+-0) = +-0, hypot(+-0, y) = |y|
        carrier, u = 1.0, np.ones(d.shape)
        l, top = u, np.abs(np.sin(t * d.imag))
    else:
        carrier = np.exp(t * model.mid[twos].real)
        x = t * d.real
        grow = np.exp(x)
        u, l = carrier * grow, carrier / grow
        top = np.hypot(np.sinh(x), np.sin(t * d.imag))
    corner = np.divide(top, size, out=np.full(d.shape, float(t)),
                       where=~(size < _TINY))  # NaN where |d| is
    corner *= carrier
    return np.exp(t * model.scalars[ones].real), u, corner, l


def semigroup_norm(model: Model, t: float) -> float:
    """The Euclidean ||T(t)||, from the moduli of the blocks of T(t) alone.

    With carrier = exp(t Re mid) and x = t Re d, a 2x2 block has moduli
    carrier e^x and carrier e^-x on the diagonal and, since
    |sinh(x + iy)|^2 = sinh^2 x + sin^2 y, carrier hypot(sinh x,
    sin(t Im d)) / |d| in the corner (carrier t where d is 0 or subnormal);
    a 1x1 block has modulus exp(t Re s).  So only real ufuncs run and no
    complex T(t) is formed.  Where every real part of a run's mid and d is
    zero, its moduli are 1, |sin(t Im d)| / |d| and 1, with no exp or sinh.

    :func:`_prune` picks the runs of :meth:`Model.chunked` to evaluate by
    their bounds at t (:func:`_chunk_bounds`), and within each run the
    blocks by their Frobenius norms (:func:`_sup_norm`); a run left out is
    never formed.  So the result is the supremum of all block norms to the
    last bit.  This is the Euclidean norm whatever norm the model is
    measured in.  It raises ``ValueError`` naming t where the supremum is
    not finite, also where a half-gap is NaN (its corner is NaN).
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be >= 0 and finite, got {t}")
    summary = model.summary
    runs = list(chunks(model.scalars.size, model.mid.size))
    norm = _prune(_chunk_bounds(summary, t), lambda index: np.max([
        _sup_norm(*_moduli(model, *runs[k], t, summary["imaginary"][k]))
        for k in index.tolist()]))
    if not math.isfinite(norm):
        raise ValueError(f"||T(t)|| = {norm!r} at t = {t!r} is not finite")
    return norm


def spectral_bound(model: Model) -> tuple:
    """The table's spectral bound max Re lambda, exact, from
    :attr:`Model.summary`, and an eigenvalue attaining it where it is
    positive (one pass in chunks), else None."""
    summary = model.summary
    bound = float(np.max(np.maximum(summary["ones"], summary["top"]),
                         initial=-np.inf))
    if not bound > 0:
        return bound, None
    for *_, part in model.chunked():
        eigs = np.concatenate([part.scalars, part.upper, part.lower])
        hit = np.flatnonzero(eigs.real == bound)
        if hit.size:
            return bound, complex(eigs[hit[0]])


def _gaps(model: Model, mu: complex) -> tuple:
    """The eigenvalues of the 1x1 blocks and of the 2x2 blocks' two
    coordinates, less mu; :class:`SpectrumHitError` where mu is on them,
    ``ValueError`` where mu is not finite."""
    if not np.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    s, a, b = model.scalars - mu, model.upper - mu, model.lower - mu
    dist = min(float(np.min(np.abs(x), initial=np.inf)) for x in (s, a, b))
    if dist < _SPECTRUM_MARGIN:
        raise SpectrumHitError(f"mu {mu} is within {dist:.3e} of the spectrum")
    return s, a, b


def resolvent_blocks(model: Model, mu: complex) -> BlockDiagonal:
    """(A - mu I)^-1 as a block-diagonal operator, blockwise closed form;
    ``ValueError`` naming mu where its corner -1/(ab) overflows."""
    mu = complex(mu)
    s, a, b = _gaps(model, mu)
    with np.errstate(over="ignore", invalid="ignore"):
        corner = -1.0 / (a * b)
    if not np.isfinite(corner).all():
        raise ValueError(f"mu {mu} is too large: the resolvent overflows")
    # 1/s in place: a freed dim-sized s left a heap hole that the weighted
    # curve's Workspace reused or not by a few bytes of layout, 2.4 MB of
    # peak RSS at dim 160000.
    return BlockDiagonal(np.divide(1.0, s, out=s), 1.0 / a, corner, 1.0 / b)


def lowest_eigenvalues(model: Model, k: int) -> np.ndarray:
    """``model.spectrum[:k]``, bitwise, a chunk at a time, so the table is
    never sorted whole: each run's eigenvalues join the k lowest so far, and
    once there are k, only those not above them in imaginary part."""
    best = np.zeros(0, dtype=complex)
    for *_, part in model.chunked():
        eigs = np.concatenate([part.scalars, part.upper, part.lower])
        if 0 < k == best.size:
            eigs = eigs[~(eigs.imag > best[-1].imag)]
        best = distinct(np.concatenate([best, eigs]))[0][:k]
    return best


def eigenvalues(model: Model) -> list:
    """Distinct eigenvalues sorted by (imag, real), with multiplicities."""
    return [Eigenvalue(value, count) for value, count in
            zip(model.spectrum.tolist(), model.multiplicity.tolist())]


def block_operator_norm(model: Model, blocks: BlockDiagonal,
                        tol: float = linalg.LANCZOS_TOL_DEFAULT) -> float:
    """Operator norm of a block-diagonal operator in the model's norm.

    At order 0 (the Euclidean norm) it is the supremum of block norms; at
    higher orders :func:`linalg.operator_norm` takes the diagonal whole, and
    an operator with 2x2 blocks raises ``ValueError``.
    """
    if model.norm_order == 0:
        return blocks.sup_singular_value()
    return linalg.operator_norm(_diagonal(model, blocks), model.norm_order,
                                tol=tol)


def _diagonal(model: Model, blocks: BlockDiagonal) -> np.ndarray:
    # The entries of a diagonal operator, which the weighted norms take.
    if blocks.upper.size:
        raise ValueError(f"the order-{model.norm_order} norm takes a diagonal "
                         f"operator, got {blocks.upper.size} 2x2 blocks")
    return blocks.scalars


def norm_curve(model: Model, ts: np.ndarray, x: BlockDiagonal, tol: float,
               semi: np.ndarray | None = None) -> tuple:
    """The curves t -> ||T(t)|| and t -> ||T(t) X|| in the model's norm, as
    the pair ``(semi, prod)``; ``semi``, when given, is taken as the first.

    At order 0 only, the model may be a part (:meth:`Model.take`), X 0 off
    it; ||T(t)|| comes from the block moduli (:func:`semigroup_norm`) and
    bounds :func:`_certified_curve`, so no whole T(t) is formed.  A weighted
    model must be the whole truncation, X diagonal (``ValueError`` for 2x2
    blocks), with one :class:`linalg.Workspace` per curve: at each grid time
    T(t) is written into its ``diag`` (:func:`evolve_blocks`), its norm taken
    unless ``semi`` is given, X multiplied in in place, and the norm of
    T(t) X taken, so no dim-sized array is allocated per grid time."""
    if model.norm_order == 0:
        if semi is None:
            semi = np.array([semigroup_norm(model, float(t)) for t in ts])
        return semi, _certified_curve(model, x, ts, semi)
    x = _diagonal(model, x)
    work = linalg.Workspace(model.dim)
    m, x = work.diag, x.reshape(work.diag.shape, order="F")
    sample = semi is None
    if sample:
        semi = np.empty(ts.size)
    prod = np.empty(ts.size)
    for i, t in enumerate(ts.tolist()):
        evolve_blocks(model, t, out=m)
        if sample:
            semi[i] = linalg.operator_norm(work, model.norm_order, tol)
        # T(t) first, as in BlockDiagonal.__matmul__.
        np.multiply(m, x, out=m)
        prod[i] = linalg.operator_norm(work, model.norm_order, tol)
    return semi, prod


def _certified_curve(model: Model, factor: BlockDiagonal, ts: np.ndarray,
                     bound: np.ndarray) -> np.ndarray:
    """t -> ||T(t) X|| in the Euclidean norm, from ``bound`` = ||T(t)||.

    Block k of T(t) X has norm at most ||T(t)|| ||X_k||, which :func:`_prune`
    selects by; T(t) X is evaluated from the sliced table on the selected
    blocks alone, bitwise the supremum of the whole product's block norms.
    """
    def norm_on(index, t):
        semi = evolve_blocks(model.take(index), t)
        return (semi @ factor.take(index)).sup_singular_value()

    norms = factor.block_norms()
    return np.array([_prune((norms * top) ** 2, lambda k: norm_on(k, t))
                     for t, top in zip(ts.tolist(), bound.tolist())])


def truncation(family: Family, t_max: float, order: int = 1,
               max_index: int | None = None, max_dim: int | None = None) -> int:
    """The one adequacy rule and gate: the max_index to build out to time
    t_max, the minimal adequate one (an order-N weighted norm needs dim >=
    N + 1) if ``max_index`` is None, else ``max_index`` once checked.  Raises
    :class:`TruncationInadequateError`, the minimal one as ``required``, if
    ``max_index`` is below it or the dim exceeds ``max_dim``."""
    def g(n):  # .6g, also for an int past the range of a float
        from decimal import Decimal  # here, not at import: 0.4 MB of RSS
        return f"{n:.6g}" if n < 1e300 else f"{Decimal(n):.6g}"

    row = FAMILIES[family]
    per_time, offset = row.truncation
    if not 0 <= per_time * t_max < math.inf:
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    need = max(math.ceil(per_time * t_max) + offset, 2)
    if row.weighted:
        d2, d3 = model_dim(family, 2), model_dim(family, 3)
        need = max(need, 2 - (d2 - order - 1) // (d3 - d2))
    chosen = need if max_index is None else max_index
    if chosen < need:
        raise TruncationInadequateError(
            f"{family.value} at max_index {g(chosen)} is inadequate for t_max "
            f"{t_max} at order {order}; need max_index >= {g(need)}, need dim "
            f">= {g(model_dim(family, need))}", required=need)
    dim = model_dim(family, chosen)
    if max_dim is not None and dim > max_dim:
        raise TruncationInadequateError(
            f"{family.value} at max_index {g(chosen)} needs dim {g(dim)} > cap "
            f"{max_dim} (minimal adequate max_index {g(need)})", required=need)
    return chosen


def check_truncation(model: Model, t_max: float) -> None:
    """Hard adequacy gate for a built model (:func:`truncation`)."""
    truncation(model.spec.family, t_max, model.spec.order, model.spec.max_index)
