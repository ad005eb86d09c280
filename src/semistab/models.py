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
the one rule for which runs and blocks it evaluates.  A Euclidean curve
t -> ||T(t) X|| is taken for the whole grid at once, in batches of (grid
time, block) pairs, :func:`evolve_blocks` taking a time per block; each
pair gets the elementwise operations, in the order, of the whole T(t) X at
its time, so the curve is the whole evaluation's to the bit
(:func:`_certified_curve`).
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

#: Items per call of a pruned supremum's evaluation (:func:`_prune`), such as
#: (grid time, block) pairs of T(t) X: each holds complex temporaries where a
#: run of :data:`CHUNK` blocks' moduli holds real ones, so a quarter of it.
BATCH = CHUNK // 4

#: A value is ruled out once its bound is below this multiple of a value
#: attained: the margin for rounding of :func:`_prune`, and of the rule by
#: which :mod:`spectral` stops summing a projection's rings.
MARGIN = 1.0 - 1e-12


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
    order is not below the dim.  ``mu`` is checked against the table in the
    runs of :meth:`Model.chunked`, and the sorted spectrum is not formed.
    """
    row = FAMILIES[spec.family]
    order = spec.order if row.weighted else 0
    model = Model(spec, order, *row.table(spec.max_index))
    mu = spec.mu_default
    _off_spectrum(mu, (eigs - mu for *_, part in model.chunked()
                       for eigs in (part.scalars, part.upper, part.lower)))
    if model.dim <= order:
        raise ValueError(f"order {order} needs dim >= {order + 1}, got {model.dim}")
    return model


def _pair_norms(u: np.ndarray, c: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Largest singular values of the blocks [[u, c], [0, l]], u, c, l >= 0."""
    return (np.hypot(u + l, c) + np.hypot(u - l, c)) / 2.0


def _prune(bound: np.ndarray, norms_of: Callable, scale: np.ndarray | None = None
           ) -> np.ndarray:
    """The supremum of a set of norms, from the items that can attain it;
    with ``scale``, that of one set per entry of ``scale``, over the same
    items: an array of one supremum per set.

    The squared norm of item k is at most ``bound[k]``, or in set i with
    ``scale``, (bound[k] scale[i])^2.  ``norms_of(sets, items)`` takes index
    arrays of equal length and returns the pairs ``(sets, norms)`` of those
    items, in any order, NaN where a norm is.  In each set it evaluates the
    item of largest ``bound`` (the first), of norm v, then every other item
    whose bound is not below :data:`MARGIN` v^2, each once; no item left out
    can exceed v.  Each step takes every set at once, the first in one call
    of ``norms_of`` and the second in calls of at most :data:`BATCH` items,
    and a set's supremum is the maximum over its pairs.  A NaN is kept, and
    every item of a set is evaluated where its top bound is NaN, infinite
    or not normal, or where v^2 < tiny.

    With ``scale`` the bound is rank one: a larger ``bound[k]`` is no
    smaller a bound in any set, so the items any set keeps are those of
    ``bound`` at least a least value, and only those are compared set by
    set.  The least value starts at the smallest root of a set's threshold
    over its scale, and is lowered to the next value of ``bound`` below it
    for as long as some set keeps that value.

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
    count = 1 if scale is None else scale.size
    sups = np.zeros(count)
    if not bound.size:
        return sups
    at = int(np.argmax(bound))  # the first NaN, if there is one
    with np.errstate(over="ignore", invalid="ignore"):  # inf, 0 * inf
        top = bound[at:at + 1] if scale is None else (bound[at] * scale) ** 2
    normal = (_TINY <= top) & (top < np.inf)
    tops = np.flatnonzero(normal)
    if tops.size:
        sets, norms = norms_of(tops, np.full(tops.size, at))
        sups[sets] = norms
    with np.errstate(over="ignore"):
        floor = np.where(sups * sups >= _TINY, MARGIN * sups * sups,
                         -np.inf)
    if scale is None:
        keep = ~(bound < floor[0])
        keep[at] &= not normal[0]
        items = np.flatnonzero(keep)
        sets = np.zeros_like(items)
    else:
        # Rank one: the items a set with a floor keeps are those of ``bound``
        # at least ``least``, and only they are compared with its floor; a
        # set without one keeps every item.
        every, ruled = np.arange(count), floor > -np.inf
        rows, floor, scale = every[ruled], floor[ruled], scale[ruled]
        least = np.min(np.sqrt(floor) / scale, initial=np.inf)
        with np.errstate(over="ignore"):
            while True:
                below = np.max(bound, where=bound < least, initial=-np.inf)
                if below == -np.inf or np.all((below * scale) ** 2 < floor):
                    break
                least = below
            candidates = np.flatnonzero(bound >= least)
            row, column = np.nonzero((bound[candidates] * scale[:, None]) ** 2
                                     >= floor[:, None])
        sets = np.concatenate([rows[row], np.repeat(every[~ruled], bound.size)])
        items = np.concatenate([candidates[column], np.tile(
            np.arange(bound.size), count - rows.size)])
        rest = ~((items == at) & normal[sets])
        sets, items = sets[rest], items[rest]
    for lo in range(0, items.size, BATCH):
        batch = norms_of(sets[lo:lo + BATCH], items[lo:lo + BATCH])
        with np.errstate(invalid="ignore"):  # a NaN norm
            np.maximum.at(sups, *batch)
    return sups


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
    pairs = _prune(frob, lambda sets, k: (sets, _pair_norms(u[k], c[k], l[k])))
    return float(np.maximum(np.max(s, initial=0.0), pairs[0]))


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


def evolve_blocks(model: Model, t, work=None) -> BlockDiagonal:
    """The semigroup at time t as a block-diagonal operator; ``t`` is one
    time, or an array of one time per block of ``model`` (1x1 blocks
    first), each block then taken at its own time.  With ``work``, a
    :class:`linalg.Workspace` with as many entries as there are 1x1 blocks
    (the weighted norms), the 1x1 blocks exp(t s) are written into its
    ``diag``, and it is ``scalars``.  ``ValueError`` names the first time
    that is negative or not finite.

    Each 2x2 block is exp(t mid) [[exp(t d), sinh(t d) / d], [0, exp(-t d)]]
    (t in place of sinh(t d) / d where d is 0 or subnormal), from three
    transcendental calls: with C = exp(t mid), G = exp(t d) and
    E = expm1(t d), the block is C [[G, E (2 + E) / (2 G d)], [0, 1 / G]].
    The carrier C keeps the corner free of the cancellation between exp(ta)
    and exp(tb) at nearby eigenvalues a, b, and expm1 keeps it accurate at
    small t d; G is not formed as 1 + E, which cancels where Re(t d) << 0.
    Every operation is elementwise, so a block's entries are the same to
    the bit whether it is taken at one time with the whole table or at its
    own time among other blocks.
    """
    times = np.ravel(t)
    bad = ~((times >= 0) & (times < math.inf))
    if bad.any():
        raise ValueError(f"t must be >= 0 and finite, got {times[np.argmax(bad)]}")
    count, blocks = model.scalars.size, model.scalars.size + model.mid.size
    if np.ndim(t) == 0:
        t_ones = t
    elif np.shape(t) == (blocks,):
        t_ones, t = t[:count], t[count:]
    else:
        raise ValueError(f"t has shape {np.shape(t)} for {blocks} blocks")
    d = model.half_gap
    carrier = np.exp(t * model.mid)
    gain = np.expm1(t * d)
    grow = np.exp(t * d)
    # np.multiply, not a * (b + c): from 16384 complex entries on numpy
    # evaluates that as (b + c) *= a, which rounds differently, so a block
    # would depend on the length of the table.
    corner = np.divide(np.multiply(gain, 2.0 + gain),
                       np.multiply(2.0 * d, grow),
                       out=np.broadcast_to(t, d.shape).astype(complex),
                       where=np.abs(d) >= _TINY)
    corner = corner * carrier
    scalars, out = ((model.scalars, None) if work is None
                    else (work.laid_out(model.scalars), work.diag))
    return BlockDiagonal(np.exp(np.multiply(t_ones, scalars, out=out), out=out),
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
    norm = _prune(_chunk_bounds(summary, t), lambda sets, index: (sets, np.array([
        _sup_norm(*_moduli(model, *runs[k], t, summary["imaginary"][k]))
        for k in index.tolist()])))[0].item()
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


def _off_spectrum(mu: complex, gaps) -> None:
    """``ValueError`` where mu is not finite, else :class:`SpectrumHitError`
    where it lies on the spectrum: ``gaps`` yields the eigenvalues less mu,
    as arrays, and is read only once mu is known finite, a run of
    :data:`CHUNK` at a time, so that no distance array is dim-sized."""
    if not np.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    dist = min((float(np.min(np.abs(x[lo:lo + CHUNK]), initial=np.inf))
                for x in gaps for lo in range(0, x.size, CHUNK)),
               default=np.inf)
    if dist < _SPECTRUM_MARGIN:
        raise SpectrumHitError(f"mu {mu} is within {dist:.3e} of the spectrum")


def resolvent_blocks(model: Model, mu: complex) -> BlockDiagonal:
    """(A - mu I)^-1 as a block-diagonal operator, blockwise closed form;
    ``ValueError`` naming mu where its corner -1/(ab) overflows."""
    mu = complex(mu)
    s, a, b = model.scalars - mu, model.upper - mu, model.lower - mu
    _off_spectrum(mu, (s, a, b))
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
    m, x = work.diag, work.laid_out(x)
    sample = semi is None
    if sample:
        semi = np.empty(ts.size)
    prod = np.empty(ts.size)
    for i, t in enumerate(ts.tolist()):
        evolve_blocks(model, t, work=work)
        if sample:
            semi[i] = linalg.operator_norm(work, model.norm_order, tol)
        # T(t) first, as in BlockDiagonal.__matmul__.
        np.multiply(m, x, out=m)
        prod[i] = linalg.operator_norm(work, model.norm_order, tol)
    return semi, prod


def _certified_curve(model: Model, factor: BlockDiagonal, ts: np.ndarray,
                     bound: np.ndarray) -> np.ndarray:
    """t -> ||T(t) X|| in the Euclidean norm, from ``bound`` = ||T(t)||,
    for the whole grid at once.

    Block k of T(t) X has norm at most ||T(t)|| ||X_k||, a bound of rank one
    over the (grid time, block) pairs, by which :func:`_prune` selects
    them: the block of largest ||X_k|| at every grid time, in one batch,
    then every pair the rule keeps, in batches of at most :data:`BATCH`.  A
    batch is one :func:`evolve_blocks` call on the slice of the table its
    pairs hold, each block at its own time, one product with the slice of X
    and :meth:`BlockDiagonal.block_norms`.

    Rounding.  Each pair gets the operations, in the order, of the
    scalar-t :func:`evolve_blocks` and :meth:`BlockDiagonal.__matmul__` on
    the whole table, then the formula of
    :meth:`BlockDiagonal.sup_singular_value`.  All are elementwise, and
    none is an in-place product, which numpy would round by the length of
    the batch.  So a pair's norm is its block's in the whole T(t) X to the
    bit, the maximum over a grid time's pairs is exact, and the curve is
    the supremum of the whole product's block norms, bitwise.
    """
    count = model.scalars.size

    def norms_of(sets, items):
        one = items < count
        ones, twos = items[one], items[~one] - count
        part = replace(model, scalars=model.scalars[ones], mid=model.mid[twos],
                       half_gap=model.half_gap[twos])
        x = BlockDiagonal(factor.scalars[ones], factor.upper[twos],
                          factor.corner[twos], factor.lower[twos])
        sets = np.concatenate([sets[one], sets[~one]])
        return sets, (evolve_blocks(part, ts[sets]) @ x).block_norms()

    return _prune(factor.block_norms(), norms_of, scale=bound)


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
