"""Independent references for the kernels the tests hold to account.

``semistab.linalg`` applies the difference transform D and its inverse L
matrix-free and estimates the operator norm of a diagonal multiplier by
Lanczos on the Gram operator.  These helpers build D and L as dense matrices
(the identity at order 0) and take norms by a full SVD, so the tests can
hold the kernel against an independent computation; :func:`dense` writes
out a :class:`BlockDiagonal`.  Dense, so keep the dimensions moderate.

``semistab.spectral`` evaluates the trapezoid rule of a contour as a closed
rational filter.  Two references stand behind it: the rule summed node by
node over resolvents, with an a-priori bound on its rounding error, and the
filter evaluated exactly in rational arithmetic on the float inputs.

``semistab.models.evolve_blocks`` takes three transcendental calls per
block, and ``BlockDiagonal.sup_singular_value`` evaluates only the blocks
that can attain the supremum; the four-call form and the every-block formula
are kept here.  ``semistab.models.norm_curve`` evaluates a Euclidean
curve t -> ||T(t) X|| only on the blocks that ||T(t)|| cannot rule out;
:func:`whole_norm_curve` takes the product on every block, and the two
agree bitwise.  A projection's commutation defect is read off the
generator; :func:`commutation_probe` takes the commutator with the whole
semigroup at one time.  ``semistab.spectral`` holds a projection on its
support only; :func:`whole_projection` scatters it onto the full dimension.

The generator and the closed-form projections (each eigenvalue's blockwise
indicator) are written out from the spectral table, as the references for
the resolvent and for the quadrature.

``semistab.asymptotics.hardy_sums`` checks a batch of sequences by segmented
reductions over their concatenation, and ``run_hardy`` feeds it a batch of
draws at a time; :func:`hardy_one` takes the two Hardy sums of one sequence
by whole-array sums, and :func:`hardy_run` checks ``run_hardy``'s draws one
case at a time.  :func:`hardy_extremal` is the exact worst ratio at a length,
from a dense generalized eigenproblem.

``semistab.linalg.operator_norm`` on ``LOG_SPECTRUM``'s multiplier
``n^{it}`` is a truncation of an operator whose Mellin symbol is known;
:func:`mellin_sup` is the supremum of that symbol's modulus.
"""

import math
from fractions import Fraction

import numpy as np

from semistab import models, spectral
from semistab.models import BlockDiagonal


def _check_range(order: int, dim: int) -> None:
    """The kernel's parameter checks: order >= 0 and dim >= order + 1."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if dim <= order:
        raise ValueError(f"dim must be >= order + 1, got dim={dim}, order={order}")


def difference_matrix(order: int, dim: int) -> np.ndarray:
    """Dense matrix of the order-N backward difference on C^dim.

    Row n carries the alternating binomial band: entry (n, n - j) equals
    (-1)^j C(N, j) for 0 <= j <= min(n, N).  Entries that would reach before
    the sequence start are dropped, which encodes the zero-prefix convention.
    """
    _check_range(order, dim)
    out = np.zeros((dim, dim), dtype=complex)
    for j in range(order + 1):
        idx = np.arange(j, dim)
        out[idx, idx - j] = (-1) ** j * math.comb(order, j)
    return out


def cumulative_matrix(order: int, dim: int) -> np.ndarray:
    """Inverse of :func:`difference_matrix`: lower-triangular binomial sums.

    Entry (n, k) for k <= n equals C(n - k + N - 1, N - 1); for N = 1 this is
    the all-ones partial-sum operator; for N = 0 it is the identity.
    """
    _check_range(order, dim)
    if order == 0:
        return np.eye(dim, dtype=complex)
    out = np.zeros((dim, dim), dtype=complex)
    for off in range(dim):
        rows = np.arange(off, dim)
        out[rows, rows - off] = math.comb(off + order - 1, order - 1)
    return out


def weighted_vector_norm(order: int, vec) -> float:
    """Order-N weighted norm of ``vec``, through the dense D."""
    v = np.asarray(vec, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return float(np.linalg.norm(difference_matrix(order, v.size) @ v))


def dense(op: BlockDiagonal) -> np.ndarray:
    """A :class:`BlockDiagonal` as a dense matrix, the scalars first."""
    dim = op.scalars.size + 2 * op.upper.size
    out = np.zeros((dim, dim), dtype=complex)
    diag = np.arange(op.scalars.size)
    out[diag, diag] = op.scalars
    first = op.scalars.size + 2 * np.arange(op.upper.size)
    out[first, first] = op.upper
    out[first, first + 1] = op.corner
    out[first + 1, first + 1] = op.lower
    return out


def dense_operator_norm(mat, order: int) -> float:
    """Largest singular value of ``D @ mat @ L`` by a full SVD, D and L the
    order-N transforms on the dimension of the square ``mat``."""
    mat = np.asarray(mat, dtype=complex)
    g = (difference_matrix(order, mat.shape[0]) @ mat
         @ cumulative_matrix(order, mat.shape[0]))
    return float(np.linalg.svd(g, compute_uv=False)[0])


def trapezoid_node_sum(model, contour):
    """The trapezoid sum of (1 / 2 pi i) times the contour integral of
    (mu I - A)^-1, one resolvent per node, and a bound on its rounding error.

    Returns ``(sum, bound)``, two :class:`BlockDiagonal`; ``bound`` holds,
    entry by entry, eps times the sum over nodes of |term| (N + 4 + 2 kappa),
    where kappa = |mu| / |lam - mu| summed over the eigenvalues the term
    divides by: forming mu and lam - mu costs kappa ulps, and the sum N.
    """
    nodes = contour.nodes
    weights = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    scale = contour.radius / nodes
    sizes = (model.scalars.size,) + (model.mid.size,) * 3
    total = [np.zeros(n, dtype=complex) for n in sizes]
    bound = [np.zeros(n) for n in sizes]
    for w in weights:
        mu = contour.center + contour.radius * w
        # (mu I - A)^-1 = -(A - mu I)^-1, hence the minus sign.
        terms = -(scale * w) * models.resolvent_blocks(model, mu)
        s, a, b = (np.abs(x - mu) for x in (model.scalars, model.upper,
                                             model.lower))
        kappas = (abs(mu) / s, abs(mu) / a, abs(mu) / a + abs(mu) / b,
                  abs(mu) / b)
        parts = (terms.scalars, terms.upper, terms.corner, terms.lower)
        for acc, err, part, kappa in zip(total, bound, parts, kappas):
            acc += part
            err += np.abs(part) * (nodes + 4 + 2 * kappa)
    eps = np.finfo(float).eps
    return BlockDiagonal(*total), BlockDiagonal(*(eps * x for x in bound))


def _gaussian(z, shift: int) -> tuple:
    """2^shift z as a Gaussian integer (exact for dyadic z)."""
    parts = (Fraction(z.real) * 2 ** shift, Fraction(z.imag) * 2 ** shift)
    assert all(p.denominator == 1 for p in parts)
    return tuple(p.numerator for p in parts)


def _mul(x, y):
    # Three integer products instead of four.
    k1 = y[0] * (x[0] + x[1])
    return (k1 - x[1] * (y[0] + y[1]), k1 + x[0] * (y[1] - y[0]))


def _sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _power(x, n):
    out, base = None, x
    while True:
        if n & 1:
            out = base if out is None else _mul(out, base)
        n >>= 1
        if not n:
            return (1, 0) if out is None else out
        # Squaring takes two integer products.
        base = ((base[0] + base[1]) * (base[0] - base[1]), 2 * base[0] * base[1])


def trapezoid_exact(scalars, upper, lower, contour, nodes=None) -> BlockDiagonal:
    """The N-node trapezoid sum for the given table entries, exactly.

    The sum is the filter h(z) = 1 / (1 - z^N), z = (lam - c) / r, on each
    eigenvalue and the divided difference h[z_a, z_b] / r on each corner
    (h'(z_a) / r where z_a = z_b).  Every float input is a dyadic rational
    (its ``Fraction``), so all of it is scaled by one power of two to
    Gaussian integers and evaluated without rounding; each entry is an exact
    ratio of integers, rounded once at the end (int / int rounds correctly).
    """
    nodes = contour.nodes if nodes is None else nodes
    values = {complex(v) for v in np.concatenate([scalars, upper, lower])}
    floats = [contour.radius, contour.center.real, contour.center.imag]
    floats += [x for v in values for x in (v.real, v.imag)]
    shift = max(Fraction(x).denominator.bit_length() - 1 for x in floats)
    center = _gaussian(contour.center, shift)
    # With z = a / rad, rad real: h(z) = rad^N / m, m = rad^N - a^N.  Each
    # value keeps a, a^(N-1), a^N, conj(m) and |m|^2.
    rad_n = _gaussian(complex(contour.radius), shift)[0] ** nodes
    terms = {}
    for v in values:
        a = _sub(_gaussian(v, shift), center)
        below = _power(a, nodes - 1)
        power = _mul(below, a)
        conj = (rad_n - power[0], power[1])
        terms[v] = a, below, power, conj, conj[0] ** 2 + conj[1] ** 2

    def h(v):
        *_, conj, norm = terms[complex(v)]
        return complex(rad_n * conj[0] / norm, rad_n * conj[1] / norm)

    def corner(u, w):
        # 2^shift rad^N Q / (m_u m_w), Q the divided difference of a^N over
        # the two values: sum of a_u^j a_w^(N-1-j), or N a_u^(N-1) if equal.
        a_u, below, p_u, conj_u, norm_u = terms[complex(u)]
        a_w, _, p_w, conj_w, norm_w = terms[complex(w)]
        if a_u == a_w:
            q = (nodes * below[0], nodes * below[1])
        else:
            gap = _sub(a_u, a_w)
            q = _mul(_sub(p_u, p_w), (gap[0], -gap[1]))
            size = gap[0] ** 2 + gap[1] ** 2
            assert q[0] % size == 0 and q[1] % size == 0
            q = (q[0] // size, q[1] // size)
        num = _mul(q, _mul(conj_u, conj_w))
        factor = rad_n << shift
        den = norm_u * norm_w
        return complex(factor * num[0] / den, factor * num[1] / den)

    def column(f, *cols):
        return np.array([f(*v) for v in zip(*cols)], dtype=complex)

    return BlockDiagonal(column(h, scalars), column(h, upper),
                         column(corner, upper, lower), column(h, lower))


def block_norms(op) -> np.ndarray:
    """|s| for each 1x1 block, then each 2x2 block's norm by the exact
    formula of ``BlockDiagonal.sup_singular_value``."""
    u, c, l = np.abs(op.upper), np.abs(op.corner), np.abs(op.lower)
    blocks = (np.hypot(u + l, c) + np.hypot(u - l, c)) / 2.0
    return np.concatenate([np.abs(op.scalars), blocks])


def sup_block_norm_unpruned(op) -> float:
    """The supremum of block norms, with the exact formula on every block."""
    return float(np.max(block_norms(op), initial=0.0))


def semigroup_moduli(model, t: float) -> BlockDiagonal:
    """The moduli of the blocks of T(t) on the whole table, by the one real
    expression for every block: exp(t Re s), and with carrier
    exp(t Re mid) and x = t Re d, carrier e^x, carrier hypot(sinh x,
    sin(t Im d)) / |d| (carrier t where |d| is below tiny), carrier e^-x."""
    d = model.half_gap
    size = np.abs(d)
    normal = size >= np.finfo(float).tiny
    with np.errstate(all="ignore"):
        carrier = np.exp(t * model.mid.real)
        x = t * d.real
        grow = np.exp(x)
        corner = np.where(normal, np.hypot(np.sinh(x), np.sin(t * d.imag))
                          / np.where(normal, size, 1.0), t)
        return BlockDiagonal(np.exp(t * model.scalars.real), carrier * grow,
                             corner * carrier, carrier / grow)


def evolve_four_calls(model, t: float) -> BlockDiagonal:
    """The semigroup from three complex exp calls and one sinh per block:
    exp(t mid) [[exp(t d), sinh(t d) / d], [0, exp(-t d)]], t where d = 0."""
    d = model.half_gap
    td = t * d
    jordan = d == 0
    carrier = np.exp(t * model.mid)
    corner = np.where(jordan, t, np.sinh(td) / np.where(jordan, 1.0, d))
    return BlockDiagonal(np.exp(t * model.scalars), carrier * np.exp(td),
                         carrier * corner, carrier * np.exp(-td))


def whole_norm_curve(model, ts, factor) -> np.ndarray:
    """t -> ||T(t) factor|| in the Euclidean norm, the product taken on
    every block and its norm by the every-block formula."""
    return np.array([sup_block_norm_unpruned(
        models.evolve_blocks(model, float(t)) @ factor) for t in ts])


def commutation_probe(model, blocks, t: float) -> float:
    """||T(t) P - P T(t)|| in the Euclidean norm, from the whole semigroup
    at time t and two whole products."""
    semi = models.evolve_blocks(model, t)
    return (semi @ blocks - blocks @ semi).sup_singular_value()


def generator_blocks(model) -> BlockDiagonal:
    """The generator as a block-diagonal operator (1 on the superdiagonal)."""
    return BlockDiagonal(model.scalars.copy(), model.upper,
                         np.ones(model.mid.size, dtype=complex), model.lower)


def closed_blocks(model, center: complex, radius: float) -> BlockDiagonal:
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


def riesz_projection_closed(model, eigenvalue_index: int):
    """Exact blockwise projection onto one eigenvalue, with the diagnostics
    of a quadrature report.

    The index counts the distinct eigenvalues in the order of
    ``models.eigenvalues``.  Blocks not containing the eigenvalue
    contribute zero.
    """
    count = model.spectrum.size
    if not 0 <= eigenvalue_index < count:
        raise IndexError(
            f"eigenvalue index {eigenvalue_index} out of range (0..{count - 1})")
    lam = complex(model.spectrum[eigenvalue_index])
    return held_report(model, closed_blocks(model, lam, spectral._SAME_VALUE),
                       every_block(model), (lam,), 0.0)


def contour_projection_closed(model, contour):
    """Closed-form projection for everything enclosed by the circle."""
    enclosed = spectral._scan(model, contour)[3]
    blocks = closed_blocks(model, contour.center, contour.radius)
    return held_report(model, blocks, every_block(model), enclosed, 0.0)


def full_support_projection(model, contour):
    """The quadrature's projection held on its whole support, not on rings:
    ``_scan``'s index, both trapezoid sums on that slice of the table, and
    the report of the N-node sum with the drift between them."""
    index, _, _, enclosed, _ = spectral._scan(model, contour)
    part = model.take(index)
    p, p2 = spectral._quadrature_sum(part, contour)
    return held_report(part, p, index, enclosed, (p - p2).sup_singular_value())


def held_report(part, support, index, enclosed, drift: float):
    """The report of P held as ``support`` on the blocks ``index``, the
    blocks of ``part``, and 0 elsewhere: its defects and rank as a
    quadrature reads them (``spectral._defects``, ``spectral._rank``)."""
    idem, comm, trace = spectral._defects(part, support)
    return spectral.ProjectionReport(support, index, idem, comm,
                                     spectral._rank(trace), tuple(enclosed),
                                     float(drift))


def every_block(model) -> np.ndarray:
    """The index of all blocks, for an operator held on the full dimension."""
    return np.arange(model.scalars.size + model.mid.size)


def blocks_on(op, index) -> BlockDiagonal:
    """The operator ``op`` on the blocks ``index`` (ascending, 1x1 first)
    only."""
    split = np.searchsorted(index, op.scalars.size)
    scalars, blocks = index[:split], index[split:] - op.scalars.size
    return BlockDiagonal(op.scalars[scalars], op.upper[blocks],
                         op.corner[blocks], op.lower[blocks])


def whole_projection(model, report) -> BlockDiagonal:
    """The projection of ``report`` on the full dimension of ``model``: its
    support on the blocks ``report.index``, zeros elsewhere."""
    count, p, index = model.scalars.size, report.support, report.index
    split = np.searchsorted(index, count)
    scalars = np.zeros(count, dtype=complex)
    scalars[index[:split]] = p.scalars
    rows = np.zeros((3, model.mid.size), dtype=complex)
    rows[:, index[split:] - count] = p.upper, p.corner, p.lower
    return BlockDiagonal(scalars, *rows)


def hardy_one(seq) -> tuple:
    """(lhs, rhs, ratio) of the discrete Hardy inequality for one sequence,
    both sums taken by ``np.sum`` on c / max |c|; zeros for the zero
    sequence.  Moduli above the largest float overflow here."""
    c = np.asarray(seq, dtype=complex).ravel()
    scale = float(np.max(np.abs(c), initial=0.0))
    if scale == 0.0:
        return 0.0, 0.0, 0.0
    c = (c.view(float) / scale).view(complex)
    n = np.arange(1, c.size + 1, dtype=float)
    lhs = float(np.sum(np.abs(c) ** 2 / n ** 2))
    rhs = float(np.sum(np.abs(np.diff(c, prepend=0.0, append=0.0)) ** 2))
    return lhs, rhs, lhs / (4.0 * rhs)


def hardy_run(cases: int, max_len: int, seed: int) -> tuple:
    """``run_hardy``'s draws checked one case at a time by :func:`hardy_one`:
    (worst ratio, its case, its sequence), the first maximum kept."""
    rng = np.random.default_rng(seed)
    worst = (-1.0, -1, None)
    for case in range(cases):
        length = int(rng.integers(2, max_len + 1))
        seq = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        ratio = hardy_one(seq)[2]
        if ratio > worst[0]:
            worst = (ratio, case, seq)
    return worst


def hardy_extremal(length: int) -> tuple:
    """(ratio, vector): the top eigenpair of ``diag(1/n^2)`` against 4 times
    the Dirichlet difference form ``tridiag(-1, 2, -1)`` on C^length, the
    largest ratio ``hardy_check`` can return at that length.  By Cholesky,
    4 B = C C^T, and ``eigh`` of the symmetric C^-1 A C^-T."""
    n = np.arange(1.0, length + 1.0)
    form = 4.0 * (2.0 * np.eye(length) - np.eye(length, k=1)
                  - np.eye(length, k=-1))
    chol = np.linalg.cholesky(form)
    inv = np.linalg.inv(chol)
    values, vectors = np.linalg.eigh((inv / n ** 2) @ inv.T)
    return float(values[-1]), inv.T @ vectors[:, -1]


def _mellin_log_modulus(order: int, t: float, xi: np.ndarray) -> np.ndarray:
    # log |sigma_N(xi, t)|, one factor (k - 1/2 + i(xi + t)) / (k - 1/2 + i xi)
    # per k; hypot keeps each modulus exact to rounding at large xi.
    k = np.arange(1, order + 1)[:, None] - 0.5
    return np.sum(np.log(np.hypot(k, xi + t)) - np.log(np.hypot(k, xi)),
                  axis=0)


def mellin_sup(order: int, t: float) -> float:
    """sup over real xi of |prod_{k=1..N} (k - 1/2 + i(xi + t)) /
    (k - 1/2 + i xi)|, the modulus of the Mellin symbol of multiplication by
    s^{it} in the order-N derivative norm.  A dense xi grid, dense near 0
    and out to 1e4 (N + t), then ten rounds of a finer grid around the best
    point; the modulus tends to 1 as |xi| grows."""
    reach = math.asinh(1e4 * (order + t))
    xi = np.sinh(np.linspace(-reach, reach, 200001))
    for _ in range(10):
        best = int(np.argmax(_mellin_log_modulus(order, t, xi)))
        lo, hi = xi[max(best - 1, 0)], xi[min(best + 1, xi.size - 1)]
        xi = np.linspace(lo, hi, 201)
    return float(np.exp(np.max(_mellin_log_modulus(order, t, xi))))
