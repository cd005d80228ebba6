"""Dense numerical kernel for small square matrices.

Everything downstream (witness search, certificates, stability scans) reduces
to a handful of primitives on d x d arrays: the largest and smallest singular
values, the spectral radius, and products of long matrix words tracked in
log scale so that growth like 2**(+-40) never overflows.  Matrices are plain
float64 numpy arrays; all norms are Euclidean (spectral norm for operators).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NonConvergenceError, _require, require_int

# Absolute tolerance for scalar threshold comparisons throughout the package.
ABS_TOL = 1e-12

# A matrix counts as singular when co_norm falls below this multiple of op_norm.
SINGULARITY_RTOL = 1e-12

# Band for the 2x2 closed forms' quadratic scale: the Gram trace g11 + g22
# for singular values, tr^2 + |det| for the spectral radius.  Inside it no
# squared intermediate overflows or loses accuracy to underflow; outside it
# LAPACK decides.
_CLOSED_LO = 2.0 ** -480
_CLOSED_HI = 2.0 ** 480

# Renormalization band for the largest |entry| of a LogScaledMatrix unit.
_BAND_LO = 0.5
_BAND_HI = 2.0


def as_matrix(a) -> np.ndarray:
    """Validate and coerce ``a`` to a finite square float64 array."""
    try:
        arr = np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"cannot interpret input as a matrix: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise InvalidInputError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError("matrix entries must be finite")
    return arr


def _singular_extremes(a: np.ndarray) -> tuple[float, float]:
    """Largest and smallest singular values of a validated square array.

    The 2x2 case is closed-form: the Gram matrix A^T A has eigenvalue
    lam_max = (t + sqrt((g11-g22)^2 + 4 g12^2)) / 2 with t = trace, computed
    without cancellation, and sigma_min = |det A| / sigma_max, which avoids
    subtracting nearly equal Gram eigenvalues.  A finite 2x2 whose Gram
    trace t leaves the closed forms' band goes to the SVD.
    """
    d = a.shape[0]
    if d == 1:
        v = abs(float(a[0, 0]))
        return v, v
    if d == 2:
        (a00, a01), (a10, a11) = a.tolist()
        t, smax, det = _closed_sigma(a00, a01, a10, a11, math.sqrt)
        if _CLOSED_LO <= t <= _CLOSED_HI:
            return smax, min(det / smax, smax)
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[0]), float(s[-1])


def _closed_sigma(a00, a01, a10, a11, sqrt):
    """(Gram trace t, sigma_max, |det|) of [[a00, a01], [a10, a11]] by the
    closed form, on floats or elementwise on arrays in one operation order;
    exact only while t lies in the band."""
    g11 = a00 * a00 + a10 * a10
    g22 = a01 * a01 + a11 * a11
    t = g11 + g22
    g12 = a00 * a01 + a10 * a11
    diff = g11 - g22
    disc = sqrt(diff * diff + 4.0 * g12 * g12)
    return t, sqrt((t + disc) / 2.0), abs(a00 * a11 - a01 * a10)


def op_norm(a) -> float:
    """Largest singular value: sqrt of the top eigenvalue of A^T A.

    This is the maximum of |A x| over unit vectors x, so it is the tightest
    uniform growth factor of the linear map.
    """
    return _singular_extremes(as_matrix(a))[0]


def co_norm(a) -> float:
    """Smallest singular value: the minimum of |A x| over unit vectors x.

    Zero exactly when A is singular.  For nonsingular A it equals
    1 / op_norm(A^{-1}), which makes it the tightest uniform expansion
    factor from below.
    """
    return _singular_extremes(as_matrix(a))[1]


def _spectral_radius(a: np.ndarray) -> float:
    """Maximum eigenvalue modulus of a validated square array.

    d = 1 and d = 2 use exact closed forms (for d = 2 the max root modulus
    of lambda^2 - tr lambda + det is (|tr| + sqrt(max(tr^2 - 4 det, 0))) / 2
    for real spectra and sqrt(det) for complex pairs) while tr^2 + |det|
    lies in the closed forms' band.  Other matrices use LAPACK's balanced QR
    eigenvalue solver.
    """
    d = a.shape[0]
    if d == 1:
        return abs(float(a[0, 0]))
    if d == 2:
        (a00, a01), (a10, a11) = a.tolist()
        tr = a00 + a11
        det = a00 * a11 - a01 * a10
        if _CLOSED_LO <= tr * tr + abs(det) <= _CLOSED_HI:
            disc = tr * tr - 4.0 * det
            if disc >= 0.0:
                return (abs(tr) + math.sqrt(disc)) / 2.0
            # Complex conjugate pair: |lambda|^2 = det > 0.
            return math.sqrt(det)
    try:
        w = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigensolver failed: {exc}") from exc
    return float(np.max(np.abs(w)))


def spectral_radius(a) -> float:
    """Maximum eigenvalue modulus of a real d x d matrix."""
    return _spectral_radius(as_matrix(a))


@dataclass(frozen=True, eq=False)
class LogScaledMatrix:
    """A matrix stored as ``exp(log_scale) * unit``, max |entry| of unit in [0.5, 2].

    Long products stay representable: a left-multiplication that moves the
    unit's largest |entry| out of the band rescales it by an exact power of
    two into ``log_scale``, so the unit is the plain float product times 2**k,
    bit for bit, while that product stays in range.
    """

    unit: np.ndarray
    log_scale: float

    def __post_init__(self):
        unit = as_matrix(self.unit)
        _require(lambda u: _BAND_LO <= np.abs(u).max() <= _BAND_HI, unit,
                 "the unit's largest |entry| must lie in [0.5, 2]")
        log_scale = float(_require(math.isfinite, self.log_scale, "log_scale must be finite"))
        unit.setflags(write=False)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "log_scale", log_scale)

    @classmethod
    def _trusted(cls, unit: np.ndarray, log_scale: float) -> "LogScaledMatrix":
        """Wrap a finite square unit and a finite scale without checking them
        again; identity, left_multiply and walk_rows build through here."""
        self = object.__new__(cls)
        unit.setflags(write=False)
        vars(self).update(unit=unit, log_scale=log_scale)
        return self

    @classmethod
    def identity(cls, dim: int) -> "LogScaledMatrix":
        dim = require_int(dim, 1, "dimension must be at least 1")
        return cls._trusted(np.eye(dim), 0.0)

    @classmethod
    def from_matrix(cls, a) -> "LogScaledMatrix":
        arr = as_matrix(a)
        return cls.identity(arr.shape[0]).left_multiply(arr)

    @property
    def dim(self) -> int:
        return self.unit.shape[0]

    def left_multiply(self, a: np.ndarray) -> "LogScaledMatrix":
        """Return the log-scaled product ``a @ self``."""
        raw = a @ self.unit
        if len(raw) == 2:
            # Python floats read a 2x2 peak in half numpy's time.  max skips a
            # NaN past the first entry, so only an all-finite product (finite
            # sum) takes this read; anything else falls to numpy's below.
            vals = raw.ravel().tolist()
            peak = max(map(abs, vals)) if math.isfinite(sum(vals)) else float(np.abs(raw).max())
        else:
            peak = float(np.abs(raw).max())
        if _BAND_LO <= peak <= _BAND_HI:
            return self._trusted(raw, self.log_scale)
        if not 0.0 < peak < math.inf:
            raise InvalidInputError("product collapsed to the zero matrix" if peak == 0.0
                                    else "matrix entries must be finite")
        # Unlike a factor 2.0 ** -e, ldexp cannot overflow or underflow here.
        e = math.frexp(peak)[1]
        return self._trusted(np.ldexp(raw, -e), self.log_scale + e * math.log(2.0))

    # The reads below skip ``as_matrix``: every unit was validated on entry.
    # They are the only code that turns ``unit`` and ``log_scale`` into norms.

    @property
    def log_norms(self) -> tuple[float, float]:
        """(log_op_norm, log_co_norm) from one singular-value evaluation;
        the co-norm's log is -inf for a singular unit."""
        top, bottom = _singular_extremes(self.unit)
        return (self.log_scale + math.log(top),
                self.log_scale + math.log(bottom) if bottom > 0.0 else -math.inf)

    @property
    def log_op_norm(self) -> float:
        return self.log_norms[0]

    @property
    def log_co_norm(self) -> float:
        return self.log_norms[1]

    @property
    def log_spectral_radius(self) -> float:
        """Log of the product's spectral radius; -inf when the radius is 0."""
        rho = _spectral_radius(self.unit)
        return self.log_scale + math.log(rho) if rho > 0.0 else -math.inf

    def dense(self) -> np.ndarray:
        """Materialize the plain matrix; may overflow for extreme log_scale."""
        return math.exp(self.log_scale) * self.unit


def _logs(scales, values) -> np.ndarray:
    """scale + math.log(value) per row (numpy's log may differ by an ulp)."""
    return np.array([s + math.log(v) if v > 0.0 else -math.inf
                     for s, v in zip(scales.tolist(), values.tolist())])


def stacked_log_op_norms(units, scales) -> np.ndarray:
    """``LogScaledMatrix.log_op_norm`` of every row of an (N, d, d) unit stack
    with a log scale per row, bit for bit: ``_closed_sigma`` elementwise at
    d = 2, one stacked SVD, per row the SVD a single read takes, for the rows
    outside its band and every row at d >= 3."""
    n, d = units.shape[:2]
    top, lapack = np.abs(units[:, 0, 0]), np.full(n, d > 2)
    if d == 2:
        with np.errstate(all="ignore"):
            t, top, _ = _closed_sigma(*units.reshape(n, 4).T, np.sqrt)
        lapack = ~((_CLOSED_LO <= t) & (t <= _CLOSED_HI))
    if lapack.any():
        top[lapack] = np.linalg.svd(units[lapack], compute_uv=False)[:, 0]
    return _logs(scales, top)


def stacked_log_radii(units, scales) -> np.ndarray:
    """``LogScaledMatrix.log_spectral_radius`` of every row of an (N, d, d)
    unit stack with a log scale per row, bit for bit: ``_spectral_radius``'
    closed forms elementwise at d = 2, one stacked eigensolve for the rest."""
    n, d = units.shape[:2]
    rho, lapack = np.abs(units[:, 0, 0]), np.full(n, d > 2)
    if d == 2:
        a00, a01, a10, a11 = units.reshape(n, 4).T
        with np.errstate(all="ignore"):
            tr = a00 + a11
            det = a00 * a11 - a01 * a10
            disc = tr * tr - 4.0 * det
            rho = np.where(disc >= 0.0, (np.abs(tr) + np.sqrt(disc)) / 2.0, np.sqrt(det))
            band = tr * tr + np.abs(det)
        lapack = ~((_CLOSED_LO <= band) & (band <= _CLOSED_HI))
    if lapack.any():
        try:
            rho[lapack] = np.abs(np.linalg.eigvals(units[lapack])).max(axis=1)
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"eigensolver failed: {exc}") from exc
    return _logs(scales, rho)


def walk(generators, symbols, start: LogScaledMatrix | None = None):
    """Yield the running product S_{s_n} ... S_{s_1} start after each symbol.

    ``generators`` are validated d x d arrays indexed by 1-based labels and
    ``start`` defaults to the identity.  This is the one place a product is
    carried along a symbol stream; ``walk_rows`` carries many streams at once.
    """
    prod = LogScaledMatrix.identity(generators[0].shape[0]) if start is None else start
    for sym in symbols:
        prod = prod.left_multiply(generators[sym - 1])
        yield prod


def _stacked_step(generators, gens, index, units, scales, words):
    """Left-multiply row i of an (N, d, d) unit stack by gens[index[i]] and
    rescale each row by ``left_multiply``'s rule, so each is bit for bit what
    it forms.  A row that collapses or overflows replays the rows' symbols
    ``words`` through ``walk``, which raises for the first that fails."""
    units = np.take(gens, index, axis=0) @ units
    peaks = np.abs(units).max(axis=(1, 2))
    if not (peaks.min(initial=math.inf) > 0.0 and peaks.max(initial=0.0) < math.inf):
        for row in words:
            for _ in walk(generators, row):
                pass
    e = np.frexp(peaks)[1]
    # A row inside the band gets e = 0: ldexp by 0 and adding 0.0 to its
    # scale leave both bit for bit as they were.
    e[(_BAND_LO <= peaks) & (peaks <= _BAND_HI)] = 0
    return np.ldexp(units, -e[:, None, None]), scales + e * math.log(2.0)


def walk_rows(generators, draws) -> list[LogScaledMatrix]:
    """Final products S_{s_n} ... S_{s_1} of the rows of an (N, n) symbol array.

    The N running products are carried together on one (N, d, d) unit stack
    with a log scale per row, one ``_stacked_step`` per column, so every
    product is bit for bit the last one ``walk`` yields on that row, and a row
    that collapses or overflows raises what ``walk`` raises on the first
    failing row.
    """
    gens = np.stack(generators)
    units = np.broadcast_to(np.eye(gens.shape[1]), (len(draws), *gens.shape[1:])).copy()
    scales = np.zeros(len(draws))
    for column in np.transpose(draws) - 1:
        units, scales = _stacked_step(generators, gens, column, units, scales, draws)
    return [LogScaledMatrix._trusted(unit, float(scale)) for unit, scale in zip(units, scales)]


def word_tree(generators, depth: int, children=None):
    """Yield (symbols, product) for words of length 1..depth.

    Words come depth first in lexicographic order, each before its
    extensions.  A word's product is formed from its parent's with one
    ``parent.left_multiply(g)`` when the word is reached, the root's being
    the identity of the generators' dimension.  Once the consumer has
    handled a word shorter than ``depth``, the walk extends it by the
    ascending symbols ``children(symbols, product)`` returns, every symbol
    when ``children`` is None; other extensions are never multiplied.
    This is the per-word walk: ``find_witness`` runs on it, while the Lyndon
    sweep and growth curves run on the stacked ``word_chunks``.
    """
    if depth < 1:
        return
    every = range(1, len(generators) + 1)
    # One frame per word being extended: its symbols, its product and the
    # child symbols not yet tried after it.
    frames = [((), LogScaledMatrix.identity(generators[0].shape[0]), iter(every))]
    while frames:
        prefix, parent, untried = frames[-1]
        for sym in untried:
            symbols = prefix + (sym,)
            prod = parent.left_multiply(generators[sym - 1])
            yield symbols, prod
            if len(symbols) < depth:
                below = every if children is None else children(symbols, prod)
                if below:
                    frames.append((symbols, prod, iter(below)))
                    break
        else:
            frames.pop()


# Rows per chunk of ``word_chunks``.
_CHUNK_ROWS = 2**12


def word_chunks(generators, depth: int, children):
    """Yield (words, units, scales, tags): the words of length 1..depth in chunks.

    A chunk is at most ``_CHUNK_ROWS`` words of one length n in lexicographic
    order, as an (N, n) symbol array, an (N, d, d) unit stack with a log scale
    per row, and an integer tag per row.  One ``_stacked_step`` forms it from
    its parents, bit for bit ``word_tree``'s products.  Chunks come depth first
    from one stack, so each length comes in lexicographic order and every word
    less than a chunk's first word came before it.  Per length the stack
    holds one parent chunk and row indices, so memory is
    O(depth * _CHUNK_ROWS * (d^2 + depth + K)) however wide a level is.

    The root's children are every symbol, tagged 0.  Once the consumer has
    handled a chunk shorter than ``depth``, ``children(words, tags)`` gives its
    children's tags, broadcast to (N, K) with column s - 1 for symbol s; a
    negative tag forms no child.
    """
    gens = np.stack(generators)
    k = len(gens)
    words, units, scales = np.zeros((1, 0), dtype=np.int64), np.eye(gens.shape[1])[None], np.zeros(1)
    below = np.full((1, k), 0 if depth > 0 else -1)
    stack = []  # chunks not yet formed: parents' chunk, their rows, symbols - 1, tags
    while True:
        rows, index = np.nonzero(below >= 0)
        for lo in reversed(range(0, len(rows), _CHUNK_ROWS)):
            part = slice(lo, lo + _CHUNK_ROWS)
            stack.append((words, units, scales, rows[part], index[part],
                          below[rows[part], index[part]]))
        if not stack:
            return
        words, units, scales, rows, index, tags = stack.pop()
        words = np.concatenate((words[rows], index[:, None] + 1), axis=1)
        units, scales = _stacked_step(generators, gens, index, units[rows], scales[rows], words)
        yield words, units, scales, tags
        below = np.broadcast_to(-1 if words.shape[1] == depth else children(words, tags),
                                (len(words), k))
