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

from .errors import InvalidInputError, NonConvergenceError

# Absolute tolerance for scalar threshold comparisons throughout the package.
ABS_TOL = 1e-12

# A matrix counts as singular when co_norm falls below this multiple of op_norm.
SINGULARITY_RTOL = 1e-12

# Renormalization band for LogScaledMatrix units.
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
    subtracting nearly equal Gram eigenvalues.
    """
    d = a.shape[0]
    if d == 1:
        v = abs(float(a[0, 0]))
        return v, v
    if d == 2:
        (a00, a01), (a10, a11) = a.tolist()
        g11 = a00 * a00 + a10 * a10
        g22 = a01 * a01 + a11 * a11
        g12 = a00 * a01 + a10 * a11
        diff = g11 - g22
        disc = math.sqrt(max(diff * diff + 4.0 * g12 * g12, 0.0))
        lam_max = (g11 + g22 + disc) / 2.0
        smax = math.sqrt(max(lam_max, 0.0))
        det = a00 * a11 - a01 * a10
        smin = abs(det) / smax if smax > 0.0 else 0.0
        return smax, min(smin, smax)
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[0]), float(s[-1])


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


@dataclass(frozen=True)
class Spectrum:
    """Spectral radius of a matrix plus convergence diagnostics.

    ``residual`` is a scaled eigen-equation defect; it is 0.0 for the
    closed-form low-dimensional paths and tiny (machine level) whenever the
    iterative path converged, so ``radius`` is trustworthy when
    ``residual`` is small.
    """

    radius: float
    roots_found: int
    residual: float


def spectral_radius(a) -> Spectrum:
    """Maximum eigenvalue modulus of a real d x d matrix.

    d = 1 and d = 2 use exact closed forms (for d = 2 the max root modulus
    of lambda^2 - tr lambda + det is (|tr| + sqrt(max(tr^2 - 4 det, 0))) / 2
    for real spectra and sqrt(det) for complex pairs).  Larger d uses a
    balanced QR eigensolver and reports the eigenpair defect as residual.
    """
    arr = as_matrix(a)
    d = arr.shape[0]
    if d == 1:
        return Spectrum(radius=abs(float(arr[0, 0])), roots_found=1, residual=0.0)
    if d == 2:
        tr = float(arr[0, 0] + arr[1, 1])
        det = float(arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0])
        disc = tr * tr - 4.0 * det
        if disc >= 0.0:
            radius = (abs(tr) + math.sqrt(disc)) / 2.0
        else:
            # Complex conjugate pair: |lambda|^2 = det > 0.
            radius = math.sqrt(det)
        return Spectrum(radius=radius, roots_found=2, residual=0.0)
    try:
        w, v = np.linalg.eig(arr)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigensolver failed: {exc}") from exc
    defect = arr.astype(complex) @ v - v * w
    scale = max(1.0, float(np.linalg.norm(arr)))
    residual = float(np.linalg.norm(defect)) / scale
    return Spectrum(radius=float(np.max(np.abs(w))), roots_found=d, residual=residual)


@dataclass(frozen=True)
class LogScaledMatrix:
    """A matrix stored as ``exp(log_scale) * unit`` with op_norm(unit) in [0.5, 2].

    Long products of contracting or expanding factors stay representable:
    each left-multiplication renormalizes the unit part back into the band
    and accumulates the norm into ``log_scale``.
    """

    unit: np.ndarray
    log_scale: float

    def __post_init__(self):
        self.unit.setflags(write=False)

    @classmethod
    def identity(cls, dim: int) -> "LogScaledMatrix":
        if dim < 1:
            raise InvalidInputError("dimension must be at least 1")
        return cls(unit=np.eye(dim), log_scale=0.0)

    @classmethod
    def from_matrix(cls, a) -> "LogScaledMatrix":
        arr = as_matrix(a).copy()
        nu = op_norm(arr)
        if nu == 0.0:
            raise InvalidInputError("the zero matrix has no log-scaled representation")
        return cls(unit=arr / nu, log_scale=math.log(nu))

    @property
    def dim(self) -> int:
        return self.unit.shape[0]

    def left_multiply(self, a: np.ndarray) -> "LogScaledMatrix":
        """Return the log-scaled product ``a @ self``."""
        raw = a @ self.unit
        nu = op_norm(raw)
        if nu == 0.0:
            raise InvalidInputError("product collapsed to the zero matrix")
        if _BAND_LO <= nu <= _BAND_HI:
            return LogScaledMatrix(unit=raw, log_scale=self.log_scale)
        return LogScaledMatrix(unit=raw / nu, log_scale=self.log_scale + math.log(nu))

    @property
    def log_op_norm(self) -> float:
        return self.log_scale + math.log(op_norm(self.unit))

    @property
    def log_co_norm(self) -> float:
        co = co_norm(self.unit)
        if co == 0.0:
            return float("-inf")
        return self.log_scale + math.log(co)

    @property
    def log_spectral_radius(self) -> float:
        """Log of the product's spectral radius; -inf when the radius is 0."""
        rho = spectral_radius(self.unit).radius
        return self.log_scale + math.log(rho) if rho > 0.0 else -math.inf

    def dense(self) -> np.ndarray:
        """Materialize the plain matrix; may overflow for extreme log_scale."""
        return math.exp(self.log_scale) * self.unit


def walk(generators, symbols, start: LogScaledMatrix | None = None):
    """Yield the running product S_{s_n} ... S_{s_1} start after each symbol.

    ``generators`` are validated d x d arrays indexed by 1-based labels and
    ``start`` defaults to the identity.  This is the one place a product is
    carried along a symbol stream.
    """
    prod = LogScaledMatrix.identity(generators[0].shape[0]) if start is None else start
    for sym in symbols:
        prod = prod.left_multiply(generators[sym - 1])
        yield prod


def word_product(generators, word) -> LogScaledMatrix:
    """Log-scaled product of generators along a word of 1-based labels.

    The rightmost factor corresponds to the first symbol, matching the
    convention that the symbol applied at time 1 acts on the state first:
    word (w1, ..., wn) yields S_{wn} ... S_{w1}.  The empty word gives the
    identity with log_scale 0.
    """
    gens = [as_matrix(g) for g in generators]
    if not gens:
        raise InvalidInputError("need at least one generator")
    d = gens[0].shape[0]
    for g in gens:
        if g.shape[0] != d:
            raise InvalidInputError("generators must share one dimension")
    labels = [int(sym) for sym in word]
    for label in labels:
        if not 1 <= label <= len(gens):
            raise InvalidInputError(
                f"word symbol {label} outside alphabet 1..{len(gens)}"
            )
    prod = LogScaledMatrix.identity(d)
    for prod in walk(gens, labels, prod):
        pass
    return prod
