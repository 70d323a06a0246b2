"""Shared statistical kernels.

Covariance factorization, the package's triangular and Cholesky solves,
simple kriging of an exponential-correlation field, first-order temporal
conditional-autoregressive (CAR) pieces, logit transforms, and small
samplers reused by the downscaler and ensemble fitters.

Conventions: distances in km, exponential correlation
``C(d) = exp(-d / range_km)``, CAR full conditionals
``E[a_t | a_-t] = eta * sum_{t' ~ t} a_t' / n_t`` and
``Var[a_t | a_-t] = sigma2 / n_t`` with n_t = 1 at the series endpoints
and 2 in the interior.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder
from statistics import NormalDist

import numpy as np

from .errors import DomainError, NotPositiveDefiniteError

# clipped_logit clamps weights this far inside (0, 1), so its logits stay finite
_W_CLIP = 1e-12

# jitter ladder relative to the mean marginal variance
_JITTER_START = 1e-8
_JITTER_MAX = 1e-4

# the CAR dependence parameter is sampled on interval midpoints of [0, 1];
# midpoints keep eta < 1 so the implied joint prior stays proper
ETA_GRID = (np.arange(1000, dtype=float) + 0.5) / 1000.0


def _scipy_extension(private: str, public: str):
    """scipy.<private>, loaded without the __init__s of scipy and its subpackage, else scipy.<public>."""
    name = f"scipy.{private}"
    if name not in sys.modules:
        # found package by package, so that not even scipy's own __init__ runs
        parts, path = name.split("."), None
        for k in range(1, len(parts) + 1):
            spec = PathFinder.find_spec(".".join(parts[:k]), path)
            if spec is None:
                return importlib.import_module(f"scipy.{public}")
            path = spec.submodule_search_locations
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


_FLAPACK = _scipy_extension("linalg._flapack", "linalg.lapack")
# the float64 LAPACK routines behind scipy.linalg's triangular, Cholesky and
# banded solvers; called directly to skip scipy's per-call input handling
_TRTRS, _TRTRI, _POTRS, _PBTRF, _PBTRS, _GBSV = (getattr(_FLAPACK, "d" + n) for n in ("trtrs", "trtri", "potrs", "pbtrf", "pbtrs", "gbsv"))
# the BLAS-3 triangular product behind kriging's cross term
_TRMM = _scipy_extension("linalg._fblas", "linalg.blas").dtrmm
ndtr = _scipy_extension("special._special_ufuncs", "special").ndtr  # the standard normal CDF
ndtri = NormalDist().inv_cdf  # its inverse, at scalar levels


@dataclass(frozen=True)
class GaussianSummary:
    """Normal predictives summarized by their means and variances.

    The fields are scalars or equal-shape arrays, one entry per predictive.
    """

    mean: float | np.ndarray
    variance: float | np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.mean)) or not np.all(np.isfinite(self.variance)):
            raise DomainError("summary moments must be finite")
        if np.any(self.variance < 0):
            raise DomainError("variance must be nonnegative")

    @property
    def sd(self):
        return np.sqrt(self.variance)

    def quantile(self, p: float):
        if not 0.0 < p < 1.0:
            raise DomainError("quantile level must lie in (0, 1)")
        return self.mean + self.sd * ndtri(p)


def jittered_cholesky(c: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric PSD matrix with escalating jitter.

    Tries the plain factorization first, then adds eps * mean(diag) to the
    diagonal with eps = 1e-8, 1e-7, ..., 1e-4. Returns (L, jitter_added).
    Raises NotPositiveDefiniteError when even the largest jitter fails.
    """
    c = np.asarray(c, dtype=float)
    try:
        return np.linalg.cholesky(c), 0.0
    except np.linalg.LinAlgError:
        pass
    scale = float(np.mean(np.diag(c)))
    if scale <= 0:
        scale = 1.0
    rel = _JITTER_START
    while rel <= _JITTER_MAX:
        eps = rel * scale
        try:
            return np.linalg.cholesky(c + eps * np.eye(c.shape[0])), eps
        except np.linalg.LinAlgError:
            rel *= 10.0
    raise NotPositiveDefiniteError(f"matrix not positive definite at jitter {eps:.3e}")


def _check_finite(*arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def _check_lower_system(l: np.ndarray, b: np.ndarray) -> None:
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise ValueError("expected a square factor")
    if b.ndim not in (1, 2) or b.shape[0] != l.shape[0]:
        raise ValueError(f"shapes of the factor {l.shape} and b {b.shape} are incompatible")
    _check_finite(l, b)


def tri_solve(l: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve L x = b (trans=0) or L^T x = b (trans=1) for lower-triangular L.

    LAPACK trtrs with the arguments scipy.linalg.solve_triangular passes, so
    the result is the same to the bit. b is (n,) or (n, k). Raises
    ValueError on non-finite input and LinAlgError on a zero diagonal.
    """
    l = np.asarray(l, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_lower_system(l, b)
    return _trtrs(l, b, trans)


def _trtrs(l: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    if l.flags.f_contiguous:
        x, info = _TRTRS(l, b, lower=1, trans=trans)
    else:
        # trtrs reads Fortran order: solve the transposed, upper system
        x, info = _TRTRS(l.T, b, lower=0, trans=1 - trans)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def tri_solve_stack(l: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """tri_solve(l[f], b[f], trans) for every f of a (F, n, n) stack of
    factors and (F, n) right-hand sides, equal to the lone calls bit for bit."""
    _check_finite(l, b)
    return np.array([_trtrs(l[f], b[f], trans) for f in range(l.shape[0])])


def chol_factor_solve(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b given the lower Cholesky factor L.

    LAPACK potrs with the arguments scipy.linalg.cho_solve passes, so the
    result is the same to the bit. Raises ValueError on non-finite input.
    """
    l = np.asarray(l, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_lower_system(l, b)
    x, _ = _POTRS(l, b, lower=1)
    return x


def chol_factor_solve_stack(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """chol_factor_solve(l[f], b[f]) for every f of a stack, bit for bit."""
    _check_finite(l, b)
    return np.array([_POTRS(l[f], b[f], lower=1)[0] for f in range(l.shape[0])])


def cholesky_stack(c: np.ndarray) -> np.ndarray:
    """The factor jittered_cholesky gives each matrix of a (F, n, n) stack:
    one stacked factorization, or matrix by matrix if any needs jitter."""
    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        return np.array([jittered_cholesky(m)[0] for m in c])


class ExpKriging:
    """Simple kriging of zero-mean, unit-variance exponential-correlation fields.

    d_obs holds the (n, n) distances between the observed sites, d_cross the
    (n, m) distances from them to the targets. A call with the field's values
    at the sites and a range returns the conditional mean lk.T @ (L^{-1} values)
    and the residual variance max(1 - sum(lk**2), 0) at each target, where L
    is the jittered Cholesky factor of the site correlation and lk = L^{-1} k.
    Scale the residual by the field's variance for a field of another sill.
    Each new range factors the site correlation and inverts L once (LAPACK
    trtri); lk is then one triangular matrix product (BLAS trmm) in an (n, m)
    buffer the object keeps, and every call's solve is a product with the
    kept L^{-1}. L^{-1}, lk and the residual are kept while the range
    repeats. The residual is a new array for each new range, never
    overwritten, so a caller may hold it.
    """

    def __init__(self, d_obs: np.ndarray, d_cross: np.ndarray):
        self.d_obs, self.d_cross = d_obs, d_cross
        self.range_km = None
        self.lk = np.empty(d_cross.shape)

    def __call__(self, values: np.ndarray, range_km: float) -> tuple[np.ndarray, np.ndarray]:
        if range_km != self.range_km:
            chol, _ = jittered_cholesky(np.exp(-self.d_obs / range_km))
            # LAPACK and BLAS read Fortran order: invert the upper factor L^T
            # in place, which gives L^{-T}, the transpose of L^{-1}
            inv_t, info = _TRTRI(chol.T, lower=0, overwrite_c=1)
            if info > 0:
                raise np.linalg.LinAlgError(f"singular factor: zero diagonal at {info - 1}")
            self.linv = inv_t.T
            # d / -range is -d / range to the bit: IEEE division is sign-symmetric
            k = np.exp(np.divide(self.d_cross, -range_km, out=self.lk), out=self.lk)
            # lk = L^{-1} k as its transpose k^T L^{-T}, in place on k.T, the
            # Fortran-order view of the buffer
            self.lk = _TRMM(1.0, inv_t, k.T, side=1, lower=0, overwrite_b=1).T
            resid = np.einsum("ij,ij->j", self.lk, self.lk)
            self.resid = np.maximum(np.subtract(1.0, resid, out=resid), 0.0, out=resid)
            self.range_km = range_km
        return self.lk.T @ (self.linv @ values), self.resid


def car_neighbor_count(horizon: int) -> np.ndarray:
    """n_t for t = 1..T: one neighbor at the endpoints, two in the interior."""
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    n = np.full(horizon, 2.0)
    n[0] = 1.0
    n[-1] = 1.0
    return n


def car_precision_tridiag(
    n_t: np.ndarray, eta: float, sigma2: float
) -> tuple[np.ndarray, np.ndarray]:
    """(diag, superdiag) of the joint CAR precision (D - eta W) / sigma2.

    n_t is the neighbor count of each day (car_neighbor_count); eta and
    sigma2 are floats, or (F, 1) columns for F series at once.
    """
    return n_t / sigma2, np.ones(n_t.shape[0] - 1) * (-eta / sigma2)


def car_normalized_eigvals(horizon: int) -> np.ndarray:
    """Eigenvalues of D^{-1/2} W D^{-1/2} for the path graph of length T.

    Used for the determinant |D - eta W| = |D| * prod(1 - eta * lambda_i),
    which makes the discrete eta update O(grid * T) once per fit.
    """
    n_t = car_neighbor_count(horizon)
    off = 1.0 / np.sqrt(n_t[:-1] * n_t[1:])
    # LAPACK stevd, the driver scipy.linalg.eigh_tridiagonal picks for all eigenvalues
    lam, _, info = _FLAPACK.dstevd(np.zeros(horizon), off, compute_v=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"stevd did not converge (info={info})")
    return lam


def car_logdet_table(horizon: int, eta_grid: np.ndarray = ETA_GRID) -> np.ndarray:
    """log |D - eta W| for every eta on the grid (log|D| included)."""
    lam = car_normalized_eigvals(horizon)
    n_t = car_neighbor_count(horizon)
    one_minus = 1.0 - np.outer(eta_grid, lam)
    if np.any(one_minus <= 0):
        raise NotPositiveDefiniteError("CAR precision singular on the eta grid")
    return float(np.sum(np.log(n_t))) + np.sum(np.log(one_minus), axis=1)


def sample_tridiag_mvn(
    prec_diag: np.ndarray,
    prec_off: np.ndarray,
    b: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One draw from N(Q^{-1} b, Q^{-1}) for tridiagonal precision Q.

    Q has diagonal prec_diag and sub/super diagonal prec_off. O(T) via the
    banded Cholesky factor Q = U^T U (LAPACK pbtrf and pbtrs, then gbsv for
    U x = z, each with the arguments scipy.linalg's cholesky_banded,
    cho_solve_banded and solve_banded pass). Raises ValueError on
    non-finite input and NotPositiveDefiniteError when Q is not PD.
    """
    t = prec_diag.shape[0]
    ab = np.zeros((2, t))
    ab[1] = prec_diag
    ab[0, 1:] = prec_off
    b = np.asarray(b, dtype=float)
    if b.shape != (t,):
        raise ValueError(f"b must have shape ({t},)")
    _check_finite(ab, b)
    return _tridiag_draw(ab, b, rng)


def sample_tridiag_mvn_stack(
    prec_diag: np.ndarray, prec_off: np.ndarray, b: np.ndarray, rngs
) -> np.ndarray:
    """sample_tridiag_mvn(prec_diag[f], prec_off[f], b[f], rngs[f]) for every
    row f of (F, T) prec_diag and b and (F, T - 1) prec_off, equal to the lone
    calls bit for bit."""
    f, t = prec_diag.shape
    ab = np.zeros((f, 2, t))
    ab[:, 1] = prec_diag
    ab[:, 0, 1:] = prec_off
    _check_finite(ab, b)
    return np.array([_tridiag_draw(ab[k], b[k], rng) for k, rng in enumerate(rngs)])


def _tridiag_draw(ab: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    u, info = _PBTRF(ab, lower=0)
    if info > 0:
        raise NotPositiveDefiniteError(f"{info}-th leading minor not positive definite")
    mean, _ = _PBTRS(u, b, lower=0)
    z = rng.standard_normal(b.shape[0])
    _, _, x, _ = _GBSV(0, 1, u, z)
    return mean + x


def sample_from_log_weights(logw: np.ndarray, rngs) -> np.ndarray:
    """One index per row of a (F, K) logw, drawn proportionally to exp(logw[f])
    with the generator rngs[f]; stable under shifts of a row."""
    logw = np.asarray(logw, dtype=float)
    cdf = np.cumsum(np.exp(logw - logw.max(axis=1, keepdims=True)), axis=1)
    return np.array([np.searchsorted(c, rng.random() * c[-1], side="right") for c, rng in zip(cdf, rngs)])


def logit(w) -> np.ndarray | float:
    """log(w / (1 - w)); DomainError outside the open unit interval."""
    arr = np.asarray(w, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("logit requires values in (0, 1)")
    out = np.log(arr / (1.0 - arr))
    return float(out) if np.isscalar(w) else out


def clipped_logit(w) -> np.ndarray | float:
    """logit of w clamped into [_W_CLIP, 1 - _W_CLIP]: finite at 0 and 1."""
    return logit(np.clip(w, _W_CLIP, 1.0 - _W_CLIP))


def inv_logit(q) -> np.ndarray | float:
    """1 / (1 + exp(-q)), evaluated without overflow on either tail."""
    arr = np.asarray(q, dtype=float)
    # e = exp(-|q|) <= 1: 1 / (1 + e) for q >= 0 and e / (1 + e) below; a
    # NaN q passes through minimum unchanged, sign and payload included
    e = np.exp(np.minimum(arr, -arr))
    out = np.where(arr >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(out) if np.isscalar(q) else out


def norm_logpdf(x, mean, var) -> np.ndarray | float:
    """Normal log density, elementwise."""
    x = np.asarray(x, dtype=float)
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)
