"""Process models and exact path sampling on finite grids.

All estimators operate on the drift-corrected process

    w(t) = b(t) - ln E exp(b(t)),

so that x(t) = exp(w(t)) satisfies x(0) = 1 and E x(t) = 1 for every t.
Two input families are supported:

* centered Gaussian ``b`` with stationary increments, specified through its
  variance function sigma^2 (then ln E exp(b(t)) = sigma^2(t) / 2), sampled
  exactly on two-sided grids;
* Levy ``b`` with a closed-form Laplace exponent Phi(theta) = ln E exp(theta
  b(1)) (then the drift correction is Phi(1) t for t >= 0), sampled exactly
  on two-sided grids: on negative lags w is the time reversal of the input
  under its Esscher tilt by 1, which makes exp(w) Brown-Resnick stationary.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import numpy.fft  # numpy loads it lazily; the circulant embedding uses it, so load it with the package

from . import engine

__all__ = [
    "ModelError",
    "VarianceFunction",
    "JumpLaw",
    "LevyModel",
    "GridSpec",
    "variance_at",
    "laplace_exponent",
    "levy_lambda",
]

# Relative tolerance for the eigenvalue check of embedding matrices;
# negatives within this fraction of the dominant scale are treated as
# round-off and clipped.
PSD_RTOL = 1e-8


class ModelError(ValueError):
    """The model is invalid or numerically inconsistent."""


@dataclass(frozen=True, eq=False)
class VarianceFunction:
    """Variance function sigma^2 of a centered Gaussian input with stationary increments.

    Kinds
    -----
    ``power``        sigma^2(t) = scale * |t|^alpha with scale = 2 (the
                     classical family w(t) = sqrt(2) b_alpha(t) - |t|^alpha
                     built from standard fractional Brownian motion with
                     variance |t|^alpha; alpha is twice the Hurst index).
    ``scaled-power`` same formula with a caller-chosen positive scale.
    ``tabulated``    user-supplied (t, sigma^2) table, interpolated linearly
                     in |t|; queries outside the table raise ModelError.
    """

    kind: str
    alpha: float = 1.0
    scale: float = 2.0
    table_t: np.ndarray | None = field(default=None, repr=False)
    table_v: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind in ("power", "scaled-power"):
            if not 0.0 < self.alpha <= 2.0:
                raise ModelError(f"alpha must lie in (0, 2], got {self.alpha}")
            if not self.scale > 0.0:
                raise ModelError(f"scale must be positive, got {self.scale}")
        elif self.kind == "tabulated":
            t = np.asarray(self.table_t, dtype=float)
            v = np.asarray(self.table_v, dtype=float)
            if t.ndim != 1 or t.shape != v.shape or t.size < 2:
                raise ModelError("tabulated kind needs matching 1-d t and value tables")
            if t[0] != 0.0 or np.any(np.diff(t) <= 0):
                raise ModelError("table times must start at 0 and increase")
            if v[0] != 0.0 or np.any(v < 0):
                raise ModelError("sigma^2 must be nonnegative with sigma^2(0) = 0")
            object.__setattr__(self, "table_t", t)
            object.__setattr__(self, "table_v", v)
        else:
            raise ModelError(f"unknown variance-function kind {self.kind!r}")

    @classmethod
    def fbm(cls, alpha: float) -> "VarianceFunction":
        """The fractional-Brownian family: sigma^2(t) = 2 |t|^alpha."""
        return cls(kind="power", alpha=alpha, scale=2.0)

    @classmethod
    def power(cls, alpha: float, scale: float) -> "VarianceFunction":
        return cls(kind="scaled-power", alpha=alpha, scale=scale)

    @classmethod
    def tabulated(cls, t: np.ndarray, values: np.ndarray) -> "VarianceFunction":
        return cls(kind="tabulated", table_t=np.asarray(t, float), table_v=np.asarray(values, float))

    @property
    def parametric(self) -> bool:
        return self.kind in ("power", "scaled-power")


def variance_at(vf: VarianceFunction, t) -> np.ndarray | float:
    """Evaluate sigma^2(|t|); exact for the parametric kinds."""
    at = np.abs(np.asarray(t, dtype=float))
    if vf.parametric:
        out = vf.scale * at**vf.alpha
    else:
        if np.any(at > vf.table_t[-1]):
            raise ModelError("tabulated variance function queried outside its table")
        out = np.interp(at, vf.table_t, vf.table_v)
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid t = delta * i for integers i in [i_min, i_max]."""

    delta: float
    i_min: int = 0
    i_max: int = 0

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not self.i_min <= 0 <= self.i_max:
            raise ValueError("grid must satisfy i_min <= 0 <= i_max")

    @property
    def n_points(self) -> int:
        return self.i_max - self.i_min + 1

    @property
    def origin(self) -> int:
        """Row position of index 0."""
        return -self.i_min

    def indices(self) -> np.ndarray:
        return np.arange(self.i_min, self.i_max + 1)

    def times(self) -> np.ndarray:
        return self.delta * self.indices()


# ---------------------------------------------------------------------------
# Gaussian sampling


def _grid_cov(vf: VarianceFunction, grid: GridSpec) -> np.ndarray:
    """Covariance of (b(delta i))_{i_min..i_max}, Cov(b(s), b(t)) = (sigma^2(s) + sigma^2(t)
    - sigma^2(s - t)) / 2. It is not checked: the Cholesky factorisation that reads it
    (``_cholesky_factor``) decides whether it is positive semidefinite."""
    t = grid.times()
    vs = variance_at(vf, t)
    return 0.5 * (vs[:, None] + vs[None, :] - variance_at(vf, np.subtract.outer(t, t)))


def increment_autocov(vf: VarianceFunction, delta: float, max_lag: int) -> np.ndarray:
    """Autocovariance gamma(k), k = 0..max_lag, of the step-delta increments of b."""
    k = np.arange(max_lag + 1, dtype=float)
    return 0.5 * (
        variance_at(vf, (k + 1.0) * delta)
        - 2.0 * variance_at(vf, k * delta)
        + variance_at(vf, np.abs(k - 1.0) * delta)
    )


def _embedding_eigs(gamma: np.ndarray) -> np.ndarray | None:
    """Circulant-embedding eigenvalues for increment autocovariance gamma(0..m).

    Returns None when a structurally negative eigenvalue is found (caller
    falls back to Cholesky); round-off negatives are clipped to 0.
    """
    m = gamma.size - 1
    c = np.concatenate([gamma[:m], gamma[m:m + 1], gamma[m - 1:0:-1]])
    eigs = np.fft.fft(c).real
    top = float(eigs.max(initial=0.0))
    if top <= 0.0:
        return np.zeros_like(eigs)
    if eigs.min() < -PSD_RTOL * top:
        return None
    return np.maximum(eigs, 0.0)


_EIGS_LOCK = threading.Lock()


def _grid_eigs(vf: VarianceFunction, delta: float, n_inc: int) -> np.ndarray | None:
    """Embedding eigenvalues of ``vf`` on n_inc steps of size delta, computed once
    per (model, delta, n_inc) and shared read-only across calls and threads.

    The lock makes chunks that start together wait for one computation
    instead of each repeating it.
    """
    with _EIGS_LOCK:
        return _cached_grid_eigs(vf, delta, n_inc)


@lru_cache(maxsize=64)
def _cached_grid_eigs(vf: VarianceFunction, delta: float, n_inc: int) -> np.ndarray | None:
    eigs = _embedding_eigs(increment_autocov(vf, delta, n_inc))
    if eigs is not None:
        eigs.flags.writeable = False
    return eigs


def _stationary_sequence(eigs: np.ndarray, rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """n exact draws of the first m entries of the embedded stationary sequence,
    as columns 1..m of an (n, m + 1) array whose column 0 is left unset.

    One FFT of a circularly symmetric complex vector yields two independent
    real samples (real and imaginary parts), so rows are generated in pairs.
    All real parts are drawn before all imaginary parts; the imaginary parts
    are drawn, and the FFTs run, one row block at a time. The real parts are
    drawn into the tail of the buffer whose head is the returned array, so a
    chunk holds one array of its size, not two; each block draws its
    imaginary parts into the rows its real parts were read from.
    """
    length = eigs.size
    rows = (n + 1) // 2
    scale = np.sqrt(eigs / length)
    buf = np.empty(max(n * (m + 1), 2 * rows + rows * length))
    out = buf[:n * (m + 1)].reshape(n, m + 1)
    real = buf[buf.size - rows * length:].reshape(rows, length)
    rng.standard_normal(out=real)
    # Block [a, b) copies its rows of real into z before it writes to out, and
    # its writes end at flat index 2 b (m + 1) <= 2 rows + b length, at or
    # before the start of row b of real: no unread real part is overwritten.
    # Blocks are sized by the real parts they read, 4 rows at length 32768:
    # the FFT of 2-row blocks page-faults on every call and runs slower.
    blocks = engine.row_blocks(rows, 8 * length)
    # the last block is the longest
    work = np.empty((blocks[-1].stop - blocks[-1].start, length), dtype=complex)
    for block in blocks:
        part = real[block]
        z = work[:len(part)]
        z.real = part
        z.imag = rng.standard_normal(out=part)
        z *= scale
        np.fft.fft(z, axis=1, out=z)
        out[2 * block.start:2 * block.stop:2, 1:] = z.real[:, :m]
        odd = out[2 * block.start + 1:2 * block.stop:2, 1:]
        odd[:] = z.imag[:len(odd), :m]
    return out


def _increments_to_b(b: np.ndarray, origin: int) -> np.ndarray:
    """Prefix-sum increments into b values anchored at b(0) = 0, in place.

    ``b[:, j + 1]`` holds b(delta (i_min + j + 1)) - b(delta (i_min + j));
    column 0 is overwritten. On return column ``origin`` is exactly 0.
    """
    b[:, 0] = 0.0
    # whole rows, and a copied origin column: NumPy would copy all of b for an
    # in-place cumsum over a column slice or a subtrahend that is a view of b
    np.cumsum(b, axis=1, out=b)
    b -= b[:, origin, None].copy()
    return b


def _cholesky_factor(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor with escalating diagonal jitter on near-singular input."""
    tr = max(float(np.trace(cov)), np.finfo(float).tiny)
    jitter = 0.0
    for _ in range(5):
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]) if jitter else cov)
        except np.linalg.LinAlgError:
            jitter = 1e-12 * tr if jitter == 0.0 else 10.0 * jitter
    raise ModelError("Cholesky factorization failed; covariance is not positive semidefinite")


def _cholesky_b_matrix(vf: VarianceFunction, grid: GridSpec, rng: np.random.Generator,
                       n: int) -> np.ndarray:
    """n draws of b on the grid from the Cholesky factor of the grid covariance
    with the origin row removed (b(0) = 0)."""
    keep = np.delete(np.arange(grid.n_points), grid.origin)
    factor = _cholesky_factor(_grid_cov(vf, grid)[np.ix_(keep, keep)])
    z = rng.standard_normal((n, keep.size))
    b = np.zeros((n, grid.n_points))
    b[:, keep] = z @ factor.T
    return b


def gaussian_b_matrix(
    vf: VarianceFunction,
    grid: GridSpec,
    rng: np.random.Generator,
    n: int,
) -> np.ndarray:
    """n exact draws of (b(delta i))_{i in grid} as an (n, n_points) array.

    Parametric alpha = 2 is the random line c t (``line_paths``) and
    parametric alpha = 1 has i.i.d. increments; every other model draws its
    increments by circulant embedding, with a Cholesky fallback when the
    embedding has negative eigenvalues.
    """
    n_inc = grid.n_points - 1
    if n_inc == 0:
        return np.zeros((n, 1))

    if is_line(vf):
        return line_paths(vf, grid, rng, n).slopes * grid.times()
    if vf.parametric:
        if vf.alpha == 1.0:
            # Independent increments, drawn a row block at a time.
            b = np.empty((n, n_inc + 1))
            for block in engine.row_blocks(n, 8 * n_inc):
                np.multiply(rng.standard_normal((block.stop - block.start, n_inc)),
                            np.sqrt(vf.scale * grid.delta), out=b[block, 1:])
            return _increments_to_b(b, grid.origin)

    eigs = _grid_eigs(vf, grid.delta, n_inc)
    if eigs is not None:
        return _increments_to_b(_stationary_sequence(eigs, rng, n, n_inc), grid.origin)
    return _cholesky_b_matrix(vf, grid, rng, n)


def gaussian_w_matrix(
    vf: VarianceFunction,
    grid: GridSpec,
    rng: np.random.Generator,
    n: int,
) -> np.ndarray:
    """n draws of w(delta i) = b(delta i) - sigma^2(delta i) / 2, on the alpha = 2 line by ``LinePaths.rows``
    into a column-major matrix, whose times are contiguous rows of its transpose."""
    if is_line(vf) and grid.n_points > 1:
        return line_paths(vf, grid, rng, n).rows(slice(None), np.empty((n, grid.n_points), order="F"))
    b = gaussian_b_matrix(vf, grid, rng, n)
    b -= 0.5 * variance_at(vf, grid.times())[None, :]
    b[:, grid.origin] = 0.0
    return b


@dataclass(frozen=True, eq=False)
class LinePaths:
    """Paths x(t) = c t - drop(t) of the parametric alpha = 2 line, kept as
    their (n, 1) slopes c (``line_paths``), with grid rows ``times`` and
    ``drop`` = curvature t^2 and the column ``origin`` of t = 0, None on a
    side (``side``). Indexing slices the slopes, as a matrix's rows."""

    slopes: np.ndarray
    times: np.ndarray
    drop: np.ndarray
    curvature: float
    origin: int | None

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.slopes), len(self.times)

    def __getitem__(self, rows) -> "LinePaths":
        return replace(self, slopes=self.slopes[rows])

    def rows(self, block: slice, out: np.ndarray) -> np.ndarray:
        """The rows ``block`` of the path matrix, c t - drop with the origin
        column 0, built in ``out``: the one place the line's values are made."""
        np.multiply(self.slopes[block], self.times, out=out)
        out -= self.drop
        if self.origin is not None:
            out[:, self.origin] = 0.0
        return out

    def side(self, positive: bool) -> "LinePaths":
        """The positive or, on a two-sided grid, the negative lags, k = 1, 2, ...
        outward from the origin; the negative side runs against memory order."""
        lags = np.s_[self.origin + 1:] if positive else np.s_[self.origin - 1::-1]
        return replace(self, times=self.times[lags], drop=self.drop[lags], origin=None)

    def maxima(self, levels) -> np.ndarray:
        """Running maxima of x(k) = c t_k - drop_k over 1 <= k <= L of a side
        (``side``), for each L in ``levels``, as a (count, n_levels) array,
        Fortran-ordered as ``engine.running_at`` leaves the matrix's.

        x is a concave parabola in k with its vertex at k* = c / (2 curvature t_1),
        so its maximum over 1..L lies at floor(k*) or the integer after, clipped
        into [1, L]. Those two are evaluated as the path matrix evaluates them,
        c t_k - drop_k, so the maxima equal the matrix's running maxima bit for
        bit wherever the step of x between neighbours, at least curvature t_1^2,
        exceeds the rounding of x near its vertex: at mesh 1e-5 and |Z| = 40 of
        the fBm line, by a factor above 50.
        """
        c, times, drop, levels = self.slopes, self.times, self.drop, np.asarray(levels)
        vertex = np.floor(np.clip(c / (2.0 * self.curvature * times[0]), 0.0, levels[-1]))
        lo = np.clip(vertex, 1, levels).astype(np.intp) - 1
        hi = np.minimum(lo + 1, levels - 1)
        return np.maximum(c * times[lo] - drop[lo], c * times[hi] - drop[hi], out=np.empty(lo.shape, order="F"))


def line_paths(vf: VarianceFunction, grid: GridSpec, rng: np.random.Generator, n: int) -> LinePaths:
    """n draws of the parametric alpha = 2 line on ``grid``: b(t) = c t with
    slopes c = sqrt(scale) Z, one normal a path, and w = b - sigma^2 / 2."""
    t = grid.times()
    return LinePaths(np.sqrt(vf.scale) * rng.standard_normal((n, 1)), t, 0.5 * variance_at(vf, t),
                     0.5 * vf.scale, grid.origin)


def antithetic_shift(model: Model, grid: GridSpec) -> np.ndarray | None:
    """The row -sigma^2(delta i) on ``grid``, origin 0, or None where antithetic
    pairs do not apply.

    ``np.subtract(shift, w, out=w)`` turns a path w = b - sigma^2 / 2 into
    -w - sigma^2 = -b - sigma^2 / 2, the path of -b, which has the law of b
    for every centered Gaussian b. The Brownian Levy model is one: with no
    jumps, w is the Gaussian path with sigma^2(t) = diffusion^2 |t| on both
    sides. Jump laws are not symmetric, so jump models get None, and so does
    the parametric alpha = 2 line, where -b is the time reversal of b, which
    the two-sided kernels already read.
    """
    if is_gaussian(model):
        if is_line(model):
            return None
        shift = -variance_at(model, grid.times())
    elif model.jump_rate == 0:
        shift = -model.diffusion**2 * np.abs(grid.times())
    else:
        return None
    shift[grid.origin] = 0.0
    return shift


def independent_sides(model: Model) -> bool:
    """Whether the two sides of w are independent walks with i.i.d. steps and
    a linear drift: the parametric Gaussian alpha = 1 family and the Brownian
    Levy model, whose w is the Gaussian with sigma^2(t) = diffusion^2 |t|."""
    if is_gaussian(model):
        return model.parametric and model.alpha == 1.0
    return model.jump_rate == 0


def side_forms(x: np.ndarray, mirror: np.ndarray, count: int, out: np.ndarray):
    """Yield the first ``count`` equal-law forms of the side ``x``, rows of
    w(delta k) for 1 <= k <= n, each but the first written over ``out``.

    The forms are x itself; its mirror ``mirror - x``, with ``mirror`` the
    row -sigma^2(delta k), the side of -b (``antithetic_shift``); its
    reversal x(n) - x(n - k), x(0) = 0; and the reversal's mirror. The
    mirror has the law of x for every centred Gaussian b. Where
    ``independent_sides`` holds, b(n) - b(n - k) has the law of b, as the
    steps of b are i.i.d., and sigma^2 is linear, so the drift carries over
    and the reversal and its mirror have it too. Each form is read before
    the next is asked for: the reversal's mirror is made from the reversal
    in place.
    """
    yield x
    if count > 1:
        yield np.subtract(mirror, x, out=out)
    if count > 2:
        n = x.shape[1]
        np.subtract(x[:, n - 1:], x[:, :n - 1][:, ::-1], out=out[:, :n - 1])
        out[:, n - 1] = x[:, n - 1]
        yield out
        yield np.subtract(mirror, out, out=out)


# ---------------------------------------------------------------------------
# Levy models


@dataclass(frozen=True)
class JumpLaw:
    """Parametric jump distribution with a closed-form moment generating function.

    Kinds: ``constant`` (params: value), ``normal`` (mean, sd),
    ``exponential`` (rate; mgf finite for theta < rate).
    """

    kind: str
    value: float = 1.0
    mean: float = 0.0
    sd: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "normal", "exponential"):
            raise ModelError(f"unknown jump law {self.kind!r}")
        if self.kind == "normal" and self.sd < 0:
            raise ModelError("jump sd must be nonnegative")
        if self.kind == "exponential" and self.rate <= 0:
            raise ModelError("jump rate parameter must be positive")

    def mgf(self, theta: float) -> float:
        if self.kind == "constant":
            return float(np.exp(theta * self.value))
        if self.kind == "normal":
            return float(np.exp(theta * self.mean + 0.5 * theta**2 * self.sd**2))
        if theta >= self.rate:
            raise ModelError(f"jump mgf is infinite at theta = {theta}")
        return self.rate / (self.rate - theta)

    def tilted(self) -> "JumpLaw":
        """The Esscher tilt by 1: density proportional to exp(x) times this law's."""
        if self.kind == "normal":
            return replace(self, mean=self.mean + self.sd**2)
        if self.kind == "exponential":
            return replace(self, rate=self.rate - 1.0)
        return self

    def sum_sample(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sum of ``counts`` i.i.d. jumps, vectorized over a float array of
        integer counts, written over ``counts`` and returned.

        The values are those of ``value * counts``,
        ``mean * counts + sd * sqrt(counts) * z`` and
        ``rng.gamma(counts, 1 / rate)``, operation for operation: products
        are commutative, and ``gamma`` scales a standard gamma draw.
        """
        if self.kind == "constant":
            counts *= self.value
        elif self.kind == "normal":
            z = rng.standard_normal(counts.shape)
            spread = np.sqrt(counts)
            spread *= self.sd
            z *= spread
            counts *= self.mean
            counts += z
        else:
            rng.standard_gamma(counts, out=counts)
            counts *= 1.0 / self.rate
        return counts


@dataclass(frozen=True)
class LevyModel:
    """Levy input b(t) = diffusion * BM(t) + compound Poisson jumps.

    Requires Phi(1) = ln E exp(b(1)) < infinity. The associated
    drift-corrected process is w(t) = b(t) - Phi(1) t for t >= 0 and
    w(-s) = s Phi(1) - V(s) for s > 0, V an independent copy of the input
    under its Esscher tilt by 1 (see levy_w_matrix).
    """

    diffusion: float = 1.0
    jump_rate: float = 0.0
    jump_law: JumpLaw | None = None

    def __post_init__(self):
        if self.diffusion < 0 or self.jump_rate < 0:
            raise ModelError("diffusion and jump_rate must be nonnegative")
        if self.jump_rate > 0 and self.jump_law is None:
            raise ModelError("a jump law is required when jump_rate > 0")
        laplace_exponent(self, 1.0)  # must be finite

    @classmethod
    def brownian(cls, diffusion: float = 1.0) -> "LevyModel":
        return cls(diffusion=diffusion, jump_rate=0.0, jump_law=None)


def laplace_exponent(model: LevyModel, theta: float) -> float:
    """Phi(theta) = diffusion^2 theta^2 / 2 + rate * (E exp(theta J) - 1)."""
    phi = 0.5 * model.diffusion**2 * theta**2
    if model.jump_rate > 0:
        phi += model.jump_rate * (model.jump_law.mgf(theta) - 1.0)
    return float(phi)


def levy_lambda(model: LevyModel) -> float:
    """Convexity gap Phi(1)/2 - Phi(1/2), nonnegative by Jensen."""
    return 0.5 * laplace_exponent(model, 1.0) - laplace_exponent(model, 0.5)


def _levy_increments(diffusion: float, jump_rate: float, jump_law: JumpLaw | None, dt: float,
                     rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Independent increments over steps dt of diffusion * BM plus compound Poisson jumps."""
    inc = rng.standard_normal(shape)
    inc *= diffusion * np.sqrt(dt)
    if jump_rate > 0:
        counts = rng.poisson(jump_rate * dt, shape).astype(float)
        inc += jump_law.sum_sample(counts, rng)
    return inc


def levy_w_matrix(model: LevyModel, grid: GridSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of w(delta i), i in the grid, as an (n, n_points) array.

    Positive lags are drawn first: w(t) = b(t) - Phi(1) t. Negative lags
    follow: w(-s) = s Phi(1) - V(s), where V is the Esscher tilt by 1 of the
    input (exponent Phi(1 + theta) - Phi(1)): drift diffusion^2, jump rate
    jump_rate E e^J and the tilted jump law. Phi of the tilted law is not
    needed (its Phi(1) = Phi(2) - Phi(1) may be infinite).
    """
    w = np.zeros((n, grid.n_points))
    origin, phi1 = grid.origin, laplace_exponent(model, 1.0)
    if grid.i_max:
        # the increments are freed before the negative lags draw theirs
        pos = w[:, origin + 1:]
        np.cumsum(_levy_increments(model.diffusion, model.jump_rate, model.jump_law, grid.delta, rng,
                                   (n, grid.i_max)), axis=1, out=pos)
        pos -= phi1 * grid.times()[None, origin + 1:]
    if grid.i_min:
        jumps = model.jump_rate > 0
        rate = model.jump_rate * model.jump_law.mgf(1.0) if jumps else 0.0
        law = model.jump_law.tilted() if jumps else None
        inc = _levy_increments(model.diffusion, rate, law, grid.delta, rng, (n, origin))
        s = grid.delta * np.arange(1, origin + 1)
        np.cumsum(inc, axis=1, out=inc)
        inc += model.diffusion**2 * s
        np.subtract(phi1 * s, inc, out=w[:, origin - 1::-1])
    return w


# ---------------------------------------------------------------------------
# Shared dispatch helpers

Model = VarianceFunction | LevyModel


def is_gaussian(model: Model) -> bool:
    return isinstance(model, VarianceFunction)


def is_line(model: Model) -> bool:
    """Whether ``model`` is the parametric alpha = 2 line b(t) = c t (``line_paths``)."""
    return is_gaussian(model) and model.parametric and model.alpha == 2.0


def w_matrix(model: Model, grid: GridSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    if is_gaussian(model):
        return gaussian_w_matrix(model, grid, rng, n)
    return levy_w_matrix(model, grid, rng, n)
