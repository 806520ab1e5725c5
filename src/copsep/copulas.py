"""Parametric copula families: evaluation, sampling, rank correlation,
entropy, and maximum-likelihood fitting.

Families: Product (independence), Gaussian (correlation matrix), Clayton
(positive dependence, any dimension), Gumbel (bivariate), and Factorial
(independent blocks, one sub-copula per block). Densities are evaluated in
log space so extreme parameters and near-boundary points stay finite.
Clayton and Gumbel sample in one pass by Marshall-Olkin frailty: gamma for
Clayton (drawn in log space where it underflows), positive stable
(Kanter's formula) for Gumbel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ndtr, ndtri

from .exceptions import DegenerateInputError, FamilyDomainError
from .margins import PseudoObservations, _average_ranks
from .signals import BlockPartition, _frozen_array

__all__ = [
    "ProductCopula",
    "GaussianCopula",
    "ClaytonCopula",
    "GumbelCopula",
    "FactorialCopula",
    "FAMILY_NAMES",
    "kendall_tau",
    "copula_entropy",
    "fit_copula",
    "normal_scores_correlation",
]

FAMILY_NAMES = ("product", "gaussian", "clayton", "gumbel")

# Samplers clip into this closed sub-interval of (0,1) so that a draw can
# never round onto the boundary where densities diverge.
_U_LO = 1e-300
_U_HI = float(np.nextafter(1.0, 0.0))


class Copula:
    """Shared evaluation plumbing; concrete families implement the
    underscore hooks on strictly interior (d, m) point arrays."""

    def _evaluate(self, hook, u):
        """``hook`` at the points ``u``: one point as a float, or a
        (d, m) array of them as an array of m values."""
        pts = np.asarray(u, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got shape {np.shape(u)}")
        if pts.size == 0:
            raise ValueError("no evaluation points given")
        if pts.min() <= 0.0 or pts.max() >= 1.0:
            raise ValueError("points must lie strictly inside the open unit cube")
        out = hook(pts)
        return float(out[0]) if single else out

    def cdf(self, u):
        return self._evaluate(self._cdf, u)

    def density(self, u):
        return self._evaluate(self._density, u)

    def log_density(self, u):
        return self._evaluate(self._log_density, u)

    def _density(self, pts):
        return np.exp(self._log_density(pts))

    def sample(self, n_samples: int, seed: int = 0) -> PseudoObservations:
        """Draw n_samples points from the copula, deterministic per seed."""
        if n_samples < 1:
            raise ValueError("need at least one sample")
        rng = np.random.default_rng(seed)
        return PseudoObservations(self._sample(n_samples, rng))


@dataclass(frozen=True, eq=False)
class ProductCopula(Copula):
    """Independence: C(u) = prod(u_i), density identically one."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")

    @property
    def family(self) -> str:
        return "product"

    def _cdf(self, pts):
        return np.prod(pts, axis=0)

    def _log_density(self, pts):
        return np.zeros(pts.shape[1])

    def _sample(self, n, rng):
        return rng.uniform(2.0 ** -53, 1.0, (self.dim, n))


@dataclass(frozen=True, eq=False)
class GaussianCopula(Copula):
    """Gaussian copula with correlation matrix ``correlation``.

    Density uses normal scores q = ndtri(u):
    |rho|^{-1/2} exp(-q^T (rho^{-1} - I) q / 2); scores of points on the
    rank lattice are read from a per-T table (``_normal_scores``), bit for
    bit ndtri's. The cdf is implemented for the bivariate case only, by
    adaptive quadrature.
    """

    correlation: np.ndarray

    def __post_init__(self):
        rho = _frozen_array(self.correlation, "correlation matrix", 2)
        d = rho.shape[0]
        if rho.shape != (d, d):
            raise ValueError(f"correlation matrix must be square, got {rho.shape}")
        if np.abs(rho - rho.T).max() > 1e-8:
            raise ValueError("correlation matrix must be symmetric")
        if np.abs(np.diag(rho) - 1.0).max() > 1e-8:
            raise ValueError("correlation matrix must have unit diagonal")
        if np.linalg.eigvalsh(rho)[0] <= 1e-10:
            raise ValueError("correlation matrix must have eigenvalues above 1e-10")
        object.__setattr__(self, "correlation", rho)

    @property
    def family(self) -> str:
        return "gaussian"

    @property
    def dim(self) -> int:
        return self.correlation.shape[0]

    def _cdf(self, pts):
        if self.dim != 2:
            raise NotImplementedError("gaussian copula cdf is implemented for dimension 2 only")
        r = float(self.correlation[0, 1])
        scores = ndtri(pts)
        return np.array([_bvn_cdf(a, b, r) for a, b in scores.T])

    def _log_density(self, pts):
        return self._log_density_of_scores(_normal_scores(pts))

    def _log_density_of_scores(self, q):
        """Log density at the points whose normal scores are q (d x m)."""
        shift = np.linalg.inv(self.correlation) - np.eye(self.dim)
        quad_form = np.einsum("dm,de,em->m", q, shift, q)
        _, logdet = np.linalg.slogdet(self.correlation)
        return -0.5 * logdet - 0.5 * quad_form

    def _sample(self, n, rng):
        chol = np.linalg.cholesky(self.correlation)
        z = chol @ rng.standard_normal((self.dim, n))
        return np.clip(ndtr(z), _U_LO, _U_HI)


@dataclass(frozen=True, eq=False)
class ClaytonCopula(Copula):
    """Clayton copula, positive dependence, any dimension >= 2.

    C(u) = (sum u_i^{-theta} - d + 1)^{-1/theta} with theta > 0.
    The cdf, the log density and the theta search's mean log density
    build their one theta-dependent row with one kernel, ``_row``, from
    the theta-free terms of ``_terms``, so no power overflows at any theta.
    """

    theta: float
    dim: int = 2

    _theta_floor = 0.0

    def __post_init__(self):
        if not 0.0 < self.theta < math.inf:
            raise ValueError(f"clayton needs theta > 0 and finite, got {self.theta}")
        if self.dim < 2:
            raise ValueError("clayton needs dimension at least 2")
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def family(self) -> str:
        return "clayton"

    def _cdf(self, pts):
        lo, gaps, _ = self._terms(np.log(pts), None)
        return np.exp(lo - self._row(self.theta, lo, gaps) / self.theta)

    @staticmethod
    def _terms(log_u, log_x):
        """The theta-free terms of the log density per sample, from log u
        (d x ...): the least log u, lo; the gaps g_i = log u_i - lo >= 0
        (for d = 2 only |log u_0 - log u_1|, the least channel's gap 0 left
        out); and sum log u. ``log_x`` = log(-log u) is not needed."""
        lo = log_u.min(axis=0)
        gaps = np.abs(log_u[:1] - log_u[1:]) if len(log_u) == 2 else log_u - lo
        return lo, gaps, log_u.sum(axis=0)

    @staticmethod
    def _row(th, lo, gaps):
        """The one theta-dependent row, R = log(sum e^{-theta g_i}
        - (d - 1) e^{theta lo}), by log1p for d = 2, whose term e^0 = 1 is
        left out: log(sum u_i^{-theta} - d + 1) = R - theta lo, and every
        exponent is <= 0, so nothing overflows at any theta."""
        d = max(len(gaps), 2)
        row = np.multiply(lo, th)
        np.exp(row, out=row)
        row *= 1 - d
        work = np.multiply(gaps, -th)
        np.exp(work, out=work)
        for term in work:
            row += term
        return np.log1p(row, out=row) if len(gaps) < d else np.log(row, out=row)

    @classmethod
    def _log_density_at(cls, th, terms):
        """Log density at theta ``th`` from the terms of :meth:`_terms`,
        sum_{k < d} log(1 + k theta) - (theta + 1) sum log u_i
        - (1 / theta + d)(R - theta lo), with R from :meth:`_row`: th is a
        float, or a column with one theta per row of the term arrays.
        ``terms`` is left unchanged."""
        lo, gaps, log_u_sum = terms
        d = max(len(gaps), 2)
        # log prod_{k < d} (1 + k theta), one per theta
        lead = np.log1p(th * np.arange(1, d)).sum(axis=-1, keepdims=True)
        log_powsum = cls._row(th, lo, gaps)
        log_powsum -= th * lo
        log_powsum *= 1.0 / th + d
        out = (th + 1.0) * log_u_sum
        np.subtract(lead, out, out=out)
        out -= log_powsum
        return out

    def _log_density(self, pts):
        return self._log_density_at(self.theta, self._terms(np.log(pts), None))

    @classmethod
    def _mean_log_density_at(cls, th, terms, means):
        """Mean log density at the float theta ``th`` from the terms of
        :meth:`_terms` and their sample means ``means``: the sum of
        :meth:`_log_density_at` with each theta-free term replaced by its
        mean, so a theta search averages only the row R per step."""
        lo, gaps, _ = terms
        mean_lo, _, mean_log_u_sum = means
        d = max(len(gaps), 2)
        lead = sum(math.log1p(th * k) for k in range(1, d))
        # sum / T is np.mean's arithmetic without its call overhead
        mean_row = cls._row(th, lo, gaps).sum() / len(lo)
        return lead - (th + 1.0) * mean_log_u_sum - (1.0 / th + d) * (mean_row - th * mean_lo)

    def _sample(self, n, rng):
        # gamma-frailty construction: u_i = (1 + e_i / v)^{-1/theta}
        v = rng.gamma(1.0 / self.theta, 1.0, n)
        if v.all():
            e = rng.exponential(1.0, (self.dim, n))
            with np.errstate(over="ignore"):
                ratio = e / v
            u = np.exp(-np.log1p(ratio) / self.theta)
            # e / v overflows where v is subnormal (theta of about 50 and
            # above); there log1p(e / v) is log e - log v to rounding
            i, j = np.nonzero(np.isinf(ratio))
            u[i, j] = np.exp((np.log(v[j]) - np.log(e[i, j])) / self.theta)
        else:
            # at theta of about 100 and above gamma(1 / theta) draws underflow
            # to 0, so this call draws log v instead: v = g w^theta with
            # g ~ gamma(1 / theta + 1) and w uniform, log w = -x, x ~ Exp(1);
            # then log1p(e / v) = logaddexp(0, log e - log v)
            log_v = np.log(rng.gamma(1.0 / self.theta + 1.0, 1.0, n))
            x = rng.exponential(1.0, n)
            with np.errstate(over="ignore"):
                log_v -= self.theta * x
            # theta * x overflows only at theta near the double maximum, and
            # then x >= 1, so log1p(e / v) / theta = x + (log e - log g) / theta
            # is x to rounding, unless e = 0
            over = np.isinf(log_v)
            log_v[over] = 0.0
            with np.errstate(divide="ignore"):
                log_ratio = np.log(rng.exponential(1.0, (self.dim, n)))
            log_ratio -= log_v
            u = np.exp(-np.logaddexp(0.0, log_ratio) / self.theta)
            i, j = np.nonzero(over & (log_ratio > -np.inf))
            u[i, j] = np.exp(-x[j])
        return np.clip(u, _U_LO, _U_HI)


@dataclass(frozen=True, eq=False)
class GumbelCopula(Copula):
    """Bivariate Gumbel copula, theta >= 1.

    C(u,v) = exp(-((-ln u)^theta + (-ln v)^theta)^{1/theta}).
    The cdf, the log density and the theta search's mean log density
    build their theta-dependent rows with one kernel, ``_rows``, from the
    theta-free terms of ``_terms``, so no power overflows at any theta.
    ``dim`` accepts only 2; it lets gumbel be built like clayton, ``(theta, dim)``.
    Sampled by Marshall-Olkin with a positive-stable frailty of index 1/theta.
    """

    theta: float
    dim: int = 2

    _theta_floor = 1.0

    def __post_init__(self):
        if self.dim != 2:
            raise ValueError(f"gumbel needs exactly 2 channels, got {self.dim}")
        if not 1.0 <= self.theta < math.inf:
            raise ValueError(f"gumbel needs theta >= 1 and finite, got {self.theta}")
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def family(self) -> str:
        return "gumbel"

    def _cdf(self, pts):
        log_u = np.log(pts)
        gap, x_hi, *_ = self._terms(log_u, np.log(-log_u))
        return np.exp(-self._rows(self.theta, gap, x_hi)[1])

    @staticmethod
    def _terms(log_u, log_x):
        """The theta-free terms of the log density per sample, from log u
        and log x = log(-log u) (2 x ...): |log x_0 - log x_1|,
        max(x_0, x_1), max(log x_0, log x_1), sum log x and sum log u."""
        gap = np.abs(log_x[0] - log_x[1])
        x_hi = -np.minimum(log_u[0], log_u[1])
        return gap, x_hi, np.maximum(log_x[0], log_x[1]), log_x[0] + log_x[1], log_u[0] + log_u[1]

    @staticmethod
    def _rows(th, gap, x_hi):
        """The theta-dependent rows l = log1p(e^{-theta gap}) and
        s^(1/theta) = max(x_i) e^{l / theta}, where s = sum x_i^theta and
        log s = theta max(log x_i) + l: e^{l / theta} is at most
        2^(1/theta) <= 2, so nothing overflows at any theta."""
        l = np.multiply(gap, -th)
        np.exp(l, out=l)
        np.log1p(l, out=l)
        s_root = l / th
        np.exp(s_root, out=s_root)
        s_root *= x_hi
        return l, s_root

    @classmethod
    def _log_density_at(cls, th, terms):
        """Log density at theta ``th`` from the terms of :meth:`_terms`,
        with l and s^(1/theta) from :meth:`_rows`,
        (1 / theta - 2) log s - s^(1/theta) + (theta - 1) sum log x_i
        + log(s^(1/theta) + theta - 1) - sum log u_i:
        as for clayton, th is a float or a column of thetas, and ``terms``
        is left unchanged."""
        gap, x_hi, hi, log_x_sum, log_u_sum = terms
        l, s_root = cls._rows(th, gap, x_hi)
        # log s = theta max(log x_i) + l
        out = th * hi
        out += l
        out *= 1.0 / th - 2.0
        out -= s_root
        out += (th - 1.0) * log_x_sum
        s_root += th - 1.0
        out += np.log(s_root, out=s_root)
        out -= log_u_sum
        return out

    def _log_density(self, pts):
        log_u = np.log(pts)
        return self._log_density_at(self.theta, self._terms(log_u, np.log(-log_u)))

    @classmethod
    def _mean_log_density_at(cls, th, terms, means):
        """Mean log density at the float theta ``th``, as for clayton: the
        sum of :meth:`_log_density_at` with each theta-free term replaced
        by its mean, so a step averages only the rows."""
        gap, x_hi = terms[:2]
        mean_hi, mean_log_x_sum, mean_log_u_sum = means[2:]
        t = len(gap)
        l, s_root = cls._rows(th, gap, x_hi)
        mean_s_root = s_root.sum() / t
        s_root += th - 1.0
        np.log(s_root, out=s_root)
        return (
            (th - 1.0) * mean_log_x_sum - mean_s_root + (1.0 / th - 2.0) * (th * mean_hi + l.sum() / t)
            + s_root.sum() / t - mean_log_u_sum
        )

    def _sample(self, n, rng):
        # Marshall-Olkin frailty as for clayton: u_i = exp(-(e_i / v)^a) with v
        # positive stable of index a = 1/theta, by Kanter's formula from a
        # uniform angle and -log w, w ~ Exp(1), which rng.gumbel draws finite.
        a = 1.0 / self.theta
        angle = np.pi * rng.uniform(2.0 ** -53, 1.0, n)
        a_log_v = a * np.log(np.sin(a * angle)) - np.log(np.sin(angle))
        if a < 1.0:
            a_log_v += (1.0 - a) * (np.log(np.sin((1.0 - a) * angle)) + rng.gumbel(0.0, 1.0, n))
        e = rng.exponential(1.0, (2, n))
        return np.clip(np.exp(-e ** a * np.exp(-a_log_v)), _U_LO, _U_HI)


@dataclass(frozen=True, eq=False)
class FactorialCopula(Copula):
    """Product of independent block copulas over a channel partition.

    The density factorizes exactly: evaluating the factorial density is,
    by construction, the left-to-right product of its block densities.
    """

    partition: BlockPartition
    blocks: tuple

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if len(blocks) != self.partition.n_blocks:
            raise ValueError(
                f"partition has {self.partition.n_blocks} blocks, got {len(blocks)} copulas"
            )
        for channels, model in zip(self.partition.blocks, blocks):
            if isinstance(model, FactorialCopula):
                raise ValueError("factorial blocks must not be factorial themselves")
            if not isinstance(model, Copula):
                raise TypeError(f"block model {model!r} is not a copula")
            if model.dim != len(channels):
                raise ValueError(
                    f"block {channels} has {len(channels)} channels but copula dimension {model.dim}"
                )
        object.__setattr__(self, "blocks", blocks)

    @property
    def family(self) -> str:
        return "factorial"

    @property
    def dim(self) -> int:
        return self.partition.n_channels

    def _cdf(self, pts):
        out = np.ones(pts.shape[1])
        for channels, model in zip(self.partition.blocks, self.blocks):
            out = out * model._cdf(pts[list(channels), :])
        return out

    def _density(self, pts):
        out = np.ones(pts.shape[1])
        for channels, model in zip(self.partition.blocks, self.blocks):
            out = out * model._density(pts[list(channels), :])
        return out

    def _log_density(self, pts):
        out = np.zeros(pts.shape[1])
        for channels, model in zip(self.partition.blocks, self.blocks):
            out = out + model._log_density(pts[list(channels), :])
        return out

    def _sample(self, n, rng):
        out = np.empty((self.dim, n))
        for channels, model in zip(self.partition.blocks, self.blocks):
            out[list(channels), :] = model._sample(n, rng)
        return out


# The one-parameter families, which model positive dependence only and are
# not invariant under sign flips of the components. Each class is built as
# cls(theta, dim), and its theta domain starts at cls._theta_floor.
_THETA_FAMILIES = {"clayton": ClaytonCopula, "gumbel": GumbelCopula}


def _bvn_cdf(a: float, b: float, r: float) -> float:
    """Standard bivariate normal cdf P(X <= a, Y <= b) by 1-d quadrature."""
    from scipy.integrate import quad  # here, its only use: it adds about 27 ms to the import of copsep

    s = np.sqrt(1.0 - r * r)
    norm = 1.0 / np.sqrt(2.0 * np.pi)

    def integrand(x):
        return norm * np.exp(-0.5 * x * x) * ndtr((b - r * x) / s)

    value, _ = quad(integrand, -np.inf, a, epsabs=1e-12, epsrel=1e-12, limit=200)
    return min(max(value, 0.0), 1.0)


def _tied_pairs(values) -> int:
    _, counts = np.unique(values, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def kendall_tau(x, y) -> float:
    """Kendall rank correlation (concordant - discordant) / C(T,2).

    Tied pairs contribute zero to the numerator; the denominator counts
    all pairs. O(T log T): the integer numerator is recovered exactly from
    scipy's tau-b, whose denominator is sqrt((n0 - n1)(n0 - n2)) with n1, n2
    the pairs tied in x and in y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"need two equal-length vectors, got shapes {x.shape} and {y.shape}")
    t = x.shape[0]
    if t < 2:
        raise ValueError("kendall tau needs at least 2 observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("inputs contain non-finite entries")
    n0 = t * (t - 1) // 2
    n1 = _tied_pairs(x)
    n2 = _tied_pairs(y)
    if n1 == n0 or n2 == n0:
        return 0.0
    from scipy.stats import kendalltau  # here, its only use: scipy.stats is slow to import
    tau_b = kendalltau(x, y, variant="b").statistic
    con_minus_dis = round(tau_b * math.sqrt(n0 - n1) * math.sqrt(n0 - n2))
    return con_minus_dis / n0


def _spearman(ranks: np.ndarray) -> np.ndarray:
    """Spearman's rho of every pair of rows of ``ranks`` by one product of the
    centred rows; 0 along a constant row. On average ranks every product and
    sum is exact, so negating a row of the data negates its rho bit for bit."""
    centred = ranks - ranks.mean(axis=1, keepdims=True)
    product = centred @ centred.T
    scale = np.sqrt(np.diag(product))
    scale[scale == 0.0] = np.inf
    return product / np.outer(scale, scale)


def _mean_tau(upper: np.ndarray) -> float:
    """Kendall's tau at the mean of the Spearman rhos ``upper``, the entries
    above the diagonal of a rho matrix row by row, mapped after averaging
    by the gaussian-copula relation tau = (2/pi) asin(2 sin(pi rho / 6)) (Kruskal 1958)."""
    mean_rho = float(np.clip(np.mean(upper), -1.0, 1.0))
    return 2.0 / math.pi * math.asin(2.0 * math.sin(math.pi * mean_rho / 6.0))


@lru_cache(maxsize=4)
def _normal_score_table(t: int) -> np.ndarray:
    """ndtri at the half-rank lattice (j / 2) / (T + 1), j = 0..2(T + 1), read-only."""
    table = ndtri(np.arange(2 * t + 3) / 2 / (t + 1))
    table.flags.writeable = False
    return table


def _normal_scores(u) -> np.ndarray:
    """ndtri(u), bit for bit, for any input.

    Pseudo-observations of T samples are average ranks over T + 1, values
    on the half-rank lattice (j / 2) / (T + 1). For a 2-D u whose first
    value lies on its lattice, each value takes the index
    j = rint(2 (T + 1) u) into a cached ndtri table of that lattice
    (``_normal_score_table``); a value is read from the table only where
    the lattice value (j / 2) / (T + 1) == u, and every other value goes
    through ndtri. The work arrays are the result and one index array.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.size == 0:
        return ndtri(u)
    t = u.shape[1]
    top = 2 * t + 2
    first = u[0, 0]
    j = np.rint(first * top)
    if not (0 < j < top and j / 2 / (t + 1) == first):
        return ndtri(u)
    table = _normal_score_table(t)
    scores = np.multiply(u, top)
    np.rint(scores, out=scores)
    # fmax and fmin send NaN to 0 and keep every index in the table
    np.fmax(scores, 0.0, out=scores)
    np.fmin(scores, top, out=scores)
    index = scores.astype(np.intp)
    scores *= 0.5
    scores /= t + 1
    off_lattice = scores != u
    # the indices are in range, so "clip" changes nothing and spares take a buffer
    table.take(index, out=scores, mode="clip")
    if off_lattice.any():
        scores[off_lattice] = ndtri(u[off_lattice])
    return scores


def normal_scores_correlation(values) -> np.ndarray:
    """Correlation matrix of the normal scores ndtri(u), symmetrized; the
    scores of pseudo-observations come from a per-T table
    (``_normal_scores``), bit for bit ndtri's.

    Raises DegenerateInputError for a constant channel, whose correlation
    with any other channel is undefined.
    """
    return _scores_correlation(np.atleast_2d(_normal_scores(values)))


def _scores_correlation(q) -> np.ndarray:
    """``normal_scores_correlation`` from the normal scores q (d x T)."""
    constant = np.flatnonzero(q.min(axis=1) == q.max(axis=1))
    if constant.size:
        raise DegenerateInputError(f"channel {constant[0]} is constant; its normal-scores correlation is undefined")
    rho = np.atleast_2d(np.corrcoef(q))
    rho = 0.5 * (rho + rho.T)
    np.fill_diagonal(rho, 1.0)
    return rho


def copula_entropy(model: Copula, pseudo: PseudoObservations) -> float:
    """Empirical cross-entropy -mean log density of the model on the data.

    For factorial models this is computed block by block, so entropy is
    additive over blocks by construction: each block's rows of the
    pseudo-observations go straight to its density kernel, and a product
    block, whose log density is 0 everywhere, adds exactly 0.0, so it is
    not evaluated. The sum starts at +0.0, so, like the entropy of a
    single model, it never reads -0.0.
    """
    if pseudo.n_channels != model.dim:
        raise ValueError(f"model dimension {model.dim} does not match data with {pseudo.n_channels} channels")
    if not isinstance(model, FactorialCopula):
        return -float(np.mean(model._log_density(pseudo.values))) + 0.0
    total = 0.0
    for channels, block in zip(model.partition.blocks, model.blocks):
        if not isinstance(block, ProductCopula):
            total -= float(np.mean(block._log_density(pseudo.values[list(channels)])))
    return total


# Tolerance of the bounded Brent search on theta, and how many times an
# optimum on an interior bracket edge widens that side fourfold before the
# fit gives up.
_THETA_TOL = 1e-6
_BRACKET_WIDENINGS = 4


def _theta_from_tau(family: str, tau):
    """Kendall-tau inversion: clayton 2 tau / (1 - tau), gumbel 1 / (1 - tau)."""
    return 2.0 * tau / (1.0 - tau) if family == "clayton" else 1.0 / (1.0 - tau)


def _fit_archimedean(values: np.ndarray, family: str, tau: float, log_u: np.ndarray | None = None):
    """Maximum pseudo-likelihood clayton or gumbel fit to the
    pseudo-observations ``values`` (d x T), given a Kendall tau estimate
    for the block (see ``_mean_tau``), and its mean log density;
    ``log_u``, when given, is np.log(values), which a caller searching
    both families on the same values takes once.

    theta0 comes from the tau inversion, and scipy's bounded Brent search
    (to _THETA_TOL) minimizes the negated mean log density on
    [theta0/4, 4 theta0] intersected with the family domain. Brent may stop
    a few _THETA_TOL short of an edge, so edges are tested by value: an
    edge that is not the domain bound (gumbel's theta = 1) and scores no
    worse than the search's optimum widens that side fourfold, lo first,
    and the search runs again, at most _BRACKET_WIDENINGS times. The
    family's theta-free terms (``_terms``) and their sample means are
    computed once; each Brent step and edge test passes its theta, the
    terms and the means to the family's ``_mean_log_density_at``, which
    builds only the theta-dependent rows and averages them; no copula is
    built until the search ends. The mean log density returned is
    evaluated once, at the optimum, from the same terms by the family's
    ``_log_density_at``: bit for bit np.mean(model.log_density(values)).

    Returns
    -------
    (model, mean_log_density) : (ClaytonCopula | GumbelCopula, float)

    Raises FamilyDomainError for gumbel beyond two channels, for tau <= 0
    (both families model positive dependence only), and when the optimum
    still lies on an interior edge after the last widening.
    """
    d = values.shape[0]
    if family == "gumbel" and d != 2:
        raise FamilyDomainError(f"gumbel is bivariate only, got dimension {d}")
    if tau <= 0.0:
        raise FamilyDomainError(f"{family} models positive dependence only; Spearman-based tau is {tau:.4f}")
    theta0 = _theta_from_tau(family, min(tau, 0.9999))
    cls = _THETA_FAMILIES[family]
    floor = cls._theta_floor
    if log_u is None:
        log_u = np.log(values)
    log_x = np.log(-log_u) if family == "gumbel" else None
    terms = cls._terms(log_u, log_x)
    means = tuple(term.mean(axis=-1) for term in terms)

    def loss(th):
        return -float(cls._mean_log_density_at(th, terms, means))

    lo, hi = max(floor, theta0 / 4.0), 4.0 * theta0
    for _ in range(_BRACKET_WIDENINGS + 1):
        fit = minimize_scalar(loss, bounds=(lo, hi), method="bounded", options={"xatol": _THETA_TOL})
        if lo > floor and loss(lo) <= fit.fun:
            lo = max(floor, lo / 4.0)
        elif loss(hi) <= fit.fun:
            hi *= 4.0
        else:
            model = cls(fit.x, d)
            return model, float(np.mean(cls._log_density_at(model.theta, terms)))
    raise FamilyDomainError(
        f"{family} likelihood still rises at the bracket edge theta = {fit.x:.6g} "
        f"after {_BRACKET_WIDENINGS} widenings"
    )


def _gaussian_of_scores(q) -> GaussianCopula:
    """The gaussian fit of ``fit_copula`` from the normal scores q (d x T)."""
    rho = _scores_correlation(q)
    evals, evecs = np.linalg.eigh(rho)
    if evals[0] < 1e-8:
        evals = np.maximum(evals, 1e-8)
        rho = (evecs * evals) @ evecs.T
        scale = np.sqrt(np.diag(rho))
        rho = rho / np.outer(scale, scale)
        rho = 0.5 * (rho + rho.T)
        np.fill_diagonal(rho, 1.0)
    return GaussianCopula(rho)


def _fit_gaussian(values: np.ndarray):
    """The gaussian fit of ``fit_copula`` to the pseudo-observations
    ``values`` (d x T) and its mean log density, both from one array of
    normal scores: bit for bit np.mean(model.log_density(values)).

    Returns
    -------
    (model, mean_log_density) : (GaussianCopula, float)
    """
    q = _normal_scores(values)
    model = _gaussian_of_scores(q)
    return model, float(np.mean(model._log_density_of_scores(q)))


def fit_copula(pseudo: PseudoObservations, family: str) -> Copula:
    """Fit one copula family to pseudo-observations.

    product: no parameters. gaussian: normal-scores correlation matrix,
    eigenvalue-floored at 1e-8 and rescaled to unit diagonal.
    clayton/gumbel: theta initialized by inverting the tau of the mean
    pairwise Spearman rho of the ranks (``_mean_tau``), then maximum mean
    log density by scipy's bounded Brent search (tolerance 1e-6) on
    [theta0/4, 4*theta0] intersected with the family domain, widened
    where an interior edge scores no worse than the search's optimum. Both
    model dependence between channels, positive only: fewer than two
    channels or a tau <= 0 raises FamilyDomainError, as does gumbel beyond
    two channels or an optimum that stays on a bracket edge after the
    widenings.
    """
    if family not in FAMILY_NAMES:
        raise ValueError(f"unknown family '{family}'; expected one of {FAMILY_NAMES}")
    if pseudo.n_samples < 100:
        raise ValueError(f"need at least 100 samples to fit a copula, got {pseudo.n_samples}")
    if family == "product":
        return ProductCopula(pseudo.n_channels)
    if family == "gaussian":
        return _gaussian_of_scores(_normal_scores(pseudo.values))
    if pseudo.n_channels < 2:
        raise FamilyDomainError(
            f"{family} models dependence between channels and needs at least 2, got {pseudo.n_channels}"
        )
    rho = _spearman(_average_ranks(pseudo.values))
    return _fit_archimedean(pseudo.values, family, _mean_tau(rho[np.triu_indices(len(rho), 1)]))[0]

