"""Parametric copula families: evaluation, sampling, rank correlation,
entropy, and maximum-likelihood fitting.

Families: Product (independence), Gaussian (correlation matrix), Clayton
(positive dependence, any dimension), Gumbel (bivariate), and Factorial
(independent blocks, one sub-copula per block). Densities are evaluated in
log space so extreme parameters and near-boundary points stay finite.
Clayton and Gumbel sample in one pass by Marshall-Olkin frailty: gamma for
Clayton, positive stable (Kanter's formula) for Gumbel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from .exceptions import FamilyDomainError
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
    "stationarity_residual",
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
    |rho|^{-1/2} exp(-q^T (rho^{-1} - I) q / 2). The cdf is implemented
    for the bivariate case only, by adaptive quadrature.
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
        q = ndtri(pts)
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

    def _log_powsum(self, log_u):
        # log(sum u_i^{-theta} - (d-1)) without overflow for extreme theta
        a = -self.theta * log_u
        m = a.max(axis=0)
        s = np.exp(a - m).sum(axis=0) - (self.dim - 1) * np.exp(-m)
        return m + np.log(s)

    def _cdf(self, pts):
        return np.exp(-self._log_powsum(np.log(pts)) / self.theta)

    @staticmethod
    def _log_terms(pts):
        """The theta-free terms of the log density: log u and its sum over
        the channels."""
        log_u = np.log(pts)
        return log_u, log_u.sum(axis=0)

    def _log_density_of(self, terms):
        """Log density from the terms of :meth:`_log_terms`."""
        log_u, log_u_sum = terms
        th, d = self.theta, self.dim
        lead = np.log1p(th * np.arange(1, d)).sum()
        return lead - (th + 1.0) * log_u_sum - (1.0 / th + d) * self._log_powsum(log_u)

    def _log_density(self, pts):
        return self._log_density_of(self._log_terms(pts))

    def _sample(self, n, rng):
        # gamma-frailty construction: u_i = (1 + e_i / v)^{-1/theta}
        v = rng.gamma(1.0 / self.theta, 1.0, n)
        e = rng.exponential(1.0, (self.dim, n))
        u = np.exp(-np.log1p(e / v) / self.theta)
        return np.clip(u, _U_LO, _U_HI)


@dataclass(frozen=True, eq=False)
class GumbelCopula(Copula):
    """Bivariate Gumbel copula, theta >= 1.

    C(u,v) = exp(-((-ln u)^theta + (-ln v)^theta)^{1/theta}).
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
        # log_s = log((-ln u)^theta + (-ln v)^theta)
        log_x = np.log(-np.log(pts))
        log_s = np.logaddexp(self.theta * log_x[0], self.theta * log_x[1])
        return np.exp(-np.exp(log_s / self.theta))

    @staticmethod
    def _log_terms(pts):
        """The theta-free terms of the log density: log(-log u) per
        channel, its sum over the channels, and the sum of log u."""
        log_u = np.log(pts)
        log_x = np.log(-log_u)
        return log_x, log_x[0] + log_x[1], log_u.sum(axis=0)

    def _log_density_of(self, terms):
        """Log density from the terms of :meth:`_log_terms`."""
        log_x, log_x_sum, log_u_sum = terms
        th = self.theta
        log_s = np.logaddexp(th * log_x[0], th * log_x[1])
        s_root = np.exp(log_s / th)
        return (
            -s_root
            + (th - 1.0) * log_x_sum
            + (1.0 / th - 2.0) * log_s
            + np.log(s_root + th - 1.0)
            - log_u_sum
        )

    def _log_density(self, pts):
        return self._log_density_of(self._log_terms(pts))

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


def _mean_tau(rho: np.ndarray) -> float:
    """Kendall's tau at the mean off-diagonal Spearman rho of ``rho``, mapped after
    averaging by the gaussian-copula relation tau = (2/pi) asin(2 sin(pi rho / 6)) (Kruskal 1958)."""
    mean_rho = float(np.clip(np.mean(rho[np.triu_indices(len(rho), 1)]), -1.0, 1.0))
    return 2.0 / math.pi * math.asin(2.0 * math.sin(math.pi * mean_rho / 6.0))


def normal_scores_correlation(values) -> np.ndarray:
    """Correlation matrix of the normal scores ndtri(u), symmetrized."""
    q = ndtri(np.asarray(values, dtype=float))
    rho = np.atleast_2d(np.corrcoef(q))
    rho = 0.5 * (rho + rho.T)
    np.fill_diagonal(rho, 1.0)
    return rho


def copula_entropy(model: Copula, pseudo: PseudoObservations) -> float:
    """Empirical cross-entropy -mean log density of the model on the data.

    For factorial models this is computed block by block, so entropy is
    additive over blocks by construction.
    """
    if pseudo.n_channels != model.dim:
        raise ValueError(f"model dimension {model.dim} does not match data with {pseudo.n_channels} channels")
    if isinstance(model, FactorialCopula):
        total = 0.0
        for channels, block in zip(model.partition.blocks, model.blocks):
            total += copula_entropy(block, pseudo.restrict(channels))
        return total
    value = -float(np.mean(model._log_density(pseudo.values)))
    return value + 0.0


# Golden-section tolerance on theta, and how many times an optimum on an
# interior bracket edge widens that side fourfold before the fit gives up.
_THETA_TOL = 1e-6
_BRACKET_WIDENINGS = 4


def _golden_section_max(f, lo: float, hi: float) -> float:
    """Deterministic golden-section maximizer on [lo, hi], to a bracket of
    _THETA_TOL."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > _THETA_TOL:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def _theta_from_tau(family: str, tau):
    """Kendall-tau inversion: clayton 2 tau / (1 - tau), gumbel 1 / (1 - tau)."""
    return 2.0 * tau / (1.0 - tau) if family == "clayton" else 1.0 / (1.0 - tau)


def _fit_archimedean(pseudo: PseudoObservations, family: str, tau: float):
    """Maximum pseudo-likelihood clayton or gumbel fit, given a Kendall
    tau estimate for the block (see ``_mean_tau``).

    theta0 comes from the tau inversion, and a golden section searches
    [theta0/4, 4 theta0] intersected with the family domain. An optimum
    on a bracket edge that is not the domain bound (gumbel's theta = 1)
    widens that side fourfold and searches again, at most
    _BRACKET_WIDENINGS times. The theta-free log terms are computed once;
    each step evaluates only the theta-dependent remainder.

    Raises FamilyDomainError for gumbel beyond two channels, for tau <= 0
    (both families model positive dependence only), and when the optimum
    still lies on an interior edge after the last widening.
    """
    d = pseudo.n_channels
    if family == "gumbel" and d != 2:
        raise FamilyDomainError(f"gumbel is bivariate only, got dimension {d}")
    if tau <= 0.0:
        raise FamilyDomainError(f"{family} models positive dependence only; Spearman-based tau is {tau:.4f}")
    theta0 = _theta_from_tau(family, min(tau, 0.9999))
    cls = _THETA_FAMILIES[family]
    floor = cls._theta_floor
    terms = cls._log_terms(pseudo.values)

    def mean_log_density(th):
        return float(np.mean(cls(th, d)._log_density_of(terms)))

    lo, hi = max(floor, theta0 / 4.0), 4.0 * theta0
    for _ in range(_BRACKET_WIDENINGS + 1):
        theta = _golden_section_max(mean_log_density, lo, hi)
        if theta - lo <= _THETA_TOL and lo > floor:
            lo = max(floor, lo / 4.0)
        elif hi - theta <= _THETA_TOL:
            hi *= 4.0
        else:
            return cls(theta, d)
    raise FamilyDomainError(
        f"{family} likelihood still rises at the bracket edge theta = {theta:.6g} "
        f"after {_BRACKET_WIDENINGS} widenings"
    )


def fit_copula(pseudo: PseudoObservations, family: str) -> Copula:
    """Fit one copula family to pseudo-observations.

    product: no parameters. gaussian: normal-scores correlation matrix,
    eigenvalue-floored at 1e-8 and rescaled to unit diagonal.
    clayton/gumbel: theta initialized by inverting the tau of the mean
    pairwise Spearman rho of the ranks (``_mean_tau``), then maximum mean
    log density by golden-section search
    (tolerance 1e-6) on [theta0/4, 4*theta0] intersected with the family
    domain, widened where the optimum lands on an interior edge. Both
    model positive dependence only: a tau <= 0 raises
    FamilyDomainError, as does gumbel beyond two channels or an optimum
    that stays on a bracket edge after the widenings.
    """
    if family not in FAMILY_NAMES:
        raise ValueError(f"unknown family '{family}'; expected one of {FAMILY_NAMES}")
    if pseudo.n_samples < 100:
        raise ValueError(f"need at least 100 samples to fit a copula, got {pseudo.n_samples}")
    if family == "product":
        return ProductCopula(pseudo.n_channels)
    if family == "gaussian":
        rho = normal_scores_correlation(pseudo.values)
        evals, evecs = np.linalg.eigh(rho)
        if evals[0] < 1e-8:
            evals = np.maximum(evals, 1e-8)
            rho = (evecs * evals) @ evecs.T
            scale = np.sqrt(np.diag(rho))
            rho = rho / np.outer(scale, scale)
            rho = 0.5 * (rho + rho.T)
            np.fill_diagonal(rho, 1.0)
        return GaussianCopula(rho)
    return _fit_archimedean(pseudo, family, _mean_tau(_spearman(_average_ranks(pseudo.values))))


def stationarity_residual(model: Copula, pseudo: PseudoObservations) -> float:
    """Central finite difference, with step 1e-5, of mean log density with
    respect to theta.

    Near zero at an interior maximum-likelihood fit; used to verify the
    first-order optimality of fitted Clayton/Gumbel parameters.
    """
    cls = type(model)
    if cls not in _THETA_FAMILIES.values():
        raise ValueError("stationarity residual is defined for clayton and gumbel models")
    if pseudo.n_channels != model.dim:
        raise ValueError("data dimension does not match the model")
    th, step = model.theta, 1e-5
    if th - step <= cls._theta_floor:
        raise ValueError(f"theta = {th} is too close to the domain boundary for step {step}")
    up = float(np.mean(cls(th + step, model.dim)._log_density(pseudo.values)))
    down = float(np.mean(cls(th - step, model.dim)._log_density(pseudo.values)))
    return (up - down) / (2.0 * step)
