"""Two-phase separation: rotation estimation (phase 1), then dependence
modeling on the recovered components (phase 2) with a divergence report.

Phase 2 consumes ranks only, so its outputs are invariant under strictly
increasing per-channel transforms of the recovered sources. Between the
phases, ``cca_fit`` refines each dependent pair by a within-block linear
transform; that step also uses the component values, through their
m-spacing entropies.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import product as _cartesian

import numpy as np
from scipy.optimize import minimize
from scipy.sparse.csgraph import connected_components
from scipy.special import ndtri

from .copulas import (
    _THETA_FAMILIES,
    FAMILY_NAMES,
    Copula,
    FactorialCopula,
    GaussianCopula,
    ProductCopula,
    _fit_archimedean,
    _fit_gaussian,
    _mean_tau,
    _spearman,
    _theta_from_tau,
    copula_entropy,
    fit_copula,  # unused here; perfbench/tracer.py wraps inference.fit_copula
    kendall_tau,  # unused here; perfbench/tracer.py wraps inference.kendall_tau
    normal_scores_correlation,
)
from .exceptions import BlockFitError, CopsepError, FamilyDomainError
from .ica import fastica, mutual_information, normalize_components
from .margins import MarginalModel, PseudoObservations, _average_ranks, _rank_lattice, pseudo_observations
from .signals import BlockPartition, SeparationModel, SignalMatrix, center_and_whiten

__all__ = [
    "FitReport",
    "cca_fit",
    "fit_dependence",
    "detect_partition",
    "kl_decomposition",
    "average_log_likelihood",
]

# fit_dependence joins two of n components into a block when |rho| of
# their ranks r, or of their energies |2r - (T + 1)|, exceeds z / sqrt(T - 1):
# 1 / sqrt(T - 1) is the standard deviation of Spearman's rho between
# independent channels, and z is the Bonferroni normal quantile that keeps
# the chance of any false edge among the 2 C(n, 2) two-sided tests at this
# level.
_FAMILY_WISE_LEVEL = 1e-3

# The within-block search scores every pair of directions on a grid of
# _GRID_ANGLES angles over [0, 2 pi) on a strided subsample of about
# _GRID_SAMPLES samples, then polishes the best _POLISH_STARTS pairs per
# family on about _POLISH_SAMPLES samples. Nelder-Mead stops once its
# simplex spans at most _POLISH_XATOL in every parameter and
# _POLISH_FATOL in mean log likelihood: the resolution the subsample has.
# Polishing the best start of 15 pairs (10 gumbel, 5 clayton, theta 2,
# T = 20 000, the cli-loop synth recipe) on each of their four disjoint
# 5 000-sample subsamples, the optimal angles had a standard deviation of
# 0.025 rad (median over the pairs; 0.009 to 0.066) and the subsample's
# best mean log likelihood one of 0.015 nats, and on all samples one
# subsample's optimum scored a median 4e-4 nats below the point that
# averages the four. So the stop allows about two standard deviations of
# the angles and about twice the likelihood the subsample's noise costs.
_GRID_ANGLES = 36
_GRID_SAMPLES = 2000
_POLISH_STARTS = 2
_POLISH_SAMPLES = 5000
_POLISH_XATOL = 5e-2
_POLISH_FATOL = 1e-3
# The grid starts of a family are scored _GRID_BATCH at a time, so that
# each temporary of a batch holds 16 x 2 000 doubles (256 KiB) and a
# batch's few temporaries stay in a 2 MiB L2 cache. On the cli-loop input
# (2-core VM) a grid took about 30 ms in batches of 8 or 16, 50-57 ms in
# batches of 32, and 70-80 ms as one batch of all its starts.
_GRID_BATCH = 16


@dataclass(frozen=True, eq=False)
class FitReport:
    """Outcome of a full two-phase fit, in nats; ``log_likelihood`` is the mean
    log density of the sources (histogram margins plus copula), no log|det W| term."""

    mutual_information: float
    copula_entropy: float
    log_likelihood: float
    partition: BlockPartition
    copula: FactorialCopula
    ica_iterations: int
    seed: int
    density_floor_hit: bool

    def __post_init__(self):
        for name in ("mutual_information", "copula_entropy", "divergence", "log_likelihood"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} is not finite")

    @property
    def divergence(self) -> float:
        """mutual_information + copula_entropy, exactly."""
        return self.mutual_information + self.copula_entropy


def _parameter_count(model: Copula) -> int:
    if isinstance(model, ProductCopula):
        return 0
    if isinstance(model, GaussianCopula):
        d = model.dim
        return d * (d - 1) // 2
    if type(model) in _THETA_FAMILIES.values():
        return 1
    raise ValueError(f"no parameter count for {type(model).__name__}")


def _check_menu(menu):
    menu = tuple(menu)
    if not menu:
        raise ValueError("family menu must not be empty")
    for name in menu:
        if name not in FAMILY_NAMES:
            raise ValueError(f"unknown family '{name}'; expected one of {FAMILY_NAMES}")
    return menu


def _bic_penalty(n_params: int, n_samples: int) -> float:
    """Bayesian information criterion per sample: k log T / (2 T)."""
    return n_params * np.log(n_samples) / (2.0 * n_samples)


def _energy_ranks(u: np.ndarray) -> np.ndarray:
    """Average ranks within each row of the energies of the
    pseudo-observations u = r / (T + 1): the integers e = |2r - (T + 1)|
    in 0..T, which hold many ties, as u and 1 - u share an energy exactly.

    A counting sort ranks them: with c[e] the number of samples of energy
    e, those samples get cumsum(c)[e] - (c[e] - 1) / 2, bit for bit what
    ``_average_ranks`` gives. That rank is worked out once per energy, in
    a table of T + 1 entries, and each row gathers from its table once.
    """
    t = u.shape[1]
    ranks = np.empty_like(u)
    for row, row_ranks in zip(u, ranks):
        energy = np.abs(np.rint((2.0 * row - 1.0) * (t + 1))).astype(np.intp)
        counts = np.bincount(energy, minlength=t + 1)
        table = np.cumsum(counts) - (counts - 1) / 2
        # energies lie in 0..T, so "clip" changes nothing and spares take a buffer
        table.take(energy, out=row_ranks, mode="clip")
    return ranks


def _detection_threshold(n_channels: int, n_samples: int) -> float:
    """The |rho| above which ``detect_partition`` joins two channels (see
    _FAMILY_WISE_LEVEL)."""
    tests = max(1, n_channels * (n_channels - 1))
    return float(-ndtri(_FAMILY_WISE_LEVEL / (2 * tests)) / np.sqrt(n_samples - 1))


def detect_partition(pseudo: PseudoObservations) -> BlockPartition:
    """Group channels into blocks: connected components of the graph with
    an edge wherever Spearman's |rho| of the pseudo-observations, or the
    energy rank correlation |rho(e_i, e_j)| with e = |2r - (T + 1)| for
    the ranks r (``_energy_ranks``), exceeds the
    threshold z / sqrt(T - 1) worked out from the sample count T and the
    channel count n: z is the Bonferroni normal quantile over the
    2 C(n, 2) plain and energy tests at the family-wise level
    _FAMILY_WISE_LEVEL.

    The energy term is the grouping criterion of multidimensional ICA: a
    dependent pair that whitening has decorrelated keeps almost no plain
    rank correlation, but its components still grow large together. Both
    terms use the pseudo-observations only; the energies are ranked by
    counting, without a sort.

    ``pseudo`` must be ``pseudo_observations(...)`` output, whose values
    are ranks over T + 1: the plain term is Spearman's rho only when the
    values are ranks, and the energies are the ranks read back by
    rounding onto the rank lattice. Raw copula draws (``Copula.sample``)
    are off that lattice: on ``ProductCopula(3).sample(2000, seed=1)``
    the plain term differs from Spearman's rho by up to 9e-4 and the
    energy ranks differ from those of the same data ranked first.
    """
    if pseudo.n_samples < 100:
        raise ValueError(f"need at least 100 samples, got {pseudo.n_samples}")
    threshold = _detection_threshold(pseudo.n_channels, pseudo.n_samples)
    plain = _spearman(pseudo.values)
    energy = _spearman(_energy_ranks(pseudo.values))
    edges = (np.abs(plain) > threshold) | (np.abs(energy) > threshold)
    n_blocks, labels = connected_components(edges, directed=False)
    return BlockPartition(tuple(np.flatnonzero(labels == k) for k in range(n_blocks)), pseudo.n_channels)


@dataclass(frozen=True, eq=False)
class _BlockFit:
    """One block's phase-2 fit: channels, within-block transform (diag(+-1) until refined),
    copula, and the ranks (d x T) the copula was fitted on, a flipped row holding T + 1 - r."""

    channels: tuple
    within: np.ndarray
    copula: Copula
    ranks: np.ndarray


def _fit_block(ranks: np.ndarray, block, menu, orient: bool = True) -> _BlockFit:
    """Orient one block and fit its copula, from its average ranks r
    (d x T); failures name the block.

    Rotation estimation fixes component signs by a convention blind to
    the dependence structure, but clayton and gumbel are not
    flip-invariant. So every sign pattern and family is a candidate,
    scored by its mean log density minus the Bayesian information
    criterion k log T / (2 T) for k parameters, and one ``max`` keyed
    (score, -flips, -pattern index, -menu position) picks the winner,
    whose own oriented ranks and signs the record holds.

    A pattern turns a flipped row into T + 1 - r; over T + 1 these are,
    bit for bit, the pseudo-observations of the negated component. One
    Spearman rho matrix gives every pattern s its tau (``_mean_tau``), as
    s turns entry (i, j) into s_i s_j rho_ij exactly: ranks are
    half-integers. Product and gaussian do not depend on the pattern, so
    they are fitted and scored once, under the pattern without flips, the
    gaussian's correlation and density from one array of normal scores
    (``_fit_gaussian``); clayton and gumbel are fitted for each pattern
    whose tau is > 0 (both model positive dependence only), each scored by
    the mean log density its own theta search ends on
    (``_fit_archimedean``), and both searches of a pattern share one
    log u. A pattern's tau is taken before its ranks are oriented, so a
    pattern that fits nothing builds no arrays. ``orient=False``
    scores the pattern without flips only. Every menu needs at least 100
    samples.
    """
    d, t = ranks.shape
    if t < 100:
        raise ValueError(f"need at least 100 samples to fit a copula, got {t}")
    asymmetric = [(pos, family) for pos, family in enumerate(menu) if family in _THETA_FAMILIES]
    patterns = _cartesian((False, True), repeat=d) if asymmetric and orient else [(False,) * d]
    row, col = np.triu_indices(d, 1)
    upper = _spearman(ranks)[row, col]
    mirrored = t + 1 - ranks
    penalty = _bic_penalty(1, t)

    def candidates():
        # (key, model, signs, oriented ranks), generated so that max holds
        # the arrays of the best candidate so far, not of every pattern
        for idx, pattern in enumerate(patterns):
            sign = np.where(pattern, -1.0, 1.0)
            tau = _mean_tau(sign[row] * sign[col] * upper)
            if idx > 0 and tau <= 0.0:
                continue
            oriented = np.where(np.array(pattern)[:, None], mirrored, ranks)
            values = oriented / (t + 1)
            if idx == 0:
                for pos, family in enumerate(menu):
                    if family == "product":
                        model, mean_log_density = ProductCopula(d), 0.0
                    elif family == "gaussian":
                        model, mean_log_density = _fit_gaussian(values)
                    else:
                        continue
                    score = mean_log_density - _bic_penalty(_parameter_count(model), t)
                    yield (score, 0, 0, -pos), model, sign, oriented
            if tau > 0.0 and asymmetric:
                log_u = np.log(values)
                for pos, family in asymmetric:
                    try:
                        model, mean_log_density = _fit_archimedean(values, family, tau, log_u)
                    except FamilyDomainError:
                        continue
                    yield (mean_log_density - penalty, -sum(pattern), -idx, -pos), model, sign, oriented

    try:
        best = max(candidates(), key=lambda candidate: candidate[0], default=None)
        if best is None:
            raise FamilyDomainError(f"no family in {menu} is applicable to this block")
    except CopsepError as err:
        raise BlockFitError(f"block {block}: {err}", block=block) from err
    _, model, sign, oriented = best
    return _BlockFit(block, np.diag(sign), model, oriented)


def fit_dependence(sources: SignalMatrix, families=FAMILY_NAMES, partition: BlockPartition | None = None):
    """Phase 2: partition the components, then orient and fit one copula
    per non-singleton block.

    Without an explicit partition, the components are grouped by
    ``detect_partition``. The sources are ranked once: detection, the
    energies, the Spearman rho that starts each block's theta searches
    and the block fits all use that ranking. Each non-singleton block
    gets one orientation search, which fits its copula with the winning
    sign pattern (see ``_fit_block``), so no block is refitted after it
    is oriented.

    Returns
    -------
    (partition, copula, flips) : (BlockPartition, FactorialCopula, ndarray)
        ``flips`` marks components that were negated before fitting; the
        copula describes ``sources`` with those rows negated.
    """
    menu = _check_menu(families)
    _check_partition(partition, sources.n_channels)
    if sources.n_samples < 2:
        raise ValueError("pseudo-observations need at least 2 samples")
    partition, fits = _fit_dependence(_average_ranks(sources.values), menu, partition)
    flips = np.zeros(sources.n_channels, dtype=bool)
    for fit in fits:
        flips[list(fit.channels)] = np.diag(fit.within) < 0
    return partition, FactorialCopula(partition, tuple(fit.copula for fit in fits)), flips


def _check_partition(partition: BlockPartition | None, n_channels: int):
    if partition is not None and partition.n_channels != n_channels:
        raise ValueError(f"partition covers {partition.n_channels} channels, data has {n_channels}")


def _fit_dependence(ranks: np.ndarray, menu, partition: BlockPartition | None):
    """``fit_dependence``'s partition and one ``_BlockFit`` per block, from average ranks (n x T)."""
    if partition is None:
        partition = detect_partition(PseudoObservations(ranks / (ranks.shape[1] + 1)))
    block_ranks = [(block, ranks[list(block)]) for block in partition.blocks]
    return partition, tuple(
        _fit_block(r, block, menu) if len(block) > 1 else _BlockFit(block, np.eye(1), ProductCopula(1), r)
        for block, r in block_ranks
    )


def kl_decomposition(signals: SignalMatrix, model: Copula):
    """Split model misfit into (mutual information, copula entropy, total).

    The total is their sum: dependence left unexplained by treating
    channels as independent, minus what the copula model accounts for.
    """
    pseudo = pseudo_observations(signals)
    i = mutual_information(pseudo)
    h = copula_entropy(model, pseudo)
    return i, h, i + h


def average_log_likelihood(
    x: SignalMatrix,
    separation: SeparationModel,
    model: Copula,
    margins: MarginalModel,
) -> float:
    """Mean per-sample log density of the sources ``separation`` recovers
    from x (histogram margins plus copula), with no log|det W| term."""
    if margins.n_channels != x.n_channels or model.dim != x.n_channels:
        raise ValueError("margins, copula, and data disagree on the channel count")
    sources = separation.separate(x)
    return _mean_log_likelihood(margins.log_density(sources.values), model, pseudo_observations(sources))


def _mean_log_likelihood(margin_log_density: np.ndarray, model: Copula, pseudo: PseudoObservations) -> float:
    """Mean over samples of the margins' summed log densities plus the
    copula's log density at the sources' pseudo-observations."""
    return float(np.mean(margin_log_density.sum(axis=0) + model.log_density(pseudo.values)))


def _unit_rows(angles) -> np.ndarray:
    """Rows (cos a, sin a), one per angle."""
    angles = np.asarray(angles, dtype=float)
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def _spacing_entropy_and_ranks(s: np.ndarray):
    """Per row of s: the m-spacing differential entropy estimate with
    m = round(sqrt(T)), and the pseudo-observations rank / (T + 1), both
    from one sort, which scatters the ranks lattice 1..T
    (``_rank_lattice``) to each row's sorted positions; tied values get
    distinct ranks. The entropy is -inf for a row with m + 1 equal values."""
    t = s.shape[1]
    m = max(1, int(round(np.sqrt(t))))
    order = np.argsort(s, axis=1)
    ordered = np.empty(s.shape)
    u = np.empty(s.shape)
    lattice = _rank_lattice(t)
    for row, row_order, row_ordered, row_u in zip(s, order, ordered, u):
        # argsort's indices are in range, so "clip" changes nothing and, unlike
        # the default "raise", lets take write into ``out`` without a buffer
        row.take(row_order, out=row_ordered, mode="clip")
        row_u[row_order] = lattice
    u /= t + 1
    spacing = ordered[:, m:] - ordered[:, :-m]
    spacing *= (t + 1) / m
    with np.errstate(divide="ignore"):
        entropy = np.log(spacing, out=spacing).mean(axis=1)
    return entropy, u


def _pair_log_likelihood(s: np.ndarray, model: Copula) -> float:
    """Mean log likelihood per sample of unit-variance source coordinates
    s (2 x T), leaving out the log-determinant of the transform that made
    them: minus the m-spacing entropies of the rows plus the mean log
    copula density of their ranks. -inf when s has tied values."""
    entropy, u = _spacing_entropy_and_ranks(s)
    value = float(np.mean(model._log_density(u))) - entropy.sum()
    return value if np.isfinite(value) else -np.inf


def _polish_log_likelihood(y: np.ndarray, p, cls) -> float:
    """Mean log likelihood per sample of the pair y (uncorrelated, unit
    variance) under sources B y, B's rows the unit vectors at the angles
    p[:2], and the family ``cls`` with theta = cls._theta_floor + exp(p[2]),
    p unconstrained; -inf where det B = sin(a2 - a1) <= 0 or exp
    overflows."""
    det = np.sin(p[1] - p[0])
    if det <= 0.0:
        return -np.inf
    with np.errstate(over="ignore"):
        theta = cls._theta_floor + np.exp(p[2])
    if not np.isfinite(theta):
        return -np.inf
    return np.log(det) + _pair_log_likelihood(_unit_rows(p[:2]) @ y, cls(theta, 2))


def _start_simplex(tau: np.ndarray, family: str, i: int, k: int) -> np.ndarray:
    """Nelder-Mead's first simplex (4 x 3) over (a1, a2, log(theta - floor))
    at the grid start a1 = i step, a2 = (i + k) step, whose theta is the
    Kendall-tau inversion of tau[i, i + k]; the start is row 0.

    The likelihood has a ridge along which the angles and theta trade off:
    the correlation that B puts between the sources and the dependence
    the copula models make up for each other. So the vertex that moves an
    angle by half a grid step also moves log(theta - floor) by half the
    change that the tau inversion makes at the grid neighbour in that
    direction (by nothing where that neighbour's tau is outside (0, 1)),
    and the last vertex moves log(theta - floor) alone, by 0.2. From an
    axis-aligned simplex, a search stopped at _POLISH_FATOL stalls on that
    ridge: on a gumbel pair (2 channels, T = 10 000) it stopped 4e-3 nats
    below the optimum after 22 evaluations.
    """
    step = 2.0 * np.pi / _GRID_ANGLES
    floor = _THETA_FAMILIES[family]._theta_floor

    def log_excess(a, b):
        t = tau[a % _GRID_ANGLES, b % _GRID_ANGLES]
        return np.log(_theta_from_tau(family, t) - floor) if 0.0 < t < 1.0 else None

    b0 = log_excess(i, i + k)
    simplex = np.tile([i * step, (i + k) * step, b0], (4, 1))
    for vertex, (a, b) in enumerate([(i + 1, i + k), (i, i + k + 1)], start=1):
        simplex[vertex, vertex - 1] += step / 2.0
        neighbour = log_excess(a, b)
        if neighbour is not None:
            simplex[vertex, 2] += (neighbour - b0) / 2.0
    simplex[3, 2] += 0.2
    return simplex


def _grid_scores(sub: np.ndarray, families):
    """Score every start of the angle grid on the subsample ``sub`` (2 x T)
    for each family (see ``_refine_pair``).

    A start is a direction pair (i step, (i + k) step), 0 < k < pi / step,
    whose Kendall tau is in (0, 1); its score is log sin(k step) minus the
    two directions' m-spacing entropies plus the mean log copula density
    of their ranks, at the theta of the tau inversion. log u and
    log(-log u) are computed once for all directions and families; the
    starts are scored _GRID_BATCH at a time, one theta per row, and each
    row's mean is taken along its contiguous axis, so every score equals,
    bit for bit, that of the start's own copula evaluated alone.

    Returns
    -------
    (tau, first, gap, scores) : the Kendall tau matrix of the directions,
    the starts' indices i and k in grid order, and one array of the
    starts' scores per family; a start with a direction of tied values
    scores -inf.
    """
    k_max = _GRID_ANGLES // 2
    step = 2.0 * np.pi / _GRID_ANGLES
    # a direction and its opposite give the same entropy and mirrored ranks;
    # a direction with tied values gets entropy +inf, so it never scores
    entropy, u = _spacing_entropy_and_ranks(_unit_rows(step * np.arange(k_max)) @ sub)
    entropy = np.tile(np.where(np.isfinite(entropy), entropy, np.inf), 2)
    u = np.concatenate([u, 1.0 - u])
    tau = 2.0 / np.pi * np.arcsin(np.clip(normal_scores_correlation(u), -1.0, 1.0))
    first, gap = (a.ravel() for a in np.meshgrid(np.arange(_GRID_ANGLES), np.arange(1, k_max), indexing="ij"))
    second = (first + gap) % _GRID_ANGLES
    start_tau = tau[first, second]
    positive = (0.0 < start_tau) & (start_tau < 1.0)
    first, gap, second, start_tau = first[positive], gap[positive], second[positive], start_tau[positive]
    base = np.log(np.sin(gap * step)) - entropy[first] - entropy[second]
    log_u = np.log(u)
    log_x = np.log(-log_u)
    scores = []
    for family in families:
        cls = _THETA_FAMILIES[family]
        theta = _theta_from_tau(family, start_tau)[:, None]
        mean = np.empty(len(first))
        for lo in range(0, len(first), _GRID_BATCH):
            batch = slice(lo, lo + _GRID_BATCH)
            rows = np.stack([first[batch], second[batch]])
            terms = cls._terms_of_logs(log_u[rows], log_x[rows])
            mean[batch] = cls._log_density_at(theta[batch], terms).mean(axis=1)
        scores.append(base + mean)
    return tau, first, gap, scores


def _refine_pair(y: np.ndarray, families):
    """Maximum-likelihood within-block transform of one dependent pair.

    ``y`` (2 x T) holds the pair's rotated components, uncorrelated with
    unit variance. Candidate sources are s = B y, where B's rows are the
    unit vectors at angles a1 < a2 < a1 + pi: s keeps unit variances and
    gets correlation r = cos(a2 - a1), and log det B = log(1 - r^2) / 2,
    so B ranges over C(r)^(1/2) Rot(phi), phi in [0, 2 pi). Margins enter
    the likelihood through m-spacing entropies and dependence through the
    copula on the ranks of s.

    A single local search stalls in worse optima on some data, so every
    direction pair of the angle grid is a start, scored on a subsample
    with theta from a Kendall-tau inversion of the normal-scores
    correlation (``_grid_scores``). The starts are scored in batches of
    _GRID_BATCH, whose temporaries stay in L2 cache, from log u and
    log(-log u) computed once for the grid's directions; the scores are
    bit for bit those of one start at a time. The best _POLISH_STARTS
    starts per family are polished by Nelder-Mead over
    (a1, a2, log(theta - floor)) on a larger subsample, from a first
    simplex laid along the likelihood ridge (``_start_simplex``) and
    stopped at that subsample's resolution (_POLISH_XATOL,
    _POLISH_FATOL); their optima differ by about that subsample's
    noise, so the best is chosen on all of y.

    Returns
    -------
    list of (log likelihood, B) : one per family that has a start.
    """
    t = y.shape[1]
    tau, first, gap, scores = _grid_scores(y[:, :: max(1, t // _GRID_SAMPLES)], families)
    polish = y[:, :: max(1, t // _POLISH_SAMPLES)]
    out = []
    for family, score in zip(families, scores):
        cls = _THETA_FAMILIES[family]
        finite = np.flatnonzero(np.isfinite(score))
        best = None
        for start in finite[np.argsort(-score[finite], kind="stable")[:_POLISH_STARTS]]:
            simplex = _start_simplex(tau, family, int(first[start]), int(gap[start]))
            x = minimize(
                lambda p: -_polish_log_likelihood(polish, p, cls), simplex[0], method="Nelder-Mead",
                options={"initial_simplex": simplex, "xatol": _POLISH_XATOL, "fatol": _POLISH_FATOL},
            ).x
            value = _polish_log_likelihood(y, x, cls)
            if np.isfinite(value) and (best is None or value > best[0]):
                best = (value, _unit_rows(x[:2]))
        if best is not None:
            out.append(best)
    return out


def _refine_block(components: np.ndarray, fit: _BlockFit, menu) -> _BlockFit:
    """``fit`` refitted on its channels of the rotation-phase components
    (n x T) under their maximum-likelihood within-block transform, when
    that transform stands; otherwise ``fit`` itself.

    A pair is refined when the best tail-asymmetric family in the menu
    with a fitted transform beats the block's fit in the rotation-phase
    coordinates by the Bayesian information criterion (two extra
    parameters for the transform). The pair is then refitted from the
    ranks of the transformed components with their signs kept (no
    orientation search); the transform stands only if the refit is a
    tail-asymmetric family. A search would repeat a choice already made:
    flipping row i of B moves its angle a_i by pi, inside the angles'
    range [0, 2 pi), and with the rows swapped back to det B > 0 that
    flipped transform has the same likelihood under the exchangeable
    clayton or gumbel copula, so the refinement has scored it. A block
    fitted best as gaussian or product stays as it is: a linear transform
    and a gaussian correlation trade off against each other. With clayton
    or gumbel in the menu, blocks of three or more channels are not
    refined; a warning says so.
    """
    block, model = fit.channels, fit.copula
    families = [f for f in menu if f in _THETA_FAMILIES]
    if len(block) == 1 or not families:
        return fit
    if len(block) > 2:
        warnings.warn(
            f"block {block} has {len(block)} channels; only pairs get a within-block "
            "refinement, so it keeps the rotation-phase coordinates",
            stacklevel=3,
        )
        return fit
    y, t = components[list(block)], components.shape[1]
    best = _pair_log_likelihood(y * np.diag(fit.within)[:, None], model) - _bic_penalty(_parameter_count(model), t)
    if not np.isfinite(best):
        warnings.warn(f"block {block} has tied values; it is not refined", stacklevel=3)
        return fit
    refined = None
    for value, transform in _refine_pair(y, families):
        value -= _bic_penalty(3, t)
        if value > best:
            best, refined = value, transform
    if refined is None:
        return fit
    refit = _fit_block(_average_ranks(refined @ y), block, menu, orient=False)
    return replace(refit, within=refined) if refit.copula.family in _THETA_FAMILIES else fit


def cca_fit(
    x: SignalMatrix,
    families=FAMILY_NAMES,
    partition: BlockPartition | None = None,
    max_iter: int = 200,
    seed: int = 0,
):
    """Run the full two-phase fit on raw observations.

    Phase 1 centers, whitens, and estimates a canonical rotation
    (fastica); phase 2 partitions the recovered components and fits
    per-block copulas (see :func:`fit_dependence`). Whitening decorrelates a dependent
    pair, so each dependent pair then gets a within-block transform by
    maximum likelihood (margins by m-spacing entropy, dependence by the
    copula), and the copulas are refitted on the transformed pair with
    the partition kept. The report's ranks are those each block's copula
    was fitted on (see ``_BlockFit``), assembled once. Deterministic
    for a fixed seed. Needs at least 100 samples; that, the family menu
    and the partition's channel count are checked before any work.

    Returns
    -------
    (separation, report) : (SeparationModel, FitReport)
    """
    if x.n_samples < 100:
        raise ValueError(f"need at least 100 samples to fit a copula, got {x.n_samples}")
    menu = _check_menu(families)
    _check_partition(partition, x.n_channels)
    z, mean, whitening = center_and_whiten(x)
    rotation, iterations = fastica(z, max_iter=max_iter, seed=seed)
    rotation = normalize_components(rotation, z)
    components = SignalMatrix(rotation @ z.values)
    del z  # phase 2 and the report need only the components

    n, t = x.n_channels, x.n_samples
    part, fits = _fit_dependence(_average_ranks(components.values), menu, partition)
    within, ranks, models = np.zeros((n, n)), np.empty((n, t)), []
    for fit in fits:
        # not in a comprehension, a frame of its own before Python 3.12: see stacklevel=3
        fit = _refine_block(components.values, fit, menu)
        within[np.ix_(fit.channels, fit.channels)] = fit.within
        ranks[list(fit.channels)] = fit.ranks
        models.append(fit.copula)
    copula = FactorialCopula(part, tuple(models))
    sources = SignalMatrix(within @ components.values)

    separation = SeparationModel(mean, whitening, rotation, within)
    # the information, the copula entropy and the likelihood share the
    # ranks of the sources, and the likelihood evaluates the margins at
    # the sources they were fitted on: separation.separate(x) differs from
    # them in the last bits, enough to put extremes outside the histograms
    pseudo = PseudoObservations(ranks / (t + 1))
    info = mutual_information(pseudo)
    entropy = copula_entropy(copula, pseudo)
    margins = MarginalModel.fit(sources)
    margin_log_density, floor_hits = margins._fitted_log_density_and_floor_hits(ranks)
    report = FitReport(
        mutual_information=info,
        copula_entropy=entropy,
        log_likelihood=_mean_log_likelihood(margin_log_density, copula, pseudo),
        partition=part,
        copula=copula,
        ica_iterations=iterations,
        seed=seed,
        density_floor_hit=floor_hits > 0,
    )
    return separation, report
