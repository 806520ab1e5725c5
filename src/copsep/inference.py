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
from dataclasses import dataclass
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
    _mean_tau,
    _spearman,
    _theta_from_tau,
    copula_entropy,
    fit_copula,
    kendall_tau,  # unused here; perfbench/tracer.py wraps inference.kendall_tau
    normal_scores_correlation,
)
from .exceptions import BlockFitError, CopsepError, FamilyDomainError
from .ica import fastica, mutual_information, normalize_components
from .margins import MarginalModel, PseudoObservations, _average_ranks, pseudo_observations
from .signals import BlockPartition, SeparationModel, SignalMatrix, center_and_whiten

__all__ = [
    "FitReport",
    "cca_fit",
    "fit_dependence",
    "detect_partition",
    "kl_decomposition",
    "average_log_likelihood",
    "select_family",
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
# family on about _POLISH_SAMPLES samples.
_GRID_ANGLES = 36
_GRID_SAMPLES = 2000
_POLISH_STARTS = 2
_POLISH_SAMPLES = 5000


@dataclass(frozen=True, eq=False)
class FitReport:
    """Outcome of a full two-phase fit; all quantities are in nats."""

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


def _penalized_score(model: Copula, values: np.ndarray) -> float:
    """Mean log density minus k log T / (2 T) for k parameters."""
    mean_ld = float(np.mean(model.log_density(values)))
    return mean_ld - _bic_penalty(_parameter_count(model), values.shape[1])


def select_family(pseudo: PseudoObservations, menu) -> str:
    """Pick the copula family with the best penalized mean log density.

    The penalty is the Bayesian information criterion, k log T / (2 T)
    nats per sample for k parameters, so the chance of picking a
    dependent family on independent data shrinks as T grows. Families
    whose domain excludes the data (e.g. clayton with non-positive
    dependence) are skipped. Ties break by menu order. This is the
    scoring of ``_best_orientation`` with no component flipped.
    """
    menu = _check_menu(menu)
    if pseudo.n_channels < 2:
        raise ValueError("family selection needs a block of dimension at least 2")
    return _best_orientation(pseudo, menu, orient=False)[1].family


def _energy_ranks(u: np.ndarray) -> np.ndarray:
    """Average ranks within each row of the energies of the
    pseudo-observations u = r / (T + 1): the integers e = |2r - (T + 1)|
    in 0..T, which hold many ties, as u and 1 - u share an energy exactly.

    A counting sort ranks them: with c[e] the number of samples of energy
    e, those samples get cumsum(c)[e] - (c[e] - 1) / 2, bit for bit what
    ``_average_ranks`` gives.
    """
    t = u.shape[1]
    ranks = np.empty_like(u)
    for i, row in enumerate(u):
        energy = np.abs(np.rint((2.0 * row - 1.0) * (t + 1))).astype(np.intp)
        counts = np.bincount(energy, minlength=t + 1)
        ranks[i] = np.cumsum(counts)[energy] - (counts[energy] - 1) / 2
    return ranks


def _rank_correlations(u: np.ndarray):
    """Spearman's rho of every pair of rows of the pseudo-observations u
    (ranks up to scale), and of their energies (``_energy_ranks``)."""
    return _spearman(u), _spearman(_energy_ranks(u))


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
    """
    if pseudo.n_samples < 100:
        raise ValueError(f"need at least 100 samples, got {pseudo.n_samples}")
    threshold = _detection_threshold(pseudo.n_channels, pseudo.n_samples)
    plain, energy = _rank_correlations(pseudo.values)
    edges = (np.abs(plain) > threshold) | (np.abs(energy) > threshold)
    n_blocks, labels = connected_components(edges, directed=False)
    return BlockPartition(tuple(np.flatnonzero(labels == k) for k in range(n_blocks)), pseudo.n_channels)


def _best_orientation(pseudo: PseudoObservations, menu, orient: bool = True):
    """Resolve the sign indeterminacy of a dependent block and fit it.

    Rotation estimation fixes component signs by a convention that is
    blind to the dependence structure, but the tail-asymmetric families
    (clayton, gumbel) are not flip-invariant. Every sign pattern is
    scored by its best family fit (see ``_penalized_score``); ties
    prefer fewer flips, then the earlier pattern, and within a pattern
    the earlier family in the menu.

    Each piece of work is done once per block. The block's ranks give one
    Spearman rho matrix: a pattern s turns entry (i, j) into s_i s_j rho_ij
    exactly, as ranks are half-integers, and ``_mean_tau`` maps it to tau.
    Flipped rows get (T + 1 - r) / (T + 1) from the ranks r: bit for bit
    the pseudo-observations of the negated components. Product and
    gaussian scores do not depend on the pattern, so they are fitted and
    scored once; only clayton and gumbel are fitted per pattern, and a pattern
    with flips can win only through them. ``orient=False`` scores the
    pattern without flips only. Every menu needs at least 100 samples.

    Returns
    -------
    (pattern, model) : the flips, one bool per channel, and the winning
    family fitted to the block with the flipped rows negated.
    """
    if pseudo.n_samples < 100:
        raise ValueError(f"need at least 100 samples to fit a copula, got {pseudo.n_samples}")
    d = pseudo.n_channels
    invariant = []
    asymmetric = []
    for pos, family in enumerate(menu):
        if family in _THETA_FAMILIES:
            asymmetric.append((pos, family))
        else:
            model = fit_copula(pseudo, family)
            invariant.append((_penalized_score(model, pseudo.values), pos, model))
    patterns = list(_cartesian((False, True), repeat=d)) if asymmetric and orient else [(False,) * d]
    ranks = _average_ranks(pseudo.values)
    rho = _spearman(ranks)
    flipped = (pseudo.n_samples + 1 - ranks) / (pseudo.n_samples + 1)
    best = None
    for idx, pattern in enumerate(patterns):
        sign = np.where(pattern, -1.0, 1.0)
        tau = _mean_tau(np.outer(sign, sign) * rho)
        values = np.where(np.array(pattern)[:, None], flipped, pseudo.values)
        candidates = list(invariant)
        for pos, family in asymmetric:
            try:
                model = _fit_archimedean(PseudoObservations(values), family, tau)
            except FamilyDomainError:
                continue
            candidates.append((_penalized_score(model, values), pos, model))
        if not candidates:
            continue
        score, _, model = max(candidates, key=lambda item: (item[0], -item[1]))
        key = (score, -sum(pattern), -idx)
        if best is None or key > best[0]:
            best = (key, pattern, model)
    if best is None:
        raise FamilyDomainError(f"no family in {menu} is applicable to this block")
    return best[1], best[2]


def _fit_block(pseudo: PseudoObservations, block, menu):
    """Orientation and copula of one block (see ``_best_orientation``);
    failures name the block."""
    try:
        return _best_orientation(pseudo, menu)
    except CopsepError as err:
        raise BlockFitError(f"block {block}: {err}", block=block) from err


def fit_dependence(sources: SignalMatrix, families=FAMILY_NAMES, partition: BlockPartition | None = None):
    """Phase 2: partition the components, then orient and fit one copula
    per non-singleton block.

    Without an explicit partition, the components are grouped by
    ``detect_partition``. The sources are ranked once: detection, the
    energies and the block fits all use that ranking, and each
    non-singleton block is ranked once more for the Spearman rho that
    starts its theta searches. Each such block gets one orientation
    search that returns the fitted copula with the winning sign pattern
    (see ``_best_orientation``), so no block is refitted after it is
    oriented.

    Returns
    -------
    (partition, copula, flips) : (BlockPartition, FactorialCopula, ndarray)
        ``flips`` marks components that were negated before fitting; the
        copula describes ``sources`` with those rows negated.
    """
    menu = _check_menu(families)
    return _fit_dependence(pseudo_observations(sources), menu, partition)


def _fit_dependence(pseudo: PseudoObservations, menu, partition: BlockPartition | None):
    """``fit_dependence`` on the sources' pseudo-observations, with a
    checked menu."""
    n = pseudo.n_channels
    if partition is None:
        partition = detect_partition(pseudo)
    elif partition.n_channels != n:
        raise ValueError(f"partition covers {partition.n_channels} channels, data has {n}")

    flips = np.zeros(n, dtype=bool)
    models = []
    for block in partition.blocks:
        if len(block) == 1:
            models.append(ProductCopula(1))
            continue
        pattern, model = _fit_block(pseudo.restrict(block), block, menu)
        flips[list(block)] = pattern
        models.append(model)
    return partition, FactorialCopula(partition, tuple(models)), flips


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
    """Mean per-sample log likelihood of observations under the fitted
    separation, histogram margins, and copula model."""
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
    from one sort. The entropy is -inf for a row with m + 1 equal values."""
    t = s.shape[1]
    m = max(1, int(round(np.sqrt(t))))
    order = np.argsort(s, axis=1)
    ordered = np.take_along_axis(s, order, axis=1)
    with np.errstate(divide="ignore"):
        entropy = np.log((t + 1) / m * (ordered[:, m:] - ordered[:, :-m])).mean(axis=1)
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(1, t + 1), s.shape), axis=1)
    return entropy, ranks / (t + 1)


def _pair_log_likelihood(s: np.ndarray, model: Copula) -> float:
    """Mean log likelihood per sample of unit-variance source coordinates
    s (2 x T), leaving out the log-determinant of the transform that made
    them: minus the m-spacing entropies of the rows plus the mean log
    copula density of their ranks. -inf when s has tied values."""
    entropy, u = _spacing_entropy_and_ranks(s)
    value = float(np.mean(model._log_density(u))) - entropy.sum()
    return value if np.isfinite(value) else -np.inf


def _transformed_log_likelihood(y: np.ndarray, angles, model: Copula) -> float:
    """Mean log likelihood per sample of the pair y (uncorrelated, unit
    variance) under sources B y, B's rows the unit vectors at ``angles``;
    -inf unless det B = sin(a2 - a1) > 0."""
    det = np.sin(angles[1] - angles[0])
    if det <= 0.0:
        return -np.inf
    return np.log(det) + _pair_log_likelihood(_unit_rows(angles) @ y, model)


def _polish_log_likelihood(y: np.ndarray, p, cls) -> float:
    """``_transformed_log_likelihood`` of y at the angles p[:2] under the
    family ``cls`` with theta = cls._theta_floor + exp(p[2]), p
    unconstrained; -inf where exp overflows."""
    with np.errstate(over="ignore"):
        theta = cls._theta_floor + np.exp(p[2])
    if not np.isfinite(theta):
        return -np.inf
    return _transformed_log_likelihood(y, p[:2], cls(theta, 2))


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
    correlation. The best starts per family are polished by Nelder-Mead
    over (a1, a2, theta) on a larger subsample; their optima differ by
    about that subsample's noise, so the best is chosen on all of y.

    Returns
    -------
    list of (log likelihood, B) : one per family that has a start.
    """
    t = y.shape[1]
    k_max = _GRID_ANGLES // 2
    step = 2.0 * np.pi / _GRID_ANGLES
    sub = y[:, :: max(1, t // _GRID_SAMPLES)]
    # a direction and its opposite give the same entropy and mirrored ranks;
    # a direction with tied values gets entropy +inf, so it never scores
    entropy, u = _spacing_entropy_and_ranks(_unit_rows(step * np.arange(k_max)) @ sub)
    entropy = np.tile(np.where(np.isfinite(entropy), entropy, np.inf), 2)
    u = np.concatenate([u, 1.0 - u])
    tau = 2.0 / np.pi * np.arcsin(np.clip(normal_scores_correlation(u), -1.0, 1.0))
    # (first angle index, angle gap index) with positive dependence
    grid = [
        (i, k)
        for i in range(_GRID_ANGLES)
        for k in range(1, k_max)
        if 0.0 < tau[i, (i + k) % _GRID_ANGLES] < 1.0
    ]
    polish = y[:, :: max(1, t // _POLISH_SAMPLES)]
    out = []
    for family in families:
        cls = _THETA_FAMILIES[family]
        scored = []
        for i, k in grid:
            j = (i + k) % _GRID_ANGLES
            model = cls(_theta_from_tau(family, tau[i, j]), 2)
            score = (
                np.log(np.sin(k * step))
                - entropy[i]
                - entropy[j]
                + float(np.mean(model._log_density(u[[i, j]])))
            )
            if np.isfinite(score):
                scored.append((score, i * step, (i + k) * step, model.theta))
        scored.sort(key=lambda item: -item[0])
        best = None
        for _, a1, a2, theta in scored[:_POLISH_STARTS]:
            start = np.array([a1, a2, np.log(theta - cls._theta_floor)])
            simplex = np.vstack([start, start + np.diag([step / 2.0, step / 2.0, 0.2])])
            x = minimize(lambda p: -_polish_log_likelihood(polish, p, cls), start, method="Nelder-Mead",
                         options={"initial_simplex": simplex, "xatol": 5e-3, "fatol": 1e-5}).x
            value = _polish_log_likelihood(y, x, cls)
            if np.isfinite(value) and (best is None or value > best[0]):
                best = (value, _unit_rows(x[:2]))
        if best is not None:
            out.append(best)
    return out


def _refine_blocks(sources: SignalMatrix, partition: BlockPartition, copula: FactorialCopula, flips, menu):
    """Within-block transform (n x n) and copula of the components
    ``sources`` of the rotation phase, given their dependence fit: the
    transform starts as diag(+-1) of the flips, and the returned copula
    describes the transformed components.

    A pair is refined when the best tail-asymmetric family in the menu
    with a fitted transform beats the block's fit in the rotation-phase
    coordinates by the Bayesian information criterion (two extra
    parameters for the transform). The pair is then refitted on the
    transformed components; the transform stands, with the refit's
    flips, only if the refit is a tail-asymmetric family. A block fitted
    best as gaussian or product stays as it is: a linear transform and a
    gaussian correlation trade off against each other. Blocks of three or
    more channels are not refined; a warning says so.
    """
    t = sources.n_samples
    sign = np.where(flips, -1.0, 1.0)
    within = np.diag(sign)
    models = list(copula.blocks)
    families = [f for f in menu if f in _THETA_FAMILIES]
    for k, (block, model) in enumerate(zip(partition.blocks, copula.blocks)):
        if len(block) > 2:
            warnings.warn(
                f"block {block} has {len(block)} channels; only pairs get a within-block "
                "refinement, so it keeps the rotation-phase coordinates",
                stacklevel=3,
            )
            continue
        if len(block) == 1 or not families:
            continue
        rows = list(block)
        y = sources.values[rows]
        best = _pair_log_likelihood(y * sign[rows, None], model) - _bic_penalty(_parameter_count(model), t)
        if not np.isfinite(best):
            warnings.warn(f"block {block} has tied values; it is not refined", stacklevel=3)
            continue
        refined = None
        for value, transform in _refine_pair(y, families):
            value -= _bic_penalty(3, t)
            if value > best:
                best, refined = value, transform
        if refined is None:
            continue
        pattern, refit = _fit_block(pseudo_observations(SignalMatrix(refined @ y)), block, menu)
        if refit.family in _THETA_FAMILIES:
            within[np.ix_(rows, rows)] = refined * np.where(pattern, -1.0, 1.0)[:, None]
            models[k] = refit
    return within, FactorialCopula(partition, tuple(models))


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
    the partition kept. Deterministic for a fixed seed. Needs at least
    100 samples, checked before any work.

    Returns
    -------
    (separation, report) : (SeparationModel, FitReport)
    """
    if x.n_samples < 100:
        raise ValueError(f"need at least 100 samples to fit a copula, got {x.n_samples}")
    z, mean, whitening = center_and_whiten(x)
    rotation, iterations = fastica(z, max_iter=max_iter, seed=seed)
    rotation = normalize_components(rotation, z)
    components = SignalMatrix(rotation @ z.values)

    menu = _check_menu(families)
    t = x.n_samples
    ranks = _average_ranks(components.values)
    part, copula, flips = _fit_dependence(PseudoObservations(ranks / (t + 1)), menu, partition)
    within, copula = _refine_blocks(components, part, copula, flips, menu)
    sources = SignalMatrix(within @ components.values)

    separation = SeparationModel(mean, whitening, rotation, within)
    # one ranking of the components serves phase 2 and the report: a row
    # that the within-block transform leaves alone keeps its ranks, a
    # negated one takes T + 1 - r (the average ranks of -x, exactly), and
    # only the rows of refined pairs are ranked again. The information,
    # the copula entropy and the likelihood share these ranks of the
    # sources, and the likelihood evaluates the margins at the sources
    # they were fitted on: separation.separate(x) differs from them in the
    # last bits, enough to put extremes outside the histograms
    diagonal = np.diag(within)
    kept = (np.abs(diagonal) == 1.0) & (np.count_nonzero(within, axis=1) == 1)
    negated = kept & (diagonal < 0.0)
    ranks[negated] = t + 1 - ranks[negated]
    if not kept.all():
        ranks[~kept] = _average_ranks(sources.values[~kept])
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
