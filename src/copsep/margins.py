"""Marginal-distribution machinery: rank transforms, histogram densities,
and the quantile functions of parametric margins for synthesis.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .signals import SignalMatrix, _frozen_array

__all__ = [
    "PseudoObservations",
    "MarginalModel",
    "pseudo_observations",
    "margin_ppf",
]

MARGIN_NAMES = ("uniform", "gaussian", "laplace")

# Density assigned to samples that fall in an empty or out-of-range
# histogram bin, so log-likelihoods stay finite.
DENSITY_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class PseudoObservations:
    """Points strictly inside (0,1), one row per channel.

    ``pseudo_observations`` fills it with rank-based probability-integral
    transforms, rank / (T + 1), which lie on the rank lattice; but
    ``Copula.sample`` returns one of raw copula draws, which do not. Code
    that reads ranks back from the values (``detect_partition``) expects
    ``pseudo_observations`` output: rank a sample first.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, "pseudo-observations", 2)
        if arr.size == 0:
            raise ValueError("pseudo-observations must be non-empty")
        if arr.min() <= 0.0 or arr.max() >= 1.0:
            raise ValueError("pseudo-observations must lie strictly inside (0, 1)")
        object.__setattr__(self, "values", arr)

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


@lru_cache(maxsize=8)
def _rank_lattice(t: int) -> np.ndarray:
    """The ranks 1..T as floats, read-only."""
    lattice = np.arange(1.0, t + 1)
    lattice.flags.writeable = False
    return lattice


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..T within each row of a finite 2-D array, tied values
    getting the mean of their ranks.

    One argsort ranks every row; then, row by row, the row is taken in
    sorted order into one buffer and the cached lattice 1..T
    (``_rank_lattice``) is scattered to the sorted positions. Only a row
    with equal neighbours in sorted order averages its ties: a run of
    equal values at sorted positions first..last gets
    (first + last) / 2 + 1, an exact half-integer whatever order the sort
    leaves the ties in. So numpy's default (unstable) argsort gives the
    same bits as scipy's average ranking, at a fraction of the cost of
    the stable sort scipy uses.
    """
    n, t = values.shape
    order = np.argsort(values, axis=1)
    lattice = _rank_lattice(t)
    ordered = np.empty(t, dtype=values.dtype)
    ranks = np.empty((n, t))
    for row, row_order, row_ranks in zip(values, order, ranks):
        # argsort's indices are in range, so "clip" changes nothing and, unlike
        # the default "raise", lets take write into ``out`` without a buffer
        row.take(row_order, out=ordered, mode="clip")
        tied = ordered[1:] == ordered[:-1]
        if tied.any():
            # run k spans sorted positions bounds[k] .. bounds[k + 1] - 1
            bounds = np.flatnonzero(np.concatenate(([True], ~tied, [True])))
            row_ranks[row_order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2, np.diff(bounds))
        else:
            row_ranks[row_order] = lattice
    return ranks


def pseudo_observations(signals: SignalMatrix) -> PseudoObservations:
    """Per-channel transform u = rank / (T + 1), ties getting average rank
    (``_average_ranks``).

    The T+1 denominator keeps every entry strictly inside (0,1), where
    copula densities are finite. Invariant under strictly increasing
    per-channel transforms of the input.
    """
    if signals.n_samples < 2:
        raise ValueError("pseudo-observations need at least 2 samples")
    ranks = _average_ranks(signals.values)
    return PseudoObservations(ranks / (signals.n_samples + 1))


def _bin_count(x: np.ndarray) -> int:
    """numpy's Freedman-Diaconis bin count for the row x, capped at its
    length T. Below the cap the edges equal numpy's ``bins="fd"`` ones;
    the cap keeps one far outlier from asking for millions of bins."""
    width = 2.0 * np.subtract(*np.percentile(x, [75, 25])) * x.size ** (-1.0 / 3.0)
    if not width:
        return 1
    return int(min(np.ceil((x.max() - x.min()) / width), x.size))


@dataclass(frozen=True, eq=False)
class MarginalModel:
    """Empirical margins: a histogram density per channel.

    ``bin_edges[i]`` and ``bin_probs[i]`` describe channel i's histogram
    (Freedman-Diaconis bins, at most T of them; see ``_bin_count``);
    probabilities sum to one per channel. ``n_samples`` is the T the
    histograms were fitted on.
    """

    n_samples: int
    bin_edges: tuple
    bin_probs: tuple

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        if len(self.bin_edges) != len(self.bin_probs):
            raise ValueError("need one histogram per channel")
        edges = []
        probs = []
        for i, (e, p) in enumerate(zip(self.bin_edges, self.bin_probs)):
            e = _frozen_array(e, f"channel {i} bin edges", 1)
            p = _frozen_array(p, f"channel {i} bin probabilities", 1)
            if e.shape[0] != p.shape[0] + 1:
                raise ValueError(f"channel {i}: {p.shape[0]} bins need {p.shape[0] + 1} edges")
            if np.any(np.diff(e) <= 0.0):
                raise ValueError(f"channel {i}: all bin widths must be positive")
            if abs(p.sum() - 1.0) > 1e-12:
                raise ValueError(f"channel {i}: bin probabilities sum to {p.sum()!r}, not 1")
            edges.append(e)
            probs.append(p)
        object.__setattr__(self, "bin_edges", tuple(edges))
        object.__setattr__(self, "bin_probs", tuple(probs))

    @classmethod
    def fit(cls, signals: SignalMatrix) -> "MarginalModel":
        """Histogram of each channel, from one sort per row.

        The edges are numpy's for ``_bin_count`` bins. Bin k counts the
        values in [e_k, e_{k+1}), the last bin closed, which is how
        ``np.histogram`` assigns them; a binary search of the edges in the
        sorted row finds those counts.
        """
        n, t = signals.n_channels, signals.n_samples
        if t < max(n + 1, 10):
            raise ValueError(f"need at least {max(n + 1, 10)} samples to fit margins, got {t}")
        sorted_values = np.sort(signals.values, axis=1)
        edges = []
        probs = []
        for row in sorted_values:
            e = np.histogram_bin_edges(row, bins=_bin_count(row))
            # below[k]: how many values lie below edge k; the last edge is
            # the maximum, and the last bin holds it
            below = np.searchsorted(row, e)
            below[-1] = t
            edges.append(e)
            probs.append(np.diff(below) / t)
        return cls(t, tuple(edges), tuple(probs))

    @property
    def n_channels(self) -> int:
        return len(self.bin_edges)

    def _bin_density(self, channel: int):
        """Density of each bin of the channel's histogram, floored at
        DENSITY_FLOOR, and which bins the floor raised."""
        dens = self.bin_probs[channel] / np.diff(self.bin_edges[channel])
        floored = dens < DENSITY_FLOOR
        dens[floored] = DENSITY_FLOOR
        return dens, floored

    def _channel_density(self, channel: int, x: np.ndarray):
        edges = self.bin_edges[channel]
        bin_dens, bin_floored = self._bin_density(channel)
        idx = np.searchsorted(edges, x, side="right") - 1
        # np.histogram closes the last bin on the right
        idx[x == edges[-1]] = len(bin_dens) - 1
        inside = (idx >= 0) & (idx < len(bin_dens))
        dens = np.full(x.shape, DENSITY_FLOOR)
        dens[inside] = bin_dens[idx[inside]]
        return dens, int((~inside).sum() + bin_floored[idx[inside]].sum())

    def _log_density_and_floor_hits(self, values: np.ndarray):
        """``log_density`` and ``density_floor_hits`` from one pass."""
        out = np.empty_like(np.asarray(values, dtype=float))
        hits = 0
        for i in range(self.n_channels):
            dens, h = self._channel_density(i, np.asarray(values[i], dtype=float))
            out[i] = np.log(dens)
            hits += h
        return out, hits

    def _fitted_log_density_and_floor_hits(self, ranks: np.ndarray):
        """``_log_density_and_floor_hits`` at the samples the model was
        fitted on, given their average ranks within each channel.

        The sample of rank r equals the order statistic at position
        floor(r) - 1, and the bin counts say which bin holds each
        position, so a gather from a per-bin table replaces the binary
        search of every sample.
        """
        out = np.empty(ranks.shape)
        hits = 0
        for i in range(self.n_channels):
            counts = np.rint(self.bin_probs[i] * self.n_samples).astype(np.intp)
            dens, floored = self._bin_density(i)
            out[i] = np.repeat(np.log(dens), counts)[ranks[i].astype(np.intp) - 1]
            hits += int(counts[floored].sum())
        return out, hits

    def log_density(self, values: np.ndarray) -> np.ndarray:
        """Log histogram density per channel, floored at 1e-12."""
        return self._log_density_and_floor_hits(values)[0]

    def density_floor_hits(self, values: np.ndarray) -> int:
        """How many evaluation points fell below the density floor."""
        return self._log_density_and_floor_hits(values)[1]


def _check_margin(name: str, params):
    if name not in MARGIN_NAMES:
        raise ValueError(f"unknown margin '{name}'; expected one of {MARGIN_NAMES}")
    a, b = float(params[0]), float(params[1])
    if name == "uniform":
        if b <= a:
            raise ValueError(f"uniform margin needs high > low, got ({a}, {b})")
    elif b <= 0.0:
        raise ValueError(f"{name} margin needs positive scale, got {b}")
    return a, b


def margin_ppf(name: str, params, u) -> np.ndarray:
    """Quantile function of a named margin applied elementwise to u in (0,1).

    Margins: uniform(low, high), gaussian(mean, std), laplace(loc, scale).
    """
    a, b = _check_margin(name, params)
    u = np.asarray(u, dtype=float)
    if u.size and (u.min() <= 0.0 or u.max() >= 1.0):
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    if name == "uniform":
        return a + (b - a) * u
    if name == "gaussian":
        return a + b * ndtri(u)
    return np.where(u < 0.5, a + b * np.log(2.0 * u), a - b * np.log(2.0 * (1.0 - u)))
