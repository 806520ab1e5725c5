import json
import warnings
from functools import lru_cache
from itertools import product as cartesian

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import ndtri
from scipy.stats import rankdata, spearmanr

from copsep import (
    BlockPartition,
    ClaytonCopula,
    FactorialCopula,
    GaussianCopula,
    GumbelCopula,
    ProductCopula,
    SeparationModel,
    SignalMatrix,
    align_permutation,
    amari_index,
    average_log_likelihood,
    cca_fit,
    center_and_whiten,
    copula_entropy,
    detect_partition,
    fastica,
    fit_copula,
    fit_dependence,
    kl_decomposition,
    mix,
    normalize_components,
    pseudo_observations,
)
from copsep import cli, copulas, inference, margins
from copsep.exceptions import BlockFitError, DegenerateInputError, FamilyDomainError
from copsep.copulas import FAMILY_NAMES, _THETA_TOL, _mean_tau, _spearman
from copsep.inference import _energy_ranks, _fit_block
from copsep.margins import MarginalModel, PseudoObservations, _average_ranks, margin_ppf


def corr2(r):
    return np.array([[1.0, r], [r, 1.0]])


def clayton_laplace_sources(seed, t=10000, theta=2.0):
    """Dependent laplace pair plus an independent uniform third channel."""
    u = ClaytonCopula(theta, 2).sample(t, seed=seed)
    rng = np.random.default_rng(seed)
    rows = [
        margin_ppf("laplace", (0.0, 1.0), u.values[0]),
        margin_ppf("laplace", (0.0, 1.0), u.values[1]),
        rng.uniform(-1.0, 1.0, t),
    ]
    return SignalMatrix(np.vstack(rows))


def well_conditioned_mixing(rng, n):
    while True:
        a = rng.standard_normal((n, n))
        if np.linalg.cond(a) < 100.0:
            return a


def identity_separation(n):
    return SeparationModel(np.zeros(n), np.eye(n), np.eye(n))


# strictly increasing maps of the real line (in floating point too, on
# the values the tests draw)
INCREASING_MAPS = st.one_of(
    st.tuples(st.floats(0.1, 10.0), st.floats(-10.0, 10.0)).map(lambda ab: lambda x: ab[0] * x + ab[1]),
    st.sampled_from([np.exp, lambda x: x ** 3, np.arctan, np.sinh]),
)


def block_sources(seed, t):
    """Laplace sources: a clayton(2) triple, a gumbel(2) pair and an
    independent sixth channel."""
    partition = BlockPartition(((0, 1, 2), (3, 4), (5,)), 6)
    models = (ClaytonCopula(2.0, 3), GumbelCopula(2.0), ProductCopula(1))
    u = FactorialCopula(partition, models).sample(t, seed=seed)
    return SignalMatrix(margin_ppf("laplace", (0.0, 1.0), u.values))


def brute_force_orientation(pseudo, menu):
    """Reference orientation search: flip, fit every family, score, pick.

    Product and gaussian scores agree across flips only up to rounding,
    so scores are compared at 1e-12; ties prefer fewer flips, then the
    earlier pattern, then the earlier family.
    """
    d, t = pseudo.n_channels, pseudo.n_samples
    best = None
    for idx, pattern in enumerate(cartesian((False, True), repeat=d)):
        values = pseudo.values.copy()
        for row in np.flatnonzero(pattern):
            values[row] = pseudo_observations(SignalMatrix(-values[[row]])).values[0]
        flipped = PseudoObservations(values)
        for pos, family in enumerate(menu):
            try:
                model = fit_copula(flipped, family)
            except FamilyDomainError:
                continue
            k = {"product": 0, "gaussian": d * (d - 1) // 2}.get(family, 1)
            score = np.mean(model.log_density(values)) - k * np.log(t) / (2 * t)
            key = (round(score, 12), -sum(pattern), -idx, -pos)
            if best is None or key > best[0]:
                best = (key, pattern, model)
    return best[1], best[2]


class TestDetectPartition:
    @pytest.mark.parametrize("seed", range(3))
    def test_dependent_pair_detected(self, seed):
        s = clayton_laplace_sources(seed, t=5000)
        part = detect_partition(pseudo_observations(s))
        assert part.blocks == ((0, 1), (2,))

    @pytest.mark.parametrize("seed", range(3))
    def test_whitened_pair_detected_by_energy_correlation(self, seed):
        # whitening leaves the pair a plain rank tau below 0.03
        z, _, _ = center_and_whiten(clayton_laplace_sources(seed, t=5000))
        part = detect_partition(pseudo_observations(z))
        assert part.blocks == ((0, 1), (2,))

    def test_independent_channels_are_singletons(self):
        rng = np.random.default_rng(11)
        u = pseudo_observations(SignalMatrix(rng.random((3, 5000))))
        assert detect_partition(u).blocks == ((0,), (1,), (2,))

    def test_transitive_grouping(self):
        # chain dependence: 0-1 and 1-2 coupled puts all three in one block
        rng = np.random.default_rng(13)
        base = rng.standard_normal(4000)
        values = np.vstack([
            base + 0.5 * rng.standard_normal(4000),
            base + 0.5 * rng.standard_normal(4000),
            base + 0.5 * rng.standard_normal(4000),
        ])
        part = detect_partition(pseudo_observations(SignalMatrix(values)))
        assert part.blocks == ((0, 1, 2),)

    def test_needs_enough_samples(self):
        u = pseudo_observations(SignalMatrix(np.random.default_rng(0).random((2, 50))))
        with pytest.raises(ValueError, match="100"):
            detect_partition(u)


def weak_pair_sources(seed, t, clayton=1.0, gumbel=1.5):
    """Laplace sources: a clayton pair, a gumbel pair (by default both of
    Kendall tau 1/3) and an independent fifth channel."""
    partition = BlockPartition(((0, 1), (2, 3), (4,)), 5)
    models = (ClaytonCopula(clayton, 2), GumbelCopula(gumbel), ProductCopula(1))
    u = FactorialCopula(partition, models).sample(t, seed=seed)
    return SignalMatrix(margin_ppf("laplace", (0.0, 1.0), u.values))


def rotation_phase(x, seed):
    """The demixing and the components that cca_fit hands to
    fit_dependence."""
    z, _, whitening = center_and_whiten(x)
    rotation, _ = fastica(z, seed=seed)
    rotation = normalize_components(rotation, z)
    return rotation @ whitening, SignalMatrix(rotation @ z.values)


class TestCalibratedDetection:
    def test_matrices_are_spearman_rho_of_ranks_and_energies(self):
        rng = np.random.default_rng(60)
        base = rng.standard_normal(600)
        values = np.vstack([
            np.round(base + rng.standard_normal(600), 1),
            np.round(base ** 2, 0),
            rng.integers(0, 4, 600),
            rng.laplace(size=600),
        ])
        u = pseudo_observations(SignalMatrix(values)).values
        plain, energy = _spearman(u), _spearman(_energy_ranks(u))
        energies = np.abs(2.0 * rankdata(values, axis=1) - 601)
        assert_allclose(plain, spearmanr(u, axis=1).statistic, rtol=0.0, atol=1e-12)
        assert_allclose(energy, spearmanr(energies, axis=1).statistic, rtol=0.0, atol=1e-12)

    def test_u_and_one_minus_u_share_an_energy_rank_exactly(self):
        # |u - 1/2| rounds r / (T + 1) and (T + 1 - r) / (T + 1) apart, which
        # split 8 334 of these 20 000 ties; the integer energies do not
        t = 20000
        x = np.random.default_rng(62).standard_normal((1, t))
        ranks = margins._average_ranks(x)
        energy = inference._energy_ranks(ranks / (t + 1))
        by_rank = energy[0, np.argsort(ranks[0])]
        assert np.array_equal(by_rank, by_rank[::-1])
        assert np.array_equal(energy, margins._average_ranks(np.abs(2.0 * ranks - (t + 1))))

    @pytest.mark.parametrize("t", [2, 3, 500, 501])
    def test_energy_ranks_of_tied_rows_bit_identical(self, t):
        # rows with ties in the data (and so half-integer ranks), at odd and
        # even T: the counting sort gives the average ranks of the integer
        # energies |2r - (T + 1)| exactly
        rng = np.random.default_rng(t)
        x = np.vstack([
            rng.integers(0, 3, t),
            np.round(rng.laplace(size=t), 1),
            rng.standard_normal(t),
            np.full(t, 7.0),
            np.arange(t) // 2,
        ])
        ranks = margins._average_ranks(x)
        energy = inference._energy_ranks(ranks / (t + 1))
        assert np.array_equal(energy, margins._average_ranks(np.abs(2.0 * ranks - (t + 1))))

    @pytest.mark.parametrize("kind", ["plain", "energy"])
    def test_pair_joins_exactly_above_the_threshold(self, kind):
        # sweep a pair's dependence from none to about twice the threshold
        t = 2000
        threshold = inference._detection_threshold(2, t)
        rng = np.random.default_rng(61)
        base, noise = rng.standard_normal((2, t))
        joined = []
        for c in np.linspace(0.0, 0.2, 41):
            other = base * c + noise if kind == "plain" else noise * np.exp(c * np.abs(base))
            pseudo = pseudo_observations(SignalMatrix(np.vstack([base, other])))
            plain, energy = _spearman(pseudo.values), _spearman(_energy_ranks(pseudo.values))
            above = max(abs(plain[0, 1]), abs(energy[0, 1])) > threshold
            assert (detect_partition(pseudo).n_blocks == 1) == above, c
            joined.append(above)
        assert not joined[0] and joined[-1]

    def test_threshold_follows_samples_and_channels(self):
        # z / sqrt(T - 1) with z the Bonferroni quantile over 2 C(n, 2) tests
        threshold = inference._detection_threshold
        assert threshold(8, 2000) / threshold(8, 20000) == pytest.approx(np.sqrt(19999 / 1999), rel=1e-12)
        assert threshold(3, 5000) < threshold(8, 5000) < threshold(16, 5000)

    def test_independent_sources_rarely_form_a_block(self):
        # the false-block rate after the rotation phase at a small T, where
        # its estimation error is largest
        false_blocks = 0
        for seed in range(30000, 30100):
            rng = np.random.default_rng(seed)
            x = mix(SignalMatrix(rng.laplace(size=(8, 2000))), well_conditioned_mixing(rng, 8))
            _, report = cca_fit(x, seed=seed)
            false_blocks += any(len(block) > 1 for block in report.partition.blocks)
        assert false_blocks <= 1

    @staticmethod
    def _pairs_found(seeds, t, **thetas):
        found = 0
        for seed in seeds:
            a = well_conditioned_mixing(np.random.default_rng(seed), 5)
            demixing, components = rotation_phase(mix(weak_pair_sources(seed, t, **thetas), a), seed)
            part, _, _ = fit_dependence(components)
            perm = align_permutation(demixing @ a)
            found += sorted(tuple(sorted(perm[list(b)])) for b in part.blocks) == [(0, 1), (2, 3), (4,)]
        return found

    def test_weak_pairs_found_after_rotation_phase(self):
        seeds = range(31000, 31020)
        assert self._pairs_found(seeds, 10000) >= 0.95 * len(seeds)

    def test_weaker_pairs_found_at_large_t(self):
        # tau 0.2 pairs read rho 0.06-0.08 after whitening at T = 20k,
        # about twice the threshold there and below any fixed 0.1
        seeds = range(32000, 32010)
        assert self._pairs_found(seeds, 20000, clayton=0.5, gumbel=1.25) == len(seeds)


class TestSelectFamily:
    """The family an orientation search picks when it may flip nothing."""

    MENU = ("product", "gaussian", "clayton")

    @staticmethod
    def select_family(u, menu):
        return _fit_block(_average_ranks(u.values), tuple(range(u.n_channels)), menu, orient=False).copula.family

    def test_clayton_data_selects_clayton(self):
        wins = sum(
            self.select_family(ClaytonCopula(2.0, 2).sample(10000, seed=300 + k), self.MENU)
            == "clayton"
            for k in range(20)
        )
        assert wins >= 18

    def test_independent_data_selects_product(self):
        # The BIC penalty, log T / (2T) per parameter, makes a false
        # dependent pick rarer as T grows (an AIC-type 1/T penalty is
        # overshot with probability P(chi2_1 > 2) ~ 0.16 at any T).
        wins = sum(
            self.select_family(ProductCopula(2).sample(10000, seed=400 + k), self.MENU) == "product"
            for k in range(20)
        )
        assert wins >= 18

    def test_singleton_menu(self):
        u = ClaytonCopula(2.0, 2).sample(500, seed=1)
        assert self.select_family(u, ("product",)) == "product"

    def test_gumbel_skipped_on_negative_dependence(self):
        u = GumbelCopula(2.0).sample(2000, seed=5)
        flipped = PseudoObservations(np.vstack([u.values[0], 1.0 - u.values[1]]))
        assert self.select_family(flipped, ("product", "gumbel")) == "product"


class TestKlDecomposition:
    def test_independent_with_product_model(self):
        rng = np.random.default_rng(0)
        s = SignalMatrix(rng.random((3, 10000)))
        i, h, d = kl_decomposition(s, ProductCopula(3))
        assert h == 0.0
        assert d == i
        assert d <= 0.02

    def test_gaussian_pair_with_fitted_model(self):
        u = GaussianCopula(corr2(0.7)).sample(10000, seed=0)
        s = SignalMatrix(u.values)
        fitted = fit_copula(pseudo_observations(s), "gaussian")
        i, h, d = kl_decomposition(s, fitted)
        assert i == pytest.approx(-0.5 * np.log(0.51), abs=0.02)
        assert abs(d) <= 0.05

    def test_dependent_pair_with_product_model(self):
        # the gap to the independence model stays in the first term
        u = GaussianCopula(corr2(0.7)).sample(10000, seed=0)
        s = SignalMatrix(u.values)
        i, h, d = kl_decomposition(s, ProductCopula(2))
        assert h == 0.0
        assert d == i
        assert d == pytest.approx(-0.5 * np.log(0.51), abs=0.03)


    def test_constant_channel_is_degenerate(self):
        x = np.random.default_rng(1).laplace(size=(3, 500))
        x[0] = 2.0
        with pytest.raises(DegenerateInputError, match="channel 0 is constant"):
            kl_decomposition(SignalMatrix(x), ProductCopula(3))


class TestAverageLogLikelihood:
    def test_product_model_reduces_to_marginal_term(self):
        rng = np.random.default_rng(1)
        x = SignalMatrix(rng.laplace(size=(2, 2000)))
        separation = identity_separation(2)
        margins = MarginalModel.fit(separation.separate(x))
        value = average_log_likelihood(x, separation, ProductCopula(2), margins)
        expected = float(np.mean(margins.log_density(separation.separate(x).values).sum(axis=0)))
        assert value == expected

    def test_fitted_theta_dominates_grid(self):
        s = clayton_laplace_sources(2, t=5000)
        pair = SignalMatrix(s.values[:2])
        separation = identity_separation(2)
        margins = MarginalModel.fit(pair)
        fitted = fit_copula(pseudo_observations(pair), "clayton")
        best = average_log_likelihood(pair, separation, fitted, margins)
        for theta in (0.5, 1.0, 3.0, 5.0):
            other = average_log_likelihood(pair, separation, ClaytonCopula(theta, 2), margins)
            assert best >= other

    def test_grid_argmax_matches_fit_and_divergence_argmin(self):
        s = clayton_laplace_sources(3, t=5000)
        pair = SignalMatrix(s.values[:2])
        separation = identity_separation(2)
        margins = MarginalModel.fit(pair)
        fitted = fit_copula(pseudo_observations(pair), "clayton")

        grid = np.arange(1.0, 3.0001, 0.05)
        likelihoods = [
            average_log_likelihood(pair, separation, ClaytonCopula(t, 2), margins) for t in grid
        ]
        divergences = [kl_decomposition(pair, ClaytonCopula(t, 2))[2] for t in grid]
        best_l = int(np.argmax(likelihoods))
        best_d = int(np.argmin(divergences))
        assert best_l == best_d
        assert abs(grid[best_l] - fitted.theta) <= 0.05

    def test_dimension_checks(self):
        x = SignalMatrix(np.random.default_rng(2).laplace(size=(2, 500)))
        separation = identity_separation(2)
        margins = MarginalModel.fit(separation.separate(x))
        with pytest.raises(ValueError, match="channel count"):
            average_log_likelihood(x, separation, ProductCopula(3), margins)


class TestFitDependence:
    def test_recovers_block_and_theta_without_mixing(self):
        s = clayton_laplace_sources(4)
        part, copula, flips = fit_dependence(s)
        assert part.blocks == ((0, 1), (2,))
        assert copula.blocks[0].family == "clayton"
        assert 1.6 <= copula.blocks[0].theta <= 2.4
        assert not flips.any()

    def test_orientation_repair_on_flipped_component(self):
        s = clayton_laplace_sources(4)
        flipped = SignalMatrix(s.values * np.array([-1.0, 1.0, 1.0])[:, None])
        part, copula, flips = fit_dependence(flipped)
        base_part, base_copula, _ = fit_dependence(s)
        assert part.blocks == base_part.blocks
        assert copula.blocks[0].family == "clayton"
        assert copula.blocks[0].theta == base_copula.blocks[0].theta
        assert flips[0] and not flips[1] and not flips[2]

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(maps=st.lists(INCREASING_MAPS, min_size=6, max_size=6))
    def test_phase_two_invariant_under_increasing_transforms(self, maps):
        # phase 2 sees ranks only, so one strictly increasing map per
        # channel leaves every output exactly as it was
        s, (part, copula, flips) = _six_channel_fit()
        warped = SignalMatrix(np.vstack([f(row) for f, row in zip(maps, s.values)]))
        part_w, copula_w, flips_w = fit_dependence(warped)
        assert part_w.blocks == part.blocks == ((0, 1, 2), (3, 4), (5,))
        assert [m.family for m in copula_w.blocks] == [m.family for m in copula.blocks]
        assert [repr(getattr(m, "theta", None)) for m in copula_w.blocks] == [
            repr(getattr(m, "theta", None)) for m in copula.blocks
        ]
        assert np.array_equal(flips_w, flips)

    def test_model_improvement_over_independence(self):
        s = clayton_laplace_sources(7, t=5000)
        _, copula, flips = fit_dependence(s)
        oriented = SignalMatrix(s.values * np.where(flips, -1.0, 1.0)[:, None])
        _, _, d_fitted = kl_decomposition(oriented, copula)
        _, _, d_product = kl_decomposition(oriented, ProductCopula(3))
        assert d_fitted <= d_product + 1e-9

    def test_explicit_partition_is_respected(self):
        rng = np.random.default_rng(8)
        s = SignalMatrix(rng.laplace(size=(3, 2000)))
        forced = BlockPartition(((0, 2), (1,)), 3)
        part, copula, _ = fit_dependence(s, partition=forced)
        assert part.blocks == forced.blocks
        assert copula.partition.blocks == forced.blocks

    def test_partition_dimension_mismatch(self):
        s = SignalMatrix(np.random.default_rng(9).laplace(size=(3, 500)))
        with pytest.raises(ValueError, match="partition"):
            fit_dependence(s, partition=BlockPartition.singletons(2))

    @pytest.mark.parametrize("menu", [("clayton",), ("gumbel",), ("clayton", "gumbel")])
    def test_tail_asymmetric_menus_need_100_samples(self, menu):
        u = ClaytonCopula(4.0, 2).sample(50, seed=0)
        s = SignalMatrix(margin_ppf("laplace", (0.0, 1.0), u.values))
        with pytest.raises(ValueError, match="need at least 100 samples"):
            fit_dependence(s, families=menu, partition=BlockPartition(((0, 1),), 2))

    def test_block_fit_error_names_block(self):
        rng = np.random.default_rng(10)
        s = SignalMatrix(rng.laplace(size=(3, 500)))
        forced = BlockPartition(((0, 1, 2),), 3)
        with pytest.raises(BlockFitError) as exc_info:
            fit_dependence(s, families=("gumbel",), partition=forced)
        assert exc_info.value.block == (0, 1, 2)

    def test_block_holding_a_constant_channel_fails_loudly(self):
        x = np.random.default_rng(11).laplace(size=(3, 500))
        x[1] = 0.0
        forced = BlockPartition(((0, 1), (2,)), 3)
        with pytest.raises(BlockFitError, match="channel 1 is constant") as exc_info:
            fit_dependence(SignalMatrix(x), partition=forced)
        assert exc_info.value.block == (0, 1)

    @staticmethod
    def _count_kendall_tau(monkeypatch):
        calls = []
        for module in (inference, copulas):
            original = module.kendall_tau

            def counted(x, y, original=original):
                calls.append(1)
                return original(x, y)

            monkeypatch.setattr(module, "kendall_tau", counted)
        return calls

    def test_kendall_tau_once_per_pair_and_block(self, monkeypatch):
        # neither detection nor the block fits take a Kendall tau: the
        # theta starts come from the blocks' Spearman rho
        calls = self._count_kendall_tau(monkeypatch)
        part, copula, _ = fit_dependence(block_sources(1, 1500))
        assert part.blocks == ((0, 1, 2), (3, 4), (5,))
        assert [m.family for m in copula.blocks] == ["clayton", "gumbel", "product"]
        assert calls == []

    def test_explicit_partition_takes_each_block_tau_once(self, monkeypatch):
        sources = block_sources(1, 1500)
        auto = fit_dependence(sources)
        calls = self._count_kendall_tau(monkeypatch)
        part, copula, flips = fit_dependence(sources, partition=BlockPartition(((0, 1, 2), (3, 4), (5,)), 6))
        assert calls == []
        # an explicit partition fits its blocks as the detected one does
        assert [repr(m.theta) for m in copula.blocks[:2]] == [repr(m.theta) for m in auto[1].blocks[:2]]
        assert np.array_equal(flips, auto[2])

    @pytest.mark.parametrize("case", ["clayton triple", "survival clayton", "negated gumbel", "negative gaussian"])
    def test_orientation_matches_brute_force(self, case):
        if case == "clayton triple":
            values = ClaytonCopula(2.0, 3).sample(2000, seed=31).values
        elif case == "survival clayton":
            values = 1.0 - ClaytonCopula(2.0, 2).sample(2000, seed=32).values
        elif case == "negated gumbel":
            values = GumbelCopula(2.0).sample(2000, seed=33).values * np.array([[1.0], [-1.0]])
        else:
            values = GaussianCopula(corr2(-0.6)).sample(2000, seed=34).values
        pseudo = pseudo_observations(SignalMatrix(values))
        ranks = _average_ranks(pseudo.values)
        before = ranks.copy()
        fit = _fit_block(ranks, tuple(range(pseudo.n_channels)), FAMILY_NAMES)
        model = fit.copula
        ref_pattern, ref_model = brute_force_orientation(pseudo, FAMILY_NAMES)
        flips = np.array(ref_pattern)
        assert tuple(np.diag(fit.within) < 0) == tuple(ref_pattern)
        assert np.array_equal(fit.within, np.diag(np.where(flips, -1.0, 1.0)))
        # the record holds the ranks the winner was fitted on; the caller's are untouched
        assert np.array_equal(fit.ranks, np.where(flips[:, None], pseudo.n_samples + 1 - ranks, ranks))
        assert np.array_equal(ranks, before)
        assert model.family == ref_model.family
        if model.family == "gaussian":
            assert np.array_equal(model.correlation, ref_model.correlation)
        else:
            assert model.theta == ref_model.theta


@lru_cache(maxsize=None)
def _dependent_blocks():
    """Clayton triple and gumbel pair, and their dependence fit."""
    s = SignalMatrix(block_sources(2, 1000).values[:5])
    return s, fit_dependence(s)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(mask=st.lists(st.booleans(), min_size=5, max_size=5))
def test_fit_dependence_equivariant_under_negation(mask):
    # negating components changes only which rows the orientation flips
    s, (part, copula, flips) = _dependent_blocks()
    mask = np.array(mask)
    negated = SignalMatrix(s.values * np.where(mask, -1.0, 1.0)[:, None])
    part_n, copula_n, flips_n = fit_dependence(negated)
    assert part_n.blocks == part.blocks
    assert [m.family for m in copula_n.blocks] == [m.family for m in copula.blocks]
    assert [m.theta for m in copula_n.blocks] == [m.theta for m in copula.blocks]
    assert np.array_equal(flips_n, flips ^ mask)


@lru_cache(maxsize=None)
def _six_channel_fit():
    """Clayton triple, gumbel pair and singleton, with channels 0 and 4
    negated so that the orientation flips them, and their dependence fit."""
    s = SignalMatrix(block_sources(1, 1500).values * np.array([[-1.0], [1], [1], [1], [-1], [1]]))
    return s, fit_dependence(s)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(order=st.permutations(range(6)))
def test_fit_dependence_equivariant_under_permutation(order):
    # channel k of the permuted sources is channel order[k] of the original;
    # theta may move in the last bits, as the tau mean and the channel sums
    # of the log density are added in another order
    s, (part, copula, flips) = _six_channel_fit()
    order = np.array(order)
    part_p, copula_p, flips_p = fit_dependence(SignalMatrix(s.values[order]))
    position = np.argsort(order)
    expected = {
        tuple(sorted(position[list(block)])): model
        for block, model in zip(part.blocks, copula.blocks)
    }
    assert set(part_p.blocks) == set(expected)
    for block, model in zip(part_p.blocks, copula_p.blocks):
        assert model.family == expected[block].family
        if hasattr(model, "theta"):
            assert abs(model.theta - expected[block].theta) <= _THETA_TOL
    assert np.array_equal(flips_p, flips[order])


@settings(derandomize=True, max_examples=6, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda sizes: 2 <= sum(sizes) <= 5),
    family=st.sampled_from(["clayton", "gumbel", "gaussian"]),
    seed=st.integers(0, 2**16),
)
def test_divergence_splits_exactly_across_modules(sizes, family, seed):
    # D = I + H holds exactly in kl_decomposition, and cca_fit's report
    # equals kl_decomposition of the sources it separated, computed in
    # the same order: within @ (rotation @ z)
    bounds = np.cumsum([0] + sizes)
    partition = BlockPartition(tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])), int(bounds[-1]))
    models = []
    for size in sizes:
        if size == 1:
            models.append(ProductCopula(1))
        elif family == "gaussian":
            models.append(GaussianCopula(np.full((size, size), 0.5) + 0.5 * np.eye(size)))
        else:
            models.append((GumbelCopula if family == "gumbel" and size == 2 else ClaytonCopula)(2.0, size))
    truth = FactorialCopula(partition, tuple(models))
    u = truth.sample(2000, seed=seed)
    sources = SignalMatrix(margin_ppf("laplace", (0.0, 1.0), u.values))
    i, h, d = kl_decomposition(sources, truth)
    assert d.hex() == (i + h).hex()

    x = mix(sources, well_conditioned_mixing(np.random.default_rng(seed), partition.n_channels))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        separation, report = cca_fit(x, seed=0)
    z, _, _ = center_and_whiten(x)
    recovered = SignalMatrix(separation.within @ (separation.rotation @ z.values))
    i, h, d = kl_decomposition(recovered, report.copula)
    assert (report.mutual_information.hex(), report.copula_entropy.hex()) == (i.hex(), h.hex())
    assert report.divergence.hex() == d.hex()


def put_along_axis_entropy_and_ranks(s):
    """Reference: m-spacing entropies from the values sorted by
    np.take_along_axis, and pseudo-observations by an integer rank scatter
    through np.put_along_axis, divided by T + 1."""
    t = s.shape[1]
    m = max(1, int(round(np.sqrt(t))))
    order = np.argsort(s, axis=1)
    ordered = np.take_along_axis(s, order, axis=1)
    with np.errstate(divide="ignore"):
        entropy = np.log((t + 1) / m * (ordered[:, m:] - ordered[:, :-m])).mean(axis=1)
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(1, t + 1), s.shape), axis=1)
    return entropy, ranks / (t + 1)


class TestSpacingEntropyAndRanks:
    @pytest.mark.parametrize("shape", [(2, 100), (18, 2000), (2, 5000)])
    def test_bit_identical_to_put_along_axis_reference(self, shape):
        s = np.random.default_rng(shape[1]).laplace(size=shape)
        # m + 1 = 11 equal values at T = 100: a zero spacing, entropy -inf
        s[-1, 10:21] = s[-1, 10]
        entropy, u = inference._spacing_entropy_and_ranks(s)
        expected_entropy, expected_u = put_along_axis_entropy_and_ranks(s)
        assert np.array_equal(entropy, expected_entropy)
        assert np.array_equal(u, expected_u)
        if shape[1] == 100:
            assert entropy[-1] == -np.inf

    def test_strided_rows_and_a_shared_read_only_lattice(self):
        s = np.random.default_rng(3).laplace(size=(4, 3000))[::2, ::3]
        entropy, u = inference._spacing_entropy_and_ranks(s)
        expected_entropy, expected_u = put_along_axis_entropy_and_ranks(s)
        assert np.array_equal(entropy, expected_entropy)
        assert np.array_equal(u, expected_u)
        lattice = margins._rank_lattice(1000)
        assert lattice is margins._rank_lattice(1000) and not lattice.flags.writeable


def whitened_pair(cls, t, seed):
    """A cls(2) pair with laplace margins, mixed and whitened: the input
    the pair refinement gets."""
    s = SignalMatrix(margin_ppf("laplace", (0.0, 1.0), cls(2.0, 2).sample(t, seed=seed).values))
    z, _, _ = center_and_whiten(mix(s, well_conditioned_mixing(np.random.default_rng(seed), 2)))
    return z.values


def per_start_grid_scores(sub, families):
    """Reference: the grid starts of ``_refine_pair`` scored one at a time,
    each by its own copula, as (score, i, k) in grid order per family,
    with the Kendall tau matrix of the directions."""
    step = 2.0 * np.pi / 36
    entropy, u = inference._spacing_entropy_and_ranks(inference._unit_rows(step * np.arange(18)) @ sub)
    entropy = np.tile(np.where(np.isfinite(entropy), entropy, np.inf), 2)
    u = np.concatenate([u, 1.0 - u])
    tau = 2.0 / np.pi * np.arcsin(np.clip(copulas.normal_scores_correlation(u), -1.0, 1.0))
    grid = [(i, k) for i in range(36) for k in range(1, 18) if 0.0 < tau[i, (i + k) % 36] < 1.0]
    scored = []
    for family in families:
        cls = copulas._THETA_FAMILIES[family]
        scored.append([])
        for i, k in grid:
            j = (i + k) % 36
            model = cls(copulas._theta_from_tau(family, tau[i, j]), 2)
            score = np.log(np.sin(k * step)) - entropy[i] - entropy[j] + float(np.mean(model._log_density(u[[i, j]])))
            scored[-1].append((score, i, k))
    return tau, scored


def tied_pair():
    # 100 equal values in the grid subsample of the first component: the
    # direction at angle 0 (and pi) has entropy -inf, so its starts score -inf
    y = whitened_pair(ClaytonCopula, 4000, seed=5).copy()
    y[0, :200] = y[0, 0]
    return y


class TestGridScores:
    @pytest.mark.parametrize(
        "y",
        [
            pytest.param(lambda: whitened_pair(GumbelCopula, 20000, seed=11), id="gumbel-20000"),
            pytest.param(lambda: whitened_pair(ClaytonCopula, 10000, seed=3), id="clayton-10000"),
            pytest.param(lambda: whitened_pair(GumbelCopula, 2000, seed=8), id="gumbel-2000"),
            pytest.param(tied_pair, id="tied"),
        ],
    )
    def test_batches_equal_one_start_at_a_time(self, y):
        y = y()
        sub = y[:, :: max(1, y.shape[1] // inference._GRID_SAMPLES)]
        families = ("clayton", "gumbel")
        tau, first, gap, scores = inference._grid_scores(sub, families)
        expected_tau, expected = per_start_grid_scores(sub, families)
        assert np.array_equal(tau, expected_tau)
        for score, reference in zip(scores, expected):
            assert list(zip(first.tolist(), gap.tolist())) == [(i, k) for _, i, k in reference]
            assert score.tolist() == [value for value, _, _ in reference]
            assert np.isfinite(score).any()
            if y.shape[1] == 4000:
                assert (score[(first == 0) | (first == 18)] == -np.inf).all()


class TestPairRefinement:
    def test_polish_evaluation_budget(self, monkeypatch):
        # polished from axis-aligned simplices to xatol = 5e-3 and
        # fatol = 1e-5, this pair took 315 evaluations (and the cli-loop
        # benchmark's `copsep synth` input, seed 11, took 276 + 4)
        calls = []
        evaluate = inference._polish_log_likelihood
        monkeypatch.setattr(
            inference, "_polish_log_likelihood", lambda y, p, cls: calls.append(1) or evaluate(y, p, cls)
        )
        out = inference._refine_pair(whitened_pair(GumbelCopula, 20000, seed=11), ("clayton", "gumbel"))
        assert len(out) == 2
        assert len(calls) <= 315 // 2

    def test_pair_accuracy(self, tmp_path):
        # the cli-loop benchmark's `copsep synth` recipe at T = 10 000;
        # polished from axis-aligned simplices to xatol = 5e-3 and
        # fatol = 1e-5, the mean Amari index over these ten pairs was
        # 0.022770 (gumbel 0.025349, clayton 0.020191; the clayton half
        # now reads higher, 0.0213), and the clayton pair of seed 2 got
        # theta 1.597. Five seeds per family resolve little: see the
        # two-channel test below for a larger sample
        amari, thetas = [], []
        for family in ("gumbel", "clayton"):
            for seed in range(5):
                data, truth = tmp_path / f"{family}{seed}.csv", tmp_path / f"{family}{seed}.json"
                assert cli.main([
                    "synth", "--channels", "3", "--samples", "10000", "--partition", "1,2|3",
                    "--copula", family, "--theta", "2", "--margins", "laplace", "--mix", "random",
                    "--seed", str(seed), "--out", str(data), "--truth-out", str(truth),
                ]) == 0
                mixing = np.asarray(json.loads(truth.read_text())["mixing"])
                separation, report = cca_fit(cli.read_signal_csv(data), seed=seed)
                gain = separation.demixing @ mixing
                perm = align_permutation(gain)
                pairs = [
                    model
                    for block, model in zip(report.partition.blocks, report.copula.blocks)
                    if sorted(perm[i] for i in block) == [0, 1]
                ]
                assert len(pairs) == 1 and pairs[0].family == family, f"{family} seed {seed}"
                thetas.append(pairs[0].theta)
                amari.append(amari_index(gain))
        assert 1.6 <= min(thetas) and max(thetas) <= 2.4, thetas
        assert np.mean(amari) <= 0.022770

    def test_pair_accuracy_on_two_channel_pairs(self):
        # the refinement alone on 40 whitened two-channel pairs (T = 10 000,
        # seeds 0-19 per family), keeping the family with the higher
        # likelihood as the pipeline does; polished from axis-aligned
        # simplices to xatol = 5e-3 and fatol = 1e-5, the mean Amari index
        # was 0.041784 (clayton 0.028678, gumbel 0.054891), every pair of
        # its true family
        amari = []
        for cls, family in ((ClaytonCopula, "clayton"), (GumbelCopula, "gumbel")):
            for seed in range(20):
                s = SignalMatrix(margin_ppf("laplace", (0.0, 1.0), cls(2.0, 2).sample(10000, seed=seed).values))
                a = well_conditioned_mixing(np.random.default_rng([seed, 1]), 2)
                z, _, whitening = center_and_whiten(mix(s, a))
                fits = inference._refine_pair(z.values, ("clayton", "gumbel"))
                assert len(fits) == 2
                best = int(np.argmax([value for value, _ in fits]))
                assert ("clayton", "gumbel")[best] == family, f"{family} seed {seed}"
                amari.append(amari_index(fits[best][1] @ whitening @ a))
        assert np.mean(amari) <= 0.041784


class TestCcaFit:
    def test_independent_laplace_recovers_everything(self):
        rng = np.random.default_rng(20)
        s = SignalMatrix(rng.laplace(size=(3, 5000)))
        a = well_conditioned_mixing(rng, 3)
        separation, report = cca_fit(mix(s, a), seed=20)
        assert report.partition.blocks == ((0,), (1,), (2,))
        assert isinstance(report.copula, FactorialCopula)
        assert all(block.family == "product" for block in report.copula.blocks)
        assert report.copula_entropy == 0.0
        assert amari_index(separation.demixing @ a) < 0.05

    def test_identity_mixing_of_independent_uniforms(self):
        rng = np.random.default_rng(21)
        x = SignalMatrix(rng.random((3, 5000)))
        _, report = cca_fit(x, seed=21)
        assert report.divergence <= 0.05

    def test_dependent_pair_end_to_end(self):
        # After whitening, no orthogonal rotation can reproduce a
        # correlated source pair: the pair is found by its energy rank
        # correlation and recovered by the within-block refinement.
        s = clayton_laplace_sources(42)
        a = well_conditioned_mixing(np.random.default_rng(42), 3)
        separation, report = cca_fit(mix(s, a), seed=42)
        perm = align_permutation(separation.demixing @ a)
        mapped = BlockPartition(
            tuple(tuple(perm[i] for i in block) for block in report.partition.blocks), 3
        )
        assert mapped.blocks == ((0, 1), (2,))
        # look the pair up by its channels in the report's own block order
        pair_block = next(
            model
            for block, model in zip(report.partition.blocks, report.copula.blocks)
            if sorted(perm[i] for i in block) == [0, 1]
        )
        assert pair_block.family == "clayton"
        assert 1.6 <= pair_block.theta <= 2.4

    def test_log_likelihood_evaluates_margins_on_fitted_sources(self, tmp_path):
        # the inputs of `copsep synth ... --seed 2` as the CLI benchmark
        # loop runs it; separation.separate(x) puts a few extremes a few
        # ulps outside the histograms fitted on cca_fit's own sources
        data = tmp_path / "data.csv"
        assert cli.main([
            "synth", "--channels", "3", "--samples", "20000", "--partition", "1,2|3",
            "--copula", "gumbel", "--theta", "2", "--margins", "laplace", "--mix", "random",
            "--seed", "2", "--out", str(data), "--truth-out", str(tmp_path / "truth.json"),
        ]) == 0
        x = cli.read_signal_csv(data)
        separation, report = cca_fit(x, seed=2)
        z, _, _ = center_and_whiten(x)
        sources = SignalMatrix(separation.within @ (separation.rotation @ z.values))
        margins = MarginalModel.fit(sources)
        assert margins.density_floor_hits(sources.values) == 0
        assert not report.density_floor_hit
        expected = np.mean(
            margins.log_density(sources.values).sum(axis=0)
            + report.copula.log_density(pseudo_observations(sources).values)
        )
        assert report.log_likelihood == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_report_identity_and_determinism(self):
        rng = np.random.default_rng(22)
        x = SignalMatrix(rng.laplace(size=(3, 2000)))
        _, report_a = cca_fit(x, seed=5)
        _, report_b = cca_fit(x, seed=5)
        assert report_a.divergence == report_a.mutual_information + report_a.copula_entropy
        assert report_a.divergence == report_b.divergence
        assert report_a.log_likelihood == report_b.log_likelihood
        assert report_a.seed == 5
        assert report_a.ica_iterations >= 1
        assert report_a.density_floor_hit is False

    def test_dependent_pair_gets_within_block_transform(self):
        s = clayton_laplace_sources(42)
        a = well_conditioned_mixing(np.random.default_rng(42), 3)
        separation, _ = cca_fit(mix(s, a), seed=42)
        assert np.abs(separation.rotation @ separation.rotation.T - np.eye(3)).max() <= 1e-6
        assert amari_index(separation.demixing @ a) < 0.05
        assert amari_index(separation.rotation @ separation.whitening @ a) > 0.1

    def test_blocks_beyond_pairs_warn_and_keep_coordinates(self):
        rng = np.random.default_rng(24)
        x = SignalMatrix(rng.laplace(size=(3, 2000)))
        forced = BlockPartition(((0, 1, 2),), 3)
        with pytest.warns(UserWarning, match="only pairs"):
            separation, report = cca_fit(x, partition=forced, seed=24)
        assert report.partition.blocks == forced.blocks
        assert np.array_equal(np.abs(separation.within), np.eye(3))

    def test_menu_without_tail_asymmetric_families_refines_nothing_silently(self):
        rng = np.random.default_rng(24)
        x = SignalMatrix(rng.laplace(size=(3, 2000)))
        forced = BlockPartition(((0, 1, 2),), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            separation, report = cca_fit(x, families=("gaussian",), partition=forced, seed=24)
        assert report.copula.blocks[0].family == "gaussian"
        assert np.array_equal(np.abs(separation.within), np.eye(3))

    def test_refined_pair_reverts_when_refit_is_not_tail_asymmetric(self, monkeypatch):
        # on these rounded independent channels a fitted transform beats
        # the product fit by the BIC, so the pair is refitted; the refit
        # picks product, so the transform is dropped
        x = SignalMatrix(np.round(np.random.default_rng(0).laplace(size=(3, 3000)), 1))
        fitted = []
        orients = []
        fit_block = inference._fit_block

        def recording(pseudo, block, menu, orient=True):
            fitted.append(block)
            orients.append(orient)
            return fit_block(pseudo, block, menu, orient)

        monkeypatch.setattr(inference, "_fit_block", recording)
        separation, report = cca_fit(x, partition=BlockPartition(((0, 1), (2,)), 3), seed=0)
        assert fitted == [(0, 1), (0, 1)]
        assert orients == [True, False]
        assert np.array_equal(np.abs(separation.within), np.eye(3))
        assert report.copula.blocks[0].family == "product"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("cls", [ClaytonCopula, GumbelCopula])
    def test_refit_keeps_the_signs_the_full_orientation_search_picks(self, monkeypatch, cls, seed):
        # flipping a row of the refined transform gives another transform
        # the refinement searched, so the full search keeps the signs too
        s = SignalMatrix(margin_ppf("laplace", (0.0, 1.0), cls(2.0, 2).sample(3000, seed=seed).values))
        refits = []
        fit_block = inference._fit_block

        def recording(pseudo, block, menu, orient=True):
            if not orient:
                refits.append((fit_block(pseudo, block, menu), fit_block(pseudo, block, menu, orient=False)))
            return fit_block(pseudo, block, menu, orient)

        monkeypatch.setattr(inference, "_fit_block", recording)
        mixing = well_conditioned_mixing(np.random.default_rng(seed), 2)
        cca_fit(mix(s, mixing), partition=BlockPartition(((0, 1),), 2), seed=seed)
        assert len(refits) == 1
        full, kept = refits[0]
        assert tuple(np.diag(full.within) < 0) == tuple(np.diag(kept.within) < 0) == (False, False)
        assert full.copula.family == kept.copula.family == cls(2.0).family
        assert full.copula.theta == kept.copula.theta

    @pytest.mark.parametrize(
        "x, blocks, match",
        [
            (SignalMatrix(np.random.default_rng(24).laplace(size=(3, 2000))), ((0, 1, 2),), "only pairs"),
            (SignalMatrix(np.round(np.random.default_rng(0).laplace(size=(3, 3000)))), ((0, 1), (2,)), "tied values"),
        ],
        ids=["triple", "tied pair"],
    )
    def test_refinement_warnings_name_the_callers_line(self, x, blocks, match):
        with pytest.warns(UserWarning, match=match) as record:
            cca_fit(x, partition=BlockPartition(blocks, 3), seed=0)
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize(
        "families, blocks, family",
        # a forced triple is no pair, and with gaussian alone no family refines a pair
        [(FAMILY_NAMES, ((0, 1, 2),), "clayton"), (("gaussian",), ((0, 1), (2,)), "gaussian")],
        ids=["clayton triple", "gaussian pair"],
    )
    def test_unrefined_blocks_keep_the_fits_of_fit_dependence(self, families, blocks, family):
        partition = BlockPartition(blocks, 3)
        models = tuple(ClaytonCopula(2.0, len(b)) if len(b) > 1 else ProductCopula(1) for b in blocks)
        u = FactorialCopula(partition, models).sample(3000, seed=1)
        x = mix(SignalMatrix(margin_ppf("laplace", (0.0, 1.0), u.values)), well_conditioned_mixing(np.random.default_rng(1), 3))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "block .* only pairs", UserWarning)
            separation, report = cca_fit(x, families=families, partition=partition, seed=1)
        components = SignalMatrix(separation.rotation @ center_and_whiten(x)[0].values)
        part, copula, flips = fit_dependence(components, families=families, partition=partition)
        assert part.blocks == report.partition.blocks == blocks
        assert [_model_key(m) for m in report.copula.blocks] == [_model_key(m) for m in copula.blocks]
        assert report.copula.blocks[0].family == family
        assert np.array_equal(np.abs(separation.within), np.eye(3))
        assert np.array_equal(np.diag(separation.within) < 0, flips)

    @pytest.mark.parametrize("cls", [ClaytonCopula, GumbelCopula])
    def test_polish_scores_theta_overflow_as_minus_inf(self, cls):
        # theta = floor + exp(b): Nelder-Mead may step b past exp's range
        y = np.random.default_rng(26).laplace(size=(2, 500))
        y = np.linalg.inv(np.linalg.cholesky(np.cov(y))) @ (y - y.mean(axis=1, keepdims=True))
        angles = [0.0, np.pi / 2.0]
        assert inference._polish_log_likelihood(y, np.array(angles + [800.0]), cls) == -np.inf
        assert np.isfinite(inference._polish_log_likelihood(y, np.array(angles + [0.0]), cls))

    @pytest.mark.parametrize(
        "samples, options, match",
        [
            (60, {"partition": BlockPartition.singletons(3)}, "need at least 100 samples"),
            (500, {"families": ("bogus",)}, "unknown family 'bogus'"),
            (500, {"families": ()}, "menu must not be empty"),
            (500, {"partition": BlockPartition.singletons(2)}, "partition covers 2 channels, data has 3"),
        ],
        ids=["short-input", "unknown-family", "empty-menu", "partition-size"],
    )
    def test_invalid_input_fails_before_the_rotation_phase(self, monkeypatch, samples, options, match):
        def fail(*args, **kwargs):
            raise AssertionError("fastica ran")

        monkeypatch.setattr(inference, "fastica", fail)
        x = SignalMatrix(np.random.default_rng(25).laplace(size=(3, samples)))
        with pytest.raises(ValueError, match=match):
            cca_fit(x, **options)

    def test_explicit_partition_forces_block_structure(self):
        rng = np.random.default_rng(23)
        x = SignalMatrix(rng.laplace(size=(3, 2000)))
        forced = BlockPartition(((0, 1), (2,)), 3)
        _, report = cca_fit(x, partition=forced, seed=23)
        assert report.partition.blocks == forced.blocks
        assert report.copula.blocks[0].dim == 2


def _model_key(model):
    return (model.family, repr(getattr(model, "theta", None)), getattr(model, "correlation", np.empty(0)).tobytes())


def _fit_key(separation, report):
    return (
        separation.demixing.tobytes(),
        report.partition.blocks,
        [_model_key(m) for m in report.copula.blocks],
        report.divergence.hex(),
        report.log_likelihood.hex(),
    )


def _with_scipy_ranks(monkeypatch, run):
    """run() as is, then with scipy's rankdata in place of the numpy
    average-rank kernel at both ranking sites."""
    native = run()
    calls = []

    def scipy_ranks(values):
        calls.append(values.shape)
        return rankdata(values, method="average", axis=1)

    with monkeypatch.context() as m:
        m.setattr(margins, "_average_ranks", scipy_ranks)
        m.setattr(inference, "_average_ranks", scipy_ranks)
        reference = run()
    assert calls
    return native, reference


class TestRankKernelLeavesOutputsUnchanged:
    def test_cca_fit_on_independent_channels(self, monkeypatch):
        rng = np.random.default_rng(8)
        x = mix(SignalMatrix(rng.laplace(size=(8, 5000))), well_conditioned_mixing(rng, 8))
        native, reference = _with_scipy_ranks(monkeypatch, lambda: _fit_key(*cca_fit(x, seed=8)))
        assert native == reference

    def test_cca_fit_on_rounded_clayton_pair(self, monkeypatch):
        x = SignalMatrix(np.round(clayton_laplace_sources(42, t=4000).values, 1))
        native, reference = _with_scipy_ranks(monkeypatch, lambda: _fit_key(*cca_fit(x, seed=42)))
        assert native == reference
        # components come out permuted; the pair is found either way
        assert sorted(map(len, native[1])) == [1, 2]

    def test_fit_dependence_on_blocks(self, monkeypatch):
        s = block_sources(3, 5000)

        def run():
            partition, copula, flips = fit_dependence(s)
            i, h, d = kl_decomposition(SignalMatrix(s.values * np.where(flips, -1.0, 1.0)[:, None]), copula)
            return partition.blocks, [_model_key(m) for m in copula.blocks], flips.tobytes(), (i.hex(), h.hex(), d.hex())

        native, reference = _with_scipy_ranks(monkeypatch, run)
        assert native == reference
        assert native[0] == ((0, 1, 2), (3, 4), (5,))


def _with_reference_scores(monkeypatch, run):
    """run() as is, then with plain ndtri in place of the normal-score table
    and each clayton or gumbel candidate scored by evaluating its fitted
    model again, as ``_fit_block`` scores product and gaussian."""
    native = run()
    search = inference._fit_archimedean

    def rescored(values, family, tau, log_u=None):
        model, _ = search(values, family, tau, log_u)
        return model, float(np.mean(model.log_density(values)))

    with monkeypatch.context() as m:
        m.setattr(copulas, "_normal_scores", ndtri)
        m.setattr(inference, "_fit_archimedean", rescored)
        reference = run()
    return native, reference


def _fit_blocks_key(s):
    """The fit-blocks benchmark op on sources s: fit_dependence, then
    kl_decomposition of the oriented sources."""
    partition, copula, flips = fit_dependence(s)
    i, h, d = kl_decomposition(SignalMatrix(s.values * np.where(flips, -1.0, 1.0)[:, None]), copula)
    return partition.blocks, [_model_key(m) for m in copula.blocks], flips.tobytes(), (i.hex(), h.hex(), d.hex())


class TestBlockFitReusesItsWork:
    """Phase 2 scores each clayton or gumbel candidate by its own theta
    search's optimum, reads normal scores of pseudo-observations from a
    per-T table and takes each pattern's tau from one Spearman triangle;
    every output equals, bit for bit, that of recomputing each of them."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fit_blocks_outputs_unchanged(self, monkeypatch, seed):
        s = block_sources(seed, 5000)
        native, reference = _with_reference_scores(monkeypatch, lambda: _fit_blocks_key(s))
        assert native == reference
        assert native[0] == ((0, 1, 2), (3, 4), (5,))

    def test_cca_fit_on_rounded_clayton_pair(self, monkeypatch):
        x = SignalMatrix(np.round(clayton_laplace_sources(42, t=4000).values, 1))
        native, reference = _with_reference_scores(monkeypatch, lambda: _fit_key(*cca_fit(x, seed=42)))
        assert native == reference
        assert sorted(map(len, native[1])) == [1, 2]

    def test_each_search_optimum_is_evaluated_once(self, monkeypatch):
        # six searches: the pair's two patterns with tau > 0 times two
        # families, and the triple's two with clayton; evaluating each
        # optimum again to score it would take six more density evaluations
        s = block_sources(1, 5000)
        evaluated = []
        for cls, family in ((ClaytonCopula, "clayton"), (GumbelCopula, "gumbel")):
            evaluate = cls._log_density_at
            monkeypatch.setattr(
                cls, "_log_density_at",
                classmethod(
                    lambda c, th, terms, family=family, evaluate=evaluate:
                    evaluated.append((family, th)) or evaluate(th, terms)
                ),
            )
        optima = []
        search = inference._fit_archimedean

        def recorded(values, family, tau, log_u=None):
            model, mean_log_density = search(values, family, tau, log_u)
            optima.append((model.family, model.theta))
            return model, mean_log_density

        monkeypatch.setattr(inference, "_fit_archimedean", recorded)

        def run():
            evaluated.clear()
            optima.clear()
            fit_dependence(s)
            return len(evaluated), [evaluated.count(optimum) for optimum in optima]

        (native, once), (reference, twice) = _with_reference_scores(monkeypatch, run)
        assert once == [1] * 6
        assert twice == [2] * 6
        assert reference - native == 6

    def test_pattern_tau_is_that_of_the_flipped_ranks(self, monkeypatch):
        # each searched pattern's tau equals, bit for bit, the tau of its own
        # flipped pseudo-observations; patterns with tau <= 0 are not searched
        searched = []
        search = inference._fit_archimedean

        def recorded(values, family, tau, log_u=None):
            rho = _spearman(_average_ranks(values))
            searched.append((values.shape[0], tau, _mean_tau(rho[np.triu_indices(len(rho), 1)])))
            return search(values, family, tau, log_u)

        monkeypatch.setattr(inference, "_fit_archimedean", recorded)
        fit_dependence(block_sources(1, 5000))
        # two patterns of each block (no flips and all flipped) times both
        # families; gumbel then declines the triple
        assert sorted(d for d, _, _ in searched) == [2, 2, 2, 2, 3, 3, 3, 3]
        for _, tau, expected in searched:
            assert tau > 0.0
            assert tau.hex() == expected.hex()

    def test_cached_tables_send_no_pseudo_observation_to_ndtri(self, monkeypatch):
        s = block_sources(1, 5000)
        _fit_blocks_key(s)
        received = []
        monkeypatch.setattr(copulas, "ndtri", lambda x: received.append(np.size(x)) or ndtri(x))
        _fit_blocks_key(s)
        assert received == []


def _count_average_ranks(monkeypatch):
    """The shape of every array ranked from here on, at each ranking site."""
    shapes = []
    for module in (margins, copulas, inference):
        original = module._average_ranks

        def counted(values, original=original):
            shapes.append(values.shape)
            return original(values)

        monkeypatch.setattr(module, "_average_ranks", counted)
    return shapes


class TestEachCoordinateSystemRankedOnce:
    """Phase 2, the pair refit and the report share one rank array; only a
    refined pair is ranked again, once."""

    def test_fit_dependence_ranks_its_sources_once(self, monkeypatch):
        shapes = _count_average_ranks(monkeypatch)
        part, _, _ = fit_dependence(block_sources(1, 1500))
        assert part.blocks == ((0, 1, 2), (3, 4), (5,))
        assert shapes == [(6, 1500)]

    def test_cca_fit_ranks_components_then_the_refined_pair(self, monkeypatch):
        s = clayton_laplace_sources(42)
        a = well_conditioned_mixing(np.random.default_rng(42), 3)
        shapes = _count_average_ranks(monkeypatch)
        separation, _ = cca_fit(mix(s, a), seed=42)
        assert (np.count_nonzero(separation.within, axis=1) == 2).sum() == 2
        assert shapes == [(3, 10000), (2, 10000)]

    def test_cca_fit_ranks_independent_channels_once(self, monkeypatch):
        rng = np.random.default_rng(20)
        s = SignalMatrix(rng.laplace(size=(3, 5000)))
        x = mix(s, well_conditioned_mixing(rng, 3))
        shapes = _count_average_ranks(monkeypatch)
        _, report = cca_fit(x, seed=20)
        assert report.partition.blocks == ((0,), (1,), (2,))
        assert shapes == [(3, 5000)]


class TestReportSharesOneRanking:
    """cca_fit ranks the rotation-phase components once and derives the
    report's ranks, margins and likelihood from that ranking; each report
    field must equal, bit for bit, its recomputation through the public
    route on the sources within @ components."""

    @staticmethod
    def _check(x, seed):
        separation, report = cca_fit(x, seed=seed)
        z, _, _ = center_and_whiten(x)
        sources = SignalMatrix(separation.within @ (separation.rotation @ z.values))
        pseudo = pseudo_observations(sources)
        model = MarginalModel.fit(sources)
        log_density, hits = model._log_density_and_floor_hits(sources.values)
        assert report.mutual_information == inference.mutual_information(pseudo)
        assert report.copula_entropy == copula_entropy(report.copula, pseudo)
        assert report.log_likelihood == inference._mean_log_likelihood(log_density, report.copula, pseudo)
        assert report.density_floor_hit == (hits > 0)
        return separation.within, report, model

    def test_independent_channels(self):
        rng = np.random.default_rng(70)
        x = mix(SignalMatrix(rng.laplace(size=(8, 5000))), well_conditioned_mixing(rng, 8))
        within, _, _ = self._check(x, 70)
        assert np.array_equal(np.abs(within), np.eye(8))

    def test_flipped_triple_and_refined_pair(self):
        rng = np.random.default_rng(0)
        x = mix(block_sources(0, 3000), well_conditioned_mixing(rng, 6))
        with pytest.warns(UserWarning, match="only pairs"):
            within, report, _ = self._check(x, 0)
        (triple,) = [list(b) for b in report.partition.blocks if len(b) == 3]
        assert np.diag(within)[triple].min() == -1.0
        assert (np.count_nonzero(within, axis=1) == 2).sum() == 2

    def test_tied_values(self):
        x = SignalMatrix(np.round(clayton_laplace_sources(42, t=4000).values, 1))
        self._check(x, 42)

    def test_far_outlier_caps_the_bins(self):
        rng = np.random.default_rng(71)
        s = rng.laplace(size=(3, 2000))
        s[0, 0] = 1e3
        _, _, model = self._check(mix(SignalMatrix(s), well_conditioned_mixing(rng, 3)), 71)
        assert max(len(p) for p in model.bin_probs) == 2000
