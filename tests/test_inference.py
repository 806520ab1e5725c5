import warnings
from functools import lru_cache
from itertools import product as cartesian

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
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
    select_family,
)
from copsep import cli, copulas, inference, margins
from copsep.exceptions import BlockFitError, FamilyDomainError
from copsep.copulas import FAMILY_NAMES, _THETA_TOL
from copsep.inference import _best_orientation, _rank_correlations
from copsep.margins import MarginalModel, PseudoObservations, margin_ppf


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
        plain, energy = _rank_correlations(u)
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
            plain, energy = _rank_correlations(pseudo.values)
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
    MENU = ("product", "gaussian", "clayton")

    def test_clayton_data_selects_clayton(self):
        wins = sum(
            select_family(ClaytonCopula(2.0, 2).sample(10000, seed=300 + k), self.MENU)
            == "clayton"
            for k in range(20)
        )
        assert wins >= 18

    def test_independent_data_selects_product(self):
        # The BIC penalty, log T / (2T) per parameter, makes a false
        # dependent pick rarer as T grows (an AIC-type 1/T penalty is
        # overshot with probability P(chi2_1 > 2) ~ 0.16 at any T).
        wins = sum(
            select_family(ProductCopula(2).sample(10000, seed=400 + k), self.MENU) == "product"
            for k in range(20)
        )
        assert wins >= 18

    def test_singleton_menu(self):
        u = ClaytonCopula(2.0, 2).sample(500, seed=1)
        assert select_family(u, ("product",)) == "product"

    def test_rejects_singleton_block(self):
        u = ProductCopula(1).sample(500, seed=2)
        with pytest.raises(ValueError, match="dimension at least 2"):
            select_family(u, self.MENU)

    def test_rejects_empty_menu(self):
        u = ProductCopula(2).sample(500, seed=3)
        with pytest.raises(ValueError, match="menu"):
            select_family(u, ())

    def test_gumbel_skipped_on_negative_dependence(self):
        u = GumbelCopula(2.0).sample(2000, seed=5)
        flipped = PseudoObservations(np.vstack([u.values[0], 1.0 - u.values[1]]))
        assert select_family(flipped, ("product", "gumbel")) == "product"


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
        with pytest.raises(ValueError, match="need at least 100 samples"):
            select_family(u, menu)

    def test_block_fit_error_names_block(self):
        rng = np.random.default_rng(10)
        s = SignalMatrix(rng.laplace(size=(3, 500)))
        forced = BlockPartition(((0, 1, 2),), 3)
        with pytest.raises(BlockFitError) as exc_info:
            fit_dependence(s, families=("gumbel",), partition=forced)
        assert exc_info.value.block == (0, 1, 2)

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
        pattern, model = _best_orientation(pseudo, FAMILY_NAMES)
        ref_pattern, ref_model = brute_force_orientation(pseudo, FAMILY_NAMES)
        assert tuple(pattern) == tuple(ref_pattern)
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

    def test_refined_pair_reverts_when_refit_is_not_tail_asymmetric(self, monkeypatch):
        # on these rounded independent channels a fitted transform beats
        # the product fit by the BIC, so the pair is refitted; the refit
        # picks product, so the transform is dropped
        x = SignalMatrix(np.round(np.random.default_rng(0).laplace(size=(3, 3000)), 1))
        fitted = []
        fit_block = inference._fit_block

        def recording(pseudo, block, menu):
            fitted.append(block)
            return fit_block(pseudo, block, menu)

        monkeypatch.setattr(inference, "_fit_block", recording)
        separation, report = cca_fit(x, partition=BlockPartition(((0, 1), (2,)), 3), seed=0)
        assert fitted == [(0, 1), (0, 1)]
        assert np.array_equal(np.abs(separation.within), np.eye(3))
        assert report.copula.blocks[0].family == "product"

    @pytest.mark.parametrize("cls", [ClaytonCopula, GumbelCopula])
    def test_polish_scores_theta_overflow_as_minus_inf(self, cls):
        # theta = floor + exp(b): Nelder-Mead may step b past exp's range
        y = np.random.default_rng(26).laplace(size=(2, 500))
        y = np.linalg.inv(np.linalg.cholesky(np.cov(y))) @ (y - y.mean(axis=1, keepdims=True))
        angles = [0.0, np.pi / 2.0]
        assert inference._polish_log_likelihood(y, np.array(angles + [800.0]), cls) == -np.inf
        assert np.isfinite(inference._polish_log_likelihood(y, np.array(angles + [0.0]), cls))

    def test_short_input_fails_before_the_rotation_phase(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("fastica ran")

        monkeypatch.setattr(inference, "fastica", fail)
        x = SignalMatrix(np.random.default_rng(25).laplace(size=(3, 60)))
        with pytest.raises(ValueError, match="need at least 100 samples"):
            cca_fit(x, partition=BlockPartition.singletons(3))

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
