import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.special import xlogy
from scipy.stats import kstest

from copsep import (
    BlockPartition,
    ClaytonCopula,
    FactorialCopula,
    GaussianCopula,
    GumbelCopula,
    ProductCopula,
    copula_entropy,
    fit_copula,
    kendall_tau,
    normal_scores_correlation,
    stationarity_residual,
)
from copsep.copulas import _fit_archimedean, _spearman
from copsep.exceptions import FamilyDomainError
from copsep.margins import PseudoObservations, _average_ranks


def corr2(r):
    return np.array([[1.0, r], [r, 1.0]])


def fd_mixed_second(model, u, v, h):
    """Independent density oracle: central second mixed difference of the cdf."""
    return (
        model.cdf([u + h, v + h])
        - model.cdf([u + h, v - h])
        - model.cdf([u - h, v + h])
        + model.cdf([u - h, v - h])
    ) / (4.0 * h * h)


def brute_force_tau(x, y):
    """Independent concordance-counting oracle, O(T^2)."""
    t = len(x)
    concordant = discordant = 0
    for i in range(t):
        for j in range(i + 1, t):
            s = np.sign(x[i] - x[j]) * np.sign(y[i] - y[j])
            if s > 0:
                concordant += 1
            elif s < 0:
                discordant += 1
    return (concordant - discordant) / (t * (t - 1) / 2)


BIVARIATE_CASES = [
    ProductCopula(2),
    GaussianCopula(corr2(0.5)),
    GaussianCopula(corr2(-0.6)),
    ClaytonCopula(2.0, 2),
    GumbelCopula(1.5),
]


class TestKendallTau:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_counting(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 12, 120).astype(float)  # plenty of ties
        y = 0.5 * x + rng.integers(0, 8, 120)
        t = len(x)
        pairs = t * (t - 1) // 2
        assert round(kendall_tau(x, y) * pairs) == round(brute_force_tau(x, y) * pairs)

    def test_monotone_is_one(self):
        x = np.arange(50.0)
        assert kendall_tau(x, np.exp(x / 10.0)) == 1.0

    def test_hand_enumeration(self):
        # pairs (1,2),(1,3) concordant? (1,2): x up, y up -> C; (1,3): C; (2,3): D
        assert kendall_tau([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(1.0 / 3.0)

    def test_independent_is_near_zero(self):
        rng = np.random.default_rng(7)
        assert abs(kendall_tau(rng.random(10000), rng.random(10000))) < 0.03

    def test_constant_input_is_zero(self):
        assert kendall_tau([2.0, 2.0, 2.0], [1.0, 3.0, 2.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSpearman:
    @settings(max_examples=200, deadline=None)
    @given(
        x=st.integers(2, 5).flatmap(lambda d: st.integers(2, 40).flatmap(
            lambda t: arrays(float, (d, t), elements=st.integers(-2, 2).map(float))
        )),
        data=st.data(),
    )
    def test_symmetric_unit_diagonal_and_exact_under_negation(self, x, data):
        # values in {-2, ..., 2}: heavy ties, and often a constant row
        rho = _spearman(_average_ranks(x))
        constant = x.min(axis=1) == x.max(axis=1)
        assert np.array_equal(rho, rho.T)
        assert_allclose(np.diag(rho), np.where(constant, 0.0, 1.0), rtol=0.0, atol=1e-15)
        assert np.array_equal(rho[constant], np.zeros((constant.sum(), len(x))))
        row = data.draw(st.integers(0, len(x) - 1))
        sign = np.ones(len(x))
        sign[row] = -1.0
        negated = _spearman(_average_ranks(x * sign[:, None]))
        assert np.array_equal(negated, np.outer(sign, sign) * rho)


class TestCdf:
    def test_product_formula(self):
        assert ProductCopula(2).cdf([0.3, 0.5]) == pytest.approx(0.15, abs=1e-15)

    @pytest.mark.parametrize("model", BIVARIATE_CASES, ids=lambda m: m.family)
    def test_boundary_margins(self, model):
        # a copula collapses to its margin when the other coordinate is ~1
        for u in (0.2, 0.37, 0.8):
            assert abs(model.cdf([u, 1.0 - 1e-9]) - u) < 1e-6
            assert abs(model.cdf([1.0 - 1e-9, u]) - u) < 1e-6

    def test_clayton_product_limit(self):
        assert ClaytonCopula(1e-6, 2).cdf([0.3, 0.5]) == pytest.approx(0.15, abs=1e-4)

    def test_gumbel_theta_one_is_product(self):
        assert GumbelCopula(1.0).cdf([0.3, 0.5]) == pytest.approx(0.15, abs=1e-12)

    def test_gaussian_cdf_only_bivariate(self):
        model = GaussianCopula(np.eye(3))
        with pytest.raises(NotImplementedError):
            model.cdf([0.5, 0.5, 0.5])

    def test_rejects_boundary_points(self):
        for bad in ([0.0, 0.5], [0.5, 1.0]):
            with pytest.raises(ValueError, match="strictly inside"):
                ProductCopula(2).cdf(bad)

    @pytest.mark.parametrize("model", BIVARIATE_CASES, ids=lambda m: m.family)
    def test_two_increasing_on_random_rectangles(self, model):
        rng = np.random.default_rng(42)
        for _ in range(15):
            x1, y1 = rng.uniform(0.02, 0.6, 2)
            x2 = rng.uniform(x1, 0.98)
            y2 = rng.uniform(y1, 0.98)
            mass = (
                model.cdf([x2, y2])
                - model.cdf([x1, y2])
                - model.cdf([x2, y1])
                + model.cdf([x1, y1])
            )
            assert mass >= -1e-12


class TestDensity:
    def test_product_density_is_one(self):
        pts = np.random.default_rng(0).uniform(0.05, 0.95, (2, 20))
        assert np.array_equal(ProductCopula(2).density(pts), np.ones(20))

    def test_gaussian_identity_density_is_one(self):
        pts = np.random.default_rng(1).uniform(0.05, 0.95, (3, 20))
        assert np.array_equal(GaussianCopula(np.eye(3)).density(pts), np.ones(20))

    def test_gaussian_closed_form_at_center(self):
        # ndtri(0.5) = 0 so the density is 1/sqrt(det) = 1/sqrt(0.75)
        value = GaussianCopula(corr2(0.5)).density([0.5, 0.5])
        assert value == pytest.approx(1.0 / np.sqrt(0.75), rel=1e-12)

    def test_clayton_closed_form_value(self):
        # 3 * 0.25^-3 * 7^-2.5 evaluated by hand
        expected = 3.0 * 0.25 ** -3.0 * 7.0 ** -2.5
        value = ClaytonCopula(2.0, 2).density([0.5, 0.5])
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(1.481, abs=1e-3)
        fd = fd_mixed_second(ClaytonCopula(2.0, 2), 0.5, 0.5, 1e-4)
        assert value == pytest.approx(fd, rel=1e-3)

    @pytest.mark.parametrize("model", BIVARIATE_CASES, ids=lambda m: m.family)
    def test_density_matches_cdf_finite_difference(self, model):
        h = 1e-3 if isinstance(model, GaussianCopula) else 1e-4
        for u in (0.2, 0.5, 0.8):
            for v in (0.3, 0.7):
                d = model.density([u, v])
                assert fd_mixed_second(model, u, v, h) == pytest.approx(d, rel=1e-3)

    @pytest.mark.parametrize(
        "model",
        [GaussianCopula(corr2(0.7)), ClaytonCopula(3.0, 2), GumbelCopula(2.5)],
        ids=lambda m: m.family,
    )
    def test_density_integrates_to_one(self, model):
        m = 200
        centers = (np.arange(m) + 0.5) / m
        uu, vv = np.meshgrid(centers, centers, indexing="ij")
        integral = model.density(np.vstack([uu.ravel(), vv.ravel()])).sum() / (m * m)
        assert integral == pytest.approx(1.0, abs=0.02)

    def test_trivariate_clayton_density_consistent_with_sampling(self):
        # mean density over own samples should exceed 1 (dependent model)
        model = ClaytonCopula(1.5, 3)
        u = model.sample(2000, seed=10)
        assert np.mean(model.density(u.values)) > 1.0
        assert np.all(model.density(u.values) > 0.0)

    def test_log_density_consistent_with_density(self):
        model = GumbelCopula(2.0)
        pts = np.random.default_rng(2).uniform(0.05, 0.95, (2, 50))
        assert_allclose(np.log(model.density(pts)), model.log_density(pts), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            ClaytonCopula(1.0, 2).density([0.5, 0.5, 0.5])


class TestModelValidation:
    def test_clayton_needs_positive_theta(self):
        with pytest.raises(ValueError, match="theta > 0"):
            ClaytonCopula(0.0, 2)

    def test_gumbel_needs_theta_at_least_one(self):
        with pytest.raises(ValueError, match="theta >= 1"):
            GumbelCopula(0.8)

    @pytest.mark.parametrize("cls, domain", [(ClaytonCopula, "theta > 0"), (GumbelCopula, "theta >= 1")])
    def test_theta_must_be_finite(self, cls, domain):
        with pytest.raises(ValueError, match=domain):
            cls(np.inf, 2)

    def test_gumbel_is_bivariate_only(self):
        assert GumbelCopula(2.0).dim == GumbelCopula(2.0, 2).dim == 2
        with pytest.raises(ValueError, match="2 channels"):
            GumbelCopula(2.0, 3)

    def test_gaussian_needs_unit_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            GaussianCopula(np.array([[2.0, 0.0], [0.0, 2.0]]))

    def test_gaussian_needs_spd(self):
        with pytest.raises(ValueError, match="eigenvalues"):
            GaussianCopula(corr2(1.0))

    def test_factorial_block_dimensions(self):
        part = BlockPartition(((0, 1), (2,)), 3)
        with pytest.raises(ValueError, match="dimension"):
            FactorialCopula(part, (ClaytonCopula(1.0, 3), ProductCopula(1)))

    def test_factorial_rejects_nested_factorial(self):
        part = BlockPartition(((0, 1), (2,)), 3)
        inner = FactorialCopula(
            BlockPartition(((0,), (1,)), 2), (ProductCopula(1), ProductCopula(1))
        )
        with pytest.raises(ValueError, match="factorial"):
            FactorialCopula(part, (inner, ProductCopula(1)))


class TestSampling:
    def test_product_is_independent(self):
        u = ProductCopula(2).sample(10000, seed=0)
        assert abs(kendall_tau(u.values[0], u.values[1])) < 0.03

    def test_clayton_tau_formula(self):
        # tau = theta / (theta + 2); the tau estimator itself is verified
        # against brute-force concordance counting above
        u = ClaytonCopula(2.0, 2).sample(10000, seed=3)
        assert kendall_tau(u.values[0], u.values[1]) == pytest.approx(0.5, abs=0.03)

    def test_gumbel_tau_formula(self):
        # tau = 1 - 1/theta
        u = GumbelCopula(2.0).sample(5000, seed=4)
        assert kendall_tau(u.values[0], u.values[1]) == pytest.approx(0.5, abs=0.03)

    @pytest.mark.parametrize("theta", [1.0, 1.5, 2.0, 5.0, 30.0])
    def test_gumbel_sampler_distribution(self, theta):
        # C(U, V) follows Kendall's distribution K(t) = t - t ln t / theta,
        # and the empirical copula follows the closed-form cdf
        model = GumbelCopula(theta)
        u = model.sample(100_000, seed=11).values
        level = model.cdf(u)
        assert kstest(level, lambda t: t - xlogy(t, t) / theta).pvalue > 1e-3
        for a in (0.1, 0.3, 0.5, 0.7, 0.9):
            for b in (0.2, 0.5, 0.8):
                empirical = np.mean((u[0] <= a) & (u[1] <= b))
                assert abs(empirical - model.cdf([a, b])) < 0.01

    @pytest.mark.parametrize("theta", [1.0, 1.0 + 1e-7, 50.0, 1e6])
    def test_gumbel_sampler_extremes(self, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = GumbelCopula(theta).sample(20_000, seed=12).values
        assert np.isfinite(u).all()
        assert u.min() > 0.0 and u.max() < 1.0
        assert kendall_tau(u[0], u[1]) == pytest.approx(1.0 - 1.0 / theta, abs=0.02)

    def test_gaussian_normal_scores_correlation(self):
        u = GaussianCopula(corr2(0.7)).sample(10000, seed=5)
        assert normal_scores_correlation(u.values)[0, 1] == pytest.approx(0.7, abs=0.03)

    @pytest.mark.parametrize(
        "model",
        [ProductCopula(2), GaussianCopula(corr2(0.4)), ClaytonCopula(1.0, 3), GumbelCopula(2.0)],
        ids=lambda m: m.family,
    )
    def test_deterministic_per_seed(self, model):
        a = model.sample(200, seed=8)
        b = model.sample(200, seed=8)
        assert np.array_equal(a.values, b.values)
        assert isinstance(a, PseudoObservations)

    def test_factorial_blocks_are_independent(self):
        part = BlockPartition(((0, 1), (2, 3)), 4)
        model = FactorialCopula(part, (ClaytonCopula(2.0, 2), GumbelCopula(2.0)))
        u = model.sample(4000, seed=9)
        assert kendall_tau(u.values[0], u.values[1]) == pytest.approx(0.5, abs=0.05)
        assert kendall_tau(u.values[2], u.values[3]) == pytest.approx(0.5, abs=0.05)
        assert abs(kendall_tau(u.values[1], u.values[2])) < 0.05


class TestFactorialStructure:
    def build(self):
        part = BlockPartition(((0, 2), (1,), (3, 4)), 5)
        blocks = (GaussianCopula(corr2(0.6)), ProductCopula(1), ClaytonCopula(1.5, 2))
        return FactorialCopula(part, blocks)

    def test_density_is_exact_product_of_blocks(self):
        model = self.build()
        pts = np.random.default_rng(12).uniform(0.02, 0.98, (5, 200))
        expected = np.ones(200)
        for channels, block in zip(model.partition.blocks, model.blocks):
            expected = expected * block.density(pts[list(channels), :])
        assert np.array_equal(model.density(pts), expected)

    def test_cdf_is_product_of_blocks(self):
        model = self.build()
        pts = np.random.default_rng(13).uniform(0.05, 0.95, (5, 10))
        expected = np.ones(10)
        for channels, block in zip(model.partition.blocks, model.blocks):
            expected = expected * block.cdf(pts[list(channels), :])
        assert np.array_equal(model.cdf(pts), expected)

    def test_entropy_is_sum_of_block_entropies(self):
        model = self.build()
        u = model.sample(1000, seed=14)
        total = copula_entropy(model, u)
        parts = sum(
            copula_entropy(block, u.restrict(channels))
            for channels, block in zip(model.partition.blocks, model.blocks)
        )
        assert total == parts


class TestCopulaEntropy:
    def test_product_entropy_is_exactly_zero(self):
        u = ProductCopula(3).sample(500, seed=0)
        assert copula_entropy(ProductCopula(3), u) == 0.0

    def test_gaussian_identity_entropy_is_exactly_zero(self):
        u = ProductCopula(2).sample(500, seed=1)
        assert copula_entropy(GaussianCopula(np.eye(2)), u) == 0.0

    def test_gaussian_entropy_closed_form(self):
        # H = log(1 - r^2) / 2 for the true bivariate model
        u = GaussianCopula(corr2(0.7)).sample(10000, seed=0)
        fitted = fit_copula(u, "gaussian")
        target = 0.5 * np.log(1.0 - 0.49)
        assert copula_entropy(fitted, u) == pytest.approx(target, abs=0.02)

    def test_dimension_mismatch(self):
        u = ProductCopula(2).sample(200, seed=2)
        with pytest.raises(ValueError, match="dimension"):
            copula_entropy(ProductCopula(3), u)


class TestFitCopula:
    def test_clayton_recovery(self):
        u = ClaytonCopula(2.0, 2).sample(10000, seed=0)
        model = fit_copula(u, "clayton")
        assert 1.8 <= model.theta <= 2.2

    def test_gaussian_recovery(self):
        u = GaussianCopula(corr2(0.7)).sample(10000, seed=1)
        model = fit_copula(u, "gaussian")
        assert model.correlation[0, 1] == pytest.approx(0.7, abs=0.03)

    def test_gumbel_recovery(self):
        u = GumbelCopula(2.0).sample(5000, seed=2)
        model = fit_copula(u, "gumbel")
        assert 1.8 <= model.theta <= 2.2

    def test_independent_data_gives_near_product_gaussian(self):
        u = ProductCopula(2).sample(10000, seed=3)
        model = fit_copula(u, "gaussian")
        assert abs(model.correlation[0, 1]) < 0.03
        assert copula_entropy(model, u) >= -0.01

    def test_clayton_rejects_negative_dependence(self):
        u = ClaytonCopula(2.0, 2).sample(1000, seed=4)
        flipped = PseudoObservations(np.vstack([u.values[0], 1.0 - u.values[1]]))
        with pytest.raises(FamilyDomainError, match="positive dependence"):
            fit_copula(flipped, "clayton")

    def test_gumbel_rejects_negative_dependence(self):
        # gumbel's tau = 1 - 1/theta is never negative
        u = GumbelCopula(2.0).sample(1000, seed=4)
        flipped = PseudoObservations(np.vstack([u.values[0], 1.0 - u.values[1]]))
        with pytest.raises(FamilyDomainError, match="positive dependence"):
            fit_copula(flipped, "gumbel")

    @pytest.mark.parametrize("tau", [0.01, 0.95])
    def test_optimum_beyond_the_bracket_widens_it(self, tau):
        # the first bracket is [0.005, 0.081] at tau = 0.01 and [9.5, 152]
        # at tau = 0.95, both far from theta = 2
        u = ClaytonCopula(2.0, 2).sample(5000, seed=11)
        model = _fit_archimedean(u, "clayton", tau=tau)
        assert model.theta == pytest.approx(fit_copula(u, "clayton").theta, abs=1e-5)
        assert 1.8 <= model.theta <= 2.2

    def test_optimum_beyond_every_widening_raises(self):
        u = ClaytonCopula(2.0, 2).sample(2000, seed=12)
        with pytest.raises(FamilyDomainError, match="bracket edge"):
            _fit_archimedean(u, "clayton", tau=1e-6)

    def test_gumbel_domain_bound_is_not_widened(self):
        # on negatively dependent data gumbel's optimum is the domain edge theta = 1
        u = GaussianCopula(corr2(-0.3)).sample(5000, seed=13)
        model = _fit_archimedean(u, "gumbel", tau=0.01)
        assert 1.0 <= model.theta < 1.0 + 1e-5

    def test_gumbel_rejects_higher_dimensions(self):
        u = ClaytonCopula(1.0, 3).sample(1000, seed=5)
        with pytest.raises(FamilyDomainError, match="bivariate"):
            fit_copula(u, "gumbel")

    def test_product_fit(self):
        u = ProductCopula(4).sample(200, seed=6)
        model = fit_copula(u, "product")
        assert isinstance(model, ProductCopula) and model.dim == 4

    def test_needs_enough_samples(self):
        u = ProductCopula(2).sample(50, seed=7)
        with pytest.raises(ValueError, match="100"):
            fit_copula(u, "clayton")

    def test_unknown_family(self):
        u = ProductCopula(2).sample(200, seed=8)
        with pytest.raises(ValueError, match="unknown family"):
            fit_copula(u, "frank")

    @pytest.mark.parametrize("family,make", [
        ("clayton", lambda: ClaytonCopula(2.0, 2)),
        ("gaussian", lambda: GaussianCopula(corr2(0.7))),
    ])
    def test_consistency_as_samples_grow(self, family, make):
        def err(t):
            total = 0.0
            for seed in range(3):
                fitted = fit_copula(make().sample(t, seed=20 + seed), family)
                if family == "clayton":
                    total += abs(fitted.theta - 2.0)
                else:
                    total += abs(fitted.correlation[0, 1] - 0.7)
            return total / 3.0

        assert err(10000) < err(1000)

    @pytest.mark.parametrize("seed", range(3))
    def test_stationarity_of_fit(self, seed):
        u = ClaytonCopula(2.0, 2).sample(5000, seed=seed)
        model = fit_copula(u, "clayton")
        assert abs(stationarity_residual(model, u)) < 1e-4
        ug = GumbelCopula(2.0).sample(2000, seed=seed)
        mg = fit_copula(ug, "gumbel")
        assert abs(stationarity_residual(mg, ug)) < 1e-4

    def test_stationarity_rejects_boundary_theta(self):
        u = GumbelCopula(1.0).sample(500, seed=2)
        with pytest.raises(ValueError, match="boundary"):
            stationarity_residual(GumbelCopula(1.0), u)

    def test_stationarity_needs_theta_family(self):
        u = ProductCopula(2).sample(500, seed=3)
        with pytest.raises(ValueError, match="clayton and gumbel"):
            stationarity_residual(ProductCopula(2), u)
