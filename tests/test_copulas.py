import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.special import ndtri, xlogy
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
)
from copsep import copulas
from copsep.copulas import _U_HI, _U_LO, _fit_archimedean, _normal_score_table, _normal_scores, _spearman
from copsep.exceptions import DegenerateInputError, FamilyDomainError
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


def logaddexp_gumbel_log_density(theta, pts):
    """Reference: the Gumbel log density with the log of the inner sum
    taken by np.logaddexp."""
    log_u = np.log(pts)
    log_x = np.log(-log_u)
    log_s = np.logaddexp(theta * log_x[0], theta * log_x[1])
    s_root = np.exp(log_s / theta)
    return (
        -s_root
        + (theta - 1.0) * (log_x[0] + log_x[1])
        + (1.0 / theta - 2.0) * log_s
        + np.log(s_root + theta - 1.0)
        - log_u.sum(axis=0)
    )


def logaddexp_gumbel_cdf(theta, pts):
    log_x = np.log(-np.log(pts))
    return np.exp(-np.exp(np.logaddexp(theta * log_x[0], theta * log_x[1]) / theta))


class TestGumbelLogSum:
    # the clip bounds, points near them, and equal coordinates (a == b)
    EDGES = np.array([_U_LO, 1e-10, 0.3, 0.5, 1.0 - 1e-10, _U_HI])

    def points(self):
        uu, vv = np.meshgrid(self.EDGES, self.EDGES)
        random = np.random.default_rng(0).uniform(size=(2, 500))
        pts = np.hstack([np.vstack([uu.ravel(), vv.ravel()]), random])
        return np.hstack([pts, np.vstack([pts[0], pts[0]])])

    @pytest.mark.parametrize("theta", [1.0, 1.0 + 1e-9, 2.0, 50.0, 1e4])
    def test_matches_logaddexp_reference(self, theta):
        pts = self.points()
        model = GumbelCopula(theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            log_density, cdf = model.log_density(pts), model.cdf(pts)
        # at theta = 1 the log density is a sum of order-one terms that
        # cancel to 0, so relative agreement needs an absolute floor there
        assert_allclose(log_density, logaddexp_gumbel_log_density(theta, pts), rtol=1e-13, atol=1e-13)
        assert_allclose(cdf, logaddexp_gumbel_cdf(theta, pts), rtol=1e-13, atol=0.0)

    def test_equal_coordinates_add_log_two(self):
        log_x = np.log(-np.log(self.EDGES))
        assert np.array_equal(GumbelCopula._log_powsum(3.0, np.vstack([log_x, log_x])), 3.0 * log_x + np.log(2.0))


def clayton_log_density_reference(theta, pts):
    """Reference: the Clayton log density in closed form, each term a
    fresh array, in the order the in-place kernel keeps."""
    d = pts.shape[0]
    log_u = np.log(pts)
    a = -theta * log_u
    m = a.max(axis=0)
    log_powsum = m + np.log(np.exp(a - m).sum(axis=0) - (d - 1) * np.exp(-m))
    return np.log1p(theta * np.arange(1, d)).sum() - (theta + 1.0) * log_u.sum(axis=0) - (1.0 / theta + d) * log_powsum


def gumbel_log_density_reference(theta, pts):
    """Reference: the Gumbel log density in closed form, as for clayton."""
    log_u = np.log(pts)
    log_x = np.log(-log_u)
    a, b = theta * log_x[0], theta * log_x[1]
    log_s = np.maximum(a, b) + np.log1p(np.exp(-np.abs(a - b)))
    s_root = np.exp(log_s / theta)
    return (
        -s_root
        + (theta - 1.0) * (log_x[0] + log_x[1])
        + (1.0 / theta - 2.0) * log_s
        + np.log(s_root + theta - 1.0)
        - log_u.sum(axis=0)
    )


class TestInPlaceKernels:
    CASES = [
        (cls, d, floor + step)
        for cls, d, floor in ((ClaytonCopula, 2, 0.0), (ClaytonCopula, 3, 0.0), (GumbelCopula, 2, 1.0))
        for step in (1e-9, 2.0 - floor, 50.0 - floor)
    ]
    REFERENCE = {ClaytonCopula: clayton_log_density_reference, GumbelCopula: gumbel_log_density_reference}

    @staticmethod
    def points(d):
        edges = np.array([_U_LO, 1e-10, 0.3, 0.5, 1.0 - 1e-10, _U_HI])
        grid = np.stack([g.ravel() for g in np.meshgrid(*[edges] * d)])
        return np.hstack([grid, np.random.default_rng(d).uniform(size=(d, 2000))])

    @pytest.mark.parametrize("cls, d, theta", CASES, ids=lambda v: getattr(v, "__name__", repr(v)))
    def test_bit_identical_to_closed_form_and_terms_untouched(self, cls, d, theta):
        pts = self.points(d)
        terms = cls._log_terms(pts)
        before = [t.copy() for t in terms]
        assert np.array_equal(cls._log_density_at(theta, terms), self.REFERENCE[cls](theta, pts))
        assert all(np.array_equal(t, b) for t, b in zip(terms, before))

    @pytest.mark.parametrize("cls", [ClaytonCopula, GumbelCopula])
    def test_column_of_thetas_matches_one_theta_at_a_time(self, cls):
        # the grid search's batches: one theta per row of each channel's terms
        u = np.random.default_rng(7).uniform(size=(6, 500))
        log_u = np.log(u)
        rows = np.array([[0, 1, 2, 5], [3, 4, 0, 1]])
        theta = cls._theta_floor + np.array([1e-9, 0.5, 2.0, 50.0])
        batch = cls._log_density_at(theta[:, None], cls._terms_of_logs(log_u[rows], np.log(-log_u)[rows]))
        for row, (i, j), th in zip(batch, rows.T, theta):
            assert np.array_equal(row, cls(th, 2)._log_density(u[[i, j]]))


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

    @pytest.mark.parametrize("theta", [300.0, 1e4])
    def test_clayton_samples_where_gamma_frailties_underflow(self, theta):
        # gamma(1 / theta) draws underflow to exactly 0 here (449 of 5000 at
        # theta = 300, seed 1), so the sampler draws log v instead
        assert not np.random.default_rng(1).gamma(1.0 / theta, 1.0, 5000).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = ClaytonCopula(theta, 2).sample(5000, seed=1).values
        assert np.isfinite(u).all()
        assert u.min() > 0.0 and u.max() < 1.0
        assert kendall_tau(u[0], u[1]) == pytest.approx(theta / (theta + 2.0), abs=0.01)

    @pytest.mark.parametrize("theta, d", [(2.0, 2), (1.0, 3), (50.0, 2)])
    def test_clayton_draws_are_the_gamma_frailty_stream(self, theta, d):
        rng = np.random.default_rng(4)
        v = rng.gamma(1.0 / theta, 1.0, 1000)
        e = rng.exponential(1.0, (d, 1000))
        expected = np.clip(np.exp(-np.log1p(e / v) / theta), _U_LO, _U_HI)
        assert np.array_equal(ClaytonCopula(theta, d).sample(1000, seed=4).values, expected)

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
            copula_entropy(block, PseudoObservations(u.values[list(channels)]))
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

    def test_gaussian_rejects_a_constant_channel(self):
        values = ClaytonCopula(2.0, 3).sample(1000, seed=4).values.copy()
        values[2] = 0.5
        with pytest.raises(DegenerateInputError, match="channel 2 is constant"):
            fit_copula(PseudoObservations(values), "gaussian")

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
        model, _ = _fit_archimedean(u.values, "clayton", tau=tau)
        assert model.theta == pytest.approx(fit_copula(u, "clayton").theta, abs=1e-5)
        assert 1.8 <= model.theta <= 2.2

    def test_optimum_beyond_every_widening_raises(self):
        u = ClaytonCopula(2.0, 2).sample(2000, seed=12)
        with pytest.raises(FamilyDomainError, match="bracket edge"):
            _fit_archimedean(u.values, "clayton", tau=1e-6)

    def test_gumbel_domain_bound_is_not_widened(self):
        # on negatively dependent data gumbel's optimum is the domain edge theta = 1
        u = GaussianCopula(corr2(-0.3)).sample(5000, seed=13)
        model, _ = _fit_archimedean(u.values, "gumbel", tau=0.01)
        assert 1.0 <= model.theta < 1.0 + 1e-5

    @pytest.mark.parametrize("cls", [ClaytonCopula, GumbelCopula])
    def test_theta_search_evaluation_budget(self, monkeypatch, cls):
        # a bounded Brent search with two edge checks, not a golden section of ~35 steps
        u = cls(2.0, 2).sample(5000, seed=11)
        calls = []
        evaluate = cls._log_density_at
        monkeypatch.setattr(cls, "_log_density_at", classmethod(lambda c, th, terms: calls.append(1) or evaluate(th, terms)))
        fit_copula(u, cls(2.0, 2).family)
        assert 0 < len(calls) <= 20

    @pytest.mark.parametrize("family, d, tau", [
        ("clayton", 2, 0.5),
        ("clayton", 3, 0.5),
        ("gumbel", 2, 0.5),
        ("clayton", 2, 0.01),  # the bracket widens
        ("gumbel", 2, 0.95),  # the bracket widens
    ])
    def test_search_returns_the_mean_log_density_of_its_model(self, family, d, tau):
        # the score of a fit is the last search's own optimum, bit for bit
        # what evaluating the fitted model again gives
        values = (ClaytonCopula(2.0, d) if family == "clayton" else GumbelCopula(2.0)).sample(5000, seed=11).values
        model, mean_log_density = _fit_archimedean(values, family, tau=tau)
        assert type(mean_log_density) is float
        assert mean_log_density.hex() == float(np.mean(model.log_density(values))).hex()

    @pytest.mark.parametrize("edge", ["lo", "hi"])
    def test_optimum_just_inside_the_bracket_edge(self, edge):
        # theta0 is chosen so the optimum lies 1e-4 inside the first bracket
        # [theta0/4, 4 theta0]: the edge test must not mistake it for an edge optimum
        u = ClaytonCopula(2.0, 2).sample(5000, seed=11)
        theta_hat = fit_copula(u, "clayton").theta
        theta0 = 4.0 * (theta_hat - 1e-4) if edge == "lo" else (theta_hat + 1e-4) / 4.0
        model, _ = _fit_archimedean(u.values, "clayton", tau=theta0 / (theta0 + 2.0))
        assert model.theta == pytest.approx(theta_hat, abs=1e-6)

    def test_gumbel_rejects_higher_dimensions(self):
        u = ClaytonCopula(1.0, 3).sample(1000, seed=5)
        with pytest.raises(FamilyDomainError, match="bivariate"):
            fit_copula(u, "gumbel")

    @pytest.mark.parametrize("family", ["clayton", "gumbel"])
    def test_one_channel_is_rejected_before_the_tau_estimate(self, family):
        # the Spearman rho of one channel has no off-diagonal entry to average
        u = ProductCopula(1).sample(500, seed=2)
        with pytest.raises(FamilyDomainError, match=f"{family} models dependence between channels and needs at least 2, got 1"):
            fit_copula(u, family)

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
        # the mean log density's central difference in theta, step h,
        # vanishes at an interior maximum-likelihood fit
        def slope(model, u, h=1e-5):
            cls, d = type(model), model.dim
            return (copula_entropy(cls(model.theta - h, d), u) - copula_entropy(cls(model.theta + h, d), u)) / (2 * h)

        u = ClaytonCopula(2.0, 2).sample(5000, seed=seed)
        assert abs(slope(fit_copula(u, "clayton"), u)) < 1e-4
        ug = GumbelCopula(2.0).sample(2000, seed=seed)
        assert abs(slope(fit_copula(ug, "gumbel"), ug)) < 1e-4


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestNormalScores:
    """``_normal_scores`` gives ndtri's bits for any input; pseudo-observations
    read them from a per-T table of the half-rank lattice."""

    @pytest.mark.parametrize("t", [100, 5000, 20000])
    @pytest.mark.parametrize("ties", [False, True], ids=["tie-free", "tied"])
    def test_ranks_flips_and_mirrors_equal_ndtri(self, t, ties):
        x = np.random.default_rng(t).laplace(size=(3, t))
        ranks = _average_ranks(np.round(x) if ties else x)
        assert np.any(ranks % 1.0 == 0.5) == ties
        u = ranks / (t + 1)
        flipped = (t + 1 - ranks) / (t + 1)
        mirrored = 1.0 - u  # the pair grid's opposite directions, partly off the lattice
        for values in (u, flipped, mirrored, u[:, ::-1], u[0]):
            assert same_bits(_normal_scores(values), ndtri(values))

    def test_points_off_the_lattice_equal_ndtri(self):
        rng = np.random.default_rng(7)
        points = rng.uniform(size=(4, 1000))
        assert same_bits(_normal_scores(points), ndtri(points))
        # a first value on the lattice sends every other value through the table's check
        points[0, 0] = 17 / 1001
        points[1, :8] = [0.0, 1.0, -0.5, 2.0, np.nan, np.inf, -np.inf, 0.5]
        points[2, :4] = [1 / 1001, 2000.5 / 1001, 2001 / 1001, 3.5 / 1001]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_bits(_normal_scores(points), ndtri(points))

    def test_no_table_for_a_first_value_off_the_lattice(self):
        _normal_score_table.cache_clear()
        points = np.random.default_rng(8).uniform(size=(2, 777))
        _normal_scores(points)
        assert _normal_score_table.cache_info().currsize == 0
        ranks = _average_ranks(points)
        _normal_scores(ranks / 778)
        assert _normal_score_table.cache_info().currsize == 1
        assert not _normal_score_table(777).flags.writeable

    def test_cached_table_sends_no_pseudo_observation_to_ndtri(self, monkeypatch):
        t = 5000
        u = ClaytonCopula(2.0, 3).sample(t, seed=9)
        pseudo = np.round(u.values, 3)  # ties give half ranks
        pseudo = _average_ranks(pseudo) / (t + 1)
        normal_scores_correlation(pseudo)
        received = []
        monkeypatch.setattr(copulas, "ndtri", lambda x: received.append(np.size(x)) or ndtri(x))
        normal_scores_correlation(pseudo)
        GaussianCopula(corr2(0.5)).log_density(pseudo[:2])
        assert received == []

    @pytest.mark.parametrize("point", [[0.5, 0.25], [1e-300, 1.0 - 2.0 ** -53], [0.3, 0.7]])
    def test_gaussian_log_density_of_one_point(self, monkeypatch, point):
        model = GaussianCopula(corr2(-0.4))
        native = model.log_density(point)
        monkeypatch.setattr(copulas, "_normal_scores", ndtri)
        assert native.hex() == model.log_density(point).hex()

    def test_gaussian_fit_and_entropy_on_pseudo_observations(self, monkeypatch):
        u = PseudoObservations(_average_ranks(GaussianCopula(corr2(0.6)).sample(3000, seed=10).values) / 3001)

        def run():
            model = fit_copula(u, "gaussian")
            return model.correlation.tobytes(), copula_entropy(model, u).hex()

        native = run()
        monkeypatch.setattr(copulas, "_normal_scores", ndtri)
        assert native == run()
