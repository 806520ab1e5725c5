import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import rankdata

from copsep import (
    MarginalModel,
    PseudoObservations,
    SignalMatrix,
    margin_ppf,
    marginal_quantile,
    pseudo_observations,
    sample_margin,
)
from copsep.margins import _average_ranks, _bin_count


def _rank_rows(t):
    """One row of length t: few distinct values, signed zeros, a
    constant, or distinct values."""
    return st.one_of(
        st.lists(st.integers(0, 3).map(float), min_size=t, max_size=t),
        st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5]), min_size=t, max_size=t),
        st.floats(-1e3, 1e3).map(lambda c: [c] * t),
        st.lists(st.floats(-1e6, 1e6), min_size=t, max_size=t, unique=True),
    )


@st.composite
def _rank_inputs(draw):
    t = draw(st.integers(2, 40))
    return np.array([draw(_rank_rows(t)) for _ in range(draw(st.integers(1, 6)))])


def assert_same_ranks_as_scipy(values):
    ranks = _average_ranks(values)
    expected = rankdata(values, method="average", axis=1)
    assert ranks.dtype == expected.dtype
    assert np.array_equal(ranks, expected)


class TestPseudoObservations:
    def test_rank_formula(self):
        u = pseudo_observations(SignalMatrix([[3.0, 1.0, 2.0]]))
        assert np.array_equal(u.values[0], np.array([0.75, 0.25, 0.5]))

    def test_average_rank_for_ties(self):
        # ranks (1.5, 1.5, 3) over T+1 = 4
        u = pseudo_observations(SignalMatrix([[1.0, 1.0, 2.0]]))
        assert np.array_equal(u.values[0], np.array([0.375, 0.375, 0.75]))

    def test_invariant_under_increasing_transform(self):
        s = SignalMatrix(np.random.default_rng(0).standard_normal((3, 50)))
        transformed = SignalMatrix(np.exp(s.values))
        assert np.array_equal(
            pseudo_observations(s).values, pseudo_observations(transformed).values
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_strictly_interior_with_grid_extremes(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((2, 37))
        values[1, :10] = values[1, 0]  # introduce ties
        u = pseudo_observations(SignalMatrix(values))
        t = 37
        assert u.values.min() >= 1.0 / (t + 1)
        assert u.values.max() <= t / (t + 1)
        # untied channel hits the rank grid exactly
        assert np.array_equal(
            np.sort(u.values[0]), np.arange(1, t + 1) / (t + 1)
        )

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            pseudo_observations(SignalMatrix([[1.0]]))

    def test_type_rejects_boundary_values(self):
        with pytest.raises(ValueError, match="strictly inside"):
            PseudoObservations(np.array([[0.5, 1.0]]))


class TestAverageRanks:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_rank_inputs())
    @example(np.array([[1.0, 1.0]]))
    @example(np.array([[2.0, 1.0], [-0.0, 0.0]]))
    @example(np.full((3, 7), 4.0))
    @example(np.array([[3.0, 1.0, 2.0, 0.5], [1.0, 1.0, 1.0, 2.0], [0.0, 9.0, 8.0, 7.0], [5.0, 5.0, 6.0, 6.0]]))
    def test_bit_identical_to_scipy_average_ranks(self, values):
        # exact equality: average ranks are half-integers, whatever order
        # the sort leaves the ties in
        assert_same_ranks_as_scipy(values)

    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_on_pseudo_observation_energies(self, seed):
        # u and 1 - u share an energy |u - 1/2|, so every row is full of ties
        x = SignalMatrix(np.random.default_rng(seed).laplace(size=(4, 20000)))
        energy = np.abs(pseudo_observations(x).values - 0.5)
        tied = np.diff(np.sort(energy, axis=1), axis=1) == 0.0
        assert tied.sum(axis=1).min() > 1000
        assert_same_ranks_as_scipy(energy)


class TestMarginalQuantile:
    def test_interpolation(self):
        model = MarginalModel.fit(SignalMatrix([np.arange(10.0)]))
        # hand interpolation on [0..9]: q=0.4 -> position 4.4 -> 3.4
        assert marginal_quantile(model, 0, 0.4) == pytest.approx(3.4, abs=1e-12)

    def test_position_two_of_five(self):
        model = MarginalModel(
            np.array([[0.0, 1.0, 2.0, 3.0]]), (np.array([0.0, 3.0]),), (np.array([1.0]),)
        )
        assert marginal_quantile(model, 0, 0.4) == pytest.approx(1.0, abs=1e-12)

    def test_clamps_to_extremes(self):
        model = MarginalModel(
            np.array([[0.0, 1.0, 2.0, 3.0]]), (np.array([0.0, 3.0]),), (np.array([1.0]),)
        )
        assert marginal_quantile(model, 0, 0.2) == 0.0  # position 1.0 of 5
        assert marginal_quantile(model, 0, 0.999) == 3.0

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_bad_levels(self, q):
        model = MarginalModel.fit(SignalMatrix([np.arange(10.0)]))
        with pytest.raises(ValueError):
            marginal_quantile(model, 0, q)

    def test_round_trip_through_pseudo_observations(self):
        rng = np.random.default_rng(3)
        s = SignalMatrix(rng.standard_normal((2, 80)))
        u = pseudo_observations(s)
        model = MarginalModel.fit(s)
        for i in range(2):
            gaps = np.diff(model.sorted_values[i]).max()
            for t in range(0, 80, 7):
                back = marginal_quantile(model, i, u.values[i, t])
                assert abs(back - s.values[i, t]) <= gaps + 1e-12


class TestMarginalModel:
    def test_histogram_probabilities_sum_to_one(self):
        rng = np.random.default_rng(4)
        model = MarginalModel.fit(SignalMatrix(rng.laplace(size=(3, 500))))
        for probs in model.bin_probs:
            assert abs(probs.sum() - 1.0) <= 1e-12
        for edges in model.bin_edges:
            assert np.all(np.diff(edges) > 0.0)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(5)
        model = MarginalModel.fit(SignalMatrix(rng.standard_normal((1, 300))))
        widths = np.diff(model.bin_edges[0])
        densities = model.bin_probs[0] / widths
        assert abs((densities * widths).sum() - 1.0) <= 1e-12

    def test_log_density_matches_histogram(self):
        values = np.array([[0.0, 0.1, 0.4, 0.5, 0.9, 1.0, 1.0, 0.2, 0.6, 0.75]])
        model = MarginalModel.fit(SignalMatrix(values))
        logd = model.log_density(values)
        edges, probs = model.bin_edges[0], model.bin_probs[0]
        widths = np.diff(edges)
        for x, ld in zip(values[0], logd[0]):
            k = min(np.searchsorted(edges, x, side="right") - 1, len(probs) - 1)
            assert ld == pytest.approx(np.log(probs[k] / widths[k]), abs=1e-12)
        assert model.density_floor_hits(values) == 0

    def test_out_of_range_hits_floor(self):
        model = MarginalModel.fit(SignalMatrix(np.random.default_rng(6).standard_normal((1, 100))))
        outside = np.array([[1e6]])
        assert model.density_floor_hits(outside) == 1
        assert model.log_density(outside)[0, 0] == pytest.approx(np.log(1e-12))

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError, match="samples"):
            MarginalModel.fit(SignalMatrix(np.ones((1, 3)) * np.arange(3.0)))

    def test_far_outlier_caps_bins_at_sample_count(self):
        # Freedman-Diaconis alone asks for 1 011 603 bins here
        x = np.random.default_rng(7).standard_normal(20000)
        x[0] = 1e5
        model = MarginalModel.fit(SignalMatrix([x]))
        assert len(model.bin_probs[0]) == 20000
        assert model.bin_edges[0][0] == x.min() and model.bin_edges[0][-1] == 1e5

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        t=st.integers(50, 1000),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 0.1, 1.0, 1e3]),
        decimals=st.sampled_from([None, 1]),
    )
    def test_counts_equal_numpy_histogram_with_samples_on_edges(self, t, seed, scale, decimals):
        rng = np.random.default_rng(seed)
        x = rng.laplace(size=t) * scale
        if decimals is not None:
            x = np.round(x, decimals)
        # the quartiles interpolate the order statistics lo - 1, lo, hi and
        # hi + 1: samples between positions lo and hi may move anywhere in
        # [x_(lo), x_(hi)] and leave the quartiles, the extremes and so the
        # edges as they are, so move some onto the interior edges there
        order = np.argsort(x)
        lo, hi = int(0.25 * (t - 1)) + 1, int(0.75 * (t - 1))
        edges = np.histogram_bin_edges(x, bins=_bin_count(x))
        inner = edges[1:-1][(edges[1:-1] >= x[order[lo]]) & (edges[1:-1] <= x[order[hi]])]
        movable = order[lo + 1:hi]
        assume(inner.size and movable.size)
        moved = rng.choice(movable, size=max(1, movable.size // 4), replace=False)
        x[moved] = rng.choice(inner, size=moved.size)
        counts, expected = np.histogram(x, bins=_bin_count(x))
        assert np.array_equal(expected, edges)
        model = MarginalModel.fit(SignalMatrix([x]))
        assert np.array_equal(model.bin_edges[0], expected)
        assert np.array_equal(model.bin_probs[0], counts / t)

    @pytest.mark.parametrize("seed", range(3))
    def test_bins_below_the_cap_are_numpy_fd_bins(self, seed):
        rng = np.random.default_rng(seed)
        values = np.vstack([rng.laplace(size=2000), np.round(rng.standard_normal(2000), 1), rng.random(2000) * 1e-5])
        model = MarginalModel.fit(SignalMatrix(values))
        for x, edges, probs in zip(values, model.bin_edges, model.bin_probs):
            counts, expected = np.histogram(x, bins=np.histogram_bin_edges(x, bins="fd"))
            assert np.array_equal(edges, expected)
            assert np.array_equal(probs, counts / 2000)


class TestSampleMargin:
    def test_uniform_moments(self):
        x = sample_margin("uniform", (0.0, 1.0), 10000, seed=0)
        assert abs(x.mean() - 0.5) < 0.02

    def test_gaussian_moments(self):
        x = sample_margin("gaussian", (0.0, 1.0), 10000, seed=1)
        assert abs(x.var() - 1.0) < 0.05

    def test_laplace_moments(self):
        x = sample_margin("laplace", (0.0, 1.0), 10000, seed=2)
        assert abs(x.var() - 2.0) < 0.1

    def test_deterministic_per_seed(self):
        a = sample_margin("laplace", (0.0, 2.0), 100, seed=9)
        b = sample_margin("laplace", (0.0, 2.0), 100, seed=9)
        assert np.array_equal(a, b)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown margin"):
            sample_margin("cauchy", (0.0, 1.0), 10, seed=0)

    def test_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            sample_margin("gaussian", (0.0, -1.0), 10, seed=0)
        with pytest.raises(ValueError, match="high > low"):
            sample_margin("uniform", (1.0, 1.0), 10, seed=0)


class TestMarginPpf:
    def laplace_cdf(self, x, loc, scale):
        z = (x - loc) / scale
        return np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))

    def test_uniform_is_affine(self):
        u = np.array([0.1, 0.5, 0.9])
        assert_allclose(margin_ppf("uniform", (-2.0, 2.0), u), -2.0 + 4.0 * u, atol=1e-15)

    def test_laplace_round_trip(self):
        # oracle: analytic laplace cdf undoes the quantile transform
        u = np.linspace(0.01, 0.99, 25)
        x = margin_ppf("laplace", (0.5, 2.0), u)
        assert_allclose(self.laplace_cdf(x, 0.5, 2.0), u, atol=1e-12)

    def test_gaussian_median_and_symmetry(self):
        x = margin_ppf("gaussian", (1.0, 3.0), np.array([0.5, 0.16, 0.84]))
        assert x[0] == pytest.approx(1.0, abs=1e-9)
        assert x[1] + x[2] == pytest.approx(2.0, abs=1e-9)

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            margin_ppf("uniform", (0.0, 1.0), np.array([0.0, 0.5]))
