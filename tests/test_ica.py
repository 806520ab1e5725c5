import tracemalloc

import numpy as np
import pytest

from copsep import (
    SignalMatrix,
    amari_index,
    center_and_whiten,
    fastica,
    mix,
    mutual_information,
    normalize_components,
)
from copsep.exceptions import DegenerateDependenceError, DegenerateInputError, NonConvergenceError
from copsep.ica import _TOL, _check_whitened, _sym_decorrelate


def rotation2(degrees):
    a = np.deg2rad(degrees)
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


def whiten_uniform_pair(seed, t=5000, degrees=45.0):
    rng = np.random.default_rng(seed)
    s = SignalMatrix(rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (2, t)))
    x = mix(s, rotation2(degrees))
    z, _, wh = center_and_whiten(x)
    return z, wh


def reference_fastica(z, max_iter=200, seed=0):
    # the iteration as it was written before it reused its work arrays:
    # fresh n x T temporaries on every pass
    _check_whitened(z)
    n, t = z.n_channels, z.n_samples
    w = _sym_decorrelate(np.random.default_rng(seed).standard_normal((n, n)))
    delta = np.inf
    for iteration in range(1, max_iter + 1):
        y = w @ z.values
        g = np.tanh(y)
        g_prime_mean = (1.0 - g * g).mean(axis=1)
        w_new = _sym_decorrelate(g @ z.values.T / t - g_prime_mean[:, None] * w)
        delta = float(np.abs(np.abs(np.einsum("ij,ij->i", w_new, w)) - 1.0).max())
        w = w_new
        if delta < _TOL:
            return w, iteration
    raise NonConvergenceError("reference", iterations=max_iter, last_delta=delta)


def whiten_laplace(n, t, seed):
    rng = np.random.default_rng([seed, n, t])
    s = SignalMatrix(rng.laplace(size=(n, t)))
    z, _, _ = center_and_whiten(mix(s, rng.standard_normal((n, n))))
    return z


class TestFastica:
    @pytest.mark.parametrize("seed", range(3))
    def test_recovers_known_rotation(self, seed):
        # Monte Carlo oracle: mixing by a known 45-degree rotation
        z, wh = whiten_uniform_pair(seed)
        rotation, _ = fastica(z, seed=seed)
        assert amari_index(rotation @ wh @ rotation2(45.0)) < 0.05

    @pytest.mark.parametrize("seed", range(3))
    def test_independent_laplace_gives_signed_permutation(self, seed):
        rng = np.random.default_rng(100 + seed)
        s = SignalMatrix(rng.laplace(0.0, 1.0, (3, 5000)))
        z, _, wh = center_and_whiten(s)
        rotation, _ = fastica(z, seed=seed)
        assert amari_index(rotation @ wh) < 0.05

    def test_gaussian_pair_either_converges_or_errors(self):
        # rotation is unidentifiable for gaussian sources: accept an
        # arbitrary orthogonal rotation or a non-convergence error
        rng = np.random.default_rng(1234)
        z, _, _ = center_and_whiten(SignalMatrix(rng.standard_normal((2, 5000))))
        try:
            rotation, iterations = fastica(z, max_iter=50, seed=0)
        except NonConvergenceError as err:
            assert err.iterations == 50
            assert err.last_delta > 1e-6
        else:
            assert np.abs(rotation @ rotation.T - np.eye(2)).max() <= 1e-6
            assert 1 <= iterations <= 50

    def test_non_convergence_error_carries_state(self):
        z, _ = whiten_uniform_pair(3)
        with pytest.raises(NonConvergenceError) as exc_info:
            fastica(z, max_iter=2, seed=0)
        err = exc_info.value
        assert err.iterations == 2
        assert err.last_delta > 1e-6
        assert "2 iterations" in str(err)

    @pytest.mark.parametrize("seed", range(4))
    def test_orthogonality_invariant(self, seed):
        rng = np.random.default_rng(200 + seed)
        s = SignalMatrix(rng.laplace(size=(3, 2000)))
        z, _, _ = center_and_whiten(s)
        rotation, _ = fastica(z, seed=seed)
        assert np.abs(rotation @ rotation.T - np.eye(3)).max() <= 1e-6

    def test_deterministic_per_seed(self):
        z, _ = whiten_uniform_pair(5)
        a, ia = fastica(z, seed=11)
        b, ib = fastica(z, seed=11)
        assert np.array_equal(a, b)
        assert ia == ib

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_allocating_reference(self, n, seed):
        z = whiten_laplace(n, 5000, seed)
        rotation, iterations = fastica(z, seed=seed)
        expected, expected_iterations = reference_fastica(z, seed=seed)
        assert np.array_equal(rotation, expected)
        assert iterations == expected_iterations

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_non_convergence_state_matches_reference(self, n):
        z = whiten_laplace(n, 5000, 7)
        with pytest.raises(NonConvergenceError) as got:
            fastica(z, max_iter=2, seed=7)
        with pytest.raises(NonConvergenceError) as expected:
            reference_fastica(z, max_iter=2, seed=7)
        assert got.value.iterations == expected.value.iterations == 2
        assert got.value.last_delta == expected.value.last_delta

    @pytest.mark.parametrize("shape", [(8, 20000), (3, 20000), (2, 5000)])
    def test_peak_memory_is_two_work_arrays(self, shape):
        # the allocating loop peaked at four n x T temporaries
        z = whiten_laplace(*shape, 1)
        tracemalloc.start()
        try:
            fastica(z, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_by_t_bytes = z.values.nbytes
        assert peak <= 2.5 * n_by_t_bytes

    def test_rejects_unwhitened_input(self):
        s = SignalMatrix(np.random.default_rng(0).standard_normal((2, 500)) * 3.0)
        with pytest.raises(ValueError, match="not whitened"):
            fastica(s)

    def test_rejects_bad_config(self):
        z, _ = whiten_uniform_pair(6)
        with pytest.raises(ValueError, match="iteration"):
            fastica(z, max_iter=0)


class TestNormalizeComponents:
    def test_canonical_rotation_unchanged(self):
        z, _ = whiten_uniform_pair(8)
        rotation, _ = fastica(z, seed=8)
        canonical = normalize_components(rotation, z)
        again = normalize_components(canonical / np.linalg.norm(canonical, axis=1, keepdims=True), z)
        np.testing.assert_allclose(again, canonical, rtol=1e-9, atol=1e-12)

    def test_negated_row_flipped_back(self):
        z, _ = whiten_uniform_pair(9)
        rotation, _ = fastica(z, seed=9)
        canonical = normalize_components(rotation, z)
        negated = canonical.copy()
        negated[0] = -negated[0]
        negated /= np.linalg.norm(negated, axis=1, keepdims=True)
        restored = normalize_components(negated, z)
        np.testing.assert_allclose(restored, canonical, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_output_satisfies_both_conditions(self, seed):
        # direct condition check on random orthogonal rotations
        rng = np.random.default_rng(300 + seed)
        z, _, _ = center_and_whiten(SignalMatrix(rng.laplace(size=(3, 1000))))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        out = normalize_components(q, z)
        sources = out @ z.values
        np.testing.assert_allclose(sources.std(axis=1, ddof=1), 1.0, atol=1e-10)
        for row in out:
            assert row[np.argmax(np.abs(row))] > 0.0

    def test_rejects_non_orthogonal(self):
        z, _ = whiten_uniform_pair(10)
        with pytest.raises(ValueError, match="orthogonal"):
            normalize_components(np.array([[1.0, 1.0], [0.0, 1.0]]), z)


class TestMutualInformation:
    def test_independent_channels_near_zero(self):
        rng = np.random.default_rng(0)
        s = SignalMatrix(rng.standard_normal((3, 10000)))
        assert mutual_information(s) <= 0.02

    def test_bivariate_gaussian_closed_form(self):
        # oracle: I = -log(1 - r^2)/2 for correlation 0.7
        rng = np.random.default_rng(0)
        chol = np.linalg.cholesky(np.array([[1.0, 0.7], [0.7, 1.0]]))
        s = SignalMatrix(chol @ rng.standard_normal((2, 10000)))
        target = -0.5 * np.log(1.0 - 0.49)
        assert mutual_information(s) == pytest.approx(target, abs=0.02)

    def test_duplicated_channel_is_degenerate(self):
        x = np.random.default_rng(2).standard_normal((2, 500))
        x[1] = x[0]
        with pytest.raises(DegenerateDependenceError):
            mutual_information(SignalMatrix(x))

    def test_constant_channel_is_degenerate(self):
        # the normal-scores correlation of a constant row is undefined;
        # a NaN there must not be clamped to zero information
        x = np.random.default_rng(2).standard_normal((3, 500))
        x[1] = 0.5
        with pytest.raises(DegenerateInputError, match="channel 1 is constant"):
            mutual_information(SignalMatrix(x))

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(3)
        chol = np.linalg.cholesky(np.array([[1.0, 0.5], [0.5, 1.0]]))
        values = chol @ rng.standard_normal((2, 2000))
        s = SignalMatrix(values)
        warped = SignalMatrix(np.vstack([np.exp(values[0]), values[1] ** 3]))
        assert mutual_information(s) == mutual_information(warped)

    @pytest.mark.parametrize("seed", range(3))
    def test_permuting_samples_destroys_dependence(self, seed):
        rng = np.random.default_rng(400 + seed)
        chol = np.linalg.cholesky(np.array([[1.0, 0.8], [0.8, 1.0]]))
        values = chol @ rng.standard_normal((2, 10000))
        shuffled = np.vstack([values[0], rng.permutation(values[1])])
        assert mutual_information(SignalMatrix(shuffled)) <= 0.02

    def test_nonnegative_and_needs_samples(self):
        rng = np.random.default_rng(5)
        assert mutual_information(SignalMatrix(rng.random((2, 150)))) >= 0.0
        with pytest.raises(ValueError, match="100"):
            mutual_information(SignalMatrix(rng.random((2, 99))))
