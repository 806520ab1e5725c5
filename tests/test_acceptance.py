"""Acceptance suite: one test per release criterion, each printing a
one-line verdict with the measured numbers (run pytest with -s or -rA
to see the lines for passing criteria).
"""
import json

import numpy as np
import pytest

from copsep import (
    BlockPartition,
    ClaytonCopula,
    FactorialCopula,
    GaussianCopula,
    GumbelCopula,
    ProductCopula,
    PseudoObservations,
    SeparationModel,
    SignalMatrix,
    align_permutation,
    amari_index,
    average_log_likelihood,
    cca_fit,
    center_and_whiten,
    copula_entropy,
    fastica,
    fit_copula,
    kl_decomposition,
    mix,
    mutual_information,
    normalize_components,
    pseudo_observations,
)
from copsep.cli import main, read_signal_csv, write_signal_csv
from copsep.margins import MarginalModel, margin_ppf


def corr2(r):
    return np.array([[1.0, r], [r, 1.0]])


def fd_mixed_second(model, u, v, h):
    return (
        model.cdf([u + h, v + h])
        - model.cdf([u + h, v - h])
        - model.cdf([u - h, v + h])
        + model.cdf([u - h, v - h])
    ) / (4.0 * h * h)


def well_conditioned_mixing(rng, n):
    while True:
        a = rng.standard_normal((n, n))
        if np.linalg.cond(a) < 100.0:
            return a


def clayton_laplace_sources(seed, t, theta=2.0):
    u = ClaytonCopula(theta, 2).sample(t, seed=seed)
    rng = np.random.default_rng(seed)
    rows = [
        margin_ppf("laplace", (0.0, 1.0), u.values[0]),
        margin_ppf("laplace", (0.0, 1.0), u.values[1]),
        rng.uniform(-1.0, 1.0, t),
    ]
    return SignalMatrix(np.vstack(rows))


def test_criterion_1_copula_correctness():
    """Densities match finite differences of the cdf and integrate to one."""
    cases = (
        [GaussianCopula(corr2(r)) for r in (0.3, 0.7, -0.3, -0.7)]
        + [ClaytonCopula(theta, 2) for theta in (0.5, 2.0, 5.0)]
        + [GumbelCopula(theta) for theta in (1.5, 3.0)]
    )
    grid = np.round(np.arange(0.2, 0.8001, 0.1), 10)
    worst_fd = 0.0
    worst_integral = 0.0
    m = 200
    centers = (np.arange(m) + 0.5) / m
    uu, vv = np.meshgrid(centers, centers, indexing="ij")
    mesh = np.vstack([uu.ravel(), vv.ravel()])
    for model in cases:
        h = 1e-3 if isinstance(model, GaussianCopula) else 1e-4
        for u in grid:
            for v in grid:
                density = model.density([u, v])
                rel = abs(fd_mixed_second(model, u, v, h) - density) / density
                worst_fd = max(worst_fd, rel)
        integral = model.density(mesh).sum() / (m * m)
        worst_integral = max(worst_integral, abs(integral - 1.0))
        assert worst_fd <= 1e-3, f"{model.family}: fd mismatch {worst_fd:.2e}"
        assert abs(integral - 1.0) <= 0.02, f"{model.family}: integral {integral:.4f}"
    print(
        f"criterion 1 (copula correctness): PASS — worst fd rel err {worst_fd:.2e}, "
        f"worst integral dev {worst_integral:.4f}"
    )


def test_criterion_2_closed_form_entropy_oracle():
    """Fitted-copula entropy and mutual information hit the closed form."""
    target_h = 0.5 * np.log(1.0 - 0.49)
    entropies = []
    informations = []
    for seed in range(5):
        u = GaussianCopula(corr2(0.7)).sample(10000, seed=seed)
        fitted = fit_copula(u, "gaussian")
        entropies.append(copula_entropy(fitted, u))
        s = SignalMatrix(u.values)
        informations.append(mutual_information(s))
        _, _, d = kl_decomposition(s, fitted)
        assert abs(d) <= 0.05, f"seed {seed}: divergence {d:.4f}"
    h_err = abs(np.mean(entropies) - target_h)
    i_err = abs(np.mean(informations) + target_h)
    assert h_err <= 0.02, f"mean entropy off by {h_err:.4f}"
    assert i_err <= 0.02, f"mean information off by {i_err:.4f}"
    print(
        f"criterion 2 (entropy oracle): PASS — mean H {np.mean(entropies):.4f} "
        f"(target {target_h:.4f}), mean I {np.mean(informations):.4f}"
    )


def test_criterion_3_parameter_recovery():
    """Clayton theta and gaussian correlation recovered at T=10000."""
    thetas = []
    correlations = []
    residuals = []
    for seed in range(10):
        uc = ClaytonCopula(2.0, 2).sample(10000, seed=100 + seed)
        clayton = fit_copula(uc, "clayton")
        thetas.append(clayton.theta)
        # the mean log density's central difference in theta, step h
        h = 1e-5
        slope = (
            copula_entropy(ClaytonCopula(clayton.theta - h, 2), uc)
            - copula_entropy(ClaytonCopula(clayton.theta + h, 2), uc)
        ) / (2 * h)
        residuals.append(abs(slope))
        assert abs(clayton.theta - 2.0) <= 0.2, f"seed {seed}: theta {clayton.theta:.3f}"
        assert residuals[-1] < 1e-4, f"seed {seed}: residual {residuals[-1]:.2e}"
        ug = GaussianCopula(corr2(0.7)).sample(10000, seed=200 + seed)
        gaussian = fit_copula(ug, "gaussian")
        correlations.append(gaussian.correlation[0, 1])
        assert abs(correlations[-1] - 0.7) <= 0.03, f"seed {seed}: r {correlations[-1]:.3f}"
    print(
        f"criterion 3 (parameter recovery): PASS — theta in "
        f"[{min(thetas):.3f}, {max(thetas):.3f}], r in "
        f"[{min(correlations):.3f}, {max(correlations):.3f}], max residual {max(residuals):.1e}"
    )


def test_criterion_4_ica_recovery():
    """Independent laplace sources are unmixed to low amari index."""
    scores = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        s = SignalMatrix(rng.laplace(0.0, 1.0, (3, 5000)))
        a = well_conditioned_mixing(rng, 3)
        z, _, whitening = center_and_whiten(mix(s, a))
        rotation, _ = fastica(z, seed=seed)
        rotation = normalize_components(rotation, z)
        scores.append(amari_index(rotation @ whitening @ a))
    median = float(np.median(scores))
    assert median < 0.05, f"median amari {median:.4f}"
    assert max(scores) < 0.12, f"max amari {max(scores):.4f}"
    print(
        f"criterion 4 (ica recovery): PASS — median amari {median:.4f}, max {max(scores):.4f}"
    )


def test_criterion_5_two_phase_end_to_end():
    """Dependent-pair benchmark: partition detection, theta recovery, and
    the factorial model never scoring worse than independence."""
    matches = 0
    thetas = []
    for seed in range(10):
        s = clayton_laplace_sources(seed, t=10000)
        a = well_conditioned_mixing(np.random.default_rng(1000 + seed), 3)
        x = mix(s, a)
        separation, report = cca_fit(x, seed=seed)

        recovered = separation.separate(x)
        _, _, d_product = kl_decomposition(recovered, ProductCopula(3))
        assert report.divergence <= d_product + 1e-9, f"seed {seed}: model worse than independence"

        perm = align_permutation(separation.demixing @ a)
        mapped = BlockPartition(
            tuple(tuple(perm[i] for i in block) for block in report.partition.blocks), 3
        )
        if mapped.blocks == ((0, 1), (2,)):
            matches += 1
            # look the pair up by its channels in the report's own block order
            pair = next(
                model
                for block, model in zip(report.partition.blocks, report.copula.blocks)
                if sorted(perm[i] for i in block) == [0, 1]
            )
            if pair.family == "clayton":
                thetas.append(pair.theta)
                assert 1.6 <= pair.theta <= 2.4, f"seed {seed}: theta {pair.theta:.3f}"
    # Whitening removes the pair's correlation (plain rank tau ~0.02 after
    # the rotation), so detection needs the energy rank correlation and
    # the clayton pair needs the within-block likelihood refinement.
    assert matches >= 8, f"partition detected in only {matches}/10 runs"
    assert len(thetas) == matches, "a detected pair was not fitted as clayton"
    print(
        f"criterion 5 (two-phase end to end): PASS — {matches}/10 partitions, "
        f"thetas {sorted(round(t, 2) for t in thetas)}"
    )


def test_criterion_6_likelihood_divergence_equivalence():
    """With the separation and margins fixed, the theta that maximizes the
    likelihood is the theta that minimizes the divergence."""
    u = ClaytonCopula(2.0, 2).sample(10000, seed=31)
    pair = SignalMatrix(
        np.vstack(
            [
                margin_ppf("laplace", (0.0, 1.0), u.values[0]),
                margin_ppf("laplace", (0.0, 1.0), u.values[1]),
            ]
        )
    )
    separation = SeparationModel(np.zeros(2), np.eye(2), np.eye(2))
    margins = MarginalModel.fit(pair)
    grid = np.round(np.arange(1.0, 3.0001, 0.05), 10)
    likelihood = [
        average_log_likelihood(pair, separation, ClaytonCopula(t, 2), margins) for t in grid
    ]
    divergence = [kl_decomposition(pair, ClaytonCopula(t, 2))[2] for t in grid]
    best_l = int(np.argmax(likelihood))
    best_d = int(np.argmin(divergence))
    assert abs(best_l - best_d) <= 1, f"argmax L at {grid[best_l]}, argmin D at {grid[best_d]}"
    print(
        f"criterion 6 (likelihood-divergence equivalence): PASS — both optima at "
        f"theta {grid[best_l]:.2f}"
    )


def test_criterion_7_exact_identities():
    """Product entropy, factorial factorization, and the divergence
    decomposition hold exactly, not approximately."""
    rng = np.random.default_rng(17)
    u = ProductCopula(3).sample(2000, seed=3)
    assert copula_entropy(ProductCopula(3), u) == 0.0

    partition = BlockPartition(((0, 1), (2,), (3, 4)), 5)
    factorial = FactorialCopula(
        partition, (GaussianCopula(corr2(0.6)), ProductCopula(1), ClaytonCopula(1.5, 2))
    )
    pts = rng.uniform(0.02, 0.98, (5, 500))
    expected = np.ones(500)
    for channels, block in zip(partition.blocks, factorial.blocks):
        expected = expected * block.density(pts[list(channels), :])
    assert np.array_equal(factorial.density(pts), expected)

    sample = factorial.sample(1500, seed=4)
    total = copula_entropy(factorial, sample)
    assert total == sum(
        copula_entropy(block, PseudoObservations(sample.values[list(channels)]))
        for channels, block in zip(partition.blocks, factorial.blocks)
    )

    for seed, forced in ((0, None), (1, BlockPartition(((0, 1), (2,)), 3))):
        x = SignalMatrix(rng.laplace(size=(3, 2000)))
        _, report = cca_fit(x, partition=forced, seed=seed)
        assert report.divergence == report.mutual_information + report.copula_entropy
    print("criterion 7 (exact identities): PASS — all identities exact")


def test_criterion_8_determinism_and_interface(tmp_path):
    """The synth/separate/evaluate pipeline is reproducible byte for byte
    and the exit-code contract holds."""

    def run(*args):
        return main([str(a) for a in args])

    outputs = []
    for tag in ("a", "b"):
        work = tmp_path / tag
        work.mkdir()
        data, truth = work / "data.csv", work / "truth.json"
        sources, report = work / "sources.csv", work / "report.json"
        metrics = work / "metrics.json"
        assert run(
            "synth", "--channels", 3, "--samples", 2000, "--partition", "1,2|3",
            "--copula", "clayton", "--theta", 2, "--margins", "laplace",
            "--mix", "random", "--seed", 42, "--out", data, "--truth-out", truth,
        ) == 0
        assert run(
            "separate", data, "--seed", 7, "--sources-out", sources, "--report-out", report,
        ) == 0
        assert run(
            "evaluate", "--estimate", report, "--truth", truth, "--data", sources,
            "--out", metrics,
        ) == 0
        outputs.append(
            tuple(p.read_bytes() for p in (data, truth, sources, report, metrics))
        )
    assert outputs[0] == outputs[1], "pipeline outputs differ between identical runs"

    x = SignalMatrix(np.random.default_rng(9).standard_normal((3, 64)))
    round_trip = tmp_path / "rt.csv"
    write_signal_csv(x, round_trip)
    assert np.array_equal(read_signal_csv(round_trip).values, x.values)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2,3\n4,5\n")
    assert run(
        "separate", ragged, "--sources-out", tmp_path / "s.csv",
        "--report-out", tmp_path / "r.json",
    ) == 2
    assert run(
        "synth", "--channels", 3, "--samples", 100, "--partition", "1,2|3",
        "--copula", "clayton", "--theta", -1,
        "--out", tmp_path / "d.csv", "--truth-out", tmp_path / "t.json",
    ) == 2
    assert run(
        "separate", tmp_path / "a" / "data.csv", "--max-iter", 2,
        "--sources-out", tmp_path / "s.csv", "--report-out", tmp_path / "r.json",
    ) == 3
    print("criterion 8 (determinism and interface): PASS — byte-identical reruns, exit codes 0/2/3")
