"""The benchmark's workloads: inputs made from a seed, one op, and the
checks on that op's outputs.

Importing this module imports numpy, scipy and copsep; the set-up probe
in run.py times that import as part of set-up. Ops call copsep through
module attributes (``inference.cca_fit``, ``cli.main``) so the tracer's
patches on those names are seen.
"""
from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

import copsep
from copsep import cli, inference
from copsep.signals import BlockPartition, SignalMatrix


@dataclass
class Outcome:
    """What the checks found for one op.

    ``problems`` lists failed checks (empty when the op is correct).
    ``fingerprint`` must be identical on every op of a run, because every
    op repeats the same seeded computation. The quality fields score the
    result against the generating truth and are reported, not asserted.
    """

    problems: list = field(default_factory=list)
    fingerprint: bytes = b""
    block_match: float = 0.0
    family_match: float = 0.0
    amari: float = 0.0
    theta_error: float = 0.0
    kept_blocks: int = 0


def _random_mixing(rng, n):
    # the same rule as `copsep synth --mix random`
    while True:
        mixing = rng.standard_normal((n, n))
        if n == 1 or np.linalg.cond(mixing) < 100.0:
            return mixing


def _component_to_source(gain):
    """Map each recovered component (row of demixing @ mixing) to the true
    source it carries most of, by a maximum-weight assignment."""
    rows, cols = linear_sum_assignment(-np.abs(gain))
    perm = np.empty(gain.shape[0], dtype=int)
    perm[rows] = cols
    return perm


def _score_blocks(truth, estimate, perm):
    """Fractions of true blocks recovered with the exact channel set, and
    with the exact channel set and family; mean |theta error| over the
    recovered clayton/gumbel blocks (0 when there are none).

    ``truth`` and ``estimate`` map channel tuples to (family, theta);
    estimated channels are renamed through ``perm`` first.
    """
    mapped = {
        tuple(sorted(int(perm[c]) for c in block)): model for block, model in estimate.items()
    }
    blocks = families = 0
    errors = []
    for block, (family, theta) in truth.items():
        found = mapped.get(block)
        if found is None:
            continue
        blocks += 1
        if found[0] == family:
            families += 1
            if theta is not None:
                errors.append(abs(found[1] - theta))
    return blocks / len(truth), families / len(truth), float(np.mean(errors)) if errors else 0.0


def _blocks_of(partition, models):
    """Channel tuples -> (family, theta) of a factorial model's blocks."""
    return {
        tuple(block): (model.family, getattr(model, "theta", None))
        for block, model in zip(partition.blocks, models)
    }


def _check_decomposition(problems, info, entropy, divergence, extra=()):
    values = {"mutual_information": info, "copula_entropy": entropy, "divergence": divergence}
    values.update(extra)
    for name, value in values.items():
        if not math.isfinite(value):
            problems.append(f"{name} is not finite: {value!r}")
    if divergence != info + entropy:
        problems.append(f"divergence {divergence!r} != I + H = {info + entropy!r}")


class FitIndependent:
    """`cca_fit` with default families and auto partition on independent
    Laplace sources under a random mixing with condition number < 100."""

    def __init__(self, seed, tiny, workdir):
        n, t = (3, 500) if tiny else (8, 20000)
        rng = np.random.default_rng([seed, 0])
        self.mixing = _random_mixing(rng, n)
        self.x = copsep.mix(SignalMatrix(rng.laplace(size=(n, t))), self.mixing)
        self.truth = {(i,): ("product", None) for i in range(n)}
        self.seed = seed

    def op(self):
        return inference.cca_fit(self.x, seed=self.seed)

    def check(self, result):
        separation, report = result
        out = Outcome()
        _check_decomposition(
            out.problems,
            report.mutual_information,
            report.copula_entropy,
            report.divergence,
            {"log_likelihood": report.log_likelihood},
        )
        gain = separation.demixing @ self.mixing
        perm = _component_to_source(gain)
        out.block_match, out.family_match, out.theta_error = _score_blocks(
            self.truth, _blocks_of(report.partition, report.copula.blocks), perm
        )
        out.amari = copsep.amari_index(gain)
        out.kept_blocks = sum(len(b) > 1 for b in report.partition.blocks)
        out.fingerprint = separation.demixing.tobytes() + repr(
            (report.partition.blocks, report.divergence, report.log_likelihood)
        ).encode()
        return out


class FitBlocks:
    """`fit_dependence` (auto partition) then `kl_decomposition` on
    already-separated sources: a clayton(2) triple, a gumbel(2) pair and
    a singleton, all with standard Laplace margins."""

    THETA = 2.0

    def __init__(self, seed, tiny, workdir):
        t = 1500 if tiny else 5000
        partition = BlockPartition(((0, 1, 2), (3, 4), (5,)), 6)
        models = (
            copsep.ClaytonCopula(self.THETA, 3),
            copsep.GumbelCopula(self.THETA),
            copsep.ProductCopula(1),
        )
        u = copsep.FactorialCopula(partition, models).sample(t, seed=seed)
        self.sources = SignalMatrix(copsep.margin_ppf("laplace", (0.0, 1.0), u.values))
        self.truth = _blocks_of(partition, models)

    def op(self):
        partition, copula, flips = inference.fit_dependence(self.sources)
        oriented = SignalMatrix(self.sources.values * np.where(flips, -1.0, 1.0)[:, None])
        return partition, copula, inference.kl_decomposition(oriented, copula)

    def check(self, result):
        partition, copula, (info, entropy, divergence) = result
        out = Outcome()
        _check_decomposition(out.problems, info, entropy, divergence)
        estimate = _blocks_of(partition, copula.blocks)
        out.block_match, out.family_match, out.theta_error = _score_blocks(
            self.truth, estimate, np.arange(partition.n_channels)
        )
        if sorted(estimate) != sorted(self.truth):
            out.problems.append(f"partition {partition.blocks} != truth {sorted(self.truth)}")
        elif out.family_match != 1.0:
            found = {b: m[0] for b, m in estimate.items()}
            out.problems.append(f"families {found} != truth")
        out.kept_blocks = sum(len(b) > 1 for b in partition.blocks)
        out.fingerprint = repr((estimate, info, entropy, divergence)).encode()
        return out


class CliLoop:
    """`copsep synth` -> `separate` -> `evaluate` in-process through
    `copsep.cli.main`, with files in a fresh directory per op."""

    def __init__(self, seed, tiny, workdir):
        self.samples = 500 if tiny else 20000
        self.seed = seed
        self.workdir = workdir
        self.count = 0

    def op(self):
        self.count += 1
        d = os.path.join(self.workdir, f"op{self.count}")
        os.makedirs(d)
        p = {k: os.path.join(d, k) for k in ("data.csv", "truth.json", "sources.csv", "report.json", "metrics.json")}
        seed = str(self.seed)
        codes = (
            cli.main([
                "synth", "--channels", "3", "--samples", str(self.samples),
                "--partition", "1,2|3", "--copula", "gumbel", "--theta", "2",
                "--margins", "laplace", "--mix", "random", "--seed", seed,
                "--out", p["data.csv"], "--truth-out", p["truth.json"],
            ]),
            cli.main([
                "separate", p["data.csv"], "--seed", seed,
                "--sources-out", p["sources.csv"], "--report-out", p["report.json"],
            ]),
            cli.main([
                "evaluate", "--estimate", p["report.json"], "--truth", p["truth.json"],
                "--data", p["sources.csv"], "--out", p["metrics.json"],
            ]),
        )
        return d, codes, p

    def check(self, result):
        d, codes, p = result
        out = Outcome()
        try:
            if codes != (0, 0, 0):
                out.problems.append(f"exit codes (synth, separate, evaluate) = {codes}")
                return out
            files = {}
            for name in p:
                with open(p[name], "rb") as fh:
                    files[name] = fh.read()
            truth, report, metrics = (json.loads(files[k]) for k in ("truth.json", "report.json", "metrics.json"))
            _check_decomposition(
                out.problems,
                report["mutual_information"],
                report["copula_entropy"],
                report["divergence"],
                {"log_likelihood": report["log_likelihood"]},
            )
            gain = np.asarray(report["demixing"]) @ np.asarray(truth["mixing"])
            out.amari = copsep.amari_index(gain)
            if not math.isclose(metrics["amari_index"], out.amari, rel_tol=1e-9, abs_tol=1e-15):
                out.problems.append(f"evaluate amari_index {metrics['amari_index']!r} != {out.amari!r}")
            out.block_match, out.family_match, out.theta_error = _score_blocks(
                _json_blocks(truth["copula"]), _json_blocks(report["copula"]), _component_to_source(gain)
            )
            if metrics["partition_match"] != (out.block_match == 1.0):
                out.problems.append(f"evaluate partition_match {metrics['partition_match']} disagrees")
            out.kept_blocks = sum(len(b) > 1 for b in report["partition"])
            # the README determinism contract: a rerun of one seed is byte-identical
            out.fingerprint = files["report.json"] + b"\0" + files["sources.csv"]
        finally:
            shutil.rmtree(d)
        return out


def _json_blocks(copula_json):
    """Channel tuples (0-based) -> (family, theta) from a CLI copula JSON."""
    return {
        tuple(c - 1 for c in block["channels"]): (block["family"], block["params"].get("theta"))
        for block in copula_json["params"]["blocks"]
    }


WORKLOADS = {"fit-independent": FitIndependent, "fit-blocks": FitBlocks, "cli-loop": CliLoop}
