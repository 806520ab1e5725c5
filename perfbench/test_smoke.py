"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and twice traced. The test checks that
every metric in BENCHMARK.json prints with its unit, that spans nest as
the call graph does, and that counts repeat exactly between the two
traced runs.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run(out, workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace), "--tiny", "--out", str(out)],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """workload -> [(result line, full record)] for trace 0, 1, 1."""
    cache = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = []
            for i, trace in enumerate((0, 1, 1)):
                out = tmp_path_factory.mktemp(f"{workload}-{i}")
                done = run(out, workload, trace)
                assert done.returncode == 0, done.stderr
                record = json.loads((out / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
                cache[workload].append((json.loads(done.stdout.splitlines()[-1]), record))
        return cache[workload]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(runs, workload):
    for (result, _), key in zip(runs(workload), ("end_to_end", "per_layer", "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[key]}
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _chain(spans, span):
    names = []
    while span["parent"] is not None:
        span = spans[span["parent"]]
        names.append(span["name"])
    return names


# span name -> the ancestor chain every span of that name must have
EXPECTED_CHAINS = {
    "fit-independent": {
        "copulas.kendall_tau": ["inference.detect_partition", "inference.fit_dependence", "inference.cca_fit", "op"],
        "ica.fastica": ["inference.cca_fit", "op"],
    },
    "fit-blocks": {
        "copulas.fit_copula": ["inference.fit_dependence", "op"],
        "inference.detect_partition": ["inference.fit_dependence", "op"],
    },
    "cli-loop": {
        "inference.cca_fit": ["cli.separate", "op"],
        "copulas.sample": ["cli.synth", "op"],
        "copulas.kendall_tau": ["inference.detect_partition", "inference.fit_dependence", "inference.cca_fit", "cli.separate", "op"],
    },
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest(runs, workload):
    spans = runs(workload)[1][1]["spans"]
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        else:
            assert span["name"] in ("op", "setup")
    for name, chain in EXPECTED_CHAINS[workload].items():
        chains = [_chain(spans, s) for s in spans if s["name"] == name and _chain(spans, s)[-1] == "op"]
        assert chains and all(c == chain for c in chains), (name, chains[:3])
    # fit_copula reaches kendall_tau through the archimedean fits
    if workload == "fit-blocks":
        assert any(_chain(spans, s)[:1] == ["copulas.fit_copula"] for s in spans if s["name"] == "copulas.kendall_tau")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_traced_runs(runs, workload):
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio", "bytes")]
    (_, _), (first, _), (second, _) = runs(workload)
    assert {k: first["metrics"][k] for k in counted} == {k: second["metrics"][k] for k in counted}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(tmp_path / "out", WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
