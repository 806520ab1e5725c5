"""copsep benchmark: one workload per run, checked outputs, one JSON line.

    python3 perfbench/run.py --workload fit-independent --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's ``src/``. Every op of a run
repeats the same seeded computation, is checked, and must reproduce the
first op's outputs exactly. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are BENCHMARK.json's ``end_to_end`` list, with ``--trace 1`` its
``per_layer`` list. A trace-1 run alternates untraced and traced ops; the
median difference within those pairs is ``trace.overhead_s``. Run
metadata, every op's wall time and (trace 1) every span go to
``perfbench/out/<workload>-seed<n>-trace<t>.json``.

Times in seconds are reported at a fixed machine speed (see
``SpeedReference``); the raw wall-time medians are printed beside them
and kept in the record.

Only the standard library is imported at module level, so the set-up
probe (a fresh interpreter) can time the import of numpy, scipy and
copsep as part of set-up.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
MIN_TIMED_OPS = 3  # of each kind (untraced, traced), even past --seconds
# About the wall time of SpeedReference.seconds() on the 2-core Intel Xeon
# VM where the benchmark was written; it sets the scale of reported times.
REFERENCE_S = 0.08


def _merge_sort(seq):
    n = len(seq)
    if n <= 1:
        return seq
    left, right = _merge_sort(seq[: n // 2]), _merge_sort(seq[n // 2:])
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged


class SpeedReference:
    """A fixed pure-Python computation timed just before and just after
    each measured interval.

    On a shared host the speed a process gets drifts by tens of percent
    over minutes (CPU time tracks wall time, so it is the core that is
    slower, not the scheduler). Multiplying a wall time by the factor
    ``REFERENCE_S / reference time`` cancels that drift, so times from
    runs made at different moments can be compared. The computation is
    a merge sort of 20 000 floats, like the hot code of the ops at the
    time the benchmark was written; it runs with the garbage collector
    off so the program's heap does not change its cost.
    """

    def __init__(self):
        rng = random.Random(0)
        self._data = [rng.random() for _ in range(20000)]
        self.seconds()  # the first calls in a process pay for fresh memory pages

    def seconds(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _merge_sort(self._data)
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    @staticmethod
    def factor(before, after):
        return 2.0 * REFERENCE_S / (before + after)


def _make_workload(args, workdir):
    """Import copsep (from ``src``, which main put first on the path) and
    make the workload's inputs."""
    import copsep
    import workloads

    if Path(copsep.__file__).resolve().parent != SRC / "copsep":
        sys.exit(f"error: imported copsep from {copsep.__file__}, not {SRC / 'copsep'}")
    return workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)


def setup_probe(args):
    """Child process: time importing copsep and making the inputs; print
    the wall time and its speed factor."""
    speed = SpeedReference()
    before = speed.seconds()
    with tempfile.TemporaryDirectory(dir=args.out) as workdir:
        start = time.perf_counter()
        _make_workload(args, workdir)
        wall = time.perf_counter() - start
    print(wall, SpeedReference.factor(before, speed.seconds()))


def measure_setup(args):
    """(wall, speed factor) of set-up in each of several fresh interpreters."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--out", str(args.out)] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        wall, factor = done.stdout.split()[-2:]
        samples.append((float(wall), float(factor)))
    return samples


def metadata(args):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "copsep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "processes": "1 (ops run sequentially in this process; set-up probes run one at a time)",
    }


def run_ops(args, workload, tracer, speed):
    """Closed loop in this one process: ops run back to back for
    ``--seconds``. The first is untimed; every later op must reproduce its
    outputs. The later ones are timed, and alternate untraced and traced
    when tracing. Returns the op records."""
    ops = []
    expected = None
    deadline = time.perf_counter() + args.seconds
    while True:
        index = len(ops)
        traced = tracer is not None and index > 0 and index % 2 == 0
        untraced_timed = sum(not op["traced"] for op in ops[1:])
        traced_timed = sum(op["traced"] for op in ops)
        if (
            time.perf_counter() >= deadline
            and untraced_timed >= MIN_TIMED_OPS
            and (tracer is None or traced_timed >= MIN_TIMED_OPS)
        ):
            break
        record = {"index": index, "traced": traced, "wall_s": None, "factor": None, "problems": []}
        outcome = None
        try:
            before = speed.seconds()
            with tracer.installed() if traced else nullcontext():
                start = time.perf_counter()
                with tracer.span("op") if traced else nullcontext():
                    result = workload.op()
                record["wall_s"] = time.perf_counter() - start
            record["factor"] = SpeedReference.factor(before, speed.seconds())
            outcome = workload.check(result)
            record["problems"] = outcome.problems
            if expected is None:
                expected = outcome.fingerprint
            elif outcome.fingerprint != expected:
                record["problems"].append("outputs differ from the first op of this seed")
        except Exception as err:  # one failed op must not end the run
            record["problems"].append(f"{type(err).__name__}: {err}")
        for problem in record["problems"]:
            print(f"op {index}: {problem}", file=sys.stderr)
        record["outcome"] = outcome
        ops.append(record)
    return ops


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure(args):
    """Set up (traced when tracing), run the ops, then probe set-up time in
    fresh interpreters (untraced runs only).

    Returns (ops, tracer, speed factor of the traced set-up, set-up samples).
    """
    speed = SpeedReference()
    workdir = tempfile.mkdtemp(dir=args.out)
    try:
        tracer = None
        setup_factor = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            before = speed.seconds()
            with tracer.installed(), tracer.span("setup"):
                workload = _make_workload(args, workdir)
            setup_factor = SpeedReference.factor(before, speed.seconds())
        else:
            workload = _make_workload(args, workdir)
        ops = run_ops(args, workload, tracer, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return ops, tracer, setup_factor, [] if args.trace else measure_setup(args)


def end_to_end_values(ops, setup_samples):
    """Metric values and the basis printed beside some of them."""
    timed = [op for op in ops[1:] if op["factor"] is not None]
    scaled = [op["wall_s"] * op["factor"] for op in timed]
    outcomes = [op["outcome"] for op in ops if op["outcome"] is not None]
    passed = sum(1 for op in ops if not op["problems"])
    q1, q3 = _quartiles(scaled)
    values = {
        "op_s": statistics.median(scaled),
        "setup_s": statistics.median(wall * factor for wall, factor in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": passed / len(ops),
        "block_match_rate": sum(o.block_match for o in outcomes) / len(ops),
        "family_match_rate": sum(o.family_match for o in outcomes) / len(ops),
    }
    basis = {
        "op_s": f"median of {len(timed)} ops, q1 {q1:.4f} q3 {q3:.4f}; raw wall median "
                f"{statistics.median(op['wall_s'] for op in timed):.4f} s, speed factor "
                f"{statistics.median(op['factor'] for op in timed):.3f}",
        "setup_s": f"median of {len(setup_samples)} fresh processes; raw wall median "
                   f"{statistics.median(wall for wall, _ in setup_samples):.4f} s",
        "success_rate": f"{passed}/{len(ops)} ops",
    }
    return values, basis


def per_layer_values(ops, tracer, setup_factor, seconds):
    """Per-op medians of the layer metrics over the traced ops, plus the
    tracing overhead and the sampling done during the traced set-up.
    Metrics named in ``seconds`` are scaled by their op's speed factor."""
    from tracer import layer_metrics, median_metrics

    traced = [op for op in ops if op["traced"]]
    per_op = []
    for summary, op in zip(tracer.per_root("op"), traced):
        if op["outcome"]:
            values = layer_metrics(summary, op["outcome"])
            per_op.append({k: v * op["factor"] if k in seconds else v for k, v in values.items()})
    values = median_metrics(per_op)
    # each traced op follows an untraced one; one factor per pair keeps the
    # reference's own noise out of the difference
    pairs = [(ops[op["index"] - 1], op) for op in traced]
    values["trace.overhead_s"] = statistics.median(
        (t["wall_s"] - u["wall_s"]) * (t["factor"] + u["factor"]) / 2
        for u, t in pairs
        if u["factor"] and t["factor"]
    )
    sampled = tracer.per_root("setup")[0].get("copulas.sample", {}).get("s", 0.0)
    values["copulas.sample.setup_s"] = sampled * setup_factor
    basis = {name: "per-op median" for name in values}
    basis["trace.overhead_s"] = f"median over {len(pairs)} (untraced, traced) pairs of ops"
    basis["copulas.sample.setup_s"] = "in the traced set-up"
    basis["copulas.kendall_tau.distinct_ratio"] = (
        f"{values['copulas.kendall_tau.distinct_pairs']:g} distinct pairs / "
        f"{values['copulas.kendall_tau.calls']:g} calls per op")
    basis["copulas.fit_copula.kept_ratio"] = (
        f"{values['copulas.fit_copula.kept']:g} kept blocks / {values['copulas.fit_copula.calls']:g} calls per op")
    return values, basis


def main(argv=None):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    parser.add_argument("--out", type=Path, default=HERE / "out", help="directory for results and scratch files")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "copsep" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC / 'copsep'}")
    sys.path.insert(0, str(SRC))
    args.out.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    ops, tracer, setup_factor, setup_samples = measure(args)
    if args.trace:
        listed = spec["per_layer"]
        seconds = {m["name"] for m in listed if m["unit"] == "s"}
        values, basis = per_layer_values(ops, tracer, setup_factor, seconds)
    else:
        values, basis = end_to_end_values(ops, setup_samples)
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        sys.exit(f"error: no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    failed = sum(1 for op in ops if op["problems"])

    meta = metadata(args)
    record = {
        "metadata": meta,
        "metrics": metrics,
        "ops": [{k: op[k] for k in ("index", "traced", "wall_s", "factor", "problems")} for op in ops],
        "setup_samples_s": setup_samples,
    }
    if tracer is not None:
        record["spans"] = tracer.export()
    result_path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {meta['workload']} seed={meta['seed']} trace={meta['trace']} commit={meta['commit']} "
          f"source={meta['source_sha256'][:12]} nproc={meta['nproc']} cpu={meta['cpu_model']!r}")
    print(f"# python {meta['python']} numpy {meta['numpy']} scipy {meta['scipy']} blas {meta['blas']} "
          f"threads {meta['blas_threads_env']}")
    print(f"# ops attempted {len(ops)} (the first is untimed), failed {failed}")
    for m in listed:
        print(f"{m['name']:40s} {values[m['name']]:14.6g} {m['unit']:8s} {basis.get(m['name'], '')}")
    print(f"# full record: {result_path}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
