"""Command line: synthesize benchmark mixtures with ground truth, separate
observations, and score an estimate against the truth.

Exit codes: 0 success, 2 invalid input, 3 rotation estimation did not
converge. CSV files are one time sample per row, one channel per column;
channels in flags and JSON files are 1-indexed.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from itertools import repeat

import numpy as np

from .copulas import _THETA_FAMILIES, FAMILY_NAMES, FactorialCopula, GaussianCopula, ProductCopula
from .exceptions import CopsepError, NonConvergenceError
from .inference import cca_fit
from .margins import margin_ppf
from .signals import BlockPartition, SignalMatrix, align_permutation, amari_index, mix

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NONCONVERGENCE = 3

# Parameters of every synthesized margin: (low, high) for uniform,
# (location, scale) otherwise.
MARGIN_PARAMS = (0.0, 1.0)


# ---------------------------------------------------------------------------
# CSV input/output

# Rows per chunk of the CSV reader and writer.
_CSV_CHUNK_ROWS = 2048


def _parse_cell(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def _raise_first_bad_row(path: str, lines, first: int, width: int):
    """Raise the error of the first bad row among ``lines``, which start at
    line ``first`` (0-based) of the file: a field count other than
    ``width``, or a non-numeric or non-finite cell."""
    for lineno, line in enumerate(lines, first):
        tokens = line.split(",")
        if len(tokens) != width:
            raise ValueError(
                f"{path}: row {lineno + 1} has {len(tokens)} fields, expected {width}"
            )
        for col, token in enumerate(tokens):
            value = _parse_cell(token)
            if value is None or not math.isfinite(value):
                kind = "non-numeric" if value is None else "non-finite"
                raise ValueError(f"{path}: row {lineno + 1}, column {col + 1}: {kind} value {token!r}")


def read_signal_csv(path: str) -> SignalMatrix:
    """Read a samples-by-channels CSV into a SignalMatrix.

    A leading UTF-8 byte order mark is dropped. A single header row is
    skipped when any first-row field is not a number to ``float`` ("nan"
    and "inf" are numbers, so a first row holding them is data, and an
    error). Ragged rows and non-numeric or non-finite cells are errors
    naming the offending row and column (1-based, counting the header).

    Rows are parsed a chunk at a time; a chunk that fails is scanned again
    row by row, so the error is the first one in file order.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    start = 1 if any(_parse_cell(tok) is None for tok in lines[0].split(",")) else 0
    if start == len(lines):
        raise ValueError(f"{path}: no data rows")
    width = lines[start].count(",") + 1
    data = np.empty((len(lines) - start, width))
    for lo in range(start, len(lines), _CSV_CHUNK_ROWS):
        chunk = lines[lo:lo + _CSV_CHUNK_ROWS]
        block = None
        if set(map(str.count, chunk, repeat(","))) == {width - 1}:
            try:
                block = np.fromiter(map(float, ",".join(chunk).split(",")), float, len(chunk) * width)
            except ValueError:
                pass
        if block is None or not np.isfinite(block).all():
            _raise_first_bad_row(path, chunk, lo, width)
        data[lo - start:lo - start + len(chunk)] = block.reshape(len(chunk), width)
    return SignalMatrix(data.T)


def write_signal_csv(signals: SignalMatrix, path: str, header: bool = False):
    """Write a SignalMatrix as a samples-by-channels CSV, 17 significant
    digits (lossless round trip), LF line endings, no header by default.

    Each chunk of rows is formatted by one ``%``-format call."""
    rows = signals.values.T
    row_format = ",".join(["%.17g"] * signals.n_channels) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header:
            fh.write(",".join(f"c{i + 1}" for i in range(signals.n_channels)) + "\n")
        for lo in range(0, signals.n_samples, _CSV_CHUNK_ROWS):
            block = rows[lo:lo + _CSV_CHUNK_ROWS]
            fh.write(row_format * len(block) % tuple(block.ravel().tolist()))


def _read_matrix(path: str, n: int) -> np.ndarray:
    matrix = read_signal_csv(path).values.T
    if matrix.shape != (n, n):
        raise ValueError(f"{path}: expected a {n}x{n} matrix, got {matrix.shape}")
    return matrix


# ---------------------------------------------------------------------------
# Flag grammar helpers

def parse_partition(text: str, n_channels: int) -> BlockPartition:
    """Parse the '1,2|3' block grammar (1-indexed channels)."""
    blocks = []
    for chunk in text.split("|"):
        block = []
        for token in chunk.split(","):
            token = token.strip()
            if not token.isdigit() or int(token) < 1:
                raise ValueError(f"bad partition entry {token!r}; channels are 1-indexed integers")
            block.append(int(token) - 1)
        blocks.append(tuple(block))
    return BlockPartition(tuple(blocks), n_channels)


def _partition_to_json(partition: BlockPartition):
    return [[i + 1 for i in block] for block in partition.blocks]


def _split_per_block(text: str | None, count: int, flag: str):
    if count == 0:
        if text is not None:
            raise ValueError(f"--{flag} is given, but no block takes a value")
        return []
    if text is None:
        raise ValueError(f"--{flag} is required ({count} value(s) expected)")
    items = [tok.strip() for tok in text.split(",")]
    if len(items) == 1:
        items = items * count
    if len(items) != count:
        raise ValueError(f"--{flag} needs 1 or {count} comma-separated values, got {len(items)}")
    return items


def copula_to_json(model, channels: tuple) -> dict:
    one_based = [i + 1 for i in channels]
    if isinstance(model, FactorialCopula):
        blocks = [
            copula_to_json(block, chan)
            for chan, block in zip(model.partition.blocks, model.blocks)
        ]
        return {"family": "factorial", "params": {"blocks": blocks}}
    if isinstance(model, ProductCopula):
        params = {}
    elif isinstance(model, GaussianCopula):
        params = {"correlation": model.correlation.tolist()}
    elif type(model) in _THETA_FAMILIES.values():
        params = {"theta": float(model.theta)}
    else:
        raise ValueError(f"cannot serialize copula {model!r}")
    return {"family": model.family, "params": params, "channels": one_based}


def _equicorrelation(d: int, r: float) -> np.ndarray:
    if not -1.0 / (d - 1) < r < 1.0:
        raise ValueError(
            f"gaussian block of size {d} needs correlation in (-1/{d - 1}, 1), got {r}"
        )
    return np.full((d, d), r) + (1.0 - r) * np.eye(d)


def _build_block_model(family: str, size: int, thetas, rhos):
    """The copula of one dependent block; a parametric family takes the
    next value of the iterator ``thetas`` or ``rhos``."""
    if family == "product":
        return ProductCopula(size)
    if family == "gaussian":
        return GaussianCopula(_equicorrelation(size, next(rhos)))
    if family in _THETA_FAMILIES:
        return _THETA_FAMILIES[family](next(thetas), size)
    raise ValueError(f"unknown copula family '{family}'; expected one of {FAMILY_NAMES}")


def _dump_json(obj, path: str):
    # serialized before the file opens, so a non-finite value leaves no file
    text = json.dumps(obj, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Subcommands

def cmd_synth(args) -> int:
    n, t = args.channels, args.samples
    if n < 1 or t < 1:
        raise ValueError("--channels and --samples must be positive")
    partition = (
        parse_partition(args.partition, n) if args.partition else BlockPartition.singletons(n)
    )
    dependent = [b for b in partition.blocks if len(b) > 1]
    families = _split_per_block(args.copula, len(dependent), "copula")

    n_thetas = sum(f in _THETA_FAMILIES for f in families)
    thetas = iter([float(v) for v in _split_per_block(args.theta, n_thetas, "theta")])
    rhos = iter([float(v) for v in _split_per_block(args.rho, families.count("gaussian"), "rho")])

    models = []
    for block in partition.blocks:
        if len(block) == 1:
            models.append(ProductCopula(1))
            continue
        family = families[dependent.index(block)]
        models.append(_build_block_model(family, len(block), thetas, rhos))
    copula = FactorialCopula(partition, tuple(models))

    margin_names = _split_per_block(args.margins, n, "margins")
    u = copula.sample(t, seed=args.seed)
    sources = np.empty((n, t))
    for i, name in enumerate(margin_names):
        sources[i] = margin_ppf(name, MARGIN_PARAMS, u.values[i])

    if args.mix == "identity":
        mixing = np.eye(n)
    elif args.mix == "random":
        rng = np.random.default_rng([args.seed, 1])
        while True:
            mixing = rng.standard_normal((n, n))
            if n == 1 or np.linalg.cond(mixing) < 100.0:
                break
    else:
        mixing = _read_matrix(args.mix, n)
        if abs(np.linalg.det(mixing)) < 1e-12:
            raise ValueError(f"{args.mix}: mixing matrix is singular")

    observed = mix(SignalMatrix(sources), mixing)
    write_signal_csv(observed, args.out, header=args.header)
    truth = {
        "channels": n,
        "samples": t,
        "seed": args.seed,
        "mixing": mixing.tolist(),
        "partition": _partition_to_json(partition),
        "copula": copula_to_json(copula, tuple(range(n))),
        "margins": [{"name": name, "params": list(MARGIN_PARAMS)} for name in margin_names],
    }
    _dump_json(truth, args.truth_out)
    return EXIT_OK


def cmd_separate(args) -> int:
    x = read_signal_csv(args.input)
    if x.n_channels < 2:
        raise ValueError(f"{args.input}: need at least 2 channels, got {x.n_channels}")
    partition = None if args.partition == "auto" else parse_partition(args.partition, x.n_channels)
    families = FAMILY_NAMES if args.family == "auto" else (args.family,)
    separation, report = cca_fit(x, families=families, partition=partition, max_iter=args.max_iter, seed=args.seed)
    write_signal_csv(separation.separate(x), args.sources_out, header=args.header)
    payload = {
        "demixing": separation.demixing.tolist(),
        "partition": _partition_to_json(report.partition),
        "copula": copula_to_json(report.copula, tuple(range(x.n_channels))),
        "mutual_information": report.mutual_information,
        "copula_entropy": report.copula_entropy,
        "divergence": report.divergence,
        "log_likelihood": report.log_likelihood,
        "ica_iterations": report.ica_iterations,
        "seed": report.seed,
        "density_floor_hit": report.density_floor_hit,
    }
    _dump_json(payload, args.report_out)
    return EXIT_OK


def _json_int(value, field: str) -> int:
    """A JSON integer; anything else, a boolean too, is a TypeError naming ``field``."""
    if type(value) is not int:
        raise TypeError(f"{field}: expected an integer, got {json.dumps(value)}")
    return value


def _json_numbers(value, field: str) -> np.ndarray:
    """A finite JSON number, or nested lists of them, as a float array; anything
    else, a boolean, NaN or a ragged list too, is a TypeError naming ``field``."""
    if any(type(v) not in (int, float) or not math.isfinite(v) for v in np.asarray(value, dtype=object).flat):
        raise TypeError(f"{field}: expected finite numbers, got {json.dumps(value)}")
    return np.asarray(value, dtype=float)


def _block_summary(block: dict):
    """(family, parameters) of one JSON copula block; a gaussian's are its sorted
    off-diagonal |correlations|, as the components' signs are ambiguous."""
    family = block["family"]
    if family in _THETA_FAMILIES:
        return family, _json_numbers(block["params"]["theta"], "theta")
    if family == "gaussian":
        rho = np.abs(_json_numbers(block["params"]["correlation"], "correlation"))
        return family, np.sort(rho[~np.eye(len(rho), dtype=bool)])
    return family, np.zeros(0)


def _block_error(truth, estimate):
    (family, t), (estimate_family, e) = truth, estimate
    if family != estimate_family or t.shape != e.shape:
        return None
    return float(np.abs(t - e).max(initial=0.0))


def _json_partition(blocks, n: int, path: str, field: str) -> BlockPartition:
    """The 0-based partition given by 1-based JSON channel lists, which must
    cover channels 1..n once."""
    try:
        return BlockPartition(tuple(tuple(_json_int(i, field) - 1 for i in b) for b in blocks), n)
    except ValueError as err:
        raise ValueError(f"{path}: {field} {blocks} does not partition channels 1..{n} (0-based: {err})") from None


def _copula_blocks(doc: dict, n: int, path: str) -> dict:
    """Summaries of the copula blocks of a truth or estimate document, by
    their sorted 0-based channels, which must partition channels 1..n."""
    blocks = doc["copula"]["params"]["blocks"]
    _json_partition([b["channels"] for b in blocks], n, path, "copula channels")
    return {tuple(sorted(i - 1 for i in b["channels"])): _block_summary(b) for b in blocks}


@contextmanager
def _fields_of(path: str):
    # only here are these errors invalid input: a JSON field missing, or of the wrong type or shape
    try:
        yield
    except KeyError as err:
        raise ValueError(f"{path}: missing field {err}") from None
    except (TypeError, IndexError) as err:
        raise ValueError(f"{path}: a field has the wrong type or shape ({err})") from None


def cmd_evaluate(args) -> int:
    with open(args.estimate, "r", encoding="utf-8") as fh:
        estimate = json.load(fh)
    with open(args.truth, "r", encoding="utf-8") as fh:
        truth = json.load(fh)
    data = read_signal_csv(args.data)

    with _fields_of(args.truth):
        n = _json_int(truth["channels"], "channels")
        mixing = _json_numbers(truth["mixing"], "mixing")
        truth_blocks = _copula_blocks(truth, n, args.truth)
        truth_partition = _json_partition(truth["partition"], n, args.truth, "partition")
    with _fields_of(args.estimate):
        demixing = _json_numbers(estimate["demixing"], "demixing")
        if demixing.shape != (n, n) or mixing.shape != (n, n):
            raise ValueError(f"channel mismatch: truth has {n} channels, "
                             f"demixing {demixing.shape}, mixing {mixing.shape}")
        estimate_blocks = _copula_blocks(estimate, n, args.estimate)
        estimate_partition = _json_partition(estimate["partition"], n, args.estimate, "partition")
        divergence, log_likelihood = estimate["divergence"], estimate["log_likelihood"]
    if data.n_channels != n:
        raise ValueError(f"{args.data}: expected {n} channels, got {data.n_channels}")

    gain = demixing @ mixing
    perm = align_permutation(gain)

    # map the estimate's channel labels onto the truth's through the
    # recovered-component assignment, then compare block structures
    mapped = BlockPartition(tuple(perm[list(block)] for block in estimate_partition.blocks), n)
    partition_match = mapped == truth_partition

    est_by_channels = {tuple(sorted(perm[list(c)])): block for c, block in estimate_blocks.items()}
    block_errors = []
    for channels, block in truth_blocks.items():
        match = est_by_channels.get(channels)
        block_errors.append({
            "channels": [i + 1 for i in channels],
            "family_truth": block[0],
            "family_estimate": match[0] if match else None,
            "abs_error": _block_error(block, match) if match else None,
        })

    metrics = {
        "amari_index": amari_index(gain),
        "partition_match": partition_match,
        "block_errors": block_errors,
        "divergence": divergence,
        "log_likelihood": log_likelihood,
    }
    _dump_json(metrics, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copsep",
        description="Blind source separation with copula models of residual dependence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a mixed benchmark with ground truth")
    synth.add_argument("--channels", type=int, required=True)
    synth.add_argument("--samples", type=int, required=True)
    synth.add_argument("--partition", help="blocks like '1,2|3'; default all singletons")
    synth.add_argument("--copula", help="family per dependent block (comma list or one for all)")
    synth.add_argument("--theta", help="theta per clayton/gumbel block")
    synth.add_argument("--rho", help="correlation per gaussian block")
    synth.add_argument("--margins", default="gaussian", help="margin name(s), one or per channel")
    synth.add_argument("--mix", default="random", help="'random', 'identity', or a CSV matrix path")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="observations CSV")
    synth.add_argument("--truth-out", required=True, help="ground-truth JSON")
    synth.add_argument("--header", action="store_true", help="emit a c1..cn header row")

    separate = sub.add_parser("separate", help="separate observations and fit dependence")
    separate.add_argument("input", help="observations CSV")
    separate.add_argument("--family", default="auto", choices=("auto",) + FAMILY_NAMES)
    separate.add_argument("--partition", default="auto", help="'auto' or explicit blocks like '1,2|3'")
    separate.add_argument("--seed", type=int, default=0)
    separate.add_argument("--max-iter", type=int, default=200)
    separate.add_argument("--sources-out", required=True, help="recovered sources CSV")
    separate.add_argument("--report-out", required=True, help="fit report JSON")
    separate.add_argument("--header", action="store_true", help="emit a c1..cn header row")

    evaluate = sub.add_parser("evaluate", help="score an estimate against the ground truth")
    evaluate.add_argument("--estimate", required=True, help="report JSON from separate")
    evaluate.add_argument("--truth", required=True, help="truth JSON from synth")
    evaluate.add_argument("--data", required=True, help="sources CSV (for shape checks)")
    evaluate.add_argument("--out", required=True, help="metrics JSON")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse prints its own one-line diagnostic
        return int(exit_.code) if exit_.code else EXIT_OK
    handlers = {"synth": cmd_synth, "separate": cmd_separate, "evaluate": cmd_evaluate}
    try:
        return handlers[args.command](args)
    except NonConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (CopsepError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint():
    sys.exit(main())
