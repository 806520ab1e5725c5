"""Command line: synthesize benchmark mixtures with ground truth, separate
observations, and score an estimate against the truth.

Exit codes: 0 success, 2 invalid input, 3 rotation estimation did not
converge. CSV files are one time sample per row, one channel per column;
channels in flags and JSON files are 1-indexed.
"""
from __future__ import annotations

import argparse
import codecs
import io
import json
import math
import sys
from contextlib import contextmanager
from functools import cache
from itertools import islice, repeat

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

# Rows per chunk of the CSV writer.
_CSV_CHUNK_ROWS = 2048


def _parse_cell(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def _parse_lines(path: str, lines, first: int, width: int) -> np.ndarray:
    """The rows ``lines``, which start at line ``first`` (0-based) of the
    file, as a (rows, width) block: the first data record, which
    ``_read_csv`` checks, or the data lines of a file whose cells
    ``np.loadtxt`` does not all read; the only place that raises an error
    in a row's fields.

    Every cell is read by ``float`` in one pass, so a cell that ``float``
    reads and ``np.loadtxt`` rejects (``1_0``, non-ASCII digits) gets its
    value here. When that pass fails (a field count other than ``width``,
    or a non-numeric or non-finite cell), the rows are scanned in order
    and the first bad one raises."""
    if set(map(str.count, lines, repeat(","))) == {width - 1}:
        try:
            block = np.fromiter(map(float, ",".join(lines).split(",")), float, len(lines) * width)
        except ValueError:
            pass
        else:
            if np.isfinite(block).all():
                return block.reshape(len(lines), width)
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


# ASCII bytes other than "\n" at which str.splitlines ends a line
_OTHER_LINE_BREAKS = b"\r\v\f\x1c\x1d\x1e"


def _read_csv(path: str):
    """``(raw, start, width)`` of a samples-by-channels CSV: its bytes as
    lines that each end in ``"\\n"``, the 0-based line of its first data
    record and that record's field count. The one front end of
    ``read_signal_csv`` and ``_read_width``.

    A leading UTF-8 byte order mark is dropped. Lines are those of
    ``str.splitlines``: a file that is not ASCII text with LF line ends is
    decoded once, a byte that is not UTF-8 being an error that names it
    and its row, and rewritten as its lines. Line 0 is a header, and
    ``start`` is 1, when any of its fields is not a number to ``float``
    ("nan" and "inf" are numbers). The first data record is checked by
    ``_parse_lines``; a file without one is empty or has no data rows,
    both errors."""
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(codecs.BOM_UTF8)
    if not raw.isascii() or any(c in raw for c in _OTHER_LINE_BREAKS):
        try:
            text = raw.decode()
        except UnicodeDecodeError as err:
            row = len((raw[:err.start].decode() + "x").splitlines())
            raise ValueError(f"{path}: not UTF-8 text (byte 0x{raw[err.start]:02x} at row {row})") from None
        raw = "\n".join([*text.splitlines(), ""]).encode()  # each line ends in "\n"
    elif raw and not raw.endswith(b"\n"):
        raw += b"\n"
    # the first two lines, each without its "\n"
    head = [line[:-1].decode() for line in islice(io.BytesIO(raw), 2)]
    start = 1 if head and any(_parse_cell(tok) is None for tok in head[0].split(",")) else 0
    if start == len(head):
        raise ValueError(f"{path}: no data rows" if head else f"{path}: empty file")
    width = head[start].count(",") + 1
    _parse_lines(path, head[start:start + 1], start, width)
    return raw, start, width


def _read_width(path: str) -> int:
    """The channel count of a samples-by-channels CSV, from ``_read_csv``:
    the whole file is decoded as ``read_signal_csv`` decodes it, and its
    first data record is checked; later rows are not parsed, so they may
    be ragged, non-numeric or non-finite."""
    return _read_csv(path)[2]


def read_signal_csv(path: str) -> SignalMatrix:
    """Read a samples-by-channels CSV into a SignalMatrix.

    A leading UTF-8 byte order mark is dropped. A single header row is
    skipped when any first-row field is not a number to ``float`` ("nan"
    and "inf" are numbers, so a first row holding them is data, and an
    error). Ragged rows and non-numeric or non-finite cells are errors
    naming the offending row and column (1-based, counting the header);
    so is a byte that is not UTF-8 text.

    ``_read_csv`` gives the file as LF lines, so every value is the double
    that ``float`` gives for its cell. The data lines go to one
    ``np.loadtxt``, which reads each cell with the C routine that
    ``float`` calls, so it gives the same bits. Its result is kept when it
    has one row per data line and ``width`` columns and every value is
    finite. Otherwise all data lines go to ``_parse_lines``, which reads
    the cells ``np.loadtxt`` rejects and ``float`` accepts (``1_0``), and
    raises the first error in file order.
    """
    raw, start, width = _read_csv(path)
    # the first data line is valid, so not blank: np.loadtxt, which skips
    # blank lines and warns when it reads no row, reads at least one row
    try:
        data = np.loadtxt(
            io.BytesIO(raw), delimiter=",", comments=None, skiprows=start, ndmin=2, encoding="utf-8"
        )
    except ValueError:
        pass
    else:
        if data.shape == (raw.count(b"\n") - start, width) and np.isfinite(data).all():
            return SignalMatrix(data.T)
    lines = raw.decode().split("\n")[:-1]
    return SignalMatrix(_parse_lines(path, lines[start:], start, width).T)


def write_signal_csv(signals: SignalMatrix, path: str, header: bool = False):
    """Write a SignalMatrix as a samples-by-channels CSV, 17 significant
    digits (lossless round trip), LF line endings, no header by default.

    Every cell holds the bytes of Python's ``"%.17g" % value``. Each chunk
    of rows is formatted by ``_format_rows``: values with 1e-4 <= |x| <
    1e15, which ``%.17g`` prints in fixed notation, are converted by exact
    integer arithmetic, so their bytes are those of the correctly rounded
    conversion; ±0, subnormals, |x| < 1e-4 and |x| >= 1e15 are formatted
    by ``%``, each by its own ``%.17g``."""
    rows = signals.values.T
    with open(path, "wb") as fh:
        if header:
            fh.write((",".join(f"c{i + 1}" for i in range(signals.n_channels)) + "\n").encode())
        for lo in range(0, signals.n_samples, _CSV_CHUNK_ROWS):
            fh.write(_format_rows(rows[lo:lo + _CSV_CHUNK_ROWS]))


# 5**k for k = 0..27, all below 2**63: the decimal scales of _format_rows.
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)


def _format_rows(block: np.ndarray) -> bytes:
    """The CSV bytes of a samples-by-channels block: ``"%.17g" % value``
    cells, ``,`` between them and ``\\n`` after each row.

    Each cell is laid out in one uint8 grid with a row per byte position:
    the sign, the ``0.000`` of a value below 1, 18 slots for 17 digits and
    the point, and the separator. A byte the cell does not print is 0, and
    a boolean mask drops those bytes. A value outside 1e-4 <= |x| < 1e15
    gets the cell ``%.17g`` instead, which one ``%`` call on the compacted
    bytes fills in."""
    rows, n = block.shape
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e15)
    a[~fast] = 1.0  # any in-range value; these cells are overwritten below
    sig, k = _decimal_significands(a)
    k = k.astype(np.uint8)  # 16 - X: 2..20

    # the 17 digits, most significant first, and the last nonzero one, z
    digits = np.empty((17, x.size), np.uint8)
    ten = np.uint64(10)
    for j in range(16, 0, -1):
        q = sig // ten
        sig -= q * ten
        digits[j] = sig
        sig = q
    digits[0] = sig
    slot = np.arange(18, dtype=np.uint8)[:, None]
    z = ((digits != 0) * slot[:17]).max(axis=0)
    digits += np.uint8(ord("0"))

    # X >= 0 prints X + 1 integer digits, then the point at slot X + 1;
    # X < 0 prints "0." and -X - 1 zeros before the digits, and no point
    # (slot 17, past the last digit, is never kept)
    below_one = k > 16
    int_len = (np.uint8(17) - k) * ~below_one
    point = int_len + below_one * np.uint8(17)
    zeros = (k - np.uint8(15)) * below_one  # bytes of "0.000" printed

    # rows: sign, "0.000", 18 slots, separator; uint8 arithmetic wraps, so
    # ``a += (b - a) * mask`` takes b where mask holds
    grid = np.empty((25, x.size), np.uint8)
    np.multiply(x < 0, np.uint8(ord("-")), out=grid[0])
    np.multiply(np.frombuffer(b"0.000", np.uint8)[:, None], slot[:5] < zeros, out=grid[1:6])
    slots = grid[6:24]
    slots[1:] = digits
    slots[0] = digits[0]
    slots[:17] += (digits - slots[:17]) * (slot[:17] < point)
    slots += (np.uint8(ord(".")) - slots) * (slot == point)
    # keep the integer digits, and the fraction up to its last nonzero digit
    kept = z + np.uint8(1)
    kept += z >= point
    np.maximum(kept, int_len, out=kept)
    slots *= slot < kept
    grid[24].reshape(rows, n)[:] = np.frombuffer(b"," * (n - 1) + b"\n", np.uint8)

    # no other cell prints a "%"
    other = np.flatnonzero(~fast)
    grid[:24, other] = 0
    grid[:5, other] = np.frombuffer(b"%.17g", np.uint8)[:, None]
    cells = grid.T.ravel()
    return cells[cells != 0].tobytes() % tuple(x[other].tolist())


def _decimal_significands(a: np.ndarray):
    """The correctly rounded 17-digit decimal significands of the doubles
    ``a``: uint64 arrays N in [10**16, 10**17) and k = 16 - X, with
    a = N * 10**(X - 16) rounded half to even, as ``%.17g`` rounds.
    Exact for 1e-10 <= a < 1e15, where k <= 27 and the shift of
    ``_scaled_floor`` is 1..63.

    X starts at floor(log10 a) and is fixed from the *floor* of a * 10**k,
    which must lie in [10**16, 10**17); only then is it rounded, and a
    carry to 10**17 moves X up by one. Fixing X from the rounded value
    prints 1e-6 as ``1e-06`` instead of ``9.9999999999999995e-07``."""
    bits = a.view(np.uint64)
    m = bits & np.uint64((1 << 52) - 1)
    m |= np.uint64(1 << 52)
    e = bits >> np.uint64(52)
    k = (16.0 - np.floor(np.log10(a))).astype(np.uint64)
    f, low, s = _scaled_floor(m, e, k)
    below = f < np.uint64(10**16)
    above = f >= np.uint64(10**17)
    fix = below | above
    if fix.any():
        k += below
        k -= above
        f[fix], low[fix], s[fix] = _scaled_floor(m[fix], e[fix], k[fix])
    half = np.left_shift(np.uint64(1), s - np.uint64(1))
    up = low > half
    up |= (low == half) & ((f & np.uint64(1)) == np.uint64(1))
    f += up
    carry = f == np.uint64(10**17)
    f[carry] = np.uint64(10**16)
    k -= carry
    return f, k


def _scaled_floor(m, e, k):
    """floor(m * 5**k * 2**(e - 1075 + k)) for doubles m * 2**(e - 1075)
    (m the 53-bit significand, e the biased exponent), with the bits below
    the floor and the right shift s = 1075 - e - k (1..63).

    m * 5**k is a 64 x 64 -> 128-bit product on 32-bit limbs: m < 2**53
    and 5**k < 2**63, so no partial sum overflows."""
    p = _POW5[k]
    lo32, w = np.uint64(0xFFFFFFFF), np.uint64(32)
    m_lo, m_hi = m & lo32, m >> w
    p_lo, p_hi = p & lo32, p >> w
    mid = m_lo * p_hi
    mid += m_hi * p_lo  # below 2**63 + 2**53
    low = m_lo * p_lo
    low_word = low + (mid << w)  # mod 2**64
    high_word = m_hi * p_hi + (mid >> w) + (low_word < low)  # carry out of the low word
    s = np.uint64(1075) - e - k
    floor = (high_word << (np.uint64(64) - s)) | (low_word >> s)
    return floor, low_word & ((np.uint64(1) << s) - np.uint64(1)), s


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


def _load_json(path: str):
    # a file that is not UTF-8 or not JSON is invalid input naming the file
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ValueError(f"{path}: {err}") from None


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
        # singular when its least singular value is at most 1e-6 of the largest:
        # center_and_whiten's 1e-12 eigenvalue floor on M M^T, free of scale
        singular = np.linalg.svd(mixing, compute_uv=False)
        if singular[-1] <= 1e-6 * singular[0]:
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


def _json_number(value, field: str) -> float:
    """One finite JSON number (see ``_json_numbers``); a list is a TypeError too."""
    number = _json_numbers(value, field)
    if number.ndim:
        raise TypeError(f"{field}: expected a finite number, got {json.dumps(value)}")
    return float(number)


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
    """Score the estimate against the truth. ``--data`` must be UTF-8
    text whose first data record is valid and holds one field per channel
    of the truth (``_read_width``); later rows are not parsed."""
    estimate = _load_json(args.estimate)
    truth = _load_json(args.truth)
    data_width = _read_width(args.data)

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
        divergence = _json_number(estimate["divergence"], "divergence")
        log_likelihood = _json_number(estimate["log_likelihood"], "log_likelihood")
    if data_width != n:
        raise ValueError(f"{args.data}: expected {n} channels, got {data_width}")

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

@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    returns a fresh namespace on each call, so no option carries over."""
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
    evaluate.add_argument(
        "--data", required=True, help="sources CSV (for shape checks); only its first data record is parsed and checked"
    )
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
