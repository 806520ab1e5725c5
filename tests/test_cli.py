import json
import math
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from copsep import SignalMatrix, cli, inference
from copsep.cli import main, parse_partition, read_signal_csv, write_signal_csv


def run(*args):
    return main([str(a) for a in args])


def synth_example(tmp_path, seed=42, partition="1,2|3", extra=()):
    data = tmp_path / "data.csv"
    truth = tmp_path / "truth.json"
    args = [
        "synth", "--channels", 3, "--samples", 5000, "--partition", partition,
        "--copula", "clayton", "--theta", 2, "--margins", "laplace",
        "--mix", "random", "--seed", seed, "--out", data, "--truth-out", truth,
    ]
    assert run(*args, *extra) == 0
    return data, truth


class TestCsvIo:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = SignalMatrix(rng.standard_normal((3, 100)) * 10.0 ** rng.integers(-8, 8, (3, 1)))
        path = tmp_path / "x.csv"
        write_signal_csv(x, path)
        assert np.array_equal(read_signal_csv(path).values, x.values)

    def test_lf_line_endings_no_header(self, tmp_path):
        path = tmp_path / "x.csv"
        write_signal_csv(SignalMatrix([[1.0, 2.0], [3.0, 4.0]]), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw == b"1,3\n2,4\n"

    def test_header_written_and_detected(self, tmp_path):
        path = tmp_path / "x.csv"
        x = SignalMatrix([[1.5, 2.5], [0.5, -0.5]])
        write_signal_csv(x, path, header=True)
        assert path.read_text().splitlines()[0] == "c1,c2"
        assert np.array_equal(read_signal_csv(path).values, x.values)

    def test_header_detected_by_non_numeric_field(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        assert np.array_equal(read_signal_csv(path).values, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"1,2\r\n3,4\r\n")
        assert np.array_equal(read_signal_csv(path).values, [[1.0, 3.0], [2.0, 4.0]])

    def test_ragged_row_names_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="row 2"):
            read_signal_csv(path)

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            read_signal_csv(path)

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n3,nan\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            read_signal_csv(path)

    def test_nan_in_first_row_is_data_not_header(self, tmp_path):
        # "nan" is a number to float(), so row 1 is data, and a bad row
        path = tmp_path / "x.csv"
        path.write_text("1.0,nan,2.0\n3,4,5\n6,7,8\n")
        with pytest.raises(ValueError, match="row 1, column 2: non-finite value 'nan'"):
            read_signal_csv(path)

    def test_byte_order_mark_keeps_first_data_row(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a BOM
        path = tmp_path / "x.csv"
        path.write_bytes("\ufeff1.5,2\n3,4\n5,6\n".encode("utf-8"))
        assert np.array_equal(read_signal_csv(path).values, [[1.5, 3.0, 5.0], [2.0, 4.0, 6.0]])

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes("\ufeffc1,c2\n3,4\n5,6\n".encode("utf-8"))
        assert np.array_equal(read_signal_csv(path).values, [[3.0, 5.0], [4.0, 6.0]])

    @pytest.mark.parametrize("raw, byte, row", [
        (b"1,2\n3,\xff\n", 0xFF, 2),
        (b"\xef\xbb\xbfc1,c2\r\n1,2\r\n\xfe,3\r\n", 0xFE, 3),  # after a BOM and a header
        (b"1,2\n3,4\xe2\x82\n", 0xE2, 2),  # a cut 3-byte sequence
        (b"\xff", 0xFF, 1),
    ])
    def test_non_utf8_byte_names_path_and_row(self, tmp_path, raw, byte, row):
        path = tmp_path / "x.csv"
        path.write_bytes(raw)
        message = f"{path}: not UTF-8 text (byte 0x{byte:02x} at row {row})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_signal_csv(path)


def per_cell_csv(values: np.ndarray, header: bool) -> bytes:
    """The CSV bytes of a samples-by-channels file written one cell at a time."""
    lines = [",".join(f"c{i + 1}" for i in range(values.shape[0]))] if header else []
    lines += [",".join(f"{v:.17g}" for v in values[:, t]) for t in range(values.shape[1])]
    return "".join(line + "\n" for line in lines).encode()


# finite doubles of every magnitude, with the edge cases named explicitly
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308)
finite_matrices = st.integers(1, 4).flatmap(
    lambda n: arrays(
        np.float64,
        st.tuples(st.just(n), st.integers(1, 12)),
        elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_VALUES),
    )
)


def write_rows(path, rows):
    path.write_text("".join(row + "\n" for row in rows))


class TestCsvChunks:
    """Writing works on chunks of rows; the bytes, the values and the first
    error in file order are those of a per-cell reader and writer."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(values=finite_matrices, header=st.booleans(), chunk_rows=st.sampled_from([1, 2, 5, 2048]))
    @example(values=np.array([EDGE_VALUES]), header=False, chunk_rows=3)
    @example(values=np.array([EDGE_VALUES]).T, header=True, chunk_rows=3)
    def test_bytes_match_per_cell_writer_and_round_trip(self, tmp_path_factory, values, header, chunk_rows):
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        with mock.patch.object(cli, "_CSV_CHUNK_ROWS", chunk_rows):
            write_signal_csv(SignalMatrix(values), path, header=header)
        back = read_signal_csv(path).values
        assert path.read_bytes() == per_cell_csv(values, header)
        assert back.shape == values.shape
        assert back.tobytes() == values.tobytes()  # bit-exact, -0.0 included

    @pytest.fixture
    def rows(self):
        rng = np.random.default_rng(7)
        return [",".join(f"{v:.17g}" for v in row) for row in rng.standard_normal((6000, 3))]

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("ragged", [["1,2"], ["1,2,3,4"], ["1,2,3,4", "5,6"]], ids=["short", "long", "balanced"])
    def test_ragged_row_past_first_chunk(self, tmp_path, rows, header, ragged):
        # "balanced": the chunk still holds 3 fields per row on average
        rows[4999:4999 + len(ragged)] = ragged
        path = tmp_path / "x.csv"
        write_rows(path, ["a,b,c"] * header + rows)
        fields = ragged[0].count(",") + 1
        message = f"{path}: row {5000 + header} has {fields} fields, expected 3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_signal_csv(path)

    @pytest.mark.parametrize("cell", ["oops", "nan", "-inf", "1e999", ""])
    def test_bad_cell_past_first_chunk(self, tmp_path, rows, cell):
        rows[4999] = f"1,{cell},3"
        path = tmp_path / "x.csv"
        write_rows(path, rows)
        kind = "non-numeric" if cell in ("oops", "") else "non-finite"
        message = f"{path}: row 5000, column 2: {kind} value {cell!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_signal_csv(path)

    def test_bad_cell_before_ragged_row_in_one_chunk(self, tmp_path, rows):
        rows[4999] = "1,2,nan"
        rows[5000] = "1,2,3,4"
        path = tmp_path / "x.csv"
        write_rows(path, rows)
        message = f"{path}: row 5000, column 3: non-finite value 'nan'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_signal_csv(path)

    def test_ragged_row_before_bad_cell_in_one_chunk(self, tmp_path, rows):
        rows[4999] = "1,2,3,4"
        rows[5000] = "1,2,nan"
        path = tmp_path / "x.csv"
        write_rows(path, rows)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: row 5000 has 4 fields, expected 3$"):
            read_signal_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty file$"):
            read_signal_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("c1,c2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no data rows$"):
            read_signal_csv(path)


def ulps(value: float, steps: int) -> float:
    """``value`` moved by ``steps`` doubles (down when negative)."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.inf if steps > 0 else 0.0)
    return value


POWERS_OF_TEN = [ulps(float(f"1e{p}"), step) for p in range(-5, 17) for step in range(-2, 3)]
# 1e-4 and 1e15 bound the range that %.17g prints in fixed notation
BOUNDS = [1e-4, 1e15] + [math.nextafter(v, t) for v in (1e-4, 1e15) for t in (0.0, math.inf)]
# 1e14 + n/8 for odd n has 18 significant digits ending in 5: a tie
TIES = [1e14 + n / 8 for n in range(-41, 42)]
EDGE_TABLE = POWERS_OF_TEN + BOUNDS + TIES + [1e-6, 1e-7, 0.5, 123.456, 0.1, 0.3]
FALLBACK = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-5, -9.9999999999999e-5, 1e15, -1e300, 1.7976931348623157e308]


class TestFormatRows:
    """``cli._format_rows`` writes the bytes of ``"%.17g" %`` cell by cell."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(block=arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(1, 5)),
        elements=st.floats(allow_nan=False, allow_infinity=False)
        | st.floats(1e-4, 1e15, exclude_max=True).flatmap(lambda v: st.sampled_from([v, -v])),
    ))
    @example(block=np.array([FALLBACK]))  # a row made only of fallback values
    def test_matches_percent_format(self, block):
        assert cli._format_rows(block) == per_cell_csv(block.T, header=False)

    @pytest.mark.parametrize("channels", [1, 3, 5])
    def test_edge_table(self, channels):
        values = np.array(EDGE_TABLE + FALLBACK)
        values = np.concatenate([values, -values])
        block = np.resize(values, (-(-len(values) // channels), channels))
        assert cli._format_rows(block) == per_cell_csv(block.T, header=False)

    def test_literal_cells(self):
        block = np.array([[1e-4, 1e14 + 1 / 8, 1e14 + 3 / 8, -0.5, 1e-5, -0.0, 1e15, 0.1]])
        expected = b"0.0001,100000000000000.12,100000000000000.38,-0.5,1.0000000000000001e-05,-0,1000000000000000,0.10000000000000001\n"
        assert cli._format_rows(block) == expected

    def test_significands_are_the_rounded_17_digits(self):
        # 1e-6 and 1e-7 lie below the writer's range but inside the
        # significands' domain: the exponent comes from the unrounded floor,
        # so 1e-6 = 9.99999999999999954748e-07 keeps X = -7
        values = np.array([v for v in EDGE_TABLE if v < 1e15])
        f, k = cli._decimal_significands(values)
        expected = [("%.16e" % v).split("e") for v in values.tolist()]
        expected = [(int(mantissa.replace(".", "")), int(exponent)) for mantissa, exponent in expected]
        got = list(zip(f.tolist(), (16 - k.astype(np.int64)).tolist()))
        assert [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e] == []

    def test_file_across_chunks(self, tmp_path):
        rng = np.random.default_rng(20)
        for channels in (1, 5):
            values = rng.laplace(size=(channels, 2 * cli._CSV_CHUNK_ROWS + 7))
            # fallback values inside the second chunk, and a row of them
            values[:, 2100:2100 + len(FALLBACK)] = FALLBACK
            values[0, 3000:3000 + len(BOUNDS)] = BOUNDS
            for header in (False, True):
                path = tmp_path / f"x{channels}{header}.csv"
                write_signal_csv(SignalMatrix(values), path, header=header)
                assert path.read_bytes() == per_cell_csv(values, header)
                assert read_signal_csv(path).values.tobytes() == values.tobytes()


def reference_read(path):
    """The values of a samples-by-channels CSV, or the ValueError, of a reader
    that works cell by cell: UTF-8 text with a leading BOM dropped, rows of
    ``str.splitlines``, a header row skipped when any of its fields is not
    a number to ``float``, then each row checked in file order."""
    lines = path.read_bytes().decode("utf-8-sig").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")

    def number(token):
        try:
            return float(token)
        except ValueError:
            return None

    start = 1 if any(number(token) is None for token in lines[0].split(",")) else 0
    if start == len(lines):
        raise ValueError(f"{path}: no data rows")
    width = lines[start].count(",") + 1
    rows = []
    for row, line in enumerate(lines[start:], start + 1):
        tokens = line.split(",")
        if len(tokens) != width:
            raise ValueError(f"{path}: row {row} has {len(tokens)} fields, expected {width}")
        values = [number(token) for token in tokens]
        for col, (token, value) in enumerate(zip(tokens, values), 1):
            if value is None or not math.isfinite(value):
                kind = "non-numeric" if value is None else "non-finite"
                raise ValueError(f"{path}: row {row}, column {col}: {kind} value {token!r}")
        rows.append(values)
    return np.array(rows).T


def outcome(read, path):
    """The bits of ``read(path)``, or the message of its ValueError."""
    try:
        values = read(path)
    except ValueError as err:
        return "error", str(err)
    return "values", np.asarray(getattr(values, "values", values)).tobytes()


@st.composite
def grammar_tokens(draw):
    """Cells of ``-?d+(.d+)?([eE][+-]?d{1,3})?``: 1-25 digits, leading zeros
    and a point at any inner position, exponents of 1-3 digits."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.integers(0, len(digits) - 1))
    mantissa = digits[:point] + "." + digits[point:] if point else digits
    exponent = draw(st.sampled_from(["", "e", "E"]))
    if exponent:
        exponent += draw(st.sampled_from(["", "+", "-"])) + draw(st.text("0123456789", min_size=1, max_size=3))
    return draw(st.sampled_from(["", "-"])) + mantissa + exponent


# writer cells: the 17-digit image of a double
WRITER_TOKENS = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v)
# cells outside the grammar, or inside it and not finite
BAD_TOKENS = [
    "+1", ".5", "5.", "1_0", "\u0661", "\u0663.\u0665", "nan", "-inf", "1e999", "4x", "+-4", "4e", ".",
    "4.5.6", "1e5.5", "-", "4-", "", " 1", "1 ", "1e+", "1e1234", "--1", "1..2", "e5", "1E-", "0x10",
]
# %.17g images two ulps from their significand w times the double nearest 10**q
TWO_ULPS = ["1.1784768310015671e-07", "7.3786141454839815e-09", "3.7060984608141579e-09", "1.1730716847643999e-07"]


def rows_of(width, tokens):
    return st.lists(st.lists(tokens, min_size=width, max_size=width), min_size=1, max_size=8)


def chunk_of(rows) -> bytes:
    return "".join(",".join(row) + "\n" for row in rows).encode()


class TestReadCells:
    """``read_signal_csv`` gives the doubles of ``float`` on every cell of a
    file, or the reference's first error."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(rows=st.integers(1, 4).flatmap(lambda w: rows_of(w, grammar_tokens() | WRITER_TOKENS)))
    @example(rows=[["-0", "0", "-0.000", "0e5", "-00.0E-0"]])
    @example(rows=[["0.1", "0.3", "1e-10", "1e15", "123456789012345678", "1234567890123456789012345"]])
    @example(rows=[[token] for token in TWO_ULPS])
    def test_grammar_cells_read_as_float(self, tmp_path_factory, rows):
        expected = np.array([[float(cell) for cell in row] for row in rows])
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        path.write_bytes(chunk_of(rows))
        if np.isfinite(expected).all():
            assert read_signal_csv(path).values.T.tobytes() == expected.tobytes()  # bit-exact, -0.0 included
        else:
            assert outcome(read_signal_csv, path) == outcome(reference_read, path)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(rows=st.integers(1, 4).flatmap(lambda w: rows_of(w, grammar_tokens() | st.sampled_from(BAD_TOKENS))))
    def test_other_cells_read_as_the_reference(self, tmp_path_factory, rows):
        # the values, or the first error, are the reference's
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        path.write_bytes(chunk_of(rows))
        assert outcome(read_signal_csv, path) == outcome(reference_read, path)

    @pytest.mark.parametrize("content", [
        b"1,2\n3\n", b"1,2\n3,4,5\n", b"1,2\n3\n4,5\n", b"1,2\n,\n", b"1\n\n2\n",
        b"c1\n\n", b"c1,c2\n\n", b"\n\n1\n", b"c1,c2\n\n1,2\n",
    ])
    def test_ragged_rows_and_blank_lines(self, tmp_path, content):
        # np.loadtxt skips blank lines, and warns when it reads no row; each
        # file is the reference's error, and no warning
        path = tmp_path / "x.csv"
        path.write_bytes(content)
        got = outcome(read_signal_csv, path)
        assert got[0] == "error"
        assert got == outcome(reference_read, path)

    @pytest.mark.parametrize("content", ["c1,c2\n", "c1,c2", "c1\r\n", "\ufeffc1\n", "\n"])
    def test_header_only_has_no_data_rows(self, tmp_path, content):
        path = tmp_path / "x.csv"
        path.write_bytes(content.encode())
        assert outcome(read_signal_csv, path) == ("error", f"{path}: no data rows")

    @pytest.mark.parametrize("cell", ["1_0", "\u0661"])
    def test_cell_only_float_reads_past_row_5000(self, tmp_path, cell):
        # np.loadtxt rejects the cell and float reads it: the file is read
        # as the reference reads it
        values = np.random.default_rng(23).laplace(size=(3, 6000))
        path = tmp_path / "x.csv"
        write_signal_csv(SignalMatrix(values), path)
        rows = path.read_text().splitlines()
        rows[5500] = f"1,{cell},3"
        write_rows(path, rows)
        values[:, 5500] = 1.0, float(cell), 3.0
        assert outcome(read_signal_csv, path) == outcome(reference_read, path) == ("values", values.tobytes())

    @pytest.mark.parametrize("channels", [1, 3])
    def test_writer_edge_values_read_back(self, tmp_path, channels):
        values = np.array(EDGE_TABLE + FALLBACK + [float(t) for t in TWO_ULPS])
        values = np.concatenate([values, -values])
        values = np.resize(values, (channels, -(-len(values) // channels)))
        path = tmp_path / "x.csv"
        write_signal_csv(SignalMatrix(values), path)
        assert read_signal_csv(path).values.tobytes() == values.tobytes()


# file layouts, from a CSV text whose lines end in "\n"
LAYOUTS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "bom and header": lambda text: "\ufeffc1,c2,c3\n" + text,
    "non-ascii header": lambda text: "temp\u00e9rature,b,c\n" + text,
    "no final newline": lambda text: text[:-1],
}


class TestCsvStructure:
    """The reader keeps the reference's values and first error over file
    layouts."""

    @pytest.fixture
    def values(self):
        return np.random.default_rng(21).laplace(size=(3, 12))

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("bad, position", [(None, None)] + [
        (bad, position)
        for bad in ("1,oops,3", "1,2", "1,2,3,4", "1,,3", "1,+2,3")  # a bad cell, short and wide rows, an empty cell
        for position in (0, 1, 6, 11)  # first, second, middle, last
    ])
    def test_layouts(self, tmp_path, values, layout, bad, position):
        rows = [",".join("%.17g" % v for v in row) for row in values.T]
        if bad:
            rows[position] = bad
        path = tmp_path / "x.csv"
        path.write_bytes(LAYOUTS[layout]("".join(row + "\n" for row in rows)).encode())
        read = outcome(read_signal_csv, path)
        assert read == outcome(reference_read, path)
        # _read_width takes the reader's first-record rule and parses no later
        # row: a file the reader reads, or a bad row after the first data
        # record, gives 3 channels; a short or wide first record gives its
        # own field count; a bad cell in it, under a header, the reader's
        # error (without a header, its row is the header)
        try:
            width = cli._read_width(path)
        except ValueError as err:
            width = str(err)
        if read[0] == "values" or position:
            assert width == len(values)
        elif bad in ("1,2", "1,2,3,4"):
            assert width == len(bad.split(","))
        else:
            assert ("error", width) == read

    @pytest.mark.parametrize("bad, message", [
        ("1,oops,3", "row 7, column 2: non-numeric value 'oops'"),
        ("1,2", "row 7 has 2 fields, expected 3"),
    ])
    def test_first_error_in_file_order(self, tmp_path, values, bad, message):
        rows = [",".join("%.17g" % v for v in row) for row in values.T]
        rows[6] = bad
        rows[8] = "1,nan,3"  # a later error
        path = tmp_path / "x.csv"
        write_rows(path, rows)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_signal_csv(path)


class TestPartitionFlag:
    def test_grammar(self):
        assert parse_partition("1,2|3", 3).blocks == ((0, 1), (2,))
        assert parse_partition("3|1,2", 3).blocks == ((0, 1), (2,))

    def test_rejects_bad_tokens(self):
        for text in ("0|1", "1,x", "1||2"):
            with pytest.raises(ValueError):
                parse_partition(text, 2)


class TestSynth:
    def test_example_contract(self, tmp_path):
        data, truth = synth_example(tmp_path)
        rows = data.read_text().splitlines()
        assert len(rows) == 5000
        assert all(len(r.split(",")) == 3 for r in rows[:10])
        payload = json.loads(truth.read_text())
        assert payload["partition"] == [[1, 2], [3]]
        assert payload["seed"] == 42
        assert np.asarray(payload["mixing"]).shape == (3, 3)
        blocks = payload["copula"]["params"]["blocks"]
        assert blocks[0] == {"family": "clayton", "params": {"theta": 2.0}, "channels": [1, 2]}
        assert [m["name"] for m in payload["margins"]] == ["laplace"] * 3

    def test_byte_identical_reruns(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        data_a, truth_a = synth_example(tmp_path / "a")
        data_b, truth_b = synth_example(tmp_path / "b")
        assert data_a.read_bytes() == data_b.read_bytes()
        assert truth_a.read_bytes() == truth_b.read_bytes()

    def test_negative_theta_exits_2(self, tmp_path, capsys):
        code = run(
            "synth", "--channels", 3, "--samples", 100, "--partition", "1,2|3",
            "--copula", "clayton", "--theta", -1, "--out", tmp_path / "d.csv",
            "--truth-out", tmp_path / "t.json",
        )
        assert code == 2
        assert "theta > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("family, domain", [("clayton", "theta > 0"), ("gumbel", "theta >= 1")])
    def test_infinite_theta_exits_2_without_files(self, tmp_path, capsys, family, domain):
        code = run(
            "synth", "--channels", 3, "--samples", 100, "--partition", "1,2|3",
            "--copula", family, "--theta", "inf", "--out", tmp_path / "d.csv",
            "--truth-out", tmp_path / "t.json",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert domain in err and "finite" in err
        assert list(tmp_path.iterdir()) == []

    def test_clayton_theta_300_samples(self, tmp_path):
        # at theta = 300 gamma frailties underflow (449 of 5000 at seed 1), so
        # the sampler draws them in log space
        code = run(
            "synth", "--channels", 2, "--samples", 5000, "--partition", "1,2",
            "--copula", "clayton", "--theta", 300, "--seed", 1, "--mix", "identity",
            "--out", tmp_path / "d.csv", "--truth-out", tmp_path / "t.json",
        )
        assert code == 0
        x = read_signal_csv(tmp_path / "d.csv").values
        assert x.shape == (2, 5000) and np.isfinite(x).all()
        assert json.loads((tmp_path / "t.json").read_text())["copula"]["params"]["blocks"][0]["params"]["theta"] == 300

    def test_gumbel_needs_pair_block(self, tmp_path, capsys):
        code = run(
            "synth", "--channels", 3, "--samples", 100, "--partition", "1,2,3",
            "--copula", "gumbel", "--theta", 2, "--out", tmp_path / "d.csv",
            "--truth-out", tmp_path / "t.json",
        )
        assert code == 2
        assert "2 channels" in capsys.readouterr().err

    def test_identity_mixing_and_default_singletons(self, tmp_path):
        data = tmp_path / "d.csv"
        truth = tmp_path / "t.json"
        assert run(
            "synth", "--channels", 2, "--samples", 200, "--mix", "identity",
            "--seed", 1, "--out", data, "--truth-out", truth,
        ) == 0
        payload = json.loads(truth.read_text())
        assert payload["partition"] == [[1], [2]]
        assert payload["mixing"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_mixing_from_file(self, tmp_path):
        mixing = tmp_path / "mix.csv"
        mixing.write_text("1,1\n0,1\n")
        data = tmp_path / "d.csv"
        truth = tmp_path / "t.json"
        assert run(
            "synth", "--channels", 2, "--samples", 150, "--mix", mixing,
            "--seed", 2, "--out", data, "--truth-out", truth,
        ) == 0
        assert json.loads(truth.read_text())["mixing"] == [[1.0, 1.0], [0.0, 1.0]]

    def test_mixing_file_at_small_scale(self, tmp_path):
        # the singularity check is free of scale: 1e-5 I is as well
        # conditioned as I
        mixing = tmp_path / "small.csv"
        mixing.write_text("1e-05,0,0\n0,1e-05,0\n0,0,1e-05\n")
        truth = tmp_path / "t.json"
        assert run(
            "synth", "--channels", 3, "--samples", 150, "--mix", mixing,
            "--seed", 2, "--out", tmp_path / "d.csv", "--truth-out", truth,
        ) == 0
        assert json.loads(truth.read_text())["mixing"] == (1e-5 * np.eye(3)).tolist()

    @pytest.mark.parametrize("content, message", [
        ("1,1\n1,1.0000000001\n", "mixing matrix is singular"),  # condition number about 4e10
        ("1,2,3\n4,5,6\n", "expected a 2x2 matrix"),
    ], ids=["near-singular", "wrong-shape"])
    def test_bad_mixing_file_exits_2_without_files(self, tmp_path, capsys, content, message):
        mixing = tmp_path / "mix.csv"
        mixing.write_text(content)
        code = run(
            "synth", "--channels", 2, "--samples", 100, "--mix", mixing,
            "--out", tmp_path / "d.csv", "--truth-out", tmp_path / "t.json",
        )
        assert code == 2
        assert f"error: {mixing}: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [mixing]

    def test_unknown_margin_exits_2(self, tmp_path, capsys):
        code = run(
            "synth", "--channels", 2, "--samples", 100, "--margins", "cauchy",
            "--out", tmp_path / "d.csv", "--truth-out", tmp_path / "t.json",
        )
        assert code == 2
        assert "margin" in capsys.readouterr().err

    def test_missing_required_flag_exits_2(self, tmp_path):
        assert run("synth", "--channels", 3) == 2

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--copula", "clayton", "--theta", 2), "--copula"),
            (("--partition", "1,2|3", "--copula", "gaussian", "--rho", 0.5, "--theta", 7), "--theta"),
        ],
    )
    def test_flag_no_block_takes_exits_2(self, tmp_path, capsys, flags, named):
        code = run(
            "synth", "--channels", 3, "--samples", 200, *flags,
            "--out", tmp_path / "d.csv", "--truth-out", tmp_path / "t.json",
        )
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()


class TestSeparate:
    def test_single_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("\n".join(str(v) for v in range(300)) + "\n")
        code = run(
            "separate", path, "--sources-out", tmp_path / "s.csv",
            "--report-out", tmp_path / "r.json",
        )
        assert code == 2
        assert "2 channels" in capsys.readouterr().err

    def test_non_utf8_input_exits_2_naming_file_and_row(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_bytes(b"1,2\n3,\xff\n")
        code = run("separate", path, "--sources-out", tmp_path / "s.csv", "--report-out", tmp_path / "r.json")
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (byte 0xff at row 2)\n"

    def test_removed_tau_threshold_flag_exits_2(self, tmp_path):
        data, _ = synth_example(tmp_path, seed=3)
        assert run(
            "separate", data, "--tau-threshold", 0.2,
            "--sources-out", tmp_path / "s.csv", "--report-out", tmp_path / "r.json",
        ) == 2

    def test_short_input_with_tail_asymmetric_family_exits_2(self, tmp_path, capsys):
        data, _ = synth_example(tmp_path, extra=("--samples", 60))
        code = run(
            "separate", data, "--family", "clayton", "--partition", "1,2|3",
            "--sources-out", tmp_path / "s.csv", "--report-out", tmp_path / "r.json",
        )
        assert code == 2
        assert "need at least 100 samples to fit a copula" in capsys.readouterr().err

    def test_short_input_with_singleton_partition_exits_2_before_fitting(self, tmp_path, capsys, monkeypatch):
        data, _ = synth_example(tmp_path, extra=("--samples", 60))

        def fail(*args, **kwargs):
            raise AssertionError("fastica ran")

        monkeypatch.setattr(inference, "fastica", fail)
        code = run(
            "separate", data, "--partition", "1|2|3",
            "--sources-out", tmp_path / "s.csv", "--report-out", tmp_path / "r.json",
        )
        assert code == 2
        assert "need at least 100 samples" in capsys.readouterr().err

    def test_forced_singleton_partition(self, tmp_path):
        data, _ = synth_example(tmp_path, seed=3)
        report_path = tmp_path / "r.json"
        assert run(
            "separate", data, "--partition", "1|2|3", "--seed", 1,
            "--sources-out", tmp_path / "s.csv", "--report-out", report_path,
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["partition"] == [[1], [2], [3]]
        blocks = report["copula"]["params"]["blocks"]
        assert all(b["family"] == "product" for b in blocks)
        assert report["copula_entropy"] == 0.0
        assert report["divergence"] == report["mutual_information"]

    def test_report_schema_and_determinism(self, tmp_path):
        data, _ = synth_example(tmp_path, seed=4)
        outs = []
        for tag in ("a", "b"):
            sources = tmp_path / f"s_{tag}.csv"
            report = tmp_path / f"r_{tag}.json"
            assert run(
                "separate", data, "--seed", 9,
                "--sources-out", sources, "--report-out", report,
            ) == 0
            outs.append((sources.read_bytes(), report.read_bytes()))
        assert outs[0] == outs[1]
        payload = json.loads(outs[0][1].decode())
        assert set(payload) == {
            "demixing", "partition", "copula", "mutual_information", "copula_entropy",
            "divergence", "log_likelihood", "ica_iterations", "seed", "density_floor_hit",
        }
        assert payload["seed"] == 9
        assert payload["divergence"] == pytest.approx(
            payload["mutual_information"] + payload["copula_entropy"]
        )

    def test_non_convergence_exits_3(self, tmp_path, capsys):
        data, _ = synth_example(tmp_path, seed=5)
        code = run(
            "separate", data, "--max-iter", 2, "--seed", 0,
            "--sources-out", tmp_path / "s.csv", "--report-out", tmp_path / "r.json",
        )
        assert code == 3
        assert "convergence" in capsys.readouterr().err

    def test_recovers_dependent_block_from_example(self, tmp_path):
        # After whitening, an orthogonal rotation cannot reproduce the
        # correlated clayton pair; the energy rank correlation detects it
        # and the within-block refinement recovers its coordinates.
        data, truth_path = synth_example(tmp_path, seed=42)
        report_path = tmp_path / "r.json"
        assert run(
            "separate", data, "--seed", 0,
            "--sources-out", tmp_path / "s.csv", "--report-out", report_path,
        ) == 0
        report = json.loads(report_path.read_text())
        truth = json.loads(truth_path.read_text())
        gain = np.asarray(report["demixing"]) @ np.asarray(truth["mixing"])
        from copsep import align_permutation

        perm = align_permutation(gain)
        mapped = sorted(
            tuple(sorted(int(perm[i - 1]) + 1 for i in block)) for block in report["partition"]
        )
        assert mapped == [(1, 2), (3,)]
        pair = [b for b in report["copula"]["params"]["blocks"] if len(b["channels"]) == 2]
        assert pair and pair[0]["family"] == "clayton"
        assert 1.6 <= pair[0]["params"]["theta"] <= 2.4


class TestEvaluate:
    def test_perfect_identity_run(self, tmp_path):
        data = tmp_path / "d.csv"
        truth_path = tmp_path / "t.json"
        assert run(
            "synth", "--channels", 2, "--samples", 300, "--mix", "identity",
            "--seed", 6, "--out", data, "--truth-out", truth_path,
        ) == 0
        truth = json.loads(truth_path.read_text())
        estimate = {
            "demixing": [[1.0, 0.0], [0.0, 1.0]],
            "partition": truth["partition"],
            "copula": truth["copula"],
            "divergence": 0.0,
            "log_likelihood": -1.0,
        }
        estimate_path = tmp_path / "est.json"
        estimate_path.write_text(json.dumps(estimate))
        metrics_path = tmp_path / "m.json"
        assert run(
            "evaluate", "--estimate", estimate_path, "--truth", truth_path,
            "--data", data, "--out", metrics_path,
        ) == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["amari_index"] == 0.0
        assert metrics["partition_match"] is True
        assert metrics["divergence"] == 0.0

    def test_full_pipeline_independent_sources(self, tmp_path):
        data = tmp_path / "d.csv"
        truth_path = tmp_path / "t.json"
        assert run(
            "synth", "--channels", 3, "--samples", 5000, "--margins", "laplace",
            "--mix", "random", "--seed", 42, "--out", data, "--truth-out", truth_path,
        ) == 0
        sources = tmp_path / "s.csv"
        report = tmp_path / "r.json"
        assert run(
            "separate", data, "--seed", 0, "--sources-out", sources, "--report-out", report,
        ) == 0
        metrics_path = tmp_path / "m.json"
        assert run(
            "evaluate", "--estimate", report, "--truth", truth_path,
            "--data", sources, "--out", metrics_path,
        ) == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["amari_index"] < 0.05
        assert metrics["partition_match"] is True

    def test_channel_mismatch_exits_2(self, tmp_path, capsys):
        data2 = tmp_path / "d2.csv"
        truth2 = tmp_path / "t2.json"
        assert run(
            "synth", "--channels", 2, "--samples", 200, "--seed", 7,
            "--out", data2, "--truth-out", truth2,
        ) == 0
        data3 = tmp_path / "d3.csv"
        truth3 = tmp_path / "t3.json"
        assert run(
            "synth", "--channels", 3, "--samples", 200, "--seed", 7,
            "--out", data3, "--truth-out", truth3,
        ) == 0
        sources = tmp_path / "s.csv"
        report = tmp_path / "r.json"
        assert run(
            "separate", data3, "--seed", 1, "--sources-out", sources, "--report-out", report,
        ) == 0
        code = run(
            "evaluate", "--estimate", report, "--truth", truth2, "--data", sources,
            "--out", tmp_path / "m.json",
        )
        assert code == 2
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document, key, blocks",
        [
            ("estimate", "partition", [[1, 2], [4]]),
            ("estimate", "partition", [[0, 1], [2]]),
            ("estimate", "partition", [[1, 2], [2, 3]]),
            ("estimate", "partition", [[1], [2]]),
            ("estimate", "copula", [[1], [2], [4]]),
            ("estimate", "copula", [[0], [1], [2]]),
            ("truth", "partition", [[1, 2], [4]]),
            ("truth", "copula", [[1], [1], [3]]),
        ],
    )
    def test_bad_channel_lists_exit_2(self, tmp_path, capsys, document, key, blocks):
        # JSON channels are 1-based and each list must cover 1..n once
        data = tmp_path / "d.csv"
        truth_path = tmp_path / "t.json"
        assert run(
            "synth", "--channels", 3, "--samples", 300, "--mix", "identity",
            "--seed", 6, "--out", data, "--truth-out", truth_path,
        ) == 0
        truth = json.loads(truth_path.read_text())
        estimate = {
            "demixing": np.eye(3).tolist(),
            "partition": truth["partition"],
            "copula": json.loads(json.dumps(truth["copula"])),
            "divergence": 0.0,
            "log_likelihood": -1.0,
        }
        doc = {"estimate": estimate, "truth": truth}[document]
        if key == "partition":
            doc["partition"] = blocks
        else:
            for block, channels in zip(doc["copula"]["params"]["blocks"], blocks):
                block["channels"] = channels
        estimate_path = tmp_path / "est.json"
        estimate_path.write_text(json.dumps(estimate))
        truth_path.write_text(json.dumps(truth))
        code = run(
            "evaluate", "--estimate", estimate_path, "--truth", truth_path,
            "--data", data, "--out", tmp_path / "m.json",
        )
        assert code == 2
        assert "does not partition channels 1..3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document, patch",
        [
            ("truth", {"channels": None}),
            ("truth", []),
            ("truth", {"partition": 3}),
            ("estimate", {"partition": [1, 2]}),
            ("estimate", {"copula": {"params": {"blocks": [
                {"family": "gaussian", "params": {"correlation": [1.0, 0.5]}, "channels": [1, 2]},
            ]}}}),
        ],
        ids=["null-channels", "bare-list", "number-partition", "flat-partition", "flat-correlation"],
    )
    def test_wrong_typed_json_exits_2_without_metrics(self, tmp_path, capsys, document, patch):
        # a field of the wrong type or shape is invalid input naming its file, not a traceback
        data = tmp_path / "d.csv"
        truth_path = tmp_path / "t.json"
        assert run(
            "synth", "--channels", 2, "--samples", 300, "--mix", "identity",
            "--seed", 6, "--out", data, "--truth-out", truth_path,
        ) == 0
        valid = json.loads(truth_path.read_text())
        estimate = {
            "demixing": np.eye(2).tolist(),
            "partition": valid["partition"],
            "copula": valid["copula"],
            "divergence": 0.0,
            "log_likelihood": -1.0,
        }
        estimate_path = tmp_path / "est.json"
        paths = {"estimate": estimate_path, "truth": truth_path}
        docs = {"estimate": estimate, "truth": valid}
        docs[document] = {**docs[document], **patch} if isinstance(patch, dict) else patch
        for name, path in paths.items():
            path.write_text(json.dumps(docs[name]))
        metrics_path = tmp_path / "m.json"
        code = run(
            "evaluate", "--estimate", estimate_path, "--truth", truth_path,
            "--data", data, "--out", metrics_path,
        )
        assert code == 2
        assert f"{paths[document]}: a field has the wrong type or shape" in capsys.readouterr().err
        assert not metrics_path.exists()

    @pytest.mark.parametrize(
        "document, edit, message",
        [
            ("truth", lambda doc: doc.update(channels=3.7), "(channels: expected an integer, got 3.7)"),
            ("estimate", lambda doc: doc.update(partition=[[1.9, 2.2], [3.4]]),
             "(partition: expected an integer, got 1.9)"),
            ("estimate", lambda doc: doc["copula"]["params"]["blocks"][0]["params"].update(theta="2.5"),
             '(theta: expected finite numbers, got "2.5")'),
            ("truth", lambda doc: doc.update(channels=True), "(channels: expected an integer, got true)"),
            ("truth", lambda doc: doc.update(channels="x"), '(channels: expected an integer, got "x")'),
            ("truth", lambda doc: doc["copula"]["params"]["blocks"][0]["params"].update(theta="x"),
             '(theta: expected finite numbers, got "x")'),
            ("estimate", lambda doc: doc["copula"]["params"]["blocks"][0]["params"].update(theta=float("nan")),
             "(theta: expected finite numbers, got NaN)"),
            ("estimate", lambda doc: doc["demixing"][0].__setitem__(0, float("inf")),
             "(demixing: expected finite numbers, got [[Infinity, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])"),
            ("truth", lambda doc: doc.pop("mixing"), "missing field 'mixing'"),
            ("estimate", lambda doc: doc.update(divergence="x"), '(divergence: expected finite numbers, got "x")'),
            ("estimate", lambda doc: doc.update(log_likelihood=[1, True]),
             "(log_likelihood: expected finite numbers, got [1, true])"),
            ("estimate", lambda doc: doc.update(divergence=True), "(divergence: expected finite numbers, got true)"),
            ("estimate", lambda doc: doc.update(log_likelihood=float("nan")),
             "(log_likelihood: expected finite numbers, got NaN)"),
            ("estimate", lambda doc: doc.update(divergence=[0.5]), "(divergence: expected a finite number, got [0.5])"),
        ],
        ids=["float-channels", "float-partition", "string-theta", "bool-channels", "string-channels",
             "non-numeric-theta", "nan-theta", "infinite-demixing", "missing-mixing", "string-divergence",
             "list-log-likelihood", "bool-divergence", "nan-log-likelihood", "list-divergence"],
    )
    def test_json_field_errors_name_file_and_field(self, tmp_path, capsys, document, edit, message):
        # channel numbers are JSON integers and parameters finite JSON
        # numbers: nothing is truncated or converted from a string or a boolean
        data, truth_path = synth_example(tmp_path)
        truth = json.loads(truth_path.read_text())
        estimate = {
            "demixing": np.eye(3).tolist(),
            "partition": truth["partition"],
            "copula": json.loads(json.dumps(truth["copula"])),
            "divergence": 0.0,
            "log_likelihood": -1.0,
        }
        estimate_path = tmp_path / "est.json"
        paths = {"estimate": estimate_path, "truth": truth_path}
        docs = {"estimate": estimate, "truth": truth}
        edit(docs[document])
        for name, path in paths.items():
            path.write_text(json.dumps(docs[name]))
        metrics_path = tmp_path / "m.json"
        code = run(
            "evaluate", "--estimate", estimate_path, "--truth", truth_path,
            "--data", data, "--out", metrics_path,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {paths[document]}: " in err and message in err
        assert not metrics_path.exists()

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b'{"channels": 3'], ids=["not-utf8", "truncated"])
    @pytest.mark.parametrize("document", ["estimate", "truth"])
    def test_unparsable_json_names_its_file(self, tmp_path, capsys, document, content):
        # either file may be the broken one, so the error says which
        data, truth_path = synth_example(tmp_path)
        estimate_path = tmp_path / "est.json"
        estimate_path.write_text(json.dumps({"demixing": np.eye(3).tolist()}))
        paths = {"estimate": estimate_path, "truth": truth_path}
        paths[document].write_bytes(content)
        metrics_path = tmp_path / "m.json"
        code = run(
            "evaluate", "--estimate", estimate_path, "--truth", truth_path,
            "--data", data, "--out", metrics_path,
        )
        assert code == 2
        assert f"error: {paths[document]}: " in capsys.readouterr().err
        assert not metrics_path.exists()

    @pytest.fixture
    def scored(self, tmp_path):
        """``evaluate(data)``: the exit code of `copsep evaluate` on a
        3-channel truth, an estimate equal to it and ``--data data``, and
        the bytes of its metrics.json (None when it wrote none); ``clean``:
        a valid 3-channel data file."""
        clean, truth_path = synth_example(tmp_path)
        truth = json.loads(truth_path.read_text())
        estimate_path = tmp_path / "est.json"
        estimate_path.write_text(json.dumps({
            "demixing": np.eye(3).tolist(),
            "partition": truth["partition"],
            "copula": truth["copula"],
            "divergence": 0.0,
            "log_likelihood": -1.0,
        }))

        def evaluate(data):
            metrics = tmp_path / "m.json"
            metrics.unlink(missing_ok=True)
            code = run("evaluate", "--estimate", estimate_path, "--truth", truth_path,
                       "--data", data, "--out", metrics)
            return code, metrics.read_bytes() if metrics.exists() else None

        return evaluate, clean

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("row", [b"1,2", b"1,oops,3", b"1,nan,3"], ids=["ragged", "non-numeric", "non-finite"])
    def test_rows_after_the_first_record_are_not_read(self, tmp_path, scored, header, row):
        # only the channel count of --data is used, so a bad row after the
        # first data record, which the full reader rejects, changes nothing
        evaluate, clean = scored
        first, *rest = clean.read_bytes().splitlines(keepends=True)
        data = tmp_path / "bad.csv"
        data.write_bytes(b"c1,c2,c3\n" * header + first + row + b"\n" + b"".join(rest))
        with pytest.raises(ValueError, match=f"^{re.escape(str(data))}: "):
            read_signal_csv(data)
        code, metrics = evaluate(data)
        assert code == 0
        assert metrics == evaluate(clean)[1]

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("last", [False, True], ids=["second-row", "appended"])
    def test_byte_not_utf8_after_the_first_record_exits_2(self, tmp_path, capsys, scored, header, last):
        # the whole of --data is decoded as the reader decodes it, so a byte
        # that is not UTF-8 anywhere in it is the reader's error
        evaluate, clean = scored
        first, *rest = clean.read_bytes().splitlines(keepends=True)
        bad = [b"1,\xff,3\n"]
        rows = [first, *rest, *bad] if last else [first, *bad, *rest]
        data = tmp_path / "bad.csv"
        data.write_bytes(b"c1,c2,c3\n" * header + b"".join(rows))
        message = f"{data}: not UTF-8 text (byte 0xff at row {header + (len(rows) if last else 2)})"
        capsys.readouterr()
        assert evaluate(data) == (2, None)
        assert capsys.readouterr().err == f"error: {message}\n"
        assert outcome(read_signal_csv, data) == ("error", message)

    @pytest.mark.parametrize("content, message, reader_agrees", [
        (b"", "empty file", True),
        (b"c1,c2,c3\n", "no data rows", True),
        (b"c1,\xff,c3\n1,2,3\n", "not UTF-8 text (byte 0xff at row 1)", True),
        (b"c1,c2,c3\n1,2\xff,3\n", "not UTF-8 text (byte 0xff at row 2)", True),
        (b"1,2\n1,2,3\n", "expected 3 channels, got 2", False),
        (b"c1,c2,c3\n1,oops,3\n1,2,3\n", "row 2, column 2: non-numeric value 'oops'", True),
        (b"1,nan,3\n1,2,3\n", "row 1, column 2: non-finite value 'nan'", True),
        (b"1,2,3,4\n1,2,3,4\n", "expected 3 channels, got 4", False),
    ], ids=["empty", "header-only", "not-utf8-first-line", "not-utf8-first-record", "ragged-first-record",
            "non-numeric-first-record", "nan-first-record", "channel-mismatch"])
    def test_bad_head_exits_2_naming_the_file(self, tmp_path, capsys, scored, content, message, reader_agrees):
        # --data is decoded, and its first data record checked, as
        # read_signal_csv does it, and that record must hold one field per
        # channel
        evaluate, _ = scored
        data = tmp_path / "bad.csv"
        data.write_bytes(content)
        capsys.readouterr()
        assert evaluate(data) == (2, None)
        assert capsys.readouterr().err == f"error: {data}: {message}\n"
        if reader_agrees:
            assert outcome(read_signal_csv, data) == ("error", f"{data}: {message}")

    def test_data_is_never_parsed_in_full(self, scored):
        evaluate, clean = scored
        with mock.patch.object(cli, "read_signal_csv", side_effect=AssertionError("read_signal_csv")) as spy:
            assert evaluate(clean)[0] == 0
        spy.assert_not_called()

    @pytest.mark.parametrize("content, expected", [
        ("\ufeffc1,c2,c3\r\n1,2,3\r\n4,5,6\r\n", 3),
        ("\ufeff1.5,2\n", 2),
        ("temp\u00e9rature,b\u2028 1,2,3\u20291,2\n", 3),
        ("1,2,3,4\r", 4),
        ("c\u00e9,c2\n1,2", 2),
        ("c1,c2\r\n1,2\r\n\udcff", "not UTF-8 text (byte 0xff at row 3)"),
        ("c\u00e9\udcff,c2\n1,2\n", "not UTF-8 text (byte 0xff at row 1)"),
        ("c1\r\n", "no data rows"),
        ("1,inf\n1,2\n", "row 1, column 2: non-finite value 'inf'"),
    ])
    def test_width_over_encodings_and_line_breaks(self, tmp_path, content, expected):
        # a BOM, multi-byte characters, "\r\n", Unicode line breaks and a
        # missing final newline give the file's width or error ("\udcff"
        # writes the byte 0xff)
        data = tmp_path / "x.csv"
        data.write_bytes(content.encode("utf-8", "surrogateescape"))
        try:
            got = cli._read_width(data)
        except ValueError as err:
            got = str(err).removeprefix(f"{data}: ")
        assert got == expected

    def test_missing_file_exits_2(self, tmp_path):
        code = run(
            "evaluate", "--estimate", tmp_path / "nope.json", "--truth", tmp_path / "nope.json",
            "--data", tmp_path / "nope.csv", "--out", tmp_path / "m.json",
        )
        assert code == 2


class TestEntryPoint:
    def test_one_parser_and_no_option_carries_over(self, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
        with_header, _ = synth_example(tmp_path / "a", extra=("--header",))
        without, _ = synth_example(tmp_path / "b")
        assert with_header.read_bytes().split(b"\n", 1) == [b"c1,c2,c3", without.read_bytes()]
        sources, report = tmp_path / "sources.csv", tmp_path / "report.json"
        assert run("separate", without, "--sources-out", sources, "--report-out", report) == 0
        # synth's --seed 42 and --header stay with synth
        assert json.loads(report.read_text())["seed"] == 0
        assert not sources.read_text().startswith("c1")

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "copsep", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "synth" in proc.stdout
