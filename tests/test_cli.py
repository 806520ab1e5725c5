import json
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
    """Reading and writing work on chunks of rows; the bytes, the values and
    the first error in file order are those of a per-cell reader and writer."""

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
        ],
        ids=["float-channels", "float-partition", "string-theta", "bool-channels", "string-channels",
             "non-numeric-theta", "nan-theta", "infinite-demixing", "missing-mixing"],
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

    def test_missing_file_exits_2(self, tmp_path):
        code = run(
            "evaluate", "--estimate", tmp_path / "nope.json", "--truth", tmp_path / "nope.json",
            "--data", tmp_path / "nope.csv", "--out", tmp_path / "m.json",
        )
        assert code == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "copsep", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "synth" in proc.stdout
