"""Command-line interface: pipelines, report formats, exit codes."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from hoszp import QuantArray, QuantParams, compress, deserialize, encode_from_quant, ops, serialize
from hoszp.cli import CSV_COLUMNS, main
from hoszp.codec import RawArray
from hoszp.synth import smooth_field

EXAMPLE_VALUES = [-0.025, -0.025, -0.051, -0.052]


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example4.bin"
    np.array(EXAMPLE_VALUES, dtype="<f4").tofile(path)
    return path


@pytest.fixture
def example_hsz(tmp_path, example_file):
    out = tmp_path / "example4.hsz"
    assert main(["compress", str(example_file), "-o", str(out),
                 "--dims", "2x2", "--eps", "0.01"]) == 0
    return out


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


class TestCompressDecompress:
    def test_round_trip_within_bound(self, tmp_path, capsys):
        field = smooth_field((20, 30), seed=1)
        src = tmp_path / "f.bin"
        field.values.astype("<f4").tofile(src)
        hsz = tmp_path / "f.hsz"
        out = tmp_path / "back.bin"
        code, _ = _run(capsys, ["compress", str(src), "-o", str(hsz),
                                "--dims", "20x30", "--eps", "1e-3"])
        assert code == 0
        code, _ = _run(capsys, ["decompress", str(hsz), "-o", str(out)])
        assert code == 0
        back = np.fromfile(out, dtype="<f4")
        assert back.size == 600
        assert float(np.abs(back - field.values).max()) <= 1e-3 + 1e-9

    def test_compress_report_has_ratio(self, tmp_path, example_file, capsys):
        out = tmp_path / "x.hsz"
        code, cap = _run(capsys, ["compress", str(example_file), "-o", str(out),
                                  "--dims", "2x2", "--eps", "0.01",
                                  "--report", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(cap.out)))
        assert rows[0]["op"] == "compress"
        assert float(rows[0]["cr"]) > 0

    def test_rel_eps_mode(self, tmp_path, capsys):
        field = smooth_field((16, 16), seed=2)
        src = tmp_path / "g.bin"
        field.values.astype("<f4").tofile(src)
        hsz = tmp_path / "g.hsz"
        code, _ = _run(capsys, ["compress", str(src), "-o", str(hsz),
                                "--dims", "16x16", "--eps", "1e-3",
                                "--eps-mode", "rel"])
        assert code == 0
        stream = deserialize(hsz.read_bytes())
        lo = float(field.values.min())
        hi = float(field.values.max())
        assert stream.params.eps == pytest.approx(1e-3 * (hi - lo), rel=1e-12)


class TestStats:
    def test_example_mean(self, example_hsz, capsys):
        code, cap = _run(capsys, ["stats", "mean", str(example_hsz)])
        assert code == 0
        assert "mean = -0.04" in cap.out

    def test_verify_ok(self, example_hsz, capsys):
        code, cap = _run(capsys, ["stats", "variance", str(example_hsz),
                                  "--verify", "--report", "csv"])
        assert code == 0
        csv_part = cap.out[cap.out.index("op,"):]  # value line precedes the report
        rows = list(csv.DictReader(io.StringIO(csv_part)))
        assert rows[0]["op"] == "variance"
        assert float(rows[0]["max_abs_diff"]) <= 1e-15


class TestOp:
    def test_neg_verify_reports_zero_diff(self, tmp_path, example_hsz, capsys):
        out = tmp_path / "neg.hsz"
        code, cap = _run(capsys, ["op", "neg", str(example_hsz), "-o", str(out),
                                  "--verify", "--report", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(cap.out)))
        assert rows[0]["op"] == "neg"
        assert rows[0]["max_abs_diff"] == "0.0"
        assert float(rows[0]["speedup"]) > 0
        assert out.exists()

    def test_scalar_op_writes_stream(self, tmp_path, example_hsz, capsys):
        out = tmp_path / "shifted.hsz"
        code, _ = _run(capsys, ["op", "sadd", str(example_hsz), "--scalar", "0.67",
                                "-o", str(out)])
        assert code == 0
        assert list(deserialize(out.read_bytes()).outliers) == [32]

    def test_missing_scalar_is_usage_error(self, example_hsz, capsys):
        code, _ = _run(capsys, ["op", "sadd", str(example_hsz)])
        assert code == 2

    def test_wrong_arity_is_usage_error(self, example_hsz, capsys):
        code, _ = _run(capsys, ["op", "eadd", str(example_hsz)])
        assert code == 2

    def test_unknown_op_rejected_by_parser(self, example_hsz):
        with pytest.raises(SystemExit) as exc:
            main(["op", "transpose", str(example_hsz)])
        assert exc.value.code == 2


class TestExitCodes:
    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code, cap = _run(capsys, ["compress", str(tmp_path / "nope.bin"),
                                  "-o", str(tmp_path / "x.hsz"),
                                  "--dims", "2x2", "--eps", "0.01"])
        assert code == 3
        assert "kind=IOError" in cap.err

    def test_params_mismatch_is_codec_error(self, tmp_path, example_hsz, capsys):
        other_raw = smooth_field((4, 4), seed=9)
        src = tmp_path / "other.bin"
        other_raw.values.astype("<f4").tofile(src)
        other = tmp_path / "other.hsz"
        _run(capsys, ["compress", str(src), "-o", str(other),
                      "--dims", "4x4", "--eps", "0.5"])
        code, cap = _run(capsys, ["op", "eadd", str(example_hsz), str(other)])
        assert code == 4
        assert "kind=ParamsMismatch" in cap.err

    def test_corrupt_stream_is_codec_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.hsz"
        bad.write_bytes(b"XXXX not a stream")
        code, cap = _run(capsys, ["stats", "mean", str(bad)])
        assert code == 4
        assert "kind=BadMagic" in cap.err

    def test_dims_size_mismatch_is_codec_error(self, tmp_path, example_file, capsys):
        code, cap = _run(capsys, ["compress", str(example_file),
                                  "-o", str(tmp_path / "x.hsz"),
                                  "--dims", "3x3", "--eps", "0.01"])
        assert code == 4
        assert "kind=GeometryMismatch" in cap.err

    def test_eadd_residual_overflow_is_codec_error(self, tmp_path, capsys):
        p = QuantParams(eps=0.5, dims=(2,), block_len=2, dtype="f64")
        wide = tmp_path / "wide.hsz"
        wide.write_bytes(serialize(encode_from_quant(QuantArray(
            np.array([-(2**31), 2**63 - 1]), p))))
        code, cap = _run(capsys, ["op", "eadd", str(wide), str(wide)])
        assert code == 4
        assert "kind=QuantOverflow" in cap.err


class TestReports:
    def test_csv_columns_fixed(self, example_hsz, capsys):
        code, cap = _run(capsys, ["op", "neg", str(example_hsz), "--verify",
                                  "--report", "csv"])
        assert code == 0
        header = cap.out.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_json_report_parses(self, example_hsz, capsys):
        code, cap = _run(capsys, ["op", "neg", str(example_hsz), "--verify",
                                  "--report", "json"])
        assert code == 0
        rows = json.loads(cap.out)
        assert rows[0]["op"] == "neg"
        assert rows[0]["max_abs_diff"] == "0.0"


class TestBench:
    def test_synthetic_bench_all_zero_diff(self, capsys):
        code, cap = _run(capsys, ["bench", "--dims", "24x40", "--eps", "1e-2",
                                  "--ops", "neg,sadd,eadd,hadamard,mean",
                                  "--report", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(cap.out)))
        by_op = {r["op"]: r for r in rows}
        for op in ("neg", "sadd", "eadd", "hadamard"):
            assert float(by_op[op]["max_abs_diff"]) == 0.0
        assert float(by_op["mean"]["max_abs_diff"]) <= 1e-12

    def test_unknown_op_is_usage_error(self, capsys):
        code, _ = _run(capsys, ["bench", "--dims", "8x8", "--eps", "1e-2",
                                "--ops", "fft"])
        assert code == 2

    def test_rows_carry_eps(self, capsys):
        code, cap = _run(capsys, ["bench", "--dims", "8x8", "--eps", "0.05",
                                  "--ops", "neg,mean", "--report", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(cap.out)))
        assert [r["op"] for r in rows] == ["compress", "neg", "mean"]
        assert all(r["eps"] == "0.05" for r in rows)

    @pytest.mark.parametrize("name, wrong", [
        ("neg", lambda s, x: ops.scalar_add(s[0], 1.0)),
        ("mean", lambda s, x: ops.mean(s[0]) * (1 + 1e-6) + 1e-6),
    ])
    def test_oracle_mismatch_is_verify_error(self, monkeypatch, capsys, name, wrong):
        monkeypatch.setitem(ops.OPS, name, dataclasses.replace(ops.OPS[name], apply=wrong))
        code, cap = _run(capsys, ["bench", "--dims", "8x8", "--eps", "1e-2",
                                  "--ops", f"sadd,{name}", "--report", "csv"])
        assert code == 5
        assert "kind=VerificationMismatch" in cap.err and name in cap.err
        rows = {r["op"]: r for r in csv.DictReader(io.StringIO(cap.out))}
        assert float(rows["sadd"]["max_abs_diff"]) == 0.0
        assert float(rows[name]["max_abs_diff"]) > 0.0


class TestDistsimCommand:
    def test_report_row(self, capsys):
        code, cap = _run(capsys, ["distsim", "--nodes", "3", "--dims", "32x32",
                                  "--eps", "1e-2", "--reps", "1",
                                  "--report", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(cap.out)))
        assert rows[0]["op"] == "distsim_sum"
        assert rows[0]["node_count"] == "3"
        assert float(rows[0]["max_abs_diff"]) == 0.0

    def test_too_few_nodes(self, capsys):
        code, _ = _run(capsys, ["distsim", "--nodes", "1", "--dims", "8x8",
                                "--eps", "1e-2"])
        assert code == 2
