"""Command-line interface: pipelines, report formats, exit codes."""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hoszp
from hoszp import CompressedStream, QuantArray, QuantParams, compress, deserialize, encode_from_quant, ops, serialize
from hoszp.cli import CSV_COLUMNS, _row, build_parser, main
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


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text[text.index("op,"):])))


@pytest.fixture
def zeros_file(tmp_path):
    """A 20x30 all-zero f32 field: every block is constant, so its
    compression ratio is far from the synthetic field's."""
    path = tmp_path / "zeros.bin"
    np.zeros(600, dtype="<f4").tofile(path)
    return path


def _quantum(stream):
    """``2 eps / N``: the smallest step of an exact mean."""
    return 2 * stream.params.eps / stream.params.element_count


def _zeros_ratio():
    raw = RawArray(np.zeros(600, dtype=np.float32), (20, 30), "f32")
    return f"{compress(raw, QuantParams(1e-3, (20, 30))).compression_ratio:.4g}"


@pytest.fixture
def huge_eps_hsz(tmp_path):
    """Values far below an eps of 1e160: every bin is 0, and ``(2 eps)^2``
    overflows a double."""
    src = tmp_path / "v.bin"
    np.array([0.1, -0.2, 0.3, 0.05], dtype="<f4").tofile(src)
    out = tmp_path / "v.hsz"
    assert main(["compress", str(src), "-o", str(out), "--dims", "4", "--eps", "1e160"]) == 0
    return out


@pytest.fixture
def infinite_moments_hsz(tmp_path):
    """Bins ``[0, 1, -2, 3, 0, 5, -7, 2]`` at eps 1e160 (f64): variance and
    covariance are inf and SSIM is nan, homomorphically and in the oracle."""
    p = QuantParams(eps=1e160, dims=(8,), block_len=32, dtype="f64")
    out = tmp_path / "inf.hsz"
    bins = np.array([0, 1, -2, 3, 0, 5, -7, 2])
    out.write_bytes(serialize(encode_from_quant(QuantArray(bins, p))))
    return out


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

    def test_oracle_mismatch_is_verify_error(self, example_hsz, monkeypatch, capsys):
        wrong = dataclasses.replace(ops.OPS["mean"], fn=lambda c: ops.mean(c) + _quantum(c))
        monkeypatch.setitem(ops.OPS, "mean", wrong)
        code, cap = _run(capsys, ["stats", "mean", str(example_hsz), "--verify"])
        assert code == 5
        assert "mean = " in cap.out
        assert "kind=VerificationMismatch" in cap.err

    @pytest.mark.parametrize("name", ["variance", "stddev"])
    def test_overflowing_eps_scale_gives_oracle_zero(self, huge_eps_hsz, capsys, name):
        code, cap = _run(capsys, ["stats", name, str(huge_eps_hsz), "--verify",
                                  "--report", "csv"])
        assert code == 0
        assert f"{name} = 0.0" in cap.out
        assert _csv_rows(cap.out)[0]["max_abs_diff"] == "0.0"

    @pytest.mark.parametrize("name, want", [("variance", "inf"), ("covariance", "inf"),
                                            ("ssim", "nan")])
    def test_non_finite_result_equal_to_its_oracle_passes(self, infinite_moments_hsz, capsys,
                                                         name, want):
        hsz = str(infinite_moments_hsz)
        with np.errstate(over="ignore", invalid="ignore"):  # the oracle's float overflow
            code, cap = _run(capsys, ["stats", name, *[hsz] * ops.OPS[name].arity, "--verify",
                                      "--report", "csv"])
        assert code == 0, cap.err
        assert f"{name} = {want}" in cap.out
        assert _csv_rows(cap.out)[0]["max_abs_diff"] == "0.0"

    @pytest.mark.parametrize("side", ["apply", "oracle"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_against_finite_is_verify_error(self, example_hsz, monkeypatch, capsys,
                                                        side, bad):
        # the operation's fn takes the stream alone, its oracle (streams, scalar)
        fake = {"apply": {"fn": lambda c: bad}, "oracle": {"oracle": lambda s, x: bad}}[side]
        spec = dataclasses.replace(ops.OPS["variance"], **fake)
        monkeypatch.setitem(ops.OPS, "variance", spec)
        code, cap = _run(capsys, ["stats", "variance", str(example_hsz), "--verify"])
        assert code == 5
        assert "kind=VerificationMismatch" in cap.err


class TestVerifyQuantumFloor:
    """--verify accepts an oracle within half a quantum of the exact integer
    result (``2 eps / N`` for mean and stddev, its square for variance and
    covariance), and nothing a quantum off."""

    ARGS = {"mean": 1, "stddev": 1, "variance": 1, "covariance": 2}

    @pytest.fixture
    def constant_field(self, tmp_path):
        """1000 x 0.3 f32 at eps 1e-3: the exact variance is 0.0, where
        ``np.var`` of the decompressed values gives about 1.2e-32."""
        src = tmp_path / "c.bin"
        np.full(1000, 0.3, dtype="<f4").tofile(src)
        out = tmp_path / "c.hsz"
        assert main(["compress", str(src), "-o", str(out), "--dims", "1000",
                     "--eps", "1e-3"]) == 0
        return src, out

    @pytest.mark.parametrize("name", list(ARGS))
    def test_exact_zero_passes(self, constant_field, capsys, name):
        _, hsz = constant_field
        code, cap = _run(capsys, ["stats", name, *[str(hsz)] * self.ARGS[name], "--verify"])
        assert code == 0, cap.err
        if name != "mean":
            assert f"{name} = 0.0" in cap.out

    def test_bench_on_a_constant_field_passes(self, constant_field, capsys):
        src, _ = constant_field
        code, cap = _run(capsys, ["bench", "--input", str(src), "--dims", "1000",
                                  "--eps", "1e-3", "--ops", "variance,mean,stddev,covariance",
                                  "--report", "csv"])
        assert code == 0, cap.err
        rows = {r["op"]: r for r in csv.DictReader(io.StringIO(cap.out))}
        assert float(rows["variance"]["max_abs_diff"]) > 0.0  # the oracle's rounding noise

    @pytest.mark.parametrize("name", list(ARGS))
    def test_one_quantum_off_fails(self, constant_field, monkeypatch, capsys, name):
        _, hsz = constant_field
        spec = ops.OPS[name]

        def off(*streams):
            q = _quantum(streams[0])
            return spec.fn(*streams) + (q * q if name in ("variance", "covariance") else q)

        monkeypatch.setitem(ops.OPS, name, dataclasses.replace(spec, fn=off))
        code, cap = _run(capsys, ["stats", name, *[str(hsz)] * self.ARGS[name], "--verify"])
        assert code == 5
        assert "kind=VerificationMismatch" in cap.err


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

    def test_dims_past_int64_is_codec_error(self, tmp_path, capsys):
        # the element count 2^64 wraps to 0 in int64, the size of the file
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        code, cap = _run(capsys, ["compress", str(empty), "-o", str(tmp_path / "x.hsz"),
                                  "--dims", "4294967296x4294967296", "--eps", "0.01"])
        assert code == 4
        assert "kind=GeometryMismatch" in cap.err

    @pytest.mark.parametrize("dims", ["1_0x2", " 2x2", "+2x2", "0x2", "2x"])
    def test_bad_dims_is_argparse_error(self, tmp_path, example_file, dims):
        with pytest.raises(SystemExit) as exc:
            main(["compress", str(example_file), "-o", str(tmp_path / "x.hsz"),
                  "--dims", dims, "--eps", "0.01"])
        assert exc.value.code == 2
        assert not (tmp_path / "x.hsz").exists()

    def test_bin_edge_past_the_slack_is_codec_error(self, tmp_path, capsys):
        src = tmp_path / "edge.bin"
        np.array([-0.5264728821], dtype="<f8").tofile(src)
        code, cap = _run(capsys, ["compress", str(src), "-o", str(tmp_path / "x.hsz"),
                                  "--dims", "1", "--dtype", "f64", "--eps", "1e-10"])
        assert code == 4
        assert "kind=QuantOverflow" in cap.err and "grid value" in cap.err

    def test_eadd_residual_overflow_is_codec_error(self, tmp_path, capsys):
        p = QuantParams(eps=0.5, dims=(2,), block_len=2, dtype="f64")
        wide = tmp_path / "wide.hsz"
        wide.write_bytes(serialize(encode_from_quant(QuantArray(
            np.array([-(2**31), 2**63 - 1]), p))))
        code, cap = _run(capsys, ["op", "eadd", str(wide), str(wide)])
        assert code == 4
        assert "kind=QuantOverflow" in cap.err

    def test_eadd_bins_past_63_bits_is_codec_error(self, tmp_path, capsys):
        # the residual of a + a fits in 64 bits, but its bins pass 63: the
        # sum fails as decompress-then-add does, and writes no stream
        p = QuantParams(eps=0.5, dims=(2,), block_len=2, dtype="f64")
        wide, out = tmp_path / "wide.hsz", tmp_path / "out.hsz"
        wide.write_bytes(serialize(encode_from_quant(QuantArray(
            np.array([0, 2**62 + 2**61]), p))))
        code, cap = _run(capsys, ["op", "eadd", str(wide), str(wide), "-o", str(out)])
        assert code == 4
        assert "kind=QuantOverflow" in cap.err and "63 bits" in cap.err
        assert not out.exists()

    def test_sadd_bins_past_63_bits_is_codec_error(self, tmp_path, capsys):
        p = QuantParams(eps=0.5, dims=(2,), block_len=2, dtype="f64")
        wide, out = tmp_path / "wide.hsz", tmp_path / "out.hsz"
        wide.write_bytes(serialize(encode_from_quant(QuantArray(np.array([0, 2**63 - 1]), p))))
        code, cap = _run(capsys, ["op", "sadd", str(wide), "--scalar", "1.0", "-o", str(out)])
        assert code == 4
        assert "kind=QuantOverflow" in cap.err
        assert not out.exists()

    @pytest.mark.parametrize("scalar", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["sadd", "ssub", "smul"])
    def test_non_finite_scalar_is_usage_error(self, tmp_path, example_hsz, capsys, name, scalar):
        # "--scalar=-inf": a bare -inf would read as a flag; every operation
        # names the scalar as given
        out = tmp_path / "out.hsz"
        code, cap = _run(capsys, ["op", name, str(example_hsz), f"--scalar={scalar}",
                                  "-o", str(out), "--verify"])
        assert code == 2
        assert f"kind=ValueError: scalar must be finite, got {scalar}\n" in cap.err
        assert not out.exists()

    def test_rel_eps_on_a_constant_field_names_the_zero_range(self, tmp_path, capsys):
        src, out = tmp_path / "const.bin", tmp_path / "x.hsz"
        np.full(4, 0.25, dtype="<f4").tofile(src)
        code, cap = _run(capsys, ["compress", str(src), "-o", str(out), "--dims", "4",
                                  "--eps", "1e-3", "--eps-mode", "rel"])
        assert code == 2
        assert "kind=ValueError" in cap.err
        assert "nonzero value range, but every value is 0.25" in cap.err
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["compress", "bench", "distsim"])
    def test_invalid_eps_is_usage_error(self, tmp_path, example_file, capsys, command, eps):
        argv = {
            "compress": ["compress", str(example_file), "-o", str(tmp_path / "x.hsz"),
                         "--dims", "2x2"],
            "bench": ["bench", "--dims", "8x8", "--ops", "neg"],
            "distsim": ["distsim", "--dims", "8x8", "--reps", "1"],
        }[command]
        code, cap = _run(capsys, argv + ["--eps", eps])
        assert code == 2
        assert "kind=ValueError" in cap.err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_is_usage_error(self, tmp_path, capsys, value):
        # a NaN or Inf has no bin: the input is rejected before compression
        src, out = tmp_path / "bad.bin", tmp_path / "x.hsz"
        np.array([0.5, value, -0.25, 1.0], dtype="<f4").tofile(src)
        code, cap = _run(capsys, ["compress", str(src), "-o", str(out), "--dims", "4",
                                  "--eps", "1e-3"])
        assert code == 2
        assert "kind=ValueError" in cap.err and "finite" in cap.err
        assert not out.exists()

    def test_block_len_past_the_header_is_usage_error(self, tmp_path, capsys):
        src, out = tmp_path / "one.bin", tmp_path / "x.hsz"
        np.zeros(1, dtype="<f4").tofile(src)
        code, cap = _run(capsys, ["compress", str(src), "-o", str(out), "--dims", "1",
                                  "--eps", "1e-3", "--block-len", str(2**32)])
        assert code == 2
        assert "kind=ValueError" in cap.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compress", "decompress", "op", "stats", "bench",
                                         "distsim"])
    def test_threads_flag_accepted(self, tmp_path, example_file, example_hsz, capsys, command):
        argv = {
            "compress": ["compress", str(example_file), "-o", str(tmp_path / "x.hsz"),
                         "--dims", "2x2", "--eps", "0.01"],
            "decompress": ["decompress", str(example_hsz), "-o", str(tmp_path / "x.bin")],
            "op": ["op", "neg", str(example_hsz)],
            "stats": ["stats", "mean", str(example_hsz)],
            "bench": ["bench", "--dims", "8x8", "--eps", "1e-2", "--ops", "neg"],
            "distsim": ["distsim", "--dims", "8x8", "--eps", "1e-2", "--reps", "1"],
        }[command]
        code, _ = _run(capsys, argv + ["--threads", "3"])
        assert code == 0


def _flags(parser):
    """A parser's actions, ``-h`` aside: its options as ``{option strings:
    (dest, default, choices, required, type)}`` and its positionals' dests
    in order."""
    options, positionals = {}, []
    for a in parser._actions:
        if isinstance(a, argparse._HelpAction):
            continue
        if not a.option_strings:
            positionals.append((a.dest, a.nargs, a.choices and sorted(a.choices)))
            continue
        options[tuple(a.option_strings)] = (a.dest, a.default, a.choices and list(a.choices),
                                            a.required, getattr(a.type, "__name__", None))
    return options, positionals


_COMMON = {("--threads",): ("threads", None, None, False, "int"),
           ("--report",): ("report", "text", ["text", "csv", "json"], False, None)}
_FIELD = {("--dims",): ("dims", None, None, True, "_parse_dims"),
          ("--dtype",): ("dtype", "f32", ["f32", "f64"], False, None),
          ("--eps",): ("eps", None, None, True, "float"),
          ("--block-len",): ("block_len", 32, None, False, "int")}
_EPS_MODE = {("--eps-mode",): ("eps_mode", "abs", ["abs", "rel"], False, None)}
_OUTPUT = {("-o", "--output"): ("output", None, None, True, None)}
_VERIFY = {("--verify",): ("verify", False, None, False, None)}
_SEED = {("--seed",): ("seed", 0, None, False, "int")}


class TestParser:
    def test_every_flag_default_and_choice_is_pinned(self):
        ap = build_parser()
        (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
        got = {name: _flags(p) for name, p in sub.choices.items()}
        streams = ("inputs", "+", None)
        assert got == {
            "compress": ({**_COMMON, **_FIELD, **_EPS_MODE, **_OUTPUT}, [("input", None, None)]),
            "decompress": ({**_COMMON, **_OUTPUT}, [("input", None, None)]),
            "op": ({**_COMMON, **_VERIFY,
                    ("-o", "--output"): ("output", None, None, False, None),
                    ("--scalar",): ("scalar", None, None, False, "float")},
                   [("op_name", None, ["eadd", "esub", "hadamard", "neg", "sadd", "smul",
                                       "ssub"]), streams]),
            "stats": ({**_COMMON, **_VERIFY},
                      [("op_name", None, ["covariance", "mean", "ssim", "stddev", "variance"]),
                       streams]),
            "bench": ({**_COMMON, **_FIELD, **_EPS_MODE, **_SEED,
                       ("--input",): ("input", None, None, False, None),
                       ("--ops",): ("ops_list", None, None, False, None),
                       ("--scalar",): ("scalar", 3.14, None, False, "float")}, []),
            "distsim": ({**_COMMON, **_FIELD, **_SEED,
                         ("--nodes",): ("nodes", 4, None, False, "int"),
                         ("--input",): ("input", None, None, False, None),
                         ("--reps",): ("reps", 3, None, False, "int"),
                         ("--latency-per-byte",): ("latency_per_byte", 0.0, None, False,
                                                   "float")}, []),
        }


class TestProcess:
    """``python -m hoszp`` as a process: the exit status README documents,
    including argparse's own exit."""

    SRC = str(Path(hoszp.__file__).resolve().parents[1])
    # the CLI with its address space capped at 1 GiB
    CAPPED = ("-c", "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                    "from hoszp.cli import main; sys.exit(main())")

    def _hoszp(self, *argv, entry=("-m", "hoszp")):
        path = os.pathsep.join(p for p in (self.SRC, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, *entry, *map(str, argv)],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"))

    def test_ok(self, tmp_path, example_file):
        proc = self._hoszp("compress", example_file, "-o", tmp_path / "x.hsz",
                           "--dims", "2x2", "--eps", "0.01")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("op=compress")

    def test_argparse_error(self, example_hsz):
        proc = self._hoszp("op", "transpose", example_hsz)
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr

    def test_value_error(self, tmp_path, example_file):
        proc = self._hoszp("compress", example_file, "-o", tmp_path / "x.hsz",
                           "--dims", "2x2", "--eps", "0")
        assert proc.returncode == 2
        assert "kind=ValueError" in proc.stderr

    def test_io_error(self, tmp_path):
        proc = self._hoszp("decompress", tmp_path / "nope.hsz", "-o", tmp_path / "x.bin")
        assert proc.returncode == 3
        assert "kind=IOError" in proc.stderr

    def test_codec_error(self, tmp_path):
        bad = tmp_path / "bad.hsz"
        bad.write_bytes(b"XXXX not a stream")
        proc = self._hoszp("stats", "mean", bad)
        assert proc.returncode == 4
        assert "kind=BadMagic" in proc.stderr

    def test_overflowing_reconstruction_is_a_codec_error(self, tmp_path):
        # both streams are valid, but 2 eps bin passes the dtype's maximum
        raw = tmp_path / "big.bin"
        np.array([3e38, 1e38, 0, -3e38], dtype="<f4").tofile(raw)
        proc = self._hoszp("compress", raw, "-o", tmp_path / "big.hsz", "--dims", "4",
                           "--eps", "1e38")
        assert proc.returncode == 0, proc.stderr
        huge_eps = tmp_path / "huge_eps.hsz"
        huge_eps.write_bytes(serialize(encode_from_quant(
            QuantArray(np.arange(4), QuantParams(1e308, (4,), 32, "f64")))))
        for stream in (tmp_path / "big.hsz", huge_eps):
            proc = self._hoszp("decompress", stream, "-o", tmp_path / "out.bin")
            assert proc.returncode == 4, proc.stderr
            assert "kind=QuantOverflow" in proc.stderr
            assert "RuntimeWarning" not in proc.stderr

    def test_overflowing_grid_step_is_refused_at_compress(self, tmp_path, zeros_file):
        # 2 * 9e307 is inf: no stream is written, and no numpy warning leaks
        out = tmp_path / "z.hsz"
        proc = self._hoszp("compress", zeros_file, "-o", out, "--dims", "20x30",
                           "--eps", "9e307")
        assert proc.returncode == 4, proc.stderr
        assert "kind=QuantOverflow" in proc.stderr and "2 * eps" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not out.exists()
        # a grid step that is still finite round-trips the zeros
        back = tmp_path / "z.bin"
        for argv in (("compress", zeros_file, "-o", out, "--dims", "20x30", "--eps", "8e307"),
                     ("decompress", out, "-o", back)):
            proc = self._hoszp(*argv)
            assert proc.returncode == 0, proc.stderr
        assert np.fromfile(back, dtype="<f4").tolist() == [0.0] * 600

    def test_stream_too_large_to_decode_is_a_codec_error(self, tmp_path):
        # 33 bytes: one constant block of 2^32 - 1 elements, whose 16 GiB
        # f32 output does not fit under the cap
        huge, out = tmp_path / "huge.hsz", tmp_path / "huge.out"
        p = QuantParams(0.5, (2**32 - 1,), 2**32 - 1, "f32")
        huge.write_bytes(serialize(CompressedStream(p, np.zeros(1), [7], b"", b"")))
        assert huge.stat().st_size == 33
        proc = self._hoszp("decompress", huge, "-o", out, entry=self.CAPPED)
        assert proc.returncode == 4, proc.stderr
        assert "kind=MemoryError" in proc.stderr and "GiB" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_variance_at_overflowing_eps(self, huge_eps_hsz):
        proc = self._hoszp("stats", "variance", huge_eps_hsz, "--verify")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("variance = 0.0")


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

    def test_row_throughput(self):
        assert _row("compress", 2.0, 100, 10.0)["throughput_Bps"] == "50"
        row = _row("neg", 0.0, 1, 1.0, t_oracle=1.0)
        assert (row["throughput_Bps"], row["speedup"]) == ("0", "inf")


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

    def test_input_file_is_read(self, tmp_path, zeros_file, capsys):
        # --input takes one file; the last one given wins
        code, cap = _run(capsys, ["bench", "--dims", "20x30", "--eps", "1e-3",
                                  "--input", str(tmp_path / "nope.bin"),
                                  "--input", str(zeros_file), "--ops", "neg",
                                  "--report", "csv"])
        assert code == 0
        compress_row = _csv_rows(cap.out)[0]
        assert (compress_row["bytes_in"], compress_row["cr"]) == ("2400", _zeros_ratio())

    def test_rows_carry_eps(self, capsys):
        code, cap = _run(capsys, ["bench", "--dims", "8x8", "--eps", "0.05",
                                  "--ops", "neg,mean", "--report", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(cap.out)))
        assert [r["op"] for r in rows] == ["compress", "neg", "mean"]
        assert all(r["eps"] == "0.05" for r in rows)

    @pytest.mark.parametrize("name, wrong", [
        ("neg", lambda c: ops.scalar_add(c, 1.0)),
        ("mean", lambda c: ops.mean(c) + _quantum(c)),
    ])
    def test_oracle_mismatch_is_verify_error(self, monkeypatch, capsys, name, wrong):
        monkeypatch.setitem(ops.OPS, name, dataclasses.replace(ops.OPS[name], fn=wrong))
        code, cap = _run(capsys, ["bench", "--dims", "8x8", "--eps", "1e-2",
                                  "--ops", f"sadd,{name}", "--report", "csv"])
        assert code == 5
        assert "kind=VerificationMismatch" in cap.err and name in cap.err
        rows = {r["op"]: r for r in csv.DictReader(io.StringIO(cap.out))}
        assert float(rows["sadd"]["max_abs_diff"]) == 0.0
        assert float(rows[name]["max_abs_diff"]) > 0.0


    @pytest.mark.parametrize("failing, exit_code", [(None, 2), ("neg", 4)])
    def test_failing_operation_keeps_the_other_rows(self, tmp_path, monkeypatch, capsys,
                                                     failing, exit_code):
        # on an all-zero field ssim is undefined (a ValueError, exit 2); the
        # first failing operation's error decides the exit code
        path = tmp_path / "zeros.bin"
        np.zeros(64, dtype="<f4").tofile(path)
        if failing:
            def fail(c):
                raise hoszp.QuantOverflow("injected")
            monkeypatch.setitem(ops.OPS, failing, dataclasses.replace(ops.OPS[failing], fn=fail))
        code, cap = _run(capsys, ["bench", "--input", str(path), "--dims", "64",
                                  "--eps", "0.01", "--report", "csv"])
        assert code == exit_code
        assert ("injected" if failing else "SSIM is undefined") in cap.err
        ran = [name for name in ops.OPS if name not in ("ssim", failing)]
        assert [r["op"] for r in _csv_rows(cap.out)] == ["compress", *ran]


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

    def test_input_file_is_read(self, zeros_file, capsys):
        code, cap = _run(capsys, ["distsim", "--nodes", "3", "--dims", "20x30",
                                  "--eps", "1e-3", "--reps", "1",
                                  "--input", str(zeros_file), "--report", "csv"])
        assert code == 0
        row = _csv_rows(cap.out)[0]
        assert (row["bytes_in"], row["cr"], row["max_abs_diff"]) == ("7200", _zeros_ratio(),
                                                                      "0.0")

    @pytest.mark.parametrize("latency", ["-1", "nan", "inf"])
    def test_invalid_latency_is_usage_error(self, capsys, latency):
        code, cap = _run(capsys, ["distsim", "--nodes", "2", "--dims", "16x16", "--eps", "1e-3",
                                  f"--latency-per-byte={latency}"])
        assert code == 2
        assert "latency_per_byte must be finite and >= 0" in cap.err
        assert cap.out == ""

    def test_too_few_nodes(self, capsys):
        code, _ = _run(capsys, ["distsim", "--nodes", "1", "--dims", "8x8",
                                "--eps", "1e-2"])
        assert code == 2
