"""Command-line front end.

Subcommands: compress, decompress, op, stats, bench, distsim.  Raw inputs
are headerless flat little-endian IEEE-754 files with the geometry given
via ``--dims AxBxC``.  Reports are emitted as text, CSV, or JSON; the CSV
column set is fixed for scripting:

    op,bytes_in,cr,t_homo_s,t_oracle_s,speedup,max_abs_diff

(bench rows append ``eps``, distsim rows ``node_count`` and ``eps``; text
and JSON reports additionally carry the derived throughput).  The ``op``,
``stats`` and ``bench`` subcommands take their operations from ``ops.OPS``.
Exit codes: 0 ok, 2 usage, 3 I/O, 4 codec error, 5 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import codec, ops
from .distsim import SimScenario, simulate
from .errors import HoszpError, VerificationMismatch
from .model import OpReport, QuantParams, deserialize, serialize
from .synth import smooth_field

CSV_COLUMNS = ["op", "bytes_in", "cr", "t_homo_s", "t_oracle_s", "speedup", "max_abs_diff"]
#: bench and distsim append these to the fixed schema
CSV_EXTRA_COLUMNS = ["node_count", "eps"]

COMMANDS = ("compress", "decompress", "op", "stats", "bench", "distsim")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CODEC = 4
EXIT_VERIFY = 5

#: relative tolerance for --verify on computation-as-output reductions
REDUCTION_RTOL = 1e-9


@dataclass
class CliConfig:
    """Parsed invocation: one flat record shared by every subcommand."""

    command: str
    inputs: list = field(default_factory=list)
    output: str | None = None
    dims: tuple[int, ...] | None = None
    dtype: str = "f32"
    eps: float | None = None
    eps_mode: str = "abs"
    block_len: int = 32
    op_name: str | None = None
    scalar: float | None = None
    verify: bool = False
    report: str = "text"
    # bench / distsim knobs
    ops_list: list | None = None
    seed: int = 0
    nodes: int = 4
    reps: int = 3
    latency_per_byte: float = 0.0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.eps is not None and not self.eps > 0:
            raise ValueError("eps must be positive")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "CliConfig":
        known = {f for f in cls.__dataclass_fields__}
        fields = {k: v for k, v in vars(args).items() if k in known and v is not None}
        return cls(**fields)


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}, expected e.g. 500x500x100")
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"dims must be positive, got {text!r}")
    return dims


def _add_common(p):
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility and ignored; everything runs serially")
    p.add_argument("--report", choices=["text", "csv", "json"], default="text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hoszp", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a raw binary field")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.add_argument("--dtype", choices=["f32", "f64"], default="f32")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--eps-mode", choices=["abs", "rel"], default="abs")
    p.add_argument("--block-len", type=int, default=32)
    _add_common(p)

    p = sub.add_parser("decompress", help="decompress a .hsz stream to raw binary")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    _add_common(p)

    p = sub.add_parser("op", help="apply a homomorphic operation to stream file(s)")
    p.add_argument("op_name", metavar="name",
                   choices=sorted(n for n, spec in ops.OPS.items() if not spec.reduction))
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output")
    p.add_argument("--scalar", type=float)
    p.add_argument("--verify", action="store_true",
                   help="also run the traditional workflow and compare")
    _add_common(p)

    p = sub.add_parser("stats", help="compute a statistic on stream file(s)")
    p.add_argument("op_name", metavar="name",
                   choices=sorted(n for n, spec in ops.OPS.items() if spec.reduction))
    p.add_argument("inputs", nargs="+")
    p.add_argument("--verify", action="store_true")
    _add_common(p)

    p = sub.add_parser("bench", help="time every operation against the traditional workflow")
    p.add_argument("--input", help="raw binary field (default: synthetic smooth field)")
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.add_argument("--dtype", choices=["f32", "f64"], default="f32")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--eps-mode", choices=["abs", "rel"], default="abs")
    p.add_argument("--block-len", type=int, default=32)
    p.add_argument("--ops", dest="ops_list", default=None,
                   help="comma-separated op names (default: all)")
    p.add_argument("--scalar", type=float, default=3.14)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("distsim", help="simulate distributed sum aggregation")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.add_argument("--dtype", choices=["f32", "f64"], default="f32")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--block-len", type=int, default=32)
    p.add_argument("--input", help="raw field used by every node (default: synthetic)")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--latency-per-byte", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    return ap


def _emit(rows: list[dict], fmt: str, file=None):
    file = file or sys.stdout
    if fmt == "json":
        print(json.dumps(rows, indent=2), file=file)
        return
    if fmt == "csv":
        columns = [c for c in CSV_COLUMNS + CSV_EXTRA_COLUMNS
                   if c in CSV_COLUMNS or any(c in r for r in rows)]
        print(",".join(columns), file=file)
        for row in rows:
            print(",".join(str(row.get(c, "")) for c in columns), file=file)
        return
    for row in rows:
        print("  ".join(f"{c}={v}" for c, v in row.items()), file=file)


def _row(report: OpReport, t_oracle=None, max_abs_diff=None, **extra) -> dict:
    t_homo = report.elapsed_seconds
    row = {
        "op": report.op_name,
        "bytes_in": report.bytes_in,
        "cr": f"{report.compression_ratio:.4g}",
        "t_homo_s": f"{t_homo:.6g}",
        "t_oracle_s": "" if t_oracle is None else f"{t_oracle:.6g}",
        "speedup": "" if t_oracle is None else
                   f"{t_oracle / t_homo:.4g}" if t_homo > 0 else "inf",
        "max_abs_diff": "" if max_abs_diff is None else repr(max_abs_diff),
        "throughput_Bps": f"{report.throughput:.6g}",
    }
    row.update(extra)
    return row


def _load_streams(paths):
    streams = []
    for path in paths:
        with open(path, "rb") as fh:
            streams.append(deserialize(fh.read()))
    return streams


def _cmd_compress(cfg: CliConfig) -> int:
    raw = codec.read_raw(cfg.inputs[0], cfg.dims, cfg.dtype)
    eps = codec.resolve_eps(raw, cfg.eps, cfg.eps_mode)
    params = QuantParams(eps, cfg.dims, cfg.block_len, cfg.dtype)
    t0 = time.perf_counter()
    stream = codec.compress(raw, params)
    elapsed = time.perf_counter() - t0
    data = serialize(stream)
    with open(cfg.output, "wb") as fh:
        fh.write(data)
    report = OpReport("compress", elapsed, raw.nbytes, len(data),
                      raw.nbytes / len(data))
    _emit([_row(report)], cfg.report)
    return EXIT_OK


def _cmd_decompress(cfg: CliConfig) -> int:
    with open(cfg.inputs[0], "rb") as fh:
        stream = deserialize(fh.read())
    t0 = time.perf_counter()
    raw = codec.decompress(stream)
    elapsed = time.perf_counter() - t0
    codec.write_raw(raw, cfg.output)
    report = OpReport("decompress", elapsed, stream.serialized_size, raw.nbytes,
                      stream.compression_ratio)
    _emit([_row(report)], cfg.report)
    return EXIT_OK


def _run_op(name, streams, scalar, verify):
    """Time operation ``name``; with ``verify`` also time its oracle and
    compare (stream results bit for bit, reductions to REDUCTION_RTOL).
    Returns (result, report row, whether it matched)."""
    spec = ops.OPS[name]
    t0 = time.perf_counter()
    result = ops.apply(name, streams, scalar)
    t_homo = time.perf_counter() - t0
    t_oracle = diff = None
    ok = True
    if verify:
        t0 = time.perf_counter()
        want = spec.oracle(streams, scalar)
        t_oracle = time.perf_counter() - t0
        if spec.reduction:
            diff = abs(result - want)
            ok = diff <= REDUCTION_RTOL * max(abs(want), abs(result), 1e-300)
        else:
            got = codec.decompress(result, out_dtype=np.float64).values
            want = codec.decompress(want, out_dtype=np.float64).values
            diff = float(np.max(np.abs(got - want))) if got.size else 0.0
            ok = diff == 0.0
    if spec.reduction:
        bytes_out, cr = 8, streams[0].compression_ratio
    else:
        bytes_out, cr = result.serialized_size, result.compression_ratio
    report = OpReport(name, t_homo, sum(s.params.raw_nbytes for s in streams),
                      bytes_out, cr)
    return result, _row(report, t_oracle, diff), ok


def _cmd_op(cfg: CliConfig) -> int:
    streams = _load_streams(cfg.inputs)
    result, row, ok = _run_op(cfg.op_name, streams, cfg.scalar, cfg.verify)
    if cfg.output:
        with open(cfg.output, "wb") as fh:
            fh.write(serialize(result))
    _emit([row], cfg.report)
    if not ok:
        raise VerificationMismatch(f"{cfg.op_name}: max abs diff {row['max_abs_diff']}")
    return EXIT_OK


def _cmd_stats(cfg: CliConfig) -> int:
    streams = _load_streams(cfg.inputs)
    value, row, ok = _run_op(cfg.op_name, streams, None, cfg.verify)
    print(f"{cfg.op_name} = {value!r}")
    _emit([row], cfg.report)
    if not ok:
        raise VerificationMismatch(f"{cfg.op_name}: abs diff {row['max_abs_diff']}")
    return EXIT_OK


def _cmd_bench(cfg: CliConfig) -> int:
    """Compress one field, then time each operation against the traditional
    workflow; a disagreement exits with EXIT_VERIFY after the report."""
    if cfg.inputs:
        raw = codec.read_raw(cfg.inputs[0], cfg.dims, cfg.dtype)
    else:
        raw = smooth_field(cfg.dims, cfg.seed, cfg.dtype)
    params = QuantParams(codec.resolve_eps(raw, cfg.eps, cfg.eps_mode), cfg.dims,
                         cfg.block_len, cfg.dtype)
    names = cfg.ops_list.split(",") if cfg.ops_list else list(ops.OPS)
    unknown = set(names) - set(ops.OPS)
    if unknown:
        print(f"hoszp: unknown ops {sorted(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.perf_counter()
    stream = codec.compress(raw, params)
    t_compress = time.perf_counter() - t0
    rows = [_row(OpReport("compress", t_compress, raw.nbytes, stream.serialized_size,
                          raw.nbytes / stream.serialized_size))]
    operands = [stream, ops.scalar_add(stream, 16.0 * params.eps)]
    bad = []
    for name in names:
        _, row, ok = _run_op(name, operands[: ops.OPS[name].arity], cfg.scalar, verify=True)
        rows.append(row)
        if not ok:
            bad.append(name)
    for row in rows:
        row["eps"] = cfg.eps
    _emit(rows, cfg.report)
    if bad:
        raise VerificationMismatch(f"differs from the traditional workflow: {', '.join(bad)}")
    return EXIT_OK


def _cmd_distsim(cfg: CliConfig) -> int:
    if cfg.nodes < 2:
        print("hoszp: --nodes must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    if cfg.inputs:
        chunk = codec.read_raw(cfg.inputs[0], cfg.dims, cfg.dtype)
        arrays = [chunk] * cfg.nodes
    else:
        arrays = [smooth_field(cfg.dims, cfg.seed + i, cfg.dtype)
                  for i in range(cfg.nodes)]
    scn = SimScenario(arrays, cfg.eps, cfg.block_len, cfg.reps, cfg.latency_per_byte)
    sim = simulate(scn)
    report = OpReport("distsim_sum", sim.t_homomorphic, sim.bytes_in,
                      sim.bytes_compressed, sim.compression_ratio)
    _emit([_row(report, sim.t_traditional, sim.max_abs_diff,
                node_count=sim.node_count, eps=sim.eps)], cfg.report)
    return EXIT_OK


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "op": _cmd_op,
    "stats": _cmd_stats,
    "bench": _cmd_bench,
    "distsim": _cmd_distsim,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "input", None) is not None:
        args.inputs = [args.input]
    try:
        cfg = CliConfig.from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except VerificationMismatch as exc:
        print(f"hoszp: error kind=VerificationMismatch: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except HoszpError as exc:
        print(f"hoszp: error kind={type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CODEC
    except OSError as exc:
        print(f"hoszp: error kind=IOError: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"hoszp: error kind=ValueError: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
