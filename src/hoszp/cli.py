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
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import codec, ops
from .distsim import SimScenario, simulate
from .errors import HoszpError, VerificationMismatch
from .model import DTYPES, QuantParams, _as_dims, deserialize, serialize
from .synth import smooth_field

CSV_COLUMNS = ["op", "bytes_in", "cr", "t_homo_s", "t_oracle_s", "speedup", "max_abs_diff"]
#: bench and distsim append these to the fixed schema
CSV_EXTRA_COLUMNS = ["node_count", "eps"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CODEC = 4
EXIT_VERIFY = 5

#: relative tolerance for --verify on computation-as-output reductions
REDUCTION_RTOL = 1e-9


def _half_quantum(name: str, params: QuantParams) -> float:
    """Half the smallest nonzero magnitude that reduction ``name``'s exact
    integer formula can return: ``2 eps / N`` for mean and stddev, its
    square for variance and covariance, 0.0 for ssim.  An oracle that
    differs by less, such as ``np.var``'s rounding noise around an exact
    0.0, agrees with it."""
    q = 2.0 * params.eps / params.element_count
    if name in ("variance", "covariance"):
        return q * q / 2
    return q / 2 if name in ("mean", "stddev") else 0.0


def _parse_dims(text: str) -> tuple[int, ...]:
    """``AxBxC`` in ASCII decimal digits, checked by ``model._as_dims``."""
    parts = text.lower().split("x")
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise argparse.ArgumentTypeError(f"bad dims {text!r}, expected e.g. 500x500x100")
    try:
        return _as_dims(int(part) for part in parts)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def build_parser() -> argparse.ArgumentParser:
    # flag groups shared by several subcommands: every one takes `common`,
    # and the ones that compress a field take `field`
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility and ignored; everything runs serially")
    common.add_argument("--report", choices=["text", "csv", "json"], default="text")
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--dims", type=_parse_dims, required=True)
    field.add_argument("--dtype", choices=list(DTYPES), default="f32")
    field.add_argument("--eps", type=float, required=True)
    field.add_argument("--block-len", type=int, default=32)

    ap = argparse.ArgumentParser(prog="hoszp", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", parents=[field, common], help="compress a raw binary field")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--eps-mode", choices=["abs", "rel"], default="abs")

    p = sub.add_parser("decompress", parents=[common],
                       help="decompress a .hsz stream to raw binary")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("op", parents=[common],
                       help="apply a homomorphic operation to stream file(s)")
    p.add_argument("op_name", metavar="name",
                   choices=sorted(n for n, spec in ops.OPS.items() if not spec.reduction))
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output")
    p.add_argument("--scalar", type=float)
    p.add_argument("--verify", action="store_true",
                   help="also run the traditional workflow and compare")

    p = sub.add_parser("stats", parents=[common], help="compute a statistic on stream file(s)")
    p.add_argument("op_name", metavar="name",
                   choices=sorted(n for n, spec in ops.OPS.items() if spec.reduction))
    p.add_argument("inputs", nargs="+")
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("bench", parents=[field, common],
                       help="time every operation against the traditional workflow")
    p.add_argument("--input", help="raw binary field (default: synthetic smooth field)")
    p.add_argument("--eps-mode", choices=["abs", "rel"], default="abs")
    p.add_argument("--ops", dest="ops_list", default=None,
                   help="comma-separated op names (default: all)")
    p.add_argument("--scalar", type=float, default=3.14)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("distsim", parents=[field, common],
                       help="simulate distributed sum aggregation")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--input", help="raw field used by every node (default: synthetic)")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--latency-per-byte", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
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


def _row(op, seconds, bytes_in, ratio, t_oracle=None, max_abs_diff=None, **extra) -> dict:
    """One report row; ``throughput_Bps`` is ``bytes_in / seconds`` (0.0 when
    no time elapsed)."""
    row = {
        "op": op,
        "bytes_in": bytes_in,
        "cr": f"{ratio:.4g}",
        "t_homo_s": f"{seconds:.6g}",
        "t_oracle_s": "" if t_oracle is None else f"{t_oracle:.6g}",
        "speedup": "" if t_oracle is None else
                   f"{t_oracle / seconds:.4g}" if seconds > 0 else "inf",
        "max_abs_diff": "" if max_abs_diff is None else repr(max_abs_diff),
        "throughput_Bps": f"{bytes_in / seconds if seconds > 0 else 0.0:.6g}",
    }
    row.update(extra)
    return row


def _timed(fn, *args):
    """``(fn(*args), seconds it took)``."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _load_streams(paths):
    return [deserialize(Path(path).read_bytes()) for path in paths]


def _fields(args: argparse.Namespace, count: int = 1):
    """``count`` input fields: the ``--input`` file, read once and shared,
    or synthetic smooth fields of seeds ``--seed``, ``--seed + 1``, ..."""
    if args.input is not None:
        return [codec.read_raw(args.input, args.dims, args.dtype)] * count
    return [smooth_field(args.dims, args.seed + i, args.dtype) for i in range(count)]


def _cmd_compress(args: argparse.Namespace) -> int:
    raw = codec.read_raw(args.input, args.dims, args.dtype)
    eps = codec.resolve_eps(raw, args.eps, args.eps_mode)
    params = QuantParams(eps, args.dims, args.block_len, args.dtype)
    stream, elapsed = _timed(codec.compress, raw, params)
    data = serialize(stream)
    Path(args.output).write_bytes(data)
    _emit([_row("compress", elapsed, raw.nbytes, raw.nbytes / len(data))], args.report)
    return EXIT_OK


def _cmd_decompress(args: argparse.Namespace) -> int:
    (stream,) = _load_streams([args.input])
    raw, elapsed = _timed(codec.decompress, stream)
    codec.write_raw(raw, args.output)
    _emit([_row("decompress", elapsed, stream.serialized_size, stream.compression_ratio)],
          args.report)
    return EXIT_OK


def _run_op(name, streams, scalar, verify):
    """Time operation ``name``; with ``verify`` also time its oracle and
    compare (stream results bit for bit, finite reductions to REDUCTION_RTOL
    or to less than half the reduction's quantum, see ``_half_quantum``,
    and a non-finite reduction to an identical value).
    Returns (result, report row, whether it matched)."""
    spec = ops.OPS[name]
    result, t_homo = _timed(ops.apply, name, streams, scalar)
    t_oracle = diff = None
    ok = True
    if verify:
        want, t_oracle = _timed(spec.oracle, streams, scalar)
        if spec.reduction and not (math.isfinite(result) and math.isfinite(want)):
            # a non-finite value agrees only with the same value, NaN with NaN
            ok = result == want or math.isnan(result) and math.isnan(want)
            diff = 0.0 if ok else abs(result - want)
        elif spec.reduction:
            diff = abs(result - want)
            ok = (diff <= REDUCTION_RTOL * max(abs(want), abs(result), 1e-300)
                  or diff < _half_quantum(name, streams[0].params))
        else:
            got = codec.decompress(result, out_dtype=np.float64).values
            want = codec.decompress(want, out_dtype=np.float64).values
            diff = float(np.max(np.abs(got - want))) if got.size else 0.0
            ok = diff == 0.0
    cr = (streams[0] if spec.reduction else result).compression_ratio
    row = _row(name, t_homo, sum(s.params.raw_nbytes for s in streams), cr, t_oracle, diff)
    return result, row, ok


def _cmd_op(args: argparse.Namespace) -> int:
    """``op`` writes the result stream to ``-o``; ``stats`` prints
    ``name = value``."""
    streams = _load_streams(args.inputs)
    result, row, ok = _run_op(args.op_name, streams, getattr(args, "scalar", None),
                              args.verify)
    if args.command == "stats":
        print(f"{args.op_name} = {result!r}")
    elif args.output:
        Path(args.output).write_bytes(serialize(result))
    _emit([row], args.report)
    if not ok:
        raise VerificationMismatch(f"{args.op_name}: max abs diff {row['max_abs_diff']}")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    """Compress one field, then time each operation against the traditional
    workflow.  After the rows of every operation that ran, the first error
    is raised, or a disagreement exits with EXIT_VERIFY."""
    (raw,) = _fields(args)
    params = QuantParams(codec.resolve_eps(raw, args.eps, args.eps_mode), args.dims,
                         args.block_len, args.dtype)
    names = args.ops_list.split(",") if args.ops_list else list(ops.OPS)
    unknown = set(names) - set(ops.OPS)
    if unknown:
        print(f"hoszp: unknown ops {sorted(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    stream, t_compress = _timed(codec.compress, raw, params)
    rows = [_row("compress", t_compress, raw.nbytes, raw.nbytes / stream.serialized_size)]
    operands = [stream, ops.scalar_add(stream, 16.0 * params.eps)]
    bad, errors = [], []
    for name in names:
        try:
            _, row, ok = _run_op(name, operands[: ops.OPS[name].arity], args.scalar, verify=True)
        except (HoszpError, ValueError) as exc:
            errors.append(exc)
            continue
        rows.append(row)
        if not ok:
            bad.append(name)
    for row in rows:
        row["eps"] = args.eps
    _emit(rows, args.report)
    if errors:
        raise errors[0]
    if bad:
        raise VerificationMismatch(f"differs from the traditional workflow: {', '.join(bad)}")
    return EXIT_OK


def _cmd_distsim(args: argparse.Namespace) -> int:
    """``SimScenario`` rejects fewer than 2 nodes with a ValueError (exit 2);
    ``simulate`` raises unless both aggregates agree, so the row's
    ``max_abs_diff`` is 0.0."""
    sim = simulate(SimScenario(_fields(args, args.nodes), args.eps, args.block_len, args.reps,
                               args.latency_per_byte))
    _emit([_row("distsim_sum", sim.t_homomorphic, sim.bytes_in, sim.compression_ratio,
                sim.t_traditional, 0.0, node_count=sim.node_count, eps=sim.eps)], args.report)
    return EXIT_OK


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "op": _cmd_op,
    "stats": _cmd_op,
    "bench": _cmd_bench,
    "distsim": _cmd_distsim,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except VerificationMismatch as exc:
        print(f"hoszp: error kind=VerificationMismatch: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except HoszpError as exc:
        print(f"hoszp: error kind={type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CODEC
    except MemoryError as exc:  # a stream too large to decode here
        print(f"hoszp: error kind=MemoryError: {exc}", file=sys.stderr)
        return EXIT_CODEC
    except OSError as exc:
        print(f"hoszp: error kind=IOError: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"hoszp: error kind=ValueError: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
