"""hoszp benchmark: one run of one workload, or a smoke run of all of them.

    python3 perfbench/run.py --workload archive --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

A run sets up its operands and hands them as files to the timed phase in a
separate process (``phase.py``).  At the start of each of the phase's
rounds, the phase waits while this process times one more set-up, so that
the set-up repetitions spread over the whole run.  Then the run checks
every operation's output against the traditional workflow.  The last
stdout line is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.  The line before it holds the run's provenance and the round
statistics; the full record, spans included, is written to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from workloads import (
    BLOCK_LEN,
    CLASSES,
    EDGE_SLACK,
    OPS,
    OUT_DIR,
    REDUCTION_CLASSES,
    REDUCTION_RTOL,
    ROOT,
    SIDE,
    SMOKE_SIDE,
    WORKLOADS,
    class_operands,
    load_hoszp,
    make_field,
    oracle_call,
)

HERE = Path(__file__).resolve().parent
#: the whole run must end within 180 s
PHASE_TIMEOUT_S = 150


class Checks:
    """Attempted/failed counts of the checks made outside the timed phase."""

    def __init__(self):
        self.attempted = 0
        self.errors = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.errors.append(what)


def setup_operand(h, wl, dims, seed: int):
    """Set-up of one operand: generate its field, compress and serialize it."""
    raw = make_field(h, wl.field, dims, seed)
    params = h.QuantParams(wl.eps, dims, BLOCK_LEN, "f32")
    return raw, h.serialize(h.compress(raw, params, wl.threads))


def operand_identity(h, blob: bytes, seed: int) -> dict:
    """Counts that pin down an operand; equal seeds must give equal counts."""
    s = h.deserialize(blob)
    return {
        "seed": seed,
        "blocks": int(s.widths.size),
        "const_blocks": int(np.count_nonzero(s.widths == 0)),
        "width_hist": np.bincount(s.widths, minlength=1).tolist(),
        "sign_bytes": len(s.sign_planes),
        "payload_bytes": len(s.payload),
        "serialized_bytes": len(blob),
    }


def codec_counts(operands) -> dict:
    """Per-layer codec counts over both operands."""
    hist = np.sum([np.pad(o["width_hist"], (0, 65 - len(o["width_hist"])))
                   for o in operands], axis=0)
    blocks = int(hist.sum())
    return {
        "codec.const_block_frac": (int(hist[0]) / blocks, "frac"),
        "codec.width_mean": (float(np.dot(np.arange(65), hist)) / blocks, "bits"),
        "codec.width_max": (int(np.flatnonzero(hist)[-1]), "bits"),
        "codec.sign_bytes": (sum(o["sign_bytes"] for o in operands), "B"),
        "codec.payload_bytes": (sum(o["payload_bytes"] for o in operands), "B"),
    }


def check_operands(h, wl, raws, blobs, checks: Checks):
    """Set-up's streams: canonical bytes and the error bound on the exact
    double-precision reconstruction grid."""
    for i, (raw, blob) in enumerate(zip(raws, blobs)):
        stream = h.deserialize(blob)
        checks.expect(h.serialize(stream) == blob and h.deserialize(h.serialize(stream)) == stream,
                      f"operand {i}: serialize round trip")
        grid = h.decompress(stream, 1, out_dtype=np.float64).values
        checks.expect(bool(np.all(np.abs(grid - raw.values.astype(np.float64))
                                  <= wl.eps * (1 + EDGE_SLACK))), f"operand {i}: error bound")


def oracle_results(h, wl, blobs) -> dict:
    """The traditional workflow's result for each operation: a value for
    reductions, the exact decompressed grid for stream operations."""
    a, b = (h.deserialize(blob) for blob in blobs)
    results = {}
    for name, _, _, cls in OPS:
        want = oracle_call(h, name, a, b, wl.threads)
        results[name] = want if cls in REDUCTION_CLASSES else \
            h.decompress(want, 1, out_dtype=np.float64).values
    return results


def check_phase(h, wl, dims, raws, blobs, work: Path, reductions: dict, oracles: dict,
                checks: Checks):
    """Check a timed phase's reference outputs: compress gives set-up's
    bytes, decompress stays within eps, stream results decompress
    bit-identically to the oracle's, reductions agree within REDUCTION_RTOL."""
    for i, (raw, blob) in enumerate(zip(raws, blobs)):
        path = work / f"ref-compress{i}.hsz"
        checks.expect(path.is_file() and path.read_bytes() == blob,
                      f"compress{i}: bytes differ from set-up (thread count or run dependent)")
        path = work / f"ref-decompress{i}.bin"
        if not path.is_file():
            checks.expect(False, f"decompress{i}: no output")
            continue
        out = h.read_raw(path, dims).values
        # the f32 output cast may add half an ulp of the value to the bound
        half_ulp = np.spacing(np.abs(out)).astype(np.float64) / 2
        err = np.abs(out.astype(np.float64) - raw.values.astype(np.float64))
        checks.expect(bool(np.all(err <= wl.eps * (1 + EDGE_SLACK) + half_ulp)),
                      f"decompress{i}: error bound")
    for name, _, _, cls in OPS:
        want = oracles[name]
        if cls in REDUCTION_CLASSES:
            got = reductions.get(name)
            checks.expect(got is not None and abs(got - want)
                          <= REDUCTION_RTOL * max(abs(want), abs(got), 1e-300),
                          f"{name}: {got!r} vs oracle {want!r}")
            continue
        path = work / f"ref-{name}.hsz"
        if not path.is_file():
            checks.expect(False, f"{name}: no output")
            continue
        got = h.decompress(h.deserialize(path.read_bytes()), 1, out_dtype=np.float64).values
        checks.expect(np.array_equal(got, want), f"{name}: differs from oracle")


def class_stats(times: list, nbytes: int) -> dict:
    """Median round throughput, plus the tail: the highest percentile of
    round time with at least 10 rounds beyond it."""
    n = len(times)
    stats = {"rounds": n, "median_MBps": nbytes / statistics.median(times) / 1e6}
    pct = next((p for p in (99, 95, 90, 75, 50) if n * (100 - p) / 100 >= 10), None)
    if pct is not None:
        stats["tail_pct"] = pct
        stats["tail_MBps"] = nbytes / float(np.percentile(times, pct)) / 1e6
    return stats


def timed_phase(h, wl, dims, seed: int, work: Path, blobs, checks: Checks):
    """Run phase.py on ``work``.  Each time it pauses at the start of a
    round, time one set-up of both operands here, then let it go on; the
    two processes never run at once.  Returns the phase's result and the
    set-up times."""
    cpus = sorted(os.sched_getaffinity(0))
    hop = wl.threads == 1 and len(cpus) > 1
    setup_times, last = [], ""
    with subprocess.Popen([sys.executable, str(HERE / "phase.py"), str(work)], cwd=ROOT,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(PHASE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line != "setup\n":
                    last = line
                    continue
                if hop:  # sample every CPU, as the phase's classes do
                    os.sched_setaffinity(0, {cpus[len(setup_times) % len(cpus)]})
                t0 = time.perf_counter()
                rep = tuple(setup_operand(h, wl, dims, seed + i)[1] for i in (0, 1))
                setup_times.append(time.perf_counter() - t0)
                checks.expect(rep == tuple(blobs), "set-up is not deterministic")
                proc.stdin.write("go\n")
                proc.stdin.flush()
        finally:
            watchdog.cancel()
            os.sched_setaffinity(0, cpus)
            if proc.poll() is None:
                proc.kill()
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: timed phase exited with {proc.returncode}")
    return json.loads(last), setup_times


def run(workload: str, seed: int, seconds: float, trace: int, side: int = SIDE):
    """One benchmark run; returns (result object, full record)."""
    h = load_hoszp()
    wl = WORKLOADS[workload]
    dims = (side, side)
    checks = Checks()

    raws, blobs = zip(*(setup_operand(h, wl, dims, seed + i) for i in (0, 1)))

    operands = [operand_identity(h, blob, seed + i) for i, blob in enumerate(blobs)]
    provenance = {
        "workload": workload, "seed": seed, "dims": list(dims), "eps": wl.eps,
        "block_len": BLOCK_LEN, "dtype": "f32", "threads": wl.threads,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "hoszp": h.__version__, "operands": operands,
    }

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        for i, (raw, blob) in enumerate(zip(raws, blobs)):
            h.write_raw(raw, work / f"raw{i}.bin")
            (work / f"op{i}.hsz").write_bytes(blob)
        config = {"workload": workload, "seed": seed, "dims": list(dims),
                  "threads": wl.threads, "seconds": seconds, "trace": trace}
        (work / "config.json").write_text(json.dumps(config))
        phase, setup_times = timed_phase(h, wl, dims, seed, work, blobs, checks)
        check_operands(h, wl, raws, blobs, checks)
        check_phase(h, wl, dims, raws, blobs, work, phase["reductions"],
                    oracle_results(h, wl, blobs), checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    times = phase["times"]
    attempted = phase["attempted"] + checks.attempted
    errors = phase["errors"] + checks.errors
    raw_nbytes = dims[0] * dims[1] * 4
    rounds = {cls: class_stats(times[cls], class_operands(cls) * raw_nbytes)
              for cls in CLASSES}
    if trace:
        metrics = dict(phase["layers"])
        metrics.update(codec_counts(operands))
        untraced = sum(statistics.median(t) for t in times.values())
        traced = sum(statistics.median(t) for t in phase["traced_times"].values())
        metrics["trace.overhead_frac"] = (traced / untraced - 1, "frac")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_MB": (phase["peak_rss_MB"], "MB"),
            "success_frac": (1 - len(errors) / attempted, "frac"),
            "compression_ratio": (2 * raw_nbytes / sum(len(b) for b in blobs), "ratio"),
        }
        for cls in CLASSES:
            metrics[f"{cls}_MBps"] = (rounds[cls]["median_MBps"], "MB/s")
    result = {
        "correct": not errors, "attempted": attempted, "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"provenance": provenance, "setup_times_s": setup_times, "rounds": rounds,
              "round_times_s": times,
              "errors": errors, "result": result, "spans": phase.get("spans", [])}
    return result, record


def declared_metrics() -> dict:
    """name -> unit for each section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def smoke() -> int:
    """Tiny run of every workload, traced and untraced; checks that each
    emits exactly the metrics BENCHMARK.json declares, with their units."""
    declared = declared_metrics()
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, record = run(workload, 0, 0.2, trace, side=SMOKE_SIDE)
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            if emitted != declared[section]:
                problems.append(f"{workload} trace={trace}: metrics differ from "
                                f"BENCHMARK.json {section}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: {record['errors']}")
            print(json.dumps({"workload": workload, "trace": trace,
                              "provenance": record["provenance"], "result": result}))
    for p in problems:
        print(f"perfbench smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny run of every workload; checks the emitted metric names")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(json.dumps({k: record[k] for k in ("provenance", "rounds", "errors")}))
    print(json.dumps(result))
    if not result["correct"]:
        print(f"perfbench: {result['failed']} failed: {record['errors'][:5]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
