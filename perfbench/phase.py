"""Timed phase of one benchmark run.

``run.py`` starts this in a process of its own, so that the peak RSS it
reports covers loading the operands and the timed rounds, not set-up or the
oracle checks.  Usage::

    python3 perfbench/phase.py WORKDIR

WORKDIR holds ``config.json``, the raw operands ``raw0.bin``/``raw1.bin`` and
their streams ``op0.hsz``/``op1.hsz``.  A warm-up round fixes each step's
reference output; every timed round is compared with it outside the timed
region, and the references are written back to WORKDIR for ``run.py`` to
check against the traditional workflow.  Before each timed round it
prints ``setup`` and waits for ``go`` on stdin, while run.py times one
set-up.  The last stdout line is a JSON object with round times, counts
and, with tracing, the per-layer metrics.
"""

from __future__ import annotations

import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path

from workloads import (
    BLOCK_LEN,
    CLASSES,
    DISTSIM_EPS,
    DISTSIM_NODES,
    META_REPS,
    OPS,
    WORKLOADS,
    Tracer,
    load_hoszp,
    op_calls,
    oracle_call,
)

ORACLE_REPS = 2
PROBE_REPS = 3
CODEC_STAGES = ("codec.quantize", "codec.encode_from_quant", "codec.decode_to_quant",
                "codec.dequantize", "model.serialize", "model.deserialize")


def hand_over() -> None:
    """Wait while run.py times one set-up: it reads this line, sets up,
    and answers "go"."""
    print("setup", flush=True)
    if sys.stdin.readline() != "go\n":
        raise SystemExit("perfbench: run.py did not answer the set-up hand-over")


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class Phase:
    def __init__(self, h, cfg: dict, workdir: Path):
        self.h = h
        self.workdir = workdir
        self.wl = WORKLOADS[cfg["workload"]]
        self.seed = cfg["seed"]
        self.dims = tuple(cfg["dims"])
        self.threads = cfg["threads"]
        self.params = h.QuantParams(self.wl.eps, self.dims, BLOCK_LEN, "f32")
        self.raws = [h.read_raw(workdir / f"raw{i}.bin", self.dims) for i in (0, 1)]
        self.blobs = [(workdir / f"op{i}.hsz").read_bytes() for i in (0, 1)]
        self.a, self.b = (h.deserialize(blob) for blob in self.blobs)
        self.tracer = Tracer()
        self.refs = {}
        self.attempted = 0
        self.errors = []

        calls = op_calls(h, self.a, self.b, self.threads)
        self.steps = {cls: [] for cls in CLASSES}
        for i in (0, 1):
            self.steps["compress"].append((f"compress{i}", partial(self._compress, self.raws[i])))
            self.steps["decompress"].append((f"decompress{i}", partial(self._decompress, self.blobs[i])))
        for name, _, _, cls in OPS:
            step = (name, partial(self.tracer.call, f"ops.{name}", calls[name]))
            self.steps[cls].extend([step] * (META_REPS if cls == "op_meta" else 1))

    def _compress(self, raw) -> bytes:
        h, tr = self.h, self.tracer
        if tr.enabled:
            q = tr.call("codec.quantize", h.quantize, raw, self.params)
            stream = tr.call("codec.encode_from_quant", h.encode_from_quant, q, self.threads)
        else:
            stream = h.compress(raw, self.params, self.threads)
        return tr.call("model.serialize", h.serialize, stream)

    def _decompress(self, blob: bytes):
        h, tr = self.h, self.tracer
        stream = tr.call("model.deserialize", h.deserialize, blob)
        if tr.enabled:
            q = tr.call("codec.decode_to_quant", h.decode_to_quant, stream, self.threads)
            return tr.call("codec.dequantize", h.dequantize, q)
        return h.decompress(stream, self.threads)

    def _fail(self, label: str, why: str):
        self.errors.append(f"{label}: {why}")

    def round(self, cls: str) -> float:
        """Run one round of ``cls`` and return its wall time."""
        outs = []
        with self.tracer.span(cls):
            t0 = time.perf_counter()
            for _, fn in self.steps[cls]:
                try:
                    outs.append(fn())
                except Exception as exc:  # counted as a failed operation
                    outs.append(exc)
            elapsed = time.perf_counter() - t0
        for (label, _), out in zip(self.steps[cls], outs):
            self.attempted += 1
            if isinstance(out, Exception):
                self._fail(label, repr(out))
                continue
            ref = self.refs.setdefault(label, out)
            if out is not ref and not out == ref:
                self._fail(label, "output differs from the warm-up round")
        return elapsed

    def rounds(self, seconds: float) -> dict:
        """Round-robin over the classes until ``seconds`` have passed.

        Each round starts with a hand-over to run.py, which times one
        set-up meanwhile.  A single-threaded run moves to another allowed
        CPU before each class, and each class runs on the next CPU in the
        next round, so every class samples all CPUs alike.  On a shared
        host the CPUs' speeds differ and drift, so a run left on one CPU
        would depend on the CPU it landed on.  Moving also means every
        class finds its operands in the shared last-level cache, not in
        its core's own cache, where 1 MiB fields would otherwise stay but
        real fields do not fit.
        """
        times = {cls: [] for cls in CLASSES}
        deadline = time.perf_counter() + seconds
        cpus = sorted(os.sched_getaffinity(0))
        hop = self.threads == 1 and len(cpus) > 1
        r = 0
        try:
            while r == 0 or time.perf_counter() < deadline:
                hand_over()
                self.tracer.round = r
                for i, cls in enumerate(CLASSES):
                    if hop:
                        os.sched_setaffinity(0, {cpus[(r + i) % len(cpus)]})
                    times[cls].append(self.round(cls))
                r += 1
        finally:
            os.sched_setaffinity(0, cpus)
            self.tracer.round = None
        return times

    def write_refs(self) -> dict:
        """Write stream and array references to the workdir; return the
        reduction values."""
        values = {}
        for label, out in self.refs.items():
            if isinstance(out, bytes):
                (self.workdir / f"ref-{label}.hsz").write_bytes(out)
            elif isinstance(out, float):
                values[label] = out
            elif isinstance(out, self.h.RawArray):
                self.h.write_raw(out, self.workdir / f"ref-{label}.bin")
            else:
                (self.workdir / f"ref-{label}.hsz").write_bytes(self.h.serialize(out))
        return values

    # -- probes of the traced run ------------------------------------------

    def _cli(self, argv, want_output=None) -> None:
        self.attempted += 1
        with redirect_stdout(io.StringIO()):
            rc = self.tracer.call(f"cli.{argv[0]}", self.h.cli.main, argv)
        if rc != 0:
            self._fail(f"cli {argv[0]}", f"exit code {rc}")
        elif want_output is not None and want_output[0].read_bytes() != want_output[1]:
            self._fail(f"cli {argv[0]}", "output differs from the library's")

    def probes(self) -> dict:
        h, tr, threads = self.h, self.tracer, self.threads
        for name, *_ in OPS:
            for _ in range(ORACLE_REPS):
                tr.call(f"ops.oracle.{name}", oracle_call, h, name, self.a, self.b, threads)

        nproc = os.cpu_count() or 1
        gains = {}
        for label, fn in (("compress", lambda t: h.compress(self.raws[0], self.params, t)),
                          ("decompress", lambda t: h.decompress(self.a, t))):
            one, many = [], []
            for _ in range(PROBE_REPS):
                one.append(_timed(partial(fn, 1)))
                many.append(_timed(partial(fn, nproc)))
            gains[label] = statistics.median(one) / statistics.median(many)

        nodes = [h.random_field(self.dims, self.seed + 100 + i) for i in range(DISTSIM_NODES)]
        scenario = h.SimScenario(nodes, eps=DISTSIM_EPS, block_len=BLOCK_LEN,
                                 repetitions=2, threads=threads)
        sim = tr.call("distsim.simulate", h.simulate, scenario)

        cli_out = self.workdir / "cli0.hsz"
        compress_argv = ["compress", str(self.workdir / "raw0.bin"), "-o", str(cli_out),
                         "--dims", "x".join(map(str, self.dims)), "--eps", repr(self.wl.eps),
                         "--block-len", str(BLOCK_LEN), "--threads", str(threads)]
        mean_argv = ["stats", "mean", str(self.workdir / "op0.hsz"), "--threads", str(threads)]
        lib_compress, lib_mean = [], []
        for _ in range(PROBE_REPS):
            self._cli(compress_argv, (cli_out, self.blobs[0]))
            lib_compress.append(_timed(lambda: h.compress(self.raws[0], self.params, threads)))
            self._cli(mean_argv)
            lib_mean.append(_timed(lambda: h.mean(self.a, threads=threads)))

        med = tr.medians()
        layers = {f"{stage}_s": (med[stage], "s") for stage in CODEC_STAGES}
        layers["codec.compress_threads_gain"] = (gains["compress"], "ratio")
        layers["codec.decompress_threads_gain"] = (gains["decompress"], "ratio")
        for name, *_ in OPS:
            layers[f"ops.{name}_s"] = (med[f"ops.{name}"], "s")
            layers[f"ops.oracle.{name}_s"] = (med[f"ops.oracle.{name}"], "s")
            layers[f"ops.{name}.oracle_ratio"] = (
                med[f"ops.oracle.{name}"] / med[f"ops.{name}"], "ratio")
        layers["distsim.simulate_s"] = (med["distsim.simulate"], "s")
        layers["distsim.t_homomorphic_s"] = (sim.t_homomorphic, "s")
        layers["distsim.speedup"] = (sim.speedup, "ratio")
        layers["cli.compress_s"] = (med["cli.compress"], "s")
        layers["cli.stats_mean_s"] = (med["cli.stats"], "s")
        layers["cli.overhead_s"] = (
            med["cli.compress"] - statistics.median(lib_compress)
            + med["cli.stats"] - statistics.median(lib_mean), "s")
        return layers


def main(workdir: Path) -> int:
    cfg = json.loads((workdir / "config.json").read_text())
    h = load_hoszp()
    phase = Phase(h, cfg, workdir)
    for cls in CLASSES:  # warm-up: fixes the reference outputs, untimed
        phase.round(cls)
    out = {}
    if cfg["trace"]:
        out["times"] = phase.rounds(cfg["seconds"] / 2)
        phase.tracer.enabled = True
        out["traced_times"] = phase.rounds(cfg["seconds"] / 2)
        out["layers"] = phase.probes()
        out["spans"] = phase.tracer.spans
    else:
        out["times"] = phase.rounds(cfg["seconds"])
    out["peak_rss_MB"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    out["reductions"] = phase.write_refs()
    out["attempted"] = phase.attempted
    out["errors"] = phase.errors
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 perfbench/phase.py WORKDIR")
    sys.exit(main(Path(sys.argv[1])))
