"""Workloads, operation table and shared helpers of the hoszp benchmark.

Both benchmark processes import this module: ``run.py`` (set-up, checks,
report) and ``phase.py`` (the timed phase).  The benchmark touches the
program only through names exported from ``hoszp/__init__.py`` plus
``hoszp.cli.main``; ``test_perfbench.py`` enforces that.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: per-run scratch files and run records, relative to the checkout root
OUT_DIR = ROOT / ".perfbench_out"

BLOCK_LEN = 32
#: field side of a timed run: 512 x 512 f32 is 1 MiB per field, small enough
#: for 30-70 rounds of every operation class in one 30 s run on 2 cores
SIDE = 512
SMOKE_SIDE = 48
#: negate/sadd/ssub cost microseconds; repeating them keeps a meta round
#: well above timer resolution
META_REPS = 64
SCALARS = {"scalar_add": 0.5, "scalar_sub": 0.25, "scalar_mul": 3.14}
DISTSIM_NODES = 8
DISTSIM_EPS = 1e-3  # transform's eps
#: reductions must match the traditional workflow to this relative tolerance
REDUCTION_RTOL = 1e-9
#: an input exactly on a bin edge evaluates one ulp beyond eps on both sides,
#: so the bound holds to eps * (1 + 1e-9), as the codec's own tests state it
EDGE_SLACK = 1e-9


@dataclass(frozen=True)
class Workload:
    field: str  # "cloud" or "noise"
    eps: float
    all_cores: bool  # True: threads=nproc like the CLI; False: the library default 1

    @property
    def threads(self) -> int:
        return (os.cpu_count() or 1) if self.all_cores else 1


WORKLOADS = {
    "archive": Workload("cloud", 1e-4, True),
    "transform": Workload("noise", 1e-3, False),
    "analyze": Workload("cloud", 1e-4, False),
}

#: (public name, oracle name, operand count, class); the class names are the
#: end-to-end throughput metrics ``<class>_MBps``
OPS = (
    ("negate", "neg", 1, "op_meta"),
    ("scalar_add", "sadd", 1, "op_meta"),
    ("scalar_sub", "ssub", 1, "op_meta"),
    ("elementwise_add", "eadd", 2, "op_linear"),
    ("elementwise_sub", "esub", 2, "op_linear"),
    ("scalar_mul", "smul", 1, "op_mul"),
    ("hadamard", "hadamard", 2, "op_mul"),
    ("mean", "mean", 1, "reduce_single"),
    ("variance", "variance", 1, "reduce_single"),
    ("stddev", "stddev", 1, "reduce_single"),
    ("covariance", "covariance", 2, "reduce_pair"),
    ("ssim_global", "ssim", 2, "reduce_pair"),
)
REDUCTION_CLASSES = ("reduce_single", "reduce_pair")
#: timed classes in round order; compress/decompress each handle both operands
CLASSES = ("compress", "decompress", "op_meta", "op_linear", "op_mul",
           "reduce_single", "reduce_pair")


def class_operands(cls: str) -> int:
    """Operand arrays one round of ``cls`` reads (throughput numerator)."""
    if cls in ("compress", "decompress"):
        return 2
    reps = META_REPS if cls == "op_meta" else 1
    return reps * sum(arity for _, _, arity, c in OPS if c == cls)


def load_hoszp():
    """Import hoszp from this checkout's ``src``; exit non-zero without it."""
    src = ROOT / "src"
    if not (src / "hoszp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hoszp sources in {src}")
    sys.path.insert(0, str(src))
    import hoszp
    import hoszp.cli

    if Path(hoszp.__file__).resolve().parent != src / "hoszp":
        raise SystemExit(f"perfbench: imported hoszp from {hoszp.__file__}, not {src}")
    return hoszp


def make_field(h, kind: str, dims, seed: int):
    """Cloud-like: a smooth field clipped at 0, so about half of its blocks
    are constant.  Noise: uniform white noise, no constant blocks."""
    if kind == "cloud":
        return h.RawArray(np.maximum(h.smooth_field(dims, seed).values, 0), dims, "f32")
    return h.random_field(dims, seed)


def op_calls(h, a, b, threads: int) -> dict:
    """The 12 public operations, bound to operands ``a`` and ``b``."""
    return {
        "negate": lambda: h.negate(a),
        "scalar_add": lambda: h.scalar_add(a, SCALARS["scalar_add"]),
        "scalar_sub": lambda: h.scalar_sub(a, SCALARS["scalar_sub"]),
        "elementwise_add": lambda: h.elementwise_add(a, b, threads),
        "elementwise_sub": lambda: h.elementwise_sub(a, b, threads),
        "scalar_mul": lambda: h.scalar_mul(a, SCALARS["scalar_mul"], threads),
        "hadamard": lambda: h.hadamard(a, b, threads),
        "mean": lambda: h.mean(a, threads=threads),
        "variance": lambda: h.variance(a, threads=threads),
        "stddev": lambda: h.stddev(a, threads=threads),
        "covariance": lambda: h.covariance(a, b, threads=threads),
        "ssim_global": lambda: h.ssim_global(a, b, threads=threads),
    }


def oracle_call(h, name: str, a, b, threads: int):
    """The traditional-workflow reference for public operation ``name``."""
    _, oracle, arity, cls = next(op for op in OPS if op[0] == name)
    operands = [a, b][:arity]
    if cls in REDUCTION_CLASSES:
        return h.oracle_reduction(oracle, operands, threads)
    return h.oracle_stream(oracle, operands, SCALARS.get(name), threads)


class Tracer:
    """In-memory spans (name, start, end, parent, round) around calls the
    benchmark makes into the program; a disabled tracer just calls."""

    def __init__(self):
        self.enabled = False
        self.round = None
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
               "round": self.round}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def medians(self) -> dict:
        """Median duration of each span name."""
        by_name = {}
        for s in self.spans:
            by_name.setdefault(s["name"], []).append(s["end"] - s["start"])
        return {name: statistics.median(d) for name, d in by_name.items()}
