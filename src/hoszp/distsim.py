"""In-process simulator of distributed sum aggregation over compressed data.

Worker "nodes" each compress one chunk and hand the stream to a root.  The
root aggregates two ways over identical inputs:

* traditional - fully decompress every stream, sum in the value domain,
  recompress the aggregate once;
* homomorphic - combine the streams in the residual/outlier domain
  (the n-ary sum behind element-wise addition, decoding each incoming
  stream once and re-packing once at the end).

Both aggregates must decompress bit-identically; the report records the
timing of each path and their ratio.  The "network" is an in-memory
hand-off; an optional per-byte latency models transfer cost and applies
equally to both paths (the payload sent is the same).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import codec, ops
from .codec import RawArray
from .errors import ParamsMismatch, VerificationMismatch
from .model import CompressedStream, QuantParams


@dataclass
class SimScenario:
    node_arrays: list[RawArray]
    eps: float
    block_len: int = 32
    repetitions: int = 1
    latency_per_byte: float = 0.0
    threads: int = 1  # accepted and ignored: aggregation is serial

    def __post_init__(self):
        if len(self.node_arrays) < 2:
            raise ValueError("need at least 2 nodes")
        first = self.node_arrays[0]
        for raw in self.node_arrays[1:]:
            if raw.dims != first.dims or raw.dtype != first.dtype:
                raise ParamsMismatch("all node chunks must share dims and dtype")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    @property
    def node_count(self) -> int:
        return len(self.node_arrays)

    @property
    def params(self) -> QuantParams:
        first = self.node_arrays[0]
        return QuantParams(self.eps, first.dims, self.block_len, first.dtype)


@dataclass
class SimReport:
    node_count: int
    eps: float
    bytes_in: int
    bytes_compressed: int
    t_traditional: float
    t_homomorphic: float

    @property
    def speedup(self) -> float:
        return self.t_traditional / self.t_homomorphic if self.t_homomorphic > 0 else 0.0

    @property
    def compression_ratio(self) -> float:
        return self.bytes_in / self.bytes_compressed


def _aggregate_homomorphic(streams) -> CompressedStream:
    """n-ary sum in the residual domain (``ops.sum_streams``): each stream
    is decoded once, range by range, and the sum is packed once."""
    return ops.sum_streams(streams, [1] * len(streams))


def _aggregate_traditional(streams) -> CompressedStream:
    """Fully decompress every stream, sum the values in stream order,
    recompress once: the element-wise-add oracle over n operands."""
    return ops._linear_oracle(lambda v, x, eps: functools.reduce(np.add, v))(streams, None)


def simulate(scn: SimScenario) -> SimReport:
    params = scn.params
    streams = [codec.compress(raw, params) for raw in scn.node_arrays]
    bytes_compressed = sum(s.serialized_size for s in streams)
    transfer = scn.latency_per_byte * bytes_compressed

    t_homo = t_trad = float("inf")
    for _ in range(scn.repetitions):
        t0 = time.perf_counter()
        homo = _aggregate_homomorphic(streams)
        t_homo = min(t_homo, time.perf_counter() - t0)
        t0 = time.perf_counter()
        trad = _aggregate_traditional(streams)
        t_trad = min(t_trad, time.perf_counter() - t0)

    v_homo = codec.decompress(homo, out_dtype=np.float64).values
    v_trad = codec.decompress(trad, out_dtype=np.float64).values
    if not np.array_equal(v_homo, v_trad):
        raise VerificationMismatch(
            "homomorphic and traditional aggregates decompress differently "
            f"(max abs diff {np.max(np.abs(v_homo - v_trad))})"
        )
    return SimReport(
        node_count=scn.node_count,
        eps=params.eps,
        bytes_in=sum(raw.nbytes for raw in scn.node_arrays),
        bytes_compressed=bytes_compressed,
        t_traditional=t_trad + transfer,
        t_homomorphic=t_homo + transfer,
    )
