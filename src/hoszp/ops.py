"""Homomorphic operations on compressed streams.

Each operation runs in the shallowest decode domain that supports it:

* fully compressed space - negation (sign-plane flip), scalar add/sub
  (outlier shift);
* unpacked residual space - element-wise add/sub (signed residuals and
  outliers combine linearly);
* quantized-bin space - scalar multiplication, Hadamard product, and all
  reductions (mean, variance, stddev, covariance, global SSIM).

No operation ever inverts quantization on its inputs; the reductions sum
bins in exact integer arithmetic (constant blocks contribute through their
outlier alone) and apply the real-valued scaling once at the end.

``OPS`` is the one table of operations: each ``OpSpec`` pairs the
homomorphic call with its oracle, the traditional reference workflow - full
decompression, the same operation in the value domain, full recompression -
used to certify that every homomorphic result is identical to it.
``apply`` runs any operation by name; ``oracle_stream``,
``oracle_reduction`` and ``oracle_apply`` run its oracle.  All four check
the name, the operand count and the scalar in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import codec
from .codec import RawArray
from .errors import ParamsMismatch, QuantOverflow
from .model import CompressedStream, QuantArray, QuantParams

_I64_MAX = 2**63 - 1
_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class ScalarBin:
    """A scalar operand quantized onto a stream's bin grid.

    The bin is ``trunc(s / (2 * eps))`` toward zero, so the quantized
    scalar ``2 * eps * bin`` differs from ``s`` by strictly less than
    ``2 * eps``.  (This is deliberately not the floor rule the array
    quantizer uses.)
    """

    value: float
    eps: float
    bin: int

    @classmethod
    def of(cls, value: float, eps: float) -> "ScalarBin":
        t = float(value) / (2.0 * eps)
        if not np.isfinite(t) or abs(t) >= 2.0**63:
            raise QuantOverflow(f"scalar {value} overflows the bin grid at eps={eps}")
        return cls(float(value), float(eps), math.trunc(t))

    @property
    def quantized_value(self) -> float:
        return 2.0 * self.eps * self.bin


def _check_params(a: CompressedStream, b: CompressedStream):
    if a.params != b.params:
        raise ParamsMismatch(
            f"operand params differ: {a.params} vs {b.params}"
        )


# ---------------------------------------------------------------------------
# fully-compressed-space operations


def _sign_flip_mask(stream: CompressedStream) -> np.ndarray:
    """0xFF over every stored sign bit, 0 over byte-padding bits."""
    sizes = stream.sign_sizes()
    mask = np.full(int(sizes.sum()), 0xFF, dtype=np.uint8)
    lengths = stream.params.block_lengths()
    rem = (lengths % 8).astype(np.int64)
    partial = (sizes > 0) & (rem > 0)
    if partial.any():
        offs = codec._section_offsets(sizes)[:-1]
        last = (offs + sizes - 1)[partial]
        mask[last] = ((0xFF << (8 - rem[partial])) & 0xFF).astype(np.uint8)
    return mask


def negate(c: CompressedStream) -> CompressedStream:
    """Flip every stored sign bit and negate every outlier; widths and
    payload are untouched."""
    planes = np.frombuffer(c.sign_planes, dtype=np.uint8)
    flipped = (planes ^ _sign_flip_mask(c)).tobytes()
    return CompressedStream(
        c.params, c.widths, -c.outliers.astype(np.int64), flipped, c.payload
    )


def scalar_add(c: CompressedStream, s: float) -> CompressedStream:
    """Shift every block outlier by the scalar's bin; the result
    decompresses to the input plus the quantized scalar, exactly."""
    rs = ScalarBin.of(s, c.params.eps).bin
    return CompressedStream(
        c.params, c.widths, c.outliers.astype(np.int64) + rs, c.sign_planes, c.payload
    )


def scalar_sub(c: CompressedStream, s: float) -> CompressedStream:
    # truncation is odd, so the bin of -s is exactly minus the bin of s
    return scalar_add(c, -s)


# ---------------------------------------------------------------------------
# residual-space operations


def _max_width(stream: CompressedStream) -> int:
    return int(stream.widths.max()) if stream.widths.size else 0


def _unpack_signed(stream: CompressedStream, threads: int = 1):
    """(outliers, signed residuals): int64 residuals, or Python ints in an
    object array when the stream holds 63/64-bit magnitudes."""
    mags, signs = codec._unpack_stream(stream, threads)
    mags = mags.astype(object if _max_width(stream) >= 63 else np.int64)
    return stream.outliers.astype(np.int64), np.where(signs.astype(bool), -mags, mags)


def _pack_signed(params: QuantParams, outliers: np.ndarray, resid: np.ndarray,
                 threads: int = 1) -> CompressedStream:
    """Re-pack signed residuals, int64 or Python ints in an object array."""
    signs = (resid < 0).astype(np.uint8)
    mags = np.abs(resid)
    if mags.dtype == object and mags.size and mags.max() > _U64_MAX:
        raise QuantOverflow("residual exceeds the 64-bit width of format v1")
    mags = mags.astype(np.uint64)
    widths = codec._block_widths(mags, params)
    return codec._pack_stream(params, outliers, mags, signs, widths, threads)


def _elementwise(a: CompressedStream, b: CompressedStream, sub: bool,
                 threads: int = 1) -> CompressedStream:
    _check_params(a, b)
    oa, ra = _unpack_signed(a, threads)
    ob, rb = _unpack_signed(b, threads)
    if (2 ** _max_width(a) - 1) + (2 ** _max_width(b) - 1) > _I64_MAX:
        ra, rb = ra.astype(object), rb.astype(object)  # the sums need Python ints
    outliers = oa - ob if sub else oa + ob
    resid = ra - rb if sub else ra + rb
    return _pack_signed(a.params, outliers, resid, threads)


def elementwise_add(a: CompressedStream, b: CompressedStream,
                    threads: int = 1) -> CompressedStream:
    """Per block: outliers add, signed residuals add; the result
    decompresses to the exact sum of the operands' reconstructions."""
    return _elementwise(a, b, sub=False, threads=threads)


def elementwise_sub(a: CompressedStream, b: CompressedStream,
                    threads: int = 1) -> CompressedStream:
    return _elementwise(a, b, sub=True, threads=threads)


# ---------------------------------------------------------------------------
# quantized-space operations


def _exact_products(x: np.ndarray, y) -> np.ndarray | list:
    """Exact element-wise ``x * y`` of int64 bins (``y`` may be one bin): an
    int64 array when every product fits, else a list of Python ints."""
    y = np.asarray(y, dtype=np.int64)
    mx = int(np.abs(x).max()) if x.size else 0
    my = int(np.abs(y).max()) if y.size else 0
    if mx == 0 or my == 0 or mx <= _I64_MAX // my:
        return x * y
    return [p * q for p, q in zip(x.tolist(), np.broadcast_to(y, x.shape).tolist())]


def _rescale_bins(products, eps: float) -> np.ndarray:
    """nearest_int(2 * eps * p), ties away from zero."""
    return codec._nearest_bins((2.0 * eps) * np.asarray(products, dtype=np.float64))


def scalar_mul(c: CompressedStream, s: float, threads: int = 1) -> CompressedStream:
    """Multiply in the quantized domain: bins scale by the scalar's bin and
    re-center on the grid with nearest-integer rounding."""
    rs = ScalarBin.of(s, c.params.eps).bin
    q = codec.decode_to_quant(c, threads)
    bins = _rescale_bins(_exact_products(q.bins, rs), c.params.eps)
    return codec.encode_from_quant(QuantArray(bins, c.params), threads)


def hadamard(a: CompressedStream, b: CompressedStream,
             threads: int = 1) -> CompressedStream:
    """Element-wise product via the quantized domain; same rescale rule as
    scalar multiplication with the second stream's bins as the scalars."""
    _check_params(a, b)
    qa = codec.decode_to_quant(a, threads)
    qb = codec.decode_to_quant(b, threads)
    bins = _rescale_bins(_exact_products(qa.bins, qb.bins), a.params.eps)
    return codec.encode_from_quant(QuantArray(bins, a.params), threads)


# ---------------------------------------------------------------------------
# reductions (exact integer sums, scaled once at the end)


def _exact_matrix_sum(mat: np.ndarray, bound: int) -> int:
    """Exact sum of an int64 matrix whose entries are bounded by ``bound``."""
    if mat.size == 0:
        return 0
    if mat.size * bound <= _I64_MAX:
        return int(mat.sum())
    rows, cols = mat.shape if mat.ndim == 2 else (1, mat.size)
    if cols * bound <= _I64_MAX:
        return int(mat.reshape(rows, cols).sum(axis=1).sum(dtype=object))
    return int(mat.sum(dtype=object))


def _exact_dot(x: np.ndarray, y: np.ndarray) -> int:
    """Exact ``sum(x * y)`` for integer arrays of any magnitude."""
    if x.size == 0:
        return 0
    mx = int(np.abs(x).max())
    my = int(np.abs(y).max())
    if mx and my and mx > _I64_MAX // my:
        return int((x.astype(object) * y.astype(object)).sum())
    p = x * y
    if p.size * mx * my <= _I64_MAX:
        return int(p.sum())
    return int(p.sum(dtype=object))


def _nonconstant_rows(stream: CompressedStream, threads: int = 1):
    """Decoded bins of non-constant blocks: (full-block ids, their (g, k)
    bin matrix, tail bins or None, prefix bound)."""
    params = stream.params
    n, k = params.element_count, params.block_len
    nfull = n // k
    widths = stream.widths
    mags, signs = codec._unpack_stream(stream, threads)
    outliers = stream.outliers.astype(np.int64)
    maxmag = int(mags.max()) if n else 0
    bound = 2**31 + k * maxmag
    if bound > _I64_MAX:
        bins = codec._bins_from_resid(outliers, mags, signs, params)
        bound = int(np.abs(bins).max()) if n else 0
        full_ids = np.flatnonzero(widths[:nfull] > 0)
        mat = bins[: nfull * k].reshape(nfull, k)[full_ids]
        tail = bins[nfull * k :] if (n % k and widths[-1] > 0) else None
        return full_ids, mat, tail, bound
    resid = np.where(signs.astype(bool), -(mags.astype(np.int64)), mags.astype(np.int64))
    full_ids = np.flatnonzero(widths[:nfull] > 0)
    mat = resid[: nfull * k].reshape(nfull, k)[full_ids]
    if mat.size:
        mat[:, 0] = outliers[full_ids]
        np.cumsum(mat, axis=1, out=mat)
    tail = None
    if n % k and int(widths[-1]) > 0:
        tail = resid[nfull * k :].copy()
        tail[0] = outliers[-1]
        np.cumsum(tail, out=tail)
    return full_ids, mat, tail, bound


def _const_meta(stream: CompressedStream):
    """(lengths, outliers) of the constant blocks."""
    const = stream.widths == 0
    return stream.params.block_lengths()[const], stream.outliers.astype(np.int64)[const]


def _moments(stream: CompressedStream, *, want_sq: bool = False,
             want_minmax: bool = False, shortcut: bool = True, threads: int = 1):
    """Exact integer sums over all bins: (S, Sqq, min, max)."""
    params = stream.params
    S = 0
    sqq = 0
    bmin = bmax = None

    def take_minmax(lo, hi):
        nonlocal bmin, bmax
        bmin = lo if bmin is None else min(bmin, lo)
        bmax = hi if bmax is None else max(bmax, hi)

    if shortcut:
        cl, co = _const_meta(stream)
        if cl.size:
            S += _exact_dot(cl, co)
            if want_sq:
                sqq += _exact_dot(cl, co * co)  # co*co <= 2^62, exact in int64
            if want_minmax:
                take_minmax(int(co.min()), int(co.max()))
        _, mat, tail, bound = _nonconstant_rows(stream, threads)
        for part in (mat, tail):
            if part is None or part.size == 0:
                continue
            S += _exact_matrix_sum(part, bound)
            if want_sq:
                if bound * bound <= _I64_MAX:
                    sqq += _exact_matrix_sum(part * part, bound * bound)
                else:
                    sqq += sum(int(v) * int(v) for v in part.ravel().tolist())
            if want_minmax:
                take_minmax(int(part.min()), int(part.max()))
    else:
        bins = codec._decode_bins(stream, threads)
        bound = int(np.abs(bins).max()) if bins.size else 0
        S = _exact_matrix_sum(bins[None, :], bound)
        if want_sq:
            if bound * bound <= _I64_MAX:
                sqq = _exact_matrix_sum(bins * bins, bound * bound)
            else:
                sqq = sum(int(v) * int(v) for v in bins.tolist())
        if want_minmax:
            take_minmax(int(bins.min()), int(bins.max()))
    return S, sqq, bmin, bmax


def mean(c: CompressedStream, *, shortcut: bool = True, threads: int = 1) -> float:
    """Population mean: ``2 * eps * sum(bins) / N`` in double precision."""
    S, _, _, _ = _moments(c, shortcut=shortcut, threads=threads)
    return (2.0 * c.params.eps * S) / c.params.element_count


def block_means(c: CompressedStream, threads: int = 1) -> np.ndarray:
    """Per-block means ``2 * eps * sum(block bins) / block length``."""
    params = c.params
    lengths = params.block_lengths()
    sums = np.zeros(params.block_count, dtype=np.float64)
    const = c.widths == 0
    outliers = c.outliers.astype(np.int64)
    sums[const] = (lengths[const] * outliers[const]).astype(np.float64)
    full_ids, mat, tail, _ = _nonconstant_rows(c, threads)
    if mat.size:
        sums[full_ids] = mat.sum(axis=1, dtype=np.float64)
    if tail is not None:
        sums[params.block_count - 1] = float(tail.sum(dtype=np.float64))
    return 2.0 * params.eps * sums / lengths.astype(np.float64)


def _variance_terms(c, shortcut, threads):
    n = c.params.element_count
    S, sqq, _, _ = _moments(c, want_sq=True, shortcut=shortcut, threads=threads)
    # n*sqq - S*S is exact and non-negative (Cauchy-Schwarz on integers)
    return S, float(n * sqq - S * S) / (n * n)


def variance(c: CompressedStream, *, shortcut: bool = True, threads: int = 1) -> float:
    """Population variance via exact integer moments:
    ``(2 eps)^2 * (sum(bins^2)/N - (sum(bins)/N)^2)``."""
    _, spread = _variance_terms(c, shortcut, threads)
    return (2.0 * c.params.eps) ** 2 * spread


def stddev(c: CompressedStream, *, shortcut: bool = True, threads: int = 1) -> float:
    return math.sqrt(variance(c, shortcut=shortcut, threads=threads))


def _exact_product_total(x: np.ndarray, y: np.ndarray, bound: int) -> int:
    """Exact ``sum(x * y)`` for int64 arrays with |x*y| <= bound."""
    if x.size == 0:
        return 0
    if x.size * bound <= _I64_MAX:
        return int((x * y).sum())
    if bound <= _I64_MAX:
        return int((x * y).sum(dtype=object))
    return int((x.astype(object) * y.astype(object)).sum())


def _pair_product_sum(a: CompressedStream, b: CompressedStream, *,
                      shortcut: bool = True, threads: int = 1) -> int:
    """Exact ``sum(bins_a * bins_b)`` with constant-pair shortcuts."""
    params = a.params
    n, k = params.element_count, params.block_len
    nfull = n // k
    if not shortcut:
        xa = codec._decode_bins(a, threads)
        xb = codec._decode_bins(b, threads)
        ma = int(np.abs(xa).max()) if n else 0
        mb = int(np.abs(xb).max()) if n else 0
        return _exact_product_total(xa, xb, ma * mb)

    oa = a.outliers.astype(np.int64)
    ob = b.outliers.astype(np.int64)
    ids_a, mat_a, tail_a, bound_a = _nonconstant_rows(a, threads)
    ids_b, mat_b, tail_b, bound_b = _nonconstant_rows(b, threads)
    nc_a = np.zeros(params.block_count, dtype=bool)
    nc_a[ids_a] = True
    nc_b = np.zeros(params.block_count, dtype=bool)
    nc_b[ids_b] = True
    if tail_a is not None:
        nc_a[-1] = True
    if tail_b is not None:
        nc_b[-1] = True
    lengths = params.block_lengths()
    pbound = bound_a * bound_b

    total = 0
    # both constant: k * O_a * O_b from metadata alone
    both_const = ~nc_a & ~nc_b
    if both_const.any():
        total += _exact_dot(lengths[both_const],
                            oa[both_const] * ob[both_const])  # O*O <= 2^62
    # one constant: the constant factor scales the other block's bin sum
    for ids, mat, o_const, o_ids, bound in (
        (ids_a, mat_a, ob, nc_b, bound_a),
        (ids_b, mat_b, oa, nc_a, bound_b),
    ):
        full_ids = ids[~o_ids[ids]] if ids.size else ids
        if full_ids.size:
            pos = np.searchsorted(ids, full_ids)
            rows = mat[pos]
            if k * bound <= _I64_MAX:
                rowsums = rows.sum(axis=1)
            else:
                rowsums = np.asarray([r.sum() for r in rows.astype(object)],
                                     dtype=object)
            total += _exact_dot(o_const[full_ids], rowsums)
    # both non-constant full blocks: element-wise products
    common = ids_a[nc_b[ids_a]] if ids_a.size else ids_a
    if common.size:
        rows_a = mat_a[np.searchsorted(ids_a, common)]
        rows_b = mat_b[np.searchsorted(ids_b, common)]
        total += _exact_product_total(rows_a, rows_b, pbound)
    # partial tail
    if n % k and (tail_a is not None or tail_b is not None):
        blk = params.block_count - 1
        if tail_a is None:
            total += int(oa[blk]) * _exact_matrix_sum(tail_b[None, :], bound_b)
        elif tail_b is None:
            total += int(ob[blk]) * _exact_matrix_sum(tail_a[None, :], bound_a)
        else:
            total += _exact_product_total(tail_a, tail_b, pbound)
    return total


def covariance(a: CompressedStream, b: CompressedStream, *,
               shortcut: bool = True, threads: int = 1) -> float:
    """Population covariance via exact integer sums:
    ``(2 eps)^2 * (sum(a*b)/N - mean_a * mean_b)``."""
    _check_params(a, b)
    n = a.params.element_count
    sa, _, _, _ = _moments(a, shortcut=shortcut, threads=threads)
    sb, _, _, _ = _moments(b, shortcut=shortcut, threads=threads)
    sab = _pair_product_sum(a, b, shortcut=shortcut, threads=threads)
    return (2.0 * a.params.eps) ** 2 * float(n * sab - sa * sb) / (n * n)


def ssim_global(a: CompressedStream, b: CompressedStream, *,
                threads: int = 1) -> float:
    """Single global SSIM over the whole arrays, from the quantized-domain
    mean/variance/covariance reductions."""
    _check_params(a, b)
    params = a.params
    n = params.element_count
    eps2 = 2.0 * params.eps
    sa, sqa, lo_a, hi_a = _moments(a, want_sq=True, want_minmax=True, threads=threads)
    sb, sqb, lo_b, hi_b = _moments(b, want_sq=True, want_minmax=True, threads=threads)
    sab = _pair_product_sum(a, b, threads=threads)
    mu_a = eps2 * sa / n
    mu_b = eps2 * sb / n
    var_a = eps2**2 * float(n * sqa - sa * sa) / (n * n)
    var_b = eps2**2 * float(n * sqb - sb * sb) / (n * n)
    cov = eps2**2 * float(n * sab - sa * sb) / (n * n)
    value_range = eps2 * max(hi_a - lo_a, hi_b - lo_b)
    c1 = (0.01 * value_range) ** 2
    c2 = (0.03 * value_range) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    if den == 0.0:
        raise ValueError("SSIM is undefined: degenerate zero-range operands")
    return num / den


# ---------------------------------------------------------------------------
# traditional-workflow reference (the certification oracle)


def _decompressed(streams, threads: int):
    """Check the operands share params; return them fully decompressed to
    the double-precision reconstruction grid."""
    for other in streams[1:]:
        _check_params(streams[0], other)
    return [codec.decompress(s, threads, out_dtype=np.float64).values for s in streams]


def _f64(p: QuantParams) -> QuantParams:
    return QuantParams(p.eps, p.dims, p.block_len, "f64")


def _linear_oracle(fn):
    """Oracle of a linear stream operation: ``fn(values, scalar, eps)`` in
    the value domain, recompressed through the standard floor quantizer."""
    def oracle(streams, scalar, threads):
        p = streams[0].params
        vals = _decompressed(streams, threads)
        return codec.compress(RawArray(fn(vals, scalar, p.eps), p.dims, "f64"),
                              _f64(p), threads)
    return oracle


def _scalar_value(scalar: float, eps: float) -> float:
    """A scalar enters the value domain as its quantized value ``2 eps * bin``."""
    return ScalarBin.of(scalar, eps).quantized_value


def _product_oracle(streams, scalar, threads):
    """Oracle of the multiplicative operations (the scalar's bin is the
    second factor of a one-stream product).

    The decompressed values requantize back onto the bin grid (nearest
    rule - an exact recovery), multiply exactly, and take the same pinned
    nearest-ties-away rescale; a decimal error bound puts a percent-level
    share of products exactly on rounding ties, where no finite-precision
    float product could reproduce the rescale faithfully.
    """
    p64 = _f64(streams[0].params)
    vals = _decompressed(streams, threads)
    rho = [codec.quantize_nearest(v, p64) for v in vals]
    other = rho[1] if len(rho) == 2 else ScalarBin.of(scalar, p64.eps).bin
    bins = _rescale_bins(_exact_products(rho[0], other), p64.eps)
    return codec.encode_from_quant(QuantArray(bins, p64), threads)


def _reduction_oracle(fn):
    """Oracle of a reduction: ``fn`` on the decompressed values, computed in
    floating point."""
    def oracle(streams, scalar, threads):
        return float(fn(*_decompressed(streams, threads)))
    return oracle


def _value_covariance(va: np.ndarray, vb: np.ndarray) -> float:
    return float(((va - va.mean()) * (vb - vb.mean())).mean())


def _value_ssim(va: np.ndarray, vb: np.ndarray) -> float:
    mu_a, mu_b = va.mean(), vb.mean()
    var_a, var_b = va.var(), vb.var()
    cov = _value_covariance(va, vb)
    value_range = max(va.max() - va.min(), vb.max() - vb.min())
    c1 = (0.01 * value_range) ** 2
    c2 = (0.03 * value_range) ** 2
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    if den == 0.0:
        raise ValueError("SSIM is undefined: degenerate zero-range operands")
    return (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2) / den


# ---------------------------------------------------------------------------
# the operation table


@dataclass(frozen=True)
class OpSpec:
    """One operation: its homomorphic call next to the oracle that certifies
    it.  ``apply`` and ``oracle`` both take ``(streams, scalar, threads)``;
    a stream operation returns a CompressedStream from both, a reduction a
    float.  Operations that take no scalar ignore it."""

    name: str
    arity: int
    takes_scalar: bool
    reduction: bool
    apply: Callable
    oracle: Callable


OPS: dict[str, OpSpec] = {spec.name: spec for spec in (
    OpSpec("neg", 1, False, False,
           lambda s, x, t: negate(s[0]),
           _linear_oracle(lambda v, x, eps: -v[0])),
    OpSpec("sadd", 1, True, False,
           lambda s, x, t: scalar_add(s[0], x),
           _linear_oracle(lambda v, x, eps: v[0] + _scalar_value(x, eps))),
    OpSpec("ssub", 1, True, False,
           lambda s, x, t: scalar_sub(s[0], x),
           _linear_oracle(lambda v, x, eps: v[0] - _scalar_value(x, eps))),
    OpSpec("smul", 1, True, False,
           lambda s, x, t: scalar_mul(s[0], x, t),
           _product_oracle),
    OpSpec("eadd", 2, False, False,
           lambda s, x, t: elementwise_add(s[0], s[1], t),
           _linear_oracle(lambda v, x, eps: v[0] + v[1])),
    OpSpec("esub", 2, False, False,
           lambda s, x, t: elementwise_sub(s[0], s[1], t),
           _linear_oracle(lambda v, x, eps: v[0] - v[1])),
    OpSpec("hadamard", 2, False, False,
           lambda s, x, t: hadamard(s[0], s[1], t),
           _product_oracle),
    OpSpec("mean", 1, False, True,
           lambda s, x, t: mean(s[0], threads=t),
           _reduction_oracle(np.mean)),
    OpSpec("variance", 1, False, True,
           lambda s, x, t: variance(s[0], threads=t),
           _reduction_oracle(np.var)),
    OpSpec("stddev", 1, False, True,
           lambda s, x, t: stddev(s[0], threads=t),
           _reduction_oracle(np.std)),
    OpSpec("covariance", 2, False, True,
           lambda s, x, t: covariance(s[0], s[1], threads=t),
           _reduction_oracle(_value_covariance)),
    OpSpec("ssim", 2, False, True,
           lambda s, x, t: ssim_global(s[0], s[1], threads=t),
           _reduction_oracle(_value_ssim)),
)}


def _spec(name: str, streams, scalar, reduction: bool | None = None) -> OpSpec:
    """Look up ``name`` (of the given kind, when one is given) and check the
    operand count and the scalar."""
    spec = OPS.get(name)
    if spec is None or reduction not in (None, spec.reduction):
        kind = {None: "operation", False: "stream operation", True: "reduction"}[reduction]
        raise ValueError(f"unknown {kind} {name!r}")
    if len(streams) != spec.arity:
        raise ValueError(f"{name} takes {spec.arity} stream operand(s), got {len(streams)}")
    if spec.takes_scalar and scalar is None:
        raise ValueError(f"{name} needs a scalar operand")
    return spec


def apply(name: str, streams, scalar=None, threads: int = 1):
    """Run operation ``name`` on compressed ``streams``: a CompressedStream
    for stream operations, a float for reductions."""
    return _spec(name, streams, scalar).apply(streams, scalar, threads)


def oracle_stream(name: str, streams, scalar=None, threads: int = 1) -> CompressedStream:
    """Traditional workflow for compression-as-output operations: fully
    decompress every operand, operate in the value domain, recompress the
    result (see ``_linear_oracle`` and ``_product_oracle``)."""
    return _spec(name, streams, scalar, reduction=False).oracle(streams, scalar, threads)


def oracle_reduction(name: str, streams, threads: int = 1) -> float:
    """Traditional workflow for reductions: fully decompress, then compute
    the statistic in the floating-point value domain."""
    return _spec(name, streams, None, reduction=True).oracle(streams, None, threads)


def oracle_apply(name: str, streams, scalar=None, threads: int = 1):
    """Reference result for any operation: a double-precision value array
    for compression-as-output operations, a float for reductions."""
    spec = _spec(name, streams, scalar)
    out = spec.oracle(streams, scalar, threads)
    if spec.reduction:
        return out
    return codec.decompress(out, threads, out_dtype=np.float64)
