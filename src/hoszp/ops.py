"""Homomorphic operations on compressed streams.

Each operation runs in the shallowest decode domain that supports it:

* fully compressed space - negation (sign-plane flip), scalar add/sub
  (outlier shift): the result shares the input's widths, payload and
  cached section layout, and costs only the outliers and sign planes;
* unpacked residual space - element-wise add/sub (signed residuals and
  outliers combine linearly; a range whose sum could pass 63 bits adds
  bins instead) and mean (a block's sum is linear in its outlier and
  residuals);
* quantized-bin space - scalar multiplication, Hadamard product, and the
  other reductions (variance, stddev, covariance, global SSIM).

No operation ever inverts quantization on its inputs; the reductions sum
bins in exact integer arithmetic and apply the real-valued scaling once at
the end, every second moment by one rule (``_moment``).  One accumulator,
``_sums``, walks the codec's decode ranges and decodes each operand once,
as the compact matrix of its non-constant blocks
(``codec._decode_compact``): a constant block adds its outlier alone,
weighted by the block length, and nothing is scattered into a full range.
Every sum is taken in int64, splitting a factor into halves where the sum
could pass int64 (``_exact_dot``).

``OPS`` is the one table of operations: each ``OpSpec`` holds the public
function of an operation next to its oracle, the traditional reference
workflow - full decompression, the same operation in the value domain, full
recompression - used to certify that every homomorphic result is identical
to it.  ``OpSpec.apply`` and the oracle are both called as ``(streams,
scalar)``.  ``apply`` runs any operation by name;
``oracle_stream``, ``oracle_reduction`` and ``oracle_apply`` run its
oracle.  All four check the name, the operand count and the scalar in one
place.  Where a public function takes ``threads``, it is accepted and
ignored: every operation is serial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import codec
from .codec import _I64_MAX, RawArray
from .errors import ParamsMismatch, QuantOverflow
from .model import CompressedStream, QuantArray, QuantParams


@dataclass(frozen=True)
class ScalarBin:
    """A scalar operand quantized onto a stream's bin grid.

    The bin is ``trunc(s / (2 * eps))`` toward zero, so the quantized
    scalar ``2 * eps * bin`` differs from ``s`` by strictly less than
    ``2 * eps``.  (This is deliberately not the floor rule the array
    quantizer uses.)  A NaN or infinite scalar raises ``ValueError``, a
    finite one whose bin passes 63 bits :class:`QuantOverflow`.
    """

    value: float
    eps: float
    bin: int

    @classmethod
    def of(cls, value: float, eps: float) -> "ScalarBin":
        if not math.isfinite(value):
            raise ValueError(f"scalar must be finite, got {value}")
        t = float(value) / (2.0 * eps)
        if abs(t) >= 2.0**63:
            raise QuantOverflow(f"scalar {value} overflows the bin grid at eps={eps}")
        return cls(float(value), float(eps), math.trunc(t))

    @property
    def quantized_value(self) -> float:
        return 2.0 * self.eps * self.bin


def _check_params(streams):
    """Raise :class:`ParamsMismatch` unless every operand has the first
    one's params."""
    for other in streams[1:]:
        if other.params != streams[0].params:
            raise ParamsMismatch(
                f"operand params differ: {streams[0].params} vs {other.params}"
            )


# ---------------------------------------------------------------------------
# fully-compressed-space operations


def _keep_bits(n: int) -> int:
    """The byte mask of the first ``n % 8`` bits, MSB first (all 8 when
    ``n % 8`` is 0)."""
    return (0xFF << (8 - n % 8)) & 0xFF if n % 8 else 0xFF


def negate(c: CompressedStream) -> CompressedStream:
    """Flip every stored sign bit and negate every outlier; widths, payload
    and section layout are shared with the input.

    The sign section is inverted whole, then the padding bits that end a
    plane are cleared again: the last byte of every non-constant full
    block's plane when ``block_len % 8`` is not 0 (found from the cached
    sign offsets), and the last byte of the section when it ends in a
    ragged non-constant block."""
    p = c.params
    k, n = p.block_len, p.element_count
    flipped = np.invert(np.frombuffer(c.sign_planes, dtype=np.uint8))
    if k % 8:
        nfull = n // k
        ends = c.offsets[0][1 : nfull + 1][c.widths[:nfull] > 0] - 1
        flipped[ends] &= _keep_bits(k)
    if n % k and c.widths[-1]:
        flipped[-1] &= _keep_bits(n % k)
    return c._derive(-c.outliers.astype(np.int64), flipped.tobytes())


def scalar_add(c: CompressedStream, s: float) -> CompressedStream:
    """Shift every block outlier by the scalar's bin; the result
    decompresses to the input plus the quantized scalar, exactly.

    A shifted bin past 63 bits raises :class:`QuantOverflow`, as the oracle
    does.  Only a range whose ``codec._bin_bound`` passes int64 can hold
    one, and only such a range is decoded, which checks its bins; with the
    int32 outliers and the stream's widest block well within int64 (every
    ordinary stream) the shift stays metadata-only."""
    rs = ScalarBin.of(s, c.params.eps).bin
    out = c._derive(c.outliers.astype(np.int64) + rs)
    if 2**31 + (c.params.block_len - 1) * ((1 << c.width_max) - 1) > _I64_MAX:
        for b0, b1, k, _ in codec._block_ranges(c.params):
            if codec._bin_bound(out.outliers[b0:b1], k, int(c.widths[b0:b1].max())) > _I64_MAX:
                codec._decode_compact(out, b0, b1, k)
    return out


def scalar_sub(c: CompressedStream, s: float) -> CompressedStream:
    # truncation is odd, so the bin of -s is exactly minus the bin of s
    return scalar_add(c, -s)


# ---------------------------------------------------------------------------
# residual-space operations


def _lockstep(streams):
    """Walk the operands' decode ranges in lockstep.  Yields ``(b0, b1, k,
    decode)`` for each of ``codec._block_ranges``: ``decode(i, bins=True,
    compact=False)`` decodes operand ``i``'s range into that operand's
    reused int64 buffer, as the whole range (``codec._decode_range``) or,
    with ``compact``, as its non-constant blocks alone, ``(rows, nz,
    outliers)`` (``codec._decode_compact``), whose matrix takes whole
    groups of 8 slots.  Operands whose params differ raise
    :class:`ParamsMismatch` before any range is decoded."""
    _check_params(streams)
    bufs = [None] * len(streams)
    for b0, b1, k, _ in codec._block_ranges(streams[0].params):

        def decode(i, bins=True, compact=False):
            # made for the first range that needs one, which no later range
            # outgrows; a range of constant blocks alone needs no compact one
            if bufs[i] is None and (not compact or streams[i].widths[b0:b1].any()):
                bufs[i] = np.empty((k + 7) // 8 * 8 * (b1 - b0), dtype=np.int64)
            dec = codec._decode_compact if compact else codec._decode_range
            return dec(streams[i], b0, b1, k, bufs[i], bins)

        yield b0, b1, k, decode


def _all_constant(streams, b0: int, b1: int) -> bool:
    """Whether blocks [b0, b1) are constant in every operand: a stream
    operation's result blocks there are constant too, and follow from the
    outliers alone, with no decode."""
    return not any(c.widths[b0:b1].any() for c in streams)


def sum_streams(streams, signs) -> CompressedStream:
    """``sum(sign * stream)`` in the residual domain, one sign of +1 or -1
    per stream: per block, the outliers and the signed residuals combine
    linearly, so the result decompresses to the exact signed sum of the
    operands' reconstructions.

    A range whose operands' ``codec._bin_bound`` add up within int64 sums
    their signed residuals in int64; no residual or bin of the sum can pass
    it.  Where the operands' constant blocks coincide (noise, or a stream
    and one derived from it), their slot-major compact matrices align and
    add up as they are, and the sum is scattered into a range buffer once
    (``codec._scatter``); otherwise each operand's whole range is decoded
    and added.  Any other range sums their bins instead
    (:func:`_limb_sum`), so an n-ary sum fails only where its result does,
    and hands the encoder the summed bins to split: a bin of the sum past
    63 bits raises ``QuantOverflow``, as the oracle does.  A range
    constant in every operand is ``sum(sign * outlier)`` per block, with
    no decode, so no buffer outgrows a range or 32 times the operands'
    bytes (a non-constant block of ``k`` brings at least ``k / 4`` of
    them).  Each range goes to ``codec._encode_ranges`` in whichever of its
    three forms it took.
    """
    if not streams or len(signs) != len(streams) or any(g not in (1, -1) for g in signs):
        raise ValueError("sum_streams needs one sign of +1 or -1 per stream")

    def parts():
        buf = None  # the aligned sums' range buffer; no later range outgrows the first
        for b0, b1, k, decode in _lockstep(streams):
            if sum(codec._bin_bound(c.outliers[b0:b1], k, int(c.widths[b0:b1].max()))
                   for c in streams) > _I64_MAX:
                yield _limb_sum([decode(i) for i in range(len(streams))], signs)
                continue
            outliers = sum(g * c.outliers[b0:b1].astype(np.int64) for g, c in zip(signs, streams))
            if _all_constant(streams, b0, b1):
                yield outliers, None
                continue
            # where the operands' constant blocks coincide, their compact
            # matrices align and add up before one scatter
            live = streams[0].widths[b0:b1] > 0
            aligned = all(np.array_equal(live, c.widths[b0:b1] > 0) for c in streams[1:])
            acc = None
            for i, g in enumerate(signs):
                x = decode(i, bins=False, compact=aligned)
                x = x[0] if aligned else x
                if g < 0:
                    np.negative(x, out=x)
                acc = x if acc is None else np.add(acc, x, out=acc)
            if aligned:
                m = (b1 - b0) * k
                buf = np.empty(m, dtype=np.int64) if buf is None else buf
                acc = codec._scatter(acc, np.flatnonzero(live), 0, buf[:m])
            yield outliers, (acc < 0, np.abs(acc, out=acc).view(np.uint64))

    return codec._encode_ranges(streams[0].params, parts())


def _limb_sum(xs, signs) -> np.ndarray:
    """The exact ``sum(sign * x)`` of one range's operand bins ``xs``
    (int64), as int64 bins for :func:`sum_streams` to encode.  The high and
    low 32-bit halves of the bins sum apart in int64 and the low sum's
    carry moves up, so the int64 sum is exact; a sum past 63 bits, -2^63
    included, raises :class:`QuantOverflow`."""
    hi = sum(g * (x >> 32) for g, x in zip(signs, xs))
    lo = sum(g * (x & 0xFFFFFFFF) for g, x in zip(signs, xs))
    hi += lo >> 32
    lo &= 0xFFFFFFFF
    bins = (hi << 32) | lo  # exact where hi fits in 32 bits
    if hi.min() < -(2**31) or hi.max() >= 2**31 or bins.min() == -(2**63):
        raise QuantOverflow("the sum of the operands' bins passes 63 bits")
    return bins


def elementwise_add(a: CompressedStream, b: CompressedStream,
                    threads: int = 1) -> CompressedStream:
    """Per block: outliers add, signed residuals add; the result
    decompresses to the exact sum of the operands' reconstructions."""
    return sum_streams([a, b], [1, 1])


def elementwise_sub(a: CompressedStream, b: CompressedStream,
                    threads: int = 1) -> CompressedStream:
    return sum_streams([a, b], [1, -1])


# ---------------------------------------------------------------------------
# quantized-space operations


def _rescale(x: np.ndarray, y, eps: float) -> np.ndarray:
    """The rescale rule of the multiplicative operations: ``nearest(2 eps *
    x * y)`` of int64 bins ``x`` and ``y`` (``y`` may be one bin), ties away
    from zero.  The products are exact: int64 where every product fits,
    else Python ints, each rounded once to float."""
    y = np.asarray(y, dtype=np.int64)
    mx = max(int(x.max()), -int(x.min())) if x.size else 0
    my = max(int(y.max()), -int(y.min())) if y.size else 0
    p = x * y if mx * my <= _I64_MAX else x.astype(object) * y.astype(object)
    t = np.array(p, dtype=np.float64)
    t *= 2.0 * eps
    return codec._nearest_bins(t)


def _rescaled_products(streams, factor=None) -> CompressedStream:
    """Encode :func:`_rescale` of ``a`` and ``b`` range by range, where
    ``a`` is the first stream's bins and ``b`` the second's or the bin
    ``factor``: each range goes to ``codec._encode_ranges`` as its bins.  A
    range constant in every operand rescales the outliers alone, one
    product per block, with no decode (the memory bound of
    :func:`sum_streams`), and goes as ``(outliers, None)``."""
    params = streams[0].params

    def rescaled():
        for b0, b1, _, decode in _lockstep(streams):
            const = _all_constant(streams, b0, b1)
            get = (lambda i: streams[i].outliers[b0:b1].astype(np.int64)) if const else decode
            bins = _rescale(get(0), get(1) if len(streams) == 2 else factor, params.eps)
            yield (bins, None) if const else bins

    return codec._encode_ranges(params, rescaled())


def scalar_mul(c: CompressedStream, s: float, threads: int = 1) -> CompressedStream:
    """Multiply in the quantized domain: bins scale by the scalar's bin and
    re-center on the grid with nearest-integer rounding."""
    return _rescaled_products([c], ScalarBin.of(s, c.params.eps).bin)


def hadamard(a: CompressedStream, b: CompressedStream,
             threads: int = 1) -> CompressedStream:
    """Element-wise product via the quantized domain; same rescale rule as
    scalar multiplication with the second stream's bins as the scalars."""
    return _rescaled_products([a, b])


# ---------------------------------------------------------------------------
# reductions (exact integer sums, scaled once at the end)


def _exact_dot(x: np.ndarray, mx: int, y: np.ndarray | None = None, my: int = 1) -> int:
    """Exact ``sum(x * y)`` (``sum(x)`` when ``y`` is None) of int64 arrays
    with ``|x| <= mx`` and ``|y| <= my``; ``x`` and ``y`` broadcast, so a
    ``(k, 1)`` column weights each slot of a slot-major ``(k, blocks)``
    compact matrix and a ``(blocks,)`` row each block.  One int64 sum when
    the total fits (int64 arithmetic wraps modulo 2^64, so in whatever
    order the terms add up, a total that fits is exact); otherwise the
    factor with the larger bound splits into high and low halves, each
    bounded near that bound's square root, whose sums (by this rule again)
    add up as Python ints.  A pure
    function of its factors and bounds, with no memo of the halves."""
    if not x.size or y is not None and not y.size:
        return 0
    if max(x.size, 0 if y is None else y.size) * mx * my <= _I64_MAX:
        if y is None:
            return int(x.sum())
        nd = max(x.ndim, y.ndim)  # einsum broadcasts axes of length 1
        return int(np.einsum(x, list(range(nd - x.ndim, nd)),
                             y, list(range(nd - y.ndim, nd)), []))
    if my > mx:
        x, mx, y, my = y, my, x, mx
    s = mx.bit_length() // 2
    # the shift floors, so a negative high half reaches (mx >> s) + 1
    return ((_exact_dot(x >> s, (mx >> s) + 1, y, my) << s)
            + _exact_dot(x & ((1 << s) - 1), (1 << s) - 1, y, my))


def _residual_weights(k: int) -> np.ndarray:
    """Bin ``j`` of a block is its outlier plus residuals ``1..j``, so the
    block sums to ``k O + sum_i R_i (k - i)``: residual ``i`` weighs ``k -
    i``, and the block-start slot, which the outlier carries, weighs 0.
    Returns the weights as a ``(k, 1)`` column, one per slot of the
    slot-major compact matrix."""
    weights = np.arange(k, 0, -1)
    weights[0] = 0
    return weights[:, None]


def _block_dot(x: np.ndarray, mx: int, t: np.ndarray, y: np.ndarray, my: int) -> int:
    """Exact ``sum(x[:, t] * y)`` of slot-major compact rows ``x`` (``(k,
    blocks)``, ``|x| <= mx``): the blocks ``t`` (a mask) weighted by ``y``
    (``|y| <= my``), one weight per block.  Where a block sum fits int64
    (``k mx``), ``x``'s block sums are one contiguous sum down the slots and
    the weights dot them; otherwise the weights dot the gathered rows."""
    k = x.shape[0]
    if k * mx <= _I64_MAX:
        return _exact_dot(x.sum(axis=0)[t], k * mx, y, my)
    return _exact_dot(x[:, t], mx, y, my)


def _pair_dot(k: int, a, b) -> int:
    """``sum(a * b)`` over one range of a pair, from each operand's
    slot-major compact rows, constant-block mask, outliers and bound, block
    by block: a block constant in both adds ``k Oa Ob``, one constant in
    one operand adds its outlier times the other's block sum
    (:func:`_block_dot`), and the rest take the dot of their rows, gathered
    once per operand.  Where the operands' constant blocks coincide (none
    at all, or a stream and one derived from it) their compact rows align
    and are dotted with no gather."""
    (xa, ca, oa, ma), (xb, cb, ob, mb) = a, b
    if np.array_equal(ca, cb):
        return k * _exact_dot(oa[ca], ma, ob[ca], mb) + _exact_dot(xa, ma, xb, mb)
    both = ca & cb
    ta, tb = cb[~ca], ca[~cb]  # of the blocks with rows, the ones constant in the other operand
    return (k * _exact_dot(oa[both], ma, ob[both], mb)
            + _block_dot(xa, ma, ta, ob[~ca & cb], mb)
            + _block_dot(xb, mb, tb, oa[~cb & ca], ma)
            + _exact_dot(xa[:, ~ta], ma, xb[:, ~tb], mb))


def _sums(streams, *, sq: bool = False, minmax: bool = False):
    """Exact integer sums over the bins of one operand or a pair, walking
    the operands' decode ranges in lockstep so that each is decoded once,
    and only its non-constant blocks (``codec._decode_compact``).

    Returns Python ints ``(s, sqq, sab, lo, hi)``: per operand, in lists,
    the sum of its bins, with ``sq`` of their squares and with ``minmax``
    its lowest and highest bin; ``sab`` is ``sum(a * b)`` of a pair.  A
    constant block contributes from its outlier alone: ``k O`` to the sum
    and ``k O^2`` to the squares (see :func:`_pair_dot` for ``sab``).  A
    lone sum (``mean``) stays at residual depth, with no prefix sum, where
    a range's bins and residuals fit in int64 (:func:`_residual_weights`).
    Each range's sums take ``_exact_dot`` with one bound per factor: its
    blocks' ``codec._bin_bound``, tightened to the measured min and max
    with ``minmax`` (then every range's are measured) or where that bound
    would split the int64 sums.
    """
    n = len(streams)
    quad = sq or n == 2  # the sums hold products of two bins
    s, sqq, lo, hi = [0] * n, [0] * n, [math.inf] * n, [-math.inf] * n
    sab = 0
    for b0, b1, k, decode in _lockstep(streams):
        parts = []
        for i, c in enumerate(streams):
            ws = c.widths[b0:b1]
            w = int(ws.max())
            m = codec._bin_bound(c.outliers[b0:b1], k, w)
            if not (quad or minmax) and max(m, (1 << w) - 1) <= _I64_MAX:
                rows, _, o = decode(i, bins=False, compact=True)
                s[i] += k * _exact_dot(o, m)
                if w:  # else no rows; and a block may be 2^32 - 1 long
                    s[i] += _exact_dot(rows, (1 << w) - 1, _residual_weights(k), k)
                continue
            rows, _, o = decode(i, compact=True)
            const = ws == 0
            oc = o[const]
            if minmax or (b1 - b0) * k * (m * m if quad else m) > _I64_MAX:
                xlo = min(int(rows.min(initial=_I64_MAX)), int(oc.min(initial=_I64_MAX)))
                xhi = max(int(rows.max(initial=-_I64_MAX)), int(oc.max(initial=-_I64_MAX)))
                lo[i], hi[i] = min(lo[i], xlo), max(hi[i], xhi)
                m = max(xhi, -xlo)
            s[i] += k * _exact_dot(oc, m) + _exact_dot(rows, m)
            if sq:
                sqq[i] += k * _exact_dot(oc, m, oc, m) + _exact_dot(rows, m, rows, m)
            parts.append((rows, const, o, m))
        if n == 2:
            sab += _pair_dot(k, *parts)
    return s, sqq, sab, lo, hi


def _moment(eps: float, num: int, n: int) -> float:
    """The one finish of a second moment: ``(2 eps)^2 * (num / n^2)`` from
    an exact integer numerator ``num``, 0.0 when ``num`` is 0.  It divides
    before it scales, so it overflows only where the moment does, as long
    as ``(2 eps)^2`` is finite (eps below about 6.7e153)."""
    e2 = 2.0 * eps
    return e2 * e2 * (float(num) / (n * n)) if num else 0.0


def mean(c: CompressedStream, *, threads: int = 1) -> float:
    """Population mean: ``2 * eps * sum(bins) / N`` in double precision."""
    (s,), *_ = _sums([c])
    return (2.0 * c.params.eps * s) / c.params.element_count


def variance(c: CompressedStream, *, threads: int = 1) -> float:
    """Population variance via exact integer moments:
    ``(2 eps)^2 * (sum(bins^2)/N - (sum(bins)/N)^2)``."""
    n = c.params.element_count
    (s,), (sqq,), *_ = _sums([c], sq=True)
    # n*sqq - S*S is exact and non-negative (Cauchy-Schwarz on integers)
    return _moment(c.params.eps, n * sqq - s * s, n)


def stddev(c: CompressedStream, *, threads: int = 1) -> float:
    return math.sqrt(variance(c))


def covariance(a: CompressedStream, b: CompressedStream, *,
               threads: int = 1) -> float:
    """Population covariance via exact integer sums:
    ``(2 eps)^2 * (sum(a*b)/N - mean_a * mean_b)``."""
    n = a.params.element_count
    (sa, sb), _, sab, *_ = _sums([a, b])
    return _moment(a.params.eps, n * sab - sa * sb, n)


def ssim_global(a: CompressedStream, b: CompressedStream, *,
                threads: int = 1) -> float:
    """Single global SSIM over the whole arrays, from the quantized-domain
    mean/variance/covariance reductions."""
    params = a.params
    n = params.element_count
    eps2 = 2.0 * params.eps
    (sa, sb), (sqa, sqb), sab, lo, hi = _sums([a, b], sq=True, minmax=True)
    mu_a = eps2 * sa / n
    mu_b = eps2 * sb / n
    var_a = _moment(params.eps, n * sqa - sa * sa, n)
    var_b = _moment(params.eps, n * sqb - sb * sb, n)
    cov = _moment(params.eps, n * sab - sa * sb, n)
    value_range = eps2 * max(hi[0] - lo[0], hi[1] - lo[1])
    r1, r3 = 0.01 * value_range, 0.03 * value_range
    c1, c2 = r1 * r1, r3 * r3  # inf where they overflow; x ** 2 would raise
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    if den == 0.0:
        raise ValueError("SSIM is undefined: degenerate zero-range operands")
    return num / den


# ---------------------------------------------------------------------------
# traditional-workflow reference (the certification oracle)


def _decompressed(streams):
    """Check the operands share params; return them fully decompressed to
    the double-precision reconstruction grid."""
    _check_params(streams)
    return [codec.decompress(s, out_dtype=np.float64).values for s in streams]


def _f64(p: QuantParams) -> QuantParams:
    return QuantParams(p.eps, p.dims, p.block_len, "f64")


def _linear_oracle(fn):
    """Oracle of a linear stream operation: ``fn(values, scalar, eps)`` in
    the value domain, recompressed through the standard floor quantizer."""
    def oracle(streams, scalar):
        p = streams[0].params
        vals = _decompressed(streams)
        return codec.compress(RawArray(fn(vals, scalar, p.eps), p.dims, "f64"), _f64(p))
    return oracle


def _product_oracle(streams, scalar):
    """Oracle of the multiplicative operations (the scalar's bin is the
    second factor of a one-stream product).

    The decompressed values requantize back onto the bin grid (nearest
    rule - an exact recovery), multiply exactly, and take the same pinned
    nearest-ties-away rescale; a decimal error bound puts a percent-level
    share of products exactly on rounding ties, where no finite-precision
    float product could reproduce the rescale faithfully.
    """
    p64 = _f64(streams[0].params)
    vals = _decompressed(streams)
    rho = [codec._nearest_bins(v / (2.0 * p64.eps)) for v in vals]
    other = rho[1] if len(rho) == 2 else ScalarBin.of(scalar, p64.eps).bin
    bins = _rescale(rho[0], other, p64.eps)
    return codec.encode_from_quant(QuantArray(bins, p64))


def _reduction_oracle(fn):
    """Oracle of a reduction: ``fn`` on the decompressed values, computed in
    floating point."""
    def oracle(streams, scalar):
        return float(fn(*_decompressed(streams)))
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
    """One operation: its public function ``fn`` next to the oracle that
    certifies it.  :meth:`apply` calls ``fn`` on the operands, and on the
    scalar when ``takes_scalar`` is set; ``oracle`` takes ``(streams,
    scalar)`` and ignores the scalar where the operation takes none.  A
    stream operation returns a CompressedStream from both, a reduction a
    float."""

    name: str
    arity: int
    takes_scalar: bool
    reduction: bool
    fn: Callable
    oracle: Callable

    def apply(self, streams, scalar):
        return self.fn(*streams, scalar) if self.takes_scalar else self.fn(*streams)


OPS: dict[str, OpSpec] = {spec.name: spec for spec in (
    OpSpec("neg", 1, False, False, negate, _linear_oracle(lambda v, x, eps: -v[0])),
    OpSpec("sadd", 1, True, False, scalar_add,
           _linear_oracle(lambda v, x, eps: v[0] + ScalarBin.of(x, eps).quantized_value)),
    OpSpec("ssub", 1, True, False, scalar_sub,
           _linear_oracle(lambda v, x, eps: v[0] - ScalarBin.of(x, eps).quantized_value)),
    OpSpec("smul", 1, True, False, scalar_mul, _product_oracle),
    OpSpec("eadd", 2, False, False, elementwise_add, _linear_oracle(lambda v, x, eps: v[0] + v[1])),
    OpSpec("esub", 2, False, False, elementwise_sub, _linear_oracle(lambda v, x, eps: v[0] - v[1])),
    OpSpec("hadamard", 2, False, False, hadamard, _product_oracle),
    OpSpec("mean", 1, False, True, mean, _reduction_oracle(np.mean)),
    OpSpec("variance", 1, False, True, variance, _reduction_oracle(np.var)),
    OpSpec("stddev", 1, False, True, stddev, _reduction_oracle(np.std)),
    OpSpec("covariance", 2, False, True, covariance, _reduction_oracle(_value_covariance)),
    OpSpec("ssim", 2, False, True, ssim_global, _reduction_oracle(_value_ssim)),
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


def apply(name: str, streams, scalar=None):
    """Run operation ``name`` on compressed ``streams``: a CompressedStream
    for stream operations, a float for reductions."""
    return _spec(name, streams, scalar).apply(streams, scalar)


def oracle_stream(name: str, streams, scalar=None, threads: int = 1) -> CompressedStream:
    """Traditional workflow for compression-as-output operations: fully
    decompress every operand, operate in the value domain, recompress the
    result (see ``_linear_oracle`` and ``_product_oracle``)."""
    return _spec(name, streams, scalar, reduction=False).oracle(streams, scalar)


def oracle_reduction(name: str, streams, threads: int = 1) -> float:
    """Traditional workflow for reductions: fully decompress, then compute
    the statistic in the floating-point value domain."""
    return _spec(name, streams, None, reduction=True).oracle(streams, None)


def oracle_apply(name: str, streams, scalar=None):
    """Reference result for any operation: a double-precision value array
    for compression-as-output operations, a float for reductions."""
    spec = _spec(name, streams, scalar)
    out = spec.oracle(streams, scalar)
    if spec.reduction:
        return out
    return codec.decompress(out, out_dtype=np.float64)
