"""Three-stage lossy codec: quantization, 1-D blockwise decorrelation, and
blockwise fixed-length bit packing.

Quantization is the only lossy stage; its bin for a value ``x`` is
``floor((x + eps) / (2 * eps))`` and the reconstruction is ``2 * eps * bin``,
so every round-tripped value stays within ``eps`` of the original.  The
decorrelation stage stores, per block, the first bin as an *outlier* plus
the differences of consecutive bins split into sign bits and magnitudes.
Blocks whose residuals are all zero are *constant* and carry no sign or
payload bytes.  The packing stage writes every other block as a row of
sign bits and a row of ``w``-bit magnitudes (``w`` is the block's width),
MSB first, each row padded to a byte; the magnitude kernels move eight
fields at a time as big-endian 64-bit words, never bit by bit.

Decode runs over block-aligned ranges of about ``_RANGE_ELEMS`` (64 Ki)
elements, one at a time, each in one range-sized int64 buffer that stays in
cache: the sign planes and magnitudes of the range's non-constant blocks
are unpacked into it, the signs applied in place with one branch-free step,
each block's outlier written into its first slot and the rows prefix-summed
in place.  ``decompress`` dequantizes each range straight into its output
and ``decode_to_quant`` decodes into its result; the residual-depth
operations and the reductions in ``ops`` walk the same ranges, so no stage
writes a full-length temporary.  Every range checks its own overflow bound
(``max|O| + (k-1) * max mag``); only a range past int64 takes exact Python
ints.  Decode is serial; ``threads`` parallelizes only packing.

Besides full ``compress``/``decompress``, the module exposes the partial
entry points the homomorphic operations build on: ``decode_to_quant`` /
``encode_from_quant`` stop at the quantized-bin domain and never touch the
floating-point reconstruction.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatch, QuantOverflow
from .model import BlockView, CompressedStream, DTYPES, QuantArray, QuantParams

_POW2 = np.asarray([1 << i for i in range(64)], dtype=np.uint64)
_I64_MAX = 2**63 - 1
# beyond this bin magnitude, int64 differences of two bins may overflow
_FAST_BIN_LIMIT = 2**62 - 1
# elements handled per vectorized packing chunk (bounds the u64 word temporaries)
_CHUNK_ELEMS = 1 << 20
# elements decoded per range: the range's int64 buffer stays in cache
_RANGE_ELEMS = 1 << 16


@dataclass(eq=False)
class RawArray:
    """Flat row-major array of finite reals plus its logical geometry."""

    values: np.ndarray
    dims: tuple[int, ...]
    dtype: str = "f32"

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        values = np.ascontiguousarray(self.values, dtype=DTYPES[self.dtype][1]).ravel()
        n = 1
        for d in self.dims:
            n *= d
        if values.shape[0] != n:
            raise ValueError(f"got {values.shape[0]} values for dims {self.dims}")
        if not np.isfinite(values).all():
            raise ValueError("raw data must be finite (no NaN/Inf)")
        self.values = values

    @property
    def nbytes(self) -> int:
        return self.values.size * DTYPES[self.dtype][2]

    def __eq__(self, other):
        if not isinstance(other, RawArray):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.dtype == other.dtype
            and np.array_equal(self.values, other.values)
        )


def read_raw(path, dims, dtype: str = "f32") -> RawArray:
    """Read a headerless flat little-endian IEEE-754 binary file."""
    code = "<f4" if dtype == "f32" else "<f8"
    values = np.fromfile(path, dtype=code)
    dims = tuple(int(d) for d in dims)
    n = int(np.prod(np.asarray(dims, dtype=np.int64)))
    if values.size != n:
        raise GeometryMismatch(
            f"file holds {values.size} {dtype} values but dims {dims} imply {n}"
        )
    return RawArray(values, dims, dtype)


def write_raw(raw: RawArray, path) -> None:
    code = "<f4" if raw.dtype == "f32" else "<f8"
    raw.values.astype(code).tofile(path)


def resolve_eps(raw: RawArray, eps: float, mode: str = "abs") -> float:
    """Resolve a relative error bound against the input's value range.

    ``rel`` mode returns ``eps * (max - min)``; the resolved absolute bound
    is what gets stored in the stream header.
    """
    if mode == "abs":
        return float(eps)
    if mode == "rel":
        lo = float(raw.values.min())
        hi = float(raw.values.max())
        return float(eps) * (hi - lo)
    raise ValueError(f"eps mode must be 'abs' or 'rel', got {mode!r}")


# ---------------------------------------------------------------------------
# quantization


def _reconstruct_f64(bins: np.ndarray, params: QuantParams) -> np.ndarray:
    """Exact reconstruction grid ``2 * eps * bin`` in double precision."""
    return (2.0 * params.eps) * bins.astype(np.float64)


def _dequant_values(bins: np.ndarray, params: QuantParams) -> np.ndarray:
    # f32 streams round the f64 grid value to the nearest float32, which can
    # add up to half an ulp of representation noise on top of the eps bound
    return _reconstruct_f64(bins, params).astype(params.numpy_dtype)


def quantize(raw: RawArray, params: QuantParams) -> QuantArray:
    """Map each value to its quantization bin, guaranteeing that the
    double-precision reconstruction ``2 * eps * bin`` stays within ``eps``
    of the input.

    The floor division runs in float64 (exact promotion for f32 inputs);
    a repair pass then nudges any bin whose reconstructed value violates
    the bound by a floating-point rounding ulp.
    """
    if raw.dims != params.dims or raw.dtype != params.dtype:
        raise ValueError(
            f"raw geometry {raw.dims}/{raw.dtype} does not match params "
            f"{params.dims}/{params.dtype}"
        )
    eps = params.eps
    x = raw.values.astype(np.float64)
    # in place: every full-length temporary costs fresh pages on each call
    with np.errstate(over="ignore"):  # extreme value/eps ratios hit inf below
        q = x + eps
        q /= 2.0 * eps
        np.floor(q, out=q)
    if max(-q.min(), q.max()) >= 2.0**63:
        raise QuantOverflow("quantization bin exceeds 63-bit range; eps too small")
    bins = q.astype(np.int64)
    err = np.multiply(bins, 2.0 * eps, out=q)  # the f64 reconstruction grid
    np.subtract(x, err, out=err)
    bad = np.flatnonzero((err > eps) | (err < -eps))
    if bad.size:
        # nudge ulp-level violators one bin toward the input; inputs sitting
        # exactly on a bin boundary may evaluate a hair beyond eps on both
        # sides, so keep whichever neighbor reconstructs nearer
        step = np.where(err[bad] > 0, 1, -1).astype(np.int64)
        moved = bins[bad] + step
        err2 = x[bad] - _reconstruct_f64(moved, params)
        keep = np.abs(err2) < np.abs(err[bad])
        bins[bad[keep]] = moved[keep]
        final = np.abs(x[bad] - _reconstruct_f64(bins[bad], params))
        if np.any(final > eps * (1.0 + 1e-9)):
            raise QuantOverflow(
                "error bound unattainable at this precision (eps below resolution)"
            )
    return QuantArray(bins, params)


def dequantize(q: QuantArray) -> RawArray:
    """Reverse quantization: ``2 * eps * bin`` in the stream's dtype."""
    return RawArray(_dequant_values(q.bins, q.params), q.params.dims, q.params.dtype)


def _nearest_bins(t: np.ndarray) -> np.ndarray:
    """Round to the nearest integer bin, ties away from zero."""
    mag = np.abs(t)
    mag += 0.5
    np.floor(mag, out=mag)
    if np.any(mag >= 2.0**63):
        raise QuantOverflow("rounded bin exceeds 63-bit range")
    np.copysign(mag, t, out=mag)
    return mag.astype(np.int64)


def quantize_nearest(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Requantize real values to bins with round-to-nearest, ties away from
    zero.  This is the multiplicative-operation rescale rule; the standard
    pipeline uses the floor form above."""
    return _nearest_bins(np.asarray(values, dtype=np.float64) / (2.0 * params.eps))


# ---------------------------------------------------------------------------
# residual split / rebuild (decorrelation stage)


def _split_residuals(bins: np.ndarray, params: QuantParams):
    """Per-element residual magnitudes and signs plus per-block outliers.

    Residual ``i`` is ``bins[i] - bins[i-1]`` inside a block; the slot at
    each block start stays 0 because the outlier carries the first bin.
    """
    starts = params.block_starts()
    n = params.element_count
    maxabs = max(int(bins.max()), -int(bins.min())) if n else 0
    if maxabs <= _FAST_BIN_LIMIT:
        resid = np.empty(n, dtype=np.int64)
        resid[0] = 0
        np.subtract(bins[1:], bins[:-1], out=resid[1:])
        resid[starts] = 0
        signs = (resid < 0).astype(np.uint8)
        mags = np.abs(resid, out=resid).view(np.uint64)
        return bins[starts].astype(np.int64), mags, signs
    # magnitudes near the 63-bit cap: differences need Python integers
    py = bins.tolist()
    mags_py = [0] * n
    signs_py = [0] * n
    for i in range(1, n):
        if i % params.block_len == 0:
            continue
        d = py[i] - py[i - 1]
        if d < 0:
            mags_py[i] = -d
            signs_py[i] = 1
        else:
            mags_py[i] = d
    return (
        bins[starts].astype(np.int64),
        np.asarray(mags_py, dtype=np.uint64),
        np.asarray(signs_py, dtype=np.uint8),
    )


def _block_widths(mags: np.ndarray, params: QuantParams) -> np.ndarray:
    """Bits needed for the largest residual magnitude of each block."""
    k = params.block_len
    n = params.element_count
    nfull = n // k
    maxes = np.zeros(params.block_count, dtype=np.uint64)
    if nfull:
        maxes[:nfull] = mags[: nfull * k].reshape(nfull, k).max(axis=1)
    if n % k:
        maxes[-1] = mags[nfull * k :].max()
    return np.searchsorted(_POW2, maxes, side="right").astype(np.uint8)


def _resolve_range(r: np.ndarray, s: np.ndarray, outliers: np.ndarray, k: int,
                   bins: bool = True) -> np.ndarray:
    """Finish decoding a block-aligned range in place.

    ``r`` (int64) holds the raw bits of the residual magnitudes, ``s``
    (int8, clobbered) their 0/1 signs and ``outliers`` the range's block
    outliers.  Returns ``r`` as signed residuals (0 at block starts) or, with
    ``bins``, as per-block prefix sums seeded by the outliers.  Every prefix
    sum is bounded by ``max|O| + (k-1) * max mag``; a range past int64 takes
    exact Python ints, and residuals past 63 bits come back as an object
    array.
    """
    maxmag = int(r.view(np.uint64).max()) if r.size else 0
    maxout = int(np.abs(outliers).max()) if outliers.size else 0
    if maxmag > _I64_MAX or (bins and maxout + (k - 1) * maxmag > _I64_MAX):
        return _resolve_exact(r, s, outliers, k, bins)
    np.negative(s, out=s)  # branch-free sign step: -1 is all ones
    r ^= s
    r -= s
    if bins:
        r[::k] = outliers
        full = r.size - r.size % k
        mat = r[:full].reshape(-1, k)
        np.cumsum(mat, axis=1, out=mat)
        np.cumsum(r[full:], out=r[full:])
    return r


def _resolve_exact(r, s, outliers, k, bins):
    """:func:`_resolve_range` in Python ints, overflow-checked."""
    resid = [-m if g else m for m, g in zip(r.view(np.uint64).tolist(), s.tolist())]
    if not bins:
        out = np.empty(r.size, dtype=object)
        out[:] = resid
        return out
    for b, start in enumerate(range(0, r.size, k)):
        acc = int(outliers[b])
        for i in range(start, min(start + k, r.size)):
            if i > start:
                acc += resid[i]
            if not -_I64_MAX <= acc <= _I64_MAX:
                raise QuantOverflow("prefix sum overflows 63 bits")
            r[i] = acc
    return r


# ---------------------------------------------------------------------------
# bit packing
#
# A non-constant block of k residuals at width w is one byte row: the
# magnitudes MSB first, w bits each, zero-padded to a byte.  Eight w-bit
# fields fill exactly w bytes, so both kernels pad a row to ceil(k/8) groups
# of 8 fields and move each group as ceil(w/8) big-endian u64 words.  Field
# j of a group starts at bit j*w: inside word (j*w) >> 6, or straddling that
# word and the next.


def _pack_mag_rows(mat: np.ndarray, w: int) -> np.ndarray:
    """Pack a (blocks, k) magnitude matrix into per-block byte rows,
    ``w`` bits per element, MSB first, each row zero-padded to a byte."""
    g, k = mat.shape
    groups, nw = (k + 7) // 8, (w + 7) // 8
    vals = np.zeros((g, groups * 8), dtype=np.uint64)
    vals[:, :k] = mat
    vals = vals.reshape(g * groups, 8)
    words = np.zeros((g * groups, nw), dtype=np.uint64)
    for j in range(8):
        i, o = divmod(j * w, 64)
        if o + w <= 64:
            words[:, i] |= vals[:, j] << np.uint64(64 - o - w)
        else:  # the field straddles words i and i + 1
            words[:, i] |= vals[:, j] >> np.uint64(o + w - 64)
            words[:, i + 1] |= vals[:, j] << np.uint64(128 - o - w)
    octets = words.astype(">u8").view(np.uint8)[:, :w]
    return octets.reshape(g, groups * w)[:, : (k * w + 7) // 8]


def _unpack_mag_rows(rows: np.ndarray, k: int, w: int) -> np.ndarray:
    """Inverse of :func:`_pack_mag_rows`: a (blocks, k) uint64 matrix."""
    g = rows.shape[0]
    groups, nw = (k + 7) // 8, (w + 7) // 8
    padded = np.zeros((g, groups * w), dtype=np.uint8)
    padded[:, : rows.shape[1]] = rows
    octets = np.zeros((g * groups, nw * 8), dtype=np.uint8)
    octets[:, :w] = padded.reshape(g * groups, w)
    words = octets.view(">u8").astype(np.uint64)
    mask = np.uint64((1 << w) - 1)
    if w <= 8:  # a group is one word: shift all eight lanes out at once
        vals = words >> np.arange(64 - w, -1, -w, dtype=np.uint64)[:8]
        vals &= mask
        return vals.reshape(g, groups * 8)[:, :k]
    vals = np.empty((g * groups, 8), dtype=np.uint64)
    for j in range(8):
        i, o = divmod(j * w, 64)
        lane = vals[:, j]
        if o + w <= 64:
            np.right_shift(words[:, i], np.uint64(64 - o - w), out=lane)
        else:
            np.left_shift(words[:, i], np.uint64(o + w - 64), out=lane)
            lane |= words[:, i + 1] >> np.uint64(128 - o - w)
        lane &= mask
    return vals.reshape(g, groups * 8)[:, :k]


def _section_offsets(sizes: np.ndarray) -> np.ndarray:
    offs = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offs[1:])
    return offs


def _iter_chunks(ids: np.ndarray, k: int):
    step = max(1, _CHUNK_ELEMS // max(k, 1))
    for i in range(0, len(ids), step):
        yield ids[i : i + step]


def _block_chunks(params: QuantParams, widths: np.ndarray, b0: int, b1: int):
    """The non-constant blocks of [b0, b1) in chunks of one length and width.

    Yields ``(span, length, w, ids, rows)``: the elements ``span`` reshaped
    to ``(-1, length)`` hold block ``ids[i]`` in row ``rows[i]``.  The full
    blocks of the range share one matrix; a ragged tail block forms its own.
    """
    k, n = params.block_len, params.element_count
    nfull = n // k
    segments = [(slice(b0 * k, min(b1, nfull) * k), k, b0, np.arange(b0, min(b1, nfull)))]
    if n % k and b1 == params.block_count:
        segments.append((slice(nfull * k, n), n % k, nfull, np.array([nfull])))
    for span, length, first, ids in segments:
        ids = ids[widths[ids] > 0]
        ws = widths[ids]
        for w in np.unique(ws):
            for chunk in _iter_chunks(ids[ws == w], length):
                yield span, length, int(w), chunk, chunk - first


def _row_index(offs: np.ndarray, ids: np.ndarray, width: int, base: int = 0) -> np.ndarray:
    """Positions of the ``width``-byte rows of blocks ``ids`` in a section
    buffer that starts at section offset ``base``."""
    return (offs[ids] - base)[:, None] + np.arange(width)


def _section_rows(buf: np.ndarray, offs: np.ndarray, ids: np.ndarray, width: int):
    """The ``width``-byte rows of blocks ``ids`` in section ``buf``: a view
    when they lie back to back, else a gathered copy."""
    start = int(offs[ids[0]])
    if int(offs[ids[-1]]) - start == (len(ids) - 1) * width:
        return buf[start : start + len(ids) * width].reshape(len(ids), width)
    return buf[_row_index(offs, ids, width)]


def _pack_block_range(params, mags, signs, widths, sign_offs, payload_offs, b0, b1):
    """Serialize sign planes and payload for blocks [b0, b1) into two buffers."""
    sign_base = int(sign_offs[b0])
    payload_base = int(payload_offs[b0])
    sign_buf = np.zeros(int(sign_offs[b1]) - sign_base, dtype=np.uint8)
    payload_buf = np.zeros(int(payload_offs[b1]) - payload_base, dtype=np.uint8)
    for span, length, w, ids, rows in _block_chunks(params, widths, b0, b1):
        sign_buf[_row_index(sign_offs, ids, (length + 7) // 8, sign_base)] = np.packbits(
            signs[span].reshape(-1, length)[rows], axis=1)
        payload_buf[_row_index(payload_offs, ids, (length * w + 7) // 8, payload_base)] = (
            _pack_mag_rows(mags[span].reshape(-1, length)[rows], w))
    return sign_buf.tobytes(), payload_buf.tobytes()


def _thread_ranges(block_count: int, threads: int):
    threads = max(1, min(threads, block_count))
    step = -(-block_count // threads)
    return [(i, min(i + step, block_count)) for i in range(0, block_count, step)]


def _pack_stream(params: QuantParams, outliers, mags, signs, widths,
                 threads: int = 1) -> CompressedStream:
    lengths = params.block_lengths()
    sign_sizes = (lengths + 7) // 8
    sign_sizes[widths == 0] = 0
    payload_sizes = (lengths * widths.astype(np.int64) + 7) // 8
    sign_offs = _section_offsets(sign_sizes)
    payload_offs = _section_offsets(payload_sizes)
    ranges = _thread_ranges(params.block_count, threads)
    if len(ranges) == 1:
        parts = [_pack_block_range(params, mags, signs, widths, sign_offs,
                                   payload_offs, 0, params.block_count)]
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            parts = list(
                pool.map(
                    lambda r: _pack_block_range(params, mags, signs, widths,
                                                sign_offs, payload_offs, *r),
                    ranges,
                )
            )
    sign_planes = b"".join(p[0] for p in parts)
    payload = b"".join(p[1] for p in parts)
    return CompressedStream(params, widths, outliers, sign_planes, payload)


def _stream_ranges(stream: CompressedStream):
    """Block-aligned decode ranges ``(b0, b1, offs)`` of about
    ``_RANGE_ELEMS`` elements, at least one block each; ``offs`` are the
    sign and payload section offsets of blocks b0..b1, computed one range
    at a time."""
    params = stream.params
    step = max(1, _RANGE_ELEMS // params.block_len)
    sign_base = payload_base = 0
    for b0 in range(0, params.block_count, step):
        b1 = min(b0 + step, params.block_count)
        offs = (sign_base + _section_offsets(stream.sign_sizes(b0, b1)),
                payload_base + _section_offsets(stream.payload_sizes(b0, b1)))
        yield b0, b1, offs
        sign_base, payload_base = int(offs[0][-1]), int(offs[1][-1])


def _decode_range(stream: CompressedStream, b0: int, b1: int, offs, out=None,
                  bins: bool = True) -> np.ndarray:
    """Decode blocks [b0, b1) in one range-sized int64 buffer (a prefix of
    ``out`` when that is large enough): unpack the sign planes and
    magnitudes of the non-constant blocks, then :func:`_resolve_range`
    applies the signs and, with ``bins``, the prefix sums.  ``offs`` come
    from :func:`_stream_ranges`."""
    params = stream.params
    k = params.block_len
    e0, e1 = b0 * k, min(b1 * k, params.element_count)
    m = e1 - e0
    r = out[:m] if out is not None and out.size >= m else np.empty(m, dtype=np.int64)
    s = np.empty(m, dtype=np.int8)
    if not stream.widths[b0:b1].all():  # constant blocks hold zero residuals
        r[:] = 0
        s[:] = 0
    mags = r.view(np.uint64)
    sign_bytes = np.frombuffer(stream.sign_planes, dtype=np.uint8)
    payload_bytes = np.frombuffer(stream.payload, dtype=np.uint8)
    for span, length, w, ids, rows in _block_chunks(params, stream.widths, b0, b1):
        seg = slice(span.start - e0, span.stop - e0)
        if rows[-1] - rows[0] + 1 == len(rows):
            rows = slice(rows[0], rows[-1] + 1)
        s[seg].reshape(-1, length)[rows] = np.unpackbits(
            _section_rows(sign_bytes, offs[0], ids - b0, (length + 7) // 8), axis=1)[:, :length]
        mags[seg].reshape(-1, length)[rows] = _unpack_mag_rows(
            _section_rows(payload_bytes, offs[1], ids - b0, (length * w + 7) // 8), length, w)
    return _resolve_range(r, s, stream.outliers[b0:b1].astype(np.int64), k, bins)


def _encode_bins(bins: np.ndarray, params: QuantParams, threads: int = 1) -> CompressedStream:
    outliers, mags, signs = _split_residuals(bins, params)
    widths = _block_widths(mags, params)
    return _pack_stream(params, outliers, mags, signs, widths, threads)


# ---------------------------------------------------------------------------
# public pipeline


def lorenzo_encode(q: QuantArray) -> list[BlockView]:
    """Decorrelate a quantized array into per-block views (outlier, residual
    magnitudes, signs, width, constancy)."""
    params = q.params
    outliers, mags, signs = _split_residuals(q.bins, params)
    widths = _block_widths(mags, params)
    n, k = params.element_count, params.block_len
    views = []
    for b in range(params.block_count):
        s, e = b * k, min(b * k + k, n)
        w = int(widths[b])
        views.append(BlockView(int(outliers[b]), mags[s:e], signs[s:e], w, w == 0))
    return views


def lorenzo_decode(blocks, params: QuantParams) -> QuantArray:
    """Exact inverse of :func:`lorenzo_encode` (per-block prefix sums)."""
    lengths = params.block_lengths()
    if len(blocks) != params.block_count:
        raise ValueError(f"expected {params.block_count} blocks, got {len(blocks)}")
    n = params.element_count
    mags = np.empty(n, dtype=np.uint64)
    signs = np.empty(n, dtype=np.uint8)
    outliers = np.empty(params.block_count, dtype=np.int64)
    pos = 0
    for b, view in enumerate(blocks):
        if view.residual_mags.size != lengths[b]:
            raise ValueError(f"block {b} has {view.residual_mags.size} residuals, "
                             f"expected {int(lengths[b])}")
        mags[pos : pos + lengths[b]] = view.residual_mags
        signs[pos : pos + lengths[b]] = view.signs
        outliers[b] = view.outlier
        pos += int(lengths[b])
    bins = _resolve_range(mags.view(np.int64), signs.view(np.int8), outliers,
                          params.block_len)
    return QuantArray(bins, params)


def compress(raw: RawArray, params: QuantParams, threads: int = 1) -> CompressedStream:
    """quantize -> decorrelate -> bit-pack.  Deterministic: one canonical
    output per (input, params), independent of the thread count."""
    return _encode_bins(quantize(raw, params).bins, params, threads)


def decompress(stream: CompressedStream, threads: int = 1,
               out_dtype=None) -> RawArray:
    """bit-unpack -> prefix-sum -> dequantize, range by range straight into
    the output array (``threads`` is accepted for symmetry; decode is serial).

    ``out_dtype=np.float64`` returns the exact reconstruction grid
    ``2 * eps * bin`` in double precision regardless of the stream dtype
    (used by the traditional-workflow reference path).
    """
    params = stream.params
    dtype = "f64" if out_dtype is np.float64 else params.dtype
    values = np.empty(params.element_count, dtype=DTYPES[dtype][1])
    buf = None
    for b0, b1, offs in _stream_ranges(stream):
        bins = _decode_range(stream, b0, b1, offs, out=buf)
        buf = bins if buf is None else buf
        e0 = b0 * params.block_len
        # the f64 grid value, rounded once to the output dtype
        np.multiply(bins, 2.0 * params.eps, out=values[e0 : e0 + bins.size])
    return RawArray(values, params.dims, dtype)


def decode_to_quant(stream: CompressedStream, threads: int = 1) -> QuantArray:
    """Partial decompression: stop at the quantized-bin domain (no inverse
    quantization).  The operand domain for multiplication; ``threads`` is
    accepted for symmetry, decode is serial."""
    params = stream.params
    bins = np.empty(params.element_count, dtype=np.int64)
    for b0, b1, offs in _stream_ranges(stream):
        _decode_range(stream, b0, b1, offs, out=bins[b0 * params.block_len :])
    return QuantArray(bins, params)


def encode_from_quant(q: QuantArray, threads: int = 1) -> CompressedStream:
    """Inverse of :func:`decode_to_quant`: decorrelate and re-pack."""
    return _encode_bins(q.bins, q.params, threads)
