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

Encode and decode run over block-aligned ranges of about ``_RANGE_ELEMS``
(64 Ki) elements, one at a time, in range-sized buffers that stay in
cache; blocks never span ranges, so a stream is its ranges' sections
joined.  A ragged last block is a range of its own, so every range is a
``(blocks, k)`` matrix of one block length ``k``, and ``_block_ranges``
yields each range with its ``k`` and its element slice.
``_decode_compact`` slices a range's sign and payload offsets from the
stream's section layout (``CompressedStream.offsets``, computed once per
stream), so walking the ranges derives no sizes.  ``_lockstep`` is the one
range walk: it checks that its operands share params, walks their ranges
in lockstep and decodes an operand's range on request, whole or compact,
into that operand's one buffer, made for the first range that needs it
and reused (a range of constant blocks alone, read compact, needs none).
``decompress`` and the operations in ``ops`` read their ranges through
it.  ``_encode_ranges`` is the one encoder, with one entry: it drives the
walk and encodes each range from its bins, which it splits into
residuals itself, or from its outliers and split residuals.  A stream
operation hands it its bin rule.  A range constant in every operand is
constant in the result, and the rule on the operands' outliers finishes
it with no decode; any other range comes from a per-range function,
``part``, or, where there is none or it answers None, from the rule on
the operands' decoded bins.  ``compress`` and ``encode_from_quant``
answer ``part`` with each range's bins, ``ops.sum_streams`` with its
summed residuals (its rule sums bins in limbs), and the products in
``ops`` pass their rule alone.  The encoder fills the range's widths and
packs its sign rows (one ``packbits`` over the range) and its payload.
It moves a range's non-constant blocks in chunks of one width
(``_block_chunks``), counting runs of equal widths over the non-constant
blocks alone: a range
of few runs, such as noise with a rare narrower block, moves each run as
one slice of the sections, where its rows lie back to back; a range of
many runs, such as cloud-like data with widths interleaved, gathers its
rows by width.  Decode works on a
slot-major compact matrix of the range's non-constant blocks alone,
``(k, blocks)`` in block order, so that slot ``i`` of every block is one
contiguous row (``_decode_compact``): one ``unpackbits`` down the range's
transposed sign bytes; the magnitudes in one gather of big-endian u64
windows where every width is at most 8 (``_gather_narrow``, every
cloud-like range), else by width chunk (``_unpack_mag_rows``); one
branch-free sign step; the outliers in slot 0 and the prefix sums as
``k - 1`` contiguous row adds.  The reductions read that matrix and the
range's outliers as they are.  For everyone else (``_decode_range``) the
constant blocks of a range buffer are filled from their outliers (zeros
for residuals) with one broadcast and the compact matrix scattered in
with one transposing copy (``_scatter``).  ``decompress``,
``decode_to_quant`` and the stream operations consume the buffer range
by range, so no stage writes a full-length temporary.  All the integer
arithmetic is int64 modulo 2^64, by one rule.  A residual is a sign and a
uint64 magnitude, exact for any two int64 bins: one subtraction where
twice every bin of the range fits int64, else a comparison and ``max -
min``.  The prefix sums wrap, and where a range's ``_bin_bound`` =
``max|O| + (k-1) * (2^max width - 1)`` passes int64 each step is checked
against its headroom, so a bin past 63 bits raises rather than wraps.
Both directions are serial; the ``threads`` argument of the public entry
points is accepted and ignored.

The tests check each stage against an independent pure-Python block
model.

Besides full ``compress``/``decompress``, the module exposes the partial
entry points the homomorphic operations build on: ``decode_to_quant`` /
``encode_from_quant`` stop at the quantized-bin domain and never touch the
floating-point reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatch, ParamsMismatch, QuantOverflow
from .model import (CompressedStream, DTYPES, QuantArray, QuantParams, _as_dims, _dtype_of,
                    _equal_fields, _section_offsets)

_POW2 = np.asarray([1 << i for i in range(64)], dtype=np.uint64)
_I64_MAX = 2**63 - 1
# elements encoded or decoded per range: the range's buffers stay in cache
_RANGE_ELEMS = 1 << 16
# a range's non-constant blocks move as one slice per run of equal widths
# when they form at most this many runs: the rows of a run lie back to
# back.  Past it, as in cloud-like data where widths interleave, the per-run
# calls cost more than gathering the rows by width.
_SLICE_RUNS = 16
# the narrow gather (widths of at most 8): field j of a group of w-bit
# fields sits 64 - (j + 1) * w bits up in the group's big-endian u64 window;
# row j, column w (column 0 is never read)
_NARROW_SHIFTS = (64 - np.arange(1, 9)[:, None] * np.arange(9)).astype(np.uint64)
_NARROW_MASKS = np.asarray([(1 << w) - 1 for w in range(9)], dtype=np.uint64)
# the output dtypes of decompress, by numpy dtype
_OUT_DTYPES = {t: name for name, t in DTYPES.items()}


@dataclass(eq=False)
class RawArray:
    """Flat row-major array of finite reals plus its logical geometry."""

    values: np.ndarray
    dims: tuple[int, ...]
    dtype: str = "f32"

    def __post_init__(self):
        self.dims = _as_dims(self.dims)
        values = np.ascontiguousarray(self.values, dtype=_dtype_of(self.dtype)).ravel()
        n = math.prod(self.dims)
        if values.shape[0] != n:
            raise ValueError(f"got {values.shape[0]} values for dims {self.dims}")
        if not np.isfinite(values).all():
            raise ValueError("raw data must be finite (no NaN/Inf)")
        self.values = values

    @property
    def nbytes(self) -> int:
        return self.values.nbytes

    __eq__ = _equal_fields


def read_raw(path, dims, dtype: str = "f32") -> RawArray:
    """Read a headerless flat little-endian IEEE-754 binary file."""
    values = np.fromfile(path, dtype=_dtype_of(dtype))
    dims = _as_dims(dims)
    n = math.prod(dims)
    if values.size != n:
        raise GeometryMismatch(
            f"file holds {values.size} {dtype} values but dims {dims} imply {n}"
        )
    return RawArray(values, dims, dtype)


def write_raw(raw: RawArray, path) -> None:
    raw.values.astype(DTYPES[raw.dtype]).tofile(path)


def resolve_eps(raw: RawArray, eps: float, mode: str = "abs") -> float:
    """Resolve a relative error bound against the input's value range.

    ``rel`` mode returns ``eps * (max - min)``; the resolved absolute bound
    is what gets stored in the stream header.  A constant input has no
    value range to scale, and ``rel`` mode rejects it with ``ValueError``.
    """
    if mode == "abs":
        return float(eps)
    if mode == "rel":
        lo, hi = float(raw.values.min()), float(raw.values.max())
        if hi == lo:
            raise ValueError(f"eps mode 'rel' needs a nonzero value range, but every value is {lo}")
        return float(eps) * (hi - lo)
    raise ValueError(f"eps mode must be 'abs' or 'rel', got {mode!r}")


# ---------------------------------------------------------------------------
# quantization


def _dequantize_into(bins: np.ndarray, eps: float, out: np.ndarray) -> None:
    """Write the f64 grid value ``2 * eps * bin`` of each bin into ``out``,
    rounded once to its dtype: an f32 output can add up to half an ulp of
    representation noise on top of the eps bound.  A value past the dtype's
    range comes out inf (or NaN from 0 * inf), for :func:`_checked_raw`."""
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(bins, 2.0 * eps, out=out)


def _check_input(raw: RawArray, params: QuantParams):
    """Check that ``raw`` matches ``params`` and that the grid step ``2 *
    eps`` is finite: past the f64 range even bin 0 would reconstruct to
    NaN, so quantizing raises :class:`QuantOverflow` before it starts."""
    if raw.dims != params.dims or raw.dtype != params.dtype:
        raise ValueError(
            f"raw geometry {raw.dims}/{raw.dtype} does not match params "
            f"{params.dims}/{params.dtype}"
        )
    if not math.isfinite(2.0 * params.eps):
        raise QuantOverflow(f"grid step 2 * eps is not finite at eps={params.eps}")


def _quantize_values(x: np.ndarray, params: QuantParams, out: np.ndarray) -> np.ndarray:
    """Quantize one range of values into a prefix of ``out`` (int64) while
    the range is in cache; see :func:`quantize`."""
    eps, e2 = params.eps, 2.0 * params.eps
    x = x.astype(np.float64, copy=False)
    with np.errstate(over="ignore"):  # extreme value/eps ratios hit inf below
        q = x + eps
        q /= e2
        np.floor(q, out=q)
    if max(-q.min(), q.max()) >= 2.0**63:
        raise QuantOverflow("quantization bin exceeds 63-bit range; eps too small")
    bins = out[: x.size]
    np.copyto(bins, q, casting="unsafe")
    err = np.multiply(bins, e2, out=q)  # the f64 grid, as in the repair below
    np.subtract(x, err, out=err)
    bad = np.flatnonzero(np.abs(err, out=err) > eps)
    if bad.size:
        # nudge ulp-level violators one bin toward the input; inputs sitting
        # exactly on a bin boundary may evaluate a hair beyond eps on both
        # sides, so keep whichever neighbor reconstructs nearer
        err = x[bad] - e2 * bins[bad]
        moved = bins[bad] + np.where(err > 0, 1, -1).astype(np.int64)
        err2 = x[bad] - e2 * moved
        keep = np.abs(err2) < np.abs(err)
        bins[bad[keep]] = moved[keep]
        final = np.abs(x[bad] - e2 * bins[bad])
        if np.any(final > eps * (1.0 + 1e-9)):
            raise QuantOverflow(
                "error bound unattainable: the f64 grid value 2*eps*bin rounds more "
                "than eps*(1 + 1e-9) away from the input"
            )
    return bins


def quantize(raw: RawArray, params: QuantParams) -> QuantArray:
    """Map each value to its quantization bin, guaranteeing that the
    double-precision reconstruction ``2 * eps * bin`` stays within ``eps``
    of the input.

    The floor division runs in float64 (exact promotion for f32 inputs);
    a repair pass then nudges any bin whose reconstructed value violates
    the bound by a floating-point rounding ulp.  Both run range by range.
    """
    _check_input(raw, params)
    bins = np.empty(params.element_count, dtype=np.int64)
    for *_, e in _block_ranges(params):
        _quantize_values(raw.values[e], params, bins[e])
    return QuantArray(bins, params)


def _checked_raw(values: np.ndarray, params: QuantParams) -> RawArray:
    """``values``, reconstructions ``2 * eps * bin``, as a RawArray; a value
    past the dtype's range (inf, or NaN from 0 * inf) fails RawArray's one
    finiteness pass and raises :class:`QuantOverflow`."""
    dtype = _OUT_DTYPES[values.dtype]
    try:
        return RawArray(values, params.dims, dtype)
    except ValueError:
        raise QuantOverflow(f"reconstruction 2 * eps * bin passes the {dtype} range") from None


def dequantize(q: QuantArray) -> RawArray:
    """Reverse quantization: ``2 * eps * bin`` in the stream's dtype.  A
    value past the dtype's range raises :class:`QuantOverflow`.  The one
    rounding step is :func:`_dequantize_into`, as in :func:`decompress`."""
    values = np.empty(q.bins.size, dtype=q.params.numpy_dtype)
    _dequantize_into(q.bins, q.params.eps, values)
    return _checked_raw(values, q.params)


def _nearest_bins(t: np.ndarray) -> np.ndarray:
    """Round to the nearest integer bin, ties away from zero: the rescale
    rule of the multiplicative operations (the quantizer floors instead)."""
    mag = np.abs(t)
    mag += 0.5
    np.floor(mag, out=mag)
    if np.any(mag >= 2.0**63):
        raise QuantOverflow("rounded bin exceeds 63-bit range")
    np.copysign(mag, t, out=mag)
    return mag.astype(np.int64)


# ---------------------------------------------------------------------------
# residual split / rebuild (decorrelation stage)


def _split_residuals(bins: np.ndarray, k: int, out: np.ndarray | None = None):
    """Residuals of a block-aligned run of bins in blocks of ``k``, as
    ``(neg, mags)``: bool signs and uint64 magnitudes (``mags`` in ``out``,
    when given).

    Residual ``i`` is ``bins[i] - bins[i-1]`` inside a block; the slot at
    each block start stays 0 because the outlier carries the first bin.  Two
    int64 bins differ by less than 2^64, so the pair is exact: while twice
    every bin of the run is within int64 the difference is one int64
    subtraction, else its sign is ``bins[i] < bins[i-1]`` and its magnitude
    ``max - min`` modulo 2^64.
    """
    d = np.empty(bins.size, dtype=np.int64) if out is None else out[: bins.size]
    b1, b0 = bins[1:], bins[:-1]
    if 2 * max(int(bins.max()), -int(bins.min())) > _I64_MAX:
        neg = np.concatenate(([False], b1 < b0))
        neg[::k] = False
        np.subtract(np.maximum(b1, b0), np.minimum(b1, b0), out=d[1:])
        d[::k] = 0
        return neg, d.view(np.uint64)
    np.subtract(b1, b0, out=d[1:])
    d[::k] = 0
    return d < 0, np.abs(d, out=d).view(np.uint64)


def _block_widths(mags: np.ndarray, k: int) -> np.ndarray:
    """Bits needed for the largest residual magnitude of each block of a
    run of blocks of ``k``."""
    return np.searchsorted(_POW2, mags.reshape(-1, k).max(axis=1), side="right").astype(np.uint8)


def _bin_bound(outliers, k: int, w: int) -> int:
    """``max|O| + (k-1) * (2^w - 1)``: no bin of blocks of ``k`` with these
    outliers and widths of at most ``w`` bits is larger in magnitude.
    ``outliers`` is an array of them or, as an int, ``max|O|`` itself."""
    if not isinstance(outliers, int):
        outliers = max(-int(outliers.min(initial=0)), int(outliers.max(initial=0)))
    return outliers + (k - 1) * ((1 << w) - 1)


def _resolve_range(r: np.ndarray, s: np.ndarray, outliers: np.ndarray, k: int, w: int,
                   bins: bool = True) -> np.ndarray:
    """Finish decoding, in place, the slot-major compact matrix of a range's
    non-constant blocks: ``r`` is ``(k, blocks)``, so slot ``i`` of every
    block is one contiguous row, and ``k`` is the length of every block of
    the range.  :func:`_decode_compact` is the one caller.

    ``r`` (int64) holds the raw bits of the residual magnitudes, at most
    ``w`` bits wide, ``s`` (int8, ``(k, blocks)``, clobbered) their 0/1
    signs and ``outliers`` the blocks' outliers.  Returns ``r`` as signed
    residuals (0 in slot 0) or, with ``bins``, as per-block prefix sums:
    slot 0 takes the outliers and each later slot adds the one before it,
    one contiguous row add per slot.  Blocks longer than 256 (``k * k``
    past ``_RANGE_ELEMS``) leave a full range fewer blocks than slots, rows
    too short to pay for a call each, so they take one ``cumsum`` down the
    slots instead, which keeps decode linear in the elements.  Both steps
    wrap modulo 2^64, so a residual past 63 bits comes back wrapped.  Where
    the blocks' :func:`_bin_bound` passes int64, each step of the prefix
    sums is checked against its headroom in uint64 (up: ``mag <= I64_MAX -
    prev``, down: ``mag <= I64_MAX + prev``), and a bin past 63 bits, -2^63
    included, raises :class:`QuantOverflow`.
    """
    check = bins and _bin_bound(outliers, k, w) > _I64_MAX
    if check:  # the steps' magnitudes, before the sign step overwrites them
        mags = r[1:].view(np.uint64).copy()
    np.multiply(s, -2, out=s)  # branch-free sign step: signs 0/1 become factors 1/-1
    s += 1
    r *= s
    if not bins:
        r[0] = 0  # the outlier carries the block start; ignore what is stored
        return r
    r[0] = outliers
    if k * k > _RANGE_ELEMS:  # a full range holds fewer blocks than slots
        np.cumsum(r, axis=0, out=r)
    else:
        for i in range(1, k):
            np.add(r[i - 1], r[i], out=r[i])
    if check:
        # the steps before the first one past int64 are exact, so that one
        # sees its true predecessor
        prev, down = r[:-1].view(np.uint64), s[1:] < 0
        if (mags > np.where(down, _I64_MAX + prev, _I64_MAX - prev)).any():
            raise QuantOverflow("prefix sum overflows 63 bits")
    return r


# ---------------------------------------------------------------------------
# bit packing
#
# A non-constant block of k residuals at width w is one byte row: the
# magnitudes MSB first, w bits each, zero-padded to a byte.  Eight w-bit
# fields fill exactly w bytes, so the kernels pad a row to ceil(k/8) groups
# of 8 fields and move each group as ceil(w/8) big-endian u64 words.  Field
# j of a group starts at bit j*w: inside word (j*w) >> 6, or straddling that
# word and the next.  The kernels shift whole lanes, each a contiguous
# array holding field j of every group.  Packing reaches its lanes from the
# block-major (blocks, k) matrix through one transpose; unpacking writes
# lane j of group g straight into slot 8g + j of the slot-major matrix,
# which therefore takes 8 * ceil(k/8) slots.  Where every width of a range
# is at most 8, a group is one u64 window and the whole range unpacks in
# one gather (_gather_narrow).


def _pack_mag_rows(mat: np.ndarray, w: int) -> np.ndarray:
    """Pack a (blocks, k) magnitude matrix into per-block byte rows,
    ``w`` bits per element, MSB first, each row zero-padded to a byte."""
    g, k = mat.shape
    groups, nw = (k + 7) // 8, (w + 7) // 8
    # lane j holds field j of every group, contiguous; only a padded
    # last group needs the zeros
    lanes = (np.zeros if k % 8 else np.empty)((8, g, groups), dtype=np.uint64)
    fields = lanes.transpose(1, 2, 0)  # fields[row, group, j]
    fields[:, : k // 8] = mat[:, : k - k % 8].reshape(g, k // 8, 8)
    if k % 8:
        fields[:, -1, : k % 8] = mat[:, k - k % 8 :]
    lanes = lanes.reshape(8, g * groups)
    words = np.zeros((nw, g * groups), dtype=np.uint64)
    tmp = np.empty(g * groups, dtype=np.uint64)
    for j, lane in enumerate(lanes):
        i, o = divmod(j * w, 64)
        if o + w <= 64:
            words[i] |= np.left_shift(lane, np.uint64(64 - o - w), out=tmp)
        else:  # the field straddles words i and i + 1
            words[i] |= np.right_shift(lane, np.uint64(o + w - 64), out=tmp)
            words[i + 1] |= np.left_shift(lane, np.uint64(128 - o - w), out=tmp)
    octets = words.T.astype(">u8", order="C").view(np.uint8)[:, :w]
    return octets.reshape(g, groups * w)[:, : (k * w + 7) // 8]


def _unpack_mag_rows(rows: np.ndarray, k: int, w: int, out: np.ndarray, cols) -> np.ndarray:
    """Inverse of :func:`_pack_mag_rows`, slot-major: unpack the byte rows
    of ``rows.shape[0]`` blocks of ``k`` into columns ``cols`` of ``out``
    (a slice or an index array, one column per block), a uint64 matrix of
    ``8 * ceil(k / 8)`` slots; the first ``k`` slots of those columns then
    hold the magnitudes.  Lane ``j`` of group ``g`` goes straight into slot
    ``8 g + j``.  Returns ``out``."""
    g = rows.shape[0]
    groups, nw = (k + 7) // 8, (w + 7) // 8
    if rows.shape[1] == groups * w:  # k % 8 == 0: the rows need no padding
        padded = rows
    else:
        padded = np.zeros((g, groups * w), dtype=np.uint8)
        padded[:, : rows.shape[1]] = rows
    # group-major: the bytes of group i of every block, then group i + 1
    octets = np.zeros((groups, g, nw * 8), dtype=np.uint8)
    octets[:, :, :w] = padded.reshape(g, groups, w).transpose(1, 0, 2)
    # word i of every group, contiguous, as (nw, groups, blocks)
    words = octets.view(">u8").transpose(2, 0, 1).astype(np.uint64, order="C")
    mask = np.uint64((1 << w) - 1)
    # lane j, field j of every group and block, is built contiguous (a
    # strided operand costs numpy more per call than the data) and then
    # lands in slots j, 8 + j, ...
    lane, tmp = np.empty((2, groups, g), dtype=np.uint64)
    for j in range(8):
        i, o = divmod(j * w, 64)
        if o + w <= 64:
            np.right_shift(words[i], np.uint64(64 - o - w), out=lane)
        else:  # the field straddles words i and i + 1
            np.left_shift(words[i], np.uint64(o + w - 64), out=lane)
            lane |= np.right_shift(words[i + 1], np.uint64(128 - o - w), out=tmp)
        lane &= mask
        out[j::8, cols] = lane
    return out


def _gather_narrow(section: np.ndarray, offs: np.ndarray, ws: np.ndarray, nz: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Unpack the magnitudes of a range whose widths are all at most 8 in
    one gather: ``section`` is the payload (uint8), ``offs`` the range's
    payload offsets, one per block and one past the end, ``ws`` its widths
    and ``nz`` its non-constant blocks.  ``out`` is their slot-major uint64
    matrix, ``8 * ceil(k / 8)`` slots by ``len(nz)`` contiguous.

    A group of 8 fields of ``w`` bits fills ``w <= 8`` bytes, so group
    ``g`` of a block is one big-endian u64 window at the block's row
    offset plus ``g * w``, and field ``j`` sits ``64 - (j + 1) * w`` bits
    up in it: one shift by a per-width table and one mask split every
    window.  Windows of a last group read up to 7 bytes past the range's
    rows, so the range's payload is copied with 8 zero bytes on the end.
    Returns ``out``."""
    p0, p1 = int(offs[0]), int(offs[-1])
    buf = np.zeros(p1 - p0 + 8, dtype=np.uint8)
    buf[:-8] = section[p0:p1]
    windows = np.ndarray((buf.size - 7,), ">u8", buf, 0, (1,))  # window i: bytes i..i+7
    wz = ws[nz].astype(np.int64)
    at = (offs[:-1][nz] - p0) + np.arange(out.shape[0] // 8)[:, None] * wz
    words = windows.take(at).astype(np.uint64)  # (groups, blocks)
    np.right_shift(words[:, None], _NARROW_SHIFTS[:, wz], out=out.reshape(-1, 8, nz.size))
    out &= _NARROW_MASKS[wz]
    return out


def _as_slice(idx: np.ndarray):
    """``idx`` (ascending) as a slice when its entries are consecutive."""
    if idx[-1] - idx[0] + 1 == len(idx):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _block_chunks(ws: np.ndarray):
    """The non-constant blocks among blocks of widths ``ws``, in chunks of
    one width.

    Yields ``(w, ids, rows)``: block ``ids[i]`` (its row in the matrix of
    all the blocks) is row ``rows[i]`` of the compact matrix that holds the
    non-constant blocks alone, in block order, as their sign and payload
    rows lie in the sections.  Runs of equal width are counted over the
    non-constant blocks, so a constant block does not break a run.  When
    they form at most ``_SLICE_RUNS`` runs, each run is one chunk and
    ``rows`` a slice; otherwise the rows group by width.  ``ids`` and
    ``rows`` are slices where their entries are consecutive, else index
    arrays.
    """
    ids = np.flatnonzero(ws)
    if not ids.size:
        return
    wids = ws[ids]
    starts = np.flatnonzero(wids[1:] != wids[:-1]) + 1  # where a run of one width starts
    if len(starts) < _SLICE_RUNS:
        bounds = [0, *starts.tolist(), len(ids)]
        for r0, r1 in zip(bounds, bounds[1:]):
            yield int(wids[r0]), _as_slice(ids[r0:r1]), slice(r0, r1)
        return
    order = np.argsort(wids, kind="stable")  # the rows of each width, ascending
    end = 0
    for w, count in enumerate(np.bincount(wids).tolist()):
        if count:
            rows = order[end : end + count]
            end += count
            yield w, _as_slice(ids[rows]), _as_slice(rows)


def _row_slots(section: np.ndarray, offs: np.ndarray, ids, width: int):
    """The ``width``-byte rows of blocks ``ids`` in ``section`` (uint8) as
    ``(view, at)``: ``view[at]`` reads or writes them as a ``(len(ids),
    width)`` matrix.  ``view`` is a slice of the section when the rows lie
    back to back, else a strided view whose row ``i`` starts at byte ``i``."""
    if isinstance(ids, slice):
        start, count = int(offs[ids.start]), ids.stop - ids.start
    else:
        start, count = int(offs[ids[0]]), len(ids)
        if int(offs[ids[-1]]) - start != (count - 1) * width:
            return np.ndarray((section.size - width + 1, width), np.uint8, section, 0,
                              (1, 1)), offs[ids]
    return section[start : start + count * width].reshape(count, width), slice(None)


def _block_ranges(params: QuantParams):
    """Block-aligned ranges ``(b0, b1, k, e)`` of about ``_RANGE_ELEMS``
    elements, at least one block each: blocks [b0, b1), all of length
    ``k``, hold the elements of slice ``e``.  The whole blocks come first,
    then a ragged last block as a range of its own.  No range is longer
    than the one before it, so a buffer for the first holds all."""
    k, n = params.block_len, params.element_count
    nfull = n // k
    step = max(1, _RANGE_ELEMS // k)
    for b0 in range(0, nfull, step):
        b1 = min(b0 + step, nfull)
        yield b0, b1, k, slice(b0 * k, b1 * k)
    if n % k:
        yield nfull, nfull + 1, n % k, slice(nfull * k, n)


def _decode_compact(stream: CompressedStream, b0: int, b1: int, k: int, out=None,
                    bins: bool = True):
    """Decode the non-constant blocks among blocks [b0, b1) of length ``k``,
    one of :func:`_block_ranges`, as a slot-major compact matrix.  Returns
    ``(rows, nz, outliers)``: ``rows`` (int64, ``(k, len(nz))``) holds their
    bins or, without ``bins``, their signed residuals (0 in slot 0), slot
    ``i`` of every block in row ``i``, the blocks in block order; ``nz``
    holds their indices in the range and ``outliers`` (int64) the outliers
    of all the range's blocks.  A constant block is its outlier alone, so
    the range's metadata finish it.  The matrix takes ``8 * ceil(k / 8)``
    slots, of which ``rows`` is the first ``k``, in a prefix of ``out``
    when one is given: a buffer sized for the first of the ranges holds
    every later one.

    Their sign rows, back to back in the section, take one ``unpackbits``
    down the transposed bytes, which lands slot-major.  A range whose
    widths are all at most 8 unpacks its magnitudes in one gather
    (:func:`_gather_narrow`); any other range by width
    (:func:`_block_chunks`), each chunk unpacked straight into its columns
    (:func:`_unpack_mag_rows`).  :func:`_resolve_range` applies the signs
    and, with ``bins``, the prefix sums.  Residuals past 63 bits come back
    wrapped modulo 2^64."""
    sign_offs, payload_offs = stream.offsets
    ws = stream.widths[b0:b1]
    outliers = stream.outliers[b0:b1].astype(np.int64)
    nz = np.flatnonzero(ws)
    slots = (k + 7) // 8 * 8
    nc = slots * nz.size
    c = np.empty(nc, dtype=np.int64) if out is None else out[:nc]
    mat = c.reshape(slots, nz.size)
    if not nc:
        return mat[:k], nz, outliers
    signs = np.frombuffer(stream.sign_planes, dtype=np.uint8,
                          count=int(sign_offs[b1] - sign_offs[b0]), offset=int(sign_offs[b0]))
    s = np.unpackbits(signs.reshape(nz.size, -1).T, axis=0)[:k]
    payload = np.frombuffer(stream.payload, dtype=np.uint8)
    offs = payload_offs[b0 : b1 + 1]
    umat = mat.view(np.uint64)
    w = int(ws.max())
    if w <= 8:
        _gather_narrow(payload, offs, ws, nz, umat)
    else:
        for cw, ids, rows in _block_chunks(ws):
            view, at = _row_slots(payload, offs, ids, (k * cw + 7) // 8)
            _unpack_mag_rows(view[at], k, cw, umat, rows)
    return _resolve_range(mat[:k], s.view(np.int8), outliers[nz], k, w, bins), nz, outliers


def _scatter(x: np.ndarray, nz: np.ndarray, fill, r: np.ndarray) -> np.ndarray:
    """Write a range's slot-major compact matrix ``x`` (``(k, len(nz))``,
    blocks ``nz``) into ``r``, the range's block-major int64 buffer: the
    other blocks take ``fill`` in every slot (their outliers as a column,
    or 0), and ``x`` lands with one transposing copy.  Returns ``r``."""
    mat = r.reshape(-1, x.shape[0])
    if nz.size < mat.shape[0]:
        mat[:] = fill
    if nz.size:
        mat[_as_slice(nz)] = x.T
    return r


def _decode_range(stream: CompressedStream, b0: int, b1: int, k: int, out=None,
                  bins: bool = True) -> np.ndarray:
    """Decode blocks [b0, b1) of length ``k``, one of :func:`_block_ranges`,
    in one range-sized int64 buffer (a prefix of ``out``, when given):
    :func:`_decode_compact` decodes the non-constant blocks and
    :func:`_scatter` fills the constant ones with their outliers (with
    ``bins``; zero residuals without).  Residuals past 63 bits come back
    wrapped modulo 2^64."""
    m = (b1 - b0) * k
    r = np.empty(m, dtype=np.int64) if out is None else out[:m]
    x, nz, outliers = _decode_compact(stream, b0, b1, k, bins=bins)
    return _scatter(x, nz, outliers[:, None] if bins else 0, r)


def _encode_range(neg: np.ndarray, mags: np.ndarray, w: np.ndarray, k: int) -> tuple[bytes, bytes]:
    """Encode one range of :func:`_block_ranges` from its residuals' signs
    ``neg`` (bool) and magnitudes ``mags`` (uint64), 0 at block starts, in
    blocks of ``k``: fill the blocks' widths ``w`` and return the range's
    sign and payload bytes."""
    w[:] = _block_widths(mags, k)
    # one packbits over the range's blocks; the non-constant rows stay
    sign_bytes = np.packbits(neg.reshape(-1, k), axis=1)[w > 0].tobytes()
    # widen first: uint8 * k stays uint8 and wraps
    offs = _section_offsets((w.astype(np.int64) * k + 7) // 8)
    payload = np.empty(int(offs[-1]), dtype=np.uint8)
    mat = mags.reshape(-1, k)
    for width, ids, _ in _block_chunks(w):
        view, at = _row_slots(payload, offs, ids, (k * width + 7) // 8)
        view[at] = _pack_mag_rows(mat[ids], width)
    return sign_bytes, payload.tobytes()


def _check_params(streams):
    """Raise :class:`ParamsMismatch` unless every operand has the first
    one's params."""
    bad = [c.params for c in streams[1:] if c.params != streams[0].params]
    if bad:
        raise ParamsMismatch(f"operand params differ: {streams[0].params} vs {bad[0]}")


def _lockstep(streams, params: QuantParams | None = None):
    """The one range walk: the operands' ranges in lockstep, over the
    ranges of ``params`` (by default the first operand's).  Yields ``(b0,
    b1, k, e, decode)`` for each of :func:`_block_ranges`: ``decode(i,
    bins=True, compact=False)`` decodes operand ``i``'s range into that
    operand's reused int64 buffer, as the whole range (:func:`_decode_range`)
    or, with ``compact``, as its non-constant blocks alone, ``(rows, nz,
    outliers)`` (:func:`_decode_compact`), whose matrix takes whole groups
    of 8 slots.  Operands whose params differ raise :class:`ParamsMismatch`
    before any range is decoded."""
    _check_params(streams)
    bufs = [None] * len(streams)
    for b0, b1, k, e in _block_ranges(streams[0].params if params is None else params):

        def decode(i, bins=True, compact=False):
            # made for the first range that needs one, which no later range
            # outgrows; a range of constant blocks alone needs no compact one
            if bufs[i] is None and (not compact or streams[i].widths[b0:b1].any()):
                bufs[i] = np.empty((k + 7) // 8 * 8 * (b1 - b0), dtype=np.int64)
            dec = _decode_compact if compact else _decode_range
            return dec(streams[i], b0, b1, k, bufs[i], bins)

        yield b0, b1, k, e, decode


def _encode_ranges(params: QuantParams, part=None, streams=(), rule=None) -> CompressedStream:
    """The one encoder.  It drives :func:`_lockstep` over ``streams`` (none
    for a stream built from values or bins) and encodes each range from its
    input: either the range's bins (int64), which it splits into residuals
    (:func:`_split_residuals`) in one buffer made on first use and reused,
    or ``(outliers, resid)``: the range's block outliers and its residuals
    as ``(neg, mags)`` (see :func:`_encode_range`).

    ``rule`` is an element-wise operation's bin rule: it maps a list of the
    operands' int64 bins to the result's.  A range whose blocks are
    constant in every operand is constant in the result, so the rule on
    the operands' outliers finishes it, at width 0, with no decode and no
    per-element buffer.  For any other range the encoder asks ``part(b0,
    b1, k, e, decode)`` for its input and, where ``part`` is None or
    answers None, applies ``rule`` to the operands' decoded bins.  The
    per-range sections are joined once at the end."""
    widths = np.zeros(params.block_count, dtype=np.uint8)
    outliers = np.empty(params.block_count, dtype=np.int64)
    signs, payload = [], []
    buf = None
    for b0, b1, k, e, decode in _lockstep(streams, params):
        if streams and not any(c.widths[b0:b1].any() for c in streams):
            outliers[b0:b1] = rule([c.outliers[b0:b1].astype(np.int64) for c in streams])
            continue
        x = None if part is None else part(b0, b1, k, e, decode)
        if x is None:
            x = rule([decode(i) for i in range(len(streams))])
        if isinstance(x, np.ndarray):
            # the first range split is the longest still to come
            buf = np.empty(x.size, dtype=np.int64) if buf is None else buf
            x = x[::k], _split_residuals(x, k, out=buf)
        outliers[b0:b1], resid = x
        s, p = _encode_range(*resid, widths[b0:b1], k)
        signs.append(s)
        payload.append(p)
    return CompressedStream(params, widths, outliers, b"".join(signs), b"".join(payload))


# ---------------------------------------------------------------------------
# public pipeline


def compress(raw: RawArray, params: QuantParams, threads: int = 1) -> CompressedStream:
    """quantize -> decorrelate -> bit-pack, one range at a time (``threads``
    is accepted and ignored).  Deterministic: one canonical output per
    (input, params)."""
    _check_input(raw, params)
    buf = np.empty(next(_block_ranges(params))[3].stop, dtype=np.int64)  # the longest range
    return _encode_ranges(params, lambda b0, b1, k, e, decode:
                          _quantize_values(raw.values[e], params, buf))


def decompress(stream: CompressedStream, threads: int = 1,
               out_dtype=None) -> RawArray:
    """bit-unpack -> prefix-sum -> dequantize, range by range straight into
    the output array (``threads`` is accepted and ignored): each range's
    bins take the one rounding step of :func:`dequantize`
    (:func:`_dequantize_into`) into their element slice.  The output array
    is allocated whole, so a stream of many elements in few constant blocks
    still needs its full decompressed size.

    ``out_dtype`` is None (the stream dtype), float32 or float64 (anything
    ``np.dtype`` maps to them).  Float64 returns the exact reconstruction
    grid ``2 * eps * bin`` regardless of the stream dtype (used by the
    traditional-workflow reference path).  A reconstructed value past the
    output dtype's range raises :class:`QuantOverflow`.
    """
    params = stream.params
    try:
        dtype = params.dtype if out_dtype is None else _OUT_DTYPES[np.dtype(out_dtype)]
    except (TypeError, KeyError):
        raise ValueError(f"out_dtype must be None, float32 or float64, got {out_dtype!r}") from None
    values = np.empty(params.element_count, dtype=DTYPES[dtype])
    for *_, e, decode in _lockstep([stream]):
        _dequantize_into(decode(0), params.eps, values[e])
    return _checked_raw(values, params)


def decode_to_quant(stream: CompressedStream, threads: int = 1) -> QuantArray:
    """Partial decompression: stop at the quantized-bin domain (no inverse
    quantization).  The operand domain for multiplication; ``threads`` is
    accepted and ignored."""
    params = stream.params
    bins = np.empty(params.element_count, dtype=np.int64)
    for b0, b1, k, e in _block_ranges(params):
        _decode_range(stream, b0, b1, k, out=bins[e])
    return QuantArray(bins, params)


def encode_from_quant(q: QuantArray, threads: int = 1) -> CompressedStream:
    """Inverse of :func:`decode_to_quant`: decorrelate and re-pack, range by
    range (``threads`` is accepted and ignored)."""
    return _encode_ranges(q.params, lambda b0, b1, k, e, decode: q.bins[e])
