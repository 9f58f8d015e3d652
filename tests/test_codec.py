"""Codec pipeline: quantization, decorrelation, packing, and their inverses."""

import hashlib
import math
import warnings
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoszp import (
    CompressedStream,
    GeometryMismatch,
    HoszpError,
    ParamsMismatch,
    QuantArray,
    QuantOverflow,
    QuantParams,
    RawArray,
    compress,
    decode_to_quant,
    decompress,
    dequantize,
    deserialize,
    encode_from_quant,
    quantize,
    read_raw,
    resolve_eps,
    serialize,
    write_raw,
)
from hoszp import codec, model, ops
from hoszp.synth import random_field

from conftest import (
    EXAMPLE_BINS,
    EXAMPLE_EPS,
    EXAMPLE_VALUES,
    RefBlock,
    random_params,
    random_stream,
    range_sizes,
    ref_bins,
    ref_blocks,
    ref_pack_row,
    reference_stream,
    wide_block_bins,
)


def _raw(values, dtype="f64", dims=None):
    values = np.asarray(values, dtype=np.float64)
    dims = dims or (values.size,)
    return RawArray(values, dims, dtype)


class TestQuantize:
    def test_example_values(self, example_raw, example_params):
        assert list(quantize(example_raw, example_params).bins) == EXAMPLE_BINS

    def test_example_eps_reconstruction_scan(self):
        """eps=0.01 is the unique candidate on a 1e-3 grid that reproduces
        the documented bins AND both documented scalar bins."""
        matches = []
        for i in range(1, 101):
            eps = i / 1000.0
            bins = [math.floor((v + eps) / (2 * eps)) for v in EXAMPLE_VALUES]
            s_add = math.trunc(0.67 / (2 * eps))
            s_mul = math.trunc(3.14 / (2 * eps))
            if bins == EXAMPLE_BINS and s_add == 33 and s_mul == 157:
                matches.append(eps)
        assert matches == [EXAMPLE_EPS]

    def test_zero_maps_to_zero_bin(self):
        for eps in (1e-5, 0.3, 7.0):
            p = QuantParams(eps=eps, dims=(1,), dtype="f64")
            assert quantize(_raw([0.0]), p).bins[0] == 0

    def test_067_floor_bin(self):
        # floor((0.67 + 0.01) / 0.02) = 34; hand-checked: 0.68 / 0.02 = 34.0
        p = QuantParams(eps=0.01, dims=(1,), dtype="f64")
        assert quantize(_raw([0.67]), p).bins[0] == 34

    def test_overflow_when_eps_too_small(self):
        p = QuantParams(eps=1e-300, dims=(1,), dtype="f64")
        with pytest.raises(QuantOverflow):
            quantize(_raw([1e80]), p)

    def test_eps_below_value_resolution(self):
        # at |x| ~ 1e12 with eps=1e-7 the reconstructions near x are spaced
        # coarser than eps, so no bin can honor the bound
        p = QuantParams(eps=1e-7, dims=(1,), dtype="f64")
        with pytest.raises(QuantOverflow):
            quantize(_raw([1.0e12 + 0.5]), p)

    def test_bin_edge_past_the_slack_names_the_grid_rounding(self):
        # f64 resolves eps=1e-10 at 0.5, but this input lies on a bin edge
        # where both grid values round about 8e-8 eps past the bound
        p = QuantParams(eps=1e-10, dims=(1,), dtype="f64")
        with pytest.raises(QuantOverflow, match="grid value 2\\*eps\\*bin rounds"):
            quantize(_raw([-0.5264728821]), p)

    def test_boundary_exact_input_takes_nearest(self):
        # 1.25 sits exactly on a bin edge at eps=0.01; the float-evaluated
        # error is one ulp beyond eps on both sides, nearest wins
        p = QuantParams(eps=0.01, dims=(1,), dtype="f64")
        q = quantize(_raw([1.25]), p)
        err = abs(1.25 - 2.0 * p.eps * int(q.bins[0]))
        assert err <= p.eps * (1 + 1e-9)

    def test_geometry_must_match(self, example_raw):
        p = QuantParams(eps=0.01, dims=(4,), dtype="f32")
        with pytest.raises(ValueError):
            quantize(example_raw, p)  # dims (2,2) vs (4,)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_overflowing_grid_step_raises_before_quantizing(self, dtype):
        # 2 * 9e307 is inf: even bin 0 would reconstruct to 0 * inf = NaN
        raw = _raw([0.0, 1.0, -2.5, 3e10], dtype)
        p = QuantParams(eps=9e307, dims=(4,), dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (quantize, compress):
                with pytest.raises(QuantOverflow, match=r"2 \* eps is not finite"):
                    call(raw, p)
        # an eps whose grid step is still finite round-trips
        p = QuantParams(eps=8e307, dims=(4,), dtype=dtype)
        assert quantize(raw, p).bins.tolist() == [0, 0, 0, 0]
        assert decompress(compress(raw, p)).values.tolist() == [0.0] * 4


class TestDequantize:
    def test_example_bins(self, example_params):
        q = QuantArray(np.array(EXAMPLE_BINS), example_params)
        expected = np.array([-0.02, -0.02, -0.06, -0.06], dtype=np.float32)
        assert np.array_equal(dequantize(q).values, expected)

    def test_example_bins_f64(self):
        p = QuantParams(eps=EXAMPLE_EPS, dims=(2, 2), block_len=32, dtype="f64")
        q = QuantArray(np.array(EXAMPLE_BINS), p)
        # 2 * eps * rho by hand: floats computed the same way
        expected = [2.0 * EXAMPLE_EPS * b for b in EXAMPLE_BINS]
        assert list(dequantize(q).values) == expected
        assert np.allclose(dequantize(q).values, [-0.02, -0.02, -0.06, -0.06],
                           rtol=0, atol=1e-12)

    def test_zeros(self):
        p = QuantParams(eps=0.5, dims=(6,), dtype="f64")
        assert not np.any(dequantize(QuantArray(np.zeros(6, np.int64), p)).values)

    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    def test_round_trip_error_bound(self, eps):
        rng = np.random.default_rng(int(1 / eps))
        p = QuantParams(eps=eps, dims=(20_000,), dtype="f64")
        raw = _raw(rng.uniform(-100, 100, 20_000))
        err = np.abs(raw.values - dequantize(quantize(raw, p)).values)
        assert float(err.max()) <= eps

    def test_f32_round_trip_adds_at_most_cast_noise(self):
        rng = np.random.default_rng(9)
        p = QuantParams(eps=1e-5, dims=(50_000,), dtype="f32")
        raw = RawArray(rng.uniform(-100, 100, 50_000), (50_000,), "f32")
        q = quantize(raw, p)
        # the f64 reconstruction grid honors eps exactly
        grid = 2.0 * p.eps * q.bins.astype(np.float64)
        assert float(np.abs(raw.values - grid).max()) <= p.eps
        # the f32 cast may add up to half an ulp of the value on top
        out = dequantize(q).values
        err = np.abs(raw.values.astype(np.float64) - out.astype(np.float64))
        slack = (0.5 * np.spacing(np.abs(out))).astype(np.float64)
        assert np.all(err <= p.eps + slack)


class TestLorenzo:
    """The reference block model that the codec is checked against."""

    def test_example_block(self, example_params):
        q = QuantArray(np.array(EXAMPLE_BINS), example_params)
        (v,) = ref_blocks(q)
        assert v.outlier == -1
        assert list(v.residual_mags) == [0, 0, 2, 0]
        assert list(v.signs) == [0, 0, 1, 0]
        assert v.width == 2 and not v.is_constant

    def test_constant_block(self):
        p = QuantParams(eps=0.1, dims=(4,), block_len=4, dtype="f64")
        (v,) = ref_blocks(QuantArray(np.array([5, 5, 5, 5]), p))
        assert v.outlier == 5 and v.is_constant and v.width == 0

    def test_alternating(self):
        p = QuantParams(eps=0.1, dims=(4,), block_len=4, dtype="f64")
        (v,) = ref_blocks(QuantArray(np.array([0, 1, 0, 1]), p))
        assert v.outlier == 0
        assert list(v.residual_mags) == [0, 1, 1, 1]
        assert list(v.signs) == [0, 0, 1, 0]
        assert v.width == 1

    def test_decode_inverts_example_block(self, example_params):
        v = RefBlock(-1, [0, 0, -2, 0])
        assert list(ref_bins([v], example_params).bins) == EXAMPLE_BINS

    def test_decode_constant(self):
        p = QuantParams(eps=0.1, dims=(4,), block_len=4, dtype="f64")
        v = RefBlock(7, [0, 0, 0, 0])
        assert list(ref_bins([v], p).bins) == [7, 7, 7, 7]

    def test_identity_property(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            p = random_params(rng)
            bins = rng.integers(-(2**31), 2**31, p.element_count)
            q = QuantArray(bins, p)
            s = encode_from_quant(q)
            assert s == reference_stream(q)
            assert decode_to_quant(s) == q

    def test_identity_near_63_bit_bins(self):
        # interior bins near the cap: residuals of 63 and 64 bits take the
        # codec's wide split and checked prefix sums
        p = QuantParams(eps=0.1, dims=(9,), block_len=4, dtype="f64")
        bins = np.array([3, 2**63 - 1, -(2**63 - 1), 2**62, -7, 0, 5, -(2**62), 11])
        q = QuantArray(bins, p)
        s = encode_from_quant(q)
        assert s == reference_stream(q)
        assert decode_to_quant(s) == q

    def test_width_64_round_trip(self):
        # residual magnitude 2^63 + 1 needs all 64 payload bits
        p = QuantParams(eps=0.1, dims=(2,), block_len=2, dtype="f64")
        q = QuantArray(np.array([-2, 2**63 - 1]), p)
        (v,) = ref_blocks(q)
        assert v.width == 64
        s = encode_from_quant(q)
        assert decode_to_quant(s) == q
        assert deserialize(serialize(s)) == s

    def test_decode_rejects_wrong_block_count(self, example_params):
        with pytest.raises(ValueError):
            ref_bins([], example_params)


class TestCompressDecompress:
    def test_example_payload(self, example_stream):
        assert example_stream.payload == b"\x08"

    def test_compress_is_the_composed_pipeline(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = random_params(rng)
            raw = _raw(rng.uniform(-5, 5, p.element_count), dims=p.dims) \
                if p.dtype == "f64" else \
                RawArray(rng.uniform(-5, 5, p.element_count), p.dims, "f32")
            assert compress(raw, p) == reference_stream(quantize(raw, p))

    def test_constant_field_size(self):
        n = 64**3
        p = QuantParams(eps=1e-2, dims=(64, 64, 64), block_len=32, dtype="f32")
        raw = RawArray(np.full(n, 1.0, dtype=np.float32), (64, 64, 64), "f32")
        s = compress(raw, p)
        assert int(s.widths.max()) == 0
        assert s.serialized_size == (20 + 8 * 3) + 5 * p.block_count
        assert s.compression_ratio > 25

    def test_decompress_example_stream(self, example_stream):
        got = decompress(example_stream).values
        expected = np.array([-0.02, -0.02, -0.06, -0.06], dtype=np.float32)
        assert np.array_equal(got, expected)

    def test_end_to_end_error_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            p = random_params(rng, dtypes=("f64",))
            raw = _raw(rng.uniform(-10, 10, p.element_count), dims=p.dims)
            err = np.abs(raw.values - decompress(compress(raw, p)).values)
            assert float(err.max()) <= p.eps

    def test_recompression_is_byte_identical(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            s = random_stream(rng)
            raw = decompress(s)
            assert serialize(compress(raw, s.params)) == serialize(s)

    def test_parallel_determinism(self):
        rng = np.random.default_rng(41)
        p = QuantParams(eps=1e-3, dims=(40, 201), block_len=32, dtype="f64")
        raw = _raw(rng.uniform(-3, 3, p.element_count), dims=p.dims)
        base = compress(raw, p, threads=1)
        for threads in (2, 3, 7):
            assert serialize(compress(raw, p, threads=threads)) == serialize(base)
            assert np.array_equal(decompress(base, threads=threads).values,
                                  decompress(base, threads=1).values)

    def test_out_dtype_is_any_spelling_of_float32_or_float64(self):
        rng = np.random.default_rng(43)
        for dtype in ("f32", "f64"):
            p = QuantParams(eps=1e-3, dims=(9, 7), block_len=4, dtype=dtype)
            s = compress(_raw(rng.uniform(-3, 3, 63), dtype, p.dims), p)
            grid = 2.0 * p.eps * decode_to_quant(s).bins
            for out, want in ((None, dtype), (np.float64, "f64"), (np.dtype("float64"), "f64"),
                              ("float64", "f64"), ("f8", "f64"), (np.float32, "f32"),
                              (np.dtype("float32"), "f32"), ("float32", "f32")):
                got = decompress(s, out_dtype=out)
                assert got.dtype == want, out
                assert np.array_equal(got.values, grid.astype(got.values.dtype))
            for bad in ("f64", np.int64, np.float16, "junk"):
                with pytest.raises(ValueError, match="out_dtype"):
                    decompress(s, out_dtype=bad)

    def test_reconstruction_past_the_dtype_range_raises(self):
        # valid streams whose bins decode, but whose 2 eps bin passes the
        # output dtype's maximum: a codec error, not a usage error
        p = QuantParams(1e38, (4,), 32, "f32")
        s = compress(RawArray(np.array([3e38, 1e38, 0, -3e38], np.float32), (4,), "f32"), p)
        with pytest.raises(QuantOverflow, match="f32 range"):
            decompress(s)
        assert decompress(s, out_dtype=np.float64).values.tolist() == [4e38, 0, 0, -4e38]
        for bins in (np.arange(4), np.zeros(4, np.int64)):  # 2 eps is inf; 0 * inf is NaN
            huge_eps = encode_from_quant(QuantArray(bins, QuantParams(1e308, (4,), 32, "f64")))
            with pytest.raises(QuantOverflow, match="f64 range"):
                decompress(huge_eps)

    def test_dequantize_past_the_dtype_range_raises(self):
        p = QuantParams(1e38, (4,), 32, "f32")
        s = compress(RawArray(np.array([3e38, 1e38, 0, -3e38], np.float32), (4,), "f32"), p)
        q = decode_to_quant(s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "overflow encountered in cast"
            with pytest.raises(QuantOverflow, match="f32 range"):
                dequantize(q)
        assert dequantize(QuantArray(q.bins, QuantParams(1e38, (4,), 32, "f64"))).values.tolist() \
            == [4e38, 0, 0, -4e38]


class TestPartialDecode:
    def test_decode_to_quant_worked_example(self, example_stream):
        assert list(decode_to_quant(example_stream).bins) == EXAMPLE_BINS

    def test_constant_block_zero_outlier(self):
        p = QuantParams(eps=0.1, dims=(8,), block_len=8, dtype="f64")
        s = encode_from_quant(QuantArray(np.zeros(8, np.int64), p))
        assert not np.any(decode_to_quant(s).bins)

    def test_composition_matches_decompress(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            s = random_stream(rng)
            assert np.array_equal(dequantize(decode_to_quant(s)).values,
                                  decompress(s).values)

    def test_encode_from_quant_inverts(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            s = random_stream(rng)
            assert encode_from_quant(decode_to_quant(s)) == s

    def test_rescaled_example_block(self):
        p = QuantParams(eps=0.01, dims=(2, 2), block_len=32, dtype="f32")
        s = encode_from_quant(QuantArray(np.array([-3, -3, -9, -9]), p))
        assert s == reference_stream(decode_to_quant(s))
        (v,) = ref_blocks(decode_to_quant(s))
        assert v.outlier == -3
        assert list(v.residual_mags) == [0, 0, 6, 0]
        assert list(v.signs) == [0, 0, 1, 0]


class TestRangeDecode:
    """Decode runs over block-aligned ranges of ``codec._RANGE_ELEMS``
    elements; these sizes put block and range edges next to each other and
    62/63/64-bit-wide blocks inside a middle range and the ragged last one."""

    @pytest.mark.parametrize("k", [32, 33])
    def test_sizes_at_range_edges(self, k):
        rng = np.random.default_rng(k)
        for n in range_sizes(k):
            p = QuantParams(0.5, (n,), k, "f64")
            bins, wide = wide_block_bins(rng, n, k)
            q = QuantArray(bins, p)
            s = encode_from_quant(q)
            assert {b: int(s.widths[b]) for b in wide} == wide
            assert s == reference_stream(q)
            assert decode_to_quant(s) == q
            assert np.array_equal(decompress(s, out_dtype=np.float64).values,
                                  bins.astype(np.float64))

    def test_wide_range_between_narrow_ones(self):
        # only the middle range takes the wide split and checked prefix
        # sums; its neighbours stay on the plain path and must still line
        # up with it
        k = 32
        n = range_sizes(k)[-1]
        p = QuantParams(0.5, (n,), k, "f64")
        bins = np.arange(n, dtype=np.int64) % 5
        mid = codec._RANGE_ELEMS + 3 * k  # the start of a block in range 1
        bins[mid : mid + 2] = [-(2**31), 2**63 - 1]
        s = encode_from_quant(QuantArray(bins, p))
        assert int(s.widths.max()) == 64
        assert np.array_equal(decode_to_quant(s).bins, bins)

    def test_prefix_sum_of_int64_residuals_past_63_bits_raises(self):
        # every residual fits in int64, but the outlier shifted up by
        # 2^31 - 1 carries the block's prefix sum past 2^63 - 1, where
        # int64 scalars would wrap back into range
        p = QuantParams(0.5, (4,), 4, "f64")
        s = encode_from_quant(QuantArray(np.array([0, 2**62, 2**63 - 1, 2**63 - 9]), p))
        shifted = CompressedStream(p, s.widths, s.outliers.astype(np.int64) + 2**31 - 1,
                                   s.sign_planes, s.payload)
        for call in (decode_to_quant, decompress):
            with pytest.raises(QuantOverflow, match="prefix sum"):
                call(shifted)


class TestBlockRanges:
    """Every codec range holds whole blocks of one length: a ragged last
    block is a range of its own."""

    @pytest.mark.parametrize("k", [1, 8, 13, 32, 33, 65539])
    def test_ranges_tile_the_blocks(self, k):
        for n in sorted({*range_sizes(k), 1, k - 1, k + 1} - {0}):
            p = QuantParams(0.5, (n,), k, "f64")
            ranges = list(codec._block_ranges(p))
            # in order, back to back, from block 0 to the last block
            assert [b0 for b0, *_ in ranges] == [0] + [b1 for _, b1, *_ in ranges[:-1]]
            assert ranges[-1][1] == p.block_count
            assert all(b0 < b1 for b0, b1, *_ in ranges)
            whole = ranges
            if n % k:  # the ragged last block alone, at its own length
                assert ranges[-1] == (n // k, n // k + 1, n % k, slice(n - n % k, n))
                whole = ranges[:-1]
            assert all(rk == k and b1 * k <= n for _, b1, rk, _ in whole)
            # the element slices tile the elements, each its blocks' length
            assert [e.start for *_, e in ranges] == [0] + [e.stop for *_, e in ranges[:-1]]
            assert ranges[-1][3].stop == n
            lengths = [e.stop - e.start for *_, e in ranges]
            assert lengths == [(b1 - b0) * rk for b0, b1, rk, _ in ranges]
            # lengths never increase: _decode_range reuses the first
            # range's buffer for the others
            assert lengths == sorted(lengths, reverse=True)


class TestSectionLayout:
    """A stream's cached ``offsets`` follow the one section-size rule, and
    :func:`codec._decode_range` slices from them what each range needs to
    decode alone."""

    @staticmethod
    def _streams(k):
        """``(bins, stream)`` pairs at block length ``k``."""
        rng = np.random.default_rng(k)
        r = max(1, codec._RANGE_ELEMS // k)
        for n in range_sizes(k):
            p = QuantParams(0.5, (n,), k, "f64")
            bins = rng.integers(-40, 40, n)
            for b in range(p.block_count):
                # the first range and every third block after it are constant
                if b < r or b % 3 == 0:
                    bins[b * k : (b + 1) * k] = bins[b * k]
            for q in (QuantArray(bins, p), QuantArray(np.full(n, 7), p)):  # all constant
                yield q.bins, encode_from_quant(q)

    @pytest.mark.parametrize("k", [1, 13, 32, 33])
    def test_offsets_are_cumulative_section_sizes(self, k):
        for _, s in self._streams(k):
            for offs, sizes, section in zip(s.offsets, model.section_sizes(s.params, s.widths),
                                            (s.sign_planes, s.payload)):
                assert offs.dtype == np.int64 and not offs.flags.writeable
                assert offs.tolist() == [0, *np.cumsum(sizes).tolist()]
                assert offs[-1] == len(section)

    @pytest.mark.parametrize("k", [1, 13, 32, 33])
    def test_stream_ranges_match_the_per_range_rule(self, k):
        # each range decodes alone, into a fresh buffer, at both depths
        for bins, s in self._streams(k):
            for b0, b1, rk, e in codec._block_ranges(s.params):
                blocks = bins[e].reshape(-1, rk)
                resid = np.diff(blocks, axis=1, prepend=blocks[:, :1])  # 0 at block starts
                for depth, want in ((True, blocks), (False, resid)):
                    out = np.full(blocks.size, -(2**40), dtype=np.int64)
                    got = codec._decode_range(s, b0, b1, rk, out=out, bins=depth)
                    assert got.tolist() == want.ravel().tolist()

    def test_deserialized_stream_keeps_the_parsed_layout(self):
        for _, s in self._streams(13):
            back = deserialize(serialize(s))
            assert back == s
            assert all(a.tolist() == b.tolist() for a, b in zip(back.offsets, s.offsets))


class TestCanonicalForm:
    """FORMAT.md: a stream that ``deserialize`` accepts but that is not
    canonical decodes to the same bins as its canonical form and re-encodes
    canonically."""

    @pytest.mark.parametrize("w, signs, mags", [
        (3, [0, 0, 0, 0, 0, 1, 1, 1], [0, 1, 1, 1, 0, 1, 1, 1]),  # width 3 where 1 suffices
        (1, [0, 0, 0, 0, 1, 1, 1, 1], [0, 1, 1, 1, 0, 1, 1, 1]),  # sign 1 on a zero magnitude
        (1, [1, 0, 0, 0, 0, 1, 1, 1], [1, 1, 1, 1, 0, 1, 1, 1]),  # a stored block-start slot
    ])
    def test_non_canonical_stream_re_encodes_canonically(self, w, signs, mags):
        p = QuantParams(0.5, (8,), 8, "f64")
        stream = CompressedStream(p, [w], [0], ref_pack_row(signs, 1), ref_pack_row(mags, w))
        data = serialize(stream)
        q = decode_to_quant(deserialize(data))
        assert q.bins.tolist() == [0, 1, 2, 3, 3, 2, 1, 0]
        canonical = encode_from_quant(q)
        assert canonical == reference_stream(q) and int(canonical.widths[0]) == 1
        assert serialize(canonical) != data
        assert encode_from_quant(decode_to_quant(canonical)) == canonical

    def test_padding_bits_are_ignored(self):
        # bins 0,1,2,2,1,0 in one ragged block of 6: two padding bits in
        # the sign row and in the payload row, here set to 1
        p = QuantParams(0.5, (6,), 8, "f64")
        canonical = encode_from_quant(QuantArray(np.array([0, 1, 2, 2, 1, 0]), p))
        assert canonical.sign_planes == bytes([0b00001100])
        assert canonical.payload == bytes([0b01101100])
        padded = CompressedStream(p, canonical.widths, canonical.outliers,
                                  bytes([0b00001111]), bytes([0b01101111]))
        q = decode_to_quant(deserialize(serialize(padded)))
        assert q.bins.tolist() == [0, 1, 2, 2, 1, 0]
        assert encode_from_quant(q) == canonical


class TestRangeEncode:
    """Encode runs over the same block-aligned ranges as decode; every
    encode must equal the stream that the reference block model and the
    reference packer assemble."""

    @pytest.mark.parametrize("k", [32, 33])
    def test_sizes_at_range_edges(self, k):
        rng = np.random.default_rng(400 + k)
        r = codec._RANGE_ELEMS // k
        for n in range_sizes(k):
            # the first range wholly constant, 62/63/64-bit blocks in the
            # middle range and the ragged last one
            p = QuantParams(0.5, (n,), k, "f64")
            bins, wide = wide_block_bins(rng, n, k, constant_first_range=True)
            q = QuantArray(bins.copy(), p)
            s = encode_from_quant(q)
            assert np.array_equal(q.bins, bins)  # the input is not clobbered
            assert {b: int(s.widths[b]) for b in wide} == wide
            assert s == reference_stream(q)
            if n > 2 * r * k:
                assert not s.widths[:r].any()

            p32 = QuantParams(1e-3, (n,), k, "f32")
            values = rng.uniform(-5, 5, n).astype(np.float32)
            values[: r * k] = np.repeat(rng.uniform(-5, 5, r), k)[: min(n, r * k)]
            raw = RawArray(values, (n,), "f32")
            c = compress(raw, p32)
            assert c == reference_stream(quantize(raw, p32))
            assert not c.widths[: min(r, p32.block_count - 1)].any()

    def test_wide_bins_split_per_range(self):
        # every range splits into bool signs and uint64 magnitudes, exact
        # also in the ranges holding a bin past 2^62, whose differences
        # pass 63 bits
        k = 32
        n = range_sizes(k)[-1]
        p = QuantParams(0.5, (n,), k, "f64")
        bins, _ = wide_block_bins(np.random.default_rng(409), n, k)
        wide = []
        for *_, e in codec._block_ranges(p):
            part = bins[e]
            neg, mags = codec._split_residuals(part, k)
            assert (neg.dtype, mags.dtype) == (np.bool_, np.uint64)
            xs = part.tolist()
            want = [0 if i % k == 0 else xs[i] - xs[i - 1] for i in range(len(xs))]
            assert neg.tolist() == [d < 0 for d in want]
            assert mags.tolist() == [abs(d) for d in want]
            wide.append(max(map(abs, want)) > 2**63 - 1)
        assert wide == [False, True, True]

    @pytest.mark.parametrize("where", [1, 2])
    def test_quant_overflow_in_one_range(self, where):
        k = 32
        n = range_sizes(k)[-1]
        p = QuantParams(1e-3, (n,), k, "f64")
        values = np.random.default_rng(419).uniform(-1, 1, n)
        values[where * codec._RANGE_ELEMS + 5] = 1e300
        raw = _raw(values)
        for call in (compress, quantize):
            with pytest.raises(QuantOverflow, match="63-bit"):
                call(raw, p)


class TestRangeWalk:
    """``codec._lockstep`` is the one range walk and ``_encode_ranges``
    drives it, asking ``part`` for each range's input."""

    @pytest.mark.parametrize("k", [32, 33])
    def test_part_once_per_range_in_order(self, k):
        # the first range is constant: the rule finishes it from the
        # outliers, and part is asked for each later range, in order; where
        # part answers None (the ragged last block) the rule gets the bins
        n = range_sizes(k)[-1]  # two ranges and a half, then a ragged block
        p = QuantParams(0.5, (n,), k, "f64")
        bins, _ = wide_block_bins(np.random.default_rng(431 + k), n, k,
                                  constant_first_range=True)
        s = encode_from_quant(QuantArray(bins, p))
        ranges = list(codec._block_ranges(p))
        calls, decoded, ruled = [], [], []

        def part(b0, b1, rk, e, decode):
            calls.append((b0, b1, rk, e))
            if calls[-1] == ranges[-1]:
                return None
            decoded.append(decode(0))
            assert np.array_equal(decoded[-1], bins[e])
            return decoded[-1]

        def rule(xs):
            ruled.append(xs[0].tolist())
            return xs[0]

        assert codec._encode_ranges(p, part, [s], rule) == s
        assert calls == ranges[1:]
        assert calls[-1][2] == n % k > 0
        (b0, b1, *_), e = ranges[0], ranges[-1][3]
        assert ruled == [s.outliers[b0:b1].tolist(), bins[e].tolist()]
        # every range decodes into the buffer made for the first that needs one
        assert all(np.shares_memory(x, decoded[0]) for x in decoded)

    def test_params_mismatch_before_any_part_or_decode(self, monkeypatch):
        p = QuantParams(0.5, (100,), 8, "f64")
        bins = np.arange(100, dtype=np.int64)
        a = encode_from_quant(QuantArray(bins, p))
        b = encode_from_quant(QuantArray(bins, QuantParams(0.25, (100,), 8, "f64")))
        decodes, parts = [], []
        for name in ("_decode_range", "_decode_compact"):
            monkeypatch.setattr(codec, name, lambda *args, name=name: decodes.append(name))
        with pytest.raises(ParamsMismatch, match="operand params differ"):
            codec._encode_ranges(p, lambda *r: parts.append(r), [a, b])
        for call in (ops.elementwise_add, ops.hadamard, ops.covariance):
            with pytest.raises(ParamsMismatch):
                call(a, b)
        assert (parts, decodes) == ([], [])


def width_bins(rng, widths, k, n):
    """Bins of ``n`` elements in blocks of ``k`` whose blocks have exactly
    the given residual widths (0: a constant block)."""
    bins = np.empty(n, dtype=np.int64)
    for b, w in enumerate(widths):
        blk = bins[b * k : b * k + k]
        resid = rng.integers(-(2**w) + 1, 2**w, blk.size) if w else np.zeros(blk.size, np.int64)
        resid[0] = rng.integers(-1000, 1000)  # the outlier
        if w and blk.size > 1:
            resid[1] = 2 ** (w - 1)
        np.cumsum(resid, out=blk)
    return bins


class TestBlockChunks:
    """Runs of equal width are counted over a range's non-constant blocks;
    a range of few runs moves each run as one slice of the compact rows and
    of the payload, otherwise its rows are gathered by width.  Both paths
    must give the reference bytes, and decode back."""

    @pytest.mark.parametrize("k", [32, 33])
    @pytest.mark.parametrize("case", ["one width", "few runs", "interleaved"])
    def test_matches_reference(self, k, case):
        rng = np.random.default_rng(k)
        n = range_sizes(k)[-1]  # three ranges and a ragged tail block
        p = QuantParams(0.5, (n,), k, "f64")
        if case == "interleaved":
            widths = rng.integers(0, 12, p.block_count)
        else:
            widths = np.full(p.block_count, 10)
        if case == "few runs":  # constant and 7-bit blocks between 10-bit runs
            widths[700::1500] = 0
            widths[900::1500] = 7
        q = QuantArray(width_bins(rng, widths, k, n), p)
        s = encode_from_quant(q)
        assert s.widths.tolist() == widths.tolist()
        assert s == reference_stream(q)
        assert decode_to_quant(s) == q
        by_slice = {isinstance(rows, slice)
                    for b0, b1, *_ in codec._block_ranges(p)
                    for _, _, rows in codec._block_chunks(s.widths[b0 : min(b1, n // k)])}
        assert by_slice == ({False} if case == "interleaved" else {True})

    def test_one_odd_block_keeps_slices(self):
        # noise-like data: one 9-bit block among the 10-bit blocks of a
        # range, and a constant block that no longer splits a run
        k, n = 32, codec._RANGE_ELEMS
        p = QuantParams(0.5, (n,), k, "f64")
        widths = np.full(n // k, 10)
        widths[n // k // 2] = 9
        widths[n // k // 4] = 0
        s = encode_from_quant(QuantArray(width_bins(np.random.default_rng(5), widths, k, n), p))
        assert s.widths.tolist() == widths.tolist()
        chunks = list(codec._block_chunks(s.widths))
        assert [w for w, _, _ in chunks] == [10, 9, 10]
        assert all(isinstance(rows, slice) for _, _, rows in chunks)
        assert [isinstance(ids, slice) for _, ids, _ in chunks] == [False, True, True]
        offs = codec._section_offsets(model.section_sizes(p, s.widths)[1])
        payload = np.frombuffer(s.payload, np.uint8)
        assert all(codec._row_slots(payload, offs, ids, 4 * w)[1] == slice(None)
                   for w, ids, _ in chunks)  # each run's payload is one slice


class TestCompactDecode:
    """Decode unpacks, signs and prefix-sums only a range's non-constant
    blocks, as compact rows, and fills the constant blocks from their
    outliers (zeros for residuals); every mix must decode to its bins."""

    @staticmethod
    def _widths(case, rng, nb):
        if case == "all constant":
            return np.zeros(nb, np.int64)
        widths = rng.integers(1, 12, nb)
        if case != "no constant":
            widths[rng.random(nb) < 0.5] = 0
        if case == "constant tail":
            widths[-1] = 0
        if case == "non-constant tail":
            widths[-1] = 5
        return widths

    @pytest.mark.parametrize("k", [32, 13])
    @pytest.mark.parametrize("case", ["all constant", "no constant", "interleaved",
                                      "constant tail", "non-constant tail"])
    def test_round_trip(self, k, case):
        rng = np.random.default_rng(k)
        n = range_sizes(k)[-1]  # three ranges, the last one a ragged block
        if case == "no constant":
            n = range_sizes(k)[1]  # full blocks only
        p = QuantParams(0.5, (n,), k, "f64")
        q, other = (QuantArray(width_bins(rng, self._widths(case, rng, p.block_count), k, n), p)
                    for _ in range(2))
        a, b = encode_from_quant(q), encode_from_quant(other)
        assert a == reference_stream(q)
        if case == "interleaved":  # many runs: rows gathered by width
            chunks = codec._block_chunks(a.widths[: n // k])
            assert any(isinstance(rows, np.ndarray) for _, _, rows in chunks)
        assert decode_to_quant(a) == q
        assert np.array_equal(decompress(a, out_dtype=np.float64).values,
                              q.bins.astype(np.float64))
        for op, call in (("eadd", ops.elementwise_add), ("esub", ops.elementwise_sub)):
            assert np.array_equal(decompress(call(a, b), out_dtype=np.float64).values,
                                  ops.oracle_apply(op, [a, b]).values)

    def test_wide_blocks_between_constant_ones(self):
        # 64-bit residuals take the wide split; the constant blocks around
        # them hold outliers at the int32 limits
        k, n = 32, 3 * codec._RANGE_ELEMS
        p = QuantParams(0.5, (n,), k, "f64")
        rng = np.random.default_rng(23)
        widths = rng.integers(1, 12, p.block_count)
        widths[rng.random(p.block_count) < 0.5] = 0
        bins = width_bins(rng, widths, k, n)
        blocks = bins.reshape(-1, k)
        for b in np.flatnonzero(widths == 0)[::7]:
            blocks[b] = rng.choice([-(2**31), 2**31 - 1])
        wide = np.flatnonzero(widths)[1::300]
        blocks[wide, :3] = [-(2**31), 2**63 - 1, 5]
        blocks[wide, 3:] = 5
        q = QuantArray(bins, p)
        s = encode_from_quant(q)
        assert set(s.widths[wide].tolist()) == {64}
        assert s == reference_stream(q)
        assert decode_to_quant(s) == q
        zeros = encode_from_quant(QuantArray(np.zeros(n, np.int64), p))
        assert decode_to_quant(ops.elementwise_add(s, zeros)) == q
        assert not decode_to_quant(ops.elementwise_sub(s, s)).bins.any()


class TestSlotMajorDecode:
    """Decode holds a range's non-constant blocks slot-major, ``(k,
    blocks)``: a range whose widths are all at most 8 unpacks in one
    gather, any other by width, and a block length that is not a multiple
    of 8 pads the matrix to whole groups of 8 slots.  Each case is checked
    range by range against the independent block model, at bin and at
    residual depth, compact and scattered into the whole range."""

    @staticmethod
    def _check(q):
        s = encode_from_quant(q)
        assert s == reference_stream(q)
        blocks = ref_blocks(q)
        for b0, b1, k, _ in codec._block_ranges(q.params):
            rng_blocks = blocks[b0:b1]
            nz = [i for i, b in enumerate(rng_blocks) if not b.is_constant]
            want = {True: [[b.outlier + x for x in accumulate(b.residuals)] for b in rng_blocks],
                    False: [b.residuals for b in rng_blocks]}
            for bins in (True, False):
                rows, got_nz, outliers = codec._decode_compact(s, b0, b1, k, bins=bins)
                assert got_nz.tolist() == nz
                assert outliers.tolist() == [b.outlier for b in rng_blocks]
                assert rows.shape == (k, len(nz))
                assert rows.T.tolist() == [want[bins][i] for i in nz]
                whole = codec._decode_range(s, b0, b1, k, bins=bins)
                assert whole.tolist() == [x for i, b in enumerate(rng_blocks)
                                          for x in (want[bins][i] if bins or i in nz
                                                    else [0] * len(b.residuals))]
        assert decode_to_quant(s) == q
        return s

    @pytest.mark.parametrize("k", [32, 13])
    def test_one_range_mixes_narrow_and_wide_widths(self, k):
        rng = np.random.default_rng(k)
        n = 3000 * k + k // 2  # a range of whole blocks, then a ragged one
        widths = np.resize([3, 8, 0, 9, 12, 1, 0, 30], -(-n // k))
        s = self._check(QuantArray(width_bins(rng, widths, k, n), QuantParams(0.5, (n,), k, "f64")))
        assert s.widths.tolist() == widths.tolist()
        # past _SLICE_RUNS runs with widths over 8: the chunks group by
        # width, and unpack into index-array columns
        chunks = list(codec._block_chunks(s.widths[: codec._RANGE_ELEMS // k]))
        assert any(not isinstance(rows, slice) for *_, rows in chunks)

    @pytest.mark.parametrize("widths", [[8], [9], [8, 9], [8, 0], [9, 0]])
    def test_width_8_and_width_9(self, widths):
        k, n = 32, 1000 * 32 + 17
        rng = np.random.default_rng(sum(widths) + len(widths))
        ws = np.resize(widths, -(-n // k))
        ws[-1] = widths[0]
        s = self._check(QuantArray(width_bins(rng, ws, k, n), QuantParams(0.5, (n,), k, "f64")))
        assert s.widths.tolist() == ws.tolist()

    @pytest.mark.parametrize("k", [5, 12, 13, 33, 300])
    @pytest.mark.parametrize("top", [8, 12])
    def test_block_lengths_off_the_group_size(self, k, top):
        # k % 8 != 0: the matrix takes whole groups of 8 slots; a full
        # range, a short one and a ragged last block, narrow (widths up to
        # 8) or mixed; blocks of 300 take the prefix sums in one cumsum
        rng = np.random.default_rng(k * top)
        n = (codec._RANGE_ELEMS // k + 40) * k + k // 2
        widths = rng.integers(0, top + 1, -(-n // k))
        s = self._check(QuantArray(width_bins(rng, widths, k, n), QuantParams(0.5, (n,), k, "f64")))
        assert s.widths.tolist() == widths.tolist()

    @pytest.mark.parametrize("tail, w", [(2, 1), (3, 2), (5, 8), (7, 8), (13, 3), (31, 1)])
    def test_last_row_ends_inside_the_last_eight_bytes(self, tail, w):
        # the section's last row is 1-7 bytes long: every window of the
        # narrow gather there reads past the end of the payload
        k = 32
        n = 100 * k + tail
        widths = np.resize([5, 0, 8], -(-n // k))
        widths[-1] = w
        rng = np.random.default_rng(tail * 8 + w)
        s = self._check(QuantArray(width_bins(rng, widths, k, n), QuantParams(0.5, (n,), k, "f64")))
        assert 1 <= (tail * w + 7) // 8 <= 7 and s.widths[-1] == w

    @pytest.mark.parametrize("k", [5, 13])
    def test_full_last_block_ends_inside_the_last_eight_bytes(self, k):
        # no ragged block: the last full block's row is under 8 bytes
        n = (codec._RANGE_ELEMS // k + 40) * k
        widths = np.resize([0, 4, 7, 1], n // k)
        widths[-1] = 3
        s = self._check(QuantArray(width_bins(np.random.default_rng(k), widths, k, n),
                                   QuantParams(0.5, (n,), k, "f64")))
        assert (k * 3 + 7) // 8 < 8 and s.widths[-1] == 3


class TestLossinessLocalization:
    """Quantization is the only lossy stage; everything after it is exact."""

    def test_residual_and_packing_stages_are_exact(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            p = random_params(rng)
            bins = rng.integers(-(2**20), 2**20, p.element_count)
            bins[:: p.block_len] = rng.integers(-(2**31), 2**31,
                                                bins[:: p.block_len].size)
            q = QuantArray(bins, p)
            assert decode_to_quant(encode_from_quant(q)) == q


def unpack_rows(rows, k, w):
    """The ``(blocks, k)`` magnitudes of byte rows ``rows`` through the
    slot-major unpack kernel, written as decode writes a chunk: into
    columns of a wider matrix, once a slice (a run of blocks) and once an
    index array (blocks grouped by width).  The other columns must stay
    untouched, and both must give the same magnitudes."""
    slots, g = (k + 7) // 8 * 8, rows.shape[0]
    got = []
    for cols in (slice(2, 2 + g), 1 + 2 * np.arange(g)):
        wide = np.full((slots, 2 * g + 3), 7, dtype=np.uint64)
        assert codec._unpack_mag_rows(rows, k, w, wide, cols) is wide
        rest = np.ones(wide.shape[1], dtype=bool)
        rest[cols] = False
        assert (wide[:, rest] == 7).all()
        got.append(wide[:k, cols].T)
    assert np.array_equal(*got)
    return got[0]


def gather_rows(rows, k, ws):
    """The ``(blocks, k)`` magnitudes of byte rows ``rows`` (a list of
    bytes, block ``i`` at width ``ws[i]`` of at most 8) through the narrow
    gather: the rows back to back in a section at an odd offset, a constant
    block before each one, and the last row ending the section."""
    ws = np.asarray(ws)
    widths = np.zeros(2 * len(rows), dtype=np.uint8)
    widths[1::2] = ws
    sizes = np.zeros(2 * len(rows), dtype=np.int64)
    sizes[1::2] = [len(r) for r in rows]
    offs = 3 + codec._section_offsets(sizes)
    section = np.frombuffer(b"\xff" * 3 + b"".join(rows), dtype=np.uint8)
    nz = np.flatnonzero(widths)
    out = np.full(((k + 7) // 8 * 8, nz.size), 7, dtype=np.uint64)
    assert codec._gather_narrow(section, offs, widths, nz, out) is out
    return out[:k].T


class TestBitPacking:
    @pytest.mark.parametrize("k", [1, 3, 7, 8, 13, 32, 64])
    def test_kernels_match_reference_packer(self, k):
        rng = np.random.default_rng(k)
        for w in range(1, 65):
            mat = rng.integers(0, 2**64, (4, k), dtype=np.uint64) >> np.uint64(64 - w)
            mat[:, 0] = 0
            mat[int(k == 1):, -1] = 2**w - 1  # with k == 1, row 0 keeps the 0
            ref = np.array([list(ref_pack_row(row.tolist(), w)) for row in mat],
                           dtype=np.uint8)
            assert np.array_equal(codec._pack_mag_rows(mat, w), ref), w
            assert np.array_equal(unpack_rows(ref, k, w), mat), w
            if w <= 8:
                assert np.array_equal(gather_rows([r.tobytes() for r in ref], k, [w] * 4), mat), w

    @pytest.mark.parametrize("k", [1, 3, 7, 8, 13, 32, 64])
    def test_narrow_gather_mixes_widths(self, k):
        # one gather splits every width 1..8 at once, each block by its own
        # shift and mask
        rng = np.random.default_rng(90 + k)
        ws = np.tile(np.arange(1, 9), 3)
        mat = rng.integers(0, 256, (ws.size, k), dtype=np.uint64) >> (8 - ws[:, None]).astype(np.uint64)
        mat[:, -1] = (1 << ws) - 1
        rows = [ref_pack_row(row.tolist(), int(w)) for row, w in zip(mat, ws)]
        assert np.array_equal(gather_rows(rows, k, ws), mat)

    @pytest.mark.parametrize("k", [1, 3, 7, 8, 13, 32, 64])
    def test_unpack_reads_row_views(self, k):
        # the rows as decode passes them: a read-only view into a larger
        # byte buffer, starting at an odd byte offset
        rng = np.random.default_rng(70 + k)
        for w in range(1, 65):
            mat = rng.integers(0, 2**64, (5, k), dtype=np.uint64) >> np.uint64(64 - w)
            packed = b"".join(ref_pack_row(row.tolist(), w) for row in mat)
            buf = np.frombuffer(b"\xff" * 3 + packed + b"\xff" * 5, dtype=np.uint8)
            rows = buf[3 : 3 + len(packed)].reshape(5, -1)
            assert np.array_equal(unpack_rows(rows, k, w), mat), w

    def test_stream_matches_reference_packer(self):
        # 8 full blocks of 12 and a ragged tail of 4; widths 0 (constant) to 64
        rng = np.random.default_rng(61)
        k, n = 12, 100
        p = QuantParams(eps=0.5, dims=(n,), block_len=k, dtype="f64")
        bins = np.zeros(n, dtype=np.int64)
        for b, e in enumerate([0, 1, 4, 9, 17, 33, 50, 64, 10]):
            blk = bins[b * k : b * k + k]
            blk[0] = rng.integers(-(2**31), 2**31)
            if e == 0:
                blk[1:] = blk[0]
            elif e == 64:
                blk[1:] = [(-1) ** i * 2**62 for i in range(blk.size - 1)]
            else:
                blk[1:] = blk[0] + rng.integers(-(2 ** (e - 1)), 2 ** (e - 1), blk.size - 1)
        widths, outliers, signs, payload = [], [], b"", b""
        for s in range(0, n, k):
            blk = bins[s : s + k].tolist()
            res = [0] + [y - x for x, y in zip(blk, blk[1:])]
            w = max(abs(r) for r in res).bit_length()
            widths.append(w)
            outliers.append(blk[0])
            if w:
                signs += ref_pack_row([r < 0 for r in res], 1)
                payload += ref_pack_row([abs(r) for r in res], w)
        assert widths[0] == 0 and 64 in widths
        ref = CompressedStream(p, widths, outliers, signs, payload)
        got = encode_from_quant(QuantArray(bins, p))
        assert serialize(got) == serialize(ref)
        assert np.array_equal(decode_to_quant(ref).bins, bins)


class TestRawIO:
    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(61)
        raw = _raw(rng.uniform(-1, 1, 60), dims=(3, 20))
        path = tmp_path / "field.bin"
        write_raw(raw, path)
        back = read_raw(path, (3, 20), "f64")
        assert back == raw

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "short.bin"
        np.zeros(3, dtype="<f4").tofile(path)
        with pytest.raises(GeometryMismatch):
            read_raw(path, (4,), "f32")

    def test_dims_past_int64_are_counted_exactly(self, tmp_path):
        # 2^32 * 2^32 elements wrap to 0 in int64, the size of an empty file
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(GeometryMismatch, match="imply 18446744073709551616"):
            read_raw(path, (2**32, 2**32), "f32")

    @pytest.mark.parametrize("dims", [(-1, -1), (2.7,), (True, 2), (0, 2)])
    def test_one_dims_rule(self, tmp_path, dims):
        path = tmp_path / "two.bin"
        np.zeros(2, dtype="<f4").tofile(path)
        for call in (lambda: RawArray(np.zeros(2), dims, "f64"),
                     lambda: QuantParams(0.1, dims),
                     lambda: read_raw(path, dims, "f32"),
                     lambda: random_field(dims)):
            with pytest.raises(ValueError, match="dims"):
                call()

    def test_value_count_checked(self):
        with pytest.raises(ValueError, match="got 3 values for dims"):
            RawArray(np.zeros(3), (2, 2), "f64")

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            RawArray(np.array([1.0, np.nan]), (2,), "f64")
        with pytest.raises(ValueError):
            RawArray(np.array([np.inf, 0.0]), (2,), "f32")

    def test_unknown_dtype_is_value_error(self, tmp_path):
        # 16 bytes: 2 values when read as f64, 4 as f32
        path = tmp_path / "sixteen.bin"
        np.zeros(8, dtype="<f2").tofile(path)
        for call in (lambda: read_raw(path, (2,), "f16"),
                     lambda: read_raw(path, (4,), "f16"),
                     lambda: RawArray(np.zeros(4), (4,), "f16")):
            with pytest.raises(ValueError, match=r"one of \['f32', 'f64'\], got 'f16'"):
                call()

    @pytest.mark.parametrize("dtype, code", [("f32", "<f4"), ("f64", "<f8")])
    def test_write_read_keeps_the_little_endian_bytes(self, tmp_path, dtype, code):
        info = np.finfo(code)
        values = np.array([-0.0, 1.0, -1.5, np.pi, info.max, -info.max, info.tiny,
                           info.smallest_subnormal], dtype=code)
        src, out = tmp_path / "in.bin", tmp_path / "out.bin"
        src.write_bytes(values.tobytes())
        raw = read_raw(src, (2, 4), dtype)
        assert raw.nbytes == src.stat().st_size
        write_raw(raw, out)
        assert out.read_bytes() == src.read_bytes()


class TestRelativeEps:
    def test_resolves_against_value_range(self):
        raw = _raw([0.0, 2.0, 6.0, 10.0])
        assert resolve_eps(raw, 1e-2, "rel") == pytest.approx(0.1, rel=0, abs=0)
        assert resolve_eps(raw, 0.5, "abs") == 0.5
        with pytest.raises(ValueError):
            resolve_eps(raw, 1e-2, "percent")

    def test_resolved_eps_lands_in_header(self):
        raw = _raw([0.0, 2.0, 6.0, 10.0])
        eps = resolve_eps(raw, 1e-2, "rel")
        p = QuantParams(eps, (4,), 32, "f64")
        s = compress(raw, p)
        assert deserialize(serialize(s)).params.eps == 0.1

    def test_zero_range_input_rejected(self):
        raw = _raw([3.0, 3.0, 3.0])
        with pytest.raises(ValueError):
            QuantParams(resolve_eps(raw, 1e-4, "rel"), (3,), 32, "f64")

    def test_zero_range_is_named(self):
        with pytest.raises(ValueError, match="nonzero value range, but every value is 3.0"):
            resolve_eps(_raw([3.0, 3.0, 3.0]), 1e-4, "rel")


@settings(max_examples=100, deadline=None)
@given(
    # |value| / (2 eps) must stay inside the signed-32-bit outlier slot
    values=st.lists(st.floats(-1e5, 1e5, allow_nan=False, width=64), min_size=1,
                    max_size=200),
    eps=st.sampled_from([1e-4, 1e-2, 1.0, 0.125]),
    block_len=st.sampled_from([1, 3, 32]),
)
def test_error_bound_property(values, eps, block_len):
    p = QuantParams(eps=eps, dims=(len(values),), block_len=block_len, dtype="f64")
    raw = _raw(values)
    restored = decompress(compress(raw, p)).values
    assert float(np.abs(raw.values - restored).max()) <= eps * (1 + 1e-9)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_quant_domain_round_trip_property(seed):
    s = random_stream(seed)
    q = decode_to_quant(s)
    assert encode_from_quant(q) == s
    assert s == reference_stream(q)


def _corpus_digest():
    """sha256 over the serialized bytes of ``compress`` and of every stream
    operation, the ``repr`` of every reduction, the decoded bins and values
    and the exception types, over a small seeded corpus: noise (with
    mixed-width ranges), cloud (most blocks constant) and smooth fields,
    at block_len 32 and 13, on a ragged length."""
    h = hashlib.sha256()

    def put(label, data):
        h.update(label.encode() + b"\0" + data)

    def result(op, streams, scalar=None):
        try:
            out = ops.apply(op, streams, scalar)
        except (HoszpError, ValueError) as e:
            return type(e).__name__.encode()
        return repr(out).encode() if ops.OPS[op].reduction else serialize(out)

    dims = (250, 283)  # 70750 elements: two ranges, ragged at k = 32 and 13

    def walk(seed):
        # smooth data from adds alone, which round the same on every platform
        # (a cosine field may not)
        return np.cumsum(np.random.default_rng(seed).uniform(-1, 1, dims[0] * dims[1])) * 0.01

    noise = [random_field(dims, seed) for seed in (3, 4)]
    cloud = [RawArray(np.maximum(walk(seed), 0), dims, "f32") for seed in (5, 6)]
    smooth = [RawArray(walk(seed), dims, "f64") for seed in (7, 8)]
    mixed = 0
    for name, fields, eps in (("noise", noise, 1e-3), ("cloud", cloud, 1e-4),
                              ("smooth", smooth, 1e-3)):
        for k in (32, 13):
            p = QuantParams(eps, dims, k, fields[0].dtype)
            streams = [compress(f, p) for f in fields]
            tag = f"{name}/{k}"
            for i, s in enumerate(streams):
                put(f"{tag}/compress{i}", serialize(s))
                put(f"{tag}/bins{i}", decode_to_quant(s).bins.tobytes())
                put(f"{tag}/values{i}", decompress(s).values.tobytes())
                for b0, b1, *_ in codec._block_ranges(p):
                    ws = s.widths[b0:b1]
                    mixed += len(np.unique(ws[ws > 0])) > 1
            for op, spec in ops.OPS.items():
                for scalar in (0.37, -2.5, 1e300)[: 3 if spec.takes_scalar else 1]:
                    put(f"{tag}/{op}/{scalar}", result(op, streams[: spec.arity], scalar))
            if k == 32:
                first = streams[0]
        # block_len 32 and 13 operands: ParamsMismatch
        put(f"{name}/mismatch", result("eadd", [first, streams[0]]))
    zero = compress(RawArray(np.zeros(1000), (1000,), "f64"), QuantParams(1e-3, (1000,), 32, "f64"))
    for op in ("ssim", "variance", "hadamard"):  # a degenerate ssim raises
        put(f"zero/{op}", result(op, [zero] * ops.OPS[op].arity))
    return h.hexdigest(), mixed


def test_corpus_digest_is_pinned():
    # computed at the commit before the runs-as-slices decode and encode;
    # bytes, results and exception types must not change with the codec's
    # internals
    digest, mixed = _corpus_digest()
    assert mixed > 0  # the corpus reaches ranges of more than one width
    assert digest == "e982883b8d1090f4ad242cf459a774874b23e556e3e0602354c6e61a8c3f054e"
