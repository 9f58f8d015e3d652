"""Data-model construction rules and the serialized byte layout."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoszp import (
    BadMagic,
    CompressedStream,
    FormatError,
    GeometryMismatch,
    HoszpError,
    OutlierOverflow,
    QuantArray,
    QuantOverflow,
    QuantParams,
    TruncatedStream,
    VersionMismatch,
    decode_to_quant,
    decompress,
    deserialize,
    elementwise_add,
    hadamard,
    mean,
    negate,
    serialize,
    variance,
)
from hoszp.model import _HEADER, MAGIC

from conftest import py_reductions, random_stream


class TestQuantParams:
    def test_basic(self):
        p = QuantParams(eps=0.01, dims=(2, 2))
        assert p.element_count == 4
        assert p.block_len == 32
        assert p.block_count == 1
        assert p.numpy_dtype == np.float32
        assert p.raw_nbytes == 16

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_eps(self, eps):
        with pytest.raises(ValueError):
            QuantParams(eps=eps, dims=(4,))

    # the header holds 1 to 65,535 dims of 64 bits each; a dim is an integer
    @pytest.mark.parametrize("dims", [(), (0,), (3, -1), (1,) * 2**16, (2**64,),
                                      (2.5,), (True,), (4, 2.0), ("4",)])
    def test_bad_dims(self, dims):
        with pytest.raises(ValueError, match="dims"):
            QuantParams(eps=0.1, dims=dims)

    def test_dims_integers_normalized(self):
        p = QuantParams(eps=0.1, dims=(np.int64(4), np.uint64(3)))
        assert p.dims == (4, 3) and all(type(d) is int for d in p.dims)

    def test_bad_block_len_and_dtype(self):
        with pytest.raises(ValueError):
            QuantParams(eps=0.1, dims=(4,), block_len=0)
        with pytest.raises(ValueError):
            QuantParams(eps=0.1, dims=(4,), dtype="f16")

    @pytest.mark.parametrize("block_len", [2**32, 32.5, 32.0, "32", None, True])
    def test_block_len_is_a_u32_integer(self, block_len):
        with pytest.raises(ValueError, match="block_len"):
            QuantParams(eps=0.1, dims=(4,), block_len=block_len)

    def test_block_len_integers_normalized(self):
        p = QuantParams(eps=0.1, dims=(4,), block_len=np.int64(8))
        assert type(p.block_len) is int and p == QuantParams(eps=0.1, dims=(4,), block_len=8)

    def test_largest_header_geometry_round_trips(self):
        QuantParams(eps=0.1, dims=(2**64 - 1,))
        p = QuantParams(eps=0.1, dims=(1,) * (2**16 - 1), block_len=2**32 - 1)
        s = CompressedStream(p, [0], [3], b"", b"")
        assert deserialize(serialize(s)) == s

    def test_partial_block_geometry(self):
        p = QuantParams(eps=0.1, dims=(7,), block_len=3)
        assert p.block_count == 3
        assert list(p.block_lengths()) == [3, 3, 1]

    def test_block_len_may_exceed_element_count(self):
        p = QuantParams(eps=0.1, dims=(5,), block_len=32)
        assert p.block_count == 1
        assert list(p.block_lengths()) == [5]


class TestQuantArray:
    def test_length_checked(self):
        p = QuantParams(eps=0.1, dims=(4,))
        with pytest.raises(ValueError):
            QuantArray(np.zeros(3, dtype=np.int64), p)

    def test_63_bit_magnitude_enforced(self):
        p = QuantParams(eps=0.1, dims=(2,))
        QuantArray(np.array([2**63 - 1, -(2**63 - 1)]), p)  # fits
        with pytest.raises(QuantOverflow):
            QuantArray(np.array([0, np.iinfo(np.int64).min]), p)


class TestCompressedStreamConstruction:
    def test_section_sizes_cross_checked(self, example_stream):
        p = example_stream.params
        with pytest.raises(GeometryMismatch, match="sign section is 0 bytes, expected 1"):
            CompressedStream(p, example_stream.widths, example_stream.outliers,
                             b"", example_stream.payload)
        with pytest.raises(GeometryMismatch, match="payload section is 2 bytes, expected 1"):
            CompressedStream(p, example_stream.widths, example_stream.outliers,
                             example_stream.sign_planes, example_stream.payload + b"\x00")

    def test_counts_and_width_limit_checked(self, example_stream):
        s = example_stream
        with pytest.raises(GeometryMismatch, match="expected 1 widths/outliers"):
            CompressedStream(s.params, [1, 1], s.outliers, s.sign_planes, s.payload)
        with pytest.raises(GeometryMismatch, match="expected 1 widths/outliers"):
            CompressedStream(s.params, s.widths, [0, 0], s.sign_planes, s.payload)
        with pytest.raises(GeometryMismatch, match="width 65 exceeds 64 bits"):
            CompressedStream(s.params, [65], s.outliers, s.sign_planes, s.payload)

    def test_outlier_32bit_enforced(self, example_stream):
        with pytest.raises(OutlierOverflow):
            CompressedStream(example_stream.params, example_stream.widths,
                             np.array([2**31]), example_stream.sign_planes,
                             example_stream.payload)

    @pytest.mark.parametrize("kind", ["int32", "int64", "python", "object"])
    def test_outlier_limits(self, kind):
        # two constant blocks of one element: outliers alone
        p = QuantParams(eps=0.5, dims=(2,), block_len=1, dtype="f64")

        def stream(outliers):
            if kind == "python":
                arr = list(outliers)
            else:
                arr = np.array(outliers, dtype=object if kind == "object" else kind)
            return CompressedStream(p, [0, 0], arr, b"", b"")

        s = stream([-(2**31), 2**31 - 1])
        assert s.outliers.dtype == np.int32
        assert s.outliers.tolist() == [-(2**31), 2**31 - 1]
        assert deserialize(serialize(s)) == s
        if kind != "int32":  # one past each limit
            for outliers in ([-(2**31) - 1, 0], [0, 2**31]):
                with pytest.raises(OutlierOverflow):
                    stream(outliers)

    @pytest.mark.parametrize("outliers, message", [
        ([1.7], "outlier is not an integer: 1.7"),
        ([float("nan")], "outlier is not an integer: nan"),
        ([2**70], f"outlier out of signed 32-bit range: {2**70}"),
        (np.array([2**70], dtype=object), f"outlier out of signed 32-bit range: {2**70}"),
    ])
    def test_non_integer_or_huge_outlier(self, outliers, message):
        # neither truncated nor cast with a warning, nor a bare OverflowError
        p = QuantParams(eps=0.5, dims=(1,), block_len=1, dtype="f64")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutlierOverflow) as exc:
                CompressedStream(p, [0], outliers, b"", b"")
        assert str(exc.value) == message


class TestSerializeGoldens:
    def test_example_block_sections(self, example_stream):
        assert list(example_stream.widths) == [2]
        assert list(example_stream.outliers) == [-1]
        assert example_stream.sign_planes == b"\x20"  # bits 0,0,1,0 MSB-first
        assert example_stream.payload == b"\x08"  # (00001000)_2

    def test_example_block_full_dump(self, example_stream):
        # documented worked example in FORMAT.md
        expected = bytes.fromhex(
            "48535a50"          # magic "HSZP"
            "01"                # version 1
            "00"                # dtype f32
            "0200"              # ndim 2
            "7b14ae47e17a843f"  # eps 0.01 (f64 LE)
            "20000000"          # block_len 32
            "0200000000000000"  # dim 2
            "0200000000000000"  # dim 2
            "02"                # widths
            "ffffffff"          # outlier -1 (i32 LE)
            "20"                # sign plane
            "08"                # payload
        )
        assert serialize(example_stream) == expected

    def test_all_zero_field_has_empty_sections(self):
        from hoszp import RawArray, compress

        p = QuantParams(eps=0.1, dims=(64,), block_len=32, dtype="f32")
        s = compress(RawArray(np.zeros(64, dtype=np.float32), (64,), "f32"), p)
        assert list(s.widths) == [0, 0]
        assert list(s.outliers) == [0, 0]
        assert s.sign_planes == b"" and s.payload == b""

    def test_deterministic(self, example_stream):
        assert serialize(example_stream) == serialize(example_stream)


class TestRoundTrip:
    def test_random_streams(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            s = random_stream(rng)
            data = serialize(s)
            s2 = deserialize(data)
            assert s2 == s
            assert serialize(s2) == data

    def test_serialized_size_formula(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            s = random_stream(rng)
            p = s.params
            header = 20 + 8 * len(p.dims)
            lengths = p.block_lengths()
            widths = s.widths.astype(np.int64)
            expected = header + 5 * p.block_count
            expected += int(((lengths + 7) // 8)[widths > 0].sum())
            expected += int(((lengths * widths + 7) // 8).sum())
            assert len(serialize(s)) == expected == s.serialized_size


class TestDeserializeErrors:
    def test_bad_magic(self, example_stream):
        data = bytearray(serialize(example_stream))
        data[0] = ord("X")
        with pytest.raises(BadMagic):
            deserialize(bytes(data))

    def test_version_mismatch(self, example_stream):
        data = bytearray(serialize(example_stream))
        data[4] = 99
        with pytest.raises(VersionMismatch):
            deserialize(bytes(data))

    def test_unknown_dtype_code(self, example_stream):
        data = bytearray(serialize(example_stream))
        data[5] = 7
        with pytest.raises(GeometryMismatch):
            deserialize(bytes(data))

    # the header's ndim, eps, first dim and block_len, each set out of range
    @pytest.mark.parametrize("fmt, at, value", [
        ("<H", 6, 0),
        ("<d", 8, 0.0), ("<d", 8, -1.0), ("<d", 8, float("nan")), ("<d", 8, float("inf")),
        ("<Q", 20, 0),
        ("<I", 16, 0),
    ])
    def test_invalid_header_field_is_geometry_mismatch(self, example_stream, fmt, at, value):
        data = bytearray(serialize(example_stream))
        struct.pack_into(fmt, data, at, value)
        with pytest.raises(GeometryMismatch, match="invalid header"):
            deserialize(bytes(data))

    # where each cut of the 43-byte example stream falls
    _CUT_SECTIONS = {2: "fixed header", 10: "fixed header", 21: "dims table",
                     28: "dims table", 36: "widths section", 37: "outliers section",
                     41: "sign-plane section", 42: "payload section"}

    @pytest.mark.parametrize("keep", list(_CUT_SECTIONS))
    def test_truncation_everywhere(self, example_stream, keep):
        data = serialize(example_stream)
        assert len(data) == 43
        with pytest.raises(TruncatedStream, match=self._CUT_SECTIONS[keep]):
            deserialize(data[:keep])

    def test_corrupt_dim_is_geometry_mismatch(self):
        rng = np.random.default_rng(5)
        p = QuantParams(eps=0.1, dims=(64,), block_len=32, dtype="f32")
        s = random_stream(rng, params=p)
        assert p.block_count == 2
        data = bytearray(serialize(s))
        data[20] = 32  # dim 64 -> 32: sections now end before the data does
        with pytest.raises(GeometryMismatch):
            deserialize(bytes(data))

    def test_trailing_garbage(self, example_stream):
        with pytest.raises(GeometryMismatch):
            deserialize(serialize(example_stream) + b"\x00")

    def test_not_even_magic(self):
        with pytest.raises(BadMagic):
            deserialize(b"zz")
        with pytest.raises(TruncatedStream):
            deserialize(MAGIC)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    s = random_stream(seed)
    assert deserialize(serialize(s)) == s


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 199), k=st.sampled_from([1, 7, 8, 13, 32]),
       dtype=st.sampled_from(["f32", "f64"]), seed=st.integers(0, 2**32 - 1),
       hi=st.sampled_from([1, 2**8, 2**40]),
       mutation=st.sampled_from(["overwrite", "truncate", "extend"]),
       at=st.floats(0, 1), junk=st.binary(min_size=1, max_size=16))
def test_hostile_bytes_after_the_header_fail_cleanly(n, k, dtype, seed, hi, mutation, at, junk):
    # a valid header, then sections overwritten, cut short or grown: the
    # stream either fails to parse with a FormatError or every operation
    # returns or raises a HoszpError
    p = QuantParams(eps=0.5, dims=(n,), block_len=k, dtype=dtype)
    s = random_stream(np.random.default_rng(seed), params=p, hi=hi)
    data = bytearray(serialize(s))
    start = _HEADER.size + 8  # past the header and its one dim
    pos = start + int(at * (len(data) - start))
    if mutation == "overwrite":
        junk = junk[: len(data) - pos]
        data[pos : pos + len(junk)] = junk
    elif mutation == "truncate":
        del data[pos:]
    else:
        data[pos:pos] = junk
    try:
        s = deserialize(bytes(data))
    except FormatError:
        return
    for call in (decompress, negate, lambda c: elementwise_add(c, c),
                 lambda c: hadamard(c, c)):
        try:
            call(s)
        except HoszpError:
            pass
    # the reductions read what decode reads, whatever a block-start slot, an
    # over-wide width or a stray sign or padding bit holds
    try:
        want = py_reductions(p.eps, decode_to_quant(s).bins)
    except HoszpError:
        for call in (mean, variance):
            with pytest.raises(HoszpError):
                call(s)
        return
    assert mean(s) == want["mean"]
    assert variance(s) == want["variance"]
