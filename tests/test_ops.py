"""Homomorphic operations: worked-example goldens, oracle equivalence, invariants."""

import argparse
import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoszp import (
    CompressedStream,
    GeometryMismatch,
    OutlierOverflow,
    ParamsMismatch,
    QuantArray,
    QuantOverflow,
    QuantParams,
    RawArray,
    ScalarBin,
    compress,
    covariance,
    decode_to_quant,
    decompress,
    deserialize,
    elementwise_add,
    elementwise_sub,
    encode_from_quant,
    hadamard,
    mean,
    negate,
    oracle_apply,
    oracle_reduction,
    oracle_stream,
    scalar_add,
    scalar_mul,
    scalar_sub,
    serialize,
    ssim_global,
    stddev,
    variance,
)
from hoszp import codec, model, ops
from hoszp.cli import build_parser

from conftest import (
    EXAMPLE_BINS,
    SUM_PAST_63_BITS,
    py_reductions,
    random_params,
    random_stream,
    range_sizes,
    ref_blocks,
    ref_pack_row,
    reference_stream,
    wide_block_bins,
)


def _stream(bins, eps=0.01, block_len=32, dtype="f32"):
    bins = np.asarray(bins, dtype=np.int64)
    p = QuantParams(eps, (bins.size,), block_len, dtype)
    return encode_from_quant(QuantArray(bins, p))


def _values(stream):
    return decompress(stream, out_dtype=np.float64).values


#: eps 2^-40 puts these bins on the f64 grid exactly; the scalar 2^-10 has
#: bin 2^29, so products with the 2^40-sized bins need 70 bits and take
#: the Python-int product path
WIDE_EPS = 2.0**-40
WIDE_BINS = [0, 2**40, 2**40 + 3, -(2**40), 5, 2**39, 7, -1]
WIDE_SCALAR = 2.0**-10


def _nearest_rescaled(product, eps_exp=-40):
    """nearest_int(2 * eps * product) for eps = 2^eps_exp, ties away from
    zero, in Python integers."""
    shift = -(eps_exp + 1)
    mag = (abs(product) + (1 << (shift - 1))) >> shift
    return -mag if product < 0 else mag


class TestScalarBin:
    def test_example_addition_scalar(self):
        # 0.67 at eps=0.01 truncates to 33 (the floor rule would give 34)
        assert ScalarBin.of(0.67, 0.01).bin == 33

    def test_example_multiplication_scalar(self):
        assert ScalarBin.of(3.14, 0.01).bin == 157

    def test_truncation_toward_zero(self):
        assert ScalarBin.of(-0.67, 0.01).bin == -33
        assert ScalarBin.of(0.019, 0.01).bin == 0

    def test_overflow(self):
        with pytest.raises(QuantOverflow):
            ScalarBin.of(1e300, 1e-10)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_value_error(self, value):
        with pytest.raises(ValueError, match=f"scalar must be finite, got {value}"):
            ScalarBin.of(value, 0.01)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["sadd", "ssub", "smul"])
    def test_non_finite_scalar_fails_as_its_oracle_does(self, example_stream, name, value):
        for run in (ops.apply, oracle_stream):
            with pytest.raises(ValueError, match="scalar must be finite"):
                run(name, [example_stream], value)

    @settings(max_examples=200, deadline=None)
    @given(s=st.floats(-1e9, 1e9, allow_nan=False),
           eps=st.sampled_from([1e-4, 1e-2, 0.5, 3.0]))
    def test_quantized_scalar_within_one_bin(self, s, eps):
        sb = ScalarBin.of(s, eps)
        assert abs(sb.quantized_value - s) < 2 * eps


class TestNegate:
    def test_example_block_metadata(self, example_stream):
        z = negate(example_stream)
        assert list(z.outliers) == [1]
        # every stored sign bit flips, including zero-magnitude positions
        assert z.sign_planes == b"\xd0"  # 0,0,1,0 -> 1,1,0,1 MSB-first
        assert z.payload == example_stream.payload
        assert np.array_equal(z.widths, example_stream.widths)

    def test_values_negate_exactly(self, example_stream):
        assert np.array_equal(_values(negate(example_stream)), -_values(example_stream))

    def test_involution_at_value_level(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            s = random_stream(rng)
            assert np.array_equal(_values(negate(negate(s))), _values(s))

    def test_all_zero_stream(self):
        s = _stream(np.zeros(70), block_len=32)
        assert not np.any(_values(negate(s)))

    def test_padding_bits_stay_zero(self):
        s = _stream([0, 5, 0, 1, 2], block_len=5)  # 5-bit sign plane in 1 byte
        z = negate(s)
        assert (z.sign_planes[0] & 0b00000111) == 0

    def test_padding_bits_stay_zero_after_whole_bytes(self):
        # block_len 32 planes fill their bytes; the ragged, non-constant last
        # block (5 elements) leaves 3 padding bits in the section's last byte
        z = negate(_stream(np.arange(3 * 32 + 5), block_len=32))  # residuals +1: signs 0
        assert len(z.sign_planes) == 3 * 4 + 1
        assert z.sign_planes[-1] == 0b11111000  # every stored bit flipped from 0
        assert z.sign_planes[:-1] == b"\xff" * 12

    def test_oracle_bit_exact(self):
        rng = np.random.default_rng(103)
        for _ in range(25):
            s = random_stream(rng)
            assert np.array_equal(_values(negate(s)), oracle_apply("neg", [s]).values)

    def test_int32_min_outlier_overflows(self):
        s = _stream([-(2**31), 0, 0])
        with pytest.raises(OutlierOverflow):
            negate(s)


class TestScalarAdd:
    def test_example_example(self, example_stream):
        z = scalar_add(example_stream, 0.67)
        assert list(z.outliers) == [32]  # -1 + 33
        assert z.payload == example_stream.payload
        assert z.sign_planes == example_stream.sign_planes

    def test_zero_scalar_is_identity(self, example_stream):
        assert scalar_add(example_stream, 0.0) == example_stream

    def test_small_scalar_rounds_to_identity(self, example_stream):
        assert scalar_add(example_stream, 0.019) == example_stream  # |s| < 2 eps

    def test_adds_quantized_scalar_exactly(self):
        rng = np.random.default_rng(107)
        for _ in range(25):
            s = random_stream(rng)
            x = float(rng.uniform(-100, 100))
            sb = ScalarBin.of(x, s.params.eps)
            # exact in the bin domain: every bin shifts by rho_s
            got_bins = decode_to_quant(scalar_add(s, x)).bins
            assert np.array_equal(got_bins, decode_to_quant(s).bins + sb.bin)
            # hence the values gain exactly 2 eps rho_s in real arithmetic
            got = _values(scalar_add(s, x))
            want = _values(s) + 2.0 * s.params.eps * sb.bin
            assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_oracle_bit_exact(self):
        rng = np.random.default_rng(109)
        for _ in range(25):
            s = random_stream(rng)
            x = float(rng.uniform(-50, 50))
            assert np.array_equal(_values(scalar_add(s, x)),
                                  oracle_apply("sadd", [s], scalar=x).values)

    def test_outlier_overflow(self):
        s = _stream([2**31 - 1, 0, 0], eps=0.5)
        with pytest.raises(OutlierOverflow):
            scalar_add(s, 100.0)

    @pytest.mark.parametrize("op, name, x", [(scalar_add, "sadd", 1.0), (scalar_sub, "ssub", -1.0)])
    def test_shift_past_63_bits_raises_like_the_oracle(self, op, name, x):
        s = _stream([0, 2**63 - 1], eps=0.5, block_len=2, dtype="f64")
        for call in (op, lambda s, x: oracle_stream(name, [s], x)):
            with pytest.raises(QuantOverflow):
                call(s, x)
        # the other way the bins fit: the range is decoded, checked and kept
        assert decode_to_quant(op(s, -x)).bins.tolist() == [-1, 2**63 - 2]

    def test_shift_of_a_stream_that_fits_decodes_nothing(self, monkeypatch):
        # 31 residuals of 58 bits on a 32-bit outlier stay within int64
        s = _stream(np.resize([2**31 - 1, 2**58 - 1 + 2**31 - 1], 64), eps=0.5, dtype="f64")
        assert s.width_max == 58

        def boom(*a, **k):
            raise AssertionError("a scalar shift decoded a range")

        monkeypatch.setattr(codec, "_decode_compact", boom)
        assert scalar_sub(scalar_add(s, -4.0), -4.0) == s


class TestScalarSub:
    def test_example_derived(self, example_stream):
        assert list(scalar_sub(example_stream, 0.67).outliers) == [-34]  # -1 - 33

    def test_add_then_sub_round_trips(self):
        rng = np.random.default_rng(113)
        for _ in range(25):
            s = random_stream(rng)
            x = float(rng.uniform(-10, 10))
            assert np.array_equal(_values(scalar_sub(scalar_add(s, x), x)), _values(s))

    def test_matches_add_of_negated_scalar(self, example_stream):
        # truncation is odd-symmetric, so rho(-s) == -rho(s)
        a = scalar_sub(example_stream, 0.67)
        b = scalar_add(example_stream, -0.67)
        assert np.array_equal(_values(a), _values(b))

    def test_oracle_bit_exact(self):
        rng = np.random.default_rng(127)
        for _ in range(25):
            s = random_stream(rng)
            x = float(rng.uniform(-50, 50))
            assert np.array_equal(_values(scalar_sub(s, x)),
                                  oracle_apply("ssub", [s], scalar=x).values)


class TestOutlierLimits:
    """Outliers at the limits of format v1's signed 32-bit field, under
    chained stream operations: the homomorphic chain and its oracle chain
    both raise :class:`OutlierOverflow`, or both decompress to the same
    values."""

    TOP, BOTTOM = 2**31 - 1, -(2**31)

    @staticmethod
    def _limit_stream(o):
        # eps 0.5: a scalar of 2.0 is 2 bins.  Blocks of 4: small bins, the
        # limit block, a constant block, then a ragged block of 2
        step = -1 if o > 0 else 1
        return _stream([3, 4, 4, 2, o, o, o + step, o, -5, -5, -5, -5, 0, 1],
                       eps=0.5, block_len=4, dtype="f64")

    @pytest.mark.parametrize("outlier, chain, raises", [
        (TOP, [("sadd", 2.0)], True),
        (TOP, [("sadd", -2.0)], False),
        (TOP, [("ssub", -2.0)], True),
        (TOP, [("neg", None)], False),
        (TOP, [("neg", None), ("sadd", 2.0)], False),
        (TOP, [("neg", None), ("sadd", -2.0)], True),
        (TOP, [("sadd", -6.0), ("sadd", 6.0)], False),
        (TOP, [("eadd", None)], True),
        (TOP, [("esub", None)], False),
        (BOTTOM, [("sadd", 2.0)], False),
        (BOTTOM, [("sadd", -2.0)], True),
        (BOTTOM, [("ssub", 2.0)], True),
        (BOTTOM, [("ssub", -2.0), ("neg", None)], False),
        (BOTTOM, [("neg", None)], True),
        (BOTTOM, [("sadd", -6.0)], True),
        (BOTTOM, [("eadd", None)], True),
        (BOTTOM, [("sadd", 2.0), ("esub", None), ("neg", None)], False),
    ])
    def test_chain_raises_or_matches_its_oracle(self, outlier, chain, raises):
        def run(call):
            s = self._limit_stream(outlier)
            try:
                for name, scalar in chain:
                    s = call(name, [s] * ops.OPS[name].arity, scalar)
            except OutlierOverflow:
                return None
            return _values(s)

        got, want = run(ops.apply), run(ops.oracle_stream)
        assert (got is None, want is None) == (raises, raises)
        if not raises:
            assert np.array_equal(got, want)


def _mixed_stream(rng, k, n, constant=0.4):
    """Stream of ``n`` elements at block length ``k`` whose blocks are
    constant with probability ``constant``; the last block never is, unless
    every block is."""
    bins = rng.integers(-60, 60, n)
    p = QuantParams(0.01, (n,), k, "f64")
    for b in range(p.block_count):
        if rng.random() < constant and (b < p.block_count - 1 or constant == 1):
            bins[b * k : (b + 1) * k] = bins[b * k]
    return encode_from_quant(QuantArray(bins, p))


def _flipped_planes(s):
    """The sign section with every stored bit flipped, block by block; the
    padding bits stay 0."""
    out, pos = bytearray(), 0
    for length, w in zip(s.params.block_lengths().tolist(), s.widths.tolist()):
        if w:
            size = (length + 7) // 8
            bits = np.unpackbits(np.frombuffer(s.sign_planes, np.uint8, size, pos))
            bits[:length] ^= 1
            out += np.packbits(bits).tobytes()
            pos += size
    return bytes(out)


class TestDerivedStreams:
    """negate, scalar_add and scalar_sub build their result from the input's
    geometry; it must be the stream the full constructor builds from the
    same sections, byte for byte."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(131)
        for k in (8, 13, 32, 33, 64):
            for n in (5 * k, 5 * k + k // 2 + 1, 3 * codec._RANGE_ELEMS // 2):
                yield _mixed_stream(rng, k, n)
        yield _mixed_stream(rng, 32, 1000, constant=1)

    @staticmethod
    def _assert_built_in_full(z, params, widths, outliers, sign_planes, payload):
        full = CompressedStream(params, widths, outliers, sign_planes, payload)
        assert z == full
        assert serialize(z) == serialize(full)
        assert all(np.array_equal(a, b) for a, b in zip(z.offsets, full.offsets))

    def test_negate(self):
        for s in self._cases():
            z = negate(s)
            self._assert_built_in_full(z, s.params, s.widths, -s.outliers.astype(np.int64),
                                       _flipped_planes(s), s.payload)
            assert z.offsets is s.offsets

    def test_negate_is_an_involution_on_streams(self):
        for s in self._cases():
            z = negate(negate(s))
            assert z == s
            assert serialize(z) == serialize(s)

    @pytest.mark.parametrize("op, sign", [(scalar_add, 1), (scalar_sub, -1)])
    def test_scalar_shift(self, op, sign):
        for s in self._cases():
            z = op(s, 0.37)
            shift = sign * ScalarBin.of(0.37, s.params.eps).bin
            self._assert_built_in_full(z, s.params, s.widths, s.outliers.astype(np.int64) + shift,
                                       s.sign_planes, s.payload)
            assert z.offsets is s.offsets

    def test_derive_checks_sign_length_and_outliers(self):
        s = _mixed_stream(np.random.default_rng(137), 32, 200)
        with pytest.raises(GeometryMismatch, match="sign section"):
            s._derive(s.outliers, s.sign_planes + b"\x00")
        with pytest.raises(OutlierOverflow):
            s._derive(s.outliers.astype(np.int64) + 2**31)


class TestScalarMul:
    def test_example_example(self, example_stream):
        z = scalar_mul(example_stream, 3.14)
        q = decode_to_quant(z)
        assert list(q.bins) == [-3, -3, -9, -9]
        assert z == reference_stream(q)
        (v,) = ref_blocks(q)
        assert v.outlier == -3
        assert list(v.residual_mags) == [0, 0, 6, 0]
        assert list(v.signs) == [0, 0, 1, 0]

    def test_tiny_scalar_gives_zero_stream(self, example_stream):
        z = scalar_mul(example_stream, 0.005)  # |s| < 2 eps -> rho_s = 0
        assert not np.any(decode_to_quant(z).bins)

    def test_error_bound_dyadic_exact(self):
        rng = np.random.default_rng(131)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            eps = float(rng.choice([2.0**-4, 2.0**-9]))
            p = QuantParams(eps, (n,), 32, "f64")
            s = encode_from_quant(QuantArray(rng.integers(-2000, 2000, n), p))
            x = float(rng.uniform(-8, 8))
            got = _values(scalar_mul(s, x))
            want = _values(s) * ScalarBin.of(x, eps).quantized_value
            assert float(np.max(np.abs(got - want))) <= eps

    def test_oracle_bit_exact(self):
        rng = np.random.default_rng(137)
        for _ in range(25):
            s = random_stream(rng, hi=2**18)
            x = float(rng.uniform(-20, 20))
            assert np.array_equal(_values(scalar_mul(s, x)),
                                  oracle_apply("smul", [s], scalar=x).values)

    def test_wide_products_take_python_int_path(self):
        s = _stream(WIDE_BINS, eps=WIDE_EPS, dtype="f64")
        rs = ScalarBin.of(WIDE_SCALAR, WIDE_EPS).bin
        assert rs == 2**29 and max(abs(b) for b in WIDE_BINS) * rs > 2**63 - 1
        z = scalar_mul(s, WIDE_SCALAR)
        want = [_nearest_rescaled(b * rs) for b in WIDE_BINS]
        assert want == [0, 2**30, 2**30, -(2**30), 0, 2**29, 0, 0]
        assert decode_to_quant(z).bins.tolist() == want
        assert np.array_equal(_values(z),
                              oracle_apply("smul", [s], scalar=WIDE_SCALAR).values)


class TestMean:
    def test_example_example_exact(self, example_stream):
        assert mean(example_stream) == -0.04

    def test_zero_stream(self):
        assert mean(_stream(np.zeros(100))) == 0.0

    def test_oracle_tolerance(self):
        rng = np.random.default_rng(139)
        for _ in range(25):
            s = random_stream(rng)
            vals = _values(s)
            value_range = float(vals.max() - vals.min()) or 1.0
            assert abs(mean(s) - float(vals.mean())) <= 1e-12 * value_range

    def test_shortcut_equivalence(self):
        # the wholly constant first range is summed from metadata alone
        rng = np.random.default_rng(149)
        for _ in range(10):
            s = _constant_first_range_stream(rng, _two_range_params(rng))
            assert mean(s) == py_reductions(s.params.eps, decode_to_quant(s).bins)["mean"]


def _two_range_params(rng):
    """f64 params past one decode range: up to two ranges and a block."""
    k = int(rng.choice([1, 4, 8, 32, 33]))
    r = max(1, codec._RANGE_ELEMS // k)
    n = int(rng.integers(r * k + 1, 2 * r * k + k))
    return QuantParams(float(rng.choice([1e-1, 1e-2, 0.25])), (n,), k, "f64")


def _constant_first_range_stream(rng, p):
    """Stream whose first decode range holds only constant blocks; every
    other block after it is constant too."""
    bins = rng.integers(-500, 500, p.element_count)
    k = p.block_len
    r = max(1, codec._RANGE_ELEMS // k)
    for b in range(p.block_count):
        if b < r or b % 2 == 0:
            bins[b * k : (b + 1) * k] = rng.integers(-500, 500)
    return encode_from_quant(QuantArray(bins, p))


class TestVariance:
    def test_example_block_derived(self, example_stream):
        # brute force over the four decompressed values: deviations +-0.02
        # about -0.04 give population variance 4e-4
        vals = _values(example_stream)
        brute = float(np.mean((vals - vals.mean()) ** 2))
        assert variance(example_stream) == pytest.approx(4.0e-4, rel=1e-12)
        assert variance(example_stream) == pytest.approx(brute, rel=1e-12)

    def test_constant_stream_is_zero(self):
        assert variance(_stream(np.full(64, 7))) == 0.0

    def test_oracle_tolerance(self):
        rng = np.random.default_rng(151)
        for _ in range(25):
            s = random_stream(rng)
            want = oracle_reduction("variance", [s])
            assert variance(s) == pytest.approx(want, rel=1e-9)

    def test_shortcut_equivalence(self):
        rng = np.random.default_rng(157)
        for _ in range(10):
            s = _constant_first_range_stream(rng, _two_range_params(rng))
            want = py_reductions(s.params.eps, decode_to_quant(s).bins)["variance"]
            assert variance(s) == want
            assert stddev(s) == math.sqrt(want)

    def test_never_negative(self):
        rng = np.random.default_rng(163)
        for _ in range(50):
            assert variance(random_stream(rng)) >= 0.0


class TestStddev:
    def test_example_block(self, example_stream):
        assert stddev(example_stream) == pytest.approx(0.02, rel=1e-12)

    def test_constant_stream(self):
        assert stddev(_stream(np.full(10, -3))) == 0.0

    def test_square_is_variance(self):
        rng = np.random.default_rng(167)
        for _ in range(25):
            s = random_stream(rng)
            assert stddev(s) ** 2 == pytest.approx(variance(s), rel=1e-12)


class TestElementwiseAdd:
    def test_self_addition_golden(self, example_stream):
        z = elementwise_add(example_stream, example_stream)
        assert z == reference_stream(decode_to_quant(z))
        (v,) = ref_blocks(decode_to_quant(z))
        assert v.outlier == -2
        assert v.residuals == [0, 0, -4, 0]
        got = _values(z)
        assert np.array_equal(got, np.array([-0.04, -0.04, -0.12, -0.12]))

    def test_zero_stream_is_identity(self):
        rng = np.random.default_rng(173)
        s = random_stream(rng, params=QuantParams(0.5, (100,), 32, "f64"))
        zero = _stream(np.zeros(100), eps=0.5, dtype="f64")
        assert np.array_equal(_values(elementwise_add(s, zero)), _values(s))

    def test_oracle_bit_exact(self):
        rng = np.random.default_rng(179)
        for _ in range(25):
            p = random_params(rng)
            a = random_stream(rng, params=p)
            b = random_stream(rng, params=p)
            assert np.array_equal(_values(elementwise_add(a, b)),
                                  oracle_apply("eadd", [a, b]).values)

    @pytest.mark.parametrize("delta", [
        {"eps": 0.02}, {"dims": (5,)}, {"block_len": 4}, {"dtype": "f64"},
    ])
    def test_params_mismatch(self, delta):
        base = dict(eps=0.01, dims=(4,), block_len=32, dtype="f32")
        a = encode_from_quant(QuantArray(np.zeros(4, np.int64), QuantParams(**base)))
        other = QuantParams(**{**base, **delta})
        b = encode_from_quant(QuantArray(np.zeros(other.element_count, np.int64), other))
        with pytest.raises(ParamsMismatch):
            elementwise_add(a, b)

    def test_wide_residuals_take_slow_path(self):
        p = QuantParams(0.5, (4,), 4, "f64")
        a = encode_from_quant(QuantArray(np.array([0, 2**62, -(2**62), 5]), p))
        b = encode_from_quant(QuantArray(np.array([1, 2**61, -(2**61), -5]), p))
        z = elementwise_add(a, b)
        want = np.array([1, 2**62 + 2**61, -(2**62) - 2**61, 0])
        assert np.array_equal(decode_to_quant(z).bins, want)

    def test_residual_past_64_bits_is_quant_overflow(self):
        # a residual of 2^63 + 2^31 - 1 doubles past 2^64 - 1, the widest
        # magnitude format v1 stores; the bin 2^63 - 1 it leads to doubles
        # past 63 bits, which the sum of the bins rejects first
        a = _stream([-(2**31), 2**63 - 1], eps=0.5, block_len=2, dtype="f64")
        assert int(a.widths[0]) == 64
        with pytest.raises(QuantOverflow, match="bins passes 63 bits"):
            elementwise_add(a, a)

    @pytest.mark.parametrize("bins", SUM_PAST_63_BITS)
    @pytest.mark.parametrize("op", ["eadd", "esub"])
    def test_sum_past_63_bits_raises_like_the_oracle(self, op, bins):
        a = _stream(bins, eps=0.5, block_len=len(bins), dtype="f64")
        # a + a, or a - (-a): every result bin doubles
        pair = [a, a] if op == "eadd" else [a, negate(a)]
        with pytest.raises(QuantOverflow):
            oracle_stream(op, pair)
        with pytest.raises(QuantOverflow, match="bins passes 63 bits"):
            ops.apply(op, pair)

    @pytest.mark.parametrize("op", ["eadd", "esub"])
    @pytest.mark.parametrize("w, first", [(2, 3), (64, 2**64 - 1)])
    def test_stored_first_slot_is_ignored(self, op, w, first):
        # bins 0,1,2,3,3,2,1,0 at width w, with a magnitude stored in the
        # block-start slot, which the outlier carries and decode ignores
        p = QuantParams(0.5, (8,), 8, "f64")
        s = CompressedStream(p, [w], [0], ref_pack_row([0, 0, 0, 0, 0, 1, 1, 1], 1),
                             ref_pack_row([first, 1, 1, 1, 0, 1, 1, 1], w))
        assert decode_to_quant(s).bins.tolist() == [0, 1, 2, 3, 3, 2, 1, 0]
        for pair in ([s, s], [s, encode_from_quant(decode_to_quant(s))]):
            assert serialize(ops.apply(op, pair)) == serialize(oracle_stream(op, pair))


class TestElementwiseSub:
    def test_self_subtraction_is_zero_stream(self):
        rng = np.random.default_rng(181)
        for _ in range(25):
            s = random_stream(rng)
            z = elementwise_sub(s, s)
            assert int(z.widths.max(initial=0)) == 0
            assert not np.any(_values(z))
            assert mean(z) == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(191)
        for _ in range(25):
            p = random_params(rng)
            a = random_stream(rng, params=p)
            b = random_stream(rng, params=p)
            assert np.array_equal(_values(elementwise_sub(a, b)),
                                  -_values(elementwise_sub(b, a)))

    def test_oracle_bit_exact(self):
        rng = np.random.default_rng(193)
        for _ in range(25):
            p = random_params(rng)
            a = random_stream(rng, params=p)
            b = random_stream(rng, params=p)
            assert np.array_equal(_values(elementwise_sub(a, b)),
                                  oracle_apply("esub", [a, b]).values)


class TestHadamard:
    def test_self_product_example_block(self, example_stream):
        # bin products {1,1,9,9} rescale to zero bins at eps=0.01: every
        # |2 eps p| < 0.5, and the zero result stays within eps of the
        # true products {4e-4, 4e-4, 3.6e-3, 3.6e-3}
        z = hadamard(example_stream, example_stream)
        assert not np.any(decode_to_quant(z).bins)
        true_products = _values(example_stream) ** 2
        assert float(np.max(np.abs(_values(z) - true_products))) <= 0.01

    def test_zero_annihilates(self):
        rng = np.random.default_rng(197)
        s = random_stream(rng, params=QuantParams(0.25, (64,), 32, "f64"))
        zero = _stream(np.zeros(64), eps=0.25, dtype="f64")
        z = hadamard(s, zero)
        assert not np.any(_values(z))

    def test_error_bound_dyadic_exact(self):
        rng = np.random.default_rng(199)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            eps = float(rng.choice([2.0**-3, 2.0**-8]))
            p = QuantParams(eps, (n,), 32, "f64")
            a = encode_from_quant(QuantArray(rng.integers(-2000, 2000, n), p))
            b = encode_from_quant(QuantArray(rng.integers(-2000, 2000, n), p))
            err = np.abs(_values(hadamard(a, b)) - _values(a) * _values(b))
            assert float(err.max()) <= eps

    def test_oracle_bit_exact(self):
        rng = np.random.default_rng(211)
        for _ in range(25):
            p = random_params(rng, eps_choices=(1e-2, 0.25))
            a = random_stream(rng, params=p, hi=2**16)
            b = random_stream(rng, params=p, hi=2**16)
            assert np.array_equal(_values(hadamard(a, b)),
                                  oracle_apply("hadamard", [a, b]).values)

    def test_params_mismatch(self):
        a = _stream([1, 2], eps=0.1)
        b = _stream([1, 2], eps=0.2)
        with pytest.raises(ParamsMismatch):
            hadamard(a, b)

    def test_wide_products_take_python_int_path(self):
        s = _stream(WIDE_BINS, eps=WIDE_EPS, dtype="f64")
        z = hadamard(s, s)
        want = [_nearest_rescaled(b * b) for b in WIDE_BINS]
        assert want[1:4] == [2**41, 2**41 + 12, 2**41]
        assert decode_to_quant(z).bins.tolist() == want
        assert np.array_equal(_values(z), oracle_apply("hadamard", [s, s]).values)


class TestCovariance:
    def test_self_covariance_is_variance(self, example_stream):
        assert covariance(example_stream, example_stream) == variance(example_stream)
        assert covariance(example_stream, example_stream) == pytest.approx(4.0e-4,
                                                                       rel=1e-12)
        rng = np.random.default_rng(221)
        for _ in range(25):
            s = random_stream(rng)
            assert covariance(s, s) == variance(s)

    def test_second_moment_divides_before_it_scales(self):
        # bins near 1e9 at eps 5e140: (2 eps)^2 times the integer numerator
        # overflows, though the moment itself is about 8.3e298
        a = np.random.default_rng(0).uniform(0, 1e150, 100_000)
        p = QuantParams(5e140, (a.size,), 32, "f64")
        s = compress(RawArray(a, p.dims, "f64"), p)
        want = oracle_reduction("covariance", [s, s])
        assert covariance(s, s) == variance(s) == pytest.approx(want, rel=1e-9)

    def test_bilinearity_under_negation(self):
        rng = np.random.default_rng(223)
        for _ in range(25):
            s = random_stream(rng)
            assert covariance(s, negate(s)) == pytest.approx(-variance(s), rel=1e-12)

    def test_oracle_tolerance(self):
        rng = np.random.default_rng(227)
        for _ in range(25):
            p = random_params(rng)
            a = random_stream(rng, params=p)
            b = random_stream(rng, params=p)
            want = oracle_reduction("covariance", [a, b])
            got = covariance(a, b)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_shortcut_equivalence(self):
        rng = np.random.default_rng(229)
        for _ in range(8):
            p = _two_range_params(rng)
            a = _constant_first_range_stream(rng, p)
            b = _constant_first_range_stream(rng, p)
            want = py_reductions(p.eps, decode_to_quant(a).bins, decode_to_quant(b).bins)
            assert covariance(a, b) == want["covariance"]
            assert ssim_global(a, b) == want["ssim"]

    def test_params_mismatch(self):
        with pytest.raises(ParamsMismatch):
            covariance(_stream([1, 2]), _stream([1, 2], eps=0.5))


class TestSsim:
    def test_identical_inputs_give_one(self):
        rng = np.random.default_rng(233)
        for _ in range(25):
            s = random_stream(rng)
            if variance(s) == 0.0 and mean(s) == 0.0:
                continue
            assert ssim_global(s, s) == 1.0

    def test_negation_degrades(self):
        rng = np.random.default_rng(239)
        for _ in range(25):
            s = random_stream(rng)
            if variance(s) == 0.0:
                continue
            assert ssim_global(s, negate(s)) < 1.0

    def test_oracle_tolerance(self):
        rng = np.random.default_rng(241)
        for _ in range(25):
            p = random_params(rng)
            if p.element_count < 2:
                continue
            a = random_stream(rng, params=p)
            b = random_stream(rng, params=p)
            if variance(a) == 0.0 and variance(b) == 0.0:
                continue
            assert ssim_global(a, b) == pytest.approx(
                oracle_reduction("ssim", [a, b]), rel=1e-9)

    def test_degenerate_rejected(self):
        z = _stream(np.zeros(8))
        for call in (ssim_global, lambda a, b: oracle_reduction("ssim", [a, b])):
            with pytest.raises(ValueError, match="undefined"):
                call(z, z)


class TestOverflowingScale:
    """Past eps of about 6.7e153, ``(2 eps)^2`` overflows a double: a zero
    integer moment still gives 0.0 and a nonzero one an infinity, as the
    oracle does on the decompressed grid."""

    EPS = 1e160

    def test_zero_moments(self):
        zero = _stream(np.zeros(8), eps=self.EPS)
        const = _stream(np.full(8, 4), eps=self.EPS)
        for s in (zero, const):
            assert variance(s) == stddev(s) == 0.0
            assert covariance(s, zero) == 0.0
        assert oracle_reduction("variance", [zero]) == 0.0
        with pytest.raises(ValueError, match="undefined"):
            ssim_global(zero, zero)

    def test_nonzero_moments_are_infinite(self):
        a = _stream([0, 1, -2, 3, 0, 5, -7, 2], eps=self.EPS)
        assert variance(a) == stddev(a) == covariance(a, a) == math.inf
        assert covariance(a, negate(a)) == -math.inf
        assert math.isnan(ssim_global(a, a))
        with np.errstate(over="ignore", invalid="ignore"):
            assert oracle_reduction("variance", [a]) == math.inf
            assert oracle_reduction("covariance", [a, negate(a)]) == -math.inf
            assert math.isnan(oracle_reduction("ssim", [a, a]))


class TestRangeReductions:
    """Reductions stream exact sums over the decode ranges; each range is
    bounded on its own, and a factor whose sums could pass int64 is split
    into high and low halves."""

    @pytest.mark.parametrize("k", [32, 33])
    def test_sizes_at_range_edges(self, k):
        rng = np.random.default_rng(300 + k)
        for n in range_sizes(k):
            p = QuantParams(0.5, (n,), k, "f64")
            qa, _ = wide_block_bins(rng, n, k, constant_first_range=True)
            qb, _ = wide_block_bins(rng, n, k, constant_first_range=True)
            a = encode_from_quant(QuantArray(qa, p))
            b = encode_from_quant(QuantArray(qb, p))
            want = py_reductions(p.eps, qa, qb)
            assert mean(a) == want["mean"]
            assert variance(a) == want["variance"]
            assert stddev(a) == math.sqrt(want["variance"])
            assert covariance(a, b) == want["covariance"]
            assert ssim_global(a, b) == want["ssim"]

    def test_narrow_ranges_match_python_ints(self):
        # bins near 2^40: a square splits both of its factors before its
        # dot products fit in int64
        rng = np.random.default_rng(307)
        n = range_sizes(32)[-1]
        p = QuantParams(0.5, (n,), 32, "f64")
        qa = rng.integers(2**40, 2**40 + 2**20, n)
        qb = -rng.integers(2**40, 2**40 + 2**20, n)
        qa[::32] = qb[::32] = 7
        a = encode_from_quant(QuantArray(qa, p))
        b = encode_from_quant(QuantArray(qb, p))
        want = py_reductions(p.eps, qa, qb)
        assert variance(a) == want["variance"]
        assert covariance(a, b) == want["covariance"]
        assert ssim_global(a, b) == want["ssim"]

    def test_int64_runs_match_python_ints(self):
        # bins near 2^26: a range's squares pass int64, so one factor
        # splits once
        rng = np.random.default_rng(317)
        n = range_sizes(32)[-1]
        p = QuantParams(0.5, (n,), 32, "f64")
        qa = rng.integers(2**26, 2**26 + 2**20, n)
        qb = -rng.integers(2**26, 2**26 + 2**20, n)
        a = encode_from_quant(QuantArray(qa, p))
        b = encode_from_quant(QuantArray(qb, p))
        want = py_reductions(p.eps, qa, qb)
        assert mean(a) == want["mean"]
        assert variance(a) == want["variance"]
        assert covariance(a, b) == want["covariance"]
        assert ssim_global(a, b) == want["ssim"]

    def test_negative_high_half_bound(self):
        # one block per range, bins m = 3037024373 in magnitude: the high
        # halves x >> 16 floor to -(m >> 16) - 1, and a bound of m >> 16
        # would admit an int64 dot product that overflows
        k = 65535
        p = QuantParams(0.5, (k,), k, "f64")
        q = np.resize(np.array([-3037024373, -3037024372]), k)
        q[0] = 7
        s = encode_from_quant(QuantArray(q, p))
        assert variance(s) == py_reductions(p.eps, q)["variance"]

    def test_prefix_sum_landing_on_minus_2_63_raises(self):
        # bins -1 and -2^63: the step's magnitude fits in 63 bits, but it
        # lands on -2^63, one below the lowest bin -(2^63 - 1)
        s = _stream([0, -(2**63 - 1)], eps=0.5, block_len=2, dtype="f64")
        # the shifted stream, built without scalar_add's check (as hostile
        # bytes could hold it)
        shifted = s._derive(s.outliers.astype(np.int64) - 1)
        for call in (lambda c: scalar_add(s, -1.0), decode_to_quant, decompress, mean, variance):
            with pytest.raises(QuantOverflow):
                call(shifted)

    def test_prefix_sum_past_63_bits_raises(self):
        k = 32
        n = range_sizes(k)[-1]
        p = QuantParams(0.5, (n,), k, "f64")
        bins, _ = wide_block_bins(np.random.default_rng(311), n, k)
        s = encode_from_quant(QuantArray(bins, p))
        # one more bin on top of the 2^63 - 1 bin of the middle range, built
        # without scalar_add's check (as hostile bytes could hold it)
        shifted = s._derive(s.outliers.astype(np.int64) + 1)
        for call in (lambda: scalar_add(s, 1.0),
                     lambda: decode_to_quant(shifted), lambda: decompress(shifted),
                     lambda: mean(shifted), lambda: covariance(shifted, s),
                     lambda: ssim_global(s, shifted)):
            with pytest.raises(QuantOverflow):
                call()


#: decode ranges of at most 256 elements, so that small streams span
#: several ranges and each range can draw its own constant-block pattern
_SMALL_RANGE_ELEMS = 256
_PATTERNS = ["constant", "none", "mixed"]


@settings(max_examples=150, deadline=None)
@given(k=st.sampled_from([1, 7, 8, 13, 32, 33]), nranges=st.integers(1, 4),
       tail=st.integers(0, 32), hi=st.sampled_from([2**4, 2**20, 2**40, 2**61]),
       patterns=st.lists(st.lists(st.sampled_from(_PATTERNS), min_size=5, max_size=5),
                         min_size=2, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_per_block_rules_match_python_ints(k, nranges, tail, hi, patterns, seed):
    # each operand draws, range by range (the ragged last block is a range
    # of its own), whether every block, no block or a random half of the
    # blocks is constant: blocks constant in both, in one operand or in
    # neither meet in one range
    step = max(1, _SMALL_RANGE_ELEMS // k)
    n = nranges * step * k + tail % k
    p = QuantParams(0.5, (n,), k, "f64")
    rng = np.random.default_rng(seed)
    qs = []
    for pattern in patterns:
        q = rng.integers(-hi, hi, n)
        for b in range(p.block_count):
            start = b * k
            q[start] = rng.integers(max(-(2**31), -hi), min(2**31 - 1, hi))
            kind = pattern[min(b // step, nranges)]
            if kind == "constant" or (kind == "mixed" and rng.random() < 0.5):
                q[start : start + k] = q[start]
        qs.append(q)
    with unittest.mock.patch.object(codec, "_RANGE_ELEMS", _SMALL_RANGE_ELEMS):
        a, b = (encode_from_quant(QuantArray(q, p)) for q in qs)
        want = py_reductions(p.eps, *qs) if np.ptp(qs[0]) or np.ptp(qs[1]) else None
        for s, q in zip((a, b), qs):
            assert mean(s) == py_reductions(p.eps, q)["mean"]
            assert variance(s) == py_reductions(p.eps, q)["variance"]
        if want is None:  # both operands constant: SSIM is undefined
            with pytest.raises(ValueError, match="undefined"):
                ssim_global(a, b)
            return
        assert covariance(a, b) == want["covariance"]
        assert ssim_global(a, b) == want["ssim"]


def _edge_operands(rng, n, k):
    """Two bin arrays of ``n`` elements in blocks of ``k``: the first range
    wholly constant in both and, with three ranges, a block in the middle
    range whose residuals are 63 bits wide and add up to 64 bits."""
    r = codec._RANGE_ELEMS // k
    ops_ = []
    for _ in range(2):
        q = rng.integers(-(2**20), 2**20) + np.cumsum(rng.integers(-7, 8, n))
        first = min(n, r * k)
        q[:first] = np.repeat(rng.integers(-1000, 1000, -(-first // k)), k)[:first]
        if n > 2 * r * k:
            s = (r + r // 2) * k
            q[s : s + 4] = [0, -(2**62) + 2**31, 2**62 - 2**31, 5]
        ops_.append(q)
    return ops_


class TestRangeEncodeOps:
    """Every stream operation decodes, combines and re-encodes range by
    range; its result must equal the stream that the reference block model
    and the reference packer assemble from the expected bins."""

    @pytest.mark.parametrize("k", [32, 33])
    def test_sizes_at_range_edges(self, k):
        rng = np.random.default_rng(500 + k)
        r = codec._RANGE_ELEMS // k
        for n in range_sizes(k):
            p = QuantParams(0.5, (n,), k, "f64")  # 2 eps = 1: the rescale is exact
            qa, qb = _edge_operands(rng, n, k)
            a, b, neg_b = (encode_from_quant(QuantArray(q, p)) for q in (qa, qb, -qb))
            total = reference_stream(QuantArray(qa + qb, p))
            if n > 2 * r * k:
                assert int(total.widths.max()) == 64
                assert not total.widths[:r].any()
            assert elementwise_add(a, b) == total
            assert elementwise_sub(a, neg_b) == total
            assert elementwise_sub(a, b) == reference_stream(QuantArray(qa - qb, p))
            # products of clipped operands stay in the int32 outlier range
            qa, qb = np.clip(qa, -40000, 40000), np.clip(qb, -40000, 40000)
            a, b = (encode_from_quant(QuantArray(q, p)) for q in (qa, qb))
            assert scalar_mul(a, 3.0) == reference_stream(QuantArray(3 * qa, p))
            assert hadamard(a, b) == reference_stream(QuantArray(qa * qb, p))

    def test_wide_products_in_middle_range(self):
        # only the middle range needs Python-int products
        k = 32
        n = range_sizes(k)[-1]
        p = QuantParams(WIDE_EPS, (n,), k, "f64")
        rng = np.random.default_rng(509)
        qa = rng.integers(-1000, 1000, n)
        mid = codec._RANGE_ELEMS + 7 * k
        qa[mid : mid + len(WIDE_BINS)] = WIDE_BINS
        a = encode_from_quant(QuantArray(qa, p))
        want = [_nearest_rescaled(v * v) for v in qa.tolist()]
        assert hadamard(a, a) == reference_stream(QuantArray(np.array(want), p))
        rs = ScalarBin.of(WIDE_SCALAR, WIDE_EPS).bin
        want = [_nearest_rescaled(v * rs) for v in qa.tolist()]
        assert scalar_mul(a, WIDE_SCALAR) == reference_stream(QuantArray(np.array(want), p))

    @pytest.mark.parametrize("k", [32, 33])
    def test_ranges_constant_in_some_operands(self, k):
        # four ranges and a ragged block: constant in both operands, in a
        # alone, in b alone, in neither; only the first is built from the
        # outliers, which differ in sign between the operands
        rng = np.random.default_rng(531 + k)
        r = codec._RANGE_ELEMS // k
        n = 4 * r * k + k // 2
        p = QuantParams(0.5, (n,), k, "f64")
        qa, qb = rng.integers(-3000, 3000, n), rng.integers(-3000, 3000, n)
        for q, ranges, sign in ((qa, (0, 1), 1), (qb, (0, 2), -1)):
            for i in ranges:
                e = slice(i * r * k, (i + 1) * r * k)
                q[e] = sign * np.repeat(rng.integers(1, 1000, r), k)
        a, b = (encode_from_quant(QuantArray(q, p)) for q in (qa, qb))
        assert not (a.widths[: 2 * r].any() or b.widths[:r].any() or b.widths[2 * r : 3 * r].any())
        assert elementwise_add(a, b) == reference_stream(QuantArray(qa + qb, p))
        assert elementwise_sub(a, b) == reference_stream(QuantArray(qa - qb, p))
        assert ops.sum_streams([a, b, a], [-1, -1, 1]) == reference_stream(QuantArray(-qb, p))
        assert scalar_mul(a, -3.0) == reference_stream(QuantArray(-3 * qa, p))
        assert hadamard(a, b) == reference_stream(QuantArray(qa * qb, p))

    def test_sum_takes_all_three_part_kinds(self):
        # three ranges of one block each, handed to one encode as summed
        # bins (the bounds add past int64), as summed residuals, and as
        # outliers alone (constant in both operands)
        k = codec._RANGE_ELEMS
        p = QuantParams(0.5, (3 * k,), k, "f64")  # 2 eps = 1: the values are the bins
        rng = np.random.default_rng(547)
        qs = []
        for _ in range(2):
            q = np.cumsum(rng.integers(-7, 8, 3 * k))
            q[5] = 2**46  # a 47-bit residual: one bound is just under 2^63
            q[2 * k :] = rng.integers(-1000, 1000)
            qs.append(q)
        a, b = (encode_from_quant(QuantArray(q, p)) for q in qs)
        assert sum(codec._bin_bound(s.outliers[:1], k, int(s.widths[0])) for s in (a, b)) \
            > codec._I64_MAX
        assert a.widths[1] and b.widths[1] and not (a.widths[2] or b.widths[2])
        got = ops.sum_streams([a, b], [1, 1])
        assert got == encode_from_quant(QuantArray(qs[0] + qs[1], p))
        assert got == ops.oracle_stream("eadd", [a, b])

    def test_sum_streams_signs(self):
        rng = np.random.default_rng(521)
        p = QuantParams(0.5, (range_sizes(33)[-1],), 33, "f64")
        qs = [rng.integers(-(2**28), 2**28, p.element_count) for _ in range(3)]
        streams = [encode_from_quant(QuantArray(q, p)) for q in qs]
        got = ops.sum_streams(streams, [1, -1, 1])
        assert got == reference_stream(QuantArray(qs[0] - qs[1] + qs[2], p))
        for operands, signs in ((streams, [1, 1]), (streams, [1, 2, 1]), ([], [])):
            with pytest.raises(ValueError):
                ops.sum_streams(operands, signs)


class TestBoundedMemory:
    """Reductions hold one range per operand, never a full-length array;
    stream operations decode no range that is constant in every operand."""

    def test_huge_constant_stream_reduces_from_metadata(self):
        # 2^40 elements in 257 constant blocks of 2^32 - 1: 1,313 bytes on
        # disk, 8 TiB if decoded; the child caps its address space at 1 GiB
        code = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            import numpy as np
            from hoszp import (CompressedStream, QuantParams, deserialize, elementwise_add,
                               elementwise_sub, hadamard, mean, scalar_mul, serialize,
                               variance)
            p = QuantParams(0.5, (2**40,), 2**32 - 1, "f32")
            outliers = (np.arange(p.block_count) % 7 - 3) * 1000
            data = serialize(CompressedStream(p, np.zeros(p.block_count), outliers, b"", b""))
            assert len(data) == 1313
            s = deserialize(data)
            n = p.element_count
            o = [int(v) for v in outliers]
            lengths = [int(v) for v in p.block_lengths()]
            total = sum(L * v for L, v in zip(lengths, o))
            sq = sum(L * v * v for L, v in zip(lengths, o))
            assert mean(s) == (1.0 * total) / n
            assert variance(s) == 1.0 * (float(n * sq - total * total) / (n * n))
            # one constant block of 2^32 - 1 elements, outlier 7: 32 GiB if
            # decoded; a stream operation builds its result from the outliers
            p = QuantParams(0.5, (2**32 - 1,), 2**32 - 1, "f32")
            data = serialize(CompressedStream(p, np.zeros(1), [7], b"", b""))
            assert len(data) == 33
            s = deserialize(data)
            for r, o in ((scalar_mul(s, 3.0), 21), (elementwise_add(s, s), 14),
                         (elementwise_sub(s, s), 0), (hadamard(s, s), 49)):
                assert (r.widths.tolist(), r.outliers.tolist()) == ([0], [o])
                assert (r.sign_planes, r.payload) == (b"", b"")
            print("ok")
        """)
        src = os.path.dirname(os.path.dirname(codec.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_covariance_peak_memory(self):
        n = 1 << 22  # one full-length int64 array is 32 MiB
        p = QuantParams(1e-3, (n,), 32, "f32")
        rng = np.random.default_rng(313)
        a = compress(RawArray(rng.random(n, dtype=np.float32), (n,), "f32"), p)
        b = compress(RawArray(rng.random(n, dtype=np.float32), (n,), "f32"), p)
        tracemalloc.start()
        try:
            covariance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    def test_covariance_peak_memory_half_constant(self):
        # half the blocks constant, the others 1 to 10 bits wide and
        # interleaved: the compact rows of the non-constant blocks stay
        # range-sized
        n, k = 1 << 22, 32
        p = QuantParams(1e-3, (n,), k, "f32")
        rng = np.random.default_rng(331)
        streams = []
        for _ in range(2):
            widths = rng.integers(1, 11, n // k) * (rng.random(n // k) < 0.5)
            resid = rng.integers(0, 1 << 10, (n // k, k)) >> (10 - widths)[:, None]
            resid[rng.random((n // k, k)) < 0.5] *= -1
            resid[:, 0] = rng.integers(-1000, 1000, n // k)
            streams.append(encode_from_quant(QuantArray(np.cumsum(resid, axis=1).ravel(), p)))
            del resid
        for s in streams:
            assert 0.4 < np.mean(s.widths == 0) < 0.6
            assert len(np.unique(s.widths)) == 11
        tracemalloc.start()
        try:
            covariance(*streams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    def test_encode_peak_memory(self):
        # the input is 16 MiB, a full-length int64 array 32 MiB and each
        # stream about 5 MiB; encodes hold one range of temporaries
        n = 1 << 22
        p = QuantParams(1e-3, (n,), 32, "f32")
        rng = np.random.default_rng(317)
        raw = RawArray(rng.random(n, dtype=np.float32), (n,), "f32")
        a = compress(raw, p)
        b = compress(RawArray(rng.random(n, dtype=np.float32), (n,), "f32"), p)
        for name, call in (("compress", lambda: compress(raw, p)),
                           ("eadd", lambda: elementwise_add(a, b)),
                           ("hadamard", lambda: hadamard(a, b))):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 24 * 2**20, (name, peak)


class TestStructuralNoDequantize:
    def test_ops_never_invert_quantization(self, monkeypatch, example_stream):
        def boom(*a, **k):
            raise AssertionError("homomorphic op invoked inverse quantization")

        monkeypatch.setattr(codec, "dequantize", boom)
        monkeypatch.setattr(codec, "decompress", boom)
        monkeypatch.setattr(codec, "_dequantize_into", boom)
        s = example_stream
        negate(s)
        scalar_add(s, 0.67)
        scalar_sub(s, 0.67)
        scalar_mul(s, 3.14)
        elementwise_add(s, s)
        elementwise_sub(s, s)
        hadamard(s, s)
        mean(s)
        variance(s)
        stddev(s)
        covariance(s, s)
        ssim_global(s, s)


class TestLayoutComputedOnce:
    """``model.section_sizes`` runs once per stream geometry: a derived
    stream shares its source's layout, ``deserialize`` parses with the
    layout it hands the stream, and range walks slice it."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        real = model.section_sizes

        def section_sizes(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "section_sizes", section_sizes)
        return calls

    @pytest.fixture
    def stream(self):
        return _mixed_stream(np.random.default_rng(139), 32, 3 * codec._RANGE_ELEMS // 2 + 5)

    def test_meta_ops_reuse_the_layout(self, monkeypatch, stream):
        calls = self._counted(monkeypatch)
        negate(stream)
        scalar_add(stream, 0.5)
        scalar_sub(stream, 0.25)
        negate(scalar_add(negate(stream), 1.0))
        assert calls == []

    def test_deserialize_then_decompress_computes_it_once(self, monkeypatch, stream):
        data = serialize(stream)
        calls = self._counted(monkeypatch)
        decompress(deserialize(data))
        assert len(calls) == 1

    def test_range_walks_slice_it(self, monkeypatch, stream):
        calls = self._counted(monkeypatch)
        # 98,309 = 3,072 * 32 + 5 elements: two ranges of whole blocks, then
        # the ragged last block as a range of its own
        assert [k for _, _, k, _ in codec._block_ranges(stream.params)] == [32, 32, 5]
        decode_to_quant(stream)
        mean(stream)
        covariance(stream, stream)
        assert calls == []


class TestOracleApply:
    def test_reduction_dispatch(self, example_stream):
        vals = _values(example_stream)
        assert oracle_apply("mean", [example_stream]) == pytest.approx(
            float(vals.mean()), rel=0, abs=1e-15)
        assert mean(example_stream) == pytest.approx(
            oracle_apply("mean", [example_stream]), abs=1e-12 * 0.04)

    def test_unknown_name(self, example_stream):
        with pytest.raises(ValueError):
            oracle_stream("transpose", [example_stream])
        with pytest.raises(ValueError):
            oracle_reduction("median", [example_stream])
        for call in (ops.apply, oracle_apply, oracle_stream):
            with pytest.raises(ValueError, match="unknown"):
                call("transpose", [example_stream])
        # a name of the other kind is unknown to a kind-specific entry point
        with pytest.raises(ValueError, match="unknown stream operation"):
            oracle_stream("mean", [example_stream])
        with pytest.raises(ValueError, match="unknown reduction"):
            oracle_reduction("neg", [example_stream])

    @pytest.mark.parametrize("call", [ops.apply, oracle_apply, oracle_stream])
    def test_arity_and_scalar_checked(self, call, example_stream):
        with pytest.raises(ValueError, match="takes 2"):
            call("eadd", [example_stream])
        with pytest.raises(ValueError, match="needs a scalar"):
            call("sadd", [example_stream])


#: one changed field each; (2, 2) has as many elements as (4,)
PARAMS_MISMATCHES = [{"eps": 0.02}, {"dims": (5,)}, {"dims": (2, 2)}, {"block_len": 4},
                     {"dtype": "f64"}]


def _mismatched(delta):
    """Two streams whose params differ in ``delta``."""
    base = QuantParams(0.01, (4,), 32, "f32")
    return [encode_from_quant(QuantArray(np.arange(p.element_count) - 2, p))
            for p in (base, dataclasses.replace(base, **delta))]


class TestOpTable:
    def test_covers_the_cli_choices(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

        def choices(command):
            return set(next(a for a in sub.choices[command]._actions
                            if a.dest == "op_name").choices)

        streams = {n for n, spec in ops.OPS.items() if not spec.reduction}
        assert choices("op") == streams
        assert choices("stats") == set(ops.OPS) - streams
        assert len(ops.OPS) == 12

    #: the exported function each entry holds
    EXPORTED = {"neg": negate, "sadd": scalar_add, "ssub": scalar_sub, "smul": scalar_mul,
                "eadd": elementwise_add, "esub": elementwise_sub, "hadamard": hadamard,
                "mean": mean, "variance": variance, "stddev": stddev, "covariance": covariance,
                "ssim": ssim_global}

    def test_each_entry_holds_its_exported_function(self):
        assert list(ops.OPS) == list(self.EXPORTED)
        for name, fn in self.EXPORTED.items():
            assert ops.OPS[name].fn is fn

    @pytest.mark.parametrize("scalar", [None, 2.5])
    @pytest.mark.parametrize("name", list(ops.OPS))
    def test_apply_passes_the_scalar_exactly_when_taken(self, name, scalar):
        calls = []
        spec = dataclasses.replace(ops.OPS[name], fn=lambda *args: calls.append(args))
        streams = [object() for _ in range(spec.arity)]
        spec.apply(streams, scalar)
        assert calls == [(*streams, scalar) if spec.takes_scalar else tuple(streams)]

    def test_apply_by_name_equals_the_direct_call(self):
        rng = np.random.default_rng(271)
        for _ in range(8):
            p = random_params(rng)
            # the bin cap keeps the products inside the 32-bit outlier slot
            pair = [random_stream(rng, params=p, hi=2**15) for _ in range(2)]
            for name, fn in self.EXPORTED.items():
                spec = ops.OPS[name]
                streams = pair[: spec.arity]
                got = ops.apply(name, streams, 1.5)
                want = fn(*streams, *([1.5] if spec.takes_scalar else []))
                assert got == want if spec.reduction else serialize(got) == serialize(want)

    def test_every_entry_has_an_oracle(self, example_stream):
        s = example_stream
        for name, spec in ops.OPS.items():
            assert spec.name == name
            assert callable(spec.apply) and callable(spec.oracle)
            want = spec.oracle([s] * spec.arity, 0.67)
            got = ops.apply(name, [s] * spec.arity, 0.67)
            if spec.reduction:
                assert got == pytest.approx(want, rel=1e-9, abs=1e-15)
            else:
                assert np.array_equal(_values(got), _values(want))

    @pytest.mark.parametrize("delta", PARAMS_MISMATCHES)
    @pytest.mark.parametrize("name", [n for n, spec in ops.OPS.items() if spec.arity == 2])
    @pytest.mark.parametrize("run", [ops.apply, ops.oracle_apply])
    def test_params_mismatch(self, run, name, delta):
        with pytest.raises(ParamsMismatch):
            run(name, _mismatched(delta))

    @pytest.mark.parametrize("delta", PARAMS_MISMATCHES)
    def test_sum_streams_third_operand_mismatch(self, delta):
        a, b = _mismatched(delta)
        with pytest.raises(ParamsMismatch):
            ops.sum_streams([a, a, b], [1, -1, 1])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       op=st.sampled_from(sorted(n for n, spec in ops.OPS.items() if not spec.reduction)))
def test_theorem_equivalence_property(seed, op):
    rng = np.random.default_rng(seed)
    p = random_params(rng)
    # bin cap keeps multiplicative results inside the 32-bit outlier slot
    operands = [random_stream(rng, params=p, hi=2**15)]
    if ops.OPS[op].arity == 2:
        operands.append(random_stream(rng, params=p, hi=2**15))
    scalar = float(rng.uniform(-30, 30))
    got = _values(ops.apply(op, operands, scalar=scalar))
    want = oracle_apply(op, operands, scalar=scalar).values
    assert np.array_equal(got, want)
