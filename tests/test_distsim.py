"""Distributed sum-aggregation simulator."""

import numpy as np
import pytest

from hoszp import (
    OutlierOverflow,
    ParamsMismatch,
    QuantArray,
    QuantOverflow,
    QuantParams,
    VerificationMismatch,
    compress,
    decompress,
    elementwise_add,
    encode_from_quant,
    negate,
    ops,
    scalar_add,
)
from hoszp import distsim
from hoszp.codec import RawArray
from hoszp.distsim import SimScenario, _aggregate_homomorphic, _aggregate_traditional, simulate
from hoszp.synth import smooth_field

from conftest import SUM_PAST_63_BITS


def _chunks(count, dims=(48, 48), base_seed=0):
    return [smooth_field(dims, seed=base_seed + i) for i in range(count)]


class TestScenario:
    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            SimScenario(_chunks(1), eps=1e-2)

    def test_needs_one_repetition(self):
        with pytest.raises(ValueError, match="repetitions"):
            SimScenario(_chunks(2), eps=1e-2, repetitions=0)

    @pytest.mark.parametrize("latency", [-1.0, -1e-12, float("nan"), float("inf"),
                                         float("-inf")])
    def test_latency_must_be_finite_and_non_negative(self, latency):
        with pytest.raises(ValueError, match="latency_per_byte"):
            SimScenario(_chunks(2, dims=(8, 8)), eps=1e-2, latency_per_byte=latency)

    def test_latency_adds_to_both_paths(self):
        chunks = _chunks(2, dims=(16, 16))
        free = simulate(SimScenario(chunks, eps=1e-3))
        slow = simulate(SimScenario(chunks, eps=1e-3, latency_per_byte=1.0))
        assert slow.t_homomorphic >= slow.bytes_compressed > free.t_homomorphic
        assert slow.t_traditional >= slow.bytes_compressed

    def test_chunks_must_match(self):
        bad = [smooth_field((8, 8), seed=0), smooth_field((8, 9), seed=1)]
        with pytest.raises(ParamsMismatch):
            SimScenario(bad, eps=1e-2)


class TestAggregation:
    def test_identical_chunks_sum_to_multiple(self):
        chunk = smooth_field((40, 40), seed=3)
        params = QuantParams(1e-2, (40, 40), 32, "f32")
        s = compress(chunk, params)
        agg = _aggregate_homomorphic([s] * 4)
        got = decompress(agg, out_dtype=np.float64).values
        want = 4.0 * decompress(s, out_dtype=np.float64).values
        assert np.array_equal(got, want)

    def test_chunk_plus_negation_is_zero_stream(self):
        chunk = smooth_field((40, 40), seed=4)
        params = QuantParams(1e-2, (40, 40), 32, "f32")
        s = compress(chunk, params)
        agg = _aggregate_homomorphic([s, negate(s)])
        assert int(agg.widths.max()) == 0
        assert not np.any(decompress(agg).values)

    def test_fold_matches_pairwise_elementwise_add(self):
        params = QuantParams(1e-3, (48, 48), 32, "f32")
        streams = [compress(c, params) for c in _chunks(5)]
        acc = streams[0]
        for s in streams[1:]:
            acc = elementwise_add(acc, s)
        assert _aggregate_homomorphic(streams) == acc

    def test_matches_traditional_bitwise(self):
        params = QuantParams(1e-3, (48, 48), 32, "f32")
        streams = [compress(c, params) for c in _chunks(6, base_seed=20)]
        homo = _aggregate_homomorphic(streams)
        trad = _aggregate_traditional(streams)
        assert np.array_equal(decompress(homo, out_dtype=np.float64).values,
                              decompress(trad, out_dtype=np.float64).values)


    @pytest.mark.parametrize("bins, error", [
        ([2**31 - 1, 2**31 + 2**61], OutlierOverflow),  # a + a: outlier past int32
        ([-(2**31) + 1, 2**63 - 1], QuantOverflow),  # a + a: bins past 63 bits
    ])
    def test_sum_fits_where_pairwise_fold_overflows(self, bins, error):
        # the n-ary sum checks only the result, not a left fold's partial sums
        a = encode_from_quant(QuantArray(np.array(bins), QuantParams(0.5, (2,), 2, "f64")))
        with pytest.raises(error):
            elementwise_add(a, a)
        assert _aggregate_homomorphic([a, a, negate(a)]) == a

    @pytest.mark.parametrize("bins", SUM_PAST_63_BITS)
    def test_sum_past_63_bits_raises_like_the_oracle(self, bins):
        a = encode_from_quant(QuantArray(np.array(bins),
                                         QuantParams(0.5, (len(bins),), len(bins), "f64")))
        for aggregate in (_aggregate_traditional, _aggregate_homomorphic):
            with pytest.raises(QuantOverflow):
                aggregate([a, a])
        # the n-ary sum checks the result alone
        assert _aggregate_homomorphic([a, a, negate(a)]) == a

    def test_result_residual_past_64_bits_is_quant_overflow(self):
        # the result has an outlier past int32, a residual past 2^64 - 1
        # and bins past 63 bits; as in elementwise_add, the bins are
        # reported
        a = encode_from_quant(QuantArray(np.array([-(2**31), 2**63 - 1]),
                                         QuantParams(0.5, (2,), 2, "f64")))
        with pytest.raises(QuantOverflow):
            _aggregate_homomorphic([a, a, a])


class TestSimulate:
    def test_report_fields(self):
        rep = simulate(SimScenario(_chunks(4), eps=1e-2, repetitions=2))
        assert rep.node_count == 4
        assert rep.eps == 1e-2
        assert rep.t_traditional > 0 and rep.t_homomorphic > 0
        assert rep.speedup == rep.t_traditional / rep.t_homomorphic
        assert rep.bytes_in == 4 * 48 * 48 * 4
        assert 0 < rep.bytes_compressed < rep.bytes_in
        assert rep.compression_ratio > 1

    def test_latency_applies_to_both_paths(self):
        scn = SimScenario(_chunks(3), eps=1e-2)
        base = simulate(scn)
        scn_lat = SimScenario(_chunks(3), eps=1e-2, latency_per_byte=1e-6)
        delayed = simulate(scn_lat)
        transfer = 1e-6 * delayed.bytes_compressed
        assert delayed.t_traditional >= transfer
        assert delayed.t_homomorphic >= transfer

    def test_mixed_sign_scenario(self):
        chunk = smooth_field((30, 30), seed=8)
        params = QuantParams(1e-2, (30, 30), 32, "f32")
        s = compress(chunk, params)
        neg_raw = RawArray(-chunk.values, (30, 30), "f32")
        # simulate raises unless both aggregates decompress identically
        rep = simulate(SimScenario([chunk, neg_raw], eps=1e-2))
        assert rep.node_count == 2

    def test_differing_aggregates_raise(self, monkeypatch):
        def off_by_one_bin(streams):
            return scalar_add(ops.sum_streams(streams, [1] * len(streams)),
                              2.0 * streams[0].params.eps)

        monkeypatch.setattr(distsim, "_aggregate_homomorphic", off_by_one_bin)
        with pytest.raises(VerificationMismatch, match="decompress differently"):
            simulate(SimScenario(_chunks(2), eps=1e-2))
