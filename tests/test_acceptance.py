"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The speedup criterion
times a 64 MiB field and takes a couple of minutes; everything else is
fast.
"""

import os
import time

import numpy as np
import pytest

from hoszp import (
    QuantArray,
    QuantParams,
    RawArray,
    ScalarBin,
    compress,
    decode_to_quant,
    decompress,
    deserialize,
    encode_from_quant,
    mean,
    negate,
    quantize,
    serialize,
    variance,
)
from hoszp import ops
from hoszp.distsim import SimScenario, simulate
from hoszp.synth import random_field, smooth_field

from conftest import (
    EXAMPLE_BINS,
    EXAMPLE_EPS,
    EXAMPLE_VALUES,
    py_reductions,
    random_params,
    random_stream,
    ref_blocks,
    reference_stream,
)

THREADS = os.cpu_count() or 1


def _passed(n, text):
    print(f"\n[ACCEPTANCE] criterion {n} PASS: {text}")


def test_criterion_1_error_bound_guarantee():
    """max|x - x_hat| <= eps for eps in {1e-1..1e-5}, 1e6-element random and
    smooth fields; exact inequality."""
    n = 1_000_000
    worst = 0.0
    t0 = time.perf_counter()
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        for raw in (random_field((n,), seed=int(1 / eps), dtype="f64"),
                    smooth_field((100, 100, 100), seed=int(1 / eps) + 1, dtype="f64")):
            params = QuantParams(eps, raw.dims, 32, "f64")
            restored = decompress(compress(raw, params, THREADS), THREADS)
            err = float(np.abs(raw.values - restored.values).max())
            assert err <= eps, (err, eps)
            worst = max(worst, err / eps)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s (budget 30s)"
    _passed(1, f"10 field/eps combos, worst err/eps = {worst:.6f}, {elapsed:.1f}s")


def test_criterion_2_worked_example_goldens():
    """The documented single-block example reproduces exactly, zero tolerance."""
    params = QuantParams(EXAMPLE_EPS, (2, 2), 32, "f32")
    raw = RawArray(np.array(EXAMPLE_VALUES, dtype=np.float32), (2, 2), "f32")
    q = quantize(raw, params)
    assert list(q.bins) == EXAMPLE_BINS
    (view,) = ref_blocks(q)
    assert view.outlier == -1
    assert list(view.residual_mags) == [0, 0, 2, 0]
    assert list(view.signs) == [0, 0, 1, 0]
    stream = compress(raw, params)
    assert stream.payload == b"\x08"
    assert stream == reference_stream(q)
    assert mean(stream) == -0.04

    assert ScalarBin.of(0.67, EXAMPLE_EPS).bin == 33
    assert list(ops.scalar_add(stream, 0.67).outliers) == [32]

    assert ScalarBin.of(3.14, EXAMPLE_EPS).bin == 157
    scaled = ops.scalar_mul(stream, 3.14)
    assert list(decode_to_quant(scaled).bins) == [-3, -3, -9, -9]
    (view,) = ref_blocks(decode_to_quant(scaled))
    assert view.outlier == -3
    assert list(view.residual_mags) == [0, 0, 6, 0]
    assert list(view.signs) == [0, 0, 1, 0]
    assert scaled == reference_stream(decode_to_quant(scaled))
    _passed(2, "bins/outlier/residuals/signs/payload/mean/scalar goldens exact")


def test_criterion_3_theorem_equivalence_suite():
    """200 randomized cases per operation: compression-as-output results are
    bit-exact against the traditional workflow; reductions within 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)

    def case_params():
        return random_params(rng, eps_choices=(1e-1, 1e-2, 1e-3, 1e-4, 0.25, 2.0**-7),
                             max_dim=16, max_ndim=3)

    for op, spec in sorted(ops.OPS.items()):
        if spec.reduction:
            continue
        for _ in range(200):
            p = case_params()
            operands = [random_stream(rng, params=p, hi=2**15)
                        for _ in range(spec.arity)]
            scalar = float(rng.uniform(-30, 30))
            got = decompress(ops.apply(op, operands, scalar=scalar),
                             out_dtype=np.float64).values
            want = ops.oracle_apply(op, operands, scalar=scalar).values
            assert np.array_equal(got, want), op

    for red, spec in sorted(ops.OPS.items()):
        if not spec.reduction:
            continue
        checked = 0
        while checked < 200:
            p = case_params()
            operands = [random_stream(rng, params=p, hi=2**15)
                        for _ in range(spec.arity)]
            if red == "ssim" and (variance(operands[0]) == 0.0
                                  or variance(operands[1]) == 0.0):
                continue  # degenerate inputs are rejected by contract
            got = ops.apply(red, operands)
            want = ops.oracle_reduction(red, operands)
            rel = abs(got - want) / max(abs(want), abs(got), 1e-300)
            assert rel <= 1e-9, (red, got, want)
            checked += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s (budget 2 min)"
    _passed(3, f"7 ops x 200 bit-exact, 5 reductions x 200 within 1e-9, {elapsed:.1f}s")


def test_criterion_4_canonical_and_inverse_properties():
    """Five structural properties, each over >= 500 random instances."""
    rng = np.random.default_rng(4096)

    for _ in range(500):
        s = random_stream(rng, max_dim=24)
        assert deserialize(serialize(s)) == s

    for _ in range(500):
        p = random_params(rng, max_dim=24)
        bins = rng.integers(-(2**31), 2**31, p.element_count)
        q = QuantArray(bins, p)
        s = encode_from_quant(q)
        assert s == reference_stream(q)
        assert decode_to_quant(s) == q

    for _ in range(500):
        s = random_stream(rng, max_dim=24)
        assert serialize(compress(decompress(s), s.params)) == serialize(s)

    for _ in range(500):
        s = random_stream(rng, max_dim=24)
        v = decompress(s, out_dtype=np.float64).values
        assert np.array_equal(decompress(negate(negate(s)), out_dtype=np.float64).values, v)

    for _ in range(500):
        s = random_stream(rng, max_dim=24)
        z = ops.elementwise_sub(s, s)
        assert int(z.widths.max(initial=0)) == 0
        assert not np.any(z.outliers)
        assert not np.any(decompress(z).values)
    _passed(4, "serialize/encode-decode/recompress/negate/self-subtract x 500 instances")


def test_criterion_5_speedup_over_traditional_workflow():
    """On a 64 MiB smooth field at eps=1e-2 with all cores, every
    compression-as-output op beats decompress+op+compress, and every
    reduction beats decompress+compute, by >= 1.1x."""
    dims = (4096, 4096)  # 64 MiB of f32
    raw = smooth_field(dims, seed=0, dtype="f32")
    params = QuantParams(1e-2, dims, 32, "f32")
    stream = compress(raw, params, THREADS)
    second = ops.scalar_add(stream, 16 * params.eps)
    results = {}
    for name, spec in ops.OPS.items():
        operands = [stream, second][:spec.arity]
        t_op = time.perf_counter()
        result = ops.apply(name, operands, scalar=3.14)
        t_homo = time.perf_counter() - t_op
        t_op = time.perf_counter()
        if spec.reduction:
            ops.oracle_reduction(name, operands, threads=THREADS)
        else:
            ops.oracle_stream(name, operands, scalar=3.14, threads=THREADS)
        t_oracle = time.perf_counter() - t_op
        assert t_homo < 120.0 and t_oracle < 120.0
        results[name] = t_oracle / t_homo
        assert results[name] >= 1.1, (name, results[name])
        del result

    arrays = [smooth_field((512, 512), seed=i, dtype="f32") for i in range(16)]
    report = simulate(SimScenario(arrays, eps=1e-3, repetitions=3, threads=THREADS))
    assert report.speedup > 1.0, report
    summary = " ".join(f"{k}={v:.2f}x" for k, v in results.items())
    _passed(5, f"{summary} distsim16={report.speedup:.2f}x")


def test_criterion_6_constant_block_effectiveness():
    """A uniform 256^3 f32 field compresses entirely into constant blocks;
    the size follows the exact formula, the ratio clears 100 at a block
    length whose 5-byte overhead allows it, and reductions on the shortcut
    path match the oracle and Python-int sums over the bins exactly."""
    dims = (256, 256, 256)
    n = 256**3
    raw = RawArray(np.full(n, 1.0, dtype=np.float32), dims, "f32")
    for block_len, want_ratio in ((32, 25.6), (128, 102.4)):
        params = QuantParams(1e-2, dims, block_len, "f32")
        s = compress(raw, params, THREADS)
        assert int(s.widths.max()) == 0
        assert s.serialized_size == (20 + 8 * 3) + 5 * params.block_count
        assert s.compression_ratio == pytest.approx(want_ratio, rel=1e-3)
        assert mean(s) == ops.oracle_reduction("mean", [s], THREADS)
        assert variance(s) == ops.oracle_reduction("variance", [s], THREADS) == 0.0
        want = py_reductions(params.eps, decode_to_quant(s).bins)
        assert mean(s) == want["mean"] and variance(s) == want["variance"]
    # 5 bytes per block bound the constant-block ratio at raw_bytes/5 per
    # block: >= 100 requires block_len >= 125 for f32
    params = QuantParams(1e-2, dims, 128, "f32")
    s = compress(raw, params, THREADS)
    assert s.compression_ratio >= 100.0
    _passed(6, f"all-constant ratio {s.compression_ratio:.1f} at block_len=128, "
               "exact size formula, shortcut reductions exact")


def test_criterion_7_multiplicative_error_bound():
    """Hadamard and scalar multiplication stay within eps of the product of
    the decompressed operands (quantized scalar); exact inequality over 100
    random pairs at dyadic error bounds where the whole chain is exact."""
    rng = np.random.default_rng(7777)
    for _ in range(100):
        n = int(rng.integers(2, 2048))
        eps = float(rng.choice([2.0**-3, 2.0**-6, 2.0**-10]))
        p = QuantParams(eps, (n,), int(rng.choice([4, 32])),
                        str(rng.choice(["f32", "f64"])))
        a = encode_from_quant(QuantArray(random_bins(rng, n), p))
        b = encode_from_quant(QuantArray(random_bins(rng, n), p))
        va = decompress(a, out_dtype=np.float64).values
        vb = decompress(b, out_dtype=np.float64).values
        err = np.abs(decompress(ops.hadamard(a, b), out_dtype=np.float64).values
                     - va * vb)
        assert float(err.max()) <= eps
        scalar = float(rng.uniform(-10, 10))
        sb = ScalarBin.of(scalar, eps)
        err = np.abs(decompress(ops.scalar_mul(a, scalar), out_dtype=np.float64).values
                     - va * sb.quantized_value)
        assert float(err.max()) <= eps
    _passed(7, "hadamard + scalar_mul within eps, 100 pairs, exact inequality")


def random_bins(rng, n, hi=2**12):
    return rng.integers(-hi, hi, n)
