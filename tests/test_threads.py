"""The ``threads`` argument the benchmark still passes is accepted and
ignored: every entry point that takes it gives the same bytes or floats
for any value.  Each call mirrors ``perfbench/workloads.py`` and
``perfbench/phase.py``: positional or keyword, as there."""

import hoszp as h
from hoszp import ops
from hoszp.cli import main

DIMS = (48, 48)
EPS = 1e-3
SCALAR = 3.14


def _results(threads, tmp_path, capsys):
    params = h.QuantParams(EPS, DIMS, 32, "f32")
    raw = h.random_field(DIMS, 3)
    a = h.compress(raw, params, threads)
    b = h.compress(h.random_field(DIMS, 4), params, threads)
    q = h.decode_to_quant(a, threads)
    out = {
        "compress": h.serialize(a),
        "decompress": h.decompress(a, threads).values.tobytes(),
        "decode_to_quant": q.bins.tobytes(),
        "encode_from_quant": h.serialize(h.encode_from_quant(q, threads)),
        "elementwise_add": h.serialize(h.elementwise_add(a, b, threads)),
        "elementwise_sub": h.serialize(h.elementwise_sub(a, b, threads)),
        "scalar_mul": h.serialize(h.scalar_mul(a, SCALAR, threads)),
        "hadamard": h.serialize(h.hadamard(a, b, threads)),
        "mean": h.mean(a, threads=threads),
        "variance": h.variance(a, threads=threads),
        "stddev": h.stddev(a, threads=threads),
        "covariance": h.covariance(a, b, threads=threads),
        "ssim_global": h.ssim_global(a, b, threads=threads),
    }
    for name, spec in ops.OPS.items():
        operands = [a, b][: spec.arity]
        if spec.reduction:
            out[f"oracle {name}"] = h.oracle_reduction(name, operands, threads)
        else:
            out[f"oracle {name}"] = h.serialize(h.oracle_stream(name, operands, SCALAR, threads))
    nodes = [h.random_field(DIMS, 10 + i) for i in range(3)]
    sim = h.simulate(h.SimScenario(nodes, eps=EPS, block_len=32, repetitions=1,
                                   threads=threads))
    out["simulate"] = (sim.node_count, sim.eps, sim.bytes_in, sim.bytes_compressed)

    raw_path, hsz = tmp_path / "raw.bin", tmp_path / f"cli{threads}.hsz"
    h.write_raw(raw, raw_path)
    assert main(["compress", str(raw_path), "-o", str(hsz), "--dims", "48x48",
                 "--eps", str(EPS), "--block-len", "32", "--threads", str(threads)]) == 0
    out["cli compress"] = hsz.read_bytes()
    capsys.readouterr()
    assert main(["stats", "mean", str(hsz), "--threads", str(threads)]) == 0
    out["cli stats mean"] = capsys.readouterr().out.splitlines()[0]
    return out


def test_benchmark_signatures_accept_and_ignore_threads(tmp_path, capsys):
    assert _results(3, tmp_path, capsys) == _results(1, tmp_path, capsys)
