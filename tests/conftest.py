from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import pytest

from hoszp import (
    CompressedStream,
    QuantArray,
    QuantParams,
    RawArray,
    codec,
    compress,
    encode_from_quant,
)

#: the worked single-block example: eps=0.01 reproduces the documented bins,
#: outlier, residuals, sign bits, and packed payload byte
EXAMPLE_EPS = 0.01
EXAMPLE_VALUES = [-0.025, -0.025, -0.051, -0.052]
EXAMPLE_BINS = [-1, -1, -3, -3]

#: bins of one f64 block at eps 0.5 whose doubles pass 63 bits, where the
#: oracle's quantizer fails too, whether the residuals pass int64 or not
SUM_PAST_63_BITS = [
    [0, 2**62 + 2**61],  # the residual fits in 64 bits, the bins pass 63
    [0, -(2**62)],  # the sum lands exactly on -2^63
    [0, 2**61, 2**62, 2**62 + 2**61],  # every residual of the sum fits int64
]


@pytest.fixture
def example_params():
    return QuantParams(eps=EXAMPLE_EPS, dims=(2, 2), block_len=32, dtype="f32")


@pytest.fixture
def example_raw(example_params):
    return RawArray(np.array(EXAMPLE_VALUES, dtype=np.float32), (2, 2), "f32")


@pytest.fixture
def example_stream(example_raw, example_params):
    return compress(example_raw, example_params)


def random_params(rng, dtypes=("f32", "f64"), eps_choices=(1e-1, 1e-2, 1e-3, 0.25),
                  max_dim=40, max_ndim=3):
    nd = int(rng.integers(1, max_ndim + 1))
    dims = tuple(int(d) for d in rng.integers(1, max_dim, nd))
    return QuantParams(
        eps=float(rng.choice(eps_choices)),
        dims=dims,
        block_len=int(rng.choice([1, 4, 8, 32, 33])),
        dtype=str(rng.choice(dtypes)),
    )


def random_bins(rng, params, hi=2**20):
    """Valid random bins: block-start bins stay in int32 (they become
    outliers), interior bins may be anything up to ``hi``."""
    n = params.element_count
    bins = rng.integers(-hi, hi, n)
    starts = slice(None, None, params.block_len)
    lo32 = max(-(2**31), -hi)
    hi32 = min(2**31 - 1, hi)
    bins[starts] = rng.integers(lo32, hi32, bins[starts].size)
    return bins


def random_stream(rng, params=None, hi=2**20, **kwargs):
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    params = params or random_params(rng, **kwargs)
    return encode_from_quant(QuantArray(random_bins(rng, params, hi), params))


def range_sizes(k):
    """Element counts around the decode-range boundaries at block length
    ``k``: R*k-1, R*k, R*k+1 and 2R*k+k/2, where R is the number of blocks
    per range."""
    r = max(1, codec._RANGE_ELEMS // k)
    return [r * k - 1, r * k, r * k + 1, 2 * r * k + k // 2]


def wide_block_bins(rng, n, k, constant_first_range=False):
    """Bins of ``n`` elements in blocks of ``k`` with small residuals, except
    for 62-, 63- and 64-bit-wide blocks in the last range and, when there are
    three ranges, in the middle one; ``constant_first_range`` makes the
    other blocks of the first range constant.  Returns ``(bins, {block:
    width})``."""
    r = max(1, codec._RANGE_ELEMS // k)
    nb = -(-n // k)
    bins = rng.integers(-(2**20), 2**20) + np.cumsum(rng.integers(-7, 8, n))
    wide = {nb - 1: 64, nb - 2: 63, nb - 3: 62}
    if nb > 2 * r:
        wide.update({r + 1: 62, r + r // 2: 63, 2 * r - 1: 64})
    wide = {b: w for b, w in wide.items() if min(b * k + k, n) - b * k >= 3}
    for b, w in wide.items():  # set the first three bins of block b
        s = b * k
        if w == 64:  # 2^63 + 2^31 - 1 up, then about 2^63 back down
            bins[s : s + 3] = [-(2**31), 2**63 - 1, 5]
        else:
            bins[s : s + 3] = [0, 2 ** (w - 1) + int(rng.integers(0, 2 ** (w - 2))), 5]
    if constant_first_range:
        for b in range(min(r, nb)):
            if b not in wide:
                bins[b * k : b * k + k] = rng.integers(-1000, 1000)
    return bins, wide


def ref_pack_row(values, w):
    """Reference packer: ``w`` bits per value, MSB first, zero-padded to a
    byte, built as one Python int."""
    acc = 0
    for v in values:
        acc = (acc << w) | int(v)
    nbits = len(values) * w
    nbytes = (nbits + 7) // 8
    return (acc << (8 * nbytes - nbits)).to_bytes(nbytes, "big")


def py_reductions(eps, qa, qb=None):
    """Mean and variance of bin array ``qa`` and, given ``qb``, covariance
    and SSIM of the pair, from Python-int sums scaled with the same float
    expressions as ``ops``."""
    xa = qa.tolist()
    n = len(xa)
    sa, sqa = sum(xa), sum(v * v for v in xa)
    e2 = 2.0 * eps

    def moment(num):  # ops._moment
        return e2 * e2 * (float(num) / (n * n)) if num else 0.0

    out = {"mean": (e2 * sa) / n, "variance": moment(n * sqa - sa * sa)}
    if qb is None:
        return out
    xb = qb.tolist()
    sb, sqb = sum(xb), sum(v * v for v in xb)
    sab = sum(u * v for u, v in zip(xa, xb))
    cov = moment(n * sab - sa * sb)
    mu_a, mu_b = e2 * sa / n, e2 * sb / n
    var_a, var_b = out["variance"], moment(n * sqb - sb * sb)
    value_range = e2 * max(max(xa) - min(xa), max(xb) - min(xb))
    r1, r3 = 0.01 * value_range, 0.03 * value_range
    c1, c2 = r1 * r1, r3 * r3
    out["covariance"] = cov
    out["ssim"] = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
                   / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)))
    return out


@dataclass
class RefBlock:
    """One block of the reference model, in Python ints: the first bin as
    the ``outlier``, then the signed ``residuals`` ``bins[i] - bins[i-1]``
    with 0 in the first slot, which the outlier carries.  Independent of
    the codec, it is what the codec's range stages are checked against."""

    outlier: int
    residuals: list[int]

    @property
    def residual_mags(self) -> list[int]:
        return [abs(r) for r in self.residuals]

    @property
    def signs(self) -> list[int]:
        """1 for a negative residual, else 0."""
        return [int(r < 0) for r in self.residuals]

    @property
    def width(self) -> int:
        return max(self.residual_mags).bit_length()

    @property
    def is_constant(self) -> bool:
        return self.width == 0


def ref_blocks(q):
    """The blocks of quantized array ``q`` in the reference model."""
    bins, k = q.bins.tolist(), q.params.block_len
    return [RefBlock(block[0], [0] + [b - a for a, b in zip(block, block[1:])])
            for block in (bins[s : s + k] for s in range(0, len(bins), k))]


def ref_bins(blocks, params):
    """Inverse of :func:`ref_blocks`: each block's running sums of its
    residuals, seeded by its outlier.  Blocks of the wrong count or length
    raise ``ValueError``."""
    k, n = params.block_len, params.element_count
    if [len(b.residuals) for b in blocks] != [min(k, n - s) for s in range(0, n, k)]:
        raise ValueError(f"blocks do not form {params.block_count} blocks of {k}")
    bins = [b.outlier + x for b in blocks for x in accumulate(b.residuals)]
    return QuantArray(np.array(bins, dtype=np.int64), params)


def reference_stream(q):
    """The stream of quantized array ``q`` assembled block by block from
    :func:`ref_blocks` and the reference packer."""
    widths, outliers, signs, payload = [], [], [], []
    for v in ref_blocks(q):
        widths.append(v.width)
        outliers.append(v.outlier)
        if v.width:
            signs.append(ref_pack_row(v.signs, 1))
            payload.append(ref_pack_row(v.residual_mags, v.width))
    return CompressedStream(q.params, widths, outliers, b"".join(signs), b"".join(payload))
