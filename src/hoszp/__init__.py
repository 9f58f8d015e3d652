"""Homomorphic error-bounded lossy compression for scientific arrays."""

from .codec import (
    RawArray,
    compress,
    decode_to_quant,
    decompress,
    dequantize,
    encode_from_quant,
    quantize,
    read_raw,
    resolve_eps,
    write_raw,
)
from .distsim import SimReport, SimScenario, simulate
from .errors import (
    BadMagic,
    FormatError,
    GeometryMismatch,
    HoszpError,
    OutlierOverflow,
    ParamsMismatch,
    QuantOverflow,
    TruncatedStream,
    VerificationMismatch,
    VersionMismatch,
)
from .model import (
    CompressedStream,
    QuantArray,
    QuantParams,
    deserialize,
    serialize,
)
from .ops import (
    ScalarBin,
    covariance,
    elementwise_add,
    elementwise_sub,
    hadamard,
    mean,
    negate,
    oracle_apply,
    oracle_reduction,
    oracle_stream,
    scalar_add,
    scalar_mul,
    scalar_sub,
    ssim_global,
    stddev,
    variance,
)
from .synth import random_field, smooth_field

__version__ = "0.1.0"
