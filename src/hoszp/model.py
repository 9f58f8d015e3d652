"""Data model and binary layout of compressed streams.

A compressed stream is a header followed by four sections, in this order:

    widths      one unsigned byte per block (bits per residual magnitude)
    outliers    one signed little-endian 32-bit integer per block
    sign planes one bit per element of every *non-constant* block, in block
                order, each block's plane padded to a byte boundary
    payload     bit-packed residual magnitudes of every non-constant block,
                ``width`` bits per element (MSB first), each block's payload
                padded to a byte boundary

Constant blocks (width 0) contribute no sign bits and no payload bytes.
The exact byte layout, including a worked hex dump, is documented in
FORMAT.md at the repository root.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import (
    BadMagic,
    GeometryMismatch,
    OutlierOverflow,
    QuantOverflow,
    TruncatedStream,
    VersionMismatch,
)

MAGIC = b"HSZP"
VERSION = 1

#: dtype name -> numpy dtype, little-endian as raw files hold it; the
#: header's dtype code is the entry's position
DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}

_I32_MIN = -(2**31)
_I32_MAX = 2**31 - 1

# little-endian: magic, version, dtype code, ndim, eps, block_len
_HEADER = struct.Struct("<4sBBHdI")
# the largest ndim and block_len the header holds; each dim is a u64
_MAX_NDIM = 2**16 - 1
_MAX_BLOCK_LEN = 2**32 - 1


def _as_dims(dims) -> tuple[int, ...]:
    """The one dims rule: each dim is an integer that ``operator.index``
    accepts (a bool is not a dim) and is at least 1.  Returns the dims as
    Python ints; any other dim raises ``ValueError``."""
    dims = tuple(dims)
    try:
        ints = tuple(operator.index(d) for d in dims if not isinstance(d, bool))
    except TypeError:
        ints = ()
    if len(ints) != len(dims) or any(d < 1 for d in ints):
        raise ValueError(f"dims must be integers of at least 1, got {dims!r}")
    return ints


def _dtype_of(name) -> np.dtype:
    """The one dtype lookup: the numpy dtype of ``name``, or ``ValueError``
    for a name that is not in :data:`DTYPES`."""
    try:
        return DTYPES[name]
    except (KeyError, TypeError):
        raise ValueError(f"dtype must be one of {sorted(DTYPES)}, got {name!r}") from None


def _equal_fields(self, other):
    """The one equality of the data classes: ``NotImplemented`` for
    another type, else the dataclass fields in order, arrays compared with
    ``np.array_equal`` and everything else with ``==``."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in ((getattr(self, f.name), getattr(other, f.name))
                            for f in fields(self)))


@dataclass(frozen=True)
class QuantParams:
    """Compression parameters governing every lossy step.

    ``eps`` is the absolute error bound: each reconstructed value differs
    from its original by at most ``eps``.  Blocks are formed over the
    row-major linearization of the array; the last block may be partial.
    """

    eps: float
    dims: tuple[int, ...]
    block_len: int = 32
    dtype: str = "f32"

    def __post_init__(self):
        object.__setattr__(self, "dims", _as_dims(self.dims))
        eps = float(self.eps)
        object.__setattr__(self, "eps", eps)
        if not (eps > 0.0 and np.isfinite(eps)):
            raise ValueError(f"eps must be positive and finite, got {eps}")
        if not 1 <= len(self.dims) <= _MAX_NDIM:
            raise ValueError(f"dims must hold 1 to {_MAX_NDIM} entries, got {len(self.dims)}")
        if any(d >= 2**64 for d in self.dims):
            raise ValueError(f"dims must be below 2^64, got {self.dims}")
        try:
            if isinstance(self.block_len, bool):
                raise TypeError
            object.__setattr__(self, "block_len", operator.index(self.block_len))
        except TypeError:
            raise ValueError(f"block_len must be an integer, got {self.block_len!r}") from None
        if not 1 <= self.block_len <= _MAX_BLOCK_LEN:
            raise ValueError(f"block_len must be in [1, 2^32 - 1], got {self.block_len}")
        _dtype_of(self.dtype)

    @property
    def element_count(self) -> int:
        return math.prod(self.dims)

    @property
    def block_count(self) -> int:
        n = self.element_count
        return -(-n // self.block_len)

    @property
    def numpy_dtype(self):
        return DTYPES[self.dtype]

    @property
    def raw_nbytes(self) -> int:
        return self.element_count * DTYPES[self.dtype].itemsize

    def block_lengths(self) -> np.ndarray:
        """Actual length of each block (the last one may be partial)."""
        n, k = self.element_count, self.block_len
        lengths = np.full(self.block_count, k, dtype=np.int64)
        if n % k:
            lengths[-1] = n % k
        return lengths


@dataclass(eq=False)
class QuantArray:
    """Array of signed quantization bins: the partially-decompressed domain
    where multiplicative operations and reductions run.

    Every bin magnitude must fit in 63 bits; the reconstruction value of a
    bin ``rho`` is ``2 * eps * rho``.
    """

    bins: np.ndarray
    params: QuantParams

    def __post_init__(self):
        bins = np.ascontiguousarray(self.bins, dtype=np.int64)
        if bins.ndim != 1 or bins.shape[0] != self.params.element_count:
            raise ValueError(
                f"expected {self.params.element_count} bins, got shape {bins.shape}"
            )
        # int64 min has a 64-bit magnitude and is the one int64 value we reject
        if bins.size and np.any(bins == np.iinfo(np.int64).min):
            raise QuantOverflow("bin magnitude does not fit in 63 bits")
        self.bins = bins

    __eq__ = _equal_fields


def section_sizes(params: QuantParams, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign-plane and payload sizes in bytes of each block; a constant block
    (width 0) stores neither."""
    lengths = params.block_lengths()
    sign = (lengths + 7) >> 3
    sign[widths == 0] = 0
    return sign, (lengths * widths + 7) >> 3


def _section_offsets(sizes: np.ndarray) -> np.ndarray:
    """The start of each block's bytes in its section, then the section's
    length: ``len(sizes) + 1`` int64 entries."""
    offs = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offs[1:])
    return offs


def _layout(params: QuantParams, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sign and payload section offsets of a whole stream, read-only:
    the one place a stream's :func:`section_sizes` are computed."""
    offsets = tuple(_section_offsets(sizes) for sizes in section_sizes(params, widths))
    for offs in offsets:
        offs.flags.writeable = False
    return offsets


def _as_int32_outliers(outliers) -> np.ndarray:
    """``outliers`` as int32: integers of any integer dtype, or Python
    ints, each in the signed 32-bit range.  A value past that range, or one
    that is not an integer (a float, NaN), raises :class:`OutlierOverflow`."""
    arr = np.ascontiguousarray(outliers)
    if arr.dtype == np.int32:
        return arr
    if arr.dtype.kind not in "biu":  # floats, or Python objects
        for v in arr.flat:
            try:
                operator.index(v)
            except TypeError:
                raise OutlierOverflow(f"outlier is not an integer: {v}") from None
    if arr.size:
        lo, hi = int(arr.min()), int(arr.max())
        if lo < _I32_MIN or hi > _I32_MAX:
            raise OutlierOverflow(
                f"outlier out of signed 32-bit range: {lo if lo < _I32_MIN else hi}")
    return arr.astype(np.int32)


@dataclass(eq=False)
class CompressedStream:
    """The serialized artifact: header parameters plus the four sections.

    Instances are immutable by contract and safe to share between concurrent
    callers.  Construction normalizes the widths (uint8) and outliers
    (int32, or :class:`OutlierOverflow`), checks their counts and the 64-bit
    width limit, keeping the widest width as ``width_max``, and checks both
    sections' lengths against the widths, so any stream object in
    circulation is structurally valid.

    ``offsets`` holds the stream's section layout: the sign and payload
    offsets of every block (two read-only int64 arrays of ``block_count +
    1`` entries, each ending in its section's length).  It is computed once
    per geometry, by the length check; :func:`deserialize` passes in the
    layout it parsed with, and :meth:`_derive` shares its source's.
    """

    params: QuantParams
    widths: np.ndarray
    outliers: np.ndarray
    sign_planes: bytes
    payload: bytes

    def __post_init__(self):
        widths = np.ascontiguousarray(self.widths, dtype=np.uint8)
        outliers = _as_int32_outliers(self.outliers)
        b = self.params.block_count
        if widths.shape != (b,) or outliers.shape != (b,):
            raise GeometryMismatch(
                f"expected {b} widths/outliers, got {widths.shape}/{outliers.shape}"
            )
        self.width_max = int(widths.max(initial=0))
        if self.width_max > 64:
            raise GeometryMismatch(f"width {self.width_max} exceeds 64 bits")
        self.widths = widths
        self.outliers = outliers
        self.sign_planes = bytes(self.sign_planes)
        self.payload = bytes(self.payload)
        for name, section, offs in (("sign", self.sign_planes, self.offsets[0]),
                                    ("payload", self.payload, self.offsets[1])):
            if len(section) != offs[-1]:
                raise GeometryMismatch(
                    f"{name} section is {len(section)} bytes, expected {int(offs[-1])}"
                )

    @cached_property
    def offsets(self) -> tuple[np.ndarray, np.ndarray]:
        return _layout(self.params, self.widths)

    @classmethod
    def _with_layout(cls, offsets, params, widths, outliers, sign_planes,
                     payload) -> "CompressedStream":
        """Construct and check a stream whose ``offsets`` are already known
        to match ``params`` and ``widths``."""
        stream = cls.__new__(cls)
        stream.__dict__.update(params=params, widths=widths, outliers=outliers,
                               sign_planes=sign_planes, payload=payload, offsets=offsets)
        stream.__post_init__()
        return stream

    def _derive(self, outliers, sign_planes: bytes | None = None) -> "CompressedStream":
        """A stream of this one's params, widths, payload and layout with new
        ``outliers`` and, when given, new ``sign_planes`` (checked to be as
        long as this stream's).  The one place a stream is built from
        another's geometry."""
        return self._with_layout(
            self.offsets, self.params, self.widths, outliers,
            self.sign_planes if sign_planes is None else sign_planes, self.payload)

    @property
    def serialized_size(self) -> int:
        header = _HEADER.size + 8 * len(self.params.dims)
        return (
            header
            + 5 * self.params.block_count
            + len(self.sign_planes)
            + len(self.payload)
        )

    @property
    def compression_ratio(self) -> float:
        return self.params.raw_nbytes / self.serialized_size

    __eq__ = _equal_fields


def serialize(stream: CompressedStream) -> bytes:
    """Encode a stream to its canonical byte form.

    Deterministic: equal streams produce equal bytes.
    """
    p = stream.params
    _as_int32_outliers(stream.outliers)  # re-assert the 32-bit contract
    parts = [
        _HEADER.pack(MAGIC, VERSION, list(DTYPES).index(p.dtype), len(p.dims), p.eps, p.block_len),
        np.asarray(p.dims, dtype="<u8").tobytes(),
        stream.widths.tobytes(),
        stream.outliers.astype("<i4").tobytes(),
        stream.sign_planes,
        stream.payload,
    ]
    return b"".join(parts)


def deserialize(data: bytes) -> CompressedStream:
    """Parse canonical bytes back into a stream, validating every section
    length against the header-derived expectation."""
    data = bytes(data)
    if len(data) < _HEADER.size:
        if data[: len(MAGIC)] != MAGIC[: len(data)]:
            raise BadMagic("not a compressed stream (magic mismatch)")
        raise TruncatedStream(f"{len(data)} bytes is shorter than the fixed header")
    magic, version, dtype_code, ndim, eps, block_len = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != VERSION:
        raise VersionMismatch(f"unsupported stream version {version}")
    if dtype_code >= len(DTYPES):
        raise GeometryMismatch(f"unknown dtype code {dtype_code}")

    pos = _HEADER.size

    def take(size: int, section: str) -> bytes:
        """The next ``size`` bytes, which lie inside ``section``."""
        nonlocal pos
        if len(data) < pos + size:
            raise TruncatedStream(f"byte sequence ends inside the {section}")
        pos += size
        return data[pos - size : pos]

    dims = tuple(int(d) for d in np.frombuffer(take(8 * ndim, "dims table"), dtype="<u8"))
    try:
        params = QuantParams(eps, dims, block_len, list(DTYPES)[dtype_code])
    except ValueError as exc:
        raise GeometryMismatch(f"invalid header: {exc}") from None

    b = params.block_count
    widths = np.frombuffer(take(b, "widths section"), dtype=np.uint8)
    if widths.size and int(widths.max()) > 64:
        raise GeometryMismatch(f"width {int(widths.max())} exceeds 64 bits")
    outliers = np.frombuffer(take(4 * b, "outliers section"), dtype="<i4").astype(np.int32)
    offsets = _layout(params, widths)
    sign_planes = take(int(offsets[0][-1]), "sign-plane section")
    payload = take(int(offsets[1][-1]), "payload section")
    if pos != len(data):
        raise GeometryMismatch(
            f"{len(data) - pos} trailing bytes beyond the declared sections"
        )
    return CompressedStream._with_layout(offsets, params, widths.copy(), outliers,
                                         sign_planes, payload)
