"""Synthetic scientific-looking test fields."""

from __future__ import annotations

import math

import numpy as np

from .codec import RawArray
from .model import _as_dims


def smooth_field(dims, seed: int = 0, dtype: str = "f32") -> RawArray:
    """Smooth multi-scale field: a few low-frequency cosine waves per axis
    with deterministic random amplitudes and phases.  Values are O(1)."""
    rng = np.random.default_rng(seed)
    dims = _as_dims(dims)
    field = np.zeros(dims, dtype=np.float64)
    for axis, d in enumerate(dims):
        x = np.linspace(0.0, 1.0, d, dtype=np.float64)
        wave = np.zeros(d, dtype=np.float64)
        for freq in (1.0, 2.0, 5.0):
            amp = rng.uniform(0.2, 1.0) / freq
            phase = rng.uniform(0.0, 2.0 * np.pi)
            wave += amp * np.cos(2.0 * np.pi * freq * x + phase)
        shape = [1] * len(dims)
        shape[axis] = d
        field += wave.reshape(shape)
    return RawArray(field.ravel(), dims, dtype)


def random_field(dims, seed: int = 0, dtype: str = "f32") -> RawArray:
    """Uniform white noise in [-1, 1)."""
    rng = np.random.default_rng(seed)
    dims = _as_dims(dims)
    return RawArray(rng.uniform(-1.0, 1.0, math.prod(dims)), dims, dtype)
