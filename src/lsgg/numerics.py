"""Small dense-vector kernels: a stable softmax and seeded unit vectors.
Everything is float64."""

from __future__ import annotations

import numpy as np

from .rng import SeededRng


def softmax(logits) -> np.ndarray:
    """Probabilities over the last axis (one distribution per row of a
    stack), stabilized by max subtraction."""
    x = np.asarray(logits, dtype=np.float64)
    if x.size == 0:
        raise ValueError("softmax of empty input")
    if not np.all(np.isfinite(x)):
        raise ValueError("softmax input contains non-finite entries")
    z = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return z / np.sum(z, axis=-1, keepdims=True)


def random_unit_vector(dim: int, rng: SeededRng) -> np.ndarray:
    """Gaussian direction normalized to unit length."""
    while True:
        v = rng.normal(dim)
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n
