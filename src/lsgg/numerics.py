"""Small dense-vector kernels: cosine similarity, stable softmax, and seeded
unit vectors. Everything is float64."""

from __future__ import annotations

import numpy as np

from .rng import SeededRng


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if v.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def cosine(a, b) -> float:
    """Cosine similarity a.b / (|a||b|).

    Zero-norm inputs are rejected: a degenerate feature vector is a data bug
    we want surfaced, not silently scored as 0.
    """
    va = as_vector(a, "a")
    vb = as_vector(b, "b")
    if va.shape[0] != vb.shape[0]:
        raise ValueError(f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for zero-norm vector")
    return float(np.dot(va, vb) / (na * nb))


def cosine_to_rows(query: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Cosine of one query against each row of a matrix (validated, vectorized)."""
    q = as_vector(query, "query")
    m = np.asarray(rows, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != q.shape[0]:
        raise ValueError(f"rows must be (n, {q.shape[0]}), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("rows contain non-finite entries")
    nq = np.linalg.norm(q)
    nr = np.linalg.norm(m, axis=1)
    if nq == 0.0 or np.any(nr == 0.0):
        raise ValueError("cosine undefined for zero-norm vector")
    return (m @ q) / (nr * nq)


class RowCache:
    """Pre-validated row matrix with cached norms for repeated cosine queries.

    ``cosines(q, qnorm)`` reproduces cosine_to_rows bit for bit (same matvec,
    same division) while skipping per-call stacking and validation.
    """

    __slots__ = ("rows", "norms")

    def __init__(self, rows):
        m = np.asarray(rows, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"need a row matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("rows contain non-finite entries")
        norms = np.linalg.norm(m, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("cosine undefined for zero-norm vector")
        self.rows = m
        self.norms = norms

    def cosines(self, query: np.ndarray, qnorm: float) -> np.ndarray:
        return (self.rows @ query) / (self.norms * qnorm)


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
