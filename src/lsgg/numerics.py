"""Small dense-vector kernels: a stable softmax and seeded unit vectors.
Everything is float64. Also the BLAS thread setting of the process."""

from __future__ import annotations

import ctypes
import glob
import os

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


# -- BLAS threads ------------------------------------------------------------------
#
# A run makes thousands of small products, too small for a second OpenBLAS
# thread to save wall time; its worker spins between calls and doubles the
# CPU a run burns. A product that OpenBLAS splits between threads can also
# round differently from the same product on one thread, so the low bits of a
# run's files followed the host's thread count. Importing lsgg therefore sets
# one thread, overriding OPENBLAS_NUM_THREADS.

_OPENBLAS_NAMES = (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))


def _openblas():
    """(library, symbol prefix, symbol suffix) of the OpenBLAS bundled with
    numpy's wheel, loaded with ctypes, or None when there is none."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*.so*"))
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in _OPENBLAS_NAMES:
            if hasattr(lib, f"{prefix}_set_num_threads{suffix}"):
                return lib, prefix, suffix
    return None


def use_one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread in this process. Without
    that library it changes nothing."""
    found = _openblas()
    if found is not None:
        lib, prefix, suffix = found
        setter = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def blas_summary() -> str:
    """The BLAS library numpy runs on and its current thread count."""
    found = _openblas()
    if found is None:
        return "blas: no bundled OpenBLAS found, threads unknown"
    lib, prefix, suffix = found
    config = getattr(lib, f"{prefix}_get_config{suffix}")
    config.argtypes, config.restype = [], ctypes.c_char_p
    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
    threads.argtypes, threads.restype = [], ctypes.c_int
    return f"blas: {' '.join(config().decode().split())}, threads {threads()}"
