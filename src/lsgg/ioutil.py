"""The format rules every file shares: data lines, float text, integer
fields, and bit-exact float arrays."""

import base64

import numpy as np


def data_lines(path):
    """(1-based line number, stripped text) of each line of ``path`` that is
    neither blank nor a ``#`` comment, read as a stream."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if text and not text.startswith("#"):
                yield lineno, text


def pack_floats(arr) -> str:
    """Base64 of the little-endian float64 bytes; round-trips bit-exactly."""
    a = np.ascontiguousarray(arr, dtype="<f8")
    return base64.b64encode(a.tobytes()).decode("ascii")


def parse_int64(tok: str) -> int:
    """An integer field that must fit a signed 64-bit column; ValueError else."""
    v = int(tok)
    if not -2**63 <= v < 2**63:
        raise ValueError(f"{tok} does not fit in 64 bits")
    return v


def format_float(x) -> str:
    """Shortest decimal text that reads back as the same float64."""
    return repr(float(x))


def unpack_floats(text: str, shape) -> np.ndarray:
    try:
        raw = base64.b64decode(text, validate=True)
    except Exception as exc:
        raise ValueError(f"bad base64 array payload: {exc}") from None
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if isinstance(shape, int) and shape < 0:  # length unknown to the caller
        return flat
    want = shape if isinstance(shape, int) else int(np.prod(shape))
    if flat.size != want:
        raise ValueError(f"array payload has {flat.size} values, expected {want}")
    return flat.reshape(shape)
