"""The format rules every file shares: data lines, float text, integer
fields, and the bit-exact ``array`` record of saved state."""

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


def unpack_floats(text: str, shape: tuple) -> np.ndarray:
    try:
        raw = base64.b64decode(text, validate=True)
    except Exception as exc:
        raise ValueError(f"bad base64 array payload: {exc}") from None
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if flat.size != int(np.prod(shape)):
        raise ValueError(f"array payload has {flat.size} values, expected {np.prod(shape)}")
    return flat.reshape(shape)


def array_record(name: str, arr) -> str:
    """The line ``array <name> <shape> <base64>`` that ``read_array`` reads back
    bit-exactly: comma-separated sizes, then float64 values (``pack_floats``),
    exact for integers below 2**53; an empty array's line ends at its shape."""
    shape = ",".join(str(n) for n in np.shape(arr))
    return f"array {name} {shape} {pack_floats(arr)}".rstrip() + "\n"


def put_once(records: dict, key, value, lineno: int) -> None:
    """``records[key] = value``; ValueError naming line ``lineno`` for a repeated key."""
    if key in records:
        raise ValueError(f"line {lineno}: repeated record {key!r}")
    records[key] = value


def read_array(arrays: dict, lineno: int, fields: str) -> str:
    """Read the fields after ``array`` of line ``lineno``'s record into ``arrays``
    and return its name; ValueError naming the line for a repeated name or a
    bad shape or payload."""
    try:
        name, shape_text, *payload = fields.split()
        shape = tuple(int(n) for n in shape_text.split(","))
        if min(shape) < 0 or len(payload) > 1:
            raise ValueError(f"bad shape {shape_text!r} or extra fields")
        arr = unpack_floats("".join(payload), shape)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: malformed array record: {exc}") from None
    put_once(arrays, name, arr, lineno)
    return name


def exact_ints(arr: np.ndarray) -> np.ndarray:
    """int64 copy of a float64 array of integers below 2**53 in magnitude,
    the ones an ``array`` record holds exactly; ValueError for any other."""
    if not (np.all(np.abs(arr) < 2**53) and np.array_equal(arr, np.trunc(arr))):
        raise ValueError("integer field holds a value that is not an integer below 2**53")
    return arr.astype(np.int64)
